"""Acceptance suite: every criterion at its stated tolerance.

Each test wraps its body in the ``criterion`` recorder from conftest, which
prints one pass/fail line per criterion at the end of the run and enforces
the runtime budgets.  Four sub-criteria are provably unattainable as stated
(numeric constants in them contradict the underlying asymptotics); they are
implemented faithfully and marked strict-xfail, with the true statement
asserted alongside.  Details sit next to each xfail marker.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from conftest import criterion

from cantorext.dimension import EtaProfile, LogPower
from cantorext.extension import (
    ExtensionOperator, check_chain_product_bound, check_distance_product_bound,
    dn_experiment,
)
from cantorext.gamma import (
    DELTA_FORM, DOUBLY_EXP, EXAMPLE1, EXAMPLE2, EXAMPLE3, EXPONENTIAL,
    POWER_LAW, build_model, classify_ep,
)
from cantorext.geometry import build_tree, endpoint_residuals, select_nodes, verify_geometry
from cantorext.hausdorff import (
    FloatAtoms, IslandFamily, content_dp, content_exhaustive,
    density_scan_islands, density_scan_tree, ep_root_test,
    lambda_level_estimate, q_rule_constant, q_rule_log,
)
from cantorext.markov import (
    markov_bounds, markov_numeric, ratio_table, tree_atom_bounds,
)

H_HALF = LogPower(alpha0=0.5)
H_LOG = LogPower(alpha0=1.0)

_CACHE: dict = {}


def ex1_tree_512():
    """Unit-weight doubly exponential model, depth 7 at 512 bits.

    Its first six levels are the depth-6 tree of criterion 1; level 7 serves
    the level-sum criterion.
    """
    if "ex1_512" not in _CACHE:
        _CACHE["ex1_512"] = build_tree(build_model(EXAMPLE1, k_max=14, B=1.0),
                                       depth=7, bits=512)
    return _CACHE["ex1_512"]


def plaw_tree_512():
    if "plaw_512" not in _CACHE:
        _CACHE["plaw_512"] = build_tree(build_model(POWER_LAW, k_max=12, a=2.0),
                                        depth=6, bits=512)
    return _CACHE["plaw_512"]


def ex1_tree_deep():
    """Depth 10 at 8192 bits: node types to 10, truncation levels to 6."""
    if "ex1_deep" not in _CACHE:
        _CACHE["ex1_deep"] = build_tree(build_model(EXAMPLE1, k_max=16, B=1.0),
                                        depth=10, bits=8192)
    return _CACHE["ex1_deep"]


def deep_operator():
    if "op_deep" not in _CACHE:
        _CACHE["op_deep"] = ExtensionOperator(ex1_tree_deep(), s_max=6)
    return _CACHE["op_deep"]


# ---------------------------------------------------------------------------
# 1. geometry invariants
# ---------------------------------------------------------------------------

def test_c1_geometry_invariants():
    with criterion("1", budget=10.0):
        for tree in (ex1_tree_512(), plaw_tree_512()):
            rep = verify_geometry(tree)
            for lvl in rep.levels[:6]:
                assert lvl.length_bounds_ok, (tree.model.family, lvl)
                assert lvl.min_gap_over_len >= 7.0 / 8.0
                assert lvl.sharp_gap_ok
            # endpoint residuals: |P_{2^{s+1}}| < 2^-256 * r_s^2 at every endpoint
            for s, log2_res in endpoint_residuals(tree):
                if s <= 6:
                    assert log2_res < -256.0, (tree.model.family, s, log2_res)


# ---------------------------------------------------------------------------
# 2. the node rule
# ---------------------------------------------------------------------------

def test_c2_node_rule():
    with criterion("2", budget=1.0):
        tree = ex1_tree_512()
        with mp.workprec(tree.bits):
            l = {(j, s): tree.interval(j, s).right - tree.interval(j, s).left
                 for s in (1, 2) for j in range(1, 2 ** s + 1)}
            want = [
                mp.mpf(0), mp.mpf(1),
                l[(1, 1)], 1 - l[(2, 1)],
                l[(1, 2)], 1 - l[(4, 2)],
                l[(1, 1)] - l[(2, 2)], 1 - l[(2, 1)] + l[(3, 2)],
            ]
            got = select_nodes(tree, (1, 0), 8).points()
            for i, (g, w) in enumerate(zip(got, want)):
                assert abs(g - w) < mp.mpf(2) ** (-tree.bits + 64), f"node {i + 1}"
        for N in range(1, 9):
            assert select_nodes(tree, (1, 0), N).points() == got[:N]


# ---------------------------------------------------------------------------
# 3. extension identity
# ---------------------------------------------------------------------------

def test_c3_extension_identity():
    with criterion("3", budget=60.0):
        op = deep_operator()
        tree = op.tree
        with mp.workprec(tree.bits):
            # polynomial reproduction at every depth-5 endpoint, truncation 5
            endpoints = []
            for iv in tree.levels[5]:
                endpoints.append(iv.left)
                endpoints.append(iv.right)
            endpoints = sorted(set(endpoints))
            assert len(endpoints) == 64
            for name, f in (("one", lambda v: mp.mpf(1)),
                            ("id", lambda v: v),
                            ("sq", lambda v: v * v)):
                for x in endpoints:
                    out = op.evaluate(f, x, s_max=5)
                    fx = f(x)
                    scale = abs(fx) if fx != 0 else mp.mpf(1)
                    assert abs(out.value - fx) <= mp.mpf("1e-12") * scale, (name, x)
            # sin against the certified truncation bound, S = 3..6
            rng = np.random.default_rng(2026)
            inner = [iv.right if iv.index % 2 else iv.left
                     for iv in tree.levels[10]]
            xs = [inner[i] for i in rng.choice(len(inner), size=100, replace=False)]
            sin_xs = [mp.sin(x) for x in xs]
            for S in (3, 4, 5, 6):
                for x, sin_x in zip(xs, sin_xs):
                    out = op.evaluate(mp.sin, x, norm_q=2.0, q=5, s_max=S)
                    err = abs(out.value - sin_x)
                    assert err <= out.certified_bound.to_mpf(), (S, float(x))


# ---------------------------------------------------------------------------
# 4. locality
# ---------------------------------------------------------------------------

def test_c4_locality():
    with criterion("4", budget=60.0):
        op = deep_operator()
        tree = op.tree
        sched = op.schedule
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.0, 1.0, size=1000)
        violations = 0
        for s in range(6):
            # accumulation supports: width delta_{s + n} down the stage
            tA = s + (sched.n[s - 1] - 1 if s else 1)
            winA = []
            for j in range(1, 2 ** s + 1):
                b = op._bump(j, s, tA)
                t = float(b.t)
                winA.extend((float(lo) - t, float(hi) + t, j)
                            for lo, hi in b.components)
            tT = s + sched.n[s] - 1
            winT = []
            for k in range(1, 2 ** (s + 1) + 1):
                b = op._bump(k, s + 1, tT)
                t = float(b.t)
                winT.extend([(float(lo) - t, float(hi) + t, k)
                             for lo, hi in b.components])
            for x in xs:
                # count distinct intervals with a live cutoff window
                hitsA = len({j for lo, hi, j in winA if lo < x < hi})
                hitsT = len({k for lo, hi, k in winT if lo < x < hi})
                if hitsA > 1 or hitsT > 1:
                    violations += 1
        assert violations == 0


# ---------------------------------------------------------------------------
# 5. distance-product and chain-product suites
# ---------------------------------------------------------------------------

def test_c5_product_inequalities():
    with criterion("5", budget=120.0):
        tree = ex1_tree_512()
        for interval in ((1, 1), (1, 2)):
            for N in range(2, 13):
                assert check_distance_product_bound(tree, interval, N), \
                    (interval, N)
                for q in (1, 3):
                    if q + 1 < N:
                        assert check_chain_product_bound(tree, interval, N, q), \
                            (interval, N, q)


# ---------------------------------------------------------------------------
# 6. the dominating-norm experiment
# ---------------------------------------------------------------------------

def _dip_report():
    model = build_model(EXAMPLE2, k_max=40, variant="A")
    kj = model.meta["kj"]
    pairs = [(2 ** (kj[j] - kj[j - 1]), kj[j - 1]) for j in (2, 3, 4, 5)]
    return dn_experiment(model, eps=0.25, m=0,
                         r_list=[r for r, _ in pairs],
                         s_list=[s for _, s in pairs])


def test_c6_dip_bound_grows_and_clears_threshold():
    with criterion("6", note="threshold at j=2 in the xfail companion"):
        rep = _dip_report()
        # certified bounds strictly increase along j = 2..5
        assert rep.diverges
        # ... and clear (1/2) ln(1/delta_{s+n}) from j = 3 on
        for row in rep.rows[1:]:
            assert row.fires
            assert row.ln_bound_scaled >= 2.0 ** (row.s + row.n) * row.threshold
        # constant weights: the same statistic shows no growth
        m1 = build_model(EXAMPLE1, k_max=40, B=1.0)
        pairs = [(2 ** 5, 4), (2 ** 7, 9), (2 ** 9, 16), (2 ** 11, 25)]
        rep1 = dn_experiment(m1, eps=0.25, m=0,
                             r_list=[r for r, _ in pairs],
                             s_list=[s for _, s in pairs])
        assert not rep1.diverges
        assert rep1.rows[-1].brace < 0  # negative for large n


@pytest.mark.xfail(strict=True, reason=(
    "criterion 6 also asks the j=2 witness to clear (1/2) ln(1/delta_{s+n}); "
    "with k_j = j^2 the block inequality misses by 0.9% there "
    "(B_9 = 0.53985 < 0.25 * sum B_4..B_8 = 0.54472), so the dip family "
    "fires only from j = 3 on"))
def test_c6_dip_bound_at_j2_spec_defect():
    rep = _dip_report()
    row = rep.rows[0]
    assert row.ln_bound_scaled >= 2.0 ** (row.s + row.n) * row.threshold


# ---------------------------------------------------------------------------
# 7. contents by covering DP
# ---------------------------------------------------------------------------

def test_c7_content_dp():
    with criterion("7", budget=30.0, note="pair merge at alpha=1/2 in the xfail companion"):
        fam = IslandFamily(q_rule_constant(2.0), k_max=60)
        for n in (5, 10, 20):
            atoms = fam.atoms(k_from=n)
            res = content_dp(atoms, H_HALF)
            assert res.value == pytest.approx(H_HALF.h_ln(float(n)), rel=1e-12)
            assert res.runs == [(0, atoms.count - 1)]
        # the adjacent-pair refusal holds at the logarithmic measure
        res = content_dp(fam.island_pair(10), H_LOG)
        assert res.runs == [(0, 0), (1, 1)]
        assert res.value == pytest.approx(1 / 20 + 1 / 22, rel=1e-12)
        # exhaustive-oracle equality on every atom set up to 12 atoms
        rng = np.random.default_rng(5)
        for trial in range(24):
            m = int(rng.integers(1, 13))
            pos, atoms = 0.001, []
            for _ in range(m):
                length = float(rng.uniform(1e-6, 0.04))
                gap = float(rng.uniform(1e-6, 0.04))
                atoms.append((pos, pos + length))
                pos += length + gap
            fa = FloatAtoms(atoms)
            for h in (H_HALF, H_LOG):
                assert content_dp(fa, h).value == pytest.approx(
                    content_exhaustive(fa, h), rel=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "criterion 7 asks the DP to refuse merging adjacent islands I_k, I_{k+1} "
    "at (Q=2, alpha0=1/2), but there h(b_k - a_{k+1}) = 0.3092 < "
    "h(|I_k|') + h(|I_{k+1}|) = 0.4368 at k=10: the one-interval cover is "
    "genuinely cheaper.  The refusal needs Q^alpha0 > 2 (it holds e.g. at "
    "alpha0 = 1, asserted in the main test)"))
def test_c7_pair_refusal_at_half_exponent_spec_defect():
    fam = IslandFamily(q_rule_constant(2.0), k_max=60)
    res = content_dp(fam.island_pair(10), H_HALF)
    assert res.runs == [(0, 0), (1, 1)]


# ---------------------------------------------------------------------------
# 8. level sums
# ---------------------------------------------------------------------------

def test_c8_level_sums():
    with criterion("8"):
        tree = ex1_tree_512()
        h = EtaProfile(tree.model)
        prev = math.inf
        for k in range(4, 8):
            ls = lambda_level_estimate(tree, h, k)
            ln_c0 = 16.0 * tree.model.gamma_sum
            a_k = math.exp(ln_c0 * math.log(2.0)
                           / tree.model.ln_inv_gamma_float(k))
            assert 1.0 < ls.value < 1.0 + a_k
            assert ls.value < ls.upper  # the sharp bracket 2^k h(C0 delta_k)
            assert ls.value < prev
            prev = ls.value


# ---------------------------------------------------------------------------
# 9. densities
# ---------------------------------------------------------------------------

def test_c9_densities():
    with criterion("9", note="0.05-by-k=200 claim in the xfail companion"):
        fam = IslandFamily(q_rule_constant(2.0), k_max=200)
        table = density_scan_islands(fam, H_HALF,
                                     k_list=[10, 25, 50, 100, 150, 199])
        assert table.liminf_estimate == pytest.approx(2.0 ** -0.5, rel=0.10)
        # unbounded exponents: the ratio at the extremal radii decays to 0
        fam_u = IslandFamily(q_rule_log(), k_max=200)
        tu = density_scan_islands(fam_u, H_HALF, k_list=[25, 60, 120, 199])
        ratios = [p.ratio for p in tu.per_r]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(math.log(199) ** -0.5, rel=0.05)
        # equal densities with opposite extension verdicts
        for b, bits, depth in ((2.0, 512, 6), (3.0, 1024, 5)):
            model = build_model(DELTA_FORM, k_max=12, b=b)
            tree = build_tree(model, depth=depth, bits=bits)
            tbl = density_scan_tree(tree, H_HALF, range(2, depth + 1),
                                    analytic_limit=b ** -0.5)
            assert tbl.liminf_estimate == pytest.approx(b ** -0.5, rel=0.10)
        assert classify_ep(build_model(DELTA_FORM, k_max=12, b=2.0)).ep == "yes"
        assert classify_ep(build_model(DELTA_FORM, k_max=12, b=3.0)).ep == "no"


@pytest.mark.xfail(strict=True, reason=(
    "criterion 9 asks the unbounded-exponent ratio to fall below 0.05 by "
    "k = 200, but the ratio is (Q_k)^{-alpha0} (1+o(1)) = (log k)^{-1/2}, "
    "which is 0.434 at k = 200; 0.05 would need log k ~ 400"))
def test_c9_unbounded_q_below_5pct_spec_defect():
    fam_u = IslandFamily(q_rule_log(), k_max=200)
    tu = density_scan_islands(fam_u, H_HALF, k_list=[199])
    assert tu.per_r[-1].ratio < 0.05


# ---------------------------------------------------------------------------
# 10. the k-th-root limits
# ---------------------------------------------------------------------------

def test_c10_root_limits():
    with criterion("10", note="5%-at-k=40 for the corrected exponent in the xfail companion"):
        # constant exponent 1/2: a_k = 4 exactly, for every k
        rt = ep_root_test(H_HALF, range(5, 41, 5))
        assert rt.horizon_value == pytest.approx(4.0, rel=0.05)
        assert rt.verdict == "no"
        # corrected exponent 1 - eps_3: decreasing toward 2, and within 5%
        # once the triple-log correction has decayed (k = 1e7 in log domain)
        h = LogPower(1.0, -1, 3)
        rt2 = ep_root_test(h, [10, 20, 40])
        assert rt2.verdict == "yes" and rt2.analytic_limit == 2.0
        assert rt2.a_values[0] > rt2.a_values[1] > rt2.a_values[2] > 2.0
        deep = ep_root_test(h, [10 ** 7])
        assert deep.a_values[0] == pytest.approx(2.0, rel=0.05)


@pytest.mark.xfail(strict=True, reason=(
    "criterion 10 asks a_k within 5% of 2 by k = 40 for alpha = 1 - eps_3, "
    "but a_40 = 2.5997: the correction decays like 1/log log log(1/t), and "
    "|a_k - 2| <= 0.1 first happens near k = 5.5e6 (the k = 1e7 value is "
    "asserted in the main test)"))
def test_c10_corrected_exponent_at_k40_spec_defect():
    rt = ep_root_test(LogPower(1.0, -1, 3), [40])
    assert rt.horizon_value == pytest.approx(2.0, rel=0.05)


# ---------------------------------------------------------------------------
# 11. Markov factors
# ---------------------------------------------------------------------------

def test_c11_markov():
    with criterion("11", budget=60.0):
        # classical values on [0,1]
        for n, want in ((2, 8.0), (3, 18.0)):
            est = markov_numeric([(0.0, 1.0)], n, points_per_atom=512)
            assert est.value == pytest.approx(want, rel=0.02)
            assert not est.stalled
        # bracket consistency on a depth-3 tree
        tree = build_tree(build_model(POWER_LAW, k_max=12, a=2.0),
                          depth=3, bits=512)
        atoms = tree_atom_bounds(tree)
        for n in (4, 8):
            est = markov_numeric(atoms, n, points_per_atom=24)
            bounds = markov_bounds(tree.model, n)
            assert bounds.bracket_contains_ln(math.log(est.value))
        # crossover table at B = 2: strictly decreasing and negative past j = 3
        table = ratio_table(build_model(EXAMPLE1, k_max=32, B=2.0),
                            build_model(EXAMPLE2, k_max=32), range(2, 26))
        tail = [r for r in table.rows if r.k >= 9]
        assert all(r.ln_bound < 0 for r in tail)
        assert all(a.ln_bound > b.ln_bound for a, b in zip(tail, tail[1:]))
        assert table.decreasing_negative_from is not None
        assert table.decreasing_negative_from <= 9


# ---------------------------------------------------------------------------
# 12. the verdict table
# ---------------------------------------------------------------------------

def test_c12_classifier_regression():
    with criterion("12"):
        table = [
            (build_model(POWER_LAW, a=2.0), "yes"),
            (build_model(EXPONENTIAL, a=2.0), "yes"),
            (build_model(DOUBLY_EXP, a=2.0), "yes"),
            (build_model(DOUBLY_EXP, a=3.0), "no"),
            (build_model(EXAMPLE1, B=1.0), "yes"),
            (build_model(EXAMPLE2, variant="A"), "no"),
            (build_model(EXAMPLE3, k_max=60), "yes"),
            (build_model(DELTA_FORM, b=2.0), "yes"),
            (build_model(DELTA_FORM, b=3.0), "no"),
        ]
        for model, want in table:
            got = classify_ep(model)
            assert got.ep == want, (model.family, model.params, got)
