import gc
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from test_acceptance import ex1_tree_deep

from cantorext.bump import (BumpSpec, bump_for_interval, merge_atoms,
                            step_series, step_value_mpf)
from cantorext.errors import (HorizonError, InvariantError, NodeCollisionError,
                              ParameterError)
from cantorext.extension import (
    ExtensionOperator, check_chain_product_bound,
    check_cutoff_product_bound, check_distance_product_bound,
    divided_differences, dn_experiment, polynomial_jet, schedule_for,
    whitney_norm,
)
from cantorext.gamma import EXAMPLE1, EXAMPLE2, POWER_LAW, build_model, profile
from cantorext.geometry import build_tree, select_nodes


@pytest.fixture(scope="module")
def tree_ex1():
    # deep enough for truncation level 4 (types to 7)
    return build_tree(build_model(EXAMPLE1, k_max=14, B=1.0), depth=7, bits=1024)


@pytest.fixture(scope="module")
def tree_ex1_512():
    return build_tree(build_model(EXAMPLE1, k_max=14, B=1.0), depth=7, bits=512)


@pytest.fixture(scope="module")
def probe_points_512(tree_ex1_512):
    """On-set endpoints, uniform off-set points, and points inside the
    narrow shoulders (distance c delta_k from an atom), at tree precision."""
    tree = tree_ex1_512
    rng = np.random.default_rng(3)
    with mp.workprec(tree.bits):
        on_set = [z for iv in tree.levels[7][5::23] for z in (iv.left, iv.right)]
        off_set = [mp.mpf(float(u)) for u in rng.uniform(-0.05, 1.05, size=12)]
        shoulder = [iv.right + tree.delta_mpf(k) * c
                    for iv in tree.levels[7][9::40] for k in (3, 4, 5, 6)
                    for c in (mp.mpf("0.4"), mp.mpf("0.8"))]
    return on_set + off_set + shoulder


@pytest.fixture(scope="module")
def tree_plaw():
    return build_tree(build_model(POWER_LAW, k_max=12, a=2.0), depth=5, bits=512)


class TestSchedule:
    def test_example1_schedule(self):
        p = profile(build_model(EXAMPLE1, k_max=12, B=1.0))
        sched = schedule_for(p, 8)
        # ln(1/delta_s) = 2^{s+1}: n_s = s+1 from s = 2 on
        assert sched.n == (2, 2, 3, 4, 5, 6, 7, 8, 9)
        assert sched.M(0) == 1 and sched.M(1) == 1 and sched.M(3) == 3
        assert sched.N(2) == 7

    def test_sandwich_invariant(self):
        p = profile(build_model(POWER_LAW, k_max=30, a=2.0))
        sched = schedule_for(p, 20)
        for s in range(2, 21):
            L = float(p.ln_inv_delta(s))
            assert 0.5 * L < 2 ** sched.n[s] <= L
        assert all(a <= b for a, b in zip(sched.n, sched.n[1:]))


class TestDividedDifferences:
    def test_square_function(self):
        pts = [mp.mpf(0), mp.mpf(1), mp.mpf("0.5")]
        coeffs = divided_differences(pts, [p * p for p in pts])
        assert [float(c) for c in coeffs] == [0.0, 1.0, 1.0]

    def test_degree_exactness(self):
        # a cubic at 5 nodes: fourth coefficient vanishes
        pts = [mp.mpf(v) for v in (0, 1, 0.3, 0.7, 0.5)]
        coeffs = divided_differences(pts, [p ** 3 for p in pts])
        assert abs(coeffs[4]) < 1e-13

    def test_constants(self):
        pts = [mp.mpf(v) for v in (0, 1, 0.25, 0.125)]
        coeffs = divided_differences(pts, [mp.mpf(7)] * 4)
        assert [float(c) for c in coeffs] == [7.0, 0.0, 0.0, 0.0]

    def test_collision(self):
        with pytest.raises(NodeCollisionError):
            divided_differences([mp.mpf(0), mp.mpf(0)], [mp.mpf(0), mp.mpf(1)])

    def test_collision_is_decided_on_the_full_difference(self):
        # equal nodes raise whatever the values are; nodes 2^-250 apart at
        # 256 bits do not, though the entries above them carry few bits
        with mp.workprec(256):
            equal = [mp.mpf(1), mp.mpf(2) ** -40, mp.mpf(1)]
            for vals in ([mp.mpf(3)] * 3, [mp.mpf(1), mp.mpf(2), mp.inf]):
                with pytest.raises(NodeCollisionError, match="nodes 0 and 2"):
                    divided_differences(equal, vals)
            apart = [mp.mpf(1), mp.mpf(2) ** -40, 1 + mp.mpf(2) ** -250]
        _assert_within_full_error(apart, mp.sin, 256, 768)

    @pytest.mark.parametrize("bits", [128, 1024, 8192])
    def test_exact_zeros_stay_exact(self, bits):
        # constant f, and x^2 at dyadic nodes, whose tables are exact
        with mp.workprec(bits):
            pts = [mp.mpf(v) for v in (0, 1, 0.25, 0.75, 0.5, 0.375)]
            for vals in ([mp.mpf(7)] * 6, [z * z for z in pts]):
                got = divided_differences(pts, vals)
                assert _bits(got) == _bits(_dd_full(pts, vals))
                assert all(c == 0 for c in got[3:])
            assert got[:3] == [0, 1, 1]

    @pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan])
    def test_non_finite_values_match_the_full_table(self, bad):
        with mp.workprec(2048):
            pts = [mp.mpf(1) / k for k in range(1, 8)]
            for at in (0, 3, 6):
                vals = [mp.exp(z) for z in pts]
                vals[at] = bad
                got = divided_differences(pts, vals)
                assert _bits(got) == _bits(_dd_full(pts, vals))
                assert not all(mp.isfinite(c) for c in got)


def _dd_full(points, values):
    """The whole-precision table: every division at the working precision."""
    n = len(points)
    table = list(values)
    coeffs = [table[0]]
    for order in range(1, n):
        for i in range(n - order):
            dz = points[i + order] - points[i]
            if dz == 0:
                raise NodeCollisionError(f"nodes {i} and {i + order} coincide")
            table[i] = (table[i + 1] - table[i]) / dz
        coeffs.append(table[0])
    return coeffs


def _bits(coeffs):
    return [c._mpf_ for c in coeffs]


def _runge(v):
    return 1 / (1 + 25 * v * v)


_DD_FUNCS = {"sin": mp.sin, "exp": mp.exp, "runge": _runge,
             "quintic": lambda v: v ** 5 - v}


def _clustered(data, prec, max_nodes):
    """Distinct nodes at ``prec`` bits, listed cluster by cluster: up to
    three centres, one in each third of [-1, 1), with offsets at scales
    2^-4 down to 2^-(prec/4) around each.  Each centre has an irrational
    part, so that the nodes and f's values carry rounding errors of their
    own (see ``test_exact_inputs_can_beat_the_shortcut``)."""
    nodes = []
    for i in range(data.draw(st.integers(1, 3))):
        c = mp.mpf(data.draw(st.floats(-1 + 2 * i / 3, -2 / 3 + 2 * i / 3))) \
            + mp.sqrt(2) / 2 ** 60
        for _ in range(data.draw(st.integers(1, 5))):
            k = data.draw(st.integers(4, prec // 4))
            u = data.draw(st.floats(0.5, 1))
            nodes.append(c + mp.mpf(u) * mp.mpf(2) ** -k)
    nodes = list(dict.fromkeys(nodes))[:max_nodes]
    assume(len(nodes) >= 2)
    return nodes


def _assert_within_full_error(points, f, prec, ref_prec):
    """Every coefficient of the shortcut is within 2^4 times the full table's
    own error (or the reference coefficient's ulp at ``prec`` bits) of a
    reference table taken at ``ref_prec`` bits."""
    with mp.workprec(prec):
        vals = [f(z) for z in points]
        got = divided_differences(points, vals)
        full = _dd_full(points, vals)
    with mp.workprec(ref_prec):
        ref = _dd_full(points, [f(z) for z in points])
        for k, (g, w, r) in enumerate(zip(got, full, ref)):
            _, man, exp, bc = r._mpf_
            ulp = mp.ldexp(1, exp + bc - prec) if man else 0
            assert abs(g - r) <= 16 * max(abs(w - r), ulp), k


class TestReducedPrecisionTable:
    """``divided_differences`` divides at the precision an entry carries;
    ``_dd_full`` is the whole-precision table it replaces."""

    @settings(max_examples=150, deadline=None)
    @given(prec=st.integers(24, 128), name=st.sampled_from(sorted(_DD_FUNCS)),
           data=st.data())
    def test_bit_for_bit_at_or_below_the_floor(self, prec, name, data):
        # smooth values at clustered nodes cancel more than 64 bits, so
        # only the floor keeps these divisions at the working precision
        with mp.workprec(prec):
            points = _clustered(data, prec, 12)
            for vals in ([_DD_FUNCS[name](z) for z in points],
                         [mp.mpf(data.draw(st.floats(-1e6, 1e6)))
                          for _ in points]):
                assert _bits(divided_differences(points, vals)) == \
                    _bits(_dd_full(points, vals))

    @settings(max_examples=60, deadline=None)
    @given(prec=st.integers(256, 1024), name=st.sampled_from(sorted(_DD_FUNCS)),
           data=st.data())
    def test_clustered_nodes_within_the_full_tables_error(self, prec, name,
                                                          data):
        with mp.workprec(prec):
            points = _clustered(data, prec, 14)
        _assert_within_full_error(points, _DD_FUNCS[name], prec, 3 * prec)

    @pytest.mark.parametrize("name,prec,nodes", [
        # the node next to 0.5 comes back after two nodes next to 0
        ("exp", 459, ((0.5, 5.308404904911445e-67), (2.0 ** -67,),
                      (2.0 ** -65,), (0.5,))),
        ("runge", 294, ((-0.96875,), (2.0 ** -69,), (2.0 ** -70,))),
    ])
    def test_exact_inputs_can_beat_the_shortcut(self, name, prec, nodes):
        # Found by the search above before the centres got an irrational
        # part.  At dyadic nodes f's values round by far less than an ulp,
        # so the full table ends up exact well below its own error bound,
        # while the shortcut keeps 64 bits past that bound and no more.
        # Shifted by an irrational amount, the same nodes meet the 2^4 bound.
        with mp.workprec(prec):
            exact = [mp.fsum(parts) for parts in nodes]
            shifted = [z + mp.sqrt(2) / 2 ** 60 for z in exact]
        with pytest.raises(AssertionError):
            _assert_within_full_error(exact, _DD_FUNCS[name], prec, 3 * prec)
        _assert_within_full_error(shifted, _DD_FUNCS[name], prec, 3 * prec)

    @pytest.mark.parametrize("interval,n_nodes", [((3, 5), 64), ((2, 4), 32)])
    def test_c3_sin_tables_within_the_full_tables_error(self, interval,
                                                        n_nodes):
        # the S = 6 table of criterion 3, whose top coefficients carry no
        # correct bit at 8192 bits, and a level-4 table
        tree = ex1_tree_deep()
        points = select_nodes(tree, interval, n_nodes).points()
        _assert_within_full_error(points, mp.sin, tree.bits, 3 * tree.bits)


class TestBump:
    def test_plateau_and_support(self):
        spec = BumpSpec(t=0.3, components=[(0.0, 1.0)])
        assert spec.value(0.5) == 1
        assert spec.value(0.0) == 1
        assert spec.value(1.0 + 0.3) == 0  # beyond the shoulder
        assert spec.value(-0.5) == 0
        v = float(spec.value(1.0 + 0.15))
        assert 0.0 < v < 1.0

    def test_merge_rule(self):
        comps = merge_atoms([(0.0, 0.1), (0.15, 0.2), (0.5, 0.6)], t=0.3)
        assert comps == [(0.0, 0.2), (0.5, 0.6)]  # first gap 0.05 <= t/3

    def test_bounded_by_one_in_overlap(self):
        # two components with overlapping shoulders: u stays within [0, 1]
        spec = BumpSpec(t=0.3, components=[(0.0, 0.1), (0.25, 0.35)])
        for x in np.linspace(-0.2, 0.55, 301):
            v = float(spec.value(x))
            assert -1e-15 <= v <= 1.0 + 1e-15

    def test_series_matches_finite_differences(self):
        spec = BumpSpec(t=0.3, components=[(0.0, 0.5)])
        xs = [-0.15, -0.12, 0.62]
        hstep = 1e-6
        for x in xs:
            ser = spec.series(x)
            for p in (1, 2):
                fd = (spec.derivative(x + hstep, p - 1)
                      - spec.derivative(x - hstep, p - 1)) / (2 * hstep)
                assert spec.derivative(x, p) == pytest.approx(fd, rel=2e-4, abs=1e-6)

    # 1e-8 and 1 - 1e-8 check the degenerate ends (every coefficient 0.0,
    # or (1, 0, 0, 0)); 2e-3 and 1 - 2e-3 check E(y) huge and tiny while
    # the coefficients (down to ~1e-217) are still normal doubles.  The
    # reference is unchopped and at 1024 bits, so that coefficients ~1e-212
    # beside S ~ 1 near y = 1 survive.
    @pytest.mark.parametrize("y", [1e-8, 2e-3, 0.01, 0.05, 0.3, 0.5, 0.7,
                                   0.99, 1 - 2e-3, 1 - 1e-8])
    def test_step_series_matches_mpmath_taylor(self, y):
        with mp.workprec(1024):
            ref = [float(c) for c in
                   mp.taylor(step_value_mpf, mp.mpf(y), 3, chop=False)]
        assert list(step_series(y)) == pytest.approx(ref, rel=1e-15, abs=1e-300)

    def test_cp_monotone(self):
        spec = BumpSpec(t=0.2, components=[(0.0, 0.4)])
        cp = spec.c_p_table
        assert all(a <= b for a, b in zip(cp, cp[1:]))
        assert cp[0] == 1.0

    @staticmethod
    def _scan_value(spec, x):
        """u(x) and the number of live shoulders, by a scan over every component."""
        with mp.workprec(spec.bits):
            m = mp.mpf(spec.t) / 3
            prod, plateau, live = None, False, 0
            for lo, hi in spec.components:
                if lo <= x <= hi:
                    plateau = True
                    continue
                if x <= lo - 2 * m or x >= hi + 2 * m:
                    continue
                live += 1
                rise = step_value_mpf((x - (lo - 2 * m)) / m)
                fall = step_value_mpf(((hi + 2 * m) - x) / m)
                prod = (1 - rise * fall) if prod is None \
                    else prod * (1 - rise * fall)
            if plateau:
                return mp.mpf(1), live
            return (mp.mpf(0) if prod is None else 1 - prod), live

    @staticmethod
    def _probe_points(spec):
        """Plateau middles, exact edges, shoulder points and gap middles.

        A dozen components spread over the cutoff, plus the first few whose
        shoulders overlap the next component's.
        """
        m = spec.t / 3
        comps = spec.components
        picked = set(range(0, len(comps), max(1, len(comps) // 12)))
        picked.add(len(comps) - 1)
        close = [i for i in range(len(comps) - 1) if comps[i + 1][0] - comps[i][1] < 4 * m]
        picked.update(close[:3])
        xs = []
        for i in sorted(picked):
            lo, hi = comps[i]
            xs += [lo, hi, (lo + hi) / 2, lo - spec.t, hi + spec.t]
            xs += [lo - c * m for c in (0.5, 1, 1.5, 2, 2.5)]
            xs += [hi + c * m for c in (0.5, 1, 1.5, 2, 2.5)]
            if i + 1 < len(comps):
                xs.append((hi + comps[i + 1][0]) / 2)
        return xs

    def _specs(self, tree):
        """Cutoffs at three level widths, plus one whose shoulders overlap."""
        atoms = tree.atoms()
        gap = min(b.left - a.right for a, b in zip(atoms, atoms[1:]))
        widths = [tree.delta_mpf(k) for k in (1, tree.depth // 2, tree.depth)]
        widths.append(gap * 3 / 2)  # margin gap/2: neighbours' shoulders overlap
        specs = []
        with mp.workprec(tree.bits):
            for t in widths:
                specs.append(bump_for_interval(tree, 1, 0, t))
                specs.append(bump_for_interval(tree, 2, 1, t))
                if tree.model.family == POWER_LAW:  # lengths a double resolves
                    float_atoms = [(float(iv.left), float(iv.right)) for iv in atoms]
                    specs.append(BumpSpec(t=float(t), components=merge_atoms(
                        float_atoms, float(t))))
        return specs

    @pytest.mark.parametrize("tree_name", ["tree_ex1_512", "tree_plaw"])
    def test_bisected_window_matches_scan(self, tree_name, request):
        tree = request.getfixturevalue(tree_name)
        overlaps = 0
        for spec in self._specs(tree):
            assert all(a[1] < b[0] for a, b in zip(spec.components, spec.components[1:]))
            with mp.workprec(tree.bits):
                for x in self._probe_points(spec):
                    want, live = self._scan_value(spec, x)
                    assert spec.value(x) == want, (spec.t, x)
                    hit = any(lo - spec.t < x < hi + spec.t for lo, hi in spec.components)
                    assert spec.support_hit(x) == hit, (spec.t, x)
                    overlaps += live >= 2
        assert overlaps > 0  # the shoulder-overlap case was exercised

    def test_gap_interior_zero(self, tree_ex1):
        # the cutoff of width delta_{s+1} dies inside the central gap
        t = tree_ex1.delta_mpf(3)
        spec = bump_for_interval(tree_ex1, 1, 2, t)
        iv = tree_ex1.interval(1, 2)
        cl, cr = tree_ex1.children(iv)
        mid = (cl.right + cr.left) / 2
        assert spec.value(mid) == 0


class TestOperatorIdentities:
    def test_constant_reproduction(self, tree_ex1):
        op = ExtensionOperator(tree_ex1, s_max=3)
        one = lambda x: mp.mpf(1)
        for (j, s) in [(1, 3), (5, 3), (8, 3)]:
            x = tree_ex1.interval(j, s).left
            out = op.evaluate(one, x)
            assert abs(out.value - 1) < mp.mpf(2) ** (-tree_ex1.bits // 2)

    def test_linear_reproduction_every_truncation(self, tree_ex1):
        # degree <= M_0 = 1 reproduces exactly at every truncation level
        op = ExtensionOperator(tree_ex1, s_max=3)
        ident = lambda x: x
        for s_max in (1, 2, 3):
            for iv in tree_ex1.levels[4][:6]:
                out = op.evaluate(ident, iv.right, s_max=s_max)
                assert abs(out.value - iv.right) < mp.mpf(2) ** (-tree_ex1.bits // 2)

    def test_telescoping_to_local_interpolant(self, tree_ex1):
        # on the set, the truncated operator equals L_{M_S} on the containing interval
        op = ExtensionOperator(tree_ex1, s_max=3)
        f = lambda x: mp.sin(x)
        iv = tree_ex1.interval(3, 4)
        x = iv.left
        out = op.evaluate(f, x)
        j3 = next(j for j in range(1, 9)
                  if tree_ex1.interval(j, 3).left <= x <= tree_ex1.interval(j, 3).right)
        with mp.workprec(tree_ex1.bits):
            itp = op._interpolant(f, op._per_f[f], j3, 3, op.schedule.M(3) + 1)
            direct = itp.partial(x, op.schedule.M(3))
            assert abs(out.value - direct) < mp.mpf(2) ** (-tree_ex1.bits + 64)

    def test_off_set_evaluation_finite(self, tree_ex1):
        op = ExtensionOperator(tree_ex1, s_max=2)
        out = op.evaluate(lambda x: mp.sin(x), mp.mpf("0.41"))
        assert mp.isfinite(out.value)

    def test_locality_audit(self, tree_ex1):
        op = ExtensionOperator(tree_ex1, s_max=3)
        rng = np.random.default_rng(7)
        for x in rng.uniform(-0.1, 1.1, size=40):
            out = op.evaluate(lambda v: mp.mpf(1), mp.mpf(float(x)))
            assert all(len(a) <= 1 for a in out.nonzero_A)
            assert all(len(t) <= 1 for t in out.nonzero_T)

    def test_caches_go_with_their_function(self, tree_ex1):
        # a fresh lambda per call leaves no cache entry once it is collected
        op = ExtensionOperator(tree_ex1, s_max=3)
        for x in np.linspace(-0.1, 1.1, 40):
            op.evaluate(lambda v: mp.mpf(1), mp.mpf(float(x)))
        gc.collect()
        assert len(op._per_f) == 0
        # a function that lives keeps its entry and its interpolants
        f = lambda v: v * v
        op.evaluate(f, mp.mpf("0.3"))
        gc.collect()
        assert len(op._per_f) == 1 and op._per_f[f][1]

    @pytest.mark.parametrize("k_delta, stage", [(1, "transition"),
                                                 (2, "accumulation")])
    def test_broken_locality_raises(self, tree_ex1, monkeypatch, k_delta, stage):
        # every cutoff of width delta_{k_delta} claims x, so two cutoffs of one
        # level are live: the transition stage at s=0 uses width delta_1, the
        # accumulation stage at s=1 width delta_2
        op = ExtensionOperator(tree_ex1, s_max=3)
        width = tree_ex1.delta_mpf(k_delta)
        monkeypatch.setattr(BumpSpec, "support_hit", lambda self, x: self.t == width)
        # and the bisection offers every cutoff of that width to the audit
        for level, ivs in enumerate(tree_ex1.levels):
            op._hulls[(level, k_delta)] = ([mp.ninf] * len(ivs),
                                           [mp.inf] * len(ivs))
        with pytest.raises(InvariantError, match=f"{stage} locality broken"):
            op.evaluate(lambda v: mp.mpf(1), mp.mpf("0.5"))
        # a failed audit is not kept in the point's state
        with pytest.raises(InvariantError, match=f"{stage} locality broken"):
            op.evaluate(lambda v: v, mp.mpf("0.5"))

    @pytest.mark.parametrize("S", [0, -1, 4])
    def test_truncation_level_outside_range_raises(self, tree_ex1, S):
        # S < 1 used to read the schedule and the deltas from the list ends
        # (a certified bound of e^-32765 where the error is 2e-15)
        op = ExtensionOperator(tree_ex1, s_max=3)
        with pytest.raises(ParameterError, match="truncation level"):
            op.evaluate(mp.sin, mp.mpf("0.3"), norm_q=2.0, q=5, s_max=S)
        with pytest.raises(ParameterError, match="truncation level"):
            op.certified_bound(S, norm_q=2.0, q=5)

    @pytest.mark.parametrize("s_max", [0, -1])
    def test_operator_below_level_1_raises(self, tree_ex1, s_max):
        with pytest.raises(ParameterError, match="truncation level"):
            ExtensionOperator(tree_ex1, s_max=s_max)

    def test_certified_bound_past_the_horizon_raises(self):
        # level 3 of a k_max = 4 model needs delta_5; the index used to run
        # off the profile with a bare IndexError
        tree = build_tree(build_model(EXAMPLE1, k_max=4, B=1.0), bits=256)
        op = ExtensionOperator(tree, s_max=3)
        assert op.certified_bound(2, norm_q=2.0, q=5).ln_mag < 0
        with pytest.raises(HorizonError, match="needs delta_5, horizon 4"):
            op.certified_bound(3, norm_q=2.0, q=5)

    def test_certified_bound_formula(self, tree_ex1):
        op = ExtensionOperator(tree_ex1, s_max=3)
        q = 5
        b = op.certified_bound(3, norm_q=2.0, q=q)
        n = op.schedule.n[2] - 1
        c0 = tree_ex1.model.c0
        want = math.log(2.0) + n * math.log(2) + (q - 1) * math.log(c0) \
            + 2 ** n * math.log(8 * c0 / 7) \
            - float(tree_ex1.profile.ln_inv_delta(3 + n)) \
            - (q - 1) * float(tree_ex1.profile.ln_inv_delta(3))
        assert b.ln_mag == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("norm_q,q", [
        (2.0, -1), (2.0, -2), (0.0, 5), (-1.0, 5), (math.inf, 5),
        (math.nan, 5)])
    def test_certified_bound_rejects_bad_inputs(self, tree_ex1, norm_q, q):
        # a negative q gave a bound, norm_q = 0 a bare "math domain error",
        # and norm_q = inf an OverflowError from the exact log; evaluate
        # rejects them before it evaluates f
        op = ExtensionOperator(tree_ex1, s_max=3)
        with pytest.raises(ParameterError):
            op.certified_bound(3, norm_q=norm_q, q=q)
        with pytest.raises(ParameterError):
            op.evaluate(lambda x: pytest.fail("f evaluated"), mp.mpf("0.3"),
                        norm_q=norm_q, q=q)

    def test_sin_error_below_bound(self, tree_ex1):
        op = ExtensionOperator(tree_ex1, s_max=3)
        f = lambda x: mp.sin(x)
        # type-7 endpoints are not nodes of the level-3 truncation
        xs = [iv.right for iv in tree_ex1.levels[7][1:40:8]]
        for x in xs:
            out = op.evaluate(f, x, norm_q=2.0, q=5)
            with mp.workprec(tree_ex1.bits):
                err = abs(out.value - mp.sin(x))
                assert err <= out.certified_bound.to_mpf()


def _scratch_omega_W(op, f, x, s_cap):
    """The truncated operator with every Omega_N(x) rebuilt from its factors."""
    tree, sched = op.tree, op.schedule
    caches = op._per_f.setdefault(f, ({}, {}))
    interpolant = lambda j, s, n: op._interpolant(f, caches, j, s, n)
    with mp.workprec(tree.bits):
        total = interpolant(1, 0, 2).partial(x, 1) * op._root_bump.value(x)
        for s in range(s_cap):
            t_A = s + (sched.n[s - 1] - 1 if s else 1)
            for j in range(1, 2 ** s + 1):
                if not op._bump(j, s, t_A).support_hit(x):
                    continue
                itp = interpolant(j, s, sched.N(s) + 1)
                for N in range(sched.M(s) + 1, sched.N(s) + 1):
                    u = op._bump(j, s, s + N.bit_length() - 1).value(x)
                    if u != 0:
                        omega = 1
                        for k in range(N):
                            omega = omega * (x - itp.points[k])
                        total += itp.coeffs[N] * omega * u
            t_T = s + sched.n[s] - 1
            for k in range(1, 2 ** (s + 1) + 1):
                b = op._bump(k, s + 1, t_T)
                if not b.support_hit(x) or b.value(x) == 0:
                    continue
                fine = interpolant(k, s + 1, sched.M(s + 1) + 1)
                coarse = interpolant((k + 1) // 2, s, sched.N(s) + 1)
                total += (fine.partial(x, sched.M(s + 1))
                          - coarse.partial(x, sched.N(s))) * b.value(x)
    return total


def test_running_omega_matches_scratch_products(tree_ex1_512, probe_points_512):
    op = ExtensionOperator(tree_ex1_512, s_max=4)
    with mp.workprec(tree_ex1_512.bits):
        for f in (lambda v: v * v, mp.sin):
            for S in (2, 4):
                for x in probe_points_512:
                    got = op.evaluate(f, x, s_max=S).value
                    assert got == _scratch_omega_W(op, f, x, S), (S, x)


_JET_FUNCS = (lambda v: mp.mpf(1), lambda v: v, lambda v: v * v, mp.sin,
              lambda v: 3 - 2 * v + v * v * v)


@settings(max_examples=40, deadline=None)
@given(calls=st.lists(st.tuples(st.integers(0, len(_JET_FUNCS) - 1),
                                st.integers(0, 10 ** 6), st.sampled_from((2, 4))),
                      min_size=2, max_size=8))
def test_interleaved_functions_match_fresh_operators(tree_ex1_512,
                                                     probe_points_512, calls):
    # one operator switching between functions keeps each function's
    # interpolants and values; a fresh operator per function rebuilds them
    shared = ExtensionOperator(tree_ex1_512, s_max=4)
    fresh = {}
    with mp.workprec(tree_ex1_512.bits):
        for i, p, S in calls:
            f, x = _JET_FUNCS[i], probe_points_512[p % len(probe_points_512)]
            own = fresh.setdefault(i, ExtensionOperator(tree_ex1_512, s_max=4))
            want = own.evaluate(f, x, norm_q=2.0, q=5, s_max=S)
            assert shared.evaluate(f, x, norm_q=2.0, q=5, s_max=S) == want, (i, p, S)


def test_point_major_jets_match_scratch_products(tree_ex1_512,
                                                 probe_points_512):
    # every function at one x before the next x, the truncation level
    # raised at the same x: the shared point state gives the scratch values
    op = ExtensionOperator(tree_ex1_512, s_max=4)
    with mp.workprec(tree_ex1_512.bits):
        for x in probe_points_512:
            for S in (2, 4):
                got = [op.evaluate(f, x, s_max=S).value for f in _JET_FUNCS]
                want = [_scratch_omega_W(op, f, x, S) for f in _JET_FUNCS]
                assert got == want, (S, x)


def test_second_function_at_a_point_evaluates_no_cutoff(tree_ex1_512,
                                                        monkeypatch):
    calls = {"value": 0, "support_hit": 0}
    for name in calls:
        orig = getattr(BumpSpec, name)

        def counted(self, x, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, x)

        monkeypatch.setattr(BumpSpec, name, counted)
    tree = tree_ex1_512
    op = ExtensionOperator(tree, s_max=4)
    x = tree.levels[7][37].right
    with mp.workprec(tree.bits):
        op.evaluate(mp.sin, x)
        assert calls["value"] > 0 and calls["support_hit"] > 0
        calls.update(value=0, support_hit=0)
        # an equal mpf, not the same object, finds the state
        op.evaluate(lambda v: v * v, +x)
        assert calls == {"value": 0, "support_hit": 0}
        op.evaluate(lambda v: v * v, tree.levels[7][38].right)
        assert calls["value"] > 0 and calls["support_hit"] > 0


def test_returned_live_sets_are_fresh_lists(tree_ex1_512):
    tree = tree_ex1_512
    x = tree.levels[7][37].right
    f = lambda v: v * v
    want = ExtensionOperator(tree, s_max=4).evaluate(f, x)
    op = ExtensionOperator(tree, s_max=4)
    first = op.evaluate(f, x)
    assert any(first.nonzero_A) and any(first.nonzero_T)
    for lists in (first.nonzero_A, first.nonzero_T):
        for live in lists:
            live.append(99)
        lists.append([7])
    again = op.evaluate(f, x)
    assert again == want


def test_bisected_live_sets_match_full_scan(tree_ex1_512, probe_points_512):
    # the cutoffs both stages audit, at every level the operator reaches;
    # x runs over each hull's exact ends, the shoulders and the plateaus
    tree = tree_ex1_512
    op = ExtensionOperator(tree, s_max=4)
    sched = op.schedule
    live_seen = 0
    with mp.workprec(tree.bits):
        for s in range(op.s_max):
            for stage, level, k_delta in (
                    ("accumulation", s, s + (sched.n[s - 1] - 1 if s else 1)),
                    ("transition", s + 1, s + sched.n[s] - 1)):
                t = tree.delta_mpf(k_delta)
                xs = list(probe_points_512)
                for iv in tree.levels[level]:
                    xs += [iv.left - t, iv.right + t, iv.left - t / 2,
                           iv.right + t / 2, iv.left, iv.right]
                for x in xs:
                    scan = [j for j in range(1, 2 ** level + 1)
                            if op._bump(j, level, k_delta).support_hit(x)]
                    assert op._live(level, k_delta, x, stage, s) == scan, \
                        (stage, s, x)
                    live_seen += bool(scan)
    assert live_seen > 100


class TestWhitneyNorms:
    def test_constant_norm(self, tree_ex1):
        jet = polynomial_jet(tree_ex1, [], level=3, support=(1, 0), order=3)
        # empty root list: f == 1 on the whole set
        assert whitney_norm(jet, 2, bits=tree_ex1.bits) == pytest.approx(1.0)

    def test_linear_function_norm(self):
        from cantorext.extension import JetSample
        jet = JetSample(points=[mp.mpf(0), mp.mpf(1)],
                        derivs=[[mp.mpf(0), mp.mpf(1)], [mp.mpf(1), mp.mpf(1)]])
        # |f|_1 = 1 and the first-order Taylor remainders vanish
        assert whitney_norm(jet, 1) == pytest.approx(1.0)

    def test_node_polynomial_norm_bound(self, tree_ex1):
        # r = 4 nodes on I_{1,1}: ||f||_r <= 2 r!
        r = 4
        nodes = select_nodes(tree_ex1, (1, 1), r).points()
        jet = polynomial_jet(tree_ex1, nodes, level=4, support=(1, 1), order=r)
        assert whitney_norm(jet, r, bits=tree_ex1.bits) <= 2.0 * math.factorial(r)

    def test_insufficient_order(self, tree_ex1):
        jet = polynomial_jet(tree_ex1, [], level=2, support=(1, 0), order=1)
        from cantorext.errors import InsufficientOrderError
        with pytest.raises(InsufficientOrderError):
            whitney_norm(jet, 3)


class TestDNExperiment:
    def test_dip_family_fires_from_j3(self):
        m = build_model(EXAMPLE2, k_max=40, variant="A")
        kj = m.meta["kj"]
        pairs = [(2 ** (kj[j] - kj[j - 1]), kj[j - 1]) for j in (2, 3, 4, 5)]
        rep = dn_experiment(m, eps=0.25, m=0,
                            r_list=[r for r, _ in pairs],
                            s_list=[s for _, s in pairs])
        assert rep.diverges  # scaled bounds strictly increase along j
        fires = [row.fires for row in rep.rows]
        # the block inequality misses by ~0.9% at j=2 and holds from j=3 on
        assert fires == [False, True, True, True]
        for row in rep.rows[1:]:
            assert row.ln_bound_scaled >= 2.0 ** (row.s + row.n) * row.threshold

    def test_constant_weights_stay_bounded(self):
        m = build_model(EXAMPLE1, k_max=40, B=1.0)
        pairs = [(2 ** 5, 4), (2 ** 7, 9), (2 ** 9, 16), (2 ** 11, 25)]
        rep = dn_experiment(m, eps=0.25, m=0,
                            r_list=[r for r, _ in pairs],
                            s_list=[s for _, s in pairs])
        assert not rep.diverges
        # brace = B (2 - n/4): negative for n > 8
        for row in rep.rows:
            want = 1.0 * (2.0 - row.n / 4.0)
            assert row.brace == pytest.approx(want, rel=1e-9)

    def test_direct_sup_below_closed_form(self, tree_ex1):
        m = tree_ex1.model
        rep = dn_experiment(m, eps=0.25, m=0, r_list=[4], s_list=[1],
                            tree=tree_ex1)
        row = rep.rows[0]
        assert row.ln_f0_direct is not None
        assert row.ln_f0_direct <= row.ln_f0_upper

    def test_parameter_guards(self):
        m = build_model(EXAMPLE1, k_max=20, B=1.0)
        with pytest.raises(ParameterError):
            dn_experiment(m, eps=0.25, m=3, r_list=[8], s_list=[2])  # m >= n
        with pytest.raises(ParameterError):
            dn_experiment(m, eps=0.25, m=0, r_list=[6], s_list=[2])  # not 2^n


class TestProductInequalities:
    @pytest.mark.parametrize("interval", [(1, 1), (1, 2)])
    @pytest.mark.parametrize("N", [4, 7, 11, 12])
    def test_distance_product_bound(self, tree_ex1, interval, N):
        assert check_distance_product_bound(tree_ex1, interval, N)

    @pytest.mark.parametrize("interval", [(1, 1), (1, 2)])
    @pytest.mark.parametrize("N,q", [(6, 1), (9, 3), (12, 3)])
    def test_chain_product_bound(self, tree_ex1, interval, N, q):
        assert check_chain_product_bound(tree_ex1, interval, N, q)

    def test_cutoff_product_bound(self, tree_plaw):
        iv = tree_plaw.interval(1, 1)
        grid = np.linspace(float(iv.left) - 1e-4, float(iv.right) + 1e-4, 160)
        assert check_cutoff_product_bound(tree_plaw, (1, 1), N=6, x_grid=grid)


class TestOffSetBehavior:
    def test_constant_extension_equals_root_cutoff(self, tree_ex1):
        # all divided differences of a constant vanish, so the whole series
        # collapses to the width-1 cutoff times the constant
        op = ExtensionOperator(tree_ex1, s_max=3)
        one = lambda v: mp.mpf(1)
        with mp.workprec(tree_ex1.bits):
            for x in (mp.mpf("-0.4"), mp.mpf("0.5"), mp.mpf("1.3")):
                out = op.evaluate(one, x)
                want = op._root_bump.value(x)
                assert abs(out.value - want) < mp.mpf(2) ** (-tree_ex1.bits + 64)
            assert op.evaluate(one, mp.mpf("-2")).value == 0

    def test_eta_profile_extends_below_horizon(self, tree_ex1):
        from cantorext.dimension import EtaProfile
        h = EtaProfile(tree_ex1.model)
        L_max = h.lnt_max
        # beyond the table the last slope continues: monotone, finite
        assert 0 < h.h_ln(L_max * 1.5) < h.h_ln(L_max)
