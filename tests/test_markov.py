import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import linprog

from cantorext import markov
from cantorext.errors import DegreeError, HorizonError, ParameterError
from cantorext.gamma import (DELTA_FORM, DOUBLY_EXP, EXAMPLE1, EXAMPLE2, EXAMPLE3,
                             EXPONENTIAL, POWER_LAW, build_model, profile)
from cantorext.geometry import build_tree
from cantorext.markov import (
    chebyshev_grid, estimate_grid, markov_bounds, markov_numeric, ratio_table,
    tree_atom_bounds,
)
from oracles import certificate_lower_bound, chebyshev_lps, exhaustive_markov


@functools.lru_cache(maxsize=None)
def _tree_atoms(family: str, depth: int, **params) -> tuple:
    model = build_model(family, k_max=12, **params)
    return tuple(tree_atom_bounds(build_tree(model, depth=depth, bits=512)))


def _cold_reference(atoms, n, points_per_atom) -> dict:
    """The Chebyshev-basis LP of each candidate, cold: one linprog over the
    2G one-sided rows [V; -V] per candidate.  Maps each candidate to its
    value, or to None where the LP failed."""
    _, V, dV, order = chebyshev_lps(atoms, n, points_per_atom)
    A_ub = np.vstack([V, -V])
    b_ub = np.ones(2 * len(V))
    out = {}
    for idx in order:
        res = linprog(-dV[idx], A_ub=A_ub, b_ub=b_ub,
                      bounds=[(None, None)] * (n + 1), method="highs")
        out[idx] = None if res.status != 0 or res.x is None else -res.fun
    return out


class TestBounds:
    def test_bracket_depends_on_dyadic_block(self):
        m = build_model(EXAMPLE1, k_max=12, B=1.0)
        b2 = markov_bounds(m, 2)
        b3 = markov_bounds(m, 3)
        assert b2.k == b3.k == 1
        assert b2.lower == b3.lower and b2.upper == b3.upper
        assert b2.point is not None and b3.point is None

    def test_example1_point_estimate(self):
        # ln M_{2^k} ~ ln 2 + 2^{k+1} for unit weight
        m = build_model(EXAMPLE1, k_max=12, B=1.0)
        for k in (2, 4, 6):
            est = markov_bounds(m, 2 ** k)
            assert est.point.ln_mag == pytest.approx(math.log(2) + 2.0 ** (k + 1),
                                                     rel=1e-12)

    def test_delta_form_values(self):
        # delta_2 = e^-9, delta_3 = e^-27 at b = 3
        m = build_model(DELTA_FORM, k_max=10, b=3.0)
        est = markov_bounds(m, 4)
        assert est.lower.ln_mag == pytest.approx(9.0, rel=1e-12)
        assert est.upper.ln_mag == pytest.approx(math.log(4) + 27.0, rel=1e-12)

    @pytest.mark.parametrize("family,kw", [
        (POWER_LAW, {"a": 2.0}), (EXAMPLE1, {"B": 1.0}), (EXAMPLE2, {}),
        (EXAMPLE3, {"m": 3}), (EXPONENTIAL, {"a": 3.0}), (DOUBLY_EXP, {}),
        (DELTA_FORM, {"b": 2.0}), (DELTA_FORM, {"b": 3.0})])
    def test_bracket_values_are_the_nearest_doubles(self, family, kw):
        # each printed log is the double nearest the true one: ln(1/delta_k),
        # ln(4/delta_{k+1}) and ln(2/delta_k) from the exact profile logs
        m = build_model(family, **kw)
        L = profile(m).ln_inv_deltas
        with mp.workprec(256):
            ln = [mp.mpf(v.numerator) / v.denominator for v in L]
            for k in range(1, m.k_max):
                est = markov_bounds(m, 2 ** k)
                assert est.lower.ln_mag == float(ln[k]), k
                assert est.upper.ln_mag == float(ln[k + 1] + mp.log(4)), k
                assert est.point.ln_mag == float(ln[k] + mp.log(2)), k

    def test_delta_form_point_rounds_once(self):
        # float(hi) + lo rounded twice here: 0x1.637ed9b2612f4p+55, 4.31 from
        # ln(2/delta_35) against a half-ulp of 4
        est = markov_bounds(build_model(DELTA_FORM, b=3.0), 2 ** 35)
        assert est.point.ln_mag == float.fromhex("0x1.637ed9b2612f3p+55")

    def test_horizon(self):
        m = build_model(EXAMPLE1, k_max=3, B=1.0)
        with pytest.raises(HorizonError):
            markov_bounds(m, 8)


class TestNumeric:
    def test_unit_interval_classical_values(self):
        # M_n([0,1]) = 2 n^2: the classical extremal equality case
        atoms = [(0.0, 1.0)]
        for n, want in ((2, 8.0), (3, 18.0)):
            est = markov_numeric(atoms, n, points_per_atom=512)
            assert not est.stalled
            assert est.value == pytest.approx(want, rel=0.02)

    def test_degree_one_two_atoms(self):
        # affine polynomials: M_1 = 2/diameter
        atoms = [(0.0, 0.25), (0.75, 1.0)]
        est = markov_numeric(atoms, 1, points_per_atom=64)
        assert est.value == pytest.approx(2.0, rel=1e-6)

    def test_scale_covariance(self):
        atoms = [(0.0, 0.2), (0.5, 0.8)]
        a = markov_numeric(atoms, 3, points_per_atom=48).value
        b = markov_numeric([(2 * lo, 2 * hi) for lo, hi in atoms], 3,
                           points_per_atom=48).value
        assert b == pytest.approx(a / 2.0, rel=1e-9)

    def test_grid_refinement_monotone(self):
        atoms = [(0.0, 1.0)]
        coarse = markov_numeric(atoms, 4, points_per_atom=64).value
        fine = markov_numeric(atoms, 4, points_per_atom=128).value
        assert fine <= coarse * (1 + 1e-9)

    def test_bracket_consistency_on_tree(self):
        tree = build_tree(build_model(POWER_LAW, k_max=12, a=2.0), depth=3, bits=512)
        atoms = tree_atom_bounds(tree)
        for n in (4, 8):
            est = markov_numeric(atoms, n, points_per_atom=24)
            bounds = markov_bounds(tree.model, n)
            assert bounds.bracket_contains_ln(math.log(est.value)), \
                (n, math.log(est.value), bounds.lower.ln_mag, bounds.upper.ln_mag)

    def test_certificate_is_lower_witness(self):
        tree = build_tree(build_model(POWER_LAW, k_max=12, a=2.0), depth=3, bits=512)
        ln_cert = certificate_lower_bound(tree, 2)
        est = markov_numeric(tree_atom_bounds(tree), 4, points_per_atom=24)
        assert ln_cert <= math.log(est.value) + 1e-9

    @pytest.mark.parametrize("family, params, depth, want", [
        (POWER_LAW, {"a": 2.0}, 4,
         "0x1.0a2b23f3bab73p+2 0x1.e7f9c1e980fa9p+2 0x1.62e42fefa39efp+3 "
         "0x1.d1cb7eea86c0ap+3"),
        (EXAMPLE1, {"B": 1.0}, 5,
         "0x1.2c5c85fdf473ep+2 0x1.162e42fefa39fp+3 0x1.0b17217f7d1cfp+4 "
         "0x1.058b90bfbe8e8p+5 0x1.02c5c85fdf474p+6"),
    ], ids=["power_law", "example1"])
    def test_certificate_values_are_pinned(self, family, params, depth, want):
        # ln of the level-s witness for s = 1..depth, bit for bit
        tree = build_tree(build_model(family, k_max=12, **params), depth=depth,
                          bits=512)
        got = [certificate_lower_bound(tree, s).hex() for s in range(1, depth + 1)]
        assert got == want.split()
        for s in (-1, depth + 1):
            with pytest.raises(HorizonError):
                certificate_lower_bound(tree, s)

    def test_guards(self):
        with pytest.raises(DegreeError):
            markov_numeric([(0, 1)], 33)
        with pytest.raises(ParameterError):
            markov_numeric([(0, 1)], 8, points_per_atom=8)  # grid < 4n
        with pytest.raises(ParameterError):
            markov_numeric([(0, 1)], 2, workers=2)  # one shared basis

    @pytest.mark.parametrize("points", [1, 0, -5])
    def test_fewer_than_two_points_per_atom_raise(self, points):
        # each used to be replaced by 2 points per atom
        with pytest.raises(ParameterError, match="2 endpoints"):
            estimate_grid([(0.0, 0.25), (0.75, 1.0)], 1, points)


def _atoms(family, params, depth=3):
    return ((0.0, 1.0),) if family == "unit" else \
        _tree_atoms(family, depth, **params)


class TestWarmStartOracle:
    """The warm-started exchange against cold per-candidate linprog, and the
    warm HiGHS loop it replaced against the same."""

    @pytest.mark.parametrize("family, params, n, points", [
        ("unit", {}, 2, 128),
        ("unit", {}, 3, 128),
        *[(POWER_LAW, {"a": 2.0}, n, 24) for n in (2, 4, 8)],
        *[(DELTA_FORM, {"b": 2.0}, n, 24) for n in (2, 4, 8)],
    ])
    def test_same_estimate(self, family, params, n, points):
        # [0, 1], and the trees of the README's markov command
        atoms = ((0.0, 1.0),) if family == "unit" else \
            _tree_atoms(family, 3, **params)
        ref = _cold_reference(atoms, n, points)
        est = markov_numeric(atoms, n, points_per_atom=points)
        assert est.stalled == (None in ref.values())
        want = max(v for v in ref.values() if v is not None)
        assert est.value == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("family, depth, params, n, points, want", [
        (POWER_LAW, 4, {"a": 2.0}, 16, 16, "0x1.10fb233240000p+16"),
        (DELTA_FORM, 3, {"b": 3.0}, 8, 24, "-inf"),
    ], ids=["power_law-4", "delta_form-3"])
    def test_stalls_only_where_the_cold_loop_fails(
            self, monkeypatch, family, depth, params, n, points, want):
        # FOUND (b) in CHANGES.md: the warm HiGHS loop fails on most
        # candidates here, each one that fails has no cold solution either,
        # and its best value lies below the proven bracket; the exchange
        # converges on every candidate and lands inside it
        atoms = _tree_atoms(family, depth, **params)
        ref = exhaustive_markov(atoms, n, points)
        failed = {i for i, v in ref.items() if v is None}
        ref_failed = {i for i, v in _cold_reference(atoms, n, points).items()
                      if v is None}
        assert failed and failed <= ref_failed
        assert max((v[0] for v in ref.values() if v is not None),
                   default=-math.inf).hex() == want
        lp_calls = []
        monkeypatch.setattr(markov, "linprog",
                            lambda *a, **kw: lp_calls.append(1))
        est = markov_numeric(atoms, n, points_per_atom=points)
        bounds = markov_bounds(build_model(family, k_max=12, **params), n)
        assert not lp_calls and not est.stalled
        assert bounds.bracket_contains_ln(math.log(est.value))


def _lagrange_derivative_sum(nodes, x) -> mp.mpf:
    """sum_b |l_b'(x)| at 50 digits, by the product rule on the exact nodes."""
    with mp.workdps(50):
        z = [mp.mpf(float(v)) for v in nodes]
        x = mp.mpf(float(x))
        total = mp.mpf(0)
        for b, zb in enumerate(z):
            rest = [zc for c, zc in enumerate(z) if c != b]
            num = mp.fsum(mp.fprod(x - zd for d, zd in enumerate(rest) if d != c)
                          for c in range(len(rest)))
            total += abs(num / mp.fprod(zb - zc for zc in rest))
        return total


class TestCertifiedSkip:
    """The Lagrange bound that lets the estimator skip candidate LPs."""

    def test_three_chebyshev_nodes_give_the_classical_value(self):
        # T_2 on [0, 1] peaks at 0, 1/2, 1; |P'(0)| <= 2 n^2 = 8, before the
        # bound's final 1 + 1e-9
        got = markov._lagrange_derivative_bound(np.array([0.0, 0.5, 1.0]),
                                                np.array([0.0]))
        assert got[0] >= 8.0
        assert got[0] / (1 + 1e-9) == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("family, params, depth, N", [
        ("unit", {}, 0, 3), ("unit", {}, 0, 9),
        (POWER_LAW, {"a": 2.0}, 4, 5), (POWER_LAW, {"a": 2.0}, 4, 17),
        (DELTA_FORM, {"b": 3.0}, 3, 9), (EXAMPLE2, {}, 4, 9),
    ])
    def test_bound_is_never_below_the_exact_sum(self, family, params, depth, N):
        # the atoms of the delta_form b = 3 and example2 trees are 1.9e-12 and
        # 1.2e-14 wide, where plain products of differences underflow
        if family == "unit":
            grid = chebyshev_grid([(0.0, 1.0)], 64)
        else:
            grid = chebyshev_grid(_tree_atoms(family, depth, **params), 8)
        rng = np.random.default_rng(N + depth)
        nodes = np.sort(rng.choice(grid, N, replace=False))
        xs = np.concatenate([rng.choice(grid, 8, replace=False), nodes[:2],
                             [grid[0], grid[-1]]])
        got = markov._lagrange_derivative_bound(nodes, xs)
        assert np.all(np.isfinite(got))
        for x, u in zip(xs, got):
            exact = _lagrange_derivative_sum(nodes, x)
            assert exact <= u <= exact * (1 + 1e-6), (x, u, exact)

    @pytest.mark.parametrize("family, params, depth, N", [
        ("unit", {}, 0, 9), (POWER_LAW, {"a": 2.0}, 4, 17),
        (DELTA_FORM, {"b": 3.0}, 3, 9), (EXAMPLE2, {}, 4, 9),
    ])
    def test_entry_errors_cover_a_256_bit_evaluation(self, family, params,
                                                     depth, N):
        # every l_b(x) and l_b'(x) lies within its error bound of the value
        # at 256 bits on the same doubles, at nodes and off them
        if family == "unit":
            grid = chebyshev_grid([(0.0, 1.0)], 64)
        else:
            grid = chebyshev_grid(_tree_atoms(family, depth, **params), 8)
        rng = np.random.default_rng(N + depth)
        nodes = np.sort(rng.choice(grid, N, replace=False))
        xs = np.concatenate([rng.choice(grid, 8, replace=False), nodes[:2],
                             [grid[0], grid[-1]]])
        l, l_err = markov._lagrange_values(nodes, xs)
        d, d_err = markov._lagrange_derivatives(nodes, xs)
        with mp.workprec(256):
            z = [mp.mpf(float(v)) for v in nodes]
            for i, x in enumerate(xs):
                x = mp.mpf(float(x))
                for b, zb in enumerate(z):
                    rest = [zc for c, zc in enumerate(z) if c != b]
                    w = mp.fprod(zb - zc for zc in rest)
                    value = mp.fprod(x - zc for zc in rest) / w
                    slope = mp.fsum(
                        mp.fprod(x - zd for e, zd in enumerate(rest) if e != c)
                        for c in range(len(rest))) / w
                    assert abs(l[i, b] - value) <= l_err[i, b], (i, b)
                    assert abs(d[i, b] - slope) <= d_err[i, b], (i, b)

    @pytest.mark.parametrize("family, params, n, points", [
        ("unit", {}, 2, 128),
        ("unit", {}, 3, 128),
        *[(POWER_LAW, {"a": 2.0}, n, 24) for n in (2, 4, 8)],
        *[(DELTA_FORM, {"b": 2.0}, n, 24) for n in (2, 4, 8)],
    ])
    def test_bound_covers_every_candidate_lp(self, family, params, n, points):
        # [0, 1] and the README trees, on the basis of the best solution,
        # which the estimator uses, and on each candidate's own, where the
        # bound is tight by LP duality
        atoms = _atoms(family, params)
        grid, order = estimate_grid(atoms, n, points)
        ref = exhaustive_markov(atoms, n, points)
        assert None not in ref.values()
        best = max(order, key=lambda i: ref[i][0])
        values = np.array([ref[i][0] for i in order])
        for duals in [ref[best][1]] + [ref[i][1] for i in order]:
            nodes = grid[np.argsort(duals)[-(n + 1):]]
            U = markov._lagrange_derivative_bound(nodes, grid[order])
            assert np.all(U >= values / (1 + 1e-7))

    @pytest.mark.parametrize("family, params, depth, n, points, seed", [
        ("unit", {}, 0, 2, 512, 0), ("unit", {}, 0, 8, 128, 0),
        ("unit", {}, 0, 32, 128, 0),
        (POWER_LAW, {"a": 2.0}, 2, 4, 16, 1), (POWER_LAW, {"a": 2.0}, 3, 8, 24, 0),
        (POWER_LAW, {"a": 2.0}, 4, 16, 16, 0), (DELTA_FORM, {"b": 2.0}, 4, 8, 8, 1),
        (DELTA_FORM, {"b": 3.0}, 3, 8, 24, 0), (DELTA_FORM, {"b": 3.0}, 2, 4, 16, 1),
        (EXAMPLE1, {"B": 1.0}, 3, 16, 24, 0), (EXAMPLE1, {"B": 1.0}, 2, 2, 8, 1),
        (EXAMPLE2, {}, 4, 8, 16, 0), (EXAMPLE2, {}, 3, 16, 24, 1),
    ])
    def test_same_estimate_as_solving_every_candidate(
            self, family, params, depth, n, points, seed):
        # the exchange converges on every case, the ones where HiGHS misses
        # optimality included; where HiGHS solves every candidate the values
        # agree, and elsewhere the witness is at least its best value
        atoms = _atoms(family, params, depth)
        ref = exhaustive_markov(atoms, n, points, seed)
        est = markov_numeric(atoms, n, points_per_atom=points, seed=seed)
        assert not est.stalled
        want = max((v[0] for v in ref.values() if v is not None),
                   default=-math.inf)
        if None in ref.values():
            assert est.value >= want * (1 - 1e-7)
        else:
            assert est.value == pytest.approx(want, rel=1e-7)

    def test_unit_interval_solves_only_the_endpoints(self, monkeypatch):
        # 512 candidates; the bound of the first solution (at x = 0, nodes
        # 0, 1/2, 1) is below 8 everywhere but at the two endpoints
        runs = _recorded_exchanges(monkeypatch)
        est = markov_numeric([(0.0, 1.0)], 2, points_per_atom=512)
        assert not est.stalled and est.value == pytest.approx(8.0, rel=1e-4)
        assert len(runs) <= 4


def _recorded_exchanges(monkeypatch) -> list:
    """Wrap the estimator's exchange: each solved candidate appends
    (j, final basis, witness, U)."""
    out = []
    exchange = markov._exchange

    def recorded(grid, j, basis):
        witness, U = exchange(grid, j, basis)
        out.append((j, basis.copy(), witness, U))
        return witness, U

    monkeypatch.setattr(markov, "_exchange", recorded)
    return out


SWEEP_FAMILIES = [(POWER_LAW, {"a": 2.0}), (DELTA_FORM, {"b": 2.0}),
                  (DELTA_FORM, {"b": 3.0}), (EXAMPLE1, {"B": 1.0}),
                  (EXAMPLE2, {})]


class TestExchangeOracle:
    """The exchange against the Chebyshev-basis HiGHS loop it replaced."""

    @pytest.mark.parametrize("family, params", SWEEP_FAMILIES,
                             ids=["power_law", "delta_form-2", "delta_form-3",
                                  "example1", "example2"])
    def test_sweep_agrees_with_highs(self, monkeypatch, family, params):
        # depths 2-4, n in {2, 4, 8, 16}, 8, 16 and 24 points per atom: where
        # HiGHS reaches optimality on every candidate, the witness of each
        # solved candidate agrees with its LP value within 1e-7; elsewhere
        # HiGHS's "optimal" values after a failed solve can lie far below the
        # LP's (a 256-bit check confirms the witnesses), so only the
        # estimate is compared, from below.  Every witness is at most its
        # U_S, and no estimate stalls.  On example2 at n = 4, depths 2 and 3,
        # a float exchange without Bland's rule swapped two points tied at
        # |P_S| = 1 forever.
        runs = _recorded_exchanges(monkeypatch)
        estimates = 0
        for depth in (2, 3, 4):
            atoms = _tree_atoms(family, depth, **params)
            for n in (2, 4, 8, 16):
                for points in (8, 16, 24):
                    try:
                        ref = exhaustive_markov(atoms, n, points)
                    except ParameterError:   # grid below 4n points
                        continue
                    runs.clear()
                    est = markov_numeric(atoms, n, points_per_atom=points)
                    case = (depth, n, points)
                    assert not est.stalled and runs, case
                    for j, _, witness, U in runs:
                        assert witness is not None and witness <= U, case
                        if None not in ref.values():
                            assert witness == pytest.approx(ref[j][0],
                                                            rel=1e-7), case
                    best = max((v[0] for v in ref.values() if v is not None),
                               default=-math.inf)
                    assert est.value >= best * (1 - 1e-7), case
                    estimates += 1
        assert estimates >= 30


def _exact_witness(grid, j, basis, sign, bits=256) -> tuple:
    """(P_S'(x_j), max |P_S| on the grid) at ``bits`` for
    P_S = sum_b sign_b l_b on the exact doubles of the grid."""
    with mp.workprec(bits):
        z = [mp.mpf(float(v)) for v in grid[basis]]
        w = [mp.fprod(zb - zc for c, zc in enumerate(z) if c != b)
             for b, zb in enumerate(z)]
        x = mp.mpf(float(grid[j]))
        slope = mp.fsum(
            int(sb) * mp.fsum(mp.fprod(x - zd for d, zd in enumerate(z)
                                       if d not in (b, c))
                              for c in range(len(z)) if c != b) / w[b]
            for b, sb in enumerate(sign))
        peak = mp.mpf(0)
        for xi in grid:
            xi = mp.mpf(float(xi))
            if xi in z:
                value = mp.mpf(int(sign[z.index(xi)]))
            else:
                full = mp.fprod(xi - zc for zc in z)
                value = mp.fsum(int(sb) * full / (xi - zb) / w[b]
                                for b, (sb, zb) in enumerate(zip(sign, z)))
            peak = max(peak, abs(value))
        return slope, peak


class TestCertifiedWitness:
    """The float witness against a 256-bit evaluation of the same P_S."""

    @pytest.mark.parametrize("family, params, depth, n, points", [
        *[(POWER_LAW, {"a": 2.0}, 3, n, 24) for n in (2, 4, 8)],
        *[(DELTA_FORM, {"b": 2.0}, 3, n, 24) for n in (2, 4, 8)],
        (POWER_LAW, {"a": 2.0}, 4, 16, 16), (DELTA_FORM, {"b": 3.0}, 3, 8, 24),
        (POWER_LAW, {"a": 2.0}, 5, 32, 24), (EXAMPLE2, {}, 2, 4, 8),
    ])
    def test_float_bounds_bracket_a_256_bit_evaluation(
            self, monkeypatch, family, params, depth, n, points):
        # the README trees, the three FOUND (b) estimates, and the sweep's
        # basis with the largest rounding bound on |P_S| (5e-8, at a grid
        # point where |P_S| is near 1), at the final basis of every solved
        # candidate
        atoms = _tree_atoms(family, depth, **params)
        runs = _recorded_exchanges(monkeypatch)
        est = markov_numeric(atoms, n, points_per_atom=points)
        grid, _ = estimate_grid(atoms, n, points)
        assert not est.stalled and runs
        for j, basis, witness, U in runs:
            y, y_err, _, P, P_err = markov._state(grid, j, basis)
            slope, peak, U_float = markov._certified(y, y_err, P, P_err)
            exact_slope, exact_peak = _exact_witness(
                grid, j, basis, np.where(y < 0, -1, 1))
            assert slope <= exact_slope <= U_float == U, (j, slope, exact_slope)
            assert exact_peak <= peak, (j, exact_peak, peak)
            assert witness <= exact_slope / exact_peak
        assert est.value == max(r[2] for r in runs)

    @pytest.mark.parametrize("family, params, depth, n, points", [
        *[(POWER_LAW, {"a": 2.0}, 4, 16, p) for p in range(14, 19)],
        *[(DELTA_FORM, {"b": 3.0}, 3, 8, p) for p in range(22, 27)],
    ])
    def test_found_b_estimates_land_in_their_brackets(
            self, family, params, depth, n, points):
        # the benchmark's two operations that failed every round: HiGHS fell
        # below 1/delta_k (power_law) or failed on every candidate (delta_form)
        atoms = _tree_atoms(family, depth, **params)
        est = markov_numeric(atoms, n, points_per_atom=points)
        bounds = markov_bounds(build_model(family, k_max=12, **params), n)
        assert not est.stalled
        assert bounds.bracket_contains_ln(math.log(est.value))


class TestRatioTable:
    def test_requires_fast_family(self):
        m1 = build_model(EXAMPLE1, k_max=30, B=1.0)
        m2 = build_model(EXAMPLE2, k_max=30)
        with pytest.raises(ParameterError):
            ratio_table(m1, m2, range(2, 10))

    def test_b2_table(self):
        m1 = build_model(EXAMPLE1, k_max=32, B=2.0)
        m2 = build_model(EXAMPLE2, k_max=32)
        table = ratio_table(m1, m2, range(2, 26))
        by_k = {r.k: r for r in table.rows}
        # frozen oracle: ln4 - 2^{k+1} B + 2 ln((k+6)!/5!) + A_j
        for k in (4, 9, 15):
            j = max(jj for jj in (1, 2, 3, 4, 5) if jj * jj <= k + 1)
            A = 2.0 ** (j * j)
            want = math.log(4) - 2.0 ** (k + 1) * 2.0 \
                + 2 * (math.lgamma(k + 7) - math.lgamma(6)) + A
            assert by_k[k].ln_bound == pytest.approx(want, rel=1e-12)
        # branch labels: k = k_{j+1} - 1 is the handoff row
        assert by_k[3].branch == "handoff"   # k+1 = 4 = k_2
        assert by_k[8].branch == "handoff"   # k+1 = 9 = k_3
        assert by_k[10].branch == "interior"
        # the bound is strictly decreasing and negative from k = 9 on
        assert table.decreasing_negative_from is not None
        assert table.decreasing_negative_from <= 9

    def test_small_j_rows_exist(self):
        m1 = build_model(EXAMPLE1, k_max=12, B=2.0)
        m2 = build_model(EXAMPLE2, k_max=12)
        table = ratio_table(m1, m2, [2, 3])
        assert len(table.rows) == 2 and table.rows[0].j >= 1
