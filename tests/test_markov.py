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
    candidate_lps, certificate_lower_bound, markov_bounds, markov_numeric,
    ratio_table, tree_atom_bounds,
)


@functools.lru_cache(maxsize=None)
def _tree_atoms(family: str, depth: int, **params) -> tuple:
    model = build_model(family, k_max=12, **params)
    return tuple(tree_atom_bounds(build_tree(model, depth=depth, bits=512)))


def _cold_reference(atoms, n, points_per_atom) -> dict:
    """The per-candidate loop the shared model replaced: one cold linprog
    over the 2G one-sided rows [V; -V] per candidate.  Maps each candidate
    to its value, or to None where the LP failed."""
    V, dV, order = candidate_lps(atoms, n, points_per_atom)
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
            markov_numeric([(0, 1)], 2, workers=2)  # one shared model

    @pytest.mark.parametrize("points", [1, 0, -5])
    def test_fewer_than_two_points_per_atom_raise(self, points):
        # each used to be replaced by 2 points per atom
        with pytest.raises(ParameterError, match="2 endpoints"):
            candidate_lps([(0.0, 0.25), (0.75, 1.0)], 1, points)


class TestWarmStartOracle:
    """The shared warm-started model against cold per-candidate linprog."""

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
        # the estimates below the proven bracket (FOUND (b) in CHANGES.md):
        # each candidate is solved once, on the shared model, and one that
        # misses optimality there has no cold solution either
        atoms = _tree_atoms(family, depth, **params)
        optimal = markov._highs().HighsModelStatus.kOptimal
        runs, lp_calls = [], []

        class Recorded:
            def __init__(self, model):
                self._model = model

            def __getattr__(self, name):
                return getattr(self._model, name)

            def run(self):
                self._model.run()
                runs.append(self._model.getModelStatus() == optimal)

        build, linprog_ = markov._polytope_model, markov.linprog
        monkeypatch.setattr(markov, "_polytope_model",
                            lambda V: Recorded(build(V)))
        monkeypatch.setattr(
            markov, "linprog",
            lambda *a, **kw: lp_calls.append(1) or linprog_(*a, **kw))
        est = markov_numeric(atoms, n, points_per_atom=points)
        order = candidate_lps(atoms, n, points)[2]
        assert not lp_calls and len(runs) == len(order)
        failed = {idx for idx, ok in zip(order, runs) if not ok}
        ref_failed = {i for i, v in _cold_reference(atoms, n, points).items()
                      if v is None}
        assert failed and failed <= ref_failed
        assert est.stalled and est.value.hex() == want


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
