import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from oracles import gamma_float

from cantorext.dimension import LogPower
from cantorext.errors import HorizonError, ParameterError, ValidationError
from cantorext.gamma import (
    CUSTOM, DELTA_FORM, DOUBLY_EXP, EXAMPLE1, EXAMPLE2, EXAMPLE3, EXPONENTIAL,
    FAMILIES, FROM_DIMENSION_FUNCTION, NONPOLAR, POLAR, POWER_LAW, UNDETERMINED,
    build_model, classify_ep, condition_diagnostics, profile,
)
from cantorext.geometry import build_tree


class TestBuild:
    def test_example1_gammas(self):
        m = build_model(EXAMPLE1, k_max=10, B=1.0)
        assert math.isclose(gamma_float(m, 1), math.exp(-4), rel_tol=1e-15)
        assert math.isclose(gamma_float(m, 2), math.exp(-4), rel_tol=1e-15)
        assert math.isclose(gamma_float(m, 3), math.exp(-8), rel_tol=1e-15)
        # B >= ln(32)/4 means no clamping
        assert m.clamp_prefix == 0

    def test_example1_small_B_clamps(self):
        m = build_model(EXAMPLE1, k_max=10, B=0.5)
        assert m.clamp_prefix >= 1
        assert gamma_float(m, 1) == 1.0 / 32.0

    def test_power_law_clamp(self):
        # k^-2 > 1/32 for k^2 < 32, i.e. k <= 5
        m = build_model(POWER_LAW, k_max=12, a=2.0)
        assert m.clamp_prefix == 5
        assert gamma_float(m, 5) == 1.0 / 32.0
        assert math.isclose(gamma_float(m, 6), 1.0 / 36.0, rel_tol=1e-15)

    def test_power_law_gamma_sum(self):
        m = build_model(POWER_LAW, k_max=12, a=2.0)
        # independent oracle: brute-force partial sum
        brute = 5 / 32 + sum(k ** -2.0 for k in range(6, 2 * 10 ** 6))
        assert math.isclose(m.gamma_sum, brute, rel_tol=1e-5)

    @pytest.mark.parametrize("a", [1.1, 1.5, 2.0, 3.0])
    def test_power_law_tail_is_the_hurwitz_zeta(self, a):
        # gamma_sum = p/32 + sum_{k>p} k^-a, within one rounding of 200 bits
        m = build_model(POWER_LAW, a=a)
        p = m.clamp_prefix
        with mp.workprec(200):
            want = float(mp.mpf(p) / 32 + mp.zeta(a, p + 1))
        assert abs(m.gamma_sum - want) <= math.ulp(want)

    @pytest.mark.parametrize("family,params", [(POWER_LAW, {"a": 2.0}),
                                               (EXAMPLE2, {})])
    def test_gamma_sum_ignores_working_precision(self, family, params):
        want = build_model(family, **params).gamma_sum
        for bits in (20, 300):
            with mp.workprec(bits):
                assert build_model(family, **params).gamma_sum == want

    def test_custom_rejects_large_gamma(self):
        with pytest.raises(ValidationError):
            build_model(CUSTOM, gammas=[0.3])

    def test_custom_roundtrip(self):
        m = build_model(CUSTOM, gammas=[2.0 ** -6, 2.0 ** -7])
        assert m.k_max == 2
        assert math.isclose(gamma_float(m, 2), 2.0 ** -7, rel_tol=1e-15)

    def test_nonsummable_family_rejected(self):
        with pytest.raises(ValidationError):
            build_model(POWER_LAW, a=1.0)

    def test_delta_form_keeps_formula(self):
        m = build_model(DELTA_FORM, k_max=10, b=2.0)
        assert m.eq2_exceptions == (1, 2)  # e^-2 > 1/32 at k=1,2, kept as-is
        assert m.clamp_prefix == 0
        p = profile(m)
        for k in range(1, 11):
            assert p.ln_inv_delta(k) == Fraction(2) ** k

    def test_horizon_guard(self):
        m = build_model(EXAMPLE1, k_max=5, B=1.0)
        for k in (0, 6):
            with pytest.raises(HorizonError):
                m.ln_inv_gamma_float(k)
            with pytest.raises(HorizonError):
                gamma_float(m, k)


class TestProfile:
    def test_example1_constant_B(self):
        p = profile(build_model(EXAMPLE1, k_max=12, B=1.0))
        for k in range(1, 13):
            assert math.isclose(p.B[k], 1.0, rel_tol=1e-14)
        assert p.polar_verdict == POLAR

    def test_seed_values(self):
        m = build_model(EXAMPLE1, k_max=4, B=1.0)
        p = profile(m)
        assert p.ln_inv_deltas[0] == 0  # delta_0 = 1
        assert p.ln_inv_delta(0) == 0
        assert build_tree(m, depth=1).r_mpf[0] == 1
        assert math.isnan(p.B[0])

    def test_custom_delta_and_B(self):
        # gamma_k = 2^-k-5: delta_2 = 2^-13, B_2 = 13 ln2 / 8
        p = profile(build_model(CUSTOM, gammas=[2.0 ** -6, 2.0 ** -7]))
        assert math.isclose(-float(p.ln_inv_deltas[2]), -13 * math.log(2),
                            rel_tol=1e-15)
        assert math.isclose(p.B[2], 13 * math.log(2) / 8, rel_tol=1e-14)
        assert p.polar_verdict == UNDETERMINED

    def test_delta_is_product_of_gammas_exactly(self):
        m = build_model(EXAMPLE2, k_max=20)
        p = profile(m)
        for s in (1, 5, 17, 20):
            assert sum(m.ln_inv_gamma[:s]) == p.ln_inv_deltas[s]

    def test_B_definition_crosscheck(self):
        # 2^{-n-1} ln(1/delta_n) = B_n for every n
        p = profile(build_model(EXPONENTIAL, k_max=25, a=3.0))
        for n in range(1, 26):
            expect = float(p.ln_inv_delta(n) / 2 ** (n + 1))
            assert math.isclose(p.B[n], expect, rel_tol=1e-15)

    @pytest.mark.parametrize("family,power", [
        (DOUBLY_EXP, lambda a, k: a ** k),
        (DELTA_FORM, lambda b, k: b if k == 1 else b ** (k - 1) * (b - 1))])
    @pytest.mark.parametrize("x", [2.5, 3.0, 1.7976931348623157e+308])
    def test_carried_powers_are_the_powers(self, family, power, x):
        # ln(1/gamma_k) carried from k - 1, and B_k rounded from the
        # unreduced Fraction, against each power and quotient taken afresh
        key = "a" if family == DOUBLY_EXP else "b"
        m = build_model(family, k_max=60, **{key: x})
        p = profile(m)
        for k in range(m.clamp_prefix + 1, 61):
            want = (Fraction(x ** k) if family == DOUBLY_EXP and x == 2.5
                    else power(Fraction(x), k))
            assert m.ln_inv_gamma[k - 1] == want
        for k in range(1, 61):
            try:
                want = float(p.ln_inv_delta(k) / 2 ** (k + 1))
            except OverflowError:
                want = math.inf
            assert p.B[k] == want

    @pytest.mark.parametrize("family", FAMILIES)
    def test_ln_inv_delta_is_the_exact_prefix_sum(self, family):
        params = {FROM_DIMENSION_FUNCTION: {"h": LogPower(alpha0=0.5)},
                  CUSTOM: {"gammas": [1 / 64] * 40}}.get(family, {})
        m = build_model(family, k_max=40, **params)
        p = profile(m)
        assert m.k_max == 40
        for k in range(41):
            assert p.ln_inv_delta(k) == sum(m.ln_inv_gamma[:k], Fraction(0))
        for k in (-1, 41):
            with pytest.raises(HorizonError):
                p.ln_inv_delta(k)

    def test_robin_partial_monotone(self):
        p = profile(build_model(DOUBLY_EXP, k_max=20, a=3.0))
        assert all(a <= b for a, b in zip(p.robin_partial, p.robin_partial[1:]))

    def test_polar_verdicts(self):
        cases = [
            (build_model(POWER_LAW, a=2.0), NONPOLAR),
            (build_model(EXPONENTIAL, a=2.0), NONPOLAR),
            (build_model(DOUBLY_EXP, a=1.5), NONPOLAR),
            (build_model(DOUBLY_EXP, a=2.0), POLAR),
            (build_model(EXAMPLE1, B=1.0), POLAR),
            (build_model(EXAMPLE2, variant="A"), POLAR),
            (build_model(EXAMPLE2, variant="B"), NONPOLAR),
            (build_model(DELTA_FORM, b=2.0), POLAR),
            (build_model(DELTA_FORM, b=1.9), NONPOLAR),
            (build_model(EXAMPLE3), POLAR),
            (build_model(FROM_DIMENSION_FUNCTION, k_max=12,
                         h=LogPower(alpha0=0.5)), POLAR),
            (build_model(CUSTOM, gammas=[1 / 64] * 8), UNDETERMINED),
        ]
        for model, want in cases:
            assert profile(model).polar_verdict == want, model.family


class TestDiagnostics:
    def test_example1_uniform_ratio_exact(self):
        p = profile(build_model(EXAMPLE1, k_max=30, B=2.0))
        rep = condition_diagnostics(p, s_grid=[1, 5, 9], n_grid=[4, 8, 16], eps=0.25, m=2)
        for row in rep.rows:
            assert math.isclose(row.ratio_uniform, 1.0 / (row.n + 1), rel_tol=1e-12)
        assert rep.all_consistent

    def test_delta_form_closed_form_agreement(self):
        # ratio at (s=5, n=10) two ways: via profile sums vs (b/2)^k/2 closed form
        b = 2.0
        p = profile(build_model(DELTA_FORM, k_max=20, b=b))
        rep = condition_diagnostics(p, s_grid=[5], n_grid=[10], eps=0.25, m=3)
        row = rep.rows[0]
        closed = [0.5 * (b / 2.0) ** k for k in range(5, 16)]
        want = closed[-1] / math.fsum(closed)
        assert math.isclose(row.ratio_uniform, want, rel_tol=1e-12)

    def test_example2_witness_fires(self):
        m = build_model(EXAMPLE2, k_max=40, variant="A")
        p = profile(m)
        kj = m.meta["kj"]
        # dip window s=k_j, n=k_{j+1}-k_j with eps=1/4, m=0: negation holds from j=3 on
        for j in (3, 4):
            s, n = kj[j - 1], kj[j] - kj[j - 1]
            rep = condition_diagnostics(p, [s], [n], eps=0.25, m=0)
            row = rep.rows[0]
            assert p.B[s + n] > 0.5
            assert not row.block_holds  # negation of the block inequality
        assert rep.all_consistent

    def test_monotone_rule_bound(self):
        # nonincreasing B_k gives ratio <= 1/(n+1)
        p = profile(build_model(POWER_LAW, k_max=40, a=2.0))
        rep = condition_diagnostics(p, s_grid=[8, 12], n_grid=[4, 9, 20], eps=0.5, m=1)
        for row in rep.rows:
            Bs = p.B[row.s:row.s + row.n + 1]
            if all(x >= y for x, y in zip(Bs, Bs[1:])):
                assert row.ratio_uniform <= 1.0 / (row.n + 1) + 1e-15

    def test_product_vs_recent_sign_agreement(self):
        for fam, kw in [(EXAMPLE1, {"B": 1.0}), (DELTA_FORM, {"b": 3.0}),
                        (EXAMPLE2, {"variant": "A"})]:
            p = profile(build_model(fam, k_max=36, **kw))
            rep = condition_diagnostics(p, s_grid=[2, 6], n_grid=[6, 12],
                                        eps=0.125, m=4)
            assert rep.all_consistent

    def test_horizon_error(self):
        p = profile(build_model(EXAMPLE1, k_max=10, B=1.0))
        with pytest.raises(HorizonError):
            condition_diagnostics(p, [5], [10], eps=0.25, m=1)

    @pytest.mark.parametrize("eps", [0.0, -0.5, math.nan, math.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        # eps = 0 divided by zero, NaN failed to convert, and -0.5 reported
        # rows at M = -1
        p = profile(build_model(EXAMPLE1, k_max=10, B=1.0))
        with pytest.raises(ParameterError):
            condition_diagnostics(p, [1], [4], eps=eps, m=1)

    @pytest.mark.parametrize("s, n, m", [(0, 2, 1), (-1, 2, 1), (1, -1, 0)])
    def test_level_below_1_and_negative_n_are_rejected(self, s, n, m):
        # s <= 0 was reported as "beyond horizon 20", n = -1 as a window
        # m = 0 exceeding n
        p = profile(build_model(EXAMPLE1, k_max=20, B=1.0))
        with pytest.raises(ParameterError, match="s >= 1 and n >= 0"):
            condition_diagnostics(p, [s], [n], eps=0.25, m=m)

    def test_grid_point_beyond_the_horizon_is_a_horizon_error(self):
        p = profile(build_model(EXAMPLE1, k_max=20, B=1.0))
        condition_diagnostics(p, [1], [19], eps=0.25, m=1)
        with pytest.raises(HorizonError, match="beyond horizon 20"):
            condition_diagnostics(p, [1], [20], eps=0.25, m=1)

    def test_product_check_is_exact_on_the_logs(self):
        # example1 B = 1: ln(1/delta_k) = 2^{k+1}, so the window sum
        # sum_{i=1..m} 2^{i-1} 2^{s+n-i+1} = m 2^{s+n} equals M ln(1/delta_{s+n})
        # = M 2^{s+n+1} at M = m/2: the strict product inequality fails
        p = profile(build_model(EXAMPLE1, k_max=30, B=1.0))
        rep = condition_diagnostics(p, [3], [8], eps=0.25, m=4)
        assert rep.M == 2.0 and not rep.rows[0].product_holds
        assert rep.all_consistent

    def test_exact_product_check_at_a_non_integral_M(self):
        # M = 1/(2 eps) = 0.83...: a float margin rounds to 0 and fails,
        # while on the exact logs L_2 + 2 L_1 > M L_3, with M = 1/(2 eps)
        # taken exactly.  The product and the recent-window inequalities
        # are one inequality there, and both report the exact answer.
        g = [0.006737946999085467, 0.006737946999085467, 8.315287191035687e-07]
        p = profile(build_model(CUSTOM, k_max=3, gammas=g))
        rep = condition_diagnostics(p, [1], [2], eps=0.6, m=2)
        row = rep.rows[0]
        L = p.ln_inv_deltas
        assert L[2] + 2 * L[1] > L[3] / (2 * Fraction(0.6))
        assert row.product_margin_scaled > 0
        assert row.product_holds and row.recent_holds
        assert row.consistent and rep.all_consistent

    def test_product_and_recent_agree_where_the_window_is_an_equality(self):
        # delta_form b = 3: L_{k-1} = L_k / 3, so at eps = 1.5, m = 1 the
        # recent-window inequality B_k < 1.5 B_{k-1} is an exact equality,
        # and so is the product one at M = 1/3.  Checked at fl(1/3) < 1/3,
        # the product inequality held and every row was flagged inconsistent.
        p = profile(build_model(DELTA_FORM, k_max=20, b=3.0))
        rep = condition_diagnostics(p, [1, 2, 3, 4], [2, 3, 4], eps=1.5, m=1)
        assert rep.all_consistent
        assert all(r.product_holds == r.recent_holds for r in rep.rows)
        assert not any(r.product_holds for r in rep.rows)


class TestClassifier:
    def test_verdict_table(self):
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
            assert got.rule

    def test_example2_variant_b(self):
        m = build_model(EXAMPLE2, k_max=40, variant="B")
        assert classify_ep(m).ep == "no"

    def test_custom_undetermined(self):
        m = build_model(CUSTOM, gammas=[1 / 64] * 8)
        assert classify_ep(m).ep == "undetermined"


class TestExample3:
    def test_starts_on_increasing_branch(self):
        m = build_model(EXAMPLE3, k_max=60, m=3)
        k0 = m.meta["k_start"]
        assert k0 >= 17
        p = profile(m)
        Bs = [p.B[k] for k in range(k0, 61)]
        assert all(x < y for x, y in zip(Bs, Bs[1:]))
        betas = [p.beta[k] for k in range(k0, 61)]
        assert all(x > y for x, y in zip(betas, betas[1:]))  # beta decreasing
        assert betas[-1] > 0

    def test_prefix_is_exactly_1_over_32(self):
        m = build_model(EXAMPLE3, k_max=40, m=3)
        for k in range(1, m.meta["k_start"]):
            assert gamma_float(m, k) == 1.0 / 32.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=24))
def test_delta_product_identity_random_prefixes(i, j):
    # associativity of the delta product: splitting the product anywhere agrees
    m = build_model(EXAMPLE2, k_max=48)
    p = profile(m)
    s = i + j
    split = p.ln_inv_deltas[i] + sum(m.ln_inv_gamma[i:s])
    assert split == p.ln_inv_deltas[s]


class TestFromDimensionFunction:
    def test_log_measure_gives_constant_weights(self):
        from cantorext.dimension import LogPower
        from cantorext.gamma import FROM_DIMENSION_FUNCTION
        h = LogPower(alpha0=1.0)
        m = build_model(FROM_DIMENSION_FUNCTION, k_max=20, h=h)
        p = profile(m)
        # ln(1/h^{-1}(2^-k)) = 2^k; the clamped prefix (k <= 2) adds the
        # constant 2 ln 32 - 4 to ln(1/delta_k), so B_k = 1/2 + c 2^{-k-1}
        assert m.clamp_prefix == 2
        c = 2 * math.log(32.0) - 4.0
        for k in (5, 10, 20):
            assert math.isclose(p.B[k], 0.5 + c / 2.0 ** (k + 1), rel_tol=1e-9)
        assert classify_ep(m).ep == "yes"

    def test_half_exponent_classified_no(self):
        from cantorext.dimension import LogPower
        from cantorext.gamma import FROM_DIMENSION_FUNCTION
        m = build_model(FROM_DIMENSION_FUNCTION, k_max=12, h=LogPower(alpha0=0.5))
        assert classify_ep(m).ep == "no"
        assert profile(m).polar_verdict == POLAR

    def test_custom_diagnostics_flagged_heuristic(self):
        m = build_model(CUSTOM, gammas=[1 / 64] * 12)
        rep = condition_diagnostics(profile(m), [1, 3], [4, 8], eps=0.25, m=1)
        assert rep.heuristic
        m2 = build_model(EXAMPLE1, k_max=12, B=1.0)
        assert not condition_diagnostics(profile(m2), [1], [4], eps=0.25, m=1).heuristic
