import bisect
import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (check_derivative_bound, content_dp_numpy, h_prime,
                     log_power_h)

from cantorext import hausdorff
from cantorext.cli import main
from cantorext.dimension import EtaProfile, LogPower
from cantorext.errors import DomainError, ParameterError
from cantorext.gamma import (DELTA_FORM, EXAMPLE1, EXAMPLE2, EXAMPLE3,
                             POWER_LAW, build_model, profile)
from cantorext.geometry import build_tree
from cantorext.hausdorff import (
    FloatAtoms, IslandFamily, TreeAtoms, compare_dimension_functions,
    content_dp, content_exhaustive, density_scan_islands, density_scan_tree,
    ep_root_test, lambda_level_estimate, q_rule_constant, q_rule_log,
)

H_HALF = LogPower(alpha0=0.5)
H_LOG = LogPower(alpha0=1.0)


class TestDimensionFunctions:
    def test_h0_basics(self):
        # (ln 1/t)^-1 at t = e^-10 is 0.1
        assert log_power_h(H_LOG, math.exp(-10)) == pytest.approx(0.1,
                                                                  rel=1e-14)
        assert H_LOG.h_ln(10.0) == pytest.approx(0.1, rel=1e-14)

    def test_frozen_exponent_warns_nothing(self):
        # ln(1/t) < 1 and ln ln(1/t) <= 0 lie outside the iterated logs'
        # domain, where eps is frozen at its cap; no numpy warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_power_h(LogPower(0.5, 1, 3), 0.5) == 1.4426947765058011
            assert log_power_h(LogPower(0.5, -1, 3), 0.5) == 1.0959574028674248
            assert LogPower(0.3, 1, 4).inverse_lnln(0.5) == 0.500000350000245
            assert LogPower(1.0, -1, 4).inverse_lnln(1e-6) == 0.9999999999712448

    @pytest.mark.parametrize("args", [(0.5, 1, 4), (0.5, -1, 5), (1.0, -1, 5)])
    def test_unreachable_domain_start_names_m(self, args):
        # the cap is below 1/log_(m-1)(1e300): no double L reaches it
        with pytest.raises(ParameterError,
                           match=f"m={args[2]}: its domain start lies beyond "
                                 r"ln\(1/t\) = 1e300, which a double cannot"):
            LogPower(*args)

    def test_unreachable_domain_start_exits_2(self, capsys):
        code = main(["density", "--family", "islands", "--Q", "2",
                     "--alpha0", "0.5", "--eps-sign", "1", "--m", "4",
                     "--k-range", "10"])
        assert code == 2
        assert "m=4: its domain start lies beyond ln(1/t) = 1e300" in \
            capsys.readouterr().err

    def test_inverse_roundtrip(self):
        for h in (H_HALF, LogPower(0.5, +1, 3), LogPower(1.0, -1, 3)):
            for tau in (0.3, 0.1, 0.02):
                L = h.inverse_ln(-math.log(tau))
                assert h.h_ln(L) == pytest.approx(tau, rel=1e-10)

    def test_eta_profile_hits_levels(self):
        m = build_model(EXAMPLE1, k_max=12, B=1.0)
        h = EtaProfile(m)
        p = profile(m)
        for k in range(0, 11):
            L = float(p.ln_inv_delta(k))
            assert h.h_ln(L) == pytest.approx(2.0 ** -k, rel=1e-13)

    def test_eta_profile_inverse(self):
        m = build_model(EXAMPLE1, k_max=12, B=1.0)
        h = EtaProfile(m)
        p = profile(m)
        for k in (1, 5, 9):
            assert h.inverse_ln(k * math.log(2)) == \
                pytest.approx(float(p.ln_inv_delta(k)), rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_power_h(H_LOG, 1.5)
        with pytest.raises(ParameterError):
            LogPower(0.5, +1, m=2)

    def test_doubling_flag(self):
        # h(t) <= 2 h(t^2) on the grid (the two-scale regularity flag)
        grid = np.geomspace(20, 1e6, 40)
        for h in (H_HALF, H_LOG, LogPower(0.5, +1, 3), LogPower(1.0, -1, 3)):
            assert np.all(h.h_ln(grid) <= 2.0 * h.h_ln(2.0 * grid) * (1 + 1e-12))

    def test_derivative_bound(self):
        ts = [math.exp(-L) for L in (25, 60, 200, 500)]
        assert check_derivative_bound(LogPower(0.5, 0), ts)
        assert check_derivative_bound(LogPower(0.5, +1, 3), ts)
        assert check_derivative_bound(LogPower(0.5, -1, 3), ts)
        assert check_derivative_bound(LogPower(1.0, -1, 3), ts)

    def test_h_prime_matches_finite_difference(self):
        h = LogPower(0.5, -1, 3)
        for t in (1e-12, 1e-30):
            dt = t * 1e-6
            fd = (log_power_h(h, t + dt)
                  - log_power_h(h, t - dt)) / (2 * dt)
            assert h_prime(h, t) == pytest.approx(fd, rel=1e-4)


class TestContentDP:
    def test_single_atom(self):
        atoms = FloatAtoms([(0.2, 0.3)])
        res = content_dp(atoms, H_HALF)
        assert res.value == pytest.approx(log_power_h(H_HALF, 0.1), rel=1e-14)
        assert res.runs == [(0, 0)]

    def test_monotone_under_clipping(self):
        atoms = FloatAtoms([(0.1, 0.12), (0.2, 0.22), (0.4, 0.41)])
        full = content_dp(atoms, H_HALF).value
        clipped = content_dp(atoms.clip(0.05, 0.3), H_HALF).value
        assert clipped <= full + 1e-15

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.randoms(use_true_random=False))
    def test_dp_equals_exhaustive(self, m, rng):
        # random gap/length layouts, both dimension functions
        pos, atoms = 0.001, []
        for _ in range(m):
            length = rng.uniform(1e-6, 0.05)
            gap = rng.uniform(1e-6, 0.05)
            atoms.append((pos, pos + length))
            pos += length + gap
        fa = FloatAtoms(atoms)
        for h in (H_HALF, H_LOG):
            assert content_dp(fa, h).value == pytest.approx(
                content_exhaustive(fa, h), rel=1e-12)

    def test_adding_atoms_never_decreases(self):
        base = [(0.1, 0.12), (0.3, 0.33)]
        more = base + [(0.5, 0.55)]
        assert content_dp(FloatAtoms(more), H_HALF).value >= \
            content_dp(FloatAtoms(base), H_HALF).value - 1e-15


def _row_by_row_dp(atoms, h):
    """The covering DP with h applied to one span row at a time."""
    m = atoms.count
    cost, back = np.zeros(m + 1), []
    for j in range(m):
        vals = cost[:j + 1] + h.h_ln(atoms.ln_inv_span_starts(j))
        i = int(np.argmin(vals))
        cost[j + 1] = float(vals[i])
        back.append(i)
    runs, j = [], m - 1
    while j >= 0:
        runs.append((back[j], j))
        j = back[j] - 1
    return float(cost[m]), runs[::-1]


def _clip_mid(atoms, i0, i1):
    """The view cut at the midpoints of atoms i0 and i1."""
    def mid(i):
        return (atoms.lefts[i] + atoms.rights[i]) / 2
    return atoms.clip(mid(i0), mid(i1))


def _dp_provider(kind: str):
    if kind == "float":
        rng = np.random.default_rng(7)
        ends = np.cumsum(rng.uniform(1e-4, 0.02, size=24))
        return FloatAtoms(list(zip(ends[::2], ends[1::2])))
    if kind in ("tree", "tree_wide"):
        atoms = TreeAtoms(build_tree(build_model(DELTA_FORM, k_max=12, b=2.0),
                                     depth=4, bits=256))
        with mp.workprec(atoms.bits):
            if kind == "tree":
                return _clip_mid(atoms, 1, 7)  # spans below 1/e
            return atoms.clip(0.08, 0.92)  # spans up to 0.739 > 1/e
    return _clip_mid(IslandFamily(q_rule_log(), k_max=12).atoms(), 0, 10)


@pytest.mark.parametrize("kind", ["float", "tree", "islands", "tree_wide"])
@pytest.mark.parametrize("h", [H_HALF, LogPower(0.5, +1, 3),
                               LogPower(0.5, -1, 3), "eta"])
def test_one_pass_dp_matches_row_by_row(kind, h):
    if h == "eta":
        h = EtaProfile(build_model(EXAMPLE1, k_max=12, B=1.0))
    atoms = _dp_provider(kind)
    assert kind in ("float", "tree_wide") or atoms.clamped == (True, True)
    res = content_dp(atoms, h)
    value, runs = _row_by_row_dp(atoms, h)
    assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
    assert res.runs == runs


class _CoarseH:
    """h rounded to eighths of its log-power value: exact ties between
    coverings are common, and the first minimum must win each."""

    def h_ln(self, lnt):
        return np.floor(8 * H_HALF.h_ln(lnt)) / 8


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-6, 0.02), st.floats(1e-6, 0.02)),
                min_size=1, max_size=24),
       st.sampled_from([H_HALF, H_LOG, _CoarseH()]))
def test_float_dp_matches_numpy_recurrence(layout, h):
    pos, ivs = 0.001, []
    for length, gap in layout:
        ivs.append((pos, pos + length))
        pos += length + gap
    atoms = FloatAtoms(ivs)
    res = content_dp(atoms, h)
    value, runs = content_dp_numpy(atoms, h)
    assert res.value.hex() == value.hex()
    assert res.runs == runs


class _TableH:
    """h given as its values over the DP's triangle of spans, row by row."""

    def __init__(self, values):
        self.values = values

    def h_ln(self, lnt):
        return np.array(self.values, dtype=float)


def test_dp_ties_take_the_first_minimum():
    # rows [1], [2, 1], [3, 2, 1]: every candidate of rows 1 and 2 ties
    atoms = FloatAtoms([(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)])
    h = _TableH([1, 2, 1, 3, 2, 1])
    res = content_dp(atoms, h)
    assert (res.value, res.runs) == content_dp_numpy(atoms, h) == \
        (3.0, [(0, 2)])


def test_dp_raises_where_h_is_nan():
    # a NaN that a row's minimum would pass over, not only one it would take
    with pytest.raises(DomainError):
        content_dp(FloatAtoms([(0.1, 0.2), (0.3, 0.4)]),
                   _TableH([1, 2, math.nan]))


def test_collapsed_clipped_island_span_raises():
    # a clamped first atom whose left end reached its right end
    view = _clip_mid(IslandFamily(q_rule_constant(2.0), k_max=12).atoms(),
                     3, 12)
    view.lefts[0] = view.rights[0]
    with pytest.raises(DomainError):
        content_dp(view, H_HALF)


class TestIslandFamily:
    def test_tail_cover_is_single_interval(self):
        fam = IslandFamily(q_rule_constant(2.0), k_max=60)
        for n in (5, 10, 20):
            atoms = fam.atoms(k_from=n)
            res = content_dp(atoms, H_HALF)
            # optimal covering = one interval [0, b_n], value h(b_n) = n^-1/2
            assert res.value == pytest.approx(n ** -0.5, rel=1e-12)
            assert res.runs == [(0, atoms.count - 1)]

    def test_adjacent_pair_merges_at_half_exponent(self):
        # at alpha0 = 1/2, Q = 2 the one-interval cover of I_k u I_{k+1} is
        # cheaper: h(b_k - a_{k+1}) < h(|I_k|) + h(|I_{k+1}|)
        fam = IslandFamily(q_rule_constant(2.0), k_max=60)
        res = content_dp(fam.island_pair(10), H_HALF)
        merged = H_HALF.h_ln(10.0 - math.log1p(-math.exp(-1) + math.exp(-12)))
        assert res.value == pytest.approx(merged, rel=1e-12)
        assert res.runs == [(0, 1)]

    def test_adjacent_pair_separate_at_log_measure(self):
        # with h = h0 (alpha0 = 1) the split cover wins for k >= 6
        fam = IslandFamily(q_rule_constant(2.0), k_max=60)
        res = content_dp(fam.island_pair(10), H_LOG)
        split = 1.0 / 20.0 + 1.0 / 22.0
        assert res.value == pytest.approx(split, rel=1e-12)
        assert res.runs == [(0, 0), (1, 1)]

    def test_span_logs_against_highprec(self):
        fam = IslandFamily(q_rule_constant(2.0), k_max=30)
        atoms = fam.atoms()
        with mp.workprec(300):
            def left(i):
                if atoms.ks[i] == fam.k_max + 1:  # the residual [0, b_{k_max+1}]
                    return mp.mpf(0)
                k = atoms.ks[i]
                return mp.exp(-k) - mp.exp(-k * 2)

            def right(i):
                return mp.exp(-atoms.ks[i])

            for j in (0, 3, 7):
                got = atoms.ln_inv_span_starts(j)
                for i in range(j + 1):
                    want = float(-mp.log(right(j) - left(i)))
                    assert got[i] == pytest.approx(want, rel=1e-12)


@functools.lru_cache(maxsize=None)
def _clip_provider(kind: str):
    if kind == "tree":
        return TreeAtoms(build_tree(build_model(DELTA_FORM, k_max=12, b=2.0),
                                    depth=4, bits=256))
    if kind == "islands-Q2":
        return IslandFamily(q_rule_constant(2.0), k_max=12).atoms()
    if kind == "islands-logk":
        return IslandFamily(q_rule_log(), k_max=12).atoms(k_from=3)
    return IslandFamily(q_rule_constant(2.0), k_max=12).island_pair(5)


def _window_ends(atoms, mid) -> list:
    """Atom endpoints, points inside atoms and in gaps, and both far sides."""
    L, R = list(atoms.lefts), list(atoms.rights)
    ends = [L[0] - 1, R[-1] + 1] + L + R
    ends += [mid(a, b) for a, b in zip(L, R)]
    ends += [mid(b, a) for b, a in zip(R, L[1:])]
    return ends


def _reference_rows(atoms, lo, hi):
    """Brute-force clip of a root provider: (lefts, rights, kept indices,
    clamped) and its span rows, entry by entry."""
    idx = [i for i in range(atoms.count)
           if atoms.rights[i] > lo and atoms.lefts[i] < hi] if lo < hi else []
    if not idx:
        return None
    lefts = [atoms.lefts[i] if atoms.lefts[i] >= lo else lo for i in idx]
    rights = [atoms.rights[i] if atoms.rights[i] <= hi else hi for i in idx]
    clamped = (lefts[0] != atoms.lefts[idx[0]],
               rights[-1] != atoms.rights[idx[-1]])
    m = len(idx)
    rows = []
    for j in range(m):
        row = []
        for i in range(j + 1):
            if isinstance(atoms, TreeAtoms):
                with mp.workprec(atoms.bits):
                    row.append(float(-mp.log(rights[j] - lefts[i])))
            elif isinstance(atoms, FloatAtoms):
                row.append(float(-np.log(rights[j] - lefts[i])))
            elif (i == 0 and clamped[0]) or (j == m - 1 and clamped[1]):
                row.append(-math.log(rights[j] - lefts[i]))
            else:  # closed form, as in the unclipped provider
                row.append(float(atoms.ln_inv_span_starts(idx[j])[idx[i]]))
        rows.append(np.array(row))
    return lefts, rights, idx, clamped, rows


def _snapshot(atoms) -> tuple:
    return tuple(list(getattr(atoms, name)) for name in atoms.per_atom) \
        + (atoms.clamped,)


class TestClip:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["float", "tree", "islands-Q2", "islands-logk",
                            "pair"]),
           st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
                    min_size=1, max_size=8),
           st.data())
    def test_bisected_clip_matches_brute_force(self, kind, layout, data):
        if kind == "float":
            pos, ivs = 0.0, []
            for gap, length in layout:
                ivs.append((pos + gap, pos + gap + length))
                pos += gap + length
            atoms = FloatAtoms(ivs)
        else:
            atoms = _clip_provider(kind)
        if kind == "tree":
            def mid(a, b):
                with mp.workprec(atoms.bits):
                    return (a + b) / 2
        else:
            def mid(a, b):
                return (a + b) / 2
        ends = _window_ends(atoms, mid)
        lo, hi, lo2, hi2 = (data.draw(st.sampled_from(ends)) for _ in range(4))
        before = _snapshot(atoms)

        view = atoms.clip(lo, hi)
        want = _reference_rows(atoms, lo, hi)
        assert _snapshot(atoms) == before
        if want is None:
            assert view is None
            return
        lefts, rights, idx, clamped, rows = want
        assert list(view.lefts) == lefts and list(view.rights) == rights
        assert view.clamped == clamped
        if kind.startswith("islands") or kind == "pair":
            assert list(view.ks) == [atoms.ks[i] for i in idx]
        for j in range(view.count):
            assert view.ln_inv_span_starts(j).tobytes() == rows[j].tobytes()

        # only a root is clipped: a view raises, with or without its run
        run = hausdorff._run(atoms, lo, hi)
        for clip in (lambda: view.clip(lo2, hi2),
                     lambda: view.clip(lo, hi, run),
                     lambda: hausdorff._run(view, lo2, hi2)):
            with pytest.raises(ParameterError):
                clip()


def _scalar_island_row(atoms, j):
    """Row j entry by entry: doubles on a clamped end, else the scalar closed
    form in the exponents that the numpy row replaced."""
    fam, m, kj = atoms.fam, atoms.count, int(atoms.ks[j])
    row = []
    for i in range(j + 1):
        ki = int(atoms.ks[i])
        if (i == 0 and atoms.clamped[0]) or (j == m - 1 and atoms.clamped[1]):
            row.append(-math.log(atoms.rights[j] - atoms.lefts[i]))
        elif ki > fam.k_max:  # the residual [0, b_ki]
            row.append(float(kj))
        elif i == j:
            row.append(ki * fam.Q(ki))
        else:
            kiq = ki * fam.Q(ki)
            row.append(kj - math.log1p(-math.exp(-(ki - kj))
                                       + math.exp(-(kiq - kj))))
    return np.array(row)


def _within_4_ulp(got, want) -> bool:
    return got.shape == want.shape and \
        bool(np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want))))


@functools.lru_cache(maxsize=None)
def _memo_tree():
    return build_tree(build_model(DELTA_FORM, k_max=12, b=2.0),
                      depth=4, bits=256)


def _memo_root(kind: str):
    """A root provider with an empty span memo."""
    if kind == "tree":
        return TreeAtoms(_memo_tree())
    fam = IslandFamily(q_rule_constant(2.0), k_max=12)
    return fam.atoms() if kind == "islands" else fam.island_pair(5)


def _between(atoms, a, b, t):
    """a + t (b - a), at the tree's precision for tree atoms."""
    if isinstance(atoms, TreeAtoms):
        with mp.workprec(atoms.bits):
            return a + t * (b - a)
    return a + t * (b - a)


def _span_log(atoms, right, left) -> float:
    """ln(1/(right - left)) as a provider takes it on a clamped end."""
    if isinstance(atoms, TreeAtoms):
        with mp.workprec(atoms.bits):
            return float(-mp.log(right - left))
    return -math.log(right - left)


class TestSpanRows:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["Q2", "Q3", "logk", "pair"]),
           st.integers(min_value=2, max_value=16), st.data())
    def test_island_rows_match_scalar_closed_form(self, kind, k_max, data):
        rule = {"Q2": q_rule_constant(2.0), "Q3": q_rule_constant(3.0),
                "logk": q_rule_log(), "pair": q_rule_constant(2.0)}[kind]
        fam = IslandFamily(rule, k_max=k_max)
        atoms = fam.island_pair(k_max - 1) if kind == "pair" else \
            fam.atoms(k_from=data.draw(st.integers(1, k_max)))
        ends = _window_ends(atoms, lambda a, b: (a + b) / 2)
        lo, hi = (data.draw(st.sampled_from(ends)) for _ in range(2))
        view = atoms.clip(lo, hi) or atoms
        for j in range(view.count):
            assert _within_4_ulp(view.ln_inv_span_starts(j),
                                 _scalar_island_row(view, j))

    @pytest.mark.parametrize("kind", ["Q2", "logk", "pair"])
    def test_island_rows_cover_both_clamped_ends(self, kind):
        rule = q_rule_log() if kind == "logk" else q_rule_constant(2.0)
        fam = IslandFamily(rule, k_max=12)
        atoms = fam.island_pair(5) if kind == "pair" else fam.atoms()
        L, R = atoms.lefts, atoms.rights
        for lo, hi in ((L[0] + (R[0] - L[0]) / 3, R[-1] + 1),
                       (L[0] - 1, L[-1] + (R[-1] - L[-1]) / 3),
                       (L[0] + (R[0] - L[0]) / 3, L[-1] + (R[-1] - L[-1]) / 3)):
            view = atoms.clip(lo, hi)
            assert view.clamped == (lo > L[0], hi < R[-1])
            for j in range(view.count):
                assert _within_4_ulp(view.ln_inv_span_starts(j),
                                     _scalar_island_row(view, j))

    @pytest.mark.parametrize("rule,k_max", [(q_rule_constant(3.0), 400),
                                            (q_rule_log(), 200)])
    def test_deep_island_rows(self, rule, k_max):
        # |I_k| / b_k = e^-k(Q_k - 1) underflows here: a row that took log1p
        # on its diagonal would meet log1p(-1)
        atoms = IslandFamily(rule, k_max=k_max).atoms(k_from=k_max - 12)
        for j in range(atoms.count):
            assert _within_4_ulp(atoms.ln_inv_span_starts(j),
                                 _scalar_island_row(atoms, j))

    @pytest.mark.parametrize("kind", ["tree", "islands", "pair"])
    def test_memo_never_serves_a_clamped_entry(self, kind):
        # the memo is keyed by root atom index: two views clamping the same
        # first atom at different points must each get their own first entry
        for root_first in (True, False):
            atoms = _memo_root(kind)
            if root_first:
                before = [atoms.ln_inv_span_starts(j).tobytes()
                          for j in range(atoms.count)]
            c = min(2, atoms.count - 2)
            L, R = atoms.lefts[c], atoms.rights[c]
            for t in (1, 2):
                view = atoms.clip(_between(atoms, L, R, t / 3),
                                  atoms.rights[-1] + 1)
                assert view.clamped == (True, False)
                fresh = _memo_root(kind)
                for j in range(view.count):
                    # a fresh root computes its row in one column
                    want = np.concatenate((
                        [_span_log(atoms, view.rights[j], view.lefts[0])],
                        fresh.ln_inv_span_starts(c + j)[c + 1:]))
                    assert view.ln_inv_span_starts(j).tobytes() == \
                        want.tobytes()
            after = [atoms.ln_inv_span_starts(j).tobytes()
                     for j in range(atoms.count)]
            if root_first:
                assert after == before
            fresh = _memo_root(kind)
            assert after == [fresh.ln_inv_span_starts(j).tobytes()
                             for j in range(atoms.count)]

    @pytest.mark.parametrize("kind", ["tree", "islands"])
    def test_views_share_the_root_memo(self, kind, monkeypatch):
        atoms = _memo_root(kind)
        rows = [atoms.ln_inv_span_starts(j) for j in range(atoms.count)]
        calls = []
        columns = type(atoms)._columns

        def counted(self, rows):
            calls.append(rows)
            return columns(self, rows)

        monkeypatch.setattr(type(atoms), "_columns", counted)
        # both ends in gaps: atoms 2 .. count-3, neither end clamped
        L, R = atoms.lefts, atoms.rights
        lo, hi = _between(atoms, R[1], L[2], 0.5), \
            _between(atoms, R[-3], L[-2], 0.5)
        view = atoms.clip(lo, hi)
        assert view.clamped == (False, False)
        assert view.count == atoms.count - 4
        for j in range(view.count):
            assert view.ln_inv_span_starts(j).tobytes() == \
                rows[j + 2][2:].tobytes()
        assert calls == []
        # the counter does see a miss: a view of a fresh root computes
        _memo_root(kind).clip(lo, hi).ln_inv_span_starts(0)
        assert len(calls) == 1


@pytest.fixture(scope="module")
def tree_ex1_d6():
    return build_tree(build_model(EXAMPLE1, k_max=12, B=1.0), depth=6, bits=512)


class TestLevelSums:
    def test_example1_bracket(self, tree_ex1_d6):
        h = EtaProfile(tree_ex1_d6.model)
        prev = math.inf
        for k in range(3, 7):
            ls = lambda_level_estimate(tree_ex1_d6, h, k)
            assert 1.0 < ls.value < ls.upper
            assert ls.value < prev
            prev = ls.value

    def test_upper_holds_where_c0_delta_passes_one(self):
        # example3's C0 = 1.47e7 exceeds 1/delta_k for k <= 4, where h at
        # C0 delta_k > 1 raised (and `hausdorff --family example3` exited
        # 2 at every k_max): the upper constant takes h at min(C0 delta_k,
        # 1), 2^k there, and still bounds the sum at every level
        model = build_model(EXAMPLE3, k_max=100)
        tree = build_tree(model, depth=6, bits=256)
        h = EtaProfile(model)
        sums = [lambda_level_estimate(tree, h, k) for k in range(7)]
        assert all(ls.value <= ls.upper for ls in sums)
        assert [ls.upper for ls in sums[:5]] == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_level0_boundary(self, tree_ex1_d6):
        ls = lambda_level_estimate(tree_ex1_d6, EtaProfile(tree_ex1_d6.model), 0)
        assert ls.value == 1.0

    def test_restriction_scales_like_cor(self, tree_ex1_d6):
        # restricted to one level-2 interval, the level-6 sum is ~ 2^-2 of the total
        t = tree_ex1_d6
        h = EtaProfile(t.model)
        full = lambda_level_estimate(t, h, 6).value
        base = t.interval(2, 2)
        vals = [-iv.ln_length for iv in t.levels[6]
                if base.left <= iv.left and iv.right <= base.right]
        restricted = float(np.sum(h.h_ln(np.array(vals))))
        assert restricted == pytest.approx(full / 4.0, rel=0.02)


class TestDensities:
    def test_islands_bounded_q_limit(self):
        # Q == 2, alpha0 = 1/2: lower density Q^-alpha0 = 2^-1/2
        fam = IslandFamily(q_rule_constant(2.0), k_max=200)
        table = density_scan_islands(fam, H_HALF, k_list=[10, 25, 50, 100, 150, 199])
        assert table.liminf_estimate == pytest.approx(2.0 ** -0.5, rel=0.10)
        # the constrained radii achieve it: ratio at the last k close to limit
        assert table.per_r[-1].ratio == pytest.approx(2.0 ** -0.5, rel=0.02)

    def test_islands_at_radius_value(self):
        # for b_{n+1} <= r <= b_n - b_{n+1} the infimum content is h(|I_n|)
        fam = IslandFamily(q_rule_constant(2.0), k_max=60)
        table = density_scan_islands(fam, H_HALF, k_list=[12])
        point = table.per_r[0]
        assert point.inf_phi == pytest.approx(H_HALF.h_ln(24.0), rel=1e-9)

    def test_islands_unbounded_q_ratio_decays(self):
        fam = IslandFamily(q_rule_log(), k_max=200)
        table = density_scan_islands(fam, H_HALF, k_list=[25, 60, 120, 199])
        ratios = [p.ratio for p in table.per_r]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        # decay rate is (log k)^-alpha0: slow; endpoint value ~ 0.43
        assert ratios[-1] == pytest.approx((math.log(199)) ** -0.5, rel=0.05)

    def test_tree_density_delta_form(self):
        for b, bits, depth in ((2.0, 512, 6), (3.0, 1024, 5)):
            tree = build_tree(build_model(DELTA_FORM, k_max=12, b=b),
                              depth=depth, bits=bits)
            table = density_scan_tree(tree, H_HALF, k_range=range(2, depth + 1),
                                      analytic_limit=b ** -0.5)
            assert table.liminf_estimate == pytest.approx(b ** -0.5, rel=0.10)

    def test_two_scale_gap_condition(self):
        # h(C0 delta_k) < 2 h(delta_{k+1}) (one-interval optimality)
        for b in (2.0, 3.0):
            p = profile(build_model(DELTA_FORM, k_max=20, b=b))
            ln_c0 = math.log(p.model.c0)
            for k in range(4, 19):
                L_k = float(p.ln_inv_delta(k))
                L_k1 = float(p.ln_inv_delta(k + 1))
                assert H_HALF.h_ln(L_k - ln_c0) < 2.0 * H_HALF.h_ln(L_k1)

    def test_tree_dp_never_splits_basic_interval(self):
        # one-interval covers beat the two-child covers at every level
        tree = build_tree(build_model(DELTA_FORM, k_max=12, b=2.0), depth=6, bits=512)
        for (j, s) in [(1, 2), (2, 3), (5, 4)]:
            iv = tree.interval(j, s)
            atoms = TreeAtoms(tree).clip(iv.left, iv.right)
            res = content_dp(atoms, H_HALF)
            assert res.runs == [(0, atoms.count - 1)]

    def test_refinement_monotone(self):
        tree = build_tree(build_model(EXAMPLE1, k_max=12, B=1.0), depth=6, bits=512)
        h = EtaProfile(tree.model)
        shallow = content_dp(TreeAtoms(tree, level=5), h).value
        deep = content_dp(TreeAtoms(tree, level=6), h).value
        assert deep <= shallow + 1e-12
        # restricted to I_{j,2} both stay >= 2^-2
        iv = tree.interval(2, 2)
        atoms = TreeAtoms(tree).clip(iv.left, iv.right)
        assert content_dp(atoms, h).value >= 0.25 - 1e-12


def _scan_every_window(atoms, h, r_items, x_items, analytic_limit, keep_rows):
    """The density scan without the window memo: one clip and one covering
    DP for every (radius, centre)."""
    rows, per_r = [], []
    for ln_inv_r, r_native in r_items:
        phis = []
        for label, x in x_items:
            window = atoms.clip(x - r_native, x + r_native)
            if window is None:
                continue
            phi = content_dp(window, h).value
            phis.append(phi)
            if keep_rows:
                rows.append(hausdorff.DensityRow(ln_inv_r, label, phi))
        if phis:
            inf_phi = min(phis)
            per_r.append(hausdorff.DensityPoint(
                ln_inv_r, inf_phi, inf_phi / h.h_ln(ln_inv_r - math.log(2.0))))
    per_r.sort(key=lambda p: p.ln_inv_r)
    liminf = min((p.ratio for p in per_r[len(per_r) // 2:]), default=math.nan)
    return hausdorff.DensityTable(rows, per_r, liminf, analytic_limit)


def _table_hex(table) -> list:
    return ([(r.ln_inv_r.hex(), r.x_label, r.phi.hex()) for r in table.rows]
            + [(p.ln_inv_r.hex(), p.inf_phi.hex(), p.ratio.hex())
               for p in table.per_r]
            + [table.liminf_estimate.hex()])


def _view_key(view) -> tuple:
    """A clipped view in the key form of ``_run``."""
    return (int(view.ids[0]), int(view.ids[-1]) + 1,
            view.lefts[0] if view.clamped[0] else None,
            view.rights[-1] if view.clamped[1] else None)


SCAN_HS = (LogPower(0.5), LogPower(0.5, 1, 3), LogPower(0.5, -1, 3))


@functools.lru_cache(maxsize=None)
def _delta_tree(b: float):
    depth, bits = {2.0: (6, 512), 3.0: (5, 1024)}[b]
    return build_tree(build_model(DELTA_FORM, k_max=12, b=b),
                      depth=depth, bits=bits)


class TestScanMemo:
    """``_scan`` solves the covering DP once per distinct window."""

    @pytest.mark.parametrize("kind", ["islands", "tree"])
    def test_a_scan_fills_its_rows_in_one_pass(self, kind, monkeypatch):
        # every window's run is found first, and the union of their
        # unclamped rows is computed at once: no row is filled later, one
        # view at a time
        cls = TreeAtoms if kind == "tree" else hausdorff.IslandAtoms
        calls, columns = [], cls._columns

        def counted(self, rows):
            calls.append(len(rows))
            return columns(self, rows)

        monkeypatch.setattr(cls, "_columns", counted)
        if kind == "tree":
            density_scan_tree(_delta_tree(2.0), H_HALF, range(2, 7))
        else:
            density_scan_islands(IslandFamily(q_rule_constant(2.0),
                                              k_max=12), H_HALF, [2, 5, 9])
        assert len(calls) == 1 and calls[0] > 0

    @pytest.mark.parametrize("kind", ["islands", "tree"])
    def test_one_dp_per_distinct_window(self, kind, monkeypatch):
        solved, keys = [], []
        dp, run = hausdorff.content_dp, hausdorff._run

        def counting_dp(atoms, h):
            solved.append(_view_key(atoms))
            return dp(atoms, h)

        def recording_run(atoms, lo, hi):
            key = run(atoms, lo, hi)
            keys.append(key)
            return key

        monkeypatch.setattr(hausdorff, "content_dp", counting_dp)
        monkeypatch.setattr(hausdorff, "_run", recording_run)
        if kind == "tree":
            table = density_scan_tree(_delta_tree(2.0), H_HALF, range(2, 7),
                                      keep_rows=True)
        else:
            table = density_scan_islands(IslandFamily(q_rule_log(), k_max=60),
                                         H_HALF, [9, 20, 30, 40, 57],
                                         keep_rows=True)
        distinct = set(keys) - {None}
        assert len(solved) == len(set(solved)) == len(distinct)
        assert set(solved) == distinct
        # the memo is what saves the DPs: many rows share a window
        assert len(solved) < len(table.rows)

    def test_clamped_end_value_is_part_of_the_key(self, monkeypatch):
        # both windows keep atoms 0 and 1 and cut only atom 0, at 0.0025
        # and at 0.00375: same (i0, i1), different clamped left ends
        atoms = FloatAtoms([(0.0, 0.01), (0.02, 0.03)])
        r = 0.0175
        lo_a, lo_b = 0.02 - r, 0.02125 - r
        assert hausdorff._run(atoms, lo_a, 0.02 + r)[:2] == \
            hausdorff._run(atoms, lo_b, 0.02125 + r)[:2] == (0, 2)
        calls = []
        dp = hausdorff.content_dp
        monkeypatch.setattr(hausdorff, "content_dp",
                            lambda a, h: calls.append(a.lefts[0]) or dp(a, h))
        table = hausdorff._scan(atoms, H_HALF, [(-math.log(r), r)],
                                [("a", 0.02), ("b", 0.02125)], None, True)
        assert calls == [lo_a, lo_b]
        phi_a, phi_b = (row.phi for row in table.rows)
        assert phi_a != phi_b
        assert phi_a == dp(atoms.clip(lo_a, 0.02 + r), H_HALF).value
        assert phi_b == dp(atoms.clip(lo_b, 0.02125 + r), H_HALF).value

    @pytest.mark.parametrize("rule", ["2", "3", "log"])
    @pytest.mark.parametrize("h", SCAN_HS, ids=["h", "h+", "h-"])
    def test_island_scans_match_every_window_scan(self, rule, h, monkeypatch):
        q = q_rule_log() if rule == "log" else q_rule_constant(float(rule))
        # 16 radii from k = 10: at shallow radii a window that keeps one
        # island cuts it at x + r, so windows of different radii share
        # (i0, i1) and differ in the clamped end alone
        fam = IslandFamily(q, k_max=60)
        ks = list(range(10, 58, 3))
        got = density_scan_islands(fam, h, ks, keep_rows=True)
        monkeypatch.setattr(hausdorff, "_scan", _scan_every_window)
        want = density_scan_islands(fam, h, ks, keep_rows=True)
        assert _table_hex(got) == _table_hex(want)

    @pytest.mark.parametrize("b", [2.0, 3.0])
    @pytest.mark.parametrize("h", SCAN_HS, ids=["h", "h+", "h-"])
    def test_tree_scans_match_every_window_scan(self, b, h, monkeypatch):
        tree = _delta_tree(b)
        ks = range(2, tree.depth + 1)
        got = density_scan_tree(tree, h, ks, b ** -0.5, keep_rows=True)
        monkeypatch.setattr(hausdorff, "_scan", _scan_every_window)
        want = density_scan_tree(tree, h, ks, b ** -0.5, keep_rows=True)
        assert _table_hex(got) == _table_hex(want)


def _mpf_run(atoms, lo, hi):
    """``_run`` as a bisection over the provider's own lefts and rights
    (mpf values for tree atoms)."""
    i0 = bisect.bisect_right(list(atoms.rights), lo)
    i1 = bisect.bisect_left(list(atoms.lefts), hi)
    if i0 >= i1 or not lo < hi:
        return None
    return (i0, i1, lo if atoms.lefts[i0] < lo else None,
            hi if atoms.rights[i1 - 1] > hi else None)


class TestIntegerKeys:
    """Tree atoms bisect exact int endpoint keys, not their mpf values."""

    def test_keys_are_the_endpoints_exactly(self):
        atoms = TreeAtoms(_delta_tree(3.0))
        for ends, keys in zip((atoms.lefts, atoms.rights), atoms.keys):
            assert all(isinstance(k, int) for k in keys)
            assert [mp.ldexp(k, -atoms.scale) for k in keys] == list(ends)

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_scan_windows_match_mpf_bisection(self, b, monkeypatch):
        # every window of the tree scans that TestScanMemo runs
        runs = []
        run = hausdorff._run

        def compared(atoms, lo, hi):
            key = run(atoms, lo, hi)
            runs.append((key, _mpf_run(atoms, lo, hi)))
            return key

        monkeypatch.setattr(hausdorff, "_run", compared)
        tree = _delta_tree(b)
        density_scan_tree(tree, H_HALF, range(2, tree.depth + 1))
        assert len(runs) == (tree.depth - 1) * 2 ** tree.depth
        assert all(got == want for got, want in runs)

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_scan_window_ends_are_the_mpf_operators(self, b, monkeypatch):
        # the kernel forms x - r and x + r at the tree's precision: every
        # window of the scan has the ends the mpf operators give, bit for bit
        ends = []
        window = TreeAtoms.window

        def recorded(atoms, x, r):
            ends.append((x, r, window(atoms, x, r)))
            return ends[-1][2]

        monkeypatch.setattr(TreeAtoms, "window", recorded)
        tree = _delta_tree(b)
        density_scan_tree(tree, H_HALF, range(2, tree.depth + 1))
        assert len(ends) == (tree.depth - 1) * 2 ** tree.depth
        with mp.workprec(tree.bits):
            for x, r, (lo, hi) in ends:
                assert (lo._mpf_, hi._mpf_) == ((x - r)._mpf_, (x + r)._mpf_)

    @pytest.mark.parametrize("clamp", ["left", "right", "both"])
    def test_clamped_view_windows_match_mpf_bisection(self, clamp):
        root = TreeAtoms(_memo_tree())
        L, R = root.lefts, root.rights
        with mp.workprec(root.bits):
            lo = L[2] + (R[2] - L[2]) / 3 if clamp != "right" else \
                (R[1] + L[2]) / 2
            hi = R[-3] - (R[-3] - L[-3]) / 3 if clamp != "left" else \
                (R[-3] + L[-2]) / 2
            assert root.clip(lo, hi).clamped == \
                (clamp != "right", clamp != "left")
            # the clamped ends, points between them and the ends of their
            # atoms, the root's ends, points inside atoms and gaps, both far
            # sides, floats
            ends = _window_ends(root, lambda a, b: (a + b) / 2)
            ends += [lo, hi, (lo + L[2]) / 2, (hi + R[-3]) / 2]
        with mp.workprec(root.bits + 64):
            # ends off the keys' scale, a 2^-8 step of it from an endpoint
            step = mp.ldexp(1, -root.scale - 8)
            ends += [v + d for v in (lo, hi, L[4], R[4]) for d in (step, -step)]
        ends += [float(v) for v in ends]
        for a in ends:
            for b in ends:
                assert hausdorff._run(root, a, b) == _mpf_run(root, a, b)


def _scan_runs(tree) -> dict:
    """{k: the ``_run`` of each window, by atom} of a tree scan over every
    k >= 2."""
    runs = []
    run = hausdorff._run

    def recording(atoms, lo, hi):
        runs.append(run(atoms, lo, hi))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(hausdorff, "_run", recording)
        density_scan_tree(tree, H_HALF, range(2, tree.depth + 1))
    n = 2 ** tree.depth
    return {k: runs[(k - 2) * n:(k - 1) * n] for k in range(2, tree.depth + 1)}


def _interval_run(tree, k: int, i: int) -> tuple:
    """The ``_run`` of the atoms of atom i's level-k interval, unclamped."""
    shift = tree.depth - k
    j = i >> shift
    return (j << shift, (j + 1) << shift, None, None)


class TestScanWindows:
    """Which atoms the windows of radius r_k = (7/8) delta_{k-1} take."""

    @pytest.mark.parametrize("family, kw, depth", [
        (EXAMPLE1, {"B": 1.0}, 7), (POWER_LAW, {"a": 2.0}, 6)])
    def test_window_is_its_level_k_interval(self, family, kw, depth):
        # the gap bound holds on every level: each window takes exactly the
        # atoms of x's level-k interval, no end clamped
        tree = build_tree(build_model(family, k_max=12, **kw), depth=depth,
                          bits=512)
        for k, runs in _scan_runs(tree).items():
            assert runs == [_interval_run(tree, k, i)
                            for i in range(len(runs))], k

    def test_delta_form_prefix_window_takes_two_intervals(self):
        # b = 2 fails the gap bound on levels 1 and 2: at k = 2 half the
        # windows take atoms of two level-2 intervals; from k = 3 on, each
        # window is its interval again
        tree = _delta_tree(2.0)
        by_k = _scan_runs(tree)
        for k, runs in by_k.items():
            if k > 2:
                assert runs == [_interval_run(tree, k, i)
                                for i in range(len(runs))], k
        shift = tree.depth - 2
        other = [run for i, run in enumerate(by_k[2])
                 if run != _interval_run(tree, 2, i)]
        assert len(other) == len(by_k[2]) // 2
        assert all(i0 >> shift != (i1 - 1) >> shift for i0, i1, _, _ in other)


class TestRootTest:
    def test_constant_half_is_exactly_four(self):
        rt = ep_root_test(H_HALF, range(5, 41, 5))
        for a in rt.a_values:
            assert a == pytest.approx(4.0, rel=1e-9)
        assert rt.verdict == "no"

    def test_corrected_exponent_tends_to_two(self):
        h = LogPower(1.0, -1, 3)
        rt = ep_root_test(h, [10, 20, 40])
        assert rt.verdict == "yes" and rt.analytic_limit == 2.0
        a = rt.a_values
        assert a[0] > a[1] > a[2] > 2.0
        # frozen from the scalar equation (1 - 1/ln x) x = k ln 2
        assert a[-1] == pytest.approx(2.5997, rel=1e-3)

    def test_alpha_zero_plus_eps_diverges(self):
        h = LogPower(0.0, +1, 3)
        rt = ep_root_test(h, [10, 20, 40])
        assert rt.analytic_limit == math.inf
        assert rt.a_values[-1] > rt.a_values[0]
        assert rt.verdict == "no"

    @pytest.mark.parametrize("ks", [[], range(5, 5, 5)])
    def test_no_k_raises(self, ks):
        # `hausdorff --k-max 4` asks for range(5, 5, 5); the horizon value
        # used to be read from an empty list
        with pytest.raises(ParameterError, match="at least one k"):
            ep_root_test(H_HALF, ks)

    def test_deep_horizon_approaches_two(self):
        # log-domain evaluation reaches k = 1e7 where a_k is within 5% of 2
        h = LogPower(1.0, -1, 3)
        rt = ep_root_test(h, [10 ** 7])
        assert rt.a_values[0] == pytest.approx(2.0, rel=0.05)


class TestCompare:
    def test_self_equivalent(self):
        grid = np.geomspace(30, 1e5, 25)
        rep = compare_dimension_functions(H_HALF, H_HALF, grid)
        assert rep.classification == "equivalent"

    def test_example1_eta_vs_log_measure(self):
        m = build_model(EXAMPLE1, k_max=25, B=1.0)
        h1 = EtaProfile(m)
        grid = np.geomspace(5, float(profile(m).ln_inv_delta(24)), 60)
        rep = compare_dimension_functions(h1, H_LOG, grid)
        assert rep.classification == "equivalent"

    def test_dip_family_smaller_than_log_measure(self):
        m = build_model(EXAMPLE2, k_max=38, variant="B")
        h2 = EtaProfile(m)
        p = profile(m)
        grid = [float(p.ln_inv_delta(k)) * 0.999 for k in range(4, 38)]
        rep = compare_dimension_functions(h2, H_LOG, grid)
        assert rep.classification == "h1 << h2"  # eta2 - eta0 -> inf: h2 = o(h0)
