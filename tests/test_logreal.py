import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from cantorext import hausdorff, logreal
from cantorext.dimension import EtaProfile, LogPower
from cantorext.gamma import DELTA_FORM, EXAMPLE1, EXAMPLE2, build_model, profile
from cantorext.geometry import build_tree
from cantorext.hausdorff import TreeAtoms, content_dp, density_scan_tree
from cantorext.logreal import LogReal, ln_double, ln_double_fixed


class TestLogMulPow:
    """ln of a product of powers, as the package forms it: an exact Fraction
    sum of the profile's logs, rounded once by ``ln_mag``."""

    def test_huge_exponents_keep_integer_part(self):
        e = 2 ** 60
        ln = Fraction(-0.75) * e
        assert ln == -(3 * 2 ** 60) // 4
        assert LogReal(ln).ln_mag == -0.75 * 2.0 ** 60
        # a profile log with a fraction part: its 2^60-th power keeps every
        # bit of the log's integer part, which float(L) * e would not
        L = profile(build_model(EXAMPLE2, k_max=20)).ln_inv_deltas[20]
        assert L.denominator > 1
        with mp.workprec(300):
            ref = mp.mpf(L.numerator) / L.denominator * e
            assert math.floor(L * e) == int(mp.floor(ref))
        assert math.floor(L * e) != math.floor(float(L) * e)


class TestComparisons:
    def test_huge_hi_comparison_no_overflow(self):
        a = LogReal(Fraction(10 ** 400) + Fraction(1, 10))
        b = LogReal(Fraction(10 ** 400) + Fraction(2, 10))
        assert a.ln < b.ln
        assert a.ln_mag == math.inf  # float view saturates, comparison stays exact
        assert LogReal(-b.ln).ln_mag == -math.inf


class TestRoundTrip:
    # to_mpf at 112 bits, rounded to a double, inverts from_mpf on doubles
    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_to_of_from_is_identity(self, x):
        with mp.workprec(112):
            assert float(LogReal.from_mpf(mp.mpf(x)).to_mpf()) == x

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_from_of_to_fixes_image(self, x):
        # on LogReals that came from doubles, from(to(.)) reproduces them
        with mp.workprec(112):
            v = LogReal.from_mpf(mp.mpf(x))
            assert LogReal.from_mpf(mp.mpf(float(v.to_mpf()))) == v


@pytest.mark.parametrize("bad", [mp.mpf(0), mp.mpf(-2.5), mp.inf, mp.nan],
                         ids=lambda bad: f"from_mpf-{bad}")
def test_constructors_reject_non_positive_and_non_finite(bad):
    with pytest.raises(ValueError):
        LogReal.from_mpf(bad)


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(min_value=512, max_value=8192),
       exp=st.integers(min_value=-2 ** 13, max_value=2 ** 13),
       rnd=st.randoms(use_true_random=False))
@example(bits=512, exp=1, rnd=None)                      # x = 1, ln x = 0
@example(bits=8192, exp=0, rnd=None)                     # x = 1/2
def test_from_mpf_matches_full_precision_log(bits, exp, rnd):
    # a random full-width mantissa (or a power of two): 2^(exp-1) <= x < 2^exp
    man = 1 << (bits - 1)
    if rnd is not None:
        man |= rnd.getrandbits(bits - 1)
    with mp.workprec(bits):
        x = mp.mpf((man, exp - bits))
        fast = LogReal.from_mpf(x)
        ref = mp.log(x)  # the log at the value's own precision
        assert abs(mp.mpf(fast.ln.numerator) / fast.ln.denominator - ref) \
            <= 2.0 ** -100
        assert abs(fast.to_mpf() / x - 1) <= 2.0 ** -100


@pytest.fixture
def full_logs(monkeypatch):
    """Counts the calls of ``mp.log``: ln_double's full-precision path."""
    calls = []
    log = mp.log
    monkeypatch.setattr(mp, "log", lambda x: calls.append(x) or log(x))
    return calls


@pytest.mark.parametrize("family,kw,depth,bits", [
    (EXAMPLE1, {"B": 1.0}, 5, 2048),
    (DELTA_FORM, {"b": 3.0}, 5, 1280),
])
def test_ln_double_matches_full_log_on_tree_spans(family, kw, depth, bits):
    atoms = build_tree(build_model(family, k_max=12, **kw), depth=depth,
                       bits=bits).atoms()
    with mp.workprec(bits):
        for j, right in enumerate(atoms):
            for left in atoms[:j + 1]:
                span = right.right - left.left
                assert ln_double(span) == float(mp.log(span))


@pytest.fixture
def mpf_logs(monkeypatch):
    """Counts the calls of ``logreal.mpf_log`` once the short log's table,
    which is built with it, exists."""
    logreal._ln_centres()
    calls = []
    mpf_log = logreal.mpf_log
    monkeypatch.setattr(logreal, "mpf_log",
                        lambda *a: calls.append(a) or mpf_log(*a))
    return calls


@pytest.mark.parametrize("low", [0.75, -3.0, 5.5, 1e-3])
@pytest.mark.parametrize("nudge", [0, 1, -1])
def test_ln_double_falls_back_next_to_a_midpoint(low, nudge, full_logs,
                                                 mpf_logs):
    # ln x within 2^-1000 of the exact midpoint of two adjacent doubles: no
    # short log can tell which of them the full log rounds to, so each
    # entry takes the working-precision log once, and nothing between
    with mp.workprec(1024):
        mid = (mp.mpf(low) + mp.mpf(math.nextafter(low, math.inf))) / 2
        x = mp.exp(mid) * (1 + nudge * mp.mpf(2) ** -1000)
        _, man, exp, _ = x._mpf_
        got = ln_double(x), ln_double_fixed(man, -exp)
        assert len(full_logs) == 2 and mpf_logs == []
        assert got[0] == got[1] == float(mp.log(x))


@pytest.mark.parametrize("prec", [53, 100, 128])
def test_ln_double_takes_the_full_log_at_128_bits_or_less(prec, full_logs):
    with mp.workprec(prec):
        x = mp.mpf(3) / 7
        got = ln_double(x)
        assert len(full_logs) == 1
        assert got == float(mp.log(x))


@pytest.mark.parametrize("bits", [256, 512, 8192])
def test_ln_double_just_above_a_quarter(bits, full_logs, mpf_logs):
    # mpf_log at 128 bits takes 1/4 + 2^(56 - bits) for 1 + 2^(58 - bits);
    # the short log does not, and decides it
    with mp.workprec(bits):
        x = mp.mpf(1) / 4 + mp.mpf(2) ** (56 - bits)
        got = ln_double(x)
        assert full_logs == [] and mpf_logs == []
        assert got == float(mp.log(x)) == pytest.approx(-math.log(4))


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(min_value=129, max_value=4096),
       exp=st.integers(min_value=-2 ** 12, max_value=2 ** 12),
       rnd=st.randoms(use_true_random=False))
@example(bits=512, exp=1, rnd=None)                      # x = 1, ln x = 0
def test_ln_double_matches_full_log(bits, exp, rnd):
    man = 1 << (bits - 1)
    if rnd is not None:
        man |= rnd.getrandbits(bits - 1)
    with mp.workprec(bits):
        x = mp.mpf((man, exp - bits))
        assert ln_double(x) == float(mp.log(x))


def test_short_log_constants():
    # the error bounds of the short log rest on these: E ln 2 exact in its
    # head for |E| < 2^20, and the table within 2^-106
    with mp.workprec(300):
        head = logreal._LN2_HI * 2 ** 32
        assert head == int(head) and int(head).bit_length() == 32
        assert abs(mp.log(2) - logreal._LN2_HI - logreal._LN2_LO) <= \
            mp.mpf(2) ** -86
        for i, (hi, lo) in enumerate(logreal._ln_centres()):
            assert abs(mp.log(1 + mp.mpf(2 * i + 1) / 256) - hi - lo) <= \
                mp.mpf(2) ** -106


@st.composite
def _short_log_inputs(draw):
    """(bits, man, exp): any x, x within 2^-3 of 1 on either side, or x next
    to a power of two (a mantissa 1 + 2^-k or 2 - 2^-k)."""
    bits = draw(st.integers(min_value=129, max_value=8192))
    kind = draw(st.sampled_from(["any", "above 1", "below 1", "power of 2"]))
    rnd = draw(st.randoms(use_true_random=False))
    top = 1 << (bits - 1)
    if kind == "any":
        man = top | rnd.getrandbits(bits - 1)
        return bits, man, draw(st.integers(-2 ** 12, 2 ** 12)) - bits
    if kind == "power of 2":
        low = rnd.getrandbits(draw(st.integers(1, bits - 1))) | 1
        man = top + low if draw(st.booleans()) else 2 * top - low
        return bits, man, draw(st.integers(-2 ** 12, 2 ** 12)) - bits
    # |x - 1| = 2^-shift (1 + random), so eps keeps bits - shift bits
    shift = draw(st.integers(min_value=3, max_value=bits - 1))
    eps = rnd.getrandbits(bits - shift) | 1 << (bits - shift - 1)
    if kind == "above 1":
        return bits, top + (eps >> 1), 1 - bits
    return bits, 2 * top - eps, -bits


@settings(max_examples=300, deadline=None)
@given(_short_log_inputs())
@example((512, 1, 0))                                    # x = 1
@example((129, (1 << 128) + (1 << 125), -128))           # x = 1 + 2^-3
@example((129, (1 << 129) - (1 << 126), -129))           # x = 1 - 2^-3
def test_short_log_matches_full_log_within_its_bound(case):
    # the double-double log is within its stated bound of the exact log,
    # and ln_double's double is the one the working-precision log rounds to
    bits, man, exp = case
    with mp.workprec(bits):
        x = mp.mpf((man, exp))
        want = float(mp.log(x))
        assert ln_double(x).hex() == want.hex()
    _, man, exp, bc = x._mpf_
    short = logreal._ln_short(man, exp, bc)
    if short is None:  # |ln x| < 2^-900, next to the end of the double range
        assert abs(want) < 2.0 ** -899
        return
    hi, lo, bound = short
    with mp.workprec(bits + 200):
        assert abs(mp.log(x) - hi - lo) <= bound


@settings(max_examples=200, deadline=None)
@given(prec=st.integers(min_value=129, max_value=2048),
       extra=st.integers(min_value=-64, max_value=600),
       near=st.sampled_from([None, 1, -1]),
       shift=st.integers(min_value=3, max_value=2000),
       exp=st.integers(min_value=-2 ** 12, max_value=2 ** 12),
       rnd=st.randoms(use_true_random=False))
def test_fixed_point_log_matches_rounded_mpf(prec, extra, near, shift, exp,
                                             rnd):
    # d carries up to 600 bits more than the working precision: the short
    # log runs on d itself, ln_double on the mpf that d 2^-scale rounds to
    bits = max(prec + extra, 2)
    if near is None:
        d, scale = rnd.getrandbits(bits) | 1 << (bits - 1), bits - exp
    else:  # d 2^-bits = 1 + near 2^-shift (1 + random), its tail rounded off
        shift = min(shift, bits - 2)
        eps = rnd.getrandbits(bits - shift - 1) | 1 << (bits - shift - 1)
        d, scale = (1 << bits) + near * eps, bits
    with mp.workprec(prec):
        x = mp.mpf((d, -scale))
        assert ln_double_fixed(d, scale).hex() == ln_double(x).hex() \
            == float(mp.log(x)).hex()


def _density_tree_operations():
    """The density workload's three tree operations at their nominal sizes:
    the delta_form scans b = 2 (depth 7, 1024 bits) and b = 3 (depth 6,
    1280 bits), and the EXAMPLE1 content of a depth-7, 512-bit tree."""
    for b, depth, bits in ((2.0, 7, 1024), (3.0, 6, 1280)):
        tree = build_tree(build_model(DELTA_FORM, k_max=12, b=b), depth=depth,
                          bits=bits)
        density_scan_tree(tree, LogPower(0.5), range(2, depth + 1))
    model = build_model(EXAMPLE1, k_max=14, B=1.0)
    content_dp(TreeAtoms(build_tree(model, depth=7, bits=512)),
               EtaProfile(model))


def test_short_log_decides_most_tree_spans(monkeypatch):
    # a short log that always fell through would still give the right
    # doubles; only the share of spans it decides shows that it works
    logreal._ln_centres()  # its table is built with mpf_log, once
    logs, spans, slow = [], [], []

    def counted(ln):
        def call(*args):
            before = len(logs)
            out = ln(*args)
            spans.append(args)
            if len(logs) > before:
                slow.append(args)
            return out
        return call

    for name in ("ln_double", "ln_double_fixed"):
        monkeypatch.setattr(hausdorff, name, counted(getattr(hausdorff, name)))
    mpf_log, log = logreal.mpf_log, mp.log
    monkeypatch.setattr(logreal, "mpf_log",
                        lambda *a: logs.append(a) or mpf_log(*a))
    monkeypatch.setattr(mp, "log", lambda x: logs.append(x) or log(x))
    _density_tree_operations()
    assert len(spans) > 12000
    assert len(slow) <= 0.05 * len(spans)
