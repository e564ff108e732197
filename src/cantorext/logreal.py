"""Sign + split-logarithm scalars for doubly-exponentially small quantities.

The interval parameters delta_s = gamma_1 * ... * gamma_s and products such as
delta_{s+n-1} * delta_{s+n-2}^2 * ... * delta_s^{2^{n-1}} have logarithms whose
magnitude can reach ~2^60, far outside any float exponent range.  A LogReal
stores sign and ln|x| split as an exact integer part ``hi`` plus a small float
remainder ``lo``, so integer-power products never lose the integer part of the
log and remain exactly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath as mp
from mpmath.libmp import mpf_log, round_nearest, to_float

from .errors import CancellationError

# Bits used for float <-> log conversions.  2*53 bits make exp(log(x)) round
# back to x exactly for every normal double, which plain libm does not.
_CONV_PREC = 112
# Extra bits for mpf -> log conversions, on top of the exponent's bit length.
_LOG_GUARD = 16

_CANCEL_FLOOR = 2.0 ** -40

# ln_double's short log: its bits, and how many of its last units around a
# midpoint between two doubles send it to the full-precision log
_LN_PREC = _CONV_PREC + _LOG_GUARD
_LN_TAIL = _LN_PREC - 53
_LN_SLACK = 1 << 10
# mpf_log's own working precision for a _LN_PREC-bit result
_LN_WP = _LN_PREC + 20


def ln_double(x) -> float:
    """``float(mp.log(x))`` for a positive mpf x at the working precision.

    The log is taken at 128 bits and rounded to the nearest double.  That is
    the double the working-precision log rounds to unless the exact log lies
    within a few units of the 128-bit result's last place of a midpoint
    between two doubles; within 2^10 units (or at a working precision of 128
    bits or less, or far outside the normal double range) the log runs at the
    working precision, as ``float(mp.log(x))`` would.
    """
    _, man, exp, bc = x._mpf_
    # mpf_log takes an x in [1/4, 1/2) for one near 1 once x - 1/4 cancels
    # more than its working precision: it logs 1/4 + 2^-200 as about 2^-198
    near_quarter = (exp + bc == -1 and bc > _LN_WP + 1
                    and man >> (bc - _LN_WP - 1) == 1 << _LN_WP)
    if mp.mp.prec > _LN_PREC and not near_quarter:
        ln = mpf_log(x._mpf_, _LN_PREC, round_nearest)
        _, man, exp, bc = ln
        tail = (man << (_LN_PREC - bc)) & ((1 << _LN_TAIL) - 1)
        if (abs(tail - (1 << (_LN_TAIL - 1))) > _LN_SLACK
                and -1000 < exp + bc < 1000):
            return to_float(ln, rnd=round_nearest)
    return float(mp.log(x))


def _normalize(hi: int, lo: float) -> tuple[int, float]:
    if not math.isfinite(lo):
        raise ValueError(f"non-finite log magnitude: {lo!r}")
    q = round(lo)
    return hi + q, lo - q


@dataclass(frozen=True, slots=True)
class LogReal:
    """A real number stored as ``sign`` and ``ln|x| = hi + lo``.

    ``hi`` is an exact (unbounded) integer and ``|lo| <= 0.5`` after
    normalization.  ``sign == 0`` encodes exactly zero; ``hi``/``lo`` are then
    meaningless and kept at 0.
    """

    sign: int
    hi: int = 0
    lo: float = 0.0

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> "LogReal":
        """Exact-ish conversion: ``to_float(from_float(x)) == x`` for normal doubles."""
        x = float(x)
        if x == 0.0:
            return _ZERO
        if not math.isfinite(x):
            raise ValueError(f"cannot represent {x!r}")
        with mp.workprec(_CONV_PREC):
            ln = mp.log(abs(mp.mpf(x)))
            hi = int(mp.floor(ln))
            lo = float(ln - hi)
        hi, lo = _normalize(hi, lo)
        return cls(1 if x > 0 else -1, hi, lo)

    @classmethod
    def from_ln(cls, ln_mag: float, sign: int = 1) -> "LogReal":
        """Value with the given natural-log magnitude (a plain double)."""
        if sign == 0:
            return _ZERO
        hi, lo = _normalize(0, float(ln_mag))
        return cls(sign, hi, lo)

    @classmethod
    def from_parts(cls, sign: int, hi: int, lo: float) -> "LogReal":
        if sign == 0:
            return _ZERO
        hi, lo = _normalize(hi, lo)
        return cls(sign, hi, lo)

    @classmethod
    def from_ln_scaled(cls, base: float, scale: int, sign: int = 1) -> "LogReal":
        """Value with ln|x| = base * scale, computed without losing the integer part.

        ``base * scale`` is split exactly: the float ``base`` is decomposed as an
        integer plus a sub-unit remainder before multiplying by the (possibly
        huge) integer ``scale``.
        """
        if sign == 0:
            return _ZERO
        b_int = math.floor(base)
        b_frac = base - b_int
        hi = b_int * scale
        fr = Fraction(b_frac) * scale  # exact dyadic product
        q = math.floor(fr)
        hi += q
        lo = float(fr - q)
        hi, lo = _normalize(hi, lo)
        return cls(sign, hi, lo)

    @classmethod
    def from_mpf(cls, x) -> "LogReal":
        """Conversion from an mpmath value of any precision.

        Only an integer and a double are kept, so the log need not run at the
        value's precision: with |x| = m 2^e, 1/2 <= m < 1 (exact),
        ln|x| = ln m + e ln 2 is formed with enough bits that its absolute
        error stays near 2^-(_CONV_PREC + _LOG_GUARD) whatever the exponent.
        """
        if x == 0:
            return _ZERO
        man, exp = mp.frexp(x)
        with mp.workprec(_CONV_PREC + _LOG_GUARD + exp.bit_length()):
            ln = mp.log(abs(man)) + exp * mp.ln2
            hi = int(mp.floor(ln))
            lo = float(ln - hi)
        hi, lo = _normalize(hi, lo)
        return cls(1 if x > 0 else -1, hi, lo)

    # -- accessors ---------------------------------------------------------

    @property
    def ln_mag(self) -> float:
        """ln|x| as a double (rounds; infinite when hi exceeds the float range)."""
        if self.sign == 0:
            raise ValueError("ln_mag of zero is undefined")
        try:
            return float(self.hi) + self.lo
        except OverflowError:
            return math.inf if self.hi > 0 else -math.inf

    def ln_scaled(self, pow2: int) -> float:
        """ln|x| * 2**pow2 as a double, exact in the integer part.

        Needed for weights like B_k = 2^{-k-1} * ln(1/delta_k) when ln(1/delta_k)
        itself overflows a double.
        """
        if self.sign == 0:
            raise ValueError("ln_mag of zero is undefined")
        if pow2 >= 0:
            hi_part = float(Fraction(self.hi) * (1 << pow2))
        else:
            hi_part = float(Fraction(self.hi) / (1 << -pow2))
        return hi_part + math.ldexp(self.lo, pow2)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        with mp.workprec(_CONV_PREC):
            v = mp.exp(mp.mpf(self.hi) + mp.mpf(self.lo))
        return self.sign * float(v)

    def to_mpf(self):
        """mpmath value at the current working precision (may still under/overflow mpf exponents only astronomically)."""
        if self.sign == 0:
            return mp.mpf(0)
        return self.sign * mp.exp(mp.mpf(self.hi) + mp.mpf(self.lo))

    # -- arithmetic --------------------------------------------------------

    def mul(self, other: "LogReal") -> "LogReal":
        if self.sign == 0 or other.sign == 0:
            return _ZERO
        return LogReal.from_parts(self.sign * other.sign, self.hi + other.hi,
                                  math.fsum((self.lo, other.lo)))

    __mul__ = mul

    def div(self, other: "LogReal") -> "LogReal":
        if other.sign == 0:
            raise ZeroDivisionError("division by LogReal zero")
        if self.sign == 0:
            return _ZERO
        return LogReal.from_parts(self.sign * other.sign, self.hi - other.hi,
                                  self.lo - other.lo)

    __truediv__ = div

    def pow(self, e: int) -> "LogReal":
        if e != int(e):
            raise ValueError("pow exponent must be an integer")
        e = int(e)
        if e == 0:
            return _ONE  # empty-product convention
        if self.sign == 0:
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return _ZERO
        sign = self.sign if e % 2 else 1
        hi = self.hi * e
        if abs(e) == 1:
            return LogReal.from_parts(sign, hi, self.lo * e)
        # exact dyadic product keeps the integer part of the log exact
        fr = Fraction(self.lo) * e
        q = math.floor(fr)
        return LogReal.from_parts(sign, hi + q, float(fr - q))

    __pow__ = pow

    def inv(self) -> "LogReal":
        return self.pow(-1)

    def __neg__(self) -> "LogReal":
        if self.sign == 0:
            return _ZERO
        return LogReal(-self.sign, self.hi, self.lo)

    def abs(self) -> "LogReal":
        if self.sign == 0:
            return _ZERO
        return LogReal(1, self.hi, self.lo)

    # -- comparisons -------------------------------------------------------

    def _mag_cmp(self, other: "LogReal") -> int:
        """-1/0/+1 comparison of |self| vs |other| (both nonzero)."""
        d_hi = self.hi - other.hi
        if d_hi >= 2:
            return 1
        if d_hi <= -2:
            return -1
        d = d_hi + (self.lo - other.lo)
        return (d > 0) - (d < 0)

    def _cmp(self, other: "LogReal") -> int:
        if self.sign != other.sign:
            return (self.sign > other.sign) - (self.sign < other.sign)
        if self.sign == 0:
            return 0
        m = self._mag_cmp(other)
        return m if self.sign > 0 else -m

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self):
        if self.sign == 0:
            return "LogReal(0)"
        s = "-" if self.sign < 0 else ""
        return f"LogReal({s}exp({self.hi}{self.lo:+.17g}))"


_ZERO = LogReal(0, 0, 0.0)
_ONE = LogReal(1, 0, 0.0)

ZERO = _ZERO
ONE = _ONE


def log_mul_pow(terms: Iterable[tuple[LogReal, int]]) -> LogReal:
    """Exact product of powers in the log domain: prod_i t_i ** e_i.

    Signs multiply with exponent parity; hi parts accumulate in exact integer
    arithmetic and lo parts in exact dyadic rationals (floats are dyadic), so
    the result is rounded exactly once and is invariant under permutation of
    the terms.  An empty list is the empty product, 1.
    """
    hi = 0
    lo_sum = Fraction(0)
    neg = False
    for t, e in terms:
        e = int(e)
        if e == 0:
            continue
        if t.sign == 0:
            if e < 0:
                raise ZeroDivisionError("zero factor with negative exponent")
            return _ZERO
        if t.sign < 0 and e % 2:
            neg = not neg
        hi += t.hi * e
        lo_sum += Fraction(t.lo) * e
    q = math.floor(lo_sum)
    return LogReal.from_parts(-1 if neg else 1, hi + q, float(lo_sum - q))


def log_sum(terms: Sequence[LogReal]) -> LogReal:
    """Sum in the log domain, pivoted at the largest magnitude.

    Relative error is a few machine epsilons per term.  Mixed-sign input whose
    true sum cancels below 2^-40 of the dominant term raises CancellationError:
    the result would carry no certified digits.
    """
    nonzero = [t for t in terms if t.sign != 0]
    if not nonzero:
        return _ZERO
    if len(nonzero) == 1:
        return nonzero[0]
    pivot = nonzero[0]
    for t in nonzero[1:]:
        if t._mag_cmp(pivot) > 0:
            pivot = t
    mixed = any(t.sign != nonzero[0].sign for t in nonzero)
    parts = []
    for t in nonzero:
        d_hi = t.hi - pivot.hi
        d = d_hi + (t.lo - pivot.lo) if d_hi > -800 else -math.inf
        parts.append(t.sign * math.exp(d) if d > -800 else 0.0)
    total = math.fsum(parts)
    if total == 0.0 or (mixed and abs(total) < _CANCEL_FLOOR):
        raise CancellationError(
            f"log-domain sum cancelled to {total!r} of the pivot term")
    return LogReal.from_parts(1 if total > 0 else -1, pivot.hi,
                              pivot.lo + math.log(abs(total)))
