"""Split-logarithm scalars for doubly-exponentially small positive quantities.

The interval parameters delta_s = gamma_1 * ... * gamma_s and products such as
delta_{s+n-1} * delta_{s+n-2}^2 * ... * delta_s^{2^{n-1}} have logarithms whose
magnitude can reach ~2^60, far outside any float exponent range.  A LogReal
stores ln x of a positive x split as an exact integer part ``hi`` plus a small
float remainder ``lo``, so integer-power products never lose the integer part
of the log and remain exactly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import mpmath as mp
from mpmath.libmp import mpf_log, round_nearest, to_float

# Bits used for float <-> log conversions.  2*53 bits make exp(log(x)) round
# back to x exactly for every normal double, which plain libm does not.
_CONV_PREC = 112
# Extra bits for mpf -> log conversions, on top of the exponent's bit length.
_LOG_GUARD = 16

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
    """A positive real number stored as ``ln x = hi + lo``.

    ``hi`` is an exact (unbounded) integer and ``|lo| <= 0.5`` after
    normalization.  Every constructor raises ValueError for a value that is
    not positive and finite (for a log: not finite).
    """

    hi: int = 0
    lo: float = 0.0

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> "LogReal":
        """Exact-ish conversion: ``to_float(from_float(x)) == x`` for normal doubles."""
        x = float(x)
        if not 0.0 < x < math.inf:
            raise ValueError(f"cannot represent {x!r}")
        with mp.workprec(_CONV_PREC):
            ln = mp.log(mp.mpf(x))
            hi = int(mp.floor(ln))
            lo = float(ln - hi)
        return cls.from_parts(hi, lo)

    @classmethod
    def from_ln(cls, ln_mag: float) -> "LogReal":
        """Value with the given natural log (a plain double)."""
        return cls.from_parts(0, float(ln_mag))

    @classmethod
    def from_parts(cls, hi: int, lo: float) -> "LogReal":
        return cls(*_normalize(hi, lo))

    @classmethod
    def from_mpf(cls, x) -> "LogReal":
        """Conversion from an mpmath value of any precision.

        Only an integer and a double are kept, so the log need not run at the
        value's precision: with x = m 2^e, 1/2 <= m < 1 (exact),
        ln x = ln m + e ln 2 is formed with enough bits that its absolute
        error stays near 2^-(_CONV_PREC + _LOG_GUARD) whatever the exponent.
        """
        if not 0 < x < mp.inf:
            raise ValueError(f"cannot represent {x!r}")
        man, exp = mp.frexp(x)
        with mp.workprec(_CONV_PREC + _LOG_GUARD + exp.bit_length()):
            ln = mp.log(man) + exp * mp.ln2
            hi = int(mp.floor(ln))
            lo = float(ln - hi)
        return cls.from_parts(hi, lo)

    # -- accessors ---------------------------------------------------------

    @property
    def ln_mag(self) -> float:
        """ln x as a double (rounds; infinite when hi exceeds the float range)."""
        try:
            return float(self.hi) + self.lo
        except OverflowError:
            return math.inf if self.hi > 0 else -math.inf

    def to_float(self) -> float:
        with mp.workprec(_CONV_PREC):
            return float(self.to_mpf())

    def to_mpf(self):
        """mpmath value at the current working precision (may still under/overflow mpf exponents only astronomically)."""
        return mp.exp(mp.mpf(self.hi) + mp.mpf(self.lo))

    # -- arithmetic --------------------------------------------------------

    def mul(self, other: "LogReal") -> "LogReal":
        return LogReal.from_parts(self.hi + other.hi,
                                  math.fsum((self.lo, other.lo)))

    def pow(self, e: int) -> "LogReal":
        if e != int(e):
            raise ValueError("pow exponent must be an integer")
        e = int(e)
        if e == 0:
            return ONE  # empty-product convention
        hi = self.hi * e
        if abs(e) == 1:
            return LogReal.from_parts(hi, self.lo * e)
        # exact dyadic product keeps the integer part of the log exact
        fr = Fraction(self.lo) * e
        q = math.floor(fr)
        return LogReal.from_parts(hi + q, float(fr - q))

    def inv(self) -> "LogReal":
        return self.pow(-1)

    # -- comparisons -------------------------------------------------------

    def _cmp(self, other: "LogReal") -> int:
        d_hi = self.hi - other.hi
        if d_hi >= 2:
            return 1
        if d_hi <= -2:
            return -1
        d = d_hi + (self.lo - other.lo)
        return (d > 0) - (d < 0)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self):
        return f"LogReal(exp({self.hi}{self.lo:+.17g}))"


ONE = LogReal(0, 0.0)


def log_mul_pow(terms: Iterable[tuple[LogReal, int]]) -> LogReal:
    """Exact product of powers in the log domain: prod_i t_i ** e_i.

    hi parts accumulate in exact integer arithmetic and lo parts in exact
    dyadic rationals (floats are dyadic), so the result is rounded exactly
    once and is invariant under permutation of the terms.  An empty list is
    the empty product, 1.
    """
    hi = 0
    lo_sum = Fraction(0)
    for t, e in terms:
        e = int(e)
        hi += t.hi * e
        lo_sum += Fraction(t.lo) * e
    q = math.floor(lo_sum)
    return LogReal.from_parts(hi + q, float(lo_sum - q))
