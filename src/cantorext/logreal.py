"""Certified double logs, and the read-only log-domain bound.

``ln_double`` gives the double nearest ln x for an mpf x, deciding most logs
in double-double arithmetic with a proven error bound.

The interval parameters delta_s = gamma_1 * ... * gamma_s and products such as
delta_{s+n-1} * delta_{s+n-2}^2 * ... * delta_s^{2^{n-1}} have logarithms whose
magnitude can reach ~2^60, far outside any float exponent range.  The package
keeps them as exact Fraction sums of the profile's ln(1/delta_k)
(``gamma.Profile.ln_inv_deltas``), so integer-power products never lose the
integer part of the log and compare exactly.  A ``LogReal`` carries one such
sum to where it is printed (``ln_mag``) or compared with an mpf (``to_mpf``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp
from mpmath.libmp import (from_float, from_man_exp, from_rational, mpf_log,
                          mpf_sub, round_nearest, to_float, to_rational)

# Bits of the log ``LogReal.from_mpf`` takes: 2*53 make exp(log(x)) round
# back to x exactly for every normal double, which plain libm does not.
_CONV_PREC = 112
# Extra bits for mpf -> log conversions, on top of the exponent's bit length.
_LOG_GUARD = 16

# ln_double's short log runs only above this working precision.  At or below
# it, float(mp.log(x)) rounds twice (to the working precision, then to a
# double) and can miss the double nearest ln x that the short log returns;
# above it that first rounding moves the log by less than the short log's
# error bound, so both give the same double.
_SHORT_LOG_MIN_PREC = 128

# ln 2 = _LN2_HI + _LN2_LO + (at most 2^-86): a 32-bit head, so that
# E _LN2_HI is exact for |E| < 2^20
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
# ln 2 as one rational, within 2^-86
LN2_FRACTION = Fraction(_LN2_HI) + Fraction(_LN2_LO)
_MASK53 = (1 << 53) - 1
_TWO52 = float(1 << 52)


@functools.cache
def _ln_centres() -> tuple:
    """ln c_i = hi + lo for c_i = 1 + (i + 1/2)/128, i < 128, within 2^-106.

    Built on the first fast log, not at import."""
    rows = []
    for i in range(128):
        ln = mpf_log(from_float(1 + (i + 0.5) / 128), 160, round_nearest)
        hi = to_float(ln, rnd=round_nearest)
        rows.append((hi, to_float(mpf_sub(ln, from_float(hi), 160),
                                  rnd=round_nearest)))
    return tuple(rows)


def _rounded(hi: float, lo: float, bound: float) -> Optional[float]:
    """The double nearest to y, given |y - (hi + lo)| <= bound and |hi| >=
    |lo|; None unless y lies at least ``bound`` from every midpoint.

    TwoSum: s + err = hi + lo exactly.  A power of two has the smaller
    spacing below it, so it takes a quarter of its ulp on both sides."""
    s = hi + lo
    err = lo - (s - hi)
    ulp = math.ulp(s)
    half = ulp * (0.25 if abs(s) == ulp * _TWO52 else 0.5)
    return s if abs(err) + 2 * bound < half else None


def _ln_near_one(man: int, exp: int, bc: int,
                 below: bool) -> Optional[tuple]:
    """``_ln_short`` for x = man 2^exp within 2^-3 of 1 (``below``: x < 1).

    eps = x - 1 is exact in the mantissa.  ln(1 + eps) = 2 atanh t with t =
    eps/(2 + eps), |t| < 1/15.  One integer division gives T = t 2^k,
    2^103.9 < |T| < 2^105.1, split into doubles t1 + t0 (t0 < 2^-50.9 |t1|,
    2^-103.8 relative in all); then 2 atanh t = 2t + 2t w (1/3 + w/5 + ...
    + w^8/17), w = t1^2, with the polynomial in doubles from t1 alone.  The
    error is at most |2 t1| (2^-102.8 + 2^-50.4 w): 2^-50.9 w from leaving
    t0 out of the polynomial, 2^-52.4 w from its rounding, the series' tail
    below 2^-66 w.  The bound given is |2 t1| (2^-100 + 2^-50 w).
    """
    d = (1 << bc) - man if below else man - (1 << (bc - 1))
    if not d:
        return 0.0, 0.0, 0.0
    bl = d.bit_length()
    if bl + exp < -900:  # |ln x| near the end of the double range
        return None
    if bl > 110:
        d >>= bl - 110
        exp += bl - 110
        bl = 110
    # |eps| = d 2^exp and 2 + eps = (2^(1-exp) -+ d) 2^exp
    k = 106 - bl - exp
    t = (d << k) // ((1 << (1 - exp)) + (-d if below else d))
    t1 = math.ldexp(float(t >> 53), 53 - k)
    w = t1 * t1
    hi = t1 + t1
    lo = math.ldexp(float(t & _MASK53), 1 - k) + hi * w * (
        1 / 3 + w * (1 / 5 + w * (1 / 7 + w * (1 / 9 + w * (1 / 11 + w * (
            1 / 13 + w * (1 / 15 + w * (1 / 17))))))))
    if below:
        hi, lo = -hi, -lo
    return hi, lo, abs(hi) * (2.0 ** -100 + w * 2.0 ** -50)


def _ln_short(man: int, exp: int, bc: int) -> Optional[tuple]:
    """ln x = hi + lo within ``bound``, as (hi, lo, bound), for x = man 2^exp
    > 0 (man of bc bits, not necessarily odd); None for |E| >= 2^20 or |ln
    x| < 2^-900.

    With x = g 2^E, 1 <= g < 2, and M the top 106 bits of g (M 2^-105 <=
    g < (M + 1) 2^-105): ln g = ln c_i + 2 atanh u, c_i = 1 + (i + 1/2)/128
    the centre of g's 128th of [1, 2), u = (g - c_i)/(g + c_i), |u| <=
    2^-9.  u is taken from M to 2^-106 by one integer division (so the
    mantissa below its top 53 bits enters through u, and below 106 bits
    moves ln g by less than 2^-105), split into doubles u1 + u0; then 2
    atanh u = 2u + 2u1 w (1/3 + w/5 + w^2/7 + w^3/9), w = u1^2, the dropped
    terms below 2^-83.  E ln 2 = E _LN2_HI (exact) + E _LN2_LO.  The sums
    run in double-double (Fast2Sum: outside 2^-3 of 1, |E ln 2 + ln c_i| >
    0.12 > |2u|).  The error is at most 2^-69 + |E| 2^-82: 2^-70 from the
    tail in u1 alone, |E| 2^-82.2 from _LN2_LO and the low sums.  Within
    2^-3 of 1, where that is not small against ln x, see ``_ln_near_one``.
    """
    E = exp + bc - 1
    if E == 0 and man - (1 << (bc - 1)) << 3 < 1 << (bc - 1):
        return _ln_near_one(man, exp, bc, False)
    if E == -1 and (1 << bc) - man << 3 < 1 << bc:
        return _ln_near_one(man, exp, bc, True)
    if not -(1 << 20) < E < 1 << 20:
        return None
    M = man >> bc - 106 if bc >= 106 else man << 106 - bc
    i = (M >> 98) - 128
    C = (2 * i + 257) << 97                    # c_i 2^105
    u = ((M - C) << 106) // (M + C)
    u1 = float(u >> 53) * 2.0 ** -53
    w = u1 * u1
    u2 = u1 + u1
    c_hi, c_lo = _ln_centres()[i]
    A = E * _LN2_HI
    a = A + c_hi
    b = a + u2
    lo = ((c_hi - (a - A)) + (u2 - (b - a)) + (E * _LN2_LO + c_lo)
          + (float(u & _MASK53) * 2.0 ** -105
             + u2 * w * (1 / 3 + w * (1 / 5 + w * (1 / 7 + w * (1 / 9))))))
    return b, lo, 2.0 ** -69 + abs(E) * 2.0 ** -82


def ln_double(x) -> float:
    """``float(mp.log(x))`` for an mpf x at the working precision p (an x of
    more than p bits taken as rounded to p bits).

    For x > 0 this is ``ln_double_fixed`` of x's mantissa and exponent: a
    double-double log (``_ln_short``; Tang's table method, Ziv's rounding
    test) with a proven error bound B: 2^-69 + |E| 2^-82 for x = g 2^E, and
    |ln x| (2^-100 + 2^-50 eps^2 / 4) within eps = x - 1 of 1, |eps| <
    2^-3.  Its double is returned only when the TwoSum error of the final
    sum leaves ln x at least B from every midpoint between two doubles: the
    double nearest ln x, which float(mp.log(x)) also gives there (see
    ``_SHORT_LOG_MIN_PREC``).  Elsewhere, at p <= 128 bits and far
    outside the normal double range, the log at the working precision runs.
    """
    sign, man, exp, _ = x._mpf_
    if man and not sign:
        return ln_double_fixed(man, -exp)
    return float(mp.log(x))


def ln_double_fixed(d: int, scale: int) -> float:
    """``ln_double`` of the mpf that d 2^-scale (d > 0) rounds to at the
    working precision p, without making that mpf where the short log
    decides: it runs on d itself, and rounding to p bits moves the log by
    less than 2^(1-p), which is added to its bound.
    """
    prec = mp.mp.prec
    if prec > _SHORT_LOG_MIN_PREC:
        short = _ln_short(d, -scale, d.bit_length())
        if short is not None:
            hi, lo, bound = short
            ln = _rounded(hi, lo, bound + math.ldexp(1.0, 1 - prec))
            if ln is not None:
                return ln
    return float(mp.log(mp.make_mpf(from_man_exp(d, -scale, prec,
                                                 round_nearest))))


@dataclass(frozen=True, slots=True)
class LogReal:
    """A positive real number given by its natural log, an exact Fraction."""

    ln: Fraction

    @classmethod
    def from_mpf(cls, x) -> "LogReal":
        """Conversion from an mpmath value of any precision; ValueError for a
        value that is not positive and finite.

        With x = m 2^e, 1/2 <= m < 1 (exact), ln x = ln m + e ln 2 is formed
        with enough bits that its absolute error stays near
        2^-(_CONV_PREC + _LOG_GUARD) whatever the exponent.  The package no
        longer calls it; the benchmark's tracer still wraps this binding,
        until the program records its own spans (ROADMAP item 4).
        """
        if not 0 < x < mp.inf:
            raise ValueError(f"cannot represent {x!r}")
        man, exp = mp.frexp(x)
        with mp.workprec(_CONV_PREC + _LOG_GUARD + exp.bit_length()):
            ln = mp.log(man) + exp * mp.ln2
        return cls(Fraction(*to_rational(ln._mpf_)))

    @property
    def ln_mag(self) -> float:
        """ln x as the nearest double; infinite beyond the double range."""
        try:
            return float(self.ln)
        except OverflowError:
            return math.inf if self.ln > 0 else -math.inf

    def to_mpf(self):
        """x at the working precision: the exp of ln rounded once to it."""
        return mp.exp(mp.make_mpf(from_rational(
            self.ln.numerator, self.ln.denominator, mp.mp.prec,
            round_nearest)))
