"""Correctly rounded arithmetic on raw mpf tuples, in Python integers.

mpmath rounds subtraction, addition, multiplication and division at a
given precision correctly, to nearest with ties to even, and a correctly
rounded result is unique (Brent and Zimmermann, Modern Computer Arithmetic,
2010, 3.1).  These functions return mpmath's raw mpf (sign, odd mantissa,
exponent, bit count) for the same operands and precision, bit for bit, so
only the cost changes: one exact integer operation and one rounding, with
no bitcount by logarithm and no generic normalisation.

Operands must be finite, zero among them.  No caller has an inf or nan:
``NewtonTable.grow`` checks every node and value where it enters a table,
and an mpf exponent does not overflow.  (Before that check, inf and nan
operands went to mpmath.)  mpf_add's far-offset shortcut, which is not
correctly rounded for an operand longer than the precision, is mpmath's
own formula, written out.  The Newton tables (which write the kernel and
a division out in their loop), W's sums (``extension``) and the tree
scans' window ends (``hausdorff``) run on them.
"""

from __future__ import annotations

import math

from mpmath.libmp import fzero


def _mag(t) -> float:
    """m with 2^(m-1) <= |t| < 2^m for a finite nonzero raw mpf t; -inf for
    zero."""
    return t[2] + t[3] if t[1] else -math.inf


def _rounded(sign, man, exp, prec: int):
    """The raw mpf of (-1)^sign man 2^exp, man > 0, rounded once to prec
    bits, to nearest with ties to even, odd mantissa: mpmath's normalize."""
    n = man.bit_length() - prec
    if n > 0:
        t = man >> (n - 1)
        if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
    if not man & 1:
        z = (man & -man).bit_length() - 1
        man >>= z
        exp += z
    return sign, man, exp, man.bit_length()


def _add(a, b, prec: int, neg: int = 0):
    """mpf_add(a, b, prec, round_nearest) and, with ``neg`` = 1,
    mpf_sub(a, b, ...), bit for bit: for finite nonzero a and b the exact
    sum of the aligned mantissas, rounded once; a zero operand leaves the
    other one rounded.  Where the exponents differ by more than 100 and the
    leading bits by more than prec + 4, mpf_add replaces the smaller
    operand by a one-unit nudge prec + 4 bits below the larger one's last
    bit, and so does this."""
    asign, aman, aexp, abc = a
    bsign, bman, bexp, bbc = b
    bsign ^= neg
    if not bman:
        return a if abc <= prec else _rounded(asign, aman, aexp, prec)
    if not aman:
        return _rounded(bsign, bman, bexp, prec)
    off = aexp - bexp
    if off > 100 and abc + off - bbc > prec + 4:
        return _rounded(asign, (aman << prec + 4) + (
            1 if asign == bsign else -1), aexp - prec - 4, prec)
    if off < -100 and bbc - off - abc > prec + 4:
        return _rounded(bsign, (bman << prec + 4) + (
            1 if asign == bsign else -1), bexp - prec - 4, prec)
    if off > 0:
        aman <<= off
        aexp = bexp
    elif off:
        bman <<= -off
    man = aman + bman if asign == bsign else aman - bman
    if man < 0:
        man, asign = -man, asign ^ 1
    return _rounded(asign, man, aexp, prec) if man else fzero


def _sub(a, b, prec: int):
    """mpf_sub(a, b, prec, round_nearest), bit for bit: ``_add`` with the
    sign of b flipped."""
    return _add(a, b, prec, 1)


def _mul(a, b, prec: int):
    """mpf_mul(a, b, prec, round_nearest), bit for bit: for nonzero a and b
    the exact product of the mantissas, rounded once; 0 for a zero one."""
    if a[1] and b[1]:
        return _rounded(a[0] ^ b[0], a[1] * b[1], a[2] + b[2], prec)
    return fzero

