"""The local Newton-interpolation extension operator and its diagnostics.

Values of a function on the Cantor-type set extend to the line through

    W(f, x) = L_{M_0}(f, x, I_{1,0}) u(x, 1, K)
              + sum_s [ sum_j A_{j,s}(f, x) + sum_k T_{k,s}(f, x) ],

where the accumulation sums A raise the interpolation degree on one basic
interval and the transition sums T hand the interpolation off to the two
subintervals.  Degrees follow the schedule n_0 = n_1 = 2,
n_s = floor(log2 ln(1/delta_s)), so that 1/2 ln(1/delta_s) < 2^{n_s}
<= ln(1/delta_s); interpolation nodes are chosen by increasing type.  The
smooth cutoffs localize every term: for any x and s at most one A term and
one T term are alive, and on the set itself the series telescopes to
L_{M_s}(f, x, I_{j,s}) for the basic intervals containing x.

The module also carries the dominating-norm experiment, the certified
three-factor bound on the norm ratio of the localized node polynomials, and
brute-force checkers for the distance-product and chain-product inequalities
that drive the boundedness argument.
"""

from __future__ import annotations

import math
import time
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import mpmath as mp
from mpmath.libmp import fzero

from . import forking
from .bump import BumpSpec, bump_for_interval
from .errors import (DepthError, HorizonError, InvariantError,
                     NodeCollisionError, ParameterError)
from .gamma import (GammaModel, Profile, _float_or_inf, condition_diagnostics,
                    profile as make_profile)
from .geometry import CantorTree, select_nodes
from .kernel import _add, _mag, _mul, _sub
from .logreal import LN2_FRACTION, LogReal, ln_double

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# degree schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Interpolation degrees per level: N_s = 2^{n_s}-1 on level s, handing
    off at M_s = 2^{n_{s-1}-1}-1 (M_0 = 1)."""

    n: tuple  # n_s for s = 0..s_cap

    def N(self, s: int) -> int:
        return 2 ** self.n[s] - 1

    def M(self, s: int) -> int:
        if s == 0:
            return 1
        return 2 ** (self.n[s - 1] - 1) - 1


def schedule_for(prof: Profile, s_cap: int) -> Schedule:
    """n_0 = n_1 = 2; n_s = [log2 ln(1/delta_s)] for s >= 2, checked exactly."""
    if s_cap > prof.model.k_max:
        raise HorizonError(f"schedule cap {s_cap} beyond model horizon")
    n = [2, 2]
    for s in range(2, s_cap + 1):
        L = prof.ln_inv_delta(s)  # exact Fraction
        g = max(int(math.log2(float(L))), 1)
        while 2 ** g > L:
            g -= 1
        while 2 ** (g + 1) <= L:
            g += 1
        # the dyadic sandwich 1/2 ln(1/delta_s) < 2^{n_s} <= ln(1/delta_s)
        if not Fraction(2) ** g <= L < Fraction(2) ** (g + 1):
            raise InvariantError(f"dyadic sandwich fails for n_{s} = {g}")
        if g < n[-1]:
            raise ParameterError(
                f"degree schedule not monotone at s={s} (model too irregular)")
        n.append(g)
    return Schedule(n=tuple(n))


# ---------------------------------------------------------------------------
# divided differences and local interpolants
# ---------------------------------------------------------------------------

_DD_GUARD = 64     # bits divided beyond those an entry still carries
_DD_FLOOR = 128    # and never fewer bits than this (or p, where p is lower)
_DD_SLACK = 12     # bits a returned error exponent adds to the running one
_P_GUARD = 64      # bits a bounded W(f, x) runs beyond -log2 of its bound
_RETRY_BITS = 32   # rerun at tree precision when R > 2^-32 T
#: The precision from which an evaluation may grow its new tables in two
#: processes (``ExtensionOperator._grow``): every 2048-bit ``extend_jets``
#: call and every CLI-sized call stays in process whatever f costs.
_FORK_MIN_BITS = 4096
#: Seconds of f (its CPU time at one new node times the number of new
#: nodes) from which ``_grown_in_two`` forks.  Single calls on the
#: depth-10, 8192-bit EXAMPLE1 tree from a 52 MB process on 2 CPUs, every
#: gate open, best of 3, serial -> forked, with f's estimate in brackets:
#:   W(1), W(x) at S = 5 (0.5-0.9 ms):          6-45 -> 16-43 ms, to +181 %
#:   W(x^2) at S = 5 (3.6-5.1 ms):              33-39 -> 32-41 ms
#:   bounded W(sin) at S = 5, 1886 bits (11-17 ms):    30 -> 38-40 ms
#:   W(x^9) at S = 6 (13-25 ms):                118-194 -> 104-149 ms
#:   W(sqrt) at S = 6 (23-46 ms):               197-371 -> 186-325 ms
#:   bounded W(sin) at S = 6, 6670 bits (116-253 ms): 197-379 -> 183-289 ms
#: The two forks cost about 10 ms; below 30 ms of f, whether the tables pay
#: for them depends on their precision and size.
_FORK_MIN_F_S = 0.030


def _raw(v):
    return v._mpf_ if isinstance(v, mp.mpf) else mp.mpf(v)._mpf_


class NewtonTable:
    """A Newton divided-difference table at ``prec`` bits, grown in place one
    node at a time (Stoer and Bulirsch, Introduction to Numerical Analysis,
    2.1.3): the operator's local interpolant on one basic interval.

    It keeps the nodes (``points``, in the given order), the coefficients
    [z_0..z_k]f (``coeffs``) with their error exponents (``errs``), and the
    bottom diagonal of entries [z_{n-1-k}..z_{n-1}]f with their running
    error exponents.  Appending node n computes only the entries (n - k, k)
    for k = 1..n, each with the operations and at the precisions that
    ``divided_differences`` describes, so a grown table equals the table
    built at once on all its nodes, bit for bit.

    Nodes and values must be finite, as a Whitney jet's are: an inf or
    nan among the new ones raises ``ParameterError`` before any entry is
    computed.  (Before this check, a table took them in and returned
    non-finite coefficients.)  Every entry is then finite, as mpf
    exponents do not overflow.

    The subtractions, roundings and divisions are the integer kernel's
    (``kernel``: ``_sub``, ``_rounded``, and a division by ``divmod`` with
    a sticky bit), which returns mpmath's bits, written out in one loop
    body for nonzero operands: an entry costs no call.  The two
    differences keep the trailing zeros of a rounded mantissa, since only
    their values and magnitudes are read.  A zero operand and mpf_add's
    far-offset shortcut take ``_sub``.
    """

    __slots__ = ("prec", "points", "coeffs", "errs", "_z", "_diag", "_err")

    def __init__(self, prec: int):
        self.prec = prec
        self.points, self.coeffs, self.errs = [], [], []
        self._z, self._diag, self._err = [], [], []

    def grow(self, points: Sequence, values: Sequence) -> None:
        """Append points[n:] with their values, n the nodes already held,
        which must be points[:n].  An inf or nan node or value raises before
        any is added; a node that coincides with an earlier one raises and
        is not added."""
        if len(points) != len(values):
            raise ParameterError("points and values must pair up")
        prec, held = self.prec, len(self.points)
        # the operator passes its own node lists: held nodes are mostly the
        # very objects, and only the others compare through mpmath
        if len(points) < held or any(
                a is not b and a != b for a, b in zip(points, self.points)):
            raise ParameterError(
                "points must begin with the table's nodes")
        new = [(_raw(zn), _raw(vn))
               for zn, vn in zip(points[held:], values[held:])]
        for i, (z_n, t) in enumerate(new, held):
            # inf and nan have a zero mantissa and are not 0
            if not (z_n[1] or z_n == fzero):
                raise ParameterError(f"node {i} is not finite")
            if not (t[1] or t == fzero):
                raise ParameterError(f"f has no finite value at node {i}")
        z, near = self._z, prec + 4
        for zn, (z_n, t) in zip(points[held:], new):
            n = len(z)
            ns, nm, nx, nb = z_n
            old, e_old = self._diag, self._err
            # diag[k] = [z_{n-k}..z_n]f, from diag[k-1] = [z_{n-k+1}..z_n]f
            # and the old diagonal's [z_{n-k}..z_{n-1}]f
            e = _mag(t) - prec
            diag, err = [t], [e]
            for k in range(1, n + 1):
                # dz = z_n - z_{n-k} at prec bits: _sub written out for
                # nonzero operands short of mpf_add's far-offset
                # shortcut; a mantissa rounded here keeps its trailing
                # zeros, since only its value and magnitude are read
                zs, zm, zx, zb = zi = z[n - k]
                off = nx - zx
                if nm and zm and not (
                        off > 100 and nb + off - zb > near
                        or off < -100 and zb - off - nb > near):
                    if off >= 0:
                        a, b, gx = nm << off, zm, zx
                    else:
                        a, b, gx = nm, zm << -off, nx
                    gm, gs = a - b if ns == zs else a + b, ns
                    if gm < 0:
                        gm, gs = -gm, gs ^ 1
                    gb = gm.bit_length()
                    if gb > prec:
                        sh = gb - prec
                        r = gm >> (sh - 1)
                        gm = (r >> 1) + 1 if r & 1 and (
                            r & 2 or gm & ((1 << (sh - 1)) - 1)) else r >> 1
                        gx += sh
                        gb = gm.bit_length()
                else:
                    gs, gm, gx, gb = _sub(z_n, zi, prec)
                if not gm:
                    raise NodeCollisionError(
                        f"nodes {n - k} and {n} coincide at working precision")
                # d = t - old[k - 1] at prec bits, the same way
                o, eo = old[k - 1], e_old[k - 1]
                ts, tm, tx, tb = t
                os_, om, ox, ob = o
                off = tx - ox
                if tm and om and not (
                        off > 100 and tb + off - ob > near
                        or off < -100 and ob - off - tb > near):
                    if off >= 0:
                        a, b, dx = tm << off, om, ox
                    else:
                        a, b, dx = tm, om << -off, tx
                    dm, ds = a - b if ts == os_ else a + b, ts
                    if dm < 0:
                        dm, ds = -dm, ds ^ 1
                    db = dm.bit_length()
                    if not dm:
                        ds = dx = 0
                    elif db > prec:
                        sh = db - prec
                        r = dm >> (sh - 1)
                        dm = (r >> 1) + 1 if r & 1 and (
                            r & 2 or dm & ((1 << (sh - 1)) - 1)) else r >> 1
                        dx += sh
                        db = dm.bit_length()
                elif t == fzero == o:
                    ds = dm = dx = db = 0
                else:
                    ds, dm, dx, db = _sub(t, o, prec)
                if dm:
                    # shorten dz to p bits and divide at p bits (_rounded
                    # and mpf_div written out); e = max(mq - bits, mq - p)
                    # is mq - bits, since p >= bits
                    m = dx + db
                    e_d = m - prec
                    if e > e_d:
                        e_d = e
                    if eo > e_d:
                        e_d = eo
                    bits = m - e_d
                    p = bits + _DD_GUARD
                    if p < _DD_FLOOR:
                        p = _DD_FLOOR
                    if p > prec:
                        p = prec
                    if gb > p:
                        sh = gb - p
                        r = gm >> (sh - 1)
                        gm = (r >> 1) + 1 if r & 1 and (
                            r & 2 or gm & ((1 << (sh - 1)) - 1)) else r >> 1
                        gx += sh
                        gb = gm.bit_length()
                    if dm == gm:
                        t, e = (ds ^ gs, 1, dx - gx, 1), dx - gx + 1 - bits
                    else:
                        extra = p - db + gb + 5
                        if extra < 5:
                            extra = 5
                        q, r = divmod(dm << extra, gm)
                        q = q << 1 | (r != 0)
                        qx = dx - gx - extra - 1
                        sh = q.bit_length() - p
                        r = q >> (sh - 1)
                        q = (r >> 1) + 1 if r & 1 and (
                            r & 2 or q & ((1 << (sh - 1)) - 1)) else r >> 1
                        qx += sh
                        if not q & 1:
                            sh = (q & -q).bit_length() - 1
                            q >>= sh
                            qx += sh
                        qb = q.bit_length()
                        t, e = (ds ^ gs, q, qx, qb), qx + qb - bits
                else:
                    # d == 0: the quotient is 0
                    t = fzero
                    e = (e if e > eo else eo) - (gx + gb) + 1
                diag.append(t)
                err.append(e)
            z.append(z_n)
            self._diag, self._err = diag, err
            self.points.append(zn)
            self.coeffs.append(mp.make_mpf(t))
            self.errs.append(e + _DD_SLACK)

    def copy(self) -> NewtonTable:
        """A table equal to this one that grows apart from it."""
        t = NewtonTable(self.prec)
        t.points, t.coeffs, t.errs = self.points[:], self.coeffs[:], self.errs[:]
        # grow replaces the diagonal lists, never changes them
        t._z, t._diag, t._err = self._z[:], self._diag, self._err
        return t

    def _tail(self, held: int) -> tuple:
        """What growing past ``held`` nodes added, as picklable data: the new
        coefficients' and nodes' raw mpf, the new exponents, the diagonal."""
        return ([c._mpf_ for c in self.coeffs[held:]], self.errs[held:],
                self._z[held:], self._diag, self._err)

    def _append(self, points: Sequence, tail: tuple) -> None:
        """Take on ``tail``, another process's growth of this table to
        ``points``; the table keeps this process's node objects."""
        coeffs, errs, z, self._diag, self._err = tail
        self.points += points[len(self.points):]
        self.coeffs += [mp.make_mpf(c) for c in coeffs]
        self.errs += errs
        self._z += z


def divided_differences(points: Sequence, values: Sequence,
                        table: Optional[NewtonTable] = None, /) -> tuple:
    """Newton coefficients [z_1..z_{k+1}]f, k = 0..N, in the given node order,
    at the working precision p, and beside each an error exponent e_k:
    coefficient k lies within 2^e_k of the divided difference of f's exact
    values at the exact nodes, where each value is within about one unit in
    its last place of f's.  Given a ``table`` that holds a prefix of the
    points, it grows that table to all of them instead, at the table's
    precision, and returns its coefficients and exponents (points that do
    not begin with the table's nodes raise ParameterError): a grown table
    equals one built at once, bit for bit.  Every table the operator builds
    or grows goes through here, where the benchmark's traced runs time it.

    An order-k entry has already lost every bit that orders 1..k cancelled,
    so each division runs only at the bits its entry still carries
    (Wilkinson's running error analysis).  Beside each entry t sits an
    error exponent e, |error(t)| <~ 2^e; a value starts at mag(t) - p.  For
    d = t_{i+1} - t_i, taken at p bits, e_d = max(e_{i+1}, e_i, mag(d) - p),
    so d carries mag(d) - e_d bits.  dz = z_{i+k} - z_i is taken at p bits
    (a zero dz raises), rounded to p' = min(p, max(mag(d) - e_d +
    _DD_GUARD, _DD_FLOOR)) bits, and d / dz is rounded to p' bits, to
    nearest.  The quotient's error is max(mag(q) - (mag(d) - e_d),
    mag(q) - p'); an exact zero d gives q = 0 with error 2^e_d / |dz|.  The
    64 guard bits keep the added rounding 2^-64 below the error d already
    carries; below the 128-bit floor nothing is shortened, so at p <= 128
    the table is the full-precision one, bit for bit.  The bounds are worst
    cases: where the inputs are exact far below them, the full-precision
    table can be more accurate.

    Nodes and values must be finite: an inf or nan raises
    ``ParameterError`` before any entry is computed.  (Before, it gave
    non-finite coefficients, and an unbounded W(f, x) over them nan.)

    Each e_k is the running exponent of the top entry plus _DD_SLACK bits.
    The running exponents take the larger of two errors where they can
    add, and a value's error as one unit in its last place: on criterion
    3's sin tables they fall short of the actual error by up to 2^8.6 (at
    8192 bits mp.sin errs by up to 13 units).  The tests check e_k against
    tables at three times the precision.  Adding the two errors instead
    would be a worst case, but it grows by about a bit per order (by 2^53
    at order 63 of a 64-node table), which would push the rounding bound
    of level-6 sums past 2^-32 of their truncation bound.
    """
    if table is None:
        table = NewtonTable(mp.mp.prec)
    table.grow(points, values)
    return table.coeffs, table.errs


def grow_omega(row: list, x, points: Sequence, upto: int) -> list:
    """Extend row = [1, Omega_1(x), ...] in place through Omega_upto(x),
    Omega_k = prod_{i<k} (x - z_{i+1}) taken as a running product."""
    omega = row[-1]
    for k in range(len(row), upto + 1):
        omega = omega * (x - points[k - 1])
        row.append(omega)
    return row


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------

@dataclass
class WValue:
    value: object               # mpf
    certified_bound: Optional[LogReal] = None


class _Sum:
    """W's arithmetic: raw mpf operations at p bits, rounded to nearest, in
    the order of mpf arithmetic at p bits, each on the integer kernel
    (``_mul`` and ``_add``), which returns mpmath's bits.  Its hooks report
    each rounding to ``_RoundedSum``; here they do nothing."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    def _coefficient(self, e, mu) -> None:
        pass

    def _product(self, c, e, w, k: int, mu) -> None:
        pass

    def _rounded(self, r, mu=0) -> None:
        pass

    def newton(self, itp: NewtonTable, row: list, upto: int, mu):
        """sum_{k<=upto} c_k Omega_k(x) (Newton's partial sum L_upto(f, x)),
        to be multiplied by a cutoff below 2^mu."""
        p = self.p
        coeffs, errs = itp.coeffs, itp.errs
        total = coeffs[0]._mpf_
        self._coefficient(errs[0], mu)
        for k in range(1, upto + 1):
            w, t = row[k]._mpf_, fzero
            # past x's node Omega_k(x) = 0 and the table may end there: the
            # term is 0 and adds no error, but adding it still rounds total
            if w != fzero:
                c = coeffs[k]._mpf_
                t = _mul(c, w, p)
                self._product(c, errs[k], w, k, mu)
            total = _add(total, t, p)
            self._rounded(total, mu)
        return total

    def term(self, itp: NewtonTable, N: int, w, u):
        """c_N Omega_N(x) u; 0 past x's node, where the table may end."""
        w = w._mpf_
        if w == fzero:
            return fzero
        c = itp.coeffs[N]._mpf_
        self._product(c, itp.errs[N], w, N, _mag(u))
        return _mul(_mul(c, w, self.p), u, self.p)

    def add(self, a, b):
        r = _add(a, b, self.p)
        self._rounded(r)
        return r

    def sub(self, a, b, mu):
        """a - b, to be multiplied by a cutoff below 2^mu."""
        r = _add(a, b, self.p, 1)
        self._rounded(r, mu)
        return r

    def mul(self, a, u):
        r = _mul(a, u, self.p)
        self._rounded(r)
        return r


class _RoundedSum(_Sum):
    """``_Sum`` that adds up a bound R on its error: its results differ from
    the same sums over exact Newton coefficients, exact Omega_k(x) and
    exact arithmetic by at most R.

    R is a sum of parts 2^e, e an integer exponent (exp + bc of an mpf),
    kept exactly as a count of units 2^-(p + 1074), so that it is finite
    however large f is; a part below one unit counts as one.  With mag(v)
    the exponent of 2 just above |v|, a term c_k Omega_k(x) u brings
    2^(errs[k] + mag(Omega_k u)) from its coefficient,
    2^(mag(c) + mag(Omega_k u) - p) from the rounding of its two products
    at p bits, and |c u| times the error of Omega_k(x), at most 2k
    roundings at the tree's precision; each addition brings half a unit in
    its last place.  The cutoff values u are taken as exact: on the set,
    where the bound holds, each live cutoff is 1, since every point lies
    on a plateau.
    """

    __slots__ = ("bits", "units")

    def __init__(self, p: int, bits: int):
        super().__init__(p)
        self.bits, self.units = bits, 0

    def _part(self, e) -> None:
        if e != -math.inf:
            d = e + self.p + 1074
            self.units += 1 << d if d > 0 else 1

    def exponent(self):
        """r with R < 2^r.  The factor 1 + 2^-36 covers the factors
        1 + 2^(k + 1 - bits) by which the exact |Omega_k| can exceed the
        rounded one."""
        if not self.units:
            return -math.inf
        return ((self.units * ((1 << 36) + 1)).bit_length() - 36 - 1074
                - self.p)

    def _coefficient(self, e, mu) -> None:
        self._part(e + mu)

    def _product(self, c, e, w, k: int, mu) -> None:
        mw, mc = _mag(w), _mag(c)
        self._part(e + mw + mu)
        self._part(mc - self.p + mw + mu)
        self._part(mc + (2 * k).bit_length() - self.bits + mw + mu)

    def _rounded(self, r, mu=0) -> None:
        self._part(_mag(r) - self.p - 1 + mu)


def _plus(trunc: LogReal, r) -> LogReal:
    """An upper bound of T + 2^r for T = ``trunc``, with ln 2 taken from
    LN2_FRACTION +- 2^-86.  Where 2^r <= 2^-32 T it is T e^(2^-32), the
    same for every such call, since ln(1 + y) <= y.  Elsewhere its log is
    a + 2^-k, for a >= b upper bounds of ln T and r ln 2 and k ln 2 <=
    a - b: ln(e^a + e^b) <= a + e^(b - a)."""
    if r == -math.inf:
        return LogReal(trunc.ln + Fraction(1, 1 << _RETRY_BITS))
    ln2_hi = LN2_FRACTION + Fraction(1, 1 << 86)
    ln_r = r * (ln2_hi if r >= 0 else LN2_FRACTION - Fraction(1, 1 << 86))
    if ln_r + _RETRY_BITS * ln2_hi <= trunc.ln:
        return LogReal(trunc.ln + Fraction(1, 1 << _RETRY_BITS))
    a, b = max(trunc.ln, ln_r), min(trunc.ln, ln_r)
    # past 2^-256 the added term no longer shows in any double
    k = min(math.floor((a - b) / ln2_hi), 256)
    return LogReal(a + Fraction(1, 1 << k))


@dataclass
class _PointState:
    """Everything the operator needs at one x that does not depend on f.

    ``stages[s]`` holds level s's nonzero cutoff values: ([(j, [(N, u_N(x)),
    ...])], [(k, u_k(x))]) for its live A and T terms.
    ``omega[(j, s)]`` is the row [1, Omega_1(x), ...] over the operator's
    nodes of I_{j,s}, grown on demand; node sets are prefix-stable, so
    every function's interpolant extends the same row.  ``zero[(j, s)]``
    is the index m of the row's first exact zero at the tree's precision,
    noted once as the row grows: x is then node m of I_{j,s}, Omega_k(x) =
    0 for every k >= m, and no table needs a node past x.  ``plans[S]`` is
    ``ExtensionOperator._plan``'s list for truncation level S.  ``entries``
    counts the rows' entries Omega_k(x), k >= 1: the operator keeps a state
    per point until all its states hold more than 2^(depth + 1), then drops
    the least recently used first.  A stage or row grown over several calls
    is the one grown in a single call, bit for bit: each level and each
    running product is computed the same way whenever it is reached.
    """

    x: object
    root_u: object
    stages: list = field(default_factory=list)
    omega: dict = field(default_factory=dict)
    zero: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)
    entries: int = 0

    def grow(self, j: int, s: int, points: Sequence) -> None:
        """Grow the row of I_{j,s} through Omega_k(x) over its first k nodes
        ``points``, noting the row's first zero."""
        row = self.omega.setdefault((j, s), [1])
        held = len(row)
        grow_omega(row, self.x, points, len(points))
        self.entries += len(row) - held
        # a running product: once 0, every later entry is 0
        if (j, s) not in self.zero and not row[-1]:
            self.zero[(j, s)] = next(k for k in range(held, len(row))
                                     if not row[k])


@dataclass
class _Tables:
    """One function's node values and interpolants at ``bits`` bits."""

    bits: int
    values: dict = field(default_factory=dict)
    interps: dict = field(default_factory=dict)


def _grown_in_two(f: Callable, tables: _Tables, grow: dict) -> bool:
    """Whether the tables ``grow`` names ((j, s) -> nodes) grew to their
    nodes in two processes.  f runs first at the last new node, the probe
    (the first is often an endpoint 0 or 1, where f can cost nothing), and
    its value is cached.  If f's CPU time there times the number of new
    nodes reaches ``_FORK_MIN_F_S``, ``forking.split`` evaluates f at the
    rest in two halves, every other one from the first here and the others
    in the child, then grows the tables, one job each weighed by its new
    entries (n^2 - held^2).  Each job returns its table's raw tail, which
    the table takes with this process's node objects.  Each side runs the
    serial arithmetic at the same precision, so every value and table is
    the serial one, bit for bit.

    False leaves every table unchanged, below the threshold or if a split
    returned None.  Values other than the probe's are cached only once both
    halves arrived.
    """
    interps, cache = tables.interps, tables.values
    new = list(dict.fromkeys(z for pts in grow.values() for z in pts
                             if z not in cache))
    if not new:
        return False
    *rest, last = new
    t0 = time.process_time()
    try:
        cache[last] = f(last)
    except Exception:
        return False
    if (time.process_time() - t0) * len(new) < _FORK_MIN_F_S:
        return False
    halves = rest[0::2], rest[1::2]
    values = forking.split([lambda h=h: [f(z)._mpf_ for z in h]
                            for h in halves], [len(h) for h in halves])
    if values is None:
        return False
    for h, raw in zip(halves, values):
        cache.update(zip(h, map(mp.make_mpf, raw)))

    def base(key) -> NewtonTable:
        itp = interps.get(key)
        return itp.copy() if itp else NewtonTable(tables.bits)

    def tail(key, held: int) -> tuple:
        t = base(key)
        divided_differences(grow[key], [cache[z] for z in grow[key]], t)
        return t._tail(held)

    held = {key: len(interps[key].points) if key in interps else 0
            for key in grow}
    tails = forking.split([lambda key=key: tail(key, held[key])
                           for key in grow],
                          [len(pts) ** 2 - held[key] ** 2
                           for key, pts in grow.items()])
    if tails is None:
        return False
    for key, t in zip(grow, tails):
        interps[key] = base(key)
        interps[key]._append(grow[key], t)
    return True


class ExtensionOperator:
    """Evaluator of the truncated operator on a fixed tree and schedule.

    W(f, x) pairs f's Newton coefficients with weights that depend on x and
    the tree alone: the live sets of both stages, the cutoff values u(x) and
    the running products Omega_k(x).  Those weights are kept at the tree's
    precision per x, most recently used last, so every function evaluated
    at a kept point shares them, whatever precision its sum runs at and
    whether it sweeps its points or a point's functions come together.
    Once the kept Omega rows hold more than 2^(depth + 1) entries in all,
    as many as the deepest level has endpoints, the least recently used
    points are dropped first; the current call's point is never dropped.
    Bump specs and their support hulls are cached per basic interval and
    width.  Interpolants (per basic interval) and function values (per
    node) are cached per function and precision while the function object
    lives, so switching between functions keeps each one's work.  Node sets
    are prefix-stable, so an interval that needs more nodes grows its Newton
    table in place, and a grown table equals one built at once, bit for bit.
    """

    def __init__(self, tree: CantorTree, s_max: int):
        if s_max < 1:
            raise ParameterError(f"truncation level {s_max} is below 1")
        depth_needed = 0
        self.tree = tree
        self.prof = tree.profile
        self.schedule = schedule_for(self.prof, s_max)
        self.s_max = s_max
        for s in range(s_max):
            depth_needed = max(depth_needed, s + self.schedule.n[s] - 1)
        if depth_needed > tree.depth:
            raise DepthError(
                f"truncation at {s_max} needs node types to {depth_needed}, "
                f"tree depth is {tree.depth}")
        self._bumps: dict = {}
        self._hulls: dict = {}
        self._nodes: dict = {}   # (j, s) -> the longest node list asked for
        # f -> {precision: _Tables}; dropped with f
        self._per_f = weakref.WeakKeyDictionary()
        # x's raw mpf -> its _PointState, most recently used last; their
        # rows hold ``_entries`` entries, kept within ``_budget``
        self._states: dict = {}
        self._entries = 0
        self._budget = 2 ** (tree.depth + 1)

    # -- caches ------------------------------------------------------------

    def _tables(self, f: Callable, p: int) -> _Tables:
        per_p = self._per_f.get(f)
        if per_p is None:
            per_p = self._per_f[f] = {}
        tables = per_p.get(p)
        if tables is None:
            tables = per_p[p] = _Tables(p)
        return tables

    def _points(self, j: int, s: int, n: int) -> list:
        """The first n increasing-type nodes of I_{j,s}.  Node sets are
        prefix-stable, so the longest list asked for serves every count."""
        pts = self._nodes.get((j, s))
        if pts is None or len(pts) < n:
            pts = self._nodes[(j, s)] = select_nodes(self.tree, (j, s),
                                                     n).points()
        return pts[:n]

    def _bump(self, j: int, s: int, k_delta: int) -> BumpSpec:
        """Cutoff of width t = delta_{k_delta} around I_{j,s}."""
        key = (j, s, k_delta)
        b = self._bumps.get(key)
        if b is None:
            t = self.tree.delta_mpf(k_delta)
            b = bump_for_interval(self.tree, j, s, t)
            self._bumps[key] = b
        return b

    def _live(self, level: int, k_delta: int, x, stage: str, s: int) -> list:
        """The j whose width-delta_{k_delta} cutoff around I_{j,level} is
        alive at x; the locality audit of ``stage`` s allows at most one.

        Every component of cutoff j lies in I_{j,level}, whose endpoints its
        first and last deepest atoms share, so its support lies in
        (left - t, right + t), rounded alike.  Those hulls are sorted in j,
        and only the run of them that holds x is tested.
        """
        hull = self._hulls.get((level, k_delta))
        if hull is None:
            t = self.tree.delta_mpf(k_delta)
            ivs = self.tree.levels[level]
            with mp.workprec(self.tree.bits):
                hull = ([iv.left - t for iv in ivs],
                        [iv.right + t for iv in ivs])
            self._hulls[(level, k_delta)] = hull
        lo_t, hi_t = hull
        live = [j for j in range(bisect_right(hi_t, x) + 1,
                                 bisect_left(lo_t, x) + 1)
                if self._bump(j, level, k_delta).support_hit(x)]
        if len(live) > 1:
            raise InvariantError(f"{stage} locality broken at s={s}")
        return live

    def _level(self, S: int) -> int:
        if not 1 <= S <= self.s_max:
            raise ParameterError(
                f"truncation level {S} outside 1..{self.s_max}")
        return S

    # -- the point state -----------------------------------------------------

    def _state(self, x, s_cap: int) -> _PointState:
        """x's state through level s_cap - 1, kept or made, and now the most
        recently used.

        A level is stored only once both its audits have passed, so a broken
        locality raises again on every call.
        """
        pt = self._states.pop(x._mpf_, None)
        if pt is None:
            # delta_0 = 1: the root cutoff has width 1
            pt = _PointState(x, self._bump(1, 0, 0).value(x))
        self._states[x._mpf_] = pt
        while len(pt.stages) < s_cap:
            pt.stages.append(self._stage(x, len(pt.stages)))
        return pt

    def _stage(self, x, s: int) -> tuple:
        """Level s's nonzero cutoff values at x."""
        sched = self.schedule
        # widest cutoff in the accumulation stage: N = M_s + 1,
        # i.e. n = n_{s-1} - 1 (n = 1 at the root stage)
        t_hi_A = s + (sched.n[s - 1] - 1 if s else 1)
        terms_A = []
        for j in self._live(s, t_hi_A, x, "accumulation", s):
            terms = []
            for N in range(sched.M(s) + 1, sched.N(s) + 1):
                n = N.bit_length() - 1  # 2^n <= N < 2^{n+1}
                if N == sched.M(s) + 1 or N == 1 << n:
                    # the cutoff width delta_{s+n} changes with n only
                    u = self._bump(j, s, s + n).value(x)
                if u != 0:
                    terms.append((N, u))
            if terms:
                terms_A.append((j, terms))
        # transition stage: cutoff width delta_{s + n_s - 1}
        t_T = s + sched.n[s] - 1
        terms_T = []
        for k in self._live(s + 1, t_T, x, "transition", s):
            u = self._bump(k, s + 1, t_T).value(x)
            if u != 0:
                terms_T.append((k, u))
        return terms_A, terms_T

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, f: Callable, x, norm_q: Optional[float] = None,
                 q: Optional[int] = None, s_max: Optional[int] = None) -> WValue:
        """The truncated operator at x, with the locality audit: a second
        live cutoff in either stage raises ``InvariantError``.

        ``norm_q``/``q`` (an upper bound of the order-q Whitney norm of f)
        switch on the certified bound, valid for points of the set: the
        truncation bound T (``certified_bound``) plus the rounding bound R
        of the sum, rounded up.  Such a call runs at p = ceil(-log2 T) + 64
        bits, at most the tree's: f is called at p bits on the exact nodes,
        its Newton tables are built at p bits, and the sum runs at p bits
        over the weights at tree precision.  R adds up the coefficients'
        error exponents times |Omega_k(x) u(x)| and every rounding at p
        bits; f(z) is taken to be within 2^(mag - p) of f at the node, one
        unit in the last place.  If R exceeds 2^-32 T below the tree's
        precision, the call runs once more at the tree's precision.  A call
        without a bound runs at the tree's precision.  ``s_max`` may lower
        the truncation level per call (caches are shared across levels).
        An f that is inf or nan at a node the call reads raises
        ``ParameterError``, with or without a bound.
        """
        s_cap = self._level(self.s_max if s_max is None else s_max)
        bits = self.tree.bits
        if norm_q is None or q is None:
            return WValue(value=self._at(f, x, s_cap, _Sum(bits)))
        trunc = self.certified_bound(s_cap, norm_q, q)
        t2 = math.floor(trunc.ln / LN2_FRACTION)   # T is about 2^t2
        acc = _RoundedSum(min(bits, max(-t2, 0) + _P_GUARD), bits)
        value = self._at(f, x, s_cap, acc)
        if acc.exponent() > t2 - _RETRY_BITS and acc.p < bits:
            acc = _RoundedSum(bits, bits)
            value = self._at(f, x, s_cap, acc)
        bound = _plus(trunc, acc.exponent())
        return WValue(value=value, certified_bound=bound)

    def _plan(self, pt: _PointState, s_cap: int) -> list:
        """(j, s, n) for each Newton table ``_at``'s sum reads at ``pt``, in
        the order it reads them, with the number of nodes it needs; made
        once per point and level, as it does not depend on f.

        Each entry first grows its row through the last Omega_k(x) the sum
        reads.  Where that row holds a zero at m, x is node m and n is at
        most m: the terms past it are 0 whatever the coefficients, so
        neither f nor the table goes past x.  Elsewhere n is the degree's.
        """
        plan = pt.plans.get(s_cap)
        if plan is not None:
            return plan
        sched, plan, before = self.schedule, [], pt.entries

        def read(j, s, upto, n):
            pt.grow(j, s, self._points(j, s, upto))
            plan.append((j, s, min(n, pt.zero.get((j, s), n))))

        read(1, 0, 1, 2)
        for s in range(s_cap):
            terms_A, terms_T = pt.stages[s]
            N, M = sched.N(s), sched.M(s + 1)
            for j, terms in terms_A:
                read(j, s, terms[-1][0], N + 1)
            for k, _ in terms_T:
                read(k, s + 1, M, M + 1)
                read((k + 1) // 2, s, N, N + 1)
        pt.plans[s_cap] = plan
        # only a plan grows rows: drop the least recently used points, never
        # pt, the last, until the rows fit the budget
        self._entries += pt.entries - before
        states = self._states
        while self._entries > self._budget and len(states) > 1:
            self._entries -= states.pop(next(iter(states))).entries
        return plan

    def _grow(self, f: Callable, tables: _Tables, pt: _PointState,
              s_cap: int) -> None:
        """Grow f's tables to the node counts ``_plan`` lists: each table
        once, to the most nodes the plan asks of it, in the order the plan
        first names them.

        A call big enough that the second CPU pays for two forks grows them
        in two processes (``_grown_in_two``): p is at least
        ``_FORK_MIN_BITS`` and at least two tables grow.  Otherwise, or if
        that step declines or fails, they grow here, f called at the
        tables' precision on the exact nodes it has not seen, which raises
        the serial error.
        """
        cache, interps = tables.values, tables.interps
        grow = {}   # (j, s) -> the nodes its table grows to
        for j, s, n in self._plan(pt, s_cap):
            itp = interps.get((j, s))
            if len(grow.get((j, s), itp.points if itp else ())) < n:
                grow[(j, s)] = self._points(j, s, n)
        with mp.workprec(tables.bits):
            if (tables.bits >= _FORK_MIN_BITS and len(grow) >= 2
                    and _grown_in_two(f, tables, grow)):
                return
            for key, points in grow.items():
                values = []
                for z in points:
                    v = cache.get(z)
                    if v is None:
                        v = cache[z] = f(z)
                    values.append(v)
                divided_differences(points, values, interps.setdefault(
                    key, NewtonTable(tables.bits)))

    def _at(self, f: Callable, x, s_cap: int, acc: _Sum):
        """W(f, x) in ``acc``'s arithmetic over f's tables at its precision,
        grown first by ``_grow``, which also grows every row the sum reads."""
        tables = self._tables(f, acc.p)
        interps, sched = tables.interps, self.schedule
        with mp.workprec(self.tree.bits):
            x = mp.mpf(x) if not isinstance(x, mp.mpf) else x
            pt = self._state(x, s_cap)
            self._grow(f, tables, pt, s_cap)
            omega = pt.omega
            u = pt.root_u._mpf_
            total = acc.mul(acc.newton(interps[(1, 0)], omega[(1, 0)], 1,
                                       _mag(u)), u)
            for s in range(s_cap):
                terms_A, terms_T = pt.stages[s]
                # increments L_N - L_{N-1} = [z_1..z_{N+1}]f * Omega_N(x)
                for j, terms in terms_A:
                    itp, row = interps[(j, s)], omega[(j, s)]
                    for N, u in terms:
                        total = acc.add(total, acc.term(itp, N, row[N],
                                                        u._mpf_))
                for k, u in terms_T:
                    u, M, N = u._mpf_, sched.M(s + 1), sched.N(s)
                    mu, j_parent = _mag(u), (k + 1) // 2
                    diff = acc.sub(
                        acc.newton(interps[(k, s + 1)], omega[(k, s + 1)],
                                   M, mu),
                        acc.newton(interps[(j_parent, s)],
                                   omega[(j_parent, s)], N, mu), mu)
                    total = acc.add(total, acc.mul(diff, u))
        return mp.make_mpf(total)

    def certified_bound(self, S: int, norm_q: float, q: int) -> LogReal:
        """Telescoping truncation error bound at level S, for x in the set:
        ||f||_q 2^n C0^(q-1) (8 C0/7)^(2^n) delta_{S+n} delta_S^(q-1)."""
        if not (isinstance(q, int) and q >= 0):
            raise ParameterError(f"the bound needs an order q >= 0, got {q}")
        if not (math.isfinite(norm_q) and norm_q > 0):
            raise ParameterError("the bound needs a finite norm_q > 0, "
                                 f"got {norm_q}")
        n = self.schedule.n[self._level(S) - 1] - 1
        if S + n > self.tree.model.k_max:
            raise HorizonError(f"bound at level {S} needs delta_{S + n}, "
                               f"horizon {self.tree.model.k_max}")
        c0 = self.tree.model.c0
        ln_const = math.log(norm_q) + n * LN2 + (q - 1) * math.log(c0) \
            + (2 ** n) * math.log(8 * c0 / 7)
        L = self.prof.ln_inv_deltas
        return LogReal(Fraction(ln_const) - L[S + n] - (q - 1) * L[S])


# ---------------------------------------------------------------------------
# the dominating-norm experiment
# ---------------------------------------------------------------------------

@dataclass
class DNRow:
    s: int
    n: int
    r: int
    brace: float             # 2B_{n+s} + sum_{i<=m} B_{n+s-i} - eps * window
    threshold: float         # B_{n+s}; the bound clears 1/2 ln(1/delta) iff brace >= this
    fires: bool              # decided exactly: the block inequality fails
    ln_bound_scaled: float   # brace * 2^{n+s}, +-inf past the doubles
    ln_bound_full: float     # including the constant factors of the three bounds


@dataclass
class DNReport:
    eps: float
    m: int
    rows: list
    diverges: bool   # scaled bounds strictly increase along the row order


def dn_experiment(model: GammaModel, eps: float, m: int,
                  r_list: Sequence[int], s_list: Sequence[int]) -> DNReport:
    """Certified lower bounds of the dominating-norm ratio for the localized
    node polynomials, per pair (r, s) of the equal-length lists.

    q = 2^m and r = 2^n; the three closed-form bounds (sup bound, derivative
    lower bound at 0, Whitney-norm bound 2 r!) combine into a lower bound of
    |f|_q^{1+eps} |f|_0^{-1} ||f||_r^{-eps} whose exponential part is
    2^{n+s} * brace.  The witness fires when brace >= B_{n+s}, which is the
    block inequality of ``condition_diagnostics`` failing; that decides it,
    on exact Fractions.
    """
    prof = make_profile(model)
    L, c0 = prof.ln_inv_deltas, model.c0
    if len(r_list) != len(s_list):
        raise ParameterError("paired experiment needs equal-length lists")
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError("the dominating-norm bound needs a finite "
                             f"eps > 0, got {eps}")
    if m < 0:
        raise ParameterError(f"need q = 2^m with m >= 0, got m={m}")
    q, e = 2 ** m, Fraction(eps)
    rows, scaled = [], []
    for r, s in zip(r_list, s_list):
        if r < 2 or r & (r - 1):
            raise ParameterError(f"r={r} is not a power of two >= 2")
        n = r.bit_length() - 1
        if m >= n:
            raise ParameterError(f"need q = 2^m < r = 2^n, got m={m}, n={n}")
        if s < 1:
            raise ParameterError(f"need s >= 1, got s={s}")
        if s + n > model.k_max:
            raise HorizonError(f"(s={s}, n={n}) beyond horizon {model.k_max}")
        # B_{s}, ..., B_{s+n}, exact
        Bx = [L[k] / 2 ** (k + 1) for k in range(s, s + n + 1)]
        brace = 2 * Bx[n] + sum(Bx[n - m:n]) - e * sum(Bx[:n - m])
        scaled.append(brace * 2 ** (s + n))
        ln_scaled = _float_or_inf(scaled[-1])
        # constants: |f^(q)(0)| >= q! (7/8)^{r-q} Pi2;  |f|_0 <= C0^r Pi1;
        # ||f||_r <= 2 r!
        ln_const = (1 + eps) * (math.lgamma(q + 1) + (r - q) * math.log(7 / 8)) \
            - r * math.log(c0) - eps * (LN2 + math.lgamma(r + 1))
        fires = not condition_diagnostics(prof, [s], [n], eps,
                                          m).rows[0].block_holds
        rows.append(DNRow(s=s, n=n, r=r, brace=_float_or_inf(brace),
                          threshold=prof.B[s + n],
                          fires=fires, ln_bound_scaled=ln_scaled,
                          ln_bound_full=ln_scaled + ln_const))
    diverges = len(scaled) >= 2 and all(a < b for a, b in zip(scaled,
                                                                scaled[1:]))
    return DNReport(eps=eps, m=m, rows=rows, diverges=diverges)


# ---------------------------------------------------------------------------
# product-inequality checkers
# ---------------------------------------------------------------------------

def sorted_ln_distances(x, points: Sequence) -> list:
    """ln |x - z| over the points, ascending (the d_k sequence, k = 1..).

    Evaluates at the caller's working precision.
    """
    return sorted(ln_double(abs(x - z)) for z in points)


def check_distance_product_bound(tree: CantorTree, interval: tuple,
                                 N: int) -> bool:
    """Nearest-node product domination on N+1 increasing-type nodes.

    For every x within delta_{s+n} of the first N nodes and every node z:
    delta_{s+n} prod_{k=2}^{N} d_k(x, Z_N) <= C1^N prod_{k=2}^{N+1} d_k(z, Z),
    with C1 = (8/7)(C0 + 1).  x runs over z + delta_{s+n} times the offsets
    0, 1e-3, 0.37, 0.99 and 1.
    """
    j, s = interval
    n = N.bit_length() - 1  # 2^n <= N < 2^{n+1}
    node_set = select_nodes(tree, interval, N + 1)
    Z = node_set.points()
    ZN = Z[:N]
    with mp.workprec(tree.bits):
        delta = tree.delta_mpf(s + n)
        ln_delta = ln_double(delta)
        c1 = 8.0 / 7.0 * (tree.model.c0 + 1.0)
        rhs_best = math.inf
        for z in Z:
            ds = sorted_ln_distances(z, Z)
            rhs = N * math.log(c1) + math.fsum(ds[1:])  # k = 2..N+1
            rhs_best = min(rhs_best, rhs)
        for z in ZN:
            for off in (0.0, 1e-3, 0.37, 0.99, 1.0):
                x = z + delta * mp.mpf(off)
                ds = sorted_ln_distances(x, ZN)
                if ds[0] > ln_delta + 1e-12:
                    continue  # x drifted farther than delta from the nodes
                lhs = ln_delta + math.fsum(ds[1:N])  # k = 2..N
                if not lhs <= rhs_best + 1e-9:
                    return False
    return True


def chain_product_minimum(Z_sorted: Sequence, j: int, q: int) -> float:
    """ln of the minimal chain product for the window [j, j+q] (1-based).

    Chains extend the index window one step left or right until it covers
    [1, N+1]; each step multiplies by (z_b - z_a) of the current window.
    Evaluates at the caller's working precision.
    """
    N1 = len(Z_sorted)
    memo = {}

    def rec(a: int, b: int) -> float:
        # minimal ln product to grow [a, b] (0-based, inclusive) to full
        if (a, b) == (0, N1 - 1):
            return 0.0
        key = (a, b)
        v = memo.get(key)
        if v is None:
            v = math.inf
            if a > 0:
                v = min(v, ln_double(Z_sorted[b] - Z_sorted[a - 1])
                        + rec(a - 1, b))
            if b < N1 - 1:
                v = min(v, ln_double(Z_sorted[b + 1] - Z_sorted[a])
                        + rec(a, b + 1))
            memo[key] = v
        return v

    return rec(j - 1, j - 1 + q)


def check_chain_product_bound(tree: CantorTree, interval: tuple, N: int,
                              q: int) -> bool:
    """Every 2^m consecutive nodes contain a witness z with
    prod_{k=q+2}^{N+1} d_k(z, Z) <= Pi(J), the minimal chain product."""
    node_set = select_nodes(tree, interval, N + 1)
    Z = sorted(node_set.points())
    with mp.workprec(tree.bits):
        for j in range(1, N + 1 - q + 1):
            pi_j = chain_product_minimum(Z, j, q)
            ok = False
            for z in Z[j - 1:j + q]:
                ds = sorted_ln_distances(z, Z)
                tail = math.fsum(ds[q + 1:])  # k = q+2 .. N+1
                if tail <= pi_j + 1e-9:
                    ok = True
                    break
            if not ok:
                return False
    return True
