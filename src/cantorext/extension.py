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

The module also carries the machinery for the dominating-norm experiment:
finite-sample Whitney norms, the certified three-factor bound on the norm
ratio of the localized node polynomials, and brute-force checkers for the
distance-product and chain-product inequalities that drive the boundedness
argument.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import fzero, mpf_div, mpf_pos, mpf_sub, round_nearest

from .bump import P_MAX, BumpSpec, bump_for_interval
from .errors import (DepthError, HorizonError, InsufficientOrderError,
                     InvariantError, NodeCollisionError, ParameterError)
from .gamma import GammaModel, Profile, profile as make_profile
from .geometry import CantorTree, select_nodes
from .logreal import LogReal, ln_double

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


def _mag(t) -> float:
    """m with 2^(m-1) <= |t| < 2^m for a finite nonzero raw mpf t; -inf for
    zero and +inf for inf and nan, which also have a zero mantissa."""
    man = t[1]
    if man:
        return t[2] + t[3]
    return -math.inf if t == fzero else math.inf


def _raw(v):
    return v._mpf_ if isinstance(v, mp.mpf) else mp.mpf(v)._mpf_


def divided_differences(points: Sequence, values: Sequence) -> list:
    """Newton coefficients [z_1..z_{k+1}]f, k = 0..N, in the given node order,
    at the working precision p.

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
    the table is the full-precision one, bit for bit.  Non-finite entries
    divide at p bits.  The bounds are worst cases: where the inputs are
    exact far below them, the full-precision table can be more accurate.
    """
    n = len(points)
    if n != len(values):
        raise ParameterError("points and values must pair up")
    prec, rnd = mp.mp.prec, round_nearest
    z = [_raw(v) for v in points]
    table = [_raw(v) for v in values]
    err = [_mag(t) - prec for t in table]
    coeffs = [table[0]]
    for order in range(1, n):
        for i in range(n - order):
            dz = mpf_sub(z[i + order], z[i], prec, rnd)
            if dz == fzero:
                raise NodeCollisionError(
                    f"nodes {i} and {i + order} coincide at working precision")
            d = mpf_sub(table[i + 1], table[i], prec, rnd)
            m = _mag(d)
            e_d = max(err[i + 1], err[i], m - prec)
            if d[1]:
                p = min(prec, max(m - e_d + _DD_GUARD, _DD_FLOOR))
                q = mpf_div(d, mpf_pos(dz, p, rnd), p, rnd)
                mq = _mag(q)
                err[i] = max(mq - (m - e_d), mq - p)
            else:
                # zero, inf or nan: nothing to shorten
                q = mpf_div(d, dz, prec, rnd)
                err[i] = e_d - _mag(dz) + 1
            table[i] = q
        coeffs.append(table[0])
    return [mp.make_mpf(c) for c in coeffs]


class LocalInterpolant:
    """Newton-form interpolant on the increasing-type nodes of one interval."""

    def __init__(self, tree: CantorTree, j: int, s: int, n_nodes: int,
                 f_cache: dict, f: Callable):
        self.interval = (j, s)
        node_set = select_nodes(tree, (j, s), n_nodes)
        self.points = node_set.points()
        vals = []
        for z in self.points:
            v = f_cache.get(z)
            if v is None:
                v = f(z)
                f_cache[z] = v
            vals.append(v)
        self.coeffs = divided_differences(self.points, vals)

    def partial(self, x, upto: int, omega: Optional[list] = None):
        """L_upto(f, x): Newton partial sum using nodes 0..upto.

        ``omega`` is x's row [1, Omega_1(x), ...] over these nodes, at least
        upto + 1 long; without it the row is built here.
        """
        if omega is None:
            omega = grow_omega([1], x, self.points, upto)
        total = self.coeffs[0]
        for k in range(1, upto + 1):
            total = total + self.coeffs[k] * omega[k]
        return total


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
    s_max: int
    nonzero_A: list             # per level, indices j with a live A term
    nonzero_T: list             # per level, indices k with a live T term
    certified_bound: Optional[LogReal] = None


@dataclass
class _PointState:
    """Everything the operator needs at one x that does not depend on f.

    ``stages[s]`` holds level s's live sets and nonzero cutoff values: (live
    A indices, [(j, [(N, u_N(x)), ...])], live T indices, [(k, u_k(x))]).
    ``omega[(j, s)]`` is the row [1, Omega_1(x), ...] over the nodes of
    I_{j,s}, grown on demand; node sets are prefix-stable, so every
    function's interpolant extends the same row.
    """

    x: object
    root_u: object
    stages: list = field(default_factory=list)
    omega: dict = field(default_factory=dict)

    def row(self, j: int, s: int, points: Sequence, upto: int) -> list:
        return grow_omega(self.omega.setdefault((j, s), [1]), self.x,
                          points, upto)


class ExtensionOperator:
    """Evaluator of the truncated operator on a fixed tree and schedule.

    W(f, x) pairs f's Newton coefficients with weights that depend on x and
    the tree alone: the live sets of both stages, the cutoff values u(x) and
    the running products Omega_k(x).  Those weights are kept for the most
    recent x only (one entry, replaced when x changes), so any number of
    functions evaluated at one point before moving on share them.  Bump specs
    and their support hulls are cached per basic interval and width.
    Interpolants (per basic interval) and function values (per node) are
    cached per function while the function object lives, so switching
    between functions keeps each one's work: Newton coefficient k depends
    only on nodes 0..k, and node sets are prefix-stable, so a cached
    interpolant equals a rebuilt one.
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
        # f -> (node values, interpolants); dropped with f
        self._per_f = weakref.WeakKeyDictionary()
        self._point: Optional[_PointState] = None
        with mp.workprec(tree.bits):
            self._root_bump = bump_for_interval(tree, 1, 0, mp.mpf(1))

    # -- caches ------------------------------------------------------------

    def _interpolant(self, f: Callable, caches: tuple, j: int, s: int,
                     n_nodes: int) -> LocalInterpolant:
        values, interps = caches
        itp = interps.get((j, s))
        if itp is None or len(itp.points) < n_nodes:
            itp = LocalInterpolant(self.tree, j, s, n_nodes, values, f)
            interps[(j, s)] = itp
        return itp

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
        """x's state through level s_cap - 1; a new x replaces the old one.

        A level is stored only once both its audits have passed, so a broken
        locality raises again on every call.
        """
        pt = self._point
        if pt is None or pt.x != x:
            pt = self._point = _PointState(x, self._root_bump.value(x))
        while len(pt.stages) < s_cap:
            pt.stages.append(self._stage(x, len(pt.stages)))
        return pt

    def _stage(self, x, s: int) -> tuple:
        """Level s's live sets and nonzero cutoff values at x."""
        sched = self.schedule
        # widest cutoff in the accumulation stage: N = M_s + 1,
        # i.e. n = n_{s-1} - 1 (n = 1 at the root stage)
        t_hi_A = s + (sched.n[s - 1] - 1 if s else 1)
        live_A = self._live(s, t_hi_A, x, "accumulation", s)
        terms_A = []
        for j in live_A:
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
        live_T = self._live(s + 1, t_T, x, "transition", s)
        terms_T = []
        for k in live_T:
            u = self._bump(k, s + 1, t_T).value(x)
            if u != 0:
                terms_T.append((k, u))
        return live_A, terms_A, live_T, terms_T

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, f: Callable, x, norm_q: Optional[float] = None,
                 q: Optional[int] = None, s_max: Optional[int] = None) -> WValue:
        """The truncated operator at x, with the locality audit.

        ``norm_q``/``q`` (an upper bound of the order-q Whitney norm of f)
        switch on the certified truncation-error bound
        norm_q * 2^n * C0^{q-1} * (8 C0/7)^{2^n} * delta_{S+n} delta_S^{q-1},
        n = n_{S-1} - 1, valid for points of the set.  ``s_max`` may lower the
        truncation level per call (caches are shared across levels).
        """
        s_cap = self._level(self.s_max if s_max is None else s_max)
        bound = None
        if norm_q is not None and q is not None:
            bound = self.certified_bound(s_cap, norm_q, q)
        caches = self._per_f.setdefault(f, ({}, {}))
        sched = self.schedule
        with mp.workprec(self.tree.bits):
            x = mp.mpf(x) if not isinstance(x, mp.mpf) else x
            pt = self._state(x, s_cap)
            root = self._interpolant(f, caches, 1, 0, 2)
            total = root.partial(x, 1, pt.row(1, 0, root.points, 1)) \
                * pt.root_u
            nonzero_A, nonzero_T = [], []
            for s in range(s_cap):
                live_A, terms_A, live_T, terms_T = pt.stages[s]
                nonzero_A.append(list(live_A))
                nonzero_T.append(list(live_T))
                # increments L_N - L_{N-1} = [z_1..z_{N+1}]f * Omega_N(x)
                for j, terms in terms_A:
                    itp = self._interpolant(f, caches, j, s, sched.N(s) + 1)
                    omega = pt.row(j, s, itp.points, terms[-1][0])
                    for N, u in terms:
                        total += itp.coeffs[N] * omega[N] * u
                for k, u in terms_T:
                    j_parent = (k + 1) // 2
                    fine = self._interpolant(f, caches, k, s + 1,
                                             sched.M(s + 1) + 1)
                    coarse = self._interpolant(f, caches, j_parent, s,
                                               sched.N(s) + 1)
                    diff = fine.partial(x, sched.M(s + 1), pt.row(
                        k, s + 1, fine.points, sched.M(s + 1))) \
                        - coarse.partial(x, sched.N(s), pt.row(
                            j_parent, s, coarse.points, sched.N(s)))
                    total += diff * u
            return WValue(value=total, s_max=s_cap, nonzero_A=nonzero_A,
                          nonzero_T=nonzero_T, certified_bound=bound)

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
# finite-sample Whitney norms
# ---------------------------------------------------------------------------

@dataclass
class JetSample:
    """Function and derivative values on a finite subset of the set."""

    points: list                 # mpf
    derivs: list                 # derivs[p][i] = f^(p)(points[i]), mpf

    @property
    def order(self) -> int:
        return len(self.derivs) - 1


def polynomial_jet(tree: CantorTree, roots: Sequence, level: int,
                   support: tuple, order: int) -> JetSample:
    """Jet of the localized node polynomial prod (x - z): the polynomial on
    the points inside the support interval, the zero jet elsewhere."""
    j, s = support
    base = tree.interval(j, s)
    with mp.workprec(tree.bits):
        pts = []
        for iv in tree.levels[level]:
            for z in (iv.left, iv.right):
                if not pts or z != pts[-1]:
                    pts.append(z)
        coeffs = [mp.mpf(1)]
        for z in roots:
            coeffs = [mp.mpf(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= z * coeffs[i + 1]
        derivs = []
        for p in range(order + 1):
            row = []
            for z in pts:
                if base.left <= z <= base.right:
                    acc = mp.mpf(0)
                    for i in range(p, len(coeffs)):
                        fall = 1
                        for q_ in range(p):
                            fall *= (i - q_)
                        acc += coeffs[i] * fall * z ** (i - p)
                    row.append(acc)
                else:
                    row.append(mp.mpf(0))
            derivs.append(row)
    return JetSample(points=pts, derivs=derivs)


def whitney_norm(jet: JetSample, q: int, bits: int = 256) -> float:
    """Finite-sample Whitney norm of order q (a lower bound of the true norm).

    max derivative size plus the worst Taylor-remainder quotient
    |(R_y^q f)^(k)(x)| / |x-y|^{q-k} over sample pairs.  The remainders cancel
    catastrophically for polynomial jets, so the subtraction runs at ``bits``
    working precision before the division by the tiny distance powers.
    """
    if jet.order < q:
        raise InsufficientOrderError(
            f"jet carries derivatives to {jet.order}, norm needs {q}")
    pts, D = jet.points, jet.derivs
    m = len(pts)
    with mp.workprec(bits):
        best = max(abs(D[p][i]) for p in range(q + 1) for i in range(m))
        # remainders below the precision floor of the jet values are noise
        floor = best * mp.mpf(2) ** (16 - bits)
        for i in range(m):
            for j_ in range(m):
                if i == j_:
                    continue
                dx = pts[i] - pts[j_]
                for k in range(q + 1):
                    # (R_y^q f)^(k)(x) = f^(k)(x) - sum_i f^(k+i)(y) dx^i / i!
                    taylor = mp.mpf(0)
                    fact = 1
                    for i2 in range(q - k + 1):
                        if i2:
                            fact *= i2
                        taylor += D[k + i2][j_] * dx ** i2 / fact
                    rem = abs(D[k][i] - taylor)
                    if rem <= floor:
                        continue
                    quot = rem / abs(dx) ** (q - k)
                    if quot > best:
                        best = quot
        return float(best)


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
    fires: bool
    ln_bound_scaled: float   # brace * 2^{n+s} (inf-safe)
    ln_bound_full: float     # including the constant factors of the three bounds
    ln_f0_direct: Optional[float] = None   # direct grid max of ln|f|, if computed
    ln_f0_upper: Optional[float] = None


@dataclass
class DNReport:
    eps: float
    m: int
    rows: list
    diverges: bool   # scaled bounds strictly increase along the row order


def dn_experiment(model: GammaModel, eps: float, m: int,
                  r_list: Sequence[int], s_list: Sequence[int],
                  tree: Optional[CantorTree] = None) -> DNReport:
    """Certified lower bounds of the dominating-norm ratio for the localized
    node polynomials, per pair (r, s) of the equal-length lists.

    q = 2^m and r = 2^n; the three closed-form bounds (sup bound, derivative
    lower bound at 0, Whitney-norm bound 2 r!) combine into a lower bound of
    |f|_q^{1+eps} |f|_0^{-1} ||f||_r^{-eps} whose exponential part is
    2^{n+s} * brace.  When a tree of sufficient depth is available the sup
    |f|_0 is also maximized directly on the deepest grid and compared with its
    closed-form upper bound.
    """
    prof = make_profile(model)
    B = prof.B
    c0 = model.c0
    if len(r_list) != len(s_list):
        raise ParameterError("paired experiment needs equal-length lists")
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError("the dominating-norm bound needs a finite "
                             f"eps > 0, got {eps}")
    q = 2 ** m
    rows = []
    for r, s in zip(r_list, s_list):
        n = int(math.log2(r))
        if 2 ** n != r:
            raise ParameterError(f"r={r} is not a power of two")
        if m >= n:
            raise ParameterError(f"need q = 2^m < r = 2^n, got m={m}, n={n}")
        if s + n > model.k_max:
            raise HorizonError(f"(s={s}, n={n}) beyond horizon {model.k_max}")
        window_hi = math.fsum(B[s + n - i] for i in range(1, m + 1))
        window_lo = math.fsum(B[s + n - i] for i in range(m + 1, n + 1))
        brace = 2.0 * B[s + n] + window_hi - eps * window_lo
        ln_scaled = brace * 2.0 ** (s + n) if abs(brace) < 1e290 else math.copysign(math.inf, brace)
        # constants: |f^(q)(0)| >= q! (7/8)^{r-q} Pi2;  |f|_0 <= C0^r Pi1;
        # ||f||_r <= 2 r!
        ln_const = (1 + eps) * (math.lgamma(q + 1) + (r - q) * math.log(7 / 8)) \
            - r * math.log(c0) - eps * (LN2 + math.lgamma(r + 1))
        fires = brace >= B[s + n]
        rows.append(DNRow(s=s, n=n, r=r, brace=brace, threshold=B[s + n],
                          fires=fires, ln_bound_scaled=ln_scaled,
                          ln_bound_full=ln_scaled + ln_const))
        if tree is not None and s + n <= tree.depth:
            rows[-1].ln_f0_direct, rows[-1].ln_f0_upper = \
                _direct_sup_check(tree, s, n)
    vals = [row.ln_bound_scaled for row in rows]
    diverges = len(vals) >= 2 and all(a < b for a, b in zip(vals, vals[1:]))
    return DNReport(eps=eps, m=m, rows=rows, diverges=diverges)


def _direct_sup_check(tree: CantorTree, s: int, n: int) -> tuple:
    """max ln|f| over the depth grid vs the closed-form upper bound."""
    with mp.workprec(tree.bits):
        nodes = select_nodes(tree, (1, s), 2 ** n).points()
        base = tree.interval(1, s)
        best = -math.inf
        for iv in tree.levels[min(tree.depth, s + n)]:
            if not (base.left <= iv.left and iv.right <= base.right):
                continue
            for x in (iv.left, iv.right):
                if any(x == z for z in nodes):
                    continue
                val = math.fsum(ln_double(abs(x - z)) for z in nodes)
                best = max(best, val)
        L = tree.profile.ln_inv_deltas
        ln_upper = 2 ** n * math.log(tree.model.c0) - float(
            L[n + s] + sum(2 ** (i - 1) * L[n + s - i] for i in range(1, n + 1)))
    return best, ln_upper


# ---------------------------------------------------------------------------
# product-inequality checkers
# ---------------------------------------------------------------------------

def sorted_ln_distances(x, points: Sequence) -> list:
    """ln |x - z| over the points, ascending (the d_k sequence, k = 1..).

    Evaluates at the caller's working precision.
    """
    vals = []
    for z in points:
        d = abs(x - z)
        vals.append(-math.inf if d == 0 else ln_double(d))
    return sorted(vals)


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


def chain_product_minimum(Z_sorted: Sequence, j: int, q: int, bits: int) -> float:
    """ln of the minimal chain product for the window [j, j+q] (1-based).

    Chains extend the index window one step left or right until it covers
    [1, N+1]; each step multiplies by (z_b - z_a) of the current window.
    """
    N1 = len(Z_sorted)
    with mp.workprec(bits):
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
            pi_j = chain_product_minimum(Z, j, q, tree.bits)
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


def check_cutoff_product_bound(tree: CantorTree, interval: tuple, N: int,
                               x_grid: Sequence[float]) -> bool:
    """|(Omega_N u)^(p)(x)| <= 2^p (C0+1) c_p delta^{-p+1} N^p prod_{k>=2} d_k.

    Float-precision check (use shallow, double-friendly models): Omega_N from
    the first N increasing-type nodes, u the width-delta_{s+n} cutoff,
    derivative orders p = 0..P_MAX.
    """
    j, s = interval
    n = N.bit_length() - 1
    node_set = select_nodes(tree, interval, N)
    Z = [float(z) for z in node_set.points()]
    bump = bump_for_interval(tree, j, s, tree.delta_mpf(s + n))
    delta = float(bump.t)
    c0 = tree.model.c0
    cp = bump.c_p_table
    poly = np.poly(Z)  # Omega_N coefficients, highest first
    ders = [poly]
    for _ in range(P_MAX):
        ders.append(np.polyder(ders[-1]))
    for x in x_grid:
        useries = bump.series(x)
        omega = [float(np.polyval(d, x)) for d in ders]
        oseries = [omega[i] / math.factorial(i) for i in range(P_MAX + 1)]
        prod_series = []
        for p in range(P_MAX + 1):
            prod_series.append(sum(oseries[i] * useries[p - i] for i in range(p + 1)))
        ds = sorted(abs(x - z) for z in Z)
        tail = math.prod(ds[1:]) if len(ds) > 1 else 1.0
        for p in range(P_MAX + 1):
            lhs = abs(prod_series[p]) * math.factorial(p)
            rhs = 2.0 ** p * (c0 + 1.0) * cp[p] * delta ** (-p + 1) * N ** p * tail
            if not lhs <= rhs * (1 + 1e-9):
                return False
    return True
