"""Cantor-type set geometry: basic intervals, endpoints, nodes.

The set is the nested intersection of E_s = {x : P_{2^{s+1}}(x) <= 0} where
P_2(x) = x(x-1) and P_{2^{s+1}} = P_{2^s}(P_{2^s} + r_s).  Each level-s basic
interval I_{j,s} carries P_{2^s} monotonically from 0 (at the endpoint shared
with its parent) to -r_s (at the endpoint created at level s), so every
endpoint is the exact preimage of a chain of quadratic equations

    v_{i}^2 + r_i v_i = v_{i+1},        v_s = -r_s,

solved downward with the cancellation-free root formula; the branch at each
step is determined by the interval's binary address.  This is exact algebra
(no iteration), so endpoints carry the full working precision minus a few ulps
per level.

Geometry facts verified here: delta_s < l_{j,s} < C0 delta_s for the lengths,
and the central gap h_{j,s} > (1 - 4 gamma_{s+1}) l_{j,s} >= (7/8) l_{j,s}.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

import mpmath as mp
from mpmath.libmp import from_man_exp

from . import forking
from .errors import BracketError, DepthError, HorizonError, PrecisionError
from .gamma import GammaModel, profile
from .logreal import ln_double

LEFT, RIGHT = 0, 1

#: extra mantissa bits beyond log2(1/delta_D) kept as length headroom
GUARD_BITS = 96


def required_bits(model: GammaModel, depth: int) -> int:
    """Mantissa bits needed to resolve level-``depth`` lengths."""
    ln_inv_delta = sum(model.ln_inv_gamma[:depth], Fraction(0))
    # past 2^61 nats no precision resolves the lengths, and float() of a
    # sum near the doubles' edge, over ln 2, overflows
    if ln_inv_delta >= 1 << 61:
        return 1 << 62
    return int(float(ln_inv_delta) / math.log(2.0)) + GUARD_BITS


def max_depth_for_bits(model: GammaModel, bits: int) -> int:
    d = 0
    while d < min(10, model.k_max) and required_bits(model, d + 1) <= bits:
        d += 1
    return d


@dataclass
class BasicInterval:
    """One basic interval, endpoints at tree precision.

    ``addr`` is the left/right path from the root; ``left_type``/``right_type``
    are the levels at which the endpoints were created (their point types);
    ``ln_length`` is ``ln_double(right - left)`` at the tree's precision.
    """

    level: int
    index: int              # 1-based within the level
    left: mp.mpf
    right: mp.mpf
    addr: tuple
    left_type: int
    right_type: int
    ln_length: Optional[float] = None


@dataclass
class Node:
    x: mp.mpf
    type: int


@dataclass
class NodeSet:
    """Interpolation nodes on a basic interval, ordered by increasing type.

    The first 2^n entries (for any 2^n <= N) are exactly the zeros of
    P_{2^{s+n}} inside the interval; the remaining entries have type s+n.
    """

    interval: tuple  # (j, s)
    nodes: list      # of Node

    def points(self) -> list:
        return [n.x for n in self.nodes]


class CantorTree:
    """Depth-D tree of basic intervals for a gamma model."""

    def __init__(self, model: GammaModel, depth: int, bits: int,
                 levels: list, r_mpf: list):
        self.model = model
        self.profile = profile(model)
        self.depth = depth
        self.bits = bits
        self.levels = levels          # levels[s][j-1] -> BasicInterval
        self.r_mpf = r_mpf            # r_0..r_depth at tree precision
        self._delta_mpf: dict = {}    # k -> delta_mpf(k)

    def interval(self, j: int, s: int) -> BasicInterval:
        if not (0 <= s <= self.depth):
            raise DepthError(f"level {s} outside built depth {self.depth}")
        if not (1 <= j <= 2 ** s):
            raise DepthError(f"index {j} invalid at level {s}")
        return self.levels[s][j - 1]

    def children(self, iv: BasicInterval) -> tuple:
        if iv.level >= self.depth:
            raise DepthError(f"no children below level {self.depth}")
        below = self.levels[iv.level + 1]
        return below[2 * iv.index - 2], below[2 * iv.index - 1]

    def atoms(self, level: Optional[int] = None) -> list:
        """The basic intervals of the given (default deepest) level."""
        level = self.depth if level is None else level
        if not (0 <= level <= self.depth):
            raise DepthError(f"level {level} outside built depth {self.depth}")
        return list(self.levels[level])

    def delta_mpf(self, k: int) -> mp.mpf:
        """delta_k at full tree precision (exact dyadic log, rounded once);
        HorizonError outside 0..k_max."""
        d = self._delta_mpf.get(k)
        if d is None:
            fr = self.profile.ln_inv_delta(k)
            with mp.workprec(self.bits):
                d = self._delta_mpf[k] = _exp_neg(fr)
        return d


def _exp_neg(fr: Fraction) -> mp.mpf:
    """exp(-fr) at the working precision, for an exact log such as
    ln(1/gamma_k) or ln(1/delta_k)."""
    return mp.exp(-mp.mpf(fr.numerator) / fr.denominator)


def _r_chain(model: GammaModel, s: int) -> list:
    """[r_0, ..., r_s] at the working precision: r_0 = 1, r_k = gamma_k r_{k-1}^2;
    HorizonError for s past the model's horizon."""
    if s > model.k_max:
        raise HorizonError(f"r_{s} needs gamma_{s}, horizon {model.k_max}")
    r = [mp.mpf(1)]
    for k in range(1, s + 1):
        r.append(_exp_neg(model.ln_inv_gamma[k - 1]) * r[k - 1] ** 2)
    return r


_LOW64 = (1 << 64) - 1


def _sqrt(x: mp.mpf) -> mp.mpf:
    """mp.sqrt(x) for a finite x >= 0, bit for bit.

    mpmath's round-to-nearest ``mpf_sqrt``, with the floor root taken by C
    ``math.isqrt`` instead of the pure-Python backend's Newton iteration; the
    floor root is unique, so the result is the same.  ``mpf_sqrt``'s shortcut
    for powers of two is left out: the general path rounds them the same.
    """
    prec = mp.mp.prec
    _, man, exp, bc = x._mpf_
    if not man:
        return x
    if exp & 1:
        exp -= 1
        man <<= 1
        bc += 1
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    n = man << shift
    man = math.isqrt(n)
    low = man & _LOW64
    # n is a square only if man^2 agrees with it in the low 64 bits, a test
    # that spares almost every non-square the full product
    if (low * low - n) & _LOW64 or n != man * man:
        man = (man << 1) + 1             # perturb up, as mpf_sqrt does
        shift += 2
    return mp.make_mpf(from_man_exp(man, (exp - shift) // 2, prec, "n"))


def _level_points(s: int, r: list, half_r: list, quarter_r_sq: list):
    """The solver address -> type-s point for the level-s intervals.

    Solves P_{2^s}(x) = -r_s by inverting the quadratic chain with the
    cancellation-free root at each level; the branch at step i is "outer"
    exactly when addr[i] repeats addr[i - 1].  So the chain value after step i
    depends only on the flip pattern of addr[i-1:], and the discriminant at
    step i only on that of addr[i:]: both roots of one quadratic share it, and
    at the root so do an address and its mirror image.  The two memos belong
    to level s and are keyed by flip pattern; ``half_r`` and ``quarter_r_sq``
    hold r_i/2 and r_i^2/4.
    """
    values: dict = {}
    discs: dict = {}

    def disc(i: int, v: mp.mpf, pattern: tuple) -> mp.mpf:
        d = discs.get(pattern)
        if d is None:
            disc_sq = quarter_r_sq[i] + v
            if disc_sq < 0:
                raise BracketError(
                    f"negative discriminant at level {i}: invalid gamma sequence"
                    if i else "negative discriminant at the root level")
            d = discs[pattern] = _sqrt(disc_sq)
        return d

    def point(addr: Sequence[int]) -> mp.mpf:
        # flips[k - 1] tells whether addr[k] repeats addr[k - 1]
        flips = tuple(b == a for a, b in zip(addr, addr[1:]))
        v = -r[s]
        for i in range(s - 1, 0, -1):
            nxt = values.get(flips[i - 1:])
            if nxt is None:
                d = disc(i, v, flips[i:])
                if flips[i - 1]:                 # outer side of the parent
                    nxt = v / (half_r[i] + d)
                else:
                    nxt = -half_r[i] - d
                values[flips[i - 1:]] = nxt
            v = nxt
        d = disc(0, v, flips)
        if addr[0] == LEFT:
            return -v / (half_r[0] + d)
        return half_r[0] + d

    return point


def level_values(x: mp.mpf, r: Sequence, s: int) -> list:
    """[P_2(x), P_4(x), ..., P_{2^s}(x)] at the working precision.

    The forward recursion P_2 = x(x - 1), P_{2^{i+1}} = P_{2^i}(P_{2^i} + r_i),
    with r_i = ``r[i]`` (the tree's ``r_mpf``).  An intermediate sum v + r_i
    may cancel below the mantissa budget, losing the value's relative
    accuracy: residual measurements at endpoints evaluate exactly there,
    where the tiny result is the point.
    """
    v = x * (x - 1)
    out = [v]
    for i in range(1, s):
        v = v * (v + r[i])
        out.append(v)
    return out


#: 2^depth * bits^2 from which build_tree solves the deepest level in a
#: forked child while it solves the others.  Whole builds of EXAMPLE1 and
#: delta-form trees on 2 CPUs (mpmath's pure-Python backend; best of 15, of
#: 3 at 8192 bits), serial -> forked, by (depth, bits):
#:   (6, 1280) 2^26.6: 3.0 -> 3.9 ms      (8, 2048) 2^30: 16.2 -> 11.9 ms
#:   (7, 1024) 2^27:   5.5 -> 5.5 ms      (9, 2048) 2^31: 32 -> 21 ms
#:   (8, 1024) 2^28:  10.9 -> 8.8 ms      (10, 8192) 2^36: 394 -> 213 ms
#:   (7, 2048) 2^29:   8.1 -> 6.9 ms
#: A bare fork plus wait costs 1.3 ms from a 34 MB process and 4.4 ms from a
#: 334 MB one, so the threshold sits where the gain covers the larger cost.
_FORK_MIN_WORK = 2 ** 30


def _forks(depth: int, bits: int) -> bool:
    """Whether build_tree solves the deepest level in a second process: the
    level is big enough to pay for the fork, with a level above it to
    overlap, and ``forking.usable`` holds."""
    return (depth >= 2 and (2 ** depth) * bits * bits >= _FORK_MIN_WORK
            and forking.usable())


def _solve_level(s: int, r: list, half_r: list, quarter_r_sq: list) -> tuple:
    """(points, error): the type-s points of the level-s intervals in index
    order (the solver's addresses in lexicographic order), up to the first
    one that raised, and that exception or None."""
    point = _level_points(s, r, half_r, quarter_r_sq)
    pts = []
    try:
        for addr in product((LEFT, RIGHT), repeat=s):
            pts.append(point(addr))
    except Exception as exc:
        return pts, exc
    return pts, None


def _solve_raw(s: int, r: list, half_r: list, quarter_r_sq: list) -> tuple:
    """``_solve_level``'s result with the points as raw _mpf_ tuples: what
    the forked child sends back."""
    pts, exc = _solve_level(s, r, half_r, quarter_r_sq)
    return [p._mpf_ for p in pts], exc


def _nest(parents: list, s: int, pts: list) -> list:
    """The level-s intervals from their parents and the type-s points, pairs
    (c, d) in index order; PrecisionError unless l < c < d < r inside each
    parent [l, r].  A trailing point without its pair is left out."""
    cur = []
    for iv, c, d in zip(parents, pts[0::2], pts[1::2]):
        if not (iv.left < c < d < iv.right):
            raise PrecisionError(
                f"level-{s} points out of order inside I_{iv.index},{s - 1}; "
                "raise the mantissa budget")
        cur.append(BasicInterval(
            level=s, index=2 * iv.index - 1, left=iv.left, right=c,
            addr=iv.addr + (LEFT,), left_type=iv.left_type, right_type=s))
        cur.append(BasicInterval(
            level=s, index=2 * iv.index, left=d, right=iv.right,
            addr=iv.addr + (RIGHT,), left_type=s, right_type=iv.right_type))
    return cur


def build_tree(model: GammaModel, depth: Optional[int] = None,
               bits: int = 512) -> CantorTree:
    """Materialize the basic-interval tree to the requested depth.

    ``depth=None`` picks the largest depth (up to 10) whose level lengths are
    resolvable at ``bits``; an explicit depth beyond that budget raises
    DepthError.

    The levels do not depend on each other's points.  When ``_forks`` holds,
    a forked child solves the deepest level while this process solves the
    others; the child runs the same arithmetic at the same precision, so the
    tree is bit for bit the serial one, and it raises the same first error.
    The child is reaped on every path, and killed first if this process
    raises before its result is read.
    """
    if depth is None:
        depth = max_depth_for_bits(model, bits)
    if depth > model.k_max:
        raise DepthError(f"depth {depth} exceeds model horizon {model.k_max}")
    need = required_bits(model, depth)
    if need > bits:
        raise DepthError(
            f"depth {depth} needs ~{need} mantissa bits, have {bits}")
    with mp.workprec(bits):
        r = _r_chain(model, depth)
        half_r = [ri / 2 for ri in r]
        quarter_r_sq = [ri * ri / 4 for ri in r]
        root = BasicInterval(level=0, index=1, left=mp.mpf(0), right=mp.mpf(1),
                             addr=(), left_type=0, right_type=0)
        levels = [[root]]
        forked = (forking.child(lambda: _solve_raw(depth, r, half_r,
                                                   quarter_r_sq))
                  if _forks(depth, bits) else nullcontext())
        with forked as result:
            for s in range(1, depth + 1):
                if s == depth and result is not None:
                    raw, exc = result()
                    pts = [mp.make_mpf(t) for t in raw]
                else:
                    pts, exc = _solve_level(s, r, half_r, quarter_r_sq)
                levels.append(_nest(levels[s - 1], s, pts))
                if exc is not None:
                    raise exc
        for lvl in levels:
            for iv in lvl:
                iv.ln_length = ln_double(iv.right - iv.left)
    # only the nesting is checked here; verify_geometry reports the length
    # and gap bounds, which delta-form prefixes legitimately fail
    return CantorTree(model=model, depth=depth, bits=bits, levels=levels,
                      r_mpf=r)


def select_nodes(tree: CantorTree, interval: tuple, N: int) -> NodeSet:
    """N interpolation nodes on I_{j,s}, ordered by increasing type.

    Start from the interval's endpoints (older endpoint first); each pass
    appends, for every existing point in order, the opposite endpoint of the
    point's current-level basic subinterval.  Truncating to any shorter N is a
    prefix of the same sequence.
    """
    j, s = interval
    iv = tree.interval(j, s)
    if N < 1:
        raise ValueError("need at least one node")
    if iv.left_type <= iv.right_type:
        pts = [Node(iv.left, iv.left_type), Node(iv.right, iv.right_type)]
    else:
        pts = [Node(iv.right, iv.right_type), Node(iv.left, iv.left_type)]
    containers = [iv, iv]
    level = s
    while len(pts) < N:
        level += 1
        if level > tree.depth:
            raise DepthError(
                f"{N} nodes on I_{j},{s} need point types up to {level}, "
                f"tree depth is {tree.depth}")
        count = len(pts)
        for i in range(count):
            child_l, child_r = tree.children(containers[i])
            if pts[i].x == child_l.left:
                child, partner, ptype = child_l, child_l.right, level
            else:
                child, partner, ptype = child_r, child_r.left, level
            containers[i] = child
            if len(pts) < N:
                pts.append(Node(partner, ptype))
                containers.append(child)
    return NodeSet(interval=interval, nodes=pts[:N])


@dataclass
class LevelGeometry:
    level: int
    min_ln_l_over_delta: float
    max_ln_l_over_delta: float
    min_gap_over_len: float          # min over parents of h/l
    sharp_gap_bound: float           # 1 - 4 gamma_{s+1} (for the parents)
    length_bounds_ok: bool           # delta_s < l < C0 delta_s
    gap_bound_ok: bool               # h >= (7/8) l
    sharp_gap_ok: bool               # h > (1 - 4 gamma_{s+1}) l


@dataclass
class GeometryReport:
    levels: list
    all_ok: bool


def verify_geometry(tree: CantorTree) -> GeometryReport:
    """Check the two-sided length bounds and the gap bounds, per level.

    The strict inequalities have margins as small as gamma_{s+1} (doubly
    exponential in s), so the pass/fail flags are decided at full tree
    precision; the reported ratio statistics are double-grade.  log and
    correctly rounded division by delta_s > 0 are monotone, so only the
    shortest and longest length of a level are divided.  Their logs are
    ``ln_double``'s, float(mp.log(q)); ln q_lo > 0 is q_lo > 1, and since
    rounding to nearest is monotone, the double decides ln q_hi < ln C0
    unless it equals ln C0, where the log at tree precision decides.
    """
    out = []
    ln_c0 = 16.0 * tree.model.gamma_sum
    with mp.workprec(tree.bits):
        for s in range(1, tree.depth + 1):
            delta = tree.delta_mpf(s)
            lengths = [iv.right - iv.left for iv in tree.levels[s]]
            q_lo = min(lengths) / delta
            q_hi = max(lengths) / delta
            hi_m = ln_double(q_hi)
            hi_ok = hi_m < ln_c0 if hi_m != ln_c0 else mp.log(q_hi) < ln_c0
            parents = tree.levels[s - 1]
            g_m = mp.inf
            for iv in parents:
                cl, cr = tree.children(iv)
                g_m = min(g_m, (cr.left - cl.right) / (iv.right - iv.left))
            sharp = 1 - 4 * _exp_neg(tree.model.ln_inv_gamma[s - 1])
            out.append(LevelGeometry(
                level=s,
                min_ln_l_over_delta=ln_double(q_lo), max_ln_l_over_delta=hi_m,
                min_gap_over_len=float(g_m), sharp_gap_bound=float(sharp),
                length_bounds_ok=q_lo > 1 and hi_ok,
                gap_bound_ok=bool(g_m >= mp.mpf(7) / 8),
                sharp_gap_ok=bool(g_m > sharp)))
    return GeometryReport(levels=out, all_ok=all(
        l.length_bounds_ok and l.gap_bound_ok and l.sharp_gap_ok for l in out))


def endpoint_residuals(tree: CantorTree) -> list:
    """max_j |P_{2^{s+1}}(endpoint)| / r_s^2 per level s (both endpoints).

    All endpoints of level-s intervals are zeros of P_{2^{s+1}}; the residual
    is normalized by r_s^2, the natural scale of P_{2^{s+1}} on E_s.
    """
    out = []
    with mp.workprec(tree.bits):
        for s in range(1, tree.depth + 1):
            rs = tree.r_mpf[s]
            worst = mp.mpf(0)
            seen = set()
            for iv in tree.levels[s]:
                for x in (iv.left, iv.right):
                    key = id(x)
                    if key in seen:
                        continue
                    seen.add(key)
                    res = abs(level_values(x, tree.r_mpf, s + 1)[-1])
                    worst = max(worst, res / (rs * rs))
            out.append((s, float(mp.log(worst, 2)) if worst > 0 else -mp.inf))
    return out
