"""Hausdorff contents, level sums and lower densities of Cantor-type sets.

Contents are computed at atom resolution: a set is presented as finitely many
disjoint closed intervals (deepest-level basic intervals of a tree, or the
truncated island family of the isolated-point example), and the optimal
covering by closed intervals is found exactly.  Since a dimension function is
nondecreasing, any covering interval may shrink to the hull of the atoms it
covers, so the optimum is over partitions into consecutive runs and a
quadratic DP finds it.

All lengths travel as ln(1/length): tree atoms at depth D can be shorter than
exp(-1000), far below the double range, while their h-costs are moderate.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import chain
from operator import add
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import from_float, to_float

from .errors import DepthError, DomainError, ParameterError
from .dimension import LogPower
from .geometry import CantorTree
from .kernel import _add, _sub
from .logreal import ln_double, ln_doubles_fixed

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# atom providers
# ---------------------------------------------------------------------------

def _root(atoms):
    if atoms.clipped:
        raise ParameterError("a clipped view cannot be clipped again; "
                             "clip its root provider")


def _run(atoms, lo, hi):
    """The run of a root provider's atoms meeting the open window (lo, hi),
    or None.

    Atoms are sorted and disjoint, so the kept ones (right > lo and left <
    hi) are the run i0 <= i < i1 found by bisection: of ``keys``, with each
    window end as the floor or ceiling that the keys compare like the end
    itself.  Returns ``(i0, i1, lo_cut, hi_cut)``, each end the window's
    value where it cuts the end atom and None where not: everything the
    ``_clip`` view depends on.  Raises ParameterError for a clipped view.
    """
    _root(atoms)
    lefts, rights = atoms.keys
    lo_floor, lo_ceil = atoms.key(lo)
    hi_floor, hi_ceil = atoms.key(hi)
    i0 = bisect_right(rights, lo_floor)
    i1 = bisect_left(lefts, hi_ceil)
    if i0 >= i1 or not lo_ceil < hi_floor and not lo < hi:
        return None
    return (i0, i1, lo if lefts[i0] < lo_ceil else None,
            hi if rights[i1 - 1] > hi_floor else None)


def _clip(atoms, lo, hi, run=None):
    """The atoms of a root provider meeting the open window (lo, hi), end
    atoms clamped to it.

    Returns a copy of the provider over the run ``_run`` finds (``run``,
    when the caller has it already), or None when the window meets none.
    The view shares everything but its per-atom lists, which are copied (a
    numpy slice is a view of its array), so clipping never writes into
    ``atoms``.  Raises ParameterError for a clipped view.
    """
    _root(atoms)
    if run is None:
        run = _run(atoms, lo, hi)
        if run is None:
            return None
    i0, i1, lo_cut, hi_cut = run
    view = copy.copy(atoms)
    for name in atoms.per_atom:
        setattr(view, name, getattr(atoms, name)[i0:i1].copy())
    view.clipped = True
    view.clamped = (lo_cut is not None, hi_cut is not None)
    if lo_cut is not None:
        view.lefts[0] = lo_cut
    if hi_cut is not None:
        view.rights[-1] = hi_cut
    return view


def _scaled(v, scale: int) -> tuple:
    """floor(v 2^scale) and ceil(v 2^scale) for an mpf or a double v; an
    infinity or NaN stays a float, which ints compare with as with v."""
    t = getattr(v, "_mpf_", None) or from_float(float(v))
    sign, man, exp, _ = t
    if not man:
        v = to_float(t)
        return (0, 0) if v == 0 else (v, v)
    shift = exp + scale
    if shift >= 0:
        n = -man << shift if sign else man << shift
        return n, n
    q = man >> -shift
    inexact = q << -shift != man
    return (-q - inexact, -q) if sign else (q, q + inexact)


_NO_SPANS = np.empty(0)
# entries per block: span logs per ``ln_doubles_fixed`` call of TreeAtoms
# (whole rows, so up to twice this), and h values made Python floats at a
# time in ``content_dp``.  Big enough to spread numpy's per-call cost over
# the entries; small enough that a block's span ints and their integer
# stages (some 400 bytes an entry, and up to a kilobyte more at 8192 bits)
# add little to the peak memory: 4096 raised the density benchmark's peak
# RSS by 2.2 MB, 1024 by about 1 MB.
_BLOCK = 1024


class _Atoms:
    """Sorted disjoint atoms: ascending ``lefts`` and ``rights`` and a row of
    span logs ``ln_inv_span_starts(j)`` = ln(1/(right_j - left_i)), i <= j.

    Rows come from one memo per root provider, which every clipped view
    shares: ``ids`` holds each atom's index in the root, and the memo holds
    for root atom j the span logs over a run of starts i <= j that ends at j.
    Every row asks for such a run, so a memo entry only grows at its front.
    ``_fill`` grows many rows at once: a provider supplies ``_columns(rows)``,
    for each (starts, j) the span logs from the atoms in ``starts`` (a range
    ending at or before j) to atom j.  An entry that starts or ends on a
    clamped end depends on the window, so it is computed by
    ``_clamped_column`` on every call and never stored.

    ``clip`` takes the root only (``clipped`` is False there), and
    ``clamped`` tells whether a view cut the left end of its first atom and
    the right end of its last.  ``keys`` holds the root's lefts and rights
    for bisection, and ``key(v)`` a window end's floor and ceiling in their
    units: here the values themselves.  Each provider binds ``clip`` and
    ``ln_inv_span_starts`` in its own namespace, where the benchmark's span
    recorder wraps them per class.
    """

    per_atom = ("lefts", "rights", "ids")
    clipped = False
    clamped = (False, False)

    def __init__(self, lefts, rights):
        self.lefts = lefts
        self.rights = rights
        self.keys = (lefts, rights)
        self.ids = np.arange(len(lefts))
        self._memo = {}

    @staticmethod
    def key(v) -> tuple:
        return v, v

    @staticmethod
    def window(x, r) -> tuple:
        """The ends x - r and x + r of the window of radius r around x."""
        return x - r, x + r

    @property
    def count(self) -> int:
        return len(self.lefts)

    def _clamped_column(self, starts, j: int) -> np.ndarray:
        return self._column(starts, j)

    def _columns(self, rows):
        return (self._column(starts, j) for starts, j in rows)

    def _fill(self, firsts: dict) -> None:
        """Memo the unclamped span logs of each row j from start
        ``firsts[j]`` on (local indices), in one ``_columns`` call for all
        that the memo lacks.  The columns arrive one by one, and each is
        copied into the memo as it comes."""
        rows, keys = [], []
        for j, first in firsts.items():
            key = int(self.ids[j])
            stop = j + 1 - len(self._memo.get(key, _NO_SPANS))
            if first < stop:
                rows.append((range(first, stop), j))
                keys.append(key)
        for key, col in zip(keys, self._columns(rows)):
            self._memo[key] = np.concatenate(
                (col, self._memo.get(key, _NO_SPANS)))

    def ln_inv_span_starts(self, j: int) -> np.ndarray:
        head, tail = self.clamped
        if tail and j == self.count - 1:
            return self._clamped_column(range(j + 1), j)
        need = j + 1 - head  # unclamped starts head..j, root ids[head]..ids[j]
        key = int(self.ids[j])
        memo = self._memo.get(key, _NO_SPANS)
        if len(memo) < need:
            self._fill({j: head})
            memo = self._memo[key]
        if head:
            return np.concatenate((self._clamped_column(range(1), j),
                                   memo[len(memo) - need:]))
        return memo[len(memo) - need:].copy()


class FloatAtoms(_Atoms):
    """Plain double-precision atoms (tests, synthetic sets)."""

    def __init__(self, intervals: Sequence[tuple]):
        ivs = sorted((float(a), float(b)) for a, b in intervals)
        if not ivs:
            raise ParameterError("need at least one atom")
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            if b1 >= a2:
                raise ParameterError("atoms must be disjoint and sorted")
        if any(a >= b for a, b in ivs):
            raise ParameterError("atoms must have positive length")
        super().__init__(np.array([a for a, _ in ivs]),
                         np.array([b for _, b in ivs]))

    def _column(self, starts, j: int) -> np.ndarray:
        return -np.log(self.rights[j] - self.lefts[starts.start:starts.stop])

    ln_inv_span_starts = _Atoms.ln_inv_span_starts
    clip = _clip


class TreeAtoms(_Atoms):
    """Deepest-level basic intervals of a tree, span logs at the tree's
    precision rounded to doubles (``ln_double``).

    ``keys`` holds every endpoint as an exact int at one scale 2^-F, F the
    largest -exponent of a nonzero endpoint, so bisection compares ints:
    ``key`` turns a window end into its floor and ceiling at that scale.
    An unclamped span is the int difference D of two keys, and its log is
    ``ln_double_fixed(D, F)``: the double ``ln_double`` gives for right -
    left, the mpf that D 2^-F rounds to.  ``_columns`` takes these logs in
    blocks (``ln_doubles_fixed``).  A double-double log decides each where
    its error bound (2^-69 + |E| 2^-82 for a span g 2^E, 2^-57 |ln| within
    2^-3 of 1) leaves the log that far from every midpoint between two
    doubles; elsewhere the working-precision log does: 1 of the 12,459 logs
    of the density benchmark's tree operations (12,448 spans in 13 blocks,
    and 11 radii), the span of exactly 1.  A clamped end is a
    window's value, off the scale: spans from or to it are taken in mpf
    (``_clamped_column``).
    """

    def __init__(self, tree: CantorTree, level: Optional[int] = None):
        self.bits = tree.bits
        ivs = tree.atoms(level)
        super().__init__([iv.left for iv in ivs], [iv.right for iv in ivs])
        self.scale = max(-v._mpf_[2] for v in self.lefts + self.rights
                         if v._mpf_[1])
        self.keys = tuple([self.key(v)[0] for v in ends]
                          for ends in (self.lefts, self.rights))

    def key(self, v) -> tuple:
        return _scaled(v, self.scale)

    def window(self, x, r) -> tuple:
        """x - r and x + r at the tree's precision, on the integer kernel:
        the mpf operators' values, bit for bit, so a clamped end and the
        window's key are theirs."""
        a, b = x._mpf_, r._mpf_
        return (mp.make_mpf(_sub(a, b, self.bits)),
                mp.make_mpf(_add(a, b, self.bits)))

    def _columns(self, rows):
        """The rows' span logs from one ``ln_doubles_fixed`` call per block
        of about ``_BLOCK`` entries, whole rows to a block, so that only one
        block's span ints and logs are alive at a time."""
        lefts, rights = self.keys
        a = int(self.ids[0])
        ds, cuts = [], []
        for n, (starts, j) in enumerate(rows, 1):
            R = rights[a + j]
            ds += [R - L for L in lefts[a + starts.start:a + starts.stop]]
            cuts.append(len(ds))
            if len(ds) >= _BLOCK or n == len(rows):
                with mp.workprec(self.bits):
                    # 0.0 - y, not -y: a span of exactly 1 logs +0.0
                    logs = 0.0 - ln_doubles_fixed(ds, self.scale)
                yield from np.split(logs, cuts[:-1])
                ds, cuts = [], []

    def _clamped_column(self, starts, j: int) -> np.ndarray:
        with mp.workprec(self.bits):
            R = self.rights[j]
            return np.array([0.0 - ln_double(R - self.lefts[i]) for i in starts],
                            dtype=float)

    ln_inv_span_starts = _Atoms.ln_inv_span_starts
    clip = _clip


def q_rule_constant(Q: float) -> Callable[[int], float]:
    return lambda k: float(Q)


def q_rule_log() -> Callable[[int], float]:
    return lambda k: max(2.0, math.log(k))


@dataclass
class IslandFamily:
    """The isolated-point family: K = {0} + union I_k, I_k = [a_k, b_k].

    b_k = e^-k and |I_k| = b_k^{Q_k} with Q_k >= 2 nondecreasing.  Truncation
    keeps islands k <= k_max plus the residual atom [0, b_{k_max+1}], whose
    one-interval cost equals the exact tail content.
    """

    q_rule: Callable[[int], float]
    k_max: int

    def Q(self, k: int) -> float:
        q = float(self.q_rule(k))
        if not (math.isfinite(q) and q >= 2.0):
            raise ParameterError("island exponents need finite Q_k >= 2, "
                                 f"got Q_{k} = {q}")
        return q

    def b(self, k: int) -> float:
        return math.exp(-k)

    def a(self, k: int) -> float:
        return self.b(k) - math.exp(-k * self.Q(k))

    def atoms(self, k_from: int = 1) -> "IslandAtoms":
        return IslandAtoms(self, k_from=k_from)

    def island_pair(self, k: int) -> "IslandAtoms":
        return IslandAtoms(replace(self, k_max=k + 1), k_from=k, residual=False)


class IslandAtoms(_Atoms):
    """Atom provider over an island family, span logs by closed form.

    Atom order is ascending position: the residual [0, b_{K+1}] first (the
    one atom with k > k_max), then I_K, ..., I_{k_from}.  The per-atom arrays
    ``ks`` and ``kq`` hold each atom's k and ln(1/length): k Q_k for I_k, and
    k for the residual, whose left end 0 = e^-k - e^-k fits the same form.
    A column of span logs is one numpy expression in these exponents (log1p
    of the relative correction), so islands far below the double range still
    cost correctly; a span that starts or ends on a clamped end is taken in
    doubles, entry by entry.
    """

    per_atom = ("lefts", "rights", "ids", "ks", "kq")

    def __init__(self, fam: IslandFamily, k_from: int = 1,
                 residual: bool = True):
        self.fam = fam
        ks = list(range(fam.k_max, k_from - 1, -1))
        kq = [k * fam.Q(k) for k in ks]
        lefts = [fam.a(k) for k in ks]
        if residual:
            ks.insert(0, fam.k_max + 1)
            kq.insert(0, float(fam.k_max + 1))
            lefts.insert(0, 0.0)
        if not ks:
            raise ParameterError("empty atom set")
        super().__init__(lefts, [fam.b(k) for k in ks])
        self.ks = np.array(ks)
        self.kq = np.array(kq)

    def _column(self, starts, j: int) -> np.ndarray:
        # i < j: span = e^-kj - e^-ki + e^-kq_i
        #             = e^-kj (1 - e^-(ki-kj) + e^-(kq_i-kj)); i = j: |atom j|
        below = slice(starts.start, min(starts.stop, j))
        kj = self.ks[j]
        col = kj - np.log1p(np.exp(kj - self.kq[below])
                            - np.exp(kj - self.ks[below]))
        return np.append(col, self.kq[j]) if starts.stop > j else col

    def _clamped_column(self, starts, j: int) -> np.ndarray:
        spans = [self.rights[j] - self.lefts[i] for i in starts]
        if min(spans) <= 0:
            raise DomainError("clipped span collapsed at double precision")
        return np.array([-math.log(span) for span in spans])

    ln_inv_span_starts = _Atoms.ln_inv_span_starts
    clip = _clip


# ---------------------------------------------------------------------------
# contents
# ---------------------------------------------------------------------------

def _floats(h_block) -> list:
    block = h_block.tolist()
    if math.isnan(sum(block)):  # h >= 0, so only a NaN makes the sum NaN
        raise DomainError("h is NaN on a span")
    return block


@dataclass
class ContentResult:
    value: float
    runs: list  # [(i, j)] covering runs, inclusive atom indices


def content_dp(atoms, h) -> ContentResult:
    """Exact optimal covering cost of the atoms under h, with the covering.

    cost(j) = min_{i <= j} cost(i-1) + h(right_j - left_i): any covering
    interval shrinks onto the hull of the atoms it covers (h nondecreasing),
    so consecutive-run partitions exhaust the optima.  The first minimum
    wins a tie.  Raises DomainError where h gives NaN.
    """
    m = atoms.count
    if not atoms.clipped:  # a view's rows: filled by ``_scan``, or one by one
        atoms._fill(dict.fromkeys(range(m), 0))
    # h once over the triangle of span logs, row j at offset j(j+1)/2; the
    # recurrence on Python floats, whose per-row cost is far below numpy's
    # at the few atoms of a scan window
    hs = h.h_ln(np.concatenate([atoms.ln_inv_span_starts(j)
                                for j in range(m)]))
    # as Python floats a block at a time: a list of the whole triangle
    # would take 32 bytes an entry
    row = chain.from_iterable(_floats(hs[i:i + _BLOCK])
                              for i in range(0, len(hs), _BLOCK))
    cost, back = [0.0], []
    for _ in range(m):
        vals = list(map(add, cost, row))  # takes len(cost) entries of row
        best = min(vals)
        cost.append(best)
        back.append(vals.index(best))
    runs = []
    j = m - 1
    while j >= 0:
        i = back[j]
        runs.append((i, j))
        j = i - 1
    runs.reverse()
    return ContentResult(value=cost[m], runs=runs)


def content_exhaustive(atoms, h) -> float:
    """Brute-force optimum over all run partitions (oracle, <= ~16 atoms)."""
    m = atoms.count
    if m > 16:
        raise ParameterError("exhaustive oracle limited to 16 atoms")
    spans = [h.h_ln(atoms.ln_inv_span_starts(j)) for j in range(m)]
    best = math.inf
    for mask in range(1 << (m - 1)):
        total, start = 0.0, 0
        for j in range(m):
            if j == m - 1 or (mask >> j) & 1:
                total += float(spans[j][start])
                start = j + 1
        best = min(best, total)
    return best


# ---------------------------------------------------------------------------
# level sums
# ---------------------------------------------------------------------------

@dataclass
class LevelSum:
    level: int
    value: float
    lower: float   # 1, by h(delta_k) = 2^-k and l > delta_k
    upper: float   # 2^k h(min(C0 delta_k, 1))


def lambda_level_estimate(tree: CantorTree, h, k: int) -> LevelSum:
    """sum_j h(l_{j,k}) with its bracketing constants.  Each length is at
    most C0 delta_k and below 1, and h does not decrease, so the upper one
    takes h at min(C0 delta_k, 1): C0 delta_k passes 1 where C0 is large
    (example3's, at the first levels)."""
    if k > tree.depth:
        raise DepthError(f"level {k} beyond tree depth {tree.depth}")
    if k == 0:
        # single interval of length 1: boundary case reported raw
        return LevelSum(level=0, value=1.0, lower=1.0, upper=1.0)
    vals = np.array([-iv.ln_length for iv in tree.levels[k]])
    total = float(np.sum(h.h_ln(vals)))
    L_k = float(tree.profile.ln_inv_delta(k))
    upper = 2.0 ** k * h.h_ln(max(L_k - math.log(tree.model.c0), 0.0))
    return LevelSum(level=k, value=total, lower=1.0, upper=float(upper))


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

@dataclass
class DensityRow:
    ln_inv_r: float
    x_label: str
    phi: float


@dataclass
class DensityPoint:
    ln_inv_r: float
    inf_phi: float
    ratio: float     # inf_phi / h(2r)


@dataclass
class DensityTable:
    """Ratios phi(r)/h(2r) over the radius grid, r decreasing along per_r.

    ``liminf_estimate`` is the running minimum restricted to the deepest half
    of the radii: a liminf concerns r -> 0 only, so ratios at the shallow end
    of the grid (where clamped prefixes distort the geometry) must not pin the
    estimate.  It remains exactly that, an estimate at the horizon.
    """

    rows: list            # DensityRow (optionally thinned)
    per_r: list           # DensityPoint, r decreasing
    liminf_estimate: float
    analytic_limit: Optional[float] = None

    def running_min(self) -> list:
        out, cur = [], math.inf
        for p in self.per_r:
            cur = min(cur, p.ratio)
            out.append(cur)
        return out


def _scan(atoms, h, r_items, x_items, analytic_limit, keep_rows) -> DensityTable:
    """Density table over the radii and centres.  Many windows repeat, so
    phi is solved once per ``_run`` key, in a memo of this call (h fixed).
    The span rows of every run are filled first, in one pass."""
    windows, firsts = [], {}
    for ln_inv_r, r_native in r_items:
        found = []
        for label, x in x_items:
            lo, hi = atoms.window(x, r_native)
            key = _run(atoms, lo, hi)
            if key is not None:
                found.append((label, lo, hi, key))
        windows.append((ln_inv_r, found))
    for i0, i1, lo_cut, hi_cut in {w[3] for _, found in windows
                                   for w in found}:
        first = i0 + (lo_cut is not None)
        for j in range(first, i1 - (hi_cut is not None)):
            firsts[j] = min(firsts.get(j, first), first)
    atoms._fill(firsts)
    rows, per_r, solved = [], [], {}
    for ln_inv_r, found in windows:
        phis = []
        for label, lo, hi, key in found:
            phi = solved.get(key)
            if phi is None:
                phi = solved[key] = content_dp(atoms.clip(lo, hi, key),
                                               h).value
            phis.append(phi)
            if keep_rows:
                rows.append(DensityRow(ln_inv_r=ln_inv_r, x_label=label, phi=phi))
        if not phis:
            continue
        inf_phi = min(phis)
        ratio = inf_phi / h.h_ln(ln_inv_r - LN2)
        per_r.append(DensityPoint(ln_inv_r=ln_inv_r, inf_phi=inf_phi, ratio=ratio))
    per_r.sort(key=lambda p: p.ln_inv_r)  # r decreasing = ln(1/r) increasing
    tail = per_r[len(per_r) // 2:]
    liminf = min((p.ratio for p in tail), default=math.nan)
    return DensityTable(rows=rows, per_r=per_r, liminf_estimate=liminf,
                        analytic_limit=analytic_limit)


def density_scan_tree(tree: CantorTree, h, k_range: Sequence[int],
                      analytic_limit: Optional[float] = None,
                      keep_rows: bool = False) -> DensityTable:
    """Density table of a Cantor-type set at the extremal radii.

    Radii r_k = (7/8) delta_{k-1}, centres x the deepest atoms' left ends.
    Where the gap bound h >= (7/8) l holds above level k, each gap beside a
    level-k interval is wider than r_k, so a window takes exactly the atoms
    of x's level-k interval; at k = 2, delta-form prefixes fail it (half the
    windows take two level-2 intervals for b = 2, all for b = 1.8).  The
    ratio needs h(2r), so k = 1 (r = 7/8) is rejected.
    """
    atoms = TreeAtoms(tree)
    with mp.workprec(tree.bits):
        r_items = []
        for k in k_range:
            if not 1 <= k <= tree.depth:
                raise DepthError(f"k={k} outside tree depth")
            r = mp.mpf(7) / 8 * tree.delta_mpf(k - 1)
            if 2 * r >= 1:
                raise DomainError(f"k={k}: radius r = {float(r):.6g} has "
                                  "2r >= 1, outside the domain of h")
            r_items.append((-ln_double(r), r))
        x_items = [(f"atom{i}", a) for i, a in enumerate(atoms.lefts)]
        return _scan(atoms, h, r_items, x_items, analytic_limit, keep_rows)


def density_scan_islands(fam: IslandFamily, h, k_list: Sequence[int],
                         keep_rows: bool = False) -> DensityTable:
    """Density table of the island family at radii r_k = b_k - b_{k+1}."""
    atoms = fam.atoms()
    r_items = []
    for k in k_list:
        if not 1 <= k < fam.k_max:
            raise DomainError(f"k={k} outside island horizon")
        r = fam.b(k) - fam.b(k + 1)
        r_items.append((-math.log(r), r))
    xs = [("origin", 0.0)]
    for k in range(1, fam.k_max + 1):
        xs.append((f"a{k}", fam.a(k)))
        xs.append((f"b{k}", fam.b(k)))
    return _scan(atoms, h, r_items, xs, None, keep_rows)


# ---------------------------------------------------------------------------
# the k-th-root extension test and order comparison
# ---------------------------------------------------------------------------

@dataclass
class RootTest:
    k_values: list
    a_values: list
    horizon_value: float
    analytic_limit: float
    verdict: str      # "yes" / "no"
    rule: str


def ep_root_test(h: LogPower, k_values: Sequence[int]) -> RootTest:
    """a_k = (ln 1/h^{-1}(2^-k))^{1/k} and the induced-set verdict.

    The verdict comes from the closed form of the family (the limit equals
    2^{1/alpha0}); a_k itself converges only at triple-log speed for the
    corrected exponents, so the horizon value is a diagnostic, not a decision.
    """
    if not k_values:
        raise ParameterError("the root test needs at least one k")
    a_vals = []
    for k in k_values:
        w = h.inverse_lnln(k * LN2)
        a_vals.append(math.exp(w / k))
    return RootTest(k_values=list(k_values), a_values=a_vals,
                    horizon_value=a_vals[-1], analytic_limit=h.root_limit,
                    verdict=h.ep_case,
                    rule=f"limit of a_k is 2^(1/alpha0) = {h.root_limit:.6g}; "
                         "extension operator exists iff that limit is 2")


@dataclass
class OrderReport:
    lnt_grid: list
    eta_diff: list       # eta1 - eta2
    classification: str  # "h1 << h2" | "h2 << h1" | "equivalent" | "incomparable-at-horizon"


def compare_dimension_functions(h1, h2, lnt_grid: Sequence[float]) -> OrderReport:
    """Order h1 vs h2 from eta traces on the grid.

    h1 << h2 means h1 = o(h2), i.e. eta1 - eta2 -> +infinity.  Finite data
    only supports a trend call, so bounded oscillation classifies as
    equivalent and everything unclear as incomparable-at-horizon.
    """
    grid = sorted(float(v) for v in lnt_grid)
    d = [float(h1.eta_ln(v) - h2.eta_ln(v)) for v in grid]
    third = max(1, len(d) // 3)
    early = sum(d[:third]) / third
    late = sum(d[-third:]) / third
    trend = late - early
    spread = max(d) - min(d)
    if abs(trend) <= 0.75 and spread <= 4.0:
        cls = "equivalent"
    elif trend > 1.5:
        cls = "h1 << h2"
    elif trend < -1.5:
        cls = "h2 << h1"
    else:
        cls = "incomparable-at-horizon"
    return OrderReport(lnt_grid=grid, eta_diff=d, classification=cls)
