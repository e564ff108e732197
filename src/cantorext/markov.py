"""Markov factors: how fast differentiation grows on polynomials over a set.

M_n(K) is the best constant in |P'| <= M |P| over degree-n polynomials in the
sup norm of K.  For the Cantor-type sets the dyadic degrees satisfy
M_{2^k} ~ 2/delta_k, and monotonicity brackets every degree:
1/delta_k < M_n < 4/delta_{k+1} for 2^k <= n < 2^{k+1}.

The numeric estimator takes, per candidate extremum x*, the linear program
max P'(x*) over |P(x_i)| <= 1 on a grid; the maximum over candidates
estimates M_n of the grid.  It solves the LP's dual in Lagrange form by
Stiefel's exchange: a basis is a set S of n + 1 grid points, its duals are
y_b = l_b'(x*) for the Lagrange basis l_b of S, its value is
U_S = sum_b |y_b|, an upper bound on the LP, and its polynomial
P_S = sum_b sign(y_b) l_b has P_S'(x*) = U_S.  Each step enters the grid
point where |P_S| is largest and the breakpoint ratio test picks the node
that leaves; at |P_S| <= 1 on the grid S is optimal.  There is no basis
matrix to ill-condition: the Lagrange values are products of differences of
grid points, taken in float64 with their binary exponents apart, so atoms
1e-12 wide neither underflow them nor lose the LPs.  Each candidate starts
from the previous one's S, and Bland's smallest-index rule breaks ties.

The reported value is a certified witness: P_S'(x*) bounded from below over
max |P_S| on the grid bounded from above, every rounding widened into the
bounds, a true lower bound on the grid's M_n.  A witness more than 1e-6
below its U_S is a stalled candidate and adds nothing.  Most candidates are
never solved: the best candidate's S bounds |P'(x)| at every other
candidate by its Lagrange sum sum_b |l_b'(x)|, and a candidate whose bound
lies below the maximum so far cannot raise it.  On [0, 1] at n = 2 only the
two endpoints are solved.  An independent lower-bound witness comes from
the level polynomial P_{2^s} + r_s/2, which maps the level domain onto
[-r_s/2, r_s/2].

The package does not use scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from .errors import DegreeError, HorizonError, ParameterError
from .gamma import GammaModel, profile as make_profile
from .geometry import CantorTree
from .logreal import LN2_FRACTION, LogReal

LN2 = math.log(2.0)
EXTRA_CANDIDATES = 24   # stratified interior candidates per estimate
STEP_CAP = 1000         # exchange steps per candidate


# ---------------------------------------------------------------------------
# closed-form brackets
# ---------------------------------------------------------------------------

@dataclass
class MarkovEstimate:
    n: int
    k: int                    # floor(log2 n)
    lower: LogReal            # 1/delta_k
    upper: LogReal            # 4/delta_{k+1}
    point: Optional[LogReal]  # 2/delta_k when n = 2^k

    def bracket_contains_ln(self, ln_value: float) -> bool:
        return self.lower.ln_mag <= ln_value <= self.upper.ln_mag


def markov_bounds(model: GammaModel, n: int) -> MarkovEstimate:
    """The dyadic bracket (1/delta_k, 4/delta_{k+1}) for 2^k <= n < 2^{k+1}."""
    if n < 2:
        raise ParameterError("the bracket needs degree n >= 2")
    k = n.bit_length() - 1
    if k + 1 > model.k_max:
        raise HorizonError(f"bracket for n={n} needs delta_{k + 1}, horizon {model.k_max}")
    prof = make_profile(model)
    L = prof.ln_inv_deltas
    lower = LogReal(L[k])
    upper = LogReal(L[k + 1] + 2 * LN2_FRACTION)
    point = LogReal(L[k] + LN2_FRACTION) if n == 2 ** k else None
    return MarkovEstimate(n=n, k=k, lower=lower, upper=upper, point=point)


# ---------------------------------------------------------------------------
# numeric estimator
# ---------------------------------------------------------------------------

@dataclass
class NumericMarkov:
    n: int
    value: float
    grid_size: int
    stalled: bool            # some solved candidate gave no witness


def chebyshev_grid(atoms: Sequence[tuple], points_per_atom: int) -> np.ndarray:
    """Chebyshev-distributed points (endpoints included) inside each atom."""
    xs = []
    m = points_per_atom
    nodes = (1.0 + np.cos(np.pi * np.arange(m) / (m - 1))) / 2.0
    for lo, hi in atoms:
        xs.append(lo + (hi - lo) * nodes[::-1])
    return np.unique(np.concatenate(xs))


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.  Nothing calls
    it and scipy is not a dependency; the benchmark's tracer still wraps
    this binding."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def estimate_grid(atoms: Sequence[tuple], n: int, points_per_atom: int = 16,
                  seed: int = 0) -> tuple:
    """(grid, candidates) of the estimate: the Chebyshev grid over the atoms
    and the ascending grid indices of the candidate extrema.

    Candidates where |P'| can peak are all grid points of the two extreme
    atoms plus a seeded stratified sample elsewhere.
    """
    if n > 32:
        raise DegreeError("numeric estimator supports degrees up to 32")
    if n < 1:
        raise DegreeError("degree must be >= 1")
    if points_per_atom < 2:
        raise ParameterError("each atom needs at least its 2 endpoints")
    atoms = sorted((float(a), float(b)) for a, b in atoms)
    grid = chebyshev_grid(atoms, points_per_atom)
    if len(grid) < 4 * n:
        raise ParameterError(f"grid of {len(grid)} points is below 4n = {4 * n}")
    first = np.where(grid <= atoms[0][1])[0]
    last = np.where(grid >= atoms[-1][0])[0]
    cand = set(first.tolist()) | set(last.tolist())
    rng = np.random.default_rng(seed)
    if len(grid) > len(cand):
        rest = np.setdiff1d(np.arange(len(grid)), np.array(sorted(cand)))
        take = min(EXTRA_CANDIDATES, len(rest))
        strata = np.array_split(rest, take)
        cand |= {int(rng.choice(s)) for s in strata if len(s)}
    return grid, sorted(cand)


def _lagrange_basis(nodes: np.ndarray, xs: np.ndarray) -> tuple:
    """(l, rel, dx, hit): l[i, b] is l_b(xs[i]) for the Lagrange basis l_b of
    the distinct ``nodes`` to within rel |l[i, b]| + 2^-1074, with the
    differences x - x_c and the mask of those that are 0.

    Where x is the node x_a its difference is taken as 1, so the row holds
    prod_{c != a, b} (x_a - x_c) / prod_{c != b} (x_b - x_c), which is
    l_b'(x_a) for b != a, and 1 at b = a.  The products multiply the
    mantissas of the differences and add their binary exponents as integers
    (``np.frexp``), because differences of atoms 1e-12 wide underflow a
    plain product; a quotient takes at most 4N - 2 roundings of 2^-53 (the
    differences, the two products and the two divisions) and is exact in
    its exponent until the result leaves the normal doubles.
    """
    N = len(nodes)
    dz = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dz, 1.0)
    mz, ez = np.frexp(dz)
    dx = xs[:, None] - nodes[None, :]
    hit = dx == 0
    dx[hit] = 1.0
    mx, ex = np.frexp(dx)
    m = mx.prod(axis=1)[:, None] / mx / mz.prod(axis=1)[None, :]
    e = ex.sum(axis=1)[:, None] - ex - ez.sum(axis=1)[None, :]
    with np.errstate(over="ignore", under="ignore"):
        l = np.ldexp(m, e)
    return l, (4 * N + 4) * 2.0 ** -53, dx, hit


def _lagrange_values(nodes: np.ndarray, xs: np.ndarray) -> tuple:
    """(l, err): l[i, b] is l_b(xs[i]) to within err[i, b].  A node's row is
    exactly its unit vector."""
    l, rel, _, hit = _lagrange_basis(nodes, xs)
    err = np.abs(l) * rel + 2.0 ** -1074
    on_node = hit.any(axis=1)
    l[on_node] = hit[on_node]
    err[on_node] = 0.0
    return l, err


def _lagrange_derivatives(nodes: np.ndarray, xs: np.ndarray) -> tuple:
    """(d, err): d[i, b] is l_b'(xs[i]) to within err[i, b].

    Off the nodes l_b'(x) = l_b(x) sum_{c != b} 1/(x - x_c); at a node x_a
    the basis rows already hold l_b'(x_a) for b != a, and l_a'(x_a) is
    sum_{c != a} 1/(x_a - x_c).  Each sum leaves out its own term before
    adding, since a 1/(x - x_b) that dwarfs the rest would otherwise cancel
    away their digits.
    """
    N = len(nodes)
    l, rel, dx, hit = _lagrange_basis(nodes, xs)
    inv = np.where(np.eye(N, dtype=bool), 0.0, (1.0 / dx)[:, None, :])
    s = inv.sum(axis=2)                    # sum_{c != b} 1/(x - x_c)
    s_err = (N + 2) * 2.0 ** -52 * np.abs(inv).sum(axis=2)
    on_node = hit.any(axis=1)[:, None] & ~hit
    f = np.where(on_node, 1.0, s)
    f_err = np.where(on_node, 0.0, s_err)
    with np.errstate(over="ignore", invalid="ignore"):
        d = l * f
        err = (np.abs(l) + 2.0 ** -1074) * (f_err + (np.abs(f) + f_err) * rel) \
            + np.abs(d) * 2.0 ** -52
    return d, err


def _lagrange_derivative_bound(nodes: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """At each x of ``xs``, an upper bound on sum_b |l_b'(x)| over the Lagrange
    basis l_b of the distinct ``nodes``.

    A polynomial P of degree < len(nodes) with |P| <= 1 on the nodes is
    sum_b P(x_b) l_b, so |P'(x)| is at most that sum.  A product too large
    for a double makes the bound inf.
    """
    d, err = _lagrange_derivatives(nodes, xs)
    with np.errstate(invalid="ignore"):
        return (np.abs(d) + err).sum(axis=1) * (1 + 1e-9)


def _state(grid: np.ndarray, j: int, basis: np.ndarray) -> tuple:
    """The basis S's duals y_b = l_b'(x_j) and P_S = sum_b sign(y_b) l_b on
    the grid: (y, y_err, L, P, P_err), where L[i, b] = l_b(x_i) and each
    error bounds the difference from the exact value."""
    nodes = grid[basis]
    y, y_err = _lagrange_derivatives(nodes, grid[j:j + 1])
    L, L_err = _lagrange_values(nodes, grid)
    P = (L * np.where(y[0] < 0, -1.0, 1.0)).sum(axis=1)
    # a sum of N terms rounds by at most N 2^-53 of their magnitudes
    P_err = L_err.sum(axis=1) + np.abs(L).sum(axis=1) * len(basis) * 2.0 ** -52
    return y[0], y_err[0], L, P, P_err


def _certified(y: np.ndarray, y_err: np.ndarray, P: np.ndarray,
               P_err: np.ndarray) -> tuple:
    """(slope, peak, U) of a basis: P_S'(x_j) from below, max |P_S| on the
    grid from above and U_S from above.  Each is widened by 1e-12, far above
    the (N + 4) 2^-53 that the sums forming it can round by."""
    slope = (np.abs(y).sum() - y_err.sum()) * (1 - 1e-12)
    peak = np.max(np.abs(P) + P_err) * (1 + 1e-12)
    U = (np.abs(y) + y_err).sum() * (1 + 1e-12)
    return slope, peak, U


def _exchange(grid: np.ndarray, j: int, basis: np.ndarray) -> tuple:
    """Maximise P'(x_j) over |P| <= 1 on the grid by the exchange on the dual.

    ``basis`` holds the grid indices of n + 1 points S and is updated in
    place.  Its duals are y_b = l_b'(x_j), its value U_S = sum_b |y_b|, and
    its polynomial P_S = sum_b sign(y_b) l_b has P_S'(x_j) = U_S.  While
    some grid point has |P_S| above 1 + 1e-9 by more than its rounding, the
    point where |P_S| is largest enters (after a step that did not lower
    U_S, the eligible one of smallest index: Bland's rule).  The duals then
    move along y_b - t sign(P_S(x_e)) l_b(x_e); the slope of the objective
    starts at 1 - |P_S(x_e)| and rises by 2 |l_b(x_e)| at each breakpoint
    where a y_b reaches 0, and the node whose breakpoint makes it
    non-negative leaves, the smallest index among tied breakpoints.

    Returns (witness, U): the certified P_S'(x_j) / max |P_S|, a true lower
    bound on the grid's M_n, and the certified U_S, an upper bound on the
    LP at x_j.  The witness is None when it lies more than 1e-6 relative
    below U, when a Lagrange value overflows, or after STEP_CAP steps.
    """
    u_prev = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(STEP_CAP):
            y, y_err, L, P, P_err = _state(grid, j, basis)
            u = np.abs(y).sum()
            if not (math.isfinite(u) and np.all(np.isfinite(P_err))):
                return None, math.inf
            eligible = np.nonzero(np.abs(P) - P_err > 1 + 1e-9)[0]
            if not len(eligible):
                slope, peak, U = _certified(y, y_err, P, P_err)
                witness = slope / peak * (1 - 2.0 ** -52)
                return (witness if witness >= U * (1 - 1e-6) else None), U
            bland = not u < u_prev * (1 - 1e-12)
            u_prev = u
            e = eligible[0] if bland else int(np.argmax(np.abs(P)))
            le = L[e]
            sign_y = np.where(y < 0, -1.0, 1.0)
            falling = np.nonzero(np.sign(P[e]) * sign_y * le > 0)[0]
            tau = np.abs(y[falling]) / np.abs(le[falling])
            rank = np.lexsort((basis[falling], tau))
            slope = 1 - abs(P[e]) + 2 * np.cumsum(np.abs(le[falling[rank]]))
            k = int(np.argmax(slope >= 0))
            if not slope[k] >= 0:
                return None, math.inf
            k = int(np.argmax(tau[rank] == tau[rank][k]))   # first of its ties
            basis[falling[rank[k]]] = e
    return None, math.inf


def markov_numeric(atoms: Sequence[tuple], n: int, points_per_atom: int = 16,
                   seed: int = 0, workers: int = 1) -> NumericMarkov:
    """Estimate M_n of the grid over the atoms by the exchange per candidate.

    By symmetry of the feasible set one maximization per candidate suffices.
    The candidates are solved in ascending order, each starting from the
    previous one's basis, so they run one after another and ``workers`` must
    be 1; the keyword stays only because existing callers pass ``workers=1``.

    The value is the largest certified witness, a true lower bound on the
    grid's M_n.  A candidate whose certified Lagrange bound U lies below it
    is skipped: no polynomial with |P| <= 1 on the grid has a larger
    derivative there.  U is taken on the basis of the best candidate,
    recomputed whenever the maximum rises.  ``stalled`` means that some
    solved candidate gave no witness within 1e-6 of its U; it adds nothing
    to the value, and the next candidate starts from the spread basis.
    """
    if workers != 1:
        raise ParameterError("candidates share one basis; workers must be 1")
    grid, order = estimate_grid(atoms, n, points_per_atom, seed)
    order = np.array(order)
    spread = np.linspace(0, len(grid) - 1, n + 1).round().astype(np.intp)
    basis = spread.copy()
    bound = np.full(len(order), math.inf)
    best, stalled = -math.inf, False
    for pos, idx in enumerate(order):
        if bound[pos] < best:
            continue
        witness, _ = _exchange(grid, idx, basis)
        if witness is None:
            stalled = True
            basis = spread.copy()
            continue
        if witness > best:
            best = witness
            bound[pos + 1:] = _lagrange_derivative_bound(
                grid[basis], grid[order[pos + 1:]])
    return NumericMarkov(n=n, value=best, grid_size=len(grid), stalled=stalled)


def tree_atom_bounds(tree: CantorTree) -> list:
    return [(float(iv.left), float(iv.right)) for iv in tree.atoms()]


# ---------------------------------------------------------------------------
# the crossover table
# ---------------------------------------------------------------------------

@dataclass
class RatioRow:
    k: int
    j: int                 # dip index with k_j <= k+1 < k_{j+1}
    branch: str            # "interior" (k <= k_{j+1}-2) or "handoff" (k = k_{j+1}-1)
    ln_bound: float        # ln 4 + ln delta_k^(1) - ln delta_{k+1}^(2)


@dataclass
class RatioTable:
    rows: list
    decreasing_negative_from: Optional[int]  # first k from which rows strictly decrease and stay < 0


def ratio_table(model1: GammaModel, model2: GammaModel,
                k_range: Sequence[int]) -> RatioTable:
    """Markov-factor crossover bounds M_n(K_2)/M_n(K_1) < 4 delta_k^(1)/delta_{k+1}^(2).

    model1 must be the constant-weight family with B > 1 (so its factors grow
    strictly faster); model2 the dip family.  The bound is reported per k in
    exact log arithmetic, with the dip-branch label.
    """
    if model1.family != "example1" or model1.params.get("B", 0) <= 1.0:
        raise ParameterError("crossover table needs the constant-weight family with B > 1")
    if model2.family != "example2":
        raise ParameterError("model2 must be the dip family")
    p1, p2 = make_profile(model1), make_profile(model2)
    kj = model2.meta["kj"]
    rows = []
    for k in k_range:
        if k + 1 > min(model1.k_max, model2.k_max):
            raise HorizonError(f"k={k} beyond built horizons")
        j = max(i + 1 for i, v in enumerate(kj) if v <= k + 1)
        branch = "handoff" if kj[j - 1] == k + 1 else "interior"
        ln_bound = float(LN2 * 2) + float(-p1.ln_inv_delta(k) + p2.ln_inv_delta(k + 1))
        rows.append(RatioRow(k=k, j=j, branch=branch, ln_bound=ln_bound))
    start = None
    for i in range(len(rows)):
        tail = rows[i:]
        if len(tail) >= 2 and all(r.ln_bound < 0 for r in tail) and \
                all(a.ln_bound > b.ln_bound for a, b in zip(tail, tail[1:])):
            start = rows[i].k
            break
    return RatioTable(rows=rows, decreasing_negative_from=start)
