"""Markov factors: how fast differentiation grows on polynomials over a set.

M_n(K) is the best constant in |P'| <= M |P| over degree-n polynomials in the
sup norm of K.  For the Cantor-type sets the dyadic degrees satisfy
M_{2^k} ~ 2/delta_k, and monotonicity brackets every degree:
1/delta_k < M_n < 4/delta_{k+1} for 2^k <= n < 2^{k+1}.

The numeric estimator solves, per candidate extremum x*, the linear program
max P'(x*) over |P(x_i)| <= 1 on a grid, in the Chebyshev basis of the grid's
hull; the maximum over candidates estimates M_n of the grid.  All candidate
LPs of one estimate share the polytope {a : -1 <= V a <= 1}, so one HiGHS
model holds it and each candidate only changes the objective: the previous
optimal basis stays primal feasible and the re-solve is warm, a few simplex
iterations.  A solve that does not reach optimality is a stalled candidate:
it adds nothing to the maximum, and the solver's state is dropped so the next
candidate starts cold.  Most candidates are never solved: n + 1 grid points
bound |P'(x*)| by the Lagrange sum sum_b |l_b'(x*)|, and a candidate whose
certified bound lies below the maximum so far cannot raise it.  On [0, 1] at
n = 2 only the two endpoints are solved.  An independent lower-bound witness
comes from the level polynomial P_{2^s} + r_s/2, which maps the level domain
onto [-r_s/2, r_s/2].

scipy is imported on the first LP, so importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np
from numpy.polynomial import chebyshev as C

from .errors import DegreeError, HorizonError, ParameterError
from .gamma import GammaModel, profile as make_profile
from .geometry import CantorTree, level_values
from .logreal import LN2_FRACTION, LogReal, ln_double

LN2 = math.log(2.0)
EXTRA_CANDIDATES = 24   # stratified interior candidates per estimate


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
    stalled: bool            # some candidate LP did not converge


def chebyshev_grid(atoms: Sequence[tuple], points_per_atom: int) -> np.ndarray:
    """Chebyshev-distributed points (endpoints included) inside each atom."""
    xs = []
    m = points_per_atom
    nodes = (1.0 + np.cos(np.pi * np.arange(m) / (m - 1))) / 2.0
    for lo, hi in atoms:
        xs.append(lo + (hi - lo) * nodes[::-1])
    return np.unique(np.concatenate(xs))


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.  The package no
    longer calls it; the benchmark's tracer still wraps this binding."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def _highs():
    """scipy's private binding of the HiGHS solver that linprog(method="highs")
    drives; linprog rebuilds the model per call, the estimator keeps one and
    re-solves it."""
    from scipy.optimize._highspy import _core
    return _core


def _polytope_model(V: np.ndarray):
    """A HiGHS model of -1 <= V a <= 1 over free columns a, cost zero."""
    G, m = V.shape
    highs = _highs()
    model = highs._Highs()
    model.setOptionValue("output_flag", False)
    model.addVars(m, np.full(m, -highs.kHighsInf), np.full(m, highs.kHighsInf))
    model.addRows(G, np.full(G, -1.0), np.ones(G), G * m,
                  np.arange(0, G * m, m), np.tile(np.arange(m), G), V.ravel())
    return model


def candidate_lps(atoms: Sequence[tuple], n: int, points_per_atom: int = 16,
                  seed: int = 0) -> tuple:
    """(grid, V, dV, candidates) of the estimate: the grid, the
    Chebyshev-basis values and derivatives on it, and the ascending grid
    indices of the candidate extrema.

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
    lo, hi = grid[0], grid[-1]
    y = (2.0 * grid - (lo + hi)) / (hi - lo)
    V = C.chebvander(y, n)
    dmat = np.zeros((n + 1, n + 1))
    for j_ in range(n + 1):
        e = np.zeros(n + 1)
        e[j_] = 1.0
        d = C.chebder(e)
        dmat[j_, :len(d)] = d
    dV = np.column_stack(
        [C.chebval(y, dmat[j_]) for j_ in range(n + 1)]) * (2.0 / (hi - lo))

    first = np.where(grid <= atoms[0][1])[0]
    last = np.where(grid >= atoms[-1][0])[0]
    cand = set(first.tolist()) | set(last.tolist())
    rng = np.random.default_rng(seed)
    if len(grid) > len(cand):
        rest = np.setdiff1d(np.arange(len(grid)), np.array(sorted(cand)))
        take = min(EXTRA_CANDIDATES, len(rest))
        strata = np.array_split(rest, take)
        cand |= {int(rng.choice(s)) for s in strata if len(s)}
    return grid, V, dV, sorted(cand)


def _lagrange_derivative_bound(nodes: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """At each x of ``xs``, an upper bound on sum_b |l_b'(x)| over the Lagrange
    basis l_b of the distinct ``nodes``.

    A polynomial P of degree < len(nodes) with |P| <= 1 on the nodes is
    sum_b P(x_b) l_b, so |P'(x)| is at most that sum.  Off the nodes
    l_b'(x) = l_b(x) sum_{c != b} 1/(x - x_c); at a node x_a,
    |l_b'(x_a)| = prod_{c != a, b} |x_a - x_c| / prod_{c != b} |x_b - x_c| for
    b != a and |l_a'(x_a)| = |sum_{c != a} 1/(x_a - x_c)|.  The products are
    summed as logs, because differences of atoms 1e-12 wide underflow them.
    Each sum is widened by k 2^-52 times the sum of its terms' magnitudes, so
    rounding cannot make the bound understate, and the result by 1 + 1e-9.
    A product too large for a double makes the bound inf.
    """
    N = len(nodes)
    tol = (N + 4) * 2.0 ** -52
    dz = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dz, 1.0)
    lz = np.log(np.abs(dz))                # 0 on the diagonal
    w = lz.sum(axis=1)                     # ln prod_{c != b} |x_b - x_c|
    wa = np.abs(lz).sum(axis=1)
    inv_z = 1.0 / dz
    np.fill_diagonal(inv_z, 0.0)
    dx = xs[:, None] - nodes[None, :]
    hit = dx == 0
    dx[hit] = 1.0                          # those rows are replaced below
    lx = np.log(np.abs(dx))
    ln_l = lx.sum(axis=1)[:, None] - lx - w[None, :]     # ln |l_b(x)|
    ln_l += tol * (2 * np.abs(lx).sum(axis=1)[:, None] + wa[None, :] + 2 * N)
    inv = 1.0 / dx
    s = inv.sum(axis=1)[:, None] - inv                   # sum_{c != b} 1/(x - x_c)
    s = np.abs(s) + tol * np.abs(inv).sum(axis=1)[:, None]
    with np.errstate(over="ignore"):
        bound = (np.exp(ln_l) * s).sum(axis=1)
        at_node = np.exp(w[:, None] - lz - w[None, :]
                         + tol * (wa[:, None] + wa[None, :] + 2 * N))
    np.fill_diagonal(at_node, np.abs(inv_z.sum(axis=1))
                     + tol * np.abs(inv_z).sum(axis=1))
    rows, cols = np.nonzero(hit)
    bound[rows] = at_node[cols].sum(axis=1)
    return bound * (1 + 1e-9)


def markov_numeric(atoms: Sequence[tuple], n: int, points_per_atom: int = 16,
                   seed: int = 0, workers: int = 1) -> NumericMarkov:
    """Estimate M_n of the grid over the atoms by per-candidate LPs.

    By symmetry of the feasible set one maximization per candidate suffices.
    The candidates are solved in ascending order on one shared, warm-started
    model, so they run one after another and ``workers`` must be 1; the
    keyword stays only because existing callers pass ``workers=1``.

    A candidate whose certified bound U lies below the maximum so far,
    U (1 + 1e-6) < best, is skipped: no polynomial with |P| <= 1 on the grid
    has a larger derivative there, and the margin sits above HiGHS's 1e-7
    feasibility tolerance.  U is the Lagrange bound on the n + 1 grid points
    with the largest row duals of the best solution, recomputed whenever the
    maximum rises.  A skipped candidate is never solved, so ``stalled`` means
    that some solved candidate missed optimality.
    """
    if workers != 1:
        raise ParameterError("candidate LPs share one model; workers must be 1")
    grid, V, dV, order = candidate_lps(atoms, n, points_per_atom, seed)
    model = _polytope_model(V)
    optimal = _highs().HighsModelStatus.kOptimal
    cols = np.arange(n + 1)
    bound = np.full(len(order), math.inf)
    best, stalled = -math.inf, False
    for pos, idx in enumerate(order):
        if bound[pos] * (1 + 1e-6) < best:
            continue
        model.changeColsCost(n + 1, cols, -dV[idx])
        model.run()
        if model.getModelStatus() != optimal:
            model.clearSolver()   # the next candidate starts cold
            stalled = True
            continue
        value = -model.getObjectiveValue()
        if value > best:
            best = value
            duals = np.abs(model.getSolution().row_dual)
            basis = np.argsort(duals)[-(n + 1):]
            bound[pos + 1:] = _lagrange_derivative_bound(
                grid[basis], grid[order[pos + 1:]])
    return NumericMarkov(n=n, value=best, grid_size=len(V), stalled=stalled)


def tree_atom_bounds(tree: CantorTree) -> list:
    return [(float(iv.left), float(iv.right)) for iv in tree.atoms()]


def certificate_lower_bound(tree: CantorTree, s: int) -> float:
    """ln of a direct M_{2^s} witness: the scaled level polynomial.

    Q = (P_{2^s} + r_s/2) / (r_s/2) has |Q| <= 1 on the level-s domain, so
    max |Q'| over a grid of 8 equispaced points per level-s atom is a true
    lower bound for that grid's M_{2^s}.
    """
    if not 0 <= s <= tree.depth:
        raise HorizonError(f"certificate level {s} outside 0..{tree.depth}")
    best = -mp.inf
    r = tree.r_mpf
    with mp.workprec(tree.bits):
        for iv in tree.atoms(s):
            width = iv.right - iv.left
            for i in range(8):
                x = iv.left + width * mp.mpf(i) / 7
                # P'_{2^{i+1}} = P'_{2^i} (2 P_{2^i} + r_i), from P'_2 = 2x - 1
                dv = 2 * x - 1
                for lev, v in enumerate(level_values(x, r, s)[:-1], start=1):
                    dv = dv * (2 * v + r[lev])
                best = max(best, abs(dv) * 2 / r[s])
        return ln_double(best)


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
