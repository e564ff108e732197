"""Independent checkers that only the unit tests use.

Each one re-derives a quantity the package computes, or checks an inequality
the construction relies on, by a second route: sign bisection for the
algebraic endpoint chain, a model's gamma_k as a double, a float Taylor
series of the cutoff u beside the mpf ``BumpSpec.value`` the operator
runs, a log-power dimension function's h(t) from its log form and its
analytic h', a level-polynomial lower bound for the
Markov factor of a grid, the whole Newton table built order by order on
mpmath's operations, which the grown tables and their integer kernel
replaced, the grown table's loop with one kernel call per operation, which
the inlined loop replaced, with the division the loop writes out,
finite-sample Whitney norms of the localized node polynomials, the direct
grid maximum of a node polynomial beside its closed-form bound, the
uniform-smallness block inequality on the profile's exact logs, the
cutoff's components merged atom by atom, which the tree walk replaced, the
covering DP's recurrence on numpy arrays, which the one on Python floats
replaced, and the Markov estimator's Chebyshev-basis LPs on HiGHS, which
the exchange replaced.  Tests import them by name
(``from oracles import series``), as they import ``criterion`` from
conftest.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import fzero, mpf_div, mpf_pos, mpf_sub, round_nearest
from numpy.polynomial import chebyshev as C

from cantorext import markov
from cantorext.bump import BumpSpec, bump_for_interval
from cantorext.dimension import LogPower
from cantorext.errors import (DomainError, HorizonError, NodeCollisionError,
                              ParameterError)
from cantorext.extension import (_DD_FLOOR, _DD_GUARD, _DD_SLACK, NewtonTable,
                                  _raw)
from cantorext.gamma import GammaModel, Profile
from cantorext.geometry import (LEFT, BasicInterval, CantorTree, level_values,
                                select_nodes)
from cantorext.kernel import _mag, _rounded, _sub
from cantorext.logreal import ln_double

P_MAX = 3


# ---------------------------------------------------------------------------
# geometry: the endpoint chain by sign bisection
# ---------------------------------------------------------------------------

def refine_endpoint_bisection(tree: CantorTree, iv: BasicInterval) -> tuple:
    """Re-derive the inner endpoint of ``iv`` by plain sign bisection.

    Independent cross-check for the algebraic chain: bisects
    P_{2^s}(x) + r_s = 0 between the parent's outer endpoint (value +r_s) and
    the middle of the central gap (value < 0), driven purely by signs of the
    forward evaluation.  Returns (value, |difference to the stored endpoint|).
    """
    s = iv.level
    if s < 1:
        raise ValueError("the root has no inner endpoint")
    with mp.workprec(tree.bits):
        parent = tree.interval((iv.index + 1) // 2, s - 1)
        child_l, child_r = tree.children(parent)
        gap_mid = (child_l.right + child_r.left) / 2

        def f(x):
            return level_values(x, tree.r_mpf, s)[-1] + tree.r_mpf[s]

        if iv.addr[-1] == LEFT:
            a, b, inner = parent.left, gap_mid, iv.right
        else:
            a, b, inner = gap_mid, parent.right, iv.left
        fa = f(a)
        for _ in range(tree.bits // 2 + s * 8):
            mid = (a + b) / 2
            if mid == a or mid == b:
                break
            fm = f(mid)
            if fm == 0:
                a = b = mid
                break
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
        x = (a + b) / 2
        return x, abs(x - inner)


# ---------------------------------------------------------------------------
# extension: the whole Newton table, order by order
# ---------------------------------------------------------------------------

def order_major_divided_differences(points: Sequence, values: Sequence) -> tuple:
    """``divided_differences`` as one table built order by order: for each
    order k, every entry (i, k) from the entries (i, k - 1) and (i + 1, k - 1),
    with the same running error exponents and division precisions, and
    every division through mpf_div.  Returns the coefficients (mpf) and
    their error exponents."""
    n = len(points)
    prec, rnd = mp.mp.prec, round_nearest
    z = [_raw(v) for v in points]
    table = [_raw(v) for v in values]
    err = [_mag(t) - prec for t in table]
    coeffs, errs = [table[0]], [err[0] + _DD_SLACK]
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
                q = mpf_div(d, dz, prec, rnd)
                err[i] = e_d - _mag(dz) + 1
            table[i] = q
        coeffs.append(table[0])
        errs.append(err[0] + _DD_SLACK)
    return [mp.make_mpf(c) for c in coeffs], errs


def _div(d, dz, p: int):
    """mpf_div(d, dz, p, round_nearest), bit for bit: for nonzero d and dz
    the mantissas' quotient to at least p + 4 bits and below it a sticky
    bit, set by a remainder, rounded once.  Equal mantissas give
    +-2^(exp_d - exp_dz) without a division: the order-1 entries of W(x),
    where d == dz, are the only exact quotients the operator's tables meet.
    A zero operand goes to mpf_div.  ``NewtonTable.grow`` writes it out."""
    sign, man, exp, bc = d
    zsign, zman, zexp, zbc = dz
    if not (man and zman):
        return mpf_div(d, dz, p, round_nearest)
    if man == zman:
        return sign ^ zsign, 1, exp - zexp, 1
    extra = max(p - bc + zbc + 5, 5)
    q, r = divmod(man << extra, zman)
    return _rounded(sign ^ zsign, (q << 1) | bool(r), exp - zexp - extra - 1,
                    p)


def helper_grow(table: NewtonTable, points: Sequence,
                values: Sequence) -> None:
    """``NewtonTable.grow`` with one kernel call per operation: for each new
    node n and order k, dz = z_n - z_{n-k} and d = t - old[k - 1] through
    ``_sub``, the shortening of dz through ``_rounded`` and the quotient
    through ``_div``, with ``max``/``min`` for the running exponents.  Same
    prefix check, same finiteness and collision errors, same fields."""
    if len(points) != len(values):
        raise ParameterError("points and values must pair up")
    prec, held = table.prec, len(table.points)
    if len(points) < held or any(
            a != b for a, b in zip(points, table.points)):
        raise ParameterError("points must begin with the table's nodes")
    for i in range(held, len(points)):
        if not mp.isfinite(points[i]):
            raise ParameterError(f"node {i} is not finite")
        if not mp.isfinite(values[i]):
            raise ParameterError(f"f has no finite value at node {i}")
    z = table._z
    for zn, vn in zip(points[held:], values[held:]):
        z_n, n = _raw(zn), len(z)
        old, e_old = table._diag, table._err
        t = _raw(vn)
        e = _mag(t) - prec
        diag, err = [t], [e]
        for k in range(1, n + 1):
            dz = _sub(z_n, z[n - k], prec)
            if dz == fzero:
                raise NodeCollisionError(
                    f"nodes {n - k} and {n} coincide at working precision")
            d = _sub(t, old[k - 1], prec)
            if d[1]:
                m = d[2] + d[3]
                e_d = max(e, e_old[k - 1], m - prec)
                p = min(prec, max(m - e_d + _DD_GUARD, _DD_FLOOR))
                if dz[3] > p:
                    dz = _rounded(dz[0], dz[1], dz[2], p)
                t = _div(d, dz, p)
                mq = t[2] + t[3]
                e = max(mq - (m - e_d), mq - p)
            else:
                e_d = max(e, e_old[k - 1], _mag(d) - prec)
                t = _div(d, dz, prec)
                e = e_d - _mag(dz) + 1
            diag.append(t)
            err.append(e)
        z.append(z_n)
        table._diag, table._err = diag, err
        table.points.append(zn)
        table.coeffs.append(mp.make_mpf(t))
        table.errs.append(e + _DD_SLACK)


# ---------------------------------------------------------------------------
# extension: finite-sample Whitney norms of the localized node polynomials
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
    """Finite-sample Whitney norm of order q (a lower bound of the true norm):
    the check of the 2 r! Whitney-norm bound in ``dn_experiment``.

    max derivative size plus the worst Taylor-remainder quotient
    |(R_y^q f)^(k)(x)| / |x-y|^{q-k} over sample pairs.  The remainders cancel
    catastrophically for polynomial jets, so the subtraction runs at ``bits``
    working precision before the division by the tiny distance powers.
    """
    if jet.order < q:
        raise ValueError(f"jet carries derivatives to {jet.order}, "
                         f"norm needs {q}")
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


def direct_sup_check(tree: CantorTree, s: int, n: int) -> tuple:
    """max ln|f| over the depth grid vs the closed-form upper bound, for
    f = prod (x - z) over the first 2^n nodes of I_{1,s}: the sup bound
    |f|_0 <= C0^r Pi1 of ``dn_experiment``."""
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
# gamma: a model's gamma_k as a double, and the block inequality on the
# exact logs
# ---------------------------------------------------------------------------

def gamma_float(model: GammaModel, k: int) -> float:
    """gamma_k = exp(-ln(1/gamma_k)) as a double, 0.0 from e^-700 on;
    HorizonError outside 1..k_max."""
    if not 1 <= k <= model.k_max:
        raise HorizonError(f"k={k} outside horizon 1..{model.k_max}")
    v = model.ln_inv_gamma[k - 1]
    return math.exp(-float(v)) if v < 700 else 0.0


def block_inequality_fails(prof: Profile, eps: float, m: int, s: int,
                           n: int) -> bool:
    """Whether B_{s+n-m} + ... + B_{s+n} >= eps (B_s + ... + B_{s+n-m-1}),
    B_k = ln(1/delta_k) / 2^{k+1}, decided on the profile's exact logs
    scaled by 2^{s+n+1}, so that every term is an integer multiple of a log.
    It is ``dn_experiment``'s firing condition."""
    L, top = prof.ln_inv_deltas, s + n
    scaled = lambda lo, hi: sum(L[k] * 2 ** (top - k) for k in range(lo, hi))
    return scaled(top - m, top + 1) >= Fraction(eps) * scaled(s, top - m)


# ---------------------------------------------------------------------------
# cutoffs: float Taylor series of u and its shoulder constants
# ---------------------------------------------------------------------------

def merge_atoms(atom_bounds: Sequence[tuple], t, bits: int = 53) -> list:
    """Merge sorted disjoint atoms whose gaps are <= t/3, atom by atom: the
    reference for the components of ``bump_for_interval``'s tree walk."""
    with mp.workprec(bits):
        margin = t / mp.mpf(3)
        comps = []
        for lo, hi in atom_bounds:
            if comps and lo - comps[-1][1] <= margin:
                comps[-1] = (comps[-1][0], hi)
            else:
                comps.append((lo, hi))
    return comps


def step_series(y: float, order: int = P_MAX) -> tuple:
    """Taylor coefficients (f, f', f''/2!, f'''/3!) of the step at y (floats).

    S = 1/(1 + E) with E = exp(phi), phi(y) = 1/y - 1/(1-y), whose series is
    explicit; exp and the reciprocal are then power series in phi - phi(y)
    and E - E(y).  Evaluated through mpmath: E(y) is exp(+-1/y)-sized near
    the edges, which overflows plain float evaluation even though the
    coefficients are tiny there.
    """
    if y <= 1e-9:
        return (0.0,) + (0.0,) * order
    if y >= 1 - 1e-9:
        return (1.0,) + (0.0,) * order
    with mp.workprec(120):
        ym = mp.mpf(y)
        phi = tuple((-1) ** n / ym ** (n + 1) - 1 / (1 - ym) ** (n + 1)
                    for n in range(order + 1))
        e0 = mp.exp(phi[0])
        E = _series_compose(phi, [e0 / mp.factorial(j) for j in range(order + 1)])
        S = _series_compose(E, [(-1) ** j / (1 + e0) ** (j + 1)
                                for j in range(order + 1)])
        return tuple(float(c) for c in S)


def _series_mul(a: tuple, b: tuple) -> tuple:
    order = len(a) - 1
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1))
                 for k in range(order + 1))


def _series_compose(a: tuple, weights: Sequence) -> tuple:
    """The series of sum_j weights[j] (a - a[0])^j to the order of ``a``;
    with weights[j] = g^(j)(a[0]) / j! that is the series of g(a)."""
    dev = (0,) + tuple(a[1:])
    out = [weights[0]] + [0] * (len(a) - 1)
    power = (1,) + (0,) * (len(a) - 1)
    for w in weights[1:]:
        power = _series_mul(power, dev)
        out = [o + w * c for o, c in zip(out, power)]
    return tuple(out)


def series(spec: BumpSpec, x: float, order: int = P_MAX) -> tuple:
    """Taylor coefficients of u at x, float precision (for p <= 3 checks)."""
    m = float(spec.t) / 3.0
    prod = (1.0,) + (0.0,) * order
    any_active = False
    for lo, hi in spec.components:
        lo, hi = float(lo), float(hi)
        if x <= lo - 2 * m or x >= hi + 2 * m:
            continue
        any_active = True
        rise = step_series((x - (lo - 2 * m)) / m, order)
        fall = step_series(((hi + 2 * m) - x) / m, order)
        # chain rule for the linear arguments: d/dx = (1/m) d/dy, -(1/m) d/dy
        rise = tuple(c / m ** i for i, c in enumerate(rise))
        fall = tuple(c * (-1 / m) ** i for i, c in enumerate(fall))
        b = _series_mul(rise, fall)
        one_minus = tuple((1.0 if i == 0 else 0.0) - c for i, c in enumerate(b))
        prod = _series_mul(prod, one_minus)
    if not any_active:
        return (0.0,) + (0.0,) * order
    return tuple((1.0 if i == 0 else 0.0) - c for i, c in enumerate(prod))


def c_p_table(spec: BumpSpec) -> tuple:
    """Empirical sup |u^(p)| t^p for p = 0..3, clamped monotone in p.

    The shoulder constants c_p are not canonical; they are measured on a fine
    grid per cutoff (normalized by t, so they depend only on the component
    layout) and are used by the derivative-bound checks, nothing else.
    """
    t = float(spec.t)
    xs = []
    m = t / 3.0
    for lo, hi in spec.components:
        lo, hi = float(lo), float(hi)
        xs.append(np.linspace(lo - 2 * m, lo - m, 400))
        xs.append(np.linspace(hi + m, hi + 2 * m, 400))
    grid = np.concatenate(xs)
    sup = [0.0] * (P_MAX + 1)
    for x in grid:
        ser = series(spec, float(x))
        fact = 1.0
        for p in range(P_MAX + 1):
            if p:
                fact *= p
            sup[p] = max(sup[p], abs(ser[p] * fact) * t ** p)
    cp = []
    cur = 1.0
    for p in range(P_MAX + 1):
        cur = max(cur, sup[p])
        cp.append(cur)
    return tuple(cp)


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
    cp = c_p_table(bump)
    poly = np.poly(Z)  # Omega_N coefficients, highest first
    ders = [poly]
    for _ in range(P_MAX):
        ders.append(np.polyder(ders[-1]))
    for x in x_grid:
        useries = series(bump, x)
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


# ---------------------------------------------------------------------------
# dimension functions: a log-power h and its analytic h'
# ---------------------------------------------------------------------------

def content_dp_numpy(atoms, h) -> tuple:
    """(value, runs) of the covering DP, its recurrence on numpy arrays: a
    row's costs are one array sum and ``np.argmin`` picks the first
    minimum (or the first NaN)."""
    m = atoms.count
    hs = h.h_ln(np.concatenate([atoms.ln_inv_span_starts(j)
                                for j in range(m)]))
    cost = np.zeros(m + 1)
    back = np.zeros(m, dtype=int)
    start = 0
    for j in range(m):
        vals = cost[:j + 1] + hs[start:start + j + 1]
        start += j + 1
        i = int(np.argmin(vals))
        cost[j + 1] = float(vals[i])
        back[j] = i
    runs = []
    j = m - 1
    while j >= 0:
        i = int(back[j])
        runs.append((i, j))
        j = i - 1
    runs.reverse()
    return float(cost[m]), runs


def log_power_h(h: LogPower, t: float) -> float:
    """h(t) for t in (0, 1), from the package's log form h_ln(ln 1/t)."""
    if not 0 < t < 1:
        raise DomainError("t must lie in (0, 1)")
    return h.h_ln(-math.log(t))


def h_prime(h: LogPower, t: float) -> float:
    """dh/dt, analytic (for the derivative-bound checks); t a double.

    h = exp(-alpha ln L) with L = ln(1/t), dL/dt = -1/t, and
    d(eps_m)/dt = eps_m^2 / (t * prod_{i=1}^{m-1} log_(i)(1/t)).
    """
    L = -math.log(t)
    a = h.alpha_ln(L)
    h_val = L ** (-a)
    da_dt = 0.0
    if h.eps_sign != 0:
        eps = h.eps(L)
        if eps < h._eps_cap * 0.999999:  # inside the live domain
            prod, y = 1.0, L
            for _ in range(h.m - 1):
                prod *= y
                y = math.log(y)
            da_dt = h.eps_sign * eps * eps / (t * prod)
    return h_val * (a / (t * L) - da_dt * math.log(L))


def check_derivative_bound(h: LogPower, t_grid: Sequence[float]) -> bool:
    """h'(t) <= h(t) h0(t) alpha(t)/t for alpha0, alpha0+eps; <= h h0/t for alpha0-eps.

    Strict for the perturbed exponents; the constant-exponent case is exact
    equality, accepted here with a 1e-12 slack.
    """
    for t in t_grid:
        L = -math.log(t)
        h_val = h.h_ln(L)
        hp = h_prime(h, t)
        if h.eps_sign >= 0:
            bound = h_val * (1.0 / L) * h.alpha_ln(L) / t
        else:
            bound = h_val * (1.0 / L) / t
        if not hp <= bound * (1 + 1e-12):
            return False
    return True


# ---------------------------------------------------------------------------
# markov: a level-polynomial witness
# ---------------------------------------------------------------------------

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
# markov: the Chebyshev-basis LPs on HiGHS
# ---------------------------------------------------------------------------

def chebyshev_lps(atoms: Sequence[tuple], n: int, points_per_atom: int = 16,
                  seed: int = 0) -> tuple:
    """(grid, V, dV, candidates): the estimator's grid and candidates with
    the Chebyshev-basis values V and derivatives dV on the grid, in the
    variable of the grid's hull mapped onto [-1, 1].  The candidate LP at
    x_j is max dV[j] a over -1 <= V a <= 1."""
    grid, order = markov.estimate_grid(atoms, n, points_per_atom, seed)
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
    return grid, V, dV, order


def _highs():
    """scipy's private binding of the HiGHS solver that linprog(method="highs")
    drives; linprog rebuilds the model per call, the oracle keeps one and
    re-solves it."""
    from scipy.optimize._highspy import _core
    return _core


def _polytope_model(V: np.ndarray):
    """A HiGHS model of -1 <= V a <= 1 over free columns a, cost zero."""
    G, m = V.shape
    core = _highs()
    model = core._Highs()
    model.setOptionValue("output_flag", False)
    model.addVars(m, np.full(m, -core.kHighsInf), np.full(m, core.kHighsInf))
    model.addRows(G, np.full(G, -1.0), np.ones(G), G * m,
                  np.arange(0, G * m, m), np.tile(np.arange(m), G), V.ravel())
    return model


def exhaustive_markov(atoms: Sequence[tuple], n: int, points_per_atom: int = 16,
                      seed: int = 0) -> dict:
    """The HiGHS estimator the exchange replaced, without its certified skip:
    every candidate solved in ascending order on one warm-started model of
    the Chebyshev-basis polytope.  Maps each candidate's grid index to
    (LP value, |row duals|), or to None where the solve missed optimality
    (the next solve then starts cold).

    A candidate solved after a failed one can report ``kOptimal`` with a
    value far below the LP's: on power_law a = 2, depth 3, n = 16 at 8
    points per atom the last candidate gives 69,883 where the exchange's
    witness, confirmed at 256 bits, is 273,781, and across the estimates
    with a failed candidate such values run up to 30 times too low.  Compare
    per candidate only in estimates where every candidate is optimal."""
    _, V, dV, order = chebyshev_lps(atoms, n, points_per_atom, seed)
    model = _polytope_model(V)
    optimal = _highs().HighsModelStatus.kOptimal
    cols = np.arange(n + 1)
    out = {}
    for idx in order:
        model.changeColsCost(n + 1, cols, -dV[idx])
        model.run()
        if model.getModelStatus() == optimal:
            out[idx] = (-model.getObjectiveValue(),
                        np.abs(model.getSolution().row_dual))
        else:
            model.clearSolver()
            out[idx] = None
    return out
