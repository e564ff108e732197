"""Smooth cutoff functions around unions of closed intervals.

u(., t, E) is 1 on E, 0 wherever dist(x, E) > t, with |u^(p)| <= c_p t^-p.
E arrives as disjoint atoms; atoms whose gaps are <= t/3 merge into plateau
components, and each component gets C-infinity shoulders built from the
classic exp(-1/y) step, rising over [lo - 2t/3, lo - t/3] and falling
symmetrically.  The cutoff is assembled as u = 1 - prod_c (1 - bump_c), which
stays in [0, 1] when shoulder zones of nearby components overlap.

The shoulder constants c_p are not canonical; they are measured on a fine grid
per cutoff (normalized by t, so they depend only on the component layout) and
are used by the derivative-bound checks, nothing else.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

P_MAX = 3


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


def step_value_mpf(y):
    """The smooth step at mpf precision."""
    if y <= 0:
        return mp.mpf(0)
    if y >= 1:
        return mp.mpf(1)
    g = mp.exp(-1 / y)
    g1 = mp.exp(-1 / (1 - y))
    return g / (g + g1)


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


@dataclass
class BumpSpec:
    """A built cutoff: merged components plus the scale t.

    Components are sorted and disjoint.  Positions may be mpf (tree atoms) or
    floats; ``bits`` sets the working precision for mpf evaluation.
    """

    t: object                  # mpf or float
    components: list           # [(lo, hi)] merged plateaus
    bits: int = 53
    _cp: Optional[tuple] = None
    _edges: Optional[tuple] = None

    @property
    def _zone_edges(self) -> tuple:
        """(m, lo, hi, lo - 2m, hi + 2m, lo - t, hi + t), per-component lists
        built once at the working precision, m = t/3.

        Rounding is monotone, so every list is sorted like the components and
        each zone test below selects a contiguous run found by bisection.
        """
        if self._edges is None:
            with mp.workprec(self.bits):
                m = mp.mpf(self.t) / 3
                lo = [c[0] for c in self.components]
                hi = [c[1] for c in self.components]
                self._edges = (m, lo, hi,
                               [a - 2 * m for a in lo], [b + 2 * m for b in hi],
                               [a - self.t for a in lo], [b + self.t for b in hi])
        return self._edges

    def value(self, x):
        """u(x) as an mpf at the cutoff's working precision."""
        m, lo, hi, lo_2m, hi_2m, _, _ = self._zone_edges
        with mp.workprec(self.bits):
            i = bisect_left(hi, x)       # the only component that can hold x
            if i < len(hi) and lo[i] <= x:
                return mp.mpf(1)
            prod = None                  # live shoulders: lo - 2m < x < hi + 2m
            for k in range(bisect_right(hi_2m, x), bisect_left(lo_2m, x)):
                rise = step_value_mpf((x - lo_2m[k]) / m)
                fall = step_value_mpf((hi_2m[k] - x) / m)
                prod = (1 - rise * fall) if prod is None \
                    else prod * (1 - rise * fall)
            if prod is None:
                return mp.mpf(0)
            return 1 - prod

    def support_hit(self, x) -> bool:
        """Whether u(x) can be nonzero: lo - t < x < hi + t for a component."""
        _, _, _, _, _, lo_t, hi_t = self._zone_edges
        return bisect_right(hi_t, x) < bisect_left(lo_t, x)

    def series(self, x: float, order: int = P_MAX) -> tuple:
        """Taylor coefficients of u at x, float precision (for p <= 3 checks)."""
        m = float(self.t) / 3.0
        prod = (1.0,) + (0.0,) * order
        any_active = False
        for lo, hi in self.components:
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

    def derivative(self, x: float, p: int) -> float:
        coeffs = self.series(x, max(p, 1))
        return coeffs[p] * math.factorial(p)

    @property
    def c_p_table(self) -> tuple:
        """Empirical sup |u^(p)| t^p for p = 0..3, clamped monotone in p."""
        if self._cp is None:
            t = float(self.t)
            xs = []
            m = t / 3.0
            for lo, hi in self.components:
                lo, hi = float(lo), float(hi)
                xs.append(np.linspace(lo - 2 * m, lo - m, 400))
                xs.append(np.linspace(hi + m, hi + 2 * m, 400))
            grid = np.concatenate(xs)
            sup = [0.0] * (P_MAX + 1)
            for x in grid:
                ser = self.series(float(x))
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
            self._cp = tuple(cp)
        return self._cp


def merge_atoms(atom_bounds: Sequence[tuple], t, bits: int = 53) -> list:
    """Merge sorted disjoint atoms whose gaps are <= t/3."""
    with mp.workprec(bits):
        margin = t / mp.mpf(3) if bits > 53 else t / 3.0
        comps = []
        for lo, hi in atom_bounds:
            if comps and lo - comps[-1][1] <= margin:
                comps[-1] = (comps[-1][0], hi)
            else:
                comps.append((lo, hi))
    return comps


def bump_for_interval(tree, j: int, s: int, t) -> BumpSpec:
    """Cutoff around I_{j,s} intersected with the set, at tree resolution.

    The deepest-level atoms inside I_{j,s} are its descendants, a contiguous
    run of 2^(depth - s) atoms.
    """
    tree.interval(j, s)  # validates (j, s)
    span = 2 ** (tree.depth - s)
    atoms = [(iv.left, iv.right)
             for iv in tree.levels[tree.depth][(j - 1) * span:j * span]]
    comps = merge_atoms(atoms, t, bits=tree.bits)
    return BumpSpec(t=t, components=comps, bits=tree.bits)
