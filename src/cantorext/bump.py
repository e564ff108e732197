"""Smooth cutoff functions around unions of closed intervals.

u(., t, E) is 1 on E, 0 wherever dist(x, E) > t, with |u^(p)| <= c_p t^-p.
E arrives as disjoint atoms; atoms whose gaps are <= t/3 merge into plateau
components, and each component gets C-infinity shoulders built from the
classic exp(-1/y) step, rising over [lo - 2t/3, lo - t/3] and falling
symmetrically.  The cutoff is assembled as u = 1 - prod_c (1 - bump_c), which
stays in [0, 1] when shoulder zones of nearby components overlap.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp


def step_value_mpf(y):
    """The smooth step at mpf precision."""
    if y <= 0:
        return mp.mpf(0)
    if y >= 1:
        return mp.mpf(1)
    g = mp.exp(-1 / y)
    g1 = mp.exp(-1 / (1 - y))
    return g / (g + g1)


@dataclass
class BumpSpec:
    """A built cutoff: merged components plus the scale t.

    Components are sorted and disjoint.  Positions may be mpf (tree atoms) or
    floats; ``bits`` sets the working precision for mpf evaluation.
    """

    t: object                  # mpf or float
    components: list           # [(lo, hi)] merged plateaus
    bits: int = 53
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


def merge_atoms(atom_bounds: Sequence[tuple], t, bits: int = 53) -> list:
    """Merge sorted disjoint atoms whose gaps are <= t/3."""
    with mp.workprec(bits):
        margin = t / mp.mpf(3)
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
