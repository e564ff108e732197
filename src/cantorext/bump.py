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
from typing import Optional

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
                m2 = 2 * m   # exact: doubling keeps the mantissa
                lo = [c[0] for c in self.components]
                hi = [c[1] for c in self.components]
                self._edges = (m, lo, hi,
                               [a - m2 for a in lo], [b + m2 for b in hi],
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


def bump_for_interval(tree, j: int, s: int, t) -> BumpSpec:
    """Cutoff around I_{j,s} intersected with the set, at tree resolution.

    Its components are the deepest-level atoms inside I_{j,s} joined across
    every gap <= t/3.  They come from a walk down from I_{j,s}: a subtree
    whose atoms span at most t/3 (a rounded length, and rounding is
    monotone) has no larger gap inside and is one plateau; the walk goes
    below it only otherwise, and each plateau joins the one before it when
    the atoms' gap between them is <= t/3.
    """
    tree.interval(j, s)  # validates (j, s)
    atoms = tree.levels[tree.depth]
    comps = []
    with mp.workprec(tree.bits):
        margin = t / mp.mpf(3)
        todo = [(j, s)]
        while todo:
            i, level = todo.pop()
            span = 2 ** (tree.depth - level)
            lo, hi = atoms[(i - 1) * span].left, atoms[i * span - 1].right
            if span > 1 and hi - lo > margin:
                todo += ((2 * i, level + 1), (2 * i - 1, level + 1))
            elif comps and lo - comps[-1][1] <= margin:
                comps[-1] = (comps[-1][0], hi)
            else:
                comps.append((lo, hi))
    return BumpSpec(t=t, components=comps, bits=tree.bits)
