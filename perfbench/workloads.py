"""The benchmark's four workloads.

Each workload has a ``setup`` that builds what a user builds once before the
first result (the extension trees, the Markov atoms) and a ``round`` of fixed
operations that the runner repeats until the run's time is up.

No round can be answered from an earlier one:

- every input a round takes is drawn afresh: from
  ``numpy.random.default_rng([seed, round])``, or, for the extension points
  and the Markov grid sizes, by walking a permutation of their stratum
  seeded by ``(seed, stratum)``, so that a choice recurs only once its
  stratum is used up (after 28 rounds for ``extend_jets``' points, 16 for
  ``extend_sweep``'s, 9 and 5 for the grids of ``markov``; a 15 s run
  makes at most eight, ``markov`` three);
- apart from the set-up state, every object a cache could sit on is built
  afresh inside the round's timed calls: the extension operator, the island
  families, the density trees and every model.

The exceptions are the known faults of the program that two workloads keep
as fixed operations (``known_fault``): each fails every time, on inputs that
depend on neither the seed nor the round's draws.  Draws are stratified (one point per
basic interval, one radius per window) so that a round costs about the same
whatever the seed.

Every operation goes through ``ops.run(label, call, check)``: the runner times
``call`` (the program alone) and then applies ``check``, built apart from the
program (see ``checks``).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np

from cantorext import (dimension, extension, gamma, geometry, hausdorff,
                       markov)

import checks
import spans


def _one(x):
    return mp.mpf(1)


def _ident(x):
    return x


def _square(x):
    return x * x


def _cube(x):
    return x * x * x


def _traced_f(rec, f):
    """The workload's own function, timed as ``extension.f`` when traced."""
    return spans.traced(rec, "extension.f", f) if rec is not None else f


def _inner_endpoints(tree, level):
    """The endpoint each level-``level`` interval gets at its own level."""
    return [iv.right if iv.index % 2 else iv.left for iv in tree.levels[level]]


def _walk(seed, stratum, n, r):
    """Round ``r``'s choice among the ``n`` of one stratum: a permutation
    seeded by ``(seed, *stratum)``, walked in round order, so that no choice
    recurs within ``n`` rounds."""
    return int(np.random.default_rng([seed, *stratum]).permutation(n)[r % n])


def _new_operator(ops, tree, s_max):
    """A fresh operator for the round, timed as an operation of its own;
    the evaluations that use it check its results."""
    return ops.run("new operator",
                   lambda: extension.ExtensionOperator(tree, s_max=s_max),
                   lambda o: o.tree is tree and o.s_max == s_max)


# ---------------------------------------------------------------------------
# extend_sweep: criterion 3's configuration, one function at a time
# ---------------------------------------------------------------------------

class ExtendSweep:
    """EXAMPLE1 (B=1), depth 10 at 8192 bits, s_max = 6.

    A round builds a fresh operator, then evaluates 1, x and x^2 at 4
    depth-5 endpoints (one per level-2 interval) with S = 5, then sin at 2
    inner depth-10 endpoints (one per level-1 interval) with S = 3..6, one
    function over all its points.
    """

    name = "extend_sweep"
    S_MAX = 6

    def setup(self, seed, rec):
        model = gamma.build_model(gamma.EXAMPLE1, k_max=16, B=1.0)
        tree = geometry.build_tree(model, depth=10, bits=8192)
        ends5 = sorted({z for iv in tree.levels[5] for z in (iv.left, iv.right)})
        return SimpleNamespace(
            tree=tree, ends5=ends5, inner10=_inner_endpoints(tree, 10),
            polys=[(f, _traced_f(rec, f)) for f in (_one, _ident, _square)],
            sin=_traced_f(rec, mp.sin))

    def round(self, st, seed, r, ops):
        poly_x = [st.ends5[16 * i + _walk(seed, (1, i), 16, r)] for i in range(4)]
        sin_x = [st.inner10[512 * i + _walk(seed, (2, i), 512, r)]
                 for i in range(2)]
        op = _new_operator(ops, st.tree, self.S_MAX)
        with mp.workprec(st.tree.bits):
            for f, fw in st.polys:
                for x in poly_x:
                    ops.run(f"W({f.__name__}) S=5",
                            lambda: op.evaluate(fw, x, s_max=5).value,
                            lambda w: checks.reproduces(w, f(x)))
            for S in (3, 4, 5, 6):
                for x in sin_x:
                    ops.run(f"W(sin) S={S}",
                            lambda: op.evaluate(st.sin, x, norm_q=2.0, q=5,
                                                s_max=S),
                            lambda out: checks.within_certified(
                                out.value, mp.sin(x),
                                out.certified_bound.to_mpf()))


# ---------------------------------------------------------------------------
# extend_jets: many functions per point, interleaved
# ---------------------------------------------------------------------------

class ExtendJets:
    """EXAMPLE1 (B=1), depth 9 at 2048 bits, s_max = 5.

    A round builds a fresh operator and evaluates x^2 and x^3 at the inner
    depth-9 endpoint next to 0, where both fail every time (a known fault).
    Then it visits 16 inner depth-9 endpoints (8 in each of two level-3
    intervals) and 16 uniform points of [0, 1] (one per sixteenth),
    alternating, and at each evaluates the whole basis 1, x, x^2, x^3, a
    fixed combination of them, and sin, in that order.
    """

    name = "extend_jets"
    S_MAX = 5
    COEFFS = ((3, 7), (-2, 1), (5, 3), (-1, 2))   # combination of 1, x, x^2, x^3

    def setup(self, seed, rec):
        model = gamma.build_model(gamma.EXAMPLE1, k_max=16, B=1.0)
        tree = geometry.build_tree(model, depth=9, bits=2048)
        with mp.workprec(tree.bits):
            c = [mp.mpf(p) / q for p, q in self.COEFFS]

        def combo(x):
            return c[0] + c[1] * x + c[2] * x * x + c[3] * x * x * x

        basis = [_one, _ident, _square, _cube, combo, mp.sin]
        return SimpleNamespace(
            tree=tree, coeffs=c, inner9=_inner_endpoints(tree, 9),
            basis=[(f, _traced_f(rec, f)) for f in basis])

    def _on_set(self, st, seed, r):
        """Two level-3 intervals, one per half; in each, one inner depth-9
        endpoint per level-6 interval, so nearby points share interpolants.
        inner9[0] is left to the known-fault operations."""
        q = r // 4
        on = []
        for h in (0, 1):
            cell = 4 * h + _walk(seed, (1, h), 4, r)
            for i in range(8):
                if cell == i == 0:
                    k = 1 + _walk(seed, (3,), 7, q)
                else:
                    k = _walk(seed, (2, h, i), 8, q)
                on.append(st.inner9[64 * cell + 8 * i + k])
        return on

    def round(self, st, seed, r, ops):
        rng = np.random.default_rng([seed, r])
        on = self._on_set(st, seed, r)
        off = [mp.mpf((i + rng.random()) / 16) for i in range(16)]
        points = [p for pair in zip(on, off) for p in pair]
        bits = st.tree.bits
        op = _new_operator(ops, st.tree, self.S_MAX)
        with mp.workprec(bits):
            # FOUND (a) in CHANGES.md: rounding at tree precision next to 0
            x0 = st.inner9[0]
            for f, fw in st.basis[2:4]:
                ops.run(f"W({f.__name__}) next to 0",
                        lambda: op.evaluate(fw, x0).value,
                        lambda v: checks.reproduces(v, f(x0)), known_fault=True)
            for i, x in enumerate(points):
                on_set = i % 2 == 0
                w = []
                for k, (f, fw) in enumerate(st.basis):
                    if k == 5:
                        ops.run(
                            "W(sin)", lambda: op.evaluate(fw, x, norm_q=2.0, q=5),
                            lambda o: checks.within_certified(
                                o.value, mp.sin(x), o.certified_bound.to_mpf())
                            if on_set else checks.finite(o.value))
                        continue
                    if on_set:
                        check = lambda v: checks.reproduces(v, f(x))
                    elif k == 0:
                        check = checks.in_unit_interval
                    elif k == 4:
                        check = lambda v: checks.linear(v, st.coeffs, w, bits)
                    else:
                        check = checks.finite
                    w.append(ops.run(f"W(f{k})",
                                     lambda: op.evaluate(fw, x).value, check))


# ---------------------------------------------------------------------------
# density: lower densities through both atom providers
# ---------------------------------------------------------------------------

H_HALF = dimension.LogPower(alpha0=0.5)
H_LOG = dimension.LogPower(alpha0=1.0)


class Density:
    """Island scans (Q = 2 and Q = log k, k_max = 60), the delta-form pair
    b = 2 (depth 7, about 1024 bits) and b = 3 (depth 6, about 1280 bits)
    with their extension verdicts, the EXAMPLE1 content of the depth-7 atoms
    (about 512 bits), and four random FloatAtoms sets against the exhaustive
    oracle.

    Every family, model and tree is built inside the timed call that uses
    it, at a precision drawn within 32 bits of the nominal one.  Island
    radii: one k in each of the windows 9, 20, 30, 40, 48 and 57 (three
    values each); the cost of a scan is dominated by the shallowest radius.
    """

    name = "density"
    WINDOWS = (9, 20, 30, 40, 48, 57)
    DELTA = ((2.0, 7, 1024), (3.0, 6, 1280))   # (b, depth, nominal bits)
    FLOAT_SIZES = (8, 10, 12, 12)

    def setup(self, seed, rec):
        return SimpleNamespace()

    def _radii(self, rng):
        return [w + int(rng.integers(3)) for w in self.WINDOWS]

    def round(self, st, seed, r, ops):
        rng = np.random.default_rng([seed, r])
        ks2, kslog = self._radii(rng), self._radii(rng)

        def deep(table):
            return [p.ratio for p in table.per_r[len(table.per_r) // 2:]]

        ops.run("islands Q=2",
                lambda: hausdorff.density_scan_islands(
                    hausdorff.IslandFamily(hausdorff.q_rule_constant(2.0),
                                           k_max=60), H_HALF, ks2),
                lambda t: checks.all_near(deep(t), 2.0 ** -0.5, 0.10))

        def log_ok(t):
            ratios = [p.ratio for p in t.per_r]
            return checks.strictly_decreasing(ratios) and checks.near(
                ratios[-1], math.log(kslog[-1]) ** -0.5, 0.05)

        ops.run("islands Q=log k",
                lambda: hausdorff.density_scan_islands(
                    hausdorff.IslandFamily(hausdorff.q_rule_log(), k_max=60),
                    H_HALF, kslog),
                log_ok)
        for b, depth, bits in self.DELTA:
            tree_bits = bits - 32 + int(rng.integers(65))

            def scan():
                model = gamma.build_model(gamma.DELTA_FORM, k_max=12, b=b)
                tree = geometry.build_tree(model, depth=depth, bits=tree_bits)
                return hausdorff.density_scan_tree(
                    tree, H_HALF, range(2, depth + 1), analytic_limit=b ** -0.5)

            ops.run(f"delta-form b={b:g}", scan,
                    lambda t: checks.all_near(deep(t), b ** -0.5, 0.10))
            want = "yes" if b <= 2.0 else "no"
            ops.run(f"classify_ep b={b:g}",
                    lambda: gamma.classify_ep(gamma.build_model(
                        gamma.DELTA_FORM, k_max=12, b=b)).ep,
                    lambda ep: ep == want)
        ex1_bits = 480 + int(rng.integers(65))

        def content():
            model = gamma.build_model(gamma.EXAMPLE1, k_max=14, B=1.0)
            tree = geometry.build_tree(model, depth=7, bits=ex1_bits)
            h_eta = dimension.EtaProfile(model)
            return tree, h_eta, hausdorff.content_dp(hausdorff.TreeAtoms(tree),
                                                     h_eta).value

        ops.run("EXAMPLE1 content", content,
                lambda out: checks.below_all(out[2], [
                    hausdorff.lambda_level_estimate(out[0], out[1], k).value
                    for k in range(out[0].depth + 1)]))
        for m in self.FLOAT_SIZES:
            atoms = hausdorff.FloatAtoms(_random_atoms(rng, m))
            for h in (H_HALF, H_LOG):
                ops.run(f"content_dp m={m}",
                        lambda: hausdorff.content_dp(atoms, h).value,
                        lambda v: checks.matches_oracle(
                            v, hausdorff.content_exhaustive(atoms, h)))


def _random_atoms(rng, m):
    """m disjoint intervals of random lengths and gaps in (0, 1)."""
    pos, out = 0.001, []
    for _ in range(m):
        length = float(rng.uniform(1e-6, 0.04))
        gap = float(rng.uniform(1e-6, 0.04))
        out.append((pos, pos + length))
        pos += length + gap
    return out


# ---------------------------------------------------------------------------
# markov: the LP estimator and the closed-form crossover
# ---------------------------------------------------------------------------

class Markov:
    """markov_numeric on [0, 1] (n = 2, 508..516 points, every point a
    candidate), on power-law (a=2) and delta-form (b=2) depth-3 trees at
    n = 2, 4, 8 (22..26 points per atom, seeded extra candidates), and the
    ratio_table crossover over k = 2..K, K seeded in 20..31, on models built
    in the call.  Two operations fail every time: n = 16 on the power-law
    depth-4 tree (14 + round mod 5 points per atom) and n = 8 on the
    delta-form b=3 depth-3 tree (22 + round mod 5 points per atom).
    """

    name = "markov"

    def setup(self, seed, rec):
        st = SimpleNamespace(trees=[])
        for family, params in ((gamma.POWER_LAW, {"a": 2.0}),
                               (gamma.DELTA_FORM, {"b": 2.0})):
            model = gamma.build_model(family, k_max=12, **params)
            tree = geometry.build_tree(model, depth=3, bits=512)
            st.trees.append((model, markov.tree_atom_bounds(tree)))
        st.model16 = gamma.build_model(gamma.POWER_LAW, k_max=12, a=2.0)
        st.atoms16 = markov.tree_atom_bounds(
            geometry.build_tree(st.model16, depth=4, bits=512))
        st.model_b3 = gamma.build_model(gamma.DELTA_FORM, k_max=12, b=3.0)
        st.atoms_b3 = markov.tree_atom_bounds(
            geometry.build_tree(st.model_b3, depth=3, bits=512))
        return st

    @staticmethod
    def _bracket_check(model, n):
        def check(est):
            b = markov.markov_bounds(model, n)
            return checks.in_markov_bracket(est.value, est.stalled,
                                            b.lower.ln_mag, b.upper.ln_mag)
        return check

    def round(self, st, seed, r, ops):
        rng = np.random.default_rng([seed, r])
        unit_points = 508 + _walk(seed, (1,), 9, r)
        ops.run("[0,1] n=2",
                lambda: markov.markov_numeric([(0.0, 1.0)], 2,
                                              points_per_atom=unit_points,
                                              workers=1),
                lambda est: not est.stalled and checks.near(est.value, 8.0, 0.02))
        for t, (model, atoms) in enumerate(st.trees):
            for n in (2, 4, 8):
                points = 22 + _walk(seed, (2, t, n), 5, r)
                lp_seed = int(rng.integers(2 ** 31))
                ops.run(f"{model.family} n={n}",
                        lambda: markov.markov_numeric(
                            atoms, n, points_per_atom=points, seed=lp_seed,
                            workers=1),
                        self._bracket_check(model, n))
        # FOUND (b) in CHANGES.md: most candidate LPs fail and the estimate
        # falls below the proven lower bound 1/delta_4, at 14..18 points alike
        ops.run("power_law n=16",
                lambda: markov.markov_numeric(st.atoms16, 16,
                                              points_per_atom=14 + r % 5,
                                              workers=1),
                self._bracket_check(st.model16, 16), known_fault=True)
        # FOUND (b): here every candidate LP fails, at 22..26 points alike
        ops.run("delta_form b=3 n=8",
                lambda: markov.markov_numeric(st.atoms_b3, 8,
                                              points_per_atom=22 + r % 5,
                                              workers=1),
                self._bracket_check(st.model_b3, 8), known_fault=True)
        k_hi = 20 + int(rng.integers(12))
        ops.run("ratio_table",
                lambda: markov.ratio_table(
                    gamma.build_model(gamma.EXAMPLE1, k_max=32, B=2.0),
                    gamma.build_model(gamma.EXAMPLE2, k_max=32),
                    range(2, k_hi + 1)),
                lambda t: t.decreasing_negative_from is not None
                and t.decreasing_negative_from <= 9
                and checks.crossover_from(t.rows, 9))


WORKLOADS = {w.name: w for w in (ExtendSweep(), ExtendJets(), Density(), Markov())}
