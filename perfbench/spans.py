"""Span recorder for the benchmark's traced runs.

The program carries no tracing of its own, so the benchmark wraps the public
entry points of each layer from outside (module and class attributes) and
records one span per call: name, start, end and parent, plus counters taken
from the call's arguments or result.  Calls nest strictly (one thread), so a
stack gives each span its parent, and self time (duration minus the part
covered by child spans) is accumulated as spans close.

Aggregates are exact for every call.  The raw spans are kept in memory up to
``MAX_SPANS`` and written out when the run ends; spans beyond the cap are
only counted, so a long traced run cannot exhaust memory.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Callable, Optional

MAX_SPANS = 250_000


class Aggregate:
    """Totals of one span name: calls, time, self time and extra counters."""

    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: dict = {}


class Recorder:
    """Open-span stack, per-name aggregates and the in-memory span store.

    ``on`` is true only while the runner measures: during the set-up builds
    and each operation's program call.  The benchmark's own checks leave no
    spans.
    """

    def __init__(self):
        self.on = False
        self.t_origin = time.perf_counter()
        self.names: list = []
        self._name_ids: dict = {}
        # stored spans, column-wise
        self.ids = array("q")
        self.parents = array("q")
        self.name_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.dropped = 0
        self.aggregates: dict = {}
        self._stack: list = []   # [span id, name, t0, time covered by children]
        self._next_id = 0

    def enter(self, name: str):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self, counts: Optional[dict] = None):
        t1 = time.perf_counter()
        span_id, name, t0, covered = self._stack.pop()
        dur = t1 - t0
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = Aggregate()
        agg.calls += 1
        agg.total_s += dur
        agg.self_s += dur - covered
        if counts:
            for key, v in counts.items():
                agg.counts[key] = agg.counts.get(key, 0) + v
        parent_id = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent_id = self._stack[-1][0]
        if len(self.ids) >= MAX_SPANS:
            self.dropped += 1
            return
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.ids.append(span_id)
        self.parents.append(parent_id)
        self.name_ids.append(nid)
        self.starts.append(t0 - self.t_origin)
        self.ends.append(t1 - self.t_origin)

    def take(self) -> dict:
        """The aggregates collected so far; collection starts afresh."""
        out, self.aggregates = self.aggregates, {}
        return out

    def write(self, path: str, meta: dict):
        """Write the stored spans (in closing order) with ``meta``."""
        doc = dict(meta)
        doc.update({
            "names": self.names,
            "columns": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [[self.ids[i], self.parents[i], self.name_ids[i],
                       round(self.starts[i], 9), round(self.ends[i], 9)]
                      for i in range(len(self.ids))],
            "dropped": self.dropped,
        })
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def traced(rec: Recorder, name: str, fn: Callable,
           count: Optional[Callable] = None) -> Callable:
    """``fn`` recording one span per call; ``count(args, result)`` gives
    extra counters for the span's aggregate."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        rec.enter(name)
        counts = None
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                counts = count(args, out)
        finally:
            rec.exit(counts)
        return out

    return wrapper


def _dd_count(args, out):
    n = len(args[0])
    return {"divisions": n * (n - 1) // 2}


def _live_count(args, out):
    return {"live": 1 if out else 0}


def _entries_count(args, out):
    return {"entries": len(out)}


def _lp_count(args, out):
    # the estimator's own test of a failed candidate LP (markov._lp_value)
    return {"failed": 1 if out.status != 0 or out.x is None else 0}


def install(rec: Recorder):
    """Wrap each layer's entry points for the rest of the process.

    Every binding a caller looks up is wrapped: a function imported by name
    into another module is a separate attribute of that module.
    """
    from cantorext import (bump, dimension, extension, gamma, geometry,
                           hausdorff, logreal, markov)

    def wrap(owner, attr, name, count=None, kind=None):
        fn = owner.__dict__[attr]
        if kind is classmethod:
            fn = fn.__func__
        new = traced(rec, name, fn, count)
        setattr(owner, attr, classmethod(new) if kind is classmethod else new)

    wrap(gamma, "build_model", "gamma.build_model")
    wrap(gamma, "profile", "gamma.profile")
    wrap(geometry, "profile", "gamma.profile")
    wrap(dimension, "make_profile", "gamma.profile")
    wrap(extension, "make_profile", "gamma.profile")
    wrap(markov, "make_profile", "gamma.profile")
    wrap(logreal.LogReal, "from_mpf", "logreal.from_mpf", kind=classmethod)
    wrap(geometry, "build_tree", "geometry.build_tree")
    wrap(geometry, "verify_geometry", "geometry.verify_geometry")
    wrap(geometry, "select_nodes", "geometry.select_nodes")
    wrap(extension, "select_nodes", "geometry.select_nodes")
    wrap(bump.BumpSpec, "support_hit", "bump.support_hit", _live_count)
    wrap(bump.BumpSpec, "value", "bump.value")
    wrap(bump, "bump_for_interval", "bump.bump_for_interval")
    wrap(extension, "bump_for_interval", "bump.bump_for_interval")
    wrap(extension, "divided_differences", "extension.divided_differences",
         _dd_count)
    wrap(extension.ExtensionOperator, "evaluate", "extension.evaluate")
    wrap(hausdorff, "content_dp", "hausdorff.content_dp")
    for cls in (hausdorff.FloatAtoms, hausdorff.TreeAtoms,
                hausdorff.IslandAtoms):
        wrap(cls, "clip", "hausdorff.clip")
    wrap(hausdorff.IslandAtoms, "ln_inv_span_starts", "hausdorff.island_spans",
         _entries_count)
    wrap(hausdorff.TreeAtoms, "ln_inv_span_starts", "hausdorff.tree_spans",
         _entries_count)
    wrap(dimension.LogPower, "h_ln", "dimension.h_ln")
    wrap(dimension.EtaProfile, "h_ln", "dimension.h_ln")
    wrap(markov, "markov_numeric", "markov.markov_numeric")
    wrap(markov, "linprog", "markov.lp", _lp_count)
