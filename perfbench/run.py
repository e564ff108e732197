"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload extend_jets --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from an installed copy.  The run
imports the package, times ``IMPORT_REPS`` imports of it in fresh
interpreters, builds the workload's set-up state ``SETUP_REPS`` times
(keeping the last), then repeats rounds of the
workload's operations until ``--seconds`` have passed, finishing the round
in progress.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``peak_rss_mb``), times rescaled to a reference speed (see
``at_reference_speed``); with ``--trace 1`` the layer entry points are
wrapped in spans and the metrics are the per-layer ones.  Per-operation
latencies, failures and the machine facts go to standard error and to a
result file under ``perfbench/results/``; a traced run also writes its spans
there.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_REPS = 3
IMPORT_REPS = 5
#: the reference speed: times are reported as if one ``probe`` took this long
REF_PROBE_S = 0.0010


def probe() -> float:
    """Seconds for a fixed slice of work of the program's kind, using
    nothing of the program: 2048-bit mpmath arithmetic driven from Python."""
    import mpmath as mp
    t0 = time.perf_counter()
    with mp.workprec(2048):
        x = mp.mpf(1) / 3
        acc = mp.mpf(0)
        for i in range(1, 25):
            acc += (x + i) * (x - i) / (x + 2 * i)
    return time.perf_counter() - t0


def child_import() -> tuple:
    """``import cantorext`` from SRC in a fresh interpreter (its own start-up
    not included): the seconds, and the same rescaled by probes run in that
    interpreter, on the CPU the import ran on.  The child's string hashing
    is fixed: with a random one, imports varied about twice as much."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import cantorext; "
            "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
            "import run; print(t, *run.at_reference_speed(t))")
    out = subprocess.run([sys.executable, "-c", code, SRC, HERE], check=True,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONHASHSEED="0"))
    return tuple(float(v) for v in out.stdout.split())


def at_reference_speed(seconds: float) -> tuple:
    """A span just timed, rescaled to the reference speed; and the probe.

    The CPUs are shared, and their speed drifts by up to a third within
    minutes with other tenants' load, alike for the program and the probe.
    So right after each timed span the probe runs (once per started 0.1 s
    of the span, at most 30 times), and the span is scaled by REF_PROBE_S
    over the probe's median time.
    """
    k = 1 + min(29, int(seconds / 0.1))
    p = statistics.median(probe() for _ in range(k))
    return seconds * REF_PROBE_S / p, p


class Ops:
    """Times, checks and counts a run's operations.

    ``run`` times the program call alone and rescales the time with
    ``at_reference_speed``; the check runs afterwards with tracing paused.
    A call that raises or a check that is false counts the operation as
    failed and the run goes on.  ``unexpected`` counts failures of
    operations not marked as a known fault.  ``busy`` and ``scaled`` sum
    the raw and the rescaled times until reset.
    """

    def __init__(self, rec=None):
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.latencies: list = []
        self.busy = 0.0
        self.scaled = 0.0
        self.failed_labels: dict = {}
        self.probes: list = []

    def run(self, label, call, check, known_fault=False):
        self.attempted += 1
        if self.rec is not None:
            self.rec.on = True
        t0 = time.perf_counter()
        try:
            result = call()
            error = None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if self.rec is not None:
            self.rec.on = False
        scaled, p = at_reference_speed(dt)
        self.latencies.append(dt)
        self.busy += dt
        self.scaled += scaled
        self.probes.append(p)
        ok = False
        if error is None:
            try:
                ok = bool(check(result))
            except Exception:
                error = traceback.format_exc(limit=3)
        if not ok:
            self.failed += 1
            if not known_fault:
                self.unexpected += 1
            n = self.failed_labels.get(label, 0)
            self.failed_labels[label] = n + 1
            if n == 0:
                print(f"operation failed: {label}"
                      + (" (known fault)" if known_fault else ""),
                      file=sys.stderr)
                if error:
                    print(error, file=sys.stderr)
        return result


def latency_summary(samples) -> dict:
    """Median, and the highest of the 75/90/95/99/99.9th percentiles that
    has at least ten samples beyond it (none below forty samples)."""
    xs = sorted(samples)
    n = len(xs)
    out = {"count": n, "median_ms": statistics.median(xs) * 1e3 if xs else None}
    if n >= 40:
        for p in (99.9, 99.0, 95.0, 90.0, 75.0):
            if n * (100.0 - p) / 100.0 >= 10:
                idx = min(n - 1, max(0, int(-(-p * n // 100)) - 1))
                out["percentile"] = p
                out["percentile_ms"] = xs[idx] * 1e3
                break
    return out


def layer_metrics(import_s, setup_aggs, round_aggs, rounds) -> dict:
    """Per-layer metrics from the span aggregates.

    Set-up layers are per set-up build, round layers per round (means over
    the run's rounds).
    """
    def S(name):
        return setup_aggs.get(name) or spans.Aggregate()

    def R(name):
        return round_aggs.get(name) or spans.Aggregate()

    def ratio(a, b):
        return a / b if b else 0.0

    ev, dd, hit, lp = (R("extension.evaluate"),
                       R("extension.divided_differences"),
                       R("bump.support_hit"), R("markov.lp"))
    per = 1.0 / rounds
    values = {
        "import_s": (import_s, "s"),
        "gamma.build_model_s": (S("gamma.build_model").total_s / SETUP_REPS, "s"),
        "gamma.profile_s": (S("gamma.profile").total_s / SETUP_REPS, "s"),
        "geometry.build_tree_s": (S("geometry.build_tree").self_s / SETUP_REPS, "s"),
        "geometry.verify_geometry_s":
            (S("geometry.verify_geometry").total_s / SETUP_REPS, "s"),
        "logreal.from_mpf_calls": (S("logreal.from_mpf").calls / SETUP_REPS, "count"),
        "extension.evaluate_calls": (ev.calls * per, "count"),
        "extension.evaluate_self_s": (ev.self_s * per, "s"),
        "extension.divided_differences_calls": (dd.calls * per, "count"),
        "extension.divided_differences_s": (dd.total_s * per, "s"),
        "extension.dd_divisions": (dd.counts.get("divisions", 0) * per, "count"),
        "extension.dd_per_eval": (ratio(dd.calls, ev.calls), "ratio"),
        "extension.f_calls": (R("extension.f").calls * per, "count"),
        "extension.f_s": (R("extension.f").total_s * per, "s"),
        "geometry.select_nodes_calls": (R("geometry.select_nodes").calls * per,
                                        "count"),
        "geometry.select_nodes_s": (R("geometry.select_nodes").total_s * per, "s"),
        "bump.support_hit_calls": (hit.calls * per, "count"),
        "bump.support_hit_s": (hit.total_s * per, "s"),
        "bump.support_hit_live_ratio":
            (ratio(hit.counts.get("live", 0), hit.calls), "ratio"),
        "bump.value_calls": (R("bump.value").calls * per, "count"),
        "bump.value_s": (R("bump.value").total_s * per, "s"),
        "bump.bump_for_interval_calls":
            (R("bump.bump_for_interval").calls * per, "count"),
        "bump.bump_for_interval_s":
            (R("bump.bump_for_interval").total_s * per, "s"),
        "hausdorff.content_dp_calls": (R("hausdorff.content_dp").calls * per,
                                       "count"),
        "hausdorff.content_dp_self_s": (R("hausdorff.content_dp").self_s * per,
                                        "s"),
        "hausdorff.clip_s": (R("hausdorff.clip").total_s * per, "s"),
        "hausdorff.island_spans_s": (R("hausdorff.island_spans").total_s * per,
                                     "s"),
        "hausdorff.island_span_entries":
            (R("hausdorff.island_spans").counts.get("entries", 0) * per, "count"),
        "hausdorff.tree_spans_s": (R("hausdorff.tree_spans").total_s * per, "s"),
        "hausdorff.tree_span_entries":
            (R("hausdorff.tree_spans").counts.get("entries", 0) * per, "count"),
        "dimension.h_ln_calls": (R("dimension.h_ln").calls * per, "count"),
        "dimension.h_ln_s": (R("dimension.h_ln").total_s * per, "s"),
        "markov.markov_numeric_calls":
            (R("markov.markov_numeric").calls * per, "count"),
        "markov.markov_numeric_self_s":
            (R("markov.markov_numeric").self_s * per, "s"),
        "markov.lp_calls": (lp.calls * per, "count"),
        "markov.lp_s": (lp.total_s * per, "s"),
        "markov.lp_failed": (lp.counts.get("failed", 0) * per, "count"),
        "markov.lp_converged_ratio":
            (ratio(lp.calls - lp.counts.get("failed", 0), lp.calls), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def machine_facts() -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # one thread of work: no BLAS or OpenMP pools behind numpy and scipy
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "cantorext", "__init__.py")):
        print(f"no package source at {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cantorext
    if not os.path.abspath(cantorext.__file__).startswith(SRC + os.sep):
        print(f"cantorext came from {cantorext.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_in_process_s = time.perf_counter() - T_START

    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # the import is most of a light workload's set-up; one import varies
    # too much with the machine, so the median of several is taken
    imports, imports_scaled, import_probes = [], [], []
    for _ in range(IMPORT_REPS):
        raw, scaled, p = child_import()
        imports.append(raw)
        imports_scaled.append(scaled)
        import_probes.append(p)
    import_s = statistics.median(imports)
    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)

    builds, builds_scaled = [], []
    state = None
    for _ in range(SETUP_REPS):
        state = None  # the previous build is garbage before the next starts
        if rec is not None:
            rec.on = True
        t0 = time.perf_counter()
        state = wl.setup(args.seed, rec)
        builds.append(time.perf_counter() - t0)
        if rec is not None:
            rec.on = False
        builds_scaled.append(at_reference_speed(builds[-1])[0])
    setup_raw_s = import_s + statistics.median(builds)
    setup_s = statistics.median(imports_scaled) + statistics.median(builds_scaled)
    setup_aggs = rec.take() if rec is not None else None

    ops = Ops(rec)
    round_s, round_scaled_s = [], []
    t_begin = time.perf_counter()
    while not round_s or time.perf_counter() - t_begin < args.seconds:
        ops.busy = ops.scaled = 0.0
        wl.round(state, args.seed, len(round_s), ops)
        round_s.append(ops.busy)
        round_scaled_s.append(ops.scaled)
    wall_s = statistics.median(round_scaled_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if rec is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(import_s, setup_aggs, rec.take(), len(round_s))

    lat = latency_summary(ops.latencies)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "import_s": imports, "import_in_process_s": import_in_process_s,
        "setup_builds_s": builds,
        "setup_raw_s": setup_raw_s, "wall_raw_s": statistics.median(round_s),
        "round_s": round_s, "round_scaled_s": round_scaled_s,
        "probe_s": {"reference": REF_PROBE_S, "import": import_probes,
                    "median": statistics.median(ops.probes)},
        "latency": lat, "attempted": ops.attempted, "failed": ops.failed,
        "failed_labels": ops.failed_labels, "metrics": metrics,
        "peak_rss_mb": peak_rss_mb,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if rec is not None:
        rec.write(stem + ".spans.json",
                  {"workload": args.workload, "seed": args.seed,
                   "machine": report["machine"]})

    line = f"{args.workload}: {len(round_s)} rounds, median {wall_s:.4f} s; " \
           f"{lat['count']} operations, median {lat['median_ms']:.3f} ms"
    if "percentile" in lat:
        line += f", p{lat['percentile']:g} {lat['percentile_ms']:.3f} ms"
    print(line, file=sys.stderr)
    print(json.dumps({"correct": ops.unexpected == 0,
                      "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
