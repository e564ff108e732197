"""Alternating before/after runs of the benchmark, summarised in one JSON file.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --pairs extend_sweep:3101-3110 --pairs density:3201-3205 \\
        --traced extend_sweep:7 --seconds 15 --out BENCH_21.json

``--parent`` and ``--change`` are two source checkouts.  Each run is the
unchanged ``perfbench/run.py`` of one checkout, started with that checkout as
its working directory, so it imports the package from that checkout's
``src/``.  ``--pairs WORKLOAD:SEEDS`` runs one untraced pair per seed (SEEDS
is ``a-b`` or a comma list); the side that runs first alternates from pair
to pair.  ``--traced WORKLOAD:SEEDS`` adds one ``--trace 1`` pair per seed,
its sides alternating the same way.

The output holds the machine facts (Python, mpmath and its backend, numpy,
scipy, CPU count), every run's last-line JSON, and per workload and
end-to-end metric: each side's median and quartiles, the change against the
parent, in how many pairs the change was lower, and whether the medians
differ by more than the parent's interquartile range.  Two verdicts sit
beside them: ``gain_rule_met`` (the change is better in at least 9 of 10
pairs, a tie counting for neither side, and the medians differ, in the
change's favour, by more than the parent's interquartile range) and
``within_bound`` (the change's median is worse than the parent's by no more
than the metric's relative ``bound`` in the change checkout's
``BENCHMARK.json``; null where it gives none).  The file is rewritten
after every pair, so an interrupted session keeps what it measured.

``--cli REPS`` also times each README command (the keys of the change
checkout's ``tests/golden/readme_cli.json``) REPS times per side, each run
``python -m cantorext`` in a fresh interpreter with the checkout's ``src/``
on its path, the two sides alternating which runs first.  A run is correct
when its stdout hashes to the command's golden hash.  Per command the output
holds each side's median and quartiles of the wall times and of the CPU
times (user + system of the child, all its threads: the
``resource.RUSAGE_CHILDREN`` delta around the run), with the same comparison
as the end-to-end metrics.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")

FACTS = ("import json, os, platform, mpmath, mpmath.libmp, numpy, scipy; "
         "print(json.dumps({'python': platform.python_version(), "
         "'mpmath': mpmath.__version__, "
         "'mpmath_backend': mpmath.libmp.BACKEND, "
         "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
         "'cpu_count': os.cpu_count()}))")


def seeds_of(text: str) -> list:
    if "-" in text:
        a, b = (int(v) for v in text.split("-"))
        return list(range(a, b + 1))
    return [int(v) for v in text.split(",")]


def workload_arg(text: str) -> tuple:
    name, _, seeds = text.partition(":")
    if not name or not seeds:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    return name, seeds_of(seeds)


def sides(i: int) -> tuple:
    """The order in which pair i runs its sides: the parent first in even
    pairs, the change first in odd ones."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One ``perfbench/run.py`` run from ``checkout``: its last stdout line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_cli(checkout: str, command: str) -> tuple:
    """One README command from ``checkout`` in a fresh interpreter: its wall
    seconds, start-up included, its CPU seconds (user + system, every thread
    of the child), and the sha256 of its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONHASHSEED="0")
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "cantorext",
                          *shlex.split(command)], cwd=checkout, env=env,
                         capture_output=True, check=True)
    wall_s = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return wall_s, cpu_s, hashlib.sha256(out.stdout).hexdigest()


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def metric_specs(checkout: str) -> dict:
    """``BENCHMARK.json``'s end-to-end metrics of ``checkout``, by name."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return {m["name"]: m for m in json.load(fh).get("end_to_end", [])}


def verdicts(par: list, chg: list, spec: dict) -> dict:
    """The gain rule and the bound for one metric's pairs (see above)."""
    sign = -1 if spec.get("better", "lower") == "higher" else 1
    pm, cm = statistics.median(par), statistics.median(chg)
    pq = quartiles(par)
    better = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
    gain = 10 * better >= 9 * len(par) and sign * (pm - cm) > pq[1] - pq[0]
    bound = spec.get("bound")
    within = None if bound is None else \
        sign * (cm - pm) <= bound * abs(pm)
    return {"gain_rule_met": gain, "within_bound": within}


def compare(par: list, chg: list, spec: dict) -> dict:
    """One metric's pairs: each side's median and quartiles, the change
    against the parent, and the verdicts."""
    pm, cm = statistics.median(par), statistics.median(chg)
    pq = quartiles(par)
    return {
        "parent_median": round(pm, 4), "change_median": round(cm, 4),
        "change_vs_parent": f"{100 * (cm - pm) / pm:+.1f} %",
        "parent_quartiles": pq, "change_quartiles": quartiles(chg),
        "change_lower_in": f"{sum(c < p for p, c in zip(par, chg))} "
                           f"of {len(par)}",
        "median_gap_exceeds_parent_iqr": abs(cm - pm) > pq[1] - pq[0],
        **verdicts(par, chg, spec),
    }


def summarise(runs: list, specs: dict) -> dict:
    """Per workload: the pairs' end-to-end metrics and failed shares."""
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        sides = {s: [r for r in runs if r["workload"] == w and r["side"] == s]
                 for s in ("parent", "change")}
        pairs = min(len(v) for v in sides.values())
        entry = {"pairs": pairs,
                 "seeds": [r["seed"] for r in sides["parent"][:pairs]]}
        for m in END_TO_END if pairs else ():
            entry[m] = compare([r[m] for r in sides["parent"][:pairs]],
                               [r[m] for r in sides["change"][:pairs]],
                               specs.get(m, {}))
        for s, rs in sides.items():
            att = sum(r["attempted"] for r in rs)
            fail = sum(r["failed"] for r in rs)
            share = 100 * fail / att if att else 0.0
            entry[f"failed_share_{s}"] = f"{fail} of {att} ({share:.1f} %)"
            entry[f"all_correct_{s}"] = all(r["correct"] for r in rs)
        out[w] = entry
    return out


def summarise_cli(runs: list) -> dict:
    """Per README command: the pairs' wall and CPU times (where the runs
    record them) and whether every run's body was the golden one."""
    out = {}
    for c in dict.fromkeys(r["command"] for r in runs):
        sides = {s: [r for r in runs if r["command"] == c and r["side"] == s]
                 for s in ("parent", "change")}
        pairs = min(len(v) for v in sides.values())
        entry = {"pairs": pairs}
        for m in ("wall_s", "cpu_s") if pairs else ():
            par, chg = sides["parent"][:pairs], sides["change"][:pairs]
            if all(m in r for r in par + chg):
                entry[m] = compare([r[m] for r in par], [r[m] for r in chg],
                                   {"better": "lower"})
        for s, rs in sides.items():
            entry[f"all_correct_{s}"] = all(r["correct"] for r in rs)
        out[c] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=workload_arg, action="append", default=[])
    ap.add_argument("--traced", type=workload_arg, action="append", default=[])
    ap.add_argument("--cli", type=int, default=0, metavar="REPS",
                    help="time each README command REPS times per side")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--method", default="",
                    help="free text kept in the output beside the method")
    args = ap.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    specs = metric_specs(dirs["change"])
    facts = subprocess.run([sys.executable, "-c", FACTS], capture_output=True,
                           text=True, check=True, cwd=dirs["change"])
    doc = {"machine": json.loads(facts.stdout),
           "method": (f"perfbench/run.py --seconds {args.seconds:g} from each "
                      "checkout, alternating which side runs first (order in "
                      "runs); end-to-end metrics as the run prints them. "
                      + args.method).strip(),
           "end_to_end_summary": {}, "runs": [], "traced_runs": []}
    if args.cli:
        doc.update(cli_method=(
            "python -m cantorext COMMAND from each checkout with its src/ "
            "on PYTHONPATH and PYTHONHASHSEED=0, wall time from the launching "
            "process's perf_counter, start-up included, CPU time the "
            "RUSAGE_CHILDREN user + system delta around the run; the side "
            "that runs first alternates per command from rep to rep"),
            cli_summary={}, cli_runs=[])

    def save():
        doc["end_to_end_summary"] = summarise(doc["runs"], specs)
        if args.cli:
            doc["cli_summary"] = summarise_cli(doc["cli_runs"])
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    k = 0
    for workload, seeds in args.pairs:
        for seed in seeds:
            order = sides(k)
            k += 1
            for pos, side in enumerate(order):
                res = run_once(dirs[side], workload, seed, args.seconds, 0)
                doc["runs"].append({
                    "side": side, "workload": workload, "seed": seed,
                    "trace": 0, "order": pos, "correct": res["correct"],
                    "attempted": res["attempted"], "failed": res["failed"],
                    **{m: round(res["metrics"][m]["value"], 4)
                       for m in END_TO_END}})
            save()
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{r['side']} {r['wall_s']:.3f} s" for r in doc["runs"][-2:]),
                file=sys.stderr)
    golden = {}
    if args.cli:
        with open(os.path.join(dirs["change"], "tests", "golden",
                               "readme_cli.json")) as fh:
            golden = json.load(fh)
    for rep in range(args.cli):
        for i, (command, digest) in enumerate(golden.items()):
            for pos, side in enumerate(sides(rep + i)):
                wall_s, cpu_s, out = run_cli(dirs[side], command)
                doc["cli_runs"].append({
                    "side": side, "command": command, "rep": rep,
                    "order": pos, "wall_s": round(wall_s, 4),
                    "cpu_s": round(cpu_s, 4), "correct": out == digest})
        save()
        print(f"cli rep {rep + 1} of {args.cli}", file=sys.stderr)
    k = 0
    for workload, seeds in args.traced:
        for seed in seeds:
            order = sides(k)
            k += 1
            for pos, side in enumerate(order):
                res = run_once(dirs[side], workload, seed, args.seconds, 1)
                doc["traced_runs"].append({
                    "side": side, "workload": workload, "seed": seed,
                    "trace": 1, "order": pos, "correct": res["correct"],
                    "attempted": res["attempted"], "failed": res["failed"],
                    "metrics": {m: v["value"]
                                for m, v in res["metrics"].items()}})
            save()
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
