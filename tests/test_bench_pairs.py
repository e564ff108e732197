"""The verdicts ``scripts/bench_pairs.py`` writes beside each metric."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_pairs  # noqa: E402

LOWER = {"better": "lower", "bound": 0.24}


@pytest.mark.parametrize("parent,change,spec,gain,within", [
    # lower in 10 of 10, the gap above the parent's IQR of 0.1
    ([1.0] * 5 + [1.1] * 5, [0.9] * 10, LOWER, True, True),
    # lower in 9 of 10, one tie: the tie counts for neither side
    ([1.0] * 10, [0.8] * 9 + [1.0], LOWER, True, True),
    # lower in 8 of 10
    ([1.0] * 10, [0.8] * 8 + [1.2] * 2, LOWER, False, True),
    # lower in 10 of 10, but within the parent's IQR
    ([1.0, 1.2] * 5, [0.95, 1.15] * 5, LOWER, False, True),
    # 30 % worse: outside a 24 % bound; no bound given
    ([1.0] * 10, [1.3] * 10, LOWER, False, False),
    ([1.0] * 10, [1.3] * 10, {}, False, None),
    # a higher-is-better metric
    ([1.0] * 10, [1.5] * 10, {"better": "higher", "bound": 0.1}, True, True),
    ([1.0] * 10, [0.8] * 10, {"better": "higher", "bound": 0.1}, False, False),
])
def test_gain_rule_and_bound(parent, change, spec, gain, within):
    assert bench_pairs.verdicts(parent, change, spec) == {
        "gain_rule_met": gain, "within_bound": within}


def test_cli_summary_per_command():
    # two commands, four reps each; the last change run of `dn` printed a
    # body other than the golden one
    walls = {"gamma": ([0.30, 0.32, 0.34, 0.36], [0.18, 0.17, 0.19, 0.20]),
             "dn": ([0.24, 0.25, 0.26, 0.27], [0.25, 0.24, 0.27, 0.28])}
    runs = [{"side": side, "command": command, "rep": rep,
             "wall_s": walls[command][s][rep],
             "correct": not (command == "dn" and side == "change"
                             and rep == 3)}
            for rep in range(4) for command in walls
            for s, side in enumerate(("parent", "change"))]
    out = bench_pairs.summarise_cli(runs)
    assert list(out) == ["gamma", "dn"]
    assert out["gamma"] == {
        "pairs": 4,
        "wall_s": {
            "parent_median": 0.33, "change_median": 0.185,
            "change_vs_parent": "-43.9 %",
            "parent_quartiles": [0.315, 0.345],
            "change_quartiles": [0.1775, 0.1925],
            "change_lower_in": "4 of 4",
            "median_gap_exceeds_parent_iqr": True,
            "gain_rule_met": True, "within_bound": None},
        "all_correct_parent": True, "all_correct_change": True}
    dn = out["dn"]
    assert dn["wall_s"]["change_median"] == 0.26
    assert dn["wall_s"]["change_lower_in"] == "1 of 4"
    assert dn["wall_s"]["gain_rule_met"] is False
    assert dn["all_correct_parent"] and not dn["all_correct_change"]


def test_cli_summary_compares_cpu_time_beside_wall_time():
    # a command whose wall time holds while its child's CPU time falls,
    # as when a spinning thread pool no longer starts
    walls = ([0.25, 0.26, 0.24], [0.25, 0.25, 0.25])
    cpus = ([0.36, 0.35, 0.37], [0.25, 0.24, 0.26])
    runs = [{"side": side, "command": "hausdorff", "rep": rep,
             "wall_s": walls[s][rep], "cpu_s": cpus[s][rep], "correct": True}
            for rep in range(3) for s, side in enumerate(("parent", "change"))]
    out = bench_pairs.summarise_cli(runs)["hausdorff"]
    assert out["cpu_s"] == {
        "parent_median": 0.36, "change_median": 0.25,
        "change_vs_parent": "-30.6 %",
        "parent_quartiles": [0.355, 0.365],
        "change_quartiles": [0.245, 0.255],
        "change_lower_in": "3 of 3",
        "median_gap_exceeds_parent_iqr": True,
        "gain_rule_met": True, "within_bound": None}
    assert out["wall_s"]["change_lower_in"] == "1 of 3"
    assert out["wall_s"]["gain_rule_met"] is False


def test_traced_pairs_alternate_which_side_runs_first(tmp_path, monkeypatch):
    # the traced runs once always ran the parent first, so a layer's time
    # in the change run carried whatever the machine did second
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((Path(checkout).name, seed, trace))
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {m: {"value": 1.0} for m in bench_pairs.END_TO_END}}

    def facts(*args, **kwargs):
        return subprocess.CompletedProcess(args, 0, stdout='{"python": "3"}')

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs.subprocess, "run", facts)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--pairs", "density:1-3",
                             "--traced", "extend_jets:7,11,13",
                             "--traced", "density:5",
                             "--out", str(out)]) == 0
    traced = [(side, seed) for side, seed, trace in calls if trace]
    assert traced == [("parent", 7), ("change", 7), ("change", 11),
                      ("parent", 11), ("parent", 13), ("change", 13),
                      ("change", 5), ("parent", 5)]
    runs = json.loads(out.read_text())["traced_runs"]
    assert [(r["side"], r["seed"], r["order"]) for r in runs] == [
        (side, seed, i % 2) for i, (side, seed) in enumerate(traced)]
