"""Tests of the benchmark itself: every check rejects a perturbed result, a
failed operation is counted without stopping the run, no round repeats an
earlier round's points, times are rescaled by the speed probe, and the
metric names agree with BENCHMARK.json.

    python -m pytest perfbench/tests -q
"""

import json
import math
import os
from types import SimpleNamespace

import mpmath as mp
import pytest

from cantorext import extension, gamma, geometry, hausdorff, markov
from cantorext.dimension import EtaProfile, LogPower

import checks
import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
H_HALF = LogPower(alpha0=0.5)


@pytest.fixture(scope="module")
def op():
    tree = geometry.build_tree(gamma.build_model(gamma.EXAMPLE1, k_max=14, B=1.0),
                               depth=7, bits=1024)
    return extension.ExtensionOperator(tree, s_max=3)


# ---------------------------------------------------------------------------
# each check accepts the program's result and rejects a perturbed one
# ---------------------------------------------------------------------------

def test_reproduction_rejects_perturbed_value(op):
    x = op.tree.levels[3][2].left
    with mp.workprec(op.tree.bits):
        w = op.evaluate(workloads._square, x).value
        assert checks.reproduces(w, x * x)
        assert not checks.reproduces(w * (1 + mp.mpf(2) ** -30), x * x)
        assert not checks.reproduces(w, x * x + mp.mpf(2) ** -30)


def test_certified_bound_rejects_perturbed_value(op):
    x = op.tree.levels[7][9].right
    out = op.evaluate(mp.sin, x, norm_q=2.0, q=5)
    with mp.workprec(op.tree.bits):
        bound = out.certified_bound.to_mpf()
        assert checks.within_certified(out.value, mp.sin(x), bound)
        assert not checks.within_certified(out.value + 2 * bound, mp.sin(x), bound)


def test_linearity_and_range_reject_perturbed_values(op):
    bits = op.tree.bits
    with mp.workprec(bits):
        x = mp.mpf("0.3712")  # in a gap of the set
        c = [mp.mpf(p) / q for p, q in workloads.ExtendJets.COEFFS]
        parts = [op.evaluate(f, x).value for f in
                 (workloads._one, workloads._ident, workloads._square,
                  workloads._cube)]
        combo = mp.fsum(ci * w for ci, w in zip(c, parts))
        assert checks.linear(combo, c, parts, bits)
        assert not checks.linear(combo + mp.mpf(2) ** -(bits - 70), c, parts, bits)
        assert checks.in_unit_interval(parts[0])
        assert not checks.in_unit_interval(1 + mp.mpf(2) ** -(bits - 8))
        assert not checks.in_unit_interval(-mp.mpf(2) ** -(bits - 8))
        assert checks.finite(parts[1])
        assert not checks.finite(mp.nan) and not checks.finite(mp.inf)


def test_density_checks_reject_perturbed_ratios():
    fam = hausdorff.IslandFamily(hausdorff.q_rule_log(), k_max=40)
    t = hausdorff.density_scan_islands(fam, H_HALF, [10, 20, 30, 39])
    ratios = [p.ratio for p in t.per_r]
    assert checks.strictly_decreasing(ratios)
    assert checks.near(ratios[-1], math.log(39) ** -0.5, 0.05)
    assert not checks.strictly_decreasing(ratios[:2] + [ratios[1]] + ratios[2:])
    assert not checks.near(ratios[-1] * 1.06, math.log(39) ** -0.5, 0.05)
    assert checks.all_near([0.70, 0.71], 2 ** -0.5, 0.10)
    assert not checks.all_near([0.70, 0.63], 2 ** -0.5, 0.10)
    assert not checks.all_near([], 2 ** -0.5, 0.10)


def test_content_checks_reject_perturbed_optimum():
    atoms = hausdorff.FloatAtoms([(0.0, 0.01), (0.02, 0.025), (0.1, 0.13),
                                  (0.2, 0.2001), (0.21, 0.3)])
    v = hausdorff.content_dp(atoms, H_HALF).value
    oracle = hausdorff.content_exhaustive(atoms, H_HALF)
    assert checks.matches_oracle(v, oracle)
    assert not checks.matches_oracle(v * (1 + 1e-9), oracle)
    tree = geometry.build_tree(gamma.build_model(gamma.EXAMPLE1, k_max=14, B=1.0),
                               depth=5, bits=512)
    h = EtaProfile(tree.model)
    content = hausdorff.content_dp(hausdorff.TreeAtoms(tree), h).value
    sums = [hausdorff.lambda_level_estimate(tree, h, k).value
            for k in range(tree.depth + 1)]
    assert checks.below_all(content, sums)
    assert not checks.below_all(content + 1e-6, sums)


def test_markov_checks_reject_perturbed_estimates():
    model = gamma.build_model(gamma.POWER_LAW, k_max=12, a=2.0)
    atoms = markov.tree_atom_bounds(geometry.build_tree(model, depth=3, bits=512))
    est = markov.markov_numeric(atoms, 4, points_per_atom=12, workers=1)
    b = markov.markov_bounds(model, 4)
    lo, hi = b.lower.ln_mag, b.upper.ln_mag
    assert checks.in_markov_bracket(est.value, est.stalled, lo, hi)
    assert not checks.in_markov_bracket(est.value, True, lo, hi)
    assert not checks.in_markov_bracket(math.exp(lo) * 0.99, False, lo, hi)
    assert not checks.in_markov_bracket(math.exp(hi) * 1.01, False, lo, hi)
    assert not checks.in_markov_bracket(-math.inf, False, lo, hi)
    table = markov.ratio_table(gamma.build_model(gamma.EXAMPLE1, k_max=32, B=2.0),
                               gamma.build_model(gamma.EXAMPLE2, k_max=32),
                               range(2, 26))
    assert checks.crossover_from(table.rows, 9)
    rows = list(table.rows)
    i = next(i for i, r in enumerate(rows) if r.k == 15)
    rows[i] = SimpleNamespace(k=15, ln_bound=rows[i - 1].ln_bound + 1.0)
    assert not checks.crossover_from(rows, 9)
    assert not checks.crossover_from(table.rows, 2)  # k = 3 is positive


# ---------------------------------------------------------------------------
# failures are counted and the run goes on
# ---------------------------------------------------------------------------

def test_failed_check_and_error_are_counted(capsys):
    ops = run.Ops()
    assert ops.run("ok", lambda: 1, lambda v: v == 1) == 1
    ops.run("wrong", lambda: 2, lambda v: v == 1)
    ops.run("raises", lambda: 1 / 0, lambda v: True)
    ops.run("check raises", lambda: None, lambda v: v + 1)
    ops.run("known", lambda: 2, lambda v: v == 1, known_fault=True)
    assert (ops.attempted, ops.failed, ops.unexpected) == (5, 4, 3)
    assert len(ops.latencies) == 5
    assert "ZeroDivisionError" in capsys.readouterr().err


def test_perturbed_program_fails_only_its_operations(monkeypatch):
    """A workload round over an operator whose combination values are off by
    2^-30 runs to its end, with exactly the combination operations failed."""
    wl = workloads.ExtendJets()
    st = wl.setup(0, None)
    combo = st.basis[4][1]
    orig = extension.ExtensionOperator.evaluate

    def evaluate(self, f, x, **kw):
        out = orig(self, f, x, **kw)
        if f is combo:
            out.value += mp.mpf(2) ** -30
        return out

    monkeypatch.setattr(extension.ExtensionOperator, "evaluate", evaluate)
    ops = run.Ops()
    wl.round(st, 0, 0, ops)
    assert ops.attempted == 1 + 2 + 32 * 6
    assert ops.unexpected == 32
    assert ops.failed == 32 + 2   # the two known-fault operations
    assert list(ops.failed_labels) == [
        "W(_square) next to 0", "W(_cube) next to 0", "W(f4)"]


# ---------------------------------------------------------------------------
# draws: fresh inputs every round
# ---------------------------------------------------------------------------

def test_walk_repeats_no_choice_within_its_stratum():
    picks = [workloads._walk(5, (1, 2), 16, r) for r in range(32)]
    assert sorted(picks[:16]) == list(range(16))
    assert picks[16:] == picks[:16]
    assert picks == [workloads._walk(5, (1, 2), 16, r) for r in range(32)]
    assert picks != [workloads._walk(6, (1, 2), 16, r) for r in range(32)]


def test_jets_points_are_new_every_round_and_avoid_the_fault_point():
    st = SimpleNamespace(inner9=list(range(512)))
    wl = workloads.ExtendJets()
    for seed in range(8):
        rounds = [wl._on_set(st, seed, r) for r in range(28)]
        seen = [p for pts in rounds for p in pts]
        assert 0 not in seen
        assert len(set(seen)) == len(seen)
        for pts in rounds:   # 8 per level-6 interval of two level-3 intervals
            assert {p // 256 for p in pts} == {0, 1}
            assert [p // 8 for p in pts] == sorted({p // 8 for p in pts})


# ---------------------------------------------------------------------------
# spans and metrics
# ---------------------------------------------------------------------------

def test_self_time_excludes_children():
    rec = spans.Recorder()
    inner = spans.traced(rec, "inner", lambda: sum(range(20000)))
    outer = spans.traced(rec, "outer", lambda: [inner() for _ in range(3)])
    rec.on = True
    outer()
    aggs = rec.take()
    o, i = aggs["outer"], aggs["inner"]
    assert (o.calls, i.calls) == (1, 3)
    assert o.self_s == pytest.approx(o.total_s - i.total_s, abs=1e-9)
    assert 0 <= o.self_s < o.total_s
    outer_id = rec.ids[-1]
    assert list(rec.parents) == [outer_id] * 3 + [-1]
    assert rec.take() == {}


def test_times_are_rescaled_by_the_probe(monkeypatch):
    """A machine twice as slow as the reference halves every time, and a
    longer span is probed more often."""
    calls = []

    def slow_probe():
        calls.append(1)
        return 2 * run.REF_PROBE_S

    monkeypatch.setattr(run, "probe", slow_probe)
    assert run.at_reference_speed(0.05) == (0.025, 2 * run.REF_PROBE_S)
    assert len(calls) == 1
    assert run.at_reference_speed(0.35)[0] == pytest.approx(0.175)
    assert len(calls) == 1 + 4
    ops = run.Ops()
    ops.run("op", lambda: sum(range(1000)), lambda v: True)
    assert ops.scaled == pytest.approx(ops.busy / 2)


def test_child_import_is_timed_and_rescaled():
    raw, scaled, p = run.child_import()
    assert 0 < raw < 60 and p > 0
    assert scaled == pytest.approx(raw * run.REF_PROBE_S / p)


def test_latency_summary_needs_ten_samples_beyond():
    assert "percentile" not in run.latency_summary([0.001] * 39)
    s = run.latency_summary([i / 1000 for i in range(1, 101)])
    assert s["count"] == 100 and s["percentile"] == 90.0
    assert s["percentile_ms"] == pytest.approx(90.0)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    layers = run.layer_metrics(0.5, {}, {}, 1)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: v["unit"] for k, v in layers.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
