"""The verdicts ``scripts/bench_pairs.py`` writes beside each metric."""

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
