"""Output checks, each built apart from the computation it checks.

Every check compares a result with an independent computation (the exact
function value, an exhaustive oracle, a closed-form bound or limit) or with a
property the method must have (linearity, a range, monotonicity).  None
compares with a stored copy of an earlier output.  Each returns a bool; the
runner counts an operation whose check is false as failed.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath as mp


def reproduces(w, exact) -> bool:
    """W(p)(x) = p(x) on the set to 1e-12, relative to |p(x)| (absolute
    where p(x) = 0)."""
    scale = abs(exact) if exact != 0 else 1
    return bool(abs(w - exact) <= mp.mpf(1e-12) * scale)


def within_certified(w, exact, bound) -> bool:
    """|W(f)(x) - f(x)| at most the operator's certified truncation bound."""
    return bool(abs(w - exact) <= bound)


def linear(w_combo, coeffs: Sequence, w_parts: Sequence, bits: int) -> bool:
    """W(sum c_i f_i)(x) = sum c_i W(f_i)(x) within 2^-(bits - 64)."""
    if len(coeffs) != len(w_parts):
        return False
    expected = mp.fsum(c * w for c, w in zip(coeffs, w_parts))
    return bool(abs(w_combo - expected) <= mp.mpf(2) ** (-(bits - 64)))


def in_unit_interval(w) -> bool:
    """0 <= W(1)(x) <= 1: W(1) is a cutoff off the set."""
    return bool(0 <= w <= 1)


def finite(w) -> bool:
    return bool(mp.isfinite(w))


def near(value: float, target: float, rel: float) -> bool:
    """``value`` within ``rel`` of ``target`` (relative)."""
    return math.isfinite(value) and abs(value - target) <= rel * abs(target)


def all_near(values: Sequence[float], target: float, rel: float) -> bool:
    return len(values) > 0 and all(near(v, target, rel) for v in values)


def strictly_decreasing(values: Sequence[float]) -> bool:
    return len(values) >= 2 and all(a > b for a, b in zip(values, values[1:]))


def matches_oracle(value: float, oracle: float) -> bool:
    """The covering DP optimum equals the exhaustive optimum to 1e-12
    relative."""
    return math.isfinite(value) and abs(value - oracle) <= 1e-12 * abs(oracle)


def below_all(value: float, ceilings: Sequence[float]) -> bool:
    """``value`` at most every ceiling: an optimal covering costs no more
    than any particular covering, such as the level-k basic intervals."""
    return len(ceilings) > 0 and math.isfinite(value) and all(
        value <= c * (1 + 1e-12) for c in ceilings)


def in_markov_bracket(value: float, stalled: bool, ln_lower: float,
                      ln_upper: float) -> bool:
    """1/delta_k < M_n < 4/delta_{k+1} with every candidate LP converged."""
    if stalled or not value > 0 or not math.isfinite(value):
        return False
    return ln_lower < math.log(value) < ln_upper


def crossover_from(rows: Sequence, k_from: int) -> bool:
    """Crossover bounds negative and strictly decreasing from ``k_from`` on."""
    tail = [r.ln_bound for r in rows if r.k >= k_from]
    return len(tail) >= 2 and all(v < 0 for v in tail) \
        and strictly_decreasing(tail)
