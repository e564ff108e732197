import contextlib
import dataclasses
import functools
import io
import math
import os
import signal
import sys

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp
from oracles import refine_endpoint_bisection

from cantorext import cli, geometry
from cantorext.errors import BracketError, DepthError, HorizonError, PrecisionError
from cantorext.gamma import CUSTOM, DELTA_FORM, EXAMPLE1, POWER_LAW, build_model
from cantorext.geometry import (
    LevelGeometry, build_tree, endpoint_residuals, max_depth_for_bits,
    required_bits, select_nodes, verify_geometry,
)
from cantorext.hausdorff import TreeAtoms


@functools.lru_cache(maxsize=None)
def _tree(family, kw: tuple, depth: int, bits: int):
    return build_tree(build_model(family, k_max=12, **dict(kw)), depth=depth,
                      bits=bits)


@pytest.fixture(scope="module")
def tree_ex1():
    return build_tree(build_model(EXAMPLE1, k_max=12, B=1.0), depth=5, bits=512)


@pytest.fixture(scope="module")
def tree_plaw():
    return build_tree(build_model(POWER_LAW, k_max=12, a=2.0), depth=6, bits=512)


class TestBuildTree:
    def test_depth0(self):
        t = build_tree(build_model(EXAMPLE1, k_max=5, B=1.0), depth=0)
        assert len(t.atoms()) == 1
        iv = t.interval(1, 0)
        assert iv.left == 0 and iv.right == 1
        assert verify_geometry(t).levels == []

    def test_level1_matches_quadratic_formula(self):
        m = build_model(CUSTOM, gammas=[1 / 32])
        t = build_tree(m, depth=1, bits=256)
        with mp.workprec(256):
            # the model realizes gamma as exp of its double-rounded log
            fr = m.ln_inv_gamma[0]
            g1 = mp.exp(-mp.mpf(fr.numerator) / fr.denominator)
            l11 = (1 - mp.sqrt(1 - 4 * g1)) / 2
            i1, i2 = t.levels[1]
            assert abs(i1.right - l11) < mp.mpf(2) ** -240
            # symmetry of x(x-1) about 1/2
            assert abs((1 - i2.left) - i1.right) < mp.mpf(2) ** -240

    def test_nesting_and_counts(self, tree_ex1):
        t = tree_ex1
        for s in range(1, t.depth + 1):
            assert len(t.levels[s]) == 2 ** s
            for iv in t.levels[s]:
                parent = t.interval((iv.index + 1) // 2, s - 1)
                assert parent.left <= iv.left < iv.right <= parent.right
                # children share exactly one parent endpoint
                assert (iv.left is parent.left) != (iv.right is parent.right)

    def test_geometry_invariants_example1(self, tree_ex1):
        rep = verify_geometry(tree_ex1)
        assert rep.all_ok
        for lvl in rep.levels:
            assert lvl.min_gap_over_len >= 7 / 8

    def test_geometry_invariants_power_law(self, tree_plaw):
        rep = verify_geometry(tree_plaw)
        assert rep.all_ok

    def test_endpoint_residuals(self, tree_ex1):
        for s, log2_res in endpoint_residuals(tree_ex1):
            assert log2_res < -tree_ex1.bits / 2

    def test_bisection_crosscheck(self, tree_ex1):
        # the algebraic endpoints agree with sign-driven bisection
        for (j, s) in [(1, 1), (2, 2), (5, 3), (11, 4)]:
            iv = tree_ex1.interval(j, s)
            _, err = refine_endpoint_bisection(tree_ex1, iv)
            with mp.workprec(tree_ex1.bits):
                scale = iv.right - iv.left
                assert err < mp.mpf(2) ** (-tree_ex1.bits // 2) * scale

    def test_depth_budget(self):
        m = build_model(EXAMPLE1, k_max=12, B=1.0)
        # delta_8 = e^-512 is not resolvable at 512 bits
        assert max_depth_for_bits(m, 512) == 7
        with pytest.raises(DepthError):
            build_tree(m, depth=8, bits=512)
        assert required_bits(m, 7) <= 512 < required_bits(m, 8)

    def test_auto_depth(self):
        t = build_tree(build_model(EXAMPLE1, k_max=12, B=1.0), bits=512)
        assert t.depth == 7


class TestSelectNodes:
    def test_root_n2(self, tree_ex1):
        ns = select_nodes(tree_ex1, (1, 0), 2)
        assert [float(n.x) for n in ns.nodes] == [0.0, 1.0]
        assert [n.type for n in ns.nodes] == [0, 0]

    def test_root_n8_reference_order(self, tree_ex1):
        """The first eight nodes on [0,1] in the increasing-type order."""
        t = tree_ex1
        with mp.workprec(t.bits):
            l = {(j, s): t.interval(j, s).right - t.interval(j, s).left
                 for s in (1, 2) for j in range(1, 2 ** s + 1)}
            want = [
                mp.mpf(0),                      # x1
                mp.mpf(1),                      # x2
                l[(1, 1)],                      # x3 = l_{1,1}
                1 - l[(2, 1)],                  # x4
                l[(1, 2)],                      # x5 = x1 + l_{1,2}
                1 - l[(4, 2)],                  # x6 = x2 - l_{4,2}
                l[(1, 1)] - l[(2, 2)],          # x7 = x3 - l_{2,2}
                1 - l[(2, 1)] + l[(3, 2)],      # x8 = x4 + l_{3,2}
            ]
            got = select_nodes(t, (1, 0), 8).points()
            for i, (g, w) in enumerate(zip(got, want)):
                assert abs(g - w) < mp.mpf(2) ** (-t.bits + 64), f"node {i + 1}"

    def test_types_pattern(self, tree_ex1):
        ns = select_nodes(tree_ex1, (1, 0), 8)
        assert [n.type for n in ns.nodes] == [0, 0, 1, 1, 2, 2, 2, 2]

    def test_prefix_property(self, tree_ex1):
        full = select_nodes(tree_ex1, (1, 0), 8).points()
        for N in range(1, 9):
            part = select_nodes(tree_ex1, (1, 0), N).points()
            assert part == full[:N]

    def test_prefix_zeros_invariant(self, tree_ex1):
        # first 2^n nodes on I_{j,s} = all endpoints of level s+n-1 inside it
        t = tree_ex1
        j, s, n = 2, 1, 3
        ns = select_nodes(t, (j, s), 2 ** n)
        iv = t.interval(j, s)
        inside = set()
        for jv in t.levels[s + n - 1]:
            if iv.left <= jv.left and jv.right <= iv.right:
                inside.add(float(jv.left))
                inside.add(float(jv.right))
        assert inside == {float(x) for x in ns.points()}
        assert len(inside) == 2 ** n

    def test_counts_per_type(self, tree_ex1):
        # node types <= s+n-1 come 2^n per interval: #X_s = 2^s on the root
        ns = select_nodes(tree_ex1, (1, 0), 16)
        from collections import Counter
        c = Counter(n.type for n in ns.nodes)
        assert c[0] == 2 and c[1] == 2 and c[2] == 4 and c[3] == 8

    def test_subinterval_start_order(self, tree_ex1):
        # on I_{2,1} the older endpoint (the shared root endpoint 1) comes first
        ns = select_nodes(tree_ex1, (2, 1), 4)
        assert float(ns.nodes[0].x) == 1.0
        assert ns.nodes[0].type == 0 and ns.nodes[1].type == 1

    def test_depth_error(self, tree_ex1):
        with pytest.raises(DepthError):
            select_nodes(tree_ex1, (1, 0), 2 ** (tree_ex1.depth + 1) + 1)


class TestLengthGapTables:
    def test_lengths_consistent_with_gaps(self, tree_ex1):
        # l = l_left + gap + l_right at every parent
        t = tree_ex1
        for s in range(0, t.depth):
            for iv in t.levels[s]:
                cl, cr = t.children(iv)
                with mp.workprec(t.bits):
                    length = iv.right - iv.left
                    total = (cl.right - cl.left) + (cr.right - cr.left) \
                        + (cr.left - cl.right)
                    assert abs(total - length) <= mp.mpf(2) ** (-t.bits + 8) * length
                    # the stored log-length is the working-precision log
                    assert iv.ln_length == float(mp.log(length))

    @pytest.mark.parametrize("family, kw, depth, bits", [
        (POWER_LAW, {"a": 2.0}, 6, 512),       # the README geometry tree
        (EXAMPLE1, {"B": 1.0}, 7, 512),
        (DELTA_FORM, {"b": 2.0}, 7, 1024),
    ])
    def test_ln_length_is_the_nearest_double(self, family, kw, depth, bits):
        # a LogReal rounded twice (float(hi) + lo) and missed the double
        # nearest ln l by 1 ulp at level 5, indices 5 and 28 of the README tree
        tree = _tree(family, tuple(kw.items()), depth, bits)
        with mp.workprec(2000):
            for lvl in tree.levels:
                for iv in lvl:
                    want = float(mp.log(iv.right - iv.left))
                    assert iv.ln_length.hex() == want.hex(), (iv.level, iv.index)


def _geometry_dividing_every_length(tree) -> list:
    """verify_geometry's levels from every quotient l/delta_s of a level,
    the extreme ones logged: the reference for its shortest and longest
    length."""
    out = []
    ln_c0 = 16.0 * tree.model.gamma_sum
    with mp.workprec(tree.bits):
        for s in range(1, tree.depth + 1):
            delta = tree.delta_mpf(s)
            ratios = [(iv.right - iv.left) / delta for iv in tree.levels[s]]
            lo_m, hi_m = mp.log(min(ratios)), mp.log(max(ratios))
            g_m = min((cr.left - cl.right) / (iv.right - iv.left)
                      for iv in tree.levels[s - 1]
                      for cl, cr in [tree.children(iv)])
            sharp = 1 - 4 * geometry._exp_neg(tree.model.ln_inv_gamma[s - 1])
            out.append(LevelGeometry(
                level=s,
                min_ln_l_over_delta=float(lo_m), max_ln_l_over_delta=float(hi_m),
                min_gap_over_len=float(g_m), sharp_gap_bound=float(sharp),
                length_bounds_ok=bool(lo_m > 0) and bool(hi_m < ln_c0),
                gap_bound_ok=bool(g_m >= mp.mpf(7) / 8),
                sharp_gap_ok=bool(g_m > sharp)))
    return out


def _hex_fields(level) -> dict:
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in dataclasses.asdict(level).items()}


@pytest.mark.parametrize("family, kw, depth, bits", [
    (DELTA_FORM, {"b": 2.0}, 7, 1024),         # prefix levels fail the gap bound
    (EXAMPLE1, {"B": 1.0}, 7, 512),
])
def test_verify_geometry_matches_every_quotient(family, kw, depth, bits):
    tree = _tree(family, tuple(kw.items()), depth, bits)
    got = verify_geometry(tree).levels
    want = _geometry_dividing_every_length(tree)
    assert [_hex_fields(l) for l in got] == [_hex_fields(l) for l in want]
    assert all(l.gap_bound_ok for l in got) == (family != DELTA_FORM)


from hypothesis import example, given, settings, strategies as st


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=24),
       st.integers(min_value=1, max_value=23))
def test_prefix_property_random(tree_ex1_holder, s, N, N_small):
    tree = tree_ex1_holder
    j = 1 + (N * 7) % (2 ** s)
    if N_small > N or N > 2 ** (tree.depth - s):
        return
    full = select_nodes(tree, (j, s), N).points()
    assert select_nodes(tree, (j, s), N_small).points() == full[:N_small]


@pytest.fixture(scope="module")
def tree_ex1_holder(tree_ex1):
    return tree_ex1


@pytest.mark.parametrize("family,kw,depth,bits", [
    (EXAMPLE1, {"B": 1.5}, 4, 512),
    (POWER_LAW, {"a": 3.0}, 5, 512),
    ("exponential", {"a": 2.0}, 5, 512),
    ("doubly_exp", {"a": 3.0}, 3, 512),
    ("example2", {"variant": "A"}, 5, 512),
    ("delta_form", {"b": 2.0}, 5, 512),
    (CUSTOM, {"gammas": [1 / 32, 1 / 40, 1 / 64, 1 / 64, 1 / 50]}, 5, 512),
])
def test_every_family_builds_and_verifies(family, kw, depth, bits):
    model = build_model(family, k_max=12, **kw) if family != CUSTOM \
        else build_model(family, **kw)
    tree = build_tree(model, depth=depth, bits=bits)
    assert len(tree.atoms()) == 2 ** depth
    rep = verify_geometry(tree)
    # admissible levels satisfy the bounds; delta-form prefixes are exempt
    for lvl in rep.levels:
        if lvl.level > len(model.eq2_exceptions):
            assert lvl.length_bounds_ok and lvl.gap_bound_ok, (family, lvl)


@st.composite
def _sqrt_args(draw):
    """(precision, mantissa, exponent) of a finite x >= 0: mantissas of 0 to
    8300 bits, exact squares among them, and exponents of either parity down
    to about -2^20000."""
    prec = draw(st.integers(min_value=53, max_value=8192))
    bits = draw(st.integers(min_value=0, max_value=8300))
    man = draw(st.integers(min_value=2 ** bits >> 1, max_value=2 ** bits - 1))
    exp = draw(st.integers(min_value=-20050, max_value=64)
               | st.integers(min_value=-20002, max_value=-19998))
    if draw(st.booleans()):
        man, exp = man * man, 2 * (exp // 2)
    return prec, man, exp


@settings(max_examples=300, deadline=None)
@given(_sqrt_args())
@example((53, 0, 0))                          # zero
@example((8192, 1, -20000))                   # powers of two, even exponent
@example((8192, 1, -20001))                   # ... and odd
@example((53, 4, 7))                          # normalizes to man == 1
@example((4096, 3 ** 2000, -20000))           # exact square
@example((8192, 2 ** 8191 + 1, -19999))
def test_sqrt_is_mpmath_sqrt_bit_for_bit(args):
    prec, man, exp = args
    x = mp.make_mpf(from_man_exp(man, exp))   # exact: no rounding to prec
    with mp.workprec(prec):
        assert geometry._sqrt(x)._mpf_ == mp.sqrt(x)._mpf_


@pytest.mark.parametrize("family,kw,depth,bits", [
    (EXAMPLE1, {"B": 1.0}, 6, 2048),
    (DELTA_FORM, {"b": 3.0}, 6, 1280),
])
def test_tree_endpoints_match_mp_sqrt_build(family, kw, depth, bits,
                                            monkeypatch):
    model = build_model(family, k_max=12, **kw)

    def ends():
        tree = build_tree(model, depth=depth, bits=bits)
        return [(iv.left._mpf_, iv.right._mpf_)
                for level in tree.levels for iv in level]

    fast = ends()
    monkeypatch.setattr(geometry, "_sqrt", mp.sqrt)
    assert ends() == fast


def _chain_point(addr, r):
    """The type-len(addr) point by the quadratic chain, one address at a time
    and without any memo: the oracle for build_tree's shared chains."""
    s = len(addr)
    v = -r[s]
    for i in range(s - 1, 0, -1):
        disc = mp.sqrt(r[i] * r[i] / 4 + v)
        if addr[i] == addr[i - 1]:
            v = v / (r[i] / 2 + disc)
        else:
            v = -r[i] / 2 - disc
    disc = mp.sqrt(mp.mpf(1) / 4 + v)
    if addr[0] == geometry.LEFT:
        return -v / (mp.mpf(1) / 2 + disc)
    return mp.mpf(1) / 2 + disc


@pytest.mark.parametrize("family,kw,depth,bits", [
    (EXAMPLE1, {"B": 1.0}, 8, 2048),
    (DELTA_FORM, {"b": 3.0}, 6, 1280),
    (POWER_LAW, {"a": 2.0}, 5, 512),
])
def test_tree_endpoints_match_per_address_chain(family, kw, depth, bits):
    tree = build_tree(build_model(family, k_max=12, **kw), depth=depth,
                      bits=bits)
    with mp.workprec(bits):
        for level in tree.levels[1:]:
            for iv in level:
                # the endpoint created at this level faces the parent's centre
                new = iv.right if iv.addr[-1] == geometry.LEFT else iv.left
                assert new._mpf_ == _chain_point(iv.addr, tree.r_mpf)._mpf_


@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_build_takes_one_sqrt_per_flip_pattern(depth, monkeypatch):
    # level s solves 2^(s-1) root discriminants and 2^(s-1) - 1 others
    calls = []
    sqrt = geometry._sqrt
    monkeypatch.setattr(geometry, "_sqrt",
                        lambda x: calls.append(x) or sqrt(x))
    build_tree(build_model(EXAMPLE1, k_max=12, B=1.0), depth=depth, bits=512)
    assert len(calls) == 2 ** (depth + 1) - depth - 2


def test_delta_mpf_is_computed_once_per_k(tree_ex1):
    fr = sum(tree_ex1.model.ln_inv_gamma[:3])
    with mp.workprec(tree_ex1.bits):
        want = mp.exp(-mp.mpf(fr.numerator) / fr.denominator)
    assert tree_ex1.delta_mpf(3) is tree_ex1.delta_mpf(3)
    assert tree_ex1.delta_mpf(3) == want


@pytest.mark.parametrize("family,kw,depth,bits", [
    (EXAMPLE1, {"B": 1.0}, 5, 512),
    (POWER_LAW, {"a": 2.0}, 6, 512),
    (DELTA_FORM, {"b": 3.0}, 5, 1024),
])
def test_level_values_is_the_forward_recursion(family, kw, depth, bits):
    """Every level P_2..P_{2^(depth+1)}, each recomputed from scratch by the
    recursion, at the level-2 endpoints and the midpoints of eight atoms."""
    model = build_model(family, k_max=12, **kw)
    tree = build_tree(model, depth=depth, bits=bits)
    r = tree.r_mpf
    with mp.workprec(bits):
        xs = [z for iv in tree.levels[2] for z in (iv.left, iv.right)]
        xs += [(iv.left + iv.right) / 2 for iv in tree.atoms()[::2 ** depth // 8]]
        for x in xs:
            got = geometry.level_values(x, r, depth + 1)
            assert len(got) == depth + 1
            for s in range(1, depth + 2):
                v = x * (x - 1)
                for i in range(1, s):
                    v = v * (v + r[i])
                assert got[s - 1]._mpf_ == v._mpf_


def test_delta_mpf_past_the_horizon_raises():
    # k_max = 5 and depth 3: delta_4 and delta_5 come from the model's own
    # gammas, and no delta exists past k_max
    model = build_model(EXAMPLE1, k_max=5, B=1.0)
    tree = build_tree(model, depth=3, bits=512)
    fr = sum(model.ln_inv_gamma)
    with mp.workprec(tree.bits):
        assert tree.delta_mpf(5) == mp.exp(-mp.mpf(fr.numerator) / fr.denominator)
    for k in (-1, 6, 7):
        with pytest.raises(HorizonError):
            tree.delta_mpf(k)


def test_atoms_outside_the_built_depth_raise():
    tree = build_tree(build_model(EXAMPLE1, k_max=5, B=1.0), depth=3, bits=512)
    assert [len(tree.atoms(s)) for s in range(4)] == [1, 2, 4, 8]
    assert tree.atoms() == tree.atoms(3)
    for level in (-1, -3, 4):
        with pytest.raises(DepthError):
            tree.atoms(level)
        with pytest.raises(DepthError):
            TreeAtoms(tree, level=level)


# -- the deepest level in a forked child ------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _tree_bits(tree) -> tuple:
    """Everything build_tree decides, as exact values."""
    return ([(iv.level, iv.index, iv.left._mpf_, iv.right._mpf_, iv.ln_length,
              iv.addr, iv.left_type, iv.right_type)
             for level in tree.levels for iv in level],
            [r._mpf_ for r in tree.r_mpf])


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returned during the test.  Two usable CPUs are
    reported so that the fork decision rests on the size alone."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial_build(monkeypatch, model, depth, bits):
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        return build_tree(model, depth=depth, bits=bits)


@needs_fork
def test_forked_build_is_the_serial_build_bit_for_bit(forks, monkeypatch):
    model = build_model(EXAMPLE1, k_max=12, B=1.0)
    assert geometry._forks(9, 2048)
    forked = build_tree(model, depth=9, bits=2048)
    assert len(forks) == 1
    assert _tree_bits(forked) == _tree_bits(
        _serial_build(monkeypatch, model, 9, 2048))
    # criterion 3's depth-10, 8192-bit tree, when the acceptance tests built it
    acceptance = sys.modules.get("test_acceptance")
    deep = acceptance and acceptance._CACHE.get("ex1_deep")
    if deep is not None:
        assert _tree_bits(deep) == _tree_bits(
            _serial_build(monkeypatch, deep.model, 10, 8192))


def _planted(monkeypatch, depth, faults):
    """Patch the level-``depth`` solver: ``faults`` maps an address to
    "swap" (the point of its mirror sibling, which breaks the nesting) or to
    "raise" (a BracketError).  Every other level is solved as usual."""
    solve = geometry._level_points

    def level_points(s, *args):
        point = solve(s, *args)
        if s != depth:
            return point

        def planted(addr):
            fault = faults.get(tuple(addr))
            if fault == "raise":
                raise BracketError(f"planted at {tuple(addr)}")
            if fault == "swap":
                return point(tuple(addr[:-1]) + (1 - addr[-1],))
            return point(addr)
        return planted

    monkeypatch.setattr(geometry, "_level_points", level_points)


@needs_fork
@pytest.mark.parametrize("faults,error,match", [
    ({(1,) * 9: "raise"}, BracketError, r"planted at \(1, 1, 1, 1, 1, 1, 1, 1, 1\)"),
    # the nesting of an earlier interval fails before the later point raises
    ({(0,) * 8 + (1,): "swap", (1,) * 9: "raise"}, PrecisionError,
     r"level-9 points out of order inside I_1,8"),
], ids=["child-raises", "nesting-fails-first"])
def test_a_deepest_level_error_is_the_serial_error(forks, monkeypatch, faults,
                                                   error, match):
    model = build_model(EXAMPLE1, k_max=12, B=1.0)
    _planted(monkeypatch, 9, faults)
    with pytest.raises(error, match=match) as forked:
        build_tree(model, depth=9, bits=2048)
    assert len(forks) == 1
    with pytest.raises(error) as serial:
        _serial_build(monkeypatch, model, 9, 2048)
    assert str(forked.value) == str(serial.value)


@needs_fork
def test_a_parent_level_error_kills_and_reaps_the_child(forks, monkeypatch):
    kills = []
    kill = os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append((pid, sig))
                        or kill(pid, sig))
    _planted(monkeypatch, 3, {(0, 1, 1): "raise"})
    with pytest.raises(BracketError, match=r"planted at \(0, 1, 1\)"):
        build_tree(build_model(EXAMPLE1, k_max=12, B=1.0), depth=9, bits=2048)
    assert kills == [(forks[0], signal.SIGKILL)]


@needs_fork
def test_a_child_without_a_result_is_an_error(forks, monkeypatch):
    parent = os.getpid()
    solve = geometry._solve_level

    def solve_level(s, *args):
        if os.getpid() != parent:
            os._exit(3)
        return solve(s, *args)

    monkeypatch.setattr(geometry, "_solve_level", solve_level)
    with pytest.raises(ChildProcessError, match="without a whole result"):
        build_tree(build_model(EXAMPLE1, k_max=12, B=1.0), depth=9, bits=2048)


@needs_fork
def test_a_refused_fork_builds_in_process(monkeypatch):
    def refused():
        raise BlockingIOError("no process slot")

    model = build_model(EXAMPLE1, k_max=12, B=1.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    with monkeypatch.context() as m:
        m.setattr(os, "fork", refused)
        tree = build_tree(model, depth=8, bits=2048)
    assert _tree_bits(tree) == _tree_bits(
        _serial_build(monkeypatch, model, 8, 2048))


def test_small_trees_never_fork(monkeypatch):
    """The density, markov and ``cantorext examples`` trees, at the highest
    precision the density workload draws (nominal bits + 32), stay in this
    process however many CPUs there are."""
    def no_fork():
        raise AssertionError("a small tree forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    for family, kw, depth, bits in [(DELTA_FORM, {"b": 2.0}, 7, 1024),
                                    (DELTA_FORM, {"b": 3.0}, 6, 1280),
                                    (EXAMPLE1, {"B": 1.0}, 7, 512),
                                    (POWER_LAW, {"a": 2.0}, 4, 512)]:
        model = build_model(family, k_max=14, **kw)
        for b in (bits, bits + 32):
            assert not geometry._forks(depth, b)
            build_tree(model, depth=depth, bits=b)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["examples"]) == 0
