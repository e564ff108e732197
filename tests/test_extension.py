import contextlib
import functools
import gc
import hashlib
import io
import math
import os
import signal

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath.libmp import (from_man_exp, fzero, mpf_add, mpf_div, mpf_mul,
                          mpf_neg, mpf_pos, mpf_sub, round_nearest)
from oracles import (JetSample, _div, block_inequality_fails, c_p_table,
                     check_cutoff_product_bound, direct_sup_check,
                     helper_grow, merge_atoms,
                     order_major_divided_differences, polynomial_jet, series,
                     step_series, whitney_norm)
import test_acceptance
from test_acceptance import ex1_tree_deep

from cantorext import cli, extension
from cantorext.bump import BumpSpec, bump_for_interval, step_value_mpf
from cantorext.errors import (HorizonError, InvariantError, NodeCollisionError,
                              ParameterError)
from cantorext.extension import (
    ExtensionOperator, NewtonTable, check_chain_product_bound,
    check_distance_product_bound, divided_differences, dn_experiment,
    grow_omega, schedule_for,
)
from cantorext.gamma import (DELTA_FORM, DOUBLY_EXP, EXAMPLE1, EXAMPLE2,
                             EXAMPLE3, EXPONENTIAL, POWER_LAW, build_model,
                             profile)
from cantorext.geometry import build_tree, select_nodes
from cantorext.kernel import _add, _mag, _mul, _rounded, _sub
from cantorext.logreal import LN2_FRACTION


@pytest.fixture(scope="module")
def tree_ex1():
    # deep enough for truncation level 4 (types to 7)
    return build_tree(build_model(EXAMPLE1, k_max=14, B=1.0), depth=7, bits=1024)


@pytest.fixture(scope="module")
def tree_ex1_512():
    return build_tree(build_model(EXAMPLE1, k_max=14, B=1.0), depth=7, bits=512)


@pytest.fixture(scope="module")
def probe_points_512(tree_ex1_512):
    """On-set endpoints, uniform off-set points, and points inside the
    narrow shoulders (distance c delta_k from an atom), at tree precision.
    The endpoints of levels 2-5 (0 and 1 among them) are nodes of the
    tables the sums read, which stop there."""
    tree = tree_ex1_512
    rng = np.random.default_rng(3)
    with mp.workprec(tree.bits):
        on_set = [z for iv in tree.levels[7][5::23] for z in (iv.left, iv.right)]
        on_set += sorted({z for iv in tree.levels[5]
                          for z in (iv.left, iv.right)})
        off_set = [mp.mpf(float(u)) for u in rng.uniform(-0.05, 1.05, size=12)]
        shoulder = [iv.right + tree.delta_mpf(k) * c
                    for iv in tree.levels[7][9::40] for k in (3, 4, 5, 6)
                    for c in (mp.mpf("0.4"), mp.mpf("0.8"))]
    return on_set + off_set + shoulder


@pytest.fixture(scope="module")
def tree_delta():
    return build_tree(build_model(DELTA_FORM, k_max=12, b=2.0), depth=7,
                      bits=512)


@pytest.fixture(scope="module")
def tree_plaw():
    return build_tree(build_model(POWER_LAW, k_max=12, a=2.0), depth=5, bits=512)


class TestSchedule:
    def test_example1_schedule(self):
        p = profile(build_model(EXAMPLE1, k_max=12, B=1.0))
        sched = schedule_for(p, 8)
        # ln(1/delta_s) = 2^{s+1}: n_s = s+1 from s = 2 on
        assert sched.n == (2, 2, 3, 4, 5, 6, 7, 8, 9)
        assert sched.M(0) == 1 and sched.M(1) == 1 and sched.M(3) == 3
        assert sched.N(2) == 7

    def test_sandwich_invariant(self):
        p = profile(build_model(POWER_LAW, k_max=30, a=2.0))
        sched = schedule_for(p, 20)
        for s in range(2, 21):
            L = float(p.ln_inv_delta(s))
            assert 0.5 * L < 2 ** sched.n[s] <= L
        assert all(a <= b for a, b in zip(sched.n, sched.n[1:]))


class TestDividedDifferences:
    def test_square_function(self):
        pts = [mp.mpf(0), mp.mpf(1), mp.mpf("0.5")]
        coeffs, _ = divided_differences(pts, [p * p for p in pts])
        assert [float(c) for c in coeffs] == [0.0, 1.0, 1.0]

    def test_degree_exactness(self):
        # a cubic at 5 nodes: fourth coefficient vanishes
        pts = [mp.mpf(v) for v in (0, 1, 0.3, 0.7, 0.5)]
        coeffs, _ = divided_differences(pts, [p ** 3 for p in pts])
        assert abs(coeffs[4]) < 1e-13

    def test_constants(self):
        pts = [mp.mpf(v) for v in (0, 1, 0.25, 0.125)]
        coeffs, _ = divided_differences(pts, [mp.mpf(7)] * 4)
        assert [float(c) for c in coeffs] == [7.0, 0.0, 0.0, 0.0]

    def test_collision(self):
        with pytest.raises(NodeCollisionError):
            divided_differences([mp.mpf(0), mp.mpf(0)], [mp.mpf(0), mp.mpf(1)])

    def test_collision_is_decided_on_the_full_difference(self):
        # equal nodes raise whatever the values are; nodes 2^-250 apart at
        # 256 bits do not, though the entries above them carry few bits
        with mp.workprec(256):
            equal = [mp.mpf(1), mp.mpf(2) ** -40, mp.mpf(1)]
            for vals in ([mp.mpf(3)] * 3, [mp.mpf(1), mp.mpf(2), mp.mpf(0)]):
                with pytest.raises(NodeCollisionError, match="nodes 0 and 2"):
                    divided_differences(equal, vals)
            apart = [mp.mpf(1), mp.mpf(2) ** -40, 1 + mp.mpf(2) ** -250]
        _assert_within_full_error(_tables(apart, mp.sin, 256, 768), 256, 768)

    @pytest.mark.parametrize("bits", [128, 1024, 8192])
    def test_exact_zeros_stay_exact(self, bits):
        # constant f, and x^2 at dyadic nodes, whose tables are exact
        with mp.workprec(bits):
            pts = [mp.mpf(v) for v in (0, 1, 0.25, 0.75, 0.5, 0.375)]
            for vals in ([mp.mpf(7)] * 6, [z * z for z in pts]):
                got, _ = divided_differences(pts, vals)
                assert _bits(got) == _bits(_dd_full(pts, vals))
                assert all(c == 0 for c in got[3:])
            assert got[:3] == [0, 1, 1]

    @pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan])
    def test_non_finite_nodes_and_values_raise(self, bad):
        # a Whitney jet is finite: an inf or nan node or value raises
        # ParameterError naming its node before any entry is computed, from
        # divided_differences, NewtonTable.grow and oracles.helper_grow
        # alike, and a grown table keeps what it held
        with mp.workprec(2048):
            pts = [mp.mpf(1) / k for k in range(1, 8)]
            vals = [mp.exp(z) for z in pts]
            for at in (0, 3, 6):
                for i, match in ((0, f"node {at} is not finite"),
                                 (1, f"f has no finite value at node {at}")):
                    args = [pts[:], vals[:]]
                    args[i][at] = bad
                    with pytest.raises(ParameterError, match=match):
                        divided_differences(*args)
                    held = min(at, 2)
                    for grow in (NewtonTable.grow, helper_grow):
                        table = NewtonTable(2048)
                        divided_differences(pts[:held], vals[:held], table)
                        before = _bits(table.coeffs), table.errs[:]
                        with pytest.raises(ParameterError, match=match):
                            grow(table, *args)
                        assert (_bits(table.coeffs), table.errs) == before
                        assert table.points == pts[:held]


def _dd_full(points, values):
    """The whole-precision table: every division at the working precision."""
    n = len(points)
    table = list(values)
    coeffs = [table[0]]
    for order in range(1, n):
        for i in range(n - order):
            dz = points[i + order] - points[i]
            if dz == 0:
                raise NodeCollisionError(f"nodes {i} and {i + order} coincide")
            table[i] = (table[i + 1] - table[i]) / dz
        coeffs.append(table[0])
    return coeffs


def _bits(coeffs):
    return [c._mpf_ for c in coeffs]


def _runge(v):
    return 1 / (1 + 25 * v * v)


_DD_FUNCS = {"sin": mp.sin, "exp": mp.exp, "runge": _runge,
             "quintic": lambda v: v ** 5 - v}


def _clustered(data, prec, max_nodes):
    """Distinct nodes at ``prec`` bits, listed cluster by cluster: up to
    three centres, one in each third of [-1, 1), with offsets at scales
    2^-4 down to 2^-(prec/4) around each.  Each centre has an irrational
    part, so that the nodes and f's values carry rounding errors of their
    own (see ``test_exact_inputs_can_beat_the_shortcut``)."""
    nodes = []
    for i in range(data.draw(st.integers(1, 3))):
        c = mp.mpf(data.draw(st.floats(-1 + 2 * i / 3, -2 / 3 + 2 * i / 3))) \
            + mp.sqrt(2) / 2 ** 60
        for _ in range(data.draw(st.integers(1, 5))):
            k = data.draw(st.integers(4, prec // 4))
            u = data.draw(st.floats(0.5, 1))
            nodes.append(c + mp.mpf(u) * mp.mpf(2) ** -k)
    nodes = list(dict.fromkeys(nodes))[:max_nodes]
    assume(len(nodes) >= 2)
    return nodes


def _tables(points, f, prec, ref_prec):
    """The shortcut's coefficients and error exponents and the full table at
    ``prec`` bits, and a reference table at ``ref_prec`` bits."""
    with mp.workprec(prec):
        vals = [f(z) for z in points]
        got, errs = divided_differences(points, vals)
        full = _dd_full(points, vals)
    with mp.workprec(ref_prec):
        ref = _dd_full(points, [f(z) for z in points])
    return got, errs, full, ref


@functools.cache
def _c3_sin_tables(interval, n_nodes):
    """C3's sin table on ``interval`` at 8192 bits, its reference at 3x."""
    tree = ex1_tree_deep()
    points = select_nodes(tree, interval, n_nodes).points()
    return _tables(points, mp.sin, tree.bits, 3 * tree.bits)


def _assert_within_full_error(tables, prec, ref_prec):
    """Every coefficient of the shortcut is within 2^4 times the full table's
    own error (or the reference coefficient's ulp at ``prec`` bits) of a
    reference table taken at ``ref_prec`` bits."""
    got, _, full, ref = tables
    with mp.workprec(ref_prec):
        for k, (g, w, r) in enumerate(zip(got, full, ref)):
            _, man, exp, bc = r._mpf_
            ulp = mp.ldexp(1, exp + bc - prec) if man else 0
            assert abs(g - r) <= 16 * max(abs(w - r), ulp), k


def _assert_exponents_cover(tables, ref_prec):
    """Coefficient k of the shortcut and of the full table both lie within
    2^errs[k] of the reference."""
    got, errs, full, ref = tables
    with mp.workprec(ref_prec):
        for k, (g, e, w, r) in enumerate(zip(got, errs, full, ref)):
            bound = 0 if e == -math.inf else mp.ldexp(1, e)
            assert abs(g - r) <= bound and abs(w - r) <= bound, (k, e)


class TestReducedPrecisionTable:
    """``divided_differences`` divides at the precision an entry carries;
    ``_dd_full`` is the whole-precision table it replaces."""

    @settings(max_examples=150, deadline=None)
    @given(prec=st.integers(24, 128), name=st.sampled_from(sorted(_DD_FUNCS)),
           data=st.data())
    def test_bit_for_bit_at_or_below_the_floor(self, prec, name, data):
        # smooth values at clustered nodes cancel more than 64 bits, so
        # only the floor keeps these divisions at the working precision
        with mp.workprec(prec):
            points = _clustered(data, prec, 12)
            for vals in ([_DD_FUNCS[name](z) for z in points],
                         [mp.mpf(data.draw(st.floats(-1e6, 1e6)))
                          for _ in points]):
                assert _bits(divided_differences(points, vals)[0]) == \
                    _bits(_dd_full(points, vals))

    @settings(max_examples=60, deadline=None)
    @given(prec=st.integers(256, 1024), name=st.sampled_from(sorted(_DD_FUNCS)),
           data=st.data())
    def test_clustered_nodes_within_the_full_tables_error(self, prec, name,
                                                          data):
        with mp.workprec(prec):
            points = _clustered(data, prec, 14)
        _assert_within_full_error(_tables(points, _DD_FUNCS[name], prec,
                                          3 * prec), prec, 3 * prec)

    @pytest.mark.parametrize("name,prec,nodes", [
        # the node next to 0.5 comes back after two nodes next to 0
        ("exp", 459, ((0.5, 5.308404904911445e-67), (2.0 ** -67,),
                      (2.0 ** -65,), (0.5,))),
        ("runge", 294, ((-0.96875,), (2.0 ** -69,), (2.0 ** -70,))),
    ])
    def test_exact_inputs_can_beat_the_shortcut(self, name, prec, nodes):
        # Found by the search above before the centres got an irrational
        # part.  At dyadic nodes f's values round by far less than an ulp,
        # so the full table ends up exact well below its own error bound,
        # while the shortcut keeps 64 bits past that bound and no more.
        # Shifted by an irrational amount, the same nodes meet the 2^4 bound.
        with mp.workprec(prec):
            exact = [mp.fsum(parts) for parts in nodes]
            shifted = [z + mp.sqrt(2) / 2 ** 60 for z in exact]
        with pytest.raises(AssertionError):
            _assert_within_full_error(_tables(exact, _DD_FUNCS[name], prec,
                                              3 * prec), prec, 3 * prec)
        _assert_within_full_error(_tables(shifted, _DD_FUNCS[name], prec,
                                          3 * prec), prec, 3 * prec)

    @pytest.mark.parametrize("interval,n_nodes", [((3, 5), 64), ((2, 4), 32)])
    def test_c3_sin_tables_within_the_full_tables_error(self, interval,
                                                        n_nodes):
        # the S = 6 table of criterion 3, whose top coefficients carry no
        # correct bit at 8192 bits, and a level-4 table
        tree = ex1_tree_deep()
        _assert_within_full_error(_c3_sin_tables(interval, n_nodes),
                                  tree.bits, 3 * tree.bits)


class TestErrorExponents:
    """The error exponent ``divided_differences`` returns with coefficient k
    bounds the distance of both the shortcut's and the full table's
    coefficient from a reference at three times the precision."""

    @pytest.mark.parametrize("interval,n_nodes", [((3, 5), 64), ((2, 4), 32)])
    def test_c3_sin_tables(self, interval, n_nodes):
        # at 8192 bits mp.sin itself errs by up to 13 units in the last
        # place, beyond the one unit the running exponents start from
        _assert_exponents_cover(_c3_sin_tables(interval, n_nodes),
                                3 * ex1_tree_deep().bits)

    @settings(max_examples=60, deadline=None)
    @given(prec=st.integers(24, 1024),
           name=st.sampled_from(["exp", "runge", "sin"]), data=st.data())
    def test_clustered_nodes(self, prec, name, data):
        # at or below the 128-bit floor every division runs at the working
        # precision; above it the shortcut shortens them.  The exponents
        # take each value to be within a few units in its last place, which
        # v^5 - v, cancelling next to its roots -1, 0 and 1, is not
        with mp.workprec(prec):
            points = _clustered(data, prec, 24)
        _assert_exponents_cover(_tables(points, _DD_FUNCS[name], prec,
                                        3 * prec), 3 * prec)

    @pytest.mark.parametrize("name,prec,nodes", [
        ("exp", 459, ((0.5, 5.308404904911445e-67), (2.0 ** -67,),
                      (2.0 ** -65,), (0.5,))),
        ("runge", 294, ((-0.96875,), (2.0 ** -69,), (2.0 ** -70,))),
    ])
    @pytest.mark.parametrize("shift", [0, 1])
    def test_exact_inputs(self, name, prec, nodes, shift):
        # the cases of ``test_exact_inputs_can_beat_the_shortcut``: the
        # exponents cover the shortcut, not only the full table's luck
        with mp.workprec(prec):
            points = [mp.fsum(parts) + shift * mp.sqrt(2) / 2 ** 60
                      for parts in nodes]
        _assert_exponents_cover(_tables(points, _DD_FUNCS[name], prec,
                                        3 * prec), 3 * prec)

    @pytest.mark.parametrize("bits", [128, 1024])
    def test_exact_zeros_and_cancelling_orders(self, bits):
        # x^2 at dyadic nodes divides exact zeros from order 3 on (the
        # zero-difference branch); x^5 - x cancels every order above 5
        with mp.workprec(bits):
            pts = [mp.mpf(v) for v in (0, 1, 0.25, 0.75, 0.5, 0.375)] \
                + [mp.sqrt(2) / 7, mp.pi / 5]
        for f in (lambda v: v * v, _DD_FUNCS["quintic"]):
            _assert_exponents_cover(_tables(pts, f, bits, 3 * bits), 3 * bits)


def _grown(points, values, cuts):
    """A table grown through ``divided_differences`` to each cut in turn;
    after each, its coefficients and exponents equal the order-major
    table's on that prefix."""
    table = NewtonTable(mp.mp.prec)
    for c in cuts:
        got = divided_differences(points[:c], values[:c], table)
        want = order_major_divided_differences(points[:c], values[:c])
        assert (_bits(got[0]), got[1]) == (_bits(want[0]), want[1]), c
    assert table.points == list(points[:cuts[-1]])
    return table


class TestGrownTables:
    """A table grown in place equals the whole table built order by order
    (``oracles.order_major_divided_differences``, every division through
    mpf_div), in coefficients and error exponents, bit for bit."""

    @pytest.mark.parametrize("interval,n_nodes,cuts", [
        ((3, 5), 64, (1, 2, 4, 8, 16, 32, 64)),
        ((3, 5), 64, (3, 17, 40, 64)),
        ((2, 4), 32, (16, 32)),
    ])
    def test_c3_sin_tables(self, interval, n_nodes, cuts):
        # the operator grows a table from 2^(n-1) to 2^n nodes when an
        # interval's transition term comes before its accumulation term
        tree = ex1_tree_deep()
        points = select_nodes(tree, interval, n_nodes).points()
        with mp.workprec(tree.bits):
            _grown(points, [mp.sin(z) for z in points], cuts)

    @settings(max_examples=80, deadline=None)
    @given(prec=st.integers(24, 400), name=st.sampled_from(sorted(_DD_FUNCS)),
           kind=st.sampled_from(["f", "constant", "mixed"]), data=st.data())
    def test_random_prefixes_and_steps(self, prec, name, kind, data):
        # at or below the 128-bit floor every division runs at the working
        # precision; above it the divisions are shortened.  Constant and
        # repeated values divide exact zeros
        with mp.workprec(prec):
            points = _clustered(data, prec, 16)
            f = _DD_FUNCS[name]
            if kind == "f":
                values = [f(z) for z in points]
            elif kind == "constant":
                values = [mp.mpf(3)] * len(points)
            else:
                values = [data.draw(st.sampled_from(
                    [f(z), mp.mpf(-1), mp.mpf(2), mp.mpf(0)]))
                    for z in points]
            cuts = sorted(set(data.draw(st.lists(
                st.integers(1, len(points)), max_size=4))) | {len(points)})
            _grown(points, values, cuts)

    @settings(max_examples=10, deadline=None)
    @given(prec=st.integers(2048, 8192), name=st.sampled_from(sorted(_DD_FUNCS)),
           data=st.data())
    def test_nodes_next_to_a_tiny_one(self, prec, name, data):
        # extend_jets' inner depth-9 endpoint lies near 2^-1477: beside
        # nodes of order one, its differences align mantissas more than
        # 1000 bits apart, yet short of mpf_add's far-offset shortcut
        with mp.workprec(prec):
            tiny = mp.mpf(2) ** -1477 * (1 + mp.sqrt(3) / 7)
            points = [tiny * (1 + mp.mpf(k) / 5) for k in range(4)] \
                + [mp.mpf(v) + mp.sqrt(2) / 2 ** 60
                   for v in (0.125, 0.25, 0.5, 0.75, 1)]
            points = data.draw(st.permutations(points))
            values = [_DD_FUNCS[name](z) for z in points]
            _grown(points, values, (3, 6, len(points)))

    @settings(max_examples=150, deadline=None)
    @given(prec=st.integers(24, 2200), name=st.sampled_from(sorted(_DD_FUNCS)),
           kind=st.sampled_from(["f", "x", "cubic", "mixed"]), data=st.data())
    def test_inlined_loop_is_the_helper_loop(self, prec, name, kind, data):
        # NewtonTable.grow, its kernel written out, against the loop that
        # calls the kernel once per operation (oracles.helper_grow): after
        # every step the same nodes, coefficients, exponents, diagonal and
        # running exponents, or the same collision at the same node.  Extra
        # nodes: 0, one far below the others (mpf_add's far-offset
        # shortcut) and a repeat (a collision).  x divides equal mantissas
        # at order 1, a cubic exact zeros from order 4; mixed values hold 0
        # and -1.  Non-finite inputs raise before the loop
        # (test_non_finite_nodes_and_values_raise)
        with mp.workprec(prec):
            points = _clustered(data, prec, 12)
            tiny = mp.ldexp(1 + mp.sqrt(3) / 7, -prec - data.draw(
                st.integers(110, 400)))
            for extra in data.draw(st.lists(st.sampled_from(
                    ["zero", "tiny", "repeat"]), max_size=3)):
                node = {"zero": mp.mpf(0), "tiny": tiny,
                        "repeat": data.draw(st.sampled_from(points))}[extra]
                points.insert(data.draw(st.integers(0, len(points))), node)
            f = _DD_FUNCS[name]
            values = []
            for z in points:
                if kind == "mixed":
                    values.append(data.draw(st.sampled_from(
                        [f(z), mp.mpf(0), mp.mpf(-1)])))
                elif kind == "x":
                    values.append(z)
                elif kind == "cubic":
                    values.append(z ** 3 - 2 * z)
                else:
                    values.append(f(z))
            cuts = sorted(set(data.draw(st.lists(
                st.integers(1, len(points)), max_size=4))) | {len(points)})
            new, old = NewtonTable(prec), NewtonTable(prec)
            for i, c in enumerate(cuts):
                # equal nodes that are other objects pass the prefix check
                pts = points[:c] if i % 2 else [+z for z in points[:c]]
                raised = []
                for table, grow in ((new, NewtonTable.grow),
                                    (old, helper_grow)):
                    try:
                        grow(table, pts, values[:c])
                        raised.append(None)
                    except NodeCollisionError as exc:
                        raised.append(str(exc))
                assert raised[0] == raised[1]
                assert new.points == old.points
                assert (_bits(new.coeffs), new.errs, new._z, new._diag,
                        new._err) == (_bits(old.coeffs), old.errs, old._z,
                                      old._diag, old._err)
                if raised[0]:
                    break

    def test_collision_leaves_the_table_as_it_was(self):
        with mp.workprec(256):
            points = [mp.mpf(1), mp.mpf(2) ** -40, mp.mpf(3), mp.mpf(1)]
            values = [mp.mpf(v) for v in (1, 2, 3, 4)]
            table = NewtonTable(256)
            divided_differences(points[:3], values[:3], table)
            before = _bits(table.coeffs), list(table.errs)
            with pytest.raises(NodeCollisionError, match="nodes 0 and 3"):
                divided_differences(points, values, table)
            assert (_bits(table.coeffs), table.errs) == before
            assert len(table.points) == 3

    def test_points_must_extend_the_tables_nodes(self):
        # a node list that does not begin with the held nodes, or is
        # shorter than them, has no coefficients in this table
        with mp.workprec(256):
            points = [mp.mpf(v) for v in (1, 2, 3, 4)]
            values = [mp.mpf(v) for v in (1, 4, 9, 16)]
            table = NewtonTable(256)
            divided_differences(points[:3], values[:3], table)
            before = _bits(table.coeffs), list(table.errs)
            other = [points[0], mp.mpf(5), points[2], points[3]]
            for pts in (other, points[:2]):
                with pytest.raises(ParameterError, match="table's nodes"):
                    divided_differences(pts, values[:len(pts)], table)
            assert (_bits(table.coeffs), table.errs) == before
            assert table.points == points[:3]


def _raw_mpf(data, sign, man):
    return from_man_exp((-1) ** sign * man, data.draw(st.integers(-3000, 3000)))


def _mantissa(data, bits):
    """A positive integer of exactly ``bits`` bits, odd or even."""
    return data.draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(["equal", "multiple", "power of two", "inexact",
                             "past a tie", "zero"]),
       bits=st.integers(1, 700), p=st.integers(2, 900), data=st.data())
def test_kernel_division_is_mpf_div(case, bits, p, data):
    # equal mantissas of either sign, exact multiples, power-of-two
    # divisors and inexact quotients, at precisions below and above the
    # operands' lengths; quotients just past a tie, which only the sticky
    # bit of a remainder rounds away from it; a zero d goes to mpf_div
    # itself.  The oracle's _div is the division NewtonTable.grow writes
    # out
    sign_d, sign_z = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    man = data.draw(st.integers(3, 2 ** bits + 3)) | 1
    dz = _raw_mpf(data, sign_z, man)
    if case == "past a tie":
        # d / dz = (2 M + 1) 2^k + 1 / (man | 33), M of p bits: the
        # quotient's first p + 5 bits end in a tie, the remainder is not 0
        dz = _raw_mpf(data, sign_z, man | 33)
        tie = 2 * _mantissa(data, p) + 1
        d = _raw_mpf(data, sign_d, (tie * (man | 33) << data.draw(
            st.integers(0, 50))) + 1)
    elif case == "equal":
        d = _raw_mpf(data, sign_d, man)
    elif case == "multiple":
        d = _raw_mpf(data, sign_d, man * data.draw(st.integers(1, 2 ** bits)))
    elif case == "power of two":
        dz = _raw_mpf(data, sign_z, 1)
        d = _raw_mpf(data, sign_d, data.draw(st.integers(1, 2 ** bits)))
    elif case == "inexact":
        d = _raw_mpf(data, sign_d, data.draw(st.integers(1, 2 ** bits)))
    else:
        d = fzero
    assert _div(d, dz, p) == mpf_div(d, dz, p, round_nearest)


def _difference_operands(case, prec, data):
    """Operands a, b whose difference a - b falls in ``case``: mantissas
    shorter and longer than prec; exponent offsets either side of 100 with
    the operands' leading bits either side of prec + 4 apart (mpf_add's
    far-offset shortcut, which is not correctly rounded where the longer
    operand has more than prec bits), with either direction of its nudge
    deciding a tie; a difference of exactly zero; a difference half an ulp
    above a prec-bit number (a tie); mantissa-1 operands; a zero beside
    operands shorter and longer than prec, and beside a zero.  Both signs
    of each operand; operands are finite, as every caller's are."""
    sa, sb = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    ea = data.draw(st.integers(-20_000, 20_000))
    abits = data.draw(st.integers(1, prec + 64))
    bbits = data.draw(st.integers(1, prec + 64))
    a = from_man_exp((-1) ** sa * _mantissa(data, abits), ea)
    if case == "any":
        off = data.draw(st.integers(-prec - 200, prec + 200))
        b = from_man_exp((-1) ** sb * _mantissa(data, bbits), ea - off)
    elif case == "offset":
        # off = exp_a - exp_b; odd mantissas keep it through normalisation.
        # The operand with the higher leading bit has ``big`` bits, so the
        # leading bits lie ``lead`` apart
        off = data.draw(st.sampled_from([99, 100, 101, 102]))
        off = off if data.draw(st.booleans()) else -off
        lead = prec + 4 + data.draw(st.integers(-2, 2))
        small = data.draw(st.integers(1, prec + 64))
        big = lead - abs(off) + small
        assume(big >= 1)
        abits, bbits = (big, small) if off > 0 else (small, big)
        a = from_man_exp((-1) ** sa * (_mantissa(data, abits) | 1), ea)
        b = from_man_exp((-1) ** sb * (_mantissa(data, bbits) | 1), ea - off)
    elif case == "far":
        # past mpf_add's shortcut, with a longer than prec and its bits
        # below prec one unit short of a tie: b moves the exact difference
        # past the tie, the shortcut's one-unit perturbation does not
        g = data.draw(st.integers(10, 40))
        off = data.draw(st.integers(101, 300))
        a = from_man_exp((-1) ** sa * (((2 * _mantissa(data, prec) + 1) << g)
                                       - 1), ea)
        b = from_man_exp((-1) ** (1 - sa) * (_mantissa(data, off + 2) | 1),
                         ea - off)
        if data.draw(st.booleans()):
            a, b = (1 - b[0],) + b[1:], (1 - a[0],) + a[1:]
    elif case == "far tie":
        # past mpf_add's shortcut, a a tie at prec bits and b of either
        # sign: the direction of the shortcut's one-unit nudge alone
        # decides the rounding
        a = from_man_exp((-1) ** sa * (2 * _mantissa(data, prec) + 1), ea)
        off = data.draw(st.integers(101, 300))
        b = from_man_exp((-1) ** sb * _mantissa(data, data.draw(
            st.integers(1, off - 4))), ea - off)
        if data.draw(st.booleans()):
            a, b = b, a
    elif case == "cancel":
        b = a
    elif case == "tie":
        # a - b = (2 M + 1) 2^e with M of exactly prec bits
        m = 2 * _mantissa(data, prec) + 1
        bman = _mantissa(data, bbits)
        e = data.draw(st.integers(-20_000, 20_000))
        b = from_man_exp((-1) ** sb * bman, e)
        a = from_man_exp((-1) ** sb * (bman + m), e)
    elif case == "one":
        a = (sa, 1, ea, 1)
        b = data.draw(st.sampled_from([
            (sb, 1, ea - data.draw(st.integers(-300, 300)), 1),
            from_man_exp((-1) ** sb * _mantissa(data, bbits),
                         ea - data.draw(st.integers(-prec - 200, prec + 200)))]))
        if data.draw(st.booleans()):
            a, b = b, a
    elif case == "zero":
        # beside a zero the other operand is rounded: one bit longer than
        # prec is the shortest that rounds
        long = from_man_exp((-1) ** sa * (_mantissa(data, prec + 1) | 1), ea)
        a, b = data.draw(st.sampled_from([a, long, fzero])), fzero
        if data.draw(st.booleans()):
            a, b = b, a
    return a, b


_SUM_CASES = ["any", "offset", "far", "far tie", "cancel", "tie", "one",
              "zero"]


@settings(max_examples=600, deadline=None)
@given(case=st.sampled_from(_SUM_CASES), prec=st.integers(2, 10_000),
       data=st.data())
def test_kernel_subtraction_is_mpf_sub(case, prec, data):
    a, b = _difference_operands(case, prec, data)
    assert _sub(a, b, prec) == mpf_sub(a, b, prec, round_nearest)


@settings(max_examples=600, deadline=None)
@given(case=st.sampled_from(_SUM_CASES), prec=st.integers(2, 10_000),
       data=st.data())
def test_kernel_addition_is_mpf_add(case, prec, data):
    # the differences' cases as sums: a + (-b) = a - b
    a, b = _difference_operands(case, prec, data)
    b = mpf_neg(b)
    assert _add(a, b, prec) == mpf_add(a, b, prec, round_nearest)


@settings(max_examples=600, deadline=None)
@given(case=st.sampled_from(["any", "exact", "tie", "far", "one",
                             "zero"]),
       prec=st.integers(2, 10_000), data=st.data())
def test_kernel_multiplication_is_mpf_mul(case, prec, data):
    # products shorter and longer than prec; odd mantissas whose product
    # has exactly prec + 1 bits, so that its last bit is a tie; exponents
    # far apart; mantissa-1 operands; a zero beside either; every sign pair
    sa, sb = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    ea, eb = (data.draw(st.integers(-20_000, 20_000)) for _ in range(2))
    aman = _mantissa(data, data.draw(st.integers(1, prec + 64)))
    bman = _mantissa(data, data.draw(st.integers(1, prec + 64)))
    if case == "exact":
        abits = data.draw(st.integers(1, prec))
        aman = _mantissa(data, abits)
        bman = _mantissa(data, data.draw(st.integers(1, max(prec - abits,
                                                             1))))
    elif case == "tie":
        aman = _mantissa(data, data.draw(st.integers(1, prec))) | 1
        lo, hi = -(-(1 << prec) // aman), ((1 << prec + 1) - 1) // aman
        assume(lo <= hi)
        bman = data.draw(st.integers(lo, hi)) | 1
        assume((aman * bman).bit_length() == prec + 1)
    elif case == "far":
        eb = ea + data.draw(st.sampled_from([-1, 1])) * data.draw(
            st.integers(prec, prec + 30_000))
    elif case == "one":
        aman = 1
    a = from_man_exp((-1) ** sa * aman, ea)
    b = from_man_exp((-1) ** sb * bman, eb)
    if case == "zero":
        a, b = data.draw(st.sampled_from([a, fzero])), fzero
    if data.draw(st.booleans()):
        a, b = b, a
    assert _mul(a, b, prec) == mpf_mul(a, b, prec, round_nearest)


@settings(max_examples=400, deadline=None)
@given(prec=st.integers(2, 10_000), tie=st.booleans(), data=st.data())
def test_kernel_rounding_is_mpf_pos(prec, tie, data):
    # odd and even mantissas, shorter and longer than prec; ties: the bits
    # below prec are exactly one half of its last place
    sign = data.draw(st.integers(0, 1))
    if tie:
        man = (2 * _mantissa(data, prec) + 1) << data.draw(st.integers(0, 70))
    else:
        man = _mantissa(data, data.draw(st.integers(1, prec + 80)))
    exp = data.draw(st.integers(-20_000, 20_000))
    x = from_man_exp((-1) ** sign * man, exp)
    assert _rounded(sign, man, exp, prec) == mpf_pos(x, prec, round_nearest)


class TestBump:
    def test_plateau_and_support(self):
        spec = BumpSpec(t=0.3, components=[(0.0, 1.0)])
        assert spec.value(0.5) == 1
        assert spec.value(0.0) == 1
        assert spec.value(1.0 + 0.3) == 0  # beyond the shoulder
        assert spec.value(-0.5) == 0
        v = float(spec.value(1.0 + 0.15))
        assert 0.0 < v < 1.0

    def test_merge_rule(self):
        comps = merge_atoms([(0.0, 0.1), (0.15, 0.2), (0.5, 0.6)], t=0.3)
        assert comps == [(0.0, 0.2), (0.5, 0.6)]  # first gap 0.05 <= t/3

    def test_bounded_by_one_in_overlap(self):
        # two components with overlapping shoulders: u stays within [0, 1]
        spec = BumpSpec(t=0.3, components=[(0.0, 0.1), (0.25, 0.35)])
        for x in np.linspace(-0.2, 0.55, 301):
            v = float(spec.value(x))
            assert -1e-15 <= v <= 1.0 + 1e-15

    def test_series_matches_finite_differences(self):
        spec = BumpSpec(t=0.3, components=[(0.0, 0.5)])
        xs = [-0.15, -0.12, 0.62]
        hstep = 1e-6

        def derivative(x, p):
            return series(spec, x)[p] * math.factorial(p)

        for x in xs:
            for p in (1, 2):
                fd = (derivative(x + hstep, p - 1)
                      - derivative(x - hstep, p - 1)) / (2 * hstep)
                assert derivative(x, p) == pytest.approx(fd, rel=2e-4, abs=1e-6)

    # 1e-8 and 1 - 1e-8 check the degenerate ends (every coefficient 0.0,
    # or (1, 0, 0, 0)); 2e-3 and 1 - 2e-3 check E(y) huge and tiny while
    # the coefficients (down to ~1e-217) are still normal doubles.  The
    # reference is unchopped and at 1024 bits, so that coefficients ~1e-212
    # beside S ~ 1 near y = 1 survive.
    @pytest.mark.parametrize("y", [1e-8, 2e-3, 0.01, 0.05, 0.3, 0.5, 0.7,
                                   0.99, 1 - 2e-3, 1 - 1e-8])
    def test_step_series_matches_mpmath_taylor(self, y):
        with mp.workprec(1024):
            ref = [float(c) for c in
                   mp.taylor(step_value_mpf, mp.mpf(y), 3, chop=False)]
        assert list(step_series(y)) == pytest.approx(ref, rel=1e-15, abs=1e-300)

    def test_cp_monotone(self):
        spec = BumpSpec(t=0.2, components=[(0.0, 0.4)])
        cp = c_p_table(spec)
        assert all(a <= b for a, b in zip(cp, cp[1:]))
        assert cp[0] == 1.0

    @staticmethod
    def _scan_value(spec, x):
        """u(x) and the number of live shoulders, by a scan over every component."""
        with mp.workprec(spec.bits):
            m = mp.mpf(spec.t) / 3
            prod, plateau, live = None, False, 0
            for lo, hi in spec.components:
                if lo <= x <= hi:
                    plateau = True
                    continue
                if x <= lo - 2 * m or x >= hi + 2 * m:
                    continue
                live += 1
                rise = step_value_mpf((x - (lo - 2 * m)) / m)
                fall = step_value_mpf(((hi + 2 * m) - x) / m)
                prod = (1 - rise * fall) if prod is None \
                    else prod * (1 - rise * fall)
            if plateau:
                return mp.mpf(1), live
            return (mp.mpf(0) if prod is None else 1 - prod), live

    @staticmethod
    def _probe_points(spec):
        """Plateau middles, exact edges, shoulder points and gap middles.

        A dozen components spread over the cutoff, plus the first few whose
        shoulders overlap the next component's.
        """
        m = spec.t / 3
        comps = spec.components
        picked = set(range(0, len(comps), max(1, len(comps) // 12)))
        picked.add(len(comps) - 1)
        close = [i for i in range(len(comps) - 1) if comps[i + 1][0] - comps[i][1] < 4 * m]
        picked.update(close[:3])
        xs = []
        for i in sorted(picked):
            lo, hi = comps[i]
            xs += [lo, hi, (lo + hi) / 2, lo - spec.t, hi + spec.t]
            xs += [lo - c * m for c in (0.5, 1, 1.5, 2, 2.5)]
            xs += [hi + c * m for c in (0.5, 1, 1.5, 2, 2.5)]
            if i + 1 < len(comps):
                xs.append((hi + comps[i + 1][0]) / 2)
        return xs

    def _specs(self, tree):
        """Cutoffs at three level widths, plus one whose shoulders overlap."""
        atoms = tree.atoms()
        gap = min(b.left - a.right for a, b in zip(atoms, atoms[1:]))
        widths = [tree.delta_mpf(k) for k in (1, tree.depth // 2, tree.depth)]
        widths.append(gap * 3 / 2)  # margin gap/2: neighbours' shoulders overlap
        specs = []
        with mp.workprec(tree.bits):
            for t in widths:
                specs.append(bump_for_interval(tree, 1, 0, t))
                specs.append(bump_for_interval(tree, 2, 1, t))
                if tree.model.family == POWER_LAW:  # lengths a double resolves
                    float_atoms = [(float(iv.left), float(iv.right)) for iv in atoms]
                    specs.append(BumpSpec(t=float(t), components=merge_atoms(
                        float_atoms, float(t))))
        return specs

    @pytest.mark.parametrize("tree_name", ["tree_ex1_512", "tree_plaw"])
    def test_bisected_window_matches_scan(self, tree_name, request):
        tree = request.getfixturevalue(tree_name)
        overlaps = 0
        for spec in self._specs(tree):
            assert all(a[1] < b[0] for a, b in zip(spec.components, spec.components[1:]))
            with mp.workprec(tree.bits):
                for x in self._probe_points(spec):
                    want, live = self._scan_value(spec, x)
                    assert spec.value(x) == want, (spec.t, x)
                    hit = any(lo - spec.t < x < hi + spec.t for lo, hi in spec.components)
                    assert spec.support_hit(x) == hit, (spec.t, x)
                    overlaps += live >= 2
        assert overlaps > 0  # the shoulder-overlap case was exercised

    @pytest.mark.parametrize("tree_name", ["tree_ex1_512", "tree_delta"])
    def test_tree_walk_is_the_atom_merge(self, tree_name, request):
        # every (j, s), at widths from one plateau over the whole set down
        # to none, and at three times the atom gaps (a gap next to t/3):
        # the same components as merging the descendant atoms one by one,
        # the same endpoint objects included
        tree = request.getfixturevalue(tree_name)
        atoms = tree.levels[tree.depth]
        with mp.workprec(tree.bits):
            gaps = sorted(b.left - a.right for a, b in zip(atoms, atoms[1:]))
            widths = [tree.delta_mpf(k) for k in range(tree.depth + 2)] \
                + [3 * g for g in gaps[::len(gaps) // 8]]
        plateaus = set()
        for s in range(tree.depth + 1):
            span = 2 ** (tree.depth - s)
            for j in range(1, 2 ** s + 1):
                bounds = [(iv.left, iv.right)
                          for iv in atoms[(j - 1) * span:j * span]]
                for t in widths:
                    got = bump_for_interval(tree, j, s, t).components
                    want = merge_atoms(bounds, t, bits=tree.bits)
                    assert len(got) == len(want), (j, s, t)
                    assert all(g[0] is w[0] and g[1] is w[1]
                               for g, w in zip(got, want)), (j, s, t)
                    plateaus.add(len(got))
        assert 1 in plateaus and 2 ** tree.depth in plateaus
        assert len(plateaus) > tree.depth

    def test_gap_interior_zero(self, tree_ex1):
        # the cutoff of width delta_{s+1} dies inside the central gap
        t = tree_ex1.delta_mpf(3)
        spec = bump_for_interval(tree_ex1, 1, 2, t)
        iv = tree_ex1.interval(1, 2)
        cl, cr = tree_ex1.children(iv)
        mid = (cl.right + cr.left) / 2
        assert spec.value(mid) == 0


class TestOperatorIdentities:
    def test_constant_reproduction(self, tree_ex1):
        op = ExtensionOperator(tree_ex1, s_max=3)
        one = lambda x: mp.mpf(1)
        for (j, s) in [(1, 3), (5, 3), (8, 3)]:
            x = tree_ex1.interval(j, s).left
            out = op.evaluate(one, x)
            assert abs(out.value - 1) < mp.mpf(2) ** (-tree_ex1.bits // 2)

    def test_linear_reproduction_every_truncation(self, tree_ex1):
        # degree <= M_0 = 1 reproduces exactly at every truncation level
        op = ExtensionOperator(tree_ex1, s_max=3)
        ident = lambda x: x
        for s_max in (1, 2, 3):
            for iv in tree_ex1.levels[4][:6]:
                out = op.evaluate(ident, iv.right, s_max=s_max)
                assert abs(out.value - iv.right) < mp.mpf(2) ** (-tree_ex1.bits // 2)

    def test_telescoping_to_local_interpolant(self, tree_ex1):
        # on the set, the truncated operator equals L_{M_S} on the containing interval
        op = ExtensionOperator(tree_ex1, s_max=3)
        f = lambda x: mp.sin(x)
        iv = tree_ex1.interval(3, 4)
        x = iv.left
        out = op.evaluate(f, x)
        j3 = next(j for j in range(1, 9)
                  if tree_ex1.interval(j, 3).left <= x <= tree_ex1.interval(j, 3).right)
        with mp.workprec(tree_ex1.bits):
            itp = _direct_table(op, f, j3, 3, op.schedule.M(3) + 1)
            direct = _partial(itp, x, op.schedule.M(3))
            assert abs(out.value - direct) < mp.mpf(2) ** (-tree_ex1.bits + 64)

    def test_off_set_evaluation_finite(self, tree_ex1):
        op = ExtensionOperator(tree_ex1, s_max=2)
        out = op.evaluate(lambda x: mp.sin(x), mp.mpf("0.41"))
        assert mp.isfinite(out.value)

    def test_locality_audit(self, tree_ex1):
        # the audit raises InvariantError on a second live cutoff; on and
        # off the set every point passes it
        op = ExtensionOperator(tree_ex1, s_max=3)
        rng = np.random.default_rng(7)
        for x in rng.uniform(-0.1, 1.1, size=40):
            out = op.evaluate(lambda v: mp.mpf(1), mp.mpf(float(x)))
            assert mp.isfinite(out.value)

    def test_caches_go_with_their_function(self, tree_ex1):
        # a fresh lambda per call leaves no cache entry once it is collected
        op = ExtensionOperator(tree_ex1, s_max=3)
        for x in np.linspace(-0.1, 1.1, 40):
            op.evaluate(lambda v: mp.mpf(1), mp.mpf(float(x)))
        gc.collect()
        assert len(op._per_f) == 0
        # a function that lives keeps its entry and its interpolants, one
        # set per precision: the tree's, and the one a bound asks for
        f = lambda v: v * v
        op.evaluate(f, mp.mpf("0.3"))
        op.evaluate(f, mp.mpf("0.3"), norm_q=2.0, q=5)
        gc.collect()
        bits = tree_ex1.bits
        assert len(op._per_f) == 1 and op._per_f[f][bits].interps
        assert sorted(op._per_f[f]) == [_bounded_precision(op, 3), bits]

    @pytest.mark.parametrize("k_delta, stage", [(1, "transition"),
                                                 (2, "accumulation")])
    def test_broken_locality_raises(self, tree_ex1, monkeypatch, k_delta, stage):
        # every cutoff of width delta_{k_delta} claims x, so two cutoffs of one
        # level are live: the transition stage at s=0 uses width delta_1, the
        # accumulation stage at s=1 width delta_2
        op = ExtensionOperator(tree_ex1, s_max=3)
        width = tree_ex1.delta_mpf(k_delta)
        monkeypatch.setattr(BumpSpec, "support_hit", lambda self, x: self.t == width)
        # and the bisection offers every cutoff of that width to the audit
        for level, ivs in enumerate(tree_ex1.levels):
            op._hulls[(level, k_delta)] = ([mp.ninf] * len(ivs),
                                           [mp.inf] * len(ivs))
        with pytest.raises(InvariantError, match=f"{stage} locality broken"):
            op.evaluate(lambda v: mp.mpf(1), mp.mpf("0.5"))
        # a failed audit is not kept in the point's state
        with pytest.raises(InvariantError, match=f"{stage} locality broken"):
            op.evaluate(lambda v: v, mp.mpf("0.5"))

    @pytest.mark.parametrize("S", [0, -1, 4])
    def test_truncation_level_outside_range_raises(self, tree_ex1, S):
        # S < 1 used to read the schedule and the deltas from the list ends
        # (a certified bound of e^-32765 where the error is 2e-15)
        op = ExtensionOperator(tree_ex1, s_max=3)
        with pytest.raises(ParameterError, match="truncation level"):
            op.evaluate(mp.sin, mp.mpf("0.3"), norm_q=2.0, q=5, s_max=S)
        with pytest.raises(ParameterError, match="truncation level"):
            op.certified_bound(S, norm_q=2.0, q=5)

    @pytest.mark.parametrize("s_max", [0, -1])
    def test_operator_below_level_1_raises(self, tree_ex1, s_max):
        with pytest.raises(ParameterError, match="truncation level"):
            ExtensionOperator(tree_ex1, s_max=s_max)

    def test_certified_bound_past_the_horizon_raises(self):
        # level 3 of a k_max = 4 model needs delta_5; the index used to run
        # off the profile with a bare IndexError
        tree = build_tree(build_model(EXAMPLE1, k_max=4, B=1.0), bits=256)
        op = ExtensionOperator(tree, s_max=3)
        assert op.certified_bound(2, norm_q=2.0, q=5).ln_mag < 0
        with pytest.raises(HorizonError, match="needs delta_5, horizon 4"):
            op.certified_bound(3, norm_q=2.0, q=5)

    def test_certified_bound_formula(self, tree_ex1):
        op = ExtensionOperator(tree_ex1, s_max=3)
        q = 5
        b = op.certified_bound(3, norm_q=2.0, q=q)
        n = op.schedule.n[2] - 1
        c0 = tree_ex1.model.c0
        want = math.log(2.0) + n * math.log(2) + (q - 1) * math.log(c0) \
            + 2 ** n * math.log(8 * c0 / 7) \
            - float(tree_ex1.profile.ln_inv_delta(3 + n)) \
            - (q - 1) * float(tree_ex1.profile.ln_inv_delta(3))
        assert b.ln_mag == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("norm_q,q", [
        (2.0, -1), (2.0, -2), (0.0, 5), (-1.0, 5), (math.inf, 5),
        (math.nan, 5)])
    def test_certified_bound_rejects_bad_inputs(self, tree_ex1, norm_q, q):
        # a negative q gave a bound, norm_q = 0 a bare "math domain error",
        # and norm_q = inf an OverflowError from the exact log; evaluate
        # rejects them before it evaluates f
        op = ExtensionOperator(tree_ex1, s_max=3)
        with pytest.raises(ParameterError):
            op.certified_bound(3, norm_q=norm_q, q=q)
        with pytest.raises(ParameterError):
            op.evaluate(lambda x: pytest.fail("f evaluated"), mp.mpf("0.3"),
                        norm_q=norm_q, q=q)

    def test_sin_error_below_bound(self, tree_ex1):
        op = ExtensionOperator(tree_ex1, s_max=3)
        f = lambda x: mp.sin(x)
        # type-7 endpoints are not nodes of the level-3 truncation
        xs = [iv.right for iv in tree_ex1.levels[7][1:40:8]]
        for x in xs:
            out = op.evaluate(f, x, norm_q=2.0, q=5)
            with mp.workprec(tree_ex1.bits):
                err = abs(out.value - mp.sin(x))
                assert err <= out.certified_bound.to_mpf()


@functools.lru_cache(maxsize=1024)
def _direct_table(op, f, j, s, n, prec=None):
    """f's Newton table on the first n nodes of I_{j,s}, built at once by
    ``divided_differences`` at ``prec`` bits (the tree's by default), apart
    from the operator's own tables."""
    prec = prec or op.tree.bits
    points = op._points(j, s, n)
    table = NewtonTable(prec)
    with mp.workprec(prec):
        divided_differences(points, [f(z) for z in points], table)
    return table


def _partial(itp, x, upto):
    """L_upto(f, x), Newton's partial sum, at the working precision."""
    omega = grow_omega([1], x, itp.points, upto)
    total = itp.coeffs[0]
    for k in range(1, upto + 1):
        total = total + itp.coeffs[k] * omega[k]
    return total


def _bounded_precision(op, S, norm_q=2.0):
    """The precision a call with norm_q and q = 5 at level S runs at."""
    ln_bound = op.certified_bound(S, norm_q=norm_q, q=5).ln
    return min(op.tree.bits,
               max(-math.floor(ln_bound / LN2_FRACTION), 0) + 64)


def _scratch_omega_W(op, f, x, s_cap):
    """The truncated operator with every Omega_N(x) rebuilt from its factors,
    in mpf arithmetic at the tree's precision."""
    tree, sched = op.tree, op.schedule
    interpolant = lambda j, s, n: _direct_table(op, f, j, s, n)

    def partial(itp, upto):
        return _partial(itp, x, upto)

    with mp.workprec(tree.bits):
        root = bump_for_interval(tree, 1, 0, mp.mpf(1))
        total = partial(interpolant(1, 0, 2), 1) * root.value(x)
        for s in range(s_cap):
            t_A = s + (sched.n[s - 1] - 1 if s else 1)
            for j in range(1, 2 ** s + 1):
                if not op._bump(j, s, t_A).support_hit(x):
                    continue
                itp = interpolant(j, s, sched.N(s) + 1)
                for N in range(sched.M(s) + 1, sched.N(s) + 1):
                    u = op._bump(j, s, s + N.bit_length() - 1).value(x)
                    if u != 0:
                        omega = 1
                        for k in range(N):
                            omega = omega * (x - itp.points[k])
                        total += itp.coeffs[N] * omega * u
            t_T = s + sched.n[s] - 1
            for k in range(1, 2 ** (s + 1) + 1):
                b = op._bump(k, s + 1, t_T)
                if not b.support_hit(x) or b.value(x) == 0:
                    continue
                fine = interpolant(k, s + 1, sched.M(s + 1) + 1)
                coarse = interpolant((k + 1) // 2, s, sched.N(s) + 1)
                total += (partial(fine, sched.M(s + 1))
                          - partial(coarse, sched.N(s))) * b.value(x)
    return total


def test_running_omega_matches_scratch_products(tree_ex1_512, probe_points_512):
    op = ExtensionOperator(tree_ex1_512, s_max=4)
    with mp.workprec(tree_ex1_512.bits):
        for f in (lambda v: v * v, mp.sin):
            for S in (2, 4):
                for x in probe_points_512:
                    got = op.evaluate(f, x, s_max=S).value
                    assert got == _scratch_omega_W(op, f, x, S), (S, x)


def _uncapped_counts(op, x, S) -> dict:
    """(j, s) -> the nodes of each table the sum reads at x, as the degrees
    ask them, wherever x lies."""
    sched, counts = op.schedule, {(1, 0): 2}
    for s in range(S):
        terms_A, terms_T = op._states[x._mpf_].stages[s]
        want = [((j, s), sched.N(s) + 1) for j, _ in terms_A]
        for k, _ in terms_T:
            want += [((k, s + 1), sched.M(s + 1) + 1),
                     (((k + 1) // 2, s), sched.N(s) + 1)]
        for key, n in want:
            counts[key] = max(n, counts.get(key, 0))
    return counts


def _every_newton(acc, itp, row, upto, mu):
    """``_Sum.newton`` multiplying every coefficient by its Omega_k(x), 0
    or not: the sum over tables that do not stop at x."""
    p = acc.p
    total = itp.coeffs[0]._mpf_
    acc._coefficient(itp.errs[0], mu)
    for k in range(1, upto + 1):
        c, w = itp.coeffs[k]._mpf_, row[k]._mpf_
        total = mpf_add(total, mpf_mul(c, w, p, round_nearest), p,
                        round_nearest)
        acc._product(c, itp.errs[k], w, k, mu)
        acc._rounded(total, mu)
    return total


def _every_term(acc, itp, N, w, u):
    """``_Sum.term`` with the coefficient read whatever Omega_N(x) is."""
    c, w = itp.coeffs[N]._mpf_, w._mpf_
    acc._product(c, itp.errs[N], w, N, _mag(u))
    return mpf_mul(mpf_mul(c, w, acc.p, round_nearest), u, acc.p,
                   round_nearest)


@pytest.mark.parametrize("S", [1, 2, 3, 4])
def test_tables_stop_at_x_bit_for_bit(tree_ex1_512, monkeypatch, S):
    # x runs over the endpoints of levels 0-5, 0 and 1 among them.  Where x
    # is a node of a table the sum reads, a fresh function's table ends at
    # x and f is called at no node past it, yet value, bound and every part
    # of the rounding bound are those of tables grown as the degrees ask,
    # summed with every coefficient read
    tree = tree_ex1_512
    parts = []
    exponent = extension._RoundedSum.exponent
    monkeypatch.setattr(extension._RoundedSum, "exponent",
                        lambda acc: parts.append(acc.units) or exponent(acc))
    op, ref = (ExtensionOperator(tree, s_max=4) for _ in range(2))
    ends = sorted({z for iv in tree.levels[5] for z in (iv.left, iv.right)})
    stopped = 0
    with mp.workprec(tree.bits):
        for x in ends:
            for bound in ({}, {"norm_q": 2.0, "q": 5}):
                calls = []
                f = lambda z: calls.append(z) or mp.sin(z)
                parts.clear()
                got = op.evaluate(f, x, s_max=S, **bound)
                mine = parts[:]
                tables = {(p, key): itp for p, t in op._per_f[f].items()
                          for key, itp in t.interps.items()}
                assert all(x not in itp.points[:-1]
                           for itp in tables.values()), x
                assert {z._mpf_ for z in calls} == {
                    z._mpf_ for itp in tables.values() for z in itp.points}
                counts = _uncapped_counts(op, x, S)
                stopped += any(len(itp.points) < counts[key]
                               for (_, key), itp in tables.items())
                for p in {tree.bits, _bounded_precision(op, S)}:
                    ref._tables(mp.sin, p).interps.update(
                        (key, _direct_table(op, mp.sin, *key, n, p))
                        for key, n in counts.items())
                parts.clear()
                with monkeypatch.context() as m:
                    m.setattr(extension._Sum, "newton", _every_newton)
                    m.setattr(extension._Sum, "term", _every_term)
                    want = ref.evaluate(mp.sin, x, s_max=S, **bound)
                assert got.value._mpf_ == want.value._mpf_, (x, bound)
                if bound:
                    assert got.certified_bound.ln == want.certified_bound.ln
                assert mine == parts
    # calls in which some table stopped short: at S = 4 every one
    assert stopped == {1: 6, 2: 12, 3: 56, 4: 2 * len(ends)}[S]


@pytest.mark.parametrize("bad", ["raise", "inf", "nan"])
def test_f_past_x_is_never_called(tree_ex1_512, bad):
    # x, the left end of I_{2,2}, is the second node of I_{2,2}'s table and
    # the first of I_{3,3}'s and I_{5,4}'s.  An f that raises or has no
    # finite value only at nodes past x in them is never called there, and
    # W is that of a good f.  Grown as the degrees ask, the tables would
    # have been handed those values, and the call would have raised
    tree = tree_ex1_512
    x = tree.interval(2, 2).left
    good_op, op = (ExtensionOperator(tree, s_max=4) for _ in range(2))
    with mp.workprec(tree.bits):
        good = [good_op.evaluate(mp.sin, x, **b)
                for b in ({}, {"norm_q": 2.0, "q": 5})]
        read = {z._mpf_ for t in good_op._per_f[mp.sin].values()
                for itp in t.interps.values() for z in itp.points}
        past = {z._mpf_ for key, n in _uncapped_counts(good_op, x, 4).items()
                for z in good_op._points(*key, n)} - read
        assert len(past) >= 10

        def f(z):
            if z._mpf_ in past:
                if bad == "raise":
                    raise ValueError("f called past x")
                return mp.mpf(bad)
            return mp.sin(z)

        got = [op.evaluate(f, x, **b) for b in ({}, {"norm_q": 2.0, "q": 5})]
    assert [w.value._mpf_ for w in got] == [w.value._mpf_ for w in good]
    assert got[1].certified_bound.ln == good[1].certified_bound.ln


_JET_FUNCS = (lambda v: mp.mpf(1), lambda v: v, lambda v: v * v, mp.sin,
              lambda v: 3 - 2 * v + v * v * v)


@settings(max_examples=40, deadline=None)
@given(calls=st.lists(st.tuples(st.integers(0, len(_JET_FUNCS) - 1),
                                st.integers(0, 10 ** 6), st.sampled_from((2, 4))),
                      min_size=2, max_size=8))
def test_interleaved_functions_match_fresh_operators(tree_ex1_512,
                                                     probe_points_512, calls):
    # one operator switching between functions keeps each function's
    # interpolants and values; a fresh operator per function rebuilds them
    shared = ExtensionOperator(tree_ex1_512, s_max=4)
    fresh = {}
    with mp.workprec(tree_ex1_512.bits):
        for i, p, S in calls:
            f, x = _JET_FUNCS[i], probe_points_512[p % len(probe_points_512)]
            own = fresh.setdefault(i, ExtensionOperator(tree_ex1_512, s_max=4))
            want = own.evaluate(f, x, norm_q=2.0, q=5, s_max=S)
            assert shared.evaluate(f, x, norm_q=2.0, q=5, s_max=S) == want, (i, p, S)


def test_point_major_jets_match_scratch_products(tree_ex1_512,
                                                 probe_points_512):
    # every function at one x before the next x, the truncation level
    # raised at the same x: the shared point state gives the scratch values
    op = ExtensionOperator(tree_ex1_512, s_max=4)
    with mp.workprec(tree_ex1_512.bits):
        for x in probe_points_512:
            for S in (2, 4):
                got = [op.evaluate(f, x, s_max=S).value for f in _JET_FUNCS]
                want = [_scratch_omega_W(op, f, x, S) for f in _JET_FUNCS]
                assert got == want, (S, x)


def test_second_function_at_a_point_evaluates_no_cutoff(tree_ex1_512,
                                                        monkeypatch):
    calls = {"value": 0, "support_hit": 0}
    for name in calls:
        orig = getattr(BumpSpec, name)

        def counted(self, x, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, x)

        monkeypatch.setattr(BumpSpec, name, counted)
    tree = tree_ex1_512
    op = ExtensionOperator(tree, s_max=4)
    x = tree.levels[7][37].right
    with mp.workprec(tree.bits):
        op.evaluate(mp.sin, x)
        assert calls["value"] > 0 and calls["support_hit"] > 0
        calls.update(value=0, support_hit=0)
        # an equal mpf, not the same object, finds the state
        op.evaluate(lambda v: v * v, +x)
        assert calls == {"value": 0, "support_hit": 0}
        op.evaluate(lambda v: v * v, tree.levels[7][38].right)
        assert calls["value"] > 0 and calls["support_hit"] > 0


@pytest.fixture(scope="module")
def tree_deep():
    # criterion 3's tree at half its precision: truncation levels to 6
    return build_tree(build_model(EXAMPLE1, k_max=16, B=1.0), depth=10,
                      bits=4096)


def test_kept_point_states_are_fresh_operators_bit_for_bit(tree_deep):
    # criterion 3's order: each function over every point before the next
    # function, so every point's state is met again by the next function;
    # a fresh operator per call builds each from nothing
    tree = tree_deep
    inner = _inner(tree)[37::250]
    ends = [tree.levels[5][9].left, tree.levels[5][22].right]
    op = ExtensionOperator(tree, s_max=6)
    calls = [(f, {"s_max": 5}) for f in (lambda v: mp.mpf(1), lambda v: v,
                                         lambda v: v * v)]
    calls += [(mp.sin, {"norm_q": 2.0, "q": 5, "s_max": S})
              for S in (3, 4, 5, 6)]
    with mp.workprec(tree.bits):
        for f, kw in calls:
            for x in inner + ends:
                got = op.evaluate(f, x, **kw)
                want = ExtensionOperator(tree, s_max=6).evaluate(f, x, **kw)
                assert got.value._mpf_ == want.value._mpf_, (kw, x)
                if "norm_q" in kw:
                    assert got.certified_bound.ln == want.certified_bound.ln
    # the budget never bound: every point's state was kept
    assert len(op._states) == len(inner + ends)
    assert op._entries <= op._budget == 2 ** 11


def _row_entries(op) -> int:
    """Omega_k(x), k >= 1, in every kept row."""
    return sum(len(row) - 1 for pt in op._states.values()
               for row in pt.omega.values())


def test_a_revisited_point_builds_no_state_and_no_row(tree_ex1_512,
                                                      probe_points_512,
                                                      monkeypatch):
    made = []

    class Counted(extension._PointState):
        def __init__(self, x, *args):
            made.append(x)
            super().__init__(x, *args)

    monkeypatch.setattr(extension, "_PointState", Counted)
    op = ExtensionOperator(tree_ex1_512, s_max=4)
    xs = probe_points_512[::20]
    with mp.workprec(tree_ex1_512.bits):
        for x in xs:
            op.evaluate(mp.sin, x)
        entries = _row_entries(op)
        assert len(made) == len(op._states) == len(xs)
        assert op._entries == entries <= op._budget
        # other functions, other precisions, equal mpf that are other
        # objects: every state and row is reused as it stands
        for f, kw in ((mp.cos, {}), (lambda v: v * v, {"s_max": 2}),
                      (mp.sin, {"norm_q": 2.0, "q": 5})):
            for x in reversed(xs):
                op.evaluate(f, +x, **kw)
        assert len(made) == len(xs)
        assert op._entries == _row_entries(op) == entries


@settings(max_examples=20, deadline=None)
@given(calls=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.sampled_from((1, 2, 4))),
                      min_size=1, max_size=30),
       budget=st.sampled_from((None, 1, 60, 300)))
def test_states_past_the_budget_go_oldest_first(tree_ex1_512,
                                                probe_points_512, calls,
                                                budget):
    # the policy told step by step: x's state moves last; then, while the
    # rows hold more entries than the budget, the first state goes, unless
    # it is the only one.  None leaves the tree's budget, 2^8 entries
    op = ExtensionOperator(tree_ex1_512, s_max=4)
    if budget is not None:
        op._budget = budget
    kept: dict = {}
    with mp.workprec(tree_ex1_512.bits):
        for i, S in calls:
            x = probe_points_512[i % len(probe_points_512)]
            op.evaluate(mp.sin, x, s_max=S)
            kept.pop(x._mpf_, None)
            kept[x._mpf_] = op._states[x._mpf_].entries
            while sum(kept.values()) > op._budget and len(kept) > 1:
                del kept[next(iter(kept))]
            assert list(op._states) == list(kept)
            assert {key: pt.entries for key, pt in op._states.items()} == kept
            assert op._entries == _row_entries(op) == sum(kept.values())


def test_bisected_live_sets_match_full_scan(tree_ex1_512, probe_points_512):
    # the cutoffs both stages audit, at every level the operator reaches;
    # x runs over each hull's exact ends, the shoulders and the plateaus
    tree = tree_ex1_512
    op = ExtensionOperator(tree, s_max=4)
    sched = op.schedule
    live_seen = 0
    with mp.workprec(tree.bits):
        for s in range(op.s_max):
            for stage, level, k_delta in (
                    ("accumulation", s, s + (sched.n[s - 1] - 1 if s else 1)),
                    ("transition", s + 1, s + sched.n[s] - 1)):
                t = tree.delta_mpf(k_delta)
                xs = list(probe_points_512)
                for iv in tree.levels[level]:
                    xs += [iv.left - t, iv.right + t, iv.left - t / 2,
                           iv.right + t / 2, iv.left, iv.right]
                for x in xs:
                    scan = [j for j in range(1, 2 ** level + 1)
                            if op._bump(j, level, k_delta).support_hit(x)]
                    assert op._live(level, k_delta, x, stage, s) == scan, \
                        (stage, s, x)
                    live_seen += bool(scan)
    assert live_seen > 100


@pytest.fixture(scope="module")
def tree_ex1_2048():
    # deep enough for truncation level 5 (types to 8)
    return build_tree(build_model(EXAMPLE1, k_max=14, B=1.0), depth=8, bits=2048)


def _sin_2_64(v):
    return mp.ldexp(1, 64) + mp.sin(v)


class TestPrecisionPerBound:
    """A call with a bound runs at about -log2(bound) + 64 bits; its bound
    adds the rounding to the truncation bound."""

    # (f, norm_q): the functions and norms of ``cantorext extend``
    FUNCS = {"one": (lambda v: mp.mpf(1), 1.0), "identity": (lambda v: v, 1.0),
             "square": (lambda v: v * v, 2.0), "sin": (mp.sin, 2.0)}

    def _check(self, op, f, x, out, ref_bits):
        """|W - f(x)| within the bound, f(x) at ``ref_bits`` bits; the
        error as a multiple of the truncation bound alone."""
        with mp.workprec(ref_bits):
            err = abs(out.value - f(x))
            assert err <= out.certified_bound.to_mpf()
            return err

    def test_within_the_bound_of_a_3x_reference(self, tree_ex1_2048):
        tree = tree_ex1_2048
        op = ExtensionOperator(tree, s_max=5)
        xs = [iv.right for iv in tree.levels[8][3::41]]
        for S in (3, 4, 5):
            for name, (f, norm_q) in self.FUNCS.items():
                p = _bounded_precision(op, S, norm_q)
                assert p < tree.bits
                for x in xs:
                    out = op.evaluate(f, x, norm_q=norm_q, q=5, s_max=S)
                    self._check(op, f, x, out, 3 * tree.bits)
                    # the rounding bound takes the live cutoffs as exact:
                    # on the set each is 1
                    pt = op._states[x._mpf_]
                    assert {pt.root_u} | {u for A, T in pt.stages for _, us
                                          in A for _, u in us} \
                        | {u for A, T in pt.stages for _, u in T} == {1}
                    # W was summed at p bits, and the rounding bound stays
                    # below 2^-32 of the truncation bound
                    assert out.value._mpf_[3] <= p
                    gap = out.certified_bound.ln - op.certified_bound(
                        S, norm_q=norm_q, q=5).ln
                    assert 0 <= gap <= 2 ** -32, (S, name)
        # one table set per level's precision, none at the tree's
        assert sorted(op._per_f[mp.sin]) == [_bounded_precision(op, S)
                                             for S in (3, 4, 5)]

    def test_unbounded_calls_keep_the_tree_precision_bit_for_bit(
            self, tree_ex1_2048):
        # the digest of the same calls when every sum ran in mpf arithmetic
        # at the tree's precision
        tree = tree_ex1_2048
        op = ExtensionOperator(tree, s_max=5)
        fs = [lambda v: mp.mpf(1), lambda v: v, lambda v: v * v, mp.sin,
              lambda v: 3 - 2 * v + v * v * v]
        digest = hashlib.sha256()
        with mp.workprec(tree.bits):
            xs = [iv.right for iv in tree.levels[8][3::37]] \
                + [mp.mpf(u) / 37 for u in range(-2, 40, 3)]
            for S in (2, 3, 4, 5):
                for x in xs:
                    for f in fs:
                        out = op.evaluate(f, x, s_max=S)
                        assert out.certified_bound is None
                        digest.update(repr(out.value._mpf_).encode())
        assert digest.hexdigest() == ("4c84d9e5f4cece79973ea3917476719e"
                                      "831a2d085016af36bdd043d8c300bf0d")

    def test_bounded_calls_keep_their_values_and_bounds_bit_for_bit(
            self, tree_ex1_2048):
        # the digest of the same calls when every Newton table was built
        # whole, order by order, and divided through mpf_div
        tree = tree_ex1_2048
        op = ExtensionOperator(tree, s_max=5)
        digest = hashlib.sha256()
        xs = [iv.right for iv in tree.levels[8][3::37]]
        for S in (3, 4, 5):
            for x in xs:
                for f, norm_q in self.FUNCS.values():
                    out = op.evaluate(f, x, norm_q=norm_q, q=5, s_max=S)
                    digest.update(repr(out.value._mpf_).encode())
                    digest.update(repr(out.certified_bound.ln).encode())
        assert digest.hexdigest() == ("41d0479747a815b45e0e23203eda975f"
                                      "9919f89dd44839b29e3db59985419da8")

    def test_capped_precision_reports_the_rounding(self):
        # level 5 needs about 1886 bits; a 1024-bit tree caps the sums at
        # 1024, where the rounding dominates the truncation bound and
        # some errors exceed the truncation bound alone
        tree = build_tree(build_model(EXAMPLE1, k_max=14, B=1.0), depth=8,
                          bits=1024)
        op = ExtensionOperator(tree, s_max=5)
        assert _bounded_precision(op, 5) == tree.bits
        above = 0
        for name in ("square", "sin"):
            f, norm_q = self.FUNCS[name]
            trunc = op.certified_bound(5, norm_q=norm_q, q=5)
            for iv in tree.levels[7][:32]:
                out = op.evaluate(f, iv.right, norm_q=norm_q, q=5)
                err = self._check(op, f, iv.right, out, 3 * tree.bits)
                assert out.certified_bound.ln > trunc.ln + 100
                with mp.workprec(3 * tree.bits):
                    above += err > trunc.to_mpf()
            assert list(op._per_f[f]) == [tree.bits]
        assert above > 0

    def test_rounding_near_the_bound_reruns_at_tree_precision(
            self, tree_ex1_2048):
        # W reproduces constants on the set, so sin's norm bounds the
        # truncation error of 2^64 + sin; its values round at 2^64 times
        # sin's, so at the chosen precision R exceeds 2^-32 of the bound
        tree = tree_ex1_2048
        op = ExtensionOperator(tree, s_max=5)
        p = _bounded_precision(op, 3)
        for iv in tree.levels[8][5::51]:
            out = op.evaluate(_sin_2_64, iv.right, norm_q=2.0, q=5, s_max=3)
            self._check(op, _sin_2_64, iv.right, out, 3 * tree.bits)
            gap = out.certified_bound.ln - op.certified_bound(
                3, norm_q=2.0, q=5).ln
            assert 0 <= gap <= 2 ** -32
        assert sorted(op._per_f[_sin_2_64]) == [p, tree.bits]

    def test_rounding_bound_of_a_large_f_stays_finite(self, tree_ex1):
        # R counts units 2^-(p + 1074) exactly: for f = 2^990 (1 + x) its
        # parts pass 2^1000 units, where a double overflowed and the call
        # raised "no finite value" for a finite f.  Scaling f and its norm
        # by 2^90 scales W by 2^90 exactly, and its bound by 2^90
        op = ExtensionOperator(tree_ex1, s_max=3)
        x = tree_ex1.levels[3][2].left
        got = [op.evaluate(lambda z, e=e: mp.ldexp(1 + z, e), x,
                           norm_q=2.0 ** e, q=2)
               for e in (900, 990)]
        sign, man, exp, bc = got[0].value._mpf_
        assert got[1].value._mpf_ == (sign, man, exp + 90, bc)
        assert float(got[1].certified_bound.ln - got[0].certified_bound.ln) \
            == pytest.approx(90 * math.log(2), abs=1e-9)


class TestWhitneyNorms:
    def test_constant_norm(self, tree_ex1):
        jet = polynomial_jet(tree_ex1, [], level=3, support=(1, 0), order=3)
        # empty root list: f == 1 on the whole set
        assert whitney_norm(jet, 2, bits=tree_ex1.bits) == pytest.approx(1.0)

    def test_linear_function_norm(self):
        jet = JetSample(points=[mp.mpf(0), mp.mpf(1)],
                        derivs=[[mp.mpf(0), mp.mpf(1)], [mp.mpf(1), mp.mpf(1)]])
        # |f|_1 = 1 and the first-order Taylor remainders vanish
        assert whitney_norm(jet, 1) == pytest.approx(1.0)

    def test_node_polynomial_norm_bound(self, tree_ex1):
        # r = 4 nodes on I_{1,1}: ||f||_r <= 2 r!
        r = 4
        nodes = select_nodes(tree_ex1, (1, 1), r).points()
        jet = polynomial_jet(tree_ex1, nodes, level=4, support=(1, 1), order=r)
        assert whitney_norm(jet, r, bits=tree_ex1.bits) <= 2.0 * math.factorial(r)

    def test_insufficient_order(self, tree_ex1):
        jet = polynomial_jet(tree_ex1, [], level=2, support=(1, 0), order=1)
        with pytest.raises(ValueError, match="norm needs 3"):
            whitney_norm(jet, 3)


class TestDNExperiment:
    def test_dip_family_fires_from_j3(self):
        m = build_model(EXAMPLE2, k_max=40, variant="A")
        kj = m.meta["kj"]
        pairs = [(2 ** (kj[j] - kj[j - 1]), kj[j - 1]) for j in (2, 3, 4, 5)]
        rep = dn_experiment(m, eps=0.25, m=0,
                            r_list=[r for r, _ in pairs],
                            s_list=[s for _, s in pairs])
        assert rep.diverges  # scaled bounds strictly increase along j
        fires = [row.fires for row in rep.rows]
        # the block inequality misses by ~0.9% at j=2 and holds from j=3 on
        assert fires == [False, True, True, True]
        for row in rep.rows[1:]:
            assert row.ln_bound_scaled >= 2.0 ** (row.s + row.n) * row.threshold

    def test_constant_weights_stay_bounded(self):
        m = build_model(EXAMPLE1, k_max=40, B=1.0)
        pairs = [(2 ** 5, 4), (2 ** 7, 9), (2 ** 9, 16), (2 ** 11, 25)]
        rep = dn_experiment(m, eps=0.25, m=0,
                            r_list=[r for r, _ in pairs],
                            s_list=[s for _, s in pairs])
        assert not rep.diverges
        # brace = B (2 - n/4): negative for n > 8
        for row in rep.rows:
            want = 1.0 * (2.0 - row.n / 4.0)
            assert row.brace == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("family,kw", [
        (EXAMPLE1, {"B": 1.0}), (EXAMPLE1, {"B": 0.3}),
        (EXAMPLE2, {"variant": "A"}), (EXAMPLE2, {"variant": "B"}),
        (EXAMPLE3, {"m": 3, "k_max": 60}), (POWER_LAW, {"a": 2.0}),
        (EXPONENTIAL, {"a": 2.0}), (DOUBLY_EXP, {"a": 1.5}),
        (DELTA_FORM, {"b": 2.0})])
    def test_fires_is_the_exact_block_test(self, family, kw):
        model = build_model(family, **{"k_max": 24, **kw})
        prof = profile(model)
        for eps in (0.1, 0.25, 0.5, 1.0, 3.0):
            for m in range(4):
                ns = [(n, s) for n in range(m + 1, 8) for s in range(1, 25 - n)]
                rep = dn_experiment(model, eps, m, [2 ** n for n, _ in ns],
                                    [s for _, s in ns])
                assert [row.fires for row in rep.rows] == [
                    block_inequality_fails(prof, eps, m, s, n) for n, s in ns]

    @pytest.mark.parametrize("eps,n,fires", [(0.25, 4, True), (0.1, 10, False)])
    def test_fires_on_an_exact_tie(self, eps, n, fires):
        # constant weights B_k = 1 and m = 0: the brace is 2 - eps n against
        # B_{s+n} = 1.  At eps = 0.25 the two sides tie exactly; at eps = 0.1
        # the double 0.1 lies above 1/10, so the block inequality holds,
        # though the brace's doubles round to a tie
        model = build_model(EXAMPLE1, k_max=20, B=1.0)
        row = dn_experiment(model, eps, 0, [2 ** n], [3]).rows[0]
        assert row.brace - row.threshold == 0.0
        assert row.fires is fires
        assert block_inequality_fails(profile(model), eps, 0, 3, n) is fires

    def test_direct_sup_below_closed_form(self, tree_ex1):
        # the sup bound behind the rows of r = 4, s = 1, against the grid
        direct, upper = direct_sup_check(tree_ex1, 1, 2)
        assert math.isfinite(direct)
        assert direct <= upper

    def test_parameter_guards(self):
        m = build_model(EXAMPLE1, k_max=20, B=1.0)
        with pytest.raises(ParameterError):
            dn_experiment(m, eps=0.25, m=3, r_list=[8], s_list=[2])  # m >= n
        with pytest.raises(ParameterError):
            dn_experiment(m, eps=0.25, m=0, r_list=[6], s_list=[2])  # not 2^n

    @pytest.mark.parametrize("r", [0, -8, 6])
    def test_r_not_a_power_of_two_is_rejected_before_any_log(self, r):
        # r = 0 and r = -8 failed in math.log2 with a bare "math domain
        # error" that named no parameter
        m = build_model(EXAMPLE2, k_max=40, variant="A")
        with pytest.raises(ParameterError, match=f"r={r} "):
            dn_experiment(m, eps=0.25, m=0, r_list=[r, 128], s_list=[9, 9])

    @pytest.mark.parametrize("m_window,s", [(0, 0), (0, -1), (-1, 9)])
    def test_window_below_0_and_level_below_1_are_rejected(self, m_window, s):
        # s = 0 read the undefined B_0 (NaN), s = -1 wrapped to B[-1], and
        # m = -1 reported rows at q = 2^-1
        m = build_model(EXAMPLE2, k_max=40, variant="A")
        with pytest.raises(ParameterError):
            dn_experiment(m, eps=0.25, m=m_window, r_list=[128, 512],
                          s_list=[s, s + 7])


class TestProductInequalities:
    @pytest.mark.parametrize("interval", [(1, 1), (1, 2)])
    @pytest.mark.parametrize("N", [4, 7, 11, 12])
    def test_distance_product_bound(self, tree_ex1, interval, N):
        assert check_distance_product_bound(tree_ex1, interval, N)

    @pytest.mark.parametrize("interval", [(1, 1), (1, 2)])
    @pytest.mark.parametrize("N,q", [(6, 1), (9, 3), (12, 3)])
    def test_chain_product_bound(self, tree_ex1, interval, N, q):
        assert check_chain_product_bound(tree_ex1, interval, N, q)

    def test_cutoff_product_bound(self, tree_plaw):
        iv = tree_plaw.interval(1, 1)
        grid = np.linspace(float(iv.left) - 1e-4, float(iv.right) + 1e-4, 160)
        assert check_cutoff_product_bound(tree_plaw, (1, 1), N=6, x_grid=grid)


class TestOffSetBehavior:
    def test_constant_extension_equals_root_cutoff(self, tree_ex1):
        # all divided differences of a constant vanish, so the whole series
        # collapses to the width-1 cutoff times the constant
        op = ExtensionOperator(tree_ex1, s_max=3)
        one = lambda v: mp.mpf(1)
        with mp.workprec(tree_ex1.bits):
            for x in (mp.mpf("-0.4"), mp.mpf("0.5"), mp.mpf("1.3")):
                out = op.evaluate(one, x)
                want = bump_for_interval(tree_ex1, 1, 0, mp.mpf(1)).value(x)
                assert abs(out.value - want) < mp.mpf(2) ** (-tree_ex1.bits + 64)
            assert op.evaluate(one, mp.mpf("-2")).value == 0

    def test_eta_profile_extends_below_horizon(self, tree_ex1):
        from cantorext.dimension import EtaProfile
        h = EtaProfile(tree_ex1.model)
        L_max = h.lnt_max
        # beyond the table the last slope continues: monotone, finite
        assert 0 < h.h_ln(L_max * 1.5) < h.h_ln(L_max)


# ---------------------------------------------------------------------------
# a large evaluation's new tables in two processes
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@pytest.fixture(scope="module")
def tree_jets():
    # extend_jets' tree: deep enough for truncation level 5
    return build_tree(build_model(EXAMPLE1, k_max=16, B=1.0), depth=9,
                      bits=2048)


def _inner(tree) -> list:
    """The endpoint each deepest interval gets at its own level."""
    return [iv.right if iv.index % 2 else iv.left
            for iv in tree.levels[tree.depth]]


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returned during the test.  Every evaluation may
    fork: the precision gate and the f-time threshold are 0, and two usable
    CPUs are reported."""
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
    monkeypatch.setattr(extension, "_FORK_MIN_BITS", 0)
    monkeypatch.setattr(extension, "_FORK_MIN_F_S", 0)
    return pids


def _serially(monkeypatch, call):
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        return call()


def _poly(v):
    return 3 - 2 * v + v * v * v


def _cached_bits(op, fs) -> list:
    """Every value and Newton table the operator holds for ``fs``, exact
    (the values as a mapping: a forked call caches its last node first)."""
    return [(p, {z._mpf_: v._mpf_ for z, v in t.values.items()},
             [(key, [z._mpf_ for z in itp.points], _bits(itp.coeffs),
               itp.errs, itp._z, itp._diag, itp._err)
              for key, itp in t.interps.items()])
            for f in fs for p, t in op._per_f[f].items()]


def _sweep(tree, xs, levels):
    """Bounded sin at each level of ``levels`` and unbounded polynomials at
    S = 5, on a fresh operator: every value, bound and cached table."""
    op = ExtensionOperator(tree, s_max=max(levels))
    out = []
    with mp.workprec(tree.bits):
        for S in levels:
            for x in xs:
                w = op.evaluate(mp.sin, x, norm_q=2.0, q=5, s_max=S)
                out.append((w.value._mpf_, w.certified_bound.ln))
        for f in (lambda v: v * v, _poly):
            for x in xs:
                out.append(op.evaluate(f, x, s_max=5).value._mpf_)
    return out, _cached_bits(op, [mp.sin])


@needs_fork
def test_forked_tables_are_the_serial_tables_bit_for_bit(forks, monkeypatch,
                                                         tree_jets):
    xs = _inner(tree_jets)[37::150]
    forked = _sweep(tree_jets, xs, (3, 4, 5))
    assert len(forks) >= 2 * len(xs)
    assert forked == _serially(monkeypatch,
                               lambda: _sweep(tree_jets, xs, (3, 4, 5)))
    # criterion 3's depth-10, 8192-bit tree, when the acceptance tests built
    # it: S = 6 runs at 6670 bits, where the gates let sin fork unpatched
    deep = test_acceptance._CACHE.get("ex1_deep")
    if deep is not None:
        xs = _inner(deep)[300::400]
        n = len(forks)
        forked = _sweep(deep, xs, (3, 4, 5, 6))
        assert len(forks) > n
        assert forked == _serially(monkeypatch,
                                   lambda: _sweep(deep, xs, (3, 4, 5, 6)))


@needs_fork
def test_non_finite_f_raises_on_every_path(forks, monkeypatch, tree_jets):
    # a Whitney jet is finite: an f that is nan at one node the call reads
    # raises the same ParameterError unbounded, bounded and forked, where
    # an unbounded call used to return nan
    x = _inner(tree_jets)[37]
    with mp.workprec(tree_jets.bits):
        good = ExtensionOperator(tree_jets, s_max=4)
        _serially(monkeypatch, lambda: good.evaluate(mp.sin, x))
        read = sorted({z._mpf_ for t in good._per_f[mp.sin].values()
                       for itp in t.interps.values() for z in itp.points})
        bad = read[len(read) // 2]

        def f(z):
            return mp.nan if z._mpf_ == bad else mp.sin(z)

        def raised(**bound):
            op = ExtensionOperator(tree_jets, s_max=4)
            with pytest.raises(ParameterError, match="no finite value") as exc:
                op.evaluate(f, x, **bound)
            return str(exc.value)

        got = [_serially(monkeypatch, raised),
               _serially(monkeypatch, lambda: raised(norm_q=2.0, q=5))]
        n = len(forks)
        got.append(raised())
        assert len(forks) > n
    assert got == [got[0]] * 3

def test_plan_lists_the_tables_the_sum_reads(tree_jets):
    # the sum reads f's tables by key alone, so after each call they must
    # be the plan's: a fresh operator's tables are exactly the planned
    # ones, each with the most nodes the plan asks of it.  At the endpoints
    # of levels 2-5, 0 and 1 among them, x is a node, and no table is
    # longer than the nonzero prefix of x's row over the interval's nodes
    ends = sorted({z for iv in tree_jets.levels[5] for z in (iv.left, iv.right)})
    longest = stopped = 0
    with mp.workprec(tree_jets.bits):
        for x in (_inner(tree_jets)[::101] + [mp.mpf("0.3"), mp.mpf("0.71")]
                  + ends[::3]):
            for S in (1, 3, 5):
                op = ExtensionOperator(tree_jets, s_max=5)
                op.evaluate(_poly, x, s_max=S)
                plan = {}
                for j, s, n in op._plan(op._states[x._mpf_], S):
                    plan[(j, s)] = max(n, plan.get((j, s), 0))
                tables = op._tables(_poly, tree_jets.bits).interps
                assert {key: len(itp.points)
                        for key, itp in tables.items()} == plan
                for (j, s), itp in tables.items():
                    nodes = op._points(j, s, len(itp.points))
                    row = grow_omega([1], x, nodes, len(nodes))
                    assert len(itp.points) <= next(
                        (k for k, w in enumerate(row) if not w), len(row))
                stopped += S == 5 and plan != _uncapped_counts(op, x, S)
                longest = max(longest, len(plan))
    # at S = 5 every endpoint stops some table short
    assert longest >= 6 and stopped == len(ends[::3])


def _call_order(monkeypatch, tree, x) -> list:
    """The nodes at which a fresh operator's serial W(sin, x) calls f."""
    order = []
    _serially(monkeypatch, lambda: ExtensionOperator(tree, s_max=5).evaluate(
        lambda z: order.append(z) or mp.sin(z), x))
    return order


def _raising_at(z0, here: list):
    """sin, raising at the node z0; ``here`` gets one entry for each time
    it raised in this process."""
    def f(z):
        if z == z0:
            here.append(z0)
            raise ValueError(f"planted at {mp.nstr(z0, 12)}")
        return mp.sin(z)
    return f


@needs_fork
@pytest.mark.parametrize("side", ["child", "parent"])
def test_an_f_error_is_the_serial_error(forks, monkeypatch, tree_jets, side):
    # f runs at the last new node first, the probe, even where it cannot
    # fork; then this process takes every other one of the rest from the
    # first, the child the others from the second
    tree = tree_jets
    x = _inner(tree)[200]
    z0 = _call_order(monkeypatch, tree, x)[2 if side == "child" else 1]
    kills, here = [], []
    kill = os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append((pid, sig))
                        or kill(pid, sig))
    with pytest.raises(ValueError, match="planted at") as forked:
        ExtensionOperator(tree, s_max=5).evaluate(_raising_at(z0, here), x)
    assert len(forks) == 1
    # the serial path raised here once; this process's half raised before it
    # and killed the child, which was still running or not yet read
    if side == "child":
        assert here == [z0] and kills == []
    else:
        assert here == [z0, z0] and kills == [(forks[0], signal.SIGKILL)]
    with pytest.raises(ValueError) as serial:
        _serially(monkeypatch, lambda: ExtensionOperator(
            tree, s_max=5).evaluate(_raising_at(z0, []), x))
    assert str(forked.value) == str(serial.value)


@needs_fork
@pytest.mark.parametrize("interval,side", [((7, 4), "parent"),
                                           ((4, 3), "child")])
def test_a_node_collision_is_the_serial_error(forks, monkeypatch, tree_jets,
                                              interval, side):
    # the call's largest new table, (7, 4) with 32 nodes, fills this
    # process's bin alone; the child grows the other five
    tree = tree_jets
    iv = tree.interval(*interval)
    here = []
    dd = extension.divided_differences

    def planted(points, values, table):
        if len(points) > 1 and {points[0], points[1]} == {iv.left, iv.right}:
            here.append(interval)
            raise NodeCollisionError(f"planted on I_{interval}")
        return dd(points, values, table)

    monkeypatch.setattr(extension, "divided_differences", planted)
    x = _inner(tree)[200]
    with pytest.raises(NodeCollisionError, match="planted on") as forked:
        ExtensionOperator(tree, s_max=5).evaluate(mp.sin, x)
    assert len(forks) == 2
    assert len(here) == (2 if side == "parent" else 1)
    with pytest.raises(NodeCollisionError) as serial:
        _serially(monkeypatch, lambda: ExtensionOperator(
            tree, s_max=5).evaluate(mp.sin, x))
    assert str(forked.value) == str(serial.value)


@needs_fork
def test_a_child_without_a_result_leaves_the_call_serial(forks, monkeypatch,
                                                         tree_jets):
    parent = os.getpid()

    def f(z):
        if os.getpid() != parent:
            os._exit(3)
        return mp.sin(z)

    x = _inner(tree_jets)[200]
    op = ExtensionOperator(tree_jets, s_max=5)
    got = op.evaluate(f, x, norm_q=2.0, q=5).value
    assert len(forks) == 1
    serial = ExtensionOperator(tree_jets, s_max=5)
    want = _serially(monkeypatch, lambda: serial.evaluate(
        f, x, norm_q=2.0, q=5).value)
    assert got._mpf_ == want._mpf_
    assert _cached_bits(op, [f]) == _cached_bits(serial, [f])


@needs_fork
def test_a_refused_fork_evaluates_in_process(forks, monkeypatch, tree_jets):
    tried = []

    def refused():
        tried.append(1)
        raise BlockingIOError("no process slot")

    x = _inner(tree_jets)[200]
    with monkeypatch.context() as m:
        m.setattr(os, "fork", refused)
        got = ExtensionOperator(tree_jets, s_max=5).evaluate(mp.sin, x)
    assert tried == [1]
    want = _serially(monkeypatch, lambda: ExtensionOperator(
        tree_jets, s_max=5).evaluate(mp.sin, x))
    assert got.value._mpf_ == want.value._mpf_


def test_cheap_and_small_calls_never_fork(monkeypatch, tree_jets):
    """Cheap functions at 8192 bits, an ``extend_jets``-shaped round at 2048
    bits and the README ``extend`` command stay in this process however
    many CPUs there are."""
    deep = build_tree(build_model(EXAMPLE1, k_max=16, B=1.0), depth=8,
                      bits=8192)
    tried = []

    def no_fork():
        tried.append(1)
        raise AssertionError("an evaluation forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    op = ExtensionOperator(deep, s_max=5)
    ends5 = sorted({z for iv in deep.levels[5] for z in (iv.left, iv.right)})
    with mp.workprec(deep.bits):
        for f in (lambda v: mp.mpf(1), lambda v: v, lambda v: v * v):
            for x in ends5[3::16]:
                op.evaluate(f, x, s_max=5)
    op = ExtensionOperator(tree_jets, s_max=5)
    with mp.workprec(tree_jets.bits):
        for x in _inner(tree_jets)[70:73] + [mp.mpf("0.3"), mp.mpf("0.72")]:
            for f in (lambda v: mp.mpf(1), lambda v: v, lambda v: v * v,
                      lambda v: v * v * v, _poly):
                op.evaluate(f, x)
            op.evaluate(mp.sin, x, norm_q=2.0, q=5)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["extend", "--family", "example1", "--B", "1",
                         "--bits", "1024", "--s-max", "3"]) == 0
    assert tried == []
