"""Tests for closed form characters, checked against the quotient road
and the raw chart and edge road of ``oracles``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hftvertex.chars
from hftvertex.chars import (CharError, LaurentPoly, NotPolynomial,
                             RationalCharacter, VariableSet,
                             VariableSetMismatch, ZeroDenominator, one_minus)
from hftvertex.fixedpoints import BoxTuple, enumerate_fixed
from hftvertex.localize import ZeroWeight, contribution, weights_of
from hftvertex.series import compare_rows
from hftvertex.vertexchar import (alpha_block, beta_block, frame_sum,
                                  geometric_sum, total_character)
from oracles import (EdgeData, alpha_block_quotient, alpha_frame, axis_fold,
                     beta_block_quotient, beta_frame, char_substituted,
                     edge_character, edge_character_raw, edge_g,
                     edge_g_local, edge_shift, eq_rational, frame_pair_sum,
                     frame_part, frame_part_rc, geometric_quotient,
                     leg_alpha, leg_beta, quad_g, share_alpha, share_beta,
                     total_character_quotient, trace_vertex, triple_g,
                     two_chart_trace, vertex_character)
from test_summands import _outcome

V1 = VariableSet(1)
V2 = VariableSet(2)
V3 = VariableSet(3)


def mono(vars, **kw):
    return LaurentPoly.monomial(vars, vars.mono(**kw))


def test_frames():
    fa = alpha_frame(V1, 3)
    assert fa.t_images == (V1.mono(t1=1), V1.mono(t2=1), V1.mono(t3=1))
    assert fa.twist_char == mono(V1, t1=3)
    fb = beta_frame(V1)
    assert fb.t_images == (V1.mono(t1=-1), V1.mono(t1=1, t2=1),
                           V1.mono(t1=1, t3=1))
    assert fb.twist_char == LaurentPoly.one(V1)


def test_frame_sums():
    assert frame_sum(V2) == mono(V2, w=(1, 0)) + mono(V2, w=(0, 1))
    assert frame_sum(V2).bar() == mono(V2, w=(-1, 0)) + mono(V2, w=(0, -1))
    for rank in range(1, 6):
        vars = VariableSet(rank)
        units = [[int(i == j) for i in range(rank)] for j in range(rank)]
        assert frame_sum(vars) == sum(
            (mono(vars, w=w) for w in units), LaurentPoly.zero(vars))
        assert frame_sum(vars).bar() == sum(
            (mono(vars, w=[-x for x in w]) for w in units),
            LaurentPoly.zero(vars))
    pair = frame_pair_sum(V2)
    assert pair.constant_term == 2
    assert pair.coefficient(V2.mono(w=(1, -1))) == 1


def test_legs():
    leg = leg_alpha(V2, (2, 0))
    assert leg.den == (V2.mono(t1=1),)
    assert leg.num == mono(V2, t1=-2, w=(1, 0)) + mono(V2, w=(0, 1))
    leg = leg_beta(V1, (3,))
    assert leg.den == (V1.mono(t1=-1),)
    assert leg.num == mono(V1, t1=3, w=(1,))
    with pytest.raises(VariableSetMismatch):
        leg_alpha(V1, (1, 2))
    with pytest.raises(VariableSetMismatch, match="box tuple of rank 2"):
        total_character(V1, BoxTuple((1, 0), (0, 0)), 0)


def test_trace_of_bare_line_is_the_pole_term():
    tr = trace_vertex(V1, leg_alpha(V1, (0,)), alpha_frame(V1, 0))
    want = RationalCharacter(
        V1, mono(V1, t2=-1) + mono(V1, t3=-1), (V1.mono(t1=1),))
    assert eq_rational(tr, want)
    assert not tr.is_zero()


def test_beta_trace_closed_form():
    # -t1^(c+1)/(1-t1) - t1^(-c-1)/((1-t1) t2 t3)
    #   + (1 - t2 t1)(1 - t3 t1)/((1-t1) t1 t2 t3)
    t1 = V1.mono(t1=1)
    for c in (0, 1, 2):
        tr = trace_vertex(V1, leg_beta(V1, (c,)), beta_frame(V1))
        want = (RationalCharacter(V1, -mono(V1, t1=c + 1), (t1,))
                + RationalCharacter(
                    V1, -mono(V1, t1=-c - 1, t2=-1, t3=-1), (t1,))
                + RationalCharacter(
                    V1,
                    (one_minus(V1, V1.mono(t1=1, t2=1))
                     * one_minus(V1, V1.mono(t1=1, t3=1))).times_monomial(
                         V1.mono(t1=-1, t2=-1, t3=-1)),
                    (t1,)))
        assert eq_rational(tr, want)


def test_beta_chart_agrees_through_change_of_variables():
    # computing the second chart in its own coordinates and substituting
    # the gluing map gives the direct second chart trace
    for rank, vars in ((1, V1), (2, V2)):
        rng = random.Random(rank)
        for _ in range(5):
            beta = tuple(rng.randint(0, 3) for _ in range(rank))
            local = trace_vertex(vars, leg_alpha(vars, beta),
                                 alpha_frame(vars, 0))
            glued = char_substituted(local, beta_frame(vars).images())
            direct = trace_vertex(vars, leg_beta(vars, beta),
                                  beta_frame(vars))
            assert eq_rational(glued, direct)


def test_two_chart_trace_of_empty_untwisted():
    # rank one: the empty untwisted configuration cancels exactly
    assert two_chart_trace(V1, BoxTuple((0,), (0,)), 0).is_zero()
    # higher rank keeps a residue proportional to 1 - W W*; it drops out
    # of every raw-minus-empty difference the closed form is compared to
    residue = two_chart_trace(V2, BoxTuple((0, 0), (0, 0)), 0)
    want = RationalCharacter(
        V2,
        (1 - frame_pair_sum(V2)) * one_minus(V2, V2.mono(t1=1, t2=1, t3=1)),
        (V2.mono(t2=1), V2.mono(t3=1), V2.mono(t1=1, t2=1),
         V2.mono(t1=1, t3=1)))
    assert eq_rational(residue, want)


def test_two_chart_trace_empty_relic_for_positive_twist():
    # the raw two chart sum of the empty configuration is not zero once
    # the framing is twisted; it matches the closed form block of the
    # twist many boxes
    relic = two_chart_trace(V1, BoxTuple((0,), (0,)), 2)
    assert not relic.is_zero()
    expect = total_character(V1, BoxTuple((2,), (0,)), 0)
    assert eq_rational(relic, RationalCharacter.from_poly(expect))


def test_geometric_sum():
    rng = random.Random(42)
    assert geometric_sum(V1, V1.mono(t1=1), V1.mono(t1=1), 0).is_zero()
    with pytest.raises(ValueError):
        geometric_sum(V1, V1.mono(t1=1), V1.mono(t1=1), -1)
    for _ in range(40):
        first = tuple(rng.randint(-2, 2) for _ in range(V1.nvars))
        ratio = tuple(rng.randint(-2, 2) for _ in range(V1.nvars))
        if not any(ratio):
            continue
        count = rng.randint(1, 5)
        assert (geometric_sum(V1, first, ratio, count)
                == geometric_quotient(V1, first, ratio, count).reduced())
    # a unit ratio repeats the first term, where the quotient has the
    # zero denominator 1 - 1
    first = V1.mono(t1=2, w=(-1,))
    assert (geometric_sum(V1, first, V1.unit(), 3)
            == LaurentPoly.monomial(V1, first, 3))
    with pytest.raises(ZeroDenominator):
        geometric_quotient(V1, first, V1.unit(), 3)


def test_blocks_vanish_without_boxes():
    assert alpha_block(V2, 0, 0, 5).is_zero()
    assert beta_block(V2, 1, 0).is_zero()


def test_blocks_refuse_a_summand_outside_the_rank():
    for j in (-1, 2):
        with pytest.raises(VariableSetMismatch,
                           match="no frame summand %d at rank 2" % j):
            alpha_block(V2, j, 1, 0)
        with pytest.raises(VariableSetMismatch):
            beta_block(V2, j, 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blocks_match_quotient_oracle(data):
    """Each block equals its quotient oracle reduced by exact division,
    for every frame summand, on both legs and at negative twists."""
    rank = data.draw(st.integers(1, 4))
    j = data.draw(st.integers(0, rank - 1))
    boxes = data.draw(st.integers(0, 4))
    twist = data.draw(st.integers(-4, 3))
    vars = VariableSet(rank)
    assert (alpha_block(vars, j, boxes, twist)
            == alpha_block_quotient(vars, j, boxes, twist).reduced())
    assert (beta_block(vars, j, boxes)
            == beta_block_quotient(vars, j, boxes).reduced())


def test_total_character_oracles():
    box = BoxTuple((1,), (0,))
    assert total_character(V1, box, 0) == (
        mono(V1, t1=-1) - mono(V1, t2=-1, t3=-1))
    assert total_character(V1, BoxTuple((2,), (0,)), 0) == (
        mono(V1, t1=-1) + mono(V1, t1=-2)
        - mono(V1, t2=-1, t3=-1) - mono(V1, t1=1, t2=-1, t3=-1))
    assert total_character(V1, box, 3) == (
        mono(V1, t1=-4) - mono(V1, t1=3, t2=-1, t3=-1))
    assert total_character(V1, BoxTuple((0,), (1,)), 0) == (
        mono(V1, t1=1) - mono(V1, t1=-2, t2=-1, t3=-1))
    for twist in range(4):
        assert total_character(V1, BoxTuple((0,), (0,)), twist).is_zero()
        assert total_character(V2, BoxTuple((0, 0), (0, 0)),
                               twist).is_zero()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_total_character_matches_quotient_oracle(data):
    """The finite sum equals the quotient blocks reduced by exact
    division, on both legs and at negative twists; where the unit
    monomial appears, the weights of both refuse with one message."""
    rank = data.draw(st.integers(1, 4))
    counts = st.tuples(*[st.integers(0, 3 if rank < 4 else 2)] * rank)
    box = BoxTuple(data.draw(counts), data.draw(counts))
    twist = data.draw(st.integers(-4, 3))
    vars = VariableSet(rank)
    got = total_character(vars, box, twist)
    want = total_character_quotient(vars, box, twist)
    assert got == want
    weights = _outcome(weights_of, got)
    assert weights == _outcome(weights_of, want)
    if vars.unit() in got.terms:
        assert weights == (
            ZeroWeight, "character carries a unit monomial term")


def _refuse(*args, **kwargs):
    raise AssertionError("the package divided")


def test_package_road_never_divides(monkeypatch):
    """Contributions and a compare table go through no quotient: every
    operation of the quotient ring, and the exact division, raise."""
    for name in ("__init__", "__add__", "__radd__", "__sub__", "__mul__",
                 "normalized", "reduced"):
        monkeypatch.setattr(RationalCharacter, name, _refuse)
    monkeypatch.setattr(hftvertex.chars, "divide_one_minus", _refuse)
    cells = [(V1, BoxTuple((2,), (0,)), 0), (V1, BoxTuple((0,), (3,)), 2),
             (V2, BoxTuple((1, 2), (1, 0)), 1),
             (V3, BoxTuple((0, 1, 0), (2, 0, 1)), 3)]
    for vars, box, twist in cells:
        for mode in ("character", "paper"):
            assert not contribution(vars, box, twist, mode).is_zero()
    assert len(compare_rows(2, 0, 2)) == 3


def test_total_character_rank_two_oracle():
    got = total_character(V2, BoxTuple((1, 0), (0, 0)), 0)
    want = (mono(V2, t1=-1) + mono(V2, t1=-1, w=(1, -1))
            - mono(V2, t2=-1, t3=-1) - mono(V2, t2=-1, t3=-1, w=(-1, 1)))
    assert got == want


def test_total_character_term_balance():
    # equally many positive and negative terms, with multiplicity
    for rank, vars in ((1, V1), (2, V2)):
        for total in range(4):
            for box in enumerate_fixed(rank, total):
                for twist in (0, 2):
                    poly = total_character(vars, box, twist)
                    balance = sum(c for c in poly.terms.values())
                    assert balance == 0
                    assert all(c.denominator == 1
                               for c in poly.terms.values())


def test_raw_equals_closed_in_rank_one():
    empty = BoxTuple((0,), (0,))
    for d in range(3):
        for c in range(3):
            for twist in range(3):
                box = BoxTuple((d,), (c,))
                raw = (two_chart_trace(V1, box, twist)
                       - two_chart_trace(V1, empty, twist))
                closed = RationalCharacter.from_poly(
                    total_character(V1, box, twist))
                assert eq_rational(raw, closed)


def test_raw_matches_closed_on_frame_degree_zero_in_rank_two():
    empty = BoxTuple((0, 0), (0, 0))
    rng = random.Random(77)
    for _ in range(6):
        box = BoxTuple((rng.randint(0, 2), rng.randint(0, 2)),
                       (rng.randint(0, 2), rng.randint(0, 2)))
        twist = rng.randint(0, 2)
        raw = (two_chart_trace(V2, box, twist)
               - two_chart_trace(V2, empty, twist)).normalized()
        closed = total_character(V2, box, twist)
        assert eq_rational(
            frame_part_rc(raw, (0, 0)),
            RationalCharacter.from_poly(frame_part(closed, (0, 0))))


def test_frame_part():
    poly = (mono(V2, t1=1) + mono(V2, t2=1, w=(1, -1))
            + mono(V2, w=(1, 0)))
    assert frame_part(poly, (0, 0)) == mono(V2, t1=1)
    assert frame_part(poly, (1, -1)) == mono(V2, t2=1, w=(1, -1))
    assert frame_part(poly, (2, 2)).is_zero()
    with pytest.raises(VariableSetMismatch):
        frame_part(poly, (0,))
    rc = RationalCharacter(V2, poly, (V2.mono(t1=1),))
    assert frame_part_rc(rc, (0, 0)).num == mono(V2, t1=1)
    bad = RationalCharacter(V2, poly, (V2.mono(w=(1, 0)),))
    with pytest.raises(CharError):
        frame_part_rc(bad, (0, 0))


def test_axis_folds_vanish():
    for vars in (V1, V2, V3):
        for axis in (1, 2, 3):
            assert axis_fold(vars, axis).is_zero()
    with pytest.raises(ValueError):
        axis_fold(V1, 0)


def test_edge_shift_default_and_custom():
    images = edge_shift(V2)
    assert images[1] == (1, V2.mono(t1=1, t2=1))
    assert images[2] == (1, V2.mono(t1=1, t3=1))
    flat = edge_shift(V2, EdgeData((0, 0)))
    assert flat[1] == (1, V2.mono(t2=1))


def test_edge_g_local_structure():
    # W* t1^-n - W t1^n/(t2 t3) + (1-t2)(1-t3)/(t2 t3)
    #   + (1 - W W*)/((1-t2)(1-t3))
    for vars in (V1, V2):
        for twist in (0, 1, 3):
            sw = frame_sum(vars)
            swi = sw.bar()
            poly = (swi.times_monomial(vars.mono(t1=-twist))
                    - sw.times_monomial(vars.mono(t1=twist, t2=-1, t3=-1))
                    + (one_minus(vars, vars.mono(t2=1))
                       * one_minus(vars, vars.mono(t3=1))).times_monomial(
                           vars.mono(t2=-1, t3=-1)))
            want = RationalCharacter.from_poly(poly) + RationalCharacter(
                vars, 1 - sw * swi,
                (vars.mono(t2=1), vars.mono(t3=1)))
            assert eq_rational(edge_g_local(vars, twist), want)


def test_edge_character_rank_one_closed_form():
    # -w1^-1 t1^-n - w1 t1^(n-1)/(t2 t3) + t1^-1/(t2 t3) - 1
    for twist in range(4):
        want = (-mono(V1, t1=-twist, w=(-1,))
                - mono(V1, t1=twist - 1, t2=-1, t3=-1, w=(1,))
                + mono(V1, t1=-1, t2=-1, t3=-1)
                - LaurentPoly.one(V1))
        assert edge_character(V1, twist) == want


def test_edge_character_higher_rank_is_not_polynomial():
    with pytest.raises(NotPolynomial):
        edge_character(V2, 0)


def test_edge_assembly_identity():
    # chart traces plus their shares of the edge trace plus the edge
    # correction recover the bare two chart sum
    rng = random.Random(13)
    for rank, vars in ((1, V1), (2, V2)):
        for _ in range(4):
            box = BoxTuple(
                tuple(rng.randint(0, 2) for _ in range(rank)),
                tuple(rng.randint(0, 2) for _ in range(rank)))
            twist = rng.randint(0, 2)
            g = edge_g_local(vars, twist)
            shifted = char_substituted(g, edge_shift(vars))
            va = vertex_character(
                trace_vertex(vars, leg_alpha(vars, box.alpha),
                             alpha_frame(vars, twist)),
                (share_alpha(vars, g),))
            vb = vertex_character(
                trace_vertex(vars, leg_beta(vars, box.beta),
                             beta_frame(vars)),
                (share_beta(vars, shifted),))
            total = va + vb + edge_character_raw(vars, g)
            assert eq_rational(total, two_chart_trace(vars, box, twist))


def test_edge_character_of_constant_edge_trace():
    g = RationalCharacter.constant(V1, 5)
    assert eq_rational(edge_character_raw(V1, g),
                       RationalCharacter.constant(V1, -5))


def test_overlap_corrections():
    assert triple_g(V1).is_zero()
    assert quad_g(V1).is_zero()
    q = quad_g(V2)
    assert q == (LaurentPoly.constant(V2, -1) - mono(V2, w=(1, -1))
                 - mono(V2, w=(-1, 1)))
    t = triple_g(V2)
    assert t.den == (V2.mono(t3=1),)
    assert t.num == q


def test_edge_trace_frozen_by_opposite_frame_weights():
    # with the two frame weights opposite, the edge trace loses all
    # twist dependence
    sub = {4: (-1, V2.mono(w=(1, 0)))}
    low = char_substituted(edge_g_local(V2, 0), sub)
    high = char_substituted(edge_g_local(V2, 7), sub)
    assert eq_rational(low, high)
    want = (RationalCharacter.from_poly(
        (one_minus(V2, V2.mono(t2=1))
         * one_minus(V2, V2.mono(t3=1))).times_monomial(
             V2.mono(t2=-1, t3=-1)))
        + RationalCharacter(V2, LaurentPoly.one(V2),
                            (V2.mono(t2=1), V2.mono(t3=1))))
    assert eq_rational(low, want)


def test_edge_g_general_twist_character():
    # edge_g with an explicit twist character matches edge_g_local when
    # the module is the matching bare monomial
    direct = edge_g(V1, mono(V1, t1=-2), LaurentPoly.one(V1))
    assert eq_rational(direct, edge_g_local(V1, 2))
