"""Tests for weights, Euler class contributions, and specialization."""

import random
from fractions import Fraction

import pytest

from hftvertex.chars import LaurentPoly, VariableSet, VariableSetMismatch
from hftvertex.fixedpoints import BoxTuple, enumerate_fixed
from hftvertex.localize import (AffineWeight, DivisionByZero,
                                ModeUnavailable, NonIntegerMultiplicity,
                                SpecializationSyntax, WeightFunction,
                                ZeroWeight, contribution, euler_of_minus,
                                form_text, param_names, parse_specialization,
                                specialize, specialize_form, weight_function,
                                weights_of)

V1 = VariableSet(1)
V2 = VariableSet(2)
V3 = VariableSet(3)


def test_param_names():
    assert param_names(2) == ("s1", "s2", "s3", "v1", "v2")


def test_form_text():
    assert form_text(1, (0, 1, 1, 0)) == "s2 + s3"
    assert form_text(1, (2, -1, 0, 1)) == "2*s1 - s2 + v1"
    assert form_text(1, (0, 0, 0, 0)) == "0"
    assert form_text(1, (Fraction(-1, 2), 0, 0, 0)) == "-1/2*s1"
    with pytest.raises(VariableSetMismatch):
        form_text(2, (1, 0, 0, 0))


def test_weight_function_canonicalization():
    a = weight_function(1, 2, [(2, 2, 0, 0)])
    b = weight_function(1, 4, [(1, 1, 0, 0)])
    assert a == b
    assert a.scalar == 4
    # sign normalization moves into the scalar
    c = weight_function(1, 1, [(-1, 0, 0, 0)])
    assert c.scalar == -1
    assert c.num == ((1, 0, 0, 0),)
    # rational entries are cleared
    d = weight_function(1, 1, [(Fraction(1, 2), Fraction(1, 2), 0, 0)],
                        [(0, Fraction(3, 2), 0, 0)])
    assert d.num == ((1, 1, 0, 0),)
    assert d.den == ((0, 1, 0, 0),)
    assert d.scalar == Fraction(1, 3)


def test_weight_function_cancellation_and_zero():
    a = weight_function(1, 5, [(1, 1, 0, 0), (1, 0, 0, 0)],
                        [(2, 2, 0, 0)])
    assert a.num == ((1, 0, 0, 0),)
    assert a.den == ()
    assert a.scalar == Fraction(5, 2)
    z = weight_function(1, 0, [(1, 0, 0, 0)], [(0, 1, 0, 0)])
    assert z.is_zero()
    assert z.num == () and z.den == ()


def test_weight_function_guards():
    with pytest.raises(ZeroWeight):
        weight_function(1, 1, [(0, 0, 0, 0)])
    with pytest.raises(DivisionByZero):
        weight_function(1, 1, [], [(0, 0, 0, 0)])
    with pytest.raises(VariableSetMismatch):
        weight_function(1, 1, [(1, 0, 0)])


def test_weight_function_arithmetic():
    a = weight_function(1, 2, [(0, 1, 1, 0)], [(1, 0, 0, 0)])
    b = weight_function(1, 3, [(1, 0, 0, 0)], [(0, 0, 1, 0)])
    prod = a * b
    assert prod.scalar == 6
    assert prod.num == ((0, 1, 1, 0),)
    assert prod.den == ((0, 0, 1, 0),)
    quot = a / a
    assert quot == weight_function(1, 1)
    with pytest.raises(DivisionByZero):
        a / weight_function(1, 0)
    with pytest.raises(VariableSetMismatch):
        a * weight_function(2, 1)
    assert a.scaled(Fraction(1, 2)).scalar == 1


def test_weight_function_evaluate():
    wf = weight_function(1, 2, [(0, 1, 1, 0)], [(1, 0, 0, 0)])
    assert wf.evaluate((2, 3, 5, 1)) == Fraction(2 * 8, 2)
    with pytest.raises(DivisionByZero):
        wf.evaluate((0, 1, 1, 1))
    with pytest.raises(VariableSetMismatch):
        wf.evaluate((1, 2, 3))


def test_weight_function_json_roundtrip():
    wf = weight_function(1, Fraction(-3, 4), [(0, 1, 1, 0)],
                         [(1, 0, 0, 0), (1, 0, 0, 0)])
    data = wf.to_json()
    assert data == {"scalar": "-3/4", "num": [[0, 1, 1, 0]],
                    "den": [[1, 0, 0, 0], [1, 0, 0, 0]]}
    assert WeightFunction.from_json(1, data) == wf


def test_weight_function_text():
    assert weight_function(1, 1, [(0, 1, 1, 0)],
                           [(1, 0, 0, 0)]).text() == "(s2 + s3)/(s1)"
    assert weight_function(1, -1).text() == "-1"
    assert weight_function(
        1, -2, [(1, 0, 0, 0)]).text() == "-2 * (s1)"
    assert weight_function(
        1, 1, [], [(1, 0, 0, 0)]).text() == "1/(s1)"


def test_weights_of():
    poly = (LaurentPoly.monomial(V1, V1.mono(t1=-1), 2)
            - LaurentPoly.monomial(V1, V1.mono(t2=1, t3=1)))
    got = weights_of(poly)
    assert got == [(1, (-1, 0, 0, 0)), (1, (-1, 0, 0, 0)),
                   (-1, (0, 1, 1, 0))]
    with pytest.raises(ZeroWeight):
        weights_of(LaurentPoly.one(V1) + poly)
    with pytest.raises(NonIntegerMultiplicity):
        weights_of(LaurentPoly.monomial(V1, V1.mono(t1=1),
                                        Fraction(1, 2)))


def test_euler_orientation():
    wf = euler_of_minus(1, [(1, (1, 0, 0, 0)), (-1, (0, 1, 1, 0))])
    assert wf.num == ((0, 1, 1, 0),)
    assert wf.den == ((1, 0, 0, 0),)


def test_contribution_character_oracles():
    wf = contribution(V1, BoxTuple((1,), (0,)), 0)
    assert wf == weight_function(1, 1, [(0, 1, 1, 0)], [(1, 0, 0, 0)])
    both = contribution(V1, BoxTuple((1,), (1,)), 0)
    assert both == weight_function(
        1, -1, [(0, 1, 1, 0), (2, 1, 1, 0)],
        [(1, 0, 0, 0), (1, 0, 0, 0)])


def test_contribution_rejects_unknown_mode():
    with pytest.raises(ModeUnavailable):
        contribution(V1, BoxTuple((1,), (0,)), 0, "series")
    with pytest.raises(VariableSetMismatch):
        contribution(V1, BoxTuple((1, 0), (0, 0)), 0)


def test_paper_equals_character_in_rank_one_untwisted_first_leg():
    for d in range(6):
        box = BoxTuple((d,), (0,))
        assert contribution(V1, box, 0, "paper") == contribution(
            V1, box, 0, "character")


def test_paper_differs_from_character_on_second_leg():
    box = BoxTuple((1,), (1,))
    a = contribution(V1, box, 0, "character")
    b = contribution(V1, box, 0, "paper")
    assert a != b
    # paper mode treats both legs as a single load
    assert b == weight_function(
        1, 1, [(0, -1, -1, 0), (1, -1, -1, 0)],
        [(-1, 0, 0, 0), (-2, 0, 0, 0)])


def test_paper_mode_rank_two_cross_terms():
    wf = contribution(V2, BoxTuple((1, 0), (0, 0)), 0, "paper")
    assert wf == weight_function(
        2, 1, [(0, -1, -1, -1, 1)], [(-1, 0, 0, 1, -1)])


def test_paper_mode_rank_three_cross_terms():
    wf = contribution(V3, BoxTuple((1, 0, 0), (0, 0, 0)), 0, "paper")
    assert wf == weight_function(
        3, 1, [(0, -1, -1, 0, 1, 1)], [(-1, 0, 0, 2, 1, 1)])


def test_paper_mode_denominator_can_vanish():
    with pytest.raises(DivisionByZero):
        contribution(V1, BoxTuple((1,), (0,)), -1, "paper")


def test_parse_specialization():
    spec = parse_specialization(1, "s3=-s1-s2, v1=1")
    assert len(spec.steps) == 2
    assert spec.steps[0].target == 2
    assert spec.steps[0].coeffs == (Fraction(-1), Fraction(-1),
                                    Fraction(0), Fraction(0))
    assert spec.steps[1].const == 1
    assert parse_specialization(1, None).is_trivial()
    assert parse_specialization(1, "  ").is_trivial()


def test_parse_specialization_errors():
    with pytest.raises(SpecializationSyntax):
        parse_specialization(1, "s1=s1+1")
    with pytest.raises(SpecializationSyntax):
        parse_specialization(1, "v2=1")
    with pytest.raises(SpecializationSyntax):
        parse_specialization(1, "s1=two")
    with pytest.raises(SpecializationSyntax):
        parse_specialization(1, "s1")
    with pytest.raises(SpecializationSyntax):
        parse_specialization(1, "s1=")


def test_specialize_form_applies_in_order():
    spec = parse_specialization(1, "s3=-s1-s2,s2=2*s1")
    const, vec = specialize_form(spec, (0, 0, 1, 0))
    assert const == 0
    assert vec == [Fraction(-3), Fraction(0), Fraction(0), Fraction(0)]


def test_specialize_weight_function():
    cy = parse_specialization(1, "s3=-s1-s2,v1=1")
    wf = weight_function(1, 1, [(0, 1, 1, 0)], [(1, 0, 0, 0)])
    assert specialize(wf, cy) == weight_function(1, -1)
    # a surviving linear factor
    wf2 = weight_function(1, 1, [(1, 1, 0, 0)], [(1, 0, 0, 0)])
    got = specialize(wf2, cy)
    assert got == weight_function(1, 1, [(1, 1, 0, 0)], [(1, 0, 0, 0)])


def test_specialize_error_paths():
    wf = weight_function(1, 1, [(1, 1, 0, 0)], [(1, 0, 0, 0)])
    with pytest.raises(AffineWeight):
        specialize(wf, parse_specialization(1, "s2=1"), "ctx")
    with pytest.raises(DivisionByZero) as err:
        specialize(wf, parse_specialization(1, "s1=0"), "box (1,)")
    assert "box (1,)" in str(err.value)
    num_kill = weight_function(1, 1, [(1, 0, 0, 0)])
    with pytest.raises(ZeroWeight):
        specialize(num_kill, parse_specialization(1, "s1=0"))


def test_full_numeric_specialization_matches_evaluation():
    rng = random.Random(31)
    for _ in range(50):
        forms = []
        for _ in range(rng.randint(1, 3)):
            vec = [rng.randint(-2, 2) for _ in range(4)]
            if any(vec):
                forms.append(tuple(vec))
        if not forms:
            continue
        point = [rng.randint(1, 7) for _ in range(4)]
        wf = weight_function(1, Fraction(rng.randint(1, 5)),
                             forms[:1], forms[1:])
        spec = parse_specialization(
            1, ",".join("%s=%d" % (n, point[i])
                        for i, n in enumerate(param_names(1))))
        try:
            collapsed = specialize(wf, spec)
        except (ZeroWeight, DivisionByZero):
            continue
        assert collapsed.num == () and collapsed.den == ()
        assert collapsed.scalar == wf.evaluate(point)


def test_specialize_commutes_with_multiplication():
    rng = random.Random(57)
    spec = parse_specialization(2, "s3=-s1-s2,v2=v1")
    made = 0
    while made < 40:
        def rand_wf():
            forms = [tuple(rng.randint(-2, 2) for _ in range(5))
                     for _ in range(3)]
            forms = [f for f in forms if any(f)]
            return weight_function(
                2, Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                forms[:1], forms[1:])
        a, b = rand_wf(), rand_wf()
        try:
            lhs = specialize(a * b, spec)
            rhs = specialize(a, spec) * specialize(b, spec)
        except (ZeroWeight, DivisionByZero):
            continue
        assert lhs == rhs
        made += 1


def test_contribution_scaling_balance_small_grid():
    rng = random.Random(90)
    for rank, vars in ((1, V1), (2, V2)):
        for total in range(4):
            for box in enumerate_fixed(rank, total):
                wf = contribution(vars, box, rng.choice((0, 1, 3)))
                assert len(wf.num) == len(wf.den)
