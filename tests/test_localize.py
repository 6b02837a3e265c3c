"""Tests for weights, Euler class contributions, and specialization."""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hftvertex.chars import (HftError, LaurentPoly, VariableSet,
                             VariableSetMismatch)
from hftvertex.fixedpoints import BoxTuple, enumerate_fixed
from hftvertex.localize import (AffineWeight, DivisionByZero,
                                InexactWeight, ModeUnavailable,
                                NonIntegerMultiplicity, SpecializationSyntax,
                                WeightFunction, ZeroWeight, contribution,
                                form_text, param_names, parse_specialization,
                                specialize, weight_function, weights_of)
from oracles import euler_of_minus, specialize_stepwise, ws_to_json

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


def test_weight_function_repr_is_its_text_and_mul_takes_no_number():
    wf = weight_function(1, Fraction(-3, 2), [(0, 1, 1, 0)], [(1, 0, 0, 0)])
    assert repr(wf) == wf.text() == "-3/2 * (s2 + s3)/(s1)"
    assert wf.__mul__(2) is NotImplemented
    with pytest.raises(TypeError):
        wf * 2


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


def test_weight_function_refuses_inexact_entries():
    # a float entry ended in a bare AttributeError from the clearing of
    # Fraction entries
    for num, den, context, named in (
            ([(1.5, 0, 0, 0)], [], None, "form (1.5, 0, 0, 0) has"),
            ([(Fraction(1, 2), 0.5, 0, 0)], [], None,
             "form (Fraction(1, 2), 0.5, 0, 0) has"),
            ([(1, 0, 0, 0)], [(1, 1.0, 0, 0)], "a factor",
             "form (1, 1.0, 0, 0) in a factor has"),
            ([("1", 0, 0, 0)], [], None, "form ('1', 0, 0, 0) has")):
        with pytest.raises(InexactWeight) as err:
            weight_function(1, 1, num, den, context)
        assert str(err.value) == named + (
            " an entry that is neither an integer nor a Fraction")
        assert isinstance(err.value, HftError)


def test_weight_function_arithmetic():
    a = weight_function(1, 2, [(0, 1, 1, 0)], [(1, 0, 0, 0)])
    b = weight_function(1, 3, [(1, 0, 0, 0)], [(0, 0, 1, 0)])
    prod = a * b
    assert prod.scalar == 6
    assert prod.num == ((0, 1, 1, 0),)
    assert prod.den == ((0, 0, 1, 0),)
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
    data = ws_to_json((wf,))
    assert data == {"scalar": "-3/4", "num": [[0, 1, 1, 0]],
                    "den": [[1, 0, 0, 0], [1, 0, 0, 0]]}


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


def _image(spec, form):
    """The constant part, then the linear part, of the specialized form,
    read off the compiled columns."""
    return [Fraction(sum(map(mul, form, col)), spec.denominator)
            for col in spec.columns]


def test_parse_specialization():
    spec = parse_specialization(1, "s3=-s1-s2, v1=1")
    assert spec.source == "s3=-s1-s2, v1=1"
    assert spec.denominator == 1
    # s3 goes to -s1 - s2 and v1 to the constant 1
    assert _image(spec, (0, 0, 1, 0)) == [0, -1, -1, 0, 0]
    assert _image(spec, (0, 0, 0, 1)) == [1, 0, 0, 0, 0]
    assert _image(spec, (1, 1, 0, 0)) == [0, 1, 1, 0, 0]
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
    for text in ("s1=1/0", "s1=1/0*s2", "s1=0/0"):
        with pytest.raises(SpecializationSyntax):
            parse_specialization(1, text)


def test_parse_specialization_refuses_a_repeated_target():
    # the first assignment substitutes its target away, so a second one
    # would act on nothing
    for text in ("s1=1,s1=2", "s1=s2, v1=0, s1 =s3", "v2=v1,v2=v1"):
        with pytest.raises(SpecializationSyntax,
                           match="is assigned more than once"):
            parse_specialization(2, text)
    # a target may still appear on a later right hand side
    spec = parse_specialization(1, "s1=s2,s2=2*s3")
    assert _image(spec, (1, 0, 0, 0)) == [0, 0, 0, 2, 0]


def test_specialization_applies_in_order():
    spec = parse_specialization(1, "s3=-s1-s2,s2=2*s1")
    assert _image(spec, (0, 0, 1, 0)) == [0, -3, 0, 0, 0]
    wf = weight_function(1, 1, [(0, 0, 1, 0)])
    assert specialize(wf, spec) == weight_function(1, 1, [(-3, 0, 0, 0)])
    text = "s1=1/2*s2-1/3*v1,s2=-3*s3+2/3"
    spec = parse_specialization(1, text)
    assert spec.denominator == 6
    assert _image(spec, (6, 1, 0, 0)) == [Fraction(8, 3), 0, 0, -12, -2]
    wf = weight_function(1, 1, [(6, 1, 0, 0)])
    with pytest.raises(AffineWeight, match="6\\*s1 \\+ s2"):
        specialize(wf, spec)
    # with the linear part sent to zero, only the constant is left
    spec = parse_specialization(1, text + ",s3=0,v1=0")
    assert specialize(wf, spec) == weight_function(1, Fraction(8, 3))


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
    with pytest.raises(VariableSetMismatch, match="specialization of rank 2"):
        specialize(wf, parse_specialization(2, "s1=1"))


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


_COEFFS = (-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2)


def _targets(text):
    """The parameters an assignment list assigns."""
    return {piece.partition("=")[0].strip() for piece in text.split(",")}


@st.composite
def _assignments(draw, rank, taken=()):
    """A constant free assignment list such as ``v1=s3,s2=-1/2*s1+v1``,
    whose targets are distinct and not in ``taken``."""
    names = param_names(rank)
    targets = draw(st.lists(st.sampled_from(
        [n for n in names if n not in taken]), min_size=1, max_size=2,
        unique=True))
    pieces = []
    for target in targets:
        used = draw(st.lists(st.sampled_from(
            [n for n in names if n != target]), min_size=1, max_size=3,
            unique=True))
        rhs = ""
        for name in used:
            c = draw(st.sampled_from(_COEFFS))
            rhs += ("-" if c < 0 else "+") + (
                name if abs(c) == 1 else "%s*%s" % (abs(c), name))
        pieces.append("%s=%s" % (target, rhs.lstrip("+")))
    return ",".join(pieces)


def _outcome(run):
    """The value of ``run()``, or the class of the error it raises."""
    try:
        return run()
    except HftError as err:
        return type(err)


@st.composite
def _compose_cases(draw):
    """A contribution and two assignment lists with distinct targets."""
    rank = draw(st.integers(1, 3))
    box = draw(st.sampled_from(enumerate_fixed(rank, draw(st.integers(1, 3)))))
    twist = draw(st.integers(0, 2))
    a = draw(_assignments(rank))
    return rank, box, twist, a, draw(_assignments(rank, _targets(a)))


@settings(max_examples=300, deadline=None)
@given(_compose_cases())
@example((1, BoxTuple((0,), (1,)), 0, "s1=-2*v1+2*s2,v1=s2",
          "s2=-2*s1,s3=2*s1"))
def test_specializations_compose(case):
    """Specializing by A and then by B equals specializing once by the
    joined list "A,B" wherever the joined list succeeds, and where the
    two steps refuse, the joined list refuses with the same error class.

    The targets are distinct within A and B and across them, since a
    list that assigns one parameter twice is refused.

    The joined list may refuse more, always with ``ZeroWeight``.  A
    specialization applies to the function on the whole subspace at once
    (README, "Joined specializations"), and numerator factors are
    checked first.  The first step canonicalizes, so a numerator and a
    denominator factor that A makes proportional cancel, and B cannot
    kill them any more; the joined list specializes every factor of the
    contribution through A and B and refuses the 0/0 as ``ZeroWeight``.
    So the two steps may succeed, or refuse a denominator with
    ``DivisionByZero``, where the joined list kills a numerator.  At
    rank one, box ((0,), (1,)), twist 0, the contribution is
    -(2*s1 + s2 + s3)/s1, which is 0/0 on the line s1=0, s2=-s3, v1=s3:
    ``s2=-s3,s1=s3-v1`` makes it -2, and ``v1=s3`` after it keeps -2,
    while ``s2=-s3+s1,v1=s3`` makes it -3, so the function has no value
    on that line, and the joined list raises ``ZeroWeight``.  The pinned
    example is the second kind: A alone kills the denominator s1, so the
    steps stop with ``DivisionByZero``, while the joined list kills the
    numerator 2*s1 + s2 + s3 as well and reports it first.
    """
    rank, box, twist, a, b = case
    wf = contribution(VariableSet(rank), box, twist)
    stepwise = _outcome(lambda: specialize(
        specialize(wf, parse_specialization(rank, a)),
        parse_specialization(rank, b)))
    joined = _outcome(lambda: specialize(
        wf, parse_specialization(rank, a + "," + b)))
    if isinstance(joined, WeightFunction):
        assert stepwise == joined
    elif isinstance(stepwise, WeightFunction):
        assert joined is ZeroWeight
    elif stepwise is DivisionByZero:
        assert joined in (DivisionByZero, ZeroWeight)
    else:
        assert joined is stepwise


_RATIONALS = ("1", "2", "1/2", "1/3", "2/3", "3/2")


@st.composite
def _affine_assignments(draw, rank, taken=()):
    """An assignment list with signed rational coefficients and
    constants, such as ``s1=1/2*s2-1/3*v1,v1=2/3``, whose targets are
    distinct and not in ``taken``."""
    names = param_names(rank)
    targets = draw(st.lists(st.sampled_from(
        [n for n in names if n not in taken]), min_size=1, max_size=3,
        unique=True))
    pieces = []
    for target in targets:
        used = draw(st.lists(st.sampled_from(
            [n for n in names if n != target]), max_size=3, unique=True))
        terms = ["%s*%s" % (draw(st.sampled_from(_RATIONALS)), name)
                 for name in used]
        if not terms or not draw(st.integers(0, 3)):
            terms.append(draw(st.sampled_from(_RATIONALS + ("0",))))
        rhs = "".join(draw(st.sampled_from("+-")) + t for t in terms)
        pieces.append("%s=%s" % (target, rhs))
    return ",".join(pieces)


def _value_or_error(run):
    try:
        return run()
    except HftError as err:  # the error itself is the outcome compared
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_specialize_matches_stepwise_oracle(data):
    """The compiled integer map gives the value, or the error class and
    message, of the assignments applied one ``Fraction`` step at a
    time."""
    rank = data.draw(st.integers(1, 3))
    entries = st.integers(-2, 2)
    forms = st.tuples(*[entries] * (3 + rank)).filter(any)
    wf = weight_function(rank, data.draw(st.builds(
        Fraction, st.integers(-6, 6), st.integers(1, 4))),
        data.draw(st.lists(forms, max_size=4)),
        data.draw(st.lists(forms, max_size=4)))
    factors = wf.num + wf.den
    if factors and data.draw(st.booleans()):
        # an assignment that sends one factor to zero, placed anywhere;
        # a canonical form leads with a positive entry f[t]
        f = data.draw(st.sampled_from(factors))
        t = next(i for i, c in enumerate(f) if c)
        kill = "%s=%s" % (param_names(rank)[t], "".join(
            "%+d/%d*%s" % (-c, f[t], name)
            for i, (c, name) in enumerate(zip(f, param_names(rank)))
            if c and i != t) or "0")
        text = data.draw(_affine_assignments(rank, _targets(kill)))
        pieces = text.split(",")
        pieces.insert(data.draw(st.integers(0, len(pieces))), kill)
        text = ",".join(pieces)
    else:
        text = data.draw(_affine_assignments(rank))
    spec = parse_specialization(rank, text)
    context = data.draw(st.sampled_from([None, "ctx (1,)"]))
    got = _value_or_error(lambda: specialize(wf, spec, context))
    assert got == _value_or_error(
        lambda: specialize_stepwise(wf, spec, context))


def test_contribution_scaling_balance_small_grid():
    rng = random.Random(90)
    for rank, vars in ((1, V1), (2, V2)):
        for total in range(4):
            for box in enumerate_fixed(rank, total):
                wf = contribution(vars, box, rng.choice((0, 1, 3)))
                assert len(wf.num) == len(wf.den)
