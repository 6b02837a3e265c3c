"""Tests for the exact character arithmetic layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hftvertex.chars import (CharError, HftError, LaurentPoly,
                             NotPolynomial, RationalCharacter, VariableSet,
                             VariableSetMismatch, ZeroDenominator,
                             divide_one_minus, grlex_key, monomial_text,
                             one_minus)
from oracles import (InvalidReplacement, char_substituted, eq_rational,
                     poly_substituted)

V1 = VariableSet(1)
V2 = VariableSet(2)


def rand_poly(rng, vars, nterms=4, spread=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exps = tuple(rng.randint(-spread, spread)
                     for _ in range(vars.nvars))
        terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return LaurentPoly(vars, terms)


def test_variable_set_basics():
    assert V2.names == ("t1", "t2", "t3", "w1", "w2")
    assert V2.nvars == 5
    assert V2.unit() == (0, 0, 0, 0, 0)
    assert V2.mono(t1=2, w=(1, -1)) == (2, 0, 0, 1, -1)
    assert V2.mono(w=(3,)) == (0, 0, 0, 3, 0)
    assert V1 == VariableSet(1)
    assert V1 != V2
    assert hash(V1) == hash(VariableSet(1))
    with pytest.raises(VariableSetMismatch):
        V1.mono(w=(1, 2))
    for rank in (-1, 2.5, True, "2"):
        with pytest.raises(ValueError):
            VariableSet(rank)
    # a power that is not an int is refused, never truncated to one
    for powers in ({"t1": 1.5, "w": (True, 0.9)}, {"t2": True},
                   {"t3": 2.0}, {"w": (1, Fraction(1, 2))}, {"t1": "1"}):
        with pytest.raises(ValueError):
            V2.mono(**powers)


def test_grlex_key_orders_by_degree_then_tuple():
    exps = [(1, 0, 0, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, 0, 0, 0),
            (2, -1, 0, 0)]
    ordered = sorted(exps, key=grlex_key)
    assert ordered == [(-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1),
                       (1, 0, 0, 0), (2, -1, 0, 0)]


def test_monomial_text():
    assert monomial_text(V1, V1.unit()) == "1"
    assert monomial_text(V1, V1.mono(t1=2, t2=1)) == "t1^2*t2"
    assert monomial_text(V1, V1.mono(t1=-1, w=(1,))) == "t1^-1*w1"


def test_poly_construction_drops_zeros():
    p = LaurentPoly(V1, {V1.mono(t1=1): Fraction(1),
                         V1.mono(t2=1): Fraction(0)})
    assert p.terms == {V1.mono(t1=1): Fraction(1)}
    q = LaurentPoly(V1, {V1.mono(t1=1): 1}) - LaurentPoly(
        V1, {V1.mono(t1=1): 1})
    assert q.is_zero()


def test_poly_text_oracles():
    p = (LaurentPoly.monomial(V1, V1.mono(t1=-1))
         + 1
         - LaurentPoly.monomial(V1, V1.mono(t1=1), Fraction(3, 2)))
    assert p.text() == "t1^-1 + 1 - 3/2*t1"
    assert LaurentPoly.zero(V1).text() == "0"
    assert LaurentPoly.constant(V1, -2).text() == "-2"


def test_poly_arithmetic_oracles():
    t = LaurentPoly.monomial(V1, V1.mono(t1=1))
    p = (1 + t) * (1 - t)
    assert p == 1 - t * t
    assert (2 * t).coefficient(V1.mono(t1=1)) == 2
    assert (t * t.bar()).constant_term == 1
    shifted = p.times_monomial(V1.mono(t2=-1), Fraction(1, 2))
    assert shifted.coefficient(V1.mono(t2=-1)) == Fraction(1, 2)
    assert shifted.coefficient(V1.mono(t1=2, t2=-1)) == Fraction(-1, 2)


def _polys(vars):
    """Laurent polynomials with at most four terms, exponents in [-3, 3]
    and small rational coefficients."""
    exps = st.tuples(*[st.integers(-3, 3)] * vars.nvars)
    coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda terms: LaurentPoly(vars, terms))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_poly_ring_axioms(data):
    vars = VariableSet(data.draw(st.integers(1, 2)))
    a, b, c = (data.draw(_polys(vars)) for _ in range(3))
    zero = LaurentPoly.zero(vars)
    one = LaurentPoly.one(vars)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a - a == zero
    # bar is an involutive ring map
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()
    assert one.bar() == one


def test_poly_cross_rank_mismatch():
    with pytest.raises(VariableSetMismatch):
        LaurentPoly.one(V1) + LaurentPoly.one(V2)
    with pytest.raises(VariableSetMismatch):
        LaurentPoly(V1, {V2.unit(): 1})


def test_poly_refuses_non_integer_exponents():
    for exps in ((1.5, 0, 0, 0), (True, 0, 0, 0), (0, 0, 0, 0.9),
                 (0, Fraction(2), 0, 0)):
        with pytest.raises(ValueError):
            LaurentPoly(V1, {exps: 1})
    assert LaurentPoly(V1, {(2, 0, -1, 1): 3}).terms == {
        (2, 0, -1, 1): Fraction(3)}


def test_divide_one_minus_oracles():
    t = V1.mono(t1=1)
    p = one_minus(V1, V1.mono(t1=3))
    q = divide_one_minus(p, t)
    assert q == (1 + LaurentPoly.monomial(V1, t)
                 + LaurentPoly.monomial(V1, V1.mono(t1=2)))
    p2 = LaurentPoly.monomial(V1, V1.mono(t1=-1)) - 1
    assert divide_one_minus(p2, t) == LaurentPoly.monomial(
        V1, V1.mono(t1=-1))
    p3 = one_minus(V1, V1.mono(t1=-2))
    assert divide_one_minus(p3, V1.mono(t1=-1)) == 1 + LaurentPoly.monomial(
        V1, V1.mono(t1=-1))


def test_divide_one_minus_handles_gaps():
    t = V1.mono(t1=1)
    t2 = LaurentPoly.monomial(V1, V1.mono(t1=2))
    dividend = one_minus(V1, t) * (1 + t2)
    assert divide_one_minus(dividend, t) == 1 + t2


def test_divide_one_minus_errors():
    t = V1.mono(t1=1)
    with pytest.raises(NotPolynomial):
        divide_one_minus(LaurentPoly.one(V1), t)
    with pytest.raises(ZeroDenominator):
        divide_one_minus(LaurentPoly.one(V1), V1.unit())
    with pytest.raises(VariableSetMismatch):
        divide_one_minus(LaurentPoly.one(V1), (1, 0, 0, 0, 0))


def test_divide_one_minus_random_roundtrip():
    rng = random.Random(101)
    for _ in range(300):
        vars = V2 if rng.random() < 0.5 else V1
        p = rand_poly(rng, vars)
        m = tuple(rng.randint(-2, 2) for _ in range(vars.nvars))
        if not any(m):
            continue
        product = p * one_minus(vars, m)
        assert divide_one_minus(product, m) == p


def test_substitution_is_a_ring_map():
    rng = random.Random(202)
    for _ in range(200):
        vars = V2
        f = rand_poly(rng, vars)
        g = rand_poly(rng, vars)
        images = {}
        for idx in range(vars.nvars):
            if rng.random() < 0.6:
                images[idx] = (rng.choice((1, -1)),
                               tuple(rng.randint(-2, 2)
                                     for _ in range(vars.nvars)))
        assert poly_substituted(f * g, images) == (
            poly_substituted(f, images) * poly_substituted(g, images))
        assert poly_substituted(f + g, images) == (
            poly_substituted(f, images) + poly_substituted(g, images))


def test_substitution_rejects_bad_images():
    p = LaurentPoly.one(V1)
    with pytest.raises(InvalidReplacement):
        poly_substituted(p, {0: (2, V1.unit())})
    with pytest.raises(InvalidReplacement):
        poly_substituted(p, {0: (1, (0, 0))})
    with pytest.raises(InvalidReplacement):
        poly_substituted(p, {9: (1, V1.unit())})


def test_bar_is_an_involution_and_inverts_frames():
    rng = random.Random(303)
    for _ in range(100):
        p = rand_poly(rng, V2)
        assert p.bar().bar() == p
    w = LaurentPoly.monomial(V2, V2.mono(w=(1, 0)))
    assert w.bar() == LaurentPoly.monomial(V2, V2.mono(w=(-1, 0)))


def test_rational_character_normalizes_cancelling_factors():
    t = V1.mono(t1=1)
    rc = RationalCharacter(V1, one_minus(V1, V1.mono(t1=3)), (t,))
    norm = rc.normalized()
    assert norm.den == ()
    assert norm.num == divide_one_minus(one_minus(V1, V1.mono(t1=3)), t)


def test_zero_numerator_clears_denominator():
    rc = RationalCharacter(V1, LaurentPoly.zero(V1), (V1.mono(t1=1),))
    assert rc.den == ()
    assert rc.is_zero()


def test_unit_denominator_factor_rejected():
    with pytest.raises(ZeroDenominator):
        RationalCharacter(V1, LaurentPoly.one(V1), (V1.unit(),))


def test_delta_identity_is_exactly_zero():
    t = V1.mono(t1=1)
    tinv = V1.mono(t1=-1)
    rc = (RationalCharacter(V1, LaurentPoly.one(V1), (t,))
          + RationalCharacter(V1, LaurentPoly.monomial(V1, tinv), (tinv,)))
    assert rc.is_zero()


def test_pole_flip_identity():
    # 1/(1-t^-1) == -t/(1-t)
    t = V1.mono(t1=1)
    tinv = V1.mono(t1=-1)
    a = RationalCharacter(V1, LaurentPoly.one(V1), (tinv,))
    b = RationalCharacter(V1, -LaurentPoly.monomial(V1, t), (t,))
    assert eq_rational(a, b)


def test_rc_substituted_with_negative_signs():
    w = V1.mono(w=(1,))
    rc = RationalCharacter(V1, LaurentPoly.one(V1), (w,))
    flipped = char_substituted(rc, {3: (-1, w)})
    assert flipped.num == one_minus(V1, w)
    assert flipped.den == (V1.mono(w=(2,)),)
    halved = char_substituted(rc, {3: (-1, V1.unit())})
    assert halved.num == LaurentPoly.constant(V1, Fraction(1, 2))
    assert halved.den == ()
    with pytest.raises(ZeroDenominator):
        char_substituted(rc, {3: (1, V1.unit())})


def test_rc_reduced_raises_on_true_pole():
    rc = RationalCharacter(V1, LaurentPoly.one(V1), (V1.mono(t1=1),))
    with pytest.raises(NotPolynomial):
        rc.reduced()


def test_rc_arithmetic_preserves_value():
    rng = random.Random(404)
    for _ in range(150):
        vars = V1
        num_a = rand_poly(rng, vars, nterms=3, spread=2)
        num_b = rand_poly(rng, vars, nterms=3, spread=2)
        dens = [vars.mono(t1=1), vars.mono(t2=1), vars.mono(t1=-1),
                vars.mono(t1=1, t2=1)]
        a = RationalCharacter(vars, num_a,
                              [rng.choice(dens) for _ in range(2)])
        b = RationalCharacter(vars, num_b, [rng.choice(dens)])
        total = a + b
        # cross multiplied check of the addition
        lhs_num = a.num
        for m in b.den:
            lhs_num = lhs_num * one_minus(vars, m)
        rhs_num = b.num
        for m in a.den:
            rhs_num = rhs_num * one_minus(vars, m)
        direct = RationalCharacter(vars, lhs_num + rhs_num,
                                   a.den + b.den)
        assert eq_rational(total, direct)
        assert eq_rational(a.normalized(), a)
        assert eq_rational(a * b, b * a)


def test_rc_bar_involution():
    rng = random.Random(505)
    for _ in range(100):
        num = rand_poly(rng, V2, nterms=3, spread=2)
        den = [V2.mono(t1=1), V2.mono(t2=1, w=(1, 0))]
        rc = RationalCharacter(V2, num, den)
        assert eq_rational(rc.bar().bar(), rc)


def test_rc_text_oracle():
    rc = RationalCharacter(
        V1, LaurentPoly.monomial(V1, V1.mono(t2=-1))
        + LaurentPoly.monomial(V1, V1.mono(t3=-1)),
        (V1.mono(t1=1),))
    assert rc.text() == "(t2^-1 + t3^-1)/((1-t1))"


def test_error_hierarchy():
    assert issubclass(CharError, HftError)
    for err in (VariableSetMismatch, NotPolynomial, InvalidReplacement,
                ZeroDenominator):
        assert issubclass(err, CharError)
