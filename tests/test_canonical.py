"""The integer canonical form of weight functions against the first,
``Fraction`` road kept in ``tests/oracles.py``.

``localize.weight_function`` clears, divides and signs each form in
integers and folds the scales into the scalar in one exact division;
``weight_function_fraction`` does it one ``Fraction`` at a time.  They
must build the same instance, raise the same errors, and the instance
must not depend on how each input form is scaled.  Products and
rescalings of canonical instances skip the canonicalization and must
give what it gives.  ``form_text`` prints the coefficients it is given
and must read like the ``Fraction`` rendering.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hftvertex.chars import VariableSet
from hftvertex.fixedpoints import enumerate_fixed
from hftvertex.localize import (contribution, form_text, weight_function,
                                weights_of)
from hftvertex.vertexchar import total_character
from oracles import form_text_fraction, weight_function_fraction

FRACTIONS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
ENTRIES = st.one_of(st.integers(-4, 4), FRACTIONS)
NONZERO = FRACTIONS.filter(bool)
SCALARS = st.one_of(st.integers(-5, 5), FRACTIONS)
CONTEXTS = st.sampled_from([None, "", "contribution of a test point"])


def _forms(rank):
    return st.tuples(*[ENTRIES] * (3 + rank)).filter(any)


def _times(lam, form):
    return tuple(lam * x for x in form)


@st.composite
def _inputs(draw, rank, shared=True):
    """A scalar and numerator and denominator form lists; with
    ``shared``, some forms also appear, rescaled, on the other side."""
    num = draw(st.lists(_forms(rank), max_size=5))
    den = draw(st.lists(_forms(rank), max_size=5))
    if shared:
        for f in draw(st.lists(_forms(rank), max_size=3)):
            num.insert(draw(st.integers(0, len(num))), f)
            den.insert(draw(st.integers(0, len(den))),
                       _times(draw(NONZERO), f))
    return draw(SCALARS), num, den


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as err:  # the error itself is the outcome compared
        return type(err), str(err)


@settings(deadline=None)
@given(st.data())
def test_integer_canonical_form_matches_fraction_oracle(data):
    rank = data.draw(st.integers(1, 3))
    scalar, num, den = data.draw(_inputs(rank))
    context = data.draw(CONTEXTS)
    got = weight_function(rank, scalar, num, den, context)
    want = weight_function_fraction(rank, scalar, num, den, context)
    assert got == want
    assert got.text() == want.text()
    assert type(got.scalar) is Fraction
    assert all(type(x) is int for f in got.num + got.den for x in f)


@settings(deadline=None)
@given(st.data())
def test_bad_forms_raise_as_the_oracle_does(data):
    rank = data.draw(st.integers(1, 3))
    scalar, num, den = data.draw(_inputs(rank, shared=False))
    length = data.draw(st.sampled_from([3 + rank, 2 + rank, 4 + rank]))
    bad = (data.draw(st.sampled_from([0, Fraction(0)])),) * length
    if length != 3 + rank:
        bad = data.draw(st.tuples(*[ENTRIES] * length))
    side = num if data.draw(st.booleans()) else den
    side.insert(data.draw(st.integers(0, len(side))), bad)
    context = data.draw(CONTEXTS)
    got = _outcome(weight_function, rank, scalar, num, den, context)
    want = _outcome(weight_function_fraction, rank, scalar, num, den, context)
    assert got == want
    # a zero scalar short-cuts every check; otherwise the bad form raises
    assert isinstance(got, tuple) == bool(scalar)


@settings(deadline=None)
@given(st.data())
def test_rescaled_forms_give_the_identical_instance(data):
    # multiplying a numerator form by lam and dividing the scalar by lam,
    # or a denominator form by lam and the scalar by 1/lam, keeps the
    # value; the canonical instance must not change either, whatever the
    # order of the forms
    rank = data.draw(st.integers(1, 3))
    scalar, num, den = data.draw(_inputs(rank))
    new_scalar = Fraction(scalar)
    new_num, new_den = [], []
    for f in num:
        lam = data.draw(NONZERO)
        new_num.append(_times(lam, f))
        new_scalar /= lam
    for f in den:
        lam = data.draw(NONZERO)
        new_den.append(_times(lam, f))
        new_scalar *= lam
    new_num = data.draw(st.permutations(new_num))
    new_den = data.draw(st.permutations(new_den))
    assert (weight_function(rank, new_scalar, new_num, new_den)
            == weight_function(rank, scalar, num, den))


@settings(deadline=None)
@given(st.data())
def test_products_and_rescalings_match_the_canonicalization(data):
    # a * b and a.scaled(c) compose the canonical forms without
    # rescaling them; they must equal the canonical form of the
    # concatenated factors, shared factors and zero scalars included
    rank = data.draw(st.integers(1, 3))
    scalar_a, num_a, den_a = data.draw(_inputs(rank))
    scalar_b, num_b, den_b = data.draw(_inputs(rank))
    a = weight_function(rank, scalar_a, num_a, den_a)
    b = weight_function(rank, scalar_b, num_b, den_b)
    assert a * b == weight_function(rank, Fraction(scalar_a) * scalar_b,
                                    num_a + num_b, den_a + den_b)
    # factors of one side that cancel against the other side
    swapped = weight_function(rank, scalar_b, den_a + num_b, num_a + den_b)
    assert a * swapped == weight_function(
        rank, Fraction(scalar_a) * scalar_b, num_a + den_a + num_b,
        den_a + num_a + den_b)
    c = data.draw(SCALARS)
    assert a.scaled(c) == weight_function(rank, Fraction(scalar_a) * c,
                                          num_a, den_a)
    assert type((a * b).scalar) is type(a.scaled(c).scalar) is Fraction


def test_contributions_match_fraction_oracle():
    for rank in (1, 2, 3):
        vars = VariableSet(rank)
        for total in range(4 if rank < 3 else 3):
            for box in enumerate_fixed(rank, total):
                for twist in (0, 1, 2):
                    weights = weights_of(total_character(vars, box, twist))
                    want = weight_function_fraction(
                        rank, 1, [f for s, f in weights if s < 0],
                        [f for s, f in weights if s > 0])
                    assert contribution(vars, box, twist) == want


@settings(deadline=None)
@given(st.data())
def test_form_text_matches_fraction_rendering(data):
    rank = data.draw(st.integers(1, 3))
    form = data.draw(st.tuples(*[ENTRIES] * (3 + rank)))
    assert form_text(rank, form) == form_text_fraction(rank, form)
    ints = data.draw(st.tuples(*[st.integers(-4, 4)] * (3 + rank)))
    as_fractions = tuple(Fraction(x) for x in ints)
    assert form_text(rank, ints) == form_text(rank, as_fractions)
    assert form_text(rank, ints) == form_text_fraction(rank, ints)


def test_form_text_examples():
    half = (Fraction(-1, 2), 0, 0, 0)
    assert form_text(1, half) == form_text_fraction(1, half) == "-1/2*s1"
    for form, text in (((2, -1, 0, 1), "2*s1 - s2 + v1"),
                       ((0, 0, 0, 0), "0"),
                       ((-1, 0, 3, -1), "-s1 + 3*s3 - v1"),
                       ((Fraction(3, 1), Fraction(-3, 2), 0, Fraction(1)),
                        "3*s1 - 3/2*s2 + v1")):
        assert form_text(1, form) == form_text_fraction(1, form) == text
