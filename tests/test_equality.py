"""Exact equality of weight sums and exact evaluation of weight functions.

``series.eq_weight_sum`` refuses a term of another rank, then tries to
disprove equality by integer evaluation at a few fixed points, each sum
added over the lcm of its terms' denominators, and only then expands
the canonical difference of the two sums, in integers, over its least
common denominator, so terms the sums share cancel first.
``WeightFunction.evaluate`` clears the point's denominators once and
works in integers.  Both are checked here against the slow roads kept
in ``tests/oracles.py``, against sympy where it is installed, and on
sums built so that evaluation cannot decide them: sums split into equal
but non-identical ones, whose equality only the integer expansion
proves.  ``weight_sum`` builds its terms without canonicalizing them
again; a property checks that they are already canonical.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hftvertex.fixedpoints import InvalidModel
from hftvertex.localize import (DivisionByZero, _value_parts, param_names,
                                parse_specialization, weight_function)
from hftvertex.series import (_evaluation_points, compare_rows,
                              eq_weight_sum, weight_sum)
from oracles import eq_weight_sum_expanded, evaluate_fraction

VERDICTS = ("character_equals_paper", "character_equals_closed_form")
OTHER = {"character_equals_paper": "paper",
         "character_equals_closed_form": "closed_form"}


def _check_rows_against(rank, rows, decide):
    for row in rows:
        for key in VERDICTS:
            want = decide(rank, row["character"], row[OTHER[key]])
            assert row[key] == want, (row["k"], key)


@pytest.mark.parametrize("twist", [0, 1, 2])
def test_rank_one_verdicts_match_full_expansion(twist):
    # coefficient k does not depend on the order, so order 5 covers
    # every verdict of the orders up to 5
    _check_rows_against(1, compare_rows(1, twist, 5), eq_weight_sum_expanded)


@pytest.mark.parametrize("twist", [0, 1])
@pytest.mark.parametrize("spec", [None, "s3=-s1-s2"])
def test_rank_two_verdicts_match_full_expansion(twist, spec):
    parsed = parse_specialization(2, spec) if spec else None
    _check_rows_against(2, compare_rows(2, twist, 2, parsed),
                        eq_weight_sum_expanded)


def _forms(rank, low=-3, high=3):
    return st.tuples(*[st.integers(low, high)] * (3 + rank)).filter(any)


@st.composite
def weight_functions(draw, rank, max_factors=4):
    scalar = draw(st.fractions(min_value=-5, max_value=5,
                               max_denominator=7))
    num = draw(st.lists(_forms(rank), max_size=max_factors))
    den = draw(st.lists(_forms(rank), max_size=max_factors))
    return weight_function(rank, scalar, num, den)


@settings(deadline=None)
@given(st.data())
def test_weight_sum_terms_are_canonical(data):
    # grouping reuses each term's factor data under the summed scalar;
    # sending every output term through weight_function changes nothing,
    # and the terms are sorted by distinct factor data
    rank = data.draw(st.integers(1, 2))
    items = data.draw(st.lists(weight_functions(rank, 2), max_size=6))
    scales = data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=len(items)))
    items += [wf.scaled(c) for wf, c in zip(items, scales)]
    total = weight_sum(rank, items)
    assert total == tuple(weight_function(rank, wf.scalar, wf.num, wf.den)
                          for wf in total)
    keys = [(wf.num, wf.den) for wf in total]
    assert keys == sorted(set(keys))


_COORDINATES = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12))


@settings(deadline=None)
@given(st.data())
def test_evaluate_matches_fraction_oracle(data):
    rank = data.draw(st.integers(1, 3))
    wf = data.draw(weight_functions(rank))
    point = data.draw(st.lists(_COORDINATES, min_size=3 + rank,
                               max_size=3 + rank))
    try:
        want = evaluate_fraction(wf, point)
    except DivisionByZero as err:
        with pytest.raises(DivisionByZero) as got:
            wf.evaluate(point)
        assert str(got.value) == str(err)
        return
    assert wf.evaluate(point) == want


@settings(deadline=None)
@given(st.data())
def test_eq_weight_sum_matches_full_expansion_on_random_sums(data):
    terms = st.lists(weight_functions(1, max_factors=2), max_size=3)
    a = weight_sum(1, data.draw(terms))
    b = weight_sum(1, data.draw(terms))
    assert eq_weight_sum(1, a, b) == eq_weight_sum_expanded(1, a, b)


def _partial_fraction_pair(rank, x, y, extra=()):
    """Two spellings of 1/(x*y) plus extra terms: as
    1/(x*(x+y)) + 1/(y*(x+y)), and as itself.  Also the second spelling
    with 1/(x*y) doubled, which is not equal to the first."""
    s = [a + b for a, b in zip(x, y)]
    split = weight_sum(rank, [weight_function(rank, 1, [], [x, s]),
                              weight_function(rank, 1, [], [y, s]),
                              *extra])
    whole = weight_sum(rank, [weight_function(rank, 1, [], [x, y]),
                              *extra])
    doubled = weight_sum(rank, [weight_function(rank, 2, [], [x, y]),
                                *extra])
    return split, whole, doubled


@settings(deadline=None)
@given(st.data())
def test_eq_weight_sum_proves_partial_fractions(data):
    rank = data.draw(st.integers(1, 2))
    x = data.draw(_forms(rank))
    y = data.draw(_forms(rank).filter(
        lambda y: any(a + b for a, b in zip(x, y))))
    extra = data.draw(st.lists(weight_functions(rank, max_factors=2),
                               max_size=2))
    split, whole, doubled = _partial_fraction_pair(rank, x, y, extra)
    assert eq_weight_sum(rank, split, whole)
    assert not eq_weight_sum(rank, split, doubled)
    # a repeated denominator factor: (x+y)/(x^2*y) = 1/(x*y) + 1/x^2
    s = [a + b for a, b in zip(x, y)]
    squared = weight_sum(rank, [weight_function(rank, 1, [s], [x, x, y]),
                                *extra])
    parts = weight_sum(rank, [weight_function(rank, 1, [], [x, y]),
                              weight_function(rank, 1, [], [x, x]),
                              *extra])
    assert eq_weight_sum(rank, squared, parts)
    assert not eq_weight_sum(rank, squared, whole)


@settings(deadline=None)
@given(st.data())
def test_eq_weight_sum_matches_full_expansion_on_shared_terms(data):
    # both sums carry the same terms, which cancel in the difference,
    # and differ by a partial fraction split, equal or perturbed
    rank = data.draw(st.integers(1, 2))
    x = data.draw(_forms(rank))
    y = data.draw(_forms(rank).filter(
        lambda y: any(a + b for a, b in zip(x, y))))
    shared = data.draw(st.lists(weight_functions(rank, max_factors=1),
                                max_size=2))
    split, whole, doubled = _partial_fraction_pair(rank, x, y, shared)
    b = data.draw(st.sampled_from([whole, doubled]))
    assert eq_weight_sum(rank, split, b) == \
        eq_weight_sum_expanded(rank, split, b) == (b is whole)


def test_value_parts_keeps_one_denominator_for_shared_forms():
    # 200 terms over the one form v1, whose value at the point is 10^12:
    # a running product of the denominators would have 2,401 digits
    point = _evaluation_points(1)[0]
    terms = [weight_function(1, k, [], [(0, 0, 0, 1)])
             for k in range(1, 201)]
    top, bottom = _value_parts(terms, point)
    assert bottom == 10**12
    assert top == sum(range(1, 201))


def test_eq_weight_sum_refuses_a_term_of_another_rank():
    # a rank two form (1, 0, 0, 0, 1) read at a rank one point would
    # lose its v2 entry, and the expansion would index past the end
    x, y = (1, 0, 0, 0, 1), (0, 1, 0, 0, 0)
    split, whole, doubled = _partial_fraction_pair(2, x, y)
    one = weight_sum(1, [weight_function(1, 1, [], [(1, 0, 0, 0)])])
    for a, b in ((split, whole), (split, doubled), (whole, whole),
                 (one, whole), (whole, one)):
        with pytest.raises(InvalidModel) as err:
            eq_weight_sum(1, a, b)
        assert str(err.value) == \
            "weight function of rank 2 in a sum of rank 1"


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _vanishing_form(rank):
    """A nonzero integer form that vanishes at every evaluation point:
    the points are three, so the signed 3x3 minors of their first four
    coordinates give one, with zeros after."""
    points = [p[:4] for p in _evaluation_points(rank)]
    return tuple([(-1) ** i * _det3([p[:i] + p[i + 1:] for p in points])
                  for i in range(4)] + [0] * (rank - 1))


def test_symbolic_step_decides_when_every_point_is_singular():
    points = _evaluation_points(1)
    assert len(points) == 3 and len(points[0]) == 4
    x = _vanishing_form(1)
    assert any(x)
    assert all(sum(a * b for a, b in zip(x, p)) == 0 for p in points)
    y = (0, 0, 0, 1)
    split, whole, doubled = _partial_fraction_pair(1, x, y)
    for p in points:
        for ws in (split, whole, doubled):
            assert _value_parts(ws, p)[1] == 0
    assert eq_weight_sum(1, split, whole)
    assert not eq_weight_sum(1, split, doubled)
    assert eq_weight_sum_expanded(1, split, whole)
    assert not eq_weight_sum_expanded(1, split, doubled)


def _sympy_value(sympy, rank, ws):
    """The value of a weight sum as a sympy expression, read off the
    stored scalars and integer forms."""
    params = sympy.symbols(param_names(rank))
    total = sympy.Integer(0)
    for wf in ws:
        term = sympy.Rational(wf.scalar.numerator, wf.scalar.denominator)
        for f in wf.num:
            term *= sympy.Add(*[c * p for c, p in zip(f, params)])
        for f in wf.den:
            term /= sympy.Add(*[c * p for c, p in zip(f, params)])
        total += term
    return total


@pytest.mark.parametrize("rank, order", [(2, 2), (1, 4)])
def test_verdicts_match_sympy(rank, order):
    sympy = pytest.importorskip("sympy")

    def decide(rank, a, b):
        diff = _sympy_value(sympy, rank, a) - _sympy_value(sympy, rank, b)
        return sympy.cancel(diff) == 0

    _check_rows_against(rank, compare_rows(rank, 0, order), decide)


@pytest.mark.parametrize("rank, order", [(3, 3), (2, 6)])
def test_higher_rank_verdict_pattern_within_budget(rank, order):
    budget = 10.0
    start = time.monotonic()
    rows = compare_rows(rank, 0, order)
    elapsed = time.monotonic() - start
    verdicts = [tuple(row[key] for key in VERDICTS) for row in rows]
    assert verdicts == [(True, True)] + [(False, False)] * order
    assert elapsed < budget, (
        "compare --rank %d --order %d exceeded its %.0fs budget: %.3fs"
        % (rank, order, budget, elapsed))


@st.composite
def _split_pairs(draw):
    """A weight sum of rank at most three, a second sum, and whether the
    two are equal.

    The second sum splits one term s*N/D of the first into s*N*f/(D*g)
    plus c*s*N*(g-f)/(D*g), for forms f and g with g - f nonzero, g
    perhaps a factor of D already.  With c = 1 the sums are equal and
    not identical, so they always reach the integer expansion; any other
    c makes them unequal.  Both sums may carry the extra term 1/x^2.
    When x vanishes at every evaluation point, no point decides even an
    unequal pair.  When x is g, the common denominator holds g^2, and
    the terms that differ between the sums are expanded with g and with
    g^2."""
    rank = draw(st.integers(1, 3))
    a = weight_sum(rank, draw(st.lists(weight_functions(rank, 2),
                                       min_size=1, max_size=3)))
    assume(a)
    i = draw(st.integers(0, len(a) - 1))
    wf = a[i]
    f = draw(_forms(rank))
    forms = _forms(rank)
    if wf.den:
        # g may repeat a denominator factor of the term
        forms |= st.sampled_from(wf.den)
    g = draw(forms.filter(lambda g: g != f))
    h = [y - x for x, y in zip(f, g)]
    equal = draw(st.booleans())
    c = 1 if equal else draw(st.sampled_from([2, -1, Fraction(1, 2)]))
    b = weight_sum(rank, [
        *a[:i], *a[i + 1:],
        weight_function(rank, wf.scalar, [*wf.num, f], [*wf.den, g]),
        weight_function(rank, c * wf.scalar, [*wf.num, h], [*wf.den, g])])
    assume(a != b)
    x = draw(st.sampled_from([None, _vanishing_form(rank), g]))
    if x:
        extra = weight_function(rank, 1, [], [x, x])
        a = weight_sum(rank, [*a, extra])
        b = weight_sum(rank, [*b, extra])
    return rank, a, b, equal


@settings(deadline=None)
@given(_split_pairs())
def test_integer_expansion_matches_the_ring_on_split_sums(pair):
    rank, a, b, equal = pair
    assert eq_weight_sum(rank, a, b) == equal
    assert eq_weight_sum(rank, b, a) == equal
    # the oracle expands over the product of every denominator factor,
    # which takes seconds past a few of them
    if sum(len(wf.den) for wf in (*a, *b)) <= 8:
        assert eq_weight_sum_expanded(rank, a, b) == equal


@settings(deadline=None, max_examples=15)
@given(_split_pairs())
def test_integer_expansion_matches_sympy_on_split_sums(pair):
    sympy = pytest.importorskip("sympy")
    rank, a, b, equal = pair
    diff = _sympy_value(sympy, rank, a) - _sympy_value(sympy, rank, b)
    assert (sympy.cancel(diff) == 0) == equal
    assert eq_weight_sum(rank, a, b) == equal
