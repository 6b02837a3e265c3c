"""Tests for series assembly, binomial closed forms, and partitions."""

import itertools
import json
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hftvertex.chars import HftError, VariableSet
from hftvertex.cli import _ws_text, main
from hftvertex.fixedpoints import BoxTuple, InvalidModel
from hftvertex.localize import (DivisionByZero, ModeUnavailable,
                                _exchanged, _wf_text, contribution,
                                parse_specialization, specialize,
                                weight_function)
from hftvertex.series import (BinomialIneligible, InvalidCounts,
                              _ws_product, assemble_vertex, binomial_series,
                              closed_form_series, compare_rows,
                              eq_weight_sum, hft_partition, one_leg_exponent,
                              power, reference_series, weight_sum, ws_unit)
from oracles import (binomial_series_by_products, binomiality_test,
                     brute_partition, exchanged_canonicalized, leg_strata,
                     partition_convolved, series_mul, weight_sum_grouped,
                     wf_text_reference, ws_mul, ws_text, ws_to_json)
from test_localize import _affine_assignments, _value_or_error


def wf1(scalar, num=(), den=()):
    return weight_function(1, scalar, num, den)


def test_weight_sum_groups_and_cancels():
    a = wf1(2, [(0, 1, 1, 0)], [(1, 0, 0, 0)])
    b = wf1(3, [(0, 2, 2, 0)], [(1, 0, 0, 0)])
    merged = weight_sum(1, [a, b])
    assert merged == (wf1(8, [(0, 1, 1, 0)], [(1, 0, 0, 0)]),)
    assert weight_sum(1, [a, a.scaled(-1)]) == ()
    with pytest.raises(InvalidModel):
        weight_sum(1, [weight_function(2, 1)])


def test_weight_sum_sorts():
    a = wf1(1, [(1, 0, 0, 0)])
    b = wf1(1, [(0, 1, 0, 0)])
    assert weight_sum(1, [a, b]) == weight_sum(1, [b, a])


SCALARS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _forms(rank):
    """Forms with small entries, so that they recur; many have no torus
    part, and some of those change sign under an exchange of frame
    parameters."""
    frame = st.tuples(*[st.integers(-2, 2)] * rank)
    torus = st.just((0, 0, 0)) | st.tuples(*[st.integers(-2, 2)] * 3)
    return st.builds(lambda t, v: t + v, torus, frame).filter(any)


def _weight_functions(rank):
    forms = st.lists(_forms(rank), max_size=4)
    return st.builds(lambda c, num, den: weight_function(rank, c, num, den),
                     SCALARS, forms, forms)


@st.composite
def _sparse_series(draw):
    """A rank, an order and one to three leg series: degree to weight
    sum, the unit at degree 0, other degrees drawn or missing.  Their
    terms come from a small pool, so products merge, and may cancel."""
    rank = draw(st.integers(1, 3))
    order = draw(st.integers(0, 4))
    pool = draw(st.lists(_weight_functions(rank), min_size=1, max_size=3))
    terms = st.lists(st.builds(lambda wf, c: wf.scaled(c),
                               st.sampled_from(pool), SCALARS),
                     min_size=1, max_size=3)
    legs = []
    for _ in range(draw(st.integers(1, 3))):
        leg = {0: ws_unit(rank)}
        for k in sorted(draw(st.sets(st.integers(1, order + 1)))):
            leg[k] = weight_sum(rank, draw(terms))
        legs.append(leg)
    return rank, order, legs


_X = weight_function(1, 2, [(0, 1, 1, 0)], [(1, 0, 0, 0)])
_Y = weight_function(1, -3, [(1, 1, 0, 0)], [(0, 0, 1, 0)])


@settings(deadline=None)
@given(_sparse_series())
# degree 1 cancels to zero, the terms of degrees 2 and 3 merge, degree 3
# is missing from both legs, and degree 4 is past the order
@example((1, 3, [{0: ws_unit(1), 1: (_X,), 2: (_Y.scaled(2),), 4: (_X,)},
                 {0: ws_unit(1), 1: (_X.scaled(-1),), 2: (_Y,)}]))
def test_ws_product_is_the_dense_convolution(case):
    rank, order, legs = case
    dense = [[leg.get(k, ()) for k in range(order + 1)] for leg in legs]
    want = dense[0]
    for leg in dense[1:]:
        want = series_mul(rank, want, leg)
    got = _ws_product(rank, legs, order)
    assert [got.get(k, ()) for k in range(order + 1)] == want
    assert all(k <= order for k in got)


@settings(deadline=None)
@given(st.data())
def test_exchange_is_the_canonicalized_exchange(data):
    rank = data.draw(st.integers(1, 5))
    wf = data.draw(_weight_functions(rank))
    for j in range(rank):
        assert _exchanged(wf, j) == exchanged_canonicalized(wf, j)


def test_exchange_flips_the_sign_of_a_frame_form():
    wf = weight_function(2, 3, [(0, 0, 0, 1, -1)], [(1, 0, 0, 0, 1)])
    swapped = _exchanged(wf, 0)
    assert swapped == weight_function(2, -3, [(0, 0, 0, 1, -1)],
                                      [(1, 0, 0, 1, 0)])
    assert swapped == exchanged_canonicalized(wf, 0)


@pytest.mark.parametrize("mode", ["character", "paper"])
def test_exchange_of_the_shares_assemble_vertex_builds(mode):
    for rank in range(1, 6):
        zeros = (0,) * rank
        for a in range(1, 4):
            for twist in (0, 2):
                share = contribution(VariableSet(rank), BoxTuple(
                    zeros[1:] + (a,), zeros), twist, mode)
                for j in range(rank):
                    assert _exchanged(share, j) == exchanged_canonicalized(
                        share, j), (rank, a, twist, j)


@settings(deadline=None)
@given(st.data())
def test_weight_sum_is_the_grouped_sum(data):
    # terms drawn from a small pool repeat their factor data, and the
    # negated copies cancel some groups to zero
    rank = data.draw(st.integers(1, 3))
    pool = data.draw(st.lists(_weight_functions(rank), min_size=1,
                              max_size=4))
    items = [wf.scaled(c) for wf, c in data.draw(st.lists(
        st.tuples(st.sampled_from(pool), SCALARS), max_size=10))]
    if items:
        items += [wf.scaled(-1) for wf in data.draw(
            st.lists(st.sampled_from(items), max_size=len(items)))]
    items = data.draw(st.permutations(items))
    got = weight_sum(rank, items)
    assert got == weight_sum_grouped(rank, items)
    for wf in got:
        group = [x for x in items
                 if x.scalar and (x.num, x.den) == (wf.num, wf.den)]
        if len(group) == 1:
            assert wf is group[0]


def test_ws_text():
    assert ws_text(()) == "0"
    a = wf1(1, [(0, 1, 1, 0)], [(1, 0, 0, 0)])
    b = wf1(-2)
    assert ws_text(weight_sum(1, [b, a])) == "-2 + (s2 + s3)/(s1)"


@settings(deadline=None)
@given(st.data())
def test_ws_text_joins_the_term_texts(data):
    # small entries make forms recur across the terms of a sum, the case
    # in which ws_text renders a form once for all its terms
    rank = data.draw(st.integers(1, 3))
    forms = st.lists(st.tuples(*[st.integers(-2, 2)] * (3 + rank)).filter(
        any), max_size=3)
    scalars = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    terms = data.draw(st.lists(st.tuples(scalars, forms, forms), max_size=6))
    s = weight_sum(rank, [weight_function(rank, c, num, den)
                          for c, num, den in terms])
    want = "0"
    for i, wf in enumerate(s):
        t = wf.text()
        if i == 0:
            want = t
        elif t.startswith("-"):
            want += " - " + t[1:]
        else:
            want += " + " + t
    assert ws_text(s) == want


@settings(deadline=None)
@given(st.data())
def test_term_texts_match_the_reference(data):
    # one form cache serves several sums, as in one CLI output, and a
    # small pool of forms makes them recur across terms and sums; the
    # scalars take 1 and -1, negative fractions and bare scalars, and a
    # term may have an empty numerator over denominators
    rank = data.draw(st.integers(1, 16))
    pool = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * (3 + rank))
                              .filter(any), min_size=1, max_size=4))
    forms = st.lists(st.sampled_from(pool), max_size=3)
    scalars = st.one_of(st.sampled_from([1, -1]), st.builds(
        Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4)))
    cache: dict = {}
    for _ in range(data.draw(st.integers(1, 3))):
        terms = data.draw(st.lists(st.tuples(scalars, forms, forms),
                                   max_size=5))
        s = weight_sum(rank, [weight_function(rank, c, num, den)
                              for c, num, den in terms])
        texts = [wf_text_reference(wf) for wf in s]
        assert [_wf_text(wf, cache) for wf in s] == texts
        # no term text holds " + -", so this reads each negative term
        # after the first as a difference
        want = " + ".join(texts).replace(" + -", " - ") if s else "0"
        assert _ws_text(s, cache) == want
        assert _ws_text(s, {}) == want


def test_ws_to_json_shapes():
    assert ws_to_json(()) == {"scalar": "0", "num": [], "den": []}
    single = ws_to_json(ws_unit(1))
    assert single == {"scalar": "1", "num": [], "den": []}
    pair = ws_to_json(weight_sum(1, [wf1(1, [(1, 0, 0, 0)]), wf1(2)]))
    assert isinstance(pair, list) and len(pair) == 2


def test_ws_arithmetic():
    a = (wf1(1, [(1, 0, 0, 0)], [(0, 1, 0, 0)]),)
    twice = weight_sum(1, [*a, *a])
    assert twice == (wf1(2, [(1, 0, 0, 0)], [(0, 1, 0, 0)]),)
    assert weight_sum(1, [wf.scaled(Fraction(1, 2)) for wf in twice]) == a
    square = ws_mul(1, a, a)
    assert square == (wf1(1, [(1, 0, 0, 0), (1, 0, 0, 0)],
                          [(0, 1, 0, 0), (0, 1, 0, 0)]),)


def test_eq_weight_sum():
    whole = (wf1(1, [(0, 1, 1, 0)], [(1, 0, 0, 0)]),)
    split = weight_sum(1, [wf1(1, [(0, 1, 0, 0)], [(1, 0, 0, 0)]),
                           wf1(1, [(0, 0, 1, 0)], [(1, 0, 0, 0)])])
    assert eq_weight_sum(1, whole, split)
    assert not eq_weight_sum(1, whole, split[:1])
    assert eq_weight_sum(1, (), weight_sum(1, []))
    assert not eq_weight_sum(1, ws_unit(1), ())


def test_leg_strata():
    strata = leg_strata(2, 2)
    assert [b.alpha for b in strata] == [(0, 2), (1, 1), (2, 0)]
    assert all(b.beta == (0, 0) for b in strata)


def test_assemble_vertex_basics():
    assert assemble_vertex(1, 0, 0) == (ws_unit(1),)
    series = assemble_vertex(1, 0, 2)
    assert series[0] == ws_unit(1)
    assert series[1] == (one_leg_exponent(1),)
    for build in (lambda: assemble_vertex(1, 0, -1),
                  lambda: closed_form_series(1, 0, -1),
                  lambda: reference_series(1, 0, -1),
                  lambda: binomial_series(one_leg_exponent(1), -1),
                  lambda: binomial_series(weight_function(1, 3), -1)):
        with pytest.raises(InvalidModel, match="^order must be nonnegative$"):
            build()


def test_assemble_vertex_specialization_context():
    spec = parse_specialization(1, "s1=0")
    with pytest.raises(DivisionByZero) as err:
        assemble_vertex(1, 0, 1, "character", spec)
    assert "contribution of BoxTuple" in str(err.value)
    assert "at twist 0" in str(err.value)


@pytest.mark.parametrize("rank", [0, -1, -2])
def test_series_refuse_a_rank_below_one(rank):
    for build in (lambda: assemble_vertex(rank, 0, 0),
                  lambda: assemble_vertex(rank, 0, 3),
                  lambda: closed_form_series(rank, 0, 3),
                  lambda: reference_series(rank, 0, 2),
                  lambda: compare_rows(rank, 0, 2)):
        with pytest.raises(InvalidModel, match="^rank must be at least one$"):
            build()


@pytest.mark.parametrize("order", [0, 2])
def test_assemble_vertex_refuses_an_unknown_mode(order):
    # refused at order zero too, where no share is built
    with pytest.raises(ModeUnavailable,
                       match="^unknown contribution mode 'bogus'$"):
        assemble_vertex(1, 0, order, mode="bogus")


def test_binomial_series_scalar():
    rows = binomial_series(weight_function(1, -2), 4)
    assert [w.scalar for w in rows] == [1, -2, 3, -4, 5]
    rows = binomial_series(weight_function(1, 3), 5)
    assert [w.scalar for w in rows] == [1, 3, 3, 1, 0, 0]
    rows = binomial_series(weight_function(1, 0), 3)
    assert [w.is_zero() for w in rows] == [False, True, True, True]
    assert rows[0].scalar == 1


def test_binomial_series_form_exponent():
    e = one_leg_exponent(1)
    rows = binomial_series(e, 2)
    assert rows[1] == e
    shifted = wf1(1, [(-1, 1, 1, 0)], [(1, 0, 0, 0)])
    expected = weight_sum(1, [wf.scaled(Fraction(1, 2))
                              for wf in ws_mul(1, (e,), (shifted,))])
    assert eq_weight_sum(1, weight_sum(1, [rows[2]]), expected)


def test_binomial_series_ineligible_shapes():
    for num, den in (([(1, 0, 0, 0)], []),
                     ([], [(1, 0, 0, 0)]),
                     ([(1, 0, 0, 0), (0, 1, 0, 0)],
                      [(0, 0, 1, 0), (1, 1, 0, 0)])):
        with pytest.raises(BinomialIneligible):
            binomial_series(wf1(1, num, den), 2)


_SCALARS = st.one_of(
    st.just(0), st.integers(-6, 6),
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    st.integers(10**19, 10**20 - 1).map(lambda x: x * (-1) ** x),
    st.builds(Fraction, st.integers(-10**20, 10**20),
              st.integers(10**19, 10**20)))


@st.composite
def _binomial_exponents(draw):
    """A rank from 1 to 16 and an exponent: a bare scalar, a scalar
    times a form over a form, the closed form exponent of a twist under
    a drawn affine specialization, or a shape the series refuses."""
    rank = draw(st.integers(1, 16))
    size = 3 + rank
    forms = st.lists(st.integers(-3, 3), min_size=size,
                     max_size=size).filter(any)
    kind = draw(st.sampled_from(("scalar", "form", "closed", "other")))
    scalar = draw(_SCALARS)
    if kind == "scalar":
        return weight_function(rank, scalar)
    if kind == "form":
        return weight_function(rank, scalar or 1, [draw(forms)],
                               [draw(forms)])
    if kind == "other":
        return weight_function(rank, scalar or 1,
                               draw(st.lists(forms, max_size=2)),
                               draw(st.lists(forms, max_size=2)))
    twist = draw(st.one_of(st.integers(-3, 5),
                           st.integers(-10**20, 10**20)))
    spec = parse_specialization(rank, draw(_affine_assignments(
        min(rank, 2))))
    try:
        return specialize(one_leg_exponent(rank).scaled(twist + 1), spec)
    except HftError:  # the specialization kills or breaks a form
        return one_leg_exponent(rank).scaled(twist + 1)


@settings(deadline=None, max_examples=300)
@given(_binomial_exponents(), st.integers(0, 30))
@example(weight_function(1, 0), 4)
@example(weight_function(2, 3), 6)  # zero from the fourth coefficient on
@example(weight_function(1, Fraction(-7, 3)), 5)
@example(weight_function(16, -(10**20 - 1) * 16), 30)
@example(one_leg_exponent(3).scaled(-2), 8)  # a negative scalar
@example(one_leg_exponent(1).scaled(10**20), 30)
@example(weight_function(1, 3, [(0, 1, 0, 0)], [(0, 0, 2, 0)]), 7)
@example(weight_function(1, 1, [(1, 0, 0, 0)], []), 2)
@example(weight_function(1, 1, [(1, 0, 0, 0)] * 2, [(0, 1, 0, 0)]), 2)
def test_binomial_series_matches_the_product_road(exponent, order):
    """The integer coefficients of ``binomial_series`` are the canonical
    products of ``binomial_series_by_products``, instance for instance,
    and an ineligible exponent is refused with the same message."""
    got = _value_or_error(lambda: binomial_series(exponent, order))
    want = _value_or_error(
        lambda: binomial_series_by_products(exponent, order))
    assert got == want
    if isinstance(want, list):
        assert len(got) == order + 1
        assert all(type(wf.scalar) is Fraction for wf in got)


def test_binomiality_test():
    unit = ws_unit(1)
    rows = [unit, (wf1(-2),), (wf1(3),), (wf1(-4),)]
    assert binomiality_test(1, rows) == (True, wf1(-2))
    assert binomiality_test(1, [unit, (wf1(1),), (wf1(1),)]) == (False, None)
    assert binomiality_test(1, [unit]) == (True, None)
    assert binomiality_test(1, []) == (False, None)
    assert binomiality_test(1, [(wf1(2),)]) == (False, None)
    two_terms = weight_sum(1, [wf1(1, [(1, 0, 0, 0)], [(0, 1, 0, 0)]),
                               wf1(1, [(0, 1, 0, 0)], [(1, 0, 0, 0)])])
    assert binomiality_test(1, [unit, two_terms]) == (False, None)


def test_binomiality_of_assembled_untwisted_rank_one():
    ok, exponent = binomiality_test(1, assemble_vertex(1, 0, 3))
    assert ok
    assert exponent == one_leg_exponent(1)


def test_untwisted_rank_one_series_matches_sympy(capsys):
    # criterion 1 against an oracle that shares no code with series.py:
    # sympy expands (1+q)^((s2+s3)/s1) itself, and the assembled
    # coefficients are read back from the CLI's JSON output
    sympy = pytest.importorskip("sympy")
    s1, s2, s3, q = sympy.symbols("s1 s2 s3 q")
    order = 6
    want = sympy.series((1 + q) ** ((s2 + s3) / s1), q, 0,
                        order + 1).removeO()
    params = (s1, s2, s3, sympy.Symbol("v1"))

    def linear(form):
        return sum(c * p for c, p in zip(form, params))

    assert main(["vertex", "--order", str(order), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["k"] for c in doc["coefficients"]] == list(range(order + 1))
    for c in doc["coefficients"]:
        # one term is written as an object, several as a list
        terms = c["value"] if isinstance(c["value"], list) else [c["value"]]
        got = sympy.Integer(0)
        for term in terms:
            value = sympy.Rational(term["scalar"])
            for f in term["num"]:
                value *= linear(f)
            for f in term["den"]:
                value /= linear(f)
            got += value
        assert sympy.cancel(got - want.coeff(q, c["k"])) == 0, c["k"]


def test_power():
    a = (wf1(1, [(1, 0, 0, 0)], [(0, 1, 0, 0)]),)
    rows = power(1, [ws_unit(1), a], 2, 2)
    assert rows[0] == ws_unit(1)
    assert rows[1] == weight_sum(1, [wf.scaled(2) for wf in a])
    assert rows[2] == ws_mul(1, a, a)
    rows = power(1, [ws_unit(1), a], 0, 2)
    assert rows == [ws_unit(1), (), ()]
    with pytest.raises(InvalidModel):
        power(1, [ws_unit(1)], -1, 2)
    with pytest.raises(InvalidModel):
        power(1, [ws_unit(1)], 2, -1)


def test_power_at_exponent_one_returns_the_rows(monkeypatch):
    # the first power neither multiplies nor sums: the canonical rows
    # come back cut or padded with zeros to the order
    import hftvertex.series as series

    def refused(*args):
        raise AssertionError("called at exponent one")

    monkeypatch.setattr(series, "weight_sum", refused)
    monkeypatch.setattr(series, "_product", refused)
    a = (wf1(1, [(1, 0, 0, 0)], [(0, 1, 0, 0)]),)
    rows = [ws_unit(1), a, (), a]
    assert power(1, rows, 1, 3) == rows
    assert power(1, rows, 1, 1) == rows[:2]
    assert power(1, rows, 1, 5) == [*rows, (), ()]
    assert power(1, [], 1, 1) == [(), ()]


def brute_power(rank, coefficients, exponent, order):
    out = [()] * (order + 1)
    for combo in itertools.product(range(len(coefficients)),
                                   repeat=exponent):
        degree = sum(combo)
        if degree > order:
            continue
        term = ws_unit(rank)
        for j in combo:
            term = ws_mul(rank, term, coefficients[j])
        out[degree] = weight_sum(rank, [*out[degree], *term])
    return out


def random_form(rng, rank):
    while True:
        form = tuple(rng.randint(-1, 2) for _ in range(3 + rank))
        if any(form):
            return form


_A = wf1(2, [(1, 0, 0, 0)], [(0, 1, 0, 0)])


def _cancelling(exponent):
    """1 + a q + b q^2 with b = -(e - 1)/2 a^2, whose e-th power has
    e b + C(e, 2) a^2 = 0 at q^2."""
    b = weight_sum(1, [wf.scaled(Fraction(1 - exponent, 2))
                       for wf in ws_mul(1, (_A,), (_A,))])
    return [ws_unit(1), (_A,), b]


def _power_cases():
    """Drawn coefficient lists, terms repeated across degrees, then
    lists whose power cancels to zero at a degree and empty lists."""
    rng = random.Random(555)
    for _ in range(100):
        rank = rng.randint(1, 4)
        pool = [weight_function(
            rank, Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)),
            [random_form(rng, rank) for _ in range(rng.randint(0, 1))],
            [random_form(rng, rank) for _ in range(rng.randint(0, 1))])
            for _ in range(3)]
        exponent = rng.randint(0, 6)
        # the brute force walks (number of coefficients) ** exponent tuples
        size = rng.randint(0, 4 if exponent < 5 else 3)
        coefficients = [weight_sum(rank, rng.sample(pool, rng.randint(0, 2)))
                        for _ in range(size)]
        yield rank, coefficients, exponent, rng.randint(0, 6)
    for exponent in range(7):
        # every degree carries the same term
        yield 1, [(_A,)] * 4, exponent, 6
        yield 1, _cancelling(exponent), exponent, 4
        yield 3, [], exponent, 3
        yield 2, [(), ()], exponent, 2


def test_power_matches_multinomial_expansion():
    for rank, coefficients, exponent, order in _power_cases():
        assert power(rank, coefficients, exponent, order) == brute_power(
            rank, coefficients, exponent, order), (coefficients, exponent)
    for exponent in range(2, 7):
        assert power(1, _cancelling(exponent), exponent, 4)[2] == ()


def test_closed_form_series_on_cy_slice():
    cy = parse_specialization(1, "s3=-s1-s2,v1=1")
    for twist in range(3):
        series = closed_form_series(1, twist, 4, cy)
        want = binomial_series(weight_function(1, -(twist + 1)), 4)
        for got, ref in zip(series, want):
            assert got == weight_sum(1, [ref])
    cy2 = parse_specialization(2, "s3=-s1-s2,v1=1,v2=1")
    series = closed_form_series(2, 0, 3, cy2)
    texts = [ws_text(c) for c in series]
    assert texts == ["1", "-2", "3", "-4"]


def test_reference_series():
    rows = reference_series(1, 1, 3)
    assert [ws_text(c) for c in rows] == ["1", "-2", "3", "-4"]
    rows = reference_series(2, 0, 2)
    assert [ws_text(c) for c in rows] == ["1", "-2", "3"]


def test_compare_rows_generic_rank_one():
    rows = compare_rows(1, 0, 4)
    for row in rows:
        assert row["character_equals_paper"]
        assert row["character_equals_closed_form"]


def test_compare_rows_cy_rank_one_difference_column():
    cy = parse_specialization(1, "s3=-s1-s2,v1=1")
    rows = compare_rows(1, 1, 3, cy)
    assert [ws_text(r["character"]) for r in rows] == ["1", "-1", "1", "-1"]
    assert [ws_text(r["difference_from_reference"]) for r in rows] == [
        "0", "1", "-2", "3"]


def test_compare_rows_cy_rank_two():
    cy = parse_specialization(2, "s3=-s1-s2,v1=1,v2=1")
    rows = compare_rows(2, 0, 1, cy)
    row = rows[1]
    assert ws_text(row["character"]) == "2"
    assert ws_text(row["paper"]) == "-2"
    assert ws_text(row["closed_form"]) == "-2"
    assert not row["character_equals_paper"]
    assert not row["character_equals_closed_form"]
    assert ws_text(row["difference_from_reference"]) == "4"


def test_late_specialization_matches_early():
    from hftvertex.localize import specialize
    cy = parse_specialization(1, "s3=-s1-s2,v1=1")
    early = assemble_vertex(1, 0, 3, "character", cy)
    late = assemble_vertex(1, 0, 3, "character")
    for k in range(4):
        collapsed = weight_sum(
            1, [specialize(wf, cy) for wf in late[k]])
        assert collapsed == early[k]


def test_count_series_normalization():
    # at rank 1 and twist 1 the partition series is the count file itself
    assert hft_partition({"2": "3/2", 1: 0}, 1, 1, 2) == {2: Fraction(3, 2)}
    # keys that name one degree add up, and a zero sum is dropped
    assert hft_partition({"1": 1, "01": 2}, 1, 1, 2) == {1: Fraction(3)}
    assert hft_partition({"1": 1, "001": -1}, 1, 1, 2) == {}
    for data in ({-1: 1}, {1: 0.5}, {1: True}, {1.0: 1}, {1: "1/0"},
                 {"x": 1}, {1: float("inf")}, {1: float("-inf")},
                 {1: float("nan")}):
        with pytest.raises(InvalidCounts):
            hft_partition(data, 1, 1, 2)
    # a key is read by type: int() would truncate these to a degree
    for key in (Fraction(3, 2), Fraction(2), Decimal("2.7"), Decimal(2),
                True, 2.0):
        with pytest.raises(InvalidCounts, match="^bad count entry "):
            hft_partition({key: 1}, 1, 1, 10)
    # only ASCII digits name a degree, though int() also reads "1_0",
    # " 2 ", "+3" and other scripts' digits
    for key in ("1_0", " 2 ", "+3", "\u0664", "\uff12", "\u00b2", "", "-",
                "0x5", "1.0"):
        with pytest.raises(InvalidCounts, match="^bad count entry "):
            hft_partition({key: 1}, 1, 1, 20)
    for key in ("-1", "-0", "-01", -1):
        with pytest.raises(InvalidCounts, match="^negative degree "):
            hft_partition({key: 1}, 1, 1, 20)


_NOT_INTEGERS = (Fraction(1, 2), Fraction(2), 2.0, 0.5, True, Decimal(2),
                 "2", None)
_ENTRY_POINTS = {
    "assemble_vertex": lambda rank, twist, order: assemble_vertex(
        rank, twist, order),
    "closed_form_series": closed_form_series,
    "reference_series": reference_series,
    "compare_rows": compare_rows,
    "hft_partition": lambda rank, twist, order: hft_partition(
        {1: 1}, twist, rank, order),
}


@pytest.mark.parametrize("argument", ("rank", "twist", "order"))
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_series_entry_points_refuse_non_integers(entry, argument):
    # refused by type and named, where a half twist gave a half degree,
    # an order of 10.5 ran to 10 and a float rank or twist ended in a
    # bare TypeError or AttributeError
    for value in _NOT_INTEGERS:
        args = {"rank": 2, "twist": 1, "order": 3, argument: value}
        with pytest.raises(InvalidModel, match="^%s must be an integer, "
                           "not " % argument):
            _ENTRY_POINTS[entry](**args)


def test_power_and_binomial_series_refuse_non_integers():
    line = [ws_unit(1), ws_unit(1)]
    for exponent, order in ((2.0, 3), (2, 3.0), (True, 3), (2, Fraction(3))):
        with pytest.raises(InvalidModel, match="must be an integer, not "):
            power(1, line, exponent, order)
    with pytest.raises(InvalidModel, match="^order must be an integer, "):
        binomial_series(one_leg_exponent(1), 10.5)


def test_hft_partition_oracles():
    assert hft_partition({1: 1}, 1, 2, 4) == {2: Fraction(1)}
    assert hft_partition({1: 1, 2: 3}, 2, 2, 8) == {
        4: Fraction(1), 6: Fraction(6), 8: Fraction(9)}
    assert hft_partition({}, 1, 2, 4) == {}
    assert hft_partition({1: 2, 3: 1}, 0, 2, 4) == {0: Fraction(9)}
    # at twist zero every degree lands on zero, where these counts cancel
    assert hft_partition({1: Fraction(1, 7), 2: Fraction(-1, 7)},
                         0, 3, 5) == {}
    assert hft_partition({0: 2, 3: -1, 4: -1}, 0, 2, 0) == {}


def test_hft_partition_guards():
    with pytest.raises(InvalidModel):
        hft_partition({1: 1}, 1, 0, 4)
    with pytest.raises(InvalidModel):
        hft_partition({1: 1}, -1, 1, 4)
    with pytest.raises(InvalidModel):
        hft_partition({1: 1}, 1, 1, -1)


def test_hft_partition_matches_multinomial_expansion():
    rng = random.Random(444)
    for _ in range(30):
        counts = {}
        for _ in range(rng.randint(1, 4)):
            value = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                             rng.randint(1, 2))
            counts[rng.randint(0, 6)] = value
        twist = rng.randint(0, 3)
        rank = rng.randint(1, 4)
        order = rng.randint(0, 20)
        assert hft_partition(counts, twist, rank, order) == brute_partition(
            counts, twist, rank, order)


# pairwise coprime denominators, up to about 1e9, so that the lcm the
# package clears by and its rank-th power grow large
_DENOMINATORS = (1, 2, 7, 11, 13, 17, 19, 10007, 1000003, 998244353)
_COUNTS = st.dictionaries(
    st.integers(0, 6),
    st.builds(Fraction, st.integers(-10**6, 10**6),
              st.sampled_from(_DENOMINATORS)),
    max_size=4)


@settings(deadline=None)
@given(_COUNTS, st.integers(0, 3), st.integers(1, 6), st.integers(0, 24))
@example({1: Fraction(1, 7), 2: Fraction(-1, 7)}, 0, 3, 5)
@example({0: Fraction(3, 10007), 2: Fraction(-5, 998244353),
          3: Fraction(1, 1000003), 4: -7}, 1, 6, 0)
@example({0: Fraction(-2, 11), 1: Fraction(3, 13), 3: Fraction(-1, 17),
          5: Fraction(4, 19)}, 2, 6, 24)
def test_hft_partition_matches_brute_force_on_exact_counts(
        counts, twist, rank, order):
    # the brute force walks every ordered choice of rank entries
    assert len(counts) ** rank <= 4096
    got = hft_partition(counts, twist, rank, order)
    assert got == brute_partition(counts, twist, rank, order)
    assert all(isinstance(c, Fraction) for c in got.values())


# Keys with leading zeros name one degree, so the counts of several keys
# add up there, and may cancel; degrees up to 400 reach past the order.
_KEYS = st.builds(lambda m, zeros: "0" * zeros + str(m),
                  st.integers(0, 400), st.integers(0, 2))
_LONG_COUNTS = st.dictionaries(
    _KEYS, st.builds(Fraction, st.integers(-10**6, 10**6),
                     st.sampled_from(_DENOMINATORS)), max_size=12)


@settings(deadline=None)
@given(_LONG_COUNTS, st.integers(0, 3), st.integers(1, 16),
       st.integers(0, 300))
@example({"1": 1, "001": -1, "2": Fraction(3, 7), "5": -2}, 1, 16, 300)
@example({"0": Fraction(5, 998244353), "7": Fraction(-3, 1000003),
          "300": 1}, 0, 16, 0)
@example({str(m): Fraction((-1) ** m * (m + 1), _DENOMINATORS[m % 10])
          for m in range(12)}, 1, 16, 300)
@example({"100": 2, "0100": -2, "101": Fraction(1, 10007), "400": 9},
         3, 3, 300)
def test_hft_partition_matches_the_convolved_road(counts, twist, rank,
                                                  order):
    # past the reach of the brute force: up to 12 ** 16 ordered choices
    got = hft_partition(counts, twist, rank, order)
    assert got == partition_convolved(counts, twist, rank, order)
    assert all(isinstance(c, Fraction) for c in got.values())


def _printable(value: Fraction) -> bool:
    try:
        str(value)
    except ValueError:
        return False
    return True


# numerators of up to 127 digits, so that under a 640-digit str() limit
# the powers up to rank 8 print at low degrees and may not at high ones
_WIDE_COUNTS = st.dictionaries(
    st.integers(0, 6),
    st.builds(lambda n, e, d: Fraction(n * 10**e, d),
              st.integers(-10**6, 10**6), st.integers(0, 120),
              st.sampled_from(_DENOMINATORS)),
    max_size=5)


@settings(deadline=None)
@given(_WIDE_COUNTS, st.integers(0, 3), st.integers(1, 8),
       st.integers(0, 40))
@example({0: 1, 1: 10**200}, 1, 4, 4)
@example({0: 1, 3: 10**700, 4: 10**800}, 1, 1, 5)
@example({0: 10**100, 1: 1}, 1, 8, 4)
@example({1: 10**80, 2: Fraction(1, 998244353)}, 2, 8, 40)
def test_hft_partition_stops_at_the_lowest_unprintable_coefficient(
        counts, twist, rank, order):
    expected = partition_convolved(counts, twist, rank, order)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        bad = [m for m, c in expected.items() if not _printable(c)]
        if not bad:
            got = hft_partition(counts, twist, rank, order)
            assert got == expected and list(got) == sorted(got)
        else:
            with pytest.raises(HftError) as err:
                hft_partition(counts, twist, rank, order)
            assert str(err.value) == (
                "coefficient of q^%d has more than 640 digits" % min(bad))
    finally:
        sys.set_int_max_str_digits(limit)
