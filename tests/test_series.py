"""Tests for series assembly, binomial closed forms, and partitions."""

import itertools
import random
from fractions import Fraction

import pytest

from hftvertex.fixedpoints import InvalidModel
from hftvertex.localize import (DivisionByZero, parse_specialization,
                                weight_function)
from hftvertex.series import (BinomialIneligible, InvalidCounts,
                              assemble_vertex, binomial_series,
                              binomiality_test, closed_form_series,
                              compare_rows, count_series, eq_weight_sum,
                              hft_partition, leg_strata,
                              one_leg_exponent, power, reference_series,
                              weight_sum, ws_add, ws_mul, ws_scale, ws_text,
                              ws_to_json, ws_unit)


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


def test_ws_text():
    assert ws_text(()) == "0"
    a = wf1(1, [(0, 1, 1, 0)], [(1, 0, 0, 0)])
    b = wf1(-2)
    assert ws_text(weight_sum(1, [b, a])) == "-2 + (s2 + s3)/(s1)"


def test_ws_to_json_shapes():
    assert ws_to_json(()) == {"scalar": "0", "num": [], "den": []}
    single = ws_to_json(ws_unit(1))
    assert single == {"scalar": "1", "num": [], "den": []}
    pair = ws_to_json(weight_sum(1, [wf1(1, [(1, 0, 0, 0)]), wf1(2)]))
    assert isinstance(pair, list) and len(pair) == 2


def test_ws_arithmetic():
    a = (wf1(1, [(1, 0, 0, 0)], [(0, 1, 0, 0)]),)
    twice = ws_add(1, a, a)
    assert twice == (wf1(2, [(1, 0, 0, 0)], [(0, 1, 0, 0)]),)
    assert ws_scale(1, twice, Fraction(1, 2)) == a
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
    series = assemble_vertex(1, 0, 0)
    assert series.coefficients == (ws_unit(1),)
    series = assemble_vertex(1, 0, 2)
    assert series.coefficients[0] == ws_unit(1)
    assert series.coefficients[1] == (one_leg_exponent(1),)
    with pytest.raises(InvalidModel):
        assemble_vertex(1, 0, -1)


def test_assemble_vertex_specialization_context():
    spec = parse_specialization(1, "s1=0")
    with pytest.raises(DivisionByZero) as err:
        assemble_vertex(1, 0, 1, "character", spec)
    assert "contribution of BoxTuple" in str(err.value)
    assert "at twist 0" in str(err.value)


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
    expected = ws_scale(1, ws_mul(1, (e,), (shifted,)), Fraction(1, 2))
    assert eq_weight_sum(1, weight_sum(1, [rows[2]]), expected)


def test_binomial_series_ineligible_shapes():
    for num, den in (([(1, 0, 0, 0)], []),
                     ([], [(1, 0, 0, 0)]),
                     ([(1, 0, 0, 0), (0, 1, 0, 0)],
                      [(0, 0, 1, 0), (1, 1, 0, 0)])):
        with pytest.raises(BinomialIneligible):
            binomial_series(wf1(1, num, den), 2)


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
    series = assemble_vertex(1, 0, 3)
    ok, exponent = binomiality_test(1, series.coefficients)
    assert ok
    assert exponent == one_leg_exponent(1)


def test_power():
    a = (wf1(1, [(1, 0, 0, 0)], [(0, 1, 0, 0)]),)
    rows = power(1, [ws_unit(1), a], 2, 2)
    assert rows[0] == ws_unit(1)
    assert rows[1] == ws_scale(1, a, 2)
    assert rows[2] == ws_mul(1, a, a)
    rows = power(1, [ws_unit(1), a], 0, 2)
    assert rows == [ws_unit(1), (), ()]
    with pytest.raises(InvalidModel):
        power(1, [ws_unit(1)], -1, 2)


def test_closed_form_series_on_cy_slice():
    cy = parse_specialization(1, "s3=-s1-s2,v1=1")
    for twist in range(3):
        series = closed_form_series(1, twist, 4, cy)
        want = binomial_series(weight_function(1, -(twist + 1)), 4)
        for got, ref in zip(series.coefficients, want):
            assert got == weight_sum(1, [ref])
    cy2 = parse_specialization(2, "s3=-s1-s2,v1=1,v2=1")
    series = closed_form_series(2, 0, 3, cy2)
    texts = [ws_text(c) for c in series.coefficients]
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
            1, [specialize(wf, cy) for wf in late.coefficients[k]])
        assert collapsed == early.coefficients[k]


def test_vertex_series_text_and_json():
    cy = parse_specialization(1, "s3=-s1-s2,v1=1")
    series = assemble_vertex(1, 0, 2, "character", cy)
    lines = series.text().splitlines()
    assert lines[0] == ("rank 1, twist 0, mode character, "
                        "specialized: s3=-s1-s2,v1=1")
    assert lines[1] == "c[0] = 1"
    assert lines[2] == "c[1] = -1"
    data = series.to_json()
    assert data["order"] == 2
    assert data["coefficients"][2] == {
        "k": 2, "value": {"scalar": "1", "num": [], "den": []}}
    plain = assemble_vertex(1, 1, 0)
    assert plain.text().splitlines()[0] == "rank 1, twist 1, mode character"


def test_count_series_normalization():
    assert count_series({"2": "3/2", 1: 0}) == {2: Fraction(3, 2)}
    for data in ({-1: 1}, {1: 0.5}, {1: True}, {1.0: 1}, {1: "1/0"},
                 {"x": 1}):
        with pytest.raises(InvalidCounts):
            count_series(data)


def test_hft_partition_oracles():
    assert hft_partition({1: 1}, 1, 2, 4) == {2: Fraction(1)}
    assert hft_partition({1: 1, 2: 3}, 2, 2, 8) == {
        4: Fraction(1), 6: Fraction(6), 8: Fraction(9)}
    assert hft_partition({}, 1, 2, 4) == {}
    assert hft_partition({1: 2, 3: 1}, 0, 2, 4) == {0: Fraction(9)}


def test_hft_partition_guards():
    with pytest.raises(InvalidModel):
        hft_partition({1: 1}, 1, 0, 4)
    with pytest.raises(InvalidModel):
        hft_partition({1: 1}, -1, 1, 4)
    with pytest.raises(InvalidModel):
        hft_partition({1: 1}, 1, 1, -1)


def brute_partition(counts, twist, rank, order):
    support = list(counts.items())
    out = {}
    for combo in itertools.product(support, repeat=rank):
        degree = sum(twist * m for m, _ in combo)
        if degree > order:
            continue
        value = Fraction(1)
        for _, c in combo:
            value *= Fraction(c)
        out[degree] = out.get(degree, Fraction(0)) + value
    return {m: c for m, c in sorted(out.items()) if c}


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
