"""The three way table on the Calabi Yau slice s3 = -s1 - s2.

``cy_slice_table.json`` holds, as exact ``ws_to_json`` data, the
coefficients to order 4 of the character, paper and closed form vertex
series specialized to the slice, at rank <= 3 and twist <= 2; it was
recorded before contributions became products over frame summands.  Any
change to a value in it is a change of result and fails here.

The numeric rows also follow closed forms, checked independently of
the data: the character series is (-1)^(r*k) C(k+r-1, r-1) at every
twist, the closed form is (1+q)^(-(t+1)*r), paper mode equals the
character series at rank one and is (1+q)^-2 at rank two, and at rank
three paper mode does not reduce to numbers.

The table also holds the rows of ``compare --rank 2 --order 3`` and
``compare --rank 3 --order 2`` on the slice, at twist 0, under the keys
``compare rank R order N``: each row's ``ws_to_json`` columns and both
equality flags, as the JSON output of ``compare`` prints them, recorded
before the unused package code was deleted.

On the slice each character mode contribution of a fixed point with n
boxes on its two legs at rank r is the constant (-1)^(r*n), whatever the
twist; the package nowhere states this sign, and the test derives it
from the exact equivariant contribution of every fixed point.

Summed over the fixed points with n boxes, those contributions give
coefficient n of the rank r series of local P^1, which is Z_1^r with
Z_1(q) = (1+q)^-2 up to the sign (-1)^((r-1)n): localization on one
side, ``hft_partition`` of the rank one counts on the other.
"""

import json
from math import comb
from pathlib import Path

from hftvertex.chars import VariableSet
from hftvertex.fixedpoints import enumerate_fixed
from hftvertex.localize import (contribution, parse_specialization,
                                specialize, weight_function)
from hftvertex.series import (assemble_vertex, closed_form_series,
                              compare_rows, hft_partition, weight_sum)
from oracles import ws_to_json

TABLE = json.loads(
    (Path(__file__).parent / "cy_slice_table.json").read_text())
VERTEX = {key: row for key, row in TABLE.items()
          if not key.startswith("compare")}
ORDER = 4
COLUMNS = ("character", "paper", "closed_form", "difference_from_reference")


def _series(rank, twist, mode):
    spec = parse_specialization(rank, "s3=-s1-s2")
    if mode == "closed_form":
        return closed_form_series(rank, twist, ORDER, spec)
    return assemble_vertex(rank, twist, ORDER, mode, spec)


def _scalars(row):
    """The coefficients of a row as integers, or None where one keeps
    factors."""
    return [int(c["scalar"]) if isinstance(c, dict) and not c["num"]
            and not c["den"] else None for c in row]


def test_cy_slice_table_is_pinned():
    got = {}
    for rank in (1, 2, 3):
        for twist in (0, 1, 2):
            for mode in ("character", "paper", "closed_form"):
                got["%d %d %s" % (rank, twist, mode)] = [
                    ws_to_json(c)
                    for c in _series(rank, twist, mode)]
    assert got.keys() == VERTEX.keys()
    for key, row in VERTEX.items():
        assert got[key] == row, key


def test_cy_slice_compare_rows_are_pinned():
    for rank, order in ((2, 3), (3, 2)):
        spec = parse_specialization(rank, "s3=-s1-s2")
        got = [{**row, **{c: ws_to_json(row[c]) for c in COLUMNS}}
               for row in compare_rows(rank, 0, order, spec)]
        assert got == TABLE["compare rank %d order %d" % (rank, order)]


def test_cy_slice_rows_follow_their_closed_forms():
    for rank in (1, 2, 3):
        for twist in (0, 1, 2):
            row = {mode: _scalars(VERTEX["%d %d %s" % (rank, twist, mode)])
                   for mode in ("character", "paper", "closed_form")}
            ks = range(ORDER + 1)
            assert row["character"] == [
                (-1) ** (rank * k) * comb(k + rank - 1, rank - 1) for k in ks]
            exponent = (twist + 1) * rank
            assert row["closed_form"] == [
                (-1) ** k * comb(exponent + k - 1, k) for k in ks]
            if rank == 1:
                assert row["paper"] == row["character"]
            elif rank == 2:
                assert row["paper"] == [(-1) ** k * (k + 1) for k in ks]
            else:
                assert row["paper"][0] == 1
                assert row["paper"][1:] == [None] * ORDER


def test_every_fixed_point_contributes_the_cy_sign():
    cases = 0
    for rank in (1, 2, 3):
        vars = VariableSet(rank)
        spec = parse_specialization(rank, "s3=-s1-s2")
        for n in range(5):
            sign = weight_function(rank, (-1) ** (rank * n))
            for box in enumerate_fixed(rank, n):
                for twist in range(4):
                    wf = contribution(vars, box, twist, "character")
                    assert specialize(wf, spec) == sign, (box, twist)
                    cases += 1
    assert cases == 1180


def test_localization_sum_agrees_with_the_count_series():
    rank_one = {m: (-1) ** m * (m + 1) for m in range(ORDER + 1)}
    for rank in (1, 2, 3):
        vars = VariableSet(rank)
        spec = parse_specialization(rank, "s3=-s1-s2")
        counts = hft_partition(rank_one, 1, rank, ORDER)
        for twist in (0, 1):
            for n in range(ORDER + 1):
                total = weight_sum(rank, [
                    specialize(contribution(vars, box, twist, "character"),
                               spec)
                    for box in enumerate_fixed(rank, n)])
                want = (-1) ** ((rank - 1) * n) * counts.get(n, 0)
                assert total == weight_sum(
                    rank, [weight_function(rank, want)]), (rank, twist, n)
