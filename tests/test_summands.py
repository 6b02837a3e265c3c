"""Contributions as products over frame summands.

``localize`` builds the share of the last frame summand and exchanges
v_j and v_r to get the share of summand j: ``contribution`` multiplies
the exchanged shares of the summands that carry boxes, and
``series.assemble_vertex`` multiplies the leg series of the summands,
each coefficient the exchanged share of one order.  These tests check
the split of the character it rests on, the zero blocks of empty
summands, the contribution against the whole character road of
``oracles``, whose paper mode keeps its own per summand shift table,
its symmetry under an exchange of summands, and the vertex series,
values and errors alike, against the stratum by stratum sum of
``oracles``.
"""

from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hftvertex import fixedpoints, localize, series
from hftvertex.chars import HftError, LaurentPoly, VariableSet
from hftvertex.fixedpoints import BoxTuple, enumerate_fixed
from hftvertex.localize import (DivisionByZero, _one_box_share, _share,
                                contribution,
                                parse_specialization, specialize,
                                weight_function)
from hftvertex.series import assemble_vertex, weight_sum
from hftvertex.vertexchar import alpha_block, beta_block, total_character
from oracles import (assemble_vertex_enumerated, assemble_vertex_whole,
                     contribution_whole, leg_strata, ws_text)
from test_localize import _affine_assignments

VARS = {rank: VariableSet(rank) for rank in (1, 2, 3, 4, 5)}
MODES = ("character", "paper")


def _grid():
    """The acceptance grid: rank <= 3, total <= 5, twist <= 3."""
    for rank in (1, 2, 3):
        for total in range(6):
            for box in enumerate_fixed(rank, total):
                for twist in range(4):
                    yield VARS[rank], box, twist


def _only(box, j):
    """The fixed point that keeps only the boxes of summand j."""
    zeros = [0] * box.rank
    return BoxTuple(zeros[:j] + [box.alpha[j]] + zeros[j + 1:],
                    zeros[:j] + [box.beta[j]] + zeros[j + 1:])


def _outcome(build, *args):
    try:
        return build(*args)
    except HftError as err:  # the error itself is the outcome compared
        return type(err), str(err)


@cache
def _grid_contributions():
    """The contribution of every cell of the acceptance grid in both
    modes, keyed by rank, twist and mode and then by fixed point; built
    once for the two tests that read the whole grid."""
    out = {}
    for vars, box, twist in _grid():
        for mode in MODES:
            out.setdefault((vars.rank, twist, mode), {})[box] = (
                contribution(vars, box, twist, mode))
    return out


def test_contribution_matches_whole_character_on_the_grid():
    cells = 0
    for (rank, twist, mode), wfs in _grid_contributions().items():
        for box, wf in wfs.items():
            assert wf == contribution_whole(VARS[rank], box, twist, mode)
            cells += 1
    assert cells == 2436 * len(MODES)


def _exchange(wf, j, k):
    """``wf`` with the frame parameters of summands j and k exchanged,
    put in canonical form again."""
    def swap(f):
        g = list(f)
        g[3 + j], g[3 + k] = g[3 + k], g[3 + j]
        return g
    return weight_function(wf.rank, wf.scalar, [swap(f) for f in wf.num],
                           [swap(f) for f in wf.den])


def _swapped(box, j, k):
    """The fixed point with the boxes of summands j and k exchanged."""
    def swap(parts):
        p = list(parts)
        p[j], p[k] = p[k], p[j]
        return p
    return BoxTuple(swap(box.alpha), swap(box.beta))


def test_contribution_is_symmetric_under_exchange_of_summands():
    """The frame summands are interchangeable: exchanging v_j and v_k
    in a contribution gives exactly the canonical contribution of the
    fixed point with summands j and k exchanged, in both modes, at every
    fixed point of the acceptance grid.  ``assemble_vertex`` builds the
    share of summand r only and gets the others by this exchange."""
    checked = 0
    for (rank, _, _), wfs in _grid_contributions().items():
        for box, wf in wfs.items():
            for j in range(rank):
                for k in range(j + 1, rank):
                    assert _exchange(wf, j, k) == wfs[_swapped(box, j, k)]
                    checked += 1
    # 126 fixed points of rank 2 with one pair, 462 of rank 3 with three
    assert checked == 4 * len(MODES) * (126 * 1 + 462 * 3)


def test_total_character_is_the_sum_of_its_summands_on_the_grid():
    for vars, box, twist in _grid():
        parts = LaurentPoly.zero(vars)
        for j in range(box.rank):
            parts = parts + total_character(vars, _only(box, j), twist)
        assert total_character(vars, box, twist) == parts


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_contribution_matches_whole_character_on_random_boxes(data):
    # every share is the last summand's share exchanged to its summand,
    # where the whole character road builds each summand on its own;
    # negative twists reach the zero weights, so the errors and the
    # fixed point they name are compared too
    rank = data.draw(st.integers(1, 4))
    counts = st.lists(st.integers(0, 3), min_size=rank, max_size=rank)
    box = BoxTuple(data.draw(counts), data.draw(counts))
    twist = data.draw(st.integers(-4, 3))
    mode = data.draw(st.sampled_from(MODES))
    vars = VARS[rank]
    assert (_outcome(contribution, vars, box, twist, mode)
            == _outcome(contribution_whole, vars, box, twist, mode))


def test_empty_blocks_are_zero():
    for rank in (1, 2, 3):
        vars = VARS[rank]
        zero = LaurentPoly.zero(vars)
        for j in range(rank):
            assert beta_block(vars, j, 0) == zero
            for twist in range(4):
                assert alpha_block(vars, j, 0, twist) == zero
                assert alpha_block(vars, j, 1, twist) != zero
            assert beta_block(vars, j, 1) != zero


def test_assemble_vertex_sums_the_whole_character_contributions():
    for rank in (1, 2, 3, 4):
        vars = VARS[rank]
        slice_spec = parse_specialization(rank, "s3=-s1-s2")
        for twist in (0, 1, 2):
            for mode in MODES:
                whole = {box: contribution_whole(vars, box, twist, mode)
                         for k in range(5) for box in leg_strata(rank, k)}
                for spec in (None, slice_spec):
                    want = [weight_sum(rank, [
                        specialize(whole[box], spec,
                                   "contribution of %r at twist %d"
                                   % (box, twist))
                        for box in leg_strata(rank, k)]) for k in range(5)]
                    got = assemble_vertex(rank, twist, 4, mode, spec)
                    assert list(got) == want, (
                        rank, twist, mode, spec)


def _texts(build, *args):
    return [ws_text(c) for c in build(*args)]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_assemble_vertex_matches_enumeration_outcome(data):
    """The convolution of the leg series gives the text of every
    coefficient, or the error class and message, of the stratum by
    stratum sum: a refused specialization names the same fixed point
    and factor on both roads.  The shares of summands below r are
    exchanges of the share of summand r, so the specializations that
    treat the frame parameters unequally meet each exchanged share
    differently; negative twists reach the unit monomial error."""
    rank = data.draw(st.integers(1, 5))
    order = data.draw(st.integers(0, 4 if rank <= 3 else 3))
    twist = data.draw(st.integers(-3, 2))
    mode = data.draw(st.sampled_from(MODES))
    fixed = ["", "s3=-s1-s2", "s3=-s1-s2,v1=1", "s1=0", "s2=-s3", "v1=1"]
    if rank >= 2:
        fixed += ["s3=-s1-s2,v2=v1", "s1=v1-v2"]
    if rank >= 3:
        fixed.append("v1=v3")
    text = data.draw(st.one_of(st.sampled_from(fixed),
                               _affine_assignments(rank)))
    spec = parse_specialization(rank, text) if text else None
    assert (_outcome(_texts, assemble_vertex, rank, twist, order, mode, spec)
            == _outcome(_texts, assemble_vertex_enumerated, rank, twist,
                        order, mode, spec))


def test_assemble_vertex_matches_enumeration_at_negative_twists():
    """Unspecialized series at negative twists, where the two roads meet
    the forms with no torus part: in paper mode a denominator factor
    that is a difference of frame parameters, whose sign flips under
    the exchange of summands, and in character mode the unit monomial,
    which must fail on the same share on both roads."""
    outcomes = set()
    for rank in (1, 2, 3):
        for twist in (-3, -2, -1):
            for mode in MODES:
                got = _outcome(_texts, assemble_vertex, rank, twist, 3, mode)
                assert got == _outcome(_texts, assemble_vertex_enumerated,
                                       rank, twist, 3, mode)
                outcomes.add(type(got))
    assert outcomes == {list, tuple}



@st.composite
def _series_cases(draw):
    """Rank 1 to 4, twist -4 to 3, either mode, with no specialization,
    a fixed one or a drawn affine one, and an order up to the size the
    whole share oracle takes in milliseconds."""
    rank = draw(st.integers(1, 4))
    order = draw(st.integers(0, (12, 6, 4, 3)[rank - 1]))
    twist = draw(st.integers(-4, 3))
    mode = draw(st.sampled_from(MODES))
    fixed = ["", "s3=-s1-s2", "s3=-s1-s2,v1=1", "s1=0", "s2=-s3", "v1=1",
             "s1=s2+1"]
    if rank >= 2:
        fixed += ["s3=-s1-s2,v2=v1", "s1=v1-v2"]
    text = draw(st.one_of(st.sampled_from(fixed),
                          _affine_assignments(rank)))
    return rank, twist, order, mode, text


@settings(deadline=None, max_examples=300)
@given(_series_cases())
@example((1, -3, 5, "character", ""))  # the unit monomial at a = 3
@example((1, -2, 4, "paper", ""))  # a zero denominator at a = 2
@example((3, 1, 4, "paper", "s1=v1-v2"))  # frame forms specialized
@example((2, 0, 6, "character", "s3=-s1-s2,v2=v1"))
@example((4, 0, 3, "character", "s1=0"))  # a denominator killed
# the first failing step is on a summand j < r - 1 at a = 2
@example((2, 0, 4, "character", "v1=v2+2*s1"))
@example((3, 1, 4, "character", "v1=v2-3*s1"))
def test_assemble_vertex_matches_the_whole_share_road(case):
    """Each first leg share built from the one before times a one box
    share gives the coefficients, or the error class and message, of
    the shares built from the whole character (or all the printed
    factors) at each order."""
    rank, twist, order, mode, text = case
    spec = parse_specialization(rank, text) if text else None
    got = _outcome(assemble_vertex, rank, twist, order, mode, spec)
    assert got == _outcome(assemble_vertex_whole, rank, twist, order, mode,
                           spec), case


_TWENTY_DIGITS = st.integers(10**19, 10**20 - 1)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 16),
       st.one_of(st.integers(-4, 40), _TWENTY_DIGITS,
                 _TWENTY_DIGITS.map(lambda t: -t)),
       st.sampled_from(MODES))
@example(1, -1, "character")  # the unit monomial
@example(16, -1, "character")
@example(3, -1, "paper")
def test_one_box_share_is_the_share_of_the_one_box_character(rank, twist,
                                                             mode):
    """The closed product of linear forms is the share that the one box
    character gives, in value or in error class and message."""
    context = "contribution of a box at twist %d" % twist
    assert (_outcome(_one_box_share, rank, twist, mode, context)
            == _outcome(_share, VariableSet(rank), 1, 0, twist, mode,
                        context))


def test_the_series_road_builds_no_character(monkeypatch):
    def refused(*args):
        raise AssertionError("total_character called")

    monkeypatch.setattr(localize, "total_character", refused)
    spec = parse_specialization(2, "s3=-s1-s2")
    for mode in MODES:
        assemble_vertex(3, 1, 4, mode)
        assemble_vertex(2, 0, 5, mode, spec)
    series.compare_rows(2, 1, 4)
    series.compare_rows(2, 0, 4, spec)


def test_a_successful_run_formats_no_context(monkeypatch):
    """Error contexts are functions, called only when an error is
    raised: a run that succeeds never renders a fixed point."""
    def refused(self):
        raise AssertionError("BoxTuple rendered")

    monkeypatch.setattr(fixedpoints.BoxTuple, "__repr__", refused)
    spec = parse_specialization(2, "s3=-s1-s2")
    for mode in MODES:
        assemble_vertex(3, 1, 4, mode)
        assemble_vertex(2, 0, 5, mode, spec)
        contribution(VARS[2], BoxTuple((2, 1), (0, 3)), 1, mode)
    series.compare_rows(2, 1, 4)
    series.compare_rows(2, 0, 4, spec)


def test_assemble_vertex_specializes_each_step_once(monkeypatch):
    """The forms ``assemble_vertex`` hands to ``specialize`` grow
    linearly with the order: each one box step, two forms at rank one,
    is specialized once, never a whole share of a boxes."""
    sizes = []

    def counted(wf, spec, context=None):
        sizes.append(len(wf.num) + len(wf.den))
        return specialize(wf, spec, context)

    monkeypatch.setattr(series, "specialize", counted)
    assemble_vertex(1, 0, 50, "character",
                    parse_specialization(1, "s3=-s1-s2"))
    assert sizes == [2] * 50


@pytest.mark.parametrize("case, box", [
    ((2, 0, 4, "character", "v1=v2+2*s1"), "alpha=(2, 0)"),
    ((3, 1, 4, "character", "v1=v2-3*s1"), "alpha=(0, 2, 0)")])
def test_a_refused_step_names_its_summand_and_order(case, box):
    rank, twist, order, mode, text = case
    with pytest.raises(DivisionByZero) as err:
        assemble_vertex(rank, twist, order, mode,
                        parse_specialization(rank, text))
    assert box in str(err.value)
    assert str(err.value).endswith(" at twist %d" % twist)
