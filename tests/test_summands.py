"""Contributions as products over frame summands.

``localize.contribution`` builds the factors of each frame summand that
carries boxes from the fixed point that keeps only that summand's
boxes, and ``series.assemble_vertex`` multiplies the leg series of the
frame summands, each the exchange of the last one.  These tests check
the split of the character it rests on, the zero blocks of empty
summands, the contribution against the whole character road of
``oracles``, its symmetry under an exchange of summands, and the vertex
series, values and errors alike, against the stratum by stratum sum of
``oracles``.
"""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from hftvertex.chars import HftError, LaurentPoly, VariableSet
from hftvertex.fixedpoints import BoxTuple, enumerate_fixed
from hftvertex.localize import (contribution, parse_specialization,
                                specialize, weight_function)
from hftvertex.series import assemble_vertex, weight_sum, ws_text
from hftvertex.vertexchar import alpha_block, beta_block, total_character
from oracles import assemble_vertex_enumerated, contribution_whole, leg_strata
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


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_contribution_matches_whole_character_on_random_boxes(data):
    # negative twists reach the zero weights, so the errors and the
    # fixed point they name are compared too
    rank = data.draw(st.integers(1, 4))
    counts = st.lists(st.integers(0, 3), min_size=rank, max_size=rank)
    box = BoxTuple(data.draw(counts), data.draw(counts))
    twist = data.draw(st.integers(-3, 3))
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
                    assert list(got.coefficients) == want, (
                        rank, twist, mode, spec)


def _texts(build, *args):
    return [ws_text(c) for c in build(*args).coefficients]


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
