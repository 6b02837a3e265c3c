"""Closed form characters of the fixed points.

The character of a fixed point is written per frame summand as finite
geometric blocks on the two chart legs, and their sum reduces by exact
division to an honest Laurent polynomial.  The blocks of a summand
without boxes are zero and are not added, so the character of a fixed
point is the sum of the characters of the fixed points that keep one
summand's boxes each.  That is the only road the package takes; the
raw road through the two chart traces and the edge terms lives in the
tests as an independent oracle.
"""

from __future__ import annotations

from .chars import (LaurentPoly, Monomial, RationalCharacter, VariableSet,
                    VariableSetMismatch)
from .fixedpoints import BoxTuple


def frame_sum(vars: VariableSet) -> LaurentPoly:
    """Character of the frame: w1 + ... + wr."""
    out = LaurentPoly.zero(vars)
    for j in range(vars.rank):
        out = out + LaurentPoly.monomial(vars, vars.mono(w=_ws(vars, j)))
    return out


def frame_sum_inv(vars: VariableSet) -> LaurentPoly:
    """Character of the dual frame: w1^-1 + ... + wr^-1."""
    return frame_sum(vars).bar()


def _ws(vars: VariableSet, j: int) -> list[int]:
    ws = [0] * vars.rank
    ws[j] = 1
    return ws


def geometric_sum(vars: VariableSet, first: Monomial, ratio: Monomial,
                  count: int) -> RationalCharacter:
    """The finite sum first*(1 + ratio + ... + ratio^(count-1)) written
    as (first - first*ratio^count)/(1 - ratio)."""
    if count < 0:
        raise ValueError("negative term count")
    if count == 0:
        return RationalCharacter.constant(vars, 0)
    first = tuple(first)
    last = tuple(a + count * b for a, b in zip(first, ratio))
    num = (LaurentPoly.monomial(vars, first)
           - LaurentPoly.monomial(vars, last))
    return RationalCharacter(vars, num, (tuple(ratio),))


def alpha_block(vars: VariableSet, j: int, boxes: int,
                twist: int) -> RationalCharacter:
    """Closed form share of frame summand j with ``boxes`` boxes on the
    first chart leg at the given twist; zero without boxes."""
    if boxes == 0:
        return RationalCharacter.constant(vars, 0)
    swi = frame_sum_inv(vars)
    sw = frame_sum(vars)
    up = geometric_sum(
        vars, vars.mono(t1=-twist - 1, w=_ws(vars, j)),
        vars.mono(t1=-1), boxes)
    down = geometric_sum(
        vars, vars.mono(t1=twist, t2=-1, t3=-1,
                        w=[-x for x in _ws(vars, j)]),
        vars.mono(t1=1), boxes)
    return up * swi - down * sw


def beta_block(vars: VariableSet, j: int, boxes: int) -> RationalCharacter:
    """Closed form share of frame summand j with ``boxes`` boxes on the
    second chart leg; independent of the twist, and zero without
    boxes."""
    if boxes == 0:
        return RationalCharacter.constant(vars, 0)
    swi = frame_sum_inv(vars)
    sw = frame_sum(vars)
    up = geometric_sum(
        vars, vars.mono(t1=1, w=_ws(vars, j)), vars.mono(t1=1), boxes)
    down = geometric_sum(
        vars, vars.mono(t1=-2, t2=-1, t3=-1,
                        w=[-x for x in _ws(vars, j)]),
        vars.mono(t1=-1), boxes)
    return up * swi - down * sw


def total_character(vars: VariableSet, box: BoxTuple,
                    twist: int) -> LaurentPoly:
    """Closed form character of the fixed point: the sum over frame
    summands of the two chart blocks, reduced to an honest Laurent
    polynomial by exact division.  The blocks of a summand without
    boxes are zero and add nothing, so only summands with boxes are
    built."""
    if box.rank != vars.rank:
        raise VariableSetMismatch(
            "box tuple of rank %d over variables of rank %d"
            % (box.rank, vars.rank))
    acc = RationalCharacter.constant(vars, 0)
    for j in range(box.rank):
        if not box.alpha[j] and not box.beta[j]:
            continue
        acc = acc + alpha_block(vars, j, box.alpha[j], twist)
        acc = acc + beta_block(vars, j, box.beta[j])
    return acc.reduced()
