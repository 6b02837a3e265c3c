"""Closed form characters of the fixed points.

The character of a fixed point is written per frame summand as two
blocks on the two chart legs.  One builder makes both: a block is
``up * W^ - down * W`` over the frame sum W, built once, where ``up``
and ``down`` are finite geometric sums of monomials, and the two legs
differ only in their four exponents of t1.  So the character is a
Laurent polynomial built with no quotient and no division.  The blocks
of a summand without boxes are zero and are not added, so the character
of a fixed point is the sum of the characters of the fixed points that
keep one summand's boxes each.  That is the only road the package
takes; the tests keep the blocks written as quotients and the raw road
through the chart traces and edge terms as oracles.
"""

from __future__ import annotations

from collections import Counter

from .chars import LaurentPoly, Monomial, VariableSet, VariableSetMismatch
from .fixedpoints import BoxTuple


def frame_sum(vars: VariableSet) -> LaurentPoly:
    """Character of the frame: w1 + ... + wr."""
    return LaurentPoly(vars, {vars.mono(w=[0] * j + [1]): 1
                              for j in range(vars.rank)})


def geometric_sum(vars: VariableSet, first: Monomial, ratio: Monomial,
                  count: int) -> LaurentPoly:
    """The finite sum first*(1 + ratio + ... + ratio^(count-1)); a unit
    ratio gives count*first."""
    if count < 0:
        raise ValueError("negative term count")
    return LaurentPoly(vars, Counter(
        tuple(a + i * b for a, b in zip(first, ratio)) for i in range(count)))


def _block(vars: VariableSet, j: int, boxes: int, up_first: int,
           up_ratio: int, down_first: int, down_ratio: int) -> LaurentPoly:
    """``up * W^ - down * W`` over the frame sum W, zero without boxes:
    ``up`` sums ``boxes`` terms from t1^up_first*wj with ratio
    t1^up_ratio, and ``down`` from t1^down_first/(t2*t3*wj) with ratio
    t1^down_ratio."""
    if not 0 <= j < vars.rank:
        raise VariableSetMismatch(
            "no frame summand %d at rank %d" % (j, vars.rank))
    if boxes == 0:
        return LaurentPoly.zero(vars)
    sw = frame_sum(vars)
    up = geometric_sum(vars, vars.mono(t1=up_first, w=[0] * j + [1]),
                       vars.mono(t1=up_ratio), boxes)
    down = geometric_sum(
        vars, vars.mono(t1=down_first, t2=-1, t3=-1, w=[0] * j + [-1]),
        vars.mono(t1=down_ratio), boxes)
    return up * sw.bar() - down * sw


def alpha_block(vars: VariableSet, j: int, boxes: int,
                twist: int) -> LaurentPoly:
    """Closed form share of frame summand j with ``boxes`` boxes on the
    first chart leg at the given twist; zero without boxes."""
    return _block(vars, j, boxes, -twist - 1, -1, twist, 1)


def beta_block(vars: VariableSet, j: int, boxes: int) -> LaurentPoly:
    """Closed form share of frame summand j with ``boxes`` boxes on the
    second chart leg; independent of the twist, and zero without
    boxes."""
    return _block(vars, j, boxes, 1, 1, -2, -1)


def total_character(vars: VariableSet, box: BoxTuple,
                    twist: int) -> LaurentPoly:
    """Closed form character of the fixed point: the sum over frame
    summands of the two chart blocks, each a finite sum of monomials.
    The blocks of a summand without boxes are zero and add nothing, so
    only summands with boxes are built."""
    if box.rank != vars.rank:
        raise VariableSetMismatch(
            "box tuple of rank %d over variables of rank %d"
            % (box.rank, vars.rank))
    acc = LaurentPoly.zero(vars)
    for j in range(box.rank):
        if not box.alpha[j] and not box.beta[j]:
            continue
        acc = acc + alpha_block(vars, j, box.alpha[j], twist)
        acc = acc + beta_block(vars, j, box.beta[j])
    return acc
