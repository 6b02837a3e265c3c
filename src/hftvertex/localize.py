"""Equivariant weights, Euler class contributions, and specialization.

A character monomial determines a linear weight in the equivariant
parameters s1, s2, s3, v1, ..., vr: the exponent vector read off as
coefficients.  The fixed point contribution is a product of such linear
forms divided by another such product, stored exactly as a
``WeightFunction``: a rational scalar together with two sorted multisets
of primitive integer forms.  Two contributions are equal exactly when
their canonical forms coincide.

Specializations substitute affine rational expressions for parameters,
for example the Calabi Yau slice s3 = -s1 - s2.  A specialized factor
either stays a genuine linear form, collapses to a nonzero constant that
folds into the scalar, or collapses to zero, which is an error that
names the offending configuration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .chars import HftError, LaurentPoly, VariableSet, VariableSetMismatch
from .fixedpoints import BoxTuple
from .vertexchar import total_character

WeightForm = tuple[int, ...]


class ZeroWeight(HftError):
    """A weight that must be a moving direction came out zero."""


class NonIntegerMultiplicity(HftError):
    """A character coefficient was not an integer, so it cannot be a
    multiplicity of weights."""


class DivisionByZero(HftError):
    """A denominator factor collapsed to zero."""


class ModeUnavailable(HftError):
    """An unknown contribution mode was requested."""


class AffineWeight(HftError):
    """A specialized factor came out affine: neither a linear form nor a
    constant, so it has no place in a weight function."""


class SpecializationSyntax(HftError):
    """A specialization string could not be parsed."""


def param_names(rank: int) -> tuple[str, ...]:
    return ("s1", "s2", "s3") + tuple(
        "v%d" % (j + 1) for j in range(rank))


def form_text(rank: int, form: Sequence) -> str:
    """Render a linear form, for example ``2*s1 - s2 + v1``."""
    names = param_names(rank)
    if len(form) != len(names):
        raise VariableSetMismatch(
            "form of length %d for rank %d" % (len(form), rank))
    parts: list[str] = []
    for name, coeff in zip(names, form):
        c = Fraction(coeff)
        if not c:
            continue
        mag = abs(c)
        body = name if mag == 1 else "%s*%s" % (mag, name)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts) if parts else "0"


def _primitive(vec: Sequence[Fraction | int]) -> tuple[Fraction, WeightForm]:
    """Write a nonzero rational vector as scale * primitive integer
    vector with positive first nonzero entry and content one."""
    fr = [Fraction(x) for x in vec]
    scale_den = lcm(*(f.denominator for f in fr)) if fr else 1
    ints = [int(f * scale_den) for f in fr]
    content = 0
    for x in ints:
        content = gcd(content, x)
    first = next(x for x in ints if x)
    if first < 0:
        content = -content
    prim = tuple(x // content for x in ints)
    return (Fraction(content, scale_den), prim)


@dataclass(frozen=True)
class WeightFunction:
    """Canonical product of linear forms over a product of linear forms,
    times a rational scalar.  Instances are only built through
    ``weight_function``, which canonicalizes; equality of canonical
    instances is equality of values."""

    rank: int
    scalar: Fraction
    num: tuple[WeightForm, ...]
    den: tuple[WeightForm, ...]

    def is_zero(self) -> bool:
        return not self.scalar

    def _check(self, other: WeightFunction) -> None:
        if self.rank != other.rank:
            raise VariableSetMismatch(
                "weight functions of ranks %d and %d" % (self.rank,
                                                         other.rank))

    def __mul__(self, other: WeightFunction) -> WeightFunction:
        if not isinstance(other, WeightFunction):
            return NotImplemented
        self._check(other)
        return weight_function(self.rank, self.scalar * other.scalar,
                               self.num + other.num, self.den + other.den)

    def __truediv__(self, other: WeightFunction) -> WeightFunction:
        if not isinstance(other, WeightFunction):
            return NotImplemented
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero weight function")
        return weight_function(self.rank, self.scalar / other.scalar,
                               self.num + other.den, self.den + other.num)

    def scaled(self, value: Fraction | int) -> WeightFunction:
        return weight_function(self.rank, self.scalar * Fraction(value),
                               self.num, self.den)

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact value at a rational parameter point."""
        pt = [Fraction(x) for x in point]
        if len(pt) != 3 + self.rank:
            raise VariableSetMismatch(
                "point of length %d for rank %d" % (len(pt), self.rank))
        value = self.scalar
        for f in self.num:
            value *= sum(a * b for a, b in zip(f, pt))
        for f in self.den:
            d = sum(a * b for a, b in zip(f, pt))
            if not d:
                raise DivisionByZero(
                    "factor %s vanishes at the evaluation point"
                    % form_text(self.rank, f))
            value /= d
        return value

    def to_json(self) -> dict:
        return {"scalar": str(self.scalar),
                "num": [list(f) for f in self.num],
                "den": [list(f) for f in self.den]}

    @classmethod
    def from_json(cls, rank: int, data) -> WeightFunction:
        return weight_function(
            rank, Fraction(data["scalar"]),
            [tuple(f) for f in data["num"]],
            [tuple(f) for f in data["den"]])

    def text(self) -> str:
        if not self.num and not self.den:
            return str(self.scalar)
        num_txt = "*".join("(%s)" % form_text(self.rank, f)
                           for f in self.num)
        out = num_txt if num_txt else "1"
        if self.scalar != 1 or not num_txt:
            out = "%s * %s" % (self.scalar, out) if num_txt else str(
                self.scalar)
        if self.den:
            out += "/" + "*".join("(%s)" % form_text(self.rank, f)
                                  for f in self.den)
        return out

    def __repr__(self) -> str:
        return self.text()


def _primitive_forms(rank: int, forms: Sequence[Sequence], s: Fraction,
                     den: bool, where: str
                     ) -> tuple[Fraction, list[WeightForm]]:
    """Primitive representatives of the numerator (or, with ``den``,
    the denominator) forms, sorted, with their scales folded into the
    scalar ``s``."""
    prims: list[WeightForm] = []
    for f in forms:
        vec = tuple(Fraction(x) for x in f)
        if len(vec) != 3 + rank:
            raise VariableSetMismatch(
                "form of length %d for rank %d" % (len(vec), rank))
        if not any(vec):
            if den:
                raise DivisionByZero("zero weight in a denominator%s" % where)
            raise ZeroWeight("zero weight in a numerator%s" % where)
        lam, prim = _primitive(vec)
        s = s / lam if den else s * lam
        prims.append(prim)
    prims.sort()
    return s, prims


def weight_function(rank: int, scalar: Fraction | int,
                    num: Sequence[Sequence] = (),
                    den: Sequence[Sequence] = (),
                    context: str | None = None) -> WeightFunction:
    """Canonical constructor.  Forms may have rational entries; each is
    rescaled to its primitive integer representative with the scale
    folded into the scalar.  Identical factors shared by numerator and
    denominator cancel as multisets."""
    s = Fraction(scalar)
    where = " in %s" % context if context else ""
    if not s:
        return WeightFunction(rank, s, (), ())
    s, nn = _primitive_forms(rank, num, s, False, where)
    s, dd = _primitive_forms(rank, den, s, True, where)
    i = j = 0
    keep_n: list[WeightForm] = []
    keep_d: list[WeightForm] = []
    while i < len(nn) and j < len(dd):
        if nn[i] == dd[j]:
            i += 1
            j += 1
        elif nn[i] < dd[j]:
            keep_n.append(nn[i])
            i += 1
        else:
            keep_d.append(dd[j])
            j += 1
    keep_n.extend(nn[i:])
    keep_d.extend(dd[j:])
    return WeightFunction(rank, s, tuple(keep_n), tuple(keep_d))


def weights_of(poly: LaurentPoly) -> list[tuple[int, WeightForm]]:
    """Signed multiset of weights of a character: each monomial term
    yields its exponent vector with multiplicity the absolute value of
    its integer coefficient and the sign of that coefficient.

    A term on the unit monomial would be a zero weight and raises
    ``ZeroWeight``; a non integer coefficient raises
    ``NonIntegerMultiplicity``.
    """
    out: list[tuple[int, WeightForm]] = []
    unit = poly.vars.unit()
    for exps, coeff in poly.sorted_terms():
        if coeff.denominator != 1:
            raise NonIntegerMultiplicity(
                "coefficient %s on %s is not an integer"
                % (coeff, exps))
        if exps == unit:
            raise ZeroWeight("character carries a unit monomial term")
        n = int(coeff)
        sign = 1 if n > 0 else -1
        out.extend([(sign, exps)] * abs(n))
    return out


def euler_of_minus(rank: int, weights: Sequence[tuple[int, WeightForm]],
                   context: str | None = None) -> WeightFunction:
    """Equivariant Euler class of the negative of a signed weight
    multiset: positive weights divide, negative weights multiply."""
    num = [f for sign, f in weights if sign < 0]
    den = [f for sign, f in weights if sign > 0]
    return weight_function(rank, 1, num, den, context)


def _cross_shifts(rank: int, j: int) -> tuple[list[int], list[int]]:
    """Frame parts of the printed factor formulas, as coefficient
    vectors over (s1, s2, s3, v1, ..., vr).

    Rank one has no frame shifts.  Rank two shifts the numerator factors
    by the difference of the other frame parameter with the own one, and
    the denominator factors by the opposite difference.  Above rank two
    the printed general form is used verbatim: the numerator shift is
    the sum of all frame parameters minus the own one, the denominator
    shift the own one plus the alternating sign of the full sum.
    """
    num = [0] * (3 + rank)
    den = [0] * (3 + rank)
    if rank == 1:
        return num, den
    if rank == 2:
        other = 1 - j
        num[3 + other] += 1
        num[3 + j] -= 1
        den[3 + j] += 1
        den[3 + other] -= 1
        return num, den
    alt = 1 if (rank - 1) % 2 == 0 else -1
    for l in range(rank):
        num[3 + l] += 1
        den[3 + l] += alt
    num[3 + j] -= 1
    den[3 + j] += 1
    return num, den


def _paper_contribution(rank: int, box: BoxTuple, twist: int,
                        context: str) -> WeightFunction:
    nums: list[list[int]] = []
    dens: list[list[int]] = []
    for j in range(rank):
        load = box.alpha[j] + box.beta[j]
        cross_num, cross_den = _cross_shifts(rank, j)
        for i in range(load):
            f = list(cross_num)
            f[0] += i + twist
            f[1] -= 1
            f[2] -= 1
            nums.append(f)
        for i in range(1, load + 1):
            f = list(cross_den)
            f[0] -= i + twist
            dens.append(f)
    return weight_function(rank, 1, nums, dens, context)


def contribution(vars: VariableSet, box: BoxTuple, twist: int,
                 mode: str = "character") -> WeightFunction:
    """Localization contribution of one fixed point.

    Mode ``character`` derives the weights from the closed form
    character of the fixed point and takes the Euler class of its
    negative.  Mode ``paper`` evaluates the printed per summand factor
    formulas instead; the two modes agree in rank one at twist zero and
    are both kept so their outputs can be compared elsewhere.
    """
    if box.rank != vars.rank:
        raise VariableSetMismatch(
            "box tuple of rank %d over variables of rank %d"
            % (box.rank, vars.rank))
    if mode not in ("character", "paper"):
        raise ModeUnavailable("unknown contribution mode %r" % (mode,))
    context = "contribution of %r at twist %d" % (box, twist)
    if mode == "character":
        poly = total_character(vars, box, twist)
        return euler_of_minus(vars.rank, weights_of(poly), context)
    return _paper_contribution(vars.rank, box, twist, context)


@dataclass(frozen=True)
class SpecStep:
    """One assignment: parameter index -> constant + linear part."""

    target: int
    const: Fraction
    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class Specialization:
    """Ordered parameter assignments, applied left to right."""

    rank: int
    steps: tuple[SpecStep, ...]
    source: str

    def is_trivial(self) -> bool:
        return not self.steps


_CONST_RE = re.compile(r"\d+(?:/\d+)?$")
_TERM_RE = re.compile(r"(?:(\d+(?:/\d+)?)\*)?([sv]\d+)$")


def _var_index(rank: int, name: str) -> int:
    names = param_names(rank)
    try:
        return names.index(name)
    except ValueError:
        raise SpecializationSyntax(
            "unknown parameter %r for rank %d" % (name, rank)) from None


def _parse_affine(rank: int, expr: str) -> tuple[Fraction, list[Fraction]]:
    text = expr.replace(" ", "")
    if not text:
        raise SpecializationSyntax("empty right hand side")
    chunks = re.findall(r"[+-]?[^+-]+", text)
    if "".join(chunks) != text:
        raise SpecializationSyntax("cannot parse %r" % expr)
    const = Fraction(0)
    coeffs = [Fraction(0)] * (3 + rank)
    for chunk in chunks:
        sign = 1
        body = chunk
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if not body:
            raise SpecializationSyntax("dangling sign in %r" % expr)
        if _CONST_RE.match(body):
            const += sign * Fraction(body)
            continue
        m = _TERM_RE.match(body)
        if not m:
            raise SpecializationSyntax("cannot parse term %r" % chunk)
        coef = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        coeffs[_var_index(rank, m.group(2))] += sign * coef
    return const, coeffs


def parse_specialization(rank: int, text: str | None) -> Specialization:
    """Parse a comma separated assignment list such as
    ``s3=-s1-s2, v1=1``.

    Each right hand side is an affine rational combination of the
    parameters: signed terms that are rational constants or rational
    multiples of a parameter written like ``2*s1`` or ``1/2*v1``.  An
    assignment may not mention its own left hand side.  Assignments
    apply in the order given.
    """
    src = (text or "").strip()
    if not src:
        return Specialization(rank, (), "")
    steps: list[SpecStep] = []
    for piece in src.split(","):
        if "=" not in piece:
            raise SpecializationSyntax(
                "expected name=expression, got %r" % piece.strip())
        name, _, expr = piece.partition("=")
        target = _var_index(rank, name.strip())
        const, coeffs = _parse_affine(rank, expr)
        if coeffs[target]:
            raise SpecializationSyntax(
                "assignment for %s mentions itself" % name.strip())
        steps.append(SpecStep(target, const, tuple(coeffs)))
    return Specialization(rank, tuple(steps), src)


def specialize_form(spec: Specialization,
                    form: Sequence) -> tuple[Fraction, list[Fraction]]:
    """Apply the assignments to a linear form, returning the constant
    part and the remaining linear part."""
    vec = [Fraction(x) for x in form]
    if len(vec) != 3 + spec.rank:
        raise VariableSetMismatch(
            "form of length %d for rank %d" % (len(vec), spec.rank))
    const = Fraction(0)
    for step in spec.steps:
        c = vec[step.target]
        if not c:
            continue
        vec[step.target] = Fraction(0)
        const += c * step.const
        for i, b in enumerate(step.coeffs):
            if b:
                vec[i] += c * b
    return const, vec


def specialize(wf: WeightFunction, spec: Specialization | None,
               context: str | None = None) -> WeightFunction:
    """Specialized weight function.

    Factors that stay linear survive; factors that collapse to a
    nonzero constant fold into the scalar; a factor collapsing to zero
    raises ``ZeroWeight`` from a numerator and ``DivisionByZero`` from a
    denominator, and a factor left with both a constant and a linear
    part raises ``AffineWeight``.  Error messages carry the context and
    the offending factor.
    """
    if spec is None or spec.is_trivial() or wf.is_zero():
        return wf
    if spec.rank != wf.rank:
        raise VariableSetMismatch(
            "specialization of rank %d on a weight function of rank %d"
            % (spec.rank, wf.rank))
    where = " in %s" % context if context else ""
    scalar, nums = _specialize_forms(spec, wf.num, wf.scalar, False, where)
    scalar, dens = _specialize_forms(spec, wf.den, scalar, True, where)
    return weight_function(wf.rank, scalar, nums, dens, context)


def _specialize_forms(spec: Specialization, forms: Sequence[WeightForm],
                      scalar: Fraction, den: bool, where: str
                      ) -> tuple[Fraction, list[list[Fraction]]]:
    """Specialize the numerator (or, with ``den``, the denominator)
    factors: linear ones are kept, constant ones fold into ``scalar``."""
    kept: list[list[Fraction]] = []
    for f in forms:
        const, vec = specialize_form(spec, f)
        if any(vec):
            if const:
                raise AffineWeight(
                    "factor %s specializes to an affine expression%s"
                    % (form_text(spec.rank, f), where))
            kept.append(vec)
        elif const:
            scalar = scalar / const if den else scalar * const
        elif den:
            raise DivisionByZero(
                "denominator factor %s specializes to zero%s"
                % (form_text(spec.rank, f), where))
        else:
            raise ZeroWeight(
                "numerator factor %s specializes to zero%s"
                % (form_text(spec.rank, f), where))
    return scalar, kept
