"""Command line interface.

Four subcommands cover the pipeline: ``vertex`` assembles a vertex
series, ``compare`` tabulates the contribution modes against the closed
form, ``partition`` builds twisted rank r count series from a count
file, and ``stability`` evaluates the stability checks on a model file.
The series functions return their coefficients; this module renders
every output, text and JSON alike.

Exit codes: 0 on success, 1 when a computation fails on valid syntax
(for example a specialization that kills a denominator), 2 on usage,
parse, or file format errors, and on files that cannot be read or
written.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from fractions import Fraction
from itertools import chain
from math import comb

from .chars import HftError
from .fixedpoints import (FrozenTripleModel, InvalidModel, hilbert_poly,
                          limit_stable_equiv, tau_stability_check)
from .localize import (Specialization, SpecializationSyntax, WeightForm,
                       WeightFunction, _wf_text, parse_specialization)
from .series import (InvalidCounts, WeightSum, _OUTPUT_DIGITS,
                     assemble_vertex, closed_form_series, compare_rows,
                     hft_partition)


class UsageError(Exception):
    """Bad input files or argument values: reported with exit code 2."""


def _int_at_least(low: int):
    """Argument type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected an integer, got %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (low, value))
        return value
    return parse


_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)

# Size limits: the work of ``vertex`` and ``compare`` grows with the
# number C(order + rank, rank) of first leg fixed points, the rank and
# the digits of the twist and the specialization, whose parsing takes
# seconds at 100,000 characters; that of ``partition`` with the rank and
# the order squared.  A specialization adds one one box step per order
# and summand.  At the limits a run takes at most about 0.4 s on a
# 2-core VM, ``compare --rank 16 --order 2``, most of it in the equality
# checks; a ``compare`` whose output cannot be printed stops before
# them.
_MAX_RANK = 16
_MAX_FIXED_POINTS = 400
_MAX_PARTITION_ORDER = 1000
_MAX_DIGITS = 20
_MAX_SPECIALIZE_CHARS = 10_000


def _check_size(args) -> None:
    if args.rank > _MAX_RANK:
        raise UsageError("rank %d is past the limit of %d"
                         % (args.rank, _MAX_RANK))
    if args.command == "partition":
        if args.order > _MAX_PARTITION_ORDER:
            raise UsageError("order %d is past the limit of %d"
                             % (args.order, _MAX_PARTITION_ORDER))
    elif comb(args.order + args.rank, args.rank) > _MAX_FIXED_POINTS:
        raise UsageError(
            "order %d at rank %d is past the limit: the series may sum "
            "over at most %d fixed points, C(order + rank, rank)"
            % (args.order, args.rank, _MAX_FIXED_POINTS))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hftvertex",
        description="Exact equivariant vertex series for framed rank r "
                    "pairs on the resolved conifold.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"),
                       default="text", help="output format")
        p.add_argument("--out", metavar="PATH",
                       help="write output to a file instead of stdout")

    def series_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rank", type=_positive, default=1)
        p.add_argument("--twist", type=_nonnegative, default=0)
        p.add_argument("--order", type=_nonnegative, default=4)
        p.add_argument("--specialize", default="",
                       help="comma separated assignments, e.g. "
                            "'s3=-s1-s2,v1=1'")
        common(p)

    p = sub.add_parser("vertex", help="assemble a vertex series")
    p.add_argument("--mode",
                   choices=("character", "paper", "closed_form"),
                   default="character")
    series_options(p)

    series_options(sub.add_parser(
        "compare", help="tabulate contribution modes and closed form"))

    p = sub.add_parser("partition",
                       help="twisted rank r count series from a count file")
    p.add_argument("--p-file", required=True, metavar="PATH",
                   help="JSON object mapping box totals to counts")
    p.add_argument("--twist", type=_nonnegative, default=1)
    p.add_argument("--rank", type=_positive, default=1)
    p.add_argument("--order", type=_nonnegative, default=10)
    common(p)

    p = sub.add_parser("stability",
                       help="stability checks on a model file")
    p.add_argument("--model-file", required=True, metavar="PATH",
                   help="JSON description of a framed triple model")
    p.add_argument("--q-poly", required=True,
                   help="comma separated coefficients, lowest degree "
                        "first, e.g. '0,0,1'")
    common(p)
    return parser


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise UsageError("cannot read %s: %s" % (path, err)) from None
    # ValueError covers JSONDecodeError, UnicodeDecodeError and integers
    # past the digit limit of int(); RecursionError, nesting too deep
    except (ValueError, RecursionError) as err:
        raise UsageError("%s is not valid JSON: %s" % (path, err)) from None


def _parse_model(data) -> FrozenTripleModel:
    if not isinstance(data, dict):
        raise UsageError("model file must be a JSON object")
    try:
        return FrozenTripleModel.from_json(data)
    except KeyError as err:
        raise UsageError("bad model file: missing field %s" % err) from None
    except (ValueError, TypeError, ZeroDivisionError, InvalidModel) as err:
        raise UsageError("bad model file: %s" % err) from None


def _parse_q(text: str) -> tuple[Fraction, ...]:
    try:
        return hilbert_poly(text.split(","))
    except (ValueError, ZeroDivisionError):
        raise UsageError("bad q polynomial %r" % text) from None


def _ws_text(a: WeightSum, forms: dict[WeightForm, str]) -> str:
    """Render ``a`` with the form texts of ``forms``, which the caller
    keeps for one output (see ``_wf_text``)."""
    if not a:
        return "0"
    out = _wf_text(a[0], forms)
    for wf in a[1:]:
        t = _wf_text(wf, forms)
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def _wf_json(wf: WeightFunction) -> dict:
    """The JSON form of ``wf``: its forms stay tuples, which
    ``_json_text`` joins once per value and depth."""
    return {"scalar": str(wf.scalar), "num": list(wf.num),
            "den": list(wf.den)}


def _ws_json(a: WeightSum):
    """The JSON form of ``a``: one weight function, a list of them, or
    the zero function when ``a`` is empty."""
    if not a:
        return {"scalar": "0", "num": [], "den": []}
    if len(a) == 1:
        return _wf_json(a[0])
    return [_wf_json(wf) for wf in a]


def _json_text(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte, for
    a document of str-keyed dicts, lists, tuples, strings, ints, booleans
    and None; any other value or key, a float included, raises
    ``TypeError``.  Every tuple must be a ``WeightForm``, which holds
    ints and no bools, so that equal tuples have one text.

    For an indented dump the stdlib runs its pure-Python encoder.  Here
    strings go through its C escaper, and the text of a tuple among the
    items of a list is joined once per value and depth: a series
    document holds its weight forms as tuples in lists, and the same few
    recur many times."""
    escape = json.encoder.encode_basestring_ascii
    # texts[indent] maps each tuple written at that depth to its text
    texts: dict[str, dict[tuple, str]] = {}
    parts: list[str] = []
    put = parts.append

    def tuple_text(v: tuple, indent: str) -> str:
        inner = indent + "  "
        text = "[%s%s%s]" % (inner, ("," + inner).join(
            map(int.__repr__, v)), indent) if v else "[]"
        texts.setdefault(indent, {})[v] = text
        return text

    def write(v, indent: str) -> None:
        # indent is the newline and indentation that close v
        if isinstance(v, tuple):
            put(tuple_text(v, indent))
        elif isinstance(v, list):
            if not v:
                put("[]")
                return
            inner = indent + "  "
            known = texts.setdefault(inner, {})
            put("[")
            sep, comma = inner, "," + inner
            for x in v:
                put(sep)
                # a tuple written before at this depth, without a call
                if type(x) is tuple:
                    put(known.get(x) or tuple_text(x, inner))
                else:
                    write(x, inner)
                sep = comma
            put(indent + "]")
        elif isinstance(v, dict):
            if not v:
                put("{}")
                return
            inner = indent + "  "
            put("{")
            sep = inner
            for k in sorted(v):
                put(sep)
                put(escape(k))
                put(": ")
                write(v[k], inner)
                sep = "," + inner
            put(indent + "}")
        elif isinstance(v, str):
            put(escape(v))
        elif v is None:
            put("null")
        elif v is True:
            put("true")
        elif v is False:
            put("false")
        elif isinstance(v, int):
            put(int.__repr__(v))
        else:
            raise TypeError("Object of type %s is not JSON serializable"
                            % type(v).__name__)

    write(doc, "\n")
    return "".join(parts)


def _emit(args, doc: Callable[[], dict], text: Callable[[], str]) -> int:
    """Write the JSON document that ``doc`` builds or the text that
    ``text`` renders, as the format option asks, with one final newline.
    Only that form is built: it can cost as much as the computation.  A
    number past the digit limit of ``str()`` fails the run, and a file
    that cannot be written is a usage error."""
    try:
        payload = (_json_text(doc()) if args.format == "json"
                   else text()) + "\n"
    except ValueError:  # str() of an int past its digit limit
        raise HftError(_OUTPUT_DIGITS % sys.get_int_max_str_digits()) \
            from None
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as err:
            raise UsageError("cannot write %s: %s" % (args.out, err)) \
                from None
    else:
        sys.stdout.write(payload)
    return 0


def _series_spec(args) -> Specialization:
    """The specialization of a ``vertex`` or ``compare`` run inside the
    size limits, which also bound the twist, the specialization's length
    and the digits of every integer of its compiled map."""
    _check_size(args)
    if args.twist >= 10 ** _MAX_DIGITS:
        raise UsageError("the twist has more than %d digits" % _MAX_DIGITS)
    if len(args.specialize) > _MAX_SPECIALIZE_CHARS:
        raise UsageError("the specialization has more than %d characters"
                         % _MAX_SPECIALIZE_CHARS)
    spec = parse_specialization(args.rank, args.specialize)
    numbers = (spec.denominator, *chain(*spec.columns))
    if max(map(abs, numbers)) >= 10 ** _MAX_DIGITS:
        raise UsageError(
            "the specialization, composed over one common denominator, "
            "has a number of more than %d digits" % _MAX_DIGITS)
    return spec


def _run_vertex(args) -> int:
    spec = _series_spec(args)
    coefficients = (
        closed_form_series(args.rank, args.twist, args.order, spec)
        if args.mode == "closed_form" else assemble_vertex(
            args.rank, args.twist, args.order, args.mode, spec))

    def doc() -> dict:
        return {"rank": args.rank, "twist": args.twist, "order": args.order,
                "mode": args.mode, "specialization": spec.source,
                "coefficients": [{"k": k, "value": _ws_json(c)}
                                 for k, c in enumerate(coefficients)]}

    def text() -> str:
        forms: dict = {}
        header = "rank %d, twist %d, mode %s%s" % (
            args.rank, args.twist, args.mode,
            ", specialized: %s" % spec.source if spec.source else "")
        return "\n".join([header, *("c[%d] = %s" % (k, _ws_text(c, forms))
                                    for k, c in enumerate(coefficients))])
    return _emit(args, doc, text)


_WS_COLUMNS = ("character", "paper", "closed_form",
               "difference_from_reference")
# one row of the text output, once the weight sums of the row are rendered
_ROW_TEXT = (
    "k = %(k)d\n"
    "  character:   %(character)s\n"
    "  paper:       %(paper)s\n"
    "  closed form: %(closed_form)s\n"
    "  character == paper: %(character_equals_paper)s, character == closed "
    "form: %(character_equals_closed_form)s\n"
    "  difference from reference: %(difference_from_reference)s")


def _run_compare(args) -> int:
    spec = _series_spec(args)
    rows = compare_rows(args.rank, args.twist, args.order, spec)

    def doc() -> dict:
        return {
            "rank": args.rank,
            "twist": args.twist,
            "order": args.order,
            "specialization": spec.source,
            "rows": [{**row, **{c: _ws_json(row[c]) for c in _WS_COLUMNS}}
                     for row in rows],
        }

    def text() -> str:
        forms: dict = {}
        return "\n".join(_ROW_TEXT % {**row, **{
            c: _ws_text(row[c], forms) for c in _WS_COLUMNS}} for row in rows)
    return _emit(args, doc, text)


def _run_partition(args) -> int:
    _check_size(args)
    counts = _load_json(args.p_file)
    if not isinstance(counts, dict):
        raise UsageError("count file must be a JSON object")
    result = hft_partition(counts, args.twist, args.rank, args.order)
    pairs = [[m, str(c)] for m, c in result.items()]
    doc = {"rank": args.rank, "twist": args.twist,
           "order": args.order, "counts": pairs}
    return _emit(args, lambda: doc, lambda: "\n".join(
        "q^%d: %s" % (m, c) for m, c in pairs) or "0")


def _run_stability(args) -> int:
    model = _parse_model(_load_json(args.model_file))
    q = _parse_q(args.q_poly)
    stable = tau_stability_check(model, q)
    doc: dict = {"stable": stable}
    if len(q) - 1 >= 2:
        limit_stable, coker_zero = limit_stable_equiv(model, q)
        doc["limit_stable"] = limit_stable
        doc["cokernel_zero_dimensional"] = coker_zero
        doc["limit_agrees"] = limit_stable == coker_zero
    return _emit(args, lambda: doc, lambda: "\n".join(
        "%s: %s" % item for item in doc.items()))


_RUNNERS = {
    "vertex": _run_vertex,
    "compare": _run_compare,
    "partition": _run_partition,
    "stability": _run_stability,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return _RUNNERS[args.command](args)
    except (UsageError, SpecializationSyntax, InvalidCounts) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except HftError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
