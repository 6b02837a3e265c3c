"""Command line interface.

Four subcommands cover the pipeline: ``vertex`` assembles a vertex
series, ``compare`` tabulates the contribution modes against the closed
form, ``partition`` builds twisted rank r count series from a count
file, and ``stability`` evaluates the stability checks on a model file.

Exit codes: 0 on success, 1 when a computation fails on valid syntax
(for example a specialization that kills a denominator), 2 on usage,
parse, or file format errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .chars import HftError
from .fixedpoints import (FrozenTripleModel, hilbert_poly,
                          limit_stable_equiv, tau_stability_check)
from .localize import SpecializationSyntax, parse_specialization
from .series import (InvalidCounts, assemble_vertex, compare_rows,
                     closed_form_series, hft_partition, ws_text, ws_to_json)


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
    except json.JSONDecodeError as err:
        raise UsageError("%s is not valid JSON: %s" % (path, err)) from None


def _parse_model(data) -> FrozenTripleModel:
    if not isinstance(data, dict):
        raise UsageError("model file must be a JSON object")
    try:
        return FrozenTripleModel.from_json(data)
    except (KeyError, ValueError, TypeError) as err:
        raise UsageError("bad model file: %s" % err) from None


def _parse_q(text: str) -> tuple[Fraction, ...]:
    try:
        return hilbert_poly(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise UsageError("bad q polynomial %r" % text) from None


def _emit(args, payload: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _run_vertex(args) -> int:
    spec = parse_specialization(args.rank, args.specialize)
    if args.mode == "closed_form":
        series = closed_form_series(args.rank, args.twist, args.order, spec)
    else:
        series = assemble_vertex(args.rank, args.twist, args.order,
                                 args.mode, spec)
    if args.format == "json":
        payload = json.dumps(series.to_json(), sort_keys=True,
                             indent=2) + "\n"
    else:
        payload = series.text() + "\n"
    _emit(args, payload)
    return 0


def _run_compare(args) -> int:
    spec = parse_specialization(args.rank, args.specialize)
    rows = compare_rows(args.rank, args.twist, args.order, spec)
    if args.format == "json":
        doc = {
            "rank": args.rank,
            "twist": args.twist,
            "order": args.order,
            "specialization": spec.source,
            "rows": [{
                "k": row["k"],
                "character": ws_to_json(row["character"]),
                "paper": ws_to_json(row["paper"]),
                "closed_form": ws_to_json(row["closed_form"]),
                "character_equals_paper": row["character_equals_paper"],
                "character_equals_closed_form":
                    row["character_equals_closed_form"],
                "difference_from_reference":
                    ws_to_json(row["difference_from_reference"]),
            } for row in rows],
        }
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        for row in rows:
            lines.append("k = %d" % row["k"])
            lines.append("  character:   %s" % ws_text(row["character"]))
            lines.append("  paper:       %s" % ws_text(row["paper"]))
            lines.append("  closed form: %s" % ws_text(row["closed_form"]))
            lines.append("  character == paper: %s, character == closed "
                         "form: %s" % (row["character_equals_paper"],
                                       row["character_equals_closed_form"]))
            lines.append("  difference from reference: %s"
                         % ws_text(row["difference_from_reference"]))
        payload = "\n".join(lines) + "\n"
    _emit(args, payload)
    return 0


def _run_partition(args) -> int:
    counts = _load_json(args.p_file)
    if not isinstance(counts, dict):
        raise UsageError("count file must be a JSON object")
    result = hft_partition(counts, args.twist, args.rank, args.order)
    pairs = [[m, str(c)] for m, c in sorted(result.items())]
    if args.format == "json":
        doc = {"rank": args.rank, "twist": args.twist,
               "order": args.order, "counts": pairs}
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        if pairs:
            payload = "".join("q^%d: %s\n" % (m, c) for m, c in pairs)
        else:
            payload = "0\n"
    _emit(args, payload)
    return 0


def _run_stability(args) -> int:
    model = _parse_model(_load_json(args.model_file))
    q = _parse_q(args.q_poly)
    stable = tau_stability_check(model, q)
    doc: dict = {"stable": stable}
    if len(q) - 1 >= 2 and q[-1] > 0:
        limit_stable, coker_zero = limit_stable_equiv(model, q)
        doc["limit_stable"] = limit_stable
        doc["cokernel_zero_dimensional"] = coker_zero
        doc["limit_agrees"] = limit_stable == coker_zero
    if args.format == "json":
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        payload = "".join("%s: %s\n" % (k, v) for k, v in doc.items())
    _emit(args, payload)
    return 0


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
