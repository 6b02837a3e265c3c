"""Per-layer tracing of hftvertex from outside the package.

``Tracer.install`` wraps each function and method listed in ``LAYERS``.
It replaces every binding of the function object: the module global in
each ``hftvertex`` module that defines or imports it (``total_character``
is also bound in ``hftvertex.localize``, ``divide_one_minus`` is reached
through the module global of ``hftvertex.chars``), and every class
attribute that holds it (``LaurentPoly.__radd__`` is the same function as
``__add__``).  Calls made through any of these names are traced.

Each call records a span ``[name, start, end, parent, case]`` in memory;
``parent`` is the index of the innermost traced call that was active and
``case`` is the case id the runner set.  Exact counters (terms, factors,
refused divisions, equality verdicts) are added up as calls return.
``metrics`` turns the spans into per-layer numbers after the run and
``write_spans`` writes them out.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _mul_products(counts, args, kwargs, result, dur):
    other = args[1]
    if hasattr(other, "terms"):
        counts["chars.LaurentPoly.mul.term_products"] += (
            len(args[0].terms) * len(other.terms))


def _terms_out(counts, args, kwargs, result, dur):
    counts["vertexchar.total_character.terms_out"] += len(result.terms)


def _factors_in(counts, args, kwargs, result, dur):
    counts["localize.weight_function.factors_in"] += (
        len(_arg(args, kwargs, 2, "num", ()))
        + len(_arg(args, kwargs, 3, "den", ())))


def _items_in(counts, args, kwargs, result, dur):
    counts["series.weight_sum.items_in"] += len(args[1])


def _verdict(counts, args, kwargs, result, dur):
    kind = "equal" if result else "unequal"
    counts["series.eq_weight_sum." + kind] += 1
    counts["series.eq_weight_sum.%s_total_s" % kind] += dur


def _contribution_name(args, kwargs):
    mode = _arg(args, kwargs, 3, "mode", "character")
    return "localize.contribution." + (
        "paper" if mode in ("paper", "paper_formula") else "character")


# (layer name, module, attribute path, hook on return, counter bumped when
# the call raises NotPolynomial).  A callable layer name picks the name
# from the arguments.
LAYERS = (
    ("vertexchar.total_character", "vertexchar", "total_character",
     _terms_out, None),
    ("vertexchar.alpha_block", "vertexchar", "alpha_block", None, None),
    ("vertexchar.beta_block", "vertexchar", "beta_block", None, None),
    ("vertexchar.frame_sum", "vertexchar", "frame_sum", None, None),
    ("chars.LaurentPoly.mul", "chars", "LaurentPoly.__mul__",
     _mul_products, None),
    ("chars.LaurentPoly.add", "chars", "LaurentPoly.__add__", None, None),
    ("chars.RationalCharacter.add", "chars", "RationalCharacter.__add__",
     None, None),
    ("chars.RationalCharacter.mul", "chars", "RationalCharacter.__mul__",
     None, None),
    ("chars.RationalCharacter.normalized", "chars",
     "RationalCharacter.normalized", None, None),
    ("chars.divide_one_minus", "chars", "divide_one_minus", None,
     "chars.divide_one_minus.refused"),
    (_contribution_name, "localize", "contribution", None, None),
    ("localize.weights_of", "localize", "weights_of", None, None),
    ("localize.weight_function", "localize", "weight_function",
     _factors_in, None),
    ("localize.specialize", "localize", "specialize", None, None),
    ("localize.WeightFunction.evaluate", "localize",
     "WeightFunction.evaluate", None, None),
    ("series.eq_weight_sum", "series", "eq_weight_sum", _verdict, None),
    ("series.assemble_vertex", "series", "assemble_vertex", None, None),
    ("series.closed_form_series", "series", "closed_form_series",
     None, None),
    ("series.compare_rows", "series", "compare_rows", None, None),
    ("series.power", "series", "power", None, None),
    ("series.weight_sum", "series", "weight_sum", _items_in, None),
    ("series.hft_partition", "series", "hft_partition", None, None),
    ("fixedpoints.enumerate_fixed", "fixedpoints", "enumerate_fixed",
     None, None),
    ("fixedpoints.tau_stability_check", "fixedpoints",
     "tau_stability_check", None, None),
    ("fixedpoints.limit_stable_equiv", "fixedpoints", "limit_stable_equiv",
     None, None),
    ("cli.main", "cli", "main", None, None),
)

# Reported per-layer metrics: span name -> statistics.  "calls" counts
# spans, "total_s" sums the spans not nested in a span of the same name,
# "self_s" sums each span's duration minus the time its child spans cover.
# Other statistics are the exact counters kept by the hooks above.
REPORTED = {
    "vertexchar.total_character": ("calls", "total_s", "self_s",
                                   "terms_out"),
    "vertexchar.alpha_block": ("total_s",),
    "vertexchar.beta_block": ("total_s",),
    "vertexchar.frame_sum": ("calls", "total_s"),
    "chars.LaurentPoly.mul": ("calls", "self_s", "term_products"),
    "chars.LaurentPoly.add": ("calls", "self_s"),
    "chars.RationalCharacter.add": ("calls", "total_s"),
    "chars.RationalCharacter.mul": ("calls", "total_s"),
    "chars.RationalCharacter.normalized": ("calls", "total_s"),
    "chars.divide_one_minus": ("calls", "self_s", "refused"),
    "localize.contribution.character": ("calls", "total_s"),
    "localize.contribution.paper": ("calls", "total_s"),
    "localize.weights_of": ("calls", "self_s"),
    "localize.weight_function": ("calls", "self_s", "factors_in"),
    "localize.specialize": ("calls", "self_s"),
    "localize.WeightFunction.evaluate": ("calls", "self_s"),
    "series.eq_weight_sum": ("calls", "total_s", "self_s", "equal",
                             "unequal", "equal_total_s", "unequal_total_s"),
    "series.assemble_vertex": ("total_s",),
    "series.closed_form_series": ("total_s",),
    "series.compare_rows": ("total_s",),
    "series.power": ("total_s",),
    "series.weight_sum": ("calls", "self_s", "items_in"),
    "series.hft_partition": ("calls", "self_s"),
    "fixedpoints.enumerate_fixed": ("calls", "self_s"),
    "fixedpoints.tau_stability_check": ("calls", "self_s"),
    "fixedpoints.limit_stable_equiv": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}

# Statistics that count work exactly; two traced runs on one seed must
# agree on every one of them.
EXACT = ("calls", "terms_out", "term_products", "refused", "factors_in",
         "items_in", "equal", "unequal")


def unit_of(stat: str) -> str:
    return "s" if stat.endswith("_s") else "count"


def metric_names() -> list[str]:
    return ["%s.%s" % (name, stat)
            for name, stats in REPORTED.items() for stat in stats]


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Spans and exact counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.case = "setup"
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every binding of every layer in the loaded package."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hftvertex"
                                         or n.startswith("hftvertex."))]
        for name, modname, path, on_return, on_raise in LAYERS:
            module = sys.modules["hftvertex." + modname]
            owner, _, original = _resolve(module, path)
            wrapper = self._wrap(name, original, on_return, on_raise)
            holders = modules if owner is module else [owner]
            bound = 0
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, attr, value))
                        setattr(holder, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError("no binding of %s found" % path)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()

    def _wrap(self, name, fn, on_return, on_raise):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self
        pick = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [pick(args, kwargs) if pick else name, 0.0, 0.0,
                    stack[-1], tracer.case]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[2] = perf_counter()
                stack.pop()
                if on_raise and type(err).__name__ == "NotPolynomial":
                    counts[on_raise] += 1
                raise
            span[2] = perf_counter()
            stack.pop()
            if on_return:
                on_return(counts, args, kwargs, result, span[2] - span[1])
            return result

        return traced

    def calls(self) -> Counter:
        """Number of spans per name, reported or not."""
        return Counter(span[0] for span in self.spans)

    def metrics(self) -> dict[str, float]:
        """Every reported per-layer metric, zero for layers not called."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for i, span in enumerate(spans):
            name = span[0]
            dur = span[2] - span[1]
            calls[name] += 1
            own[name] += dur - child[i]
            parent = span[3]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total[name] += dur
        out: dict[str, float] = {}
        for name, stats in REPORTED.items():
            for stat in stats:
                key = "%s.%s" % (name, stat)
                if stat == "calls":
                    out[key] = calls[name]
                elif stat == "total_s":
                    out[key] = total[name]
                elif stat == "self_s":
                    out[key] = own[name]
                else:
                    out[key] = self.counts[key]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tcase\n")
            for name, start, end, parent, case in self.spans:
                handle.write("%s\t%.9f\t%.9f\t%d\t%s\n"
                             % (name, start, end, parent, case))
