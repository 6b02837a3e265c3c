"""The output contract: one digest per run of a fixed corpus of CLI runs.

``python3 tests/contract_digests.py`` runs every argv of ``corpus()``
in-process and writes ``tests/contract_digests.json``, which maps each
argv, joined by spaces, to the first 16 hex digits of the sha256 of its
exit code, stdout and stderr (``digest``).  ``test_contract.py`` replays
the corpus and names every run whose digest changed.  The file is
written once, before a change; a change that alters an output on
purpose writes it again and lists each changed run in ``CHANGES.md``.

The corpus covers ``vertex`` in its three modes and ``compare`` at
ranks 1 to 4 and 16, in text and JSON, with zero, small and 20-digit
twists, refused twists (negative, 21 digits) and specializations that
run, fail the computation or are refused.  ``partition`` and
``stability`` read small files that ``write_files`` makes in the working
directory and that the argv names relative to it, so that no digest
depends on where the files are.  The corpus ends with the eleven runs
the benchmark's ``assemble`` and ``compare`` workloads time that it
does not hold already, without their ``--out``, and the argparse paths:
help at the top and for each command, abbreviated options, ``--``,
unknown options, missing required options and an option without its
value.  Most runs exit 0.  Argparse wraps its usage and help at the
terminal width, so each run sees 80 columns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from hftvertex.cli import main

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "contract_digests.json")

_TWENTY = "9" * 20
# first leg series orders by rank, within the CLI's size limit
_VERTEX_ORDERS = {1: range(7), 2: range(6), 3: range(5), 4: range(4),
                  16: range(2)}
# compare runs its equality checks too, which grow fast with the order
_COMPARE_ORDERS = {1: range(7), 2: range(3), 3: range(2), 4: range(2),
                   16: range(2)}
# run, fail to specialize (exit 1), or are refused (exit 2); the ones
# naming v2 or v3 are refused at rank one, unknown parameters there
_SPECS = ("s3=-s1-s2", "s1=2*s2", "v1=v2", "s3=-s1-s2,v1=1", "s1=s2+s3",
          "s2=1/2*s1-v1", "v1=3/4*v3+s2", "s1=0", "s1=v1-v2", "s1=s1",
          "s1", "w1=0", "s1=2**s2", "s2=s1,s2=s3")

FILES = {
    "counts.json": '{"0": 1, "1": "-3/2", "2": 4, "3": 0, "5": "2/7"}',
    "coprime.json": '{"0": "1/7", "1": "-3/11", "2": "5/13", "4": "-2/17"}',
    "integers.json": '{"0": 2, "2": 1, "3": -1}',
    "empty.json": "{}",
    "float.json": '{"1": 1.5}',
    "negative.json": '{"-1": 1}',
    "list.json": "[1, 2]",
    "broken.json": '{"1": ',
    "model1.json": json.dumps({
        "rank": 1, "p_total": ["2", "1"], "p_image": ["1", "1"],
        "subobjects": []}),
    "model2.json": json.dumps({
        "rank": 2, "p_total": ["3", "2"], "p_image": ["1", "1"],
        "subobjects": [{"p": ["1", "1"], "factors": True},
                       {"p": ["2", "2"], "factors": False}]}),
    "model3.json": json.dumps({
        "rank": 2, "p_total": ["2", "2"], "p_image": ["1", "1"],
        "subobjects": [{"p": ["1", "1"], "factors": True}]}),
    "model4.json": json.dumps({
        "rank": 3, "p_total": ["1/2", "3", "1"], "p_image": ["0", "1"],
        "subobjects": [{"p": ["1", "1"], "factors": False}]}),
    "nofield.json": json.dumps({"rank": 1, "p_total": ["1"]}),
}

# the series and comparison runs the benchmark's ``assemble`` and
# ``compare`` workloads time, as they print to stdout
_BENCHMARK_RUNS = (
    "vertex --rank 3 --order 5",
    "vertex --rank 4 --order 3 --twist 2 --specialize s3=-s1-s2",
    "vertex --rank 5 --order 3 --format json",
    "vertex --rank 4 --order 5 --mode paper",
    "vertex --rank 3 --order 6 --mode closed_form",
    "vertex --rank 1 --order 12 --twist 3 --specialize s3=-s1-s2,v1=1",
    "compare --rank 1 --order 10",
    "compare --rank 1 --order 8 --twist 2 --format json",
    "compare --rank 2 --order 2",
    "compare --rank 3 --order 1",
    "compare --rank 2 --order 3 --specialize s3=-s1-s2",
)


# help, abbreviated options, "--", unknown, missing and valueless options
_ARGPARSE_RUNS = (
    "-h",
    "--help",
    "vertex -h",
    "compare -h",
    "partition -h",
    "stability -h",
    "-h vertex",
    "vertex --ord 2 --ra 2",
    "vertex --rank 1 -- 2",
    "partition --bogus",
    "partition --p-file counts.json --bogus",
    "stability --bogus",
    "stability --model-file model1.json --q-poly 0,0,1 --bogus",
    "partition --order 2",
    "stability --q-poly 0,0,1",
    "stability --model-file model1.json",
    "vertex --rank",
)


def _series(command: str, rank: int, order: int, *rest: str) -> list[str]:
    return [command, "--rank", str(rank), "--order", str(order), *rest]


def corpus() -> list[list[str]]:
    """Every argv of the contract, in a fixed order."""
    runs: list[list[str]] = []
    formats = ((), ("--format", "json"))
    modes = ("character", "paper", "closed_form")
    for mode in modes:
        for rank, orders in _VERTEX_ORDERS.items():
            for order in orders:
                for fmt in formats:
                    runs.append(_series("vertex", rank, order,
                                        "--mode", mode, *fmt))
            for twist in ("1", "3", _TWENTY):
                for fmt in formats:
                    runs.append(_series("vertex", rank, min(orders[-1], 2),
                                        "--mode", mode, "--twist", twist,
                                        *fmt))
        for rank in (1, 2, 3, 4):
            for spec in _SPECS:
                for fmt in formats:
                    runs.append(_series("vertex", rank, 2, "--mode", mode,
                                        "--twist", "2", "--specialize",
                                        spec, *fmt))
    for rank, orders in _COMPARE_ORDERS.items():
        for order in orders:
            for twist in ("0", "1", _TWENTY):
                for fmt in formats:
                    runs.append(_series("compare", rank, order,
                                        "--twist", twist, *fmt))
    for rank in (1, 2):
        for spec in _SPECS:
            for fmt in formats:
                runs.append(_series("compare", rank, 1, "--specialize",
                                    spec, *fmt))
    for command in ("vertex", "compare"):
        for bad in (("--twist=-1",), ("--twist", "1" + "0" * 20),
                    ("--order=-1",), ("--rank", "0"), ("--rank", "17"),
                    ("--order", "400"), ("--rank", "2", "--order", "30"),
                    ("--format", "yaml"), ("--order", "x"), ("--bogus",)):
            runs.append([command, *bad])
    runs += [["vertex", "--mode", "bogus"], [], ["frobnicate"]]
    for name in ("counts", "coprime", "integers", "empty"):
        for twist in ("0", "1", "2"):
            for rank in ("1", "3"):
                for order in ("0", "5", "12"):
                    for fmt in formats:
                        runs.append(["partition", "--p-file", name + ".json",
                                     "--twist", twist, "--rank", rank,
                                     "--order", order, *fmt])
    for name in ("float", "negative", "list", "broken", "missing"):
        runs.append(["partition", "--p-file", name + ".json"])
    runs.append(["partition", "--p-file", "counts.json", "--order", "1001"])
    for name in ("model1", "model2", "model3", "model4"):
        for q in ("0,0,1", "1,2", "-1,2", "1,-5,0,2", "0,1/2,3", "5"):
            for fmt in formats:
                runs.append(["stability", "--model-file", name + ".json",
                             "--q-poly=" + q, *fmt])
    for name, q in (("nofield", "0,0,1"), ("broken", "0,0,1"),
                    ("missing", "0,0,1"), ("model1", "a,b"),
                    ("model1", "1/0")):
        runs.append(["stability", "--model-file", name + ".json",
                     "--q-poly=" + q])
    runs += [line.split() for line in _BENCHMARK_RUNS]
    runs += [line.split() for line in _ARGPARSE_RUNS]
    return runs


def write_files(directory: str) -> None:
    for name, text in FILES.items():
        with open(os.path.join(directory, name), "w",
                  encoding="utf-8") as handle:
            handle.write(text)


def digest(argv: list[str]) -> str:
    """The first 16 hex digits of the sha256 of the exit code, stdout
    and stderr of ``main(argv)``, run in-process with 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests() -> dict[str, str]:
    """The digest of every run of the corpus, keyed by its argv joined
    by spaces, with the corpus files in a temporary working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        os.chdir(directory)
        try:
            return {" ".join(argv): digest(argv) for argv in corpus()}
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    table = digests()
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")
    print("%d runs written to %s" % (len(table), PATH), file=sys.stderr)
