"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/selftest.py

For each workload it traces a cheap subset of the cases twice, each time
after a fresh import of the package, and checks that every layer the
README's map assigns to that workload is called, that the exact counters
of the two traced runs agree, and that traced and untraced outputs have
the same digests.  A refactor that rebinds a function so the tracer no
longer sees it fails here instead of reporting zero silently.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

CHARS = ("chars.LaurentPoly.mul", "chars.LaurentPoly.add",
         "chars.RationalCharacter.add", "chars.RationalCharacter.mul",
         "chars.RationalCharacter.normalized", "chars.divide_one_minus")
VERTEXCHAR = ("vertexchar.total_character", "vertexchar.alpha_block",
              "vertexchar.beta_block", "vertexchar.frame_sum")
SERIES = ("series.eq_weight_sum", "series.assemble_vertex",
          "series.closed_form_series", "series.compare_rows", "series.power",
          "series.weight_sum")

# Layers whose metrics the README's map ties to each workload: the traced
# run must record calls to every one of them.
EXPECTED_CALLS = {
    "grid": VERTEXCHAR + CHARS + (
        "localize.contribution.character", "localize.weights_of",
        "localize.weight_function", "localize.WeightFunction.evaluate"),
    "assemble": VERTEXCHAR + CHARS + SERIES + (
        "localize.contribution.character", "localize.contribution.paper",
        "localize.weights_of", "localize.weight_function",
        "localize.specialize", "cli.main"),
    "compare": CHARS + SERIES + (
        "localize.contribution.character", "localize.contribution.paper",
        "localize.specialize", "cli.main"),
    "counts": ("series.hft_partition", "fixedpoints.enumerate_fixed",
               "fixedpoints.tau_stability_check",
               "fixedpoints.limit_stable_equiv", "cli.main"),
}
EXPECTED_COUNTS = {
    "assemble": ("series.eq_weight_sum.equal",),
    "compare": ("series.eq_weight_sum.unequal",),
}

# The slowest cases are left out to keep the test short; the subsets
# still reach every layer above.
SLOW = {"vertex --rank 5 --order 3 --format json",
        "vertex --rank 3 --order 5"}


def _subset(workload, cases):
    if workload == "grid":
        return cases[::4]
    if workload == "counts":
        return cases[:100]
    return [case for case in cases if case.id not in SLOW]


def _traced(workload, workdir):
    hv, _ = run.setup(workload, 7, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # built under the tracer, as in a traced run, so set-up calls count
        cases = _subset(workload, workloads.WORKLOADS[workload](
            hv, random.Random(7), workdir))
        result = run.run_pass(cases, {}, run.time.monotonic(), tracer)
    finally:
        tracer.uninstall()
    return tracer, result


@pytest.fixture()
def workdir():
    path = os.path.join(run.OUT, "selftest-%d" % os.getpid())
    os.makedirs(path, exist_ok=True)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    yield path
    signal.signal(signal.SIGALRM, previous)
    shutil.rmtree(path)


@pytest.mark.parametrize("workload", sorted(EXPECTED_CALLS))
def test_layers_called_and_counters_repeat(workload, workdir):
    _, cases = run.setup(workload, 7, workdir)
    plain = run.run_pass(_subset(workload, cases), {}, run.time.monotonic())
    first, traced = _traced(workload, workdir)
    second, _ = _traced(workload, workdir)
    assert set(plain["statuses"]) == {"ok"}
    assert set(traced["statuses"]) == {"ok"}
    assert traced["digests"] == plain["digests"]
    calls = first.calls()
    missing = [name for name in EXPECTED_CALLS[workload] if not calls[name]]
    assert not missing, "layers never called: %s" % missing
    a, b = first.metrics(), second.metrics()
    for name in EXPECTED_COUNTS.get(workload, ()):
        assert a[name] > 0, name
    exact = [name for name in a if name.rsplit(".", 1)[1] in tracing.EXACT]
    assert {n: a[n] for n in exact} == {n: b[n] for n in exact}


def test_every_reported_metric_is_a_span_or_counter():
    names = {layer for layer, *_ in tracing.LAYERS if isinstance(layer, str)}
    names |= {"localize.contribution.character",
              "localize.contribution.paper"}
    assert set(tracing.REPORTED) <= names


def test_bare_directory_exits_nonzero_without_result():
    bare = os.path.join(run.OUT, "bare-%d" % os.getpid())
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "counts",
             "--seconds", "1"], cwd=bare, capture_output=True, text=True,
            timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_result_line_has_the_contract_keys():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "counts", "--seed", "3", "--seconds", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert [name for name, _ in run.END_TO_END] == list(result["metrics"])


def test_probe_scales_by_the_fastest_probe_near_the_sample():
    probe = run.Probe()
    probe.at, probe.times = [0.0, 1.0, 10.0], [0.012, 0.003, 0.006]
    unit = 0.1 * run.PROBE_REFERENCE_S
    assert probe.scaled(9.5, 0.1) == pytest.approx(unit / 0.006)
    assert probe.scaled(0.5, 0.1) == pytest.approx(unit / 0.003)
    # no probe within the window: the fastest of the run
    assert probe.scaled(50.0, 0.1) == pytest.approx(unit / 0.003)
