"""Benchmark of hftvertex: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src``
of that checkout.  With ``--workload`` one workload runs in this process
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without it every
workload runs in a fresh process of its own, one after the other, and a
table of all their metrics is printed.

The load is a closed loop with one client: a case starts only after the
previous one has finished.  ``--trace 0`` makes at least two passes
over the cases, and more until the next pass would end after
``--seconds``, runs a speed probe between cases, and reports end-to-end
metrics.  ``--trace 1`` makes two untraced passes and one traced pass
and reports per-layer metrics.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 21
MIN_PASSES = 2
CASE_TIMEOUT_S = 60.0
# Cases still waiting when this much time has passed since the process
# started are recorded as timeouts, so a run exits well within 180 s.
RUN_LIMIT_S = 150.0

# The speed of a shared machine drifts by tens of percent from one period
# of seconds or minutes to the next, for every program on it, and even a
# case's fastest time in a run drifts with it.  So a timed run also runs a
# probe, a fixed piece of pure-Python work, between cases whenever
# PROBE_EVERY_S has passed since the last probe.  The fastest probe within
# PROBE_WINDOW_S of a timed sample measures the machine at its best around
# that sample.  Each sample is multiplied by PROBE_REFERENCE_S over that
# probe time: it reads as seconds on a machine on which the probe takes
# PROBE_REFERENCE_S.
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 2.0
PROBE_REFERENCE_S = 0.006

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("case_p50_ms", "ms"),
              ("case_p99_ms", "ms"), ("peak_rss_mb", "MB"))
MODULES = ("chars", "fixedpoints", "vertexchar", "localize", "series", "cli")


class CaseTimeout(BaseException):
    """Raised by the alarm inside a case that ran out of time.  Not an
    ``Exception``, so no handler in the package can swallow it."""


def _alarm(signum, frame):
    raise CaseTimeout()


class Probe:
    """Sparse product of two fixed Laurent polynomials in five variables
    with ``Fraction`` coefficients: the kind of work the package does,
    written here so that no change to the package changes it."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.factors = [
            {tuple(rng.randint(-3, 3) for _ in range(5)):
             Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                      rng.randint(1, 5)) for _ in range(40)}
            for _ in range(2)]
        self.at: list[float] = []
        self.times: list[float] = []
        self.last = 0.0

    def run_if_due(self) -> None:
        if self.at and time.perf_counter() - self.last < PROBE_EVERY_S:
            return
        left, right = self.factors
        # no collection of the package's objects lands in a probe
        gc.disable()
        try:
            t0 = time.perf_counter()
            product: dict = {}
            for a, ca in left.items():
                for b, cb in right.items():
                    m = tuple(x + y for x, y in zip(a, b))
                    product[m] = product.get(m, 0) + ca * cb
            self.last = time.perf_counter()
        finally:
            gc.enable()
        self.at.append(t0)
        self.times.append(self.last - t0)

    def scaled(self, start: float, seconds: float) -> float:
        """A sample that started at ``start`` and took ``seconds``, in
        seconds at the reference speed."""
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, start + seconds + PROBE_WINDOW_S)
        best = min(self.times[lo:hi] or self.times)
        return seconds * PROBE_REFERENCE_S / best


class Package:
    """The hftvertex modules, imported afresh from the checkout."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules
                     if n == "hftvertex" or n.startswith("hftvertex.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module("hftvertex." + name))
        where = os.path.dirname(os.path.abspath(self.cli.__file__))
        if where != os.path.join(SRC, "hftvertex"):
            raise ImportError("hftvertex imported from %s, not from %s"
                              % (where, SRC))


def setup(workload: str, seed: int, workdir: str):
    """Import the package and build the workload's inputs; returns the
    package and the cases."""
    import workloads
    hv = Package()
    cases = workloads.WORKLOADS[workload](hv, random.Random(seed), workdir)
    return hv, cases


def run_pass(cases, verified: dict, started: float, tracer=None,
             between=None) -> dict:
    """Run every case once, in order.  Time only the call into the
    package; check each output whose digest has not been checked yet.
    ``between`` runs before each case, outside the timer."""
    import workloads
    times, starts, statuses, digests = [], [], [], {}
    for case in cases:
        if between is not None:
            between()
        times.append(None)
        starts.append(None)
        left = min(CASE_TIMEOUT_S, started + RUN_LIMIT_S - time.monotonic())
        if left <= 0:
            statuses.append("timeout")
            continue
        if tracer is not None:
            tracer.case = case.id
        signal.setitimer(signal.ITIMER_REAL, left)
        try:
            t0 = time.perf_counter()
            try:
                value = case.call()
            finally:
                t1 = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CaseTimeout:
            statuses.append("timeout")
            continue
        except Exception as err:
            statuses.append("error %s: %s" % (type(err).__name__, err))
            continue
        times[-1], starts[-1] = t1 - t0, t0
        data = case.render(value)
        key = workloads.digest(data)
        digests[case.id] = key
        if (case.id, key) not in verified:
            verified[case.id, key] = check(case, value, data)
        reason = verified[case.id, key]
        statuses.append("ok" if reason is None else "wrong: " + reason)
    if tracer is not None:
        tracer.case = "setup"
    return {"times": times, "starts": starts, "statuses": statuses,
            "digests": digests,
            "busy_s": math.fsum(t for t in times if t is not None)}


def check(case, value, data: bytes) -> str | None:
    try:
        return case.check(value, data)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return "unreadable output: %s: %s" % (type(err).__name__, err)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return " ".join(handle.read().split()[:3])
    except OSError:
        return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        packed = os.path.join(git, "packed-refs")
        with open(packed, encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def summarize(passes: list[dict]) -> tuple[int, int, dict]:
    attempted = sum(len(p["statuses"]) for p in passes)
    failures: dict[str, int] = {}
    for p in passes:
        for status in p["statuses"]:
            if status != "ok":
                failures[status] = failures.get(status, 0) + 1
    return attempted, sum(failures.values()), failures


def run_workload(args) -> int:
    started = time.monotonic()
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "commit": git_commit(), "loadavg_start": loadavg()}
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        t0 = time.perf_counter()
        hv, cases = setup(args.workload, args.seed, workdir)
        first_setup = (t0, time.perf_counter() - t0)
        # the harness's own objects take no part in later collections
        gc.collect()
        gc.freeze()
        if args.trace:
            result = traced_run(args, hv, cases, started, workdir)
        else:
            result = timed_run(args, cases, started, first_setup, workdir)
    finally:
        shutil.rmtree(workdir)
    env["loadavg_end"] = loadavg()
    extra = result.pop("extra")
    record = dict(result, environment=env, detail=extra)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print("environment: " + json.dumps(env, sort_keys=True))
    for reason, count in sorted(extra["failures"].items()):
        print("failure: %d x %s" % (count, reason))
    notes = extra.get("notes", {})
    if "probe" in notes:
        print("probe: " + notes["probe"])
    for name, metric in result["metrics"].items():
        print("%-45s %14.6f %-6s %s" % (name, metric["value"],
                                        metric["unit"], notes.get(name, "")))
    print("%-45s %14.6f %-6s %d of %d cases" % (
        "fail_ratio", result["failed"] / result["attempted"], "ratio",
        result["failed"], result["attempted"]))
    print(json.dumps(result))
    return 0


def timed_run(args, cases, started, first_setup, workdir) -> dict:
    """``first_setup`` is the start and the duration of the set-up that
    built ``cases``."""
    spare = os.path.join(workdir, "setup")
    os.makedirs(spare)
    setups = [first_setup]
    begin = time.monotonic()
    deadline = begin + args.seconds

    def set_up_again(force=False):
        # The other set-ups are spread over the run, so their median does
        # not rest on one moment of a machine whose speed drifts.
        due = begin + args.seconds * len(setups) / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and (force or time.monotonic() >= due):
            # no garbage of the cases is pending, as in a fresh process,
            # so whether a collection lands in a set-up does not depend
            # on the case before it
            gc.collect()
            t0 = time.perf_counter()
            setup(args.workload, args.seed, spare)
            setups.append((t0, time.perf_counter() - t0))
            gc.collect()

    probe = Probe()

    def between():
        probe.run_if_due()
        set_up_again()

    passes, verified = [], {}
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(cases, verified, started, between=between))
        now = time.monotonic()
        if now - started > RUN_LIMIT_S / 2 or (
                len(passes) >= MIN_PASSES and now + (now - t0) > deadline):
            break
    while len(setups) < SETUP_REPEATS:
        probe.run_if_due()
        set_up_again(force=True)
    probe.run_if_due()
    attempted, failed, failures = summarize(passes)
    # A case's time is its fastest scaled sample over the passes, the
    # sample least disturbed by the slow phases of a shared machine; a
    # pass's time is estimated as the sum of its cases' times.
    busy = [p["busy_s"] for p in passes]
    latency, unscaled = [], []
    for i in range(len(cases)):
        samples = [(p["starts"][i], p["times"][i]) for p in passes
                   if p["times"][i] is not None]
        if samples:
            latency.append(min(probe.scaled(*s) for s in samples))
            unscaled.append(min(t for _, t in samples))
    latency, unscaled = latency or [0.0], unscaled or [0.0]
    values = {
        "setup_s": statistics.median(probe.scaled(*s) for s in setups),
        "wall_s": math.fsum(latency),
        "case_p50_ms": 1000 * percentile(latency, 0.50),
        "case_p99_ms": 1000 * percentile(latency, 0.99),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_s": statistics.median(t for _, t in setups),
        "wall_s": math.fsum(unscaled),
        "case_p50_ms": 1000 * percentile(unscaled, 0.50),
        "case_p99_ms": 1000 * percentile(unscaled, 0.99),
    }
    notes = {
        "setup_s": "median of %d set-ups" % len(setups),
        "wall_s": "sum over cases of the fastest of %d passes; passes "
                  "took %.3f to %.3f" % (len(busy), min(busy), max(busy)),
        "case_p50_ms": "over %d cases, each the fastest of %d passes" % (
            len(latency), len(passes)),
        "case_p99_ms": "over %d cases, %d beyond" % (
            len(latency), len(latency) - math.ceil(0.99 * len(latency))),
    }
    for name, value in raw.items():
        notes[name] = "%.6f unscaled; %s" % (value, notes[name])
    notes["peak_rss_mb"] = "ru_maxrss"
    notes["probe"] = "%d probes, fastest %.6f s, median %.6f s" % (
        len(probe.times), min(probe.times),
        statistics.median(probe.times))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics,
            "extra": {"failures": failures, "notes": notes,
                      "passes_s": busy, "setups_s": setups,
                      "unscaled": raw,
                      "probes_s": list(zip(probe.at, probe.times)),
                      "case_starts": [p["starts"] for p in passes],
                      "case_times": [p["times"] for p in passes]}}


def traced_run(args, hv, cases, started, workdir) -> dict:
    import tracer as tracing
    import workloads
    # the first pass warms up and checks the outputs; the second is the
    # untraced time the traced pass is compared with
    verified: dict = {}
    warm = run_pass(cases, verified, started)
    plain = run_pass(cases, verified, started)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # build the inputs again under the tracer, so calls made while
        # setting up are traced too, under the case id "setup"
        cases = workloads.WORKLOADS[args.workload](
            hv, random.Random(args.seed), workdir)
        traced = run_pass(cases, verified, started, tracer)
    finally:
        tracer.uninstall()
    attempted, failed, failures = summarize([warm, plain, traced])
    if not warm["digests"] == plain["digests"] == traced["digests"]:
        failures["traced output differs from untraced"] = 1
        failed += 1
    values = tracer.metrics()
    values["trace.overhead_ratio"] = (
        traced["busy_s"] / plain["busy_s"] if plain["busy_s"] else 0.0)
    metrics = {name: {"value": value, "unit": "ratio"
                      if name == "trace.overhead_ratio"
                      else tracing.unit_of(name)}
               for name, value in values.items()}
    tracer.write_spans(os.path.join(
        OUT, "spans-%s-seed%d.tsv" % (args.workload, args.seed)))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics,
            "extra": {"failures": failures,
                      "calls": dict(sorted(tracer.calls().items())),
                      "untraced_s": plain["busy_s"],
                      "traced_s": traced["busy_s"]}}


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    import workloads
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exit code %d" % (name, proc.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print("%s: correct=%s attempted=%d failed=%d fail_ratio=%.6f"
              % (name, result["correct"], result["attempted"],
                 result["failed"], result["failed"] / result["attempted"]))
        for metric, value in result["metrics"].items():
            print("  %-43s %14.6f %s" % (metric, value["value"],
                                         value["unit"]))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("grid", "assemble", "compare",
                                               "counts"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    os.makedirs(OUT, exist_ok=True)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
