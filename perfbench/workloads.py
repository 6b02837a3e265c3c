"""The four benchmark workloads: inputs drawn from a seed, and checks.

Each ``build_*`` function takes the freshly imported package, a seeded
``random.Random`` and a work directory, writes whatever input files its
cases need, and returns the cases in seeded order.  A case's ``call`` is
the only part that is timed; it looks up the package function when it
runs, so a traced run sees every call.  ``render`` turns the result into
the bytes whose digest identifies the output, and ``check`` returns
``None`` when the output is right or a short reason when it is not.

Checks use oracles that share no code with the package where the paper
gives one.  The remaining CLI cases are compared with sha256 digests in
``pins.json``: regression pins recorded on the commit that introduced the
benchmark, not oracles.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as _handle:
    PINS: dict[str, str] = json.load(_handle)

# Scale of the grid evaluation points.  Entry i lies in
# [GRID_BASE**(i+1), 2*GRID_BASE**(i+1)), so in any weight form with
# coefficients below GRID_BASE/(2*len(form)) in size the term of the
# highest nonzero index dominates and the form cannot vanish.
GRID_BASE = 1000
# A run times every GRID_PARTS-th cell of the grid, so that each cell is
# timed in a dozen or more passes spread over the run; a pass over the
# whole grid leaves two.  Any of the interleaved parts costs the same to
# within 2%, and the same part is timed for every seed, so that its
# slowest cells, and so its p99, do not depend on the seed.
GRID_PARTS = 8

PARTITION_CASES = 200
STABILITY_CASES = 300
BRUTE_FORCE_LIMIT = 4096
USES_PER_FILE = 5


@dataclass
class Case:
    id: str
    call: Callable[[], object]
    render: Callable[[object], bytes]
    check: Callable[[object, bytes], str | None]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- grid ------------------------------------------------------------------

def _grid_render(value) -> bytes:
    wf, values = value
    return repr((wf.scalar, wf.num, wf.den, values)).encode()


def _grid_check(value, data) -> str | None:
    wf, values = value
    if len(wf.num) != len(wf.den):
        return "%d numerator and %d denominator factors" % (
            len(wf.num), len(wf.den))
    if any(v != values[0] for v in values[1:]):
        return "value changes under rescaling of the point"
    return None


def _grid_points(rng, size):
    """A point with large, distinct rational entries, then three seeded
    rational rescalings of it."""
    q = rng.randint(101, 997)
    point = tuple(GRID_BASE ** (i + 1) * Fraction(rng.randint(q, 2 * q - 1), q)
                  for i in range(size))
    points = [point]
    for _ in range(3):
        lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 999),
                       rng.randint(1, 999))
        points.append(tuple(lam * x for x in point))
    return points


def build_grid(hv, rng, workdir) -> list[Case]:
    """Every eighth cell of the acceptance grid (rank <= 3, total <= 5,
    twist <= 3) in grid order: a character mode contribution evaluated
    at one seeded point and at three seeded rescalings of it."""
    localize = hv.localize
    cells = []
    for rank in (1, 2, 3):
        vars = hv.chars.VariableSet(rank)
        for total in range(6):
            for box in hv.fixedpoints.enumerate_fixed(rank, total):
                cells.extend((vars, box, twist) for twist in range(4))
    cases = []
    for vars, box, twist in cells[::GRID_PARTS]:
        points = _grid_points(rng, 3 + vars.rank)

        def call(vars=vars, box=box, twist=twist, points=points):
            wf = localize.contribution(vars, box, twist)
            return wf, [wf.evaluate(p) for p in points]

        cases.append(Case(
            "r%d a%s b%s t%d" % (vars.rank, box.alpha, box.beta, twist),
            call, _grid_render, _grid_check))
    rng.shuffle(cases)
    return cases


# -- CLI cases ---------------------------------------------------------------

def _cli_case(hv, workdir, case_id, argv, check) -> Case:
    out = os.path.join(workdir, "case.out")
    cli = hv.cli
    full = argv + ["--out", out]

    def call():
        return cli.main(full)

    def render(code) -> bytes:
        try:
            with open(out, "rb") as handle:
                data = handle.read()
            os.remove(out)
        except FileNotFoundError:
            data = b""
        return b"exit %d\n" % code + data

    def checked(code, data) -> str | None:
        if code != 0:
            return "exit code %d" % code
        return check(data.split(b"\n", 1)[1])

    return Case(case_id, call, render, checked)


def _pinned(case_id: str) -> Callable[[bytes], str | None]:
    def check(data: bytes) -> str | None:
        want = PINS.get(case_id)
        if want is None:
            return "no pinned digest"
        return None if digest(data) == want else "digest differs from pin"
    return check


def _verdicts(data: bytes) -> list[tuple[bool, bool]]:
    """(character == paper, character == closed form) for each row of a
    ``compare`` output, text or JSON."""
    text = data.decode()
    if text.startswith("{"):
        return [(row["character_equals_paper"],
                 row["character_equals_closed_form"])
                for row in json.loads(text)["rows"]]
    out = []
    for line in text.splitlines():
        if line.startswith("  character == paper: "):
            paper, closed = line.split(": ", 1)[1], line.rsplit(": ", 1)[1]
            out.append((paper.startswith("True"), closed == "True"))
    return out


def _verdict_pattern(order: int, want_after: tuple[bool, bool]):
    """Rows k = 0..order, (True, True) at k = 0 and ``want_after`` at
    every k >= 1."""
    want = [(True, True)] + [want_after] * order

    def check(data: bytes) -> str | None:
        got = _verdicts(data)
        return None if got == want else "verdicts %s" % got
    return check


def _alternating(order: int):
    """Rank one on the Calabi Yau slice with v1 = 1: c[k] = (-1)^k."""
    want = ["c[%d] = %d" % (k, (-1) ** k) for k in range(order + 1)]

    def check(data: bytes) -> str | None:
        got = data.decode().splitlines()[1:]
        return None if got == want else "coefficients %s" % got[:4]
    return check


ASSEMBLE = (
    ("vertex --rank 3 --order 5", None),
    ("vertex --rank 4 --order 3 --twist 2 --specialize s3=-s1-s2", None),
    ("vertex --rank 5 --order 3 --format json", None),
    ("vertex --rank 4 --order 5 --mode paper", None),
    ("vertex --rank 3 --order 6 --mode closed_form", None),
    ("vertex --rank 1 --order 12 --twist 3 --specialize s3=-s1-s2,v1=1",
     _alternating(12)),
    ("compare --rank 1 --order 10", _verdict_pattern(10, (True, True))),
    ("compare --rank 1 --order 8 --twist 2 --format json", None),
)

COMPARE = (
    ("compare --rank 2 --order 2", _verdict_pattern(2, (False, False))),
    ("compare --rank 2 --order 2 --twist 1 --format json",
     _verdict_pattern(2, (False, False))),
    ("compare --rank 3 --order 1", _verdict_pattern(1, (False, False))),
    ("compare --rank 2 --order 3 --specialize s3=-s1-s2", None),
)


def _build_cli(hv, rng, workdir, table) -> list[Case]:
    cases = []
    for case_id, check in table:
        argv = case_id.split()
        if "--specialize" in argv:
            rank = int(argv[argv.index("--rank") + 1])
            hv.localize.parse_specialization(
                rank, argv[argv.index("--specialize") + 1])
        cases.append(_cli_case(hv, workdir, case_id, argv,
                               check or _pinned(case_id)))
    rng.shuffle(cases)
    return cases


def build_assemble(hv, rng, workdir) -> list[Case]:
    """Whole vertex series and rank one comparisons through the CLI."""
    return _build_cli(hv, rng, workdir, ASSEMBLE)


def build_compare(hv, rng, workdir) -> list[Case]:
    """Comparisons whose rows at k >= 1 are unequal."""
    return _build_cli(hv, rng, workdir, COMPARE)


# -- counts ------------------------------------------------------------------

def brute_partition(counts, twist, rank, order) -> dict[int, Fraction]:
    """Multinomial expansion: one term per ordered choice of rank
    entries."""
    out: dict[int, Fraction] = {}
    for combo in itertools.product(counts.items(), repeat=rank):
        degree = twist * sum(m for m, _ in combo)
        if degree <= order:
            value = Fraction(1)
            for _, c in combo:
                value *= c
            out[degree] = out.get(degree, Fraction(0)) + value
    return {m: c for m, c in out.items() if c}


def reference_partition(counts, twist, rank, order) -> dict[int, Fraction]:
    """Dense integer convolution power: counts scaled to integers by
    their common denominator, the result scaled back at the end."""
    scale = lcm(*(c.denominator for c in counts.values()))
    base = [0] * (order + 1)
    for m, c in counts.items():
        if twist * m <= order:
            base[twist * m] += int(c * scale)
    steps = [(d, v) for d, v in enumerate(base) if v]
    poly = [1] + [0] * order
    for _ in range(rank):
        nxt = [0] * (order + 1)
        for i, a in enumerate(poly):
            if a:
                for d, v in steps:
                    if i + d > order:
                        break
                    nxt[i + d] += a * v
        poly = nxt
    return {m: Fraction(v, scale ** rank) for m, v in enumerate(poly) if v}


def _partition_output(data: bytes) -> dict[int, Fraction]:
    text = data.decode()
    if text.startswith("{"):
        return {m: Fraction(c) for m, c in json.loads(text)["counts"]}
    if text == "0\n":
        return {}
    out = {}
    for line in text.splitlines():
        m, c = line.split(": ")
        out[int(m[2:])] = Fraction(c)
    return out


def _partition_check(counts, twist, rank, order):
    def check(data: bytes) -> str | None:
        if len(counts) ** rank <= BRUTE_FORCE_LIMIT:
            want = brute_partition(counts, twist, rank, order)
        else:
            want = reference_partition(counts, twist, rank, order)
        return None if _partition_output(data) == want else "wrong series"
    return check


def _stability_check(expect: bool):
    want = {"stable": expect, "limit_stable": expect,
            "cokernel_zero_dimensional": expect, "limit_agrees": True}

    def check(data: bytes) -> str | None:
        text = data.decode()
        if text.startswith("{"):
            got = json.loads(text)
        else:
            got = {}
            for line in text.splitlines():
                key, value = line.split(": ")
                got[key] = value == "True"
        return None if got == want else "answers %s" % got
    return check


def _json_count(c: Fraction):
    return c.numerator if c.denominator == 1 else str(c)


def _random_model(rng, fixed):
    """A model file and its known stability, built the way criterion 8
    builds them, or as the box model of a fixed point.  The image of the
    framing is listed as the one test subobject, so the plain check and
    the limit check must both give the known answer."""
    if rng.random() < 0.25:
        box = rng.choice(fixed)
        rank, line = box.rank, (box.rank, box.rank)
        total, image, expect = (rank + box.total, rank), line, True
    else:
        rank = rng.randint(1, 4)
        const = rng.randint(1, 8)
        total = (const, rank)
        if rng.random() < 0.5:
            image, expect = (rng.randint(0, const), rank), True
        elif rng.random() < 0.7:
            image = (rng.randint(0, const), rng.randint(1, max(1, rank - 1)))
            expect = image[1] == rank
        else:
            image, expect = (rng.randint(1, const),), False
    doc = {"rank": rank,
           "p_total": [str(c) for c in total],
           "p_image": [str(c) for c in image],
           "subobjects": [{"p": [str(c) for c in image], "factors": True}]}
    return doc, expect


def build_counts(hv, rng, workdir) -> list[Case]:
    """Many small CLI runs: ``partition`` on seeded count files and
    ``stability`` on seeded model files, in text and JSON.  Each file
    serves several cases with different arguments."""
    fixed = [box for rank in range(1, 5) for total in range(5)
             for box in hv.fixedpoints.enumerate_fixed(rank, total)]
    cases = []
    # The shape of each partition case (rank, twist, order, degrees) is
    # fixed, and the seed draws the counts.  So the cost of a pass, and
    # which cases are slowest, do not depend on the seed.
    for f in range(PARTITION_CASES // USES_PER_FILE):
        degrees = [(7 * j + f) % 41 for j in range(1 + f % 12)]
        counts = {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                              rng.randint(1, 6)) for m in degrees}
        path = os.path.join(workdir, "counts%03d.json" % f)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({str(m): _json_count(c) for m, c in counts.items()},
                      handle)
        for u in range(USES_PER_FILE):
            i = f * USES_PER_FILE + u
            rank, twist, order = 1 + i % 8, (i // 8) % 4, (37 * i) % 201
            argv = ["partition", "--p-file", path, "--rank", str(rank),
                    "--twist", str(twist), "--order", str(order),
                    "--format", ("text", "json")[i % 2]]
            cases.append(_cli_case(
                hv, workdir, "partition %d" % i, argv,
                _partition_check(counts, twist, rank, order)))
    for f in range(STABILITY_CASES // USES_PER_FILE):
        doc, expect = _random_model(rng, fixed)
        path = os.path.join(workdir, "model%03d.json" % f)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for u in range(USES_PER_FILE):
            q = [rng.randint(-3, 3) for _ in range(rng.choice((2, 3)))]
            q.append(rng.randint(1, 3))
            argv = ["stability", "--model-file", path,
                    "--q-poly=" + ",".join(map(str, q)),
                    "--format", rng.choice(("text", "json"))]
            cases.append(_cli_case(
                hv, workdir, "stability %d" % (f * USES_PER_FILE + u), argv,
                _stability_check(expect)))
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "grid": build_grid,
    "assemble": build_assemble,
    "compare": build_compare,
    "counts": build_counts,
}
