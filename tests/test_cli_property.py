"""The command line contract under generated input.

A ``hypothesis`` property drives ``cli.main`` in-process.  Its argv comes
from a grammar of each subcommand's options, with boundary and
malformed values: huge and negative integers, exponent strings, long
digit strings, numbers at and past the digit limits, non-ASCII text,
repeated options, repeated or unknown ``--specialize`` targets and
unknown options.  Count and model files are generated too: deep
nesting, long integers, floats, strings and wrong types, files at and
past the size budget of counts, and bytes that are not JSON or not
UTF-8.  Ranks and orders
that are not refused stay small, so each example takes milliseconds.

Whatever the input, the run keeps the documented contract: the exit
code is 0, 1 or 2, no exception escapes (the module entry point would
print a traceback), a success writes nothing to stderr, and a failure
writes exactly one ``error:`` line there.
"""

import contextlib
import io
import json
import os
import re

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from hftvertex.cli import main

_LONG = "9" * 4000          # a long integer that int() still reads
_TOO_LONG = "9" * 5000      # past the 4,300 digit limit of int()
_TWENTY = "9" * 20          # the most digits of a twist or specialization

_INTEGERS = st.one_of(
    st.integers(0, 3).map(str),
    st.integers(-3, -1).map(str),
    st.integers(10**6, 10**40).map(str),
    st.sampled_from(["1e3", "1e3000000", "2.0", "", " 2", "1_0", "+1",
                     "٣", "２", "0x10", _LONG, _TOO_LONG, _TWENTY,
                     "1" + "0" * 20]),
    st.text(max_size=3))

_NAMES = st.sampled_from(["s1", "s2", "s3", "v1", "v2", "s1", "s2", "s3",
                          "v1", "v2", "v3", "v4", "s4", "v0", "x", "", "é"])
_COEFFICIENTS = st.sampled_from(
    ["", "", "", "2*", "1/2*", "-1*", "1/0*", "0/0*", _LONG + "*", "1e3*",
     _TWENTY + "*", "1/%s*" % _TWENTY])
_TERMS = st.one_of(
    st.builds(lambda c, n: c + n, _COEFFICIENTS, _NAMES),
    st.sampled_from(["1", "0", "3/2", "1/0", "1e3000000", _LONG, _TOO_LONG,
                     "?", "☃"]))


@st.composite
def _specializations(draw):
    """Comma separated assignments, often well formed, with targets
    drawn from a small pool so that repeats are common."""
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        terms = draw(st.lists(_TERMS, min_size=1, max_size=3))
        rhs = terms[0]
        for t in terms[1:]:
            rhs += draw(st.sampled_from(["+", "-"])) + t
        pieces.append("%s=%s" % (draw(_NAMES), rhs))
    text = ",".join(pieces)
    return draw(st.sampled_from([text, text, text.replace("=", ""),
                                 text + ",", " " + text]))


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.integers(-10**60, 10**60), st.just(int(_LONG)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["3/2", "-1/6", "1/0", "1e3", "1e3000000", "2.5", "x",
                     _LONG, "1/" + _LONG, _TOO_LONG, "½"]),
    st.text(max_size=3))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
_DEGREES = st.one_of(st.integers(-2, 6).map(str),
                     st.sampled_from(["1e3", _LONG, "x", "1.5", "", "1_0",
                                      " 2 ", "+3", "\u0664", "-0", "01"]))


def _dumps(doc) -> bytes:
    # allow_nan writes Infinity and NaN, which the JSON reader accepts
    return json.dumps(doc).encode()


def _nested(depth: int) -> bytes:
    return b"[" * depth + b"]" * depth


_RAW_FILES = st.one_of(
    st.integers(1, 3).map(lambda k: _nested(10**k)),
    st.just(_nested(100000)),
    st.sampled_from([b"", b"{", b'{"1": 1', b'{"1": "\xff"}', b"[]", b"null",
                     b'{"1": ' + _TOO_LONG.encode() + b"}",
                     b'{"1": Infinity}', b'{"1": NaN, "2": -Infinity}']),
    st.binary(max_size=8))

# Well formed files come first and twice, so that many runs do work.
_GOOD_COUNTS = st.dictionaries(
    st.integers(0, 6).map(str),
    st.integers(-9, 9) | st.sampled_from(["3/2", "-1/6", "2e3", _LONG]),
    max_size=5).map(_dumps)
# Files around the size budget: up to 11 counts of 4,000 digits are
# inside it, 12 are past it, and so are many long denominators.
_LONG_COUNTS = st.one_of(
    st.integers(1, 14).map(
        lambda n: _dumps({str(m): _LONG for m in range(n)})),
    st.integers(1, 200).map(lambda n: _dumps(
        {str(m): "1/%d" % (10**1000 + m) for m in range(n)})))
_COUNT_FILES = st.one_of(
    _GOOD_COUNTS, _GOOD_COUNTS,
    st.dictionaries(_DEGREES, _JSON_SCALARS, max_size=4).map(_dumps),
    _JSON_VALUES.map(_dumps),
    _LONG_COUNTS,
    _RAW_FILES)

_POLY = st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(
    ["1", "3/2", "2e3", "1e3000000", _LONG, "x", 0.5, True, None])),
    max_size=3)
_GOOD_POLY = st.lists(st.integers(0, 3).map(str), min_size=1, max_size=3)
_GOOD_MODELS = st.fixed_dictionaries({
    "rank": st.integers(1, 2), "p_total": _GOOD_POLY, "p_image": _GOOD_POLY,
    "subobjects": st.lists(st.fixed_dictionaries(
        {"p": _GOOD_POLY, "factors": st.booleans()}), max_size=2),
}).map(_dumps)
_MODEL_FILES = st.one_of(
    _GOOD_MODELS, _GOOD_MODELS,
    st.fixed_dictionaries({
        "rank": st.one_of(st.integers(-1, 3), st.sampled_from(
            [True, 1.0, "1", None, 10**40])),
        "p_total": _POLY,
        "p_image": _POLY,
        "subobjects": st.lists(st.fixed_dictionaries(
            {"p": _POLY, "factors": st.sampled_from(
                [True, False, 0, "false", None])}), max_size=2),
    }).map(_dumps),
    _JSON_VALUES.map(_dumps),
    _RAW_FILES)
_Q_POLYS = st.one_of(
    st.lists(st.integers(-3, 3).map(str), min_size=1, max_size=4).map(
        ",".join),
    st.lists(st.one_of(st.integers(-3, 3).map(str), st.sampled_from(
        ["3/2", "1e3", "1e3000000", "q", "", "1/0", _LONG, "٣"])),
        max_size=4).map(",".join),
    st.text(max_size=4))

_FORMATS = st.sampled_from(["text", "json", "yaml", ""])
# --out: a file to write, a directory, a path in a missing directory
_OUTS = st.sampled_from(["{dir}/out.txt", "{dir}", "{dir}/missing/x.txt"])
_INPUTS = st.sampled_from(["{dir}/input.json", "{dir}/none.json"])

_SERIES_OPTIONS = {
    "--rank": _INTEGERS, "--twist": _INTEGERS, "--order": _INTEGERS,
    "--specialize": _specializations(), "--format": _FORMATS,
    "--out": _OUTS}
_OPTIONS = {
    "vertex": {**_SERIES_OPTIONS, "--mode": st.sampled_from(
        ["character", "paper", "closed_form", "both"])},
    "compare": _SERIES_OPTIONS,
    "partition": {
        "--p-file": _INPUTS, "--rank": _INTEGERS, "--twist": _INTEGERS,
        "--order": _INTEGERS, "--format": _FORMATS, "--out": _OUTS},
    "stability": {
        "--model-file": _INPUTS, "--q-poly": _Q_POLYS, "--format": _FORMATS,
        "--out": _OUTS},
}
_FILES = {"partition": _COUNT_FILES, "stability": _MODEL_FILES}

# Well formed runs, which exit 0; or 1, where a specialization kills a
# factor or a count is too long to print; or 2, where a number is past a
# digit limit or the counts are past their size budget.
_GOOD_FORMATS = st.sampled_from(["text", "json"])
_GOOD_SERIES = {
    "--rank": st.integers(1, 3).map(str),
    "--twist": st.integers(0, 2).map(str) | st.just(_TWENTY),
    "--order": st.integers(0, 3).map(str),
    "--specialize": st.sampled_from([
        "s3=-s1-s2", "s3=-s1-s2,v1=1", "v1=1", "s1=2*s2", "v1=v2", "s1=0",
        "s2=-s3", "s1=1", "s1=%s*s2" % _LONG, "s1=%s*s2" % _TWENTY,
        "s3=1/%s*v1" % _TWENTY]),
    "--format": _GOOD_FORMATS}
_GOOD = {
    "vertex": {**_GOOD_SERIES, "--mode": st.sampled_from(
        ["character", "paper", "closed_form"])},
    "compare": _GOOD_SERIES,
    "partition": {"--rank": st.integers(1, 3).map(str),
                  "--twist": st.integers(0, 2).map(str),
                  "--order": st.integers(0, 8).map(str),
                  "--format": _GOOD_FORMATS},
    "stability": {"--format": _GOOD_FORMATS},
}
_GOOD_FILES = {"partition": _GOOD_COUNTS | _LONG_COUNTS,
               "stability": _GOOD_MODELS}
_GOOD_Q_POLYS = st.lists(st.integers(-3, 3).map(str), min_size=1,
                         max_size=4).map(",".join)


@st.composite
def _invocations(draw):
    """An argv with ``{dir}`` placeholders, and the bytes of the input
    file it may name.  Half the runs are well formed; the others draw
    every value from the malformed grammar, may leave out a required
    option or an option's value, and may end in an unknown argument."""
    if draw(st.booleans()):
        command = draw(st.sampled_from(sorted(_GOOD)))
        argv = [command]
        if command == "partition":
            argv += ["--p-file", "{dir}/input.json"]
        if command == "stability":
            argv += ["--model-file", "{dir}/input.json",
                     "--q-poly", draw(_GOOD_Q_POLYS)]
        options = _GOOD[command]
        for name in draw(st.lists(st.sampled_from(sorted(options)),
                                  max_size=4, unique=True)):
            argv += [name, draw(options[name])]
        return argv, draw(_GOOD_FILES.get(command, st.just(b"")))
    command = draw(st.sampled_from(
        ["vertex", "compare", "partition", "stability", "frobnicate", ""]))
    options = _OPTIONS.get(command, {})
    argv = [command] if command else []
    for name in draw(st.lists(st.sampled_from(sorted(options)),
                              max_size=5)) if options else ():
        value = draw(options[name])
        # split, joined, or with its value missing
        argv += draw(st.sampled_from([
            [name, value], ["%s=%s" % (name, value)], [name]]))
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(
            ["--frobnicate", "extra", "-h", "--rank"]) | st.text(max_size=3)))
    return argv, draw(_FILES.get(command, st.just(b"")))


# One error line: ours start with "error: ", and argparse's with the
# program and subcommand names.
_ERROR_LINE = re.compile(r"^(hftvertex[^:\n]*: )?error: ", re.MULTILINE)


def _check_contract(argv, data, workdir):
    (workdir / "input.json").write_bytes(data)
    argv = [a.replace("{dir}", str(workdir)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    # an --out whose value went missing takes the next argument as a
    # relative path, so the run writes nothing outside its directory
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    event("%s exits %d" % (argv[0] if argv and argv[0] in _OPTIONS
                           else "no subcommand", code))
    assert code in (0, 1, 2), (argv, code)
    text = err.getvalue()
    assert "Traceback" not in text, argv
    if code == 0:
        assert text == "", argv
    else:
        assert len(_ERROR_LINE.findall(text)) == 1, (argv, text)


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(_invocations())
@example((["vertex", "--twist", _LONG, "--order", "2"], b""))
@example((["compare", "--rank", "2", "--order", "2",
           "--specialize", "s1=%s*s2" % _LONG], b""))
@example((["partition", "--p-file", "{dir}/input.json", "--rank", "3"],
          b'{"0": "1/' + _LONG.encode() + b'"}'))
@example((["stability", "--model-file", "{dir}/input.json",
           "--q-poly", "0,0," + _LONG],
          _dumps({"rank": 1, "p_total": ["2", _LONG], "p_image": ["1", "1"],
                  "subobjects": []})))
def test_cli_keeps_its_contract_on_generated_input(tmp_path, invocation):
    # tmp_path is shared by the examples: each writes its own input file
    # before it runs, and no example reads what another wrote
    _check_contract(*invocation, tmp_path)
