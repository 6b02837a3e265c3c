"""End to end tests of the command line interface."""

import argparse
import contextlib
import errno
import io
import json
import os
import runpy
import subprocess
import sys
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from contract_digests import corpus
from hftvertex.cli import _build_parser, _json_text, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_vertex_text_pinned_example(capsys):
    code, out, err = run(capsys, [
        "vertex", "--rank", "1", "--twist", "0", "--order", "3",
        "--specialize", "s3=-s1-s2,v1=1"])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "rank 1, twist 0, mode character, specialized: s3=-s1-s2,v1=1",
        "c[0] = 1",
        "c[1] = -1",
        "c[2] = 1",
        "c[3] = -1",
    ]


def test_vertex_json(capsys):
    code, out, err = run(capsys, [
        "vertex", "--order", "0", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 1 and doc["twist"] == 0
    assert doc["mode"] == "character" and doc["specialization"] == ""
    assert doc["coefficients"] == [
        {"k": 0, "value": {"scalar": "1", "num": [], "den": []}}]


def test_vertex_header_and_json_shape(capsys):
    # the header names the specialization only when there is one; the
    # document keeps the order and one entry per coefficient, a term as
    # an object and a sum of several as a list
    cy = ["--specialize", "s3=-s1-s2,v1=1"]
    argv = ["vertex", "--rank", "1", "--order", "2"]
    _, out, _ = run(capsys, argv + cy)
    assert out.splitlines() == [
        "rank 1, twist 0, mode character, specialized: s3=-s1-s2,v1=1",
        "c[0] = 1", "c[1] = -1", "c[2] = 1"]
    _, out, _ = run(capsys, argv + ["--twist", "1", "--mode", "paper"])
    assert out.splitlines()[0] == "rank 1, twist 1, mode paper"
    _, out, _ = run(capsys, argv + cy + ["--format", "json"])
    doc = json.loads(out)
    assert doc["order"] == 2 and doc["specialization"] == "s3=-s1-s2,v1=1"
    assert doc["coefficients"][2] == {
        "k": 2, "value": {"scalar": "1", "num": [], "den": []}}
    _, out, _ = run(capsys, ["vertex", "--rank", "2", "--order", "1",
                             "--format", "json"])
    doc = json.loads(out)
    assert doc["order"] == 1
    assert [c["k"] for c in doc["coefficients"]] == [0, 1]
    terms = doc["coefficients"][1]["value"]
    assert isinstance(terms, list) and len(terms) == 2
    assert all(len(form) == 5 for t in terms for form in t["num"] + t["den"])


def test_vertex_generic_text(capsys):
    code, out, _ = run(capsys, ["vertex", "--order", "1"])
    assert code == 0
    assert out.splitlines()[1:] == ["c[0] = 1", "c[1] = (s2 + s3)/(s1)"]


def test_vertex_closed_form_mode(capsys):
    code, out, _ = run(capsys, [
        "vertex", "--mode", "closed_form", "--twist", "1", "--order", "2",
        "--specialize", "s3=-s1-s2,v1=1"])
    assert code == 0
    assert out.splitlines()[1:] == ["c[0] = 1", "c[1] = -2", "c[2] = 3"]


def test_vertex_runs_are_deterministic(capsys):
    argv = ["vertex", "--rank", "2", "--order", "2", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_vertex_out_file(tmp_path, capsys):
    target = tmp_path / "series.txt"
    code, out, _ = run(capsys, [
        "vertex", "--order", "1", "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1] == "c[0] = 1"


def test_compare_text(capsys):
    code, out, _ = run(capsys, [
        "compare", "--order", "1", "--specialize", "s3=-s1-s2,v1=1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k = 0"
    assert lines[1] == "  character:   1"
    assert "character == paper: True" in lines[4]
    assert lines[6] == "k = 1"
    assert lines[7] == "  character:   -1"
    assert lines[11] == "  difference from reference: 0"


def test_compare_json(capsys):
    code, out, _ = run(capsys, [
        "compare", "--rank", "2", "--order", "1", "--format", "json",
        "--specialize", "s3=-s1-s2,v1=1,v2=1"])
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][1]
    assert row["character"]["scalar"] == "2"
    assert row["paper"]["scalar"] == "-2"
    assert row["character_equals_paper"] is False
    assert row["difference_from_reference"]["scalar"] == "4"


def test_partition_text(tmp_path, capsys):
    pfile = tmp_path / "counts.json"
    pfile.write_text(json.dumps({"1": 1, "2": 3}))
    code, out, _ = run(capsys, [
        "partition", "--p-file", str(pfile), "--twist", "2",
        "--rank", "2", "--order", "8"])
    assert code == 0
    assert out == "q^4: 1\nq^6: 6\nq^8: 9\n"


def test_partition_empty_and_json(tmp_path, capsys):
    pfile = tmp_path / "counts.json"
    pfile.write_text("{}")
    code, out, _ = run(capsys, [
        "partition", "--p-file", str(pfile), "--rank", "2"])
    assert code == 0 and out == "0\n"
    pfile.write_text(json.dumps({"1": "1/2"}))
    code, out, _ = run(capsys, [
        "partition", "--p-file", str(pfile), "--twist", "1",
        "--rank", "2", "--order", "2", "--format", "json"])
    doc = json.loads(out)
    assert doc["counts"] == [[2, "1/4"]]


def test_stability_with_limit_fields(tmp_path, capsys):
    mfile = tmp_path / "model.json"
    model = {"rank": 1, "p_total": ["2", "1"], "p_image": ["1", "1"],
             "subobjects": []}
    mfile.write_text(json.dumps(model))
    code, out, _ = run(capsys, [
        "stability", "--model-file", str(mfile), "--q-poly", "0,0,1"])
    assert code == 0
    assert out == ("stable: True\nlimit_stable: True\n"
                   "cokernel_zero_dimensional: True\nlimit_agrees: True\n")
    code, out, _ = run(capsys, [
        "stability", "--model-file", str(mfile), "--q-poly", "1,2",
        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"stable": True}


def test_stability_unstable_model(tmp_path, capsys):
    mfile = tmp_path / "model.json"
    model = {"rank": 2, "p_total": ["2", "2"], "p_image": ["1", "1"],
             "subobjects": [{"p": ["1", "1"], "factors": True}]}
    mfile.write_text(json.dumps(model))
    code, out, _ = run(capsys, [
        "stability", "--model-file", str(mfile), "--q-poly", "0,0,1",
        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["stable"] is False
    assert doc["cokernel_zero_dimensional"] is False
    assert doc["limit_agrees"] is True


def test_exit_code_one_on_computation_failure(tmp_path, capsys):
    code, out, err = run(capsys, [
        "vertex", "--order", "1", "--specialize", "s1=0"])
    assert code == 1 and out == ""
    assert err.startswith("error: denominator factor")
    # the refused share is that of summand one, the exchange of summand
    # two's share, so the error names the box of summand one
    code, out, err = run(capsys, [
        "vertex", "--rank", "2", "--order", "2",
        "--specialize", "s1=v1-v2"])
    assert code == 1 and out == ""
    assert err == (
        "error: denominator factor s1 - v1 + v2 specializes to zero in "
        "contribution of BoxTuple(alpha=(1, 0), beta=(0, 0)) at twist 0\n")
    mfile = tmp_path / "model.json"
    mfile.write_text(json.dumps(
        {"rank": 1, "p_total": ["1", "1"], "p_image": ["1", "1"],
         "subobjects": []}))
    code, _, err = run(capsys, [
        "stability", "--model-file", str(mfile), "--q-poly", "0,0,-1"])
    assert code == 1
    assert "error:" in err


def test_exit_code_two_on_bad_input(tmp_path, capsys):
    cases = [
        ["vertex", "--specialize", "s1=s1"],
        ["vertex", "--specialize", "v2=1"],
        ["vertex", "--specialize", "s1=?"],
        ["vertex", "--specialize", "s1=s2+"],
        ["vertex", "--specialize", "s1=1/0"],
        ["vertex", "--specialize", "s1=1/0*s2"],
        ["vertex", "--specialize", "s1=0/0"],
        ["compare", "--specialize", "s1=1/0"],
        ["compare", "--specialize", "s1=1/0*s2"],
        ["compare", "--specialize", "s1=0/0"],
        ["partition", "--p-file", str(tmp_path / "missing.json")],
    ]
    for argv in cases:
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error: "), argv
    # numeric arguments are checked by the parser, which prints its usage
    # line before the error line
    pfile = tmp_path / "counts.json"
    pfile.write_text("{}")
    numeric = [
        (["vertex", "--rank", "-1"], "--rank"),
        (["vertex", "--rank", "0", "--order", "2"], "--rank"),
        (["vertex", "--order", "-1"], "--order"),
        (["vertex", "--twist", "-1"], "--twist"),
        (["compare", "--rank", "0"], "--rank"),
        (["vertex", "--order", "two"], "--order"),
        (["partition", "--p-file", str(pfile), "--rank", "0"], "--rank"),
    ]
    for argv, name in numeric:
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert "error: argument %s: " % name in err, argv
        assert "Traceback" not in err, argv


def test_exit_code_two_on_bad_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["partition", "--p-file", str(bad)])
    assert code == 2 and "not valid JSON" in err
    bad.write_text(json.dumps(["list"]))
    code, _, err = run(capsys, ["partition", "--p-file", str(bad)])
    assert code == 2 and "must be a JSON object" in err
    bad.write_text(json.dumps({"-1": 1}))
    code, _, err = run(capsys, ["partition", "--p-file", str(bad)])
    assert code == 2 and "negative degree" in err
    for entry in ({"x": 1}, {"1": "1/0"}, {"1": 0.1}, {"1": True},
                  {"1_0": 1}, {" 2 ": 1}, {"+3": 1}, {"\u0664": 1}):
        bad.write_text(json.dumps(entry))
        code, out, err = run(capsys, ["partition", "--p-file", str(bad)])
        assert code == 2 and out == "", entry
        assert err.startswith("error: bad count entry"), entry
    bad.write_text(json.dumps({"rank": 1}))
    code, _, err = run(capsys, [
        "stability", "--model-file", str(bad), "--q-poly", "0,0,1"])
    assert code == 2 and "bad model file" in err
    bad.write_text(json.dumps([1, 2]))
    code, _, err = run(capsys, [
        "stability", "--model-file", str(bad), "--q-poly", "0,0,1"])
    assert code == 2 and "model file must be a JSON object" in err
    # floats, booleans read as numbers, strings read as lists or flags
    good_model = {"rank": 1, "p_total": ["2", "1"], "p_image": ["1", "1"],
                  "subobjects": [{"p": ["1", "1"], "factors": False}]}
    sub = good_model["subobjects"][0]
    for change in ({"p_total": None}, {"p_total": [0.1, 1]},
                   {"p_image": [1, True]}, {"p_total": "21"},
                   {"rank": True}, {"rank": 1.9}, {"rank": "1"},
                   {"subobjects": [{**sub, "factors": "false"}]},
                   {"subobjects": [{**sub, "factors": 0}]},
                   {"subobjects": [{**sub, "p": ["1/0"]}]},
                   {"subobjects": [{"p": ["1"]}]},
                   # well formed, but not a valid framed triple model
                   {"rank": 0}, {"p_image": ["3", "1"]}):
        doc = {k: v for k, v in {**good_model, **change}.items()
               if v is not None}
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, [
            "stability", "--model-file", str(bad), "--q-poly", "0,0,1"])
        assert code == 2 and out == "", change
        assert err.startswith("error: bad model file"), change
    # each message names the field or entry at fault, not a Python error
    for change, named in (
            ({"p_total": None}, "missing field 'p_total'"),
            ({"subobjects": [{"p": ["1"]}]}, "subobjects[0] is not an object"),
            ({"subobjects": 5}, "subobjects is not a list"),
            ({"subobjects": [sub, "x"]}, "subobjects[1] is not an object"),
            ({"p_total": [[1]]}, "p_total [[1]] is not a list of integers"),
            # strings that are not rationals
            ({"p_image": ["1/0", "1"]},
             "p_image ['1/0', '1'] is not a list of rational numbers"),
            ({"p_total": ["2", "x"]},
             "p_total ['2', 'x'] is not a list of rational numbers"),
            ({"subobjects": [{**sub, "p": ["1/0"]}]},
             "subobjects[0].p ['1/0'] is not a list of rational numbers")):
        doc = {k: v for k, v in {**good_model, **change}.items()
               if v is not None}
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, [
            "stability", "--model-file", str(bad), "--q-poly", "0,0,1"])
        assert (code, out) == (2, ""), change
        assert err.startswith("error: bad model file: " + named), change
        assert err.count("\n") == 1, change
    bad.write_text(json.dumps(good_model))
    assert run(capsys, ["stability", "--model-file", str(bad),
                        "--q-poly", "0,0,1"])[0] == 0
    good = tmp_path / "model.json"
    good.write_text(json.dumps(
        {"rank": 1, "p_total": ["1", "1"], "p_image": ["1", "1"],
         "subobjects": []}))
    code, _, err = run(capsys, [
        "stability", "--model-file", str(good), "--q-poly", "1,q"])
    assert code == 2 and "bad q polynomial" in err


def test_argparse_errors_return_their_code(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["vertex", "--format", "yaml"]) == 2
    capsys.readouterr()


def _module_run(argv, env=None, **kwargs):
    """``python -m hftvertex.cli`` with ``argv`` in a child process, in
    ``env`` or else this process's environment."""
    import hftvertex
    # the child process imports the same package as this test, also when
    # it is found through the pytest configuration rather than PYTHONPATH
    src = os.path.dirname(os.path.dirname(hftvertex.__file__))
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hftvertex.cli", *argv],
                          text=True, env=env, **kwargs)


def test_module_entry_point():
    proc = _module_run(["vertex", "--order", "1"], capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "c[0] = 1"


def test_unwritable_out_exits_two(tmp_path, capsys):
    for path in (tmp_path / "missing" / "x.txt", tmp_path):
        code, out, err = run(capsys, [
            "vertex", "--order", "1", "--out", str(path)])
        assert code == 2 and out == "", path
        assert err.startswith("error: cannot write %s: " % path), path
        assert "Traceback" not in err


class _FailingStdout(io.StringIO):
    """A standard output whose ``write`` or ``flush`` fails as a write
    to a full disk does."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("command", [
    "vertex", "compare", "partition", "stability"])
def test_unwritable_stdout_exits_two(tmp_path, capsys, monkeypatch,
                                     command, failing):
    (tmp_path / "counts.json").write_text('{"0": 1, "1": 2}')
    (tmp_path / "model.json").write_text(json.dumps({
        "rank": 1, "p_total": ["2", "1"], "p_image": ["1", "1"],
        "subobjects": []}))
    argv = {"vertex": ["vertex", "--order", "2"],
            "compare": ["compare", "--order", "2"],
            "partition": ["partition", "--p-file",
                          str(tmp_path / "counts.json")],
            "stability": ["stability", "--model-file",
                          str(tmp_path / "model.json"), "--q-poly", "0,0,1"]}
    monkeypatch.setattr(sys, "stdout", _FailingStdout(failing))
    code = main(argv[command])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: cannot write standard output: [Errno %d] %s\n"
                   % (errno.ENOSPC, os.strerror(errno.ENOSPC)))


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["-h"], ["vertex", "--help"], ["partition", "-h"]], ids=" ".join)
def test_help_that_cannot_be_written_exits_two(capsys, monkeypatch, argv,
                                               failing):
    # argparse itself ignores a failed write of its help and exits 0
    monkeypatch.setattr(sys, "stdout", _FailingStdout(failing))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: cannot write standard output: [Errno %d] %s\n"
                   % (errno.ENOSPC, os.strerror(errno.ENOSPC)))


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full device")
@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
def test_stdout_to_a_full_device_exits_two(buffered):
    # a buffered stdout keeps the text it could not write, and the flush
    # at interpreter exit must not fail a second time
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["vertex", "--rank", "1", "--order", "2"], ["-h"]):
        with open("/dev/full", "w") as full:
            proc = _module_run(argv, env, stdout=full,
                               stderr=subprocess.PIPE)
        assert proc.returncode == 2, argv
        assert proc.stderr == ("error: cannot write standard output: "
                               "[Errno %d] %s\n"
                               % (errno.ENOSPC, os.strerror(errno.ENOSPC)))


@pytest.mark.parametrize("data", [
    b'{"1": "\xff"}',                      # not UTF-8
    b"[" * 100000 + b"]" * 100000,         # too deep for the decoder
    b'{"1": ' + b"1" * 5000 + b"}",         # past the digit limit of int()
], ids=["undecodable", "too_deep", "too_many_digits"])
def test_unreadable_input_files_exit_two(tmp_path, capsys, data):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    for argv in (["partition", "--p-file", str(path)],
                 ["stability", "--model-file", str(path),
                  "--q-poly", "0,0,1"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: %s is not valid JSON: " % path), argv


@pytest.mark.parametrize("count", ["Infinity", "-Infinity", "1e400", "NaN"])
def test_non_finite_counts_exit_two(tmp_path, capsys, count):
    path = tmp_path / "counts.json"
    path.write_text('{"1": %s}' % count)
    code, out, err = run(capsys, ["partition", "--p-file", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: bad count entry")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_coefficient_past_the_digit_limit_exits_one(tmp_path, capsys, fmt):
    # the count reads in, but its square has 8,000 digits, which str()
    # refuses to print
    path = tmp_path / "counts.json"
    path.write_text('{"0": "%s"}' % ("9" * 4000))
    code, out, err = run(capsys, ["partition", "--p-file", str(path),
                                  "--rank", "2", "--format", fmt])
    assert code == 1 and out == ""
    assert err == "error: coefficient of q^0 has more than 4300 digits\n"


_TWENTY = "9" * 20    # the most digits of a twist or a specialization
_NAMES = ["s1", "s2", "s3"] + ["v%d" % k for k in range(1, 17)]


@pytest.mark.parametrize("argv", [
    "vertex --order 120 --twist %s --specialize s1=%s*s2" % (_TWENTY,
                                                            _TWENTY),
    "vertex --order 120 --format json --twist %s --specialize s1=%s*s2"
    % (_TWENTY, _TWENTY),
    "compare --order 120 --twist %s --specialize s1=%s*s2" % (_TWENTY,
                                                             _TWENTY)],
    ids=["vertex_text", "vertex_json", "compare"])
def test_output_number_past_the_digit_limit_exits_one(capsys, argv):
    # the series reads in, inside the digit limits, but a scalar of its
    # output has more digits than str() prints; this printed a traceback
    code, out, err = run(capsys, argv.split())
    assert code == 1 and out == ""
    assert err == "error: the output holds a number of more than 4300 " \
        "digits\n"


def test_compare_past_the_digit_limit_exits_one_before_its_checks(capsys):
    # the equality checks of the 400 rows, which are never printed, took
    # about a second before the scalars were checked ahead of them
    start = time.perf_counter()
    code, out, err = run(capsys, (
        "compare --rank 1 --order 399 --twist %s --specialize s1=%s*s2"
        % (_TWENTY, _TWENTY)).split())
    assert time.perf_counter() - start < 0.3
    assert code == 1 and out == ""
    assert err == "error: the output holds a number of more than 4300 " \
        "digits\n"


@pytest.mark.parametrize("term", ["9" * 5000, "1/%s*s1" % ("9" * 5000)],
                         ids=["constant", "coefficient"])
def test_specialize_number_past_the_digit_limit_exits_two(capsys, term):
    code, out, err = run(capsys, [
        "vertex", "--order", "1", "--specialize", "s3=" + term])
    assert code == 2 and out == ""
    assert err == ("error: a number in term %r has more than 4300 digits\n"
                   % term)


def test_series_past_the_digit_limit_exit_two_at_once(capsys):
    # a 1,000-digit twist or specialization ran without output for
    # minutes before the limit existed
    past = "1" + "0" * 20
    for argv, message in (
            ("vertex --order 399 --twist " + past,
             "the twist has more than 20 digits"),
            ("compare --order 399 --twist " + "9" * 1000,
             "the twist has more than 20 digits"),
            ("vertex --order 399 --specialize s1=%s*s2" % ("9" * 1000),
             "the specialization, composed over one common denominator, "
             "has a number of more than 20 digits"),
            ("compare --order 399 --specialize s3=1/%s" % past,
             "the specialization, composed over one common denominator, "
             "has a number of more than 20 digits"),
            # each number has 11 digits, the composed coefficient of s1 21
            ("vertex --order 399 --specialize s1=10000000000*s2,"
             "s2=10000000000*s3",
             "the specialization, composed over one common denominator, "
             "has a number of more than 20 digits"),
            # composing this chain took 4.8 s before the digits could be
            # checked
            ("compare --rank 16 --order 1 --specialize " + ",".join(
                "%s=1/%d*%s+1/%d*%s" % (_NAMES[i], 10**2899 + i,
                                        _NAMES[i + 1], 10**2899 - i,
                                        _NAMES[i + 2]) for i in range(17)),
             "the specialization has more than 10000 characters")):
        start = time.perf_counter()
        code, out, err = run(capsys, argv.split())
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and out == "", argv
        assert err == "error: %s\n" % message, argv


def test_series_at_the_digit_limit_run(capsys):
    for sub in ("vertex", "compare"):
        for spec in ("s1=1/%s*s2", "s3=-s1-s2,v1=%s"):
            code, out, err = run(capsys, [
                sub, "--order", "2", "--twist", _TWENTY,
                "--specialize", spec % _TWENTY])
            assert code == 0 and err == "", (sub, spec)


def test_repeated_specialize_target_exits_two(capsys):
    # the first assignment substitutes s1 away, so the second cannot act
    for sub in ("vertex", "compare"):
        code, out, err = run(capsys, [
            sub, "--order", "1", "--specialize", "s1=1,s1=2"])
        assert code == 2 and out == ""
        assert err == "error: s1 is assigned more than once\n"


@pytest.mark.parametrize("term", ["\u0663*s2", "\uff12*s2", "1/1\u0663*s2",
                                  "s\u0663", "\u0663"])
def test_specialize_terms_take_ascii_digits_only(capsys, term):
    # an Arabic-Indic three or a fullwidth two is no digit of a term, as
    # it is none of a count file's key
    for sub in ("vertex", "compare"):
        code, out, err = run(capsys, [
            sub, "--rank", "2", "--order", "1", "--specialize",
            "s1=" + term])
        assert code == 2 and out == ""
        assert err == "error: cannot parse term %r\n" % term
    code, _, _ = run(capsys, ["vertex", "--rank", "2", "--order", "1",
                              "--specialize", "s1=3*s2-1/12*v2"])
    assert code == 0


def test_module_runs_as_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hftvertex", "vertex", "--order", "1"])
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
            pytest.raises(SystemExit) as raised:
        runpy.run_module("hftvertex.cli", run_name="__main__")
    assert raised.value.code == 0
    assert capsys.readouterr().out.splitlines()[1] == "c[0] = 1"


def _parsed(parser, argv):
    """The namespace that ``parser`` makes of ``argv`` as a dict, or,
    when it exits, its exit code and the text it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit as exit_:
        return exit_.code, out.getvalue(), err.getvalue()


def test_the_parser_of_argv0_parses_as_the_full_parser():
    # every argv of the output contract, those argparse refuses included
    full = _build_parser()
    accepted = 0
    for argv in corpus():
        parsed = _parsed(_build_parser(argv[0] if argv else None), argv)
        assert parsed == _parsed(full, argv), argv
        accepted += isinstance(parsed, dict)
    assert accepted > 900


@pytest.mark.parametrize("command", [
    "vertex", "compare", "partition", "stability"])
def test_the_parser_of_a_command_gives_no_other_command_options(command):
    parser = _build_parser(command)
    (subparsers,) = [a.choices for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers) == ["vertex", "compare", "partition",
                                "stability"]
    for name, sub in subparsers.items():
        options = [a.dest for a in sub._actions if a.dest != "help"]
        assert bool(options) == (name == command), name


_HUGE = "1e3000000"


def test_huge_exponent_strings_exit_two_at_once(tmp_path, capsys):
    # Fraction("1e3000000") builds 10**3000000 before any size check
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"0": _HUGE}))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(
        {"rank": 1, "p_total": ["2", _HUGE], "p_image": ["1", "1"],
         "subobjects": []}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(
        {"rank": 1, "p_total": ["1", "1"], "p_image": ["1", "1"],
         "subobjects": []}))
    cases = [
        (["partition", "--p-file", str(counts), "--rank", "2"],
         "error: bad count entry"),
        (["stability", "--model-file", str(model), "--q-poly", "0,0,1"],
         "error: bad model file"),
        (["stability", "--model-file", str(good),
          "--q-poly", "0,0," + _HUGE], "error: bad q polynomial"),
    ]
    for argv, message in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and out == "", argv
        assert err.startswith(message), argv


def test_series_past_the_size_limit_exit_two_at_once(capsys):
    # each ran without output until killed before the limit existed
    for argv, message in (
            ("vertex --order 99999999999999999999999",
             "order 99999999999999999999999 at rank 1 is past the limit"),
            ("compare --rank 1 --order 100000",
             "order 100000 at rank 1 is past the limit"),
            ("vertex --rank 3 --order 12", "order 12 at rank 3 is past"),
            ("compare --rank 17 --order 0", "rank 17 is past the limit")):
        start = time.perf_counter()
        code, out, err = run(capsys, argv.split())
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and out == "", argv
        assert err.startswith("error: " + message), argv
        assert err.count("\n") == 1 and err.count("error:") == 1, argv


def test_series_at_the_size_limit_run(capsys):
    # C(11 + 3, 3) = 364 and C(2 + 16, 16) = 153 fixed points, at most 400
    for argv in ("vertex --rank 3 --order 11", "vertex --rank 16 --order 2"):
        code, out, err = run(capsys, argv.split())
        assert code == 0 and err == "", argv


@pytest.mark.parametrize("argv, last", [
    ("vertex --rank 1 --order 399", "\nc[399] = "),
    ("compare --rank 1 --order 399", "\nk = 399\n")],
    ids=["vertex", "compare"])
def test_first_leg_series_at_the_order_limit_runs_at_once(capsys, argv,
                                                           last):
    # one one box share per order keeps the longest first leg series
    # well under a second
    start = time.perf_counter()
    code, out, err = run(capsys, argv.split())
    assert time.perf_counter() - start < 1
    assert code == 0 and err == "" and last in out


@pytest.mark.parametrize("argv, last", [
    ("vertex --rank 1 --order 399 --specialize s3=-s1-s2", "\nc[399] = "),
    ("vertex --rank 1 --order 399 --mode paper --specialize s3=-s1-s2",
     "\nc[399] = "),
    ("compare --rank 1 --order 399 --specialize s3=-s1-s2", "\nk = 399\n")],
    ids=["vertex", "paper", "compare"])
def test_specialized_first_leg_series_at_the_order_limit_run_at_once(
        capsys, argv, last):
    # each one box step is specialized once, not each whole share, so
    # a specialization adds work linear in the order
    start = time.perf_counter()
    code, out, err = run(capsys, argv.split())
    assert time.perf_counter() - start < 0.3
    assert code == 0 and err == "" and last in out


def test_partition_past_the_size_limit_exits_two_at_once(tmp_path, capsys):
    # --rank 1000000000 built a list of a billion references first
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"0": "3/2", "1": -1}))
    for args, message in (
            ("--rank 1000000000", "rank 1000000000 is past the limit of 16"),
            ("--rank 17 --order 0", "rank 17 is past the limit of 16"),
            ("--order 1001", "order 1001 is past the limit of 1000"),
            ("--rank 2 --order 99999999999999999999999",
             "order 99999999999999999999999 is past the limit of 1000")):
        argv = ["partition", "--p-file", str(counts), *args.split()]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and out == "", argv
        assert err == "error: %s\n" % message, argv


def test_partition_at_the_size_limit_runs(tmp_path, capsys):
    # a dense count file: every degree up to the order carries a count
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(
        {str(m): "%d/%d" % ((-1) ** m * (1 + m % 9), 1 + m % 6)
         for m in range(1001)}))
    code, out, err = run(capsys, [
        "partition", "--p-file", str(counts), "--rank", "16",
        "--order", "1000"])
    assert code == 0 and err == ""
    assert out.startswith("q^0: 1\nq^1: -16\nq^2: 136\n")
    assert out.count("\n") == 1001


def test_counts_past_the_size_budget_exit_two_at_once(tmp_path, capsys):
    # dense files of long fractions ran for minutes at rank 16 before the
    # budget existed; 11 counts of 4,300 digits have 157,000 bits, and at
    # twist zero every count lands on degree zero
    long = "9" * 4300
    files = {
        "long_counts": ({str(m): long for m in range(11)}, "1"),
        "long_denominators": ({str(m): "1/%d" % (10**4299 + m)
                               for m in range(1001)}, "1"),
        "twist_zero": ({str(m): "1/%d" % (10**1000 + m)
                        for m in range(1001)}, "0"),
        "dense_fractions": ({str(m): "%d/%d" % (100 + m, 997 - m % 900)
                             for m in range(1001)}, "1")}
    for name, (doc, twist) in files.items():
        counts = tmp_path / (name + ".json")
        counts.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, [
            "partition", "--p-file", str(counts), "--rank", "16",
            "--order", "1000", "--twist", twist])
        assert time.perf_counter() - start < 1, name
        assert code == 2 and out == "", name
        assert err == ("error: the counts up to the order, over their "
                       "least common denominator, take more than 150000 "
                       "bits\n"), name


def test_unprintable_lowest_coefficient_exits_one_at_once(tmp_path, capsys):
    # inside the budget, but the lowest coefficient, the long count to the
    # 16th power, has 68,800 digits; the power of the whole file used more
    # than 3 GB before it could be refused
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(
        {"0": "9" * 4300, **{str(m): 1 + m % 9 for m in range(1, 1001)}}))
    start = time.perf_counter()
    code, out, err = run(capsys, [
        "partition", "--p-file", str(counts), "--rank", "16", "--order",
        "1000"])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == "error: coefficient of q^0 has more than 4300 digits\n"


def test_unprintable_higher_coefficient_exits_one_at_once(tmp_path, capsys):
    # the lowest coefficient is 1, but 16 times the long count at q^1 has
    # 4,302 digits; the coefficients are checked as the power makes them,
    # so the run stops there instead of first filling all 1,001 of them
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(
        {**{str(m): 1 for m in range(1001)}, "1": "9" * 4300}))
    start = time.perf_counter()
    code, out, err = run(capsys, [
        "partition", "--p-file", str(counts), "--rank", "16", "--order",
        "1000", "--twist", "1"])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == "error: coefficient of q^1 has more than 4300 digits\n"


def test_counts_inside_the_size_budget_run(tmp_path, capsys):
    # 10 counts of 4,300 digits have 142,840 bits, inside the budget; the
    # counts past the order do not count
    long = "9" * 4300
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(
        {**{str(m): long for m in range(10)}, "11": long, "12": long}))
    code, out, err = run(capsys, [
        "partition", "--p-file", str(counts), "--twist", "1", "--order",
        "10"])
    assert code == 0 and err == ""
    assert out.count("\n") == 10


def test_small_rational_strings_are_still_read(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"1": "3/2", "2": "1.5", "3": "2e3"}))
    code, out, _ = run(capsys, ["partition", "--p-file", str(counts),
                                "--order", "3"])
    assert code == 0
    assert out == "q^1: 3/2\nq^2: 3/2\nq^3: 2000\n"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(
        {"rank": 1, "p_total": ["3/2", "2e3"], "p_image": ["1.5", "1"],
         "subobjects": []}))
    code, out, _ = run(capsys, ["stability", "--model-file", str(model),
                                "--q-poly", "3/2,1.5,2e3", "--format",
                                "json"])
    assert code == 0
    assert json.loads(out)["stable"] is True


# Lists of small ints recur, at one depth and at several, as the weight
# forms of a series do; bools mixed into int lists must stay bools.
# Tuples hold ints only, as a weight form does.
_INT_LISTS = st.lists(st.integers(-2, 2), max_size=3) | st.lists(
    st.integers() | st.booleans(), max_size=4)
_INT_TUPLES = (st.lists(st.integers(-2, 2), max_size=3)
               | st.lists(st.integers(), max_size=4)).map(tuple)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | _INT_LISTS
    | _INT_TUPLES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=40)


# One list or tuple object placed at several depths, and equal tuples
# that are distinct objects, as a series document places the tuple of
# each weight form; [1, 0] and [True, False] are equal lists, (1, 0)
# holds the same values, and each must keep its own text.
_ONE_ZERO, _TRUE_FALSE = [1, 0], [True, False]


@st.composite
def _shared_lists(draw):
    shared = draw(st.lists(_INT_LISTS, min_size=1, max_size=3))
    tuples = draw(st.lists(_INT_TUPLES, min_size=1, max_size=3))
    shared += [_ONE_ZERO, _TRUE_FALSE, (1, 0), *tuples]
    # a copy of a nonempty tuple is a distinct object with an equal value
    copies = st.sampled_from(tuples).map(lambda t: tuple(list(t)))
    return draw(st.recursive(
        st.sampled_from(shared) | copies | st.integers(-2, 2),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=2), inner, max_size=4),
        max_leaves=30))


@given(_JSON | _shared_lists())
@example({"a": [[1, 2], [[1, 2]]], "b": [1, True], "c": [1, 1],
          "d": [[], {}, -10 ** 40], "\u00e9\n\"": "\t\u2603\\"})
@example({"a": [_ONE_ZERO, [_ONE_ZERO, [_ONE_ZERO]]],
          "b": [_TRUE_FALSE, _ONE_ZERO, [_TRUE_FALSE]],
          "c": _ONE_ZERO, "d": {"e": [[_TRUE_FALSE], _ONE_ZERO]},
          "f": _TRUE_FALSE})
@example({"a": [(1, 0), [1, 0], [True, False], (1, 0), tuple([1, 0])],
          "b": [[True, False], (1, 0), [(1, 0), ()]], "c": (1, 0),
          "d": {"e": (1, 0), "f": [(), (1, 0)]}, "g": ()})
def test_json_text_is_the_indented_dump(doc):
    assert _json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_json_text_refuses_floats_and_non_string_keys():
    for doc in (0.5, [1, 2.0], {"a": [1.0]}, {"a": {"b": float("nan")}},
                {1: 2}, {"a": {None: 1}}, [(1, 0.5)], {"a": (0.5,)}):
        with pytest.raises(TypeError):
            _json_text(doc)
