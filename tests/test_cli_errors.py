"""Malformed input to any ``harbor-*`` tool ends in a typed error: one
``error: ...`` line on stderr and exit status 2 — never a traceback, and
never status 1, which the gates read as "findings" or "rejected"."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main

FILES = {
    "garbage.hex": "garbage\n",
    "zz.hex": "zz: 12\n",
    "bad.s": "f:\n    frob r1\n    ret\n",
    "ok.s": "main:\n    ldi r24, 1\n    ret\n",
    "noentry.s": "    ldi r24, 1\n    ret\n",
    "arr.json": "[1,2]",
}

CASES = (
    [[tool, "/nonexistent.s"] for tool in ("asm", "run", "explain-fault")]
    + [[tool, image] for tool in ("disasm", "verify", "lint", "certify",
                                   "race")
       for image in ("garbage.hex", "zz.hex")]
    + [[tool, "bad.s"] for tool in ("rewrite", "verify", "run", "metrics")]
    + [["run", "ok.s", "--entry", "nosuch"],
       ["trace", "ok.s", "--entry", "nosuch"],
       ["lint", "ok.s:nosuch"],
       ["certify", "ok.s:nosuch"],
       ["run", "noentry.s"],
       ["run", "ok.s", "--max-cycles", "-1"],
       ["run", "ok.s", "--entry", "main", "--umpu", "--domain", "99"],
       ["run", "ok.s", "--entry", "main", "--umpu", "--domain", "-1"],
       ["run", "ok.s", "--entry", "main", "--domain", "1"],
       ["lint", "ok.s", "-o", "/nonexistent/dir/r.txt"],
       ["lint", "ok.s", "--baseline", "arr.json"]])


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_malformed_input_is_a_typed_error(argv, inputs):
    status, err = invoke(argv)
    assert status == 2
    assert err.count("error: ") == 1, err
    assert "Traceback" not in err


def test_bad_image_line_names_file_and_line(inputs):
    (inputs / "late.hex").write_text("00000: 9508\n# note\n00001 9508\n")
    status, err = invoke(["disasm", "late.hex"])
    assert status == 2
    assert "late.hex:3:" in err


# a line no image parser accepts: not hex, not a comment
_BAD_LINE = st.text(alphabet="ghijklmnopqrstuvwxyz!$%&*+-", min_size=1,
                    max_size=8)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(prefix=st.binary(max_size=64), bad=_BAD_LINE,
       suffix=st.binary(max_size=64), tool=st.sampled_from(["disasm",
                                                            "lint"]))
def test_random_image_with_a_bad_line_exits_two(prefix, bad, suffix, tool,
                                                tmp_path):
    path = tmp_path / "fuzz.hex"
    path.write_bytes(prefix + b"\n" + bad.encode() + b"\n" + suffix)
    status, err = invoke([tool, str(path)])
    assert status == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=128),
       tool=st.sampled_from(["disasm", "lint"]))
def test_random_image_bytes_never_crash(data, tool, tmp_path):
    path = tmp_path / "fuzz.hex"
    path.write_bytes(data)
    status, err = invoke([tool, str(path)])
    assert status in (0, 1, 2)
    if status == 2:
        assert err.startswith("error: ")
