"""Golden CLI transcript: one or more invocations per ``harbor-*`` tool
on the committed examples, with stdout and the exit status pinned
byte-for-byte under ``tests/golden/cli/``.

Each golden file holds ``exit: N`` on its first line, then the exact
stdout.  Paths a tool writes (``-o``, ``--report``) go to a temporary
directory and only ever appear on stderr, which is not pinned.

Regenerate after an intended output change with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
import sys
import tempfile

import pytest

from repro.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "cli")

DEMO = "examples/profile_demo.s"
CLEAN = "examples/modules/clean_sensor.s"
MISCOMPILED = "examples/modules/miscompiled.s"
RACY = "examples/modules/racy_sampler.s"
LOGGER = ("examples/modules/static_logger.s:"
          "logger_fill,logger_set,logger_tally")

# name -> argv for ``python -m repro.cli``; "{tmp}" is a scratch dir
CASES = {
    "lint_text": ["lint", CLEAN],
    "lint_umpu": ["lint", "--umpu", CLEAN],
    "lint_unchecked_text": ["lint", "--unchecked", MISCOMPILED,
                            "-o", "{tmp}/lint.txt"],
    "lint_json": ["lint", "--unchecked", MISCOMPILED, "--format", "json"],
    "lint_sarif": ["lint", "--unchecked", MISCOMPILED,
                   "--format", "sarif"],
    "race": ["race", RACY],
    "race_json": ["race", RACY, "--format", "json",
                  "--latency-report", "{tmp}/latency.json"],
    "opt": ["opt", LOGGER, "--static-data", "256",
            "-o", "{tmp}/manifest.json"],
    "certify_report": ["certify", CLEAN, "--report", "{tmp}/jit.json"],
    "certify_unchecked": ["certify", "--unchecked", MISCOMPILED],
    "rewrite": ["rewrite", DEMO, "--origin", "0", "--export", "main",
                "--export", "work"],
    "verify": ["verify", DEMO],
    "asm_listing": ["asm", DEMO, "--listing"],
    "disasm": ["disasm", DEMO],
    "run": ["run", DEMO, "--entry", "main", "--umpu",
            "--dump", "0x300:16"],
    "run_fault": ["run", DEMO, "--entry", "main", "--umpu",
                  "--domain", "0"],
    "trace_text": ["trace", DEMO, "--entry", "main", "--text",
                   "-o", "{tmp}/trace.json"],
    "profile": ["profile", DEMO, "--entry", "main", "--umpu"],
    "replay_to_fault": ["replay", DEMO, "--entry", "main", "--umpu",
                        "--domain", "0", "--to-fault"],
    "explain_fault_json": ["explain-fault", DEMO, "--entry", "main",
                           "--umpu", "--domain", "0", "--json"],
    "metrics_json": ["metrics", DEMO, "--entry", "main", "--umpu",
                     "--json"],
    "fuzz_sfi_index3": ["fuzz", "--system", "sfi", "--index", "3",
                        "--seed", "2007"],
}


def transcript(argv, tmp):
    """Run one invocation from the repo root; ``exit: N`` + stdout."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = main([a.replace("{tmp}", tmp) for a in argv])
    finally:
        os.chdir(cwd)
    return "exit: {}\n{}".format(status, out.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_matches_golden(name, tmp_path):
    with open(os.path.join(GOLDEN, name + ".txt")) as handle:
        expected = handle.read()
    assert transcript(CASES[name], str(tmp_path)) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case, case_argv in sorted(CASES.items()):
            with open(os.path.join(GOLDEN, case + ".txt"), "w") as dst:
                dst.write(transcript(case_argv, scratch))
            print("wrote", case, file=sys.stderr)
