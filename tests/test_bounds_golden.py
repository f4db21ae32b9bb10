"""Golden static bounds: the numbers and witnesses the analyzer's path
walks produce, pinned for the example modules and a seeded set of
structured modules.

Pinned per case:

* ``harbor-lint --format json``: the ``stack`` section (per-domain call
  depth, safe-stack bound, worst inter-domain chain) and the
  ``overhead`` section (worst-path checked stores, xdom calls and
  activations per export);
* ``harbor-race --format json``: each region's ``latency`` section
  (per-ISR WCET or the reason it is unbounded, the longest
  interrupt-disabled run and its site, the latency bound).

The structured modules come from :func:`structured_module`: branches,
counted ``dec``/``brne`` loops and unbounded loops, nested and
recursive calls, kernel calls, ``cli``/``sei`` regions and ``isr_``
handlers, composed at random from a fixed seed.

Regenerate after an intended change to a bound with::

    PYTHONPATH=src python tests/test_bounds_golden.py
"""

import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile

import pytest

from repro.analysis.static import lint_system
from repro.asm import Assembler
from repro.cli import main
from repro.sfi.layout import SfiLayout
from repro.sfi.system import SfiSystem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "bounds.json")
EXAMPLES = os.path.join(ROOT, "examples", "modules")

SEEDS = range(24)


# =====================================================================
# Seeded structured modules
# =====================================================================
class _Writer:
    """Random structured AVR code over a fixed set of functions."""

    def __init__(self, rng, nfuncs, externs, raw):
        self.rng = rng
        self.nfuncs = nfuncs
        self.externs = list(externs)
        self.raw = raw
        self.labels = 0

    def label(self):
        self.labels += 1
        return "L{}".format(self.labels)

    def body(self, fn, depth, in_cli=False):
        lines = []
        for _ in range(self.rng.randint(1, 3)):
            lines.extend(self.statement(fn, depth, in_cli))
        return lines

    def statement(self, fn, depth, in_cli):
        rng = self.rng
        kinds = ["op", "op", "store", "load", "call", "call"]
        if depth < 2:
            kinds += ["branch", "branch", "loop", "loop", "skip"]
            if not in_cli:
                kinds += ["cli", "save_cli"] if self.raw else ["cli"]
        if self.externs:
            kinds.append("extern")
        kind = rng.choice(kinds)
        addr = "0x{:04x}".format(0x0700 + rng.randrange(8))
        if kind == "op":
            return [rng.choice(["inc r24", "add r24, r25", "nop",
                                "mov r25, r24", "subi r24, 3"])]
        if kind == "store":
            return ["sts {}, r24".format(addr)]
        if kind == "load":
            return ["lds r24, {}".format(addr)]
        if kind == "call":
            if fn is not None and rng.random() < 0.15:
                callee = rng.randrange(0, fn + 1)      # recursion
            else:
                low = 0 if fn is None else fn + 1
                if low >= self.nfuncs:
                    return ["nop"]
                callee = rng.randrange(low, self.nfuncs)
            # raw modules keep rcall so their pinned bounds stay as
            # they were; test_call_twin_lints_like_rcall covers call
            op = "rcall" if self.raw else rng.choice(["call", "rcall"])
            return ["{} f{}".format(op, callee)]
        if kind == "extern":
            return ["call {}".format(rng.choice(self.externs))]
        if kind == "skip":
            return ["sbrc r24, {}".format(rng.randrange(8)),
                    rng.choice(["inc r25", "lds r24, {}".format(addr)])]
        if kind == "branch":
            other, end = self.label(), self.label()
            return (["cpi r24, {}".format(rng.randrange(16)),
                     rng.choice(["breq", "brne", "brcs"]) + " " + other] +
                    self.body(fn, depth + 1, in_cli) +
                    ["rjmp " + end, other + ":"] +
                    self.body(fn, depth + 1, in_cli) +
                    [end + ":", "nop"])
        if kind == "loop":
            head = self.label()
            if rng.random() < 0.75:
                counter = "r{}".format(16 + depth)
                return (["ldi {}, {}".format(counter, rng.randint(1, 9)),
                         head + ":"] + self.body(fn, depth + 1, in_cli) +
                        ["dec " + counter, "brne " + head])
            return ([head + ":"] + self.body(fn, depth + 1, in_cli) +
                    ["lds r24, {}".format(addr), "cpi r24, 0",
                     "brne " + head])
        if kind == "cli":
            return ["cli"] + self.body(fn, depth + 1, True) + ["sei"]
        return (["in r23, 0x3f", "cli"] + self.body(fn, depth + 1, True) +
                ["out 0x3f, r23"])


def structured_module(seed, raw=True, externs=()):
    """``(source, functions, handlers)``: a seeded module of
    ``f0..fN`` functions (each ending in ``ret``).  A *raw* module also
    has ``isr_*`` handlers (ending in ``reti``) and saves/restores SREG
    around ``cli``, which the SFI verifier forbids; the others admit
    through the rewrite -> verify pipeline."""
    rng = random.Random(seed)
    nfuncs = rng.randint(2, 5)
    writer = _Writer(rng, nfuncs, externs, raw)
    lines = []
    functions = ["f{}".format(i) for i in range(nfuncs)]
    for index, name in enumerate(functions):
        lines.append(name + ":")
        lines.extend("    " + s for s in writer.body(index, 0))
        lines.append("    ret")
    handlers = []
    if raw:
        for index in range(rng.randint(1, 2)):
            name = "isr_{}".format(index)
            handlers.append(name)
            lines.append(name + ":")
            lines.append("    push r24")
            lines.extend("    " + s for s in writer.body(None, 0, True))
            lines.append("    pop r24")
            lines.append("    reti")
    return "\n".join(lines) + "\n", functions, handlers


# =====================================================================
# Cases
# =====================================================================
def _cli_json(argv):
    """Run one ``harbor-*`` invocation from the repo root; returns its
    exit status and parsed JSON stdout."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = main(argv)
    finally:
        os.chdir(cwd)
    return status, json.loads(out.getvalue())


def _lint_sections(argv):
    status, doc = _cli_json(["lint"] + argv + ["--format", "json"])
    analysis = doc["analysis"]
    return {"exit": status, "stack": analysis["stack"],
            "overhead": analysis["overhead"]}


def _race_sections(argv):
    status, doc = _cli_json(["race"] + argv + ["--format", "json"])
    return {"exit": status, "latency": {
        region: rep["latency"]
        for region, rep in doc["analysis"]["concurrency"].items()}}


def _static_logger_sections():
    """static_logger.s needs a static data span, which harbor-lint does
    not configure: admit it with elision and lint the live system."""
    path = os.path.join(EXAMPLES, "static_logger.s")
    system = SfiSystem(layout=SfiLayout(static_data_bytes=256,
                                        static_data_domains=1))
    with open(path) as handle:
        program = Assembler(symbols=system.kernel_symbols()).assemble(
            handle.read(), name=path)
    system.load_module(program, "static_logger", elide=True,
                       exports=("logger_fill", "logger_set",
                                "logger_tally"))
    analysis = lint_system(system)[1].analysis_dict()
    return {"stack": analysis["stack"], "overhead": analysis["overhead"]}


def collect(tmp):
    """Every pinned section, keyed by case name."""
    cases = {}
    clean = os.path.join("examples", "modules", "clean_sensor.s")
    cases["lint:clean_sensor"] = _lint_sections([clean])
    cases["lint-umpu:clean_sensor"] = _lint_sections(["--umpu", clean])
    for name in ("clean_sensor", "miscompiled", "racy_sampler"):
        path = os.path.join("examples", "modules", name + ".s")
        cases["lint-unchecked:" + name] = _lint_sections(
            ["--unchecked", path])
    for name in ("clean_sensor", "racy_sampler"):
        path = os.path.join("examples", "modules", name + ".s")
        cases["race:" + name] = _race_sections([path])
    cases["race:static_logger"] = _race_sections(
        [os.path.join("examples", "modules", "static_logger.s"),
         "--static-data", "256"])
    cases["lint-elided:static_logger"] = _static_logger_sections()

    for seed in SEEDS:
        source, functions, handlers = structured_module(
            seed, externs=("KERNEL_NOOP",) if seed % 2 else ())
        path = os.path.join(tmp, "s{}.s".format(seed))
        with open(path, "w") as handle:
            handle.write(source)
        cases["lint-unchecked:s{}".format(seed)] = _lint_sections(
            ["--unchecked", path + ":" + ",".join(functions + handlers)])
        cases["race:s{}".format(seed)] = _race_sections(
            [path + ":" + ",".join(functions)])
        source, functions, _ = structured_module(
            seed, raw=False, externs=("KERNEL_NOOP",))
        path = os.path.join(tmp, "c{}.s".format(seed))
        with open(path, "w") as handle:
            handle.write(source)
        cases["lint:c{}".format(seed)] = _lint_sections(
            [path + ":" + ",".join(functions)])

    # a chain of domains: each module calls exports of the ones before
    specs = []
    externs = ["KERNEL_NOOP"]
    for index, stem in enumerate(("ma", "mb", "mc")):
        source, functions, _ = structured_module(
            100 + index, raw=False, externs=externs)
        path = os.path.join(tmp, stem + ".s")
        with open(path, "w") as handle:
            handle.write(source)
        specs.append(path + ":" + ",".join(functions))
        externs = externs + ["JT_{}_{}".format(stem.upper(), f.upper())
                             for f in functions[:2]]
    cases["lint:chain"] = _lint_sections(specs)
    cases["lint-umpu:chain"] = _lint_sections(["--umpu"] + specs)
    return cases


@pytest.fixture(scope="module")
def collected():
    with tempfile.TemporaryDirectory() as tmp:
        return collect(tmp)


def _golden():
    if not os.path.exists(GOLDEN):      # regenerating
        return {}
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(_golden()))
def test_bounds_match_golden(case, collected):
    assert collected[case] == _golden()[case]


def test_golden_covers_every_case(collected):
    assert sorted(collected) == sorted(_golden())


def _unchecked_lint(argv):
    """Finding codes and ``stack`` section of ``harbor-lint
    --unchecked``."""
    _status, doc = _cli_json(["lint", "--unchecked"] + argv +
                             ["--format", "json"])
    return ({f["code"] for f in doc["findings"]},
            doc["analysis"]["stack"])


@pytest.mark.parametrize("system", [[], ["--umpu"]], ids=["sfi", "umpu"])
def test_call_twin_lints_like_rcall(system, tmp_path):
    """Placing a raw image relocates its absolute calls: the ``call``
    twin of each raw seeded module (``rcall fN`` -> ``call fN``) keeps
    every internal call inside the module (no HL006) and has the same
    stack bounds as the ``rcall`` form."""
    twins = 0
    for seed in SEEDS:
        source, functions, handlers = structured_module(
            seed, externs=("KERNEL_NOOP",) if seed % 2 else ())
        twin = re.sub(r"\brcall (f\d+)", r"call \1", source)
        if twin == source:
            continue
        twins += 1
        bounds = []
        for form, text in (("rcall", source), ("call", twin)):
            # one file name for both forms: it names the region
            path = tmp_path / form / "s{}.s".format(seed)
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
            codes, stack = _unchecked_lint(
                system + ["{}:{}".format(path, ",".join(functions +
                                                        handlers))])
            assert "HL006" not in codes, (seed, form)
            bounds.append(stack)
        assert bounds[0] == bounds[1], seed
    assert twins > len(SEEDS) // 2


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        doc = collect(scratch)
    with open(GOLDEN, "w") as dst:
        json.dump(doc, dst, indent=1, sort_keys=True)
        dst.write("\n")
    print("wrote", len(doc), "cases", file=sys.stderr)
