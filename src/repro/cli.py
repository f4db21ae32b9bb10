"""Command-line tools for the Harbor toolchain.

Installed as console scripts (see ``pyproject.toml``):

* ``harbor-asm SOURCE [-o OUT.hex] [--listing]`` — assemble AVR source
  to a flash image (simple hex word dump) and/or a listing.
* ``harbor-disasm IMAGE.hex`` — disassemble an image.
* ``harbor-rewrite SOURCE --export NAME [...]`` — run the binary
  rewriter and print the sandboxed listing + statistics.
* ``harbor-verify SOURCE`` — run the on-node verifier over an image and
  report accept/reject.
* ``harbor-run SOURCE --entry LABEL`` — execute a program on the
  simulator (plain, or with UMPU protection via ``--umpu``).
* ``harbor-trace SOURCE -o OUT.json`` — execute with the structured
  trace attached and export a Chrome ``about://tracing`` JSON.
* ``harbor-profile SOURCE`` — execute with the per-domain cycle
  profiler attached and print the attribution breakdown (optionally
  also exporting the Chrome trace); see ``docs/observability.md``.
* ``harbor-replay SOURCE [--to-cycle C | --to-fault] [--window K]`` —
  record a run as a cycle-indexed timeline (keyframe snapshots), then
  seek it: deterministically replay to any cycle or to the fault and
  show the machine state plus a replay-derived instruction window with
  live register/SREG values; ``-o`` exports the timeline index and
  ``--speedscope`` the per-block heat profile.
* ``harbor-explain-fault SOURCE`` — execute with tracing + the fault
  forensics flight recorder attached; on a protection fault, print the
  structured panic dump (text or ``--json``).
* ``harbor-metrics SOURCE`` — execute with the metrics registry
  attached and print/export the counters, gauges and histograms.
* ``harbor-lint MODULE[:EXPORTS] [...]`` — build a whole node image
  from module sources (through the rewriter/verifier pipeline, or raw
  with ``--unchecked``) and run the whole-image static analyzer: CFG +
  abstract-interpretation protection verification, safe-stack bounds,
  overhead estimation and dead-code detection, reported with stable
  ``HLxxx`` rule codes (text, JSON or SARIF); see
  ``docs/static-analysis.md``.
* ``harbor-fuzz [--system sfi|umpu|both] [--count N] [--seed S]`` —
  adversarial soundness campaign: generate seeded hostile modules,
  drive them through the admission pipeline, execute the admitted ones
  on both execution paths under a write oracle and exit non-zero on
  any isolation escape; ``--index`` replays one candidate,
  ``--artifacts`` dumps escape records; see ``docs/soundness.md``.
* ``harbor-opt MODULE[:EXPORTS] [...]`` — proof-directed check elision:
  load modules with the prover enabled, strip run-time store checks it
  proves redundant against the layout's static data spans, write the
  ``ElisionManifest`` proof records and re-lint the elided image; see
  the "Check elision" section of ``docs/static-analysis.md``.
* ``harbor-certify MODULE[:EXPORTS] [...]`` — translation validation:
  load modules through the rewrite→(elide)→verify pipeline, then prove
  the installed flash is a sanctioned translation of each source
  (checked/manifest-covered stores, frame discipline, control-edge
  correspondence; ``HL017`` on any mismatch) and classify every
  installed block for the planned block JIT (``HL018`` notes);
  ``--report`` writes the JIT-readiness JSON; see the "Translation
  validation" section of ``docs/static-analysis.md``.

The image format is deliberately trivial: one ``ADDR: WORD`` hex pair
per line (word addresses), so images are diffable and editable.

Every tool goes through one driver (:func:`_tool`) that parses its
arguments and maps what the tool raises onto one exit-code contract —
0 ok; 1 findings, a rejected module, an escape or no fault to seek; 2 a
protection fault or bad input (``error: ...`` on stderr) — see the
exit-code table in ``docs/toolchain.md``.
"""

import argparse
import functools
import json
import sys

from repro.asm import AsmError, Assembler, assemble, listing
from repro.asm.assembler import default_symbols
from repro.asm.program import Program
from repro.core.faults import ProtectionFault
from repro.isa.registers import ATMEGA103
from repro.sfi.layout import SfiLayout
from repro.sfi.inline import InlineRewriter, TemplateVerifier
from repro.sfi.rewriter import RewriteError, Rewriter
from repro.sfi.runtime_asm import build_runtime
from repro.sfi.verifier import Verifier, VerifyError
from repro.sim import Machine
from repro.sim.errors import SimError
from repro.umpu import HarborLayout, UmpuMachine


class CliError(Exception):
    """Bad input no lower layer has a type for: a malformed image line
    or flag value, an unknown label."""


#: what a tool raises when its input is bad: ``error: ...``, exit 2
_BAD_INPUT = (OSError, ValueError, AsmError, SimError, CliError)

#: tool name -> console-script target, in ``main()``'s usage order
TOOLS = {}


def _tool(name, description, *parents, rejects=(RewriteError, VerifyError),
          rejected="error: {}", stream="stderr"):
    """Register ``harbor-<name>``.

    The decorated ``body(args)`` becomes the console-script target
    ``cmd(argv=None)``: it parses *argv* against the shared *parents*
    plus the body's own :func:`_arg` flags, runs the body and maps what
    it raises onto the exit-code contract.  *rejects* (the module was
    rejected) prints *rejected* on *stream* and exits 1; a protection
    fault prints on *stream* and exits 2; bad input prints ``error:
    ...`` on stderr and exits 2.
    """
    def register(body):
        @functools.wraps(body)
        def cmd(argv=None):
            parser = argparse.ArgumentParser(
                prog="harbor-" + name, description=description,
                parents=parents)
            for flags, spec in getattr(body, "arguments", ()):
                parser.add_argument(*flags, **spec)
            args = parser.parse_args(argv)
            out = getattr(sys, stream)
            try:
                return body(args)
            except rejects as exc:
                print(rejected.format(exc), file=out)
                return 1
            except ProtectionFault as exc:
                print("protection fault: {}".format(exc), file=out)
                return 2
            except _BAD_INPUT as exc:
                print("error: {}".format(exc), file=sys.stderr)
                return 2
        TOOLS[name] = cmd
        return cmd
    return register


def _arg(*flags, **spec):
    """Declare one of a tool's own arguments (``add_argument`` style);
    stack them under :func:`_tool` in the order they should appear."""
    def declare(body):
        body.arguments = [(flags, spec)] + getattr(body, "arguments", [])
        return body
    return declare


def _int(text):
    return int(text, 0)


# --- flags several tools share -----------------------------------------
_RUN = argparse.ArgumentParser(add_help=False)
_RUN.add_argument("source")
_RUN.add_argument("--entry", default=None,
                  help="label to call (default: run from reset)")
_RUN.add_argument("--umpu", action="store_true",
                  help="enable the UMPU protection units")
_RUN.add_argument("--domain", type=int, default=None,
                  help="run as this protection domain (with --umpu)")
_RUN.add_argument("--max-cycles", type=int, default=1_000_000)

_MODULES = argparse.ArgumentParser(add_help=False)
_MODULES.add_argument("modules", nargs="+", metavar="MODULE[:EXPORTS]",
                      help="module source (.s) or image (.hex); EXPORTS "
                           "is a comma-separated export list (default: "
                           "every label)")

_ALLOW_IO = argparse.ArgumentParser(add_help=False)
_ALLOW_IO.add_argument("--allow-io", action="append", default=[],
                       type=_int,
                       help="whitelisted I/O address (repeatable)")

_FAIL_ON = argparse.ArgumentParser(add_help=False)
_FAIL_ON.add_argument("--fail-on", choices=("error", "warning", "note"),
                      default="error",
                      help="exit 1 when a finding at or above this "
                           "severity exists (default: error)")

_REPORT = argparse.ArgumentParser(add_help=False, parents=[_FAIL_ON])
_REPORT.add_argument("--format", choices=("text", "json", "sarif"),
                     default="text", help="report format")
_REPORT.add_argument("-o", "--output", default=None,
                     help="write the report here (in --format)")


def _static_data(default):
    """The ``--static-data`` flag, defaulting to *default* bytes."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--static-data", type=_int, default=default,
                        metavar="BYTES",
                        help="per-domain static data span size, so "
                             "modules referencing SDATA_D* symbols "
                             "assemble (multiple of 256; 0 disables; "
                             "default {})".format(default))
    return parent


def _layout(args, domains=None):
    """The SfiLayout ``--static-data`` asks for: a span for each of
    *domains* domains (default: one per module)."""
    if domains is None:
        domains = min(len(args.modules), SfiLayout().ndomains - 1)
    return SfiLayout(static_data_bytes=args.static_data,
                     static_data_domains=domains if args.static_data
                     else 0)


# --- images, sources and modules ---------------------------------------
def _read_source(path):
    with open(path) as handle:
        return handle.read()


def _load_image(path):
    """Parse a hex image; a malformed line raises CliError naming
    ``path:line``."""
    program = Program(source_name=path)
    with open(path, errors="replace") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                addr, word = (int(field, 16) for field in line.split(":"))
                valid = (0 <= addr < ATMEGA103.flash_bytes // 2
                         and 0 <= word <= 0xFFFF)
            except ValueError:
                valid = False
            if not valid:
                raise CliError("{}:{}: malformed image line {!r} (want "
                               "ADDR: WORD in hex)".format(path, line_no,
                                                           line))
            program.set_word(addr, word)
    return program


def _dump_image(program, out):
    for word_addr in sorted(program.words):
        out.write("{:05x}: {:04x}\n".format(word_addr,
                                            program.words[word_addr]))


def _assemble_arg(path):
    if path.endswith(".hex"):
        return _load_image(path)
    return assemble(_read_source(path), name=path)


def _require_labels(names, labels, path):
    for name in names:
        if name not in labels:
            raise CliError("{}: unknown label {!r}".format(path, name))


def _load_modules(specs, system, every_label=True):
    """Yield ``(name, program, labels, exports)`` for each
    ``MODULE[:EXPORTS]`` spec: a ``.hex`` image, or a source assembled
    against *system*'s kernel symbols as they stand when it is reached
    (so a module can call the exports of one loaded before it).
    *labels* are the module's own code labels; *exports* the named ones,
    or every label when the spec names none and *every_label* is set."""
    for spec in specs:
        path, _, names = spec.partition(":")
        symbols = system.kernel_symbols()
        if path.endswith(".hex"):
            program = _load_image(path)
        else:
            program = Assembler(symbols=symbols).assemble(
                _read_source(path), name=path)
        lo, hi = program.extent()
        predefined = set(default_symbols()) | set(symbols)
        labels = {n: a for n, a in program.symbols.items()
                  if n not in predefined and lo * 2 <= a <= hi * 2 + 1}
        exports = tuple(e for e in names.split(",") if e)
        _require_labels(exports, labels, path)
        if not exports and every_label:
            exports = tuple(sorted(labels))
        yield (path.rsplit("/", 1)[-1].rsplit(".", 1)[0], program, labels,
               exports)


# --- reports -------------------------------------------------------------
def _parse_rule_filter(specs):
    """Resolve repeatable comma-separated HL codes / slugs to a code
    set (harbor-lint ``--select`` / ``--ignore``)."""
    from repro.analysis.static.diagnostics import rule
    codes = set()
    for spec in specs:
        for token in spec.split(","):
            token = token.strip()
            if token:
                try:
                    codes.add(rule(token).code)
                except KeyError as exc:
                    raise CliError(exc.args[0]) from None
    return codes


def _findings_at_or_above(engine, threshold):
    """Count findings at or above *threshold* severity (the ``--fail-on``
    gate; severities order most-severe-first)."""
    from repro.analysis.static.diagnostics import SEVERITIES
    rank = SEVERITIES.index(threshold)
    return sum(1 for d in engine.findings
               if SEVERITIES.index(d.severity) <= rank)


def _emit_report(args, engine, text, analysis, tool):
    """Print the report in ``--format`` — *text*, or the JSON/SARIF
    document of *engine* carrying *analysis* — and write it to ``-o``;
    returns the ``--fail-on`` exit status."""
    from repro.analysis.static.diagnostics import write_report
    if args.format == "text":
        print(text)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
    else:
        if args.output:
            write_report(args.output, engine, fmt=args.format,
                         analysis=analysis)
        doc = engine.to_sarif() if args.format == "sarif" \
            else engine.to_dict(analysis=analysis)
        print(json.dumps(doc, indent=1, sort_keys=True))
    if args.output:
        print("; {} report -> {}".format(tool, args.output),
              file=sys.stderr)
    return 1 if _findings_at_or_above(engine, args.fail_on) else 0


# ---------------------------------------------------------------------
@_tool("asm", "assemble AVR source", rejects=AsmError)
@_arg("source")
@_arg("-o", "--output", help="write hex image here")
@_arg("--listing", action="store_true",
      help="print a disassembly listing")
def cmd_asm(args):
    program = assemble(_read_source(args.source), name=args.source)
    if args.output:
        with open(args.output, "w") as out:
            _dump_image(program, out)
    if args.listing or not args.output:
        print(listing(program))
    print("; {} bytes of code, {} symbols".format(
        program.code_bytes, len(program.symbols)), file=sys.stderr)
    return 0


@_tool("disasm", "disassemble a flash image")
@_arg("image", help=".hex image or .s source")
def cmd_disasm(args):
    print(listing(_assemble_arg(args.image)))
    return 0


@_tool("rewrite", "sandbox a module with the binary rewriter",
       rejected="rewrite error: {}")
@_arg("source")
@_arg("--export", action="append", default=[],
      help="exported function (repeatable)")
@_arg("--origin", type=_int, default=None,
      help="load address (default: after jump tables)")
@_arg("--inline", action="store_true",
      help="inline the check templates instead of calling the runtime "
           "stubs")
@_arg("-o", "--output", help="write hex image here")
def cmd_rewrite(args):
    layout = SfiLayout()
    runtime = build_runtime(layout)
    rewriter_cls = InlineRewriter if args.inline else Rewriter
    rewriter = rewriter_cls(runtime.symbols, layout)
    module = _assemble_arg(args.source)
    _require_labels(args.export, module.symbols, args.source)
    origin = args.origin if args.origin is not None else layout.jt_end
    result = rewriter.rewrite(module, origin, exports=args.export)
    if args.output:
        with open(args.output, "w") as out:
            _dump_image(result.program, out)
    else:
        print(listing(result.program))
    stats = result.stats
    print("; {} -> {} bytes; stores={} xcalls={} prologues={} rets={}"
          .format(stats["size_in"], stats["size_out"], stats["stores"],
                  stats["cross_calls"], stats["prologues"],
                  stats["rets"]), file=sys.stderr)
    for name, addr in sorted(result.exports.items()):
        print("; export {} at 0x{:04x}".format(name, addr),
              file=sys.stderr)
    return 0


@_tool("verify", "run the on-node verifier over a module image",
       _ALLOW_IO, rejected="REJECTED: {}", stream="stdout")
@_arg("image", help=".hex image or .s source")
@_arg("--inline", action="store_true",
      help="use the template verifier (accepts inline-checked binaries)")
def cmd_verify(args):
    layout = SfiLayout()
    runtime = build_runtime(layout)
    verifier_cls = TemplateVerifier if args.inline else Verifier
    verifier = verifier_cls(runtime.symbols, layout,
                            allowed_io=tuple(args.allow_io))
    program = _assemble_arg(args.image)
    lo, hi = program.extent()
    report = verifier.verify(program, lo * 2, (hi + 1) * 2)
    print("ACCEPTED: {} instructions, {} runtime calls, {} internal "
          "calls, {} rets".format(report.instructions,
                                  report.calls_to_runtime,
                                  report.internal_calls, report.rets))
    return 0


def _build_machine(args):
    program = _assemble_arg(args.source)
    if args.entry:
        _require_labels([args.entry], program.symbols, args.source)
    if args.domain is not None and not args.umpu:
        raise CliError("--domain needs --umpu")
    if args.umpu:
        machine = UmpuMachine(program, layout=HarborLayout())
        if args.domain is not None:
            machine.enter_domain(args.domain)
    else:
        machine = Machine(program)
    return machine


def _execute(machine, args):
    """Run per the shared run arguments; returns (cycles, fault)."""
    try:
        if args.entry:
            cycles = machine.call(args.entry, max_cycles=args.max_cycles)
        else:
            cycles = machine.run(max_cycles=args.max_cycles)
    except ProtectionFault as exc:
        return machine.core.cycles, exc
    return cycles, None


@_tool("run", "run a program on the simulator", _RUN, stream="stdout")
@_arg("--dump", action="append", default=[],
      help="ADDR[:LEN] memory ranges to print after")
def cmd_run(args):
    machine = _build_machine(args)
    cycles, fault = _execute(machine, args)
    if fault is not None:
        raise fault
    print("halted after {} cycles; r24:25 = 0x{:04x}".format(
        cycles, machine.result16()))
    for spec in args.dump:
        addr_text, _, len_text = spec.partition(":")
        addr = int(addr_text, 0)
        length = int(len_text, 0) if len_text else 16
        data = machine.read_bytes(addr, length)
        print("0x{:04x}: {}".format(
            addr, " ".join("{:02x}".format(b) for b in data)))
    return 0


# ---------------------------------------------------------------------
@_tool("trace", "run a program with the structured trace attached and "
                "export Chrome trace_event JSON (load in about://tracing "
                "or ui.perfetto.dev)", _RUN)
@_arg("-o", "--output", default="trace.json",
      help="Chrome trace output path (default: trace.json)")
@_arg("--capacity", type=int, default=65536,
      help="trace ring-buffer capacity (events)")
@_arg("--text", action="store_true",
      help="also dump the raw events as text")
def cmd_trace(args):
    from repro.trace import write_chrome_trace
    machine = _build_machine(args)
    sink = machine.attach_trace(capacity=args.capacity)
    cycles, fault = _execute(machine, args)
    write_chrome_trace(args.output, sink)
    if args.text:
        for event in sink:
            print("{:>8}  {:<20} pc={} domain={} {}".format(
                event.cycle, event.kind.value,
                "-" if event.pc is None else "0x{:04x}".format(event.pc),
                "-" if event.domain is None else event.domain,
                event.data))
    print("; {} cycles, {} events ({} dropped) -> {}".format(
        cycles, sink.emitted, sink.dropped, args.output),
        file=sys.stderr)
    if fault is not None:
        raise fault
    return 0


@_tool("profile", "run a program with the per-domain cycle profiler and "
                  "print the attribution breakdown", _RUN)
@_arg("--chrome", default=None, metavar="OUT.json",
      help="also export the Chrome trace here")
@_arg("--capacity", type=int, default=65536,
      help="trace ring-buffer capacity (events)")
@_arg("--blocks", action="store_true",
      help="also rank per-basic-block execution heat (records a "
           "timeline and replays it)")
@_arg("--top", type=int, default=20,
      help="blocks to list with --blocks (default 20)")
@_arg("--speedscope", default=None, metavar="OUT.json",
      help="export the block heat as a speedscope profile (implies "
           "--blocks)")
@_arg("--interval", type=int, default=None,
      help="timeline keyframe interval in cycles (with --blocks)")
def cmd_profile(args):
    from repro.trace import flat_report, write_chrome_trace
    machine = _build_machine(args)
    sink = machine.attach_trace(capacity=args.capacity)
    profiler = machine.attach_profiler()
    blocks = args.blocks or args.speedscope
    timeline = machine.attach_timeline(interval=args.interval) \
        if blocks else None
    cycles, fault = _execute(machine, args)
    print(flat_report(profiler, sink,
                      title="Cycle attribution: {}".format(args.source)))
    if fault is None:
        profiler.assert_balanced(machine.core)
        print("; attribution balanced: {} cycles == core.cycles delta"
              .format(profiler.total()), file=sys.stderr)
    if blocks:
        from repro.trace import BlockHeat, write_speedscope
        heat = BlockHeat.from_machine(machine).feed(timeline)
        print()
        print(heat.render(top=args.top))
        if args.speedscope:
            write_speedscope(args.speedscope, heat,
                             name="profile:{}".format(args.source))
            print("; speedscope profile -> {}".format(args.speedscope),
                  file=sys.stderr)
    if args.chrome:
        write_chrome_trace(args.chrome, sink)
        print("; chrome trace -> {}".format(args.chrome),
              file=sys.stderr)
    if fault is not None:
        raise fault
    return 0


@_tool("replay", "record a run with keyframe snapshots, then seek the "
                 "time-travel timeline: replay to a cycle or to the fault "
                 "and show the machine state plus a replay-derived "
                 "instruction window with live register/SREG values", _RUN)
@_arg("--interval", type=int, default=None,
      help="keyframe interval in cycles (default {})".format(10_000))
@_arg("--to-cycle", type=int, default=None, metavar="C",
      help="seek to cycle C after the run")
@_arg("--to-fault", action="store_true",
      help="seek to the recorded protection fault")
@_arg("--window", type=int, default=8, metavar="K",
      help="instructions of replayed history to show")
@_arg("-o", "--output", default=None, metavar="TIMELINE.json",
      help="write the timeline index (keyframes, segments, faults, "
           "stats) here")
@_arg("--speedscope", default=None, metavar="OUT.json",
      help="replay the whole recording and export the block heat as a "
           "speedscope profile")
def cmd_replay(args):
    from repro.trace import BlockHeat, write_speedscope
    machine = _build_machine(args)
    timeline = machine.attach_timeline(interval=args.interval)
    cycles, fault = _execute(machine, args)
    timeline.finalize()
    print("; recorded {} cycles, {} keyframes (interval {})".format(
        cycles, len(timeline.keyframes), timeline.interval),
        file=sys.stderr)
    if fault is not None:
        print("; protection fault at cycle {}: {}".format(
            timeline.fault_cycle, fault), file=sys.stderr)

    status = 0
    target = None
    if args.to_fault:
        if not timeline.faults:
            print("no protection fault recorded", file=sys.stderr)
            status = 1
        else:
            target = timeline.fault_cycle
    elif args.to_cycle is not None:
        target = args.to_cycle

    if target is not None:
        core = machine.core
        timeline.seek(target)
        print("state at cycle {} (seek target {}):".format(
            core.cycles, target))
        print("  pc=0x{:05x}  instret={}  SREG=0x{:02x}  SP=0x{:04x}"
              "  halted={}".format(core.pc * 2, core.instret,
                                   machine.memory.sreg, machine.memory.sp,
                                   core.halted))
        for row in range(0, 32, 8):
            cells = " ".join("{:02x}".format(machine.memory.data[r])
                             for r in range(row, row + 8))
            print("  r{:<2}-r{:<2} {}".format(row, row + 7, cells))
        window = timeline.window(
            cycle=None if args.to_fault else target, before=args.window,
            symbols=None if machine.program is None
            else {a: n for n, a in machine.program.symbols.items()})
        print("  replayed window ({} instructions):".format(len(window)))
        for entry in window:
            mark = "  <-- FAULT" if entry["fault"] else ""
            print("    0x{:05x}  {:<28} [SREG=0x{:02x} SP=0x{:04x}]{}"
                  .format(entry["pc"], entry["text"], entry["sreg"],
                          entry["sp"], mark))
        timeline.seek(target)  # leave the machine at the seek target

    if args.speedscope:
        heat = BlockHeat.from_machine(machine).feed(timeline)
        write_speedscope(args.speedscope, heat,
                         name="replay:{}".format(args.source))
        print("; speedscope profile -> {}".format(args.speedscope),
              file=sys.stderr)
    if args.output:
        timeline.write(args.output)
        print("; timeline -> {}".format(args.output), file=sys.stderr)
    if target is None and fault is not None:
        return 2
    return status


@_tool("explain-fault", "run a program with fault forensics attached and "
                        "explain any protection fault: registers, "
                        "annotated faulting address, cross-domain call "
                        "stack, and the last retired instructions", _RUN)
@_arg("--window", type=int, default=16,
      help="instructions of history to disassemble")
@_arg("--json", action="store_true",
      help="print the report as JSON instead of text")
@_arg("-o", "--output", default=None, metavar="OUT.json",
      help="also write the JSON report here")
def cmd_explain_fault(args):
    machine = _build_machine(args)
    machine.attach_trace()
    machine.attach_forensics(window=args.window)
    cycles, fault = _execute(machine, args)
    if fault is None:
        print("no protection fault after {} cycles".format(cycles))
        return 0
    report = getattr(fault, "report", None)
    if report is None:  # fault from a layer outside the machine funnel
        machine.record_fault(fault)
        report = fault.report
    if args.json:
        print(report.to_json())
    else:
        print(report.text())
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report.to_json())
        print("; fault report -> {}".format(args.output), file=sys.stderr)
    return 2


@_tool("metrics", "run a program with the metrics registry attached and "
                  "print the counters/gauges/histograms", _RUN)
@_arg("--json", action="store_true",
      help="print the registry as JSON instead of text")
@_arg("-o", "--output", default=None, metavar="OUT.json",
      help="also write the JSON export here")
def cmd_metrics(args):
    from repro.trace import write_metrics
    machine = _build_machine(args)
    registry = machine.attach_metrics()
    cycles, fault = _execute(machine, args)
    registry.sample(machine)
    if args.json:
        print(json.dumps(registry.to_dict(), indent=1, sort_keys=True))
    else:
        print(registry.render())
    if args.output:
        write_metrics(args.output, registry)
        print("; metrics -> {}".format(args.output), file=sys.stderr)
    print("; {} cycles, {} metrics".format(cycles, len(registry)),
          file=sys.stderr)
    if fault is not None:
        raise fault
    return 0


@_tool("lint", "whole-image static analyzer: build a node image from "
               "module sources and run the CFG + abstract-interpretation "
               "analyses (protection verification, safe-stack bounds, "
               "overhead estimation, dead code); findings carry stable "
               "HLxxx rule codes", _MODULES, _ALLOW_IO, _REPORT)
@_arg("--umpu", action="store_true",
      help="model the hardware-protected system (modules load "
           "unrewritten)")
@_arg("--unchecked", action="store_true",
      help="place the raw images without the rewriter/verifier pipeline "
           "— lint miscompiled or hand-written binaries the loader would "
           "reject")
@_arg("--no-dead-code", action="store_true",
      help="skip the dead/unreachable-block analysis")
@_arg("--select", action="append", default=[], metavar="RULES",
      help="only report these rules (comma-separated HL codes or slugs, "
           "repeatable); also narrows the --fail-on gate")
@_arg("--ignore", action="append", default=[], metavar="RULES",
      help="drop these rules from the report and the --fail-on gate "
           "(comma-separated HL codes or slugs, repeatable)")
@_arg("--data-span", action="append", default=[], metavar="MODULE:LO-HI",
      help="declare [LO, HI] (module-relative byte offsets, with "
           "--unchecked) as data words — excluded from decode/dead-code "
           "analysis (repeatable)")
@_arg("--baseline", default=None, metavar="FILE",
      help="JSON suppression file: findings matching a (rule, pc, "
           "fingerprint) entry are dropped from the report and the "
           "--fail-on gate, so CI fails only on new findings")
@_arg("--write-baseline", default=None, metavar="FILE",
      help="write the current findings as a baseline suppression file "
           "(exit 0 — the next run with --baseline FILE gates on new "
           "findings only)")
def cmd_lint(args):
    from repro.analysis.static import ModuleRegion, lint_system
    from repro.analysis.static.diagnostics import (
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.sfi.system import SfiSystem
    from repro.umpu.system import UmpuSystem

    data_spans = {}
    for spec in args.data_span:
        name, _, span_text = spec.rpartition(":")
        lo_text, _, hi_text = span_text.partition("-")
        try:
            span = (int(lo_text, 0), int(hi_text, 0))
        except ValueError as exc:
            raise CliError("bad --data-span: {}".format(exc)) from None
        data_spans.setdefault(name, []).append(span)
    selected = _parse_rule_filter(args.select)
    ignored = _parse_rule_filter(args.ignore)

    if args.umpu:
        system = UmpuSystem()
    else:
        system = SfiSystem(allowed_io=tuple(args.allow_io))
    extra_regions = []
    for index, (name, program, labels, exports) in enumerate(
            _load_modules(args.modules, system)):
        if not args.unchecked:
            system.load_module(program, name, exports=exports)
            continue
        base, end = system.place(program)
        origin = program.extent()[0] * 2
        extra_regions.append(ModuleRegion(
            name=name, domain=index, start=base, end=end,
            policy="umpu" if args.umpu else "sfi",
            entries={e: base + labels[e] - origin for e in exports},
            data_spans=tuple((base + lo_off, base + hi_off)
                             for lo_off, hi_off in data_spans.get(name, ()))))
    _model, report = lint_system(system, dead_code=not args.no_dead_code,
                                 extra_modules=extra_regions)
    engine = report.diagnostics
    if selected or ignored:
        engine.findings[:] = [
            d for d in engine.findings
            if (not selected or d.rule.code in selected)
            and d.rule.code not in ignored]
    if args.baseline:
        try:
            suppressions = load_baseline(args.baseline)
        except ValueError as exc:
            raise CliError("bad baseline {}: {}".format(
                args.baseline, exc)) from None
        suppressed = apply_baseline(engine, suppressions)
        if suppressed:
            print("; {} finding(s) suppressed by baseline {}".format(
                suppressed, args.baseline), file=sys.stderr)
    if args.write_baseline:
        write_baseline(args.write_baseline, engine)
        print("; baseline ({} finding(s)) -> {}".format(
            len(engine), args.write_baseline), file=sys.stderr)
    text = engine.render_text()
    tail = report.render_analysis()
    status = _emit_report(args, engine,
                          text + "\n\n" + tail if tail else text,
                          report.analysis_dict(), "lint")
    # baselining acknowledges the current findings
    return 0 if args.write_baseline else status


@_tool("opt", "proof-directed check elision: load modules with the "
              "whole-image prover enabled, elide run-time store checks "
              "proved redundant against the static data spans, emit the "
              "ElisionManifest(s) and re-lint the elided image",
       _MODULES, _ALLOW_IO, _FAIL_ON, _static_data(256))
@_arg("--static-domains", type=int, default=None,
      help="domains that get a span (default: one per module)")
@_arg("-o", "--output", default=None, metavar="OUT.json",
      help="write the manifest(s) here (module name is inserted before "
           "the extension when several modules elide)")
def cmd_opt(args):
    from repro.analysis.static import lint_system
    from repro.sfi.system import SfiSystem

    system = SfiSystem(layout=_layout(args, args.static_domains),
                       allowed_io=tuple(args.allow_io))
    summaries = [system.load_module(program, name, exports=exports,
                                    elide=True)
                 for name, program, _labels, exports
                 in _load_modules(args.modules, system)]
    multiple = sum(1 for m in summaries if m.manifest is not None) > 1
    for module in summaries:
        stats = module.rewrite_stats
        total = stats.get("stores", 0)
        if module.manifest is None:
            print("{}: 0/{} checked store(s) elided".format(
                module.name, total))
            continue
        manifest = module.manifest
        print("{}: {}/{} checked store(s) elided "
              "(~{} cycles/pass saved, Table 3)".format(
                  module.name, manifest.elided_checks, total,
                  manifest.elided_cycles_saved))
        for site in manifest.sites:
            print("  0x{:04x} {} [{}] ea=0x{:04x}..0x{:04x}".format(
                site.pc, site.key, site.rule, site.lo, site.hi))
        if args.output:
            path = args.output
            if multiple:
                stem, dot, ext = path.rpartition(".")
                path = "{}.{}{}{}".format(stem, module.name, dot, ext) \
                    if dot else "{}.{}".format(path, module.name)
            manifest.write(path)
            print("; manifest -> {}".format(path), file=sys.stderr)
    _model, report = lint_system(system)
    engine = report.diagnostics
    print(engine.render_text())
    return 1 if _findings_at_or_above(engine, args.fail_on) else 0


@_tool("certify", "translation validation: load modules through the "
                  "rewrite/(elide)/verify pipeline, prove the installed "
                  "flash is a sanctioned translation of each source "
                  "(HL017 on mismatch) and classify every installed block "
                  "for the planned block JIT (HL018 notes)",
       _MODULES, _ALLOW_IO, _REPORT, _static_data(0))
@_arg("--elide", action="store_true",
      help="run the proof-directed check-elision pass; the resulting "
           "manifest is part of what certification re-proves")
@_arg("--unchecked", action="store_true",
      help="place the raw images without the rewriter pipeline and "
           "certify them as installed — a miscompiled or hand-patched "
           "image fails with HL017")
@_arg("--report", default=None, metavar="OUT.json",
      help="write the JIT-readiness JSON (per-module block "
           "classification + counts) here")
def cmd_certify(args):
    from repro.analysis.static.diagnostics import DiagnosticsEngine
    from repro.analysis.static.transval import validate_translation
    from repro.sfi.system import SfiSystem

    system = SfiSystem(layout=_layout(args), allowed_io=tuple(args.allow_io))
    engine = DiagnosticsEngine()
    reports = []
    for name, program, _labels, exports in _load_modules(args.modules,
                                                         system):
        if args.unchecked:
            base, end = system.place(program)
            report = validate_translation(
                program, system.machine.memory.read_flash_word,
                base, end, system.layout, system.runtime.symbols,
                exports=exports, engine=engine, region=name, module=name)
        else:
            module = system.load_module(program, name, exports=exports,
                                        elide=args.elide)
            report = validate_translation(
                program, system.machine.memory.read_flash_word,
                module.start, module.end, system.layout,
                system.runtime.symbols, exports=exports,
                manifest=module.manifest,
                export_targets=system.export_targets(module),
                engine=engine, region=name, domain=module.domain,
                module=name)
            module.certification = report
        reports.append(report)
    summary = {
        "schema": 1,
        "modules": [r.to_dict() for r in reports],
        "certified": all(r.ok for r in reports),
        "blocks": sum(len(r.blocks) for r in reports),
        "translatable_blocks": sum(r.translatable_blocks
                                   for r in reports),
        "untranslatable_blocks": sum(r.untranslatable_blocks
                                     for r in reports),
        "store_checks": sum(r.store_checks for r in reports),
        "semantic_proofs": sum(r.semantic_proofs for r in reports),
        "elided_sites": sum(r.elided_sites for r in reports),
    }
    text = "\n".join([engine.render_text()] + [
        "{}: {} — {} line(s) matched, {} checked store(s) ({} "
        "symbolically proved), {} elided site(s); {} block(s): {} "
        "translatable, {} untranslatable".format(
            r.module, "certified" if r.ok else "REJECTED",
            r.matched_lines, r.store_checks, r.semantic_proofs,
            r.elided_sites, len(r.blocks), r.translatable_blocks,
            r.untranslatable_blocks)
        for r in reports])
    status = _emit_report(args, engine, text, summary, "certify")
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("; JIT-readiness report -> {}".format(args.report),
              file=sys.stderr)
    return status


@_tool("fuzz", "adversarial soundness campaign: generate hostile modules, "
               "drive them through the admission pipeline, execute the "
               "admitted ones on both execution paths under a write "
               "oracle and report any isolation escape")
@_arg("--system", choices=("sfi", "umpu", "both"), default="both",
      help="which enforcement system(s) to attack (default: both)")
@_arg("--count", type=int, default=1000, metavar="N",
      help="candidates per system (default: 1000)")
@_arg("--seed", type=int, default=0, help="campaign seed (default: 0)")
@_arg("--start", type=int, default=0, metavar="INDEX",
      help="first candidate index (default: 0)")
@_arg("--index", type=int, default=None, metavar="INDEX",
      help="replay exactly one candidate index (prints its source/words "
           "and verdict)")
@_arg("--max-cycles", type=int, default=None,
      help="per-call cycle budget (default: 20000)")
@_arg("--artifacts", default=None, metavar="DIR",
      help="dump escape artifacts (JSON + .asm) here")
@_arg("--json", action="store_true", help="print the full stats as JSON")
def cmd_fuzz(args):
    from repro.soundness import Campaign, dump_escape
    from repro.soundness.fuzzer import DEFAULT_MAX_CYCLES

    kinds = ("sfi", "umpu") if args.system == "both" else (args.system,)
    max_cycles = args.max_cycles or DEFAULT_MAX_CYCLES
    escaped = False
    for kind in kinds:
        campaign = Campaign(kind, seed=args.seed, max_cycles=max_cycles)
        if args.index is not None:
            result = campaign.run_one(args.index)
            candidate = result["candidate"]
            print("# {} candidate {} (family {}, seed {})".format(
                kind, args.index, candidate.family, args.seed))
            if candidate.source:
                sys.stdout.write(candidate.source)
            else:
                for addr, word in sorted(candidate.program.words.items()):
                    print("{:04x}: {:04x}".format(addr, word))
            print("verdict: {}".format(
                "ESCAPE" if result["escape"] else
                "rejected at {}".format(result["rejected"][0])
                if "rejected" in result else
                "outcomes {}".format(result.get("outcomes"))))
        else:
            campaign.run(args.count, start=args.start)
            print("{}: {}".format(kind, campaign.stats.summary()))
        if args.json:
            print(json.dumps(campaign.stats.to_dict(), indent=2,
                             sort_keys=True, default=str))
        if campaign.stats.escapes:
            escaped = True
            for escape in campaign.stats.escapes:
                if args.artifacts:
                    path = dump_escape(args.artifacts, escape,
                                       prefix=kind + "-")
                    print("escape artifact -> {}".format(path),
                          file=sys.stderr)
                else:
                    print("ESCAPE: {}".format(
                        json.dumps(escape, default=str)[:400]),
                        file=sys.stderr)
    return 1 if escaped else 0


@_tool("race", "interrupt-aware static race detector and latency "
               "certifier: I-bit dataflow partitions the module into "
               "interrupt-atomic/interruptible regions, mainline "
               "store/load intervals are intersected against each ISR's "
               "access set (HL019 unprotected shared writes, HL020 torn "
               "multi-byte accesses, with two-site witnesses), and each "
               "ISR gets a static WCET / interrupt-latency bound (HL021)",
       _REPORT, _static_data(0))
@_arg("modules", nargs="+", metavar="MODULE[:ENTRIES]",
      help="module source (.s) or image (.hex); ENTRIES is a "
           "comma-separated list of mainline entry labels (default: "
           "every non-ISR label)")
@_arg("--isr", action="append", default=[], metavar="LINE:LABEL",
      help="register LABEL as the vector-LINE interrupt handler "
           "(repeatable; __vector_N / isr_* / *_isr labels are "
           "auto-detected)")
@_arg("--latency-budget", type=_int, default=None, metavar="CYCLES",
      help="emit HL021 when the static interrupt-latency bound exceeds "
           "this many cycles")
@_arg("--latency-report", default=None, metavar="FILE",
      help="write the per-ISR WCET / latency-bound certificate here as "
           "JSON")
def cmd_race(args):
    from repro.analysis.static.cfg import RegionCFG
    from repro.analysis.static.concurrency import (
        ConcurrencyAnalysis,
        IsrInfo,
        find_isr_labels,
    )
    from repro.analysis.static.diagnostics import DiagnosticsEngine
    from repro.sfi.system import SfiSystem

    engine = DiagnosticsEngine()
    reports = []
    # the system only supplies kernel symbols, so lintable modules
    # (KERNEL_* service calls, SDATA_D* spans) assemble standalone
    system = SfiSystem(layout=_layout(args))
    for name, program, labels, entries in _load_modules(
            args.modules, system, every_label=False):
        lo, hi = program.extent()
        words = dict(program.words)

        def read_word(word_addr, _words=words):
            return _words.get(word_addr, 0xFFFF)

        isrs = find_isr_labels(labels)
        taken = {i.entry for i in isrs}
        for isr_spec in args.isr:
            line_text, _, label = isr_spec.partition(":")
            try:
                line = int(line_text, 0)
                entry = labels[label]
            except (ValueError, KeyError):
                raise CliError("bad --isr {!r} (want LINE:LABEL with a "
                               "label of the module)".format(isr_spec)) \
                    from None
            isrs = [i for i in isrs if i.entry != entry and
                    i.line != line]
            isrs.append(IsrInfo(line, entry, label))
            taken.add(entry)
        mainline = {labels[e] for e in entries} if entries \
            else set(labels.values()) - taken
        cfg = RegionCFG.build(read_word, lo * 2, (hi + 1) * 2, name=name,
                              extra_leaders=sorted(labels.values()))
        analysis = ConcurrencyAnalysis(
            cfg, mainline_entries=mainline, isrs=sorted(
                isrs, key=lambda i: i.line))
        reports.append(analysis.run(engine=engine,
                                    budget=args.latency_budget))

    text = engine.render_text()
    tail = "\n".join(rep.render() for rep in reports)
    status = _emit_report(
        args, engine, text + "\n\n" + tail if tail else text,
        {"concurrency": {rep.region: rep.to_dict() for rep in reports}},
        "race")
    if args.latency_report:
        with open(args.latency_report, "w") as handle:
            json.dump(
                {"schema": 1, "regions": {
                    rep.region: rep.latency.to_dict() if rep.latency
                    else None for rep in reports}},
                handle, indent=1, sort_keys=True)
        print("; latency report -> {}".format(args.latency_report),
              file=sys.stderr)
    return status


def main(argv=None):
    """Multiplexer: ``python -m repro.cli <tool> ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in TOOLS:
        print("usage: python -m repro.cli {{{}}} ...".format(
            "|".join(TOOLS)), file=sys.stderr)
        return 64
    return TOOLS[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
