"""One source template per AVR opcode, rendered three ways.

Each template below is the only written-out copy of its opcode's effect
on registers, SREG and data memory.  At import time :mod:`repro.sim.core`
renders every template into the interpreter's ``_exec_<key>`` handler
(:func:`handler_source`).  At run time the region compiler renders
blocks (runs of templates ending at a control transfer) into one Python
function per region with the operands constant-folded
(:func:`compile_region`); a region moves between its blocks without
returning and keeps r0-r31, SREG and SP (one 16-bit local) in locals.
Only :data:`HANDLER_ONLY` opcodes never enter a block.  The third
rendering (:func:`make_symbolic`) is the symbolic evaluator of
:mod:`repro.analysis.static.symexec`: the handler's lines run over
symbolic values, so the translation validator proves rewritten stores
against these same templates.  The renderings differ only in the
pseudo-ops, which are where the bus, the call hooks and the trace sink
come in.  A block calls out only where its view (:data:`PLAIN`) says
something may act on a pseudo-op (a *callout*), through the acting
unit's fragment where it has one, and renders it directly everywhere
else; the symbolic rendering makes each one a method call on the
evaluator state, passed as ``core``:

``{d}``, ``{r}``, ``{K}``, ... (the spec's operand letters)
    the operand: a local of the handler, a literal in a block.
``{next}``
    the word address after the instruction (the handler's ``core.pc``,
    already advanced by the run loop).
``{SREG}``, ``{SPL}``, ``{SPH}``, ``{RAMPZ}``
    data-space addresses of the status register, the stack pointer and
    the flash page register.
``@load v, addr, KIND`` / ``@store addr, value, KIND``
    a data-space transaction.  A handler runs it through the bus and
    adds the stall cycles it returns; so does a block where the view
    claims KIND, unless the claiming unit's fragment takes its common
    case.  Otherwise a block reads or writes ``data`` directly
    after a bounds check (and an I/O-device lookup, when the view has
    devices).  Symbolically it goes to SREG or SP (an I/O access at
    their constant address) or to the memory log.
``@push value, KIND`` / ``@pop v, KIND``
    a stack transaction through SP, rendered like the two above.
    Symbolically it logs the stack access and moves the net SP offset.
``@hook event, kwargs`` / ``@emit KIND, pc, kwargs``
    the call hooks and the trace event of a control transfer.  A block
    calls the hooks when the view has any; it never emits, because a
    core with a trace sink runs ``step()``.  The hook events are
    :data:`HOOK_EVENTS`.  Symbolically both are nothing.
``@goto target`` / ``@goto_if cond, target, cycles`` / ``@skip_if cond``
    the control transfer that ends the template.  ``@skip_if`` skips
    the next instruction; a handler reads its size when the skip is
    taken, a block has it folded in at compile time.  Symbolically each
    ends the block; a branch or skip adds its condition and extra
    cycles to the summary.

Every other line is Python over ``data`` (the unified data space, so
registers and SREG are plain bytes of it; a region with the register
cache renames their constant subscripts to locals) and the flag table
:data:`NVSZ`; symbolically it runs verbatim over values whose operators
build expression nodes, where ``data`` holds r0-r31 and SREG, an
``NVSZ`` lookup is one node and ``core.memory.read_flash_byte`` a flash
read.  Temporaries may be any name except ``core``, ``i``,
``data``, ``cycles``, ``hook``, ``NVSZ`` and the ``op_*`` operand
locals; names ending in ``_`` belong to the renderers.

A unit on the bus or the call path may supply *fragments*: the common
case of each kind it claims (a bus unit, keyed by :class:`AccessKind`)
or of each of :data:`HOOK_EVENTS` (the owner of a call hook), as lines
of Python a block renders in place of the callout, the way it renders
``@store`` (``docs/performance.md``, "Protection-unit fragments").  Its
placeholders are ``{u}`` (the unit, bound once at region entry),
``{data_end}``, ``{sp}`` (SP as the unit sees it) and the transaction:
``{addr}`` and ``{value}`` of a write, ``{addr}`` and the variable
``{var}`` of a read, a hook's keyword arguments (``{target}``,
``{ret}``).  It adds its stall cycles to ``x_``, names its temporaries
``f*_``, may call its unit where the call touches no byte a region
holds in a local (the MMC's ``translate()``), and ends each path in
``@direct`` (the access as though no unit acted, with the I/O-device
lookup under a view with devices) or ``@callout`` (publish
``pc``/``cycles``/``instret`` and run the transaction through the bus,
or the hook through ``on_event``, whose handler raises the fault or
does the work).

The UMPU units write one *rule template* per claimed kind or hook event
instead, which :func:`render_unit` renders twice, as the fragment and
as the handler (``on_write``, ``on_read``, ``on_event``; there
``{sp}`` reads the data space's SP on the bus, ``core.sp`` on the call
path), so each unit rule is written once.  A rule adds four pseudo-ops:

``@fault why [data], exception``
    a protection fault: the handler runs the unit's ``report`` template
    and raises.  A fragment calls out for the suite that ends in one (or
    in a ``raise``): its lines are the handler's way to the fault, say
    the bytes of a frame that land before it overflows.
``@observe observer, call``
    a trace event, profiler charge, metrics emission or MMC waveform
    phase: the handler makes the call on the bus's or core's ``trace``,
    ``profiler`` or ``metrics``, or the unit's ``waveform``, when one is
    attached; a fragment calls out when it is (tested once per path,
    and not at all for one a region never runs with).
``@inline_if condition`` / ``@callout``
    a fragment calls out unless the condition holds, or here; the
    handler goes on.

A rule's paths end in a fault, ``@direct`` (the handler returns the
pass-through verdict) or its last line (the write made, the read
``{var}`` answered, a hook's stalls).  It tests everything that may
call out before it changes anything but a cache, and nothing may follow
a statement that may call out or access directly (checked).

What a template does is read off its text as well: the registers each
key writes (:func:`registers_written`), which the abstract interpreter
of :mod:`repro.analysis.static.absint` builds on, and the SREG bits it
reads and writes (:func:`sreg_effects`), with the value of each written
bit on its own, which compiled regions build their lazy flags on.
"""

import re
import sys
from functools import lru_cache, reduce
from operator import itemgetter, or_

from repro.isa.opcodes import SPEC_BY_KEY, STORE_KEYS
from repro.isa.registers import IoReg
from repro.sim.bus import ReadAction, WriteAction
from repro.sim.errors import InvalidAccess
from repro.sim.events import AccessKind
from repro.trace.events import TraceEventKind

_ADDRS = {"SREG": IoReg.SREG + 0x20, "SPL": IoReg.SPL + 0x20,
          "SPH": IoReg.SPH + 0x20, "RAMPZ": IoReg.RAMPZ + 0x20}

#: most instructions one compiled block holds
BLOCK_MAX = 32

# ----------------------------------------------------------------------
# templates
# ----------------------------------------------------------------------
#: N, V, S (= N ^ V) and Z of an 8-bit result, indexed by
#: ``res | V << 8``; with V clear, S = N
NVSZ = tuple(((res & 0x80) >> 5) | (v << 3) | (((res >> 7) ^ v) << 4)
             | ((res == 0) << 1) for v in (0, 1) for res in range(256))


def _add(carry):
    # H is the carry into bit 4, V the sign rule on the operands
    return """
rd = data[{d}]
rr = data[{r}]
t = rd + rr""" + carry + """
res = t & 0xFF
data[{SREG}] = ((data[{SREG}] & 0xC0) | (t >> 8) | (((rd ^ rr ^ res) & 0x10) << 1)
                | NVSZ[res | ((~(rd ^ rr) & (rd ^ res) & 0x80) << 1)])
data[{d}] = res
"""


def _sub(source, carry, store):
    # C and H are borrows; with carry (sbc/sbci/cpc) Z only stays set
    return """
rd = data[{d}]
rr = """ + source + """
sreg = data[{SREG}]
t = rd - rr""" + (" - (sreg & 1)" if carry else "") + """
res = t & 0xFF
data[{SREG}] = ((sreg & 0xC0) | ((t >> 8) & 1) | (((rd ^ rr ^ res) & 0x10) << 1)
                | NVSZ[res | (((rd ^ rr) & (rd ^ res) & 0x80) << 1)]""" + (
        " & (sreg | 0xFD)" if carry else "") + """)
""" + ("data[{d}] = res\n" if store else "")


def _logic(op, source):
    # V cleared, C and H kept
    return """
res = data[{d}] """ + op + " " + source + """
data[{SREG}] = (data[{SREG}] & 0xE1) | NVSZ[res]
data[{d}] = res
"""


def _shift(result):
    # C from bit 0 of the operand, V = N ^ C, H kept
    return """
rd = data[{d}]
res = """ + result + """
c = rd & 1
data[{SREG}] = (data[{SREG}] & 0xE0) | c | NVSZ[res | (((res >> 7) ^ c) << 8)]
data[{d}] = res
"""


def _inc_dec(op, overflow):
    # V from the operand, C and H kept
    return """
rd = data[{d}]
res = (rd """ + op + """ 1) & 0xFF
data[{SREG}] = (data[{SREG}] & 0xE1) | NVSZ[res | ((rd == """ + overflow + """) << 8)]
data[{d}] = res
"""


def _word(op, v, c):
    # adiw/sbiw on a register pair; H kept
    return """
rd = data[{d}] | (data[{d} + 1] << 8)
res = (rd """ + op + """ {K}) & 0xFFFF
v = """ + v + """
c = """ + c + """
data[{SREG}] = ((data[{SREG}] & 0xE0) | (v >> 12) | (c >> 15) | ((res & 0x8000) >> 13)
                | (((res ^ v) & 0x8000) >> 11) | ((res == 0) << 1))
data[{d}] = res & 0xFF
data[{d} + 1] = res >> 8
"""


def _call(target):
    return "target = " + target + """
@hook "call", target=target, ret={next}
@push {next} & 0xFF, RET_PUSH
@push ({next} >> 8) & 0xFF, RET_PUSH
@emit CONTROL_TRANSFER, {next} * 2, transfer="call", target=target * 2, ret={next} * 2
@goto target
"""


_RET = """
@pop hi, RET_POP
@pop lo, RET_POP
target = (hi << 8) | lo
@hook "ret", target=target
@emit CONTROL_TRANSFER, {next} * 2, transfer="ret", target=target * 2
"""

_PTR = {"X": 26, "Y": 28, "Z": 30}
#: the program-memory addresses of lpm and elpm
_Z = "(data[30] | (data[31] << 8))"
_RAMPZ_Z = "(((data[{RAMPZ}] & 1) << 16) | " + _Z + ")"


def _pointer(key):
    """Lines leaving a ld/st variant's effective address in ``ptr``
    (pointer register updated first, as the datasheet orders it)."""
    modes = SPEC_BY_KEY[key].modes
    lo = _PTR[modes["ptr"]]
    ptr = "(data[{}] | (data[{}] << 8))".format(lo, lo + 1)
    if modes["pre_dec"]:
        return ("ptr = ({} - 1) & 0xFFFF\ndata[{}] = ptr & 0xFF\n"
                "data[{}] = ptr >> 8\n").format(ptr, lo, lo + 1)
    if modes["post_inc"]:
        return ("ptr = {}\nnxt = (ptr + 1) & 0xFFFF\ndata[{}] = nxt & 0xFF\n"
                "data[{}] = nxt >> 8\n").format(ptr, lo, lo + 1)
    if modes["disp"]:
        return "ptr = ({} + {{q}}) & 0xFFFF\n".format(ptr)
    return "ptr = {}\n".format(ptr)


TEMPLATES = {
    "add": _add(""),
    "adc": _add(" + (data[{SREG}] & 1)"),
    "sub": _sub("data[{r}]", False, True),
    "sbc": _sub("data[{r}]", True, True),
    "subi": _sub("{K}", False, True),
    "sbci": _sub("{K}", True, True),
    "cp": _sub("data[{r}]", False, False),
    "cpc": _sub("data[{r}]", True, False),
    "cpi": _sub("{K}", False, False),
    "and": _logic("&", "data[{r}]"),
    "andi": _logic("&", "{K}"),
    "or": _logic("|", "data[{r}]"),
    "ori": _logic("|", "{K}"),
    "eor": _logic("^", "data[{r}]"),
    # C set, V cleared, H kept
    "com": """
res = data[{d}] ^ 0xFF
data[{SREG}] = (data[{SREG}] & 0xE0) | 1 | NVSZ[res]
data[{d}] = res
""",
    "neg": """
rd = data[{d}]
res = -rd & 0xFF
data[{SREG}] = ((data[{SREG}] & 0xC0) | (((res | rd) & 0x08) << 2) | (res != 0)
                | NVSZ[res | ((res == 0x80) << 8)])
data[{d}] = res
""",
    "inc": _inc_dec("+", "0x7F"),
    "dec": _inc_dec("-", "0x80"),
    "swap": """
rd = data[{d}]
data[{d}] = ((rd << 4) | (rd >> 4)) & 0xFF
""",
    "asr": _shift("(rd >> 1) | (rd & 0x80)"),
    "lsr": _shift("rd >> 1"),
    "ror": _shift("((data[{SREG}] & 1) << 7) | (rd >> 1)"),
    "mov": "data[{d}] = data[{r}]\n",
    "movw": "data[{d}] = data[{r}]\ndata[{d} + 1] = data[{r} + 1]\n",
    "ldi": "data[{d}] = {K}\n",
    "mul": """
t = data[{d}] * data[{r}]
data[0] = t & 0xFF
data[1] = t >> 8
data[{SREG}] = (data[{SREG}] & 0xFC) | (t >> 15) | ((t == 0) << 1)
""",
    "adiw": _word("+", "~rd & res & 0x8000", "~res & rd & 0x8000"),
    "sbiw": _word("-", "rd & ~res & 0x8000", "res & ~rd & 0x8000"),
    # --- SREG and bit ops ---------------------------------------------
    "bset": "data[{SREG}] |= 1 << {s}\n",
    "bclr": "data[{SREG}] &= ~(1 << {s}) & 0xFF\n",
    "bst": "data[{SREG}] = (data[{SREG}] & 0xBF) | (((data[{d}] >> {b}) & 1) << 6)\n",
    "bld": ("data[{d}] = ((data[{d}] & ~(1 << {b}) & 0xFF)"
            " | (((data[{SREG}] >> 6) & 1) << {b}))\n"),
    # --- control transfer ---------------------------------------------
    "rjmp": "@goto {next} + {k}\n",
    "jmp": "@goto {k}\n",
    "ijmp": """
target = data[30] | (data[31] << 8)
@hook "ijmp", target=target
@emit CONTROL_TRANSFER, {next} * 2, transfer="ijmp", target=target * 2
@goto target
""",
    "rcall": _call("{next} + {k}"),
    "call": _call("{k}"),
    "icall": _call("data[30] | (data[31] << 8)"),
    "ret": _RET + "@goto target\n",
    "reti": _RET + """
data[{SREG}] |= 0x80
@emit IRQ_EXIT, target * 2
@goto target
""",
    "brbs": "@goto_if (data[{SREG}] >> {s}) & 1, {next} + {k}, 1\n",
    "brbc": "@goto_if not (data[{SREG}] >> {s}) & 1, {next} + {k}, 1\n",
    "cpse": "@skip_if data[{d}] == data[{r}]\n",
    "sbrc": "@skip_if not (data[{r}] >> {b}) & 1\n",
    "sbrs": "@skip_if (data[{r}] >> {b}) & 1\n",
    "sbic": "@load v, {A} + 0x20, IO_READ\n@skip_if not (v >> {b}) & 1\n",
    "sbis": "@load v, {A} + 0x20, IO_READ\n@skip_if (v >> {b}) & 1\n",
    # --- data memory ----------------------------------------------------
    "lds": "@load v, {k}, DATA_LOAD\ndata[{d}] = v & 0xFF\n",
    "sts": "@store {k}, data[{d}], DATA_STORE\n",
    "push": "@push data[{d}], STACK_PUSH\n",
    "pop": "@pop v, STACK_POP\ndata[{d}] = v & 0xFF\n",
    "in": "@load v, {A} + 0x20, IO_READ\ndata[{d}] = v & 0xFF\n",
    "out": "@store {A} + 0x20, data[{d}], IO_WRITE\n",
    "sbi": """
@load v, {A} + 0x20, IO_READ
@store {A} + 0x20, v | (1 << {b}), IO_WRITE
""",
    "cbi": """
@load v, {A} + 0x20, IO_READ
@store {A} + 0x20, v & ~(1 << {b}) & 0xFF, IO_WRITE
""",
    "nop": "",
    "sleep": "",
    "wdr": "",
    # --- handler-only (see HANDLER_ONLY) --------------------------------
    "lpm_r0": "data[0] = core.memory.read_flash_byte(" + _Z + ")\n",
    "lpm": "data[{d}] = core.memory.read_flash_byte(" + _Z + ")\n",
    "lpm_zp": "z = " + _Z + """
data[{d}] = core.memory.read_flash_byte(z)
z = (z + 1) & 0xFFFF
data[30] = z & 0xFF
data[31] = z >> 8
""",
    "elpm_r0": "data[0] = core.memory.read_flash_byte(" + _RAMPZ_Z + ")\n",
    "elpm": "data[{d}] = core.memory.read_flash_byte(" + _RAMPZ_Z + ")\n",
    "elpm_zp": "z = " + _RAMPZ_Z + """
data[{d}] = core.memory.read_flash_byte(z)
z += 1
data[{RAMPZ}] = (z >> 16) & 1
data[30] = z & 0xFF
data[31] = (z >> 8) & 0xFF
""",
    "break": "core.halted = True\n",
}
#: opcodes only the interpreter runs: a flash read past the part's
#: flash raises outside any pseudo-op, and a halt must end the run loop
HANDLER_ONLY = frozenset(("lpm_r0", "lpm", "lpm_zp", "elpm_r0", "elpm",
                          "elpm_zp", "break"))
for _key in ("ld_x", "ld_xp", "ld_mx", "ld_yp", "ld_my", "ld_zp", "ld_mz",
             "ldd_y", "ldd_z"):
    TEMPLATES[_key] = _pointer(_key) + \
        "@load v, ptr, DATA_LOAD\ndata[{d}] = v & 0xFF\n"
for _key in sorted(STORE_KEYS - {"sts"}):
    TEMPLATES[_key] = _pointer(_key) + "@store ptr, data[{r}], DATA_STORE\n"

_CONTROL = ("@goto ", "@goto_if ", "@skip_if ")


def _joined(text):
    """The logical lines of *text*: a line whose parentheses are still
    open takes the next one."""
    lines = []
    for line in text.split("\n"):
        if not line.strip():
            continue
        if lines and lines[-1].count("(") > lines[-1].count(")"):
            lines[-1] += " " + line.strip()
        else:
            lines.append(line)
    return lines


def _lines(key):
    lines = _joined(TEMPLATES[key])
    for line in lines[:-1]:
        if line.startswith(_CONTROL):
            raise AssertionError(
                "{}: a control transfer must end its template".format(key))
    return lines


def _args(text, n):
    """Split a pseudo-op's argument text into *n* fields: the first
    n-1 end at commas, the last takes the rest."""
    parts = text.split(", ", n - 1)
    if len(parts) != n:
        raise AssertionError("bad pseudo-op arguments: " + text)
    return parts


#: template key -> its non-blank lines
_LINES = {key: _lines(key) for key in TEMPLATES}

#: template key -> how its block ends: ``"skip"`` for skips, ``"goto"``
#: for every other control transfer, None for straight-line code
CONTROL = {}
for _key in TEMPLATES.keys() - HANDLER_ONLY:
    _last = (_LINES[_key] or [""])[-1]
    CONTROL[_key] = ("skip" if _last.startswith("@skip_if ") else
                     "goto" if _last.startswith(_CONTROL) else None)


_SP = "data[{SPL}] | (data[{SPH}] << 8)".format(**_ADDRS)
_SET_SP = ["data[{SPL}] = sp_ & 0xFF".format(**_ADDRS),
           "data[{SPH}] = sp_ >> 8".format(**_ADDRS)]
#: the pseudo-ops that are data-space accesses; KIND ends each
_ACCESSES = ("@load", "@store", "@push", "@pop")


def _bus_read(var, addr, kind):
    return ["{}, e_ = core.bus.read({}, AccessKind.{})".format(
        var, addr, kind), "x_ += e_"]


def _bus_write(addr, value, kind):
    return ["x_ += core.bus.write({}, {}, AccessKind.{})".format(
        addr, value, kind)]


def _callout(op, rest):
    """An access or ``@hook`` in handler form: through ``core.bus`` and
    ``core.call_hooks``, adding stall cycles to ``x_`` (a region calls
    the hooks so when they have no fragments).  A stack write lands (or
    faults) before SP moves; SP moves before a stack read."""
    if op == "@load":
        return _bus_read(*_args(rest, 3))
    if op == "@store":
        return _bus_write(*_args(rest, 3))
    if op == "@push":
        value, kind = _args(rest, 2)
        return (["sp_ = " + _SP] + _bus_write("sp_", value, kind)
                + ["sp_ = (sp_ - 1) & 0xFFFF"] + _SET_SP)
    if op == "@pop":
        var, kind = _args(rest, 2)
        return (["sp_ = (({}) + 1) & 0xFFFF".format(_SP)] + _SET_SP
                + _bus_read(var, "sp_", kind))
    return ["for hook in core.call_hooks:",
            "    h_ = hook(core, {})".format(rest),
            "    if h_:", "        x_ += h_"]


# ----------------------------------------------------------------------
# rendering 1: interpreter handlers
# ----------------------------------------------------------------------
def _handler_lines(line):
    """One template line in handler form: lines, and whether it adds
    to ``x_``."""
    if not line.startswith("@"):
        return [line], False
    op, _, rest = line.partition(" ")
    if op in _ACCESSES or op == "@hook":
        return _callout(op, rest), True
    if op == "@emit":
        kind, pc, *kwargs = rest.split(", ", 2)
        return ["if core.trace is not None:",
                "    core.trace.emit(core.cycles, TraceEventKind.{}, pc={}, "
                "domain=core._trace_domain(){})".format(
                    kind, pc, "".join(", " + kw for kw in kwargs))], False
    if op == "@goto":
        return ["core.pc = " + rest], False
    if op == "@goto_if":
        cond, target, cost = _args(rest, 3)
        return ["if {}:".format(cond), "    core.pc = " + target,
                "    x_ += " + cost], True
    if op == "@skip_if":
        return ["if {}:".format(rest),
                "    n_ = core._instr_size_at(core.pc)",
                "    core.pc += n_",
                "    x_ += n_"], True
    raise AssertionError("unknown pseudo-op " + op)


def handler_source(key, pseudo=_handler_lines):
    """Python source of the interpreter handler ``_exec_<key>(core, i)``:
    operands unpacked from ``i.operands``, returning the stall and
    control-transfer cycles beyond the spec's base cost.  *pseudo*
    renders each line (:func:`_symbolic_lines` for rendering 3)."""
    letters = [op.letter for op in SPEC_BY_KEY[key].operands]
    names = dict(_ADDRS, next="core.pc",
                 **{letter: "op_" + letter for letter in letters})
    body, extra = [], False
    for line in _LINES[key]:
        rendered, adds = pseudo(line.format(**names))
        body += rendered
        extra = extra or adds
    head = ["def _exec_{}(core, i):".format(key)]
    if letters:
        head.append("    {}, = i.operands".format(
            ", ".join("op_" + letter for letter in letters)))
    if any("data" in line for line in body):
        head.append("    data = core.memory.data")
    if extra:
        head.append("    x_ = 0")
        body.append("return x_")
    return "\n".join(head + ["    " + line for line in body or ["pass"]])


def make_handler(key):
    """The interpreter handler of *key*, compiled from its template."""
    namespace = {"AccessKind": AccessKind, "TraceEventKind": TraceEventKind,
                 "NVSZ": NVSZ}
    exec(compile(handler_source(key), "<template {}>".format(key), "exec"),
         namespace)
    return namespace["_exec_" + key]


# ----------------------------------------------------------------------
# rendering 3: symbolic evaluators
# ----------------------------------------------------------------------
def _symbolic_lines(line):
    """One template line in symbolic form: ``@name args`` becomes
    ``core.name(args)``, a call on the evaluator's state, with KIND an
    :class:`AccessKind` member and a read's variable assigned the
    result; a leading ``not`` of a condition becomes ``== 0`` (a
    symbolic value has no truth value).  The hooks and the trace are
    nothing."""
    if not line.startswith("@"):
        return [line], False
    op, _, rest = line.partition(" ")
    if op in ("@hook", "@emit"):
        return [], False
    var = ""
    if op in _ACCESSES:
        rest, _, kind = rest.rpartition(", ")
        rest += ", AccessKind." + kind
        if op in ("@load", "@pop"):
            var, rest = rest.split(", ", 1)
            var += " = "
    elif rest.startswith("not "):
        cond, sep, tail = rest.partition(", ")
        rest = "({}) == 0".format(cond[4:]) + sep + tail
    return ["{}core.{}({})".format(var, op[1:], rest)], False


def make_symbolic(key, nvsz):
    """The symbolic evaluator of *key*, compiled from its template: the
    handler's signature and lines, run over the symbolic state passed
    as ``core`` and the symbolic flag table *nvsz*."""
    namespace = {"AccessKind": AccessKind, "NVSZ": nvsz}
    exec(compile(handler_source(key, _symbolic_lines),
                 "<symbolic {}>".format(key), "exec"), namespace)
    return namespace["_exec_" + key]


# ----------------------------------------------------------------------
# rendering 2: compiled regions
# ----------------------------------------------------------------------
def _constant(expr):
    """The value of *expr* if it is a constant expression, else None."""
    if expr.isdigit():
        return int(expr)
    try:
        return eval(expr, {"__builtins__": {}})
    except NameError:
        return None


def _names(instr, next_word):
    """Template placeholders of *instr* as block literals."""
    return dict(_ADDRS, next=next_word, **{
        op.letter: str(value)
        for op, value in zip(instr.spec.operands, instr.operands)})


def _indent(lines):
    return ["    " + line for line in lines]


#: the view of a run nothing observes, where every access is direct.
#: A view is ``(claimed, hooks, io, units)``, computed once per
#: :meth:`AvrCore.run`: the :class:`AccessKind` members some bus unit or
#: observer claims, whether the core has call hooks, where I/O devices
#: are mapped (False: nowhere; :data:`IO_LOW`: only in the I/O space
#: below SP and SREG; :data:`IO_ANY`: elsewhere too), and the units
#: whose fragments blocks render: None (every claimed access and hook
#: calls out), or ``(bus unit classes, hook owner classes)`` in bus and
#: hook order, whose instances a region binds from ``core._units`` at
#: entry.  A region runs only under the view it was compiled for; the
#: core forms none under a view whose io entry is :data:`IO_ANY`.
PLAIN = (frozenset(), False, False, None)
#: the view's io entry when every device is mapped at 0x20-0x5C, and
#: when some device is mapped anywhere else
IO_LOW, IO_ANY = 1, 2


def io_level(addresses):
    """The view's io entry for I/O devices mapped at the data-space
    *addresses*: False for none, :data:`IO_LOW` when all lie between
    the register file and SP, where no local holds a byte and every
    address is below 0x60, else :data:`IO_ANY`."""
    if not addresses:
        return False
    return IO_LOW if 32 <= min(addresses) and \
        max(addresses) < _ADDRS["SPL"] else IO_ANY


#: most blocks one region holds
REGION_MAX = 16
#: the bytes a region keeps in locals (r0-r31, SPL, SPH, SREG) -> the
#: local holding each: SPL and SPH are the two bytes of the 16-bit
#: ``sp_``; and the first data address past them
_LOCALS = {n: "r{}_".format(n) for n in range(32)}
_LOCALS.update({_ADDRS["SPL"]: "sp_", _ADDRS["SPH"]: "sp_",
                _ADDRS["SREG"]: "sreg_"})
_LOCALS_END = _ADDRS["SREG"] + 1
_SP_BYTES = (_ADDRS["SPL"], _ADDRS["SPH"])
#: cached byte -> the expression reading it
_LOCAL_READS = dict(_LOCALS)
_LOCAL_READS.update({_ADDRS["SPL"]: "(sp_ & 0xFF)",
                     _ADDRS["SPH"]: "(sp_ >> 8)"})
_SUBSCRIPT = re.compile(r"data\[([^\[\]]+)\]")
_ASSIGNED = re.compile(r"data\[([^\[\]]+)\] *[|&]?= ")
#: placeholder lines for what only the whole region knows: write its
#: written locals back to ``data``, reload all its locals from ``data``
_WRITE_BACK, _RELOAD = "\0w", "\0r"
#: ``(unit index, fragment)`` of a claimed kind no unit renders: every
#: case calls out
_CALLOUT = None, "@callout"

#: template key -> the access kinds of its pseudo-ops
_KINDS = {key: frozenset(AccessKind[line.rsplit(", ", 1)[1]]
                         for line in _LINES[key] if line.startswith(_ACCESSES))
          for key in TEMPLATES}
#: template keys that call the call hooks
_HOOKED = frozenset(key for key in TEMPLATES
                    if any(line.startswith("@hook ") for line in _LINES[key]))
#: the events the templates hand the call hooks
HOOK_EVENTS = frozenset(line[6:].split(",", 1)[0].strip('"')
                        for key in _HOOKED for line in _LINES[key]
                        if line.startswith("@hook "))
#: template keys that load from or store to data memory -> ``"read"``
#: or ``"write"`` (``lpm``/``elpm`` read flash)
DATA_ACCESS = {key: "write" if AccessKind.DATA_STORE in kinds else "read"
               for key, kinds in _KINDS.items()
               if kinds & {AccessKind.DATA_LOAD, AccessKind.DATA_STORE}}


def _write_set(key):
    """The registers *key*'s template assigns, as ``(operand index,
    offset)`` for a byte an operand names (``{d} + 1`` is ``(0, 1)``)
    and ``(None, n)`` for the fixed register rn."""
    letters = [op.letter for op in SPEC_BY_KEY[key].operands]
    names = dict(_ADDRS, **{letter: "0" for letter in letters})
    out = []
    for line in _LINES[key]:
        assigned = _ASSIGNED.match(line)
        if assigned is None:
            continue
        subscript = assigned.group(1)
        index = next((n for n, letter in enumerate(letters)
                      if "{" + letter + "}" in subscript), None)
        byte = (index, _constant(subscript.format(**names)))
        if (index is not None or byte[1] < 32) and byte not in out:
            out.append(byte)
    return tuple(out)


#: template key -> its :func:`_write_set`
_WRITES = {key: _write_set(key) for key in TEMPLATES}


@lru_cache(maxsize=4096)     # absint asks once per instruction it steps
def registers_written(key, operands):
    """The registers (0-31) the template of *key* assigns with these
    *operands* (a tuple).  Its other writes are SREG, SP, RAMPZ and data
    memory, which also holds the register file at 0x00-0x1F."""
    return tuple(offset if index is None else operands[index] + offset
                 for index, offset in _WRITES[key])


# ----------------------------------------------------------------------
# SREG effects, read off the template text
# ----------------------------------------------------------------------
#: every SREG bit
_ALL = 0xFF
_NUMBER = r"(0x[0-9A-Fa-f]+|\d+)"
#: a rendered line's SREG, and the three ways a line assigns it
_SREG_AT = "data[{}]".format(_ADDRS["SREG"])
_SREG_FORMS = tuple(_SREG_AT + op for op in (" = ", " |= ", " &= "))


def _uses(ref):
    """A pattern matching each use of *ref* (SREG, or a name holding a
    copy of it): ``(ref >> b) & 1`` and ``(ref & 1)`` read one bit on
    its own, ``(ref & m)`` the bits of m, ``(ref | m)`` the bits m
    leaves clear, and any other use every bit."""
    return re.compile(r"\({0} >> (\d+)\) & 1|\({0} & {1}\)|\({0} \| {1}\)"
                      r"|(?<!\w){0}(?!\w)".format(re.escape(ref), _NUMBER))


_SREG_USES = _uses(_SREG_AT)
_NAME = re.compile(r"\b[A-Za-z_]\w*")


def _read(match):
    """The bits one :func:`_uses` match reads, and the bit when it reads
    one bit on its own (else None)."""
    shift, mask, clear = match.groups()
    if shift is not None:
        return 1 << int(shift), int(shift)
    if mask is not None:
        bits = _constant(mask)
        return bits, 0 if bits == 1 else None
    if clear is not None:
        return ~_constant(clear) & _ALL, None
    return _ALL, None


def _split(text):
    """*text* cut at each ``|`` outside brackets."""
    parts, depth, start = [], 0, 0
    for i, char in enumerate(text):
        depth += (char in "([") - (char in ")]")
        if char == "|" and not depth and text[i - 1] == " ":
            parts.append(text[start:i - 1])
            start = i + 2
    return parts + [text[start:]]


def _unwrap(text):
    """*text* without the parentheses around all of it."""
    while text.startswith("("):
        depth = 0
        for i, char in enumerate(text):
            depth += (char in "([") - (char in ")]")
            if not depth:
                break
        if i != len(text) - 1:
            break
        text = text[1:-1]
    return text


def _kept(rhs):
    """``(kept bits, the keep term)`` of the right-hand side of an SREG
    assignment: its first top-level term when that is ``(SREG & m)``,
    with SREG or a name holding a copy of it; ``(0, None)`` otherwise."""
    term = _split(_unwrap(rhs))[0]
    keep = re.fullmatch(r"\((\S+) & " + _NUMBER + r"\)", term)
    if keep and (keep.group(1) == _SREG_AT or keep.group(1).isidentifier()):
        return _constant(keep.group(2)), term
    return 0, None


class _Bound:
    """What the flag derivation knows of a template value: the bits it
    may have set (-1 when it may be negative) and, when it cannot be
    negative, its largest value."""

    __slots__ = ("bits", "hi")

    def __init__(self, bits, hi=None):
        self.bits, self.hi = bits, hi

    @staticmethod
    def of(value):
        if isinstance(value, _Bound):
            return value
        return _Bound(value, value) if value >= 0 else _Bound(-1)

    @staticmethod
    def upto(hi):
        return _Bound((1 << hi.bit_length()) - 1, hi)

    def __and__(self, other):
        other = _Bound.of(other)
        bits = self.bits & other.bits
        if bits < 0:
            return _Bound(-1)
        return _Bound(bits, min([bits] + [x.hi for x in (self, other)
                                          if x.hi is not None]))
    __rand__ = __and__

    def __or__(self, other):
        bits = self.bits | _Bound.of(other).bits
        return _Bound(bits, bits if bits >= 0 else None)
    __ror__ = __xor__ = __rxor__ = __or__

    def _grow(self, other, op):
        other = _Bound.of(other)
        if self.hi is None or other.hi is None:
            return _Bound(-1)
        return _Bound.upto(op(self.hi, other.hi))

    def __add__(self, other):
        return self._grow(other, int.__add__)
    __radd__ = __add__

    def __mul__(self, other):
        return self._grow(other, int.__mul__)
    __rmul__ = __mul__

    def __sub__(self, _other=None):
        return _Bound(-1)
    __rsub__ = __neg__ = __invert__ = __rlshift__ = __sub__

    def __lshift__(self, n):
        if isinstance(n, _Bound) or self.hi is None:
            return _Bound(-1)
        return _Bound(self.bits << n, self.hi << n)

    def __rshift__(self, n):
        if self.hi is None:
            return self
        if isinstance(n, _Bound):
            return _Bound.upto(self.hi)
        return _Bound(self.bits >> n, self.hi >> n)

    def __eq__(self, _other):
        return _Bound(1, 1)
    __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __eq__
    __hash__ = None


class _Table:
    """``data`` or ``NVSZ`` to the flag derivation: any entry is *value*."""

    def __init__(self, bits):
        self.value = _Bound(bits, bits)

    def __getitem__(self, _index):
        return self.value


def _flag_writer(key):
    """How the template of *key* assigns SREG with ``=``: ``(index of
    the line, terms)``, each term of the right-hand side except the keep
    term as ``(text, the bits it may set, {bit: text of that bit's 0/1
    value})``.  None when no line assigns SREG so, or a term reads SREG
    itself or shares a bit with another (a block then renders the line
    as written).  The bits come from running the lines before it over
    :class:`_Bound` values."""
    letters = [op.letter for op in SPEC_BY_KEY[key].operands]
    names = dict(_ADDRS, next="op_next", **{x: "op_" + x for x in letters})
    env = {"data": _Table(0xFF), "NVSZ": _Table(reduce(or_, NVSZ))}
    env.update({"op_" + x: _Bound(0xFF, 0xFF) for x in letters + ["next"]})

    def bound(text):
        return _Bound.of(eval(text.format(**names), {"__builtins__": {}},
                              env))

    prefix = "data[{SREG}] = "
    for index, line in enumerate(_LINES[key]):
        if line.startswith(prefix):
            break
        assigned = re.match(r"(\w+) = (.*)", line)
        if assigned:
            env[assigned.group(1)] = bound(assigned.group(2))
        elif line.startswith(("@load ", "@pop ")):
            env[line.split()[1].rstrip(",")] = _Bound(0xFF, 0xFF)
    else:
        return None
    rhs = line[len(prefix):]
    kept, keep = _kept(rhs.replace("data[{SREG}]", _SREG_AT))
    terms, seen = [], kept
    for term in _split(_unwrap(rhs)):
        if term.replace("data[{SREG}]", _SREG_AT) == keep:
            continue
        if "{SREG}" in term:
            return None
        bits = bound(term).bits
        if bits < 0 or bits & seen:
            return None
        seen |= bits
        terms.append((term, bits, _ones(term, bits, bound)))
    return index, tuple(terms)


def _ones(term, bits, bound):
    """``{bit: text of its 0/1 value}`` for each bit *term* may set.  Z
    and N of ``NVSZ[res | ...]`` (*res* a byte) come from *res*; a
    one-bit term ``(x << b)`` with x 0 or 1 is x."""
    out = {}
    index = re.fullmatch(r"NVSZ\[(.*)\]", term)
    if index:
        res, *rest = _split(index.group(1))
        if bound(res).hi is not None and bound(res).hi <= 0xFF and \
                not any(bound(part).bits & 0xFF for part in rest):
            out = {1: "({} == 0)".format(res), 2: "({} >> 7)".format(res)}
    for bit in range(8):
        if not (bits >> bit) & 1 or bit in out:
            continue
        inner = re.fullmatch(r"\((.*) << {}\)".format(bit), term)
        if bits != 1 << bit:
            out[bit] = "((({}) >> {}) & 1)".format(term, bit)
        elif inner and bound(inner.group(1)).bits == 1:
            out[bit] = inner.group(1)
        else:
            out[bit] = term if not bit else "(({}) >> {})".format(term, bit)
    return out


#: template key -> its :func:`_flag_writer`
_FLAG_WRITER = {key: _flag_writer(key) for key in TEMPLATES}
_COPY = re.compile(r"(\w+) = " + re.escape(_SREG_AT))


def _lazy_lines(key):
    """The lines of *key*'s template with each read of C through a copy
    of SREG (``sbc``'s borrow), outside the line assigning SREG, made a
    read of SREG itself, which holds the same value until that line."""
    lines, copies = [], []
    for line in _LINES[key]:
        copy = re.fullmatch(r"(\w+) = data\[\{SREG\}\]", line)
        if copy:
            copies.append(copy.group(1))
        elif not line.startswith("data[{SREG}]"):
            for name in copies:
                line = line.replace("({} & 1)".format(name),
                                    "(data[{SREG}] & 1)")
        lines.append(line)
    return lines


#: template key -> its :func:`_lazy_lines`, which regions render so
#: that a pending bit can stand in for the read
_LAZY_LINES = {key: _lazy_lines(key) for key in TEMPLATES}


def _copy_reads(key):
    """The SREG bits the :func:`_lazy_lines` of *key* read through a
    name holding a copy of SREG, kept bits included."""
    names = dict(_ADDRS, next="0", **{
        op.letter: "0" for op in SPEC_BY_KEY[key].operands})
    bits, uses = 0, []
    for line in _LAZY_LINES[key]:
        line = line.format(**names)
        copy = _COPY.fullmatch(line)
        if copy:
            uses.append(_uses(copy.group(1)))
            continue
        for pattern in uses:
            for match in pattern.finditer(line):
                bits |= _read(match)[0]
    return bits


#: template key -> its :func:`_copy_reads`
_COPY_READS = {key: _copy_reads(key) for key in TEMPLATES}


class _Flags:
    """What one template line, its operands filled in, does with SREG in
    a region over a data space ending at *data_end* under a view whose
    first three entries are *context* (claimed kinds, hooks, io):

    ``reads``
        the bits it reads: ``singles`` lists ``(start, end, bit)`` of
        each read of one bit on its own, which a block may replace with
        the bit's value; ``partial`` holds the bits of every other read.
    ``kills``
        the bits it must write (``writer`` is the form of a line
        assigning SREG, else None).
    ``barrier``
        a data access that may fault, alias the register locals or reach
        a device, a claimed access or a hook under a view with hooks:
        every bit is live before it.  ``runtime`` is ``"load"`` or
        ``"store"`` for an access at an address computed at run time.
    ``assigned``
        the locals it assigns.
    ``copy``
        it copies SREG into a temporary, which later lines read
        (:data:`_COPY_READS`)."""

    __slots__ = ("reads", "singles", "partial", "kills", "writer",
                 "barrier", "runtime", "assigned", "copy")

    def __init__(self, text, data_end, context):
        self.singles, self.partial, self.kills = [], 0, 0
        self.writer, self.barrier, self.runtime = None, False, None
        self.assigned = set()
        self.copy = bool(_COPY.fullmatch(text))
        body = text
        if text.startswith("@"):
            self._pseudo(text, data_end, context)
        elif self.copy:
            # its reads are those of the lines using the copy
            self.assigned.add(text.split(" ", 1)[0])
            body = ""
        else:
            self._assign(text)
            self.writer = next((form for form in _SREG_FORMS
                                if text.startswith(form)), None)
        if self.writer is not None:
            body = text[len(self.writer):]
            if self.writer == _SREG_FORMS[0]:
                kept, keep = _kept(body)
                self.kills = ~kept & _ALL
                body = body.replace(keep, "0", 1) if keep else body
            else:
                value = _constant(body)
                self.kills = value if "|" in self.writer else ~value & _ALL
                body = ""
        for match in _SREG_USES.finditer(body):
            bits, bit = _read(match)
            if bit is None or self.writer is not None:
                self.partial |= bits
            else:
                self.singles.append((match.start(), match.end(), bit))
        self.reads = self.partial
        for _start, _end, bit in self.singles:
            self.reads |= 1 << bit

    def _assign(self, text):
        assigned = _ASSIGNED.match(text)
        if assigned:
            addr = _constant(assigned.group(1))
            if addr in _LOCALS:
                self.assigned.add(_LOCALS[addr])
        else:
            self.assigned.update(re.findall(r"^(\w+) = ", text))

    def _pseudo(self, text, data_end, context):
        claimed, hooks, io = context
        op, _, rest = text.partition(" ")
        if op not in _ACCESSES:
            self.barrier = hooks and op == "@hook"
            return
        args = _args(rest, 3 if op in ("@load", "@store") else 2)
        self.barrier = AccessKind[args[-1]] in claimed
        write = op in ("@store", "@push")
        if not write:
            self.assigned.add(args[0])
        if op in ("@push", "@pop"):
            self.assigned.add("sp_")
            addr = None
        else:
            addr = _constant(args[1] if op == "@load" else args[0])
        if addr is None:
            self.barrier, self.runtime = True, "store" if write else "load"
        elif not 0 <= addr <= data_end or (
                io and addr < _LOCALS_END and addr not in _LOCALS):
            self.barrier = True
        elif addr == _ADDRS["SREG"]:
            if write:
                self.kills = _ALL
            else:
                self.partial = _ALL
        elif write and addr in _LOCALS:
            self.assigned.add(_LOCALS[addr])


@lru_cache(maxsize=8192)
def _flags(text, data_end, context=PLAIN[:3]):
    return _Flags(text, data_end, context)


@lru_cache(maxsize=4096)
def sreg_effects(key, operands):
    """``(reads, writes)``: masks of the SREG bits the template of *key*
    may read and may write with these *operands* (a tuple), read off its
    text.  A line ``data[{SREG}] = (data[{SREG}] & m) | ...`` writes the
    bits m clears and keeps the rest; ``|=`` and ``&=`` write the bits
    of their constant; ``(data[{SREG}] >> b) & 1``, ``(data[{SREG}] &
    m)`` and ``(data[{SREG}] | m)`` read bit b, the bits of m and the
    bits m leaves clear, the same forms on a name holding a copy of SREG
    read through it (:data:`_COPY_READS`), and any other use reads every
    bit.  A data access
    at SREG's address reads or writes every bit, and so may one at an
    address computed at run time."""
    names = dict(_ADDRS, next="0", **{
        op.letter: str(value)
        for op, value in zip(SPEC_BY_KEY[key].operands, operands)})
    reads = writes = 0
    for line in _LAZY_LINES[key]:
        flags = _flags(line.format(**names), 0xFFFF)
        reads |= flags.reads | (_ALL if flags.runtime == "load" else 0)
        writes |= flags.kills | (_ALL if flags.runtime == "store" else 0)
    # the bits kept through a copy are not read
    return reads | (_COPY_READS[key] & writes), writes


def calls_out(key, view):
    """Whether an instruction of *key* makes a callout under *view*: a
    block ends after it."""
    return bool(_KINDS[key] & view[0]) or (view[1] and key in _HOOKED)


def successors(body):
    """The words a block's compile-time-known exits go to: the
    fall-through, both sides of a branch or skip, and a jump's or
    call's constant target."""
    pc, instr, skip = body[-1]
    after = pc + instr.size_words
    control = CONTROL[instr.key]
    if control is None:
        return [after]
    if control == "skip":
        return [after, after + skip]
    names = _names(instr, str(after))
    target = None
    for line in _LINES[instr.key]:
        line = line.format(**names)
        if line.startswith("target = "):
            target = _constant(line[9:])
    op, _, rest = line.partition(" ")
    if op == "@goto_if":
        return [after, _constant(_args(rest, 3)[1])]
    if rest != "target":
        target = _constant(rest)
    return [] if target is None else [target]


class _BlockWriter:
    """Renders the blocks of one region over ``data``.

    Without *members* it renders one block as straight-line code whose
    exits set ``pc`` and ``cycles`` and fall through to the function's
    tail.  With them, every exit charges the block's cycles and
    instructions to the locals ``cycles`` and ``i_``, sets ``p_`` and
    leaves the region's loop for the one publish after it, except an
    exit to a constant member start: that *moves* there, as long as
    ``cycles`` stays below ``s_`` (the run loop's bound less the largest
    entry prefix) and no call was made (``o_``).

    An access of a kind the view claims, and a call hook when the view
    has hooks, renders the claiming unit's fragment, or the bare
    fragment ``@callout`` where no unit renders one (:meth:`fragment`):
    its stalls add to the block's charge and the block ends after its
    instruction.  Other accesses read or write ``data`` directly; under
    a view with I/O devices they look up ``io_devices`` first, and read
    a device in place or write it through a device call.  Only the path
    that calls out or makes a device call sets ``o_``
    (:meth:`calling`), and the block leaves the region after that
    instruction only then: a fragment's common case moves on like any
    other block.  Before a
    callout or device call, and on a bounds fault, the block publishes
    the ``pc``, ``cycles`` and ``instret`` that :meth:`AvrCore.step`
    shows the instruction's handler: PC past it, its cycles not
    charged, only the instructions before it retired.

    Every constant subscript of r0-r31, SPL, SPH or SREG is a local,
    loaded at entry and written back by the function's ``finally`` on
    every exit and fault.  SPL and SPH are the two bytes of one 16-bit
    local, ``sp_``: ``in``/``out`` read and write a byte of it.  A
    direct access whose address is computed at run time writes the
    locals back first when the address is below ``_LOCALS_END`` (where
    it also looks up a device), and reloads them after a store there; a
    call writes them back before and reloads them after (should it
    raise, the ``finally`` leaves ``data`` as the call left it).  Both
    write-backs call the region's ``put_`` (:meth:`put`).  An unclaimed
    push or pop is one bounds test on ``sp_`` whose branch takes both
    the access that may alias the locals and the fault
    (:meth:`stack`); past it, a push is ``data[sp_] = r`` and ``sp_ -=
    1``.  A claimed one runs the claiming fragment on ``sp_``.  The
    view must map no device at a byte a local holds or past the I/O
    space (:data:`IO_ANY`): the core forms no region under such a view.

    The flags are lazy (``docs/performance.md``, "Lazy flags"): an SREG
    assignment is rendered only for the bits a later line may need
    before they are overwritten, and then held as its terms (*pending*)
    until something needs the whole byte: a read of more than one bit
    on its own, a fault, the write-back on the branch of an access that
    may alias the locals or of a call, a claimed write of SREG, a
    ``break`` out of the region, or a move to a member that may need
    the bit before it writes it.  A read of one pending bit uses that
    bit's value directly.  A store or call on that branch may change
    SREG or a local a term reads, so with bits pending the branch
    finishes the instruction with nothing pending and leaves the region
    (:meth:`finish`): the terms never merge across the two branches."""

    def __init__(self, data_end, view, members):
        self.data_end = data_end
        self.plain = view == PLAIN
        self.claimed, self.hooks, self.io, units = view
        self.context = view[:3]  # what :func:`_flags` reads of the view
        #: claimed kind -> (unit index, its fragment); hook owners as
        #: (unit index, their fragments), or None to call the hooks
        self.fragments, self.hook_units = {}, None
        self.units = 0         # units the view names
        self.binds = False     # some fragment names a unit
        if units is not None:
            bus_units, owners = units
            for index, unit in enumerate(bus_units):
                for kind in unit.kinds:
                    self.fragments[kind] = index, unit.fragments[kind]
            self.hook_units = [(len(bus_units) + n, owner.fragments)
                               for n, owner in enumerate(owners)]
            self.units = len(bus_units) + len(owners)
        self.members = members  # start -> body of each member, or None
        self.prepared = {}     # start -> :meth:`prepare` of that member
        #: the SREG bits whose value is held as terms instead of in
        #: ``sreg_``: ``[bits, terms]`` per writer, each term ``(text,
        #: its bits, {bit: text of its 0/1 value}, the names it reads)``
        self.pending = []
        self.used = set()      # cached bytes the region names
        self.written = set()   # cached bytes it assigns
        self.start = None      # first word of the current block
        self.leaving = False   # every exit leaves the region
        self.lines = []
        self.cycles = 0      # base cycles of the block's instructions
        self.count = 0       # instructions added to the block
        self.next = None     # word address after the current instruction
        self.skip = 0        # words the current instruction may skip
        self.base = 0        # base cycles of the current instruction
        self.target = None   # the current instruction's constant target
        self.key = None      # the current instruction's template key,
        self.texts = None    # ... its lines formatted,
        self.live = None     # ... the SREG bits live after each
        self.index = 0       # ... and the line being rendered
        self.tail = []       # ... that line's lines after its access
        self.stalls = False  # the current instruction adds to x_
        self.devices = False  # some instruction may reach a device
        self.signal = False  # the current instruction may set o_
        self.signals = False  # ... and some instruction may

    def retire(self, count):
        """The line charging *count* retired instructions in all (``i_``
        holds the count at the block's entry)."""
        if self.plain and self.members is None:
            return "core.instret += {}".format(count)
        return "core.instret = i_ + {}".format(count)

    def publish(self):
        """Lines leaving the state ``step()`` shows a handler of the
        current instruction."""
        lines = ["core.pc = {}".format(self.next),
                 "core.cycles = cycles + {}".format(self.cycles)]
        if self.count or self.members is not None:
            lines.append(self.retire(self.count))
        return lines

    def fault(self, addr):
        return (["if {} > {}:".format(addr, self.data_end)]
                + _indent(self.flags() + self.publish()
                          + ["raise InvalidAccess({})".format(addr)]))

    def flags(self, bits=_ALL):
        """The line giving ``sreg_`` the pending values of *bits* (the
        pending state itself does not change)."""
        parts, mask = [], 0
        for pending, terms in self.pending:
            take = pending & bits
            mask |= take
            for text, term_bits, ones, _names in terms if take else ():
                part = term_bits & take
                if part == term_bits:
                    parts.append(text)
                elif part & (part - 1):
                    parts.append("(({}) & {:#04x})".format(text, part))
                elif part:
                    bit = part.bit_length() - 1
                    parts.append("({} << {})".format(ones[bit], bit)
                                 if bit else ones[0])
        if not mask:
            return []
        if mask != _ALL:
            parts.insert(0, "(sreg_ & {:#04x})".format(~mask & _ALL))
        return [self.local(_ADDRS["SREG"], True) + " = "
                + (" | ".join(parts) or "0")]

    def settle(self, bits):
        """Forget the pending values of *bits*."""
        for entry in self.pending:
            entry[0] &= ~bits
        self.pending = [entry for entry in self.pending if entry[0]]

    def one(self, bit):
        """The text of pending *bit*'s 0/1 value, or None."""
        for pending, terms in self.pending:
            if (pending >> bit) & 1:
                return next((ones[bit] for _text, _bits, ones, _names in terms
                             if bit in ones), "0")
        return None

    def lazy(self, key, index, text, live):
        """Line *index* of *key*'s template, formatted as *text*, with
        *live* the bits that may be needed after it: the lines making
        ``sreg_`` exact where it must be before the line, and the line
        with its reads of one pending bit replaced, or None when it is
        an SREG assignment held as pending (or dead)."""
        flags = _flags(text, self.data_end, self.context)
        before = []
        if self.pending:
            need = _COPY_READS[key] if flags.copy else flags.partial
            if flags.barrier and flags.kills:
                # a claimed write of SREG, which a unit may keep from
                # landing: its callout needs every bit in sreg_
                need = _ALL
            before = self.flags(need)
            self.settle(need)
            if flags.singles:
                parts, last = [], 0
                for start, end, bit in flags.singles:
                    value = self.one(bit)
                    if value is not None:
                        parts += [text[last:start], "(" + value + ")"]
                        last = end
                text = "".join(parts) + text[last:]
            clobbered = 0
            for pending, terms in self.pending:
                for _text, bits, _ones, names in terms:
                    if names & flags.assigned:
                        clobbered |= pending & bits
            before += self.flags(clobbered & live)
            self.settle(clobbered | flags.kills)
        if flags.writer is None:
            return before, text
        held = flags.kills & live
        writer = _FLAG_WRITER[key]
        if held and writer is not None and writer[0] == index:
            terms = []
            for term, bits, ones in writer[1]:
                term = self.cached(term.format(**self.names))
                ones = {bit: self.cached(one.format(**self.names))
                        for bit, one in ones.items()}
                terms.append((term, bits, ones, set(_NAME.findall(
                    " ".join([term] + list(ones.values())))) - {"NVSZ"}))
            self.pending.append([held, terms])
            return before, None
        return before, text if held else None

    def local(self, addr, write):
        """The expression reading the cached byte at *addr*."""
        self.used.add(addr)
        if write:
            self.written.add(addr)
        return _LOCAL_READS[addr]

    def _rename(self, match):
        addr = _constant(match.group(1))
        return match.group(0) if addr not in _LOCALS else \
            self.local(addr, False)

    def cached(self, line):
        """*line* with its constant subscripts of cached bytes renamed
        to their locals."""
        assigned = _ASSIGNED.match(line)
        addr = assigned and _constant(assigned.group(1))
        if addr in _LOCALS:
            self.written.add(addr)
        return _SUBSCRIPT.sub(self._rename, line)

    def direct(self, addr, write, value):
        """An unclaimed access: *value* written to, or the variable
        *value* read from, ``data[addr]`` after a bounds check, or the
        I/O device mapped there under a view with devices."""
        constant = _constant(addr)
        if constant is not None:
            setup, at = [], str(constant)
            check = [] if 0 <= constant <= self.data_end else self.fault(at)
            if not check and constant in _LOCALS:
                name = self.local(constant, write)
                if not write:
                    return [value + " = " + name]
                if constant in _SP_BYTES:
                    value = value if value.isidentifier() else \
                        "(" + value + ")"
                    return ["sp_ = (sp_ & 0xFF00) | " + value
                            if constant == _ADDRS["SPL"] else
                            "sp_ = (sp_ & 0xFF) | ({} << 8)".format(value)]
                return [name + " = " + value]
        elif addr.isidentifier():
            setup, at, check = [], addr, self.fault(addr)
        else:
            setup, at, check = ["a_ = " + addr], "a_", self.fault("a_")
        if write:
            line = "data[{}] = {}".format(at, value)
            device = "d_.io_write({}, {})".format(at, value)
        else:
            line = "{} = data[{}]".format(value, at)
            device = "{} = d_.io_read({})".format(value, at)
        if constant is None:
            return (setup + ["if {} < {}:".format(at, _LOCALS_END)]
                    + _indent(self.low(at, write, line, device))
                    + ["else:"] + _indent(check + [line]))
        if not self.io or constant >= _LOCALS_END:
            return setup + check + [line]
        # a constant address in the I/O space, where no local is
        return setup + self.lookup(at, [line], device, write)

    def low(self, at, write, line, device):
        """The branch of a direct access at a run-time address *at* below
        ``_LOCALS_END``: *line* over the locals written back, which a
        store reloads, or *device* when one is mapped there."""
        alias = self.flags() + [_WRITE_BACK, line]
        if write:
            alias += self.reload()
            if self.pending:
                alias += self.finish()
        return self.lookup(at, alias, device, write) if self.io else alias

    def lookup(self, at, lines, device, write):
        """*lines*, or *device*, the access of the device mapped at *at*:
        a read in place (``io_read`` changes nothing, see
        :attr:`~repro.sim.memory.Memory.io_devices`), a write on the path
        of a call (:meth:`calling`)."""
        self.devices = True
        return (["d_ = io_.get({})".format(at), "if d_ is None:"]
                + _indent(lines) + ["else:"]
                + _indent(self.calling([device]) if write else [device]))

    def reload(self):
        """Lines reloading the locals after a store or call that may have
        written them.  On the paths of a claimed push SP keeps its value:
        it moves after the access, over whatever the access wrote."""
        if self.tail:
            return ["k_ = sp_", _RELOAD, "sp_ = k_"]
        return [_RELOAD]

    def calling(self, call):
        """The path of a callout or a device call: the pending flags and
        the locals written back, the publish, *call* with ``o_`` at 2
        (``data`` holds the state: should the call raise, the ``finally``
        keeps what it wrote), the locals reloaded after it, and ``o_`` at
        1: the block leaves the region after the instruction.  With bits
        pending the path finishes the instruction itself
        (:meth:`finish`)."""
        self.signal = self.signals = True
        lines = (self.flags() + [_WRITE_BACK] + self.publish() + ["o_ = 2"]
                 + call + self.reload() + ["o_ = 1"])
        if self.pending:
            lines += self.finish()
        return lines

    def stack(self, kind, push, operand):
        """A push of *operand*, or a pop into the variable *operand*, on
        ``sp_``.  Unclaimed and with no device mapped: one bounds test,
        whose branch takes the access that may alias the locals (the
        write-back first, the reload after a push) and the fault.
        Otherwise SP moves before a pop and after a push, around the
        claiming unit's fragment (the bare ``@callout`` where no unit
        renders one) or :meth:`near`."""
        self.local(_ADDRS["SPL"], True)
        self.local(_ADDRS["SPH"], True)
        claimed = kind in self.claimed
        if claimed or self.io:
            if push:
                self.tail = ["sp_ = (sp_ - 1) & 0xFFFF"]
            lines = self.access(kind, "sp_", push, operand) if claimed \
                else self.near(push, operand)
            if not push:
                return ["sp_ = (sp_ + 1) & 0xFFFF"] + lines
            lines += self.tail
            self.tail = []
            return lines
        if push:
            test = "sp_ < {} or sp_ > {}".format(_LOCALS_END, self.data_end)
            # SP moves after the store, over whatever it wrote there
            slow = self.fault("sp_") + self.flags() + [
                _WRITE_BACK, "data[sp_] = " + operand,
                "a_ = (sp_ - 1) & 0xFFFF", _RELOAD, "sp_ = a_"]
            if self.pending:
                slow += self.finish()
            fast = ["data[sp_] = " + operand, "sp_ -= 1"]
        else:
            test = "sp_ < {} or sp_ > {}".format(_LOCALS_END - 1,
                                                 self.data_end - 1)
            slow = (["sp_ = (sp_ + 1) & 0xFFFF"] + self.fault("sp_")
                    + self.flags() + [_WRITE_BACK, operand + " = data[sp_]"])
            fast = ["sp_ += 1", operand + " = data[sp_]"]
        return ["if " + test + ":"] + _indent(slow) + ["else:"] + \
            _indent(fast)

    def near(self, write, operand):
        """The direct access at ``sp_`` of a push (before SP moves) or a
        pop (after): one bounds test whose branch takes the fault, the
        access that may alias the locals and a device."""
        if write:
            line = "data[sp_] = " + operand
            device = "d_.io_write(sp_, {})".format(operand)
        else:
            line = operand + " = data[sp_]"
            device = "{} = d_.io_read(sp_)".format(operand)
        return (["if sp_ < {} or sp_ > {}:".format(_LOCALS_END,
                                                  self.data_end)]
                + _indent(self.fault("sp_")
                          + self.low("sp_", write, line, device))
                + ["else:", "    " + line])

    def finish(self):
        """The rest of the current instruction on the branch of a store
        or call that may have changed the locals, every pending bit
        already in ``sreg_`` and written back: the rest of its line
        (:attr:`tail`) and its lines after it rendered with nothing
        pending, then, unless one of them transfers control, an exit
        after it.  Every exit on the branch leaves the region, so the
        pending terms, which the store may have made stale, never reach
        the code after the branch."""
        saved = (self.pending, self.leaving, self.tail, self.index,
                 self.stalls, self.signal)
        self.pending, self.leaving, self.tail = [], True, []
        lines = saved[2] + self.rest(self.index + 1)
        if CONTROL[self.key] is None:
            lines += self.exit(self.next, self.cycles + self.base,
                               self.count + 1)
        (self.pending, self.leaving, self.tail, self.index, self.stalls,
         self.signal) = saved
        return lines

    def fragment(self, index, source, names, direct, callout):
        """Unit *index*'s fragment *source* with *names* filled in, its
        ``@direct`` lines replaced by ``direct()`` (an access fragment's
        only) and its ``@callout`` lines by the path making *callout*
        (:meth:`calling`).  A claimed kind or hook no unit renders is
        the bare fragment ``@callout`` (*index* None)."""
        self.binds = self.binds or index is not None
        head = [] if self.stalls else ["x_ = 0"]
        self.stalls = True
        slow = self.calling(callout)
        if "{sp}" in source:
            self.local(_ADDRS["SPL"], False)
            self.local(_ADDRS["SPH"], False)
        source = source.format(u="u{}_".format(index), sp="sp_",
                               data_end=self.data_end, **names)
        lines = []
        for line in source.split("\n"):
            code = line.lstrip(" ")
            pad = line[:len(line) - len(code)]
            if code == "@direct":
                lines += [pad + x for x in direct()]
            elif code == "@callout":
                lines += [pad + x for x in slow]
            elif code:
                lines.append(line)
        return head + lines

    def access(self, kind, addr, write, operand):
        """A claimed access by the claiming unit's fragment: a write of
        *operand* to, or a read of the variable *operand* from,
        *addr*."""
        index, source = self.fragments.get(kind, _CALLOUT)
        if write:
            names = {"addr": addr, "value": operand}
            call = _bus_write(addr, operand, kind.name)
        else:
            names = {"addr": addr, "var": operand}
            call = _bus_read(operand, addr, kind.name)
        return self.fragment(index, source, names, lambda: (
            self.near(write, operand) if addr == "sp_" else
            self.direct(addr, write, operand)), call)

    def hook(self, rest):
        """A ``@hook`` by each hook owner's fragment, in hook order, or
        through every call hook when they have no fragments."""
        if self.hook_units is None:
            return self.fragment(None, "@callout", {}, None,
                                 _callout("@hook", rest))
        event, *kwargs = rest.split(", ")
        names = dict(kwarg.split("=", 1) for kwarg in kwargs)
        lines = []
        for index, fragments in self.hook_units:
            source = fragments[event.strip('"')]
            call = ["x_ += u{}_.on_event(core, {}) or 0".format(index, rest)]
            lines += self.fragment(index, source, names, None, call)
        return lines

    def exit(self, target, cycles, count, leave=False):
        """Lines leaving the block for *target* with *cycles* base cycles
        and *count* instructions charged.  A straight-line block's exit
        returns only when *leave* (or :attr:`leaving`).  A region's
        charges ``cycles`` and ``i_``, sets ``p_`` and either breaks out
        of the loop to the publish after it or, unless leaving, moves."""
        stall = " + x_" if self.stalls else ""
        leave = leave or self.leaving
        if self.members is None:
            lines = self.flags() + [
                "core.pc = " + target,
                "core.cycles = cycles + {}{}".format(cycles, stall)]
            return lines + [self.retire(count), "return"] if leave else lines
        to = _constant(target)
        lines = ["cycles += {}{}".format(cycles, stall),
                 "i_ += {}".format(count),
                 "p_ = {}".format(target if to is None else to)]
        if leave or to not in self.members:
            return lines + self.flags() + ["break"]
        return (lines + ["if cycles >= s_{}:".format(
                    " or o_" if self.signal else "")]
                + _indent(self.flags() + ["break"])
                + self.flags(self.prepare(self.members[to])[2])
                + (["continue"] if to <= self.start else []))

    def render(self, line):
        line = self.cached(line)
        if not line.startswith("@"):
            if line.startswith("target = "):
                self.target = _constant(line[9:])
            return [line]
        op, _, rest = line.partition(" ")
        if op in _ACCESSES:
            *args, kind = _args(rest, 3 if op in ("@load", "@store") else 2)
            kind = AccessKind[kind]
            if op in ("@push", "@pop"):
                return self.stack(kind, op == "@push", args[0])
            if op == "@load":
                addr, write, operand = args[1], False, args[0]
            else:
                addr, write, operand = args[0], True, args[1]
            if kind in self.claimed:
                return self.access(kind, addr, write, operand)
            return self.direct(addr, write, operand)
        if op == "@hook":
            return self.hook(rest) if self.hooks else []
        if op == "@emit":
            return []
        total, count = self.cycles + self.base, self.count + 1
        if op == "@goto":
            if rest == "target" and self.target is not None:
                rest = str(self.target)
            return self.exit(rest, total, count)
        if op == "@goto_if":
            cond, target, cost = _args(rest, 3)
            cost = int(cost)
        else:
            cond, target, cost = rest, str(int(self.next) + self.skip), \
                self.skip
        return (["if {}:".format(cond)]
                + _indent(self.exit(target, total + cost, count))
                + ["else:"] + _indent(self.exit(self.next, total, count)))

    def add(self, pc, instr, skip, names, texts, live, last):
        """Append one instruction, the block's *last*: *texts* are its
        template's lines formatted with *names*, *live* the SREG bits
        live after each (None without the cache)."""
        self.next = str(pc + instr.size_words)
        self.skip = skip
        self.base = instr.spec.cycles
        self.target = None
        self.names = names
        self.stalls = self.signal = False
        self.key, self.texts, self.live = instr.key, texts, live
        lines = self.rest(0)
        # the exits after a block's last instruction test o_ themselves
        if self.signal and not last and CONTROL[instr.key] is None:
            # a call was made: exit after this instruction
            lines += ["if o_:"] + _indent(self.exit(
                self.next, self.cycles + self.base, self.count + 1, True))
        self.lines += lines
        self.cycles += self.base
        self.count += 1

    def rest(self, first):
        """The current instruction's lines from line *first* on."""
        lines = []
        for index in range(first, len(self.texts)):
            before, text = self.lazy(self.key, index, self.texts[index],
                                     self.live[index])
            lines += before
            if text is None:
                continue
            self.index = index
            lines += self.render(text)
            self.settle(~self.live[index])
        return lines

    def block(self, body):
        """Render the block *body*, a run of ``(pc, decoded instr, skip
        words)`` in which only the last may transfer control.  Returns
        its lines, the cycles before its last instruction, that
        instruction's word, and one past the last flash word it read
        (the skipped instruction of a final skip included)."""
        self.start = body[0][0]
        self.lines, self.cycles, self.count = [], 0, 0
        self.pending = []
        instrs, live, _entry = self.prepare(body)
        prefix = at = 0
        for n, ((pc, instr, skip), (names, texts)) in enumerate(
                zip(body, instrs)):
            prefix = self.cycles
            self.add(pc, instr, skip, names, texts, live[at:at + len(texts)],
                     n == len(body) - 1)
            at += len(texts)
        after = pc + instr.size_words
        if CONTROL[instr.key] is None:
            self.lines += self.exit(str(after), self.cycles, self.count)
        return self.lines, prefix, pc, after + skip

    def prepare(self, body):
        """The block *body*'s template lines formatted, per instruction
        as ``(names, lines)``; with the cache the SREG bits live after
        each line and at the block's entry (every bit is live at an
        exit, a fault, an access that may alias the locals and a call),
        else None and every bit.  Memoised per member."""
        start = body[0][0]
        if start in self.prepared:
            return self.prepared[start]
        instrs = []
        for pc, instr, _skip in body:
            names = _names(instr, str(pc + instr.size_words))
            instrs.append((names, [line.format(**names)
                                   for line in _LAZY_LINES[instr.key]]))
        live, after = _ALL, []
        for key, text in reversed([
                (instr.key, text) for (_pc, instr, _skip), (_names, texts)
                in zip(body, instrs) for text in texts]):
            after.append(live)
            flags = _flags(text, self.data_end, self.context)
            reads = _COPY_READS[key] if flags.copy else flags.reads
            live = _ALL if flags.barrier else (live & ~flags.kills) | reads
        after.reverse()
        self.prepared[start] = instrs, after, live
        return instrs, after, live

    def stores(self):
        return ["data[{}] = {}".format(addr, _LOCAL_READS[addr])
                for addr in sorted(self.written)] or ["pass"]

    def _written_names(self):
        """The locals holding the written bytes, each once."""
        return ", ".join(dict.fromkeys(
            _LOCALS[addr] for addr in sorted(self.written)))

    def put(self):
        """The region's write-back function ``put_``: :meth:`stores` on
        its arguments, the written locals.  One call writes them back
        before an access that may alias them or a call, as fast as the
        stores in place and in one line of source."""
        if not self.written:
            return []
        return (["def put_(data, {}):".format(self._written_names())]
                + _indent(self.stores()))

    def _bytes(self):
        """The cached bytes loaded one by one (all but SP's)."""
        return [addr for addr in sorted(self.used) if addr not in _SP_BYTES]

    def loads(self):
        """One line loading every local but ``sp_`` (``g_`` gets them
        all), and one loading ``sp_``."""
        used = self._bytes()
        names = [_LOCALS[addr] for addr in used]
        lines = ["{}, = g_(data)".format(", ".join(names))] \
            if len(names) > 1 else ["{} = data[{}]".format(name, addr)
                                    for name, addr in zip(names, used)]
        if self.used.intersection(_SP_BYTES):
            lines.append("sp_ = " + _SP)
        return lines

    def namespace(self):
        """The global :meth:`loads` refers to."""
        used = self._bytes()
        return {"g_": itemgetter(*used) if len(used) > 1 else None}

    def expand(self, lines):
        """*lines* with the write-back and reload placeholders filled in
        from the whole region's locals."""
        fill = {_WRITE_BACK: ["put_(data, {})".format(
                    self._written_names())] if self.written else ["pass"],
                _RELOAD: self.loads() or ["pass"]}
        out = []
        for line in lines:
            code = line.lstrip(" ")
            if code in fill:
                pad = line[:len(line) - len(code)]
                out += [pad + x for x in fill[code]]
            else:
                out.append(line)
        return out


class Region:
    """One compiled function running a set of blocks (its *members*),
    entered at any of them: ``entries`` maps each member's start word to
    the cycles before its last instruction and that instruction's word;
    ``lo``..``hi`` is the word span of every instruction the function
    may run, and ``cover`` the ``(start, end)`` flash words each member
    read."""

    __slots__ = ("function", "entries", "lo", "hi", "cover")

    def __init__(self, function, entries, cover):
        self.function = function
        self.entries = entries
        self.lo = min(entries)
        self.hi = max(last for _prefix, last in entries.values())
        self.cover = cover

    def entry(self, pc):
        """The run loop's blocks-table entry for the member at *pc*."""
        prefix, last = self.entries[pc]
        return (self.function, prefix, last, self.lo, self.hi)


#: compiled regions shared by every core in the process, so that a
#: restore, a replay or a rebuilt node compiles nothing again:
#: ``(data_end, view, ((member start, its flash words), ...)) -> Region``
_CACHE = {}
#: ``(member start, data_end, view) -> keys of the cached regions``
_AT = {}
#: bound on the cache; a full cache is dropped and refilled
_CACHE_MAX = 1024


def cached_region(flash, pc, data_end, view):
    """A region this process compiled under *view* with a member at *pc*
    whose members' words are all still in *flash*, or None.  The words
    the members read and the view determine its code."""
    for key in _AT.get((pc, data_end, view), ()):
        if all(tuple(flash[start:start + len(words)]) == words
               for start, words in key[2]):
            return _CACHE[key]
    return None


def compile_region(flash, members, data_end, view):
    """Compile *members*, ``start word -> block body`` as
    :meth:`_BlockWriter.block` takes it, read from *flash*, into one
    :class:`Region` for a run under *view*.

    Its function takes ``(core, data, cycles)`` with ``core.pc`` at a
    member's start, runs from there and charges the cycles, PC and
    retired instructions to *core*.  A region of one block that cannot
    move to itself is rendered as straight-line code; every other
    region dispatches on the local ``p_`` in a loop, reading the bound
    its moves must stay under from ``core._bound``.  Every region keeps
    r0-r31, SP and SREG in locals with lazy flags
    (:class:`_BlockWriter`), written back to ``data`` by a ``finally``
    on every exit and fault but a call that raised."""
    order = sorted(members)
    first = order[0]
    looping = len(order) > 1 or first in successors(members[first])
    writer = _BlockWriter(data_end, view, members if looping else None)
    entries, cover, body = {}, [], []
    for start in order:
        lines, prefix, last, end = writer.block(members[start])
        entries[start] = (prefix, last)
        cover.append((start, end))
        if len(order) > 1:
            lines = ["if p_ == {}:".format(start)] + _indent(lines)
        body += lines
    head = [] if writer.plain and not looping else ["i_ = core.instret"]
    if writer.binds:
        head.append("{}, = core._units".format(", ".join(
            "u{}_".format(index) for index in range(writer.units))))
    if writer.devices:
        head.append("io_ = core.memory.io_devices")
    if writer.signals:
        head.append("o_ = 0")
    if looping:
        head.append("s_ = core._bound - {}".format(
            max(prefix for prefix, _last in entries.values())))
        if len(order) > 1:
            head.append("p_ = core.pc")
        body = ["while True:"] + _indent(body) + [
            "core.pc = p_", "core.cycles = cycles", "core.instret = i_"]
    else:
        body += [writer.retire(writer.count)]
    # every exit and fault leaves through the write-back, but for a call
    # that raised
    head += writer.loads()
    stores = writer.stores()
    if writer.signals:
        stores = ["if o_ < 2:"] + _indent(stores)
    body = ["try:"] + _indent(body) + ["finally:"] + _indent(stores)
    source = "\n".join(writer.put() + ["def block(core, data, cycles):"]
                       + _indent(writer.expand(head + body)))
    namespace = dict(writer.namespace(), InvalidAccess=InvalidAccess,
                     NVSZ=NVSZ, AccessKind=AccessKind)
    exec(compile(source, "<avr block>", "exec"), namespace)
    region = Region(namespace["block"], entries, tuple(cover))
    if len(_CACHE) >= _CACHE_MAX:
        _CACHE.clear()
        _AT.clear()
    key = (data_end, view, tuple((start, tuple(flash[start:end]))
                                 for start, end in cover))
    _CACHE[key] = region
    for start in order:
        _AT.setdefault((start, data_end, view), []).append(key)
    return region


# ----------------------------------------------------------------------
# unit rules: each rendered as a unit's fragment and as its handler
# ----------------------------------------------------------------------
_CONTINUED = ("elif ", "else:", "except")
#: a bus unit's and a hook owner's handler placeholders, who holds an
#: observer in a handler and in a region (the unit holds its waveform),
#: and the observers a region never runs with: a core with a trace sink
#: or profiler runs ``step()``, a bus trace sink makes every access a
#: bare callout
_SIDES = {
    "bus": (dict(u="self", addr="addr", value="value", var="v_",
                 data_end="(len(data) - 1)", sp="(" + _SP + ")"),
            "bus", "core.bus", frozenset(("trace",))),
    "hook": (dict(u="self", target='kw["target"]', ret='kw["ret"]',
                  data_end="(len(data) - 1)", sp="core.sp"),
             "core", "core", frozenset(("trace", "profiler")))}
#: a bus unit's write and read handler: its arguments, and its verdicts
#: at ``@direct`` and at a rule's end, with ``x_`` stall cycles
_BUS_HANDLERS = {
    "on_write": ("self, bus, addr, value, kind",
                 "WriteAction(extra_cycles=x_) if x_ else None",
                 "WriteAction(handled=True, extra_cycles=x_)"),
    "on_read": ("self, bus, addr, kind",
                "ReadAction(extra_cycles=x_) if x_ else None",
                "ReadAction(value=v_, extra_cycles=x_)")}


def _tree(text):
    """*text*'s logical lines as a suite of ``[line, suite]`` nodes,
    comments dropped."""
    root = []
    suites = [(-1, root)]
    for line in _joined(text):
        code = line.strip()
        if code.startswith("#"):
            continue
        depth = len(line) - len(code)
        while depth <= suites[-1][0]:
            suites.pop()
        node = [code, []]
        suites[-1][1].append(node)
        suites.append((depth, node[1]))
    return root


def _text(suite, depth=0):
    lines = []
    for code, body in suite:
        lines.append("    " * depth + code)
        if code.endswith(":"):
            lines += _text(body or [["pass", []]], depth + 1)
    return lines


def _statements(suite):
    """*suite*'s compound statements: a node and the ``elif``, ``else``
    and ``except`` nodes after it."""
    statements = []
    for node in suite:
        if statements and node[0].startswith(_CONTINUED):
            statements[-1].append(node)
        else:
            statements.append([node])
    return statements


def _count(suite, leaf):
    return sum((code == leaf) + _count(body, leaf) for code, body in suite)


def _region_suite(suite, holder, seen):
    """A rule *suite*'s region rendering: a suite whose paths all fault
    is one ``@callout``, a ``@callout`` ends its suite, an
    ``@inline_if`` and an ``@observe`` of an observer not in *seen*
    call out on their test, with the rest of the suite under its
    ``else``.  An ``else`` holding one ``if`` becomes ``elif``, and
    neighbouring branches that only call out become one."""
    if suite and suite[-1][0].startswith(("@fault ", "raise ")):
        return [["@callout", []]]
    out = []
    for index, (code, body) in enumerate(suite):
        op, _, rest = code.partition(" ")
        name = rest.split(",", 1)[0]
        if op == "@callout":
            return out + [["@callout", []]]
        if op == "@fault":
            raise AssertionError("a @fault must end its suite: " + code)
        if op == "@inline_if" or op == "@observe" and name not in seen:
            seen |= {name}
            test = "not ({})".format(rest) if op == "@inline_if" else \
                "{}.{} is not None".format(
                    "{u}" if name == "waveform" else holder, name)
            return out + _chained(
                [["if " + test + ":", [["@callout", []]]],
                 ["else:", _region_suite(suite[index + 1:], holder, seen)]])
        if op != "@observe":
            out.append([code, _region_suite(body, holder, seen)])
    return _chained(out)


def _chained(suite):
    flat = []
    for code, body in suite:
        if code == "else:" and body and body[0][0].startswith("if ") \
                and len(_statements(body)) == 1:
            flat += [["elif " + body[0][0][3:], body[0][1]]] + body[1:]
        else:
            flat.append([code, body])
    out = []
    for code, body in flat:
        if code.startswith("elif ") and body == [["@callout", []]] \
                and out[-1][1] == body:
            # a conditional expression binds looser than ``or``
            head, test = out[-1][0][:-1].split(" ", 1)
            out[-1][0] = "{} {} or {}:".format(head, *(
                "({})".format(t) if " if " in t else t
                for t in (test, code[5:-1])))
        else:
            out.append([code, body])
    return out


def _fragment(template, holder, seen, name):
    """A rule *template*'s fragment, where the ``@callout`` and
    ``@direct`` leaves it would render more than once set ``fx_``
    instead and run once after it.  Raises where a statement follows
    one that may call out or access directly."""
    suite = _region_suite(_tree(template), holder, seen)

    def check(suite):
        for statement in _statements(suite)[:-1]:
            if _count(statement, "@callout") or _count(statement, "@direct"):
                raise AssertionError(name + ": a rule goes on after a leaf")
        for _code, body in suite:
            check(body)
    check(suite)
    flags = {}
    for leaf in ("@callout", "@direct"):
        if _count(suite, leaf) > 1:
            flags[leaf] = str(len(flags) + 1)
    lines = ["fx_ = 0"] if flags else []
    for line in _text(suite):
        code = line.lstrip(" ")
        lines.append(line.replace(code, "fx_ = " + flags[code])
                     if code in flags else line)
    for n, (leaf, flag) in enumerate(flags.items()):
        lines += ["{} fx_ == {}:".format("elif" if n else "if", flag),
                  "    " + leaf]
    return "\n".join(lines)


def _handler_suite(suite, holder, direct, report):
    """A rule *suite*'s handler rendering: an ``@observe`` reports when
    its observer is attached, a ``@fault`` runs *report* and raises,
    ``@direct`` returns *direct*, and ``@inline_if`` and ``@callout``
    are nothing."""
    lines = []
    for code, body in suite:
        op, _, rest = code.partition(" ")
        if op == "@observe":
            name, call = rest.split(", ", 1)
            held = ("self." if name == "waveform" else holder + ".") + name
            lines += ["if {} is not None:".format(held),
                      "    {}.{}".format(held, call)]
        elif op == "@fault":
            why, fault = rest.split(", ", 1)
            lines += report(*why.split(" ", 1)) + ["raise " + fault]
        elif op == "@direct":
            lines.append("return " + direct)
        elif op not in ("@inline_if", "@callout"):
            lines.append(code)
            if code.endswith(":"):
                lines += _indent(_handler_suite(body, holder, direct, report)
                                 or ["pass"])
    return lines


def render_unit(cls):
    """Class decorator: set the unit *cls*'s ``fragments`` and handlers
    from its rules ``cls.templates``, one per :class:`AccessKind` a bus
    unit claims (rendered into ``on_write``/``on_read``) or per call-hook
    event (into ``on_event``).  A ``@fault why [data], exception`` runs
    ``cls.report``, if any, with ``{why}`` quoted and ``{data}`` (say
    ``owner=x``) after a comma.  Handlers see the unit module's names."""
    side = "bus" if all(isinstance(key, AccessKind)
                        for key in cls.templates) else "hook"
    names, holder, region_holder, unseen = _SIDES[side]
    cls.fragments = {key: _fragment(template, region_holder, unseen,
                                    cls.__name__)
                     for key, template in cls.templates.items()}

    def report(why, data=None):
        return _handler_suite(_tree(getattr(cls, "report", "").format(
            why=repr(why), data=", " + data if data else "", **names)),
            holder, None, None)

    def branch(test, template, direct=None, done=None):
        lines = _handler_suite(_tree(template.format(**names)), holder,
                               direct, report)
        head = ["data = self.memory.data"] * any("data" in line
                                                 for line in lines)
        if done is not None:
            head.append("x_ = 0")
            lines.append("return " + done)
        return [test + ":"] + _indent(head + lines)

    functions = {}
    if side == "hook":
        body = ["x_ = 0"]
        for event, template in cls.templates.items():
            body += branch("{} event == {!r}".format(
                "elif" if len(body) > 1 else "if", event), template)
        functions["on_event"] = ("self, core, event, **kw",
                                 body + ["return x_"])
    rules = {}
    for kind, template in cls.templates.items() if side == "bus" else ():
        function = "on_write" if kind.is_write else "on_read"
        rules.setdefault((function, template), []).append(kind.name)
    for (function, template), kinds in rules.items():
        args, direct, done = _BUS_HANDLERS[function]
        body = functions.setdefault(function, (args, ["return None"]))[1]
        body[-1:] = branch("if " + " or ".join(sorted(
            "kind is AccessKind." + kind for kind in kinds)),
            template, direct, done) + ["return None"]
    namespace = dict(vars(sys.modules[cls.__module__]),
                     WriteAction=WriteAction, ReadAction=ReadAction)
    for function, (args, body) in functions.items():
        source = "def {}({}):\n".format(function, args) + "\n".join(
            _indent(body))
        exec(compile(source, "<{} rules>".format(cls.__name__), "exec"),
             namespace)
        handler = namespace.pop(function)
        handler.__qualname__ = cls.__qualname__ + "." + function
        handler.__module__ = cls.__module__
        setattr(cls, function, handler)
    return cls
