"""One source template per AVR opcode, rendered two ways.

Each template below is the only written-out copy of its opcode's effect
on registers, SREG and data memory.  At import time :mod:`repro.sim.core`
renders every template into the interpreter's ``_exec_<key>`` handler
(:func:`handler_source`).  At run time the block compiler renders runs
of templates into one straight-line Python function with the operands
constant-folded (:func:`compile_block`); only :data:`HANDLER_ONLY`
opcodes never enter a block.  The two renderings differ
only in the pseudo-ops, which are where the bus, the call hooks and the
trace sink come in.  A block renders a pseudo-op in handler form only
where its view (:data:`PLAIN`) says something may act on it (a
*callout*), and directly everywhere else:

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
    claims KIND.  Otherwise a block reads or writes ``data`` directly
    after a bounds check (and an I/O-device lookup, when the view has
    devices).
``@push value, KIND`` / ``@pop v, KIND``
    a stack transaction through SP, rendered the same two ways.
``@hook event, kwargs`` / ``@emit KIND, pc, kwargs``
    the call hooks and the trace event of a control transfer.  A block
    calls the hooks when the view has any; it never emits, because a
    core with a trace sink runs ``step()``.
``@goto target`` / ``@goto_if cond, target, cycles`` / ``@skip_if cond``
    the control transfer that ends the template.  ``@skip_if`` skips
    the next instruction; a handler reads its size when the skip is
    taken, a block has it folded in at compile time.

Every other line is Python over ``data`` (the unified data space, so
registers and SREG are plain bytes of it) and the flag table
:data:`NVSZ`.  Temporaries may be any name except ``core``, ``i``,
``data``, ``cycles``, ``hook``, ``NVSZ`` and the ``op_*`` operand
locals; names ending in ``_`` belong to the renderers.
"""

from repro.isa.opcodes import SPEC_BY_KEY
from repro.isa.registers import IoReg
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
for _key in ("st_x", "st_xp", "st_mx", "st_yp", "st_my", "st_zp", "st_mz",
             "std_y", "std_z"):
    TEMPLATES[_key] = _pointer(_key) + "@store ptr, data[{r}], DATA_STORE\n"

_CONTROL = ("@goto ", "@goto_if ", "@skip_if ")


def _lines(key):
    lines = [line for line in TEMPLATES[key].split("\n") if line.strip()]
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


def _callout(op, rest):
    """An access or ``@hook`` in handler form, shared by both
    renderings: through ``core.bus`` and ``core.call_hooks``, adding
    stall cycles to ``x_``.  A stack write lands (or faults) before SP
    moves; SP moves before a stack read."""
    if op == "@load":
        var, addr, kind = _args(rest, 3)
        return ["{}, e_ = core.bus.read({}, AccessKind.{})".format(
            var, addr, kind), "x_ += e_"]
    if op == "@store":
        addr, value, kind = _args(rest, 3)
        return ["x_ += core.bus.write({}, {}, AccessKind.{})".format(
            addr, value, kind)]
    if op == "@push":
        value, kind = _args(rest, 2)
        return (["sp_ = " + _SP,
                 "x_ += core.bus.write(sp_, {}, AccessKind.{})".format(
                     value, kind), "sp_ = (sp_ - 1) & 0xFFFF"] + _SET_SP)
    if op == "@pop":
        var, kind = _args(rest, 2)
        return (["sp_ = (({}) + 1) & 0xFFFF".format(_SP)] + _SET_SP
                + ["{}, e_ = core.bus.read(sp_, AccessKind.{})".format(
                    var, kind), "x_ += e_"])
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


def handler_source(key):
    """Python source of the interpreter handler ``_exec_<key>(core, i)``:
    operands unpacked from ``i.operands``, returning the stall and
    control-transfer cycles beyond the spec's base cost."""
    letters = [op.letter for op in SPEC_BY_KEY[key].operands]
    names = dict(_ADDRS, next="core.pc",
                 **{letter: "op_" + letter for letter in letters})
    body, extra = [], False
    for line in _LINES[key]:
        rendered, adds = _handler_lines(line.format(**names))
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
# rendering 2: compiled blocks
# ----------------------------------------------------------------------
class _Unblockable(Exception):
    """A template line a block cannot hold (a constant address outside
    the data space: the interpreter raises there)."""


def _constant(expr):
    """The value of *expr* if it is a constant expression, else None."""
    try:
        return eval(expr, {"__builtins__": {}})
    except NameError:
        return None


#: the view of a run nothing observes, where every access is direct.
#: A view is ``(claimed, hooks, io)``, computed once per
#: :meth:`AvrCore.run`: the :class:`AccessKind` members some bus unit or
#: observer claims, whether the core has call hooks, and whether any I/O
#: device is mapped.  A block runs only under the view it was compiled for.
PLAIN = (frozenset(), False, False)


class _BlockWriter:
    """Renders one block: straight-line code over ``data``, one exit.

    An access of a kind the view claims, and a call hook when the view
    has hooks, is a *callout* in handler form (:func:`_callout`): its
    stalls add to the block's charge and the block ends after its
    instruction.  Other accesses read or write ``data`` directly; under
    a view with I/O devices they look up ``io_devices`` first, and a
    block exits after an instruction that reached a device.  Before a
    callout or device call, and on a bounds fault, the block publishes
    the ``pc``, ``cycles`` and ``instret`` that :meth:`AvrCore.step`
    shows the instruction's handler: PC past it, its cycles not
    charged, only the instructions before it retired."""

    def __init__(self, data_end, view):
        self.data_end = data_end
        self.plain = view == PLAIN
        self.claimed, self.hooks, self.io = view
        self.lines = []
        self.cycles = 0      # base cycles of the instructions added
        self.count = 0       # instructions added
        self.next = None     # word address after the current instruction
        self.skip = 0        # words the current instruction may skip
        self.base = 0        # base cycles of the current instruction
        self.stalls = False  # the current instruction made a callout
        self.device = False  # the current instruction may reach a device

    def retire(self, count):
        """The line charging *count* retired instructions in all (``i_``
        holds the count at entry, where a publish may have run)."""
        if self.plain:
            return "core.instret += {}".format(count)
        return "core.instret = i_ + {}".format(count)

    def publish(self):
        """Lines leaving the state ``step()`` shows a handler of the
        current instruction."""
        lines = ["core.pc = {}".format(self.next),
                 "core.cycles = cycles + {}".format(self.cycles)]
        return lines + [self.retire(self.count)] if self.count else lines

    def fault(self, addr):
        return ["if {} > {}:".format(addr, self.data_end),
                "    " + "; ".join(self.publish()),
                "    raise InvalidAccess({})".format(addr)]

    def direct(self, addr, write, value):
        """An unclaimed access: *value* written to, or the variable
        *value* read from, ``data[addr]`` after a bounds check, or the
        I/O device mapped there under a view with devices."""
        constant = _constant(addr)
        if constant is not None:
            if not 0 <= constant <= self.data_end:
                raise _Unblockable(addr)
            setup, at, check = [], str(constant), []
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
        if not self.io:
            return setup + check + [line]
        self.device = True
        return (setup + ["d_ = io_.get({})".format(at), "if d_ is None:"]
                + ["    " + x for x in check + [line]] + ["else:"]
                + ["    " + x for x in self.publish() + [device, "o_ = 1"]])

    def callout(self, lines):
        """A claimed access or a call hook, in handler form."""
        if self.stalls:
            return lines
        self.stalls = True
        return self.publish() + ["x_ = 0"] + lines

    def exit(self, pc, cycles):
        return ["core.pc = " + pc, "core.cycles = cycles + {}{}".format(
            cycles, " + x_" if self.stalls else "")]

    def render(self, line):
        if not line.startswith("@"):
            return [line]
        op, _, rest = line.partition(" ")
        if op in _ACCESSES:
            *args, kind = _args(rest, 3 if op in ("@load", "@store") else 2)
            if AccessKind[kind] in self.claimed:
                return self.callout(_callout(op, rest))
            if op == "@push":
                return (["sp_ = " + _SP] + self.direct("sp_", True, *args)
                        + ["sp_ = (sp_ - 1) & 0xFFFF"] + _SET_SP)
            if op == "@pop":
                return (["sp_ = (({}) + 1) & 0xFFFF".format(_SP)] + _SET_SP
                        + self.direct("sp_", False, *args))
            if op == "@load":
                return self.direct(args[1], False, args[0])
            return self.direct(args[0], True, args[1])
        if op == "@hook":
            return self.callout(_callout(op, rest)) if self.hooks else []
        if op == "@emit":
            return []
        total = self.cycles + self.base
        if op == "@goto":
            return self.exit(rest, total)
        if op == "@goto_if":
            cond, target, cost = _args(rest, 3)
            cost = int(cost)
        else:
            cond, target, cost = rest, str(int(self.next) + self.skip), \
                self.skip
        return (["if {}:".format(cond)]
                + ["    " + x for x in self.exit(target, total + cost)]
                + ["else:"]
                + ["    " + x for x in self.exit(self.next, total)])

    def add(self, pc, instr, skip):
        """Append one instruction; raises :class:`_Unblockable` (and
        appends nothing) when the block cannot hold it."""
        self.next = str(pc + instr.size_words)
        self.skip = skip
        self.base = instr.spec.cycles
        names = dict(_ADDRS, next=self.next, **{
            op.letter: str(value)
            for op, value in zip(instr.spec.operands, instr.operands)})
        self.stalls = self.device = False
        lines = []
        for line in _LINES[instr.key]:
            lines += self.render(line.format(**names))
        if self.device and not self.stalls and CONTROL[instr.key] is None:
            # a device was reached: exit after this instruction
            lines += ["if o_:"] + ["    " + x for x in self.exit(
                self.next, self.cycles + self.base)
                + [self.retire(self.count + 1), "return"]]
        self.lines += lines
        self.cycles += self.base
        self.count += 1


#: compiled blocks shared by every core in the process, so that a
#: restore, a replay or a rebuilt node compiles nothing again:
#: ``(start word, data_end, view, flash words the block read) -> block``
_CACHE = {}
#: ``(start word, data_end, view) -> lengths of the cached blocks there``
_SPANS = {}
#: bound on the cache; a full cache is dropped and refilled
_CACHE_MAX = 1024


def cached_block(flash, pc, data_end, view):
    """A block this process compiled at *pc* under *view* from the
    words now in *flash*, or None.  The words a block read and the view
    determine its code."""
    for length in _SPANS.get((pc, data_end, view), ()):
        block = _CACHE.get(
            (pc, data_end, view, tuple(flash[pc:pc + length])))
        if block is not None:
            return block
    return None


def compile_block(flash, body, data_end, view):
    """Compile *body*, a run of ``(pc, decoded instr, skip words)``
    entries read from *flash*, all with templates, in which only the
    last may transfer control, for a run under *view*; an entry a block
    cannot hold ends it early, and an entry with a callout ends it
    after that entry.

    Returns ``(function, cycles before the last instruction, last
    instruction's word address, end word)``, where ``end`` is one past
    the last flash word the block read (the skipped instruction of a
    final skip included), or None when no entry fits.  The function
    takes ``(core, data, cycles)``, runs the block and charges its
    cycles, PC and retired instructions to *core*."""
    writer = _BlockWriter(data_end, view)
    last = end = key = None
    prefix = 0
    for pc, instr, skip in body:
        before = writer.cycles
        try:
            writer.add(pc, instr, skip)
        except _Unblockable:
            writer.stalls = False  # the block ends before this entry
            break
        prefix, last, key = before, pc, instr.key
        end = pc + instr.size_words + skip
        if writer.stalls:
            break  # a callout ends its block
    if last is None:
        return None
    lines = writer.lines
    if CONTROL[key] is None:
        lines += writer.exit(str(end), writer.cycles)
    lines.append(writer.retire(writer.count))
    head = [] if writer.plain else ["i_ = core.instret"]
    if writer.io:
        head += ["io_ = core.memory.io_devices", "o_ = 0"]
    source = "def block(core, data, cycles):\n" + "\n".join(
        "    " + line for line in head + lines)
    namespace = {"InvalidAccess": InvalidAccess, "NVSZ": NVSZ,
                 "AccessKind": AccessKind}
    exec(compile(source, "<avr block>", "exec"), namespace)
    start = body[0][0]
    block = (namespace["block"], prefix, last, end)
    if len(_CACHE) >= _CACHE_MAX:
        _CACHE.clear()
        _SPANS.clear()
    _CACHE[(start, data_end, view, tuple(flash[start:end]))] = block
    _SPANS.setdefault((start, data_end, view), set()).add(end - start)
    return block
