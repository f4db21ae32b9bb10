"""Symbolic block semantics for decoded AVR instruction sequences.

``summarize`` evaluates a straight-line block of decoded instructions
symbolically and returns a :class:`BlockSummary`: for every register and
SREG flag an expression over the *initial* block state, an ordered log
of memory writes, the set of memory reads, a cycle count (base cycles
plus per-edge conditional extras) and how the block ends.

The instruction semantics are not written here: each opcode runs its
template from :mod:`repro.sim.semantics`, the same text the interpreter
handlers and the compiled regions are rendered from, compiled a third
time by :func:`repro.sim.semantics.make_symbolic`.  Ordinary template
lines run verbatim over :class:`_Val`, whose Python operators build
:class:`Expr` nodes; ``data`` holds r0-r31 and SREG (kept as eight flag
expressions) and every pseudo-op is a method of the evaluator state
(:class:`_State`).  The expression language is tiny — leaves are the
initial registers/flags/SP plus memory and flash reads, interior nodes
are the Python operators the templates use plus ``NVSZ`` — and every
node folds to a Python ``int`` when its operands are constants, so
summaries stay small and structurally canonical.

Two consumers build on the summaries:

* the differentials (tests/test_symexec.py, tests/test_symexec_keys.py)
  evaluate a summary against a captured pre-state and assert the
  resulting register file / SREG / memory image / cycle count matches
  concrete ``step()`` execution;
* the translation validator (:mod:`repro.analysis.static.transval`)
  compares the *module-visible effect* of a source block against its
  rewritten counterpart, with the Harbor store stubs applied as atomic
  call models (:class:`CallModel`).

Model boundary (documented, checked where cheap): data-space accesses
with a *constant* target in the register file (below 0x20) or at the
SP/SREG bytes — which the concrete core aliases into ``memory.data``
but the model tracks separately — are rejected as unsupported;
symbolic store/load targets are assumed to stay in SRAM proper,
exactly the addresses the Harbor store rule sanctions.  ``in``/``out``
on SREG and ``in`` on SPL/SPH are modelled precisely; writing SP
directly, ``elpm`` (RAMPZ), indirect control (``ijmp``/``icall``) and a
call with no call model are out of model and classify a block as
untranslatable.
"""

import operator
from types import SimpleNamespace

from repro.analysis.static.cfg import static_target
from repro.isa.opcodes import SPEC_BY_KEY, STORE_KEYS
from repro.sim.events import AccessKind
from repro.sim.semantics import NVSZ, make_symbolic

__all__ = [
    "BlockSummary",
    "CallModel",
    "ConcreteEnv",
    "Evaluator",
    "Expr",
    "ModuleEffect",
    "Outcome",
    "UnsupportedInstruction",
    "block_effect",
    "classify_lines",
    "CLASS_PURE",
    "CLASS_TRANSLATABLE",
    "CLASS_UNTRANSLATABLE",
    "effects_equal",
    "image_after",
    "run_summary",
    "summarize",
]

_SREG_ADDR = 0x5F
_SPL_ADDR = 0x5D
_SPH_ADDR = 0x5E


class UnsupportedInstruction(Exception):
    """The symbolic evaluator cannot model this instruction."""

    def __init__(self, byte_addr, key, reason):
        super().__init__("{} at 0x{:04X}: {}".format(key, byte_addr, reason))
        self.byte_addr = byte_addr
        self.key = key
        self.reason = reason


# ---------------------------------------------------------------------
# expression language
# ---------------------------------------------------------------------
# Every op is a total function over Python ints with the templates'
# meaning (unbounded ints, so ``~`` and ``-`` may go negative), so
# constant folding and concrete evaluation share one table.
_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": operator.lshift,
    "shr": operator.rshift,
    "inv": operator.invert,
    "neg": operator.neg,
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
    "nvsz": NVSZ.__getitem__,
    "bit": lambda a, b: (a >> b) & 1,
    "pack8": lambda *bits: sum(b << i for i, b in enumerate(bits)),
    # a stack address: initial SP plus the block's net push/pop offset
    "add16": lambda a, b: (a + b) & 0xFFFF,
}

#: the bits a node of these kinds can have set, whatever its operands
_FIXED_BITS = {"reg0": 0xFF, "mem": 0xFF, "flash": 0xFF, "flag0": 1,
               "sp0": 0xFFFF, "add16": 0xFFFF, "eq": 1, "ne": 1, "bit": 1,
               "nvsz": 0x1E, "pack8": 0xFF}


def _bits(x):
    """A mask of the bits *x* can have set, or None when it may be
    negative or its bits are not tracked."""
    if x.__class__ is int:
        return x if x >= 0 else None
    return x.bits


def _bits_of(name, args):
    fixed = _FIXED_BITS.get(name)
    if fixed is not None:
        return fixed
    known = [_bits(a) for a in args]
    if name == "and":
        masks = [k for k in known if k is not None]
        return masks[0] & masks[-1] if masks else None
    if None in known:
        return None
    if name in ("or", "xor"):
        return known[0] | known[1]
    if name == "shl" and args[1].__class__ is int:
        return known[0] << args[1]
    if name == "shr":
        return known[0] >> args[1] if args[1].__class__ is int else known[0]
    if name == "add":
        return (1 << (known[0] + known[1]).bit_length()) - 1
    if name == "mul":
        return (1 << (known[0] * known[1]).bit_length()) - 1
    return None


class Expr(object):
    """An interior or leaf node; structurally hashable/comparable.

    Leaves: ``reg0(n)``, ``flag0(bit)``, ``sp0()`` — the initial block
    state — plus ``mem(addr, index)`` (data-space read after the first
    *index* entries of the write log) and ``flash(addr)``.  Interior
    nodes name an entry of ``_OPS``.  Operands are ``Expr`` or ``int``.
    """

    __slots__ = ("name", "args", "bits", "_key", "_hash")

    def __init__(self, name, args):
        self.name = name
        self.args = args
        self.bits = _bits_of(name, args)
        # operands hash by their cached hash, so building a node costs
        # O(operands), not O(tree)
        self._key = (name,) + tuple(args)
        self._hash = hash(self._key)

    def __eq__(self, other):
        if isinstance(other, Expr):
            return self is other or (self._hash == other._hash
                                     and self._key == other._key)
        return NotImplemented

    def __ne__(self, other):
        if isinstance(other, Expr):
            return not self.__eq__(other)
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.name in ("reg0", "flag0"):
            return "{}{}".format("r" if self.name == "reg0" else "f",
                                 self.args[0])
        if self.name == "sp0":
            return "sp0"
        return "{}({})".format(
            self.name, ", ".join(repr(a) for a in self.args))


_REG0 = tuple(Expr("reg0", (n,)) for n in range(32))
_FLAG0 = tuple(Expr("flag0", (b,)) for b in range(8))
_SP0 = Expr("sp0", ())
#: ops whose zero right operand (or, for the commutative ones, left
#: operand) leaves the other operand
_ZERO_RIGHT = frozenset(("add", "sub", "or", "xor", "shl", "shr", "add16"))
_ZERO_LEFT = frozenset(("add", "or", "xor"))


def _op(name, *args):
    """Smart constructor: folds constants and the identities that keep
    summaries small and canonical — a zero operand, a mask that keeps
    every bit its operand can have, SREG bits read back."""
    if name == "bit":
        return _bit(*args)
    if all(a.__class__ is int for a in args):
        return _OPS[name](*args)
    if len(args) == 2:
        a, b = args
        if b.__class__ is int and b == 0 and name in _ZERO_RIGHT:
            return a
        if a.__class__ is int and a == 0 and name in _ZERO_LEFT:
            return b
        if name in ("and", "or") and (a.__class__ is int
                                      or b.__class__ is int):
            x, m = (b, a) if a.__class__ is int else (a, b)
            return _mask(x, m) if name == "and" else _set(x, m)
    return Expr(name, args)


def _mask(x, m):
    """``x & m`` for a constant *m*."""
    bits = x.bits
    if bits is not None:
        if bits & m == 0:
            return 0
        if bits & ~m == 0:
            return x
    if x.name == "and" and x.args[1].__class__ is int:
        return _mask(x.args[0], x.args[1] & m)
    if x.name == "or":
        return _op("or", _op("and", x.args[0], m), _op("and", x.args[1], m))
    if m == 1:
        return _bit(x, 0)
    return Expr("and", (x, m))


def _set(x, m):
    """``x | m`` for a constant *m*."""
    bits = x.bits
    if bits is not None and bits & ~m == 0:
        return m
    return Expr("or", (x, m))


def _bit(x, k):
    """Bit *k* (0/1) of *x*, pushed through the bitwise ops so that an
    SREG byte written by a template splits into per-flag expressions."""
    if x.__class__ is int:
        return (x >> k) & 1
    bits = x.bits
    if bits is not None:
        if not (bits >> k) & 1:
            return 0
        if bits == 1:
            return x
    name, args = x.name, x.args
    if name == "pack8":
        return args[k]
    if name in ("and", "or", "xor"):
        return _op(name, _bit(args[0], k), _bit(args[1], k))
    if name in ("shl", "shr") and args[1].__class__ is int:
        k += args[1] if name == "shr" else -args[1]
        return _bit(args[0], k) if k >= 0 else 0
    if name == "nvsz":
        # NVSZ[res | V << 8]: Z = (res == 0), N = res bit 7, S = N ^ V
        index = args[0]
        if k == 1:
            return _op("eq", _op("and", index, 0xFF), 0)
        if k == 4:
            return _op("xor", _bit(index, 7), _bit(index, 8))
        return _bit(index, 7 if k == 2 else 8)
    return Expr("bit", (x, k))


def _sp_slot(addr):
    """Stack-slot offset (relative to initial SP) if *addr* is
    structurally a stack address, else None."""
    if isinstance(addr, Expr):
        if addr.name == "sp0":
            return 0
        if (addr.name == "add16" and isinstance(addr.args[1], int)
                and isinstance(addr.args[0], Expr)
                and addr.args[0].name == "sp0"):
            return addr.args[1]
    return None


def _sp_addr(off):
    return _SP0 if off == 0 else Expr("add16", (_SP0, off))


class _Write(object):
    __slots__ = ("addr", "value", "kind")

    def __init__(self, addr, value, kind):
        self.addr = addr
        self.value = value
        self.kind = kind      # "data" | "stack" | "io"

    def __repr__(self):
        return "[{!r}] <- {!r} ({})".format(self.addr, self.value,
                                            self.kind)


class CallModel(object):
    """Atomic effect model for a ``call`` target inside a block.

    A Harbor store stub stands for the store template *key* of the
    addressing mode it checks, with the stored value in r18 and, for a
    displaced mode, the displacement in r19: it performs exactly that
    store (pointer bump included) and preserves every other register
    and SREG.  Its own frame is balanced, so it is SP-neutral from the
    caller's perspective (the ``call``'s return push is consumed by the
    stub's ``ret`` and is not logged).  *cycles* is charged on top of
    the ``call``.  A stub with *key* None stores nothing a module sees
    and preserves every register and SREG (``hb_save_ret``,
    ``hb_restore_ret``); only the abstract interpreter applies it.
    """

    __slots__ = ("name", "key", "cycles")

    def __init__(self, name, key, cycles=0):
        self.name = name
        self.key = key
        self.cycles = cycles

    @property
    def store(self):
        """Whether the model stands for a store template."""
        return self.key in STORE_KEYS

    @property
    def delta(self):
        """The pointer bump of the store: +1, -1 or 0."""
        modes = SPEC_BY_KEY[self.key].modes
        return 1 if modes.get("post_inc") else -1 if modes.get("pre_dec") \
            else 0


class BlockSummary(object):
    """Symbolic effect of one straight-line instruction sequence."""

    def __init__(self, lines):
        self.lines = list(lines)
        self.regs = list(_REG0)
        self.flags = list(_FLAG0)
        self.sp_off = 0
        self.writes = []          # ordered [_Write]
        self.reads = []           # [(kind, addr expr)]
        self.base_cycles = 0
        self.extras = []          # [(cond 0/1 expr, extra cycles)]
        self.stub_calls = []      # [CallModel names, in order]
        self.terminator = None    # final Line when it transfers control
        #: how the terminator leaves: "jump", "branch", "skip",
        #: "return" or "halt"
        self.exit = None

    @property
    def start(self):
        return self.lines[0].byte_addr if self.lines else None


# ---------------------------------------------------------------------
# evaluation against a concrete pre-state
# ---------------------------------------------------------------------
class ConcreteEnv(object):
    """A concrete block pre-state: registers, SREG, SP, a snapshot of
    data memory and a flash-byte reader."""

    def __init__(self, regs, sreg, sp, data, flash_byte=None):
        self.regs = regs
        self.sreg = sreg
        self.sp = sp
        self.data = data
        self.flash_byte = flash_byte or (lambda addr: 0)

    @classmethod
    def from_core(cls, core):
        data = bytes(core.memory.data)
        sp = data[_SPL_ADDR] | (data[_SPH_ADDR] << 8)
        return cls(regs=list(data[:32]), sreg=data[_SREG_ADDR], sp=sp,
                   data=data, flash_byte=core.memory.read_flash_byte)

    def mem(self, addr):
        return self.data[addr & 0xFFFF]


class Evaluator(object):
    """Evaluates expressions of one summary against a ConcreteEnv."""

    def __init__(self, env, writes):
        self.env = env
        self.writes = writes
        self._memo = {}

    def eval(self, x):
        if isinstance(x, int):
            return x
        memo = self._memo
        key = id(x)
        if key in memo:
            return memo[key]
        name = x.name
        env = self.env
        if name == "reg0":
            value = env.regs[x.args[0]]
        elif name == "flag0":
            value = (env.sreg >> x.args[0]) & 1
        elif name == "sp0":
            value = env.sp
        elif name == "flash":
            value = env.flash_byte(self.eval(x.args[0]))
        elif name == "mem":
            value = self._mem(x)
        else:
            value = _OPS[name](*[self.eval(a) for a in x.args])
        memo[key] = value
        return value

    def _mem(self, x):
        addr = self.eval(x.args[0]) & 0xFFFF
        index = x.args[1]
        for write in reversed(self.writes[:index]):
            if self.eval(write.addr) & 0xFFFF == addr:
                return self.eval(write.value) & 0xFF
        return self.env.mem(addr)


class Outcome(object):
    """Concrete post-state predicted by a summary for one pre-state."""

    def __init__(self, regs, sreg, sp, writes, cycles):
        self.regs = regs
        self.sreg = sreg
        self.sp = sp
        self.writes = writes       # [(addr, value, kind)] in order
        self.cycles = cycles


def run_summary(summary, env):
    """Evaluate *summary* against pre-state *env* -> :class:`Outcome`."""
    ev = Evaluator(env, summary.writes)
    regs = [ev.eval(x) & 0xFF for x in summary.regs]
    sreg = 0
    for b in range(8):
        if ev.eval(summary.flags[b]):
            sreg |= 1 << b
    sp = (env.sp + summary.sp_off) & 0xFFFF
    writes = [(ev.eval(w.addr) & 0xFFFF, ev.eval(w.value) & 0xFF, w.kind)
              for w in summary.writes]
    cycles = summary.base_cycles
    for cond, extra in summary.extras:
        if ev.eval(cond):
            cycles += extra
    return Outcome(regs, sreg, sp, writes, cycles)


def image_after(summary, env):
    """Predicted full data-memory image after the block: the captured
    pre-state image with the write log, final registers, SREG and SP
    applied.  Comparing this against ``bytes(core.memory.data)`` after
    concrete execution checks every architectural effect at once."""
    outcome = run_summary(summary, env)
    data = bytearray(env.data)
    for addr, value, _kind in outcome.writes:
        data[addr] = value
    data[0:32] = bytes(outcome.regs)
    data[_SREG_ADDR] = outcome.sreg
    data[_SPL_ADDR] = outcome.sp & 0xFF
    data[_SPH_ADDR] = outcome.sp >> 8
    return data


# ---------------------------------------------------------------------
# the templates, run symbolically
# ---------------------------------------------------------------------
def _x(value):
    return value.x if value.__class__ is _Val else value


class _Val(object):
    """A template value: its Python operators build :class:`Expr`
    nodes (``==``/``!=`` included, so it has no truth value)."""

    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def __eq__(self, other):
        return _Val(_op("eq", self.x, _x(other)))

    def __ne__(self, other):
        return _Val(_op("ne", self.x, _x(other)))

    def __invert__(self):
        return _Val(_op("inv", self.x))

    def __neg__(self):
        return _Val(_op("neg", self.x))

    def __bool__(self):
        raise TypeError("a symbolic value has no truth value")

    __hash__ = None


def _binary(name):
    return (lambda a, b: _Val(_op(name, a.x, _x(b))),
            lambda a, b: _Val(_op(name, _x(b), a.x)))


for _name, _dunder in (("add", "add"), ("sub", "sub"), ("mul", "mul"),
                       ("and", "and"), ("or", "or"), ("xor", "xor"),
                       ("shl", "lshift"), ("shr", "rshift")):
    _forward, _reflected = _binary(_name)
    setattr(_Val, "__{}__".format(_dunder), _forward)
    setattr(_Val, "__r{}__".format(_dunder), _reflected)


class _Nvsz(object):
    """``NVSZ`` for a template: the lookup is one ``nvsz`` node."""

    def __getitem__(self, index):
        return _Val(_op("nvsz", _x(index)))


class _Evaluators(dict):
    """Template key -> its symbolic evaluator ``(state, instr)``,
    compiled on first use."""

    def __missing__(self, key):
        run = self[key] = make_symbolic(key, _Nvsz())
        return run


_EXEC = _Evaluators()

#: access kind -> the summary's read/write log kind
_LOG_KIND = {AccessKind.DATA_LOAD: "data", AccessKind.DATA_STORE: "data",
             AccessKind.IO_READ: "io", AccessKind.IO_WRITE: "io",
             AccessKind.STACK_PUSH: "stack", AccessKind.STACK_POP: "stack",
             AccessKind.RET_PUSH: "stack", AccessKind.RET_POP: "stack"}

#: keys out of model whatever their operands (the RAMPZ reads of
#: ``elpm`` fail in :class:`_Data`)
_INDIRECT = frozenset(("ijmp", "icall"))
#: the store stubs' calling convention (:class:`CallModel`)
_STUB_VALUE, _STUB_DISP = 18, 19


class _Data(object):
    """``data`` for a template: r0-r31 and SREG.  Every other byte is
    reached through a pseudo-op, or is out of model."""

    __slots__ = ("state",)

    def __init__(self, state):
        self.state = state

    def __getitem__(self, addr):
        summary = self.state.s
        if addr.__class__ is int:
            if addr < 32:
                return _Val(summary.regs[addr])
            if addr == _SREG_ADDR:
                return _Val(_op("pack8", *summary.flags))
        raise self.state.unsupported(
            "data byte 0x{:02X} is out of the symbolic model".format(addr))

    def __setitem__(self, addr, value):
        summary = self.state.s
        if addr.__class__ is int:
            if addr < 32:
                summary.regs[addr] = _x(value)
                return
            if addr == _SREG_ADDR:
                value = _x(value)
                summary.flags = [_bit(value, b) for b in range(8)]
                return
        raise self.state.unsupported(
            "data byte 0x{:02X} is out of the symbolic model".format(addr))


class _State(object):
    """The symbolic ``core`` a template runs against: ``memory.data``
    is :class:`_Data`, ``memory.read_flash_byte`` a ``flash`` leaf,
    ``pc`` the word after the instruction, and each pseudo-op a
    method."""

    def __init__(self, summary, next_size_words):
        self.s = summary
        self.next_size_words = next_size_words
        self.memory = self
        self.data = _Data(self)
        self.pc = 0
        self.line = None

    def unsupported(self, reason):
        line = self.line
        return UnsupportedInstruction(line.byte_addr, line.instr.key,
                                      reason)

    def run(self, line):
        self.line = line
        instr = line.instr
        self.pc = line.byte_addr // 2 + instr.size_words
        _EXEC[instr.key](self, instr)

    def call(self, line, model):
        """Apply a stub's :class:`CallModel`: its store template over
        the stub's operands."""
        self.line = line
        operands = tuple(
            self.data[_STUB_DISP] if op.letter == "q" else _STUB_VALUE
            for op in SPEC_BY_KEY[model.key].operands)
        _EXEC[model.key](self, SimpleNamespace(operands=operands))
        self.s.base_cycles += model.cycles
        self.s.stub_calls.append(model.name)

    def _check_const(self, addr):
        # the concrete core aliases the register file and SP/SREG into
        # data space; the model keeps them separate, so constant
        # accesses there are out of model (symbolic targets are assumed
        # to stay in SRAM proper, as the Harbor store rule sanctions)
        if addr < 0x20 or addr in (_SPL_ADDR, _SPH_ADDR, _SREG_ADDR):
            raise self.unsupported(
                "constant data address 0x{:02X} aliases the register "
                "file / SP / SREG".format(addr))

    def _read(self, addr, kind):
        self.s.reads.append((kind, addr))
        return _Val(Expr("mem", (addr, len(self.s.writes))))

    def read_flash_byte(self, addr):
        addr = _x(addr)
        self.s.reads.append(("flash", addr))
        return _Val(Expr("flash", (addr,)))

    # -- the pseudo-ops ------------------------------------------------
    def load(self, addr, kind):
        addr = _x(addr)
        if kind is AccessKind.IO_READ and addr == _SREG_ADDR:
            return self.data[addr]
        if kind is AccessKind.IO_READ and addr in (_SPL_ADDR, _SPH_ADDR):
            sp = _Val(_sp_addr(self.s.sp_off))
            return sp & 0xFF if addr == _SPL_ADDR else sp >> 8
        if addr.__class__ is int:
            self._check_const(addr)
        return self._read(addr, _LOG_KIND[kind])

    def store(self, addr, value, kind):
        addr = _x(addr)
        if kind is AccessKind.IO_WRITE and addr == _SREG_ADDR:
            self.data[addr] = value
            return
        if kind is AccessKind.IO_WRITE and addr in (_SPL_ADDR, _SPH_ADDR):
            raise self.unsupported("writing SP is out of model")
        if addr.__class__ is int:
            self._check_const(addr)
        self.s.writes.append(_Write(addr, _x(value), _LOG_KIND[kind]))

    def push(self, value, _kind):
        s = self.s
        s.writes.append(_Write(_sp_addr(s.sp_off), _x(value), "stack"))
        s.sp_off -= 1

    def pop(self, _kind):
        self.s.sp_off += 1
        return self._read(_sp_addr(self.s.sp_off), "stack")

    def goto(self, target):
        # ijmp/icall never get here, so a computed target is a return
        self._exit("jump" if _x(target).__class__ is int else "return")

    def goto_if(self, cond, _target, cycles):
        self.s.extras.append((_x(cond), cycles))
        self._exit("branch")

    def skip_if(self, cond):
        self.s.extras.append((_x(cond), self.next_size_words))
        self._exit("skip")

    #: ``break`` sets it
    halted = property(None, lambda self, _value: self._exit("halt"))

    def _exit(self, kind):
        self.s.exit = kind
        self.s.terminator = self.line


def summarize(lines, call_models=None, next_size_words=1):
    """Symbolically evaluate a straight-line block.

    *lines* are disassembler ``Line`` objects (``.instr``,
    ``.byte_addr``, ``.words``).  Control-transfer instructions are
    only admitted as the final line (the block terminator); ``call``/
    ``rcall`` to a target present in *call_models* (byte address ->
    :class:`CallModel`) are applied atomically in the middle of the
    block.  *next_size_words* sizes the skip-cost edge of a trailing
    skip instruction.  Raises :class:`UnsupportedInstruction` for
    anything outside the model.
    """
    summary = BlockSummary(lines)
    state = _State(summary, next_size_words)
    models = call_models or {}
    last = len(summary.lines) - 1
    for index, line in enumerate(summary.lines):
        instr = line.instr
        if instr is None:
            raise UnsupportedInstruction(
                line.byte_addr, "?", "undecodable word")
        key = instr.key
        summary.base_cycles += instr.spec.cycles
        if key in ("call", "rcall"):
            model = models.get(static_target(line))
            if model is None:
                raise UnsupportedInstruction(
                    line.byte_addr, key, "call to unmodelled target")
            state.call(line, model)
            continue
        if key in _INDIRECT:
            raise UnsupportedInstruction(
                line.byte_addr, key, "indirect control transfer")
        state.run(line)
        if summary.exit is not None and index != last:
            raise UnsupportedInstruction(
                line.byte_addr, key,
                "control transfer inside a straight-line block")
    return summary


# ---------------------------------------------------------------------
# module-visible effects (translation validation)
# ---------------------------------------------------------------------
class ModuleEffect(object):
    """A summary normalized to what the rest of the image can observe:
    changed registers/flags, the ordered non-stack write log and the
    net SP movement.  Stack-slot reads are resolved structurally
    against the block's own pushes (sanctioned no-alias: a checked or
    proven store can never target the protected stack region), and
    scratch writes at or below the initial SP are dropped once the
    block has restored SP — the Harbor frame discipline makes that
    space dead."""

    def __init__(self, regs, flags, writes, sp_off):
        self.regs = regs          # {n: expr}
        self.flags = flags        # {bit: expr}
        self.writes = writes      # [(addr expr, value expr)]
        self.sp_off = sp_off


def _resolve_stack(x, writes, memo):
    if isinstance(x, int):
        return x
    key = id(x)
    if key in memo:
        return memo[key]
    if x.name == "mem":
        off = _sp_slot(x.args[0])
        if off is not None:
            for write in reversed(writes[:x.args[1]]):
                if _sp_slot(write.addr) == off:
                    value = _resolve_stack(write.value, writes, memo)
                    memo[key] = value
                    return value
            value = Expr("mem", (x.args[0], 0))
            memo[key] = value
            return value
        addr = _resolve_stack(x.args[0], writes, memo)
        value = Expr("mem", (addr, x.args[1]))
        memo[key] = value
        return value
    args = tuple(_resolve_stack(a, writes, memo) for a in x.args)
    value = _op(x.name, *args) if x.name in _OPS else Expr(x.name, args)
    memo[key] = value
    return value


def block_effect(summary):
    """The module-visible :class:`ModuleEffect` of a summary."""
    memo = {}
    writes = summary.writes
    regs = {}
    for n in range(32):
        resolved = _resolve_stack(summary.regs[n], writes, memo)
        if resolved != _REG0[n]:
            regs[n] = resolved
    flags = {}
    for b in range(8):
        resolved = _resolve_stack(summary.flags[b], writes, memo)
        if resolved != _FLAG0[b]:
            flags[b] = resolved
    visible = []
    for write in writes:
        off = _sp_slot(write.addr)
        if off is not None and off <= 0 and summary.sp_off == 0:
            continue        # dead scratch below the restored SP
        visible.append((_resolve_stack(write.addr, writes, memo),
                        _resolve_stack(write.value, writes, memo)))
    return ModuleEffect(regs, flags, visible, summary.sp_off)


def effects_equal(a, b):
    """Structural equality of two module-visible effects.

    Returns ``(True, None)`` or ``(False, reason)``.
    """
    if a.sp_off != b.sp_off:
        return False, "net SP movement differs ({} vs {})".format(
            a.sp_off, b.sp_off)
    for n in sorted(set(a.regs) | set(b.regs)):
        if a.regs.get(n, _REG0[n]) != b.regs.get(n, _REG0[n]):
            return False, "r{} differs: {!r} vs {!r}".format(
                n, a.regs.get(n, _REG0[n]), b.regs.get(n, _REG0[n]))
    for b_ in sorted(set(a.flags) | set(b.flags)):
        if a.flags.get(b_, _FLAG0[b_]) != b.flags.get(b_, _FLAG0[b_]):
            return False, "SREG bit {} differs".format(b_)
    if len(a.writes) != len(b.writes):
        return False, "write counts differ ({} vs {})".format(
            len(a.writes), len(b.writes))
    for i, ((aa, av), (ba, bv)) in enumerate(zip(a.writes, b.writes)):
        if aa != ba:
            return False, "write {} address differs: {!r} vs {!r}".format(
                i, aa, ba)
        if av != bv:
            return False, "write {} value differs: {!r} vs {!r}".format(
                i, av, bv)
    return True, None


# ---------------------------------------------------------------------
# JIT-readiness classification
# ---------------------------------------------------------------------
CLASS_PURE = "pure"
CLASS_TRANSLATABLE = "translatable"
CLASS_UNTRANSLATABLE = "untranslatable"


def classify_lines(lines):
    """Classify a basic block for the block JIT.

    Returns ``(cls, reason, byte_addr)`` where *cls* is one of
    :data:`CLASS_PURE` (register/SREG-only effect — the JIT can
    translate with no memory glue), :data:`CLASS_TRANSLATABLE` (fully
    summarizable, possibly with memory traffic and calls treated as
    block-internal control points) or :data:`CLASS_UNTRANSLATABLE`
    (contains an instruction the symbolic model rejects); *reason* and
    *byte_addr* locate the rejection for HL018 reporting.
    """
    runs = [[]]
    for line in lines:
        instr = line.instr
        if instr is not None and instr.key in ("call", "rcall"):
            # a call is a block-internal control point: the JIT re-
            # enters the interpreter, so summarization restarts after
            if runs[-1]:
                runs.append([])
            continue
        runs[-1].append(line)
    has_call = len(runs) > 1 or any(
        line.instr is not None and line.instr.key in ("call", "rcall")
        for line in lines)
    summaries = []
    try:
        for run in runs:
            if run:
                summaries.append(summarize(run))
    except UnsupportedInstruction as exc:
        return CLASS_UNTRANSLATABLE, exc.reason, exc.byte_addr
    if (not has_call and len(summaries) <= 1
            and all(not s.writes and not s.reads and s.sp_off == 0
                    and s.exit in (None, "jump", "branch")
                    for s in summaries)):
        return CLASS_PURE, None, None
    return CLASS_TRANSLATABLE, None, None
