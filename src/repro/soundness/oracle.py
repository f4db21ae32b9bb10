"""Write oracle: differential validation of every landed store.

The oracle is a bus interposer appended *after* the protection units,
which makes its position semantically meaningful:

* a write the hardware MMC vetoes raises before reaching the oracle, so
  the oracle's log contains exactly the writes that **landed**;
* a passing checked store still traverses the oracle (the MMC's
  verdict is a stall, not a claim), as does every unchecked write;
* the safe-stack unit's redirected ``RET_PUSH`` bytes are claimed
  before the oracle sees them — safe-stack traffic is trusted hardware
  state, not module-observable memory.

Every landed write is replayed against the golden store-permission
model (:class:`~repro.core.checker.WriteChecker`, the reference both
enforcement paths are unit-tested against).  A landed write that the
golden model rejects is an **escape**: the enforcement layer admitted a
store the model forbids.

Scope per system:

* **UMPU** (:class:`UmpuWriteOracle`): purely domain-based.  The
  hardware checks every ``DATA_STORE``/``STACK_PUSH`` by an untrusted
  domain no matter where the code lives, so any such write reaching
  the oracle that the model rejects is an escape.
* **SFI** (:class:`SfiWriteOracle`): PC-based.  The software runtime's
  check stubs execute with the *module's* ``cur_dom`` but are trusted
  code — they legitimately update bookkeeping (trusted cells, the
  safe stack, memory-map entries, heap headers) that the golden model
  would reject for the module itself.  The invariant under test is "a
  verified+linted module never writes outside its domain", so the
  oracle checks writes whose PC lies inside a loaded module's code
  span: elided raw stores, smuggled store encodings, module pushes and
  module ``out`` instructions.  (Stub-vs-golden-model equivalence is
  pinned separately by the checker unit tests.)

The oracle's log doubles as the write-log for fast-loop vs ``step()``
differential comparison: bus interposers do not affect the core's
run-loop selection, so the same oracle observes both paths.
"""

from repro.core.checker import CheckContext, WriteChecker
from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import ProtectionFault
from repro.sim.bus import BusInterposer
from repro.sim.events import AccessKind
from repro.umpu.mmc import MemMapController


class EscapeRecord:
    """One landed write the golden model rejects."""

    __slots__ = ("pc", "addr", "value", "kind", "domain", "rule")

    def __init__(self, pc, addr, value, kind, domain, rule):
        self.pc = pc            # flash byte address of the storing instr
        self.addr = addr
        self.value = value
        self.kind = kind        # AccessKind name
        self.domain = domain
        self.rule = rule        # golden-model fault class name / reason

    def to_dict(self):
        return {"pc": self.pc, "addr": self.addr, "value": self.value,
                "kind": self.kind, "domain": self.domain,
                "rule": self.rule}

    def __repr__(self):
        return ("EscapeRecord(pc=0x{:05x}, addr=0x{:04x}, kind={}, "
                "domain={}, rule={})".format(self.pc, self.addr,
                                             self.kind, self.domain,
                                             self.rule))


class WriteOracle(BusInterposer):
    """Base oracle: logs every landed write, collects escapes.

    Subclasses implement :meth:`_check` to decide whether a write is in
    scope and whether the golden model admits it.
    """

    name = "write-oracle"
    #: the oracle only logs writes
    kinds = frozenset(kind for kind in AccessKind if kind.is_write)

    def __init__(self):
        #: (pc_byte, addr, value, kind_name, domain) per landed write
        self.log = []
        self.escapes = []

    def clear(self):
        self.log = []
        self.escapes = []

    # ------------------------------------------------------------------
    def on_write(self, bus, addr, value, kind):
        pc = self._pc_byte()
        domain = self._domain()
        self.log.append((pc, addr, value & 0xFF, kind.name, domain))
        if domain != TRUSTED_DOMAIN:
            rule = self._check(pc, addr, kind, domain)
            if rule is not None:
                self.escapes.append(EscapeRecord(
                    pc, addr, value & 0xFF, kind.name, domain, rule))
        return None

    # ------------------------------------------------------------------
    def _golden_reject(self, addr, domain):
        """Run the golden model; the fault class name on rejection,
        None when the store is admissible."""
        checker = WriteChecker(CheckContext(
            self._memmap(), domain, self._stack_bound()))
        try:
            checker.check(addr, domain)
            return None
        except ProtectionFault as fault:
            return type(fault).__name__

    # --- subclass interface -------------------------------------------
    def _pc_byte(self):
        raise NotImplementedError

    def _domain(self):
        raise NotImplementedError

    def _memmap(self):
        raise NotImplementedError

    def _stack_bound(self):
        raise NotImplementedError

    def _check(self, pc, addr, kind, domain):
        """Return an escape reason, or None if the write is fine."""
        raise NotImplementedError


class SfiWriteOracle(WriteOracle):
    """Oracle for the software-only system: module-PC writes only."""

    def __init__(self, system, allowed_io=()):
        super().__init__()
        self.system = system
        self.layout = system.layout
        self.allowed_io = frozenset(allowed_io)

    def _pc_byte(self):
        return self.system.machine.core.pc * 2

    def _domain(self):
        return self.system.machine.memory.data[self.layout.cur_dom]

    def _memmap(self):
        return self.system.memmap

    def _stack_bound(self):
        mem = self.system.machine.memory
        cell = self.layout.stack_bound
        return mem.data[cell] | (mem.data[cell + 1] << 8)

    def _in_module(self, pc):
        for module in self.system.modules.values():
            if module.start <= pc < module.end:
                return True
        return False

    def _check(self, pc, addr, kind, domain):
        if not self._in_module(pc):
            return None             # trusted runtime/jump-table code
        if kind is AccessKind.IO_WRITE:
            io_addr = addr - 0x20
            if io_addr in self.allowed_io:
                return None
            return "ForbiddenIoWrite"
        return self._golden_reject(addr, domain)


class UmpuWriteOracle(WriteOracle):
    """Oracle for the hardware system: every untrusted checked-kind
    write must satisfy the golden model, no PC exemptions."""

    def __init__(self, machine):
        super().__init__()
        self.machine = machine

    def _pc_byte(self):
        return self.machine.core.pc * 2

    def _domain(self):
        return self.machine.regs.cur_domain

    def _memmap(self):
        return self.machine.memmap

    def _stack_bound(self):
        return self.machine.regs.stack_bound

    def _check(self, pc, addr, kind, domain):
        if kind not in MemMapController.kinds:
            return None
        if not self.machine.regs.enabled:
            return None             # protection explicitly disabled
        return self._golden_reject(addr, domain)
