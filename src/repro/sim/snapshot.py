"""Machine snapshot/restore: record-replay for the simulator.

A :class:`MachineSnapshot` is a deep copy of everything that defines a
machine's architectural state: the unified data space (registers, I/O,
SRAM), flash, and the core's PC/cycle/instret/halted fields.  Machines
with extra architectural state beyond the memory arrays (the UMPU
register file, the domain tracker's call-depth bookkeeping, the
safe-stack unit's counters) contribute it through the
``Machine._snapshot_extra()`` / ``_restore_extra()`` hooks, and the
system harnesses (:class:`~repro.sfi.protected.ProtectedSystem` and its
back-ends) layer their loader/linker state on top via the snapshot's
``system`` slot.

Guarantees (pinned by ``tests/test_soundness.py``):

* ``restore(snapshot(m))`` followed by N steps is state- and
  write-log-identical to running the N steps directly, on both the
  instrumented ``step()`` path and the threaded-dispatch fast loop;
* restore tells every flash listener that all of flash changed, so a
  snapshot taken before a flash write can never replay stale decodes
  or leave a recorder with stale flash; ``Machine.restore`` (and the
  timeline's seeks) tell them only when the snapshot's flash differs
  from live flash, so restoring the same image keeps the decodes and
  compiled regions;
* observers (trace sinks, profilers, debuggers, metrics) are *not*
  part of the snapshot — they are measurement equipment, not machine
  state, and survive a restore unchanged.

The fuzzer (:mod:`repro.soundness`) leans on this: one expensive system
construction (runtime assembly, boot), then thousands of candidate
modules each explored from the same restored post-boot state.
"""

#: snapshot format version (bump on incompatible changes)
SNAPSHOT_SCHEMA = 1


class MachineSnapshot:
    """Immutable-by-convention copy of a machine's architectural state."""

    __slots__ = ("data", "flash", "pc", "cycles", "instret", "halted",
                 "extra", "system")

    def __init__(self, data, flash, pc, cycles, instret, halted,
                 extra=None, system=None):
        self.data = data          # bytes: full data space
        self.flash = flash        # tuple of flash words
        self.pc = pc              # word address
        self.cycles = cycles
        self.instret = instret
        self.halted = halted
        #: machine-subclass state (UMPU registers, tracker, safe stack)
        self.extra = extra or {}
        #: system-harness state (loader bookkeeping, linker exports)
        self.system = system

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, machine):
        core = machine.core
        return cls(data=bytes(machine.memory.data),
                   flash=tuple(machine.memory.flash),
                   pc=core.pc, cycles=core.cycles, instret=core.instret,
                   halted=core.halted,
                   extra=machine._snapshot_extra())

    # ------------------------------------------------------------------
    @classmethod
    def capture_system(cls, system):
        """Capture a system harness (machine + loader/linker state).

        The loader state (``modules`` / ``_next_load`` /
        ``_next_domain`` / ``_free_domains`` and the
        :class:`~repro.sos.linker.CrossDomainLinker`) belongs to
        :class:`~repro.sfi.protected.ProtectedSystem`, so this covers
        both back-ends, :class:`~repro.sfi.system.SfiSystem` and
        :class:`~repro.umpu.system.UmpuSystem`.  Module/export records
        are treated as immutable and shared, not copied.
        """
        snap = cls.capture(system.machine)
        linker = system.linker
        snap.system = {
            "modules": dict(system.modules),
            "next_load": system._next_load,
            "next_domain": system._next_domain,
            "free_domains": list(system._free_domains),
            "linker_exports": dict(linker._exports),
            "linker_by_name": dict(linker._by_name),
        }
        return snap

    def apply_system(self, system):
        if self.system is None:
            raise ValueError("not a system snapshot (use Machine.restore)")
        self.apply(system.machine)
        state = self.system
        system.modules = dict(state["modules"])
        system._next_load = state["next_load"]
        system._next_domain = state["next_domain"]
        system._free_domains = list(state["free_domains"])
        linker = system.linker
        linker._exports = dict(state["linker_exports"])
        linker._by_name = dict(state["linker_by_name"])
        return system

    def apply(self, machine):
        """Put *machine* in this state.  Restoring the image flash
        already holds keeps every decode and compiled region."""
        mem = machine.memory
        mem.data[:] = self.data
        mem.replace_flash(self.flash)
        core = machine.core
        core.pc = self.pc
        core.cycles = self.cycles
        core.instret = self.instret
        core.halted = self.halted
        machine._restore_extra(self.extra)
        return machine
