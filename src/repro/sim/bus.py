"""Data-memory bus with functional-unit interposers.

The paper's hardware units sit between the CPU and the data memory
(Figure "Memory Map Controller (MMC)"): the MMC *"intercepts the signals
generated by the CPU for writing into the data memory"*, the safe-stack
unit *"takes over the address bus when the processor is pushing the
return address"*.  :class:`DataBus` is that attachment point: every
data-space transaction flows through it, and registered interposers may
observe the access, veto it (raising a protection fault), redirect it to
a different address, charge stall cycles, or handle it entirely.
"""

from dataclasses import dataclass

from repro.sim.events import AccessKind
from repro.trace.events import TraceEventKind


@dataclass
class WriteAction:
    """An interposer's verdict on a write transaction.

    ``redirect`` replaces the target address; ``handled`` means the
    interposer performed (or absorbed) the write itself and the bus must
    not touch memory; ``extra_cycles`` models pipeline stalls the unit
    inserts (the MMC's one-cycle bus-steal).
    """

    redirect: int = None
    handled: bool = False
    extra_cycles: int = 0


@dataclass
class ReadAction:
    """An interposer's verdict on a read transaction."""

    redirect: int = None
    value: int = None  # a fully handled read supplies the value
    extra_cycles: int = 0


class BusInterposer:
    """Base class for bus functional units; default is pass-through.

    ``kinds`` declares the :class:`AccessKind` members the unit may act
    on: its ``on_write``/``on_read`` must return None and change
    nothing (no counter, register or memory byte) for every other kind.
    ``None``, the default, claims every kind.  The declaration is what
    lets the core's compiled blocks call out to the bus only for the
    transactions some unit claims (``docs/performance.md``), so a unit
    that claims too little is unsound; one that claims too much is
    only slower.

    ``fragments`` may map each claimed kind to the source of the unit's
    common case, which compiled blocks render in place of the callout
    (:mod:`repro.sim.semantics` has the format).  ``None``, the
    default, keeps every claimed transaction a callout.
    """

    name = "interposer"
    kinds = None
    fragments = None

    def on_write(self, bus, addr, value, kind):
        """Return a :class:`WriteAction` or None (pass through).

        May raise a protection fault to veto the access.
        """
        return None

    def on_read(self, bus, addr, kind):
        """Return a :class:`ReadAction` or None (pass through)."""
        return None


class DataBus:
    """The data-memory bus: memory + ordered interposer chain."""

    def __init__(self, memory):
        self.memory = memory
        self.interposers = []
        self.cycle_hook = None  # callable returning current CPU cycle
        #: optional repro.trace.TraceSink; interposers read it off the
        #: bus at emission time (they receive the bus on every call)
        self.trace = None
        #: optional repro.trace.DomainProfiler for stall attribution
        self.profiler = None
        #: optional repro.trace.metrics.MetricsRegistry; interposers
        #: (MMC, safe-stack unit) read it off the bus at emission time
        self.metrics = None

    def add_interposer(self, unit):
        self.interposers.append(unit)
        return unit

    def remove_interposer(self, unit):
        self.interposers.remove(unit)

    def _now(self):
        return self.cycle_hook() if self.cycle_hook else 0

    # ------------------------------------------------------------------
    def write(self, addr, value, kind=AccessKind.DATA_STORE):
        """Run a write transaction; returns stall cycles added by units."""
        extra = 0
        target = addr
        handled = False
        for unit in self.interposers:
            action = unit.on_write(self, target, value, kind)
            if action is None:
                continue
            extra += action.extra_cycles
            if action.redirect is not None:
                target = action.redirect
            if action.handled:
                handled = True
                break
        if not handled:
            device = self.memory.io_devices.get(target)
            if device is not None:
                device.io_write(target, value)
            else:
                self.memory.write_data(target, value)
        if self.trace is not None:
            self._observe(kind, addr, value, target, extra, True)
        return extra

    # ------------------------------------------------------------------
    def read(self, addr, kind=AccessKind.DATA_LOAD):
        """Run a read transaction; returns (value, stall cycles)."""
        extra = 0
        target = addr
        value = None
        for unit in self.interposers:
            action = unit.on_read(self, target, kind)
            if action is None:
                continue
            extra += action.extra_cycles
            if action.redirect is not None:
                target = action.redirect
            if action.value is not None:
                value = action.value
                break
        if value is None:
            device = self.memory.io_devices.get(target)
            if device is not None:
                value = device.io_read(target)
            else:
                value = self.memory.read_data(target)
        if self.trace is not None:
            self._observe(kind, addr, value, target, extra, False)
        return value, extra

    def _observe(self, kind, addr, value, target, extra, write):
        """Emit one transaction as a ``BUS_ACCESS`` trace event; a
        redirected one carries its final address as ``target``."""
        self.trace.emit(self._now(), TraceEventKind.BUS_ACCESS,
                        addr=addr, value=value, access=kind.value,
                        write=write, stall=extra,
                        **({"target": target} if target != addr else {}))
