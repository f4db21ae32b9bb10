"""Simple peripherals for the simulated node.

Only what the workloads need: a periodic timer that raises an interrupt
line (the heartbeat that drives SOS's timer messages), and a trivial
output port that collects bytes the program writes (a stand-in for the
UART/radio the examples "send" packets to).

A ticked device (one in ``core.devices``) implements two methods:
``tick(cycles)`` consumes elapsed CPU cycles, and ``cycles_to_event()``
returns how many cycles remain until its next event, or None when it
has none.  ``AvrCore.step`` ticks after every instruction; the fast
run loop ticks only at the boundary where the nearest event falls due
(and on exit), so a device must produce the same result from one large
tick as from many small ones summing to it.  Devices do not stall the
CPU.
"""

from repro.sim.events import AccessKind


class PeriodicTimer:
    """Raises IRQ *line* every *period* CPU cycles.

    Attach with :meth:`install`.  The timer's state is relative (the
    cycles accumulated since its last fire, not an absolute due cycle),
    so a snapshot restore that rewinds ``core.cycles`` or the timeline
    suspending devices during replay cannot leave it stale.
    """

    def __init__(self, interrupts, line=1, period=1000):
        if isinstance(period, bool) or not isinstance(period, int):
            raise TypeError("timer period must be an int number of "
                            "cycles, not {!r}".format(period))
        if period <= 0:
            raise ValueError("timer period must be positive")
        self.interrupts = interrupts
        self.line = line
        self.period = period
        self._accumulated = 0
        self.fired = 0
        self.enabled = True

    def tick(self, cycles):
        if not self.enabled:
            return
        self._accumulated += cycles
        while self._accumulated >= self.period:
            self._accumulated -= self.period
            self.interrupts.raise_irq(self.line)
            self.fired += 1

    def cycles_to_event(self):
        """Cycles until the next fire; None while disabled."""
        if not self.enabled:
            return None
        return self.period - self._accumulated

    def install(self, core):
        core.devices.append(self)
        return self


class OutputPort:
    """An I/O-mapped byte sink: every write is recorded in order.

    Models the 'transmit register' of a UART/radio: the examples write
    packet bytes here and the host reads them back as the 'airwaves'.
    """

    def __init__(self, io_addr):
        self.io_addr = io_addr
        self.bytes = bytearray()

    def attach(self, memory):
        memory.io_devices[self.io_addr + 0x20] = self
        return self

    def io_read(self, data_addr):
        return len(self.bytes) & 0xFF  # a 'tx count' status

    def io_write(self, data_addr, value):
        self.bytes.append(value & 0xFF)

    def take(self):
        data = bytes(self.bytes)
        self.bytes.clear()
        return data
