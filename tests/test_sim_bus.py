"""Bus interposer mechanics and tracing."""

from repro.sim import (
    AccessKind,
    BusInterposer,
    DataBus,
    Memory,
    ReadAction,
    WriteAction,
)
from repro.trace import TraceEventKind, TraceSink


class Recorder(BusInterposer):
    def __init__(self):
        self.writes = []
        self.reads = []

    def on_write(self, bus, addr, value, kind):
        self.writes.append((addr, value, kind))
        return None

    def on_read(self, bus, addr, kind):
        self.reads.append((addr, kind))
        return None


def test_passthrough_observation():
    mem = Memory()
    bus = DataBus(mem)
    rec = bus.add_interposer(Recorder())
    bus.write(0x200, 0x11)
    value, _ = bus.read(0x200)
    assert value == 0x11
    assert rec.writes == [(0x200, 0x11, AccessKind.DATA_STORE)]
    assert rec.reads == [(0x200, AccessKind.DATA_LOAD)]


def test_write_redirect():
    class Redirect(BusInterposer):
        def on_write(self, bus, addr, value, kind):
            return WriteAction(redirect=addr + 0x100)

    mem = Memory()
    bus = DataBus(mem)
    bus.add_interposer(Redirect())
    bus.write(0x200, 0x22)
    assert mem.read_data(0x200) == 0
    assert mem.read_data(0x300) == 0x22


def test_write_handled_suppresses_memory():
    class Absorb(BusInterposer):
        def on_write(self, bus, addr, value, kind):
            return WriteAction(handled=True)

    mem = Memory()
    bus = DataBus(mem)
    bus.add_interposer(Absorb())
    bus.write(0x200, 0x33)
    assert mem.read_data(0x200) == 0


def test_read_value_override():
    class Feed(BusInterposer):
        def on_read(self, bus, addr, kind):
            return ReadAction(value=0x99)

    bus = DataBus(Memory())
    bus.add_interposer(Feed())
    value, _ = bus.read(0x200)
    assert value == 0x99


def test_extra_cycles_accumulate():
    class Slow(BusInterposer):
        def on_write(self, bus, addr, value, kind):
            return WriteAction(extra_cycles=2)

    bus = DataBus(Memory())
    bus.add_interposer(Slow())
    bus.add_interposer(Slow())
    assert bus.write(0x200, 1) == 4


def test_handled_stops_chain():
    order = []

    class First(BusInterposer):
        def on_write(self, bus, addr, value, kind):
            order.append("first")
            return WriteAction(handled=True)

    class Second(BusInterposer):
        def on_write(self, bus, addr, value, kind):
            order.append("second")
            return None

    bus = DataBus(Memory())
    bus.add_interposer(First())
    bus.add_interposer(Second())
    bus.write(0x200, 1)
    assert order == ["first"]


def test_remove_interposer():
    mem = Memory()
    bus = DataBus(mem)
    rec = bus.add_interposer(Recorder())
    bus.remove_interposer(rec)
    bus.write(0x200, 1)
    assert not rec.writes


def test_trace_sink_records_redirect_target():
    class Redirect(BusInterposer):
        def on_write(self, bus, addr, value, kind):
            return WriteAction(redirect=0x400)

    mem = Memory()
    bus = DataBus(mem)
    bus.add_interposer(Redirect())
    bus.trace = TraceSink()
    bus.write(0x200, 7)
    bus.read(0x300)
    write, read = bus.trace.of(TraceEventKind.BUS_ACCESS)
    assert write.data == {"addr": 0x200, "value": 7, "access": "data_store",
                          "write": True, "stall": 0, "target": 0x400}
    assert mem.read_data(0x400) == 7
    # an access that stays put carries no target
    assert read.get("addr") == 0x300 and "target" not in read.data
    assert read.get("write") is False


def test_access_kind_is_write():
    assert AccessKind.DATA_STORE.is_write
    assert AccessKind.RET_PUSH.is_write
    assert AccessKind.STACK_PUSH.is_write
    assert AccessKind.IO_WRITE.is_write
    assert not AccessKind.DATA_LOAD.is_write
    assert not AccessKind.RET_POP.is_write
