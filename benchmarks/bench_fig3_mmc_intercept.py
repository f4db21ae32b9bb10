"""Figure 3 (paper Figure `mmcramcpu`): the MMC sits between CPU and
data memory.

Executable reproduction: run one store on the UMPU machine with a trace
sink attached and show that the transaction flowed CPU -> MMC (check)
-> RAM, and that a failing check never reaches RAM.
"""

from repro.analysis.tables import render_table
from repro.asm import assemble
from repro.core.faults import MemMapFault
from repro.trace import TraceEventKind
from repro.umpu import HarborLayout, UmpuMachine

SRC = """
store_fn:
    movw r26, r24
    st X, r22
    ret
"""


def build_figure():
    layout = HarborLayout()
    machine = UmpuMachine(assemble(SRC), layout=layout)
    machine.memmap.set_segment(0x0400, 8, 0)
    machine.attach_trace()
    lines = []

    machine.enter_domain(0)
    machine.call("store_fn", 0x0400, ("u8", 0x5A))
    lines.append(("st 0x0400 (owned)", "CPU -> MMC: check", "pass",
                  "RAM[0x0400] = 0x5A",
                  "stall +{}".format(1)))

    machine.reset()
    machine.enter_domain(0)
    try:
        machine.call("store_fn", 0x0500, ("u8", 0x66))
        verdict = "BUG: passed"
    except MemMapFault:
        verdict = "exception"
    lines.append(("st 0x0500 (foreign)", "CPU -> MMC: check", verdict,
                  "RAM[0x0500] = 0x{:02X} (unchanged)".format(
                      machine.memory.read_data(0x0500)), "-"))

    table = render_table(
        "Figure 3 -- MMC between CPU and data memory",
        ("CPU issues", "Path", "Check", "Memory effect", "Cycles"),
        lines)
    return machine, table


def test_fig3_mmc_interception(benchmark, show):
    from conftest import once
    machine, figure = once(benchmark, build_figure)
    show(figure)
    assert machine.mmc.checked_stores >= 1
    assert machine.mmc.faults == 1
    assert machine.memory.read_data(0x0400) == 0x5A
    assert machine.memory.read_data(0x0500) == 0x00
    # the trace shows the path: the owned store's one MMC table stall,
    # then its bus transaction; the vetoed store never reaches the bus
    sink = machine.bus.trace
    stores = [e for e in sink.of(TraceEventKind.BUS_ACCESS)
              if e.get("access") == "data_store"]
    assert [(e.get("addr"), e.get("value"), e.get("stall"))
            for e in stores] == [(0x0400, 0x5A, 1)]
    assert [e.get("addr") for e in sink.of(TraceEventKind.MMC_STALL)] \
        == [0x0400]
    assert len(sink.of(TraceEventKind.PROTECTION_FAULT)) == 1


if __name__ == "__main__":
    print(build_figure()[1])
