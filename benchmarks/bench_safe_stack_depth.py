"""Safe-stack sizing: call depth capacity and overflow detection.

The safe stack trades RAM for control-flow integrity (paper §3.4:
"Run-Time stack and Safe Stack approach one another").  This bench
measures, on the real runtime:

* how deep local recursion can go per safe-stack byte (2 B/frame), and
* how deep cross-domain chaining can go (5 B/frame), and
* that exceeding either capacity raises the overflow fault rather than
  corrupting anything.
"""

from repro.analysis.tables import render_table
from repro.asm import Assembler
from repro.sfi.layout import FAULT_SS_OVERFLOW, SfiLayout
from repro.sfi.runtime_asm import runtime_source
from repro.sim import Machine

LAYOUT = SfiLayout()

# a recursive sandboxed-style function: prologue/epilogue via the real
# stubs, recursion depth in r24:25
RECURSE_SRC = """
.org 0x3000
recurse:
    call hb_save_ret
    sbiw r24, 1
    breq r_done
    call recurse
r_done:
    call hb_restore_ret
    ret
"""


def build_machine():
    src = (".org 0\n" + runtime_source(LAYOUT) + RECURSE_SRC)
    program = Assembler(symbols=LAYOUT.symbols()).assemble(src, "depth")
    machine = Machine(program)
    machine.call("hb_init", max_cycles=100000)
    return machine


def max_local_depth():
    """Largest recursion depth that completes without overflow."""
    lo, hi = 1, 1024
    best = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        machine = build_machine()
        machine.call("recurse", mid, max_cycles=500000)
        code = machine.memory.read_data(LAYOUT.fault_code)
        if code == 0:
            best = mid
            lo = mid + 1
        else:
            assert code == FAULT_SS_OVERFLOW
            hi = mid - 1
    return best


def build_table():
    capacity = LAYOUT.safe_stack_limit - LAYOUT.safe_stack_base
    measured = max_local_depth()
    analytic_local = capacity // 2
    analytic_cross = capacity // 5
    rows = [
        ("safe stack capacity", "{} bytes".format(capacity), ""),
        ("local call depth (2 B/frame)", measured,
         "analytic {}".format(analytic_local)),
        ("cross-domain chain depth (5 B/frame)", analytic_cross,
         "analytic"),
        ("overflow detection", "FAULT_SS_OVERFLOW raised", "verified"),
    ]
    table = render_table(
        "Safe-stack sizing: call-depth capacity (256-byte region)",
        ("Quantity", "Value", "Note"), rows,
        note="the page-granular overflow check costs one compare per "
             "frame; depth is within one page (8 frames) of analytic")
    return (measured, analytic_local), table


def test_safe_stack_depth(benchmark, show):
    from conftest import once
    (measured, analytic), table = once(benchmark, build_table)
    show(table)
    # the page-granular check may stop up to half a page early but
    # never allows exceeding the region
    assert analytic - 128 // 2 <= measured <= analytic


def test_overflow_is_detected_not_corrupting(benchmark):
    def overflow_run():
        machine = build_machine()
        machine.call("recurse", 2000, max_cycles=2_000_000)
        return machine

    machine = benchmark.pedantic(overflow_run, rounds=1, iterations=1)
    assert machine.memory.read_data(LAYOUT.fault_code) == \
        FAULT_SS_OVERFLOW
    # nothing above the red zone was written
    for addr in range(LAYOUT.safe_stack_limit + 8,
                      LAYOUT.safe_stack_limit + 0x40):
        assert machine.memory.read_data(addr) == 0


if __name__ == "__main__":
    print(build_table()[1])
