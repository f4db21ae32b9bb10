"""The software library retargeted for UMPU (paper §2.4 + §5).

On the hardware system the library is the *same* allocator and memory
map manager as the software-only runtime, except that protection state
lives in the UMPU registers instead of SRAM globals: "the software
library reads the identity of the current active domain from the status
register".  This module generates that variant from the shared assembly
sources by retargeting the state accesses:

* safe-stack-pointer reads retarget to ``in`` on the hardware
  ``safe_stack_ptr`` register (the kernel services locate the caller's
  cross-domain frame through it);
* the library's *attribution* state (which domain a malloc/free acts
  for) stays in an SRAM cell the services maintain from the frame's
  caller id — the hardware ``cur_domain`` register reads 7 (trusted)
  while a kernel service runs, so it cannot carry attribution, and
  writing it from software outside the trusted domain is (correctly)
  a ConfigFault.

The store-checker, cross-domain and save/restore stubs are *not* emitted
— that is the point of UMPU: those jobs moved into hardware.  A tiny
``hb_dispatch`` springboard is added so the trusted kernel can enter a
module through its jump table with a real ``icall`` (which the domain
tracker observes).
"""

import re

from repro.isa.registers import IoReg
from repro.sfi.layout import SfiLayout
from repro.sfi.runtime_asm import (
    _allocator,
    _fault_handlers,
    _memmap_mark,
    _owner_check,
    _services,
    assemble_runtime,
)


def _retarget(src):
    """Swap safe-stack-pointer reads for UMPU register I/O.

    Also adjusts ``hb_caller_dom``'s frame offset: on UMPU *every*
    call's return address is redirected to the safe stack, so by the
    time the routine reads the pointer, its own 2-byte return address
    sits above the caller's 5-byte cross-domain frame (-7, not -5).
    """
    src = re.sub(r"lds (r\d+), HB_SS_LO",
                 r"in \1, {}".format(IoReg.SAFE_STACK_PTR_L), src)
    src = re.sub(r"lds (r\d+), HB_SS_HI",
                 r"in \1, {}".format(IoReg.SAFE_STACK_PTR_H), src)
    src = src.replace("    sbiw r30, 5\n    ld r18, Z",
                      "    sbiw r30, 7\n    ld r18, Z")
    return src


def _dispatch():
    return """
; ------------------------------------------------------- hb_dispatch
; Kernel springboard: enter a module through its jump-table entry (word
; address in Z) with a real icall so the domain tracker sequences the
; cross-domain frame.  Runs in the trusted domain.
hb_dispatch:
    icall
    ret
"""


def _init(layout):
    table_bytes = layout.memmap_config.table_bytes
    heap_bytes = layout.heap_end - layout.heap_start
    return f"""
; -------------------------------------------------------------- hb_init
; Library-side boot on UMPU: the protection registers were programmed by
; the trusted boot code; here we build the memory map (all free), the
; heap free list, and mark the safe-stack region as a trusted segment.
hb_init:
    ldi r24, 0
    sts HB_FAULT_CODE, r24
    ldi r24, HB_TRUSTED        ; library attribution cell (SRAM shadow)
    sts HB_CUR_DOM, r24
    ldi r26, lo8(HB_MMAP_TABLE)
    ldi r27, hi8(HB_MMAP_TABLE)
    ldi r18, 0xFF
    ldi r20, lo8({table_bytes})
    ldi r21, hi8({table_bytes})
hi_mm_loop:
    st X+, r18
    subi r20, 1
    sbci r21, 0
    brne hi_mm_loop
    ldi r26, lo8(HB_HEAP_START)
    ldi r27, hi8(HB_HEAP_START)
    ldi r18, lo8({heap_bytes})
    st X+, r18
    ldi r18, hi8({heap_bytes})
    st X+, r18
    st X+, r1
    st X+, r1
    ldi r24, lo8(HB_HEAP_START)
    sts HB_FREE_LO, r24
    ldi r24, hi8(HB_HEAP_START)
    sts HB_FREE_HI, r24
    ldi r26, lo8(HB_SS_BASE)
    ldi r27, hi8(HB_SS_BASE)
    ldi r20, lo8(HB_SS_LIMIT - HB_SS_BASE)
    ldi r21, hi8(HB_SS_LIMIT - HB_SS_BASE)
    ldi r18, 0x0F
    ldi r19, 0x0E
    call hb_mmap_mark
    ret
"""


def umpu_runtime_source(layout=None):
    """The UMPU software library (assembly source)."""
    layout = layout or SfiLayout()
    parts = [
        "; Harbor software library, UMPU target "
        "(generated by repro.umpu.runtime)",
        "rt_begin:",
        _fault_handlers(),
        _memmap_mark(),
        _retarget(_owner_check()),
        _retarget(_allocator(layout)),
        _retarget(_services()),
        _dispatch(),
        _init(layout),
        "rt_end:",
    ]
    return "\n".join(parts)


def build_umpu_runtime(layout=None, origin=0):
    """Assemble the UMPU library at *origin*; returns a Program."""
    return assemble_runtime(umpu_runtime_source, "harbor_umpu_runtime",
                            layout, origin)
