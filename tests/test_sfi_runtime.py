"""The assembly runtime: checker, stubs, allocator, services.

These drive the routines directly on the simulator (the rewriter tests
cover the module-side sequences).
"""

import pytest

from repro.asm.assembler import Assembler
from repro.isa.opcodes import STORE_KEYS
from repro.sfi.layout import (
    FAULT_MEMMAP,
    FAULT_NONE,
    FAULT_OUTSIDE,
    FAULT_OWNERSHIP,
    FAULT_STACK_BOUND,
    SfiLayout,
)
from repro.sfi.runtime_asm import (
    RUNTIME_ENTRIES,
    STORE_STUBS,
    build_runtime,
    runtime_source,
)
from repro.umpu.runtime import build_umpu_runtime, umpu_runtime_source

LAYOUT = SfiLayout()


@pytest.fixture
def m(runtime_machine):
    return runtime_machine


def fault_code(machine):
    return machine.memory.read_data(LAYOUT.fault_code)


def set_domain(machine, dom):
    machine.memory.write_data(LAYOUT.cur_dom, dom)


# ---------------------------------------------------------------------
# init
# ---------------------------------------------------------------------
def test_init_state(m):
    mem = m.memory
    assert mem.read_data(LAYOUT.cur_dom) == 7
    assert mem.read_word_data(LAYOUT.stack_bound) == 0x0FFF
    assert mem.read_word_data(LAYOUT.ss_ptr) == LAYOUT.safe_stack_base
    assert mem.read_word_data(LAYOUT.freelist) == LAYOUT.heap_start
    # heap free node spans the whole heap
    assert mem.read_word_data(LAYOUT.heap_start) == \
        LAYOUT.heap_end - LAYOUT.heap_start
    assert mem.read_word_data(LAYOUT.heap_start + 2) == 0
    # memory map: heap free (0xFF), safe stack trusted
    assert mem.read_data(LAYOUT.memmap_table) == 0xFF
    cfg = LAYOUT.memmap_config
    ss_block = cfg.block_of(LAYOUT.safe_stack_base)
    code = mem.read_data(LAYOUT.memmap_table + ss_block // 2)
    assert (code >> (4 * (ss_block % 2))) & 0xF == 0xF  # trusted start


# ---------------------------------------------------------------------
# checker
# ---------------------------------------------------------------------
def check(machine, addr):
    machine.core.set_reg_pair(26, addr)
    machine.core.set_reg(18, 0xAA)
    machine.call("hb_st_x")
    return fault_code(machine)


def test_checker_trusted_writes_anywhere(m):
    assert check(m, 0x100) == FAULT_NONE
    assert m.memory.read_data(0x100) == 0xAA
    assert check(m, 0xF80) == FAULT_NONE


def test_checker_module_own_block(m):
    set_domain(m, 0)
    m.call("hb_malloc", 16)
    p = m.result16()
    assert check(m, p) == FAULT_NONE
    assert m.memory.read_data(p) == 0xAA


def test_checker_module_foreign_block(m):
    set_domain(m, 1)
    m.call("hb_malloc", 16)
    p = m.result16()
    set_domain(m, 0)
    assert check(m, p) == FAULT_MEMMAP
    assert m.memory.read_word_data(LAYOUT.fault_addr) == p
    assert m.memory.read_data(p) != 0xAA


def test_checker_free_block_protected(m):
    set_domain(m, 0)
    assert check(m, 0x600) == FAULT_MEMMAP


def test_checker_stack_window(m):
    set_domain(m, 0)
    assert check(m, 0xE00) == FAULT_NONE  # below bound, above prot_top


def test_checker_stack_bound(m):
    set_domain(m, 0)
    m.memory.write_word_data(LAYOUT.stack_bound, 0x0E00)
    assert check(m, 0x0E01) == FAULT_STACK_BOUND


def test_checker_below_region(m):
    set_domain(m, 0)
    assert check(m, 0x100) == FAULT_OUTSIDE


def test_checker_preserves_registers_and_flags(m):
    """The store stubs must be transparent: registers and SREG are
    exactly as a plain ``st`` would leave them."""
    set_domain(m, 0)
    m.call("hb_malloc", 8)
    p = m.result16()
    for r in range(32):
        m.core.set_reg(r, r + 1)
    m.core.set_reg_pair(26, p)
    m.core.set_reg(18, 0x55)
    m.memory.sreg = 0b1010_1010 & 0x7F
    before = [m.core.reg(r) for r in range(26)]
    sreg_before = m.memory.sreg
    m.call("hb_st_x")
    assert [m.core.reg(r) for r in range(26)] == before
    assert m.core.reg_pair(26) == p         # plain st X does not move X
    assert m.memory.sreg == sreg_before


def test_store_stub_post_increment(m):
    set_domain(m, 0)
    m.call("hb_malloc", 8)
    p = m.result16()
    m.core.set_reg_pair(26, p)
    m.core.set_reg(18, 0x11)
    m.call("hb_st_x_plus")
    assert m.core.reg_pair(26) == p + 1
    assert m.memory.read_data(p) == 0x11


def test_store_stub_pre_decrement(m):
    set_domain(m, 0)
    m.call("hb_malloc", 8)
    p = m.result16()
    m.core.set_reg_pair(26, p + 1)
    m.core.set_reg(18, 0x22)
    m.call("hb_st_x_dec")
    assert m.core.reg_pair(26) == p
    assert m.memory.read_data(p) == 0x22


def test_store_stub_y_displacement(m):
    set_domain(m, 0)
    m.call("hb_malloc", 16)
    p = m.result16()
    m.core.set_reg_pair(28, p)          # Y
    m.core.set_reg(18, 0x33)
    m.core.set_reg(19, 5)               # q
    m.call("hb_st_y_q")
    assert m.memory.read_data(p + 5) == 0x33
    assert m.core.reg_pair(28) == p     # Y unchanged


def test_store_stub_z_post_increment(m):
    set_domain(m, 0)
    m.call("hb_malloc", 8)
    p = m.result16()
    m.core.set_reg_pair(30, p)
    m.core.set_reg(18, 0x44)
    m.call("hb_st_z_plus")
    assert m.core.reg_pair(30) == p + 1
    assert m.memory.read_data(p) == 0x44


# ---------------------------------------------------------------------
# allocator
# ---------------------------------------------------------------------
def test_malloc_header_and_alignment(m):
    m.call("hb_malloc", 10)
    p = m.result16()
    assert p % 8 == LAYOUT.heap_header % 8
    hdr = p - LAYOUT.heap_header
    assert m.memory.read_word_data(hdr) == 16      # gross size
    assert m.memory.read_data(hdr + 2) == 7        # owner = trusted
    assert m.memory.read_data(hdr + 3) == 1        # allocated flag


def test_malloc_marks_memmap(m):
    set_domain(m, 4)
    m.call("hb_malloc", 24)
    p = m.result16()
    cfg = LAYOUT.memmap_config
    first = cfg.block_of(p - LAYOUT.heap_header)
    tab = LAYOUT.memmap_table
    def code(block):
        byte = m.memory.read_data(tab + block // 2)
        return (byte >> (4 * (block % 2))) & 0xF
    assert code(first) == (4 << 1) | 1
    assert code(first + 1) == 4 << 1
    assert code(first + 2) == 4 << 1
    assert code(first + 3) == 4 << 1


def test_malloc_distinct_pointers(m):
    ptrs = set()
    for _ in range(10):
        m.call("hb_malloc", 8)
        p = m.result16()
        assert p and p not in ptrs
        ptrs.add(p)


def test_malloc_exhaustion_returns_zero(m):
    got = 0
    for _ in range(300):
        m.call("hb_malloc", 256)
        if m.result16() == 0:
            break
        got += 1
    else:
        pytest.fail("allocator never ran out")
    # ~2.5KiB heap / 264-byte gross allocations
    assert 8 <= got <= 10


def test_free_then_reuse(m):
    m.call("hb_malloc", 32)
    p1 = m.result16()
    m.call("hb_free", p1)
    assert fault_code(m) == FAULT_NONE
    m.call("hb_malloc", 32)
    p2 = m.result16()
    assert p2 == p1  # head of the free list


def test_free_marks_blocks_free(m):
    set_domain(m, 2)
    m.call("hb_malloc", 16)
    p = m.result16()
    m.call("hb_free", p)
    cfg = LAYOUT.memmap_config
    block = cfg.block_of(p - LAYOUT.heap_header)
    byte = m.memory.read_data(LAYOUT.memmap_table + block // 2)
    assert (byte >> (4 * (block % 2))) & 0xF == 0xF


def test_free_by_non_owner_faults(m):
    set_domain(m, 1)
    m.call("hb_malloc", 16)
    p = m.result16()
    set_domain(m, 2)
    m.call("hb_free", p)
    assert fault_code(m) == FAULT_OWNERSHIP
    m.core.halted = False
    m.memory.write_data(LAYOUT.fault_code, 0)
    # trusted can free anything
    set_domain(m, 7)
    m.call("hb_free", p)
    assert fault_code(m) == FAULT_NONE


def test_change_own_rewrites_memmap(m):
    set_domain(m, 1)
    m.call("hb_malloc", 16)
    p = m.result16()
    m.call("hb_change_own", p, ("u8", 3))
    assert m.result8() == 1
    cfg = LAYOUT.memmap_config
    block = cfg.block_of(p - LAYOUT.heap_header)
    byte = m.memory.read_data(LAYOUT.memmap_table + block // 2)
    assert (byte >> (4 * (block % 2))) & 0xF == (3 << 1) | 1
    # header owner updated too
    assert m.memory.read_data(p - LAYOUT.heap_header + 2) == 3


def test_change_own_by_non_owner_faults(m):
    set_domain(m, 1)
    m.call("hb_malloc", 16)
    p = m.result16()
    set_domain(m, 2)
    m.call("hb_change_own", p, ("u8", 2))
    assert fault_code(m) == FAULT_OWNERSHIP


def test_unprotected_variants_skip_memmap(m):
    m.call("malloc_unprot", 16)
    p = m.result16()
    assert p
    cfg = LAYOUT.memmap_config
    block = cfg.block_of(p - LAYOUT.heap_header)
    byte = m.memory.read_data(LAYOUT.memmap_table + block // 2)
    assert (byte >> (4 * (block % 2))) & 0xF == 0xF  # still free-coded
    m.call("chown_unprot", p, ("u8", 5))
    assert m.result8() == 1
    m.call("free_unprot", p)
    m.call("malloc_unprot", 16)
    assert m.result16() == p


def test_chown_unprot_light_check(m):
    set_domain(m, 1)
    m.call("malloc_unprot", 8)
    p = m.result16()
    set_domain(m, 2)
    m.call("chown_unprot", p, ("u8", 2))
    assert m.result8() == 0  # refused, but no fault (light check)


# ---------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------
def test_runtime_entry_symbols_exist(runtime_program):
    for name in RUNTIME_ENTRIES:
        assert name in runtime_program.symbols


def test_store_stub_table_complete():
    # every store form the ISA can produce has a stub
    assert set(STORE_STUBS) == STORE_KEYS


def test_runtime_size_reasonable(runtime_program):
    """The library should stay small (paper: 3674 bytes total)."""
    assert 800 < runtime_program.code_bytes < 4096


def test_source_regenerates_deterministically():
    assert runtime_source() == runtime_source()
    p1 = build_runtime()
    p2 = build_runtime()
    assert p1.words == p2.words


@pytest.mark.parametrize("build, source", [
    (build_runtime, runtime_source),
    (build_umpu_runtime, umpu_runtime_source),
])
def test_each_runtime_build_hands_out_its_own_program(build, source):
    """Both runtimes are assembled once per layout and origin, and every
    build is a copy nothing another caller does can change."""
    first = build()
    words, symbols = dict(first.words), dict(first.symbols)
    first.words[min(first.words)] ^= 0xFFFF
    first.symbols["hb_init"] += 2
    first.relocs.clear()
    first.listing.clear()
    second = build()
    assert second.words == words and second.symbols == symbols
    assert second.relocs and second.listing
    layout = SfiLayout(static_data_bytes=256, static_data_domains=2)
    fresh = Assembler(symbols=layout.symbols()).assemble(
        ".org 0x100\n" + source(layout), name="runtime")
    other = build(layout, origin=0x100)
    assert other.words == fresh.words and other.words != words
    assert other.symbols == fresh.symbols
