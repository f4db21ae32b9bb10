"""Binary rewriter: transformation rules, relocation, relaxation."""

import pytest

from repro.asm import assemble, disassemble
from repro.sfi.layout import SfiLayout
from repro.sfi.rewriter import RewriteError, Rewriter
from repro.sfi.runtime_asm import build_runtime

LAYOUT = SfiLayout()
RUNTIME = build_runtime(LAYOUT)
ORIGIN = LAYOUT.jt_end


@pytest.fixture
def rw():
    return Rewriter(RUNTIME.symbols, LAYOUT)


def rewrite(rw, src, exports=(), origin=ORIGIN):
    return rw.rewrite(assemble(src, "mod"), origin, exports=exports)


def keys_of(result):
    return [l.instr.key for l in disassemble(result.program)
            if l.instr is not None]


# ---------------------------------------------------------------------
# store rewriting
# ---------------------------------------------------------------------
def test_st_x_becomes_stub_call(rw):
    res = rewrite(rw, "f:\n    st X, r5\n    ret\n", exports=("f",))
    keys = keys_of(res)
    assert "st_x" not in keys
    assert keys.count("call") >= 2  # stub call + prologue etc.
    # value marshaled through r18
    assert "mov" in keys and "push" in keys and "pop" in keys
    texts = [l.text for l in disassemble(res.program)]
    stub = RUNTIME.symbol("hb_st_x")
    assert any("0x{:04x}".format(stub) in t for t in texts)


def test_st_with_value_already_in_r18_skips_marshal(rw):
    res = rewrite(rw, "f:\n    st X, r18\n    ret\n", exports=("f",))
    res2 = rewrite(rw, "f:\n    st X, r5\n    ret\n", exports=("f",))
    assert res.size_bytes < res2.size_bytes


@pytest.mark.parametrize("src,stub", [
    ("st X, r5", "hb_st_x"),
    ("st X+, r5", "hb_st_x_plus"),
    ("st -X, r5", "hb_st_x_dec"),
    ("st Y+, r5", "hb_st_y_plus"),
    ("st -Y, r5", "hb_st_y_dec"),
    ("std Y+7, r5", "hb_st_y_q"),
    ("st Y, r5", "hb_st_y_q"),
    ("st Z+, r5", "hb_st_z_plus"),
    ("st -Z, r5", "hb_st_z_dec"),
    ("std Z+9, r5", "hb_st_z_q"),
    ("sts 0x0400, r5", "hb_st_sts"),
])
def test_every_store_mode_routed_to_its_stub(rw, src, stub):
    res = rewrite(rw, "f:\n    {}\n    ret\n".format(src), exports=("f",))
    target = RUNTIME.symbol(stub) // 2
    calls = [l.instr for l in disassemble(res.program)
             if l.instr is not None and l.instr.key == "call"]
    assert any(i.operands[0] == target for i in calls), stub


def test_std_displacement_marshaled_in_r19(rw):
    res = rewrite(rw, "f:\n    std Y+13, r5\n    ret\n", exports=("f",))
    ldis = [l.instr for l in disassemble(res.program)
            if l.instr is not None and l.instr.key == "ldi"]
    assert any(i.operands == (19, 13) for i in ldis)


def test_sts_address_marshaled_in_x(rw):
    res = rewrite(rw, "f:\n    sts 0x0456, r5\n    ret\n", exports=("f",))
    ldis = [l.instr for l in disassemble(res.program)
            if l.instr is not None and l.instr.key == "ldi"]
    assert any(i.operands == (26, 0x56) for i in ldis)
    assert any(i.operands == (27, 0x04) for i in ldis)


# ---------------------------------------------------------------------
# control flow rewriting
# ---------------------------------------------------------------------
def test_prologue_epilogue_inserted(rw):
    res = rewrite(rw, "f:\n    nop\n    ret\n", exports=("f",))
    calls = [l.instr.operands[0] * 2 for l in disassemble(res.program)
             if l.instr is not None and l.instr.key == "call"]
    assert RUNTIME.symbol("hb_save_ret") in calls
    assert RUNTIME.symbol("hb_restore_ret") in calls
    assert res.stats["prologues"] == 1
    assert res.stats["rets"] == 1


def test_export_address_points_at_prologue(rw):
    res = rewrite(rw, "f:\n    nop\n    ret\n", exports=("f",))
    entry = res.exports["f"]
    line = next(l for l in disassemble(res.program)
                if l.byte_addr == entry)
    assert line.instr.key == "call"
    assert line.instr.operands[0] * 2 == RUNTIME.symbol("hb_save_ret")


def test_internal_call_gets_callee_prologue(rw):
    res = rewrite(rw, """
    f:
        call g
        ret
    g:
        nop
        ret
    """, exports=("f",))
    assert res.stats["prologues"] == 2  # f (export) + g (call target)


def test_cross_domain_call_sequence(rw):
    jt_entry = LAYOUT.jt_base + 512  # domain 1 entry 0
    res = rewrite(rw, "f:\n    call {}\n    ret\n".format(jt_entry),
                  exports=("f",))
    assert res.stats["cross_calls"] == 1
    # push Z, ldi Z with the word address, call stub, pop Z
    ldis = [l.instr for l in disassemble(res.program)
            if l.instr is not None and l.instr.key == "ldi"]
    word = jt_entry // 2
    assert any(i.operands == (30, word & 0xFF) for i in ldis)
    assert any(i.operands == (31, word >> 8) for i in ldis)


def test_icall_becomes_xdom_call(rw):
    res = rewrite(rw, "f:\n    icall\n    ret\n", exports=("f",))
    assert res.stats["icalls"] == 1
    assert "icall" not in keys_of(res)


def test_relative_jumps_relocated(rw):
    res = rewrite(rw, """
    f:
        ldi r16, 4
    loop:
        st X+, r16
        dec r16
        brne loop
        ret
    """, exports=("f",))
    # the branch target must still be the rewritten loop head
    new_loop = res.addr_map[assemble("""
    f:
        ldi r16, 4
    loop:
        st X+, r16
        dec r16
        brne loop
        ret
    """, "mod").symbol("loop")]
    branches = [(l.byte_addr, l.instr) for l in disassemble(res.program)
                if l.instr is not None and l.instr.key == "brbc"]
    assert len(branches) == 1
    addr, instr = branches[0]
    assert addr + 2 + 2 * instr.operands[1] == new_loop


def test_branch_relaxation_over_expanded_code(rw):
    """A conditional branch across many stores lands out of rel7 range
    after expansion and must be relaxed to an inverted branch + rjmp."""
    stores = "\n".join("    st X+, r5" for _ in range(40))
    src = "f:\n    breq skip\n{}\nskip:\n    ret\n".format(stores)
    res = rewrite(rw, src, exports=("f",))
    keys = keys_of(res)
    assert "brbs" in keys or "brbc" in keys
    # execution check: Z flag set -> all stores skipped
    from repro.sim import Machine
    machine = Machine(RUNTIME)
    for w, v in res.program.words.items():
        machine.memory.write_flash_word(w, v)
    machine.call("hb_init", max_cycles=100000)
    machine.memory.sreg = 0b10  # Z set
    machine.core.set_reg_pair(26, 0x0100)  # X somewhere writable-fault
    machine.call(res.exports["f"], max_cycles=100000)
    # skipped all checked stores: no fault recorded
    assert machine.memory.read_data(LAYOUT.fault_code) == 0


def test_behaviour_preserved_semantics(rw):
    """A pure computation rewrites to something computing the same."""
    src = """
    f:
        ldi r24, 0
        ldi r22, 10
    loop:
        add r24, r22
        dec r22
        brne loop
        ret
    """
    from repro.sim import Machine
    plain = Machine(assemble(src))
    plain.call("f")
    expect = plain.result8()

    res = rewrite(rw, src, exports=("f",))
    machine = Machine(RUNTIME)
    for w, v in res.program.words.items():
        machine.memory.write_flash_word(w, v)
    machine.call("hb_init", max_cycles=100000)
    machine.call(res.exports["f"], max_cycles=100000)
    assert machine.result8() == expect


# ---------------------------------------------------------------------
# rejections
# ---------------------------------------------------------------------
@pytest.mark.parametrize("body", [
    "break", "ijmp", "reti", "sleep", "wdr",
])
def test_forbidden_instructions_rejected(rw, body):
    with pytest.raises(RewriteError):
        rewrite(rw, "f:\n    {}\n    ret\n".format(body), exports=("f",))


def test_sp_write_rejected(rw):
    with pytest.raises(RewriteError):
        rewrite(rw, "f:\n    out SPL, r16\n    ret\n", exports=("f",))


def test_protection_register_write_rejected(rw):
    with pytest.raises(RewriteError):
        rewrite(rw, "f:\n    out 0x22, r16\n    ret\n", exports=("f",))


def test_data_words_rejected(rw):
    with pytest.raises(RewriteError):
        rewrite(rw, "f:\n    ret\n.dw 0xFFFF\n", exports=("f",))


def test_call_outside_module_rejected(rw):
    with pytest.raises(RewriteError):
        rewrite(rw, "f:\n    call 0x8000\n    ret\n", exports=("f",))


def test_stats_accounting(rw):
    res = rewrite(rw, """
    f:
        st X, r5
        sts 0x300, r6
        ret
    """, exports=("f",))
    assert res.stats["stores"] == 2
    assert res.stats["rets"] == 1
    assert res.stats["size_out"] > res.stats["size_in"]
    assert res.size_bytes == res.stats["size_out"]


# ---------------------------------------------------------------------
# property: whatever the rewriter emits, the verifier accepts
# ---------------------------------------------------------------------
from hypothesis import given, settings, strategies as st

from repro.sfi.verifier import Verifier

_SAFE_OPS = ["add r16, r17", "sub r18, r19", "eor r20, r21",
             "inc r22", "dec r23", "mov r24, r25", "lsr r16",
             "swap r17", "ldi r24, 7", "cpi r24, 3", "push r16",
             "pop r16", "lds r18, 0x0300", "ld r19, X", "nop"]
_STORE_OPS = ["st X, r5", "st X+, r6", "st -X, r7", "st Y+, r8",
              "st -Y, r9", "std Y+11, r10", "st Z+, r11", "st -Z, r12",
              "std Z+5, r13", "sts 0x0480, r14", "st X, r18"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_SAFE_OPS),
                          st.sampled_from(_STORE_OPS)),
                min_size=1, max_size=30))
def test_property_rewriter_output_always_verifies(body):
    """For any module of safe + store instructions, the rewriter either
    rejects the source with a clear error (push/pop traffic it cannot
    keep sound — rule HL016) or emits output that passes the on-node
    verifier (the pipeline's soundness contract)."""
    src = "entry:\n" + "\n".join("    " + op for op in body) + "\n    ret\n"
    rewriter = Rewriter(RUNTIME.symbols, LAYOUT)
    verifier = Verifier(RUNTIME.symbols, LAYOUT)
    depth, balanced = 0, True
    for op in body:
        depth += (op == "push r16") - (op == "pop r16")
        if depth < 0:
            balanced = False
            break
    balanced = balanced and depth == 0
    if not balanced:
        with pytest.raises(RewriteError):
            rewriter.rewrite(assemble(src, "prop"), ORIGIN,
                             exports=("entry",))
        return
    result = rewriter.rewrite(assemble(src, "prop"), ORIGIN,
                              exports=("entry",))
    report = verifier.verify(result.program, result.start, result.end)
    stores = sum(1 for op in body if op in _STORE_OPS)
    assert result.stats["stores"] == stores
    assert report.rets == 1
