"""Inline-checks rewriter + template verifier (the verifier design
space the paper leaves as future work)."""

import pytest

from repro.asm import assemble, disassemble
from repro.sfi.inline import InlineRewriter, TemplateVerifier, build_core
from repro.sfi.layout import FAULT_NAMES, SfiLayout
from repro.sfi.rewriter import Rewriter
from repro.sfi.runtime_asm import build_runtime
from repro.sfi.verifier import Verifier, VerifyError
from repro.sim import Machine

LAYOUT = SfiLayout()
RUNTIME = build_runtime(LAYOUT)
ORIGIN = LAYOUT.jt_end


@pytest.fixture(scope="module")
def inline_rw():
    return InlineRewriter(RUNTIME.symbols, LAYOUT)


@pytest.fixture(scope="module")
def template_verifier():
    return TemplateVerifier(RUNTIME.symbols, LAYOUT)


def load_and_run(result, setup=None, target=None, value=0x42,
                 domain=0):
    machine = Machine(RUNTIME)
    for w, v in result.program.words.items():
        machine.memory.write_flash_word(w, v)
    machine.core.invalidate_decode_cache()
    machine.call("hb_init", max_cycles=100000)
    if setup:
        setup(machine)
    machine.memory.write_data(LAYOUT.cur_dom, domain)
    cycles = machine.call(result.exports["f"], target, ("u8", value),
                          max_cycles=200000)
    fault = machine.memory.read_data(LAYOUT.fault_code)
    return machine, cycles, FAULT_NAMES.get(fault, None)


def mark_owned(machine, addr, nbytes, owner):
    machine.core.set_reg_pair(26, addr)
    machine.core.set_reg_pair(20, nbytes)
    machine.core.set_reg(18, (owner << 1) | 1)
    machine.core.set_reg(19, owner << 1)
    machine.call("hb_mmap_mark")


# ---------------------------------------------------------------------
# the template itself
# ---------------------------------------------------------------------
def test_core_builds_and_is_deterministic():
    items1, words1 = build_core(RUNTIME.symbols, LAYOUT)
    items2, words2 = build_core(RUNTIME.symbols, LAYOUT)
    assert words1 == words2
    assert len(items1) > 30


def test_template_matches_runtime_checker_semantics():
    """The inline template and hb_check_x implement the same rule: run
    both on the same scenarios and compare verdicts."""
    src = "f:\n    movw r26, r24\n    mov r18, r22\n    st X, r18\n    ret\n"
    program = assemble(src, "m")
    inline = InlineRewriter(RUNTIME.symbols, LAYOUT).rewrite(
        program, ORIGIN, exports=("f",))
    called = Rewriter(RUNTIME.symbols, LAYOUT).rewrite(
        program, ORIGIN, exports=("f",))
    for addr, owner, domain in [
            (0x0300, 0, 0),    # own block
            (0x0300, 1, 0),    # foreign block
            (0x0100, 0, 0),    # below the region
            (0x0E00, 0, 0),    # stack window
            (0x0300, 1, 7),    # trusted bypass
    ]:
        verdicts = []
        for result in (inline, called):
            def setup(machine, _owner=owner):
                mark_owned(machine, 0x0300, 64, _owner)
            _m, _c, fault = load_and_run(result, setup, addr,
                                         domain=domain)
            verdicts.append(fault)
        assert verdicts[0] == verdicts[1], (hex(addr), owner, domain)


# ---------------------------------------------------------------------
# every store mode works inlined
# ---------------------------------------------------------------------
@pytest.mark.parametrize("body,probe_off,ptr_setup", [
    ("st X, r18", 0, "    movw r26, r24\n"),
    ("st X+, r18", 0, "    movw r26, r24\n"),
    ("st -X, r18", -1, "    movw r26, r24\n"),
    ("st Y+, r18", 0, "    movw r28, r24\n"),
    ("st -Y, r18", -1, "    movw r28, r24\n"),
    ("std Y+5, r18", 5, "    movw r28, r24\n"),
    ("st Z+, r18", 0, "    movw r30, r24\n"),
    ("std Z+9, r18", 9, "    movw r30, r24\n"),
])
def test_inline_modes_store_correctly(inline_rw, body, probe_off,
                                      ptr_setup):
    src = ("f:\n    mov r18, r22\n" + ptr_setup
           + "    " + body + "\n    ret\n")
    result = inline_rw.rewrite(assemble(src, "m"), ORIGIN, exports=("f",))
    base = 0x0400

    def setup(machine):
        mark_owned(machine, 0x03F8, 64, 0)

    machine, _cycles, fault = load_and_run(result, setup, base,
                                           value=0x5C)
    assert fault is None
    assert machine.memory.read_data(base + probe_off) == 0x5C


def test_inline_preserves_pointer_side_effects(inline_rw):
    src = ("f:\n    mov r18, r22\n    movw r28, r24\n"
           "    st Y+, r18\n    st Y+, r18\n    movw r24, r28\n    ret\n")
    result = inline_rw.rewrite(assemble(src, "m"), ORIGIN, exports=("f",))

    def setup(machine):
        mark_owned(machine, 0x0400, 64, 0)

    machine, _c, fault = load_and_run(result, setup, 0x0400)
    assert fault is None
    assert machine.result16() == 0x0402  # Y advanced twice


def test_inline_sts(inline_rw):
    src = "f:\n    mov r18, r22\n    sts 0x0408, r18\n    ret\n"
    result = inline_rw.rewrite(assemble(src, "m"), ORIGIN, exports=("f",))

    def setup(machine):
        mark_owned(machine, 0x0408, 8, 0)

    machine, _c, fault = load_and_run(result, setup, 0)
    assert fault is None
    assert machine.memory.read_data(0x0408) == 0x42


# ---------------------------------------------------------------------
# verifier design-space behaviour
# ---------------------------------------------------------------------
def test_template_verifier_accepts_inline_output(inline_rw,
                                                 template_verifier):
    src = "f:\n    movw r26, r24\n    mov r18, r22\n    st X, r18\n    ret\n"
    result = inline_rw.rewrite(assemble(src, "m"), ORIGIN, exports=("f",))
    report = template_verifier.verify(result.program, result.start,
                                      result.end)
    assert template_verifier._guards == 1
    assert report.instructions > 40


def test_constant_state_verifier_rejects_inline_output(inline_rw):
    """The two (rewriter, verifier) pairs are NOT interchangeable: each
    verifier admits exactly its own rewriter's discipline."""
    src = "f:\n    movw r26, r24\n    mov r18, r22\n    st X, r18\n    ret\n"
    result = inline_rw.rewrite(assemble(src, "m"), ORIGIN, exports=("f",))
    plain = Verifier(RUNTIME.symbols, LAYOUT)
    with pytest.raises(VerifyError):
        plain.verify(result.program, result.start, result.end)


def test_template_verifier_accepts_call_mode_output(template_verifier):
    rewriter = Rewriter(RUNTIME.symbols, LAYOUT)
    src = "f:\n    movw r26, r24\n    mov r18, r22\n    st X, r18\n    ret\n"
    result = rewriter.rewrite(assemble(src, "m"), ORIGIN, exports=("f",))
    template_verifier.verify(result.program, result.start, result.end)


def test_template_verifier_rejects_bare_store(template_verifier):
    program = assemble(
        ".org {}\nf:\n    st X, r18\n    nop\n".format(ORIGIN), "m")
    lo, hi = program.extent()
    with pytest.raises(VerifyError) as err:
        template_verifier.verify(program, lo * 2, (hi + 1) * 2)
    assert "without the inline check template" in str(err.value)


def test_template_verifier_rejects_wrong_value_register(template_verifier,
                                                        inline_rw):
    """Template followed by `st X, r5` (not r18): the checked value
    convention is violated — reject."""
    src = "f:\n    movw r26, r24\n    mov r18, r22\n    st X, r18\n    ret\n"
    result = inline_rw.rewrite(assemble(src, "m"), ORIGIN, exports=("f",))
    # find the store and swap its register operand to r5
    from repro.isa.encoding import encode
    for line in disassemble(result.program):
        if line.instr is not None and line.instr.key == "st_x":
            result.program.set_word(line.byte_addr // 2,
                                    encode("st_x", (5,))[0])
    with pytest.raises(VerifyError):
        template_verifier.verify(result.program, result.start,
                                 result.end)


def test_template_verifier_rejects_branch_over_check(template_verifier,
                                                     inline_rw):
    """A crafted branch that jumps straight to the store (skipping the
    check) must be rejected — the protected-range rule."""
    src = "f:\n    movw r26, r24\n    mov r18, r22\n    st X, r18\n    ret\n"
    result = inline_rw.rewrite(assemble(src, "m"), ORIGIN, exports=("f",))
    store_addr = next(l.byte_addr for l in disassemble(result.program)
                      if l.instr is not None and l.instr.key == "st_x")
    # append a function that branches directly at the store
    from repro.isa.encoding import encode
    tail = result.end
    words = encode("rjmp", ((store_addr - (tail + 2)) // 2,))
    result.program.set_word(tail // 2, words[0])
    result.program.set_word(tail // 2 + 1, encode("nop", ())[0])
    with pytest.raises(VerifyError):
        template_verifier.verify(result.program, result.start,
                                 result.end + 4)
    # fail-fast trips on the push-depth mismatch first (the template's
    # store sits inside its push region); collect mode must still show
    # the protected-range rule itself
    engine = template_verifier.verify_all(result.program, result.start,
                                          result.end + 4)
    assert any("inline check" in d.message for d in engine.findings)
    assert "HL016" in engine.codes()


# ---------------------------------------------------------------------
# the trade-off the two designs make (paper: checks not inlined to
# minimize module code size)
# ---------------------------------------------------------------------
def test_inline_is_faster_but_larger(inline_rw):
    src = "f:\n    movw r26, r24\n    mov r18, r22\n    st X, r18\n    ret\n"
    program = assemble(src, "m")
    called = Rewriter(RUNTIME.symbols, LAYOUT).rewrite(
        program, ORIGIN, exports=("f",))
    inline = inline_rw.rewrite(program, ORIGIN, exports=("f",))

    def setup(machine):
        mark_owned(machine, 0x0300, 64, 0)

    _m1, called_cycles, _ = load_and_run(called, setup, 0x0300)
    _m2, inline_cycles, _ = load_and_run(inline, setup, 0x0300)
    assert inline_cycles < called_cycles           # saves the dispatch
    assert inline.size_bytes > 2 * called.size_bytes  # at a size cost


def test_template_verifier_rejects_skip_landing(template_verifier,
                                                inline_rw):
    """A skip instruction placed so its landing point falls between the
    template and the store would bypass the check conditionally."""
    from repro.isa.encoding import encode
    src = "f:\n    movw r26, r24\n    mov r18, r22\n    st X, r18\n    ret\n"
    result = inline_rw.rewrite(assemble(src, "m"), ORIGIN, exports=("f",))
    store_addr = next(l.byte_addr for l in disassemble(result.program)
                      if l.instr is not None and l.instr.key == "st_x")
    # craft: at store-4, sbrc r0,0 would skip the final template word
    # and land exactly on the store.  Overwrite the word at store-4.
    result.program.set_word(store_addr // 2 - 2,
                            encode("sbrc", (0, 0))[0])
    with pytest.raises(VerifyError):
        template_verifier.verify(result.program, result.start,
                                 result.end)


def test_cli_inline_pipeline(tmp_path, capsys):
    from repro.cli import cmd_rewrite, cmd_verify
    src = tmp_path / "m.s"
    src.write_text("f:\n    st X, r18\n    ret\n")
    out = tmp_path / "m.hex"
    assert cmd_rewrite([str(src), "--export", "f", "--inline",
                        "-o", str(out)]) == 0
    capsys.readouterr()
    # the inline binary needs the template verifier...
    assert cmd_verify([str(out), "--inline"]) == 0
    assert "ACCEPTED" in capsys.readouterr().out
    # ...and is rejected by the constant-state verifier
    assert cmd_verify([str(out)]) == 1
