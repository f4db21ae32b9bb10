"""Assembler tests: syntax, directives, aliases, relocation records."""

import pytest

from repro.asm import AsmError, Assembler, assemble
from repro.asm.assembler import parse_register
from repro.isa.encoding import decode_words


def words_of(program):
    lo, hi = program.extent()
    return [program.word(i) for i in range(lo, hi + 1)]


def first_instr(source, **kw):
    program = assemble(source, **kw)
    lo, _hi = program.extent()
    w0 = program.word(lo)
    w1 = program.word(lo + 1) if lo + 1 in program.words else None
    return decode_words(w0, w1)


# ---------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------
def test_simple_program():
    p = assemble("""
    start:
        ldi r16, 1
        add r16, r16
        ret
    """)
    assert p.symbol("start") == 0
    assert words_of(p) == [0xE001, 0x0F00, 0x9508]


def test_labels_and_branches():
    p = assemble("""
    loop:
        dec r16
        brne loop
        rjmp loop
    """)
    w = words_of(p)
    assert decode_words(w[1]).operands == (1, -2)   # brbc Z, -2
    assert decode_words(w[2]).operands == (-3,)     # rjmp back


def test_forward_reference():
    p = assemble("""
        rjmp done
        nop
    done:
        ret
    """)
    assert decode_words(p.word(0)).operands == (1,)


def test_case_insensitive_mnemonics_and_registers():
    i = first_instr("    LDI R16, 0x10\n")
    assert i.key == "ldi"
    assert i.operands == (16, 0x10)


def test_comments():
    p = assemble("""
    ; full line comment
        nop        ; trailing
        nop        // c++ style
    """)
    assert len(p.words) == 2


def test_parse_register():
    assert parse_register("r0") == 0
    assert parse_register("R31") == 31
    assert parse_register("XL") == 26
    assert parse_register("zh") == 31
    assert parse_register("r32") is None
    assert parse_register("foo") is None


# ---------------------------------------------------------------------
# addressing modes
# ---------------------------------------------------------------------
@pytest.mark.parametrize("src,key,operands", [
    ("ld r5, X", "ld_x", (5,)),
    ("ld r5, X+", "ld_xp", (5,)),
    ("ld r5, -X", "ld_mx", (5,)),
    ("ld r5, Y+", "ld_yp", (5,)),
    ("ld r5, -Y", "ld_my", (5,)),
    ("ld r5, Y", "ldd_y", (5, 0)),
    ("ld r5, Z", "ldd_z", (5, 0)),
    ("ldd r5, Y+12", "ldd_y", (5, 12)),
    ("ldd r5, Z+63", "ldd_z", (5, 63)),
    ("st X, r5", "st_x", (5,)),
    ("st X+, r5", "st_xp", (5,)),
    ("st -X, r5", "st_mx", (5,)),
    ("st Z+, r5", "st_zp", (5,)),
    ("st Y, r5", "std_y", (0, 5)),
    ("std Y+3, r5", "std_y", (3, 5)),
    ("std Z+1, r0", "std_z", (1, 0)),
    ("lpm", "lpm_r0", ()),
    ("lpm r9, Z", "lpm", (9,)),
    ("lpm r9, Z+", "lpm_zp", (9,)),
])
def test_addressing_modes(src, key, operands):
    i = first_instr("    {}\n".format(src))
    assert i.key == key
    assert i.operands == tuple(operands)


def test_x_displacement_rejected():
    with pytest.raises(AsmError):
        assemble("    ldd r5, X+1\n")


# ---------------------------------------------------------------------
# aliases
# ---------------------------------------------------------------------
@pytest.mark.parametrize("src,canonical", [
    ("clr r5", ("eor", (5, 5))),
    ("lsl r6", ("add", (6, 6))),
    ("rol r7", ("adc", (7, 7))),
    ("tst r8", ("and", (8, 8))),
    ("ser r17", ("ldi", (17, 0xFF))),
    ("sbr r16, 0x03", ("ori", (16, 0x03))),
    ("cbr r16, 0x03", ("andi", (16, 0xFC))),
    ("sei", ("bset", (7,))),
    ("cli", ("bclr", (7,))),
    ("sec", ("bset", (0,))),
    ("clt", ("bclr", (6,))),
])
def test_aliases(src, canonical):
    i = first_instr("    {}\n".format(src))
    assert (i.key, i.operands) == canonical


@pytest.mark.parametrize("src,flag,is_set", [
    ("breq t", 1, True), ("brne t", 1, False),
    ("brcs t", 0, True), ("brcc t", 0, False),
    ("brlo t", 0, True), ("brsh t", 0, False),
    ("brmi t", 2, True), ("brpl t", 2, False),
    ("brlt t", 4, True), ("brge t", 4, False),
    ("brts t", 6, True), ("brtc t", 6, False),
])
def test_branch_aliases(src, flag, is_set):
    p = assemble("t:\n    {}\n".format(src))
    i = decode_words(p.word(0))
    assert i.key == ("brbs" if is_set else "brbc")
    assert i.operands[0] == flag


# ---------------------------------------------------------------------
# directives
# ---------------------------------------------------------------------
def test_org():
    p = assemble("""
        nop
    .org 0x100
    here:
        ret
    """)
    assert p.symbol("here") == 0x100
    assert p.word(0x80) == 0x9508


def test_equ_both_styles():
    p = assemble("""
    .equ A = 5
    .equ B, 7
    C = A + B
        ldi r16, C
    """)
    assert decode_words(p.word(0)).operands == (16, 12)


def test_db_dw_and_strings():
    p = assemble("""
    data:
    .db 1, 2, 0xFF
    .db "ab"
    .align 2
    words:
    .dw 0x1234, data
    """)
    assert p.symbol("data") == 0
    # bytes 1,2,0xff,'a','b' then align-pad, then words
    assert p.word(0) == 0x0201
    assert p.word(1) == (ord("a") << 8) | 0xFF
    assert p.word(2) == (0 << 8) | ord("b")
    assert p.symbol("words") == 6
    assert p.word(3) == 0x1234
    assert p.word(4) == 0x0000  # address of `data`


def test_space():
    p = assemble("""
    .space 4, 0xEE
    after:
        nop
    """)
    assert p.symbol("after") == 4
    assert p.word(0) == 0xEEEE


def test_align():
    p = assemble("""
    .db 1
    .align 4
    code:
        nop
    """)
    assert p.symbol("code") == 4


# ---------------------------------------------------------------------
# expressions in operands / hi8 lo8
# ---------------------------------------------------------------------
def test_lo8_hi8_operands():
    p = assemble("""
    .equ buf = 0x0234
        ldi r26, lo8(buf)
        ldi r27, hi8(buf)
    """)
    assert decode_words(p.word(0)).operands == (26, 0x34)
    assert decode_words(p.word(1)).operands == (27, 0x02)


def test_pm_operands():
    p = assemble("""
        ldi r30, pm_lo8(target)
        ldi r31, pm_hi8(target)
    .org 0x0400
    target:
        ret
    """)
    assert decode_words(p.word(0)).operands == (30, 0x00)
    assert decode_words(p.word(1)).operands == (31, 0x02)


def test_jmp_call_word_addressing():
    p = assemble("""
        jmp far
        call far
    .org 0x2000
    far:
        ret
    """)
    assert decode_words(p.word(0), p.word(1)).operands == (0x1000,)
    assert decode_words(p.word(2), p.word(3)).operands == (0x1000,)


def test_predefined_symbols():
    p = assemble("    ldi r16, hi8(RAMEND)\n")
    assert decode_words(p.word(0)).operands == (16, 0x0F)


def test_custom_symbols():
    a = Assembler(symbols={"MAGIC": 0x77})
    p = a.assemble("    ldi r16, MAGIC\n")
    assert decode_words(p.word(0)).operands == (16, 0x77)


# ---------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------
@pytest.mark.parametrize("src,fragment", [
    ("    frob r1\n", "unknown mnemonic"),
    ("    ldi r5, 1\n", "out of range"),        # ldi needs r16+
    ("    add r1\n", "operand"),
    ("a:\na:\n    nop\n", "redefined"),
    ("    rjmp nowhere\n", "undefined symbol"),
    ("    ldi r16, )\n", "unexpected"),
    (".bogus 1\n", "unknown directive"),
    ("    brne far\n.org 0x200\nfar: ret\n", "out of range"),
])
def test_errors(src, fragment):
    with pytest.raises(AsmError) as err:
        assemble(src)
    assert fragment in str(err.value)


def test_error_carries_line_number():
    with pytest.raises(AsmError) as err:
        assemble("    nop\n    nop\n    frob\n")
    assert err.value.line == 3


def test_odd_instruction_address_rejected():
    with pytest.raises(AsmError):
        assemble(".db 1\n    nop\n")


# ---------------------------------------------------------------------
# relocations
# ---------------------------------------------------------------------
def test_reloc_records():
    p = assemble("""
        rjmp target
        call target
        ldi r30, pm_lo8(target)
        ldi r31, pm_hi8(target)
        lds r4, var
    .equ var = 0x100
    target:
        ret
    """)
    funcs = {(r.func, r.symbol) for r in p.relocs}
    assert ("rel12", "target") in funcs
    assert ("addr22", "target") in funcs
    assert ("pm_lo8", "target") in funcs
    assert ("pm_hi8", "target") in funcs
    assert ("addr16", "var") in funcs


def test_listing_maps_words_to_lines():
    p = assemble("    nop\n    nop\n")
    assert p.listing[0] == 1
    assert p.listing[1] == 2


def test_program_helpers():
    p = assemble("    nop\n    ret\n")
    assert p.size_bytes == 4
    assert p.code_bytes == 4
    assert p.label_at(0) is None
    image = p.to_flash(16)
    assert image[0] == 0x0000 and image[1] == 0x9508
    assert image[2] == 0xFFFF
