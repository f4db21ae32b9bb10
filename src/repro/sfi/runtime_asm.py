"""The Harbor runtime, written in AVR assembly (software-only system).

These are the run-time check routines the paper's binary rewriter makes
modules call: the memory-map checker, the cross-domain call stub, the
safe-stack save/restore stubs, and the protected dynamic-memory library
(`malloc`/`free`/`change_own`), plus unprotected baselines for the
Table 4 comparison.  They live in the trusted domain; "modules invoke
the run-time checks by calling or jumping into the appropriate routines
located in the trusted domain" — the checks are deliberately *not*
inlined to keep module code small.

Protection state lives in trusted SRAM globals (see
:class:`~repro.sfi.layout.SfiLayout`); faults store a code + address and
execute ``break``, which the host harness maps back to the typed
exceptions.

Register conventions (documented for the rewriter):

* value to store: r18; displacement: r19 (store stubs)
* cross-domain target (flash word address): Z
* r1 is always zero (gcc convention; the verifier enforces that module
  code never leaves it dirty)
* all store/save/restore stubs preserve every register and SREG,
  *except* the architectural pointer side effect of the addressed mode:
  ``hb_st_*_plus`` leaves the pointer pair incremented and
  ``hb_st_*_dec`` leaves it decremented, exactly as the raw instruction
  would have.  The static analyzer's one stub table
  (:data:`repro.analysis.static.elision.STUB_KEYS`) encodes this
  contract as the store template each stub stands for; keep it in sync
  when touching stub bodies.
* the allocator entry points follow the avr-gcc ABI (args/result in
  r24:25, r22; r18-r27/r30/r31 caller-saved)
"""

from repro.asm.assembler import Assembler
from repro.sfi.layout import (
    FAULT_JT,
    FAULT_MEMMAP,
    FAULT_OUTSIDE,
    FAULT_OWNERSHIP,
    FAULT_SS_OVERFLOW,
    FAULT_STACK_BOUND,
    SfiLayout,
)

#: Store-stub entry points by (pointer, post_inc, pre_dec, displaced).
STORE_STUBS = {
    ("X", False, False, False): "hb_st_x",
    ("X", True, False, False): "hb_st_x_plus",
    ("X", False, True, False): "hb_st_x_dec",
    ("Y", True, False, False): "hb_st_y_plus",
    ("Y", False, True, False): "hb_st_y_dec",
    ("Y", False, False, True): "hb_st_y_q",
    ("Z", True, False, False): "hb_st_z_plus",
    ("Z", False, True, False): "hb_st_z_dec",
    ("Z", False, False, True): "hb_st_z_q",
}

#: All runtime entry points a rewritten module may call into.
RUNTIME_ENTRIES = sorted(set(STORE_STUBS.values()) | {
    "hb_st_sts",
    "hb_xdom_call",
    "hb_save_ret",
    "hb_restore_ret",
    "hb_malloc",
    "hb_free",
    "hb_change_own",
})


def _fault_handlers():
    return f"""
; ---------------------------------------------------------------- faults
; fault code in r20, faulting address in X (where meaningful); the
; node halts and the host harness raises the typed exception.
hb_fault_r20:
    sts HB_FAULT_CODE, r20
    sts HB_FAULT_ADDR, r26
    sts HB_FAULT_ADDR + 1, r27
    break
    rjmp hb_fault_r20          ; not reached
"""


def _checker():
    """The software memory-map checker (paper Table 3: 65 cycles)."""
    return f"""
; ---------------------------------------------------------- hb_check_x
; Validate a store to [X] by the current domain.  Preserves all
; registers and SREG; falls into hb_fault_r20 on violation.
;
; Rule (golden model: repro.core.checker.WriteChecker):
;   trusted -> ok
;   X > stack_bound -> stack-bound fault
;   X in [PROT_BOT, PROT_TOP] -> memory-map ownership check
;   X > PROT_TOP (own stack window) -> ok
;   else -> outside-region fault
hb_check_x:
    push r0
    in r0, SREG
    push r20
    push r21
    push r30
    push r31
    lds r20, HB_CUR_DOM
    cpi r20, HB_TRUSTED
    breq hbc_ok
    ; stack bound: fault if SB < X
    lds r30, HB_SB_LO
    lds r31, HB_SB_HI
    cp r30, r26
    cpc r31, r27
    brlo hbc_sb_fault
    ; below protected region?
    ldi r30, lo8(HB_PROT_BOT)
    ldi r31, hi8(HB_PROT_BOT)
    cp r26, r30
    cpc r27, r31
    brlo hbc_outside
    ; above protected region (own stack window)?
    ldi r30, lo8(HB_PROT_TOP)
    ldi r31, hi8(HB_PROT_TOP)
    cp r30, r26
    cpc r31, r27
    brlo hbc_ok
    ; --- memory map lookup (Figure: Addr Translate) ---
    movw r30, r26
    subi r30, lo8(HB_PROT_BOT)
    sbci r31, hi8(HB_PROT_BOT)
    lsr r31                    ; block = offset >> BLOCK_LOG2 (3)
    ror r30
    lsr r31
    ror r30
    lsr r31
    ror r30
    bst r30, 0                 ; T = odd block -> high nibble
    lsr r31                    ; index = block >> 1
    ror r30
    subi r30, lo8(-HB_MMAP_TABLE)
    sbci r31, hi8(-HB_MMAP_TABLE)
    ld r21, Z                  ; permission byte
    brtc hbc_low_nibble
    swap r21
hbc_low_nibble:
    andi r21, 0x0F
    lsr r21                    ; owner = code >> 1
    cp r21, r20
    brne hbc_mm_fault
hbc_ok:
    pop r31
    pop r30
    pop r21
    pop r20
    out SREG, r0
    pop r0
    ret
hbc_sb_fault:
    ldi r20, {FAULT_STACK_BOUND}
    rjmp hb_fault_r20
hbc_mm_fault:
    ldi r20, {FAULT_MEMMAP}
    rjmp hb_fault_r20
hbc_outside:
    ldi r20, {FAULT_OUTSIDE}
    rjmp hb_fault_r20
"""


def _store_stubs():
    """One stub per addressing-mode family (value in r18, disp in r19).

    Each performs exactly the original instruction's effect (including
    pointer side effects) after the check, and preserves everything
    else.
    """
    return """
; ------------------------------------------------------------ store stubs
hb_st_x:                       ; st X, r18
    call hb_check_x
    st X, r18
    ret
hb_st_x_plus:                  ; st X+, r18
    call hb_check_x
    st X+, r18
    ret
hb_st_x_dec:                   ; st -X, r18
    push r0
    in r0, SREG
    sbiw r26, 1
    call hb_check_x
    st X, r18
    out SREG, r0
    pop r0
    ret
hb_st_y_plus:                  ; st Y+, r18
    push r0
    in r0, SREG
    push r26
    push r27
    movw r26, r28
    call hb_check_x
    st X, r18
    adiw r28, 1
    pop r27
    pop r26
    out SREG, r0
    pop r0
    ret
hb_st_y_dec:                   ; st -Y, r18
    push r0
    in r0, SREG
    push r26
    push r27
    sbiw r28, 1
    movw r26, r28
    call hb_check_x
    st X, r18
    pop r27
    pop r26
    out SREG, r0
    pop r0
    ret
hb_st_y_q:                     ; std Y+r19, r18
    push r0
    in r0, SREG
    push r26
    push r27
    movw r26, r28
    add r26, r19
    adc r27, r1
    call hb_check_x
    st X, r18
    pop r27
    pop r26
    out SREG, r0
    pop r0
    ret
hb_st_z_plus:                  ; st Z+, r18
    push r0
    in r0, SREG
    push r26
    push r27
    movw r26, r30
    call hb_check_x
    st X, r18
    adiw r30, 1
    pop r27
    pop r26
    out SREG, r0
    pop r0
    ret
hb_st_z_dec:                   ; st -Z, r18
    push r0
    in r0, SREG
    push r26
    push r27
    sbiw r30, 1
    movw r26, r30
    call hb_check_x
    st X, r18
    pop r27
    pop r26
    out SREG, r0
    pop r0
    ret
hb_st_z_q:                     ; std Z+r19, r18
    push r0
    in r0, SREG
    push r26
    push r27
    movw r26, r30
    add r26, r19
    adc r27, r1
    call hb_check_x
    st X, r18
    pop r27
    pop r26
    out SREG, r0
    pop r0
    ret
hb_st_sts:                     ; sts <X preloaded by rewriter>, r18
    call hb_check_x
    st X, r18
    ret
"""


def _safe_stack_stubs():
    """Function prologue/epilogue stubs (paper Table 3: 38/38 cycles).

    ``hb_save_ret`` copies the caller's return address (2 bytes above
    our own frame on the run-time stack) to the safe stack;
    ``hb_restore_ret`` pops it back and *overwrites* the run-time-stack
    slot just before the function's ``ret`` consumes it — the run-time
    stack layout is never changed, only re-validated.
    """
    return f"""
; ----------------------------------------------------------- safe stack
hb_save_ret:
    push r0
    in r0, SREG
    push r26
    push r27
    push r30
    push r31
    in r26, SPL
    in r27, SPH
    adiw r26, 8                ; -> caller ret hi byte
    ld r30, X+                 ; ret_hi
    ld r31, X                  ; ret_lo
    lds r26, HB_SS_LO
    lds r27, HB_SS_HI
    cpi r27, hi8(HB_SS_LIMIT)
    brsh hbs_ss_fault
    st X+, r31                 ; frame: ret_lo then ret_hi, growing up
    st X+, r30
    sts HB_SS_LO, r26
    sts HB_SS_HI, r27
    pop r31
    pop r30
    pop r27
    pop r26
    out SREG, r0
    pop r0
    ret
hbs_ss_fault:
    push r20
    ldi r20, {FAULT_SS_OVERFLOW}
    rjmp hb_fault_r20

hb_restore_ret:
    push r0
    in r0, SREG
    push r26
    push r27
    push r30
    push r31
    lds r26, HB_SS_LO
    lds r27, HB_SS_HI
    sbiw r26, 2
    cpi r27, hi8(HB_SS_BASE)
    brlo hbs_ss_fault
    sts HB_SS_LO, r26
    sts HB_SS_HI, r27
    ld r30, X+                 ; ret_lo
    ld r31, X                  ; ret_hi
    in r26, SPL
    in r27, SPH
    adiw r26, 8                ; -> caller ret hi slot
    st X+, r31                 ; overwrite hi
    st X, r30                  ; overwrite lo
    pop r31
    pop r30
    pop r27
    pop r26
    out SREG, r0
    pop r0
    ret
"""


def _cross_domain(layout):
    """Cross-domain call/return stub (paper Table 3: 65/28 cycles).

    Entered with Z = target flash *word* address (a jump-table entry).
    Verifies the target, pushes the 5-byte frame, activates the callee
    domain, ``icall``s through the jump table; on the way back restores
    the caller's domain and stack bound from the safe stack.
    """
    if layout.jt_page_log2 != 9:
        raise ValueError("the assembly stub is generated for 512-byte "
                         "jump-table pages (one shift-free divide)")
    return f"""
; ----------------------------------------------------- cross-domain call
hb_xdom_call:
    pop r19                    ; module return address, hi
    pop r18                    ; lo
    sts HB_SCRATCH, r18
    sts HB_SCRATCH + 1, r19
    push r0
    in r0, SREG
    ; verify Z in [JT_BASE/2, JT_END/2)
    ldi r18, lo8(HB_JT_BASE >> 1)
    ldi r19, hi8(HB_JT_BASE >> 1)
    cp r30, r18
    cpc r31, r19
    brsh hbx_base_ok
    rjmp hbx_jt_fault
hbx_base_ok:
    ldi r18, lo8(HB_JT_END >> 1)
    ldi r19, hi8(HB_JT_END >> 1)
    cp r30, r18
    cpc r31, r19
    brlo hbx_end_ok
    rjmp hbx_jt_fault
hbx_end_ok:
    ; callee domain = (Z - JT_BASE/2) >> 8   (512-byte page = 256 words)
    movw r18, r30
    subi r18, lo8(HB_JT_BASE >> 1)
    sbci r19, hi8(HB_JT_BASE >> 1)
    mov r18, r19               ; r18 = callee domain id
    ; safe stack frame: [prev_dom][sb_lo][sb_hi][ret_lo][ret_hi]
    lds r26, HB_SS_LO
    lds r27, HB_SS_HI
    cpi r27, hi8(HB_SS_LIMIT)
    brlo hbx_room_ok
    rjmp hbx_ss_fault
hbx_room_ok:
    lds r19, HB_CUR_DOM
    st X+, r19
    lds r19, HB_SB_LO
    st X+, r19
    lds r19, HB_SB_HI
    st X+, r19
    lds r19, HB_SCRATCH
    st X+, r19
    lds r19, HB_SCRATCH + 1
    st X+, r19
    sts HB_SS_LO, r26
    sts HB_SS_HI, r27
    ; activate callee: cur_dom = callee, stack_bound = SP
    sts HB_CUR_DOM, r18
    in r26, SPL
    in r27, SPH
    sts HB_SB_LO, r26
    sts HB_SB_HI, r27
    out SREG, r0
    pop r0
    icall
    ; ------------------------------------------------ cross-domain return
    push r0
    in r0, SREG
    lds r26, HB_SS_LO
    lds r27, HB_SS_HI
    sbiw r26, 5
    cpi r27, hi8(HB_SS_BASE)
    brsh hbx_pop_ok
    rjmp hbx_ss_fault
hbx_pop_ok:
    sts HB_SS_LO, r26
    sts HB_SS_HI, r27
    ld r18, X+                 ; prev domain
    sts HB_CUR_DOM, r18
    ld r18, X+                 ; prev stack bound
    sts HB_SB_LO, r18
    ld r18, X+
    sts HB_SB_HI, r18
    ld r19, X+                 ; ret_lo
    ld r18, X                  ; ret_hi
    out SREG, r0
    pop r0
    push r19                   ; rebuild run-time-stack return address
    push r18
    ret
hbx_jt_fault:
    movw r26, r30
    ldi r20, {FAULT_JT}
    rjmp hb_fault_r20
hbx_ss_fault:
    ldi r20, {FAULT_SS_OVERFLOW}
    rjmp hb_fault_r20
"""


def _memmap_mark():
    """Mark a run of blocks in the memory map.

    in: X = segment base address, r20:21 = length in bytes (block
    multiple), r18 = code for the first block, r19 = code for the rest.
    clobbers r18-r23, r26, r27, r30, r31.
    """
    return """
; -------------------------------------------------------- hb_mmap_mark
hb_mmap_mark:
    movw r30, r26
    subi r30, lo8(HB_PROT_BOT)
    sbci r31, hi8(HB_PROT_BOT)
    lsr r31                    ; block number
    ror r30
    lsr r31
    ror r30
    lsr r31
    ror r30
    lsr r21                    ; block count
    ror r20
    lsr r21
    ror r20
    lsr r21
    ror r20
    mov r23, r18               ; r23 = swap(first code) for odd blocks
    swap r23
mmk_loop:
    movw r26, r30
    lsr r27                    ; byte index = block >> 1
    ror r26
    subi r26, lo8(-HB_MMAP_TABLE)
    sbci r27, hi8(-HB_MMAP_TABLE)
    ld r22, X
    sbrc r30, 0
    rjmp mmk_high
    andi r22, 0xF0
    or r22, r18
    rjmp mmk_store
mmk_high:
    andi r22, 0x0F
    or r22, r23
mmk_store:
    st X, r22
    mov r18, r19               ; subsequent blocks use the rest code
    mov r23, r19
    swap r23
    adiw r30, 1
    subi r20, 1
    sbci r21, 0
    brne mmk_loop
    ret
"""


def _owner_check():
    """Ownership check of the segment whose base is in X.

    Faults (ownership) unless the current domain is trusted or owns the
    block at X.  clobbers r20, r21, r30, r31.
    """
    return f"""
; ------------------------------------------------------- hb_owner_check
hb_owner_check:
    lds r20, HB_CUR_DOM
    cpi r20, HB_TRUSTED
    breq hoc_ok
    movw r30, r26
    subi r30, lo8(HB_PROT_BOT)
    sbci r31, hi8(HB_PROT_BOT)
    lsr r31
    ror r30
    lsr r31
    ror r30
    lsr r31
    ror r30
    bst r30, 0
    lsr r31
    ror r30
    subi r30, lo8(-HB_MMAP_TABLE)
    sbci r31, hi8(-HB_MMAP_TABLE)
    ld r21, Z
    brtc hoc_low
    swap r21
hoc_low:
    andi r21, 0x0F
    lsr r21
    cp r21, r20
    brne hoc_fault
hoc_ok:
    ret
hoc_fault:
    ldi r20, {FAULT_OWNERSHIP}
    rjmp hb_fault_r20
"""


def _allocator(layout):
    """First-fit allocator, unprotected and protected variants.

    Heap layout: every allocation is preceded by a 4-byte SOS-style
    header [size_lo][size_hi][owner][flags]; free-list nodes reuse the
    first four bytes as [size_lo][size_hi][next_lo][next_hi].  Sizes are
    in bytes, include the header and are block multiples.

    When the layout carves static data spans from the heap top, ``hb_free``
    and ``hb_change_own`` additionally range-check the segment base
    against ``HB_HEAP_DYN_END``: spans are pinned at boot and their
    ownership must stay a build-time constant (the check-elision proofs
    rely on it), so releasing or re-owning one is an ownership fault even
    for the trusted domain.  The guard is only emitted when spans are
    configured, keeping the default runtime image byte-identical.
    """
    if layout.static_data_total:
        free_guard = """
    ldi r30, lo8(HB_HEAP_DYN_END)
    ldi r31, hi8(HB_HEAP_DYN_END)
    cp r26, r30
    cpc r27, r31
    brsh hf_pin_fault"""
        chown_guard = free_guard.replace("hf_pin_fault", "hco_pin_fault")
        free_fault = f"""
hf_pin_fault:
    ldi r20, {FAULT_OWNERSHIP}
    rjmp hb_fault_r20"""
        chown_fault = free_fault.replace("hf_pin_fault", "hco_pin_fault")
    else:
        free_guard = chown_guard = free_fault = chown_fault = ""
    return f"""
; ---------------------------------------------------------- allocator
; hb_malloc_core: r24:25 = user size.
; out: X = segment base (0 on failure), r20:21 = rounded gross size.
; Allocations split from the *tail* of the first fitting free node, so
; a split updates only the node's size field (no pointer surgery).
; clobbers r18, r19, r30, r31.
hb_malloc_core:
    adiw r24, HB_HDR + 7       ; gross = round_to_block(size + header)
    andi r24, 0xF8
    movw r20, r24
    ldi r26, lo8(HB_FREE_LO)   ; X = address of the prev "next" cell
    ldi r27, hi8(HB_FREE_LO)
mc_loop:
    ld r30, X+                 ; Z = candidate node
    ld r31, X
    sbiw r26, 1
    cp r30, r1
    cpc r31, r1
    breq mc_fail               ; Z == 0: out of memory
    ld r18, Z                  ; node size
    ldd r19, Z+1
    cp r18, r20
    cpc r19, r21
    brcc mc_take               ; size >= gross
    movw r26, r30              ; prev cell = &node.next
    adiw r26, 2
    rjmp mc_loop
mc_take:
    sub r18, r20               ; remainder
    sbc r19, r21
    cpi r18, 8
    cpc r19, r1
    brcs mc_whole              ; remainder < one block: take whole node
    st Z, r18                  ; node.size = remainder (node stays free)
    std Z+1, r19
    add r30, r18               ; allocation = node + remainder
    adc r31, r19
    rjmp mc_ret
mc_whole:
    add r20, r18               ; gross = full node size
    adc r21, r19
    ldd r18, Z+2               ; *prev = node.next
    ldd r19, Z+3
    st X+, r18
    st X, r19
mc_ret:
    movw r26, r30              ; X = allocation base
    ret
mc_fail:
    ldi r26, 0
    ldi r27, 0
    ret

; hb_write_header: X = base, r20:21 = gross size; leaves X at base.
hb_write_header:
    st X+, r20                 ; header: size
    st X+, r21
    lds r18, HB_CUR_DOM        ; header: owner
    st X+, r18
    ldi r19, 1                 ; header: flags = allocated
    st X+, r19
    sbiw r26, 4
    ret

; malloc_unprot: r24:25 = size -> r24:25 = user pointer (0 on failure)
malloc_unprot:
    call hb_malloc_core
    cp r26, r1
    cpc r27, r1
    breq mu_fail
    call hb_write_header
    movw r24, r26
    adiw r24, HB_HDR
    ret
mu_fail:
    ldi r24, 0
    ldi r25, 0
    ret

; hb_malloc: protected malloc -> also marks the memory map
hb_malloc:
    call hb_malloc_core
    cp r26, r1
    cpc r27, r1
    breq mu_fail
    call hb_write_header       ; leaves owner in r18
    push r26
    push r27
    ; codes: first = (dom << 1) | 1, rest = dom << 1
    lsl r18
    mov r19, r18
    ori r18, 1
    call hb_mmap_mark
    pop r27
    pop r26
    movw r24, r26
    adiw r24, HB_HDR
    ret

; free_unprot: r24:25 = user pointer
free_unprot:
    sbiw r24, HB_HDR
    movw r26, r24
    adiw r26, 2
    lds r18, HB_FREE_LO        ; node.next = old head
    st X+, r18
    lds r18, HB_FREE_HI
    st X, r18
    sts HB_FREE_LO, r24        ; head = node (node.size = header size)
    sts HB_FREE_HI, r25
    ret

; hb_free: ownership check + mark blocks free + free list insert
hb_free:
    sbiw r24, HB_HDR
    movw r26, r24{free_guard}
    call hb_owner_check
    ld r20, X+                 ; gross size from header
    ld r21, X
    sbiw r26, 1
    ldi r18, 0x0F              ; free code for every block
    ldi r19, 0x0F
    call hb_mmap_mark
    movw r26, r24
    adiw r26, 2
    lds r18, HB_FREE_LO
    st X+, r18
    lds r18, HB_FREE_HI
    st X, r18
    sts HB_FREE_LO, r24
    sts HB_FREE_HI, r25
    ret{free_fault}

; chown_unprot: r24:25 = user pointer, r22 = new owner
chown_unprot:
    sbiw r24, HB_HDR
    movw r26, r24
    adiw r26, 2
    ld r18, X                  ; light header-owner check
    lds r19, HB_CUR_DOM
    cpi r19, HB_TRUSTED
    breq cu_store
    cp r18, r19
    brne cu_fail
cu_store:
    st X, r22
    ldi r24, 1
    ret
cu_fail:
    ldi r24, 0
    ret

; hb_change_own: memmap ownership check + nibble rewrite + header update
hb_change_own:
    sbiw r24, HB_HDR
    movw r26, r24{chown_guard}
    call hb_owner_check
    adiw r26, 2
    st X, r22                  ; header owner
    sbiw r26, 2
    ld r20, X+                 ; gross size
    ld r21, X
    sbiw r26, 1
    mov r18, r22               ; codes from the new owner
    lsl r18
    mov r19, r18
    ori r18, 1
    call hb_mmap_mark
    ldi r24, 1
    ret{chown_fault}
"""


def _services():
    """Kernel memory services as jump-table targets.

    Modules reach ``malloc``/``free``/``change_own`` through the trusted
    domain's jump table, i.e. via a cross-domain call — so when the
    library runs, ``cur_dom`` is already the trusted domain.  For
    correct *attribution* ("the software library reads the identity of
    the current active domain"), each service reads the caller's domain
    from the cross-domain frame on top of the safe stack and performs
    the operation on the caller's behalf.
    """
    return """
; hb_noop: the empty exported function micro-benchmarks call across
; domains (isolates the cross-domain mechanism from callee work).
hb_noop:
    ret

; ----------------------------------------------------- kernel services
; hb_caller_dom: r18 = caller domain from the top cross-domain frame.
hb_caller_dom:
    lds r30, HB_SS_LO
    lds r31, HB_SS_HI
    sbiw r30, 5
    ld r18, Z
    ret

hb_malloc_svc:                 ; r24:25 = size -> r24:25 = ptr
    call hb_caller_dom
    lds r19, HB_CUR_DOM
    push r19
    sts HB_CUR_DOM, r18
    call hb_malloc
    pop r19
    sts HB_CUR_DOM, r19
    ret

hb_free_svc:                   ; r24:25 = ptr
    call hb_caller_dom
    lds r19, HB_CUR_DOM
    push r19
    sts HB_CUR_DOM, r18
    call hb_free
    pop r19
    sts HB_CUR_DOM, r19
    ret

hb_change_own_svc:             ; r24:25 = ptr, r22 = new owner
    call hb_caller_dom
    lds r19, HB_CUR_DOM
    push r19
    sts HB_CUR_DOM, r18
    call hb_change_own
    pop r19
    sts HB_CUR_DOM, r19
    ret
"""


def _init(layout):
    table_bytes = layout.memmap_config.table_bytes
    # the free list only ever covers the *dynamic* heap; pinned static
    # data spans above HB_HEAP_DYN_END are never on it
    heap_bytes = layout.heap_dynamic_end - layout.heap_start
    pin_spans = []
    for dom in range(layout.static_data_domains):
        base, _end = layout.static_data_span(dom)
        pin_spans.append(f"""
    ; pin domain {dom}'s static data span at {base:#06x}
    ldi r26, lo8({base})
    ldi r27, hi8({base})
    ldi r20, lo8({layout.static_data_bytes})
    ldi r21, hi8({layout.static_data_bytes})
    ldi r18, {(dom << 1) | 1}
    ldi r19, {dom << 1}
    call hb_mmap_mark""")
    pin_static = "".join(pin_spans)
    return f"""
; -------------------------------------------------------------- hb_init
; Boot-time initialization by the trusted domain: protection state,
; memory map all-free, heap free list = one node spanning the heap.
hb_init:
    ldi r24, HB_TRUSTED
    sts HB_CUR_DOM, r24
    ldi r24, lo8(RAMEND)
    sts HB_SB_LO, r24
    ldi r24, hi8(RAMEND)
    sts HB_SB_HI, r24
    ldi r24, lo8(HB_SS_BASE)
    sts HB_SS_LO, r24
    ldi r24, hi8(HB_SS_BASE)
    sts HB_SS_HI, r24
    ldi r24, 0
    sts HB_FAULT_CODE, r24
    ; memory map: all free (0xFF)
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
    ; heap: one free node covering [HEAP_START, HEAP_END)
    ldi r26, lo8(HB_HEAP_START)
    ldi r27, hi8(HB_HEAP_START)
    ldi r18, lo8({heap_bytes})
    st X+, r18
    ldi r18, hi8({heap_bytes})
    st X+, r18
    st X+, r1                  ; next = 0
    st X+, r1
    ldi r24, lo8(HB_HEAP_START)
    sts HB_FREE_LO, r24
    ldi r24, hi8(HB_HEAP_START)
    sts HB_FREE_HI, r24
    ; mark the safe stack region as a trusted segment
    ldi r26, lo8(HB_SS_BASE)
    ldi r27, hi8(HB_SS_BASE)
    ldi r20, lo8(HB_SS_LIMIT - HB_SS_BASE)
    ldi r21, hi8(HB_SS_LIMIT - HB_SS_BASE)
    ldi r18, 0x0F
    ldi r19, 0x0E              ; later portion of trusted segment
    call hb_mmap_mark{pin_static}
    ret
"""


def runtime_source(layout=None):
    """Full assembly source of the Harbor runtime."""
    layout = layout or SfiLayout()
    parts = [
        "; Harbor SFI runtime (generated by repro.sfi.runtime_asm)",
        "rt_begin:",
        _fault_handlers(),
        _checker(),
        _store_stubs(),
        _safe_stack_stubs(),
        _cross_domain(layout),
        _memmap_mark(),
        _owner_check(),
        _allocator(layout),
        _services(),
        _init(layout),
        "rt_end:",
    ]
    return "\n".join(parts)


def build_runtime(layout=None, origin=0):
    """Assemble the runtime at byte address *origin*; returns a Program."""
    layout = layout or SfiLayout()
    src = ".org {}\n".format(origin) + runtime_source(layout)
    asm = Assembler(symbols=layout.symbols())
    return asm.assemble(src, name="harbor_runtime")


def runtime_code_bytes(layout=None):
    """FLASH bytes the runtime occupies (Table 5 measurements)."""
    program = build_runtime(layout)
    return program.code_bytes
