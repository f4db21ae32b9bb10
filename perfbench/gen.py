"""Seeded input generators for the repository benchmark.

Every generator takes the seed as an argument and returns plain data:
message descriptions, assembly sources and timer parameters.  The
workloads feed only these generated inputs into the program, so the
same seed always gives the same inputs.

Mix weights and ranges are fixed per workload and the seed draws the
individual inputs from them.  Kinds are placed in exact proportions
(the seed picks their order), so a pass of the stream does the same
amount of each kind of work on every seed and the figures of two seeds
stay comparable.

``HELD_OUT_SEED`` is never used while tuning the benchmark: a later
change that claims a gain must show it on this seed too.
"""

import random

#: seed reserved for confirming claims; not used to tune anything
HELD_OUT_SEED = 7919

# ----------------------------------------------------------------------
# node_sfi / node_umpu: the SOS message stream
# ----------------------------------------------------------------------
#: messages per sampling round of the repository's Surge collection model
#: (``surge_mix.py`` counts them): ``origin`` is a Surge packet, the work
#: of a pipeline message; ``relay`` is Tree routing forwarding a child's
#: packet, an own-state update like a counter message
SURGE_ROUND = {"origin": 6, "relay": 5}
#: wild messages: the Surge bug's stray store, about 1% of the traffic
WILD_SHARE = 0.01
#: filter messages (a store-free ALU loop) have no counterpart in the
#: Surge model: this share is not derived from anything and unverified
FILTER_SHARE = 0.10


def _node_mix():
    rest = 1.0 - WILD_SHARE - FILTER_SHARE
    total = SURGE_ROUND["origin"] + SURGE_ROUND["relay"]
    return (("pipeline", rest * SURGE_ROUND["origin"] / total),
            ("counter", rest * SURGE_ROUND["relay"] / total),
            ("filter", FILTER_SHARE), ("wild", WILD_SHARE))


#: share of each message kind in one pass of the stream
NODE_MIX = _node_mix()
#: messages in one pass of the stream
NODE_PASS = 1000
#: bytes the producer fills into its packet; the packet itself always
#: has the largest size
FILL_RANGE = (4, 12)
#: loop iterations of a filter message
FILTER_RANGE = (8, 40)
#: the counter modules; a counter message goes to one of them
COUNTERS = ("counter_a", "counter_b")


def filter_model(state, iterations):
    """Host model of the filter handler: a Galois LFSR stepped
    *iterations* times from *state* (taps 0xB8)."""
    for _ in range(iterations):
        carry = state & 1
        state >>= 1
        if carry:
            state ^= 0xB8
    return state


def pipeline_model(fill):
    """Host model of a pipeline message: the producer fills the packet
    with fill, fill-1, ..., 1 and the consumer returns their 8-bit sum."""
    return (fill * (fill + 1) // 2) & 0xFF


def message_stream(seed, n=NODE_PASS, mix=NODE_MIX):
    """One pass of the node message stream.

    Returns a list of ``(kind, dst, arg)``.  ``arg`` is the message
    argument, except for counter and wild messages, whose argument is a
    cell address only known after set-up: there it names the counter
    whose cell is meant (a wild message's victim)."""
    rng = random.Random(seed)
    kinds = []
    for kind, share in mix:
        kinds.extend([kind] * int(round(n * share)))
    kinds = kinds[:n]
    while len(kinds) < n:
        kinds.append(mix[0][0])
    rng.shuffle(kinds)
    stream = []
    for kind in kinds:
        if kind == "counter":
            stream.append((kind, rng.choice(COUNTERS), None))
        elif kind == "filter":
            state = rng.randint(1, 255)
            iterations = rng.randint(*FILTER_RANGE)
            stream.append((kind, "filter", (state << 8) | iterations))
        elif kind == "pipeline":
            stream.append((kind, "producer", rng.randint(*FILL_RANGE)))
        else:
            stream.append((kind, "wild", rng.choice(COUNTERS)))
    return stream


# ----------------------------------------------------------------------
# irq_node: timer period and mainline
# ----------------------------------------------------------------------
#: nominal timer period in cycles; the seed moves it by at most 1%
IRQ_PERIOD = 1200
#: LFSR steps per sample of the mainline
IRQ_TAPS = 3


def irq_params(seed):
    """Timer period and mainline data of the interrupt-driven node.  The
    seed leaves the mainline's instruction mix alone, so that host time
    per interrupt stays comparable between seeds."""
    rng = random.Random(seed)
    return {
        "period": IRQ_PERIOD + rng.randint(-IRQ_PERIOD // 100,
                                           IRQ_PERIOD // 100),
        "lfsr_seed": rng.randint(1, 255),
        "ring_mask": rng.choice((0x1F, 0x3F)),
    }


IRQ_TICKS = 0x0700      # 16-bit ISR tick counter
IRQ_LAST = 0x0702       # latest sample, copied by the ISR
IRQ_RING = 0x0800       # ring buffer base (64-byte aligned)


def irq_source(params):
    """The timer-driven node: a vector table, a mainline that samples
    an LFSR "sensor" into a ring buffer forever, and a timer ISR that
    counts ticks and copies the latest sample."""
    step = ("    lsr r24\n"
            "    brcc s{0}\n"
            "    eor r24, r20\n"
            "s{0}:\n")
    taps = "".join(step.format(i) for i in range(IRQ_TAPS))
    return (
        "    jmp main\n"
        "    jmp tick_isr\n"
        "main:\n"
        "    ldi r28, lo8({ring})\n"
        "    ldi r29, hi8({ring})\n"
        "    ldi r24, {lfsr}\n"
        "    ldi r20, 0xB8\n"
        "    clr r2\n"
        "    clr r3\n"
        "    sei\n"
        "sample:\n"
        "{taps}"
        "    st Y+, r24\n"
        "    andi r28, {mask}\n"
        "    add r2, r24\n"
        "    adc r3, r1\n"
        "    rjmp sample\n"
        "tick_isr:\n"
        "    push r16\n"
        "    in r16, SREG\n"
        "    push r16\n"
        "    lds r16, {ticks}\n"
        "    subi r16, 0xFF\n"
        "    sts {ticks}, r16\n"
        "    lds r16, {ticks_hi}\n"
        "    sbci r16, 0xFF\n"
        "    sts {ticks_hi}, r16\n"
        "    sts {last}, r24\n"
        "    pop r16\n"
        "    out SREG, r16\n"
        "    pop r16\n"
        "    reti\n").format(
            ring=IRQ_RING, lfsr=params["lfsr_seed"], taps=taps,
            mask=params["ring_mask"], ticks=IRQ_TICKS,
            ticks_hi=IRQ_TICKS + 1, last=IRQ_LAST)


# ----------------------------------------------------------------------
# admit_modules: well-formed module sources
# ----------------------------------------------------------------------
#: generated modules per pass (the four examples ride along)
ADMIT_GENERATED = 28


def module_source(rng, index):
    """One well-formed module written against its static data span
    SDATA_D0: constant-address and page-pinned loop stores the prover
    can elide, a store through a pointer read from memory that keeps
    its check, internal calls, a kernel call, and a routine labelled as
    an interrupt handler that shares a counter with the mainline (the
    mainline update is guarded by cli/sei in some modules and racy in
    others).

    Returns ``(source, expect)``: ``expect`` describes what the ``init``
    export must leave behind (its result and the span bytes it wrote).
    """
    fill_off = rng.randrange(0x00, 0x20)
    fill_len = rng.randint(6, 12)
    fill_val = rng.randint(1, 255)
    set_index = rng.randrange(0x30, 0x40)
    set_val = rng.randint(1, 255)
    ptr_cell = rng.randrange(0x40, 0x48) * 2       # pointer stored here
    ptr_target = rng.randrange(0x60, 0x80)         # where it points
    ptr_val = rng.randint(1, 255)
    counter = rng.randrange(0x90, 0xA0)
    guarded = rng.random() < 0.5
    isr_name = rng.choice(("tick_isr", "isr_tick", "__vector_{}".format(
        rng.randint(2, 9))))
    ptr_reg = rng.choice(("X", "Y", "Z"))
    lo_reg, hi_reg = {"X": ("r26", "r27"), "Y": ("r28", "r29"),
                      "Z": ("r30", "r31")}[ptr_reg]
    save = ptr_reg == "Y"   # Y is callee-saved

    routines = {}
    routines["g_fill"] = (
        "g_fill:\n"
        "    ldi r26, lo8(G_FILL)\n"
        "    ldi r27, hi8(G_FILL)\n"
        "    ldi r24, {val}\n"
        "    ldi r25, {n}\n"
        "gf_loop_{i}:\n"
        "    ldi r27, hi8(G_FILL)\n"
        "    st X+, r24\n"
        "    dec r25\n"
        "    brne gf_loop_{i}\n"
        "    ret\n").format(val=fill_val, n=fill_len, i=index)
    routines["g_set"] = (
        "g_set:\n"
        "    andi r24, 0x3F\n"
        "    ldi r30, lo8(SDATA_D0)\n"
        "    ldi r31, hi8(SDATA_D0)\n"
        "    add r30, r24\n"
        "    st Z, r22\n"
        "    ret\n")
    routines["g_ptr"] = (
        "g_ptr:\n"
        + ("    push r28\n    push r29\n" if save else "")
        + "    lds {lo}, G_PTR\n"
          "    lds {hi}, G_PTR + 1\n"
          "    st {reg}, r24\n".format(lo=lo_reg, hi=hi_reg, reg=ptr_reg)
        + ("    pop r29\n    pop r28\n" if save else "")
        + "    ret\n")
    routines[isr_name] = (
        "{name}:\n"
        "    lds r24, G_COUNT\n"
        "    inc r24\n"
        "    sts G_COUNT, r24\n"
        "    ret\n").format(name=isr_name)
    routines["g_update"] = (
        "g_update:\n"
        + ("    cli\n" if guarded else "")
        + "    lds r24, G_COUNT\n"
          "    subi r24, 0xFF\n"
          "    sts G_COUNT, r24\n"
        + ("    sei\n" if guarded else "")
        + "    ret\n")
    order = list(routines)
    rng.shuffle(order)

    header = (
        "; generated module {i}\n"
        ".equ G_FILL = SDATA_D0 + {fill}\n"
        ".equ G_PTR = SDATA_D0 + {pcell}\n"
        ".equ G_COUNT = SDATA_D0 + {count}\n"
        ".equ G_TARGET = SDATA_D0 + {target}\n").format(
            i=index, fill=fill_off, pcell=ptr_cell, count=counter,
            target=ptr_target)
    init = (
        "init:\n"
        "    call g_fill\n"
        "    ldi r24, {si}\n"
        "    ldi r22, {sv}\n"
        "    call g_set\n"
        "    ldi r24, lo8(G_TARGET)\n"
        "    sts G_PTR, r24\n"
        "    ldi r24, hi8(G_TARGET)\n"
        "    sts G_PTR + 1, r24\n"
        "    ldi r24, {pv}\n"
        "    call g_ptr\n"
        "    sts G_COUNT, r1\n"
        "    call {isr}\n"
        "    call g_update\n"
        "    call KERNEL_NOOP\n"
        "    lds r24, G_COUNT\n"
        "    clr r25\n"
        "    ret\n").format(si=set_index, sv=set_val, pv=ptr_val,
                            isr=isr_name)
    source = header + init + "".join(routines[name] for name in order)
    writes = {fill_off + k: fill_val for k in range(fill_len)}
    writes[set_index & 0x3F] = set_val
    writes[ptr_target] = ptr_val
    writes[counter] = 2
    expect = {"result": 2, "writes": writes, "ptr_cell": ptr_cell,
              "ptr_target": ptr_target}
    return source, expect


def admission_set(seed, n=ADMIT_GENERATED):
    """The generated modules of one admission pass:
    ``[(name, source, expect), ...]``."""
    rng = random.Random(seed)
    return [("gen{}".format(i),) + module_source(rng, i) for i in range(n)]
