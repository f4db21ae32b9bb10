"""AVR instruction-set definition: geometry, opcodes, binary encoding.

This subpackage is a self-contained description of the subset of the AVR
(ATmega103-class) instruction set used throughout the reproduction.  It
knows nothing about simulation; :mod:`repro.sim` interprets these
definitions and :mod:`repro.asm` assembles text into them.
"""

from repro.isa.registers import (
    SREG_BITS,
    AvrGeometry,
    ATMEGA103,
    IoReg,
    pair_name,
)
from repro.isa.opcodes import (
    InstrSpec,
    Operand,
    OperandKind,
    SPEC_BY_MNEMONIC,
    SPECS,
    spec_for,
)
from repro.isa.encoding import (
    DecodedInstr,
    DecodeError,
    EncodeError,
    decode_words,
    encode,
)

__all__ = [
    "SREG_BITS",
    "AvrGeometry",
    "ATMEGA103",
    "IoReg",
    "pair_name",
    "InstrSpec",
    "Operand",
    "OperandKind",
    "SPEC_BY_MNEMONIC",
    "SPECS",
    "spec_for",
    "DecodedInstr",
    "DecodeError",
    "EncodeError",
    "decode_words",
    "encode",
]
