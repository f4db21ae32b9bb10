"""Assembled program image: flash words, symbols, relocations, listing."""

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Reloc:
    """A relocation: instruction operand that refers to a symbol.

    Recorded by the assembler so that tools which re-layout code (the SFI
    binary rewriter) can patch references after moving instructions.

    Attributes
    ----------
    byte_addr:
        Flash byte address of the instruction carrying the reference.
    func:
        How the value was folded into the operand: ``rel7``/``rel12``
        (signed word offsets), ``addr22`` (word address of jmp/call),
        ``addr16`` (data address of lds/sts), ``lo8``/``hi8``/
        ``pm_lo8``/``pm_hi8`` (ldi immediates).
    symbol:
        Referenced symbol name.
    addend:
        Constant added to the symbol before folding.
    """

    byte_addr: int
    func: str
    symbol: str
    addend: int = 0


@dataclass
class Program:
    """An assembled flash image plus its metadata.

    ``words`` maps *word* addresses to 16-bit values; unwritten flash
    reads as 0xFFFF (erased), like a real part.
    """

    words: dict = field(default_factory=dict)
    symbols: dict = field(default_factory=dict)
    relocs: list = field(default_factory=list)
    listing: dict = field(default_factory=dict)  # word addr -> source line
    source_name: str = "<asm>"

    def word(self, word_addr):
        return self.words.get(word_addr, 0xFFFF)

    def copy(self):
        """A copy whose words, symbols, relocs and listing are its own."""
        return replace(self, words=dict(self.words),
                       symbols=dict(self.symbols), relocs=list(self.relocs),
                       listing=dict(self.listing))

    def set_word(self, word_addr, value):
        self.words[word_addr] = value & 0xFFFF

    @property
    def size_bytes(self):
        """Bytes of flash actually occupied (highest written word)."""
        if not self.words:
            return 0
        return 2 * (max(self.words) + 1)

    @property
    def code_bytes(self):
        """Bytes of flash written (sparse count, ignoring gaps)."""
        return 2 * len(self.words)

    def symbol(self, name):
        """Byte address of symbol *name* (raises KeyError)."""
        return self.symbols[name]

    def label_at(self, byte_addr):
        """Return a symbol defined exactly at *byte_addr*, if any."""
        for name, addr in self.symbols.items():
            if addr == byte_addr:
                return name
        return None

    def to_flash(self, flash_words):
        """Render the image into a flat list of *flash_words* words."""
        image = [0xFFFF] * flash_words
        for addr, value in self.words.items():
            if addr >= flash_words:
                raise ValueError(
                    "program word at 0x{:05x} beyond flash".format(addr))
            image[addr] = value
        return image

    def extent(self):
        """(first, last) occupied word addresses, or (0, -1) if empty."""
        if not self.words:
            return 0, -1
        return min(self.words), max(self.words)
