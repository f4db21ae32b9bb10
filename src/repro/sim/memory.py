"""Raw memory model: unified data space (registers + I/O + SRAM) and flash.

This layer has no protection logic; it is the physical memory array the
bus and the functional units operate on.  The AVR maps its 32 registers
and 64 I/O registers into the bottom of the data space, which is why a
single byte array covers everything from r0 to RAMEND.
"""

from repro.isa.registers import ATMEGA103, IoReg
from repro.sim.errors import InvalidAccess


class Memory:
    """Physical memory of the part: data space bytes + flash words."""

    def __init__(self, geometry=ATMEGA103):
        self.geometry = geometry
        self.data = bytearray(geometry.data_end + 1)
        self.flash = [0xFFFF] * geometry.flash_words
        #: data-space address -> device; devices observe/override the raw
        #: byte at that address (used for the UMPU configuration
        #: registers, which live in the I/O window).
        self.io_devices = {}
        #: callables notified with the word address of every flash
        #: write that changes a word, or with None when all of flash
        #: changed; the core registers one to drop stale decode-cache
        #: entries, so no flash change can leave a stale decode behind.
        self.flash_listeners = []

    # --- data space --------------------------------------------------
    def read_data(self, addr):
        if not 0 <= addr <= self.geometry.data_end:
            raise InvalidAccess(addr)
        return self.data[addr]

    def write_data(self, addr, value):
        if not 0 <= addr <= self.geometry.data_end:
            raise InvalidAccess(addr)
        self.data[addr] = value & 0xFF

    def read_word_data(self, addr):
        """Little-endian 16-bit read (low byte at *addr*)."""
        return self.read_data(addr) | (self.read_data(addr + 1) << 8)

    def write_word_data(self, addr, value):
        """Little-endian 16-bit write (low byte at *addr*).

        All-or-nothing like :meth:`fill_data`: both addresses are
        bounds-checked before either byte lands, so a word straddling
        the end of the data space writes nothing at all (instead of
        tearing: low byte written, then the high-byte check raises).
        """
        if not 0 <= addr <= self.geometry.data_end:
            raise InvalidAccess(addr)
        if addr + 1 > self.geometry.data_end:
            raise InvalidAccess(addr + 1)
        self.data[addr] = value & 0xFF
        self.data[addr + 1] = (value >> 8) & 0xFF

    def fill_data(self, addr, data):
        """Bulk-load *data* bytes starting at data address *addr*.

        One bounds check for the whole block, then a slice assignment —
        all-or-nothing: an out-of-range block writes no bytes at all."""
        buf = bytes(b & 0xFF for b in data)
        if not buf:
            return
        if not 0 <= addr <= self.geometry.data_end:
            raise InvalidAccess(addr)
        if addr + len(buf) - 1 > self.geometry.data_end:
            raise InvalidAccess(self.geometry.data_end + 1)
        self.data[addr:addr + len(buf)] = buf

    # --- register file ------------------------------------------------
    def reg(self, n):
        return self.data[n]

    def set_reg(self, n, value):
        self.data[n] = value & 0xFF

    def reg_pair(self, n):
        return self.data[n] | (self.data[n + 1] << 8)

    def set_reg_pair(self, n, value):
        # callers reach this with data-space addresses too (the sp/sreg
        # properties address the I/O window through it), so it needs the
        # same all-or-nothing guard as write_word_data: a pair at
        # data_end must not write the low byte before an IndexError
        if not 0 <= n or n + 1 > self.geometry.data_end:
            raise InvalidAccess(n if n < 0 else n + 1)
        self.data[n] = value & 0xFF
        self.data[n + 1] = (value >> 8) & 0xFF

    # --- named I/O ------------------------------------------------------
    @property
    def sp(self):
        return self.reg_pair(IoReg.SPL + 0x20)

    @sp.setter
    def sp(self, value):
        self.set_reg_pair(IoReg.SPL + 0x20, value)

    @property
    def sreg(self):
        return self.data[IoReg.SREG + 0x20]

    @sreg.setter
    def sreg(self, value):
        self.data[IoReg.SREG + 0x20] = value & 0xFF

    # --- flash -----------------------------------------------------------
    def read_flash_word(self, word_addr):
        if not 0 <= word_addr < len(self.flash):
            raise InvalidAccess(word_addr * 2)
        return self.flash[word_addr]

    def write_flash_word(self, word_addr, value):
        """Write one flash word and notify each listener.  A write of
        the value already there changes nothing, and no listener hears
        of it (re-emitting the jump table keeps every decode)."""
        if not 0 <= word_addr < len(self.flash):
            raise InvalidAccess(word_addr * 2)
        value &= 0xFFFF
        if self.flash[word_addr] == value:
            return
        self.flash[word_addr] = value
        for listener in self.flash_listeners:
            listener(word_addr)

    def replace_flash(self, words):
        """Replace all of flash with *words* (one value per flash word)
        and tell each listener once that all of flash changed.  When
        the words equal the live ones nothing changed and no listener
        hears of it (restoring the same image keeps every decode and
        compiled region)."""
        words = list(words)
        if words == self.flash:
            return
        self.flash[:] = words
        for listener in self.flash_listeners:
            listener(None)

    def read_flash_byte(self, byte_addr):
        word = self.read_flash_word(byte_addr >> 1)
        return (word >> 8) & 0xFF if byte_addr & 1 else word & 0xFF

    def load_program(self, program):
        """Copy an assembled :class:`repro.asm.Program` into flash.

        Bulk path: one bounds check over the image's extent, direct word
        stores, then the flash listeners are notified per written word —
        the same invalidation the per-word write path performs, so no
        stale decode can survive a (re)load."""
        words = program.words
        if not words:
            return
        lo, hi = min(words), max(words)
        if lo < 0:
            raise InvalidAccess(lo * 2)
        if hi >= len(self.flash):
            raise InvalidAccess(hi * 2)
        flash = self.flash
        for word_addr, value in words.items():
            flash[word_addr] = value & 0xFFFF
        for listener in self.flash_listeners:
            for word_addr in words:
                listener(word_addr)
