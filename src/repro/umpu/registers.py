"""UMPU configuration/status registers (paper Table `mmap_config` + §3).

The hardware extensions are programmed through I/O-mapped registers:

=====================  =====================================================
``mem_map_base``       base pointer of the memory-map table in SRAM
``mem_prot_bot/top``   bounds of the memory-map-protected address space
``mem_map_config``     block size, protection mode, global enable
``stack_bound``        run-time-stack write limit of the active domain
``safe_stack_ptr``     next free byte of the safe stack (grows up)
``cur_domain``         identity of the executing domain (status register)
``jt_base``            flash byte address of the co-located jump tables
=====================  =====================================================

"The registers are accessible only by the run-time library loaded in the
trusted domain": any write issued while an untrusted domain is active
raises :class:`~repro.core.faults.ConfigFault`.  Reads are free — the
software library *reads the identity of the current active domain from
the status register* to attribute ``malloc``/``free`` calls.

``mem_map_config`` bit layout (our concrete encoding of "block size and
number of protection domains"):

* bits 2..0 — log2(block size in bytes)
* bit 3     — protection mode: 1 = multi-domain (4-bit), 0 = two-domain
* bits 6..4 — number of domains with jump tables, minus one
* bit 7     — global protection enable

The register is decoded when it is written, not when it is read: its
setter sets ``enabled``, ``block_size_log2``, ``multi_domain``,
``bits_per_entry`` and ``ndomains`` as plain attributes, which the
units read on every bus transaction and call.
"""

from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import ConfigFault
from repro.isa.registers import IoReg


class UmpuRegisters:
    """The register file of the UMPU extensions, as an I/O device.

    Register state is held here (the hardware's flip-flops); the device
    maps the I/O window addresses onto 8-bit slices of that state.
    """

    #: data-space addresses of the register window
    BASE = IoReg.MEM_MAP_BASE_L + 0x20
    END = IoReg.UMPU_CTRL + 0x20  # inclusive

    def __init__(self):
        self.mem_map_base = 0
        self.mem_prot_bot = 0
        self.mem_prot_top = 0
        self.mem_map_config = 0
        self.stack_bound = 0xFFFF
        self.safe_stack_ptr = 0
        self.cur_domain = TRUSTED_DOMAIN
        self.jt_base = 0

    # --- config decoding ---------------------------------------------------
    @property
    def mem_map_config(self):
        return self._mem_map_config

    @mem_map_config.setter
    def mem_map_config(self, value):
        """Every write path (I/O, encode_config, protection_disabled,
        snapshot restore) lands here: decode once, per write."""
        self._mem_map_config = value
        self.enabled = bool(value & 0x80)
        self.block_size_log2 = value & 0x07
        self.multi_domain = bool(value & 0x08)
        self.bits_per_entry = 4 if self.multi_domain else 2
        self.ndomains = ((value >> 4) & 0x07) + 1

    @property
    def block_size(self):
        return 1 << self.block_size_log2

    def encode_config(self, block_size_log2, multi_domain, ndomains,
                      enabled=True):
        value = (block_size_log2 & 0x07) \
            | (0x08 if multi_domain else 0) \
            | (((ndomains - 1) & 0x07) << 4) \
            | (0x80 if enabled else 0)
        self.mem_map_config = value
        return value

    # --- I/O device protocol ---------------------------------------------------
    _BYTE_MAP = {
        IoReg.MEM_MAP_BASE_L: ("mem_map_base", 0),
        IoReg.MEM_MAP_BASE_H: ("mem_map_base", 1),
        IoReg.MEM_PROT_BOT_L: ("mem_prot_bot", 0),
        IoReg.MEM_PROT_BOT_H: ("mem_prot_bot", 1),
        IoReg.MEM_PROT_TOP_L: ("mem_prot_top", 0),
        IoReg.MEM_PROT_TOP_H: ("mem_prot_top", 1),
        IoReg.MEM_MAP_CONFIG: ("mem_map_config", 0),
        IoReg.STACK_BOUND_L: ("stack_bound", 0),
        IoReg.STACK_BOUND_H: ("stack_bound", 1),
        IoReg.SAFE_STACK_PTR_L: ("safe_stack_ptr", 0),
        IoReg.SAFE_STACK_PTR_H: ("safe_stack_ptr", 1),
        IoReg.CUR_DOMAIN: ("cur_domain", 0),
        IoReg.JT_BASE_L: ("jt_base", 0),
        IoReg.JT_BASE_H: ("jt_base", 1),
        IoReg.UMPU_CTRL: ("mem_map_config", 0),  # alias of config for now
    }

    def attach(self, memory):
        """Register this device over its I/O window in *memory*."""
        for io_addr in self._BYTE_MAP:
            memory.io_devices[io_addr + 0x20] = self
        return self

    def _locate(self, data_addr):
        return self._BYTE_MAP[data_addr - 0x20]

    def io_read(self, data_addr):
        attr, byte = self._locate(data_addr)
        return (getattr(self, attr) >> (8 * byte)) & 0xFF

    def io_write(self, data_addr, value):
        if self.cur_domain != TRUSTED_DOMAIN:
            raise ConfigFault(
                "UMPU register 0x{:02x}".format(data_addr - 0x20),
                domain=self.cur_domain)
        attr, byte = self._locate(data_addr)
        old = getattr(self, attr)
        if byte:
            new = (old & 0x00FF) | ((value & 0xFF) << 8)
        else:
            new = (old & 0xFF00) | (value & 0xFF)
        setattr(self, attr, new)

    # --- descriptive dump (Table 2 reproduction) ---------------------------------
    REGISTER_TABLE = (
        ("mem_map_base", "Memory map base pointer"),
        ("mem_prot_bot", "Lower bound of protected address space"),
        ("mem_prot_top", "Upper bound of protected address space"),
        ("mem_map_config", "Configure block size and domains"),
        ("stack_bound", "Run-time stack write limit (set on x-domain call)"),
        ("safe_stack_ptr", "Safe stack pointer (grows up)"),
        ("cur_domain", "Identity of the executing domain"),
        ("jt_base", "Base of the co-located jump tables in flash"),
    )

    def dump(self):
        return {name: getattr(self, name)
                for name, _desc in self.REGISTER_TABLE}
