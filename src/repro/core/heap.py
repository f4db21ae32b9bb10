"""Dynamic memory with memory-map bookkeeping (paper §2.4).

The software library's ``malloc``/``free``/``change_own`` must keep the
memory map current at all times and must enforce that *only the block
owner may free or transfer memory* — the paper calls this out as the
guard against one module freeing or hijacking another module's memory.

The allocator is a first-fit free-list over block-aligned segments, the
same design as the assembly runtime in :mod:`repro.sfi.runtime_asm`.
Segment lengths are never stored in headers: ``free`` recovers the
length from the memory map's layout encoding (start flags), which is the
paper's reason for encoding layout in the map at all.
"""

from dataclasses import dataclass

from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import OwnershipFault


@dataclass
class FreeRange:
    addr: int
    nbytes: int

    @property
    def end(self):
        return self.addr + self.nbytes


class HeapError(Exception):
    """Allocator misuse that is not a protection fault (bad free etc.)."""


class HarborHeap:
    """First-fit heap over [start, end) keeping a MemoryMap consistent."""

    def __init__(self, memmap, start, end):
        cfg = memmap.config
        if start % cfg.block_size or end % cfg.block_size:
            raise ValueError("heap bounds must be block aligned")
        if not (cfg.contains(start) and cfg.contains(end - 1)):
            raise ValueError("heap must lie inside the protected region")
        self.memmap = memmap
        self.start = start
        self.end = end
        self.free_list = [FreeRange(start, end - start)]
        #: statistics for tests/benchmarks
        self.stats = {"malloc": 0, "free": 0, "change_own": 0, "failed": 0}

    @property
    def block_size(self):
        return self.memmap.config.block_size

    def _round_up(self, nbytes):
        bs = self.block_size
        return (max(nbytes, 1) + bs - 1) // bs * bs

    # ------------------------------------------------------------------
    def malloc(self, nbytes, domain):
        """Allocate *nbytes* (rounded up to blocks) owned by *domain*.

        Returns the segment address, or None when no fit exists (the
        embedded convention: out-of-memory is an expected condition the
        caller must check — forgetting to is exactly the Surge bug).
        """
        need = self._round_up(nbytes)
        for i, fr in enumerate(self.free_list):
            if fr.nbytes >= need:
                addr = fr.addr
                if fr.nbytes == need:
                    del self.free_list[i]
                else:
                    fr.addr += need
                    fr.nbytes -= need
                self.memmap.set_segment(addr, need, domain)
                self.stats["malloc"] += 1
                return addr
        self.stats["failed"] += 1
        return None

    # ------------------------------------------------------------------
    def _check_owner(self, addr, domain, operation):
        perm = self.memmap.permission(self.memmap.config.block_of(addr))
        if not perm.is_start:
            raise HeapError(
                "0x{:04x} is not the start of an allocation".format(addr))
        if perm.owner == TRUSTED_DOMAIN and self._is_free(addr):
            raise HeapError("0x{:04x} is already free".format(addr))
        if domain != TRUSTED_DOMAIN and perm.owner != domain:
            raise OwnershipFault(addr, domain, perm.owner, operation)
        return perm.owner

    def _is_free(self, addr):
        return any(fr.addr <= addr < fr.end for fr in self.free_list)

    def free(self, addr, domain):
        """Free the segment at *addr*; only its owner (or the trusted
        domain) may do so.  Returns the freed size in bytes."""
        if not self.start <= addr < self.end:
            raise HeapError("free of non-heap address 0x{:04x}".format(addr))
        self._check_owner(addr, domain, "free")
        nblocks = self.memmap.free_segment(addr)
        nbytes = nblocks * self.block_size
        self._insert_free(FreeRange(addr, nbytes))
        self.stats["free"] += 1
        return nbytes

    def _insert_free(self, new):
        """Insert sorted and coalesce with neighbours."""
        out = []
        placed = False
        for fr in self.free_list:
            if not placed and new.addr < fr.addr:
                out.append(new)
                placed = True
            out.append(fr)
        if not placed:
            out.append(new)
        merged = [out[0]]
        for fr in out[1:]:
            last = merged[-1]
            if last.end == fr.addr:
                last.nbytes += fr.nbytes
            else:
                merged.append(fr)
        self.free_list = merged

    # ------------------------------------------------------------------
    def change_own(self, addr, new_domain, domain):
        """Transfer the segment at *addr* to *new_domain*.

        Only the current owner (or trusted) may transfer; this is how
        message payloads move between SOS modules without copying.
        """
        if not self.start <= addr < self.end:
            raise HeapError(
                "change_own of non-heap address 0x{:04x}".format(addr))
        self._check_owner(addr, domain, "change_own")
        self.memmap.change_owner(addr, new_domain)
        self.stats["change_own"] += 1

    # ------------------------------------------------------------------
    def owner_of(self, addr):
        return self.memmap.owner_of(addr)

    def allocation_size(self, addr):
        """Size in bytes of the allocation starting at *addr*."""
        return self.memmap.segment_length(addr) * self.block_size

    @property
    def free_bytes(self):
        return sum(fr.nbytes for fr in self.free_list)

    def check_invariants(self):
        """Assert allocator/memmap consistency (used by property tests).

        * free-list ranges are sorted, non-overlapping, coalesced and
          inside the heap;
        * every free-list byte's block is marked free in the memory map;
        * every non-free heap block belongs to a segment whose start
          flag is set.
        """
        prev_end = self.start - 1
        for fr in self.free_list:
            assert self.start <= fr.addr < fr.end <= self.end
            assert fr.addr > prev_end, "free list unsorted/overlapping"
            assert fr.addr != prev_end + 1 or prev_end == self.start - 1, \
                "free list not coalesced"
            prev_end = fr.end - 1
            assert fr.addr % self.block_size == 0
            assert fr.nbytes % self.block_size == 0
        cfg = self.memmap.config
        free_blocks = set()
        for fr in self.free_list:
            first, last = cfg.blocks_spanning(fr.addr, fr.nbytes)
            free_blocks.update(range(first, last + 1))
        first_heap, last_heap = cfg.blocks_spanning(self.start,
                                                    self.end - self.start)
        expecting_start = True
        for block in range(first_heap, last_heap + 1):
            perm = self.memmap.permission(block)
            if block in free_blocks:
                assert self.memmap.get_code(block) == self.memmap.encoding.free, \
                    "free block {} not marked free".format(block)
                expecting_start = True
            else:
                if expecting_start:
                    assert perm.is_start, \
                        "allocated run at block {} lacks start flag".format(
                            block)
                expecting_start = False
