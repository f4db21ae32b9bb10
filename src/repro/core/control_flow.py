"""Control Flow Manager (paper §3): jump tables and cross-domain calls.

Control may leave a domain only through functions exported by other
domains; all such calls are redirected through per-domain *jump tables*
in flash.  The jump-table geometry makes both checks the paper relies on
a single compare/divide:

* a valid cross-domain target must lie inside the jump-table region
  (one compare against the base; the upper bound check is folded into
  the domain-id range check), and
* the callee domain id is ``(target - base) / page_size`` — if that
  exceeds the configured number of domains, the target was beyond the
  table and an exception is raised.

:class:`CrossDomainManager` is the golden model of the paper's "cross
domain state machine": it tracks the current domain, swaps stack
bounds, and pushes/pops the 5-byte frames on the safe stack.  The UMPU
domain tracker and the SFI software stubs both implement this model.
"""

from dataclasses import dataclass, field

from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import JumpTableFault

#: Default jump-table page: 128 exported functions of one 4-byte ``jmp``
#: each.  The paper allots "one complete page of flash" per domain and
#: notes the 128-function limit.
JT_ENTRY_BYTES = 4
JT_ENTRIES_PER_DOMAIN = 128


@dataclass(frozen=True)
class JumpTable:
    """Geometry of the co-located per-domain jump tables in flash.

    Domain *d*'s table occupies
    ``[base + d*page_bytes, base + (d+1)*page_bytes)``; entry *i* of the
    table is a ``jmp`` to the *i*-th exported function.
    """

    base: int                    # flash byte address
    ndomains: int                # number of domains with tables
    entries_per_domain: int = JT_ENTRIES_PER_DOMAIN
    entry_bytes: int = JT_ENTRY_BYTES
    #: bytes of one domain's table; derived once, at construction
    page_bytes: int = field(init=False, repr=False, compare=False)
    #: first byte address past the whole jump-table region
    end: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        page_bytes = self.entries_per_domain * self.entry_bytes
        object.__setattr__(self, "page_bytes", page_bytes)
        object.__setattr__(self, "end",
                           self.base + self.ndomains * page_bytes)

    @property
    def total_flash_bytes(self):
        """FLASH the tables occupy (Table `swlibsize` row "Jump Table")."""
        return self.ndomains * self.page_bytes

    def contains(self, byte_addr):
        return self.base <= byte_addr < self.end

    def entry_addr(self, domain, index):
        """Flash byte address of entry *index* of *domain*'s table."""
        if not 0 <= index < self.entries_per_domain:
            raise ValueError("jump table entry {} out of range".format(index))
        if not 0 <= domain < self.ndomains:
            raise ValueError("domain {} has no jump table".format(domain))
        return self.base + domain * self.page_bytes + index * self.entry_bytes

    def classify(self, byte_addr):
        """Map a call target to ``(domain, entry_index)``.

        Exactly the hardware algorithm: compare against the base, then
        divide the offset by the page size; a quotient beyond the
        domain count means the target overran the table.
        Raises :class:`JumpTableFault` for misaligned or out-of-range
        targets.
        """
        if byte_addr < self.base:
            raise JumpTableFault(byte_addr, reason="below jump table base")
        offset = byte_addr - self.base
        domain = offset // self.page_bytes
        if domain >= self.ndomains:
            raise JumpTableFault(byte_addr,
                                 reason="beyond jump table upper bound")
        within = offset % self.page_bytes
        if within % self.entry_bytes:
            raise JumpTableFault(byte_addr,
                                 reason="misaligned jump table entry")
        return domain, within // self.entry_bytes


@dataclass
class DomainContext:
    """Per-activation protection state saved across cross-domain calls."""

    domain: int
    stack_bound: int


class CrossDomainManager:
    """Golden model of cross-domain call/return domain tracking.

    The manager answers two questions the protection machinery needs at
    every instant (paper §3.2): *which domain is executing now?* and
    *where is its stack bound?* — and enforces that cross-domain entry
    happens only through the jump table.

    ``call_depths`` realizes the hardware's cross-domain state machine:
    a counter per open cross-domain frame counts ordinary nested calls,
    so the machinery knows which ``ret`` closes the frame.
    """

    def __init__(self, jump_table, safe_stack,
                 initial_domain=TRUSTED_DOMAIN, initial_stack_bound=0xFFFF):
        self.jump_table = jump_table
        self.safe_stack = safe_stack
        self.cur_domain = initial_domain
        self.stack_bound = initial_stack_bound
        self.call_depths = []
        #: domain id -> (code_start_byte, code_end_byte) exclusive end;
        #: recorded at load time, used to confine direct calls.
        self.code_regions = {}

    # ------------------------------------------------------------------
    def register_code_region(self, domain, start_byte, end_byte):
        """Record where *domain*'s code lives in flash (load time)."""
        self.code_regions[domain] = (start_byte, end_byte)

    def classify_call(self, target_byte_addr):
        """Classify a call target for the current domain.

        Returns ``"cross"`` for jump-table targets and ``"local"`` for
        targets within the current domain's code region (the trusted
        domain may call anywhere).  Any other target is an escape
        attempt and raises :class:`JumpTableFault`.
        """
        if self.jump_table.contains(target_byte_addr):
            return "cross"
        if self.cur_domain == TRUSTED_DOMAIN:
            return "local"
        region = self.code_regions.get(self.cur_domain)
        if region and region[0] <= target_byte_addr < region[1]:
            return "local"
        raise JumpTableFault(
            target_byte_addr, domain=self.cur_domain,
            reason="direct call escaping the domain's code region")

    def cross_domain_call(self, target_byte_addr, ret_word_addr, sp):
        """Perform the protection side of a cross-domain call.

        Verifies the target, pushes the 5-byte frame (previous domain,
        previous stack bound, return address), activates the callee
        domain, and copies SP into the new stack bound.  Returns the
        callee domain id.
        """
        callee, _index = self.jump_table.classify(target_byte_addr)
        self.safe_stack.push_cross_domain(self.cur_domain, self.stack_bound,
                                          ret_word_addr)
        self.call_depths.append(0)
        self.cur_domain = callee
        self.stack_bound = sp
        return callee

    def local_call(self):
        """Note an ordinary (intra-domain) call under the current frame."""
        if self.call_depths:
            self.call_depths[-1] += 1

    def on_return(self):
        """Process a ``ret``.

        Returns the :class:`~repro.core.safe_stack.CrossDomainFrame` if
        this return closes a cross-domain frame (the caller's domain and
        stack bound are restored), else None for an ordinary return.
        """
        if not self.call_depths:
            return None
        if self.call_depths[-1] > 0:
            self.call_depths[-1] -= 1
            return None
        self.call_depths.pop()
        frame = self.safe_stack.pop_cross_domain()
        self.cur_domain = frame.prev_domain
        self.stack_bound = frame.prev_stack_bound
        return frame

    @property
    def nesting(self):
        """Open cross-domain frames (chained calls A->B->C give 2)."""
        return len(self.call_depths)
