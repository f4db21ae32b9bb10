"""Cross-domain linker: builds the per-domain jump tables (paper §3.1).

"A linker parses the set of functions exported by a domain and writes
them to a jump table in flash memory.  The jump table is similar in
design to the processor interrupt vector table.  Each entry ... is an
instruction to jump to a valid exported function."  Empty entries jump
to an exception routine so a call to an unpublished slot traps instead
of falling through.

The linker is independent of how subscription happens (static or
dynamic); here it emits ``jmp`` words directly into a flash image.
"""

from dataclasses import dataclass, field

from repro.core.control_flow import JumpTable
from repro.isa.encoding import encode


@dataclass
class ExportRecord:
    domain: int
    index: int
    name: str
    target: int  # byte address of the exported function

    @property
    def entry_label(self):
        return "jt_d{}_{}".format(self.domain, self.name)


@dataclass
class CrossDomainLinker:
    """Builds and maintains the co-located jump tables."""

    jump_table: JumpTable
    exception_target: int = 0  # where empty entries jump (trap routine)
    _exports: dict = field(default_factory=dict)   # (domain,index) -> rec
    _by_name: dict = field(default_factory=dict)   # (domain,name) -> rec
    #: domain -> (the page's links, its words): the expected table image
    _pages: dict = field(default_factory=dict)

    def export(self, domain, name, target, index=None):
        """Publish *target* as exported function *name* of *domain*.

        Returns the jump-table entry byte address other domains call.
        """
        if index is None:
            index = self._next_index(domain)
        if index >= self.jump_table.entries_per_domain:
            raise ValueError(
                "domain {} exceeded its {} exported functions".format(
                    domain, self.jump_table.entries_per_domain))
        rec = ExportRecord(domain, index, name, target)
        self._exports[(domain, index)] = rec
        self._by_name[(domain, name)] = rec
        return self.jump_table.entry_addr(domain, index)

    def _next_index(self, domain):
        used = [i for (d, i) in self._exports if d == domain]
        return max(used) + 1 if used else 0

    def entry_for(self, domain, name):
        """Jump-table entry byte address of *domain*'s export *name*."""
        rec = self._by_name[(domain, name)]
        return self.jump_table.entry_addr(domain, rec.index)

    def subscriptions(self, domain):
        """All exports of *domain*: name -> entry byte address."""
        return {rec.name: self.jump_table.entry_addr(domain, rec.index)
                for (d, _i), rec in self._exports.items() if d == domain}

    def unlink_domain(self, domain):
        """Drop all exports of *domain* (module unload)."""
        for key in [k for k in self._exports if k[0] == domain]:
            rec = self._exports.pop(key)
            self._by_name.pop((rec.domain, rec.name), None)

    # ------------------------------------------------------------------
    def emit(self, write_word, live=()):
        """Write the jump-table region via ``write_word(word_addr,
        value)``: real entries ``jmp target``, empty entries ``jmp
        exception_target``.  *live* holds the words the region holds
        now, from its first; a word it already holds is not written, so
        passing flash writes only what differs and repairs any corrupted
        slot, in any domain.

        The expected image is kept page by page and a page is rebuilt
        only when its links changed (a load or unload changes one)."""
        jt = self.jump_table
        links = {}     # domain -> ((index, target), ...)
        for (domain, index), rec in sorted(self._exports.items()):
            links.setdefault(domain, []).append((index, rec.target))
        base = jt.base // 2
        page_words = jt.page_bytes // 2
        for domain in range(jt.ndomains):
            key = (self.exception_target, tuple(links.get(domain, ())))
            page = self._pages.get(domain)
            if page is None or page[0] != key:
                page = self._pages[domain] = (key, self._page(key))
            words = page[1]
            at = domain * page_words
            if live[at:at + page_words] == words:
                continue
            for i, value in enumerate(words, at):
                if value is not None and (i >= len(live) or live[i] != value):
                    write_word(base + i, value)

    def _page(self, key):
        """The words of a page for *key*, ``(exception target, its
        (index, target) links)``; None marks a word between slots that
        no entry covers."""
        jt = self.jump_table
        exception_target, links = key
        targets = dict(links)
        encoded = {}
        words = [None] * (jt.page_bytes // 2)
        for index in range(jt.entries_per_domain):
            target = targets.get(index, exception_target)
            if target not in encoded:
                encoded[target] = encode("jmp", (target // 2,))
            at = index * jt.entry_bytes // 2
            words[at:at + 2] = encoded[target]
        return words

    def symbols(self):
        """Entry-address symbols (for assembling subscriber modules)."""
        return {rec.entry_label: self.jump_table.entry_addr(d, rec.index)
                for (d, _i), rec in self._exports.items()
                for d in [rec.domain]}

    def export_target(self, domain, name):
        """Code byte address behind export *name* of *domain* (the jmp
        destination of its slot), or None if not exported."""
        rec = self._by_name.get((domain, name))
        return None if rec is None else rec.target
