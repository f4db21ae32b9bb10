"""Mini SOS kernel (behavioural substrate, paper §1.2).

A statically "compiled" trusted kernel plus dynamically loadable
modules, each isolated in its own Harbor protection domain.  The kernel
provides what the paper's workload exercises:

* dynamic memory with ownership (``malloc``/``free``/``change_own``);
* message dispatch with payload ownership transfer;
* function export/subscription with cross-domain calls through the
  jump table;
* fault containment: a protection fault raised while a module handles
  a message is caught by the kernel, the module is marked crashed and
  (optionally) restarted — "a stable kernel can always ensure a clean
  re-start of user modules when corruption is detected".

The kernel can run **protected** (every module store checked, the
default) or **unprotected** (stores go straight to memory) — the latter
demonstrates what the paper's Surge bug does to a node without Harbor.
"""

from dataclasses import dataclass

from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import ProtectionFault
from repro.core.harbor import HarborSystem
from repro.sos.messaging import (
    KERNEL_PID,
    MSG_FINAL,
    MSG_INIT,
    Message,
    MessageQueue,
    SOS_ERROR,
)
from repro.sos.module import (
    ExportedFunction,
    ModuleRecord,
    Subscription,
)


@dataclass
class FaultLog:
    """Record of a contained protection fault.

    ``report`` is the :class:`repro.trace.forensics.FaultReport`
    attached to the fault, when a flight recorder captured one — the
    kernel's recovery input and the exportable panic dump.
    """

    module: str
    message: object
    fault: ProtectionFault
    report: object = None


class ModuleContext:
    """The capability a module handler acts through.

    All memory traffic is attributed to (and checked against) the
    module's domain.
    """

    def __init__(self, kernel, record):
        self._kernel = kernel
        self._record = record

    @property
    def domain(self):
        return self._record.domain

    @property
    def name(self):
        return self._record.module.name

    # --- memory -----------------------------------------------------------
    def malloc(self, nbytes):
        return self._kernel.harbor.malloc(nbytes, self._record.domain)

    def free(self, addr):
        return self._kernel.harbor.free(addr, self._record.domain)

    def store(self, addr, value):
        """What a module's ``st`` does: checked under Harbor, a raw
        memory write on an unprotected node."""
        if self._kernel.protected:
            self._kernel.harbor.store(addr, value, self._record.domain)
        else:
            self._kernel.harbor.store_unchecked(addr, value)

    def store_word(self, addr, value):
        self.store(addr, value & 0xFF)
        self.store(addr + 1, (value >> 8) & 0xFF)

    def load(self, addr):
        return self._kernel.harbor.load(addr)

    def load_word(self, addr):
        return self.load(addr) | (self.load(addr + 1) << 8)

    # --- module interaction ---------------------------------------------------
    def register_function(self, name, fn):
        self._kernel.register_function(self.name, name, fn)

    def subscribe(self, provider, fn_name):
        sub = Subscription(self._kernel, self.name, provider, fn_name)
        self._record.subscriptions.append(sub)
        return sub

    def post(self, dst, mtype, payload=None, length=0, **data):
        """Post a message; payload buffers change owner to the receiver
        (zero-copy transfer, the SOS idiom change_own enables)."""
        return self._kernel.post(Message(self.name, dst, mtype,
                                         payload, length, data))

    def post_net(self, mtype, **data):
        """Hand a packet to the 'radio' (host-visible log)."""
        self._kernel.radio_log.append({"src": self.name, "mtype": mtype,
                                       **data})


class SosKernel:
    """The trusted domain: module loader + scheduler + services."""

    def __init__(self, harbor=None, protected=True, restart_crashed=False):
        self.harbor = harbor or HarborSystem()
        self.protected = protected
        self.restart_crashed = restart_crashed
        self.queue = MessageQueue()
        self.modules = {}
        self.functions = {}  # (provider, fn_name) -> ExportedFunction
        self.fault_log = []
        self.radio_log = []
        self.sensor_series = iter(())
        self._sensor_last = 0

    # --- module lifecycle -------------------------------------------------
    def load_module(self, module):
        """Load *module* into a fresh protection domain and deliver
        MSG_INIT into it."""
        if module.name in self.modules:
            raise ValueError("module {!r} already loaded".format(module.name))
        domain = self.harbor.create_domain(module.name)
        record = ModuleRecord(module=module, domain=domain)
        self.modules[module.name] = record
        self._dispatch_into(record, MSG_INIT,
                            Message(KERNEL_PID, module.name, MSG_INIT))
        return record

    def unload_module(self, name):
        """Deliver MSG_FINAL, free all memory the domain owns, drop its
        exports, release the domain."""
        record = self.modules.pop(name)
        if record.state == "loaded":
            self._dispatch_into(record, MSG_FINAL,
                                Message(KERNEL_PID, name, MSG_FINAL))
        self._reclaim_domain(record)
        record.state = "unloaded"
        return record

    def _reclaim_domain(self, record):
        did = record.domain.did
        for start, nblocks, owner in self.harbor.memmap.segments():
            if owner == did and self.harbor.heap.start <= start \
                    < self.harbor.heap.end:
                self.harbor.heap.free(start, TRUSTED_DOMAIN)
        for key in [k for k in self.functions if k[0] == record.module.name]:
            del self.functions[key]
        self.harbor.domains.destroy(did)

    def restart_module(self, name):
        """Clean restart of a crashed module (fresh state, same class)."""
        record = self.modules.pop(name)
        self._reclaim_domain(record)
        module = type(record.module)()
        return self.load_module(module)

    # --- functions ------------------------------------------------------------
    def register_function(self, provider, name, fn):
        export = ExportedFunction(provider, name, fn)
        self.functions[(provider, name)] = export
        return export

    def is_exported(self, provider, name):
        return (provider, name) in self.functions

    def cross_domain_invoke(self, subscriber, provider, fn_name, *args):
        """A cross-domain function call.

        Fails with SOS_ERROR when the provider is absent (not loaded or
        crashed) — the unchecked-error-code scenario.  Otherwise runs
        the provider's function *in the provider's domain*.
        """
        export = self.functions.get((provider, fn_name))
        record = self.modules.get(provider)
        if export is None or record is None or record.state != "loaded":
            return SOS_ERROR
        ctx = ModuleContext(self, record)
        jt_entry = self.harbor.jump_table.entry_addr(
            record.domain.did, 0)
        self.harbor.cross_domain_call(jt_entry)
        try:
            return export.fn(ctx, *args)
        finally:
            self.harbor.cross_domain_return()

    # --- messaging ------------------------------------------------------------
    def post(self, message):
        """Queue a message; transfer payload ownership to the receiver."""
        ok = self.queue.post(message)
        if ok and message.payload is not None:
            dst = self.modules.get(message.dst)
            new_owner = dst.domain if dst else TRUSTED_DOMAIN
            self.harbor.change_own(message.payload, new_owner,
                                   TRUSTED_DOMAIN)
        return ok

    def post_timer(self, dst, **data):
        from repro.sos.messaging import MSG_TIMER_TIMEOUT
        return self.post(Message(KERNEL_PID, dst, MSG_TIMER_TIMEOUT,
                                 data=data))

    def run(self, max_messages=100):
        """Dispatch queued messages until empty (or the budget runs
        out).  Returns the number of messages delivered."""
        delivered = 0
        while delivered < max_messages:
            message = self.queue.take()
            if message is None:
                break
            delivered += 1
            record = self.modules.get(message.dst)
            if record is None or record.state != "loaded":
                continue
            self._dispatch_into(record, message.mtype, message)
        return delivered

    def _dispatch_into(self, record, mtype, message):
        """Run a module handler inside its domain with fault containment."""
        ctx = ModuleContext(self, record)
        with self.harbor.as_domain(record.domain):
            try:
                if mtype == MSG_INIT:
                    record.module.init(ctx)
                elif mtype == MSG_FINAL:
                    record.module.final(ctx)
                else:
                    record.module.handle_message(ctx, message)
                record.messages_handled += 1
            except ProtectionFault as fault:
                if not self.protected:
                    raise  # unprotected nodes do not survive this
                record.faults += 1
                record.state = "crashed"
                self.fault_log.append(
                    FaultLog(record.module.name, message, fault,
                             report=getattr(fault, "report", None)))
                if self.restart_crashed:
                    self.restart_module(record.module.name)

    def fault_reports(self):
        """Captured :class:`FaultReport` objects of all contained
        faults (entries without forensics attached are skipped)."""
        return [entry.report for entry in self.fault_log
                if entry.report is not None]

    # --- devices ---------------------------------------------------------------
    def set_sensor_series(self, values):
        self.sensor_series = iter(values)

    def sensor_read(self):
        """Deterministic 'sensor': next value of the configured series."""
        try:
            self._sensor_last = next(self.sensor_series)
        except StopIteration:
            self._sensor_last = (self._sensor_last + 17) & 0xFF
        return self._sensor_last
