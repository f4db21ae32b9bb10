"""The paper's §1.2 anecdote, as executable scenarios.

"Harbor detected memory corruption in a data collection application
module that had been in use for several months ... the invalid result of
a failed function call to the Tree routing module was being used to
determine an offset into a buffer."
"""

from repro.core.faults import MemMapFault, ProtectionFault
from repro.sos import (
    FixedSurgeModule,
    SOS_ERROR,
    SosKernel,
    SurgeModule,
    TreeRoutingModule,
    TREE_ROUTING_HDR_SIZE,
)


def kernel(protected=True):
    k = SosKernel(protected=protected)
    k.set_sensor_series([42, 43, 44, 45])
    return k


# ---------------------------------------------------------------------
# the happy path: both modules, correct order
# ---------------------------------------------------------------------
def test_normal_data_collection():
    k = kernel()
    k.load_module(TreeRoutingModule())
    k.load_module(SurgeModule())
    for _ in range(3):
        k.post_timer("surge")
    k.run()
    assert not k.fault_log
    assert len(k.radio_log) == 3
    tree = k.modules["tree_routing"].module
    assert tree.forwarded == 3
    surge = k.modules["surge"].module
    assert surge.sent == 3


def test_packets_carry_sample_at_header_offset():
    k = kernel()
    k.load_module(TreeRoutingModule())
    k.load_module(SurgeModule())
    k.post_timer("surge")
    # intercept before tree routing frees it: run only surge's message
    k.run(max_messages=1)
    # the packet is queued to tree_routing; find its payload
    msg = k.queue.take()
    assert msg.dst == "tree_routing"
    assert k.harbor.load(msg.payload + TREE_ROUTING_HDR_SIZE) == 42


# ---------------------------------------------------------------------
# the bug: surge loaded before tree routing
# ---------------------------------------------------------------------
def test_harbor_catches_wild_store():
    k = kernel()
    k.load_module(SurgeModule())   # tree routing absent!
    k.post_timer("surge")
    k.run()
    assert len(k.fault_log) == 1
    log = k.fault_log[0]
    assert log.module == "surge"
    assert isinstance(log.fault, MemMapFault)
    assert k.modules["surge"].state == "crashed"


def test_fault_is_at_packet_plus_error_code():
    k = kernel()
    k.load_module(SurgeModule())
    k.post_timer("surge")
    k.run()
    fault = k.fault_log[0].fault
    surge = k.modules["surge"].module
    # the wild address is packet + 0xFF: prove the offset used was the
    # unchecked SOS error code
    sub = surge.get_hdr_size
    assert sub.failures == 1
    # reconstruct: last allocation of surge was the packet
    segs = [(s, o) for s, _n, o in k.harbor.memmap.segments() if o == 0]
    packet = max(s for s, _ in segs)
    assert fault.addr == packet + SOS_ERROR


def test_unprotected_node_corrupts_silently():
    k = kernel(protected=False)
    k.load_module(SurgeModule())
    surge_dom = k.modules["surge"].domain.did
    k.post_timer("surge")
    k.run()
    assert not k.fault_log
    assert k.modules["surge"].state == "loaded"  # nobody noticed
    # ... but memory surge does NOT own now holds the sensor sample
    heap = k.harbor.heap
    dirty = [a for a in range(heap.start, heap.end)
             if k.harbor.load(a) == 42
             and k.harbor.memmap.owner_of(a) != surge_dom]
    assert dirty, "wild store left no trace outside surge's domain"


def test_rare_condition_is_load_order():
    """Same modules, swapped load order: the identical binary is safe
    — which is why testing missed the bug."""
    k = kernel()
    k.load_module(TreeRoutingModule())
    k.load_module(SurgeModule())
    k.post_timer("surge")
    k.run()
    assert not k.fault_log


def test_late_tree_routing_load_recovers():
    """After tree routing appears and surge restarts, collection works."""
    k = SosKernel(protected=True, restart_crashed=True)
    k.set_sensor_series([42, 43])
    k.load_module(SurgeModule())
    k.post_timer("surge")
    k.run()
    assert len(k.fault_log) == 1
    k.load_module(TreeRoutingModule())
    k.post_timer("surge")
    k.run()
    assert len(k.fault_log) == 1      # no new faults
    assert len(k.radio_log) == 1


def test_fixed_surge_checks_error_code():
    k = kernel()
    k.load_module(FixedSurgeModule())
    k.post_timer("surge")
    k.run()
    assert not k.fault_log
    surge = k.modules["surge"].module
    assert surge.skipped == 1
    assert surge.sent == 0


def test_tree_routing_without_route_returns_error():
    k = kernel()
    k.load_module(TreeRoutingModule(has_parent=False))
    k.load_module(FixedSurgeModule())
    k.post_timer("surge")
    k.run()
    assert not k.fault_log
    assert k.modules["surge"].module.skipped == 1


def test_buggy_surge_with_routeless_tree_also_caught():
    """The same wild store happens when tree routing is loaded but has
    no parent — Harbor catches that variant too."""
    k = kernel()
    k.load_module(TreeRoutingModule(has_parent=False))
    k.load_module(SurgeModule())
    k.post_timer("surge")
    k.run()
    assert len(k.fault_log) == 1
    assert isinstance(k.fault_log[0].fault, ProtectionFault)


def test_long_running_collection():
    """Months-in-deployment flavour: many cycles, zero faults, balanced
    memory (no leaks — every packet freed by tree routing)."""
    k = SosKernel(protected=True)
    k.set_sensor_series(range(1, 101))
    k.load_module(TreeRoutingModule())
    k.load_module(SurgeModule())
    free_before = k.harbor.heap.free_bytes
    for _ in range(100):
        k.post_timer("surge")
        k.run(max_messages=10)
    assert not k.fault_log
    assert len(k.radio_log) == 100
    # modules' steady-state memory only (tree state + surge none)
    assert k.harbor.heap.free_bytes == free_before
    k.harbor.heap.check_invariants()
