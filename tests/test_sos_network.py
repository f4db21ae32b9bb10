"""Multi-node collection network: topology, forwarding, and the
network-level impact of the Surge bug (the paper's motivation)."""

from repro.sos import (
    FixedSurgeModule,
    SensorNetwork,
)


def line_network(n=4, protected=True):
    """node0 (sink) - node1 - node2 - ... - node(n-1)."""
    net = SensorNetwork(protected=protected)
    for i in range(n):
        # encode the node id in the sampled values
        net.add_node(i, sensor_series=[i * 16 + k for k in range(1, 9)])
    for i in range(n - 1):
        net.link(i, i + 1)
    net.build_tree(0)
    return net


def test_tree_building():
    net = line_network(4)
    assert net.nodes[0].is_sink
    assert net.nodes[1].parent == 0
    assert net.nodes[2].parent == 1
    assert net.nodes[3].parent == 2


def test_star_topology_tree():
    net = SensorNetwork()
    for i in range(4):
        net.add_node(i)
    for leaf in (1, 2, 3):
        net.link(0, leaf)
    net.build_tree(0)
    assert all(net.nodes[i].parent == 0 for i in (1, 2, 3))


def test_unreachable_node_stays_unrooted():
    net = SensorNetwork()
    net.add_node(0)
    net.add_node(1)
    net.add_node(9)  # no links
    net.link(0, 1)
    reached = net.build_tree(0)
    assert 9 not in reached
    assert net.nodes[9].parent is None


def test_single_hop_collection():
    net = line_network(2)
    net.install_collection()
    net.sample_all()
    net.run(rounds=3)
    assert len(net.delivered) == 1
    pkt = net.delivered[0]
    assert pkt.hops == 1
    assert pkt.frame[0] == 0x7E           # routing header marker
    assert not net.fault_report()


def test_multi_hop_collection():
    net = line_network(4)
    net.install_collection()
    net.sample_all()
    net.run(rounds=6)
    # three sampling nodes, all samples reach the sink
    assert len(net.delivered) == 3
    hops = sorted(p.hops for p in net.delivered)
    assert hops == [1, 2, 3]
    assert not net.crashed_modules()


def test_sustained_collection_yield():
    net = line_network(3)
    net.install_collection()
    for _round in range(5):
        net.sample_all()
        net.run(rounds=4)
    assert len(net.delivered) == 10  # 2 samplers x 5 rounds
    # per-node memory stays bounded (no leaks across rounds)
    for node in net.nodes.values():
        node.kernel.harbor.heap.check_invariants()


def test_buggy_surge_crashes_unrooted_node_but_network_survives():
    """A node outside the tree runs the buggy Surge: on a protected
    network Harbor contains the crash to that node and the rest keeps
    collecting."""
    net = line_network(3)
    net.add_node(9, sensor_series=[0x99])   # unreachable, no route
    net.build_tree(0)
    net.install_collection()
    net.sample_all()
    net.run(rounds=4)
    # node 9's surge crashed (unchecked SOS_ERROR offset)...
    assert net.crashed_modules() == {9: ["surge"]}
    assert 9 in net.fault_report()
    # ...but the routed nodes delivered everything
    assert len(net.delivered) == 2


def test_unprotected_network_corrupts_silently():
    net = SensorNetwork(protected=False)
    net.add_node(0)
    net.add_node(9, sensor_series=[0x42])
    net.link(0, 9)
    net.build_tree(0)
    # sever node 9's route AFTER install so Surge's call fails
    net.install_collection()
    net.nodes[9].tree.has_parent = False
    tree = net.nodes[9].kernel.modules["tree_routing"].module
    net.nodes[9].kernel.harbor.store_unchecked(tree.state_addr, 0)
    net.sample_all()
    net.run(rounds=3)
    assert not net.crashed_modules()  # nobody noticed
    assert not net.fault_report()
    # the node is corrupted, not stopped: the classic silent failure
    kernel = net.nodes[9].kernel
    heap = kernel.harbor.heap
    dirty = [a for a in range(heap.start, heap.end)
             if kernel.harbor.load(a) == 0x42
             and kernel.harbor.memmap.owner_of(a) !=
             kernel.modules["surge"].domain.did]
    assert dirty


def test_fixed_surge_on_unrooted_node_degrades_gracefully():
    net = SensorNetwork()
    net.add_node(0)
    net.add_node(9)  # unreachable
    net.build_tree(0)
    net.install_collection(surge_cls=FixedSurgeModule)
    net.sample_all()
    net.run(rounds=3)
    assert not net.crashed_modules()
    surge = net.nodes[9].kernel.modules["surge"].module
    assert surge.skipped == 1


def test_crashed_relay_drops_frames():
    """If a relay's tree_routing has crashed, frames through it are
    lost — but the relay's own kernel and the rest of the network live."""
    net = line_network(3)
    net.install_collection()
    # crash node 1's tree_routing artificially
    net.nodes[1].kernel.modules["tree_routing"].state = "crashed"
    net.sample_all()
    net.run(rounds=4)
    # node 1's own sample still went out (surge posts before relaying;
    # its message to the crashed module was dropped); node 2's frame
    # died at the crashed relay
    assert len(net.delivered) == 0
