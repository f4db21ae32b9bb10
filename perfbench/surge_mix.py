#!/usr/bin/env python3
"""Where the node workloads' message mix comes from.

Counts the messages of the repository's Surge data-collection model
(``repro.sos.network``: Surge on every node, Tree routing forwarding
toward the sink) on the collection tree of ``examples/sensor_network.py``
without its isolated node, and prints them per kind of work:

* ``origin``: a timer message to Surge, which samples, mallocs a
  packet, calls Tree routing across domains and hands the packet over;
  Tree routing stamps it and frees it.  The benchmark's ``pipeline``
  message does the same (malloc, fill, ``change_own``, cross-domain
  call, free).
* ``relay``: Tree routing on a node between a sender and the sink
  bumps the sequence number in its own state and forwards the packet.
  The benchmark's ``counter`` message is that own-state update.

``gen.SURGE_ROUND`` holds the figures this prints.  Run from the
repository root::

    python3 perfbench/surge_mix.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.sos import FixedSurgeModule, SensorNetwork  # noqa: E402

#: the routed part of the tree in examples/sensor_network.py
LINKS = ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6))
NODES = 7
ROUNDS = 3


def count(rounds=ROUNDS):
    """``{"origin": n, "relay": n}`` messages per sampling round."""
    net = SensorNetwork()
    for node_id in range(NODES):
        net.add_node(node_id, sensor_series=range(1, rounds + 2))
    for a, b in LINKS:
        net.link(a, b)
    net.build_tree(0)
    net.install_collection(surge_cls=FixedSurgeModule)
    for _ in range(rounds):
        net.sample_all()
        net.run(rounds=5)
    origin = relay = 0
    for node in net.nodes.values():
        surge = node.kernel.modules.get("surge")
        sent = surge.module.sent if surge else 0
        origin += sent
        relay += node.tree.forwarded - sent
    if len(net.delivered) != origin or net.fault_report():
        raise RuntimeError("the collection run lost packets or faulted")
    return {"origin": origin // rounds, "relay": relay // rounds}


if __name__ == "__main__":
    print(count())
