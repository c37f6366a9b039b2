#!/usr/bin/env python
"""Network-lifetime ablation: cooperative MIMO vs SISO multi-hop transport.

The paper motivates cooperative MIMO in CoMIMONet with energy efficiency
(Section 2); this example quantifies it at the network level.  A line
network of battery-powered SU clusters relays a continuous traffic stream;
we compare how many megabits the network delivers before the first cluster
dies when hops run (a) as cooperative MIMO links (Algorithm 2) versus
(b) as head-to-head SISO links, with head re-election and backbone
reconfiguration as batteries drain.  The CSMA/CA MAC provides the per-hop
channel-access overhead.

Run:  python examples/network_lifetime.py
"""

import numpy as np

from repro.core.schemes import HopEnergy, hop_energy
from repro.energy import EnergyModel
from repro.energy.optimize import DEFAULT_B_RANGE, best_over_b
from repro.mac import CsmaCaSimulator, CsmaConfig
from repro.network import CoMIMONet, SUNode


def build_network(seed: int = 11) -> CoMIMONet:
    rng = np.random.default_rng(seed)
    nodes = []
    node_id = 0
    for cx in (0.0, 150.0, 300.0, 450.0):
        for _ in range(3):
            offset = rng.uniform(-1.0, 1.0, 2)
            nodes.append(SUNode(node_id, (cx + offset[0], offset[1]), battery_j=400.0))
            node_id += 1
    return CoMIMONet(nodes, cluster_diameter=2.5, longhaul_range=170.0)


def best_hop(model: EnergyModel, p: float, mt: int, mr: int, length_m: float,
             bandwidth: float) -> HopEnergy:
    """The hop at the constellation size b minimizing its total energy."""
    def total(b: int) -> float:
        try:
            return hop_energy(model, p, b, mt, mr, 2.5, length_m, bandwidth).total
        except ValueError:
            return np.nan  # no energy meets p at this size

    rows, _ = best_over_b(np.array([[total(b)] for b in DEFAULT_B_RANGE]))
    b = DEFAULT_B_RANGE[rows[0]]
    return hop_energy(model, p, b, mt, mr, 2.5, length_m, bandwidth)


def run_until_death(cooperative: bool, chunk_bits: float = 1e6) -> float:
    """Deliver chunks end-to-end until a cluster dies; return megabits."""
    net = build_network()
    model = EnergyModel()
    bandwidth, p = 10e3, 0.001
    delivered_bits = 0.0
    while True:
        try:
            route = net.route(0, net.n_clusters - 1)
        except (ValueError, KeyError):
            break  # network partitioned
        try:
            for link in route:
                tx = net.cluster(link.tx_cluster_id)
                rx = net.cluster(link.rx_cluster_id)
                if not (tx.alive_nodes and rx.alive_nodes):
                    raise RuntimeError("cluster died mid-transfer")
                mt = len(tx.alive_nodes) if cooperative else 1
                mr = len(rx.alive_nodes) if cooperative else 1
                hop = best_hop(model, p, mt, mr, link.length_m, bandwidth)
                # Charge the participants.  Cooperative: the long-haul cost
                # splits evenly across cooperators; SISO: heads pay it all.
                if cooperative:
                    share = hop.total * chunk_bits / (mt + mr)
                    for node in tx.alive_nodes + rx.alive_nodes:
                        node.consume(min(share, node.remaining_j))
                else:
                    half = hop.total * chunk_bits / 2.0
                    for node in (tx.head, rx.head):
                        node.consume(min(half, node.remaining_j))
            delivered_bits += chunk_bits
            net.reconfigure()
            if any(not c.is_alive for c in net.clusters):
                break
        except RuntimeError:
            break  # a battery hit zero mid-hop
        if not all(c.is_alive for c in net.clusters):
            break
        if net.n_clusters < 4:
            break
    return delivered_bits / 1e6


def mac_overhead() -> None:
    print("== CSMA/CA access overhead per hop (4 contending heads) ==")
    sim = CsmaCaSimulator(n_stations=4, config=CsmaConfig(), saturated=True, rng=5)
    stats = sim.run(duration_us=2_000_000)
    print(f"  throughput {stats.throughput_frames_per_s():.0f} frames/s, "
          f"collision probability {stats.collision_probability:.2%}, "
          f"mean access delay {stats.mean_access_delay_us:.0f} us\n")


def main() -> None:
    mac_overhead()
    print("== Lifetime: cooperative MIMO hops vs SISO head-to-head hops ==")
    coop = run_until_death(cooperative=True)
    siso = run_until_death(cooperative=False)
    print(f"  cooperative MIMO delivered {coop:8.0f} Mb before first cluster death")
    print(f"  SISO head-to-head delivered {siso:8.0f} Mb before first cluster death")
    if siso > 0:
        print(f"  -> cooperation extends useful network life {coop / siso:.1f}x "
              "(load spreading + diversity energy savings)")
    else:
        print("  -> SISO heads died before completing a single transfer; "
              "cooperation is the difference between a working and a dead network")


if __name__ == "__main__":
    main()
