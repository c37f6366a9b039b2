#!/usr/bin/env python
"""Underlay paradigm end-to-end: an image across a CoMIMONet, twice.

Part 1 replays the paper's Table 4 bench (two co-located transmitters,
GMSK, 474-packet image) including the actual image reconstruction and the
"can it be displayed" verdict.

Part 2 goes beyond the paper: the same image crosses a *multi-hop*
CoMIMONet (Algorithm 2 at every hop) while we account the radiated PA
energy per hop and check the noise-floor margin — the full underlay story
of Section 4 on a real network topology, with the route's airtime summed
hop by hop.

Run:  python examples/underlay_multihop_image.py
"""

import numpy as np

from repro.core.schemes import hop_energy
from repro.core.underlay import UnderlaySystem
from repro.energy import EnergyModel
from repro.modulation import GMSKModem
from repro.network import CoMIMONet, SUNode
from repro.phy.link import transmit_bits
from repro.testbed import table4_testbed, transfer_image
from repro.testbed.image import IMAGE_PACKETS, PACKET_BYTES


def paper_image_transfer() -> None:
    print("== Part 1: the Table 4 image transfer (amplitude 600) ==")
    modem = GMSKModem()
    for cooperative in (True, False):
        testbed = table4_testbed()
        for name in ("tx1", "tx2"):
            testbed.nodes[name] = testbed.nodes[name].with_amplitude(600.0)
        snr = testbed.link_snr_db("tx1", "rx")
        k = testbed.rician_k
        if cooperative:  # coherent two-transmitter addition (see radio.py)
            snr += 10.0 * np.log10((4.0 * k + 2.0) / (k + 1.0))
            k = 2.0 * k

        def send(packet_bits, rng, _snr=snr, _k=k):
            return transmit_bits(
                packet_bits,
                modem,
                _snr,
                mt=1,
                mr=1,
                fading="rician",
                rician_k=_k,
                blocks_per_fade=len(packet_bits),
                rng=rng,
            )

        result = transfer_image(send, rng=600 + int(cooperative))
        label = "cooperative (2 tx)" if cooperative else "solo (1 tx)      "
        print(
            f"  {label}: PER {result.per:6.2%}  distortion {result.mean_abs_error:6.2f}"
            f"  -> {result.verdict}"
        )
    print()


def multihop_network_transfer() -> None:
    print("== Part 2: image across a multi-hop CoMIMONet (Algorithm 2/hop) ==")
    rng = np.random.default_rng(99)
    # Four SU clusters strung 180 m apart; 3 nodes each within 2 m.
    nodes = []
    node_id = 0
    for cx in (0.0, 180.0, 360.0, 540.0):
        for _ in range(3):
            offset = rng.uniform(-1.0, 1.0, 2)
            nodes.append(SUNode(node_id, (cx + offset[0], offset[1]), battery_j=50.0))
            node_id += 1
    net = CoMIMONet(nodes, cluster_diameter=2.5, longhaul_range=200.0)
    route = net.route(0, net.n_clusters - 1)
    print(f"  {len(nodes)} SUs -> {net.n_clusters} clusters; route: "
          + " -> ".join(f"{l.tx_cluster_id}->{l.rx_cluster_id} ({l.kind.value})"
                        for l in route))

    model = EnergyModel()
    underlay = UnderlaySystem(model)
    bandwidth, target_ber, bitrate = 10e3, 0.001, 250e3
    total_bits = IMAGE_PACKETS * PACKET_BYTES * 8

    airtime_s = 0.0
    total_energy = 0.0
    radiated_energy = 0.0
    for link in route:
        res = underlay.pa_energy(
            target_ber, link.mt, link.mr, 2.5, link.length_m, bandwidth
        )
        hop = hop_energy(
            model, target_ber, res.b, link.mt, link.mr, 2.5, link.length_m, bandwidth
        )
        margin = underlay.interference_margin(
            target_ber, link.mt, link.mr, 2.5, link.length_m, bandwidth
        )
        total_energy += hop.total * total_bits
        radiated_energy += hop.pa_total * total_bits
        airtime_s += total_bits / bitrate  # hops relay one after another
        print(
            f"    hop {link.tx_cluster_id}->{link.rx_cluster_id}: "
            f"{link.mt}x{link.mr} over {link.length_m:.0f} m, b={res.b}, "
            f"{hop.pa_total * total_bits:.3f} J radiated, "
            f"noise-floor margin {margin:.0f}x"
        )
    print(f"  image delivered after {airtime_s:.2f} s of airtime; "
          f"{radiated_energy:.2f} J radiated, {total_energy:.1f} J total "
          f"incl. circuits ({len(route)} hops)")

    # SISO comparison.  The underlay constraint is on *radiated* (PA)
    # energy — the interference the primary receiver integrates — where
    # cooperation wins by orders of magnitude.  Total energy including the
    # 6 cooperating circuits can exceed SISO at short hop lengths (the
    # classic Cui-Goldsmith crossover); both are reported.
    siso_radiated = 0.0
    siso_total = 0.0
    for link in route:
        hop = hop_energy(model, target_ber, 1, 1, 1, 2.5, link.length_m, bandwidth)
        siso_radiated += hop.pa_total * total_bits
        siso_total += hop.total * total_bits
    print(f"  non-cooperative SISO would radiate {siso_radiated:.2f} J "
          f"({siso_radiated / radiated_energy:.0f}x more interference at the PU; "
          f"{siso_total:.1f} J total incl. circuits)")


if __name__ == "__main__":
    paper_image_transfer()
    multihop_network_transfer()
