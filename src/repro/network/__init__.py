"""The CoMIMONet substrate (Section 2.1 of the paper, after ref [9]).

A cooperative MIMO network is built in layers:

1. :mod:`repro.network.node` — single-antenna SU nodes with positions and
   battery state;
2. :mod:`repro.network.graph` — the communication graph ``G = (V, E)``
   (edge iff two nodes are within radio range ``r``), plus the generic
   graph algorithms (BFS, Dijkstra, Prim MST, components) the higher
   layers need;
3. :mod:`repro.network.clustering` — *d-clustering*: node-disjoint groups
   of diameter at most ``d <= r``;
4. :mod:`repro.network.cluster` — clusters as virtual MIMO nodes with an
   elected head holding member state;
5. :mod:`repro.network.comimonet` — the cluster-level graph
   ``G_MIMO = (V_MIMO, E_MIMO)``, the spanning-tree routing backbone over
   head nodes, link classification (SISO/MISO/SIMO/MIMO) and
   reconfiguration.
"""

from repro.network.cluster import Cluster
from repro.network.clustering import d_cluster, validate_clustering
from repro.network.comimonet import CoMIMONet, CooperativeLink, LinkKind
from repro.network.graph import Graph, build_communication_graph
from repro.network.mobility import (
    RandomWaypointMobility,
    WaypointState,
    simulate_recluster_interval,
)
from repro.network.node import SUNode

__all__ = [
    "SUNode",
    "Graph",
    "build_communication_graph",
    "d_cluster",
    "validate_clustering",
    "Cluster",
    "CoMIMONet",
    "CooperativeLink",
    "LinkKind",
    "RandomWaypointMobility",
    "WaypointState",
    "simulate_recluster_interval",
]
