"""Channel models.

The paper uses two propagation regimes:

* **local (intra-cluster)**: kappa-th power path loss (kappa = 3.5) with
  AWGN — formula (1);
* **long-haul (inter-cluster)**: square-law path loss with flat Rayleigh
  block fading over the virtual MIMO link — formulas (3), (5), (6).

The testbed experiments of Section 6.4 additionally need an *indoor* model
(obstacles, concrete walls, multipath), which the paper realized with real
USRP hardware and we substitute with :mod:`repro.channel.indoor` and
:mod:`repro.channel.multipath` (see DESIGN.md section 3).
"""

from repro.channel.awgn import awgn
from repro.channel.indoor import IndoorChannel, Obstacle, Wall
from repro.channel.multipath import MultipathEnvironment, Scatterer
from repro.channel.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    PowerLawPathLoss,
)
from repro.channel.rayleigh import (
    rayleigh_mimo_channel,
    rician_mimo_channel,
)
from repro.channel.shadowing import LogNormalShadowing

__all__ = [
    "awgn",
    "rayleigh_mimo_channel",
    "rician_mimo_channel",
    "FreeSpacePathLoss",
    "PowerLawPathLoss",
    "LogDistancePathLoss",
    "LogNormalShadowing",
    "MultipathEnvironment",
    "Scatterer",
    "IndoorChannel",
    "Obstacle",
    "Wall",
]
