"""Discrete multipath (scatterer) propagation for narrowband fields.

Figure 8 of the paper observes that the beamformer's null is *not* zero in
the real experiment "since ... the multipath propagation happens in the
in-door experiment environment".  This module supplies that mechanism
physically: besides the line-of-sight path, the field reaches the receiver
via point scatterers (walls, furniture); each scatterer contributes a ray
whose length is ``|tx -> scatterer| + |scatterer -> rx|``.

Because the scattered path length depends on the *individual* transmitter
position, a two-element null that is perfect on the direct path is filled
in by the echoes — exactly the measured behaviour.  (A model that applied
a common excess delay to both transmitters would preserve the null
identically, which is why the scatterers are explicit geometry.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.geometry.points import as_points
from repro.utils.rng import RngLike, as_rng

__all__ = ["Scatterer", "MultipathEnvironment"]


@dataclass(frozen=True)
class Scatterer:
    """A point scatterer: position and linear reflection amplitude (< 1)."""

    position: Tuple[float, float]
    amplitude: float

    def __post_init__(self) -> None:
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be non-negative")


@dataclass(frozen=True)
class MultipathEnvironment:
    """Line-of-sight propagation plus a fixed set of point scatterers.

    Parameters
    ----------
    scatterers:
        Echo sources; empty for free-space (the Table 1 simulation case).
    amplitude_decay_with_distance:
        If True, each path's contribution is additionally scaled by
        ``1 / path_length`` (spherical spreading); if False (default),
        paths carry their nominal amplitudes, matching the paper's
        normalized-amplitude plots.
    """

    scatterers: Sequence[Scatterer] = field(default_factory=tuple)
    amplitude_decay_with_distance: bool = False

    # ------------------------------------------------------------------ #
    # Constructors                                                       #
    # ------------------------------------------------------------------ #

    @classmethod
    def line_of_sight(cls) -> "MultipathEnvironment":
        """Free-space propagation: direct paths only."""
        return cls(scatterers=())

    @classmethod
    def random_indoor(
        cls,
        n_scatterers: int = 6,
        inner_radius_m: float = 1.5,
        outer_radius_m: float = 6.0,
        echo_amplitude: float = 0.25,
        decay: float = 0.75,
        center: Tuple[float, float] = (0.0, 0.0),
        rng: RngLike = None,
    ) -> "MultipathEnvironment":
        """An indoor-like environment: scatterers ringed around the setup.

        Scatterer ``k`` has amplitude ``echo_amplitude * decay**k`` and a
        position drawn uniformly in the annulus between the two radii —
        walls and furniture a few meters from a lab bench.
        """
        if n_scatterers < 0:
            raise ValueError("n_scatterers must be non-negative")
        if not (0.0 < inner_radius_m < outer_radius_m):
            raise ValueError("need 0 < inner_radius_m < outer_radius_m")
        if echo_amplitude < 0.0 or not (0.0 < decay <= 1.0):
            raise ValueError("echo_amplitude must be >= 0 and decay in (0, 1]")
        if n_scatterers and not math.isfinite(outer_radius_m * outer_radius_m):
            raise ValueError(
                f"outer_radius_m={outer_radius_m!r} is too large: its square "
                "leaves float range"
            )
        gen = as_rng(rng)
        scatterers = []
        for k in range(n_scatterers):
            u = gen.random()
            r = np.sqrt(inner_radius_m**2 + u * (outer_radius_m**2 - inner_radius_m**2))
            theta = gen.uniform(0.0, 2.0 * np.pi)
            pos = (
                center[0] + r * np.cos(theta),
                center[1] + r * np.sin(theta),
            )
            scatterers.append(Scatterer(pos, echo_amplitude * decay**k))
        return cls(scatterers=tuple(scatterers))

    # ------------------------------------------------------------------ #
    # Field computation                                                  #
    # ------------------------------------------------------------------ #

    def path_lengths(self, tx_positions: np.ndarray, rx_position: np.ndarray) -> np.ndarray:
        """Path lengths per transmitter: direct first, then echoes.

        ``rx_position`` may be a single ``(2,)`` point — result
        ``(n_tx, 1 + n_scat)`` — or a batch of ``(N, 2)`` field points —
        result ``(N, n_tx, 1 + n_scat)``.  The batched form runs the same
        elementwise arithmetic as the scalar one, just across the leading
        axis.
        """
        tx = as_points(tx_positions)
        rx = np.asarray(rx_position, dtype=float)
        if rx.ndim == 1:
            d_los = np.linalg.norm(tx - rx[None, :], axis=1)  # (n_tx,)
            if not self.scatterers:
                return d_los[:, None]
            scat = np.array([s.position for s in self.scatterers])  # (n_s, 2)
            d_tx_s = np.linalg.norm(tx[:, None, :] - scat[None, :, :], axis=-1)
            d_s_rx = np.linalg.norm(scat - rx[None, :], axis=1)  # (n_s,)
            return np.concatenate([d_los[:, None], d_tx_s + d_s_rx[None, :]], axis=1)
        if rx.ndim != 2 or rx.shape[-1] != 2:
            raise ValueError(
                f"rx_position must have shape (2,) or (N, 2), got {rx.shape}"
            )
        d_los = np.linalg.norm(tx[None, :, :] - rx[:, None, :], axis=-1)  # (N, n_tx)
        if not self.scatterers:
            return d_los[..., None]
        scat = np.array([s.position for s in self.scatterers])  # (n_s, 2)
        d_tx_s = np.linalg.norm(tx[:, None, :] - scat[None, :, :], axis=-1)  # (n_tx, n_s)
        d_s_rx = np.linalg.norm(scat[None, :, :] - rx[:, None, :], axis=-1)  # (N, n_s)
        echoes = d_tx_s[None, :, :] + d_s_rx[:, None, :]  # (N, n_tx, n_s)
        return np.concatenate([d_los[..., None], echoes], axis=-1)

    def field_at(
        self,
        tx_positions: np.ndarray,
        rx_position: np.ndarray,
        wavelength_m: float,
        tx_phases_rad: np.ndarray = None,
        tx_amplitudes: np.ndarray = None,
    ):
        """Coherent narrowband field at ``rx_position``.

        Parameters
        ----------
        tx_positions:
            ``(n_tx, 2)`` transmitter coordinates.
        rx_position:
            ``(2,)`` receiver coordinate, or ``(N, 2)`` field points — the
            batched form (used by the Figure 8 semicircle walk) returns the
            ``N`` complex fields in one vectorized evaluation.
        wavelength_m:
            Carrier wavelength ``w``.
        tx_phases_rad:
            Per-transmitter phase *offset* in radians, added to the carrier
            phase (the sign convention under which Algorithm 3's
            ``delta = pi (2 r cos(alpha) / w - 1)`` produces an exact
            far-field null — see :mod:`repro.beamforming.pairwise`).
            Defaults to zero for all transmitters.
        tx_amplitudes:
            Per-transmitter amplitudes ``gamma_i``; default 1.

        Returns
        -------
        The complex field summed over all transmitters and paths (its
        magnitude is the "amplitude" reported in Table 1 / Figure 8) — a
        scalar ``complex`` for a single rx point, an ``(N,)`` complex array
        for a batch of field points.
        """
        if wavelength_m <= 0.0:
            raise ValueError("wavelength_m must be positive")
        tx = as_points(tx_positions)
        n_tx = tx.shape[0]
        phases = np.zeros(n_tx) if tx_phases_rad is None else np.asarray(tx_phases_rad, float)
        amps = np.ones(n_tx) if tx_amplitudes is None else np.asarray(tx_amplitudes, float)
        if phases.shape != (n_tx,) or amps.shape != (n_tx,):
            raise ValueError("tx_phases_rad and tx_amplitudes must have one entry per tx")

        k = 2.0 * np.pi / wavelength_m
        # (n_tx, P) for one rx point, (N, n_tx, P) for a batch; the per-tx
        # factors broadcast against the trailing two axes either way
        paths = self.path_lengths(tx, np.asarray(rx_position, float))
        path_amp = np.ones(paths.shape[-1])
        if self.scatterers:
            path_amp[1:] = [s.amplitude for s in self.scatterers]
        contrib = path_amp * np.exp(1j * (phases[:, None] - k * paths))
        if self.amplitude_decay_with_distance:
            contrib = contrib / np.maximum(paths, 1e-9)
        summand = amps[:, None] * contrib
        # flatten each (n_tx, P) block so the batched reduction adds terms
        # in the same order as the single-point np.sum over the whole block
        total = summand.reshape(summand.shape[:-2] + (-1,)).sum(axis=-1)
        if paths.ndim == 2:
            return complex(total)
        return total

    def amplitude_at(
        self,
        tx_positions: np.ndarray,
        rx_position: np.ndarray,
        wavelength_m: float,
        tx_phases_rad: np.ndarray = None,
        tx_amplitudes: np.ndarray = None,
    ):
        """Magnitude of :meth:`field_at` (the measured received amplitude).

        A ``float`` for one rx point, an ``(N,)`` array for a batch.
        """
        field = self.field_at(
            tx_positions, rx_position, wavelength_m, tx_phases_rad, tx_amplitudes
        )
        if isinstance(field, complex):
            return abs(field)
        # np.abs on complex128 can differ from abs(complex) by one ulp;
        # np.hypot reproduces the scalar magnitude bit-for-bit
        return np.hypot(field.real, field.imag)
