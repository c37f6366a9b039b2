"""Pure work functions executed by the service (inline or in worker processes).

Every function here is a deterministic, module-level (hence picklable)
function of its request dataclass, returning plain JSON-serializable
primitives or their encoded bytes.  The same functions run inline
(``workers=0``), inside a coalesced batch on the event loop, or in a
``ProcessPoolExecutor`` worker — which is what makes pooled and inline
responses bit-identical by construction.  The sweep endpoints' pooled
functions (``*_body`` for a buffered response, ``*_lines`` for a streamed
one) encode in the worker, so the event loop only frames bytes.

Worker processes memoize one :class:`EnergyModel` / system object per
``e_bar_b`` convention (module-level dict, rebuilt per process after fork),
so repeated sweeps do not re-solve the energy tables.

Each function the service calls runs its numpy work under
``np.errstate(all="ignore")``: an extreme client input (a distance of
``1e308``) must not print a ``RuntimeWarning`` into the daemon's JSON log,
and the non-finite values such an input leaves are refused downstream as
400s.  The library's own gains stay unwrapped, because the simulator calls
them thousands of times per run.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Dict, List, Optional

import numpy as np

from repro.beamforming.pairwise import NullSteeringPair
from repro.core.overlay import OverlayDistanceResult, OverlaySystem
from repro.core.underlay import UnderlayEnergyResult, UnderlaySystem
from repro.channel.multipath import MultipathEnvironment
from repro.energy.ebar import solve_ebar
from repro.energy.model import EnergyModel
from repro.service.httpio import encode_payload
from repro.service.schemas import (
    EbarRequest,
    EnvironmentSpec,
    InterweaveRequest,
    OverlayRequest,
    UnderlayRequest,
)

__all__ = [
    "ebar_exact",
    "overlay_rows",
    "underlay_rows",
    "overlay_body",
    "underlay_body",
    "overlay_lines",
    "underlay_lines",
    "interweave_delta",
    "interweave_amplitudes",
    "overlay_row_dict",
    "underlay_row_dict",
]

Row = Dict[str, object]

_MODELS: Dict[str, EnergyModel] = {}
_OVERLAYS: Dict[str, OverlaySystem] = {}
_UNDERLAYS: Dict[str, UnderlaySystem] = {}


def _model(convention: str) -> EnergyModel:
    model = _MODELS.get(convention)
    if model is None:
        model = EnergyModel(ebar_convention=convention)
        _MODELS[convention] = model
    return model


def _overlay(convention: str) -> OverlaySystem:
    system = _OVERLAYS.get(convention)
    if system is None:
        system = OverlaySystem(_model(convention))
        _OVERLAYS[convention] = system
    return system


def _underlay(convention: str) -> UnderlaySystem:
    system = _UNDERLAYS.get(convention)
    if system is None:
        system = UnderlaySystem(_model(convention))
        _UNDERLAYS[convention] = system
    return system


# --------------------------------------------------------------------- #
# /v1/ebar  (solver="exact")                                            #
# --------------------------------------------------------------------- #


def ebar_exact(request: EbarRequest) -> float:
    """``solve_ebar`` at the request point — bit-identical to a direct call."""
    with np.errstate(all="ignore"):
        return solve_ebar(
            request.p, request.b, request.mt, request.mr, convention=request.convention
        )


# --------------------------------------------------------------------- #
# /v1/overlay/feasible                                                  #
# --------------------------------------------------------------------- #


def _overlay_row(
    d1: float, m: int, bandwidth: float, p_direct: float, p_relay: float,
    e1: float, b_direct: int, d2: float, b_simo: int, d3: float, b_miso: int,
) -> Row:
    return {
        "d1": d1,
        "m": m,
        "bandwidth": bandwidth,
        "p_direct": p_direct,
        "p_relay": p_relay,
        "e1": e1,
        "b_direct": b_direct,
        "d2": d2,
        "b_simo": b_simo,
        "d3": d3,
        "b_miso": b_miso,
        "feasible": bool(d2 > 0.0 and d3 > 0.0),
    }


def overlay_row_dict(result: OverlayDistanceResult) -> Row:
    """One JSON row of the Figure 6 analysis; relaying is *feasible* at a
    D1 point when both reach distances are strictly positive."""
    return _overlay_row(*astuple(result))


def overlay_rows(request: OverlayRequest) -> List[Row]:
    """Algorithm 1 feasibility over the request's D1 axis, built straight
    from :meth:`OverlaySystem.distance_arrays`; each row equals
    :func:`overlay_row_dict` of the scalar analysis at that point."""
    with np.errstate(all="ignore"):
        a = _overlay(request.convention).distance_arrays(
            request.d1,
            request.m,
            request.bandwidth,
            p_direct=request.p_direct,
            p_relay=request.p_relay,
        )
    columns = (a.e1, a.b_direct, a.d2, a.b_simo, a.d3, a.b_miso)
    return [
        _overlay_row(d1, a.m, a.bandwidth, a.p_direct, a.p_relay, *point)
        for d1, *point in zip(a.d1.tolist(), *(column.tolist() for column in columns))
    ]


# --------------------------------------------------------------------- #
# /v1/underlay/energy                                                   #
# --------------------------------------------------------------------- #


def _underlay_row(
    mt: int, mr: int, b: int, d: float, distance: float, total_pa: float, peak_pa: float
) -> Row:
    return {
        "mt": mt,
        "mr": mr,
        "b": b,
        "d": d,
        "distance": distance,
        "total_pa": total_pa,
        "peak_pa": peak_pa,
    }


def underlay_row_dict(result: UnderlayEnergyResult) -> Row:
    """One JSON row of the Algorithm 2 PA-energy accounting."""
    return _underlay_row(
        result.mt,
        result.mr,
        result.b,
        result.d,
        result.distance,
        result.total_pa,
        result.peak_pa,
    )


def underlay_rows(request: UnderlayRequest) -> List[Row]:
    """Algorithm 2 PA energy over the request's distance axis, built
    straight from :meth:`UnderlaySystem.pa_energy_arrays`; each row equals
    :func:`underlay_row_dict` of the scalar ``pa_energy`` at that distance."""
    with np.errstate(all="ignore"):
        a = _underlay(request.convention).pa_energy_arrays(
            request.p,
            request.mt,
            request.mr,
            request.d,
            request.distances,
            request.bandwidth,
        )
    columns = (a.b, a.distance, a.total_pa, a.peak_pa)
    return [
        _underlay_row(a.mt, a.mr, b, a.d, distance, total_pa, peak_pa)
        for b, distance, total_pa, peak_pa in zip(*(column.tolist() for column in columns))
    ]


def overlay_body(request: OverlayRequest) -> bytes:
    """The buffered ``/v1/overlay/feasible`` body, encoded in one call."""
    rows = overlay_rows(request)
    return encode_payload({"rows": rows, "count": len(rows)})


def underlay_body(request: UnderlayRequest) -> bytes:
    """The buffered ``/v1/underlay/energy`` body, encoded in one call."""
    rows = underlay_rows(request)
    return encode_payload({"rows": rows, "count": len(rows)})


def overlay_lines(request: OverlayRequest) -> List[bytes]:
    """A streamed overlay sweep: each row's NDJSON line, no newline."""
    return [encode_payload(row) for row in overlay_rows(request)]


def underlay_lines(request: UnderlayRequest) -> List[bytes]:
    """A streamed underlay sweep: each row's NDJSON line, no newline."""
    return [encode_payload(row) for row in underlay_rows(request)]


# --------------------------------------------------------------------- #
# /v1/interweave/pattern                                                #
# --------------------------------------------------------------------- #


def _environment(spec: Optional[EnvironmentSpec]) -> MultipathEnvironment:
    """Materialize the request's environment (LOS when absent).

    The spec's seed must already be concrete here — the service resolves
    ``seed=None`` from its ``SeedSequence.spawn`` stream *before* dispatch,
    so pooled and inline execution construct identical environments.
    """
    if spec is None:
        return MultipathEnvironment.line_of_sight()
    if spec.n_scatterers > 0 and spec.seed is None:
        raise ValueError("environment seed must be resolved before dispatch")
    return MultipathEnvironment.random_indoor(
        n_scatterers=spec.n_scatterers,
        inner_radius_m=spec.inner_radius_m,
        outer_radius_m=spec.outer_radius_m,
        echo_amplitude=spec.echo_amplitude,
        decay=spec.decay,
        center=spec.center,
        rng=spec.seed,
    )


def interweave_delta(request: InterweaveRequest) -> float:
    """The St1 phase offset the request pins down (explicit or from Pr).

    Mirrors :meth:`NullSteeringPair.delay_for_null` on the same inputs.
    """
    if request.delta is not None:
        return request.delta
    with np.errstate(all="ignore"):
        pair = NullSteeringPair(request.st1, request.st2, request.wavelength)
        return pair.delay_for_null(request.pr, exact=request.exact_null)


def interweave_amplitudes(request: InterweaveRequest) -> List[float]:
    """Algorithm 3 field magnitudes at the request's sample points.

    Evaluates the batched :meth:`MultipathEnvironment.amplitude_at` with the
    same transmitter stack and phase vector :class:`NullSteeringPair` builds,
    so each element is bit-identical to the scalar
    ``pair.amplitude_at(point, delta, environment)`` value.
    """
    delta = interweave_delta(request)
    env = _environment(request.environment)
    tx = np.stack(
        [np.asarray(request.st1, float), np.asarray(request.st2, float)]
    )
    points = np.asarray(request.points, dtype=float)
    with np.errstate(all="ignore"):
        values = env.amplitude_at(
            tx,
            points,
            request.wavelength,
            tx_phases_rad=np.array([delta, 0.0]),
            tx_amplitudes=np.asarray(request.amplitudes, float),
        )
    return [float(v) for v in np.atleast_1d(np.asarray(values))]
