"""Request schemas: JSON body -> validated, frozen, hashable dataclasses.

Each endpoint has one ``parse_*`` function that turns the decoded JSON
value into a frozen request dataclass, raising
:class:`repro.service.errors.BadRequestError` with a field-naming message
on any malformed input.  The dataclasses re-validate their own fields in
``__post_init__`` through :mod:`repro.utils.validation`, so a request
object is well-formed no matter how it was built.

The request objects double as *coalescing group keys*: stripping the swept
axis (``dataclasses.replace(req, d1=())`` and friends) yields a hashable
value identifying everything a batch kernel shares across merged requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.energy.ebar import CONVENTIONS
from repro.service.errors import BadRequestError
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = [
    "EbarRequest",
    "OverlayRequest",
    "UnderlayRequest",
    "InterweaveRequest",
    "EnvironmentSpec",
    "parse_ebar_request",
    "parse_overlay_request",
    "parse_underlay_request",
    "parse_interweave_request",
    "error_payload",
    "EBAR_SOLVERS",
]

#: Accepted values of the ``/v1/ebar`` ``solver`` field.
EBAR_SOLVERS = ("table", "exact")

Point = Tuple[float, float]


# --------------------------------------------------------------------- #
# JSON extraction helpers (every failure is a named-field 400)          #
# --------------------------------------------------------------------- #


def _require_object(data: object) -> Mapping[str, object]:
    if not isinstance(data, Mapping):
        raise BadRequestError("request body must be a JSON object")
    return data


def _get(data: Mapping[str, object], key: str) -> object:
    if key not in data:
        raise BadRequestError(f"missing required field {key!r}")
    return data[key]


def _as_float(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"{name} must be a number")
    return float(value)


def _as_int(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(f"{name} must be an integer")
    return int(value)


def _as_bool(value: object, name: str) -> bool:
    if not isinstance(value, bool):
        raise BadRequestError(f"{name} must be a boolean")
    return value


def _as_str(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise BadRequestError(f"{name} must be a string")
    return value


def _as_point(value: object, name: str) -> Point:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise BadRequestError(f"{name} must be an [x, y] pair of numbers")
    return (float(value[0]), float(value[1]))


def _axis(
    data: Mapping[str, object],
    scalar_key: str,
    vector_key: str,
    max_points: int,
) -> Tuple[Tuple[float, ...], bool]:
    """One swept axis given either as a scalar or as a list.

    Returns ``(values, scalar)`` where ``scalar`` records which spelling the
    client used (scalar requests are coalesced; vector requests are pooled).
    """
    has_scalar = scalar_key in data
    has_vector = vector_key != scalar_key and vector_key in data
    if has_scalar and has_vector:
        raise BadRequestError(f"give either {scalar_key!r} or {vector_key!r}, not both")
    if has_scalar:
        value = data[scalar_key]
        if isinstance(value, (list, tuple)):
            values = tuple(
                _as_float(v, f"{scalar_key}[{j}]") for j, v in enumerate(value)
            )
            if not values:
                raise BadRequestError(f"{scalar_key} must be non-empty")
            if len(values) > max_points:
                raise BadRequestError(
                    f"{scalar_key} has {len(values)} points; "
                    f"the per-request limit is {max_points}"
                )
            return values, False
        return (_as_float(value, scalar_key),), True
    if has_vector:
        return _axis(data, vector_key, vector_key, max_points)
    raise BadRequestError(f"missing required field {scalar_key!r}")


def _check_convention(convention: str) -> str:
    if convention not in CONVENTIONS:
        raise BadRequestError(f"convention must be one of {CONVENTIONS}")
    return convention


# --------------------------------------------------------------------- #
# /v1/ebar                                                              #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class EbarRequest:
    """One ``e_bar_b`` query: table lookup (default) or exact re-solve."""

    p: float
    b: int
    mt: int
    mr: int
    solver: str = "table"
    convention: str = "paper"

    def __post_init__(self) -> None:
        check_probability(self.p, "p")
        check_positive_int(self.b, "b")
        check_positive_int(self.mt, "mt")
        check_positive_int(self.mr, "mr")
        if self.solver not in EBAR_SOLVERS:
            raise ValueError(f"solver must be one of {EBAR_SOLVERS}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")


def parse_ebar_request(data: object) -> EbarRequest:
    """Validate a ``/v1/ebar`` body; :class:`BadRequestError` on any defect."""
    body = _require_object(data)
    solver = _as_str(body.get("solver", "table"), "solver")
    if solver not in EBAR_SOLVERS:
        raise BadRequestError(f"solver must be one of {EBAR_SOLVERS}")
    convention = _check_convention(
        _as_str(body.get("convention", "paper"), "convention")
    )
    try:
        return EbarRequest(
            p=_as_float(_get(body, "p"), "p"),
            b=_as_int(_get(body, "b"), "b"),
            mt=_as_int(_get(body, "mt"), "mt"),
            mr=_as_int(_get(body, "mr"), "mr"),
            solver=solver,
            convention=convention,
        )
    except (ValueError, TypeError) as exc:
        raise BadRequestError(str(exc)) from exc


# --------------------------------------------------------------------- #
# /v1/overlay/feasible                                                  #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class OverlayRequest:
    """Algorithm 1 distance/energy feasibility over a D1 axis.

    Defaults mirror Figure 6: direct BER 0.005, relayed BER 0.0005, and the
    ``diversity_only`` table convention the paper's own Figure 6 numbers
    imply (see EXPERIMENTS.md).
    """

    d1: Tuple[float, ...]
    m: int
    bandwidth: float
    p_direct: float = 0.005
    p_relay: float = 0.0005
    convention: str = "diversity_only"
    scalar: bool = False

    def __post_init__(self) -> None:
        if not self.d1:
            raise ValueError("d1 must be non-empty")
        for value in self.d1:
            check_positive(value, "d1")
        check_positive_int(self.m, "m")
        check_positive(self.bandwidth, "bandwidth")
        check_probability(self.p_direct, "p_direct")
        check_probability(self.p_relay, "p_relay")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")


def parse_overlay_request(data: object, max_points: int = 4096) -> OverlayRequest:
    """Validate a ``/v1/overlay/feasible`` body (``d1`` or ``d1_values``)."""
    body = _require_object(data)
    d1, scalar = _axis(body, "d1", "d1_values", max_points)
    try:
        return OverlayRequest(
            d1=d1,
            m=_as_int(_get(body, "m"), "m"),
            bandwidth=_as_float(_get(body, "bandwidth"), "bandwidth"),
            p_direct=_as_float(body.get("p_direct", 0.005), "p_direct"),
            p_relay=_as_float(body.get("p_relay", 0.0005), "p_relay"),
            convention=_check_convention(
                _as_str(body.get("convention", "diversity_only"), "convention")
            ),
            scalar=scalar,
        )
    except (ValueError, TypeError) as exc:
        raise BadRequestError(str(exc)) from exc


# --------------------------------------------------------------------- #
# /v1/underlay/energy                                                   #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class UnderlayRequest:
    """Algorithm 2 PA-energy accounting over a long-haul distance axis."""

    p: float
    mt: int
    mr: int
    d: float
    distances: Tuple[float, ...]
    bandwidth: float
    convention: str = "paper"
    scalar: bool = False

    def __post_init__(self) -> None:
        check_probability(self.p, "p")
        check_positive_int(self.mt, "mt")
        check_positive_int(self.mr, "mr")
        check_positive(self.d, "d")
        if not self.distances:
            raise ValueError("distances must be non-empty")
        for value in self.distances:
            check_positive(value, "distance")
        check_positive(self.bandwidth, "bandwidth")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")


def parse_underlay_request(data: object, max_points: int = 4096) -> UnderlayRequest:
    """Validate a ``/v1/underlay/energy`` body (``distance`` or ``distances``)."""
    body = _require_object(data)
    distances, scalar = _axis(body, "distance", "distances", max_points)
    try:
        return UnderlayRequest(
            p=_as_float(_get(body, "p"), "p"),
            mt=_as_int(_get(body, "mt"), "mt"),
            mr=_as_int(_get(body, "mr"), "mr"),
            d=_as_float(_get(body, "d"), "d"),
            distances=distances,
            bandwidth=_as_float(_get(body, "bandwidth"), "bandwidth"),
            convention=_check_convention(
                _as_str(body.get("convention", "paper"), "convention")
            ),
            scalar=scalar,
        )
    except (ValueError, TypeError) as exc:
        raise BadRequestError(str(exc)) from exc


# --------------------------------------------------------------------- #
# /v1/interweave/pattern                                                #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class EnvironmentSpec:
    """A :meth:`MultipathEnvironment.random_indoor` construction recipe.

    ``seed=None`` asks the service to assign one from its per-task
    ``SeedSequence.spawn`` stream (echoed back as ``seed_used``).
    """

    n_scatterers: int = 6
    inner_radius_m: float = 1.5
    outer_radius_m: float = 6.0
    echo_amplitude: float = 0.25
    decay: float = 0.75
    center: Point = (0.0, 0.0)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        check_non_negative_int(self.n_scatterers, "n_scatterers")
        check_positive(self.inner_radius_m, "inner_radius_m")
        if self.outer_radius_m <= self.inner_radius_m:
            raise ValueError("outer_radius_m must exceed inner_radius_m")
        check_non_negative(self.echo_amplitude, "echo_amplitude")
        check_in_range(self.decay, "decay", 0.0, 1.0, inclusive=False)
        check_finite(self.center[0], "center[0]")
        check_finite(self.center[1], "center[1]")
        if self.seed is not None:
            check_non_negative_int(self.seed, "seed")


def _parse_environment(value: object) -> Optional[EnvironmentSpec]:
    if value is None:
        return None
    body = _require_object(value)
    seed_raw = body.get("seed")
    try:
        return EnvironmentSpec(
            n_scatterers=_as_int(body.get("n_scatterers", 6), "n_scatterers"),
            inner_radius_m=_as_float(body.get("inner_radius_m", 1.5), "inner_radius_m"),
            outer_radius_m=_as_float(body.get("outer_radius_m", 6.0), "outer_radius_m"),
            echo_amplitude=_as_float(body.get("echo_amplitude", 0.25), "echo_amplitude"),
            decay=_as_float(body.get("decay", 0.75), "decay"),
            center=_as_point(body.get("center", (0.0, 0.0)), "center"),
            seed=None if seed_raw is None else _as_int(seed_raw, "seed"),
        )
    except (ValueError, TypeError) as exc:
        raise BadRequestError(str(exc)) from exc


@dataclass(frozen=True)
class InterweaveRequest:
    """Algorithm 3 pairwise null-steering field samples.

    Exactly one of ``delta`` (an explicit St1 phase offset) or ``pr`` (a
    primary-receiver position to null toward, via the Algorithm 3 formula
    or the exact two-ray condition when ``exact_null``) must be given.
    """

    st1: Point
    st2: Point
    wavelength: float
    points: Tuple[Point, ...]
    delta: Optional[float] = None
    pr: Optional[Point] = None
    exact_null: bool = False
    amplitudes: Point = (1.0, 1.0)
    environment: Optional[EnvironmentSpec] = None
    scalar: bool = False

    def __post_init__(self) -> None:
        check_finite(self.st1[0], "st1[0]")
        check_finite(self.st1[1], "st1[1]")
        check_finite(self.st2[0], "st2[0]")
        check_finite(self.st2[1], "st2[1]")
        if self.st1 == self.st2:
            raise ValueError("st1 and st2 must be distinct")
        check_positive(self.wavelength, "wavelength")
        if not self.points:
            raise ValueError("points must be non-empty")
        for point in self.points:
            check_finite(point[0], "points[..][0]")
            check_finite(point[1], "points[..][1]")
        if (self.delta is None) == (self.pr is None):
            raise ValueError("give exactly one of 'delta' or 'pr'")
        if self.delta is not None:
            check_finite(self.delta, "delta")
        if self.pr is not None:
            check_finite(self.pr[0], "pr[0]")
            check_finite(self.pr[1], "pr[1]")
        check_non_negative(self.amplitudes[0], "amplitudes[0]")
        check_non_negative(self.amplitudes[1], "amplitudes[1]")


def parse_interweave_request(data: object, max_points: int = 4096) -> InterweaveRequest:
    """Validate a ``/v1/interweave/pattern`` body (``point`` or ``points``)."""
    body = _require_object(data)
    if "point" in body and "points" in body:
        raise BadRequestError("give either 'point' or 'points', not both")
    if "point" in body:
        points: Tuple[Point, ...] = (_as_point(body["point"], "point"),)
        scalar = True
    elif "points" in body:
        raw = body["points"]
        if not isinstance(raw, (list, tuple)) or not raw:
            raise BadRequestError("points must be a non-empty list of [x, y] pairs")
        if len(raw) > max_points:
            raise BadRequestError(
                f"points has {len(raw)} entries; the per-request limit is {max_points}"
            )
        points = tuple(_as_point(p, f"points[{j}]") for j, p in enumerate(raw))
        scalar = False
    else:
        raise BadRequestError("missing required field 'point' (or 'points')")
    delta_raw = body.get("delta")
    pr_raw = body.get("pr")
    amplitudes_raw = body.get("amplitudes", (1.0, 1.0))
    try:
        return InterweaveRequest(
            st1=_as_point(_get(body, "st1"), "st1"),
            st2=_as_point(_get(body, "st2"), "st2"),
            wavelength=_as_float(_get(body, "wavelength"), "wavelength"),
            points=points,
            delta=None if delta_raw is None else _as_float(delta_raw, "delta"),
            pr=None if pr_raw is None else _as_point(pr_raw, "pr"),
            exact_null=_as_bool(body.get("exact_null", False), "exact_null"),
            amplitudes=_as_point(amplitudes_raw, "amplitudes"),
            environment=_parse_environment(body.get("environment")),
            scalar=scalar,
        )
    except (ValueError, TypeError) as exc:
        raise BadRequestError(str(exc)) from exc


# --------------------------------------------------------------------- #
# Error bodies                                                          #
# --------------------------------------------------------------------- #


def error_payload(
    status: int,
    error: str,
    detail: str,
    retry_after_s: Optional[float] = None,
) -> Dict[str, object]:
    """The one structured error-body shape every non-2xx response carries.

    ``{"error": <reason>, "detail": <message>, "status": <code>}`` plus an
    optional ``retry_after_s`` hint mirrored from the ``Retry-After``
    header, so clients can recover the full failure context from the body
    alone (e.g. after the header layer has been stripped by a proxy).
    """
    check_in_range(status, "status", 100, 599)
    payload: Dict[str, object] = {
        "error": error,
        "detail": detail,
        "status": int(status),
    }
    if retry_after_s is not None:
        payload["retry_after_s"] = check_non_negative(retry_after_s, "retry_after_s")
    return payload


# Re-exported for the work module's typed signatures.
_ = field
