"""Request-schema parsing: happy paths and named-field 400s."""

import pytest

from repro.service.errors import BadRequestError
from repro.service.schemas import (
    MAX_SWEEP_POINTS,
    EbarRequest,
    InterweaveRequest,
    OverlayRequest,
    UnderlayRequest,
    parse_ebar_request,
    parse_interweave_request,
    parse_overlay_request,
    parse_underlay_request,
)


class TestEbar:
    def test_happy_path_defaults(self):
        req = parse_ebar_request({"p": 0.001, "b": 2, "mt": 2, "mr": 2})
        assert req == EbarRequest(p=0.001, b=2, mt=2, mr=2)
        assert req.solver == "table" and req.convention == "paper"

    def test_exact_solver_and_convention(self):
        req = parse_ebar_request(
            {"p": 0.01, "b": 1, "mt": 1, "mr": 4, "solver": "exact",
             "convention": "diversity_only"}
        )
        assert req.solver == "exact"
        assert req.convention == "diversity_only"

    @pytest.mark.parametrize(
        "body",
        [
            "not an object",
            {"b": 2, "mt": 2, "mr": 2},  # missing p
            {"p": "x", "b": 2, "mt": 2, "mr": 2},
            {"p": 0.001, "b": 2.5, "mt": 2, "mr": 2},
            {"p": 0.001, "b": True, "mt": 2, "mr": 2},  # bool is not an int
            {"p": 0.001, "b": 2, "mt": 2, "mr": 2, "solver": "magic"},
            {"p": 0.001, "b": 2, "mt": 2, "mr": 2, "convention": "bogus"},
            {"p": 2.0, "b": 2, "mt": 2, "mr": 2},  # p outside (0, 1)
            {"p": 0.001, "b": -2, "mt": 2, "mr": 2},
        ],
    )
    def test_rejects(self, body):
        with pytest.raises(BadRequestError):
            parse_ebar_request(body)


class TestOverlay:
    def test_scalar_axis(self):
        req = parse_overlay_request({"d1": 40.0, "m": 2, "bandwidth": 10e3})
        assert req.d1 == (40.0,)
        assert req.scalar is True
        assert req.convention == "diversity_only"
        assert (req.p_direct, req.p_relay) == (0.005, 0.0005)

    def test_vector_axis(self):
        req = parse_overlay_request({"d1": [10.0, 20.0], "m": 3, "bandwidth": 10e3})
        assert req.d1 == (10.0, 20.0)
        assert req.scalar is False

    def test_d1_values_alias(self):
        req = parse_overlay_request(
            {"d1_values": [10.0, 20.0], "m": 3, "bandwidth": 10e3}
        )
        assert req.d1 == (10.0, 20.0) and req.scalar is False

    def test_max_points_enforced(self):
        with pytest.raises(BadRequestError, match="per-request limit"):
            parse_overlay_request(
                {"d1": [1.0] * (MAX_SWEEP_POINTS + 1), "m": 2, "bandwidth": 10e3}
            )

    @pytest.mark.parametrize(
        "body",
        [
            {"m": 2, "bandwidth": 10e3},  # no axis
            {"d1": [], "m": 2, "bandwidth": 10e3},
            {"d1": 10.0, "d1_values": [10.0], "m": 2, "bandwidth": 10e3},
            {"d1": 10.0, "m": 0, "bandwidth": 10e3},
            {"d1": -1.0, "m": 2, "bandwidth": 10e3},
            {"d1": 10.0, "m": 2, "bandwidth": 10e3, "p_direct": 0.0},
        ],
    )
    def test_rejects(self, body):
        with pytest.raises(BadRequestError):
            parse_overlay_request(body)

    def test_dataclass_revalidates(self):
        with pytest.raises(ValueError):
            OverlayRequest(d1=(), m=2, bandwidth=10e3)


class TestUnderlay:
    def test_scalar_axis(self):
        req = parse_underlay_request(
            {"p": 1e-3, "mt": 2, "mr": 2, "d": 5.0, "distance": 80.0,
             "bandwidth": 10e3}
        )
        assert req.distances == (80.0,) and req.scalar is True
        assert req.convention == "paper"

    def test_vector_axis(self):
        req = parse_underlay_request(
            {"p": 1e-3, "mt": 1, "mr": 1, "d": 5.0,
             "distances": [50.0, 100.0], "bandwidth": 10e3}
        )
        assert req.distances == (50.0, 100.0) and req.scalar is False

    @pytest.mark.parametrize(
        "body",
        [
            {"p": 1e-3, "mt": 2, "mr": 2, "d": 5.0, "bandwidth": 10e3},
            {"p": 1e-3, "mt": 2, "mr": 2, "d": 0.0, "distance": 80.0,
             "bandwidth": 10e3},
            {"p": 1e-3, "mt": 2, "mr": 2, "d": 5.0, "distance": -80.0,
             "bandwidth": 10e3},
        ],
    )
    def test_rejects(self, body):
        with pytest.raises(BadRequestError):
            parse_underlay_request(body)

    def test_dataclass_revalidates(self):
        with pytest.raises(ValueError):
            UnderlayRequest(p=1e-3, mt=2, mr=2, d=5.0, distances=(),
                            bandwidth=10e3)


class TestInterweave:
    BASE = {"st1": [0.0, 0.0], "st2": [15.0, 0.0], "wavelength": 30.0}

    def test_single_point_with_pr(self):
        req = parse_interweave_request(
            {**self.BASE, "point": [40.0, 40.0], "pr": [100.0, 0.0]}
        )
        assert req.points == ((40.0, 40.0),) and req.scalar is True
        assert req.pr == (100.0, 0.0) and req.delta is None

    def test_point_batch_with_delta(self):
        req = parse_interweave_request(
            {**self.BASE, "points": [[1.0, 2.0], [3.0, 4.0]], "delta": 0.5}
        )
        assert req.points == ((1.0, 2.0), (3.0, 4.0)) and req.scalar is False
        assert req.delta == 0.5

    def test_environment_spec(self):
        req = parse_interweave_request(
            {**self.BASE, "point": [1.0, 1.0], "delta": 0.0,
             "environment": {"n_scatterers": 3, "seed": 42}}
        )
        assert req.environment is not None
        assert req.environment.n_scatterers == 3
        assert req.environment.seed == 42

    @pytest.mark.parametrize(
        "body",
        [
            {"st1": [0.0, 0.0], "st2": [15.0, 0.0], "wavelength": 30.0},  # no point
            {**BASE, "point": [1.0, 1.0]},  # neither delta nor pr
            {**BASE, "point": [1.0, 1.0], "delta": 0.0, "pr": [1.0, 2.0]},  # both
            {**BASE, "point": [1.0], "delta": 0.0},  # not a pair
            {**BASE, "points": [], "delta": 0.0},
            {**BASE, "point": [1.0, 1.0], "points": [[1.0, 1.0]], "delta": 0.0},
            {"st1": [0.0, 0.0], "st2": [0.0, 0.0], "wavelength": 30.0,
             "point": [1.0, 1.0], "delta": 0.0},  # coincident pair
            {**BASE, "point": [1.0, 1.0], "delta": 0.0,
             "environment": {"decay": 2.0}},
            {**BASE, "point": [1.0, 1.0], "delta": 0.0,
             "environment": {"outer_radius_m": 1.0}},
        ],
    )
    def test_rejects(self, body):
        with pytest.raises(BadRequestError):
            parse_interweave_request(body)

    def test_max_points_enforced(self):
        with pytest.raises(BadRequestError, match="per-request limit"):
            parse_interweave_request(
                {
                    **self.BASE,
                    "points": [[0.0, 0.0]] * (MAX_SWEEP_POINTS + 1),
                    "delta": 0.0,
                }
            )

    def test_dataclass_revalidates(self):
        with pytest.raises(ValueError):
            InterweaveRequest(
                st1=(0.0, 0.0), st2=(15.0, 0.0), wavelength=30.0,
                points=((1.0, 1.0),),  # no delta and no pr
            )
