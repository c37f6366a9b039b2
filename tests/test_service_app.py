"""PlanningService.handle: routing, payloads, and status-code mapping."""

import asyncio
import json
import warnings

import pytest

from repro.beamforming.pairwise import NullSteeringPair
from repro.service.app import PlanningService
from repro.service.config import ServiceConfig
from repro.service.errors import OverloadedError


@pytest.fixture(scope="module")
def service():
    svc = PlanningService(
        ServiceConfig(workers=0, coalesce_ms=0.0, request_log=False, seed=11)
    )
    yield svc
    svc.close()


def call(service, method, path, body=None):
    blob = b"" if body is None else json.dumps(body).encode()
    status, answer = asyncio.run(service.handle(method, path, blob))
    return status, json.loads(answer)


class TestRouting:
    def test_healthz(self, service):
        assert call(service, "GET", "/healthz") == (200, {"status": "ok"})

    def test_metrics_shape(self, service):
        status, payload = call(service, "GET", "/metrics")
        assert status == 200
        assert {"requests_total", "coalesce", "pool", "latency_ms"} <= set(payload)

    def test_unknown_path_is_404(self, service):
        status, payload = call(service, "GET", "/nope")
        assert status == 404
        assert payload["error"] == "Not Found"

    def test_wrong_method_is_405(self, service):
        status, _ = call(service, "GET", "/v1/ebar")
        assert status == 405
        status, _ = call(service, "POST", "/healthz")
        assert status == 405

    def test_malformed_json_is_400(self, service):
        status, answer = asyncio.run(
            service.handle("POST", "/v1/ebar", b"{not json")
        )
        assert status == 400
        assert "JSON" in str(json.loads(answer)["detail"])

    def test_empty_body_is_400(self, service):
        status, _ = call(service, "POST", "/v1/ebar")
        assert status == 400


class TestEbarEndpoint:
    def test_table_lookup_matches_direct_table(self, service):
        status, payload = call(
            service, "POST", "/v1/ebar", {"p": 0.001, "b": 2, "mt": 2, "mr": 2}
        )
        assert status == 200
        table = service._table("paper")
        assert payload["e_bar"] == table.lookup(0.001, 2, 2, 2)
        assert payload["p_grid"] == 0.001

    def test_off_grid_b_is_404(self, service):
        status, payload = call(
            service, "POST", "/v1/ebar", {"p": 0.001, "b": 99, "mt": 2, "mr": 2}
        )
        assert status == 404
        assert "b=99" in str(payload["detail"])

    def test_off_grid_mt_is_404(self, service):
        status, _ = call(
            service, "POST", "/v1/ebar", {"p": 0.001, "b": 2, "mt": 9, "mr": 2}
        )
        assert status == 404

    def test_infeasible_grid_point_is_404(self, service, monkeypatch):
        # The default grids have no NaN entries, so emulate an infeasible
        # point with a stub table: the batch path must demux it to a 404.
        import numpy as np

        class NanTable:
            p_values = (0.0007,)
            b_values = (13,)
            mt_values = (1,)
            mr_values = (1,)

            def lookup(self, p, b, mt, mr):
                return np.full(np.shape(np.asarray(p, dtype=float)), np.nan)

        monkeypatch.setitem(service._tables, "paper", NanTable())
        status, payload = call(
            service, "POST", "/v1/ebar", {"p": 0.0007, "b": 13, "mt": 1, "mr": 1}
        )
        assert status == 404
        assert "infeasible" in str(payload["detail"])

    def test_exact_solver_runs_in_pool(self, service):
        from repro.energy.ebar import solve_ebar

        status, payload = call(
            service,
            "POST",
            "/v1/ebar",
            {"p": 0.005, "b": 3, "mt": 1, "mr": 2, "solver": "exact"},
        )
        assert status == 200
        assert payload["e_bar"] == solve_ebar(0.005, 3, 1, 2)
        assert "p_grid" not in payload


class TestParadigmEndpoints:
    def test_overlay_scalar_matches_direct_analysis(self, service):
        from repro.service import work

        status, payload = call(
            service,
            "POST",
            "/v1/overlay/feasible",
            {"d1": 40.0, "m": 2, "bandwidth": 10e3},
        )
        assert status == 200
        system = work._overlay("diversity_only")
        expected = work.overlay_row_dict(system.distance_analysis(40.0, 2, 10e3))
        assert payload["rows"] == [expected]

    def test_overlay_sweep_counts(self, service):
        status, payload = call(
            service,
            "POST",
            "/v1/overlay/feasible",
            {"d1": [20.0, 40.0, 60.0], "m": 2, "bandwidth": 10e3},
        )
        assert status == 200
        assert payload["count"] == 3
        assert [row["d1"] for row in payload["rows"]] == [20.0, 40.0, 60.0]

    def test_underlay_scalar_matches_direct_sweep(self, service):
        from repro.service import work

        status, payload = call(
            service,
            "POST",
            "/v1/underlay/energy",
            {"p": 1e-3, "mt": 2, "mr": 2, "d": 5.0, "distance": 80.0,
             "bandwidth": 10e3},
        )
        assert status == 200
        direct = work._underlay("paper").pa_energy(1e-3, 2, 2, 5.0, 80.0, 10e3)
        row = payload["rows"][0]
        assert row["total_pa"] == direct.total_pa
        assert row["peak_pa"] == direct.peak_pa
        assert row["b"] == direct.b

    def test_interweave_null_direction_is_deep(self, service):
        status, payload = call(
            service,
            "POST",
            "/v1/interweave/pattern",
            {"st1": [0.0, 0.0], "st2": [15.0, 0.0], "wavelength": 30.0,
             "point": [2000.0, 0.0], "pr": [100.0, 0.0]},
        )
        assert status == 200
        # Far along the null direction, the pair's field nearly cancels.
        assert payload["amplitudes"][0] < 0.05
        assert payload["delta"] == 0.0

    def test_interweave_unseeded_environment_reports_seed(self, service):
        body = {
            "st1": [0.0, 0.0], "st2": [15.0, 0.0], "wavelength": 30.0,
            "point": [40.0, 40.0], "delta": 0.0,
            "environment": {"n_scatterers": 3},
        }
        status, payload = call(service, "POST", "/v1/interweave/pattern", body)
        assert status == 200
        seed = payload["seed_used"]
        assert isinstance(seed, int)
        # Replaying with the echoed seed reproduces the amplitude exactly.
        body["environment"]["seed"] = seed
        _, replay = call(service, "POST", "/v1/interweave/pattern", body)
        assert replay["amplitudes"] == payload["amplitudes"]
        assert replay["seed_used"] == seed

    def test_interweave_solves_the_phase_offset_once(self, service, monkeypatch):
        solves = []
        solve = NullSteeringPair.delay_for_null

        def counted(pair, *args, **kwargs):
            solves.append(args)
            return solve(pair, *args, **kwargs)

        monkeypatch.setattr(NullSteeringPair, "delay_for_null", counted)
        body = {"st1": [0.0, 0.0], "st2": [15.0, 0.0], "wavelength": 30.0, "pr": [90.0, 35.0]}
        status, _ = call(service, "POST", "/v1/interweave/pattern", {**body, "point": [40.0, 7.0]})
        assert status == 200
        assert len(solves) == 1
        status, _ = call(
            service, "POST", "/v1/interweave/pattern", {**body, "points": [[40.0, 7.0], [9.0, 3.0]]}
        )
        assert status == 200
        assert len(solves) == 2

    def test_overflowing_environment_radius_names_the_field(self, service):
        status, payload = call(
            service,
            "POST",
            "/v1/interweave/pattern",
            {"st1": [0.0, 0.0], "st2": [15.0, 0.0], "wavelength": 30.0, "point": [10.0, 10.0],
             "delta": 0.0, "environment": {"n_scatterers": 3, "seed": 1, "outer_radius_m": 1e308}},
        )
        assert status == 400
        assert "outer_radius_m" in payload["detail"]

    def test_out_of_domain_parameter_is_400(self, service):
        for path, body in (
            ("/v1/overlay/feasible", b'{"d1": 40.0, "m": 2, "bandwidth": -1.0}'),
            # No e_bar_b in the exact solver's search bracket reaches p.
            ("/v1/ebar", b'{"p": 1e-3, "b": 1000, "mt": 2, "mr": 2, "solver": "exact"}'),
            # Integer fields holding a number beyond float range.
            ("/v1/simulate", b'{"n_nodes": 1e400}'),
            ("/v1/simulate", b'{"seed": Infinity}'),
            ("/v1/simulate", b'{"churn": {"max_joins": 1e400}}'),
            ("/v1/simulate", b'{"traffic": [{"name": "cbr", "packet_bits": -Infinity}]}'),
            # One past each work cap: scatterers, m, mt (both ebar solvers).
            (
                "/v1/interweave/pattern",
                b'{"st1": [0, 0], "st2": [15, 0], "wavelength": 30, "point": [1, 1],'
                b' "delta": 0.0, "environment": {"n_scatterers": 65, "seed": 1}}',
            ),
            ("/v1/overlay/feasible", b'{"d1": 40.0, "m": 17, "bandwidth": 10000.0}'),
            (
                "/v1/underlay/energy",
                b'{"p": 1e-3, "mt": 17, "mr": 2, "d": 5.0, "distance": 40.0,'
                b' "bandwidth": 10000.0}',
            ),
            ("/v1/ebar", b'{"p": 1e-3, "b": 2, "mt": 17, "mr": 2, "solver": "exact"}'),
            # Arithmetic past float range: 2.0**b and a squared distance.
            ("/v1/ebar", b'{"p": 1e-3, "b": 1100, "mt": 2, "mr": 2, "solver": "exact"}'),
            (
                "/v1/underlay/energy",
                b'{"p": 1e-3, "mt": 2, "mr": 2, "d": 1e308, "distance": 40.0,'
                b' "bandwidth": 10000.0}',
            ),
            # Geometry whose arithmetic overflows: the answer would carry
            # NaN or Infinity, which strict JSON cannot hold.
            (
                "/v1/interweave/pattern",
                b'{"st1": [0, 0], "st2": [15, 0], "wavelength": 30.0,'
                b' "point": [1e308, 1e308], "pr": [100, 0]}',
            ),
            (
                "/v1/interweave/pattern",
                b'{"st1": [0, 0], "st2": [1e308, 0], "wavelength": 30.0,'
                b' "point": [10, 10], "pr": [100, 0]}',
            ),
            (
                "/v1/interweave/pattern",
                b'{"st1": [0, 0], "st2": [15, 0], "wavelength": 1e-308,'
                b' "point": [10, 10], "pr": [100, 0]}',
            ),
            ("/v1/overlay/feasible", b'{"d1": 1e308, "m": 2, "bandwidth": 10000.0}'),
            (
                "/v1/underlay/energy",
                b'{"p": 1e-3, "mt": 2, "mr": 2, "d": 5.0, "distance": 1e308,'
                b' "bandwidth": 10000.0}',
            ),
            (
                "/v1/underlay/energy",
                b'{"p": 1e-3, "mt": 2, "mr": 2, "d": 5.0, "distance": [40.0, 1e308],'
                b' "bandwidth": 10000.0}',
            ),
        ):
            # No client input may print a numpy warning into the log.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                status, _ = asyncio.run(service.handle("POST", path, body))
            assert status == 400, (path, body)


class TestBackpressure:
    def test_full_pool_maps_to_429(self, service):
        class _FullPool:
            workers = 1

            async def submit(self, fn, *args):
                raise OverloadedError("sweep queue full (1/1 in flight)")

        real_pool = service.pool
        service.pool = _FullPool()
        try:
            status, payload = call(
                service,
                "POST",
                "/v1/overlay/feasible",
                {"d1": [20.0, 40.0], "m": 2, "bandwidth": 10e3},
            )
        finally:
            service.pool = real_pool
        assert status == 429
        assert payload["error"] == "Too Many Requests"
        assert "queue full" in str(payload["detail"])

    def test_real_pool_queue_limit_rejects(self):
        import time

        svc = PlanningService(
            ServiceConfig(workers=1, queue_limit=1, coalesce_ms=0.0,
                          request_log=False, seed=3)
        )

        async def main():
            first = asyncio.ensure_future(svc.pool.submit(time.sleep, 0.3))
            await asyncio.sleep(0.05)
            status, _ = await svc.handle(
                "POST",
                "/v1/overlay/feasible",
                json.dumps({"d1": [20.0, 40.0], "m": 2,
                            "bandwidth": 10e3}).encode(),
            )
            await first
            return status

        try:
            assert asyncio.run(main()) == 429
        finally:
            svc.close()


class TestErrorPayloadShape:
    def test_every_error_body_carries_status_error_and_detail(self, service):
        status, payload = call(service, "GET", "/nope")
        assert status == 404
        assert {"error", "detail", "status"} <= set(payload)
        assert payload["status"] == 404


class TestHealthStates:
    def test_degraded_pool_flips_readiness(self):
        svc = PlanningService(
            ServiceConfig(workers=0, coalesce_ms=0.0, request_log=False)
        )
        try:
            assert svc.health_status() == "ok"
            svc.pool._degraded = True
            assert svc.health_status() == "degraded"
            status, payload = call(svc, "GET", "/healthz")
            assert (status, payload) == (200, {"status": "degraded"})
            status, payload = call(svc, "GET", "/metrics")
            assert payload["health"] == "degraded"
        finally:
            svc.close()

    def test_draining_wins_over_degraded(self):
        svc = PlanningService(
            ServiceConfig(workers=0, coalesce_ms=0.0, request_log=False)
        )
        try:
            svc.pool._degraded = True
            svc.mark_draining()
            assert svc.health_status() == "draining"
        finally:
            svc.close()


class TestDeadline:
    def _service(self, timeout_ms):
        return PlanningService(
            ServiceConfig(
                workers=0,
                coalesce_ms=0.0,
                request_log=False,
                request_timeout_ms=timeout_ms,
            )
        )

    def test_stalled_request_maps_to_504(self):
        svc = self._service(50.0)
        svc.faults.arm_delay(5.0, times=1)
        try:
            status, payload = call(
                svc, "POST", "/v1/ebar", {"p": 0.001, "b": 2, "mt": 2, "mr": 2}
            )
        finally:
            svc.close()
        assert status == 504
        assert payload["error"] == "Gateway Timeout"
        assert payload["status"] == 504
        assert "50 ms" in str(payload["detail"])
        assert svc.metrics.snapshot()["deadline_timeouts"] == 1

    def test_no_timeout_configured_never_cancels(self):
        svc = PlanningService(
            ServiceConfig(workers=0, coalesce_ms=0.0, request_log=False)
        )
        svc.faults.arm_delay(0.05, times=1)
        try:
            status, _ = call(
                svc, "POST", "/v1/ebar", {"p": 0.001, "b": 2, "mt": 2, "mr": 2}
            )
        finally:
            svc.close()
        assert status == 200

    def test_streamed_sweep_gets_the_buffered_504(self, monkeypatch):
        """A streamed sweep runs under the same deadline as its buffered
        twin and is refused with the same 504 before commit."""
        svc = self._service(100.0)

        async def slow_submit(fn, *args):
            await asyncio.sleep(0.5)
            return fn(*args)

        monkeypatch.setattr(svc.pool, "submit", slow_submit)
        body = json.dumps(
            {"p": 1e-3, "mt": 2, "mr": 2, "d": 5.0, "bandwidth": 10e3,
             "distances": [2.0, 4.0, 8.0]}
        ).encode()
        try:
            buffered = asyncio.run(
                svc.handle("POST", "/v1/underlay/energy", body)
            )
            streamed = asyncio.run(
                svc.handle_stream("POST", "/v1/underlay/energy", body)
            )
        finally:
            svc.close()
        assert buffered[0] == 504
        assert streamed == buffered
        assert "100 ms" in str(json.loads(streamed[1])["detail"])
        assert svc.metrics.snapshot()["deadline_timeouts"] == 2

    def test_fast_request_beats_the_deadline(self):
        svc = self._service(30000.0)
        try:
            status, _ = call(svc, "GET", "/healthz")
        finally:
            svc.close()
        assert status == 200
        assert svc.metrics.snapshot()["deadline_timeouts"] == 0
