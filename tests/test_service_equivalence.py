"""Coalescing/pooling equivalence: served responses are bit-identical to
direct library calls, even when concurrent requests are merged into batches.

These tests run the full stack — real TCP server on a background thread,
stdlib client, request-coalescing scheduler, process worker pool — and
compare every float against the value the same request would produce via a
direct in-process library call.  Equality is exact (``==``), not approx:
the batch kernels are elementwise bit-identical to the scalar paths and
JSON ``repr`` round-trips floats exactly.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.beamforming.pairwise import NullSteeringPair
from repro.energy.ebar import solve_ebar
from repro.energy.table import EbarTable
from repro.service import work
from repro.service.config import ServiceConfig
from repro.service.testing import ThreadedServer

#: Generous window so every barrier-released volley lands in one batch.
COALESCE_MS = 60.0


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(
        port=0, workers=1, coalesce_ms=COALESCE_MS, queue_limit=8,
        request_log=False, seed=1234,
    )
    with ThreadedServer(config) as srv:
        yield srv


def _volley(server, calls):
    """Fire ``calls`` concurrently, released together by a barrier."""
    barrier = threading.Barrier(len(calls))

    def fire(fn):
        client = server.client()
        barrier.wait()
        return fn(client)

    with ThreadPoolExecutor(max_workers=len(calls)) as pool:
        return list(pool.map(fire, calls))


def _batch_delta(server, before):
    after = server.client().metrics_snapshot()["coalesce"]
    batches = after["batches"] - before["batches"]
    requests = after["requests"] - before["requests"]
    return batches, requests


class TestCoalescedBitIdentity:
    def test_ebar_concurrent_lookups_match_table_exactly(self, server):
        table = EbarTable(convention="paper")
        points = [(p, b) for p in table.p_values[:4] for b in (1, 2)]
        before = server.client().metrics_snapshot()["coalesce"]
        responses = _volley(
            server,
            [lambda c, p=p, b=b: c.ebar(p, b, 2, 2) for (p, b) in points],
        )
        for (p, b), payload in zip(points, responses):
            assert payload["e_bar"] == table.lookup(p, b, 2, 2), (p, b)
        batches, requests = _batch_delta(server, before)
        assert requests == len(points)
        assert batches < requests, "concurrent lookups were never coalesced"

    def test_overlay_concurrent_scalars_match_direct_analysis(self, server):
        d1_values = [20.0, 30.0, 40.0, 50.0, 60.0, 70.0]
        before = server.client().metrics_snapshot()["coalesce"]
        responses = _volley(
            server,
            [
                lambda c, d1=d1: c.overlay_feasible(d1, 2, 10e3)
                for d1 in d1_values
            ],
        )
        system = work._overlay("diversity_only")
        for d1, payload in zip(d1_values, responses):
            expected = work.overlay_row_dict(system.distance_analysis(d1, 2, 10e3))
            assert payload["rows"] == [expected], d1
        batches, requests = _batch_delta(server, before)
        assert requests == len(d1_values)
        assert batches < requests

    def test_underlay_concurrent_scalars_match_direct_energy(self, server):
        distances = [40.0, 60.0, 80.0, 100.0, 120.0]
        responses = _volley(
            server,
            [
                lambda c, dist=dist: c.underlay_energy(1e-3, 2, 2, 5.0, dist, 10e3)
                for dist in distances
            ],
        )
        system = work._underlay("paper")
        for dist, payload in zip(distances, responses):
            direct = system.pa_energy(1e-3, 2, 2, 5.0, dist, 10e3)
            row = payload["rows"][0]
            assert row["total_pa"] == direct.total_pa, dist
            assert row["peak_pa"] == direct.peak_pa, dist
            assert row["b"] == direct.b, dist

    def test_interweave_concurrent_points_match_pair_amplitude(self, server):
        pair = NullSteeringPair((0.0, 0.0), (15.0, 0.0), 30.0)
        delta = pair.delay_for_null((100.0, 0.0))
        points = [(40.0, 40.0), (55.0, 10.0), (-30.0, 25.0), (10.0, 90.0)]
        responses = _volley(
            server,
            [
                lambda c, pt=pt: c.interweave_pattern(
                    (0.0, 0.0), (15.0, 0.0), 30.0, pt, delta=delta
                )
                for pt in points
            ],
        )
        for pt, payload in zip(points, responses):
            assert payload["amplitudes"][0] == pair.amplitude_at(pt, delta), pt


#: Non-round inputs where the long-haul square once differed by 1 ULP
#: between the scalar analysis and the array pass (the served e1 was off).
REPRODUCER = dict(
    d1=109.2812963273322,
    m=3,
    bandwidth=40e3,
    p_direct=0.0009668210143997612,
    p_relay=9.668210143997612e-05,
)


class TestNonRoundInputs:
    def test_overlay_reproducer_coalesced_matches_scalar_analysis(self, server):
        r = REPRODUCER
        d1_values = [r["d1"], r["d1"] * 1.37, r["d1"] / 2.9]
        responses = _volley(
            server,
            [
                lambda c, d1=d1: c.overlay_feasible(
                    d1, r["m"], r["bandwidth"], r["p_direct"], r["p_relay"], "paper"
                )
                for d1 in d1_values
            ],
        )
        system = work._overlay("paper")
        for d1, payload in zip(d1_values, responses):
            expected = system.distance_analysis(
                d1, r["m"], r["bandwidth"], r["p_direct"], r["p_relay"]
            )
            assert payload["rows"] == [work.overlay_row_dict(expected)], d1
        assert responses[0]["rows"][0]["e1"] == 2.3456010538721273e-05

    def test_overlay_reproducer_sweep_matches_scalar_analysis(self, server):
        r = REPRODUCER
        d1_values = [r["d1"], 37.251773, 260.0000001]
        payload = server.client().overlay_feasible(
            d1_values, r["m"], r["bandwidth"], r["p_direct"], r["p_relay"], "paper"
        )
        system = work._overlay("paper")
        assert payload["rows"] == [
            work.overlay_row_dict(
                system.distance_analysis(
                    d1, r["m"], r["bandwidth"], r["p_direct"], r["p_relay"]
                )
            )
            for d1 in d1_values
        ]

    def test_underlay_non_round_distances_match_scalar_energy(self, server):
        distances = [109.2812963273322, 57.01310044, 233.3333333]
        sweep = server.client().underlay_energy(
            9.668210143997612e-05, 3, 2, 4.2, distances, 40e3
        )
        system = work._underlay("paper")
        assert sweep["rows"] == [
            work.underlay_row_dict(
                system.pa_energy(9.668210143997612e-05, 3, 2, 4.2, dist, 40e3)
            )
            for dist in distances
        ]


class TestPooledBitIdentity:
    def test_overlay_sweep_matches_per_point_analysis(self, server):
        d1_values = [25.0, 45.0, 65.0]
        payload = server.client().overlay_feasible(d1_values, 3, 10e3)
        system = work._overlay("diversity_only")
        expected = [
            work.overlay_row_dict(r)
            for r in system.distance_analyses(d1_values, 3, 10e3)
        ]
        assert payload["rows"] == expected
        # and the vectorized kernel itself equals the scalar path per point
        for d1, row in zip(d1_values, expected):
            assert row == work.overlay_row_dict(system.distance_analysis(d1, 3, 10e3))

    def test_underlay_sweep_matches_scalar_requests(self, server):
        distances = [50.0, 90.0]
        sweep = server.client().underlay_energy(
            1e-3, 2, 1, 5.0, distances, 10e3
        )
        scalars = [
            server.client().underlay_energy(1e-3, 2, 1, 5.0, dist, 10e3)
            for dist in distances
        ]
        assert sweep["rows"] == [s["rows"][0] for s in scalars]

    def test_exact_ebar_matches_direct_solve(self, server):
        payload = server.client().ebar(0.0007, 5, 2, 3, solver="exact")
        assert payload["e_bar"] == solve_ebar(0.0007, 5, 2, 3)

    def test_seeded_interweave_environment_identical_via_pool_and_inline(self, server):
        env = {"n_scatterers": 4, "seed": 99}
        args = ((0.0, 0.0), (15.0, 0.0), 30.0)
        point = (40.0, 40.0)
        served = server.client().interweave_pattern(
            *args, point, pr=(100.0, 0.0), environment=env
        )
        # sweep path (worker process) with the same single point
        pooled = server.client().interweave_pattern(
            *args, [point], pr=(100.0, 0.0), environment=env
        )
        assert served["amplitudes"] == pooled["amplitudes"]
        assert served["seed_used"] == 99
