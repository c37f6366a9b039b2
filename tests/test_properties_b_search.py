"""Hypothesis property tests: the one-pass constellation searches equal the
size-by-size reference bit for bit.

``OverlaySystem.distance_arrays`` and ``UnderlaySystem.pa_energy_arrays``
price every constellation size at every point in one array pass, and the
service rows (``work.overlay_rows`` / ``work.underlay_rows``) are built
straight from those arrays; the one-point methods (``distance_analysis``,
``direct_link_energy``, ``relay_energy``, ``pa_energy``) are the same pass
at n = 1.  These properties pin all of them to the per-point analyses of
``tests/b_search_reference.py``, which walk the sizes one by one through
``minimize_over_b``.  Results are compared through ``repr``, so a 1-ULP
difference or a flipped sign of zero fails.

Axes mix ordinary distances with lax BER targets (some sizes infeasible),
targets no size can meet, and distances long enough to overflow the PA
energy, where the scalar path skips a size or raises.  When any point of
an axis raises in the scalar path, the array path must raise a
``ValueError`` with one of the scalar messages.
"""

import asyncio
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import work
from repro.service.app import PlanningService
from repro.service.config import ServiceConfig
from repro.service.schemas import OverlayRequest, UnderlayRequest
from tests import b_search_reference as ref

conventions = st.sampled_from(("paper", "diversity_only"))
counts = st.integers(min_value=1, max_value=4)
bandwidths = st.sampled_from((10e3, 20e3, 40e3))
# strict targets, lax ones that rule out the larger sizes, and targets at
# or above every size's zero-energy ceiling (no size is feasible)
bers = st.one_of(
    st.floats(min_value=-6.0, max_value=-1.0).map(lambda x: 10.0**x),
    st.sampled_from((0.15, 0.25, 0.35, 0.45)),
    st.sampled_from((0.5, 0.7)),
)
distances = st.floats(min_value=1.0, max_value=2000.0)
# long enough that (4 pi D)^2 or the PA energy overflows for some sizes
extreme_distances = st.sampled_from((3e149, 1e150, 4e150, 1e152, 1e300))
axes = st.lists(distances, min_size=1, max_size=6)
extreme_axes = st.lists(distances | extreme_distances, min_size=1, max_size=4)
local_distances = st.floats(min_value=0.5, max_value=50.0)


def assert_matches_scalar(array_call, scalar_call, points):
    """``array_call(points)`` equals ``[scalar_call(x) for x in points]``,
    or raises one of the scalar path's ``ValueError`` messages."""
    expected, errors = [], []
    for point in points:
        try:
            expected.append(scalar_call(point))
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        with pytest.raises(ValueError) as info:
            array_call(points)
        assert str(info.value) in errors
    else:
        assert repr(array_call(points)) == repr(expected)


class TestOverlay:
    @given(conventions, bers, bers, counts, bandwidths, axes)
    @settings(max_examples=60, deadline=None)
    def test_distance_analyses_equal_scalar(self, convention, p_direct, p_relay, m, bw, axis):
        system = work._overlay(convention)
        assert_matches_scalar(
            lambda xs: system.distance_analyses(xs, m, bw, p_direct, p_relay),
            lambda x: ref.distance_analysis(system, x, m, bw, p_direct, p_relay),
            axis,
        )

    @given(conventions, bers, bers, counts, bandwidths, extreme_axes)
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_axes_skip_or_raise_like_scalar(
        self, convention, p_direct, p_relay, m, bw, axis
    ):
        system = work._overlay(convention)
        assert_matches_scalar(
            lambda xs: system.distance_analyses(xs, m, bw, p_direct, p_relay),
            lambda x: ref.distance_analysis(system, x, m, bw, p_direct, p_relay),
            axis,
        )

    @given(conventions, bers, bers, counts, bandwidths, axes)
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_scalar_row_dicts(self, convention, p_direct, p_relay, m, bw, axis):
        system = work._overlay(convention)
        request = OverlayRequest(
            d1=tuple(axis), m=m, bandwidth=bw, p_direct=p_direct,
            p_relay=p_relay, convention=convention,
        )
        assert_matches_scalar(
            lambda xs: work.overlay_rows(replace(request, d1=tuple(xs))),
            lambda x: work.overlay_row_dict(
                ref.distance_analysis(system, x, m, bw, p_direct, p_relay)
            ),
            axis,
        )

    @given(conventions, bers, bandwidths, extreme_axes)
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_direct_link_energy_equals_scalar(self, convention, p_direct, bw, axis):
        system = work._overlay(convention)
        assert_matches_scalar(
            lambda xs: [system.direct_link_energy(x, p_direct, bw) for x in xs],
            lambda x: ref.direct_link_energy(system, x, p_direct, bw),
            axis,
        )

    @given(conventions, bers, counts, bandwidths, st.lists(
        st.tuples(distances | extreme_distances, distances | extreme_distances),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_relay_energy_equals_scalar(self, convention, p, m, bw, links):
        system = work._overlay(convention)
        assert_matches_scalar(
            lambda pairs: [system.relay_energy(p, m, *pair, bw) for pair in pairs],
            lambda pair: ref.relay_energy(system, p, m, *pair, bw),
            links,
        )

    @given(conventions, st.sampled_from((0.5, 0.7)), counts, bandwidths, axes)
    @settings(max_examples=10, deadline=None)
    def test_no_feasible_size_raises_the_scalar_error(self, convention, p_direct, m, bw, axis):
        system = work._overlay(convention)
        with pytest.raises(ValueError) as scalar:
            ref.distance_analysis(system, axis[0], m, bw, p_direct, 0.0005)
        with pytest.raises(ValueError) as array:
            system.distance_arrays(axis, m, bw, p_direct, 0.0005)
        assert str(array.value) == str(scalar.value)
        assert str(array.value).startswith("no feasible constellation size")


class TestUnderlay:
    @given(conventions, bers, counts, counts, local_distances, bandwidths, axes)
    @settings(max_examples=60, deadline=None)
    def test_pa_energy_sweep_equals_scalar_including_hop(
        self, convention, p, mt, mr, d, bw, axis
    ):
        system = work._underlay(convention)
        assert_matches_scalar(
            lambda xs: system.pa_energy_sweep(p, mt, mr, d, xs, bw),
            lambda x: ref.pa_energy(system, p, mt, mr, d, x, bw),
            axis,
        )

    @given(
        conventions, bers, counts, counts,
        # d**kappa stays below the float range (past it both paths raise
        # OverflowError from the scalar power)
        local_distances | st.sampled_from((1e80, 1e87, 1e88)), bandwidths, extreme_axes,
    )
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_links_skip_or_raise_like_scalar(
        self, convention, p, mt, mr, d, bw, axis
    ):
        system = work._underlay(convention)
        assert_matches_scalar(
            lambda xs: system.pa_energy_sweep(p, mt, mr, d, xs, bw),
            lambda x: ref.pa_energy(system, p, mt, mr, d, x, bw),
            axis,
        )

    @given(conventions, bers, counts, counts, local_distances, bandwidths, axes)
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_scalar_row_dicts(self, convention, p, mt, mr, d, bw, axis):
        system = work._underlay(convention)
        request = UnderlayRequest(
            p=p, mt=mt, mr=mr, d=d, distances=tuple(axis), bandwidth=bw,
            convention=convention,
        )
        assert_matches_scalar(
            lambda xs: work.underlay_rows(replace(request, distances=tuple(xs))),
            lambda x: work.underlay_row_dict(ref.pa_energy(system, p, mt, mr, d, x, bw)),
            axis,
        )

    @given(conventions, st.sampled_from((0.5, 0.7)), counts, counts, bandwidths, axes)
    @settings(max_examples=10, deadline=None)
    def test_no_feasible_size_raises_the_scalar_error(self, convention, p, mt, mr, bw, axis):
        system = work._underlay(convention)
        with pytest.raises(ValueError) as scalar:
            ref.pa_energy(system, p, mt, mr, 5.0, axis[0], bw)
        with pytest.raises(ValueError) as array:
            system.pa_energy_arrays(p, mt, mr, 5.0, axis, bw)
        assert str(array.value) == str(scalar.value)
        assert str(array.value).startswith("no feasible constellation size")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestMixedCoalescedBatch:
    """One infeasible point in a coalesced batch fails the array pass for
    the whole batch; ``_batch_with_fallback`` re-prices the items one by
    one, so the infeasible request gets its own error (ValueError: 400)
    and its batch-mates the rows they would get alone."""

    @pytest.fixture(scope="class")
    def service(self):
        svc = PlanningService(
            ServiceConfig(workers=0, coalesce_ms=50.0, request_log=False, seed=7)
        )
        yield svc
        svc.close()

    def _volley(self, service, path, bodies):
        async def main():
            return await asyncio.gather(
                *[
                    service.handle("POST", path, json.dumps(body).encode())
                    for body in bodies
                ]
            )

        before = service.metrics.snapshot()["coalesce"]["batches"]
        answers = asyncio.run(main())
        assert service.metrics.snapshot()["coalesce"]["batches"] - before == 1
        return [(status, json.loads(blob)) for status, blob in answers]

    def test_overlay(self, service):
        bodies = [
            {"d1": d1, "m": 3, "bandwidth": 20e3, "convention": "paper"}
            for d1 in (40.0, 1e300, 75.5)
        ]
        answers = self._volley(service, "/v1/overlay/feasible", bodies)
        assert [status for status, _ in answers] == [200, 400, 200]
        assert answers[1][1]["detail"] == "no feasible constellation size in the given range"
        assert answers[1] == self._volley(service, "/v1/overlay/feasible", bodies[1:2])[0]
        system = work._overlay("paper")
        for body, (_, payload) in zip(bodies[::2], answers[::2]):
            expected = ref.distance_analysis(system, body["d1"], 3, 20e3)
            assert payload["rows"] == [work.overlay_row_dict(expected)]

    def test_underlay(self, service):
        bodies = [
            {"p": 1e-3, "mt": 3, "mr": 2, "d": 4.0, "distance": distance, "bandwidth": 10e3}
            for distance in (55.0, 1e300, 80.25)
        ]
        answers = self._volley(service, "/v1/underlay/energy", bodies)
        assert [status for status, _ in answers] == [200, 400, 200]
        assert answers[1][1]["detail"] == "no feasible constellation size in the given range"
        assert answers[1] == self._volley(service, "/v1/underlay/energy", bodies[1:2])[0]
        system = work._underlay("paper")
        for body, (_, payload) in zip(bodies[::2], answers[::2]):
            expected = ref.pa_energy(system, 1e-3, 3, 2, 4.0, body["distance"], 10e3)
            assert payload["rows"] == [work.underlay_row_dict(expected)]

