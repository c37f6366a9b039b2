"""Mobility model and re-clustering interval tests."""

import numpy as np
import pytest

from repro.network.mobility import (
    RandomWaypointMobility,
    WaypointState,
    simulate_recluster_interval,
)
from repro.utils.rng import as_rng


class TestRandomWaypoint:
    def test_positions_stay_in_arena(self):
        model = RandomWaypointMobility(arena=(50.0, 30.0))
        start = model.initial_positions(10, rng=0)
        traj = model.walk(start, duration_s=120.0, step_s=1.0, rng=0)
        assert np.all(traj[..., 0] >= -1e-9) and np.all(traj[..., 0] <= 50.0 + 1e-9)
        assert np.all(traj[..., 1] >= -1e-9) and np.all(traj[..., 1] <= 30.0 + 1e-9)

    def test_trajectory_shape(self):
        model = RandomWaypointMobility()
        start = model.initial_positions(5, rng=1)
        traj = model.walk(start, duration_s=10.0, step_s=1.0, rng=1)
        assert traj.shape == (11, 5, 2)
        np.testing.assert_array_equal(traj[0], start)

    def test_speed_respected(self):
        model = RandomWaypointMobility(speed_range=(1.0, 2.0))
        start = model.initial_positions(8, rng=2)
        traj = model.walk(start, duration_s=60.0, step_s=1.0, rng=2)
        step_lengths = np.linalg.norm(np.diff(traj, axis=0), axis=-1)
        assert np.max(step_lengths) <= 2.0 + 1e-9

    def test_nodes_actually_move(self):
        model = RandomWaypointMobility(speed_range=(1.0, 1.0))
        start = model.initial_positions(5, rng=3)
        traj = model.walk(start, duration_s=30.0, step_s=1.0, rng=3)
        displacement = np.linalg.norm(traj[-1] - traj[0], axis=-1)
        assert np.all(displacement > 0.0)

    def test_pause_slows_progress(self):
        fast = RandomWaypointMobility(speed_range=(1.5, 1.5), pause_s=0.0)
        slow = RandomWaypointMobility(speed_range=(1.5, 1.5), pause_s=20.0)
        start = fast.initial_positions(10, rng=4)
        path_fast = fast.walk(start, 120.0, 1.0, rng=4)
        path_slow = slow.walk(start.copy(), 120.0, 1.0, rng=4)
        dist_fast = np.sum(np.linalg.norm(np.diff(path_fast, axis=0), axis=-1))
        dist_slow = np.sum(np.linalg.norm(np.diff(path_slow, axis=0), axis=-1))
        assert dist_slow < dist_fast

    def test_deterministic(self):
        model = RandomWaypointMobility()
        start = model.initial_positions(4, rng=5)
        a = model.walk(start.copy(), 20.0, 1.0, rng=6)
        b = model.walk(start.copy(), 20.0, 1.0, rng=6)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWaypointMobility(arena=(0.0, 10.0))
        with pytest.raises(ValueError):
            RandomWaypointMobility(speed_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            RandomWaypointMobility(pause_s=-1.0)
        model = RandomWaypointMobility()
        with pytest.raises(ValueError):
            model.walk(np.zeros((3, 3)), 10.0, 1.0)


class TestIncrementalWalk:
    """start/step must reproduce walk bit-for-bit from one RNG stream."""

    def test_step_matches_walk(self):
        model = RandomWaypointMobility(arena=(80.0, 60.0), pause_s=3.0)
        start = model.initial_positions(7, rng=10)
        traj = model.walk(start.copy(), duration_s=40.0, step_s=1.0, rng=11)
        gen = as_rng(11)
        state = model.start(start.copy(), gen)
        np.testing.assert_array_equal(state.positions, traj[0])
        for k in range(1, traj.shape[0]):
            model.step(state, 1.0, gen)
            np.testing.assert_array_equal(state.positions, traj[k])

    def test_seeded_steps_deterministic(self):
        model = RandomWaypointMobility()
        start = model.initial_positions(5, rng=12)
        runs = []
        for _ in range(2):
            gen = as_rng(13)
            state = model.start(start.copy(), gen)
            for _ in range(25):
                model.step(state, 0.5, gen)
            runs.append(state.positions.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_admit_appends_node(self):
        model = RandomWaypointMobility(arena=(40.0, 40.0))
        gen = as_rng(14)
        state = model.start(model.initial_positions(3, gen), gen)
        index = model.admit(state, gen)
        assert index == 3
        assert state.n == 4
        assert np.all(state.positions[3] >= 0.0)
        assert np.all(state.positions[3] <= 40.0)
        # the admitted node participates in subsequent steps
        before = state.positions[3].copy()
        for _ in range(10):
            model.step(state, 1.0, gen)
        assert np.linalg.norm(state.positions[3] - before) > 0.0

    def test_admit_does_not_disturb_existing_nodes(self):
        model = RandomWaypointMobility()
        gen = as_rng(15)
        state = model.start(model.initial_positions(4, gen), gen)
        existing = state.positions[:4].copy()
        model.admit(state, gen)
        np.testing.assert_array_equal(state.positions[:4], existing)

    def test_step_keeps_nodes_in_arena(self):
        model = RandomWaypointMobility(arena=(25.0, 15.0), speed_range=(3.0, 6.0))
        gen = as_rng(16)
        state = model.start(model.initial_positions(10, gen), gen)
        for _ in range(100):
            pos = model.step(state, 1.0, gen)
            assert np.all(pos[:, 0] >= -1e-9) and np.all(pos[:, 0] <= 25.0 + 1e-9)
            assert np.all(pos[:, 1] >= -1e-9) and np.all(pos[:, 1] <= 15.0 + 1e-9)

    def test_start_rejects_bad_shape(self):
        model = RandomWaypointMobility()
        with pytest.raises(ValueError):
            model.start(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            model.step(model.start(np.zeros((2, 2))), step_s=0.0)


class TestReclusterInterval:
    def test_faster_nodes_break_clusters_sooner(self):
        slow = RandomWaypointMobility(arena=(100.0, 100.0), speed_range=(0.1, 0.2))
        fast = RandomWaypointMobility(arena=(100.0, 100.0), speed_range=(2.0, 4.0))
        t_slow = np.mean(
            simulate_recluster_interval(
                20, 15.0, slow, max_duration_s=120.0, n_trials=10, rng=0
            )
        )
        t_fast = np.mean(
            simulate_recluster_interval(
                20, 15.0, fast, max_duration_s=120.0, n_trials=10, rng=0
            )
        )
        assert t_fast < t_slow

    def test_looser_diameter_lasts_longer(self):
        mobility = RandomWaypointMobility(arena=(100.0, 100.0), speed_range=(1.0, 2.0))
        tight = np.mean(
            simulate_recluster_interval(
                20, 8.0, mobility, max_duration_s=120.0, n_trials=10, rng=1
            )
        )
        loose = np.mean(
            simulate_recluster_interval(
                20, 40.0, mobility, max_duration_s=120.0, n_trials=10, rng=1
            )
        )
        assert loose >= tight

    def test_intervals_bounded_by_window(self):
        mobility = RandomWaypointMobility()
        intervals = simulate_recluster_interval(
            10, 20.0, mobility, max_duration_s=30.0, n_trials=5, rng=2
        )
        assert len(intervals) == 5
        assert all(0.0 < t <= 30.0 for t in intervals)


def _reference_step(model, state, step_s, gen):
    """The per-node step the array pass replaced: every moving node walks
    its legs in node order, each leg measured by the 1-D ``norm``."""
    pos, waypoints, speeds = state.positions, state.waypoints, state.speeds
    moving = state.pause_left < step_s
    state.pause_left = np.maximum(state.pause_left - step_s, 0.0)
    for i in np.where(moving)[0]:
        budget = step_s
        while budget > 1e-12:
            to_target = waypoints[i] - pos[i]
            dist = float(np.linalg.norm(to_target))
            travel = speeds[i] * budget
            if travel < dist:
                pos[i] += to_target * (travel / dist)
                break
            pos[i] = waypoints[i]
            budget -= dist / speeds[i] if speeds[i] > 0 else budget
            waypoints[i] = gen.uniform((0.0, 0.0), model.arena)
            speeds[i] = gen.uniform(*model.speed_range)
            if model.pause_s > 0.0:
                state.pause_left[i] = model.pause_s
                break
    return pos


def _copy_state(state):
    return WaypointState(
        positions=state.positions.copy(),
        waypoints=state.waypoints.copy(),
        speeds=state.speeds.copy(),
        pause_left=state.pause_left.copy(),
    )


def _assert_states_equal(a, b):
    for field in ("positions", "waypoints", "speeds", "pause_left"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field), err_msg=field)


class TestStepMatchesPerNodeLoop:
    """The array-pass ``step`` against the per-node loop it replaced, over
    random states: every array and the generator state equal, exactly."""

    @staticmethod
    def _run_both(model, state, ticks, step_s, seed, admit_every=0):
        ref_state, ref_gen, gen = _copy_state(state), as_rng(seed), as_rng(seed)
        arrivals = 0
        for tick in range(1, ticks + 1):
            before = state.waypoints.copy()
            returned = model.step(state, step_s, gen)
            _reference_step(model, ref_state, step_s, ref_gen)
            assert returned is state.positions
            _assert_states_equal(state, ref_state)
            assert gen.bit_generator.state == ref_gen.bit_generator.state
            arrivals += int(np.any(state.waypoints != before, axis=1).sum())
            if admit_every and tick % admit_every == 0:
                model.admit(state, gen)
                model.admit(ref_state, ref_gen)
        return arrivals

    @pytest.mark.parametrize("pause_s", [0.0, 2.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_states(self, seed, pause_s):
        model = RandomWaypointMobility(
            arena=(300.0, 200.0), speed_range=(0.5, 12.0), pause_s=pause_s
        )
        gen = as_rng(seed)
        state = model.start(model.initial_positions(2000, gen), gen)
        arrivals = self._run_both(model, state, 12, 1.0, seed + 100, admit_every=4)
        assert state.n == 2003
        assert arrivals > 20

    def test_short_legs_arrive_several_times_in_one_tick(self):
        model = RandomWaypointMobility(arena=(4.0, 4.0), speed_range=(3.0, 9.0))
        gen = as_rng(7)
        state = model.start(model.initial_positions(300, gen), gen)
        before = state.waypoints.copy()
        self._run_both(model, state, 1, 2.0, 8)
        # Legs of at most ~5.7 m at 6-18 m per tick: many nodes arrive, and
        # some arrive more than once, within the one tick.
        assert int(np.any(state.waypoints != before, axis=1).sum()) > 100

    @pytest.mark.parametrize("pause_s", [0.0, 1.0])
    def test_exact_arrivals(self, pause_s):
        """A node already on its waypoint, and ``travel == dist`` exactly
        (3-4-5 legs: the norm is exact), both take the arrival branch."""
        model = RandomWaypointMobility(
            arena=(100.0, 100.0), speed_range=(5.0, 10.0), pause_s=pause_s
        )
        gen = as_rng(9)
        state = model.start(model.initial_positions(40, gen), gen)
        state.waypoints[::4] = state.positions[::4]  # on the waypoint
        state.positions[1::4] = np.round(state.positions[1::4])
        state.waypoints[1::4] = state.positions[1::4] + [3.0, 4.0]
        state.speeds[1::4] = 5.0  # travel == dist == 5 in a 1 s tick
        state.pause_left[2::8] = 0.5  # paused, but moving within the tick
        state.pause_left[3::8] = 2.0  # paused through the tick
        before = state.waypoints.copy()
        self._run_both(model, state, 1, 1.0, 10)
        assert np.all(state.waypoints[::4] != before[::4])
        assert np.all(state.waypoints[1::4] != before[1::4])
        self._run_both(model, state, 2, 1.0, 11)
