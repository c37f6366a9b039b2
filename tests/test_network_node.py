"""SUNode tests: battery accounting, positions, lifecycle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.node import SUNode


class TestConstruction:
    def test_basic(self):
        node = SUNode(3, (1.0, 2.0), battery_j=10.0)
        assert node.node_id == 3
        np.testing.assert_allclose(node.position, [1.0, 2.0])
        assert node.remaining_j == 10.0

    def test_default_battery_infinite(self):
        assert SUNode(0, (0.0, 0.0)).remaining_j == float("inf")

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            SUNode(-1, (0.0, 0.0))

    def test_rejects_zero_battery(self):
        with pytest.raises(ValueError):
            SUNode(0, (0.0, 0.0), battery_j=0.0)

    def test_rejects_bad_position(self):
        with pytest.raises(ValueError):
            SUNode(0, (0.0, 0.0, 0.0))

    def test_position_read_only(self):
        node = SUNode(0, (1.0, 1.0))
        with pytest.raises(ValueError):
            node.position[0] = 5.0


class TestEnergy:
    def test_consume_accumulates(self):
        node = SUNode(0, (0.0, 0.0), battery_j=5.0)
        node.consume(2.0)
        node.consume(1.0)
        assert node.consumed_j == 3.0
        assert node.remaining_j == 2.0
        assert node.alive

    def test_exhaustion(self):
        node = SUNode(0, (0.0, 0.0), battery_j=1.0)
        node.consume(1.0)
        assert not node.alive
        assert node.remaining_j == 0.0

    def test_consume_after_death_raises(self):
        node = SUNode(0, (0.0, 0.0), battery_j=1.0)
        node.consume(1.0)
        with pytest.raises(RuntimeError):
            node.consume(0.1)

    def test_overdraw_clamps_remaining(self):
        node = SUNode(0, (0.0, 0.0), battery_j=1.0)
        node.consume(5.0)
        assert node.remaining_j == 0.0

    def test_negative_consume_rejected(self):
        with pytest.raises(ValueError):
            SUNode(0, (0.0, 0.0)).consume(-1.0)


def _reference_charge(node, energy_j):
    """The clamp-and-charge that ``drain`` replaces, on the old ``alive``."""
    if node.remaining_j > 0.0:
        node.consume(min(energy_j, node.remaining_j))


class TestDrain:
    """``alive``/``drain`` against ``consume(min(e, remaining_j))``."""

    @pytest.mark.parametrize(
        "battery, draws",
        [
            (1.0, [0.25, 0.75, 0.5]),  # exact-empty draw, then dead
            (1.0, [0.5, 0.75, 0.3]),  # over-draw clamps, then dead
            (0.1 + 0.2, [0.1, 0.2, 1e-17, 0.3]),  # float rounding near empty
            (float("inf"), [1e9, 3.5, 0.0]),  # mains-powered never dies
            (float("inf"), [float("inf"), 1.0]),  # inf - inf is not > 0
        ],
    )
    def test_matches_reference(self, battery, draws):
        ref = SUNode(0, (0.0, 0.0), battery_j=battery)
        node = SUNode(1, (0.0, 0.0), battery_j=battery)
        for energy_j in draws:
            was_alive = node.alive
            _reference_charge(ref, energy_j)
            emptied = node.drain(energy_j)
            assert node.consumed_j == ref.consumed_j
            assert node.alive is (ref.remaining_j > 0.0)
            assert emptied is (was_alive and not node.alive)

    def test_exact_empty_draw_kills(self):
        node = SUNode(0, (0.0, 0.0), battery_j=1.0)
        node.drain(0.25)
        node.drain(0.75)
        assert not node.alive
        assert node.remaining_j == 0.0

    def test_overdraw_takes_only_what_is_left(self):
        node = SUNode(0, (0.0, 0.0), battery_j=1.0)
        node.drain(0.5)
        node.drain(0.75)
        assert node.consumed_j == 1.0
        assert not node.alive

    def test_dead_node_is_noop(self):
        node = SUNode(0, (0.0, 0.0), battery_j=1.0)
        node.consume(1.0)
        node.drain(0.3)
        node.drain(-1.0)  # the reference skips dead nodes before validating
        assert node.consumed_j == 1.0
        assert not node.alive

    def test_negative_draw_rejected_while_alive(self):
        with pytest.raises(ValueError):
            SUNode(0, (0.0, 0.0), battery_j=1.0).drain(-0.1)

    @pytest.mark.parametrize("battery", [1.0, 0.3, 1e-300, float("inf")])
    @pytest.mark.parametrize("consumed", [0.0, 0.3, 0.1 + 0.2, 1.0, 5.0, float("inf")])
    def test_alive_equals_remaining_positive(self, battery, consumed):
        node = SUNode(0, (0.0, 0.0), battery_j=battery)
        node._consumed_j = consumed
        assert node.alive is (node.remaining_j > 0.0)


class TestGeometry:
    def test_distance_to(self):
        a = SUNode(0, (0.0, 0.0))
        b = SUNode(1, (3.0, 4.0))
        assert a.distance_to(b) == 5.0
        assert b.distance_to(a) == 5.0


class TestDrainAll:
    """One ``drain_all`` call per roster against one ``drain`` per member:
    bit-equal ``consumed_j`` and the same emptied members, in order."""

    @staticmethod
    def _pair(batteries, consumed):
        nodes = []
        for battery, used in zip(batteries, consumed):
            node = SUNode(len(nodes), (0.0, 0.0), battery_j=battery)
            node._consumed_j = used
            nodes.append(node)
        twins = []
        for node in nodes:
            twin = SUNode(node.node_id, (0.0, 0.0), battery_j=node.battery_j)
            twin._consumed_j = node.consumed_j
            twins.append(twin)
        return nodes, twins

    @pytest.mark.parametrize(
        "batteries, consumed, draws",
        [
            # exact-empty draws, an over-draw and an already dead member
            ([1.0, 1.0, 0.5, 2.0], [0.75, 0.5, 0.5, 0.0], [0.25, 0.5, 0.3]),
            # float rounding near empty, and a mains-powered member
            ([0.1 + 0.2, float("inf"), 0.3], [0.1, 0.0, 0.2], [0.2, 1e-17, 0.1]),
            # an infinite draw empties every finite battery at once
            ([float("inf"), 3.0, 1e-300], [0.0, 1.0, 0.0], [float("inf"), 1.0]),
            ([5.0, 5.0], [0.0, 0.0], [0.0, 2.5, 2.5, 1.0]),
        ],
    )
    def test_matches_per_member_drain(self, batteries, consumed, draws):
        nodes, twins = self._pair(batteries, consumed)
        emptied_somewhere = False
        for energy_j in draws:
            emptied = SUNode.drain_all(nodes, energy_j)
            expected = [t.node_id for t in twins if t.drain(energy_j)]
            assert [n.node_id for n in emptied] == expected
            assert [n.consumed_j for n in nodes] == [t.consumed_j for t in twins]
            assert [n.alive for n in nodes] == [t.alive for t in twins]
            emptied_somewhere |= bool(expected)
        assert emptied_somewhere

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-3, max_value=10.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=5,
        ),
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_rosters(self, members, draws):
        batteries = [b for b, _ in members]
        consumed = [b * f for b, f in members]
        nodes, twins = self._pair(batteries, consumed)
        for energy_j in draws:
            emptied = SUNode.drain_all(nodes, energy_j)
            assert [n.node_id for n in emptied] == [t.node_id for t in twins if t.drain(energy_j)]
            assert [n.consumed_j for n in nodes] == [t.consumed_j for t in twins]

    def test_negative_draw_rejected_while_a_member_is_alive(self):
        dead = SUNode(0, (0.0, 0.0), battery_j=1.0)
        dead.consume(1.0)
        assert SUNode.drain_all([dead], -1.0) == []  # drain skips dead nodes first
        with pytest.raises(ValueError):
            SUNode.drain_all([dead, SUNode(1, (0.0, 0.0), battery_j=1.0)], -0.1)
