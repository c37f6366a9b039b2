"""Indoor channel tests: wall crossings, link budget, determinism."""

import numpy as np
import pytest

from repro.channel.indoor import IndoorChannel, Wall, segments_intersect
from repro.channel.pathloss import LogDistancePathLoss
from repro.channel.shadowing import LogNormalShadowing


class TestSegmentsIntersect:
    def test_crossing(self):
        assert segments_intersect(
            np.array([0.0, 0.0]), np.array([2.0, 2.0]),
            np.array([0.0, 2.0]), np.array([2.0, 0.0]),
        )

    def test_parallel_disjoint(self):
        assert not segments_intersect(
            np.array([0.0, 0.0]), np.array([1.0, 0.0]),
            np.array([0.0, 1.0]), np.array([1.0, 1.0]),
        )

    def test_touching_endpoint(self):
        assert segments_intersect(
            np.array([0.0, 0.0]), np.array([1.0, 0.0]),
            np.array([1.0, 0.0]), np.array([2.0, 5.0]),
        )

    def test_collinear_overlap(self):
        assert segments_intersect(
            np.array([0.0, 0.0]), np.array([2.0, 0.0]),
            np.array([1.0, 0.0]), np.array([3.0, 0.0]),
        )

    def test_near_miss(self):
        assert not segments_intersect(
            np.array([0.0, 0.0]), np.array([1.0, 0.0]),
            np.array([1.1, -1.0]), np.array([1.1, 1.0]),
        )


class TestWall:
    def test_rejects_negative_attenuation(self):
        with pytest.raises(ValueError):
            Wall((0, 0), (1, 1), attenuation_db=-3.0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Wall((1, 1), (1, 1), attenuation_db=3.0)


class TestBlockage:
    def _channel(self):
        return IndoorChannel(
            walls=[
                Wall((1.0, -1.0), (1.0, 1.0), 10.0),
                Wall((2.0, -1.0), (2.0, 1.0), 7.0),
            ]
        )

    def test_no_walls_crossed(self):
        ch = self._channel()
        assert ch.blockage_db((0.0, 0.0), (0.5, 0.0)) == 0.0
        assert ch.is_line_of_sight((0.0, 0.0), (0.5, 0.0))

    def test_one_wall(self):
        ch = self._channel()
        assert ch.blockage_db((0.0, 0.0), (1.5, 0.0)) == 10.0

    def test_both_walls_accumulate(self):
        ch = self._channel()
        assert ch.blockage_db((0.0, 0.0), (3.0, 0.0)) == 17.0
        assert not ch.is_line_of_sight((0.0, 0.0), (3.0, 0.0))

    def test_path_around_walls(self):
        ch = self._channel()
        assert ch.blockage_db((0.0, 2.0), (3.0, 2.0)) == 0.0


class TestLinkBudget:
    def test_snr_matches_manual_budget(self):
        ch = IndoorChannel(
            pathloss=LogDistancePathLoss(reference_loss_db=40.0, exponent=3.0),
            noise_power_dbm=-110.0,
        )
        # 10 m: loss = 40 + 30 = 70 dB; tx 0 dBm -> rx -70 dBm -> SNR 40 dB
        assert ch.average_snr_db((0.0, 0.0), (10.0, 0.0), 0.0) == pytest.approx(40.0)

    def test_wall_reduces_snr(self):
        base = IndoorChannel(noise_power_dbm=-110.0)
        walled = IndoorChannel(
            walls=[Wall((1.0, -1.0), (1.0, 1.0), 12.0)], noise_power_dbm=-110.0
        )
        clear = base.average_snr_db((0.0, 0.0), (2.0, 0.0), 0.0)
        blocked = walled.average_snr_db((0.0, 0.0), (2.0, 0.0), 0.0)
        assert clear - blocked == pytest.approx(12.0)

    def test_rejects_coincident_endpoints(self):
        with pytest.raises(ValueError):
            IndoorChannel().link_loss_db((1.0, 1.0), (1.0, 1.0))


class TestShadowingDeterminism:
    def test_same_link_same_draw(self):
        ch = IndoorChannel(shadowing=LogNormalShadowing(sigma_db=6.0))
        a = ch.link_loss_db((0.0, 0.0), (4.0, 1.0))
        b = ch.link_loss_db((0.0, 0.0), (4.0, 1.0))
        assert a == b

    def test_symmetric_in_endpoints(self):
        ch = IndoorChannel(shadowing=LogNormalShadowing(sigma_db=6.0))
        assert ch.link_loss_db((0.0, 0.0), (4.0, 1.0)) == pytest.approx(
            ch.link_loss_db((4.0, 1.0), (0.0, 0.0))
        )


class TestRngDiscipline:
    """Regression for the RP102 fix: shadowing draws flow through as_rng,
    and the library module constructs no generator of its own."""

    def test_shadow_draw_matches_explicit_as_rng_seed(self):
        from repro.utils.rng import as_rng

        ch = IndoorChannel(shadowing=LogNormalShadowing(sigma_db=6.0))
        a, b = (0.0, 0.0), (4.0, 1.0)
        draw = ch._shadow_db(a, b)
        key = tuple(sorted([tuple(np.round(a, 6)), tuple(np.round(b, 6))]))
        seed = abs(hash(key)) % (2**32)
        expected = float(
            LogNormalShadowing(sigma_db=6.0).sample_db(rng=as_rng(seed))
        )
        assert draw == expected

    def test_module_is_rp102_clean(self):
        from pathlib import Path

        from repro.lintkit import lint_source

        source_path = Path(__file__).parent.parent / "src/repro/channel/indoor.py"
        findings = lint_source(
            source_path.read_text(), path=str(source_path)
        )
        assert [f for f in findings if f.rule_id == "RP102"] == []
