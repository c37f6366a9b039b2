"""Multipath/scatterer field tests: interference physics and the null."""

import numpy as np
import pytest

from repro.channel.multipath import MultipathEnvironment, Scatterer


class TestLineOfSight:
    def test_single_tx_unit_amplitude(self):
        env = MultipathEnvironment.line_of_sight()
        amp = env.amplitude_at(np.array([[0.0, 0.0]]), np.array([10.0, 0.0]), 1.0)
        assert amp == pytest.approx(1.0)

    def test_two_in_phase_tx_double(self):
        # co-located transmitters: fields add to amplitude 2
        env = MultipathEnvironment.line_of_sight()
        tx = np.array([[0.0, 0.0], [0.0, 0.0]])
        amp = env.amplitude_at(tx, np.array([5.0, 0.0]), 1.0)
        assert amp == pytest.approx(2.0)

    def test_half_wave_spacing_cancels_endfire(self):
        # spacing lambda/2 along the LOS direction: path difference lambda/2
        # -> pi phase -> perfect cancellation with equal phases
        env = MultipathEnvironment.line_of_sight()
        tx = np.array([[0.0, 0.0], [0.5, 0.0]])  # lambda = 1
        amp = env.amplitude_at(tx, np.array([100.0, 0.0]), 1.0)
        assert amp < 1e-9

    def test_phase_offset_restores(self):
        # adding pi offset to the delayed element re-aligns the endfire pair
        env = MultipathEnvironment.line_of_sight()
        tx = np.array([[0.0, 0.0], [0.5, 0.0]])
        amp = env.amplitude_at(
            tx, np.array([100.0, 0.0]), 1.0, tx_phases_rad=np.array([np.pi, 0.0])
        )
        assert amp == pytest.approx(2.0, abs=1e-9)

    def test_tx_amplitudes_scale(self):
        env = MultipathEnvironment.line_of_sight()
        amp = env.amplitude_at(
            np.array([[0.0, 0.0]]),
            np.array([3.0, 0.0]),
            1.0,
            tx_amplitudes=np.array([2.5]),
        )
        assert amp == pytest.approx(2.5)


class TestScatterers:
    def test_scatterer_fills_a_null(self):
        env_los = MultipathEnvironment.line_of_sight()
        env_mp = MultipathEnvironment(scatterers=(Scatterer((0.0, 3.0), 0.3),))
        tx = np.array([[0.0, 0.0], [0.5, 0.0]])
        rx = np.array([100.0, 0.0])
        assert env_los.amplitude_at(tx, rx, 1.0) < 1e-9
        assert env_mp.amplitude_at(tx, rx, 1.0) > 0.01

    def test_path_lengths_shape(self):
        env = MultipathEnvironment(
            scatterers=(Scatterer((1.0, 1.0), 0.2), Scatterer((2.0, 0.0), 0.1))
        )
        paths = env.path_lengths(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([5.0, 0.0]))
        assert paths.shape == (2, 3)
        # echo paths are longer than the direct path
        assert np.all(paths[:, 1:] >= paths[:, :1])

    def test_amplitude_decay_option(self):
        near = MultipathEnvironment(amplitude_decay_with_distance=True)
        tx = np.array([[0.0, 0.0]])
        a1 = near.amplitude_at(tx, np.array([1.0, 0.0]), 1.0)
        a2 = near.amplitude_at(tx, np.array([2.0, 0.0]), 1.0)
        assert a1 == pytest.approx(2.0 * a2)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            Scatterer((0.0, 0.0), -0.1)


class TestRandomIndoor:
    def test_scatterer_count_and_ring(self):
        env = MultipathEnvironment.random_indoor(
            n_scatterers=5, inner_radius_m=2.0, outer_radius_m=4.0, rng=3
        )
        assert len(env.scatterers) == 5
        for s in env.scatterers:
            r = np.hypot(*s.position)
            assert 2.0 - 1e-9 <= r <= 4.0 + 1e-9

    def test_amplitude_decay_sequence(self):
        env = MultipathEnvironment.random_indoor(
            n_scatterers=4, echo_amplitude=0.4, decay=0.5, rng=1
        )
        amps = [s.amplitude for s in env.scatterers]
        np.testing.assert_allclose(amps, [0.4, 0.2, 0.1, 0.05])

    def test_deterministic(self):
        a = MultipathEnvironment.random_indoor(rng=11)
        b = MultipathEnvironment.random_indoor(rng=11)
        assert a.scatterers == b.scatterers

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            MultipathEnvironment.random_indoor(inner_radius_m=4.0, outer_radius_m=2.0)

    def test_overflowing_outer_radius_is_named(self):
        with pytest.raises(ValueError, match="outer_radius_m"):
            MultipathEnvironment.random_indoor(outer_radius_m=1e308, rng=1)
        # Without scatterers the radius is never squared.
        assert MultipathEnvironment.random_indoor(0, outer_radius_m=1e308).scatterers == ()


class TestValidation:
    def test_phase_vector_length_checked(self):
        env = MultipathEnvironment.line_of_sight()
        with pytest.raises(ValueError):
            env.field_at(
                np.array([[0.0, 0.0], [1.0, 0.0]]),
                np.array([5.0, 0.0]),
                1.0,
                tx_phases_rad=np.array([0.0]),
            )

    def test_rejects_bad_wavelength(self):
        env = MultipathEnvironment.line_of_sight()
        with pytest.raises(ValueError):
            env.field_at(np.array([[0.0, 0.0]]), np.array([1.0, 0.0]), 0.0)


class TestBatchedReceivers:
    """amplitude_at/field_at over (N, 2) field points must equal the
    per-point scalar evaluation bit-for-bit (the Figure 8 fast path)."""

    TX = np.array([[0.06, 0.0], [-0.06, 0.0]])
    POINTS = np.array(
        [[np.cos(a), np.sin(a)] for a in np.linspace(0.0, np.pi, 7)]
    )

    def _environments(self):
        indoor = MultipathEnvironment.random_indoor(rng=5)
        return (
            MultipathEnvironment.line_of_sight(),
            indoor,
            MultipathEnvironment(
                scatterers=indoor.scatterers, amplitude_decay_with_distance=True
            ),
        )

    def test_batch_field_matches_scalar(self):
        for env in self._environments():
            batch = env.field_at(self.TX, self.POINTS, 0.1224)
            scalar = np.array(
                [env.field_at(self.TX, p, 0.1224) for p in self.POINTS]
            )
            assert batch.shape == (len(self.POINTS),)
            assert np.array_equal(batch, scalar)

    def test_batch_amplitude_matches_scalar(self):
        phases = np.array([0.7, 0.0])
        for env in self._environments():
            batch = env.amplitude_at(
                self.TX, self.POINTS, 0.1224, tx_phases_rad=phases
            )
            scalar = np.array(
                [
                    env.amplitude_at(self.TX, p, 0.1224, tx_phases_rad=phases)
                    for p in self.POINTS
                ]
            )
            assert np.array_equal(batch, scalar)

    def test_batch_path_lengths_match_scalar(self):
        for env in self._environments():
            batch = env.path_lengths(self.TX, self.POINTS)
            scalar = np.array(
                [env.path_lengths(self.TX, p) for p in self.POINTS]
            )
            assert np.array_equal(batch, scalar)

    def test_scalar_forms_unchanged(self):
        env = MultipathEnvironment.random_indoor(rng=5)
        field = env.field_at(self.TX, self.POINTS[0], 0.1224)
        assert isinstance(field, complex)
        assert isinstance(env.amplitude_at(self.TX, self.POINTS[0], 0.1224), float)

    def test_bad_rx_shape_rejected(self):
        env = MultipathEnvironment.line_of_sight()
        with pytest.raises(ValueError):
            env.path_lengths(self.TX, np.zeros((3, 4)))
