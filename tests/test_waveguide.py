import math

import numpy as np
import pytest

from phonon_timebin import core
from phonon_timebin import waveguide as W


class TestModeSum:
    def test_exact_revival_without_damping(self):
        spec = W.synthetic_spectrum(12, 8e6)
        p = W.mode_sum_envelope(spec, [0.0, 125e-9])
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert p[1] == pytest.approx(1.0, abs=1e-9)

    def test_damped_revival(self):
        gamma = 1.0 / 2.2e-6
        spec = W.synthetic_spectrum(12, 8e6, gamma=gamma)
        p = W.mode_sum_envelope(spec, [125e-9])
        assert p[0] == pytest.approx(math.exp(-125e-9 / 2.2e-6), abs=1e-9)
        assert p[0] == pytest.approx(0.945, abs=1e-3)

    def test_jittered_spectrum_dims_revivals(self):
        stats = W.FsrStatistics(8.3e6, 0.8e6, 12)
        heights = []
        for seed in range(60):
            spec = W.sample_jittered_spectrum(stats, np.random.default_rng(seed))
            heights.append(W.revival_peak_heights(spec, 3))
        mean = np.mean(heights, axis=0)
        control = W.synthetic_spectrum(12, 8.3e6)
        ctrl = W.revival_peak_heights(control, 3)
        assert np.all(mean < ctrl - 0.01)
        assert mean[0] > mean[1] > mean[2]

    def test_empty_and_invalid(self):
        with pytest.raises(W.WaveguideError):
            W.ModeSpectrum(np.array([1.0]), np.array([1.0 + 0j]))
        with pytest.raises(W.WaveguideError):
            W.ModeSpectrum(np.array([1.0, 2.0]), np.zeros(2, complex))
        spec = W.synthetic_spectrum(4, 8e6)
        with pytest.raises(W.WaveguideError):
            W.mode_sum_envelope(spec, [1e-9, 0.0])  # unsorted grid


class TestG2Curve:
    def test_zero_delay_is_two(self):
        spec = W.synthetic_spectrum(12, 7.94e6, gamma=1 / 2.2e-6)
        g2 = W.g2_tau_curve(spec, [0.0])
        assert g2[0] == pytest.approx(2.0, abs=1e-12)

    def test_drops_to_one_between_revivals(self):
        spec = W.synthetic_spectrum(12, 7.94e6)
        g2 = W.g2_tau_curve(spec, [63e-9])
        assert g2[0] == pytest.approx(1.0, abs=0.02)

    def test_exact_revival_periodicity(self):
        spec = W.synthetic_spectrum(12, 8e6)
        g2 = W.g2_tau_curve(spec, [1 / 8e6])
        assert g2[0] == pytest.approx(2.0, abs=1e-9)

    def test_bounds(self):
        spec = W.synthetic_spectrum(9, 8.3e6, gamma=1 / 2.2e-6, envelope="gaussian",
                                    envelope_sigma_hz=12e6)
        dt = np.linspace(0, 600e-9, 2000)
        g2 = W.g2_tau_curve(spec, dt)
        assert np.all(g2 >= 1.0 - 1e-12)
        assert np.all(g2 <= 2.0 + 1e-12)

    def test_time_reversal_symmetry(self):
        spec = W.synthetic_spectrum(7, 8.1e6)
        dt = np.array([-200e-9, -50e-9, 50e-9, 200e-9])
        g2 = W.g2_tau_curve(spec, dt)
        assert g2[0] == pytest.approx(g2[3], abs=1e-12)
        assert g2[1] == pytest.approx(g2[2], abs=1e-12)

    def test_constant_fsr_revival_heights(self):
        gamma = 1 / 2.2e-6
        spec = W.synthetic_spectrum(12, 8e6, gamma=gamma)
        fsr = 8e6
        for m in (1, 2, 3):
            g2 = W.g2_tau_curve(spec, [m / fsr])
            expected = 1.0 + math.exp(-2 * gamma * m / fsr)
            assert g2[0] == pytest.approx(expected, abs=1e-9)


class TestExtraction:
    def grid(self):
        return np.arange(0.0, 700e-9, 0.5e-9)

    def test_round_trip_from_constant_fsr(self):
        spec = W.synthetic_spectrum(12, 7.94e6, gamma=1 / 2.2e-6,
                                    envelope="gaussian", envelope_sigma_hz=9e6)
        dt = self.grid()
        tau, fwhm = W.extract_round_trip(dt, W.g2_tau_curve(spec, dt))
        assert tau == pytest.approx(1 / 7.94e6, abs=0.5e-9)
        assert abs(tau - 126e-9) < 0.5e-9

    def test_packet_width_scale(self):
        spec = W.synthetic_spectrum(12, 7.94e6, envelope="gaussian",
                                    envelope_sigma_hz=9e6)
        dt = self.grid()
        _, fwhm = W.extract_round_trip(dt, W.g2_tau_curve(spec, dt))
        assert 24e-9 < fwhm < 36e-9

    def test_no_revival_error(self):
        spec = W.synthetic_spectrum(2, 8e6, gamma=5e7)  # overdamped
        dt = self.grid()
        with pytest.raises(W.WaveguideError):
            W.extract_round_trip(dt, W.g2_tau_curve(spec, dt))

    def test_jittered_tau_tracks_mean_fsr(self):
        stats = W.FsrStatistics(8.3e6, 0.8e6, 12)
        taus = []
        dt = self.grid()
        for seed in range(100):
            spec = W.sample_jittered_spectrum(stats, np.random.default_rng(100 + seed))
            try:
                tau, _ = W.extract_round_trip(dt, W.g2_tau_curve(spec, dt))
            except W.WaveguideError:
                continue
            taus.append(tau)
        assert len(taus) > 80
        assert np.mean(taus) == pytest.approx(1 / 8.3e6, rel=0.05)


class TestIO:
    def test_spectrum_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.txt"
        freqs = 5.154e9 + np.arange(5) * 8e6
        amps = np.array([0.4, 0.8, 1.0, 0.7, 0.3])
        phases = np.array([0.0, 0.2, 0.0, -0.1, 0.05])
        np.savetxt(path, np.column_stack([freqs, amps, phases]))
        spec = W.load_spectrum(path, gamma=1e5)
        assert spec.gamma == 1e5
        assert np.allclose(spec.omega, 2 * math.pi * freqs)
        assert np.allclose(spec.amplitude, amps * np.exp(1j * phases))

    def test_curve_output(self, tmp_path):
        path = tmp_path / "curve.txt"
        W.save_curve(path, [0.0, 1.0], [2.0, 1.0], header="dt g2")
        data = np.loadtxt(path)
        assert data.shape == (2, 2)


@pytest.mark.parametrize("lines", [1, core.WRITE_BLOCK_LINES - 1, core.WRITE_BLOCK_LINES,
                                   core.WRITE_BLOCK_LINES + 1, 2 * core.WRITE_BLOCK_LINES + 1])
@pytest.mark.parametrize("header", ["delay_s g2", "", "two\nlines"])
def test_save_curve_writes_the_bytes_of_savetxt(tmp_path, lines, header):
    delays = np.arange(lines) * 0.5e-9
    curve = W.g2_tau_curve(W.synthetic_spectrum(12, 7.94e6), delays)
    curve[:3] = [-0.0, 1e-300, 2.0][:lines]
    W.save_curve(tmp_path / "got.txt", delays, curve, header=header)
    np.savetxt(tmp_path / "want.txt", np.column_stack([delays, curve]), header=header)
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
