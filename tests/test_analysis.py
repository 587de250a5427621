import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from phonon_timebin import analysis as A
from phonon_timebin import gaussian


def table(n11, n12, n21, n22, singles=None, trials=1e6):
    total = n11 + n12 + n21 + n22
    w = singles or {1: max(n11 + n12, 1.0), 2: max(n21 + n22, 1.0)}
    r = {1: max(n11 + n21, 1.0), 2: max(n12 + n22, 1.0)}
    return A.CoincidenceTable(
        counts={(1, 1): n11, (1, 2): n12, (2, 1): n21, (2, 2): n22},
        write_singles=w, read_singles=r, trials=trials)


class TestG2Cross:
    def test_uncorrelated_counts(self):
        res = A.g2_cross(1000, 1000, 1, 1e6)
        assert res.value == pytest.approx(1.0)

    def test_zero_singles_flagged(self):
        res = A.g2_cross(0, 100, 0, 1e6)
        assert math.isnan(res.value)
        assert any("zero singles" in f for f in res.flags)

    def test_poisson_sigma(self):
        res = A.g2_cross(10_000, 10_000, 100, 1e7)
        rel = math.sqrt(1 / 100 + 1 / 10_000 + 1 / 10_000)
        assert res.sigma == pytest.approx(res.value * rel)

    def test_independent_poisson_streams_give_one(self):
        # property: two independent click streams have g2 = 1 within 3 sigma
        rng = np.random.default_rng(123)
        trials = 2_000_000
        p_w, p_r = 3e-3, 5e-3
        w = rng.random(trials) < p_w
        r = rng.random(trials) < p_r
        res = A.g2_cross(w.sum(), r.sum(), (w & r).sum(), trials)
        assert abs(res.value - 1.0) <= 3.0 * res.sigma


class TestCorrelationE:
    def test_perfect_correlation(self):
        res = A.correlation_E(table(50, 0, 0, 50))
        assert res.value == 1.0
        assert res.sigma == 0.0

    def test_symmetric_counts(self):
        res = A.correlation_E(table(25, 25, 25, 25))
        assert res.value == 0.0
        assert res.sigma == pytest.approx(1.0 / math.sqrt(100))

    def test_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(0, 100, size=4) + 1
            res = A.correlation_E(table(*[float(x) for x in n]))
            assert -1.0 <= res.value <= 1.0

    def test_no_counts_is_a_flagged_nan(self):
        res = A.correlation_E(table(0, 0, 0, 0))
        assert math.isnan(res.value) and math.isnan(res.sigma)
        assert res.flags == ("no coincidences",)
        assert res.method == "E/multinomial"

    def test_count_invariants(self):
        with pytest.raises(A.AnalysisError, match="exceed"):
            A.CoincidenceTable(counts={(1, 1): 10.0}, write_singles={1: 5.0},
                               read_singles={1: 20.0}, trials=100)


class TestChsh:
    def test_tsirelson_pattern(self):
        v = 1 / math.sqrt(2)
        es = [A.AnalysisResult(x, 0.01, "E", "d") for x in (-v, v, -v, -v)]
        res = A.chsh_S(es)
        assert res.value == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert res.sigma == pytest.approx(0.02)

    def test_no_violation_pattern(self):
        es = [A.AnalysisResult(0.5, 0.0, "E", "d")] * 4
        assert A.chsh_S(es).value == pytest.approx(1.0)

    def test_needs_four(self):
        with pytest.raises(A.AnalysisError):
            A.chsh_S([A.AnalysisResult(0.5, 0.0, "E", "d")] * 3)

    def test_s_bounded_by_four(self):
        es = [A.AnalysisResult(s, 0.0, "E", "d") for s in (-1, 1, -1, -1)]
        assert A.chsh_S(es).value <= 4.0


class TestWitness:
    def test_paper_values(self):
        res = A.witness_R(0.82, 9.4, 5.0)
        assert res.value == pytest.approx(0.738, abs=1e-3)

    def test_no_coherence_bound(self):
        for g in (1.0, 3.0, 9.0):
            res = A.witness_R(0.0, g, g)
            assert res.value == pytest.approx((1 + g) / 2.0)
            assert res.value >= 1.0

    def test_boundary_algebra(self):
        assert A.witness_R(1.0, 1.0, 1.0).value == 0.0

    def test_entanglement_flagging(self):
        res = A.witness_R(A.AnalysisResult(0.82, 0.01, "V", "d"),
                          A.AnalysisResult(9.4, 0.2, "g", "d"),
                          A.AnalysisResult(5.0, 0.2, "g", "d"))
        assert any("entangled" in f for f in res.flags)

    def test_error_propagation(self):
        res = A.witness_R(A.AnalysisResult(0.82, 0.04, "V", "d"),
                          A.AnalysisResult(9.4, 1.3, "g", "d"),
                          A.AnalysisResult(5.0, 0.8, "g", "d"))
        dv = 0.5 * (1 + 7.2) * 0.04
        dg = 0.5 * (1 - 0.82) * 0.5 * math.hypot(1.3, 0.8)
        assert res.sigma == pytest.approx(math.hypot(dv, dg), rel=1e-9)

    def test_input_validation(self):
        with pytest.raises(A.AnalysisError):
            A.witness_R(1.2, 9.4, 5.0)
        with pytest.raises(A.AnalysisError):
            A.witness_R(0.8, -1.0, 5.0)


class TestThermometry:
    def test_inversion(self):
        res = A.nth_from_asymmetry(1.0, 0.0476)
        assert res.value == pytest.approx(0.05, abs=2e-4)

    def test_ground_state(self):
        assert A.nth_from_asymmetry(1.0, 0.0).value == 0.0

    def test_non_physical_flagged(self):
        res = A.nth_from_asymmetry(1.0, 1.2)
        assert math.isnan(res.value)
        assert any("non-physical" in f for f in res.flags)

    def test_sigma_propagation(self):
        res = A.nth_from_asymmetry(1.0, 0.1, sigma_stokes=0.01, sigma_antistokes=0.005)
        d_as = 1.0 / 0.9**2
        d_s = 0.1 / 0.9**2
        assert res.sigma == pytest.approx(math.hypot(d_as * 0.005, d_s * 0.01))


class TestLifetimeFit:
    def test_synthetic_recovery(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0.2e-6, 12e-6, 60)
        y = np.exp(-t / 2.2e-6)
        y += y * 0.01 * rng.standard_normal(len(t))
        res = A.fit_exponential(t, y, window_start=1e-6)
        assert res.value == pytest.approx(2.2e-6, rel=0.05)
        assert res.sigma < 0.1 * res.value

    def test_window_excludes_delayed_heating(self):
        t = np.linspace(0.1e-6, 10e-6, 50)
        y = np.exp(-t / 2.2e-6)
        y[t < 1e-6] *= 0.5  # corrupt the early points
        res = A.fit_exponential(t, y, window_start=1e-6)
        assert res.value == pytest.approx(2.2e-6, rel=1e-3)

    def test_constant_series_flagged(self):
        t = np.linspace(1e-6, 5e-6, 10)
        res = A.fit_exponential(t, np.ones(10))
        assert math.isinf(res.value)
        assert res.flags

    def test_needs_points_beyond_window(self):
        with pytest.raises(A.AnalysisError):
            A.fit_exponential([2e-6, 3e-6], [0.5, 0.4])

    def test_two_point_closed_form(self):
        t = np.array([1e-6, 2e-6, 3e-6, 4e-6])
        y = np.exp(-t / 1.5e-6)
        res = A.fit_exponential(t, y)
        assert res.value == pytest.approx(1.5e-6, rel=1e-6)


def curve_fit_t1(t, y, sigmas=None):
    """T1 and its sigma from SciPy's curve_fit, seeded by a log-linear fit
    and held to tight tolerances with the exact Jacobian, so that its own
    convergence error stays far below the 1e-6 it is compared at."""
    slope, intercept = np.polyfit(t, np.log(y), 1)
    p0 = (math.exp(intercept), -1.0 / slope if slope < 0 else np.ptp(t))
    popt, pcov = curve_fit(
        lambda tt, a, t1: a * np.exp(-tt / t1), t, y, p0=p0, sigma=sigmas,
        absolute_sigma=sigmas is not None, maxfev=10000, ftol=1e-14, xtol=1e-14,
        jac=lambda tt, a, t1: np.column_stack([np.exp(-tt / t1),
                                               a * tt / t1**2 * np.exp(-tt / t1)]))
    return popt[1], math.sqrt(pcov[1, 1])


def acceptance_lifetime_inputs():
    """The synthetic pump-probe decay of acceptance criterion 9, drawn after
    that test's occupancy draws from the same generator."""
    rng = np.random.default_rng(99)
    for target in (0.022, 0.040, 0.066, 0.095):
        st_ = gaussian.thermal_state(["m", "o"], {"m": target})
        stokes = gaussian.apply_two_mode_squeeze(st_, "o", "m", 0.002)
        anti = gaussian.apply_beam_splitter(st_, "o", "m", 1.0 - 0.002)
        rng.poisson((1.0 - gaussian.vacuum_probability(stokes, ["o"])) * 1e9)
        rng.poisson((1.0 - gaussian.vacuum_probability(anti, ["o"])) * 1e9)
    t = np.linspace(0.1e-6, 12e-6, 80)
    decay = np.exp(-t / 2.2e-6)
    decay[t < 1e-6] *= 1.0 + 0.4 * np.exp(-t[t < 1e-6] / 0.3e-6)
    decay *= 1.0 + 0.01 * rng.standard_normal(len(t))
    return t, decay


class TestLifetimeFitAgainstCurveFit:
    def test_acceptance_inputs(self):
        t, y = acceptance_lifetime_inputs()
        res = A.fit_exponential(t, y, window_start=1e-6)
        t1, sigma = curve_fit_t1(t[t >= 1e-6], y[t >= 1e-6])
        assert res.value == pytest.approx(2.2e-6, rel=0.05)
        assert res.value == pytest.approx(t1, rel=1e-6)
        assert res.sigma == pytest.approx(sigma, rel=1e-6)
        # absolute sigmas: no chi^2/dof scaling
        sigmas = np.full(len(t), 0.01)
        res = A.fit_exponential(t, y, window_start=1e-6, sigmas=sigmas)
        t1, sigma = curve_fit_t1(t[t >= 1e-6], y[t >= 1e-6], sigmas[t >= 1e-6])
        assert res.value == pytest.approx(t1, rel=1e-6)
        assert res.sigma == pytest.approx(sigma, rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 60), amplitude=st.floats(1e-2, 1e2),
           span=st.floats(1e-6, 2e-5), t1_over_span=st.floats(0.1, 3.0),
           noise=st.floats(1e-3, 5e-2), absolute=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_drawn_decays(self, n, amplitude, span, t1_over_span, noise, absolute, seed):
        rng = np.random.default_rng(seed)
        t = np.sort(1e-6 + span * rng.random(n))
        clean = amplitude * np.exp(-t / (t1_over_span * span))
        y = clean * (1.0 + noise * rng.standard_normal(n))
        sigmas = noise * clean if absolute else None
        res = A.fit_exponential(t, y, window_start=1e-6, sigmas=sigmas)
        t1, sigma = curve_fit_t1(t, y, sigmas)
        assert not res.flags
        assert res.value == pytest.approx(t1, rel=1e-6)
        assert res.sigma == pytest.approx(sigma, rel=1e-6)

    def test_growth_is_flagged(self):
        t = np.linspace(1e-6, 5e-6, 10)
        res = A.fit_exponential(t, np.exp(t / 2e-6))
        assert math.isnan(res.value)
        assert res.flags == ("fit did not converge",)


class TestSinusoidCalibration:
    def sweep(self, amp, phi_0, offset=0.0, noise=0.0, rng=None, n=12):
        pts = []
        for phi_r in (0.0, math.pi / 2):
            for phi_w in np.linspace(0, 2 * math.pi, n, endpoint=False):
                e = -amp * math.sin(phi_w + phi_r - phi_0) + offset
                if rng is not None and noise > 0:
                    e += noise * rng.standard_normal()
                pts.append(A.SweepPoint(phi_w, phi_r, e, noise or 0.01))
        return pts

    def test_exact_recovery(self):
        cal = A.fit_sinusoid_and_choose_phases(self.sweep(0.8, 1.0 * math.pi))
        assert cal.phi_0 == pytest.approx(math.pi, abs=1e-9)
        assert cal.amplitude == pytest.approx(0.8, abs=1e-9)
        assert cal.expected_S == pytest.approx(2 * math.sqrt(2) * 0.8, abs=1e-6)
        # the exact ideal points, on the branch the sign of the fitted
        # (round-off) offset picks
        shift = math.pi if cal.offset > 0 else 0.0
        a, ap = math.pi + math.pi / 4 + shift, math.pi - math.pi / 4 + shift
        np.testing.assert_allclose(
            cal.chsh_settings, ((a, 0.0), (ap, 0.0), (a, math.pi / 2), (ap, math.pi / 2)),
            rtol=0, atol=1e-9)

    def test_noisy_recovery_within_drift_bound(self):
        rng = np.random.default_rng(12)
        errs = []
        for _ in range(100):
            cal = A.fit_sinusoid_and_choose_phases(
                self.sweep(0.55, 1.1 * math.pi, noise=0.06, rng=rng))
            err = (cal.phi_0 - 1.1 * math.pi + math.pi) % (2 * math.pi) - math.pi
            errs.append(err)
        assert math.sqrt(np.mean(np.square(errs))) < math.pi / 50

    def test_offset_handled(self):
        cal = A.fit_sinusoid_and_choose_phases(self.sweep(0.6, 0.4, offset=0.05))
        assert cal.offset == pytest.approx(0.05, abs=1e-9)
        # offset breaks the branch symmetry: expected S gains 2|c|
        assert cal.expected_S == pytest.approx(2 * math.sqrt(2) * 0.6 + 0.1, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(0.0, 2 * math.pi),
           st.just(0.0) | st.floats(-0.3, 0.3),
           st.lists(st.floats(-1e-3, 1e-3) | st.floats(-math.pi, math.pi),
                    min_size=4, max_size=4))
    def test_settings_maximize_model_s(self, amp, phi_0, offset, shifts):
        cal = A.fit_sinusoid_and_choose_phases(self.sweep(amp, phi_0, offset))

        def model_s(a, ap, b, bp):
            def e(phi_w, phi_r):
                return -cal.amplitude * math.sin(phi_w + phi_r - cal.phi_0) + cal.offset
            return abs(e(a, b) - e(ap, b) + e(a, bp) + e(ap, bp))

        (a, b), (ap, _), (_, bp), _ = cal.chsh_settings
        assert cal.chsh_settings[3] == (ap, bp)
        assert model_s(a, ap, b, bp) == pytest.approx(cal.expected_S, abs=1e-12)
        perturbed = [x + d for x, d in zip((a, ap, b, bp), shifts)]
        assert model_s(*perturbed) <= cal.expected_S + 1e-12

    def test_degenerate_fit_rejected(self):
        rng = np.random.default_rng(5)
        pts = self.sweep(0.001, 1.0, noise=0.2, rng=rng)
        with pytest.raises(A.AnalysisError, match="degenerate"):
            A.fit_sinusoid_and_choose_phases(pts)

    def test_needs_six_points(self):
        with pytest.raises(A.AnalysisError):
            A.fit_sinusoid_and_choose_phases(self.sweep(0.5, 1.0)[:5])

    def test_points_without_an_E_are_left_out(self):
        rng = np.random.default_rng(9)
        clean = self.sweep(0.6, 2.0, offset=0.03, noise=0.02, rng=rng)
        undefined = [A.SweepPoint(p.phi_w + 0.1, p.phi_r, math.nan, math.nan)
                     for p in clean[::3]]
        mixed = clean[:8] + undefined + clean[8:]
        assert A.fit_sinusoid_and_choose_phases(mixed) == \
            A.fit_sinusoid_and_choose_phases(clean)

    def test_needs_six_points_with_an_E(self):
        five = self.sweep(0.5, 1.0)[:5]
        undefined = [A.SweepPoint(0.1 * k, 0.0, math.nan, math.nan) for k in range(10)]
        with pytest.raises(A.AnalysisError, match="with an E"):
            A.fit_sinusoid_and_choose_phases(five + undefined)


class TestCoincidenceExtraction:
    def test_from_distribution_exclusive_counting(self):
        from phonon_timebin.core import OutcomeDistribution
        labels = ("w:1", "w:2", "r:1", "r:2")
        probs = np.zeros(16)
        probs[0b1010] = 0.3    # n11
        probs[0b1001] = 0.1    # n12
        probs[0b1110] = 0.05   # double write click: excluded
        probs[0b0000] = 0.55
        dist = OutcomeDistribution(labels, probs)
        t = A.coincidences_from_distribution(dist, ("w:1", "w:2"), ("r:1", "r:2"),
                                             trials=100)
        assert t.counts[(1, 1)] == pytest.approx(30.0)
        assert t.counts[(1, 2)] == pytest.approx(10.0)
        assert t.counts[(2, 1)] == 0.0
        # singles include every click, exclusive or not
        assert t.write_singles[1] == pytest.approx(45.0)
        assert t.write_singles[2] == pytest.approx(5.0)
