"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured numbers.  Run as:

    pytest tests/test_acceptance.py -v -s

Simulated uncertainties come from explicit trial budgets (multinomial or
Poisson counting statistics at the stated number of repetitions); exact-mode
values are asserted against their windows directly, and sampled estimates
are additionally required to be statistically consistent with them.
"""

import math
import time
from importlib.resources import files

import numpy as np
import pytest

from phonon_timebin import analysis, cli, gaussian, oracles, protocol, waveguide
from phonon_timebin.core import load_config, with_overrides

TAU = 126e-9
T1 = 2.2e-6


def reference_config(name):
    return load_config(str(files("phonon_timebin") / "configs" / f"{name}.yaml"))


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def test_criterion_01_cross_engine_oracle():
    """200 randomized vocabulary circuits agree between Fock (N=5) and
    Gaussian on every threshold-click pattern within 1e-6, in under 5 min."""
    t0 = time.time()
    worst, idx = oracles.cross_engine_suite(200, seed=20260809, n_max=5)
    elapsed = time.time() - t0
    report(1, worst < 1e-6 and elapsed < 300.0,
           f"worst click-pattern deviation {worst:.3e} (circuit {idx}) over 200 "
           f"circuits, {elapsed:.0f}s")


def test_criterion_02_fringe_oracle():
    """Exact noiseless mode: E(Phi) = cos(Phi) at 24 points to 1e-9, the
    Phi = 0 branch puts read clicks on the heralding detector only, and the
    detector-2 herald sees the pattern at Phi + pi."""
    fringe, cross0, flip = oracles.fringe_suite(n_points=24)
    report(2, fringe < 1e-9 and cross0 < 1e-9 and flip < 1e-9,
           f"max |E - cos| = {fringe:.2e}, Phi=0 cross-branch = {cross0:.2e}, "
           f"herald flip residual = {flip:.2e}")


def test_criterion_03_thermal_correlation():
    """g2(0) = 2 exactly; a synthetic 12-mode spectrum at FSR 7.94 MHz gives
    the 126 ns round trip within one grid step and a ~30 ns packet."""
    spec = waveguide.synthetic_spectrum(12, 7.94e6, gamma=1.0 / T1,
                                        envelope="gaussian", envelope_sigma_hz=9e6)
    step = 0.5e-9
    delays = np.arange(0.0, 5.5 * TAU, step)
    curve = waveguide.g2_tau_curve(spec, delays)
    g20 = float(curve[0])
    tau, fwhm = waveguide.extract_round_trip(delays, curve)
    ok = (abs(g20 - 2.0) < 1e-6 and abs(tau - TAU) <= step
          and 0.8 * 30e-9 <= fwhm <= 1.2 * 30e-9)
    report(3, ok, f"g2(0) = {g20:.9f}, tau = {tau * 1e9:.2f} ns "
                  f"(grid step {step * 1e9:.1f} ns), packet FWHM = {fwhm * 1e9:.1f} ns")


def test_criterion_04_fsr_jitter_dephasing():
    """Over 100 seeds at FSR 8.3 +- 0.8 MHz the ensemble-mean revival peaks
    fall monotonically, while the constant-FSR control decays only through
    exp(-dt/T1).  Under one minute."""
    t0 = time.time()
    stats = waveguide.FsrStatistics(8.3e6, 0.8e6, 12)
    heights = []
    for seed in range(100):
        spec = waveguide.sample_jittered_spectrum(
            stats, np.random.default_rng(seed), gamma=1.0 / T1)
        heights.append(waveguide.revival_peak_heights(spec, 4))
    mean = np.mean(heights, axis=0)
    control = waveguide.synthetic_spectrum(12, 8.3e6, gamma=1.0 / T1)
    revival_times = np.arange(1, 5) / 8.3e6
    ctrl = waveguide.mode_sum_envelope(control, revival_times)
    expected_ctrl = np.exp(-revival_times / T1)
    elapsed = time.time() - t0
    monotone = bool(np.all(np.diff(mean) < 0))
    ctrl_pure_t1 = bool(np.allclose(ctrl, expected_ctrl, rtol=1e-3))
    report(4, monotone and ctrl_pure_t1 and elapsed < 60.0,
           f"ensemble peaks {np.round(mean, 3).tolist()} monotone={monotone}, "
           f"control matches exp(-dt/T1) to 0.1%: {ctrl_pure_t1}, {elapsed:.0f}s")


def test_criterion_05_cross_correlation_windows():
    """Fig. 3a sequence at the reference parameters, 2e10 >= 1e7 sampled
    trials: g2_EE in [6.8, 12.0], g2_LL in [3.4, 6.6], EE > LL, and both
    mixed combinations below 2.5.  Gaussian engine, well under 30 min."""
    t0 = time.time()
    config = with_overrides(reference_config("cross_correlation"),
                            {"trials": 20_000_000_000})
    assert config.trials >= 10_000_000
    run = protocol.run_experiment(config)
    sr = run.settings[0]
    pairs = {"EE": ("write-early-direct", "read-early-direct"),
             "LL": ("write-overlap", "read-overlap"),
             "EL": ("write-early-direct", "read-overlap"),
             "LE": ("write-overlap", "read-early-direct")}
    exact = {k: analysis.window_g2(sr.distribution, w, r, trials=config.trials)
             for k, (w, r) in pairs.items()}
    sampled = {k: analysis.window_g2(sr.distribution, w, r, trials=config.trials,
                                     counts=sr.counts) for k, (w, r) in pairs.items()}
    ok = (6.8 <= exact["EE"].value <= 12.0
          and 3.4 <= exact["LL"].value <= 6.6
          and exact["EE"].value > exact["LL"].value
          and exact["EL"].value < 2.5 and exact["LE"].value < 2.5)
    for k in pairs:
        ok &= abs(sampled[k].value - exact[k].value) <= 4.0 * max(
            sampled[k].sigma, 1e-6)
    elapsed = time.time() - t0
    report(5, ok and elapsed < 1800.0,
           "exact g2: EE=%.2f LL=%.2f EL=%.2f LE=%.2f; sampled at %g trials: "
           "EE=%.2f±%.2f LL=%.2f±%.2f; %.0fs" % (
               exact["EE"].value, exact["LL"].value, exact["EL"].value,
               exact["LE"].value, config.trials, sampled["EE"].value,
               sampled["EE"].sigma, sampled["LL"].value, sampled["LL"].sigma,
               elapsed))


def _entanglement_visibility(trials):
    """Fringe maximum of the reference entanglement run with a counting
    uncertainty at the given trial budget."""
    config = with_overrides(reference_config("timebin_entanglement"),
                            {"trials": trials})
    phi_max = config.phases.phi_0 - math.pi / 2.0  # Phi = 0: positive lobe
    e, _ = cli.setting_E(config, phi_max, 0.0)
    return analysis.AnalysisResult(abs(e.value), e.sigma, e.method, e.inputs_digest)


def test_criterion_06_entanglement_witness():
    """R < 1 by at least 3 simulated standard deviations at the Fig. 3
    operating point, and the paper-value cross-check lands on 0.74."""
    v = _entanglement_visibility(trials=100_000_000_000)
    config = with_overrides(reference_config("cross_correlation"),
                            {"trials": 20_000_000_000})
    run = protocol.run_experiment(config)
    sr = run.settings[0]
    gee = analysis.window_g2(sr.distribution, "write-early-direct", "read-early-direct",
                             trials=config.trials, counts=sr.counts)
    gll = analysis.window_g2(sr.distribution, "write-overlap", "read-overlap",
                             trials=config.trials, counts=sr.counts)
    r_sim = analysis.witness_R(v, gee, gll)
    violated = r_sim.value + 3.0 * r_sim.sigma < 1.0

    r_paper = analysis.witness_R(
        analysis.AnalysisResult(0.82, 0.04, "V", "paper"),
        analysis.AnalysisResult(9.4, 1.3, "g2", "paper"),
        analysis.AnalysisResult(5.0, 0.8, "g2", "paper"))
    near = abs(r_paper.value - 0.74) < 0.005
    consistent = abs(r_paper.value - 0.72) <= math.hypot(0.06, r_paper.sigma)
    report(6, violated and near and consistent,
           f"simulated R = {r_sim.value:.3f} ± {r_sim.sigma:.3f} "
           f"(V = {v.value:.3f} ± {v.sigma:.3f}, g2 = {gee.value:.2f}/{gll.value:.2f}); "
           f"measured-value check R = {r_paper.value:.3f} ± {r_paper.sigma:.3f}")


def test_criterion_07_bell_violation():
    """Calibration workflow then the Bell run: S inside the measured window
    [2.16, 2.48], above 2 by >= 3 simulated SDs, and the noiseless control
    reaches 2 sqrt(2) to 1e-6."""
    cal_config = with_overrides(reference_config("calibration"), {"trials": 0})
    points = []
    for phi_r in (0.0, math.pi / 2.0):
        for phi_w in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
            e, _ = cli.setting_E(cal_config, phi_w, phi_r)
            points.append(analysis.SweepPoint(phi_w, phi_r, e.value, 0.02))
    cal = analysis.fit_sinusoid_and_choose_phases(points)

    bell = with_overrides(reference_config("bell_test"), {"trials": 40_000_000_000})
    bell_exact = with_overrides(bell, {"trials": 0})
    exact_es, sampled_es = [], []
    for i, (phi_w, phi_r) in enumerate(cal.chsh_settings):
        exact_es.append(cli.setting_E(bell_exact, phi_w, phi_r)[0])
        sampled_es.append(cli.setting_E(bell, phi_w, phi_r, setting_idx=i)[0])
    s_exact = analysis.chsh_S(exact_es)
    s_sim = analysis.chsh_S(sampled_es)

    control = oracles.ideal_limit_config()
    ctrl_es = []
    for phi_w, phi_r in control.phases.chsh_settings():
        dist = protocol.exact_joint_distribution(control, phi_w, phi_r)
        ctrl_es.append(analysis.correlation_E(analysis.overlap_table(dist)))
    s_ctrl = analysis.chsh_S(ctrl_es).value

    ok = (2.16 <= s_exact.value <= 2.48
          and abs(s_sim.value - s_exact.value) <= 4.0 * s_sim.sigma
          and s_sim.value - 2.0 >= 3.0 * s_sim.sigma
          and abs(s_ctrl - 2.0 * math.sqrt(2.0)) < 1e-6)
    report(7, ok,
           f"S_exact = {s_exact.value:.3f} at calibrated settings, sampled "
           f"S = {s_sim.value:.3f} ± {s_sim.sigma:.3f} "
           f"({(s_sim.value - 2.0) / s_sim.sigma:.1f} sigma above 2); "
           f"noiseless control S = {s_ctrl:.9f}")


def test_criterion_08_calibration_recovery():
    """The sinusoid fit recovers an injected phi_0 to better than pi/50 RMS
    over 100 realizations at paper-like counting noise."""
    rng = np.random.default_rng(2026)
    phi_true = 1.03 * math.pi
    errs = []
    for _ in range(100):
        points = []
        for phi_r in (0.0, math.pi / 2.0):
            for phi_w in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
                e = -0.55 * math.sin(phi_w + phi_r - phi_true) + 0.04
                e += 0.06 * rng.standard_normal()  # ~250 events per point
                points.append(analysis.SweepPoint(phi_w, phi_r, e, 0.06))
        cal = analysis.fit_sinusoid_and_choose_phases(points)
        err = (cal.phi_0 - phi_true + math.pi) % (2.0 * math.pi) - math.pi
        errs.append(err)
    rms = math.sqrt(float(np.mean(np.square(errs))))
    report(8, rms < math.pi / 50.0,
           f"phi_0 recovery RMS over 100 realizations = {rms:.4f} rad "
           f"(pi/50 = {math.pi / 50:.4f}), worst {max(np.abs(errs)):.4f}")


def test_criterion_09_estimator_sanity():
    """Sideband-asymmetry thermometry recovers the configured occupancies
    within 2 SD at a 1e9-trial budget, and the lifetime fit recovers
    T1 = 2.2 us within 5% on synthetic pump-probe data."""
    rng = np.random.default_rng(99)
    trials = 1_000_000_000
    p_probe = 0.002
    ok = True
    details = []
    for target in (0.022, 0.040, 0.066, 0.095):
        st = gaussian.thermal_state(["m", "o"], {"m": target})
        stokes = gaussian.apply_two_mode_squeeze(st, "o", "m", p_probe)
        r_s = 1.0 - gaussian.vacuum_probability(stokes, ["o"])
        anti = gaussian.apply_beam_splitter(st, "o", "m", 1.0 - p_probe)
        r_as = 1.0 - gaussian.vacuum_probability(anti, ["o"])
        n_s = rng.poisson(r_s * trials)
        n_as = rng.poisson(r_as * trials)
        res = analysis.nth_from_asymmetry(
            n_s / trials, n_as / trials,
            sigma_stokes=math.sqrt(n_s) / trials,
            sigma_antistokes=math.sqrt(n_as) / trials)
        ok &= abs(res.value - target) <= 2.0 * res.sigma
        details.append(f"{target:.3f}->{res.value:.4f}±{res.sigma:.4f}")

    t = np.linspace(0.1e-6, 12e-6, 80)
    decay = np.exp(-t / T1)
    decay[t < 1e-6] *= 1.0 + 0.4 * np.exp(-t[t < 1e-6] / 0.3e-6)  # delayed heating
    decay *= 1.0 + 0.01 * rng.standard_normal(len(t))
    t1_fit = analysis.fit_exponential(t, decay, window_start=1e-6)
    t1_ok = abs(t1_fit.value - T1) <= 0.05 * T1
    report(9, ok and t1_ok,
           "occupancy " + " ".join(details)
           + f"; T1 fit = {t1_fit.value * 1e6:.3f} us (target 2.2, 5% window)")


def test_criterion_10_determinism(tmp_path):
    """Identical (config, seed) reproduce identical outputs; each setting's
    counts are one draw from its absolute (seed, setting) substream, and its
    records draw from one (seed, 1_000_000 + setting) generator."""
    config = with_overrides(reference_config("bell_test"),
                            {"trials": 1_000_000_000, "record_trials": 64})
    a = protocol.run_experiment(config)
    b = protocol.run_experiment(config)
    same = all(np.array_equal(x.counts, y.counts) for x, y in zip(a.settings, b.settings))
    same &= a.records == b.records

    cfg_path = tmp_path / "bell.yaml"
    from phonon_timebin.core import save_config
    save_config(config, cfg_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        outs.append((out / "counts.csv").read_bytes())
    report(10, same and outs[0] == outs[1],
           "repeated runs byte-identical (counts tables and click records)")
