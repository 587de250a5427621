import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from dense_fock import dense, element, entries, index
from phonon_timebin import analysis, fock, gaussian, oracles, protocol
from phonon_timebin.core import (
    EngineSpec,
    ExperimentConfig,
    ExperimentKind,
    NoiseModel,
    OutcomeDistribution,
    PhaseSettings,
    PulseRole,
    WaveguideParams,
    build_pulse_sequence,
    fwhm_to_sigma,
    load_config,
    sample_phase_jitter,
    with_overrides,
)

CONFIGS = Path(protocol.__file__).parent / "configs"

ROLES = (PulseRole.WRITE_EARLY, PulseRole.WRITE_LATE,
         PulseRole.READ_EARLY, PulseRole.READ_LATE)


def clean_noise(**over):
    base = dict(
        thermal_schedule=tuple((r, 0.0) for r in ROLES),
        interferometer_visibility=1.0,
        write_phase_jitter_fwhm=0.0,
        read_phase_jitter_fwhm=0.0,
        detector_efficiency=(1.0, 1.0),
        dark_count_prob=0.0,
        leakage_prob={"write": (0.0, 0.0), "read": (0.0, 0.0)},
        coupling_efficiency=1.0,
        filter_pulse_efficiency=(1.0, 1.0),
    )
    base.update(over)
    return NoiseModel(**base)


def make_config(kind=ExperimentKind.TIME_BIN_ENTANGLEMENT, p_w=0.002, p_r=0.007,
                noise=None, phi_off=0.0, T1=math.inf, retrieval=1.0, trials=0,
                seed=1, engine=EngineSpec("gaussian"), record_trials=0):
    wg = WaveguideParams(T1=T1, retrieval_efficiency=retrieval)
    return ExperimentConfig(
        kind=kind, waveguide=wg,
        pulses=build_pulse_sequence(kind, wg.round_trip_time, p_w, p_r),
        phases=PhaseSettings(phi_off=phi_off),
        noise=noise if noise is not None else clean_noise(),
        trials=trials, seed=seed, engine=engine, record_trials=record_trials)


def read_stage(circuit, config, phi=0.0):
    """The whole read stage on an unbatched state: round-trip decay, thermal
    top-up, readout splitters and coupling loss, then the read photons
    through the interferometer at relative phase phi."""
    protocol._read_prefix(circuit, config)
    return protocol._stage_interferometer(circuit, config, "read", phi)


class TestWriteStage:
    def test_write_click_probability(self):
        # ideal chain: each bin sends half its photon flux into the overlap
        # window, so P(any overlap click) = p_w to O(p^2)
        cfg = make_config(p_w=0.002)
        circuit = protocol._GaussianCircuit()
        groups = protocol.run_write_stage(circuit, cfg, 0.0)
        dist = circuit.click_distribution(groups, None)
        p_click = 1.0 - dist.prob(**{"write-overlap:1": False, "write-overlap:2": False})
        assert p_click == pytest.approx(0.002, rel=5e-3)

    def test_zero_scattering_preserves_vacuum(self):
        cfg = make_config(p_w=0.0, p_r=0.0)
        circuit = protocol._GaussianCircuit()
        groups = protocol.run_write_stage(circuit, cfg, 0.3)
        dist = circuit.click_distribution(groups, None)
        assert dist.prob(**{"write-overlap:1": False, "write-overlap:2": False}) == \
            pytest.approx(1.0, abs=1e-12)

    def test_heralded_coherence_scales_with_visibility(self):
        # post-selecting one Stokes photon leaves |rho_EL| = V_int / 2
        for v_int in (1.0, 0.94, 0.6):
            cfg = make_config(noise=clean_noise(interferometer_visibility=v_int),
                              p_w=0.001)
            circuit = protocol._FockCircuit(n_max=2, total_cap=2)
            groups = protocol.run_write_stage(circuit, cfg, 0.0)
            w_map = {ch: groups[ch] for ch in
                     ("write-overlap:1", "write-overlap:2")}
            codes, _, branches = circuit.measure(w_map, None)
            heralded = element(branches, codes.tolist().index(0b10))
            i = index(heralded.basis)[(1, 0)]
            j = index(heralded.basis)[(0, 1)]
            assert abs(dense(heralded)[i, j]) == pytest.approx(v_int / 2.0, abs=2e-3)

    @pytest.mark.parametrize("epsilon", [0.01, 0.005])
    def test_mechanical_occupancy_follows_schedule(self, monkeypatch, epsilon):
        # the read-stage top-up solves for its delta with the same epsilon
        # that the thermal-noise channel attenuates by
        monkeypatch.setattr(protocol, "THERMAL_NOISE_EPSILON", epsilon)
        noise = clean_noise(thermal_schedule=tuple(
            zip(ROLES, (0.022, 0.040, 0.066, 0.095))))
        cfg = make_config(noise=noise, T1=2.2e-6, retrieval=0.8)
        circuit = protocol._GaussianCircuit()
        protocol.run_write_stage(circuit, cfg, 0.0)
        # WriteLate's bin was initialized at the occupancy it must see,
        # plus the pair creation's sinh^2(r) (1 + n) = p/(1-p) (1 + n)
        assert circuit.mean_occupation("m_L") == pytest.approx(
            0.022 + 0.002 / 0.998 * 1.022, abs=1e-9)
        read_stage(circuit, cfg, 0.0)
        # after the inter-pulse channels each read saw its scheduled value
        # (readout removed p_r of it)
        assert circuit.mean_occupation("m_E") == pytest.approx(
            0.040 * (1 - 0.007), rel=1e-6)
        assert circuit.mean_occupation("m_L") == pytest.approx(
            0.066 * (1 - 0.007), rel=1e-6)


class TestReadStage:
    def test_single_phonon_readout_probability(self):
        # loss exp(-tau/T1) then sin^2 = p_r readout; the two overlap
        # windows receive half of the emission probability
        cfg = make_config(T1=2.2e-6)
        circuit = protocol._FockCircuit(n_max=2, total_cap=2)
        circuit.add_mode("m_E")
        circuit.add_mode("m_L")
        rho = np.zeros((circuit.state.basis.dim, circuit.state.basis.dim), complex)
        i = index(circuit.state.basis)[(1, 0)]
        rho[i, i] = 1.0
        circuit.state.rho = entries(rho)
        groups = read_stage(circuit, cfg, 0.0)
        all_modes = sorted({m for modes in groups.values() for m in modes})
        survival = math.exp(-126e-9 / 2.2e-6)
        emitted = 0.007 * survival
        got = 1.0 - circuit.click_distribution({"r": all_modes}, None).prob(r=False)
        assert emitted == pytest.approx(6.61e-3, abs=1e-5)
        assert got == pytest.approx(0.5 * emitted, rel=1e-9)

    def test_read_modes_stay_vacuum_without_scattering(self):
        cfg = make_config(p_w=0.0, p_r=0.0)
        circuit = protocol._GaussianCircuit()
        protocol.run_write_stage(circuit, cfg, 0.0)
        groups = read_stage(circuit, cfg, 0.0)
        dist = circuit.click_distribution(groups, None)
        assert dist.prob(**{"read-overlap:1": False, "read-overlap:2": False}) == \
            pytest.approx(1.0, abs=1e-12)

    def test_thermal_only_read_flux(self):
        # phonon occupancy n seen by each read gives anti-Stokes flux p_r * n;
        # half of it reaches the overlap-window modes counted here
        noise = clean_noise(thermal_schedule=tuple(
            zip(ROLES, (0.0, 0.066, 0.066, 0.066))))
        cfg = make_config(p_w=0.0, noise=noise)
        circuit = protocol._GaussianCircuit()
        protocol.run_write_stage(circuit, cfg, 0.0)
        read_stage(circuit, cfg, 0.0)
        flux = (circuit.mean_occupation("o_rE") + circuit.mean_occupation("r:mis")
                + circuit.mean_occupation("o_rL") + circuit.mean_occupation("r:mis2"))
        assert flux == pytest.approx(0.007 * 0.066, rel=1e-9)

    # NumPy 0-d values, as an unbatched state's occupancy is one; then one
    # per herald branch of a Fock batch, one of them not finite
    @pytest.mark.parametrize("occupation", [np.array(v) for v in (math.nan, math.inf, -math.inf)]
                             + [np.array([0.1, math.nan, 0.2]), np.array([0.1, 0.2, math.inf])])
    def test_occupancy_not_one_finite_value_raises(self, monkeypatch, occupation):
        # a NaN occupancy makes the top-up condition false, so unless caught
        # it would skip the thermal top-up without a word
        cfg = make_config()
        circuit = protocol._GaussianCircuit()
        protocol.run_write_stage(circuit, cfg, 0.0)
        monkeypatch.setattr(circuit, "mean_occupation", lambda mode: occupation)
        with pytest.raises(protocol.ProtocolError, match="occupancy of m_E is not finite"):
            read_stage(circuit, cfg, 0.0)


class TestInterferometer:
    def test_single_photon_window_split(self):
        # one photon in the early bin: 1/4 per overlap detector (the other
        # half leaves through the early-direct slot)
        circuit = protocol._FockCircuit(n_max=2, total_cap=2)
        circuit.add_mode("early")
        circuit.add_mode("late")
        rho = np.zeros((circuit.state.basis.dim, circuit.state.basis.dim), complex)
        i = index(circuit.state.basis)[(1, 0)]
        rho[i, i] = 1.0
        circuit.state.rho = entries(rho)
        groups = protocol.apply_interferometer(circuit, "write", "early", "late", 0.0, 1.0)
        dist = circuit.click_distribution(groups, None)
        assert dist.prob(**{"write-overlap:1": True}) == pytest.approx(0.25, abs=1e-12)
        assert dist.prob(**{"write-overlap:2": True}) == pytest.approx(0.25, abs=1e-12)

    def test_zero_visibility_is_phase_independent(self):
        cfg = make_config(noise=clean_noise(interferometer_visibility=0.0))
        ref = protocol.exact_joint_distribution(cfg, 0.7, 0.2)
        for phi in (0.0, 1.1, 2.9):
            dist = protocol.exact_joint_distribution(cfg, phi, 0.2)
            assert dist.probabilities == pytest.approx(ref.probabilities, abs=1e-12)

    def test_phase_only_dependence_through_big_phi(self):
        # noiseless overlap statistics depend only on phi_w + phi_r - 2 phi_off
        combos = [(0.9, 0.3, 0.0), (0.0, 1.2, 0.0), (1.8, 0.3, 0.45)]
        dists = []
        for phi_w, phi_r, phi_off in combos:
            cfg = make_config(phi_off=phi_off)
            dists.append(protocol.exact_joint_distribution(cfg, phi_w, phi_r))
        for dist in dists[1:]:
            assert dist.probabilities == pytest.approx(dists[0].probabilities, abs=1e-12)

    @pytest.mark.parametrize("engine", ["gaussian", "fock"])
    def test_open_arms_see_no_phase_or_jitter(self, engine):
        cfg = engine_config("cross_correlation", engine)
        want = protocol.exact_joint_distribution(cfg, 0.0, 0.0)
        assert (want.truncation is None) == (engine == "gaussian")
        shifted = dataclasses.replace(cfg, phases=PhaseSettings(phi_off=1.3))
        for config in (cfg, shifted):
            got = protocol.exact_joint_distribution(
                config, np.array([0.0, 0.7, 2.9]), -1.1, 0.25, np.array([0.0, -0.4, 0.2]))
            alone = protocol.exact_joint_distribution(config, 1.7, 0.4, -0.3, 0.5)
            assert got.probabilities.shape == (3, 256)
            assert all(np.array_equal(row, want.probabilities)
                       for row in [*got.probabilities, alone.probabilities])
            assert got.truncation == alone.truncation == want.truncation


class TestDetect:
    def test_perfect_chain_vacuum_silent(self):
        cfg = make_config(p_w=0.0, p_r=0.0)
        dist = protocol.exact_joint_distribution(cfg, 0.0, 0.0)
        assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-12)  # all quiet

    def test_leakage_rate(self):
        # 2.6e-6 leakage per read pulse on detector 2: ~26 expected clicks
        # in 1e7 trials
        noise = clean_noise(leakage_prob={"write": (0.0, 0.0), "read": (0.0, 2.6e-6)})
        cfg = make_config(p_w=0.0, p_r=0.0, noise=noise)
        dist = protocol.exact_joint_distribution(cfg, 0.0, 0.0)
        p = dist.prob(**{"read-overlap:2": True})
        assert p * 1e7 == pytest.approx(26.0, rel=1e-6)

    def test_saturating_dark_counts(self):
        noise = clean_noise(dark_count_prob=1.0)
        cfg = make_config(p_w=0.0, p_r=0.0, noise=noise)
        dist = protocol.exact_joint_distribution(cfg, 0.0, 0.0)
        assert dist.probabilities[-1] == pytest.approx(1.0, abs=1e-12)  # all click


class TestRunExperiment:
    def test_noiseless_fringe(self):
        cfg = make_config(phi_off=0.2)
        for phi in (0.4, 1.7, 3.0):
            dist = protocol.exact_joint_distribution(cfg, phi, 0.0)
            e = analysis.correlation_E(analysis.overlap_table(dist)).value
            assert e == pytest.approx(math.cos(phi - 0.4), abs=2.5 * 0.002 + 1e-6)

    def test_no_writes_no_heralds(self):
        cfg = make_config(p_w=0.0)
        dist = protocol.exact_joint_distribution(cfg, 0.0, 0.0)
        table = analysis.overlap_table(dist)
        assert table.total_coincidences == 0.0
        assert sum(table.write_singles.values()) == 0.0

    def test_bell_kind_iterates_four_settings(self):
        cfg = make_config(kind=ExperimentKind.BELL_TEST, phi_off=0.1)
        run = protocol.run_experiment(cfg)
        assert len(run.settings) == 4
        expected = cfg.phases.chsh_settings()
        got = [(s.phi_w, s.phi_r) for s in run.settings]
        assert got == list(expected)

    def test_herald_symmetry_with_symmetric_chain(self):
        cfg = make_config(p_w=0.002)
        dist = protocol.exact_joint_distribution(cfg, 0.8, 0.0)
        p1 = dist.prob(**{"write-overlap:1": True, "write-overlap:2": False})
        p2 = dist.prob(**{"write-overlap:2": True, "write-overlap:1": False})
        assert p1 == pytest.approx(p2, rel=1e-10)

    def test_herald_detectors_asymmetric_with_filters(self):
        noise = clean_noise(filter_pulse_efficiency=(0.39, 0.65))
        cfg = make_config(noise=noise)
        dist = protocol.exact_joint_distribution(cfg, 0.8, 0.0)
        p1 = dist.prob(**{"write-overlap:1": True, "write-overlap:2": False})
        p2 = dist.prob(**{"write-overlap:2": True, "write-overlap:1": False})
        assert p2 > p1

    def test_exact_vs_sampled_three_sigma(self):
        cfg = make_config(trials=1_000_000, seed=42)
        run = protocol.run_experiment(cfg)
        sr = run.settings[0]
        p = sr.distribution.probabilities
        sigma = np.sqrt(np.maximum(cfg.trials * p * (1 - p), 1.0))
        assert np.all(np.abs(sr.counts - cfg.trials * p) <= 5.0 * sigma)

    def test_determinism_per_seed(self):
        cfg = make_config(trials=100_000, seed=7, record_trials=50)
        a = protocol.run_experiment(cfg)
        b = protocol.run_experiment(cfg)
        assert np.array_equal(a.settings[0].counts, b.settings[0].counts)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.settings[0].records, b.settings[0].records))
        c = protocol.run_experiment(make_config(trials=100_000, seed=8))
        assert not np.array_equal(c.settings[0].counts, a.settings[0].counts)

    def test_record_stream(self):
        noise = clean_noise(write_phase_jitter_fwhm=math.pi / 7,
                            read_phase_jitter_fwhm=math.pi / 20)
        cfg = make_config(noise=noise, trials=200, record_trials=200, seed=3)
        run = protocol.run_experiment(cfg)
        (sr,) = run.settings
        codes, jitter_w, jitter_r = sr.records
        assert len(codes) == len(jitter_w) == len(jitter_r) == 200
        assert np.any(jitter_w != 0.0)
        n = len(sr.distribution.labels)
        assert np.all((codes >= 0) & (codes < 1 << n))
        for b, ch in enumerate(sr.distribution.labels):
            if np.any(codes >> (n - 1 - b) & 1):
                window, det = ch.rsplit(":", 1)
                assert det in ("1", "2")
                assert window in ("write-overlap", "read-overlap")

    def test_scan_matches_each_setting_alone(self):
        noise = clean_noise(write_phase_jitter_fwhm=math.pi / 7)
        cfg = make_config(noise=noise, trials=1_000_000, seed=11)
        scan = [(0.3, 0.0), (1.2, 0.5), (2.9, 1.6)]
        batched = protocol.run_settings(cfg, scan, first_idx=4)
        for i, ((phi_w, phi_r), sr) in enumerate(zip(scan, batched)):
            alone = protocol.run_settings(cfg, [(phi_w, phi_r)], first_idx=4 + i)[0]
            assert (sr.phi_w, sr.phi_r) == (phi_w, phi_r)
            assert sr.distribution.probabilities == pytest.approx(
                alone.distribution.probabilities, abs=1e-12)
            assert np.array_equal(sr.counts, alone.counts)

    def test_each_setting_draws_its_counts_once(self, monkeypatch):
        calls = []
        draw = OutcomeDistribution.sample_counts

        def counted(dist, trials, rng):
            calls.append(trials)
            return draw(dist, trials, rng)

        monkeypatch.setattr(OutcomeDistribution, "sample_counts", counted)
        cfg = make_config(trials=40_000_000_000, seed=5)
        results = protocol.run_settings(cfg, [(0.3, 0.0), (1.2, 0.5), (2.9, 1.6)])
        assert calls == [40_000_000_000] * 3
        assert all(sr.counts.sum() == sr.trials == 40_000_000_000 for sr in results)

    def test_fock_batch_matches_each_element_alone(self):
        noise = clean_noise(thermal_schedule=tuple(zip(ROLES, (0.02, 0.04, 0.06, 0.09))),
                            interferometer_visibility=0.94, dark_count_prob=1e-6)
        cfg = make_config(noise=noise, T1=2.2e-6, retrieval=0.8,
                          engine=EngineSpec("fock", truncation=3, total_cap=4))
        phi_w, phi_r = np.array([0.0, 0.7, 2.9]), np.array([0.3, 0.3, -1.1])
        jitter_w, jitter_r = np.array([0.0, 0.25, -0.4]), np.array([0.1, 0.0, 0.2])
        batch = protocol.exact_joint_distribution(cfg, phi_w, phi_r, jitter_w, jitter_r)
        assert batch.probabilities.shape == (3, 16)
        figures = []
        for b in range(3):
            alone = protocol.exact_joint_distribution(cfg, phi_w[b], phi_r[b],
                                                      jitter_w[b], jitter_r[b])
            assert alone.labels == batch.labels
            assert alone.probabilities.shape == (16,)
            assert batch.probabilities[b] == pytest.approx(alone.probabilities, abs=1e-12)
            figures.append(alone.truncation)
        assert batch.truncation == pytest.approx(np.max(figures, axis=0), abs=1e-15)

    def test_thermal_g2_kind_rejected(self):
        cfg = make_config()
        object.__setattr__(cfg, "kind", ExperimentKind.THERMAL_G2_TAU)
        with pytest.raises(protocol.ProtocolError):
            protocol.run_experiment(cfg)


def reference_records(config, phi_w, phi_r, setting_idx, n_trials):
    """The records of one setting drawn call by call from its one
    (seed, 1_000_000 + setting) generator: every trial's jitters through
    ``sample_phase_jitter``, then every trial's pattern through
    ``Generator.choice``, with a dict cache of distributions.  Returns the
    records as (codes, jitter_w, jitter_r) arrays and the cache.  Each
    distribution is computed fresh (the prefix memo emptied first), so a
    fault in the memo's key cannot reach both sides."""
    noise = config.noise
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(1_000_000 + setting_idx,)))
    jitters = [(float(sample_phase_jitter(rng, noise.write_phase_jitter_fwhm)),
                float(sample_phase_jitter(rng, noise.read_phase_jitter_fwhm)))
               for _ in range(n_trials)]
    codes = []
    cache = {}
    quantize = 64
    scale = protocol._jitter_scale(noise)
    for jw, jr in jitters:
        delta = jw + jr
        if scale > 0:
            key = round(delta / (8.0 * scale) * quantize) / quantize * 8.0 * scale
        else:
            key = 0.0
        dist = cache.get(key)
        if dist is None:
            protocol._prefix_memo = (None, None)
            dist = protocol.exact_joint_distribution(config, phi_w, phi_r, jitter_w=key)
            cache[key] = dist
        pvec = np.clip(dist.probabilities, 0, None)
        codes.append(int(rng.choice(len(pvec), p=pvec / pvec.sum())))
    jitter_w, jitter_r = np.array(jitters).T
    return (np.array(codes, dtype=np.int64), jitter_w, jitter_r), cache


def noisy(write_fwhm, read_fwhm):
    # frequent clicks and background, so the records visit many patterns
    return clean_noise(write_phase_jitter_fwhm=write_fwhm, read_phase_jitter_fwhm=read_fwhm,
                       thermal_schedule=tuple(zip(ROLES, (0.02, 0.04, 0.06, 0.09))),
                       interferometer_visibility=0.94, dark_count_prob=0.02)


class TestRecordSampler:
    @pytest.mark.parametrize("kind, write_fwhm, read_fwhm, engine, trials", [
        (ExperimentKind.TIME_BIN_ENTANGLEMENT, math.pi / 7, math.pi / 20, "gaussian", 600),
        (ExperimentKind.BELL_TEST, math.pi / 7, 0.0, "gaussian", 600),
        (ExperimentKind.TIME_BIN_ENTANGLEMENT, 0.0, 0.0, "gaussian", 600),
        (ExperimentKind.DOUBLE_CROSS_CORRELATION, math.pi / 7, math.pi / 20, "gaussian", 120),
        (ExperimentKind.TIME_BIN_ENTANGLEMENT, math.pi / 7, math.pi / 20, "fock", 4),
        # read jitter only: the one normal drawn lands in the read column
        (ExperimentKind.TIME_BIN_ENTANGLEMENT, 0.0, math.pi / 20, "gaussian", 600),
    ])
    def test_matches_one_generator_per_trial(self, kind, write_fwhm, read_fwhm, engine,
                                             trials, monkeypatch):
        cfg = make_config(kind=kind, p_w=0.04, p_r=0.04, noise=noisy(write_fwhm, read_fwhm),
                          seed=20220812, engine=EngineSpec(engine, truncation=2, total_cap=4))
        # the distribution the sampler used for each jitter key: a wrong one
        # moves few records, so compare the distributions themselves too
        used, exact = {}, protocol.exact_joint_distribution

        def recorded(config, phi_w, phi_r, jitter_w=0.0, **kwargs):
            used[jitter_w] = exact(config, phi_w, phi_r, jitter_w=jitter_w, **kwargs)
            return used[jitter_w]

        monkeypatch.setattr(protocol, "exact_joint_distribution", recorded)
        got, n_keys = protocol._sample_records(cfg, 0.9, 0.4, 2, trials)
        monkeypatch.undo()
        want, want_dists = reference_records(cfg, 0.9, 0.4, 2, trials)
        assert all(np.array_equal(g, w) and g.dtype == w.dtype and g.shape == (trials,)
                   for g, w in zip(got, want))
        assert n_keys == len(want_dists)
        assert sorted(used) == sorted(want_dists)
        assert all(np.array_equal(used[key].probabilities, dist.probabilities)
                   for key, dist in want_dists.items())
        assert [column.dtype for column in got] == [np.int64, np.float64, np.float64]
        if write_fwhm == read_fwhm == 0.0:
            assert n_keys == 1
        if engine == "gaussian":
            assert len(np.unique(got[0])) > 4

    def test_records_follow_the_exact_law(self, monkeypatch):
        # each jitter column is N(0, sigma) of its own FWHM, and the pattern
        # counts fit the sum over trials of the distribution the sampler used
        # for each trial's jitter key
        write_fwhm, read_fwhm, n = math.pi / 7, math.pi / 20, 20_000
        cfg = make_config(p_w=0.04, p_r=0.04, noise=noisy(write_fwhm, read_fwhm), seed=3)
        used, exact = {}, protocol.exact_joint_distribution

        def recorded(config, phi_w, phi_r, jitter_w=0.0):
            used[jitter_w] = exact(config, phi_w, phi_r, jitter_w=jitter_w)
            return used[jitter_w]

        monkeypatch.setattr(protocol, "exact_joint_distribution", recorded)
        (codes, jw, jr), _ = protocol._sample_records(cfg, 0.9, 0.4, 0, n)
        monkeypatch.undo()
        for column, fwhm in ((jw, write_fwhm), (jr, read_fwhm)):
            sigma = fwhm_to_sigma(fwhm)
            assert abs(column.mean()) < 4.0 * sigma / math.sqrt(n)
            assert abs(column.std(ddof=1) - sigma) < 4.0 * sigma / math.sqrt(2.0 * (n - 1))
        # each trial's key is the computed grid point nearest its jitter sum
        keys = np.array(sorted(used))
        nearest = np.abs((jw + jr)[:, None] - keys).argmin(axis=1)
        p = np.array([np.clip(used[k].probabilities, 0, None) for k in keys])
        expected = (p / p.sum(axis=1, keepdims=True))[nearest].sum(axis=0)
        labels = used[keys[0]].labels
        observed = np.bincount(codes, minlength=1 << len(labels))
        # patterns expected fewer than 5 times are pooled into one bin
        rare = expected < 5.0
        if rare.any():
            observed = np.append(observed[~rare], observed[rare].sum())
            expected = np.append(expected[~rare], expected[rare].sum())
        stat = ((observed - expected) ** 2 / expected).sum()
        assert stat < chi2.isf(1e-4, len(expected) - 1)

    def test_run_reports_keys_per_setting(self):
        cfg = make_config(kind=ExperimentKind.BELL_TEST, noise=noisy(math.pi / 7, 0.0),
                          trials=100, record_trials=150)
        run = protocol.run_experiment(cfg)
        meta = run.record_figures
        assert meta["count"] == sum(len(sr.records[0]) for sr in run.settings) == 4 * 100
        assert len(meta["distinct_jitter_keys"]) == 4
        assert meta["jitter_step_rad"] == 8.0 * protocol._jitter_scale(cfg.noise) / 64


def final_circuit(config, phi_w, phi_r, jitter_w):
    """The unstaged Gaussian circuit of one setting and write jitter, each
    stage at its own relative phase (write phi_w - phi_off - jitter_w, read
    phi_r - phi_off), with its detector map and efficiencies; phi_r may be
    a (B,) array, which the read interferometer alone takes."""
    circuit = protocol._GaussianCircuit()
    off = config.phases.phi_off
    groups = protocol.run_write_stage(circuit, config, phi_w - off - jitter_w)
    groups.update(read_stage(circuit, config, np.subtract(phi_r, off)))
    ordered = {ch: groups[ch] for ch in protocol._analysis_channels(config.kind)}
    return circuit, ordered, protocol._efficiency_map(ordered, config.noise)


def open_arm_records(monkeypatch, engine, passes):
    """A cross-correlation record run with many jitter keys makes one read
    pass, one entry of ``passes`` each, and its records equal, bit for bit,
    a run that empties the prefix memo before each key's distribution."""
    cfg = make_config(kind=ExperimentKind.DOUBLE_CROSS_CORRELATION, p_w=0.04, p_r=0.04,
                      noise=noisy(math.pi / 7, math.pi / 20), seed=20220812,
                      engine=EngineSpec(engine, truncation=2, total_cap=4))
    got, n_keys = protocol._sample_records(cfg, 0.9, 0.4, 2, 120)
    assert n_keys > 1
    assert len(passes) == 1
    exact = protocol.exact_joint_distribution

    def fresh(*args, **kwargs):
        protocol._prefix_memo = (None, None)
        return exact(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(protocol, "exact_joint_distribution", fresh)
        want, want_keys = protocol._sample_records(cfg, 0.9, 0.4, 2, 120)
    assert want_keys == n_keys
    assert len(passes) == 1 + n_keys
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestClickMemo:
    """The click read-out keeps no memo of its own: the open arms' prefix
    holds their finished distribution, and every other read-out makes its
    own click transform."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        """Start from an empty prefix memo and count the engine's click
        transforms."""
        monkeypatch.setattr(protocol, "_prefix_memo", (None, None))
        calls = []
        transform = gaussian.click_probabilities

        @functools.wraps(transform)
        def counted(*args, **kwargs):
            calls.append(args[0].sigma.shape)
            return transform(*args, **kwargs)

        monkeypatch.setattr(gaussian, "click_probabilities", counted)
        return calls

    def test_open_arm_records_take_one_transform(self, engine_calls, monkeypatch):
        open_arm_records(monkeypatch, "gaussian", engine_calls)

    @pytest.mark.parametrize("batch", [False, True])
    def test_a_hit_is_a_fresh_copy(self, engine_calls, batch):
        cfg = engine_config("cross_correlation", "gaussian")
        phi_r = np.array([0.3, 1.1]) if batch else 0.3
        first = protocol.exact_joint_distribution(cfg, 0.0, phi_r)
        want = first.probabilities.copy()
        assert want.shape == ((2, 256) if batch else (256,))
        first.probabilities[...] = 0.0
        again = protocol.exact_joint_distribution(cfg, 0.0, phi_r, 0.4)
        assert len(engine_calls) == 1
        assert np.array_equal(again.probabilities, want)

    def test_each_jitter_of_a_closed_interferometer_is_computed(self, engine_calls):
        cfg = make_config(noise=noisy(math.pi / 7, math.pi / 20))
        transform = gaussian.click_probabilities.__wrapped__
        for jitter in (0.0, 0.25):
            circuit, ordered, eff = final_circuit(cfg, 0.9, 0.4, jitter)
            got = circuit.click_distribution(ordered, eff)
            direct = transform(circuit.state, ordered, eff)
            assert got.labels == direct.labels
            assert np.array_equal(got.probabilities, direct.probabilities)
        assert len(engine_calls) == 2

    def test_an_invalid_state_raises_every_time(self, engine_calls):
        circuit = protocol._GaussianCircuit()
        detectors = {"da": ["a"], "db": ["b"]}
        # below the vacuum noise: no physical state, so a negative pattern mass
        circuit.state = gaussian.CovarianceState(["a", "b"], 0.1 * np.eye(4))
        for _ in range(2):
            with pytest.raises(gaussian.GaussianEngineError):
                circuit.click_distribution(detectors, None)
        assert len(engine_calls) == 2


ENGINES = ["gaussian", "fock"]


def engine_config(name, engine):
    return with_overrides(load_config(CONFIGS / f"{name}.yaml"), {"engine.name": engine})


class TestPrefix:
    """On either engine, the write stage and the read stage up to its
    interferometer are built once per (config, THERMAL_NOISE_EPSILON,
    FOCK_PROTOCOL_CAP) and shared by every call after."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Start from an empty memo and record each prefix build's config."""
        monkeypatch.setattr(protocol, "_prefix_memo", (None, None))
        seen = []
        write_stage = protocol.run_write_stage

        def counted(circuit, config, *args, **kwargs):
            seen.append(config)
            return write_stage(circuit, config, *args, **kwargs)

        monkeypatch.setattr(protocol, "run_write_stage", counted)
        return seen

    @staticmethod
    def fresh(config, *args, **kwargs):
        protocol._prefix_memo = (None, None)
        return protocol.exact_joint_distribution(config, *args, **kwargs).probabilities

    @staticmethod
    def memo_arrays():
        """Every array the memoised prefix holds."""
        prefix = protocol._prefix_memo[1]
        assert isinstance(prefix, OutcomeDistribution)
        return [prefix.probabilities]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_scan_builds_one_prefix(self, builds, engine):
        # on the Fock engine, one write stage instead of one per quadrature node
        cfg = engine_config("bell_test", engine)
        phi_w, phi_r = (np.array(v) for v in zip(*cfg.phases.chsh_settings()))
        protocol.jitter_averaged_distribution(cfg, phi_w, phi_r)
        protocol.exact_joint_distribution(cfg, 0.3, 0.1, 0.2)
        assert builds == [cfg]
        assert not any(a.flags.writeable for a in self.memo_arrays())

    def test_a_gaussian_scan_runs_the_read_interferometer_once(self, builds, monkeypatch):
        # in the prefix, at the interpolant's nodes: no quadrature node runs a gate
        phases = []
        stage = protocol._stage_interferometer

        def spy(circuit, config, which, phi):
            if which == "read":
                phases.append(phi)
            return stage(circuit, config, which, phi)

        monkeypatch.setattr(protocol, "_stage_interferometer", spy)
        cfg = engine_config("bell_test", "gaussian")
        phi_w, phi_r = (np.array(v) for v in zip(*cfg.phases.chsh_settings()))
        protocol.jitter_averaged_distribution(cfg, phi_w, phi_r)
        assert builds == [cfg]
        assert len(phases) == 1
        assert np.array_equal(phases[0], 2.0 * np.pi * np.arange(5) / 5)

    @pytest.mark.parametrize("run", ["scan", "jitter_average", "records"])
    def test_a_fock_scan_runs_the_read_interferometer_once(self, builds, monkeypatch, run):
        # the herald branches are one batch: one read prefix on all four, and
        # one read interferometer, at Phi = 0, on their four coherence blocks
        prefixes, reads = [], []
        read_prefix, stage = protocol._read_prefix, protocol._stage_interferometer
        monkeypatch.setattr(protocol, "_read_prefix", lambda circuit, config: prefixes.append(
            circuit.state.basis.batch) or read_prefix(circuit, config))

        def spy(circuit, config, which, phi):
            if which == "read":
                reads.append((phi, circuit.state.basis.batch))
            return stage(circuit, config, which, phi)

        monkeypatch.setattr(protocol, "_stage_interferometer", spy)
        cfg, settings = bell_scan()
        phi_w, phi_r = (np.array(v) for v in zip(*settings))
        if run == "scan":
            protocol.exact_joint_distribution(cfg, phi_w, phi_r)
        elif run == "jitter_average":
            cfg = fock_config("bell_test")
            protocol.jitter_averaged_distribution(cfg, phi_w, phi_r)
        else:
            cfg = fock_config("bell_test")
            _, n_keys = protocol._sample_records(cfg, 0.3, 0.1, 0, 500)
            assert n_keys > 20
        assert builds == [cfg]
        assert prefixes == [4]
        assert reads == [(0.0, 4 * 4)]

    def test_a_fock_record_run_builds_one_prefix(self, builds):
        cfg = engine_config("bell_test", "fock")
        _, n_keys = protocol._sample_records(cfg, 0.3, 0.1, 0, 100)
        assert n_keys > 1
        assert builds == [cfg]

    def test_a_fock_open_arm_record_run_makes_one_read_pass(self, builds, monkeypatch):
        passes = []
        stage = protocol._stage_interferometer

        def spy(circuit, config, which, phi):
            if which == "read":
                passes.append(phi)
            return stage(circuit, config, which, phi)

        monkeypatch.setattr(protocol, "_stage_interferometer", spy)
        open_arm_records(monkeypatch, "fock", passes)
        assert len(builds) == len(passes)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("overrides", [
        {"noise.coupling_efficiency": 0.3},
        {"noise.thermal_schedule": [["WriteEarly", 0.027], ["WriteLate", 0.038],
                                    ["ReadEarly", 0.2], ["ReadLate", 0.3]]},
    ], ids=["coupling_efficiency", "thermal_schedule"])
    def test_alternating_configs_each_match_a_fresh_run(self, builds, overrides, engine):
        first = engine_config("bell_test", engine)
        second = with_overrides(first, overrides)
        args = (np.array([0.3, 1.2]), 0.4, np.array([0.1, -0.2]))
        want = [self.fresh(cfg, *args) for cfg in (first, second)]
        assert not np.allclose(*want)
        for _ in range(2):
            for cfg, probs in zip((first, second), want):
                assert np.array_equal(protocol.exact_joint_distribution(cfg, *args)
                                      .probabilities, probs)
        assert builds == [first, second] * 3

    @pytest.mark.parametrize("engine", ENGINES)
    def test_an_equal_rebuilt_config_reuses_the_prefix(self, builds, engine):
        cfg = engine_config("timebin_entanglement", engine)
        rebuilt = with_overrides(cfg, {})
        assert rebuilt is not cfg and rebuilt == cfg
        first = protocol.exact_joint_distribution(cfg, 0.3, 0.4)
        prefix = protocol._prefix_memo[1]
        again = protocol.exact_joint_distribution(rebuilt, 0.3, 0.4)
        assert builds == [cfg]
        assert protocol._prefix_memo[1] is prefix
        assert np.array_equal(again.probabilities, first.probabilities)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", ["bell_test", "cross_correlation"])
    def test_repeated_calls_return_identical_arrays(self, builds, name, engine):
        cfg = engine_config(name, engine)
        first = protocol.exact_joint_distribution(cfg, np.array([0.3, 2.0]), 0.4, 0.25)
        want = first.probabilities.copy()
        first.probabilities[...] = 0.0
        again = protocol.exact_joint_distribution(cfg, np.array([0.3, 2.0]), 0.4, 0.25)
        assert np.array_equal(again.probabilities, want)
        assert again.truncation == first.truncation
        assert len(builds) == 1
        for array in self.memo_arrays():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("constant, value, engine", [
        ("THERMAL_NOISE_EPSILON", 0.002, "gaussian"),
        ("THERMAL_NOISE_EPSILON", 0.002, "fock"),
        # bell_test names no total cap, so the Fock engine takes this one
        ("FOCK_PROTOCOL_CAP", 5, "fock"),
    ], ids=["epsilon-gaussian", "epsilon-fock", "cap-fock"])
    def test_the_constants_are_part_of_the_key(self, builds, monkeypatch, constant, value,
                                               engine):
        cfg = engine_config("bell_test", engine)
        before = protocol.exact_joint_distribution(cfg, 0.3, 0.4)
        monkeypatch.setattr(protocol, constant, value)
        after = protocol.exact_joint_distribution(cfg, 0.3, 0.4)
        assert len(builds) == 2
        assert np.array_equal(after.probabilities, self.fresh(cfg, 0.3, 0.4))
        assert not np.array_equal(after.probabilities, before.probabilities)
        assert (after.truncation is None) == (engine == "gaussian")


def with_fock(config):
    return dataclasses.replace(config, engine=EngineSpec("fock", truncation=4, total_cap=6))


class TestCrossEngineProtocol:
    def test_joint_distribution_engines_agree(self):
        noise = clean_noise(
            thermal_schedule=tuple(zip(ROLES, (0.02, 0.04, 0.06, 0.09))),
            interferometer_visibility=0.94,
            detector_efficiency=(0.85, 0.85),
            coupling_efficiency=0.5,
            filter_pulse_efficiency=(0.39, 0.65),
            dark_count_prob=1e-6)
        cfg = make_config(noise=noise, T1=2.2e-6, retrieval=0.8)
        dg = protocol.exact_joint_distribution(cfg, 0.7, 0.3)
        df = protocol.exact_joint_distribution(with_fock(cfg), 0.7, 0.3)
        assert dg.labels == df.labels
        assert df.probabilities == pytest.approx(dg.probabilities, abs=1e-6)

    def test_cross_correlation_engines_agree(self):
        noise = clean_noise(
            thermal_schedule=tuple(zip(ROLES, (0.022, 0.04, 0.066, 0.095))),
            coupling_efficiency=0.5, detector_efficiency=(0.85, 0.85),
            filter_pulse_efficiency=(0.39, 0.65))
        cfg = make_config(kind=ExperimentKind.DOUBLE_CROSS_CORRELATION,
                          noise=noise, T1=2.2e-6, retrieval=0.35)
        dg = protocol.exact_joint_distribution(cfg, 0.0, 0.0)
        df = protocol.exact_joint_distribution(with_fock(cfg), 0.0, 0.0)
        assert df.probabilities == pytest.approx(dg.probabilities, abs=1e-6)


def staged_fock_reference(config, phi_w, phi_r, jitter_w, jitter_r):
    """One setting through the staged Fock pipeline with each stage at its
    own relative phase: the write stage at phi_w - phi_off - jitter_w, its
    photons measured, then the whole read stage at phi_r - phi_off -
    jitter_r on each conditioned mechanical state alone."""
    noise = config.noise
    n_max, cap = config.engine.truncation, config.engine.total_cap or protocol.FOCK_PROTOCOL_CAP
    off = config.phases.phi_off
    circuit = protocol._FockCircuit(n_max, cap)
    w_groups = protocol.run_write_stage(circuit, config, phi_w - off - jitter_w)
    channels = protocol._analysis_channels(config.kind)
    w_map = {ch: w_groups[ch] for ch in channels if ch.startswith("write")}
    r_channels = [ch for ch in channels if ch.startswith("read")]
    joint = np.zeros((1 << len(w_map), 1 << len(r_channels)))
    codes, probs, branches = circuit.measure(w_map, protocol._efficiency_map(w_map, noise))
    for b, (w_code, w_prob) in enumerate(zip(codes, probs)):
        read = protocol._FockCircuit(n_max, cap)
        read.state = element(branches, b)
        r_groups = read_stage(read, config, phi_r - off - jitter_r)
        r_map = {ch: r_groups[ch] for ch in r_channels}
        joint[w_code] = w_prob * read.click_distribution(
            r_map, protocol._efficiency_map(r_map, noise)).probabilities
    joint = joint.ravel()
    return protocol.detect(OutcomeDistribution(channels, joint / joint.sum()), noise)


def fock_config(name):
    return engine_config(name, "fock")


class TestFockScan:
    """A Fock scan runs the write stage once and the read prefix once, on
    the batch of herald branches; the phases and jitters act through their
    sums on the read arm."""

    @pytest.mark.parametrize("config, settings, jitters", [
        # the CHSH settings without jitter, then one with a write jitter
        (lambda: fock_config("bell_test"),
         lambda c: [*c.phases.chsh_settings(), c.phases.chsh_settings()[1]],
         [(0.0, 0.0)] * 4 + [(0.31, -0.12)]),
        (lambda: fock_config("timebin_entanglement"),
         lambda c: c.phase_sweep[::4], [(0.0, 0.0)] * 3),
        (oracles.ideal_limit_config,
         lambda c: [(0.0, 0.3), (1.9, 0.3), (0.1, 0.3), (4.4, -0.8)],
         [(0.0, 0.0), (0.0, 0.0), (0.2, 0.0), (-0.5, 0.7)]),
        # the open interferometer of the cross-correlation kind, 8 channels
        (lambda: fock_config("cross_correlation"),
         lambda c: [(0.0, 0.0), (0.7, 0.2)], [(0.0, 0.0), (0.3, -0.1)]),
    ], ids=["bell_test", "timebin_entanglement", "ideal_limit", "cross_correlation"])
    def test_matches_the_per_setting_staged_pipeline(self, config, settings, jitters):
        cfg = config()
        scan = settings(cfg)
        assert len(scan) == len(jitters)
        phi_w, phi_r = (np.array(v) for v in zip(*scan))
        jitter_w, jitter_r = (np.array(v) for v in zip(*jitters))
        got = protocol.exact_joint_distribution(cfg, phi_w, phi_r, jitter_w, jitter_r)
        for b, ((w, r), (jw, jr)) in enumerate(zip(scan, jitters)):
            want = staged_fock_reference(cfg, w, r, jw, jr)
            assert got.labels == want.labels
            assert got.probabilities[b] == pytest.approx(want.probabilities, abs=1e-12)

    @pytest.mark.parametrize("name", ["bell_test", "cross_correlation"])
    def test_the_read_interferometer_sees_only_the_read_photons(self, monkeypatch, name):
        modes = []
        stage = protocol._stage_interferometer

        def spy(circuit, config, which, phi):
            modes.append((which, circuit.state.modes))
            return stage(circuit, config, which, phi)

        monkeypatch.setattr(protocol, "_stage_interferometer", spy)
        # from an empty memo: the read interferometer runs in the prefix build
        monkeypatch.setattr(protocol, "_prefix_memo", (None, None))
        protocol.exact_joint_distribution(fock_config(name), np.zeros(3), 0.0)
        reads = [m for which, m in modes if which == "read"]
        assert reads and set(reads) == {("o_rE", "o_rL")}


def bell_scan():
    cfg = with_overrides(fock_config("bell_test"), {"noise.write_phase_jitter_fwhm": 0,
                                                    "noise.read_phase_jitter_fwhm": 0})
    return cfg, cfg.phases.chsh_settings()


def fringe_scan():
    phis = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    return (oracles.ideal_limit_config(phi_off=0.2),
            [(phi, 0.3) for phi in phis] + [(0.1, 0.3)])


class TestFockBlocks:
    """A Fock prefix reads out its traced branch batch as coherence blocks:
    block k holds the entries with |n_rL(row) - n_rL(col)| = k, each entry
    once, and the blocks are one block-diagonal batch."""

    @pytest.mark.parametrize("scan, blocks", [
        # the Bell step's four branches reach K = 3, the fringe oracle's
        # three, capped at two quanta, K = 1
        (bell_scan, 4), (fringe_scan, 2),
    ], ids=["bell_test", "fringe"])
    def test_blocks_follow_the_prefix_entries(self, monkeypatch, scan, blocks):
        monkeypatch.setattr(protocol, "_prefix_memo", (None, None))
        tiles = []
        tile = fock.tile
        monkeypatch.setattr(fock, "tile", lambda state, batch, copy=None: tiles.append(
            (state, batch, copy)) or tile(state, batch, copy))
        cfg, settings = scan()
        phi_w, phi_r = (np.array(v) for v in zip(*settings))
        protocol.exact_joint_distribution(cfg, phi_w, phi_r)
        [(state, batch, copy)] = tiles
        n_rL = state.basis.occs[:, state.mode_index("o_rL")]
        assert np.array_equal(copy, np.abs(n_rL[state.rho.rows] - n_rL[state.rho.cols]))
        assert batch == copy.max() + 1 == blocks
        assert len(protocol._prefix_memo[1].probabilities) == 2 * blocks - 1


def strong_config(truncation, write_fwhm=0.0, read_fwhm=0.0):
    """A Fock config of frequent pairs, p_w = p_r = 0.3: every harmonic of
    p(Phi) up to K = 3 stands far above round-off, the top one near 1e-7."""
    base = make_config(noise=noisy(write_fwhm, read_fwhm),
                       engine=EngineSpec("fock", truncation=truncation))
    return dataclasses.replace(base, pulses=build_pulse_sequence(
        base.kind, base.waveguide.round_trip_time, 0.3, 0.3, guard=0.5))


class TestFockSeries:
    """The Fock prefix holds p at the 2K + 1 phases of its cosine series in
    Phi, and every read-out, jitter-averaged or not, is read off it."""

    @pytest.mark.parametrize("truncation", [3, 4, 5])
    @pytest.mark.parametrize("name", ["bell_test", "timebin_entanglement", "calibration",
                                      "strong"])
    def test_read_outs_match_the_staged_pipeline_at_random_phases(self, name, truncation):
        cfg = (strong_config(truncation) if name == "strong"
               else with_overrides(fock_config(name), {"engine.truncation": truncation}))
        rng = np.random.default_rng(31 + truncation)
        phi_w, phi_r = rng.uniform(-40.0, 40.0, 4), rng.uniform(-1.0, 1.0, 4)
        # two settings without jitter, two with a jitter sample
        jitter_w = np.r_[0.0, 0.0, rng.normal(0.0, 0.5, 2)]
        jitter_r = np.r_[0.0, 0.0, rng.normal(0.0, 0.3, 2)]
        got = protocol.exact_joint_distribution(cfg, phi_w, phi_r, jitter_w, jitter_r)
        for b in range(4):
            want = staged_fock_reference(cfg, phi_w[b], phi_r[b], jitter_w[b], jitter_r[b])
            assert np.abs(got.probabilities[b] - want.probabilities).max() <= 1e-12

    @pytest.mark.parametrize("truncation", [3, 4, 5])
    def test_the_jitter_average_damps_the_staged_harmonics(self, truncation):
        # p(Phi) has degree K = 3, so 7 staged read-outs at 2 pi j / 7 give
        # its harmonics c_k, and the average scales each by exp(-sigma^2 k^2 / 2)
        cfg = strong_config(truncation, 1.0, 0.6)
        off, sigma = cfg.phases.phi_off, protocol._jitter_scale(cfg.noise)
        nodes = 2.0 * math.pi * np.arange(7) / 7
        staged = np.array([staged_fock_reference(cfg, node + 2.0 * off, 0.0, 0.0, 0.0)
                           .probabilities for node in nodes])
        harmonics = np.fft.rfft(staged, axis=0) / 7
        rng = np.random.default_rng(16)
        phi_w, phi_r = rng.uniform(-40.0, 40.0, 5), rng.uniform(-1.0, 1.0, 5)
        k = np.arange(4)
        terms = np.exp(1j * np.outer(phi_w + phi_r - 2.0 * off, k) - 0.5 * (sigma * k) ** 2)
        want = (terms * np.where(k > 0, 2.0, 1.0)) @ harmonics
        want = want.real / want.real.sum(axis=-1, keepdims=True)
        got = protocol.jitter_averaged_distribution(cfg, phi_w, phi_r).probabilities
        assert np.abs(got - want).max() <= 1e-12

    def test_a_prefix_that_is_not_real_raises(self, monkeypatch):
        # a write-stage phase reaches the herald branches' coherences, so
        # p(Phi) would take sine terms the series does not hold
        monkeypatch.setattr(protocol, "_prefix_memo", (None, None))
        write_stage = protocol.run_write_stage
        monkeypatch.setattr(protocol, "run_write_stage",
                            lambda circuit, config: write_stage(circuit, config, 0.7))
        with pytest.raises(protocol.ProtocolError, match="not real"):
            protocol.exact_joint_distribution(fock_config("bell_test"), 0.3, 0.4)


class TestJitterAveraging:
    def test_quadrature_matches_monte_carlo(self):
        noise = clean_noise(write_phase_jitter_fwhm=math.pi / 7,
                            read_phase_jitter_fwhm=math.pi / 20)
        cfg = make_config(noise=noise, phi_off=0.1)
        avg = protocol.jitter_averaged_distribution(cfg, 0.9, 0.0)
        rng = np.random.default_rng(0)
        sigma = math.hypot((math.pi / 7) / 2.3548, (math.pi / 20) / 2.3548)
        acc = np.zeros_like(avg.probabilities)
        n_mc = 400
        for _ in range(n_mc):
            d = protocol.exact_joint_distribution(cfg, 0.9, 0.0,
                                                  jitter_w=rng.normal(0, sigma))
            acc += d.probabilities / n_mc
        e_avg = analysis.correlation_E(analysis.overlap_table(avg)).value
        e_mc = analysis.correlation_E(analysis.overlap_table(avg, counts=acc)).value
        assert e_avg == pytest.approx(e_mc, abs=5e-3)

    def test_jitter_shrinks_fringe(self):
        base = make_config(phi_off=0.0)
        jit = make_config(noise=clean_noise(write_phase_jitter_fwhm=math.pi / 3),
                          phi_off=0.0)
        e0 = analysis.correlation_E(
            analysis.overlap_table(protocol.jitter_averaged_distribution(base, 0.0, 0.0))).value
        e1 = analysis.correlation_E(
            analysis.overlap_table(protocol.jitter_averaged_distribution(jit, 0.0, 0.0))).value
        sigma = (math.pi / 3) / 2.3548
        assert e1 == pytest.approx(e0 * math.exp(-sigma**2 / 2.0), rel=2e-3)

    @pytest.mark.parametrize("sigma", [0.2, 1.0, 3.0, 5.0, 8.0])
    @pytest.mark.parametrize("engine", ["gaussian", "fock"])
    def test_jitter_average_is_the_wrapped_normal_average(self, engine, sigma):
        # the jitter sum of width sigma, wrapped onto one period as a sum
        # over images, weights p at 64 equispaced offsets: the trapezoid
        # rule, exact for the few harmonics either engine has; at 8 rad the
        # average is the uniform-Phi mean
        fwhm = sigma * 2.0 * math.sqrt(2.0 * math.log(2.0)) / math.pi
        cfg = with_overrides(load_config(str(CONFIGS / "bell_test.yaml")),
                             {"trials": 0, "engine.name": engine,
                              "noise.write_phase_jitter_fwhm": fwhm,
                              "noise.read_phase_jitter_fwhm": 0.0})
        phi_w, phi_r = np.array(protocol._phase_settings(cfg)).T
        got = protocol.jitter_averaged_distribution(cfg, phi_w, phi_r).probabilities
        s = fwhm_to_sigma(cfg.noise.write_phase_jitter_fwhm)
        offsets = 2.0 * math.pi * np.arange(64) / 64
        images = offsets[:, None] + 2.0 * math.pi * np.arange(-20, 21)
        density = np.exp(-0.5 * (images / s) ** 2).sum(axis=1) / (s * math.sqrt(2.0 * math.pi))
        want = sum(2.0 * math.pi / 64 * rho * protocol.exact_joint_distribution(
            cfg, phi_w, phi_r, jitter_w=t).probabilities for t, rho in zip(offsets, density))
        want /= want.sum(axis=-1, keepdims=True)
        assert np.abs(got - want).max() <= 1e-14

    def test_the_average_reads_every_phase_of_the_prefix(self, monkeypatch):
        # at truncation 2 the Fock prefix holds p at 2K + 1 = 5 phases, so
        # 3 base nodes still read 5 and give the series through the 21
        # nodes; 3 nodes would alias harmonic 2, about 1e-13 at the
        # calibration point's scattering probabilities
        cfg = with_overrides(load_config(str(CONFIGS / "calibration.yaml")),
                             {"trials": 0, "engine.name": "fock", "engine.truncation": 2,
                              "noise.write_phase_jitter_fwhm": 0.5})
        phi_w, phi_r = np.array(protocol._phase_settings(cfg)).T
        want = protocol.jitter_averaged_distribution(cfg, phi_w, phi_r).probabilities
        monkeypatch.setattr(protocol, "JITTER_NODES", 3)
        got = protocol.jitter_averaged_distribution(cfg, phi_w, phi_r).probabilities
        assert np.abs(got - want).max() <= 1e-15


class TestSeriesReadOut:
    """The Gaussian read-out is the trigonometric interpolant through the
    prefix's detected distributions at equispaced phases."""

    @pytest.mark.parametrize("size", [5, 9])
    def test_the_weights_are_a_partition_of_unity_at_any_phase(self, size):
        # the interpolant of a constant is that constant, damped or not; a
        # phase a few periods out keeps it only if wrapped before the
        # differences to the nodes are taken
        nodes = 2.0 * math.pi * np.arange(size) / size
        phis = np.random.default_rng(29).uniform(-40.0, 40.0, 200)
        harmonics = np.arange(1, size // 2 + 1)
        for damping in (np.ones(size // 2), np.exp(-0.5 * (0.3 * harmonics) ** 2)):
            weights = protocol._periodic_weights(phis, nodes, damping)
            assert np.abs(weights.sum(axis=-1) - 1.0).max() <= 2e-15

    NODES = 2.0 * math.pi * np.arange(9) / 9

    @classmethod
    def read_out(cls, fringe, phi):
        """The read-out of a two-channel prefix whose pattern 01 takes the
        values ``fringe`` at the prefix's 9 phases."""
        rows = np.stack([0.5 - fringe, fringe, np.full(9, 0.5), np.zeros(9)], axis=-1)
        prefix = OutcomeDistribution(("a", "b"), rows)
        return protocol._read_out(engine_config("bell_test", "gaussian"), prefix, phi)

    def test_round_off_negatives_are_zeroed_and_rows_renormalised(self):
        # a fringe of 1e-12 * cos(Phi) about 0: negative near Phi = pi
        got = self.read_out(1e-12 * np.cos(self.NODES), np.array([0.0, math.pi])).probabilities
        assert got[0, 1] == pytest.approx(1e-12, rel=1e-9)
        assert got[1, 1] == 0.0
        assert got.min() >= 0.0
        assert got.sum(axis=-1) == pytest.approx(1.0, abs=1e-15)
        assert got[1, 0] == pytest.approx((0.5 + 1e-12) / (1.0 + 1e-12), abs=1e-15)

    def test_a_negative_entry_beyond_round_off_raises(self):
        # non-negative samples, one spike of 1e-6: its interpolant, the
        # Dirichlet kernel, reads -2.2e-7 at Phi = pi / 3
        spike = np.where(self.NODES == 0.0, 1e-6, 0.0)
        with pytest.raises(gaussian.GaussianEngineError, match="negative"):
            self.read_out(spike, math.pi / 3)


class TestWitnessClassicalBound:
    def test_separable_source_keeps_r_above_one(self):
        # with zero interferometer visibility the heralded state is a
        # separable thermal mixture: the witness must stay >= 1
        noise = clean_noise(
            thermal_schedule=tuple(zip(ROLES, (0.022, 0.04, 0.066, 0.095))),
            interferometer_visibility=0.0,
            detector_efficiency=(0.85, 0.85), coupling_efficiency=0.5)
        ent = make_config(noise=noise, T1=2.2e-6)
        best = 0.0
        for phi in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            dist = protocol.exact_joint_distribution(ent, phi, 0.0)
            e = analysis.correlation_E(analysis.overlap_table(dist))
            best = max(best, abs(e.value))
        cc = make_config(kind=ExperimentKind.DOUBLE_CROSS_CORRELATION,
                         noise=noise, T1=2.2e-6, retrieval=0.35)
        dist = protocol.exact_joint_distribution(cc, 0.0, 0.0)
        gee = analysis.window_g2(dist, "write-early-direct", "read-early-direct").value
        gll = analysis.window_g2(dist, "write-overlap", "read-overlap").value
        res = analysis.witness_R(best, gee, gll)
        assert res.value >= 1.0

    def test_estimator_exact_matches_sampled_limit(self):
        # estimators on the exact distribution equal the Monte Carlo values
        # within counting error at 1e6 trials, 3 sigma
        noise = clean_noise(thermal_schedule=tuple(zip(ROLES, (0.01, 0.02, 0.03, 0.04))),
                            interferometer_visibility=0.94)
        cfg = make_config(p_w=0.01, p_r=0.02, noise=noise, trials=1_000_000, seed=21)
        run = protocol.run_experiment(cfg)
        sr = run.settings[0]
        exact = analysis.correlation_E(analysis.overlap_table(sr.distribution))
        sampled = analysis.correlation_E(
            analysis.overlap_table(sr.distribution, counts=sr.counts, trials=cfg.trials))
        assert abs(sampled.value - exact.value) <= 3.0 * sampled.sigma


class TestRateBudget:
    def paper_config(self):
        noise = clean_noise(
            thermal_schedule=tuple(zip(ROLES, (0.027, 0.038, 0.055, 0.090))),
            interferometer_visibility=0.94,
            detector_efficiency=(0.85, 0.85),
            dark_count_prob=1e-6,
            leakage_prob={"write": (2e-7, 4e-7), "read": (1.4e-6, 2.6e-6)},
            coupling_efficiency=0.5,
            filter_pulse_efficiency=(0.39, 0.65))
        return make_config(kind=ExperimentKind.BELL_TEST, p_w=0.0013, p_r=0.007,
                           noise=noise, T1=2.2e-6)

    def test_coincidence_rate_scale(self):
        budget = protocol.rate_budget(self.paper_config())
        rate = budget["coincidences_per_hour"]
        assert 30.0 / 3.0 <= rate <= 30.0 * 3.0
        assert budget["assumptions"]

    def test_upper_bound_at_unit_probabilities(self):
        wg = WaveguideParams(T1=math.inf)
        pulses = tuple(
            p for p in build_pulse_sequence(ExperimentKind.BELL_TEST,
                                            wg.round_trip_time, 0.0, 0.0))
        from dataclasses import replace
        pulses = tuple(replace(p, scattering_probability=0.999999,
                               perturbative_guard=1.0) for p in pulses)
        cfg = ExperimentConfig(kind=ExperimentKind.BELL_TEST, waveguide=wg,
                               pulses=pulses, phases=PhaseSettings(),
                               noise=clean_noise(), trials=0, seed=1)
        budget = protocol.rate_budget(cfg)
        rep_per_hour = 3600.0 / cfg.repetition_period
        assert budget["heralds_per_hour"] == pytest.approx(rep_per_hour, rel=1e-5)
        assert budget["coincidences_per_hour"] <= budget["heralds_per_hour"]

    def test_linear_in_write_probability(self):
        b1 = protocol.rate_budget(make_config(p_w=0.001))
        b2 = protocol.rate_budget(make_config(p_w=0.002))
        assert b2["heralds_per_hour"] == pytest.approx(
            2.0 * b1["heralds_per_hour"], rel=1e-12)
