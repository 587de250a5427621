import math
import warnings
from importlib.resources import files

import numpy as np
import pytest
import yaml

from phonon_timebin import core
from phonon_timebin.core import (
    CavityParams,
    ConfigError,
    ExperimentConfig,
    ExperimentKind,
    NoiseModel,
    PhaseSettings,
    PulseRole,
    PulseSpec,
    ValidationError,
    WaveguideParams,
    build_pulse_sequence,
    config_digest,
    config_from_dict,
    config_to_dict,
    load_config,
    sample_phase_jitter,
    save_config,
    scattering_probability_from_energy,
    with_overrides,
)

from dataclasses import replace


def minimal_config_dict(**extra):
    data = {
        "kind": "BellTest",
        "engine": "gaussian",
        "trials": 1000,
        "seed": 7,
        "cavity": {},
        "waveguide": {"round_trip_time": 126e-9, "T1": 2.2e-6},
        "pulses": [
            {"role": "WriteEarly", "center_time": 0.0, "scattering_probability": 0.0013},
            {"role": "WriteLate", "center_time": 63e-9, "scattering_probability": 0.0013},
            {"role": "ReadEarly", "center_time": 126e-9, "scattering_probability": 0.007},
            {"role": "ReadLate", "center_time": 189e-9, "scattering_probability": 0.007},
        ],
        "phases": {"phi_w": 0.0, "phi_r": 0.0, "phi_off": 0.25},
        "noise": {},
    }
    data.update(extra)
    return data


class TestDomainTypes:
    def test_cavity_invariants(self):
        CavityParams()
        with pytest.raises(ValidationError):
            CavityParams(kappa_i=2e9)  # exceeds kappa
        with pytest.raises(ValidationError):
            CavityParams(g0=-1.0)

    def test_waveguide_geometry_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            WaveguideParams(round_trip_time=126e-9, group_velocity=2000.0,
                            length=500e-6, T1=2.2e-6)
        assert any("inconsistent" in str(w.message) for w in caught)

    def test_trial_spacing_warning_only_when_sampled(self):
        from phonon_timebin.oracles import ideal_limit_config
        # "error" overrides the pytest.ini ignore of this warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ideal_limit_config()  # T1 = inf, exact (trials=0)
        assert cfg.trials == cfg.record_trials == 0
        for sampled in ({"trials": 10}, {"trials": 0, "record_trials": 10}):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                replace(cfg, **sampled)
            assert [str(w.message) for w in caught] == [
                "repetition_period below ~7*T1; trials may not be independent"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ExperimentConfig(kind=ExperimentKind.BELL_TEST, repetition_period=2e-6)
        # the warning names the line that built the config
        assert len(caught) == 1 and caught[0].filename == __file__

    def test_waveguide_t1_bound(self):
        with pytest.raises(ValidationError):
            WaveguideParams(round_trip_time=126e-9, T1=50e-9)

    def test_pulse_guard(self):
        pulses = (PulseSpec(role=PulseRole.WRITE_EARLY, center_time=0.0,
                            scattering_probability=0.06),)
        with pytest.raises(ValidationError):
            ExperimentConfig(kind=ExperimentKind.BELL_TEST, pulses=pulses)
        # guard is configurable
        ExperimentConfig(kind=ExperimentKind.BELL_TEST, pulses=pulses, perturbative_guard=0.1)

    def test_phi_0_always_derived(self):
        ph = PhaseSettings(phi_off=0.3)
        assert ph.phi_0 == pytest.approx((2 * 0.3 + math.pi / 2) % (2 * math.pi))
        moved = replace(ph, phi_off=1.1)
        assert moved.phi_0 == pytest.approx((2 * 1.1 + math.pi / 2) % (2 * math.pi))

    def test_noise_invariants(self):
        with pytest.raises(ValidationError, match="out of range"):
            NoiseModel(interferometer_visibility=1.2)
        with pytest.raises(ValidationError, match="out of range"):
            NoiseModel(thermal_schedule=((PulseRole.WRITE_EARLY, -0.1),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            NoiseModel(thermal_schedule=(
                (PulseRole.WRITE_EARLY, 0.05),
                (PulseRole.WRITE_LATE, 0.02),
                (PulseRole.READ_EARLY, 0.06),
                (PulseRole.READ_LATE, 0.09),
            ))
        assert any("non-decreasing" in str(w.message) for w in caught)

    def test_occupancy_seen_by_previous_entry(self):
        noise = NoiseModel()
        assert noise.occupancy_seen_by(PulseRole.WRITE_EARLY) == 0.0
        assert noise.occupancy_seen_by(PulseRole.WRITE_LATE) == noise.occupancy_after(
            PulseRole.WRITE_EARLY)
        assert noise.occupancy_seen_by(PulseRole.READ_LATE) == noise.occupancy_after(
            PulseRole.READ_EARLY)


class TestEnergyCalibration:
    def test_paper_anchor(self):
        p = scattering_probability_from_energy(26e-15, "write")
        assert p == pytest.approx(0.002, abs=1e-4)

    def test_zero_energy(self):
        assert scattering_probability_from_energy(0.0, "write") == 0.0

    def test_interpolated_half_energy(self):
        # least-squares slope through the two write anchors
        es = np.array([15e-15, 26e-15])
        ps = np.array([0.0013, 0.002])
        slope = float(es @ ps / (es @ es))
        p = scattering_probability_from_energy(13e-15, "write")
        assert p == pytest.approx(slope * 13e-15, rel=1e-12)
        assert p == pytest.approx(0.001, abs=5e-5)

    def test_homogeneous_below_clip(self):
        p1 = scattering_probability_from_energy(10e-15, "read")
        p2 = scattering_probability_from_energy(20e-15, "read")
        assert p2 == pytest.approx(2 * p1, rel=1e-12)

    def test_clipping_logged(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = scattering_probability_from_energy(1e-11, "read")
        assert p < 0.05
        assert any("clipped" in str(w.message) for w in caught)

    def test_bad_anchors(self):
        with pytest.raises(ValidationError):
            scattering_probability_from_energy(
                1e-15, "write", anchors={"write": ((0.0, 0.1),)})


class TestPulseSequence:
    def test_bell_centers(self):
        pulses = build_pulse_sequence(ExperimentKind.BELL_TEST, 126e-9)
        centers = {p.role.value: p.center_time for p in pulses}
        assert centers == pytest.approx({
            "WriteEarly": 0.0, "WriteLate": 63e-9,
            "ReadEarly": 126e-9, "ReadLate": 189e-9})
        assert all(p.duration_fwhm == 30e-9 for p in pulses)

    def test_schedule_invariant_exact(self):
        # exact up to one floating-point rounding of the center times
        for tau in (126e-9, 97e-9, 1.3e-6):
            pulses = {p.role: p for p in
                      build_pulse_sequence(ExperimentKind.TIME_BIN_ENTANGLEMENT, tau)}
            assert (pulses[PulseRole.WRITE_LATE].center_time
                    - pulses[PulseRole.WRITE_EARLY].center_time
                    ) == pytest.approx(tau / 2.0, rel=1e-15)
            assert (pulses[PulseRole.READ_LATE].center_time
                    - pulses[PulseRole.READ_EARLY].center_time
                    ) == pytest.approx(tau / 2.0, rel=1e-15)

    def test_continuous_pump_kind(self):
        assert build_pulse_sequence(ExperimentKind.THERMAL_G2_TAU, 126e-9) == ()

    def test_degenerate_tau(self):
        with pytest.raises(ValidationError):
            build_pulse_sequence(ExperimentKind.BELL_TEST, 0.0)


class TestPhaseJitter:
    def test_no_jitter(self):
        rng = np.random.default_rng(0)
        assert sample_phase_jitter(rng, 0.0) == 0.0

    def test_fwhm_recovered(self):
        rng = np.random.default_rng(1)
        samples = sample_phase_jitter(rng, math.pi / 7, size=100_000)
        fwhm = 2 * math.sqrt(2 * math.log(2)) * np.std(samples)
        assert fwhm == pytest.approx(math.pi / 7, rel=0.02)

    def test_sigma_value(self):
        rng = np.random.default_rng(2)
        samples = sample_phase_jitter(rng, math.pi / 20, size=200_000)
        assert np.std(samples) == pytest.approx(0.0667, abs=0.001)

    def test_deterministic_given_state(self):
        a = sample_phase_jitter(np.random.default_rng(3), 0.5, size=10)
        b = sample_phase_jitter(np.random.default_rng(3), 0.5, size=10)
        assert np.array_equal(a, b)


class TestConfigIO:
    def test_minimal_bell_config(self, tmp_path):
        import yaml
        path = tmp_path / "bell.yaml"
        path.write_text(yaml.safe_dump(minimal_config_dict()))
        config = load_config(path)
        assert config.kind is ExperimentKind.BELL_TEST
        assert config.p_w == 0.0013
        assert config.p_r == 0.007
        assert config.phases.phi_off == pytest.approx(0.25 * math.pi)

    def test_zero_interaction_identity_run(self, tmp_path):
        import yaml
        data = minimal_config_dict()
        for p in data["pulses"]:
            p["scattering_probability"] = 0.0
        path = tmp_path / "zero.yaml"
        path.write_text(yaml.safe_dump(data))
        config = load_config(path)
        assert config.p_w == 0.0

    def test_negative_occupancy_rejected(self, tmp_path):
        import yaml
        data = minimal_config_dict()
        data["noise"] = {"thermal_schedule": [["WriteEarly", -0.1]]}
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ValidationError, match="out of range"):
            load_config(path)

    def test_missing_key_context(self, tmp_path):
        import yaml
        data = minimal_config_dict()
        del data["waveguide"]
        path = tmp_path / "missing.yaml"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ConfigError, match="waveguide"):
            load_config(path)

    def test_calibration_anchors_survive_save_and_load(self, tmp_path):
        anchors = {"write": [[15e-15, 0.0026], [26e-15, 0.004]],
                   "read": [[112e-15, 0.014], [225e-15, 0.028]]}
        config = config_from_dict(minimal_config_dict(calibration_anchors=anchors))
        assert config.calibration_anchors == {
            role: tuple(tuple(pair) for pair in table) for role, table in anchors.items()}
        save_config(config, tmp_path / "anchored.yaml")
        loaded = load_config(tmp_path / "anchored.yaml")
        assert loaded.calibration_anchors == config.calibration_anchors
        assert with_overrides(loaded, {"seed": 8}).calibration_anchors == config.calibration_anchors
        assert config_digest(loaded) == config_digest(config)
        # written only when set, so a config without them keeps its digest
        assert "calibration_anchors" not in config_to_dict(config_from_dict(minimal_config_dict()))

    def test_a_role_without_anchors_takes_the_default_ones(self):
        data = minimal_config_dict(calibration_anchors={"write": [[15e-15, 0.0026]]})
        for p in data["pulses"]:
            del p["scattering_probability"]
            p["energy"] = 20e-15
        config = config_from_dict(data)
        assert config.p_w == pytest.approx(0.0026 / 15e-15 * 20e-15, rel=1e-12)
        assert config.p_r == scattering_probability_from_energy(20e-15, "read")
        data["calibration_anchors"] = {"Write": [[15e-15, 0.0026]]}
        with pytest.raises(ConfigError, match="calibration_anchors"):
            config_from_dict(data)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("kind: [unterminated")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)

    def test_file_not_found(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.yaml")

    def test_round_trip_equality(self, tmp_path):
        config = config_from_dict(minimal_config_dict())
        path = tmp_path / "rt.yaml"
        save_config(config, path)
        again = load_config(path)
        assert again == config

    def test_energy_to_probability_in_config(self, tmp_path):
        import yaml
        data = minimal_config_dict()
        for p in data["pulses"]:
            del p["scattering_probability"]
            p["energy"] = 26e-15 if p["role"].startswith("Write") else 112e-15
        path = tmp_path / "energy.yaml"
        path.write_text(yaml.safe_dump(data))
        config = load_config(path)
        assert config.p_w == pytest.approx(0.002, abs=1e-4)
        assert config.p_r == pytest.approx(0.007, abs=2e-4)

    def test_schedule_spacing_enforced(self):
        data = minimal_config_dict()
        data["pulses"][1]["center_time"] = 70e-9
        with pytest.raises(ValidationError, match="tau/2"):
            config_from_dict(data)

    def test_overrides(self):
        config = config_from_dict(minimal_config_dict())
        changed = with_overrides(config, {"noise.dark_count_prob": "2e-7", "seed": 9})
        assert changed.noise.dark_count_prob == 2e-7
        assert changed.seed == 9
        with pytest.raises(ConfigError, match="unknown override"):
            with_overrides(config, {"noise.nonsense": 1})

    def test_override_adds_a_phase_scan(self, tmp_path):
        # the dict form of a config without a scan has no phases.settings;
        # the override sets the scan as the same key in the file would
        path = files("phonon_timebin") / "configs" / "bell_test.yaml"
        config = load_config(str(path))
        assert config.phases.settings is None
        settings = [[0.25, 0.0], [0.5, 0.25]]
        overridden = with_overrides(config, {"phases.settings": str(settings)})
        raw = yaml.safe_load(path.read_text())
        raw["phases"]["settings"] = settings
        scanned = tmp_path / "scan.yaml"
        scanned.write_text(yaml.safe_dump(raw))
        assert overridden == load_config(scanned)
        assert config_digest(overridden) == config_digest(load_config(scanned))
        assert overridden.phases.settings == ((0.25 * math.pi, 0.0), (0.5 * math.pi, 0.25 * math.pi))

    @pytest.mark.parametrize("dotted, value", [("engine.total_cap", 5)])
    def test_override_adds_an_unset_key(self, dotted, value):
        config = config_from_dict(minimal_config_dict())
        data = config_to_dict(config)
        *parents, leaf = dotted.split(".")
        node = data
        for part in parents:
            node = node[part]
        assert leaf not in node
        node[leaf] = value
        assert with_overrides(config, {dotted: str(value)}) == config_from_dict(data)

    def test_reference_configs_ship_valid(self):
        from importlib.resources import files
        for name in ("bell_test", "cross_correlation", "timebin_entanglement",
                     "calibration", "thermal_g2"):
            path = files("phonon_timebin") / "configs" / f"{name}.yaml"
            config = load_config(str(path))
            assert config_to_dict(config)


SHIPPED = ("bell_test", "calibration", "cross_correlation", "thermal_g2",
           "timebin_entanglement")


class TestYamlBackend:
    """Every config read and result write goes through one loader and one
    dumper: libyaml's where PyYAML was built with it, else its Python ones."""

    def test_libyaml_is_chosen_where_present(self):
        assert core.YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        assert core.YAML_DUMPER is getattr(yaml, "CSafeDumper", yaml.SafeDumper)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_configs_read_and_write_alike(self, monkeypatch, name):
        path = files("phonon_timebin") / "configs" / f"{name}.yaml"
        first = load_config(str(path))
        text = core.yaml_dump(config_to_dict(first))
        monkeypatch.setattr(core, "YAML_LOADER", yaml.SafeLoader)
        monkeypatch.setattr(core, "YAML_DUMPER", yaml.SafeDumper)
        again = load_config(str(path))
        assert again == first
        assert core.yaml_dump(config_to_dict(again)) == text


def test_an_absolute_spectrum_file_stays_as_written(tmp_path):
    # a relative one is taken from the config's directory (tests/test_cli.py)
    raw = yaml.safe_load((files("phonon_timebin") / "configs" / "thermal_g2.yaml").read_text())
    spectrum = str(tmp_path / "elsewhere" / "spec.txt")
    raw["extra"]["spectrum_file"] = spectrum
    (tmp_path / "sub").mkdir()
    path = tmp_path / "sub" / "g2.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert load_config(path).extra["spectrum_file"] == spectrum


class TestOutcomeDistribution:
    @pytest.mark.parametrize("batch", [False, True])
    def test_an_entry_below_minus_the_negative_mass_tolerance_raises(self, batch):
        # rows that sum to 1: only the negative entry is wrong
        labels = ("a", "b")
        for low, ok in ((-0.5 * core.NEGATIVE_MASS_TOL, True),
                        (-2.0 * core.NEGATIVE_MASS_TOL, False), (-1e-6, False)):
            p = np.array([0.5 - low, low, 0.25, 0.25])
            p = np.stack([np.full(4, 0.25), p]) if batch else p
            if ok:
                assert np.array_equal(core.OutcomeDistribution(labels, p).probabilities, p)
            else:
                with pytest.raises(ValueError, match="negative pattern probability"):
                    core.OutcomeDistribution(labels, p)
