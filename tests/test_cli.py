import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from phonon_timebin import cli, core, protocol
from phonon_timebin.core import config_from_dict, fwhm_to_sigma, load_config, save_config

CONFIGS = Path(cli.__file__).parent / "configs"


def write_config(tmp_path, **overrides):
    data = {
        "kind": "BellTest",
        "engine": "gaussian",
        "trials": 2_000_000,
        "seed": 11,
        "repetition_period": 15.4e-6,
        "cavity": {},
        "waveguide": {"round_trip_time": 126e-9, "T1": 2.2e-6,
                      "retrieval_efficiency": 1.0},
        "pulses": [
            {"role": "WriteEarly", "center_time": 0.0, "scattering_probability": 0.0013},
            {"role": "WriteLate", "center_time": 63e-9, "scattering_probability": 0.0013},
            {"role": "ReadEarly", "center_time": 126e-9, "scattering_probability": 0.007},
            {"role": "ReadLate", "center_time": 189e-9, "scattering_probability": 0.007},
        ],
        "phases": {"phi_w": 0.0, "phi_r": 0.0, "phi_off": 0.2},
        "noise": {"thermal_schedule": [["WriteEarly", 0.027], ["WriteLate", 0.038],
                                       ["ReadEarly", 0.055], ["ReadLate", 0.090]]},
    }
    data.update(overrides)
    path = tmp_path / "config.yaml"
    save_config(config_from_dict(data), path)
    return path


class TestSimulate:
    def test_bell_run_produces_s(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out),
                         "--trials", "100000000"])
        assert code == 0
        results = yaml.safe_load((out / "results.yaml").read_text())
        assert "S" in results["estimates"]
        assert results["estimates"]["S"]["sigma"] > 0
        manifest = json.loads((out / "manifest.json").read_text())
        for artifact in manifest["artifacts"]:
            assert Path(artifact).exists()

    def test_zero_trials_validation_exit(self, tmp_path):
        config = write_config(tmp_path)
        for bad in ("0", "-1"):
            code = cli.main(["simulate", "--config", str(config), "--out",
                             str(tmp_path / "o"), "--trials", bad])
            assert code == 2

    def test_missing_config_exit(self, tmp_path):
        code = cli.main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                         "--out", str(tmp_path)])
        assert code == 2

    def test_determinism_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["simulate", "--config", str(config), "--out",
                             str(out), "--trials", "2000000000"]) == 0
            outs.append((out / "counts.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_cross_correlation_g2_outputs(self, tmp_path):
        config = write_config(tmp_path, kind="DoubleCrossCorrelation", trials=0,
                              waveguide={"round_trip_time": 126e-9, "T1": 2.2e-6,
                                         "retrieval_efficiency": 0.35})
        out = tmp_path / "cc"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 0
        results = yaml.safe_load((out / "results.yaml").read_text())
        assert set(results["estimates"]) >= {"g2_EE", "g2_LL", "g2_EL", "g2_LE"}

    def test_thermal_g2_run(self, tmp_path):
        config = write_config(tmp_path, kind="ThermalG2Tau", pulses=[], trials=0,
                              extra={"n_modes": 12, "fsr_hz": 7.94e6,
                                     "envelope": "gaussian",
                                     "envelope_sigma_hz": 9e6})
        out = tmp_path / "tg"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        results = yaml.safe_load((out / "results.yaml").read_text())
        assert results["estimates"]["g2_zero_delay"]["value"] == pytest.approx(2.0, abs=1e-9)
        assert results["estimates"]["round_trip_time"]["value"] == pytest.approx(
            126e-9, abs=0.5e-9)
        assert (out / "g2_tau.txt").exists()

    def test_override_flag(self, tmp_path):
        config = write_config(tmp_path, trials=0)
        out = tmp_path / "ov"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out),
                         "--override", "phases.phi_off=0.3"])
        assert code == 0

    @pytest.mark.parametrize("override", [
        "foo.bar=1",
        "noise.interferometer_visibility=abc",
        # an empty phase scan, a missing pulse role, a missing schedule role
        "phases.phi_w=[]",
        "phases.settings=[]",
        "pulses=[]",
        "pulses=[{role: WriteEarly, center_time: 0.0, scattering_probability: 0.001}]",
        "noise.thermal_schedule=[[WriteEarly, 0.01]]",
        # on a config with a phases.settings scan, which takes precedence
        "phases.phi_w=0.6",
        "phases.phi_r=0.1",
        # together with a phases.settings override, on a config without a scan
        pytest.param(("phases.settings=[[0.25, 0.0]]", "phases.phi_w=0.6"), id="settings+phi_w"),
        pytest.param(("phases.settings=[[0.25, 0.0]]", "phases.phi_r=0.1"), id="settings+phi_r"),
    ])
    def test_bad_override_is_config_error(self, tmp_path, capsys, override):
        # each case names the bad field last; the single phase overrides run
        # on a config with a scan
        overrides = [override] if isinstance(override, str) else list(override)
        scanned = override in ("phases.phi_w=0.6", "phases.phi_r=0.1")
        settings = {"settings": [[0.25, 0.0]]} if scanned else {}
        config = write_config(tmp_path, trials=0, phases={"phi_off": 0.2, **settings})
        code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "bad"),
                         *(arg for ov in overrides for arg in ("--override", ov))])
        assert code == 2
        assert overrides[-1].partition("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--override", "record_trials=-5"],
        ["--override", "trials=2.7"],
        ["--override", "record_trials=1.5"],
        ["--override", "seed=0.5"],
        ["--engine", "fock", "--override", "engine.truncation=3.7"],
    ])
    def test_bad_integer_field_is_config_error(self, tmp_path, extra):
        code = cli.main(["simulate", "--config", str(CONFIGS / "cross_correlation.yaml"),
                         "--out", str(tmp_path / "bad"), *extra])
        assert code == 2
        assert not (tmp_path / "bad" / "counts.csv").exists()

    @pytest.mark.parametrize("total_cap", [0, 2.5])
    def test_bad_total_cap_is_config_error(self, tmp_path, total_cap):
        raw = yaml.safe_load(write_config(tmp_path, trials=0).read_text())
        raw["engine"] = {"name": "fock", "truncation": 2, "total_cap": total_cap}
        path = tmp_path / "cap.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_integral_float_counts_load(self, tmp_path):
        # PyYAML reads 4.0e10 as a string and 4.0e+10 as a float
        raw = yaml.safe_load(write_config(tmp_path).read_text())
        for text in ("4.0e10", "4.0e+10"):
            path = tmp_path / "float.yaml"
            path.write_text(yaml.safe_dump(raw).replace("trials: 2000000", f"trials: {text}"))
            assert yaml.safe_load(path.read_text())["trials"] != 2_000_000
            assert cli.main(["rate-budget", "--config", str(path),
                             "--out", str(tmp_path / "o")]) == 0

    def test_splitting_asymmetry_bound_is_config_error(self, tmp_path):
        config = write_config(tmp_path, trials=0)
        code = cli.main(["simulate", "--config", str(config), "--out",
                         str(tmp_path / "bad"), "--override", "splitting_asymmetry=0.006"])
        assert code == 2

    @pytest.mark.parametrize("name", ["bell_test", "cross_correlation"])
    def test_exact_runs_report_zero_sigma(self, tmp_path, name):
        out = tmp_path / name
        assert cli.main(["simulate", "--config", str(CONFIGS / f"{name}.yaml"),
                         "--out", str(out), "--override", "trials=0"]) == 0
        results = yaml.safe_load((out / "results.yaml").read_text())
        estimates = list(results["estimates"].values())
        estimates += [s["E"] for s in results.get("settings", [])]
        assert len(estimates) == (6 if name == "bell_test" else 4)
        assert all(e["sigma"] == 0.0 for e in estimates)

    def test_manifest_describes_records_and_environment(self, tmp_path):
        out = tmp_path / "rec"
        assert cli.main(["simulate", "--config", str(CONFIGS / "cross_correlation.yaml"),
                         "--out", str(out), "--seed", "7",
                         "--override", "record_trials=300"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        records = manifest["records"]
        assert records["count"] == 300
        assert len(records["distinct_jitter_keys"]) == 1
        assert 1 <= records["distinct_jitter_keys"][0] <= 300
        config = load_config(CONFIGS / "cross_correlation.yaml")
        sigma = math.hypot(fwhm_to_sigma(config.noise.write_phase_jitter_fwhm),
                           fwhm_to_sigma(config.noise.read_phase_jitter_fwhm))
        assert records["jitter_step_rad"] == pytest.approx(8.0 * sigma / 64, rel=1e-15)
        assert type(records["sample_s"]) is float and records["sample_s"] >= 0.0
        assert set(manifest["environment"]) == {"phonon_timebin", "python", "numpy", "scipy"}
        assert manifest["environment"]["numpy"] == np.__version__

    def test_each_record_names_its_setting(self, tmp_path):
        out = tmp_path / "bell"
        assert cli.main(["simulate", "--config", str(CONFIGS / "bell_test.yaml"),
                         "--out", str(out), "--override", "record_trials=50"]) == 0
        header, *lines = (out / "trials.txt").read_text().splitlines()
        assert header.split()[1:3] == ["setting", "trial"]
        pairs = [tuple(int(v) for v in line.split()[:2]) for line in lines]
        assert len(set(pairs)) == len(pairs) == 4 * 50
        assert set(pairs) == {(s, t) for s in range(4) for t in range(50)}

    def test_record_files_parse_back_to_each_settings_arrays(self, tmp_path):
        # frequent dark counts, so the records visit many click patterns
        config = write_config(tmp_path, record_trials=200, noise={"dark_count_prob": 0.05})
        out = tmp_path / "rec"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        run = protocol.run_experiment(load_config(config))
        codes = np.zeros((len(run.settings), 200), dtype=np.int64)
        header, *events = (out / "events.txt").read_text().splitlines()
        assert header == "# setting trial window detector"
        for line in events:
            setting, trial, window, det = line.split()
            labels = run.settings[int(setting)].distribution.labels
            codes[int(setting), int(trial)] |= 1 << (len(labels) - 1
                                                     - labels.index(f"{window}:{det}"))
        header, *lines = (out / "trials.txt").read_text().splitlines()
        assert header == "# setting trial jitter_w_rad jitter_r_rad"
        rows = np.array([line.split() for line in lines], dtype=float)
        assert len(rows) == 4 * 200
        for i, sr in enumerate(run.settings):
            want_codes, jitter_w, jitter_r = sr.records
            assert len(np.unique(want_codes)) > 4
            assert np.array_equal(codes[i], want_codes)
            mine = rows[rows[:, 0] == i]
            assert np.array_equal(mine[:, 1], np.arange(200))
            # written to nine significant digits: relative rounding below 5e-9
            np.testing.assert_allclose(mine[:, 2:], np.column_stack([jitter_w, jitter_r]),
                                       rtol=5e-9, atol=0.0)

    @pytest.mark.parametrize("lines", [1, core.WRITE_BLOCK_LINES - 1, core.WRITE_BLOCK_LINES,
                                       core.WRITE_BLOCK_LINES + 1,
                                       2 * core.WRITE_BLOCK_LINES + 1])
    def test_record_files_match_the_per_line_writer(self, tmp_path, lines):
        # three settings of lines, one and lines trials; the first setting's
        # codes click once per trial, so its events.txt lines meet the block
        # edges too, and the jitters include values whose format is special
        rng = np.random.default_rng(lines)
        labels = protocol.ENTANGLEMENT_CHANNELS
        special = [0.0, -0.0, 1e-300, -2.5e-7, 1.5e16, -123456789.123, 0.1, math.pi]
        settings = []
        for n in (lines, 1, lines):
            codes = (1 << rng.integers(0, len(labels), n) if not settings
                     else rng.integers(0, 1 << len(labels), n))
            jitter = rng.normal(0.0, 0.3, (2, n))
            jitter.flat[:len(special)] = special[:jitter.size]
            settings.append(protocol.SettingResult(
                0.0, 0.0, core.OutcomeDistribution(labels, np.full(16, 1 / 16)),
                records=(codes.astype(np.int64), *jitter)))
        run = protocol.ExperimentResult(settings)
        cli._write_records(tmp_path, SimpleNamespace(add=lambda path: path), run)

        # the per-line writer the block writer replaced
        events = ["# setting trial window detector\n"]
        trials = ["# setting trial jitter_w_rad jitter_r_rad\n"]
        for i, sr in enumerate(run.settings):
            codes, jitter_w, jitter_r = sr.records
            names = [" ".join(ch.rsplit(":", 1)) for ch in labels]
            bits = 1 << np.arange(len(labels) - 1, -1, -1)
            trial, channel = np.nonzero(codes[:, None] & bits)
            events += [f"{i} {t} {names[c]}\n" for t, c in zip(trial.tolist(), channel.tolist())]
            trials += [f"{i} {t} {w:.9g} {r:.9g}\n"
                       for t, (w, r) in enumerate(zip(jitter_w.tolist(), jitter_r.tolist()))]
        assert len(events) > lines and len(trials) == 2 * lines + 2
        assert (tmp_path / "events.txt").read_text() == "".join(events)
        assert (tmp_path / "trials.txt").read_text() == "".join(trials)

    def test_manifest_records_in_process_argv(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "mf"
        argv = ["rate-budget", "--config", str(config), "--out", str(out)]
        assert cli.main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == " ".join(argv)


class TestSweep:
    def test_phase_sweep_columns(self, tmp_path):
        config = write_config(tmp_path, kind="TimeBinEntanglement", trials=0)
        out = tmp_path / "sw"
        code = cli.main(["sweep", "--config", str(config), "--out", str(out),
                         "--sweep", "phases.phi_w=0:1.8333:12"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("phi_w_rad")
        assert len(lines) == 13
        # sinusoidal E column
        e_vals = [float(l.split(",")[2]) for l in lines[1:]]
        assert max(e_vals) > 0.5 and min(e_vals) < -0.5

    def test_energy_sweep(self, tmp_path):
        config = write_config(tmp_path, kind="Calibration", trials=0)
        out = tmp_path / "en"
        code = cli.main(["sweep", "--config", str(config), "--out", str(out),
                         "--sweep", "pulses.energy=2e-14,4e-14,9e-14"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_energy_sweep_converts_with_the_configs_anchors(self, tmp_path):
        # anchors at twice the default probabilities: energy E converts as
        # 2E does without them, bit for bit (doubling is exact)
        anchors = {role: [[e, 2.0 * p] for e, p in table]
                   for role, table in core.DEFAULT_CALIBRATION_ANCHORS.items()}

        def sweep(name, energies, **overrides):
            (tmp_path / name).mkdir()
            config = write_config(tmp_path / name, kind="Calibration", trials=0, **overrides)
            assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / name / "o"),
                             "--sweep", f"pulses.energy={energies}"]) == 0
            return (tmp_path / name / "o" / "sweep.csv").read_text()

        anchored = sweep("anchored", "2e-14,4e-14", calibration_anchors=anchors)
        assert anchored == sweep("doubled", "4e-14,8e-14")
        assert anchored != sweep("default", "2e-14,4e-14")
        config = load_config(tmp_path / "anchored" / "config.yaml")
        scaled = cli.yaml_roundtrip_scale(config, "energy", 20e-15)
        assert scaled.calibration_anchors == config.calibration_anchors
        assert scaled.p_w == 2.0 * core.scattering_probability_from_energy(20e-15, "write")

    def test_unknown_variable(self, tmp_path):
        config = write_config(tmp_path)
        code = cli.main(["sweep", "--config", str(config), "--out",
                         str(tmp_path / "x"), "--sweep", "nonsense=0:1:3"])
        assert code == 2

    def test_empty_sweep(self, tmp_path):
        config = write_config(tmp_path)
        code = cli.main(["sweep", "--config", str(config), "--out",
                         str(tmp_path / "x"), "--sweep", "phases.phi_w="])
        assert code == 2

    @pytest.mark.parametrize("n", [1, 25, 1025])
    def test_csv_matches_the_per_row_writer(self, tmp_path, n):
        # sweep.csv's columns: four floats, one of them NaN and one -0.0,
        # then an integer count; 1,025 rows span two write blocks
        rng = np.random.default_rng(n)
        rows = [(float(w), float(r), float(e), float(s), int(c)) for w, r, e, s, c in zip(
            rng.uniform(0.0, 2.0 * math.pi, n), rng.choice([0.0, math.pi / 2.0], n),
            rng.uniform(-1.0, 1.0, n), rng.exponential(1e-3, n), rng.integers(0, 10**12, n))]
        rows[-1] = (-0.0, 1e-300, math.nan, math.inf, 0)
        header = "phi_w_rad,phi_r_rad,E,sigma_E,coincidences"
        cli._write_csv(tmp_path / "sweep.csv", header, rows)
        want = header + "\n" + "".join(",".join(f"{x:.9g}" for x in row) + "\n" for row in rows)
        assert (tmp_path / "sweep.csv").read_bytes() == want.encode()


class TestCalibrate:
    def test_workflow_outputs_settings(self, tmp_path):
        config = write_config(tmp_path, kind="Calibration", trials=0)
        out = tmp_path / "cal"
        code = cli.main(["calibrate", "--config", str(config), "--out", str(out),
                         "--points", "12"])
        assert code == 0
        payload = yaml.safe_load((out / "chsh_settings.yaml").read_text())
        phi_0_true = (2 * 0.2 * math.pi + math.pi / 2) % (2 * math.pi)
        assert payload["phi_0_rad"] == pytest.approx(phi_0_true, abs=math.pi / 50)
        assert len(payload["phases"]["settings"]) == 4
        # what the fit leaves out is reported with it
        for key in ("fit_amplitude_sigma", "fit_residual_rms"):
            assert math.isfinite(payload[key])
        assert (out / "calibration_sweep.csv").exists()

    def test_settings_feed_back_into_bell_config(self, tmp_path):
        config = write_config(tmp_path, kind="Calibration", trials=0)
        out = tmp_path / "cal2"
        assert cli.main(["calibrate", "--config", str(config), "--out",
                         str(out), "--points", "8"]) == 0
        payload = yaml.safe_load((out / "chsh_settings.yaml").read_text())
        bell = write_config(tmp_path, trials=0, phases={
            "phi_w": 0.0, "phi_r": 0.0, "phi_off": 0.2,
            "settings": payload["phases"]["settings"]})
        out2 = tmp_path / "bell"
        assert cli.main(["simulate", "--config", str(bell), "--out",
                         str(out2)]) == 0
        results = yaml.safe_load((out2 / "results.yaml").read_text())
        assert results["estimates"]["S"]["value"] > 2.0

    def test_gaussian_calibrate_imports_no_optimizer(self, tmp_path):
        # the settings are chosen in closed form and the Fock engine keeps
        # its density matrices as NumPy arrays, so neither the package
        # import nor a Gaussian calibration or simulation nor a Fock
        # simulation, each in its own interpreter, loads any of SciPy; and
        # the jitter average, a damped Fourier series, loads no
        # numpy.polynomial
        calibration = write_config(tmp_path, kind="Calibration", trials=0)
        (tmp_path / "bell").mkdir()
        bell = write_config(tmp_path / "bell")
        runs = {
            "gaussian": [["calibrate", "--config", str(calibration), "--out",
                          str(tmp_path / "cal"), "--points", "6"],
                         ["simulate", "--config", str(bell), "--out", str(tmp_path / "g")]],
            "fock": [["simulate", "--config", str(bell), "--engine", "fock", "--out",
                      str(tmp_path / "f"), "--override", "trials=0",
                      "--override", "engine.truncation=2",
                      "--override", "noise.write_phase_jitter_fwhm=0",
                      "--override", "noise.read_phase_jitter_fwhm=0"]],
        }
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        loaded = {}
        for engine, argvs in runs.items():
            script = (
                "import sys\n"
                "from phonon_timebin import cli\n"
                f"for argv in {argvs!r}:\n"
                "    assert cli.main(argv) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')),\n"
                "      'phonon_timebin.fock' in sys.modules, 'numpy.polynomial' in sys.modules)\n")
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, check=True)
            loaded[engine] = proc.stdout.strip().splitlines()[-1]
        # and the Gaussian runs never load the Fock engine
        assert loaded == {"gaussian": "[] False False", "fock": "[] True False"}
        # the manifest names SciPy's version only when the run loaded it
        for out in ("g", "f"):
            manifest = json.loads((tmp_path / out / "manifest.json").read_text())
            assert set(manifest["environment"]) == {"phonon_timebin", "python", "numpy",
                                                    "scipy"}
            assert manifest["environment"]["scipy"] is None

    @pytest.mark.parametrize("points", ["2", "0"])
    def test_too_few_points_is_config_error(self, tmp_path, points):
        # the scan has 2 x points settings, fewer than the fit takes
        config = write_config(tmp_path, kind="Calibration", trials=0)
        out = tmp_path / "cal"
        assert cli.main(["calibrate", "--config", str(config), "--out", str(out),
                         "--points", points]) == 2
        assert not (out / "calibration_sweep.csv").exists()


class TestEntanglementRun:
    def test_sweep_kind_reports_visibility_and_witness(self, tmp_path):
        config = write_config(
            tmp_path, kind="TimeBinEntanglement", trials=0,
            phases={"phi_w": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75],
                    "phi_r": 0.0, "phi_off": 0.2},
            extra={"witness_g2": [9.4, 5.0]})
        out = tmp_path / "tb"
        assert cli.main(["simulate", "--config", str(config), "--out",
                         str(out)]) == 0
        results = yaml.safe_load((out / "results.yaml").read_text())
        assert len(results["settings"]) == 8
        assert results["estimates"]["V_max_abs_E"]["value"] > 0.5
        assert results["estimates"]["R"]["value"] < 1.0

    def test_dual_phi_r_sweep(self, tmp_path):
        config = write_config(tmp_path, kind="Calibration", trials=0)
        out = tmp_path / "dual"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out),
                         "--sweep", "phases.phi_w=0:1.75:8", "--dual-phi-r"]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 17
        phi_rs = sorted({float(l.split(",")[1]) for l in lines[1:]})
        assert phi_rs[0] == 0.0
        assert phi_rs[1] == pytest.approx(math.pi / 2)

    def test_dual_phi_r_with_a_phi_r_sweep_is_config_error(self, tmp_path):
        # the swept phi_r would replace both --dual-phi-r values and repeat every row
        config = write_config(tmp_path, kind="Calibration", trials=0)
        out = tmp_path / "dual"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out),
                         "--sweep", "phases.phi_r=0:2:9", "--dual-phi-r"]) == 2
        assert not (out / "sweep.csv").exists()


class TestOther:
    def test_rate_budget(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "rb"
        assert cli.main(["rate-budget", "--config", str(config),
                         "--out", str(out)]) == 0
        budget = yaml.safe_load((out / "rate_budget.yaml").read_text())
        assert 1.0 < budget["coincidences_per_hour"] < 1000.0

    @pytest.mark.parametrize("argv, expected", [([], 20260809), (["--seed", "0"], 0),
                                                 (["--seed", "7"], 7)])
    def test_oracle_check_seed(self, monkeypatch, argv, expected):
        from phonon_timebin import oracles
        seen = []

        def suite(scale, seed):
            seen.append(seed)
            return oracles.OracleReport()
        monkeypatch.setattr(oracles, "run_oracle_suite", suite)
        assert cli.main(["oracle-check", "--scale", "smoke", *argv]) == 0
        assert seen == [expected]

    @pytest.mark.parametrize("argv, field", [
        (["oracle-check", "--scale", "smoke", "--seed", "-5"], "--seed"),
        (["rate-budget", "--config", str(CONFIGS / "thermal_g2.yaml")], "rate-budget"),
        *[(["simulate", "--config", str(CONFIGS / "thermal_g2.yaml"), "--override", item],
           item.split("=")[0].split(".")[1])
          for item in ("extra.n_modes=1", "extra.envelope=flat", "extra.delay_step=0",
                       "extra.delay_step=-1e-9", "extra.delay_step=abc", "extra.n_modes=12.7")],
        # checked before the experiment runs
        *[(["simulate", "--config", str(CONFIGS / "timebin_entanglement.yaml"),
            "--override", f"extra.witness_g2={value}"], "extra.witness_g2")
          for value in ("5", "[a,b]", "[1.2]", "[0, 5]")],
        # the thermal g2 kind has no pulses to sweep or calibrate
        (["sweep", "--config", str(CONFIGS / "thermal_g2.yaml"),
          "--sweep", "pulses.energy=1e-14"], "sweep"),
        (["sweep", "--config", str(CONFIGS / "thermal_g2.yaml"),
          "--sweep", "phases.phi_w=0:1:3"], "sweep"),
        (["calibrate", "--config", str(CONFIGS / "thermal_g2.yaml")], "calibrate"),
        # a non-finite phase would reach the click read-out as a NaN covariance
        *[(["simulate", "--config", str(CONFIGS / "bell_test.yaml"),
            "--override", f"phases.{key}={value}"], f"phases.{key}")
          for key in ("phi_w", "phi_r", "phi_off") for value in ("nan", "inf", "-inf")],
        (["simulate", "--config", str(CONFIGS / "bell_test.yaml"),
          "--override", "phases.settings=[[0.25, 0], [nan, 0.5]]"], "phases.settings"),
        (["simulate", "--config", str(CONFIGS / "bell_test.yaml"),
          "--override", "phases.phi_w=[0, .inf]"], "phases.phi_w"),
        *[(["sweep", "--config", str(CONFIGS / "bell_test.yaml"),
            "--sweep", f"phases.{key}={values}"], f"phases.{key}")
          for key, values in (("phi_w", "nan,1"), ("phi_r", "0,inf"), ("phi_w", "0:inf:3"))],
        # a FWHM past 1e6 rad rounds the record sampler's jitter phases away,
        # then overflows them
        *[(["simulate", "--config", str(CONFIGS / "bell_test.yaml"), *engine,
            "--override", f"noise.{key}={value}"], f"noise.{key}")
          for key in ("write_phase_jitter_fwhm", "read_phase_jitter_fwhm")
          for value in ("inf", "nan", "1e308", "2e6") for engine in ([], ["--engine", "fock"])],
        # a period or geometry that divides by zero or gives a meaningless rate
        *[(["rate-budget", "--config", str(CONFIGS / "bell_test.yaml"),
            "--override", f"{key}={value}"], key)
          for key in ("repetition_period", "waveguide.group_velocity", "waveguide.length")
          for value in ("0", "-1", "nan", "inf")],
        # a count the multinomial draw cannot take
        *[(["simulate", "--config", str(CONFIGS / "bell_test.yaml"),
            "--override", f"trials={value}"], "trials") for value in ("1e20", str(2**63))],
    ])
    def test_bad_command_input_is_config_error(self, tmp_path, capsys, argv, field):
        assert cli.main([*argv, "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err

    @pytest.mark.parametrize("item", ["extra.n_modes=abc", "extra.fsr_hz=abc",
                                      "extra.envelope_sigma_hz=abc", "extra.n_modes=12.7"])
    def test_a_bad_spectrum_extra_names_its_key_once(self, tmp_path, capsys, item):
        key = item.split("=")[0]
        assert cli.main(["simulate", "--config", str(CONFIGS / "thermal_g2.yaml"),
                         "--override", item, "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        # the key leads the message, without a wrapper around it
        assert err.startswith(f"config error: {key}") and err.count(key) == 1

    @pytest.mark.parametrize("field, value", [("max_delay", "abc"),
                                              ("spectrum_file", "no_such_spectrum.txt")])
    def test_bad_thermal_g2_extra_is_config_error(self, tmp_path, capsys, field, value):
        raw = yaml.safe_load((CONFIGS / "thermal_g2.yaml").read_text())
        raw["extra"][field] = str(tmp_path / value) if field == "spectrum_file" else value
        path = tmp_path / "g2.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"extra.{field}" in err

    def test_relative_spectrum_file_is_read_next_to_the_config(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        freqs = 5.154e9 + np.arange(5) * 7.94e6
        np.savetxt(sub / "spec.txt", np.column_stack([freqs, [0.4, 0.8, 1.0, 0.7, 0.3]]))
        raw = yaml.safe_load((CONFIGS / "thermal_g2.yaml").read_text())
        raw["extra"]["spectrum_file"] = "spec.txt"
        (sub / "g2.yaml").write_text(yaml.safe_dump(raw))
        # run from the parent directory, where no spec.txt lies
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "--config", "sub/g2.yaml", "--out", "o"]) == 0
        assert (tmp_path / "o" / "g2_tau.txt").exists()

    def test_both_yaml_backends_write_the_same_results(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)

        def run(out):
            assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                             "--override", "noise.dark_count_prob=2e-7"]) == 0
            text = (out / "results.yaml").read_text()
            return [line for line in text.splitlines()
                    if not line.startswith("elapsed_seconds:")], capsys.readouterr().out

        first = run(tmp_path / "c")
        monkeypatch.setattr(core, "YAML_LOADER", yaml.SafeLoader)
        monkeypatch.setattr(core, "YAML_DUMPER", yaml.SafeDumper)
        assert run(tmp_path / "python") == first

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path / "envout"))
        config = write_config(tmp_path)
        assert cli.main(["rate-budget", "--config", str(config)]) == 0
        assert (tmp_path / "envout" / "rate_budget.yaml").exists()


@pytest.mark.parametrize("truncation, flagged", [(1, True), (4, False)])
def test_truncated_fock_run_is_flagged(tmp_path, capsys, truncation, flagged):
    # the default cutoff (4) keeps the boundary weight near 1e-3; a cutoff
    # of 1 puts almost all of it on the boundary
    out = tmp_path / "fock"
    assert cli.main(["simulate", "--config", str(CONFIGS / "bell_test.yaml"),
                     "--engine", "fock", "--out", str(out),
                     "--override", "trials=0",
                     "--override", f"engine.truncation={truncation}",
                     "--override", "noise.write_phase_jitter_fwhm=0",
                     "--override", "noise.read_phase_jitter_fwhm=0"]) == 0
    figures = json.loads((out / "manifest.json").read_text())["fock_truncation"]
    assert figures["flagged"] is flagged
    assert (figures["max_truncation_weight"] > 1e-2) is flagged
    assert abs(figures["max_renorm_deficit"]) < 1e-12
    warned = "Fock truncation weight" in capsys.readouterr().err
    assert warned is flagged

