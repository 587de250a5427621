"""Command-line front end.

Subcommands: simulate, sweep, calibrate, oracle-check, rate-budget.
Exit codes: 0 success, 2 config/validation failure, 3 runtime or numerical
failure.  Every run writes a manifest listing all produced files.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import analysis, protocol, waveguide
from .core import (
    ConfigError,
    ExperimentConfig,
    ExperimentKind,
    config_digest,
    key_at,
    load_config,
    with_overrides,
    with_pulse_field,
    write_rows,
    yaml_dump,
)

ENV_OUTDIR = "PHONON_TIMEBIN_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

#: the most phase settings a sweep or calibrate run builds; a phase sweep of
#: that many takes about a second
MAX_SETTINGS = 10_000


def _bounded_settings(count: int, what: str) -> None:
    """Raise ConfigError before a run builds more than MAX_SETTINGS settings."""
    if count > MAX_SETTINGS:
        raise ConfigError(f"{what}: {count} settings, more than the {MAX_SETTINGS} "
                          "a run builds")


def _plain(obj):
    """Recursively convert numpy scalars/arrays for YAML/JSON output."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def _dump_yaml(path: Path, payload) -> None:
    path.write_text(yaml_dump(_plain(payload)))


class _Manifest:
    def __init__(self, out_dir: Path, config: ExperimentConfig | None, args):
        self.out_dir = out_dir
        self.data = {
            "command": " ".join(args.argv),
            "config_digest": config_digest(config) if config else None,
            "seed": config.seed if config else None,
            "engine": config.engine.name if config else None,
            "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "artifacts": [],
            "assumption_flags": [
                "detector_efficiency and dark_count_prob are declared assumptions, "
                "not measured device values",
            ],
        }
        self.truncation: list[tuple[float, float]] = []

    def add(self, path: Path) -> Path:
        self.data["artifacts"].append(str(path))
        return path

    def note_truncation(self, distributions) -> None:
        """Collect the Fock truncation figures of the run's distributions."""
        self.truncation += [d.truncation for d in distributions if d.truncation is not None]

    def write(self) -> Path:
        self.data["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.data["environment"] = _environment()
        if self.truncation:
            from .fock import TRUNCATION_WEIGHT_LIMIT  # loaded by the Fock run

            # worst over every Fock state the run detected; a flagged run
            # still succeeds, its numbers carry the warning
            weight, deficit = (float(v) for v in np.max(self.truncation, axis=0))
            flagged = weight > TRUNCATION_WEIGHT_LIMIT
            self.data["fock_truncation"] = {"max_truncation_weight": weight,
                                            "max_renorm_deficit": deficit,
                                            "flagged": flagged}
            if flagged:
                print(f"warning: Fock truncation weight {weight:.3g} exceeds "
                      f"{TRUNCATION_WEIGHT_LIMIT:g}; raise engine.truncation",
                      file=sys.stderr)
        path = self.out_dir / "manifest.json"
        self.data["artifacts"].append(str(path))
        path.write_text(json.dumps(self.data, indent=2))
        return path


def _environment() -> dict:
    """Versions of the package and of what its numbers depend on.  SciPy is
    reported only if the process has loaded it: no command does, and no
    number depends on it."""
    from . import __version__
    scipy = sys.modules.get("scipy")
    return {"phonon_timebin": __version__, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__ if scipy else None}


def _out_dir(args) -> Path:
    base = args.out or os.environ.get(ENV_OUTDIR) or "."
    out = Path(base)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> ExperimentConfig:
    config = load_config(args.config)
    overrides = {}
    for item in args.override or []:
        key, _, value = item.partition("=")
        if not _:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        overrides[key] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        # the flag requests a Monte Carlo budget; exact-only runs are
        # selected with `trials: 0` in the config file instead
        if args.trials <= 0:
            raise ConfigError("--trials must be a positive count")
        overrides["trials"] = args.trials
    if args.engine is not None:
        overrides["engine.name"] = args.engine
    if overrides:
        config = with_overrides(config, overrides)
    return config


def _load_pulsed(args) -> ExperimentConfig:
    """``_load`` for a command that runs the pulse sequence, which the
    thermal g2 kind does not have."""
    config = _load(args)
    if config.kind is ExperimentKind.THERMAL_G2_TAU:
        raise ConfigError(f"{args.command} needs a pulsed experiment kind; "
                          f"{config.kind.value} has no pulses")
    return config


def _result_entry(res: analysis.AnalysisResult) -> dict:
    entry = {
        "value": None if math.isnan(res.value) else float(res.value),
        "sigma": None if math.isnan(res.sigma) else float(res.sigma),
        "method": res.method,
        "inputs_digest": res.inputs_digest,
    }
    if res.flags:
        entry["flags"] = list(res.flags)
    return entry


WINDOW_PAIRS = {
    "EE": ("write-early-direct", "read-early-direct"),
    "LL": ("write-overlap", "read-overlap"),
    "EL": ("write-early-direct", "read-overlap"),
    "LE": ("write-overlap", "read-early-direct"),
}


def _estimate(res: analysis.AnalysisResult, setting: protocol.SettingResult):
    """An exact run (no sampled counts) has no counting error."""
    return res if setting.counts is not None else analysis.exact(res)


def _g2_analysis(setting: protocol.SettingResult, trials: float) -> dict:
    return {f"g2_{name}": _estimate(analysis.window_g2(setting.distribution, w_win, r_win,
                                                       trials, setting.counts), setting)
            for name, (w_win, r_win) in WINDOW_PAIRS.items()}


def _overlap(sr: protocol.SettingResult) -> analysis.CoincidenceTable:
    """One setting's overlap coincidence table; one trial on an exact run."""
    return analysis.overlap_table(sr.distribution, sr.trials or 1.0, sr.counts)


def _setting_E(sr: protocol.SettingResult, table: analysis.CoincidenceTable):
    return _estimate(analysis.correlation_E(table), sr)


def settings_E(config: ExperimentConfig, settings, first_idx: int = 0,
               manifest: _Manifest | None = None) -> list:
    """The E pipeline of a scan of phase settings: jitter-averaged
    distributions, one draw of counts per setting when config.trials > 0,
    overlap coincidence tables, E.  Returns [(E, table)] in scan order."""
    results = protocol.run_settings(config, settings, first_idx)
    if manifest is not None:
        manifest.note_truncation(sr.distribution for sr in results)
    tables = [_overlap(sr) for sr in results]
    return [(_setting_E(sr, table), table) for sr, table in zip(results, tables)]


def setting_E(config: ExperimentConfig, phi_w: float, phi_r: float, setting_idx: int = 0,
              manifest: _Manifest | None = None):
    """``settings_E`` of one setting.  Returns (E, table)."""
    return settings_E(config, [(phi_w, phi_r)], setting_idx, manifest)[0]


def cmd_simulate(args) -> int:
    config = _load(args)
    out = _out_dir(args)
    manifest = _Manifest(out, config, args)
    t0 = time.time()
    results: dict = {"kind": config.kind.value, "config_digest": manifest.data["config_digest"],
                     "seed": config.seed, "engine": config.engine.name}

    if config.kind is ExperimentKind.THERMAL_G2_TAU:
        _thermal_g2_run(config, out, manifest, results)
    else:
        witness_g2 = config.extra_value("witness_g2")
        run = protocol.run_experiment(config)
        manifest.note_truncation(sr.distribution for sr in run.settings)
        if config.kind is ExperimentKind.DOUBLE_CROSS_CORRELATION:
            sr = run.settings[0]
            g2s = _g2_analysis(sr, float(config.trials or 1.0))
            results["estimates"] = {k: _result_entry(v) for k, v in g2s.items()}
        else:
            e_results = []
            settings_out = []
            for sr in run.settings:
                table = _overlap(sr)
                entry = {"phi_w": sr.phi_w, "phi_r": sr.phi_r,
                         "coincidences": {f"n{k}{l}": table.counts[(k, l)]
                                          for k in (1, 2) for l in (1, 2)}}
                try:
                    e = _setting_E(sr, table)
                    e_results.append(e)
                    entry["E"] = _result_entry(e)
                except analysis.AnalysisError as exc:
                    entry["E"] = {"value": None, "flags": [str(exc)]}
                settings_out.append(entry)
            results["settings"] = settings_out
            results["estimates"] = {}
            if (config.kind is ExperimentKind.BELL_TEST
                    and len(e_results) == len(run.settings) == 4):
                s = analysis.chsh_S(e_results)
                results["estimates"]["S"] = _result_entry(s)
            if e_results:
                v = analysis.visibility(e_results)
                results["estimates"]["V_max_abs_E"] = _result_entry(v)
                if witness_g2 is not None:
                    r = analysis.witness_R(v, *witness_g2)
                    results["estimates"]["R"] = _result_entry(r)
        counts_path = manifest.add(out / "counts.csv")
        _write_counts(counts_path, run)
        if run.record_figures is not None:
            _write_records(out, manifest, run)
            manifest.data["records"] = run.record_figures
    results["elapsed_seconds"] = time.time() - t0
    path = manifest.add(out / "results.yaml")
    _dump_yaml(path, results)
    manifest.write()
    print(yaml_dump(_plain(results.get("estimates", results))).strip())
    return EXIT_OK


def _thermal_g2_run(config, out, manifest, results):
    value = config.extra_value
    gamma = 1.0 / config.waveguide.T1
    if "spectrum_file" in config.extra:
        try:
            spectrum = waveguide.load_spectrum(config.extra["spectrum_file"], gamma=gamma)
        except (OSError, ValueError) as exc:  # missing, unreadable or malformed
            raise ConfigError(f"extra.spectrum_file: {exc}") from exc
    else:
        try:
            spectrum = waveguide.synthetic_spectrum(
                n_modes=value("n_modes"), fsr_hz=value("fsr_hz"), gamma=gamma,
                envelope=value("envelope"), envelope_sigma_hz=value("envelope_sigma_hz"))
        except waveguide.WaveguideError as exc:  # every mode's weight underflows
            raise ConfigError(f"extra: {exc}") from exc
    delays = np.arange(0.0, value("max_delay"), value("delay_step"))
    curve = waveguide.g2_tau_curve(spectrum, delays)
    path = manifest.add(out / "g2_tau.txt")
    waveguide.save_curve(path, delays, curve, header="delay_s g2")
    tau, fwhm = waveguide.extract_round_trip(delays, curve)
    results["estimates"] = {
        "g2_zero_delay": {"value": float(curve[0]), "sigma": 0.0, "method": "mode-sum/exact"},
        "round_trip_time": {"value": tau, "sigma": 0.0, "method": "g2-revival/parabolic"},
        "packet_fwhm": {"value": fwhm, "sigma": 0.0, "method": "g2-zero-peak/fwhm"},
    }


def _write_counts(path: Path, run: protocol.ExperimentResult) -> None:
    with open(path, "w") as fh:
        fh.write("# setting_index phi_w phi_r pattern count_or_probability\n")
        for i, sr in enumerate(run.settings):
            labels = ",".join(sr.distribution.labels)
            fh.write(f"# setting {i}: channels {labels}\n")
            n = len(sr.distribution.labels)
            # channel 0 is the leftmost bit; sampled runs list observed patterns only
            if sr.counts is None:
                source, codes = sr.distribution.probabilities, range(1 << n)
            else:
                source, codes = sr.counts, np.flatnonzero(sr.counts)
            values = source.tolist()
            for code in codes:
                fh.write(f"{i} {sr.phi_w:.9f} {sr.phi_r:.9f} {code:0{n}b} {values[code]}\n")


def _write_records(out: Path, manifest: _Manifest, run: protocol.ExperimentResult) -> None:
    """events.txt, one line per click, and trials.txt, one line per trial,
    each setting's lines in trial order, from the settings' record arrays."""
    with open(manifest.add(out / "events.txt"), "w") as events, \
            open(manifest.add(out / "trials.txt"), "w") as trials:
        events.write("# setting trial window detector\n")
        trials.write("# setting trial jitter_w_rad jitter_r_rad\n")
        for i, sr in enumerate(run.settings):
            codes, jitter_w, jitter_r = sr.records
            labels = sr.distribution.labels
            names = np.array([" ".join(ch.rsplit(":", 1)) for ch in labels])
            # channel 0 is the leftmost bit; nonzero lists (trial, channel) row-major
            bits = 1 << np.arange(len(labels) - 1, -1, -1)
            trial, channel = np.nonzero(codes[:, None] & bits)
            write_rows(events, f"{i} %d %s\n", trial, names[channel])
            write_rows(trials, f"{i} %d %.9g %.9g\n", np.arange(len(codes)), jitter_w, jitter_r)


def _write_csv(path: Path, header: str, rows) -> None:
    """The header line, then one line per row of its values in %.9g, comma
    separated."""
    columns = [np.asarray(column) for column in zip(*rows)]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        write_rows(fh, ",".join(["%.9g"] * len(columns)) + "\n", *columns)


def cmd_sweep(args) -> int:
    config = _load_pulsed(args)
    out = _out_dir(args)
    key, _, valspec = args.sweep.partition("=")
    if not _:
        raise ConfigError("--sweep must be KEY=START:STOP:N or KEY=v1,v2,...")
    if key not in ("phases.phi_w", "phases.phi_r", "pulses.energy",
                   "pulses.scattering_probability"):
        raise ConfigError(f"unknown sweep variable {key!r}")
    if key == "phases.phi_r" and args.dual_phi_r:
        raise ConfigError("--dual-phi-r fixes phi_r, so it cannot go with a phases.phi_r sweep")

    read = key_at(key).parse  # as the key of a file reads: a phase into radians
    phi_rs = [0.0, math.pi / 2.0] if args.dual_phi_r else [config.phases.phi_r]
    try:
        if ":" in valspec:
            start, stop, n = valspec.split(":")
            ends, n = (read(start, key), read(stop, key)), int(n)
        else:
            values = [read(v, key) for v in valspec.split(",") if v.strip()]
            n = len(values)
    except ValueError as exc:
        raise ConfigError(f"{key}: bad sweep values {valspec!r}: {exc}") from exc
    if n <= 0:
        raise ConfigError("empty sweep list")
    _bounded_settings(n * len(phi_rs), f"--sweep {args.sweep}")
    if ":" in valspec:
        values = np.linspace(*ends, n)
    manifest = _Manifest(out, config, args)
    phi_w = config.phases.phi_w
    grid = [(phi_r, v) for phi_r in phi_rs for v in values]
    if key == "phases.phi_w":
        scan = [(v, phi_r) for phi_r, v in grid]
    elif key == "phases.phi_r":
        scan = [(phi_w, v) for _, v in grid]
    else:
        scan = [(phi_w, phi_r) for phi_r, _ in grid]
    if key.startswith("phases."):
        results = settings_E(config, scan, manifest=manifest)
    else:
        # each energy or scattering probability is a config of its own
        field = key.partition(".")[2]
        results = [setting_E(with_pulse_field(config, field, v), w, r, idx, manifest)
                   for idx, ((w, r), (_, v)) in enumerate(zip(scan, grid))]
    rows = [(w, r, e.value, e.sigma, table.total_coincidences)
            for (w, r), (e, table) in zip(scan, results)]
    path = manifest.add(out / "sweep.csv")
    _write_csv(path, "phi_w_rad,phi_r_rad,E,sigma_E,coincidences", rows)
    manifest.write()
    print(f"wrote {path} ({len(rows)} points)")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    """The phase-calibration workflow: sweep phi_w at phi_r in {0, pi/2},
    fit the joint sinusoid, take the CHSH settings that maximize the fitted
    S (the ideal points on the branch the fitted offset picks, in closed
    form), and emit them in config-ready form."""
    n_points = args.points
    if 2 * n_points < analysis.MIN_CALIBRATION_POINTS:
        raise ConfigError(f"--points {n_points}: the fit needs "
                          f"{analysis.MIN_CALIBRATION_POINTS} sweep points (2 x points)")
    _bounded_settings(2 * n_points, f"--points {n_points}")
    config = _load_pulsed(args)
    out = _out_dir(args)
    manifest = _Manifest(out, config, args)
    scan = [(phi_w, phi_r) for phi_r in (0.0, math.pi / 2.0)
            for phi_w in np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)]
    rows = [(phi_w, phi_r, e.value, e.sigma)
            for (phi_w, phi_r), (e, _) in zip(scan, settings_E(config, scan, manifest=manifest))]
    points = [analysis.SweepPoint(*row) for row in rows]
    sweep_path = manifest.add(out / "calibration_sweep.csv")
    _write_csv(sweep_path, "phi_w_rad,phi_r_rad,E,sigma_E", rows)
    cal = analysis.fit_sinusoid_and_choose_phases(points)
    settings_path = manifest.add(out / "chsh_settings.yaml")
    payload = {
        "phi_0_rad": cal.phi_0,
        "phi_0_sigma_rad": cal.phi_0_sigma,
        "fit_amplitude": cal.amplitude,
        "fit_amplitude_sigma": cal.amplitude_sigma,
        "fit_offset": cal.offset,
        "fit_residual_rms": cal.fit_residual_rms,
        "expected_S": cal.expected_S,
        "phases": {"settings": [[w / math.pi, r / math.pi] for w, r in cal.chsh_settings]},
    }
    _dump_yaml(settings_path, payload)
    manifest.write()
    print(yaml_dump(_plain(payload)).strip())
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    from .oracles import run_oracle_suite
    seed = 20260809 if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
    report = run_oracle_suite(scale=args.scale, seed=seed)
    for line in report.lines:
        print(line)
    if not report.passed:
        print("ORACLE CHECK FAILED")
        return EXIT_RUNTIME
    print("oracle check passed")
    return EXIT_OK


def cmd_rate_budget(args) -> int:
    config = _load_pulsed(args)
    out = _out_dir(args)
    manifest = _Manifest(out, config, args)
    budget = protocol.rate_budget(config)
    path = manifest.add(out / "rate_budget.yaml")
    _dump_yaml(path, budget)
    manifest.write()
    print(yaml_dump(_plain(budget)).strip())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonon-timebin",
        description="Traveling-phonon time-bin entanglement simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config (YAML)")
            p.add_argument("--override", action="append", metavar="KEY=VALUE",
                           help="dotted-path config override")
            p.add_argument("--trials", type=int, default=None)
            p.add_argument("--engine", choices=("fock", "gaussian"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${ENV_OUTDIR} or .)")

    p = sub.add_parser("simulate", help="run one experiment and its analysis chain")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep a phase or energy and tabulate E")
    common(p)
    p.add_argument("--sweep", required=True, metavar="KEY=START:STOP:N",
                   help="e.g. phases.phi_w=0:2:13 (phases in units of pi)")
    p.add_argument("--dual-phi-r", action="store_true",
                   help="repeat a phi_w, energy or scattering-probability sweep "
                        "at phi_r = 0 and pi/2")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate",
                       help="dual sweep + sinusoid fit + CHSH setting selection")
    common(p)
    p.add_argument("--points", type=int, default=12, help="sweep points per curve")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("oracle-check", help="cross-engine and analytic-limit suites")
    common(p, needs_config=False)
    p.add_argument("--scale", choices=("smoke", "default", "full"), default="default")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("rate-budget", help="analytic event-rate budget")
    common(p)
    p.set_defaults(func=cmd_rate_budget)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime/numerical failure
        traceback.print_exc()
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
