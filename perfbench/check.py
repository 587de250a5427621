"""Output checks for the benchmark, run outside its timed region.

* Exact jitter-averaged click distributions of the four pulsed reference
  configs and the thermal g2(tau) curve must match the values recorded in
  ``reference.json`` to 1e-12.
* Each sampled estimator a command prints (S, E, V, R, the four g2 windows,
  the fitted phi_0) must lie within 4 sigma of its exact value.
* Every oracle-check line must read PASS, and the Fock Bell E values must
  match the recorded ones to 1e-9.
* The SHA-256 of each counts.csv is reported, not gated.

``reference.json`` holds values computed by the program at the commit that
introduced the benchmark.  Regenerate it only for a declared change of the
exact results:

    python3 perfbench/check.py        # from the repository root
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import sys
from pathlib import Path

import yaml

from workloads import CONFIGS, RECORD_TRIALS, WORKLOADS

REFERENCE = Path(__file__).with_name("reference.json")
EXACT_TOL = 1e-12
FOCK_E_TOL = 1e-9
SIGMAS = 4.0

# configs whose exact distributions each workload fingerprints
FINGERPRINT = {
    "bell_session": ("calibration", "bell_test", "timebin_entanglement"),
    "xcorr_records": ("cross_correlation",),
    "fock_oracle": (),
}
G2_WINDOWS = ("g2_EE", "g2_LL", "g2_EL", "g2_LE")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _yaml(path: Path):
    return yaml.safe_load(path.read_text())


def read_counts(path: Path) -> list[dict[str, float]]:
    """counts.csv as one {bit pattern: value} dict per setting."""
    settings: list[dict[str, float]] = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        idx, _, _, bits, value = line.split()
        while len(settings) <= int(idx):
            settings.append({})
        settings[int(idx)][bits] = float(value)
    return settings


def read_curve(path: Path) -> list[float]:
    return [float(line.split()[1]) for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _max_dev(a: dict[str, float], b: dict[str, float]) -> float:
    if a.keys() != b.keys():
        return math.inf
    return max(abs(a[k] - b[k]) for k in a)


def _within(name: str, entry: dict, exact: float, angle: bool = False):
    """(name, ok, detail) for one sampled estimator against its exact value."""
    value, sigma = entry.get("value"), entry.get("sigma")
    if value is None or sigma is None or not sigma > 0:
        return name, False, f"no value/sigma: {entry}"
    diff = math.remainder(value - exact, 2 * math.pi) if angle else value - exact
    z = diff / sigma
    return name, abs(z) <= SIGMAS, f"z = {z:+.2f}"


def _estimates(results: dict, exact: dict, prefix: str) -> list:
    out = []
    for i, (setting, e) in enumerate(zip(results["settings"], exact["E"])):
        out.append(_within(f"{prefix}.E[{i}]", setting["E"], e))
    if len(results["settings"]) != len(exact["E"]):
        out.append((f"{prefix}.settings", False, f"{len(results['settings'])} settings"))
    for key in ("S", "V_max_abs_E", "R"):
        if key in exact:
            out.append(_within(f"{prefix}.{key}", results["estimates"].get(key, {}), exact[key]))
    return out


def check_outputs(workload: str, out_dir: Path, ref: dict) -> list[tuple[str, bool, str]]:
    """Checks of one repetition's outputs: (name, passed, detail) each."""
    est = ref["estimates"]
    checks = []
    if workload == "bell_session":
        cal = _yaml(out_dir / "calibrate" / "chsh_settings.yaml")
        checks.append(_within("calibration.phi_0",
                              {"value": cal["phi_0_rad"], "sigma": cal["phi_0_sigma_rad"]},
                              est["calibration"]["phi_0_rad"], angle=True))
        checks += _estimates(_yaml(out_dir / "bell" / "results.yaml"), est["bell_test"], "bell")
        checks += _estimates(_yaml(out_dir / "timebin" / "results.yaml"),
                             est["timebin_entanglement"], "timebin")
    elif workload == "xcorr_records":
        got = _yaml(out_dir / "xcorr" / "results.yaml")["estimates"]
        for w in G2_WINDOWS:
            checks.append(_within(f"xcorr.{w}", got.get(w, {}), est["cross_correlation"][w]))
        records = sum(1 for line in (out_dir / "xcorr" / "trials.txt").read_text().splitlines()
                      if line and not line.startswith("#"))
        checks.append(("xcorr.records", records == RECORD_TRIALS, f"{records} records"))
        curve = read_curve(out_dir / "thermal" / "g2_tau.txt")
        dev = (max(abs(a - b) for a, b in zip(curve, ref["thermal_g2"]))
               if len(curve) == len(ref["thermal_g2"]) else math.inf)
        checks.append(("thermal.g2_curve", dev <= EXACT_TOL, f"max dev {dev:.2e}"))
    elif workload == "fock_oracle":
        lines = (out_dir / "oracle" / "stdout.txt").read_text().splitlines()
        verdicts = [l for l in lines if l.startswith(("PASS ", "FAIL "))]
        for i, line in enumerate(verdicts):
            checks.append((f"oracle.line[{i}]", line.startswith("PASS "), line))
        checks.append(("oracle.summary",
                       len(verdicts) == ref["oracle_lines"] and "oracle check passed" in lines,
                       f"{len(verdicts)} verdict lines"))
        got = [s["E"]["value"] for s in _yaml(out_dir / "fock_bell" / "results.yaml")["settings"]]
        exact = ref["fock_bell_E"]
        for i, e in enumerate(exact):
            dev = abs(got[i] - e) if i < len(got) else math.inf
            checks.append((f"fock_bell.E[{i}]", dev <= FOCK_E_TOL, f"dev {dev:.2e}"))
    return checks


def counts_hashes(out_dir: Path) -> dict[str, str]:
    return {p.parent.name: sha256(p) for p in sorted(out_dir.glob("*/counts.csv"))}


def _run_cli(argv: list[str], out: Path) -> int:
    import phonon_timebin.cli as cli

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
        return cli.main([*argv, "--out", str(out)])


def exact_distributions(config: str, out: Path) -> list[dict[str, float]]:
    code = _run_cli(["simulate", "--config", str(CONFIGS / f"{config}.yaml"),
                     "--override", "trials=0"], out)
    if code != 0:
        raise RuntimeError(f"exact simulate of {config} exited {code}")
    return read_counts(out / "counts.csv")


def fingerprint(workload: str, work_dir: Path, ref: dict) -> list[tuple[str, bool, str]]:
    """Recompute the workload's exact distributions and compare them to the
    recorded ones.  Runs the CLI in this process."""
    checks = []
    for config in FINGERPRINT[workload]:
        name = f"fingerprint.{config}"
        try:
            got = exact_distributions(config, work_dir / config)
        except Exception as exc:  # a failed run is a failed check, reported
            checks.append((name, False, repr(exc)))
            continue
        want = ref["distributions"][config]
        dev = (max(_max_dev(g, w) for g, w in zip(got, want))
               if len(got) == len(want) else math.inf)
        checks.append((name, dev <= EXACT_TOL, f"max dev {dev:.2e}"))
    return checks


def _argv(workload: str, step: str) -> list[str]:
    return next(argv for name, _, argv in WORKLOADS[workload] if name == step)


def record_reference(work_dir: Path) -> dict:
    """Exact values from the program as it stands; see the module docstring."""
    ref: dict = {"distributions": {}, "estimates": {}}
    for config in ("calibration", "bell_test", "timebin_entanglement", "cross_correlation"):
        ref["distributions"][config] = exact_distributions(config, work_dir / config)
    for config in ("bell_test", "timebin_entanglement"):
        res = _yaml(work_dir / config / "results.yaml")
        ref["estimates"][config] = {"E": [s["E"]["value"] for s in res["settings"]],
                                    **{k: v["value"] for k, v in res["estimates"].items()}}
    res = _yaml(work_dir / "cross_correlation" / "results.yaml")["estimates"]
    ref["estimates"]["cross_correlation"] = {w: res[w]["value"] for w in G2_WINDOWS}
    _run_cli([*_argv("bell_session", "calibrate"), "--override", "trials=0"],
             work_dir / "calibrate")
    cal = _yaml(work_dir / "calibrate" / "chsh_settings.yaml")
    ref["estimates"]["calibration"] = {"phi_0_rad": cal["phi_0_rad"]}
    _run_cli(_argv("fock_oracle", "fock_bell"), work_dir / "fock_bell")
    res = _yaml(work_dir / "fock_bell" / "results.yaml")
    ref["fock_bell_E"] = [s["E"]["value"] for s in res["settings"]]
    _run_cli(_argv("xcorr_records", "thermal"), work_dir / "thermal")
    ref["thermal_g2"] = read_curve(work_dir / "thermal" / "g2_tau.txt")
    _run_cli(_argv("fock_oracle", "oracle"), work_dir / "oracle")
    text = (work_dir / "oracle" / "stdout.txt").read_text().splitlines()
    ref["oracle_lines"] = sum(1 for l in text if l.startswith(("PASS ", "FAIL ")))
    return ref


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path.cwd() / "src"))
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        REFERENCE.write_text(json.dumps(record_reference(Path(tmp)), indent=1) + "\n")
    print(f"wrote {REFERENCE}")
