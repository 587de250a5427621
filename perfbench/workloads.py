"""The benchmark's workloads: fixed sequences of ``phonon_timebin.cli.main``
argument lists, run one after another (a closed loop with one client).

A workload's inputs depend only on the seed, which every command receives
as ``--seed``, and on the output directory it writes into.
"""

from __future__ import annotations

from pathlib import Path

CONFIGS = Path("src") / "phonon_timebin" / "configs"

RECORD_TRIALS = 20000
ORACLE_SEED = 20260809
NO_JITTER = ["--override", "noise.write_phase_jitter_fwhm=0",
             "--override", "noise.read_phase_jitter_fwhm=0"]

# (step name, command kind, argv without --out; the workload seed is
# appended as --seed where the argv has none)
WORKLOADS: dict[str, list[tuple[str, str, list[str]]]] = {
    # Production Gaussian path at 4 channels: 40 settings x 21 quadrature
    # nodes of exact distributions, then ~21,000 chunked multinomial draws.
    "bell_session": [
        ("calibrate", "calibrate",
         ["calibrate", "--config", str(CONFIGS / "calibration.yaml")]),
        ("bell", "simulate",
         ["simulate", "--config", str(CONFIGS / "bell_test.yaml")]),
        ("timebin", "simulate",
         ["simulate", "--config", str(CONFIGS / "timebin_entanglement.yaml")]),
    ],
    # Per-trial record sampling and file output, plus the 8-channel
    # all-subsets click transform; then the waveguide g2 curve.
    "xcorr_records": [
        ("xcorr", "simulate",
         ["simulate", "--config", str(CONFIGS / "cross_correlation.yaml"),
          "--override", f"record_trials={RECORD_TRIALS}"]),
        ("thermal", "simulate",
         ["simulate", "--config", str(CONFIGS / "thermal_g2.yaml")]),
    ],
    # The Fock engine: random cross-engine circuits and the fringe suite,
    # then a Fock Bell test through the staged measure/partial-trace path.
    # The oracle's seed draws its circuits, whose size sets the work (2-3x
    # between seeds), so it keeps one fixed seed.
    "fock_oracle": [
        ("oracle", "oracle_check",
         ["oracle-check", "--scale", "smoke", "--seed", str(ORACLE_SEED)]),
        ("fock_bell", "simulate",
         ["simulate", "--config", str(CONFIGS / "bell_test.yaml"), "--engine", "fock",
          *NO_JITTER, "--override", "trials=0"]),
    ],
}


def commands(workload: str, seed: int, out_dir: Path) -> list[tuple[str, str, list[str]]]:
    """The workload's steps as (step, kind, argv), each writing to its own
    directory under ``out_dir``."""
    return [(step, kind, [*argv, *([] if "--seed" in argv else ["--seed", str(seed)]),
                          "--out", str(out_dir / step)])
            for step, kind, argv in WORKLOADS[workload]]
