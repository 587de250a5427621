"""Golden fingerprint of the sampled output files.

The sampled files of a fixed (config, seed) are part of the program's
behaviour: a change to the record sampler, the per-setting multinomial
draws or the file format shows here.  A NumPy release that changes its
generators also shows here, so the failure message names the NumPy version.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from phonon_timebin import cli

CONFIGS = Path(cli.__file__).parent / "configs"

# (config, extra overrides, first 16 hex digits of SHA-256 of each file) of
# `simulate --seed 7 --override record_trials=2000` plus the extra overrides
GOLDEN = {
    "cross_correlation": ("cross_correlation", [],
                          {"counts.csv": "b43c93c2caaf4459",
                           "events.txt": "98050b5a04fad95e",
                           "trials.txt": "d23a0c0b0a6f3e2b"}),
    "bell_test": ("bell_test", [],
                  {"counts.csv": "943d68685466cea1",
                   "events.txt": "ca038fd51e2d61cd",
                   "trials.txt": "f14f442705fde05e"}),
    # bell_test's own noise leaves 3 click lines in events.txt; 2% dark
    # counts per gate give 639, so this key pins the pattern draw
    "bell_test_dark_counts": ("bell_test", ["--override", "noise.dark_count_prob=0.02"],
                              {"counts.csv": "b8b53fc0d04417da",
                               "events.txt": "244cdf9cb5ee1e44",
                               "trials.txt": "f14f442705fde05e"}),
    # the Fock engine's record path: its herald branches, their read passes
    # and the pattern draw (149 click lines; 500 records per setting)
    "bell_test_fock_dark_counts": ("bell_test", ["--engine", "fock", "--override",
                                                 "noise.dark_count_prob=0.02",
                                                 "--override", "record_trials=500"],
                                   {"counts.csv": "6ecc6d5127ab27fe",
                                    "events.txt": "be662256a2284cc4",
                                    "trials.txt": "6f5de1cd730f8797"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sampled_files_are_unchanged(tmp_path, name):
    config, overrides, keys = GOLDEN[name]
    out = tmp_path / name
    assert cli.main(["simulate", "--config", str(CONFIGS / f"{config}.yaml"), "--seed", "7",
                     "--override", "record_trials=2000", *overrides, "--out", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()[:16] for f in keys}
    assert got == keys, f"sampled files of {name} changed (NumPy {np.__version__})"
