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

# first 16 hex digits of SHA-256, `simulate --seed 7 --override record_trials=2000`
GOLDEN = {
    "cross_correlation": {"counts.csv": "b43c93c2caaf4459",
                          "events.txt": "4c5acfe98852cf01",
                          "trials.txt": "97018ef5c49da3d5"},
    "bell_test": {"counts.csv": "943d68685466cea1",
                  "events.txt": "cf8844877ff48d7c",
                  "trials.txt": "6da9071e7cfa4d1f"},
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sampled_files_are_unchanged(tmp_path, name):
    out = tmp_path / name
    assert cli.main(["simulate", "--config", str(CONFIGS / f"{name}.yaml"), "--seed", "7",
                     "--override", "record_trials=2000", "--out", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()[:16] for f in GOLDEN[name]}
    assert got == GOLDEN[name], f"sampled files of {name} changed (NumPy {np.__version__})"
