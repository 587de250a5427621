"""Every key of every shipped config, driven through the CLI and through
``with_overrides``.

The expected outcomes are written out here, apart from the key table in
``core``, so that a domain rule dropped there shows as a run that exits 0
where this file expects 2.
"""

import copy
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest
import yaml

from phonon_timebin import cli
from phonon_timebin.core import config_from_dict, config_to_dict, load_config, with_overrides

CONFIGS = Path(cli.__file__).parent / "configs"
SHIPPED = ("bell_test", "calibration", "cross_correlation", "thermal_g2", "timebin_entanglement")

#: the override values every key is run with
VALUES = ("nan", ".inf", "-1", "0", "1e300", "abc", "[1, 2, 3]", "2")

#: the values of VALUES that a key accepts on the shipped configs; a key not
#: listed accepts none.  Phases are in units of pi; only the small counts
#: and cutoffs are accepted, so no run starts large work
ACCEPTS = {
    "engine.truncation": {"2"}, "engine.total_cap": {"2"},
    "trials": {"0", "2"}, "seed": {"0", "2"}, "record_trials": {"0", "2"},
    "repetition_period": {"1e300", "2"}, "splitting_asymmetry": {"0"},
    "cavity.wavelength": {"1e300", "2"}, "cavity.g0": {"1e300", "2"},
    "cavity.mech_frequency": {"1e300", "2"},
    "cavity.kappa": {"1e300"}, "cavity.kappa_i": {"2"},  # kappa_i <= kappa
    # every other round_trip_time breaks T1 > tau (and the tau/2 pulse spacing)
    "waveguide.group_velocity": {"1e300", "2"}, "waveguide.length": {"1e300", "2"},
    "waveguide.T1": {".inf", "1e300", "2"}, "waveguide.retrieval_efficiency": {"0"},
    "phases.phi_w": {"-1", "0", "2", "[1, 2, 3]"}, "phases.phi_r": {"-1", "0", "2"},
    "phases.phi_off": {"-1", "0", "2"},
    "noise.interferometer_visibility": {"0"}, "noise.dark_count_prob": {"0"},
    "noise.write_phase_jitter_fwhm": {"0", "2"}, "noise.read_phase_jitter_fwhm": {"0", "2"},
    "noise.detector_efficiency": {"0"}, "noise.filter_pulse_efficiency": {"0"},
    "noise.leakage_prob.write": {"0"}, "noise.leakage_prob.read": {"0"},
    "noise.coupling_efficiency": {"0"},
    # fsr_hz = 2 or 1e300 puts the first revival outside the delay grid; a
    # 2 Hz envelope leaves no mode any weight
    "extra.n_modes": {"2"},
}

#: keys a config may leave out, overridden on each config too
OPTIONAL = ("engine.total_cap", "perturbative_guard", "phases.settings", "waveguide.length")


def leaves(node, prefix=""):
    """The dotted paths of a mapping's non-mapping values."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def raw(name):
    return yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())


def config_keys(name):
    """Every key of the file and of its dict form, with the optional ones
    and, on the thermal g2 config, its grid's max_delay and its spectrum
    file (no value of VALUES names one)."""
    thermal = ["extra.max_delay", "extra.spectrum_file"] if name == "thermal_g2" else []
    keys = {*leaves(raw(name)), *leaves(config_to_dict(load_config(CONFIGS / f"{name}.yaml"))),
            *OPTIONAL, *thermal}
    return sorted(keys)


def accepted(name, key):
    # a phase scan takes precedence over phi_w and phi_r, so the override is
    # refused on the config with one
    if name == "timebin_entanglement" and key in ("phases.phi_w", "phases.phi_r"):
        return set()
    return ACCEPTS.get(key, set())


@pytest.mark.filterwarnings("ignore:waveguide geometry inconsistent")
@pytest.mark.parametrize("name", SHIPPED)
def test_every_key_exits_2_outside_its_domain_and_0_inside(tmp_path, capsys, name):
    wrong = []
    for key in config_keys(name):
        for value in VALUES:
            with redirect_stdout(io.StringIO()):
                code = cli.main(["simulate", "--config", str(CONFIGS / f"{name}.yaml"),
                                 "--override", "trials=0", "--override", f"{key}={value}",
                                 "--out", str(tmp_path)])
            want = 0 if value in accepted(name, key) else 2
            if code != want:
                wrong.append((key, value, code))
    capsys.readouterr()
    assert wrong == []


def edited(data, key, value):
    """``data`` with dotted ``key`` set, as an edit of the file would: an
    engine given by name becomes a mapping, a section left out is added."""
    data = copy.deepcopy(data)
    *parents, leaf = key.split(".")
    node = data
    for part in parents:
        if isinstance(node.get(part), str):
            node[part] = {"name": node[part]}
        node = node.setdefault(part, {})
    node[leaf] = value
    return data


@pytest.mark.filterwarnings("ignore:waveguide geometry inconsistent")
@pytest.mark.parametrize("name", SHIPPED)
def test_an_override_reads_as_the_edited_file(name):
    config = load_config(CONFIGS / f"{name}.yaml")
    compared = 0
    for key in config_keys(name):
        for value in accepted(name, key):
            want = config_from_dict(edited(raw(name), key, yaml.safe_load(value)))
            assert with_overrides(config, {key: value}) == want, (key, value)
            compared += 1
    assert compared >= 39


@pytest.mark.parametrize("name", ["bell_test", "calibration", "cross_correlation"])
def test_a_phi_w_list_override_is_a_scan(name):
    config = with_overrides(load_config(CONFIGS / f"{name}.yaml"), {"phases.phi_w": "[1,2,3]"})
    assert config.phases.settings is not None and len(config.phases.settings) == 3
    assert config == config_from_dict(edited(raw(name), "phases.phi_w", [1, 2, 3]))


def energy_only(name):
    """The file of a pulsed shipped config with each pulse given by its
    energy alone."""
    data = raw(name)
    for pulse in data["pulses"]:
        del pulse["scattering_probability"]
    return data


@pytest.mark.filterwarnings("ignore:scattering probability .* clipped")
@pytest.mark.parametrize("key, value", [
    pytest.param("calibration_anchors", "{write: [[15.0e-15, 0.003]]}", id="anchors"),
    pytest.param("perturbative_guard", "0.001", id="guard")])
@pytest.mark.parametrize("name", [name for name in SHIPPED if name != "thermal_g2"])
def test_an_override_of_what_energies_convert_with_reads_as_the_edited_file(
        tmp_path, name, key, value):
    # the pulses convert their energies with the new anchors or guard, as
    # the edited file's do, and so do those of the config's dict form edited
    data = energy_only(name)
    (tmp_path / "energies.yaml").write_text(yaml.safe_dump(data))
    (tmp_path / "edited.yaml").write_text(
        yaml.safe_dump(edited(data, key, yaml.safe_load(value))))
    config, want = load_config(tmp_path / "energies.yaml"), load_config(tmp_path / "edited.yaml")
    assert want != config
    assert with_overrides(config, {key: value}) == want
    assert config_from_dict(edited(config_to_dict(config), key, yaml.safe_load(value))) == want
