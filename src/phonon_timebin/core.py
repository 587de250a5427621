"""Domain types, validation and config ingestion shared by all modules.

Everything here is a plain immutable value object.  Each config key is
declared once, on the dataclass field of the file section that holds it
(see Key): the perturbative guard on ExperimentConfig, the phase scan on
PhaseSettings.  ``__post_init__`` checks each domain and the rules across
keys, so the objects can be shared freely between trial workers.  A pulse
keeps the keys its file gives; the config converts an energy given alone
into its scattering probability once, on construction.  Every number is
finite but waveguide.T1 (inf means no decay); counts, Fock cutoffs, phases
(1e6 rad) and the extra keys the CLI reads are bounded.  An override reads
as the file with that key edited.

Units: strictly SI inside the process (seconds, Hz, joules, radians).  The
on-disk config format uses SI as well, except angles, which are written in
units of pi (``phi_r: 0.5`` means pi/2) because that is how phase settings
are usually quoted.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import warnings
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import cache
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml

TWO_PI = 2.0 * math.pi

# Energy -> scattering-probability anchor pairs (energy [J], probability).
# Measured operating points of the reference device, one set per pulse role.
DEFAULT_CALIBRATION_ANCHORS = {
    "write": ((15e-15, 0.0013), (26e-15, 0.002)),
    "read": ((112e-15, 0.007), (225e-15, 0.014)),
}

DEFAULT_PERTURBATIVE_GUARD = 0.05

#: every YAML read and write: libyaml's safe loader and dumper where PyYAML
#: has them, else its Python ones
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def yaml_load(text: str):
    return yaml.load(text, Loader=YAML_LOADER)


def yaml_dump(data) -> str:
    """Block-style YAML with the keys in insertion order."""
    return yaml.dump(data, Dumper=YAML_DUMPER, sort_keys=False)


#: rows per ``%`` format in ``write_rows``, which bounds its temporaries
WRITE_BLOCK_LINES = 1024


def write_rows(fh, line: str, *columns: np.ndarray) -> None:
    """Write ``line % row`` for each row of the equal-length array columns,
    one ``%`` format per block of WRITE_BLOCK_LINES rows."""
    for start in range(0, len(columns[0]), WRITE_BLOCK_LINES):
        block = [column[start:start + WRITE_BLOCK_LINES].tolist() for column in columns]
        fh.write(line * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


class ConfigError(ValueError):
    """Config file failed to parse or a value violates an invariant."""


class ValidationError(ConfigError):
    """A domain invariant is violated; the message names the invariant."""


class PulseRole(str, Enum):
    WRITE_EARLY = "WriteEarly"
    WRITE_LATE = "WriteLate"
    READ_EARLY = "ReadEarly"
    READ_LATE = "ReadLate"

    @property
    def is_write(self) -> bool:
        return self in (PulseRole.WRITE_EARLY, PulseRole.WRITE_LATE)


PULSE_ORDER = (
    PulseRole.WRITE_EARLY,
    PulseRole.WRITE_LATE,
    PulseRole.READ_EARLY,
    PulseRole.READ_LATE,
)


class ExperimentKind(str, Enum):
    THERMAL_G2_TAU = "ThermalG2Tau"
    DOUBLE_CROSS_CORRELATION = "DoubleCrossCorrelation"
    TIME_BIN_ENTANGLEMENT = "TimeBinEntanglement"
    BELL_TEST = "BellTest"
    CALIBRATION = "Calibration"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


# ---------------------------------------------------------------------------
# config keys: config_from_dict, config_to_dict and with_overrides walk them


class _Radians(float):
    """An angle of with_overrides' dict form, which holds radians: an angle
    no override sets comes back bit-exact (x / pi * pi is not always x)."""


def _angles(value, f):
    """``f`` of an angle, or of each angle of a list or of its rows."""
    return [_angles(v, f) for v in value] if isinstance(value, (list, tuple)) else f(value)


def _in_radians(value) -> float:
    return value if type(value) is _Radians else float(value) * math.pi


def _integer(value) -> int:
    """An integer: ints, integral floats and numeric strings (PyYAML reads
    4.0e10 as a string); a fractional value is an error, never truncated."""
    if isinstance(value, str):
        value = int(value) if value.strip().lstrip("+-").isdigit() else float(value)
    if (isinstance(value, float) and value.is_integer()
            or isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        return int(value)
    raise ValueError(f"must be an integer, got {value!r}")


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be text, got {value!r}")
    return value


def _two(value) -> tuple[float, float]:
    a, b = value
    return float(a), float(b)


def _pair(value) -> tuple[float, float]:
    """One number for both detectors, or a [detector 1, detector 2] pair."""
    return (float(value),) * 2 if isinstance(value, (int, float)) else _two(value)


def _pairs(value) -> tuple[tuple[float, float], ...]:
    return tuple(map(_two, value))


def _bound(end: str):
    base, _, power = end.strip().partition("**")
    return int(base) ** int(power) if power else float(base)


class Key:
    """One config key.  ``read`` turns its file value into the field's (a
    TypeError or ValueError names the key); without it, a dataclass default
    makes the key a section.  ``domain`` is an interval, such as "(0, inf)"
    or "[0, 2**63)", holding each number of the value: NaN lies in none, an
    infinity only in an end "inf]".  ``choices`` lists a text key's values;
    an ``angle`` is written in units of pi; ``keys`` declares a mapping's
    keys and ``open`` lets it hold others.  Each key sits on the dataclass
    of the file section that holds it.  A key without a default is required."""

    def __init__(self, read=None, domain=None, *, default=MISSING, required=False,
                 angle=False, choices=None, keys=None, open=False):
        self.section = type(default) if read is None and is_dataclass(default) else None
        self.reader = read or (float if domain else lambda value: value)
        self.domain, self.default, self.angle = domain, default, angle
        self.required, self.choices, self.keys, self.open = \
            required or default is MISSING, choices, keys, open
        if domain:
            self.bounds = *(_bound(end) for end in domain[1:-1].split(",")), domain[0] + domain[-1]

    def within(self, v) -> bool:
        low, high, ends = self.bounds
        return (low < v or ends[0] == "[" and v == low) and (v < high or ends[1] == "]" and v == high)

    def read(self, value, path: str):
        """The field value of file value ``value`` at dotted ``path``."""
        try:
            value = self.reader(_angles(value, _in_radians) if self.angle else value)
            if self.section:
                return self.section(**_kwargs(self.section, value, path))
            if self.keys is None:
                return value
            # null reads as left out, and a key left out as the default's
            return {**(self.default or {}), **{
                k: self.keys[k].read(v, f"{path}.{k}") if k in self.keys else v
                for k, v in dict(value).items() if v is not None}}
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def check(self, value, path: str) -> None:
        """Raise ValidationError unless ``value``, or each number of its
        tuples, lies in the key's domain."""
        if isinstance(value, (list, tuple)):
            for v in value:
                self.check(v, path)
        elif self.domain and not (value is None or isinstance(value, Enum) or self.within(value)):
            raise ValidationError(f"{path} out of range: {value:g} not in "
                                  f"{self.domain}{' rad' * self.angle}")
        for name, v in (value or {}).items() if self.keys is not None else ():
            if name not in self.keys and not self.open:
                raise ValidationError(f"{path}: unknown key {name!r}, not one of "
                                      f"{', '.join(self.keys)}")
            if name in self.keys:
                self.keys[name].check(v, f"{path}.{name}")
        if self.choices and value not in self.choices:
            raise ValidationError(f"{path} must be one of {', '.join(self.choices)}, "
                                  f"got {value!r}")

    def parse(self, value, path: str):
        """``value`` read and checked, for a value that no dataclass checks."""
        value = self.read(value, path)
        self.check(value, path)
        return value


def _key(default=MISSING, domain=None, read=None, **kw):
    """A dataclass field that declares its config key."""
    spec = Key(read, domain, default=default, **kw)
    if isinstance(default, dict):
        return field(default_factory=lambda: dict(default), metadata={"key": spec})
    return field(default=default, metadata={"key": spec})


@cache
def _keys(cls) -> dict[str, Key]:
    """The declared keys of a dataclass's fields, in field order."""
    return {f.name: f.metadata["key"] for f in fields(cls) if "key" in f.metadata}


def _check(obj, prefix: str = "") -> None:
    """Check each declared field of ``obj`` against its key's domain."""
    for name, spec in _keys(type(obj)).items():
        value = getattr(obj, name)
        if type(value) is not float or not spec.domain or not spec.within(value):
            spec.check(value, prefix + name)


def _kwargs(cls, raw, path: str, complete: bool = True) -> dict:
    """The fields of ``cls`` that its file mapping ``raw`` at dotted ``path``
    sets, each read through its key; null reads as left out.  A required
    key may be left out of a mapping that is not ``complete``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'a config'} must be a mapping, got {raw!r}")
    keys, prefix = _keys(cls), path + "." if path else ""
    if not raw.keys() <= keys.keys():
        raise ConfigError(f"unknown keys in {path or 'the config'}: {list(raw.keys() - keys)}")
    for name, spec in keys.items():
        if spec.required and raw.get(name) is None and (complete or name in raw):
            raise ConfigError(f"missing required key {prefix + name!r}")
    return {name: spec.read(raw[name], prefix + name)
            for name, spec in keys.items() if raw.get(name) is not None}


@dataclass(frozen=True)
class CavityParams:
    """Optomechanical cavity figures; only metadata plus the energy calibration
    depend on them, there is no intracavity field dynamics in this artifact."""

    wavelength: float = _key(1556.06e-9, "(0, inf)")
    kappa: float = _key(1.05e9, "(0, inf)")
    kappa_i: float = _key(250e6, "(0, inf)")
    g0: float = _key(380e3, "(0, inf)")
    mech_frequency: float = _key(5.154e9, "(0, inf)")

    def __post_init__(self):
        _check(self, "cavity.")
        _require(self.kappa_i <= self.kappa, "cavity.kappa_i must not exceed cavity.kappa")


@dataclass(frozen=True)
class WaveguideParams:
    """Phononic waveguide: an ideal tau-delay with energy decay T1 plus an
    optional extra retrieval factor standing in for modal dispersion.

    ``retrieval_efficiency`` multiplies the round-trip energy survival on top
    of exp(-tau/T1).  How much of the observed readout inefficiency is
    dispersion rather than T1 is not independently known, so the split is a
    free config knob rather than a derived quantity.  T1 = inf means no
    decay; a length left out stays unset, and only a stated one is checked
    against 2 * length / group_velocity = round_trip_time.
    """

    round_trip_time: float = _key(126e-9, "(0, inf)")
    group_velocity: float = _key(2000.0, "(0, inf)")
    length: float | None = _key(None, "(0, inf)")
    T1: float = _key(2.2e-6, "(0, inf]")
    retrieval_efficiency: float = _key(1.0, "[0, 1]")

    def __post_init__(self):
        _check(self, "waveguide.")
        _require(self.T1 > self.round_trip_time, "waveguide.T1 must exceed the round-trip time")
        if self.length is None:
            return
        expected = 2.0 * self.length / self.group_velocity
        if not (0.8 * expected <= self.round_trip_time <= 1.2 * expected):
            warnings.warn(
                "waveguide geometry inconsistent: tau=%.3g s but 2*length/group_velocity=%.3g s"
                % (self.round_trip_time, expected),
                stacklevel=2,
            )

    @property
    def round_trip_survival(self) -> float:
        """Energy survival of one round trip, T1 decay times retrieval factor."""
        return math.exp(-self.round_trip_time / self.T1) * self.retrieval_efficiency


@dataclass(frozen=True)
class PulseSpec:
    """One control pulse as its file gives it: by scattering probability, by
    energy, or by both, when the probability counts.  The config converts
    the energy of a pulse given by energy alone and checks every pulse
    against its perturbative guard; ``config.pulse(role)`` is the pulse so
    resolved."""

    role: PulseRole = _key(read=PulseRole)
    center_time: float = _key(domain="(-inf, inf)")
    duration_fwhm: float = _key(30e-9, "(0, inf)")
    energy: float | None = _key(None, "[0, inf)")
    scattering_probability: float | None = _key(None, "[0, 1)")

    def __post_init__(self):
        _check(self, "pulses.")
        if self.scattering_probability is None and self.energy is None:
            raise ConfigError(f"pulse {self.role.value}: needs scattering_probability or energy")


@dataclass(frozen=True)
class PhaseSettings:
    """Phases of the late pulses and the interferometer offset, and the
    scan of (phi_w, phi_r) settings when the file gives one, each angle
    within [-1e6, 1e6] rad for the reason NoiseModel gives for its jitter
    FWHMs.  A scan takes precedence over phi_w and phi_r.

    ``phi_0`` is always derived: it is the write phase at which the
    correlation coefficient crosses zero with negative slope,
    phi_0 = 2*phi_off + pi/2 (mod 2pi).
    """

    phi_w: float = _key(0.0, "[-1e6, 1e6]", angle=True)
    phi_r: float = _key(0.0, "[-1e6, 1e6]", angle=True)
    phi_off: float = _key(0.0, "[-1e6, 1e6]", angle=True)
    settings: tuple[tuple[float, float], ...] | None = _key(
        None, "[-1e6, 1e6]", _pairs, angle=True)

    def __post_init__(self):
        _check(self, "phases.")

    @property
    def phi_0(self) -> float:
        return (2.0 * self.phi_off + math.pi / 2.0) % TWO_PI

    def chsh_settings(self) -> tuple[tuple[float, float], ...]:
        """Default CHSH phase pairs (phi_w, phi_r) in the S sign convention
        E(a,b) - E(a',b) + E(a,b') + E(a',b')."""
        a = self.phi_0 + math.pi / 4.0
        a_p = self.phi_0 - math.pi / 4.0
        return ((a, 0.0), (a_p, 0.0), (a, math.pi / 2.0), (a_p, math.pi / 2.0))


@dataclass(frozen=True)
class NoiseModel:
    """Every imperfection the protocol folds in.

    thermal_schedule maps each pulse role to the mechanical occupancy reached
    after that pulse (including its delayed heating); the interaction that
    follows sees the previous entry, and the first write sees the ground
    state.  Detector/dark-count figures are assumptions, not measured values,
    and are flagged as such in run manifests.

    Each phase-jitter FWHM is finite and within [0, 1e6] rad.  A few radians
    already average the fringe away; up to the bound every jitter phase the
    record sampler draws (under 5 FWHM) keeps 1e-9 rad, while far larger
    FWHMs round the phases away (about 1e16 rad) and then overflow them
    (about 1e307 rad).  The jitter average forms no jitter phase: it damps
    the harmonics of the fringe, so it holds at any FWHM.
    """

    thermal_schedule: tuple[tuple[PulseRole, float], ...] = _key((
        (PulseRole.WRITE_EARLY, 0.022),
        (PulseRole.WRITE_LATE, 0.040),
        (PulseRole.READ_EARLY, 0.066),
        (PulseRole.READ_LATE, 0.095),
    ), "[0, inf)", lambda rows: tuple((PulseRole(r), float(n)) for r, n in rows))
    interferometer_visibility: float = _key(0.94, "[0, 1]")
    write_phase_jitter_fwhm: float = _key(math.pi / 7.0, "[0, 1e6]", angle=True)
    read_phase_jitter_fwhm: float = _key(math.pi / 20.0, "[0, 1e6]", angle=True)
    detector_efficiency: tuple[float, float] = _key((0.85, 0.85), "[0, 1]", _pair)
    dark_count_prob: float = _key(1e-6, "[0, 1]")
    leakage_prob: Mapping[str, tuple[float, float]] = _key(
        {"write": (2e-7, 4e-7), "read": (1.4e-6, 2.6e-6)},
        keys={role: Key(_pair, "[0, 1]") for role in ("write", "read")})
    coupling_efficiency: float = _key(0.5, "[0, 1]")
    filter_pulse_efficiency: tuple[float, float] = _key((0.39, 0.65), "[0, 1]", _pair)

    def __post_init__(self):
        _check(self, "noise.")
        occ = [v for _, v in self.thermal_schedule]
        if any(b < a for a, b in zip(occ, occ[1:])):
            warnings.warn("thermal_schedule is not non-decreasing across the four pulses",
                          stacklevel=2)

    def occupancy_after(self, role: PulseRole) -> float:
        for r, v in self.thermal_schedule:
            if r is role:
                return v
        raise KeyError(role)

    def occupancy_seen_by(self, role: PulseRole) -> float:
        """Occupancy the given pulse interacts with: the schedule entry of the
        preceding pulse (ground state before the first write)."""
        idx = PULSE_ORDER.index(role)
        if idx == 0:
            return 0.0
        return self.occupancy_after(PULSE_ORDER[idx - 1])

    def channel_efficiency(self, detector: int) -> float:
        """Filter-pulse times detector efficiency of detector 1 or 2."""
        return (self.filter_pulse_efficiency[detector - 1]
                * self.detector_efficiency[detector - 1])

    def background_prob(self, channel: str) -> float:
        """Dark-count plus pump-leakage click probability of a
        "window:detector" channel."""
        window, det = channel.rsplit(":", 1)
        role = "write" if window.startswith("write") else "read"
        return self.dark_count_prob + self.leakage_prob[role][int(det) - 1]


@dataclass(frozen=True)
class EngineSpec:
    """The engine; the Fock engine's per-mode truncation and cap on the total
    quanta stop at 20, far above any run's need, before a vast basis."""

    name: str = _key("gaussian", choices=("fock", "gaussian"))
    truncation: int = _key(4, "[1, 20]", _integer)
    total_cap: int | None = _key(None, "[1, 20]", _integer)

    def __post_init__(self):
        _check(self, "engine.")


def _phases(value) -> PhaseSettings:
    """The phases section.  Its scan is ``settings``, else every phi_w of a
    phi_w list at each phi_r (one or a list); a phi_w or phi_r left out, or
    a list, is the scan's first."""
    ph = dict(value)
    scan, where = ph.pop("settings", None), "phases.settings"
    if scan is None and isinstance(ph.get("phi_w"), (list, tuple)):
        rs = ph.get("phi_r", 0.0)
        scan, where = [(w, r) for r in (rs if isinstance(rs, (list, tuple)) else [rs])
                       for w in ph["phi_w"]], "phases.phi_w"
    if scan is not None:
        scan = _keys(PhaseSettings)["settings"].parse(scan, where)
        if not scan:
            raise ConfigError(f"{where}: a phase scan needs at least one setting")
        for name, first in zip(("phi_w", "phi_r"), scan[0]):
            if ph.get(name) is None or isinstance(ph[name], (list, tuple)):
                ph[name] = _Radians(first)
    return PhaseSettings(**_kwargs(PhaseSettings, ph, "phases"), settings=scan)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, its fields in the key order of its file; trial counts
    are bounded by the multinomial draw's signed 64-bit count.

    ``pulses`` are as the file gives them; ``pulse(role)`` returns each one
    resolved, an energy given alone converted once, on construction, with
    the config's ``calibration_anchors`` and ``perturbative_guard``, which
    every pulse's scattering probability must stay below."""

    kind: ExperimentKind = _key(read=ExperimentKind)
    engine: EngineSpec = _key(EngineSpec(), required=True, read=lambda v: EngineSpec(  # or a name
        **_kwargs(EngineSpec, {"name": v} if isinstance(v, str) else v, "engine")))
    trials: int = _key(1_000_000, "[0, 2**63)", _integer, required=True)
    seed: int = _key(0, "[0, 2**64)", _integer, required=True)
    repetition_period: float = _key(15e-6, "(0, inf)")
    splitting_asymmetry: float = _key(0.0, "[0, 0.005]")
    record_trials: int = _key(0, "[0, 2**63)", _integer)
    cavity: CavityParams = _key(CavityParams(), required=True)
    waveguide: WaveguideParams = _key(WaveguideParams(), required=True)
    pulses: tuple[PulseSpec, ...] = _key((), required=True, read=lambda rows: tuple(
        PulseSpec(**_kwargs(PulseSpec, row, "pulses")) for row in rows))
    phases: PhaseSettings = _key(PhaseSettings(), read=_phases, required=True)
    noise: NoiseModel = _key(NoiseModel(), required=True)
    perturbative_guard: float = _key(DEFAULT_PERTURBATIVE_GUARD, "(0, 1]")
    #: open to any key; those the thermal g2 run and the witness R read are
    #: declared with their defaults (see extra_value)
    extra: Mapping[str, object] = _key({}, open=True, keys={
        "witness_g2": Key(_two, "(0, inf)", default=None),
        "n_modes": Key(_integer, "[2, 1000]", default=12),
        "fsr_hz": Key(domain="(0, inf)", default=7.94e6),
        "envelope": Key(choices=("equal", "gaussian"), default="gaussian"),
        # 1 THz, far above a phononic spectrum, keeps the envelope's square finite
        "envelope_sigma_hz": Key(domain="(0, 1e12]", default=9.0e6),
        "max_delay": Key(domain="(0, inf)",
                         default=lambda config: 5.5 * config.waveguide.round_trip_time),
        "delay_step": Key(domain="(0, inf)", default=0.5e-9),
        "spectrum_file": Key(_text, default=None),
    })
    #: the anchors pulse energies convert with, when not the defaults
    calibration_anchors: Mapping[str, tuple[tuple[float, float], ...]] | None = _key(
        None, keys={role: Key(_pairs, "(0, inf)") for role in ("write", "read")})
    _resolved: tuple[PulseSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check(self)
        guard = self.perturbative_guard
        object.__setattr__(self, "_resolved", tuple(
            p if p.scattering_probability is not None else replace(
                p, scattering_probability=scattering_probability_from_energy(
                    p.energy, "write" if p.role.is_write else "read",
                    self.calibration_anchors, guard))
            for p in self.pulses))
        for p in self._resolved:
            _require(p.scattering_probability < guard,
                     "pulse.scattering_probability %.4g breaks the perturbative guard %.4g "
                     "(raise perturbative_guard explicitly to override)"
                     % (p.scattering_probability, guard))
        if self.pulses:
            tau = self.waveguide.round_trip_time
            by_role = {p.role: p for p in self.pulses}
            for early, late in ((PulseRole.WRITE_EARLY, PulseRole.WRITE_LATE),
                                (PulseRole.READ_EARLY, PulseRole.READ_LATE)):
                if early in by_role and late in by_role:
                    dt = by_role[late].center_time - by_role[early].center_time
                    _require(abs(dt - tau / 2.0) <= 1e-12,
                             f"{late.value} must follow {early.value} by tau/2 exactly")
        if self.kind is ExperimentKind.THERMAL_G2_TAU:
            # the g2 run's delay grid: at most 1e6 delays, with the synthetic
            # spectrum's first revival, at 1/fsr_hz, inside it
            step, span = self.extra_value("delay_step"), self.extra_value("max_delay")
            _require(span / 1e6 <= step < span, f"extra.delay_step must lie in "
                     f"[max_delay / 1e6, max_delay) = [{span / 1e6:g}, {span:g}) s, got {step:g}")
            revival = 1.0 / self.extra_value("fsr_hz")
            _require("spectrum_file" in self.extra or step < revival < span, f"extra.fsr_hz: "
                     f"1/fsr_hz = {revival:g} s must lie in (delay_step, max_delay)")
        # ~7 lifetimes between trials keeps them independent; the reference
        # spacing (15 us at T1 = 2.2 us) sits right at that margin.  Only
        # sampled trials can depend on each other; stacklevel 3 skips the
        # generated __init__ and names the caller
        sampled = self.trials > 0 or self.record_trials > 0
        if sampled and self.repetition_period < 6.8 * self.waveguide.T1:
            warnings.warn("repetition_period below ~7*T1; trials may not be independent",
                          stacklevel=3)

    def extra_value(self, name: str):
        """extra.<name>, or its declared default when the config leaves it out."""
        default = _keys(ExperimentConfig)["extra"].keys[name].default
        return self.extra.get(name, default(self) if callable(default) else default)

    def pulse(self, role: PulseRole) -> PulseSpec:
        """The pulse of ``role``, its scattering probability resolved."""
        for p in self._resolved:
            if p.role is role:
                return p
        raise KeyError(role)

    @property
    def p_w(self) -> float:
        return self.pulse(PulseRole.WRITE_EARLY).scattering_probability

    @property
    def p_r(self) -> float:
        return self.pulse(PulseRole.READ_EARLY).scattering_probability


#: the largest round-off negative a pattern probability may carry; an entry
#: below minus this is no probability
NEGATIVE_MASS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Exact probabilities over threshold-detector click patterns.

    ``labels`` names the detector channels (window/detector pairs at the
    protocol level, plain detector ids at the engine level).
    ``probabilities`` is one vector of length 2**len(labels) indexed by the
    pattern code, in which channel 0 is the most significant bit: the
    pattern's bit string (``counts.csv``) read as binary is its index.  A
    batched Gaussian circuit gives a (B, 2**n) batch instead, one row per
    element; background folding and mixing act on the whole batch, while
    marginals and sampling take one vector only.
    Sampled counts are int vectors in the same order.
    ``truncation`` is set by the Fock engine only: the largest truncation
    weight and the largest |1 - trace| among the states it detected to
    produce the distribution.  An entry below -NEGATIVE_MASS_TOL, or a row
    total more than 1e-8 off 1, raises.
    """

    labels: tuple[str, ...]
    probabilities: np.ndarray
    truncation: tuple[float, float] | None = None

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim not in (1, 2) or p.shape[-1] != 1 << len(self.labels):
            raise ValueError(f"{len(self.labels)} channels need 2**n pattern "
                             f"probabilities, got shape {p.shape}")
        totals = np.atleast_1d(p.sum(axis=-1))
        off = ~(np.abs(totals - 1.0) <= 1e-8)  # NaN totals too
        if off.any():
            raise ValueError(f"pattern probabilities sum to {float(totals[off][0])!r}, not 1")
        if p.min() < -NEGATIVE_MASS_TOL:
            raise ValueError(f"negative pattern probability {p.min():.3g}")
        object.__setattr__(self, "probabilities", p)

    def _vector(self) -> np.ndarray:
        """The one probability vector; a batch must be split first, else a
        pattern mask would index its rows."""
        if self.probabilities.ndim != 1:
            raise ValueError(f"a batch of {len(self.probabilities)} distributions "
                             "has no single pattern vector; take one row")
        return self.probabilities

    def clicked(self, channel: str) -> np.ndarray:
        """Boolean mask over pattern codes: True where ``channel`` clicks."""
        shift = len(self.labels) - 1 - self.labels.index(channel)
        return (np.arange(len(self._vector())) >> shift) & 1 == 1

    def prob(self, **clicks: bool) -> float:
        """Marginal probability of the given click assignment, e.g. prob(d1=True)."""
        p = self._vector()
        sel = np.ones(len(p), dtype=bool)
        for channel, value in clicks.items():
            sel &= self.clicked(channel) == value
        return float(p[sel].sum())

    def with_background(self, extra_click_prob: Sequence[float]) -> "OutcomeDistribution":
        """OR an independent Bernoulli click (dark counts, leakage) onto each
        channel, of every row of a batch at once."""
        p = self.probabilities.copy()
        for k, beta in enumerate(extra_click_prob):
            if beta <= 0.0:
                continue
            # axis -2 of the view is channel k: [..., 0, :] silent, [..., 1, :] clicked
            v = p.reshape(p.shape[:-1] + (1 << k, 2, -1))
            v[..., 1, :] += beta * v[..., 0, :]
            v[..., 0, :] *= 1.0 - beta
        return OutcomeDistribution(self.labels, p, self.truncation)

    def sample_counts(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        pvec = np.clip(self._vector(), 0.0, None)
        pvec /= pvec.sum()
        return rng.multinomial(trials, pvec)


# ---------------------------------------------------------------------------
# operations


def scattering_probability_from_energy(
    energy: float,
    role: str,
    anchors: Mapping[str, Sequence[tuple[float, float]]] | None = None,
    guard: float = DEFAULT_PERTURBATIVE_GUARD,
) -> float:
    """Pulse energy to scattering probability, linear through the origin.

    The per-role slope is the least-squares fit through the calibration
    anchors (which are only approximately proportional to each other); a
    role the anchors leave out takes the default ones.
    Values above the perturbative guard are clipped, silently but logged
    via warning.
    """
    if energy < 0:
        raise ValidationError("energy must be >= 0")
    role = role.lower()
    table = {**DEFAULT_CALIBRATION_ANCHORS, **(anchors or {})}[role]
    es = np.array([e for e, _ in table], dtype=float)
    ps = np.array([p for _, p in table], dtype=float)
    if np.any(es <= 0) or np.any(ps <= 0):
        raise ValidationError("calibration anchors must be strictly positive")
    slope = float(np.dot(es, ps) / np.dot(es, es))
    p = slope * energy
    if p >= guard:
        warnings.warn(
            "scattering probability %.4g clipped to perturbative guard %.4g" % (p, guard),
            stacklevel=2,
        )
        p = math.nextafter(guard, 0.0)
    return p


def build_pulse_sequence(
    kind: ExperimentKind,
    tau: float,
    p_w: float = 0.002,
    p_r: float = 0.007,
    t0: float = 0.0,
    duration_fwhm: float = 30e-9,
) -> tuple[PulseSpec, ...]:
    """Standard four-pulse schedule: writes at t0 and t0+tau/2, reads one full
    round trip after their writes.  ThermalG2Tau uses a continuous red pump
    and returns no discrete pulses."""
    if kind is ExperimentKind.THERMAL_G2_TAU:
        return ()
    if kind not in (ExperimentKind.DOUBLE_CROSS_CORRELATION,
                    ExperimentKind.TIME_BIN_ENTANGLEMENT,
                    ExperimentKind.BELL_TEST,
                    ExperimentKind.CALIBRATION):
        raise ValidationError(f"unsupported experiment kind {kind!r}")
    if tau <= 0:
        raise ValidationError("tau must be > 0")
    centers = {
        PulseRole.WRITE_EARLY: t0,
        PulseRole.WRITE_LATE: t0 + tau / 2.0,
        PulseRole.READ_EARLY: t0 + tau,
        PulseRole.READ_LATE: t0 + 1.5 * tau,
    }
    return tuple(
        PulseSpec(
            role=role,
            center_time=centers[role],
            duration_fwhm=duration_fwhm,
            scattering_probability=p_w if role.is_write else p_r,
        )
        for role in PULSE_ORDER
    )


def fwhm_to_sigma(fwhm: float) -> float:
    return fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def sample_phase_jitter(rng: np.random.Generator, fwhm: float, size: int | None = None):
    """Zero-mean Gaussian phase jitter with the given FWHM of the occurrence
    histogram.  Deterministic given the generator state."""
    if fwhm < 0:
        raise ValidationError("jitter fwhm must be >= 0")
    if fwhm == 0.0:
        return 0.0 if size is None else np.zeros(size)
    return rng.normal(0.0, fwhm_to_sigma(fwhm), size=size)


# ---------------------------------------------------------------------------
# config file I/O
#
# The file format is YAML with SI units everywhere except angles, which are
# in units of pi.  See configs/ for commented reference files.


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and fully validate an experiment config file.  A relative
    ``extra.spectrum_file`` is taken relative to the file's directory."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    extra = raw.get("extra")
    if isinstance(extra, dict) and isinstance(extra.get("spectrum_file"), str):
        extra["spectrum_file"] = str(path.parent / extra["spectrum_file"])
    try:
        return config_from_dict(raw)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    """The config of a file's mapping, each key read as its field declares."""
    return _read_config(dict(raw))


def _read_config(raw: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """config_from_dict; with ``base``, a top-level key ``raw`` leaves out keeps base's."""
    kw = _kwargs(ExperimentConfig, raw, "", complete=base is None)
    config = ExperimentConfig(**kw) if base is None else replace(base, **kw)
    # only the continuous-pump kind runs without pulses
    missing = [r.value for r in PULSE_ORDER if r not in {p.role for p in config.pulses}]
    if config.kind is not ExperimentKind.THERMAL_G2_TAU and missing:
        raise ConfigError(f"pulses: {config.kind.value} needs one pulse per role, "
                          f"missing {', '.join(missing)}")
    missing = [r.value for r in PULSE_ORDER if r not in dict(config.noise.thermal_schedule)]
    if missing:
        raise ConfigError(f"noise.thermal_schedule: missing {', '.join(missing)}")
    return config


def _per_pi(angle: float) -> float:
    return angle / math.pi


def _dict(obj, radians: bool, names=None) -> dict:
    """The file mapping of a dataclass, or of its keys in ``names``, angles
    in units of pi or, with ``radians``, as _Radians.  The file leaves out a
    key without a value; with ``radians`` every key is there, for an
    override to set."""
    angle = _Radians if radians else _per_pi
    return {name: _angles(value, angle) if spec.angle and value is not None
            else _plain(value, radians) for name, spec in _keys(type(obj)).items()
            if (names is None or name in names)
            and ((value := getattr(obj, name)) is not None and value != {} or radians)}


def _plain(value, radians: bool):
    """A field value in the file's terms: sections as mappings, tuples as
    lists, enums as their values."""
    if type(value) in (float, int, str):
        return value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_plain(v, radians) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v, radians) for k, v in value.items()}
    return _dict(value, radians) if is_dataclass(value) else value


def config_to_dict(config: ExperimentConfig) -> dict:
    """The config as its file's mapping, which config_from_dict reads back;
    each pulse keeps the keys its file gave."""
    return _dict(config, radians=False)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(yaml_dump(config_to_dict(config)))


def config_digest(config: ExperimentConfig) -> str:
    """Stable hash of the full config, used in manifests and result files."""
    blob = json.dumps(config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def with_overrides(config: ExperimentConfig, overrides: Mapping[str, object]) -> ExperimentConfig:
    """Apply dotted-path overrides (e.g. ``noise.dark_count_prob=1e-7``): the
    config its file with those keys edited reads as, text read as YAML.  Only
    the top-level keys reached are written out and read back; the rest would
    read back the same."""
    data = _dict(config, True, {dotted.partition(".")[0] for dotted in overrides})
    # a scan, the config's own or an overridden one, takes precedence over
    # phi_w and phi_r, which would be ignored
    if config.phases.settings is not None or "phases.settings" in overrides:
        for dotted in ("phases.phi_w", "phases.phi_r"):
            if dotted in overrides:
                raise ConfigError(f"{dotted}: a phase scan (phases.settings) takes "
                                  "precedence; set the phases in phases.settings instead")
    try:
        for dotted, value in overrides.items():
            *parents, leaf = dotted.split(".")
            node = data
            for part in parents:
                node = node[part]
            if leaf not in node and parents != ["extra"]:  # extra is open to any key
                raise ConfigError(f"unknown override target {dotted!r}")
            node[leaf] = yaml_load(value) if isinstance(value, str) else value
        return _read_config(data, config)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, yaml.YAMLError) as exc:
        raise ConfigError(f"bad override {', '.join(overrides)}: {exc!r}") from exc


def with_pulse_field(config: ExperimentConfig, name: str, value: float) -> ExperimentConfig:
    """``config`` with ``name`` set to ``value`` on every pulse, as a sweep of
    pulses.<name> runs it; an energy replaces the scattering probability."""
    drop = {"scattering_probability": None} if name == "energy" else {}  # null: left out
    pulses = [{**_dict(p, radians=True), name: value, **drop} for p in config.pulses]
    return with_overrides(config, {"pulses": pulses})


def key_at(path: str) -> Key:
    """The declared key of a phase or pulse field, e.g. phases.phi_w."""
    section, name = path.split(".")
    return _keys({"phases": PhaseSettings, "pulses": PulseSpec}[section])[name]
