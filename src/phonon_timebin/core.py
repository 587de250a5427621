"""Domain types, validation and config ingestion shared by all modules.

Everything here is a plain immutable value object.  Validation happens once,
in ``__post_init__`` or in :func:`load_config`; after that the objects can be
shared freely between trial workers.

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
from dataclasses import dataclass, field, replace
from enum import Enum
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


@dataclass(frozen=True)
class CavityParams:
    """Optomechanical cavity figures; only metadata plus the energy calibration
    depend on them, there is no intracavity field dynamics in this artifact."""

    wavelength: float = 1556.06e-9
    kappa: float = 1.05e9
    kappa_i: float = 250e6
    g0: float = 380e3
    mech_frequency: float = 5.154e9

    def __post_init__(self):
        for name in ("wavelength", "kappa", "kappa_i", "g0", "mech_frequency"):
            _require(getattr(self, name) > 0, f"cavity.{name} must be > 0")
        _require(self.kappa_i <= self.kappa, "cavity.kappa_i must not exceed cavity.kappa")


@dataclass(frozen=True)
class WaveguideParams:
    """Phononic waveguide: an ideal tau-delay with energy decay T1 plus an
    optional extra retrieval factor standing in for modal dispersion.

    ``retrieval_efficiency`` multiplies the round-trip energy survival on top
    of exp(-tau/T1).  How much of the observed readout inefficiency is
    dispersion rather than T1 is not independently known, so the split is a
    free config knob rather than a derived quantity.
    """

    round_trip_time: float = 126e-9
    group_velocity: float = 2000.0
    length: float = 126e-9 * 2000.0 / 2.0
    T1: float = 2.2e-6
    retrieval_efficiency: float = 1.0

    def __post_init__(self):
        for name in ("round_trip_time", "group_velocity", "length"):
            _require(0.0 < getattr(self, name) < math.inf, f"waveguide.{name} must be finite and > 0")
        _require(self.T1 > self.round_trip_time, "waveguide.T1 must exceed the round-trip time")
        _require(0.0 <= self.retrieval_efficiency <= 1.0,
                 "waveguide.retrieval_efficiency must be in [0, 1]")
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
    role: PulseRole
    center_time: float
    duration_fwhm: float = 30e-9
    energy: float | None = None
    scattering_probability: float = 0.0
    perturbative_guard: float = DEFAULT_PERTURBATIVE_GUARD

    def __post_init__(self):
        _require(self.duration_fwhm > 0, "pulse.duration_fwhm must be > 0")
        _require(0.0 <= self.scattering_probability < 1.0,
                 "pulse.scattering_probability must be in [0, 1)")
        if self.scattering_probability >= self.perturbative_guard:
            raise ValidationError(
                "pulse.scattering_probability %.4g breaks the perturbative guard %.4g "
                "(raise perturbative_guard explicitly to override)"
                % (self.scattering_probability, self.perturbative_guard)
            )


@dataclass(frozen=True)
class PhaseSettings:
    """Phases of the late pulses and the interferometer offset.

    ``phi_0`` is always derived: it is the write phase at which the
    correlation coefficient crosses zero with negative slope,
    phi_0 = 2*phi_off + pi/2 (mod 2pi).
    """

    phi_w: float = 0.0
    phi_r: float = 0.0
    phi_off: float = 0.0

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

    thermal_schedule: tuple[tuple[PulseRole, float], ...] = (
        (PulseRole.WRITE_EARLY, 0.022),
        (PulseRole.WRITE_LATE, 0.040),
        (PulseRole.READ_EARLY, 0.066),
        (PulseRole.READ_LATE, 0.095),
    )
    interferometer_visibility: float = 0.94
    write_phase_jitter_fwhm: float = math.pi / 7.0
    read_phase_jitter_fwhm: float = math.pi / 20.0
    detector_efficiency: tuple[float, float] = (0.85, 0.85)
    dark_count_prob: float = 1e-6
    leakage_prob: Mapping[str, tuple[float, float]] = field(
        default_factory=lambda: {"write": (2e-7, 4e-7), "read": (1.4e-6, 2.6e-6)}
    )
    coupling_efficiency: float = 0.5
    filter_pulse_efficiency: tuple[float, float] = (0.39, 0.65)

    def __post_init__(self):
        probs = [self.interferometer_visibility, self.dark_count_prob,
                 self.coupling_efficiency, *self.detector_efficiency,
                 *self.filter_pulse_efficiency]
        for role, val in self.leakage_prob.items():
            _require(role in ("write", "read"), f"leakage_prob key {role!r} not write/read")
            probs.extend(val)
        for v in probs:
            _require(0.0 <= v <= 1.0, "probability/occupancy out of range: %r" % (v,))
        for name in ("write_phase_jitter_fwhm", "read_phase_jitter_fwhm"):
            fwhm = getattr(self, name)
            _require(0.0 <= fwhm <= 1e6, f"noise.{name} must be finite and in [0, 1e6] rad, "
                                         f"got {fwhm!r}")
        occ = [v for _, v in self.thermal_schedule]
        for v in occ:
            _require(v >= 0, "probability/occupancy out of range: thermal occupancy %r" % (v,))
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
    name: str = "gaussian"
    truncation: int = 4
    total_cap: int | None = None

    def __post_init__(self):
        _require(self.name in ("fock", "gaussian"), f"unknown engine {self.name!r}")
        _require(self.truncation >= 1, "fock truncation must be >= 1")
        _require(self.total_cap is None or self.total_cap >= 1, "fock total_cap must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: ExperimentKind
    cavity: CavityParams = CavityParams()
    waveguide: WaveguideParams = WaveguideParams()
    pulses: tuple[PulseSpec, ...] = ()
    phases: PhaseSettings = PhaseSettings()
    phase_sweep: tuple[tuple[float, float], ...] | None = None
    noise: NoiseModel = NoiseModel()
    trials: int = 1_000_000
    seed: int = 0
    engine: EngineSpec = EngineSpec()
    repetition_period: float = 15e-6
    splitting_asymmetry: float = 0.0
    record_trials: int = 0
    extra: Mapping[str, object] = field(default_factory=dict)
    #: the anchors pulse energies convert with, when not the defaults
    calibration_anchors: Mapping[str, tuple[tuple[float, float], ...]] | None = None

    def __post_init__(self):
        # the multinomial draw takes a signed 64-bit count
        _require(0 <= self.trials < 2**63, "trials must be in [0, 2**63)")
        _require(self.record_trials >= 0, "record_trials must be >= 0")
        _require(0 <= self.seed < 2**64, "seed must be an unsigned 64-bit integer")
        _require(0.0 < self.repetition_period < math.inf, "repetition_period must be finite and > 0")
        _require(0.0 <= self.splitting_asymmetry <= 0.005,
                 "splitting_asymmetry must be within 0.5% relative")
        if self.pulses:
            tau = self.waveguide.round_trip_time
            by_role = {p.role: p for p in self.pulses}
            for early, late in ((PulseRole.WRITE_EARLY, PulseRole.WRITE_LATE),
                                (PulseRole.READ_EARLY, PulseRole.READ_LATE)):
                if early in by_role and late in by_role:
                    dt = by_role[late].center_time - by_role[early].center_time
                    _require(abs(dt - tau / 2.0) <= 1e-12,
                             f"{late.value} must follow {early.value} by tau/2 exactly")
        # ~7 lifetimes between trials keeps them independent; the reference
        # spacing (15 us at T1 = 2.2 us) sits right at that margin.  Only
        # sampled trials can depend on each other; stacklevel 3 skips the
        # generated __init__ and names the caller
        sampled = self.trials > 0 or self.record_trials > 0
        if sampled and self.repetition_period < 6.8 * self.waveguide.T1:
            warnings.warn("repetition_period below ~7*T1; trials may not be independent",
                          stacklevel=3)

    def pulse(self, role: PulseRole) -> PulseSpec:
        for p in self.pulses:
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
    guard: float = DEFAULT_PERTURBATIVE_GUARD,
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
            perturbative_guard=guard,
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

#: the radian fields of a config, by part, with the override paths that set
#: each (phi_w and phi_r follow the first explicit setting when there is one)
_ANGLE_PATHS = {
    "phases": {"phi_w": ("phases.phi_w", "phases.settings"),
               "phi_r": ("phases.phi_r", "phases.settings"),
               "phi_off": ("phases.phi_off",)},
    "noise": {"write_phase_jitter_fwhm": ("noise.write_phase_jitter_fwhm",),
              "read_phase_jitter_fwhm": ("noise.read_phase_jitter_fwhm",)},
}


def _angles_in(data: float) -> float:
    return data * math.pi


def _angles_out(value: float) -> float:
    return value / math.pi


def _phase_in(value, key: str) -> float:
    """A phase field in radians; NaN or an infinity is a ConfigError."""
    phase = _angles_in(float(value))
    if not math.isfinite(phase):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return phase


def _as_pair(value, key: str) -> tuple[float, float]:
    if isinstance(value, (int, float)):
        return (float(value), float(value))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return (float(value[0]), float(value[1]))
    raise ConfigError(f"{key} must be a scalar or a pair")


def _integer(value, key: str) -> int:
    """An integer field: ints, integral floats and numeric strings (PyYAML
    reads 4.0e10 as a string); a fractional value is a ConfigError, never
    truncated."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


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
    for key in ("kind", "engine", "trials", "seed", "cavity", "waveguide",
                "pulses", "phases", "noise"):
        if key not in raw:
            raise ConfigError(f"missing required top-level key {key!r}")

    kind = ExperimentKind(raw["kind"])
    # PyYAML reads exponent notation without a sign (1.05e9) as a string
    cavity = CavityParams(**{k: float(v) for k, v in raw["cavity"].items()})

    wg = {k: float(v) for k, v in raw["waveguide"].items()}
    if "length" not in wg:
        wg["length"] = wg["round_trip_time"] * wg.get("group_velocity", 2000.0) / 2.0
    waveguide = WaveguideParams(**wg)

    engine_raw = raw["engine"]
    if isinstance(engine_raw, str):
        engine = EngineSpec(name=engine_raw)
    else:
        engine_raw = dict(engine_raw)
        for key in ("truncation", "total_cap"):
            if engine_raw.get(key) is not None:
                engine_raw[key] = _integer(engine_raw[key], f"engine.{key}")
        engine = EngineSpec(**engine_raw)

    guard = float(raw.get("perturbative_guard", DEFAULT_PERTURBATIVE_GUARD))
    anchors = raw.get("calibration_anchors")
    if anchors is not None:
        if not set(anchors) <= set(DEFAULT_CALIBRATION_ANCHORS):
            raise ConfigError(f"calibration_anchors: the roles are write and read, "
                              f"got {sorted(anchors)}")
        anchors = {k: tuple((float(e), float(p)) for e, p in v) for k, v in anchors.items()}

    pulses = []
    for p in raw["pulses"]:
        role = PulseRole(p["role"])
        prob = p.get("scattering_probability")
        energy = p.get("energy")
        if prob is None:
            if energy is None:
                raise ConfigError(f"pulse {role.value}: needs scattering_probability or energy")
            prob = scattering_probability_from_energy(
                float(energy), "write" if role.is_write else "read",
                anchors=anchors, guard=guard)
        pulses.append(PulseSpec(
            role=role,
            center_time=float(p["center_time"]),
            duration_fwhm=float(p.get("duration_fwhm", 30e-9)),
            energy=None if energy is None else float(energy),
            scattering_probability=float(prob),
            perturbative_guard=guard,
        ))
    # only the continuous-pump kind runs without pulses
    missing = [r.value for r in PULSE_ORDER if r not in {p.role for p in pulses}]
    if kind is not ExperimentKind.THERMAL_G2_TAU and missing:
        raise ConfigError(f"pulses: {kind.value} needs one pulse per role, "
                          f"missing {', '.join(missing)}")

    ph = raw["phases"]
    sweep = None
    phi_w = ph.get("phi_w", 0.0)
    phi_r = ph.get("phi_r", 0.0)
    if "settings" in ph:
        scan = "phases.settings"
        sweep = tuple((_phase_in(w, scan), _phase_in(r, scan)) for w, r in ph["settings"])
    elif isinstance(phi_w, (list, tuple)):
        scan = "phases.phi_w and phases.phi_r"
        rs = phi_r if isinstance(phi_r, (list, tuple)) else [phi_r]
        sweep = tuple((_phase_in(w, "phases.phi_w"), _phase_in(r, "phases.phi_r"))
                      for r in rs for w in phi_w)
    if sweep is not None:
        if not sweep:
            raise ConfigError(f"{scan}: a phase scan needs at least one setting")
        phi_w, phi_r = sweep[0][0] / math.pi, sweep[0][1] / math.pi
    phases = PhaseSettings(
        phi_w=_phase_in(phi_w, "phases.phi_w"),
        phi_r=_phase_in(phi_r, "phases.phi_r"),
        phi_off=_phase_in(ph.get("phi_off", 0.0), "phases.phi_off"),
    )

    nz = dict(raw["noise"])
    schedule = nz.pop("thermal_schedule", None)
    kwargs = {}
    if schedule is not None:
        kwargs["thermal_schedule"] = tuple(
            (PulseRole(role), float(v)) for role, v in schedule)
    for key in ("interferometer_visibility", "dark_count_prob", "coupling_efficiency"):
        if key in nz:
            kwargs[key] = float(nz.pop(key))
    for key in ("write_phase_jitter_fwhm", "read_phase_jitter_fwhm"):
        if key in nz:
            kwargs[key] = _angles_in(float(nz.pop(key)))
    for key in ("detector_efficiency", "filter_pulse_efficiency"):
        if key in nz:
            kwargs[key] = _as_pair(nz.pop(key), key)
    if "leakage_prob" in nz:
        kwargs["leakage_prob"] = {
            role: _as_pair(v, f"leakage_prob.{role}") for role, v in nz.pop("leakage_prob").items()}
    if nz:
        raise ConfigError(f"unknown noise keys: {sorted(nz)}")
    noise = NoiseModel(**kwargs)
    missing = [r.value for r in PULSE_ORDER if r not in dict(noise.thermal_schedule)]
    if missing:
        raise ConfigError(f"noise.thermal_schedule: missing {', '.join(missing)}")

    return ExperimentConfig(
        kind=kind,
        cavity=cavity,
        waveguide=waveguide,
        pulses=tuple(pulses),
        phases=phases,
        phase_sweep=sweep,
        noise=noise,
        trials=_integer(raw["trials"], "trials"),
        seed=_integer(raw["seed"], "seed"),
        engine=engine,
        repetition_period=float(raw.get("repetition_period", 15e-6)),
        splitting_asymmetry=float(raw.get("splitting_asymmetry", 0.0)),
        record_trials=_integer(raw.get("record_trials", 0), "record_trials"),
        extra=dict(raw.get("extra", {})),
        calibration_anchors=anchors,
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    c = config
    data: dict = {
        "kind": c.kind.value,
        "engine": {"name": c.engine.name, "truncation": c.engine.truncation},
        "trials": c.trials,
        "seed": c.seed,
        "repetition_period": c.repetition_period,
        "splitting_asymmetry": c.splitting_asymmetry,
        "record_trials": c.record_trials,
        "cavity": {
            "wavelength": c.cavity.wavelength,
            "kappa": c.cavity.kappa,
            "kappa_i": c.cavity.kappa_i,
            "g0": c.cavity.g0,
            "mech_frequency": c.cavity.mech_frequency,
        },
        "waveguide": {
            "round_trip_time": c.waveguide.round_trip_time,
            "group_velocity": c.waveguide.group_velocity,
            "length": c.waveguide.length,
            "T1": c.waveguide.T1,
            "retrieval_efficiency": c.waveguide.retrieval_efficiency,
        },
        "pulses": [
            {
                "role": p.role.value,
                "center_time": p.center_time,
                "duration_fwhm": p.duration_fwhm,
                **({"energy": p.energy} if p.energy is not None else {}),
                "scattering_probability": p.scattering_probability,
            }
            for p in c.pulses
        ],
        "phases": {
            "phi_w": _angles_out(c.phases.phi_w),
            "phi_r": _angles_out(c.phases.phi_r),
            "phi_off": _angles_out(c.phases.phi_off),
        },
        "noise": {
            "thermal_schedule": [[r.value, v] for r, v in c.noise.thermal_schedule],
            "interferometer_visibility": c.noise.interferometer_visibility,
            "write_phase_jitter_fwhm": _angles_out(c.noise.write_phase_jitter_fwhm),
            "read_phase_jitter_fwhm": _angles_out(c.noise.read_phase_jitter_fwhm),
            "detector_efficiency": list(c.noise.detector_efficiency),
            "dark_count_prob": c.noise.dark_count_prob,
            "leakage_prob": {k: list(v) for k, v in c.noise.leakage_prob.items()},
            "coupling_efficiency": c.noise.coupling_efficiency,
            "filter_pulse_efficiency": list(c.noise.filter_pulse_efficiency),
        },
    }
    if c.engine.total_cap is not None:
        data["engine"]["total_cap"] = c.engine.total_cap
    if c.pulses and c.pulses[0].perturbative_guard != DEFAULT_PERTURBATIVE_GUARD:
        data["perturbative_guard"] = c.pulses[0].perturbative_guard
    if c.phase_sweep is not None:
        data["phases"]["settings"] = [
            [_angles_out(w), _angles_out(r)] for w, r in c.phase_sweep]
    if c.extra:
        data["extra"] = dict(c.extra)
    if c.calibration_anchors is not None:
        data["calibration_anchors"] = {role: [list(pair) for pair in table]
                                       for role, table in c.calibration_anchors.items()}
    return data


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(yaml_dump(config_to_dict(config)))


def config_digest(config: ExperimentConfig) -> str:
    """Stable hash of the full config, used in manifests and result files."""
    blob = json.dumps(config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


#: config keys that the dict form carries only when they are set, so an
#: override may add them
_OPTIONAL_PATHS = ("phases.settings", "engine.total_cap", "perturbative_guard")


def with_overrides(config: ExperimentConfig, overrides: Mapping[str, object]) -> ExperimentConfig:
    """Apply dotted-path overrides (e.g. ``noise.dark_count_prob=1e-7``) by
    round-tripping through the dict form so all validation re-runs."""
    data = config_to_dict(config)
    # a scan, the config's own or an overridden one, takes precedence over
    # phi_w and phi_r, which would be ignored
    if "settings" in data["phases"] or "phases.settings" in overrides:
        for dotted in ("phases.phi_w", "phases.phi_r"):
            if dotted in overrides:
                raise ConfigError(f"{dotted}: a phase scan (phases.settings) takes "
                                  "precedence; set the phases in phases.settings instead")
    try:
        for dotted, value in overrides.items():
            node = data
            parts = dotted.split(".")
            for part in parts[:-1]:
                node = node[part]
            leaf = parts[-1]
            if leaf not in node and dotted not in _OPTIONAL_PATHS:
                raise ConfigError(f"unknown override target {dotted!r}")
            node[leaf] = yaml_load(str(value)) if isinstance(value, str) else value
        return _keep_angles(config, config_from_dict(data), overrides)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad override {', '.join(overrides)}: {exc!r}") from exc


def _keep_angles(old: ExperimentConfig, new: ExperimentConfig,
                 overrides: Mapping[str, object]) -> ExperimentConfig:
    """Put back every radian field of ``old`` that no override sets: the
    dict form holds angles in units of pi, and x / pi * pi is not always x."""
    def untouched(paths):
        return not any(key == path or path.startswith(key + ".")
                       for key in overrides for path in paths)

    parts = {part: replace(getattr(new, part),
                           **{name: getattr(getattr(old, part), name)
                              for name, paths in fields.items() if untouched(paths)})
             for part, fields in _ANGLE_PATHS.items()}
    if untouched(("phases.settings",)):
        parts["phase_sweep"] = old.phase_sweep
    return replace(new, **parts)
