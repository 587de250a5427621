"""Experiment assembly: pulse interactions, thermal schedule, waveguide delay
bookkeeping, the unbalanced interferometer, the detection chain, heralding,
and exact-distribution or Monte Carlo execution.

Circuit layout per trial (entanglement-type experiments):

  write:  TMS(o_wE, m_E; p_w)  TMS(o_wL, m_L; p_w)
          -> coupling loss -> unbalanced MZI -> write detectors
  travel: mechanical modes lose exp(-tau/T1) * retrieval_efficiency, then
          thermal top-up to the scheduled occupancy seen by each read pulse
  read:   beam splitter sin^2 = p_r maps phonons onto o_rE / o_rL
          -> coupling loss -> same MZI, Phi on its late arm -> read detectors

One circuit builder serves both engines: each method calls that engine's
``apply_*`` function on the current state.  The thermal top-up is a weak
thermal loss at THERMAL_NOISE_EPSILON, the epsilon the read stage solves
its top-up for.

The MZI convention: the delay arm carries phase +phi_off plus the stage's
lock jitter j, and the Early pulse reaches the overlap window through it.  So
the overlap windows see the phases, the offset and the jitters only through
one relative phase between the two time bins,

  Phi = phi_w + phi_r - 2*phi_off - j_w - j_r,

heralded coincidences fringe as 1 + cos(Phi) on the same detector pair, and
the zero crossing with negative slope sits at phi_w = phi_0 = 2*phi_off + pi/2.

Imperfect first-order visibility V is a mode mismatch: the delayed pulse
passes a beam splitter of transmissivity V^2 whose reflected (orthogonal)
part still reaches both detectors but does not interfere, which scales the
interfering coherence by exactly V per pass.

Why one Phi: the squeezer conserves n_o - n_m on a diagonal thermal input,
so a phase on o_wE or o_wL is that phase on m_E or m_L; loss, top-up and the
occupancy read are phase covariant; the readout splitter hands it on to o_rE
or o_rL; and every stage keeps the write photons minus the phonons minus the
read photons, so one phase on both read modes acts only on modes that are
counted or traced: a phase on o_rE is minus that phase on o_rL.  So every
read-out samples one periodic p(Phi); a Gaussian jitter j_w + j_r of width
sigma scales its harmonic k by exp(-sigma^2 k^2 / 2), and the jitter average
is that damped series, read off p at equispaced Phi (``_periodic_weights``).
Both engines build the circuit up to the read interferometer once per
config and keep p at N equispaced phases (``_prefix``); every read-out is
then the trigonometric interpolant of p at its Phi, with no gate and no
click transform.  The Gaussian prefix runs the read interferometer at the
N phases as one batch, and raises N until the top harmonic is at round-off
(``_gaussian_series``).  The Fock prefix measures the write photons once,
and runs the read prefix and one read interferometer, at Phi = 0, on the
herald branches' coherence blocks; every gate before the read phase is
real, so p is a cosine series of degree K and N = 2K + 1
(``_fock_series``).  The open interferometer of the cross-correlation kind
takes no phase: its prefix is the one detected distribution.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import gaussian
from .core import (
    ExperimentConfig,
    ExperimentKind,
    NoiseModel,
    OutcomeDistribution,
    PulseRole,
    fwhm_to_sigma,
)

#: analysis channels: the overlap windows drive heralding and correlation
#: analysis; in open-delay-arm experiments the early bin lands in the
#: "direct" slot and the late bin in the (non-interfering) overlap slot.
ENTANGLEMENT_CHANNELS = (
    "write-overlap:1", "write-overlap:2", "read-overlap:1", "read-overlap:2")
CROSS_CORRELATION_CHANNELS = (
    "write-early-direct:1", "write-early-direct:2",
    "write-overlap:1", "write-overlap:2",
    "read-early-direct:1", "read-early-direct:2",
    "read-overlap:1", "read-overlap:2",
)

#: equispaced phases the jitter average reads p(Phi) at: harmonics up to 10,
#: all that the Gaussian engine's p has above round-off
JITTER_NODES = 21
THERMAL_NOISE_EPSILON = 0.01
FOCK_PROTOCOL_CAP = 6
#: the Gaussian prefix reads p(Phi) at N equispaced phases: SERIES_NODES
#: first, then 2N - 1 while the top harmonic they hold is above SERIES_TOL,
#: at most SERIES_MAX_NODES; every reference config reads SERIES_NODES
SERIES_NODES = 9
SERIES_MAX_NODES = 257
SERIES_TOL = 1e-14


class ProtocolError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# circuit builders: one mutable facade over either engine's apply_* functions


class _Circuit:
    """The circuit vocabulary, each call one ``engine.apply_*`` on the state."""

    def __init__(self, engine, state):
        self.engine = engine
        self.state = state

    def add_mode(self, label: str, thermal: float = 0.0):
        self.state = self.engine.add_vacuum_mode(self.state, label)
        if thermal > 0.0:
            self.thermal_loss(label, 0.0, thermal)

    def squeeze(self, a, b, p, phi=0.0):
        self.state = self.engine.apply_two_mode_squeeze(self.state, a, b, p, phi)

    def beam_splitter(self, a, b, transmissivity, phi=0.0):
        self.state = self.engine.apply_beam_splitter(self.state, a, b, transmissivity, phi)

    def phase(self, m, phi):
        self.state = self.engine.apply_phase(self.state, m, phi)

    def loss(self, m, survival):
        self.state = self.engine.apply_loss(self.state, m, survival)

    def thermal_loss(self, m, survival, n_env):
        self.state = self.engine.apply_thermal_loss(self.state, m, survival, n_env)

    def thermal_noise(self, m, delta_n):
        """Add delta_n of occupancy through a weak thermal loss: survival
        1 - THERMAL_NOISE_EPSILON against an environment at
        delta_n / THERMAL_NOISE_EPSILON.  A (B,) delta_n, one per element of
        a Fock batch, leaves the elements at 0 as they are (survival 1)."""
        self.thermal_loss(m, np.where(delta_n > 0.0, 1.0 - THERMAL_NOISE_EPSILON, 1.0),
                          delta_n / THERMAL_NOISE_EPSILON)

    def mean_occupation(self, m):
        return self.state.mean_occupation(m)


class _GaussianCircuit(_Circuit):
    def __init__(self):
        super().__init__(gaussian, gaussian.CovarianceState(()))

    def click_distribution(self, detector_map, efficiency):
        return gaussian.click_probabilities(self.state, detector_map, efficiency)


class _FockCircuit(_Circuit):
    def __init__(self, n_max: int, total_cap: int):
        # imported only here, so a Gaussian run does not load the Fock engine
        from . import fock
        super().__init__(fock, fock.init_vacuum([], n_max, total_cap))

    def measure(self, detector_map, efficiency):
        return self.engine.measure_threshold(self.state, detector_map, efficiency)

    def click_distribution(self, detector_map, efficiency):
        return self.engine.click_distribution(self.state, detector_map, efficiency)


# ---------------------------------------------------------------------------
# circuit stages


def apply_interferometer(
    circuit,
    which: str,
    early_mode: str,
    late_mode: str,
    phi: float | np.ndarray,
    visibility: float,
    splitting_asymmetry: float = 0.0,
) -> dict[str, list[str]]:
    """Send the early/late pulse pair through the unbalanced MZI at relative
    phase phi, which the late arm carries.

    Returns the mapping from the overlap-window detector channels to engine
    modes.  The light headed for the non-overlap time slots is traced out
    (a plain loss), which leaves every overlap-window statistic untouched.
    """
    pre = "w" if which == "write" else "r"
    circuit.phase(late_mode, phi)
    circuit.loss(early_mode, 0.5)
    circuit.loss(late_mode, 0.5)
    mis = f"{pre}:mis"
    circuit.add_mode(mis)
    circuit.beam_splitter(early_mode, mis, visibility * visibility)
    # port-ratio difference equals splitting_asymmetry
    circuit.beam_splitter(early_mode, late_mode, 0.5 * (1.0 + splitting_asymmetry))
    mis2 = f"{pre}:mis2"
    circuit.add_mode(mis2)
    circuit.beam_splitter(mis, mis2, 0.5)
    return {f"{which}-overlap:1": [early_mode, mis], f"{which}-overlap:2": [late_mode, mis2]}


def apply_open_interferometer(circuit, which: str, early_mode: str,
                              late_mode: str) -> dict[str, list[str]]:
    """Delay arm disconnected: each pulse loses its delayed half and the
    direct half splits over the two detectors without interference, so no
    phase reaches a click.  The early bin occupies the direct slot and the
    late bin the overlap slot."""
    pre = "w" if which == "write" else "r"
    groups: dict[str, list[str]] = {}
    for slot, mode in ((f"{which}-early-direct", early_mode),
                       (f"{which}-overlap", late_mode)):
        circuit.loss(mode, 0.5)
        anc = f"{pre}:{slot}:2"
        circuit.add_mode(anc)
        circuit.beam_splitter(mode, anc, 0.5)
        groups[f"{slot}:1"] = [mode]
        groups[f"{slot}:2"] = [anc]
    return groups


def run_write_stage(circuit, config: ExperimentConfig, phi: float = 0.0) -> dict[str, list[str]]:
    """Two write pulses: pair creation on each time bin, then the write
    photons through coupling loss and the interferometer at relative phase
    phi."""
    noise = config.noise
    circuit.add_mode("o_wE")
    circuit.add_mode("o_wL")
    circuit.add_mode("m_E", thermal=noise.occupancy_seen_by(PulseRole.WRITE_EARLY))
    circuit.add_mode("m_L", thermal=noise.occupancy_seen_by(PulseRole.WRITE_LATE))
    p_wE = config.pulse(PulseRole.WRITE_EARLY).scattering_probability
    p_wL = config.pulse(PulseRole.WRITE_LATE).scattering_probability
    circuit.squeeze("o_wE", "m_E", p_wE, 0.0)
    circuit.squeeze("o_wL", "m_L", p_wL, 0.0)
    circuit.loss("o_wE", noise.coupling_efficiency)
    circuit.loss("o_wL", noise.coupling_efficiency)
    return _stage_interferometer(circuit, config, "write", phi)


def _stage_interferometer(circuit, config: ExperimentConfig, which: str,
                          phi) -> dict[str, list[str]]:
    """A stage's photons through the MZI at relative phase phi, or through
    the open one of the cross-correlation kind, which takes none."""
    early, late = ("o_wE", "o_wL") if which == "write" else ("o_rE", "o_rL")
    if config.kind is ExperimentKind.DOUBLE_CROSS_CORRELATION:
        return apply_open_interferometer(circuit, which, early, late)
    return apply_interferometer(circuit, which, early, late, phi,
                                config.noise.interferometer_visibility,
                                config.splitting_asymmetry)


def _read_prefix(circuit, config: ExperimentConfig) -> None:
    """The read stage up to its interferometer: round-trip decay and thermal
    top-up of the mechanical bins, readout beam splitters, coupling loss.
    On a Fock batch of herald branches each element reads its own
    occupation, and only the elements short of their target get a top-up."""
    noise = config.noise
    survival = config.waveguide.round_trip_survival
    for mech, read_role in (("m_E", PulseRole.READ_EARLY), ("m_L", PulseRole.READ_LATE)):
        circuit.loss(mech, survival)
        target = noise.occupancy_seen_by(read_role)
        occupation = circuit.mean_occupation(mech)
        # a NaN would make the top-up test below false, skipping it
        if not np.isfinite(occupation).all():
            raise ProtocolError(f"occupancy of {mech} is not finite: {occupation}")
        # the injection channel itself attenuates by (1 - epsilon) before
        # adding delta, so solve for the delta that lands on the target
        delta = target - (1.0 - THERMAL_NOISE_EPSILON) * occupation
        top = delta > 1e-12
        if np.any(top):
            circuit.thermal_noise(mech, np.where(top, delta, 0.0))
    p_rE = config.pulse(PulseRole.READ_EARLY).scattering_probability
    p_rL = config.pulse(PulseRole.READ_LATE).scattering_probability
    circuit.add_mode("o_rE")
    circuit.add_mode("o_rL")
    circuit.beam_splitter("o_rE", "m_E", 1.0 - p_rE)
    circuit.beam_splitter("o_rL", "m_L", 1.0 - p_rL)
    circuit.loss("o_rE", noise.coupling_efficiency)
    circuit.loss("o_rL", noise.coupling_efficiency)


def _efficiency_map(groups: Mapping[str, list[str]], noise: NoiseModel) -> dict[str, float]:
    return {ch: noise.channel_efficiency(int(ch.rsplit(":", 1)[1])) for ch in groups}


def detect(distribution: OutcomeDistribution, noise: NoiseModel) -> OutcomeDistribution:
    """Fold dark counts and pump leakage into an efficiency-resolved click
    distribution (every row of a batch) as independent per-channel
    Bernoulli ORs."""
    return distribution.with_background(
        [noise.background_prob(ch) for ch in distribution.labels])


# ---------------------------------------------------------------------------
# exact joint distributions


def _analysis_channels(kind: ExperimentKind) -> tuple[str, ...]:
    if kind is ExperimentKind.DOUBLE_CROSS_CORRELATION:
        return CROSS_CORRELATION_CHANNELS
    return ENTANGLEMENT_CHANNELS


def exact_joint_distribution(
    config: ExperimentConfig,
    phi_w: float | np.ndarray,
    phi_r: float | np.ndarray,
    jitter_w: float | np.ndarray = 0.0,
    jitter_r: float | np.ndarray = 0.0,
) -> OutcomeDistribution:
    """Joint click-pattern distribution over the analysis channels for one
    phase setting and one jitter sample.  The phases and jitters may be (B,)
    arrays: either engine then gives one (B, 2**n) distribution, and
    scalars are its batch-of-one case.  ``config.engine`` picks the engine.
    Either engine reads out the one relative phase Phi (module docstring)
    as the series in Phi that ``_prefix(config)`` holds.  The open
    interferometer takes no phase, so its prefix is the finished
    distribution, tiled to Phi's shape."""
    phi = np.add(phi_w, phi_r) - 2.0 * config.phases.phi_off - np.add(jitter_w, jitter_r)
    prefix = _prefix(config)
    if config.kind is ExperimentKind.DOUBLE_CROSS_CORRELATION:
        return OutcomeDistribution(prefix.labels,
                                   np.tile(prefix.probabilities, np.shape(phi) + (1,)),
                                   prefix.truncation)
    return _read_out(prefix, phi)


#: (key, prefix) of the last config, replaced whole; its array is read-only
_prefix_memo = (None, None)


def _prefix(config: ExperimentConfig) -> OutcomeDistribution:
    """The phase-free part of the circuit, memoised for the last (config,
    THERMAL_NOISE_EPSILON, FOCK_PROTOCOL_CAP), compared with ``==``: the
    detected distribution at the N equispaced phases of its series in Phi,
    one (N, 2**n) ``OutcomeDistribution`` (``_gaussian_series``,
    ``_fock_series``).  The Fock write stage is measured once, and the read
    prefix and its trace to o_rE and o_rL, which nothing after the readout
    splitters touches, run once on the batch of herald branches.  No phase
    reaches the clicks of the cross-correlation kind's open interferometer,
    so its prefix is the whole read-out: the one detected distribution."""
    global _prefix_memo
    key = (config, THERMAL_NOISE_EPSILON, FOCK_PROTOCOL_CAP)
    if _prefix_memo[0] == key:
        return _prefix_memo[1]
    engine = config.engine
    circuit = (_FockCircuit(engine.truncation, engine.total_cap or FOCK_PROTOCOL_CAP)
               if engine.name == "fock" else _GaussianCircuit())
    w_groups = run_write_stage(circuit, config)
    if engine.name != "fock":
        _read_prefix(circuit, config)
        prefix = _gaussian_series(config, circuit.state, w_groups)
    else:
        w_map = {ch: w_groups[ch] for ch in _analysis_channels(config.kind)
                 if ch.startswith("write")}
        weight, deficit = circuit.state.truncation_weight(), abs(circuit.state.renorm_deficit)
        codes, probs, circuit.state = circuit.measure(w_map, _efficiency_map(w_map, config.noise))
        _read_prefix(circuit, config)
        weight = max(weight, circuit.state.truncation_weight())
        deficit = max(deficit, abs(circuit.state.renorm_deficit))
        prefix = _fock_series(config, codes, probs, circuit.engine.partial_trace(
            circuit.state, ["o_rE", "o_rL"]), weight, deficit)
    prefix.probabilities.flags.writeable = False
    _prefix_memo = (key, prefix)
    return prefix


def _gaussian_series(config, state: gaussian.CovarianceState,
                     w_groups) -> OutcomeDistribution:
    """The detected distribution at N equispaced phases 2 pi j / N: the read
    interferometer runs on the read prefix ``state`` at all N as one batch,
    and one click transform and one ``detect`` read them out.  N starts at
    SERIES_NODES and goes to 2N - 1, from ``state`` again, while the top
    harmonic the N phases hold, max |c_K| at K = (N - 1) / 2, is above
    SERIES_TOL; past SERIES_MAX_NODES it raises.  The open interferometer
    takes no phase: one state, one distribution."""
    size = SERIES_NODES
    while size <= SERIES_MAX_NODES:
        phases = 2.0 * math.pi * np.arange(size) / size
        read = _GaussianCircuit()
        read.state = state
        groups = {**w_groups, **_stage_interferometer(read, config, "read", phases)}
        ordered = {ch: groups[ch] for ch in _analysis_channels(config.kind)}
        dist = detect(read.click_distribution(ordered, _efficiency_map(ordered, config.noise)),
                      config.noise)
        if dist.probabilities.ndim == 1:
            return dist
        # |c_K| in real arithmetic: the cos and sin sums over the phases
        top = (size // 2) * phases
        tail = np.hypot(np.cos(top) @ dist.probabilities,
                        np.sin(top) @ dist.probabilities).max() / size
        if tail <= SERIES_TOL:
            return dist
        size = 2 * size - 1
    raise ProtocolError(f"p(Phi) keeps a top harmonic of {tail:.3g} at SERIES_MAX_NODES "
                        f"= {SERIES_MAX_NODES} phases")


def _fock_series(config, codes, probs, branches, weight, deficit) -> OutcomeDistribution:
    """The detected distribution at the 2K + 1 phases 2 pi j / (2K + 1),
    from the write patterns ``codes`` of probabilities ``probs`` and their
    read prefixes, the batch ``branches`` traced to o_rE and o_rL.  Phi
    scales an entry by exp(i Phi delta), delta = n_rL(row) - n_rL(col), and
    all after it is linear and real; so for a real prefix the diagonal the
    clicks read at Phi is sum_k cos(k Phi) times that of block k, the
    entries with |delta| = k, and K is the largest.  All blocks run one
    read interferometer, at Phi = 0, as one batch (``fock.tile``).  The
    figures are the maxima of ``weight``, ``deficit`` and the read states'.
    The open interferometer takes no phase: one block, one distribution."""
    rho = branches.rho
    if np.any(rho.vals.imag):
        raise ProtocolError("the Fock read prefix is not real: p(Phi) is no cosine series")
    closed = config.kind is not ExperimentKind.DOUBLE_CROSS_CORRELATION
    n_rL = branches.basis.occs[:, branches.mode_index("o_rL")]
    block = np.abs(n_rL[rho.rows] - n_rL[rho.cols]) * closed
    top = int(block.max())
    size = 2 * top + 1
    read = _FockCircuit(config.engine.truncation, config.engine.total_cap or FOCK_PROTOCOL_CAP)
    read.state = read.engine.tile(branches, top + 1, block)
    labels = _analysis_channels(config.kind)
    r_channels = [ch for ch in labels if ch.startswith("read")]
    r_groups = _stage_interferometer(read, config, "read", 0.0)
    r_map = {ch: r_groups[ch] for ch in r_channels}
    # element j * len(codes) + b: the diagonal of branch b at phase j
    cosines = np.cos(np.outer(2.0 * math.pi * np.arange(size) / size, np.arange(top + 1)))
    read.state = read.engine._diagonal_state(
        read.state.modes, replace(read.state.basis, batch=size * len(codes)),
        (cosines @ np.real(read.state.rho.diagonal()).reshape(top + 1, -1)).ravel())
    r_dist = read.click_distribution(r_map, _efficiency_map(r_map, config.noise))
    weight = max(weight, read.state.truncation_weight())
    deficit = max(deficit, abs(read.state.renorm_deficit))
    # rows: write pattern codes, columns: read pattern codes; the write
    # channels come first in the labels, so the row-major ravel is the code
    joint = np.zeros((size, 1 << (len(labels) - len(r_channels)), 1 << len(r_channels)))
    joint[:, codes] = probs[:, None] * r_dist.probabilities.reshape(size, len(codes), -1)
    joint = joint.reshape(size, -1)
    joint /= joint.sum(axis=-1, keepdims=True)
    return detect(OutcomeDistribution(labels, joint if closed else joint[0], (weight, deficit)),
                  config.noise)


def _read_out(prefix, phi) -> OutcomeDistribution:
    """The read-out at each relative phase phi from a phase-free prefix of
    either engine: the trigonometric interpolant through the prefix's N
    detected distributions, with round-off negatives zeroed and each row
    renormalised as the click transform does (no gate, no click transform,
    no background fold); what the click transform would raise for raises
    ProtocolError."""
    size = len(prefix.probabilities)
    weights = _periodic_weights(phi, 2.0 * math.pi * np.arange(size) / size,
                                np.ones(size // 2))
    try:
        probs = gaussian.checked_probabilities(weights @ prefix.probabilities)
    except gaussian.GaussianEngineError as exc:
        raise ProtocolError(f"read-out of p(Phi): {exc}") from None
    return OutcomeDistribution(prefix.labels, probs, prefix.truncation)


def _jitter_scale(noise: NoiseModel) -> float:
    return math.hypot(fwhm_to_sigma(noise.write_phase_jitter_fwhm),
                      fwhm_to_sigma(noise.read_phase_jitter_fwhm))


def _periodic_weights(phi, nodes: np.ndarray, damping) -> np.ndarray:
    """The (phi.shape + (N,)) weights that take a periodic function's values
    at the N equispaced phases ``nodes`` = 2 pi j / N to its value at each
    phi, with harmonic k scaled by damping[k - 1]: exact while no harmonic
    above len(damping) <= (N - 1) / 2 is present, and the trigonometric
    interpolant at unit damping."""
    # phi wrapped to one period first, so x keeps the digits of a phase near 0
    x = np.subtract.outer(np.remainder(phi, 2.0 * math.pi), nodes)
    return sum((2.0 * d * np.cos(k * x) for k, d in enumerate(damping, 1)), 1.0) / len(nodes)


def jitter_averaged_distribution(
    config: ExperimentConfig,
    phi_w: float | np.ndarray,
    phi_r: float | np.ndarray,
) -> OutcomeDistribution:
    """Exact average over the lock-phase jitter.  Overlap statistics depend
    on the write and read jitters only through their sum, a Gaussian of
    width sigma, which scales harmonic k of p(Phi) by exp(-sigma^2 k^2 / 2).
    So p is read out once at each of N equispaced phases, and every setting
    is the damped series through them (``_periodic_weights``).  N is
    JITTER_NODES, or the prefix's number of phases when that is more, so
    every harmonic the prefix holds is read.  The phases may be (S,) arrays
    of settings, and the result is then one (S, 2**n) distribution from the
    same N read-outs, with the prefix's truncation figures."""
    sigma = _jitter_scale(config.noise)
    if sigma == 0.0 or config.kind is ExperimentKind.DOUBLE_CROSS_CORRELATION:
        return exact_joint_distribution(config, phi_w, phi_r)
    prefix = _prefix(config)
    size = max(JITTER_NODES, len(prefix.probabilities))
    nodes = 2.0 * math.pi * np.arange(size) / size
    damping = np.exp(-0.5 * (sigma * np.arange(1, size // 2 + 1)) ** 2)
    mix = _periodic_weights(np.add(phi_w, phi_r), nodes, damping) @ np.array(
        [exact_joint_distribution(config, node, 0.0).probabilities for node in nodes.tolist()])
    return OutcomeDistribution(prefix.labels, mix / mix.sum(axis=-1, keepdims=True),
                               prefix.truncation)


# ---------------------------------------------------------------------------
# experiment driver


@dataclass
class SettingResult:
    """One phase setting: its exact distribution, the sampled pattern counts
    when trials > 0, and its click records when record_trials > 0, as three
    (n,) arrays: each trial's pattern code (distribution order, channel 0
    the leftmost bit), write jitter and read jitter in radians."""
    phi_w: float
    phi_r: float
    distribution: OutcomeDistribution
    counts: np.ndarray | None = None   # sampled pattern counts, distribution order
    trials: int = 0
    records: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


@dataclass
class ExperimentResult:
    settings: list[SettingResult]
    #: what manifest.json reports of a record run: count, jitter_step_rad,
    #: distinct_jitter_keys (per setting) and sample_s
    record_figures: dict | None = None


def _phase_settings(config: ExperimentConfig) -> list[tuple[float, float]]:
    if config.phases.settings is not None:
        return list(config.phases.settings)
    if config.kind is ExperimentKind.BELL_TEST:
        return list(config.phases.chsh_settings())
    return [(config.phases.phi_w, config.phases.phi_r)]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Exact distribution per phase setting plus, when trials > 0, sampled
    counts (aggregate Monte Carlo) and, when record_trials > 0, each
    setting's per-trial click records on its ``SettingResult.records``.

    Deterministic given (config, seed): trials are i.i.d., so aggregate
    sampling from the jitter-averaged exact distribution is statistically
    identical to per-trial simulation, and the per-trial records of each
    setting draw their jitters and uniforms from one generator keyed by
    (seed, 1_000_000 + setting)."""
    if config.kind is ExperimentKind.THERMAL_G2_TAU:
        raise ProtocolError("ThermalG2Tau runs through the waveguide-dynamics module")
    result = ExperimentResult(run_settings(config, _phase_settings(config)))
    if config.record_trials > 0:
        n_trials = min(config.record_trials, config.trials or config.record_trials)
        keys = []
        t0 = time.perf_counter()
        for idx, sr in enumerate(result.settings):
            sr.records, n_keys = _sample_records(config, sr.phi_w, sr.phi_r, idx, n_trials)
            keys.append(n_keys)
        result.record_figures = {
            "count": n_trials * len(result.settings),
            "jitter_step_rad": 8.0 * _jitter_scale(config.noise) / RECORD_JITTER_QUANTA,
            "distinct_jitter_keys": keys,
            "sample_s": time.perf_counter() - t0,
        }
    return result


def run_settings(config: ExperimentConfig, settings: Sequence[tuple[float, float]],
                 first_idx: int = 0) -> list[SettingResult]:
    """A scan of (phi_w, phi_r) settings: the jitter-averaged exact
    distributions (the same jitter nodes serve the whole scan) plus, when
    config.trials > 0, the counts of setting i, one multinomial draw from
    the (seed, first_idx + i) substream."""
    phi_w, phi_r = (np.array(v, dtype=float) for v in zip(*settings))
    scan = jitter_averaged_distribution(config, phi_w, phi_r)
    # the one place a batch splits: each setting keeps its own 1-D vector
    dists = [OutcomeDistribution(scan.labels, row, scan.truncation)
             for row in scan.probabilities]
    results = []
    for idx, ((phi_w, phi_r), dist) in enumerate(zip(settings, dists), start=first_idx):
        sr = SettingResult(phi_w=phi_w, phi_r=phi_r, distribution=dist)
        if config.trials > 0:
            rng = default_rng(SeedSequence(entropy=config.seed, spawn_key=(idx,)))
            sr.counts = dist.sample_counts(config.trials, rng)
            sr.trials = config.trials
        results.append(sr)
    return results


#: per-trial records share one distribution per jitter-sum step of
#: 8 sigma / RECORD_JITTER_QUANTA
RECORD_JITTER_QUANTA = 64

def _sample_records(config, phi_w, phi_r, setting_idx, n_trials):
    """Per-trial click records of one setting as (codes, jitter_w,
    jitter_r), three (n_trials,) arrays, and the number of distinct jitter
    keys they used.  A code is the trial's click pattern in the order of
    the setting's distribution, channel 0 the leftmost bit.

    Pass 1: one (seed, 1_000_000 + setting) generator draws every trial's
    standard normals, trial by trial (write jitter, then read jitter), then
    one uniform per trial; the normals are scaled afterwards as
    ``normal(0, sigma)`` scales them.  So a trial's jitters do not depend on
    the number of records, and its uniform does.  Pass 2: one exact
    distribution per distinct quantised jitter sum, each only the read-out
    of its Phi from the config's shared prefix
    (``_prefix``, on either engine), and each trial's pattern is the bin of
    its uniform in that distribution's CDF -- the very draw
    ``Generator.choice(2**n, p=p)`` makes from the same uniform."""
    noise = config.noise
    # a zero FWHM draws nothing, as in sample_phase_jitter
    sigmas = [fwhm_to_sigma(f) if f > 0.0 else None
              for f in (noise.write_phase_jitter_fwhm, noise.read_phase_jitter_fwhm)]
    drawn_sigmas = [sigma for sigma in sigmas if sigma is not None]
    rng = default_rng(SeedSequence(config.seed, spawn_key=(1_000_000 + setting_idx,)))
    z = rng.standard_normal((n_trials, len(drawn_sigmas)))
    u = rng.random(n_trials)
    # in place, rounded as normal(0, sigma) rounds 0.0 + sigma * z
    z *= drawn_sigmas
    z += 0.0
    drawn = iter(z.T)
    jw, jr = [np.zeros(n_trials) if sigma is None else next(drawn) for sigma in sigmas]
    scale, q = _jitter_scale(noise), RECORD_JITTER_QUANTA
    # jitter sums on a grid of 8 sigma / q, so trials share distributions;
    # np.round rounds half to even as round() does, + 0.0 maps -0.0 to 0.0
    keys = (np.round((jw + jr) / (8.0 * scale) * q) / q * 8.0 * scale + 0.0 if scale > 0
            else np.zeros(n_trials))
    keys, key_idx = np.unique(keys, return_inverse=True)
    # each key's trials in trial order: one stable sort, then a slice per key
    trials = np.split(key_idx.argsort(kind="stable"), np.bincount(key_idx).cumsum()[:-1])
    codes = np.empty(n_trials, dtype=np.int64)
    for key, mine in zip(keys.tolist(), trials):
        dist = exact_joint_distribution(config, phi_w, phi_r, jitter_w=key)
        p = np.clip(dist.probabilities, 0, None)
        cdf = (p / p.sum()).cumsum()
        cdf /= cdf[-1]
        codes[mine] = cdf.searchsorted(u[mine], side="right")
    return (codes, jw, jr), len(keys)


# ---------------------------------------------------------------------------
# rate budget


def rate_budget(config: ExperimentConfig) -> dict:
    """Analytic expected event rates with every factor spelled out.  Detector
    efficiency and dark counts are declared assumptions."""
    noise = config.noise
    p_w = config.p_w
    p_r = config.p_r
    rep_rate = 1.0 / config.repetition_period
    det_avg = 0.5 * (noise.channel_efficiency(1) + noise.channel_efficiency(2))
    overlap_fraction = 0.5  # inherent time-bin MZI acceptance of the overlap slot
    herald_factors = {
        "write_scattering_both_bins": 2.0 * p_w,
        "coupling_efficiency": noise.coupling_efficiency,
        "interferometer_overlap_fraction": overlap_fraction,
        "mean_filter_and_detector_efficiency": det_avg,
    }
    p_herald = math.prod(herald_factors.values())
    survival = config.waveguide.round_trip_survival
    read_factors = {
        "read_scattering": p_r,
        "round_trip_survival": survival,
        "heralded_occupancy": 1.0 + noise.occupancy_seen_by(PulseRole.READ_EARLY),
        "coupling_efficiency": noise.coupling_efficiency,
        "interferometer_overlap_fraction": overlap_fraction,
        "mean_filter_and_detector_efficiency": det_avg,
    }
    p_read = math.prod(read_factors.values())
    heralds_per_hour = 3600.0 * rep_rate * p_herald
    coincidences_per_hour = heralds_per_hour * p_read
    return {
        "repetition_rate_hz": rep_rate,
        "herald_probability_per_trial": p_herald,
        "herald_factors": herald_factors,
        "read_click_probability_given_herald": p_read,
        "read_factors": read_factors,
        "heralds_per_hour": heralds_per_hour,
        "coincidences_per_hour": coincidences_per_hour,
        "assumptions": [
            "detector efficiency %.2f/%.2f (not a measured value)" % noise.detector_efficiency,
            "dark counts %.1e per window (not a measured value)" % noise.dark_count_prob,
        ],
    }
