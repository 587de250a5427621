"""Experiment assembly: pulse interactions, thermal schedule, waveguide delay
bookkeeping, the unbalanced interferometer, the detection chain, heralding,
and exact-distribution or Monte Carlo execution.

Circuit layout per trial (entanglement-type experiments):

  write:  TMS(o_wE, m_E; p_w)  TMS(o_wL, m_L; p_w e^{i phi_w})
          -> coupling loss -> unbalanced MZI -> write detectors
  travel: mechanical modes lose exp(-tau/T1) * retrieval_efficiency, then
          thermal top-up to the scheduled occupancy seen by each read pulse
  read:   beam splitter sin^2 = p_r maps phonons onto o_rE / o_rL,
          phi_r on the late read -> coupling loss -> same MZI -> read detectors

One circuit builder serves both engines: each method calls that engine's
``apply_*`` function on the current state.  The thermal top-up is a weak
thermal loss at THERMAL_NOISE_EPSILON, the epsilon the read stage solves
its top-up for.

The MZI convention: the delay arm carries phase +phi_off (plus lock jitter),
the Early pulse reaches the overlap window through it, so heralded
coincidences fringe as 1 + cos(phi_w + phi_r - 2*phi_off) on the same
detector pair and the zero crossing with negative slope sits at
phi_w = phi_0 = 2*phi_off + pi/2.

Imperfect first-order visibility V is a mode mismatch: the delayed pulse
passes a beam splitter of transmissivity V^2 whose reflected (orthogonal)
part still reaches both detectors but does not interfere, which scales the
interfering coherence by exactly V per pass.

All statistics of the overlap windows depend on the two lock-jitter samples
only through their sum, so exact jitter averaging is a 1-D Gauss-Hermite
quadrature.  They depend on the phases only through phi_w + phi_r too, so
both engines take a whole scan at once: the Gaussian engine as one batched
circuit, the Fock engine with one write stage and one read-stage prefix per
heralded branch, shared by every setting, traced down to the two read
photons, and the read interferometer and click read-out on block-diagonal
batches of it, as many elements per block as keep it near
FOCK_BATCH_ENTRIES stored entries.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
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

GH_NODES = 21
THERMAL_NOISE_EPSILON = 0.01
FOCK_PROTOCOL_CAP = 6
#: stored entries of read-stage prefixes that one Fock read pass tiles: a
#: pass over a few entries is mostly per-call overhead, which a block of
#: elements shares, while a prefix of this size or more runs one element
#: per block, so a large state is never held many times over
FOCK_BATCH_ENTRIES = 1 << 10


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class InterferometerModel:
    phi_off: float
    visibility: float
    splitting_asymmetry: float = 0.0

    @property
    def bs2_transmissivity(self) -> float:
        # port-ratio difference equals splitting_asymmetry
        return 0.5 * (1.0 + self.splitting_asymmetry)


@dataclass(frozen=True)
class ClickRecord:
    trial: int
    clicks: tuple[str, ...]           # channel ids "window:detector"
    jitter_w: float
    jitter_r: float


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
        delta_n / THERMAL_NOISE_EPSILON."""
        self.thermal_loss(m, 1.0 - THERMAL_NOISE_EPSILON, delta_n / THERMAL_NOISE_EPSILON)

    def mean_occupation(self, m):
        return self.state.mean_occupation(m)


class _GaussianCircuit(_Circuit):
    def __init__(self):
        super().__init__(gaussian, gaussian.CovarianceState(()))

    #: (input key, probabilities) of the last successful click transform,
    #: replaced whole and never written into: a bit-identical final state
    #: (every jitter key of the open-arm cross-correlation run) reuses it
    #: instead of redoing the 2**n vacuum subsets
    _memo = (None, None)

    def click_distribution(self, detector_map, efficiency):
        st = self.state
        key = (st.modes, st.sigma.shape, st.sigma.tobytes(), st.mean.tobytes(),
               tuple((ch, tuple(modes)) for ch, modes in detector_map.items()),
               tuple(efficiency.items()) if isinstance(efficiency, Mapping) else efficiency)
        cached_key, probs = _GaussianCircuit._memo
        if cached_key != key:
            probs = gaussian.click_probabilities(st, detector_map, efficiency).probabilities
            _GaussianCircuit._memo = (key, probs)
        return OutcomeDistribution(tuple(detector_map), probs.copy())


class _FockCircuit(_Circuit):
    def __init__(self, n_max: int, total_cap: int):
        # imported only here, so a Gaussian run loads no SciPy
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
    phi_late: float,
    interferometer: InterferometerModel,
    jitter: float = 0.0,
) -> dict[str, list[str]]:
    """Send the early/late pulse pair through the unbalanced MZI.

    Returns the mapping from the overlap-window detector channels to engine
    modes.  The light headed for the non-overlap time slots is traced out
    (a plain loss), which leaves every overlap-window statistic untouched.
    """
    pre = "w" if which == "write" else "r"
    circuit.phase(late_mode, phi_late)
    circuit.loss(early_mode, 0.5)
    circuit.loss(late_mode, 0.5)
    circuit.phase(early_mode, interferometer.phi_off + jitter)
    mis = f"{pre}:mis"
    circuit.add_mode(mis)
    v = interferometer.visibility
    circuit.beam_splitter(early_mode, mis, v * v)
    circuit.beam_splitter(early_mode, late_mode, interferometer.bs2_transmissivity)
    mis2 = f"{pre}:mis2"
    circuit.add_mode(mis2)
    circuit.beam_splitter(mis, mis2, 0.5)
    return {f"{which}-overlap:1": [early_mode, mis], f"{which}-overlap:2": [late_mode, mis2]}


def apply_open_interferometer(circuit, which: str, early_mode: str, late_mode: str,
                              phi_late: float) -> dict[str, list[str]]:
    """Delay arm disconnected: each pulse loses its delayed half and the
    direct half splits over the two detectors without interference.  The
    early bin occupies the direct slot and the late bin the overlap slot."""
    pre = "w" if which == "write" else "r"
    circuit.phase(late_mode, phi_late)
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


def _interferometer(config: ExperimentConfig) -> InterferometerModel:
    """The one MZI both stages pass through."""
    return InterferometerModel(
        phi_off=config.phases.phi_off,
        visibility=config.noise.interferometer_visibility,
        splitting_asymmetry=config.splitting_asymmetry,
    )


def run_write_stage(
    circuit,
    config: ExperimentConfig,
    phi_w: float,
    jitter: float = 0.0,
) -> dict[str, list[str]]:
    """Two write pulses: pair creation on each time bin, then the write
    photons through coupling loss and the interferometer."""
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
    return _stage_interferometer(circuit, config, "write", phi_w, jitter)


def run_read_stage(
    circuit,
    config: ExperimentConfig,
    phi_r: float,
    jitter: float = 0.0,
) -> dict[str, list[str]]:
    """Round-trip decay and thermal top-up of the mechanical bins, readout
    beam splitters, then the read photons through the interferometer."""
    _read_prefix(circuit, config)
    return _stage_interferometer(circuit, config, "read", phi_r, jitter)


def _stage_interferometer(circuit, config: ExperimentConfig, which: str, phi_late,
                          jitter) -> dict[str, list[str]]:
    """A stage's photons through the MZI, or through the open one of the
    cross-correlation kind."""
    early, late = ("o_wE", "o_wL") if which == "write" else ("o_rE", "o_rL")
    if config.kind is ExperimentKind.DOUBLE_CROSS_CORRELATION:
        return apply_open_interferometer(circuit, which, early, late, phi_late)
    return apply_interferometer(circuit, which, early, late, phi_late,
                                _interferometer(config), jitter)


def _read_prefix(circuit, config: ExperimentConfig) -> None:
    """The read stage up to its interferometer: round-trip decay and thermal
    top-up of the mechanical bins, readout beam splitters, coupling loss."""
    noise = config.noise
    survival = config.waveguide.round_trip_survival
    for mech, read_role in (("m_E", PulseRole.READ_EARLY), ("m_L", PulseRole.READ_LATE)):
        circuit.loss(mech, survival)
        target = noise.occupancy_seen_by(read_role)
        # no phase touches a mechanical mode, so every element of a batched
        # state holds the same finite occupancy; anything else is a circuit
        # fault (a NaN would make the top-up test below false, skipping it)
        occupation = np.ravel(circuit.mean_occupation(mech))
        if not (np.isfinite(occupation[0]) and np.all(occupation == occupation[0])):
            raise ProtocolError(f"occupancy of {mech} differs across the batch "
                                f"or is not finite: {occupation}")
        # the injection channel itself attenuates by (1 - epsilon) before
        # adding delta, so solve for the delta that lands on the target
        delta = target - (1.0 - THERMAL_NOISE_EPSILON) * float(occupation[0])
        if delta > 1e-12:
            circuit.thermal_noise(mech, delta)
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
    scalars are its batch-of-one case.  ``config.engine`` picks the engine."""
    noise = config.noise
    if config.engine.name == "fock":
        dist = _fock_joint_distribution(config, phi_w, phi_r, jitter_w, jitter_r)
    else:
        circuit = _GaussianCircuit()
        groups = run_write_stage(circuit, config, phi_w, jitter_w)
        groups.update(run_read_stage(circuit, config, phi_r, jitter_r))
        ordered = {ch: groups[ch] for ch in _analysis_channels(config.kind)}
        dist = circuit.click_distribution(ordered, _efficiency_map(ordered, noise))
    return detect(dist, noise)


def _fock_joint_distribution(config, phi_w, phi_r, jitter_w, jitter_r) -> OutcomeDistribution:
    """Staged exact Fock pipeline over a scan: measure and trace the write
    photons first, then run the read stage on each conditioned mechanical
    state, and trace the mechanical modes out once the readout splitters
    have swapped them onto the read photons.  Keeps at most six live modes
    up to that trace and four after it.

    The overlap statistics see the phases only through phi_w + phi_r and
    the jitters only through jitter_w + jitter_r: the squeezer conserves
    n_o - n_m on a diagonal thermal input, so a phase on o_wL is that phase
    on m_L; loss, top-up and the occupancy read are phase covariant; and the
    readout splitter, o_rL in vacuum, hands it on to o_rL (o_wE to o_rE
    alike).  So the write stage runs once at zero phase and jitter, each
    heralded branch runs the read stage's prefix once, and only the read
    interferometer and the click read-out run per element, at the summed
    phase and jitter: on blocks of max(1, FOCK_BATCH_ENTRIES // entries of
    the traced prefix) elements, each block one block-diagonal Fock batch.
    The truncation figures include the prefix before its trace."""
    noise = config.noise
    phi, jitter = np.broadcast_arrays(np.add(phi_w, phi_r), np.add(jitter_w, jitter_r))
    shape = phi.shape
    phi, jitter = phi.ravel(), jitter.ravel()
    n_max, cap = config.engine.truncation, config.engine.total_cap or FOCK_PROTOCOL_CAP
    circuit = _FockCircuit(n_max, cap)
    w_groups = run_write_stage(circuit, config, 0.0)
    w_channels = [ch for ch in _analysis_channels(config.kind) if ch.startswith("write")]
    r_channels = [ch for ch in _analysis_channels(config.kind) if ch.startswith("read")]
    w_map = {ch: w_groups[ch] for ch in w_channels}
    # per element, rows: write pattern codes, columns: read pattern codes;
    # write channels come first in the labels, so the row-major ravel of the
    # last two axes is the joint code
    joint = np.zeros((phi.size, 1 << len(w_channels), 1 << len(r_channels)))
    # running maxima, so no block's state outlives its read-out
    weight, deficit = circuit.state.truncation_weight(), abs(circuit.state.renorm_deficit)
    read = _FockCircuit(n_max, cap)
    for w_code, w_prob, mech_state in circuit.measure(w_map, _efficiency_map(w_map, noise)):
        read.state = mech_state
        _read_prefix(read, config)
        weight = max(weight, read.state.truncation_weight())
        deficit = max(deficit, abs(read.state.renorm_deficit))
        # nothing after the readout splitters touches m_E or m_L
        prefix = read.engine.partial_trace(read.state, ["o_rE", "o_rL"])
        size = max(1, FOCK_BATCH_ENTRIES // prefix.rho.nnz)
        for block in (slice(start, start + size) for start in range(0, phi.size, size)):
            read.state = read.engine.tile(prefix, len(phi[block]))
            r_groups = _stage_interferometer(read, config, "read", phi[block], jitter[block])
            r_map = {ch: r_groups[ch] for ch in r_channels}
            r_dist = read.click_distribution(r_map, _efficiency_map(r_map, noise))
            joint[block, w_code] = w_prob * r_dist.probabilities.reshape(-1, joint.shape[-1])
            weight = max(weight, read.state.truncation_weight())
            deficit = max(deficit, abs(read.state.renorm_deficit))
    joint = joint.reshape(shape + (-1,))
    return OutcomeDistribution(tuple(w_channels) + tuple(r_channels),
                               joint / joint.sum(axis=-1, keepdims=True), (weight, deficit))


def _jitter_scale(noise: NoiseModel) -> float:
    return math.hypot(fwhm_to_sigma(noise.write_phase_jitter_fwhm),
                      fwhm_to_sigma(noise.read_phase_jitter_fwhm))


def _mix(weights, dists: Sequence[OutcomeDistribution]) -> OutcomeDistribution:
    mix = sum(wi * dist.probabilities for wi, dist in zip(weights, dists))
    figures = [dist.truncation for dist in dists if dist.truncation is not None]
    truncation = tuple(map(float, np.max(figures, axis=0))) if figures else None
    return OutcomeDistribution(dists[0].labels, mix / mix.sum(axis=-1, keepdims=True),
                               truncation)


def jitter_averaged_distribution(
    config: ExperimentConfig,
    phi_w: float | np.ndarray,
    phi_r: float | np.ndarray,
) -> OutcomeDistribution:
    """Exact average over the lock-phase jitter.  Overlap statistics depend
    on the write and read jitters only through their sum, so a 1-D
    Gauss-Hermite rule of GH_NODES nodes is exact up to quadrature order.
    The phases may be (S,) arrays of settings: each node is then one circuit
    batched over the settings, and the result one (S, 2**n) distribution."""
    sigma = _jitter_scale(config.noise)
    if sigma == 0.0 or config.kind is ExperimentKind.DOUBLE_CROSS_CORRELATION:
        return exact_joint_distribution(config, phi_w, phi_r)
    x, w = hermegauss(GH_NODES)
    w = w / math.sqrt(2.0 * math.pi)
    return _mix(w, [exact_joint_distribution(config, phi_w, phi_r, jitter_w=sigma * xi)
                    for xi in x])


# ---------------------------------------------------------------------------
# experiment driver


@dataclass
class SettingResult:
    phi_w: float
    phi_r: float
    distribution: OutcomeDistribution
    counts: np.ndarray | None = None   # sampled pattern counts, distribution order
    trials: int = 0


@dataclass
class ExperimentResult:
    kind: ExperimentKind
    settings: list[SettingResult]
    records: list[ClickRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def _phase_settings(config: ExperimentConfig) -> list[tuple[float, float]]:
    if config.phase_sweep is not None:
        return list(config.phase_sweep)
    if config.kind is ExperimentKind.BELL_TEST:
        return list(config.phases.chsh_settings())
    return [(config.phases.phi_w, config.phases.phi_r)]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Exact distribution per phase setting plus, when trials > 0, sampled
    counts (aggregate Monte Carlo) and optionally per-trial click records.

    Deterministic given (config, seed): trials are i.i.d., so aggregate
    sampling from the jitter-averaged exact distribution is statistically
    identical to per-trial simulation, and the per-trial records of each
    setting draw their jitters and uniforms from one generator keyed by
    (seed, 1_000_000 + setting)."""
    if config.kind is ExperimentKind.THERMAL_G2_TAU:
        raise ProtocolError("ThermalG2Tau runs through the waveguide-dynamics module")
    settings = _phase_settings(config)
    setting_results = run_settings(config, settings)
    result = ExperimentResult(kind=config.kind, settings=setting_results, metadata={
        "engine": config.engine.name,
        "seed": config.seed,
        "trials_per_setting": config.trials,
        "repetition_period": config.repetition_period,
        "trial_spacing_over_t1": config.repetition_period / config.waveguide.T1,
        "assumed_detector_efficiency": list(config.noise.detector_efficiency),
        "assumed_dark_count_prob": config.noise.dark_count_prob,
    })
    if config.record_trials > 0:
        n_trials = min(config.record_trials, config.trials or config.record_trials)
        keys = []
        t0 = time.perf_counter()
        for idx, (phi_w, phi_r) in enumerate(settings):
            records, n_keys = _sample_records(config, phi_w, phi_r, idx, n_trials)
            result.records.extend(records)
            keys.append(n_keys)
        result.metadata["records"] = {
            "count": len(result.records),
            "jitter_step_rad": 8.0 * _jitter_scale(config.noise) / RECORD_JITTER_QUANTA,
            "distinct_jitter_keys": keys,
            "sample_s": time.perf_counter() - t0,
        }
    return result


def run_settings(config: ExperimentConfig, settings: Sequence[tuple[float, float]],
                 first_idx: int = 0) -> list[SettingResult]:
    """A scan of (phi_w, phi_r) settings: the jitter-averaged exact
    distributions (every quadrature node is one circuit batched over the
    scan) plus, when config.trials > 0, the counts of setting i, one
    multinomial draw from the (seed, first_idx + i) substream."""
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

def _sample_records(config, phi_w, phi_r, setting_idx,
                    n_trials) -> tuple[list[ClickRecord], int]:
    """Per-trial click records of one setting, and the number of distinct
    jitter keys they used.

    Pass 1: one (seed, 1_000_000 + setting) generator draws every trial's
    standard normals, trial by trial (write jitter, then read jitter), then
    one uniform per trial; the normals are scaled afterwards as
    ``normal(0, sigma)`` scales them.  So a trial's jitters do not depend on
    the number of records, and its uniform does.  Pass 2: one exact
    distribution per distinct quantised jitter sum, and each trial's pattern
    is the bin of its uniform in that distribution's CDF -- the very draw
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
    codes = np.empty(n_trials, dtype=np.int64)
    for k, key in enumerate(keys.tolist()):
        dist = exact_joint_distribution(config, phi_w, phi_r, jitter_w=key)
        p = np.clip(dist.probabilities, 0, None)
        cdf = (p / p.sum()).cumsum()
        cdf /= cdf[-1]
        mine = key_idx == k
        codes[mine] = cdf.searchsorted(u[mine], side="right")
    n = len(dist.labels)
    patterns = [tuple(ch for b, ch in enumerate(dist.labels) if code >> (n - 1 - b) & 1)
                for code in range(1 << n)]
    records = [ClickRecord(trial=t, clicks=patterns[c], jitter_w=w, jitter_r=r)
               for t, (c, w, r) in enumerate(zip(codes.tolist(), jw.tolist(), jr.tolist()))]
    return records, len(keys)


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
    p_herald = 1.0
    for v in herald_factors.values():
        p_herald *= v
    survival = config.waveguide.round_trip_survival
    read_factors = {
        "read_scattering": p_r,
        "round_trip_survival": survival,
        "heralded_occupancy": 1.0 + noise.occupancy_seen_by(PulseRole.READ_EARLY),
        "coupling_efficiency": noise.coupling_efficiency,
        "interferometer_overlap_fraction": overlap_fraction,
        "mean_filter_and_detector_efficiency": det_avg,
    }
    p_read = 1.0
    for v in read_factors.values():
        p_read *= v
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
