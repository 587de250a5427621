"""Cross-engine and analytic-limit verification suites.

Each op of a random circuit names the protocol circuit-builder method that
runs it, so both engines replay a circuit through the one builder.  The
random-circuit generator draws from the shared engine vocabulary over
the protocol's operating envelope (pair probabilities <= 0.02, thermal
occupancies <= 0.2, up to 6 modes).  Two structural constraints keep the
per-mode cutoff N = 5 honest to 1e-6 on click probabilities:

* number-mixing two-mode unitaries (squeezers and beam splitters) only act
  on mode pairs whose summed occupancy is <= 0.085.  Mixing hotter pairs at
  N = 5 carries an irreducible ~1e-6-1e-5 truncation error from the clipped
  cutoff ladders regardless of representation; the protocol's own two-mode
  ops always pair a near-vacuum optical mode with a <= 0.1 mechanical one.
  Hotter modes (up to 0.2) enter through state preparation, loss and
  thermal channels, phases and detection, where the truncated thermal
  representation is benign;
* larger circuits run cooler (the total-quanta cap that keeps a 6-mode
  density matrix tractable needs the joint thermal tail small);
* the hot mode sees only weak thinning (loss survival and detector
  efficiency >= 0.8, the SNSPD range): deep binomial thinning of a
  0.2-occupancy thermal state probes the truncated tail at the ~1e-6 level
  no matter how the kept levels are weighted.

Elsewhere loss survivals are drawn in [0.5, 1], the protocol's physical
range.

The Fock side of each circuit (``fock_clicks``) keeps only the coherences
its click read-out can still see: at the start and after each two-mode
gate, ``fock.prune_coherences`` drops every entry that the two-mode gates
still to run cannot bring onto the diagonal.  The distributions are those
of the unpruned run, bit for bit, and the smoke suite's largest state
holds 26,398 entries instead of 262,449.  The Gaussian side runs every op
as it stands.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis, fock, gaussian, protocol
from .core import (
    EngineSpec,
    ExperimentConfig,
    ExperimentKind,
    NoiseModel,
    OutcomeDistribution,
    PhaseSettings,
    PulseRole,
    WaveguideParams,
    build_pulse_sequence,
)

CROSS_ENGINE_TOL = 1e-6
ROLES = (PulseRole.WRITE_EARLY, PulseRole.WRITE_LATE,
         PulseRole.READ_EARLY, PulseRole.READ_LATE)

# (max thermal occupancy, total-quanta cap) per mode count at n_max = 5
_ENVELOPE = {2: (0.2, 10), 3: (0.2, 10), 4: (0.2, 10), 5: (0.1, 8), 6: (0.08, 8)}
_MODE_WEIGHTS = {2: 0.28, 3: 0.26, 4: 0.24, 5: 0.14, 6: 0.08}


@dataclass
class OracleReport:
    passed: bool = True
    lines: list[str] = field(default_factory=list)

    def check(self, ok: bool, line: str):
        self.lines.append(("PASS " if ok else "FAIL ") + line)
        self.passed &= ok


MIXING_SUM_LIMIT = 0.085
COOL_INIT_MAX = 0.04


def random_circuit(rng: np.random.Generator) -> dict:
    """One random vocabulary circuit description (engine independent): each
    op is (builder method name, *its arguments)."""
    n_modes = rng.choice(list(_MODE_WEIGHTS), p=list(_MODE_WEIGHTS.values()))
    n_modes = int(n_modes)
    hot_cap, total_cap = _ENVELOPE[n_modes]
    modes = [f"m{k}" for k in range(n_modes)]
    # at most one "hot" (detection-only) mode; interacting modes stay cool
    hot = modes[int(rng.integers(n_modes))] if rng.random() < 0.6 else None
    occ = {}
    for m in modes:
        if m == hot:
            occ[m] = float(rng.uniform(0.5 * hot_cap, hot_cap))
        else:
            occ[m] = float(rng.uniform(0.0, min(COOL_INIT_MAX, hot_cap))
                           ) if rng.random() < 0.6 else 0.0
    current = dict(occ)
    # accumulated pair amplitude per mode pair: splitting the two arms of a
    # squeezer maps |n,n> pair terms onto |2n>, so at N = 5 an arm-mixing
    # beam splitter stays 1e-6-exact only while p^3 stays negligible
    pair_p: dict[frozenset, float] = {}
    ops = []

    for _ in range(int(rng.integers(3, 8))):
        kind = rng.choice(["squeeze", "beam_splitter", "phase", "loss", "thermal_loss"],
                          p=[0.25, 0.25, 0.15, 0.2, 0.15])
        if kind in ("squeeze", "beam_splitter") and n_modes >= 2:
            cool = [m for m in modes if m != hot]
            pairs = [(a, b) for i, a in enumerate(cool) for b in cool[i + 1:]
                     if current[a] + current[b] <= MIXING_SUM_LIMIT]
            if not pairs:
                continue
            a, b = pairs[int(rng.integers(len(pairs)))]
            if rng.random() < 0.5:
                a, b = b, a
            if kind == "squeeze":
                p = float(rng.uniform(0.0, 0.02))
                ops.append(("squeeze", a, b, p, float(rng.uniform(0, 2 * math.pi))))
                current[a] += p * (1 + current[a] + current[b])
                current[b] += p * (1 + current[a] + current[b])
                pair_p[frozenset((a, b))] = pair_p.get(frozenset((a, b)), 0.0) + p
            else:
                if pair_p.get(frozenset((a, b)), 0.0) > 0.008:
                    continue
                t = float(rng.uniform(0, 1))
                na, nb = current[a], current[b]
                current[a] = t * na + (1 - t) * nb
                current[b] = (1 - t) * na + t * nb
                ops.append(("beam_splitter", a, b, t, float(rng.uniform(0, 2 * math.pi))))
        elif kind == "phase":
            ops.append(("phase", modes[int(rng.integers(n_modes))],
                        float(rng.uniform(0, 2 * math.pi))))
        elif kind == "loss":
            m = modes[int(rng.integers(n_modes))]
            s = float(rng.uniform(0.8, 1.0) if m == hot else rng.uniform(0.5, 1.0))
            current[m] *= s
            ops.append(("loss", m, s))
        else:
            m = modes[int(rng.integers(n_modes))]
            s = float(rng.uniform(0.9, 1.0))
            cap = hot_cap if m == hot else 0.06
            n_env = float(rng.uniform(0.0, cap))
            current[m] = s * current[m] + (1 - s) * n_env
            ops.append(("thermal_loss", m, s, n_env))
    detectors: dict[str, list[str]] = {}
    n_det = min(int(rng.integers(2, 5)), n_modes)
    for k, m in enumerate(modes):
        detectors.setdefault(f"d{k % n_det}", []).append(m)
    efficiency = {
        d: float(rng.uniform(0.8, 1.0) if hot in group else rng.uniform(0.5, 1.0))
        for d, group in detectors.items()}
    return {"modes": modes, "occupations": occ, "ops": ops,
            "detectors": detectors, "efficiency": efficiency,
            "total_cap": total_cap}


#: the builder's two-mode gates, by the ladder kind ``fock.prune_coherences`` takes
_LADDER_KIND = {"beam_splitter": "bs", "squeeze": "tms"}


def fock_clicks(state: fock.FockState, ops, detectors, efficiency
                ) -> tuple[OutcomeDistribution, int]:
    """The Fock engine's click distribution after ``ops`` (builder method
    name, *its arguments) from ``state``, and the most entries the state
    held.  At the start, and after each two-mode gate, the state keeps
    only the entries that the two-mode gates still to run can bring onto
    the diagonal (``fock.prune_coherences``): no other entry ever reaches a
    click.  A channel or a phase keeps every mode's row-column difference,
    so no prune is needed after one."""
    circuit = protocol._FockCircuit(state.n_max, state.basis.total_max)
    remaining = [(_LADDER_KIND[kind], *args[:2]) for kind, *args in ops if kind in _LADDER_KIND]
    circuit.state = fock.prune_coherences(state, remaining)
    peak = state.rho.nnz
    for kind, *args in ops:
        getattr(circuit, kind)(*args)
        peak = max(peak, circuit.state.rho.nnz)
        if kind in _LADDER_KIND:
            remaining = remaining[1:]
            circuit.state = fock.prune_coherences(circuit.state, remaining)
    return circuit.click_distribution(detectors, efficiency), peak


def cross_engine_deviation(desc: dict, n_max: int = 5) -> tuple[float, int]:
    """Largest click-pattern difference between the two engines running one
    circuit description from its thermal start state, and the most entries
    the Fock state held."""
    modes, occupations = desc["modes"], desc["occupations"]
    fock_dist, peak = fock_clicks(
        fock.init_thermal(modes, n_max, occupations, total_max=desc["total_cap"]),
        desc["ops"], desc["detectors"], desc["efficiency"])
    circuit = protocol._GaussianCircuit()
    circuit.state = gaussian.thermal_state(modes, occupations)
    for kind, *args in desc["ops"]:
        getattr(circuit, kind)(*args)
    gaussian_dist = circuit.click_distribution(desc["detectors"], desc["efficiency"])
    return float(np.abs(gaussian_dist.probabilities - fock_dist.probabilities).max()), peak


def cross_engine_suite(n_circuits: int, seed: int, n_max: int = 5):
    """Worst click-pattern deviation over the random-circuit ensemble, the
    circuit it came from and the most entries a Fock state held."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_idx = -1
    peak = 0
    for i in range(n_circuits):
        desc = random_circuit(rng)
        dev, entries = cross_engine_deviation(desc, n_max)
        peak = max(peak, entries)
        if dev > worst:
            worst, worst_idx = dev, i
    return worst, worst_idx, peak


# ---------------------------------------------------------------------------
# analytic-limit suite


def ideal_limit_config(p: float = 1e-5, phi_off: float = 0.2,
                       flip_phase_sign: bool = False) -> ExperimentConfig:
    """Noiseless protocol restricted to the single-excitation sector: Fock
    truncation with a total-quanta cap of 2 removes multi-pair terms, so the
    exact fringe is cos(Phi) up to O(p^2/4) from the pair-normalization of
    the second squeezer (p = 1e-5 puts that at 2.5e-11)."""
    noise = NoiseModel(
        thermal_schedule=tuple((r, 0.0) for r in ROLES),
        interferometer_visibility=1.0,
        write_phase_jitter_fwhm=0.0, read_phase_jitter_fwhm=0.0,
        detector_efficiency=(1.0, 1.0), dark_count_prob=0.0,
        leakage_prob={"write": (0.0, 0.0), "read": (0.0, 0.0)},
        coupling_efficiency=1.0, filter_pulse_efficiency=(1.0, 1.0))
    wg = WaveguideParams(T1=math.inf)
    return ExperimentConfig(
        kind=ExperimentKind.TIME_BIN_ENTANGLEMENT,
        waveguide=wg,
        pulses=build_pulse_sequence(ExperimentKind.TIME_BIN_ENTANGLEMENT,
                                    wg.round_trip_time, p, 2.0 * p),
        phases=PhaseSettings(phi_off=-phi_off if flip_phase_sign else phi_off),
        noise=noise, trials=0, seed=1,
        engine=EngineSpec("fock", truncation=2, total_cap=2))


def herald_conditioned_fringe(dist: OutcomeDistribution) -> tuple[float, float]:
    """Read-detector fringe per heralding detector, in the absolute
    convention E_k = [P(read 1 | herald k) - P(read 2 | herald k)] / sum."""
    n = analysis.overlap_table(dist).counts
    return tuple((n[(k, 1)] - n[(k, 2)]) / (n[(k, 1)] + n[(k, 2)]) for k in (1, 2))


def fringe_suite(n_points: int = 24, flip_phase_sign: bool = False
                 ) -> tuple[float, float, float]:
    """(worst |E - cos Phi| with E pooled over heralds per the four-count
    formula, cross-detector probability at Phi = 0 for a detector-1 herald,
    worst residual of the herald sign flip E_abs(2) = -E_abs(1)).  The fringe
    points and the Phi = 0 point run as one Fock scan."""
    phi_off = 0.2
    cfg = ideal_limit_config(phi_off=phi_off, flip_phase_sign=flip_phase_sign)
    phis = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    # Phi = 0 last: coincidences only on the heralding detector
    phi_w0 = 2.0 * phi_off - 0.3
    *fringe, zero = (sr.distribution for sr in protocol.run_settings(
        cfg, [(phi, 0.3) for phi in phis] + [(phi_w0, 0.3)]))
    worst_fringe = 0.0
    worst_flip = 0.0
    for phi, dist in zip(phis, fringe):
        e1, e2 = herald_conditioned_fringe(dist)
        target = math.cos(phi + 0.3 - 2.0 * phi_off)
        # pooled fringe: same-detector coincidences carry 1 + cos for both
        # heralds, so the detector-1-herald absolute fringe is +cos(Phi)
        worst_fringe = max(worst_fringe, abs(e1 - target))
        # detector-2 herald sees the pattern at Phi + pi
        worst_flip = max(worst_flip, abs(e1 + e2))
    herald = zero.prob(**{"write-overlap:1": True, "write-overlap:2": False})
    return worst_fringe, analysis.overlap_table(zero).counts[(1, 2)] / herald, worst_flip


def tms_click_ratio(p: float = 0.002) -> float:
    """Threshold-detector coincidence over singles product for a two-mode
    squeezed vacuum: exactly 1/p for ideal detection."""
    st = gaussian.vacuum_state(["a", "b"])
    st = gaussian.apply_two_mode_squeeze(st, "a", "b", p, 0.0)
    d = gaussian.click_probabilities(st, {"da": ["a"], "db": ["b"]})
    return d.prob(da=True, db=True) / (d.prob(da=True) * d.prob(db=True))


def run_oracle_suite(scale: str = "default", seed: int = 20260809) -> OracleReport:
    n_circuits = {"smoke": 20, "default": 200, "full": 400}[scale]
    report = OracleReport()
    t0 = time.perf_counter()
    worst, idx, peak = cross_engine_suite(n_circuits, seed)
    report.check(worst < CROSS_ENGINE_TOL,
                 f"cross-engine: {n_circuits} circuits, worst deviation "
                 f"{worst:.3e} (circuit {idx}) < {CROSS_ENGINE_TOL:g}, largest Fock "
                 f"state {peak:,} entries [{time.perf_counter() - t0:.2f}s]")
    fringe, cross0, flip = fringe_suite()
    report.check(fringe < 1e-9, f"fringe oracle: max |E - cos(Phi)| = {fringe:.3e} < 1e-9")
    report.check(cross0 < 1e-9,
                 f"same-detector branch at Phi=0: cross probability {cross0:.3e} < 1e-9")
    report.check(flip < 1e-9, f"herald sign flip residual {flip:.3e} < 1e-9")
    from .waveguide import g2_tau_curve, synthetic_spectrum
    spec = synthetic_spectrum(12, 7.94e6)
    g20 = float(g2_tau_curve(spec, [0.0])[0])
    report.check(abs(g20 - 2.0) < 1e-6, f"thermal g2(0) = {g20:.9f} within 1e-6 of 2")
    ratio = tms_click_ratio(0.002)
    report.check(abs(ratio - 500.0) < 500.0 * 1e-6,
                 f"TMS click ratio {ratio:.6f} vs 1/p = 500")
    return report
