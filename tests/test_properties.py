"""Property tests of the dense click-distribution vector (the subset
transform, background folding, chunked sampling), of the Gaussian engine's
local gate updates and batch axis, and of the config dict round trip."""

import itertools
import math
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonon_timebin import gaussian, protocol
from phonon_timebin.core import (
    ExperimentKind,
    OutcomeDistribution,
    PulseRole,
    config_digest,
    config_from_dict,
    config_to_dict,
    fwhm_to_sigma,
    load_config,
)

FAST = settings(max_examples=30, deadline=None)
unit = st.floats(0.0, 1.0)


@st.composite
def gaussian_states(draw):
    """A random zero-mean state of 1-5 detector modes: thermal inputs, a
    few squeezers, beam splitters and losses."""
    n = draw(st.integers(1, 5))
    modes = [f"m{k}" for k in range(n)]
    state = gaussian.thermal_state(
        modes, {m: draw(st.floats(0.0, 0.3)) for m in modes})
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.permutations(modes + ["vac"]))[:2]
        if "vac" in (a, b):
            state = gaussian.apply_loss(state, a if b == "vac" else b,
                                        draw(st.floats(0.3, 1.0)))
        elif draw(st.booleans()):
            state = gaussian.apply_two_mode_squeeze(state, a, b, draw(st.floats(0.0, 0.2)),
                                                    draw(st.floats(0.0, 6.3)))
        else:
            state = gaussian.apply_beam_splitter(state, a, b, draw(unit),
                                                 draw(st.floats(0.0, 6.3)))
    return state


def brute_force_clicks(state, detector_map):
    """Per-pattern inclusion-exclusion over the vacuum probabilities of
    every quiet superset, channel 0 the most significant bit."""
    dets = list(detector_map)
    n = len(dets)
    probs = np.empty(1 << n)
    for code in range(1 << n):
        pattern = [code >> (n - 1 - k) & 1 for k in range(n)]
        clicks = [k for k in range(n) if pattern[k]]
        quiet = [k for k in range(n) if not pattern[k]]
        total = 0.0
        for r in range(len(clicks) + 1):
            for sub in itertools.combinations(clicks, r):
                labels = [m for k in sorted(quiet + list(sub)) for m in detector_map[dets[k]]]
                total += (-1) ** r * gaussian.vacuum_probability(state, labels)
        probs[code] = total
    return probs


@FAST
@given(gaussian_states())
def test_moebius_matches_inclusion_exclusion(state):
    detector_map = {f"d{k}": [m] for k, m in enumerate(state.modes)}
    dist = gaussian.click_probabilities(state, detector_map)
    assert dist.probabilities == pytest.approx(
        brute_force_clicks(state, detector_map), abs=1e-12)


@st.composite
def distributions(draw):
    n = draw(st.integers(1, 4))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1 << n,
                                     max_size=1 << n))) + 1e-3
    labels = tuple(f"c{k}" for k in range(n))
    return OutcomeDistribution(labels, weights / weights.sum())


@FAST
@given(distributions(), st.data())
def test_background_is_channel_order_independent(dist, data):
    n = len(dist.labels)
    betas = data.draw(st.lists(unit, min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))

    def permuted(d):
        p = d.probabilities.reshape((2,) * n).transpose(perm).ravel()
        return OutcomeDistribution(tuple(d.labels[k] for k in perm), p)

    direct = permuted(dist.with_background(betas))
    reordered = permuted(dist).with_background([betas[k] for k in perm])
    assert reordered.labels == direct.labels
    assert reordered.probabilities == pytest.approx(direct.probabilities, abs=1e-15)


@FAST
@given(distributions(), st.integers(0, 3 * protocol.SAMPLE_CHUNK),
       st.integers(0, 2**32), st.integers(0, 40))
def test_chunked_sampling_conserves_trials_and_is_deterministic(dist, trials, seed, idx):
    counts = protocol.sample_counts_chunked(dist, trials, seed, idx)
    assert counts.shape == dist.probabilities.shape
    assert counts.min() >= 0
    assert counts.sum() == trials
    assert np.array_equal(counts, protocol.sample_counts_chunked(dist, trials, seed, idx))


def test_negative_click_mass_raises(monkeypatch):
    # P0 of the pair above each single-detector P0 is impossible: it gives
    # the one-click patterns a probability of -0.4
    inconsistent = {0: 1.0, 1: 0.5, 2: 0.9}
    monkeypatch.setattr(gaussian, "vacuum_probability",
                        lambda state, labels: inconsistent[len(labels)])
    st_ = gaussian.vacuum_state(["a", "b"])
    with pytest.raises(gaussian.GaussianEngineError, match="negative"):
        gaussian.click_probabilities(st_, {"da": ["a"], "db": ["b"]})


def test_click_round_off_is_zeroed(monkeypatch):
    # a pattern total of -1e-12 is round-off: zeroed, not raised
    values = {0: 1.0, 1: 1.0, 2: 1.0 + 1e-12}
    monkeypatch.setattr(gaussian, "vacuum_probability",
                        lambda state, labels: values[len(labels)])
    st_ = gaussian.vacuum_state(["a", "b"])
    dist = gaussian.click_probabilities(st_, {"da": ["a"], "db": ["b"]})
    assert dist.probabilities.min() == 0.0


# ---------------------------------------------------------------------------
# local gate updates and the batch axis


@st.composite
def gate_sequences(draw, batch=None):
    """(modes, initial occupations, gates) on 2-6 modes.  Each gate is
    (op, labels, params); with ``batch`` every phase angle is either a float
    or a (batch,) array."""
    n = draw(st.integers(2, 6))
    modes = [f"m{k}" for k in range(n)]
    occupations = {m: draw(st.floats(0.0, 0.3)) for m in modes}
    angle = st.floats(-6.3, 6.3)
    if batch is not None:
        angle = st.one_of(angle, st.lists(angle, min_size=batch, max_size=batch).map(np.array))
    gates = []
    for _ in range(draw(st.integers(1, 10))):
        a, b = draw(st.permutations(modes))[:2]
        op = draw(st.sampled_from(["squeeze", "beamsplitter", "phase", "loss"]))
        if op == "squeeze":
            gates.append((op, [a, b], (draw(st.floats(0.0, 0.2)), draw(angle))))
        elif op == "beamsplitter":
            gates.append((op, [a, b], (draw(unit), draw(angle))))
        elif op == "phase":
            gates.append((op, [a], (draw(angle),)))
        else:
            gates.append((op, [a], (draw(unit), draw(st.floats(0.0, 2.0)))))
    return modes, occupations, gates


def run_gates(modes, occupations, gates):
    state = gaussian.thermal_state(modes, occupations)
    for op, labels, params in gates:
        if op == "loss":
            state = gaussian.thermal_loss(state, labels[0], *params)
        else:
            state = gaussian.symplectic_apply(state, op, labels, *params)
    return state


def dense_reference(modes, occupations, gates):
    """The same gates as full 2N x 2N products S sigma S^T and X sigma X."""
    sigma = gaussian.thermal_state(modes, occupations).sigma
    small = {"squeeze": gaussian.squeeze_symplectic,
             "beamsplitter": gaussian.beam_splitter_symplectic,
             "phase": gaussian.phase_symplectic}
    for op, labels, params in gates:
        idx = [q for m in labels for q in (2 * modes.index(m), 2 * modes.index(m) + 1)]
        S = np.eye(2 * len(modes))
        if op == "loss":
            survival, n_env = params
            S[idx, idx] = math.sqrt(survival)
            sigma = S @ sigma @ S.T
            sigma[idx, idx] += (1.0 - survival) * (n_env + 0.5)
        else:
            S[np.ix_(idx, idx)] = small[op](*params)
            sigma = S @ sigma @ S.T
    return sigma


@FAST
@given(gate_sequences())
def test_local_updates_match_dense_products(seq):
    assert run_gates(*seq).sigma == pytest.approx(dense_reference(*seq), abs=1e-12)


@FAST
@given(st.integers(1, 4).flatmap(lambda b: st.tuples(st.just(b), gate_sequences(batch=b))))
def test_batched_state_matches_each_element(case):
    batch, (modes, occupations, gates) = case
    state = run_gates(modes, occupations, gates)
    detector_map = {f"d{k}": [m] for k, m in enumerate(modes[:4])}
    efficiency = {d: 0.5 + 0.1 * k for k, d in enumerate(detector_map)}
    dists = gaussian.click_probabilities(state, detector_map, efficiency)
    batched = any(np.ndim(p) for _, _, params in gates for p in params)
    if not batched:
        assert state.sigma.ndim == 2 and isinstance(dists, OutcomeDistribution)
        return
    assert state.sigma.shape == (batch, 2 * len(modes), 2 * len(modes))
    assert len(dists) == batch
    for b in range(batch):
        single = [(op, labels, tuple(p[b] if np.ndim(p) else p for p in params))
                  for op, labels, params in gates]
        ref = run_gates(modes, occupations, single)
        assert state.sigma[b] == pytest.approx(ref.sigma, abs=1e-12)
        assert dists[b].labels == tuple(detector_map)
        assert dists[b].probabilities == pytest.approx(
            gaussian.click_probabilities(ref, detector_map, efficiency).probabilities,
            abs=1e-12)


@FAST
@given(st.integers(2, 5).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b - 1))),
       st.sampled_from([-0.6, 0.3]))
def test_one_invalid_batch_element_raises(case, scale):
    # -0.6 I fails the Cholesky factorisation; 0.3 I factorises but is below
    # vacuum and gives negative click mass
    batch, bad = case
    state = gaussian.thermal_state(["a", "b"], 0.1)
    state = gaussian.apply_two_mode_squeeze(state, "a", "b", 0.05, np.linspace(0.0, 1.0, batch))
    state.sigma[bad] = scale * np.eye(4)
    with pytest.raises(gaussian.GaussianEngineError):
        gaussian.click_probabilities(state, {"da": ["a"], "db": ["b"]})


def reference_config(name):
    return load_config(str(files("phonon_timebin") / "configs" / f"{name}.yaml"))


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(["bell_test", "calibration"]),
       st.lists(st.tuples(st.floats(0.0, 6.3), st.floats(0.0, 6.3)), min_size=1, max_size=4))
def test_batched_jitter_average_matches_per_node_sum(name, scan):
    # one circuit per node, batched over the scan, against each setting's
    # nodes run one at a time
    config = reference_config(name)
    phi_w, phi_r = (np.array(v) for v in zip(*scan))
    averaged = protocol.jitter_averaged_distribution(config, phi_w, phi_r)
    assert len(averaged) == len(scan)
    sigma = math.hypot(fwhm_to_sigma(config.noise.write_phase_jitter_fwhm),
                       fwhm_to_sigma(config.noise.read_phase_jitter_fwhm))
    x, w = np.polynomial.hermite_e.hermegauss(protocol.GH_NODES)
    for (pw, pr), avg in zip(scan, averaged):
        mix = sum(wi * protocol.exact_joint_distribution(
            config, pw, pr, jitter_w=sigma * xi).probabilities for xi, wi in zip(x, w))
        assert avg.labels == protocol.ENTANGLEMENT_CHANNELS
        assert avg.probabilities == pytest.approx(mix / mix.sum(), abs=1e-12)


# ---------------------------------------------------------------------------
# config round trip


@st.composite
def config_dicts(draw):
    """A config in file form (angles in units of pi) inside the validated
    ranges."""
    prob = st.floats(0.0, 1.0)
    pair = st.tuples(prob, prob).map(list)
    kind = draw(st.sampled_from(list(ExperimentKind)))
    tau = draw(st.floats(50e-9, 300e-9))
    t1 = draw(st.floats(1.1 * tau, 1e-5))
    guard = draw(st.floats(0.01, 0.5))
    pulses = []
    if kind is not ExperimentKind.THERMAL_G2_TAU:
        t0 = draw(st.floats(0.0, 1e-6))
        for k, role in enumerate(PulseRole):
            pulse = {"role": role.value, "center_time": t0 + k * tau / 2.0,
                     "duration_fwhm": draw(st.floats(1e-9, 100e-9)),
                     "scattering_probability": draw(st.floats(0.0, 0.99 * guard))}
            if draw(st.booleans()):
                pulse["energy"] = draw(st.floats(0.0, 1e-12))
            pulses.append(pulse)
    angle = st.floats(-2.0, 2.0)
    phases = {"phi_w": draw(angle), "phi_r": draw(angle), "phi_off": draw(angle)}
    if draw(st.booleans()):
        phases["settings"] = draw(st.lists(st.tuples(angle, angle).map(list),
                                           min_size=1, max_size=6))
    kappa = draw(st.floats(1e6, 1e10))
    occupancies = sorted(draw(st.lists(st.floats(0.0, 0.5), min_size=4, max_size=4)))
    engine = {"name": draw(st.sampled_from(["gaussian", "fock"])),
              "truncation": draw(st.integers(1, 8))}
    if draw(st.booleans()):
        engine["total_cap"] = draw(st.integers(1, 12))
    data = {
        "kind": kind.value,
        "engine": engine,
        "trials": draw(st.integers(0, 10**12)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "repetition_period": draw(st.floats(7.0 * t1, 1e-3)),
        "splitting_asymmetry": draw(st.floats(0.0, 0.005)),
        "record_trials": draw(st.integers(0, 10**5)),
        "perturbative_guard": guard,
        "cavity": {"wavelength": draw(st.floats(1e-7, 1e-5)), "kappa": kappa,
                   "kappa_i": draw(st.floats(1e-3, 1.0)) * kappa,
                   "g0": draw(st.floats(1.0, 1e7)),
                   "mech_frequency": draw(st.floats(1e6, 1e11))},
        "waveguide": {"round_trip_time": tau, "group_velocity": 2000.0,
                      "T1": t1, "retrieval_efficiency": draw(prob)},
        "pulses": pulses,
        "phases": phases,
        "noise": {
            "thermal_schedule": [[r.value, v] for r, v in zip(PulseRole, occupancies)],
            "interferometer_visibility": draw(prob),
            "write_phase_jitter_fwhm": draw(st.floats(0.0, 1.0)),
            "read_phase_jitter_fwhm": draw(st.floats(0.0, 1.0)),
            "detector_efficiency": draw(pair),
            "dark_count_prob": draw(prob),
            "leakage_prob": {"write": draw(pair), "read": draw(pair)},
            "coupling_efficiency": draw(prob),
            "filter_pulse_efficiency": draw(pair),
        },
    }
    if draw(st.booleans()):
        data["extra"] = {"witness_g2": [draw(st.floats(1.0, 20.0)), draw(st.floats(1.0, 20.0))]}
    return data


@settings(max_examples=60, deadline=None)
@given(config_dicts())
def test_config_round_trip_is_stable(data):
    config = config_from_dict(data)
    again = config_from_dict(config_to_dict(config))
    assert again == config
    assert config_digest(again) == config_digest(config)
