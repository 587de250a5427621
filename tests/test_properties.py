"""Property tests of the dense click-distribution vector (the subset
transform, background folding, one-draw sampling), of the record sampler's
substream seeding against numpy, of the Gaussian engine's local gate updates,
batch axis and block click transform against the per-mode loop, of the
protocol's one relative phase against Gaussian circuits with each stage at
its own and against a shifted offset, of its read interpolant against the
gates, of the sparse Fock engine against dense references and its
block-diagonal batch against each element alone, and of the config dict
round trip."""

import dataclasses
import functools
import itertools
import math
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dense_fock import dense, element, entries, index, tiled
from phonon_timebin import fock, gaussian, oracles, protocol
from phonon_timebin.core import (
    ExperimentKind,
    OutcomeDistribution,
    PhaseSettings,
    PulseRole,
    config_digest,
    config_from_dict,
    config_to_dict,
    fwhm_to_sigma,
    load_config,
    with_overrides,
    with_pulse_field,
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
def distributions(draw, n=None):
    n = draw(st.integers(1, 4)) if n is None else n
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
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    distributions(n), min_size=1, max_size=5)), st.data())
def test_a_batch_folds_as_each_row_alone(rows, data):
    n = len(rows[0].labels)
    betas = data.draw(st.lists(unit, min_size=n, max_size=n))
    batch = OutcomeDistribution(rows[0].labels, np.array([d.probabilities for d in rows]))
    folded = batch.with_background(betas)
    assert folded.probabilities.shape == (len(rows), 1 << n)
    for row, dist in zip(folded.probabilities, rows):
        assert np.array_equal(row, dist.with_background(betas).probabilities)


def test_a_batch_has_no_single_vector():
    # 16 settings of 4 channels is a square (16, 16) array: a pattern mask
    # would pick rows without an error
    p = np.full((16, 16), 1.0 / 16)
    batch = OutcomeDistribution(tuple(f"c{k}" for k in range(4)), p)
    with pytest.raises(ValueError, match="batch"):
        batch.clicked("c0")
    with pytest.raises(ValueError, match="batch"):
        batch.prob(c0=True)
    with pytest.raises(ValueError, match="batch"):
        batch.sample_counts(10, np.random.default_rng(0))


def sampled_counts(dist, trials, seed, idx):
    """``protocol.run_settings`` counts of setting ``idx`` of a one-setting
    scan whose jitter-averaged distribution is ``dist``."""
    config = dataclasses.replace(reference_config("bell_test"), trials=trials, seed=seed)

    def scan(config, phi_w, phi_r):
        return OutcomeDistribution(dist.labels, np.tile(dist.probabilities, (len(phi_w), 1)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "jitter_averaged_distribution", scan)
        return protocol.run_settings(config, [(0.0, 0.0)], first_idx=idx)[0].counts


@FAST
@given(distributions(), st.integers(1, 40_000_000_000),
       st.integers(0, 2**32), st.integers(0, 40))
def test_one_draw_sampling_conserves_trials_and_is_deterministic(dist, trials, seed, idx):
    counts = sampled_counts(dist, trials, seed, idx)
    assert counts.shape == dist.probabilities.shape
    assert counts.min() >= 0
    assert counts.sum() == trials
    assert np.array_equal(counts, sampled_counts(dist, trials, seed, idx))


def test_one_draw_sampling_fits_the_distribution():
    # 200 seeds of 1e9 trials from a fixed 16-pattern distribution: each
    # pattern's mean count within 5 sigma, and the mean Pearson chi^2
    # within 4 standard errors of its 15 degrees of freedom
    p = 0.7 ** np.arange(16)
    p /= p.sum()
    dist = OutcomeDistribution(tuple(f"c{k}" for k in range(4)), p)
    trials, seeds = 1_000_000_000, 200
    counts = np.array([sampled_counts(dist, trials, seed, 0) for seed in range(seeds)])
    expected = trials * p
    z = (counts.mean(axis=0) - expected) / np.sqrt(expected * (1.0 - p) / seeds)
    assert np.abs(z).max() < 5.0
    chi2 = (((counts - expected) ** 2) / expected).sum(axis=1)
    assert abs(chi2.mean() - 15.0) < 4.0 * math.sqrt(2.0 * 15.0 / seeds)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), unit), min_size=1, max_size=256)
       .filter(lambda w: sum(w) > 0), st.integers(0, 2**64 - 1))
def test_cdf_search_is_generator_choice(weights, seed):
    # the record sampler bins one uniform per trial in the CDF; this is the
    # draw Generator.choice(n, p=p) makes, one double per call
    p = np.clip(np.array(weights), 0, None)
    p = p / p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    chooser, searcher = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        expected = int(chooser.choice(len(p), p=p))
        assert int(cdf.searchsorted(searcher.random(), side="right")) == expected, \
            f"Generator.choice differs from the CDF search on NumPy {np.__version__}"
        assert p[expected] > 0


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
        op = draw(st.sampled_from(["squeeze", "beam_splitter", "phase", "thermal_loss"]))
        if op == "squeeze":
            gates.append((op, [a, b], (draw(st.floats(0.0, 0.2)), draw(angle))))
        elif op == "beam_splitter":
            gates.append((op, [a, b], (draw(unit), draw(angle))))
        elif op == "phase":
            gates.append((op, [a], (draw(angle),)))
        else:
            gates.append((op, [a], (draw(unit), draw(st.floats(0.0, 2.0)))))
    return modes, occupations, gates


def run_gates(modes, occupations, gates):
    """The gates through the Gaussian circuit builder, one method per op."""
    circuit = protocol._GaussianCircuit()
    circuit.state = gaussian.thermal_state(modes, occupations)
    for op, labels, params in gates:
        getattr(circuit, op)(*labels, *params)
    return circuit.state


def dense_reference(modes, occupations, gates):
    """The same gates as full 2N x 2N products S sigma S^T and X sigma X."""
    sigma = gaussian.thermal_state(modes, occupations).sigma
    small = {"squeeze": gaussian.squeeze_symplectic,
             "beam_splitter": gaussian.beam_splitter_symplectic,
             "phase": gaussian._rot}
    for op, labels, params in gates:
        idx = [q for m in labels for q in (2 * modes.index(m), 2 * modes.index(m) + 1)]
        S = np.eye(2 * len(modes))
        if op == "thermal_loss":
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
    assert dists.labels == tuple(detector_map)
    assert dists.probabilities.shape == (batch, 1 << len(detector_map))
    for b in range(batch):
        single = [(op, labels, tuple(p[b] if np.ndim(p) else p for p in params))
                  for op, labels, params in gates]
        ref = run_gates(modes, occupations, single)
        assert state.sigma[b] == pytest.approx(ref.sigma, abs=1e-12)
        assert dists.probabilities[b] == pytest.approx(
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


def looped_losses(state, detector_map, efficiency=None):
    """The detected state as the click transform formed it before it took
    the detected modes' block: each detector's efficiency as
    ``apply_thermal_loss`` on each of its modes, a copy of the whole state
    each time."""
    if isinstance(efficiency, dict):
        unknown = [det for det in efficiency if det not in detector_map]
        if unknown:
            raise gaussian.GaussianEngineError(
                f"efficiency for no detector: {', '.join(map(repr, unknown))}")
    for det, modes in detector_map.items():
        eta = 1.0 if efficiency is None else (
            efficiency if isinstance(efficiency, (int, float)) else efficiency.get(det, 1.0))
        if not 0.0 <= eta <= 1.0:
            raise gaussian.GaussianEngineError(
                f"efficiency of detector {det!r} must be in [0, 1], got {eta!r}")
        if eta < 1.0:
            for m in modes:
                state = gaussian.apply_thermal_loss(state, m, eta, 0.0)
    return state


def looped_vacuum_probability(state, labels):
    """P0 from a new sigma_S + 0.5 I, sigma_S taken by two selections."""
    batch = state.sigma.shape[:-2]
    if not labels:
        return np.ones(batch) if batch else 1.0
    sel = gaussian._quadratures(state, labels)
    red = state.sigma[..., sel, :][..., :, sel]
    try:
        chol = np.linalg.cholesky(red + 0.5 * np.eye(len(sel)))
    except np.linalg.LinAlgError:
        raise gaussian.GaussianEngineError(
            "non-positive-definite sigma + I/2: invalid state") from None
    p0 = 1.0 / np.prod(np.diagonal(chol, axis1=-2, axis2=-1), axis=-1)
    return p0 if batch else float(p0)


def looped_clicks(state, detector_map, efficiency=None):
    """The click transform on the looped state and vacuum probabilities."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gaussian, "detected_modes", looped_losses)
        mp.setattr(gaussian, "vacuum_probability", looped_vacuum_probability)
        return gaussian.click_probabilities(state, detector_map, efficiency)


@FAST
@given(st.integers(1, 4).flatmap(lambda b: gate_sequences(batch=b)), st.data())
def test_the_block_click_transform_is_the_looped_one(seq, data):
    # disjoint detectors of one or two modes each, over some of the modes
    state = run_gates(*seq)
    rest = data.draw(st.permutations(seq[0]))
    detector_map = {}
    n = data.draw(st.integers(1, min(4, len(rest))))
    for k in range(n):
        # two modes only while every later detector still gets one
        size = data.draw(st.integers(1, 2)) if len(rest) - 2 >= n - k - 1 else 1
        detector_map[f"d{k}"], rest = rest[:size], rest[size:]
    etas = data.draw(st.lists(st.floats(0.01, 0.99), min_size=n + 1, max_size=n + 1))
    # a mapping leaves the detectors of its odd positions at efficiency 1
    for efficiency in (None, 0, 1, etas[n], dict(list(zip(detector_map, etas))[::2])):
        got = gaussian.click_probabilities(state, detector_map, efficiency)
        want = looped_clicks(state, detector_map, efficiency)
        assert got.labels == want.labels
        assert np.array_equal(got.probabilities, want.probabilities)


def direct_vacuum_probability(state, labels):
    """P0 with the selection looked up and I/2 added to the diagonal on
    every call: the uncached reference."""
    batch = state.sigma.shape[:-2]
    if not labels:
        return np.ones(batch) if batch else 1.0
    sel = np.array(gaussian._quadratures(state, labels))
    red = state.sigma[..., sel[:, None], sel]
    diag = np.arange(len(sel))
    red[..., diag, diag] += 0.5
    try:
        chol = np.linalg.cholesky(red)
    except np.linalg.LinAlgError:
        raise gaussian.GaussianEngineError(
            "non-positive-definite sigma + I/2: invalid state") from None
    p0 = 1.0 / np.prod(chol[..., diag, diag], axis=-1)
    return p0 if batch else float(p0)


def direct_clicks(state, detector_map, efficiency=None):
    """The click transform with the detected block and each subset's
    labels built anew on every call: the uncached reference."""
    modes = tuple(dict.fromkeys(m for group in detector_map.values() for m in group))
    sel = np.array(gaussian._quadratures(state, modes), dtype=int)
    work = gaussian.CovarianceState(modes, state.sigma[..., sel[:, None], sel])
    for det, group in detector_map.items():
        eta = 1.0 if efficiency is None else (
            efficiency if isinstance(efficiency, (int, float)) else efficiency.get(det, 1.0))
        if eta < 1.0:
            for m in group:
                gaussian._thermal_loss_in_place(work.sigma, 2 * work.mode_index(m), eta, 0.0)
    detectors = tuple(detector_map)
    n = len(detectors)
    batch = work.sigma.shape[:-2]
    quiet = np.empty(batch + (1 << n,))
    for q in range(1 << n):
        labels = [m for k, det in enumerate(detectors) if q >> (n - 1 - k) & 1
                  for m in detector_map[det]]
        quiet[..., q] = direct_vacuum_probability(work, labels)
    for k in range(n):
        v = quiet.reshape(batch + (1 << k, 2, -1))
        v[..., 0, :] -= v[..., 1, :]
    probs = np.maximum(quiet[..., ::-1], 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def reordered(state, order):
    """The same state with its modes registered in ``order``."""
    sel = np.array(gaussian._quadratures(state, order))
    return gaussian.CovarianceState(order, state.sigma[..., sel[:, None], sel])


@FAST
@given(st.one_of(gate_sequences(), st.integers(1, 3).flatmap(lambda b: gate_sequences(batch=b))),
       st.data())
def test_cached_click_plans_are_the_direct_code(seq, data):
    # the same labels meet states of other mode orders across examples, and
    # only the subsets' labels are cached, so each state selects its own rows
    state = reordered(run_gates(*seq), tuple(data.draw(st.permutations(seq[0]))))
    rest = data.draw(st.permutations(seq[0]))
    detector_map = {}
    for k in range(data.draw(st.integers(1, 4))):
        size = data.draw(st.integers(0, min(2, len(rest))))
        group, rest = rest[:size], rest[size:]
        detector_map[f"d{k}"] = data.draw(st.sampled_from([group, tuple(group)]))
    etas = data.draw(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2))
    for efficiency in (None, etas[0], {"d0": etas[1]}):
        got = gaussian.click_probabilities(state, detector_map, efficiency)
        assert got.labels == tuple(detector_map)
        assert np.array_equal(got.probabilities, direct_clicks(state, detector_map, efficiency))
    labels = data.draw(st.permutations(seq[0]))[:data.draw(st.integers(0, len(seq[0])))]
    for form in (list, tuple):
        assert np.array_equal(gaussian.vacuum_probability(state, form(labels)),
                              direct_vacuum_probability(state, labels))


@pytest.mark.parametrize("sigma, efficiency", [
    (-0.6 * np.eye(4), None),
    (0.3 * np.eye(4), 0.9),
    (np.stack([0.5 * np.eye(4), -0.6 * np.eye(4)]), {"da": 0.5}),
    (0.5 * np.eye(4), -0.1),
    (0.5 * np.eye(4), 1.5),
    (0.5 * np.eye(4), math.nan),
    (0.5 * np.eye(4), {"db": 2.0}),
    (0.5 * np.eye(4), {"da": 0.5, "dc": 0.5}),
], ids=["cholesky", "negative-mass", "batch-element", "below-0", "above-1", "nan",
        "mapping", "no-detector"])
def test_the_block_click_transform_raises_as_the_looped_one(sigma, efficiency):
    state = gaussian.CovarianceState(["a", "b"], sigma)
    detectors = {"da": ["a"], "db": ["b"]}
    with pytest.raises(gaussian.GaussianEngineError) as want:
        looped_clicks(state, detectors, efficiency)
    with pytest.raises(gaussian.GaussianEngineError) as got:
        gaussian.click_probabilities(state, detectors, efficiency)
    assert str(got.value) == str(want.value)


def reference_config(name):
    return load_config(str(files("phonon_timebin") / "configs" / f"{name}.yaml"))


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(["bell_test", "calibration"]),
       st.lists(st.tuples(st.floats(0.0, 6.3), st.floats(0.0, 6.3)), min_size=1, max_size=4))
def test_batched_jitter_average_matches_per_node_sum(name, scan):
    # the damped series against each setting's own 21-node Gauss-Hermite
    # rule, run one node at a time
    config = reference_config(name)
    phi_w, phi_r = (np.array(v) for v in zip(*scan))
    averaged = protocol.jitter_averaged_distribution(config, phi_w, phi_r)
    assert averaged.labels == protocol.ENTANGLEMENT_CHANNELS
    assert averaged.probabilities.shape == (len(scan), 16)
    sigma = math.hypot(fwhm_to_sigma(config.noise.write_phase_jitter_fwhm),
                       fwhm_to_sigma(config.noise.read_phase_jitter_fwhm))
    x, w = np.polynomial.hermite_e.hermegauss(21)
    for (pw, pr), avg in zip(scan, averaged.probabilities):
        mix = sum(wi * protocol.exact_joint_distribution(
            config, pw, pr, jitter_w=sigma * xi).probabilities for xi, wi in zip(x, w))
        assert avg == pytest.approx(mix / mix.sum(), abs=1e-12)


def unstaged_reference(config, phi_w, phi_r, jitter_w, jitter_r):
    """Gaussian circuits, one per element of the broadcast arguments, with
    each stage at its own relative phase: the write stage at phi_w - phi_off
    - jitter_w, then the whole read stage at phi_r - phi_off - jitter_r,
    without the shared prefix."""
    off = config.phases.phi_off
    args = np.broadcast_arrays(phi_w, phi_r, jitter_w, jitter_r)
    rows = []
    for pw, pr, jw, jr in zip(*(np.ravel(a) for a in args)):
        circuit = protocol._GaussianCircuit()
        groups = protocol.run_write_stage(circuit, config, pw - off - jw)
        protocol._read_prefix(circuit, config)
        groups.update(protocol._stage_interferometer(circuit, config, "read", pr - off - jr))
        ordered = {ch: groups[ch] for ch in protocol._analysis_channels(config.kind)}
        rows.append(gaussian.click_probabilities(
            circuit.state, ordered, protocol._efficiency_map(ordered, config.noise)))
    probs = np.reshape([row.probabilities for row in rows], args[0].shape + (-1,))
    return protocol.detect(OutcomeDistribution(rows[0].labels, probs), config.noise)


#: the read prefix as the package defines it, for tests that patch it
read_prefix = protocol._read_prefix


def squeezed_read_prefix(circuit, config, p=0.05):
    """The read prefix, then a squeezer of scattering probability p and a
    balanced splitter on the read photons: two single-mode squeezed states,
    so the late read photon's own block is not rotation invariant and its
    covariance has the second harmonic in Phi that the reference configs
    lack."""
    read_prefix(circuit, config)
    circuit.squeeze("o_rE", "o_rL", p)
    circuit.beam_splitter("o_rE", "o_rL", 0.5)


@pytest.mark.parametrize("overrides, prefix", [
    ({}, read_prefix),
    ({"noise.interferometer_visibility": 0.0}, read_prefix),
    ({}, squeezed_read_prefix),
], ids=["bell_test", "visibility-0", "squeezed-read-photons"])
@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
def test_the_read_interpolant_matches_the_gates(monkeypatch, overrides, prefix, batched):
    # at five equispaced phases, between them and far outside one period;
    # with no offset the read interferometer of the reference runs at Phi itself
    monkeypatch.setattr(protocol, "_prefix_memo", (None, None))
    monkeypatch.setattr(protocol, "_read_prefix", prefix)
    config = with_overrides(reference_config("bell_test"), {"phases.phi_off": 0.0, **overrides})
    phis = np.concatenate([2.0 * np.pi * np.arange(5) / 5, [0.3, 2.9, 40.0, -40.0]])
    if batched:
        got = protocol.exact_joint_distribution(config, 0.0, phis).probabilities
    else:
        got = np.array([protocol.exact_joint_distribution(config, 0.0, float(phi)).probabilities
                        for phi in phis])
    want = unstaged_reference(config, 0.0, phis, 0.0, 0.0).probabilities
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("name", ["bell_test", "timebin_entanglement", "calibration"])
def test_the_series_read_out_matches_the_gates(name):
    # 200 phases over a dozen periods, each against its own circuit; the
    # harmonics of the reference configs' p(Phi) that 9 phases cannot hold
    # are at round-off, so their prefix reads no more
    config = reference_config(name)
    phis = np.random.default_rng(29).uniform(-40.0, 40.0, 200)
    got = protocol.exact_joint_distribution(config, 0.0, phis).probabilities
    assert len(protocol._prefix(config).probabilities) == protocol.SERIES_NODES == 9
    assert got.min() >= 0.0
    assert got == pytest.approx(unstaged_reference(config, 0.0, phis, 0.0, 0.0).probabilities,
                                abs=1e-14)


def test_a_squeezed_read_takes_more_series_phases(monkeypatch):
    monkeypatch.setattr(protocol, "_prefix_memo", (None, None))
    monkeypatch.setattr(protocol, "_read_prefix", squeezed_read_prefix)
    # the squeezer is not phase covariant, so the reference reads Phi itself
    config = with_overrides(reference_config("bell_test"), {"phases.phi_off": 0.0})
    phis = np.random.default_rng(30).uniform(-40.0, 40.0, 200)
    got = protocol.exact_joint_distribution(config, 0.0, phis).probabilities
    assert len(protocol._prefix(config).probabilities) > protocol.SERIES_NODES
    assert got.min() >= 0.0
    assert got == pytest.approx(unstaged_reference(config, 0.0, phis, 0.0, 0.0).probabilities,
                                abs=1e-14)


@pytest.mark.parametrize("p, size", [(0.3, 17), (0.9, 33)])
def test_strong_scattering_grows_the_series(p, size):
    # bell_test's own circuit, no prefix patched: pulses this strong give
    # p(Phi) harmonics that 9 phases cannot hold, so the series doubles and
    # each size reruns the read interferometer at its own phases
    config = with_pulse_field(with_overrides(reference_config("bell_test"), {
        "perturbative_guard": 0.99, "noise.interferometer_visibility": 1.0,
        "phases.phi_off": 0.0}), "scattering_probability", p)
    phis = np.random.default_rng(33).uniform(-40.0, 40.0, 200)
    got = protocol.exact_joint_distribution(config, 0.0, phis).probabilities
    assert len(protocol._prefix(config).probabilities) == size
    assert got == pytest.approx(unstaged_reference(config, 0.0, phis, 0.0, 0.0).probabilities,
                                abs=1e-14)


def test_a_much_stronger_squeeze_exhausts_the_series(monkeypatch):
    # a perfect interferometer and a squeezer at p = 0.999 leave a harmonic
    # of about 4e-8 at the largest number of phases
    monkeypatch.setattr(protocol, "_prefix_memo", (None, None))
    monkeypatch.setattr(protocol, "_read_prefix",
                        functools.partial(squeezed_read_prefix, p=0.999))
    config = with_overrides(reference_config("bell_test"),
                            {"noise.interferometer_visibility": 1.0})
    with pytest.raises(protocol.ProtocolError, match="SERIES_MAX_NODES"):
        protocol.exact_joint_distribution(config, 0.0, 0.3)


@st.composite
def phase_arguments(draw):
    """phi_w, phi_r, jitter_w, jitter_r: each a float, or all that are not
    floats (B,) arrays of one B."""
    batch = draw(st.integers(1, 3))
    args = []
    for bound in (6.3, 6.3, 1.0, 1.0):
        value = st.floats(-bound, bound)
        args.append(draw(st.one_of(value, st.lists(value, min_size=batch, max_size=batch)
                                   .map(np.array))))
    return args


@FAST
@given(st.sampled_from(["bell_test", "timebin_entanglement", "cross_correlation"]),
       phase_arguments())
def test_gaussian_phases_and_jitters_act_through_their_sums(name, args):
    # the shared prefix at zero phase and jitter, then the summed phase and
    # jitter on the read interferometer, against each on its own arm
    config = reference_config(name)
    got = protocol.exact_joint_distribution(config, *args)
    want = unstaged_reference(config, *args)
    assert got.labels == want.labels
    assert got.probabilities.shape == want.probabilities.shape
    assert got.probabilities == pytest.approx(want.probabilities, abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["bell_test", "timebin_entanglement", "cross_correlation"]),
       st.sampled_from(["gaussian", "fock"]), st.floats(-3.2, 3.2), phase_arguments())
def test_an_offset_shift_is_a_write_phase_shift_of_minus_twice_it(name, engine, delta, args):
    # Phi = phi_w + phi_r - 2 phi_off - j_w - j_r: phi_off + delta is phi_w - 2 delta
    config = with_overrides(reference_config(name), {"engine.name": engine})
    shifted = dataclasses.replace(config, phases=dataclasses.replace(
        config.phases, phi_off=config.phases.phi_off + delta))
    phi_w, phi_r, jitter_w, jitter_r = args
    got = protocol.exact_joint_distribution(shifted, *args)
    want = protocol.exact_joint_distribution(config, np.subtract(phi_w, 2.0 * delta), phi_r,
                                             jitter_w, jitter_r)
    assert got.probabilities.shape == want.probabilities.shape
    assert got.probabilities == pytest.approx(want.probabilities, abs=1e-15)


# ---------------------------------------------------------------------------
# sparse Fock engine against dense references


MAX_DIM = 80  # keeps the explicit index loops of the references quick


@st.composite
def fock_states(draw):
    """A random mixed state of 2-4 modes, n_max 2-4 and a drawn total cap:
    a mixture of 1-3 pure states, each on a random support of up to 8 basis
    states.  Returns the engine state and its dense matrix."""
    n = draw(st.integers(2, 4))
    n_max = draw(st.integers(2, 4))
    caps = [c for c in range(2, n * n_max + 1)
            if fock.FockBasis(n, n_max, c).dim <= MAX_DIM]
    state = fock.init_vacuum([f"m{k}" for k in range(n)], n_max, draw(st.sampled_from(caps)))
    dim = state.basis.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = np.zeros((dim, dim), complex)
    for _ in range(draw(st.integers(1, 3))):
        support = rng.choice(dim, size=rng.integers(1, min(dim, 8) + 1), replace=False)
        psi = np.zeros(dim, complex)
        psi[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        rho += rng.uniform(0.1, 1.0) * np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    rho /= np.trace(rho).real
    state.rho = entries(rho)
    return state, rho


def assert_hermitian(state):
    rho = dense(state)
    assert np.abs(rho - rho.conj().T).max() <= 1e-12


def check_output(out, ref, trace=1.0):
    assert np.abs(dense(out) - ref).max() < 1e-12
    assert_hermitian(out)
    assert out.trace() == pytest.approx(trace, abs=1e-12)


def shifted_index(basis, occ, mode, delta):
    occ = list(occ)
    occ[mode] += delta
    return index(basis).get(tuple(occ))  # None outside the (capped) basis


def dense_two_mode(state, rho, i, j, kind, amp, phi):
    """Block-diagonal U from the ladder unitaries, then U rho U^dagger."""
    basis, dim = state.basis, state.basis.dim
    U = np.zeros((dim, dim), complex)
    done = set()
    for start in range(dim):
        if start in done:
            continue
        occ = basis.occs[start]
        inv = occ[i] + occ[j] if kind == "bs" else occ[i] - occ[j]
        ladder = []  # (a, basis index), sorted by a
        for a in range(basis.n_max + 1):
            o = list(occ)
            o[i], o[j] = a, (inv - a if kind == "bs" else a - inv)
            if tuple(o) in index(basis):
                ladder.append((a, index(basis)[tuple(o)]))
        g = np.zeros((len(ladder), len(ladder)), complex)
        for k, (a, _) in enumerate(ladder[:-1]):
            c = amp * math.sqrt((a + 1) * (inv - a) if kind == "bs" else (a + 1) * (a - inv + 1))
            g[k + 1, k] = c * np.exp(1j * phi)
            g[k, k + 1] = -c * np.exp(-1j * phi)
        u = expm(g)
        for x, (_, ix) in enumerate(ladder):
            for y, (_, iy) in enumerate(ladder):
                U[ix, iy] = u[x, y]
        done.update(ix for _, ix in ladder)
    return U @ rho @ U.conj().T


def dense_shift_kernels(state, rho, mode, kernels):
    """rho'[a, b] = sum_d W_d[n_a, n_b] rho[a+d, b+d], plus the clipped
    population of sources whose gain falls outside the basis."""
    basis, dim = state.basis, state.basis.dim
    occs = basis.occs
    out = np.zeros((dim, dim), complex)
    applied = np.zeros(dim)
    for d, W in kernels.items():
        for a in range(dim):
            sa = shifted_index(basis, occs[a], mode, d)
            if sa is None:
                continue
            applied[sa] += W[occs[a][mode], occs[a][mode]]
            for b in range(dim):
                sb = shifted_index(basis, occs[b], mode, d)
                if sb is not None:
                    out[a, b] += W[occs[a][mode], occs[b][mode]] * rho[sa, sb]
    for s in range(dim):
        if 1.0 - applied[s] > 1e-15:
            out[s, s] += (1.0 - applied[s]) * rho[s, s].real
    return out


def dense_partial_trace(state, rho, keep_pos):
    occs = state.basis.occs
    drop_pos = [k for k in range(len(state.modes)) if k not in keep_pos]
    new = fock.FockBasis(len(keep_pos), state.n_max, state.basis.total_max)
    out = np.zeros((new.dim, new.dim), complex)
    for a in range(state.basis.dim):
        for b in range(state.basis.dim):
            if all(occs[a][k] == occs[b][k] for k in drop_pos):
                out[index(new)[tuple(occs[a][keep_pos])],
                    index(new)[tuple(occs[b][keep_pos])]] += rho[a, b]
    return out


def two_modes(data, state):
    return data.draw(st.permutations(range(len(state.modes))))[:2]


@FAST
@given(fock_states(), st.data(), st.floats(0.0, 0.3), st.floats(-6.3, 6.3))
def test_sparse_two_mode_squeeze_matches_dense(case, data, p, phi):
    state, rho = case
    i, j = two_modes(data, state)
    out = fock.apply_two_mode_squeeze(state, state.modes[i], state.modes[j], p, phi)
    ref = (dense_two_mode(state, rho, i, j, "tms", math.atanh(math.sqrt(p)), phi)
           if p else rho)
    check_output(out, ref)


@FAST
@given(fock_states(), st.data(), unit, st.floats(-6.3, 6.3))
def test_sparse_beam_splitter_matches_dense(case, data, transmissivity, phi):
    state, rho = case
    i, j = two_modes(data, state)
    out = fock.apply_beam_splitter(state, state.modes[i], state.modes[j], transmissivity, phi)
    theta = math.acos(min(1.0, math.sqrt(transmissivity)))
    check_output(out, dense_two_mode(state, rho, i, j, "bs", theta, phi) if theta else rho)


def canonical(entries):
    """The stored entries sorted by row, then column."""
    order = np.lexsort((entries.cols, entries.rows))
    return entries.rows[order], entries.cols[order], entries.vals[order]


@FAST
@given(fock_states(), st.data(), st.integers(1, 4), st.sampled_from(["bs", "tms"]),
       st.floats(0.0, 2.0), st.floats(-6.3, 6.3), st.integers(1, 64))
def test_gate_chunks_give_the_same_entries(case, data, batch, kind, strength, phi, chunk):
    # chunks of whole column ladders, down to a few entries each, against
    # one chunk: the same entries, bit for bit, in some order
    state, _ = case
    i, j = two_modes(data, state)
    a, b = state.modes[i], state.modes[j]
    if batch > 1:
        phis = np.array(data.draw(st.lists(st.floats(-6.3, 6.3), min_size=batch,
                                           max_size=batch)))
        state = fock.apply_phase(tiled(state, batch), a, phis)
    assert state.rho.nnz <= fock.GATE_CHUNK_ENTRIES  # one chunk at the default size
    whole = fock._apply_two_mode(state, a, b, kind, strength, phi)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "GATE_CHUNK_ENTRIES", chunk)
        chunked = fock._apply_two_mode(state, a, b, kind, strength, phi)
    for got, want in zip(canonical(chunked.rho), canonical(whole.rho)):
        assert np.array_equal(got, want)


@FAST
@given(fock_states(), st.data(), st.floats(-6.3, 6.3))
def test_sparse_phase_matches_dense(case, data, phi):
    state, rho = case
    m = data.draw(st.integers(0, len(state.modes) - 1))
    d = np.exp(1j * phi * state.basis.occs[:, m])
    check_output(fock.apply_phase(state, state.modes[m], phi), rho * np.outer(d, d.conj()))


@FAST
@given(fock_states(), st.data(), st.floats(0.0, 0.999), st.sampled_from([0.0, 0.05, 0.3]))
def test_sparse_loss_channels_match_dense(case, data, survival, n_env):
    state, rho = case
    m = data.draw(st.integers(0, len(state.modes) - 1))
    loss = fock.apply_loss(state, state.modes[m], survival)
    kernels = dict(enumerate(fock._loss_kernels(state.n_max, survival)))
    check_output(loss, dense_shift_kernels(state, rho, m, kernels))
    thermal = fock.apply_thermal_loss(state, state.modes[m], survival, n_env)
    kernels = fock._thermal_kernels(state.n_max, survival, n_env)
    check_output(thermal, dense_shift_kernels(state, rho, m, kernels))


def shift_table(basis, mode, delta):
    """Index of each basis state with n_mode += delta, -1 where invalid,
    from a ``searchsorted`` of its own."""
    occs, codes = fock._basis_arrays(basis.n_modes, basis.n_max, basis.total_max, basis.batch)
    out = np.full(len(occs), -1, dtype=np.int64)
    target = occs[:, mode] + delta
    ok = (target >= 0) & (target <= basis.n_max)
    if delta > 0:
        ok &= occs.sum(axis=1) + delta <= basis.total_max
    out[ok] = np.searchsorted(codes, codes[ok] + delta * fock._radix(basis.n_modes,
                                                                     basis.n_max)[mode])
    return out


def looped_shift_kernels(state, m, kernels):
    """The shift-kernel channel one shift at a time, ascending, each with
    its own shift tables: the moved entries shift by shift, and the
    transferred population summed in that order."""
    basis, n = state.basis, state.n_max + 1
    occ = basis.occs[:, m]
    slot = occ if len(kernels) == 1 else occ + n * np.repeat(
        np.arange(basis.batch), basis.dim // basis.batch)
    rho = state.rho
    rows, cols, vals = [], [], []
    applied = np.zeros(basis.dim)
    zero = np.zeros((n, n))
    for d in sorted(set().union(*kernels)):
        W = kernels[0][d] if len(kernels) == 1 else np.stack([k.get(d, zero) for k in kernels])
        if not np.any(W):
            continue
        src = shift_table(basis, m, d)
        valid = src >= 0
        applied[src[valid]] += np.diagonal(W, 0, -2, -1).ravel()[slot[valid]]
        dest = shift_table(basis, m, -d)
        a, b = dest[rho.rows], dest[rho.cols]
        ok = np.flatnonzero((a >= 0) & (b >= 0))
        w = W.reshape(-1, n)[slot[a[ok]], occ[b[ok]]]
        ok, w = ok[w != 0.0], w[w != 0.0]
        rows.append(a[ok])
        cols.append(b[ok])
        vals.append(w * rho.vals[ok])
    clipped = 1.0 - applied
    diag = rho.diagonal()
    idx = np.flatnonzero((clipped > 1e-15) & (diag != 0.0))
    rows.append(idx)
    cols.append(idx)
    vals.append(clipped[idx] * np.real(diag[idx]))
    return fock._summed(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                        basis.dim)


@FAST
@given(fock_states(), st.data(), st.integers(1, 3))
def test_the_one_pass_channel_is_the_per_shift_loop(case, data, batch):
    # the shift tables, then loss and thermal loss on a state and thermal
    # loss of one survival and environment occupation per element on a
    # batch whose elements differ: the entries of the per-shift loop, bit
    # for bit
    state, _ = case
    m = data.draw(st.integers(0, len(state.modes) - 1))
    for d in range(-state.n_max - 1, state.n_max + 2):
        assert np.array_equal(state.basis.shifted(m, d), shift_table(state.basis, m, d))
    survival = data.draw(st.floats(0.0, 0.999))
    n_env = data.draw(st.sampled_from([0.0, 0.05, 0.3]) | st.floats(0.0, 2.0))
    runs = [(fock.apply_loss(state, state.modes[m], survival), state,
             [fock._thermal_kernels(state.n_max, survival, 0.0)]),
            (fock.apply_thermal_loss(state, state.modes[m], survival, n_env), state,
             [fock._thermal_kernels(state.n_max, survival, n_env)])]
    if batch > 1:
        phis = np.array(data.draw(st.lists(st.floats(-6.3, 6.3), min_size=batch,
                                           max_size=batch)))
        i, j = two_modes(data, state)
        many = fock.apply_beam_splitter(fock.apply_phase(
            tiled(state, batch), state.modes[i], phis), state.modes[i], state.modes[j], 0.6)
        survivals = data.draw(st.lists(st.just(1.0) | st.floats(0.0, 0.999), min_size=batch,
                                       max_size=batch).filter(lambda s: min(s) < 1.0))
        n_envs = data.draw(st.lists(st.sampled_from([0.0, 0.05, 0.3]), min_size=batch,
                                    max_size=batch))
        runs.append((fock.apply_thermal_loss(many, state.modes[m], np.array(survivals),
                                             np.array(n_envs)), many,
                     [fock._thermal_kernels(state.n_max, s, nt if s < 1.0 else 0.0)
                      for s, nt in zip(survivals, n_envs)]))
    for got, before, kernels in runs:
        want = looped_shift_kernels(before, m, kernels)
        assert np.array_equal(got.rho.rows, want.rows)
        assert np.array_equal(got.rho.cols, want.cols)
        assert np.array_equal(got.rho.vals, want.vals)


@FAST
@given(fock_states())
def test_sparse_add_vacuum_mode_matches_dense(case):
    state, rho = case
    grown = fock.add_vacuum_mode(state, "new")
    ref = np.zeros((grown.basis.dim, grown.basis.dim), complex)
    old = [index(grown.basis)[tuple(o) + (0,)] for o in state.basis.occs]
    for a, ia in enumerate(old):
        for b, ib in enumerate(old):
            ref[ia, ib] = rho[a, b]
    check_output(grown, ref)


@FAST
@given(fock_states(), st.data())
def test_sparse_partial_trace_matches_dense(case, data):
    state, rho = case
    keep_pos = sorted(data.draw(st.sets(st.integers(0, len(state.modes) - 1), min_size=1)))
    keep = data.draw(st.permutations([state.modes[k] for k in keep_pos]))
    reduced = fock.partial_trace(state, keep)
    assert reduced.modes == tuple(keep)
    check_output(reduced, dense_partial_trace(state, rho, [state.modes.index(m) for m in keep]))


@FAST
@given(fock_states(), st.data())
def test_sparse_measure_threshold_matches_dense(case, data):
    state, rho = case
    n = len(state.modes)
    measured = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1,
                                  unique=True))
    split = data.draw(st.integers(1, len(measured)))
    detector_map = {"d0": [state.modes[k] for k in measured[:split]],
                    "d1": [state.modes[k] for k in measured[split:]]}
    if not detector_map["d1"]:
        del detector_map["d1"]
    # in (0, 1], away from 0, where a branch probability underflows
    efficiency = {det: data.draw(st.floats(0.01, 1.0)) for det in detector_map}
    # the reference applies the efficiency loss to the whole state first
    lossy = state
    for det, modes in detector_map.items():
        for m in modes:
            lossy = fock.apply_loss(lossy, m, efficiency[det])
    rho = dense(lossy)
    codes = np.zeros(state.basis.dim, dtype=int)
    for k, det in enumerate(detector_map.values()):
        for a, occ in enumerate(state.basis.occs):
            if any(occ[state.modes.index(m)] for m in det):
                codes[a] |= 1 << (len(detector_map) - 1 - k)
    keep_pos = [k for k in range(n) if k not in measured]
    expected = []
    for code in sorted(set(codes)):
        sel = codes == code
        proj = rho * np.outer(sel, sel)
        p = np.trace(proj).real
        if p > 0.0:
            expected.append((code, p, dense_partial_trace(state, proj, keep_pos) / p))
    codes, probs, reduced = fock.measure_threshold(state, detector_map, efficiency)
    assert codes.tolist() == [e[0] for e in expected]
    for b, (_, p_ref, ref) in enumerate(expected):
        assert probs[b] == pytest.approx(p_ref, abs=1e-12)
        check_output(element(reduced, b), ref)


def draw_detectors(data, state, max_measured, efficiencies):
    """One or two detectors over a drawn set of modes, with an efficiency
    each."""
    measured = data.draw(st.lists(st.integers(0, len(state.modes) - 1), min_size=1,
                                  max_size=max_measured, unique=True))
    split = data.draw(st.integers(1, len(measured)))
    detector_map = {f"d{k}": [state.modes[i] for i in group]
                    for k, group in enumerate((measured[:split], measured[split:])) if group}
    return detector_map, {det: data.draw(efficiencies) for det in detector_map}


def loss_channel_readout(state, detector_map, efficiency):
    """The read-out through a loss channel: the state after ``fock.apply_loss``
    on every detector mode at its detector's efficiency, and the click code
    of every basis state (detector 0 the most significant bit)."""
    lossy = state
    for det, modes in detector_map.items():
        for m in modes:
            lossy = fock.apply_loss(lossy, m, efficiency[det])
    n = len(detector_map)
    codes = np.zeros(state.basis.dim, dtype=np.int64)
    for k, modes in enumerate(detector_map.values()):
        cols = [state.modes.index(m) for m in modes]
        codes |= (state.basis.occs[:, cols].sum(axis=1) > 0).astype(np.int64) << (n - 1 - k)
    return lossy, codes


@FAST
@given(fock_states(), st.data(), st.integers(1, 3))
def test_click_distribution_matches_the_loss_channel_route(case, data, batch):
    state, _ = case
    if batch > 1:
        # elements that differ: a phase each, then a beam splitter
        i, j = two_modes(data, state)
        a, b = state.modes[i], state.modes[j]
        phis = np.array(data.draw(st.lists(st.floats(-6.3, 6.3), min_size=batch, max_size=batch)))
        state = fock.apply_beam_splitter(fock.apply_phase(tiled(state, batch), a, phis),
                                         a, b, 0.6)
    detector_map, efficiency = draw_detectors(data, state, len(state.modes), unit)
    lossy, codes = loss_channel_readout(state, detector_map, efficiency)
    n = len(detector_map)
    element = np.repeat(np.arange(batch), state.basis.dim // batch)
    want = np.bincount(codes + (element << n), weights=np.real(lossy.rho.diagonal()),
                       minlength=batch << n).reshape(batch, -1)
    got = fock.click_distribution(state, detector_map, efficiency).probabilities
    assert np.abs(got.reshape(batch, -1) - want).max() <= 1e-14


@FAST
@given(fock_states(), st.data())
def test_measure_threshold_matches_the_loss_channel_route(case, data):
    state, _ = case
    # away from a tiny efficiency, whose click branches are subnormal
    efficiencies = st.sampled_from([0.0, 1.0]) | st.floats(0.01, 1.0)
    detector_map, efficiency = draw_detectors(data, state, len(state.modes) - 1, efficiencies)
    lossy, codes = loss_channel_readout(state, detector_map, efficiency)
    keep = [m for m in state.modes if not any(m in modes for modes in detector_map.values())]
    probs = np.bincount(codes, weights=np.real(lossy.rho.diagonal()),
                        minlength=1 << len(detector_map))
    rho = dense(lossy)
    got_codes, got_probs, reduced = fock.measure_threshold(state, detector_map, efficiency)
    assert got_codes.tolist() == np.flatnonzero(probs > 0.0).tolist()
    assert reduced.modes == tuple(keep)
    for b, (code, p) in enumerate(zip(got_codes, got_probs)):
        assert abs(p - probs[code]) <= 1e-14
        sel = codes == code
        inside = fock.FockState(state.modes, state.basis, entries(rho * np.outer(sel, sel)))
        want = dense(fock.partial_trace(inside, keep)) / probs[code]
        assert np.abs(dense(element(reduced, b)) - want).max() <= 1e-14


def draw_ops(data, state):
    """1-8 builder ops on the state's modes: beam splitters, squeezers,
    phases, losses and thermal losses."""
    angle = st.floats(-6.3, 6.3)
    ops = []
    for _ in range(data.draw(st.integers(1, 8))):
        a, b = (state.modes[k] for k in two_modes(data, state))
        kind = data.draw(st.sampled_from(["beam_splitter", "squeeze", "phase", "loss",
                                          "thermal_loss"]))
        if kind == "beam_splitter":
            ops.append((kind, a, b, data.draw(unit), data.draw(angle)))
        elif kind == "squeeze":
            ops.append((kind, a, b, data.draw(st.floats(0.0, 0.3)), data.draw(angle)))
        elif kind == "phase":
            ops.append((kind, a, data.draw(angle)))
        elif kind == "loss":
            ops.append((kind, a, data.draw(unit)))
        else:
            ops.append((kind, a, data.draw(unit), data.draw(st.floats(0.0, 0.3))))
    return ops


@FAST
@given(fock_states(), st.data())
def test_pruned_coherences_give_the_same_clicks(case, data):
    # dropping, before every op, the entries that the gates still to run
    # cannot bring onto the diagonal leaves the read-out bit for bit as it
    # was, and the pruned run never stores more entries
    state, _ = case
    ops = draw_ops(data, state)
    detector_map, efficiency = draw_detectors(data, state, len(state.modes), unit)
    circuit = protocol._FockCircuit(state.n_max, state.basis.total_max)
    circuit.state = state
    peak = state.rho.nnz
    for kind, *args in ops:
        getattr(circuit, kind)(*args)
        peak = max(peak, circuit.state.rho.nnz)
    want = circuit.click_distribution(detector_map, efficiency).probabilities
    got, pruned_peak = oracles.fock_clicks(state, ops, detector_map, efficiency)
    assert np.array_equal(got.probabilities, want)
    assert pruned_peak <= peak


def branches_alone(state, detector_map, efficiency):
    """Every click pattern's probability, and a function building one
    pattern's conditioned state alone: the entries its weight keeps, summed
    onto the kept modes, then divided by its probability."""
    measured = [m for m in state.modes if any(m in ms for ms in detector_map.values())]
    keep = [m for m in state.modes if m not in measured]
    occs = state.basis.occs
    seen = occs[:, [state.modes.index(m) for m in measured]] @ fock._radix(len(measured),
                                                                           state.n_max)
    rho = state.rho
    same = np.flatnonzero(seen[rho.rows] == seen[rho.cols])
    r, c, data = rho.rows[same], rho.cols[same], rho.vals[same]
    weights = fock._pattern_weights(state, detector_map, efficiency)
    probs = np.real(data[r == c]) @ weights[r[r == c]]
    reduced = fock.FockBasis(len(keep), state.n_max, state.basis.total_max)
    rem = reduced.rank(occs[:, [state.modes.index(m) for m in keep]])

    def branch(code):
        w = weights[r, code]
        sel = np.flatnonzero(w)
        sums = fock._summed(rem[r[sel]], rem[c[sel]], w[sel] * data[sel], reduced.dim)
        return fock.FockState(keep, reduced, dataclasses.replace(sums, vals=sums.vals / probs[code]))

    return probs, branch


def same_entries(got, want):
    return all(np.array_equal(x, y) for x, y in zip(canonical(got.rho), canonical(want.rho)))


@FAST
@given(fock_states(), st.data(), st.integers(1, 4))
def test_fock_batch_operations_are_each_element_alone(case, data, batch):
    # bit for bit: measure_threshold's batch against each pattern conditioned
    # alone, and partial_trace, tile and a thermal loss of one survival per
    # element (some at 1) on a batch whose elements differ against each
    # element alone
    state, _ = case
    efficiencies = st.sampled_from([0.0, 1.0, 2.2e-308]) | st.floats(0.01, 1.0)
    detector_map, efficiency = draw_detectors(data, state, len(state.modes) - 1, efficiencies)
    want_probs, branch = branches_alone(state, detector_map, efficiency)
    subnormal = np.flatnonzero((want_probs > 0.0) & (want_probs < np.finfo(float).tiny))
    if subnormal.size:
        with pytest.raises(fock.FockEngineError,
                           match=f"click pattern {subnormal[0]} has subnormal probability"):
            fock.measure_threshold(state, detector_map, efficiency)
    else:
        codes, probs, branches = fock.measure_threshold(state, detector_map, efficiency)
        assert codes.tolist() == np.flatnonzero(want_probs > 0.0).tolist()
        assert np.array_equal(probs, want_probs[codes])
        for b, code in enumerate(codes):
            assert same_entries(element(branches, b), branch(code))

    i, j = two_modes(data, state)
    a, b = state.modes[i], state.modes[j]
    phis = np.array(data.draw(st.lists(st.floats(-6.3, 6.3), min_size=batch, max_size=batch)))
    many = fock.apply_beam_splitter(fock.apply_phase(tiled(state, batch), a, phis), a, b, 0.6)
    keep = data.draw(st.permutations(state.modes))[:data.draw(st.integers(1, len(state.modes)))]
    survival = np.array(data.draw(st.lists(st.just(1.0) | st.floats(0.0, 0.999),
                                           min_size=batch, max_size=batch)))
    n_env = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.05, 0.3]),
                                        min_size=batch, max_size=batch)))
    traced = fock.partial_trace(many, keep)
    copies = tiled(many, 2)
    lossy = fock.apply_thermal_loss(many, a, survival, n_env)
    assert (traced.basis.batch, copies.basis.batch, lossy.basis.batch) == (batch, 2 * batch, batch)
    for k in range(batch):
        alone = element(many, k)
        assert same_entries(element(traced, k), fock.partial_trace(alone, keep))
        assert same_entries(element(copies, k), alone)
        assert same_entries(element(copies, batch + k), alone)
        assert same_entries(element(lossy, k), fock.apply_thermal_loss(alone, a, survival[k],
                                                                       n_env[k]))
        if survival[k] == 1.0:
            assert same_entries(element(lossy, k), alone)


@FAST
@given(fock_states(), st.data(), st.integers(2, 4))
def test_a_fock_batch_matches_each_element_alone(case, data, batch):
    # B tiled copies, each with its own phase, through a gate, loss,
    # thermal loss, a new vacuum mode, a gate on it and the click read-out
    state, _ = case
    i, j = two_modes(data, state)
    a, b = state.modes[i], state.modes[j]
    phis = np.array(data.draw(st.lists(st.floats(-6.3, 6.3), min_size=batch, max_size=batch)))
    transmissivity, survival = data.draw(unit), data.draw(st.floats(0.0, 0.999))
    n_env, p = data.draw(st.sampled_from([0.0, 0.05, 0.3])), data.draw(st.floats(0.0, 0.3))
    detectors = {"d0": [a], "d1": [b, "new"]}

    def run(st_, phi):
        st_ = fock.apply_beam_splitter(st_, a, b, transmissivity, 0.7)
        st_ = fock.apply_phase(st_, a, phi)
        st_ = fock.apply_loss(st_, b, survival)
        st_ = fock.apply_thermal_loss(st_, a, survival, n_env)
        st_ = fock.add_vacuum_mode(st_, "new")
        return fock.apply_two_mode_squeeze(st_, b, "new", p, 0.4)

    batched = run(tiled(state, batch), phis)
    assert_hermitian(batched)
    assert batched.trace() == pytest.approx(np.ones(batch), abs=1e-12)
    rho = dense(batched)
    r, c = np.nonzero(rho)
    # every entry stays inside its element's block
    size = batched.basis.dim // batch
    assert np.array_equal(r // size, c // size)
    clicks = fock.click_distribution(batched, detectors, 0.8).probabilities
    assert clicks.shape == (batch, 4)
    alone = [run(state, float(phi)) for phi in phis]
    dim = alone[0].basis.dim
    for k, single in enumerate(alone):
        block = rho[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim]
        assert np.abs(block - dense(single)).max() < 1e-12
        assert clicks[k] == pytest.approx(
            fock.click_distribution(single, detectors, 0.8).probabilities, abs=1e-12)
        assert batched.mean_occupation(b)[k] == pytest.approx(single.mean_occupation(b),
                                                              abs=1e-12)
    assert batched.truncation_weight() == pytest.approx(
        max(single.truncation_weight() for single in alone), abs=1e-12)
    assert abs(batched.renorm_deficit) == pytest.approx(
        max(abs(single.renorm_deficit) for single in alone), abs=1e-12)


# ---------------------------------------------------------------------------
# config round trip


@st.composite
def config_dicts(draw):
    """A config in file form (angles in units of pi) inside the validated
    ranges; a pulse gives its scattering probability, its energy or both."""
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
                     "duration_fwhm": draw(st.floats(1e-9, 100e-9))}
            given = draw(st.sampled_from(["probability", "energy", "both"]))
            if given != "energy":
                pulse["scattering_probability"] = draw(st.floats(0.0, 0.99 * guard))
            if given != "probability":
                # an energy alone, at most 0.1 pJ, converts below any guard drawn
                pulse["energy"] = draw(st.floats(0.0, 1e-12 if given == "both" else 1e-13))
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
    # each pulse is written back with the keys its file gave
    assert [p.keys() for p in config_to_dict(config)["pulses"]] == \
        [p.keys() for p in data["pulses"]]
    again = config_from_dict(config_to_dict(config))
    assert again == config
    assert config_digest(again) == config_digest(config)


@FAST
@given(config_dicts(), st.data())
def test_unset_radian_angles_survive_overrides(raw, data):
    # a config built in Python holds radians, which units of pi do not
    # always carry back exactly
    radian = st.floats(-6.3, 6.3)
    config = config_from_dict(raw)
    sweep = data.draw(st.none() | st.lists(st.tuples(radian, radian), min_size=1, max_size=4))
    config = dataclasses.replace(
        config,
        phases=PhaseSettings(data.draw(radian), data.draw(radian), data.draw(radian),
                             None if sweep is None else tuple(sweep)),
        noise=dataclasses.replace(config.noise,
                                  write_phase_jitter_fwhm=data.draw(st.floats(0.0, 3.2)),
                                  read_phase_jitter_fwhm=data.draw(st.floats(0.0, 3.2))))
    assert with_overrides(config, {}) == config
    changed = with_overrides(config, {"phases.phi_off": 0.25, "seed": 3})
    assert changed.phases.phi_off == 0.25 * math.pi
    assert (changed.phases.phi_w, changed.noise, changed.phases.settings) == \
        (config.phases.phi_w, config.noise, config.phases.settings)
