"""Property tests of the dense click-distribution vector: the subset
transform, background folding and chunked sampling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonon_timebin import gaussian, protocol
from phonon_timebin.core import OutcomeDistribution

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
