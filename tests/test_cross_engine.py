"""Cross-engine equivalence at unit-test scale; the full 200-circuit suite
runs in the acceptance module."""

from importlib.resources import files

import pytest

from phonon_timebin import analysis, cli, fock, gaussian, oracles, protocol
from phonon_timebin.core import load_config, with_overrides


class TestSharedVocabulary:
    def test_squeeze_click_patterns(self):
        fs = fock.init_vacuum(["a", "b"], 5)
        fs = fock.apply_two_mode_squeeze(fs, "a", "b", 0.015, 0.4)
        gs = gaussian.vacuum_state(["a", "b"])
        gs = gaussian.apply_two_mode_squeeze(gs, "a", "b", 0.015, 0.4)
        df = fock.click_distribution(fs, {"d1": ["a"], "d2": ["b"]}, 0.8)
        dg = gaussian.click_probabilities(gs, {"d1": ["a"], "d2": ["b"]}, 0.8)
        assert df.probabilities == pytest.approx(dg.probabilities, abs=1e-8)

    def test_thermal_loss_chain(self):
        fs = fock.init_thermal(["a"], 5, 0.1)
        gs = gaussian.thermal_state(["a"], 0.1)
        for s, n_env in ((0.9, 0.05), (0.7, 0.0), (0.95, 0.18)):
            fs = fock.apply_thermal_loss(fs, "a", s, n_env)
            gs = gaussian.apply_thermal_loss(gs, "a", s, n_env)
            # means see the n-weighted tail, so they are a little softer
            # than the click-probability contract
            assert fs.mean_occupation("a") == pytest.approx(
                gs.mean_occupation("a"), abs=2e-6)
        df = fock.click_distribution(fs, {"d": ["a"]})
        dg = gaussian.click_probabilities(gs, {"d": ["a"]})
        assert df.prob(d=True) == pytest.approx(dg.prob(d=True), abs=1e-7)

    def test_interferometer_fragment(self):
        # squeeze, split, phase, recombine: the protocol's core fragment
        ops = [
            ("squeeze", "o", "m", 0.004, 0.3),
            ("loss", "o", 0.5),
            ("phase", "o", 0.77),
            ("beam_splitter", "o", "v", 0.5, 0.0),
            ("loss", "m", 0.92),
        ]
        desc = {"modes": ["o", "m", "v"], "occupations": {"m": 0.03},
                "ops": ops, "detectors": {"d1": ["o"], "d2": ["v"], "d3": ["m"]},
                "efficiency": {"d1": 0.85, "d2": 0.85, "d3": 0.9},
                "total_cap": 10}
        assert oracles.cross_engine_deviation(desc, n_max=5)[0] < 1e-7

    def test_random_suite_smoke(self):
        worst, worst_idx, peak = oracles.cross_engine_suite(20, seed=20260809, n_max=5)
        assert worst < 1e-6
        # pinned, so a kernel that loses accuracy but stays under the gate
        # still fails
        assert worst == pytest.approx(3.728391894823385e-08, abs=1e-15)
        assert worst_idx == 10
        # the Fock states keep only the coherences the read-out can see
        # (262,449 entries without pruning)
        assert peak == 26_398

    def test_mutated_convention_fails_fringe_oracle(self):
        # flipping the interferometer phase sign must trip the branch test
        fringe, cross0, flip = oracles.fringe_suite(n_points=6, flip_phase_sign=True)
        assert fringe > 1e-3
        # sanity: the healthy convention passes
        fringe_ok, cross_ok, flip_ok = oracles.fringe_suite(n_points=6)
        assert fringe_ok < 1e-9 and cross_ok < 1e-9 and flip_ok < 1e-9


BS = ("beam_splitter", "a", "b", 0.6, 0.3)
TMS = ("squeeze", "b", "c", 0.02, 1.1)


@pytest.mark.parametrize("ops, pruned_for", [
    ([BS, ("loss", "a", 0.8), ("phase", "b", 0.4), TMS, ("thermal_loss", "c", 0.9, 0.05)],
     [[("bs", "a", "b"), ("tms", "b", "c")], [("tms", "b", "c")], []]),
    ([("loss", "a", 0.8), ("phase", "b", 0.4)], [[]]),
    ([TMS, BS], [[("tms", "b", "c"), ("bs", "a", "b")], [("bs", "a", "b")], []]),
], ids=["mixed", "no-gate", "gates-last"])
def test_the_oracle_prunes_only_at_the_start_and_after_two_mode_gates(monkeypatch, ops,
                                                                      pruned_for):
    # a channel or a phase keeps every mode's row-column difference, so a
    # prune after one would drop nothing
    calls = []
    prune = fock.prune_coherences
    monkeypatch.setattr(fock, "prune_coherences", lambda state, gates: calls.append(
        list(gates)) or prune(state, gates))
    state = fock.init_thermal(["a", "b", "c"], 4, {"a": 0.1, "c": 0.05})
    oracles.fock_clicks(state, ops, {"d1": ["a"], "d2": ["b", "c"]}, 0.9)
    assert calls == pruned_for


@pytest.mark.xfail(strict=True, reason=(
    "the Fock engine runs the read stage's thermal top-up on each "
    "herald-conditioned mechanical state, so click branches get no added noise"))
def test_bell_S_engines_agree_without_jitter():
    config = with_overrides(
        load_config(str(files("phonon_timebin") / "configs" / "bell_test.yaml")),
        {"trials": 0, "noise.write_phase_jitter_fwhm": 0, "noise.read_phase_jitter_fwhm": 0})
    settings = protocol._phase_settings(config)
    S = {engine: analysis.chsh_S([e for e, _ in cli.settings_E(protocol.run_settings(
        with_overrides(config, {"engine.name": engine}), settings))]).value
        for engine in ("gaussian", "fock")}
    assert S["fock"] == pytest.approx(S["gaussian"], abs=1e-4)

