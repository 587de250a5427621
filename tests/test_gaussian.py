import math

import numpy as np
import pytest

from phonon_timebin import gaussian as G


class TestStates:
    def test_vacuum_covariance(self):
        st = G.vacuum_state(["a", "b"])
        assert np.allclose(st.sigma, 0.5 * np.eye(4))

    def test_thermal_occupation(self):
        st = G.thermal_state(["a", "b"], {"a": 1.0})
        assert st.mean_occupation("a") == pytest.approx(1.0)
        assert st.mean_occupation("b") == 0.0

    def test_validity_check(self):
        st = G.vacuum_state(["a"])
        st.check_valid()
        bad = G.CovarianceState(["a"], 0.1 * np.eye(2))  # below vacuum
        with pytest.raises(G.GaussianEngineError, match="uncertainty"):
            bad.check_valid()

    def test_validity_check_batched(self):
        # B = 2N = 4: sigma minus its full transpose (not its last two
        # axes swapped) would broadcast here and compare the wrong entries
        st = G.vacuum_state(["a", "b"])
        batch = G.apply_beam_splitter(G.apply_two_mode_squeeze(st, "a", "b", 0.02, 0.3),
                                      "a", "b", 0.4, np.linspace(0.0, 3.0, 4))
        assert batch.sigma.shape == (4, 4, 4)
        batch.check_valid()
        G.CovarianceState(["a", "b"], batch.sigma[:3]).check_valid()
        sigma = batch.sigma.copy()
        sigma[2, 0, 0] = 0.1   # one element below vacuum
        with pytest.raises(G.GaussianEngineError, match="uncertainty"):
            G.CovarianceState(["a", "b"], sigma).check_valid()
        sigma = batch.sigma.copy()
        sigma[1, 0, 2] += 1e-3   # one element not symmetric
        with pytest.raises(G.GaussianEngineError, match="symmetric"):
            G.CovarianceState(["a", "b"], sigma).check_valid()


class TestSymplectics:
    def test_phase_on_vacuum_invariant(self):
        st = G.vacuum_state(["a"])
        out = G.apply_phase(st, "a", 1.234)
        assert np.allclose(out.sigma, st.sigma, atol=1e-14)

    def test_squeeze_mean_occupation(self):
        st = G.vacuum_state(["a", "b"])
        out = G.apply_two_mode_squeeze(st, "a", "b", 0.04, 0.9)
        r = math.atanh(math.sqrt(0.04))
        assert out.mean_occupation("a") == pytest.approx(math.sinh(r) ** 2, abs=1e-12)
        assert out.mean_occupation("a") == pytest.approx(0.0417, abs=1e-4)

    def test_balanced_splitter_energy(self):
        st = G.thermal_state(["a", "b"], {"a": 1.0})
        out = G.apply_beam_splitter(st, "a", "b", 0.5)
        assert out.mean_occupation("a") == pytest.approx(0.5, abs=1e-12)
        assert out.mean_occupation("b") == pytest.approx(0.5, abs=1e-12)

    def test_symplectic_determinants(self):
        omega = G.symplectic_form(2)
        for S in (G.beam_splitter_symplectic(0.3, 1.1),
                  G.squeeze_symplectic(0.02, 2.2)):
            assert np.linalg.det(S) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(S @ omega @ S.T, omega, atol=1e-12)
        R = G._rot(0.7)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-14)

    def test_purity_through_lossless_circuit(self):
        st = G.vacuum_state(["a", "b", "c"])
        st = G.apply_two_mode_squeeze(st, "a", "b", 0.02, 0.3)
        st = G.apply_beam_splitter(st, "b", "c", 0.4, 1.0)
        st = G.apply_phase(st, "a", 0.5)
        # det(2 sigma) = 1 for a pure state
        assert np.linalg.det(2 * st.sigma) == pytest.approx(1.0, abs=1e-10)


class TestThermalLoss:
    def test_identity(self):
        st = G.thermal_state(["a"], 0.3)
        out = G.apply_thermal_loss(st, "a", 1.0, 5.0)
        assert np.allclose(out.sigma, st.sigma)

    def test_full_replacement(self):
        st = G.vacuum_state(["a"])
        out = G.apply_thermal_loss(st, "a", 0.0, 0.09)
        assert out.mean_occupation("a") == pytest.approx(0.09, abs=1e-14)

    def test_added_occupancy(self):
        st = G.vacuum_state(["a"])
        out = G.apply_thermal_loss(st, "a", 0.99, 2.2)
        assert out.mean_occupation("a") == pytest.approx(0.022, abs=1e-12)

    def test_cross_blocks_scaled(self):
        st = G.vacuum_state(["a", "b"])
        st = G.apply_two_mode_squeeze(st, "a", "b", 0.04, 0.0)
        cross = st.sigma[:2, 2:].copy()
        out = G.apply_thermal_loss(st, "a", 0.64, 0.1)
        assert np.allclose(out.sigma[:2, 2:], 0.8 * cross, atol=1e-14)


class TestClicks:
    def test_vacuum_probability_one(self):
        st = G.vacuum_state(["a", "b"])
        assert G.vacuum_probability(st, ["a", "b"]) == pytest.approx(1.0, abs=1e-14)

    def test_thermal_vacuum_probability(self):
        st = G.thermal_state(["a"], 1.0)
        assert G.vacuum_probability(st, ["a"]) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_state_hard_error(self):
        bad = G.CovarianceState(["a"], -0.6 * np.eye(2))
        with pytest.raises(G.GaussianEngineError, match="positive-definite"):
            G.vacuum_probability(bad, ["a"])

    def test_pattern_normalization(self):
        st = G.thermal_state(["a", "b", "c"], {"a": 0.4, "b": 0.1})
        st = G.apply_beam_splitter(st, "a", "c", 0.7, 0.4)
        d = G.click_probabilities(st, {"d1": ["a"], "d2": ["b", "c"]},
                                  {"d1": 0.8, "d2": 0.6})
        assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eta", [1.5, -0.2, math.nan])
    def test_efficiency_outside_the_unit_interval_raises(self, eta):
        st = G.thermal_state(["a", "b"], 0.3)
        detectors = {"d1": ["a"], "d2": ["b"]}
        for efficiency in ({"d1": 0.9, "d2": eta}, eta):
            with pytest.raises(G.GaussianEngineError, match="efficiency of detector 'd.'"):
                G.click_probabilities(st, detectors, efficiency)

    def test_efficiency_for_no_detector_raises(self):
        # a misspelt key would otherwise leave 'd1' read at efficiency 1
        st = G.thermal_state(["a"], 0.5)
        with pytest.raises(G.GaussianEngineError, match="efficiency for no detector: 'd_1'"):
            G.click_probabilities(st, {"d1": ["a"]}, {"d_1": 0.5})

    def test_marginal_consistency(self):
        # marginal click probability equals the sum over full patterns
        st = G.thermal_state(["a", "b"], {"a": 0.3, "b": 0.2})
        st = G.apply_two_mode_squeeze(st, "a", "b", 0.01, 0.2)
        d = G.click_probabilities(st, {"d1": ["a"], "d2": ["b"]})
        direct = 1.0 - G.vacuum_probability(st, ["a"])
        assert d.prob(d1=True) == pytest.approx(direct, abs=1e-10)

    def test_multimode_detector_groups(self):
        st = G.thermal_state(["a", "b"], 0.2)
        d = G.click_probabilities(st, {"d": ["a", "b"]})
        # no-click on the pair is the joint vacuum probability
        assert d.prob(d=False) == pytest.approx(1.0 / 1.2**2, abs=1e-12)


    @pytest.mark.parametrize("detectors", [{"d1": ["a", "a"]}, {"d1": ["a"], "d2": ["a"]}],
                             ids=["in-one-group", "across-groups"])
    @pytest.mark.parametrize("read", [G.click_probabilities, G.detected_modes])
    def test_a_mode_listed_twice_raises(self, read, detectors):
        # it would enter each determinant twice: [0.8, 0.2] for the right
        # [2/3, 1/3] at efficiency 1, and a negative pattern at 0.5
        st = G.thermal_state(["a", "b"], 0.5)
        for efficiency in (None, 0.5):
            with pytest.raises(G.GaussianEngineError, match="mode 'a' is listed twice"):
                read(st, detectors, efficiency)

    def test_the_same_labels_in_two_mode_orders(self):
        # the quadrature rows a label selects follow the state's mode order
        occupations = {"a": 0.25, "b": 1.0}
        for modes in (["a", "b"], ["b", "a"]):
            st = G.thermal_state(modes, occupations)
            assert G.vacuum_probability(st, ["a"]) == pytest.approx(0.8, abs=1e-15)
            assert G.vacuum_probability(st, ("b",)) == pytest.approx(0.5, abs=1e-15)
            d = G.click_probabilities(st, {"da": ["a"], "db": ["b"]})
            assert d.probabilities == pytest.approx([0.4, 0.4, 0.1, 0.1], abs=1e-15)

    def test_list_and_tuple_labels_agree(self):
        st = G.apply_two_mode_squeeze(G.thermal_state(["a", "b"], 0.2), "a", "b", 0.1, 0.3)
        assert G.vacuum_probability(st, ["b", "a"]) == G.vacuum_probability(st, ("b", "a"))
        lists = G.click_probabilities(st, {"da": ["a"], "db": ["b"]}, 0.7)
        tuples = G.click_probabilities(st, {"da": ("a",), "db": ("b",)}, 0.7)
        assert np.array_equal(lists.probabilities, tuples.probabilities)

    def test_an_unknown_label_raises_naming_it(self):
        st = G.thermal_state(["a"], 0.5)
        with pytest.raises(G.GaussianEngineError, match="mode 'zz' not registered"):
            G.vacuum_probability(st, ["a", "zz"])
        with pytest.raises(G.GaussianEngineError, match="mode 'zz' not registered"):
            G.click_probabilities(st, {"d1": ["a"], "d2": ["zz"]})

class TestModeRegistry:
    def test_add_and_drop(self):
        st = G.thermal_state(["a"], 0.5)
        grown = G.add_vacuum_mode(st, "b")
        assert grown.modes == ("a", "b")
        st2 = G.apply_beam_splitter(grown, "a", "b", 0.5)
        # the added mode is vacuum: the splitter halves the occupation
        assert st2.mean_occupation("a") == pytest.approx(0.25, abs=1e-12)

    def test_unregistered(self):
        st = G.vacuum_state(["a"])
        with pytest.raises(G.GaussianEngineError, match="not registered"):
            G.apply_phase(st, "zz", 0.1)
