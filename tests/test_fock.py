import itertools
import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import expm

from dense_fock import dense, element, entries, index
from phonon_timebin import fock as F
from phonon_timebin import protocol


def pure_state(modes, n_max, occupation, total_max=None):
    st = F.init_vacuum(modes, n_max, total_max)
    rho = np.zeros((st.basis.dim, st.basis.dim), complex)
    i = index(st.basis)[tuple(occupation)]
    rho[i, i] = 1.0
    st.rho = entries(rho)
    return st


class TestInit:
    def test_vacuum_occupations(self):
        st = F.init_vacuum(["a", "b", "c"], 4)
        for m in st.modes:
            assert st.mean_occupation(m) == 0.0
        assert st.trace() == pytest.approx(1.0, abs=1e-14)

    def test_thermal_geometric_p0(self):
        st = F.init_thermal(["a"], 10, 1.0)
        assert np.real(dense(st)[0, 0]) == pytest.approx(0.5, abs=1e-12)

    def test_thermal_low_occupancy_mean(self):
        st = F.init_thermal(["a"], 6, 0.09)
        assert st.mean_occupation("a") == pytest.approx(0.09, abs=2e-5)

    def test_thermal_tail_folding_preserves_trace_and_vacuum(self):
        w = F.thermal_weights(0.2, 5)
        q = 0.2 / 1.2
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert w[0] == pytest.approx(1 - q, abs=1e-15)
        assert w[3] == pytest.approx((1 - q) * q**3, abs=1e-15)

    def test_invalid_args(self):
        with pytest.raises(F.FockEngineError):
            F.init_vacuum(["a"], 0)
        with pytest.raises(F.FockEngineError):
            F.init_thermal(["a"], 4, -0.1)
        with pytest.raises(F.FockEngineError):
            F.init_vacuum(["a", "a"], 3)


class TestTwoModeSqueeze:
    def test_identity_at_zero(self):
        st = F.init_vacuum(["a", "b"], 4)
        out = F.apply_two_mode_squeeze(st, "a", "b", 0.0, 0.7)
        assert np.allclose(dense(out), dense(st))

    def test_pair_probability(self):
        st = F.init_vacuum(["a", "b"], 6)
        out = F.apply_two_mode_squeeze(st, "a", "b", 0.04, 0.0)
        i = index(out.basis)[(1, 1)]
        assert np.real(dense(out)[i, i]) == pytest.approx(0.96 * 0.04, abs=1e-9)

    def test_vacuum_series_amplitudes(self):
        p, phi = 0.01, 1.234
        st = F.init_vacuum(["a", "b"], 7)
        out = F.apply_two_mode_squeeze(st, "a", "b", p, phi)
        for n in range(3):
            i = index(out.basis)[(n, n)]
            amp2 = (1 - p) * p**n
            assert np.real(dense(out)[i, i]) == pytest.approx(amp2, rel=1e-6)
            if n:
                coh = dense(out)[i, index(out.basis)[(0, 0)]]
                expected = (1 - p) * p ** (n / 2) * np.exp(1j * n * phi)
                assert coh == pytest.approx(expected, abs=1e-9)

    def test_first_order_click_amplitude(self):
        # joint pair amplitude matches the sqrt(p) branch to O(p)
        st = F.init_vacuum(["a", "b"], 5)
        out = F.apply_two_mode_squeeze(st, "a", "b", 0.002, 0.0)
        i, j = index(out.basis)[(1, 1)], index(out.basis)[(0, 0)]
        assert abs(dense(out)[i, j]) == pytest.approx(math.sqrt(0.002), rel=3e-3)

    def test_unregistered_mode(self):
        st = F.init_vacuum(["a", "b"], 3)
        with pytest.raises(F.FockEngineError, match="not registered"):
            F.apply_two_mode_squeeze(st, "a", "zz", 0.01)


class TestBeamSplitter:
    def test_identity(self):
        st = F.init_thermal(["a", "b"], 4, {"a": 0.3})
        out = F.apply_beam_splitter(st, "a", "b", 1.0)
        assert np.allclose(dense(out), dense(st))

    def test_balanced_on_single_photon(self):
        st = pure_state(["a", "b"], 4, (1, 0))
        out = F.apply_beam_splitter(st, "a", "b", 0.5)
        p10 = np.real(dense(out)[index(out.basis)[(1, 0)], index(out.basis)[(1, 0)]])
        p01 = np.real(dense(out)[index(out.basis)[(0, 1)], index(out.basis)[(0, 1)]])
        assert p10 == pytest.approx(0.5, abs=1e-12)
        assert p01 == pytest.approx(0.5, abs=1e-12)

    def test_weak_readout_probability(self):
        st = pure_state(["o", "m"], 4, (0, 1))
        out = F.apply_beam_splitter(st, "o", "m", 1.0 - 0.007)
        assert out.mean_occupation("o") == pytest.approx(0.007, abs=1e-12)

    def test_trace_preserved(self):
        st = F.init_thermal(["a", "b"], 5, {"a": 0.1, "b": 0.05})
        out = F.apply_beam_splitter(st, "a", "b", 0.37, 2.1)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)


def ladder_generator(coupling, phi):
    """The anti-Hermitian tridiagonal generator of ``_ladder_unitaries``."""
    n = len(coupling) + 1
    g = np.zeros((n, n), complex)
    for k, c in enumerate(coupling):
        g[k + 1, k] = c * (1.0 if phi is None else np.exp(1j * phi))
        g[k, k + 1] = -np.conj(g[k + 1, k])
    return g


class TestLadderUnitaries:
    @pytest.mark.parametrize("phi", [None, 0.0, 0.7, -2.3])
    @pytest.mark.parametrize("length", range(2, 13))
    def test_matches_expm(self, length, phi):
        rng = np.random.default_rng(length)
        coupling = rng.uniform(0.0, 10.0, size=(5, length - 1))
        got = F._ladder_unitaries(coupling, phi)
        assert got.dtype == (float if phi is None else complex)
        for c, u in zip(coupling, got):
            assert np.abs(u - expm(ladder_generator(c, phi))).max() < 1e-12
            assert np.abs(u @ u.conj().T - np.eye(length)).max() < 1e-12

    @pytest.mark.parametrize("kind", ["bs", "tms"])
    def test_padded_gate_matches_each_ladder(self, kind):
        # the total cap cuts the ladders of modes a, b to several lengths,
        # all padded to the longest in one batch; the reference exponentiates
        # the gate's generator on the whole capped basis, which is block
        # diagonal over the ladders
        st = F.init_vacuum(["a", "b", "c"], 4, total_max=5)
        basis = st.basis
        root = F._ladder_layout(basis, 0, 1, kind)[0]
        assert len(set(np.count_nonzero(root, axis=1))) > 1
        theta, phi = 0.9, 0.4
        g = np.zeros((basis.dim, basis.dim), complex)
        where = index(basis)
        for (a, b, c), i in where.items():
            dst = (a + 1, b - 1, c) if kind == "bs" else (a + 1, b + 1, c)
            amp = (a + 1) * (b if kind == "bs" else b + 1)
            if dst in where:
                g[where[dst], i] = theta * math.sqrt(amp) * np.exp(1j * phi)
        u = expm(g - g.conj().T)
        rng = np.random.default_rng(3)
        m = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim,) * 2)
        st.rho = entries(m @ m.conj().T / np.trace(m @ m.conj().T))
        got = F._apply_two_mode(st, "a", "b", kind, theta, phi)
        assert np.abs(dense(got) - u @ dense(st) @ u.conj().T).max() < 1e-12


class TestPhase:
    def test_identity_and_periodicity(self):
        st = F.init_thermal(["a"], 5, 0.4)
        assert np.allclose(dense(F.apply_phase(st, "a", 0.0)), dense(st))
        assert np.abs(dense(F.apply_phase(st, "a", 2 * math.pi)) - dense(st)).max() < 1e-12

    def test_pi_flips_coherence(self):
        st = F.init_vacuum(["a"], 3)
        rho = np.zeros((st.basis.dim, st.basis.dim), complex)
        rho[:2, :2] = 0.5
        st.rho = entries(rho)
        out = F.apply_phase(st, "a", math.pi)
        assert dense(out)[0, 1] == pytest.approx(-0.5, abs=1e-14)
        assert dense(out)[1, 1] == pytest.approx(0.5, abs=1e-14)


class TestChannels:
    def test_loss_identity(self):
        st = F.init_thermal(["a"], 5, 0.3)
        assert np.allclose(dense(F.apply_loss(st, "a", 1.0)), dense(st))

    def test_loss_linearity(self):
        st = F.init_thermal(["a"], 12, 1.0)
        out = F.apply_loss(st, "a", 0.5)
        assert out.mean_occupation("a") == pytest.approx(
            0.5 * st.mean_occupation("a"), abs=1e-12)

    def test_loss_composition(self):
        st = F.init_thermal(["a"], 8, 0.4)
        seq = F.apply_loss(F.apply_loss(st, "a", 0.8), "a", 0.6)
        direct = F.apply_loss(st, "a", 0.48)
        assert abs(seq.mean_occupation("a") - direct.mean_occupation("a")) < 1e-10
        assert np.abs(dense(seq) - dense(direct)).max() < 1e-10

    @pytest.mark.parametrize("n_max", [1, 4, 12, 25])
    def test_loss_kernels_match_the_binomial_loop(self, n_max):
        # the per-entry math.comb loop is the reference, bit for bit
        n = np.arange(n_max + 1)
        for survival in (0.0, 0.3, 0.93, 1.0):
            for d, kernel in enumerate(F._loss_kernels(n_max, survival)):
                binom = np.array([math.comb(x + d, d) for x in n], dtype=float)
                amp = np.sqrt(binom) * (1.0 - survival) ** (d / 2.0) * survival ** (n / 2.0)
                assert np.array_equal(kernel, np.outer(amp, amp))

    def test_thermal_noise_adds_occupancy(self):
        circuit = protocol._FockCircuit(n_max=6, total_cap=6)
        circuit.add_mode("a")
        circuit.thermal_noise("a", 0.022)
        assert circuit.mean_occupation("a") == pytest.approx(0.022, abs=1e-6)
        assert circuit.state.trace() == pytest.approx(1.0, abs=1e-10)

    def test_thermal_noise_epsilon_insensitive(self):
        # adding 0.05 of occupancy through survival 1 - epsilon against
        # 0.05 / epsilon hardly depends on epsilon
        st = F.init_vacuum(["a"], 6)
        a = F.apply_thermal_loss(st, "a", 0.99, 5.0)
        b = F.apply_thermal_loss(st, "a", 0.995, 10.0)
        assert abs(a.mean_occupation("a") - b.mean_occupation("a")) < 1e-6

    def test_thermal_loss_matches_gaussian_moments(self):
        st = F.init_thermal(["a"], 7, 0.08)
        out = F.apply_thermal_loss(st, "a", 0.93, 0.15)
        assert out.mean_occupation("a") == pytest.approx(
            0.93 * 0.08 + 0.07 * 0.15, abs=1e-8)

    def test_channel_trace_preservation(self):
        rng = np.random.default_rng(5)
        st = F.init_vacuum(["a", "b"], 4, total_max=6)
        st = F.apply_two_mode_squeeze(st, "a", "b", 0.02, 0.4)
        for _ in range(4):
            st = F.apply_thermal_loss(st, "a", rng.uniform(0.7, 1), rng.uniform(0, 0.2))
            st = F.apply_loss(st, "b", rng.uniform(0.5, 1))
            assert st.trace() == pytest.approx(1.0, abs=1e-10)


def expm_extended(g):
    """exp(g) in long double: a Taylor series of g / 2**s with norm <= 1/4,
    then s squarings.  Its error stays far below the 1e-14 the kernels are
    held to, which a double-precision reference cannot promise for the
    large-norm ladders."""
    a = np.asarray(g, dtype=np.longdouble)
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0 else 0
    a = a / np.longdouble(2) ** s
    term = out = np.eye(len(a), dtype=np.longdouble)
    for k in range(1, 30):  # 0.25**30 / 30! is far below long double eps
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out.astype(float)


def thermal_kernels_loop(n_max, survival, n_env):
    """The thermal-attenuator kernels by explicit loops over ancilla level l,
    source levels m, n and destination level a (an independent reference
    for the vectorised construction, its ladder blocks exponentiated in
    extended precision)."""
    if n_env == 0.0:
        return dict(enumerate(F._loss_kernels(n_max, survival)))
    q = n_env / (n_env + 1.0)
    anc_max = min(max(4, int(math.ceil(math.log(1e-13) / math.log(q)))), 400)
    pw = (1.0 - q) * q ** np.arange(anc_max + 1)
    pw[-1] = 1.0 - pw[:-1].sum()
    theta = math.acos(min(1.0, math.sqrt(survival)))
    d_sys = n_max + 1

    @lru_cache(maxsize=None)
    def block(total):
        lo, hi = max(0, total - anc_max), min(n_max, total)
        g = np.zeros((hi - lo + 1, hi - lo + 1))
        for k in range(hi - lo):
            a = lo + k
            g[k + 1, k] = theta * math.sqrt((a + 1) * (total - a))
            g[k, k + 1] = -g[k + 1, k]
        return expm_extended(g), lo

    kernels = {d: np.zeros((d_sys, d_sys)) for d in range(-n_max, n_max + 1)}
    for l in range(anc_max + 1):
        if pw[l] < 1e-16:
            continue
        for m in range(d_sys):
            u, lo = block(m + l)
            col = u[:, m - lo]
            for n in range(d_sys):
                u2, lo2 = block(n + l)
                col2 = u2[:, n - lo2]
                for ka, amp_a in enumerate(col):
                    a = lo + ka
                    b = n + l - (m + l - a)
                    if lo2 <= b <= lo2 + len(col2) - 1:
                        kernels[m - a][a, b] += pw[l] * amp_a * col2[b - lo2]
    return kernels


class TestThermalKernels:
    # n_env 20 needs more than the 400-level ancilla cap
    @pytest.mark.parametrize("n_env", [0.0, 0.05, 0.2, 20.0])
    @pytest.mark.parametrize("survival", [0.0, 0.5, 0.93, 0.99])
    @pytest.mark.parametrize("n_max", [2, 4, 5])
    def test_matches_loop(self, n_max, survival, n_env):
        # the reference needs 80-bit (or wider) long double to be exact
        # enough; fail rather than skip where the platform lacks it
        assert np.finfo(np.longdouble).eps < 1e-18
        got = F._thermal_kernels(n_max, survival, n_env)
        ref = thermal_kernels_loop(n_max, survival, n_env)
        assert sorted(got) == sorted(ref)
        for d in ref:
            assert np.abs(got[d] - ref[d]).max() < 1e-14


class TestUnitarityAndPositivity:
    def test_squeeze_inverse(self):
        st = F.init_vacuum(["a", "b"], 6)
        mid = F.apply_two_mode_squeeze(st, "a", "b", 0.01, 0.3)
        back = F.apply_two_mode_squeeze(mid, "a", "b", 0.01, 0.3 + math.pi)
        assert np.abs(dense(back) - dense(st)).max() < 1e-10

    def test_randomized_circuit_positivity(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            st = F.init_thermal(["a", "b", "c"], 4, {"b": 0.1}, total_max=8)
            for _ in range(6):
                op = rng.integers(4)
                pair = rng.choice(3, 2, replace=False)
                a, b = st.modes[pair[0]], st.modes[pair[1]]
                if op == 0:
                    st = F.apply_two_mode_squeeze(st, a, b, rng.uniform(0, 0.02),
                                                  rng.uniform(0, 2 * math.pi))
                elif op == 1:
                    st = F.apply_beam_splitter(st, a, b, rng.uniform(0, 1),
                                               rng.uniform(0, 2 * math.pi))
                elif op == 2:
                    st = F.apply_loss(st, a, rng.uniform(0.5, 1))
                else:
                    st = F.apply_thermal_loss(st, a, rng.uniform(0.9, 1),
                                              rng.uniform(0, 0.2))
            rho = dense(st)
            assert np.abs(rho - rho.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min() > -1e-9
            assert st.trace() == pytest.approx(1.0, abs=1e-9)


class TestDetection:
    def test_vacuum_never_clicks(self):
        st = F.init_vacuum(["a", "b"], 4)
        d = F.click_distribution(st, {"d1": ["a"], "d2": ["b"]})
        assert d.probabilities[0] == pytest.approx(1.0, abs=1e-14)  # no clicks

    def test_thermal_click_probability(self):
        st = F.init_thermal(["a"], 14, 1.0)
        d = F.click_distribution(st, {"d": ["a"]})
        assert d.prob(d=True) == pytest.approx(0.5, abs=1e-4)

    def test_tms_click_correlations(self):
        st = F.init_vacuum(["a", "b"], 6)
        st = F.apply_two_mode_squeeze(st, "a", "b", 0.002, 0.0)
        d = F.click_distribution(st, {"da": ["a"], "db": ["b"]})
        ratio = d.prob(da=True, db=True) / (d.prob(da=True) * d.prob(db=True))
        assert ratio == pytest.approx(500.0, rel=1e-6)

    def test_efficiency_reduces_clicks(self):
        st = F.init_thermal(["a"], 10, 0.5)
        full = F.click_distribution(st, {"d": ["a"]})
        half = F.click_distribution(st, {"d": ["a"]}, {"d": 0.5})
        assert half.prob(d=True) < full.prob(d=True)
        # thermal with mean n under thinning eta: P(click) = eta n / (1 + eta n)
        assert half.prob(d=True) == pytest.approx(0.25 / 1.25, abs=1e-4)

    @pytest.mark.parametrize("eta", [1.5, -0.2, math.nan])
    @pytest.mark.parametrize("read", [F.click_distribution, F.measure_threshold])
    def test_efficiency_outside_the_unit_interval_raises(self, read, eta):
        st = F.init_thermal(["a", "b"], 4, 0.3)
        detectors = {"d1": ["a"], "d2": ["b"]}
        for efficiency in ({"d1": 0.9, "d2": eta}, eta):
            with pytest.raises(F.FockEngineError, match="efficiency of detector 'd.'"):
                read(st, detectors, efficiency)

    @pytest.mark.parametrize("read", [F.click_distribution, F.measure_threshold])
    def test_efficiency_for_no_detector_raises(self, read):
        # a misspelt key would otherwise leave 'd1' read at efficiency 1
        st = F.init_thermal(["a", "b"], 8, 0.5)
        with pytest.raises(F.FockEngineError, match="efficiency for no detector: 'd_1'"):
            read(st, {"d1": ["a"]}, {"d_1": 0.5})

    @pytest.mark.parametrize("detectors", [{"d1": ["a", "a"]}, {"d1": ["a"], "d2": ["a"]}],
                             ids=["in-one-group", "across-groups"])
    @pytest.mark.parametrize("read", [F.click_distribution, F.measure_threshold])
    def test_a_mode_listed_twice_raises(self, read, detectors):
        # its quanta would count twice: 0.727 for the right 0.8 at eta 0.5
        st = F.init_thermal(["a", "b"], 10, 0.5)
        for efficiency in (None, 0.5):
            with pytest.raises(F.FockEngineError, match="mode 'a' is listed twice"):
                read(st, detectors, efficiency)

    def test_distribution_normalized(self):
        st = F.init_thermal(["a", "b", "c"], 4, {"a": 0.2, "c": 0.1}, total_max=8)
        st = F.apply_beam_splitter(st, "a", "b", 0.6, 0.3)
        d = F.click_distribution(st, {"d1": ["a", "b"], "d2": ["c"]}, {"d1": 0.9, "d2": 0.7})
        assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-10)

    def test_measure_threshold_branches(self):
        st = F.init_vacuum(["o", "m"], 4)
        st = F.apply_two_mode_squeeze(st, "o", "m", 0.01, 0.0)
        codes, probs, heralded = F.measure_threshold(st, {"d": ["o"]})
        # one batch, element b for code b
        assert codes.tolist() == [0, 1]
        assert heralded.basis.batch == 2 and heralded.modes == ("m",)
        assert probs[1] == pytest.approx(0.01, rel=1e-2)
        # heralding on the Stokes photon leaves (at least) one phonon
        assert heralded.mean_occupation("m")[1] > 0.99
        assert heralded.trace() == pytest.approx([1.0, 1.0], abs=1e-10)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_subnormal_branch_raises_without_overflow(self):
        # the click branch's probability ~ 2.2e-308 * 0.11 is subnormal, so
        # dividing its conditioned state by it would overflow
        st = F.init_vacuum(["o", "m"], 4)
        st = F.apply_two_mode_squeeze(st, "o", "m", 0.1, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(F.FockEngineError, match="subnormal probability"):
                F.measure_threshold(st, {"d": ["o"]}, 2.2e-308)


class TestStateBookkeeping:
    def test_partial_trace_marginals(self):
        st = F.init_thermal(["a", "b"], 6, {"a": 0.3, "b": 0.1})
        st = F.apply_beam_splitter(st, "a", "b", 0.7, 0.2)
        reduced = F.partial_trace(st, ["a"])
        assert reduced.modes == ("a",)
        assert reduced.trace() == pytest.approx(1.0, abs=1e-12)
        assert reduced.mean_occupation("a") == pytest.approx(
            st.mean_occupation("a"), abs=1e-12)

    def test_add_vacuum_mode(self):
        st = F.init_thermal(["a"], 5, 0.2)
        grown = F.add_vacuum_mode(st, "b")
        assert grown.modes == ("a", "b")
        assert grown.mean_occupation("b") == 0.0
        assert grown.mean_occupation("a") == pytest.approx(
            st.mean_occupation("a"), abs=1e-14)

    def test_truncation_weight_reported(self):
        st = F.init_thermal(["a"], 5, 0.2)
        assert st.truncation_weight() > 0
        assert st.renorm_deficit == pytest.approx(0.0, abs=1e-12)


class TestBasis:
    @pytest.mark.parametrize("n_modes", [1, 2, 3, 5])
    @pytest.mark.parametrize("n_max", [1, 2, 4])
    def test_matches_the_product_enumeration(self, n_modes, n_max):
        # every cap from the vacuum alone up to the uncapped basis
        for total_max in range(n_modes * n_max + 1):
            want = [o for o in itertools.product(range(n_max + 1), repeat=n_modes)
                    if sum(o) <= total_max]
            basis = F.FockBasis(n_modes, n_max, total_max)
            assert basis.occs.tolist() == [list(o) for o in want]
            assert basis.rank(np.array(want)).tolist() == list(range(len(want)))

    def test_a_batch_tiles_one_element(self):
        one = F.FockBasis(3, 2, 4)
        basis = F.FockBasis(3, 2, 4, batch=3)
        assert basis.dim == 3 * one.dim
        assert np.array_equal(basis.occs, np.tile(one.occs, (3, 1)))
        for delta in (-1, 1):
            single = one.shifted(1, delta)
            want = [np.where(single >= 0, single + b * one.dim, -1) for b in range(3)]
            assert np.array_equal(basis.shifted(1, delta), np.concatenate(want))


class TestSortedGroups:
    def test_groups_in_input_order(self):
        order, group, keys = F._sorted_groups(np.array([7, 3, 7, 3, 5]))
        assert order.tolist() == [1, 3, 4, 0, 2]
        assert group.tolist() == [0, 0, 1, 2, 2]
        assert keys.tolist() == [3, 5, 7]

    def test_keys_too_wide_to_pack_raise(self):
        # three keys take two position bits, leaving 61 for the key
        F._sorted_groups(np.array([0, 1, (1 << 61) - 1]))
        with pytest.raises(F.FockEngineError, match="do not pack into 64 bits"):
            F._sorted_groups(np.array([0, 1, 1 << 61]))


class TestBatch:
    def batch(self):
        st = F.init_thermal(["a", "b"], 3, {"a": 0.2})
        return F.tile(F.apply_beam_splitter(st, "a", "b", 0.6, 0.3), 3)

    def test_tile_is_block_diagonal(self):
        st = F.apply_beam_splitter(F.init_thermal(["a", "b"], 3, {"a": 0.2}), "a", "b", 0.6, 0.3)
        tiled = F.tile(st, 3)
        assert tiled.basis.batch == 3
        assert np.array_equal(dense(tiled), np.kron(np.eye(3), dense(st)))
        assert F.tile(st, 1) is st
        assert tiled.trace() == pytest.approx([1.0] * 3, abs=1e-14)

    @pytest.mark.parametrize("op", [
        lambda st: F.measure_threshold(st, {"d": ["a"]}),
    ], ids=["measure_threshold"])
    def test_single_state_operations_reject_a_batch(self, op):
        with pytest.raises(F.FockEngineError, match="batch of 3"):
            op(self.batch())

    @pytest.mark.parametrize("op, copies", [
        (lambda st: F.partial_trace(st, ["b"]), 1),
        (lambda st: F.tile(st, 2), 2),
    ], ids=["partial_trace", "tile"])
    def test_a_batch_operation_acts_on_each_element_alone(self, op, copies):
        # three elements that differ, then the operation on the batch and on
        # each element alone; a tile's copy c of element b is element c*3 + b
        batch = F.apply_beam_splitter(F.apply_phase(self.batch(), "a", np.array([0.0, 0.4, 2.1])),
                                      "a", "b", 0.3)
        got = op(batch)
        assert got.basis.batch == 3 * copies
        for b in range(3):
            single = element(batch, b)
            want = dense(F.partial_trace(single, ["b"]) if copies == 1 else single)
            for c in range(copies):
                assert np.array_equal(dense(element(got, c * 3 + b)), want)

    def test_survivals_must_match_the_batch(self):
        with pytest.raises(F.FockEngineError, match="2 survivals for a batch of 3"):
            F.apply_loss(self.batch(), "a", np.array([0.5, 0.9]))

    def test_phases_must_match_the_batch(self):
        with pytest.raises(F.FockEngineError, match="2 phases for a batch of 3"):
            F.apply_phase(self.batch(), "a", np.array([0.1, 0.2]))
