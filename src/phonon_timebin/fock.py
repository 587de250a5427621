"""Numerically truncated Fock-space density-matrix engine.

States live in an occupation-number basis with a per-mode cutoff ``n_max``
and an optional cap on the total quantum number.  The cap keeps multimode
protocol circuits tractable (the populated sector of every circuit here has
at most a few quanta) without touching single-mode physics.

Two-mode unitaries (beam splitter, two-mode squeeze) are built per conserved
ladder -- a+b for the beam splitter, a-b for the squeezer -- by exponentiating
the restricted anti-Hermitian generator, so they stay exactly unitary on the
truncated basis and preserve the trace; truncation shows up as amplitude
error confined to cutoff-adjacent states, not as trace leakage.

Loss and thermal channels are phase covariant, so they act as a set of
index-shift kernels rho[a,b] <- sum_d W_d[a,b] rho[a+d,b+d]; the thermal
kernel is extracted once per parameter set from an exact beam-splitter
coupling to a high-cutoff thermal ancilla.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from .core import OutcomeDistribution

HERMITICITY_TOL = 1e-12


class FockEngineError(ValueError):
    pass


@lru_cache(maxsize=64)
def _basis_arrays(n_modes: int, n_max: int, total_max: int) -> tuple[np.ndarray, dict]:
    occs = [o for o in itertools.product(range(n_max + 1), repeat=n_modes)
            if sum(o) <= total_max]
    arr = np.array(occs, dtype=np.int64)
    index = {tuple(o): i for i, o in enumerate(occs)}
    return arr, index


@lru_cache(maxsize=4096)
def _shift_table(n_modes: int, n_max: int, total_max: int, mode: int, delta: int) -> np.ndarray:
    occs, index = _basis_arrays(n_modes, n_max, total_max)
    out = np.full(len(occs), -1, dtype=np.int64)
    target = occs[:, mode] + delta
    ok = (target >= 0) & (target <= n_max)
    if delta > 0:
        ok &= occs.sum(axis=1) + delta <= total_max
    if ok.any():
        cand = occs[ok].copy()
        cand[:, mode] += delta
        out[np.flatnonzero(ok)] = [index[tuple(o)] for o in cand]
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FockBasis:
    n_modes: int
    n_max: int
    total_max: int

    @property
    def occs(self) -> np.ndarray:
        return _basis_arrays(self.n_modes, self.n_max, self.total_max)[0]

    @property
    def index(self) -> dict:
        return _basis_arrays(self.n_modes, self.n_max, self.total_max)[1]

    @property
    def dim(self) -> int:
        return len(self.occs)

    def shifted(self, mode: int, delta: int) -> np.ndarray:
        """Index of each basis state with n_mode += delta; -1 where invalid."""
        return _shift_table(self.n_modes, self.n_max, self.total_max, mode, delta)


class FockState:
    """Density matrix over a registered, ordered set of bosonic modes."""

    def __init__(self, modes: Sequence[str], basis: FockBasis, rho: np.ndarray):
        if len(set(modes)) != len(modes):
            raise FockEngineError("duplicate mode labels")
        self.modes = tuple(modes)
        self.basis = basis
        self.rho = rho

    # -- bookkeeping ------------------------------------------------------

    def mode_index(self, label: str) -> int:
        try:
            return self.modes.index(label)
        except ValueError:
            raise FockEngineError(f"mode {label!r} not registered") from None

    def copy(self) -> "FockState":
        return FockState(self.modes, self.basis, self.rho.copy())

    @property
    def n_max(self) -> int:
        return self.basis.n_max

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    @property
    def renorm_deficit(self) -> float:
        """1 - trace; nonzero only through numerical round-off because all
        channels here are trace preserving on the truncated basis."""
        return 1.0 - self.trace()

    def truncation_weight(self) -> float:
        """Population sitting on cutoff-boundary states; a cheap upper bound
        on how much the truncation can distort subsequent operations."""
        occs = self.basis.occs
        edge = (occs == self.n_max).any(axis=1) | (occs.sum(axis=1) == self.basis.total_max)
        return float(np.real(self.rho.diagonal()[edge].sum()))

    def check_hermitian(self, tol: float = HERMITICITY_TOL) -> None:
        dev = np.abs(self.rho - self.rho.conj().T).max()
        if dev > tol:
            raise FockEngineError(f"state not Hermitian: deviation {dev:g}")

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.rho + self.rho.conj().T) / 2.0).min())

    def mean_occupation(self, label: str) -> float:
        m = self.mode_index(label)
        return float(np.real(np.dot(self.basis.occs[:, m], self.rho.diagonal())))

    def save(self, path) -> None:
        # debugging aid, not a stability contract
        np.savez(path, modes=np.array(self.modes), n_max=self.n_max,
                 total_max=self.basis.total_max, rho=self.rho)

    @staticmethod
    def load(path) -> "FockState":
        data = np.load(path, allow_pickle=False)
        basis = FockBasis(len(data["modes"]), int(data["n_max"]), int(data["total_max"]))
        return FockState([str(m) for m in data["modes"]], basis, data["rho"])


# ---------------------------------------------------------------------------
# state construction


def init_vacuum(modes: Sequence[str], n_max: int, total_max: int | None = None) -> FockState:
    if n_max < 1:
        raise FockEngineError("n_max must be >= 1")
    basis = FockBasis(len(modes), n_max, len(modes) * n_max if total_max is None else total_max)
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho[0, 0] = 1.0
    return FockState(modes, basis, rho)


def thermal_weights(nbar: float, n_max: int) -> np.ndarray:
    """Truncated thermal distribution.  The geometric weights below the cutoff
    are kept exact and the tail mass is folded onto the top level, which keeps
    the trace and the vacuum weight (hence click probabilities) exact."""
    if nbar < 0:
        raise FockEngineError("thermal occupation must be >= 0")
    if nbar == 0.0:
        w = np.zeros(n_max + 1)
        w[0] = 1.0
        return w
    q = nbar / (nbar + 1.0)
    w = (1.0 - q) * q ** np.arange(n_max + 1)
    w[n_max] = 1.0 - w[:n_max].sum()
    return w


def init_thermal(
    modes: Sequence[str],
    n_max: int,
    occupations: float | Mapping[str, float],
    total_max: int | None = None,
) -> FockState:
    """Product state, thermal in the listed modes and vacuum elsewhere."""
    if isinstance(occupations, (int, float)):
        occupations = {m: float(occupations) for m in modes}
    basis = FockBasis(len(modes), n_max, len(modes) * n_max if total_max is None else total_max)
    per_mode = [thermal_weights(occupations.get(m, 0.0), n_max) for m in modes]
    diag = np.ones(basis.dim)
    for i, w in enumerate(per_mode):
        diag = diag * w[basis.occs[:, i]]
    diag = diag / diag.sum()  # total-cap fold-in, exact trace
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    np.fill_diagonal(rho, diag)
    return FockState(modes, basis, rho)


def add_vacuum_mode(state: FockState, label: str) -> FockState:
    new = FockState(
        state.modes + (label,),
        FockBasis(len(state.modes) + 1, state.n_max, state.basis.total_max),
        None,  # type: ignore[arg-type]
    )
    rho = np.zeros((new.basis.dim, new.basis.dim), dtype=complex)
    idx = new.basis.index
    mapping = np.array([idx[tuple(o) + (0,)] for o in state.basis.occs])
    rho[np.ix_(mapping, mapping)] = state.rho
    new.rho = rho
    return new


def partial_trace(state: FockState, keep: Sequence[str]) -> FockState:
    keep = list(keep)
    keep_pos = [state.mode_index(m) for m in keep]
    drop_pos = [i for i in range(len(state.modes)) if i not in keep_pos]
    new_basis = FockBasis(len(keep), state.n_max, state.basis.total_max)
    out = np.zeros((new_basis.dim, new_basis.dim), dtype=complex)
    occs = state.basis.occs
    rem_idx = np.array([new_basis.index[tuple(o)] for o in occs[:, keep_pos]])
    drop_occ = occs[:, drop_pos]
    # group basis indices by the traced-out occupations and accumulate blocks
    order = np.lexsort(drop_occ.T[::-1]) if drop_pos else np.arange(len(occs))
    sorted_drop = drop_occ[order]
    boundaries = np.flatnonzero(np.any(sorted_drop[1:] != sorted_drop[:-1], axis=1)) + 1
    for grp in np.split(order, boundaries):
        r = rem_idx[grp]
        out[np.ix_(r, r)] += state.rho[np.ix_(grp, grp)]
    return FockState(keep, new_basis, out)


# ---------------------------------------------------------------------------
# two-mode unitaries


def _ladder_unitary_bs(s: int, a_lo: int, a_hi: int, theta: float, phi: float) -> np.ndarray:
    """exp(theta(e^{i phi} a†b - e^{-i phi} a b†)) restricted to the a+b=s
    ladder with a in [a_lo, a_hi]."""
    size = a_hi - a_lo + 1
    g = np.zeros((size, size), dtype=complex)
    for k in range(size - 1):
        a = a_lo + k  # coupling |a, s-a> -> |a+1, s-a-1>
        amp = theta * math.sqrt((a + 1) * (s - a))
        g[k + 1, k] = amp * np.exp(1j * phi)
        g[k, k + 1] = -amp * np.exp(-1j * phi)
    return expm(g)


def _ladder_unitary_tms(d: int, a_lo: int, a_hi: int, r: float, phi: float) -> np.ndarray:
    """exp(r(e^{i phi} a†b† - e^{-i phi} a b)) restricted to the a-b=d ladder."""
    size = a_hi - a_lo + 1
    g = np.zeros((size, size), dtype=complex)
    for k in range(size - 1):
        a = a_lo + k  # coupling |a, a-d> -> |a+1, a-d+1>
        amp = r * math.sqrt((a + 1) * (a - d + 1))
        g[k + 1, k] = amp * np.exp(1j * phi)
        g[k, k + 1] = -amp * np.exp(-1j * phi)
    return expm(g)


def _apply_two_mode(state: FockState, mode_a: str, mode_b: str,
                    kind: str, p1: float, p2: float) -> FockState:
    i, j = state.mode_index(mode_a), state.mode_index(mode_b)
    basis = state.basis
    occs = basis.occs
    a, b = occs[:, i], occs[:, j]
    rest_total = occs.sum(axis=1) - a - b
    invariant = a + b if kind == "bs" else a - b

    # group indices into ladders: same rest occupations and same invariant,
    # sorted by a within each ladder (lexsort: last key is primary)
    rest = np.delete(occs, (i, j), axis=1)
    keys = np.column_stack([rest, invariant])
    order = np.lexsort(np.column_stack([a, keys]).T)
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)) + 1

    rows, cols, vals = [], [], []
    cache: dict = {}
    for grp in np.split(order, boundaries):
        a_lo, a_hi = int(a[grp[0]]), int(a[grp[-1]])
        key = (int(invariant[grp[0]]), a_lo, a_hi)
        u = cache.get(key)
        if u is None:
            if kind == "bs":
                u = _ladder_unitary_bs(key[0], a_lo, a_hi, p1, p2)
            else:
                u = _ladder_unitary_tms(key[0], a_lo, a_hi, p1, p2)
            cache[key] = u
        gi = np.asarray(grp)
        rows.append(np.repeat(gi, len(gi)))
        cols.append(np.tile(gi, len(gi)))
        vals.append(u.ravel())
    U = sp.csr_matrix(
        (np.concatenate(vals).astype(complex),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
    )
    tmp = U @ state.rho
    rho = (U.conj() @ tmp.T).T  # (U* rho^T U^T)^T = U rho U†, no Hermiticity assumed
    return FockState(state.modes, basis, rho)


def apply_beam_splitter(state: FockState, mode_a: str, mode_b: str,
                        transmissivity: float, phase: float = 0.0) -> FockState:
    """a' = cos(t) a + e^{i phi} sin(t) b,  b' = -e^{-i phi} sin(t) a + cos(t) b,
    with cos^2(t) = transmissivity."""
    if not 0.0 <= transmissivity <= 1.0:
        raise FockEngineError("transmissivity must be in [0, 1]")
    theta = math.acos(min(1.0, math.sqrt(transmissivity)))
    if theta == 0.0:
        return state.copy()
    return _apply_two_mode(state, mode_a, mode_b, "bs", theta, phase)


def apply_two_mode_squeeze(state: FockState, optical_mode: str, mech_mode: str,
                           p: float, phase: float = 0.0) -> FockState:
    """Pair creation with probability p = tanh^2(r); on vacuum this puts
    amplitude sqrt(1-p) p^{n/2} e^{i n phase} on |n, n>."""
    if not 0.0 <= p < 1.0:
        raise FockEngineError("scattering probability must be in [0, 1)")
    if p == 0.0:
        return state.copy()
    r = math.atanh(math.sqrt(p))
    return _apply_two_mode(state, optical_mode, mech_mode, "tms", r, phase)


def apply_phase(state: FockState, mode: str, phi: float) -> FockState:
    m = state.mode_index(mode)
    d = np.exp(1j * phi * state.basis.occs[:, m])
    return FockState(state.modes, state.basis, state.rho * np.outer(d, d.conj()))


# ---------------------------------------------------------------------------
# phase-covariant channels (loss, thermal noise)


@lru_cache(maxsize=256)
def _loss_kernels(n_max: int, survival: float) -> tuple[np.ndarray, ...]:
    """W_d[a, b] such that rho'[a,b] = sum_d W_d[a,b] rho[a+d, b+d]."""
    n = np.arange(n_max + 1)
    kernels = []
    for d in range(n_max + 1):
        binom = np.array([math.comb(x + d, d) for x in n], dtype=float)
        amp = np.sqrt(binom) * (1.0 - survival) ** (d / 2.0) * survival ** (n / 2.0)
        kernels.append(np.outer(amp, amp))
    return tuple(kernels)


@lru_cache(maxsize=256)
def _thermal_kernels(n_max: int, survival: float, n_env: float) -> dict[int, np.ndarray]:
    """Shift kernels of the thermal attenuator channel, extracted from an
    exact beam-splitter coupling to a thermal ancilla with a cutoff deep in
    the tail (weight < 1e-13)."""
    if n_env == 0.0:
        return {d: k for d, k in enumerate(_loss_kernels(n_max, survival))}
    q = n_env / (n_env + 1.0)
    anc_max = max(4, int(math.ceil(math.log(1e-13) / math.log(q))))
    anc_max = min(anc_max, 400)
    pw = (1.0 - q) * q ** np.arange(anc_max + 1)
    pw[-1] = 1.0 - pw[:-1].sum()

    theta = math.acos(min(1.0, math.sqrt(survival)))
    c, s = math.cos(theta), math.sin(theta)
    d_sys = n_max + 1

    # Heisenberg amplitudes <a', k | U | m, l> on each a'+k = m+l ladder
    @lru_cache(maxsize=None)
    def block(total: int) -> np.ndarray:
        lo = max(0, total - anc_max)
        hi = min(n_max, total)
        size = hi - lo + 1
        g = np.zeros((size, size))
        for k in range(size - 1):
            a = lo + k
            g[k + 1, k] = theta * math.sqrt((a + 1) * (total - a))
            g[k, k + 1] = -g[k + 1, k]
        return expm(g), lo

    kernels: dict[int, np.ndarray] = {
        delta: np.zeros((d_sys, d_sys)) for delta in range(-n_max, n_max + 1)}
    # T[(a,b),(m,n)] = sum_l P(l) sum_k <a,k|U|m,l> <b,k|U|n,l>, nonzero only
    # on equal shifts d = m-a = n-b (phase covariance)
    for l in range(anc_max + 1):
        weight = pw[l]
        if weight < 1e-16:
            continue
        for m in range(d_sys):
            u, lo = block(m + l)
            col = u[:, m - lo]  # amplitudes onto |a, m+l-a>
            for n in range(d_sys):
                u2, lo2 = block(n + l)
                col2 = u2[:, n - lo2]
                for ka, amp_a in enumerate(col):
                    a = lo + ka
                    k = m + l - a  # surviving ancilla occupation
                    b = n + l - k
                    if lo2 <= b <= lo2 + len(col2) - 1 and abs(m - a) <= n_max:
                        kernels[m - a][a, b] += weight * amp_a * col2[b - lo2]
    return kernels


def _apply_shift_kernels(state: FockState, mode: str, kernels: Mapping[int, np.ndarray]) -> FockState:
    m = state.mode_index(mode)
    basis = state.basis
    occ = basis.occs[:, m]
    out = np.zeros_like(state.rho)
    # population weight each source actually transfers; gain transitions whose
    # destination falls outside the capped basis are treated as no-ops below
    applied = np.zeros(basis.dim)
    for d, W in kernels.items():
        if not np.any(W):
            continue
        if d == 0:
            out += W[occ[:, None], occ[None, :]] * state.rho
            applied += W.diagonal()[occ]
            continue
        src = basis.shifted(m, d)
        valid = np.flatnonzero(src >= 0)
        if len(valid) == 0:
            continue
        sv = src[valid]
        block = state.rho[sv[:, None], sv[None, :]]
        ov = occ[valid]
        out[valid[:, None], valid[None, :]] += W[ov[:, None], ov[None, :]] * block
        applied[sv] += W.diagonal()[ov]
    clipped = 1.0 - applied
    mask = clipped > 1e-15
    if np.any(mask):
        idx = np.flatnonzero(mask)
        out[idx, idx] += clipped[idx] * np.real(state.rho[idx, idx])
    return FockState(state.modes, basis, out)


def _diag_shift_apply(diag: np.ndarray, basis: FockBasis, mode: int,
                      kernels: Mapping[int, np.ndarray]) -> np.ndarray:
    """Populations of a phase-covariant channel: the diagonal maps to itself
    independently of coherences, at O(dim * shifts)."""
    occ = basis.occs[:, mode]
    out = np.zeros_like(diag)
    applied = np.zeros(basis.dim)
    for d, W in kernels.items():
        wd = W.diagonal()
        if not np.any(wd):
            continue
        src = basis.shifted(mode, d)
        valid = src >= 0
        out[valid] += wd[occ[valid]] * diag[src[valid]]
        applied[src[valid]] += wd[occ[valid]]
    out += (1.0 - applied) * diag
    return out


def apply_loss(state: FockState, mode: str, survival: float) -> FockState:
    """Beam splitter to a vacuum ancilla plus trace: the standard CPTP loss."""
    if not 0.0 <= survival <= 1.0:
        raise FockEngineError("survival must be in [0, 1]")
    if survival == 1.0:
        return state.copy()
    kernels = {d: k for d, k in enumerate(_loss_kernels(state.n_max, survival))}
    return _apply_shift_kernels(state, mode, kernels)


def apply_thermal_loss(state: FockState, mode: str, survival: float, n_env: float) -> FockState:
    """Attenuation towards a thermal environment with occupation n_env."""
    if not 0.0 <= survival <= 1.0:
        raise FockEngineError("survival must be in [0, 1]")
    if n_env < 0:
        raise FockEngineError("n_env must be >= 0")
    if survival == 1.0:
        return state.copy()
    return _apply_shift_kernels(state, mode, _thermal_kernels(state.n_max, survival, n_env))


def apply_thermal_noise(state: FockState, mode: str, delta_n: float,
                        epsilon: float = 0.01) -> FockState:
    """Add delta_n of thermal occupancy through a weak thermal-loss channel
    (survival 1 - epsilon against an environment at delta_n / epsilon)."""
    if delta_n < 0:
        raise FockEngineError("delta_n must be >= 0")
    if delta_n == 0.0:
        return state.copy()
    return apply_thermal_loss(state, mode, 1.0 - epsilon, delta_n / epsilon)


# ---------------------------------------------------------------------------
# threshold detection


def _click_codes(state: FockState, detector_map: Mapping[str, Sequence[str]]) -> np.ndarray:
    """Click-pattern code of every basis state, detector 0 the most
    significant bit (the OutcomeDistribution order)."""
    occs = state.basis.occs
    n = len(detector_map)
    codes = np.zeros(state.basis.dim, dtype=np.int64)
    for k, modes in enumerate(detector_map.values()):
        cols = [state.mode_index(m) for m in modes]
        codes |= (occs[:, cols].sum(axis=1) > 0).astype(np.int64) << (n - 1 - k)
    return codes


def _with_efficiency(state: FockState, detector_map: Mapping[str, Sequence[str]],
                     efficiency: Mapping[str, float] | float | None) -> FockState:
    if efficiency is None:
        return state
    out = state
    for det, modes in detector_map.items():
        eta = efficiency if isinstance(efficiency, (int, float)) else efficiency.get(det, 1.0)
        if eta < 1.0:
            for m in modes:
                out = apply_loss(out, m, eta)
    return out


def click_distribution(
    state: FockState,
    detector_map: Mapping[str, Sequence[str]],
    efficiency: Mapping[str, float] | float | None = None,
) -> OutcomeDistribution:
    """Exact probabilities of every click pattern.  A detector clicks when
    at least one quantum survives the efficiency loss on any of its modes.

    Both the efficiency loss and the threshold POVM are diagonal-covariant,
    so this works on the populations alone."""
    diag = np.real(state.rho.diagonal()).copy()
    if efficiency is not None:
        for det, modes in detector_map.items():
            eta = efficiency if isinstance(efficiency, (int, float)) else efficiency.get(det, 1.0)
            if eta < 1.0:
                kern = {d: k for d, k in enumerate(_loss_kernels(state.n_max, eta))}
                for m in modes:
                    diag = _diag_shift_apply(diag, state.basis, state.mode_index(m), kern)
    sums = np.bincount(_click_codes(state, detector_map), weights=diag,
                       minlength=1 << len(detector_map))
    return OutcomeDistribution(tuple(detector_map), sums)


def measure_threshold(
    state: FockState,
    detector_map: Mapping[str, Sequence[str]],
    efficiency: Mapping[str, float] | float | None = None,
) -> list[tuple[int, float, FockState]]:
    """Threshold-measure the mapped modes and return, per click-pattern code
    with nonzero probability, that probability and the conditioned state on
    the remaining modes."""
    work = _with_efficiency(state, detector_map, efficiency)
    codes = _click_codes(work, detector_map)
    measured = sorted({m for modes in detector_map.values() for m in modes},
                      key=work.modes.index)
    keep = [m for m in work.modes if m not in measured]
    probs = np.bincount(codes, weights=np.real(work.rho.diagonal()))
    branches = []
    for code in np.flatnonzero(probs > 0.0):
        sel = np.flatnonzero(codes == code)
        sub = FockState(work.modes, work.basis, np.zeros_like(work.rho))
        sub.rho[np.ix_(sel, sel)] = work.rho[np.ix_(sel, sel)]
        reduced = partial_trace(sub, keep)
        reduced.rho /= probs[code]
        branches.append((int(code), float(probs[code]), reduced))
    return branches
