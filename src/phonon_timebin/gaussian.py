"""Covariance-matrix engine for the circuit vocabulary of the Fock engine,
under the same names (``apply_two_mode_squeeze``, ``apply_beam_splitter``,
``apply_phase``, ``apply_loss``, ``apply_thermal_loss``), with
determinant-based threshold-click probabilities.  Each gate is one local
update by its small symplectic matrix.

Conventions: hbar = 1, quadrature ordering (x1, p1, x2, p2, ...), vacuum
covariance = I/2.  Means are identically zero here -- the vocabulary has no
displacement, so no state stores one -- which keeps the vacuum-probability
formula P0(S) = 1/sqrt(det(sigma_S + I/2)) displacement-free.

A state may carry a leading batch axis: ``sigma`` of shape (B, 2N, 2N)
holds B states over the same modes, and a gate given a (B,) array of
phase angles turns a single state into a batch.  Every gate rewrites only
the rows and columns of the modes it acts on.

The labels of all 2**n detector subsets are cached per tuple of detector
groups.  ``click_probabilities`` makes one ``vacuum_probability`` call per
subset through the module's global name on purpose: ``perfbench/tests``
pins those calls (ROADMAP item 2).  The protocol runs one batched
transform per config, over the phases of its series in Phi.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .core import NEGATIVE_MASS_TOL, OutcomeDistribution

SYMMETRY_TOL = 1e-12


class GaussianEngineError(ValueError):
    pass


def _rot(phi) -> np.ndarray:
    """Rotation by phi; a (B,) array of angles gives a (B, 2, 2) stack."""
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def symplectic_form(n_modes: int) -> np.ndarray:
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


class CovarianceState:
    """Zero-mean Gaussian state over an ordered registry of modes."""

    def __init__(self, modes: Sequence[str], sigma: np.ndarray | None = None):
        if len(set(modes)) != len(modes):
            raise GaussianEngineError("duplicate mode labels")
        self.modes = tuple(modes)
        if sigma is None:
            sigma = 0.5 * np.eye(2 * len(self.modes))
        self.sigma = np.asarray(sigma, dtype=float)

    def mode_index(self, label: str) -> int:
        try:
            return self.modes.index(label)
        except ValueError:
            raise GaussianEngineError(f"mode {label!r} not registered") from None

    def block(self, label: str) -> np.ndarray:
        k = 2 * self.mode_index(label)
        return self.sigma[..., k:k + 2, k:k + 2]

    def mean_occupation(self, label: str):
        """Mean quanta in ``label``: a float, or a (B,) array for a batch."""
        blk = self.block(label)
        return 0.5 * (blk[..., 0, 0] + blk[..., 1, 1] - 1.0)

    def check_valid(self, tol: float = 1e-10) -> None:
        """Raise unless sigma (every element of a batch) is symmetric and
        obeys the uncertainty relation sigma + i Omega/2 >= 0."""
        if np.abs(self.sigma - np.swapaxes(self.sigma, -1, -2)).max() > SYMMETRY_TOL:
            raise GaussianEngineError("covariance not symmetric")
        omega = symplectic_form(len(self.modes))
        eig = np.linalg.eigvalsh(self.sigma + 0.5j * omega)
        if eig.min() < -tol:
            raise GaussianEngineError(f"uncertainty relation violated: {eig.min():g}")


def vacuum_state(modes: Sequence[str]) -> CovarianceState:
    return CovarianceState(modes)


def thermal_state(modes: Sequence[str], occupations: float | Mapping[str, float]) -> CovarianceState:
    if isinstance(occupations, (int, float)):
        occupations = {m: float(occupations) for m in modes}
    diag = []
    for m in modes:
        n = occupations.get(m, 0.0)
        if n < 0:
            raise GaussianEngineError("thermal occupation must be >= 0")
        diag += [n + 0.5, n + 0.5]
    return CovarianceState(modes, np.diag(diag))


def add_vacuum_mode(state: CovarianceState, label: str) -> CovarianceState:
    n = 2 * len(state.modes)
    sigma = np.zeros(state.sigma.shape[:-2] + (n + 2, n + 2))
    sigma[..., :n, :n] = state.sigma
    sigma[..., n, n] = sigma[..., n + 1, n + 1] = 0.5
    return CovarianceState(state.modes + (label,), sigma)


def _quadratures(state: CovarianceState, labels: Sequence[str]) -> list[int]:
    return [q for m in labels for q in (2 * state.mode_index(m), 2 * state.mode_index(m) + 1)]


# ---------------------------------------------------------------------------
# symplectic operations


def beam_splitter_symplectic(transmissivity: float, phase=0.0) -> np.ndarray:
    if not 0.0 <= transmissivity <= 1.0:
        raise GaussianEngineError("transmissivity must be in [0, 1]")
    theta = math.acos(min(1.0, math.sqrt(transmissivity)))
    c, s = math.cos(theta), math.sin(theta)
    R = _rot(phase)
    S = np.zeros(R.shape[:-2] + (4, 4))
    S[..., :2, :2] = S[..., 2:, 2:] = c * np.eye(2)
    S[..., :2, 2:] = s * R
    S[..., 2:, :2] = -s * np.swapaxes(R, -1, -2)
    return S


def squeeze_symplectic(p: float, phase=0.0) -> np.ndarray:
    if not 0.0 <= p < 1.0:
        raise GaussianEngineError("scattering probability must be in [0, 1)")
    r = math.atanh(math.sqrt(p))
    ch, sh = math.cosh(r), math.sinh(r)
    off = sh * _rot(phase) * [1.0, -1.0]  # [[c, s], [s, -c]]
    S = np.zeros(off.shape[:-2] + (4, 4))
    S[..., :2, :2] = S[..., 2:, 2:] = ch * np.eye(2)
    S[..., :2, 2:] = S[..., 2:, :2] = off
    return S


def _local_update(state: CovarianceState, idx: list[int], S: np.ndarray) -> CovarianceState:
    """S_full sigma S_full^T for the S_full that acts as ``S`` on the
    quadratures ``idx`` and as the identity elsewhere: only those rows and
    columns change.  A stacked ``S`` broadcasts the state to its batch."""
    sigma = state.sigma
    batch = np.broadcast_shapes(sigma.shape[:-2], S.shape[:-2])
    out = np.empty(batch + sigma.shape[-2:])
    out[...] = sigma
    out[..., idx, :] = S @ out[..., idx, :]
    out[..., :, idx] = out[..., :, idx] @ np.swapaxes(S, -1, -2)
    return CovarianceState(state.modes, out)


def apply_phase(state: CovarianceState, mode: str, phi) -> CovarianceState:
    # |n> -> e^{i n phi} |n>, i.e. a -> a e^{i phi}: a rotation by phi
    return _local_update(state, _quadratures(state, [mode]), _rot(phi))


def apply_beam_splitter(state: CovarianceState, mode_a: str, mode_b: str,
                        transmissivity: float, phase: float = 0.0) -> CovarianceState:
    return _local_update(state, _quadratures(state, [mode_a, mode_b]),
                         beam_splitter_symplectic(transmissivity, phase))


def apply_two_mode_squeeze(state: CovarianceState, optical_mode: str, mech_mode: str,
                           p: float, phase: float = 0.0) -> CovarianceState:
    return _local_update(state, _quadratures(state, [optical_mode, mech_mode]),
                         squeeze_symplectic(p, phase))


def apply_thermal_loss(state: CovarianceState, mode: str, survival: float,
                       n_env: float = 0.0) -> CovarianceState:
    """sigma_mode -> eta sigma_mode + (1-eta)(n_env + 1/2) I, cross blocks
    scaled by sqrt(eta)."""
    if not 0.0 <= survival <= 1.0:
        raise GaussianEngineError("survival must be in [0, 1]")
    if n_env < 0:
        raise GaussianEngineError("n_env must be >= 0")
    sigma = state.sigma.copy()
    _thermal_loss_in_place(sigma, 2 * state.mode_index(mode), survival, n_env)
    return CovarianceState(state.modes, sigma)


def _thermal_loss_in_place(sigma: np.ndarray, k: int, survival: float, n_env: float) -> None:
    """The thermal loss on the mode whose quadratures start at row k."""
    eta = math.sqrt(survival)
    sigma[..., k:k + 2, :] *= eta
    sigma[..., :, k:k + 2] *= eta
    sigma[..., k, k] += (1.0 - survival) * (n_env + 0.5)
    sigma[..., k + 1, k + 1] += (1.0 - survival) * (n_env + 0.5)


def apply_loss(state: CovarianceState, mode: str, survival: float) -> CovarianceState:
    return apply_thermal_loss(state, mode, survival, 0.0)


# ---------------------------------------------------------------------------
# threshold detection


@lru_cache(maxsize=16)
def _subsets(groups: tuple[tuple[str, ...], ...]) -> tuple[tuple[str, ...], ...]:
    """The modes of each subset q of the detector ``groups``, group k in it
    when bit n-1-k of q is set (group 0 the most significant bit, as in
    OutcomeDistribution), so the last subset is every detected mode in
    order.  A mode listed twice raises: it would enter a determinant twice."""
    modes = [m for group in groups for m in group]
    repeated = [m for k, m in enumerate(modes) if m in modes[:k]]
    if repeated:
        raise GaussianEngineError(f"mode {repeated[0]!r} is listed twice in the detector map")
    n = len(groups)
    return tuple(tuple(m for k, group in enumerate(groups) if q >> (n - 1 - k) & 1
                       for m in group) for q in range(1 << n))


@lru_cache(maxsize=16)
def _half_identity(size: int) -> np.ndarray:
    half = 0.5 * np.eye(size)
    half.flags.writeable = False
    return half


def vacuum_probability(state: CovarianceState, labels: Sequence[str]):
    """P(no click on the given modes) = 1/sqrt(det(sigma_S + I/2)): a float,
    or a (B,) array from one stacked Cholesky factorisation for a batch."""
    batch = state.sigma.shape[:-2]
    if not labels:
        return np.ones(batch) if batch else 1.0
    sel = np.array(_quadratures(state, labels), dtype=int)
    red = state.sigma[..., sel[:, None], sel]
    red += _half_identity(len(sel))
    try:
        chol = np.linalg.cholesky(red)
    except np.linalg.LinAlgError:
        raise GaussianEngineError(
            "non-positive-definite sigma + I/2: invalid state") from None
    p0 = 1.0 / chol.diagonal(0, -2, -1).prod(-1)
    return p0 if batch else float(p0)


def detected_modes(
    state: CovarianceState,
    detector_map: Mapping[str, Sequence[str]],
    efficiency: Mapping[str, float] | float | None = None,
) -> CovarianceState:
    """The block of ``state`` over the modes of ``detector_map``, in order,
    with each detector's efficiency applied in place as
    ``apply_thermal_loss`` would apply it.  A detector that an efficiency
    mapping leaves out has efficiency 1; a key of it that names no detector
    raises, and so does a mode listed twice."""
    if isinstance(efficiency, Mapping):
        unknown = [det for det in efficiency if det not in detector_map]
        if unknown:
            raise GaussianEngineError(
                f"efficiency for no detector: {', '.join(map(repr, unknown))}")
    groups = tuple(map(tuple, detector_map.values()))
    modes = _subsets(groups)[-1]
    sel = np.array(_quadratures(state, modes), dtype=int)
    block = CovarianceState(modes, state.sigma[..., sel[:, None], sel])
    start = 0  # the block's first row of the detector's modes
    for det, group in zip(detector_map, groups):
        eta = 1.0 if efficiency is None else (
            efficiency if isinstance(efficiency, (int, float)) else efficiency.get(det, 1.0))
        if not 0.0 <= eta <= 1.0:
            raise GaussianEngineError(
                f"efficiency of detector {det!r} must be in [0, 1], got {eta!r}")
        if eta < 1.0:
            for k in range(start, start + 2 * len(group), 2):
                _thermal_loss_in_place(block.sigma, k, eta, 0.0)
        start += 2 * len(group)
    return block


def click_probabilities(
    state: CovarianceState,
    detector_map: Mapping[str, Sequence[str]],
    efficiency: Mapping[str, float] | float | None = None,
) -> OutcomeDistribution:
    """Exact threshold-click pattern probabilities from the vacuum
    probabilities of all 2**n detector subsets, combined by a superset
    Moebius transform in O(n 2**n) (exponential in detector count, which is
    small), on the ``detected_modes`` block.  A pattern total below
    -NEGATIVE_MASS_TOL raises; round-off above it is zeroed.  A batched state
    gives one (B, 2**n) distribution, a row per element, and any invalid
    element raises."""
    work = detected_modes(state, detector_map, efficiency)
    detectors = tuple(detector_map)
    n = len(detectors)
    batch = work.sigma.shape[:-2]
    # quiet[..., q] = P(no click on the detectors set in q, the rest
    # unconstrained); detector 0 is the most significant bit, as in
    # OutcomeDistribution
    quiet = np.empty(batch + (1 << n,))
    for q, labels in enumerate(_subsets(tuple(map(tuple, detector_map.values())))):
        quiet[..., q] = vacuum_probability(work, labels)
    # superset Moebius inversion: quiet[q] becomes P(exactly the set q is quiet)
    for k in range(n):
        v = quiet.reshape(batch + (1 << k, 2, -1))
        v[..., 0, :] -= v[..., 1, :]
    # a click pattern's quiet set is its complement
    return OutcomeDistribution(detectors, checked_probabilities(quiet[..., ::-1]))


def checked_probabilities(probs: np.ndarray) -> np.ndarray:
    """(..., 2**n) pattern probabilities with round-off negatives zeroed and
    each row renormalised.  An entry below -NEGATIVE_MASS_TOL, or a row
    total more than 1e-9 off 1, raises."""
    if probs.min() < -NEGATIVE_MASS_TOL:
        raise GaussianEngineError(
            f"negative click-pattern probability {probs.min():.3g}: invalid state")
    probs = np.maximum(probs, 0.0)
    norm = probs.sum(axis=-1, keepdims=True)
    off = np.abs(norm - 1.0) > 1e-9
    if off.any():
        raise GaussianEngineError(f"pattern probabilities sum to {norm[off][0]!r}")
    return probs / norm
