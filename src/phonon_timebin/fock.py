"""Numerically truncated Fock-space density-matrix engine.

States live in an occupation-number basis with a per-mode cutoff ``n_max``
and an optional cap on the total quantum number.  The cap keeps multimode
protocol circuits tractable (the populated sector of every circuit here has
at most a few quanta) without touching single-mode physics.  Basis states
are enumerated ascending in the mixed-radix occupation code (the order of
``itertools.product``), so the index of any occupation is a
``searchsorted`` over those codes.

The density matrix is stored as its nonzero entries (``FockState.rho`` is
an ``Entries`` of row, column and value arrays, each (row, column) pair at
most once, in no set order), in NumPy alone, and every operation works on
the stored entries only; no gate ever couples entries outside the support
it is given.  Where an operation makes a pair more than once, one sort of
the pairs' keys, with each entry's position packed below its key, groups
them and ``np.bincount`` sums them in input order.

A state may be a batch of B density matrices over one basis, stored as one
block-diagonal matrix (``tile``): the element index is the most
significant digit of the basis code, so the occupation table, the codes and
the shift tables tile across the blocks and every gate, phase, channel and
click read-out acts on all elements in one pass.  Gates, phases and channels
act on each element exactly as they would on that element alone; for that
a two-mode gate sends a one-row product down the multi-row BLAS route too.
The click read-out is one matrix product over the batch, so a lone state's
distribution can differ from the same element's row in a batch by BLAS
rounding (up to 3.3e-16 measured, on timebin_entanglement's read stage).
A phase may differ per element; click distributions come out as (B, 2**n)
and the health figures report the worst element.  A batch of one is an
ordinary state.  A threshold measurement takes one state and returns its
click branches as such a batch, which partial traces, loss channels of one
survival per element and ``tile`` carry on, each element alone.

Two-mode unitaries (beam splitter, two-mode squeeze) are built per conserved
ladder -- a+b for the beam splitter, a-b for the squeezer -- by exponentiating
the restricted anti-Hermitian generator, so they stay exactly unitary on the
truncated basis and preserve the trace; truncation shows up as amplitude
error confined to cutoff-adjacent states, not as trace leakage.  The ladder
layout is cached per (basis, modes, kind): one ``np.unique`` over the basis
codes, with the gate's two digits replaced by the invariant, names each
ladder; a state's position in it is a - a_lo; and the ladders are numbered
so that those sharing a unitary (the same invariant and length) are
contiguous.  Each call exponentiates all distinct ladders at once, through
one batched Hermitian eigendecomposition of i times their generators, and
forms U rho U† as U (U rho)†, rho being Hermitian, so one product runs
twice: it gathers the entries of each (row ladder, column) pair into a
vector over the ladder, multiplies each distinct unitary's vectors in one
BLAS product, and gives every state of the ladder an entry, so no pair
repeats.  The result is Hermitian too, so the gate computes only its blocks
on and below the block diagonal of the ladders, from rho's blocks on and
above it, and adds the conjugate transposes of those below.  It runs over
chunks of whole column ladders (``GATE_CHUNK_ENTRIES`` input entries each),
whose outputs are disjoint, which bounds its temporaries.

Loss and thermal channels are phase covariant, so they act as a set of
index-shift kernels rho[a,b] <- sum_d W_d[a,b] rho[a+d,b+d].  One pass over
all nonzero shifts moves every stored entry to its shifted indices with its
kernel weight, shift by shift in ascending order, and duplicates are
summed.  Each (basis, mode) has one cached table of every basis state's
shifted index at every shift in [-n_max, n_max], from one ``searchsorted``.
The thermal kernel is extracted once per parameter set from an
exact beam-splitter coupling to a high-cutoff thermal ancilla.  A phase
rescales the entries, and adding a vacuum mode or tracing modes out remaps
their indices.

Threshold detection with efficiency eta is the diagonal POVM whose quiet
element on a detector is sum_n (1-eta)^n |n><n| over its total count n
(Quesada et al., PRA 98, 062322, 2018), so no loss channel runs first: every
basis state gets a weight per click pattern, click distributions are the
diagonal times that weight matrix, and a conditioned state keeps the
entries whose measured occupations agree, each weighted by its pattern,
traced over the measured modes.  An efficiency outside [0, 1] raises.

Only the diagonal reaches a click, and each gate conserves a charge of
both row and column: a beam splitter n_a + n_b, a squeezer n_a - n_b, and
loss, thermal loss and phases every mode's own n.  So ``prune_coherences``
drops the entries whose row and column differ in a charge that the
two-mode gates still to run conserve; those entries never feed the
diagonal, and the kept ones evolve bit for bit as they would unpruned.
Channels and phases keep every mode's row-column difference, so a prune
after one drops nothing: only a two-mode gate, once it has run, changes
what can go.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .core import OutcomeDistribution

#: population on cutoff-boundary states above which a run is flagged as
#: distorted by the truncation
TRUNCATION_WEIGHT_LIMIT = 1e-2


class FockEngineError(ValueError):
    pass


@lru_cache(maxsize=64)
def _basis_arrays(n_modes: int, n_max: int, total_max: int,
                  batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupation rows and their mixed-radix codes, ascending; a batch tiles
    them with the element index as the most significant digit."""
    if batch > 1:
        occs, codes = _basis_arrays(n_modes, n_max, total_max, 1)
        offsets = np.arange(batch, dtype=np.int64)[:, None] * (n_max + 1) ** n_modes
        return np.tile(occs, (batch, 1)), (offsets + codes).ravel()
    occs = np.zeros((1, 0), dtype=np.int64)
    digits = np.arange(n_max + 1, dtype=np.int64)
    for _ in range(n_modes):
        # every row grows by one less significant digit, which keeps the
        # codes ascending; rows over the cap go before the next mode
        occs = np.column_stack([np.repeat(occs, n_max + 1, axis=0), np.tile(digits, len(occs))])
        occs = occs[occs.sum(axis=1) <= total_max]
    return occs, occs @ _radix(n_modes, n_max)


def _radix(n_modes: int, n_max: int) -> np.ndarray:
    return (n_max + 1) ** np.arange(n_modes - 1, -1, -1, dtype=np.int64)


@dataclass(frozen=True)
class FockBasis:
    """The capped occupation basis of ``n_modes`` modes, ``batch`` times
    over: ``occs`` and ``dim`` span every element, ``rank`` addresses one
    element."""
    n_modes: int
    n_max: int
    total_max: int
    batch: int = 1

    @property
    def occs(self) -> np.ndarray:
        return _basis_arrays(self.n_modes, self.n_max, self.total_max, self.batch)[0]

    @property
    def dim(self) -> int:
        return len(self.occs)

    def rank(self, occs: np.ndarray) -> np.ndarray:
        """Index of each occupation row within one element (all rows must be
        in the basis)."""
        codes = _basis_arrays(self.n_modes, self.n_max, self.total_max, 1)[1]
        return np.searchsorted(codes, occs @ _radix(self.n_modes, self.n_max))

    def shifted(self, mode: int, delta: int) -> np.ndarray:
        """Index of each basis state with n_mode += delta; -1 where invalid."""
        if abs(delta) > self.n_max:
            return np.full(self.dim, -1, dtype=np.int64)
        return _shift_tables(self, mode)[self.n_max + delta]


@lru_cache(maxsize=256)
def _shift_tables(basis: FockBasis, mode: int) -> np.ndarray:
    """(2 n_max + 1, dim): row n_max + delta is ``basis.shifted(mode,
    delta)``, all rows from one ``searchsorted``."""
    occs, codes = _basis_arrays(basis.n_modes, basis.n_max, basis.total_max, basis.batch)
    delta = np.arange(-basis.n_max, basis.n_max + 1)[:, None]
    target = occs[:, mode] + delta
    # a gain must stay under the total cap too
    ok = (target >= 0) & (target <= basis.n_max) & (
        occs.sum(axis=1) + np.maximum(delta, 0) <= basis.total_max)
    out = np.full(ok.shape, -1, dtype=np.int64)
    shifted = codes + delta * _radix(basis.n_modes, basis.n_max)[mode]
    out[ok] = np.searchsorted(codes, shifted[ok])
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Entries:
    """The stored entries of a dim x dim matrix: row, column and complex
    value arrays, each (row, column) pair at most once, in no set order.
    No operation changes them in place, so states may share them."""
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dim: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.dim, self.dim

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def diagonal(self) -> np.ndarray:
        diag = np.zeros(self.dim, dtype=complex)
        on = self.rows == self.cols
        diag[self.rows[on]] = self.vals[on]
        return diag


def _sorted_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The permutation that sorts ``keys`` (equal keys in input order), the
    group number of each sorted key and the distinct keys, ascending: one
    sort of the keys with each position packed below them."""
    bits = len(keys).bit_length()
    if len(keys) and int(keys.max()) >> (63 - bits):
        raise FockEngineError(f"{len(keys)} keys up to {keys.max()} do not pack into 64 bits")
    packed = np.sort(keys << bits | np.arange(len(keys)))
    order = packed & ((1 << bits) - 1)
    packed >>= bits
    new = np.empty(len(packed), dtype=bool)
    new[:1] = True
    np.not_equal(packed[1:], packed[:-1], out=new[1:])
    return order, np.cumsum(new) - 1, packed[new]


def _summed(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, dim: int) -> Entries:
    """The entries with the values of each repeated (row, column) summed."""
    order, group, keys = _sorted_groups(rows * dim + cols)
    vals = vals[order]
    sums = np.empty(len(keys), dtype=complex)
    sums.real = np.bincount(group, vals.real, len(keys))
    sums.imag = np.bincount(group, vals.imag, len(keys))
    return Entries(keys // dim, keys % dim, sums, dim)


class FockState:
    """Density matrix over a registered, ordered set of bosonic modes,
    stored as its nonzero entries; a batch of them when the basis has
    ``batch`` > 1."""

    def __init__(self, modes: Sequence[str], basis: FockBasis, rho: Entries):
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
        return FockState(self.modes, self.basis, self.rho)

    @property
    def n_max(self) -> int:
        return self.basis.n_max

    def _element_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-element sums of one value per basis state, each summed
        as that element alone would sum it."""
        return values.reshape(self.basis.batch, -1).sum(axis=1)

    def trace(self) -> float | np.ndarray:
        """The trace; a (B,) array of them for a batch."""
        traces = np.real(self._element_sums(self.rho.diagonal()))
        return float(traces[0]) if self.basis.batch == 1 else traces

    @property
    def renorm_deficit(self) -> float:
        """1 - trace, of the element furthest from 1; nonzero only through
        numerical round-off because all channels here are trace preserving
        on the truncated basis."""
        deficits = 1.0 - np.atleast_1d(self.trace())
        return float(deficits[np.abs(deficits).argmax()])

    def truncation_weight(self) -> float:
        """Population sitting on cutoff-boundary states, of the worst
        element; a cheap upper bound on how much the truncation can distort
        subsequent operations."""
        occs = self.basis.occs
        edge = (occs == self.n_max).any(axis=1) | (occs.sum(axis=1) == self.basis.total_max)
        return float(np.real(self._element_sums(self.rho.diagonal()[edge])).max())

    def mean_occupation(self, label: str) -> float | np.ndarray:
        """Mean occupation of a mode; a (B,) array of them for a batch."""
        occ = self.basis.occs[:self.basis.dim // self.basis.batch, self.mode_index(label)]
        means = np.array([np.real(np.dot(occ, diag))
                          for diag in self.rho.diagonal().reshape(self.basis.batch, -1)])
        return float(means[0]) if self.basis.batch == 1 else means


# ---------------------------------------------------------------------------
# state construction


def _diagonal_state(modes: Sequence[str], basis: FockBasis, diag: np.ndarray) -> FockState:
    idx = np.flatnonzero(diag)
    return FockState(modes, basis, Entries(idx, idx, diag[idx].astype(complex), basis.dim))


def init_vacuum(modes: Sequence[str], n_max: int, total_max: int | None = None) -> FockState:
    if n_max < 1:
        raise FockEngineError("n_max must be >= 1")
    basis = FockBasis(len(modes), n_max, len(modes) * n_max if total_max is None else total_max)
    diag = np.zeros(basis.dim)
    diag[0] = 1.0
    return _diagonal_state(modes, basis, diag)


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
    return _diagonal_state(modes, basis, diag / diag.sum())  # total-cap fold-in, exact trace


@lru_cache(maxsize=64)
def _vacuum_mode_map(basis: FockBasis) -> np.ndarray:
    """Index of each state of ``basis`` with one more mode, empty, appended;
    increasing, because the appended digit is the least significant and
    element b of a batch maps into element b."""
    occs = replace(basis, batch=1).occs
    grown = FockBasis(basis.n_modes + 1, basis.n_max, basis.total_max)
    mapping = grown.rank(np.column_stack([occs, np.zeros(len(occs), dtype=np.int64)]))
    mapping = (np.arange(basis.batch)[:, None] * grown.dim + mapping).ravel()
    mapping.setflags(write=False)
    return mapping


def add_vacuum_mode(state: FockState, label: str) -> FockState:
    basis = FockBasis(len(state.modes) + 1, state.n_max, state.basis.total_max, state.basis.batch)
    mapping = _vacuum_mode_map(state.basis)
    rho = state.rho
    return FockState(state.modes + (label,), basis,
                     Entries(mapping[rho.rows], mapping[rho.cols], rho.vals, basis.dim))


def tile(state: FockState, batch: int, copy: np.ndarray) -> FockState:
    """``batch`` copies of a state, or of a batch of B, as one
    block-diagonal batch, copy c of element b being element c*B + b, that
    split its entries: ``copy``, one copy number per stored entry, puts each
    entry in that copy alone."""
    rho = state.rho
    shift = rho.dim * copy
    blocks = Entries(rho.rows + shift, rho.cols + shift, rho.vals, batch * rho.dim)
    return FockState(state.modes, replace(state.basis, batch=batch * state.basis.batch), blocks)


def partial_trace(state: FockState, keep: Sequence[str]) -> FockState:
    """Sum the entries whose traced-out occupations agree onto the basis of
    the kept modes, each element of a batch in its own block."""
    keep = list(keep)
    keep_pos = [state.mode_index(m) for m in keep]
    drop_pos = [i for i in range(len(state.modes)) if i not in keep_pos]
    batch = state.basis.batch
    new_basis = FockBasis(len(keep), state.n_max, state.basis.total_max, batch)
    occs = state.basis.occs
    rem_idx = new_basis.rank(occs[:, keep_pos]) + np.repeat(
        np.arange(batch) * (new_basis.dim // batch), len(occs) // batch)
    drop_code = occs[:, drop_pos] @ _radix(len(drop_pos), state.n_max)
    rho = state.rho
    same = drop_code[rho.rows] == drop_code[rho.cols]
    return FockState(keep, new_basis, _summed(rem_idx[rho.rows[same]], rem_idx[rho.cols[same]],
                                              rho.vals[same], new_basis.dim))


# ---------------------------------------------------------------------------
# two-mode unitaries


def _ladder_unitaries(coupling: np.ndarray, phi: float | None) -> np.ndarray:
    """exp(g) for a stack of tridiagonal generators with
    g[k+1, k] = c_k e^{i phi} and g[k, k+1] = -c_k e^{-i phi}; a real
    stack for phi None.  g is anti-Hermitian, so with 1j g = V L V^dagger
    (one batched Hermitian eigendecomposition) exp(g) = V e^{-i L} V^dagger."""
    k = np.arange(coupling.shape[1])
    up = coupling if phi is None else coupling * np.exp(1j * phi)
    h = np.zeros((coupling.shape[0], len(k) + 1, len(k) + 1), dtype=complex)
    h[:, k + 1, k] = 1j * up
    h[:, k, k + 1] = np.conj(h[:, k + 1, k])
    lam, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * lam)[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return u.real if phi is None else u


@lru_cache(maxsize=256)
def _ladder_layout(basis: FockBasis, i: int, j: int, kind: str):
    """Ladders of a two-mode gate on modes i, j: basis states of the same
    batch element with the same other occupations and the same invariant
    (a+b for "bs", a-b for "tms"), a state's position in its ladder being
    a - a_lo.  A ladder's unitary depends on its invariant and length only,
    so the ladders are numbered by unitary: those of each distinct
    (invariant, length) contiguous, and the one-state ladders, whose unitary
    is 1, last; a batch shares the distinct ladders.  Returns the n-1
    couplings at unit gate strength of each distinct ladder of two or more
    states, padded to the longest length n (zero coupling past its own
    length decouples the padding); the ladder number and the position of
    every basis state; where each ladder starts in the basis states ordered
    by ladder and position (one past the last ladder too), and that order;
    and the ladder number where each distinct unitary's ladders start, then
    where the one-state ones do."""
    n_max = basis.n_max
    occs, codes = _basis_arrays(basis.n_modes, n_max, basis.total_max, basis.batch)
    radix = _radix(basis.n_modes, n_max)
    a, b = occs[:, i], occs[:, j]
    # the invariant, offset into [0, 2 n_max], replaces digits i and j of the
    # code (whose most significant digit is the batch element)
    offset = 0 if kind == "bs" else n_max
    span = 2 * n_max + 1
    key = (codes - a * radix[i] - b * radix[j]) * span + (a + b if kind == "bs" else a - b) + offset
    keys, ladder = np.unique(key, return_inverse=True)
    invariant = keys % span - offset
    # a ladder holds every a from its lowest up: along it the total stays
    # fixed ("bs") or grows with a ("tms"), so the cap cuts only its top
    a_lo = np.maximum(0, invariant - n_max if kind == "bs" else invariant)
    pos = a - a_lo[ladder]
    lengths = np.bincount(ladder)
    n = int(lengths.max())
    long = lengths > 1
    _, first, uid = np.unique(np.where(long, (invariant + offset) * (n + 1) + lengths,
                                       span * (n + 1)), return_index=True, return_inverse=True)
    order = np.argsort(uid, kind="stable")
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    ladder = number[ladder]
    start = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(lengths[order], out=start[1:])
    members = np.empty(basis.dim, dtype=np.int64)
    members[start[ladder] + pos] = np.arange(basis.dim)
    n_long = len(first) - (not long.all())
    bounds = np.searchsorted(uid[order], np.arange(n_long + 1))
    inv, lo, size = (v[first[:n_long], None] for v in (invariant, a_lo, lengths))
    # coupling |a, .> -> |a+1, .> of a+b = s ladders and of a-b = d ladders
    k = np.arange(n - 1)
    lo = lo + k
    weight = (lo + 1) * (inv - lo if kind == "bs" else lo - inv + 1)
    root = np.sqrt(np.where(k < size - 1, weight, 0))
    layout = root, ladder, pos, start, members, bounds
    for arr in layout:  # cached
        arr.setflags(write=False)
    return layout


#: stored entries of rho, on or above its block diagonal, per chunk of
#: whole column ladders in a two-mode gate, which bounds the gate's
#: temporaries
GATE_CHUNK_ENTRIES = 1 << 13


def _ladder_product(layout, unitaries_t: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    vals: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of U X, U block diagonal over the ladders, for the
    entries of X.  The entries of each (row ladder, column) pair form a
    vector over that ladder; each distinct unitary multiplies the vectors of
    its ladders in one product (``unitaries_t`` holds their transposes); and
    every state of the ladder gets an entry of the result, so no pair
    repeats."""
    _, ladder, pos, start, members, bounds = layout
    order, group, keys = _sorted_groups(ladder[rows] * dim + cols)
    group_ladder = keys // dim
    lengths = start[group_ladder + 1] - start[group_ladder]
    ends = np.cumsum(lengths)
    offsets = ends - lengths
    x = np.zeros(lengths.sum(), dtype=complex)
    x[offsets[group] + pos[rows[order]]] = vals[order]
    del order, group
    edges = np.searchsorted(group_ladder, bounds)
    for u, (s, e) in enumerate(zip(edges[:-1], edges[1:])):
        if e == s:
            continue
        n = lengths[s]
        block = x[offsets[s]:ends[e - 1]].reshape(e - s, n)
        ut = unitaries_t[u, :n, :n]
        # a one-row product takes another BLAS route, rounded differently
        block[:] = block @ ut if e - s > 1 else (block[[0, 0]] @ ut)[:1]
    out_rows = members[np.arange(len(x)) + np.repeat(start[group_ladder] - offsets, lengths)]
    return out_rows, np.repeat(keys % dim, lengths), x


def _apply_two_mode(state: FockState, mode_a: str, mode_b: str,
                    kind: str, p1: float, p2: float) -> FockState:
    i, j = state.mode_index(mode_a), state.mode_index(mode_b)
    layout = _ladder_layout(state.basis, i, j, kind)
    root, ladder, start = layout[0], layout[1], layout[3]
    if not root.size:  # every ladder holds one state
        return state.copy()
    # a zero phase keeps the ladder unitaries real
    u = _ladder_unitaries(p1 * root, p2 if p2 else None)
    unitaries_t = np.swapaxes(u, 1, 2).astype(complex)
    rho = state.rho
    # U rho U^dagger = U (U rho)^dagger, rho being Hermitian, and so is the
    # result: its blocks (row ladder l, column ladder m) with l >= m come
    # from rho's blocks with l <= m, and the others are their conjugate
    # transposes.  Over a chunk C of whole column ladders, (U rho)[:, C]
    # needs only rho[:, C], and U ((U rho)[:, C])^dagger is
    # (U rho U^dagger)[C, :], so the chunks' outputs are disjoint
    col_ladder = ladder[rho.cols]
    upper = np.flatnonzero(ladder[rho.rows] <= col_ladder)
    parts = [upper]
    if len(upper) > GATE_CHUNK_ENTRIES:
        col_ladder = col_ladder[upper]
        counts = np.bincount(col_ladder, minlength=len(start) - 1)
        # a 16-bit chunk number (nnz // GATE_CHUNK_ENTRIES at most) sorts in
        # linear time
        chunk = ((np.cumsum(counts) - counts) // GATE_CHUNK_ENTRIES).astype(np.int16)[col_ladder]
        order = np.argsort(chunk, kind="stable")
        parts = np.split(upper[order], np.flatnonzero(np.diff(chunk[order])) + 1)
        del chunk, order
    del col_ladder, upper
    rows, cols, vals = [], [], []
    for part in parts:
        r, c, v = _ladder_product(layout, unitaries_t, rho.rows[part], rho.cols[part],
                                  rho.vals[part], rho.dim)
        r, c, v = _ladder_product(layout, unitaries_t, c, r, v.conj(), rho.dim)
        strict = np.flatnonzero(ladder[r] != ladder[c])
        rows += [r, c[strict]]
        cols += [c, r[strict]]
        vals += [v, v[strict].conj()]
    # one array at a time, so that each one's parts are freed once joined
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return FockState(state.modes, state.basis, Entries(rows, cols, vals, rho.dim))


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


def apply_phase(state: FockState, mode: str, phi: float | np.ndarray) -> FockState:
    """Phase phi per quantum of ``mode``: one phase, or a (B,) array of one
    per element of a batch."""
    occ = state.basis.occs[:, state.mode_index(mode)].reshape(state.basis.batch, -1)
    phi = np.reshape(phi, (-1, 1))
    if len(phi) not in (1, state.basis.batch):
        raise FockEngineError(f"{len(phi)} phases for a batch of {state.basis.batch}")
    d = np.exp(1j * (phi * occ).ravel())
    rho = state.rho
    return FockState(state.modes, state.basis,
                     replace(rho, vals=rho.vals * (d[rho.rows] * d.conj()[rho.cols])))


# ---------------------------------------------------------------------------
# phase-covariant channels (loss, thermal noise)


@lru_cache(maxsize=256)
def _loss_kernels(n_max: int, survival: float) -> tuple[np.ndarray, ...]:
    """W_d[a, b] such that rho'[a,b] = sum_d W_d[a,b] rho[a+d, b+d]."""
    n = np.arange(n_max + 1)
    binom = np.ones(n_max + 1)  # binom(x + d, d) over x, at d = 0
    kernels = []
    for d in range(n_max + 1):
        amp = np.sqrt(binom) * (1.0 - survival) ** (d / 2.0) * survival ** (n / 2.0)
        kernels.append(np.outer(amp, amp))
        binom = np.cumsum(binom)  # hockey stick: sum_{y <= x} binom(y + d, d)
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
    pw[pw < 1e-16] = 0.0

    theta = math.acos(min(1.0, math.sqrt(survival)))
    # the beam splitter on each system + ancilla = t ladder, over the system
    # levels a in [max(0, t - anc_max), min(n_max, t)]; levels outside the
    # ladder are left uncoupled, so they do not mix into it
    t = np.arange(n_max + anc_max + 1)[:, None]
    a = np.arange(n_max)[None, :]  # coupling |a, t-a> -> |a+1, t-a-1>
    inside = (a >= t - anc_max) & (a < np.minimum(n_max, t))
    coupling = theta * np.sqrt(np.where(inside, (a + 1) * (t - a), 0))
    u = _ladder_unitaries(coupling, None)
    lvl = np.arange(n_max + 1)
    anc = np.arange(anc_max + 1)[:, None]
    # amp[l, a, m] = <a, m+l-a| U |m, l>
    amp = u[(anc + lvl)[:, None, :], lvl[:, None], lvl]
    # T[(a,b),(m,n)] = sum_l P(l) sum_k <a,k|U|m,l> <b,k|U|n,l>, nonzero only
    # on equal shifts d = m-a = n-b (phase covariance): with
    # v[d, l, a] = amp[l, a, a+d], W_d = sum_l P(l) v[d, l] v[d, l]^T
    shifts = np.arange(-n_max, n_max + 1)[:, None, None]
    src = lvl + shifts
    v = np.where((src >= 0) & (src <= n_max), amp[anc, lvl, np.clip(src, 0, n_max)], 0.0)
    kernels = np.einsum("l,xla,xlb->xab", pw, v, v)
    return {int(d): k for d, k in zip(shifts.ravel(), kernels)}


def _apply_shift_kernels(state: FockState, mode: str,
                         kernels: Sequence[Mapping[int, np.ndarray]]) -> FockState:
    """The channel of shift kernels W_d on ``mode``: one mapping of them for
    every element, or one per element of a batch, whose entries each take
    their own element's weights."""
    m = state.mode_index(mode)
    basis = state.basis
    n = state.n_max + 1
    occ = basis.occs[:, m]
    # each basis state's row of its element's kernel in the (B*n, n) stack
    # of the elements' kernels; its occupation if all share one
    slot = occ if len(kernels) == 1 else occ + n * np.repeat(
        np.arange(basis.batch), basis.dim // basis.batch)
    # all nonzero shifts d in one pass, ascending: their (S, B*n, n) kernel
    # stack, and row s of ``dest`` the state each basis state moves to by
    # shift s (n_mode -= d), or -1
    zero = np.zeros((n, n))
    shifts = sorted(set().union(*kernels))
    W = np.array([[k.get(d, zero) for k in kernels] for d in shifts])
    nonzero = W.reshape(len(shifts), -1).any(axis=1)
    W, delta = W[nonzero], np.array(shifts)[nonzero]
    weight = np.diagonal(W, 0, -2, -1).reshape(len(delta), -1)
    W = W.reshape(len(delta), -1, n)
    dest = _shift_tables(basis, m)[basis.n_max - delta]
    # population weight each source actually transfers, summed shift by
    # shift in ascending order; gain transitions whose destination falls
    # outside the capped basis are treated as no-ops below
    gain = np.where(dest >= 0, weight[np.arange(len(delta))[:, None], slot[dest]], 0.0)
    applied = np.zeros(basis.dim)
    for row in gain:
        applied += row
    # entry (r, c) moves by shift s to (dest[s, r], dest[s, c]) with its
    # kernel weight: all moved entries, shift-major, then in entry order
    rho = state.rho
    a, b = dest[:, rho.rows], dest[:, rho.cols]
    s, e = np.nonzero((a >= 0) & (b >= 0))
    a, b = a[s, e], b[s, e]
    w = W[s, slot[a], occ[b]]
    ok = np.flatnonzero(w)
    clipped = 1.0 - applied
    diag = rho.diagonal()
    idx = np.flatnonzero((clipped > 1e-15) & (diag != 0.0))
    return FockState(state.modes, basis, _summed(
        np.concatenate([a[ok], idx]), np.concatenate([b[ok], idx]),
        np.concatenate([w[ok] * rho.vals[e[ok]], clipped[idx] * np.real(diag[idx])]), basis.dim))


def apply_loss(state: FockState, mode: str, survival: float | np.ndarray) -> FockState:
    """Beam splitter to a vacuum ancilla plus trace: the standard CPTP loss."""
    return apply_thermal_loss(state, mode, survival, 0.0)


def apply_thermal_loss(state: FockState, mode: str, survival: float | np.ndarray,
                       n_env: float | np.ndarray) -> FockState:
    """Attenuation towards a thermal environment with occupation n_env.
    Either may be a (B,) array, one value per element of a batch, as
    ``apply_phase`` takes one phase per element; an element at survival 1
    comes out exactly as it went in.  Only the protocol's read-stage top-up
    passes arrays: it reads each herald branch's own conditioned occupation
    (a known defect; the unconditioned one is the target), so the branches
    of one batch differ."""
    survival, n_env = np.ravel(survival).tolist(), np.ravel(n_env).tolist()
    if len(n_env) == 1:
        n_env *= len(survival)
    if len(survival) not in (1, state.basis.batch) or len(n_env) != len(survival):
        raise FockEngineError(f"{len(survival)} survivals for a batch of {state.basis.batch}")
    if not all(0.0 <= s <= 1.0 for s in survival):
        raise FockEngineError("survival must be in [0, 1]")
    bad = [nt for nt in n_env if not 0.0 <= nt < math.inf]
    if bad:
        raise FockEngineError(f"n_env must be finite and >= 0, got {bad[0]!r}")
    if all(s == 1.0 for s in survival):
        return state.copy()
    return _apply_shift_kernels(state, mode, [_thermal_kernels(state.n_max, s, nt if s < 1.0 else 0.0)
                                              for s, nt in zip(survival, n_env)])


# ---------------------------------------------------------------------------
# coherences no read-out can see


def prune_coherences(state: FockState, gates: Sequence[tuple[str, str, str]]) -> FockState:
    """The state without the entries that ``gates``, the two-mode gates
    still to run as (kind, mode_a, mode_b) with kind "bs" or "tms", cannot
    bring onto the diagonal.  In the graph of the gates a "bs" edge asks
    equal signs and a "tms" edge opposite ones; each component whose modes
    take consistent signs s_k conserves sum_k s_k n_k (an untouched mode
    its own n_k), and an entry stays when its row and column agree in
    every such charge.  A component without consistent signs conserves
    nothing."""
    n = len(state.modes)
    links = [[] for _ in range(n)]
    for kind, a, b in gates:
        i, j = state.mode_index(a), state.mode_index(b)
        sign = 1 if kind == "bs" else -1
        links[i].append((j, sign))
        links[j].append((i, sign))
    signs = np.zeros(n, dtype=np.int64)
    charges = []
    for root in range(n):
        if signs[root]:
            continue
        signs[root] = 1
        component, balanced = [root], True
        for k in component:  # grows while it is walked
            for m, sign in links[k]:
                if not signs[m]:
                    signs[m] = sign * signs[k]
                    component.append(m)
                balanced &= signs[m] == sign * signs[k]
        if balanced:
            charge = np.zeros(n, dtype=np.int64)
            charge[component] = signs[component]
            charges.append(charge)
    if not charges:
        return state
    # a charge over p modes of sign + and q of sign - takes (p + q) n_max + 1
    # values from -q n_max up, at most (n_max + 1)**(p + q), so one
    # mixed-radix code of all charges stays below the basis codes' bound
    charges = np.array(charges)
    low = state.n_max * (charges < 0).sum(axis=1)
    place = np.ones(len(charges), dtype=np.int64)
    np.cumprod(state.n_max * np.abs(charges[:-1]).sum(axis=1) + 1, out=place[1:])
    code = (state.basis.occs @ charges.T + low) @ place
    rho = state.rho
    keep = np.flatnonzero(code[rho.rows] == code[rho.cols])
    if len(keep) == rho.nnz:
        return state
    return FockState(state.modes, state.basis,
                     Entries(rho.rows[keep], rho.cols[keep], rho.vals[keep], rho.dim))


# ---------------------------------------------------------------------------
# threshold detection


def _pattern_weights(state: FockState, detector_map: Mapping[str, Sequence[str]],
                     efficiency: Mapping[str, float] | float | None,
                     rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """(states, 2**n) weight of every click pattern on the basis states
    ``rows`` of one element (all of them by default), detector 0 the most
    significant bit (the OutcomeDistribution order).  A detector of
    efficiency eta holding N quanta stays quiet with weight (1-eta)**N and
    clicks with the rest, -expm1(N log1p(-eta)), which keeps the click
    weight of a tiny eta.  A detector that a mapping leaves out has eta 1;
    a key of it that names no detector raises, and so does a mode listed
    twice, whose quanta would count twice."""
    modes = [m for group in detector_map.values() for m in group]
    repeated = [m for k, m in enumerate(modes) if m in modes[:k]]
    if repeated:
        raise FockEngineError(f"mode {repeated[0]!r} is listed twice in the detector map")
    if isinstance(efficiency, Mapping):
        unknown = [det for det in efficiency if det not in detector_map]
        if unknown:
            raise FockEngineError(f"efficiency for no detector: {', '.join(map(repr, unknown))}")
    occs = state.basis.occs[:state.basis.dim // state.basis.batch][rows]
    weights = np.ones((len(occs), 1))
    for det, modes in detector_map.items():
        eta = 1.0 if efficiency is None else (
            efficiency if isinstance(efficiency, (int, float)) else efficiency.get(det, 1.0))
        if not 0.0 <= eta <= 1.0:
            raise FockEngineError(f"efficiency of detector {det!r} must be in [0, 1], got {eta!r}")
        quanta = occs[:, [state.mode_index(m) for m in modes]].sum(axis=1)
        quiet = (1.0 - eta) ** quanta
        click = 1.0 - quiet if eta == 1.0 else -np.expm1(quanta * np.log1p(-eta))
        weights = np.stack([weights * quiet[:, None], weights * click[:, None]], axis=-1)
        weights = weights.reshape(len(occs), -1)
    return weights


def click_distribution(
    state: FockState,
    detector_map: Mapping[str, Sequence[str]],
    efficiency: Mapping[str, float] | float | None = None,
) -> OutcomeDistribution:
    """Exact probabilities of every click pattern, (B, 2**n) for a batch.  A
    detector clicks when at least one quantum survives the efficiency loss
    on any of its modes.

    The threshold POVM with efficiency is diagonal, so this is each
    element's populations times the pattern weights of its basis states,
    computed only for the states some element populates (the others' rows
    stay zero)."""
    diag = np.real(state.rho.diagonal()).reshape(state.basis.batch, -1)
    populated = np.flatnonzero(diag.any(axis=0))
    weights = np.zeros((diag.shape[1], 1 << len(detector_map)))
    weights[populated] = _pattern_weights(state, detector_map, efficiency, populated)
    probs = diag @ weights
    return OutcomeDistribution(tuple(detector_map), probs[0] if state.basis.batch == 1 else probs)


def measure_threshold(
    state: FockState,
    detector_map: Mapping[str, Sequence[str]],
    efficiency: Mapping[str, float] | float | None = None,
) -> tuple[np.ndarray, np.ndarray, FockState]:
    """Threshold-measure the mapped modes of one state.  Returns the codes
    of the click patterns with nonzero probability, ascending, their
    probabilities, and the states they condition on the remaining modes as
    one batch, element b for code b: the entries whose measured occupations
    agree between row and column (the others vanish in the trace over the
    measured modes), each weighted by its pattern's POVM weight, traced over
    the measured modes, all in one pass."""
    if state.basis.batch != 1:
        raise FockEngineError(f"measure_threshold takes one state, not a batch of {state.basis.batch}")
    measured = sorted({m for modes in detector_map.values() for m in modes},
                      key=state.modes.index)
    keep = [m for m in state.modes if m not in measured]
    occs = state.basis.occs
    seen = occs[:, [state.mode_index(m) for m in measured]] @ _radix(len(measured), state.n_max)
    rho = state.rho
    same = np.flatnonzero(seen[rho.rows] == seen[rho.cols])
    r, c, data = rho.rows[same], rho.cols[same], rho.vals[same]
    # a kept entry's row and column carry the same measured occupations, so
    # its row's weights are its weights
    weights = _pattern_weights(state, detector_map, efficiency)
    on_diag = r == c
    probs = np.real(data[on_diag]) @ weights[r[on_diag]]
    codes = np.flatnonzero(probs > 0.0)
    # dividing by a subnormal probability overflows, and its underflowed
    # entries are no valid state to rescale anyway
    tiny = codes[probs[codes] < np.finfo(float).tiny]
    if tiny.size:
        raise FockEngineError(f"click pattern {tiny[0]} has subnormal probability "
                              f"{probs[tiny[0]]:.3g}: its conditioned state underflows")
    reduced = FockBasis(len(keep), state.n_max, state.basis.total_max, len(codes))
    size = reduced.dim // len(codes)
    rem = reduced.rank(occs[:, [state.mode_index(m) for m in keep]])
    # element b keeps, in entry order, the entries that code b weighs
    element, sel = np.nonzero(weights[:, codes][r].T)
    sums = _summed(element * size + rem[r[sel]], element * size + rem[c[sel]],
                   weights[r[sel], codes[element]] * data[sel], reduced.dim)
    probs = probs[codes]
    return codes, probs, FockState(keep, reduced,
                                   replace(sums, vals=sums.vals / probs[sums.rows // size]))
