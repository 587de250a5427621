"""Dense views of Fock-engine states for the tests' references: the engine
stores a density matrix only as its nonzero entries."""

import dataclasses
from functools import lru_cache

import numpy as np

from phonon_timebin import fock


def dense(state):
    """The state's density matrix as a dense array."""
    rho = state.rho
    out = np.zeros(rho.shape, dtype=complex)
    out[rho.rows, rho.cols] = rho.vals
    return out


def entries(rho):
    """The nonzero entries of a dense matrix, in row-major order."""
    rho = np.asarray(rho, dtype=complex)
    rows, cols = np.nonzero(rho)
    return fock.Entries(rows, cols, rho[rows, cols], len(rho))


@lru_cache(maxsize=64)
def index(basis):
    """Index of each occupation tuple within one element of the basis."""
    occs = dataclasses.replace(basis, batch=1).occs
    return {o: i for i, o in enumerate(map(tuple, occs.tolist()))}


def element(state, b):
    """Element b of a batch as a state of its own, its entries in batch
    order (a sum of repeated entries runs in that order)."""
    size = state.basis.dim // state.basis.batch
    rho = state.rho
    mine = rho.rows // size == b
    return fock.FockState(state.modes, dataclasses.replace(state.basis, batch=1),
                          fock.Entries(rho.rows[mine] - b * size, rho.cols[mine] - b * size,
                                       rho.vals[mine], size))


def tiled(state, batch):
    """``batch`` whole copies of a state, or of a batch of B, as one batch
    (``fock.tile`` with every entry in every copy): copy c of element b is
    element c*B + b."""
    rho = state.rho
    whole = fock.Entries(*(np.tile(a, batch) for a in (rho.rows, rho.cols, rho.vals)), rho.dim)
    return fock.tile(fock.FockState(state.modes, state.basis, whole), batch,
                     np.repeat(np.arange(batch), rho.nnz))
