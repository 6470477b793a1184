"""Dense matrices of the operators mqpure holds as nonzero elements.

mqpure builds both Hamiltonians and the thermal state as a
``SparseOperator`` and gathers only the blocks it needs.  The dense
builders below are the ones it used before, kept as the oracle that
every gathered block is compared with exactly, and ``dense`` writes any
operator out as its full matrix for tests that work on whole matrices.
"""

import numpy as np

from mqpure import DensityMatrix, Operator


def dense(op) -> np.ndarray:
    """The full matrix of a ``SparseOperator`` (or of a dense ``Operator``)."""
    if isinstance(op, Operator):
        return op.matrix
    out = np.zeros((op.dim, op.dim), dtype=op.values.dtype)
    out[op.rows, op.cols] = op.values
    return out


def dense_state(op) -> DensityMatrix:
    """A state held as nonzero elements, as a dense ``DensityMatrix``."""
    return DensityMatrix(matrix=dense(op))


def _bit(states, site):
    return (states >> site) & 1


def _pairs(system):
    for i in range(system.n_spins):
        for j in range(i + 1, system.n_spins):
            if system.couplings[i, j] != 0.0:
                yield i, j, system.couplings[i, j]


def dense_dq_hamiltonian(system, basis) -> np.ndarray:
    """The double-quantum Hamiltonian written into a dense float64 matrix."""
    states = np.arange(basis.dim)
    h = np.zeros((basis.dim, basis.dim))
    for i, j, coupling in _pairs(system):
        aligned = states[_bit(states, i) == _bit(states, j)]
        h[aligned ^ ((1 << i) | (1 << j)), aligned] -= 0.5 * coupling
    return h


def dense_secular_hamiltonian(system, basis) -> np.ndarray:
    """The secular dipolar Hamiltonian written into a dense float64 matrix,
    each diagonal entry summed per distinct coupling, the couplings ascending."""
    states = np.arange(basis.dim)
    h = np.zeros((basis.dim, basis.dim))
    halves = {}  # per coupling, the sum of +-1/2 over its pairs
    for i, j, coupling in _pairs(system):
        aligned = _bit(states, i) == _bit(states, j)
        halves[coupling] = halves.get(coupling, 0.0) + np.where(aligned, 0.5, -0.5)
        differ = states[~aligned]
        h[differ ^ ((1 << i) | (1 << j)), differ] = -0.5 * coupling
    h[np.diag_indices(basis.dim)] = sum((coupling * halves[coupling]
                                         for coupling in sorted(halves)), np.zeros(basis.dim))
    return h
