"""Spin operators built from Kronecker products, the oracle for the bit-pattern builders.

mqpure writes every operator straight from the bits of each basis
index; the tests compare those matrices with the ones assembled here
from 2x2 single-spin factors.
"""

from functools import reduce

import numpy as np

from mqpure import Operator

_HALF_SPIN = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex),
    "z": np.array([[-0.5, 0.0], [0.0, 0.5]], dtype=complex),
    "+": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "-": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
}


def single_spin_op(basis, site: int, kind: str) -> Operator:
    """Embed a single-site spin-1/2 operator into the full product space.

    Args:
        basis: Zeeman basis of the cluster.
        site: Site index, 0 <= site < n_spins (site 0 is the least
            significant bit).
        kind: One of "x", "y", "z", "+", "-".
    """
    if not 0 <= site < basis.n_spins:
        raise ValueError(f"site {site} out of range for {basis.n_spins} spins")
    if kind not in _HALF_SPIN:
        raise ValueError(f"unknown operator kind {kind!r}")
    eye = np.eye(2, dtype=complex)
    factors = [_HALF_SPIN[kind] if i == site else eye
               for i in range(basis.n_spins - 1, -1, -1)]
    mat = reduce(np.kron, factors)
    return Operator(matrix=mat, hermitian=kind in ("x", "y", "z"))


def collective_op(basis, kind: str) -> Operator:
    """Sum of ``single_spin_op`` over all sites."""
    total = sum(single_spin_op(basis, i, kind).matrix for i in range(basis.n_spins))
    return Operator(matrix=total, hermitian=kind in ("x", "y", "z"))
