"""Coherence-order decomposition, intensities and the order filter.

An element (a, b) of a density matrix carries coherence order
n = m(a) - m(b).  Intensities follow the Tr(rho_n^2) bookkeeping with
Hermitian pairing: order 0 counts Tr(rho_0^2), order n > 0 counts
Tr((rho_n + rho_-n)^2) = 2 Tr(rho_n rho_n+), so the total over n >= 0
is exactly Tr(rho^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spin_core import DensityMatrix, ZeemanBasis


@dataclass(frozen=True)
class MQDecomposition:
    """Partition of a matrix into coherence-order components.

    ``components[n]`` holds the elements of order n; the components sum
    to the original matrix exactly and satisfy rho_n+ = rho_-n.
    """

    n_spins: int
    components: dict = field(repr=False)

    def order(self, n: int) -> np.ndarray:
        if n not in self.components:
            raise ValueError(f"order {n} out of range [-{self.n_spins}, {self.n_spins}]")
        return self.components[n]

    def total(self) -> np.ndarray:
        return sum(self.components.values())


def decompose(rho: DensityMatrix, basis: ZeemanBasis) -> MQDecomposition:
    """Split rho by the m-difference of each element."""
    if rho.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")
    orders = basis.coherence_orders()
    components = {
        n: np.where(orders == n, rho.matrix, 0.0)
        for n in range(-basis.n_spins, basis.n_spins + 1)
    }
    return MQDecomposition(n_spins=basis.n_spins, components=components)


def mq_intensity(dec: MQDecomposition, n: int) -> float:
    """Intensity of order n (n >= 0), Hermitian-paired for n > 0."""
    if not 0 <= n <= dec.n_spins:
        raise ValueError(f"order {n} out of range [0, {dec.n_spins}]")
    weight = 1.0 if n == 0 else 2.0
    return weight * float(np.sum(np.abs(dec.order(n)) ** 2))


def mq_intensities(rho: DensityMatrix, basis: ZeemanBasis) -> np.ndarray:
    """Intensities of orders 0..N in one pass, Hermitian-paired for n > 0.

    Entry n equals ``mq_intensity(decompose(rho, basis), n)``: a single
    ``bincount`` of |rho_ab|^2 over |m(a) - m(b)| with no per-order copy.
    """
    if rho.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")
    orders = np.abs(basis.coherence_orders()).ravel()
    weights = (np.abs(rho.matrix) ** 2).ravel()
    return np.bincount(orders, weights=weights, minlength=basis.n_spins + 1)


def filter_order(rho: DensityMatrix, basis: ZeemanBasis, n: int) -> DensityMatrix:
    """Keep only the +-n coherence pair: the ideal multiple-quantum filter.

    The result rho_n + rho_-n is Hermitian and traceless for n >= 1,
    matching what phase-cycled temporal averaging leaves behind.
    """
    if not 1 <= n <= basis.n_spins:
        raise ValueError(f"filter order {n} out of range [1, {basis.n_spins}]")
    if rho.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")
    orders = basis.coherence_orders()
    mat = np.where(np.abs(orders) == n, rho.matrix, 0.0)
    return DensityMatrix(matrix=mat)


def phase_cycle_decompose(
    rho: DensityMatrix, basis: ZeemanBasis, k_steps: int
) -> MQDecomposition:
    """Order decomposition via discrete z-rotation phase cycling.

    Computes rho_n = (1/K) sum_k exp(i n phi_k) R(phi_k) rho R(phi_k)+
    with phi_k = 2 pi k / K and R(phi) = exp(-i phi I_z).  Independent of
    :func:`decompose` (no element classification), so the two serve as
    cross-checking oracles.  Requires K > 2 N or orders alias.
    """
    if rho.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")
    if k_steps <= 2 * basis.n_spins:
        raise ValueError(
            f"k_steps={k_steps} aliases orders up to +-{basis.n_spins}; "
            f"need k_steps > {2 * basis.n_spins}"
        )
    phis = 2.0 * np.pi * np.arange(k_steps) / k_steps
    rotated = []
    for phi in phis:
        d = np.exp(-1j * phi * basis.m)  # R(phi) is diagonal in the Zeeman basis
        rotated.append(np.outer(d, d.conj()) * rho.matrix)
    components = {}
    for n in range(-basis.n_spins, basis.n_spins + 1):
        weights = np.exp(1j * n * phis)
        components[n] = sum(w * r for w, r in zip(weights, rotated)) / k_steps
    return MQDecomposition(n_spins=basis.n_spins, components=components)
