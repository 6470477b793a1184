"""Coherence-order decomposition, intensities and the order filter.

An element (a, b) of a density matrix carries coherence order
n = m(a) - m(b).  Intensities follow the Tr(rho_n^2) bookkeeping with
Hermitian pairing: order 0 counts Tr(rho_0^2), order n > 0 counts
Tr((rho_n + rho_-n)^2) = 2 Tr(rho_n rho_n+), so the total over n >= 0
is exactly Tr(rho^2).

The intensities and the filter work on the element blocks between
spin-up levels (``ZeemanBasis.levels``): order n is the blocks between
level k and level k + n, so no d x d order matrix is built.  The full
order stacks of :func:`decompose` and :func:`phase_cycle_decompose`
serve as two independent cross-checking oracles.
"""

from __future__ import annotations

import numpy as np

from .spin_core import DensityMatrix, ZeemanBasis


def decompose(rho: DensityMatrix, basis: ZeemanBasis) -> np.ndarray:
    """Split rho by the m-difference of each element.

    Returns a ``(2N+1, d, d)`` stack whose entry n holds the elements of
    order n, with negative n counting from the end as in numpy indexing,
    so ``components[n]`` is order n for every n in -N..N.  The entries
    sum to rho exactly and satisfy ``components[-n] = components[n]+``.
    """
    if rho.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")
    n = basis.n_spins
    orders = np.r_[0 : n + 1, -n:0]
    return np.where(basis.coherence_orders() == orders[:, None, None], rho.matrix, 0)


def mq_intensity(components: np.ndarray, n: int) -> float:
    """Intensity of order n (n >= 0) of a :func:`decompose` stack,
    Hermitian-paired for n > 0."""
    n_spins = (len(components) - 1) // 2
    if not 0 <= n <= n_spins:
        raise ValueError(f"order {n} out of range [0, {n_spins}]")
    weight = 1.0 if n == 0 else 2.0
    return weight * float(np.sum(np.abs(components[n]) ** 2))


def mq_intensities(rho: DensityMatrix, basis: ZeemanBasis) -> np.ndarray:
    """Intensities of orders 0..N in one pass, Hermitian-paired for n > 0.

    Entry n equals ``mq_intensity(decompose(rho, basis), n)``: the sums of
    |rho_ab|^2 over each pair of levels (:func:`level_sums`) read by order
    (:func:`order_intensities`); no order matrix and no per-order copy is
    made.
    """
    if rho.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")
    ups = basis.spins_up()
    return order_intensities(level_sums(rho.matrix, ups, ups, basis.n_spins))


def level_sums(values: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               n_spins: int) -> np.ndarray:
    """The sum of |values|^2 over each pair of spin-up levels (k, l), shaped
    (N + 1, N + 1), given the spin-up counts of the rows and the columns.

    With L the one-hot matrices of the counts, it is L_rows+ |values|^2 L_cols.
    """
    levels = np.arange(n_spins + 1)
    squares = np.abs(values)
    squares *= squares
    return np.equal.outer(levels, rows) @ squares @ np.equal.outer(cols, levels)


def order_intensities(per_levels: np.ndarray) -> np.ndarray:
    """The intensities of orders 0..N of the level-pair sums of
    :func:`level_sums`: order n collects the pairs with |k - l| = n."""
    return np.array([np.trace(per_levels, n) + (n > 0) * np.trace(per_levels, -n)
                     for n in range(per_levels.shape[0])])


def filter_order(rho: DensityMatrix, basis: ZeemanBasis, n: int) -> DensityMatrix:
    """Keep only the +-n coherence pair: the ideal multiple-quantum filter.

    The result rho_n + rho_-n is Hermitian and traceless for n >= 1,
    matching what phase-cycled temporal averaging leaves behind.
    """
    if not 1 <= n <= basis.n_spins:
        raise ValueError(f"filter order {n} out of range [1, {basis.n_spins}]")
    if rho.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")
    # copy the element blocks between each spin-up level and the level n above it
    levels = basis.levels()
    mat = np.zeros_like(rho.matrix)
    for low, high in zip(levels, levels[n:]):
        for block in (np.ix_(high, low), np.ix_(low, high)):
            mat[block] = rho.matrix[block]
    return DensityMatrix(matrix=mat)


def phase_cycle_decompose(
    rho: DensityMatrix, basis: ZeemanBasis, k_steps: int
) -> np.ndarray:
    """Order decomposition via discrete z-rotation phase cycling.

    Computes rho_n = (1/K) sum_k exp(i n phi_k) R(phi_k) rho R(phi_k)+
    with phi_k = 2 pi k / K and R(phi) = exp(-i phi I_z): the K rotated
    copies form one stack and a single inverse DFT over the rotation axis
    yields every order.  Returns the layout of :func:`decompose`.
    Independent of it (no element classification, only the phases of
    ``basis.m``), so the two serve as cross-checking oracles.  Requires
    K > 2 N or orders alias.
    """
    if rho.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")
    if k_steps <= 2 * basis.n_spins:
        raise ValueError(
            f"k_steps={k_steps} aliases orders up to +-{basis.n_spins}; "
            f"need k_steps > {2 * basis.n_spins}"
        )
    phis = 2.0 * np.pi * np.arange(k_steps) / k_steps
    d = np.exp(-1j * np.outer(phis, basis.m))  # R(phi_k) is diagonal in the Zeeman basis
    rotated = d[:, :, np.newaxis] * d.conj()[:, np.newaxis, :]
    rotated *= rho.matrix
    np.fft.ifft(rotated, axis=0, out=rotated)
    return rotated[np.r_[0 : basis.n_spins + 1, -basis.n_spins : 0]]
