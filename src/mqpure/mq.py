"""Coherence-order decomposition, intensities and the order filter.

An element (a, b) of a density matrix carries coherence order
n = m(a) - m(b).  Intensities follow the Tr(rho_n^2) bookkeeping with
Hermitian pairing: order 0 counts Tr(rho_0^2), order n > 0 counts
Tr((rho_n + rho_-n)^2) = 2 Tr(rho_n rho_n+), so the total over n >= 0
is exactly Tr(rho^2).

The intensities and the filter work on the element blocks between
spin-up levels (``ZeemanBasis.levels``): order n is the blocks between
level k and level k + n, so no d x d order matrix is built.  The
intensities of a state held as low-rank factors are read from small
per-level triangles of its factors.  The full order stacks of
:func:`decompose` and :func:`phase_cycle_decompose` serve as two
independent cross-checking oracles.
"""

from __future__ import annotations

import numpy as np

from .spin_core import DensityMatrix, LowRankState, ZeemanBasis


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

    Entry n equals ``mq_intensity(decompose(rho, basis), n)``.  With L
    the (d, N+1) one-hot matrix of the spin-up levels, L+ |rho|^2 L sums
    |rho_ab|^2 over each pair of levels (k, l), and order n collects the
    pairs with |k - l| = n; no order matrix and no per-order copy is made.
    """
    if rho.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")
    n_spins = basis.n_spins
    one_hot = np.equal.outer(basis.spins_up(), np.arange(n_spins + 1)).astype(float)
    squares = np.abs(rho.matrix)
    squares *= squares
    per_levels = one_hot.T @ squares @ one_hot
    return np.array([np.trace(per_levels, n) + (n > 0) * np.trace(per_levels, -n)
                     for n in range(n_spins + 1)])


def low_rank_intensities(state: LowRankState, basis: ZeemanBasis) -> np.ndarray:
    """Intensities of orders 0..N of a b+ + b a+, Hermitian-paired for n > 0.

    Entry n equals ``mq_intensity(decompose(rho, basis), n)``.  With the
    rows of each level k written as [a_k b_k] = Q_k R_k (R_k has at most
    2r rows; a level of fewer rows keeps them, Q_k = 1), the block of rho
    between levels k and l is Q_k R_k J R_l+ Q_l+, where J swaps the a
    and b halves.  So its squared norm is that of the small product
    R_k J R_l+, which, unlike a difference of r x r Gram traces, cannot
    cancel below zero.  One QR covers every level taller than 2r, and
    level k's rows meet all levels l >= k in one product; the (l, k)
    block is the adjoint, and order n collects the pairs with
    |k - l| = n.
    """
    if state.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, basis {basis.dim}")
    rank = state.a.shape[1]
    levels = basis.levels()
    sizes = [level.size for level in levels]
    rows = np.empty((state.dim, 2 * rank), dtype=complex)
    pieces = np.split(rows, np.cumsum(sizes)[:-1])
    for piece, level in zip(pieces, levels):
        piece[:, :rank], piece[:, rank:] = state.a[level], state.b[level]
    tall = [k for k, size in enumerate(sizes) if size > 2 * rank]
    if tall:
        # zero rows pad the shorter levels; they leave each R+ R unchanged
        padded = np.zeros((len(tall), max(sizes[k] for k in tall), 2 * rank), dtype=complex)
        for i, k in enumerate(tall):
            padded[i, :sizes[k]] = pieces[k]
        for k, triangle in zip(tall, np.linalg.qr(padded, mode="r")):
            pieces[k] = triangle
        rows = np.vstack(pieces)
    starts = np.cumsum([0] + [piece.shape[0] for piece in pieces])
    pairing = np.full(basis.n_spins + 1, 2.0)
    pairing[0] = 1.0
    intensities = np.zeros(basis.n_spins + 1)
    for k, piece in enumerate(pieces):
        # R_l J R_k+, the adjoint of R_k J R_l+, for every l >= k
        products = rows[starts[k]:] @ np.roll(piece, rank, axis=1).conj().T
        per_level = np.add.reduceat(np.sum(np.abs(products) ** 2, axis=1),
                                    starts[k:-1] - starts[k])
        intensities[:per_level.size] += pairing[:per_level.size] * per_level
    return intensities


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
