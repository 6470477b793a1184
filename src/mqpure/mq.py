"""Coherence-order decomposition, intensities and the order filter.

An element (a, b) of a density matrix carries coherence order
n = m(a) - m(b).  Intensities follow the Tr(rho_n^2) bookkeeping with
Hermitian pairing: order 0 counts Tr(rho_0^2), order n > 0 counts
Tr((rho_n + rho_-n)^2) = 2 Tr(rho_n rho_n+), so the total over n >= 0
is exactly Tr(rho^2).

The intensities and the filter work on the element blocks between
spin-up levels (``ZeemanBasis.levels``): order n is the blocks between
level k and level k + n, so no d x d order matrix is built.

Two independent oracles give every order of a state: direct element
classification and phase cycling from a table per pair of m values.
Each is one band kernel over some rows of the state.  :func:`decompose`
and :func:`phase_cycle_decompose` run it over all rows into full
``(2N+1, d, d)`` stacks; :class:`PhaseCycleCheck` compares the two a
band of ``BAND_ROWS`` rows at a time in buffers it makes once.
"""

from __future__ import annotations

import numpy as np

from .spin_core import DensityMatrix, ZeemanBasis


# rows of a state one band of :class:`PhaseCycleCheck` holds; a power of
# two, so the bands tile every 2^N rows
BAND_ROWS = 16


def decompose(rho: DensityMatrix, basis: ZeemanBasis) -> np.ndarray:
    """Split rho by the m-difference of each element.

    Returns a ``(2N+1, d, d)`` stack whose entry n holds the elements of
    order n, with negative n counting from the end as in numpy indexing,
    so ``components[n]`` is order n for every n in -N..N.  The entries
    sum to rho exactly and satisfy ``components[-n] = components[n]+``.
    """
    _check_dim(rho, basis)
    out = np.zeros((2 * basis.n_spins + 1, basis.dim, basis.dim), dtype=rho.matrix.dtype)
    out.reshape(-1)[_direct_band(basis.m, slice(None))] = rho.matrix
    return out


def _check_dim(rho: DensityMatrix, basis: ZeemanBasis) -> None:
    if rho.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")


def _orders(n_spins: int) -> np.ndarray:
    """The order of each entry of an order stack: 0..N, then -N..-1."""
    return np.r_[0 : n_spins + 1, -n_spins:0]


def _direct_band(m: np.ndarray, rows: slice, classes: np.ndarray | None = None,
                 index: np.ndarray | None = None) -> np.ndarray:
    """The flat index of each element of the rows ``rows`` of a state in
    an order stack of those rows, (2N+1, rows, d): its place in the entry
    of its order rint(m_a - m_b), negative orders counting from the end.
    ``classes`` (rows, d) float is scratch and ``index`` (rows, d) intp
    the result, each made here when not given.  Returns ``index``."""
    classes = np.subtract(m[rows, np.newaxis], m, out=classes)
    np.rint(classes, out=classes)
    index = np.multiply(classes, classes.size, out=index, casting="unsafe", dtype=np.intp)
    index += np.arange(classes.size).reshape(classes.shape)
    return index


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
    _check_dim(rho, basis)
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
    _check_dim(rho, basis)
    # copy the element blocks between each spin-up level and the level n above it
    levels = basis.levels()
    mat = np.zeros_like(rho.matrix)
    for low, high in zip(levels, levels[n:]):
        for block in (np.ix_(high, low), np.ix_(low, high)):
            mat[block] = rho.matrix[block]
    return DensityMatrix(matrix=mat)


def phase_cycle_decompose(rho: DensityMatrix, basis: ZeemanBasis, k_steps: int) -> np.ndarray:
    """Order decomposition via discrete z-rotation phase cycling.

    Computes rho_n = (1/K) sum_k exp(i n phi_k) R(phi_k) rho R(phi_k)+
    with phi_k = 2 pi k / K and R(phi) = exp(-i phi I_z).  R is diagonal,
    so element (a, b) of rho_n is rho_ab times a phase sum over k that
    depends only on n, m_a and m_b (:func:`_cycle_tables`).  Returns the
    layout of :func:`decompose`.  Independent of it (no element
    classification, only the phases of ``basis.m``), so the two serve as
    cross-checking oracles.  Requires K > 2 N or orders alias.
    """
    _check_dim(rho, basis)
    _check_steps(basis, k_steps)
    levels, table = _cycle_tables(basis, k_steps)
    out = np.empty((len(table), basis.dim, basis.dim), dtype=complex)
    return _cycled_band(table, levels, slice(None), rho.matrix, out)


def _check_steps(basis: ZeemanBasis, k_steps: int) -> None:
    if k_steps <= 2 * basis.n_spins:
        raise ValueError(
            f"k_steps={k_steps} aliases orders up to +-{basis.n_spins}; "
            f"need k_steps > {2 * basis.n_spins}"
        )


def _cycle_tables(basis: ZeemanBasis, k_steps: int) -> tuple:
    """The m level of each state (d,), from ``np.unique`` of ``basis.m``,
    and the order table (2N+1, L, L) of the L levels: entry [n, i, j] is
    (1/K) sum_k exp(i n phi_k) exp(-i phi_k m_i) exp(i phi_k m_j), one
    (2N+1, K) @ (K, L^2) product.  Refuses no ``k_steps``."""
    values, levels = np.unique(basis.m, return_inverse=True)
    phis = 2.0 * np.pi * np.arange(k_steps) / k_steps
    rotation = np.exp(-1j * np.outer(phis, values))  # R(phi_k) on each m level
    pairs = rotation[:, :, np.newaxis] * rotation.conj()[:, np.newaxis, :]
    weights = np.exp(1j * np.outer(_orders(basis.n_spins), phis)) / k_steps
    table = weights @ pairs.reshape(k_steps, -1)
    return levels, table.reshape(len(weights), len(values), len(values))


def _cycled_band(table: np.ndarray, levels: np.ndarray, rows: slice, values: np.ndarray,
                 out: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """The orders of ``values``, the rows ``rows`` of a state, by phase
    cycling: the table entries of each element's pair of levels, gathered
    into ``out`` (2N+1, rows, d), times the element.  ``index`` (rows, d)
    intp is scratch, made here when not given.  Returns ``out``."""
    index = np.add(levels[rows, np.newaxis] * table.shape[1], levels, out=index)
    np.take(table.reshape(len(table), -1), index, axis=1, out=out, mode="clip")
    out *= values
    return out


def cycle_table_bytes(basis: ZeemanBasis, k_steps: int) -> int:
    """An upper bound on the bytes of the arrays with K rows that building
    the order table makes and frees again."""
    levels = basis.n_spins + 1
    return 16 * k_steps * (levels**2 + levels + 2 * (2 * basis.n_spins + 1) + 1)


def phase_cycle_check_bytes(basis: ZeemanBasis, k_steps: int) -> int:
    """Bytes of the tables and buffers :class:`PhaseCycleCheck` holds for
    ``basis``, without making them; none has K rows."""
    d, orders, rows = basis.dim, 2 * basis.n_spins + 1, min(BAND_ROWS, basis.dim)
    # the levels (intp) and the order table (complex), then one band's
    # classes (float), index (intp), cycled (complex) and gaps (float)
    return 8 * d + 16 * orders * (basis.n_spins + 1) ** 2 + rows * d * (16 + 24 * orders)


class PhaseCycleCheck:
    """The largest gap between the two order oracles over a state.

    Made once per basis and phase-step count: it holds the order table of
    :func:`phase_cycle_decompose` and the buffers of one band of
    ``BAND_ROWS`` rows (all rows below that).  :meth:`deviation` phase-cycles
    each band in turn and subtracts the direct orders from it in place, so
    a check holds neither order stack.  Refuses aliasing ``k_steps`` as
    :func:`phase_cycle_decompose` does.
    """

    def __init__(self, basis: ZeemanBasis, k_steps: int):
        _check_steps(basis, k_steps)
        self.basis = basis
        self.levels, self.table = _cycle_tables(basis, k_steps)
        band = (min(BAND_ROWS, basis.dim), basis.dim)
        self._classes = np.empty(band)
        self._index = np.empty(band, dtype=np.intp)
        self._cycled = np.empty((len(self.table), *band), dtype=complex)
        self._gaps = np.empty(self._cycled.shape)

    def deviation(self, rho: DensityMatrix) -> float:
        """max |rho_n - rho'_n| over every order n and element, with rho_n
        classified directly and rho'_n phase-cycled; NaN if either is."""
        _check_dim(rho, self.basis)
        band = len(self._classes)
        worst = 0.0
        for start in range(0, self.basis.dim, band):
            rows = slice(start, start + band)
            values = rho.matrix[rows]
            cycled = _cycled_band(self.table, self.levels, rows, values, self._cycled,
                                  self._index)
            index = _direct_band(self.basis.m, rows, self._classes, self._index)
            cycled.reshape(-1)[index] -= values  # the indices are unique
            worst = np.maximum(worst, np.abs(cycled, out=self._gaps).max())
        return float(worst)
