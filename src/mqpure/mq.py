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
classification and phase cycling.  Each is one band kernel over some
rows of the state.  :func:`decompose` and :func:`phase_cycle_decompose`
run it over all rows into full ``(2N+1, d, d)`` stacks;
:class:`PhaseCycleCheck` compares the two a band of ``BAND_ROWS`` rows
at a time in buffers it makes once.
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
    d = basis.dim
    out = np.zeros((2 * basis.n_spins + 1, d, d), dtype=rho.matrix.dtype)
    return _direct_band(basis.m, slice(None), rho.matrix, out)


def _check_dim(rho: DensityMatrix, basis: ZeemanBasis) -> None:
    if rho.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")


def _orders(n_spins: int) -> np.ndarray:
    """The order of each entry of an order stack: 0..N, then -N..-1."""
    return np.r_[0 : n_spins + 1, -n_spins:0]


def _direct_band(m: np.ndarray, rows: slice, values: np.ndarray, out: np.ndarray,
                 classes: np.ndarray | None = None,
                 mask: np.ndarray | None = None) -> np.ndarray:
    """Copy each element of ``values``, the rows ``rows`` of a state, into
    the entry of ``out`` of its order rint(m_a - m_b), zeroing the rest.

    ``classes`` (rows, d) and ``mask`` (2N+1, rows, d) are scratch
    buffers, made here when not given.  Returns ``out``.
    """
    classes = np.subtract(m[rows, np.newaxis], m, out=classes)
    np.rint(classes, out=classes)
    mask = np.equal(classes, _orders((len(out) - 1) // 2)[:, np.newaxis, np.newaxis],
                    out=mask)
    out.fill(0)
    np.copyto(out, values, where=mask)
    return out


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


def phase_cycle_decompose(
    rho: DensityMatrix, basis: ZeemanBasis, k_steps: int
) -> np.ndarray:
    """Order decomposition via discrete z-rotation phase cycling.

    Computes rho_n = (1/K) sum_k exp(i n phi_k) R(phi_k) rho R(phi_k)+
    with phi_k = 2 pi k / K and R(phi) = exp(-i phi I_z): the K rotated
    copies form one stack and one product with the (2N+1, K) weights
    exp(i n phi_k) / K yields every order.  Returns the layout of
    :func:`decompose`.  Independent of it (no element classification,
    only the phases of ``basis.m``), so the two serve as cross-checking
    oracles.  Requires K > 2 N or orders alias.
    """
    _check_dim(rho, basis)
    rotation, conj_rotation, weights = _cycle_tables(basis, k_steps)
    d = basis.dim
    rotated = np.empty((k_steps, d, d), dtype=complex)
    out = np.empty((len(weights), d, d), dtype=complex)
    return _cycled_band(rotation, conj_rotation, weights, slice(None), rho.matrix,
                        rotated, out)


def _cycle_tables(basis: ZeemanBasis, k_steps: int) -> tuple:
    """The rotation phases exp(-i phi_k m) (K, d), their conjugates, and
    the weights exp(i n phi_k) / K (2N+1, K) of the orders of a stack."""
    if k_steps <= 2 * basis.n_spins:
        raise ValueError(
            f"k_steps={k_steps} aliases orders up to +-{basis.n_spins}; "
            f"need k_steps > {2 * basis.n_spins}"
        )
    phis = 2.0 * np.pi * np.arange(k_steps) / k_steps
    rotation = np.exp(-1j * np.outer(phis, basis.m))  # R(phi_k) is diagonal in the Zeeman basis
    weights = np.exp(1j * np.outer(_orders(basis.n_spins), phis)) / k_steps
    return rotation, rotation.conj(), weights


def _cycled_band(rotation: np.ndarray, conj_rotation: np.ndarray, weights: np.ndarray,
                 rows: slice, values: np.ndarray, rotated: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """The orders of ``values``, the rows ``rows`` of a state, by phase
    cycling: the K rotated copies R_k values R_k+ go into ``rotated``
    (K, rows, d), their weighted sums into ``out`` (2N+1, rows, d), both
    contiguous.  Returns ``out``."""
    np.multiply(rotation[:, rows, np.newaxis], conj_rotation[:, np.newaxis, :], out=rotated)
    rotated *= values
    np.matmul(weights, rotated.reshape(len(rotated), -1), out=out.reshape(len(out), -1))
    return out


def phase_cycle_check_bytes(basis: ZeemanBasis, k_steps: int) -> int:
    """Bytes of the tables and buffers :class:`PhaseCycleCheck` makes for
    ``basis`` and ``k_steps``, without making them."""
    d = basis.dim
    orders = 2 * basis.n_spins + 1
    rows = min(BAND_ROWS, d)
    tables = 16 * (2 * k_steps * d + orders * k_steps)
    # the classes (float), the mask (bool), direct, rotated and cycled
    # (complex) and the gaps (float)
    bands = rows * d * (8 + orders + 16 * (2 * orders + k_steps) + 8 * orders)
    return tables + bands


class PhaseCycleCheck:
    """The largest gap between the two order oracles over a state.

    Made once per basis and phase-step count: it holds the rotation
    phases and the order weights of :func:`phase_cycle_decompose`, and
    the buffers of one band of ``BAND_ROWS`` rows (all rows below that).
    :meth:`deviation` runs both band kernels over each band in turn, so
    a check holds neither order stack.  Refuses aliasing ``k_steps`` as
    :func:`phase_cycle_decompose` does.
    """

    def __init__(self, basis: ZeemanBasis, k_steps: int):
        self.basis = basis
        self.rotation, self.conj_rotation, self.weights = _cycle_tables(basis, k_steps)
        d = basis.dim
        orders = len(self.weights)
        rows = min(BAND_ROWS, d)
        self._classes = np.empty((rows, d))
        self._mask = np.empty((orders, rows, d), dtype=bool)
        self._direct = np.empty((orders, rows, d), dtype=complex)
        self._rotated = np.empty((k_steps, rows, d), dtype=complex)
        self._cycled = np.empty((orders, rows, d), dtype=complex)
        self._gaps = np.empty((orders, rows, d))

    def deviation(self, rho: DensityMatrix) -> float:
        """max |rho_n - rho'_n| over every order n and element, with rho_n
        classified directly and rho'_n phase-cycled; NaN if either is."""
        _check_dim(rho, self.basis)
        band = len(self._classes)
        worst = 0.0
        for start in range(0, self.basis.dim, band):
            rows = slice(start, start + band)
            values = rho.matrix[rows]
            direct = _direct_band(self.basis.m, rows, values, self._direct,
                                  self._classes, self._mask)
            cycled = _cycled_band(self.rotation, self.conj_rotation, self.weights, rows,
                                  values, self._rotated, self._cycled)
            np.subtract(direct, cycled, out=cycled)
            worst = np.maximum(worst, np.abs(cycled, out=self._gaps).max())
        return float(worst)
