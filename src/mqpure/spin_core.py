"""Zeeman product basis, spin operators and density-matrix containers.

Conventions used throughout the package:

- Basis states of an ``n``-spin cluster are indexed by their bit pattern
  read as an unsigned integer; bit ``i`` set means spin ``i`` is up.
  ``|d>`` (all spins down) is index 0 and ``|u>`` (all spins up) is
  index ``2**n - 1``.
- Spin operators are dimensionless with eigenvalues +-1/2 (hbar = 1).
- Deviation density matrices are not normalized to unit trace; the
  uniform identity background is kept implicit, so the thermal state is
  simply the collective ``I_z``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

MAX_SPINS = 12

HERMITICITY_RTOL = 1e-12

# side of the square tiles in which the exact adjoint check compares a
# matrix with its conjugate transpose, and rows per band in which the
# exact permutation check compares it with its permuted copy
ADJOINT_TILE = 128


class NumericalInvariantError(RuntimeError):
    """A quantity that must be conserved or bounded numerically is not."""


def require_finite(name: str, value: float, sign: str | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and, where ``sign`` is
    "positive" or "nonnegative", of that sign.  NaN, +-inf and integers
    beyond the float range fail."""
    signed = {None: True, "positive": value > 0, "nonnegative": value >= 0}[sign]
    if not (abs(value) <= sys.float_info.max and signed):
        wanted = "finite" if sign is None else f"{sign} and finite"
        raise ValueError(f"{name} must be {wanted}, got {value}")


def frozen_array(a, dtype=None) -> np.ndarray:
    """``a`` as a read-only array that owns its data: ``a`` itself where it
    is one already (of ``dtype``, if given), else a copy."""
    if (isinstance(a, np.ndarray) and a.base is None and not a.flags.writeable
            and (dtype is None or a.dtype == dtype)):
        return a
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _real_or_complex(a) -> np.ndarray:
    """``a`` as float64 if it is real, else as complex128."""
    a = np.asarray(a)
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


@dataclass(frozen=True)
class SpinSystem:
    """A cluster of spin-1/2 sites with pairwise couplings.

    Args:
        n_spins: Number of spin-1/2 sites (2 .. MAX_SPINS).
        couplings: Symmetric real matrix of pair couplings with a zero
            diagonal, each to 1e-12 of the largest off-diagonal coupling,
            in cyclic-frequency units normalized so the reference coupling
            is 1 (times evolve in units of its inverse).
        label: Free-form tag describing the geometry.
    """

    n_spins: int
    couplings: np.ndarray
    label: str = ""

    def __post_init__(self):
        if not 2 <= self.n_spins <= MAX_SPINS:
            raise ValueError(
                f"n_spins must be in [2, {MAX_SPINS}], got {self.n_spins}"
            )
        c = np.asarray(self.couplings, dtype=float)
        if c.shape != (self.n_spins, self.n_spins):
            raise ValueError(f"couplings must be {self.n_spins}x{self.n_spins}")
        if not np.isfinite(c).all():
            raise ValueError("couplings must be finite")
        # the Hamiltonians read only the upper triangle
        if not np.abs(c - c.T).max() <= 1e-12 * np.abs(c).max():
            raise ValueError("couplings must be symmetric to 1e-12 of the largest |coupling|")
        off_diagonal = np.abs(c[~np.eye(self.n_spins, dtype=bool)]).max()
        if not np.abs(np.diag(c)).max() <= 1e-12 * off_diagonal:
            raise ValueError("couplings must have a zero diagonal, to 1e-12 of the largest "
                             "off-diagonal |coupling|")
        object.__setattr__(self, "couplings", frozen_array(c))

    @property
    def dim(self) -> int:
        return 2**self.n_spins


@dataclass(frozen=True)
class ZeemanBasis:
    """Product basis of an n-spin cluster, indexed by bit pattern.

    ``m[s]`` is the total magnetization quantum number of state ``s``
    (sum of +-1/2 over sites).
    """

    n_spins: int
    m: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 2**self.n_spins

    @property
    def index_all_up(self) -> int:
        return self.dim - 1

    @property
    def index_all_down(self) -> int:
        return 0

    def coherence_orders(self) -> np.ndarray:
        """Integer matrix n[a, b] = m(a) - m(b) classifying every element."""
        return np.rint(np.subtract.outer(self.m, self.m)).astype(int)

    def spins_up(self) -> np.ndarray:
        """Number of spins up, m + N/2, of every state."""
        return np.rint(self.m + self.n_spins / 2).astype(int)

    def levels(self) -> list:
        """The ascending state indices of each spin-up count k = 0..N.

        Element (a, b) with a in level k and b in level l has coherence
        order k - l.
        """
        ups = self.spins_up()
        return [np.flatnonzero(ups == k) for k in range(self.n_spins + 1)]


def build_basis(n_spins: int) -> ZeemanBasis:
    """Construct the Zeeman basis for ``n_spins`` spin-1/2 sites.

    State index equals the bit pattern read as an unsigned integer with
    bit set meaning spin up, so the m table is fully determined by
    popcounts.
    """
    if not 1 <= n_spins <= MAX_SPINS:
        raise ValueError(f"n_spins must be in [1, {MAX_SPINS}], got {n_spins}")
    m = popcounts(np.arange(2**n_spins)) - n_spins / 2.0
    return ZeemanBasis(n_spins=n_spins, m=frozen_array(m))


def popcounts(states: np.ndarray) -> np.ndarray:
    """Number of set bits (spins up) of each nonnegative state index, as
    int64, so that counts may be subtracted."""
    return np.bitwise_count(np.asarray(states, dtype=np.int64)).astype(np.int64)


@dataclass(frozen=True)
class Operator:
    """A dense operator on the 2^N Zeeman basis.

    A real matrix is stored as float64, anything else as complex128.
    When ``hermitian`` is set the matrix is validated against its
    conjugate transpose within ``HERMITICITY_RTOL`` of its Frobenius norm.
    """

    matrix: np.ndarray = field(repr=False)
    hermitian: bool = True

    def __post_init__(self):
        mat = _real_or_complex(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        # a matrix equal to its adjoint passes the norm test below exactly,
        # so the norms are only taken when that test can fail
        if self.hermitian and not _equals_adjoint(mat):
            # dividing by the largest entry keeps the squared norms of finite
            # entries from overflowing or underflowing to 0; between 1e-100
            # and 1e100 they cannot, so no scaled copy is made
            peak = np.abs(mat).max(initial=0.0)
            unit = mat / peak if peak > 1e100 or 0 < peak < 1e-100 else mat
            if np.linalg.norm(unit - unit.conj().T) > HERMITICITY_RTOL * np.linalg.norm(unit):
                raise ValueError("matrix flagged hermitian is not hermitian")
        object.__setattr__(self, "matrix", frozen_array(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def gather(self, rows, cols) -> np.ndarray:
        """The elements [r, c] for r in ``rows`` (a vector) and c in ``cols``
        (any shape), shaped (rows.size,) + cols.shape."""
        cols = np.asarray(cols)
        return self.matrix[np.reshape(rows, (-1,) + (1,) * cols.ndim), cols]

    def invariant(self, perm: np.ndarray, sign: int = 1) -> bool:
        """Whether matrix[perm][:, perm] equals sign * matrix exactly (NaN
        never does), compared a band of rows at a time."""
        mat = self.matrix
        for start in range(0, mat.shape[0], ADJOINT_TILE):
            rows = slice(start, start + ADJOINT_TILE)
            if not np.array_equal(np.take(mat[perm[rows]], perm, axis=1), sign * mat[rows]):
                return False
        return True


def _equals_adjoint(mat: np.ndarray) -> bool:
    """Whether ``mat`` equals its conjugate transpose exactly (NaN never does).

    Each tile on or above the diagonal is compared with the adjoint of
    its mirror tile, so no temporary is larger than a tile.
    """
    for i in range(0, mat.shape[0], ADJOINT_TILE):
        rows = slice(i, i + ADJOINT_TILE)
        for j in range(i, mat.shape[0], ADJOINT_TILE):
            cols = slice(j, j + ADJOINT_TILE)
            if not np.array_equal(mat[rows, cols], adjoint(mat[cols, rows])):
                return False
    return True


@dataclass(frozen=True)
class DensityMatrix(Operator):
    """Hermitian deviation state container.

    Deviation matrices may be traceless and indefinite: the identity
    background is implicit.
    """

    def __post_init__(self):
        if not self.hermitian:
            raise ValueError("density matrices must be hermitian")
        super().__post_init__()

    def purity(self) -> float:
        """Tr(rho^2), the conserved intensity measure."""
        return float(np.vdot(self.matrix, self.matrix).real)


@dataclass(frozen=True)
class SparseOperator:
    """A Hermitian operator on the 2^N Zeeman basis held as its nonzero elements.

    Element (rows[k], cols[k]) is values[k] and every other element is
    zero.  The elements are kept sorted by row and then column, each
    listed once, without zeros; real values are float64, others
    complex128.  They must equal their adjoint exactly (NaN included).
    No dense matrix is made: callers read the blocks they need
    (:meth:`gather`).
    """

    dim: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows, cols = (np.asarray(x, dtype=np.intp) for x in (self.rows, self.cols))
        values = _real_or_complex(self.values)
        if values.ndim != 1 or rows.shape != values.shape or cols.shape != values.shape:
            raise ValueError("rows, cols and values must be vectors of one length")
        if values.size and not (min(rows.min(), cols.min()) >= 0
                                and max(rows.max(), cols.max()) < self.dim):
            raise ValueError(f"element index out of range for dimension {self.dim}")
        keys = rows * self.dim + cols
        order = np.argsort(keys, kind="stable")
        if (np.diff(keys[order]) == 0).any():
            raise ValueError("an element is listed twice")
        order = order[values[order] != 0]
        rows, cols, values = rows[order], cols[order], values[order]
        # the adjoint's elements, (c, r, conj v), in the same sorted order
        mirror = np.lexsort((rows, cols))
        if not (np.array_equal(cols[mirror], rows) and np.array_equal(rows[mirror], cols)
                and np.array_equal(values[mirror].conj(), values, equal_nan=True)):
            raise ValueError("operator elements are not hermitian")
        for name, array in (("rows", rows), ("cols", cols), ("values", values)):
            object.__setattr__(self, name, frozen_array(array))

    @classmethod
    def of(cls, op: Operator | SparseOperator) -> SparseOperator:
        """``op`` itself, or the nonzeros of a dense :class:`Operator`.

        A dense operator's elements are read from its lower triangle, the
        half ``numpy.linalg.eigh`` reads, and mirrored with the real part
        of its diagonal, so that they equal their adjoint exactly.
        """
        if isinstance(op, SparseOperator):
            return op
        rows, cols = np.nonzero(op.matrix)
        lower = rows >= cols
        rows, cols = rows[lower], cols[lower]
        values = op.matrix[rows, cols]
        values[rows == cols] = values[rows == cols].real
        strict = rows > cols
        return cls(op.dim, np.concatenate([rows, cols[strict]]),
                   np.concatenate([cols, rows[strict]]),
                   np.concatenate([values, values[strict].conj()]))

    def gather(self, rows, cols) -> np.ndarray:
        """The elements [r, c] for r in ``rows`` (a vector) and c in ``cols``
        (any shape), shaped (rows.size,) + cols.shape; states may repeat.

        Each nonzero is written to every place of its row and of its
        column, so the result is the only array of its size made.
        """
        rows, cols = np.asarray(rows), np.asarray(cols)
        k, i = _places(rows, self.rows, self.dim)
        m, j = _places(cols.reshape(-1), self.cols[k], self.dim)
        out = np.zeros((rows.size, cols.size), dtype=self.values.dtype)
        out[i[m], j] = self.values[k[m]]
        return out.reshape((rows.size,) + cols.shape)

    def invariant(self, perm: np.ndarray, sign: int = 1) -> bool:
        """Whether op[perm][:, perm] equals sign * op exactly: perm maps the
        sorted nonzeros onto themselves, values times sign (NaN never does)."""
        keys = perm[self.rows] * self.dim + perm[self.cols]
        order = np.argsort(keys)
        return (np.array_equal(keys[order], self.rows * self.dim + self.cols)
                and np.array_equal(self.values[order], sign * self.values))

    def purity(self) -> float:
        """Tr(op^2), the sum of the squared magnitudes of the elements."""
        return float(np.vdot(self.values, self.values).real)


def _places(states: np.ndarray, wanted: np.ndarray, dim: int) -> tuple:
    """(k, place) for every place of ``states`` that holds ``wanted[k]``,
    k ascending; both hold states below ``dim``."""
    counts = np.bincount(states, minlength=dim)
    starts = np.cumsum(counts) - counts
    repeats = counts[wanted]
    k = np.repeat(np.arange(wanted.size), repeats)
    offsets = np.arange(k.size) - np.repeat(np.cumsum(repeats) - repeats, repeats)
    return k, np.argsort(states, kind="stable")[starts[wanted[k]] + offsets]


def thermal_state(basis: ZeemanBasis) -> SparseOperator:
    """High-temperature equilibrium deviation state: collective I_z, held as
    its diagonal m."""
    states = np.arange(basis.dim)
    return SparseOperator(basis.dim, states, states, basis.m)


def homq_coherence_state(basis: ZeemanBasis) -> SparseOperator:
    """Pure highest-order coherence i(|u><d| - |d><u|), order +-n_spins.

    This is the canonical filtered state, held as its two nonzero
    elements: +i at (u, d) and -i at (d, u).
    """
    up, down = basis.index_all_up, basis.index_all_down
    return SparseOperator(basis.dim, [up, down], [down, up], [1j, -1j])


class EigenBlock(NamedTuple):
    """Eigenpairs of a Hermitian matrix restricted to an invariant block.

    ``states`` are the Zeeman indices spanning the block; the columns of
    ``eigenvectors`` are real whenever the block is.

    A momentum sector block of a cyclic state permutation G of order L
    (``momentum`` k) is spanned by the vectors
    sqrt(p)/L sum_j exp(-2 pi i k j / L) G^j |a>, one per orbit
    representative a of period p with k p a multiple of L.  Its ``states``
    list L slices, slice j holding G^j of each representative, so an
    orbit shorter than L lists each of its states L/p times; ``scale``
    holds sqrt(p)/L per representative, and the eigenvectors are
    expressed over the representatives.  A plain block (the identity,
    L = 1, or no ``scale``) is one slice of its states.  Under the flip
    of every spin (L = 2) the sectors k = 0 and 1 are spanned by
    (|s> + |s'>)/sqrt(2) and (|s> - |s'>)/sqrt(2).
    """

    states: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    momentum: int = 0
    scale: np.ndarray | None = None


def cyclic_phases(order: int) -> np.ndarray:
    """exp(-2 pi i m / order) for m = 0 .. order - 1.

    Entry order - m is the exact conjugate of entry m, and the entries
    for m = 0 and 2 m = order are exactly 1 and -1.
    """
    phases = np.exp(-2j * np.pi * np.arange(order) / order)
    phases[0] = 1.0
    mirrored = np.arange(1, (order + 1) // 2)
    phases[order - mirrored] = phases[mirrored].conj()
    if order % 2 == 0:
        phases[order // 2] = -1.0
    return phases


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose, a plain transpose view for real matrices."""
    return a.conj().T if np.iscomplexobj(a) else a.T


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b`` that keeps real-by-complex products real.

    A real factor times a complex one runs as one real GEMM over the
    interleaved real and imaginary parts of the complex factor, instead
    of promoting the real factor to complex (half the flops).
    """
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return a @ b
    if np.iscomplexobj(a):
        return gemm(b.T, a.T).T
    b = np.ascontiguousarray(b, dtype=np.complex128)
    return (a @ b.view(np.float64)).view(np.complex128)
