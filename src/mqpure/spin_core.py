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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

MAX_SPINS = 12

HERMITICITY_RTOL = 1e-12

# side of the square tiles in which the exact adjoint check compares a
# matrix with its conjugate transpose
ADJOINT_TILE = 128


class NumericalInvariantError(RuntimeError):
    """A quantity that must be conserved or bounded numerically is not."""


def _frozen_array(a, dtype=None) -> np.ndarray:
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
        couplings: Symmetric real matrix of pair couplings, zero diagonal,
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
        if not np.allclose(c, c.T, atol=1e-12):
            raise ValueError("couplings must be symmetric")
        if np.abs(np.diag(c)).max(initial=0.0) > 1e-12:
            raise ValueError("couplings must have zero diagonal")
        object.__setattr__(self, "couplings", _frozen_array(c))

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
    return ZeemanBasis(n_spins=n_spins, m=_frozen_array(m))


def popcounts(states: np.ndarray) -> np.ndarray:
    """Number of set bits (spins up) of each nonnegative state index."""
    states = np.asarray(states, dtype=np.int64)
    counts = np.zeros_like(states)
    for bit in range(int(states.max(initial=0)).bit_length()):
        counts += (states >> bit) & 1
    return counts


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
        object.__setattr__(self, "matrix", _frozen_array(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
        return float(np.sum(np.abs(self.matrix) ** 2))


def thermal_state(basis: ZeemanBasis) -> DensityMatrix:
    """High-temperature equilibrium deviation state: collective I_z = diag(m)."""
    return DensityMatrix(matrix=np.diag(basis.m))


def homq_coherence_state(basis: ZeemanBasis) -> DensityMatrix:
    """Pure highest-order coherence i(|u><d| - |d><u|), order +-n_spins.

    This is the canonical filtered state: exactly two nonzero entries,
    +i at (u, d) and -i at (d, u).
    """
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    mat[basis.index_all_up, basis.index_all_down] = 1j
    mat[basis.index_all_down, basis.index_all_up] = -1j
    return DensityMatrix(matrix=mat)


class EigenBlock(NamedTuple):
    """Eigenpairs of a Hermitian matrix restricted to an invariant block.

    ``states`` are the Zeeman indices spanning the block; the columns of
    ``eigenvectors`` are expressed over those states only and are real
    whenever the block is.

    A spin-flip sector block (``flip`` +1 or -1, 0 for a plain block) is
    spanned by (|s> + flip |s'>)/sqrt(2), where s' is s with every spin
    flipped.  Its ``states`` list the states s and then their partners s'
    in the same order, and its eigenvectors are expressed over the s.
    """

    states: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    flip: int = 0

    @property
    def weights(self) -> np.ndarray:
        """Coefficient of each equal slice of ``states`` in the block's vectors.

        Over slice k of ``states``, an eigenvector of the full basis is
        ``weights[k]`` times the matching column of ``eigenvectors``.
        """
        if self.flip == 0:
            return np.ones(1)
        return np.array([1.0, self.flip]) / np.sqrt(2.0)


def eigh_blocks(matrix: np.ndarray, groups) -> tuple:
    """Diagonalize ``matrix`` on each group of states (ascending per block).

    The caller guarantees that the groups partition the states and that
    ``matrix`` has no element between two different groups.
    """
    blocks = []
    for states in groups:
        values, vectors = np.linalg.eigh(matrix[np.ix_(states, states)])
        blocks.append(EigenBlock(_frozen_array(states), _frozen_array(values),
                                 _frozen_array(vectors)))
    return tuple(blocks)


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
