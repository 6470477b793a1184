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
from functools import reduce
from typing import NamedTuple

import numpy as np

MAX_SPINS = 12

HERMITICITY_RTOL = 1e-12

_HALF_SPIN = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex),
    "z": np.array([[-0.5, 0.0], [0.0, 0.5]], dtype=complex),
    "+": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "-": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
}


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
        if self.hermitian:
            # dividing by the largest entry keeps the norms of finite entries
            # from overflowing; below 1e100 they cannot, so no scaled copy is made
            peak = np.abs(mat).max(initial=0.0)
            unit = mat / peak if peak > 1e100 else mat
            if np.linalg.norm(unit - unit.conj().T) > HERMITICITY_RTOL * np.linalg.norm(unit):
                raise ValueError("matrix flagged hermitian is not hermitian")
        object.__setattr__(self, "matrix", _frozen_array(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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


def single_spin_op(basis: ZeemanBasis, site: int, kind: str) -> Operator:
    """Embed a single-site spin-1/2 operator into the full product space.

    Built by Kronecker products, independently of the bit-pattern
    Hamiltonians in :mod:`mqpure.hamiltonians`; the tests compare those
    with operators assembled from these.

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


def collective_op(basis: ZeemanBasis, kind: str) -> Operator:
    """Sum of ``single_spin_op`` over all sites."""
    total = sum(single_spin_op(basis, i, kind).matrix for i in range(basis.n_spins))
    return Operator(matrix=total, hermitian=kind in ("x", "y", "z"))


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
    """

    states: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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
