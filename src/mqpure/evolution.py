"""Exact unitary propagation and observable sweeps over a time grid.

Propagation uses one Hermitian eigendecomposition per Hamiltonian, which
is exact for time-independent generators and lets a whole sweep reuse a
single factorization.  The decomposition is kept per invariant block:
a Hamiltonian with no element between even- and odd-popcount states
(the double-quantum one flips spins in pairs) splits into two half-size
real blocks, and propagation only touches the block pairs in which the
state has nonzero elements.

Couplings are cyclic frequencies, so the default propagation phase for a
dimensionless time t (units of the inverse reference coupling) is
2*pi*H*t.  Pass ``unit="angular"`` to interpret matrix elements as
angular frequencies instead (phase H*t); the cyclic default is the
convention under which the benchmark six-spin ring behavior is
reproduced.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .spin_core import (
    DensityMatrix,
    Operator,
    ZeemanBasis,
    _frozen_array,
    adjoint,
    eigh_blocks,
    embed_blocks,
    gemm,
    popcounts,
)

TWO_PI = 2.0 * np.pi

_UNIT_SCALES = {"cyclic": TWO_PI, "angular": 1.0}

Extractor = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a Hermitian operator, kept per invariant block.

    ``blocks`` is a tuple of :class:`~mqpure.spin_core.EigenBlock` whose
    states partition the basis.  The dense views ``eigenvalues``
    (ascending over all blocks) and ``eigenvectors`` (orthonormal columns
    in the same order, zero outside their block) are assembled on first
    use; degenerate subspaces come out in the deterministic order produced
    by the dense symmetric solver on each block.
    """

    blocks: tuple = field(repr=False)

    @property
    def dim(self) -> int:
        return sum(block.states.size for block in self.blocks)

    @cached_property
    def _order(self) -> np.ndarray:
        values = np.concatenate([block.eigenvalues for block in self.blocks])
        return np.argsort(values, kind="stable")

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        values = np.concatenate([block.eigenvalues for block in self.blocks])
        return _frozen_array(values[self._order])

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        return _frozen_array(embed_blocks(self.blocks, self.dim)[:, self._order])


def diagonalize(h: Operator) -> EigenSystem:
    """Eigendecompose a Hermitian operator (ascending eigenvalues).

    When every element between an even- and an odd-popcount state is
    exactly zero, the two parity blocks are diagonalized separately;
    otherwise the whole matrix is one block.
    """
    if not h.hermitian:
        raise ValueError("diagonalize requires an operator flagged hermitian")
    odd = popcounts(np.arange(h.dim)) & 1 == 1
    groups = (np.arange(h.dim),)
    if odd.any() and not h.matrix[np.ix_(~odd, odd)].any():
        groups = (np.flatnonzero(~odd), np.flatnonzero(odd))
    return EigenSystem(blocks=eigh_blocks(h.matrix, groups))


def _phase_scale(unit: str) -> float:
    try:
        return _UNIT_SCALES[unit]
    except KeyError:
        raise ValueError(f"unknown frequency unit {unit!r}") from None


def _as_eigensystem(h: Operator | EigenSystem) -> EigenSystem:
    return h if isinstance(h, EigenSystem) else diagonalize(h)


def _eigenbasis_parts(rho: DensityMatrix, eig: EigenSystem) -> list:
    """The nonzero block pairs of rho, moved into the eigenbasis.

    Returns (flat, a, b, V_a+ rho_ab V_b) for every pair of blocks a, b
    whose part of rho is not identically zero.  ``flat`` places the
    transposed pair block in the raveled dense matrix: that is the layout
    in which :func:`_propagate` gets the block out of its last product.
    """
    if eig.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, hamiltonian {eig.dim}")
    parts = []
    for a in eig.blocks:
        for b in eig.blocks:
            part = rho.matrix[np.ix_(a.states, b.states)]
            if part.any():
                moved = gemm(gemm(adjoint(a.eigenvectors), part), b.eigenvectors)
                flat = (b.states[:, np.newaxis] + rho.dim * a.states[np.newaxis, :]).ravel()
                parts.append((flat, a, b, moved))
    return parts


def _propagate(parts: list, dim: int, phase: float) -> np.ndarray:
    """Dense sum over block pairs of V_a e^{-i phase E_a} X_ab e^{i phase E_b} V_b+."""
    rho_t = np.zeros((dim, dim), dtype=complex)
    flat_rho_t = rho_t.ravel()
    for flat, a, b, moved in parts:
        left = np.exp(-1j * phase * a.eigenvalues)
        right = np.exp(1j * phase * b.eigenvalues)
        rotated = moved * np.outer(left, right)
        block = gemm(gemm(a.eigenvectors, rotated), adjoint(b.eigenvectors))
        # with real eigenvectors, gemm returns the transpose of a
        # C-contiguous product, so block.T ravels without a copy
        flat_rho_t[flat] = block.T.ravel()
    return rho_t


def evolve(
    rho: DensityMatrix,
    h: Operator | EigenSystem,
    t: float,
    unit: str = "cyclic",
) -> DensityMatrix:
    """Propagate rho(t) = U rho U+ with U = exp(-i * scale * H * t).

    Args:
        rho: Deviation state to propagate.
        h: Hamiltonian, or a precomputed :class:`EigenSystem` to reuse.
        t: Time, negative for backward evolution (exp(-i(-H)t) equals
            exp(-iH(-t)), so reversal reuses the forward eigensystem).
        unit: "cyclic" (phase 2*pi*H*t, default) or "angular" (phase H*t).
    """
    eig = _as_eigensystem(h)
    scale = _phase_scale(unit)
    mat = _propagate(_eigenbasis_parts(rho, eig), rho.dim, scale * t)
    mat = 0.5 * (mat + mat.conj().T)  # strip roundoff asymmetry
    return DensityMatrix(matrix=mat)


@dataclass(frozen=True)
class SweepTable:
    """Named observable values on a strictly increasing time grid."""

    times: np.ndarray = field(repr=False)
    columns: dict = field(repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.size == 0:
            raise ValueError("sweep grid is empty")
        if times.size > 1 and np.diff(times).min() <= 0:
            raise ValueError("sweep grid must be strictly increasing")
        for name, col in self.columns.items():
            if len(col) != times.size:
                raise ValueError(f"column {name!r} length does not match grid")
        object.__setattr__(self, "times", _frozen_array(times))
        object.__setattr__(
            self, "columns", {k: _frozen_array(v, float) for k, v in self.columns.items()}
        )

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValueError(f"no observable named {name!r}")
        return self.columns[name]

    def to_csv(self, path: str | Path) -> None:
        """Write `t` plus one column per observable, with a header row."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            names = list(self.columns)
            writer.writerow(["t"] + names)
            for k, t in enumerate(self.times):
                writer.writerow([repr(float(t))] + [repr(float(self.columns[n][k])) for n in names])


def sweep(
    rho0: DensityMatrix,
    h: Operator | EigenSystem,
    times: np.ndarray,
    observables: Mapping[str, Extractor],
    unit: str = "cyclic",
) -> SweepTable:
    """Evaluate extractors on rho(t) across a time grid.

    The Hamiltonian is diagonalized once and rho0 is moved into its
    eigenbasis once; each grid point applies the spectral propagator to
    the nonzero block pairs and hands the dense rho(t) (Zeeman basis) to
    every extractor.
    """
    eig = _as_eigensystem(h)
    parts = _eigenbasis_parts(rho0, eig)
    times = np.asarray(times, dtype=float)
    scale = _phase_scale(unit)
    data = {name: np.empty(times.size) for name in observables}
    for k, t in enumerate(times):
        rho_t = _propagate(parts, rho0.dim, scale * t)
        for name, extract in observables.items():
            data[name][k] = extract(rho_t)
    return SweepTable(times=times, columns=data)


def mq_intensity_extractor(
    basis: ZeemanBasis, n: int, normalize: float | None = None
) -> Extractor:
    """Observable: intensity of coherence order n (paired with -n for n > 0).

    Order 0 gives Tr(rho_0^2); positive n gives 2 * Tr(rho_n rho_n+), so
    the sum over n >= 0 equals Tr(rho^2).  ``normalize`` divides the
    result, e.g. by the initial-state purity to get Fig.-style fractions.
    """
    if not 0 <= n <= basis.n_spins:
        raise ValueError(f"order {n} out of range [0, {basis.n_spins}]")
    mask = basis.coherence_orders() == n
    weight = 1.0 if n == 0 else 2.0
    denom = 1.0 if normalize is None else normalize

    def extract(rho_t: np.ndarray) -> float:
        return weight * float(np.sum(np.abs(rho_t[mask]) ** 2)) / denom

    return extract


def diag_pair_extractor(basis: ZeemanBasis, normalize: float | None = None) -> Extractor:
    """Observable: |rho_uu|^2 + |rho_dd|^2 for the all-up/all-down pair."""
    up, down = basis.index_all_up, basis.index_all_down
    denom = 1.0 if normalize is None else normalize

    def extract(rho_t: np.ndarray) -> float:
        return (abs(rho_t[up, up]) ** 2 + abs(rho_t[down, down]) ** 2) / denom

    return extract


def population_extractor(state: int) -> Extractor:
    """Observable: diagonal element (population) of one Zeeman state."""

    def extract(rho_t: np.ndarray) -> float:
        return float(rho_t[state, state].real)

    return extract
