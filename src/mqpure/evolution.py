"""Exact unitary propagation and observable sweeps over a time grid.

Propagation uses one Hermitian eigendecomposition per Hamiltonian, which
is exact for time-independent generators and lets a whole sweep reuse a
single factorization.  The decomposition is kept per invariant block:
a Hamiltonian with no element between even- and odd-popcount states
(the double-quantum one flips spins in pairs) splits into two half-size
real blocks.  At even N the flip of every spin keeps popcount parity, and
a Hamiltonian it leaves unchanged (the double-quantum and the secular one,
for any couplings) splits each parity block again into quarter-size
sectors of flip parity +1 and -1.  Propagation only touches the block
pairs in which the state has nonzero elements; the thermal state I_z
changes sign under the flip, so it has none between sectors of equal
flip parity.

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
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .spin_core import (
    DensityMatrix,
    EigenBlock,
    Operator,
    ZeemanBasis,
    _frozen_array,
    adjoint,
    eigh_blocks,
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
    vectors together form an orthonormal basis; each block's eigenvalues
    ascend.
    """

    blocks: tuple = field(repr=False)

    @property
    def dim(self) -> int:
        return sum(block.eigenvalues.size for block in self.blocks)


def diagonalize(h: Operator) -> EigenSystem:
    """Eigendecompose a Hermitian operator (ascending within each block).

    When every element between an even- and an odd-popcount state is
    exactly zero, the two parity blocks are diagonalized separately;
    otherwise the whole matrix is one block.  When, in addition, the flip
    of every spin (state s to 2^N - 1 - s, the reversal of the index
    order) keeps parity, which it does at even N, and leaves the matrix
    exactly unchanged, each parity block splits into the two sectors
    spanned by (|s> + |s'>)/sqrt(2) and (|s> - |s'>)/sqrt(2), so there
    are four blocks.
    """
    if not h.hermitian:
        raise ValueError("diagonalize requires an operator flagged hermitian")
    mat = h.matrix
    odd = popcounts(np.arange(h.dim)) & 1 == 1
    if not odd.any() or mat[np.ix_(~odd, odd)].any():
        return EigenSystem(blocks=eigh_blocks(mat, (np.arange(h.dim),)))
    groups = (np.flatnonzero(~odd), np.flatnonzero(odd))
    # the flip, which reverses the index order, keeps parity only at even N
    if not np.array_equal(odd, odd[::-1]) or not np.array_equal(mat, mat[::-1, ::-1]):
        return EigenSystem(blocks=eigh_blocks(mat, groups))
    return EigenSystem(blocks=_flip_sector_blocks(mat, groups))


def _flip_sector_blocks(matrix: np.ndarray, groups) -> tuple:
    """Eigenblocks of the flip-parity sectors of each flip-closed group.

    With H[s', t'] = H[s, t], the sector of flip parity f has the matrix
    H[s, t] + f H[s, t'] over the states s < s' of the group.
    """
    partner = matrix.shape[0] - 1
    blocks = []
    for group in groups:
        states = group[group < partner - group]
        direct = matrix[np.ix_(states, states)]
        crossed = matrix[np.ix_(states, partner - states)]
        support = _frozen_array(np.concatenate([states, partner - states]))
        for flip in (1, -1):
            values, vectors = np.linalg.eigh(direct + flip * crossed)
            blocks.append(EigenBlock(support, _frozen_array(values), _frozen_array(vectors),
                                     flip))
    return tuple(blocks)


def _phase_scale(unit: str) -> float:
    try:
        return _UNIT_SCALES[unit]
    except KeyError:
        raise ValueError(f"unknown frequency unit {unit!r}") from None


def _as_eigensystem(h: Operator | EigenSystem) -> EigenSystem:
    return h if isinstance(h, EigenSystem) else diagonalize(h)


class _Part(NamedTuple):
    """One nonzero block pair (a, b) of a Hermitian state, a not after b.

    ``moved`` is the pair's part in the eigenbasis, halved when a is b.
    ``weights`` is outer(a.weights, b.weights).  ``flat`` places the
    pair's dense block over (a.states, b.states) in the raveled dense
    matrix, and ``mirror`` places the transposed conjugate of the block,
    which is the (b, a) pair, over (b.states, a.states); it is None when
    a and b span the same states, where the (b, a) pair lands on the
    block itself.  ``add`` is set when an earlier pair writes the same
    elements.
    """

    a: EigenBlock
    b: EigenBlock
    moved: np.ndarray
    weights: np.ndarray
    flat: np.ndarray
    mirror: np.ndarray | None
    add: bool


def _fold(matrix: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Weighted sum of the equal slices of ``matrix`` along ``axis``.

    Two slices that are exact negatives of each other cancel exactly.
    """
    return sum(w * part for w, part in zip(weights, np.split(matrix, weights.size, axis=axis)))


def _eigenbasis_parts(rho: DensityMatrix, eig: EigenSystem) -> list:
    """The nonzero block pairs of rho, moved into the eigenbasis.

    rho is Hermitian, so its (b, a) pair is the adjoint of its (a, b)
    pair, and only the pairs with a not after b are kept.  A pair is
    skipped when rho has no nonzero element between the two blocks'
    basis vectors; for spin-flip sectors those are the (|s> + flip |s'>)
    combinations, so a state that is odd under the flip has no element
    between sectors of equal flip parity.
    """
    if eig.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, hamiltonian {eig.dim}")
    parts, written = [], set()
    for i, a in enumerate(eig.blocks):
        for b in eig.blocks[i:]:
            part = rho.matrix[np.ix_(a.states, b.states)]
            part = _fold(_fold(part, a.weights, 0), b.weights, 1)
            if not part.any():
                continue
            moved = gemm(gemm(adjoint(a.eigenvectors), part), b.eigenvectors)
            key = (a.states.tobytes(), b.states.tobytes())
            mirror = None
            if key[0] != key[1]:
                mirror = (a.states[:, np.newaxis] + rho.dim * b.states).ravel()
            parts.append(_Part(
                a, b, 0.5 * moved if a is b else moved, np.outer(a.weights, b.weights),
                (rho.dim * a.states[:, np.newaxis] + b.states).ravel(), mirror, key in written,
            ))
            written.add(key)
    return parts


def _spread(y: np.ndarray, weights: np.ndarray, with_adjoint: bool) -> np.ndarray:
    """kron(weights, y), plus its adjoint when ``with_adjoint`` is set.

    Every entry of ``weights`` has the same magnitude, so quadrant (i, j)
    of the sum is weights[i, j] times y + y+ or y - y+.
    """
    (la, lb), (ra, rb) = weights.shape, y.shape
    out = np.empty((la, ra, lb, rb), dtype=complex)
    if with_adjoint:
        y_adjoint = adjoint(y)
        sym, anti = y + y_adjoint, y - y_adjoint
    for i in range(la):
        for j in range(lb):
            source = y
            if with_adjoint:
                source = sym if weights[j, i] == weights[i, j] else anti
            np.multiply(source, weights[i, j], out=out[i, :, j, :])
    return out.reshape(la * ra, lb * rb)


def _propagate(parts: list, dim: int, phase: float) -> np.ndarray:
    """Dense rho(t), the sum over pairs of W_a e^{-i phase E_a} X_ab e^{i phase E_b} W_b+.

    W is a block's eigenvectors over its states.  Each kept pair also
    writes its adjoint, the (b, a) pair, so the result is exactly
    Hermitian.
    """
    rho_t = np.zeros((dim, dim), dtype=complex)
    flat_rho_t = rho_t.ravel()
    for a, b, moved, weights, flat, mirror, add in parts:
        left = np.exp(-1j * phase * a.eigenvalues)
        right = np.exp(1j * phase * b.eigenvalues)
        rotated = moved * np.outer(left, right)
        # with real eigenvectors gemm returns a transpose; one small copy
        # here keeps the spread and the row-by-row scatter contiguous
        y = np.ascontiguousarray(gemm(gemm(a.eigenvectors, rotated), adjoint(b.eigenvectors)))
        block = _spread(y, weights, mirror is None).ravel()
        writes = [(flat, block)] if mirror is None else [(flat, block), (mirror, block.conj())]
        for where, values in writes:
            if add:
                flat_rho_t[where] += values
            else:
                flat_rho_t[where] = values
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
    return DensityMatrix(matrix=_propagate(_eigenbasis_parts(rho, eig), rho.dim, scale * t))


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
    flat = np.flatnonzero(basis.coherence_orders() == n)
    weight = 1.0 if n == 0 else 2.0
    denom = 1.0 if normalize is None else normalize

    def extract(rho_t: np.ndarray) -> float:
        values = np.take(rho_t, flat)
        return weight * float(np.vdot(values, values).real) / denom

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
