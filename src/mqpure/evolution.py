"""Exact unitary propagation and observable sweeps over a time grid.

Propagation uses one Hermitian eigendecomposition per Hamiltonian, which
is exact for time-independent generators and lets a whole sweep reuse a
single factorization.  Each block is gathered from the Hamiltonian's
nonzero elements (:class:`~mqpure.spin_core.SparseOperator`), and the
symmetry checks compare those elements, sorted, with their permuted
copies, so no d x d matrix is made.  The decomposition is kept per
invariant block:
a Hamiltonian with no element between even- and odd-popcount states
(the double-quantum one flips spins in pairs) splits into two half-size
real blocks.  At even N the flip of every spin keeps popcount parity, and
a Hamiltonian it leaves unchanged (the double-quantum and the secular one,
for any couplings) splits each parity block again into quarter-size
sectors of flip parity +1 and -1.  Propagation only touches the block
pairs in which the state has nonzero elements; the thermal state I_z
changes sign under the flip, so it has none between sectors of equal
flip parity.

The state enters the eigenbasis from one gather per pair of block
supports (the two flip sectors of a parity share theirs), which each
block pair of that support pair folds.  A state is dense
(:class:`~mqpure.spin_core.DensityMatrix`) or, like the thermal state
diag(m), held as its nonzero elements; both give the same gathered
blocks.

Given a site symmetry (a cyclic relabelling sigma of the sites, found
from the couplings by :func:`~mqpure.hamiltonians.site_symmetry`) whose
state permutation P leaves the Hamiltonian exactly unchanged,
:func:`diagonalize` splits each parity block into momentum sectors
instead: sector k of the order-L cycle is spanned by
sqrt(p)/L sum_j exp(-2 pi i k j / L) P^j |a> over the orbit
representatives a whose period p allows k.  Each sector matrix is
folded from one (r, L, r) gather of H per parity.  A state that P leaves
exactly unchanged (the thermal state, the top-order coherence, every
state the pipeline evolves from them) has no element between different
momenta, so propagation runs sector by sector and :func:`evolve` writes
the dense result from the representatives' elements.  A sweep reads
each observable whose weight is constant on every pair of orbits (the
order intensities, ``diag_pair``, populations of the all-up and all-down
states) straight from the sector blocks.  Where the symmetry's
reflection also leaves the state and those weights unchanged, it maps
sector k onto sector -k with equal contributions, so only k = 0 .. L/2
run and the ones in between count twice.  Everything else falls back
exactly: a Hamiltonian that fails the check gets the parity and flip
blocks, and a state that P changes, or an observable that is not
constant on orbit pairs (``pop:<i>`` of another state, a single
off-diagonal element), runs on the eigensystem without sectors, built
on first use.

A sweep never assembles the dense rho(t).  Its observables are data
(:class:`Observable`: weighted matrix elements, squared or real part),
and it evaluates them in the block layout: for a chunk of time points at
once it rotates and transforms every block pair with two GEMMs, then
reduces each pair's block against precomputed per-element weights.
Those weights are placed through per-state tables, one observable at a
time, so the set-up holds no d x d scratch.  :func:`evolve` runs the
same kernel for one time point and writes each stack into the dense
matrix through the quadrant map the sweep reduces.

Couplings are cyclic frequencies, so the default propagation phase for a
dimensionless time t (units of the inverse reference coupling) is
2*pi*H*t.  Pass ``unit="angular"`` to interpret matrix elements as
angular frequencies instead (phase H*t); the cyclic default is the
convention under which the benchmark six-spin ring behavior is
reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .hamiltonians import SiteSymmetry
from .output import write_csv
from .spin_core import (
    DensityMatrix,
    EigenBlock,
    Operator,
    SparseOperator,
    ZeemanBasis,
    _frozen_array,
    adjoint,
    cyclic_phases,
    eigh_blocks,
    gemm,
    popcounts,
)

TWO_PI = 2.0 * np.pi

_UNIT_SCALES = {"cyclic": TWO_PI, "angular": 1.0}

# bytes of one complex (r_a, K, r_b) block-pair stack in a sweep; K, the
# number of time points per chunk, follows from the largest block pair
# (each momentum sector pair takes its own K)
CHUNK_BYTES = 1 << 17

# largest time grid ``time_grid`` builds
MAX_GRID_POINTS = 1_000_000


class _Orbits(NamedTuple):
    """The orbits of the basis states under the state permutation of a site cycle.

    ``table[o, j]`` is P^j of the representative (smallest state) of orbit
    o, for j below the order L of P; orbits ascend by representative.
    State s is ``table[of[s], step[s]]`` with ``step[s]`` below the orbit's
    ``period``.  ``shift`` is P and ``reflect`` the state permutation of
    the symmetry's reflection (None without one).
    """

    shift: np.ndarray
    reflect: np.ndarray | None
    table: np.ndarray
    of: np.ndarray
    step: np.ndarray
    period: np.ndarray

    @property
    def order(self) -> int:
        return self.table.shape[1]

    def members(self, block: EigenBlock) -> np.ndarray:
        """The orbits of a momentum sector block, in its order."""
        return self.of[block.states[:block.eigenvalues.size]]


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a Hermitian operator, kept per invariant block.

    ``blocks`` is a tuple of :class:`~mqpure.spin_core.EigenBlock` whose
    vectors together form an orthonormal basis; each block's eigenvalues
    ascend.  When they are momentum sectors, ``orbits`` describes the
    site symmetry behind them, the blocks come group by group with k
    ascending from 0 in each, and ``plain`` builds the eigensystem
    without momentum sectors for states the sectors cannot carry.
    """

    blocks: tuple = field(repr=False)
    orbits: _Orbits | None = field(default=None, repr=False)
    plain: Callable[[], EigenSystem] | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return sum(block.eigenvalues.size for block in self.blocks)

    @cached_property
    def fallback(self) -> EigenSystem:
        """The eigensystem without momentum sectors (built once, on first use)."""
        return self if self.plain is None else self.plain()

    def negated(self) -> EigenSystem:
        """The eigensystem of -H, in O(dim): each block's eigenvalues negated
        and, with its vectors, reversed so that they still ascend."""
        blocks = tuple(block._replace(eigenvalues=-block.eigenvalues[::-1],
                                      eigenvectors=block.eigenvectors[:, ::-1])
                       for block in self.blocks)
        plain = None if self.plain is None else (lambda: self.fallback.negated())
        return EigenSystem(blocks, self.orbits, plain)


def diagonalize(h: Operator | SparseOperator,
                symmetry: SiteSymmetry | None = None) -> EigenSystem:
    """Eigendecompose a Hermitian operator (ascending within each block).

    Every block is gathered from the operator's nonzero elements; a dense
    :class:`Operator` is turned into them once (``SparseOperator.of``).
    When no nonzero element joins an even- and an odd-popcount state, the
    two parity blocks are diagonalized separately; otherwise the whole
    operator is one block.

    Given a site ``symmetry`` whose state permutation P leaves the operator
    exactly unchanged (H[P][:, P] == H, its sorted nonzeros mapped onto
    themselves), each block splits into its momentum sectors (see
    :func:`_momentum_blocks`).  Otherwise, when the flip of every spin
    (state s to 2^N - 1 - s, the reversal of the index order) keeps
    parity, which it does at even N, and leaves the operator exactly
    unchanged, each parity block splits into the two sectors spanned by
    (|s> + |s'>)/sqrt(2) and (|s> - |s'>)/sqrt(2), so there are four
    blocks.
    """
    if isinstance(h, Operator) and not h.hermitian:
        raise ValueError("diagonalize requires an operator flagged hermitian")
    h = SparseOperator.of(h)
    odd = popcounts(np.arange(h.dim)) & 1 == 1
    if not odd.any() or (odd[h.rows] != odd[h.cols]).any():
        groups = (np.arange(h.dim),)
    else:
        groups = (np.flatnonzero(~odd), np.flatnonzero(odd))
    if symmetry is not None:
        orbits = _orbits(symmetry, h.dim)
        if h.invariant(orbits.shift):
            return EigenSystem(_momentum_blocks(h, groups, orbits), orbits,
                               partial(diagonalize, h))
    # the flip, which reverses the index order, keeps parity only at even N
    if (len(groups) == 1 or not np.array_equal(odd, odd[::-1])
            or not h.invariant(np.arange(h.dim)[::-1])):
        return EigenSystem(blocks=eigh_blocks(h, groups))
    return EigenSystem(blocks=_flip_sector_blocks(h, groups))


def _state_permutation(sites: np.ndarray, dim: int) -> np.ndarray:
    """The basis-state permutation that moves the spin on site i to site sites[i]."""
    sites = np.asarray(sites)
    if sites.size != dim.bit_length() - 1 or not np.array_equal(np.sort(sites),
                                                                  np.arange(sites.size)):
        raise ValueError(f"site permutation {sites} does not fit dimension {dim}")
    states = np.arange(dim)
    moved = np.zeros(dim, dtype=np.intp)
    for site, target in enumerate(sites):
        moved |= ((states >> site) & 1) << target
    return moved


def _orbits(symmetry: SiteSymmetry, dim: int) -> _Orbits:
    shift = _state_permutation(symmetry.cycle, dim)
    reflect = (None if symmetry.reflection is None
               else _state_permutation(symmetry.reflection, dim))
    powers = [np.arange(dim)]
    while not np.array_equal(next_power := shift[powers[-1]], powers[0]):
        powers.append(next_power)
    powers = np.array(powers)
    representative = powers.min(axis=0)
    reps = np.unique(representative)
    table = powers[:, reps].T
    returns = table[:, 1:] == table[:, :1]
    period = np.where(returns.any(axis=1), returns.argmax(axis=1) + 1, table.shape[1])
    step = np.zeros(dim, dtype=np.intp)
    for j in range(table.shape[1] - 1, -1, -1):
        step[table[:, j]] = j
    of = np.searchsorted(reps, representative)
    return _Orbits(shift, reflect, table, of, step, period)


def _sector_reader(op: Operator | SparseOperator, orbits: _Orbits, outer: np.ndarray,
                   inner: np.ndarray) -> tuple:
    """The (r, L, r) gather op[a, P^l b], a and b the representatives of
    the ``outer`` and ``inner`` orbits, and sector(k), its momentum-k matrix
    L c_a c_b sum_l exp(-2 pi i k l / L) op[a, P^l b] over the a and b
    whose period allows k (c = sqrt(period) / L), real where 2k is a
    multiple of L.  The phase of l is looked up at k l mod L, so it repeats
    exactly with any period of l that k allows."""
    order = orbits.order
    gathered = op.gather(orbits.table[outer, 0], orbits.table[inner].T)
    scale_a, scale_b = (np.sqrt(orbits.period[side]) / order for side in (outer, inner))

    def sector(k: int) -> np.ndarray:
        keep_a, keep_b = (k * orbits.period[side] % order == 0 for side in (outer, inner))
        phases = cyclic_phases(order)[k * np.arange(order) % order]
        if 2 * k % order == 0:
            phases = phases.real
        summed = np.einsum("alb,l->ab", gathered[keep_a][:, :, keep_b], phases)
        return summed * (order * np.outer(scale_a[keep_a], scale_b[keep_b]))

    return gathered, sector


def _group_orbits(groups, orbits: _Orbits) -> list:
    """The orbits whose states lie in each group, ascending."""
    group_of = np.empty(orbits.of.size, dtype=np.intp)
    for g, group in enumerate(groups):
        group_of[group] = g
    owner = group_of[orbits.table[:, 0]]
    return [np.flatnonzero(owner == g) for g in range(len(groups))]


def _momentum_blocks(h: SparseOperator, groups, orbits: _Orbits) -> tuple:
    """Eigenblocks of the momentum sectors of each group.

    With H[P s, P t] = H[s, t], sector k has the matrix
    L c_a c_b sum_l exp(-2 pi i k l / L) H[a, P^l b] over the
    representatives a, b allowed in it, c = sqrt(period)/L: one gather
    of (r, L, r) elements per group.  For a real H sector L - k is the
    conjugate of sector k and reuses its eigenpairs.
    """
    order = orbits.order
    blocks = []
    for members in _group_orbits(groups, orbits):
        table = orbits.table[members]
        _, sector = _sector_reader(h, orbits, members, members)
        scale = np.sqrt(orbits.period[members]) / order
        sectors = {}
        for k in range(order):
            keep = k * orbits.period[members] % order == 0
            if not keep.any():
                continue
            if 2 * k > order and not np.iscomplexobj(h.values):
                values, vectors = sectors[order - k]
                vectors = vectors.conj()
            else:
                values, vectors = np.linalg.eigh(sector(k))
                sectors[k] = values, vectors
            blocks.append(EigenBlock(_frozen_array(table[keep].T.ravel()), _frozen_array(values),
                                     _frozen_array(vectors), momentum=k,
                                     scale=_frozen_array(scale[keep])))
    return tuple(blocks)


def _flip_sector_blocks(h: SparseOperator, groups) -> tuple:
    """Eigenblocks of the flip-parity sectors of each flip-closed group.

    With H[s', t'] = H[s, t], the sector of flip parity f has the matrix
    H[s, t] + f H[s, t'] over the states s < s' of the group.
    """
    partner = h.dim - 1
    blocks = []
    for group in groups:
        states = group[group < partner - group]
        direct = h.gather(states, states)
        crossed = h.gather(states, partner - states)
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


def _as_eigensystem(h: Operator | SparseOperator | EigenSystem) -> EigenSystem:
    return h if isinstance(h, EigenSystem) else diagonalize(h)


def time_grid(t_max: float, t_step: float) -> np.ndarray:
    """The grid 0, t_step, 2 t_step, ... up to t_max (within half a step).

    The points are counted before any is allocated; a grid of more than
    ``MAX_GRID_POINTS`` points is a ``ValueError``.
    """
    if not (t_max > 0 and t_step > 0):
        raise ValueError("sweep bounds must be positive")
    stop = t_max + 0.5 * t_step
    count = stop / t_step  # np.arange makes ceil(count) points
    if not count <= MAX_GRID_POINTS:
        points = math.ceil(count) if math.isfinite(count) else count
        raise ValueError(
            f"time grid of t_max {t_max} and t_step {t_step} would have {points} points; "
            f"the limit is {MAX_GRID_POINTS}"
        )
    return np.arange(0.0, stop, t_step)


class _Part(NamedTuple):
    """One nonzero block pair (a, b) of a Hermitian state, a not after b.

    ``moved`` is the pair's part in the eigenbasis, halved when a is b.
    """

    a: EigenBlock
    b: EigenBlock
    moved: np.ndarray


def _fold(matrix: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Weighted sum of the equal slices of ``matrix`` along ``axis``.

    Two slices that are exact negatives of each other cancel exactly.
    """
    return sum(w * part for w, part in zip(weights, np.split(matrix, weights.size, axis=axis)))


def _check_dim(rho: DensityMatrix | SparseOperator, eig: EigenSystem) -> None:
    if eig.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, hamiltonian {eig.dim}")


def _eigenbasis_parts(rho: DensityMatrix | SparseOperator, eig: EigenSystem) -> list:
    """The nonzero block pairs of rho, moved into the eigenbasis.

    rho is Hermitian, so its (b, a) pair is the adjoint of its (a, b)
    pair, and only the pairs with a not after b are kept.  A pair is
    skipped when rho has no nonzero element between the two blocks'
    basis vectors; for spin-flip sectors those are the (|s> + flip |s'>)
    combinations, so a state that is odd under the flip has no element
    between sectors of equal flip parity.

    The two flip sectors of a parity share their states, so rho is
    gathered once per pair of distinct supports and each block pair folds
    that one gather; the pairs of a support pair come out consecutively.
    """
    _check_dim(rho, eig)
    supports = {}
    for block in eig.blocks:
        supports.setdefault(block.states.tobytes(), []).append(block)
    supports = list(supports.values())
    parts = []
    for i, left in enumerate(supports):
        for right in supports[i:]:
            gathered = rho.gather(left[0].states, right[0].states)
            if not gathered.any():
                continue
            for k, a in enumerate(left):
                for b in right[k:] if right is left else right:
                    part = _fold(_fold(gathered, a.weights, 0), b.weights, 1)
                    if part.any():
                        moved = gemm(gemm(adjoint(a.eigenvectors), part), b.eigenvectors)
                        parts.append(_Part(a, b, 0.5 * moved if a is b else moved))
    return parts


def _layout(parts: list) -> list:
    """Where the block pairs land in the dense matrix, per group of pairs.

    Quadrant (i, j) of a pair's dense block over (a.states, b.states),
    rows from slice i of a.states and columns from slice j of b.states,
    is w[i, j] y, with w = outer(a.weights, b.weights) and y the pair's
    (r_a, r_b) block from :func:`_transform`; the (b, a) pair adds the
    adjoint over (b.states, a.states).  Where a and b span the same
    states that adjoint lands on the block itself, and the quadrant is
    w[i, j] times y + y+ (w symmetric) or y - y+ (w antisymmetric).
    Pairs that span the same states form a group and are summed.

    Returns (members, stacks) per group.  ``stacks`` maps the terms
    (member position, sign, coefficient) of a stack, the sum of
    coefficient times y (sign 0), y + y+ (1) or y - y+ (-1), to the
    quadrants (scale, i, j) it fills: the quadrant is scale times the
    stack, and where the group spans different states on its two sides
    the mirror quadrant over (b.states, a.states) is its adjoint.
    Quadrants whose sums are proportional share a stack, and every
    element is placed at most once.
    """
    groups = {}
    for part in parts:
        groups.setdefault((part.a.states.tobytes(), part.b.states.tobytes()), []).append(part)
    layout = []
    for (left, right), members in groups.items():
        weights = [np.outer(part.a.weights, part.b.weights) for part in members]
        stacks = {}
        for i, j in np.ndindex(weights[0].shape):
            lead = weights[0][i, j]
            key = tuple((k, 0 if left != right else (1 if w[j, i] == w[i, j] else -1),
                         w[i, j] / lead) for k, w in enumerate(weights))
            stacks.setdefault(key, []).append((lead, i, j))
        layout.append((members, stacks))
    return layout


def _transform(parts: list, phases: np.ndarray) -> list:
    """y = V_a e^{-i phase E_a} X_ab e^{i phase E_b} V_b+ of each pair, per phase.

    V is a block's eigenvectors over its first slice of states.  Each
    result is a stack shaped (r_a, K, r_b) for K phases; two GEMMs per
    pair cover the whole stack.
    """
    out = []
    for part in parts:
        a, b = part.a, part.b
        left = np.exp(-1j * np.multiply.outer(a.eigenvalues, phases))
        y = part.moved[:, np.newaxis, :] * left[:, :, np.newaxis]
        y *= np.exp(1j * np.multiply.outer(phases, b.eigenvalues))
        r_a, k, r_b = y.shape
        y = gemm(a.eigenvectors, y.reshape(r_a, k * r_b)).reshape(r_a * k, r_b)
        out.append(gemm(y, adjoint(b.eigenvectors)).reshape(r_a, k, r_b))
    return out


def _stack(terms: tuple, ys: list, out: np.ndarray) -> None:
    """Write the sum over ``terms`` of coefficient times y, y + y+ or y - y+
    (see :func:`_layout`) into ``out``, shaped like each y.

    y+ is conjugated straight from a transposed view of y into ``out``,
    so no conjugate copy is made.
    """
    for n, (k, sign, coefficient) in enumerate(terms):
        y = ys[k]
        term = out if n == 0 else np.empty_like(out)
        if sign:
            np.conjugate(y.transpose(2, 1, 0), out=term)
            if sign > 0:
                term += y
            else:
                np.subtract(y, term, out=term)
        else:
            np.copyto(term, y)
        if coefficient != 1:
            term *= coefficient
        if n:
            out += term


def evolve(
    rho: DensityMatrix | SparseOperator,
    h: Operator | SparseOperator | EigenSystem,
    t: float,
    unit: str = "cyclic",
) -> DensityMatrix:
    """Propagate rho(t) = U rho U+ with U = exp(-i * scale * H * t).

    Args:
        rho: Deviation state to propagate, dense or as its nonzero elements.
        h: Hamiltonian, or a precomputed :class:`EigenSystem` to reuse.
        t: Time, negative for backward evolution (exp(-i(-H)t) equals
            exp(-iH(-t)), so reversal reuses the forward eigensystem).
        unit: "cyclic" (phase 2*pi*H*t, default) or "angular" (phase H*t).

    With momentum sectors, a state that the site cycle leaves exactly
    unchanged is propagated sector by sector (:func:`_sector_evolve`);
    any other state takes the eigensystem without sectors.
    """
    eig = _as_eigensystem(h)
    phase = np.array([_phase_scale(unit) * t])
    if eig.orbits is not None:
        _check_dim(rho, eig)
        if rho.invariant(eig.orbits.shift):
            return _sector_evolve(rho, eig, phase)
        eig = eig.fallback
    rho_t = np.zeros((rho.dim, rho.dim), dtype=complex)
    for members, stacks in _layout(_eigenbasis_parts(rho, eig)):
        a, b = members[0].a, members[0].b
        r_a, r_b = members[0].moved.shape
        mirrored = not np.array_equal(a.states, b.states)
        ys = _transform(members, phase)
        for terms, quadrants in stacks.items():
            stack = np.empty(ys[0].shape, dtype=complex)
            _stack(terms, ys, stack)
            stack = stack[:, 0, :]
            for scale, i, j in quadrants:
                rows, cols = a.states[i * r_a:(i + 1) * r_a], b.states[j * r_b:(j + 1) * r_b]
                values = scale * stack
                rho_t[np.ix_(rows, cols)] = values
                if mirrored:
                    rho_t[np.ix_(cols, rows)] = values.T.conj()
    return DensityMatrix(matrix=rho_t)


def propagate(
    vectors: np.ndarray,
    h: Operator | SparseOperator | EigenSystem,
    t: float,
    unit: str = "cyclic",
) -> np.ndarray:
    """U v for each column v of a (dim, r) matrix, U = exp(-i * scale * H * t).

    Each eigenblock moves the columns into its eigenbasis (the slices of
    its states folded with the conjugate weights, times ``scale`` per
    row, then V+), applies the phases and writes back slice by slice; no
    state repeats within a slice.  Blocks in which every column is zero
    are skipped, so exact zeros stay exact, and no d x d array is made.
    """
    eig = _as_eigensystem(h)
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or vectors.shape[0] != eig.dim:
        raise ValueError(f"vectors of shape {vectors.shape} do not fit dimension {eig.dim}")
    phase = _phase_scale(unit) * t
    out = np.zeros(vectors.shape, dtype=complex)
    for block in eig.blocks:
        gathered = vectors[block.states]
        if not gathered.any():
            continue
        scale = 1.0 if block.scale is None else block.scale[:, np.newaxis]
        moved = gemm(adjoint(block.eigenvectors), scale * _fold(gathered, block.weights.conj(), 0))
        moved = moved * np.exp(-1j * phase * block.eigenvalues)[:, np.newaxis]
        moved = scale * gemm(block.eigenvectors, moved)
        for states, weight in zip(np.split(block.states, block.weights.size), block.weights):
            out[states] += weight * moved
    return out


@dataclass(frozen=True)
class Observable:
    """A sweep observable: weight * sum_k f(rho.ravel()[flat[k]]).

    ``flat`` indexes elements of the raveled dense matrix (row * dim +
    column); an element listed twice counts twice.  f is |.|^2 when
    ``squared`` is set and the real part otherwise.
    """

    flat: np.ndarray = field(repr=False)
    weight: float = 1.0
    squared: bool = True

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=np.intp)
        if flat.ndim != 1 or (flat < 0).any():
            raise ValueError("observable elements must be a vector of nonnegative indices")
        object.__setattr__(self, "flat", _frozen_array(flat))


@dataclass(frozen=True)
class SweepTable:
    """Named observable values on a strictly increasing time grid.

    ``points`` holds the values at the extra times a sweep was asked
    for (see :func:`sweep`), as a table of its own; it is not written
    by :meth:`to_csv`.
    """

    times: np.ndarray = field(repr=False)
    columns: dict = field(repr=False)
    points: SweepTable | None = field(default=None, repr=False)

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
        write_csv(path, ["t", *self.columns], [self.times, *self.columns.values()])


class _Source(NamedTuple):
    """One (r_a, K, r_b) stack a sweep reduces, and what its elements weigh.

    ``terms`` define the stack as in :func:`_layout`; each of ``reads`` is
    (squared, weights, columns), where weights[p, q, c] weighs
    |stack[p, k, q]|^2 (squared) or its real part in observable columns[c].
    """

    terms: tuple
    reads: tuple


def _sources(parts: list, observables: list, dim: int) -> list:
    """The stacks a sweep reduces, as (members, sources) per group of pairs.

    Each observable element weighs the stack of :func:`_layout` that
    fills it, times the quadrant's scale (squared for |.|^2); a mirror
    element weighs the same, since its value is the conjugate.  Elements
    are placed through the per-state codes of :func:`_codes`, one
    observable at a time, so no table or temporary has dim^2 entries.
    """
    layout = _layout(parts)
    # per group and stack, per kind: observable column -> (positions, weights)
    found = [{terms: {True: {}, False: {}} for terms in stacks} for _, stacks in layout]
    plans = [_codes(members[0], stacks, dim) for members, stacks in layout]
    for column, obs in enumerate(observables):
        rows, cols = np.divmod(obs.flat, dim)
        squared = bool(obs.squared)
        for (members, _), (row_code, col_code, slot, scale), kinds_by_terms in zip(
                layout, plans, found):
            placed = row_code[rows] + col_code[cols]
            if not np.array_equal(members[0].a.states, members[0].b.states):
                # the mirror elements, conjugates of the group's own
                placed = np.concatenate([placed, row_code[cols] + col_code[rows]])
            placed = placed[placed < slot.size * members[0].moved.size]
            quadrant, position = np.divmod(placed, members[0].moved.size)
            weight = obs.weight * (scale[quadrant] ** 2 if squared else scale[quadrant])
            stack = slot[quadrant]
            for k, kinds in enumerate(kinds_by_terms.values()):
                chosen = stack == k
                if chosen.any():
                    kinds[squared][column] = (position[chosen], weight[chosen])

    groups = []
    for (members, _), kinds_by_terms in zip(layout, found):
        shape = members[0].moved.shape
        sources = [_Source(terms, tuple((squared, *_weight_matrix(columns, shape))
                                        for squared, columns in kinds.items() if columns))
                   for terms, kinds in kinds_by_terms.items() if any(kinds.values())]
        if sources:
            groups.append((members, sources))
    return groups


def _codes(part: _Part, stacks: dict, dim: int) -> tuple:
    """Per-state codes and per-quadrant stacks that place elements in a pair's group.

    Returns (row_code, col_code, slot, scale).  For a row state at place
    p of slice i of a.states and a column state at place q of slice j of
    b.states, row_code plus col_code is (i * nj + j) * r_a * r_b + p *
    r_b + q: the quadrant and the position in the stack.  A state on
    neither side puts the sum past the last quadrant.  ``slot`` and
    ``scale`` give each quadrant's stack (in the order of ``stacks``) and
    scale, raveled in quadrant order (see :func:`_layout`).
    """
    (r_a, r_b), nj = part.moved.shape, len(part.b.weights)
    slot = np.zeros((len(part.a.weights), nj), dtype=np.intp)
    scale = np.zeros(slot.shape)
    for k, quadrants in enumerate(stacks.values()):
        for lead, i, j in quadrants:
            slot[i, j], scale[i, j] = k, lead
    outside = slot.size * part.moved.size
    row_code = np.full(dim, outside, dtype=np.intp)
    col_code = np.full(dim, outside, dtype=np.intp)
    i, p = np.divmod(np.arange(part.a.states.size), r_a)
    row_code[part.a.states] = (i * nj * r_a + p) * r_b
    j, q = np.divmod(np.arange(part.b.states.size), r_b)
    col_code[part.b.states] = j * part.moved.size + q
    return row_code, col_code, slot.ravel(), scale.ravel()


def _weight_matrix(columns: dict, shape: tuple) -> tuple:
    """(r_a, r_b, n) weights from sparse columns, which are consumed, and
    the observable column of each; repeated positions add up."""
    order = sorted(columns)
    out = np.zeros((shape[0] * shape[1], len(order)))
    for c, column in enumerate(order):
        np.add.at(out[:, c], *columns.pop(column))
    return out.reshape(shape + (-1,)), np.array(order, dtype=np.intp)


def _reduce(source: _Source, ys: list, values: np.ndarray) -> None:
    """Add a source's contribution for one chunk of time points to ``values``.

    The stack is written time-major, (K, r_a, r_b), so each read is one
    product of a (K, r_a r_b) matrix with the weights.
    """
    r_a, k, r_b = ys[0].shape
    stack = np.empty((k, r_a, r_b), dtype=complex)
    _stack(source.terms, ys, stack.transpose(1, 0, 2))
    value, imag = np.empty((k, r_a, r_b)), None
    for squared, weights, columns in source.reads:
        if squared:
            imag = np.square(stack.imag, out=imag)
            np.square(stack.real, out=value)
            value += imag
        else:
            np.copyto(value, stack.real)
        values[:, columns] += np.dot(value.reshape(k, -1), weights.reshape(-1, columns.size))


def _chunk_length(parts: list) -> int:
    """Time points per sweep chunk: one complex stack of the largest pair in CHUNK_BYTES."""
    largest = max((part.moved.size for part in parts), default=1)
    return max(1, CHUNK_BYTES // (16 * largest))


def sweep(
    rho0: DensityMatrix | SparseOperator,
    h: Operator | SparseOperator | EigenSystem,
    times: np.ndarray,
    observables: Mapping[str, Observable],
    unit: str = "cyclic",
    *,
    points=(),
) -> SweepTable:
    """Evaluate observables on rho(t) across a time grid.

    The Hamiltonian is diagonalized once and rho0 is moved into its
    eigenbasis once.  Each chunk of grid points is propagated in the
    block layout and reduced there, one group of block pairs at a time;
    the dense rho(t) is never built.  Only the fields of each observable
    are read.

    ``points``, extra times in increasing order, are evaluated from the
    same set-up in chunks of their own, so the grid's values do not
    depend on them; their values are the table's ``points``.

    With momentum sectors and a rho0 that the site cycle leaves exactly
    unchanged, the observables readable in the sectors are evaluated
    there (:func:`_sector_sweep`); the others, and every observable of
    any other rho0, take the eigensystem without sectors.
    """
    eig = _as_eigensystem(h)
    _check_dim(rho0, eig)
    times = np.asarray(times, dtype=float)
    points = np.asarray(points, dtype=float).reshape(-1)
    phases = _phase_scale(unit) * np.concatenate([times, points])
    runs = (slice(0, times.size), slice(times.size, phases.size))
    specs = list(observables.values())
    for obs in specs:
        if obs.flat.size and obs.flat.max() >= rho0.dim**2:
            raise ValueError(f"observable element out of range for dimension {rho0.dim}")
    values = np.zeros((phases.size, len(specs)))
    general = list(range(len(specs)))
    if eig.orbits is not None and rho0.invariant(eig.orbits.shift):
        general = _sector_sweep(rho0, eig, phases, specs, values, runs)
    if general:
        values[:, general] = _block_sweep(rho0, eig.fallback, phases,
                                          [specs[c] for c in general], runs)
    data = dict(zip(observables, values.T))
    extra = None
    if points.size:
        extra = SweepTable(points, {name: column[runs[1]] for name, column in data.items()})
    return SweepTable(times, {name: column[runs[0]] for name, column in data.items()}, extra)


def _block_sweep(rho0: DensityMatrix | SparseOperator, eig: EigenSystem, phases: np.ndarray,
                 observables: list, runs) -> np.ndarray:
    """Observable values (time, observable) from the block pairs of rho0.

    ``runs``, slices of the phases, are each cut into chunks of their own.
    """
    parts = _eigenbasis_parts(rho0, eig)
    groups = _sources(parts, observables, rho0.dim)
    values = np.zeros((phases.size, len(observables)))
    for window in _windows(runs, _chunk_length(parts)):
        for members, sources in groups:
            ys = _transform(members, phases[window])
            for source in sources:
                _reduce(source, ys, values[window])
    return values


def _windows(runs, chunk: int):
    """Consecutive slices of at most ``chunk`` points, none spanning two runs."""
    for run in runs:
        for start in range(run.start, run.stop, chunk):
            yield slice(start, min(start + chunk, run.stop))


def _sector_groups(eig: EigenSystem) -> list:
    """The momentum blocks of each group, as {k: block}."""
    groups = []
    for block in eig.blocks:
        if block.momentum == 0:
            groups.append({})
        groups[-1][block.momentum] = block
    return groups


def _sector_parts(rho: DensityMatrix | SparseOperator, eig: EigenSystem, momenta) -> list:
    """The nonzero sector pairs of a state that P leaves unchanged, in the eigenbasis.

    Such a state has no element between different momenta.  Its sector
    k block between groups A and B is
    rho_k[a, b] = L c_a c_b sum_l exp(-2 pi i k l / L) rho[a, P^l b],
    from one gather of rho per pair of groups.  Returns (left, right,
    parts) for each pair of groups, left not after right, whose gather
    is not all zero; each part is a :class:`_Part` (a, b, V_a+ rho_k V_b)
    of one k in ``momenta``, never halved.
    """
    orbits = eig.orbits
    groups = _sector_groups(eig)
    found = []
    for i, left in enumerate(groups):
        for right in groups[i:]:
            outer, inner = orbits.members(left[0]), orbits.members(right[0])
            gathered, sector = _sector_reader(rho, orbits, outer, inner)
            if not gathered.any():
                continue
            parts = []
            for k in momenta:
                if k not in left or k not in right:
                    continue
                a, b = left[k], right[k]
                block = sector(k)
                if block.any():
                    moved = gemm(gemm(adjoint(a.eigenvectors), block), b.eigenvectors)
                    parts.append(_Part(a, b, moved))
            found.append((left, right, parts))
    return found


def _interleaved(right: np.ndarray) -> np.ndarray:
    """The real (2r, 2r) matrix that right-multiplies complex rows, viewed as
    interleaved real and imaginary parts, by ``right``.

    One real GEMM on the float view computes the complex product; unlike
    a complex GEMM of many rows by few columns, OpenBLAS does not split it
    across threads at a loss.
    """
    r = right.shape[0]
    out = np.empty((2 * r, 2 * r))
    out[0::2, 0::2] = out[1::2, 1::2] = right.real
    out[0::2, 1::2] = right.imag
    out[1::2, 0::2] = -right.imag
    return out


def _sector_transform(part: _Part, phases: np.ndarray, right: np.ndarray,
                      work: tuple) -> np.ndarray:
    """V_a e^{-i phase E_a} X_ab e^{i phase E_b} V_b+ per phase, shaped (K, r_a, r_b).

    ``right`` is V_b+ in the form of :func:`_interleaved`.  The left
    product runs once per phase, the right one as a single GEMM over all
    phases, so the result is time-major.  ``work``, two flat complex
    buffers of at least K r_a r_b elements, takes the products, and the
    result is a view of the first: a sweep then allocates no stack per
    chunk, which would make the heap grow and shrink with every chunk.
    """
    a, b = part.a, part.b
    shape = (phases.size, *part.moved.shape)
    first, second = (buffer[:math.prod(shape)].reshape(shape) for buffer in work)
    np.multiply(part.moved, np.exp(-1j * np.multiply.outer(phases, a.eigenvalues))[
        :, :, np.newaxis], out=first)
    first *= np.exp(1j * np.multiply.outer(phases, b.eigenvalues))[:, np.newaxis, :]
    if np.iscomplexobj(a.eigenvectors):
        np.matmul(a.eigenvectors, first, out=second)
    else:
        np.matmul(a.eigenvectors, first.view(np.float64), out=second.view(np.float64))
    np.matmul(second.view(np.float64).reshape(-1, right.shape[0]), right,
              out=first.view(np.float64).reshape(-1, right.shape[0]))
    return first


def _sector_evolve(rho: DensityMatrix | SparseOperator, eig: EigenSystem, phase: np.ndarray) -> DensityMatrix:
    """rho(t) of a state that P leaves unchanged, from every momentum sector.

    Such a state is fixed by its elements rho[a, P^l b] between orbit
    representatives: rho[P^i a, P^j b] = rho[a, P^(j-i) b].  Those
    follow from the sectors as
    rho[a, P^l b] = sum_k exp(2 pi i k l / L) rho_k[a, b] / sqrt(p_a p_b),
    and each is written to all the elements it stands for.  The phases
    repeat exactly with each orbit's period and are exact conjugates
    for -l, so the result is exactly Hermitian and exactly unchanged by P.
    """
    orbits = eig.orbits
    order = orbits.order
    back = cyclic_phases(order).conj()
    rho_t = np.zeros((rho.dim, rho.dim), dtype=complex)
    for left, right, parts in _sector_parts(rho, eig, range(order)):
        outer, inner = orbits.members(left[0]), orbits.members(right[0])
        reduced = np.zeros((outer.size, order, inner.size), dtype=complex)
        for part in parts:
            work = tuple(np.empty(part.moved.size, dtype=complex) for _ in range(2))
            y = _sector_transform(part, phase, _interleaved(adjoint(part.b.eigenvectors)),
                                  work)[0]
            if left is right:
                y = 0.5 * (y + adjoint(y))
            k = part.a.momentum
            rows = np.searchsorted(outer, orbits.members(part.a))
            cols = np.searchsorted(inner, orbits.members(part.b))
            turn = back[k * np.arange(order) % order]
            reduced[rows[:, None, None], np.arange(order)[:, None], cols] += (
                y[:, np.newaxis, :] * turn[:, np.newaxis])
        reduced *= np.multiply.outer(1 / np.sqrt(orbits.period[outer]),
                                     1 / np.sqrt(orbits.period[inner]))[:, np.newaxis, :]
        # row i of representative a is P^i a; column j * inner.size + b is P^j b
        row_states, col_states = orbits.table[outer], orbits.table[inner].T.ravel()
        for i in range(order):
            values = np.roll(reduced, i, axis=1).reshape(outer.size, -1)
            rho_t[np.ix_(row_states[:, i], col_states)] = values
            if left is not right:
                rho_t[np.ix_(col_states, row_states[:, i])] = values.T.conj()
    return DensityMatrix(matrix=rho_t)


def _orbit_weights(obs: Observable, orbits: _Orbits, dim: int) -> np.ndarray | None:
    """An observable's weight on each pair of orbits, or None where it has none.

    The weight exists when every orbit pair O1 x O2 the observable
    touches lists each of its p1 p2 elements equally often; it is then
    the observable's weight times that count.  Counting goes through a
    position within the touched pairs, so nothing has dim^2 entries.
    """
    rows, cols = np.divmod(obs.flat, dim)
    first, second = orbits.of[rows], orbits.of[cols]
    count = orbits.period.size
    pair = first * count + second
    listed = np.bincount(pair, minlength=count * count)
    size = np.multiply.outer(orbits.period, orbits.period).ravel()
    if (listed % size).any():
        return None
    touched = np.where(listed > 0, size, 0)
    place = (np.cumsum(touched) - touched)[pair] + orbits.step[rows] * orbits.period[second]
    place += orbits.step[cols]
    repeats = listed // size
    if not np.array_equal(np.bincount(place)[place], repeats[pair]):
        return None
    return (obs.weight * repeats).reshape(count, count)


def _reflected(weights: np.ndarray, orbits: _Orbits) -> bool:
    """Whether orbit-pair weights are unchanged by the reflection."""
    mirror = orbits.of[orbits.reflect[orbits.table[:, 0]]]
    return np.array_equal(weights[np.ix_(mirror, mirror)], weights)


def _sector_sweep(rho0: DensityMatrix | SparseOperator, eig: EigenSystem, phases: np.ndarray,
                  observables: list, values: np.ndarray, runs) -> list:
    """Add the observables readable in the momentum sectors to ``values``.

    rho0 is unchanged by P.  An observable is readable when its weight is
    constant on each orbit pair (:func:`_orbit_weights`):
    - squared, sum over O1 x O2 of |rho|^2 is the sum over k of
      |rho_k[O1, O2]|^2;
    - real part, sum over O1 x O2 of rho is sqrt(p1 p2) rho_0[O1, O2].
    Where the reflection R leaves rho0 and every squared weight
    unchanged, R maps sector k onto sector -k with equal contributions,
    so only k = 0 .. L/2 run, the ones in between counted twice.  A pair
    of different groups also stands for its mirror, whose elements are
    the conjugates.

    Each sector pair is set up once and reduced over ``runs``, slices of
    the phases, each in chunks of its own.

    Returns the columns of the observables that are not readable.
    """
    orbits = eig.orbits
    order = orbits.order
    tables = [_orbit_weights(obs, orbits, rho0.dim) for obs in observables]
    squared = [c for c, table in enumerate(tables) if table is not None
               and observables[c].squared]
    real = [c for c, table in enumerate(tables) if table is not None
            and not observables[c].squared]
    paired = (orbits.reflect is not None and rho0.invariant(orbits.reflect)
              and all(_reflected(tables[c], orbits) for c in squared))
    momenta = (range(order // 2 + 1) if paired else range(order)) if squared else [0]
    if squared or real:
        # a chunk of any sector pair fits CHUNK_BYTES, or is one point
        largest = max(block.eigenvalues.size for block in eig.blocks) ** 2
        work = tuple(np.empty(max(CHUNK_BYTES // 16, largest), dtype=complex)
                     for _ in range(2))
        for left, right, parts in _sector_parts(rho0, eig, momenta):
            for part in parts:
                k = part.a.momentum
                count = 2 if paired and 2 * k % order else 1
                reads = _sector_reads(part, tables, squared, real if k == 0 else [],
                                      left is not right, count, orbits)
                _sector_reduce(part, reads, phases, runs, values, work)
    return [c for c, table in enumerate(tables) if table is None]


def _sector_reads(part: _Part, tables: list, squared: list, real: list, mirrored: bool,
                  count: int, orbits: _Orbits) -> list:
    """(squared, columns, weights) per read of a sector pair, the real read first.

    The weights apply to the time-major stack viewed as float, which
    interleaves real and imaginary parts: a squared read weighs both of
    them, a real read only the first.
    """
    first, second = orbits.members(part.a), orbits.members(part.b)

    def weights(columns, factor):
        out = np.zeros((first.size, second.size, 2, len(columns)))
        for i, c in enumerate(columns):
            w = tables[c][np.ix_(first, second)]
            if mirrored:
                w = w + tables[c][np.ix_(second, first)].T
            out[:, :, 0, i] = w * factor
        return out

    reads = []
    if real:
        out = weights(real, np.sqrt(np.multiply.outer(orbits.period[first],
                                                      orbits.period[second])))
        reads.append((False, np.array(real), out.reshape(-1, len(real))))
    if squared:
        out = weights(squared, count)
        out[:, :, 1] = out[:, :, 0]
        reads.append((True, np.array(squared), out.reshape(-1, len(squared))))
    return reads


def _sector_reduce(part: _Part, reads: list, phases: np.ndarray, runs, values: np.ndarray,
                   work: tuple) -> None:
    """Add a sector pair's reads over each run of phases to ``values``.

    Chunks of time points fill one CHUNK_BYTES stack each, in the
    buffers ``work`` (see :func:`_sector_transform`), which the squared
    read squares in place after any real read.
    """
    if not reads:
        return
    right = _interleaved(adjoint(part.b.eigenvectors))
    for window in _windows(runs, max(1, CHUNK_BYTES // (16 * part.moved.size))):
        y = _sector_transform(part, phases[window], right, work)
        flat = y.view(np.float64).reshape(y.shape[0], -1)
        for squared, columns, weights in reads:
            if squared:
                np.square(flat, out=flat)
            values[window, columns] += flat @ weights


def mq_intensity_extractor(basis: ZeemanBasis, n: int) -> Observable:
    """Observable: intensity of coherence order n (paired with -n for n > 0).

    Order 0 gives Tr(rho_0^2); positive n gives 2 * Tr(rho_n rho_n+), so
    the sum over n >= 0 equals Tr(rho^2).
    """
    if not 0 <= n <= basis.n_spins:
        raise ValueError(f"order {n} out of range [0, {basis.n_spins}]")
    # the elements from each spin-up level to the level n above it
    levels = basis.levels()
    flat = np.concatenate([(basis.dim * high[:, np.newaxis] + low).ravel()
                           for low, high in zip(levels, levels[n:])])
    return Observable(flat, 1.0 if n == 0 else 2.0)


def diag_pair_extractor(basis: ZeemanBasis) -> Observable:
    """Observable: |rho_uu|^2 + |rho_dd|^2 for the all-up/all-down pair."""
    flat = (basis.dim + 1) * np.array([basis.index_all_up, basis.index_all_down])
    return Observable(flat)


def population_extractor(basis: ZeemanBasis, state: int) -> Observable:
    """Observable: diagonal element (population) of one Zeeman state."""
    if not 0 <= state < basis.dim:
        raise ValueError(f"state {state} out of range [0, {basis.dim})")
    return Observable([(basis.dim + 1) * state], squared=False)
