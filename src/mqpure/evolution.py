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

The state enters the eigenbasis from one gather per pair of block
supports (the two flip sectors of a parity share theirs), which each
block pair of that support pair folds.

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
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .output import write_csv
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

# bytes of one complex (r_a, K, r_b) block-pair stack in a sweep; K, the
# number of time points per chunk, follows from the largest block pair
CHUNK_BYTES = 1 << 17

# largest time grid ``time_grid`` builds
MAX_GRID_POINTS = 1_000_000


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


def _eigenbasis_parts(rho: DensityMatrix, eig: EigenSystem) -> list:
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
    if eig.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, hamiltonian {eig.dim}")
    supports = {}
    for block in eig.blocks:
        supports.setdefault(block.states.tobytes(), []).append(block)
    supports = list(supports.values())
    parts = []
    for i, left in enumerate(supports):
        for right in supports[i:]:
            gathered = rho.matrix[np.ix_(left[0].states, right[0].states)]
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


def _stack(terms: tuple, ys: list) -> np.ndarray:
    """The sum over ``terms`` of coefficient times y, y + y+ or y - y+ (see :func:`_layout`)."""
    stack = None
    for k, sign, coefficient in terms:
        term = y = ys[k]
        if sign:
            term = y.transpose(2, 1, 0).conj()
            if sign > 0:
                term += y
            else:
                np.subtract(y, term, out=term)
        if coefficient != 1:
            term = coefficient * term
        stack = term if stack is None else stack + term
    return stack


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
    phase = np.array([_phase_scale(unit) * t])
    rho_t = np.zeros((rho.dim, rho.dim), dtype=complex)
    for members, stacks in _layout(_eigenbasis_parts(rho, eig)):
        a, b = members[0].a, members[0].b
        r_a, r_b = members[0].moved.shape
        mirrored = not np.array_equal(a.states, b.states)
        ys = _transform(members, phase)
        for terms, quadrants in stacks.items():
            stack = _stack(terms, ys)[:, 0, :]
            for scale, i, j in quadrants:
                rows, cols = a.states[i * r_a:(i + 1) * r_a], b.states[j * r_b:(j + 1) * r_b]
                values = scale * stack
                rho_t[np.ix_(rows, cols)] = values
                if mirrored:
                    rho_t[np.ix_(cols, rows)] = values.T.conj()
    return DensityMatrix(matrix=rho_t)


@dataclass(frozen=True)
class Observable:
    """A sweep observable: weight * sum_k f(rho.ravel()[flat[k]]) / normalize.

    ``flat`` indexes elements of the raveled dense matrix (row * dim +
    column); an element listed twice counts twice.  f is |.|^2 when
    ``squared`` is set and the real part otherwise.
    """

    flat: np.ndarray = field(repr=False)
    weight: float = 1.0
    squared: bool = True
    normalize: float = 1.0

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=np.intp)
        if flat.ndim != 1 or (flat < 0).any():
            raise ValueError("observable elements must be a vector of nonnegative indices")
        object.__setattr__(self, "flat", _frozen_array(flat))


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
        if obs.flat.size and obs.flat.max() >= dim * dim:
            raise ValueError(f"observable element out of range for dimension {dim}")
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
    """Add a source's contribution for one chunk of time points to ``values``."""
    stack = _stack(source.terms, ys)
    for squared, weights, columns in source.reads:
        value = stack.real
        if squared:
            value = np.square(value)
            value += np.square(stack.imag)
        values[:, columns] += np.tensordot(value, weights, ([0, 2], [0, 1]))


def _chunk_length(parts: list) -> int:
    """Time points per sweep chunk: one complex stack of the largest pair in CHUNK_BYTES."""
    largest = max((part.moved.size for part in parts), default=1)
    return max(1, CHUNK_BYTES // (16 * largest))


def sweep(
    rho0: DensityMatrix,
    h: Operator | EigenSystem,
    times: np.ndarray,
    observables: Mapping[str, Observable],
    unit: str = "cyclic",
) -> SweepTable:
    """Evaluate observables on rho(t) across a time grid.

    The Hamiltonian is diagonalized once and rho0 is moved into its
    eigenbasis once.  Each chunk of grid points is propagated in the
    block layout and reduced there, one group of block pairs at a time;
    the dense rho(t) is never built.  Only the fields of each observable
    are read.
    """
    eig = _as_eigensystem(h)
    parts = _eigenbasis_parts(rho0, eig)
    times = np.asarray(times, dtype=float)
    phases = _phase_scale(unit) * times
    specs = list(observables.values())
    groups = _sources(parts, specs, rho0.dim)
    values = np.zeros((times.size, len(specs)))
    chunk = _chunk_length(parts)
    for start in range(0, times.size, chunk):
        window = slice(start, start + chunk)
        for members, sources in groups:
            ys = _transform(members, phases[window])
            for source in sources:
                _reduce(source, ys, values[window])
    data = {name: values[:, c] / obs.normalize
            for c, (name, obs) in enumerate(observables.items())}
    return SweepTable(times=times, columns=data)


def mq_intensity_extractor(
    basis: ZeemanBasis, n: int, normalize: float | None = None
) -> Observable:
    """Observable: intensity of coherence order n (paired with -n for n > 0).

    Order 0 gives Tr(rho_0^2); positive n gives 2 * Tr(rho_n rho_n+), so
    the sum over n >= 0 equals Tr(rho^2).  ``normalize`` divides the
    result, e.g. by the initial-state purity to get Fig.-style fractions.
    """
    if not 0 <= n <= basis.n_spins:
        raise ValueError(f"order {n} out of range [0, {basis.n_spins}]")
    # the elements from each spin-up level to the level n above it
    levels = basis.levels()
    flat = np.concatenate([(basis.dim * high[:, np.newaxis] + low).ravel()
                           for low, high in zip(levels, levels[n:])])
    normalize = 1.0 if normalize is None else normalize
    return Observable(flat, 1.0 if n == 0 else 2.0, normalize=normalize)


def diag_pair_extractor(basis: ZeemanBasis, normalize: float | None = None) -> Observable:
    """Observable: |rho_uu|^2 + |rho_dd|^2 for the all-up/all-down pair."""
    flat = (basis.dim + 1) * np.array([basis.index_all_up, basis.index_all_down])
    return Observable(flat, normalize=1.0 if normalize is None else normalize)


def population_extractor(basis: ZeemanBasis, state: int) -> Observable:
    """Observable: diagonal element (population) of one Zeeman state."""
    if not 0 <= state < basis.dim:
        raise ValueError(f"state {state} out of range [0, {basis.dim})")
    return Observable([(basis.dim + 1) * state], squared=False)
