"""Exact unitary propagation and observable sweeps over a time grid.

Propagation uses one Hermitian eigendecomposition per Hamiltonian, which
is exact for time-independent generators and lets a whole sweep reuse a
single factorization.  Each block is gathered from the Hamiltonian's
nonzero elements (:class:`~mqpure.spin_core.SparseOperator`), and the
symmetry checks compare those elements, sorted, with their permuted
copies, so no d x d matrix is made.  The blocks are the momentum sectors
of one state permutation G (:mod:`mqpure.sectors`), and a state of
character chi under G is propagated on its sector pairs alone; a state of
neither character runs on the eigensystem of G = identity, built on first
use (``EigenSystem.fallback``).

A sweep never assembles the dense rho(t).  It propagates each chunk of
time points as one (rows, K, cols) stack per sector pair, so that each
side's product is one GEMM.  Its observables are data
(:class:`Observable`) of two kinds:

- an order intensity, the sum of |rho|^2 over the pairs of spin-up
  levels that differ by its order, names no element.  Under a site cycle
  (and the identity) every sector basis vector lies in one level, so it
  is read from the level pairs of each sector pair's stack; under the
  flip, which maps level m to -m, from those of the element classes
  rho[G^i a, G^(i+l) b];
- an element observable (weighted matrix elements, squared or real
  part) is read one way under every G: each element class is a fixed
  combination of sector-pair entries and of their conjugates.

Where a conjugate symmetry of H and rho0 makes sector pair L - k the
conjugate of pair k up to one phase per entry, only k <= L/2 run.
:func:`_sector_sweep` does both reads.  :func:`evolve` reads rho(t)
through the element classes of :func:`~mqpure.sectors.class_matrices`.

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

from .output import write_csv
from .sectors import (QUARTER_TURNS, Orbits, Part, character, class_matrices, elements,
                      flip_add, momentum_blocks, orbits_of, rotation_sign, sector_groups,
                      sector_parts, state_permutation)
from .spin_core import (
    DensityMatrix,
    Operator,
    SparseOperator,
    ZeemanBasis,
    adjoint,
    cyclic_phases,
    frozen_array,
    popcounts,
)

TWO_PI = 2.0 * np.pi

_UNIT_SCALES = {"cyclic": TWO_PI, "angular": 1.0}

# bytes of one complex (rows, K, cols) stack in a sweep; K, the number of
# time points per chunk, follows from the largest stack that a batch of
# sector pairs holds per point.  Large enough that a chunk's sparse reads
# cost little next to its GEMMs, small enough for the stack to stay in cache
CHUNK_BYTES = 1 << 18

# largest time grid ``time_grid`` builds
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a Hermitian operator, kept per momentum sector.

    ``blocks`` is a tuple of :class:`~mqpure.spin_core.EigenBlock` whose
    vectors together form an orthonormal basis; each block's eigenvalues
    ascend.  ``orbits`` describes the permutation G behind the sectors,
    the blocks come group by group with k ascending from 0 in each, and
    ``plain`` builds the eigensystem of G = identity for states the
    sectors cannot carry (None where G is the identity).
    ``conjugate_pairs`` records that A(H) = -H exactly
    (:func:`~mqpure.sectors.rotation_sign`), as for a real H whose
    nonzeros all join spin-up counts that differ by 2 mod 4, such as the
    double-quantum H and its negation.
    """

    blocks: tuple = field(repr=False)
    orbits: Orbits = field(repr=False)
    plain: Callable[[], EigenSystem] | None = field(default=None, repr=False)
    conjugate_pairs: bool = False

    @property
    def dim(self) -> int:
        return sum(block.eigenvalues.size for block in self.blocks)

    @cached_property
    def fallback(self) -> EigenSystem:
        """The eigensystem of G = identity (built once, on first use)."""
        return self if self.plain is None else self.plain()

    def negated(self) -> EigenSystem:
        """The eigensystem of -H, in O(dim): each block's eigenvalues negated
        and, with its vectors, reversed so that they still ascend."""
        blocks = tuple(block._replace(eigenvalues=-block.eigenvalues[::-1],
                                      eigenvectors=block.eigenvectors[:, ::-1])
                       for block in self.blocks)
        plain = None if self.plain is None else (lambda: self.fallback.negated())
        return EigenSystem(blocks, self.orbits, plain, self.conjugate_pairs)


def diagonalize(h: Operator | SparseOperator,
                symmetry: np.ndarray | None = None) -> EigenSystem:
    """Eigendecompose a Hermitian operator into the momentum sectors of a
    state permutation G (ascending within each block).

    Every block is gathered from the operator's nonzero elements; a dense
    :class:`Operator` is turned into them once (``SparseOperator.of``).
    The sectors are taken within each popcount parity when no nonzero
    element joins an even- and an odd-popcount state.  G is the first that
    maps the sorted nonzeros exactly onto themselves of the state
    permutation P of the site cycle ``symmetry``
    (:func:`~mqpure.hamiltonians.site_symmetry`), the flip of every spin
    (where it keeps parity, at even N) and the identity.
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
        cycle = orbits_of(state_permutation(symmetry, h.dim))
        if h.invariant(cycle.shift):
            return _sector_system(h, groups, cycle)
    flip = np.arange(h.dim)[::-1]
    if np.array_equal(odd, odd[flip]) and h.invariant(flip):
        return _sector_system(h, groups, orbits_of(flip))
    return _sector_system(h, groups, orbits_of(np.arange(h.dim)))


def _sector_system(h: SparseOperator, groups, orbits: Orbits) -> EigenSystem:
    plain = (None if orbits.order == 1
             else partial(_sector_system, h, groups, orbits_of(np.arange(h.dim))))
    return EigenSystem(momentum_blocks(h, groups, orbits), orbits, plain,
                       rotation_sign(h) == -1)


def phase_scale(unit: str) -> float:
    """The propagation phase of H t per unit: 2 pi for "cyclic", 1 for "angular"."""
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

    A state of character +1 or -1 under the sectors' G is propagated on
    its sector pairs (:func:`_sector_evolve`); any other state takes the
    eigensystem of G = identity.
    """
    eig, chi = character(rho, _as_eigensystem(h))
    return _sector_evolve(rho, eig, chi, phase_scale(unit) * t)


@dataclass(frozen=True)
class Observable:
    """A sweep observable, an order intensity or a list of elements.

    With ``order`` n set, it is weight * the sum of |rho_ab|^2 over every
    element whose spin-up counts differ by n (both n and -n for n > 0),
    and ``flat`` is empty.  Otherwise it is
    weight * sum_k f(rho.ravel()[flat[k]]): ``flat`` indexes elements of
    the raveled dense matrix (row * dim + column), an element listed twice
    counts twice, and f is |.|^2 when ``squared`` is set and the real part
    otherwise.
    """

    flat: np.ndarray = field(default=(), repr=False)
    weight: float = 1.0
    squared: bool = True
    order: int | None = None

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=np.intp)
        if flat.ndim != 1 or (flat < 0).any():
            raise ValueError("observable elements must be a vector of nonnegative indices")
        if self.order is not None and (self.order < 0 or flat.size or not self.squared):
            raise ValueError("an order intensity is a squared read of a nonnegative order "
                             "and lists no elements")
        object.__setattr__(self, "flat", frozen_array(flat))


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
        object.__setattr__(self, "times", frozen_array(times))
        object.__setattr__(
            self, "columns", {k: frozen_array(v, float) for k, v in self.columns.items()}
        )

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValueError(f"no observable named {name!r}")
        return self.columns[name]

    def to_csv(self, path: str | Path) -> None:
        """Write `t` plus one column per observable, with a header row."""
        write_csv(path, ["t", *self.columns], [self.times, *self.columns.values()])


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
    eigenbasis once.  Each chunk of grid points is propagated on the
    sector pairs of rho0 and reduced there (:func:`_sector_sweep`); the
    dense rho(t) is never built.  Only the fields of each observable are
    read, and its kind is told by ``order`` alone: an order intensity is
    read from the level pairs of the stacks and lists no element, an
    element observable from its listed elements.  A rho0 of neither
    character under the sectors' G takes the eigensystem of G = identity.

    ``points``, extra times in increasing order, are evaluated from the
    same set-up in chunks of their own, so the grid's values do not
    depend on them; their values are the table's ``points``.
    """
    eig, chi = character(rho0, _as_eigensystem(h))
    times = np.asarray(times, dtype=float)
    points = np.asarray(points, dtype=float).reshape(-1)
    phases = phase_scale(unit) * np.concatenate([times, points])
    runs = (slice(0, times.size), slice(times.size, phases.size))
    specs = list(observables.values())
    for obs in specs:
        if obs.order is not None and obs.order > rho0.dim.bit_length() - 1:
            raise ValueError(f"order {obs.order} out of range for dimension {rho0.dim}")
        if obs.flat.size and obs.flat.max() >= rho0.dim**2:
            raise ValueError(f"observable element out of range for dimension {rho0.dim}")
    values = _sector_sweep(rho0, eig, chi, phases, specs, runs)
    data = dict(zip(observables, values.T))
    extra = None
    if points.size:
        extra = SweepTable(points, {name: column[runs[1]] for name, column in data.items()})
    return SweepTable(times, {name: column[runs[0]] for name, column in data.items()}, extra)


def _windows(runs, chunk: int):
    """Consecutive slices of at most ``chunk`` points, none spanning two runs."""
    for run in runs:
        for start in range(run.start, run.stop, chunk):
            yield slice(start, min(start + chunk, run.stop))


def _chunk_length(size: int) -> int:
    """Time points per sweep chunk: one complex stack of ``size`` elements per
    point in CHUNK_BYTES, or one point."""
    return max(1, CHUNK_BYTES // (16 * size))


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


def _sector_transform(part: Part, phases: np.ndarray, right: np.ndarray | None,
                      work: tuple) -> np.ndarray:
    """V_a e^{-i phase E_a} X_ab e^{i phase E_b} V_b+ per phase, shaped (r_a, K, r_b).

    The stack is (rows, K, cols), so each side's product is one GEMM over
    all phases: V_a times the (r_a, K r_b) stack, then, on the interleaved
    float view, times ``right``, V_b+ in the form of :func:`_interleaved`,
    or, for a real V_b given no ``right``, V_b times the transposed stack.
    A sector paired with itself takes one phase table and its conjugate.
    ``work``, two flat complex buffers of at least K r_a r_b elements,
    takes the products, and the result is a view of the first: a sweep
    then allocates no stack per chunk, which would make the heap grow and
    shrink with every chunk.
    """
    a, b = part.a, part.b
    (r_a, r_b), points = part.moved.shape, phases.size
    first, second = (buffer[:r_a * points * r_b].reshape(r_a, points, r_b) for buffer in work)
    turn = np.exp(-1j * np.multiply.outer(phases, a.eigenvalues))
    np.multiply(part.moved[:, np.newaxis, :], turn.T[:, :, np.newaxis], out=first)
    first *= turn.conj() if a is b else np.exp(1j * np.multiply.outer(phases, b.eigenvalues))
    rows, product = first.reshape(r_a, -1), second.reshape(r_a, -1)
    if not np.iscomplexobj(a.eigenvectors):
        rows, product = rows.view(np.float64), product.view(np.float64)
    np.matmul(a.eigenvectors, rows, out=product)
    if right is not None:
        np.matmul(second.view(np.float64).reshape(-1, 2 * r_b), right,
                  out=first.view(np.float64).reshape(-1, 2 * r_b))
        return first
    # the adjoint of the product is V_b times the adjoint of the stack
    transposed = first.reshape(r_b, -1)
    np.copyto(transposed, second.reshape(-1, r_b).T)
    product = second.reshape(r_b, -1)
    np.matmul(b.eigenvectors, transposed.view(np.float64), out=product.view(np.float64))
    np.copyto(first.reshape(-1, r_b), product.T)
    return first


def _right_factor(part: Part, chunk: int) -> np.ndarray | None:
    """The ``right`` of :func:`_sector_transform` for chunks of ``chunk``
    time points: None for a real V_b in chunks of one point.  A chunk of
    several points holds a small sector, whose interleaved GEMM costs less
    than the two transposes of its stack that the real one needs."""
    vectors = part.b.eigenvectors
    if np.iscomplexobj(vectors) or chunk > 1:
        return _interleaved(adjoint(vectors))
    return None


def transformed(part: Part, phase: float) -> np.ndarray:
    """V_a e^{-i phase E_a} X e^{i phase E_b} V_b+ of a part (a, b, X), shaped (r_a, r_b)."""
    work = tuple(np.empty(part.moved.size, dtype=complex) for _ in range(2))
    return _sector_transform(part, np.array([phase]), _right_factor(part, 1), work)[:, 0]


def _sector_evolve(rho: DensityMatrix | SparseOperator, eig: EigenSystem, chi: int,
                   phase: float) -> DensityMatrix:
    """rho(t) of a state of character chi, from its sector pairs.

    Such a state is fixed by its elements rho[a, G^l b] between orbit
    representatives: rho[G^i a, G^j b] = chi^i rho[a, G^(j-i) b].  Those
    follow from the sector pairs as
    rho[a, G^l b] = sum_k exp(2 pi i k l / L) rho_k[a, b] / sqrt(p_a p_b)
    (:func:`~mqpure.sectors.class_matrices`), and each element is read
    from them (:func:`~mqpure.sectors.elements`).  A group's pairs with
    itself are made exactly Hermitian first (for chi = -1 the adjoint
    pairs are exact adjoints), and the phases repeat exactly with each
    orbit's period and are exact conjugates for -l, so for chi = 1 the
    result is exactly Hermitian and exactly unchanged by G.
    """
    orbits = eig.orbits
    rho_t = np.zeros((rho.dim, rho.dim), dtype=complex)
    for left, right, parts in sector_parts(rho, eig, chi, range(orbits.order)):
        outer, inner = orbits.members(left[0]), orbits.members(right[0])
        moved = []
        for part in parts:
            y = transformed(part, phase)
            if left is right and chi == 1:
                y = 0.5 * (y + adjoint(y))
            moved.append(part._replace(moved=y))
        classes = class_matrices(moved, chi, left is right, outer, inner, orbits)
        rows, cols = (np.flatnonzero(np.isin(orbits.of, members)) for members in (outer, inner))
        values = elements(classes, chi, outer, inner, orbits, rows, cols)
        rho_t[np.ix_(rows, cols)] = values
        if left is not right:
            rho_t[np.ix_(cols, rows)] = values.T.conj()
    return DensityMatrix(matrix=rho_t)


class _LevelRead(NamedTuple):
    """The order intensities of a contiguous (rows, K, cols) complex stack.

    |stack|^2 is summed over the columns of each spin-up count by
    ``columns`` (2 cols, counts), whose rows take the real and the
    imaginary part of a column alike, and each point's (rows, counts) sum
    is weighed into every observable column by ``weights``
    (rows * counts, observables).
    """

    columns: np.ndarray
    weights: np.ndarray


def _level_read(rows: np.ndarray, cols: np.ndarray, scale, observables: list
                ) -> _LevelRead | None:
    """The :class:`_LevelRead` of a stack whose rows and columns have the
    spin-up counts ``rows`` and ``cols``: an order observable weighs each
    element whose counts differ by its order by its weight times
    ``scale``.  None where no order observable meets such an element."""
    counts, at = np.unique(cols, return_inverse=True)
    columns = np.zeros((2 * cols.size, counts.size))
    columns[np.arange(2 * cols.size), np.repeat(at, 2)] = 1.0
    gap = np.abs(rows[:, np.newaxis] - counts).reshape(-1, 1)
    orders = [-1 if obs.order is None else obs.order for obs in observables]
    weights = np.where(gap == orders, scale * np.array([obs.weight for obs in observables]), 0.0)
    return _LevelRead(columns, weights) if weights.any() else None


def _apply(level: _LevelRead, stack: np.ndarray, values: np.ndarray,
           scratch: np.ndarray) -> None:
    """Add the ``level`` read of a contiguous (rows, K, cols) complex stack
    to ``values`` (K, columns), working in the flat float buffer ``scratch``.

    The stack's parts are squared in place, so that no chunk allocates a
    stack: the squares are summed per column level with one GEMM, and the
    (K, rows, counts) copy of the sums is weighed with another.
    """
    rows, points = stack.shape[:2]
    parts = stack.view(np.float64)
    np.square(parts, out=parts)
    size = rows * points * level.columns.shape[1]
    sums = scratch[:size].reshape(rows, points, -1)
    np.matmul(parts.reshape(rows * points, -1), level.columns,
              out=sums.reshape(rows * points, -1))
    spread = scratch[size:2 * size].reshape(points, rows, -1)
    np.copyto(spread, sums.transpose(1, 0, 2))
    picked = scratch[2 * size:2 * size + values.size].reshape(values.shape)
    np.matmul(spread.reshape(points, -1), level.weights, out=picked)
    values += picked


def _element_classes(observables: list, eig: EigenSystem, chi: int) -> tuple:
    """The element classes that the element observables list, and their weights.

    Element (G^i a, G^j b) of the representatives a and b is
    chi^i f_l[a, b] with l = (j - i) mod L
    (:func:`~mqpure.sectors.elements`).  No sector pair runs from a
    later group to an earlier one, so where b's group
    comes before a's the element is read as the conjugate of
    (G^j b, G^i a).  Returns ((a, b, l), squares, reals) over the distinct
    classes: a squared observable is the sum of |f_l|^2 weighed by
    ``squares`` (classes, observables), and a real one the sum of Re f_l
    weighed by ``reals``, its weight times chi^i.  An element listed
    twice adds its weight twice.
    """
    orbits = eig.orbits
    count, order = orbits.period.size, orbits.order
    group = np.zeros(count, dtype=np.intp)
    for index, blocks in enumerate(sector_groups(eig)):
        group[orbits.members(blocks[0])] = index
    # an order intensity lists no element
    sizes = [obs.flat.size for obs in observables]
    flat = np.concatenate([np.empty(0, dtype=np.intp)] + [obs.flat for obs in observables])
    rows, cols = np.divmod(flat, eig.dim)
    swap = group[orbits.of[rows]] > group[orbits.of[cols]]
    rows, cols = np.where(swap, cols, rows), np.where(swap, rows, cols)
    keys = ((orbits.of[rows] * count + orbits.of[cols]) * order
            + (orbits.step[cols] - orbits.step[rows]) % order)
    keys, at = np.unique(keys, return_inverse=True)
    column = np.repeat(np.arange(len(observables)), sizes)
    weight = np.array([obs.weight for obs in observables])[column]
    squared = np.array([obs.squared for obs in observables], dtype=bool)[column]
    tables = np.zeros((2, keys.size, len(observables)))
    np.add.at(tables, (np.where(squared, 0, 1), at, column),
              np.where(squared, weight, weight * chi ** orbits.step[rows]))
    pairs, l = np.divmod(keys, order)
    return (*np.divmod(pairs, count), l), tables[0], tables[1]


def _element_picks(part: Part, classes: tuple, twin: np.ndarray, chi: int, self_pair: bool,
                   orbits: Orbits) -> tuple | None:
    """The entries of a part's stack y_k, k its right momentum, in the
    element ``classes`` (a, b, l), or None where it has none: (rows, cols,
    at, direct, conjugate), class at[e] gaining
    direct[e] y_k[rows[e], cols[e]] + conjugate[e] conj(y_k[rows[e], cols[e]]).

    Over the (k + q, k) pairs y_k of a pair of groups,
    f_l[a, b] = sum_k exp(2 pi i k l / L) y_k[a, b] / sqrt(p_a p_b), and
    y_k[a, b] is zero where the periods of a and b do not allow the pair.
    A part also stands for pairs that do not run:
    - y_(L - k) = twin conj(y_k) entry by entry, ``twin`` eps i^(c_a - c_b)
      per class where only k <= L/2 run (see :func:`_sector_sweep`) and
      zero otherwise;
    - y_(k + q)[a, b] = conj(y_k[b, a]), the adjoint pair, for chi = -1 and
      a group with itself (``self_pair``).
    """
    a, b, l = classes
    order, k = orbits.order, part.b.momentum
    rows_at, cols_at = (np.full(orbits.period.size, -1) for _ in range(2))
    rows_at[orbits.members(part.a)] = np.arange(part.a.eigenvalues.size)
    cols_at[orbits.members(part.b)] = np.arange(part.b.eigenvalues.size)
    norm = 1 / np.sqrt(orbits.period[a] * orbits.period[b])
    turn = cyclic_phases(order).conj()  # exp(2 pi i m / L)
    zero = np.zeros(a.size)
    twins = twin * turn[-k * l % order] * norm if 2 * k % order else zero
    entries = [(rows_at[a], cols_at[b], turn[k * l % order] * norm, twins)]
    if chi == -1 and self_pair:
        entries.append((rows_at[b], cols_at[a], zero, turn[(k + order // 2) * l % order] * norm))
    rows, cols, direct, conjugate = (np.concatenate(column) for column in zip(*entries))
    kept = (rows >= 0) & (cols >= 0)
    if not kept.any():
        return None
    at = np.tile(np.arange(a.size), len(entries))
    return rows[kept], cols[kept], at[kept], direct[kept], conjugate[kept]


def _add_picks(picks: tuple, y: np.ndarray, sums: np.ndarray) -> None:
    """Add the :func:`_element_picks` of a (rows, K, cols) stack to ``sums`` (K, classes)."""
    rows, cols, at, direct, conjugate = picks
    picked = y[rows, :, cols]
    gained = direct[:, np.newaxis] * picked
    gained += conjugate[:, np.newaxis] * picked.conj()
    np.add.at(sums, (slice(None), at), gained.T)


def _sector_sweep(rho0: DensityMatrix | SparseOperator, eig: EigenSystem, chi: int,
                  phases: np.ndarray, observables: list, runs) -> np.ndarray:
    """Observable values (time, observable) of a rho0 of character chi.

    An order intensity is read from level pairs (:func:`_level_read`).
    Under a site cycle or the identity every sector basis vector lies in
    one level, so the sum of |rho|^2 over a pair of levels is the sum over
    the sector pairs of |rho_k|^2 over the rows and columns of those
    levels.  Under the flip it is read from the element classes
    (:func:`~mqpure.sectors.flip_add`): g_l[a, b] stands for the
    elements of levels m_a and m_b for l = 0 and m_a and -m_b for l = 1.
    A pair that also stands for its adjoint counts twice.

    An element observable is read one way under every G: each element
    class f_l[a, b] it lists (:func:`_element_classes`) is a fixed
    combination of sector-pair entries and their conjugates
    (:func:`_element_picks`), summed per class and point over the whole
    grid before |.|^2 or the real part is taken.

    For chi = 1, where H and a rho0 held as its nonzeros pass the
    conjugate gate (``eig.conjugate_pairs`` and
    :func:`~mqpure.sectors.rotation_sign`; a dense rho0 is not checked
    and runs every k), a site cycle
    keeps spin-up counts, so pair L - k is eps i^(c_a - c_b) conj(pair k)
    entry by entry and only k = 0 .. L/2 run: the level reads count the
    ones in between twice, and the element reads take their conjugates.

    Each part runs alone, in chunks of its own, over ``runs``, slices of
    the phases; under the flip the order intensities take every part of a
    pair of groups at each time point.  A part that no read touches is not
    transformed.
    """
    orbits = eig.orbits
    order = orbits.order
    values = np.zeros((phases.size, len(observables)))
    # the spin-up count of each orbit; only the flip of every spin changes it
    count, n_spins = popcounts(orbits.table[:, 0]), rho0.dim.bit_length() - 1
    flip = not np.array_equal(popcounts(orbits.table[:, -1]), count)
    sign = (rotation_sign(rho0) if chi == 1 and eig.conjugate_pairs
            and isinstance(rho0, SparseOperator) else 0)
    momenta = range(order // 2 + 1) if sign else range(order)
    intensities = any(obs.order is not None for obs in observables)
    classes, squares, reals = _element_classes(observables, eig, chi)
    twin = sign * QUARTER_TURNS[(count[classes[0]] - count[classes[1]]) % 4]
    sums = np.zeros((phases.size, squares.shape[0]), dtype=complex)
    # a chunk of any pair fits CHUNK_BYTES, or is one point
    largest = max(block.eigenvalues.size for block in eig.blocks) ** 2
    work = tuple(np.empty(max(CHUNK_BYTES // 16, largest), dtype=complex) for _ in range(2))
    for left, right, parts in sector_parts(rho0, eig, chi, momenta):
        outer, inner = orbits.members(left[0]), orbits.members(right[0])
        class_level = None
        if intensities and flip:
            # the flip maps count c to N - c, so row (l, a) meets the
            # columns of count c_b as count c_a for l = 0, N - c_a for l = 1
            rows = np.concatenate([count[outer], n_spins - count[outer]])
            class_level = _level_read(rows, count[inner], (1 + (left is not right)) / order,
                                      observables)
        classes_run = class_level is not None
        mirrored = left is not right or chi == -1
        for batch in [parts] if classes_run else [[part] for part in parts]:
            picks = [_element_picks(part, classes, twin, chi, left is right, orbits)
                     for part in batch]
            levels = [None if not intensities or flip else _level_read(
                count[orbits.members(part.a)], count[orbits.members(part.b)],
                (2 if sign and 2 * part.b.momentum % order else 1) * (1 + mirrored),
                observables) for part in batch]
            if not (classes_run or any(read is not None for read in picks + levels)):
                continue
            size = max([part.moved.size for part in batch]
                       + [order * outer.size * inner.size] * classes_run)
            chunk = _chunk_length(size)
            rights = [_right_factor(part, chunk) for part in batch]
            # buffers for every chunk, so that no chunk maps fresh pages
            widths = [2 * level.weights.size // len(observables) + len(observables)
                      for level in [*levels, class_level] if level is not None]
            scratch = np.empty(chunk * max(widths, default=0))
            if classes_run:
                buffer = np.empty(chunk * order * outer.size * inner.size, dtype=complex)
            for window in _windows(runs, chunk):
                if classes_run:
                    g = buffer[:(window.stop - window.start) * order * outer.size * inner.size]
                    g = g.reshape(order * outer.size, -1, inner.size)
                    g.fill(0)
                    halves = np.split(g, 2)
                for part, pick, level, right_factor in zip(batch, picks, levels, rights):
                    y = _sector_transform(part, phases[window], right_factor, work)
                    if classes_run:
                        flip_add(halves, y, part.b.momentum)
                        if chi == -1 and left is right:  # pair (0, 1), the adjoint of (1, 0)
                            adjoint_y = work[1][:y.size].reshape(y.shape[::-1])
                            flip_add(halves, np.conjugate(y.transpose(2, 1, 0), out=adjoint_y), 1)
                    if pick is not None:
                        _add_picks(pick, y, sums[window])
                    if level is not None:
                        _apply(level, y, values[window], scratch)
                if classes_run:
                    _apply(class_level, g, values[window], scratch)
        # free this pair's stacks and classes before the next pair is gathered
        parts.clear()
        buffer = g = halves = None
    values += (sums * sums.conj()).real @ squares
    values += sums.real @ reals
    return values


def mq_intensity_extractor(basis: ZeemanBasis, n: int) -> Observable:
    """Observable: intensity of coherence order n (paired with -n for n > 0).

    Order 0 gives Tr(rho_0^2); positive n gives Tr(rho_n rho_n+) +
    Tr(rho_-n rho_-n+), 2 Tr(rho_n rho_n+) for a Hermitian rho, so the sum
    over n >= 0 equals Tr(rho^2).  It is an order intensity, so it lists
    no element.
    """
    if not 0 <= n <= basis.n_spins:
        raise ValueError(f"order {n} out of range [0, {basis.n_spins}]")
    return Observable(order=n)


def diag_pair_extractor(basis: ZeemanBasis) -> Observable:
    """Observable: |rho_uu|^2 + |rho_dd|^2 for the all-up/all-down pair."""
    flat = (basis.dim + 1) * np.array([basis.index_all_up, basis.index_all_down])
    return Observable(flat)


def population_extractor(basis: ZeemanBasis, state: int) -> Observable:
    """Observable: diagonal element (population) of one Zeeman state."""
    if not 0 <= state < basis.dim:
        raise ValueError(f"state {state} out of range [0, {basis.dim})")
    return Observable([(basis.dim + 1) * state], squared=False)
