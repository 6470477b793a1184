"""Exact unitary propagation and observable sweeps over a time grid.

Propagation uses one Hermitian eigendecomposition per Hamiltonian, which
is exact for time-independent generators and lets a whole sweep reuse a
single factorization.  Each block is gathered from the Hamiltonian's
nonzero elements (:class:`~mqpure.spin_core.SparseOperator`), and the
symmetry checks compare those elements, sorted, with their permuted
copies, so no d x d matrix is made.

The blocks are the momentum sectors of one cyclic state permutation G of
order L that leaves the Hamiltonian exactly unchanged, taken within each
popcount-parity group (a Hamiltonian with no element between even- and
odd-popcount states, such as the double-quantum one, which flips spins
in pairs, has two groups).  :func:`diagonalize` takes for G

- the state permutation P of a site cycle (found from the couplings by
  :func:`~mqpure.hamiltonians.site_symmetry`) where H is invariant under it;
- otherwise, at even N, the flip of every spin (state s to 2^N - 1 - s,
  the reversal of the index order, L = 2), which leaves the double-quantum
  and the secular Hamiltonian unchanged for any couplings;
- otherwise the identity (L = 1: each parity group is one sector).

Sector k is spanned by sqrt(p)/L sum_j exp(-2 pi i k j / L) G^j |a> over
the orbit representatives a whose period p allows k (Sandvik,
arXiv:1101.3281, section 4), and its matrix is folded from one (r, L, r)
gather of H per group.

A state of character chi = +1 or -1 under G (G rho G+ = chi rho, checked
exactly) has elements only between sectors k + q and k, with q = 0 for
chi = 1 and q = L/2 for chi = -1, so propagation runs on those sector
pairs alone.  The thermal state I_z and the top-order coherence have
chi = 1 under a site cycle and chi = -1 under the flip.  A state of
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
  part) is read from the sector pairs where its weight is constant on
  every pair of orbits and from the element classes otherwise.

:func:`_sector_sweep` does both; :func:`evolve` writes the same classes
into the dense matrix.

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
    gemm,
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


class _Orbits(NamedTuple):
    """The orbits of the basis states under a cyclic state permutation G.

    ``table[o, j]`` is G^j of the representative (smallest state) of orbit
    o, for j below the order L of G; orbits ascend by representative.
    State s is ``table[of[s], step[s]]`` with ``step[s]`` below the orbit's
    ``period``.  ``shift`` is G and ``reflect`` the state permutation of
    a site symmetry's reflection (None without one).
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
        """The orbits of a sector block, in its order."""
        return self.of[block.states[:block.eigenvalues.size]]


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a Hermitian operator, kept per momentum sector.

    ``blocks`` is a tuple of :class:`~mqpure.spin_core.EigenBlock` whose
    vectors together form an orthonormal basis; each block's eigenvalues
    ascend.  ``orbits`` describes the permutation G behind the sectors,
    the blocks come group by group with k ascending from 0 in each, and
    ``plain`` builds the eigensystem of G = identity for states the
    sectors cannot carry (None where G is the identity).
    """

    blocks: tuple = field(repr=False)
    orbits: _Orbits = field(repr=False)
    plain: Callable[[], EigenSystem] | None = field(default=None, repr=False)

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
        return EigenSystem(blocks, self.orbits, plain)


def diagonalize(h: Operator | SparseOperator,
                symmetry: SiteSymmetry | None = None) -> EigenSystem:
    """Eigendecompose a Hermitian operator into the momentum sectors of a
    state permutation G (ascending within each block).

    Every block is gathered from the operator's nonzero elements; a dense
    :class:`Operator` is turned into them once (``SparseOperator.of``).
    The sectors are taken within each popcount parity when no nonzero
    element joins an even- and an odd-popcount state.  G is the first that
    maps the sorted nonzeros exactly onto themselves of the state
    permutation P of the site ``symmetry``, the flip of every spin (where
    it keeps parity, at even N) and the identity.
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
        cycle = _site_orbits(symmetry, h.dim)
        if h.invariant(cycle.shift):
            return _sector_system(h, groups, cycle)
    flip = np.arange(h.dim)[::-1]
    if np.array_equal(odd, odd[flip]) and h.invariant(flip):
        return _sector_system(h, groups, _orbits(flip))
    return _sector_system(h, groups, _orbits(np.arange(h.dim)))


def _sector_system(h: SparseOperator, groups, orbits: _Orbits) -> EigenSystem:
    plain = (None if orbits.order == 1
             else partial(_sector_system, h, groups, _orbits(np.arange(h.dim))))
    return EigenSystem(_momentum_blocks(h, groups, orbits), orbits, plain)


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


def _site_orbits(symmetry: SiteSymmetry, dim: int) -> _Orbits:
    """The orbits of the state permutation of a site symmetry's cycle."""
    reflect = (None if symmetry.reflection is None
               else _state_permutation(symmetry.reflection, dim))
    return _orbits(_state_permutation(symmetry.cycle, dim), reflect)


def _orbits(shift: np.ndarray, reflect: np.ndarray | None = None) -> _Orbits:
    """The orbits of the cyclic state permutation ``shift``."""
    powers = [np.arange(shift.size)]
    while not np.array_equal(next_power := shift[powers[-1]], powers[0]):
        powers.append(next_power)
    powers = np.array(powers)
    representative = powers.min(axis=0)
    reps = np.flatnonzero(representative == powers[0])
    table = powers[:, reps].T
    # an orbit of period p returns to its representative L / p times in L steps
    period = table.shape[1] // (table == table[:, :1]).sum(axis=1)
    step = np.zeros(shift.size, dtype=np.intp)
    for j in range(table.shape[1] - 1, -1, -1):
        step[table[:, j]] = j
    of = np.searchsorted(reps, representative)
    return _Orbits(shift, reflect, table, of, step, period)


def _sector_reader(op: Operator | SparseOperator, orbits: _Orbits, outer: np.ndarray,
                   inner: np.ndarray) -> tuple:
    """The (r, L, r) gather op[a, G^l b], a and b the representatives of
    the ``outer`` and ``inner`` orbits, and sector(k, q), the matrix
    L c_a c_b sum_l exp(-2 pi i k l / L) op[a, G^l b] between sectors k + q
    and k: over the a whose period allows k + q and the b whose period
    allows k (c = sqrt(period) / L), real where 2k is a multiple of L.  The
    phase of l is looked up at k l mod L, so it repeats exactly with any
    period of l that k allows."""
    order = orbits.order
    gathered = op.gather(orbits.table[outer, 0], orbits.table[inner].T)
    period_a, period_b = orbits.period[outer], orbits.period[inner]
    scale_a, scale_b = np.sqrt(period_a) / order, np.sqrt(period_b) / order
    table, steps = cyclic_phases(order), np.arange(order)

    def sector(k: int, q: int = 0) -> np.ndarray:
        keep_a = (k + q) * period_a % order == 0
        keep_b = k * period_b % order == 0
        phases = table[k * steps % order]
        if 2 * k % order == 0:
            phases = phases.real
        # the orbits that the sectors do not allow are left out first
        kept = gathered
        if not keep_a.all():
            kept = kept[keep_a]
        if not keep_b.all():
            kept = kept[:, :, keep_b]
        summed = np.einsum("alb,l->ab", kept, phases)
        summed *= order * np.multiply.outer(scale_a[keep_a], scale_b[keep_b])
        return summed

    return gathered, sector


def _momentum_blocks(h: SparseOperator, groups, orbits: _Orbits) -> tuple:
    """Eigenblocks of the momentum sectors of each group.

    With H[G s, G t] = H[s, t], sector k has the matrix
    L c_a c_b sum_l exp(-2 pi i k l / L) H[a, G^l b] over the
    representatives a, b allowed in it, c = sqrt(period)/L: one gather
    of (r, L, r) elements per group.  For a real H sector L - k is the
    conjugate of sector k and reuses its eigenpairs.
    """
    order = orbits.order
    blocks = []
    for group in groups:
        # the orbits whose representative, step 0, lies in the group
        members = orbits.of[group[orbits.step[group] == 0]]
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
    """A nonzero sector pair (a, b) of a state, ``moved`` into the eigenbasis."""

    a: EigenBlock
    b: EigenBlock
    moved: np.ndarray


def _character(rho: DensityMatrix | SparseOperator, eig: EigenSystem) -> tuple:
    """(eig, chi): chi = 1 or -1 with G rho G+ = chi rho exactly, or, for a
    state of neither character, the fallback eigensystem and chi = 1."""
    if eig.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, hamiltonian {eig.dim}")
    orbits = eig.orbits
    if orbits.order == 1 or rho.invariant(orbits.shift):
        return eig, 1
    if orbits.order % 2 == 0 and rho.invariant(orbits.shift, -1):
        return eig, -1
    return eig.fallback, 1


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
    eig, chi = _character(rho, _as_eigensystem(h))
    return _sector_evolve(rho, eig, chi, np.array([_phase_scale(unit) * t]))


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
    eig, chi = _character(rho0, _as_eigensystem(h))
    times = np.asarray(times, dtype=float)
    points = np.asarray(points, dtype=float).reshape(-1)
    phases = _phase_scale(unit) * np.concatenate([times, points])
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


def _sector_groups(eig: EigenSystem) -> list:
    """The momentum blocks of each group, as {k: block}."""
    groups = []
    for block in eig.blocks:
        if block.momentum == 0:
            groups.append({})
        groups[-1][block.momentum] = block
    return groups


def _sector_parts(rho: DensityMatrix | SparseOperator, eig: EigenSystem, chi: int,
                  momenta):
    """The nonzero sector pairs (k + q, k) of a state of character chi, in the eigenbasis.

    The pair's block between groups A and B is
    rho_k[a, b] = L c_a c_b sum_l exp(-2 pi i k l / L) rho[a, G^l b]
    over the a allowed in sector k + q and the b allowed in sector k, from
    one gather of rho per pair of groups.  For chi = -1 the (k, k + q) pair
    of a group with itself is the adjoint of its (k + q, k) pair, so only
    k < q run there.  Yields (left, right, parts) for each pair of groups,
    left not after right, whose gather is not all zero, one pair at a
    time; each part is a :class:`_Part` (a, b, V_a+ rho_k V_b) of one k in
    ``momenta``.
    """
    groups = _sector_groups(eig)
    for i, left in enumerate(groups):
        for right in groups[i:]:
            parts = _pair_parts(rho, eig.orbits, chi, left, right, momenta)
            if parts is not None:
                yield left, right, parts


def _pair_parts(rho: DensityMatrix | SparseOperator, orbits: _Orbits, chi: int, left: dict,
                right: dict, momenta) -> list | None:
    """The parts of :func:`_sector_parts` between two groups, or None where
    their gather is all zero.  The gather and every temporary go on
    return, before the pair is reduced."""
    order = orbits.order
    q = 0 if chi == 1 else order // 2
    gathered, sector = _sector_reader(rho, orbits, orbits.members(left[0]),
                                      orbits.members(right[0]))
    if not gathered.any():
        return None
    parts = []
    for k in momenta:
        if (left is right and 0 < q <= k) or (k + q) % order not in left or k not in right:
            continue
        a, b = left[(k + q) % order], right[k]
        block = sector(k, q)
        if block.any():
            moved = gemm(gemm(adjoint(a.eigenvectors), block), b.eigenvectors)
            parts.append(_Part(a, b, moved))
    return parts


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


def _sector_transform(part: _Part, phases: np.ndarray, right: np.ndarray | None,
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


def _right_factor(part: _Part, chunk: int) -> np.ndarray | None:
    """The ``right`` of :func:`_sector_transform` for chunks of ``chunk``
    time points: None for a real V_b in chunks of one point.  A chunk of
    several points holds a small sector, whose interleaved GEMM costs less
    than the two transposes of its stack that the real one needs."""
    vectors = part.b.eigenvectors
    if np.iscomplexobj(vectors) or chunk > 1:
        return _interleaved(adjoint(vectors))
    return None


def _add_part(classes: np.ndarray, part: _Part, y: np.ndarray, chi: int, self_pair: bool,
              outer: np.ndarray, inner: np.ndarray, orbits: _Orbits, spare: np.ndarray) -> None:
    """Add a part's stack into the element classes g_l = sum_k exp(2 pi i k l / L) rho_k.

    ``classes`` is a (rows, K, cols) stack (L |outer|, K, |inner|) over the
    orbits of a pair of groups, row l |outer| + a holding g_l[a]; ``y``
    (r_a, K, r_b) is the part's rho_k, k its right momentum.  With f_l = g_l / sqrt(p_a p_b),
    element rho[G^i a, G^(i+l) b] is chi^i f_l[a, b].  For chi = -1 a group
    with itself also adds the adjoint of ``y``, made in the flat complex
    buffer ``spare``, as its (k, k + q) pair.
    """
    order, k = orbits.order, part.b.momentum
    first, second = orbits.members(part.a), orbits.members(part.b)
    stacks = [(y, k, first, second)]
    if self_pair and chi == -1:
        adjoint_y = spare[:y.size].reshape(y.shape[::-1])
        np.conjugate(y.transpose(2, 1, 0), out=adjoint_y)
        stacks.append((adjoint_y, (k + order // 2) % order, second, first))
    blocks = classes.reshape(order, outer.size, *classes.shape[1:])
    for stack, momentum, rows, cols in stacks:
        turn = cyclic_phases(order).conj()[momentum * np.arange(order) % order]
        index = (slice(None),)
        if rows.size < outer.size or cols.size < inner.size:
            # the two index arrays put the rows and columns first, then time
            index = (np.searchsorted(outer, rows)[:, np.newaxis], slice(None),
                     np.searchsorted(inner, cols))
            stack = stack.transpose(0, 2, 1)
        for l, phase in enumerate(turn):
            target = blocks[l]
            if phase == 1:
                target[index] += stack
            elif phase == -1:
                target[index] -= stack
            else:
                target[index] += phase * stack


def _sector_evolve(rho: DensityMatrix | SparseOperator, eig: EigenSystem, chi: int,
                   phase: np.ndarray) -> DensityMatrix:
    """rho(t) of a state of character chi, from its sector pairs.

    Such a state is fixed by its elements rho[a, G^l b] between orbit
    representatives: rho[G^i a, G^j b] = chi^i rho[a, G^(j-i) b].  Those
    follow from the sector pairs as
    rho[a, G^l b] = sum_k exp(2 pi i k l / L) rho_k[a, b] / sqrt(p_a p_b)
    (:func:`_add_part`), and each is written to all the elements it
    stands for.  A group's pairs with itself are made exactly Hermitian
    first (for chi = -1 the adjoint pairs are exact adjoints), and the
    phases repeat exactly with each orbit's period and are exact
    conjugates for -l, so for chi = 1 the result is exactly Hermitian and
    exactly unchanged by G.
    """
    orbits = eig.orbits
    order = orbits.order
    rho_t = np.zeros((rho.dim, rho.dim), dtype=complex)
    for left, right, parts in _sector_parts(rho, eig, chi, range(order)):
        outer, inner = orbits.members(left[0]), orbits.members(right[0])
        classes = np.zeros((order * outer.size, 1, inner.size), dtype=complex)
        for part in parts:
            work = tuple(np.empty(part.moved.size, dtype=complex) for _ in range(2))
            y = _sector_transform(part, phase, _right_factor(part, 1), work)
            if left is right and chi == 1:
                y = 0.5 * (y + np.conjugate(y.transpose(2, 1, 0)))
            _add_part(classes, part, y, chi, left is right, outer, inner, orbits, work[1])
        reduced = classes.reshape(order, outer.size, inner.size).transpose(1, 0, 2)
        reduced *= np.multiply.outer(1 / np.sqrt(orbits.period[outer]),
                                     1 / np.sqrt(orbits.period[inner]))[:, np.newaxis, :]
        # row i of representative a is G^i a; column j * inner.size + b is G^j b
        row_states, col_states = orbits.table[outer], orbits.table[inner].T.ravel()
        for i in range(order):
            values = np.roll(reduced, i, axis=1).reshape(outer.size, -1)
            if chi ** i < 0:
                values = -values
            rho_t[np.ix_(row_states[:, i], col_states)] = values
            if left is not right:
                rho_t[np.ix_(col_states, row_states[:, i])] = values.T.conj()
    return DensityMatrix(matrix=rho_t)


def _orbit_weights(obs: Observable, orbits: _Orbits, dim: int) -> tuple | None:
    """An observable's weight on each orbit pair it touches, or None where it has none.

    The weight exists when every orbit pair O1 x O2 the observable
    touches lists each of its p1 p2 elements equally often; it is then
    the observable's weight times that count.  Returns (first, second,
    weight) over the touched pairs.  The listed elements are counted by
    sorting them by pair and place within it, so nothing has an entry per
    orbit pair.
    """
    count, order = orbits.period.size, orbits.order
    # the key (pair, place) of an element, place = L step[row] + step[col],
    # is a part per row plus a part per column
    keys = ((orbits.of * count * order + orbits.step) * order)[obs.flat // dim]
    keys += (orbits.of * order * order + orbits.step)[obs.flat % dim]
    keys.sort()
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    repeats = np.diff(starts, append=keys.size)
    pairs = keys[starts] // order ** 2
    leads = np.flatnonzero(np.diff(pairs, prepend=-1))
    first, second = np.divmod(pairs[leads], count)
    size = orbits.period[first] * orbits.period[second]
    if not (np.array_equal(np.diff(leads, append=pairs.size), size)
            and np.array_equal(repeats, np.repeat(repeats[leads], size))):
        return None
    return first, second, obs.weight * repeats[leads]


def _reflected(table: tuple, orbits: _Orbits) -> bool:
    """Whether orbit-pair weights are unchanged by the reflection."""
    first, second, weight = table
    mirror = orbits.of[orbits.reflect[orbits.table[:, 0]]]
    count = orbits.period.size
    keys, moved = first * count + second, mirror[first] * count + mirror[second]
    order = np.argsort(moved)  # the keys of the pairs ascend already
    return np.array_equal(keys, moved[order]) and np.array_equal(weight, weight[order])


class _Read(NamedTuple):
    """Sparse weights over a (rows, K, cols) stack.

    Observable column ``columns[c]`` gains the sum, over the entries from
    ``starts[c]`` to the next start, of ``weights`` times |stack|^2
    (``squared``) or its real part at ``positions``, row * cols + col.
    """

    squared: bool
    columns: np.ndarray
    starts: np.ndarray
    positions: np.ndarray
    weights: np.ndarray


def _read(squared: bool, entries: list) -> list:
    """The :class:`_Read` of (column, positions, weights) entries, columns
    ascending, as a list of one, or an empty list where no entry has a
    position."""
    entries = [entry for entry in entries if entry[1].size]
    if not entries:
        return []
    columns, positions, weights = zip(*entries)
    starts = np.cumsum([0] + [p.size for p in positions[:-1]])
    return [_Read(squared, np.array(columns), starts, np.concatenate(positions),
                  np.concatenate(weights))]


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
    ``scale`` (one number, or one per row).  None where no order
    observable meets such an element."""
    counts, at = np.unique(cols, return_inverse=True)
    columns = np.zeros((2 * cols.size, counts.size))
    columns[np.arange(2 * cols.size), np.repeat(at, 2)] = 1.0
    gap = np.abs(rows[:, np.newaxis] - counts).reshape(-1, 1)
    orders = [-1 if obs.order is None else obs.order for obs in observables]
    scale = np.repeat(np.broadcast_to(scale, rows.shape), counts.size)[:, np.newaxis]
    weights = np.where(gap == orders, scale * [obs.weight for obs in observables], 0.0)
    return _LevelRead(columns, weights) if weights.any() else None


def _pick(read: _Read, source: np.ndarray, values: np.ndarray) -> None:
    """Add a read of the (rows, K, cols) float view ``source`` to ``values``."""
    rows, cols = np.divmod(read.positions, source.shape[2])
    picked = source[rows, :, cols]
    picked *= read.weights[:, np.newaxis]
    values[:, read.columns] += np.add.reduceat(picked, read.starts).T


def _apply(reads: list, level: _LevelRead | None, stack: np.ndarray, values: np.ndarray,
           scratch: np.ndarray) -> None:
    """Add the element ``reads`` and the ``level`` read of a contiguous
    (rows, K, cols) complex stack to ``values`` (K, columns), working in
    the flat float buffer ``scratch``.

    The real reads come first.  The stack's parts are then squared in
    place, so that no chunk allocates a stack: the level read sums the
    squares per column level with one GEMM and weighs the (K, rows,
    counts) copy of the sums with another, and the squared element reads
    take |stack|^2, made in place of the real parts.
    """
    rows, points = stack.shape[:2]
    parts = stack.view(np.float64)
    squared = [read for read in reads if read.squared]
    for read in reads:
        if not read.squared:
            _pick(read, parts[:, :, 0::2], values)
    if not squared and level is None:
        return
    np.square(parts, out=parts)
    if level is not None:
        size = rows * points * level.columns.shape[1]
        sums = scratch[:size].reshape(rows, points, -1)
        np.matmul(parts.reshape(rows * points, -1), level.columns,
                  out=sums.reshape(rows * points, -1))
        spread = scratch[size:2 * size].reshape(points, rows, -1)
        np.copyto(spread, sums.transpose(1, 0, 2))
        picked = scratch[2 * size:2 * size + values.size].reshape(values.shape)
        np.matmul(spread.reshape(points, -1), level.weights, out=picked)
        values += picked
    if squared:
        squares = parts[:, :, 0::2]
        squares += parts[:, :, 1::2]
        for read in squared:
            _pick(read, squares, values)


def _sector_reads(part: _Part, tables: dict, squared: list, real: list, mirrored: bool,
                  count: int, orbits: _Orbits) -> list:
    """The reads of one sector pair's stack by the orbit-pair weights ``tables``.

    A squared read weighs |rho_k[O1, O2]|^2 by the pair's weight times
    ``count``; a real read (k = 0, chi = 1) weighs rho_0[O1, O2] by it times
    sqrt(p1 p2).  Where the pair also stands for its adjoint
    (``mirrored``), the weight of (O2, O1) adds at (O1, O2).
    """
    rows, cols = (np.full(orbits.period.size, -1) for _ in range(2))
    first, second = orbits.members(part.a), orbits.members(part.b)
    rows[first], cols[second] = np.arange(first.size), np.arange(second.size)

    def entries(column, factor):
        one, other, weight = tables[column]
        positions, weights = [], []
        for x, y in ((one, other), (other, one))[:1 + mirrored]:
            kept = np.flatnonzero((rows[x] >= 0) & (cols[y] >= 0))
            x, y = x[kept], y[kept]
            positions.append(rows[x] * second.size + cols[y])
            weights.append(weight[kept] * factor(x, y))
        return column, np.concatenate(positions), np.concatenate(weights)

    period = orbits.period
    return (_read(False, [entries(c, lambda x, y: np.sqrt(period[x] * period[y]))
                          for c in real])
            + _read(True, [entries(c, lambda x, y: count) for c in squared]))


def _class_reads(observables: list, columns: list, chi: int, eig: EigenSystem,
                 left: dict, right: dict) -> list:
    """The reads of the element classes (:func:`_add_part`) of the pair of
    groups ``left`` and ``right``, as yielded by :func:`_sector_parts`.

    Element (G^i a, G^j b) is chi^i g_l[a, b] / sqrt(p_a p_b) with
    l = (j - i) mod L; a pair of different groups also stands for its
    mirror, whose elements are the conjugates.
    """
    orbits, dim, order = eig.orbits, eig.dim, eig.orbits.order
    period, sign = orbits.period[orbits.of], chi ** orbits.step
    outer, inner = orbits.members(left[0]), orbits.members(right[0])
    size = outer.size * inner.size
    # (l |outer| + a) |inner| + b is the row code a |inner| - i size plus
    # the column code b + j size, plus L size where that is negative; a
    # state outside the pair's groups codes far past L size
    row_code, col_code = (np.full(dim, 3 * order * size) for _ in range(2))
    for code, members, factor, sign_of_step in ((row_code, outer, inner.size, -1),
                                                (col_code, inner, 1, 1)):
        states = orbits.table[members].ravel()
        code[states] = (np.searchsorted(members, orbits.of[states]) * factor
                        + sign_of_step * orbits.step[states] * size)
    end = order * size
    entries = {False: [], True: []}
    for column in columns:
        obs = observables[column]
        rows, cols = np.divmod(obs.flat, dim)
        positions, weights = [], []
        for x, y in ((rows, cols), (cols, rows))[:1 + (left is not right)]:
            place = row_code[x] + col_code[y]
            place[place < 0] += end
            kept = np.flatnonzero(place < end)
            x, y = x[kept], y[kept]
            positions.append(place[kept])
            scale = period[x] * period[y]
            weights.append(obs.weight / scale if obs.squared
                           else obs.weight * sign[x] / np.sqrt(scale))
        entries[bool(obs.squared)].append((column, np.concatenate(positions),
                                           np.concatenate(weights)))
    return _read(False, entries[False]) + _read(True, entries[True])


def _sector_sweep(rho0: DensityMatrix | SparseOperator, eig: EigenSystem, chi: int,
                  phases: np.ndarray, observables: list, runs) -> np.ndarray:
    """Observable values (time, observable) of a rho0 of character chi.

    An order intensity is read from level pairs (:func:`_level_read`).
    Under a site cycle or the identity every sector basis vector lies in
    one level, so the sum of |rho|^2 over a pair of levels is the sum over
    the sector pairs of |rho_k|^2 over the rows and columns of those
    levels.  Under the flip it is read from the element classes
    (:func:`_add_part`): g_l[a, b] stands for the elements of levels m_a
    and m_b for l = 0 and m_a and -m_b for l = 1.

    For L > 2, an element observable whose weight is constant on each
    orbit pair (:func:`_orbit_weights`) is read from the sector pairs:
    - squared, sum over O1 x O2 of |rho|^2 is the sum over the pairs of
      |rho_k[O1, O2]|^2;
    - real part, sum over O1 x O2 of rho is sqrt(p1 p2) rho_0[O1, O2] for
      chi = 1 and zero for chi = -1.
    Every other element observable is read from the element classes
    (:func:`_class_reads`), for which all sector pairs run.

    A pair that also stands for its adjoint counts twice.  Where the
    reflection R leaves rho0 and every squared element weight unchanged
    (chi = 1), R maps sector k onto sector -k with equal contributions, so
    only k = 0 .. L/2 run, the ones in between counted twice.

    Each sector pair is set up once, and each pair of groups is reduced
    over ``runs``, slices of the phases, each in chunks of its own.
    """
    orbits = eig.orbits
    order = orbits.order
    values = np.zeros((phases.size, len(observables)))
    # for L <= 2 the classes are the sum and difference of at most two
    # sector pairs, no dearer to build than the pairs are to read, and all
    # pairs run either way
    tables = {c: _orbit_weights(obs, orbits, rho0.dim) if order > 2 else None
              for c, obs in enumerate(observables) if obs.order is None}
    squared = [c for c, table in tables.items() if table is not None
               and observables[c].squared]
    real = [c for c, table in tables.items() if table is not None and chi == 1
            and not observables[c].squared]
    elements = [c for c, table in tables.items() if table is None]
    intensities = len(tables) < len(observables)
    paired = (chi == 1 and not elements and orbits.reflect is not None
              and rho0.invariant(orbits.reflect)
              and all(_reflected(tables[c], orbits) for c in squared))
    momenta = (range(order // 2 + 1) if paired
               else range(order) if squared or elements or intensities else [0])
    # the spin-up count of each orbit; only the flip of every spin changes it
    count, n_spins = popcounts(orbits.table[:, 0]), rho0.dim.bit_length() - 1
    flip = not np.array_equal(popcounts(orbits.table[:, -1]), count)
    # a chunk of any pair fits CHUNK_BYTES, or is one point
    largest = max(block.eigenvalues.size for block in eig.blocks) ** 2
    work = tuple(np.empty(max(CHUNK_BYTES // 16, largest), dtype=complex) for _ in range(2))
    for left, right, parts in _sector_parts(rho0, eig, chi, momenta):
        outer, inner = orbits.members(left[0]), orbits.members(right[0])
        class_read = _class_reads(observables, elements, chi, eig, left, right) if elements else []
        class_level = None
        if intensities and flip:
            # the flip maps count c to N - c, so row (l, a) meets the
            # columns of count c_b as count c_a for l = 0, N - c_a for l = 1
            rows = np.concatenate([count[outer], n_spins - count[outer]])
            class_level = _level_read(rows, count[inner], (1 + (left is not right)) / order,
                                      observables)
        classes = bool(class_read) or class_level is not None
        mirrored = left is not right or chi == -1
        # the classes need every part at each time point; otherwise each
        # part runs alone, in chunks of its own length
        for batch in [parts] if classes else [[part] for part in parts]:
            reads, levels = [], []
            for part in batch:
                factor = 2 if paired and 2 * part.b.momentum % order else 1
                reads.append(_sector_reads(part, tables, squared,
                                           real if part.b.momentum == 0 else [],
                                           mirrored, factor, orbits))
                levels.append(None if not intensities or flip else _level_read(
                    count[orbits.members(part.a)], count[orbits.members(part.b)],
                    factor * (1 + mirrored), observables))
            if not (classes or any(reads) or any(level is not None for level in levels)):
                continue
            size = max([part.moved.size for part in batch]
                       + [order * outer.size * inner.size] * classes)
            chunk = _chunk_length(size)
            rights = [_right_factor(part, chunk) for part in batch]
            # buffers for every chunk, so that no chunk maps fresh pages
            widths = [2 * level.weights.size // len(observables) + len(observables)
                      for level in [*levels, class_level] if level is not None]
            scratch = np.empty(chunk * max(widths, default=0))
            if classes:
                buffer = np.empty(chunk * order * outer.size * inner.size, dtype=complex)
            for window in _windows(runs, chunk):
                if classes:
                    g = buffer[:(window.stop - window.start) * order * outer.size * inner.size]
                    g = g.reshape(order * outer.size, -1, inner.size)
                    g.fill(0)
                for part, part_reads, level, right_factor in zip(batch, reads, levels, rights):
                    y = _sector_transform(part, phases[window], right_factor, work)
                    if classes:
                        _add_part(g, part, y, chi, left is right, outer, inner, orbits,
                                  work[1])
                    _apply(part_reads, level, y, values[window], scratch)
                if classes:
                    _apply(class_read, class_level, g, values[window], scratch)
        # free this pair's stacks and classes before the next pair is gathered
        parts.clear()
        buffer = g = None
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
