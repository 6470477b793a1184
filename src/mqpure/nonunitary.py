"""Non-unitary steps: crusher dephasing and partial saturation.

Saturation is modeled as a classical rate equation on the populations of
secular-Hamiltonian eigenstates,

    dp_a/dt = sum_b W_ab (p_b - p_a),

with symmetric rates W_ab proportional to the single-quantum transition
strength times a Gaussian spectral envelope of the irradiation.  Its
steady state is the population mean over each connected set of driven
transitions.  States whose transitions all fall outside the envelope
keep their population: that trapping is the whole point of saturating
only part of the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .evolution import _momentum_blocks, _orbits
from .output import write_csv
from .spin_core import (
    DensityMatrix,
    Operator,
    SparseOperator,
    ZeemanBasis,
    _frozen_array,
    adjoint,
    gemm,
)

STRENGTH_THRESHOLD = 1e-10  # relative to the strongest transition


@dataclass(frozen=True)
class SaturationParams:
    """Gaussian-envelope saturation settings.

    Args:
        center_frequency: Envelope center, in the secular spectrum units.
        width_sigma: Envelope standard deviation (> 0).
        rate_scale: Overall rate constant (> 0, arbitrary units).
        duration: Integration time for "timed" mode (> 0, in units where
            rate_scale * duration is dimensionless).
        mode: "steady_state" (relax the driven transitions completely) or
            "timed" (integrate for ``duration``).
        envelope_floor: In steady-state mode, transitions whose envelope
            factor falls below this fraction of the peak are treated as
            undriven; populations connected only through them stay put.
    """

    center_frequency: float
    width_sigma: float
    rate_scale: float = 1.0
    duration: float = 1.0
    mode: str = "steady_state"
    envelope_floor: float = 1e-3

    def __post_init__(self):
        if not self.width_sigma > 0:
            raise ValueError("width_sigma must be positive")
        try:
            spread = 2.0 * self.width_sigma**2
        except OverflowError:
            spread = math.inf
        # the envelope divides by 2 width_sigma^2
        if not 0 < spread < math.inf:
            raise ValueError(
                f"width_sigma {self.width_sigma!r} gives 2*width_sigma**2 = {spread!r}; "
                "it must be positive and finite"
            )
        if self.rate_scale <= 0:
            raise ValueError("rate_scale must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.mode not in ("timed", "steady_state"):
            raise ValueError(f"unknown saturation mode {self.mode!r}")
        if self.envelope_floor < 0:
            raise ValueError("envelope_floor must be nonnegative")

    def envelope(self, frequency) -> np.ndarray:
        """Gaussian spectral weight at the given frequency (peak = 1)."""
        x = (np.asarray(frequency, dtype=float) - self.center_frequency)
        return np.exp(-(x**2) / (2.0 * self.width_sigma**2))


@dataclass(frozen=True)
class TransitionGraph:
    """Allowed single-quantum transitions between secular eigenstates.

    Eigenstates are ordered by (m block ascending, energy ascending), so
    the all-down state is index 0 and the all-up state is the last one.
    Each edge joins ``upper[k]`` (magnetization m+1) to ``lower[k]``
    (magnetization m) with ``frequencies[k] = E_upper - E_lower`` and
    ``strengths[k] = |<upper| I_+ |lower>|^2``.

    ``blocks`` holds the eigenbasis per m block, in eigenstate order:
    block k covers the next ``blocks[k].states.size`` eigenstates.  The
    dense view ``energies`` is assembled from it on first use.
    """

    m_values: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)
    frequencies: np.ndarray = field(repr=False)
    strengths: np.ndarray = field(repr=False)
    blocks: tuple = field(repr=False)

    def __post_init__(self):
        for name in ("m_values", "frequencies", "strengths"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), float))
        for name in ("upper", "lower"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), int))
        if sum(block.states.size for block in self.blocks) != self.n_states:
            raise ValueError("eigenbasis blocks must cover every eigenstate")
        if np.any(self.strengths < 0):
            raise ValueError("strengths must be nonnegative")
        dm = self.m_values[self.upper] - self.m_values[self.lower]
        if dm.size and np.abs(dm - 1.0).max() > 1e-9:
            raise ValueError("graph edges must connect m to m+1")

    @property
    def n_states(self) -> int:
        return self.m_values.shape[0]

    @cached_property
    def energies(self) -> np.ndarray:
        return _frozen_array(np.concatenate([block.eigenvalues for block in self.blocks]))

    @property
    def n_edges(self) -> int:
        return self.frequencies.shape[0]

    @property
    def index_all_up(self) -> int:
        return int(np.argmax(self.m_values))

    @property
    def index_all_down(self) -> int:
        return int(np.argmin(self.m_values))

    def populations(self, rho: DensityMatrix | SparseOperator) -> np.ndarray:
        """Eigenstate populations: diagonal of rho in the eigenbasis.

        Computed block by block, so the elements of rho between different
        m blocks (which a crush would remove) are never touched.
        """
        if rho.dim != self.n_states:
            raise ValueError("state dimension does not match graph")
        populations = []
        for block in self.blocks:
            v = block.eigenvectors
            part = gemm(rho.gather(block.states, block.states), v)
            populations.append(np.real(np.einsum("ia,ia->a", v.conj(), part)))
        return np.concatenate(populations)

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ["a", "b", "m_a", "m_b", "frequency", "strength"],
                  [self.upper, self.lower, self.m_values[self.upper],
                   self.m_values[self.lower], self.frequencies, self.strengths])


def crush(rho: DensityMatrix) -> DensityMatrix:
    """Zero all off-diagonal elements, keeping the diagonal exactly.

    Models a gradient pulse; inside the pipeline it is applied in the
    secular eigenbasis so the survivors are eigenstate populations.
    """
    return DensityMatrix(matrix=np.diag(np.diag(rho.matrix)))


def build_transition_graph(h_secular: Operator | SparseOperator,
                           basis: ZeemanBasis) -> TransitionGraph:
    """Eigendecompose blockwise by m and enumerate allowed transitions.

    Each m block is gathered from the Hamiltonian's nonzero elements; a
    dense :class:`Operator` is turned into them once
    (``SparseOperator.of``).  The collective raising operator only links
    block m to block m+1, so it is formed between adjacent blocks alone,
    as V_{m+1}+ R V_m.  Edges with strength at most
    ``STRENGTH_THRESHOLD`` times the strongest one are dropped: that
    separates symmetry-forbidden zeros from roundoff.

    Args:
        h_secular: Hamiltonian commuting with collective I_z.
        basis: Zeeman basis; its spin-up levels are the m blocks.
    """
    if h_secular.dim != basis.dim:
        raise ValueError("hamiltonian dimension does not match basis")
    h = SparseOperator.of(h_secular)
    scale = max(np.linalg.norm(h.values), 1e-300)
    off_block = basis.m[h.rows] != basis.m[h.cols]
    if np.abs(h.values[off_block]).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("hamiltonian does not conserve collective I_z")

    # the m blocks, ascending, are the sectors of the identity on the levels
    blocks = _momentum_blocks(h, basis.levels(), _orbits(np.arange(basis.dim)))
    sizes = [block.states.size for block in blocks]
    starts = np.cumsum([0] + sizes)
    m_values = basis.m[np.concatenate([block.states for block in blocks])]
    position = np.empty(basis.dim, dtype=int)  # index of a Zeeman state in its block
    for block in blocks:
        position[block.states] = np.arange(block.states.size)

    squared = []  # |<u| I_+ |l>|^2 per pair of adjacent blocks
    for low, high in zip(blocks[:-1], blocks[1:]):
        raising = np.zeros((high.states.size, low.states.size))
        for site in range(basis.n_spins):
            free = np.flatnonzero((low.states >> site) & 1 == 0)
            raising[position[low.states[free] | (1 << site)], free] = 1.0
        squared.append(np.abs(gemm(gemm(adjoint(high.eigenvectors), raising),
                                   low.eigenvectors)) ** 2)
    # the strongest edge sets the floor, so that only the kept edges get
    # indices and frequencies, in the order of the block pairs, row-major
    floor = STRENGTH_THRESHOLD * max((s.max(initial=0.0) for s in squared), default=0.0)
    edges = [[], [], [], []]  # upper, lower, frequency and strength per block pair
    for k, (low, high) in enumerate(zip(blocks[:-1], blocks[1:])):
        # each matrix goes as soon as its edges are taken
        s, squared[k] = squared[k], None
        a, b = np.nonzero(s > floor)
        for field, values in zip(edges, (starts[k + 1] + a, starts[k] + b,
                                         high.eigenvalues[a] - low.eigenvalues[b], s[a, b])):
            field.append(values)
    # one field at a time, so that each list, then each unsorted field, goes
    # in turn; the sorted fields are frozen as made, so the graph keeps them
    for i in range(4):
        edges[i] = np.concatenate(edges[i])
    ordering = np.lexsort((edges[1], edges[0], edges[2]))
    for i in range(4):
        edges[i] = edges[i][ordering]
        edges[i].setflags(write=False)
    del ordering
    upper, lower, freqs, strengths = edges
    return TransitionGraph(m_values=m_values, upper=upper, lower=lower, frequencies=freqs,
                           strengths=strengths, blocks=blocks)


def saturate(
    populations: np.ndarray, graph: TransitionGraph, params: SaturationParams
) -> np.ndarray:
    """Relax eigenstate populations under envelope-weighted transitions.

    Timed mode integrates the rate equation for ``params.duration``
    exactly (spectral solution of the graph Laplacian).  Steady-state
    mode gives every eigenstate the mean population of its connected
    component of driven transitions, which is where the rate equation
    ends up: an edge is driven when its envelope factor is at least
    ``params.envelope_floor`` and its rate is positive.  States with no
    driven edge keep their population.  Total population is conserved
    either way.
    """
    p0 = np.asarray(populations, dtype=float)
    if p0.shape != (graph.n_states,):
        raise ValueError(
            f"populations must have length {graph.n_states}, got {p0.shape}"
        )
    envelope = params.envelope(graph.frequencies)
    weights = params.rate_scale * graph.strengths * envelope
    if params.mode == "steady_state":
        driven = (envelope >= params.envelope_floor) & (weights > 0)
        labels = _component_labels(graph.n_states, graph.upper[driven], graph.lower[driven])
        totals = np.bincount(labels, weights=p0, minlength=graph.n_states)
        sizes = np.bincount(labels, minlength=graph.n_states)
        return totals[labels] / sizes[labels]

    w = np.zeros((graph.n_states, graph.n_states))
    np.add.at(w, (graph.upper, graph.lower), weights)
    w = w + w.T
    if not w.any():
        return p0.copy()
    rates, modes = np.linalg.eigh(np.diag(w.sum(axis=1)) - w)
    decay = np.exp(-np.clip(rates, 0.0, None) * params.duration)
    return modes @ (decay * (modes.T @ p0))


def _component_labels(n_states: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest state index in the connected component of every state.

    Edges join ``a[k]`` and ``b[k]``.  Each round points every state at
    its root, then hooks the larger root of every edge whose ends
    disagree onto the smaller one, until no edge joins two roots.
    """
    labels = np.arange(n_states)
    while True:
        while not np.array_equal(labels[labels], labels):
            labels = labels[labels]
        root_a, root_b = labels[a], labels[b]
        if np.array_equal(root_a, root_b):
            return labels
        low = np.minimum(root_a, root_b)
        np.minimum.at(labels, root_a, low)
        np.minimum.at(labels, root_b, low)
