"""Non-unitary steps: crusher dephasing and partial saturation.

Both act on the eigenstates of the secular Hamiltonian, kept per m level
and, under a site cycle of at least ``SECTOR_MIN_SPINS`` spins, per
momentum sector of the cycle within each level (:mod:`mqpure.sectors`,
:func:`build_transition_graph`).  Single-quantum transitions join
only equal momenta of adjacent levels, and the basis inside a degenerate
manifold of momenta k and -k is that of the sectors, so the edges do
not depend on how the sites are labelled.

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

from .hamiltonians import collective_transverse
from .output import write_csv
from .sectors import momentum_blocks, orbits_of, pair_parts, state_permutation
from .spin_core import (
    DensityMatrix,
    EigenBlock,
    Operator,
    SparseOperator,
    ZeemanBasis,
    cyclic_phases,
    frozen_array,
    gemm,
    require_finite,
)

STRENGTH_THRESHOLD = 1e-10  # relative to the strongest transition

# below this many spins the graph keeps whole m levels: their few small
# eigh calls cost less than the many smaller momentum sectors they split
# into (at 6 spins, 7 blocks against 32), and the sectors' fewer edges
# save less than that
SECTOR_MIN_SPINS = 8


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
        require_finite("center_frequency", self.center_frequency)
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
        require_finite("rate_scale", self.rate_scale, "positive")
        require_finite("duration", self.duration, "positive")
        if self.mode not in ("timed", "steady_state"):
            raise ValueError(f"unknown saturation mode {self.mode!r}")
        require_finite("envelope_floor", self.envelope_floor, "nonnegative")

    def envelope(self, frequency) -> np.ndarray:
        """Gaussian spectral weight at the given frequency (peak = 1)."""
        x = (np.asarray(frequency, dtype=float) - self.center_frequency)
        return np.exp(-(x**2) / (2.0 * self.width_sigma**2))


@dataclass(frozen=True)
class TransitionGraph:
    """Allowed single-quantum transitions between secular eigenstates.

    ``blocks`` holds the eigenbasis per m level and momentum sector of a
    site cycle (:func:`build_transition_graph`), levels ascending and, in
    each level, momentum k ascending; without the sectors each level is
    one block.  The eigenstates follow the blocks, ascending in energy
    within each block: block i covers the next
    ``blocks[i].eigenvalues.size`` eigenstates, so the all-down state is
    index 0 and the all-up state the last one.  Each edge joins
    ``upper[k]`` (magnetization m+1) to ``lower[k]`` (magnetization m)
    with ``frequencies[k] = E_upper - E_lower`` and
    ``strengths[k] = |<upper| I_+ |lower>|^2``.  The dense view
    ``energies`` is assembled from the blocks on first use.
    """

    m_values: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)
    frequencies: np.ndarray = field(repr=False)
    strengths: np.ndarray = field(repr=False)
    blocks: tuple = field(repr=False)

    def __post_init__(self):
        for name in ("m_values", "frequencies", "strengths"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), float))
        for name in ("upper", "lower"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), int))
        if sum(block.eigenvalues.size for block in self.blocks) != self.n_states:
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
        return frozen_array(np.concatenate([block.eigenvalues for block in self.blocks]))

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

        Computed block by block over the states each block lists
        (:func:`_listed_vectors`), so the elements of rho between different
        m levels (which a crush would remove) are never touched.
        """
        if rho.dim != self.n_states:
            raise ValueError("state dimension does not match graph")
        populations = []
        for block in self.blocks:
            v = _listed_vectors(block)
            part = gemm(rho.gather(block.states, block.states), v)
            populations.append(np.real(np.einsum("ia,ia->a", v.conj(), part)))
        return np.concatenate(populations)

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ["a", "b", "m_a", "m_b", "frequency", "strength"],
                  [self.upper, self.lower, self.m_values[self.upper],
                   self.m_values[self.lower], self.frequencies, self.strengths])


def _listed_vectors(block: EigenBlock) -> np.ndarray:
    """A block's eigenvectors over its listed ``states``, shaped (states, vectors).

    A momentum sector block lists L slices of its orbits (see
    :class:`~mqpure.spin_core.EigenBlock`); over slice j a vector is
    exp(-2 pi i k j / L) times ``scale`` per row times the block's vector.
    A state listed in several slices stands for the sum of its entries,
    so a bilinear form over the listed states is the one over the basis.
    """
    vectors = block.eigenvectors
    slices = block.states.size // block.eigenvalues.size
    if slices == 1:
        return vectors
    phases = cyclic_phases(slices)[block.momentum * np.arange(slices) % slices]
    if 2 * block.momentum % slices == 0:
        phases = phases.real
    return np.kron(phases[:, np.newaxis], block.scale[:, np.newaxis] * vectors)


def crush(rho: DensityMatrix) -> DensityMatrix:
    """Zero all off-diagonal elements, keeping the diagonal exactly.

    Models a gradient pulse; inside the pipeline it is applied in the
    secular eigenbasis so the survivors are eigenstate populations.
    """
    return DensityMatrix(matrix=np.diag(np.diag(rho.matrix)))


def build_transition_graph(h_secular: Operator | SparseOperator, basis: ZeemanBasis,
                           symmetry: np.ndarray | None = None) -> TransitionGraph:
    """Eigendecompose per m level and momentum sector, and enumerate allowed transitions.

    Every block is gathered from the Hamiltonian's nonzero elements; a
    dense :class:`Operator` is turned into them once
    (``SparseOperator.of``).  Where a site cycle ``symmetry`` is given,
    there are at least ``SECTOR_MIN_SPINS`` spins and H is exactly
    unchanged by its state permutation G, each m level splits into the
    momentum sectors k of G, as in :func:`~mqpure.evolution.diagonalize`
    (G keeps the level); otherwise each level is one block (G = identity,
    L = 1).  I_+ + I_- commutes with G and its block from level m to m+1
    is I_+, so edges join only sectors (m, k) and (m+1, k), with strengths
    |V_{m+1,k}+ R_k V_{m,k}|^2, R_k its sector-k block: the parts of
    I_+ + I_- between the two levels (:func:`~mqpure.sectors.pair_parts`).
    For a real H, sector L - k is the conjugate of sector k and has its
    strengths, so only k <= L/2 run.
    Edges with strength at most ``STRENGTH_THRESHOLD`` times the strongest
    one are dropped: that separates symmetry-forbidden zeros from
    roundoff.

    In the sectors, the eigenbasis inside a degenerate manifold of
    momenta k and -k is fixed by the symmetry, so the edges, and how many
    there are, do not depend on how the sites are labelled.

    Args:
        h_secular: Hamiltonian commuting with collective I_z.
        basis: Zeeman basis; its spin-up levels are the m levels.
        symmetry: Cyclic site relabelling (``site_symmetry``) that may split the levels.
    """
    if h_secular.dim != basis.dim:
        raise ValueError("hamiltonian dimension does not match basis")
    h = SparseOperator.of(h_secular)
    scale = max(np.linalg.norm(h.values), 1e-300)
    off_block = basis.m[h.rows] != basis.m[h.cols]
    if np.abs(h.values[off_block]).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("hamiltonian does not conserve collective I_z")

    orbits = None
    if symmetry is not None and basis.n_spins >= SECTOR_MIN_SPINS:
        orbits = orbits_of(state_permutation(symmetry, basis.dim))
    if orbits is None or not h.invariant(orbits.shift):
        orbits = orbits_of(np.arange(basis.dim))
    levels = basis.levels()
    blocks = momentum_blocks(h, levels, orbits)
    sizes = [block.eigenvalues.size for block in blocks]
    starts = np.cumsum([0] + sizes)
    ups = basis.spins_up()
    m_values = np.repeat([basis.m[block.states[0]] for block in blocks], sizes)
    at = [{} for _ in levels]  # the index of each sector block of a level, by momentum
    for i, block in enumerate(blocks):
        at[ups[block.states[0]]][block.momentum] = i

    order, real = orbits.order, not np.iscomplexobj(h.values)
    momenta = range(order // 2 + 1) if real else range(order)
    transverse = collective_transverse(basis)
    squared = []  # (upper block, lower block, |<u| I_+ |l>|^2) per pair of sectors
    for low, high in zip(at[:-1], at[1:]):
        sides = ({k: blocks[i] for k, i in level.items()} for level in (high, low))
        for part in pair_parts(transverse, orbits, 1, *sides, momenta) or ():
            k, s = part.b.momentum, np.abs(part.moved) ** 2
            for m in {k, -k % order} if real else {k}:
                squared.append((high[m], low[m], s))
    # the strongest edge sets the floor, so that only the kept edges get
    # indices and frequencies, in the order of the block pairs, row-major
    floor = STRENGTH_THRESHOLD * max((s.max(initial=0.0) for _, _, s in squared), default=0.0)
    edges = [[], [], [], []]  # upper, lower, frequency and strength per block pair
    for i, (a, b, s) in enumerate(squared):
        # each matrix goes as soon as the edges of its last pair are taken
        squared[i] = None
        upper, lower = np.nonzero(s > floor)
        for field, values in zip(edges, (starts[a] + upper, starts[b] + lower,
                                         blocks[a].eigenvalues[upper]
                                         - blocks[b].eigenvalues[lower], s[upper, lower])):
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
