"""End-to-end pseudopure-state preparation and its quantitative report.

The pipeline executes the four experimental steps on the deviation
density matrix:

1. excitation under the double-quantum Hamiltonian for ``t_prep``.  Its
   order intensities are one more point of the thermal sweep, evaluated
   from the same set-up;
2. filtering of one coherence order n.  The excited state is held as
   its sector pairs, the blocks between the momentum sectors of the
   double-quantum eigensystem (the flip sectors or the parity groups
   where the couplings have no site cycle).  Every sector basis vector
   lies in one spin-up level under a site cycle or the identity, so the
   filter keeps, in each pair, the entries whose levels differ by n;
   under the flip, which maps level c to N - c, it keeps those of the
   pair's two element classes and folds them back;
3. time reversal (same duration under the negated Hamiltonian, which is
   the forward eigensystem propagated for -t_prep), applied to each
   filtered pair;
4. crusher dephasing in the secular eigenbasis, kept per m level and
   momentum sector of the same site cycle (whole m levels without one),
   whose populations are read from the reversed pairs one block at a
   time, then partial saturation.

One path serves every filter order and every sector symmetry, and no
d x d array is made.  The thermal state I_z is held as its diagonal m
(``thermal_state``), from which the sweep gathers its blocks, and the
two Hamiltonians as their nonzero elements.  I_z is m on the basis of
every sector pair and on every block of the secular eigenbasis, so
its purity is sum m^2 and its eigenstate populations are the m values.
The filtered state is all order n, so its purity ``kept`` is its one
intensity read.  Each stage check compares two numbers:

- excitation: the sweep point's intensity sum against sum m^2;
- filter ("efficiency product rule"): ``kept`` against the sweep
  point's order-n intensity, so a filter that loses or gains intensity
  fails it;
- time reversal: the reversed state's intensity sum against ``kept``;
- crush: the crushed populations' squared sum, at most the reversed
  purity;
- saturation: the total population before and after.

Efficiencies are purity fractions: ``f_homq`` is ``kept`` over the
thermal purity, ``f_convert`` the all-up/all-down diagonal-pair
intensity after reversal over ``kept``, and ``f_overall`` their product
by construction.
"""

from __future__ import annotations

import dataclasses
import json
import typing
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import hamiltonians, mq, nonunitary, spectrum as spec
from .evolution import (
    EigenSystem,
    SweepTable,
    diag_pair_extractor,
    diagonalize,
    mq_intensity_extractor,
    phase_scale,
    sweep,
    time_grid,
    transformed,
)
from .output import write_csv
from .sectors import Orbits, Part, character, class_matrices, elements, sector_groups
from .spin_core import (
    NumericalInvariantError,
    SparseOperator,
    SpinSystem,
    ZeemanBasis,
    adjoint,
    build_basis,
    gemm,
    popcounts,
    require_finite,
    thermal_state,
)

PURITY_DRIFT_RTOL = 1e-9

PRODUCT_RULE_RTOL = 1e-6

# two computations of an intensity fraction f (over the thermal purity)
# differ by the roundoff of its elements, which reaches about eps sqrt(f);
# the product rule allows this much times sqrt(f) on top of its rtol
INTENSITY_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class PipelineConfig:
    """Settings for one full preparation run.

    ``system`` is "hexagon" or a path to a plain-text coupling file.
    Times are in units of the inverse reference coupling; ``t_prep``
    defaults to the simulated optimum of the six-spin ring.
    ``intensity_floor`` is the dominant-peak floor used for the
    per-stage peak counts.
    """

    system: str = "hexagon"
    d12: float = 1.0
    t_prep: float = 0.973
    t_max: float = 2.0
    t_step: float = 0.001
    filter_n: int | None = None
    saturation: nonunitary.SaturationParams | None = None
    merge_tolerance: float = 1e-6
    intensity_floor: float = 0.1
    unit: str = "cyclic"
    out_dir: str | None = None

    def __post_init__(self):
        for name in ("t_prep", "t_max", "t_step", "merge_tolerance"):
            require_finite(name, getattr(self, name), "positive")
        require_finite("intensity_floor", self.intensity_floor, "nonnegative")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Load a JSON config.

        Unknown keys, missing required saturation keys and values of the
        wrong JSON type are rejected with ``ValueError``.
        """
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        saturation = raw.pop("saturation", None)
        _check_fields(str(path), raw, cls)
        if saturation is not None:
            if not isinstance(saturation, dict):
                raise ValueError(f"{path}: saturation must be a JSON object")
            _check_fields(f"{path}: saturation", saturation, nonunitary.SaturationParams)
            saturation = nonunitary.SaturationParams(**saturation)
        return cls(saturation=saturation, **raw)


_JSON_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", type(None): "null"}


def _check_fields(source: str, raw: dict, cls) -> None:
    """Check JSON values against the annotated field types of ``cls``."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ValueError(f"{source}: unknown config keys {sorted(unknown)}")
    missing = [name for name, f in fields.items() if name not in raw
               and f.default is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{source}: missing config keys {missing}")
    hints = typing.get_type_hints(cls)
    for name, value in raw.items():
        allowed = typing.get_args(hints[name]) or (hints[name],)
        accepted = allowed + (int,) if float in allowed else allowed
        if isinstance(value, bool) or not isinstance(value, accepted):
            expected = " or ".join(_JSON_TYPE_NAMES[t] for t in allowed)
            raise ValueError(f"{source}: {name} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class PipelineReport:
    """Quantitative outcome of a run.

    ``peak_counts`` holds the dominant-peak counts of the thermal,
    post-crush and post-saturation spectra; ``u_peak_gain`` compares the
    final pseudopure line with the same transition at equilibrium.
    """

    t_star: float
    f_homq: float
    f_convert: float
    f_overall: float
    p_u_drift: float
    pseudopure_fidelity: float
    peak_counts: dict = field(default_factory=dict)
    u_peak_gain: float = float("nan")

    def to_json(self) -> str:
        payload = asdict(self)
        return json.dumps(payload, indent=2)


class MaximumLocation(NamedTuple):
    t_star: float
    value: float
    interior: bool


def locate_maximum(table: SweepTable, observable: str) -> MaximumLocation:
    """Global grid maximum of one column, refined parabolically.

    Interior maxima are sharpened by fitting a parabola through the three
    bracketing samples; a maximum on a grid endpoint is returned as-is
    and flagged ``interior=False``.
    """
    values = table.column(observable)
    k = int(np.argmax(values))
    if k == 0 or k == values.size - 1:
        return MaximumLocation(float(table.times[k]), float(values[k]), False)
    t0, t1, t2 = table.times[k - 1 : k + 2]
    y0, y1, y2 = values[k - 1 : k + 2]
    denom = (y0 - 2.0 * y1 + y2)
    if denom >= 0:  # flat or degenerate bracket; keep the grid point
        return MaximumLocation(float(t1), float(y1), True)
    shift = 0.5 * (y0 - y2) / denom
    t_star = float(t1 + shift * (t2 - t1))
    value = float(y1 - 0.25 * (y0 - y2) * shift)
    return MaximumLocation(t_star, value, True)


def default_saturation(graph: nonunitary.TransitionGraph) -> nonunitary.SaturationParams:
    """Envelope centered on the all-down transition, one quarter gap wide.

    Mirrors the experimental geometry: irradiation sits on the transition
    out of the all-down state while the all-up transition, on the far
    side of the spectrum, sees an exponentially small envelope.
    """
    center = _strongest_frequency(graph, graph.lower == graph.index_all_down)
    f_up = _strongest_frequency(graph, graph.upper == graph.index_all_up)
    gap = abs(f_up - center)
    if gap <= 0:
        raise ValueError("degenerate extreme-state transitions; set widths explicitly")
    return nonunitary.SaturationParams(center_frequency=center, width_sigma=gap / 4.0)


def _strongest_frequency(graph: nonunitary.TransitionGraph, edge_mask: np.ndarray) -> float:
    if not edge_mask.any():
        raise ValueError("graph has no transitions involving the extreme states")
    candidates = np.where(edge_mask)[0]
    return float(graph.frequencies[candidates[np.argmax(graph.strengths[candidates])]])


def refuse_overflowing_frequencies(system: SpinSystem) -> None:
    """Raise :class:`NumericalInvariantError` for couplings whose squared
    secular frequencies could overflow.

    The transition graph, its spectra and the saturation envelope square
    secular frequencies (up to 4 times the summed |couplings|) and add up
    dim squared energies.
    """
    n = system.n_spins
    peak = float(np.abs(system.couplings).max())
    if not peak < np.sqrt(np.finfo(float).max) / (2 * n * (n - 1) * np.sqrt(2**n)):
        raise NumericalInvariantError(
            f"squared secular frequencies overflow (largest |coupling| = {peak})"
        )


def refuse_infinite_phases(eig: EigenSystem, t: float, unit: str) -> None:
    """Raise :class:`NumericalInvariantError` where the propagation phases
    of times up to ``t`` are not finite, or above 2^52 rad, where adjacent
    floats are a radian or more apart, before any is taken."""
    # np.max, unlike the builtin, propagates a NaN from any block; a product
    # of Python floats overflows to inf without a warning
    top = float(np.max([np.abs(block.eigenvalues).max(initial=0.0) for block in eig.blocks]))
    phase = phase_scale(unit) * float(t) * top
    if not np.isfinite(phase):
        raise NumericalInvariantError(f"propagation phases are not finite (largest |E| = {top})")
    if phase > 2.0**52:
        raise NumericalInvariantError(f"propagation phases reach {phase:.6g} rad, above 2^52 "
                                      "rad, where adjacent floats are a radian or more apart")


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Execute the four preparation steps and assemble the report.

    Raises :class:`NumericalInvariantError` if a conserved quantity
    drifts (purity through the unitary steps, total population through
    saturation, or the efficiency product rule).  Each check passes only
    when its residual is within tolerance, so a NaN residual fails it.
    """
    system = hamiltonians.build_system(config.system, config.d12)
    basis = build_basis(system.n_spins)
    n = basis.n_spins
    filter_n = config.filter_n if config.filter_n is not None else n
    if not 1 <= filter_n <= n:
        raise ValueError(f"filter order {filter_n} out of range [1, {n}]")
    if filter_n == n and not hamiltonians.homq_excitable(n):
        raise ValueError(
            f"order {n} is unreachable: the double-quantum Hamiltonian excites the "
            "top order only for 2 + 4k spins; set a lower even filter_n"
        )

    times = time_grid(config.t_max, config.t_step)

    refuse_overflowing_frequencies(system)

    h_av = hamiltonians.dq_hamiltonian(system, basis)
    symmetry = hamiltonians.site_symmetry(system)
    eig = diagonalize(h_av, symmetry)
    refuse_infinite_phases(eig, max(config.t_max, config.t_prep), config.unit)
    rho_thermal = thermal_state(basis)
    norm_thermal = float(np.sum(basis.m**2))

    observables = {f"I{k}": mq_intensity_extractor(basis, k) for k in range(n + 1)}
    observables["diag_pair"] = diag_pair_extractor(basis)
    table = sweep(rho_thermal, eig, times, observables, unit=config.unit,
                  points=[config.t_prep])
    located = locate_maximum(table, f"I{filter_n}")
    if not located.interior:
        warnings.warn(
            f"sweep maximum of I{filter_n} sits on the grid boundary at "
            f"t={located.t_star}; extend t_max",
            RuntimeWarning,
            stacklevel=2,
        )

    # (1) excitation: the intensities at t_prep are the sweep's extra point
    excited = np.array([table.points.column(f"I{k}")[0] for k in range(n + 1)])
    _check_purity(excited.sum(), norm_thermal, "excitation")

    # (2) filter and (3) time reversal, (4) the crush reads the reversed
    # state's populations in the secular eigenbasis
    h_secular = hamiltonians.secular_dipolar_hamiltonian(system, basis)
    graph = nonunitary.build_transition_graph(h_secular, basis, symmetry)
    after = _after_filter(rho_thermal, eig, basis, graph, filter_n, config.t_prep, config.unit)
    f_homq = after.kept / norm_thermal
    # the sweep's point is computed apart from the filtered state
    swept = excited[filter_n] / norm_thermal
    slack = PRODUCT_RULE_RTOL * swept + INTENSITY_ROUNDOFF * np.sqrt(max(swept, f_homq))
    if not abs(f_homq - swept) <= slack:
        raise NumericalInvariantError(f"efficiency product rule violated: filtered f_homq "
                                      f"{f_homq} != swept {swept}")
    norm_reversed = float(after.intensities.sum())
    _check_purity(norm_reversed, after.kept, "time reversal")
    f_convert = after.pair / after.kept if after.kept > 0 else 0.0
    f_overall = after.pair / norm_thermal
    pops_crushed = after.populations
    if not np.sum(pops_crushed**2) <= norm_reversed * (1.0 + PURITY_DRIFT_RTOL):
        raise NumericalInvariantError("crush increased the state purity")

    params = config.saturation if config.saturation is not None else default_saturation(graph)
    pops_final = nonunitary.saturate(pops_crushed, graph, params)
    scale = max(np.abs(pops_crushed).max(), 1e-300)
    if not abs(pops_final.sum() - pops_crushed.sum()) <= 1e-12 * graph.n_states * scale:
        raise NumericalInvariantError("saturation did not conserve total population")

    graph_up = graph.index_all_up
    p_u_drift = float(pops_final[graph_up] - pops_crushed[graph_up])
    fidelity = pseudopure_fidelity(pops_final, graph_up)

    spectra = {
        "thermal": spec.merge_peaks(
            spec.linear_response(graph.m_values, graph), config.merge_tolerance
        ),
        "crushed": spec.merge_peaks(
            spec.linear_response(pops_crushed, graph), config.merge_tolerance
        ),
        "saturated": spec.merge_peaks(
            spec.linear_response(pops_final, graph), config.merge_tolerance
        ),
    }
    peak_counts = {
        name: spec.count_peaks(s, config.intensity_floor) for name, s in spectra.items()
    }
    u_peak_gain = _u_peak_gain(spectra["saturated"], spectra["thermal"], graph,
                               config.merge_tolerance)

    report = PipelineReport(
        t_star=located.t_star,
        f_homq=float(f_homq),
        f_convert=float(f_convert),
        f_overall=float(f_overall),
        p_u_drift=p_u_drift,
        pseudopure_fidelity=fidelity,
        peak_counts=peak_counts,
        u_peak_gain=u_peak_gain,
    )

    if config.out_dir is not None:
        # the thermal state is diagonal: all order 0; the filtered one is all order n
        orders = np.eye(n + 1)
        intensities = [norm_thermal * orders[0], excited, after.kept * orders[filter_n],
                       after.intensities]
        _write_outputs(Path(config.out_dir), report, table, intensities,
                       graph.m_values, pops_crushed, pops_final, graph, spectra)
    return report


class _AfterFilter(NamedTuple):
    """What the report reads from the filtered and the reversed state.

    ``kept`` is the filtered state's purity, its one read, summed over
    the filtered sector pairs.  Of the reversed pairs, ``intensities``
    holds the order intensities, ``pair`` |rho_uu|^2 + |rho_dd|^2 and
    ``populations`` the secular eigenstate populations (the crush).
    """

    kept: float
    intensities: np.ndarray
    pair: float
    populations: np.ndarray


def _after_filter(rho_thermal: SparseOperator, eig: EigenSystem, basis: ZeemanBasis,
                  graph: nonunitary.TransitionGraph, n: int, t: float,
                  unit: str) -> _AfterFilter:
    """Excite the thermal state for t, filter order n, reverse, and read the results.

    Every step runs on the thermal state's sector pairs (a, b) of the
    double-quantum eigensystem: (k, k) for each momentum k under a site
    cycle or the identity, and (1, 0) of each parity group under the
    flip.  I_z is m on the sector basis of each pair.  Per pair, with
    U = V e^{-i phase E} V+:

    1. excite: y = U_a I_z U_b+ (:func:`~mqpure.evolution.transformed`);
    2. filter: keep the entries of the element classes of y
       (:func:`_classes`) whose row and column spin-up counts differ by
       n, folded back into one pair (:func:`_order_filter`);
    3. ``kept`` adds the filtered pair's sum of |y|^2, twice under the
       flip, whose classes each stand for two elements;
    4. reverse: U_a+ y U_b (:func:`_reversed`).

    A pair with no entry of gap n is filtered out whole and never
    excited.  The reversed classes give |rho|^2 per pair of levels, from
    which the order intensities are read, and the diagonal pair as
    levels 0 and N, of one state each; the reversed pairs of each group
    give its crushed populations (:func:`_add_populations`).

    Under a site cycle, where the graph is in the same sectors at every
    N, only k <= L/2 run and the others count twice, by the gate the
    sweep shares (``eig.conjugate_pairs``, see
    :func:`~mqpure.evolution._sector_sweep`): I_z is real and diagonal,
    so pair L - k is the conjugate of pair k up to one phase per pair of
    levels.  Those phases cancel from the level sums of |y|^2 and from
    the blocks within one level, which give the populations, and the
    secular vectors of sector L - k are the conjugates of those of
    sector k.
    """
    eig, chi = character(rho_thermal, eig)
    orbits, n_spins, order = eig.orbits, basis.n_spins, eig.orbits.order
    q = 0 if chi == 1 else order // 2
    count = popcounts(orbits.table[:, 0])
    phase = phase_scale(unit) * t
    weight = 1 if chi == 1 else 2
    # whether each graph block lists the orbits of one sector of G (for
    # G = identity, the m blocks); otherwise the graph is in m blocks
    sectors = all(np.array_equal(orbits.table[orbits.members(block)].T.ravel(), block.states)
                  for block in graph.blocks)
    paired = chi == 1 and sectors and eig.conjugate_pairs
    # under the flip a group's pair (0, 1) is the adjoint of its pair (1, 0)
    momenta = range(order // 2 + 1) if paired else range(order if q == 0 else q)
    per_levels = np.zeros((n_spins + 1, n_spins + 1))
    kept = 0.0
    populations = np.zeros(graph.n_states)
    for group in sector_groups(eig):
        reversed_ = []
        for k in momenta:
            if k not in group or (k + q) % order not in group:
                continue
            a, b = group[(k + q) % order], group[k]
            rows, cols = count[orbits.members(a)], count[orbits.members(b)]
            counts = [(rows, cols)] if chi == 1 else [(rows, cols), (rows, n_spins - cols)]
            masks = [np.abs(r[:, np.newaxis] - c) == n for r, c in counts]
            if not any(mask.any() for mask in masks):
                continue
            factor = weight * (2 if paired and 2 * k % order else 1)
            # I_z is m on the sector basis of each pair, whose a and b hold the same orbits
            part = Part(a, b, gemm(adjoint(a.eigenvectors) * (rows - n_spins / 2),
                                    b.eigenvectors))
            filtered = _order_filter(transformed(part, phase), masks, chi)
            kept += factor * float(np.vdot(filtered, filtered).real)
            part = part._replace(moved=_reversed(part, filtered, phase))
            del filtered
            per_levels += factor * sum(mq.level_sums(values, r, c, n_spins) for values, (r, c)
                                       in zip(_classes(part.moved, chi), counts))
            reversed_.append(part)
        _add_populations(populations, graph, orbits, orbits.members(group[0]), reversed_, chi,
                         sectors)
    return _AfterFilter(kept=kept, intensities=mq.order_intensities(per_levels),
                        pair=float(per_levels[0, 0] + per_levels[n_spins, n_spins]),
                        populations=populations)


def _reversed(part: Part, filtered: np.ndarray, phase: float) -> np.ndarray:
    """U_a+ y U_b of the filtered pair y of ``part``, U = V e^{-i phase E} V+."""
    moved = gemm(gemm(adjoint(part.a.eigenvectors), filtered), part.b.eigenvectors)
    return transformed(part._replace(moved=moved), -phase)


def _classes(y: np.ndarray, chi: int):
    """The element classes of a sector pair y, which sum to y, one at a time.

    For chi = 1 (a site cycle or the identity) every sector basis vector
    lies in one spin-up level, and y is its own class.  Under the flip
    (chi = -1) y is rho between sectors 1 and 0 of one group, and
    f_0 = (y + y+)/2 and f_1 = (y - y+)/2 hold the elements rho[a, b] and
    rho[a, b'] of the representatives a, b and the flip b' of b, each
    standing for the flipped element too.  The second class is made in
    the buffer of y+.
    """
    if chi == 1:
        yield y
        return
    y_adjoint = np.ascontiguousarray(adjoint(y))
    f_0 = y + y_adjoint
    f_0 *= 0.5
    yield f_0
    y_adjoint -= y
    y_adjoint *= -0.5
    yield y_adjoint


def _order_filter(y: np.ndarray, masks: list, chi: int) -> np.ndarray:
    """The classes of the pair y with every entry outside their masks zeroed,
    folded back into one pair."""
    filtered = np.zeros_like(y)
    for mask, values in zip(masks, _classes(y, chi)):
        np.add(filtered, values, out=filtered, where=mask)
    return filtered


def _add_populations(populations: np.ndarray, graph: nonunitary.TransitionGraph,
                     orbits: Orbits, group: np.ndarray, pairs: list, chi: int,
                     sectors: bool) -> None:
    """Add <e|rho|e> of the reversed sector ``pairs`` (k', k) of one group
    of orbits, a state of character chi, for each secular eigenvector e of
    the graph blocks in it.

    Where the graph blocks are sectors of the pairs' own G (``sectors``,
    where chi = 1), e lies in one sector k over the representatives of its
    level, so <e|rho|e> = e+ rho_kk e over those rows and columns of pair
    (k, k).  A block whose pair did not run (k > L/2, see
    :func:`_after_filter`) reads pair L - k with the conjugates of its
    vectors, the vectors of sector L - k.

    Otherwise the graph blocks are m blocks: in the pipeline only under
    the flip, since a site cycle splits the graph into its sectors at
    every N.  The pairs are folded once into the group's element classes
    (:func:`~mqpure.sectors.class_matrices`, which adds the adjoint pairs
    under the flip), and each block of rho over an m block's states is
    read from them (:func:`~mqpure.sectors.elements`).  The secular H and
    its m-block vectors are real, so <e|rho|e> = e^T Re(rho) e, and only
    the classes' real part is read.
    """
    if not pairs:
        return
    inside = np.zeros(orbits.period.size, dtype=bool)
    inside[group] = True
    by_momentum = {part.b.momentum: part for part in pairs}
    classes = None if sectors else class_matrices(pairs, chi, True, group, group, orbits).real
    start = 0
    for block in graph.blocks:
        size, k, members = block.eigenvalues.size, block.momentum, orbits.members(block)
        read, vectors = populations[start:start + size], block.eigenvectors
        start += size
        if not inside[members[0]]:
            continue
        if not sectors:
            rho = elements(classes, chi, group, group, orbits, block.states, block.states)
            read += np.einsum("ia,ia->a", vectors, rho @ vectors)
            continue
        part = by_momentum.get(k, by_momentum.get(-k % orbits.order))
        if part is not None:
            if part.b.momentum != k:
                vectors = vectors.conj()
            rows = np.searchsorted(orbits.members(part.a), members)
            product = gemm(part.moved[np.ix_(rows, rows)], vectors)
            read += np.einsum("ia,ia->a", vectors.conj(), product).real


def pseudopure_fidelity(populations: np.ndarray, index_up: int) -> float:
    """Correlation of the populations with the indicator of ``|u>``.

    1 for a pure excess on ``|u>`` over an otherwise uniform background.
    Constant populations carry no excess on ``|u>`` and give 0.0 (the
    correlation itself is undefined there).
    """
    populations = np.asarray(populations, dtype=float)
    if np.ptp(populations) == 0:
        return 0.0
    indicator = np.zeros(populations.size)
    indicator[index_up] = 1.0
    return float(np.corrcoef(populations, indicator)[0, 1])


def _check_purity(value: float, reference: float, step: str) -> None:
    if not abs(value - reference) <= PURITY_DRIFT_RTOL * max(reference, 1e-300):
        raise NumericalInvariantError(
            f"purity drifted through {step}: {reference} -> {value}"
        )


def _u_peak_gain(
    saturated: spec.StickSpectrum,
    thermal: spec.StickSpectrum,
    graph: nonunitary.TransitionGraph,
    tolerance: float,
) -> float:
    """|saturated| over |thermal| intensity of the line into ``|u>``.

    Each spectrum's line must lie within ``tolerance`` of the strongest
    transition into ``|u>``; where one has no such line the gain is NaN,
    with a ``RuntimeWarning``.
    """
    if saturated.n_lines == 0 or thermal.n_lines == 0:
        return float("nan")
    f_u = _strongest_frequency(graph, graph.upper == graph.index_all_up)
    lines = []
    for name, stick in (("saturated", saturated), ("thermal", thermal)):
        gaps = np.abs(stick.frequencies - f_u)
        k = int(np.argmin(gaps))
        if not gaps[k] <= tolerance:
            warnings.warn(
                f"the {name} spectrum has no line within {tolerance} of the |u> "
                f"transition at {f_u}; u_peak_gain is NaN",
                RuntimeWarning,
                stacklevel=3,
            )
            return float("nan")
        lines.append(stick.intensities[k])
    sat, ref = lines
    if ref == 0:
        return float("nan")
    return float(abs(sat) / abs(ref))


def _write_outputs(
    out_dir: Path,
    report: PipelineReport,
    table: SweepTable,
    stage_intensities: list,
    pops_thermal: np.ndarray,
    pops_crushed: np.ndarray,
    pops_final: np.ndarray,
    graph: nonunitary.TransitionGraph,
    spectra: dict,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    table.to_csv(out_dir / "sweep.csv")
    graph.to_csv(out_dir / "transitions.csv")
    for name, stick in spectra.items():
        stick.to_csv(out_dir / f"spectrum_{name}.csv")

    # the crushed and saturated stages keep only populations: all order 0;
    # the other four stages' intensities are given
    n = len(stage_intensities[0]) - 1
    rows = [*stage_intensities] + [[np.sum(pops**2)] + [0.0] * n
                                   for pops in (pops_crushed, pops_final)]
    write_csv(out_dir / "stage_mq_intensities.csv", ["stage"] + [f"I{k}" for k in range(n + 1)],
              np.array(rows).T,
              labels=["thermal", "excited", "filtered", "reversed", "crushed", "saturated"])
    write_csv(out_dir / "stage_populations.csv",
              ["eigenstate", "m", "energy", "thermal", "crushed", "saturated"],
              [np.arange(graph.n_states), graph.m_values, graph.energies,
               pops_thermal, pops_crushed, pops_final])
