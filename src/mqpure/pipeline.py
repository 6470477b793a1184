"""End-to-end pseudopure-state preparation and its quantitative report.

The pipeline executes the four experimental steps on the deviation
density matrix:

1. excitation under the double-quantum Hamiltonian for ``t_prep``,
2. filtering of the highest-order coherence pair,
3. time reversal (same duration under the negated Hamiltonian, which is
   the forward eigensystem propagated for -t_prep),
4. crusher dephasing in the secular eigenbasis, then partial saturation.

Efficiencies are purity fractions: ``f_homq`` is the filtered-order
intensity over the thermal purity, ``f_convert`` the all-up/all-down
diagonal-pair intensity after reversal over the filtered purity, and
``f_overall`` their product by construction.
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
    SweepTable,
    _phase_scale,
    diag_pair_extractor,
    diagonalize,
    evolve,
    mq_intensity_extractor,
    sweep,
    time_grid,
)
from .output import write_csv
from .spin_core import (
    NumericalInvariantError,
    build_basis,
    thermal_state,
)

PURITY_DRIFT_RTOL = 1e-9

PRODUCT_RULE_RTOL = 1e-6


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
        if self.t_prep <= 0:
            raise ValueError("t_prep must be positive")
        if self.t_max <= 0 or self.t_step <= 0:
            raise ValueError("sweep bounds must be positive")
        if self.merge_tolerance <= 0:
            raise ValueError("merge_tolerance must be positive")

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

    # the transition graph and the saturation envelope square secular
    # frequencies (up to 4 times the summed |couplings|) and add up dim
    # squared energies; reject couplings for which that could overflow
    peak = float(np.abs(system.couplings).max())
    if not peak < np.sqrt(np.finfo(float).max) / (2 * n * (n - 1) * np.sqrt(basis.dim)):
        raise NumericalInvariantError(
            f"squared secular frequencies overflow (largest |coupling| = {peak})"
        )

    h_av = hamiltonians.dq_hamiltonian(system, basis)
    eig = diagonalize(h_av)
    # np.max, unlike the builtin, propagates a NaN from any block
    top = float(np.max([np.abs(block.eigenvalues).max(initial=0.0) for block in eig.blocks]))
    if not np.isfinite(_phase_scale(config.unit) * max(config.t_max, config.t_prep) * top):
        raise NumericalInvariantError(f"propagation phases are not finite (largest |E| = {top})")
    rho_thermal = thermal_state(basis)
    norm_thermal = rho_thermal.purity()

    observables = {f"I{k}": mq_intensity_extractor(basis, k) for k in range(n + 1)}
    observables["diag_pair"] = diag_pair_extractor(basis)
    table = sweep(rho_thermal, eig, times, observables, unit=config.unit)
    del observables  # their element indices take dim^2 / 2 integers
    located = locate_maximum(table, f"I{filter_n}")
    if not located.interior:
        warnings.warn(
            f"sweep maximum of I{filter_n} sits on the grid boundary at "
            f"t={located.t_star}; extend t_max",
            RuntimeWarning,
            stacklevel=2,
        )

    # (1) excitation, (2) filter, (3) time reversal on the same eigensystem
    rho_excited = evolve(rho_thermal, eig, config.t_prep, unit=config.unit)
    f_homq = mq.mq_intensities(rho_excited, basis)[filter_n] / norm_thermal
    rho_filtered = mq.filter_order(rho_excited, basis, filter_n)
    norm_filtered = rho_filtered.purity()
    rho_reversed = evolve(rho_filtered, eig, -config.t_prep, unit=config.unit)
    _check_purity(rho_excited.purity(), norm_thermal, "excitation")
    _check_purity(rho_reversed.purity(), norm_filtered, "time reversal")

    up, down = basis.index_all_up, basis.index_all_down
    pair = (
        abs(rho_reversed.matrix[up, up]) ** 2 + abs(rho_reversed.matrix[down, down]) ** 2
    )
    f_convert = pair / norm_filtered if norm_filtered > 0 else 0.0
    f_overall = pair / norm_thermal
    if not abs(f_overall - f_homq * f_convert) <= PRODUCT_RULE_RTOL * max(f_overall, 1e-30):
        raise NumericalInvariantError(
            f"efficiency product rule violated: {f_overall} != {f_homq} * {f_convert}"
        )

    # (4) crush in the secular eigenbasis (keep only the eigenstate
    # populations), then saturate
    h_secular = hamiltonians.secular_dipolar_hamiltonian(system, basis)
    graph = nonunitary.build_transition_graph(h_secular, basis)
    pops_crushed = graph.populations(rho_reversed)
    if not np.sum(pops_crushed**2) <= rho_reversed.purity() * (1.0 + PURITY_DRIFT_RTOL):
        raise NumericalInvariantError("crush increased the state purity")

    params = config.saturation if config.saturation is not None else default_saturation(graph)
    pops_final = nonunitary.saturate(pops_crushed, graph, params)
    scale = max(np.abs(pops_crushed).max(), 1e-300)
    if not abs(pops_final.sum() - pops_crushed.sum()) <= 1e-12 * graph.n_states * scale:
        raise NumericalInvariantError("saturation did not conserve total population")

    graph_up = graph.index_all_up
    p_u_drift = float(pops_final[graph_up] - pops_crushed[graph_up])
    fidelity = pseudopure_fidelity(pops_final, graph_up)

    pops_thermal = graph.populations(rho_thermal)
    spectra = {
        "thermal": spec.merge_peaks(
            spec.linear_response(pops_thermal, graph), config.merge_tolerance
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
        _write_outputs(
            Path(config.out_dir), report, table, basis,
            (rho_thermal, rho_excited, rho_filtered, rho_reversed),
            pops_thermal, pops_crushed, pops_final, graph, spectra,
        )
    return report


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
    basis,
    unitary_stages,
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

    # the crushed and saturated stages keep only populations: all order 0
    n = basis.n_spins
    intensities = [mq.mq_intensities(rho, basis) for rho in unitary_stages]
    intensities += [[np.sum(pops**2)] + [0.0] * n for pops in (pops_crushed, pops_final)]
    write_csv(out_dir / "stage_mq_intensities.csv", ["stage"] + [f"I{k}" for k in range(n + 1)],
              np.array(intensities).T,
              labels=["thermal", "excited", "filtered", "reversed", "crushed", "saturated"])
    write_csv(out_dir / "stage_populations.csv",
              ["eigenstate", "m", "energy", "thermal", "crushed", "saturated"],
              [np.arange(graph.n_states), graph.m_values, graph.energies,
               pops_thermal, pops_crushed, pops_final])
