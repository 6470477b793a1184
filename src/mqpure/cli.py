"""Command-line interface.

Subcommands:
    sweep         time sweep of coherence intensities (CSV)
    pipeline      full preparation run from a JSON config (report + CSVs)
    spectrum      stick + broadened linear-response spectra (CSV)
    filter-check  phase-cycling vs direct decomposition cross-oracle

Exit codes: 0 success, 1 validation error, 2 numerical-invariant
violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import hamiltonians, mq, nonunitary, spectrum as spec
from .evolution import (
    diag_pair_extractor,
    mq_intensity_extractor,
    population_extractor,
    sweep,
    time_grid,
)
from .pipeline import PipelineConfig, run_pipeline
from .spin_core import (
    DensityMatrix,
    NumericalInvariantError,
    build_basis,
    homq_coherence_state,
    thermal_state,
)

# largest number of bytes one filter-check trial may hold at once
FILTER_CHECK_BYTES = 2 << 30


def _parse_observables(tokens: str, basis, norm_thermal: float):
    observables = {}
    for token in tokens.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith("I") and token[1:].isdigit():
            observables[token] = mq_intensity_extractor(basis, int(token[1:]))
        elif token.startswith("F") and token[1:].isdigit():
            observables[token] = mq_intensity_extractor(
                basis, int(token[1:]), normalize=norm_thermal
            )
        elif token == "diag_pair":
            observables[token] = diag_pair_extractor(basis)
        elif token == "diag_pair_frac":
            observables[token] = diag_pair_extractor(basis, normalize=norm_thermal)
        elif token == "pop_u":
            observables[token] = population_extractor(basis, basis.index_all_up)
        elif token == "pop_d":
            observables[token] = population_extractor(basis, basis.index_all_down)
        elif token.startswith("pop:"):
            observables[token] = population_extractor(basis, int(token[4:]))
        else:
            raise ValueError(f"unknown observable {token!r}")
    if not observables:
        raise ValueError("no observables requested")
    return observables


def cmd_sweep(args) -> int:
    times = time_grid(args.t_max, args.t_step)
    system = hamiltonians.build_system(args.system, args.d12)
    basis = build_basis(system.n_spins)
    if args.state == "thermal":
        rho0 = thermal_state(basis)
    else:
        rho0 = homq_coherence_state(basis)
    h = hamiltonians.dq_hamiltonian(system, basis)
    if args.state == "homq":
        h = hamiltonians.negated(h)  # reversal-period evolution
    names = args.observables
    if names is None:
        names = ",".join([f"I{k}" for k in range(basis.n_spins + 1)] + ["diag_pair"])
    observables = _parse_observables(names, basis, rho0.purity())
    table = sweep(rho0, h, times, observables, unit=args.unit)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "sweep.csv")
    print(f"wrote {out / 'sweep.csv'} ({times.size} points)")
    return 0


def cmd_pipeline(args) -> int:
    if args.config is not None:
        config = PipelineConfig.from_file(args.config)
    else:
        config = PipelineConfig()
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=args.out)
    report = run_pipeline(config)
    print(report.to_json())
    return 0


def cmd_spectrum(args) -> int:
    system = hamiltonians.build_system(args.system, args.d12)
    basis = build_basis(system.n_spins)
    h_secular = hamiltonians.secular_dipolar_hamiltonian(system, basis)
    graph = nonunitary.build_transition_graph(h_secular, basis)
    if args.state == "thermal":
        populations = graph.populations(thermal_state(basis))
    elif args.state == "cat-diag":
        populations = np.zeros(graph.n_states)
        populations[graph.index_all_up] = 1.0
        populations[graph.index_all_down] = -1.0
    else:  # pseudopure-file
        if args.state_file is None:
            raise ValueError("--state pseudopure-file requires --state-file PATH")
        populations = _load_populations(args.state_file, graph.n_states)
    sticks = spec.merge_peaks(spec.linear_response(populations, graph), args.merge_tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sticks.to_csv(out / "spectrum_sticks.csv")
    span = graph.frequencies.max() - graph.frequencies.min()
    lo = graph.frequencies.min() - 0.1 * span - 5 * args.linewidth
    hi = graph.frequencies.max() + 0.1 * span + 5 * args.linewidth
    grid = np.linspace(lo, hi, args.grid_points)
    curve = spec.broaden(sticks, args.linewidth, grid)
    spec.curve_to_csv(grid, curve, out / "spectrum_broadened.csv")
    print(
        f"wrote {out / 'spectrum_sticks.csv'} ({sticks.n_lines} lines, "
        f"{spec.count_peaks(sticks, args.floor)} peaks above floor) and "
        f"{out / 'spectrum_broadened.csv'}"
    )
    return 0


def _load_populations(path: str, expected: int) -> np.ndarray:
    """One population per line; takes the last field of CSV rows, so the
    pipeline's stage_populations.csv works directly (header tolerated)."""
    values = []
    for line in Path(path).read_text().splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            values.append(float(body.split(",")[-1]))
        except ValueError:
            if values:
                raise ValueError(f"{path}: unparseable population line {body!r}") from None
            # first line is a header; skip it
    populations = np.array(values)
    if populations.size != expected:
        raise ValueError(
            f"{path}: expected {expected} populations, got {populations.size}"
        )
    return populations


def cmd_filter_check(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    basis = build_basis(args.n_spins)
    k_steps = args.k_steps if args.k_steps is not None else 2 * basis.n_spins + 2
    held = _trial_bytes(basis, k_steps)
    if held > FILTER_CHECK_BYTES:
        raise ValueError(
            f"a filter-check trial of {basis.n_spins} spins with {k_steps} phase steps "
            f"would hold {held / 1e9:.1f} GB at once; the limit is "
            f"{FILTER_CHECK_BYTES / 1e9:.1f} GB"
        )
    rng = np.random.default_rng(args.seed)
    worst = max(_filter_check_trial(rng, basis, k_steps) for _ in range(args.trials))
    print(f"max elementwise deviation over {args.trials} trials: {worst:.3e}")
    if worst > 1e-10:
        print("filter-check FAILED", file=sys.stderr)
        return 2
    return 0


def _trial_bytes(basis, k_steps: int) -> int:
    """Bytes of complex d x d matrices one trial holds at its peak.

    The random draw and the state, the direct order stack (2N+1
    matrices), and phase cycling's k_steps rotated copies next to the
    2N+1 orders it returns.
    """
    matrices = 2 + 2 * (2 * basis.n_spins + 1) + k_steps
    return 16 * basis.dim**2 * matrices


def _filter_check_trial(rng, basis, k_steps: int) -> float:
    """Largest gap between the direct and the phase-cycled orders of one
    random state; both stacks are freed when it returns."""
    raw = rng.standard_normal((basis.dim, basis.dim)) + 1j * rng.standard_normal(
        (basis.dim, basis.dim)
    )
    rho = DensityMatrix(matrix=raw + raw.conj().T)
    direct = mq.decompose(rho, basis)
    cycled = mq.phase_cycle_decompose(rho, basis, k_steps)
    n = basis.n_spins
    return max(float(np.abs(direct[k] - cycled[k]).max()) for k in range(-n, n + 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqpure",
        description="Pseudopure-state preparation in dipolar-coupled clusters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="time sweep of coherence intensities")
    p.add_argument("--system", default="hexagon", help="'hexagon' or a coupling file")
    p.add_argument("--d12", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--t-step", type=float, default=0.001)
    p.add_argument("--state", choices=["thermal", "homq"], default="thermal")
    p.add_argument("--observables", default=None,
                   help="comma list: I<n>, F<n>, diag_pair, diag_pair_frac, pop_u, pop_d, pop:<i>")
    p.add_argument("--unit", choices=["cyclic", "angular"], default="cyclic")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pipeline", help="full preparation run")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("spectrum", help="linear-response spectra")
    p.add_argument("--system", default="hexagon")
    p.add_argument("--d12", type=float, default=1.0)
    p.add_argument("--state", choices=["thermal", "cat-diag", "pseudopure-file"],
                   default="thermal")
    p.add_argument("--state-file", default=None,
                   help="eigenstate populations, one per line (for pseudopure-file)")
    p.add_argument("--linewidth", type=float, default=0.02)
    p.add_argument("--merge-tol", type=float, default=1e-6)
    p.add_argument("--floor", type=float, default=1e-8)
    p.add_argument("--grid-points", type=int, default=4001)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("filter-check", help="phase-cycling decomposition cross-oracle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-steps", type=int, default=None)
    p.add_argument("--n-spins", type=int, default=6)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_filter_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except NumericalInvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
