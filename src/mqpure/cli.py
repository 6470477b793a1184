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
import threading
from pathlib import Path

import numpy as np

from . import hamiltonians, mq, nonunitary, spectrum as spec
from .evolution import (
    MAX_GRID_POINTS,
    SweepTable,
    diag_pair_extractor,
    diagonalize,
    mq_intensity_extractor,
    population_extractor,
    sweep,
    time_grid,
)
from .pipeline import (
    PipelineConfig,
    refuse_infinite_phases,
    refuse_overflowing_frequencies,
    run_pipeline,
)
from .spin_core import (
    DensityMatrix,
    NumericalInvariantError,
    build_basis,
    homq_coherence_state,
    require_finite,
    thermal_state,
)

# largest number of bytes one filter-check trial may hold at once
FILTER_CHECK_BYTES = 2 << 30


def _parse_observables(tokens: str, basis):
    observables = {}
    for token in tokens.split(","):
        token = token.strip()
        if not token:
            continue
        if token[:1] in "IF" and token[1:].isdigit():
            observables[token] = mq_intensity_extractor(basis, int(token[1:]))
        elif token in ("diag_pair", "diag_pair_frac"):
            observables[token] = diag_pair_extractor(basis)
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
    eig = diagonalize(h, hamiltonians.site_symmetry(system))
    refuse_infinite_phases(eig, times[-1], args.unit)
    if args.state == "homq":
        eig = eig.negated()  # reversal-period evolution
    names = args.observables
    if names is None:
        names = ",".join([f"I{k}" for k in range(basis.n_spins + 1)] + ["diag_pair"])
    table = sweep(rho0, eig, times, _parse_observables(names, basis), unit=args.unit)
    purity = rho0.purity()  # F<n> and diag_pair_frac are fractions of it
    table = SweepTable(table.times, {
        name: column / purity if name[0] == "F" or name == "diag_pair_frac" else column
        for name, column in table.columns.items()})
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
    require_finite("linewidth", args.linewidth, "positive")
    require_finite("merge tolerance", args.merge_tol, "positive")
    require_finite("intensity floor", args.floor, "nonnegative")
    if not 1 <= args.grid_points <= MAX_GRID_POINTS:
        raise ValueError(f"--grid-points must be in [1, {MAX_GRID_POINTS}], "
                         f"got {args.grid_points}")
    system = hamiltonians.build_system(args.system, args.d12)
    refuse_overflowing_frequencies(system)
    basis = build_basis(system.n_spins)
    h_secular = hamiltonians.secular_dipolar_hamiltonian(system, basis)
    # the pipeline's site symmetry, so that its stage_populations.csv
    # lists the eigenstates in this graph's order
    graph = nonunitary.build_transition_graph(h_secular, basis, hamiltonians.site_symmetry(system))
    if args.state == "thermal":
        populations = graph.m_values  # I_z is m on every block of every m level
    elif args.state == "cat-diag":
        populations = np.zeros(graph.n_states)
        populations[graph.index_all_up] = 1.0
        populations[graph.index_all_down] = -1.0
    else:  # pseudopure-file
        if args.state_file is None:
            raise ValueError("--state pseudopure-file requires --state-file PATH")
        populations = _load_populations(args.state_file, graph.n_states)
    sticks = spec.merge_peaks(spec.linear_response(populations, graph), args.merge_tol)
    peaks = spec.count_peaks(sticks, args.floor)
    span = graph.frequencies.max() - graph.frequencies.min()
    lo = graph.frequencies.min() - 0.1 * span - 5 * args.linewidth
    hi = graph.frequencies.max() + 0.1 * span + 5 * args.linewidth
    grid = np.linspace(lo, hi, args.grid_points)
    curve = spec.broaden(sticks, args.linewidth, grid)
    if not all(np.isfinite(v).all() for v in (sticks.frequencies, sticks.intensities, curve)):
        raise NumericalInvariantError(f"the spectrum overflows (largest |population| = "
                                      f"{np.abs(populations).max()}, linewidth {args.linewidth})")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sticks.to_csv(out / "spectrum_sticks.csv")
    spec.curve_to_csv(grid, curve, out / "spectrum_broadened.csv")
    print(
        f"wrote {out / 'spectrum_sticks.csv'} ({sticks.n_lines} lines, "
        f"{peaks} peaks above floor) and {out / 'spectrum_broadened.csv'}"
    )
    return 0


def _load_populations(path: str, expected: int) -> np.ndarray:
    """One finite population per line; takes the last field of CSV rows,
    so the pipeline's stage_populations.csv works directly.  Blank lines
    and # comments are skipped; of the other lines only the first may be
    a header."""
    values, first = [], True
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        header, first = first, False
        try:
            values.append(float(body.split(",")[-1]))
        except ValueError:
            if header:
                continue
            raise ValueError(f"{path}: line {number}: population {body!r} is not a "
                             "number") from None
        if not np.isfinite(values[-1]):
            raise ValueError(f"{path}: line {number}: population {body!r} is not finite")
    populations = np.array(values)
    if populations.size != expected:
        raise ValueError(
            f"{path}: expected {expected} populations, got {populations.size}"
        )
    return populations


def cmd_filter_check(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    basis = build_basis(args.n_spins)
    k_steps = args.k_steps if args.k_steps is not None else 2 * basis.n_spins + 2
    held = _trial_bytes(basis, k_steps)
    if held > FILTER_CHECK_BYTES:
        raise ValueError(
            f"a filter-check trial of {basis.n_spins} spins with {k_steps} phase steps "
            f"would hold {held / 1e9:.1f} GB at once; the limit is "
            f"{FILTER_CHECK_BYTES / 1e9:.1f} GB"
        )
    check = mq.PhaseCycleCheck(basis, k_steps)
    rng = np.random.default_rng(args.seed)
    # np.max, not max, so that a NaN deviation is not passed over
    worst = float(np.max(_deviations(check, rng, args.trials)))
    print(f"max elementwise deviation over {args.trials} trials: {worst:.3e}")
    if not worst <= 1e-10:
        print("filter-check FAILED", file=sys.stderr)
        return 2
    return 0


def _trial_bytes(basis, k_steps: int) -> int:
    """Bytes the trials hold at their peak: what :class:`mq.PhaseCycleCheck`
    holds (its order table and one band's buffers), next to the larger of
    the arrays with K rows made while its table is built and three complex
    d x d matrices.  Those cover the state being checked and, while the
    next one is drawn, its real draw and the state made from it, with
    half a matrix to spare for the temporaries of the check and of the
    draw's Hermiticity test; no order stack is made.
    """
    return (max(mq.cycle_table_bytes(basis, k_steps), 3 * 16 * basis.dim**2)
            + mq.phase_cycle_check_bytes(basis, k_steps))


def _deviations(check, rng, trials: int) -> list:
    """The deviation of each of ``trials`` states drawn from ``rng`` in
    turn.  One worker thread checks each state while the next is drawn, so
    at most two states are held; an error of the check is raised here."""
    deviations, errors = [], []

    def run(rho):
        try:
            deviations.append(check.deviation(rho))
        except Exception as exc:  # raised again in the drawing thread
            errors.append(exc)

    worker = None
    try:
        for _ in range(trials):
            rho = _draw_state(rng, check.basis.dim)
            if worker is not None:
                worker.join()
            if errors:
                raise errors[0]
            worker = threading.Thread(target=run, args=(rho,))
            worker.start()
    finally:
        if worker is not None:
            worker.join()
    if errors:
        raise errors[0]
    return deviations


def _draw_state(rng, dim: int) -> DensityMatrix:
    """A random Hermitian state a + a^T + i (b - b^T), with a and then b
    drawn standard normal into one real buffer."""
    matrix = np.empty((dim, dim), dtype=complex)
    draw = rng.standard_normal((dim, dim))
    np.add(draw, draw.T, out=matrix.real)
    rng.standard_normal(out=draw)
    np.subtract(draw, draw.T, out=matrix.imag)
    del draw  # before the Hermiticity test makes its temporaries
    matrix.setflags(write=False)  # so that DensityMatrix keeps it uncopied
    return DensityMatrix(matrix=matrix)


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
    except np.linalg.LinAlgError as exc:  # a ValueError, but not a validation error
        print(f"numerical invariant violated: eigendecomposition failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
