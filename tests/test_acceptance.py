"""Acceptance suite: one test per quantitative criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them
all) before asserting, so the numbers behind every verdict are visible
in the log.
"""

import csv
import math

import numpy as np
import pytest

from mqpure import (
    DensityMatrix,
    Operator,
    SpinSystem,
    build_basis,
    build_transition_graph,
    count_peaks,
    decompose,
    diagonalize,
    dq_hamiltonian,
    evolve,
    homq_coherence_state,
    linear_response,
    locate_maximum,
    merge_peaks,
    mq_intensity,
    mq_intensity_extractor,
    negated,
    phase_cycle_decompose,
    secular_dipolar_hamiltonian,
    sweep,
    thermal_state,
)
from mqpure.evolution import TWO_PI

THERMAL_PURITY = 96.0


def verdict(number: int, passed: bool, detail: str) -> None:
    print(f"criterion {number:>2}: {'PASS' if passed else 'FAIL'} - {detail}")


def random_deviation(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return DensityMatrix(matrix=raw + raw.conj().T)


def local_maxima(values, floor):
    return [
        k
        for k in range(1, len(values) - 1)
        if values[k] >= values[k - 1] and values[k] >= values[k + 1] and values[k] > floor
    ]


@pytest.fixture(scope="session")
def reversal_eigensystem(h_av6):
    return diagonalize(negated(h_av6))


def test_criterion_1_homq_excitation_maximum(thermal_sweep, thermal6, eig6, basis6):
    located = locate_maximum(thermal_sweep, "I6")
    value = located.value / THERMAL_PURITY
    ok = 0.13 <= value <= 0.16 and 0.963 <= located.t_star <= 0.983

    # convention cross-check: the same sweep with angular-frequency phases
    angular = sweep(
        thermal6, eig6, thermal_sweep.times,
        {"I6": mq_intensity_extractor(basis6, 6)}, unit="angular",
    )
    ang = locate_maximum(angular, "I6")
    ang_value = ang.value / THERMAL_PURITY
    ang_ok = 0.13 <= ang_value <= 0.16 and 0.963 <= ang.t_star <= 0.983
    print(
        f"  cyclic convention (default): max fraction {value:.5f} at t*={located.t_star:.4f}"
        f" -> {'matches' if ok else 'no match'}"
    )
    print(
        f"  angular convention:          max fraction {ang_value:.5f} at t*={ang.t_star:.4f}"
        f" -> {'matches' if ang_ok else 'no match'}"
    )
    verdict(1, ok, f"6Q fraction max {value:.4f} in [0.13,0.16] at {located.t_star:.4f} in [0.963,0.983]")
    assert ok


def test_criterion_2_conversion_efficiency(thermal_sweep, basis6, reversal_eigensystem):
    located = locate_maximum(thermal_sweep, "I6")
    rho = evolve(homq_coherence_state(basis6), reversal_eigensystem, located.t_star)
    up, down = basis6.index_all_up, basis6.index_all_down
    pair = abs(rho.matrix[up, up]) ** 2 + abs(rho.matrix[down, down]) ** 2
    f_convert = pair / 2.0
    ok = 0.69 <= f_convert <= 0.75
    verdict(2, ok, f"f_convert {f_convert:.4f} in [0.69, 0.75] at t*={located.t_star:.4f}")
    assert ok


def test_criterion_3_overall_chain(pipeline_report):
    report, _ = pipeline_report
    product_gap = abs(report.f_overall - report.f_homq * report.f_convert)
    ok = 0.09 <= report.f_overall <= 0.12 and product_gap < 1e-6
    verdict(
        3, ok,
        f"f_overall {report.f_overall:.4f} in [0.09, 0.12]; "
        f"|f_overall - f_homq*f_convert| = {product_gap:.2e} < 1e-6",
    )
    assert ok


def test_criterion_4_diagonal_match_at_major_maxima(
    thermal_sweep, basis6, reversal_eigensystem
):
    i6 = thermal_sweep.column("I6")
    global_max = i6.max()
    maxima = local_maxima(i6, 0.5 * global_max)
    assert maxima, "no major maxima found"
    up, down = basis6.index_all_up, basis6.index_all_down
    rho6 = homq_coherence_state(basis6)
    worst = 0.0
    for k in maxima:
        t = thermal_sweep.times[k]
        rho = evolve(rho6, reversal_eigensystem, t)
        i0 = mq_intensity(decompose(rho, basis6), 0)
        pair = abs(rho.matrix[up, up]) ** 2 + abs(rho.matrix[down, down]) ** 2
        mismatch = abs(i0 - pair) / i0
        worst = max(worst, mismatch)
        print(
            f"  6Q maximum at t={t:.3f} (fraction {i6[k] / THERMAL_PURITY:.4f}): "
            f"I0={i0:.5f}, diag pair={pair:.5f}, mismatch={mismatch * 100:.2f}%"
        )
    ok = worst < 0.01
    verdict(
        4, ok,
        f"worst |I0 - pair|/I0 over {len(maxima)} major maxima: {worst * 100:.2f}% (< 1% required)",
    )
    assert ok, (
        "diagonal-match holds at the global-maximum family but not at every "
        "maximum above half the global one; see the per-maximum lines above"
    )


def test_criterion_5_purely_imaginary_homq_phase(thermal_sweep):
    bound = 1e-12 * math.sqrt(THERMAL_PURITY)
    worst = thermal_sweep.column("re_ud").max()
    ok = worst < bound
    verdict(5, ok, f"max |Re rho_ud| = {worst:.2e} < {bound:.2e} across the sweep")
    assert ok


def test_criterion_6_equilibrium_peak_count(graph6, thermal6):
    sticks = linear_response(graph6.populations(thermal6), graph6)
    default_count = count_peaks(merge_peaks(sticks, 1e-6))
    print(f"  default tolerance 1e-6: {default_count} peaks (experimental count: 76)")
    tolerances = np.logspace(-8, -4, 17)
    counts = {}
    print("  count vs tolerance:")
    for tol in tolerances:
        counts[tol] = count_peaks(merge_peaks(sticks, float(tol)))
        print(f"    tolerance {tol:.2e}: {counts[tol]} peaks")
    ok = default_count == 76 or any(c == 76 for c in counts.values())
    verdict(
        6, ok,
        f"default count {default_count}; counts over [1e-8, 1e-4]: "
        f"{sorted(set(counts.values()))} (76 required)",
    )
    assert ok, (
        "the pure-dipolar hexagon yields 72 distinct allowed lines at every "
        "tolerance in range; the experimental 76 includes splittings absent from "
        "this coupling model (see table above)"
    )


def test_criterion_7_pseudopure_spectra(graph6, pipeline_report):
    # ideal two-element diagonal state: exactly 2 mirrored peaks
    cat = np.zeros(graph6.n_states)
    cat[graph6.index_all_up] = 1.0
    cat[graph6.index_all_down] = -1.0
    cat_spectrum = merge_peaks(linear_response(cat, graph6), 1e-6)
    two = count_peaks(cat_spectrum) == 2
    f_plus = cat_spectrum.frequencies.max()
    mirrored = abs(cat_spectrum.frequencies.sum()) < 1e-8
    equal_heights = (
        abs(abs(cat_spectrum.intensities[0]) - abs(cat_spectrum.intensities[1])) < 1e-8
    )

    # final pipeline state: one dominant line at +f_s
    report, out = pipeline_report
    with open(out / "spectrum_saturated.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    freqs = np.array([float(r[0]) for r in rows])
    ints = np.array([float(r[1]) for r in rows])
    dominant = int(np.argmax(np.abs(ints)))
    others_small = np.all(
        np.delete(np.abs(ints), dominant) < 0.1 * abs(ints[dominant])
    ) if ints.size > 1 else True
    at_plus = abs(freqs[dominant] - f_plus) < 1e-6

    ok = two and mirrored and equal_heights and others_small and at_plus
    verdict(
        7, ok,
        f"cat state: {count_peaks(cat_spectrum)} peaks at +-{f_plus:.4f} "
        f"(mirrored={mirrored}, equal={equal_heights}); final state: dominant at "
        f"{freqs[dominant]:.4f}, all others < 10%: {others_small}",
    )
    assert ok


def test_criterion_8_saturation_trapping(pipeline_report):
    report, out = pipeline_report
    with open(out / "stage_populations.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    crushed = np.array([float(r[4]) for r in rows])
    scale = np.abs(crushed).max()
    ok = abs(report.p_u_drift) < 0.01 * scale and report.pseudopure_fidelity >= 0.9
    verdict(
        8, ok,
        f"|dp_u| = {abs(report.p_u_drift):.2e} < 1% of scale {scale:.3f}; "
        f"fidelity {report.pseudopure_fidelity:.4f} >= 0.9",
    )
    assert ok


def test_criterion_9_oracle_equivalences():
    rng = np.random.default_rng(2026)
    trials = 100

    worst_cycle = 0.0
    worst_sum = 0.0
    for k in range(trials):
        n = 2 + k % 5
        basis = build_basis(n)
        rho = random_deviation(rng, basis.dim)
        direct = decompose(rho, basis)
        cycled = phase_cycle_decompose(rho, basis, 2 * n + 2)
        for order in range(-n, n + 1):
            gap = np.abs(direct[order] - cycled[order]).max()
            worst_cycle = max(worst_cycle, float(gap))
        total = sum(mq_intensity(direct, order) for order in range(n + 1))
        worst_sum = max(worst_sum, abs(total - rho.purity()) / rho.purity())

    worst_round = 0.0
    worst_semi = 0.0
    for _ in range(trials):
        rho = random_deviation(rng, 16)
        raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = Operator(matrix=raw + raw.conj().T)
        eig = diagonalize(h)
        t1, t2 = rng.uniform(-2.0, 2.0, size=2)
        back = evolve(evolve(rho, eig, t1), eig, -t1)
        worst_round = max(worst_round, float(np.abs(back.matrix - rho.matrix).max()))
        once = evolve(rho, eig, t1 + t2)
        split = evolve(evolve(rho, eig, t1), eig, t2)
        worst_semi = max(worst_semi, float(np.abs(once.matrix - split.matrix).max()))

    basis2 = build_basis(2)
    system2 = SpinSystem(n_spins=2, couplings=np.array([[0.0, 1.0], [1.0, 0.0]]))
    h2 = dq_hamiltonian(system2, basis2)
    rho_z = thermal_state(basis2)
    worst_rot = 0.0
    for _ in range(trials):
        t = rng.uniform(-2.0, 2.0)
        theta = TWO_PI * t
        oracle = np.zeros((4, 4), dtype=complex)
        oracle[3, 3] = np.cos(theta)
        oracle[0, 0] = -np.cos(theta)
        oracle[3, 0] = -1j * np.sin(theta)
        oracle[0, 3] = 1j * np.sin(theta)
        gap = np.abs(evolve(rho_z, h2, t).matrix - oracle).max()
        worst_rot = max(worst_rot, float(gap))

    ok = max(worst_cycle, worst_sum, worst_round, worst_semi, worst_rot) < 1e-10
    verdict(
        9, ok,
        f"{trials} trials each: phase-cycle {worst_cycle:.1e}, intensity sum "
        f"{worst_sum:.1e}, round-trip {worst_round:.1e}, semigroup {worst_semi:.1e}, "
        f"two-spin rotation {worst_rot:.1e} (all < 1e-10)",
    )
    assert ok


def test_criterion_10_pseudopure_peak_bound():
    rng = np.random.default_rng(404)
    worst = {}
    for n in range(2, 7):
        basis = build_basis(n)
        for _ in range(20):
            raw = rng.uniform(0.05, 1.0, size=(n, n))
            couplings = np.triu(raw, 1)
            couplings = couplings + couplings.T
            system = SpinSystem(n_spins=n, couplings=couplings)
            graph = build_transition_graph(
                secular_dipolar_hamiltonian(system, basis), basis
            )
            ground = np.zeros(graph.n_states)
            ground[graph.index_all_up] = 1.0
            merged = merge_peaks(linear_response(ground, graph), 1e-6)
            worst[n] = max(worst.get(n, 0), count_peaks(merged))
    ok = all(worst[n] <= n for n in worst)
    verdict(
        10, ok,
        "max ground-state peak count per cluster size: "
        + ", ".join(f"N={n}: {worst[n]}" for n in sorted(worst)),
    )
    assert ok


def test_criterion_11_soft_peak_gain(pipeline_report):
    report, _ = pipeline_report
    print(
        f"  simulated pseudopure/equilibrium peak ratio: {report.u_peak_gain:.3f}; "
        f"experimental reference value: about 1.8 (includes lab losses)"
    )
    verdict(11, True, f"soft check reported: gain {report.u_peak_gain:.3f} vs 1.8 (non-gating)")
    assert math.isfinite(report.u_peak_gain) and report.u_peak_gain > 0
