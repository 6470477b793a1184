import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqpure import (
    Operator,
    SpinSystem,
    StickSpectrum,
    broaden,
    build_basis,
    build_transition_graph,
    count_peaks,
    curve_to_csv,
    linear_response,
    merge_peaks,
    secular_dipolar_hamiltonian,
)
from mqpure.spectrum import ZERO_SUM_DROP


def loop_merge(spectrum, tolerance):
    """Reference merge: walk the sorted lines and close a cluster at each gap."""
    order = np.argsort(spectrum.frequencies, kind="stable")
    freqs = spectrum.frequencies[order]
    ints = spectrum.intensities[order]
    out_f, out_i = [], []
    start = 0
    for stop in range(1, freqs.size + 1):
        if stop < freqs.size and freqs[stop] - freqs[stop - 1] <= tolerance:
            continue
        chunk_f, chunk_i = freqs[start:stop], ints[start:stop]
        if np.abs(chunk_i).sum() > 0:
            out_f.append(float(np.average(chunk_f, weights=np.abs(chunk_i))))
        else:
            out_f.append(float(chunk_f.mean()))
        out_i.append(float(chunk_i.sum()))
        start = stop
    out_f, out_i = np.array(out_f), np.array(out_i)
    if out_i.size:
        keep = np.abs(out_i) >= ZERO_SUM_DROP * np.abs(out_i).max()
        out_f, out_i = out_f[keep], out_i[keep]
    return out_f, out_i


def assert_merges_like_loop(sticks, tolerance):
    merged = merge_peaks(sticks, tolerance)
    freqs, ints = loop_merge(sticks, tolerance)
    assert merged.n_lines == freqs.size
    scale_f = max(np.abs(sticks.frequencies).max(initial=0.0), 1.0)
    scale_i = max(np.abs(sticks.intensities).sum(), 1.0)
    assert np.abs(merged.frequencies - freqs).max(initial=0.0) < 1e-12 * scale_f
    assert np.abs(merged.intensities - ints).max(initial=0.0) < 1e-12 * scale_i


def cat_populations(graph):
    p = np.zeros(graph.n_states)
    p[graph.index_all_up] = 1.0
    p[graph.index_all_down] = -1.0
    return p


def ground_populations(graph):
    p = np.zeros(graph.n_states)
    p[graph.index_all_up] = 1.0
    return p


@pytest.fixture(scope="module")
def thermal_spectrum(graph6, thermal6):
    sticks = linear_response(graph6.populations(thermal6), graph6)
    return merge_peaks(sticks, 1e-6)


class TestLinearResponse:
    def test_single_spin_line(self):
        basis = build_basis(1)
        graph = build_transition_graph(Operator(matrix=np.zeros((2, 2))), basis)
        populations = np.array([-0.5, 0.5])  # thermal I_z
        sticks = linear_response(populations, graph)
        assert sticks.n_lines == 1
        assert sticks.intensities[0] == pytest.approx(-1.0)
        assert sticks.frequencies[0] == pytest.approx(0.0)

    def test_equal_populations_give_silence(self, graph6):
        sticks = linear_response(np.full(64, 0.25), graph6)
        assert np.abs(sticks.intensities).max() == 0.0

    def test_cat_state_two_mirrored_lines(self, graph6):
        sticks = linear_response(cat_populations(graph6), graph6)
        live = np.abs(sticks.intensities) > 1e-12
        assert live.sum() == 2
        freqs = sticks.frequencies[live]
        mags = np.abs(sticks.intensities[live])
        assert freqs[0] == pytest.approx(-freqs[1], abs=1e-9)
        assert mags[0] == pytest.approx(mags[1], abs=1e-9)

    def test_population_inversion_negates_intensities(self, graph6):
        rng = np.random.default_rng(41)
        p = rng.standard_normal(64)
        plus = linear_response(p, graph6)
        minus = linear_response(-p, graph6)
        assert np.allclose(plus.intensities, -minus.intensities, atol=1e-12)
        assert np.array_equal(plus.frequencies, minus.frequencies)

    def test_basis_mismatch(self, graph6):
        with pytest.raises(ValueError):
            linear_response(np.zeros(10), graph6)


class TestMergePeaks:
    @pytest.mark.parametrize("tolerance", [1e-6, 5.0], ids=["one-value", "two-values"])
    def test_clusters_one_ulp_apart_stay_in_order(self, tolerance):
        # adjacent floats are 4 apart here: each rounded weighted mean of a
        # cluster of one value once could equal or pass the next cluster's
        start = -2.7757163582889268e16
        # with a tolerance of 5 the steps of 4 join pairs, and those of 8 part them
        steps = np.arange(8) if tolerance < 4 else np.array([0, 1, 3, 4, 6, 7, 9, 10])
        values = start + math.ulp(start) * steps
        freqs = np.repeat(values, 3)
        rng = np.random.default_rng(0)
        ints = rng.uniform(0.1, 1.0, freqs.size) * rng.choice([-1.0, 1.0], freqs.size)
        merged = merge_peaks(StickSpectrum(frequencies=freqs, intensities=ints), tolerance)
        assert np.diff(merged.frequencies).min() > 0
        width = 1 if tolerance < 4 else 2
        clusters = values.reshape(-1, width)
        assert merged.n_lines == clusters.shape[0]
        assert ((clusters[:, 0] <= merged.frequencies)
                & (merged.frequencies <= clusters[:, -1])).all()

    def test_combines_degenerate_lines(self):
        sticks = StickSpectrum(
            frequencies=np.array([1.0, 1.0 + 1e-9]), intensities=np.array([0.5, 0.5])
        )
        merged = merge_peaks(sticks, 1e-6)
        assert merged.n_lines == 1
        assert merged.frequencies[0] == pytest.approx(1.0, abs=1e-9)
        assert merged.intensities[0] == pytest.approx(1.0)

    def test_distant_lines_untouched(self):
        sticks = StickSpectrum(
            frequencies=np.array([-1.0, 2.0]), intensities=np.array([0.5, -0.5])
        )
        merged = merge_peaks(sticks, 1e-6)
        assert np.allclose(merged.frequencies, [-1.0, 2.0])
        assert np.allclose(merged.intensities, [0.5, -0.5])

    def test_zero_sum_cluster_dropped(self):
        sticks = StickSpectrum(
            frequencies=np.array([0.0, 1e-9, 5.0]),
            intensities=np.array([1.0, -1.0, 0.5]),
        )
        merged = merge_peaks(sticks, 1e-6)
        assert merged.n_lines == 1
        assert merged.frequencies[0] == 5.0

    def test_equilibrium_peak_count_is_stable(self, thermal_spectrum, graph6, thermal6):
        assert count_peaks(thermal_spectrum) == 72
        sticks = linear_response(graph6.populations(thermal6), graph6)
        for tolerance in (1e-8, 1e-7, 1e-5, 1e-4):
            assert count_peaks(merge_peaks(sticks, tolerance)) == 72

    def test_merge_conserves_total_intensity(self, graph6, thermal6):
        sticks = linear_response(graph6.populations(thermal6), graph6)
        merged = merge_peaks(sticks, 1e-6)
        assert merged.intensities.sum() == pytest.approx(
            sticks.intensities.sum(), abs=1e-12 * np.abs(sticks.intensities).sum()
        )

    def test_mirror_symmetry_of_equilibrium(self, thermal_spectrum):
        freqs = thermal_spectrum.frequencies
        ints = thermal_spectrum.intensities
        order_pos = np.argsort(np.abs(freqs[freqs > 0]))
        order_neg = np.argsort(np.abs(freqs[freqs < 0]))
        assert np.allclose(
            np.abs(freqs[freqs > 0])[order_pos],
            np.abs(freqs[freqs < 0])[order_neg],
            atol=1e-8,
        )
        assert np.allclose(
            ints[freqs > 0][order_pos], ints[freqs < 0][order_neg], atol=1e-8
        )

    @pytest.mark.parametrize("state", ["thermal", "cat", "ground"])
    @pytest.mark.parametrize("tolerance", [1e-8, 1e-6, 1e-3, 0.3])
    def test_matches_loop_on_hexagon(self, graph6, thermal6, state, tolerance):
        populations = {
            "thermal": graph6.populations(thermal6),
            "cat": cat_populations(graph6),
            "ground": ground_populations(graph6),
        }[state]
        assert_merges_like_loop(linear_response(populations, graph6), tolerance)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-40, 40), st.floats(-1e-6, 1e-6),
                           st.one_of(st.just(0.0), st.floats(-5.0, 5.0))), max_size=60),
        st.sampled_from([1e-6, 0.05, 1.0]),
    )
    def test_matches_loop_on_random_lines(self, lines, tolerance):
        # integer grid points plus tiny offsets make near-degenerate clusters
        freqs = np.array([0.1 * k + d for k, d, _ in lines])
        ints = np.array([i for _, _, i in lines])
        assert_merges_like_loop(StickSpectrum(frequencies=freqs, intensities=ints), tolerance)

    def test_rejects_bad_tolerance(self, thermal_spectrum):
        with pytest.raises(ValueError):
            merge_peaks(thermal_spectrum, 0.0)


class TestCountPeaks:
    def test_pseudopure_ground_has_one_peak(self, graph6):
        merged = merge_peaks(linear_response(ground_populations(graph6), graph6), 1e-6)
        assert count_peaks(merged) == 1

    def test_cat_state_has_two_peaks(self, graph6):
        merged = merge_peaks(linear_response(cat_populations(graph6), graph6), 1e-6)
        assert count_peaks(merged) == 2

    def test_requires_merged_input(self, graph6):
        sticks = linear_response(cat_populations(graph6), graph6)
        with pytest.raises(ValueError):
            count_peaks(sticks)

    def test_empty_spectrum_counts_zero(self):
        merged = merge_peaks(
            StickSpectrum(frequencies=np.array([]), intensities=np.array([])), 1e-6
        )
        assert count_peaks(merged) == 0

    @pytest.mark.parametrize("n_spins", [2, 3, 4, 5, 6])
    def test_ground_state_peak_bound_random_couplings(self, n_spins):
        rng = np.random.default_rng(100 + n_spins)
        basis = build_basis(n_spins)
        for _ in range(5):
            raw = rng.uniform(0.1, 1.0, size=(n_spins, n_spins))
            couplings = np.triu(raw, 1)
            couplings = couplings + couplings.T
            system = SpinSystem(n_spins=n_spins, couplings=couplings)
            graph = build_transition_graph(
                secular_dipolar_hamiltonian(system, basis), basis
            )
            merged = merge_peaks(
                linear_response(ground_populations(graph), graph), 1e-6
            )
            assert count_peaks(merged) <= n_spins


class TestBroaden:
    def test_peak_at_line_position(self):
        sticks = StickSpectrum(
            frequencies=np.array([1.5]), intensities=np.array([2.0]), merged=True,
            merge_tolerance=1e-6,
        )
        grid = np.linspace(0.0, 3.0, 301)
        curve = broaden(sticks, 0.05, grid)
        assert grid[np.argmax(curve)] == pytest.approx(1.5, abs=0.005)
        assert curve.max() == pytest.approx(2.0, abs=1e-6)

    def test_integral_matches_lorentzian_area(self):
        sticks = StickSpectrum(
            frequencies=np.array([-0.5, 0.7]), intensities=np.array([1.0, 2.0])
        )
        linewidth = 0.05
        grid = np.linspace(-40.0, 40.0, 400001)
        curve = broaden(sticks, linewidth, grid)
        expected = np.pi * linewidth * sticks.intensities.sum()
        assert np.trapezoid(curve, grid) == pytest.approx(expected, rel=0.01)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("linewidth", [1e-155, 1e-200, 1e-320])
    def test_very_narrow_lines_reach_their_limit(self, linewidth):
        # detunings, or their squares, overflow: each line is its intensity
        # on its own frequency and 0 elsewhere
        sticks = StickSpectrum(frequencies=np.array([-1.0, 0.5]), intensities=np.array([2.0, 3.0]))
        curve = broaden(sticks, linewidth, np.array([-1.0, 0.0, 0.5, 2.0]))
        assert np.array_equal(curve, [2.0, 0.0, 3.0, 0.0])

    def test_no_lines_is_flat_zero(self):
        sticks = StickSpectrum(frequencies=np.array([]), intensities=np.array([]))
        assert np.array_equal(broaden(sticks, 0.1, np.linspace(0, 1, 5)), np.zeros(5))

    def test_validation(self):
        sticks = StickSpectrum(frequencies=np.array([0.0]), intensities=np.array([1.0]))
        with pytest.raises(ValueError):
            broaden(sticks, 0.0, np.linspace(0, 1, 5))
        with pytest.raises(ValueError):
            broaden(sticks, 0.1, np.array([]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
class TestSettingsMustBeFinite:
    """An infinite setting once gave a flat curve of the summed intensities
    (``broaden``), one line (``merge_peaks``) or no peak (``count_peaks``)."""

    sticks = StickSpectrum(frequencies=np.array([0.0, 1.0]), intensities=np.array([1.0, 2.0]))

    def test_linewidth(self, value):
        with pytest.raises(ValueError, match="linewidth must be positive and finite"):
            broaden(self.sticks, value, np.array([0.0, 1.0]))

    def test_merge_tolerance(self, value):
        with pytest.raises(ValueError, match="merge tolerance must be positive and finite"):
            merge_peaks(self.sticks, value)

    def test_intensity_floor(self, value):
        merged = merge_peaks(self.sticks, 1e-6)
        with pytest.raises(ValueError, match="intensity floor must be nonnegative and finite"):
            count_peaks(merged, value)


class TestSerialization:
    def test_sticks_csv(self, tmp_path, graph6):
        merged = merge_peaks(linear_response(cat_populations(graph6), graph6), 1e-6)
        path = tmp_path / "sticks.csv"
        merged.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["frequency", "intensity"]
        assert len(rows) == merged.n_lines + 1

    def test_curve_csv(self, tmp_path):
        grid = np.linspace(0, 1, 3)
        curve_to_csv(grid, np.array([0.0, 1.0, 0.0]), tmp_path / "curve.csv")
        with open(tmp_path / "curve.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["frequency", "amplitude"]
        assert float(rows[2][1]) == 1.0
