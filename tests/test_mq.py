import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqpure import (
    DensityMatrix,
    build_basis,
    decompose,
    evolve,
    filter_order,
    homq_coherence_state,
    mq_intensities,
    mq_intensity,
    phase_cycle_decompose,
    thermal_state,
)
from mqpure import mq
from mqpure.mq import PhaseCycleCheck, phase_cycle_check_bytes

from dense_operators import dense_state
from fft_phase_cycle import fft_phase_cycle_decompose


@pytest.fixture(scope="module")
def dense_thermal6(basis6):
    """The hexagon's thermal state as a dense matrix, which these functions read."""
    return dense_state(thermal_state(basis6))


def random_state(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return DensityMatrix(matrix=raw + raw.conj().T)


class TestDecompose:
    def test_thermal_is_pure_order_zero(self, basis6, dense_thermal6):
        dec = decompose(dense_thermal6, basis6)
        assert np.abs(dec[0] - dense_thermal6.matrix).max() == 0.0
        for n in range(1, 7):
            assert np.abs(dec[n]).max() == 0.0

    def test_homq_state_is_pure_order_six(self, basis6):
        dec = decompose(dense_state(homq_coherence_state(basis6)), basis6)
        assert dec[6][63, 0] == 1j
        assert dec[-6][0, 63] == -1j
        for n in range(-5, 6):
            assert np.abs(dec[n]).max() == 0.0

    def test_components_partition_exactly(self, basis6):
        rng = np.random.default_rng(21)
        rho = random_state(rng, 64)
        dec = decompose(rho, basis6)
        assert np.abs(dec.sum(axis=0) - rho.matrix).max() == 0.0
        for n in range(-6, 7):
            assert np.abs(dec[n].conj().T - dec[-n]).max() == 0.0

    def test_completeness_of_intensities(self, basis6):
        rng = np.random.default_rng(22)
        rho = random_state(rng, 64)
        dec = decompose(rho, basis6)
        total = sum(mq_intensity(dec, n) for n in range(7))
        assert abs(total - rho.purity()) < 1e-12 * rho.purity()

    def test_order_out_of_range(self, basis6, dense_thermal6):
        dec = decompose(dense_thermal6, basis6)
        assert dec.shape == (13, 64, 64)  # one entry per order -6..6, none beyond
        with pytest.raises(ValueError):
            mq_intensity(dec, -1)
        with pytest.raises(ValueError):
            mq_intensity(dec, 7)

    def test_dimension_mismatch(self, dense_thermal6):
        with pytest.raises(ValueError):
            decompose(dense_thermal6, build_basis(4))


class TestIntensity:
    def test_homq_intensity_is_two(self, basis6):
        dec = decompose(dense_state(homq_coherence_state(basis6)), basis6)
        assert mq_intensity(dec, 6) == pytest.approx(2.0, abs=1e-14)

    def test_thermal_order_zero_is_purity(self, basis6, dense_thermal6):
        dec = decompose(dense_thermal6, basis6)
        assert mq_intensity(dec, 0) == pytest.approx(96.0, abs=1e-12)

    def test_sixth_order_fraction_at_optimum(self, basis6, eig6, dense_thermal6):
        rho = evolve(dense_thermal6, eig6, 0.973)
        fraction = mq_intensity(decompose(rho, basis6), 6) / 96.0
        assert fraction == pytest.approx(0.14, abs=0.01)

    def test_odd_orders_never_appear(self, thermal_sweep):
        for n in (1, 3, 5):
            assert thermal_sweep.column(f"I{n}").max() < 1e-12


class TestIntensitiesInOnePass:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2**32 - 1))
    def test_matches_decompose(self, n, seed):
        basis = build_basis(n)
        rho = random_state(np.random.default_rng(seed), basis.dim)
        dec = decompose(rho, basis)
        expected = [mq_intensity(dec, k) for k in range(n + 1)]
        got = mq_intensities(rho, basis)
        assert got.shape == (n + 1,)
        assert np.abs(got - expected).max() < 1e-12 * rho.purity()

    def test_hexagon_states(self, basis6, eig6, dense_thermal6):
        for rho in (dense_thermal6, dense_state(homq_coherence_state(basis6)),
                    evolve(dense_thermal6, eig6, 0.973)):
            dec = decompose(rho, basis6)
            expected = [mq_intensity(dec, k) for k in range(7)]
            assert np.abs(mq_intensities(rho, basis6) - expected).max() < 1e-12 * 96.0

    def test_dimension_mismatch(self, dense_thermal6):
        with pytest.raises(ValueError):
            mq_intensities(dense_thermal6, build_basis(4))


@pytest.mark.parametrize("n", range(1, 10))
def test_level_paths_match_decompose(n):
    # the spin-up level blocks against the order stack, at every size up
    # to 9 spins, odd included
    basis = build_basis(n)
    rho = random_state(np.random.default_rng(100 + n), basis.dim)
    dec = decompose(rho, basis)
    expected = [mq_intensity(dec, k) for k in range(n + 1)]
    assert np.abs(mq_intensities(rho, basis) - expected).max() <= 1e-12 * rho.purity()
    for k in range(1, n + 1):
        assert np.array_equal(filter_order(rho, basis, k).matrix, dec[k] + dec[-k])


class TestOrderStack:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_phase_cycling_matches_direct_stack(self, data):
        n = data.draw(st.integers(1, 6))
        k_steps = data.draw(st.integers(2 * n + 1, 3 * n + 3))
        basis = build_basis(n)
        rho = random_state(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                           basis.dim)
        direct = decompose(rho, basis)
        cycled = phase_cycle_decompose(rho, basis, k_steps)
        assert direct.shape == cycled.shape == (2 * n + 1, basis.dim, basis.dim)
        assert np.abs(cycled - direct).max() <= 1e-12 * np.abs(rho.matrix).max()
        assert np.array_equal(direct.sum(axis=0), rho.matrix)
        intensities = mq_intensities(rho, basis)
        for order in range(n + 1):
            assert abs(mq_intensity(direct, order) - intensities[order]) <= 1e-12 * rho.purity()


class TestBandedCheck:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_deviation_is_the_gap_of_the_full_stacks(self, data):
        n = data.draw(st.integers(1, 6))
        k_steps = data.draw(st.integers(2 * n + 1, 3 * n + 3))
        basis = build_basis(n)
        rho = random_state(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                           basis.dim)
        gap = np.abs(decompose(rho, basis) - phase_cycle_decompose(rho, basis, k_steps)).max()
        check = PhaseCycleCheck(basis, k_steps)
        assert abs(check.deviation(rho) - gap) <= 1e-12 * np.abs(rho.matrix).max()
        held = sum(a.nbytes for a in vars(check).values() if isinstance(a, np.ndarray))
        assert held == phase_cycle_check_bytes(basis, k_steps)

    def test_every_band_is_compared(self, monkeypatch):
        # 256 rows make 16 bands; a fault in the cycled rows of the last
        # band alone must show in the deviation
        basis = build_basis(8)
        rho = random_state(np.random.default_rng(27), basis.dim)
        cycled_band = mq._cycled_band

        def faulty(table, levels, rows, *rest):
            out = cycled_band(table, levels, rows, *rest)
            if rows.start == basis.dim - mq.BAND_ROWS:
                out[2, -1, 0] += 1e-6
            return out

        monkeypatch.setattr(mq, "_cycled_band", faulty)
        assert PhaseCycleCheck(basis, 18).deviation(rho) == pytest.approx(1e-6, rel=1e-6)

    def test_aliasing_table_fails(self):
        # 8 steps at 4 spins fold order n onto n - 8, so orders 4 and -4
        # (and every order 8 apart) share their phase sums
        basis = build_basis(4)
        rho = random_state(np.random.default_rng(28), basis.dim)
        check = PhaseCycleCheck(basis, 9)
        assert check.deviation(rho) <= 1e-12 * np.abs(rho.matrix).max()
        check.levels, check.table = mq._cycle_tables(basis, 8)
        assert check.deviation(rho) >= 0.5

    def test_refuses_aliasing_steps(self, basis6):
        with pytest.raises(ValueError, match="k_steps=12 aliases orders up to"):
            PhaseCycleCheck(basis6, 12)
        PhaseCycleCheck(basis6, 13)

    def test_dimension_mismatch(self, dense_thermal6):
        with pytest.raises(ValueError, match="dimension mismatch"):
            PhaseCycleCheck(build_basis(4), 10).deviation(dense_thermal6)


@pytest.mark.parametrize("n, k_steps", [(1, 3), (2, 5), (3, 8), (5, 11), (6, 14), (7, 24)])
def test_weighted_sums_match_the_fft(n, k_steps):
    basis = build_basis(n)
    rho = random_state(np.random.default_rng(200 + n), basis.dim)
    cycled = phase_cycle_decompose(rho, basis, k_steps)
    assert cycled.dtype == complex
    assert (np.abs(cycled - fft_phase_cycle_decompose(rho, basis, k_steps)).max()
            <= 1e-13 * np.abs(rho.matrix).max())


class TestFilter:
    def test_keeps_only_requested_pair(self, basis6, dense_thermal6):
        mat = dense_thermal6.matrix.copy()
        mat[63, 0] += 1.0
        mat[0, 63] += 1.0
        rho = DensityMatrix(matrix=mat)
        filtered = filter_order(rho, basis6, 6)
        expected = np.zeros((64, 64), dtype=complex)
        expected[63, 0] = expected[0, 63] = 1.0
        assert np.abs(filtered.matrix - expected).max() == 0.0

    def test_filtered_excitation_matches_canonical_phase(self, basis6, eig6, dense_thermal6):
        # the surviving pair is proportional to i(|u><d| - |d><u|)
        rho = evolve(dense_thermal6, eig6, 0.973)
        filtered = filter_order(rho, basis6, 6)
        norm = np.linalg.norm(filtered.matrix)
        assert norm > 0
        assert np.abs(filtered.matrix.real).max() < 1e-12 * norm
        assert filtered.matrix[63, 0] == pytest.approx(-filtered.matrix[0, 63])

    def test_idempotent(self, basis6):
        rng = np.random.default_rng(23)
        rho = random_state(rng, 64)
        once = filter_order(rho, basis6, 4)
        twice = filter_order(once, basis6, 4)
        assert np.abs(once.matrix - twice.matrix).max() == 0.0

    def test_traceless_result(self, basis6):
        rng = np.random.default_rng(24)
        rho = random_state(rng, 64)
        for n in (1, 2, 6):
            assert abs(np.trace(filter_order(rho, basis6, n).matrix)) == 0.0

    def test_rejects_bad_order(self, basis6, dense_thermal6):
        with pytest.raises(ValueError):
            filter_order(dense_thermal6, basis6, 0)
        with pytest.raises(ValueError):
            filter_order(dense_thermal6, basis6, 7)


class TestPhaseCycle:
    def test_matches_direct_decomposition(self, basis6):
        rng = np.random.default_rng(25)
        rho = random_state(rng, 64)
        direct = decompose(rho, basis6)
        cycled = phase_cycle_decompose(rho, basis6, 2 * 6 + 2)
        for n in range(-6, 7):
            assert np.abs(direct[n] - cycled[n]).max() < 1e-10

    def test_too_few_steps_alias(self, basis6, dense_thermal6):
        with pytest.raises(ValueError):
            phase_cycle_decompose(dense_thermal6, basis6, 6)
        with pytest.raises(ValueError):
            phase_cycle_decompose(dense_thermal6, basis6, 12)
        phase_cycle_decompose(dense_thermal6, basis6, 13)  # smallest valid count

    def test_thermal_is_order_zero_for_any_valid_k(self, basis6, dense_thermal6):
        for k in (13, 20, 64):
            dec = phase_cycle_decompose(dense_thermal6, basis6, k)
            assert np.abs(dec[0] - dense_thermal6.matrix).max() < 1e-12
            for n in range(1, 7):
                assert np.abs(dec[n]).max() < 1e-12

    def test_intensity_sum_conserved_under_evolution(self, basis6, eig6, dense_thermal6):
        for t in (0.3, 0.973, 1.6):
            rho = evolve(dense_thermal6, eig6, t)
            dec = decompose(rho, basis6)
            total = sum(mq_intensity(dec, n) for n in range(7))
            assert total == pytest.approx(96.0, abs=1e-9)
