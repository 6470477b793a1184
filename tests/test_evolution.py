import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqpure import (
    DensityMatrix,
    Operator,
    SpinSystem,
    build_basis,
    diag_pair_extractor,
    diagonalize,
    dq_hamiltonian,
    evolve,
    mq_intensity_extractor,
    negated,
    population_extractor,
    sweep,
    thermal_state,
)
from mqpure.evolution import TWO_PI, SweepTable

from dense_eigen import dense_eigen
from test_hamiltonians import random_systems


def two_spin_setup():
    basis = build_basis(2)
    system = SpinSystem(n_spins=2, couplings=np.array([[0.0, 1.0], [1.0, 0.0]]))
    return basis, dq_hamiltonian(system, basis)


def rotation_oracle(t, phase_scale=TWO_PI):
    """Analytic two-spin state: the (uu, dd) block of I_z rotates as a
    2x2 spin under H_block = -(1/2) sigma_x, angle phase_scale * t."""
    theta = phase_scale * t
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = np.cos(theta)
    rho[0, 0] = -np.cos(theta)
    rho[3, 0] = -1j * np.sin(theta)
    rho[0, 3] = 1j * np.sin(theta)
    return rho


def random_state(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return DensityMatrix(matrix=raw + raw.conj().T)


def random_hamiltonian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Operator(matrix=raw + raw.conj().T)


class TestDiagonalize:
    def test_sorts_eigenvalues(self):
        eig = diagonalize(Operator(matrix=np.diag([3.0, 1.0, 2.0])))
        values, vectors = dense_eigen(eig.blocks)
        assert np.allclose(values, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])

    def test_two_spin_dq_spectrum(self):
        basis, h = two_spin_setup()
        values, _ = dense_eigen(diagonalize(h).blocks)
        assert np.allclose(values, [-0.5, 0.0, 0.0, 0.5], atol=1e-14)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(7)
        h = random_hamiltonian(rng, 64)
        values, vectors = dense_eigen(diagonalize(h).blocks)
        residual = h.matrix @ vectors - vectors * values
        assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(h.matrix)
        gram = vectors.conj().T @ vectors
        assert np.linalg.norm(gram - np.eye(64)) < 1e-10

    def test_rejects_unflagged_operator(self):
        op = Operator(matrix=np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=False)
        with pytest.raises(ValueError):
            diagonalize(op)


class TestParityBlocks:
    @settings(max_examples=20, deadline=None)
    @given(random_systems())
    def test_dq_splits_into_real_parity_blocks(self, system):
        basis = build_basis(system.n_spins)
        h = dq_hamiltonian(system, basis).matrix
        eig = diagonalize(Operator(matrix=h))
        assert len(eig.blocks) == 2
        parity = [np.unique(np.round(basis.m[b.states] + system.n_spins / 2) % 2)
                  for b in eig.blocks]
        assert [list(p) for p in parity] == [[0.0], [1.0]]
        assert all(b.eigenvectors.dtype == np.float64 for b in eig.blocks)
        w, v = dense_eigen(eig.blocks)
        scale = max(np.linalg.norm(h), 1.0)
        assert np.all(np.diff(w) >= 0)
        assert np.linalg.norm(h @ v - v * w) < 1e-12 * scale
        assert np.linalg.norm(v.T @ v - np.eye(basis.dim)) < 1e-12 * basis.dim

    def test_random_complex_matrix_is_one_block(self):
        rng = np.random.default_rng(3)
        assert len(diagonalize(random_hamiltonian(rng, 16)).blocks) == 1

    @settings(max_examples=20, deadline=None)
    @given(random_systems(max_spins=6), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
    def test_backward_evolution_undoes_forward(self, system, t, seed):
        basis = build_basis(system.n_spins)
        h = dq_hamiltonian(system, basis)
        eig = diagonalize(h)
        rho = random_state(np.random.default_rng(seed), basis.dim)
        there = evolve(rho, eig, t)
        scale = np.abs(rho.matrix).max()
        assert np.abs(evolve(there, eig, -t).matrix - rho.matrix).max() < 1e-10 * scale
        reversed_h = evolve(rho, diagonalize(negated(h)), t)
        assert np.abs(evolve(rho, eig, -t).matrix - reversed_h.matrix).max() < 1e-10 * scale
        assert abs(there.purity() - rho.purity()) < 1e-10 * rho.purity()

    def test_sweep_matches_evolve_with_zero_blocks(self, basis6, eig6, thermal6):
        times = np.array([0.0, 0.31, 0.973])
        cell = (basis6.index_all_up, basis6.index_all_down)
        table = sweep(thermal6, eig6, times, {"im_ud": lambda rho: rho[cell].imag})
        for t, value in zip(times, table.column("im_ud")):
            assert value == pytest.approx(evolve(thermal6, eig6, t).matrix[cell].imag,
                                          abs=1e-13)


class TestEvolve:
    def test_time_zero_is_identity(self):
        basis, h = two_spin_setup()
        rho = thermal_state(basis)
        assert np.allclose(evolve(rho, h, 0.0).matrix, rho.matrix, atol=1e-14)

    @pytest.mark.parametrize("t", [0.1, 0.25, 0.5, 0.973])
    def test_two_spin_rotation_oracle_cyclic(self, t):
        basis, h = two_spin_setup()
        rho_t = evolve(thermal_state(basis), h, t)
        assert np.abs(rho_t.matrix - rotation_oracle(t)).max() < 1e-10

    def test_two_spin_rotation_oracle_angular(self):
        # with angular phase the block flips sign at t = pi
        basis, h = two_spin_setup()
        rho_t = evolve(thermal_state(basis), h, np.pi, unit="angular")
        expected = rotation_oracle(np.pi, phase_scale=1.0)
        assert np.abs(rho_t.matrix - expected).max() < 1e-10
        assert rho_t.matrix[3, 3] == pytest.approx(-1.0, abs=1e-12)
        assert rho_t.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_trace_and_purity_preserved(self):
        rng = np.random.default_rng(11)
        rho = random_state(rng, 16)
        h = random_hamiltonian(rng, 16)
        rho_t = evolve(rho, h, 1.7)
        assert abs(np.trace(rho_t.matrix) - np.trace(rho.matrix)) < 1e-10
        assert abs(rho_t.purity() - rho.purity()) < 1e-10 * rho.purity()

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        rho = random_state(rng, 16)
        h = random_hamiltonian(rng, 16)
        back = evolve(evolve(rho, h, 0.83), h, -0.83)
        assert np.abs(back.matrix - rho.matrix).max() < 1e-10

    def test_semigroup(self):
        rng = np.random.default_rng(13)
        rho = random_state(rng, 16)
        h = random_hamiltonian(rng, 16)
        eig = diagonalize(h)
        once = evolve(rho, eig, 0.9)
        split = evolve(evolve(rho, eig, 0.4), eig, 0.5)
        assert np.abs(once.matrix - split.matrix).max() < 1e-10

    def test_dimension_mismatch(self):
        basis, h = two_spin_setup()
        rho = thermal_state(build_basis(3))
        with pytest.raises(ValueError):
            evolve(rho, h, 1.0)

    def test_unknown_unit(self):
        basis, h = two_spin_setup()
        with pytest.raises(ValueError):
            evolve(thermal_state(basis), h, 1.0, unit="hz")


class TestSweep:
    def test_single_point_grid_matches_initial_state(self):
        basis, h = two_spin_setup()
        rho = thermal_state(basis)
        observables = {
            "I2": mq_intensity_extractor(basis, 2),
            "diag_pair": diag_pair_extractor(basis),
            "p_u": population_extractor(basis.index_all_up),
        }
        table = sweep(rho, h, np.array([0.0]), observables)
        assert table.column("I2")[0] < 1e-30
        assert table.column("diag_pair")[0] == pytest.approx(2.0, abs=1e-12)
        assert table.column("p_u")[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_spin_fraction_is_sin_squared(self):
        basis, h = two_spin_setup()
        rho = thermal_state(basis)
        times = np.arange(0.0, 0.5005, 0.001)
        observables = {"F2": mq_intensity_extractor(basis, 2, normalize=rho.purity())}
        table = sweep(rho, h, times, observables)
        assert np.abs(table.column("F2") - np.sin(TWO_PI * times) ** 2).max() < 1e-10
        k = np.argmax(table.column("F2"))
        assert times[k] == pytest.approx(0.25, abs=0.001)
        assert table.column("F2")[k] == pytest.approx(1.0, abs=1e-10)

    def test_hexagon_six_quantum_fraction(self, thermal_sweep):
        fraction = thermal_sweep.column("I6") / 96.0
        k = np.argmax(fraction)
        assert thermal_sweep.times[k] == pytest.approx(0.973, abs=0.01)
        assert fraction[k] == pytest.approx(0.14, abs=0.01)

    def test_homq_element_stays_imaginary(self, thermal_sweep):
        assert thermal_sweep.column("re_ud").max() < 1e-12 * np.sqrt(96.0)

    def test_rejects_bad_grids(self):
        basis, h = two_spin_setup()
        rho = thermal_state(basis)
        obs = {"I2": mq_intensity_extractor(basis, 2)}
        with pytest.raises(ValueError):
            sweep(rho, h, np.array([]), obs)
        with pytest.raises(ValueError):
            sweep(rho, h, np.array([0.0, 0.0, 1.0]), obs)

    def test_csv_round_trip(self, tmp_path):
        basis, h = two_spin_setup()
        rho = thermal_state(basis)
        table = sweep(
            rho, h, np.array([0.0, 0.1, 0.2]),
            {"I2": mq_intensity_extractor(basis, 2)},
        )
        path = tmp_path / "sweep.csv"
        table.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "I2"]
        assert len(rows) == 4
        values = np.array([[float(x) for x in row] for row in rows[1:]])
        assert np.allclose(values[:, 0], table.times)
        assert np.allclose(values[:, 1], table.column("I2"))

    def test_unknown_column(self):
        table = SweepTable(times=np.array([0.0]), columns={"a": np.array([1.0])})
        with pytest.raises(ValueError):
            table.column("b")
