import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqpure import (
    DensityMatrix,
    Observable,
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
    secular_dipolar_hamiltonian,
    sweep,
    thermal_state,
)
from mqpure import evolution
from mqpure.evolution import (
    TWO_PI,
    EigenSystem,
    SweepTable,
    _chunk_length,
    _eigenbasis_parts,
    _layout,
)
from mqpure.mq import mq_intensities
from mqpure.spin_core import eigh_blocks, popcounts

from dense_eigen import dense_eigen
from dense_observables import dense_sweep, evaluate
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


def parity_eigensystem(h):
    """The two popcount-parity blocks of h, without the spin-flip split."""
    odd = popcounts(np.arange(h.dim)) & 1 == 1
    return EigenSystem(blocks=eigh_blocks(h.matrix, (np.flatnonzero(~odd), np.flatnonzero(odd))))


HAMILTONIANS = st.sampled_from([dq_hamiltonian, secular_dipolar_hamiltonian])


def every_kind_of_observable(basis, purity):
    """Order intensities raw and normalized, the diagonal pair both ways,
    populations, and the real part of one off-diagonal element."""
    up, down = basis.index_all_up, basis.index_all_down
    observables = {}
    for k in range(basis.n_spins + 1):
        observables[f"I{k}"] = mq_intensity_extractor(basis, k)
        observables[f"F{k}"] = mq_intensity_extractor(basis, k, normalize=purity)
    observables["diag_pair"] = diag_pair_extractor(basis)
    observables["diag_pair_frac"] = diag_pair_extractor(basis, normalize=purity)
    observables["pop_u"] = population_extractor(basis, up)
    observables["pop_d"] = population_extractor(basis, down)
    observables["pop_1"] = population_extractor(basis, 1)
    observables["re_ud"] = Observable([up * basis.dim + down], squared=False, normalize=purity)
    # a negative weight, with an element listed twice
    observables["weighted"] = Observable([0, 5, 5, basis.dim], -1.5)
    return observables


def assert_matches_reference(table, reference, observables, rho):
    """Each column equals its dense reference to 1e-12 of the column's scale."""
    for name, obs in observables.items():
        floor = (rho.purity() if obs.squared else np.abs(rho.matrix).max()) / obs.normalize
        gap = np.abs(table.column(name) - reference[name]).max()
        assert gap <= 1e-12 * max(np.abs(reference[name]).max(), floor), name


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
        # at even N each parity block splits into its two spin-flip sectors
        basis = build_basis(system.n_spins)
        h = dq_hamiltonian(system, basis).matrix
        eig = diagonalize(Operator(matrix=h))
        parity = [np.unique(np.round(basis.m[b.states] + system.n_spins / 2) % 2)
                  for b in eig.blocks]
        if system.n_spins % 2 == 0:
            assert [list(p) for p in parity] == [[0.0], [0.0], [1.0], [1.0]]
            assert [b.flip for b in eig.blocks] == [1, -1, 1, -1]
            assert all(b.eigenvalues.size == basis.dim // 4 for b in eig.blocks)
        else:
            assert [list(p) for p in parity] == [[0.0], [1.0]]
            assert [b.flip for b in eig.blocks] == [0, 0]
        assert all(b.eigenvectors.dtype == np.float64 for b in eig.blocks)
        w, v = dense_eigen(eig.blocks)
        scale = max(np.linalg.norm(h), 1.0)
        assert np.all(np.diff(w) >= 0)
        assert np.linalg.norm(h @ v - v * w) < 1e-12 * scale
        assert np.linalg.norm(v.T @ v - np.eye(basis.dim)) < 1e-12 * basis.dim

    @pytest.mark.parametrize("n_spins", [2, 4, 6])
    def test_flip_breaking_matrix_keeps_parity_blocks(self, n_spins):
        # a Zeeman offset conserves parity but changes sign under the flip
        basis = build_basis(n_spins)
        system = SpinSystem(n_spins=n_spins, couplings=1.0 - np.eye(n_spins))
        h = dq_hamiltonian(system, basis).matrix + 0.3 * np.diag(basis.m)
        eig = diagonalize(Operator(matrix=h))
        assert [b.flip for b in eig.blocks] == [0, 0]
        w, v = dense_eigen(eig.blocks)
        assert np.linalg.norm(h @ v - v * w) < 1e-12 * np.linalg.norm(h)

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
        up, down = basis6.index_all_up, basis6.index_all_down
        observables = {"I6": mq_intensity_extractor(basis6, 6),
                       "re_ud": Observable([up * basis6.dim + down], squared=False)}
        table = sweep(thermal6, eig6, times, observables)
        reference = dense_sweep(thermal6, eig6, times, observables)
        for name in observables:
            assert np.allclose(table.column(name), reference[name], rtol=0.0, atol=1e-13)


class TestFlipSectors:
    @settings(max_examples=25, deadline=None)
    @given(random_systems(2, 8), HAMILTONIANS)
    def test_sectors_reproduce_spectrum(self, system, build):
        basis = build_basis(system.n_spins)
        h = build(system, basis).matrix
        eig = diagonalize(Operator(matrix=h))
        assert len(eig.blocks) == (4 if system.n_spins % 2 == 0 else 2)
        w, v = dense_eigen(eig.blocks)
        scale = max(np.linalg.norm(h), 1.0)
        assert np.abs(w - np.linalg.eigvalsh(h)).max() < 1e-12 * scale
        assert np.linalg.norm(h @ v - v * w) < 1e-12 * scale
        assert np.linalg.norm(v.T @ v - np.eye(basis.dim)) < 1e-12 * basis.dim

    @settings(max_examples=25, deadline=None)
    @given(random_systems(2, 8), HAMILTONIANS, st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
    def test_propagation_matches_parity_blocks(self, system, build, t, seed):
        basis = build_basis(system.n_spins)
        h = build(system, basis)
        sectors, parity = diagonalize(h), parity_eigensystem(h)
        times = np.unique([0.0, 0.5 * t, t])
        observables = {f"I{k}": mq_intensity_extractor(basis, k)
                       for k in range(basis.n_spins + 1)}
        observables["diag_pair"] = diag_pair_extractor(basis)
        observables["pop_u"] = population_extractor(basis, basis.index_all_up)
        observables["re_ud"] = Observable(
            [basis.index_all_up * basis.dim + basis.index_all_down], squared=False)
        thermal = thermal_state(basis)
        noisy = random_state(np.random.default_rng(seed), basis.dim)
        for rho in (thermal, noisy):
            scale = np.abs(rho.matrix).max()
            there = evolve(rho, sectors, t).matrix
            assert np.abs(there - evolve(rho, parity, t).matrix).max() <= 1e-12 * scale
            assert np.array_equal(there, there.conj().T)
            fast = sweep(rho, sectors, times, observables)
            slow = sweep(rho, parity, times, observables)
            for name in observables:
                gap = np.abs(fast.column(name) - slow.column(name)).max()
                assert gap <= 1e-12 * max(rho.purity(), scale)
        # the random state populates every sector pair; the thermal state,
        # odd under the flip, only the pairs of opposite flip parity
        pairs = len(sectors.blocks) * (len(sectors.blocks) + 1) // 2
        assert len(_eigenbasis_parts(noisy, sectors)) == pairs
        if system.n_spins % 2 == 0:
            flips = {(a.flip, b.flip) for a, b, *_ in _eigenbasis_parts(thermal, sectors)}
            assert flips == {(1, -1)}


class TestBatchedSweep:
    """The block-layout sweep against evolve plus a dense evaluation."""

    @settings(max_examples=40, deadline=None)
    @given(random_systems(2, 7), HAMILTONIANS, st.booleans(), st.integers(0, 2**32 - 1),
           st.integers(1, 5), st.sampled_from([None, -1, 0, 1]), st.floats(0.1, 2.0))
    def test_matches_dense_reference(self, system, build, thermal, seed, chunk, offset, t_end):
        basis = build_basis(system.n_spins)
        eig = diagonalize(build(system, basis))
        rho = thermal_state(basis) if thermal else random_state(np.random.default_rng(seed),
                                                                 basis.dim)
        parts = _eigenbasis_parts(rho, eig)
        # pairs that share a support are summed before squaring; a random
        # state has them between the sectors of even N, odd N has plain blocks
        sectors = system.n_spins % 2 == 0
        shared = any(len(members) > 1 for members, _ in _layout(parts))
        assert shared == (sectors and not thermal)
        assert all((part.a.flip != 0) == sectors for part in parts)
        observables = every_kind_of_observable(basis, rho.purity())
        # a small chunk budget puts chunk boundaries inside short grids
        largest = max(part.moved.size for part in parts)
        with mock.patch.object(evolution, "CHUNK_BYTES", 16 * largest * chunk):
            assert _chunk_length(parts) == chunk
            length = 1 if offset is None else max(1, chunk + offset)
            times = t_end * np.arange(1, length + 1) / length
            table = sweep(rho, eig, times, observables)
        reference = dense_sweep(rho, eig, times, observables)
        assert_matches_reference(table, reference, observables, rho)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_hexagon_grid_around_one_chunk(self, basis6, eig6, thermal6, offset):
        parts = _eigenbasis_parts(thermal6, eig6)
        # the budget over one complex 16 x 16 sector pair per time point
        chunk = _chunk_length(parts)
        assert chunk == evolution.CHUNK_BYTES // (16 * 16 * 16) > 1
        times = np.linspace(0.0, 2.0, chunk + offset)
        observables = every_kind_of_observable(basis6, thermal6.purity())
        table = sweep(thermal6, eig6, times, observables)
        reference = dense_sweep(thermal6, eig6, times, observables)
        assert_matches_reference(table, reference, observables, thermal6)

    def test_complex_eigenvectors(self):
        rng = np.random.default_rng(5)
        basis = build_basis(4)
        h = random_hamiltonian(rng, basis.dim)
        rho = random_state(rng, basis.dim)
        observables = every_kind_of_observable(basis, rho.purity())
        times = np.array([0.0, 0.2, 0.7, 1.3])
        table = sweep(rho, h, times, observables, unit="angular")
        reference = dense_sweep(rho, h, times, observables, unit="angular")
        assert_matches_reference(table, reference, observables, rho)

    def test_rejects_element_outside_the_matrix(self):
        basis, h = two_spin_setup()
        with pytest.raises(ValueError, match="out of range"):
            population_extractor(basis, 4)
        with pytest.raises(ValueError, match="out of range"):
            sweep(thermal_state(basis), h, np.array([0.0]), {"p": Observable([16])})


class TestEvolve:
    @settings(max_examples=40, deadline=None)
    @given(random_systems(2, 7), HAMILTONIANS, st.booleans(), st.integers(0, 2**32 - 1),
           st.floats(-2.0, 2.0))
    def test_matches_dense_eigenbasis(self, system, build, thermal, seed, t):
        # the dense V e^{-i phase E} V+ sandwich shares no code with the
        # block-pair layout that evolve writes through
        basis = build_basis(system.n_spins)
        eig = diagonalize(build(system, basis))
        rho = thermal_state(basis) if thermal else random_state(np.random.default_rng(seed),
                                                                 basis.dim)
        values, vectors = dense_eigen(eig.blocks)
        u = (vectors * np.exp(-1j * TWO_PI * t * values)) @ vectors.conj().T
        expected = u @ rho.matrix @ u.conj().T
        gap = np.abs(evolve(rho, eig, t).matrix - expected).max()
        assert gap <= 1e-12 * np.abs(rho.matrix).max()

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
    @pytest.mark.parametrize("n_spins", [1, 2, 3, 6, 8])
    def test_order_extractor_matches_bincount(self, n_spins):
        basis = build_basis(n_spins)
        rho = random_state(np.random.default_rng(n_spins), basis.dim)
        expected = mq_intensities(rho, basis)
        got = [evaluate(mq_intensity_extractor(basis, k), rho.matrix) for k in range(n_spins + 1)]
        assert np.allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_single_point_grid_matches_initial_state(self):
        basis, h = two_spin_setup()
        rho = thermal_state(basis)
        observables = {
            "I2": mq_intensity_extractor(basis, 2),
            "diag_pair": diag_pair_extractor(basis),
            "p_u": population_extractor(basis, basis.index_all_up),
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
