import csv
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mqpure import (
    DensityMatrix,
    Observable,
    Operator,
    SparseOperator,
    SpinSystem,
    build_basis,
    diag_pair_extractor,
    diagonalize,
    dq_hamiltonian,
    evolve,
    hexagon_couplings,
    homq_coherence_state,
    mq_intensity_extractor,
    negated,
    population_extractor,
    secular_dipolar_hamiltonian,
    site_symmetry,
    sweep,
    thermal_state,
)
from mqpure import evolution
from mqpure.evolution import TWO_PI, SweepTable, _chunk_length
from mqpure.sectors import (Part, character, class_matrices, flip_add, rotation_sign,
                            sector_groups, sector_parts)
from mqpure.spin_core import adjoint, popcounts
from mqpure.mq import mq_intensities

from dense_eigen import dense_eigen, exact_eigenvalues
from dense_operators import dense
from dense_observables import dense_sweep, divisor, evaluate, order_elements
from test_hamiltonians import random_systems
from test_symmetry import circulant_systems, ring_system


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
    """The two popcount-parity blocks of h, without the spin-flip split: the
    sectors of G = identity."""
    eig = diagonalize(h).fallback
    assert eig.orbits.order == 1
    return eig


def largest_stack(rho, eig):
    """The most elements a sweep of rho reduces per time point for one pair
    of groups: the element classes, L per pair of orbits."""
    used, chi = character(rho, eig)
    orbits = used.orbits
    return max(orbits.order * orbits.members(left[0]).size * orbits.members(right[0]).size
               for left, right, _ in sector_parts(rho, used, chi, range(orbits.order)))


HAMILTONIANS = st.sampled_from([dq_hamiltonian, secular_dipolar_hamiltonian])


def every_kind_of_observable(basis):
    """Order intensities raw and as fractions, the diagonal pair both ways,
    populations, and the real part of one off-diagonal element as a fraction.

    A fraction (see :func:`dense_observables.divisor`) is divided by the
    initial purity after the sweep."""
    up, down = basis.index_all_up, basis.index_all_down
    observables = {}
    for k in range(basis.n_spins + 1):
        observables[f"I{k}"] = mq_intensity_extractor(basis, k)
        observables[f"F{k}"] = mq_intensity_extractor(basis, k)
    observables["diag_pair"] = diag_pair_extractor(basis)
    observables["diag_pair_frac"] = diag_pair_extractor(basis)
    observables["pop_u"] = population_extractor(basis, up)
    observables["pop_d"] = population_extractor(basis, down)
    observables["pop_1"] = population_extractor(basis, 1)
    observables["re_ud_frac"] = Observable([up * basis.dim + down], squared=False)
    # a negative weight, with an element listed twice
    observables["weighted"] = Observable([0, 5, 5, basis.dim], -1.5)
    return observables


def assert_matches_reference(table, reference, observables, rho):
    """Each column equals its dense reference to 1e-12 of the column's scale."""
    for name, obs in observables.items():
        scale = divisor(name, rho.purity())
        got, want = table.column(name) / scale, reference[name] / scale
        floor = (rho.purity() if obs.squared else np.abs(dense(rho)).max()) / scale
        gap = np.abs(got - want).max()
        assert gap <= 1e-12 * max(np.abs(want).max(), floor), name


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
        h = dense(dq_hamiltonian(system, basis))
        eig = diagonalize(Operator(matrix=h))
        parity = [np.unique(np.round(basis.m[b.states] + system.n_spins / 2) % 2)
                  for b in eig.blocks]
        if system.n_spins % 2 == 0:
            assert [list(p) for p in parity] == [[0.0], [0.0], [1.0], [1.0]]
            assert eig.orbits.order == 2
            assert [b.momentum for b in eig.blocks] == [0, 1, 0, 1]
            assert all(b.eigenvalues.size == basis.dim // 4 for b in eig.blocks)
        else:
            assert [list(p) for p in parity] == [[0.0], [1.0]]
            assert eig.orbits.order == 1
            assert [b.momentum for b in eig.blocks] == [0, 0]
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
        h = dense(dq_hamiltonian(system, basis)) + 0.3 * np.diag(basis.m)
        eig = diagonalize(Operator(matrix=h))
        assert eig.orbits.order == 1
        assert [b.momentum for b in eig.blocks] == [0, 0]
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
        scale = np.abs(dense(rho)).max()
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


def _two_couplings(n_spins, big, small):
    couplings = np.zeros((n_spins, n_spins))
    couplings[0, 1] = couplings[1, 0] = big
    couplings[0, 2] = couplings[2, 0] = small
    return SpinSystem(n_spins=n_spins, couplings=couplings)


class TestFlipSectors:
    @settings(max_examples=25, deadline=None)
    @given(random_systems(2, 8), HAMILTONIANS)
    # eigvalsh is off by 5.9e-11 here, against a bound of 3e-12
    @example(_two_couplings(5, 1.5, 1.54e-157), dq_hamiltonian)
    def test_sectors_reproduce_spectrum(self, system, build):
        basis = build_basis(system.n_spins)
        h = dense(build(system, basis))
        eig = diagonalize(Operator(matrix=h))
        assert len(eig.blocks) == (4 if system.n_spins % 2 == 0 else 2)
        w, v = dense_eigen(eig.blocks)
        scale = max(np.linalg.norm(h), 1.0)
        reference = np.linalg.eigvalsh(h)
        couplings = np.abs(system.couplings)
        tiny = (couplings > 0) & (couplings < np.sqrt(np.finfo(float).tiny) * couplings.max())
        if tiny.any() and not np.abs(w - reference).max() < 1e-12 * scale:
            # LAPACK's reference is not to be trusted for such couplings;
            # mpmath's is, and it is slow, so it is only taken when needed
            reference = exact_eigenvalues(h)
        assert np.abs(w - reference).max() < 1e-12 * scale
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
            scale = np.abs(dense(rho)).max()
            there = evolve(rho, sectors, t).matrix
            assert np.abs(there - evolve(rho, parity, t).matrix).max() <= 1e-12 * scale
            assert np.array_equal(there, there.conj().T)
            fast = sweep(rho, sectors, times, observables)
            slow = sweep(rho, parity, times, observables)
            for name in observables:
                gap = np.abs(fast.column(name) - slow.column(name)).max()
                assert gap <= 1e-12 * max(rho.purity(), scale)
        # the random state has no character under the flip, so it takes the
        # parity blocks, and populates all three of their pairs; the thermal
        # state, odd under the flip, only the sector pairs (1, 0)
        used, chi = character(noisy, sectors)
        assert used.orbits.order == 1 and chi == 1
        assert sum(len(parts) for *_, parts in sector_parts(noisy, used, chi, [0])) == 3
        if system.n_spins % 2 == 0:
            assert character(thermal, sectors) == (sectors, -1)
            momenta = {(part.a.momentum, part.b.momentum)
                       for *_, parts in sector_parts(thermal, sectors, -1, range(2))
                       for part in parts}
            assert momenta == {(1, 0)}

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([2, 4, 6]), st.integers(0, 2**32 - 1))
    def test_flip_add_is_the_general_class_fold(self, n, seed):
        # the flip's closed form, which every command folds by, against
        # evolve's fold over random sector pairs, exactly
        rng = np.random.default_rng(seed)
        couplings = np.triu(rng.standard_normal((n, n)), 1)
        basis = build_basis(n)
        eig = diagonalize(dq_hamiltonian(SpinSystem(n_spins=n, couplings=couplings + couplings.T),
                                         basis))
        orbits = eig.orbits
        assert orbits.order == 2
        even, odd = sector_groups(eig)
        for (left, right), chi in itertools.product([(even, even), (odd, odd), (even, odd)],
                                                    (1, -1)):
            self_pair = left is right
            outer, inner = orbits.members(left[0]), orbits.members(right[0])
            # chi = 1 has the pairs (k, k), chi = -1 the pairs (k + 1, k),
            # of which a group with itself runs only (1, 0)
            momenta = [0] if chi == -1 and self_pair else [0, 1]
            parts = [Part(left[(k + (chi == -1)) % 2], right[k],
                          rng.standard_normal((outer.size, inner.size))
                          + 1j * rng.standard_normal((outer.size, inner.size)))
                     for k in momenta]
            closed = np.zeros((2, outer.size, inner.size), dtype=complex)
            for part in parts:
                flip_add(closed, part.moved, part.b.momentum)
                if chi == -1 and self_pair:
                    flip_add(closed, adjoint(part.moved), 1 - part.b.momentum)
            general = class_matrices(parts, chi, self_pair, outer, inner, orbits)
            assert np.array_equal(closed, general), (chi, self_pair)


class TestSectorTransform:
    """The sweep's kernel, a (rows, K, cols) stack per sector pair, against
    per-point dense products V_a e^{-i phase E_a} X e^{i phase E_b} V_b+."""

    @staticmethod
    def thermal_parts(system):
        basis = build_basis(system.n_spins)
        eig = diagonalize(dq_hamiltonian(system, basis), site_symmetry(system))
        rho = thermal_state(basis)
        used, chi = character(rho, eig)
        return [part for _, _, parts in sector_parts(rho, used, chi, range(used.orbits.order))
                for part in parts]

    @staticmethod
    def assert_matches_dense(part, phases, y):
        a, b = part.a, part.b
        assert y.shape == (a.eigenvalues.size, phases.size, b.eigenvalues.size)
        want = np.array([(a.eigenvectors * np.exp(-1j * phase * a.eigenvalues)) @ part.moved
                         @ (b.eigenvectors * np.exp(-1j * phase * b.eigenvalues)).conj().T
                         for phase in phases])
        assert np.abs(y.transpose(1, 0, 2) - want).max() <= 1e-13 * np.abs(want).max()

    # the site cycle's thermal pairs (k, k) pair a sector with itself, with
    # complex vectors for 2k not a multiple of 6; under the flip (one
    # coupling one ulp off) the thermal state's pair is (1, 0), all real
    @pytest.mark.parametrize("jitter", [None, (0, 1)], ids=["cycle", "flip"])
    def test_matches_dense_products(self, jitter):
        parts = self.thermal_parts(ring_system(6, 3, jitter))
        assert parts
        if jitter is None:
            assert all(part.a is part.b for part in parts)
            assert {np.iscomplexobj(part.b.eigenvectors) for part in parts} == {False, True}
        else:
            assert all(part.a is not part.b for part in parts)
            assert not any(np.iscomplexobj(part.b.eigenvectors) for part in parts)
        # a run of 12 points in chunks of 5: the second chunk ends inside it
        phases = TWO_PI * np.linspace(0.0, 1.3, 12)
        chunk = 5
        for part in parts:
            work = tuple(np.empty(chunk * part.moved.size, dtype=complex) for _ in range(2))
            for window in (slice(5, 10), slice(10, 12)):
                y = evolution._sector_transform(part, phases[window],
                                                evolution._right_factor(part, chunk), work)
                assert np.shares_memory(y, work[0])
                self.assert_matches_dense(part, phases[window], y)
            # one point: a real V_b takes the transposed right product
            right = evolution._right_factor(part, 1)
            assert (right is None) == (not np.iscomplexobj(part.b.eigenvectors))
            y = evolution._sector_transform(part, phases[7:8], right, work)
            self.assert_matches_dense(part, phases[7:8], y)


class TestBatchedSweep:
    """The sector sweep against evolve plus a dense evaluation."""

    @settings(max_examples=40, deadline=None)
    @given(random_systems(2, 7), HAMILTONIANS, st.booleans(), st.integers(0, 2**32 - 1),
           st.integers(1, 5), st.sampled_from([None, -1, 0, 1]), st.floats(0.1, 2.0))
    def test_matches_dense_reference(self, system, build, thermal, seed, chunk, offset, t_end):
        basis = build_basis(system.n_spins)
        eig = diagonalize(build(system, basis))
        rho = thermal_state(basis) if thermal else random_state(np.random.default_rng(seed),
                                                                 basis.dim)
        # even N has flip sectors, in which the thermal state is odd; a random
        # state has no character there and takes the parity blocks, as at odd N
        sectors = system.n_spins % 2 == 0
        assert eig.orbits.order == (2 if sectors else 1)
        used, chi = character(rho, eig)
        assert (used.orbits.order, chi) == ((2, -1) if sectors and thermal else (1, 1))
        observables = every_kind_of_observable(basis)
        # a small chunk budget puts chunk boundaries inside short grids
        largest = largest_stack(rho, eig)
        with mock.patch.object(evolution, "CHUNK_BYTES", 16 * largest * chunk):
            assert _chunk_length(largest) == chunk
            length = 1 if offset is None else max(1, chunk + offset)
            times = t_end * np.arange(1, length + 1) / length
            table = sweep(rho, eig, times, observables)
        reference = dense_sweep(rho, eig, times, observables)
        assert_matches_reference(table, reference, observables, rho)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_hexagon_grid_around_one_chunk(self, basis6, eig6, thermal6, offset):
        # the budget over the two element classes of one 16 x 16 flip-sector
        # pair, complex, per time point
        chunk = _chunk_length(largest_stack(thermal6, eig6))
        assert chunk == evolution.CHUNK_BYTES // (16 * 2 * 16 * 16) > 1
        times = np.linspace(0.0, 2.0, chunk + offset)
        observables = every_kind_of_observable(basis6)
        table = sweep(thermal6, eig6, times, observables)
        reference = dense_sweep(thermal6, eig6, times, observables)
        assert_matches_reference(table, reference, observables, thermal6)

    def test_complex_eigenvectors(self):
        rng = np.random.default_rng(5)
        basis = build_basis(4)
        h = random_hamiltonian(rng, basis.dim)
        rho = random_state(rng, basis.dim)
        observables = every_kind_of_observable(basis)
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

    def test_rejects_an_order_outside_the_basis(self):
        basis, h = two_spin_setup()
        with pytest.raises(ValueError, match="out of range"):
            mq_intensity_extractor(basis, 3)
        with pytest.raises(ValueError, match="order 3 out of range"):
            sweep(thermal_state(basis), h, np.array([0.0]), {"I3": Observable(order=3)})

    @pytest.mark.parametrize("fields", [{"order": -1}, {"order": 1, "flat": [0]},
                                        {"order": 1, "squared": False}])
    def test_an_order_intensity_lists_no_element(self, fields):
        with pytest.raises(ValueError, match="order intensity"):
            Observable(**fields)


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
        expected = u @ dense(rho) @ u.conj().T
        gap = np.abs(evolve(rho, eig, t).matrix - expected).max()
        assert gap <= 1e-12 * np.abs(dense(rho)).max()

    def test_time_zero_is_identity(self):
        basis, h = two_spin_setup()
        rho = thermal_state(basis)
        assert np.allclose(evolve(rho, h, 0.0).matrix, dense(rho), atol=1e-14)

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
        observables = {"I2": mq_intensity_extractor(basis, 2)}
        fraction = sweep(rho, h, times, observables).column("I2") / rho.purity()
        assert np.abs(fraction - np.sin(TWO_PI * times) ** 2).max() < 1e-10
        k = np.argmax(fraction)
        assert times[k] == pytest.approx(0.25, abs=0.001)
        assert fraction[k] == pytest.approx(1.0, abs=1e-10)

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


@st.composite
def systems_by_permutation(draw):
    """(G, system): circulant couplings with sites relabelled (a site cycle of
    order N), random couplings at even N without one (the flip, L = 2), or
    random couplings or a ring one coupling one ulp off at odd N (the
    identity, L = 1)."""
    kind = draw(st.sampled_from(["cycle", "flip", "identity"]))
    if kind == "cycle":
        return kind, draw(circulant_systems(2, 8))
    n = draw(st.sampled_from([4, 6, 8] if kind == "flip" else [3, 5, 7]))
    if kind == "flip" or draw(st.booleans()):
        system = draw(random_systems(n, n))
    else:
        system = ring_system(n, draw(st.integers(0, 2**16)), jitter=(0, draw(st.integers(1, n - 1))))
    assume(site_symmetry(system) is None)
    return kind, system


class TestSectorsOfG:
    """Every G, and states of character +1, -1 and neither, against the dense
    propagator of numpy's eigh of the whole matrix."""

    # which eigensystem a state runs on: 1 or -1 on the sectors, 0 on the fallback
    CHARACTERS = {"cycle": {"thermal": 1, "homq": 1, "flip-odd": 0, "random": 0, "cycle-odd": -1},
                  "flip": {"thermal": -1, "homq": -1, "flip-odd": -1, "random": 0},
                  "identity": {"thermal": 1, "homq": 1, "flip-odd": 1, "random": 1}}

    @settings(max_examples=30, deadline=None)
    @given(systems_by_permutation(), st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
    def test_sweep_and_evolve_match_the_dense_propagator(self, case, t, seed):
        kind, system = case
        n = system.n_spins
        basis = build_basis(n)
        h = dq_hamiltonian(system, basis)
        eig = diagonalize(h, site_symmetry(system))
        order = {"cycle": n, "flip": 2, "identity": 1}[kind]
        assert eig.orbits.order == order
        assert (kind == "flip") == np.array_equal(eig.orbits.shift, np.arange(basis.dim)[::-1])
        values, vectors = np.linalg.eigh(dense(h))
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((basis.dim,) * 2) + 1j * rng.standard_normal((basis.dim,) * 2)
        noisy = raw + raw.conj().T
        states = {"thermal": thermal_state(basis), "homq": homq_coherence_state(basis),
                  "flip-odd": DensityMatrix(matrix=0.5 * (noisy - noisy[::-1, ::-1])),
                  "random": DensityMatrix(matrix=noisy)}
        if kind == "cycle" and order % 2 == 0:
            # sum_j (-1)^j P^j R P^-j of a matrix R of small integers, so that
            # every sum is exact and P changes the state's sign exactly
            moved = rng.integers(-3, 4, (basis.dim,) * 2).astype(complex)
            moved += 1j * rng.integers(-3, 4, (basis.dim,) * 2)
            moved += moved.conj().T
            odd = np.zeros_like(moved)
            for j in range(order):
                odd += (-1) ** j * moved
                moved = moved[np.ix_(eig.orbits.shift, eig.orbits.shift)]
            states["cycle-odd"] = DensityMatrix(matrix=odd)
        observables = every_kind_of_observable(basis)
        observables[f"pop:{seed % basis.dim}"] = population_extractor(basis, seed % basis.dim)
        times = np.array([0.0, 0.5 * t, t])
        units = [(vectors * np.exp(-1j * TWO_PI * s * values)) @ vectors.conj().T
                 for s in times]
        for name, rho in states.items():
            used, chi = character(rho, eig)
            expected = self.CHARACTERS[kind][name]
            assert (chi, used is eig) == ((expected or 1), expected != 0 or order == 1), name
            exact = [u @ dense(rho) @ u.conj().T for u in units]
            reference = {key: np.array([evaluate(obs, state) for state in exact])
                         for key, obs in observables.items()}
            table = sweep(rho, eig, times, observables)
            assert_matches_reference(table, reference, observables, rho)
            gap = np.abs(evolve(rho, eig, t).matrix - exact[-1]).max()
            assert gap <= 1e-12 * np.abs(dense(rho)).max(), name


class TestOrderIntensities:
    """Order intensities read from the level pairs of the sector stacks (the
    element classes under the flip) against the dense propagator of numpy's
    eigh of the whole matrix, for every G and states of character +1, -1
    and neither."""

    @settings(max_examples=60, deadline=None)
    @given(systems_by_permutation(), st.sampled_from(["thermal", "homq", "flip-odd", "random"]),
           st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
    def test_every_order_matches_the_dense_oracle(self, case, state, t, seed):
        kind, system = case
        n = system.n_spins
        basis = build_basis(n)
        h = dq_hamiltonian(system, basis)
        eig = diagonalize(h, site_symmetry(system))
        # a random state, and its part odd under the flip, which has elements
        # between the parity groups
        noisy = random_state(np.random.default_rng(seed), basis.dim).matrix
        rho = {"thermal": thermal_state(basis), "homq": homq_coherence_state(basis),
               "flip-odd": DensityMatrix(matrix=0.5 * (noisy - noisy[::-1, ::-1])),
               "random": DensityMatrix(matrix=noisy)}[state]
        expected = TestSectorsOfG.CHARACTERS[kind][state]
        used, chi = character(rho, eig)
        assert (chi, used is eig) == ((expected or 1), expected != 0)
        values, vectors = np.linalg.eigh(dense(h))
        times = np.array([0.0, 0.5 * t, t])
        exact = [u @ dense(rho) @ u.conj().T
                 for u in ((vectors * np.exp(-1j * TWO_PI * s * values)) @ vectors.conj().T
                           for s in times)]
        orders = {f"I{k}": mq_intensity_extractor(basis, k) for k in range(n + 1)}
        reference = {key: np.array([evaluate(obs, state) for state in exact])
                     for key, obs in orders.items()}
        # alone, and beside the same sums listed as elements, which the
        # element read takes from the same parts: the momenta k <= L/2 run
        # wherever the conjugate gate holds
        listed = {f"L{k}": order_elements(basis, k) for k in range(n + 1)}
        for observables in (orders, {**orders, **listed}):
            table = sweep(rho, eig, times, observables)
            assert_matches_reference(table, reference, orders, rho)
        for k in range(n + 1):
            assert_matches_reference(table, {f"L{k}": reference[f"I{k}"]},
                                     {f"L{k}": listed[f"L{k}"]}, rho)
        total = sum(table.column(name) for name in orders)
        assert np.abs(total - rho.purity()).max() <= 1e-12 * rho.purity()


def symmetrized(rng, shift, order, chi, real, mask=None) -> np.ndarray:
    """sum_j chi^j P^j M P^-j of a Hermitian matrix M of small integers (real
    or complex, zero outside ``mask``), P the state permutation ``shift`` of
    ``order``: every sum is exact, so P changes the result by chi exactly."""
    dim = shift.size
    moved = rng.integers(-3, 4, (dim, dim)).astype(float if real else complex)
    if not real:
        moved += 1j * rng.integers(-3, 4, (dim, dim))
    moved += moved.conj().T
    if mask is not None:
        moved *= mask
    total = np.zeros_like(moved)
    for j in range(order):
        total += chi ** j * moved
        moved = moved[np.ix_(shift, shift)]
    return total


def element_observables(basis, orbits, rng) -> dict:
    """Every element kind: squared and real, diagonal and off-diagonal, an
    element listed twice, and, for every orbit period of G, a whole orbit pair
    listed twice at weight 0.5, part of one with an element listed twice and
    one missing, and the real diagonal of an orbit."""
    dim = basis.dim
    s, u = (int(x) for x in rng.integers(dim, size=2))
    observables = {
        "diag_pair": diag_pair_extractor(basis),
        "pop_u": population_extractor(basis, basis.index_all_up),
        "pop_d": population_extractor(basis, basis.index_all_down),
        f"pop:{s}": population_extractor(basis, s),
        "square": Observable([s * dim + u]),
        "re": Observable([s * dim + u], squared=False),
        "twice": Observable([s * dim + u, s * dim + u, u * dim + s], -1.5),
        "re_twice": Observable([u * dim + s, u * dim + s, s * dim + s], 0.75, squared=False),
    }
    for period in np.unique(orbits.period):
        first = rng.choice(np.flatnonzero(orbits.period == period))
        second = rng.integers(orbits.period.size)
        rows = orbits.table[first, :period]
        cols = orbits.table[second, :orbits.period[second]]
        pair = (dim * rows[:, np.newaxis] + cols).ravel()
        observables[f"pair{period}"] = Observable(np.tile(pair, 2), 0.5)
        observables[f"part{period}"] = Observable(np.r_[pair[:1], pair[:-1]])
        observables[f"diag{period}"] = Observable((dim + 1) * rows, squared=False)
    return observables


class TestElementRead:
    """Element observables read one way under every G, as fixed combinations
    of sector-pair entries and their conjugates, against the dense propagator
    of numpy's eigh of the whole matrix."""

    @settings(max_examples=40, deadline=None)
    @given(systems_by_permutation(), st.sampled_from(["dq", "negated", "complex"]),
           st.sampled_from(["thermal", "homq", "real", "complex"]), st.booleans(),
           st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
    @example(("cycle", ring_system(8, 3)), "dq", "homq", False, 1.3, 5)
    @example(("cycle", ring_system(6, 2)), "dq", "real", False, 0.7, 2)
    @example(("cycle", ring_system(5, 1)), "negated", "real", True, 1.1, 4)
    def test_every_element_kind_matches_the_dense_oracle(self, case, hamiltonian, state, odd,
                                                         t, seed):
        kind, system = case
        n = system.n_spins
        basis = build_basis(n)
        rng = np.random.default_rng(seed)
        symmetry = site_symmetry(system)
        dq = diagonalize(dq_hamiltonian(system, basis), symmetry)
        shift, order = dq.orbits.shift, dq.orbits.order
        if hamiltonian == "complex":
            # scaled by a power of two, exactly, to the size of the
            # double-quantum H, so that its phases keep the oracle's digits
            h = Operator(matrix=symmetrized(rng, shift, order, 1, real=False) / 64)
            eig = diagonalize(h, symmetry)
            assert eig.orbits.order == order and not eig.conjugate_pairs
        else:
            h = dq_hamiltonian(system, basis)
            eig = dq if hamiltonian == "dq" else dq.negated()
            assert eig.conjugate_pairs
        matrix = dense(h) if hamiltonian != "negated" else -dense(h)
        # a state odd under G where G allows one: chi = -1
        chi = -1 if odd and order % 2 == 0 else 1
        counts = popcounts(np.arange(basis.dim))
        rho = {"thermal": thermal_state(basis), "homq": homq_coherence_state(basis),
               # real, at spin-up counts that differ by 2 mod 4: eps = -chi
               "real": SparseOperator.of(Operator(matrix=symmetrized(
                   rng, shift, order, chi, real=True,
                   mask=(counts[:, np.newaxis] - counts) % 4 == 2))),
               "complex": DensityMatrix(matrix=symmetrized(rng, shift, order, chi, real=False)),
               }[state]
        used, _ = character(rho, eig)
        observables = element_observables(basis, used.orbits, rng)
        level = int(rng.integers(n + 1))
        observables[f"I{level}"] = mq_intensity_extractor(basis, level)
        observables[f"L{level}"] = order_elements(basis, level)
        values, vectors = np.linalg.eigh(matrix)
        times = np.array([0.0, 0.5 * t, t])
        exact = [u @ dense(rho) @ u.conj().T
                 for u in ((vectors * np.exp(-1j * TWO_PI * s * values)) @ vectors.conj().T
                           for s in times)]
        reference = {key: np.array([evaluate(obs, state) for state in exact])
                     for key, obs in observables.items()}
        assert_matches_reference(sweep(rho, eig, times, observables), reference, observables, rho)


def transformed_momenta(rho, eig, observables) -> set:
    """The right momenta of the parts that a sweep of rho transforms."""
    seen = set()
    original = evolution._sector_transform

    def spy(part, *args):
        seen.add(part.b.momentum)
        return original(part, *args)

    with mock.patch.object(evolution, "_sector_transform", spy):
        sweep(rho, eig, np.array([0.0, 0.3]), observables)
    return seen


class TestConjugateGate:
    """Sectors k > L/2 are read as conjugates only where R conj(H) R+ = -H and
    R conj(rho0) R+ = eps rho0 hold exactly, R = exp(i pi I_z / 2)."""

    def test_rotation_sign(self):
        assert rotation_sign(thermal_state(build_basis(6))) == 1
        # i (|u><d| - |d><u|) across 6 and 8 spin flips: i^6 conj(i) = i, i^8 conj(i) = -i
        assert rotation_sign(homq_coherence_state(build_basis(6))) == 1
        assert rotation_sign(homq_coherence_state(build_basis(8))) == -1
        assert rotation_sign(dq_hamiltonian(hexagon_couplings(), build_basis(6))) == -1
        assert rotation_sign(secular_dipolar_hamiltonian(hexagon_couplings(),
                                                         build_basis(6))) == 1
        assert rotation_sign(SparseOperator.of(random_state(np.random.default_rng(1), 16))) == 0
        assert rotation_sign(SparseOperator(2, [0], [0], [np.nan])) == 0

    # the top-order coherence joins the all-up and the all-down state, each an
    # orbit of its own, so it lives in the k = 0 pair alone
    @pytest.mark.parametrize("system, state, momenta", [
        (hexagon_couplings(), thermal_state, 4),
        (ring_system(10, 7), thermal_state, 6),
        (hexagon_couplings(), homq_coherence_state, 1),
        (ring_system(8, 3), homq_coherence_state, 1),
    ], ids=["hexagon", "ring10", "homq", "homq8"])
    def test_half_the_momenta_run(self, system, state, momenta):
        basis = build_basis(system.n_spins)
        eig = diagonalize(dq_hamiltonian(system, basis), site_symmetry(system))
        assert eig.conjugate_pairs and eig.negated().conjugate_pairs
        observables = {f"I{k}": mq_intensity_extractor(basis, k)
                       for k in range(basis.n_spins + 1)}
        observables["diag_pair"] = diag_pair_extractor(basis)
        observables["pop:5"] = population_extractor(basis, 5)
        assert transformed_momenta(state(basis), eig, observables) == set(range(momenta))
        # an element read alone transforms only the parts that hold its classes
        alone = {"pop_u": population_extractor(basis, basis.index_all_up)}
        assert transformed_momenta(state(basis), eig, alone) == {0}

    def test_every_momentum_runs_where_the_gate_fails(self):
        system = hexagon_couplings()
        basis = build_basis(6)
        symmetry = site_symmetry(system)
        observables = {"I2": mq_intensity_extractor(basis, 2),
                       "pop:5": population_extractor(basis, 5)}
        eig = diagonalize(dq_hamiltonian(system, basis), symmetry)
        rng = np.random.default_rng(3)
        shift = eig.orbits.shift
        complex_state = Operator(matrix=symmetrized(rng, shift, 6, 1, real=False))
        assert transformed_momenta(SparseOperator.of(complex_state), eig,
                                   observables) == set(range(6))
        # a dense state is not checked
        dense_thermal = DensityMatrix(matrix=dense(thermal_state(basis)))
        assert transformed_momenta(dense_thermal, eig, observables) == set(range(6))
        for h in (secular_dipolar_hamiltonian(system, basis),
                  Operator(matrix=symmetrized(rng, shift, 6, 1, real=False))):
            eig = diagonalize(h, symmetry)
            assert eig.orbits.order == 6 and not eig.conjugate_pairs
            assert transformed_momenta(thermal_state(basis), eig, observables) == set(range(6))
