"""Site symmetries found from the couplings, and the momentum sectors built on them.

Every sector result is checked against the eigensystem without a site
symmetry (the flip sectors or the parity blocks) or against the dense
oracle of ``dense_eigen``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mqpure import (
    DensityMatrix,
    Observable,
    PipelineConfig,
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
    run_pipeline,
    secular_dipolar_hamiltonian,
    site_symmetry,
    sweep,
    thermal_state,
)
from mqpure import evolution, hamiltonians
from mqpure.evolution import TWO_PI, _sector_sweep

from dense_eigen import dense_eigen
from dense_operators import dense
from dense_observables import dense_sweep, divisor, order_elements


def ring_system(n, seed=None, jitter=None):
    """A regular n-ring, couplings (sin(pi/n) / sin(pi d/n))^3, sites relabelled by seed."""
    label = np.arange(n) if seed is None else np.random.default_rng(seed).permutation(n)
    couplings = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d = min(abs(i - j), n - abs(i - j))
            if d:
                couplings[label[i], label[j]] = (np.sin(np.pi / n) / np.sin(np.pi * d / n)) ** 3
    if jitter is not None:
        i, j = jitter
        couplings[i, j] = couplings[j, i] = np.nextafter(couplings[i, j], 2.0)
    return SpinSystem(n_spins=n, couplings=couplings)


@st.composite
def circulant_systems(draw, min_spins=2, max_spins=8):
    """Couplings that depend only on ring distance, zeros included, sites relabelled."""
    n = draw(st.integers(min_spins, max_spins))
    by_distance = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_subnormal=False)),
        min_size=n // 2, max_size=n // 2,
    ))
    label = draw(st.permutations(range(n)))
    couplings = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d = min(abs(i - j), n - abs(i - j))
            if d:
                couplings[label[i], label[j]] = by_distance[d - 1]
    return SpinSystem(n_spins=n, couplings=couplings)


def sweep_observables(basis, population):
    """Order intensities raw and as fractions (see :func:`dense_observables.divisor`),
    the diagonal pair and populations."""
    observables = {f"I{k}": mq_intensity_extractor(basis, k) for k in range(basis.n_spins + 1)}
    observables.update({f"F{k}": mq_intensity_extractor(basis, k)
                        for k in range(basis.n_spins + 1)})
    observables["diag_pair"] = diag_pair_extractor(basis)
    observables["pop_u"] = population_extractor(basis, basis.index_all_up)
    observables[f"pop:{population}"] = population_extractor(basis, population)
    return observables


def assert_columns_close(table, reference, observables, rho):
    """Each column within 1e-12 of its maximum (the state's scale where that is zero)."""
    for name, obs in observables.items():
        scale = divisor(name, rho.purity())
        got, want = table.column(name) / scale, reference[name] / scale
        floor = (rho.purity() if obs.squared else np.abs(dense(rho)).max()) / scale
        gap = np.abs(got - want).max()
        assert gap <= 1e-12 * max(np.abs(want).max(), floor), name


def dense_evolve(rho, eig, t):
    values, vectors = dense_eigen(eig.blocks)
    u = (vectors * np.exp(-1j * TWO_PI * t * values)) @ vectors.conj().T
    return u @ dense(rho) @ u.conj().T


def is_single_cycle(perm):
    site, seen = 0, set()
    while site not in seen:
        seen.add(site)
        site = perm[site]
    return len(seen) == len(perm)


class TestDetection:
    def test_hexagon_cyclic_generator(self):
        system = hexagon_couplings()
        cycle = site_symmetry(system)
        d = system.couplings
        assert is_single_cycle(cycle)
        assert np.array_equal(d[np.ix_(cycle, cycle)], d)

    @pytest.mark.parametrize("n, seed", [(2, 1), (3, 2), (5, 3), (8, 4), (10, 7), (12, 5)])
    def test_relabelled_rings(self, n, seed):
        system = ring_system(n, seed)
        cycle = site_symmetry(system)
        d = system.couplings
        assert is_single_cycle(cycle)
        assert np.array_equal(d[np.ix_(cycle, cycle)], d)

    def test_uniform_couplings_at_the_size_limit(self):
        # every order of the 12 sites is circulant; the first one found does
        assert is_single_cycle(site_symmetry(SpinSystem(n_spins=12, couplings=1.0 - np.eye(12))))

    def test_one_ulp_off_has_none(self):
        assert site_symmetry(ring_system(10, 7, jitter=(0, 1))) is None

    def test_random_couplings_have_none(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((7, 7))
        couplings = raw + raw.T
        np.fill_diagonal(couplings, 0.0)
        assert site_symmetry(SpinSystem(n_spins=7, couplings=couplings)) is None

    def test_petersen_graph_has_no_ten_cycle(self):
        # vertex-transitive, so every row has the same entries, but its
        # automorphisms (S5) have no element of order 10
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        couplings = np.zeros((10, 10))
        for i, j in outer + spokes + inner:
            couplings[i, j] = couplings[j, i] = 1.0
        assert site_symmetry(SpinSystem(n_spins=10, couplings=couplings)) is None

    def test_search_gives_up_past_its_budget(self, monkeypatch):
        system = ring_system(8, 3)
        monkeypatch.setattr(hamiltonians, "SYMMETRY_SEARCH_NODES", 3)
        assert site_symmetry(system) is None


class TestSectors:
    @pytest.mark.parametrize("build", [dq_hamiltonian, secular_dipolar_hamiltonian])
    @pytest.mark.parametrize("n, seed", [(2, 1), (4, 2), (5, 3), (6, 7)])
    def test_sectors_reproduce_the_spectrum(self, build, n, seed):
        # short orbits such as |0101> and the all-up state included
        system = ring_system(n, seed)
        h = dense(build(system, build_basis(n)))
        eig = diagonalize(build(system, build_basis(n)), site_symmetry(system))
        assert eig.orbits.order == n
        assert {block.momentum for block in eig.blocks} == set(range(n))
        values, vectors = dense_eigen(eig.blocks)
        scale = max(np.linalg.norm(h), 1.0)
        assert np.abs(values - np.linalg.eigvalsh(h)).max() < 1e-12 * scale
        assert np.linalg.norm(h @ vectors - vectors * values) < 1e-12 * scale
        assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(2**n)) < 1e-12 * 2**n

    def test_ring10_sector_sizes(self):
        system = ring_system(10, 7)
        eig = diagonalize(dq_hamiltonian(system, build_basis(10)), site_symmetry(system))
        sizes = [block.eigenvalues.size for block in eig.blocks]
        assert len(sizes) == 20 and sum(sizes) == 1024
        assert min(sizes) == 48 and max(sizes) == 56
        # the k = 0 and k = 5 sectors of a real H are real
        assert all(np.isrealobj(b.eigenvectors) == (b.momentum in (0, 5)) for b in eig.blocks)

    def test_matrix_check_falls_back(self):
        # the exact ring's symmetry does not hold for a coupling one ulp off
        exact, jittered = ring_system(6, 2), ring_system(6, 2, jitter=(0, 3))
        basis = build_basis(6)
        h = dq_hamiltonian(jittered, basis)
        eig = diagonalize(h, site_symmetry(exact))
        assert eig.orbits.order == 2
        assert [block.momentum for block in eig.blocks] == [0, 1, 0, 1]
        rho = thermal_state(basis)
        times = np.array([0.0, 0.4, 1.1])
        observables = sweep_observables(basis, 5)
        assert_columns_close(sweep(rho, eig, times, observables),
                             dense_sweep(rho, eig, times, observables), observables, rho)
        gap = np.abs(evolve(rho, eig, 0.7).matrix - dense_evolve(rho, eig, 0.7)).max()
        assert gap <= 1e-12 * np.abs(dense(rho)).max()

    @pytest.mark.parametrize("n", [4, 5])
    def test_non_invariant_state_falls_back(self, n):
        system = ring_system(n, 1)
        basis = build_basis(n)
        eig = diagonalize(dq_hamiltonian(system, basis), site_symmetry(system))
        rng = np.random.default_rng(n)
        raw = rng.standard_normal((basis.dim,) * 2) + 1j * rng.standard_normal((basis.dim,) * 2)
        rho = DensityMatrix(matrix=raw + raw.conj().T)
        # the dense oracle is built from the momentum sectors themselves
        gap = np.abs(evolve(rho, eig, 0.83).matrix - dense_evolve(rho, eig, 0.83)).max()
        assert gap <= 1e-12 * np.abs(dense(rho)).max()
        assert "fallback" in vars(eig)
        times = np.array([0.0, 0.3, 0.9])
        observables = sweep_observables(basis, 3)
        assert_columns_close(sweep(rho, eig, times, observables),
                             dense_sweep(rho, eig, times, observables), observables, rho)

    def test_invariant_state_does_not_fall_back(self):
        system = ring_system(6, 3)
        basis = build_basis(6)
        eig = diagonalize(dq_hamiltonian(system, basis), site_symmetry(system))
        rho = evolve(thermal_state(basis), eig, 0.9)
        # the sector evolve is exactly Hermitian and exactly unchanged by P
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        shift = eig.orbits.shift
        assert np.array_equal(rho.matrix[np.ix_(shift, shift)], rho.matrix)
        evolve(rho, eig, -0.9)
        observables = {"I6": mq_intensity_extractor(basis, 6)}
        sweep(rho, eig, np.array([0.0, 0.5]), observables)
        assert "fallback" not in vars(eig)

    def test_negated_matches_a_second_diagonalization(self):
        system = ring_system(6, 4)
        basis = build_basis(6)
        h = dq_hamiltonian(system, basis)
        eig = diagonalize(h, site_symmetry(system)).negated()
        assert all(np.all(np.diff(block.eigenvalues) >= 0) for block in eig.blocks)
        rho = homq_coherence_state(basis)
        times = np.array([0.0, 0.2, 0.7])
        observables = sweep_observables(basis, 9)
        reference = sweep(rho, diagonalize(negated(h)), times, observables)
        assert_columns_close(sweep(rho, eig, times, observables), reference.columns,
                             observables, rho)
        noisy = DensityMatrix(matrix=np.diag(np.arange(basis.dim, dtype=float)))
        gap = np.abs(evolve(noisy, eig, 0.4).matrix
                     - evolve(noisy, diagonalize(negated(h)), 0.4).matrix).max()
        assert gap <= 1e-12 * basis.dim

    def test_chunks_of_one_point(self, monkeypatch):
        system = ring_system(5, 2)
        basis = build_basis(5)
        h = dq_hamiltonian(system, basis)
        eig = diagonalize(h, site_symmetry(system))
        rho = thermal_state(basis)
        observables = sweep_observables(basis, 7)
        times = np.linspace(0.0, 1.5, 5)
        reference = sweep(rho, diagonalize(h), times, observables)
        monkeypatch.setattr(evolution, "CHUNK_BYTES", 1)
        assert_columns_close(sweep(rho, eig, times, observables), reference.columns,
                             observables, rho)

    @settings(max_examples=12, deadline=None)
    @given(circulant_systems(), st.floats(0.05, 3.0), st.integers(0, 2**10 - 1))
    @example(ring_system(10, 7), 5.39, 341)
    def test_symmetric_path_matches_plain(self, system, t, population):
        basis = build_basis(system.n_spins)
        population %= basis.dim
        h = dq_hamiltonian(system, basis)
        symmetry = site_symmetry(system)
        assert symmetry is not None
        eig, plain = diagonalize(h, symmetry), diagonalize(h)
        assert eig.orbits is not None
        times = np.array([0.0, 0.5 * t, t])
        for rho in (thermal_state(basis), homq_coherence_state(basis)):
            observables = sweep_observables(basis, population)
            reference = sweep(rho, plain, times, observables)
            assert_columns_close(sweep(rho, eig, times, observables), reference.columns,
                                 observables, rho)
            there = evolve(rho, eig, t).matrix
            gap = np.abs(there - evolve(rho, plain, t).matrix).max()
            assert gap <= 1e-12 * np.abs(dense(rho)).max()
            assert np.array_equal(there, there.conj().T)


class TestReadableObservables:
    """Order intensities, extreme states and partial or repeated orbit pairs
    on the 4-ring, read by the symmetric sweep and set against the dense
    propagator."""

    def read(self, observables, rho=None):
        system = ring_system(4)
        basis = build_basis(4)
        eig = diagonalize(dq_hamiltonian(system, basis), site_symmetry(system))
        rho = thermal_state(basis) if rho is None else rho
        times = np.array([0.0, 0.4, 1.3])
        table = sweep(rho, eig, times, observables)
        assert_columns_close(table, dense_sweep(rho, eig, times, observables), observables, rho)
        assert eig.orbits.order == 4 and "fallback" not in vars(eig)
        return table

    def test_order_intensities_and_extreme_states(self):
        # an order intensity lists no element and is read by levels; the
        # same order listed element by element is read by element classes
        basis = build_basis(4)
        observables = {"diag_pair": diag_pair_extractor(basis),
                       "pop_u": population_extractor(basis, basis.index_all_up),
                       "pop_d": population_extractor(basis, basis.index_all_down)}
        for k in range(5):
            obs = mq_intensity_extractor(basis, k)
            assert (obs.order, obs.flat.size, obs.weight, obs.squared) == (k, 0, 1.0, True)
            observables[f"I{k}"] = obs
            observables[f"L{k}"] = order_elements(basis, k)
        for rho in (thermal_state(basis), homq_coherence_state(basis)):
            table = self.read(observables, rho)
            for k in range(5):
                gap = np.abs(table.column(f"I{k}") - table.column(f"L{k}")).max()
                assert gap <= 1e-12 * rho.purity()

    def test_partial_orbit_pairs_are_not_readable(self):
        # neither is a whole orbit pair, so neither is constant on one: each
        # element is read from its own class
        basis = build_basis(4)
        # orbit {3, 6, 12, 9} x {0}, order 2: one element listed twice and
        # one missing
        partial = Observable([48, 48, 96, 192])
        table = self.read({"pop:1": population_extractor(basis, 1), "part": partial,
                           "re_part": Observable(partial.flat, -0.5, squared=False)})
        assert np.abs(table.column("part")).max() > 1e-3

    def test_repeated_full_orbit_pair(self):
        # orbit {3, 6, 12, 9} x {0} listed twice at weight 0.5 reads as the
        # orbit pair listed once
        column = [16 * s for s in (3, 6, 12, 9)]
        table = self.read({"twice": Observable(column * 2, 0.5), "once": Observable(column)})
        assert np.abs(table.column("once")).max() > 1e-3
        assert np.abs(table.column("twice") - table.column("once")).max() <= 1e-15

    def test_unreadable_columns_are_read_from_element_classes(self):
        system = ring_system(4, 1)
        basis = build_basis(4)
        eig = diagonalize(dq_hamiltonian(system, basis), site_symmetry(system))
        rho = thermal_state(basis)
        observables = [mq_intensity_extractor(basis, 2), population_extractor(basis, 3)]
        times = np.array([0.0, 0.4])
        values = _sector_sweep(rho, eig, 1, TWO_PI * times, observables, (slice(0, 2),))
        want = [dense_evolve(rho, eig, t)[3, 3].real for t in times]
        assert np.abs(values[:, 1] - want).max() <= 1e-12
        assert "fallback" not in vars(eig)


class TestPipelineSymmetry:
    def test_report_matches_the_path_without_symmetry(self, pipeline_report, monkeypatch):
        report, _ = pipeline_report
        monkeypatch.setattr(hamiltonians, "site_symmetry", lambda system: None)
        plain = run_pipeline(PipelineConfig())
        assert plain.peak_counts == report.peak_counts
        for key in ("t_star", "f_homq", "f_convert", "f_overall", "p_u_drift"):
            assert math.isclose(getattr(plain, key), getattr(report, key), rel_tol=1e-12,
                                abs_tol=1e-15), key
