import csv
import itertools

import numpy as np
import pytest

from hypothesis import assume, example, given, settings, strategies as st

from mqpure import (
    DensityMatrix,
    Operator,
    SaturationParams,
    SpinSystem,
    TransitionGraph,
    build_basis,
    build_transition_graph,
    crush,
    saturate,
    secular_dipolar_hamiltonian,
    site_symmetry,
)
from mqpure import nonunitary
from mqpure.sectors import state_permutation
from mqpure.spin_core import EigenBlock

from dense_eigen import dense_transform, refined_eigh
from dense_operators import dense
from test_hamiltonians import random_systems
from test_symmetry import circulant_systems, ring_system


def dense_populations(graph, rho):
    """Diagonal of rho in the eigenbasis from the dense transform."""
    v = dense_transform(graph.blocks)
    return np.real(np.einsum("ia,ij,ja->a", v.conj(), dense(rho), v))


def loop_edges(graph, basis, threshold=1e-10):
    """Edges enumerated pair by pair from the dense transform and sum_i I_i+."""
    dim = basis.dim
    raising = np.zeros((dim, dim))
    for state in range(dim):
        for site in range(basis.n_spins):
            if not state & (1 << site):
                raising[state | (1 << site), state] += 1.0
    v = dense_transform(graph.blocks)
    s = v.conj().T @ raising @ v
    upper, lower, freqs, strengths = [], [], [], []
    for a in range(dim):
        for b in range(dim):
            if graph.m_values[a] == graph.m_values[b] + 1.0:
                upper.append(a)
                lower.append(b)
                freqs.append(graph.energies[a] - graph.energies[b])
                strengths.append(abs(s[a, b]) ** 2)
    upper, lower, freqs, strengths = map(np.array, (upper, lower, freqs, strengths))
    keep = strengths > threshold * strengths.max(initial=0.0)
    ordering = np.lexsort((lower[keep], upper[keep], freqs[keep]))
    return (upper[keep][ordering], lower[keep][ordering],
            freqs[keep][ordering], strengths[keep][ordering])


def identity_block(n_states):
    """The Zeeman basis itself as one eigenbasis block at zero energy."""
    return (EigenBlock(np.arange(n_states), np.zeros(n_states), np.eye(n_states)),)


def three_state_graph():
    """States g, a, b with m = 0, 1, 2 and a single allowed a<->b edge."""
    return TransitionGraph(
        m_values=np.array([0.0, 1.0, 2.0]),
        upper=np.array([2]),
        lower=np.array([1]),
        frequencies=np.array([0.0]),
        strengths=np.array([1.0]),
        blocks=identity_block(3),
    )


def edgeless_graph():
    return TransitionGraph(
        m_values=np.array([0.0, 1.0]),
        upper=np.array([], dtype=int),
        lower=np.array([], dtype=int),
        frequencies=np.array([]),
        strengths=np.array([]),
        blocks=identity_block(2),
    )


class TestCrush:
    def test_diagonal_untouched(self):
        rho = DensityMatrix(matrix=np.diag([1.0, -2.0, 0.5]))
        assert np.abs(crush(rho).matrix - rho.matrix).max() == 0.0

    def test_coherence_removed(self, basis6):
        mat = np.zeros((64, 64), dtype=complex)
        mat[63, 0] = mat[0, 63] = 1.0
        rho = DensityMatrix(matrix=mat)
        assert np.abs(crush(rho).matrix).max() == 0.0

    def test_trace_and_diagonal_invariant(self):
        rng = np.random.default_rng(31)
        raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = DensityMatrix(matrix=raw + raw.conj().T)
        crushed = crush(rho)
        assert np.allclose(np.diag(crushed.matrix), np.diag(rho.matrix))
        assert abs(np.trace(crushed.matrix) - np.trace(rho.matrix)) < 1e-12
        assert crushed.purity() <= rho.purity()


class TestTransitionGraph:
    def test_single_allowed_exit_from_all_down(self, graph6):
        from_down = graph6.lower == graph6.index_all_down
        assert from_down.sum() == 1
        assert graph6.strengths[from_down][0] == pytest.approx(6.0, abs=1e-10)

    def test_single_allowed_entry_into_all_up(self, graph6):
        into_up = graph6.upper == graph6.index_all_up
        assert into_up.sum() == 1
        f_up = graph6.frequencies[into_up][0]
        f_down = graph6.frequencies[graph6.lower == graph6.index_all_down][0]
        assert f_up == pytest.approx(-f_down, abs=1e-9)
        assert f_up > 0

    def test_extreme_state_energy(self, graph6, hexagon_system):
        # the all-up state is an exact eigenstate with energy sum(D_ij)/2
        expected = hexagon_system.couplings[np.triu_indices(6, 1)].sum() / 2.0
        assert graph6.energies[graph6.index_all_up] == pytest.approx(expected, abs=1e-12)

    def test_single_spin_graph(self):
        basis = build_basis(1)
        graph = build_transition_graph(Operator(matrix=np.zeros((2, 2))), basis)
        assert graph.n_edges == 1
        assert graph.strengths[0] == pytest.approx(1.0)
        assert graph.frequencies[0] == pytest.approx(0.0)

    def test_rejects_non_conserving_hamiltonian(self, hexagon_system, basis6, h_av6):
        with pytest.raises(ValueError):
            build_transition_graph(h_av6, basis6)

    # states 0 and 1 lie in different m blocks, states 1 and 2 in one
    @pytest.mark.parametrize("value, pair", [
        (1e-13, (0, 1)), (1e-9, (0, 1)), (np.nan, (0, 1)), (np.nan, (1, 2)), (np.inf, (0, 1)),
    ], ids=["tiny", "leak", "nan-off-block", "nan-in-block", "inf-off-block"])
    def test_conservation_check_matches_the_dense_mask(self, hexagon_system, basis6, value,
                                                       pair):
        h = dense(secular_dipolar_hamiltonian(hexagon_system, basis6))
        h[pair] = h[pair[::-1]] = value
        # the check as a d x d mask over every off-block element; a NaN
        # residual compares False, so it passes
        off_block = np.subtract.outer(basis6.m, basis6.m) != 0
        refused = np.abs(h[off_block]).max() > 1e-12 * max(np.linalg.norm(h), 1e-300)
        try:
            with np.errstate(invalid="ignore"):
                build_transition_graph(Operator(matrix=h), basis6)
        except ValueError as exc:  # eigh of a NaN or inf matrix fails too
            assert ("does not conserve" in str(exc)) == refused
        else:
            assert not refused

    def test_populations_of_thermal_state(self, graph6, thermal6):
        populations = graph6.populations(thermal6)
        assert np.allclose(populations, graph6.m_values, atol=1e-12)

    def test_edges_match_pairwise_loop(self, graph6, basis6):
        upper, lower, freqs, strengths = loop_edges(graph6, basis6)
        assert graph6.n_edges == upper.size == 194
        assert np.array_equal(graph6.upper, upper)
        assert np.array_equal(graph6.lower, lower)
        assert np.array_equal(graph6.frequencies, freqs)
        assert np.abs(graph6.strengths - strengths).max() < 1e-12

    def test_keeps_real_eigenbasis_per_m_block(self, graph6, basis6):
        assert len(graph6.blocks) == 7
        start = 0
        for block in graph6.blocks:
            size = block.states.size
            assert block.eigenvectors.dtype == np.float64
            assert np.all(basis6.m[block.states] == graph6.m_values[start])
            assert np.array_equal(graph6.energies[start : start + size], block.eigenvalues)
            start += size

    @settings(max_examples=15, deadline=None)
    @given(random_systems(max_spins=6), st.integers(0, 2**32 - 1))
    def test_blockwise_populations_match_dense(self, system, seed):
        basis = build_basis(system.n_spins)
        graph = build_transition_graph(secular_dipolar_hamiltonian(system, basis), basis)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((basis.dim,) * 2) + 1j * rng.standard_normal((basis.dim,) * 2)
        rho = DensityMatrix(matrix=raw + raw.conj().T)
        expected = dense_populations(graph, rho)
        assert np.abs(graph.populations(rho) - expected).max() < 1e-12 * np.abs(raw).sum()

    def test_one_block_graph_populations(self):
        graph = three_state_graph()
        rho = DensityMatrix(matrix=np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 3.0]]))
        assert np.array_equal(graph.populations(rho), [1.0, -1.0, 3.0])

    def test_csv_dump(self, graph6, tmp_path):
        path = tmp_path / "transitions.csv"
        graph6.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b", "m_a", "m_b", "frequency", "strength"]
        assert len(rows) == graph6.n_edges + 1


def cycle_invariant_state(system, basis, rng) -> DensityMatrix:
    """A random Hermitian state averaged over the powers of the site cycle."""
    raw = rng.standard_normal((basis.dim,) * 2) + 1j * rng.standard_normal((basis.dim,) * 2)
    raw = raw + raw.conj().T
    shift = state_permutation(site_symmetry(system), basis.dim)
    rho, moved = np.zeros_like(raw), np.arange(basis.dim)
    for _ in range(system.n_spins):
        rho += raw[np.ix_(moved, moved)]
        moved = shift[moved]
    return DensityMatrix(matrix=rho)


def clusters(m, values, tol) -> np.ndarray:
    """Start of each run of equal m and values within ``tol`` of the
    previous one, over arrays sorted by (m, value)."""
    return np.flatnonzero(np.r_[True, (np.diff(m) != 0) | (np.diff(values) > tol)])


def line_gaps(graph, reference, tol) -> np.ndarray:
    """The strength of ``graph`` less that of ``reference`` summed over each
    run of lines of equal upper m and frequencies within ``tol``."""
    m = np.concatenate([g.m_values[g.upper] for g in (graph, reference)])
    f = np.concatenate([graph.frequencies, reference.frequencies])
    signed = np.concatenate([graph.strengths, -reference.strengths])
    order = np.lexsort((f, m))
    return np.add.reduceat(signed[order], clusters(m[order], f[order], tol))


def circulant_system(n, by_distance) -> SpinSystem:
    """Couplings by_distance[d - 1] between sites d apart on an n-ring."""
    distance = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    distance = np.minimum(distance, n - distance)
    return SpinSystem(n_spins=n, couplings=np.r_[0.0, by_distance][distance])


class TestSectorGraph:
    """The graph in the momentum sectors of a site cycle against the m-block
    graph (no symmetry), whose basis inside a degenerate manifold is LAPACK's."""

    @settings(max_examples=15, deadline=None)
    @given(circulant_systems(2, 8), st.integers(0, 2**32 - 1))
    @example(ring_system(8, 2), 3)
    @example(ring_system(5, 1), 4)
    # a coupling near 1e-7 beside 1 splits states that LAPACK's m blocks mix
    @example(circulant_system(8, [0.0, 0.0, 1.0, 1.192092896e-07]), 0)
    def test_sectors_match_the_m_blocks(self, system, seed):
        basis = build_basis(system.n_spins)
        h = secular_dipolar_hamiltonian(system, basis)
        symmetry = site_symmetry(system)
        graph = build_transition_graph(h, basis, symmetry)
        plain = build_transition_graph(h, basis)
        assert {block.momentum for block in graph.blocks} == set(range(system.n_spins))
        assert len(plain.blocks) == system.n_spins + 1
        scale = max(np.abs(plain.energies).max(), 1e-300)
        for m in np.unique(plain.m_values):
            want = np.sort(plain.energies[plain.m_values == m])
            got = np.sort(graph.energies[graph.m_values == m])
            assert np.abs(got - want).max() <= 1e-12 * scale

        # the edges in the sectors' own basis are those of the pairwise loop
        upper, lower, freqs, strengths = loop_edges(graph, basis)
        assert np.array_equal(graph.upper, upper) and np.array_equal(graph.lower, lower)
        assert np.array_equal(graph.frequencies, freqs)
        assert np.abs(graph.strengths - strengths).max(initial=0.0) <= \
            1e-12 * graph.strengths.max(initial=0.0)

        rho = cycle_invariant_state(system, basis, np.random.default_rng(seed))
        populations = graph.populations(rho)
        assert np.abs(populations - dense_populations(graph, rho)).max() <= \
            1e-12 * np.abs(rho.matrix).sum()

        def against(plain_whole, sectors_whole):
            # the strength of a line sums over the edges of a degenerate
            # manifold pair, whatever the basis inside them; no edge is
            # dropped, as the m blocks' basis can spread a strength below the
            # threshold
            gaps = line_gaps(sectors_whole, plain_whole, 1e-9 * scale)
            assert np.abs(gaps).max() <= 1e-12 * plain_whole.strengths.max()
            # a population sums over a degenerate manifold alike in both bases
            sums = []
            for g, p in ((graph, populations), (plain_whole, plain_whole.populations(rho))):
                order = np.lexsort((g.energies, g.m_values))
                starts = clusters(g.m_values[order], g.energies[order], 1e-9 * scale)
                sums.append((starts, np.add.reduceat(p[order], starts)))
            assert np.array_equal(sums[0][0], sums[1][0])
            assert np.abs(sums[0][1] - sums[1][1]).max() <= 1e-12 * np.abs(rho.matrix).sum()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nonunitary, "STRENGTH_THRESHOLD", 0.0)
            sectors_whole = build_transition_graph(h, basis, symmetry)
            try:
                against(build_transition_graph(h, basis), sectors_whole)
            except AssertionError:
                # LAPACK's m blocks mix states that a tiny coupling splits
                # and the sectors keep apart; refined vectors do not
                patch.setattr(np.linalg, "eigh", refined_eigh)
                against(build_transition_graph(h, basis), sectors_whole)

    @pytest.mark.parametrize("n, seeds, edges", [(8, (7, 11), 1248), (10, (1, 7), 15204),
                                                 (6, (1, 19), 114), (7, (4, 5), 415)])
    def test_edge_count_does_not_depend_on_site_labels(self, n, seeds, edges):
        # the m blocks give 1866 and 2268 edges for the two 8-rings, 26830
        # and 28540 for the two 10-rings, 194 and 192 for the two 6-rings,
        # and 771 and 763 for the two 7-rings
        basis = build_basis(n)
        for seed in seeds:
            system = ring_system(n, seed)
            graph = build_transition_graph(secular_dipolar_hamiltonian(system, basis), basis,
                                           site_symmetry(system))
            assert graph.n_edges == edges

    def test_every_labelling_of_the_hexagon_takes_the_sectors(self, hexagon_system, basis6,
                                                              graph6):
        # the 720 orders of the sites give the 60 coupling matrices that no
        # rotation or reflection of the ring maps onto each other
        couplings = hexagon_system.couplings
        relabelled = {couplings[np.ix_(sites, sites)].tobytes(): sites
                      for sites in itertools.permutations(range(6))}
        assert len(relabelled) == 60
        for sites in relabelled.values():
            system = SpinSystem(n_spins=6, couplings=couplings[np.ix_(sites, sites)])
            graph = build_transition_graph(secular_dipolar_hamiltonian(system, basis6), basis6,
                                           site_symmetry(system))
            assert len(graph.blocks) == 32 and graph.n_edges == 114
        # without the cycle each level is one block, in LAPACK's basis
        assert len(graph6.blocks) == 7 and graph6.n_edges == 194

    def test_all_down_first_and_all_up_last(self):
        system = ring_system(8, 5)
        basis = build_basis(8)
        graph = build_transition_graph(secular_dipolar_hamiltonian(system, basis), basis,
                                       site_symmetry(system))
        assert len(graph.blocks) > basis.n_spins + 1
        assert graph.index_all_down == 0 and graph.index_all_up == basis.dim - 1
        assert np.all(np.diff(graph.m_values) >= 0)
        # levels ascending, then momentum, then energy within each sector
        keys = [(basis.m[block.states[0]], block.momentum) for block in graph.blocks]
        assert all(first < second for first, second in zip(keys, keys[1:]))
        start = 0
        for block in graph.blocks:
            stop = start + block.eigenvalues.size
            assert np.all(np.diff(graph.energies[start:stop]) >= 0)
            start = stop

    def test_a_coupling_one_ulp_off_keeps_the_m_blocks(self):
        exact, jittered = ring_system(6, 2), ring_system(6, 2, jitter=(0, 3))
        basis = build_basis(6)
        graph = build_transition_graph(secular_dipolar_hamiltonian(jittered, basis), basis,
                                       site_symmetry(exact))
        assert len(graph.blocks) == 7


class TestSaturate:
    def test_two_state_equalization(self):
        graph = three_state_graph()
        params = SaturationParams(center_frequency=0.0, width_sigma=1.0)
        out = saturate(np.array([0.0, 1.0, 0.0]), graph, params)
        assert np.allclose(out, [0.0, 0.5, 0.5], atol=1e-12)

    def test_no_transitions_leaves_populations(self):
        params = SaturationParams(center_frequency=0.0, width_sigma=1.0)
        p0 = np.array([0.3, -0.7])
        assert np.array_equal(saturate(p0, edgeless_graph(), params), p0)

    def test_fully_detuned_envelope_leaves_populations(self):
        graph = three_state_graph()
        params = SaturationParams(center_frequency=100.0, width_sigma=1.0)
        p0 = np.array([0.0, 1.0, 0.0])
        assert np.allclose(saturate(p0, graph, params), p0, atol=1e-12)

    def test_population_conserved(self, graph6):
        rng = np.random.default_rng(32)
        p0 = rng.standard_normal(64)
        for mode in ("timed", "steady_state"):
            params = SaturationParams(
                center_frequency=0.0, width_sigma=3.0, duration=4.0, mode=mode
            )
            out = saturate(p0, graph6, params)
            assert abs(out.sum() - p0.sum()) < 1e-10

    @pytest.mark.filterwarnings("error")
    def test_steady_state_reads_only_the_sign_of_a_rate(self, graph6):
        p0 = np.random.default_rng(34).standard_normal(64)
        params = SaturationParams(center_frequency=0.0, width_sigma=3.0)
        huge = SaturationParams(center_frequency=0.0, width_sigma=3.0, rate_scale=1e308)
        assert np.array_equal(saturate(p0, graph6, huge), saturate(p0, graph6, params))

    @pytest.mark.filterwarnings("error")
    def test_a_duration_beyond_the_float_range_relaxes_fully(self, graph6):
        # every decay exponent but the conserved modes' overflows to the
        # exact limit of the decay, 0
        p0 = np.random.default_rng(35).standard_normal(64)
        out = saturate(p0, graph6, SaturationParams(center_frequency=0.0, width_sigma=3.0,
                                                    duration=1e308, mode="timed"))
        steady = saturate(p0, graph6, SaturationParams(center_frequency=0.0, width_sigma=3.0,
                                                       envelope_floor=0.0))
        assert np.abs(out - steady).max() < 1e-10

    @pytest.mark.filterwarnings("error")
    def test_rates_that_overflow_are_refused(self, graph6):
        params = SaturationParams(center_frequency=0.0, width_sigma=3.0, rate_scale=1e308,
                                  mode="timed")
        with pytest.raises(ValueError, match="^rate_scale 1e\\+308 makes the saturation rates"):
            saturate(np.ones(64), graph6, params)

    @pytest.mark.filterwarnings("error")
    def test_an_envelope_that_underflows_is_zero(self):
        params = SaturationParams(center_frequency=1e200, width_sigma=1.0)
        assert np.array_equal(params.envelope([0.0, -1.0]), [0.0, 0.0])

    def test_monotone_mixing(self, graph6):
        rng = np.random.default_rng(33)
        p0 = rng.standard_normal(64)
        params = SaturationParams(
            center_frequency=0.0, width_sigma=50.0, duration=2.0, mode="timed"
        )
        out = saturate(p0, graph6, params)
        assert out.max() <= p0.max() + 1e-12
        assert out.min() >= p0.min() - 1e-12

    def test_trapped_population_drift_bound(self, graph6):
        # the all-up state couples through a single far-detuned transition,
        # so its drift obeys |dp_u| <= 2 W_u * duration * max|p|
        up = graph6.index_all_up
        into_up = graph6.upper == up
        f_up = graph6.frequencies[into_up][0]
        s_up = graph6.strengths[into_up][0]
        f_down = graph6.frequencies[graph6.lower == graph6.index_all_down][0]
        params = SaturationParams(
            center_frequency=f_down,
            width_sigma=abs(f_up - f_down) / 4.0,
            duration=5.0,
            mode="timed",
        )
        p0 = np.zeros(64)
        p0[up] = 1.0
        p0[graph6.index_all_down] = -1.0
        out = saturate(p0, graph6, params)
        bound = 2.0 * params.rate_scale * s_up * params.envelope(f_up) * params.duration
        assert abs(out[up] - p0[up]) <= bound

    def test_cat_state_saturation_traps_ground(self, graph6):
        up, down = graph6.index_all_up, graph6.index_all_down
        f_up = graph6.frequencies[graph6.upper == up][0]
        f_down = graph6.frequencies[graph6.lower == down][0]
        params = SaturationParams(
            center_frequency=f_down, width_sigma=abs(f_up - f_down) / 4.0
        )
        assert params.envelope(f_up) < 1e-3
        p0 = np.zeros(64)
        p0[up] = 1.0
        p0[down] = -1.0
        out = saturate(p0, graph6, params)
        assert abs(out[up] - p0[up]) < 0.01 * np.abs(p0).max()
        indicator = np.zeros(64)
        indicator[up] = 1.0
        assert np.corrcoef(out, indicator)[0, 1] >= 0.9

    def test_wrong_length_rejected(self, graph6):
        params = SaturationParams(center_frequency=0.0, width_sigma=1.0)
        with pytest.raises(ValueError):
            saturate(np.zeros(10), graph6, params)


def component_roots(n_states, a, b):
    """Root of every state's connected component, by a plain union-find loop."""
    parent = list(range(n_states))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in zip(a, b):
        parent[find(i)] = find(j)
    return np.array([find(x) for x in range(n_states)])


def random_graph_and_populations(system, seed):
    basis = build_basis(system.n_spins)
    graph = build_transition_graph(secular_dipolar_hamiltonian(system, basis), basis)
    rng = np.random.default_rng(seed)
    return graph, rng.standard_normal(graph.n_states), rng


class TestSaturationProperties:
    @settings(max_examples=30, deadline=None)
    @given(random_systems(max_spins=6), st.integers(0, 2**32 - 1),
           st.floats(0.01, 1.0), st.sampled_from([0.0, 1e-3, 0.3]))
    def test_steady_state_is_component_mean(self, system, seed, width, floor):
        graph, p0, rng = random_graph_and_populations(system, seed)
        params = SaturationParams(
            center_frequency=rng.choice(graph.frequencies),
            width_sigma=width * max(np.ptp(graph.frequencies), 1.0),
            envelope_floor=floor,
        )
        out = saturate(p0, graph, params)
        envelope = params.envelope(graph.frequencies)
        driven = (envelope >= floor) & (graph.strengths * envelope > 0)
        roots = component_roots(graph.n_states, graph.upper[driven], graph.lower[driven])
        scale = np.abs(p0).sum()
        for root in np.unique(roots):
            members = roots == root
            assert np.ptp(out[members]) <= 1e-12 * scale
            assert abs(out[members].sum() - p0[members].sum()) <= 1e-12 * scale

    @settings(max_examples=20, deadline=None)
    @given(random_systems(max_spins=6), st.integers(0, 2**32 - 1))
    def test_steady_state_is_long_time_limit(self, system, seed):
        # a broad envelope drives every edge at a rate of the order of its
        # strength, so timed mode reaches the same limit within 40 e-folds
        # of the slowest nonzero relaxation rate
        graph, p0, rng = random_graph_and_populations(system, seed)
        center = rng.choice(graph.frequencies)
        width = 2.0 * np.ptp(graph.frequencies) + 1.0
        weights = graph.strengths * np.exp(-((graph.frequencies - center) ** 2) / (2 * width**2))
        w = np.zeros((graph.n_states,) * 2)
        w[graph.upper, graph.lower] = weights
        w = w + w.T
        rates = np.linalg.eigvalsh(np.diag(w.sum(axis=1)) - w)
        n_components = np.unique(component_roots(graph.n_states, graph.upper, graph.lower)).size
        gap = rates[n_components]
        assume(gap > 1e-4 * rates[-1])
        steady, timed = (
            saturate(p0, graph, SaturationParams(
                center_frequency=center, width_sigma=width, envelope_floor=0.0,
                duration=40.0 / gap, mode=mode,
            ))
            for mode in ("steady_state", "timed")
        )
        assert np.abs(steady - timed).max() <= 1e-10 * np.abs(p0).max()

    @settings(max_examples=30, deadline=None)
    @given(random_systems(max_spins=6), st.integers(0, 2**32 - 1),
           st.floats(0.01, 1.0), st.floats(0.01, 100.0),
           st.sampled_from(["timed", "steady_state"]))
    def test_total_population_conserved(self, system, seed, width, duration, mode):
        graph, p0, rng = random_graph_and_populations(system, seed)
        params = SaturationParams(
            center_frequency=rng.choice(graph.frequencies),
            width_sigma=width * max(np.ptp(graph.frequencies), 1.0),
            duration=duration,
            mode=mode,
        )
        out = saturate(p0, graph, params)
        assert abs(out.sum() - p0.sum()) <= 1e-12 * graph.n_states * np.abs(p0).max()


class TestSaturationParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SaturationParams(center_frequency=0.0, width_sigma=0.0)
        with pytest.raises(ValueError):
            SaturationParams(center_frequency=0.0, width_sigma=1.0, rate_scale=-1.0)
        with pytest.raises(ValueError):
            SaturationParams(center_frequency=0.0, width_sigma=1.0, duration=-2.0)
        with pytest.raises(ValueError):
            SaturationParams(center_frequency=0.0, width_sigma=1.0, mode="forever")
        with pytest.raises(ValueError):
            SaturationParams(center_frequency=0.0, width_sigma=1.0, envelope_floor=-0.1)

    def test_envelope_peak_and_symmetry(self):
        params = SaturationParams(center_frequency=2.0, width_sigma=0.5)
        assert params.envelope(2.0) == pytest.approx(1.0)
        assert params.envelope(1.0) == pytest.approx(params.envelope(3.0))


class TestGraphValidation:
    def test_edges_must_step_one_in_m(self):
        with pytest.raises(ValueError):
            TransitionGraph(
                m_values=np.array([0.0, 2.0]),
                upper=np.array([1]),
                lower=np.array([0]),
                frequencies=np.array([0.0]),
                strengths=np.array([1.0]),
                blocks=identity_block(2),
            )

    def test_strengths_nonnegative(self):
        with pytest.raises(ValueError):
            TransitionGraph(
                m_values=np.array([0.0, 1.0]),
                upper=np.array([1]),
                lower=np.array([0]),
                frequencies=np.array([0.0]),
                strengths=np.array([-1.0]),
                blocks=identity_block(2),
            )
