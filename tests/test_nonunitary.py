import csv

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from mqpure import (
    DensityMatrix,
    Operator,
    SaturationParams,
    TransitionGraph,
    build_basis,
    build_transition_graph,
    crush,
    saturate,
    secular_dipolar_hamiltonian,
)
from mqpure.spin_core import EigenBlock

from dense_eigen import dense_transform
from test_hamiltonians import random_systems


def dense_populations(graph, rho):
    """Diagonal of rho in the eigenbasis from the dense transform."""
    v = dense_transform(graph.blocks)
    return np.real(np.einsum("ia,ij,ja->a", v.conj(), rho.matrix, v))


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
