"""The pipeline's low-rank path against the dense one.

After the filter the pipeline holds its states as factors a b+ + b a+
(:class:`mqpure.spin_core.LowRankState`) where their rank is small,
propagates them with :func:`mqpure.evolution.propagate` and reads the
excited state's order intensities from an extra point of its sweep.
The oracle is the dense path it takes at the low orders,
``pipeline._dense_after_filter``: ``evolve``, ``filter_order``,
``mq_intensities`` and ``populations``.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mqpure import (
    evolve,
    PipelineConfig,
    build_basis,
    build_transition_graph,
    diag_pair_extractor,
    diagonalize,
    dq_hamiltonian,
    homq_excitable,
    mq_intensities,
    mq_intensity_extractor,
    pipeline,
    run_pipeline,
    secular_dipolar_hamiltonian,
    site_symmetry,
    sweep,
    thermal_state,
)
from mqpure.cli import main
from mqpure.evolution import TWO_PI, propagate
from mqpure.mq import low_rank_intensities
from mqpure.spin_core import DensityMatrix, LowRankState

from dense_eigen import dense_eigen
from test_hamiltonians import random_systems
from test_symmetry import circulant_systems, ring_system

RING10 = {"t_prep": 5.39, "t_max": 6.0, "t_step": 0.1}


def dense_propagator(h, t):
    values, vectors = dense_eigen(diagonalize(h).blocks)
    return (vectors * np.exp(-1j * TWO_PI * t * values)) @ vectors.conj().T


def dense(state):
    return state.a @ state.b.conj().T + state.b @ state.a.conj().T


def random_factors(rng, dim, rank):
    a, b = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            for _ in range(2))
    return LowRankState(a, b)


def accepted_orders(n):
    return [k for k in range(1, n + 1) if k < n or homq_excitable(n)]


def assert_close(got, want, scale, what):
    got, want = np.asarray(got), np.asarray(want)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale, what


def squared_scale(want, element):
    """Its maximum, or ``element`` times the maximum's square root where larger.

    A squared quantity of a tiny or structurally zero state (a weakly
    coupled cluster, an order the couplings cannot reach) carries the
    roundoff of its elements, which is relative to ``element``, the
    largest thermal element, not to the state itself.
    """
    peak = float(np.abs(want).max())
    return max(peak, element * math.sqrt(peak), 1e-12 * element**2)


def write_system(tmp_path, system):
    path = tmp_path / "couplings.txt"
    np.savetxt(path, system.couplings, header=str(system.n_spins), comments="")
    return str(path)


class TestPropagate:
    @settings(max_examples=15, deadline=None)
    @given(st.one_of(random_systems(2, 7), circulant_systems(2, 7)), st.floats(-2.0, 2.0),
           st.integers(0, 2**32 - 1))
    def test_matches_the_dense_propagator(self, system, t, seed):
        # momentum sectors where the couplings have a site cycle, flip or
        # parity blocks where they do not
        basis = build_basis(system.n_spins)
        h = dq_hamiltonian(system, basis)
        eig = diagonalize(h, site_symmetry(system))
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((basis.dim, 3)) + 1j * rng.standard_normal((basis.dim, 3))
        expected = dense_propagator(h, t) @ vectors
        assert_close(propagate(vectors, eig, t), expected, np.abs(vectors).sum(axis=0).max(),
                     "U v")

    def test_exact_zeros_stay_exact(self):
        # the double-quantum Hamiltonian keeps popcount parity exactly
        system = ring_system(6, 3)
        basis = build_basis(6)
        eig = diagonalize(dq_hamiltonian(system, basis), site_symmetry(system))
        unit = np.zeros((basis.dim, 1))
        unit[0] = 1.0
        moved = propagate(unit, eig, 0.7)
        odd = np.array([bin(s).count("1") % 2 == 1 for s in range(basis.dim)])
        assert np.all(moved[odd] == 0.0)
        assert np.abs(moved[~odd]).max() > 0

    def test_rejects_a_wrong_shape(self):
        basis = build_basis(2)
        eig = diagonalize(dq_hamiltonian(ring_system(2), basis))
        with pytest.raises(ValueError, match="do not fit"):
            propagate(np.ones(4), eig, 1.0)


class TestLowRankState:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_readers_match_the_dense_matrix(self, n, rank, seed):
        basis = build_basis(n)
        state = random_factors(np.random.default_rng(seed), basis.dim, rank)
        rho = DensityMatrix(matrix=dense(state))
        purity = rho.purity()
        intensities = low_rank_intensities(state, basis)
        assert_close(intensities, mq_intensities(rho, basis), purity, "intensities")
        assert abs(intensities.sum() - purity) <= 1e-12 * purity
        assert_close(state.diagonal(np.arange(basis.dim)), np.diag(rho.matrix).real,
                     np.abs(rho.matrix).max(), "diagonal")

    def test_populations_match_the_dense_matrix(self, basis6, graph6):
        state = random_factors(np.random.default_rng(4), basis6.dim, 3)
        expected = graph6.populations(DensityMatrix(matrix=dense(state)))
        assert_close(graph6.low_rank_populations(state), expected, np.abs(expected).max(),
                     "populations")

    @pytest.mark.parametrize("rank", [1, 2, 40])
    def test_cancelling_factors_read_zero_not_below(self, basis6, rank):
        # a (i a)+ + (i a) a+ is exactly zero; products of per-level
        # triangles (the rows themselves in levels of at most 2r states)
        # cannot round a squared norm below zero
        a = np.random.default_rng(5).standard_normal((basis6.dim, rank)) + 0j
        intensities = low_rank_intensities(LowRankState(a, 1j * a), basis6)
        assert np.all(intensities >= 0.0)
        assert intensities.max() <= 1e-28 * (np.abs(a).max() * rank * basis6.dim) ** 2

    def test_rejects_mismatched_factors(self):
        with pytest.raises(ValueError, match="one shape"):
            LowRankState(np.zeros((4, 1)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            low_rank_intensities(LowRankState(np.zeros((4, 1)), np.zeros((4, 1))),
                                 build_basis(3))


class TestFactorPathProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.one_of(random_systems(2, 8), circulant_systems(2, 8)), st.floats(0.05, 2.0))
    @example(ring_system(6, 1), 0.973)
    @example(ring_system(8, 2), 1.0)
    def test_every_accepted_order_matches_the_dense_oracle(self, system, t):
        basis = build_basis(system.n_spins)
        h = dq_hamiltonian(system, basis)
        eig = diagonalize(h, site_symmetry(system))
        graph = build_transition_graph(secular_dipolar_hamiltonian(system, basis), basis)
        thermal = thermal_state(basis)
        for n in accepted_orders(system.n_spins):
            filtered, reversed_ = pipeline._filter_and_reverse(eig, basis, n, t, "cyclic")
            after = pipeline._low_rank_after_filter(eig, basis, graph, n, t, "cyclic")
            oracle = pipeline._dense_after_filter(thermal, eig, basis, graph, n, t, "cyclic")
            if n % 2:
                # the thermal state has even orders only, and so has every
                # state the double-quantum Hamiltonian makes from it
                assert not filtered.a.any() and not reversed_.a.any()
                assert after.kept == after.pair == 0.0
                assert not after.populations.any()
                assert not after.intensities.any()
                continue
            element = basis.n_spins / 2
            # the excited state's order-n intensity, which the filter keeps
            excited = mq_intensities(evolve(thermal, eig, t), basis)[n]
            for want in (oracle.kept, excited):
                assert_close(after.kept, want, squared_scale(want, element), f"kept, order {n}")
            assert_close(after.intensities, oracle.intensities,
                         squared_scale(oracle.intensities, element), f"intensities, order {n}")
            assert_close(after.pair, oracle.pair, squared_scale(oracle.pair, element),
                         f"pair, order {n}")
            assert_close(after.populations, oracle.populations,
                         max(np.abs(oracle.populations).max(), element), f"populations, order {n}")

    @settings(max_examples=15, deadline=None)
    @given(st.one_of(random_systems(2, 8), circulant_systems(2, 8)), st.floats(0.05, 2.0))
    def test_sweep_point_is_the_excited_state(self, system, t):
        # the point runs in chunks of its own: the grid is unchanged
        basis = build_basis(system.n_spins)
        eig = diagonalize(dq_hamiltonian(system, basis), site_symmetry(system))
        thermal = thermal_state(basis)
        observables = {f"I{k}": mq_intensity_extractor(basis, k)
                       for k in range(basis.n_spins + 1)}
        grid = np.linspace(0.0, 2.0, 7)
        table = sweep(thermal, eig, grid, observables, points=[t])
        plain = sweep(thermal, eig, grid, observables)
        assert table.points.times.tolist() == [t]
        for name in observables:
            assert np.array_equal(table.column(name), plain.column(name)), name
        excited = mq_intensities(evolve(thermal, eig, t), basis)
        got = [table.points.column(f"I{k}")[0] for k in range(basis.n_spins + 1)]
        assert_close(got, excited, thermal.purity(), "excited intensities")

    @pytest.mark.parametrize("share", [1.0, 0.0], ids=["factors", "dense"])
    def test_odd_order_pipeline_converts_nothing(self, monkeypatch, share):
        monkeypatch.setattr(pipeline, "FACTOR_RANK_SHARE", share)
        config = PipelineConfig(filter_n=3, t_max=0.5, t_step=0.05)
        with np.errstate(divide="raise", invalid="raise"):
            with pytest.warns(RuntimeWarning, match="grid boundary"):
                report = run_pipeline(config)
        assert report.f_homq == report.f_convert == report.f_overall == 0.0


class TestClosedForms:
    """The pipeline's closed forms against the reads they replace."""

    @settings(max_examples=15, deadline=None)
    @given(random_systems(2, 8), st.floats(0.05, 2.0))
    @example(ring_system(6, 1), 0.973)
    def test_thermal_and_filtered_stages(self, system, t):
        basis = build_basis(system.n_spins)
        thermal = thermal_state(basis)
        graph = build_transition_graph(secular_dipolar_hamiltonian(system, basis), basis)
        purity = float(np.sum(basis.m**2))
        # I_z is m on every m block of the secular eigenbasis
        assert_close(graph.populations(thermal), graph.m_values, 1.0, "thermal populations")
        assert abs(thermal.purity() - purity) <= 1e-12 * purity
        eig = diagonalize(dq_hamiltonian(system, basis), site_symmetry(system))
        for n in accepted_orders(system.n_spins):
            filtered, _ = pipeline._filter_and_reverse(eig, basis, n, t, "cyclic")
            kept = 2.0 * float(np.vdot(filtered.a, filtered.a).real)
            want = np.zeros(basis.n_spins + 1)
            want[n] = kept
            # the filtered state is all order n, of intensity its purity
            assert_close(low_rank_intensities(filtered, basis), want, purity,
                         f"filtered intensities, order {n}")


@pytest.mark.parametrize("n, path", [(10, "low_rank"), (8, "low_rank"), (6, "low_rank"),
                                     (4, "dense"), (2, "dense")])
def test_the_filter_rank_picks_the_path(monkeypatch, n, path):
    # at N = 10 the filtered state has rank 1, 12, 67, 232 and 562 of 1024
    for name in ("low_rank", "dense"):
        monkeypatch.setattr(pipeline, f"_{name}_after_filter", lambda *args, name=name: name)
    assert pipeline._after_filter(None, None, build_basis(10), None, n, 1.0, "cyclic") == path


class TestRing10Oracle:
    @pytest.mark.parametrize("jitter", [None, (0, 1)], ids=["momentum", "flip"])
    def test_reports_and_outputs_match_a_dense_run(self, tmp_path, monkeypatch, jitter):
        system = ring_system(10, 7, jitter)
        assert (site_symmetry(system) is None) == (jitter is not None)
        path = write_system(tmp_path, system)

        def run(out):
            return run_pipeline(PipelineConfig(system=path, out_dir=str(tmp_path / out), **RING10))

        got = run("factors")
        monkeypatch.setattr(pipeline, "FACTOR_RANK_SHARE", 0.0)
        want = run("dense")
        assert got.peak_counts == want.peak_counts
        for key in ("t_star", "f_homq", "f_convert", "f_overall", "p_u_drift",
                    "pseudopure_fidelity", "u_peak_gain"):
            assert math.isclose(getattr(got, key), getattr(want, key), rel_tol=1e-12,
                                abs_tol=1e-300), key
        for name in ("sweep.csv", "transitions.csv"):
            assert (tmp_path / "factors" / name).read_bytes() == \
                (tmp_path / "dense" / name).read_bytes(), name


def traced_peak(run) -> int:
    """The peak of traced allocations while ``run()`` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# One real 1024 x 1024 array is 8 MiB.  With the Hamiltonians and the
# thermal state held as nonzero elements, ring10's pipeline peaks at
# 20.3 MiB of traced allocations (38.2 MiB with the three dense arrays,
# 87 MiB with dense states as well), its thermal sweep at 20.3 MiB and its
# spectrum at 6.8 MiB.  One coupling one ulp off takes the flip sectors,
# on which the pipeline and the thermal sweep peak at 24.3 MiB.  The
# top-order coherence is two nonzero elements: its sweep peaks at 20.3 MiB
# (34.0 MiB as a dense state).  Each bound is the measured peak plus a
# 5 MiB margin, below the 8 MiB that any d x d array would add.
def test_ring10_pipeline_allocates_no_dense_state(tmp_path):
    path = write_system(tmp_path, ring_system(10, 7))
    config = PipelineConfig(system=path, **RING10)
    assert traced_peak(lambda: run_pipeline(config)) < 24 * 2**20


def test_flip_sector_pipeline_allocates_no_dense_state(tmp_path):
    path = write_system(tmp_path, ring_system(10, 7, jitter=(0, 1)))
    config = PipelineConfig(system=path, **RING10)
    assert traced_peak(lambda: run_pipeline(config)) < 29 * 2**20


# The thermal sweep alone, I0-I10 and the diagonal pair at 61 grid points
# and t_prep, over what it holds before: the order intensities are read
# from level pairs and list no element, so the momentum sectors peak at
# 1.2 MiB and the flip's element classes at 5.8 MiB.  Listing the d^2 / 2
# elements of the orders and sorting them into orbit-pair weights took
# 8.5 and 16.9 MiB.
@pytest.mark.parametrize("jitter, bound", [(None, 4), ((0, 1), 10)], ids=["momentum", "flip"])
def test_ring10_sweep_lists_no_order_element(jitter, bound):
    system = ring_system(10, 7, jitter)
    basis = build_basis(10)
    eig = diagonalize(dq_hamiltonian(system, basis), site_symmetry(system))
    assert eig.orbits.order == (10 if jitter is None else 2)
    thermal = thermal_state(basis)
    observables = {f"I{k}": mq_intensity_extractor(basis, k) for k in range(11)}
    observables["diag_pair"] = diag_pair_extractor(basis)
    grid = np.arange(61) * RING10["t_step"]
    assert traced_peak(lambda: sweep(thermal, eig, grid, observables,
                                     points=[RING10["t_prep"]])) < bound * 2**20


@pytest.mark.parametrize("command, jitter, bound", [
    (["sweep", "--state", "thermal", "--t-max", "2", "--t-step", "0.05"], None, 24),
    (["spectrum", "--state", "thermal"], None, 18),
    (["sweep", "--state", "thermal", "--t-max", "2", "--t-step", "0.05"], (0, 1), 29),
    (["sweep", "--state", "homq", "--t-max", "2", "--t-step", "0.05"], None, 25),
], ids=["sweep", "spectrum", "flip-sweep", "homq-sweep"])
def test_ring10_commands_allocate_no_dense_array(tmp_path, capsys, command, jitter, bound):
    path = write_system(tmp_path, ring_system(10, 7, jitter))
    argv = [*command, "--system", path, "--out", str(tmp_path / "out")]
    assert traced_peak(lambda: main(argv)) < bound * 2**20
    assert capsys.readouterr().err == ""
