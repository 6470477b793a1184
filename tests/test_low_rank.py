"""The pipeline's post-filter stage against the dense one.

After the filter the pipeline holds the excited, filtered and reversed
states as their sector pairs (``pipeline._after_filter``) at every
filter order and under every G, and reads the excited state's order
intensities from an extra point of its sweep.  The oracle runs the same
steps on dense states (``dense_after_filter``): ``evolve``,
``filter_order``, ``mq_intensities`` and ``populations``.
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
    hexagon_couplings,
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
from mqpure.sectors import QUARTER_TURNS, character
from mqpure.spin_core import DensityMatrix, popcounts

from dense_after_filter import dense_after_filter
from dense_eigen import dense_transform
from test_hamiltonians import random_systems
from test_symmetry import circulant_systems, ring_system

RING10 = {"t_prep": 5.39, "t_max": 6.0, "t_step": 0.1}


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


def filtered_state(eig, pairs, chi) -> np.ndarray:
    """The dense filtered state of the filtered sector pairs (part, y): the
    sum of B_a y B_b+ over the pairs, B the sector basis vectors, and of
    their adjoints where chi = -1 (a group's pair (0, 1) under the flip).
    Where only k <= L/2 run (chi = 1 and ``eig.conjugate_pairs``), each
    pair with 2k not a multiple of L also stands for its conjugate twin
    L - k, A(B_a y B_b+) with A(X) = R conj(X) R+ and R = exp(i pi I_z / 2),
    which is i^c up to one global phase on a state of c spins up.  For
    chi = 1 each pair is Hermitian up to roundoff, and so is made exactly
    Hermitian."""
    blocks = [block._replace(eigenvectors=np.eye(block.eigenvalues.size))
              for block in eig.blocks]
    columns = dense_transform(blocks)
    starts = np.cumsum([0] + [block.eigenvalues.size for block in blocks])
    basis_of = {id(block): columns[:, start:stop]
                for block, start, stop in zip(eig.blocks, starts, starts[1:])}
    order = eig.orbits.order
    turns = QUARTER_TURNS[popcounts(np.arange(eig.dim)) % 4]
    rho = np.zeros((eig.dim, eig.dim), dtype=complex)
    for part, y in pairs:
        pair = basis_of[id(part.a)] @ y @ basis_of[id(part.b)].conj().T
        rho += pair
        if chi == 1 and eig.conjugate_pairs and 2 * part.b.momentum % order:
            rho += turns[:, np.newaxis] * pair.conj() * turns.conj()
    return rho + rho.conj().T if chi == -1 else (rho + rho.conj().T) / 2


class TestFactorPathProperty:
    """The post-filter stage on the sector pairs against the dense oracle.

    Random couplings take the flip sectors at even N and the parity groups
    (G = identity) at odd N; circulant ones take a site cycle.
    """

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(random_systems(2, 8), circulant_systems(2, 8)), st.floats(0.05, 2.0))
    @example(ring_system(6, 1), 0.973)
    @example(ring_system(8, 2), 1.0)
    @example(ring_system(8, 2, jitter=(0, 1)), 1.0)
    @example(ring_system(6, 1, jitter=(0, 1)), 0.973)
    @example(ring_system(7, 2, jitter=(0, 1)), 1.0)
    def test_every_accepted_order_matches_the_dense_oracle(self, system, t):
        basis = build_basis(system.n_spins)
        h = dq_hamiltonian(system, basis)
        symmetry = site_symmetry(system)
        eig = diagonalize(h, symmetry)
        thermal = thermal_state(basis)
        # the graph in the sectors of the site cycle, as the pipeline builds it
        graph = build_transition_graph(secular_dipolar_hamiltonian(system, basis), basis,
                                       symmetry)
        for n in accepted_orders(system.n_spins):
            after = pipeline._after_filter(thermal, eig, basis, graph, n, t, "cyclic")
            oracle = dense_after_filter(thermal, eig, basis, graph, n, t, "cyclic")
            if n % 2:
                # the thermal state has even orders only, and so has every
                # state the double-quantum Hamiltonian makes from it
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

    @pytest.mark.parametrize("jitter", [None, (0, 1)], ids=["momentum", "flip"])
    def test_odd_order_pipeline_converts_nothing(self, tmp_path, jitter):
        system = ring_system(6, 1, jitter)
        assert (site_symmetry(system) is None) == (jitter is not None)
        config = PipelineConfig(system=write_system(tmp_path, system), filter_n=3,
                                t_max=0.5, t_step=0.05)
        with np.errstate(divide="raise", invalid="raise"):
            with pytest.warns(RuntimeWarning, match="grid boundary"):
                report = run_pipeline(config)
        assert report.f_homq == report.f_convert == report.f_overall == 0.0


class TestClosedForms:
    """The pipeline's closed forms against the reads they replace."""

    @settings(max_examples=15, deadline=None)
    @given(st.one_of(random_systems(2, 8), circulant_systems(2, 8)), st.floats(0.05, 2.0))
    @example(ring_system(6, 1), 0.973)
    def test_thermal_and_filtered_stages(self, system, t):
        basis = build_basis(system.n_spins)
        thermal = thermal_state(basis)
        symmetry = site_symmetry(system)
        graph = build_transition_graph(secular_dipolar_hamiltonian(system, basis), basis,
                                       symmetry)
        purity = float(np.sum(basis.m**2))
        # I_z is m on every block of the secular eigenbasis
        assert_close(graph.populations(thermal), graph.m_values, 1.0, "thermal populations")
        assert abs(thermal.purity() - purity) <= 1e-12 * purity
        eig = diagonalize(dq_hamiltonian(system, basis), symmetry)
        _, chi = character(thermal, eig)
        pairs = []
        original = pipeline._reversed

        def reversal(part, filtered, phase):
            pairs.append((part, filtered))
            return original(part, filtered, phase)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "_reversed", reversal)
            for n in accepted_orders(system.n_spins):
                pairs.clear()
                kept = pipeline._after_filter(thermal, eig, basis, graph, n, t, "cyclic").kept
                want = np.zeros(basis.n_spins + 1)
                want[n] = kept
                # the filtered state, made dense from its pairs, is all
                # order n, of intensity its purity
                filtered = DensityMatrix(matrix=filtered_state(eig, pairs, chi))
                assert_close(mq_intensities(filtered, basis), want, purity,
                             f"filtered intensities, order {n}")


class TestRing10Oracle:
    @pytest.mark.parametrize("jitter", [None, (0, 1)], ids=["momentum", "flip"])
    def test_reports_and_outputs_match_a_dense_run(self, tmp_path, monkeypatch, jitter):
        system = ring_system(10, 7, jitter)
        assert (site_symmetry(system) is None) == (jitter is not None)
        path = write_system(tmp_path, system)

        def run(out):
            return run_pipeline(PipelineConfig(system=path, out_dir=str(tmp_path / out), **RING10))

        got = run("sectors")
        monkeypatch.setattr(pipeline, "_after_filter", dense_after_filter)
        want = run("dense")
        assert got.peak_counts == want.peak_counts
        for key in ("t_star", "f_homq", "f_convert", "f_overall", "p_u_drift",
                    "pseudopure_fidelity", "u_peak_gain"):
            assert math.isclose(getattr(got, key), getattr(want, key), rel_tol=1e-12,
                                abs_tol=1e-300), key
        for name in ("sweep.csv", "transitions.csv"):
            assert (tmp_path / "sectors" / name).read_bytes() == \
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
# thermal state held as nonzero elements and every filter order run on the
# sector pairs, ring10's pipeline peaks at 6.2 MiB of traced allocations
# at filter_n 10, 6 and 2 (16.8 and 53.7 MiB at filter_n 6 and 2 when the
# low orders evolved dense states), its thermal sweep command at 2.8 MiB
# and its spectrum at 4.5 MiB.  One coupling one ulp off takes the flip
# sectors, on which the pipeline peaks at 10.5 MiB at every order (18.0
# and 60.6 MiB with dense states) and the thermal sweep at 8.5 MiB.  The
# top-order coherence is two nonzero elements: its sweep peaks at 2.8 MiB
# (34.0 MiB as a dense state).  The bounds are the peaks measured when the
# dense operators went, plus a 5 MiB margin.
@pytest.mark.parametrize("filter_n", [10, 6, 2])
def test_ring10_pipeline_allocates_no_dense_state(tmp_path, filter_n):
    path = write_system(tmp_path, ring_system(10, 7))
    config = PipelineConfig(system=path, filter_n=filter_n, **RING10)
    assert traced_peak(lambda: run_pipeline(config)) < 24 * 2**20


@pytest.mark.parametrize("filter_n", [10, 6, 2])
def test_flip_sector_pipeline_allocates_no_dense_state(tmp_path, filter_n):
    path = write_system(tmp_path, ring_system(10, 7, jitter=(0, 1)))
    config = PipelineConfig(system=path, filter_n=filter_n, **RING10)
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


# The thermal sweeps of the two pipeline workloads on the site cycle, with
# the pipeline's observables and its extra point at t_prep: the chunk
# loop works in buffers made once per sweep or per sector pair, so the
# traced peak stays near what one chunk holds (1.15 MiB for the hexagon
# and 1.44 MiB for ring10 as measured).
@pytest.mark.parametrize("system, grid, t_prep", [
    (hexagon_couplings(), np.arange(0.0, 2.0005, 0.001), 0.973),
    (ring_system(10, 7), np.arange(61) * RING10["t_step"], RING10["t_prep"]),
], ids=["hexagon", "ring10"])
def test_thermal_sweep_peaks_below_2_mib(system, grid, t_prep):
    basis = build_basis(system.n_spins)
    eig = diagonalize(dq_hamiltonian(system, basis), site_symmetry(system))
    assert eig.orbits.order == system.n_spins
    thermal = thermal_state(basis)
    observables = {f"I{k}": mq_intensity_extractor(basis, k) for k in range(system.n_spins + 1)}
    observables["diag_pair"] = diag_pair_extractor(basis)
    assert traced_peak(lambda: sweep(thermal, eig, grid, observables, points=[t_prep])) \
        <= 2 * 2**20


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
