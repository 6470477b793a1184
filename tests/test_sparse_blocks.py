"""Blocks gathered from the Hamiltonians' nonzero elements against the dense oracle.

``diagonalize`` and ``build_transition_graph`` gather every parity,
flip and momentum sector and every m block from a ``SparseOperator``.
Each must be exactly the array that indexing the dense matrix of the old
builders (``dense_operators``) gives, so that ``eigh`` sees identical
input, and the sector choice must be the one the dense exact-equality
checks make.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqpure import (
    Operator,
    SparseOperator,
    build_basis,
    diagonalize,
    dq_hamiltonian,
    hexagon_couplings,
    secular_dipolar_hamiltonian,
    site_symmetry,
    thermal_state,
)
from mqpure.sectors import orbits_of, sector_reader, state_permutation
from mqpure.spin_core import popcounts

from dense_operators import dense, dense_dq_hamiltonian, dense_secular_hamiltonian
from test_hamiltonians import random_systems
from test_symmetry import circulant_systems, ring_system

BUILDERS = ((dq_hamiltonian, dense_dq_hamiltonian),
            (secular_dipolar_hamiltonian, dense_secular_hamiltonian))


@st.composite
def systems(draw):
    """Random couplings (mostly without a site cycle), circulant ones with
    sites relabelled, relabelled rings and rings with one coupling 1 ulp off."""
    kind = draw(st.sampled_from(["random", "circulant", "ring", "ulp"]))
    if kind == "random":
        return draw(random_systems(2, 8))
    if kind == "circulant":
        return draw(circulant_systems(2, 8))
    n = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**16))
    if kind == "ring":
        return ring_system(n, seed)
    i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]))
    return ring_system(n, seed, jitter=(i, j))


def cycle_orbits(symmetry, dim):
    return orbits_of(state_permutation(symmetry, dim))


def dense_decision(matrix, symmetry) -> str:
    """The sector choice from the dense matrix: the parity mask and the
    banded exact compare of ``Operator.invariant``."""
    dim = matrix.shape[0]
    odd = popcounts(np.arange(dim)) & 1 == 1
    parity = odd.any() and not matrix[np.ix_(~odd, odd)].any()
    dense = Operator(matrix=matrix)
    if symmetry is not None and dense.invariant(cycle_orbits(symmetry, dim).shift):
        return "momentum"
    if np.array_equal(odd, odd[::-1]) and dense.invariant(np.arange(dim)[::-1]):
        return "flip"
    return "parity" if parity else "one block"


def decision(eig) -> str:
    """The permutation G behind the sectors: a site cycle, the flip (index
    reversal) or the identity, in one parity block or two."""
    if np.array_equal(eig.orbits.shift, np.arange(eig.dim)[::-1]):
        return "flip"
    if eig.orbits.order > 1:
        return "momentum"
    return "parity" if len(eig.blocks) == 2 else "one block"


def assert_blocks_equal(h, matrix, symmetry, basis):
    """Every sector of every kind, gathered from h, equals the dense gather."""
    dim = basis.dim
    dense = Operator(matrix=matrix)
    odd = popcounts(np.arange(dim)) & 1 == 1
    parities = [np.flatnonzero(~odd), np.flatnonzero(odd)]
    for group in parities + [np.arange(dim)]:
        assert np.array_equal(h.gather(group, group), matrix[np.ix_(group, group)])
    if basis.n_spins % 2 == 0:
        for group in parities:
            states = group[group < dim - 1 - group]
            for cols in (states, dim - 1 - states):
                assert np.array_equal(h.gather(states, cols), matrix[np.ix_(states, cols)])
    if symmetry is not None:
        orbits = cycle_orbits(symmetry, dim)
        for group in parities:
            members = orbits.of[group[orbits.step[group] == 0]]
            gathered, sector = sector_reader(h, orbits, members, members)
            expected, dense_sector = sector_reader(dense, orbits, members, members)
            table = orbits.table
            assert np.array_equal(expected, matrix[table[members, :1, np.newaxis],
                                                   table[members].T[np.newaxis]])
            assert np.array_equal(gathered, expected)
            for k in range(orbits.order):
                if (k * orbits.period[members] % orbits.order == 0).any():
                    assert np.array_equal(sector(k), dense_sector(k))
    for level in basis.levels():
        assert np.array_equal(h.gather(level, level), matrix[np.ix_(level, level)])


@settings(max_examples=40, deadline=None)
@given(systems())
def test_every_block_equals_the_dense_gather(system):
    basis = build_basis(system.n_spins)
    symmetry = site_symmetry(system)
    for build, oracle in BUILDERS:
        h, matrix = build(system, basis), oracle(system, basis)
        # a dense operator turns into the very same nonzeros
        converted = SparseOperator.of(Operator(matrix=matrix))
        for name in ("rows", "cols", "values"):
            assert np.array_equal(getattr(converted, name), getattr(h, name)), name
        assert_blocks_equal(h, matrix, symmetry, basis)
        assert decision(diagonalize(h, symmetry)) == dense_decision(matrix, symmetry)


@pytest.mark.parametrize("n, seed", [(3, 2), (4, 1), (5, 3), (6, 3), (7, 2), (8, 4), (9, 1),
                                     (10, 7)])
def test_secular_hamiltonian_of_a_relabelled_ring_takes_the_momentum_sectors(n, seed):
    # its diagonal is summed per coupling value, in an order that the
    # relabelling cannot change, so it is exactly invariant under the
    # found cycle, as its dense matrix is
    system = ring_system(n, seed)
    basis = build_basis(n)
    symmetry = site_symmetry(system)
    secular = secular_dipolar_hamiltonian(system, basis)
    assert secular.invariant(cycle_orbits(symmetry, basis.dim).shift)
    for build in (dq_hamiltonian, secular_dipolar_hamiltonian):
        assert decision(diagonalize(build(system, basis), symmetry)) == "momentum"
    assert dense_decision(dense_secular_hamiltonian(system, basis), symmetry) == "momentum"


def test_secular_hamiltonian_of_the_hexagon_is_invariant_under_its_cycle():
    system = hexagon_couplings()
    basis = build_basis(6)
    shift = cycle_orbits(site_symmetry(system), basis.dim).shift
    assert secular_dipolar_hamiltonian(system, basis).invariant(shift)


def test_gather_over_short_orbits_writes_every_place_once():
    # on a 10-ring the orbits of period 1, 2 and 5 list their states 10, 5
    # and 2 times in the (r, L, r) gather of the momentum sectors
    system = ring_system(10, 7)
    basis = build_basis(10)
    orbits = cycle_orbits(site_symmetry(system), basis.dim)
    assert set(orbits.period) == {1, 2, 5, 10}
    rows, cols = orbits.table[:, 0], orbits.table.T
    for op in (dq_hamiltonian(system, basis), thermal_state(basis)):
        got = op.gather(rows, cols)
        assert np.array_equal(got, Operator(matrix=dense(op)).gather(rows, cols))
        # no copy of the result is made on top of it
        tracemalloc.start()
        try:
            op.gather(rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * got.nbytes
