import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqpure import (
    SpinSystem,
    build_basis,
    thermal_state,
    decompose,
    diagonalize,
    dq_hamiltonian,
    evolve,
    hexagon_couplings,
    homq_excitable,
    load_couplings,
    negated,
    secular_dipolar_hamiltonian,
)
from mqpure.hamiltonians import HEXAGON_RATIOS

from dense_eigen import dense_eigen
from dense_operators import dense, dense_dq_hamiltonian, dense_secular_hamiltonian, dense_state
from kron_oracle import collective_op, single_spin_op


def brute_force_dq(system, basis):
    """Independent double-quantum builder: explicit bit enumeration.

    For each basis state and each pair, flip both spins when they agree,
    accumulating -D_ij/2; no operator products involved.
    """
    dim = basis.dim
    h = np.zeros((dim, dim))
    for state in range(dim):
        for i in range(system.n_spins):
            for j in range(i + 1, system.n_spins):
                bits = (1 << i) | (1 << j)
                both_down = not state & (1 << i) and not state & (1 << j)
                both_up = bool(state & (1 << i)) and bool(state & (1 << j))
                if both_down or both_up:
                    h[state ^ bits, state] -= 0.5 * system.couplings[i, j]
    return h


def kron_dq(system, basis):
    """Double-quantum Hamiltonian from kron-embedded single-spin operators."""
    plus = [single_spin_op(basis, i, "+").matrix for i in range(system.n_spins)]
    minus = [single_spin_op(basis, i, "-").matrix for i in range(system.n_spins)]
    h = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i in range(system.n_spins):
        for j in range(i + 1, system.n_spins):
            if system.couplings[i, j] == 0.0:
                continue
            h -= 0.5 * system.couplings[i, j] * (plus[i] @ plus[j] + minus[i] @ minus[j])
    return h


def kron_secular(system, basis):
    """Secular dipolar Hamiltonian from kron-embedded single-spin operators,
    the pairs of each distinct coupling summed first, the couplings ascending."""
    z = [single_spin_op(basis, i, "z").matrix for i in range(system.n_spins)]
    plus = [single_spin_op(basis, i, "+").matrix for i in range(system.n_spins)]
    minus = [single_spin_op(basis, i, "-").matrix for i in range(system.n_spins)]
    terms = {}
    for i in range(system.n_spins):
        for j in range(i + 1, system.n_spins):
            if system.couplings[i, j] == 0.0:
                continue
            flip_flop = plus[i] @ minus[j] + minus[i] @ plus[j]
            term = terms.setdefault(system.couplings[i, j], np.zeros_like(flip_flop))
            term += 2.0 * z[i] @ z[j] - 0.5 * flip_flop
    h = np.zeros((basis.dim, basis.dim), dtype=complex)
    for coupling in sorted(terms):
        h += coupling * terms[coupling]
    return h


@st.composite
def random_systems(draw, min_spins=2, max_spins=7):
    """Spin systems with random pair couplings, zeros included."""
    n = draw(st.integers(min_spins, max_spins))
    values = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_subnormal=False)),
        min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2,
    ))
    couplings = np.zeros((n, n))
    couplings[np.triu_indices(n, 1)] = values
    return SpinSystem(n_spins=n, couplings=couplings + couplings.T)


class TestKronOracle:
    @settings(max_examples=25, deadline=None)
    @given(random_systems())
    def test_dq_equals_kron_build_exactly(self, system):
        basis = build_basis(system.n_spins)
        h = dense(dq_hamiltonian(system, basis))
        assert h.dtype == np.float64
        assert np.abs(h - kron_dq(system, basis)).max() == 0.0

    @settings(max_examples=25, deadline=None)
    @given(random_systems())
    def test_secular_equals_kron_build_exactly(self, system):
        basis = build_basis(system.n_spins)
        h = dense(secular_dipolar_hamiltonian(system, basis))
        assert h.dtype == np.float64
        assert np.abs(h - kron_secular(system, basis)).max() == 0.0

    @settings(max_examples=25, deadline=None)
    @given(random_systems())
    def test_nonzeros_are_the_dense_builds(self, system):
        basis = build_basis(system.n_spins)
        for build, oracle in ((dq_hamiltonian, dense_dq_hamiltonian),
                              (secular_dipolar_hamiltonian, dense_secular_hamiltonian)):
            h = build(system, basis)
            expected = oracle(system, basis)
            assert np.array_equal(dense(h), expected)
            assert h.values.size == np.count_nonzero(expected)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_thermal_state_is_collective_iz(self, n):
        basis = build_basis(n)
        rho = dense(thermal_state(basis))
        assert rho.dtype == np.float64
        assert np.abs(rho - collective_op(basis, "z").matrix).max() == 0.0


class TestHexagon:
    def test_ratio_values(self):
        system = hexagon_couplings(1.0)
        assert system.couplings[0, 2] == pytest.approx(0.19245009, abs=1e-8)
        assert system.couplings[0, 2] == pytest.approx(1.0 / (3.0 * np.sqrt(3.0)), abs=0)
        assert system.couplings[0, 3] == 0.125

    def test_every_row_has_ring_pattern(self):
        system = hexagon_couplings(1.0)
        expected = sorted([1.0, 1.0, HEXAGON_RATIOS[2], HEXAGON_RATIOS[2], 0.125])
        for i in range(6):
            row = sorted(np.delete(system.couplings[i], i))
            assert np.allclose(row, expected)
        assert np.allclose(system.couplings, system.couplings.T)
        assert np.abs(np.diag(system.couplings)).max() == 0.0

    def test_linearity_in_d12(self):
        assert np.allclose(
            hexagon_couplings(2.0).couplings, 2.0 * hexagon_couplings(1.0).couplings
        )

    def test_rejects_nonpositive_d12(self):
        with pytest.raises(ValueError):
            hexagon_couplings(0.0)
        with pytest.raises(ValueError):
            hexagon_couplings(-1.0)
        # NaN and inf name d12, not the couplings they would make
        for d12 in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="d12 must be positive and finite"):
                hexagon_couplings(d12)


class TestDQHamiltonian:
    def test_two_spin_matrix(self):
        basis = build_basis(2)
        system = SpinSystem(n_spins=2, couplings=np.array([[0.0, 1.0], [1.0, 0.0]]))
        h = dense(dq_hamiltonian(system, basis))
        expected = np.zeros((4, 4))
        expected[3, 0] = expected[0, 3] = -0.5
        assert np.allclose(h, expected, atol=1e-15)

    def test_connects_only_delta_m_two(self, hexagon_system, basis6, h_av6):
        orders = basis6.coherence_orders()
        off_sector = np.abs(orders) != 2
        assert np.abs(dense(h_av6)[off_sector]).max() == 0.0

    def test_matches_brute_force_enumeration(self, hexagon_system, basis6, h_av6):
        oracle = brute_force_dq(hexagon_system, basis6)
        assert abs(np.linalg.norm(oracle) - np.linalg.norm(dense(h_av6))) < 1e-12
        assert np.abs(oracle - dense(h_av6)).max() < 1e-12

    def test_real_in_zeeman_basis(self, h_av6):
        assert np.abs(dense(h_av6).imag).max() < 1e-14

    def test_dimension_mismatch(self, hexagon_system):
        with pytest.raises(ValueError):
            dq_hamiltonian(hexagon_system, build_basis(4))


class TestNegated:
    def test_exact_negation(self, h_av6):
        assert np.abs(dense(h_av6) + dense(negated(h_av6))).max() == 0.0

    def test_eigenvalues_negate(self, h_av6):
        forward, _ = dense_eigen(diagonalize(h_av6).blocks)
        backward, _ = dense_eigen(diagonalize(negated(h_av6)).blocks)
        assert np.allclose(np.sort(-forward), backward, atol=1e-12)

    def test_undoes_evolution(self, basis6, h_av6, thermal6):
        there = evolve(thermal6, h_av6, 0.37)
        back = evolve(there, negated(h_av6), 0.37)
        assert np.abs(back.matrix - dense(thermal6)).max() < 1e-10


class TestSecularDipolar:
    def test_two_spin_hand_checkable_matrix(self):
        basis = build_basis(2)
        system = SpinSystem(n_spins=2, couplings=np.array([[0.0, 1.0], [1.0, 0.0]]))
        h = dense(secular_dipolar_hamiltonian(system, basis))
        # 2 Iz Iz gives diag(1/2, -1/2, -1/2, 1/2); the flip-flop couples
        # the two m=0 states with -1/2
        oracle = np.array(
            [
                [0.5, 0.0, 0.0, 0.0],
                [0.0, -0.5, -0.5, 0.0],
                [0.0, -0.5, -0.5, 0.0],
                [0.0, 0.0, 0.0, 0.5],
            ]
        )
        assert np.allclose(h, oracle, atol=1e-15)
        assert np.allclose(np.linalg.eigvalsh(oracle), [-1.0, 0.0, 0.5, 0.5])

    def test_commutes_with_iz(self, hexagon_system, basis6):
        h = dense(secular_dipolar_hamiltonian(hexagon_system, basis6))
        iz = collective_op(basis6, "z").matrix
        assert np.abs(h @ iz - iz @ h).max() < 1e-14

    def test_spectrum_symmetric_under_m_inversion(self, hexagon_system, basis6):
        h = dense(secular_dipolar_hamiltonian(hexagon_system, basis6))
        for m in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            plus = np.where(basis6.m == m)[0]
            minus = np.where(basis6.m == -m)[0]
            eig_plus = np.linalg.eigvalsh(h[np.ix_(plus, plus)])
            eig_minus = np.linalg.eigvalsh(h[np.ix_(minus, minus)])
            assert np.allclose(eig_plus, eig_minus, atol=1e-12)

    def test_only_order_zero(self, hexagon_system, basis6):
        h = secular_dipolar_hamiltonian(hexagon_system, basis6)
        dec = decompose(dense_state(h), basis6)
        for n in range(1, 7):
            assert np.abs(dec[n]).max() == 0.0
            assert np.abs(dec[-n]).max() == 0.0


class TestDQOrderContent:
    def test_only_plus_minus_two(self, basis6, h_av6):
        dec = decompose(dense_state(h_av6), basis6)
        reassembled = dec[2] + dec[-2]
        assert np.abs(reassembled - dense(h_av6)).max() == 0.0


class TestHOMQExcitable:
    @pytest.mark.parametrize("n,expected", [(2, True), (4, False), (6, True),
                                            (8, False), (10, True)])
    def test_rule(self, n, expected):
        assert homq_excitable(n) is expected

    def test_rejects_tiny_clusters(self):
        with pytest.raises(ValueError):
            homq_excitable(1)


class TestCouplingFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "couplings.txt"
        path.write_text("# three-spin chain\n3\n0 1.0 0\n1.0 0 0.5\n0 0.5 0\n")
        system = load_couplings(path)
        assert system.n_spins == 3
        assert system.couplings[1, 2] == 0.5

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1\n")
        with pytest.raises(ValueError):
            load_couplings(path)

    @pytest.mark.parametrize("text, message", [
        ("2.0\n0 1\n1 0\n", "spin count '2.0' is not a positive integer"),
        ("-1\n0 1\n1 0\n", "spin count '-1' is not a positive integer"),
        ("abc\n0 1\n1 0\n", "spin count 'abc' is not a positive integer"),
        ("2\n0 x\n1 0\n", "matrix entry 'x' is not a number"),
    ], ids=["float-count", "negative-count", "word-count", "word-entry"])
    def test_malformed_token_is_named(self, tmp_path, text, message):
        # numpy's and int()'s own words once reached the command line
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as raised:
            load_couplings(path)
        assert str(raised.value) == f"{path}: {message}"

    # the Hamiltonians read only the upper triangle, so a lower one that
    # differs by more than roundoff, even relatively little, is refused
    @pytest.mark.parametrize("text", [
        "2\n0 1\n2 0\n",
        "4\n0 1 0 0\n1.000009 0 1 0\n0 1 0 1\n0 0 1 0\n",
        "2\n0 1e-20\n5e-20 0\n",
    ], ids=["swapped", "relative-9e-6", "tiny"])
    def test_asymmetric_rejected(self, tmp_path, text):
        path = tmp_path / "asym.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="symmetric"):
            load_couplings(path)
