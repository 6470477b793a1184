import math
import warnings

import numpy as np
import pytest

from mqpure import (
    DensityMatrix,
    Operator,
    SpinSystem,
    build_basis,
    homq_coherence_state,
    thermal_state,
)
from mqpure.spin_core import SparseOperator, popcounts
from mqpure.spin_core import ADJOINT_TILE, HERMITICITY_RTOL

from dense_operators import dense, dense_state
from kron_oracle import collective_op, single_spin_op


def norm_rule(mat):
    """The Hermiticity decision from the scaled norms alone."""
    peak = np.abs(mat).max(initial=0.0)
    unit = mat / peak if peak > 1e100 or 0 < peak < 1e-100 else mat
    return not np.linalg.norm(unit - unit.conj().T) > HERMITICITY_RTOL * np.linalg.norm(unit)


def tiled(where=None, change=0.0):
    """A Hermitian matrix over several adjoint tiles, with ``change`` added
    at the single element ``where``."""
    rng = np.random.default_rng(9)
    dim = 3 * ADJOINT_TILE + 5
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = raw + raw.conj().T
    if where is not None:
        mat[where] += change
    return mat


def accepted(mat):
    try:
        Operator(matrix=mat)
    except ValueError:
        return False
    return True


class TestBasis:
    def test_two_spin_m_table(self):
        basis = build_basis(2)
        assert np.allclose(basis.m, [-1.0, 0.0, 0.0, 1.0])

    def test_m_block_sizes_are_binomial(self):
        basis = build_basis(6)
        assert np.sum(basis.m == 0.0) == 20
        for m, expected in [(-3, 1), (-2, 6), (-1, 15), (1, 15), (2, 6), (3, 1)]:
            assert np.sum(basis.m == m) == expected

    def test_extreme_state_indices(self):
        basis = build_basis(6)
        assert basis.index_all_up == 63
        assert basis.index_all_down == 0
        assert basis.index_all_up != basis.index_all_down

    def test_single_spin_basis_allowed(self):
        basis = build_basis(1)
        assert np.allclose(basis.m, [-0.5, 0.5])

    @pytest.mark.parametrize("n", [0, -1, 13])
    def test_size_out_of_range(self, n):
        with pytest.raises(ValueError):
            build_basis(n)

    def test_popcounts_count_every_set_bit(self):
        states = np.arange(2**12)
        counts = popcounts(states)
        assert counts.dtype == np.int64
        assert counts.tolist() == [bin(s).count("1") for s in states.tolist()]
        # callers subtract counts
        assert (popcounts([0]) - popcounts([7])).tolist() == [-3]

    def test_coherence_orders(self):
        basis = build_basis(2)
        orders = basis.coherence_orders()
        assert orders[3, 0] == 2
        assert orders[0, 3] == -2
        assert orders.dtype.kind == "i"


class TestSingleSpinOps:
    def test_z_eigenvalues_single_spin(self):
        basis = build_basis(1)
        op = single_spin_op(basis, 0, "z")
        assert np.allclose(np.diag(op.matrix), [-0.5, 0.5])

    def test_plus_flips_down_to_up(self):
        basis = build_basis(2)
        op = single_spin_op(basis, 0, "+")
        # |dd> is index 0; flipping site 0 up gives index 1 with amplitude 1
        column = op.matrix[:, 0]
        assert column[1] == 1.0
        assert np.count_nonzero(column) == 1

    def test_su2_commutator(self):
        basis = build_basis(2)
        z = single_spin_op(basis, 0, "z").matrix
        plus = single_spin_op(basis, 0, "+").matrix
        assert np.allclose(z @ plus - plus @ z, plus, atol=1e-15)

    def test_different_sites_commute(self):
        basis = build_basis(3)
        kinds = ["x", "y", "z", "+", "-"]
        for ka in kinds:
            for kb in kinds:
                a = single_spin_op(basis, 0, ka).matrix
                b = single_spin_op(basis, 2, kb).matrix
                assert np.abs(a @ b - b @ a).max() < 1e-15

    def test_site_out_of_range(self):
        basis = build_basis(2)
        with pytest.raises(ValueError):
            single_spin_op(basis, 2, "z")

    def test_unknown_kind(self):
        basis = build_basis(2)
        with pytest.raises(ValueError):
            single_spin_op(basis, 0, "q")


class TestCollectiveOps:
    def test_iz_purity_six_spins(self):
        basis = build_basis(6)
        iz = collective_op(basis, "z").matrix
        assert np.trace(iz @ iz).real == pytest.approx(96.0, abs=1e-12)

    def test_raising_from_all_down(self):
        basis = build_basis(6)
        column = collective_op(basis, "+").matrix[:, 0]
        flips = [1 << i for i in range(6)]
        assert np.allclose(column[flips], 1.0)
        assert np.count_nonzero(column) == 6

    def test_two_spin_iz_diagonal(self):
        basis = build_basis(2)
        iz = collective_op(basis, "z").matrix
        assert np.allclose(np.diag(iz), [-1.0, 0.0, 0.0, 1.0])
        assert np.abs(iz - np.diag(np.diag(iz))).max() == 0.0

    def test_iz_block_diagonal_in_m(self):
        # no elements between different-m states
        basis = build_basis(4)
        iz = collective_op(basis, "z").matrix
        different = np.subtract.outer(basis.m, basis.m) != 0
        assert np.abs(iz[different]).max() == 0.0


class TestPurity:
    @pytest.mark.parametrize("complex_state", [False, True])
    @pytest.mark.parametrize("dim", [1, 4, 64])
    def test_matches_fsum_of_squares(self, complex_state, dim):
        rng = np.random.default_rng(dim + complex_state)
        raw = rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-3, 3, (dim, dim))
        if complex_state:
            raw = raw + 1j * rng.standard_normal((dim, dim))
        rho = DensityMatrix(matrix=raw + raw.conj().T)
        parts = [rho.matrix.real.ravel(), rho.matrix.imag.ravel()]
        exact = math.fsum(float(x) ** 2 for part in parts for x in part)
        assert rho.purity() == pytest.approx(exact, rel=1e-14, abs=0.0)


class TestStates:
    def test_thermal_two_spins(self):
        rho = thermal_state(build_basis(2))
        assert np.array_equal(dense(rho), np.diag([-1.0, 0.0, 0.0, 1.0]))
        # held as its diagonal, without the zeros of m = 0
        assert rho.rows.tolist() == rho.cols.tolist() == [0, 3]

    def test_thermal_traceless_and_purity(self):
        rho = thermal_state(build_basis(6))
        assert abs(np.trace(dense(rho))) < 1e-12
        assert rho.purity() == pytest.approx(96.0, abs=1e-12)

    def test_homq_state_structure(self):
        basis = build_basis(6)
        rho = homq_coherence_state(basis)
        assert abs(np.trace(dense(rho))) == 0.0
        assert rho.purity() == pytest.approx(2.0, abs=1e-14)
        assert dense(rho)[63, 0] == 1j
        assert dense(rho)[0, 63] == -1j
        assert basis.coherence_orders()[63, 0] == 6

    def test_homq_state_two_spins(self):
        rho = homq_coherence_state(build_basis(2))
        nonzero = np.argwhere(dense(rho) != 0)
        assert sorted(map(tuple, nonzero)) == [(0, 3), (3, 0)]


class TestCouplingDiagonal:
    # the Hamiltonians read only i < j, so a diagonal is dropped; it must be
    # zero to 1e-12 of the largest off-diagonal coupling, however small
    @pytest.mark.parametrize("couplings", [
        [[1.0, 1.0], [1.0, 0.0]],
        [[5e-13, 1e-15], [1e-15, 0.0]],
        [[0.0, 0.0], [0.0, 1e-300]],
    ], ids=["one", "hundreds-of-times-the-couplings", "no-couplings"])
    def test_diagonal_refused(self, couplings):
        with pytest.raises(ValueError, match="zero diagonal"):
            SpinSystem(2, np.array(couplings))

    @pytest.mark.parametrize("couplings", [
        [[0.0, 1e-15], [1e-15, 0.0]],
        [[1e-28, 1e-15], [1e-15, -1e-28]],
        [[0.0, 0.0], [0.0, 0.0]],
    ], ids=["zero", "within-1e-12", "zero-couplings"])
    def test_diagonal_accepted(self, couplings):
        assert np.array_equal(SpinSystem(2, np.array(couplings)).couplings, couplings)


class TestContainers:
    def test_hermitian_flag_validated(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            Operator(matrix=bad, hermitian=True)
        Operator(matrix=bad, hermitian=False)  # fine unflagged

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e308, 1e-200, 1e-300])
    def test_hermiticity_check_does_not_overflow(self, scale):
        # nor underflow: squared entries below about 1e-154 would flush to 0
        hermitian = scale * np.array([[0.0, 1.0 + 0.5j], [1.0 - 0.5j, 0.75]])
        skewed = scale * np.array([[0.0, 1.0], [0.9, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow on finite entries
            Operator(matrix=hermitian)
            with pytest.raises(ValueError):
                Operator(matrix=skewed)

    @pytest.mark.parametrize("factor, inside", [(0.99, True), (1.01, False)])
    def test_hermiticity_tolerance_boundary(self, factor, inside):
        # H + cA with H Hermitian and A anti-Hermitian: the residual is 2c|A|,
        # and |H + cA| exceeds |H| by a relative 1e-25 only.  A is dense, or
        # (over several tiles) lives in one tile far off the diagonal, above
        # or below it, plus that tile's mirror
        rng = np.random.default_rng(4)
        tile = slice(0, ADJOINT_TILE), slice(2 * ADJOINT_TILE, 3 * ADJOINT_TILE)
        for dim, where in [(8, None), (3 * ADJOINT_TILE + 5, tile), (3 * ADJOINT_TILE + 5,
                                                                      tile[::-1])]:
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            skew = raw
            if where is not None:
                skew = np.zeros_like(raw)
                skew[where] = raw[where]
            herm, anti = raw + raw.conj().T, skew - skew.conj().T
            c = factor * HERMITICITY_RTOL * np.linalg.norm(herm) / (2 * np.linalg.norm(anti))
            assert accepted(herm + c * anti) == inside, (dim, where)

    @pytest.mark.parametrize("mat", [
        np.array([[1.0, 2.0], [2.0, -1.0]]),
        np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 0.0]]),
        np.array([[0.0, -0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, 1.0 + 1e-14j]]),
        np.array([[np.nan, 1.0], [1.0, 0.0]]),
        np.array([[0.0, np.nan], [1.0, 0.0]]),
        np.array([[np.inf, 1.0], [1.0, -np.inf]]),
        np.array([[0.0, np.inf], [1.0, 0.0]]),
        1e300 * np.array([[1.0, 0.5], [0.5, 1.0]]),
        1e150 * np.array([[0.0, 1.0], [0.9, 0.0]]),
        1e-300 * np.array([[1.0, 0.5j], [-0.5j, 1.0]]),
        1e-300 * np.array([[0.0, 1.0], [0.9, 0.0]]),
        tiled(),
        tiled((3, 2 * ADJOINT_TILE + 7), 1e-3),
        tiled((2 * ADJOINT_TILE + 7, 3), 1e-3),
        tiled((3, 2 * ADJOINT_TILE + 7), 1e-15j),
        tiled((2 * ADJOINT_TILE + 7, 3), 1e-15j),
        tiled((3 * ADJOINT_TILE + 1, 3 * ADJOINT_TILE + 1), np.nan),
    ], ids=["real", "complex", "signed-zero", "tiny-skew", "nan-diagonal", "nan-corner",
            "inf", "inf-corner", "1e300", "1e150-skewed", "1e-300", "1e-300-skewed",
            "tiles", "tiles-upper-skew", "tiles-lower-skew", "tiles-upper-tiny",
            "tiles-lower-tiny", "tiles-nan-last"])
    def test_exact_adjoint_shortcut_keeps_every_decision(self, mat):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # inf / inf in the norm rule
            assert accepted(mat) == norm_rule(mat)

    def test_density_matrix_must_be_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_traceless_indefinite_deviation_state_accepted(self):
        rho = DensityMatrix(matrix=np.diag([1.5, -0.5, -1.0]))
        assert np.trace(rho.matrix) == 0.0
        assert np.linalg.eigvalsh(rho.matrix).min() < 0

    def test_matrices_are_frozen(self):
        rho = dense_state(homq_coherence_state(build_basis(2)))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0
        thermal = thermal_state(build_basis(2))
        for array in (thermal.rows, thermal.cols, thermal.values):
            with pytest.raises(ValueError):
                array[0] = 1


def random_sparse(rng, dim, count):
    """A real symmetric SparseOperator with about ``count`` nonzero elements."""
    lower = np.zeros((dim, dim))
    lower[rng.integers(0, dim, count), rng.integers(0, dim, count)] = rng.integers(-3, 4, count) / 2
    lower = np.tril(lower)
    return SparseOperator.of(Operator(matrix=lower + np.tril(lower, -1).T))


class TestSparseOperator:
    def test_sorted_without_zeros(self):
        op = SparseOperator(3, [2, 0, 1, 0, 1], [0, 2, 1, 1, 0], [5.0, 5.0, 0.0, 1j, -1j])
        assert op.rows.tolist() == [0, 0, 1, 2]
        assert op.cols.tolist() == [1, 2, 0, 0]
        assert op.values.dtype == np.complex128
        assert np.array_equal(dense(op), [[0, 1j, 5], [-1j, 0, 0], [5, 0, 0]])

    @pytest.mark.parametrize("rows, cols, values, message", [
        ([0, 1], [1, 0], [1.0, 2.0], "not hermitian"),
        ([0, 1], [1, 0], [1j, 1j], "not hermitian"),
        ([0], [1], [1.0], "not hermitian"),
        ([0, 0], [0, 0], [1.0, 1.0], "listed twice"),
        ([0, 2], [2, 0], [1.0, 1.0], "out of range"),
        ([0, -1], [-1, 0], [1.0, 1.0], "out of range"),
        ([0, 1], [1], [1.0, 1.0], "one length"),
    ])
    def test_rejects(self, rows, cols, values, message):
        with pytest.raises(ValueError, match=message):
            SparseOperator(2, rows, cols, values)

    def test_nan_element_is_its_own_mirror(self):
        # as for a dense Operator, a NaN does not fail the hermiticity check
        op = SparseOperator(2, [0, 1], [1, 0], [np.nan, np.nan])
        assert np.isnan(op.values).all()
        assert not op.invariant(np.arange(2))

    def test_of_mirrors_the_lower_triangle(self):
        mat = np.array([[1.0 + 1e-14j, 2.0, 0.0], [2.0 + 1e-14j, 0.0, 3.0], [0.0, 3.0, 0.0]])
        op = SparseOperator.of(Operator(matrix=mat))
        expected = np.array([[1.0, 2.0 - 1e-14j, 0.0], [2.0 + 1e-14j, 0.0, 3.0],
                             [0.0, 3.0, 0.0]])
        assert np.array_equal(dense(op), expected)
        assert SparseOperator.of(op) is op

    def test_gather_matches_dense_indexing(self):
        rng = np.random.default_rng(5)
        op = random_sparse(rng, 16, 40)
        full = dense(op)
        rows = rng.permutation(16)[:7]
        # columns with repeated states, as the momentum gathers list them
        cols = rng.integers(0, 16, (3, 5))
        got = op.gather(rows, cols)
        assert got.shape == (7, 3, 5)
        assert np.array_equal(got, full[rows[:, None, None], cols])
        assert np.array_equal(op.gather(rows, rows), full[np.ix_(rows, rows)])
        assert np.array_equal(Operator(matrix=full).gather(rows, cols), got)

    def test_invariance_matches_the_dense_compare(self):
        rng = np.random.default_rng(6)
        op = random_sparse(rng, 12, 30)
        full = dense(op)
        perm = rng.permutation(12)
        mirrored = np.arange(12)[::-1]
        symmetric = SparseOperator.of(Operator(matrix=full + full[np.ix_(mirrored, mirrored)]))
        for candidate in (op, symmetric):
            matrix = dense(candidate)
            for p in (perm, mirrored, np.arange(12)):
                expected = np.array_equal(matrix[np.ix_(p, p)], matrix)
                assert candidate.invariant(p) == expected
                assert Operator(matrix=matrix).invariant(p) == expected
        assert symmetric.invariant(mirrored)

    def test_purity(self):
        op = SparseOperator(2, [0, 1, 0], [1, 0, 0], [1j, -1j, 2.0])
        assert op.purity() == 6.0


class TestSpinSystem:
    def test_validation(self):
        good = np.array([[0.0, 1.0], [1.0, 0.0]])
        SpinSystem(n_spins=2, couplings=good)
        with pytest.raises(ValueError):
            SpinSystem(n_spins=1, couplings=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            SpinSystem(n_spins=2, couplings=np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            SpinSystem(n_spins=2, couplings=np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            SpinSystem(n_spins=3, couplings=good)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_couplings_named_as_such(self, bad):
        couplings = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            SpinSystem(n_spins=2, couplings=couplings)
