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
from mqpure.spin_core import ADJOINT_TILE, HERMITICITY_RTOL

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


class TestStates:
    def test_thermal_two_spins(self):
        rho = thermal_state(build_basis(2))
        assert np.allclose(rho.matrix, np.diag([-1.0, 0.0, 0.0, 1.0]))

    def test_thermal_traceless_and_purity(self):
        rho = thermal_state(build_basis(6))
        assert abs(np.trace(rho.matrix)) < 1e-12
        assert rho.purity() == pytest.approx(96.0, abs=1e-12)

    def test_homq_state_structure(self):
        basis = build_basis(6)
        rho = homq_coherence_state(basis)
        assert abs(np.trace(rho.matrix)) == 0.0
        assert rho.purity() == pytest.approx(2.0, abs=1e-14)
        assert rho.matrix[63, 0] == 1j
        assert rho.matrix[0, 63] == -1j
        assert basis.coherence_orders()[63, 0] == 6

    def test_homq_state_two_spins(self):
        rho = homq_coherence_state(build_basis(2))
        nonzero = np.argwhere(rho.matrix != 0)
        assert sorted(map(tuple, nonzero)) == [(0, 3), (3, 0)]


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
        rho = thermal_state(build_basis(2))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0


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
