"""Sparse matrices, the verified direct solvers, and the scheme-pair bundle."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutoffpde.anisotropic import AnisotropicSpec, assemble
from cutoffpde.grids import Field, Grid2D
from cutoffpde.linalg import (
    BANDED_BANDWIDTH_MAX,
    STALE_SWEEPS_MAX,
    Factorization,
    SolveError,
    SparseMatrix,
    SparseOperator,
    default_tolerance,
    identity_plus,
)
from cutoffpde.linalg import _diagonal_leads_columns
from cutoffpde.lubrication import LubricationSpec, assemble_lubrication_1d, assemble_lubrication_2d
from cutoffpde.stepping import SDIRK3_GAMMA


def tridiag(n, lo, di, up):
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(di)
        if i > 0:
            rows.append(i)
            cols.append(i - 1)
            vals.append(lo)
        if i < n - 1:
            rows.append(i)
            cols.append(i + 1)
            vals.append(up)
    return SparseMatrix.from_coo(n, rows, cols, vals)


class TestSparseMatrix:
    def test_from_coo_sums_duplicates(self):
        a = SparseMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, -1.0])
        assert np.array_equal(a.to_dense(), [[0.0, 5.0], [-1.0, 0.0]])
        assert a.nnz == 2

    def test_from_coo_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix.from_coo(2, [0], [2], [1.0])
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix.from_coo(2, [-1], [0], [1.0])

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            SparseMatrix(np.zeros((2, 3)))

    def test_explicit_zeros_dropped(self):
        a = SparseMatrix.from_coo(2, [0, 1], [0, 1], [1.0, 0.0])
        assert a.nnz == 1

    def test_matvec(self):
        a = SparseMatrix(np.array([[1.0, -2.0], [3.0, 4.0]]))
        assert np.array_equal(a.matvec(np.array([1.0, 1.0])), [-1.0, 7.0])

    def test_matvec_shape_checked(self):
        a = SparseMatrix(sp.identity(3))
        with pytest.raises(ValueError, match="matvec operand"):
            a.matvec(np.zeros(4))

    def test_operator_norm_inf(self):
        a = SparseMatrix(np.array([[1.0, -2.0], [3.0, 4.0]]))
        assert a.operator_norm_inf() == 7.0
        assert SparseMatrix.from_coo(4, [], [], []).operator_norm_inf() == 0.0

    def test_bandwidth(self):
        assert tridiag(6, 1.0, 4.0, 1.0).bandwidth() == (1, 1)
        lower = SparseMatrix.from_coo(5, [3, 0], [0, 0], [1.0, 1.0])
        assert lower.bandwidth() == (3, 0)
        assert SparseMatrix.from_coo(4, [], [], []).bandwidth() == (0, 0)

    def test_norm_and_bandwidth_read_the_stored_pattern(self):
        # both come straight from indptr/indices; the row sums keep the
        # order of a product with a ones vector, so the norm is the same float
        rng = np.random.default_rng(11)
        dense = rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.4)
        dense[4] = 0.0
        a = SparseMatrix(dense)
        assert a.operator_norm_inf() == float(np.max(np.abs(a.csr).sum(axis=1)))
        coo = a.csr.tocoo()
        d = coo.row - coo.col
        assert a.bandwidth() == (int(max(d.max(), 0)), int(max(-d.min(), 0)))
        assert np.array_equal(a.entry_rows(), coo.row)

    def test_identity_plus(self):
        a = SparseMatrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
        got = identity_plus(a, -0.5).to_dense()
        assert np.array_equal(got, [[1.0, -1.0], [-0.5, 1.0]])

    def test_identity_plus_is_canonical_as_built(self):
        # rows without a diagonal entry, a zero row, and a diagonal that
        # cancels to an exact zero: the shifted matrix must equal its own
        # re-canonicalized copy bit for bit
        dense = np.array([
            [2.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [3.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 5.0, 4.0],
        ])
        shifted = identity_plus(SparseMatrix(dense), -0.5)
        assert shifted.csr.has_canonical_format
        again = SparseMatrix(shifted.csr)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(shifted, part), getattr(again, part))
        assert np.array_equal(shifted.to_dense(), np.eye(4) - 0.5 * dense)
        assert shifted.nnz == 7  # the zero at (0, 0) is not stored


def reference_identity_plus(a, scale):
    """I + scale*A by scipy's checked sum, the oracle for identity_plus."""
    return sp.identity(a.dimension, format="csr") + float(scale) * a.csr


def assert_same_csr(got, want):
    for part in ("indptr", "indices", "data"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.dtype == w.dtype, part
        assert np.array_equal(g, w), part


class TestIdentityPlusMatchesScipy:
    """identity_plus forms I + s*A on the CSR arrays; it must equal scipy's
    sorted merge bit for bit, values and index dtypes."""

    SCALES = (-0.5, -1e-6, 2.0, 0.0, 1e-320)

    def check(self, a):
        for scale in self.SCALES:
            assert_same_csr(identity_plus(a, scale).csr, reference_identity_plus(a, scale))

    def test_film_operators_with_dry_rows(self):
        rng = np.random.default_rng(8)
        cases = (
            (LubricationSpec.default_1d(60), assemble_lubrication_1d, (61,)),
            (LubricationSpec.default_2d(10), assemble_lubrication_2d, (11, 11)),
        )
        for spec, assemble_film, shape in cases:
            for _ in range(10):
                u = spec.initial_field().values * rng.random(spec.grid.node_count)
                u[rng.random(u.size) < 0.3] = 0.0
                u.reshape(shape)[tuple(slice(3, 8) for _ in shape)] = 0.0
                a = assemble_film(Field(spec.grid, u), spec)
                # nodes inside a dry stretch have empty rows, so no diagonal
                assert a.nnz > 0 and np.any(np.diff(a.indptr) == 0)
                self.check(a)

    def test_dirichlet_rows(self):
        l_matrix = assemble(AnisotropicSpec.pure_diffusion(Grid2D.square(0.0, 1.0, 8))).l_matrix
        assert np.any(np.diff(l_matrix.indptr) == 0)
        self.check(l_matrix)

    def test_exact_zeros_are_not_stored(self):
        # a diagonal that cancels to zero, and products that underflow to 0,
        # with every diagonal entry present and with row 1 lacking its own
        full = np.array([[2.0, 1e-300, 0.0], [0.0, 3.0, 1.0], [1e-300, 0.0, 4.0]])
        bare = full.copy()
        bare[1, 1] = 0.0
        for dense in (full, bare):
            a = SparseMatrix(dense)
            for scale, nnz in ((-0.5, 5), (1e-30, 4)):
                got = identity_plus(a, scale)
                assert_same_csr(got.csr, reference_identity_plus(a, scale))
                assert got.nnz == nnz and np.all(got.data != 0.0)

    def test_int64_indices(self):
        for dense in ([[1.0, 2.0, 0.0], [1.0, 3.0, 0.0], [0.0, 5.0, 3.0]],
                      [[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 5.0, 3.0]]):
            wide = sp.csr_matrix(SparseMatrix(np.array(dense)).csr, copy=True)
            wide.indices = wide.indices.astype(np.int64)
            wide.indptr = wide.indptr.astype(np.int64)
            self.check(SparseMatrix.from_canonical(wide))

    def test_entry_rows_computed_once(self):
        a = SparseMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        rows = a.entry_rows()
        assert a.entry_rows() is rows
        assert not rows.flags.writeable
        assert np.array_equal(rows, [0, 0, 1])


def shifted_film_2d(u=None):
    """The 16x16 film operator shifted as one SDIRK3 step of 1e-6 shifts it."""
    spec = LubricationSpec.default_2d(16)
    if u is None:
        u = spec.initial_field().values
    return identity_plus(assemble_lubrication_2d(Field(spec.grid, u), spec), -SDIRK3_GAMMA * 1e-6)


class TestSparseOrderingChoice:
    """SuperLU's symmetric mode with an A + A^T ordering serves matrices
    whose diagonal leads every column (the shifted film operators); the rest
    (anisotropic Dirichlet rows leave a 1 under large column entries) keep
    the default COLAMD ordering."""

    SYMMETRIC = dict(permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))

    @staticmethod
    def dry_patch_state():
        spec = LubricationSpec.default_2d(16)
        u = spec.initial_field().values.copy()
        u.reshape(17, 17)[6:11, 6:11] = 0.0
        return u

    @staticmethod
    def shifted_aniso():
        l_matrix = assemble(AnisotropicSpec.pure_diffusion(Grid2D.square(0.0, 1.0, 16))).l_matrix
        return identity_plus(l_matrix, -SDIRK3_GAMMA * 1e-2)

    @staticmethod
    def solves_verified(a):
        rhs = np.random.default_rng(3).normal(size=a.dimension)
        f = Factorization(a)
        x, report = f.solve(rhs)
        assert report.residual_norm <= report.tolerance
        assert np.allclose(x, np.linalg.solve(a.to_dense(), rhs), rtol=1e-9, atol=1e-12)
        return f

    def check_sparse(self, a, symmetric):
        csc = a.csr.tocsc()
        assert _diagonal_leads_columns(csc) is symmetric
        f = self.solves_verified(a)
        assert f.method == "sparse-lu"
        # the factorization took the ordering the predicate chose
        want = spla.splu(csc, **(self.SYMMETRIC if symmetric else {}))
        assert np.array_equal(f._splu.perm_c, want.perm_c)
        assert np.array_equal(f._splu.perm_r, want.perm_r)

    def test_film_at_start_takes_symmetric_route(self):
        self.check_sparse(shifted_film_2d(), True)

    def test_film_with_dry_patch_takes_symmetric_route(self):
        a = shifted_film_2d(self.dry_patch_state())
        # dry nodes give identity rows, but their columns still hold the
        # couplings of their wet neighbours
        assert np.sum(np.diff(a.indptr) == 1) > 0
        self.check_sparse(a, True)

    def test_anisotropic_dirichlet_rows_take_default_route(self):
        self.check_sparse(self.shifted_aniso(), False)

    def test_off_diagonal_column_maximum(self):
        a = SparseMatrix(np.array([[1.0, 0.0, 0.5], [2.0, 4.0, 0.0], [0.0, 1.0, 3.0]]))
        assert _diagonal_leads_columns(a.csr.tocsc()) is False
        self.solves_verified(a)

    def test_empty_column_takes_default_route(self):
        dense = np.eye(4)
        dense[:, 2] = 0.0
        assert _diagonal_leads_columns(SparseMatrix(dense).csr.tocsc()) is False

    def test_method_names(self):
        # perfbench counts factorizations by these exact strings
        assert Factorization(tridiag(10, -1.0, 4.0, -1.0)).method == "banded-lu"
        assert Factorization(shifted_film_2d()).method == "sparse-lu"
        assert Factorization(self.shifted_aniso()).method == "sparse-lu"


class TestStaleFactorization:
    """An LU kept for a later matrix: solves refine against that matrix until
    its own tolerance is met, and factor it afresh when they cannot."""

    @staticmethod
    def film_state(scale):
        u = LubricationSpec.default_2d(16).initial_field().values
        return u * (1.0 + scale * np.linspace(0.0, 1.0, u.size))

    @staticmethod
    def true_residual(a, x, rhs):
        return float(np.max(np.abs(a.matvec(x) - rhs))) / max(1.0, float(np.max(np.abs(rhs))))

    def test_nearby_matrix_meets_its_tolerance(self):
        a0 = shifted_film_2d()
        a1 = shifted_film_2d(self.film_state(1e-3))
        f = Factorization(a0)
        rhs = np.random.default_rng(7).normal(size=a1.dimension)
        x, report = f.solve(rhs, a1)
        assert report.iterations > 0 and not report.refactored
        assert report.tolerance == default_tolerance(a1)
        assert self.true_residual(a1, x, rhs) <= default_tolerance(a1)
        # the LU is still a0's: its own solves stay fresh
        _, fresh = f.solve(rhs)
        assert fresh.iterations == 0
        _, again = f.solve(rhs, a1)
        assert again.iterations > 0

    def test_distant_matrix_refactors(self):
        a0 = shifted_film_2d()
        spec = LubricationSpec.default_2d(16)
        a1 = identity_plus(assemble_lubrication_2d(Field(spec.grid, self.film_state(5.0)), spec),
                           -SDIRK3_GAMMA * 1e-4)
        f = Factorization(a0)
        rhs = np.random.default_rng(8).normal(size=a1.dimension)
        x, report = f.solve(rhs, a1)
        assert report.refactored
        assert report.iterations == 1 + STALE_SWEEPS_MAX
        assert report.residual_norm <= report.tolerance == default_tolerance(a1)
        assert self.true_residual(a1, x, rhs) <= default_tolerance(a1)
        # the object now holds a1's LU
        _, fresh = f.solve(rhs, a1)
        assert fresh.iterations == 0 and not fresh.refactored

    def test_fresh_solve_reports_no_extra_sweeps(self):
        a = shifted_film_2d()
        rhs = np.ones(a.dimension)
        for other in (None, a):
            _, report = Factorization(a).solve(rhs, other)
            assert report.iterations == 0 and not report.refactored

    def test_dimension_must_match(self):
        f = Factorization(tridiag(8, -1.0, 4.0, -1.0))
        with pytest.raises(ValueError, match="its own dimension"):
            f.solve(np.ones(8), tridiag(9, -1.0, 4.0, -1.0))

    def test_routes(self):
        assert Factorization(tridiag(10, -1.0, 4.0, -1.0)).route == "banded-lu"
        assert Factorization(shifted_film_2d()).route == "sparse-lu/symmetric"
        aniso = TestSparseOrderingChoice.shifted_aniso()
        assert Factorization(aniso).route == "sparse-lu/colamd"


class TestSolvers:
    def test_default_tolerance_scales_with_operator(self):
        small = SparseMatrix(sp.diags([0.5, 0.25]))
        big = SparseMatrix(sp.diags([100.0, 1.0]))
        assert default_tolerance(small) == 1e-12
        assert default_tolerance(big) == 1e-10

    def test_banded_route(self):
        n = 40
        a = tridiag(n, -1.0, 4.0, -1.5)
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=n)
        x, report = Factorization(a).solve(rhs)
        assert report.method == "banded-lu"
        assert report.iterations == 0
        assert report.residual_norm <= report.tolerance
        assert np.allclose(x, np.linalg.solve(a.to_dense(), rhs), rtol=1e-10, atol=1e-12)

    def test_sparse_route(self):
        # an entry seven off the diagonal forces the general sparse path
        n = 12
        rows = list(range(n)) + [0, 7]
        cols = list(range(n)) + [7, 0]
        vals = [10.0] * n + [1.0, 1.0]
        a = SparseMatrix.from_coo(n, rows, cols, vals)
        assert max(a.bandwidth()) > BANDED_BANDWIDTH_MAX
        rhs = np.arange(1.0, n + 1.0)
        x, report = Factorization(a).solve(rhs)
        assert report.method == "sparse-lu"
        assert np.allclose(x, np.linalg.solve(a.to_dense(), rhs), rtol=1e-12)

    def test_banded_route_with_identity_rows_matches_splu(self):
        # identity rows (Dirichlet nodes) inside a pentadiagonal band: the
        # band array is filled from indptr/indices, so empty off-diagonals
        # in a row must leave the band untouched there
        n = 30
        rng = np.random.default_rng(5)
        dense = np.zeros((n, n))
        for k in (-2, -1, 1, 2):
            dense += np.diag(rng.normal(size=n - abs(k)), k=k)
        np.fill_diagonal(dense, 1.0 + np.abs(dense).sum(axis=1))
        for i in (0, 7, 8, 19, n - 1):
            dense[i] = 0.0
            dense[i, i] = 1.0
        a = SparseMatrix(dense)
        assert a.bandwidth() == (2, 2)
        rhs = rng.normal(size=n)
        f = Factorization(a)
        x, report = f.solve(rhs)
        assert f.method == "banded-lu"
        ref = spla.splu(sp.csc_matrix(dense)).solve(rhs)
        assert np.allclose(x, ref, rtol=1e-13, atol=1e-14)
        assert np.allclose(x[[0, 7, 8, 19, n - 1]], rhs[[0, 7, 8, 19, n - 1]], rtol=1e-14)

    def test_factorization_reusable(self):
        a = tridiag(10, 1.0, 5.0, 2.0)
        f = Factorization(a)
        for seed in (1, 2, 3):
            rhs = np.random.default_rng(seed).normal(size=10)
            x, _ = f.solve(rhs)
            assert np.allclose(a.matvec(x), rhs, atol=1e-11)

    def test_singular_banded_raises(self):
        a = SparseMatrix(sp.diags([1.0, 0.0]))
        with pytest.raises(SolveError, match="singular banded system"):
            Factorization(a)

    def test_rhs_shape_checked(self):
        f = Factorization(SparseMatrix(sp.identity(3)))
        with pytest.raises(ValueError, match="rhs has shape"):
            f.solve(np.zeros(2))

    def test_rhs_must_be_finite(self):
        f = Factorization(SparseMatrix(sp.identity(2)))
        with pytest.raises(ValueError, match="non-finite"):
            f.solve(np.array([1.0, float("nan")]))

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="tolerance"):
            Factorization(SparseMatrix(sp.identity(2)), tol=0.0)

    def test_unreachable_tolerance_fails_verification(self):
        a = tridiag(8, -1.0, 2.4, -1.0)
        f = Factorization(a, tol=1e-40)
        rng = np.random.default_rng(4)
        with pytest.raises(SolveError, match="failed verification"):
            f.solve(rng.normal(size=8))

    def test_random_diagonally_dominant_systems(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            band = int(rng.integers(1, 9))
            dense = np.zeros((n, n))
            for k in range(1, min(band, n - 1) + 1):
                dense += np.diag(rng.normal(size=n - k), k=k)
                dense += np.diag(rng.normal(size=n - k), k=-k)
            np.fill_diagonal(dense, 1.0 + np.abs(dense).sum(axis=1))
            a = SparseMatrix(dense)
            rhs = rng.normal(size=n)
            x, report = Factorization(a).solve(rhs)
            assert report.residual_norm <= report.tolerance
            assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=1e-8, atol=1e-10)


class TestSparseOperator:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            SparseOperator(SparseMatrix(sp.identity(2)), SparseMatrix(sp.identity(3)), np.zeros(2))

    def test_source_length_checked(self):
        with pytest.raises(ValueError, match="source vector length"):
            SparseOperator(SparseMatrix(sp.identity(2)), SparseMatrix(sp.identity(2)), np.zeros(3))

    def test_fixed_source(self):
        src = np.array([1.0, 2.0])
        op = SparseOperator(SparseMatrix(sp.identity(2)), SparseMatrix(sp.identity(2)), src)
        assert np.array_equal(op.source_at(0.0), src)
        assert np.array_equal(op.source_at(5.0), src)
        assert op.dimension == 2

    def test_callable_source(self):
        op = SparseOperator(
            SparseMatrix(sp.identity(2)),
            SparseMatrix(sp.identity(2)),
            lambda t: np.array([t, -t]),
        )
        assert np.array_equal(op.source_at(2.0), [2.0, -2.0])

    def test_callable_source_length_checked(self):
        op = SparseOperator(
            SparseMatrix(sp.identity(2)),
            SparseMatrix(sp.identity(2)),
            lambda t: np.zeros(3),
        )
        with pytest.raises(ValueError, match="wrong length"):
            op.source_at(0.0)
