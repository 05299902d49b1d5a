"""Sparse matrices and the verified direct solvers."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cutoffpde import linalg
from cutoffpde.anisotropic import AnisotropicSpec, assemble
from cutoffpde.grids import Field, Grid2D
from cutoffpde.linalg import (
    BANDED_BANDWIDTH_MAX,
    STALE_SWEEPS_MAX,
    Factorization,
    SolveError,
    SparseMatrix,
    default_tolerance,
    identity_plus,
)
from cutoffpde.linalg import _diagonal_leads_columns
from cutoffpde.cutoff import CutoffParams
from cutoffpde.lubrication import (
    LubricationSpec,
    assemble_lubrication_1d,
    assemble_lubrication_2d,
    run_lubrication,
)
from cutoffpde.stepping import SDIRK3_GAMMA, StepperConfig, run

from conftest import (
    SCALES,
    assert_acts_as_csr,
    assert_same_csr_bits,
    assert_shifts_as_csr,
    canonical,
    reference_identity_plus,
    same_bits,
    sparse_matrix,
)


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
    return sparse_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))


class TestSparseMatrix:
    def test_constructor_sums_duplicates(self):
        a = sparse_matrix(sp.coo_matrix(([2.0, 3.0, -1.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2)))
        assert np.array_equal(a.to_dense(), [[0.0, 5.0], [-1.0, 0.0]])
        assert a.nnz == 2

    def test_constructor_range_check(self):
        # scipy's own coordinate check
        with pytest.raises(ValueError):
            sparse_matrix(sp.coo_matrix(([1.0], ([0], [2])), shape=(2, 2)))
        with pytest.raises(ValueError):
            sparse_matrix(sp.coo_matrix(([1.0], ([-1], [0])), shape=(2, 2)))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            sparse_matrix(np.zeros((2, 3)))

    def test_explicit_zeros_dropped(self):
        a = sparse_matrix(sp.coo_matrix(([1.0, 0.0], ([0, 1], [0, 1])), shape=(2, 2)))
        assert a.nnz == 1

    def test_matvec(self):
        a = sparse_matrix(np.array([[1.0, -2.0], [3.0, 4.0]]))
        assert np.array_equal(a.matvec(np.array([1.0, 1.0])), [-1.0, 7.0])

    def test_matvec_shape_checked(self):
        a = sparse_matrix(sp.identity(3))
        with pytest.raises(ValueError, match="matvec operand"):
            a.matvec(np.zeros(4))

    def test_operator_norm_inf(self):
        a = sparse_matrix(np.array([[1.0, -2.0], [3.0, 4.0]]))
        assert a.operator_norm_inf() == 7.0
        assert sparse_matrix(sp.csr_matrix((4, 4))).operator_norm_inf() == 0.0

    def test_bandwidth(self):
        assert tridiag(6, 1.0, 4.0, 1.0).bandwidth() == (1, 1)
        lower = sparse_matrix(sp.coo_matrix(([1.0, 1.0], ([3, 0], [0, 0])), shape=(5, 5)))
        assert lower.bandwidth() == (3, 0)
        assert sparse_matrix(sp.csr_matrix((4, 4))).bandwidth() == (0, 0)

    def test_norm_and_bandwidth_read_the_stored_pattern(self):
        # a random pattern with an empty row: the diagonals its entries span,
        # and norm, product and bandwidth as scipy gives them on its CSR
        rng = np.random.default_rng(11)
        dense = rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.4)
        dense[4] = 0.0
        ref = sp.csr_matrix(dense)
        a = sparse_matrix(dense)
        offsets, data = a.diagonals()
        coo = ref.tocoo()
        assert np.array_equal(offsets, np.union1d(coo.col - coo.row, [0]))
        assert np.array_equal(data[np.searchsorted(offsets, coo.col - coo.row), coo.col], coo.data)
        assert_same_csr_bits(a.csr, ref)
        assert_acts_as_csr(a, ref)

    def test_csr_formed_once(self):
        a = sparse_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert a.csr is a.csr
        assert np.array_equal(a.csr.indptr, [0, 2, 3])

    @pytest.mark.parametrize("matrix", [
        sp.csr_matrix((4, 4)),
        np.zeros((4, 4)),
        sp.coo_matrix(([0.0, 0.0], ([0, 3], [3, 0])), shape=(4, 4)),
        assemble_lubrication_1d(Field(LubricationSpec.default_1d(3).grid, np.zeros(4)),
                                LubricationSpec.default_1d(3)).csr,
    ], ids=["empty csr", "dense zeros", "explicit zeros", "all-dry film"])
    def test_no_stored_entry(self, matrix):
        a = sparse_matrix(matrix)
        assert a.dimension == 4 and a.nnz == 0
        assert same_bits(a.matvec(np.arange(1.0, 5.0)), np.zeros(4))
        assert a.operator_norm_inf() == 0.0
        assert a.bandwidth() == (0, 0)
        assert np.array_equal(a.to_dense(), np.zeros((4, 4)))
        for scale in SCALES:
            assert_same_csr_bits(identity_plus(a, scale).csr, sp.identity(4, format="csr"))

    def test_identity_plus(self):
        a = sparse_matrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
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
        shifted = identity_plus(sparse_matrix(dense), -0.5)
        assert shifted.csr.has_canonical_format
        assert_same_csr_bits(shifted.csr, canonical(shifted.csr))
        assert np.array_equal(shifted.to_dense(), np.eye(4) - 0.5 * dense)
        assert shifted.nnz == 7  # the zero at (0, 0) is not stored


class TestIdentityPlusMatchesScipy:
    """identity_plus forms I + s*A on the diagonals; it must equal scipy's
    sorted merge bit for bit, values and index dtypes."""

    @staticmethod
    def check(a, ref=None):
        assert_shifts_as_csr(a, a.csr if ref is None else ref)

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
                assert a.nnz > 0 and np.any(np.diff(a.csr.indptr) == 0)
                self.check(a)

    def test_dirichlet_rows(self):
        l_matrix = assemble(AnisotropicSpec.pure_diffusion(Grid2D.square(0.0, 1.0, 8))).l_matrix
        assert np.any(np.diff(l_matrix.csr.indptr) == 0)
        self.check(l_matrix)

    def test_exact_zeros_are_not_stored(self):
        # a diagonal that cancels to zero, and products that underflow to 0,
        # with every diagonal entry present and with row 1 lacking its own
        full = np.array([[2.0, 1e-300, 0.0], [0.0, 3.0, 1.0], [1e-300, 0.0, 4.0]])
        bare = full.copy()
        bare[1, 1] = 0.0
        for dense in (full, bare):
            a = sparse_matrix(dense)
            for scale, nnz in ((-0.5, 5), (1e-30, 4)):
                got = identity_plus(a, scale)
                assert_same_csr_bits(got.csr, reference_identity_plus(sp.csr_matrix(dense), scale))
                assert got.nnz == nnz and np.all(got.csr.data != 0.0)

    def test_int64_indices(self):
        # CSR input with 64-bit indices comes to the same diagonals; the CSR
        # formed from them, and its shifts, carry scipy's 32-bit indices
        for dense in ([[1.0, 2.0, 0.0], [1.0, 3.0, 0.0], [0.0, 5.0, 3.0]],
                      [[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 5.0, 3.0]]):
            narrow = sp.csr_matrix(np.array(dense))
            wide = narrow.copy()
            wide.indices = wide.indices.astype(np.int64)
            wide.indptr = wide.indptr.astype(np.int64)
            a = sparse_matrix(wide)
            for got, want in zip(a.diagonals(), sparse_matrix(narrow).diagonals()):
                assert np.array_equal(got, want)
            self.check(a, narrow)


@st.composite
def dia_matrices(draw):
    """(SparseMatrix, the scipy CSR matrix of its entries, an operand): n
    in [2, 24], sorted distinct offsets in (-n, n) with 0 among them, and
    exact zeros and -0.0 on random slots."""
    n = draw(st.integers(2, 24))
    others = draw(st.sets(st.integers(1 - n, n - 1), max_size=8))
    offsets = np.array(sorted(others | {0}))
    data = draw(arrays(float, (offsets.size, n), elements=st.floats(-1e3, 1e3)))
    # 0 keeps the drawn value, 1 puts 0.0 and 2 puts -0.0 in the slot
    zeros = draw(arrays(np.int8, data.shape, elements=st.integers(0, 2)))
    data[zeros == 1], data[zeros == 2] = 0.0, -0.0
    dense = np.zeros((n, n))
    for o, diagonal in zip(offsets, data):
        on = np.arange(max(o, 0), n + min(o, 0))
        diagonal[np.setdiff1d(np.arange(n), on)] = 0.0
        dense[on - o, on] = diagonal[on]
    x = draw(arrays(float, n, elements=st.floats(-1e3, 1e3)))
    return SparseMatrix(offsets, data), canonical(dense), x


class TestDiaLayoutMatchesScipy:
    """Any matrix in the DIA layout, and its shifts, compute what scipy
    computes on the CSR matrix of the same entries, bit for bit: product,
    CSR arrays, norm, entry count, bandwidth.  This pins scipy's private
    DIA loop that the product and the norm run."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dia_matrices())
    def test_acts_as_csr(self, drawn):
        a, ref, x = drawn
        assert same_bits(a.matvec(x), ref @ x)
        assert_same_csr_bits(a.csr, ref)
        assert_acts_as_csr(a, ref)
        assert_shifts_as_csr(a, ref)
        # a shift the diagonal dominates factors, and its solve verifies
        shifted = identity_plus(a, 0.5 / max(1.0, a.operator_norm_inf()))
        _, report = Factorization(shifted).solve(x)
        assert report.residual_norm <= report.tolerance


def shifted_film_2d(u=None):
    """The 16x16 film operator shifted as one SDIRK3 step of 1e-6 shifts it."""
    spec = LubricationSpec.default_2d(16)
    if u is None:
        u = spec.initial_field().values
    return identity_plus(assemble_lubrication_2d(Field(spec.grid, u), spec), -SDIRK3_GAMMA * 1e-6)


def factored_transpose(a):
    """A^T as SuperLU factors it: a's CSR arrays read as CSC."""
    csr = a.csr
    return sp.csc_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)


class TestSparseOrderingChoice:
    """SuperLU factors A^T.  Its symmetric mode with an A + A^T ordering
    serves matrices whose diagonal leads every column of A^T, that is every
    row of A (the shifted film operators, whole anisotropic systems); the
    rest keep the default COLAMD ordering."""

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
        at = factored_transpose(a)
        assert _diagonal_leads_columns(at) is symmetric
        f = self.solves_verified(a)
        assert f.method == "sparse-lu"
        assert f.route == ("sparse-lu/symmetric" if symmetric else "sparse-lu/colamd")
        # the factorization took the ordering the predicate chose
        want = spla.splu(at, **(self.SYMMETRIC if symmetric else {}))
        assert np.array_equal(f._splu.perm_c, want.perm_c)
        assert np.array_equal(f._splu.perm_r, want.perm_r)

    def test_film_at_start_takes_symmetric_route(self):
        self.check_sparse(shifted_film_2d(), True)

    def test_film_with_dry_patch_takes_symmetric_route(self):
        a = shifted_film_2d(self.dry_patch_state())
        # dry nodes give identity rows, but their columns still hold the
        # couplings of their wet neighbours
        assert np.sum(np.diff(a.csr.indptr) == 1) > 0
        self.check_sparse(a, True)

    def test_anisotropic_dirichlet_rows_take_default_route(self):
        # a Dirichlet row holds only its diagonal 1, so the rows of the whole
        # system lead and its factored transpose takes the symmetric route
        a = self.shifted_aniso()
        assert _diagonal_leads_columns(a.csr.tocsc()) is False
        self.check_sparse(a, True)
        # its own transpose puts the 1s under larger column entries of the
        # factored matrix, which keeps the default route
        self.check_sparse(sparse_matrix(a.csr.T), False)

    def test_off_diagonal_column_maximum(self):
        a = sparse_matrix(np.array([[1.0, 0.0, 0.5], [2.0, 4.0, 0.0], [0.0, 1.0, 3.0]]))
        assert _diagonal_leads_columns(a.csr.tocsc()) is False
        self.solves_verified(a)

    def test_empty_column_takes_default_route(self):
        dense = np.eye(4)
        dense[:, 2] = 0.0
        assert _diagonal_leads_columns(sparse_matrix(dense).csr.tocsc()) is False

    def test_method_names(self):
        # perfbench counts factorizations by these exact strings
        assert Factorization(tridiag(10, -1.0, 4.0, -1.0)).method == "banded-lu"
        assert Factorization(shifted_film_2d()).method == "sparse-lu"
        assert Factorization(self.shifted_aniso()).method == "sparse-lu"


def whole_system(n_cells, convection=False, dt=1e-2):
    """(shifted anisotropic system I - gamma*dt*L, Dirichlet identity rows
    included, and its problem)."""
    grid = Grid2D.square(0.0, 1.0, n_cells)
    spec = AnisotropicSpec.with_convection(grid) if convection else AnisotropicSpec.pure_diffusion(grid)
    problem = assemble(spec)
    return identity_plus(problem.l_matrix, -SDIRK3_GAMMA * dt), problem


class TestWholeSystemSolve:
    """The stepper factors the whole shifted anisotropic system: its
    Dirichlet identity rows return the boundary values a right-hand side
    holds there, and the check is the whole system's, measured against the
    scale of that right-hand side."""

    @pytest.mark.parametrize("convection", [False, True])
    def test_whole_system_takes_symmetric_route(self, convection):
        whole, _ = whole_system(16, convection)
        TestSparseOrderingChoice().check_sparse(whole, True)

    @pytest.mark.parametrize("convection", [False, True])
    def test_tolerance_is_the_whole_systems(self, convection):
        whole, problem = whole_system(16, convection)
        mask = problem.dirichlet_mask
        dense = whole.to_dense()
        # the interior rows' boundary columns count towards the scale
        row_sums = np.abs(dense[~mask]).sum(axis=1)
        assert default_tolerance(whole) == pytest.approx(1e-12 * row_sums.max(), rel=1e-15)
        # the interior block alone is never measured more loosely
        block = sparse_matrix(dense[np.ix_(~mask, ~mask)])
        assert default_tolerance(block) <= default_tolerance(whole)

    @pytest.mark.parametrize("convection", [False, True])
    def test_solve_verifies_the_whole_system(self, convection):
        whole, problem = whole_system(16, convection)
        mask = problem.dirichlet_mask
        # a state inside, g on the boundary
        rhs = np.where(mask, problem.source(0.5), 0.5 * problem.exact(0.0))
        fact = Factorization(whole)
        x, report = fact.solve(rhs)
        # the identity rows return g bit for bit
        assert np.array_equal(x[mask], rhs[mask])
        # the boundary columns' products dwarf the right-hand side, which
        # sets the scale of the check
        scale = max(1.0, np.max(np.abs(rhs)))
        coupling = whole.csr[~mask][:, mask]
        assert np.max(np.abs(coupling @ rhs[mask])) > 100.0 * scale
        assert report.residual_norm == pytest.approx(
            np.max(np.abs(whole.matvec(x) - rhs)) / scale, rel=1e-12, abs=0.0)
        assert report.residual_norm <= report.tolerance == default_tolerance(whole)
        assert np.allclose(x, spla.spsolve(whole.csr.tocsc(), rhs), rtol=1e-10, atol=1e-12)


def nonsymmetric_colamd_matrix():
    """A 12x12 nonsymmetric matrix off the banded route whose row 0 is led
    by an entry seven off the diagonal: its factored transpose takes COLAMD."""
    n = 12
    dense = np.diag(np.full(n, 10.0)) + np.diag(np.arange(1.0, n), 1) - np.diag(np.full(n - 1, 2.0), -1)
    dense[0, 7] = 25.0
    dense[9, 2] = -3.0
    return sparse_matrix(dense)


class TestTransposedSolve:
    """SuperLU holds the LU of A^T and solves transposed: every answer is the
    x of A x = b, not of A^T x = b, and a fresh LU's first answer verifies."""

    @staticmethod
    def system(name):
        """(a, route) of one nonsymmetric system: a convection whole system,
        a film, a small COLAMD one."""
        if name == "convection whole system":
            return whole_system(16, convection=True)[0], "sparse-lu/symmetric"
        if name == "film":
            a = shifted_film_2d(TestSparseOrderingChoice.dry_patch_state())
            return a, "sparse-lu/symmetric"
        a = nonsymmetric_colamd_matrix()
        assert max(a.bandwidth()) > BANDED_BANDWIDTH_MAX
        return a, "sparse-lu/colamd"

    @pytest.mark.parametrize("name", ["convection whole system", "film", "nonsymmetric colamd"])
    def test_fresh_lu_solves_a_not_its_transpose(self, monkeypatch, name):
        a, route = self.system(name)
        dense = a.to_dense()
        assert np.max(np.abs(dense - dense.T)) > 1e-3 * np.max(np.abs(dense))
        rhs = np.random.default_rng(5).normal(size=a.dimension)
        fact = Factorization(a)
        assert fact.route == route
        calls = count_backsubstitutions(monkeypatch, fact)
        x, report = fact.solve(rhs)
        assert len(calls) == 1 and report.iterations == 0
        assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=1e-9, atol=1e-12)
        assert not np.allclose(x, np.linalg.solve(dense.T, rhs), rtol=1e-3)


def count_backsubstitutions(monkeypatch, target=Factorization) -> list:
    """Spy on _backsub of one Factorization, or of every one: the returned
    list grows by one entry per backsubstitution."""
    calls = []
    backsub = target._backsub

    def spy(*args):
        calls.append(1)
        return backsub(*args)

    monkeypatch.setattr(target, "_backsub", spy)
    return calls


def pin_tolerance(monkeypatch, tol):
    """Make every Factorization built from here on check against tol."""
    monkeypatch.setattr(linalg, "default_tolerance", lambda a: tol)


class TestSolvePolicy:
    """A fresh LU's answer is checked before anything else and refined only
    when it misses: one backsubstitution when it verifies, one sweep more
    when it does not, and a SolveError when the sweep misses too."""

    @staticmethod
    def first_and_swept_residuals():
        """(a, rhs, residual of the LU's answer, residual after one sweep) on
        a shifted film system, where the sweep helps."""
        a = shifted_film_2d()
        rhs = np.random.default_rng(11).normal(size=a.dimension)
        lu = Factorization(a)
        first = lu._backsub(rhs)
        swept = first - lu._backsub(a.matvec(first) - rhs)
        r0, r1 = (TestStaleFactorization.true_residual(a, x, rhs) for x in (first, swept))
        assert 0.0 < r1 < r0
        return a, rhs, r0, r1

    def test_verified_first_answer_is_one_backsubstitution(self, monkeypatch):
        a, rhs, r0, _ = self.first_and_swept_residuals()
        pin_tolerance(monkeypatch, r0)
        fact = Factorization(a)
        calls = count_backsubstitutions(monkeypatch, fact)
        _, report = fact.solve(rhs)
        assert len(calls) == 1
        assert report.iterations == 0 and report.residual_norm == r0

    def test_missed_first_answer_takes_one_sweep(self, monkeypatch):
        a, rhs, r0, r1 = self.first_and_swept_residuals()
        pin_tolerance(monkeypatch, math.sqrt(r0 * r1))
        fact = Factorization(a)
        calls = count_backsubstitutions(monkeypatch, fact)
        _, report = fact.solve(rhs)
        assert len(calls) == 2
        assert report.iterations == 1 and report.residual_norm == r1

    def test_missed_sweep_fails(self, monkeypatch):
        a, rhs, _, r1 = self.first_and_swept_residuals()
        pin_tolerance(monkeypatch, 0.5 * r1)
        fact = Factorization(a)
        calls = count_backsubstitutions(monkeypatch, fact)
        with pytest.raises(SolveError, match="failed verification"):
            fact.solve(rhs)
        assert len(calls) == 2

    @staticmethod
    def backsubstitutions_add_up(stats, calls):
        assert stats.solves > 0
        assert stats.solves + stats.extra_sweeps == len(calls)
        assert 0.0 < stats.residual_max <= 1.0

    def test_anisotropic_run_counts_every_backsubstitution(self, monkeypatch):
        calls = count_backsubstitutions(monkeypatch)
        problem = assemble(AnisotropicSpec.pure_diffusion(Grid2D.square(0.0, 1.0, 16)))
        _, trace = run(problem, StepperConfig(dt=1e-2, t_end=1.0, cutoff=CutoffParams(0.0)))
        assert trace.solver.extra_sweeps == 0
        self.backsubstitutions_add_up(trace.solver, calls)

    def test_refactoring_film_run_counts_every_backsubstitution(self, monkeypatch):
        calls = count_backsubstitutions(monkeypatch)
        # through touchdown, where the matrix moves fastest
        cfg = StepperConfig(dt=1e-5, t_end=1e-3, cutoff=CutoffParams(0.0))
        _, trace, _ = run_lubrication(LubricationSpec.default_2d(16), cfg)
        # the kept LU was outgrown and the run's matrix factored afresh
        assert trace.solver.factorizations > 1
        self.backsubstitutions_add_up(trace.solver, calls)


class TestStaleFactorization:
    """An LU kept for a later matrix: solves refine against that matrix until
    its own tolerance is met, and factor it afresh when they cannot.  A
    stale solve may start from a guess; a fresh one ignores it."""

    @staticmethod
    def film_state(scale):
        u = LubricationSpec.default_2d(16).initial_field().values
        return u * (1.0 + scale * np.linspace(0.0, 1.0, u.size))

    @staticmethod
    def true_residual(a, x, rhs):
        return float(np.max(np.abs(a.matvec(x) - rhs))) / max(1.0, float(np.max(np.abs(rhs))))

    def test_nearby_matrix_meets_its_tolerance(self, monkeypatch):
        a0 = shifted_film_2d()
        a1 = shifted_film_2d(self.film_state(1e-3))
        f = Factorization(a0)
        rhs = np.random.default_rng(7).normal(size=a1.dimension)
        calls = count_backsubstitutions(monkeypatch, f)
        x, report = f.solve(rhs, a1)
        assert report.iterations > 0 and not report.refactored
        assert len(calls) == 1 + report.iterations
        assert report.tolerance == default_tolerance(a1)
        assert self.true_residual(a1, x, rhs) <= default_tolerance(a1)
        assert np.allclose(x, np.linalg.solve(a1.to_dense(), rhs), rtol=1e-9, atol=1e-12)
        # the LU is still a0's: its own solves stay fresh
        _, fresh = f.solve(rhs)
        assert fresh.iterations == 0
        _, again = f.solve(rhs, a1)
        assert again.iterations > 0

    def test_distant_matrix_refactors(self, monkeypatch):
        a0 = shifted_film_2d()
        spec = LubricationSpec.default_2d(16)
        a1 = identity_plus(assemble_lubrication_2d(Field(spec.grid, self.film_state(5.0)), spec),
                           -SDIRK3_GAMMA * 1e-4)
        f = Factorization(a0)
        rhs = np.random.default_rng(8).normal(size=a1.dimension)
        calls = count_backsubstitutions(monkeypatch, f)
        x, report = f.solve(rhs, a1)
        assert report.refactored
        # the stale LU's answer and 1 + STALE_SWEEPS_MAX sweeps, then the
        # fresh LU's answer, which verifies
        assert report.iterations == 2 + STALE_SWEEPS_MAX == len(calls) - 1
        assert report.residual_norm <= report.tolerance == default_tolerance(a1)
        assert self.true_residual(a1, x, rhs) <= default_tolerance(a1)
        # the object now holds a1's LU
        _, fresh = f.solve(rhs, a1)
        assert fresh.iterations == 0 and not fresh.refactored

    def test_report_carries_the_verified_product(self):
        """The product a solve reports is the check's a x of the returned x,
        against the matrix it was verified on: the factored one, a nearby
        stale one, or, after a refactor, the new one."""
        a0 = shifted_film_2d()
        near = shifted_film_2d(self.film_state(1e-3))
        spec = LubricationSpec.default_2d(16)
        far = identity_plus(assemble_lubrication_2d(Field(spec.grid, self.film_state(5.0)), spec),
                            -SDIRK3_GAMMA * 1e-4)
        rhs = np.random.default_rng(13).normal(size=a0.dimension)
        f = Factorization(a0)
        for a, refactored in ((None, False), (near, False), (far, True)):
            x, report = f.solve(rhs, a)
            assert report.refactored == refactored
            assert np.array_equal(report.product, (a or a0).matvec(x))
        assert f.matrix is far

    def extrapolated(self, rhs):
        """(a4, guess): the film system four small moves from the 16x16
        initial film's, and the quadratic extrapolation of the solutions of
        the three before it (with one right-hand side, the stepper's
        extrapolated increments over a fixed state give the same guess)."""
        a1, a2, a3 = (shifted_film_2d(self.film_state(k * 1e-3)) for k in (1, 2, 3))
        x1, x2, x3 = (Factorization(a).solve(rhs)[0] for a in (a1, a2, a3))
        return shifted_film_2d(self.film_state(4e-3)), 3.0 * (x3 - x2) + x1

    def test_guess_takes_fewer_backsubstitutions(self, monkeypatch):
        rhs = np.random.default_rng(9).normal(size=shifted_film_2d().dimension)
        a4, guess = self.extrapolated(rhs)
        counts = []
        for g in (None, guess):
            f = Factorization(shifted_film_2d())
            calls = count_backsubstitutions(monkeypatch, f)
            x, report = f.solve(rhs, a4, g)
            assert not report.refactored and len(calls) == 1 + report.iterations
            assert report.residual_norm <= report.tolerance == default_tolerance(a4)
            assert self.true_residual(a4, x, rhs) <= default_tolerance(a4)
            counts.append(len(calls))
        assert counts[1] < counts[0]

    def test_fresh_lu_ignores_a_guess(self, monkeypatch):
        a = shifted_film_2d()
        rhs = np.random.default_rng(10).normal(size=a.dimension)
        f = Factorization(a)
        plain, _ = f.solve(rhs)
        calls = count_backsubstitutions(monkeypatch, f)
        for other in (None, a):
            x, report = f.solve(rhs, other, np.full(a.dimension, np.nan))
            assert x.tobytes() == plain.tobytes()
            assert report.iterations == 0 and not report.refactored
        assert len(calls) == 2

    def test_non_finite_guess_refactors(self, monkeypatch):
        rhs = np.random.default_rng(12).normal(size=shifted_film_2d().dimension)
        a4, guess = self.extrapolated(rhs)
        guess[5] = np.inf
        f = Factorization(shifted_film_2d())
        calls = count_backsubstitutions(monkeypatch, f)
        x, report = f.solve(rhs, a4, guess)
        # a NaN residual misses every check: the guessed answer and
        # 1 + STALE_SWEEPS_MAX sweeps, then the fresh LU's answer from rhs
        assert report.refactored and f.matrix is a4
        assert report.iterations == 2 + STALE_SWEEPS_MAX == len(calls) - 1
        assert np.all(np.isfinite(x))
        assert self.true_residual(a4, x, rhs) <= default_tolerance(a4)

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
        assert Factorization(aniso).route == "sparse-lu/symmetric"
        assert Factorization(sparse_matrix(aniso.csr.T)).route == "sparse-lu/colamd"


class TestSolvers:
    def test_default_tolerance_scales_with_operator(self):
        small = sparse_matrix(sp.diags([0.5, 0.25]))
        big = sparse_matrix(sp.diags([100.0, 1.0]))
        assert default_tolerance(small) == 1e-12
        assert default_tolerance(big) == 1e-10

    def test_banded_route(self):
        n = 40
        a = tridiag(n, -1.0, 4.0, -1.5)
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=n)
        f = Factorization(a)
        x, report = f.solve(rhs)
        assert f.method == "banded-lu"
        assert report.iterations == 0
        assert report.residual_norm <= report.tolerance
        assert np.allclose(x, np.linalg.solve(a.to_dense(), rhs), rtol=1e-10, atol=1e-12)

    def test_sparse_route(self):
        # an entry seven off the diagonal forces the general sparse path
        n = 12
        rows = list(range(n)) + [0, 7]
        cols = list(range(n)) + [7, 0]
        vals = [10.0] * n + [1.0, 1.0]
        a = sparse_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))
        assert max(a.bandwidth()) > BANDED_BANDWIDTH_MAX
        rhs = np.arange(1.0, n + 1.0)
        f = Factorization(a)
        x, _ = f.solve(rhs)
        assert f.method == "sparse-lu"
        assert np.allclose(x, np.linalg.solve(a.to_dense(), rhs), rtol=1e-12)

    @pytest.mark.parametrize("seed", [17, 18])
    def test_full_bandwidth_takes_sparse_route(self, seed):
        # a dense matrix spans all 23 diagonals: SuperLU, whose L and U
        # store all n(n+1) = 156 entries on either ordering
        n = 12
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(n, n))
        if seed == 17:
            np.fill_diagonal(dense, 1.0 + np.abs(dense).sum(axis=1))
        a = sparse_matrix(dense)
        assert a.bandwidth() == (n - 1, n - 1) and a.diagonals()[1].shape == (2 * n - 1, n)
        f = Factorization(a)
        assert f.route == ("sparse-lu/symmetric" if seed == 17 else "sparse-lu/colamd")
        assert f.fill == n * (n + 1)
        x, report = f.solve(np.ones(n))
        assert np.allclose(x, np.linalg.solve(dense, np.ones(n)), rtol=1e-9, atol=1e-12)

    def test_banded_route_with_identity_rows_matches_splu(self):
        # identity rows (Dirichlet nodes) inside a pentadiagonal band: the
        # band array is filled from the diagonals the stored entries span,
        # so empty off-diagonals in a row must leave the band zero there
        n = 30
        rng = np.random.default_rng(5)
        dense = np.zeros((n, n))
        for k in (-2, -1, 1, 2):
            dense += np.diag(rng.normal(size=n - abs(k)), k=k)
        np.fill_diagonal(dense, 1.0 + np.abs(dense).sum(axis=1))
        for i in (0, 7, 8, 19, n - 1):
            dense[i] = 0.0
            dense[i, i] = 1.0
        a = sparse_matrix(dense)
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
        a = sparse_matrix(sp.diags([1.0, 0.0]))
        with pytest.raises(SolveError, match="singular banded system"):
            Factorization(a)

    def test_rhs_shape_checked(self):
        f = Factorization(sparse_matrix(sp.identity(3)))
        with pytest.raises(ValueError, match="rhs has shape"):
            f.solve(np.zeros(2))

    def test_rhs_must_be_finite(self):
        f = Factorization(sparse_matrix(sp.identity(2)))
        with pytest.raises(ValueError, match="non-finite"):
            f.solve(np.array([1.0, float("nan")]))

    def test_unreachable_tolerance_fails_verification(self, monkeypatch):
        a = tridiag(8, -1.0, 2.4, -1.0)
        pin_tolerance(monkeypatch, 1e-40)
        f = Factorization(a)
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
            a = sparse_matrix(dense)
            rhs = rng.normal(size=n)
            x, report = Factorization(a).solve(rhs)
            assert report.residual_norm <= report.tolerance
            assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=1e-8, atol=1e-10)
