"""Square sparse matrices and the direct solvers the steppers run on.

SparseMatrix is a square matrix in canonical CSR (sorted column indices,
duplicates summed, no explicit zeros) with no arithmetic: callers compute on
scipy matrices (``.csr``) and wrap the result.  The banded fill of
Factorization writes ``data`` into the band by position, so it relies on
that format (a duplicate entry would be overwritten there, not summed).

Solves are direct: systems whose bandwidth is at most BANDED_BANDWIDTH_MAX
on each side go through LAPACK banded LU (gbtrf/gbtrs), everything else
through SuperLU.  SuperLU's ordering is chosen from the matrix.  When every
column's diagonal entry is the largest in magnitude in that column (the
shifted film operators, also where the film is dry), partial pivoting takes
the diagonal first, so the symmetric strategy fits: an A + A^T minimum-degree
ordering in SymmetricMode.  On the 2D film it halves the factorization time
and cuts the fill by a fifth (40x40) to a third (80x80) against the default.
Other matrices keep the default COLAMD ordering: the anisotropic Dirichlet
rows leave a 1 on the diagonal under column entries up to 5e4 times larger
(J = 160), and there the symmetric strategy pivots off the diagonal and
triples the fill.  The pivot threshold stays at SuperLU's default of 1.0
either way.

Every solve refines its answer against the system and re-verifies the
max-norm residual against the configured tolerance, so a returned solution is
always a checked one.  An LU of the system itself takes one refinement sweep.
An LU may also serve a later, nearby matrix (the film's lagged operator moves
little from one step to the next): the solve then keeps refining against
that matrix until its residual meets the matrix's own default_tolerance, and
factors the matrix afresh once STALE_SWEEPS_MAX further sweeps have not got
there.

The steppers factor shifted systems I - a_ii*dt*L (identity_plus) and solve
every implicit stage against them.  SparseOperator bundles the theta-method's
matrix pair B1 u^{n+1} = B0 u^n + F^n, with F a fixed vector or a callback
evaluated at the step's start time; it feeds the max-norm scheme diagnostics
and the one-step reference step_linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from .grids import _require_finite

BANDED_BANDWIDTH_MAX = 5
#: refinement sweeps a solve against a matrix other than the factored one
#: takes beyond the first before it factors that matrix afresh
STALE_SWEEPS_MAX = 3


class SolveError(RuntimeError):
    """Singular system or a residual that failed verification."""


class SparseMatrix:
    """Immutable-by-convention square matrix in canonical CSR."""

    __slots__ = ("_csr", "_rows", "_norm")

    def __init__(self, matrix):
        csr = sp.csr_matrix(matrix, dtype=float, copy=True)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        csr.sum_duplicates()
        csr.sort_indices()
        csr.eliminate_zeros()
        self._csr = csr
        self._rows = self._norm = None

    @classmethod
    def from_canonical(cls, csr: sp.csr_matrix) -> "SparseMatrix":
        """Adopt a square CSR matrix that is canonical by construction
        (sorted indices, no duplicates, no explicit zeros) as it is: no copy
        and no re-canonicalization.  The caller vouches for the format."""
        m = cls.__new__(cls)
        m._csr = csr
        m._rows = m._norm = None
        return m

    @classmethod
    def from_coo(cls, n: int, rows, cols, vals) -> "SparseMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise ValueError("coordinate index out of range")
        return cls(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))

    @property
    def csr(self) -> sp.csr_matrix:
        return self._csr

    @property
    def dimension(self) -> int:
        return self._csr.shape[0]

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    @property
    def indptr(self) -> np.ndarray:
        return self._csr.indptr

    @property
    def indices(self) -> np.ndarray:
        return self._csr.indices

    @property
    def data(self) -> np.ndarray:
        return self._csr.data

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"matvec operand has shape {x.shape}, expected ({self.dimension},)")
        return self._csr @ x

    def operator_norm_inf(self) -> float:
        """Exact max absolute row sum, computed on first use and kept."""
        if self._norm is None:
            # each row summed in storage order, as a product with ones would
            row_sums = np.bincount(self.entry_rows(), weights=np.abs(self.data),
                                   minlength=self.dimension)
            self._norm = float(row_sums.max()) if self.nnz else 0.0
        return self._norm

    def entry_rows(self) -> np.ndarray:
        """Row index of every stored entry, in storage order.

        Computed on first use and kept (read-only): the norm, the bandwidth,
        the banded fill and the shift all read it from one matrix."""
        if self._rows is None:
            indptr = self._csr.indptr
            rows = np.repeat(np.arange(self.dimension, dtype=indptr.dtype), np.diff(indptr))
            rows.flags.writeable = False
            self._rows = rows
        return self._rows

    def bandwidth(self) -> tuple:
        """(lower, upper) bandwidth from the stored pattern."""
        if self.nnz == 0:
            return (0, 0)
        d = self.entry_rows() - self._csr.indices
        return (int(max(d.max(), 0)), int(max(-d.min(), 0)))

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()


def identity_plus(a: SparseMatrix, scale: float) -> SparseMatrix:
    """I + scale * A, the shifted systems the implicit steppers factor.

    Equal to scipy's sorted merge of I and scale*A bit for bit, and canonical
    as it comes.  When every row holds its diagonal entry the pattern stays,
    so the sum is formed on the CSR arrays: the diagonal becomes
    1 + scale*a_ii and entries that come out as exact zeros are dropped.  A
    row without one (a Dirichlet row, a dry stretch of film) needs a 1
    inserted, which scipy's merge does in one pass, faster than numpy can
    shift the arrays."""
    n = a.dimension
    # stored entries are nonzero, so a zero on the diagonal is a missing one
    if np.count_nonzero(a.csr.diagonal()) < n:
        return SparseMatrix.from_canonical(sp.identity(n, format="csr") + float(scale) * a.csr)
    diag = np.flatnonzero(a.indices == a.entry_rows())
    data = a.data * float(scale)
    data[diag] += 1.0
    keep = data != 0.0
    cols, indptr = a.indices.copy(), a.indptr.copy()
    if not keep.all():
        data, cols = data[keep], cols[keep]
        indptr -= np.searchsorted(np.flatnonzero(~keep), indptr)
    return SparseMatrix.from_canonical(sp.csr_matrix((data, cols, indptr), shape=(n, n)))


@dataclass(frozen=True)
class SolveReport:
    """How one verified solve went.  iterations counts the refinement
    sweeps beyond the first; refactored says the solve outgrew a stale LU
    and factored its matrix afresh."""

    residual_norm: float
    iterations: int
    method: str
    tolerance: float
    refactored: bool = False


def default_tolerance(a: SparseMatrix) -> float:
    """1e-12 times the system scale; the residual check is relative to
    max(1, |rhs|_inf), so stiff operators get proportional slack."""
    return 1e-12 * max(1.0, a.operator_norm_inf())


def _diagonal_leads_columns(csc: sp.csc_matrix) -> bool:
    """Whether every column's diagonal entry is the largest in magnitude in
    that column (ties count); a matrix with an empty column is not.

    Partial pivoting at SuperLU's default threshold of 1.0 then takes the
    diagonal as each column's first candidate, so the symmetric strategy
    (an A + A^T minimum-degree ordering, applied to rows and columns alike)
    fits the matrix."""
    if not np.all(np.diff(csc.indptr)):
        return False
    # largest magnitude per column from its largest and smallest entry, with
    # no temporary the size of the matrix
    starts = csc.indptr[:-1]
    column_max = np.maximum(np.maximum.reduceat(csc.data, starts),
                            -np.minimum.reduceat(csc.data, starts))
    return bool(np.all(np.abs(csc.diagonal()) >= column_max))


class Factorization:
    """Reusable LU of one SparseMatrix; each solve re-verifies its residual,
    against the factored matrix or a later one of the same dimension."""

    def __init__(self, a: SparseMatrix, tol: float = None):
        self._a = a
        self._tol = default_tolerance(a) if tol is None else float(tol)
        if self._tol <= 0:
            raise ValueError("solver tolerance must be positive")
        kl, ku = a.bandwidth()
        n = a.dimension
        if max(kl, ku) <= BANDED_BANDWIDTH_MAX:
            self._route = "banded-lu"
            ab = np.zeros((2 * kl + ku + 1, n))
            ab[kl + ku + a.entry_rows() - a.indices, a.indices] = a.data
            gbtrf, self._gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
            lu, ipiv, info = gbtrf(ab, kl, ku)
            if info > 0:
                raise SolveError(
                    f"singular banded system (zero pivot at row {info - 1}); "
                    f"|A|_inf = {a.operator_norm_inf():.3e}"
                )
            if info < 0:
                raise SolveError(f"banded factorization failed (lapack info {info})")
            self._lu, self._ipiv, self._kl, self._ku = lu, ipiv, kl, ku
        else:
            csc = a.csr.tocsc()
            if _diagonal_leads_columns(csc):
                self._route = "sparse-lu/symmetric"
                ordering = dict(permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
            else:
                self._route = "sparse-lu/colamd"
                ordering = {}
            try:
                self._splu = spla.splu(csc, **ordering)
            except RuntimeError as err:
                raise SolveError(
                    f"sparse factorization failed ({err}); |A|_inf = {a.operator_norm_inf():.3e}"
                ) from err

    @property
    def method(self) -> str:
        """"banded-lu" or "sparse-lu"."""
        return self._route.split("/")[0]

    @property
    def route(self) -> str:
        """The method and, for SuperLU, its ordering: "banded-lu",
        "sparse-lu/symmetric" or "sparse-lu/colamd"."""
        return self._route

    def _backsub(self, rhs: np.ndarray) -> np.ndarray:
        if self._route == "banded-lu":
            x, info = self._gbtrs(self._lu, self._kl, self._ku, rhs, self._ipiv)
            if info != 0:
                raise SolveError(f"banded back-substitution failed (lapack info {info})")
            return x
        return self._splu.solve(rhs)

    def _refine(self, a: SparseMatrix, rhs: np.ndarray, tol: float, sweeps_max: int) -> tuple:
        """(x, residual, sweeps): the LU's answer refined against a, sweep by
        sweep, until the max-norm residual relative to max(1, |rhs|_inf)
        meets tol (a NaN residual never does) or sweeps_max sweeps are done.

        With an LU of a itself one sweep keeps the residual near machine
        level even for stiff operators."""
        x = self._backsub(rhs)
        x = x + self._backsub(rhs - a.matvec(x))
        scale = max(1.0, float(np.max(np.abs(rhs))))
        sweeps = 1
        while True:
            r = a.matvec(x) - rhs
            residual = float(np.max(np.abs(r))) / scale
            if residual <= tol or sweeps == sweeps_max:
                return x, residual, sweeps
            x = x - self._backsub(r)
            sweeps += 1

    def solve(self, rhs: np.ndarray, a: SparseMatrix = None) -> tuple:
        """(x, SolveReport) with a x = rhs verified; a defaults to the
        factored matrix.

        Another matrix a is solved with this LU as a stale one, refined
        against a until its residual meets default_tolerance(a).  If
        STALE_SWEEPS_MAX sweeps beyond the first do not get there, a is
        factored in place (this object holds a's LU from then on) and solved
        as a fresh one.  A fresh LU that misses its tolerance after one
        sweep raises SolveError."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self._a.dimension,):
            raise ValueError(
                f"rhs has shape {rhs.shape}, expected ({self._a.dimension},)"
            )
        _require_finite(rhs, "solve rhs")
        stale_sweeps, refactored = 0, False
        if a is not None and a is not self._a:
            if a.dimension != self._a.dimension:
                raise ValueError("a stale LU serves matrices of its own dimension only")
            tol = default_tolerance(a)
            x, residual, stale_sweeps = self._refine(a, rhs, tol, 1 + STALE_SWEEPS_MAX)
            if residual <= tol:
                return x, SolveReport(residual, stale_sweeps - 1, self.method, tol)
            # the same construction as every other factorization, in place
            self.__init__(a)
            refactored = True
        x, residual, _ = self._refine(self._a, rhs, self._tol, 1)
        if not residual <= self._tol:
            raise SolveError(
                f"solution failed verification: residual {residual:.3e} > tol "
                f"{self._tol:.3e} ({self.method}, |A|_inf = {self._a.operator_norm_inf():.3e})"
            )
        return x, SolveReport(residual, stale_sweeps, self.method, self._tol, refactored)


SourceTerm = Union[np.ndarray, Callable[[float], np.ndarray]]


@dataclass(frozen=True)
class SparseOperator:
    """One-step scheme pair: B1 u^{n+1} = B0 u^n + F^n.

    ``source`` is the fixed vector F, or a callable t_n -> F^n when the
    forcing or boundary data move in time.
    """

    b1: SparseMatrix
    b0: SparseMatrix
    source: SourceTerm

    def __post_init__(self):
        n = self.b1.dimension
        if self.b0.dimension != n:
            raise ValueError("B0 and B1 dimensions differ")
        if isinstance(self.source, np.ndarray) and self.source.shape != (n,):
            raise ValueError("source vector length does not match the matrices")

    @property
    def dimension(self) -> int:
        return self.b1.dimension

    def source_at(self, t: float) -> np.ndarray:
        if callable(self.source):
            f = np.asarray(self.source(t), dtype=float)
        else:
            f = self.source
        if f.shape != (self.dimension,):
            raise ValueError("source callback returned a vector of wrong length")
        return f
