"""Square sparse matrices and the direct solvers the steppers run on.

SparseMatrix holds a square matrix in scipy's DIA layout, data[c, j] =
A[j - offsets[c], j]: every operator in this package is a fixed stencil
(the 1D film's five diagonals, the 2D film's 13, the anisotropic 9-point
operator's nine).  It carries no arithmetic beyond what the solvers need (a
product, a norm, the shift of identity_plus), and scipy computes it: the
product and the row sums of |A| behind the norm come from scipy's compiled
DIA loop, the one dia_array @ x runs, which _dia_product calls on the held
arrays.  That loop is private to scipy (scipy.sparse._sparsetools), and
only _dia_product names it: a dia_array built per product would cost more
than the loop itself (on a 2-vCPU host, 21-24 us to build and 4-5 us of
dispatch, against 5 us for the 1D film's product and 12 us for the 40x40
film's; |A| @ ones on it took 34 us against 6 us).  The loop sums each row
diagonal by diagonal, in ascending column order from 0.0, as scipy's CSR
product does, so it gives CSR's bits.  CSR (sorted column indices, no
explicit zeros) is dia_array.tocsr(), formed once per matrix when a caller
asks for it: SuperLU, the scheme diagnostics and tests read it.  LAPACK's
band storage is column-aligned as DIA is, so banded LU fills it by copying
each diagonal into one row.

Solves are direct: systems whose bandwidth is at most BANDED_BANDWIDTH_MAX
on each side go through LAPACK banded LU (gbtrf/gbtrs), everything else
through SuperLU.  SuperLU factors the transpose A^T, which is A's CSR arrays
read as CSC (no copy), and solves transposed (trans="T"), which returns the
x of A x = b.  Its transposed triangular solves gather where the plain ones
scatter: on the same LU they take 0.64-0.91 times as long on the whole
anisotropic systems (J = 40 to 160) and the 40x40 and 80x80 films, whose
fill is the same either way round.  The ordering follows the matrix SuperLU
factors.  When every column's diagonal entry is the largest in magnitude in
that column (every row's, in A), partial pivoting takes the diagonal first,
so the symmetric strategy fits: an A + A^T minimum-degree ordering in
SymmetricMode.  On the 2D film it halves the factorization time and cuts the
fill by a fifth (40x40) to a third (80x80) against the default.  Other
matrices keep the default COLAMD ordering.  The shifted 2D film operators
pass the test either way round, also where the film is dry.  The shifted 1D
film operators fail it either way round (J = 100 and 1000 at t = 0), but
they are pentadiagonal and go through banded LU, so they never reach
SuperLU.  A whole anisotropic system passes it on A^T, since its Dirichlet
rows hold only their diagonal 1; A itself would not, as those 1s sit under
column entries up to 5.6e4 times larger (J = 160), where the symmetric
strategy pivots off the diagonal and triples the fill.  The stepper factors
the whole system, identity rows included (fill 1.96M against COLAMD's 3.30M
on A at J = 160): a solve whose right-hand side holds the Dirichlet values
there returns them there, and the residual is the whole system's.  The pivot threshold stays at SuperLU's
default of 1.0 either way.

Every solve checks the LU's answer against the system (max-norm residual
against the system's default_tolerance) and refines it only while that
check fails, so a returned solution is always a checked one.  An LU of the
system itself gets one refinement sweep if its answer misses and fails after
that; on the film and anisotropic systems its first answer verifies, so such
a solve is one backsubstitution.  An LU may also serve a later, nearby matrix
(the film's lagged operator moves little from one step to the next): the
solve then refines against that matrix until its residual meets the
matrix's own default_tolerance, and factors the matrix afresh once
1 + STALE_SWEEPS_MAX sweeps have not got there.  Such a solve may start from
a guess (the stepper's: the step's floored starting state plus the stage's
extrapolated increments, the later stages' corrected by the step's
earlier miss): its first backsubstitution then corrects the guess instead
of solving the right-hand side from zero.  On the 40x40 film to t = 4e-4
the stale LU's own answer misses by a median 2.2e6 tolerances, the guess
by 4.7 and the corrected guess by 0.061, so fewer sweeps follow and the LU
is outgrown less often.  A fresh LU ignores a guess, as the solve
right after a refactor does: its own answer is far finer than a guess that
merely passes the check.  Every solve reports the product a x that its
check took of the returned x (SolveReport.product), which the stepper turns
into the stage's slope instead of taking a product of its own.

The steppers factor shifted systems I - a_ii*dt*L (identity_plus) and solve
every implicit stage against them, shifted on their diagonals.  The 1D
film's pentadiagonal system is factored fresh every step (gbtrf and gbtrs
are looked up once, at import), so its steps build no scipy sparse matrix;
a 2D film step builds CSR only when it factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools
from scipy.linalg import get_lapack_funcs

from .grids import _require_finite

BANDED_BANDWIDTH_MAX = 5
#: refinement sweeps a solve against a matrix other than the factored one
#: may take beyond the first before it factors that matrix afresh
STALE_SWEEPS_MAX = 3
#: the banded LU pair, looked up once instead of per factorization
_GBTRF, _GBTRS = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)


class SolveError(RuntimeError):
    """Singular system or a residual that failed verification."""


def _dia_product(offsets: np.ndarray, data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the square DIA matrix (offsets, data) by scipy's compiled
    loop: it adds data[c, j] * x[j] into row j - offsets[c], diagonal by
    diagonal in stored order, from 0.0, and reads no slot off the matrix."""
    n = data.shape[1]
    y = np.zeros(n)
    _sparsetools.dia_matvec(n, n, len(offsets), n, offsets, data, x, y)
    return y


class SparseMatrix:
    """Immutable-by-convention square matrix in scipy's DIA layout.

    data[c, j] = A[j - offsets[c], j], offsets ascending with 0 among them;
    slots off the matrix hold zeros, and a zero on the matrix is an entry
    that CSR does not store.  The constructor adopts the arrays as they
    are.  Products and row sums run scipy's DIA loop on them (_dia_product),
    with no scipy matrix built.  nnz counts the nonzero entries, where
    dia_array.nnz would count the slots.  csr and to_dense form the CSR
    matrix on first use."""

    def __init__(self, offsets: np.ndarray, data: np.ndarray):
        self._offsets, self._data = offsets, data

    @cached_property
    def csr(self) -> sp.csr_array:
        n = self.dimension
        return sp.dia_array((self._data, self._offsets), shape=(n, n)).tocsr()

    @property
    def dimension(self) -> int:
        return self._data.shape[1]

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._data))

    def diagonals(self) -> tuple:
        """(offsets, data) with data[c, j] = A[j - offsets[c], j], zero off
        the matrix."""
        return self._offsets, self._data

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.dimension
        if x.shape != (n,):
            raise ValueError(f"matvec operand has shape {x.shape}, expected ({n},)")
        return _dia_product(self._offsets, self._data, x)

    def abs_row_sums(self) -> np.ndarray:
        """Row sums of |A|, each in ascending column order: the product of
        |A| with a ones vector."""
        return _dia_product(self._offsets, np.abs(self._data), np.ones(self.dimension))

    def operator_norm_inf(self) -> float:
        """Exact max absolute row sum, computed on first use and kept."""
        return self._norm

    @cached_property
    def _norm(self) -> float:
        return float(self.abs_row_sums().max(initial=0.0))

    def bandwidth(self) -> tuple:
        """(lower, upper) bandwidth of the stored entries."""
        used = self._offsets[self._data.any(axis=1)]
        return (int(-used.min(initial=0)), int(used.max(initial=0)))

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


def identity_plus(a: SparseMatrix, scale: float) -> SparseMatrix:
    """I + scale * A, the shifted systems the implicit steppers factor:
    scale*data with 1 added to the main diagonal.  Equal to scipy's sorted
    merge of I and scale*A bit for bit; a row without a diagonal entry (a
    Dirichlet row, a dry stretch of film) needs nothing inserted, as the
    main diagonal is always among the stored ones."""
    offsets, data = a.diagonals()
    shifted = data * float(scale)
    shifted[offsets == 0] += 1.0
    return SparseMatrix(offsets, shifted)


@dataclass(frozen=True)
class SolveReport:
    """How one verified solve went.  iterations counts the
    backsubstitutions beyond the first, those on a stale LU included when
    the solve outgrew it; refactored says it did, and factored its matrix
    afresh.  product is a x, the product the check took of the returned x
    with the system it was verified against (the new matrix after a
    refactor), so a caller can reuse it."""

    residual_norm: float
    iterations: int
    tolerance: float
    product: np.ndarray = field(repr=False, compare=False)
    refactored: bool = False


def default_tolerance(a: SparseMatrix) -> float:
    """1e-12 times the system scale max(1, |A|_inf); the residual check is
    relative to max(1, |rhs|_inf), so stiff operators get proportional
    slack.  A system with Dirichlet identity rows is measured whole: its
    scale counts the boundary columns of the interior rows."""
    return 1e-12 * max(1.0, a.operator_norm_inf())


def _diagonal_leads_columns(csc: sp.csc_matrix) -> bool:
    """Whether every column's diagonal entry is the largest in magnitude in
    that column (ties count); a matrix with an empty column is not.

    Factorization asks it of the matrix SuperLU factors, A^T read from A's
    CSR arrays, whose columns are the rows of A.  Partial pivoting at
    SuperLU's default threshold of 1.0 then takes the diagonal as each
    column's first candidate, so the symmetric strategy (an A + A^T
    minimum-degree ordering, applied to rows and columns alike) fits the
    matrix."""
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
    against the factored matrix or a later one of the same dimension.

    A banded matrix is factored as it is, its LAPACK band storage filled
    from its diagonals, with no CSR formed.  Any other is factored by
    SuperLU as its transpose, A's CSR arrays read as CSC, and solved
    transposed, so every backsubstitution still returns the x of A x = b.
    fill counts the stored entries of the LU: SuperLU's nnz of L and U, or
    the size of the LAPACK band array."""

    def __init__(self, a: SparseMatrix):
        self._a = a
        self._tol = default_tolerance(a)
        kl, ku = a.bandwidth()
        n = a.dimension
        if max(kl, ku) <= BANDED_BANDWIDTH_MAX:
            self._route = "banded-lu"
            # LAPACK band storage, ab[kl + ku + i - j, j] = A[i, j], is
            # column-aligned as the DIA data is: each diagonal is one row
            ab = np.zeros((2 * kl + ku + 1, n), order="F")
            offsets, data = a.diagonals()
            for o, diagonal in zip(offsets, data):
                if -kl <= o <= ku:
                    ab[kl + ku - o] = diagonal
            # a zero on the diagonals may be -0.0, which CSR never stores
            ab += 0.0
            # Fortran-ordered and overwritten, so f2py copies nothing
            lu, ipiv, info = _GBTRF(ab, kl, ku, overwrite_ab=True)
            if info > 0:
                raise SolveError(
                    f"singular banded system (zero pivot at row {info - 1}); "
                    f"|A|_inf = {a.operator_norm_inf():.3e}"
                )
            if info < 0:
                raise SolveError(f"banded factorization failed (lapack info {info})")
            self._lu, self._ipiv, self._kl, self._ku = lu, ipiv, kl, ku
            self.fill = lu.size
        else:
            # A's CSR arrays read as CSC are A^T, with no copy
            csr = a.csr
            at = sp.csc_matrix((csr.data, csr.indices, csr.indptr), shape=(n, n))
            if _diagonal_leads_columns(at):
                self._route = "sparse-lu/symmetric"
                ordering = dict(permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
            else:
                self._route = "sparse-lu/colamd"
                ordering = {}
            try:
                self._splu = spla.splu(at, **ordering)
            except RuntimeError as err:
                raise SolveError(
                    f"sparse factorization failed ({err}); |A|_inf = {a.operator_norm_inf():.3e}"
                ) from err
            self.fill = self._splu.nnz

    @property
    def matrix(self) -> SparseMatrix:
        """The matrix this LU is of; solves of any other are stale ones."""
        return self._a

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
            x, info = _GBTRS(self._lu, self._kl, self._ku, rhs, self._ipiv)
            if info != 0:
                raise SolveError(f"banded back-substitution failed (lapack info {info})")
            return x
        # the LU is A^T's: its transposed solve is A's
        return self._splu.solve(rhs, trans="T")

    def _refine(self, a: SparseMatrix, rhs: np.ndarray, scale: float, tol: float,
                sweeps_max: int, guess: np.ndarray = None) -> tuple:
        """(x, a x, residual, sweeps): the LU's answer, or the guess
        corrected by one backsubstitution, checked against a and refined
        sweep by sweep only while its max-norm residual relative to scale
        misses tol (a NaN residual always does), for at most sweeps_max
        sweeps."""
        if guess is None:
            x = self._backsub(rhs)
        else:
            x = guess - self._backsub(a.matvec(guess) - rhs)
        sweeps = 0
        while True:
            ax = a.matvec(x)
            r = ax - rhs
            residual = float(np.max(np.abs(r))) / scale
            if residual <= tol or sweeps == sweeps_max:
                return x, ax, residual, sweeps
            x = x - self._backsub(r)
            sweeps += 1

    def solve(self, rhs: np.ndarray, a: SparseMatrix = None,
              guess: np.ndarray = None) -> tuple:
        """(x, SolveReport) with a x = rhs verified; a defaults to the
        factored matrix.  The residual is measured against max(1, |rhs|_inf).
        A system with Dirichlet identity rows is solved whole: its rhs holds
        the boundary values there, and the interior rows are measured on the
        scale of that whole right-hand side.

        Another matrix a is solved with this LU as a stale one, refined
        against a until its residual meets default_tolerance(a).  The first
        backsubstitution solves rhs, or, given a guess g, corrects it:
        x = g - LU^{-1}(a g - rhs).  If 1 + STALE_SWEEPS_MAX sweeps do not
        get there (a non-finite guess never does), a is factored in place
        (this object holds a's LU from then on) and solved as a fresh one,
        from rhs.  A fresh LU ignores the guess; its answer still missing
        the tolerance after one sweep raises SolveError.  Every solve takes
        at least one backsubstitution, and SolveReport.iterations counts
        those beyond the first; SolveReport.product is a x of the returned
        x, taken by the check that passed it."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self._a.dimension,):
            raise ValueError(
                f"rhs has shape {rhs.shape}, expected ({self._a.dimension},)"
            )
        # one pass gives the scale and, unless it is finite, the error
        top = float(np.max(np.abs(rhs), initial=0.0))
        if not np.isfinite(top):
            _require_finite(rhs, "solve rhs")
        scale = max(1.0, top)
        stale, refactored = 0, False
        if a is not None and a is not self._a:
            if a.dimension != self._a.dimension:
                raise ValueError("a stale LU serves matrices of its own dimension only")
            tol = default_tolerance(a)
            x, ax, residual, sweeps = self._refine(a, rhs, scale, tol, 1 + STALE_SWEEPS_MAX,
                                                   guess)
            if residual <= tol:
                return x, SolveReport(residual, sweeps, tol, ax)
            # the same construction as every other factorization, in place
            self.__init__(a)
            stale, refactored = 1 + sweeps, True
        x, ax, residual, sweeps = self._refine(self._a, rhs, scale, self._tol, 1)
        if not residual <= self._tol:
            raise SolveError(
                f"solution failed verification: residual {residual:.3e} > tol "
                f"{self._tol:.3e} ({self.method}, |A|_inf = {self._a.operator_norm_inf():.3e})"
            )
        return x, SolveReport(residual, stale + sweeps, self._tol, ax, refactored)

