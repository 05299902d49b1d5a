"""Implicit one-step integrators with a cutoff applied between steps.

The schemes all fit the pattern: take the current state, floor it (plain or
delta cutoff), advance one implicit step, and leave the new state uncut so
its undershoot stays observable.  One loop, ``march``, does this for every
problem: it floors once per step, asks a provider for the step's operator L
(the same matrix every step for a linear problem, one assembled from the
floored state for the thin film), records pre- and post-cutoff statistics,
and returns the post-cutoff state.

Every step of a run is taken by one stage solver, ``DirkStepper``, built
once per run and driven by a stiffly accurate diagonally implicit
Runge-Kutta tableau with a single nonzero diagonal value, so one shifted
system I - a_ii*dt*L serves all implicit stages of a step.  The stepper owns
that system, its LU and the reuse policy: an operator handed over again is
neither shifted nor factored again; a new one is shifted, and factored when
the LU in hand is a banded one (it costs about two backsubstitutions), while
a sparse LU is kept and its solves refine against the new system until they
outgrow it (linalg.Factorization.solve).  The counts of what it did go into
the run's trace as SolverStats.  Two tableaux are provided:

* the theta-method as a 2-stage EDIRK whose first stage is explicit
  (theta = 1 backward Euler, theta = 1/2 Crank-Nicolson),
* a 3-stage, L-stable SDIRK method of classical order 3 whose diagonal
  gamma is the root of g^3 - 3g^2 + (3/2)g - 1/6 in (1/6, 1/2).

Stages never apply the cutoff; only the step boundary does.  The paper's
matrix pair B1 u^{n+1} = B0 (u^n)^+ + F^n of the theta-method survives in
``theta_operator``, for the max-norm diagnostics and as the one-step
reference ``step_linear`` that the theta runs are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cutoff import CutoffParams, apply_floor
from .grids import Field, Grid, trapezoid_weights
from .linalg import Factorization, SolveError, SparseMatrix, SparseOperator, identity_plus

#: diagonal of the 3-stage SDIRK scheme; real root of
#: g^3 - 3 g^2 + (3/2) g - 1/6 in (1/6, 1/2)
SDIRK3_GAMMA = 0.43586652150845906


class DivergenceError(RuntimeError):
    """Raised when a run cannot go on (a non-finite state, no operator can
    be built from the state, or a stage solve fails); carries the trace up
    to failure."""

    def __init__(self, message: str, trace: "RunTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients (a, b, c) with classical order attached."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        s = b.size
        if a.shape != (s, s) or c.shape != (s,):
            raise ValueError("tableau shapes are inconsistent")
        if np.max(np.abs(a.sum(axis=1) - c)) > 1e-13:
            raise ValueError("tableau row sums must equal the abscissae c")
        if abs(b.sum() - 1.0) > 1e-13:
            raise ValueError("tableau weights must sum to 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def stages(self) -> int:
        return self.b.size

    @property
    def is_sdirk(self) -> bool:
        d = np.diag(self.a)
        return bool(np.all(d > 0) and np.max(np.abs(d - d[0])) == 0.0)

    @property
    def stiffly_accurate(self) -> bool:
        return bool(np.array_equal(self.a[-1], self.b))

    @cached_property
    def dirk_plan(self) -> tuple:
        """(implicit diagonal value or 0.0, stages DirkStepper evaluates),
        checked once per tableau: ValueError unless the tableau is diagonally
        implicit, stiffly accurate and has one nonzero diagonal value."""
        a = self.a
        if np.any(np.triu(a, k=1) != 0.0):
            raise ValueError("the stage solver needs a diagonally implicit tableau")
        if not self.stiffly_accurate:
            raise ValueError("the stage solver needs a stiffly accurate tableau")
        diag = np.diag(a)
        implicit = np.unique(diag[diag != 0.0])
        if implicit.size > 1:
            raise ValueError(
                f"the stage solver needs a single implicit diagonal value, got {implicit}"
            )
        s = self.stages
        live = [i for i in range(s) if i == s - 1 or np.any(a[i + 1:, i] != 0.0)]
        return (float(implicit[0]) if implicit.size else 0.0), live

    def stability(self, z: complex) -> complex:
        """R(z) = 1 + z b^T (I - z A)^{-1} 1."""
        s = self.stages
        return complex(
            1.0 + z * (self.b @ np.linalg.solve(np.eye(s) - z * self.a, np.ones(s)))
        )

    def stability_at_infinity(self) -> float:
        """lim_{z->-inf} R(z) = 1 - b^T A^{-1} 1 (requires invertible A)."""
        return float(1.0 - self.b @ np.linalg.solve(self.a, np.ones(self.stages)))


def sdirk3_tableau() -> ButcherTableau:
    g = SDIRK3_GAMMA
    b1 = -(6.0 * g * g - 16.0 * g + 1.0) / 4.0
    b2 = (6.0 * g * g - 20.0 * g + 5.0) / 4.0
    a = np.array([
        [g, 0.0, 0.0],
        [(1.0 - g) / 2.0, g, 0.0],
        [b1, b2, g],
    ])
    return ButcherTableau(a=a, b=np.array([b1, b2, g]), c=np.array([g, (1.0 + g) / 2.0, 1.0]), order=3)


def theta_tableau(theta: float) -> ButcherTableau:
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    a = np.array([[0.0, 0.0], [1.0 - theta, theta]])
    order = 2 if theta == 0.5 else 1
    return ButcherTableau(a=a, b=np.array([1.0 - theta, theta]), c=np.array([0.0, 1.0]), order=order)


@dataclass(frozen=True)
class StepperConfig:
    """Fixed-step run configuration.

    cutoff = None disables flooring entirely; CutoffParams(0.0) is the plain
    nonnegative cutoff.  Every factorization checks its solves against its
    own scale-aware tolerance (linalg.default_tolerance).  snapshot_every
    stores the post-cutoff state every k-th step (in addition to any
    explicit snapshot_times).
    """

    dt: float
    t_end: float
    t0: float = 0.0
    cutoff: Optional[CutoffParams] = None
    integrator: str = "sdirk3"
    theta: float = 1.0
    snapshot_times: tuple = ()
    snapshot_every: Optional[int] = None

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")
        if self.integrator not in ("theta", "sdirk3"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be a positive step count")
        if any(t2 <= t1 for t1, t2 in zip(self.snapshot_times, self.snapshot_times[1:])):
            raise ValueError("snapshot_times must be strictly increasing")
        self.n_steps  # validate divisibility eagerly

    @property
    def n_steps(self) -> int:
        span = self.t_end - self.t0
        k = int(round(span / self.dt))
        if k < 1 or abs(k * self.dt - span) > 1e-6 * self.dt:
            raise ValueError(
                f"t_end - t0 = {span} is not an integer multiple of dt = {self.dt}"
            )
        return k


@dataclass(frozen=True)
class StepRecord:
    step: int
    t: float
    min_pre: float
    min_post: float
    mass_pre: float
    mass_post: float
    residual: float


@dataclass
class SolverStats:
    """What the stage solves of one run, or of several added up, did: the
    LU routes in order of first use (linalg.Factorization.route), and how
    many factorizations, verified solves and refinement sweeps beyond each
    solve's first there were."""

    routes: list = field(default_factory=list)
    factorizations: int = 0
    solves: int = 0
    extra_sweeps: int = 0

    def factored(self, route: str):
        self.factorizations += 1
        if route not in self.routes:
            self.routes.append(route)

    def add(self, other: "SolverStats"):
        self.routes += [route for route in other.routes if route not in self.routes]
        self.factorizations += other.factorizations
        self.solves += other.solves
        self.extra_sweeps += other.extra_sweeps


@dataclass
class RunTrace:
    """Per-step scalar statistics plus full fields at requested snapshots.

    min_pre/mass_pre describe the state a step produced before any cutoff;
    min_post/mass_post the floored state the next step consumes.  Snapshots
    store post-cutoff fields.  solver counts the run's factorizations and
    solves.
    """

    records: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    diverged: bool = False
    solver: SolverStats = field(default_factory=SolverStats)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("step,t,min_pre,min_post,mass_pre,mass_post,residual\n")
            for r in self.records:
                fh.write(
                    f"{r.step},{r.t:.17g},{r.min_pre:.17g},{r.min_post:.17g},"
                    f"{r.mass_pre:.17g},{r.mass_post:.17g},{r.residual:.17g}\n"
                )

    def snapshot_near(self, t: float, tol: float) -> Field:
        for ts, f in self.snapshots:
            if abs(ts - t) <= tol:
                return f
        raise KeyError(f"no snapshot within {tol} of t = {t}")


@dataclass(frozen=True)
class LinearProblem:
    """Semidiscrete linear IBVP: du/dt = L u + s(t) at interior nodes,
    u = g(t) at Dirichlet nodes.

    l_matrix must have zero rows at the Dirichlet nodes (the steppers turn
    them into identity rows of the shifted systems); source(t) is zero there
    and boundary_values(t) is zero off them.
    """

    grid: Grid
    l_matrix: SparseMatrix
    dirichlet_mask: np.ndarray
    source: Callable[[float], np.ndarray]
    boundary_values: Callable[[float], np.ndarray]
    initial_values: np.ndarray
    exact: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        n = self.grid.node_count
        if self.l_matrix.dimension != n:
            raise ValueError("operator dimension does not match the grid")
        mask = np.asarray(self.dirichlet_mask, dtype=bool)
        if mask.shape != (n,):
            raise ValueError("dirichlet mask length does not match the grid")
        init = np.asarray(self.initial_values, dtype=float)
        if init.shape != (n,):
            raise ValueError("initial values length does not match the grid")
        object.__setattr__(self, "dirichlet_mask", mask)
        object.__setattr__(self, "initial_values", init)


def theta_operator(problem: LinearProblem, dt: float, theta: float) -> SparseOperator:
    """Assemble the theta-method pair for one linear problem.

    B1 = I - theta*dt*L picks up identity rows at Dirichlet nodes for free
    (their L rows are zero); B0 keeps the interior identity only, so boundary
    values enter purely through the source, pinned at the new time level.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    mask = problem.dirichlet_mask
    b1 = identity_plus(problem.l_matrix, -theta * dt)
    interior = sp.diags((~mask).astype(float), format="csr")
    b0 = SparseMatrix(interior + (1.0 - theta) * dt * problem.l_matrix.csr)

    def source(t: float) -> np.ndarray:
        f = dt * (theta * problem.source(t + dt) + (1.0 - theta) * problem.source(t))
        if mask.any():
            f = np.where(mask, problem.boundary_values(t + dt), f)
        return f

    return SparseOperator(b1=b1, b0=b0, source=source)


def _floor_values(values: np.ndarray, cutoff: Optional[CutoffParams]) -> np.ndarray:
    if cutoff is None:
        return values
    return apply_floor(values, cutoff.delta)


def step_linear(op: SparseOperator, u: Field, cfg: StepperConfig, t: float = 0.0) -> Field:
    """One step of B1 u^{n+1} = B0 (u^n)^+ + F^n.

    The cutoff (if enabled in cfg) is applied to the incoming state before
    the right-hand side is formed; the returned state is not cut.
    """
    rhs = op.b0.matvec(_floor_values(u.values, cfg.cutoff)) + op.source_at(t)
    x, _ = Factorization(op.b1).solve(rhs)
    return Field(u.grid, x)


class DirkStepper:
    """Stage solver of du/dt = L u + s(t) for one stiffly accurate,
    diagonally implicit tableau; solves I - a_ii*dt*L for every implicit
    stage, with L the operator last handed to ``use``.

    Stages with a_ii = 0 are explicit.  A stage whose slope no later stage
    uses is skipped, unless it is the last one, whose value is the new state.
    Nodes in dirichlet_mask take boundary_values at the time of every
    implicit stage and of the last stage.
    Stages use the state exactly as handed in -- flooring happens only at
    step boundaries, in the run loop.
    """

    def __init__(self, tableau: ButcherTableau, l_matrix: SparseMatrix, dt: float,
                 source: Callable[[float], np.ndarray] = None,
                 dirichlet_mask: np.ndarray = None,
                 boundary_values: Callable[[float], np.ndarray] = None):
        gamma, self._live = tableau.dirk_plan
        self._tab = tableau
        self._dt = dt
        self._shift = -gamma * dt
        self._source = source
        self._mask = dirichlet_mask if dirichlet_mask is not None and dirichlet_mask.any() else None
        self._bvals = boundary_values
        self.stats = SolverStats()
        self._l = self._system = self._fact = None
        self.use(l_matrix)

    def use(self, l_matrix: SparseMatrix):
        """Take l_matrix as the operator of the steps that follow.  The
        matrix in use changes nothing; another one is shifted, and factored
        unless the LU in hand is a sparse one, which its solves then refine
        against the new system."""
        if l_matrix is self._l:
            return
        self._l = l_matrix
        if not self._shift:
            return
        self._system = identity_plus(l_matrix, self._shift)
        if self._fact is None or self._fact.method == "banded-lu":
            self._fact = Factorization(self._system)
            self.stats.factored(self._fact.route)

    def _solve(self, rhs: np.ndarray) -> tuple:
        x, report = self._fact.solve(rhs, self._system)
        if report.refactored:
            self.stats.factored(self._fact.route)
        self.stats.solves += 1
        self.stats.extra_sweeps += report.iterations
        return x, report

    def step(self, values: np.ndarray, t: float) -> tuple:
        """(new state, worst stage residual) of one step from t."""
        a, c = self._tab.a, self._tab.c
        dt = self._dt
        ks = {}
        worst = 0.0
        for i in self._live:
            ti = t + c[i] * dt
            rhs = values.copy()
            for j in ks:
                if a[i, j] != 0.0:
                    rhs += (dt * a[i, j]) * ks[j]
            src = self._source(ti) if self._source is not None else None
            if src is not None:
                rhs += (a[i, i] * dt) * src
            # an explicit inner stage reads the incoming (floored) boundary
            # values, as the B0 (u^n)^+ of the theta pair does
            if self._mask is not None and (a[i, i] != 0.0 or i == self._live[-1]):
                rhs[self._mask] = self._bvals(ti)[self._mask]
            if a[i, i] == 0.0:
                x = rhs
            else:
                x, report = self._solve(rhs)
                worst = max(worst, report.residual_norm)
            if i != self._live[-1]:
                k = self._l.matvec(x)
                if src is not None:
                    k += src
                ks[i] = k
        # stiffly accurate: the last stage value is the new state
        return x, worst


def _wants_snapshot(step: int, t: float, cfg: StepperConfig) -> bool:
    if cfg.snapshot_every is not None and step % cfg.snapshot_every == 0:
        return True
    return any(abs(t - ts) <= 0.5 * cfg.dt for ts in cfg.snapshot_times)


def march(grid: Grid, initial: np.ndarray, cfg: StepperConfig, tableau: ButcherTableau,
          operator_for: Callable[[np.ndarray], SparseMatrix], **stage_terms) -> tuple:
    """Advance from t0 to t_end with fixed dt; the one loop every run uses.

    Per step: floor the current state (if a cutoff is configured), hand
    operator_for(floored) to the run's one DirkStepper (built on the first
    step with stage_terms: source, dirichlet_mask, boundary_values), take the
    step, record pre- and post-cutoff statistics of the new state.  Returns
    (final_field, trace) where the final field is post-cutoff and
    trace.solver holds the stepper's counts.  A ValueError from operator_for
    (an operator that cannot be built from the state), a SolveError from the
    step, or a non-finite state raises DivergenceError carrying the partial
    trace.
    """
    weights = trapezoid_weights(grid)
    trace = RunTrace()

    def mass_of(vals: np.ndarray) -> float:
        # numpy's pairwise sum, not a BLAS dot: the digits must not depend
        # on how many threads BLAS splits the dot across
        return float(np.sum(weights * vals))

    def record(step: int, t: float, vals: np.ndarray, floored: np.ndarray, residual: float):
        trace.records.append(StepRecord(
            step=step, t=t,
            min_pre=float(vals.min()), min_post=float(floored.min()),
            mass_pre=mass_of(vals), mass_post=mass_of(floored),
            residual=residual,
        ))
        if _wants_snapshot(step, t, cfg):
            trace.snapshots.append((t, Field(grid, floored.copy())))

    def diverged(message: str) -> DivergenceError:
        trace.diverged = True
        return DivergenceError(message, trace)

    floored = _floor_values(initial, cfg.cutoff)
    record(0, cfg.t0, initial, floored, 0.0)
    stepper = None
    for n in range(cfg.n_steps):
        t_n = cfg.t0 + n * cfg.dt
        try:
            l_matrix = operator_for(floored)
        except ValueError as err:
            raise diverged(f"no step possible from t = {t_n}: {err}") from err
        try:
            if stepper is None:
                stepper = DirkStepper(tableau, l_matrix, cfg.dt, **stage_terms)
                trace.solver = stepper.stats
            else:
                stepper.use(l_matrix)
            values, residual = stepper.step(floored, t_n)
        except SolveError as err:
            raise diverged(f"stage solve failed in the step from t = {t_n}: {err}") from err
        t_next = cfg.t0 + (n + 1) * cfg.dt
        if not np.all(np.isfinite(values)):
            raise diverged(f"state went non-finite at t = {t_next}")
        floored = _floor_values(values, cfg.cutoff)
        record(n + 1, t_next, values, floored, residual)

    return Field(grid, floored), trace


def run(problem: LinearProblem, cfg: StepperConfig) -> tuple:
    """Advance a linear problem from t0 to t_end with fixed dt.

    The stepper of cfg.integrator gets the same operator every step, so it
    shifts and factors it once; see march for the loop.  Returns
    (final_field, trace).
    """
    tableau = theta_tableau(cfg.theta) if cfg.integrator == "theta" else sdirk3_tableau()
    return march(
        problem.grid, problem.initial_values.copy(), cfg, tableau,
        lambda floored: problem.l_matrix,
        source=problem.source,
        dirichlet_mask=problem.dirichlet_mask,
        boundary_values=problem.boundary_values,
    )


@dataclass(frozen=True)
class SchemeDiagnostics:
    """Max-norm stability numbers of a one-step pair at a given dt."""

    norm_b1_inv: float
    norm_b1inv_b0: float
    k_implied: float
    dimension: int
    dt: float

    def write_text(self, path):
        with open(path, "w") as fh:
            fh.write(f"norm_b1_inv={self.norm_b1_inv:.17g}\n")
            fh.write(f"norm_b1inv_b0={self.norm_b1inv_b0:.17g}\n")
            fh.write(f"k_implied={self.k_implied:.17g}\n")
            fh.write(f"dimension={self.dimension}\n")
            fh.write(f"dt={self.dt:.17g}\n")


DIAGNOSTICS_SIZE_CAP = 2500


def scheme_diagnostics(op: SparseOperator, dt: float) -> SchemeDiagnostics:
    """Report |B1^{-1}|_inf, |B1^{-1} B0|_inf and the growth constant
    K = max(0, (|B1^{-1} B0|_inf - 1)/dt) they imply.

    Forms B1^{-1} columnwise, so it is capped at dimension 2500.
    """
    n = op.dimension
    if n > DIAGNOSTICS_SIZE_CAP:
        raise ValueError(
            f"diagnostics are dense and capped at dimension {DIAGNOSTICS_SIZE_CAP}, got {n}"
        )
    lu = spla.splu(op.b1.csr.tocsc())
    b1_inv = lu.solve(np.eye(n))
    prop = lu.solve(op.b0.to_dense())
    norm_b1_inv = float(np.max(np.abs(b1_inv).sum(axis=1)))
    norm_prop = float(np.max(np.abs(prop).sum(axis=1)))
    return SchemeDiagnostics(
        norm_b1_inv=norm_b1_inv,
        norm_b1inv_b0=norm_prop,
        k_implied=max(0.0, (norm_prop - 1.0) / dt),
        dimension=n,
        dt=dt,
    )
