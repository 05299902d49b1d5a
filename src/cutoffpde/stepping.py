"""Implicit one-step integrators with a cutoff applied between steps.

The schemes all fit the pattern: take the current state, floor it (plain or
delta cutoff), advance one implicit step, and leave the new state uncut so
its undershoot stays observable.  One loop, ``march``, does this for every
problem: it floors once per step, asks a provider for the step's operator L
(the same matrix every step for a linear problem, one assembled from the
floored state for the thin film), records pre- and post-cutoff statistics,
and returns the post-cutoff state.

Every step of a run is taken by one stage solver, ``DirkStepper``, built
once per run, before its first operator, and driven by the tableau of the
run's StepperConfig: a stiffly accurate diagonally implicit Runge-Kutta
tableau with a single nonzero diagonal value, so one shifted system
I - a_ii*dt*L serves all implicit stages of a step.  Dirichlet nodes keep identity rows in it, and the stages
solve it whole with the boundary values on those rows; one source callback
supplies both the interior source and those values, as the paper's F^n
does.  The stepper owns that system, its LU and the reuse policy.  Every
operator of a run, the first included, reaches it through ``use``: an
operator handed over again is neither shifted nor factored again; a new one
is shifted on its diagonals, and factored when the LU in hand is a banded
one (it costs about two backsubstitutions; the 1D film's operator is
factored from its five diagonals, with no CSR matrix built), while a sparse
LU is kept, stale, and its solves refine against the new system
(linalg.Factorization.solve).  A stale solve still missing its tolerance
after 1 + STALE_SWEEPS_MAX sweeps has outgrown the LU: the stepper then
factors the system afresh and solves the stage again on it, so a 2D film
step builds CSR only when it factors.  Once it keeps a sparse LU for a new
operator, the stepper also keeps each implicit stage's increment z = x - u
over the floored state u its step started from, at the last three steps,
and a solve on the stale LU starts from u + x^, x^ = 3*(z[n-1] - z[n-2]) +
z[n-3].  Every later guessed stage i of a step adds the miss of the step's
latest guessed stage k, scaled by c_i/c_k: it starts from u + x^_i +
(c_i/c_k)*(z_k - x^_k).  The guess takes the floored state exactly, cutoff
included, and extrapolates only the small increment (Hairer & Wanner,
Solving ODEs II, Sec. IV.8, starting values for the stage iterations), so
it lands far closer than the stale LU's own answer; all stages of a step
start from the same u, so the cutoff's kink in time, which the
extrapolation misses, is largely shared across them, and the first miss
predicts the next.  On the 40x40 film to t = 4e-4 the stale LU's own answer
misses by a median 2.2e6 tolerances, the guess by 4.7 and the corrected
guess by 0.061, so fewer sweeps follow and the LU is outgrown less often.
An implicit stage's slope L x + f is (x - A x)/(a_ii*dt) + f, with A x the
product the solve's check took of its answer (linalg.SolveReport.product):
a verified SDIRK3 step takes three products, one per check, and only an
explicit stage takes a product of L.  The counts of what the stepper did go
into the run's trace as SolverStats.  Two tableaux are provided:

* the theta-method as a 2-stage EDIRK whose first stage is explicit
  (theta = 1 backward Euler, theta = 1/2 Crank-Nicolson),
* a 3-stage, L-stable SDIRK method of classical order 3 whose diagonal
  gamma is the root of g^3 - 3g^2 + (3/2)g - 1/6 in (1/6, 1/2).

Stages never apply the cutoff; only the step boundary does.  The paper's
matrix pair B1 u^{n+1} = B0 (u^n)^+ + F^n of the theta-method survives in
``theta_operator``, for the max-norm diagnostics; the one-step reference
that steps this pair, and that the theta runs are tested against, lives
with those tests (tests/test_stepping.py).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse.linalg as spla

from .cutoff import CutoffParams, apply_floor
from .grids import Field, Grid, _require_finite, trapezoid_weights
from .linalg import Factorization, SolveError, SparseMatrix, identity_plus

#: diagonal of the 3-stage SDIRK scheme; real root of
#: g^3 - 3 g^2 + (3/2) g - 1/6 in (1/6, 1/2)
SDIRK3_GAMMA = 0.43586652150845906

#: the most steps a run may ask for: 4000 times the longest default run
#: (2500 steps), so a dt far below t_end stops before the first step
STEPS_MAX = 10**7


class DivergenceError(RuntimeError):
    """Raised when a run cannot go on (a non-finite state, no operator can
    be built from the state, or a stage solve fails); carries the trace up
    to failure."""

    def __init__(self, message: str, trace: "RunTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients (a, b, c)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

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


def sdirk3_tableau() -> ButcherTableau:
    g = SDIRK3_GAMMA
    b1 = -(6.0 * g * g - 16.0 * g + 1.0) / 4.0
    b2 = (6.0 * g * g - 20.0 * g + 5.0) / 4.0
    a = np.array([
        [g, 0.0, 0.0],
        [(1.0 - g) / 2.0, g, 0.0],
        [b1, b2, g],
    ])
    return ButcherTableau(a=a, b=np.array([b1, b2, g]), c=np.array([g, (1.0 + g) / 2.0, 1.0]))


def theta_tableau(theta: float) -> ButcherTableau:
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    a = np.array([[0.0, 0.0], [1.0 - theta, theta]])
    return ButcherTableau(a=a, b=np.array([1.0 - theta, theta]), c=np.array([0.0, 1.0]))


def _require_positive_dt(dt: float):
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")


@dataclass(frozen=True)
class StepperConfig:
    """Fixed-step run configuration; runs start at t = 0.

    tableau is the integrator every step of the run takes (SDIRK3 unless
    given; theta_tableau(theta) for the theta-method).  cutoff = None
    disables flooring entirely; CutoffParams(0.0) is the plain nonnegative
    cutoff.  Every factorization checks its solves against its own
    scale-aware tolerance (linalg.default_tolerance).  snapshot_every stores
    the post-cutoff state every k-th step (on_cadence), in addition to the
    steps within half a step of a snapshot time (is_snapshot_time).  A
    t_end or a snapshot time that is not finite, a snapshot time more than
    half a step outside [0, t_end], which no step would match, and a step
    count t_end / dt that overflows or exceeds STEPS_MAX, raise ValueError.
    """

    dt: float
    t_end: float
    cutoff: Optional[CutoffParams] = None
    tableau: ButcherTableau = field(default_factory=sdirk3_tableau)
    snapshot_times: tuple = ()
    snapshot_every: Optional[int] = None

    def __post_init__(self):
        _require_positive_dt(self.dt)
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        # an infinite t_end, or one whose step count overflows
        if not np.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end = {self.t_end} and dt = {self.dt} give no finite step count")
        if not np.all(np.isfinite(self.snapshot_times)):
            raise ValueError(f"snapshot_times must be finite, got {self.snapshot_times}")
        # a time no step comes within half a step of would store nothing
        half = 0.5 * self.dt
        if not all(-half <= t <= self.t_end + half for t in self.snapshot_times):
            raise ValueError(f"snapshot_times must lie within half a step of "
                             f"[0, t_end = {self.t_end}], got {self.snapshot_times}")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be a positive step count")
        if any(t2 <= t1 for t1, t2 in zip(self.snapshot_times, self.snapshot_times[1:])):
            raise ValueError("snapshot_times must be strictly increasing")
        self.n_steps  # validate divisibility eagerly

    @property
    def n_steps(self) -> int:
        k = int(round(self.t_end / self.dt))
        if k > STEPS_MAX:
            raise ValueError(f"t_end = {self.t_end} and dt = {self.dt} ask for more than "
                             f"STEPS_MAX = {STEPS_MAX} steps")
        if k < 1 or abs(k * self.dt - self.t_end) > 1e-6 * self.dt:
            raise ValueError(
                f"t_end = {self.t_end} is not an integer multiple of dt = {self.dt}"
            )
        return k

    def on_cadence(self, step: int) -> bool:
        """Whether snapshot_every stores the state after step `step`."""
        return self.snapshot_every is not None and step % self.snapshot_every == 0

    def is_snapshot_time(self, t: float) -> bool:
        """Whether t is within half a step of one of snapshot_times."""
        return any(abs(t - ts) <= 0.5 * self.dt for ts in self.snapshot_times)


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
    LU routes in order of first use (linalg.Factorization.route), how many
    factorizations and verified solves there were, the backsubstitutions
    beyond each solve's first (SolveReport.iterations, so solves +
    extra_sweeps is the backsubstitution count), the worst residual as a
    fraction of its tolerance, the stored entries of the largest LU
    (linalg.Factorization.fill), and how many solves started from an
    extrapolated guess."""

    routes: list = field(default_factory=list)
    factorizations: int = 0
    solves: int = 0
    extra_sweeps: int = 0
    residual_max: float = 0.0
    lu_fill: int = 0
    guessed: int = 0

    def factored(self, fact: Factorization):
        self.factorizations += 1
        self.lu_fill = max(self.lu_fill, fact.fill)
        if fact.route not in self.routes:
            self.routes.append(fact.route)

    def add(self, other: "SolverStats"):
        self.routes += [route for route in other.routes if route not in self.routes]
        self.factorizations += other.factorizations
        self.solves += other.solves
        self.extra_sweeps += other.extra_sweeps
        self.residual_max = max(self.residual_max, other.residual_max)
        self.lu_fill = max(self.lu_fill, other.lu_fill)
        self.guessed += other.guessed


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
    solver: SolverStats = field(default_factory=SolverStats)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("step,t,min_pre,min_post,mass_pre,mass_post,residual\n")
            for r in self.records:
                fh.write(
                    f"{r.step},{r.t:.17g},{r.min_pre:.17g},{r.min_post:.17g},"
                    f"{r.mass_pre:.17g},{r.mass_post:.17g},{r.residual:.17g}\n"
                )


@dataclass(frozen=True)
class LinearProblem:
    """Semidiscrete linear IBVP: du/dt = L u + s(t) at interior nodes,
    u = g(t) at Dirichlet nodes.

    source(t) is the paper's F: one vector holding s(t) at the interior
    nodes and g(t) at the Dirichlet nodes.  l_matrix must store no entry in
    the rows of the Dirichlet nodes (the stepper solves I - a_ii*dt*L whole,
    so those rows are identity rows that return g).
    """

    grid: Grid
    l_matrix: SparseMatrix
    dirichlet_mask: np.ndarray
    source: Callable[[float], np.ndarray]
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
        if self.l_matrix.abs_row_sums()[mask].any():
            raise ValueError("operator stores entries in Dirichlet rows")
        object.__setattr__(self, "dirichlet_mask", mask)
        object.__setattr__(self, "initial_values", init)


def theta_operator(problem: LinearProblem, dt: float, theta: float) -> tuple:
    """(B1, B0, source) of the theta-method pair B1 u^{n+1} = B0 u^n + F^n
    for one linear problem, with source(t_n) = F^n.

    B1 = I - theta*dt*L picks up identity rows at Dirichlet nodes for free
    (their L rows are zero); B0 keeps the interior identity only, so boundary
    values enter purely through the source, pinned at the new time level:
    F^n takes g from problem.source(t_n + dt).  source raises ValueError
    when problem.source returns a vector of the wrong length.  dt must be
    finite and positive, as StepperConfig requires.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    _require_positive_dt(dt)
    mask = problem.dirichlet_mask
    b1 = identity_plus(problem.l_matrix, -theta * dt)
    b0 = identity_plus(problem.l_matrix, (1.0 - theta) * dt)
    offsets, data = b0.diagonals()
    data[offsets == 0, mask] = 0.0

    def source(t: float) -> np.ndarray:
        new = _checked(problem.source(t + dt), mask.size)
        f = dt * (theta * new + (1.0 - theta) * _checked(problem.source(t), mask.size))
        return np.where(mask, new, f)

    return b1, b0, source


def _checked(f, n: int) -> np.ndarray:
    """f, once it is known to be a vector of length n."""
    if np.shape(f) != (n,):
        raise ValueError("source callback returned a vector of wrong length")
    return f


def _floor_values(values: np.ndarray, cutoff: Optional[CutoffParams]) -> np.ndarray:
    if cutoff is None:
        return values
    return apply_floor(values, cutoff.delta)


class DirkStepper:
    """Stage solver of du/dt = L u + s(t), u = g(t) on dirichlet_mask, for
    one stiffly accurate, diagonally implicit tableau; solves I - a_ii*dt*L
    for every implicit stage, with L the operator last handed to ``use``.

    source(t) gives s(t) at interior nodes and g(t) at Dirichlet nodes (a
    LinearProblem's source); it raises ValueError unless it returns one
    value per node.  Stages with a_ii = 0 are explicit.  A stage whose slope
    no later stage uses is skipped, unless it is the last one, whose value
    is the new state.  Nodes in dirichlet_mask take g at the time of every
    implicit stage and of the last stage, exactly: L has empty rows there,
    so the shifted system has identity rows, and the stage's right-hand side
    carries g(t_i) on them.  The whole system is solved and verified (linalg
    Factorization.solve), and the stage value is set to g(t_i) on the
    Dirichlet nodes after the solve.  Stage slopes are zero on the Dirichlet
    nodes; an implicit stage's interior slope comes from the product its
    solve's check took, (x - A x)/(a_ii*dt) + f, and an explicit stage's
    from L x + f.  Stages use the state exactly as handed in -- flooring
    happens only at step boundaries, in the run loop.

    The stepper decides when to factor, and it alone builds LUs
    (``_factor``).  A banded LU is factored afresh for every operator (the
    1D film's from its diagonals: shift, LU fill and products never form
    CSR).  A sparse LU is kept, stale, for a new operator, and the stage
    solves refine against the new system on it; when one of them misses
    its tolerance, the stepper refactors: it counts that solve's
    backsubstitutions as extra sweeps, factors the system afresh and
    solves the stage again, from its right-hand side.  From the first time
    a sparse LU is kept for a new operator, every implicit stage's
    increments over its steps' starting states at the last three steps are
    kept too, and a solve on that LU while it is stale starts from the
    step's starting state plus their quadratic extrapolation.  A later
    stale solve of the same step adds the miss of the step's latest guessed
    stage k (its increment less its extrapolation), scaled by c_i/c_k; each
    step starts with no miss, and a stage solved on a fresh LU takes no
    guess.  A banded LU and an operator handed over once are never stale,
    so neither keeps any.
    The stepper is built with no operator, so its refusals come before one
    is assembled: a tableau that dirk_plan refuses, and a dirichlet_mask
    without a source (the held values come from the source), raise
    ValueError.  Every operator, the first included, comes in through
    ``use``.
    """

    def __init__(self, tableau: ButcherTableau, dt: float,
                 source: Callable[[float], np.ndarray] = None,
                 dirichlet_mask: np.ndarray = None):
        gamma, self._live = tableau.dirk_plan
        self._tab = tableau
        self._dt = dt
        self._shift = -gamma * dt
        self._source = source
        self._boundary = None
        if dirichlet_mask is not None and dirichlet_mask.any():
            if source is None:
                raise ValueError("a dirichlet_mask needs the source callback, "
                                 "which gives the values held on those nodes")
            self._boundary = np.flatnonzero(dirichlet_mask)
        self.stats = SolverStats()
        self._l = self._system = self._fact = self._history = self._start = self._miss = None
        self._stale = False

    def use(self, l_matrix: SparseMatrix):
        """Take l_matrix as the operator of the steps that follow.  The
        matrix in use changes nothing; another one is shifted, and factored
        unless the LU in hand is a sparse one, which is kept, stale, for
        the new system."""
        if l_matrix is self._l:
            return
        self._l = l_matrix
        if not self._shift:
            return
        self._system = identity_plus(l_matrix, self._shift)
        self._stale = self._fact is not None and self._fact.method != "banded-lu"
        if not self._stale:
            self._factor()
        elif self._history is None:
            # stage -> its increments over the step's starting state at the
            # last three steps, oldest first
            self._history = defaultdict(lambda: deque(maxlen=3))

    def _factor(self):
        """Factor the system in use: the one place the stepper builds an LU."""
        # the outgrown LU, with its matrix, is freed before the next is built
        self._fact, self._stale = None, False
        self._fact = Factorization(self._system)
        self.stats.factored(self._fact)

    def _solve(self, rhs: np.ndarray, stage: int) -> tuple:
        """(x, report) of implicit stage `stage` in the step from the state
        self._start; a solve on a stale LU starts from that state plus the
        stage's extrapolated increments once three are kept, corrected by
        the miss of the step's latest guessed stage.  A stale solve that
        misses its tolerance counts its backsubstitutions as extra sweeps,
        and the system is factored afresh and solved from rhs."""
        past = None if self._history is None else self._history[stage]
        guess = None
        if past is not None and len(past) == 3 and self._stale:
            extrapolated = 3.0 * (past[2] - past[1]) + past[0]
            guess = self._start + extrapolated
            if self._miss is not None:
                # the miss of the step's latest guessed stage k, (z_k -
                # extrapolated_k) scaled by c_i/c_k
                c_k, miss = self._miss
                guess += (self._tab.c[stage] / c_k) * miss
            self.stats.guessed += 1
        x, report = self._fact.solve(rhs, self._system, guess)
        if not report.residual_norm <= report.tolerance:
            # the stale LU is outgrown (only a stale solve returns a miss)
            self.stats.extra_sweeps += 1 + report.iterations
            self._factor()
            x, report = self._fact.solve(rhs)
        if past is not None:
            past.append(x - self._start)
            if guess is not None:
                self._miss = self._tab.c[stage], past[-1] - extrapolated
        self.stats.solves += 1
        self.stats.extra_sweeps += report.iterations
        self.stats.residual_max = max(self.stats.residual_max,
                                      report.residual_norm / report.tolerance)
        return x, report

    def _slope(self, stage: int, x: np.ndarray, product: np.ndarray,
               f: np.ndarray) -> np.ndarray:
        """Slope L x + f of stage `stage` at its value x, zero on the
        Dirichlet nodes.  An implicit stage passes the product (I -
        a_ii*dt*L) x its solve's check took, whence L x = (x - product) /
        (a_ii*dt) with no product of L; an explicit one passes None."""
        if product is None:
            k = self._l.matvec(x)
        else:
            k = x - product
            k /= self._tab.a[stage, stage] * self._dt
        if f is not None:
            k += f
            if self._boundary is not None:
                k[self._boundary] = 0.0
        return k

    def step(self, values: np.ndarray, t: float) -> tuple:
        """(new state, worst stage residual) of one step from t."""
        a, c = self._tab.a, self._tab.c
        dt = self._dt
        last = self._live[-1]
        self._start, self._miss = values, None
        ks = {}
        worst = 0.0
        for i in self._live:
            rhs = values.copy()
            for j in ks:
                if a[i, j] != 0.0:
                    rhs += (dt * a[i, j]) * ks[j]
            f = None
            if self._source is not None:
                f = _checked(self._source(t + c[i] * dt), values.size)
                rhs += (a[i, i] * dt) * f
            # an explicit inner stage keeps the incoming (floored) boundary
            # values, as the B0 (u^n)^+ of the theta pair does
            held = None
            if self._boundary is not None and (a[i, i] != 0.0 or i == last):
                held = f[self._boundary]
                rhs[self._boundary] = held
            if a[i, i] == 0.0:
                x = rhs
            else:
                x, report = self._solve(rhs, i)
                worst = max(worst, report.residual_norm)
            if held is not None:
                x[self._boundary] = held
            if i != last:
                ks[i] = self._slope(i, x, report.product if a[i, i] != 0.0 else None, f)
        # stiffly accurate: the last stage value is the new state
        return x, worst


def march(grid: Grid, initial: np.ndarray, cfg: StepperConfig,
          operator_for: Callable[[np.ndarray], SparseMatrix], **stage_terms) -> tuple:
    """Advance from t = 0 to t_end with fixed dt; the one loop every run uses.

    The run's one DirkStepper is built from cfg.tableau and stage_terms
    (source, dirichlet_mask) before the first record, so its refusals come
    before any operator is built.  Per step: floor the current state (if a
    cutoff is configured), hand operator_for(floored) to the stepper's
    ``use``, take the step, record pre- and post-cutoff statistics of the
    new state and store the snapshots cfg asks for.  Returns
    (final_field, trace) where the final field is post-cutoff and
    trace.solver holds the stepper's counts.  A non-finite initial state
    raises ValueError before the first step.  A ValueError from operator_for
    (an operator that cannot be built from the state), a SolveError from the
    step, or a non-finite state raises DivergenceError carrying the partial
    trace.
    """
    weights = trapezoid_weights(grid)

    def trapezoid_mass(vals: np.ndarray) -> float:
        # numpy's pairwise sum, not a BLAS dot: the digits must not depend
        # on how many threads BLAS splits the dot across
        return float(np.sum(weights * vals))

    def record(step: int, t: float, vals: np.ndarray, floored: np.ndarray, residual: float):
        trace.records.append(StepRecord(
            step=step, t=t,
            min_pre=float(vals.min()), min_post=float(floored.min()),
            mass_pre=trapezoid_mass(vals), mass_post=trapezoid_mass(floored),
            residual=residual,
        ))
        if cfg.on_cadence(step) or cfg.is_snapshot_time(t):
            trace.snapshots.append((t, Field(grid, floored.copy())))

    _require_finite(initial, "initial state")
    stepper = DirkStepper(cfg.tableau, cfg.dt, **stage_terms)
    trace = RunTrace(solver=stepper.stats)
    floored = _floor_values(initial, cfg.cutoff)
    record(0, 0.0, initial, floored, 0.0)
    for n in range(cfg.n_steps):
        t_n = n * cfg.dt
        try:
            l_matrix = operator_for(floored)
        except ValueError as err:
            raise DivergenceError(f"no step possible from t = {t_n}: {err}", trace) from err
        try:
            stepper.use(l_matrix)
            values, residual = stepper.step(floored, t_n)
        except SolveError as err:
            raise DivergenceError(
                f"stage solve failed in the step from t = {t_n}: {err}", trace) from err
        t_next = (n + 1) * cfg.dt
        if not np.all(np.isfinite(values)):
            raise DivergenceError(f"state went non-finite at t = {t_next}", trace)
        floored = _floor_values(values, cfg.cutoff)
        record(n + 1, t_next, values, floored, residual)

    return Field(grid, floored), trace


def run(problem: LinearProblem, cfg: StepperConfig) -> tuple:
    """Advance a linear problem from t = 0 to t_end with fixed dt.

    The stepper of cfg.tableau gets the same operator every step, so it
    shifts and factors it once; see march for the loop.  Returns
    (final_field, trace).
    """
    return march(problem.grid, problem.initial_values.copy(), cfg,
                 lambda floored: problem.l_matrix,
                 source=problem.source, dirichlet_mask=problem.dirichlet_mask)


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


def scheme_diagnostics(b1: SparseMatrix, b0: SparseMatrix, dt: float) -> SchemeDiagnostics:
    """Report |B1^{-1}|_inf, |B1^{-1} B0|_inf and the growth constant
    K = max(0, (|B1^{-1} B0|_inf - 1)/dt) they imply.

    Forms B1^{-1} columnwise, so it is capped at dimension 2500.  dt must
    be finite and positive, as StepperConfig requires.
    """
    _require_positive_dt(dt)
    n = b1.dimension
    if b0.dimension != n:
        raise ValueError("B0 and B1 dimensions differ")
    if n > DIAGNOSTICS_SIZE_CAP:
        raise ValueError(
            f"diagnostics are dense and capped at dimension {DIAGNOSTICS_SIZE_CAP}, got {n}"
        )
    lu = spla.splu(b1.csr.tocsc())
    b1_inv = lu.solve(np.eye(n))
    prop = lu.solve(b0.to_dense())
    norm_b1_inv = float(np.max(np.abs(b1_inv).sum(axis=1)))
    norm_prop = float(np.max(np.abs(prop).sum(axis=1)))
    return SchemeDiagnostics(
        norm_b1_inv=norm_b1_inv,
        norm_b1inv_b0=norm_prop,
        k_implied=max(0.0, (norm_prop - 1.0) / dt),
        dimension=n,
        dt=dt,
    )
