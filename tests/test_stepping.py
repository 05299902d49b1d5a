"""Tableaux, stepper configuration, the run loop, and scheme diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from cutoffpde.anisotropic import AnisotropicSpec, assemble
from cutoffpde.cutoff import CutoffParams, apply_floor
from cutoffpde.grids import Field, Grid1D, Grid2D
from cutoffpde.linalg import (
    Factorization,
    SparseMatrix,
    default_tolerance,
    identity_plus,
)
from cutoffpde.lubrication import (
    LubricationSpec,
    assemble_lubrication_1d,
    assemble_lubrication_2d,
    run_lubrication,
)
from cutoffpde.stepping import (
    DIAGNOSTICS_SIZE_CAP,
    SDIRK3_GAMMA,
    STEPS_MAX,
    ButcherTableau,
    DirkStepper,
    DivergenceError,
    LinearProblem,
    RunTrace,
    StepperConfig,
    march,
    run,
    scheme_diagnostics,
    sdirk3_tableau,
    theta_operator,
    theta_tableau,
)

from cutoffpde.cli import cli_main

from conftest import make_heat_problem, same_bits, snapshot_near, sparse_matrix


def stability(tab: ButcherTableau, z: complex) -> complex:
    """R(z) = 1 + z b^T (I - z A)^{-1} 1."""
    s = tab.stages
    return complex(
        1.0 + z * (tab.b @ np.linalg.solve(np.eye(s) - z * tab.a, np.ones(s)))
    )


def stability_at_infinity(tab: ButcherTableau) -> float:
    """lim_{z->-inf} R(z) = 1 - b^T A^{-1} 1 (requires invertible A)."""
    return float(1.0 - tab.b @ np.linalg.solve(tab.a, np.ones(tab.stages)))


def classical_order(tab: ButcherTableau) -> int:
    """The highest order up to three whose Runge-Kutta order conditions the
    tableau meets."""
    b, c, a = tab.b, tab.c, tab.a
    met = [abs(b.sum() - 1.0) < 1e-13, abs(b @ c - 0.5) < 1e-13,
           abs(b @ c**2 - 1.0 / 3.0) < 1e-13 and abs(b @ (a @ c) - 1.0 / 6.0) < 1e-13]
    order = 0
    while order < 3 and met[order]:
        order += 1
    return order


def step_linear(b1: SparseMatrix, b0: SparseMatrix, source, u: Field,
                cfg: StepperConfig, t: float = 0.0) -> Field:
    """One step of B1 u^{n+1} = B0 (u^n)^+ + F^n from t, with F^n = source(t)
    (theta_operator's pair): the one-step reference of the theta runs.

    The cutoff (if enabled in cfg) is applied to the incoming state before
    the right-hand side is formed; the returned state is not cut.
    """
    floored = u.values if cfg.cutoff is None else apply_floor(u.values, cfg.cutoff.delta)
    x, _ = Factorization(b1).solve(b0.matvec(floored) + source(t))
    return Field(u.grid, x)


def stepper_using(tableau: ButcherTableau, l_matrix: SparseMatrix, dt: float,
                  **stage_terms) -> DirkStepper:
    """A DirkStepper with l_matrix in use, as march hands a run's operator
    to its stepper."""
    stepper = DirkStepper(tableau, dt, **stage_terms)
    stepper.use(l_matrix)
    return stepper


def scalar_problem(lam: float, initial) -> LinearProblem:
    """du/dt = lam*u at every node of a 3-node grid, no boundary rows."""
    grid = Grid1D(0.0, 1.0, 2)
    n = grid.node_count
    return LinearProblem(
        grid=grid,
        l_matrix=sparse_matrix(sp.diags(np.full(n, lam))),
        dirichlet_mask=np.zeros(n, dtype=bool),
        source=lambda t: np.zeros(n),
        initial_values=np.asarray(initial, dtype=float),
    )


def draining_problem(initial) -> LinearProblem:
    """du/dt = -1 everywhere: pure linear decrease, crosses zero in finite time."""
    grid = Grid1D(0.0, 1.0, 2)
    n = grid.node_count
    return LinearProblem(
        grid=grid,
        l_matrix=sparse_matrix(sp.csr_matrix((n, n))),
        dirichlet_mask=np.zeros(n, dtype=bool),
        source=lambda t: -np.ones(n),
        initial_values=np.asarray(initial, dtype=float),
    )


class TestSdirk3Tableau:
    def test_gamma_is_the_cubic_root(self):
        g = SDIRK3_GAMMA
        # correctly rounded root: residual ~ |p'(g)| * ulp(g) plus evaluation noise
        assert abs(g**3 - 3.0 * g**2 + 1.5 * g - 1.0 / 6.0) < 2e-16
        assert 1.0 / 6.0 < g < 0.5

    def test_order_conditions_through_three(self):
        tab = sdirk3_tableau()
        b, c, a = tab.b, tab.c, tab.a
        assert abs(b.sum() - 1.0) < 1e-13
        assert abs(b @ c - 0.5) < 1e-13
        assert abs(b @ c**2 - 1.0 / 3.0) < 1e-13
        assert abs(b @ (a @ c) - 1.0 / 6.0) < 1e-13

    def test_structure_flags(self):
        tab = sdirk3_tableau()
        assert tab.stages == 3
        # one implicit diagonal value, on every stage
        assert tab.dirk_plan == (SDIRK3_GAMMA, [0, 1, 2])
        assert np.all(np.diag(tab.a) == SDIRK3_GAMMA)
        assert tab.stiffly_accurate
        assert np.all(np.triu(tab.a, k=1) == 0.0)

    def test_l_stability(self):
        tab = sdirk3_tableau()
        assert stability(tab, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert abs(stability_at_infinity(tab)) < 1e-13
        for z in (-0.1, -1.0, -10.0, -1e3, -1e6):
            assert abs(stability(tab, z)) < 1.0
        for y in (0.5, 2.0, 50.0):
            assert abs(stability(tab, 1j * y)) <= 1.0 + 1e-13

    def test_stability_matches_exponential_to_fourth_order(self):
        tab = sdirk3_tableau()
        e1 = abs(stability(tab, -0.1) - math.exp(-0.1))
        e2 = abs(stability(tab, -0.05) - math.exp(-0.05))
        assert e1 < 1e-4
        assert e1 / e2 > 10.0  # fourth-order local error halves by ~16


class TestThetaTableau:
    def test_backward_euler(self):
        tab = theta_tableau(1.0)
        assert classical_order(tab) == 1
        assert tab.stiffly_accurate
        assert stability(tab, -1.0) == pytest.approx(0.5, abs=1e-15)
        assert stability(tab, -9.0) == pytest.approx(0.1, abs=1e-15)

    def test_crank_nicolson(self):
        tab = theta_tableau(0.5)
        assert classical_order(tab) == 2
        assert stability(tab, -2.0) == pytest.approx(0.0, abs=1e-15)
        assert stability(tab, -1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_range_checked(self):
        with pytest.raises(ValueError, match="theta"):
            theta_tableau(1.5)

    def test_explicit_euler_limit(self):
        tab = theta_tableau(0.0)
        # no implicit diagonal value
        assert tab.dirk_plan[0] == 0.0
        assert stability(tab, -0.5) == pytest.approx(0.5, abs=1e-15)


class TestButcherValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            ButcherTableau(a=np.zeros((2, 2)), b=np.array([1.0]), c=np.zeros(2))

    def test_row_sums_must_match_c(self):
        with pytest.raises(ValueError, match="row sums"):
            ButcherTableau(a=np.array([[0.5]]), b=np.array([1.0]), c=np.array([0.0]))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ButcherTableau(a=np.array([[0.5]]), b=np.array([0.5]), c=np.array([0.5]))


class TestStepperConfig:
    def test_n_steps(self):
        assert StepperConfig(dt=0.1, t_end=1.0).n_steps == 10

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError, match="integer multiple"):
            StepperConfig(dt=0.3, t_end=1.0)

    def test_basic_validation(self):
        with pytest.raises(ValueError, match="dt"):
            StepperConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError, match="t_end"):
            StepperConfig(dt=0.1, t_end=0.0)
        with pytest.raises(ValueError, match="snapshot_every"):
            StepperConfig(dt=0.1, t_end=1.0, snapshot_every=0)
        with pytest.raises(ValueError, match="strictly increasing"):
            StepperConfig(dt=0.1, t_end=1.0, snapshot_times=(0.5, 0.2))

    def test_non_finite_horizons_rejected(self):
        with pytest.raises(ValueError, match="t_end must be positive"):
            StepperConfig(dt=0.1, t_end=math.nan)
        with pytest.raises(ValueError, match="t_end = inf and dt = 0.05 give no finite step count"):
            StepperConfig(dt=0.05, t_end=math.inf)
        # t_end / dt overflows to inf
        with pytest.raises(ValueError, match="give no finite step count"):
            StepperConfig(dt=1e-300, t_end=1e10)
        for times in ((1e-6, math.nan), (math.inf,), (-math.inf, 0.5)):
            with pytest.raises(ValueError, match="snapshot_times must be finite"):
                StepperConfig(dt=0.1, t_end=1.0, snapshot_times=times)

    def test_step_count_capped(self):
        assert StepperConfig(dt=1.0, t_end=float(STEPS_MAX)).n_steps == STEPS_MAX
        with pytest.raises(ValueError, match="ask for more than STEPS_MAX = 10000000 steps"):
            StepperConfig(dt=1.0, t_end=float(STEPS_MAX + 1))
        # finite, but about 1e290 steps
        with pytest.raises(ValueError, match="t_end = 1e-10 and dt = 1e-300 ask for more"):
            StepperConfig(dt=1e-300, t_end=1e-10)

    def test_snapshot_times_no_step_reaches_rejected(self):
        for times in ((-2e-6,), (1.0,), (5e-6, 1.2e-5)):
            with pytest.raises(ValueError, match="within half a step of"):
                StepperConfig(dt=1e-6, t_end=1e-5, snapshot_times=times)
        # a time within half a step of the first or last step matches it
        cfg = StepperConfig(dt=1e-6, t_end=1e-5, snapshot_times=(-4e-7, 1.04e-5))
        assert cfg.is_snapshot_time(0.0) and cfg.is_snapshot_time(1e-5)

    def test_snapshot_time_is_within_half_a_step(self):
        cfg = StepperConfig(dt=0.1, t_end=1.0, snapshot_times=(0.3, 0.7))
        assert [cfg.is_snapshot_time(t) for t in (0.26, 0.34, 0.7)] == [True] * 3
        assert [cfg.is_snapshot_time(t) for t in (0.24, 0.36, 0.5)] == [False] * 3


class TestThetaOperator:
    @staticmethod
    def masked_problem():
        grid = Grid1D(0.0, 1.0, 4)
        n = grid.node_count
        h2 = grid.h * grid.h
        rows, cols, vals = [], [], []
        for i in range(1, n - 1):
            rows += [i, i, i]
            cols += [i - 1, i, i + 1]
            vals += [1.0 / h2, -2.0 / h2, 1.0 / h2]
        mask = np.zeros(n, dtype=bool)
        mask[0] = mask[-1] = True
        return LinearProblem(
            grid=grid,
            l_matrix=sparse_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n))),
            dirichlet_mask=mask,
            source=lambda t: np.where(mask, 2.0 * t, t),
            initial_values=np.zeros(n),
        )

    def test_matrix_pair(self):
        problem = self.masked_problem()
        dt, theta = 0.5, 0.7
        b1, b0, _ = theta_operator(problem, dt, theta)
        ldense = problem.l_matrix.to_dense()
        assert np.allclose(b1.to_dense(), np.eye(5) - theta * dt * ldense, atol=1e-15)
        interior = np.diag((~problem.dirichlet_mask).astype(float))
        assert np.allclose(b0.to_dense(), interior + (1 - theta) * dt * ldense, atol=1e-15)
        # Dirichlet rows of B1 are identity rows, so boundary values pass through
        assert np.array_equal(b1.to_dense()[0], np.eye(5)[0])

    def test_source_wiring(self):
        problem = self.masked_problem()
        _, _, source = theta_operator(problem, dt=0.5, theta=0.7)
        f = source(1.0)
        # masked nodes carry g(t+dt), interior dt*(theta*s(t+dt)+(1-theta)*s(t))
        assert f[0] == pytest.approx(3.0, abs=1e-15)
        assert f[-1] == pytest.approx(3.0, abs=1e-15)
        assert f[2] == pytest.approx(0.5 * (0.7 * 1.5 + 0.3 * 1.0), rel=1e-14)

    def test_source_length_checked(self):
        for bad in TestRunChecksSourceLength.BAD_SOURCES:
            problem = replace(self.masked_problem(), source=bad)
            _, _, source = theta_operator(problem, dt=0.5, theta=0.7)
            with pytest.raises(ValueError, match="source callback returned a vector of wrong length"):
                source(0.0)

    def test_theta_range_checked(self):
        with pytest.raises(ValueError, match="theta"):
            theta_operator(self.masked_problem(), dt=0.1, theta=2.0)

    def test_dt_checked(self):
        for dt in (0.0, -0.01, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="dt must be positive"):
                theta_operator(self.masked_problem(), dt=dt, theta=1.0)


class TestRunMatchesStabilityFunction:
    """On du/dt = lam*u every mode advances by R(lam*dt) per step, so a run
    must reproduce R^n exactly up to solver roundoff."""

    def test_theta_run(self):
        lam, dt, n = -3.0, 0.1, 10
        problem = scalar_problem(lam, [1.0, 0.5, 2.0])
        cfg = StepperConfig(dt=dt, t_end=n * dt, tableau=theta_tableau(0.6))
        final, trace = run(problem, cfg)
        r = stability(theta_tableau(0.6), lam * dt).real
        assert np.allclose(final.values, r**n * problem.initial_values, rtol=1e-12)
        assert len(trace.records) == n + 1

    def test_sdirk3_run(self):
        lam, dt, n = -3.0, 0.1, 10
        problem = scalar_problem(lam, [1.0, 0.5, 2.0])
        cfg = StepperConfig(dt=dt, t_end=n * dt)
        final, trace = run(problem, cfg)
        r = stability(sdirk3_tableau(), lam * dt).real
        assert np.allclose(final.values, r**n * problem.initial_values, rtol=1e-12)

    def test_trace_bookkeeping(self):
        problem = scalar_problem(-1.0, [1.0, 1.0, 1.0])
        cfg = StepperConfig(dt=0.25, t_end=1.0, tableau=theta_tableau(1.0))
        _, trace = run(problem, cfg)
        assert [r.step for r in trace.records] == [0, 1, 2, 3, 4]
        assert trace.records[0].residual == 0.0
        assert trace.records[0].min_pre == 1.0
        for r in trace.records:
            assert r.t == pytest.approx(0.25 * r.step, abs=1e-15)


class TestCutoffInsideRun:
    def test_floor_between_steps(self):
        problem = draining_problem([0.05, 1.0, 1.0])
        cfg = StepperConfig(
            dt=0.1, t_end=0.3, tableau=theta_tableau(1.0), cutoff=CutoffParams(0.0)
        )
        final, trace = run(problem, cfg)
        # each step drains 0.1 from the floored state
        assert trace.records[1].min_pre == pytest.approx(-0.05, abs=1e-15)
        assert trace.records[1].min_post == 0.0
        assert trace.records[2].min_pre == pytest.approx(-0.1, abs=1e-15)
        assert trace.records[2].min_post == 0.0
        assert final.values[0] == 0.0
        assert final.values[1] == pytest.approx(0.7, abs=1e-15)

    def test_delta_floor(self):
        problem = draining_problem([0.05, 1.0, 1.0])
        cfg = StepperConfig(
            dt=0.1, t_end=0.3, tableau=theta_tableau(1.0), cutoff=CutoffParams(0.025)
        )
        final, trace = run(problem, cfg)
        assert all(r.min_post >= 0.025 for r in trace.records)
        assert float(final.values.min()) == 0.025

    def test_flooring_adds_mass(self):
        problem = draining_problem([0.05, 1.0, 1.0])
        cfg = StepperConfig(
            dt=0.1, t_end=0.3, tableau=theta_tableau(1.0), cutoff=CutoffParams(0.0)
        )
        _, trace = run(problem, cfg)
        for r in trace.records:
            assert r.mass_post >= r.mass_pre - 1e-15

    def test_no_cutoff_keeps_negatives(self):
        problem = draining_problem([0.05, 1.0, 1.0])
        cfg = StepperConfig(dt=0.1, t_end=0.3, tableau=theta_tableau(1.0))
        final, trace = run(problem, cfg)
        assert final.values[0] == pytest.approx(-0.25, abs=1e-15)
        assert trace.records[-1].min_pre == trace.records[-1].min_post


class TestSnapshots:
    def test_cadence_and_explicit_times(self):
        problem = draining_problem([1.0, 1.0, 1.0])
        cfg = StepperConfig(
            dt=0.1, t_end=0.5, tableau=theta_tableau(1.0),
            cutoff=CutoffParams(0.0), snapshot_every=2, snapshot_times=(0.3,),
        )
        _, trace = run(problem, cfg)
        times = [ts for ts, _ in trace.snapshots]
        assert times == pytest.approx([0.0, 0.2, 0.3, 0.4], abs=1e-12)
        got = snapshot_near(trace, 0.3, 1e-9)
        assert got.values == pytest.approx(0.7, abs=1e-15)
        with pytest.raises(KeyError):
            snapshot_near(trace, 0.123, 1e-9)


class TestThetaRunMatchesMatrixPair:
    """A theta run goes through the stage solver; repeated step_linear on the
    paper's B1/B0 pair is the reference it must reproduce."""

    @staticmethod
    def reference(problem, cfg, theta):
        b1, b0, source = theta_operator(problem, cfg.dt, theta)
        u = Field(problem.grid, problem.initial_values)
        for n in range(cfg.n_steps):
            u = step_linear(b1, b0, source, u, cfg, n * cfg.dt)
        return u.values

    @pytest.mark.parametrize("theta,rtol,delta", [
        (1.0, 0.0, 0.0), (0.5, 1e-13, 0.0),
        # the floor lifts the boundary data to delta, and B0 (u^n)^+ reads
        # the lifted values.  Backward Euler stays exact: its one stage and
        # the reference solve the same B1 with g(t + dt) on its identity
        # rows and the same interior right-hand side, bit for bit
        (1.0, 0.0, 0.01), (0.5, 1e-13, 0.01), (0.0, 1e-13, 0.01),
    ])
    def test_masked_heat_problem(self, theta, rtol, delta):
        base = TestThetaOperator.masked_problem()
        mask = base.dirichlet_mask
        problem = replace(base, source=lambda t: np.where(mask, 1e-3 * (1.0 + t), t),
                          initial_values=np.array([1e-3, -0.5, 1.0, -0.25, 1e-3]))
        cfg = StepperConfig(dt=0.01, t_end=0.2, tableau=theta_tableau(theta),
                            cutoff=CutoffParams(delta))
        final, _ = run(problem, cfg)
        expected = np.maximum(self.reference(problem, cfg, theta), delta)
        if rtol == 0.0:
            assert np.array_equal(final.values, expected)
        else:
            assert np.allclose(final.values, expected, rtol=rtol, atol=0.0)


class TestNonFiniteInitialState:
    """A non-finite initial state stops every run with one ValueError,
    before the first step, whatever the cutoff and the tableau."""

    @staticmethod
    def count_steps(monkeypatch) -> list:
        steps = []
        monkeypatch.setattr(DirkStepper, "step", lambda stepper, values, t: steps.append(t))
        return steps

    @pytest.mark.parametrize("cutoff,tableau", [
        (CutoffParams(0.0), sdirk3_tableau()),
        (None, sdirk3_tableau()),
        (None, theta_tableau(0.0)),
    ], ids=["cutoff", "no-cutoff", "explicit"])
    def test_anisotropic_run(self, monkeypatch, cutoff, tableau):
        problem = assemble(AnisotropicSpec.pure_diffusion(Grid2D.square(0.0, 1.0, 4)))
        initial = problem.initial_values.copy()
        initial[7] = np.nan
        steps = self.count_steps(monkeypatch)
        cfg = StepperConfig(dt=0.1, t_end=0.2, cutoff=cutoff, tableau=tableau)
        with pytest.raises(ValueError, match="initial state has non-finite value nan at node 7"):
            run(replace(problem, initial_values=initial), cfg)
        assert steps == []

    def test_film(self, monkeypatch):
        spec = replace(LubricationSpec.default_1d(16),
                       initial=lambda x: np.where(np.arange(x.size) == 7, np.nan, 1.0))
        steps = self.count_steps(monkeypatch)
        cfg = StepperConfig(dt=1e-6, t_end=1e-5, cutoff=CutoffParams(0.0))
        with pytest.raises(ValueError, match="initial state has non-finite value nan at node 7"):
            run_lubrication(spec, cfg)
        assert steps == []


class TestDirkStepperValidation:
    @pytest.mark.parametrize("a,b,c,match", [
        # implicit midpoint: a = [[1/2]], b = [1]
        ([[0.5]], [1.0], [0.5], "stiffly accurate"),
        ([[0.25, 0.0], [0.5, 0.5]], [0.5, 0.5], [0.25, 1.0], "single implicit diagonal"),
        # 2-stage Radau IIA: stiffly accurate but fully implicit
        ([[5 / 12, -1 / 12], [0.75, 0.25]], [0.75, 0.25], [1 / 3, 1.0], "diagonally implicit"),
    ])
    def test_rejects_unsupported_tableaux(self, a, b, c, match):
        tab = ButcherTableau(a=np.array(a), b=np.array(b), c=np.array(c))
        with pytest.raises(ValueError, match=match):
            DirkStepper(tab, 0.1)

    def test_refused_tableau_stops_a_run_before_its_first_operator(self, monkeypatch):
        # the stepper is built before the first step, so its refusal comes
        # before any film is assembled
        from cutoffpde import lubrication

        calls = []

        def counted(u, spec):
            calls.append(u)
            return assemble_lubrication_1d(u, spec)

        monkeypatch.setattr(lubrication, "assemble_lubrication_1d", counted)
        midpoint = ButcherTableau(a=np.array([[0.5]]), b=np.array([1.0]), c=np.array([0.5]))
        cfg = StepperConfig(dt=1e-6, t_end=1e-5, cutoff=CutoffParams(0.0), tableau=midpoint)
        with pytest.raises(ValueError, match="stiffly accurate"):
            run_lubrication(LubricationSpec.default_1d(16), cfg)
        assert calls == []

    def test_mask_without_source_is_refused(self):
        # the values held on Dirichlet nodes come from the source callback
        problem = assemble(AnisotropicSpec.pure_diffusion(Grid2D.square(0.0, 1.0, 4)))
        with pytest.raises(ValueError, match="dirichlet_mask needs the source callback"):
            DirkStepper(sdirk3_tableau(), 0.1, dirichlet_mask=problem.dirichlet_mask)
        # an empty mask holds nothing, so it needs no source
        stepper = stepper_using(sdirk3_tableau(), problem.l_matrix, 0.1,
                                dirichlet_mask=np.zeros_like(problem.dirichlet_mask))
        values, _ = stepper.step(problem.initial_values.copy(), 0.0)
        assert np.all(np.isfinite(values))


class TestStepHelpers:
    def test_step_linear_backward_euler(self):
        lam, dt = -3.0, 0.1
        problem = scalar_problem(lam, [1.0, 0.5, 2.0])
        b1, b0, source = theta_operator(problem, dt, 1.0)
        cfg = StepperConfig(dt=dt, t_end=dt)
        u1 = step_linear(b1, b0, source, Field(problem.grid, problem.initial_values), cfg)
        assert np.allclose(u1.values, problem.initial_values / 1.3, rtol=1e-14)

    def test_step_linear_floors_incoming_state(self):
        problem = scalar_problem(0.0, [-1.0, 1.0, 2.0])
        b1, b0, source = theta_operator(problem, 0.1, 1.0)
        cfg = StepperConfig(dt=0.1, t_end=0.1, cutoff=CutoffParams(0.0))
        u1 = step_linear(b1, b0, source, Field(problem.grid, problem.initial_values), cfg)
        assert np.array_equal(u1.values, [0.0, 1.0, 2.0])

    def test_sdirk3_step_matches_stability(self):
        lam, dt = -2.0, 0.2
        u0 = np.array([1.0, -1.0, 0.5])
        stepper = stepper_using(sdirk3_tableau(), sparse_matrix(sp.diags([lam, lam, lam])), dt)
        u1, _ = stepper.step(u0, 0.0)
        r = stability(sdirk3_tableau(), lam * dt).real
        assert np.allclose(u1, r * u0, rtol=1e-13)

    def test_sdirk3_step_quadrature_is_third_order(self):
        # with L = 0 a step reduces to the quadrature dt*sum b_i s(c_i dt),
        # exact for polynomial sources up to degree two
        dt = 0.3
        zero = sparse_matrix(sp.csr_matrix((3, 3)))
        stepper = stepper_using(sdirk3_tableau(), zero, dt, source=lambda t: np.full(3, t * t))
        u1, _ = stepper.step(np.zeros(3), 0.0)
        assert np.allclose(u1, dt**3 / 3.0, rtol=1e-12)


class TestDivergenceError:
    def test_carries_trace(self):
        trace = RunTrace()
        err = DivergenceError("state went non-finite at t = 0.5", trace)
        assert err.trace is trace
        assert isinstance(err, RuntimeError)


class TestOneStepperPerRun:
    """march builds one DirkStepper per run.  Where it factors every new
    matrix (banded LU, or a linear problem's one operator) the run is the one
    a stepper built afresh every step gives, bit for bit; the 2D film keeps
    its sparse LU across steps and still verifies every solve."""

    @staticmethod
    def fresh_every_step(initial, cfg, operator_for, **stage_terms):
        floored = apply_floor(initial, cfg.cutoff.delta)
        for n in range(cfg.n_steps):
            stepper = stepper_using(cfg.tableau, operator_for(floored), cfg.dt, **stage_terms)
            values, _ = stepper.step(floored, n * cfg.dt)
            floored = apply_floor(values, cfg.cutoff.delta)
        return floored

    def test_banded_film_run_matches_fresh_steppers(self):
        spec = LubricationSpec.default_1d(64)
        cfg = StepperConfig(dt=1e-6, t_end=3e-5, cutoff=CutoffParams(0.0))
        final, trace, _ = run_lubrication(spec, cfg)
        ref = self.fresh_every_step(
            spec.initial_field().values, cfg,
            lambda u: assemble_lubrication_1d(Field(spec.grid, u), spec))
        assert np.array_equal(final.values, ref)
        assert trace.solver.routes == ["banded-lu"]
        assert trace.solver.factorizations == cfg.n_steps
        assert trace.solver.extra_sweeps == trace.solver.guessed == 0

    @pytest.mark.parametrize("integrator", ["sdirk3", "theta"])
    def test_linear_anisotropic_run_matches_fresh_steppers(self, integrator):
        problem = assemble(AnisotropicSpec.pure_diffusion(Grid2D.square(0.0, 1.0, 12)))
        tableau = sdirk3_tableau() if integrator == "sdirk3" else theta_tableau(1.0)
        cfg = StepperConfig(dt=1e-2, t_end=0.1, cutoff=CutoffParams(0.0), tableau=tableau)
        final, trace = run(problem, cfg)
        ref = self.fresh_every_step(
            problem.initial_values, cfg, lambda u: problem.l_matrix,
            source=problem.source, dirichlet_mask=problem.dirichlet_mask)
        assert np.array_equal(final.values, ref)
        # the one operator is shifted and factored once, as a whole
        assert trace.solver.routes == ["sparse-lu/symmetric"]
        assert trace.solver.factorizations == 1
        assert trace.solver.solves == cfg.n_steps * (3 if integrator == "sdirk3" else 1)
        assert trace.solver.guessed == 0

    def test_2d_film_keeps_its_lu_and_verifies_every_step(self):
        spec = LubricationSpec.default_2d(16)
        cfg = StepperConfig(dt=1e-6, t_end=2e-4, cutoff=CutoffParams(0.0), snapshot_every=1)
        _, trace, _ = run_lubrication(spec, cfg)
        assert trace.solver.routes == ["sparse-lu/symmetric"]
        assert trace.solver.factorizations < cfg.n_steps
        assert trace.solver.solves == 3 * cfg.n_steps
        assert trace.solver.extra_sweeps > 0
        # each step's worst residual meets the tolerance of the system it
        # solved, shifted from the operator of the step's floored start
        for (_, start), rec in zip(trace.snapshots, trace.records[1:]):
            system = identity_plus(assemble_lubrication_2d(start, spec), -SDIRK3_GAMMA * cfg.dt)
            assert rec.residual <= default_tolerance(system)

    def test_stale_solves_start_from_extrapolated_stages(self, monkeypatch):
        solves = []
        factored = {}  # each LU -> the matrix it was built from
        init, solve = Factorization.__init__, Factorization.solve

        def init_spy(fact, a):
            init(fact, a)
            factored[fact] = a

        def spy(fact, rhs, a=None, guess=None):
            stale = a is not None and factored[fact] is not a
            x, report = solve(fact, rhs, a, guess)
            solves.append((stale, guess, x.copy()))
            return x, report

        monkeypatch.setattr(Factorization, "__init__", init_spy)
        monkeypatch.setattr(Factorization, "solve", spy)
        spec = LubricationSpec.default_2d(16)
        cfg = StepperConfig(dt=1e-6, t_end=3e-5, cutoff=CutoffParams(0.0))
        _, trace, _ = run_lubrication(spec, cfg)
        assert len(solves) == 3 * cfg.n_steps
        # the floored state each step starts from: the film has no Dirichlet
        # nodes, so a step's last stage solution is its new state
        starts = [apply_floor(spec.initial_field().values, 0.0)]
        starts += [apply_floor(solves[3 * n + 2][2], 0.0) for n in range(cfg.n_steps)]
        # the stages' history starts when the LU is first kept, at step 1,
        # so the first guesses come at step 4
        assert all(guess is None for _, guess, _ in solves[:12])
        c = cfg.tableau.c
        guessed = corrected = 0
        for n in range(4, cfg.n_steps):
            miss = None  # no step inherits the miss of the step before
            for i in range(3):
                stale, guess, x = solves[3 * n + i]
                if not stale:
                    assert guess is None
                    continue
                # the stage's increments over their steps' starting states
                # at the three steps before, extrapolated over this step's
                z1, z2, z3 = (solves[3 * m + i][2] - starts[m] for m in (n - 1, n - 2, n - 3))
                extrapolated = 3.0 * (z1 - z2) + z3
                want = starts[n] + extrapolated
                if miss is not None:
                    # corrected by the miss of the step's latest guessed
                    # stage k, scaled by c_i/c_k
                    c_k, miss_k = miss
                    want = want + (c[i] / c_k) * miss_k
                    corrected += 1
                assert same_bits(guess, want)
                miss = c[i], (x - starts[n]) - extrapolated
                guessed += 1
        assert guessed == trace.solver.guessed > corrected > 0

    def test_a_mid_step_refactor_leaves_the_later_stages_unguessed(self, monkeypatch):
        calls = []
        solve = Factorization.solve
        spoiled = 3 * 10 + 1  # the second stage of step 10

        def spy(fact, rhs, a=None, guess=None):
            # a non-finite guess meets no tolerance, so that solve misses
            # and the stepper refactors
            given = np.full_like(rhs, np.nan) if len(calls) == spoiled else guess
            x, report = solve(fact, rhs, a, given)
            calls.append((guess, not report.residual_norm <= report.tolerance))
            return x, report

        monkeypatch.setattr(Factorization, "solve", spy)
        spec = LubricationSpec.default_2d(16)
        cfg = StepperConfig(dt=1e-6, t_end=1.5e-5, cutoff=CutoffParams(0.0))
        _, trace, _ = run_lubrication(spec, cfg)
        guesses = [guess is not None for guess, _ in calls]
        assert guesses[spoiled - 1:spoiled + 1] == [True, True]
        assert calls[spoiled][1] and not any(missed for _, missed in calls[:spoiled])
        # the missed stage is solved again on the fresh LU, and so is the
        # step's last stage, both from no guess; the next step's operator
        # makes that LU stale again
        assert guesses[spoiled + 1:spoiled + 6] == [False, False, True, True, True]
        assert not any(missed for _, missed in calls[spoiled + 1:])
        assert len(calls) == 3 * cfg.n_steps + 1
        assert trace.solver.factorizations == 2
        assert trace.solver.solves == 3 * cfg.n_steps
        assert trace.solver.guessed == sum(guesses)

    def test_film2d_workload_counts(self):
        # the 40x40 film to t = 4e-4, across touchdown (onset 3.78e-4): the
        # increment guesses, each later stage's corrected by the miss of the
        # step's stage before, keep the extra sweeps near 236 (369
        # uncorrected, 1030 when the stage values were extrapolated)
        cfg = StepperConfig(dt=1e-6, t_end=4e-4, cutoff=CutoffParams(0.0))
        _, trace, record = run_lubrication(LubricationSpec.default_2d(40), cfg)
        assert record.onset_precutoff_time is not None
        assert trace.solver.factorizations == 2
        assert trace.solver.solves == 3 * cfg.n_steps == 1200
        assert trace.solver.extra_sweeps <= 300

    def test_solve_failure_carries_the_trace(self):
        # backward Euler with dt = 1/2 shifts L = 2I to the zero matrix
        grid = Grid1D(0.0, 1.0, 4)
        n = grid.node_count
        regular, singular = sparse_matrix(sp.identity(n)), sparse_matrix(2.0 * sp.identity(n))
        calls = []

        def operator_for(floored):
            calls.append(len(calls))
            return singular if len(calls) == 4 else regular

        cfg = StepperConfig(dt=0.5, t_end=5.0, tableau=theta_tableau(1.0),
                            cutoff=CutoffParams(0.0))
        with pytest.raises(DivergenceError, match="t = 1.5.*singular") as info:
            march(grid, np.ones(n), cfg, operator_for)
        trace = info.value.trace
        assert [r.step for r in trace.records] == [0, 1, 2, 3]
        assert trace.solver.factorizations == 1 and trace.solver.solves == 3


class TestWholeSystemSolve:
    """With a Dirichlet mask the stepper factors its whole shifted system,
    identity rows included, and solves every implicit stage with g(t_i) on
    those rows: the LU returns g(t_i) there exactly, and every stage residual
    is the whole system's."""

    @staticmethod
    def problem(convection=False, n_cells=12):
        grid = Grid2D.square(0.0, 1.0, n_cells)
        return assemble(AnisotropicSpec.with_convection(grid) if convection
                        else AnisotropicSpec.pure_diffusion(grid))

    @staticmethod
    def whole_tolerance(problem, gamma, dt):
        # the whole shifted system, rebuilt without the stepper's helpers
        whole = sp.identity(problem.grid.node_count) - gamma * dt * problem.l_matrix.csr
        return 1e-12 * max(1.0, float(np.max(abs(whole).sum(axis=1))))

    @pytest.mark.parametrize("tableau", [sdirk3_tableau(), theta_tableau(1.0), theta_tableau(0.5)],
                             ids=["sdirk3", "theta1", "theta0.5"])
    def test_boundary_nodes_hold_g_exactly(self, tableau):
        problem = self.problem()
        mask, dt = problem.dirichlet_mask, 1e-2
        stepper = stepper_using(tableau, problem.l_matrix, dt, source=problem.source,
                                dirichlet_mask=mask)
        # the LU's own answer on the Dirichlet nodes, before the stepper
        # sets them
        answers = []
        solve = stepper._solve

        def spy(rhs, stage):
            x, report = solve(rhs, stage)
            answers.append(x[mask].copy())
            return x, report

        stepper._solve = spy
        implicit = [tableau.c[i] for i in tableau.dirk_plan[1] if tableau.a[i, i] != 0.0]
        floored = problem.initial_values
        for n in range(10):
            answers.clear()
            values, _ = stepper.step(floored, n * dt)
            assert len(answers) == len(implicit)
            for c, got in zip(implicit, answers):
                assert np.array_equal(got, problem.source(n * dt + c * dt)[mask])
            # the last stage's time, t + c_s*dt with c_s = 1
            assert np.array_equal(values[mask], problem.source(n * dt + dt)[mask])
            floored = apply_floor(values, 0.0)

    @pytest.mark.parametrize("integrator,gamma", [("sdirk3", SDIRK3_GAMMA), ("theta", 1.0)])
    def test_trace_residuals_meet_the_whole_system_tolerance(self, tmp_path, capsys,
                                                             integrator, gamma):
        out = tmp_path / integrator
        assert cli_main(["aniso-run", "-J", "12", "--integrator", integrator, "--dt", "1e-2",
                         "--t-end", "0.2", "--out", str(out)]) == 0
        capsys.readouterr()
        residuals = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)[1:, 6]
        assert residuals.size == 20
        assert np.all(residuals <= self.whole_tolerance(self.problem(), gamma, 1e-2))

    def test_convection_whole_system_takes_symmetric_route(self):
        problem = self.problem(convection=True)
        cfg = StepperConfig(dt=1e-2, t_end=0.1, cutoff=CutoffParams(0.0))
        _, trace = run(problem, cfg)
        assert trace.solver.routes == ["sparse-lu/symmetric"]
        tol = self.whole_tolerance(problem, SDIRK3_GAMMA, cfg.dt)
        assert all(r.residual <= tol for r in trace.records)

    def test_delta_cutoff_run_holds_its_properties_every_step(self):
        delta = 0.01
        problem = self.problem(convection=True, n_cells=16)
        cfg = StepperConfig(dt=1e-2, t_end=0.2, cutoff=CutoffParams(delta))
        _, trace = run(problem, cfg)
        records = trace.records[1:]
        assert len(records) == 20
        # the floor clips every step, so the checks below are not vacuous
        assert all(r.min_pre < delta and r.mass_post > r.mass_pre for r in records)
        tol = self.whole_tolerance(problem, SDIRK3_GAMMA, cfg.dt)
        for r in records:
            assert r.min_post >= delta, r.step
            assert r.mass_post >= r.mass_pre, r.step
            assert r.residual <= tol, r.step


class TestRunChecksSourceLength:
    """A source must give one value per node; run refuses anything else, a
    scalar included, with theta_operator's error."""

    BAD_SOURCES = [lambda t: 1.0, lambda t: np.zeros(3)]

    @pytest.mark.parametrize("source", BAD_SOURCES, ids=["scalar", "short"])
    @pytest.mark.parametrize("tableau", [sdirk3_tableau(), theta_tableau(0.5)],
                             ids=["sdirk3", "theta0.5"])
    def test_run(self, source, tableau):
        # 25 nodes
        grid = Grid2D.square(0.0, 1.0, 4)
        problem = replace(assemble(AnisotropicSpec.pure_diffusion(grid)), source=source)
        cfg = StepperConfig(dt=0.1, t_end=0.2, tableau=tableau)
        with pytest.raises(ValueError, match="source callback returned a vector of wrong length"):
            run(problem, cfg)


class TestBoundarySlopes:
    """Stage slopes vanish on Dirichlet nodes: an explicit stage after an
    implicit one keeps the incoming boundary values, however large g is."""

    # stiffly accurate, one implicit value 1/2; stage 2 is explicit and its
    # boundary values feed the interior of the last stage through L
    TABLEAU = ButcherTableau(a=np.array([[0.5, 0.0, 0.0], [0.5, 0.0, 0.0], [0.25, 0.25, 0.5]]),
                             b=np.array([0.25, 0.25, 0.5]), c=np.array([0.5, 0.5, 1.0]))

    @staticmethod
    def reference_step(problem, u, t, dt, tab):
        """The stage equations on the interior unknowns alone, dense: every
        stage holds u on the boundary unless it is implicit, where it holds
        g(t_i), and only interior slopes exist."""
        inner = ~problem.dirichlet_mask
        ldense = problem.l_matrix.to_dense()
        l_ii, l_ib = ldense[np.ix_(inner, inner)], ldense[np.ix_(inner, ~inner)]
        slopes = []
        for i in range(tab.stages):
            f = problem.source(t + tab.c[i] * dt)
            x = u.copy()
            x[inner] += dt * sum(tab.a[i, j] * k for j, k in enumerate(slopes))
            if tab.a[i, i] != 0.0:
                g = f[~inner]
                m = np.eye(l_ii.shape[0]) - tab.a[i, i] * dt * l_ii
                x[inner] = np.linalg.solve(
                    m, x[inner] + tab.a[i, i] * dt * (l_ib @ g + f[inner]))
                x[~inner] = g
            slopes.append(ldense[inner] @ x + f[inner])
        return x

    def test_run_matches_dense_stages(self):
        base = TestThetaOperator.masked_problem()
        mask = base.dirichlet_mask
        problem = replace(base, source=lambda t: np.where(mask, 50.0 * (1.0 + t), t),
                          initial_values=np.array([1.0, -0.5, 1.0, -0.25, 2.0]))
        cfg = StepperConfig(dt=0.01, t_end=0.1, tableau=self.TABLEAU)
        final, _ = run(problem, cfg)
        u = problem.initial_values
        for n in range(cfg.n_steps):
            u = self.reference_step(problem, u, n * cfg.dt, cfg.dt, self.TABLEAU)
        assert np.allclose(final.values, u, rtol=1e-12, atol=0.0)


class TestStageSlopesReuseTheCheck:
    """An implicit stage's slope L x + f comes from the product (I -
    a_ii*dt*L) x that its solve's check took, so a verified SDIRK3 step
    takes one product per stage; an explicit stage still takes its one
    product of L."""

    @staticmethod
    def film_1d():
        spec = LubricationSpec.default_1d(200)
        u = spec.initial_field().values
        return assemble_lubrication_1d(Field(spec.grid, u), spec), u, 1e-6, {}

    @staticmethod
    def dry_film_2d():
        spec = LubricationSpec.default_2d(16)
        u = apply_floor(spec.initial_field().values - 0.1, 0.0)
        assert np.count_nonzero(u == 0.0) > 50
        return assemble_lubrication_2d(Field(spec.grid, u), spec), u, 1e-6, {}

    @staticmethod
    def anisotropic():
        problem = assemble(AnisotropicSpec.with_convection(Grid2D.square(0.0, 1.0, 12)))
        terms = dict(source=problem.source, dirichlet_mask=problem.dirichlet_mask)
        return problem.l_matrix, problem.initial_values, 1e-2, terms

    @staticmethod
    def products_of_one_step(monkeypatch, tableau, case):
        l_matrix, u, dt, terms = case
        stepper = stepper_using(tableau, l_matrix, dt, **terms)
        operands = []
        matvec = SparseMatrix.matvec

        def spy(matrix, x):
            operands.append(matrix)
            return matvec(matrix, x)

        monkeypatch.setattr(SparseMatrix, "matvec", spy)
        stepper.step(u, 0.0)
        assert stepper.stats.extra_sweeps == 0
        return operands, l_matrix

    @pytest.mark.parametrize("case", ["film_1d", "anisotropic"])
    def test_sdirk3_step_takes_three_products(self, monkeypatch, case):
        operands, l_matrix = self.products_of_one_step(
            monkeypatch, sdirk3_tableau(), getattr(self, case)())
        # one check per stage, none of L itself
        assert len(operands) == 3
        assert all(m is not l_matrix for m in operands)

    def test_theta_explicit_stage_keeps_its_product_of_l(self, monkeypatch):
        operands, l_matrix = self.products_of_one_step(
            monkeypatch, theta_tableau(0.5), self.anisotropic())
        # the explicit stage's slope, then the implicit stage's check
        assert len(operands) == 2
        assert operands[0] is l_matrix and operands[1] is not l_matrix

    @pytest.mark.parametrize("case", ["film_1d", "dry_film_2d", "anisotropic"])
    def test_slope_is_l_x_plus_f(self, case):
        l_matrix, u, dt, terms = getattr(self, case)()
        stepper = stepper_using(sdirk3_tableau(), l_matrix, dt, **terms)
        slopes = []
        slope = stepper._slope

        def spy(stage, x, product, f):
            k = slope(stage, x, product, f)
            slopes.append((x.copy(), f, k.copy()))
            return k

        stepper._slope = spy
        stepper.step(u, 0.0)
        # stages 0 and 1; the last stage's value is the new state
        assert len(slopes) == 2
        for x, f, k in slopes:
            want = l_matrix.matvec(x)
            if f is not None:
                want += f
                want[terms["dirichlet_mask"]] = 0.0
            # any product of L rounds on the scale |L|_inf |x|_inf, 1e9
            # times |L x|_inf on the 1D film, which is where both slopes
            # are defined to
            scale = (l_matrix.operator_norm_inf() * np.max(np.abs(x))
                     + (0.0 if f is None else np.max(np.abs(f))))
            assert np.max(np.abs(k - want)) <= 1e-12 * scale


class TestLinearProblemValidation:
    def test_dimension_checks(self):
        grid = Grid1D(0.0, 1.0, 2)
        good = dict(
            grid=grid,
            l_matrix=sparse_matrix(sp.identity(3)),
            dirichlet_mask=np.zeros(3, dtype=bool),
            source=lambda t: np.zeros(3),
            initial_values=np.zeros(3),
        )
        LinearProblem(**good)
        with pytest.raises(ValueError, match="operator dimension"):
            LinearProblem(**{**good, "l_matrix": sparse_matrix(sp.identity(4))})
        with pytest.raises(ValueError, match="mask length"):
            LinearProblem(**{**good, "dirichlet_mask": np.zeros(4, dtype=bool)})
        with pytest.raises(ValueError, match="initial values length"):
            LinearProblem(**{**good, "initial_values": np.zeros(4)})

    def test_dirichlet_rows_must_be_empty(self):
        # a whole-system solve would couple an entry there into the interior
        base = TestThetaOperator.masked_problem()
        with pytest.raises(ValueError, match="entries in Dirichlet rows"):
            replace(base, l_matrix=sparse_matrix(sp.identity(base.grid.node_count)))


class TestSchemeDiagnostics:
    def test_synthetic_pair(self):
        n, dt = 4, 0.25
        d = scheme_diagnostics(sparse_matrix(sp.identity(n)), sparse_matrix(1.5 * sp.identity(n)), dt)
        assert d.norm_b1_inv == pytest.approx(1.0, rel=1e-14)
        assert d.norm_b1inv_b0 == pytest.approx(1.5, rel=1e-14)
        assert d.k_implied == pytest.approx(2.0, rel=1e-13)
        assert d.dimension == n and d.dt == dt

    def test_contraction_floors_to_zero(self):
        n = 3
        d = scheme_diagnostics(sparse_matrix(sp.identity(n)), sparse_matrix(0.5 * sp.identity(n)), 0.1)
        assert d.k_implied == 0.0

    def test_backward_euler_heat_is_contractive(self):
        problem, _ = make_heat_problem(20)
        for dt in (1e-2, 1e-3):
            b1, b0, _ = theta_operator(problem, dt, 1.0)
            d = scheme_diagnostics(b1, b0, dt)
            assert d.norm_b1_inv <= 1.0 + 1e-12
            assert d.norm_b1inv_b0 <= 1.0 + 1e-12
            assert d.k_implied == 0.0

    def test_crank_nicolson_resolved_regime(self):
        # dt * |L|_inf <= 1 keeps B0 nonnegative, so the M-matrix argument
        # bounds the propagator norm by one and the growth constant vanishes
        problem, grid = make_heat_problem(20)
        norm_l = problem.l_matrix.operator_norm_inf()
        for dt in (2e-4, 1e-4, 5e-5):
            assert dt * norm_l <= 1.0
            b1, b0, _ = theta_operator(problem, dt, 0.5)
            d = scheme_diagnostics(b1, b0, dt)
            assert d.norm_b1inv_b0 <= 1.0 + 1e-10
            assert d.k_implied == 0.0

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan"), float("inf")])
    def test_rejects_a_step_that_is_not_positive(self, dt):
        eye = sparse_matrix(sp.identity(3))
        with pytest.raises(ValueError, match="dt must be positive"):
            scheme_diagnostics(eye, eye, dt)

    def test_size_cap(self):
        n = DIAGNOSTICS_SIZE_CAP + 1
        eye = sparse_matrix(sp.identity(n))
        with pytest.raises(ValueError, match="capped at dimension"):
            scheme_diagnostics(eye, eye, 0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            scheme_diagnostics(sparse_matrix(sp.identity(2)), sparse_matrix(sp.identity(3)), 0.1)

    def test_write_text(self, tmp_path):
        eye = sparse_matrix(sp.identity(2))
        d = scheme_diagnostics(eye, eye, 0.5)
        p = tmp_path / "diag.txt"
        d.write_text(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "norm_b1_inv=1"
        assert lines[3] == "dimension=2"
        assert lines[4] == "dt=0.5"
