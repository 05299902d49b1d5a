"""Tableaux, stepper configuration, the run loop, and scheme diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from cutoffpde.anisotropic import AnisotropicSpec, assemble
from cutoffpde.cutoff import CutoffParams, apply_floor
from cutoffpde.grids import Field, Grid1D, Grid2D
from cutoffpde.linalg import SparseMatrix, SparseOperator, default_tolerance, identity_plus
from cutoffpde.lubrication import (
    LubricationSpec,
    assemble_lubrication_1d,
    assemble_lubrication_2d,
    run_lubrication,
)
from cutoffpde.stepping import (
    DIAGNOSTICS_SIZE_CAP,
    SDIRK3_GAMMA,
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
    step_linear,
    theta_operator,
    theta_tableau,
)

from conftest import make_heat_problem


def scalar_problem(lam: float, initial) -> LinearProblem:
    """du/dt = lam*u at every node of a 3-node grid, no boundary rows."""
    grid = Grid1D(0.0, 1.0, 2)
    n = grid.node_count
    return LinearProblem(
        grid=grid,
        l_matrix=SparseMatrix(sp.diags(np.full(n, lam))),
        dirichlet_mask=np.zeros(n, dtype=bool),
        source=lambda t: np.zeros(n),
        boundary_values=lambda t: np.zeros(n),
        initial_values=np.asarray(initial, dtype=float),
    )


def draining_problem(initial) -> LinearProblem:
    """du/dt = -1 everywhere: pure linear decrease, crosses zero in finite time."""
    grid = Grid1D(0.0, 1.0, 2)
    n = grid.node_count
    return LinearProblem(
        grid=grid,
        l_matrix=SparseMatrix.from_coo(n, [], [], []),
        dirichlet_mask=np.zeros(n, dtype=bool),
        source=lambda t: -np.ones(n),
        boundary_values=lambda t: np.zeros(n),
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
        assert tab.order == 3

    def test_structure_flags(self):
        tab = sdirk3_tableau()
        assert tab.stages == 3
        assert tab.is_sdirk
        assert tab.stiffly_accurate
        assert np.all(np.triu(tab.a, k=1) == 0.0)

    def test_l_stability(self):
        tab = sdirk3_tableau()
        assert tab.stability(0.0) == pytest.approx(1.0, abs=1e-14)
        assert abs(tab.stability_at_infinity()) < 1e-13
        for z in (-0.1, -1.0, -10.0, -1e3, -1e6):
            assert abs(tab.stability(z)) < 1.0
        for y in (0.5, 2.0, 50.0):
            assert abs(tab.stability(1j * y)) <= 1.0 + 1e-13

    def test_stability_matches_exponential_to_fourth_order(self):
        tab = sdirk3_tableau()
        e1 = abs(tab.stability(-0.1) - math.exp(-0.1))
        e2 = abs(tab.stability(-0.05) - math.exp(-0.05))
        assert e1 < 1e-4
        assert e1 / e2 > 10.0  # fourth-order local error halves by ~16


class TestThetaTableau:
    def test_backward_euler(self):
        tab = theta_tableau(1.0)
        assert tab.order == 1
        assert tab.stiffly_accurate
        assert tab.stability(-1.0) == pytest.approx(0.5, abs=1e-15)
        assert tab.stability(-9.0) == pytest.approx(0.1, abs=1e-15)

    def test_crank_nicolson(self):
        tab = theta_tableau(0.5)
        assert tab.order == 2
        assert tab.stability(-2.0) == pytest.approx(0.0, abs=1e-15)
        assert tab.stability(-1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_range_checked(self):
        with pytest.raises(ValueError, match="theta"):
            theta_tableau(1.5)

    def test_explicit_euler_limit(self):
        tab = theta_tableau(0.0)
        assert not tab.is_sdirk
        assert tab.stability(-0.5) == pytest.approx(0.5, abs=1e-15)


class TestButcherValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            ButcherTableau(a=np.zeros((2, 2)), b=np.array([1.0]), c=np.zeros(2), order=1)

    def test_row_sums_must_match_c(self):
        with pytest.raises(ValueError, match="row sums"):
            ButcherTableau(
                a=np.array([[0.5]]), b=np.array([1.0]), c=np.array([0.0]), order=1
            )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ButcherTableau(
                a=np.array([[0.5]]), b=np.array([0.5]), c=np.array([0.5]), order=1
            )


class TestStepperConfig:
    def test_n_steps(self):
        assert StepperConfig(dt=0.1, t_end=1.0).n_steps == 10
        assert StepperConfig(dt=0.1, t_end=1.0, t0=0.5).n_steps == 5

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError, match="integer multiple"):
            StepperConfig(dt=0.3, t_end=1.0)

    def test_basic_validation(self):
        with pytest.raises(ValueError, match="dt"):
            StepperConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError, match="t_end"):
            StepperConfig(dt=0.1, t_end=0.0)
        with pytest.raises(ValueError, match="integrator"):
            StepperConfig(dt=0.1, t_end=1.0, integrator="rk4")
        with pytest.raises(ValueError, match="theta"):
            StepperConfig(dt=0.1, t_end=1.0, theta=-0.1)
        with pytest.raises(ValueError, match="snapshot_every"):
            StepperConfig(dt=0.1, t_end=1.0, snapshot_every=0)
        with pytest.raises(ValueError, match="strictly increasing"):
            StepperConfig(dt=0.1, t_end=1.0, snapshot_times=(0.5, 0.2))


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
            l_matrix=SparseMatrix.from_coo(n, rows, cols, vals),
            dirichlet_mask=mask,
            source=lambda t: np.where(mask, 0.0, t),
            boundary_values=lambda t: np.where(mask, 2.0 * t, 0.0),
            initial_values=np.zeros(n),
        )

    def test_matrix_pair(self):
        problem = self.masked_problem()
        dt, theta = 0.5, 0.7
        op = theta_operator(problem, dt, theta)
        ldense = problem.l_matrix.to_dense()
        assert np.allclose(op.b1.to_dense(), np.eye(5) - theta * dt * ldense, atol=1e-15)
        interior = np.diag((~problem.dirichlet_mask).astype(float))
        assert np.allclose(op.b0.to_dense(), interior + (1 - theta) * dt * ldense, atol=1e-15)
        # Dirichlet rows of B1 are identity rows, so boundary values pass through
        assert np.array_equal(op.b1.to_dense()[0], np.eye(5)[0])

    def test_source_wiring(self):
        problem = self.masked_problem()
        op = theta_operator(problem, dt=0.5, theta=0.7)
        f = op.source_at(1.0)
        # masked nodes carry g(t+dt), interior dt*(theta*s(t+dt)+(1-theta)*s(t))
        assert f[0] == pytest.approx(3.0, abs=1e-15)
        assert f[-1] == pytest.approx(3.0, abs=1e-15)
        assert f[2] == pytest.approx(0.5 * (0.7 * 1.5 + 0.3 * 1.0), rel=1e-14)

    def test_theta_range_checked(self):
        with pytest.raises(ValueError, match="theta"):
            theta_operator(self.masked_problem(), dt=0.1, theta=2.0)


class TestRunMatchesStabilityFunction:
    """On du/dt = lam*u every mode advances by R(lam*dt) per step, so a run
    must reproduce R^n exactly up to solver roundoff."""

    def test_theta_run(self):
        lam, dt, n = -3.0, 0.1, 10
        problem = scalar_problem(lam, [1.0, 0.5, 2.0])
        cfg = StepperConfig(dt=dt, t_end=n * dt, integrator="theta", theta=0.6)
        final, trace = run(problem, cfg)
        r = theta_tableau(0.6).stability(lam * dt).real
        assert np.allclose(final.values, r**n * problem.initial_values, rtol=1e-12)
        assert len(trace.records) == n + 1

    def test_sdirk3_run(self):
        lam, dt, n = -3.0, 0.1, 10
        problem = scalar_problem(lam, [1.0, 0.5, 2.0])
        cfg = StepperConfig(dt=dt, t_end=n * dt, integrator="sdirk3")
        final, trace = run(problem, cfg)
        r = sdirk3_tableau().stability(lam * dt).real
        assert np.allclose(final.values, r**n * problem.initial_values, rtol=1e-12)

    def test_trace_bookkeeping(self):
        problem = scalar_problem(-1.0, [1.0, 1.0, 1.0])
        cfg = StepperConfig(dt=0.25, t_end=1.0, integrator="theta", theta=1.0)
        _, trace = run(problem, cfg)
        assert [r.step for r in trace.records] == [0, 1, 2, 3, 4]
        assert trace.records[0].residual == 0.0
        assert trace.records[0].min_pre == 1.0
        for r in trace.records:
            assert r.t == pytest.approx(0.25 * r.step, abs=1e-15)
        assert not trace.diverged


class TestCutoffInsideRun:
    def test_floor_between_steps(self):
        problem = draining_problem([0.05, 1.0, 1.0])
        cfg = StepperConfig(
            dt=0.1, t_end=0.3, integrator="theta", theta=1.0, cutoff=CutoffParams(0.0)
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
            dt=0.1, t_end=0.3, integrator="theta", theta=1.0, cutoff=CutoffParams(0.025)
        )
        final, trace = run(problem, cfg)
        assert all(r.min_post >= 0.025 for r in trace.records)
        assert float(final.values.min()) == 0.025

    def test_flooring_adds_mass(self):
        problem = draining_problem([0.05, 1.0, 1.0])
        cfg = StepperConfig(
            dt=0.1, t_end=0.3, integrator="theta", theta=1.0, cutoff=CutoffParams(0.0)
        )
        _, trace = run(problem, cfg)
        for r in trace.records:
            assert r.mass_post >= r.mass_pre - 1e-15

    def test_no_cutoff_keeps_negatives(self):
        problem = draining_problem([0.05, 1.0, 1.0])
        cfg = StepperConfig(dt=0.1, t_end=0.3, integrator="theta", theta=1.0)
        final, trace = run(problem, cfg)
        assert final.values[0] == pytest.approx(-0.25, abs=1e-15)
        assert trace.records[-1].min_pre == trace.records[-1].min_post


class TestSnapshots:
    def test_cadence_and_explicit_times(self):
        problem = draining_problem([1.0, 1.0, 1.0])
        cfg = StepperConfig(
            dt=0.1, t_end=0.5, integrator="theta", theta=1.0,
            cutoff=CutoffParams(0.0), snapshot_every=2, snapshot_times=(0.3,),
        )
        _, trace = run(problem, cfg)
        times = [ts for ts, _ in trace.snapshots]
        assert times == pytest.approx([0.0, 0.2, 0.3, 0.4], abs=1e-12)
        got = trace.snapshot_near(0.3, 1e-9)
        assert got.values == pytest.approx(0.7, abs=1e-15)
        with pytest.raises(KeyError):
            trace.snapshot_near(0.123, 1e-9)


class TestThetaRunMatchesMatrixPair:
    """A theta run goes through the stage solver; repeated step_linear on the
    paper's B1/B0 pair is the reference it must reproduce."""

    @staticmethod
    def reference(problem, cfg):
        op = theta_operator(problem, cfg.dt, cfg.theta)
        u = Field(problem.grid, problem.initial_values)
        for n in range(cfg.n_steps):
            u = step_linear(op, u, cfg, n * cfg.dt)
        return u.values

    @pytest.mark.parametrize("theta,rtol,delta", [
        (1.0, 0.0, 0.0), (0.5, 1e-13, 0.0),
        # the floor lifts the boundary data to delta, and B0 (u^n)^+ reads
        # the lifted values
        (1.0, 0.0, 0.01), (0.5, 1e-13, 0.01), (0.0, 1e-13, 0.01),
    ])
    def test_masked_heat_problem(self, theta, rtol, delta):
        base = TestThetaOperator.masked_problem()
        mask = base.dirichlet_mask
        problem = replace(base, boundary_values=lambda t: np.where(mask, 1e-3 * (1.0 + t), 0.0),
                          initial_values=np.array([1e-3, -0.5, 1.0, -0.25, 1e-3]))
        cfg = StepperConfig(dt=0.01, t_end=0.2, integrator="theta", theta=theta,
                            cutoff=CutoffParams(delta))
        final, _ = run(problem, cfg)
        expected = np.maximum(self.reference(problem, cfg), delta)
        if rtol == 0.0:
            assert np.array_equal(final.values, expected)
        else:
            assert np.allclose(final.values, expected, rtol=rtol, atol=0.0)


class TestDirkStepperValidation:
    @pytest.mark.parametrize("a,b,c,match", [
        # implicit midpoint: a = [[1/2]], b = [1]
        ([[0.5]], [1.0], [0.5], "stiffly accurate"),
        ([[0.25, 0.0], [0.5, 0.5]], [0.5, 0.5], [0.25, 1.0], "single implicit diagonal"),
        # 2-stage Radau IIA: stiffly accurate but fully implicit
        ([[5 / 12, -1 / 12], [0.75, 0.25]], [0.75, 0.25], [1 / 3, 1.0], "diagonally implicit"),
    ])
    def test_rejects_unsupported_tableaux(self, a, b, c, match):
        tab = ButcherTableau(a=np.array(a), b=np.array(b), c=np.array(c), order=1)
        with pytest.raises(ValueError, match=match):
            DirkStepper(tab, SparseMatrix(sp.identity(3)), 0.1)


class TestStepHelpers:
    def test_step_linear_backward_euler(self):
        lam, dt = -3.0, 0.1
        problem = scalar_problem(lam, [1.0, 0.5, 2.0])
        op = theta_operator(problem, dt, 1.0)
        cfg = StepperConfig(dt=dt, t_end=dt, integrator="theta", theta=1.0)
        u1 = step_linear(op, Field(problem.grid, problem.initial_values), cfg)
        assert np.allclose(u1.values, problem.initial_values / 1.3, rtol=1e-14)

    def test_step_linear_floors_incoming_state(self):
        problem = scalar_problem(0.0, [-1.0, 1.0, 2.0])
        op = theta_operator(problem, 0.1, 1.0)
        cfg = StepperConfig(dt=0.1, t_end=0.1, integrator="theta", cutoff=CutoffParams(0.0))
        u1 = step_linear(op, Field(problem.grid, problem.initial_values), cfg)
        assert np.array_equal(u1.values, [0.0, 1.0, 2.0])

    def test_sdirk3_step_matches_stability(self):
        lam, dt = -2.0, 0.2
        u0 = np.array([1.0, -1.0, 0.5])
        stepper = DirkStepper(sdirk3_tableau(), SparseMatrix(sp.diags([lam, lam, lam])), dt)
        u1, _ = stepper.step(u0, 0.0)
        r = sdirk3_tableau().stability(lam * dt).real
        assert np.allclose(u1, r * u0, rtol=1e-13)

    def test_sdirk3_step_quadrature_is_third_order(self):
        # with L = 0 a step reduces to the quadrature dt*sum b_i s(c_i dt),
        # exact for polynomial sources up to degree two
        dt = 0.3
        zero = SparseMatrix.from_coo(3, [], [], [])
        stepper = DirkStepper(sdirk3_tableau(), zero, dt, source=lambda t: np.full(3, t * t))
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
    def fresh_every_step(initial, cfg, tableau, operator_for, **stage_terms):
        floored = apply_floor(initial, cfg.cutoff.delta)
        for n in range(cfg.n_steps):
            stepper = DirkStepper(tableau, operator_for(floored), cfg.dt, **stage_terms)
            values, _ = stepper.step(floored, cfg.t0 + n * cfg.dt)
            floored = apply_floor(values, cfg.cutoff.delta)
        return floored

    def test_banded_film_run_matches_fresh_steppers(self):
        spec = LubricationSpec.default_1d(64)
        cfg = StepperConfig(dt=1e-6, t_end=3e-5, cutoff=CutoffParams(0.0))
        final, trace, _ = run_lubrication(spec, cfg)
        ref = self.fresh_every_step(
            spec.initial_field().values, cfg, sdirk3_tableau(),
            lambda u: assemble_lubrication_1d(Field(spec.grid, u), spec))
        assert np.array_equal(final.values, ref)
        assert trace.solver.routes == ["banded-lu"]
        assert trace.solver.factorizations == cfg.n_steps
        assert trace.solver.extra_sweeps == 0

    @pytest.mark.parametrize("integrator", ["sdirk3", "theta"])
    def test_linear_anisotropic_run_matches_fresh_steppers(self, integrator):
        problem = assemble(AnisotropicSpec.pure_diffusion(Grid2D.square(0.0, 1.0, 12)))
        cfg = StepperConfig(dt=1e-2, t_end=0.1, cutoff=CutoffParams(0.0), integrator=integrator)
        final, trace = run(problem, cfg)
        tableau = sdirk3_tableau() if integrator == "sdirk3" else theta_tableau(1.0)
        ref = self.fresh_every_step(
            problem.initial_values, cfg, tableau, lambda u: problem.l_matrix,
            source=problem.source, dirichlet_mask=problem.dirichlet_mask,
            boundary_values=problem.boundary_values)
        assert np.array_equal(final.values, ref)
        # the one operator is shifted and factored once
        assert trace.solver.routes == ["sparse-lu/colamd"]
        assert trace.solver.factorizations == 1
        assert trace.solver.solves == cfg.n_steps * (3 if integrator == "sdirk3" else 1)

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

    def test_solve_failure_carries_the_trace(self):
        # backward Euler with dt = 1/2 shifts L = 2I to the zero matrix
        grid = Grid1D(0.0, 1.0, 4)
        n = grid.node_count
        regular, singular = SparseMatrix(sp.identity(n)), SparseMatrix(2.0 * sp.identity(n))
        calls = []

        def operator_for(floored):
            calls.append(len(calls))
            return singular if len(calls) == 4 else regular

        cfg = StepperConfig(dt=0.5, t_end=5.0, integrator="theta", cutoff=CutoffParams(0.0))
        with pytest.raises(DivergenceError, match="t = 1.5.*singular") as info:
            march(grid, np.ones(n), cfg, theta_tableau(1.0), operator_for)
        trace = info.value.trace
        assert trace.diverged
        assert [r.step for r in trace.records] == [0, 1, 2, 3]
        assert trace.solver.factorizations == 1 and trace.solver.solves == 3


class TestLinearProblemValidation:
    def test_dimension_checks(self):
        grid = Grid1D(0.0, 1.0, 2)
        good = dict(
            grid=grid,
            l_matrix=SparseMatrix(sp.identity(3)),
            dirichlet_mask=np.zeros(3, dtype=bool),
            source=lambda t: np.zeros(3),
            boundary_values=lambda t: np.zeros(3),
            initial_values=np.zeros(3),
        )
        LinearProblem(**good)
        with pytest.raises(ValueError, match="operator dimension"):
            LinearProblem(**{**good, "l_matrix": SparseMatrix(sp.identity(4))})
        with pytest.raises(ValueError, match="mask length"):
            LinearProblem(**{**good, "dirichlet_mask": np.zeros(4, dtype=bool)})
        with pytest.raises(ValueError, match="initial values length"):
            LinearProblem(**{**good, "initial_values": np.zeros(4)})


class TestSchemeDiagnostics:
    def test_synthetic_pair(self):
        n, dt = 4, 0.25
        op = SparseOperator(
            SparseMatrix(sp.identity(n)), SparseMatrix(1.5 * sp.identity(n)), np.zeros(n)
        )
        d = scheme_diagnostics(op, dt)
        assert d.norm_b1_inv == pytest.approx(1.0, rel=1e-14)
        assert d.norm_b1inv_b0 == pytest.approx(1.5, rel=1e-14)
        assert d.k_implied == pytest.approx(2.0, rel=1e-13)
        assert d.dimension == n and d.dt == dt

    def test_contraction_floors_to_zero(self):
        n = 3
        op = SparseOperator(
            SparseMatrix(sp.identity(n)), SparseMatrix(0.5 * sp.identity(n)), np.zeros(n)
        )
        assert scheme_diagnostics(op, 0.1).k_implied == 0.0

    def test_backward_euler_heat_is_contractive(self):
        problem, _ = make_heat_problem(20)
        for dt in (1e-2, 1e-3):
            d = scheme_diagnostics(theta_operator(problem, dt, 1.0), dt)
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
            d = scheme_diagnostics(theta_operator(problem, dt, 0.5), dt)
            assert d.norm_b1inv_b0 <= 1.0 + 1e-10
            assert d.k_implied == 0.0

    def test_size_cap(self):
        n = DIAGNOSTICS_SIZE_CAP + 1
        op = SparseOperator(SparseMatrix(sp.identity(n)), SparseMatrix(sp.identity(n)), np.zeros(n))
        with pytest.raises(ValueError, match="capped at dimension"):
            scheme_diagnostics(op, 0.1)

    def test_write_text(self, tmp_path):
        op = SparseOperator(
            SparseMatrix(sp.identity(2)), SparseMatrix(sp.identity(2)), np.zeros(2)
        )
        d = scheme_diagnostics(op, 0.5)
        p = tmp_path / "diag.txt"
        d.write_text(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "norm_b1_inv=1"
        assert lines[3] == "dimension=2"
        assert lines[4] == "dt=0.5"
