"""Shared fixtures: the expensive reference runs are session-scoped so the
acceptance suite and the module tests measure one and the same run."""

import numpy as np
import pytest
import scipy.sparse as sp

from cutoffpde.cutoff import CutoffParams
from cutoffpde.grids import Field, Grid1D, l2_norm
from cutoffpde.harness import ExperimentConfig, convergence_study, regularization_comparison
from cutoffpde.linalg import SparseMatrix
from cutoffpde.lubrication import LubricationSpec, run_lubrication
from cutoffpde.stepping import LinearProblem, StepperConfig, run, sdirk3_tableau, theta_tableau

ANISO_RESOLUTIONS = (10, 20, 40, 80)
ANISO_DT = 1e-2
ANISO_T_END = 1.0

LUB_DT = 1e-6
LUB_T_END = 2.5e-3


def make_heat_problem(n_cells: int = 200) -> tuple:
    """Dirichlet heat equation u_t = u_xx on (0,1) with u0 = sin(pi x).

    The attached exact solution is the SEMIDISCRETE one,
    exp(lambda_h t) sin(pi x_j) with lambda_h = -(4/h^2) sin^2(pi h / 2)
    the eigenvalue of the 3-point Laplacian, so errors against it are pure
    time-integration errors.
    """
    grid = Grid1D(0.0, 1.0, n_cells)
    n = grid.node_count
    h = grid.h
    main = np.full(n, -2.0 / h**2)
    main[0] = main[-1] = 0.0
    lo = np.full(n - 1, 1.0 / h**2)
    lo[-1] = 0.0
    hi = np.full(n - 1, 1.0 / h**2)
    hi[0] = 0.0
    l_matrix = SparseMatrix(sp.diags([lo, main, hi], [-1, 0, 1]))
    mask = np.zeros(n, dtype=bool)
    mask[0] = mask[-1] = True
    x = grid.nodes()
    lam = -(4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2

    def zero(t):
        return np.zeros(n)

    def exact(t):
        return np.exp(lam * t) * np.sin(np.pi * x)

    problem = LinearProblem(
        grid=grid, l_matrix=l_matrix, dirichlet_mask=mask,
        source=zero,
        initial_values=np.sin(np.pi * x), exact=exact,
    )
    return problem, grid


@pytest.fixture(scope="session")
def aniso_study_nonneg():
    return convergence_study(ExperimentConfig(
        "aniso-nonneg", ANISO_RESOLUTIONS, ANISO_DT, ANISO_T_END,
        cutoff_mode="nonneg"))


@pytest.fixture(scope="session")
def aniso_study_delta():
    return convergence_study(ExperimentConfig(
        "aniso-delta", ANISO_RESOLUTIONS, ANISO_DT, ANISO_T_END,
        cutoff_mode="delta"))


@pytest.fixture(scope="session")
def aniso_study_convection():
    return convergence_study(ExperimentConfig(
        "aniso-convection", ANISO_RESOLUTIONS, ANISO_DT, ANISO_T_END,
        cutoff_mode="nonneg", convection=True))


@pytest.fixture(scope="session")
def lub1d_run():
    """The headline 1D film run: 1000 cells, dt = 1e-6, bare mobility."""
    spec = LubricationSpec.default_1d(1000)
    cfg = StepperConfig(dt=LUB_DT, t_end=LUB_T_END, cutoff=CutoffParams(0.0))
    return run_lubrication(spec, cfg)


@pytest.fixture(scope="session")
def lub1d_coarse_final():
    """128-cell variant stopped at t = 1.5e-3, for the coarse-fidelity check."""
    spec = LubricationSpec.default_1d(128)
    cfg = StepperConfig(dt=LUB_DT, t_end=1.5e-3, cutoff=CutoffParams(0.0))
    final, _, _ = run_lubrication(spec, cfg)
    return final


@pytest.fixture(scope="session")
def reg_cmp():
    return regularization_comparison(
        n_cells=1000, dt=LUB_DT, t_end=LUB_T_END, epsilon=1e-14)


@pytest.fixture(scope="session")
def lub2d_run():
    """80x80 film to t = 1e-3; the long one (about 16 s on 2 cores)."""
    spec = LubricationSpec.default_2d(80)
    cfg = StepperConfig(dt=LUB_DT, t_end=1e-3, cutoff=CutoffParams(0.0))
    return run_lubrication(spec, cfg)


@pytest.fixture(scope="session")
def heat_temporal_errors():
    """L2 errors vs the semidiscrete solution for both integrators over a
    dt ladder on a fixed 200-cell grid."""
    dts = (4e-3, 2e-3, 1e-3)
    t_end = 0.1
    out = {}
    for integ, tableau in (("sdirk3", sdirk3_tableau()), ("theta", theta_tableau(1.0))):
        errs = []
        for dt in dts:
            problem, grid = make_heat_problem()
            cfg = StepperConfig(dt=dt, t_end=t_end, tableau=tableau)
            final, _ = run(problem, cfg)
            errs.append(l2_norm(final - Field(grid, problem.exact(t_end))))
        out[integ] = (dts, tuple(errs))
    return out
