"""Shared fixtures: the expensive reference runs are session-scoped so the
acceptance suite and the module tests measure one and the same run."""

import numpy as np
import pytest
import scipy.sparse as sp

from cutoffpde.cutoff import CutoffParams
from cutoffpde.grids import Field, Grid1D, l2_norm
from cutoffpde.harness import ExperimentConfig, convergence_study, regularization_comparison
from cutoffpde.linalg import SparseMatrix, identity_plus
from cutoffpde.lubrication import LubricationSpec, run_lubrication
from cutoffpde.stepping import (
    SDIRK3_GAMMA,
    LinearProblem,
    StepperConfig,
    run,
    sdirk3_tableau,
    theta_tableau,
)

ANISO_RESOLUTIONS = (10, 20, 40, 80)
ANISO_DT = 1e-2
ANISO_T_END = 1.0

LUB_DT = 1e-6
LUB_T_END = 2.5e-3


#: shifts the one-form checks apply: a film step's, large ones of both
#: signs, and two that zero or underflow the scaled entries
SCALES = (-SDIRK3_GAMMA * 1e-6, -0.5, 2.0, 0.0, 1e-320)


def canonical(matrix) -> sp.csr_matrix:
    """matrix as scipy's canonical CSR: sorted columns, duplicates summed, no
    explicit zeros."""
    csr = sp.csr_matrix(matrix, copy=True)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    return csr


def sparse_matrix(matrix) -> SparseMatrix:
    """The SparseMatrix of scipy or dense input: duplicates summed, zeros
    dropped, laid out on the diagonals its entries span and the main one."""
    coo = canonical(sp.csr_matrix(matrix, dtype=float)).tocoo()
    n = coo.shape[0]
    if coo.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {coo.shape}")
    spans = coo.col - coo.row
    offsets = np.union1d(spans, [0])
    data = np.zeros((offsets.size, n))
    data[np.searchsorted(offsets, spans), coo.col] = coo.data
    return SparseMatrix(offsets, data)


def reference_identity_plus(csr, scale):
    """I + scale*A by scipy's checked sum, the oracle for identity_plus."""
    return sp.identity(csr.shape[0], format="csr") + float(scale) * csr


def same_bits(x, y):
    """Equal dtypes and values, NaN where NaN, and the same sign on every
    zero: for finite values, the same bits."""
    x, y = np.asarray(x), np.asarray(y)
    numbers = ~np.isnan(x)
    return (x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x[numbers]), np.signbit(y[numbers])))


def assert_same_csr_bits(got, want):
    """Equal CSR arrays, index dtypes and signed zeros included."""
    for part in ("indptr", "indices", "data"):
        assert same_bits(getattr(got, part), getattr(want, part)), part


def assert_acts_as_csr(a, ref):
    """The product, norm, entry count and bandwidth of the SparseMatrix a
    are those scipy computes on the CSR matrix ref, bit for bit."""
    rng = np.random.default_rng(3)
    n = a.dimension
    for x in (rng.normal(size=n), np.ones(n), np.zeros(n)):
        assert same_bits(a.matvec(x), ref @ x)
    # each row summed in storage order: scipy's product with a ones vector
    assert same_bits(a.operator_norm_inf(), float((abs(ref) @ np.ones(n)).max()))
    assert a.nnz == ref.nnz
    coo = ref.tocoo()
    d = coo.row.astype(np.int64) - coo.col
    assert a.bandwidth() == (int(d.max(initial=0)), int(-d.min(initial=0)))


def assert_shifts_as_csr(a, ref):
    """identity_plus(a, s) at every s in SCALES equals scipy's I + s*ref:
    its CSR arrays bit for bit, and what it computes on them."""
    for scale in SCALES:
        shifted, want = identity_plus(a, scale), reference_identity_plus(ref, scale)
        assert shifted.diagonals()[0] is a.diagonals()[0]
        assert_same_csr_bits(shifted.csr, want)
        assert_acts_as_csr(shifted, want)


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
    l_matrix = sparse_matrix(sp.diags([lo, main, hi], [-1, 0, 1]))
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
