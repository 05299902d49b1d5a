"""Layered anisotropic problem: closed form, forcing, and the 9-point stencil."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoffpde.anisotropic import (
    B_CONVECTION,
    D_DEFAULT,
    AnisotropicSpec,
    assemble,
    exact_field,
    exact_solution,
    forcing,
)
from cutoffpde.grids import Field, Grid2D, l2_norm
from cutoffpde.linalg import identity_plus

from conftest import assert_acts_as_csr, assert_same_csr_bits, assert_shifts_as_csr


def spec_on(n, convection=False):
    grid = Grid2D.square(0.0, 1.0, n)
    return AnisotropicSpec.with_convection(grid) if convection else AnisotropicSpec.pure_diffusion(grid)


def reference_operator(spec):
    """The 9-point operator as scipy's CSR of its coordinate entries, one
    per interior node and stencil offset: the oracle of the diagonals."""
    grid = spec.grid
    nx, ny = grid.nx_cells, grid.ny_cells
    d, b = spec.diffusion, spec.convection
    gx, gy = np.meshgrid(np.arange(1, nx), np.arange(1, ny))
    center = (gy * (nx + 1) + gx).ravel()
    corner = 2.0 * d[0, 1] / (4.0 * grid.hx * grid.hy)
    stencil = {
        0: -2.0 * d[0, 0] / grid.hx**2 - 2.0 * d[1, 1] / grid.hy**2,
        1: d[0, 0] / grid.hx**2 - b[0] / (2.0 * grid.hx),
        -1: d[0, 0] / grid.hx**2 + b[0] / (2.0 * grid.hx),
        nx + 1: d[1, 1] / grid.hy**2 - b[1] / (2.0 * grid.hy),
        -(nx + 1): d[1, 1] / grid.hy**2 + b[1] / (2.0 * grid.hy),
        nx + 2: corner, -(nx + 2): corner, nx: -corner, -nx: -corner,
    }
    rows = np.concatenate([center for _ in stencil])
    cols = np.concatenate([center + off for off in stencil])
    vals = np.concatenate([np.full(center.size, w) for w in stencil.values()])
    n = grid.node_count
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


class TestExactSolution:
    def test_corner_values(self):
        assert exact_solution(0.0, 0.0, 1.0) == pytest.approx(0.9999999999999064, abs=1e-15)
        # 0.5*(1 - tanh 15) ~ e^{-30}; the subtraction leaves ~1e-3 relative noise
        assert exact_solution(0.0, 1.0, 0.0) == pytest.approx(9.3576e-14, rel=1e-3)

    def test_diagonal_midline(self):
        for t in (0.0, 0.5, 2.0):
            assert exact_solution(t, 0.3, 0.3) == pytest.approx(0.5 * math.exp(-t), rel=1e-15)

    def test_pure_exponential_decay(self):
        x = np.linspace(0.0, 1.0, 7)
        y = x[::-1]
        u0 = exact_solution(0.0, x, y)
        u2 = exact_solution(2.0, x, y)
        assert np.allclose(u2, math.exp(-2.0) * u0, rtol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.floats(min_value=0.0, max_value=3.0),
        x=st.floats(min_value=-5.0, max_value=5.0),
        y=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_bounds_and_antisymmetry(self, t, x, y):
        u = exact_solution(t, x, y)
        decay = math.exp(-t)
        assert 0.0 <= u <= decay * (1.0 + 1e-15)
        # tanh is odd, so u(x,y) + u(y,x) = e^{-t}
        assert u + exact_solution(t, y, x) == pytest.approx(decay, rel=1e-13)


class TestForcing:
    def test_on_the_layer_centerline(self):
        # at x = y the curvature terms vanish and the drift contributions
        # cancel for equal components, leaving f = -u = -e^{-t}/2
        for conv in (False, True):
            spec = spec_on(4, convection=conv)
            for t in (0.0, 1.0):
                f = forcing(t, 0.7, 0.7, spec)
                assert f == pytest.approx(-0.5 * math.exp(-t), rel=1e-14)

    def test_against_difference_quotients(self):
        # independent check: rebuild f from the closed-form solution with
        # central difference quotients in t, x, y
        spec = spec_on(4, convection=True)
        d, b = spec.diffusion, spec.convection
        t0, x0, y0 = 0.3, 0.52, 0.48
        eps = 1e-5

        def u(t, x, y):
            return exact_solution(t, x, y)

        ut = (u(t0 + eps, x0, y0) - u(t0 - eps, x0, y0)) / (2 * eps)
        ux = (u(t0, x0 + eps, y0) - u(t0, x0 - eps, y0)) / (2 * eps)
        uy = (u(t0, x0, y0 + eps) - u(t0, x0, y0 - eps)) / (2 * eps)
        uxx = (u(t0, x0 + eps, y0) - 2 * u(t0, x0, y0) + u(t0, x0 - eps, y0)) / eps**2
        uyy = (u(t0, x0, y0 + eps) - 2 * u(t0, x0, y0) + u(t0, x0, y0 - eps)) / eps**2
        uxy = (
            u(t0, x0 + eps, y0 + eps) - u(t0, x0 + eps, y0 - eps)
            - u(t0, x0 - eps, y0 + eps) + u(t0, x0 - eps, y0 - eps)
        ) / (4 * eps**2)
        f_num = ut - (d[0, 0] * uxx + 2 * d[0, 1] * uxy + d[1, 1] * uyy) + b[0] * ux + b[1] * uy
        assert forcing(t0, x0, y0, spec) == pytest.approx(f_num, rel=1e-5)

    @pytest.mark.parametrize("convection", [False, True])
    def test_source_is_the_masked_forcing(self, convection):
        # inside, the problem's source scales the forcing at t = 0 by
        # e^{-t}; on the boundary it is the Dirichlet data
        problem = assemble(spec_on(16, convection=convection))
        x, y = problem.grid.node_xy()
        interior = ~problem.dirichlet_mask
        for t in (0.0, 0.3, 1.0, 2.5, 7.0):
            want = forcing(t, x, y, spec_on(16, convection=convection))[interior]
            got = problem.source(t)
            assert np.array_equal(got[~interior], exact_solution(t, x, y)[~interior])
            assert np.max(np.abs(got[interior] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_vanishing_diffusion_limit(self):
        grid = Grid2D.square(0.0, 1.0, 4)
        spec = AnisotropicSpec(grid=grid, diffusion=((1e-12, 0.0), (0.0, 1e-12)))
        t, x, y = 0.2, 0.51, 0.5
        assert forcing(t, x, y, spec) == pytest.approx(-exact_solution(t, x, y), abs=1e-7)


class TestSpecValidation:
    def test_default_tensor_eigenvalues(self):
        vals = np.linalg.eigvalsh(np.asarray(D_DEFAULT))
        assert vals == pytest.approx([20.5, 980.5], rel=1e-14)
        assert B_CONVECTION == (1000.0, 1000.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            AnisotropicSpec(grid=Grid2D.square(0.0, 1.0, 4), diffusion=((1.0, 0.1), (0.2, 1.0)))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            AnisotropicSpec(grid=Grid2D.square(0.0, 1.0, 4), diffusion=((1.0, 2.0), (2.0, 1.0)))
        with pytest.raises(ValueError, match="positive definite"):
            AnisotropicSpec(grid=Grid2D.square(0.0, 1.0, 4), diffusion=((-1.0, 0.0), (0.0, 1.0)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2x2"):
            AnisotropicSpec(grid=Grid2D.square(0.0, 1.0, 4), diffusion=((1.0,),))
        with pytest.raises(ValueError, match="2 components"):
            AnisotropicSpec(grid=Grid2D.square(0.0, 1.0, 4), convection=(1.0, 2.0, 3.0))


class TestAssembly:
    def test_interior_stencil_entries(self):
        # h = 1/4: 1/h^2 = 16, so east/west/north/south = 500.5*16 = 8008,
        # corners = 2*480/(4 h^2) = 3840, diagonal = -4*500.5*16 = -32032
        problem = assemble(spec_on(4))
        ldense = problem.l_matrix.to_dense()
        c = 2 * 5 + 2  # node (i=2, j=2)
        row = ldense[c]
        assert row[c] == pytest.approx(-32032.0, rel=1e-14)
        for off in (1, -1, 5, -5):
            assert row[c + off] == pytest.approx(8008.0, rel=1e-14)
        for off in (6, -6):
            assert row[c + off] == pytest.approx(3840.0, rel=1e-14)
        for off in (4, -4):
            assert row[c + off] == pytest.approx(-3840.0, rel=1e-14)
        assert np.count_nonzero(row) == 9

    def test_convection_shifts_first_order_entries(self):
        problem = assemble(spec_on(4, convection=True))
        row = problem.l_matrix.to_dense()[2 * 5 + 2]
        c = 12
        assert row[c + 1] == pytest.approx(8008.0 - 2000.0, rel=1e-14)   # east
        assert row[c - 1] == pytest.approx(8008.0 + 2000.0, rel=1e-14)   # west
        assert row[c + 5] == pytest.approx(8008.0 - 2000.0, rel=1e-14)   # north
        assert row[c - 5] == pytest.approx(8008.0 + 2000.0, rel=1e-14)   # south

    def test_constants_in_kernel(self):
        # interior row sums vanish: the stencil reproduces L(const) = 0
        for conv in (False, True):
            problem = assemble(spec_on(5, convection=conv))
            sums = problem.l_matrix.to_dense().sum(axis=1)
            assert np.max(np.abs(sums)) < 1e-9

    def test_boundary_rows_zero_and_mask(self):
        problem = assemble(spec_on(4))
        mask = problem.dirichlet_mask
        assert mask.sum() == 16  # 25 nodes, 9 interior
        assert np.all(problem.l_matrix.to_dense()[mask] == 0.0)

    @pytest.mark.parametrize("n,convection", [(3, False), (8, False), (8, True), (17, True)])
    def test_diagonals_act_as_csr(self, n, convection):
        # Dirichlet rows stay empty; product, norm, pattern and every shift
        # give the bits scipy gives on the coordinate-built operator
        spec = spec_on(n, convection)
        l_matrix = assemble(spec).l_matrix
        ref = reference_operator(spec)
        assert l_matrix.diagonals()[1].shape == (9, spec.grid.node_count)
        assert_same_csr_bits(l_matrix.csr, ref)
        assert_acts_as_csr(l_matrix, ref)
        assert_shifts_as_csr(l_matrix, ref)

    def test_monotonicity_violation_witness(self):
        # the anti-diagonal corner entries are negative in L, so the shifted
        # system I - dt*L picks up positive off-diagonal entries: the scheme
        # matrix is not an M-matrix and undershoots are possible
        problem = assemble(spec_on(4))
        dt = 1e-2
        b1 = identity_plus(problem.l_matrix, -dt).to_dense()
        c = 12
        assert b1[c, c + 4] > 0.0
        assert b1[c, c - 4] > 0.0
        assert b1[c, c + 4] == pytest.approx(dt * 3840.0, rel=1e-13)

    def test_exactness_on_quadratics(self):
        # central stencils are exact on quadratics: for
        # p = x^2 + 3xy + 2y^2 + x - y + 1,
        # div(D grad p) = 2*500.5 + 6*480 + 4*500.5 = 5883 everywhere
        grid = Grid2D.square(0.0, 1.0, 5)
        x, y = grid.node_xy()
        p = x**2 + 3 * x * y + 2 * y**2 + x - y + 1.0

        problem = assemble(AnisotropicSpec.pure_diffusion(grid))
        interior = ~problem.dirichlet_mask
        lp = problem.l_matrix.matvec(p)
        assert np.allclose(lp[interior], 5883.0, atol=1e-7)

        problem_c = assemble(AnisotropicSpec.with_convection(grid))
        lp_c = problem_c.l_matrix.matvec(p)
        expected = 5883.0 - 1000.0 * ((2 * x + 3 * y + 1.0) + (3 * x + 4 * y - 1.0))
        assert np.allclose(lp_c[interior], expected[interior], atol=1e-7)

    def test_truncation_error_is_second_order(self):
        # residual L u + f - u_t of the closed form at t = 0; the interior
        # layer needs h*15 << 1 before the h^2 rate shows, so the rate is
        # read off the resolved levels (coarser grids sit pre-asymptotic)
        l2 = {}
        for n in (80, 160, 320):
            grid = Grid2D.square(0.0, 1.0, n)
            problem = assemble(AnisotropicSpec.pure_diffusion(grid))
            interior = ~problem.dirichlet_mask
            u0 = problem.initial_values
            resid = problem.l_matrix.matvec(u0) + problem.source(0.0) + u0
            l2[n] = l2_norm(Field(grid, np.where(interior, resid, 0.0)))
        assert l2[80] / l2[160] == pytest.approx(4.0, abs=0.4)
        assert l2[160] / l2[320] == pytest.approx(4.0, abs=0.4)
        assert l2[320] == pytest.approx(61.013, rel=1e-3)

    def test_initial_and_boundary_callbacks(self):
        spec = spec_on(4)
        problem = assemble(spec)
        grid = problem.grid
        x, y = grid.node_xy()
        assert np.array_equal(problem.initial_values, exact_solution(0.0, x, y))
        mask = problem.dirichlet_mask
        # one callback: the closed form on the boundary, the forcing inside
        f = problem.source(0.7)
        assert np.array_equal(f[mask], exact_solution(0.7, x, y)[mask])
        assert np.array_equal(f[~mask], math.exp(-0.7) * forcing(0.0, x, y, spec)[~mask])

    def test_exact_field(self):
        spec = spec_on(3)
        f = exact_field(spec, 1.2)
        x, y = spec.grid.node_xy()
        assert np.array_equal(f.values, exact_solution(1.2, x, y))
        assert f.grid is spec.grid
