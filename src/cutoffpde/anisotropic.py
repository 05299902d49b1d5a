"""Anisotropic diffusion-(convection) test problem with a known solution.

    u_t = div(D grad u) - b . grad u + f        on (0,1)^2,

with a constant SPD tensor D whose strong off-diagonal coupling makes the
9-point discretization non-monotone, an optional constant drift b, Dirichlet
data taken from the manufactured solution

    u(t, x, y) = (1/2) e^{-t} (tanh(-15 (x - y)) + 1),

and the forcing f chosen so u solves the PDE exactly.  u lies in [0, 1] with
a steep interior layer along x = y; central differencing of the cross term
produces small negative undershoots near the layer, which is what the cutoff
machinery is exercised against.

Spatial operator: u_xx, u_yy by 3-point central differences, the mixed term
2 Dxy u_xy by the 4-corner stencil
(u_{i+1,j+1} - u_{i+1,j-1} - u_{i-1,j+1} + u_{i-1,j-1}) / (4 hx hy),
drift by central first differences, scattered onto the operator's nine
diagonals in scipy's DIA layout (linalg.SparseMatrix), each interior row's
weight at its column.  Boundary nodes keep empty operator rows, which the
stepper's shifted system turns into identity rows that return the
Dirichlet values.  One source callback gives the forcing inside and the
Dirichlet data on the boundary.  Every term of the forcing carries
the e^{-t} of the solution, so inside it is the forcing at t = 0 scaled by
e^{-t}; on the boundary it is the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Field, Grid2D
from .linalg import SparseMatrix
from .stepping import LinearProblem

#: default diffusion tensor; eigenvalues 980.5 and 20.5 along (1,1) and (1,-1)
D_DEFAULT = ((500.5, 480.0), (480.0, 500.5))

#: drift used by the convection variant
B_CONVECTION = (1000.0, 1000.0)

_LAYER_SLOPE = 15.0


@dataclass(frozen=True)
class AnisotropicSpec:
    """Problem data: grid, diffusion tensor, drift vector."""

    grid: Grid2D
    diffusion: tuple = D_DEFAULT
    convection: tuple = (0.0, 0.0)

    def __post_init__(self):
        d = np.asarray(self.diffusion, dtype=float)
        if d.shape != (2, 2):
            raise ValueError("diffusion tensor must be 2x2")
        if abs(d[0, 1] - d[1, 0]) > 0.0:
            raise ValueError("diffusion tensor must be symmetric")
        # positive definiteness: positive trace and determinant
        if d[0, 0] <= 0.0 or np.linalg.det(d) <= 0.0:
            raise ValueError("diffusion tensor must be positive definite")
        b = np.asarray(self.convection, dtype=float)
        if b.shape != (2,):
            raise ValueError("convection vector must have 2 components")
        object.__setattr__(self, "diffusion", d)
        object.__setattr__(self, "convection", b)

    @classmethod
    def pure_diffusion(cls, grid: Grid2D) -> "AnisotropicSpec":
        return cls(grid=grid)

    @classmethod
    def with_convection(cls, grid: Grid2D) -> "AnisotropicSpec":
        return cls(grid=grid, convection=B_CONVECTION)


def exact_solution(t, x, y):
    """Closed-form solution; vectorized over x, y."""
    return 0.5 * np.exp(-t) * (np.tanh(-_LAYER_SLOPE * (np.asarray(x) - np.asarray(y))) + 1.0)


def _layer_derivatives(t, x, y):
    """(u, u_x, u_y, u_xx, u_xy, u_yy) of the closed form."""
    s = -_LAYER_SLOPE * (np.asarray(x) - np.asarray(y))
    decay = np.exp(-t)
    tanh_s = np.tanh(s)
    sech2 = 1.0 - tanh_s * tanh_s
    u = 0.5 * decay * (tanh_s + 1.0)
    a = _LAYER_SLOPE
    ux = -0.5 * a * decay * sech2
    uy = 0.5 * a * decay * sech2
    curv = a * a * decay * sech2 * tanh_s
    return u, ux, uy, -curv, curv, -curv


def forcing(t, x, y, spec: AnisotropicSpec):
    """f = u_t - div(D grad u) + b . grad u from closed-form derivatives."""
    u, ux, uy, uxx, uxy, uyy = _layer_derivatives(t, x, y)
    d = spec.diffusion
    b = spec.convection
    diff = d[0, 0] * uxx + 2.0 * d[0, 1] * uxy + d[1, 1] * uyy
    return -u - diff + b[0] * ux + b[1] * uy


def assemble(spec: AnisotropicSpec) -> LinearProblem:
    """Build the semidiscrete problem: 9-point interior stencil, zero rows on
    the Dirichlet boundary, one source callback from the closed form
    (forcing inside, Dirichlet data on the boundary), initial data sampled
    at t = 0."""
    grid = spec.grid
    nx, ny = grid.nx_cells, grid.ny_cells
    hx, hy = grid.hx, grid.hy
    d = spec.diffusion
    b = spec.convection

    ix = np.arange(1, nx)
    iy = np.arange(1, ny)
    gx, gy = np.meshgrid(ix, iy)
    center = (gy * (nx + 1) + gx).ravel()

    east = d[0, 0] / hx**2 - b[0] / (2.0 * hx)
    west = d[0, 0] / hx**2 + b[0] / (2.0 * hx)
    north = d[1, 1] / hy**2 - b[1] / (2.0 * hy)
    south = d[1, 1] / hy**2 + b[1] / (2.0 * hy)
    corner = 2.0 * d[0, 1] / (4.0 * hx * hy)
    diag = -2.0 * d[0, 0] / hx**2 - 2.0 * d[1, 1] / hy**2

    offsets_and_weights = sorted([
        (0, diag),
        (1, east), (-1, west),
        (nx + 1, north), (-(nx + 1), south),
        (nx + 2, corner), (-(nx + 2), corner),          # (i+1,j+1), (i-1,j-1)
        (nx, -corner), (-nx, -corner),                  # (i-1,j+1), (i+1,j-1)
    ])
    offsets = np.array([off for off, w in offsets_and_weights if w != 0.0])
    weights = np.array([w for _, w in offsets_and_weights if w != 0.0])
    # data[c, j] = L[j - offsets[c], j]: row k's stencil weights sit at
    # k + offsets[c] for the interior rows k, and the Dirichlet rows stay
    # empty
    data = np.zeros((offsets.size, grid.node_count))
    for c, off in enumerate(offsets):
        data[c, center + off] = weights[c]
    l_matrix = SparseMatrix(offsets, data)

    x, y = grid.node_xy()
    mask = np.zeros(grid.node_count, dtype=bool)
    lattice = mask.reshape(grid.shape)
    lattice[0, :] = lattice[-1, :] = True
    lattice[:, 0] = lattice[:, -1] = True

    forcing_at_0 = forcing(0.0, x, y, spec)
    x_boundary, y_boundary = x[mask], y[mask]

    def source(t: float) -> np.ndarray:
        f = math.exp(-t) * forcing_at_0
        # the closed form is elementwise: evaluated on the boundary nodes
        # alone it gives the same bits there
        f[mask] = exact_solution(t, x_boundary, y_boundary)
        return f

    def exact(t: float) -> np.ndarray:
        return exact_solution(t, x, y)

    return LinearProblem(
        grid=grid,
        l_matrix=l_matrix,
        dirichlet_mask=mask,
        source=source,
        initial_values=exact(0.0),
        exact=exact,
    )


def exact_field(spec: AnisotropicSpec, t: float) -> Field:
    x, y = spec.grid.node_xy()
    return Field(spec.grid, exact_solution(t, x, y))
