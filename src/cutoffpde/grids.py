"""Uniform Cartesian grids, nodal fields, their quadrature and L2 norm.

Grids are node-centered: a 1D grid with ``n_cells`` cells on [a, b] carries
``n_cells + 1`` nodes x_j = a + j*h, h = (b - a)/n_cells.  2D grids are tensor
products with nodes stored flat in row-major order (y outer, x inner), i.e.
the value at (x_i, y_j) sits at flat index ``j*(nx_cells+1) + i``.

Integral quantities use trapezoid_weights: l2_norm here, and the masses a
run records (stepping.march) and the touching area (lubrication).  Boundary
nodes carry half weight (quarter weight at 2D corners).  This is the single
quadrature convention used everywhere in the package; conservation statements
for the flux-form operators are exact with respect to these weights.  The
weighted sums are numpy's pairwise sums, not BLAS dots, so their digits do not
depend on how many threads BLAS runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [a, b] with n_cells cells and n_cells + 1 nodes."""

    a: float
    b: float
    n_cells: int

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("grid endpoints must be finite")
        if not self.b > self.a:
            raise ValueError(f"grid needs b > a, got [{self.a}, {self.b}]")
        if self.n_cells < 2:
            raise ValueError(f"grid needs at least 2 cells, got {self.n_cells}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_cells

    @property
    def node_count(self) -> int:
        return self.n_cells + 1

    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n_cells + 1)


@dataclass(frozen=True)
class Grid2D:
    """Tensor-product grid on [ax, bx] x [ay, by], row-major node ordering."""

    ax: float
    bx: float
    nx_cells: int
    ay: float
    by: float
    ny_cells: int

    def __post_init__(self):
        # reuse the 1D validation per axis
        Grid1D(self.ax, self.bx, self.nx_cells)
        Grid1D(self.ay, self.by, self.ny_cells)

    @classmethod
    def square(cls, a: float, b: float, n_cells: int) -> "Grid2D":
        return cls(a, b, n_cells, a, b, n_cells)

    @property
    def hx(self) -> float:
        return (self.bx - self.ax) / self.nx_cells

    @property
    def hy(self) -> float:
        return (self.by - self.ay) / self.ny_cells

    @property
    def shape(self) -> tuple:
        """(rows, cols) = (ny_cells + 1, nx_cells + 1) of the node lattice."""
        return (self.ny_cells + 1, self.nx_cells + 1)

    @property
    def node_count(self) -> int:
        return (self.nx_cells + 1) * (self.ny_cells + 1)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.ax, self.bx, self.nx_cells + 1)

    def y_nodes(self) -> np.ndarray:
        return np.linspace(self.ay, self.by, self.ny_cells + 1)

    def node_xy(self) -> tuple:
        """Flat (x, y) coordinate arrays in storage order."""
        xs = self.x_nodes()
        ys = self.y_nodes()
        return np.tile(xs, self.ny_cells + 1), np.repeat(ys, self.nx_cells + 1)


Grid = Union[Grid1D, Grid2D]


@dataclass(frozen=True)
class Field:
    """Nodal values bound to their grid.

    Fields from different grids must never be combined; arithmetic checks
    this.  Values may be non-finite only in a state explicitly flagged as
    diverged by a stepper; every norm/quadrature routine rejects them.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError(f"field values must be a flat vector, got shape {vals.shape}")
        if vals.shape[0] != self.grid.node_count:
            raise ValueError(
                f"field has {vals.shape[0]} values for a grid with "
                f"{self.grid.node_count} nodes"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable) -> "Field":
        """Sample fn on the nodes: fn(x) in 1D, fn(x, y) in 2D (vectorized)."""
        if isinstance(grid, Grid1D):
            return cls(grid, np.asarray(fn(grid.nodes()), dtype=float))
        x, y = grid.node_xy()
        return cls(grid, np.asarray(fn(x, y), dtype=float))

    def _check_same_grid(self, other: "Field"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values - other.values)


def trapezoid_weights(grid: Grid) -> np.ndarray:
    """Quadrature weights per node; sum equals the domain measure."""
    if isinstance(grid, Grid1D):
        w = np.full(grid.node_count, grid.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w
    wx = trapezoid_weights(Grid1D(grid.ax, grid.bx, grid.nx_cells))
    wy = trapezoid_weights(Grid1D(grid.ay, grid.by, grid.ny_cells))
    return np.outer(wy, wx).ravel()


def _require_finite(values: np.ndarray, what: str):
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{what} has non-finite value {float(values[i])!r} at node {i}")


def l2_norm(e: Field) -> float:
    """Trapezoid-weighted discrete L2 norm, sqrt(sum_j w_j e_j^2)."""
    _require_finite(e.values, "l2_norm argument")
    w = trapezoid_weights(e.grid)
    return float(math.sqrt(float(np.sum(w * (e.values * e.values)))))


def write_field_csv(f: Field, path):
    """One row per node, columns x[,y],value, 17 significant digits."""
    with open(path, "w") as fh:
        if isinstance(f.grid, Grid1D):
            fh.write("x,value\n")
            for x, v in zip(f.grid.nodes(), f.values):
                fh.write(f"{x:.17g},{v:.17g}\n")
        else:
            fh.write("x,y,value\n")
            x, y = f.grid.node_xy()
            for xi, yi, v in zip(x, y, f.values):
                fh.write(f"{xi:.17g},{yi:.17g},{v:.17g}\n")


def read_field_csv(grid: Grid, path) -> Field:
    """Read values written by write_field_csv back onto a known grid."""
    with open(path) as fh:
        header = fh.readline()
        vals = [float(line.rsplit(",", 1)[1]) for line in fh if line.strip()]
    del header
    return Field(grid, np.asarray(vals))
