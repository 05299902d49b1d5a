"""Fourth-order thin-film equation with degenerate mobility.

    u_t + div( f(u) grad(lap u) ) = 0,      f(u) = u^n  (default n = 1/2),

on (-1,1) in 1D and (-1,1)^2 in 2D, with conservative no-flux boundary
conditions (normal derivatives of u and of lap u vanish; both are realized
by even ghost-node reflection).  The initial film

    1D:  u0(x) = 0.8 - cos(pi x) + 0.25 cos(2 pi x)
    2D:  u0(x, y) = g(x) g(y)  with g the 1D profile

is strictly positive but drains to zero in finite time; past that point the
solution develops a flat touching region that persists for a while and then
lifts off again.  The half-power mobility is undefined for negative values,
so runs floor the state to zero between steps and the mobility hard-errors
if it ever sees a negative node.

Optionally the mobility is mollified,

    f_eps(u) = u^4 f(u) / (eps f(u) + u^4),

which agrees with f(u) away from zero, vanishes like u^4/eps near it, and
recovers f as eps -> 0.

Discretization: write the flux as f(u) d(lap u)/dn on cell faces.  With
w = lap_h u (3/5-point Laplacian with reflected ghosts) the face flux in 1D
becomes f_{j+1/2} (w_{j+1} - w_j)/h = f_{j+1/2}
(u_{j+2} - 3 u_{j+1} + 3 u_j - u_{j-1})/h^3; face mobilities are arithmetic
means of the nodal ones evaluated at the previous post-cutoff state (lagged
diffusivity: one matrix per step, frozen across the SDIRK stages).  Node
updates divide flux differences by the node's control volume (half cells at
boundaries), which makes the trapezoid-weighted column sums of the
assembled operator vanish and mass exactly conserved up to solver residual.
One stencil product serves 1D and 2D: the operator's diagonals, in scipy's
DIA layout (linalg.SparseMatrix), are one sparse map applied to the flux
divergence's diagonals, data.ravel() = P @ d.ravel().  P is read off the
Laplacian's diagonals once per grid and cached; its entries are the
Laplacian's, so the product gives entry for entry the sparse product of
flux divergence and Laplacian, in its order of summation, and writes no
slot twice.  The Laplacians are built on their diagonals too.
Both films keep their operators on those diagonals and shift them there.
The 1D film factors its pentadiagonal system every step by banded LU
filled straight from them, so no CSR matrix is built between assembly and
backsubstitution.  The 2D film keeps its sparse LU across steps while its
solves still refine to tolerance (see stepping.DirkStepper), and forms CSR
for SuperLU only when it factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .grids import Field, Grid1D, Grid2D, trapezoid_weights
from .linalg import SparseMatrix
from .stepping import StepperConfig, march

#: default snapshot cadence (steps) for singularity tracking
SNAPSHOT_EVERY_DEFAULT = 10


@dataclass(frozen=True)
class MobilitySpec:
    """f(u) = u^exponent, optionally mollified by epsilon."""

    exponent: float = 0.5
    epsilon: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.exponent) and self.exponent >= 0.0):
            raise ValueError("mobility exponent must be >= 0")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError("mobility epsilon must be >= 0")


def default_initial_1d(x):
    """Positive film with minimum 0.05 at x = 0 and mean 0.8."""
    return 0.8 - np.cos(np.pi * x) + 0.25 * np.cos(2.0 * np.pi * x)


def default_initial_2d(x, y):
    """Tensor-product film, minimum 0.0025, mean 0.64."""
    return default_initial_1d(x) * default_initial_1d(y)


@dataclass(frozen=True)
class LubricationSpec:
    grid: object
    mobility: MobilitySpec = MobilitySpec()
    initial: Optional[Callable] = None

    @classmethod
    def default_1d(cls, n_cells: int = 1000, epsilon: float = 0.0) -> "LubricationSpec":
        return cls(grid=Grid1D(-1.0, 1.0, n_cells),
                   mobility=MobilitySpec(epsilon=epsilon))

    @classmethod
    def default_2d(cls, n_cells: int = 80, epsilon: float = 0.0) -> "LubricationSpec":
        return cls(grid=Grid2D.square(-1.0, 1.0, n_cells),
                   mobility=MobilitySpec(epsilon=epsilon))

    def initial_field(self) -> Field:
        if self.initial is not None:
            return Field.from_function(self.grid, self.initial)
        fn = default_initial_1d if isinstance(self.grid, Grid1D) else default_initial_2d
        return Field.from_function(self.grid, fn)


def mobility(u, spec: MobilitySpec):
    """Nodewise mobility; scalar or array input.  Negative input is a hard
    error naming the offending node (impossible after the cutoff)."""
    vals = np.asarray(u, dtype=float)
    bad = ~np.isfinite(vals) | (vals < 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        v = vals.flat[i] if vals.ndim else vals[()]
        raise ValueError(f"mobility needs finite nonnegative input; node {i} has {float(v)!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(vals > 0.0, vals ** spec.exponent, 0.0)
        if spec.epsilon > 0.0:
            u4 = vals ** 4
            f = np.where(vals > 0.0, u4 * f / (spec.epsilon * f + u4), 0.0)
    return f if vals.ndim else float(f)


#: grids whose stencil maps stay cached; a run uses one or two
LAPLACIAN_CACHE_SIZE = 32


def _laplacian_1d(grid: Grid1D) -> SparseMatrix:
    """3-point Laplacian with even ghost reflection (u_x = 0 at both ends)."""
    n = grid.node_count
    h2 = grid.h ** 2
    # data[c, j] = Lap[j - offsets[c], j]; the reflected ghosts double
    # Lap[0, 1] and Lap[n-1, n-2]
    data = np.zeros((3, n))
    data[0, :-1] = data[2, 1:] = 1.0 / h2
    data[0, -2] = data[2, 1] = 2.0 / h2
    data[1] = -2.0 / h2
    return SparseMatrix(np.array([-1, 0, 1]), data)


def _laplacian_2d(grid: Grid2D) -> SparseMatrix:
    """5-point Laplacian with even reflection on all four sides: the sum of
    the 1D Laplacians along x and along y, on the diagonals -(nx+1), -1, 0,
    1 and nx+1."""
    _, lx = _laplacian_1d(Grid1D(grid.ax, grid.bx, grid.nx_cells)).diagonals()
    _, ly = _laplacian_1d(Grid1D(grid.ay, grid.by, grid.ny_cells)).diagonals()
    w, rows = grid.nx_cells + 1, grid.ny_cells + 1
    # the x couplings repeat along every grid row, the y couplings along
    # every grid column; both keep their zeros off the matrix
    data = np.stack([np.repeat(ly[0], w), np.tile(lx[0], rows),
                     (lx[1] + ly[1][:, None]).ravel(),
                     np.tile(lx[2], rows), np.repeat(ly[2], w)])
    return SparseMatrix(np.array([-w, -1, 0, 1, w]), data)


@lru_cache(maxsize=LAPLACIAN_CACHE_SIZE)
def _stencil_map(grid) -> tuple:
    """(offsets, P): the operator -(D @ Lap) on its diagonals is
    data.ravel() = P @ d.ravel(), for d[m, i] = D[i, i + o_m] (nodes in
    storage order) and the flux-divergence offsets o = (-1, 0, 1) in 1D and
    (-(nx+1), -1, 0, 1, nx+1) in 2D; offsets are the sorted distinct sums of
    o with itself (the five diagonals in 1D; 13 on 2D grids more than two
    cells wide).

    P has one row per DIA slot (c, j) and one column per (m, i), i = j -
    offsets[c]: its entry is -Lap[i + o_m, j] wherever that is nonzero.
    P is canonical CSR, so a row's entries come in ascending m, and P @ d
    sums each entry D[i, i + o_m] * Lap[i + o_m, j] over ascending o_m from
    0.0, the order of a sparse product: the entries are the product's to
    the bit (up to the sign of a zero, which CSR does not store).  Slots
    off the matrix have empty rows and stay 0.0 whatever d holds.  Built
    once per grid, read off the Laplacian's own diagonals, and shared by
    every caller, so read-only."""
    if isinstance(grid, Grid1D):
        lap, o = _laplacian_1d(grid), np.array([-1, 0, 1])
    else:
        w = grid.nx_cells + 1
        lap, o = _laplacian_2d(grid), np.array([-w, -1, 0, 1, w])
    offsets = np.unique(o[:, None] + o[None, :]).astype(np.int32)
    n = lap.dimension
    rows, columns, values = [], [], []
    for m, om in enumerate(o):
        for p, diagonal in zip(*lap.diagonals()):
            # slot (c, j) of offset om + p takes -Lap[j - p, j] * D[i, i + om]
            # with i = j - om - p, for the j whose i lies inside
            j = np.arange(max(0, om + p), min(n, n + om + p))
            j = j[diagonal[j] != 0.0]
            rows.append(np.searchsorted(offsets, om + p) * n + j)
            columns.append(m * n + j - om - p)
            values.append(-diagonal[j])
    # 32-bit indices: a 40x40 map holds 0.58 MB, against 0.83 MB with 64-bit ones
    index = tuple(np.concatenate(a).astype(np.int32) for a in (rows, columns))
    product = sp.csr_array((np.concatenate(values), index), shape=(offsets.size * n, o.size * n))
    product.sum_duplicates()  # canonical: each row's entries in ascending m
    for array in (offsets, product.data, product.indices, product.indptr):
        array.flags.writeable = False
    return offsets, product


def _stencil_product(d: np.ndarray, grid) -> SparseMatrix:
    """-(D @ Lap) on its diagonals, from d[m, i] = D[i, i + o_m] (see
    _stencil_map)."""
    offsets, product = _stencil_map(grid)
    return SparseMatrix(offsets, (product @ d.ravel()).reshape(offsets.size, -1))


def assemble_lubrication_1d(u_lagged: Field, spec: LubricationSpec) -> SparseMatrix:
    """Matrix of the linear operator u -> -( f_hat u_xxx )_x with face
    mobilities frozen at the lagged state; pentadiagonal inside, reflected
    ghosts at the ends.

    The operator is -(D @ Lap), D the flux divergence
    w -> (1/vol_i) [c_i (w_{i+1} - w_i) - c_{i-1} (w_i - w_{i-1})] with
    c_i = f_{i+1/2}/h, zero flux through the domain ends and half-cell
    volumes there, formed and returned on its five diagonals by
    _stencil_product.
    """
    grid = spec.grid
    if not isinstance(grid, Grid1D) or u_lagged.grid != grid:
        raise ValueError("lagged state must live on the 1D grid of the spec")
    n = grid.node_count
    h = grid.h
    vol = np.full(n, h)
    vol[0] = vol[-1] = 0.5 * h
    f = mobility(u_lagged.values, spec.mobility)
    c = 0.5 * (f[:-1] + f[1:]) / h  # face i+1/2, i = 0..n-2
    # d[m + 1, i] = D[i, i + m]
    d = np.zeros((3, n))
    d[0, 1:] = c / vol[1:]
    d[2, :-1] = c / vol[:-1]
    d[1] = -d[2] - d[0]
    return _stencil_product(d, grid)


def assemble_lubrication_2d(u_lagged: Field, spec: LubricationSpec) -> SparseMatrix:
    """2D analogue: w = lap_h u by the reflected 5-point stencil, face fluxes
    f_face * dw/dn, divergence over node control volumes (quarter cells at
    corners).

    As in 1D the operator is -(D @ Lap), formed on its 13-point stencil by
    _stencil_product.  D[i, i] sums the east, west, north and south face
    terms in that order, as a coordinate-format D sums its duplicates, so
    the entries are the sparse product's to the bit.
    """
    grid = spec.grid
    if not isinstance(grid, Grid2D) or u_lagged.grid != grid:
        raise ValueError("lagged state must live on the 2D grid of the spec")
    nx, ny = grid.nx_cells, grid.ny_cells
    volx = np.full(nx + 1, grid.hx)
    volx[0] = volx[-1] = 0.5 * grid.hx
    voly = np.full((ny + 1, 1), grid.hy)
    voly[0] = voly[-1] = 0.5 * grid.hy

    f = mobility(u_lagged.values, spec.mobility).reshape(ny + 1, nx + 1)
    cx = 0.5 * (f[:, :-1] + f[:, 1:]) / grid.hx  # face (i+1/2, j)
    cy = 0.5 * (f[:-1] + f[1:]) / grid.hy  # face (i, j+1/2)
    # d[m, j, i] = D[k, k + o_m] at node k = (i, j), o = (S, W, C, E, N)
    d = np.zeros((5, ny + 1, nx + 1))
    d[0, 1:] = cy / voly[1:]
    d[1, :, 1:] = cx / volx[1:]
    d[3, :, :-1] = cx / volx[:-1]
    d[4, :-1] = cy / voly[:-1]
    d[2] = -d[3] - d[1] - d[4] - d[0]
    return _stencil_product(d, grid)


@dataclass
class SingularityRecord:
    """Touching-set history of one run.

    onset_time comes from the snapshot series (first nonempty touching set);
    liftoff_time is the first snapshot time after which the touching set
    stays empty for the rest of the run (the set can flicker at single nodes
    near the end, so "first empty" alone would fire early).
    onset_precutoff_time is the sharper per-step definition, the first time
    the raw pre-cutoff minimum drops to <= 0.  Lengths use the fencepost
    convention on the touching set's span: outermost touching nodes k apart
    measure k*h, an isolated node h/2 (the dry region is an interval whose
    interior can hold a thin residual film, so the span, not the longest
    all-zero block, is what converges to the continuum interval length);
    in 2D the touching measure is the trapezoid-weighted node area.
    """

    onset_time: Optional[float]
    liftoff_time: Optional[float]
    touching: list
    max_touching_length: float
    onset_precutoff_time: Optional[float] = None

    def write_csv(self, path):
        def fmt(v):
            return "none" if v is None else f"{v:.17g}"

        with open(path, "w") as fh:
            fh.write(f"onset={fmt(self.onset_time)}\n")
            fh.write(f"liftoff={fmt(self.liftoff_time)}\n")
            fh.write(f"max_length={fmt(self.max_touching_length)}\n")
            fh.write(f"onset_precutoff={fmt(self.onset_precutoff_time)}\n")
            fh.write("t,touching_length\n")
            for t, length in self.touching:
                fh.write(f"{t:.17g},{length:.17g}\n")


def touching_length(f: Field) -> float:
    """Fencepost span of the touching set (1D) or the trapezoid-weighted
    area of all touching nodes (2D); a node touches where its value is at
    most zero."""
    touched = f.values <= 0.0
    if isinstance(f.grid, Grid2D):
        if not touched.any():
            return 0.0
        return float(trapezoid_weights(f.grid)[touched].sum())
    idx = np.flatnonzero(touched)
    if idx.size == 0:
        return 0.0
    h = f.grid.h
    if idx.size == 1:
        return 0.5 * h
    return float(idx[-1] - idx[0]) * h


#: a dry patch narrower than this (domain units) does not count as an interval
ZERO_PLATEAU_MIN_WIDTH = 0.02
#: values at or below this count as identically zero for plateau detection
ZERO_PLATEAU_TOL = 1e-12


def has_zero_plateau(snapshots: Sequence) -> bool:
    """Whether any 1D snapshot is identically zero across a touching span of
    at least ZERO_PLATEAU_MIN_WIDTH.  Distinguishes a film that truly dies on
    an interval from one whose dry region carries a persistent interior bump;
    ZERO_PLATEAU_TOL absorbs solver-level dust on top of exact cutoff zeros."""
    for _, f in snapshots:
        if not isinstance(f.grid, Grid1D):
            raise ValueError("zero-plateau detection is defined for 1D fields")
        idx = np.flatnonzero(f.values <= 0.0)
        if idx.size < 2:
            continue
        if (idx[-1] - idx[0]) * f.grid.h < ZERO_PLATEAU_MIN_WIDTH:
            continue
        if f.values[idx[0]:idx[-1] + 1].max() <= ZERO_PLATEAU_TOL:
            return True
    return False


def track_singularity(snapshots: Sequence) -> SingularityRecord:
    """Scan a post-cutoff snapshot series [(t, Field), ...] (strictly
    increasing t) for touchdown and persistent liftoff of the zero set."""
    times = [t for t, _ in snapshots]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("snapshot times must be strictly increasing")
    series = [(t, touching_length(f)) for t, f in snapshots]
    onset = next((t for t, length in series if length > 0.0), None)
    liftoff = None
    if onset is not None:
        last_nonempty = max(i for i, (_, length) in enumerate(series) if length > 0.0)
        if last_nonempty + 1 < len(series):
            liftoff = series[last_nonempty + 1][0]
    return SingularityRecord(
        onset_time=onset,
        liftoff_time=liftoff,
        touching=series,
        max_touching_length=max((length for _, length in series), default=0.0),
    )


def run_lubrication(spec: LubricationSpec, cfg: StepperConfig) -> tuple:
    """Advance the thin-film problem with lagged mobilities.

    Per step (see stepping.march): floor the state, assemble the operator
    from the floored state, take one step of cfg.tableau (stages share the
    step's shifted system), record statistics.  Snapshots default to every
    SNAPSHOT_EVERY_DEFAULT steps.  Returns (final_field, trace,
    singularity_record); the final field is post-cutoff.  The record scans
    the cadence snapshots alone (StepperConfig.on_cadence): a field stored
    at a requested snapshot time goes to trace.snapshots but moves no
    touchdown.  Refuses to start without a cutoff when epsilon = 0 since
    the bare mobility rejects negative arguments; a mollified run without
    cutoff whose state goes negative stops with a DivergenceError carrying
    the trace.
    """
    if cfg.cutoff is None and spec.mobility.epsilon == 0.0:
        raise ValueError(
            "the unregularized mobility needs the cutoff enabled; "
            "pass CutoffParams(0.0) or a positive epsilon"
        )
    if cfg.snapshot_every is None:
        cfg = replace(cfg, snapshot_every=SNAPSHOT_EVERY_DEFAULT)
    grid = spec.grid
    assemble = assemble_lubrication_1d if isinstance(grid, Grid1D) else assemble_lubrication_2d
    final, trace = march(grid, spec.initial_field().values.copy(), cfg,
                         lambda floored: assemble(Field(grid, floored), spec))
    # the cadence alone: a requested time must not move the touchdown
    record_sing = track_singularity([(t, f) for t, f in trace.snapshots
                                     if cfg.on_cadence(round(t / cfg.dt))])
    for r in trace.records:
        if r.min_pre <= 0.0:
            record_sing.onset_precutoff_time = r.t
            break
    return final, trace, record_sing
