"""Experiment drivers: convergence studies, the regularization comparison,
and the metadata sidecar every run directory gets.

A convergence study runs the anisotropic layer problem over a ladder of
grids at fixed dt, measures the trapezoid L2 error and the undershoot
max(0, -min u) of the pre-cutoff iterate at the final time, and fits
log-log slopes by least squares.  The design choices that are not forced
by the equations (face-mobility averaging, boundary realization, touching
conventions, the delta rule) are echoed into metadata.txt, with the
solver routes and counts of what ran, so a run directory is
self-describing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy

from . import __version__
from .anisotropic import AnisotropicSpec, assemble, exact_field
from .cutoff import CutoffParams
from .grids import Grid2D, l2_norm
from .lubrication import LubricationSpec, has_zero_plateau, run_lubrication
from .stepping import (
    SDIRK3_GAMMA,
    DivergenceError,
    SolverStats,
    StepperConfig,
    run,
    sdirk3_tableau,
    theta_tableau,
)

CUTOFF_MODES = ("off", "nonneg", "delta")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment = problem tag + resolution ladder + stepping choices.

    delta mode floors at delta = delta_coefficient * dt * h^2, recomputed per
    resolution, which keeps the floor below the scheme's own truncation
    error.  A setting no run would read is refused: theta other than 1
    unless the integrator is "theta", delta_coefficient other than 1 unless
    cutoff_mode is "delta".
    """

    experiment: str
    resolutions: Sequence[int]
    dt: float
    t_end: float
    cutoff_mode: str = "nonneg"
    delta_coefficient: float = 1.0
    epsilon: float = 0.0
    convection: bool = False
    integrator: str = "sdirk3"
    theta: float = 1.0
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.cutoff_mode not in CUTOFF_MODES:
            raise ValueError(f"cutoff_mode must be one of {CUTOFF_MODES}")
        if not self.resolutions:
            raise ValueError("need at least one resolution")
        if self.integrator not in ("theta", "sdirk3"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.theta != 1.0 and self.integrator != "theta":
            raise ValueError(f"theta = {self.theta} needs the theta integrator")
        if self.delta_coefficient != 1.0 and self.cutoff_mode != "delta":
            raise ValueError(
                f"delta_coefficient = {self.delta_coefficient} needs cutoff_mode 'delta'")

    def run_config(self, h: float, **snapshots) -> StepperConfig:
        """The StepperConfig of one run on a grid of spacing h; snapshots
        are StepperConfig's snapshot_times and snapshot_every."""
        cutoff = None
        if self.cutoff_mode == "nonneg":
            cutoff = CutoffParams(0.0)
        elif self.cutoff_mode == "delta":
            cutoff = CutoffParams(self.delta_coefficient * self.dt * h * h)
        tableau = theta_tableau(self.theta) if self.integrator == "theta" else sdirk3_tableau()
        return StepperConfig(dt=self.dt, t_end=self.t_end, cutoff=cutoff, tableau=tableau,
                             **snapshots)


@dataclass
class ConvergenceRow:
    resolution: int
    h: float
    dt: float
    l2_error: float
    max_undershoot: float


@dataclass
class ConvergenceReport:
    rows: list = field(default_factory=list)

    def slope_l2(self) -> float:
        return loglog_slope([r.h for r in self.rows], [r.l2_error for r in self.rows])

    def slope_undershoot(self) -> float:
        pairs = [(r.h, r.max_undershoot) for r in self.rows if r.max_undershoot > 0.0]
        if len(pairs) < 2:
            return float("nan")
        return loglog_slope([h for h, _ in pairs], [u for _, u in pairs])

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("resolution,h,dt,l2_error,max_undershoot\n")
            for r in self.rows:
                fh.write(f"{r.resolution},{r.h:.17g},{r.dt:.17g},"
                         f"{r.l2_error:.17g},{r.max_undershoot:.17g}\n")
            fh.write(f"# slope_l2={self.slope_l2():.17g}\n")
            fh.write(f"# slope_undershoot={self.slope_undershoot():.17g}\n")


def loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 2:
        return float("nan")
    return float(np.polyfit(lx, ly, 1)[0])


def convergence_study(cfg: ExperimentConfig) -> ConvergenceReport:
    """Run the anisotropic problem over cfg.resolutions and collect errors.

    The undershoot column measures the raw pre-cutoff final iterate, which
    is the quantity the floor would discard; the L2 error measures the
    post-cutoff solution against the exact layer.  A divergent resolution
    writes the rows obtained so far, its partial trace and the metadata with
    the error (when out_dir is set) and re-raises.
    """
    report = ConvergenceReport()
    solver = SolverStats()
    try:
        for j in cfg.resolutions:
            grid = Grid2D.square(0.0, 1.0, j)
            spec = (AnisotropicSpec.with_convection(grid) if cfg.convection
                    else AnisotropicSpec.pure_diffusion(grid))
            problem = assemble(spec)
            final, trace = run(problem, cfg.run_config(grid.hx))
            solver.add(trace.solver)
            err = l2_norm(final - exact_field(spec, cfg.t_end))
            last = trace.records[-1]
            report.rows.append(ConvergenceRow(
                resolution=j, h=grid.hx, dt=cfg.dt,
                l2_error=err,
                max_undershoot=max(0.0, -last.min_pre),
            ))
    except DivergenceError as err:
        if cfg.out_dir:
            solver.add(err.trace.solver)
            write_failure(cfg.out_dir, cfg, solver, err)
            report.write_csv(os.path.join(cfg.out_dir, "convergence.csv"))
        raise
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        report.write_csv(os.path.join(cfg.out_dir, "convergence.csv"))
        write_metadata(os.path.join(cfg.out_dir, "metadata.txt"), cfg, solver)
    return report


@dataclass
class RegularizationComparison:
    onset_diff: float
    liftoff_diff: float
    final_max_diff: float
    zero_plateau_exact: bool
    zero_plateau_mollified: bool
    record_exact: object
    record_mollified: object

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("quantity,exact,mollified,abs_diff\n")

            def row(name, a, b):
                d = abs(a - b) if (a is not None and b is not None) else float("nan")
                fa = "none" if a is None else f"{a:.17g}"
                fb = "none" if b is None else f"{b:.17g}"
                fh.write(f"{name},{fa},{fb},{d:.17g}\n")

            row("onset", self.record_exact.onset_precutoff_time,
                self.record_mollified.onset_precutoff_time)
            row("liftoff", self.record_exact.liftoff_time,
                self.record_mollified.liftoff_time)
            row("max_touching_length", self.record_exact.max_touching_length,
                self.record_mollified.max_touching_length)
            fh.write(f"zero_plateau,{str(self.zero_plateau_exact).lower()},"
                     f"{str(self.zero_plateau_mollified).lower()},nan\n")
            fh.write(f"final_max_diff,,,{self.final_max_diff:.17g}\n")


def regularization_comparison(n_cells: int, dt: float, t_end: float,
                              epsilon: float,
                              out_dir: Optional[str] = None,
                              snapshot_every: Optional[int] = None) -> RegularizationComparison:
    """Run the 1D film once with the bare mobility and once mollified, and
    compare touchdown/liftoff times and the final profiles.  With out_dir
    set, writes the comparison, both singularity records and a metadata.txt
    whose solver counts add up the two runs."""
    exp = ExperimentConfig(experiment="reg-compare", resolutions=[n_cells], dt=dt,
                           t_end=t_end, cutoff_mode="nonneg", epsilon=epsilon)
    runs = {}
    for tag, eps in (("exact", 0.0), ("mollified", epsilon)):
        spec = LubricationSpec.default_1d(n_cells=n_cells, epsilon=eps)
        cfg = exp.run_config(spec.grid.h, snapshot_every=snapshot_every)
        runs[tag] = run_lubrication(spec, cfg)

    final_a, trace_a, rec_a = runs["exact"]
    final_b, trace_b, rec_b = runs["mollified"]

    def tdiff(a, b):
        if a is None and b is None:
            return 0.0
        if a is None or b is None:
            return float("inf")
        # both times are integer multiples of dt; compare exactly in steps
        return round(abs(a - b) / dt) * dt

    cmp = RegularizationComparison(
        onset_diff=tdiff(rec_a.onset_precutoff_time, rec_b.onset_precutoff_time),
        liftoff_diff=tdiff(rec_a.liftoff_time, rec_b.liftoff_time),
        final_max_diff=float(np.max(np.abs(final_a.values - final_b.values))),
        zero_plateau_exact=has_zero_plateau(trace_a.snapshots),
        zero_plateau_mollified=has_zero_plateau(trace_b.snapshots),
        record_exact=rec_a,
        record_mollified=rec_b,
    )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        cmp.write_csv(os.path.join(out_dir, "comparison.csv"))
        rec_a.write_csv(os.path.join(out_dir, "singularity_exact.csv"))
        rec_b.write_csv(os.path.join(out_dir, "singularity_mollified.csv"))
        solver = SolverStats()
        solver.add(trace_a.solver)
        solver.add(trace_b.solver)
        write_metadata(os.path.join(out_dir, "metadata.txt"), exp, solver)
    return cmp


def write_failure(out_dir, cfg: ExperimentConfig, solver: SolverStats, err: DivergenceError):
    """The artifacts of a run that stopped: its partial trace.csv and a
    metadata.txt with an error line."""
    os.makedirs(out_dir, exist_ok=True)
    err.trace.write_csv(os.path.join(out_dir, "trace.csv"))
    write_metadata(os.path.join(out_dir, "metadata.txt"), cfg, solver, error=str(err))


def write_metadata(path, cfg: ExperimentConfig, solver: SolverStats, error: str = None):
    """Echo every design toggle that the equations do not force, what the
    solver did over the experiment's runs (its LU routes, or "none" for
    explicit steps only, its counts, its worst residual over tolerance, the
    stored entries of its largest LU and the solves that started from an
    extrapolated guess), then the package, numpy and scipy versions, the
    error that stopped the run if one did, and every *_NUM_THREADS variable
    set in the environment (one absent from the file was unset)."""
    lines = {
        "experiment": cfg.experiment,
        "resolutions": ",".join(str(r) for r in cfg.resolutions),
        "dt": f"{cfg.dt:.17g}",
        "t_end": f"{cfg.t_end:.17g}",
        "integrator": cfg.integrator,
        "theta": f"{cfg.theta:.17g}",
        "sdirk_gamma": f"{SDIRK3_GAMMA:.17g}",
        "cutoff_mode": cfg.cutoff_mode,
        "delta_rule": f"delta = {cfg.delta_coefficient:.17g} * dt * h^2",
        "epsilon": f"{cfg.epsilon:.17g}",
        "convection": str(cfg.convection).lower(),
        "face_mobility": "arithmetic_mean",
        "boundary_lubrication": "no_flux_ghost_reflection",
        "boundary_anisotropic": "dirichlet_exact_trace",
        "touching_length": "fencepost span of touching set (outermost nodes k apart -> k*h, isolated node h/2)",
        "touching_area_2d": "trapezoid_weight_sum",
        "onset_definition": "first step with pre-cutoff min <= 0",
        "solver": ",".join(solver.routes) or "none",
        "solver_factorizations": str(solver.factorizations),
        "solver_solves": str(solver.solves),
        "solver_extra_sweeps": str(solver.extra_sweeps),
        "solver_residual_max": f"{solver.residual_max:.17g}",
        "solver_lu_fill": str(solver.lu_fill),
        "solver_guessed": str(solver.guessed),
        "cutoffpde_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }
    if error is not None:
        lines["error"] = " ".join(error.splitlines())
    lines.update(sorted(
        (name, value) for name, value in os.environ.items() if name.endswith("_NUM_THREADS")
    ))
    with open(path, "w") as fh:
        for k, v in lines.items():
            fh.write(f"{k}={v}\n")
