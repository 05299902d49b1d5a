"""The benchmark workloads: command lines, set-up builders and output checks.

Each workload is one ``cutoffpde`` command line, run at full size for the
measurement and at a tiny size for warm-up and the smoke tests.  No workload
draws random numbers, so its inputs are the same for every seed.

The checks read the artifacts the command wrote back from disk and return
one message per failed check; an empty list means the outputs are correct.
Band checks (the film touchdown chronology, the seed's anisotropic errors)
hold only at full size; the rest hold at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cutoffpde import AnisotropicSpec, Grid2D, LubricationSpec, assemble, exact_field, l2_norm
from cutoffpde.grids import read_field_csv

#: trapezoid L2 errors at t = 1 of the seed commit, aniso-ladder by J
LADDER_L2 = {40: 0.010927695539584899, 80: 0.0044563316001466329, 160: 0.0014424312408939329}
#: the same for aniso-theta (J = 160, backward Euler, dt = 2.5e-3)
THETA_L2 = 0.0014424368598275309
#: relative half-width of the band each anisotropic error must stay in; wide
#: enough for a changed rounding order, narrow enough for a changed scheme
L2_RTOL = 1e-6

#: criterion-7 windows of the 1000-cell film
FILM1D_ONSET = (7.0e-4, 7.6e-4)
FILM1D_LIFTOFF = (2.2e-3, 2.5e-3)
FILM1D_MAX_LENGTH = (0.10, 0.14)
#: criterion-11 bound on the pre-onset per-step relative mass drift
MASS_DRIFT_MAX = 1e-9
#: x<->y asymmetry allowed in the 2D film, relative to its max height
SYMMETRY_RTOL = 1e-10

# trace.csv columns: step,t,min_pre,min_post,mass_pre,mass_post,residual
_T, _MIN_POST, _MASS_PRE, _MASS_POST = 1, 3, 4, 5


def _read_trace(out: Path) -> np.ndarray:
    return np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)


def _read_singularity(out: Path) -> dict:
    """The key=value header of singularity.csv; 'none' reads as None."""
    head = {}
    with open(out / "singularity.csv") as fh:
        for line in fh:
            if "=" not in line:
                break
            key, value = line.strip().split("=", 1)
            head[key] = None if value == "none" else float(value)
    return head


def _in_band(what: str, value, band: tuple) -> list:
    lo, hi = band
    if value is not None and lo <= value <= hi:
        return []
    return [f"{what} {value} outside [{lo}, {hi}]"]


def _near(what: str, value: float, ref: float) -> list:
    if abs(value - ref) <= L2_RTOL * ref:
        return []
    return [f"{what} {value!r} differs from the seed value {ref!r} by more than {L2_RTOL:g} relative"]


def _cutoff_kept(trace: np.ndarray) -> list:
    if np.all(trace[:, _MIN_POST] >= 0.0):
        return []
    return [f"min_post < 0 on {int(np.sum(trace[:, _MIN_POST] < 0.0))} trace rows"]


def _mass_drift(trace: np.ndarray, onset) -> list:
    """Criterion 11: per-step relative mass drift before the pre-cutoff onset."""
    rows = trace if onset is None else trace[trace[:, _T] < onset]
    prev = rows[:-1, _MASS_POST]
    drift = np.abs(rows[1:, _MASS_PRE] - prev) / np.abs(prev)
    worst = float(drift.max(initial=0.0))
    return [] if worst <= MASS_DRIFT_MAX else [f"pre-onset mass drift {worst:.3e} > {MASS_DRIFT_MAX:g}"]


def check_film1d(out: Path, full: bool) -> list:
    trace = _read_trace(out)
    sing = _read_singularity(out)
    onset = sing["onset_precutoff"]
    fails = _cutoff_kept(trace) + _mass_drift(trace, onset)
    if full:
        fails += _in_band("onset", onset, FILM1D_ONSET)
        fails += _in_band("liftoff", sing["liftoff"], FILM1D_LIFTOFF)
        fails += _in_band("max touching length", sing["max_length"], FILM1D_MAX_LENGTH)
    return fails


def check_film2d(out: Path, full: bool) -> list:
    trace = _read_trace(out)
    fails = _cutoff_kept(trace)
    if full and _read_singularity(out)["onset_precutoff"] is None:
        fails.append(f"no touchdown before t_end = {trace[-1, _T]:.6g}")
    final = np.loadtxt(out / "final.csv", delimiter=",", skiprows=1, ndmin=2)
    side = int(round(np.sqrt(final.shape[0])))
    u = final[:, 2].reshape(side, side)
    asym = float(np.max(np.abs(u - u.T)))
    if asym > SYMMETRY_RTOL * float(np.max(np.abs(u))):
        fails.append(f"final field x<->y asymmetry {asym:.3e}")
    return fails


def check_ladder(out: Path, full: bool) -> list:
    rows = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1, comments="#", ndmin=2)
    grids, errors = rows[:, 0].astype(int), rows[:, 3]
    fails = []
    if not np.all(np.diff(errors) < 0.0):
        fails.append(f"L2 error does not decrease with J: {errors.tolist()}")
    if full:
        if grids.tolist() != list(LADDER_L2):
            fails.append(f"ladder ran J = {grids.tolist()}, expected {list(LADDER_L2)}")
        else:
            for j, err in zip(grids, errors):
                fails += _near(f"L2 error at J={j}", float(err), LADDER_L2[j])
    return fails


def check_theta(out: Path, full: bool) -> list:
    fails = _cutoff_kept(_read_trace(out))
    if full:
        spec = AnisotropicSpec.pure_diffusion(Grid2D.square(0.0, 1.0, 160))
        final = read_field_csv(spec.grid, out / "final.csv")
        fails += _near("L2 error at J=160", l2_norm(final - exact_field(spec, 1.0)), THETA_L2)
    return fails


def _square_problem(n_cells: int):
    return assemble(AnisotropicSpec.pure_diffusion(Grid2D.square(0.0, 1.0, n_cells)))


@dataclass(frozen=True)
class Workload:
    name: str
    #: CLI arguments of the measured run, without --out
    argv: tuple
    #: a run of well under a second on the same code path
    tiny_argv: tuple
    #: builds the workload's problems through the public builders (set-up)
    build: Callable[[], object]
    #: (artifact dir, full size?) -> failure messages
    check: Callable[[Path, bool], list]


WORKLOADS = {w.name: w for w in (
    Workload(
        "film1d",
        ("lub1d", "-J", "1000", "--dt", "1e-6", "--t-end", "2.5e-3"),
        ("lub1d", "-J", "100", "--dt", "1e-6", "--t-end", "2e-5"),
        lambda: LubricationSpec.default_1d(1000).initial_field(),
        check_film1d,
    ),
    Workload(
        "film2d",
        ("lub2d", "-J", "40", "--dt", "1e-6", "--t-end", "4e-4"),
        ("lub2d", "-J", "8", "--dt", "1e-6", "--t-end", "2e-5"),
        lambda: LubricationSpec.default_2d(40).initial_field(),
        check_film2d,
    ),
    Workload(
        "aniso-ladder",
        ("aniso-convergence", "--grids", "40,80,160", "--dt", "1e-2", "--t-end", "1",
         "--cutoff", "nonneg"),
        ("aniso-convergence", "--grids", "8,16", "--dt", "1e-2", "--t-end", "0.1",
         "--cutoff", "nonneg"),
        lambda: [_square_problem(j) for j in LADDER_L2],
        check_ladder,
    ),
    Workload(
        "aniso-theta",
        ("aniso-run", "-J", "160", "--integrator", "theta", "--theta", "1.0",
         "--dt", "2.5e-3", "--t-end", "1"),
        ("aniso-run", "-J", "16", "--integrator", "theta", "--theta", "1.0",
         "--dt", "2.5e-3", "--t-end", "0.025"),
        lambda: _square_problem(160),
        check_theta,
    ),
)}
