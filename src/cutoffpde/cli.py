"""Command-line front end.

Subcommands map one-to-one onto the library drivers:

    aniso-convergence   grid ladder for the anisotropic layer problem
    aniso-run           single anisotropic run with trace + final field
    lub1d               1D thin film with singularity tracking
    lub2d               2D thin film
    reg-compare         mollified vs bare mobility side by side
    diagnostics         theta-scheme matrix norms on a small grid

Each run writes CSV artifacts plus metadata.txt into --out, except
diagnostics, which writes diagnostics.txt only; --out is created before the
run starts, and a run that stops early writes its partial trace.csv and a
metadata.txt with an error line.  Exit codes: 0 on success, 1 on a numerical
failure (divergence, solver breakdown, bad parameter values), 2 on unusable
arguments (argparse, a malformed list value among them, or an --out that
cannot be created as a directory).
"""

from __future__ import annotations

import argparse
import os
import sys

from .anisotropic import AnisotropicSpec, assemble, exact_field
from .grids import Grid2D, l2_norm, write_field_csv
from .harness import (
    ExperimentConfig,
    convergence_study,
    regularization_comparison,
    write_failure,
    write_metadata,
)
from .linalg import SolveError
from .lubrication import LubricationSpec, run_lubrication
from .stepping import DivergenceError, run, scheme_diagnostics, theta_operator


# argparse types; a ValueError they raise exits 2 with "invalid <name> value"
def int_list(text):
    return [int(tok) for tok in text.split(",")]


def float_list(text):
    if not text:
        return ()
    return tuple(float(tok) for tok in text.split(","))


def _add_common(p, default_dt, default_tend=None):
    """--dt and --out, plus --t-end unless the command takes no horizon."""
    p.add_argument("--dt", type=float, default=default_dt)
    if default_tend is not None:
        p.add_argument("--t-end", type=float, default=default_tend)
    p.add_argument("--out", default=None, help="output directory for CSV artifacts")


def _add_cutoff(p):
    p.add_argument("--cutoff", choices=("off", "nonneg", "delta"), default="nonneg")
    p.add_argument("--delta-coeff", type=float, default=1.0,
                   help="delta = coeff * dt * h^2 when --cutoff delta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutoffpde",
        description="cutoff-stabilized implicit schemes for parabolic problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aniso-convergence", help="anisotropic layer grid ladder")
    p.add_argument("--grids", type=int_list, default="10,20,40,80",
                   help="comma list of cells per side")
    p.add_argument("--convection", action="store_true")
    p.add_argument("--integrator", choices=("sdirk3", "theta"), default="sdirk3")
    p.add_argument("--theta", type=float, default=1.0)
    _add_common(p, default_dt=1e-2, default_tend=1.0)
    _add_cutoff(p)

    p = sub.add_parser("aniso-run", help="one anisotropic run, trace + final")
    p.add_argument("-J", "--grid", type=int, default=80, help="cells per side")
    p.add_argument("--convection", action="store_true")
    p.add_argument("--integrator", choices=("sdirk3", "theta"), default="sdirk3")
    p.add_argument("--theta", type=float, default=1.0)
    _add_common(p, default_dt=1e-2, default_tend=1.0)
    _add_cutoff(p)

    p = sub.add_parser("lub1d", help="1D thin film, touchdown and liftoff")
    p.add_argument("-J", "--grid", type=int, default=1000, help="cells")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--snapshot-every", type=int, default=None)
    p.add_argument("--snapshots", type=float_list, default="", help="comma list of times")
    _add_common(p, default_dt=1e-6, default_tend=2.5e-3)
    _add_cutoff(p)

    p = sub.add_parser("lub2d", help="2D thin film")
    p.add_argument("-J", "--grid", type=int, default=80, help="cells per side")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--snapshot-every", type=int, default=None)
    p.add_argument("--snapshots", type=float_list, default="", help="comma list of times")
    _add_common(p, default_dt=1e-6, default_tend=1e-3)
    _add_cutoff(p)

    p = sub.add_parser("reg-compare", help="bare vs mollified mobility")
    p.add_argument("-J", "--grid", type=int, default=1000, help="cells")
    p.add_argument("--epsilon", type=float, default=1e-14)
    p.add_argument("--snapshot-every", type=int, default=None)
    _add_common(p, default_dt=1e-6, default_tend=2.5e-3)

    p = sub.add_parser("diagnostics", help="theta-scheme matrix norms")
    p.add_argument("-J", "--grid", type=int, default=20, help="cells per side")
    p.add_argument("--theta", type=float, default=1.0)
    _add_common(p, default_dt=1e-2)

    return parser


def _experiment_config(args, name, resolutions, **extra) -> ExperimentConfig:
    return ExperimentConfig(
        experiment=name,
        resolutions=resolutions,
        dt=args.dt,
        t_end=args.t_end,
        cutoff_mode=args.cutoff,
        delta_coefficient=args.delta_coeff,
        out_dir=args.out,
        **extra,
    )


def _run_or_write_failure(out, exp, driver, *args):
    """driver(*args); a run that stops with a DivergenceError writes its
    partial trace and the metadata with the error into out (if given)
    before the error goes on."""
    try:
        return driver(*args)
    except DivergenceError as err:
        if out:
            write_failure(out, exp, err.trace.solver, err)
        raise


def _cmd_aniso_convergence(args) -> int:
    cfg = _experiment_config(args, "aniso-convergence", args.grids,
                             convection=args.convection,
                             integrator=args.integrator, theta=args.theta)
    report = convergence_study(cfg)
    for row in report.rows:
        print(f"J={row.resolution:4d}  h={row.h:.4e}  l2={row.l2_error:.6e}  "
              f"undershoot={row.max_undershoot:.6e}")
    print(f"slope_l2={report.slope_l2():.3f}  "
          f"slope_undershoot={report.slope_undershoot():.3f}")
    return 0


def _cmd_aniso_run(args) -> int:
    grid = Grid2D.square(0.0, 1.0, args.grid)
    spec = (AnisotropicSpec.with_convection(grid) if args.convection
            else AnisotropicSpec.pure_diffusion(grid))
    problem = assemble(spec)
    exp = _experiment_config(args, "aniso-run", [args.grid],
                             convection=args.convection,
                             integrator=args.integrator, theta=args.theta)
    final, trace = _run_or_write_failure(args.out, exp, run, problem, exp.run_config(grid.hx))
    err = l2_norm(final - exact_field(spec, args.t_end))
    last = trace.records[-1]
    print(f"l2_error={err:.6e}  min_pre={last.min_pre:.6e}  "
          f"min_post={last.min_post:.6e}")
    if args.out:
        trace.write_csv(os.path.join(args.out, "trace.csv"))
        write_field_csv(final, os.path.join(args.out, "final.csv"))
        write_metadata(os.path.join(args.out, "metadata.txt"), exp, trace.solver)
    return 0


def _run_lubrication_cmd(args, name, spec, h) -> int:
    exp = _experiment_config(args, name, [args.grid], epsilon=args.epsilon)
    cfg = exp.run_config(h, snapshot_every=args.snapshot_every, snapshot_times=args.snapshots)
    final, trace, record = _run_or_write_failure(args.out, exp, run_lubrication, spec, cfg)

    def fmt(v):
        return "none" if v is None else f"{v:.6e}"

    print(f"onset={fmt(record.onset_precutoff_time)}  "
          f"liftoff={fmt(record.liftoff_time)}  "
          f"max_touching={record.max_touching_length:.6e}  "
          f"final_min={final.values.min():.6e}")
    if args.out:
        trace.write_csv(os.path.join(args.out, "trace.csv"))
        write_field_csv(final, os.path.join(args.out, "final.csv"))
        record.write_csv(os.path.join(args.out, "singularity.csv"))
        for t, snap in trace.snapshots:
            if cfg.is_snapshot_time(t):
                write_field_csv(snap, os.path.join(args.out, f"snapshot_t{t:.6g}.csv"))
        write_metadata(os.path.join(args.out, "metadata.txt"), exp, trace.solver)
    return 0


def _cmd_lub1d(args) -> int:
    spec = LubricationSpec.default_1d(args.grid, epsilon=args.epsilon)
    return _run_lubrication_cmd(args, "lub1d", spec, spec.grid.h)


def _cmd_lub2d(args) -> int:
    spec = LubricationSpec.default_2d(args.grid, epsilon=args.epsilon)
    return _run_lubrication_cmd(args, "lub2d", spec, spec.grid.hx)


def _cmd_reg_compare(args) -> int:
    cmp = regularization_comparison(
        n_cells=args.grid, dt=args.dt, t_end=args.t_end,
        epsilon=args.epsilon, out_dir=args.out,
        snapshot_every=args.snapshot_every)
    print(f"onset_diff={cmp.onset_diff:.6e}  liftoff_diff={cmp.liftoff_diff:.6e}  "
          f"final_max_diff={cmp.final_max_diff:.6e}")
    return 0


def _cmd_diagnostics(args) -> int:
    grid = Grid2D.square(0.0, 1.0, args.grid)
    problem = assemble(AnisotropicSpec.pure_diffusion(grid))
    b1, b0, _ = theta_operator(problem, args.dt, args.theta)
    diag = scheme_diagnostics(b1, b0, args.dt)
    print(f"norm_b1_inv={diag.norm_b1_inv:.6e}  "
          f"norm_b1inv_b0={diag.norm_b1inv_b0:.6e}  "
          f"k_implied={diag.k_implied:.6e}")
    if args.out:
        diag.write_text(os.path.join(args.out, "diagnostics.txt"))
    return 0


_COMMANDS = {
    "aniso-convergence": _cmd_aniso_convergence,
    "aniso-run": _cmd_aniso_run,
    "lub1d": _cmd_lub1d,
    "lub2d": _cmd_lub2d,
    "reg-compare": _cmd_reg_compare,
    "diagnostics": _cmd_diagnostics,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"error: unusable --out: {exc}", file=sys.stderr)
            return 2
    try:
        return _COMMANDS[args.command](args)
    except (SolveError, DivergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
