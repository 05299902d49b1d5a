"""Experiment drivers, report files, metadata sidecars, and the CLI."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import cutoffpde
from cutoffpde.cli import cli_main
from cutoffpde.cutoff import CutoffParams
from cutoffpde.harness import (
    CUTOFF_MODES,
    ConvergenceReport,
    ConvergenceRow,
    ExperimentConfig,
    convergence_study,
    loglog_slope,
    regularization_comparison,
    write_metadata,
)
from cutoffpde.harness import RegularizationComparison
from cutoffpde.lubrication import SingularityRecord
from cutoffpde.stepping import SolverStats


def read_metadata(path) -> dict:
    return dict(line.split("=", 1) for line in Path(path).read_text().splitlines())


class TestExperimentConfig:
    def test_modes(self):
        assert CUTOFF_MODES == ("off", "nonneg", "delta")
        with pytest.raises(ValueError, match="cutoff_mode"):
            ExperimentConfig("x", (10,), dt=0.1, t_end=1.0, cutoff_mode="clamp")
        with pytest.raises(ValueError, match="resolution"):
            ExperimentConfig("x", (), dt=0.1, t_end=1.0)

    def test_cutoff_for(self):
        base = dict(experiment="x", resolutions=(10,), dt=0.01, t_end=1.0)
        assert ExperimentConfig(cutoff_mode="off", **base).cutoff_for(0.1) is None
        assert ExperimentConfig(cutoff_mode="nonneg", **base).cutoff_for(0.1) == CutoffParams(0.0)
        got = ExperimentConfig(cutoff_mode="delta", delta_coefficient=2.0, **base).cutoff_for(0.1)
        assert got.delta == pytest.approx(2.0 * 0.01 * 0.01, rel=1e-15)


class TestLoglogSlope:
    def test_exact_power_laws(self):
        h = [0.1, 0.05, 0.025, 0.0125]
        for p in (0.5, 1.0, 2.0, 3.0):
            e = [3.0 * x**p for x in h]
            assert loglog_slope(h, e) == pytest.approx(p, rel=1e-12)

    def test_short_input_is_nan(self):
        assert math.isnan(loglog_slope([0.1], [1.0]))
        assert math.isnan(loglog_slope([], []))


class TestConvergenceReport:
    @staticmethod
    def synthetic():
        report = ConvergenceReport()
        for j in (10, 20, 40):
            h = 1.0 / j
            report.rows.append(ConvergenceRow(
                resolution=j, h=h, dt=1e-2,
                l2_error=2.0 * h**2, max_undershoot=0.5 * h**3,
            ))
        return report

    def test_slopes(self):
        report = self.synthetic()
        assert report.slope_l2() == pytest.approx(2.0, rel=1e-12)
        assert report.slope_undershoot() == pytest.approx(3.0, rel=1e-12)

    def test_undershoot_slope_drops_zero_rows(self):
        report = self.synthetic()
        report.rows[1].max_undershoot = 0.0
        assert report.slope_undershoot() == pytest.approx(3.0, rel=1e-12)
        report.rows[0].max_undershoot = 0.0
        assert math.isnan(report.slope_undershoot())

    def test_csv_roundtrip(self, tmp_path):
        report = self.synthetic()
        p = tmp_path / "convergence.csv"
        report.write_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "resolution,h,dt,l2_error,max_undershoot"
        assert lines[-2].startswith("# slope_l2=")
        assert lines[-1].startswith("# slope_undershoot=")
        back = ConvergenceReport.read_csv(p)
        assert [r.resolution for r in back.rows] == [10, 20, 40]
        # 17 significant digits round-trip exactly, so the slopes recompute
        # to the identical floats
        assert back.slope_l2() == report.slope_l2()
        assert back.slope_undershoot() == report.slope_undershoot()
        for a, b in zip(report.rows, back.rows):
            assert (a.h, a.dt, a.l2_error, a.max_undershoot) == (
                b.h, b.dt, b.l2_error, b.max_undershoot
            )


class TestConvergenceStudy:
    def test_small_ladder(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="aniso-convergence", resolutions=(4, 8),
            dt=0.05, t_end=0.2, out_dir=str(tmp_path),
        )
        report = convergence_study(cfg)
        assert [r.resolution for r in report.rows] == [4, 8]
        assert report.rows[0].h == 0.25
        assert all(r.l2_error > 0.0 for r in report.rows)
        assert all(r.max_undershoot >= 0.0 for r in report.rows)
        assert (tmp_path / "convergence.csv").exists()
        assert (tmp_path / "metadata.txt").exists()
        back = ConvergenceReport.read_csv(tmp_path / "convergence.csv")
        assert back.slope_l2() == report.slope_l2()

    def test_delta_mode_runs(self):
        cfg = ExperimentConfig(
            experiment="aniso-convergence", resolutions=(4,),
            dt=0.05, t_end=0.1, cutoff_mode="delta",
        )
        report = convergence_study(cfg)
        assert len(report.rows) == 1


class TestMetadata:
    def test_design_toggles_are_echoed(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="aniso-convergence", resolutions=(10, 20),
            dt=1e-2, t_end=1.0, cutoff_mode="delta", delta_coefficient=1.0,
        )
        p = tmp_path / "metadata.txt"
        write_metadata(p, cfg, SolverStats())
        meta = read_metadata(p)
        assert meta["experiment"] == "aniso-convergence"
        assert meta["resolutions"] == "10,20"
        assert meta["cutoff_mode"] == "delta"
        assert meta["delta_rule"] == "delta = 1 * dt * h^2"
        assert meta["face_mobility"] == "arithmetic_mean"
        assert meta["boundary_lubrication"] == "no_flux_ghost_reflection"
        assert meta["boundary_anisotropic"] == "dirichlet_exact_trace"
        assert meta["onset_definition"] == "first step with pre-cutoff min <= 0"
        assert meta["sdirk_gamma"] == "0.43586652150845906"
        assert "fencepost span" in meta["touching_length"]

    def test_versions_and_thread_settings_are_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setenv("MY_POOL_NUM_THREADS", "7")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = ExperimentConfig("x", (4,), dt=0.1, t_end=1.0)
        p = tmp_path / "metadata.txt"
        solver = SolverStats(routes=["banded-lu", "sparse-lu/symmetric"],
                             factorizations=5, solves=12, extra_sweeps=7)
        write_metadata(p, cfg, solver)
        meta = read_metadata(p)
        assert meta["cutoffpde_version"] == cutoffpde.__version__
        assert meta["numpy_version"] == np.__version__
        assert meta["scipy_version"] == scipy.__version__
        assert meta["OPENBLAS_NUM_THREADS"] == "3"
        assert meta["MY_POOL_NUM_THREADS"] == "7"
        assert "MKL_NUM_THREADS" not in meta
        # the routes that ran, in order of first use, and the counts
        assert meta["solver"] == "banded-lu,sparse-lu/symmetric"
        assert meta["solver_factorizations"] == "5"
        assert meta["solver_solves"] == "12"
        assert meta["solver_extra_sweeps"] == "7"

    def test_explicit_steps_name_no_solver(self, tmp_path):
        p = tmp_path / "metadata.txt"
        write_metadata(p, ExperimentConfig("x", (4,), dt=0.1, t_end=1.0), SolverStats())
        meta = read_metadata(p)
        assert meta["solver"] == "none" and meta["solver_factorizations"] == "0"

    def test_aniso_run_factors_once(self, tmp_path):
        out = tmp_path / "run"
        assert cli_main(["aniso-run", "-J", "6", "--dt", "0.05", "--t-end", "0.2",
                         "--out", str(out)]) == 0
        meta = read_metadata(out / "metadata.txt")
        assert meta["solver"] == "sparse-lu/colamd"
        assert meta["solver_factorizations"] == "1"
        assert meta["solver_solves"] == str(4 * 3)
        assert meta["solver_extra_sweeps"] == "0"

    def test_ladder_counts_add_up(self, tmp_path):
        out = tmp_path / "ladder"
        assert cli_main(["aniso-convergence", "--grids", "4,6", "--dt", "0.05",
                         "--t-end", "0.1", "--out", str(out)]) == 0
        meta = read_metadata(out / "metadata.txt")
        assert meta["solver"] == "sparse-lu/colamd"
        assert meta["solver_factorizations"] == "2"
        assert meta["solver_solves"] == str(2 * 2 * 3)

    def test_lub2d_factors_fewer_times_than_it_steps(self, tmp_path):
        out = tmp_path / "film2d"
        steps = 40
        assert cli_main(["lub2d", "-J", "8", "--dt", "1e-6", "--t-end", "4e-5",
                         "--out", str(out)]) == 0
        meta = read_metadata(out / "metadata.txt")
        assert meta["solver"] == "sparse-lu/symmetric"
        assert 1 <= int(meta["solver_factorizations"]) < steps
        assert meta["solver_solves"] == str(3 * steps)
        assert int(meta["solver_extra_sweeps"]) > 0


class TestRegularizationComparison:
    def test_self_comparison_is_exact(self, tmp_path):
        # epsilon = 0 makes both legs byte-identical runs: every reported
        # difference must be exactly zero, including None-vs-None times
        cmp = regularization_comparison(
            n_cells=200, dt=1e-6, t_end=1.2e-3, epsilon=0.0,
            out_dir=str(tmp_path),
        )
        assert cmp.record_exact.onset_precutoff_time is not None
        assert cmp.onset_diff == 0.0
        assert cmp.liftoff_diff == 0.0
        assert cmp.final_max_diff == 0.0
        assert cmp.zero_plateau_exact == cmp.zero_plateau_mollified
        for name in ("comparison.csv", "singularity_exact.csv", "singularity_mollified.csv"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert lines[0] == "quantity,exact,mollified,abs_diff"
        assert lines[1].startswith("onset,")
        assert lines[-1].startswith("final_max_diff,,,")

    def test_csv_handles_missing_times(self, tmp_path):
        rec_a = SingularityRecord(0.5, 0.75, [(0.0, 0.0)], 0.25, onset_precutoff_time=0.5)
        rec_b = SingularityRecord(None, None, [(0.0, 0.0)], 0.0, onset_precutoff_time=None)
        cmp = RegularizationComparison(
            onset_diff=float("inf"), liftoff_diff=float("inf"), final_max_diff=0.1,
            zero_plateau_exact=True, zero_plateau_mollified=False,
            record_exact=rec_a, record_mollified=rec_b,
        )
        p = tmp_path / "comparison.csv"
        cmp.write_csv(p)
        lines = p.read_text().splitlines()
        assert lines[1] == "onset,0.5,none,nan"
        assert lines[2] == "liftoff,0.75,none,nan"
        assert lines[4] == "zero_plateau,true,false,nan"


class TestCli:
    def test_usage_errors_exit_two(self, capsys):
        assert cli_main([]) == 2
        assert cli_main(["no-such-command"]) == 2
        assert cli_main(["lub1d", "--no-such-flag"]) == 2
        assert cli_main(["lub1d", "--cutoff", "banana"]) == 2
        capsys.readouterr()

    def test_unread_flags_are_rejected(self, capsys):
        # commands accept only the flags they read
        assert cli_main(["reg-compare", "--cutoff", "off"]) == 2
        assert cli_main(["reg-compare", "--delta-coeff", "2"]) == 2
        assert cli_main(["diagnostics", "--cutoff", "delta"]) == 2
        assert cli_main(["diagnostics", "--t-end", "5"]) == 2
        capsys.readouterr()

    def test_numerical_errors_exit_one(self, capsys):
        # bare mobility without a cutoff is refused by the driver
        assert cli_main(["lub1d", "-J", "32", "--t-end", "1e-5", "--cutoff", "off"]) == 1
        assert "error:" in capsys.readouterr().err
        # dt not dividing the horizon
        assert cli_main(["lub1d", "-J", "32", "--dt", "1e-6", "--t-end", "1.5e-6"]) == 1
        assert "error:" in capsys.readouterr().err
        # theta outside [0, 1]
        assert cli_main(["diagnostics", "-J", "4", "--theta", "1.5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_aniso_run_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli_main([
            "aniso-run", "-J", "6", "--dt", "0.05", "--t-end", "0.1",
            "--out", str(out),
        ])
        assert rc == 0
        assert "l2_error=" in capsys.readouterr().out
        for name in ("trace.csv", "final.csv", "metadata.txt"):
            assert (out / name).exists()

    def test_aniso_convergence_stdout(self, tmp_path, capsys):
        out = tmp_path / "ladder"
        rc = cli_main([
            "aniso-convergence", "--grids", "4,6", "--dt", "0.05",
            "--t-end", "0.1", "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "J=   4" in text and "slope_l2=" in text
        assert (out / "convergence.csv").exists()

    def test_lub1d_artifacts_and_snapshots(self, tmp_path, capsys):
        out = tmp_path / "film"
        rc = cli_main([
            "lub1d", "-J", "64", "--dt", "1e-6", "--t-end", "1e-5",
            "--snapshots", "5e-06", "--out", str(out),
        ])
        assert rc == 0
        assert "onset=" in capsys.readouterr().out
        for name in ("trace.csv", "final.csv", "singularity.csv", "metadata.txt"):
            assert (out / name).exists()
        assert (out / "snapshot_t5e-06.csv").exists()
        # cadence snapshots are kept in memory but only requested times hit disk
        assert not (out / "snapshot_t0.csv").exists()

    def test_lub2d_smoke(self, tmp_path):
        out = tmp_path / "film2d"
        rc = cli_main([
            "lub2d", "-J", "8", "--dt", "1e-6", "--t-end", "5e-6",
            "--out", str(out),
        ])
        assert rc == 0
        assert (out / "singularity.csv").exists()

    def test_reg_compare_smoke(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = cli_main([
            "reg-compare", "-J", "64", "--dt", "1e-6", "--t-end", "1e-5",
            "--epsilon", "1e-14", "--out", str(out),
        ])
        assert rc == 0
        assert "final_max_diff=" in capsys.readouterr().out
        for name in ("comparison.csv", "singularity_exact.csv", "singularity_mollified.csv"):
            assert (out / name).exists()

    def test_diagnostics_artifact(self, tmp_path, capsys):
        out = tmp_path / "diag"
        rc = cli_main(["diagnostics", "-J", "6", "--dt", "0.01", "--out", str(out)])
        assert rc == 0
        assert "norm_b1_inv=" in capsys.readouterr().out
        text = (out / "diagnostics.txt").read_text()
        assert text.startswith("norm_b1_inv=")

    def test_runs_are_deterministic(self, tmp_path):
        args = ["lub1d", "-J", "64", "--dt", "1e-6", "--t-end", "1e-5"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        for name in ("trace.csv", "final.csv", "singularity.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @staticmethod
    def artifact_per_blas_threads(tmp_path, argv, name):
        """The bytes of one artifact of a CLI run, run in a fresh process
        under 1 and under 2 BLAS threads."""
        src = str(Path(cutoffpde.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "cutoffpde.cli", *argv, "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            outputs.append((out / name).read_bytes())
        return outputs

    def test_trace_does_not_depend_on_blas_threads(self, tmp_path):
        # 101^2 nodes is above the size at which OpenBLAS splits a dot
        # product across threads, so a BLAS mass would move its last digit
        argv = ["aniso-run", "-J", "100", "--integrator", "theta",
                "--dt", "0.25", "--t-end", "0.5"]
        traces = self.artifact_per_blas_threads(tmp_path, argv, "trace.csv")
        assert traces[0] == traces[1]

    def test_convergence_errors_do_not_depend_on_blas_threads(self, tmp_path):
        # the L2 errors go through grids.l2_norm; a BLAS dot there moves the
        # last digit of the J=128 error between 1 and 2 threads
        argv = ["aniso-convergence", "--grids", "100,128", "--dt", "0.25", "--t-end", "0.5"]
        reports = self.artifact_per_blas_threads(tmp_path, argv, "convergence.csv")
        assert reports[0] == reports[1]
