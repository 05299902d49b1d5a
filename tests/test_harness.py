"""Experiment drivers, report files, metadata sidecars, and the CLI."""

import math
import os
import subprocess
import sys
import warnings
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
from cutoffpde.stepping import SolverStats, sdirk3_tableau, theta_tableau


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
        assert ExperimentConfig(cutoff_mode="off", **base).run_config(0.1).cutoff is None
        got = ExperimentConfig(cutoff_mode="nonneg", **base).run_config(0.1).cutoff
        assert got == CutoffParams(0.0)
        got = ExperimentConfig(cutoff_mode="delta", delta_coefficient=2.0, **base).run_config(0.1)
        assert got.cutoff.delta == pytest.approx(2.0 * 0.01 * 0.01, rel=1e-15)

    def test_run_config(self):
        base = dict(experiment="x", resolutions=(10,), dt=0.01, t_end=0.1)
        cfg = ExperimentConfig(**base).run_config(0.1, snapshot_every=2, snapshot_times=(0.05,))
        assert (cfg.dt, cfg.t_end, cfg.snapshot_every, cfg.snapshot_times) == (0.01, 0.1, 2, (0.05,))
        assert np.array_equal(cfg.tableau.a, sdirk3_tableau().a)
        cfg = ExperimentConfig(integrator="theta", theta=0.5, **base).run_config(0.1)
        assert np.array_equal(cfg.tableau.a, theta_tableau(0.5).a)
        with pytest.raises(ValueError, match="theta must lie in"):
            ExperimentConfig(integrator="theta", theta=1.5, **base).run_config(0.1)

    def test_unread_settings_are_refused(self):
        base = dict(experiment="x", resolutions=(10,), dt=0.01, t_end=1.0)
        with pytest.raises(ValueError, match="unknown integrator"):
            ExperimentConfig(integrator="rk4", **base)
        with pytest.raises(ValueError, match="needs the theta integrator"):
            ExperimentConfig(theta=0.3, **base)
        for mode in ("off", "nonneg"):
            with pytest.raises(ValueError, match="needs cutoff_mode 'delta'"):
                ExperimentConfig(cutoff_mode=mode, delta_coefficient=2.0, **base)
        ExperimentConfig(integrator="theta", theta=0.3, cutoff_mode="delta",
                         delta_coefficient=2.0, **base)


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
        back = np.loadtxt(p, delimiter=",", skiprows=1)
        assert back[:, 0].tolist() == [10, 20, 40]
        # 17 significant digits round-trip exactly, so the slopes recompute
        # to the identical floats
        assert loglog_slope(back[:, 1], back[:, 3]) == report.slope_l2()
        assert loglog_slope(back[:, 1], back[:, 4]) == report.slope_undershoot()
        for a, b in zip(report.rows, back):
            assert (a.h, a.dt, a.l2_error, a.max_undershoot) == tuple(b[1:])


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
        back = np.loadtxt(tmp_path / "convergence.csv", delimiter=",", skiprows=1)
        assert loglog_slope(back[:, 1], back[:, 3]) == report.slope_l2()

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
        solver = SolverStats(routes=["banded-lu", "sparse-lu/symmetric"], factorizations=5,
                             solves=12, extra_sweeps=7, residual_max=0.25, lu_fill=900,
                             guessed=3)
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
        assert meta["solver_residual_max"] == "0.25"
        assert meta["solver_lu_fill"] == "900"
        assert meta["solver_guessed"] == "3"
        names = list(meta)
        assert names.index("solver_residual_max") == names.index("solver_extra_sweeps") + 1
        assert names.index("solver_lu_fill") == names.index("solver_residual_max") + 1
        assert names.index("solver_guessed") == names.index("solver_lu_fill") + 1

    def test_added_stats_keep_the_worst_residual(self):
        total = SolverStats(solves=2, extra_sweeps=1, residual_max=0.5, lu_fill=40, guessed=1)
        total.add(SolverStats(solves=3, residual_max=0.125, lu_fill=30, guessed=2))
        assert (total.solves, total.extra_sweeps, total.residual_max) == (5, 1, 0.5)
        assert total.lu_fill == 40 and total.guessed == 3
        total.add(SolverStats(solves=1, residual_max=0.75, lu_fill=70))
        assert (total.residual_max, total.lu_fill) == (0.75, 70)

    def test_explicit_steps_name_no_solver(self, tmp_path):
        p = tmp_path / "metadata.txt"
        write_metadata(p, ExperimentConfig("x", (4,), dt=0.1, t_end=1.0), SolverStats())
        meta = read_metadata(p)
        assert meta["solver"] == "none" and meta["solver_factorizations"] == "0"
        assert meta["solver_lu_fill"] == "0"

    def test_aniso_run_factors_once(self, tmp_path):
        out = tmp_path / "run"
        assert cli_main(["aniso-run", "-J", "6", "--dt", "0.05", "--t-end", "0.2",
                         "--out", str(out)]) == 0
        meta = read_metadata(out / "metadata.txt")
        assert meta["solver"] == "sparse-lu/symmetric"
        assert meta["solver_factorizations"] == "1"
        assert meta["solver_solves"] == str(4 * 3)
        assert meta["solver_extra_sweeps"] == "0"
        # its one operator is never stale, so no solve starts from a guess
        assert meta["solver_guessed"] == "0"
        assert 0.0 < float(meta["solver_residual_max"]) <= 1.0

    def test_aniso_run_records_lu_fill(self, tmp_path):
        out = tmp_path / "run"
        assert cli_main(["aniso-run", "-J", "16", "--dt", "0.05", "--t-end", "0.1",
                         "--out", str(out)]) == 0
        meta = read_metadata(out / "metadata.txt")
        assert meta["solver"] == "sparse-lu/symmetric"
        # L and U hold at least the entries of the 15^2 interior rows of
        # the whole system, five or more a row
        assert int(meta["solver_lu_fill"]) >= 5 * 15 ** 2

    def test_ladder_counts_add_up(self, tmp_path):
        out = tmp_path / "ladder"
        assert cli_main(["aniso-convergence", "--grids", "3,6", "--dt", "0.05",
                         "--t-end", "0.1", "--out", str(out)]) == 0
        meta = read_metadata(out / "metadata.txt")
        # the whole 4x4-node system of J = 3 has bandwidth 5, the 7x7 one of
        # J = 6 has 8
        assert meta["solver"] == "banded-lu,sparse-lu/symmetric"
        assert meta["solver_factorizations"] == "2"
        assert meta["solver_solves"] == str(2 * 2 * 3)
        # the worst residual of the ladder is the worst of its grids' runs,
        # and its LU fill the larger of theirs
        worst, fill = [], []
        for j in ("3", "6"):
            assert cli_main(["aniso-run", "-J", j, "--dt", "0.05", "--t-end", "0.1",
                             "--out", str(tmp_path / j)]) == 0
            grid_meta = read_metadata(tmp_path / j / "metadata.txt")
            worst.append(float(grid_meta["solver_residual_max"]))
            fill.append(int(grid_meta["solver_lu_fill"]))
        assert worst[0] != worst[1]
        assert float(meta["solver_residual_max"]) == max(worst)
        assert min(fill) > 0 and fill[0] != fill[1]
        assert int(meta["solver_lu_fill"]) == max(fill)

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
        assert 0.0 < float(meta["solver_residual_max"]) <= 1.0
        assert int(meta["solver_lu_fill"]) > 0
        assert 0 < int(meta["solver_guessed"]) < 3 * steps


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
        # malformed comma lists
        assert cli_main(["aniso-convergence", "--grids", "10,abc"]) == 2
        assert cli_main(["aniso-convergence", "--grids", ""]) == 2
        assert cli_main(["lub1d", "--snapshots", "x"]) == 2
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

    @pytest.mark.parametrize("argv", [
        ["aniso-run", "-J", "4", "--dt", "0.05", "--t-end", "inf"],
        ["aniso-run", "-J", "4", "--dt", "1e-300", "--t-end", "1e10"],
        ["lub1d", "-J", "16", "--t-end", "inf"],
        ["lub1d", "-J", "16", "--snapshots", "1e-6,nan"],
        ["aniso-convergence", "--grids", "4", "--t-end", "inf"],
        ["reg-compare", "-J", "16", "--dt", "1e-300", "--t-end", "1e10"],
        ["aniso-run", "-J", "4", "--dt", "1e-300", "--t-end", "1e-10"],
    ], ids=["inf-horizon", "overflowing-steps", "film-inf-horizon", "nan-snapshot",
            "ladder-inf-horizon", "compare-overflowing-steps", "steps-past-cap"])
    def test_non_finite_horizons_exit_one(self, capsys, argv):
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_infinite_horizon_prints_no_traceback(self, tmp_path):
        argv = ["aniso-run", "-J", "4", "--dt", "0.05", "--t-end", "inf"]
        with pytest.raises(subprocess.CalledProcessError) as info:
            self.run_in_fresh_process(argv, tmp_path / "run")
        assert info.value.returncode == 1
        assert info.value.stderr.startswith(b"error: t_end = inf and dt = 0.05 give no")
        assert b"Traceback" not in info.value.stderr

    @pytest.mark.parametrize("argv", [
        ["aniso-run", "-J", "6", "--dt", "0.05", "--t-end", "0.1", "--theta", "0.3"],
        ["aniso-convergence", "--grids", "6", "--dt", "0.05", "--t-end", "0.1",
         "--integrator", "sdirk3", "--theta", "0.5"],
        ["aniso-run", "-J", "6", "--dt", "0.05", "--t-end", "0.1", "--delta-coeff", "2"],
        ["lub1d", "-J", "32", "--dt", "1e-6", "--t-end", "1e-5", "--cutoff", "nonneg",
         "--delta-coeff", "2"],
    ], ids=["theta-sdirk3", "theta-ladder", "delta-coeff-nonneg", "delta-coeff-film"])
    def test_ignored_settings_exit_one(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        assert cli_main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "needs" in captured.err
        assert captured.out == ""
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("under", [False, True])
    def test_unusable_out_exits_two_before_the_run(self, tmp_path, capsys, under):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = str(taken / "run" if under else taken)
        for argv in (["diagnostics", "-J", "4"],
                     ["aniso-run", "-J", "6", "--dt", "0.05", "--t-end", "0.1"]):
            assert cli_main(argv + ["--out", out]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error:")
            assert captured.out == ""

    def test_stopped_run_writes_its_partial_trace(self, tmp_path, capsys):
        # the mollified film without a cutoff goes negative and stops
        out = tmp_path / "film"
        assert cli_main(["lub1d", "-J", "100", "--epsilon", "1e-14", "--cutoff", "off",
                         "--t-end", "1e-3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == 735
        assert rows[-1].startswith("734,")
        meta = read_metadata(out / "metadata.txt")
        assert err == f"error: {meta['error']}\n"
        assert meta["error"].startswith("no step possible from t = 0.000734: mobility")
        assert meta["solver"] == "banded-lu"
        assert not (out / "final.csv").exists()

    def test_stopped_study_writes_its_partial_trace(self, tmp_path, capsys):
        # forward Euler far beyond its step limit overflows, without a warning
        out = tmp_path / "ladder"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main(["aniso-convergence", "--grids", "8", "--integrator", "theta",
                             "--theta", "0", "--cutoff", "off", "--out", str(out)]) == 1
        capsys.readouterr()
        meta = read_metadata(out / "metadata.txt")
        assert meta["error"].startswith("state went non-finite at t = ")
        steps = len((out / "trace.csv").read_text().splitlines()) - 2
        assert 0 < steps < 100
        assert meta["error"] == f"state went non-finite at t = {(steps + 1) * 0.01}"
        # the header and the two slope comments, no row
        assert len((out / "convergence.csv").read_text().splitlines()) == 3

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
        meta = read_metadata(out / "metadata.txt")
        assert meta["experiment"] == "reg-compare"
        assert meta["resolutions"] == "64"
        assert meta["epsilon"] == "1e-14"
        assert meta["cutoff_mode"] == "nonneg"
        assert meta["solver"] == "banded-lu"
        # two runs of three SDIRK stages over ten steps
        assert meta["solver_solves"] == str(2 * 3 * 10)

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
    def run_in_fresh_process(argv, out, **env):
        """Run the CLI with --out in a fresh interpreter, with the package
        on its path and env added to the environment."""
        src = str(Path(cutoffpde.__file__).resolve().parent.parent)
        env = dict(os.environ, **env,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "cutoffpde.cli", *argv, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)

    def artifact_per_blas_threads(self, tmp_path, argv, name):
        """The bytes of one artifact of a CLI run, run in a fresh process
        under 1 and under 2 BLAS threads."""
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            self.run_in_fresh_process(argv, out, OPENBLAS_NUM_THREADS=threads,
                                      OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            outputs.append((out / name).read_bytes())
        return outputs

    @pytest.mark.parametrize("argv", [
        ["aniso-run", "-J", "16", "--dt", "0.05", "--t-end", "0.2"],
        ["lub2d", "-J", "8", "--dt", "1e-6", "--t-end", "2e-5"],
    ], ids=["aniso-run", "lub2d"])
    def test_reruns_in_separate_processes_are_identical(self, tmp_path, argv):
        outs = (tmp_path / "first", tmp_path / "second")
        for out in outs:
            self.run_in_fresh_process(argv, out)
        for name in ("final.csv", "trace.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

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
