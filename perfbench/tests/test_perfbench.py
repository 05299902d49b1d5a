"""Tests of the benchmark itself: tiny runs of every workload, tracing that
changes no result and leaves no wrapper behind, and metric names that the
benchmark's result format accepts.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
from spans import LAYER_UNITS, TRACE_SITES, Tracer, patched, resolve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tiny(name, work, tracer=None):
    workload = WORKLOADS[name]
    return measure.run_rep(workload, workload.tiny_argv, work, full=False, tracer=tracer)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_passes_its_checks(name, tmp_path):
    rep = _tiny(name, tmp_path)
    assert rep.code == 0
    assert rep.failures == []
    assert rep.steps > 0 and rep.artifact_bytes > 0
    assert rep.missing_sites == []
    assert list(tmp_path.iterdir()) == []  # the artifact dir is removed


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_setup_probe_builds_the_workload(name):
    assert 0.0 < measure.setup_time(name) < 60.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_changes_no_result(name, tmp_path):
    plain = _tiny(name, tmp_path)
    tracer = Tracer()
    traced = _tiny(name, tmp_path, tracer)
    assert traced.failures == []
    assert traced.sha256 == plain.sha256
    layer = tracer.metrics(traced.artifact_bytes)
    assert set(layer) | {"bench.trace_overhead"} == set(LAYER_UNITS)
    assert layer["stepping.steps"] == plain.steps
    assert layer["linalg.solve_calls"] > 0 and layer["linalg.factor_calls"] > 0
    assert layer["cli.artifacts_s"] > 0.0
    assert 0.0 < layer["stepping.loop_self_s"] < layer["bench.traced_wall_s"]


def _originals():
    return {site: vars(owner)[attr] for site in TRACE_SITES for owner, attr in [resolve(site)]}


def test_wrapped_attributes_are_restored(tmp_path):
    before = _originals()
    _tiny("film1d", tmp_path, Tracer())
    _tiny("aniso-ladder", tmp_path, Tracer())
    with pytest.raises(RuntimeError):
        with patched(TRACE_SITES, Tracer().wrap):
            assert all(_originals()[site] is not f for site, f in before.items())
            raise RuntimeError("a run that raises")
    after = _originals()
    assert all(after[site] is f for site, f in before.items())


def test_failed_run_is_counted(tmp_path):
    # t_end is not a multiple of dt, so the CLI exits 1
    rep = measure.run_rep(WORKLOADS["film1d"], ("lub1d", "-J", "50", "--dt", "1e-6", "--t-end", "2.5e-6"),
                          tmp_path, full=False)
    assert rep.code == 1
    assert rep.failures == ["film1d: exit status 1"]


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(METRIC_NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "film1d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
