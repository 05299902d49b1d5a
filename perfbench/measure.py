"""Measure one workload: set-up probes, timed CLI runs and the traced run.

Every run goes through ``cutoffpde.cli.cli_main``, the function behind the
``cutoffpde`` command, in this process, with its artifacts written to a
scratch directory under ``.perfbench/`` in the checkout and checked there.

Import this module only after the BLAS thread variables are pinned and
``src/`` is on the path; ``run.py`` does both.
"""

from __future__ import annotations

import gc
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from cutoffpde.cli import cli_main
from spans import LAYER_UNITS, RUN_SITES, TRACE_SITES, Capture, Tracer, patched
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
#: fresh-process set-ups measured per run (at least)
SETUP_PROBES = 5

END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Rep:
    """One CLI call and what it left behind."""

    code: int  # CLI exit status, -1 when it raised
    wall_s: float
    steps: int
    sha256: str  # of the final fields' bytes, in the order the loops returned them
    failures: list
    artifact_bytes: int
    missing_sites: list


def run_rep(workload: Workload, argv: tuple, work: Path, full: bool, tracer: Tracer = None) -> Rep:
    """Time one CLI call from dispatch until its artifacts are written, then
    check the artifacts.  With a tracer, every layer site is wrapped."""
    out = Path(tempfile.mkdtemp(dir=work))
    capture = Capture()
    missing = []
    tracing = patched(TRACE_SITES, tracer.wrap, missing) if tracer else nullcontext()
    root = tracer.root() if tracer else nullcontext()
    try:
        with patched(RUN_SITES, capture.wrap, missing), tracing, redirect_stdout(io.StringIO()):
            gc.collect()
            start = perf_counter()
            try:
                with root:
                    code = cli_main([*argv, "--out", str(out)])
            except Exception:
                traceback.print_exc()
                code = -1
            wall = perf_counter() - start
        failures = [f"{workload.name}: exit status {code}"] if code != 0 else []
        if code == 0:
            try:
                failures += [f"{workload.name}: {msg}" for msg in workload.check(out, full)]
            except Exception as exc:
                failures.append(f"{workload.name}: reading the artifacts raised {exc!r}")
        size = sum(p.stat().st_size for p in out.iterdir())
    finally:
        shutil.rmtree(out)
    return Rep(code, wall, capture.steps, capture.sha256, failures, size, missing)


def setup_time(name: str) -> float:
    """Seconds a fresh process takes to import cutoffpde and build the
    workload's problems, as setup_probe.py measures it."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def measure_end_to_end(workload: Workload, seconds: float, work: Path) -> tuple:
    """Full-size runs for about `seconds` (at least one), with set-up probes
    spread between them so that both see the same machine conditions."""
    setup_time(workload.name)  # fills the bytecode caches of a new checkout
    warm = run_rep(workload, workload.tiny_argv, work, full=False)
    setup, timed = [], []
    deadline = perf_counter() + seconds
    while True:
        setup.append(setup_time(workload.name))
        timed.append(run_rep(workload, workload.argv, work, full=True))
        if len(timed) == 1:
            # the peak of a process that made one run; later runs only add
            # heap fragmentation, which varies from run to run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # stop when another run of the same length would overshoot
        if perf_counter() + timed[-1].wall_s > deadline:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(workload.name))
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in timed),
        "steps_per_s": statistics.median(r.steps / r.wall_s for r in timed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"wall_s": [r.wall_s for r in timed], "setup_s": setup}
    return [warm] + timed, timed, metrics, samples


def measure_layers(workload: Workload, work: Path) -> tuple:
    """One untraced and one traced full-size run; the overhead is the ratio
    of their times minus 1."""
    warm = run_rep(workload, workload.tiny_argv, work, full=False)
    plain = run_rep(workload, workload.argv, work, full=True)
    tracer = Tracer()
    traced = run_rep(workload, workload.argv, work, full=True, tracer=tracer)
    tracer.write_csv(WORK_DIR / f"spans-{workload.name}.csv")
    metrics = tracer.metrics(traced.artifact_bytes)
    metrics["bench.trace_overhead"] = traced.wall_s / plain.wall_s - 1.0
    samples = {"wall_s": [plain.wall_s, traced.wall_s]}
    return [warm, plain, traced], [plain, traced], metrics, samples


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{var: value for var, value in os.environ.items() if var.endswith("_NUM_THREADS")},
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(info, result) for one benchmark run; result is the line the
    benchmark contract asks for, info what else a reader needs."""
    workload = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        if trace:
            reps, timed, metrics, samples = measure_layers(workload, work)
        else:
            reps, timed, metrics, samples = measure_end_to_end(workload, seconds, work)
    finally:
        shutil.rmtree(work)
    failed = sum(1 for r in reps if r.failures)
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "samples": samples,
        "steps": sorted({r.steps for r in timed}),
        "sha256": sorted({r.sha256 for r in timed}),
        "failures": [msg for r in reps for msg in r.failures],
        "missing_sites": sorted({s for r in reps for s in r.missing_sites}),
        "env": environment(),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in (LAYER_UNITS if trace else END_TO_END_UNITS).items()},
    }
    return info, result
