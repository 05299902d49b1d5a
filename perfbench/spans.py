"""Tracing from outside the package: wrap the functions each layer exposes,
record one span per call, and turn the spans into per-layer metrics.

A site names a function at the place its caller looks it up, as
``module:attr`` or ``module:Class.attr`` (``cutoffpde.stepping:apply_floor``
is the floor the stepping loop calls).  ``patched`` swaps every site for a
wrapper and puts the originals back on exit, also when the run raises.

Times are inclusive (a span with its children) unless the metric name says
``self``: self time is a span minus the spans directly under it.  A site that
no longer exists is skipped and reported, so a renamed function leaves its
metrics at 0 instead of breaking the run.
"""

from __future__ import annotations

import hashlib
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from time import perf_counter

#: where the CLI and the harness call the stepping loops; each returns
#: (final_field, run_trace, ...)
RUN_SITES = (
    "cutoffpde.cli:run",
    "cutoffpde.cli:run_lubrication",
    "cutoffpde.harness:run",
)

#: layer name of each traced site
TRACE_SITES = {
    "cutoffpde.lubrication:assemble_lubrication_1d": "lubrication.assemble",
    "cutoffpde.lubrication:assemble_lubrication_2d": "lubrication.assemble",
    "cutoffpde.lubrication:mobility": "lubrication.mobility",
    "cutoffpde.linalg:Factorization.__init__": "linalg.factor",
    "cutoffpde.linalg:Factorization.solve": "linalg.solve",
    "cutoffpde.linalg:SparseMatrix.__init__": "linalg.matrix_new",
    "cutoffpde.stepping:identity_plus": "stepping.shift",
    "cutoffpde.stepping:apply_floor": "cutoff.floor",
    **{site: "stepping.run" for site in RUN_SITES},
    "cutoffpde.cli:assemble": "anisotropic.assemble",
    "cutoffpde.harness:assemble": "anisotropic.assemble",
    "cutoffpde.anisotropic:forcing": "anisotropic.source",
    "cutoffpde.anisotropic:exact_solution": "anisotropic.source",
    "cutoffpde.cli:convergence_study": "harness.study",
    "cutoffpde.cli:write_field_csv": "cli.artifacts",
    "cutoffpde.cli:write_metadata": "cli.artifacts",
    "cutoffpde.harness:write_metadata": "cli.artifacts",
    "cutoffpde.stepping:RunTrace.write_csv": "cli.artifacts",
    "cutoffpde.lubrication:SingularityRecord.write_csv": "cli.artifacts",
    "cutoffpde.harness:ConvergenceReport.write_csv": "cli.artifacts",
}

#: per-layer metric -> unit, in the order they are reported
LAYER_UNITS = {
    "lubrication.assemble_s": "s",
    "lubrication.assemble_calls": "count",
    "lubrication.mobility_s": "s",
    "linalg.factor_s": "s",
    "linalg.factor_calls": "count",
    "linalg.factor_banded_calls": "count",
    "linalg.factor_sparse_calls": "count",
    "linalg.factor_nnz": "count",
    "linalg.solve_s": "s",
    "linalg.solve_calls": "count",
    "linalg.solve_iterations": "count",
    "linalg.solve_residual_max": "ratio",
    "linalg.matrix_new_calls": "count",
    "linalg.matrix_new_s": "s",
    "stepping.shift_s": "s",
    "stepping.steps": "count",
    "stepping.loop_self_s": "s",
    "cutoff.floor_s": "s",
    "cutoff.floor_calls": "count",
    "cutoff.clipped_steps": "count",
    "cutoff.clipped_mass": "mass",
    "anisotropic.assemble_s": "s",
    "anisotropic.source_s": "s",
    "anisotropic.source_calls": "count",
    "harness.study_self_s": "s",
    "cli.artifacts_s": "s",
    "cli.artifacts_bytes": "B",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead": "ratio",
}

#: the root span around the whole CLI call
ROOT_LAYER = "cli.main"


def resolve(site: str) -> tuple:
    """(owner, attr) for a site; owner is a module or a class."""
    module, path = site.split(":")
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def patched(sites, make_wrapper, missing: list = None):
    """Replace each site's function f by make_wrapper(site, f) for the
    duration of the block and restore the originals afterwards.  Sites
    that do not exist are appended to ``missing``."""
    saved = []
    try:
        for site in sites:
            try:
                owner, attr = resolve(site)
            except (ImportError, AttributeError):
                owner, attr = None, None
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                if missing is not None:
                    missing.append(site)
                continue
            setattr(owner, attr, make_wrapper(site, original))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Capture:
    """Hashes the final fields and counts the steps of every stepping-loop
    call, without timing anything."""

    def __init__(self):
        self._sha = hashlib.sha256()
        self.steps = 0

    def wrap(self, site, original):
        @wraps(original)
        def captured(*args, **kwargs):
            result = original(*args, **kwargs)
            self._sha.update(result[0].values.tobytes())
            self.steps += len(result[1].records) - 1
            return result
        return captured

    @property
    def sha256(self) -> str:
        return self._sha.hexdigest()


@dataclass
class Span:
    layer: str
    parent: int
    start: float
    end: float = 0.0
    #: what the layer returned that a metric needs (see Tracer._PROBES)
    info: object = None


class Tracer:
    """Keeps spans in memory; a span's parent is the span open when it began."""

    # layer -> (args, result) -> Span.info
    _PROBES = {
        "linalg.factor": lambda args, result: (args[0].method, args[1].nnz),
        "linalg.solve": lambda args, result: result[1],
        "stepping.run": lambda args, result: result[1].records,
    }

    def __init__(self):
        self.spans = []
        self._open = []

    def _begin(self, layer: str) -> Span:
        span = Span(layer, self._open[-1] if self._open else -1, perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: Span):
        span.end = perf_counter()
        self._open.pop()

    @contextmanager
    def root(self):
        span = self._begin(ROOT_LAYER)
        try:
            yield
        finally:
            self._end(span)

    def wrap(self, site, original):
        layer = TRACE_SITES[site]
        probe = self._PROBES.get(layer)

        @wraps(original)
        def traced(*args, **kwargs):
            span = self._begin(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(span)
            if probe is not None:
                span.info = probe(args, result)
            return result
        return traced

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,layer,start_s,end_s\n")
            t0 = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.parent},{s.layer},{s.start - t0:.9f},{s.end - t0:.9f}\n")

    def metrics(self, artifact_bytes: int) -> dict:
        """Per-layer metrics of the spans (without bench.trace_overhead,
        which needs an untraced run to compare with)."""
        total, calls, children = defaultdict(float), Counter(), defaultdict(float)
        for s in self.spans:
            d = s.end - s.start
            total[s.layer] += d
            calls[s.layer] += 1
            if s.parent >= 0:
                children[s.parent] += d

        def self_time(layer):
            return sum(s.end - s.start - children[i]
                       for i, s in enumerate(self.spans) if s.layer == layer)

        def infos(layer):
            return [s.info for s in self.spans if s.layer == layer]

        factors = infos("linalg.factor")
        reports = infos("linalg.solve")
        records = [r for run in infos("stepping.run") for r in run]
        return {
            "lubrication.assemble_s": total["lubrication.assemble"],
            "lubrication.assemble_calls": calls["lubrication.assemble"],
            "lubrication.mobility_s": total["lubrication.mobility"],
            "linalg.factor_s": total["linalg.factor"],
            "linalg.factor_calls": len(factors),
            "linalg.factor_banded_calls": sum(m == "banded-lu" for m, _ in factors),
            "linalg.factor_sparse_calls": sum(m == "sparse-lu" for m, _ in factors),
            "linalg.factor_nnz": sum(nnz for _, nnz in factors),
            "linalg.solve_s": total["linalg.solve"],
            "linalg.solve_calls": len(reports),
            "linalg.solve_iterations": sum(r.iterations for r in reports),
            "linalg.solve_residual_max": max((r.residual_norm for r in reports), default=0.0),
            "linalg.matrix_new_calls": calls["linalg.matrix_new"],
            "linalg.matrix_new_s": total["linalg.matrix_new"],
            "stepping.shift_s": total["stepping.shift"],
            "stepping.steps": sum(len(run) - 1 for run in infos("stepping.run")),
            "stepping.loop_self_s": self_time("stepping.run"),
            "cutoff.floor_s": total["cutoff.floor"],
            "cutoff.floor_calls": calls["cutoff.floor"],
            "cutoff.clipped_steps": sum(r.min_pre < r.min_post for r in records),
            "cutoff.clipped_mass": sum(r.mass_post - r.mass_pre for r in records),
            "anisotropic.assemble_s": total["anisotropic.assemble"],
            "anisotropic.source_s": total["anisotropic.source"],
            "anisotropic.source_calls": calls["anisotropic.source"],
            "harness.study_self_s": self_time("harness.study"),
            "cli.artifacts_s": total["cli.artifacts"],
            "cli.artifacts_bytes": artifact_bytes,
            "bench.traced_wall_s": total[ROOT_LAYER],
        }
