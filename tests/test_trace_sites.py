"""The functions the benchmark traces in perfbench/spans.py still exist.

The benchmark wraps each site at the place its caller looks it up and only
reports a site it cannot find, so a renamed or deleted function would leave
its per-layer metrics at 0 without any failure.  This test fails instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("site", sorted({*spans.TRACE_SITES, *spans.RUN_SITES}))
def test_site_resolves(site):
    owner, attr = spans.resolve(site)
    # the same lookup the tracer patches: the attribute must sit on the owner
    assert vars(owner).get(attr) is not None, f"{site} names no function"
