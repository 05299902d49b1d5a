"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload film1d --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it prints the
end-to-end metrics of untraced runs, with ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it holds the samples, the final-field sha256 and the environment.  Exits 2,
printing no result, when the checkout holds no cutoffpde sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: no workload draws random numbers")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cutoffpde" / "__init__.py").is_file():
        print(f"error: no cutoffpde sources under {src}", file=sys.stderr)
        return 2
    # SuperLU is single-threaded; pin BLAS too, before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import measure

    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(measure.WORKLOADS)}")
    info, result = measure.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
