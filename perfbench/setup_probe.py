"""Set-up time of one workload in a fresh process.

    python3 perfbench/setup_probe.py film1d

Imports cutoffpde (numpy and scipy with it), builds the workload's problems
through the public builders and prints the seconds that took.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].build()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
