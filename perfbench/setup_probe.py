"""One set-up in a fresh interpreter: import coorbit_lab and build a workload's inputs.

    python perfbench/setup_probe.py <workload> <seed> <out-dir>

run.py times this process from spawn to exit; the median of several is setup_s.
"""

from __future__ import annotations

import sys

import coorbit_lab  # noqa: F401  (the import is part of what is timed)
from workloads import WORKLOADS

if __name__ == "__main__":
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[workload].build(seed, out_dir)
