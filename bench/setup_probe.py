"""Time one workload's set-up in a fresh interpreter and print the seconds.

Usage: python3 bench/setup_probe.py <preset> '<JSON field overrides>'

Set-up is: import twolevel_topopt, then preset_config, build_grid and
build_bc. The clock starts before the import, so the cost of importing
numpy and scipy through the package counts.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

start = time.perf_counter()
from twolevel_topopt import pipeline  # noqa: E402

config = pipeline.preset_config(sys.argv[1], **json.loads(sys.argv[2]))
grid = config.build_grid()
config.build_bc(grid)
print(repr(time.perf_counter() - start))
