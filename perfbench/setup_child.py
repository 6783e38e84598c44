"""One timed set-up in a fresh interpreter.

    python3 perfbench/setup_child.py <workload> <seed>

Imports madics (the CLI module, as `python -m madics.cli` does) and
builds every cached object the workload's timed phase reuses, then
prints one JSON line with the import time.  The parent times the whole
process from launch to that line; importing nothing heavy before
madics keeps the import time comparable with a CLI call.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import madics.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

import json  # noqa: E402
import random  # noqa: E402

from layers import Layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import make_units, prepare  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
if workload != "cold-cli":
    layers = Layers(Tracer(False))
    for unit in make_units(workload, random.Random(seed)):
        for job in unit:
            prepare(job, layers)
print(json.dumps({"import_s": import_s}), flush=True)
