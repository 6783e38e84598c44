"""The benchmark's pinned outputs, recomputed in-process.

Every job variant of the ring-algebra and field-distance workloads
that any benchmark seed can pick is run through perfbench/workloads.py
(prepare, run_job) with shared warm caches in one process, and each
output projection is checked against perfbench/pins.json by the
benchmark's own rule (workloads.check: the digest, the known [n, k, d]
codes and the pinned exhaustive d_min of each ring component-min job).
So a bug in a shared cached instance or one that depends on call order
fails here on every run, not only on the seed a benchmark run draws.
The pins file is only read.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from layers import Layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, check, prepare, run_job, units_for, variants)

PINS = json.loads((PERFBENCH / "pins.json").read_text())


@pytest.mark.parametrize("workload", ["ring-algebra", "field-distance"])
def test_every_variant_matches_its_pin(workload):
    layers = Layers(Tracer(False))
    templates, _ = WORKLOADS[workload]
    ran, wrong = set(), {}
    for template in templates:
        for variant in variants(template):
            for job in units_for(template, variant):
                proj = run_job(job, prepare(job, layers), layers)
                reason = check(job, proj, PINS)
                if reason is not None:
                    wrong[job.key] = reason
                ran.add(job.key)
    assert wrong == {}
    # every pin of these job kinds was recomputed
    kinds = {key.split()[0] for key in ran}
    assert ran == {key for key in PINS if key.split()[0] in kinds}
