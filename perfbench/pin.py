"""Recompute pins.json: the digest of every job variant's outputs.

    python3 perfbench/pin.py [workload ...]

Run only at a commit whose outputs are known to be right.  Every
variant any seed can pick is run in this process with warm caches (CLI
jobs through the CLI's own main()), so later commits are checked
against these values bit for bit.  Ring component-min jobs also pin the
exhaustive scan's d_min as their cross-check.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from madics import cli  # noqa: E402

from layers import Layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, cli_argv, cli_projection, digest, prepare, run_job, units_for,
    variants)


def cli_output(job, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(cli_argv(job, path))
    if status != 0:
        raise SystemExit(f"{job.key}: exit {status}")
    return cli_projection(json.loads(out.getvalue()))


def main():
    pins_path = HERE / "pins.json"
    pins = json.loads(pins_path.read_text()) if pins_path.exists() else {}
    layers = Layers(Tracer(False))
    scratch = HERE / "results" / "pin-tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for name in sys.argv[1:] or list(WORKLOADS):
            templates, _ = WORKLOADS[name]
            kinds = {job.kind for t in templates for job in units_for(
                t, variants(t)[0])}
            pins = {k: v for k, v in pins.items()
                    if k.removeprefix("xcheck ").split()[0] not in kinds}
            for t in templates:
                for v in variants(t):
                    for job in units_for(t, v):
                        if name == "cold-cli":
                            proj = cli_output(job, str(scratch / "code.json"))
                        else:
                            state = prepare(job, layers)
                            proj = run_job(job, state, layers)
                        pins[job.key] = digest(proj)
                        if job.kind == "ring-min":
                            pins["xcheck " + job.key] = \
                                layers.ring_exhaustive(state["code"]).d_min
                print(f"{name}: {t}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    pins_path.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
