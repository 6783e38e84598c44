"""Run one madics CLI job in this interpreter with per-layer spans.

    python3 perfbench/clijob.py <job spec JSON> <spans file> <cli args...>

The traced form of a cold-cli job.  It times the import, builds the
cached layers in dependency order from the job spec (residues, ffield,
field_codes, ringalg), routes the CLI's calls into the uncached layers
through traced wrappers, runs the CLI's own main() and prints its
output.  Spans and counters go to the spans file as JSON.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

from spans import Tracer  # noqa: E402

tracer = Tracer(True)
with tracer.span("cli.import"):
    from madics import cli

from layers import Layers  # noqa: E402
from workloads import Job, prepare  # noqa: E402

spec, spans_path, argv = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3:]
if "slots" in spec:
    spec["slots"] = tuple(spec["slots"])
layers = Layers(tracer)
prepare(Job("", "cli", spec), layers)
layers.patch_cli(cli)
out = io.StringIO()
with tracer.span("cli.main"), contextlib.redirect_stdout(out):
    status = cli.main(argv)
sys.stdout.write(out.getvalue())
with open(spans_path, "w", encoding="utf-8") as fh:
    json.dump(tracer.export(), fh)
sys.exit(status)
