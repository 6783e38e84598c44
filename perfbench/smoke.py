"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Runs every workload at a tiny size (three job units, one round, one
set-up), untraced and traced, and checks that the result line carries
exactly the metrics BENCHMARK.json declares, that a corrupted pinned
value makes every job fail, and that a directory without the package
sources is refused with no result line.  Exits 1 on the first failed
check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def result(name, trace, pins):
    line = run.result_line(run.run_workload(name, 7, 1, trace, pins,
                                            tiny=True))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    return line


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    pins = json.loads(run.PINS.read_text())
    corrupted = {k: ("0" * 16 if isinstance(v, str) else v + 1)
                 for k, v in pins.items()}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, names in ((False, e2e), (True, per_layer)):
            line = result(name, trace, pins)
            assert line["correct"] and line["failed"] == 0, (name, line)
            assert set(line["metrics"]) == names, (name, set(line["metrics"]))
            print(f"smoke: {name} trace {int(trace)}: "
                  f"{line['attempted']} jobs ok", flush=True)

        line = result(name, False, corrupted)
        assert not line["correct"] and line["failed"] == line["attempted"], line
        print(f"smoke: {name}: corrupted pins fail all {line['failed']} jobs",
              flush=True)

    bare = run.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "field-distance",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("smoke: a checkout without src/ is refused")
    print("smoke: ok")


if __name__ == "__main__":
    main()
