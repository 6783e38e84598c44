"""The madics benchmark.

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Run from the root of a source checkout; the package is imported from
its src/ directory, never from an installed copy.  Workloads:

  cold-cli        each job is a fresh `python -m madics.cli ... --output
                  json` process: import floor, field construction, CLI
  field-distance  exhaustive field scans (d_min and weight distribution)
                  with warm caches, plus ring component-min scans
  ring-algebra    identity suite, multiplier chains, exhaustive ring
                  scans and verify-paper with warm caches

Each workload is single-process and closed-loop with one client: the
next job starts when the previous one ends.  The seed picks
cost-equivalent variants and the job order (see workloads.py).

End-to-end metrics (--trace 0, untraced), in the result line:
  setup_s      median over SETUP_RUNS fresh interpreters, started between
               rounds across the run, of the time from launch until
               madics is imported and every cached object the timed
               phase reuses is built
  wall_s       median wall time of one round, the fixed batch of jobs
  peak_rss_mb  peak resident memory of the workload process (cold-cli:
               of the largest child)
and, in the summary line and the results file only:
  job_p50_s    median job time
  job_tail_s   the highest percentile of job time that still has ten
               samples beyond it, with that percentile and the sample
               count
  error_rate   failed jobs over jobs attempted (ops)
On a shared host whose speed drifts over minutes, the run-to-run spread
of job_p50_s and job_tail_s exceeded 25% of their median, so they are
reported but not gated.  The error rate is gated through the result
line's `failed` and `attempted`.  A job fails on a nonzero exit, an
exception, or an output that differs from its pinned value in pins.json
or from a known answer.

--trace 1 runs the even rounds untraced and the odd ones with spans at
every layer boundary, and prints per-layer self times and counters (median
over traced rounds, plus the in-process set-up) and the tracing
overhead.  The result line is the last line of standard output; the
full record, with environment and output digest, goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PINS = HERE / "pins.json"

SETUP_RUNS = 7
JOB_TIMEOUT_S = 60
MAX_MEASURE_S = 120  # no new round starts after this, so a run ends in time
TAIL_BEYOND = 10

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.main_s", "s"), ("bench.job_s", "s"),
    ("residues.build_s", "s"),
    ("ffield.extension_s", "s"), ("ffield.extensions_built", "count"),
    ("field_codes.build_s", "s"), ("field_codes.codes_built", "count"),
    ("ringalg.make_ring_s", "s"),
    ("ring_codes.build_s", "s"), ("ring_codes.chain_s", "s"),
    ("ring_codes.consistency_s", "s"),
    ("analysis.field_scan_s", "s"), ("analysis.words", "count"),
    ("analysis.words_per_s", "1/s"), ("analysis.kernel_macs", "MAC.computed"),
    ("analysis.ring_exhaustive_s", "s"), ("analysis.ring_tuples", "count"),
    ("analysis.ring_exhaustive_peak_mb", "MB"),
    ("identities.suite_s", "s"), ("identities.evaluated", "count"),
    ("identities.refuted", "count"),
    ("verify.run_s", "s"), ("verify.checks_passed", "count"),
    ("trace.overhead_pct", "%"),
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "madics" / "__init__.py").is_file():
    fail(f"no madics sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

from layers import Layers  # noqa: E402
from spans import Tracer, layer_totals, median_totals  # noqa: E402
from workloads import (  # noqa: E402
    OUTSIDE_GRID, WORKLOADS, CheckFailed, check, cli_argv, cli_projection,
    digest, make_units, prepare, run_job)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def timed_setup(workload, seed):
    """(seconds to ready, import seconds) of one fresh interpreter."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "setup_child.py"), workload,
             str(seed)], stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0 or not line:
        fail(f"set-up child exited with {proc.returncode}")
    return ready, json.loads(line)["import_s"]


class ColdRunner:
    """Runs cold-cli jobs as child processes; export files live in a
    scratch directory inside the checkout."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.scratch = RESULTS / f"tmp-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.env = child_env()

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def run(self, job, job_id):
        # an export and its distance --from share one file
        path = str(self.scratch / ("code-" + digest(job.key.replace(
            "distance-from", "export", 1)) + ".json"))
        argv = cli_argv(job, path)
        spans_path = self.scratch / f"spans-{job_id}.json"
        if self.tracer.enabled:
            spec = json.dumps(job.spec)
            cmd = [sys.executable, str(HERE / "clijob.py"), spec,
                   str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "madics.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=self.env, cwd=ROOT, timeout=JOB_TIMEOUT_S)
        if proc.returncode != 0:
            raise CheckFailed(f"exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-300:]}")
        if self.tracer.enabled:
            self.tracer.adopt(json.loads(spans_path.read_text()), job_id)
            spans_path.unlink()
        return proc.stdout


def run_round(units, run_one, tracer, first_id):
    """One pass over every job; returns (wall, [(job, id, dt, out, err)])."""
    records = []
    job_id = first_id
    t_round = time.perf_counter()
    for unit in units:
        for job in unit:
            tracer.job = job_id
            t0 = time.perf_counter()
            out = err = None
            try:
                with tracer.span("bench.job"):
                    out = run_one(job, job_id)
            except CheckFailed as exc:
                err = str(exc)
            except subprocess.TimeoutExpired:
                err = f"timed out after {JOB_TIMEOUT_S} s"
            except Exception as exc:  # a failed job is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            records.append((job, job_id, time.perf_counter() - t0, out, err))
            job_id += 1
    return time.perf_counter() - t_round, records


def tail(samples):
    """Highest-percentile sample with TAIL_BEYOND samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def job_table(records):
    table = {}
    for job, _, dt, _, _ in records:
        table.setdefault(job.key, []).append(dt)
    return table


def run_workload(name, seed, seconds, traced, pins, tiny=False):
    _, nominal = WORKLOADS[name]
    rng = random.Random(seed)
    units = make_units(name, rng)
    rounds = max(1, round(seconds / nominal))
    setups = SETUP_RUNS
    if tiny:
        units, rounds, setups = units[-3:], 1, 1
    traced_rounds = set()
    if traced:
        # odd rounds traced, so both kinds share the host's speed phase
        rounds = max(2, rounds)
        traced_rounds = set(range(1, rounds, 2))
    # set-up i runs before round slots[i]: spread over the run, so it
    # sees the same host phases as the rounds
    slots = [round(i * rounds / setups) for i in range(setups)]

    setup = []
    tracer = Tracer(traced)
    cold = name == "cold-cli"
    if cold:
        runner = ColdRunner(tracer)
        run_one = runner.run
    else:
        layers = Layers(tracer)
        tracer.job = "setup"
        states = {}
        for unit in units:
            for job in unit:
                states[job.key] = prepare(job, layers)

        def run_one(job, job_id):
            return run_job(job, states[job.key], layers)

    walls, records, traced_ids = [], [], []
    t_start = time.perf_counter()
    try:
        for r in range(rounds):
            if r and time.perf_counter() - t_start > MAX_MEASURE_S:
                break
            setup += [timed_setup(name, seed) for i in slots if i == r]
            order = list(units)
            rng.shuffle(order)
            tracer.enabled = r in traced_rounds
            wall, recs = run_round(order, run_one, tracer, len(records))
            walls.append((tracer.enabled, wall))
            if tracer.enabled:
                traced_ids.append([x[1] for x in recs])
            records.extend(recs)
    finally:
        if cold:
            runner.close()
    setup += [timed_setup(name, seed) for _ in range(setups - len(setup))]

    # checks run after timing, outside every measured interval
    failures, outputs = [], {}
    for job, _, _, out, err in records:
        if err is None:
            try:
                proj = cli_projection(json.loads(out)) if cold else out
            except (ValueError, KeyError, TypeError) as exc:
                err = f"unreadable output: {type(exc).__name__}: {exc}"
            else:
                err = check(job, proj, pins)
                d = digest(proj)
                if err is None and outputs.setdefault(job.key, d) != d:
                    err = "output changed between rounds"
        if err is not None:
            failures.append({"job": job.key, "error": err})

    untraced_walls = [w for t, w in walls if not t]
    traced_set = {i for ids in traced_ids for i in ids}
    job_times = [dt for _, jid, dt, _, _ in records if jid not in traced_set]
    tail_s, tail_pct, tail_n = tail(job_times)
    usage = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    e2e = {
        "setup_s": statistics.median(s for s, _ in setup),
        "wall_s": statistics.median(untraced_walls),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    result = {
        "workload": name, "seed": seed, "trace": int(traced),
        "rounds": len(walls), "correct": not failures,
        "attempted": len(records), "failed": len(failures),
        "error_rate": len(failures) / len(records),
        "job_tail": {"percentile": tail_pct, "samples": tail_n},
        "end_to_end": e2e,
        "setup_samples_s": [s for s, _ in setup],
        "round_walls_s": [w for _, w in walls],
        "job_times_s": job_table(records),
        "output_digest": digest(sorted(outputs.items())),
        "failures": failures,
        "outside_grid": list(OUTSIDE_GRID),
    }
    if traced:
        per_round = [layer_totals(tracer, ids) for ids in traced_ids]
        layer = median_totals(per_round)
        for k, v in layer_totals(tracer, ["setup"]).items():
            layer[k] = layer.get(k, 0) + v
        # one fresh interpreter's import, not the sum over a round
        layer["cli.import_s"] = statistics.median(i for _, i in setup)
        scan = layer.get("analysis.field_scan_s", 0)
        layer["analysis.words_per_s"] = (
            layer.get("analysis.words", 0) / scan if scan else 0)
        traced_walls = [w for t, w in walls if t]
        layer["trace.overhead_pct"] = 100 * (
            statistics.median(traced_walls) / statistics.median(untraced_walls)
            - 1)
        result["per_layer"] = {k: layer.get(k, 0) for k, _ in PER_LAYER}
        result["spans"] = tracer.export()
    return result


def environment():
    import importlib.util

    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "git_commit": commit, "src_lines": src_lines,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "MADICS_NO_NUMBA": os.environ.get("MADICS_NO_NUMBA"),
    }


def result_line(result):
    if result["trace"]:
        metrics = {k: {"value": result["per_layer"][k], "unit": u}
                   for k, u in PER_LAYER}
    else:
        metrics = {k: {"value": result["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def summary(result):
    e = result["end_to_end"]
    t = result["job_tail"]
    return (f"{result['workload']}: seed {result['seed']}, "
            f"{result['rounds']} rounds, ops {result['attempted']}, "
            f"failed {result['failed']}, error_rate {result['error_rate']:.4f}, "
            f"setup_s {e['setup_s']:.4f}, wall_s {e['wall_s']:.4f}, "
            f"job_p50_s {e['job_p50_s']:.4f}, job_tail_s {e['job_tail_s']:.4f} "
            f"(p{t['percentile']:.1f} of {t['samples']}), "
            f"peak_rss_mb {e['peak_rss_mb']:.1f}, "
            f"digest {result['output_digest']}")


def run_all(args):
    """Every workload in its own process, one summary line each."""
    lines = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"{name} exited with {proc.returncode}: {proc.stderr}")
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        lines[name] = json.loads(out[-1])
    print(json.dumps(lines))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), pins)
    result["environment"] = environment()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1))
    for f in result["failures"][:20]:
        print(f"FAILED {f['job']}: {f['error']}", file=sys.stderr)
    print(summary(result))
    if args.trace:
        print("per-layer: " + ", ".join(
            f"{k}={v:.6g}" for k, v in result["per_layer"].items()))
    print(json.dumps(result_line(result)), flush=True)


if __name__ == "__main__":
    main()
