#!/usr/bin/env python3
"""Benchmark of the goldbachnet command line, end to end and per layer.

    python3 bench/run.py --workload grid_sweep --seed 1 --seconds 30 --trace 0

    # every end-to-end metric of every workload
    for w in grid_sweep growth build_one; do python3 bench/run.py --workload $w; done

    # self-tests of the harness
    PYTHONPATH=src python3 -m pytest -q bench/tests

Run from the root of a source checkout (the directory holding ``src``).
Each operation is one CLI invocation, ``goldbachnet.cli.main(argv)`` called
in a fresh interpreter (runner.py) so that its CPU time and peak RSS are its
own. The workload seed is passed to the CLI as ``--seed``. Every invocation's
output is checked (checks.py); an invocation that fails the check, or exits
non-zero, counts as failed.

``--trace 0`` runs invocations back to back in a closed loop for about
``--seconds`` (at least one) and reports the medians of:
  wall_s       wall time of the main() call
  cpu_s        user + system time of the process and its pool workers
  peak_rss_mb  peak RSS of the process or of its largest pool worker
  setup_s      a fresh interpreter importing goldbachnet.cli and building
               the sieve at the workload's cap (median of several samples)

``--trace 1`` runs the workload untraced, then once traced in a single
process (spans.py), and reports the per-layer metrics.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, cli_argv

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
# stop starting invocations after this long, to end well within 180 s
RUN_DEADLINE_S = 120


class BenchError(Exception):
    """The benchmark cannot measure in this checkout."""


def _run_child(cmd):
    """Run ``cmd`` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1:3]} timed out after {CHILD_TIMEOUT_S} s")
    return proc.returncode, err.decode(errors="replace")


def measure_setup(sieve_cap):
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"import goldbachnet.cli; goldbachnet.build_table({sieve_cap})")
    t0 = time.perf_counter()
    rc, err = _run_child([sys.executable, "-c", code])
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise BenchError(f"set-up failed: {err.strip()}")
    return elapsed


class Invoker:
    """Runs CLI invocations of one workload and checks each one's output."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.work = WORK_DIR / f"{workload.name}-{os.getpid()}"

    def __call__(self, argv, traced=False):
        """Cost record of one invocation, plus its spans when traced."""
        self.attempted += 1
        out = self.work / f"out{self.attempted}"
        result = self.work / f"result{self.attempted}.json"
        spans_path = self.work / f"spans{self.attempted}.json"
        full_argv = cli_argv(argv, self.seed, out)
        cmd = [sys.executable, str(BENCH_DIR / "runner.py"), "--result", str(result)]
        if traced:
            cmd += ["--spans", str(spans_path)]
        rc, err = _run_child(cmd + ["--"] + full_argv)
        if rc != 0 or not result.is_file():
            raise BenchError(f"runner failed: {err.strip()}")
        record = json.loads(result.read_text())
        problems = ([f"exit code {record['rc']}: {err.strip()}"] if record["rc"] != 0
                    else checks.check_invocation(self.workload.name, out, full_argv,
                                                 self.seed))
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"{self.workload.name} seed {self.seed}: {problem}", file=sys.stderr)
        else:
            manifest = json.loads((out / "manifest.json").read_text())
            record["artifact_bytes"] = sum(a["bytes"] for a in manifest["artifacts"])
        if traced:
            record["spans"] = [tuple(s) for s in json.loads(spans_path.read_text())["spans"]]
        shutil.rmtree(out, ignore_errors=True)
        return record


def end_to_end(invoke, workload, seconds):
    setup = [measure_setup(workload.sieve_cap) for _ in range(SETUP_SAMPLES)]
    records = []
    t0 = time.perf_counter()
    while True:
        records.append(invoke(workload.argv))
        elapsed = time.perf_counter() - t0
        # start another only if it should end closer to --seconds than not
        if elapsed + elapsed / len(records) / 2 >= min(seconds, RUN_DEADLINE_S):
            break
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in records), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in records), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(invoke, workload):
    parallel = invoke(workload.argv)
    serial = (parallel if workload.traced_argv == workload.argv
              else invoke(workload.traced_argv))
    traced = invoke(workload.traced_argv, traced=True)
    problem = spans.self_sum_problem(traced["spans"], traced["wall_s"])
    if problem:
        invoke.failed += 1
        print(f"{workload.name}: {problem}", file=sys.stderr)
    return spans.layer_metrics(
        traced["spans"],
        untraced_wall_s=serial["wall_s"],
        untraced_parallel_wall_s=parallel["wall_s"],
        workers=workload.workers,
        traced_wall_s=traced["wall_s"],
        artifact_bytes=traced.get("artifact_bytes", 0),
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="goldbachnet CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "goldbachnet" / "cli.py").is_file():
        print(f"error: no goldbachnet sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    invoke = Invoker(workload, args.seed)
    invoke.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics = per_layer(invoke, workload)
        else:
            metrics = end_to_end(invoke, workload, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(invoke.work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({
        "correct": invoke.failed == 0,
        "attempted": invoke.attempted,
        "failed": invoke.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
