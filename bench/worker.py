"""One benchmark process: set up, run the measured tasks, verify, report.

Started by run.py in a fresh interpreter, never imported by it.  It
imports nearcloak from the checkout's src/, runs one untimed warm-up task
and announces readiness with the CPU time spent so far (interpreter
start, imports and warm-up) and the median of three calibration runs.
A ``--probe`` process stops there.  Otherwise it re-runs the golden CLI
cases, then either

* ``--trace 0``: runs the seeded task list closed-loop, timing each task
  and running the calibration kernel between tasks about every
  CALIBRATE_EVERY_NS of task time, then verifies every output (outside
  the timed region), or
* ``--trace 1``: runs the first ``--trace-cycles`` cycles untraced, then
  again with spans around every layer call, and derives the per-layer
  metrics.

Events go to stdout as single lines starting with ``@bench ``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALIBRATE_EVERY_NS = 250_000_000
sys.path.insert(0, str(ROOT / "src"))

import numpy as np                  # noqa: E402
from scipy import linalg, special   # noqa: E402

import nearcloak                    # noqa: E402
from nearcloak import cli, mie      # noqa: E402

import checks                       # noqa: E402
import spans                        # noqa: E402
import tasks                        # noqa: E402


def emit(event: str, **fields) -> None:
    print("@bench " + json.dumps({"event": event, **fields}), flush=True)


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nearcloak").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def calibrate() -> int:
    """CPU ns of a fixed mix of interpreter, small-array and dense numeric work.

    Uses numpy and scipy only, never nearcloak, so no change to the program
    moves it; it moves with the speed the machine gives this process.
    """
    t0 = time.process_time_ns()
    acc = 0
    for i in range(80_000):
        acc += i * i % 7
    x = np.linspace(0.1, 10.0, 64)
    for _ in range(1600):
        x = np.sqrt(x * x + 1.0) - 0.5
    a = np.cos(np.outer(np.arange(200), np.arange(200)) * 0.37) + 200.0 * np.eye(200)
    linalg.lu_factor(a)
    special.jv(1, np.linspace(0.1, 20.0, 10_000))
    return time.process_time_ns() - t0


def run_pass(todo: list[dict], work: Path, tracer=None, calibrate_every_ns=0):
    """Closed loop over ``todo``.

    Returns the outputs, per-task CPU ns, CPU and wall ns of the whole pass
    and, when ``calibrate_every_ns`` is set, calibration marks
    [task index, kernel ns]: one before the first task, one after the last,
    and one between tasks whenever that much task time has passed.
    """
    outputs, latencies, marks = [], [], []
    clock = time.process_time_ns
    start, wall = clock(), time.perf_counter_ns()
    since = calibrate_every_ns
    for i, task in enumerate(todo):
        if calibrate_every_ns and since >= calibrate_every_ns:
            marks.append([i, calibrate()])
            since = 0
        if tracer is not None:
            tracer.task_id = i
        t0 = clock()
        try:
            out = tasks.run_task(task, str(work / f"t{i}"))
        except Exception as exc:  # a failing task is counted, not fatal
            out = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(clock() - t0)
        since += latencies[-1]
        outputs.append(out)
    if calibrate_every_ns:
        marks.append([len(todo), calibrate()])
    return outputs, latencies, clock() - start, time.perf_counter_ns() - wall, marks


def verify(todo: list[dict], outputs: list[dict]) -> list[str]:
    """One line per failed task; [] when every output is correct."""
    failed = []
    for i, (task, out) in enumerate(zip(todo, outputs)):
        problems = [out["error"]] if "error" in out else checks.check(task, out)
        if problems:
            failed.append(f"task {i} {json.dumps(task)}: {'; '.join(problems)}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--trace-cycles", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    todo = tasks.generate(args.workload, args.seed, args.cycles)
    run_dir = ROOT / ".bench_run"
    work = run_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        warm = tasks.run_task(todo[0], str(work / "warmup"))
        setup_ns = time.process_time_ns()
        emit("ready", setup_ns=setup_ns,
             calibration_ns=statistics.median(calibrate() for _ in range(3)))
        if args.probe:
            return 0
        problems = checks.golden_canary(str(ROOT / "tests" / "data"), str(work), cli.main)
        problems += checks.check(todo[0], warm)
        if problems:
            emit("refused", problems=problems)
            return 3

        if args.trace == 0:
            outputs, latencies, cpu, wall, marks = run_pass(
                todo, work, calibrate_every_ns=CALIBRATE_EVERY_NS)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            failed = verify(todo, outputs)
            emit("result", facts=machine_facts(), attempted=len(todo),
                 failed=failed, latencies_ns=latencies, cpu_ns=cpu, wall_ns=wall,
                 calibration=marks, peak_rss_mb=rss_kb / 1024.0)
            return 0

        traced_todo = todo[: len(todo) // args.cycles * args.trace_cycles]
        outputs, _, plain_cpu, _, _ = run_pass(traced_todo, work)
        failed = verify(traced_todo, outputs)
        del outputs
        tracer = spans.Tracer()
        tracer.install(nearcloak)
        try:
            outputs, latencies, traced_cpu, _, _ = run_pass(traced_todo, work, tracer)
        finally:
            tracer.uninstall()
        failed += verify(traced_todo, outputs)
        written = sum(tasks.bytes_written(out) for out in outputs)
        metrics = spans.layer_metrics(tracer, latencies, mie.default_n_max, written)
        metrics["trace.overhead"] = traced_cpu / plain_cpu
        tracer.write(str(run_dir / f"spans-{args.workload}-{args.seed}.jsonl"))
        emit("result", facts=machine_facts(), attempted=2 * len(traced_todo),
             failed=failed, layer_metrics=metrics, spans=len(tracer.fid))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
