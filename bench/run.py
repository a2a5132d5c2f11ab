"""nearcloak benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reference_sweeps --seed 1 --seconds 15 --trace 0

Workloads are described in BENCHMARK.json.  Each run is one client in a
closed loop, in a fresh single process (worker.py), over a seeded task
list of whole cycles sized to last about ``--seconds`` on the reference
machine (2 cores, OpenBLAS on one thread); a faster program finishes the
same work sooner.  Fixing the work, not the time, keeps every run of a
seed identical in what it computes, so the tail percentile and the exact
counts compare like with like between commits.

Times are CPU time of the measuring process (single threaded, BLAS held
to one thread), normalised to the reference machine: between tasks the
worker runs a fixed calibration kernel (numpy/scipy only, no nearcloak)
about every 0.25 s of task time, and each task's time is multiplied by
CALIBRATION_NS over the median time of the CALIBRATION_WINDOW kernel
runs around it.  On a quiet reference machine the factor is about 1.  On
a shared machine other tenants slow this process by 10-30 % for seconds
to minutes at a time; there, over two sets of ten seeds per workload, the
factor narrowed the spread of tasks_per_s from 5-18 % to 3-13 % (in six
of eight sets).  Raw CPU and wall-clock times are
recorded next to the metrics.

``--trace 0`` reports the end-to-end metrics:

* tasks_per_s   -- verified tasks per (normalised) second of task time
* task_p50_ms   -- median task latency
* task_tail_ms  -- the highest percentile with at least 10 samples beyond
                   it (the maximum when there are 10 or fewer tasks)
* setup_s       -- median over SETUP_SAMPLES fresh interpreters of the
                   (normalised) CPU time from interpreter start to the end
                   of importing nearcloak and one untimed warm-up task
* peak_rss_mb   -- peak resident set of the measuring process

``--trace 1`` runs the first cycles untraced and then traced, and
reports the per-layer metrics of spans.py plus trace.overhead (traced over
untraced CPU time) and trace.coverage (share of task time inside layer
spans).

Every output is verified outside the timed region (checks.py); a failed
task counts in ``failed``.  Before measuring, the four golden CLI cases of
tests/data are re-run; on a mismatch no numbers are reported and the exit
code is non-zero.  The last stdout line is the JSON result; the full
record, with machine facts, goes to .bench_run/.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import statistics
import subprocess
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Seconds one cycle of each workload takes on the reference machine; a run
# measures round(--seconds / this) cycles, at least one.
CYCLE_SECONDS = {
    "reference_sweeps": 0.4,
    "high_order_modal": 0.08,
    "bie_oracle": 7.2,
    "cloak_media": 5.0,
}
TRACE_SHARE = 3          # the traced run covers a third of the cycles
# CPU ns of worker.calibrate() on the reference machine when it is quiet.
CALIBRATION_NS = 27_000_000
CALIBRATION_WINDOW = 6
SETUP_SAMPLES = 3
BLAS_THREADS = 1
DEADLINE_S = 170.0
TAIL_BEYOND = 10


def normalise(latencies: list[float], marks: list[list[int]]) -> list[float]:
    """Scale each task by CALIBRATION_NS over the median calibration kernel
    time of the CALIBRATION_WINDOW marks around its stretch of tasks.

    ``marks`` holds [first task index, kernel ns] and ends with
    [len(latencies), kernel ns]; stretch j runs from mark j to mark j + 1.
    The median keeps one odd kernel time from rescaling a long task.
    """
    kernel = [ns for _, ns in marks]
    half = CALIBRATION_WINDOW // 2
    out = []
    for j, ((start, _), (end, _)) in enumerate(zip(marks, marks[1:])):
        around = kernel[max(0, j + 1 - half): j + 1 + half]
        factor = CALIBRATION_NS / statistics.median(around)
        out.extend(t * factor for t in latencies[start:end])
    return out


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for the "end_to_end" or "per_layer" list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the task_tail_ms definition."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Worker:
    """A worker.py process whose events are read line by line."""

    def __init__(self, args: list[str], deadline: float):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                     self.proc.kill)
        self.timer.start()

    def events(self):
        for line in self.proc.stdout:
            if line.startswith("@bench "):
                yield json.loads(line[len("@bench "):])

    def close(self) -> int:
        self.proc.stdout.close()
        code = self.proc.wait()
        self.timer.cancel()
        return code


def run_worker(args: list[str], deadline: float) -> tuple[float | None, dict | None, int]:
    """(set-up CPU seconds, last event, exit code) of one worker process."""
    worker = Worker(args, deadline)
    setup, last = None, None
    try:
        for event in worker.events():
            if event["event"] == "ready":
                setup = event["setup_ns"] * 1e-9 * CALIBRATION_NS / event["calibration_ns"]
            else:
                last = event
    finally:
        code = worker.close()
    return setup, last, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLE_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/nearcloak/__init__.py", "tests/data") if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a nearcloak checkout, missing {missing}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    cycles = max(1, round(args.seconds / CYCLE_SECONDS[args.workload]))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--cycles", str(cycles), "--trace", str(args.trace),
              "--trace-cycles", str(max(1, cycles // TRACE_SHARE))]

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            setup, _, code = run_worker(common + ["--probe"], deadline)
            if setup is None or code != 0:
                print(f"bench: set-up probe failed (exit {code})", file=sys.stderr)
                return 1
            setups.append(setup)
    setup, result, code = run_worker(common, deadline)
    if setup is None or result is None or result["event"] != "result" or code != 0:
        detail = result.get("problems") if result else None
        print(f"bench: worker failed (exit {code}): {detail}", file=sys.stderr)
        return 1
    setups.append(setup)

    failed = result["failed"]
    attempted = result["attempted"]
    for line in failed[:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload}, seed {args.seed}: {cycles} cycles, "
          f"{attempted} tasks attempted, {len(failed)} failed")
    print("machine " + json.dumps(result["facts"], sort_keys=True))

    if args.trace == 0:
        lat_ms = [ns * 1e-6 for ns in normalise(result["latencies_ns"],
                                                result["calibration"])]
        busy_s = sum(lat_ms) * 1e-3
        cpu_s, wall_s = result["cpu_ns"] * 1e-9, result["wall_ns"] * 1e-9
        factors = [CALIBRATION_NS / c for _, c in result["calibration"]]
        tail_ms, pct, beyond = tail(lat_ms)
        metrics = {
            "tasks_per_s": ((attempted - len(failed)) / busy_s,
                            f"{attempted - len(failed)} verified tasks / {busy_s:.3f} s; "
                            f"raw {cpu_s:.3f} CPU s, {wall_s:.3f} s wall; "
                            f"speed factors {min(factors):.3f}-{max(factors):.3f}"),
            "task_p50_ms": (statistics.median(lat_ms), f"n={len(lat_ms)}"),
            "task_tail_ms": (tail_ms, f"p{pct:.1f}, n={len(lat_ms)}, {beyond} beyond"),
            "setup_s": (statistics.median(setups), f"median of {len(setups)}: "
                        + ", ".join(f"{s:.3f}" for s in setups)),
            "peak_rss_mb": (result["peak_rss_mb"], "ru_maxrss of the worker"),
        }
    else:
        metrics = {name: (value, "") for name, value in result["layer_metrics"].items()}
    units = declared_units("end_to_end" if args.trace == 0 else "per_layer")
    if set(units) != set(metrics):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    for name, (value, note) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]:<6} {note}")
    print(f"{'error_rate':<28} {len(failed) / attempted:>14.6g} {'ratio':<6} "
          f"{len(failed)} of {attempted} tasks failed")

    report = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }
    record = dict(report, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, cycles=cycles,
                  notes={name: note for name, (_, note) in metrics.items()},
                  facts=result["facts"], failures=failed,
                  calibration=result.get("calibration"))
    out_dir = ROOT / ".bench_run"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
