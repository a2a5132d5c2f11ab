"""The benchmark's own tests: span arithmetic, seeding, and the verifier.

Run with ``python -m pytest bench/tests``.
"""

import dataclasses

import numpy as np
import pytest

import checks
import run
import spans
import tasks
import nearcloak
from nearcloak import mie

WORKLOADS = sorted(run.CYCLE_SECONDS)


def test_self_times_of_nested_spans():
    # root [0, 100] holds a [10, 40] (which holds [20, 30]) and [50, 90].
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 90]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [30, 20, 10, 40]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    lat = list(range(1, 41))                   # 40 samples
    assert run.tail(lat) == (30, 75.0, 10)     # 31..40 lie beyond
    assert run.tail([5, 1, 3]) == (5, 100.0, 0)


def test_normalise_scales_by_the_median_calibration_around_each_stretch(monkeypatch):
    monkeypatch.setattr(run, "CALIBRATION_WINDOW", 2)
    ref = run.CALIBRATION_NS
    marks = [[0, 2 * ref], [2, 2 * ref], [4, ref]]
    got = run.normalise([10.0, 20.0, 30.0, 40.0], marks)
    assert got == pytest.approx([5.0, 10.0, 20.0, 80.0 / 3.0])
    monkeypatch.setattr(run, "CALIBRATION_WINDOW", 6)
    marks = [[0, ref], [1, ref], [2, ref // 2], [3, ref], [4, ref]]
    assert run.normalise([1.0] * 4, marks) == pytest.approx([1.0] * 4)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert tasks.generate(workload, 7, 2) == tasks.generate(workload, 7, 2)
    assert tasks.generate(workload, 7, 2) != tasks.generate(workload, 8, 2)


def _traced_counts(todo, work):
    tracer = spans.Tracer()
    tracer.install(nearcloak)
    try:
        outs = []
        for i, task in enumerate(todo):
            tracer.task_id = i
            outs.append(tasks.run_task(task, str(work / f"t{i}")))
    finally:
        tracer.uninstall()
    for task, out in zip(todo, outs):
        assert checks.check(task, out) == []
    m = spans.layer_metrics(tracer, [1] * len(todo), mie.default_n_max,
                            sum(tasks.bytes_written(o) for o in outs))
    return {k: m[k] for k in ("specfun.terms", "mie.modes_computed",
                              "bie.nodes", "media.cells", "media.point_calls")}


def test_same_seed_same_exact_counts(tmp_path):
    todo = (tasks.generate("reference_sweeps", 3, 1)[:3]
            + tasks.generate("high_order_modal", 3, 1)[:2]
            + tasks.generate("bie_oracle", 3, 1)[:1]
            + tasks.generate("cloak_media", 3, 1)[:1])
    first = _traced_counts(todo, tmp_path)
    assert first == _traced_counts(todo, tmp_path)
    assert all(v > 0 for v in first.values())
    assert first["bie.nodes"] == 256
    assert first["media.cells"] == first["media.point_calls"]


def test_tracer_restores_the_modules():
    original = mie.solve
    tracer = spans.Tracer()
    tracer.install(nearcloak)
    assert mie.solve is not original
    assert mie.virtual_core_params is nearcloak.media.virtual_core_params
    tracer.uninstall()
    assert mie.solve is original


def test_verifier_flags_a_perturbed_modal_far_field():
    task = {"kind": "modal", "scheme": "fsh", "dim": 2, "k": 60.0, "rho": 0.4}
    out = tasks.run_task(task, "unused")
    assert checks.check(task, out) == []
    far = out["far"]
    amp = far.amplitude.copy()
    amp[100] *= 1 + 1e-6
    out["far"] = dataclasses.replace(far, amplitude=amp)
    assert checks.check(task, out)


def test_verifier_flags_perturbed_coefficients():
    task = {"kind": "modal", "scheme": "sh", "dim": 3, "k": 40.0, "rho": 0.3}
    out = tasks.run_task(task, "unused")
    assert checks.check(task, out) == []
    d = out["solution"].d_n.copy()
    d[5] *= 1 + 1e-6
    out["solution"] = dataclasses.replace(out["solution"], d_n=d)
    assert checks.check(task, out)


@pytest.mark.parametrize("kind", ["media", "sweep"])
def test_verifier_flags_a_perturbed_csv(tmp_path, kind):
    if kind == "media":
        task = {"kind": "media", "dim": 3, "cells": 10, "rho": 0.01, "r1": 2.0, "r2": 3.0}
    else:
        task = {"kind": "sweep", "scheme": "sh", "dim": 2, "k": 2.0, "rho_count": 8}
    out = tasks.run_task(task, str(tmp_path / "t"))
    assert checks.check(task, out) == []
    path = out["files"]["csv"]
    lines = open(path).read().splitlines()
    cells = lines[5].split(",")
    cells[-1 if kind == "sweep" else 4] = repr(float(cells[-1 if kind == "sweep" else 4]) * (1 + 1e-8))
    lines[5] = ",".join(cells)
    open(path, "w").write("\n".join(lines) + "\n")
    assert checks.check(task, out)


def test_bie_check_flags_a_residual_and_a_perturbed_pattern():
    task = tasks.generate("bie_oracle", 5, 1)[0]
    out = tasks.run_task(task, "unused")
    assert checks.check(task, out) == []
    amp = out["far"].amplitude.copy()
    amp[3] += 1e-5 * np.max(np.abs(amp))
    bad = dict(out, far=dataclasses.replace(out["far"], amplitude=amp))
    assert checks.check(task, bad)
    assert checks.check(task, dict(out, residual=1e-8))
