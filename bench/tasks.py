"""Seeded inputs and task runners for the four benchmark workloads.

A workload is an endless stream of *cycles*.  A cycle has a fixed
composition of task kinds, so every cycle costs about the same; the seed
draws only the parameters inside each kind's documented range.  A run
measures a whole number of cycles, which keeps the task mix -- and so
every end-to-end metric -- comparable between seeds and between commits.

Tasks are plain dicts of JSON values.  ``run_task`` hands them to the
program through its public API or through ``cli.main``; everything the
verifier needs is returned, and nothing is checked here.

All calls go through module attributes (``mie.solve``, not an imported
name) so that the traced run sees them.
"""

from __future__ import annotations

import math
import os
import random

import numpy as np

from nearcloak import analysis, bie, cli, mie

SCHEMES = ("ss", "sh", "fss", "fsh")

# Reference-experiment sweeps: rho halves from RHO_START, 8-18 points, so
# the smallest rho is 0.125 * 2^-17 ~ 1e-6.  With k <= 4 the FSH layer
# argument stays below ~8e3, inside the |z| <= 2e4 guard.
RHO_START = 0.125
RHO_COUNTS = (8, 18)
SWEEP_K = (1.0, 4.0)

# High-order solves: k rho in [10, 60] with k <= 120 and rho in [0.1, 0.5].
MODAL_KRHO = (10.0, 60.0)
MODAL_K_MAX = 120.0
MODAL_RHO = (0.1, 0.5)
FAR_ANGLES = 720
NEAR_ANGLES = 64

# Boundary-integral oracle: one cycle is eleven solves, (curve, nodes, k
# band) per slot.  The 256-node bands tile [1, 5]; the 512- and 1024-node
# slots give the O(N^2) assembly and the O(N^3) LU their weight.  Kernel
# cost depends on k |x - y| (scipy's Bessel routines are cheaper in the
# small-argument regime), so each slot keeps its curve and a narrow k band
# and every cycle costs about the same.  The incident direction is one of
# the far-field angles.
BIE_SLOTS = (
    ("kite", 256, (1.0, 1.5)), ("circle", 256, (1.5, 2.0)),
    ("kite", 256, (2.0, 2.5)), ("circle", 256, (2.5, 3.0)),
    ("kite", 256, (3.0, 3.5)), ("circle", 256, (3.5, 4.0)),
    ("kite", 256, (4.0, 4.5)), ("circle", 256, (4.5, 5.0)),
    ("circle", 512, (2.0, 2.4)), ("kite", 512, (3.6, 4.0)),
    ("kite", 1024, (2.5, 2.9)),
)
BIE_RADIUS = (0.5, 0.7)
BIE_ANGLES = 128
CAUCHY_POINTS = 256
# Interior Neumann eigenvalues where the direct formulation is singular.
# Circle of radius r: k r at the zeros of J_n' (n = 0..4, below 5.4).
# Kite: peaks of the condition estimate of the discrete system, found by
# scanning k in [0.9, 5.2] in steps of 0.01 on 96 nodes.
CIRCLE_RESONANT_KR = (1.8412, 3.0542, 3.8317, 4.2012, 5.3176, 5.3314)
KITE_RESONANT_K = (2.21, 3.215, 3.53, 4.30, 4.37, 4.91)
RESONANCE_GAP = 0.05

# Cloak media grids: cells per side on a fixed ladder over the documented
# ranges ([32, 96] in 2D, [12, 28] in 3D).  R1 sets the share of cells
# inside the shell, so the i-th grid of a ladder draws R1 from the i-th
# quarter of its range: the cost of each grid, and with it the latency
# percentiles, then hardly depends on the seed.  rho is drawn freely.
MEDIA_CELLS_2D = (36, 52, 68, 84)
MEDIA_CELLS_3D = (14, 18, 22, 26)
MEDIA_RHO = (1e-4, 0.5)
MEDIA_R1 = (1.5, 2.5)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Spread:
    """Uniform draws that cover their range evenly over the cycles of a run.

    The i-th draw of cycle c is frac(u_i + c * golden ratio), with u_i drawn
    from the seed: each draw slot follows its own Weyl sequence, so any
    number of cycles spreads its values evenly over the range.  Used for the
    parameters that set a task's cost, so the cost mix -- and with it the
    latency percentiles -- hardly changes between seeds.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._offsets: list[float] = []
        self._cycle = self._slot = 0

    def start(self, cycle: int) -> None:
        self._cycle, self._slot = cycle, 0

    def random(self) -> float:
        if self._slot == len(self._offsets):
            self._offsets.append(self._rng.random())
        u = (self._offsets[self._slot] + self._cycle * _GOLDEN) % 1.0
        self._slot += 1
        return u

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        return lo + int((hi - lo + 1) * self.random())


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sweep_cycle(rng: random.Random, even: Spread) -> list[dict]:
    # Five short tasks (SS/SH sweeps, one mie) and eight long ones (lossy
    # sweeps, compares): the median task lies inside the long group rather
    # than in the gap between the groups, where it would jump between seeds.
    out = []
    for scheme in SCHEMES:
        for dim in (2, 3):
            out.append({"kind": "sweep", "scheme": scheme, "dim": dim,
                        "k": even.uniform(*SWEEP_K),
                        "rho_count": even.randint(*RHO_COUNTS)})
    for a, b in (("fsh", "sh"), ("fss", "ss")):
        for dim in (2, 3):
            out.append({"kind": "compare", "scheme_a": a, "scheme_b": b,
                        "dim": dim, "k": even.uniform(*SWEEP_K),
                        "rho_count": even.randint(*RHO_COUNTS)})
    out.append({"kind": "mie", "scheme": rng.choice(SCHEMES),
                "dim": rng.choice((2, 3)), "k": even.uniform(*SWEEP_K),
                "rho": _log_uniform(even, RHO_START * 0.5 ** 17, RHO_START)})
    return out


def _modal_cycle(rng: random.Random, even: Spread) -> list[dict]:
    out = []
    for scheme in SCHEMES:
        for dim in (2, 3):
            rho = even.uniform(*MODAL_RHO)
            krho = even.uniform(MODAL_KRHO[0], min(MODAL_KRHO[1], MODAL_K_MAX * rho))
            out.append({"kind": "modal", "scheme": scheme, "dim": dim,
                        "k": krho / rho, "rho": rho})
    return out


def _bie_k(rng: random.Random, band: tuple[float, float], curve: str,
           radius: float) -> float:
    while True:
        k = rng.uniform(*band)
        if curve == "kite":
            if all(abs(k - kr) >= RESONANCE_GAP for kr in KITE_RESONANT_K):
                return k
        elif all(abs(k * radius - kr) >= RESONANCE_GAP for kr in CIRCLE_RESONANT_KR):
            return k


def _bie_cycle(rng: random.Random, even: Spread) -> list[dict]:
    out = []
    for curve, nodes, band in BIE_SLOTS:
        radius = rng.uniform(*BIE_RADIUS) if curve == "circle" else None
        out.append({"kind": "bie", "curve": curve, "radius": radius,
                    "k": _bie_k(rng, band, curve, radius), "n_points": nodes,
                    "incident_index": rng.randrange(BIE_ANGLES)})
    return out


def _media_cycle(rng: random.Random, even: Spread) -> list[dict]:
    out = []
    lo, hi = MEDIA_R1
    for dim, ladder in ((2, MEDIA_CELLS_2D), (3, MEDIA_CELLS_3D)):
        for i, cells in enumerate(ladder):
            r1 = lo + (hi - lo) * (i + rng.random()) / len(ladder)
            out.append({"kind": "media", "dim": dim, "cells": cells,
                        "rho": _log_uniform(rng, *MEDIA_RHO),
                        "r1": r1, "r2": r1 + 1.0})
    return out


_CYCLES = {
    "reference_sweeps": _sweep_cycle,
    "high_order_modal": _modal_cycle,
    "bie_oracle": _bie_cycle,
    "cloak_media": _media_cycle,
}


def generate(workload: str, seed: int, cycles: int) -> list[dict]:
    """The first ``cycles`` cycles of the workload's task stream for ``seed``."""
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    even = Spread(random.Random(f"{workload}/{seed}/even"))
    tasks = []
    for cycle in range(cycles):
        even.start(cycle)
        tasks.extend(_CYCLES[workload](rng, even))
    return tasks


# ---------------------------------------------------------------------------
# Running tasks
# ---------------------------------------------------------------------------
def direction(dim: int, angle: float = 0.0) -> np.ndarray:
    if dim == 2:
        return np.array([math.cos(angle), math.sin(angle)])
    return np.array([math.cos(angle), math.sin(angle), 0.0])


def scheme_spec(kind: str) -> mie.SchemeSpec:
    """The CLI's default scheme constants (C=1, delta=0.5, a=3, b=2, beta=2.5)."""
    if kind == "fsh":
        return mie.SchemeSpec.finite_sound_hard()
    if kind == "fss":
        return mie.SchemeSpec.finite_sound_soft()
    return mie.SchemeSpec(kind)


def far_angles(dim: int, count: int) -> np.ndarray:
    if dim == 2:
        return 2.0 * math.pi * np.arange(count) / count
    return np.linspace(0.0, math.pi, count)


def cli_argv(task: dict, prefix: str) -> tuple[list[str], dict]:
    """argv for a CLI task and the output files it names."""
    kind = task["kind"]
    files = {"csv": prefix + ".csv"}
    if kind == "media":
        argv = ["media", "--dim", str(task["dim"]), "--cells", str(task["cells"]),
                "--rho", repr(task["rho"]), "--r1", repr(task["r1"]),
                "--r2", repr(task["r2"])]
        return argv + ["--out", files["csv"]], files
    common = ["--dim", str(task["dim"]), "--k", repr(task["k"])]
    if kind == "sweep":
        files["json"] = prefix + ".json"
        argv = ["sweep", "--scheme", task["scheme"], *common,
                "--rho-start", repr(RHO_START), "--rho-factor", "0.5",
                "--rho-count", str(task["rho_count"]), "--json-out", files["json"]]
    elif kind == "compare":
        argv = ["compare", "--scheme-a", task["scheme_a"], "--scheme-b",
                task["scheme_b"], *common, "--rho-start", repr(RHO_START),
                "--rho-factor", "0.5", "--rho-count", str(task["rho_count"])]
    elif kind == "mie":
        argv = ["mie", "--scheme", task["scheme"], *common, "--rho", repr(task["rho"])]
    else:
        raise ValueError(f"{kind!r} is not a CLI task")
    return argv + ["--out", files["csv"]], files


def _run_modal(task: dict) -> dict:
    dim, rho = task["dim"], task["rho"]
    wave = mie.WaveParams(task["k"], direction(dim))
    sol = mie.solve(scheme_spec(task["scheme"]), dim, wave, rho)
    out = {"solution": sol, "far": mie.far_field(sol, far_angles(dim, FAR_ANGLES))}
    if sol.is_layered:
        thetas = far_angles(dim, NEAR_ANGLES)
        out["near"] = {
            "exterior": mie.field_on_circle(sol, rho, thetas),
            "layer": mie.field_on_circle(sol, rho, thetas, region="layer"),
            "core": mie.field_on_circle(sol, 0.5 * rho, thetas, region="core"),
        }
        sh = mie.solve(mie.SchemeSpec.sound_hard(), dim, wave, rho)
        out["deviation"] = analysis.near_field_deviation(sol, sh, 1.5 * rho)
    return out


def _run_bie(task: dict) -> dict:
    angles = far_angles(2, BIE_ANGLES)
    wave = mie.WaveParams(task["k"], direction(2, angles[task["incident_index"]]))
    if task["curve"] == "kite":
        curve = bie.kite(task["n_points"])
    else:
        curve = bie.circle(task["radius"], task["n_points"])
    sol = bie.assemble_and_solve(curve, wave)
    out = {"residual": sol.residual,
           "far": bie.far_field_from_density(sol, wave, angles)}
    if task["curve"] == "circle":
        # Modal cross-check: Cauchy data of the sound-hard modal solution on
        # an enclosing circle, measured from the incident direction.
        modal = mie.solve(mie.SchemeSpec.sound_hard(), 2, wave, task["radius"])
        phis = 2.0 * math.pi * np.arange(CAUCHY_POINTS) / CAUCHY_POINTS
        radius = 2.0 * task["radius"]
        u, dudr = mie.scattered_cauchy_data(modal, radius, phis - angles[task["incident_index"]])
        out["modal_far"] = bie.far_field_from_cauchy_data(radius, u, dudr, wave, angles)
    return out


def run_task(task: dict, prefix: str) -> dict:
    """Run one task; CLI tasks write their files under ``prefix``."""
    kind = task["kind"]
    if kind == "modal":
        return _run_modal(task)
    if kind == "bie":
        return _run_bie(task)
    argv, files = cli_argv(task, prefix)
    return {"exit": cli.main(argv), "files": files}


def bytes_written(output: dict) -> int:
    return sum(os.path.getsize(p) for p in output.get("files", {}).values()
               if os.path.exists(p))
