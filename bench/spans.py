"""Tracing from the benchmark's side: spans around calls into each layer.

``Tracer.install`` replaces every public function of the layer modules
(specfun, mie, bie, media, analysis, cli) with a timing wrapper, in the
defining module and wherever another layer module imported it by value
(``mie.virtual_core_params``, ``analysis.virtual_core_params``, ...).
Module globals are looked up at call time, so calls made inside the
program go through the wrappers too.  ``specfun.scaled`` is left alone:
it builds one ScaledValue per arithmetic step, and a span around it would
time the tracer rather than the layer.

A span is (function, start, end, parent span, task id), timed on the
process CPU clock like the end-to-end metrics; spans stay in memory until
``write`` dumps them.  ``layer_metrics`` derives self times
(span minus its direct child spans) and the per-layer counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("specfun", "mie", "bie", "media", "analysis", "cli")
UNTRACED = {("specfun", "scaled")}

MIE_SOLVERS = ("solve", "coeffs_sound_hard", "coeffs_sound_soft", "coeffs_layered")
MIE_NEAR = ("field_on_circle", "field_at", "scattered_cauchy_data")
BIE_FAR = ("far_field_from_density", "far_field_from_cauchy_data")
ANALYSIS_IO = ("write_sweep_csv", "write_sweep_json")


def self_times(starts, ends, parents) -> list[int]:
    """Duration of each span minus the durations of its direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []   # function id -> (layer, name)
        self.fid: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.task: list[int] = []
        self.info: dict[int, tuple] = {}
        self.task_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------
    def install(self, package) -> None:
        modules = {name: getattr(package, name) for name in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith(package.__name__ + ".")):
                    continue
                origin = fn.__module__.rsplit(".", 1)[-1]
                if origin not in modules or (origin, fn.__name__) in UNTRACED:
                    continue
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(origin, fn)
                self._patched.append((mod, name, fn))
                setattr(mod, name, wrapped[fn])

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        fid = len(self.names)
        self.names.append((layer, fn.__name__))
        extract = _EXTRACTORS.get((layer, fn.__name__))
        sig = inspect.signature(fn) if extract else None
        clock = time.process_time_ns
        stack, fids, starts, ends = self._stack, self.fid, self.start, self.end
        parents, tasks, info = self.parent, self.task, self.info

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            tasks.append(self.task_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if extract is not None:
                info[idx] = extract(sig, args, kwargs, result)
            return result

        return wrapper

    # -- output ------------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, f in enumerate(self.fid):
                layer, name = self.names[f]
                fh.write(json.dumps([f"{layer}.{name}", self.start[i], self.end[i],
                                     self.parent[i], self.task[i]]) + "\n")


# ---------------------------------------------------------------------------
# What each span needs to remember about its call, for the counters
# ---------------------------------------------------------------------------
def _terms(sig, args, kwargs, result):
    """Length of the returned sequence: orders 0..n of one function."""
    if isinstance(result, list):
        return (len(result),)
    shape = getattr(result, "shape", ())
    return (shape[0] if shape else 1,)   # legendre_p_table: one row per order


def _solver(sig, args, kwargs, result):
    explicit = sig.bind(*args, **kwargs).arguments.get("n_max")
    return (result.n_max, explicit, result.k, result.rho,
            len(result.degenerate_modes),
            sum(1 for b in (result.branch_flags or ()) if b == "zero-core"),
            float(result.truncation_tail))


_EXTRACTORS = {
    **{("specfun", name): _terms for name in (
        "bessel_j_all", "bessel_h1_all", "spherical_j_all", "spherical_h1_all",
        "derivative_all", "bessel_j", "bessel_h1", "bessel_y", "bessel_deriv",
        "spherical_bessel", "spherical_bessel_deriv", "legendre_p", "legendre_p_table")},
    **{("mie", name): _solver for name in MIE_SOLVERS},
    ("mie", "far_field"): lambda sig, a, kw, r: (
        (sig.bind(*a, **kw).arguments["solution"].n_max + 1) * r.angles.size,),
    ("bie", "assemble_and_solve"): lambda sig, a, kw, r: (
        r.curve.n_points, r.condition_estimate, r.residual),
    ("media", "sample_cloak_grid"): lambda sig, a, kw, r: (len(r),),
    ("analysis", "sweep"): lambda sig, a, kw, r: (r.rho_values.size,),
    ("cli", "main"): lambda sig, a, kw, r: (r,),
}


def modes_computed(n_max: int, explicit, k: float, rho: float, default_n_max) -> int:
    """Modes evaluated over the adaptive passes n0, n0 + 8, ..., n_max."""
    if explicit is not None:
        return n_max + 1
    start = default_n_max(k, rho)
    return sum(m + 1 for m in range(start, n_max + 1, 8))


def layer_metrics(tracer: Tracer, task_ns: list[int], default_n_max,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer counters and self times of one traced pass."""
    names = tracer.names
    layer_of = [names[f][0] for f in tracer.fid]
    fname = [names[f][1] for f in tracer.fid]
    own = self_times(tracer.start, tracer.end, tracer.parent)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    par = tracer.parent
    info = tracer.info

    def entry(i, layer):   # first span of a layer on its call path
        return par[i] < 0 or layer_of[par[i]] != layer

    def sel(layer, funcs=None):
        return [i for i in range(len(own)) if layer_of[i] == layer
                and (funcs is None or fname[i] in funcs)]

    def secs(ns):
        return ns * 1e-9

    m: dict[str, float] = {}

    spec = [i for i in sel("specfun") if entry(i, "specfun")]
    terms = sum(info[i][0] for i in spec)
    busy = sum(dur[i] for i in spec)
    m["specfun.calls"] = len(spec)
    m["specfun.terms"] = terms
    m["specfun.busy_s"] = secs(busy)
    m["specfun.ns_per_term"] = busy / terms if terms else 0.0

    solver_spans = sel("mie", MIE_SOLVERS)
    solves = [i for i in solver_spans
              if par[i] < 0 or fname[par[i]] not in MIE_SOLVERS]
    useful = computed = 0
    degenerate = zero_core = 0
    tail_max = 0.0
    for i in solves:
        n_max, explicit, k, rho, deg, zc, tail = info[i]
        useful += n_max + 1
        computed += modes_computed(n_max, explicit, k, rho, default_n_max)
        degenerate += deg
        zero_core += zc
        tail_max = max(tail_max, tail)
    far = sel("mie", ("far_field",))
    m["mie.solves"] = len(solves)
    m["mie.modes_useful"] = useful
    m["mie.modes_computed"] = computed
    m["mie.mode_yield"] = useful / computed if computed else 0.0
    m["mie.solve_self_s"] = secs(sum(own[i] for i in solver_spans))
    m["mie.farfield_self_s"] = secs(sum(own[i] for i in far))
    m["mie.farfield_points"] = sum(info[i][0] for i in far)
    m["mie.nearfield_self_s"] = secs(sum(own[i] for i in sel("mie", MIE_NEAR)))
    m["mie.degenerate_modes"] = degenerate
    m["mie.zero_core_modes"] = zero_core
    m["mie.tail_max"] = tail_max

    solves = sel("bie", ("assemble_and_solve",))
    nodes = [info[i][0] for i in solves]
    busy = sum(dur[i] for i in solves)
    node2 = sum(n * n for n in nodes)
    m["bie.solves"] = len(solves)
    m["bie.nodes"] = sum(nodes)
    m["bie.solve_busy_s"] = secs(busy)
    m["bie.ns_per_node2"] = busy / node2 if node2 else 0.0
    m["bie.kernel_evals_computed"] = 4 * node2
    m["bie.lu_flops_computed"] = sum(8 * n ** 3 / 3 for n in nodes)
    m["bie.farfield_busy_s"] = secs(sum(dur[i] for i in sel("bie", BIE_FAR)))
    m["bie.cond_max"] = max((info[i][1] for i in solves), default=0.0)
    m["bie.residual_max"] = max((info[i][2] for i in solves), default=0.0)

    grids = sel("media", ("sample_cloak_grid",))
    cells = sum(info[i][0] for i in grids)
    busy = sum(dur[i] for i in grids)
    m["media.grids"] = len(grids)
    m["media.cells"] = cells
    m["media.grid_busy_s"] = secs(busy)
    m["media.us_per_cell"] = busy * 1e-3 / cells if cells else 0.0
    m["media.point_calls"] = len(sel("media", ("cloak_medium_at",)))
    m["media.conversions"] = len(sel("media", ("virtual_core_params",)))

    sweeps = sel("analysis", ("sweep",))
    m["analysis.sweeps"] = len(sweeps)
    m["analysis.rho_points"] = sum(info[i][0] for i in sweeps)
    m["analysis.sweep_self_s"] = secs(sum(own[i] for i in sweeps))
    m["analysis.fit_busy_s"] = secs(sum(dur[i] for i in sel("analysis", ("fit_decay",))))
    m["analysis.io_busy_s"] = secs(sum(dur[i] for i in sel("analysis", ANALYSIS_IO)))

    mains = sel("cli", ("main",))
    m["cli.invocations"] = len(mains)
    m["cli.self_s"] = secs(sum(own[i] for i in sel("cli")))
    m["cli.bytes_written"] = bytes_written
    m["cli.nonzero_exits"] = sum(1 for i in mains if info[i][0] != 0)

    roots = sum(dur[i] for i in range(len(own)) if par[i] < 0)
    total = sum(task_ns)
    m["trace.coverage"] = roots / total if total else 0.0
    return m
