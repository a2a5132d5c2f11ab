"""Experiment orchestration: rho sweeps, decay fits, scheme comparisons.

The quantitative cloaking claims are all statements about how the
discrete maximum of |A| over an observation grid decays as the
regularization parameter rho shrinks: algebraically like rho^2 / rho^3
for the sound-hard linings, and for the sound-soft ones like 1/|ln rho|
in 2D and like rho in 3D.
This module runs the sweeps, fits both decay models, and compares
schemes pointwise in rho.

Fits use the smallest ceil(2/3 n) rho values by default; the large-rho
end of a sweep is outside the asymptotic regime.  The two models are

  power-law:    least squares of log(max|A|) against log(rho);
  inverse-log:  least squares of max|A| against 1/|ln rho| (linear).

For cross-model comparison, ``residual`` is the RMS relative prediction
error of max|A| itself, which is dimensionless and comparable between
models.  All results are deterministic functions of their inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import mie
from .errors import DomainError, InsufficientDataError, NearCloakError, ShapeError
from .mie import ModalSolution, SchemeSpec, WaveParams

DEFAULT_ANGLE_COUNT = 100
DEFAULT_FIT_FRACTION = 2.0 / 3.0
NEAR_FIELD_SAMPLES = 360  # angles per near_field_deviation circle
FIT_MODELS = ("power-law", "inverse-log")

CSV_SCHEMA_VERSION = 1
_CSV_BLOCK_ROWS = 1024  # rows joined per write: peak memory stays flat

# Leading-order zeros of the sound-hard pattern: theta* with
# cos(theta*)/2 = 1/4 in 2D and = 1/3 in 3D.
SPECIAL_ANGLE_2D = math.pi / 3.0
SPECIAL_ANGLE_3D = math.acos(2.0 / 3.0)


def observation_angles(dim: int, count: int) -> np.ndarray:
    """Equidistant observation grid: [0, 2pi) in 2D, [0, pi] in 3D."""
    if not isinstance(count, (int, np.integer)) or count < 2:
        raise DomainError(f"need an integer count of at least two observation angles, "
                          f"got {count!r}")
    if dim == 2:
        return 2.0 * math.pi * np.arange(count) / count
    if dim == 3:
        return np.linspace(0.0, math.pi, count)
    raise DomainError(f"dim must be 2 or 3, got {dim}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a decay fit; ``slope`` is the exponent for power-law."""

    slope: float
    residual: float
    intercept: float
    correlation: float
    model: str
    n_used: int


@dataclass(frozen=True)
class SweepResult:
    """max|A| over the observation grid per rho, plus the fitted decay."""

    scheme: SchemeSpec
    dim: int
    k: float
    rho_values: np.ndarray
    max_amplitude: np.ndarray
    fitted_exponent: float
    fit_residual: float
    model: str
    angle_count: int = DEFAULT_ANGLE_COUNT

    def __post_init__(self):
        rho = np.asarray(self.rho_values, dtype=float)
        amp = np.asarray(self.max_amplitude, dtype=float)
        if rho.ndim != 1 or rho.size != amp.size:
            raise ShapeError("rho_values and max_amplitude must match in length")
        if np.any(np.diff(rho) >= 0):
            raise DomainError("rho_values must be strictly decreasing")
        if np.any(amp <= 0):
            raise DomainError("max_amplitude entries must be positive")
        object.__setattr__(self, "rho_values", rho)
        object.__setattr__(self, "max_amplitude", amp)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------
def _rho_grid(rho_values) -> np.ndarray:
    """The distinct rho values, sorted decreasing; raises on an empty list."""
    rho = np.asarray(sorted(set(float(r) for r in rho_values), reverse=True))
    if rho.size == 0:
        raise InsufficientDataError("empty rho list")
    return rho


def sweep(scheme: SchemeSpec, dim: int, wave: WaveParams,
          rho_values, angle_count: int = DEFAULT_ANGLE_COUNT,
          contents: tuple[float, complex] = (1.0, 1.0),
          model: str | None = None) -> SweepResult:
    """max|A| per rho over the observation grid, with the default fit.

    ``contents`` is the physical-space (sigma', q') of the cloaked region;
    one mie.solve_many call and one far-field product cover all rho.  The
    fit model defaults to power-law in 3D, where every lining decays
    algebraically, and in 2D to power-law for the sound-hard family and
    inverse-log for the sound-soft family.
    """
    if model is None:
        model = "power-law" if dim == 3 or scheme.kind in ("sh", "fsh") else "inverse-log"
    elif model not in FIT_MODELS:
        raise DomainError(f"unknown fit model {model!r}")
    rho = _rho_grid(rho_values)
    angles = observation_angles(dim, angle_count)
    try:
        solutions = mie.solve_many(scheme, dim, wave, rho, contents)
    except NearCloakError:
        for r in rho:  # solve one rho at a time to name the largest failing one
            try:
                mie.solve(scheme, dim, wave, r, contents)
            except NearCloakError as exc:
                raise type(exc)(f"solver failed at rho={r:g}: {exc}") from exc
        raise
    maxima = np.abs(mie._far_field_rows(solutions, angles)).max(axis=1)
    result = SweepResult(scheme=scheme, dim=dim, k=wave.k, rho_values=rho,
                         max_amplitude=maxima, fitted_exponent=math.nan,
                         fit_residual=math.nan, model=model,
                         angle_count=angle_count)
    if rho.size >= 3:
        fit = fit_decay(result, model)
        result = replace(result, fitted_exponent=fit.slope,
                         fit_residual=fit.residual)
    return result


def fit_decay(result: SweepResult, model: str,
              keep_fraction: float = DEFAULT_FIT_FRACTION) -> FitResult:
    """Fit the decay of max|A| over the smallest ceil(keep_fraction*n) rhos
    (at least 3), with 0 < keep_fraction <= 1.

    power-law: log(max|A|) ~ slope*log(rho) + intercept.
    inverse-log: max|A| ~ slope/|ln rho| + intercept.
    ``residual`` is the RMS relative error of the model's prediction of
    max|A| on the fitted points, comparable across models.
    """
    if not 0.0 < keep_fraction <= 1.0:  # "not" so that NaN fails too
        raise DomainError(f"keep_fraction must lie in (0, 1], got {keep_fraction!r}")
    n = result.rho_values.size
    if n < 3:
        raise InsufficientDataError(f"need >= 3 sweep points, have {n}")
    keep = max(3, math.ceil(keep_fraction * n))
    rho = result.rho_values[n - keep:]   # values are sorted decreasing
    amp = result.max_amplitude[n - keep:]

    if model == "power-law":
        x = np.log(rho)
        slope, intercept = np.polyfit(x, np.log(amp), 1)
        pred = np.exp(slope * x + intercept)
        corr = float(np.corrcoef(x, np.log(amp))[0, 1])
    elif model == "inverse-log":
        x = 1.0 / np.abs(np.log(rho))
        slope, intercept = np.polyfit(x, amp, 1)
        pred = slope * x + intercept
        corr = float(np.corrcoef(x, amp)[0, 1])
    else:
        raise DomainError(f"unknown fit model {model!r}")
    residual = float(np.sqrt(np.mean(((pred - amp) / amp) ** 2)))
    return FitResult(slope=float(slope), residual=residual,
                     intercept=float(intercept), correlation=corr,
                     model=model, n_used=keep)


def compare_schemes(a: SweepResult, b: SweepResult) -> np.ndarray:
    """Per-rho |max|A|_a - max|A|_b|; the grids must match exactly."""
    if a.rho_values.shape != b.rho_values.shape or np.any(a.rho_values != b.rho_values):
        raise ShapeError("sweeps were run on different rho grids")
    return np.abs(a.max_amplitude - b.max_amplitude)


# ---------------------------------------------------------------------------
# Special-angle suppression and near-field deviation
# ---------------------------------------------------------------------------
def special_angle_suppression(dim: int, wave: WaveParams, rho_values) -> np.ndarray:
    """|A(theta*)| / max|A| per rho for the sound-hard scheme, max|A| over
    the DEFAULT_ANGLE_COUNT observation angles.

    theta* is the zero of the leading-order pattern (pi/3 in 2D,
    arccos(2/3) in 3D); the ratio decays ~rho^2 beyond the global rate
    because only the O((k rho)^{dim+2}) remainder survives there.
    """
    theta_star = SPECIAL_ANGLE_2D if dim == 2 else SPECIAL_ANGLE_3D
    angles = observation_angles(dim, DEFAULT_ANGLE_COUNT)
    rho = _rho_grid(rho_values)
    solutions = mie.solve_many(SchemeSpec.sound_hard(), dim, wave, rho)
    amplitude = np.abs(mie._far_field_rows(solutions, np.append(angles, theta_star)))
    return amplitude[:, -1] / amplitude[:, :-1].max(axis=1)


def near_field_deviation(fsh: ModalSolution, sh: ModalSolution, radius: float) -> float:
    """sup over NEAR_FIELD_SAMPLES equidistant angles of |u^s_fsh - u^s_sh|
    at the given radius."""
    if fsh.dim != sh.dim or fsh.k != sh.k or fsh.rho != sh.rho:
        raise ShapeError("solutions must share dim, k and rho")
    if radius < fsh.rho:
        raise DomainError(
            f"radius {radius:g} is inside the scatterer (rho = {fsh.rho:g})")
    hi = 2.0 * math.pi if fsh.dim == 2 else math.pi
    thetas = np.linspace(0.0, hi, NEAR_FIELD_SAMPLES, endpoint=fsh.dim == 3)
    ua = mie.field_on_circle(fsh, radius, thetas, region="exterior",
                             scattered_only=True)
    ub = mie.field_on_circle(sh, radius, thetas, region="exterior",
                             scattered_only=True)
    return float(np.max(np.abs(ua - ub)))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------
def write_csv(path, schema: str, columns, rows, footer=()) -> None:
    """Write a ``# schema=<schema>-v1`` CSV: header, rows of numbers written
    as ``repr(float(v))`` (exact round trip), then ``# key,text`` footer lines.

    The float64 table is built before the file is opened, so a bad row
    leaves the file untouched.  Each distinct bit pattern (-0.0 keeps its
    sign) is formatted once: grids repeat most of their values."""
    table = np.ascontiguousarray(rows if isinstance(rows, np.ndarray) else list(rows),
                                 dtype=float)
    if table.size and table.shape[1:] != (len(columns),):
        raise ShapeError(f"{len(columns)} columns, but rows of shape {table.shape}")
    bits, inverse = np.unique(table.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
    inverse = inverse.reshape(table.shape)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema={schema}-v{CSV_SCHEMA_VERSION}\n")
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = text[inverse[start:start + _CSV_BLOCK_ROWS]].tolist()
            fh.writelines(",".join(row) + "\n" for row in block)
        for key, value in footer:
            fh.write(f"# {key},{value}\n")


def write_sweep_csv(result: SweepResult, path) -> None:
    """CSV with one (rho, max_abs_A) row per sweep point, fit in the footer."""
    write_csv(path, "sweep", ["rho", "max_abs_A"],
              zip(result.rho_values, result.max_amplitude),
              footer=[("model", result.model),
                      ("fitted_exponent", repr(float(result.fitted_exponent))),
                      ("fit_residual", repr(float(result.fit_residual)))])


def sweep_summary(result: SweepResult) -> dict:
    return {
        "schema": f"sweep-summary-v{CSV_SCHEMA_VERSION}",
        "scheme": result.scheme.kind,
        "dim": result.dim,
        "k": result.k,
        "angle_count": result.angle_count,
        "model": result.model,
        # JSON has no NaN: a sweep too short to fit writes null.
        "exponent": _finite_or_none(result.fitted_exponent),
        "residual": _finite_or_none(result.fit_residual),
        "rho_values": [float(r) for r in result.rho_values],
        "max_amplitude": [float(a) for a in result.max_amplitude],
    }


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def write_json(path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline.

    A non-finite float raises ValueError before the file is opened, as
    strict JSON cannot hold it."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_sweep_json(result: SweepResult, path) -> None:
    write_json(path, sweep_summary(result))

