"""Experiment orchestration: rho sweeps, decay fits, scheme comparisons.

The quantitative cloaking claims are all statements about how the
discrete maximum of |A| over an observation grid decays as the
regularization parameter rho shrinks: algebraically like rho^2 / rho^3
for the sound-hard linings, and for the sound-soft ones like 1/|ln rho|
in 2D and like rho in 3D.
This module runs the sweeps, fits both decay models, and compares
schemes pointwise in rho.  It does no file I/O: the output formats and
their writers live in ``cli``.

Fits use the smallest ceil(2/3 n) rho values by default; the large-rho
end of a sweep is outside the asymptotic regime.  A model is one entry
of ``_MODELS``, and every fit one least-squares line of its y against x:

  power-law:    log(max|A|) against log(rho);
  inverse-log:  max|A| against 1/|ln rho|.

For cross-model comparison, ``residual`` is the RMS relative prediction
error of max|A| itself, which is dimensionless and comparable between
models.  All results are deterministic functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mie
from .errors import DomainError, InsufficientDataError, NearCloakError, ShapeError
from .mie import ModalSolution, SchemeSpec, WaveParams

DEFAULT_ANGLE_COUNT = 100
DEFAULT_FIT_FRACTION = 2.0 / 3.0
NEAR_FIELD_SAMPLES = 360  # angles per near_field_deviation circle

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


def _inverse_abs_log(rho: np.ndarray) -> np.ndarray:
    if np.any(rho == 1.0):  # 1/|ln rho| is infinite at rho = 1
        raise DomainError("an inverse-log fit needs rho != 1 in its window")
    return 1.0 / np.abs(np.log(rho))


# Fit model -> (x of rho, y of max|A|, y's inverse); the fit is y ~ slope x + c.
_MODELS = {
    "power-law": (np.log, np.log, np.exp),
    "inverse-log": (_inverse_abs_log, lambda y: y, lambda y: y),
}
FIT_MODELS = tuple(_MODELS)


@dataclass(frozen=True)
class FitResult:
    """A decay fit (fit_decay); ``slope`` is the exponent for power-law."""

    slope: float
    residual: float
    model: str
    n_used: int


@dataclass(frozen=True)
class SweepResult:
    """max|A| per rho and its fit under ``model`` (NaN below three rho)."""

    rho_values: np.ndarray
    max_amplitude: np.ndarray
    model: str
    fitted_exponent: float
    fit_residual: float


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
          model: str = "auto") -> SweepResult:
    """max|A| per rho over the observation grid, with its decay fit.

    ``contents`` is the physical-space (sigma', q') of the cloaked region;
    one mie.solve_many call and one far-field product cover all rho.
    ``model`` is one of FIT_MODELS or "auto", which picks power-law in 3D,
    where every lining decays algebraically, and in 2D power-law for the
    sound-hard family and inverse-log for the sound-soft family.
    """
    if model == "auto":
        model = "power-law" if dim == 3 or scheme.kind in ("sh", "fsh") else "inverse-log"
    if model not in _MODELS:
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
    fit = fit_decay(rho, maxima, model) if rho.size >= 3 else None
    return SweepResult(rho_values=rho, max_amplitude=maxima, model=model,
                       fitted_exponent=fit.slope if fit else math.nan,
                       fit_residual=fit.residual if fit else math.nan)


def fit_decay(rho_values, max_amplitude, model: str,
              keep_fraction: float = DEFAULT_FIT_FRACTION) -> FitResult:
    """Fit the decay of max|A| over the smallest ceil(keep_fraction*n) rhos
    (at least 3), with 0 < keep_fraction <= 1, from 1-d arrays of equal
    length: rho and max|A| finite and positive, rho strictly decreasing,
    and for inverse-log no fitted rho equal to 1.

    The fit is the least-squares line y(max|A|) ~ slope x(rho) + c of the
    model's _MODELS entry.  ``residual`` is the RMS relative error of its
    prediction of max|A| on the fitted points, comparable across models.
    """
    if model not in _MODELS:
        raise DomainError(f"unknown fit model {model!r}")
    rho = np.asarray(rho_values, dtype=float)
    amp = np.asarray(max_amplitude, dtype=float)
    if rho.ndim != 1 or rho.shape != amp.shape:
        raise ShapeError("rho_values and max_amplitude must be 1-d and match in length")
    for name, x in (("rho_values", rho), ("max_amplitude", amp)):
        if not np.all((x > 0) & (x < math.inf)):  # "not" so that NaN fails too
            raise DomainError(f"{name} entries must be finite and positive")
    if np.any(np.diff(rho) >= 0):
        raise DomainError("rho_values must be strictly decreasing")
    if not 0.0 < keep_fraction <= 1.0:  # "not" so that NaN fails too
        raise DomainError(f"keep_fraction must lie in (0, 1], got {keep_fraction!r}")
    n = rho.size
    if n < 3:
        raise InsufficientDataError(f"need >= 3 sweep points, have {n}")
    keep = max(3, math.ceil(keep_fraction * n))
    rho, amp = rho[n - keep:], amp[n - keep:]   # rho is sorted decreasing

    x_of, y_of, y_inverse = _MODELS[model]
    x, y = x_of(rho), y_of(amp)
    slope, intercept = np.polyfit(x, y, 1)
    pred = y_inverse(slope * x + intercept)
    residual = float(np.sqrt(np.mean(((pred - amp) / amp) ** 2)))
    return FitResult(slope=float(slope), residual=residual, model=model, n_used=keep)


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
    thetas = observation_angles(fsh.dim, NEAR_FIELD_SAMPLES)
    ua = mie.field_on_circle(fsh, radius, thetas, region="exterior",
                             scattered_only=True)
    ub = mie.field_on_circle(sh, radius, thetas, region="exterior",
                             scattered_only=True)
    return float(np.max(np.abs(ua - ub)))
