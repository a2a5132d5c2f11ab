"""Experiment orchestration: rho sweeps and decay fits.

The quantitative cloaking claims are all statements about how the
discrete maximum of |A| over an observation grid decays as the
regularization parameter rho shrinks: algebraically like rho^N in R^N
for the sound-hard linings, and for the sound-soft ones like 1/|ln rho|
in 2D and like rho^(N-2) in N >= 3 (N from 2 to media.DIM_MAX, as in mie).
This module runs the sweeps and fits both decay models.  A sweep records
what it measured; its fit is computed from that record on demand
(``SweepResult.fit``), so a caller that only compares max|A| runs no fit.
``sweep`` and ``special_angle_suppression`` solve their rho grids through
one path.  It does no file I/O: the output formats and their writers live
in ``cli``.

``fit_decay`` fits every point it is given; a sweep's ``fit`` gives it
the smallest max(3, ceil(2n/3)) of its n rho, since the large-rho end of
a sweep is outside the asymptotic regime.  A model is one entry of
``_MODELS``, and every fit one least-squares line of its y against x:

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
from .media import _INTEGER, DIM_MAX, _check_dim, _check_positive, _number
from .mie import ModalSolution, SchemeSpec, WaveParams

DEFAULT_ANGLE_COUNT = 100
NEAR_FIELD_SAMPLES = 360  # angles per near_field_deviation circle


def observation_angles(dim: int, count: int) -> np.ndarray:
    """Equidistant observation grid: [0, 2pi) in 2D, [0, pi] in N >= 3."""
    if not (_number(count, _INTEGER) and count >= 2):
        raise DomainError(f"need an integer count of at least two angles, got {count!r}")
    if _check_dim(dim, DIM_MAX) == 2:
        return 2.0 * math.pi * np.arange(count) / count
    return np.linspace(0.0, math.pi, count)


def _inverse_abs_log(rho: np.ndarray) -> np.ndarray:
    if np.any(rho == 1.0):  # 1/|ln rho| is infinite at rho = 1
        raise DomainError("an inverse-log fit needs every rho != 1")
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
    """max|A| per rho (rho decreasing) and the fit model the sweep chose."""

    rho_values: np.ndarray
    max_amplitude: np.ndarray
    model: str

    @property
    def fit(self) -> FitResult | None:
        """fit_decay under ``model`` of the smallest max(3, ceil(2n/3)) of
        the n rho, computed on each access; None below three rho."""
        n = len(self.rho_values)
        if n < 3:
            return None
        keep = max(3, math.ceil(2 * n / 3))
        return fit_decay(self.rho_values[n - keep:], self.max_amplitude[n - keep:], self.model)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------
def _grid_amplitudes(scheme: SchemeSpec, dim: int, wave: WaveParams, rho_values, angles,
                     contents: tuple[float, complex]) -> tuple[np.ndarray, np.ndarray]:
    """The rho grid, the distinct rho values sorted decreasing, and |A| at
    ``angles``, one row per rho.

    One mie.solve_many call covers the grid; where it fails, the grid is
    solved one rho at a time to name the largest failing rho."""
    rho = np.asarray(sorted({_check_positive("rho", r) for r in rho_values}, reverse=True))
    if rho.size == 0:
        raise InsufficientDataError("empty rho list")
    try:
        solutions = mie.solve_many(scheme, dim, wave, rho, contents)
    except NearCloakError:
        for r in rho:
            try:
                mie.solve(scheme, dim, wave, r, contents)
            except NearCloakError as exc:
                raise type(exc)(f"solver failed at rho={r:g}: {exc}") from exc
        raise
    return rho, np.abs(mie._far_field_rows(solutions, angles))


def sweep(scheme: SchemeSpec, dim: int, wave: WaveParams,
          rho_values, angle_count: int = DEFAULT_ANGLE_COUNT,
          contents: tuple[float, complex] = (1.0, 1.0),
          model: str = "auto") -> SweepResult:
    """max|A| per rho over the observation grid and the model of its fit.

    ``contents`` is the physical-space (sigma', q') of the cloaked region;
    one mie.solve_many call and one far-field product cover all rho.
    ``model`` is one of FIT_MODELS or "auto", which picks power-law in
    N >= 3, where every lining decays algebraically, and in 2D the
    lining's own (mie._LININGS).  The fit runs only when the result's
    ``fit`` is read.
    """
    dim = _check_dim(dim, DIM_MAX)
    if model == "auto":
        model = "power-law" if dim >= 3 else mie._LININGS[scheme.kind][2]
    if model not in _MODELS:
        raise DomainError(f"unknown fit model {model!r}")
    rho, amplitude = _grid_amplitudes(scheme, dim, wave, rho_values,
                                      observation_angles(dim, angle_count), contents)
    return SweepResult(rho_values=rho, max_amplitude=amplitude.max(axis=1), model=model)


def fit_decay(rho_values, max_amplitude, model: str) -> FitResult:
    """Fit the decay of max|A| over all of its (at least 3) points, from
    1-d arrays of equal length: rho and max|A| finite and positive, rho
    strictly decreasing, and for inverse-log no rho equal to 1.

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
    if rho.size < 3:
        raise InsufficientDataError(f"need >= 3 sweep points, have {rho.size}")

    x_of, y_of, y_inverse = _MODELS[model]
    x, y = x_of(rho), y_of(amp)
    slope, intercept = np.polyfit(x, y, 1)
    pred = y_inverse(slope * x + intercept)
    residual = float(np.sqrt(np.mean(((pred - amp) / amp) ** 2)))
    return FitResult(slope=float(slope), residual=residual, model=model, n_used=rho.size)


# ---------------------------------------------------------------------------
# Special-angle suppression and near-field deviation
# ---------------------------------------------------------------------------
def special_angle_suppression(dim: int, wave: WaveParams, rho_values) -> np.ndarray:
    """|A(theta*)| / max|A| per rho for the sound-hard scheme, max|A| over
    the DEFAULT_ANGLE_COUNT observation angles.  theta* = arccos((N - 1)/N)
    is the zero of mie.leading_asymptotic (pi/3 in 2D, arccos(2/3) in 3D);
    the ratio decays ~rho^2 beyond the global rate because only the
    O((k rho)^{N+2}) remainder survives there."""
    dim = _check_dim(dim, DIM_MAX)
    angles = np.append(observation_angles(dim, DEFAULT_ANGLE_COUNT), math.acos((dim - 1) / dim))
    _, amplitude = _grid_amplitudes(SchemeSpec.sound_hard(), dim, wave, rho_values, angles,
                                    (1.0, 1.0))
    return amplitude[:, -1] / amplitude[:, :-1].max(axis=1)


def near_field_deviation(fsh: ModalSolution, sh: ModalSolution, radius: float) -> float:
    """sup over NEAR_FIELD_SAMPLES equidistant angles of |u^s_fsh - u^s_sh|
    at the given radius.  The scattered field is linear in the exterior
    coefficients, so the difference is one exterior field, of d_n^fsh -
    d_n^sh with the shorter sequence zero-padded: one Hankel sequence and
    one angular sum.  A radius below rho raises the DomainError of
    field_on_circle that names the exterior region."""
    if fsh.dim != sh.dim or fsh.k != sh.k or fsh.rho != sh.rho:
        raise ShapeError("solutions must share dim, k and rho")
    gap = np.zeros(max(fsh.d_n.size, sh.d_n.size), dtype=complex)
    gap[:fsh.d_n.size] = fsh.d_n
    gap[:sh.d_n.size] -= sh.d_n
    u = mie.field_on_circle(ModalSolution(fsh.dim, fsh.rho, fsh.k, gap), radius,
                            observation_angles(fsh.dim, NEAR_FIELD_SAMPLES),
                            region="exterior", scattered_only=True)
    return float(np.max(np.abs(u)))
