"""Transformation-acoustics algebra.

Material parameters are the pair (sigma, q): sigma is the inverse mass
density (a real symmetric positive definite tensor, a positive scalar
for isotropic media) and q the complex bulk modulus with Im q >= 0
(passive material), both in dimensionless relative units.  Under a
bi-Lipschitz, orientation-preserving change of variables y = F(x) with
Jacobian matrix M = dy/dx and J = det M > 0, the push-forward rule is

    sigma_new = (1/J) M sigma M^T,      q_new = q / J,

which leaves the governing equation invariant.  The cloak construction
pushes the homogeneous medium (I, 1) forward under the radial map
|x| -> R1 + s (|x| - rho) that blows the ball of radius rho up to the
ball of radius R1 inside R2; ``cloak_tensor`` is that push-forward in
closed form.

Two coordinate descriptions are used throughout: the *physical* space
(cloak shell between R1 and R2, lossy layer between R1/2 and R1) and the
*virtual* space (small obstacle of radius rho, layer between rho/2 and
rho), related by the piecewise map that is the radial blow-up on the
shell and the dilation x -> x/rho on the small ball.
``virtual_core_params`` is the one conversion of cloaked contents from
physical to virtual space (the push-forward under the inverse dilation),
and ``check_passive`` the one check that a pair (sigma, q) is a passive
isotropic medium.  ``_number`` is the one rule for every number the package
takes.  The tests check these against the pointwise map, its Jacobian and
the anisotropic push-forward in tests/oracles.py.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .specfun import OFFSETS

_GEOM_RTOL = 1e-12
_INTEGER = (int, np.integer)
_REAL = (float, *_INTEGER, np.floating)
_COMPLEX = (complex, *_REAL, np.complexfloating)
DIM_MAX = 2 + round(2 * OFFSETS[-1])  # of a modal solve; the cloak tensor keeps 2 and 3


def _number(value, kinds=_REAL) -> bool:
    """Whether ``value`` is a number of ``kinds``, not a bool, whose parts,
    then modulus, are finite doubles: hypot returns inf where abs() of a
    complex raises, and an int that no double holds raises OverflowError."""
    try:
        return (isinstance(value, kinds) and type(value) is not bool and cmath.isfinite(value)
                and math.hypot(value.real, value.imag) < math.inf)
    except OverflowError:
        return False


def _check_positive(name: str, value, rule: str = "finite and positive") -> float:
    """``value`` as a float, or DomainError unless it is a real _number > 0."""
    if not (_number(value) and value > 0):
        raise DomainError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def _check_dim(dim, top: int = 3) -> int:
    """``dim`` as an int, or DomainError unless it is an integer from 2 to
    ``top``: 3, or DIM_MAX for a modal solve."""
    if not (_number(dim, _INTEGER) and 2 <= dim <= top):
        rule = "2 or 3" if top == 3 else f"an integer from 2 to {top}"
        raise DomainError(f"dim must be {rule}, got {dim!r}")
    return int(dim)


@dataclass(frozen=True)
class RadialMapSpec:
    """The radial blow-up y = F(x) = (R1 + s (|x| - rho)) x/|x|, slope
    s = (R2-R1)/(R2-rho): |x| = rho -> |y| = R1, the identity on |x| = R2.
    Its stretch |y|/|x| peaks at R1/rho; a rho where (R1/rho)^2 overflows
    (below about 1.5e-154 at R1 = 2) raises RangeError.
    """

    rho: float
    r1: float
    r2: float

    def __post_init__(self):
        for name in ("rho", "r1", "r2"):
            object.__setattr__(self, name, _check_positive(name, getattr(self, name)))
        # 3 R2^2 bounds the squared radius of every grid cell (sample_cloak_grid).
        if not (self.rho < self.r1 < self.r2 and 3.0 * self.r2 * self.r2 < math.inf):
            raise DomainError(f"need 0 < rho < R1 < R2 with 3 R2^2 finite, "
                              f"got rho={self.rho}, R1={self.r1}, R2={self.r2}")
        stretch = self.r1 / self.rho
        if not stretch * stretch < math.inf:
            raise RangeError(f"rho = {self.rho:g}: the stretch (R1/rho)^2 overflows")

    @property
    def slope(self) -> float:
        return (self.r2 - self.r1) / (self.r2 - self.rho)


def cloak_tensor(spec: RadialMapSpec, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cloaking-shell sigma (..., dim, dim) and real q (...) at y (..., dim),
    dim 2 or 3.

    Closed-form push-forward of (I, 1) under the blow-up: with f = |y| in
    [R1, R2], r = rho + max(f - R1, 0)/s, t = f/r, J = s t^(dim-1), sigma =
    (t^2/J) I + ((s^2 - t^2)/J) yhat yhat^T and q = 1/J.  |y| = R1 maps to
    r = rho exactly, so every entry stays finite as rho -> 0.  All dim^2
    entries come from the one evaluator that ``sample_cloak_grid`` asks
    for its upper triangle alone (``_cloak_entries``).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        raise DomainError("y must have a last axis of 2 or 3 coordinates, got a scalar")
    dim = _check_dim(y.shape[-1])
    f = np.linalg.norm(y, axis=-1)
    # "not <=" so that a NaN point fails too.
    outside = ~((spec.r1 * (1 - _GEOM_RTOL) <= f) & (f <= spec.r2 * (1 + _GEOM_RTOL)))
    if np.any(outside):
        raise DomainError(f"|y| = {f[outside][0]:.6g} outside [{spec.r1:.6g}, {spec.r2:.6g}]")
    entries, q = _cloak_entries(spec, [y[..., a] for a in range(dim)], f,
                                [(a, b) for a in range(dim) for b in range(dim)])
    return np.stack(entries, axis=-1).reshape(*y.shape, dim), q


def _cloak_entries(spec: RadialMapSpec, coords, f,
                   pairs) -> tuple[list[np.ndarray], np.ndarray]:
    """The entries sigma_ab (...) of cloak_tensor for the requested index
    pairs (a, b), and q (...), at the shell points with coordinates
    ``coords`` (dim arrays (...)) and norms f (...).  Each entry is
    t^2/J delta_ab + ((s^2 - t^2)/J) (yhat_a yhat_b), in that order, so
    an off-diagonal keeps the +0.0 that 0.0 + (-0.0) gives.  r is never
    below rho, not even at an f that the tolerance admits below R1."""
    s = spec.slope
    t = f / (spec.rho + np.maximum(f - spec.r1, 0.0) / s)
    jac = s * t ** (len(coords) - 1)
    tang = t * t / jac
    aniso = s * s / jac - tang
    yhat = [c / f for c in coords]
    return [tang * float(a == b) + aniso * (yhat[a] * yhat[b]) for a, b in pairs], 1.0 / jac


# ---------------------------------------------------------------------------
# Cloaked contents: physical -> virtual under the dilation x -> rho x
# ---------------------------------------------------------------------------
def check_passive(sigma: float, q: complex) -> tuple[float, complex]:
    """(sigma, q) as (float, complex) if it is a passive isotropic medium.

    sigma must be a real _number > 0, q a complex one (so |q| is finite)
    with Im q >= -1e-15 |q|.  A tolerated Im q <= 0, signed zero included,
    is returned as +0.0, so that sqrt(q/sigma) and sqrt(sigma q) both lie
    on the principal branch with Im >= 0.
    """
    sigma = _check_positive("sigma", sigma)
    if not _number(q, _COMPLEX) or (q := complex(q)).imag < -1e-15 * abs(q):
        raise DomainError(f"q must be finite with Im q >= 0, got {q!r}")
    return sigma, q if q.imag > 0 else complex(q.real, 0.0)


def virtual_core_params(sigma: float, q: complex, rho: float,
                        dim: int) -> tuple[float, complex]:
    """Virtual-space (sigma_a, q_a) of physical cloaked contents (sigma', q').

    The dilation x -> rho x (M = rho I, J = rho^dim) maps the contents of
    the half-unit ball to the ball of radius rho/2 as
    (sigma' rho^(2-dim), q' rho^-dim): (sigma', q'/rho^2) in 2D and
    (sigma'/rho, q'/rho^3) in 3D, dim 2 to DIM_MAX.  A power of rho or a
    product beyond the double range (rho below about 1e-103 in 3D, or
    q' = 1e300 at rho = 1e-6) raises RangeError.
    """
    sigma, q = check_passive(sigma, q)
    rho = _check_positive("rho", rho)
    dim = _check_dim(dim, DIM_MAX)
    try:
        sigma_v, q_v = sigma * rho ** (2 - dim), q * rho ** (-dim)
        if _number(sigma_v) and _number(q_v, _COMPLEX):
            return check_passive(sigma_v, q_v)  # a tiny sigma' rho^(2-dim) may round to 0
    except OverflowError:
        pass
    raise RangeError(f"virtual contents overflow at rho = {rho:g}")


# ---------------------------------------------------------------------------
# Grid sampling (CSV export backend)
# ---------------------------------------------------------------------------
def sample_cloak_grid(spec: RadialMapSpec, cells_per_side: int,
                      dim: int = 2) -> np.ndarray:
    """Sample the cloak tensor on a cell-centered grid over [-R2, R2]^dim.

    The n cell centers per axis are c_i = R2 (2i + 1 - n)/n, exactly
    antisymmetric (c_{n-1-i} = -c_i), so every axis reflection of a kept
    cell, and in 2D the swap of x and y, is a kept cell with the same
    |sigma_ab| and q bit for bit.  Rows hold the point, the row-major
    upper triangle of sigma, then Re q and Im q; points outside the closed
    shell R1 <= |y| <= R2 are skipped (an empty shell gives zero rows).
    One ``_cloak_entries`` call evaluates only those dim (dim+1)/2 entries
    on all kept centers.  t and J need no per-cell check, as s > 0 and
    r >= rho > 0 make them positive, but the written sigma is not positive
    definite by construction: near |y| = R1 its Cartesian entries are of
    size R1/(s rho) in 2D (1/s in 3D), and its radial eigenvalue is
    s rho/R1 (s rho^2/R1^2), which rounding loses as rho shrinks.  On 2,000
    random points of |y| = R1 = 2 (R2 = 3), cloak_tensor's smallest
    eigenvalue is off by 1.2e-6 relative at rho = 1e-4 (2.2e-6 in 3D) and
    by 1.4 % at 1e-6 (1.9 % in 3D), and at 1e-8 it is negative at about
    1,470 of them, in 2D and in 3D.  The media CSV writes these Cartesian
    entries.
    """
    dim = _check_dim(dim)
    if not (_number(cells_per_side, _INTEGER) and cells_per_side >= 1):
        raise DomainError(f"need an integer count of at least one cell per side, "
                          f"got {cells_per_side!r}")
    n = cells_per_side
    centers = spec.r2 * (2.0 * np.arange(n) + (1 - n)) / n
    # |y|^2 summed as np.linalg.norm sums it (x^2 + y^2, then + z^2), so the
    # kept cells and their norms are bit for bit those of the full point
    # cube; nonzero lists them in C order, the row order of
    # meshgrid(indexing="ij").
    squares = centers * centers
    radii = squares[:, None] + squares
    if dim == 3:
        radii = radii[..., None] + squares
    radii = np.sqrt(radii)
    kept = np.nonzero((radii >= spec.r1) & (radii <= spec.r2))
    coords = [centers[i] for i in kept]
    entries, q = _cloak_entries(spec, coords, radii[kept], list(zip(*np.triu_indices(dim))))
    return np.column_stack([*coords, *entries, q, np.zeros_like(q)])
