"""Transformation-acoustics algebra.

Material parameters are the pair (sigma, q): sigma is the inverse mass
density (a real symmetric positive definite tensor, a positive scalar
for isotropic media) and q the complex bulk modulus with Im q >= 0
(passive material), both in dimensionless relative units.  Under a
bi-Lipschitz, orientation-preserving change of variables y = F(x) with
Jacobian matrix M = dy/dx and J = det M > 0, the push-forward rule is

    sigma_new = (1/J) M sigma M^T,      q_new = q / J,

which leaves the governing equation invariant.  The cloak construction
pushes the homogeneous medium (I, 1) forward under the radial map that
blows the ball of radius rho up to the ball of radius R1 inside R2;
``cloak_tensor`` is that push-forward in closed form.

Two coordinate descriptions are used throughout: the *physical* space
(cloak shell between R1 and R2, lossy layer between R1/2 and R1) and the
*virtual* space (small obstacle of radius rho, layer between rho/2 and
rho), related by the piecewise map that is the radial blow-up on the
shell and the dilation x -> x/rho on the small ball.
``virtual_core_params`` is the one conversion of cloaked contents from
physical to virtual space (the push-forward under the inverse dilation),
and ``check_passive`` the one check that a pair (sigma, q) is a passive
isotropic medium.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError

_GEOM_RTOL = 1e-12


@dataclass(frozen=True)
class RadialMapSpec:
    """The radial blow-up |x| = rho -> |y| = R1 inside the ball R2.

    y = F(x) = (c + s |x|) x/|x| with s = (R2-R1)/(R2-rho) and
    c = (R1-rho) R2/(R2-rho); the map is the identity on |x| = R2.
    """

    rho: float
    r1: float
    r2: float

    def __post_init__(self):
        # 3 R2^2 bounds the squared radius of every grid cell (sample_cloak_grid).
        if not (0.0 < self.rho < self.r1 < self.r2 and 3.0 * self.r2 * self.r2 < math.inf):
            raise DomainError(f"need 0 < rho < R1 < R2 with 3 R2^2 finite, "
                              f"got rho={self.rho}, R1={self.r1}, R2={self.r2}")

    @property
    def slope(self) -> float:
        return (self.r2 - self.r1) / (self.r2 - self.rho)

    @property
    def offset(self) -> float:
        return (self.r1 - self.rho) * self.r2 / (self.r2 - self.rho)

    def inverse_radius(self, s):
        return (np.asarray(s, dtype=float) - self.offset) / self.slope


def cloak_tensor(spec: RadialMapSpec, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cloaking-shell sigma (..., dim, dim) and real q (...) at y (..., dim).

    Closed-form push-forward of (I, 1) under the blow-up: with f = |y| in
    [R1, R2], r = F^{-1}(f), t = f/r and J = s t^(dim-1), sigma =
    (t^2/J) I + ((s^2 - t^2)/J) yhat yhat^T and q = 1/J.
    """
    y = np.asarray(y, dtype=float)
    dim, s = y.shape[-1], spec.slope
    f = np.linalg.norm(y, axis=-1)
    # "not <=" so that a NaN point fails too.
    outside = ~((spec.r1 * (1 - _GEOM_RTOL) <= f) & (f <= spec.r2 * (1 + _GEOM_RTOL)))
    if np.any(outside):
        raise DomainError(f"|y| = {f[outside][0]:.6g} outside [{spec.r1:.6g}, {spec.r2:.6g}]")
    t = f / spec.inverse_radius(f)
    jac = s * t ** (dim - 1)
    tang, radial = (t * t / jac)[..., None, None], (s * s / jac)[..., None, None]
    yhat = y / f[..., None]
    proj = yhat[..., :, None] * yhat[..., None, :]
    return tang * np.eye(dim) + (radial - tang) * proj, 1.0 / jac


# ---------------------------------------------------------------------------
# Cloaked contents: physical -> virtual under the dilation x -> rho x
# ---------------------------------------------------------------------------
def check_passive(sigma: float, q: complex) -> tuple[float, complex]:
    """(sigma, q) as (float, complex) if it is a passive isotropic medium.

    sigma must be finite and positive, q finite with Im q >= -1e-15 |q|.
    """
    sigma, q = float(sigma), complex(q)
    if not (math.isfinite(sigma) and sigma > 0):
        raise DomainError(f"sigma must be finite and positive, got {sigma}")
    if not cmath.isfinite(q) or q.imag < -1e-15 * abs(q):
        raise DomainError(f"q must be finite with Im q >= 0, got {q}")
    return sigma, q


def virtual_core_params(sigma: float, q: complex, rho: float,
                        dim: int) -> tuple[float, complex]:
    """Virtual-space (sigma_a, q_a) of physical cloaked contents (sigma', q').

    The dilation x -> rho x (M = rho I, J = rho^dim) maps the contents of
    the half-unit ball to the ball of radius rho/2 as
    (sigma' rho^(2-dim), q' rho^-dim): (sigma', q'/rho^2) in 2D and
    (sigma'/rho, q'/rho^3) in 3D.  A power of rho or a product beyond the
    double range (rho below about 1e-103 in 3D, or q' = 1e300 at rho =
    1e-6) raises RangeError.
    """
    sigma, q = check_passive(sigma, q)
    if not (math.isfinite(rho) and rho > 0):
        raise DomainError(f"rho must be finite and positive, got {rho}")
    if dim not in (2, 3):
        raise DomainError(f"dim must be 2 or 3, got {dim}")
    try:
        sigma_v, q_v = sigma * rho ** (2 - dim), q * rho ** (-dim)
        if math.isfinite(sigma_v) and cmath.isfinite(q_v):
            return sigma_v, q_v
    except OverflowError:
        pass
    raise RangeError(f"virtual contents overflow at rho = {rho:g}")


# ---------------------------------------------------------------------------
# Grid sampling (CSV export backend)
# ---------------------------------------------------------------------------
def sample_cloak_grid(spec: RadialMapSpec, cells_per_side: int,
                      dim: int = 2) -> np.ndarray:
    """Sample the cloak tensor on a cell-centered grid over [-R2, R2]^dim.

    Cell centers never hit the inner interface |y| = R1 exactly, where
    the tangential entries are singular.  Rows hold the point, the
    row-major upper triangle of sigma, then Re q and Im q; points outside
    the shell are skipped (an empty shell gives zero rows).  One
    ``cloak_tensor`` call covers all kept centers; positivity needs no
    per-cell check, as s > 0 and r >= rho > 0 make t, J > 0.
    """
    if dim not in (2, 3):
        raise DomainError(f"dim must be 2 or 3, got {dim}")
    if not isinstance(cells_per_side, (int, np.integer)) or cells_per_side < 1:
        raise DomainError(f"need an integer count of at least one cell per side, "
                          f"got {cells_per_side!r}")
    edges = np.linspace(-spec.r2, spec.r2, cells_per_side + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    # |y|^2 summed as np.linalg.norm sums it (x^2 + y^2, then + z^2), so the
    # kept cells are bit for bit those of the full point cube; nonzero lists
    # them in C order, the row order of meshgrid(indexing="ij").
    squares = centers * centers
    radii = squares[:, None] + squares
    if dim == 3:
        radii = radii[..., None] + squares
    radii = np.sqrt(radii)
    pts = np.stack([centers[i] for i in np.nonzero((radii >= spec.r1) & (radii <= spec.r2))],
                   axis=-1)
    sigma, q = cloak_tensor(spec, pts)
    iu = np.triu_indices(dim)
    return np.column_stack([pts, sigma[:, iu[0], iu[1]], q, np.zeros_like(q)])
