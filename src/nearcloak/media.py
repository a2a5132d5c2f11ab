"""Transformation-acoustics algebra.

Material parameters are the pair (sigma, q): sigma is the inverse mass
density tensor (real symmetric positive definite) and q the complex bulk
modulus, both in dimensionless relative units.  Under a bi-Lipschitz,
orientation-preserving change of variables y = F(x) with Jacobian matrix
M = dy/dx and J = det M > 0, the push-forward rule is

    sigma_new = (1/J) M sigma M^T,      q_new = q / J,

which leaves the governing equation invariant.  The cloak construction
pushes the homogeneous medium (I, 1) forward under the radial map that
blows the ball of radius rho up to the ball of radius R1 inside R2.

Two coordinate descriptions are used throughout: the *physical* space
(cloak shell between R1 and R2, lossy layer between R1/2 and R1) and the
*virtual* space (small obstacle of radius rho, layer between rho/2 and
rho), related by the piecewise map that is the radial blow-up on the
shell and the dilation x -> x/rho on the small ball.  The helpers at the
bottom convert layer/core parameters between the two descriptions under
that dilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OrientationError

_GEOM_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MediumSpec:
    """An acoustic medium (sigma, q) with cached ellipticity bounds.

    sigma must be real symmetric with eigenvalues in (0, inf); q must
    have nonnegative imaginary part (passive material).
    """

    sigma: np.ndarray
    q: complex
    sigma_min: float = field(init=False)
    sigma_max: float = field(init=False)

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim != 2 or sig.shape[0] != sig.shape[1]:
            raise DomainError(f"sigma must be a square matrix, got {sig.shape}")
        if not np.allclose(sig, sig.T, rtol=1e-10, atol=1e-14 * max(1.0, abs(sig).max())):
            raise DomainError("sigma must be symmetric")
        sig = 0.5 * (sig + sig.T)
        eig = np.linalg.eigvalsh(sig)
        if eig[0] <= 0:
            raise DomainError(f"sigma must be positive definite (min eig {eig[0]:.3g})")
        q = complex(self.q)
        if q.imag < -1e-15 * abs(q):
            raise DomainError(f"Im q must be >= 0, got {q.imag:.3g}")
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "sigma_min", float(eig[0]))
        object.__setattr__(self, "sigma_max", float(eig[-1]))

    @classmethod
    def isotropic(cls, sigma: float, q: complex, dim: int) -> "MediumSpec":
        return cls(sigma * np.eye(dim), q)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    @property
    def is_isotropic(self) -> bool:
        return np.allclose(self.sigma, self.sigma[0, 0] * np.eye(self.dim),
                           rtol=1e-12, atol=1e-300)

    @property
    def sigma_scalar(self) -> float:
        """Scalar sigma for isotropic media; raises otherwise."""
        if not self.is_isotropic:
            raise DomainError("medium is anisotropic; no scalar sigma")
        return float(self.sigma[0, 0])


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
        if not (0.0 < self.rho < self.r1 < self.r2):
            raise DomainError(
                f"need 0 < rho < R1 < R2, got rho={self.rho}, R1={self.r1}, R2={self.r2}")

    @property
    def slope(self) -> float:
        return (self.r2 - self.r1) / (self.r2 - self.rho)

    @property
    def offset(self) -> float:
        return (self.r1 - self.rho) * self.r2 / (self.r2 - self.rho)

    def forward_radius(self, r):
        return self.offset + self.slope * np.asarray(r, dtype=float)

    def inverse_radius(self, s):
        return (np.asarray(s, dtype=float) - self.offset) / self.slope


@dataclass(frozen=True)
class JacobianData:
    """Jacobian matrix M = dy/dx and its determinant J = det M > 0."""

    matrix: np.ndarray
    det: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if not np.isfinite(self.det) or self.det <= 0:
            raise OrientationError(f"Jacobian determinant must be > 0, got {self.det}")

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "JacobianData":
        m = np.asarray(matrix, dtype=float)
        return cls(m, float(np.linalg.det(m)))


# ---------------------------------------------------------------------------
# The radial blow-up map
# ---------------------------------------------------------------------------
def radial_blowup(spec: RadialMapSpec, x: np.ndarray) -> np.ndarray:
    """Map a point of the annulus rho <= |x| <= R2 into R1 <= |y| <= R2."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r < spec.rho * (1 - _GEOM_RTOL) - 1e-300 or r > spec.r2 * (1 + _GEOM_RTOL):
        raise DomainError(f"|x| = {r:.6g} outside [{spec.rho:.6g}, {spec.r2:.6g}]")
    return float(spec.forward_radius(r)) * x / r


def radial_blowup_inverse(spec: RadialMapSpec, y: np.ndarray) -> np.ndarray:
    """Inverse map from the shell R1 <= |y| <= R2 back to the annulus."""
    y = np.asarray(y, dtype=float)
    s = float(np.linalg.norm(y))
    if s < spec.r1 * (1 - _GEOM_RTOL) or s > spec.r2 * (1 + _GEOM_RTOL):
        raise DomainError(f"|y| = {s:.6g} outside [{spec.r1:.6g}, {spec.r2:.6g}]")
    return float(spec.inverse_radius(s)) * y / s


def radial_jacobian(spec: RadialMapSpec, x: np.ndarray) -> JacobianData:
    """Analytic Jacobian of the radial blow-up at x.

    M = (f(r)/r)(I - xhat xhat^T) + f'(r) xhat xhat^T with f(r) = c + s r,
    so the radial stretch is s and each tangential stretch is f(r)/r.
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r <= 0:
        raise DomainError("Jacobian undefined at the origin")
    dim = x.size
    xhat = x / r
    f = float(spec.forward_radius(r))
    tang = f / r
    proj = np.outer(xhat, xhat)
    m = tang * (np.eye(dim) - proj) + spec.slope * proj
    det = spec.slope * tang ** (dim - 1)
    return JacobianData(m, det)


# ---------------------------------------------------------------------------
# Push-forward
# ---------------------------------------------------------------------------
def push_forward(medium: MediumSpec, jac: JacobianData) -> MediumSpec:
    """Push (sigma, q) forward: sigma -> M sigma M^T / J, q -> q / J."""
    m = jac.matrix
    sigma_new = (m @ medium.sigma @ m.T) / jac.det
    sigma_new = 0.5 * (sigma_new + sigma_new.T)
    return MediumSpec(sigma_new, medium.q / jac.det)


def cloak_tensor(spec: RadialMapSpec, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cloaking-shell sigma (..., dim, dim) and real q (...) at y (..., dim).

    Closed-form push-forward of (I, 1) under the blow-up: with f = |y| in
    [R1, R2], r = F^{-1}(f), t = f/r and J = s t^(dim-1), sigma =
    (t^2/J) I + ((s^2 - t^2)/J) yhat yhat^T and q = 1/J.
    """
    y = np.asarray(y, dtype=float)
    dim, s = y.shape[-1], spec.slope
    f = np.linalg.norm(y, axis=-1)
    outside = (f < spec.r1 * (1 - _GEOM_RTOL)) | (f > spec.r2 * (1 + _GEOM_RTOL))
    if np.any(outside):
        raise DomainError(f"|y| = {f[outside][0]:.6g} outside [{spec.r1:.6g}, {spec.r2:.6g}]")
    t = f / spec.inverse_radius(f)
    jac = s * t ** (dim - 1)
    tang, radial = (t * t / jac)[..., None, None], (s * s / jac)[..., None, None]
    yhat = y / f[..., None]
    proj = yhat[..., :, None] * yhat[..., None, :]
    return tang * np.eye(dim) + (radial - tang) * proj, 1.0 / jac


def cloak_medium_at(spec: RadialMapSpec, y: np.ndarray) -> MediumSpec:
    """Cloaking-shell parameters at one physical point y, R1 <= |y| <= R2."""
    return MediumSpec(*cloak_tensor(spec, y))


# ---------------------------------------------------------------------------
# Physical <-> virtual conversions under the dilation x -> x/rho
# ---------------------------------------------------------------------------
def _dilation_push(sigma: float, q: complex, rho: float, dim: int,
                   to_physical: bool) -> tuple[float, complex]:
    # y = x/rho has M = I/rho and J = rho^-dim, so in the virtual -> physical
    # direction sigma_phys = rho^(dim-2) sigma_virt and q_phys = rho^dim q_virt;
    # the other direction inverts the powers.
    if dim not in (2, 3):
        raise DomainError(f"dim must be 2 or 3, got {dim}")
    if to_physical:
        return sigma * rho ** (dim - 2), q * rho ** dim
    return sigma * rho ** (2 - dim), q * rho ** (-dim)


def virtual_core_params(physical: MediumSpec, rho: float, dim: int) -> MediumSpec:
    """Cloaked-content parameters seen in virtual space.

    The physical contents (sigma', q') of the half-unit ball map to the
    ball of radius rho/2 as (sigma', q'/rho^2) in 2D and
    (sigma'/rho, q'/rho^3) in 3D.
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    sig, q = _dilation_push(physical.sigma_scalar, physical.q, rho, dim,
                            to_physical=False)
    return MediumSpec.isotropic(sig, q, dim)


def layer_virtual_from_physical(sigma: float, q: complex, rho: float,
                                dim: int) -> tuple[float, complex]:
    """Lossy-layer parameters: physical-space values -> virtual space."""
    return _dilation_push(sigma, q, rho, dim, to_physical=False)


def layer_physical_from_virtual(sigma: float, q: complex, rho: float,
                                dim: int) -> tuple[float, complex]:
    """Lossy-layer parameters: virtual-space values -> physical space."""
    return _dilation_push(sigma, q, rho, dim, to_physical=True)


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
    if cells_per_side < 1:
        raise DomainError(f"need at least one cell per side, got {cells_per_side}")
    edges = np.linspace(-spec.r2, spec.r2, cells_per_side + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    pts = np.stack(np.meshgrid(*([centers] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    radii = np.linalg.norm(pts, axis=1)
    pts = pts[(radii >= spec.r1) & (radii <= spec.r2)]
    sigma, q = cloak_tensor(spec, pts)
    iu = np.triu_indices(dim)
    return np.column_stack([pts, sigma[:, iu[0], iu[1]], q, np.zeros_like(q)])
