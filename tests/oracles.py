"""Test-only oracles: the pointwise blow-up, Jacobian and anisotropic
push-forward that media.cloak_tensor and media.virtual_core_params are
checked against, the cloak grid sampled over the full point cube,
readers and a reference writer for the library's outputs, Bessel values
rebuilt in mpmath from specfun's ratio form, the BIE system matrices
evaluated densely at every ordered node pair, and the modal angular sum
with its angle table built afresh on every call."""

from dataclasses import dataclass, field

import math

import mpmath
import numpy as np
from scipy import special

from nearcloak import bie, cli, mie
from nearcloak.errors import DomainError, NearCloakError
from nearcloak.media import _GEOM_RTOL, RadialMapSpec, cloak_tensor


class OrientationError(NearCloakError, ValueError):
    """Jacobian with non-positive determinant (orientation-reversing map)."""


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


def forward_radius(spec: RadialMapSpec, r):
    """|F(x)| for |x| = r: c + s r."""
    return spec.offset + spec.slope * np.asarray(r, dtype=float)


def radial_blowup(spec: RadialMapSpec, x: np.ndarray) -> np.ndarray:
    """Map a point of the annulus rho <= |x| <= R2 into R1 <= |y| <= R2."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r < spec.rho * (1 - _GEOM_RTOL) - 1e-300 or r > spec.r2 * (1 + _GEOM_RTOL):
        raise DomainError(f"|x| = {r:.6g} outside [{spec.rho:.6g}, {spec.r2:.6g}]")
    return float(forward_radius(spec, r)) * x / r


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
    f = float(forward_radius(spec, r))
    tang = f / r
    proj = np.outer(xhat, xhat)
    m = tang * (np.eye(dim) - proj) + spec.slope * proj
    det = spec.slope * tang ** (dim - 1)
    return JacobianData(m, det)


def push_forward(medium: MediumSpec, jac: JacobianData) -> MediumSpec:
    """Push (sigma, q) forward: sigma -> M sigma M^T / J, q -> q / J."""
    m = jac.matrix
    sigma_new = (m @ medium.sigma @ m.T) / jac.det
    sigma_new = 0.5 * (sigma_new + sigma_new.T)
    return MediumSpec(sigma_new, medium.q / jac.det)


def cloak_medium_at(spec: RadialMapSpec, y: np.ndarray) -> MediumSpec:
    """Cloaking-shell parameters at one physical point y, R1 <= |y| <= R2."""
    return MediumSpec(*cloak_tensor(spec, y))


def cloak_grid_rows(spec: RadialMapSpec, cells: int, dim: int) -> np.ndarray:
    """media.sample_cloak_grid built over the full point cube: every cell
    center from meshgrid, its norm, the shell mask, then cloak_tensor."""
    edges = np.linspace(-spec.r2, spec.r2, cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    pts = np.stack(np.meshgrid(*([centers] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    radii = np.linalg.norm(pts, axis=1)
    pts = pts[(radii >= spec.r1) & (radii <= spec.r2)]
    sigma, q = cloak_tensor(spec, pts)
    iu = np.triu_indices(dim)
    return np.column_stack([pts, sigma[:, iu[0], iu[1]], q, np.zeros_like(q)])


def read_sweep_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back the (rho, max_abs_A) table of a sweep CSV (cli._run_sweep)."""
    rho, amp = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("rho"):
                continue
            a, b = line.split(",")
            rho.append(float(a))
            amp.append(float(b))
    return np.asarray(rho), np.asarray(amp)


def write_csv_per_value(path, schema: str, columns, rows, footer=()) -> None:
    """The byte format of cli.write_csv, one repr(float(v)) per value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema={schema}-v{cli.CSV_SCHEMA_VERSION}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(repr, map(float, row))) + "\n" for row in rows)
        for key, text in footer:
            fh.write(f"# {key},{text}\n")


def field_at(solution, point, region: str | None = None,
             scattered_only: bool = False,
             radial_derivative: bool = False) -> complex:
    """Field at a single polar point (r, theta); see mie.field_on_circle."""
    r, theta = float(point[0]), float(point[1])
    return complex(mie.field_on_circle(solution, r, np.array([theta]), region=region,
                                       scattered_only=scattered_only,
                                       radial_derivative=radial_derivative)[0])


def angular_sum(dim: int, coef: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """mie._angular_sum with its angle table built at its own size on every
    call, with no cache: the cached tables must reproduce it bit for bit.
    It forms the same real products of the weighted coefficients' real and
    imaginary parts with the table."""
    n = np.arange(coef.shape[-1])
    if dim == 2:
        w, table = np.where(n == 0, 1.0, 2.0) * coef, np.cos(np.outer(n, angles))
    else:
        w = (2 * n + 1) * coef
        table = np.polynomial.legendre.legvander(np.cos(angles), n.size - 1).T
    return w.real @ table + 1j * (w.imag @ table)


def rebuilt(sequence, scale: float) -> list:
    """Values of orders 0..N of a specfun sequence (base, N ratios) at one
    argument, in mpmath: e^{scale} times the base at order 0 or 1, whichever
    is larger in modulus, times the products of the ratios, so no exponent
    limit applies.  The scale undoes the Amos scaling: Im z for J and j,
    -Im z for H and h."""
    base, ratios = ([mpmath.mpc(complex(v)) for v in a] for a in sequence)
    a = int(bool(ratios) and abs(base[1]) > abs(base[0]))
    out = [base[a] * mpmath.exp(scale)]
    for r in ratios[a:]:
        out.append(out[-1] * r)
    return [out[0] / ratios[0]] + out if a else out


def dense_system_matrices(k, t, pts, d1, d2, normals, jac):
    """The matrices K and S of bie._system_matrices formed as full N x N
    arrays, every kernel factor evaluated at every ordered node pair (i, j),
    in the same floating-point operations: the blocked, mirrored assembly
    must reproduce K bit for bit.  It never stores S, so S is compared
    through S psi."""
    n_half = t.size // 2
    c = math.pi / n_half
    m = np.arange(t.size)
    row = bie.log_weights(n_half)
    row[1:] -= c * np.log(4.0 * np.sin(0.5 * t[1:]) ** 2)
    circ = row[np.abs(m[:, None] - m[None, :])]

    dx = pts[:, None, 0] - pts[None, :, 0]
    dy = pts[:, None, 1] - pts[None, :, 1]
    r = np.hypot(dx, dy)
    np.fill_diagonal(r, 1.0)
    q = (dx * normals[None, :, 0] + dy * normals[None, :, 1]) / r
    kr = k * r
    j0, j1, y0, y1 = special.j0(kr), special.j1(kr), special.y0(kr), special.y1(kr)

    kmat = np.empty(circ.shape, dtype=complex)
    kmat.real = q * (-(k / (4.0 * math.pi)) * circ * j1 - (0.25 * k * c) * y1)
    kmat.imag = q * ((0.25 * k * c) * j1)
    curvature = (d2[:, 0] * d1[:, 1] - d2[:, 1] * d1[:, 0]) / (4.0 * math.pi * jac ** 2)
    np.fill_diagonal(kmat, c * curvature)

    smat = np.empty(circ.shape, dtype=complex)
    smat.real = (-(1.0 / (4.0 * math.pi)) * circ * j0 - 0.25 * c * y0) * jac[None, :]
    smat.imag = (0.25 * c) * j0 * jac[None, :]
    diag_s2 = jac * (0.25j - (np.log(0.5 * k * jac) + np.euler_gamma) / (2.0 * math.pi))
    np.fill_diagonal(smat, row[0] * (-(1.0 / (4.0 * math.pi)) * jac) + c * diag_s2)
    return kmat, smat
