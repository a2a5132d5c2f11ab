"""Test-only oracles: the pointwise blow-up, Jacobian and anisotropic
push-forward that media.cloak_tensor and media.virtual_core_params are
checked against, the cloak grid sampled over the full point cube,
readers and a reference writer for the library's outputs, Bessel values
rebuilt in mpmath from specfun's ratio form, the multiprecision modal
solves of each mode's interface conditions in R^N and their angular sums,
the BIE system matrices evaluated densely at every ordered node pair, and
the modal angular sum with its angle table built afresh on every call."""

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


def _slope(spec: RadialMapSpec) -> float:
    """s = (R2 - R1)/(R2 - rho), from the spec's radii alone."""
    return (spec.r2 - spec.r1) / (spec.r2 - spec.rho)


def forward_radius(spec: RadialMapSpec, r):
    """|F(x)| for |x| = r: R1 + s (r - rho)."""
    return spec.r1 + _slope(spec) * (np.asarray(r, dtype=float) - spec.rho)


def inverse_radius(spec: RadialMapSpec, f):
    """|F^{-1}(y)| for |y| = f: rho + (f - R1)/s."""
    return spec.rho + (np.asarray(f, dtype=float) - spec.r1) / _slope(spec)


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
    return float(inverse_radius(spec, s)) * y / s


def radial_jacobian(spec: RadialMapSpec, x: np.ndarray) -> JacobianData:
    """Analytic Jacobian of the radial blow-up at x.

    M = (f(r)/r)(I - xhat xhat^T) + f'(r) xhat xhat^T with f(r) = R1 + s (r - rho),
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
    m = tang * (np.eye(dim) - proj) + _slope(spec) * proj
    det = _slope(spec) * tang ** (dim - 1)
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
    center c_i = R2 (2i + 1 - n)/n from meshgrid, its norm, the shell mask,
    then cloak_tensor."""
    centers = spec.r2 * (2.0 * np.arange(cells) + (1 - cells)) / cells
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
    call, with no cache, and its weights from the count of degree-n
    harmonics C(n + N - 1, n) - C(n + N - 3, n - 2) in R^N: the cached
    tables and weights must reproduce it bit for bit.  It forms the same
    real products of the weighted coefficients' real and imaginary parts
    with the table."""
    size = coef.shape[-1]
    weights = np.array([math.comb(n + dim - 1, n) - (math.comb(n + dim - 3, n - 2) if n >= 2 else 0)
                        for n in range(size)], dtype=float)
    w, table = weights * coef, mie._tabulate(dim, np.asarray(angles, dtype=float), size)
    return w.real @ table + 1j * (w.imag @ table)


def mp_sequence(dim, kind, n_max, z):
    """(values, derivatives) of orders 0..n_max of specfun's J family
    (``kind`` "j") or H family ("h") of R^dim at z in mpmath:
    Gamma(lam + 1) (2/z)^lam Z_{n+lam}(z), lam = (dim - 2)/2, on the branch
    continuous from the upper half-plane (J_n, H_n in 2D, j_n, h_n in 3D).
    H runs up from orders 0 and 1, as the recurrence is stable upward for
    it (mpmath's integer-order Y is slow)."""
    lam = mpmath.mpf(dim - 2) / 2
    s = mpmath.gamma(lam + 1) * mpmath.exp(-lam * mpmath.log(z / 2))
    if kind == "j":
        f = [s * mpmath.besselj(n + lam, z) for n in range(n_max + 2)]
    else:
        f = [s * mpmath.hankel1(n + lam, z) for n in range(2)]
        for n in range(1, n_max + 1):
            f.append(2 * (n + lam) / z * f[n] - f[n - 1])
    return f[:-1], [n / z * f[n] - f[n + 1] for n in range(n_max + 1)]


def wall_solve(dim, k, rho, kind, n_max):
    """d_n of every mode n <= n_max of the sound-soft ("ss": u = 0) or
    sound-hard ("sh": du/dr = 0) ball of radius rho in R^dim, in mpmath at
    its working precision, with the i^n of the 2D convention."""
    x = mpmath.mpf(k) * mpmath.mpf(rho)
    (j, dj), (h, dh) = (mp_sequence(dim, family, n_max, x) for family in "jh")
    u, v = (j, h) if kind == "ss" else (dj, dh)
    return [-(1j ** n if dim == 2 else 1) * u[n] / v[n] for n in range(n_max + 1)]


def interface_solve(dim, k, rho, layer, core, n_max):
    """(d_n, a_n, b_n, c_n) of every mode n <= n_max from the four interface
    conditions, solved in mpmath at its working precision: continuity of u
    and sigma du/dr at rho and rho/2.  The layer field of mode n is
    a_n J_n(kt r) + b_n H_n(kt r), the core field c_n J_n(k2 r), with the
    radial functions of mp_sequence.  Returns kt, k2 and the coefficients."""
    k, rho = mpmath.mpf(k), mpmath.mpf(rho)
    (s_l, q_l), (s_a, q_a) = [(mpmath.mpf(s), mpmath.mpc(q)) for s, q in (layer, core)]
    kt, k2 = k * mpmath.sqrt(q_l / s_l), k * mpmath.sqrt(q_a / s_a)

    def value_and_flux(kind, wavenumber, sigma, r):
        f, df = mp_sequence(dim, kind, n_max, wavenumber * r)
        return [(v, sigma * wavenumber * dv) for v, dv in zip(f, df)]

    jk, hk = (value_and_flux(kind, k, 1, rho) for kind in "jh")
    jt, ht = (value_and_flux(kind, kt, s_l, rho) for kind in "jh")
    jt2, ht2 = (value_and_flux(kind, kt, s_l, rho / 2) for kind in "jh")
    jc = value_and_flux("j", k2, s_a, rho / 2)
    out = []
    for n in range(n_max + 1):
        phase = 1j ** n if dim == 2 else 1
        m = [[hk[n][0], -jt[n][0], -ht[n][0], 0],
             [hk[n][1], -jt[n][1], -ht[n][1], 0],
             [0, jt2[n][0], ht2[n][0], -jc[n][0]],
             [0, jt2[n][1], ht2[n][1], -jc[n][1]]]
        out.append(_equilibrated_solve(m, [-phase * jk[n][0], -phase * jk[n][1], 0, 0]))
    return kt, k2, out


def _equilibrated_solve(m, b):
    """The solution x of m x = b (lists of mpmath numbers), from the LU solve
    of the system with each row, then each column, scaled to a largest
    modulus of 1: the entries of an interface system span hundreds of
    orders of magnitude, which mpmath's absolute pivot test would call
    singular.  The scales are powers of two, so they round nothing."""
    def scale(v):
        return mpmath.ldexp(1, -int(mpmath.floor(mpmath.log(v, 2)))) if v else 1

    rows = [scale(max(abs(v) for v in row)) for row in m]
    m = [[v * r for v in row] for row, r in zip(m, rows)]
    cols = [scale(max(abs(row[j]) for row in m)) for j in range(len(m))]
    y = mpmath.lu_solve(mpmath.matrix([[v * c for v, c in zip(row, cols)] for row in m]),
                        mpmath.matrix([v * r for v, r in zip(b, rows)]))
    return [y[j] * cols[j] for j in range(len(cols))]


def mp_field(dim, terms, thetas):
    """sum_n w_n i^n R_n P_n(cos theta) in mpmath, for the radial factors R_n
    of ``terms`` (no i^n in 2D, where R_n carries it): w_n the number of
    degree-n harmonics in R^dim, P_n the Gegenbauer polynomial of order
    (dim - 2)/2 normalised to P_n(1) = 1, cos n theta in 2D."""
    lam = mpmath.mpf(dim - 2) / 2
    out = []
    for th in thetas:
        th = mpmath.mpf(th)
        total = 0
        for n, r in enumerate(terms):
            w = math.comb(n + dim - 1, n) - (math.comb(n + dim - 3, n - 2) if n >= 2 else 0)
            if dim == 2:
                total += w * r * mpmath.cos(n * th)
            else:
                p = mpmath.gegenbauer(n, lam, mpmath.cos(th)) / mpmath.gegenbauer(n, lam, 1)
                total += w * 1j ** n * r * p
        out.append(total)
    return np.array([complex(u) for u in out])


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
    """The double layer K and single layer S behind bie._system, formed as
    full N x N arrays, every kernel factor evaluated at every ordered node
    pair (i, j), in the same floating-point operations up to sign: the
    blocked, mirrored one-block assembly of A = 1/2 I - K must reproduce
    -K shifted by 1/2 on the diagonal bit for bit, and the even and odd
    blocks of a mirror-symmetric curve its fold to a few ulps.  The
    assembly never stores S, so S is compared through g = -S psi."""
    n_half = t.size // 2
    c = math.pi / n_half
    m = np.arange(t.size)
    row = bie.log_weights(n_half)
    row[1:] -= c * np.log(4.0 * np.sin(math.pi * m[1:] / t.size) ** 2)
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
