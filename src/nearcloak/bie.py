"""Nystrom solver for 2D exterior sound-hard Helmholtz scattering.

A curve is a Fourier mode table, x(t) = sum_m c_m e^{imt} in the complex
plane: it closes by construction, and x', x'' are exact mode sums.

Direct (Green-representation) formulation on a smooth closed curve: the
scattered trace v = u^s|_Gamma solves the second-kind equation

    (1/2) v(x) - (K v)(x) = g(x),        x on Gamma,

where K is the double-layer operator with kernel dG(x-y)/dnu(y),
G(x) = (i/4) H_0^(1)(k|x|), and

    g(x) = -int_Gamma G(x-y) psi(y) ds(y),
    psi = du^s/dnu = -d(e^{ik d.y})/dnu    (sound-hard obstacle).

Both kernels are weakly singular; each is split into an analytic factor
times log(4 sin^2((t-s)/2)) plus a smooth remainder and integrated with
the spectral log-quadrature weights

    R_m = -(2 pi/N) sum_{p=1}^{N-1} cos(p m pi/N)/p - (pi/N^2) (-1)^m

on 2N equispaced nodes (exact for trigonometric polynomials of degree
< N), the smooth parts with the plain trapezoid rule.  Convergence is
spectral on analytic curves.

The far field follows from the same representation,

    A(xhat) = gamma int_Gamma [ d(e^{-ik xhat.y})/dnu v(y)
                                + e^{-ik xhat.y} d(e^{ik d.y})/dnu ] ds(y),

with gamma = e^{i pi/4}/sqrt(8 pi k), a smooth integrand handled by the
trapezoid rule.  A companion routine evaluates the same representation
from Cauchy data sampled on any circle enclosing the scatterer.

The direct second-kind equation is singular at interior Dirichlet
eigenvalues of the curve (on a circle of radius a, the k with
J_n(ka) = 0); the solver estimates the condition number of the discrete
system and raises ResonanceError above 1e12 instead of silently
returning garbage.

Kernel evaluation uses scipy's real-argument order-0/1 Bessel routines
(j0, j1, y0, y1), and K and S are assembled in real arithmetic, each from
one circulant carrying both log weights.  The kernel factors depend on a
node pair only through |x_i - x_j| and |i - j| (the double layer adds the
normal at the column node), so they are evaluated once per unordered
pair, in row blocks, and mirrored: each Bessel routine runs about N^2/2
times, and the temporaries take O(N _ROW_BLOCK) memory, not O(N^2).  S is
only needed as S psi, so it is applied to psi block by block during the
assembly and never stored: a solve holds two N x N complex arrays,
1/2 I - K and its LU factors, 2 x 16 N^2 bytes (128 MiB at MAX_NODES).

This module is the cross-validation oracle for the modal solver and
deliberately shares none of its special-function machinery: specfun takes
only the complex-argument jve and hankel1e from scipy, for orders 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg import lu_factor, lu_solve, get_lapack_funcs

from .errors import DomainError, ResonanceError, ShapeError
from .mie import FarFieldPattern, WaveParams

_EULER_GAMMA = 0.5772156649015328606
MAX_NODES = 2048
RESONANCE_CONDITION = 1e12
# Rows per block of the kernel assembly (_system_matrices).
_ROW_BLOCK = 64


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BoundaryCurve:
    """Closed curve x(t) = sum_m c_m e^{imt}, t in [0, 2pi), in the complex plane.

    ``modes`` holds (m, c_m) pairs with distinct integer m and finite
    complex c_m.  The parametrization must be regular (|x'(t)| > 0 at every
    node) and counterclockwise, so that (x2', -x1') is the outward normal.
    """

    modes: tuple
    n_points: int
    name: str = "curve"

    def __post_init__(self):
        n = self.n_points
        if not isinstance(n, (int, np.integer)) or n % 2 or n < 8:
            raise DomainError(f"n_points must be an even integer >= 8, got {n!r}")
        if n > MAX_NODES:
            raise DomainError(f"n_points capped at {MAX_NODES} for the dense solver")
        if not all(isinstance(m, (int, np.integer)) and np.isfinite(c) for m, c in self.modes):
            raise DomainError("modes must be (integer m, finite complex c_m) pairs")
        if len({m for m, _ in self.modes}) < len(self.modes):
            raise DomainError("modes must not repeat an m")
        if np.min(np.abs(_derivatives(self)[1])) <= 0:
            raise DomainError("parametrization is not regular (|x'| = 0 at a node)")
        # pi sum m |c_m|^2 is the signed area enclosed.
        if not sum(m * abs(c) ** 2 for m, c in self.modes) > 0:
            raise DomainError("curve must run counterclockwise (sum m |c_m|^2 > 0)")

    def nodes(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_points) / self.n_points


def _derivatives(curve: BoundaryCurve):
    """x, x', x'' at the nodes as complex arrays: sum_m (im)^k c_m e^{imt}."""
    m = np.array([mode[0] for mode in curve.modes], dtype=float)
    c = np.array([mode[1] for mode in curve.modes], dtype=complex)
    terms = c * np.exp(1j * np.outer(curve.nodes(), m))
    # Row sums, not a complex @: see _green_far_field.
    return [(terms * (1j * m) ** k).sum(axis=1) for k in range(3)]


def circle(radius: float, n_points: int = 256) -> BoundaryCurve:
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"circle radius must be finite and positive, got {radius}")
    return BoundaryCurve(((1, radius),), n_points, name=f"circle(r={radius:g})")


def kite(n_points: int = 256) -> BoundaryCurve:
    """The kite benchmark: x(t) = (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)."""
    return BoundaryCurve(((-2, 0.325), (-1, -0.25), (0, -0.65), (1, 1.25), (2, 0.325)),
                         n_points, name="kite")


@dataclass(frozen=True)
class DensitySolution:
    """Solved boundary data: trace of u^s and its (known) normal derivative."""

    curve: BoundaryCurve
    wave: WaveParams
    trace: np.ndarray          # v = u^s on Gamma at the nodes
    neumann_data: np.ndarray   # psi = du^s/dnu = -d(u^i)/dnu at the nodes
    residual: float = 0.0
    condition_estimate: float = 0.0

    def __post_init__(self):
        n = self.curve.n_points
        if self.trace.shape != (n,) or self.neumann_data.shape != (n,):
            raise ShapeError("trace/neumann_data length must match the node count")


# ---------------------------------------------------------------------------
# Quadrature weights
# ---------------------------------------------------------------------------
def log_weights(n_half: int) -> np.ndarray:
    """Kress weights R_m, m = 0..2N-1, for the log(4 sin^2) factor."""
    m = np.arange(2 * n_half)
    inv_p = np.zeros(2 * n_half)
    inv_p[1:n_half] = 1.0 / m[1:n_half]
    r = -(2.0 * math.pi / n_half) * np.fft.fft(inv_p).real
    r -= (math.pi / n_half ** 2) * np.cos(m * math.pi)
    return r


# ---------------------------------------------------------------------------
# Assembly and solve
# ---------------------------------------------------------------------------
def _geometry(curve: BoundaryCurve):
    pts, d1, d2 = (np.stack([z.real, z.imag], axis=1) for z in _derivatives(curve))
    normals = np.stack([d1[:, 1], -d1[:, 0]], axis=1)  # outward, length |x'|
    jac = np.hypot(d1[:, 0], d1[:, 1])
    return curve.nodes(), pts, d1, d2, normals, jac


def _system_matrices(k: float, t, pts, d1, d2, normals, jac, psi):
    """Nystrom matrix of the double layer K, and the single layer S applied to psi.

    Each kernel is split as k1 log(4 sin^2((t_i - t_j)/2)) + k2, weighted
    R_|i-j| k1 + c k2 with c = pi/N.  With the circulant
    C = R_|i-j| - c log(4 sin^2((t_i - t_j)/2)), which carries both log
    weights, the off-diagonal entries are, for q = b/r,

        K = q (-k/(4 pi) C J_1 - (k c/4) Y_1) + i q (k c/4) J_1,
        S = (-C J_0/(4 pi) - (c/4) Y_0) |x'_j| + i (c/4) J_0 |x'_j|,

    so only real arrays are formed; H = J + iY enters through J and Y.

    C and r = |x_i - x_j| are symmetric, so the Bessel factors are formed
    once per unordered node pair: rows run in blocks of _ROW_BLOCK over the
    columns j >= the block's first row, and each block is written to both
    (i, j) and (j, i) (the block's own square gets equal values twice).
    The mirrored q is (-dx, -dy).n_i/r; IEEE subtraction is antisymmetric
    and hypot ignores signs, so every entry of K equals the one a full
    N x N evaluation gives, bit for bit, from O(N _ROW_BLOCK) temporaries
    and about N^2/2 calls of each Bessel function.

    S is never stored: S psi sums each block times |x'| psi over the
    block's columns into its rows, and the block's transpose beyond its own
    square into those columns, then adds the diagonal in closed form.
    """
    n = t.size
    n_half = n // 2
    c = math.pi / n_half
    m = np.arange(n)
    row = log_weights(n_half)
    row[1:] -= c * np.log(4.0 * np.sin(0.5 * t[1:]) ** 2)
    jac_psi = jac * psi
    w = np.stack([jac_psi.real, jac_psi.imag], axis=1)

    kmat = np.empty((n, n), dtype=complex)
    s_psi = np.zeros(n, dtype=complex)
    for i0 in range(0, n, _ROW_BLOCK):
        i1 = min(i0 + _ROW_BLOCK, n)
        rows, cols = slice(i0, i1), slice(i0, n)
        dx = pts[rows, None, 0] - pts[None, cols, 0]
        dy = pts[rows, None, 1] - pts[None, cols, 1]
        r = np.hypot(dx, dy)
        np.fill_diagonal(r, 1.0)  # placeholder; diagonals are overwritten below
        q = (dx * normals[None, cols, 0] + dy * normals[None, cols, 1]) / r
        q_mirror = ((-dx) * normals[rows, None, 0] + (-dy) * normals[rows, None, 1]) / r
        circ = row[np.abs(m[rows, None] - m[None, cols])]
        kr = k * r
        j0, j1, y0, y1 = special.j0(kr), special.j1(kr), special.y0(kr), special.y1(kr)

        k_re = -(k / (4.0 * math.pi)) * circ * j1 - (0.25 * k * c) * y1
        k_im = (0.25 * k * c) * j1
        kmat.real[rows, cols] = q * k_re
        kmat.imag[rows, cols] = q * k_im
        kmat.real[cols, rows] = (q_mirror * k_re).T
        kmat.imag[cols, rows] = (q_mirror * k_im).T

        s_re = -(1.0 / (4.0 * math.pi)) * circ * j0 - 0.25 * c * y0
        s_im = (0.25 * c) * j0
        # Placeholder diagonals out; S's closed-form diagonal is added below.
        np.fill_diagonal(s_re, 0.0)
        np.fill_diagonal(s_im, 0.0)
        _add_product(s_psi[rows], s_re, s_im, w[cols])
        _add_product(s_psi[i1:], s_re[:, i1 - i0:].T, s_im[:, i1 - i0:].T, w[rows])

    curvature = (d2[:, 0] * d1[:, 1] - d2[:, 1] * d1[:, 0]) / (4.0 * math.pi * jac ** 2)
    np.fill_diagonal(kmat, c * curvature)
    diag_s2 = jac * (0.25j - (np.log(0.5 * k * jac) + _EULER_GAMMA) / (2.0 * math.pi))
    s_psi += (row[0] * (-(1.0 / (4.0 * math.pi)) * jac) + c * diag_s2) * psi
    return kmat, s_psi


def _add_product(out, a_re, a_im, x):
    """out += (a_re + i a_im) x, for x given as (Re, Im) columns.

    Real products only: a complex @ runs zgemm/zgemv (see _green_far_field)."""
    p, q = a_re @ x, a_im @ x
    out.real += p[:, 0] - q[:, 1]
    out.imag += p[:, 1] + q[:, 0]


def assemble_and_solve(curve: BoundaryCurve, wave: WaveParams) -> DensitySolution:
    """Assemble (1/2 I - K) v = g and solve it densely.

    g = -S psi is summed during the assembly of K and S is never stored,
    so the solve holds two N x N complex arrays, A = 1/2 I - K and its LU
    factors (the residual needs A): 2 x 16 N^2 bytes, 128 MiB at MAX_NODES.

    Raises ResonanceError when the system's estimated condition number
    exceeds 1e12 (interior Dirichlet resonance of the curve).
    """
    if wave.d.size != 2:
        raise DomainError("boundary-integral solver is 2D; give a 2-vector direction")
    k = wave.k
    t, pts, d1, d2, normals, jac = _geometry(curve)
    # psi = du^s/dnu = -d(e^{ik d.y})/dnu; the unit normal is normals/jac.
    phase = np.exp(1j * k * (pts @ wave.d))
    psi = -1j * k * (normals @ wave.d) / jac * phase

    kmat, s_psi = _system_matrices(k, t, pts, d1, d2, normals, jac, psi)
    g = -s_psi
    a = np.negative(kmat, out=kmat)  # 1/2 I - K, built in place
    a.flat[:: curve.n_points + 1] += 0.5

    # The 1-norm's |A| temporary is freed before lu_factor copies A.
    anorm = np.linalg.norm(a, 1)
    lu, piv = lu_factor(a)
    gecon = get_lapack_funcs(("gecon",), (a,))[0]
    rcond, _ = gecon(lu, anorm, norm="1")
    cond = 1.0 / rcond if rcond > 0 else math.inf
    if cond > RESONANCE_CONDITION:
        raise ResonanceError(
            f"discrete system condition ~{cond:.2e}; k={k:g} is near an "
            f"interior resonance of {curve.name}")
    v = lu_solve((lu, piv), g)
    gn = np.linalg.norm(g)
    residual = float(np.linalg.norm(a @ v - g) / gn) if gn > 0 else 0.0
    return DensitySolution(curve=curve, wave=wave, trace=v, neumann_data=psi,
                           residual=residual, condition_estimate=float(cond))


# ---------------------------------------------------------------------------
# Far fields
# ---------------------------------------------------------------------------
def _gamma_2d(k: float) -> complex:
    return np.exp(1j * math.pi / 4) / math.sqrt(8.0 * math.pi * k)


def _green_far_field(k: float, angles: np.ndarray, ys: np.ndarray, normals: np.ndarray,
                     u: np.ndarray, flux: np.ndarray, weight: float) -> FarFieldPattern:
    """A(xhat) = gamma w sum_j [d_nu e^{-ik xhat.y_j} u_j - e^{-ik xhat.y_j} flux_j]
    over points y_j with normals nu_j and quadrature weight w."""
    angles = np.asarray(angles, dtype=float)
    xhat = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # The parentheses keep the products real: a complex @ runs zgemm, after
    # which OpenBLAS leaves the process's vector code slow until a dgemm runs.
    phase_out = np.exp(-1j * k * (xhat @ ys.T))          # (n_angles, N)
    dn_out = -1j * k * (xhat @ normals.T) * phase_out
    integrand = dn_out * u[None, :] - phase_out * flux[None, :]
    return FarFieldPattern(angles, _gamma_2d(k) * weight * integrand.sum(axis=1), 2)


def far_field_from_density(solution: DensitySolution, wave: WaveParams,
                           angles: np.ndarray) -> FarFieldPattern:
    """A(xhat) from the solved trace and the stored flux neumann_data,
    trapezoid over the smooth kernel; ``wave`` must be the one
    ``solution`` was solved for."""
    k = wave.k
    if k != solution.wave.k or not np.array_equal(wave.d, solution.wave.d):
        raise DomainError("far field asked for a wave other than the solved one")
    _, pts, _, _, normals, jac = _geometry(solution.curve)  # normals carry |x'|
    return _green_far_field(k, angles, pts, normals, solution.trace,
                            solution.neumann_data * jac, math.pi / (solution.curve.n_points // 2))


def far_field_from_cauchy_data(radius: float, u: np.ndarray, dudn: np.ndarray,
                               wave: WaveParams,
                               angles: np.ndarray) -> FarFieldPattern:
    """A(xhat) from Cauchy data of u^s on a circle enclosing the scatterer.

    ``u`` and ``dudn`` sample the scattered field and its outward normal
    (radial) derivative at equispaced angles 2 pi j / M on the circle of
    the given radius.
    """
    if wave.d.size != 2:
        raise DomainError("boundary-integral solver is 2D; give a 2-vector direction")
    u = np.asarray(u, dtype=complex)
    dudn = np.asarray(dudn, dtype=complex)
    if u.shape != dudn.shape or u.ndim != 1:
        raise ShapeError("u and dudn must be 1D arrays of equal length")
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"sampling radius must be finite and positive, got {radius}")
    m = u.size
    phis = 2.0 * math.pi * np.arange(m) / m
    ys = radius * np.stack([np.cos(phis), np.sin(phis)], axis=1)
    return _green_far_field(wave.k, angles, ys, ys / radius, u, dudn,
                            2.0 * math.pi * radius / m)
