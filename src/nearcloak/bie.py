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
spectral on analytic curves.  The rule depends only on node differences,
so the nodes may sit half a step off t = 0, and they do: node j of the 2N
is t_j = (2j + 1) pi/(2N) (BoundaryCurve.nodes).

The far field follows from the same representation,

    A(xhat) = gamma int_Gamma [ d(e^{-ik xhat.y})/dnu v(y)
                                + e^{-ik xhat.y} d(e^{ik d.y})/dnu ] ds(y),

with gamma = e^{i pi/4}/sqrt(8 pi k), a smooth integrand handled by the
trapezoid rule.  The direct second-kind equation is singular at interior
Dirichlet eigenvalues of the curve (on a circle of radius a, the k with
J_n(ka) = 0).

This module is the cross-validation oracle for the modal solver and
deliberately shares none of its special-function machinery: specfun takes
only the complex-argument jve and hankel1e from scipy, for orders 0 and 1.

Each mechanism is stated once, in the function that holds it:
* ``assemble_and_solve`` checks the wave with WaveParams.require_dim(2),
  picks the solve, and raises ResonanceError near a resonance and
  TruncationError where the nodes do not resolve the wave.
* ``_kernel_pass`` assembles A = 1/2 I - K and g = -S psi in real arithmetic
  against the columns it is given, the mirror pass against nodes N - 1 - I
  of the exact node table, once per unordered node pair; it never stores S,
  and the Bessel routines run in ``_off_diagonal`` only.
* ``_system`` splits a mirror-symmetric curve into an even and an odd
  block, and ``_solve_block`` solves each by LU with a condition estimate.
* ``_solve_circulant`` solves a circle by FFTs, from one column of A
  and of S.
* ``_green_far_field`` sums the far field in real products, for
  ``far_field_from_density`` and ``far_field_from_cauchy_data``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, ResonanceError, ShapeError, TruncationError
from .mie import FarFieldPattern, WaveParams

_EULER_GAMMA = 0.5772156649015328606
MAX_NODES = 2048
RESONANCE_CONDITION = 1e12
# Above this trace_tail the nodes do not resolve the wave (assemble_and_solve).
TRACE_TAIL_THRESHOLD = 0.1
# Below this k times the curve's diameter the far field is lost to rounding:
# a circle's is off the modal series by about 3e-17/(k radius), relative.
MIN_K_DIAMETER = 2e-8
# Rows per block of a kernel pass (_kernel_pass).
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

    The node geometry (_geometry) is derived data: the curve builds it once,
    at construction, where the regularity check needs x' anyway, and keeps
    it read-only in the private ``_node_geometry``, which every solve and
    far field of the curve reads.
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
        object.__setattr__(self, "_node_geometry", _geometry(self))
        if np.min(self._node_geometry[-1]) <= 0:
            raise DomainError("parametrization is not regular (|x'| = 0 at a node)")
        # pi sum m |c_m|^2 is the signed area enclosed; scaled by the largest
        # |c_m| (nonzero on a regular curve), no term overflows or underflows.
        scale = max(abs(complex(c)) for _, c in self.modes)
        if not sum(m * abs(complex(c) / scale) ** 2 for m, c in self.modes) > 0:
            raise DomainError("curve must run counterclockwise (sum m |c_m|^2 > 0)")

    def nodes(self) -> np.ndarray:
        """t_j = (2j + 1) pi/N, j = 0..N-1: equispaced, half a step off
        t = 0, so that no node of a mirror-symmetric curve lies on its axis
        and the reflection t -> -t maps node j to node N - 1 - j."""
        return math.pi * (2 * np.arange(self.n_points) + 1) / self.n_points


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
    trace_tail: float = 0.0    # tau, the trace's DFT tail (assemble_and_solve)

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
    """The curve's read-only node data: t (curve.nodes()), then x, x', x''
    and the outward normal (length |x'|) as (N, 2) real arrays, then |x'|.
    x^(k) is the mode sum sum_m (im)^k c_m e^{imt}.

    With t_j = (2j + 1) pi/N, e^{imt_j} is w^((m (2j + 1)) mod 2N), from the
    2N-th roots of unity w^p with w^(2N-p) = conj w^p and w^N = -1 exactly:
    the index arithmetic is exact, and where every c_m is real the table
    holds x_(N-1-j) = conj x_j bit for bit (x' with the sign flipped, x'',
    the normals and |x'| alike), with no node on the real axis."""
    t = curve.nodes()
    n = t.size
    m = np.array([mode[0] for mode in curve.modes])
    c = np.array([mode[1] for mode in curve.modes], dtype=complex)
    half = np.exp((1j * math.pi / n) * np.arange(n + 1))
    half[-1] = -1.0
    roots = np.concatenate([half, half[-2:0:-1].conj()])
    terms = c * roots[np.outer(2 * np.arange(n) + 1, m) % (2 * n)]
    m = m.astype(float)
    # Row sums, not a complex @ (see _add_product), viewed as (Re, Im) columns.
    pts, d1, d2 = ((terms * (1j * m) ** k).sum(axis=1).view(float).reshape(-1, 2) for k in range(3))
    geometry = (t, pts, d1, d2, np.stack([d1[:, 1], -d1[:, 0]], axis=1),
                np.hypot(d1[:, 0], d1[:, 1]))
    for array in geometry:
        array.flags.writeable = False
    return geometry


def _mirror_symmetric(curve: BoundaryCurve) -> bool:
    """Whether every c_m is real, so that x(-t) = conj x(t): node N - 1 - j
    is the mirror image of node j in the x-axis.  Read from the mode table
    only."""
    return all(complex(c).imag == 0 for _, c in curve.modes)


def _circular(curve: BoundaryCurve) -> bool:
    """Whether the curve has no mode but m = 0 and m = 1, so that it is a
    circle about c_0 and A and S are circulant (_solve_circulant).  Read
    from the mode table only."""
    return all(m in (0, 1) for m, _ in curve.modes)


def _log_row(size: int):
    """(c, C) on ``size`` nodes: the trapezoid weight c = pi/(size/2) and the
    circulant row C_m = R_m - c log(4 sin^2(pi m/size)), m = 0..size-1, that
    carries both log weights (C_0 = R_0; see _kernel_pass)."""
    c = math.pi / (size // 2)
    row = log_weights(size // 2)
    row[1:] -= c * np.log(4.0 * np.sin(math.pi * np.arange(1, size) / size) ** 2)
    return c, row


def _off_diagonal(k: float, c: float, circ, r):
    """(a_re, a_im, s_re, s_im) off the diagonal, at node distances r with
    circulant entries circ: -K = q (a_re + i a_im) and -S = (s_re + i s_im)
    |x'_j| (_kernel_pass).  The one place the Bessel routines, scipy's
    real-argument j0, j1, y0 and y1, run."""
    # Imported here, not at the top, so that `import nearcloak` loads no scipy.
    from scipy import special
    kr = k * r
    j0, j1, y0, y1 = special.j0(kr), special.j1(kr), special.y0(kr), special.y1(kr)
    return ((k / (4.0 * math.pi)) * circ * j1 + (0.25 * k * c) * y1, (-0.25 * k * c) * j1,
            (1.0 / (4.0 * math.pi)) * circ * j0 + 0.25 * c * y0, (-0.25 * c) * j0)


def _diagonal(k: float, c: float, row0: float, d1, d2, jac):
    """The diagonals of A = 1/2 I - K and of -S at nodes with derivatives
    d1, d2 and |x'| = jac: 1/2 - c times the curvature term, and -S's
    closed form."""
    curvature = (d2[:, 0] * d1[:, 1] - d2[:, 1] * d1[:, 0]) / (4.0 * math.pi * jac ** 2)
    diag_s2 = jac * (0.25j - (np.log(0.5 * k * jac) + _EULER_GAMMA) / (2.0 * math.pi))
    return 0.5 - c * curvature, row0 * ((1.0 / (4.0 * math.pi)) * jac) - c * diag_s2


def _kernel_pass(k: float, geometry, cols, psi):
    """(A, g) over the curve's ``geometry``, row i at node i and column j
    at node cols[j], i, j < n = cols.size: A = 1/2 I - K, with K the double
    layer, and g = -S psi, with S the single layer, for each column of psi
    (row j at node cols[j]).

    Each kernel is split as k1 log(4 sin^2((t_i - t_j)/2)) + k2, weighted
    R_|i-j| k1 + c k2 with c = pi/N.  With the circulant
    C = R_|i-j| - c log(4 sin^2((t_i - t_j)/2)), which carries both log
    weights, the off-diagonal entries of -K and -S are, for q = b/r,

        -K = q (k/(4 pi) C J_1 + (k c/4) Y_1) - i q (k c/4) J_1,
        -S = (C J_0/(4 pi) + (c/4) Y_0) |x'_j| - i (c/4) J_0 |x'_j|,

    so only real arrays are formed; H = J + iY enters through J and Y.
    The constants carry the sign, and IEEE rounding is symmetric, so A and
    g equal the negated K and S psi bit for bit (but for the sign of an
    exactly cancelling sum's zero) with no pass over an n x n array.  The
    log factor is taken at the node offsets t_m - t_0 = 2 pi m/N, which the
    nodes' half-step shift leaves unchanged.

    _system passes the rows themselves, cols = 0..n-1, whose diagonal is
    singular (A's is 1/2 - c times the curvature term), or their mirror
    images on a mirror-symmetric curve, cols = N - 1 - (0..n-1).  Either way
    C and r are symmetric in (i, j), on the mirror images because
    _geometry's table holds them exactly, so the Bessel factors are formed
    once per unordered pair: rows run in blocks of _ROW_BLOCK over the
    columns j >= the block's first row, and each block is written to both
    (i, j) and (j, i) (its own square gets equal values twice), the latter
    with q = (-dx, -dy).n_i/r.  IEEE subtraction is antisymmetric and hypot
    ignores signs, so every entry of A equals the one an evaluation at
    every ordered pair gives, bit for bit, from O(n _ROW_BLOCK) temporaries
    and about n^2/2 calls of each Bessel function.

    S is never stored: g sums each block of -S times |x'| psi over the
    block's columns into its rows, and the block's transpose beyond its own
    square into those columns, then adds the diagonal in closed form.
    """
    c, row = _log_row(geometry[0].size)
    _, pts, d1, d2, normals, jac = geometry
    n, m = cols.size, np.arange(cols.size)
    singular = np.array_equal(cols, m)
    pts_col, normals_col, jac_psi = pts[cols], normals[cols], jac[cols, None] * psi
    w = np.concatenate([jac_psi.real, jac_psi.imag], axis=1)

    amat = np.empty((n, n), dtype=complex)
    g = np.zeros(psi.shape, dtype=complex)
    for i0 in range(0, n, _ROW_BLOCK):
        i1 = min(i0 + _ROW_BLOCK, n)
        rows, block = slice(i0, i1), slice(i0, n)
        dx = pts[rows, None, 0] - pts_col[None, block, 0]
        dy = pts[rows, None, 1] - pts_col[None, block, 1]
        r = np.hypot(dx, dy)
        if singular:
            np.fill_diagonal(r, 1.0)  # placeholder; diagonals are overwritten below
        q = (dx * normals_col[None, block, 0] + dy * normals_col[None, block, 1]) / r
        q_mirror = ((-dx) * normals[rows, None, 0] + (-dy) * normals[rows, None, 1]) / r
        circ = row[np.abs(m[rows, None] - cols[None, block])]
        a_re, a_im, s_re, s_im = _off_diagonal(k, c, circ, r)
        amat.real[rows, block] = q * a_re
        amat.imag[rows, block] = q * a_im
        amat.real[block, rows] = (q_mirror * a_re).T
        amat.imag[block, rows] = (q_mirror * a_im).T
        if singular:
            # Placeholder diagonals out; S's closed-form diagonal is added below.
            np.fill_diagonal(s_re, 0.0)
            np.fill_diagonal(s_im, 0.0)
        _add_product(g[rows], s_re, s_im, w[block])
        _add_product(g[i1:], s_re[:, i1 - i0:].T, s_im[:, i1 - i0:].T, w[rows])

    if singular:
        a_diag, s_diag = _diagonal(k, c, row[0], d1[:n], d2[:n], jac[:n])
        np.fill_diagonal(amat, a_diag)
        g += s_diag[:, None] * psi
    return amat, g


def _system(k: float, curve: BoundaryCurve, psi: np.ndarray):
    """The Nystrom system A v = g as it is solved, as a tuple of (A, g)
    blocks; _solve_blocks puts v together from their solutions.

    A general curve gives one block, A and g over all N nodes.

    A mirror-symmetric curve (_mirror_symmetric) gives two of N/2 x N/2.
    The reflection P: node i -> N - 1 - i commutes with A and S, and no
    node is its own image, so A splits in the even and odd node bases.
    With h = N/2, I = 0..h-1, A_1 = A[I, I] and A_R = A[I, N - 1 - I]:

        A_e = A_1 + A_R,  A_o = A_1 - A_R,
        g_e = (g + Pg)[I]/2 = -(S_1 + S_R) psi_e,
        g_o = (g - Pg)[I]/2 = -(S_1 - S_R) psi_o,

    with psi_e, psi_o = (psi + P psi)[I]/2, (psi - P psi)[I]/2, and
    v[i] = w_e[i] + w_o[i], v[N - 1 - i] = w_e[i] - w_o[i] (the symmetry
    reduction of Allgower, Boehmer, Georg and Miranda, SIAM J. Numer.
    Anal. 29, 1992).  Two kernel passes with rows I give them, against
    columns I (A_1, S_1) and N - 1 - I (A_R, S_R) of the node table, whose
    exact mirror symmetry (_geometry) the split relies on; each takes psi_e
    and psi_o.  Each Bessel function runs about N^2/4 times (N^2/2 for one
    block), and each block's LU is an eighth of the full system's.  The even
    and odd basis vectors have one squared norm, 2, so the block residuals
    sum to the full one with no weights.
    """
    n, geometry = curve.n_points, curve._node_geometry
    if not _mirror_symmetric(curve):
        a, g = _kernel_pass(k, geometry, np.arange(n), psi[:, None])
        return ((a, g[:, 0]),)
    h = n // 2
    psi_eo = 0.5 * np.stack([psi[:h] + psi[h:][::-1], psi[:h] - psi[h:][::-1]], axis=1)
    a_e, g_1 = _kernel_pass(k, geometry, np.arange(h), psi_eo)
    a_r, g_r = _kernel_pass(k, geometry, n - 1 - np.arange(h), psi_eo)
    a_o = a_e - a_r
    a_e += a_r
    return (a_e, g_1[:, 0] + g_r[:, 0]), (a_o, g_1[:, 1] - g_r[:, 1])


def _check_condition(cond: float, curve: BoundaryCurve, k: float) -> None:
    """ResonanceError when a condition number exceeds RESONANCE_CONDITION."""
    if cond > RESONANCE_CONDITION:
        raise ResonanceError(
            f"discrete system condition ~{cond:.2e}; k={k:g} is near an "
            f"interior resonance of {curve.name}")


def _check_system(anorm: float, g, curve: BoundaryCurve, k: float) -> None:
    """DomainError unless the system's 1-norm and right-hand side are finite."""
    if not (math.isfinite(anorm) and np.isfinite(g).all()):
        raise DomainError(f"non-finite Nystrom system for {curve.name} at k={k:g}")


def _solve_block(a, g, curve: BoundaryCurve, k: float):
    """The LU solve of one block: x with a x = g, and the condition
    estimate.

    The 1-norm of a, which the condition estimate needs anyway, is the
    finiteness check: a non-finite a or g (an overflowing curve or k)
    raises DomainError, and scipy's LU runs without scanning a again.  The
    1-norm's |a| temporary is freed before lu_factor copies a, and the LU
    factors are freed on return.
    """
    # Imported here, not at the top, so that only a dense BIE solve loads scipy.linalg.
    from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve
    anorm = np.linalg.norm(a, 1)
    _check_system(anorm, g, curve, k)
    lu, piv = lu_factor(a, check_finite=False)
    gecon = get_lapack_funcs(("gecon",), (a,))[0]
    rcond, _ = gecon(lu, anorm, norm="1")
    cond = 1.0 / rcond if rcond > 0 else math.inf
    _check_condition(cond, curve, k)
    return lu_solve((lu, piv), g, check_finite=False), cond


def _add_product(out, a_re, a_im, x):
    """out += (a_re + i a_im) x, column by column, for x given as the real
    columns [Re x | Im x].

    Real products only: a complex @ runs zgemm or zgemv, after which
    OpenBLAS leaves the process's vector code slow until a dgemm runs."""
    p, q = a_re @ x, a_im @ x
    cols = out.shape[1]
    out.real += p[:, :cols] - q[:, cols:]
    out.imag += p[:, cols:] + q[:, :cols]


def _solve_blocks(k: float, curve: BoundaryCurve, psi: np.ndarray):
    """(v, condition estimate, [(A v - g, g) per block]) from the blocks
    of _system, each solved by _solve_block: v is one block's solution, or
    w_e + w_o at nodes I and w_e - w_o at N - 1 - I from the even and odd."""
    blocks = _system(k, curve, psi)
    w, conds = zip(*(_solve_block(a, g, curve, k) for a, g in blocks))
    trace = w[0] if len(w) == 1 else np.concatenate([w[0] + w[1], (w[0] - w[1])[::-1]])
    # The residuals follow every LU: under threaded BLAS, numpy's BLAS
    # threads still spin after a product and slow a scipy LU that follows
    # at once (8 ms against 0.5 ms at 129 nodes, two cores).
    return trace, max(conds), [(a @ x - g, g) for (a, g), x in zip(blocks, w)]


def _solve_circulant(k: float, curve: BoundaryCurve, psi: np.ndarray):
    """(v, condition number, [(A v - g, g)]) of a circle (_circular).

    On a circle |x_i - x_j|, the double layer's q at (i, j) and the
    circulant index depend only on i - j mod N, so A and S are circulant
    (the cyclic case of _system's symmetry reduction):
    column 0 determines each (entry i of column 0 is the pair (i, 0) of
    _kernel_pass, from the same _log_row, _off_diagonal and _diagonal),
    and the DFT diagonalises them.  With lambda = FFT(a) for A's column a,
    g = IFFT(FFT(s) FFT(psi)) for -S's column s, and v = IFFT(FFT(g)/lambda):
    N values of each Bessel routine and O(N log N) work, no N x N array.

    The condition number is exact: every column of a circulant is a
    rotation of its first, and A^-1 is the circulant of IFFT(1/lambda), so
    cond_1(A) = ||a||_1 ||IFFT(1/lambda)||_1, infinite where lambda has a
    zero.  The residual takes A v from the same circulant product."""
    _, pts, d1, d2, normals, jac = curve._node_geometry
    c, row = _log_row(curve.n_points)
    dx, dy = pts[:, 0] - pts[0, 0], pts[:, 1] - pts[0, 1]
    r = np.hypot(dx, dy)
    r[0] = 1.0  # placeholder; the diagonal is set below
    q = (dx * normals[0, 0] + dy * normals[0, 1]) / r
    a_re, a_im, s_re, s_im = _off_diagonal(k, c, row, r)
    a = q * (a_re + 1j * a_im)
    s = jac[0] * (s_re + 1j * s_im)
    a_diag, s_diag = _diagonal(k, c, row[0], d1[:1], d2[:1], jac[:1])
    a[0], s[0] = a_diag[0], s_diag[0]

    g = np.fft.ifft(np.fft.fft(s) * np.fft.fft(psi))
    anorm = np.abs(a).sum()
    _check_system(anorm, g, curve, k)
    lam = np.fft.fft(a)
    inverse_norm = np.abs(np.fft.ifft(1.0 / lam)).sum()
    cond = anorm * inverse_norm if math.isfinite(inverse_norm) else math.inf
    _check_condition(cond, curve, k)
    v = np.fft.ifft(np.fft.fft(g) / lam)
    return v, float(cond), [(np.fft.ifft(lam * np.fft.fft(v)) - g, g)]


def assemble_and_solve(curve: BoundaryCurve, wave: WaveParams) -> DensitySolution:
    """Assemble (1/2 I - K) v = g and solve it.

    A circle (_circular: no mode but m = 0 and m = 1, any complex c_1)
    solves as a circulant (_solve_circulant), from one column of A and of
    S: N values of each Bessel routine, FFTs and no LU, and its
    ``condition_estimate`` is the exact 1-norm condition number.

    Every other curve solves densely: _system returns A = 1/2 I - K and
    g = -S psi as they are solved, from the node geometry the curve built
    once, on a mirror-symmetric curve (every c_m real, as for the kite) as
    an even and an odd block of N/2 nodes each, otherwise as one block.
    Each block has its own finiteness check, LU factors and condition
    estimate (_solve_block).  S is never stored, so a two-block solve holds
    A_e, A_o and one block's LU factors at a time, 12 N^2 bytes; one block
    holds A and its LU factors, 2 x 16 N^2 bytes, 128 MiB at MAX_NODES
    (the residual needs A).  ``condition_estimate`` is the larger of the
    blocks' estimates.

    ``residual`` is ||A v - g||_2/||g||_2 of the full system: the blocks'
    squared residuals summed over their squared right-hand sides.

    ``trace_tail`` is tau, the largest |v_m| over |m| >= N/4 of the DFT of
    the trace over the largest |v_m|.  The trace of a wave the nodes
    resolve has spent its Fourier coefficients well below N/4; one they
    miss fills the band, and aliasing keeps tau near 1.  So tau bounds the
    share of the trace in the upper half of the band the nodes sample, not
    the error.  Measured on far fields at 100 angles, relative to max|A|:
    on the kite at N in {32, 64, 256, 1024} and k from 1 to 60, against
    2048 nodes, every solve that passed was within 3.7e-6, and every one
    more than 1e-5 off read tau >= 0.19.  256 kite nodes pass up to k = 25
    (tau <= 0.037, accurate to 2e-9) and raise at k = 40 and 60 (8 % and
    39 % off).  tau under-reads on coarse grids (the kite at k = 1 on 32
    nodes reads 9.2e-4 at an error of 3.6e-6), and over-reads on circles,
    whose circulant solve is exact mode by mode up to |m| = N/2.  On
    circles of radius 0.5 and 1, at N in {32, 64, 128, 256, 1024} and k
    from 1 to 300 where k radius <= 0.75 N and the modal series converges,
    against mie.far_field, every solve that passed was within 3.0e-8,
    every one more than 1e-5 off raised, and those it stopped though
    within 1e-5 were 8.3e-8 to 3.1e-6 off.  The band |m| >= 3N/8 would
    pass 13 % at radius 0.5, N = 64, k = 40 (band tail 0.061), and 1.5e-3
    at N = 256, k = 150 (1.3e-5).

    Raises RangeError when k times the curve's diameter (twice the largest
    distance of a node from the centre c_0) is below MIN_K_DIAMETER = 2e-8
    (above it every circle of a scan stayed within 1e-8 of mie.far_field),
    ResonanceError when the (estimated) condition number exceeds 1e12 (an
    interior Dirichlet resonance; the far field errs by up to about 5e-16
    times it), DomainError when the system, the trace or the residual is not
    finite, then TruncationError when tau exceeds TRACE_TAIL_THRESHOLD = 0.1.
    """
    wave.require_dim(2)
    k = wave.k
    _, pts, _, _, normals, jac = curve._node_geometry
    centre = sum(complex(c) for m, c in curve.modes if m == 0)
    # Overflow leaves inf or nan in the diameter, psi, the system or the
    # residual, and a zero eigenvalue of a circulant an inf in its inverse,
    # which the checks report.
    solve = _solve_circulant if _circular(curve) else _solve_blocks
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        diameter = 2.0 * np.max(np.hypot(pts[:, 0] - centre.real, pts[:, 1] - centre.imag))
        if k * diameter < MIN_K_DIAMETER:
            raise RangeError(f"k = {k:g} times the diameter {diameter:g} of {curve.name} "
                             f"is below the floor {MIN_K_DIAMETER:g}")
        # psi = du^s/dnu = -d(e^{ik d.y})/dnu; the unit normal is normals/jac.
        phase = np.exp(1j * k * (pts @ wave.d))
        psi = -1j * k * (normals @ wave.d) / jac * phase
        trace, cond, residuals = solve(k, curve, psi)
        r2 = g2 = 0.0
        for r, g in residuals:
            r2 += np.sum(r.real ** 2 + r.imag ** 2)
            g2 += np.sum(g.real ** 2 + g.imag ** 2)
        residual = float(np.sqrt(r2 / g2)) if g2 > 0 else 0.0
    # A non-finite trace leaves the residual non-finite too.
    if not math.isfinite(residual):
        raise DomainError(f"non-finite trace or residual for {curve.name} at k={k:g}")
    n = curve.n_points
    spectrum, m = np.abs(np.fft.fft(trace)), np.arange(n)
    peak = spectrum.max()
    tail = float(spectrum[4 * np.minimum(m, n - m) >= n].max() / peak) if peak else 0.0
    if tail > TRACE_TAIL_THRESHOLD:
        raise TruncationError(f"{n} nodes do not resolve {curve.name} at k={k:g}: the trace's "
                              f"DFT tail is {tail:.3g}, above {TRACE_TAIL_THRESHOLD:g}")
    return DensitySolution(curve=curve, wave=wave, trace=trace, neumann_data=psi,
                           residual=residual, condition_estimate=float(cond), trace_tail=tail)


# ---------------------------------------------------------------------------
# Far fields
# ---------------------------------------------------------------------------
def _green_far_field(k: float, angles: np.ndarray, ys: np.ndarray, normals: np.ndarray,
                     u: np.ndarray, flux: np.ndarray, weight: float) -> FarFieldPattern:
    """A(xhat) = gamma w sum_j [d_nu e^{-ik xhat.y_j} u_j - e^{-ik xhat.y_j} flux_j]
    over points y_j with normals nu_j and quadrature weight w.

    With e^{-ik xhat.y} = c + i s and dn = k xhat.nu, d_nu e^{-ik xhat.y} is
    (c dn + i s dn)(-i), so the sum is two real-product sums (_add_product):
    c dn + i s dn applied to -i u, and c + i s applied to -flux.  No complex
    (angles x points) array is formed.  Non-finite amplitudes (overflowing
    data or k) raise DomainError."""
    angles = np.asarray(angles, dtype=float)
    xhat = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        arg = -k * (xhat @ ys.T)
        c, s, dn = np.cos(arg), np.sin(arg), k * (xhat @ normals.T)
        amp = np.zeros((angles.size, 1), dtype=complex)
        _add_product(amp, c * dn, s * dn, np.stack([u.imag, -u.real], axis=1))
        _add_product(amp, c, s, -np.stack([flux.real, flux.imag], axis=1))
        gamma = np.exp(1j * math.pi / 4) / math.sqrt(8.0 * math.pi * k)
        pattern = FarFieldPattern(angles, gamma * weight * amp[:, 0], 2)
    if not np.isfinite(pattern.amplitude).all():
        raise DomainError(f"non-finite far field at k={k:g}")
    return pattern


def far_field_from_density(solution: DensitySolution, wave: WaveParams,
                           angles: np.ndarray) -> FarFieldPattern:
    """A(xhat) from the solved trace and the stored flux neumann_data,
    trapezoid over the smooth kernel; ``wave`` must be the one
    ``solution`` was solved for."""
    k = wave.k
    if k != solution.wave.k or not np.array_equal(wave.d, solution.wave.d):
        raise DomainError("far field asked for a wave other than the solved one")
    _, pts, _, _, normals, jac = solution.curve._node_geometry  # normals carry |x'|
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
    wave.require_dim(2)
    u, dudn = np.asarray(u, dtype=complex), np.asarray(dudn, dtype=complex)
    if u.shape != dudn.shape or u.ndim != 1 or u.size == 0:
        raise ShapeError("u and dudn must be nonempty 1D arrays of equal length")
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"sampling radius must be finite and positive, got {radius}")
    m = u.size
    phis = 2.0 * math.pi * np.arange(m) / m
    ys = radius * np.stack([np.cos(phis), np.sin(phis)], axis=1)
    return _green_far_field(wave.k, angles, ys, ys / radius, u, dudn,
                            2.0 * math.pi * radius / m)
