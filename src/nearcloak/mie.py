"""Exact modal solver for concentric circular/spherical scatterers.

Solves time-harmonic scattering of a unit plane wave by
* a sound-soft (Dirichlet) or sound-hard (Neumann) obstacle of radius
  rho, and
* the three-region transmission problem: homogeneous exterior, a lossy
  layer occupying rho/2 <= |x| <= rho with isotropic parameters
  (sigma_l, q_l), and a uniform core inside rho/2 with (sigma_a, q_a) --
  all in the virtual-space description (``solve`` converts physical
  cloaked contents with media.virtual_core_params).

Per mode n, the exterior field is i^n J_n(k r) + d_n H_n^(1)(k r)
(angular factor e^{i n theta}) in 2D, and the axisymmetric reduction
(2n+1) i^n [j_n(k r) + d_n h_n^(1)(k r)] P_n(cos theta) in 3D, where
theta is the angle between the observation direction and the incident
direction.  The layer carries wavenumber k_tilde = k sqrt(q_l/sigma_l),
branch fixed so Im k_tilde >= 0, and the core k_2 = k sqrt(q_a/sigma_a).

The transmission system per mode is solved by explicit elimination:
first the layer reflection ratio Upsilon_0 = b_n/a_n from the inner
interface, then the impedance-like quotient

    W = (1/C_0) (J_n'(kt rho) + Upsilon_0 H_n'(kt rho))
              / (J_n(kt rho)  + Upsilon_0 H_n(kt rho)),

then d_n from the outer interface, with C_0 = 1/sqrt(sigma_l q_l).
When J_n(k_2 rho/2) vanishes (to the branch threshold) the inner
elimination switches to the degenerate form
Upsilon_0 = -J_n(kt rho/2)/H_n^(1)(kt rho/2).

Everything runs in scaled-mantissa arithmetic (see specfun): for the
finite sound-hard layer, Im(kt rho) grows like rho^{-delta} and the
J/H magnitudes split as e^{+-Im(kt rho)}; the explicit elimination in
log-scale form cancels those factors symbolically, so the solver is
stable down to rho ~ 1e-6.

All solvers are pure functions; modes are independent; returned
solutions are immutable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import specfun
from .errors import DomainError, TruncationError
from .media import check_passive, virtual_core_params
from .specfun import ScaledArray

TAIL_THRESHOLD = 1e-14
DEGENERATE_CONDITION = 1e14

# Switch to the degenerate inner-interface branch below this level.
BRANCH_THRESHOLD = 1e-12

_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])  # i^n for n mod 4


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WaveParams:
    """Incident plane wave: wavenumber k > 0 and unit direction d."""

    k: float
    d: np.ndarray

    def __post_init__(self):
        if not (self.k > 0 and math.isfinite(self.k)):
            raise DomainError(f"wavenumber must be positive, got {self.k}")
        d = np.asarray(self.d, dtype=float)
        norm = float(np.linalg.norm(d))
        # "not <=" so that a NaN or infinite direction fails too.
        if d.ndim != 1 or d.size not in (2, 3) or not abs(norm - 1.0) <= 1e-10:
            raise DomainError("incident direction must be a 2- or 3-vector of unit length")
        object.__setattr__(self, "d", d / norm)


@dataclass(frozen=True)
class SchemeSpec:
    """Which lining to use and its layer parameters (virtual space).

    kinds: "ss" and "sh" are the ideal sound-soft/sound-hard linings;
    "fss" is the lossy layer sigma_l = 1, q_l = 1 + i beta rho^-2;
    "fsh" is the lossy layer sigma_l = C rho^{2+2 delta}, q_l = a + i b;
    "layered" takes explicit (sigma_l, q_l) values as given, which must be
    passive (media.check_passive).
    """

    kind: str
    fss_beta_coeff: float = 2.5
    fsh_c: float = 1.0
    fsh_delta: float = 0.5
    fsh_a: float = 3.0
    fsh_b: float = 2.0
    layer_sigma: float = 1.0
    layer_q: complex = 1.0 + 0j

    def __post_init__(self):
        if self.kind not in ("ss", "sh", "fss", "fsh", "layered"):
            raise DomainError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "fsh" and not all(
                0 < v < math.inf for v in (self.fsh_c, self.fsh_delta, self.fsh_a, self.fsh_b)):
            raise DomainError("FSH requires finite C, delta, a, b > 0")
        if self.kind == "fss" and not 0 < self.fss_beta_coeff < math.inf:
            raise DomainError("FSS requires a finite beta > 0")
        if self.kind == "layered":
            check_passive(self.layer_sigma, self.layer_q)

    @classmethod
    def sound_soft(cls) -> "SchemeSpec":
        return cls("ss")

    @classmethod
    def sound_hard(cls) -> "SchemeSpec":
        return cls("sh")

    @classmethod
    def finite_sound_soft(cls, beta_coeff: float = 2.5) -> "SchemeSpec":
        return cls("fss", fss_beta_coeff=beta_coeff)

    @classmethod
    def finite_sound_hard(cls, c: float = 1.0, delta: float = 0.5,
                          a: float = 3.0, b: float = 2.0) -> "SchemeSpec":
        return cls("fsh", fsh_c=c, fsh_delta=delta, fsh_a=a, fsh_b=b)

    @classmethod
    def layered(cls, sigma_l: float, q_l: complex) -> "SchemeSpec":
        return cls("layered", layer_sigma=sigma_l, layer_q=q_l)

    def layer_params(self, rho: float) -> tuple[float, complex]:
        """Virtual-space (sigma_l, q_l) of the lossy layer at this rho."""
        if self.kind == "fss":
            return 1.0, 1.0 + 1j * self.fss_beta_coeff / rho ** 2
        if self.kind == "fsh":
            return (self.fsh_c * rho ** (2.0 + 2.0 * self.fsh_delta),
                    self.fsh_a + 1j * self.fsh_b)
        if self.kind == "layered":
            return self.layer_sigma, complex(self.layer_q)
        raise DomainError(f"scheme {self.kind!r} has no lossy layer")


@dataclass(frozen=True)
class LayerWavenumbers:
    """Derived layer/core constants for a transmission solve.

    k_tilde = k sqrt(q_l/sigma_l) with Im k_tilde >= 0 (chosen branch),
    k2 = k sqrt(q_a/sigma_a), C0 = 1/sqrt(sigma_l q_l),
    coupling = sqrt(q_a sigma_a).
    """

    k_tilde: complex
    k2: complex
    c0: complex
    coupling: complex
    upsilon0_branch: str = "nonzero-core"


@dataclass(frozen=True)
class ModalSolution:
    """Modal coefficients of a radial scattering solve.

    d_n are the exterior scattering coefficients (2D convention includes
    the i^n factor; the 3D entries are the axisymmetric reflection
    coefficients multiplying (2n+1) i^n h_n P_n).  For transmission
    solves a_n/b_n (layer) and c_n (core) are also populated; their
    public complex arrays may underflow to zero for extreme layer decay,
    in which case the scaled copies kept privately still carry the full
    values for field evaluation.
    """

    dim: int
    rho: float
    k: float
    n_max: int
    d_n: np.ndarray
    a_n: np.ndarray | None = None
    b_n: np.ndarray | None = None
    c_n: np.ndarray | None = None
    truncation_tail: float = 0.0
    scheme: SchemeSpec | None = None
    layer: LayerWavenumbers | None = None
    h_quotient: np.ndarray | None = None
    branch_flags: tuple[str, ...] | None = None
    degenerate_modes: tuple[int, ...] = ()
    _a_sv: ScaledArray | None = field(default=None, repr=False)
    _b_sv: ScaledArray | None = field(default=None, repr=False)
    _c_sv: ScaledArray | None = field(default=None, repr=False)

    @property
    def is_layered(self) -> bool:
        return self.layer is not None


@dataclass(frozen=True)
class FarFieldPattern:
    """Sampled scattering amplitude A(theta), theta = angle(xhat, d).

    gamma_convention records the normalisation of the underlying
    far-field formula: "2d" means gamma = e^{i pi/4}/sqrt(8 pi k),
    "3d" means gamma = 1/(4 pi).
    """

    angles: np.ndarray
    amplitude: np.ndarray
    gamma_convention: str

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        if a.ndim != 1 or a.size == 0 or np.any(np.diff(a) <= 0):
            raise DomainError("angles must be a nonempty, strictly increasing 1-d array")
        hi = 2.0 * math.pi if self.gamma_convention == "2d" else math.pi
        if a[0] < 0 or a[-1] > hi + 1e-12:
            raise DomainError("angles outside the valid range")
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "amplitude",
                           np.asarray(self.amplitude, dtype=complex))

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.amplitude)))


# ---------------------------------------------------------------------------
# Truncation and the per-dimension Bessel families
# ---------------------------------------------------------------------------
# Largest n_max whose solve (orders 0..n_max+1 for the derivatives) stays
# within the specfun order cap.
N_MAX_CAP = specfun.ORDER_MAX - 1


def default_n_max(k: float, rho: float) -> int:
    """Initial truncation order: krho + 8 + 4 (krho)^(1/3), rounded up."""
    x = k * rho
    return int(math.ceil(x + 8.0 + 4.0 * x ** (1.0 / 3.0)))


def _tail(d: np.ndarray) -> float:
    peak = float(np.max(np.abs(d)))
    if peak == 0.0:
        return 0.0
    return float(abs(d[-1])) / peak


def _truncated(solve_at, k: float, rho: float, n_max: int | None) -> ModalSolution:
    """``solve_at(n_max)`` at the given order, or adaptively.

    Without an explicit n_max the order grows from default_n_max in steps
    of 8 until the tail of d_n falls to TAIL_THRESHOLD, clamped at
    N_MAX_CAP; a tail still above threshold there raises TruncationError.
    """
    if n_max is not None:
        return solve_at(int(n_max))
    nmax = default_n_max(k, rho)
    while True:
        nmax = min(nmax, N_MAX_CAP)
        solution = solve_at(nmax)
        if solution.truncation_tail <= TAIL_THRESHOLD:
            return solution
        if nmax == N_MAX_CAP:
            raise TruncationError(
                f"modal tail {solution.truncation_tail:.3g} is above {TAIL_THRESHOLD:g} "
                f"at the order cap n_max = {nmax} (k rho = {k * rho:g})")
        nmax += 8


def _family(dim: int, kind: str, nmax: int, z: complex) -> ScaledArray:
    """Orders 0..nmax+1 of J_n / H_n^(1) (2D) or j_n / h_n^(1) (3D) at z.

    ``kind`` is "j" or "h"; the extra order feeds specfun.derivative_all.
    """
    if dim == 2:
        fn = specfun.bessel_j_all if kind == "j" else specfun.bessel_h1_all
    else:
        fn = specfun.spherical_j_all if kind == "j" else specfun.spherical_h1_all
    return fn(nmax + 1, z)


def _phase(dim: int, nmax: int):
    """Per-mode incident phase: i^n in 2D, 1 in 3D."""
    return _I_POW[np.arange(nmax + 1) & 3] if dim == 2 else 1.0


# ---------------------------------------------------------------------------
# Ideal linings (Dirichlet / Neumann obstacle)
# ---------------------------------------------------------------------------
def _check_radius(dim: int, rho: float) -> None:
    if not (math.isfinite(rho) and rho > 0):
        raise DomainError(f"rho must be finite and positive, got {rho}")
    if dim not in (2, 3):
        raise DomainError(f"dim must be 2 or 3, got {dim}")


def _obstacle_coeffs(dim: int, wave: WaveParams, rho: float, neumann: bool,
                     n_max: int | None) -> ModalSolution:
    _check_radius(dim, rho)
    z = complex(wave.k * rho)
    scheme = SchemeSpec.sound_hard() if neumann else SchemeSpec.sound_soft()

    def solve_at(nmax: int) -> ModalSolution:
        js = _family(dim, "j", nmax, z)
        hs = _family(dim, "h", nmax, z)
        if neumann:
            num, den = specfun.derivative_all(js, z), specfun.derivative_all(hs, z)
        else:
            num, den = js[:-1], hs[:-1]
        d = (num / den * -_phase(dim, nmax)).to_complex()
        return ModalSolution(dim=dim, rho=rho, k=wave.k, n_max=nmax, d_n=d,
                             truncation_tail=_tail(d), scheme=scheme)

    return _truncated(solve_at, wave.k, rho, n_max)


def coeffs_sound_hard(dim: int, wave: WaveParams, rho: float,
                      n_max: int | None = None) -> ModalSolution:
    """Neumann obstacle: d_n = -i^n J_n'(k rho)/H_n^(1)'(k rho) in 2D."""
    return _obstacle_coeffs(dim, wave, rho, neumann=True, n_max=n_max)


def coeffs_sound_soft(dim: int, wave: WaveParams, rho: float,
                      n_max: int | None = None) -> ModalSolution:
    """Dirichlet obstacle: d_n = -i^n J_n(k rho)/H_n^(1)(k rho) in 2D."""
    return _obstacle_coeffs(dim, wave, rho, neumann=False, n_max=n_max)


# ---------------------------------------------------------------------------
# Layered transmission problem
# ---------------------------------------------------------------------------
def layer_wavenumbers(scheme: SchemeSpec, rho: float, k: float,
                      core: tuple[float, complex]) -> LayerWavenumbers:
    """Constants of the lining at this rho and of the virtual core (sigma_a, q_a)."""
    sigma_l, q_l = check_passive(*scheme.layer_params(rho))
    sigma_a, q_a = check_passive(*core)
    k_tilde = k * cmath.sqrt(q_l / sigma_l)
    if k_tilde.imag < 0:
        k_tilde = -k_tilde
    k2 = k * cmath.sqrt(q_a / sigma_a)
    if k2.imag < 0:
        k2 = -k2
    c0 = 1.0 / cmath.sqrt(sigma_l * q_l)
    coupling = cmath.sqrt(q_a * sigma_a)
    return LayerWavenumbers(k_tilde=k_tilde, k2=k2, c0=c0, coupling=coupling)


def coeffs_layered(dim: int, wave: WaveParams, rho: float, scheme: SchemeSpec,
                   core: tuple[float, complex], n_max: int | None = None) -> ModalSolution:
    """Solve the layer (rho/2 <= |x| <= rho) + core transmission problem.

    ``core`` is the virtual-space pair (sigma_a, q_a) of the uniform
    contents of the ball of radius rho/2; ``solve`` enters physical-space
    contents.  Modes whose outer elimination loses more than ~14 digits
    to cancellation are flagged in degenerate_modes.
    """
    _check_radius(dim, rho)
    lw = layer_wavenumbers(scheme, rho, wave.k, core)
    zk = complex(wave.k * rho)
    zt = lw.k_tilde * rho
    zt2 = 0.5 * lw.k_tilde * rho
    zc = 0.5 * lw.k2 * rho
    core_factor = lw.c0 * lw.coupling

    def solve_at(nmax: int) -> ModalSolution:
        def with_derivative(kind, z):
            seq = _family(dim, kind, nmax, z)
            return seq[:-1], specfun.derivative_all(seq, z)

        jk, djk = with_derivative("j", zk)
        hk, dhk = with_derivative("h", zk)
        jt, djt = with_derivative("j", zt)
        ht, dht = with_derivative("h", zt)
        jt2, djt2 = with_derivative("j", zt2)
        ht2, dht2 = with_derivative("h", zt2)
        jc, djc = with_derivative("j", zc)

        # Inner interface: ratio Upsilon_0 = b_n / a_n.  Each branch is
        # evaluated on every mode with the other branch's divisor set to 1.
        zero_core = (jc.abs_log() < math.log(BRANCH_THRESHOLD)
                     + np.maximum(0.0, djc.abs_log()))
        jc_div = ScaledArray.where(zero_core, 1.0, jc)
        djc_div = ScaledArray.where(zero_core, djc, 1.0) * core_factor
        f = djc / jc_div * core_factor
        ups = ScaledArray.where(zero_core, -(jt2 / ht2),
                                -(djt2 - f * jt2) / (dht2 - f * ht2))

        # Outer interface: impedance quotient and exterior coefficient.
        q_den = jt + ups * ht
        w = (djt + ups * dht) / q_den / lw.c0
        wh = w * hk
        den = dhk - wh
        cancel = np.maximum(dhk.abs_log(), wh.abs_log()) - den.abs_log()
        degenerate = cancel > math.log(DEGENERATE_CONDITION)
        den_zero = den.mantissa == 0  # exact cancellation: degenerate, d_n = 0
        phase = _phase(dim, nmax)
        d_sv = -(djk - w * jk) / ScaledArray.where(den_zero, 1.0, den) * (phase * ~den_zero)

        a = (jk * phase + d_sv * hk) / q_den
        b = ups * a
        c = ScaledArray.where(zero_core, (a * djt2 + b * dht2) / djc_div,
                              (a * jt2 + b * ht2) / jc_div)

        d = d_sv.to_complex()
        return ModalSolution(
            dim=dim, rho=rho, k=wave.k, n_max=nmax, d_n=d,
            a_n=a.to_complex(), b_n=b.to_complex(), c_n=c.to_complex(),
            truncation_tail=_tail(d), scheme=scheme,
            layer=replace(lw, upsilon0_branch="mixed" if zero_core.any() else "nonzero-core"),
            h_quotient=w.to_complex(),
            branch_flags=tuple(np.where(zero_core, "zero-core", "nonzero-core").tolist()),
            degenerate_modes=tuple(np.flatnonzero(degenerate).tolist()),
            _a_sv=a, _b_sv=b, _c_sv=c)

    return _truncated(solve_at, wave.k, rho, n_max)


def solve(scheme: SchemeSpec, dim: int, wave: WaveParams, rho: float,
          contents: tuple[float, complex] = (1.0, 1.0),
          n_max: int | None = None) -> ModalSolution:
    """Dispatch to the right solver for the scheme kind.

    ``contents`` is the physical-space pair (sigma', q') of the cloaked
    region.  Every scheme checks it; the layered ones solve with its
    virtual-space image, virtual_core_params(sigma', q', rho, dim).
    """
    core = virtual_core_params(*contents, rho, dim)
    if scheme.kind == "sh":
        return coeffs_sound_hard(dim, wave, rho, n_max=n_max)
    if scheme.kind == "ss":
        return coeffs_sound_soft(dim, wave, rho, n_max=n_max)
    return coeffs_layered(dim, wave, rho, scheme, core, n_max=n_max)


# ---------------------------------------------------------------------------
# Far field
# ---------------------------------------------------------------------------
def far_field(solution: ModalSolution, angles: np.ndarray) -> FarFieldPattern:
    """Scattering amplitude on a grid of angles theta = angle(xhat, d).

    2D: A(theta) = sqrt(2/(pi k)) e^{-i pi/4}
                   sum_n eps_n d_n (-i)^n cos(n theta),  eps_0 = 1, eps_n = 2.
    3D: A(theta) = (-i/k) sum_n (2n+1) d_n P_n(cos theta).
    """
    angles = np.asarray(angles, dtype=float)
    k = solution.k
    n = np.arange(solution.n_max + 1)
    if solution.dim == 2:
        eps = np.where(n == 0, 1.0, 2.0)
        coef = eps * solution.d_n * (-1j) ** n
        basis = np.cos(np.outer(n, angles))
        amp = math.sqrt(2.0 / (math.pi * k)) * cmath.exp(-1j * math.pi / 4) * (coef @ basis)
        return FarFieldPattern(angles, amp, "2d")
    pn = specfun.legendre_p_table(solution.n_max, np.cos(angles))
    coef = (2 * n + 1) * solution.d_n
    amp = (-1j / k) * (coef @ pn)
    return FarFieldPattern(angles, amp, "3d")


def leading_asymptotic(dim: int, wave: WaveParams, rho: float,
                       theta: float) -> complex:
    """Leading small-krho term of the sound-hard amplitude.

    2D: e^{i pi/4} sqrt(2 pi/k) (cos(theta)/2 - 1/4) (k rho)^2,
    3D: (1/k) (cos(theta)/2 - 1/3) (k rho)^3.
    The phases follow from the exact modal series (and energy
    conservation); the remainders are O((k rho)^{dim+2}).  Both vanish
    at theta = pi/3 (2D) and theta = arccos(2/3) (3D).
    """
    x = wave.k * rho
    if dim == 2:
        return (cmath.exp(1j * math.pi / 4) * math.sqrt(2.0 * math.pi / wave.k)
                * (math.cos(theta) / 2.0 - 0.25) * x ** 2)
    if dim == 3:
        return (math.cos(theta) / 2.0 - 1.0 / 3.0) * x ** 3 / wave.k
    raise DomainError(f"dim must be 2 or 3, got {dim}")


# ---------------------------------------------------------------------------
# Near fields
# ---------------------------------------------------------------------------
def _region_of(solution: ModalSolution, r: float) -> str:
    if r >= solution.rho:
        return "exterior"
    if solution.is_layered:
        if r >= 0.5 * solution.rho:
            return "layer"
        return "core"
    raise DomainError(
        f"r = {r:.6g} lies inside the obstacle of radius {solution.rho:.6g}")


def _radial_sums(solution: ModalSolution, region: str, r: float,
                 scattered_only: bool, derivative: bool) -> np.ndarray:
    """Per-mode radial factors of the field expansion at radius r.

    The 2D factors carry their i^n phase inside the coefficients; the
    3D assembly applies (2n+1) i^n afterwards.
    """
    nmax, dim = solution.n_max, solution.dim

    def radial(kind, z):
        seq = _family(dim, kind, nmax, z)
        return specfun.derivative_all(seq, z) if derivative else seq[:-1]

    if region == "exterior":
        z = complex(solution.k * r)
        out = solution.d_n * radial("h", z).to_complex()
        if not scattered_only:
            out = out + _phase(dim, nmax) * radial("j", z).to_complex()
        return (solution.k if derivative else 1.0) * out

    if not solution.is_layered:
        raise DomainError("solution has no interior regions")
    lw = solution.layer
    if region == "layer":
        z = lw.k_tilde * r
        sv = solution._a_sv * radial("j", z) + solution._b_sv * radial("h", z)
        return (lw.k_tilde if derivative else 1.0) * sv.to_complex()
    if region == "core":
        z = lw.k2 * r
        if derivative and z == 0:
            raise DomainError("radial derivative undefined at the origin")
        sv = solution._c_sv * radial("j", z)
        return (lw.k2 if derivative else 1.0) * sv.to_complex()
    raise DomainError(f"unknown region {region!r}")


def field_on_circle(solution: ModalSolution, r: float, thetas: np.ndarray,
                    region: str | None = None, scattered_only: bool = False,
                    radial_derivative: bool = False) -> np.ndarray:
    """Total (or scattered) field at radius r for an array of angles.

    2D assembly: u = sum_n eps_n R_n(r) cos(n theta); 3D assembly:
    u = sum_n (2n+1) i^n R_n(r) P_n(cos theta), with R_n the per-mode
    radial factor of the active region.  Points on an interface use the
    outer region by convention.  ``scattered_only`` drops the incident
    wave (exterior region only).
    """
    if r < 0 or not math.isfinite(r):
        raise DomainError(f"radius must be finite and nonnegative, got {r}")
    thetas = np.asarray(thetas, dtype=float)
    if region is None:
        region = _region_of(solution, r)
    if scattered_only and region != "exterior":
        raise DomainError("scattered_only applies to the exterior region")
    radial = _radial_sums(solution, region, r, scattered_only, radial_derivative)
    n = np.arange(solution.n_max + 1)
    if solution.dim == 2:
        eps = np.where(n == 0, 1.0, 2.0)
        return (eps * radial) @ np.cos(np.outer(n, thetas))
    pn = specfun.legendre_p_table(solution.n_max, np.cos(thetas))
    return ((2 * n + 1) * (1j ** n) * radial) @ pn


def scattered_cauchy_data(solution: ModalSolution, radius: float,
                          thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scattered field and its radial derivative on a circle (2D)."""
    u = field_on_circle(solution, radius, thetas, scattered_only=True)
    dudr = field_on_circle(solution, radius, thetas, scattered_only=True,
                           radial_derivative=True)
    return u, dudr
