"""Exact modal solver for concentric circular/spherical scatterers.

Solves time-harmonic scattering of a unit plane wave by
* a sound-soft (Dirichlet) or sound-hard (Neumann) obstacle of radius
  rho, and
* the three-region transmission problem: homogeneous exterior, a lossy
  layer occupying rho/2 <= |x| <= rho with isotropic parameters
  (sigma_l, q_l), and a uniform core inside rho/2 with (sigma_a, q_a) --
  all in the virtual-space description.  The cloaked contents enter
  ``solve_many`` in physical space; media.virtual_core_params converts
  them for the lossy layers only, as the obstacles never use them.

Per mode n, the exterior field is i^n J_n(k r) + d_n H_n^(1)(k r)
(angular factor e^{i n theta}) in 2D, and the axisymmetric reduction
(2n+1) i^n [j_n(k r) + d_n h_n^(1)(k r)] P_n(cos theta) in 3D, where
theta is the angle between the observation direction and the incident
direction.  The layer carries wavenumber k_tilde = k sqrt(q_l/sigma_l),
branch fixed so Im k_tilde >= 0, and the core k_2 = k sqrt(q_a/sigma_a).

Every lining goes through one explicit elimination per mode; only the
exterior condition at x = k rho tells them apart.  It runs on plain
complex arrays of ratios and log-derivatives (see specfun), which stay
in double range however lossy the layer: for the finite sound-hard
layer, Im(kt rho) grows like rho^{-delta}, and J and H there split as
e^{+-Im(kt rho)}.  With DJ = J'/J, DH = H'/H, z1 = kt rho, z2 = kt rho/2,
zc = k_2 rho/2, E = J_n(x)/H_n(x) and F = sqrt(sigma_a q_a)/sqrt(sigma_l q_l),

    d_n = -i^n E (DJ(x) - W)/(DH(x) - W)     (no i^n in 3D),

with W = 0 for SH, W -> inf for SS (d_n = -i^n E) and, for a lossy layer,

    Q = (DJ(z2) - F DJ(zc)) / (DH(z2) - F DJ(zc)),
    X = [J_n(z2)/J_n(z1)] [H_n(z1)/H_n(z2)],       t = -X Q,
    W = (DJ(z1) + t DH(z1)) / ((1 + t) C_0),       C_0 = 1/sqrt(sigma_l q_l).

Q is the inner interface, Upsilon_0 = b_n/a_n = -(J/H)(z2) Q, and W the
impedance-like quotient of the outer one.  E and X are base ratios times
running ratio products (``_values``); |X| ~ e^{-Im z1} underflows
harmlessly.  At a zero of J_n(zc) the fraction's tiny-denominator guard
makes DJ(zc) huge and Q -> 1, so one formula holds there too.  The core
coefficient comes from the layer's Wronskian Wr = J H' - J' H (2i/(pi z)
in 2D, i/z^2 in 3D), not a cancelling sum.

``solve_many`` is the solver's only entry, and ``solve`` is a batch of
one.  ``_eliminate`` runs in passes over (B, n) arrays padded to the
largest n_max of the pass's rows.  Each row starts at default_n_max; a
row whose tail |d_{n_max}| / max|d_n| is above TAIL_THRESHOLD is solved
again 8 orders higher, and one still above it at N_MAX_CAP raises
TruncationError, so no returned solution has a larger tail.

``field_on_circle`` picks its region by one rule (``_REGIONS``), with one error.

``far_field`` is one row of the batched far-field product
(``_far_field_rows``, which the sweeps run over all their rho at once).
A FarFieldPattern holds one amplitude per angle and its dim, 2 or 3,
which sets the valid angle range.

All solvers are pure functions; modes are independent; returned
solutions are immutable.  Far and near fields share one bounded,
read-only, thread-safe cache of angle tables (``_angle_table``): the
cos(n theta) table in 2D and the P_n(cos theta) table in 3D (numpy's
forward recurrence, legvander) of each recently used angle grid, with
its order rows rounded up to a multiple of 32.  It keeps the 20 most
recent tables, at most 20 x rows x M float64 for M angles and rows <=
224 (N_MAX_CAP + 1 rounded up).  Twenty slots hold the 18 tables that
solves with n_max up to 95 cycle through when each takes a far field,
near fields and near_field_deviation (three grids, three row counts,
two dims).  Row n of either table depends only on n and theta (an
elementwise cos, or the forward recurrence), so a sum over the first
rows of a larger table is bit for bit the sum over a table built at its
own size, and no result depends on what the cache holds.  Each sum is
two real products, of the real and of the imaginary parts of the
weighted coefficients with the real table: a complex @ real product
would copy the table to complex on every call and run zgemm or zgemv,
with twice the flops (see also bie._green_far_field).
``scattered_cauchy_data`` builds the same table for its one grid and
leaves the cache alone.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, RangeError, ShapeError, TruncationError
from .media import check_passive, virtual_core_params

TAIL_THRESHOLD = 1e-14
DEGENERATE_CONDITION = 1e14

_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])  # i^n for n mod 4; (-i)^n = _I_POW[-n & 3]


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
    passive (media.check_passive) with q_l != 0.
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
        if self.kind == "layered" and check_passive(self.layer_sigma, self.layer_q)[1] == 0:
            raise DomainError("a layered lining needs q_l != 0, got the layer "
                              f"(sigma_l, q_l) = ({self.layer_sigma:g}, {self.layer_q:g})")

    @classmethod
    def sound_soft(cls) -> "SchemeSpec":
        return cls("ss")

    @classmethod
    def sound_hard(cls) -> "SchemeSpec":
        return cls("sh")

    @classmethod
    def finite_sound_soft(cls, beta_coeff: float = fss_beta_coeff) -> "SchemeSpec":
        return cls("fss", fss_beta_coeff=beta_coeff)

    @classmethod
    def finite_sound_hard(cls, c: float = fsh_c, delta: float = fsh_delta,
                          a: float = fsh_a, b: float = fsh_b) -> "SchemeSpec":
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
class ModalSolution:
    """Modal coefficients of a radial scattering solve.

    d_n are the exterior scattering coefficients (2D convention includes
    the i^n factor; the 3D entries are the axisymmetric reflection
    coefficients multiplying (2n+1) i^n h_n P_n).  For transmission
    solves a_n/b_n (layer) and c_n (core) are also populated.  The layer
    field of mode n, a_n^phys J_n(kt r) + b_n^phys H_n(kt r), and the core
    field c_n^phys J_n(k_2 r) leave the double range factor by factor, so
    the stored coefficients are normalised: each J factor carries H_n at
    its region's outer radius, each H factor is divided by H_n at the inner
    radius,

        layer:  a_n J_n(kt r) H_n(kt rho) + b_n H_n(kt r) / H_n(kt rho/2),
        core:   c_n J_n(k_2 r) H_n(k_2 rho/2),

    i.e. a_n = a_n^phys / H_n(kt rho), b_n = b_n^phys H_n(kt rho/2) and
    c_n = c_n^phys / H_n(k_2 rho/2), with H (h in 3D) at the layer or core
    wavenumber.  Each product J_n(w r) H_n(w R) with r <= R and each
    quotient H_n(w r)/H_n(w R) with r >= R is at most of order one, so
    the coefficients are of the order of the mode's field (underflow to 0
    where that is negligible).  k_layer (Im >= 0) and k_core are the
    layer and core wavenumbers k_tilde and k_2 of a transmission solve,
    None for an obstacle.  n_max and the truncation tail are read off d_n.

    branch_flags is a class constant, always None: the inner interface has
    one formula and so no branches, but bench/spans.py still counts the
    "zero-core" flags of every solve it traces.
    """

    dim: int
    rho: float
    k: float
    d_n: np.ndarray
    a_n: np.ndarray | None = None
    b_n: np.ndarray | None = None
    c_n: np.ndarray | None = None
    k_layer: complex | None = None
    k_core: complex | None = None
    degenerate_modes: tuple[int, ...] = ()

    branch_flags = None

    @property
    def n_max(self) -> int:
        return self.d_n.size - 1

    @property
    def truncation_tail(self) -> float:
        """|d_n| at n_max over the largest |d_n| (0 if every d_n is 0)."""
        peak = float(np.max(np.abs(self.d_n)))
        return float(abs(self.d_n[-1])) / peak if peak else 0.0

    @property
    def is_layered(self) -> bool:
        return self.k_layer is not None


@dataclass(frozen=True)
class FarFieldPattern:
    """Sampled scattering amplitude A(theta), theta = angle(xhat, d), one
    amplitude per angle.

    dim (2 or 3) sets the angle range, [0, 2pi] or [0, pi], and the
    normalisation of the underlying far-field formula: gamma =
    e^{i pi/4}/sqrt(8 pi k) in 2D, gamma = 1/(4 pi) in 3D.
    """

    angles: np.ndarray
    amplitude: np.ndarray
    dim: int

    def __post_init__(self):
        angles = _far_field_angles(self.angles, self.dim)
        amplitude = np.asarray(self.amplitude, dtype=complex)
        if amplitude.shape != angles.shape:
            raise ShapeError(f"{angles.size} angles, but amplitudes of shape {amplitude.shape}")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "amplitude", amplitude)


def _far_field_angles(angles, dim: int) -> np.ndarray:
    """``angles`` as a float array, or DomainError unless dim is 2 or 3 and
    it is a nonempty, finite, strictly increasing 1-d grid in [0, 2pi] (2D)
    or [0, pi] (3D)."""
    if dim not in (2, 3):
        raise DomainError(f"dim must be 2 or 3, got {dim!r}")
    a = np.asarray(angles, dtype=float)
    if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a)) or np.any(np.diff(a) <= 0):
        raise DomainError("angles must be a nonempty, finite, strictly increasing 1-d array")
    hi = 2.0 * math.pi if dim == 2 else math.pi
    if a[0] < 0 or a[-1] > hi + 1e-12:
        raise DomainError("angles outside the valid range")
    return a


# ---------------------------------------------------------------------------
# Truncation and ratio-form sequences
# ---------------------------------------------------------------------------
# Largest n_max whose solve (orders 0..n_max+1 for the derivatives) stays
# within the specfun order cap.
N_MAX_CAP = specfun.ORDER_MAX - 1


def default_n_max(k: float, rho: float) -> int:
    """Initial truncation order: krho + 8 + 4 (krho)^(1/3), rounded up."""
    x = k * rho
    return int(math.ceil(x + 8.0 + 4.0 * x ** (1.0 / 3.0)))


def _log_derivative(ratios: np.ndarray, z) -> np.ndarray:
    """f_n'/f_n = n/z - f_{n+1}/f_n for n along the last axis of ``ratios``,
    at z (a scalar, or one argument per row)."""
    return np.arange(ratios.shape[-1]) / np.asarray(z)[..., None] - ratios


def _values(num, den=()) -> np.ndarray:
    """Orders 0..N-1 of the product of the sequences ``num`` over that of
    ``den``, each in ratio form (Amos-scaled base, N ratios): the base
    quotient at an anchor order times the running product of the ratio
    quotients.

    The anchor is order 0 or 1, whichever has the larger product of |base
    values| over all factors.  J_0 and J_1 share no zero, so it avoids a
    (near) zero of every J factor; for one J sequence it is the larger of
    its orders 0 and 1.  A product of J and H at comparable arguments, or
    a quotient of one kind, stays in double range where its factors need
    not, since its ratios do.
    """
    base, ratio, weight = 1.0, 1.0, 1.0
    for b, r in num:
        base, ratio, weight = base * b, ratio * r, weight * np.abs(b)
    for b, r in den:
        base, ratio, weight = base / b, ratio / r, weight * np.abs(b)
    one = weight[..., 1] > weight[..., 0]  # anchored at order 1
    steps = ratio[..., :-1].copy()
    steps[..., :1] = np.where(one[..., None], 1.0, steps[..., :1])  # skip f_1/f_0
    out = np.empty(ratio.shape, dtype=complex)
    out[..., 0] = np.where(one, base[..., 1] / np.where(one, ratio[..., 0], 1.0), base[..., 0])
    out[..., 1:] = np.where(one, base[..., 1], base[..., 0])[..., None] * np.cumprod(steps, axis=-1)
    return out


# ---------------------------------------------------------------------------
# The one elimination
# ---------------------------------------------------------------------------
def _layer_wavenumbers(scheme: SchemeSpec, rho: float, k: float,
                       core: tuple[float, complex]) -> tuple[complex, complex, complex, complex]:
    """(k_tilde, k_2, C_0, sqrt(q_a sigma_a)) of the lining at this rho and
    of the virtual core (sigma_a, q_a)."""
    sigma_l, q_l = check_passive(*scheme.layer_params(rho))
    sigma_a, q_a = check_passive(*core)
    k_tilde = k * cmath.sqrt(q_l / sigma_l)
    if k_tilde.imag < 0:
        k_tilde = -k_tilde
    k2 = k * cmath.sqrt(q_a / sigma_a)
    if k2 == 0:
        raise DomainError(f"lossy linings need contents with q' != 0, got the virtual "
                          f"core (sigma_a, q_a) = ({sigma_a:g}, {q_a:g})")
    if k2.imag < 0:
        k2 = -k2
    c0 = 1.0 / cmath.sqrt(sigma_l * q_l)
    coupling = cmath.sqrt(q_a * sigma_a)
    return k_tilde, k2, c0, coupling


def _eliminate(dim: int, wave: WaveParams, rho: list[float], scheme: SchemeSpec,
               contents: tuple[float, complex]) -> tuple[ModalSolution, ...]:
    """The solution at each rho, from the one elimination and the
    truncation passes of the module docstring; ``solve_many`` checked dim,
    rho and the physical contents.  A lossy layer converts the contents to
    its virtual core (sigma_a, q_a) at each rho, and flags in
    degenerate_modes the modes whose outer elimination loses more than ~14
    digits to cancellation; the obstacles never use the contents."""
    lossy = scheme.kind not in ("ss", "sh")
    r = np.array(rho)
    zs = [wave.k * r]  # the real x = k rho; a lossy layer adds z1, z2 and zc
    layers = [(None, None)] * len(rho)
    if lossy:
        layers = [_layer_wavenumbers(scheme, x, wave.k, virtual_core_params(*contents, x, dim))
                  for x in rho]
        k_tilde, k2, c0, coupling = np.array(layers, dtype=complex).reshape(-1, 4).T
        zs += [k_tilde * r, 0.5 * k_tilde * r, 0.5 * k2 * r]
        core_factor = c0 * coupling

    orders = [min(default_n_max(wave.k, x), N_MAX_CAP) for x in rho]
    out, rows = [None] * len(rho), list(range(len(rho)))
    while rows:
        sizes = [orders[i] + 1 for i in rows]
        nmax = max(sizes) - 1
        # Orders 0..n+1 give the ratios of orders 0..n; j[i] and h[i] are
        # the rows' sequences (base, ratios) at zs[i].
        j, h = ([fn(sizes, zr[rows], spherical=dim == 3) for zr in zs]
                for fn in (specfun.bessel_j, specfun.bessel_h1))
        dj, dh = ([_log_derivative(ratios, zr[rows]) for (_, ratios), zr in zip(seqs, zs)]
                  for seqs in (j, h))
        phase = _I_POW[np.arange(nmax + 1) & 3] if dim == 2 else 1.0  # incident phase
        e = _values([j[0]], [h[0]])  # J_n(x)/H_n(x); x is real, so no Amos scale
        coeffs, degenerate = (None, None, None), np.zeros((len(rows), nmax + 1), dtype=bool)

        if scheme.kind == "ss":
            num = den = np.ones_like(e)
        elif scheme.kind == "sh":
            num, den = dj[0], dh[0]
        else:
            factor, c0_rows = core_factor[rows, None], c0[rows, None]
            # e^{-Im z1} and e^{-Im z2} restore the Amos scales (Im z1 = 2 Im z2).
            decay1, decay2 = (np.exp(-zs[i][rows].imag)[:, None] for i in (1, 2))
            inner = dh[2] - factor * dj[3]
            q = (dj[2] - factor * dj[3]) / inner
            t = -_values([j[2], h[1]], [j[1], h[2]]) * decay1 * q
            w = (dj[1] + t * dh[1]) / ((1.0 + t) * c0_rows)
            num, den = dj[0] - w, dh[0] - w
            degenerate = np.maximum(np.abs(dh[0]), np.abs(w)) > DEGENERATE_CONDITION * np.abs(den)

        # An exactly zero denominator is a degenerate mode: d_n = 0.
        nonzero = den != 0
        d = -phase * e * np.divide(num, den, out=np.zeros_like(e), where=nonzero)

        if lossy:
            # U = J_n(x) (DH - DJ)/(DH - W) times i^n: the exterior total field at rho.
            u = phase * _values([j[0]]) * np.divide(
                j[0][1] - h[0][1], den, out=np.zeros_like(e), where=nonzero)
            # The normalised coefficients of ModalSolution; J_n(z2) H_n(z1)
            # and H_n(z1)/H_n(z2) carry e^{-Im z2}.
            a = u / (_values([j[1], h[1]]) * (1.0 + t))  # a_n / H_n(z1)
            b = -q * _values([j[2], h[1]]) * decay2 * a  # b_n H_n(z2)
            z2 = zs[2][rows, None]  # core coefficient from the layer's Wronskian at z2
            wronskian = 2j / (math.pi * z2) if dim == 2 else 1j / (z2 * z2)
            c = (a * _values([h[1]], [h[2]]) * decay2 * wronskian  # c_n / H_n(zc)
                 / (_values([j[3], h[3]]) * inner))
            coeffs = a, b, c

        for row, i in enumerate(rows):
            n = orders[i]
            d_n, a_n, b_n, c_n = (None if x is None else x[row, :n + 1] for x in (d, *coeffs))
            solution = ModalSolution(
                dim=dim, rho=rho[i], k=wave.k, d_n=d_n, a_n=a_n, b_n=b_n, c_n=c_n,
                k_layer=layers[i][0], k_core=layers[i][1],
                degenerate_modes=tuple(np.flatnonzero(degenerate[row, :n + 1]).tolist()))
            if solution.truncation_tail <= TAIL_THRESHOLD:
                out[i] = solution
            elif n == N_MAX_CAP:
                raise TruncationError(
                    f"modal tail {solution.truncation_tail:.3g} is above {TAIL_THRESHOLD:g} "
                    f"at the order cap n_max = {n} (k rho = {wave.k * rho[i]:g})")
            orders[i] = min(n + 8, N_MAX_CAP)
        rows = [i for i in rows if out[i] is None]
    return tuple(out)


def solve_many(scheme: SchemeSpec, dim: int, wave: WaveParams, rho_values,
               contents: tuple[float, complex] = (1.0, 1.0)) -> tuple[ModalSolution, ...]:
    """``solve`` at every rho of ``rho_values``, as one batched elimination.

    Each element gets the n_max that ``solve`` picks for it, and equals its
    per-rho solve bit for bit."""
    rho = [float(r) for r in rho_values]
    contents = check_passive(*contents)
    for r in rho:
        if not (math.isfinite(r) and r > 0):
            raise DomainError(f"rho must be finite and positive, got {r}")
    if wave.d.size != dim:
        raise DomainError(f"a {dim}D solve needs a {dim}-vector direction, got {wave.d.size}")
    for x in (wave.k * r for r in rho):  # before k rho sizes the truncation order
        if not x <= specfun.ARGUMENT_GUARD:
            raise RangeError(f"|z| = {x:.3g} exceeds the guard {specfun.ARGUMENT_GUARD:g}")
    return _eliminate(dim, wave, rho, scheme, contents)


def solve(scheme: SchemeSpec, dim: int, wave: WaveParams, rho: float,
          contents: tuple[float, complex] = (1.0, 1.0)) -> ModalSolution:
    """The modal solution of one scheme at one rho: a batch of one.

    ``contents`` is the physical-space pair (sigma', q') of the cloaked
    region.  Every scheme checks it; the lossy ones solve with its
    virtual-space image, virtual_core_params(sigma', q', rho, dim).
    """
    return solve_many(scheme, dim, wave, [rho], contents)[0]


# ---------------------------------------------------------------------------
# Far field
# ---------------------------------------------------------------------------
def far_field(solution: ModalSolution, angles: np.ndarray) -> FarFieldPattern:
    """Scattering amplitude on a grid of angles theta = angle(xhat, d).

    2D: A(theta) = sqrt(2/(pi k)) e^{-i pi/4}
                   sum_n eps_n d_n (-i)^n cos(n theta),  eps_0 = 1, eps_n = 2.
    3D: A(theta) = (-i/k) sum_n (2n+1) d_n P_n(cos theta).
    """
    angles = _far_field_angles(angles, solution.dim)  # before they key the angle tables
    return FarFieldPattern(angles, _far_field_rows([solution], angles)[0], solution.dim)


def _far_field_rows(solutions, angles: np.ndarray) -> np.ndarray:
    """far_field amplitudes of solutions sharing dim and k, one row each,
    from their d_n rows zero-padded into one (B, n) array."""
    dim, k = solutions[0].dim, solutions[0].k
    d = np.zeros((len(solutions), max(s.n_max for s in solutions) + 1), dtype=complex)
    for row, s in zip(d, solutions):
        row[:s.n_max + 1] = s.d_n
    if dim == 2:
        return (math.sqrt(2.0 / (math.pi * k)) * cmath.exp(-1j * math.pi / 4)
                * _angular_sum(2, d * _I_POW[-np.arange(d.shape[-1]) & 3], angles))
    return (-1j / k) * _angular_sum(3, d, angles)


def _angular_sum(dim: int, coef: np.ndarray, angles: np.ndarray,
                 table: np.ndarray | None = None) -> np.ndarray:
    """sum_n eps_n coef_n cos(n theta) in 2D (eps_0 = 1, eps_n = 2), or
    sum_n (2n+1) coef_n P_n(cos theta) in 3D, per row of coef, over the
    cached angle table of ``angles`` unless ``table`` (their _tabulate at
    _table_rows(coef.shape[-1]) rows) is given, as two real products, of
    the real and the imaginary parts (module docstring: no zgemm)."""
    n = np.arange(coef.shape[-1])
    weights = np.where(n == 0, 1.0, 2.0) if dim == 2 else 2 * n + 1
    if table is None:
        table = _angle_table(dim, np.asarray(angles, dtype=float).tobytes(), _table_rows(n.size))
    w, rows = weights * coef, table[:n.size]
    return w.real @ rows + 1j * (w.imag @ rows)


def _table_rows(orders: int) -> int:
    """Angle-table rows for orders 0..orders-1: rounded up to a multiple of
    32, so that nearby n_max share a table."""
    return -(-orders // 32) * 32


@functools.lru_cache(maxsize=20)
def _angle_table(dim: int, angle_bytes: bytes, rows: int) -> np.ndarray:
    """The _tabulate of the M float64 angles packed in ``angle_bytes``."""
    return _tabulate(dim, np.frombuffer(angle_bytes), rows)


def _tabulate(dim: int, angles: np.ndarray, rows: int) -> np.ndarray:
    """Read-only (rows, M) table of cos(n theta) in 2D or P_n(cos theta) in
    3D, n < rows, at the M float64 angles."""
    n = np.arange(rows)
    table = (np.cos(np.outer(n, angles)) if dim == 2
             else np.polynomial.legendre.legvander(np.cos(angles), rows - 1).T)
    table.flags.writeable = False
    return table


def leading_asymptotic(dim: int, wave: WaveParams, rho: float,
                       theta: float) -> complex:
    """Leading small-krho term of the sound-hard amplitude.

    2D: e^{i pi/4} sqrt(2 pi/k) (cos(theta)/2 - 1/4) (k rho)^2,
    3D: (1/k) (cos(theta)/2 - 1/3) (k rho)^3.
    The phases follow from the exact modal series (and energy
    conservation); the remainders are O((k rho)^{dim+2}).  Both vanish
    at theta = pi/3 (2D) and theta = arccos(2/3) (3D).
    """
    if wave.d.size != dim:
        raise DomainError(f"a {dim}D solve needs a {dim}-vector direction, got {wave.d.size}")
    if not 0.0 < rho < math.inf or not math.isfinite(theta):
        raise DomainError(f"need a finite rho > 0 and a finite theta, got {rho!r}, {theta!r}")
    x = wave.k * rho
    if dim == 2:
        return (cmath.exp(1j * math.pi / 4) * math.sqrt(2.0 * math.pi / wave.k)
                * (math.cos(theta) / 2.0 - 0.25) * x ** 2)
    return (math.cos(theta) / 2.0 - 1.0 / 3.0) * x ** 3 / wave.k


# ---------------------------------------------------------------------------
# Near fields
# ---------------------------------------------------------------------------
# Closed radial extent of each region in units of rho, outermost first (an
# interface is in both).  A layered solution has all three, an obstacle one.
_REGIONS = {"exterior": (1.0, math.inf), "layer": (0.5, 1.0), "core": (0.0, 0.5)}


def _radial_sums(solution: ModalSolution, region: str, r: float,
                 derivative: bool) -> np.ndarray:
    """Per-mode radial factors of the field expansion at radius r in a
    region that contains it; in the exterior only those of the scattered
    wave.  Each region's factors are its normalised coefficients
    (ModalSolution) times in-range products and quotients of ratio-form
    sequences; a radial derivative is the wavenumber times each term times
    its log-derivative at r.

    The 2D factors carry their i^n phase inside the coefficients; the
    3D assembly applies (2n+1) i^n afterwards.
    """
    nmax, dim = solution.n_max, solution.dim

    def sequences(fn, *z):
        base, ratios = fn(nmax + 1, np.array(z), spherical=dim == 3)
        return list(zip(base, ratios))

    # Each term: (coefficients, sequences over, sequences under, Amos-scale
    # exponent, the sequence at r whose log-derivative it takes).
    if region == "exterior":
        wavenumber = solution.k
        z = complex(wavenumber * r)
        (h,) = sequences(specfun.bessel_h1, z)
        terms = [(solution.d_n, [h], [], 0.0, h)]
    elif region == "layer":
        wavenumber = solution.k_layer
        z, z1, z2 = wavenumber * r, wavenumber * solution.rho, 0.5 * wavenumber * solution.rho
        (j,), (h, h1, h2) = sequences(specfun.bessel_j, z), sequences(specfun.bessel_h1, z, z1, z2)
        terms = [(solution.a_n, [j, h1], [], z.imag - z1.imag, j),
                 (solution.b_n, [h], [h2], z2.imag - z.imag, h)]
    else:  # the core
        wavenumber = solution.k_core
        z, zc = wavenumber * r, 0.5 * wavenumber * solution.rho
        if derivative and z == 0:
            raise DomainError("radial derivative undefined at the origin")
        (j,), (hc,) = sequences(specfun.bessel_j, z), sequences(specfun.bessel_h1, zc)
        terms = [(solution.c_n, [j, hc], [], z.imag - zc.imag, j)]
    with np.errstate(over="ignore", invalid="ignore"):
        field = sum(coef * _values(num, den) * np.exp(scale)
                    * (_log_derivative(seq[1], z) if derivative else 1.0)
                    for coef, num, den, scale, seq in terms)
    if not np.all(np.isfinite(field)):
        raise RangeError(f"the {region} field at r = {r:.6g} leaves the double range")
    return wavenumber * field if derivative else field


def _circle_terms(solution: ModalSolution, r: float, thetas, region: str | None,
                  scattered_only: bool, radial_derivative: bool):
    """field_on_circle's checked float angles, its region and the per-mode
    factors that multiply cos(n theta) (2D) or (2n+1) P_n(cos theta) (3D)."""
    if r < 0 or not math.isfinite(r):
        raise DomainError(f"radius must be finite and nonnegative, got {r}")
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1:
        raise ShapeError(f"angles must be a 1-d array, got shape {thetas.shape}")
    if not np.all(np.isfinite(thetas)):
        raise DomainError("angles must be finite")
    regions = [name for name, (lo, hi) in _REGIONS.items()
               if (solution.is_layered or name == "exterior")
               and lo * solution.rho <= r <= hi * solution.rho]
    if region is None:
        region = regions[0] if regions else "exterior"
    if region not in regions:
        raise DomainError(f"r = {r:.6g} lies outside the {region} region "
                          f"(rho = {solution.rho:.6g})")
    if scattered_only and region != "exterior":
        raise DomainError("scattered_only applies to the exterior region")
    radial = _radial_sums(solution, region, r, radial_derivative)
    if solution.dim == 3:
        radial = _I_POW[np.arange(solution.n_max + 1) & 3] * radial
    return thetas, region, radial


def field_on_circle(solution: ModalSolution, r: float, thetas: np.ndarray,
                    region: str | None = None, scattered_only: bool = False,
                    radial_derivative: bool = False) -> np.ndarray:
    """Total (or scattered) field at radius r for an array of angles.

    2D assembly: u = sum_n eps_n R_n(r) cos(n theta); 3D assembly:
    u = sum_n (2n+1) i^n R_n(r) P_n(cos theta), with R_n the per-mode
    radial factor of the region: the named one, which must contain r, or
    else the outermost region of the solution that contains r (closed, see
    _REGIONS).  Otherwise DomainError "r = ... lies outside the <region>
    region" names the region, or the exterior if none was named.  In the
    exterior the incident wave is added in closed form, e^{i k r cos theta}
    (radial derivative i k cos theta e^{i k r cos theta}), so it is exact
    at any radius, not only where n_max resolves k r.  ``scattered_only``
    drops it (exterior region only).
    """
    thetas, region, radial = _circle_terms(solution, r, thetas, region,
                                           scattered_only, radial_derivative)
    u = _angular_sum(solution.dim, radial, thetas)
    if region == "exterior" and not scattered_only:
        cos = np.cos(thetas)
        incident = np.exp(1j * solution.k * r * cos)
        u = u + (1j * solution.k * cos * incident if radial_derivative else incident)
    return u


def scattered_cauchy_data(solution: ModalSolution, radius: float,
                          thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scattered field and its radial derivative on a circle (2D).

    Both sums share one angle table, built for this call and not cached:
    the circle grids of a BIE cross-check are shifted by the incident angle,
    so a later call rarely asks for the same grid."""
    thetas, _, u = _circle_terms(solution, radius, thetas, None, True, False)
    _, _, dudr = _circle_terms(solution, radius, thetas, None, True, True)
    table = _tabulate(solution.dim, thetas, _table_rows(u.size))
    return (_angular_sum(solution.dim, u, thetas, table),
            _angular_sum(solution.dim, dudr, thetas, table))
