"""Exact modal solver for concentric radial scatterers in R^N, 2 <= N <= 7.

Solves time-harmonic scattering of a unit plane wave by
* a sound-soft (Dirichlet) or sound-hard (Neumann) obstacle of radius
  rho, and
* the three-region transmission problem: homogeneous exterior, a lossy
  layer occupying rho/2 <= |x| <= rho with isotropic parameters
  (sigma_l, q_l), and a uniform core inside rho/2 with (sigma_a, q_a) --
  all in the virtual-space description.  The cloaked contents enter
  ``solve_many`` in physical space; media.virtual_core_params converts
  them for the lossy layers only, as the obstacles never use them (so
  contents that overflow in virtual space do not stop an obstacle).

Each formula is stated once, in lam = (N - 2)/2: mode n in R^N is
r^-lam Z_{n+lam}(kr), which specfun gives as J_n, H_n = Gamma(lam + 1)
(2/z)^lam Z_{n+lam}(z) (J_n, H_n^(1) in 2D, j_n, h_n^(1) in 3D), and

    u = sum_n w_n i^n [J_n(k r) + d_n H_n(k r)] P_n(cos theta)

outside, theta the angle from the incident direction, w_n the number of
degree-n harmonics (_weights) and P_n the Gegenbauer polynomial with
P_n(1) = 1 (_tabulate).  In 2D, d_n carries the i^n (i^n J_n + d_n H_n),
the one convention that is not a formula in lam.  The layer carries
k_tilde = k sqrt(q_l/sigma_l) and the core k_2 = k sqrt(q_a/sigma_a), on
the principal branch: media.check_passive returns Im q >= 0 (+0.0 for a
tolerated Im q <= 0), so Im k_tilde >= 0 and Im k_2 >= 0.

A lining is one row of _LININGS, and a SchemeSpec is a kind and its
constants.  Every lining hands the one elimination per mode a pair
(P, R): the condition R u_x = P u that it sets on the mode's exterior
total field u at x = k rho (u_x = du/dx).  Only the pair tells the
linings apart.  With DJ = J'/J, DH = H'/H, z1 = kt rho, z2 = kt rho/2,
zc = k_2 rho/2, E = J_n(x)/H_n(x) and F = sqrt(sigma_a q_a)/sqrt(sigma_l q_l),

    d_n = -i^n E (R DJ(x) - P)/(R DH(x) - P)     (i^n in 2D only).

The sound-soft wall is (P, R) = (1, 0), so d_n = -i^n E, and the
sound-hard wall (0, 1).  A lossy layer forms

    Q = (DJ(z2) - F DJ(zc)) / (DH(z2) - F DJ(zc)),
    X = [J_n(z2)/J_n(z1)] [H_n(z1)/H_n(z2)],       t = -X Q,
    (P, R) = (DJ(z1) + t DH(z1), (1 + t) C_0),     C_0 = 1/sqrt(sigma_l q_l).

Q is the inner interface: the same quotient with the core's pair
(F DJ(zc), 1).  Upsilon_0 = b_n/a_n = -(J/H)(z2) Q, and W = P/R is the
impedance-like quotient of the outer interface.  Every lining flags a
mode as degenerate where max(|R DH(x)|, |P|) > DEGENERATE_CONDITION
|R DH(x) - P|, so that the quotient loses more than ~14 digits to
cancellation; the walls never do (1 against 1 for SS, |DH| against |DH|
for SH).  All solvers are pure functions; modes are independent;
returned solutions are immutable.

Each mechanism is stated once, in the function that holds it:
``solve_many`` is the solver's one entry (``solve`` a batch of one) and
checks the wave (WaveParams.require_dim); ``_eliminate`` runs the
elimination in truncation passes, with the one tail formula ``_tails``;
``_REGIONS`` holds the regions' radii, by which ``field_on_circle`` picks
a region and ``_radial_sums`` its radial factors; ``_far_field_rows``
gives the far fields of many solutions at once (``far_field`` is one
row); ``_angular_sum`` sums over the cached tables of ``_angle_table``.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, RangeError, ShapeError, TruncationError
from .media import (DIM_MAX, _check_dim, _check_positive, _number, check_passive,
                    virtual_core_params)

TAIL_THRESHOLD = 1e-14
DEGENERATE_CONDITION = 1e14

_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])  # i^n for n mod 4; (-i)^n = _I_POW[-n & 3]


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WaveParams:
    """Incident plane wave: wavenumber k > 0 and unit direction d in R^N."""

    k: float
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _check_positive("wavenumber", self.k,
                                                      "a finite real number > 0"))
        d = np.asarray(self.d, dtype=float)
        norm = float(np.linalg.norm(d))
        # "not <=" so that a NaN or infinite direction fails too.
        if d.ndim != 1 or not 2 <= d.size <= DIM_MAX or not abs(norm - 1.0) <= 1e-10:
            raise DomainError(f"incident direction must be a vector of 2 to {DIM_MAX} "
                              f"components and unit length")
        object.__setattr__(self, "d", d / norm)

    def require_dim(self, dim: int) -> int:
        """dim as an int, or DomainError unless it is an integer from 2 to
        DIM_MAX and d a dim-vector, as a solve needs."""
        dim = _check_dim(dim, DIM_MAX)
        if self.d.size != dim:
            raise DomainError(f"a {dim}D solve needs a {dim}-vector direction, got {self.d.size}")
        return dim


def _finite_positive(kind: str, constants: tuple) -> tuple[float, ...]:
    if not all(_number(c) and c > 0 for c in constants):
        raise DomainError(f"{kind.upper()} requires finite constants > 0, got {constants}")
    return tuple(map(float, constants))


def _passive_nonzero(kind: str, layer: tuple) -> tuple[float, complex]:
    if (checked := check_passive(*layer))[1] == 0:
        raise DomainError(f"a layered lining needs q_l != 0, got (sigma_l, q_l) = {layer}")
    return checked


# kind -> (defaults of its constants, check of its constants, the model a 2D
# analysis.sweep(model="auto") fits, its wall's (P, R) or layer's law).
_LININGS = {
    "ss": ((), _finite_positive, "inverse-log", (1.0, 0.0)),  # u = 0
    "sh": ((), _finite_positive, "power-law", (0.0, 1.0)),  # u_x = 0
    "fss": ((2.5,), _finite_positive, "inverse-log",
            lambda rho, beta: (1.0, 1.0 + 1j * beta / rho ** 2)),
    "fsh": ((1.0, 0.5, 3.0, 2.0), _finite_positive, "power-law",
            lambda rho, c, delta, a, b: (c * rho ** (2.0 + 2.0 * delta), a + 1j * b)),
    "layered": ((1.0, 1.0 + 0j), _passive_nonzero, "inverse-log", lambda rho, *layer: layer),
}
_FSS, _FSH = _LININGS["fss"][0], _LININGS["fsh"][0]

# Closed radial extent of each region in units of rho, outermost first (an
# interface is in both).  A layered solution has all three, an obstacle one.
_REGIONS = {"exterior": (1.0, math.inf), "layer": (0.5, 1.0), "core": (0.0, 0.5)}


@dataclass(frozen=True)
class SchemeSpec:
    """A _LININGS kind and its own constants, in order; its defaults if omitted."""

    kind: str
    constants: tuple | None = None

    def __post_init__(self):
        if self.kind not in _LININGS:
            raise DomainError(f"unknown scheme kind {self.kind!r}")
        defaults, check, _, _ = _LININGS[self.kind]
        constants = defaults if self.constants is None else tuple(self.constants)
        if len(constants) != len(defaults):
            raise DomainError(f"{self.kind!r} takes {len(defaults)} constants, got {constants}")
        object.__setattr__(self, "constants", check(self.kind, constants))

    @classmethod
    def sound_soft(cls) -> "SchemeSpec":
        return cls("ss")

    @classmethod
    def sound_hard(cls) -> "SchemeSpec":
        return cls("sh")

    @classmethod
    def finite_sound_soft(cls, beta_coeff: float = _FSS[0]) -> "SchemeSpec":
        return cls("fss", (beta_coeff,))

    @classmethod
    def finite_sound_hard(cls, c: float = _FSH[0], delta: float = _FSH[1],
                          a: float = _FSH[2], b: float = _FSH[3]) -> "SchemeSpec":
        return cls("fsh", (c, delta, a, b))

    @classmethod
    def layered(cls, sigma_l: float, q_l: complex) -> "SchemeSpec":
        return cls("layered", (sigma_l, q_l))

    def layer_params(self, rho: float) -> tuple[float, complex]:
        """Virtual-space (sigma_l, q_l) of the lossy layer at a finite rho > 0."""
        law = _LININGS[self.kind][-1]
        if not callable(law):
            raise DomainError(f"scheme {self.kind!r} has no lossy layer")
        return law(_check_positive("rho", rho), *self.constants)


@dataclass(frozen=True)
class ModalSolution:
    """Modal coefficients of a radial scattering solve.

    d_n are the exterior coefficients of the module docstring (with the
    i^n in 2D), and a transmission solve has a_n/b_n (layer) and c_n
    (core).  Its layer field of mode n, a_n^phys J_n(kt r) +
    b_n^phys H_n(kt r), and core field c_n^phys J_n(k_2 r) leave the double
    range factor by factor, so the stored coefficients are normalised: each
    J factor carries H_n at its region's outer radius, each H factor is
    divided by H_n at the inner radius,

        layer:  a_n J_n(kt r) H_n(kt rho) + b_n H_n(kt r) / H_n(kt rho/2),
        core:   c_n J_n(k_2 r) H_n(k_2 rho/2),

    i.e. a_n = a_n^phys / H_n(kt rho), b_n = b_n^phys H_n(kt rho/2) and
    c_n = c_n^phys / H_n(k_2 rho/2).  Each J_n(w r) H_n(w R) with r <= R and
    each H_n(w r)/H_n(w R) with r >= R is at most of order one, so the
    coefficients are of the order of the mode's field (underflow to 0
    where that is negligible).  k_layer (Im >= 0) and k_core are k_tilde
    and k_2, None for an obstacle.  n_max and the tail are read off d_n.
    branch_flags is always None (one inner-interface formula), and
    bench/spans.py still counts its "zero-core" flags.
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
        return float(_tails(np.abs(self.d_n)[None], np.array([self.n_max]))[0])

    @property
    def is_layered(self) -> bool:
        return self.k_layer is not None


@dataclass(frozen=True)
class FarFieldPattern:
    """Sampled scattering amplitude A(theta), theta = angle(xhat, d), one
    amplitude per angle, with u^s ~ e^{ikr} r^{-(dim-1)/2} A(xhat); the
    angles lie in [0, 2pi] in 2D and in [0, pi] above."""

    angles: np.ndarray
    amplitude: np.ndarray
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_dim(self.dim, DIM_MAX))
        angles = _far_field_angles(self.angles, self.dim)
        amplitude = np.asarray(self.amplitude, dtype=complex)
        if amplitude.shape != angles.shape:
            raise ShapeError(f"{angles.size} angles, but amplitudes of shape {amplitude.shape}")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "amplitude", amplitude)


def _far_field_angles(angles, dim: int) -> np.ndarray:
    """``angles`` as a float array, or DomainError unless it is a nonempty,
    finite, strictly increasing 1-d grid in the range of FarFieldPattern."""
    a = np.asarray(angles, dtype=float)
    if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a)) or np.any(np.diff(a) <= 0):
        raise DomainError("angles must be a nonempty, finite, strictly increasing 1-d array")
    hi = 2.0 * math.pi if _check_dim(dim, DIM_MAX) == 2 else math.pi
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
    """Initial truncation order: x + max(8 + 4t, 1 + 6.6t), rounded up,
    with x = k rho and t = x^(1/3).  Past the turning point n = x,
    |J_n(x)/H_n(x)| falls like (1/2) e^{-(4/3) zeta^{3/2}}, zeta = 2^{1/3}
    (n - x)/t (DLMF 10.20), and the walls' d_n with it: below
    TAIL_THRESHOLD from n - x = 6.53 t.  The second term is the larger from
    x = (7/2.6)^3, about 19.5; below it the classical x + 8 + 4t stays, to
    the bit, as each term's sum from x."""
    x = k * rho
    t = x ** (1.0 / 3.0)
    return int(math.ceil(max(x + 8.0 + 4.0 * t, x + 1.0 + 6.6 * t)))


def _tails(magnitude: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Each row's truncation tail: its |d_n| (a row of ``magnitude``) at its
    n_max (``last``) over its largest |d_n| up to there, 0 if all are 0."""
    peak = np.max(magnitude, axis=1, where=np.arange(magnitude.shape[1]) <= last[:, None],
                  initial=0.0)
    return np.divide(magnitude[np.arange(last.size), last], peak,
                     out=np.zeros_like(peak), where=peak != 0)


def _log_derivative(ratios: np.ndarray, z) -> np.ndarray:
    """f_n'/f_n = n/z - f_{n+1}/f_n for n along the last axis of ``ratios``,
    at z (a scalar, or one argument per row)."""
    return np.arange(ratios.shape[-1]) / np.asarray(z)[..., None] - ratios


def _values(num, den=()) -> np.ndarray:
    """Orders 0..N-1 of the product of the sequences ``num`` over that of
    ``den``, each in ratio form (Amos-scaled base, N ratios): the base
    quotient at an anchor order, 0 or 1, whichever has the larger product
    of |base values| over all factors (J_0 and J_1 share no zero), times
    the running product of the ratio quotients.  A product of J and H at
    comparable arguments, or a quotient of one kind, stays in double range
    where its factors need not, since its ratios do."""
    (base, ratio), *num = num
    weight = np.abs(base)
    for b, r in num:
        base, ratio, weight = base * b, ratio * r, weight * np.abs(b)
    for b, r in den:
        base, ratio, weight = base / b, ratio / r, weight * np.abs(b)
    one = weight[..., 1] > weight[..., 0]  # anchored at order 1
    anchor = np.where(one, base[..., 1], base[..., 0])
    out = np.empty(ratio.shape, dtype=complex)
    steps = out[..., 1:]  # orders 1..N-1: the anchor times a running product
    steps[...] = ratio[..., :-1]
    steps[one, :1] = 1.0  # skip f_1/f_0
    np.cumprod(steps, axis=-1, out=steps)
    np.multiply(anchor[..., None], steps, out=steps)
    out[..., 0] = anchor / np.where(one, ratio[..., 0], 1.0)
    return out


# ---------------------------------------------------------------------------
# The one elimination
# ---------------------------------------------------------------------------
def _layer_wavenumbers(scheme: SchemeSpec, rho: float, k: float,
                       core: tuple[float, complex]) -> tuple[complex, complex, complex, complex]:
    """(k_tilde, k_2, C_0, sqrt(q_a sigma_a)) of the lining at this rho and
    of the virtual core (sigma_a, q_a) that virtual_core_params checked.
    Where sigma_l, k_tilde or C_0 is not a normal double (FSH at a small C
    or a large delta), a RangeError names the lining, rho and
    (sigma_l, q_l); where k_2 or sqrt(q_a sigma_a) is not (a subnormal
    sigma_a), it names rho and the core.  q_a = 0 is a DomainError."""
    where = f"the {scheme.kind} layer at rho = {rho:g}"
    try:
        sigma_l, q_l = scheme.layer_params(rho)
    except OverflowError:  # rho ** p above the double range
        raise RangeError(f"{where} leaves the double range: (sigma_l, q_l) overflows") from None

    def normal(v):
        return cmath.isfinite(v) and abs(v) >= sys.float_info.min

    if normal(sigma_l):
        k_tilde, c0 = k * cmath.sqrt(q_l / sigma_l), 1.0 / cmath.sqrt(sigma_l * q_l)
    if not (normal(sigma_l) and normal(k_tilde) and normal(c0)):
        raise RangeError(f"{where} leaves the double range: "
                         f"(sigma_l, q_l) = ({sigma_l:g}, {q_l:g})")
    sigma_a, q_a = core
    if q_a == 0:
        raise DomainError(f"lossy linings need contents with q' != 0, got the virtual "
                          f"core (sigma_a, q_a) = ({sigma_a:g}, {q_a:g})")
    k2, coupling = k * cmath.sqrt(q_a / sigma_a), cmath.sqrt(q_a * sigma_a)
    if not (normal(k2) and normal(coupling)):
        raise RangeError(f"the virtual core at rho = {rho:g} leaves the double range: "
                         f"(sigma_a, q_a) = ({sigma_a:g}, {q_a:g})")
    return k_tilde, k2, c0, coupling


def _eliminate(dim: int, wave: WaveParams, rho: list[float], scheme: SchemeSpec,
               contents: tuple[float, complex]) -> tuple[ModalSolution, ...]:
    """The solution at each rho, from the one elimination of the module
    docstring; ``solve_many`` checked dim, rho and the physical contents.
    A wall hands the exterior its pair (P, R) from _LININGS, a lossy layer
    the one it forms over the virtual core of the contents at each rho.

    The elimination runs on complex arrays of ratios and log-derivatives
    (specfun), which stay in double range however lossy the layer (for
    FSH, Im(kt rho) grows like rho^{-delta}, and J and H split as
    e^{+-Im(kt rho)}); E, X and the coefficients come from _values.  It
    runs in passes over (B, n) arrays padded to the pass's largest n_max.
    Each row starts at default_n_max, whose tail |d_{n_max}| / max|d_n|
    (_tails) is within TAIL_THRESHOLD for the linings up to k rho = 160; a
    row above it (contents that slow the decay) is solved again 8 orders
    higher, and one still above it at N_MAX_CAP raises TruncationError.
    A pass makes one specfun.bessel_j and one specfun.bessel_h1 call over
    its argument arrays concatenated, each row at its own order: x for an
    obstacle (B rows), and x, z1, z2 and zc for a lossy layer (4B).
    """
    law = _LININGS[scheme.kind][-1]  # a wall's pair (P, R), or a lossy layer's law
    lam = (dim - 2) / 2
    radii = np.array(rho)
    zs = [wave.k * radii]  # the real x = k rho; a lossy layer adds z1, z2 and zc
    layers = [(None, None)] * len(rho)
    if callable(law):
        layers = [_layer_wavenumbers(scheme, x, wave.k, virtual_core_params(*contents, x, dim))
                  for x in rho]
        k_tilde, k2, c0, coupling = np.array(layers, dtype=complex).reshape(-1, 4).T
        # z1 and z2 at the layer's outer radius rho and its inner one, zc at the core's.
        zs += [k_tilde * radii, _REGIONS["layer"][0] * k_tilde * radii,
               _REGIONS["core"][1] * k2 * radii]

    orders = [min(default_n_max(wave.k, x), N_MAX_CAP) for x in rho]
    out, rows = [None] * len(rho), list(range(len(rho)))
    while rows:
        sizes = [orders[i] + 1 for i in rows]
        nmax = max(sizes) - 1
        # Orders 0..n+1 give the ratios of orders 0..n.  One call per kind
        # over the rows' arguments at every z of zs, concatenated: j[i] and
        # h[i] are the rows' sequences (base, ratios) at zs[i], dj[i] and
        # dh[i] their log-derivatives, all views of the one call's arrays.
        z = np.concatenate([zr[rows] for zr in zs])
        parts = [slice(i * len(rows), (i + 1) * len(rows)) for i in range(len(zs))]
        seqs, logds = [], []
        for fn in (specfun.bessel_j, specfun.bessel_h1):
            base, ratios = fn(sizes * len(zs), z, lam)
            logd = _log_derivative(ratios, z)
            seqs.append([(base[part], ratios[part]) for part in parts])
            logds.append([logd[part] for part in parts])
        (j, h), (dj, dh) = seqs, logds
        phase = _I_POW[np.arange(nmax + 1) & 3] if dim == 2 else 1.0  # incident phase
        e = _values([j[0]], [h[0]])  # J_n(x)/H_n(x); x is real, so no Amos scale

        coeffs = (None, None, None)
        if callable(law):
            # The inner interface is the quotient of the core's pair (F DJ(zc), 1).
            # At a zero of J_n(zc) the fraction's tiny-denominator guard makes
            # DJ(zc) huge and Q -> 1, so this one formula holds there too.
            core = (c0 * coupling)[rows, None] * dj[3]
            inner = dh[2] - core
            q = (dj[2] - core) / inner
            # e^{-Im z1} and e^{-Im z2} restore the Amos scales (Im z1 = 2 Im z2);
            # |X| ~ e^{-Im z1} underflows harmlessly.
            decay1, decay2 = (np.exp(-zs[i][rows].imag)[:, None] for i in (1, 2))
            t = -_values([j[2], h[1]], [j[1], h[2]]) * decay1 * q
            p, r = dj[1] + t * dh[1], (1.0 + t) * c0[rows, None]
        else:
            p, r = law
        rdh = r * dh[0]
        den = rdh - p
        degenerate = np.maximum(np.abs(rdh), np.abs(p)) > DEGENERATE_CONDITION * np.abs(den)
        # An exactly zero denominator is a degenerate mode: d_n = 0.
        nonzero = den != 0
        d = -phase * e * np.divide(r * dj[0] - p, den, out=np.zeros_like(e), where=nonzero)

        if callable(law):
            # a_n / H_n(z1) = U / (J_n(z1) H_n(z1) (1 + t)), where U = i^n J_n(x)
            # R (DH - DJ)/(R DH - P) is the exterior total field at rho and
            # R = (1 + t) C_0.  J_n(z2) H_n(z1) and H_n(z1)/H_n(z2) carry e^{-Im z2}.
            a = phase * _values([j[0]]) * c0[rows, None] * np.divide(
                j[0][1] - h[0][1], den, out=np.zeros_like(e), where=nonzero) / _values([j[1], h[1]])
            b = -q * _values([j[2], h[1]]) * decay2 * a  # b_n H_n(z2)
            # The core coefficient from the layer's Wronskian J H' - J' H at z2,
            # not a cancelling sum: Gamma(lam + 1)^2 (2/z)^(2 lam) 2i/(pi z),
            # 2i/(pi z) in 2D and i/z^2 in 3D.
            z2 = zs[2][rows, None]
            wronskian = (2j / (math.pi * z2)
                         * (math.gamma(lam + 1.0) ** 2 * (2.0 / z2) ** (dim - 2)))
            c = (a * _values([h[1]], [h[2]]) * decay2 * wronskian  # c_n / H_n(zc)
                 / (_values([j[3], h[3]]) * inner))
            coeffs = a, b, c

        tails = _tails(np.abs(d), np.array(sizes) - 1).tolist()
        flagged = degenerate.any(axis=1).tolist()
        for row, i in enumerate(rows):
            n = orders[i]
            if tails[row] <= TAIL_THRESHOLD:
                d_n, a_n, b_n, c_n = (None if x is None else x[row, :n + 1] for x in (d, *coeffs))
                out[i] = ModalSolution(
                    dim=dim, rho=rho[i], k=wave.k, d_n=d_n, a_n=a_n, b_n=b_n, c_n=c_n,
                    k_layer=layers[i][0], k_core=layers[i][1],
                    degenerate_modes=tuple(np.flatnonzero(degenerate[row, :n + 1]).tolist())
                    if flagged[row] else ())
            elif n == N_MAX_CAP:
                raise TruncationError(
                    f"modal tail {tails[row]:.3g} is above {TAIL_THRESHOLD:g} "
                    f"at the order cap n_max = {n} (k rho = {wave.k * rho[i]:g})")
            orders[i] = min(n + 8, N_MAX_CAP)
        rows = [i for i in rows if out[i] is None]
    return tuple(out)


def solve_many(scheme: SchemeSpec, dim: int, wave: WaveParams, rho_values,
               contents: tuple[float, complex] = (1.0, 1.0)) -> tuple[ModalSolution, ...]:
    """``solve`` at every rho of ``rho_values``, as one batched elimination.

    Each element gets the n_max that ``solve`` picks for it, and equals its
    per-rho solve bit for bit."""
    rho = [_check_positive("rho", r) for r in rho_values]
    contents = check_passive(*contents)
    dim = wave.require_dim(dim)
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
    """Scattering amplitude A(theta) = C sum_n w_n d_n P_n(cos theta) on a
    grid of angles theta = angle(xhat, d), with 2D's d_n times (-i)^n and
    C = sqrt(2/(pi k)) Gamma(lam + 1) (2/k)^lam e^{-i(2 lam + 1) pi/4}, from
    i^n H_n(kr) ~ C e^{ikr} r^{-lam-1/2}: sqrt(2/(pi k)) e^{-i pi/4} in 2D
    and -i/k in 3D."""
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
        d *= _I_POW[-np.arange(d.shape[-1]) & 3]
    # C = Gamma(lam + 1)/Gamma(3/2)^m sqrt(2/(pi k))^(1 - m) k^-m (-i)^((m + 1)/2),
    # m = 2 lam, whose factors are exactly 1 where 2D and 3D need none.
    m = dim - 2
    gain = (math.gamma(m / 2 + 1.0) / math.gamma(1.5) ** m
            * math.sqrt(2.0 / (math.pi * k)) ** (1 - m) / k ** m)
    phase = _I_POW[-((m + 1) // 2) & 3] * (cmath.exp(-1j * math.pi / 4) if m % 2 == 0 else 1.0)
    return gain * complex(phase) * _angular_sum(dim, d, angles)


def _angular_sum(dim: int, coef: np.ndarray, angles: np.ndarray,
                 table: np.ndarray | None = None) -> np.ndarray:
    """sum_n w_n coef_n P_n(cos theta) per row of coef, over the cached
    angle table of ``angles`` unless ``table`` (their _tabulate at
    _table_rows(coef.shape[-1]) rows) is given.  The sum is two real
    products, of the real and of the imaginary parts of the weighted
    coefficients with the real table: a complex @ real product would copy
    the table to complex on every call and run zgemm or zgemv, with twice
    the flops (see also bie._add_product)."""
    n, size = coef.shape[-1], _table_rows(coef.shape[-1])
    if table is None:
        table = _angle_table(dim, np.asarray(angles, dtype=float).tobytes(), size)
    w, rows = _weights(dim, size)[:n] * coef, table[:n]
    return w.real @ rows + 1j * (w.imag @ rows)


@functools.lru_cache(maxsize=None)  # at most 6 dims x 7 row counts
def _weights(dim: int, rows: int) -> np.ndarray:
    """Read-only w_0 = 1 and w_n = 2(n + lam)/(n + 2 lam) C(n + 2 lam, n),
    n < rows, the number of degree-n harmonics in R^dim, in exact integers:
    eps_n = (1, 2, 2, ...) in 2D and 2n + 1 in 3D."""
    m = dim - 2
    weights = np.array([1] + [(2 * n + m) * math.comb(n + m, n) // (n + m)
                              for n in range(1, rows)], dtype=float)
    weights.flags.writeable = False
    return weights


def _table_rows(orders: int) -> int:
    """Angle-table rows for orders 0..orders-1: rounded up to a multiple of
    32, so that nearby n_max share a table."""
    return -(-orders // 32) * 32


@functools.lru_cache(maxsize=20)
def _angle_table(dim: int, angle_bytes: bytes, rows: int) -> np.ndarray:
    """The _tabulate of the M float64 angles packed in ``angle_bytes``,
    from the one bounded, read-only, thread-safe cache that far and near
    fields share: the 20 most recent tables, of rows <= 224 (N_MAX_CAP + 1
    rounded up), hold the 18 that solves with n_max up to 95 cycle through
    when each takes a far field, near fields and near_field_deviation in
    2D and 3D.  Row n depends only on n and theta, so a sum over the first
    rows of a larger table is bit for bit the sum over one of its own
    size, and no result depends on what the cache holds."""
    return _tabulate(dim, np.frombuffer(angle_bytes), rows)


def _tabulate(dim: int, angles: np.ndarray, rows: int) -> np.ndarray:
    """Read-only (rows, M) table of P_n(x), x = cos theta, n < rows, at the
    M float64 angles: P_0 = 1, P_1 = x and the normalised Gegenbauer step
    P_{n+1} = ((2n + 2 lam) x P_n - n P_{n-1})/(n + 2 lam), cos n theta in
    2D and in 3D the Legendre P_n of numpy's legvander, bit for bit."""
    x, twice = np.cos(angles), dim - 2
    table = np.empty((rows, x.size))
    table[0], table[1:2] = 1.0, x
    for n in range(1, rows - 1):
        table[n + 1] = (table[n] * x * (2 * n + twice) - table[n - 1] * n) / (n + twice)
    table.flags.writeable = False
    return table


def leading_asymptotic(dim: int, wave: WaveParams, rho: float,
                       theta: float) -> complex:
    """Leading small-krho term of the sound-hard amplitude in R^N,

        e^{i(1 - 2 lam) pi/4} sqrt(2 pi/k) (cos(theta)/2 - (N - 1)/(2N)) (k rho)^N
        / ((N - 1) Gamma(lam + 1) (2k)^lam),

    from d_0 = -K and d_1 = K/(N - 1), K = i pi x^N/(2^(N-1) N Gamma(lam + 1)^2),
    x = k rho: e^{i pi/4} sqrt(2 pi/k) (cos(theta)/2 - 1/4) x^2 in 2D and
    (cos(theta)/2 - 1/3) x^3/k in 3D, with a remainder O(x^(N+2)).  It
    vanishes at theta* = arccos((N - 1)/N): pi/3 in 2D, arccos(2/3) in 3D.
    """
    dim = wave.require_dim(dim)
    rho = _check_positive("rho", rho)
    if not _number(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    lam = (dim - 2) / 2
    return (cmath.exp(1j * (1 - 2 * lam) * math.pi / 4) * math.sqrt(2.0 * math.pi / wave.k)
            * (math.cos(theta) / 2.0 - (dim - 1) / (2 * dim)) * (wave.k * rho) ** dim
            / ((dim - 1) * math.gamma(lam + 1.0) * (2.0 * wave.k) ** lam))


# ---------------------------------------------------------------------------
# Near fields
# ---------------------------------------------------------------------------
def _radial_sums(solution: ModalSolution, region: str, r: float,
                 derivative: bool) -> list[np.ndarray]:
    """Per-mode radial factors of the field at radius r in a region that
    contains it (in the exterior, of the scattered wave), then with
    ``derivative`` those of its radial derivative: the normalised
    coefficients (ModalSolution) times in-range products and quotients of
    ratio-form sequences, and for the derivative the wavenumber times each
    term times its log-derivative at r.  The i^n of N >= 3 is applied by
    _circle_terms."""
    nmax, lam = solution.n_max, (solution.dim - 2) / 2

    def sequences(fn, *z):
        base, ratios = fn(nmax + 1, np.array(z), lam)
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
        z, z1 = wavenumber * r, wavenumber * solution.rho
        z2 = _REGIONS["layer"][0] * wavenumber * solution.rho
        (j,), (h, h1, h2) = sequences(specfun.bessel_j, z), sequences(specfun.bessel_h1, z, z1, z2)
        terms = [(solution.a_n, [j, h1], [], z.imag - z1.imag, j),
                 (solution.b_n, [h], [h2], z2.imag - z.imag, h)]
    else:  # the core
        wavenumber = solution.k_core
        z, zc = wavenumber * r, _REGIONS["core"][1] * wavenumber * solution.rho
        if derivative and z == 0:
            raise DomainError("radial derivative undefined at the origin")
        (j,), (hc,) = sequences(specfun.bessel_j, z), sequences(specfun.bessel_h1, zc)
        terms = [(solution.c_n, [j, hc], [], z.imag - zc.imag, j)]
    with np.errstate(over="ignore", invalid="ignore"):
        values = [coef * _values(num, den) * np.exp(scale) for coef, num, den, scale, _ in terms]
        sums = [sum(values)]
        if derivative:
            sums.append(wavenumber * sum(v * _log_derivative(seq[1], z)
                                         for v, (*_, seq) in zip(values, terms)))
    if not np.all(np.isfinite(sums)):
        raise RangeError(f"the {region} field at r = {r:.6g} leaves the double range")
    return sums


def _circle_terms(solution: ModalSolution, r: float, thetas, region: str | None,
                  scattered_only: bool, radial_derivative: bool):
    """field_on_circle's checked float radius and angles, its region and the
    per-mode factors that multiply w_n P_n(cos theta): those of the field,
    then with ``radial_derivative`` those of its radial derivative
    (_radial_sums), times i^n in N >= 3."""
    if not (_number(r) and (r := float(r)) >= 0):
        raise DomainError(f"radius must be finite and nonnegative, got {r!r}")
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1:
        raise ShapeError(f"angles must be a 1-d array, got shape {thetas.shape}")
    if not np.all(np.isfinite(thetas)):
        raise DomainError("angles must be finite")
    available = [name for name in _REGIONS if solution.is_layered or name == "exterior"]
    if region is not None and region not in available:
        raise DomainError(f"the solution has no {region!r} region, only {', '.join(available)}")
    regions = [name for name in available
               if _REGIONS[name][0] * solution.rho <= r <= _REGIONS[name][1] * solution.rho]
    if region is None:
        region = regions[0] if regions else "exterior"
    if region not in regions:
        raise DomainError(f"r = {r:.6g} lies outside the {region} region "
                          f"(rho = {solution.rho:.6g})")
    if scattered_only and region != "exterior":
        raise DomainError("scattered_only applies to the exterior region")
    radial = _radial_sums(solution, region, r, radial_derivative)
    if solution.dim != 2:
        radial = [_I_POW[np.arange(solution.n_max + 1) & 3] * sums for sums in radial]
    return r, thetas, region, radial


def field_on_circle(solution: ModalSolution, r: float, thetas: np.ndarray,
                    region: str | None = None, scattered_only: bool = False,
                    radial_derivative: bool = False) -> np.ndarray:
    """Total (or scattered) field at radius r for an array of angles.

    u = sum_n w_n i^n R_n(r) P_n(cos theta) (the i^n inside R_n in 2D),
    with R_n the per-mode radial factor of the named region, which must
    contain r, or else of the outermost region of the solution that
    contains r (closed, see _REGIONS).  Otherwise DomainError "r = ...
    lies outside the <region> region" names the region, or the exterior
    if none was named; a name that is not one of the solution's regions
    raises a DomainError that lists them.  In the exterior the incident
    wave is added in closed form, e^{i k r cos theta} (radial derivative
    i k cos theta e^{i k r cos theta}), exact at any radius;
    ``scattered_only`` drops it (exterior only).  The angles must be a
    finite 1-d array (DomainError, ShapeError).

    n_max is set by the tail of d_n alone, but the terms at r = rho are of
    the size of J_n(k rho), about sqrt|d_n|: at large k rho the exterior
    and layer fields there differ by far more than TAIL_THRESHOLD of the
    field (8.5e-8 for 3D FSS at k rho = 35, rho = 0.1; 2.1e-11 with eight
    more orders).
    """
    r, thetas, region, radial = _circle_terms(solution, r, thetas, region,
                                              scattered_only, radial_derivative)
    u = _angular_sum(solution.dim, radial[-1], thetas)
    if region == "exterior" and not scattered_only:
        cos = np.cos(thetas)
        incident = np.exp(1j * solution.k * r * cos)
        u = u + (1j * solution.k * cos * incident if radial_derivative else incident)
    return u


def scattered_cauchy_data(solution: ModalSolution, radius: float,
                          thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scattered field and its radial derivative at r = ``radius``, in R^N.

    One pass over the exterior terms gives the radial factors of both (one
    Hankel sequence), and both sums share one angle table, built for this
    call and not cached: the circle grids of a BIE cross-check are shifted
    by the incident angle, so a later call rarely asks for the same grid."""
    _, thetas, _, radial = _circle_terms(solution, radius, thetas, None, True, True)
    table = _tabulate(solution.dim, thetas, _table_rows(radial[0].size))
    return tuple(_angular_sum(solution.dim, sums, thetas, table) for sums in radial)
