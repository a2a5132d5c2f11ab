"""Exact modal solver for concentric circular/spherical scatterers.

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

Per mode n, the exterior field is i^n J_n(k r) + d_n H_n^(1)(k r)
(angular factor e^{i n theta}) in 2D, and the axisymmetric reduction
(2n+1) i^n [j_n(k r) + d_n h_n^(1)(k r)] P_n(cos theta) in 3D, where
theta is the angle between the observation direction and the incident
direction.  The layer carries wavenumber k_tilde = k sqrt(q_l/sigma_l)
and the core k_2 = k sqrt(q_a/sigma_a), both on the principal branch:
media.check_passive returns Im q >= 0 (+0.0 for a tolerated Im q <= 0),
so Im k_tilde >= 0 and Im k_2 >= 0.

A lining is one row of _LININGS, and a SchemeSpec is a kind and its
constants.  Every lining hands the one elimination per mode a pair
(P, R): the condition R u_x = P u that it sets on the mode's exterior
total field u at x = k rho (u_x = du/dx).  Only the pair tells the
linings apart.  With DJ = J'/J, DH = H'/H, z1 = kt rho, z2 = kt rho/2,
zc = k_2 rho/2, E = J_n(x)/H_n(x) and F = sqrt(sigma_a q_a)/sqrt(sigma_l q_l),

    d_n = -i^n E (R DJ(x) - P)/(R DH(x) - P)     (no i^n in 3D).

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
* ``solve_many`` is the solver's one entry (``solve`` a batch of one),
  and checks the wave with WaveParams.require_dim.
* ``_eliminate`` runs the elimination on ratio-form sequences, in
  truncation passes, with the one tail formula ``_tails``.
* ``_REGIONS`` holds the regions' radii; ``field_on_circle`` picks its
  region by it, and ``_radial_sums`` gives that region's radial factors.
* ``_far_field_rows`` gives far fields of many solutions at once (the
  sweeps run it over all their rho); ``far_field`` is one of its rows.
* ``_angular_sum`` sums over the cached angle tables of ``_angle_table``.
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
from .media import _check_dim, _check_positive, _number, check_passive, virtual_core_params

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
        object.__setattr__(self, "k", _check_positive("wavenumber", self.k,
                                                      "a finite real number > 0"))
        d = np.asarray(self.d, dtype=float)
        norm = float(np.linalg.norm(d))
        # "not <=" so that a NaN or infinite direction fails too.
        if d.ndim != 1 or d.size not in (2, 3) or not abs(norm - 1.0) <= 1e-10:
            raise DomainError("incident direction must be a 2- or 3-vector of unit length")
        object.__setattr__(self, "d", d / norm)

    def require_dim(self, dim: int) -> None:
        """DomainError unless dim is 2 or 3 and d a dim-vector, as a solve needs."""
        _check_dim(dim)
        if self.d.size != dim:
            raise DomainError(f"a {dim}D solve needs a {dim}-vector direction, got {self.d.size}")


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
        return float(_tails(np.abs(self.d_n)[None], np.array([self.n_max]))[0])

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
    _check_dim(dim)
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
    """Initial truncation order: x + max(8 + 4t, 1 + 6.6t), rounded up,
    with x = k rho and t = x^(1/3).

    Past the turning point n = x, |J_n(x)/H_n(x)| falls like
    (1/2) e^{-(4/3) zeta^{3/2}}, zeta = 2^{1/3} (n - x)/t (the Airy regime
    of the large-order asymptotics, DLMF 10.20), and the walls' d_n with
    it.  That is below TAIL_THRESHOLD from n - x = 6.53 t; the second
    term takes 6.6 t plus one order.  It is the larger from x = (7/2.6)^3,
    about 19.5; below that the first term gives the classical order
    x + 8 + 4t, which each term's sum from x keeps exact to the bit.
    """
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
    quotient at an anchor order times the running product of the ratio
    quotients.

    The anchor is order 0 or 1, whichever has the larger product of |base
    values| over all factors.  J_0 and J_1 share no zero, so it avoids a
    (near) zero of every J factor; for one J sequence it is the larger of
    its orders 0 and 1.  A product of J and H at comparable arguments, or
    a quotient of one kind, stays in double range where its factors need
    not, since its ratios do.
    """
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

    Where a power of rho leaves the double range, so that sigma_l, k_tilde
    or C_0 is not a normal double (FSH at a small C or a large delta), a
    RangeError names the lining, rho and (sigma_l, q_l).  Where k_2 or
    sqrt(q_a sigma_a) is not a normal double (a subnormal sigma_a), a
    RangeError names rho and the virtual core (sigma_a, q_a); q_a = 0 is a
    DomainError."""
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
    A wall hands the exterior its fixed pair (P, R) from _LININGS, a lossy
    layer the one it forms over the virtual core of the contents at each
    rho (the walls never use them); one formula gives every lining's d_n
    and one test its degenerate_modes.

    The elimination runs on plain complex arrays of ratios and
    log-derivatives (specfun), which stay in double range however lossy
    the layer: for the finite sound-hard layer, Im(kt rho) grows like
    rho^{-delta}, and J and H there split as e^{+-Im(kt rho)}.  E, X and
    the coefficients are base ratios times running ratio products
    (_values).

    It runs in passes over (B, n) arrays padded to the largest n_max of
    the pass's rows.  Each row starts at default_n_max, whose tail
    |d_{n_max}| / max|d_n| (_tails) is within TAIL_THRESHOLD for the
    linings up to k rho = 160.  As a fallback, for contents that slow the
    decay, a row whose tail is above it is solved again 8 orders higher,
    and one still above it at N_MAX_CAP raises TruncationError, so no
    returned solution has a larger tail.  A pass
    makes one specfun.bessel_j and one specfun.bessel_h1 call over its
    argument arrays concatenated, each row at its own order: x alone for
    an obstacle, so B rows, and x, z1, z2 and zc for a lossy layer, so 4B.
    """
    law = _LININGS[scheme.kind][-1]  # a wall's pair (P, R), or a lossy layer's law
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
            base, ratios = fn(sizes * len(zs), z, spherical=dim == 3)
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
            # not a cancelling sum.
            z2 = zs[2][rows, None]
            wronskian = 2j / (math.pi * z2) if dim == 2 else 1j / (z2 * z2)
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
    wave.require_dim(dim)
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
    _table_rows(coef.shape[-1]) rows) is given.  The sum is two real
    products, of the real and of the imaginary parts of the weighted
    coefficients with the real table: a complex @ real product would copy
    the table to complex on every call and run zgemm or zgemv, with twice
    the flops (see also bie._add_product)."""
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
    """The _tabulate of the M float64 angles packed in ``angle_bytes``,
    from the one bounded, read-only, thread-safe cache that far and near
    fields share.

    It keeps the 20 most recent tables, at most 20 x rows x M float64 for
    rows <= 224 (N_MAX_CAP + 1 rounded up).  Twenty slots hold the 18
    tables that solves with n_max up to 95 cycle through when each takes a
    far field, near fields and near_field_deviation (three grids, three
    row counts, two dims).  Row n of a table depends only on n and theta
    (an elementwise cos, or numpy's forward recurrence in legvander), so a
    sum over the first rows of a larger table is bit for bit the sum over
    a table built at its own size, and no result depends on what the
    cache holds."""
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
    wave.require_dim(dim)
    rho = _check_positive("rho", rho)
    if not _number(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    x = wave.k * rho
    if dim == 2:
        return (cmath.exp(1j * math.pi / 4) * math.sqrt(2.0 * math.pi / wave.k)
                * (math.cos(theta) / 2.0 - 0.25) * x ** 2)
    return (math.cos(theta) / 2.0 - 1.0 / 3.0) * x ** 3 / wave.k


# ---------------------------------------------------------------------------
# Near fields
# ---------------------------------------------------------------------------
def _radial_sums(solution: ModalSolution, region: str, r: float,
                 derivative: bool) -> list[np.ndarray]:
    """Per-mode radial factors of the field expansion at radius r in a
    region that contains it, and with ``derivative`` those of its radial
    derivative after them; in the exterior only those of the scattered
    wave.  Each region's factors are its normalised coefficients
    (ModalSolution) times in-range products and quotients of ratio-form
    sequences; a radial derivative is the wavenumber times each of the
    same terms times its log-derivative at r.

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
    per-mode factors that multiply cos(n theta) (2D) or (2n+1) P_n(cos theta)
    (3D): those of the field, then with ``radial_derivative`` those of its
    radial derivative (_radial_sums)."""
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
    if solution.dim == 3:
        radial = [_I_POW[np.arange(solution.n_max + 1) & 3] * sums for sums in radial]
    return r, thetas, region, radial


def field_on_circle(solution: ModalSolution, r: float, thetas: np.ndarray,
                    region: str | None = None, scattered_only: bool = False,
                    radial_derivative: bool = False) -> np.ndarray:
    """Total (or scattered) field at radius r for an array of angles.

    2D assembly: u = sum_n eps_n R_n(r) cos(n theta); 3D assembly:
    u = sum_n (2n+1) i^n R_n(r) P_n(cos theta), with R_n the per-mode
    radial factor of the region: the named one, which must contain r, or
    else the outermost region of the solution that contains r (closed, see
    _REGIONS).  Otherwise DomainError "r = ... lies outside the <region>
    region" names the region, or the exterior if none was named.  A name
    that is not one of the solution's regions raises a DomainError that
    lists them (an obstacle has the exterior only).  In the exterior the
    incident wave is added in closed form, e^{i k r cos theta} (radial
    derivative i k cos theta e^{i k r cos theta}), so it is exact at any
    radius, not only where n_max resolves k r.  ``scattered_only`` drops
    it (exterior region only).  The angles must be a finite 1-d array
    (DomainError, ShapeError).

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
    """Scattered field and its radial derivative at r = ``radius``, in 2D or 3D.

    One pass over the exterior terms gives the radial factors of both (one
    Hankel sequence), and both sums share one angle table, built for this
    call and not cached: the circle grids of a BIE cross-check are shifted
    by the incident angle, so a later call rarely asks for the same grid."""
    _, thetas, _, radial = _circle_terms(solution, radius, thetas, None, True, True)
    table = _tabulate(solution.dim, thetas, _table_rows(radial[0].size))
    return tuple(_angular_sum(solution.dim, sums, thetas, table) for sums in radial)
