"""Complex-argument Bessel/Hankel functions with overflow-safe scaling.

The lossy-layer solves evaluate J_n and H_n^(1) at arguments z whose
imaginary part reaches into the hundreds, where J_n(z) grows like
e^{|Im z|} and H_n^(1)(z) decays like e^{-Im z}.  Every value here is
therefore held in log-scaled form, ``mantissa * exp(log_scale)``, by
the one scaled type :class:`ScaledArray` (an ndarray of mantissas and an
ndarray of log scales): a sequence of orders 0..nmax is a 1-d one, a
batch of sequences a 2-d one, and :func:`scaled` builds one of any shape
from plain numbers.  The layer algebra downstream cancels the
exponentials symbolically by adding and subtracting log scales, so raw
unscaled values are never formed for large |Im z|.

The ``*_all`` functions take a scalar z or a 1-d array of B arguments and
return orders along the last axis: shape (nmax+1,) or (B, nmax+1).

Algorithms
----------
All four families run the one three-term recurrence
``f_{m-1} + f_{m+1} = (2(m + nu)/z) f_m`` (nu = 0 cylindrical, 1/2
spherical, as j_n and h_n^(1) are J and H of order n + 1/2 up to a
common factor), downward for J/j and upward for H/h, with the working pair
rescaled on the fly so no intermediate overflow occurs for any
admissible z.

* J_n and spherical j_n: one Miller backward recurrence, normalised
  against the plane-wave sum ``sum_m w_m (-i)^m f_m(z) = exp(-iz)`` for
  Im z >= 0, with w_m = 1, 2, 2, ... for J and w_m = 2m + 1 for j
  (conjugate reflection below the real axis).  Upward recurrence is
  unstable for J and j and is not used.
* H_n^(1): orders 0 and 1 from the power series with the log term split
  off (|z| < 12.5) or from the large-argument Hankel expansion
  (|z| >= 12.5), then stable upward recurrence.
* spherical h_n^(1): closed forms for orders 0 and 1, upward recurrence.
* Both Hankel families reach Im z < 0 through the reflection
  h(z) = 2 j(z) - conj(h(conj z)).
* derivatives: B_n'(z) = (n/z) B_n(z) - B_{n+1}(z), valid for both the
  cylindrical and the spherical families, along the last axis.
* Legendre P_n: Bonnet recurrence.

Guards: the order must satisfy n <= ORDER_MAX (200) and the argument
ARGUMENT_FLOOR (1e-50) <= |z| <= ARGUMENT_GUARD (2e4) or z = 0; beyond
these a :class:`RangeError` is raised.  Below the floor the closed forms
and the recurrence coefficients 2(m + nu)/z overflow or underflow (z**2
in h_1 underflows to 0 below ~1e-154), so results would be non-finite.
Within the guard, arguments with |Im z| in the thousands are handled
through the log scale -- e^{|Im z|} itself is never formed.

Branch convention: the principal branch of ln and sqrt is used
throughout, so results are accurate for arguments in the closed upper
half-plane and on the positive real axis.  This matches the solver-side
choice Im(k_tilde) >= 0 for the lossy-layer wavenumber.

All functions are pure and hold no global state; concurrent use is safe.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate

import numpy as np

from .errors import DomainError, RangeError, SingularArgumentError

ORDER_MAX = 200
ARGUMENT_GUARD = 2.0e4
ARGUMENT_FLOOR = 1.0e-50

# Terminate power series when a term falls below this fraction of the sum.
SERIES_EPS = 1e-18

# Crossover |z| between the series and the large-argument expansion for H.
_H_ASYMPTOTIC_CUTOFF = 12.5

# The H = J + iY series loses ~e^{|z| + Im z} digits to cancellation; keep it
# only while that stays around 1e-10 in double precision.
_H_SERIES_BUDGET = 13.5

# Mantissas are renormalised once they exceed this during recurrences.
_RESCALE_AT = 1e250

# Floor on |mantissa| in scaled(), so zeros need no mask.
_TINY = 1e-300

_EULER_GAMMA = 0.5772156649015328606

_MINUS_I_POW = np.array([1.0, -1.0j, -1.0, 1.0j])  # (-i)^m for m mod 4


# ---------------------------------------------------------------------------
# Scaled arrays
# ---------------------------------------------------------------------------
class ScaledArray:
    """An array of complex numbers stored as ``mantissa * exp(log_scale)``.

    ``mantissa`` (complex) and ``log_scale`` (float) are ndarrays of one
    shape, with every nonzero mantissa normalised to |m| = 1 (a zero
    element may carry any scale).  Arithmetic is elementwise; the right
    operand is a ScaledArray, and for ``*`` and ``/`` also a plain number
    or ndarray (scale 0).  Indexing works as for ndarrays and returns a
    ScaledArray (an integer index into a 1-d one gives shape ``()``).
    """

    __slots__ = ("mantissa", "log_scale")
    __array_ufunc__ = None  # make ndarray (op) ScaledArray defer to us

    def __init__(self, mantissa: np.ndarray, log_scale: np.ndarray):
        self.mantissa = mantissa
        self.log_scale = log_scale

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mantissa.shape

    def __getitem__(self, index) -> "ScaledArray":
        return ScaledArray(self.mantissa[index], self.log_scale[index])

    def abs_log(self) -> np.ndarray:
        """Natural log of |value| per element (-inf for zeros)."""
        a = np.abs(self.mantissa)
        return np.log(a, out=np.full(a.shape, -math.inf), where=a > 0) + self.log_scale

    def to_complex(self) -> np.ndarray:
        """Collapse to complex values.

        Underflow collapses silently to 0; overflow (a value beyond
        ~e^700) raises :class:`RangeError` because it cannot be
        represented in double precision.
        """
        top = float(np.max(self.abs_log()))
        if top > 700.0:
            raise RangeError(f"scaled value exp({top:.1f}) overflows a double")
        # Zero elements may carry any scale; cap it so they stay 0.
        return self.mantissa * np.exp(np.minimum(self.log_scale, 700.0))

    def conjugate(self) -> "ScaledArray":
        return ScaledArray(self.mantissa.conjugate(), self.log_scale)

    @staticmethod
    def concatenate(arrays) -> "ScaledArray":
        """Join scaled arrays along the first axis, like numpy.concatenate."""
        return ScaledArray(np.concatenate([a.mantissa for a in arrays]),
                           np.concatenate([a.log_scale for a in arrays]))

    @staticmethod
    def where(mask, a, b) -> "ScaledArray":
        """Elementwise choice between scaled or plain operands, like numpy.where."""
        (ma, sa), (mb, sb) = _parts(a), _parts(b)
        return ScaledArray(np.where(mask, ma, mb), np.where(mask, sa, sb))

    # -- arithmetic ---------------------------------------------------------
    def __mul__(self, other) -> "ScaledArray":
        m, s = _parts(other)
        return scaled(self.mantissa * m, self.log_scale + s)

    def __truediv__(self, other) -> "ScaledArray":
        m, s = _parts(other)
        if not np.all(m):
            raise ZeroDivisionError("division by zero ScaledArray element")
        return scaled(self.mantissa / m, self.log_scale - s)

    def __add__(self, other) -> "ScaledArray":
        # Past a scale gap of ~37 the smaller addend drops out in rounding.
        s1, s2 = self.log_scale, other.log_scale
        top = np.maximum(s1, s2)
        return scaled(self.mantissa * np.exp(s1 - top)
                      + other.mantissa * np.exp(s2 - top), top)

    def __sub__(self, other) -> "ScaledArray":
        return self + (-other)

    def __neg__(self) -> "ScaledArray":
        return ScaledArray(-self.mantissa, self.log_scale)


def _parts(x):
    """(mantissa, log_scale) of a scaled operand; plain numbers have scale 0."""
    if isinstance(x, ScaledArray):
        return x.mantissa, x.log_scale
    return x, 0.0


def scaled(mantissa, log_scale) -> ScaledArray:
    """ScaledArray of ``mantissa * exp(log_scale)`` for numbers or arrays of
    any shape, with every nonzero mantissa normalised to |m| = 1.

    A zero keeps mantissa 0 and takes a finite scale ~690 below its
    operands', low enough that it does not set the common scale of a sum.
    """
    a = np.maximum(np.abs(mantissa), _TINY)
    logs = np.log(a)
    logs += log_scale
    if not logs.max(initial=-math.inf) < math.inf:
        raise RangeError("non-finite mantissa in scaled arithmetic")
    return ScaledArray(mantissa / a, logs)


# ---------------------------------------------------------------------------
# Argument validation
# ---------------------------------------------------------------------------
def _check_order(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise RangeError(f"order must be a nonnegative integer, got {n!r}")
    if n > ORDER_MAX:
        raise RangeError(f"order {n} exceeds the supported maximum {ORDER_MAX}")


def _check_argument(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise RangeError("non-finite argument")
    if abs(z) > ARGUMENT_GUARD:
        raise RangeError(f"|z| = {abs(z):.3g} exceeds the guard {ARGUMENT_GUARD:g}")
    if 0 < abs(z) < ARGUMENT_FLOOR:
        raise RangeError(f"|z| = {abs(z):.3g} is below the floor {ARGUMENT_FLOOR:g}")
    return z


# ---------------------------------------------------------------------------
# The rescaled three-term recurrence
# ---------------------------------------------------------------------------
def _recurrence(z: complex, nu: float, f0: complex, f1: complex,
                orders: range, shift: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Run f_{m-1} + f_{m+1} = (2(m + nu)/z) f_m over ``orders``.

    ``orders`` steps by +1 (upward) or -1 (downward, Miller); f0 and f1
    are the values at its first two orders, both at log scale ``shift``.
    Returns (values, log scales) at every order of ``orders``, in its
    order.  The working pair is renormalised whenever it exceeds
    _RESCALE_AT; values already stored keep their own scale.  A downward
    run, whose overall scale drops out, ignores ``shift`` and ends at scale
    0, so its last orders differ in scale by short sums of rescale factors.
    """
    vals = [f0, f1]
    starts, steps = [0], [shift]  # first index and scale increment of each stretch
    fp, fc = f0, f1
    two_over_z = 2.0 / z
    for m in orders[1:-1]:
        fp, fc = fc, ((m + nu) * two_over_z) * fc - fp
        a = abs(fc)
        if a > _RESCALE_AT:
            la = math.log(a)
            r = math.exp(-la)
            fc *= r
            fp *= r
            starts.append(len(vals))
            steps.append(la)
        vals.append(fc)
    # A downward run sums its steps back from its end, which sits at scale 0.
    scales = (accumulate(steps) if orders.step > 0
              else reversed(list(accumulate([0.0] + [-la for la in steps[:0:-1]]))))
    n = len(orders)
    logs = np.empty(n)
    for i, scale in zip(starts, scales):
        logs[i:] = scale
    return np.array(vals[:n]), logs


# ---------------------------------------------------------------------------
# J_n and spherical j_n
# ---------------------------------------------------------------------------
def _bessel_j(nmax: int, top: int, z: complex, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Orders 0..top of J_n (nu = 0) or j_n (nu = 1/2) at z, unnormalised, by
    Miller's backward recurrence from well above nmax and top."""
    if z == 0:  # J_n(0) = j_n(0) = delta_{n0}
        return np.eye(1, top + 1, dtype=complex)[0], np.zeros(top + 1)
    if z.imag < 0:
        vals, logs = _bessel_j(nmax, top, z.conjugate(), nu)
        return vals.conjugate(), logs
    x = abs(z)
    start = max(nmax + 20 + int(x + 16.0 * x ** (1.0 / 3.0)), top)
    # The seed scale drops out in the normalisation.  A seed near 1 keeps the
    # stored values from about 1 upward, so dividing by S cannot underflow;
    # the binary mantissa of 1e-280 gives the same roundings as that seed.
    vals, logs = _recurrence(z, nu, 0j, complex(math.frexp(1e-280)[0]),
                             range(start + 1, -1, -1))
    vals, logs = vals[::-1], logs[::-1]
    # True f_m = F_m e^{-iz} / S with F_m = vals[m] e^{logs[m]} and the
    # plane-wave sum S = sum_m w_m (-i)^m F_m, w_m = 1, 2, 2, ... for J and
    # 2m + 1 for j; logs[0] = 0 is the largest scale.
    m = np.arange(len(vals))
    terms = vals * np.exp(logs)
    s = (np.dot(_MINUS_I_POW[m & 3], (2.0 * m + 1.0) * terms) if nu
         else 2.0 * np.dot(_MINUS_I_POW[m & 3], terms) - terms[0])
    if s == 0:
        raise RangeError("Miller normalisation sum vanished")
    return vals[:top + 1] * (cmath.exp(-1j * z.real) / s), logs[:top + 1] + z.imag


# ---------------------------------------------------------------------------
# Cylindrical H_n^(1) base values: series, asymptotic or continued fraction
# ---------------------------------------------------------------------------
def _h01_series(z: complex) -> tuple[complex, complex]:
    """H_0^(1), H_1^(1) by the Maclaurin series with the log term split off.

    Valid on the cut plane; accurate for |z| below the asymptotic
    crossover (the e^{|Re z|} cancellation stays under ~1e5 there).
    """
    q = (z / 2.0) ** 2
    lg = cmath.log(z / 2.0) + _EULER_GAMMA

    # J_0 and sum (-1)^m h_m q^m/(m!)^2 for Y_0
    term = 1.0 + 0j
    j0 = term
    y0s = 0j
    hm = 0.0
    m = 1
    while True:
        term *= -q / (m * m)
        j0 += term
        hm += 1.0 / m
        y0s += term * hm
        if abs(term) < SERIES_EPS * abs(j0):
            break
        m += 1
        if m > 200:  # unreachable for |z| < 13
            break
    y0 = (2.0 / math.pi) * (lg * j0 - y0s)

    # J_1 and sum (-1)^m (h_m + h_{m+1}) (z/2)^{2m+1} / (m!(m+1)!) for Y_1
    term = z / 2.0
    j1 = term
    y1s = term  # m = 0: h_0 + h_1 = 1
    hm = 0.0
    hm1 = 1.0
    m = 1
    while True:
        term *= -q / (m * (m + 1))
        j1 += term
        hm += 1.0 / m
        hm1 += 1.0 / (m + 1)
        y1s += term * (hm + hm1)
        if abs(term) < SERIES_EPS * abs(j1):
            break
        m += 1
        if m > 200:
            break
    y1 = (2.0 / math.pi) * lg * j1 - 2.0 / (math.pi * z) - y1s / math.pi

    return j0 + 1j * y0, j1 + 1j * y1


def _h_asymptotic(n: int, z: complex) -> complex:
    """Mantissa of H_n^(1)(z) at log scale -Im z, by the large-argument
    Hankel expansion (orders 0, 1)."""
    s = 1.0 + 0j
    term = 1.0 + 0j
    four_n2 = 4.0 * n * n
    m = 0
    while m < 40:
        new = term * 1j * (four_n2 - (2 * m + 1) ** 2) / (8.0 * z * (m + 1))
        if abs(new) >= abs(term):  # asymptotic tail started diverging
            break
        term = new
        s += term
        if abs(term) < SERIES_EPS * abs(s):
            break
        m += 1
    front = cmath.sqrt(2.0 / (math.pi * z)) * cmath.exp(
        1j * (z.real - n * math.pi / 2.0 - math.pi / 4.0))
    return front * s


def _h1_logderiv_cf(z: complex, max_iter: int = 20000) -> complex:
    """Logarithmic derivative H_0^(1)'(z)/H_0^(1)(z) by continued fraction.

    L_0 = -1/(2z) + i + (i/z) * K_{k>=1} [ (k-1/2)^2 / (2(z + ik)) ]
    evaluated with the modified Lentz algorithm.  Converges for z off the
    negative real axis; used in the upper half-plane gap where neither
    the power series nor the large-argument expansion is accurate.
    """
    tiny = 1e-300
    f = tiny + 0j
    c = f
    d = 0j
    for k in range(1, max_iter):
        a = (k - 0.5) ** 2
        b = 2.0 * (z + 1j * k)
        d = b + a * d
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise RangeError("continued fraction for H did not converge")
    return -0.5 / z + 1j + (1j / z) * f


def _h01_base(z: complex) -> tuple[complex, complex, float]:
    """H_0^(1), H_1^(1) for Im z >= 0 as (mantissa0, mantissa1, log_scale)."""
    if abs(z) + max(z.imag, 0.0) <= _H_SERIES_BUDGET:
        h0, h1 = _h01_series(z)
        return h0, h1, 0.0
    if abs(z) >= _H_ASYMPTOTIC_CUTOFF:
        return _h_asymptotic(0, z), _h_asymptotic(1, z), -z.imag
    # Gap region: recessive H via its CF log-derivative plus the Wronskian
    # J_0 H_0' - J_0' H_0 = 2i/(pi z), with J_0, J_1 from Miller.  Here
    # |z| < 12.5, so J_0, J_1 <= e^12.5 need no scaling.
    l0 = _h1_logderiv_cf(z)
    j0, j1 = scaled(*_bessel_j(1, 1, z, 0.0)).to_complex().tolist()
    denom = j0 * l0 + j1  # J_0 L_0 - J_0',  J_0' = -J_1
    if denom == 0:
        raise RangeError("degenerate Wronskian solve for H base values")
    h0 = 2j / (math.pi * z) / denom
    return h0, -h0 * l0, 0.0  # H_0' = -H_1


# ---------------------------------------------------------------------------
# Both Hankel families
# ---------------------------------------------------------------------------
def _hankel(nmax: int, top: int, z: complex, spherical: bool) -> tuple[np.ndarray, np.ndarray]:
    """H_0^(1) .. H_top^(1), or h_0^(1) .. h_top^(1) when ``spherical``."""
    if z == 0:
        raise SingularArgumentError(
            f"{'spherical h_n' if spherical else 'H_n'}^(1) is singular at z = 0")
    nu = 0.5 if spherical else 0.0
    if z.imag < 0:
        # Reflection keeps every ingredient on its stable side: Miller j at
        # z and the upper-half-plane sequence at the conjugate point (the
        # upward recurrence can pass through a magnitude dip below the axis).
        js = scaled(*_bessel_j(nmax, top, z, nu))
        h = js * 2.0 - scaled(*_hankel(nmax, top, z.conjugate(), spherical)).conjugate()
        return h.mantissa, h.log_scale
    if spherical:
        phase = cmath.exp(1j * z.real)
        h0 = -1j * phase / z
        h1 = -phase * (1.0 / z + 1j / (z * z))
        base_log = -z.imag
    else:
        h0, h1, base_log = _h01_base(z)
    return _recurrence(z, nu, h0, h1, range(top + 1), base_log)


# ---------------------------------------------------------------------------
# Batch API (orders 0..nmax at each of a batch of arguments)
# ---------------------------------------------------------------------------
def _all(row, nmax, z, *args) -> ScaledArray:
    """Orders 0..max(nmax) of ``row`` at each z, with one order nmax or one per z.

    The recurrence runs one z at a time and one scaled() normalises all
    rows.  A row's Miller start follows its own order (or the top order,
    once that lies beyond it), so orders 0..nmax[i] equal a call at nmax[i].
    """
    z = np.asarray(z, dtype=complex)
    orders = list(nmax) if isinstance(nmax, (list, tuple, np.ndarray)) else [nmax] * z.size
    for n in orders:
        _check_order(n)
    top = max(orders, default=0)
    rows = [row(n, top, _check_argument(x), *args)
            for n, x in zip(orders, z.ravel().tolist(), strict=True)]
    shape = z.shape + (top + 1,)
    return scaled(np.array([m for m, _ in rows]).reshape(shape),
                  np.array([s for _, s in rows]).reshape(shape))


def bessel_j_all(nmax, z) -> ScaledArray:
    """J_0(z) .. J_nmax(z) along the last axis, for a scalar z or a 1-d batch."""
    return _all(_bessel_j, nmax, z, 0.0)


def bessel_h1_all(nmax, z) -> ScaledArray:
    """H_0^(1)(z) .. H_nmax^(1)(z) along the last axis.  Raises on z = 0."""
    return _all(_hankel, nmax, z, False)


def spherical_j_all(nmax, z) -> ScaledArray:
    """j_0(z) .. j_nmax(z) along the last axis."""
    return _all(_bessel_j, nmax, z, 0.5)


def spherical_h1_all(nmax, z) -> ScaledArray:
    """h_0^(1)(z) .. h_nmax^(1)(z) along the last axis.  Raises on z = 0."""
    return _all(_hankel, nmax, z, True)


def derivative_all(values: ScaledArray, z) -> ScaledArray:
    """Derivatives of Bessel-family sequences via B_n' = (n/z)B_n - B_{n+1}.

    ``values`` holds orders 0..M along its last axis, at z (a scalar, or
    one argument per row); the result holds orders 0..M-1.  The same
    recurrence covers the cylindrical and spherical families.
    """
    z = np.asarray(z, dtype=complex)[..., None]
    size = values.shape[-1]
    if size < 2:
        raise RangeError("need at least orders 0 and 1 to differentiate")
    if np.count_nonzero(z) < z.size:
        if size > 2:
            raise SingularArgumentError("derivative recurrence needs z != 0 for n >= 1")
        return -values[..., 1:]  # B_0' = -B_1 holds at z = 0 too
    return values[..., :-1] * (np.arange(size - 1) / z) - values[..., 1:]


# ---------------------------------------------------------------------------
# Legendre polynomials
# ---------------------------------------------------------------------------
def legendre_p_table(nmax: int, x: np.ndarray) -> np.ndarray:
    """P_0..P_nmax at each entry of x; shape (nmax+1, len(x))."""
    _check_order(nmax)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise DomainError("Legendre argument outside [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = x
    for m in range(1, nmax):
        out[m + 1] = ((2 * m + 1) * x * out[m] - m * out[m - 1]) / (m + 1)
    return out
