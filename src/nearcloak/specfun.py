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

* base values: orders 0 and 1 of every family from scipy's exponentially
  scaled Amos routines (D. E. Amos, ACM TOMS 12, 265, 1986) at orders nu
  and nu + 1, jve for J/j and hankel1e for H/h, times sqrt(pi/(2z)) for
  the spherical families.
* J_n and spherical j_n: one Miller backward recurrence, matched to the
  base value at order 0 or 1, whichever is larger in modulus.  Upward
  recurrence is unstable for J and j; it is stable for H and h, which run
  up from their base values.
* derivatives: B_n'(z) = (n/z) B_n(z) - B_{n+1}(z), valid for both the
  cylindrical and the spherical families, along the last axis.
* Legendre P_n: Bonnet recurrence.

Guards: the order must satisfy n <= ORDER_MAX (200) and the argument
must lie in the closed upper half-plane Im z >= 0 (a signed zero -0.0
counts as 0) with ARGUMENT_FLOOR (1e-50) <= |z| <= ARGUMENT_GUARD (2e4)
or z = 0; beyond these a :class:`RangeError` is raised.  Below the floor
a recurrence step, 2(m + nu)/z times a working value near the rescale
threshold, can overflow, so results would be non-finite.  Within the
guard, arguments with |Im z| in the thousands are handled through the log
scale -- e^{|Im z|} itself is never formed.

Accuracy: a Miller run carries rounding from its ~|z| downward steps
through the oscillatory range, so on the real axis the orders of the
unmatched parity are off by a relative error of about 1e-16 |z| (1.3e-12
for J_n, 2.4e-12 for j_n at |z| = 1.4e4).  H_n and h_n (n <= 30, against
a 50-digit oracle) are off by a relative error below 1e-14 + 2.3e-16
|log_scale| for |z| < 100 and below 1e-15 + 2.3e-16 |log_scale| beyond.
The second term bounds every scaled value: its log scale L is a rounded
double, which moves the value by up to half an ulp of L, at most 1.1e-16
|L| (9e-13 for H at Im z ~ 9e3, where L ~ -9e3); the bound allows two
such roundings.

Branch convention: the principal branch of ln and sqrt is used
throughout.  The domain is the closed upper half-plane, which holds
every argument the modal solver forms: the layers are passive, and
mie._layer_wavenumbers picks Im k_tilde >= 0 and Im k_2 >= 0.

All functions are pure and hold no global state; concurrent use is safe.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import special

from .errors import DomainError, RangeError, SingularArgumentError

ORDER_MAX = 200
ARGUMENT_GUARD = 2.0e4
ARGUMENT_FLOOR = 1.0e-50

# Mantissas are renormalised once they exceed this during recurrences.
_RESCALE_AT = 1e250

# Floor on |mantissa| in scaled(), so zeros need no mask.
_TINY = 1e-300


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
    if z.imag < 0:
        raise RangeError(f"Im z = {z.imag:.3g} lies below the real axis")
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
    # One correctly rounded sum per stretch, so a log scale is rounded once
    # however many rescales precede it.  A downward run sums its steps back
    # from its end, which sits at scale 0.
    scales = [math.fsum(steps[:j + 1]) if orders.step > 0 else -math.fsum(steps[j + 1:])
              for j in range(len(steps))]
    n = len(orders)
    logs = np.empty(n)
    for i, scale in zip(starts, scales):
        logs[i:] = scale
    return np.array(vals[:n]), logs


# ---------------------------------------------------------------------------
# Base values, J_n and spherical j_n, both Hankel families
# ---------------------------------------------------------------------------
def _base(z: complex, nu: float, hankel: bool) -> tuple[list[complex], float]:
    """Orders 0 and 1 at z != 0 of J (nu = 0) or j (nu = 1/2), or with
    ``hankel`` of H^(1) or h^(1), as (mantissas, log scale): for Im z >= 0,
    jve = J e^{-Im z} and hankel1e = H e^{-iz}, and j, h are sqrt(pi/(2z))
    times J, H at order n + 1/2."""
    v = (nu, nu + 1.0)
    f = special.hankel1e(v, z) * cmath.exp(1j * z.real) if hankel else special.jve(v, z)
    if nu:
        f = f * cmath.sqrt(math.pi / (2.0 * z))
    return f.tolist(), -z.imag if hankel else z.imag


def _bessel_j(nmax: int, top: int, z: complex, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Orders 0..top of J_n (nu = 0) or j_n (nu = 1/2) at z: a Miller run
    from well above nmax and top, matched to the base value at order 0 or 1."""
    if z == 0:  # J_n(0) = j_n(0) = delta_{n0}
        return np.eye(1, top + 1, dtype=complex)[0], np.zeros(top + 1)
    x = abs(z)
    start = max(nmax + 20 + int(x + 16.0 * x ** (1.0 / 3.0)), top)
    # The seed scale drops out in the match; the binary mantissa of 1e-280
    # gives the same roundings as that seed.
    vals, logs = _recurrence(z, nu, 0j, complex(math.frexp(1e-280)[0]),
                             range(start + 1, -1, -1))
    vals, logs = vals[::-1], logs[::-1]
    # Match at the larger of orders 0 and 1, which share no zero; a rescale
    # may fall between them, hence logs[i].
    ref, ref_log = _base(z, nu, False)
    i = int(abs(ref[1]) > abs(ref[0]))
    return vals[:top + 1] * (ref[i] / vals[i]), logs[:top + 1] - logs[i] + ref_log


def _hankel(nmax: int, top: int, z: complex, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Orders 0..top of H^(1) (nu = 0) or h^(1) (nu = 1/2) at z by upward
    recurrence, which needs no start above ``top``: ``nmax`` is unused."""
    if z == 0:
        raise SingularArgumentError(f"{'spherical h_n' if nu else 'H_n'}^(1) is singular at z = 0")
    (h0, h1), base_log = _base(z, nu, True)
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
    return _all(_hankel, nmax, z, 0.0)


def spherical_j_all(nmax, z) -> ScaledArray:
    """j_0(z) .. j_nmax(z) along the last axis."""
    return _all(_bessel_j, nmax, z, 0.5)


def spherical_h1_all(nmax, z) -> ScaledArray:
    """h_0^(1)(z) .. h_nmax^(1)(z) along the last axis.  Raises on z = 0."""
    return _all(_hankel, nmax, z, 0.5)


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
