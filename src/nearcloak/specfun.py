"""Complex-argument Bessel/Hankel functions in ratio form.

The lossy-layer solves evaluate J_n and H_n^(1) at arguments z whose
imaginary part reaches into the thousands, where J_n(z) grows like
e^{Im z} and H_n^(1)(z) decays like e^{-Im z}, far outside the double
range.  Ratios of neighbouring orders stay in range, and so does
everything the modal solver forms from them (mie._eliminate).  So each
family comes in ratio form: ``bessel_j`` and ``bessel_h1`` return

    base   = (f_0, f_1), Amos-scaled: J e^{-Im z} and H e^{Im z},
    ratios = f_{n+1}/f_n for n = 0..nmax-1,

for the cylindrical J_n, H_n^(1) or, with ``spherical``, for j_n,
h_n^(1).  The log-derivative is f_n'/f_n = n/z - f_{n+1}/f_n (the
identity B_n' = (n/z) B_n - B_{n+1} holds for both kinds), and an
Amos-scaled value is the base times a cumulative ratio product.

Both functions take a scalar z or a 1-d array of B arguments, and one
order nmax or one per argument; base has shape (2,) or (B, 2), ratios
(top,) or (B, top) with top the largest nmax.

Algorithms
----------
All four families obey f_{m-1} + f_{m+1} = (2(m + nu)/z) f_m (nu = 0
cylindrical, 1/2 spherical: j_n and h_n^(1) are J and H of order n + 1/2
times sqrt(pi/(2z)), which cancels in every ratio).  Divided by f_m it
is one step for either direction, x <- 2(m + nu)/z - 1/x:

* base values: orders 0 and 1 from scipy's exponentially scaled Amos
  routines (D. E. Amos, ACM TOMS 12, 265, 1986) at orders nu and nu + 1,
  jve for J/j and hankel1e for H/h, times sqrt(pi/(2z)) for the spherical
  families.
* J_n and j_n: the step runs downward on x = f_{m-1}/f_m, as the
  continued fraction r_{m-1} = 1/(2(m + nu)/z - r_m) for r_m = f_{m+1}/f_m,
  started from r = 0 at a Miller start well above the orders wanted.  The
  fraction normalises itself.  An exactly zero denominator is replaced by
  a tiny value, as in the modified Lentz method (Numerical Recipes,
  section 5.2): at a zero of f_m this keeps r_{m-1} r_m = -1 =
  f_{m+1}/f_{m-1}.  Upward recurrence is unstable for J and j.
* H_n and h_n: the step runs upward, s_m = 2(m + nu)/z - 1/s_{m-1}, from
  s_0 = f_1/f_0 of the base values; H^(1) has no zeros in Im z >= 0.
* Legendre P_n: Bonnet recurrence.

Guards: the order must satisfy n <= ORDER_MAX (200) and the argument
must lie in the closed upper half-plane Im z >= 0 (a signed zero -0.0
counts as 0) with ARGUMENT_FLOOR (1e-50) <= |z| <= ARGUMENT_GUARD (2e4)
or z = 0; beyond these a :class:`RangeError` is raised.  Above the floor
the base values (h_1 grows like z^-2) and the ratios (s_n grows like
2n/z) stay far inside the double range.  At z = 0 the J ratios are their
limit 0, with base (1, 0), and the H families raise
:class:`SingularArgumentError`.

Accuracy: a downward fraction carries rounding from its ~|z| steps
through the oscillatory range, so on the real axis J_n and j_n rebuilt
from the base and the ratio products are off by a relative error of
about 1e-16 |z| (1.3e-12 for J_n, 2.4e-12 for j_n at |z| = 1.4e4, orders
up to 60).  H_n and h_n (n <= 30) rebuilt the same way are off by a
relative error below 1e-14 + 2.3e-16 |ln|H_n|| for |z| < 100 and below
1e-15 + 2.3e-16 |ln|H_n|| beyond; over 1500 random draws against a
50-digit oracle the worst were 3.6e-15 and 1.1e-15.

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

# Stands in for an exactly zero denominator of the continued fraction.
_LENTZ_TINY = 1e-30


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
# One sequence in ratio form
# ---------------------------------------------------------------------------
def _base(z: complex, nu: float, hankel: bool) -> list[complex]:
    """Orders 0 and 1 at z != 0 of J (nu = 0) or j (nu = 1/2), or with
    ``hankel`` of H^(1) or h^(1), Amos-scaled: for Im z >= 0, jve =
    J e^{-Im z} and hankel1e = H e^{-iz}, here times e^{i Re z}; j, h are
    sqrt(pi/(2z)) times J, H at order n + 1/2."""
    v = (nu, nu + 1.0)
    f = special.hankel1e(v, z) * cmath.exp(1j * z.real) if hankel else special.jve(v, z)
    if nu:
        f = f * cmath.sqrt(math.pi / (2.0 * z))
    return f.tolist()


def _bessel_j(nmax: int, top: int, z: complex, nu: float) -> tuple[list, list]:
    """Base and ratios 0..top-1 of J_n (nu = 0) or j_n (nu = 1/2) at z: the
    downward continued fraction from well above nmax and top."""
    if z == 0:  # J_n(0) = j_n(0) = delta_{n0}; J_{n+1}/J_n -> 0
        return [1.0, 0.0], [0.0] * top
    x = abs(z)
    start = max(nmax + 20 + int(x + 16.0 * x ** (1.0 / 3.0)), top)
    two_over_z = 2.0 / z
    r = 0j  # f_{start+1}/f_start
    for m in range(start, top, -1):
        r = 1.0 / (((m + nu) * two_over_z - r) or _LENTZ_TINY)
    ratios = [0j] * top
    for m in range(top, 0, -1):
        r = 1.0 / (((m + nu) * two_over_z - r) or _LENTZ_TINY)
        ratios[m - 1] = r
    return _base(z, nu, False), ratios


def _hankel(nmax: int, top: int, z: complex, nu: float) -> tuple[list, list]:
    """Base and ratios 0..top-1 of H^(1) (nu = 0) or h^(1) (nu = 1/2) at z
    by the upward step, which needs no start above ``top``: ``nmax`` is
    unused."""
    if z == 0:
        raise SingularArgumentError(f"{'spherical h_n' if nu else 'H_n'}^(1) is singular at z = 0")
    base = _base(z, nu, True)
    two_over_z = 2.0 / z
    s = base[1] / base[0]
    ratios = [s]
    for m in range(1, top):
        s = (m + nu) * two_over_z - 1.0 / s
        ratios.append(s)
    return base, ratios[:top]


# ---------------------------------------------------------------------------
# Batch API (orders 0..nmax at each of a batch of arguments)
# ---------------------------------------------------------------------------
def _all(row, nmax, z, spherical: bool) -> tuple[np.ndarray, np.ndarray]:
    """(base, ratios) of ``row`` at each z, with one order nmax or one per z.

    The fraction runs one z at a time.  A row's Miller start follows its
    own order (or the top order, once that lies beyond it), so its ratios
    0..nmax[i]-1 equal a call at nmax[i].
    """
    z = np.asarray(z, dtype=complex)
    orders = list(nmax) if isinstance(nmax, (list, tuple, np.ndarray)) else [nmax] * z.size
    for n in orders:
        _check_order(n)
    top = max(orders, default=0)
    nu = 0.5 if spherical else 0.0
    rows = [row(n, top, _check_argument(x), nu)
            for n, x in zip(orders, z.ravel().tolist(), strict=True)]
    return (np.array([b for b, _ in rows], dtype=complex).reshape(z.shape + (2,)),
            np.array([r for _, r in rows], dtype=complex).reshape(z.shape + (top,)))


def bessel_j(nmax, z, spherical: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """J_0(z) .. J_nmax(z), or j_n with ``spherical``, in ratio form:
    (J_0, J_1) e^{-Im z} and J_{n+1}/J_n for n < nmax along the last axis,
    for a scalar z or a 1-d batch."""
    return _all(_bessel_j, nmax, z, spherical)


def bessel_h1(nmax, z, spherical: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """H_0^(1)(z) .. H_nmax^(1)(z), or h_n^(1) with ``spherical``, in ratio
    form: (H_0, H_1) e^{Im z} and H_{n+1}/H_n for n < nmax.  Raises on
    z = 0."""
    return _all(_hankel, nmax, z, spherical)


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
