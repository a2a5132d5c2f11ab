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
(top,) or (B, top) with top the largest nmax.  A batch row is the call
at its own order, bit for bit, padded past that order with 1.0.

Algorithms
----------
All four families obey f_{m-1} + f_{m+1} = (2(m + nu)/z) f_m (nu = 0
cylindrical, 1/2 spherical: j_n and h_n^(1) are J and H of order n + 1/2
times sqrt(pi/(2z)), which cancels in every ratio).  Divided by f_m it
is one step for either direction, x <- 2(m + nu)/z - 1/x.  One routine,
``_sequence``, gives either kind by these routes in turn:

* base values: orders 0 and 1 from scipy's exponentially scaled Amos
  routines (D. E. Amos, ACM TOMS 12, 265, 1986) at orders nu and nu + 1,
  jve for J/j and hankel1e for H/h, times sqrt(pi/(2z)) for the spherical
  families.
* upward, for H_n and h_n (H^(1) has no zeros in Im z >= 0), and for J_n
  and j_n where Im z >= 20 and n^2 Im z <= |z|^2, with n the order of the
  call: s_m = 2(m + nu)/z - 1/s_{m-1} from s_0 = f_1/f_0 of the base
  values, in O(n) steps (the regime split of Amos; DLMF section 10.17).
  The recurrence's two solutions are H^(1) and H^(2), and J is their
  mean.  For Im z >= 20, |H^(1)/H^(2)| is about e^{-2 Im z} <= e^{-40},
  so J_n = H^(2)_n/2 to rounding, with no cancellation.  J_0 and J_1 are
  exact to rounding, and a rounding error at order 0 adds a multiple of
  H^(1), which grows relative to J_n by G(n) = |H^(1)_n/H^(1)_0| /
  |H^(2)_n/H^(2)_0|.  The phase of Hankel's expansion, z - n pi/2 - pi/4
  +- n^2/(2z) + ..., gives ln G = n^2 Im z/|z|^2 for n well below |z|,
  so the order condition caps that growth at e.  A looser rule fails:
  n <= |z|/2 admits J_87(-40.94 + 271.55i), where ln G = 27 and the
  step is off by 5e-5.
* downward, for J_n and j_n elsewhere, on x = f_{m-1}/f_m: the continued
  fraction r_{m-1} = 1/(2(m + nu)/z - r_m) for r_m = f_{m+1}/f_m, started
  from r = 0 at a Miller start well above the orders wanted, so it costs
  O(|z|) steps.  The fraction normalises itself.  An exactly zero
  denominator is replaced by a tiny value, as in the modified Lentz
  method (Numerical Recipes, section 5.2): at a zero of f_m this keeps
  r_{m-1} r_m = -1 = f_{m+1}/f_{m-1}.  Upward recurrence is unstable for
  J and j there.

Guards: the order must satisfy n <= ORDER_MAX (200) and the argument
must lie in the closed upper half-plane Im z >= 0 (a signed zero -0.0
counts as 0) with ARGUMENT_FLOOR (1e-50) <= |z| <= ARGUMENT_GUARD (2e4)
or z = 0; beyond these a :class:`RangeError` is raised.  Between 2e4 and
1e8, the arguments where every order of the call takes the upward step
(Im z >= 20 and n^2 Im z <= |z|^2 at the call's order n) are admitted
too, so the continued fraction never runs beyond |z| = 2e4.  Above the
floor the base values (h_1 grows like z^-2) and the ratios (s_n grows
like 2n/z) stay far inside the double range.  At z = 0 the J ratios are
their limit 0, with base (1, 0), and the H families raise
:class:`SingularArgumentError`.

Accuracy: a downward fraction carries rounding from its ~|z| steps
through the oscillatory range, so on the real axis J_n and j_n rebuilt
from the base and the ratio products are off by a relative error of
about 1e-16 |z| (1.3e-12 for J_n, 2.4e-12 for j_n at |z| = 1.4e4, orders
up to 60).  On the upward step they are off by at most 3.1e-15 below
|z| = 2e4 and 5.7e-15 up to 1e8, over 600 random draws each in its
region against a 60-digit oracle (the fraction: 2.8e-15 at the same
draws below 2e4).  Both hold for |z| >= 22: below |z| = 21.8, where jve
leaves its asymptotic expansion, jve itself is off by up to 2.6e-14 at
orders 1/2 and 3/2.  H_n and h_n (n <= 30) rebuilt the same way are
off by a relative error below 1e-14 + 2.3e-16 |ln|H_n|| for |z| < 100
and below 1e-15 + 2.3e-16 |ln|H_n|| beyond; over 1500 random draws
against a 50-digit oracle the worst were 3.6e-15 and 1.1e-15.

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

from .errors import RangeError, ShapeError, SingularArgumentError

ORDER_MAX = 200
ARGUMENT_GUARD = 2.0e4
ARGUMENT_FLOOR = 1.0e-50
# Beyond ARGUMENT_GUARD, up to this |z|, arguments whose J_n take the upward
# step at every order of the call (_upward_is_stable at its order) are
# admitted.
_UPWARD_GUARD = 1.0e8

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


def _check_argument(z: complex, n: int) -> complex:
    """z as a complex, or RangeError; ``n`` is the order of the call."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise RangeError("non-finite argument")
    if abs(z) > ARGUMENT_GUARD and not (abs(z) <= _UPWARD_GUARD
                                        and _upward_is_stable(n, z)):
        raise RangeError(f"|z| = {abs(z):.3g} exceeds the guard {ARGUMENT_GUARD:g} "
                         f"({_UPWARD_GUARD:g} where Im z >= 20 and top^2 Im z <= |z|^2 "
                         f"at the top order {n})")
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


def _upward_is_stable(n: int, z: complex) -> bool:
    """Whether the upward step gives J_m or j_m at z for every m <= n to
    within rounding: Im z >= 20 and n^2 Im z <= |z|^2 (module docstring)."""
    return z.imag >= 20.0 and n * n * z.imag <= abs(z) ** 2


def _upward(base: list, n: int, z: complex, nu: float) -> list:
    """Ratios 0..n-1 by the upward step s_m = 2(m + nu)/z - 1/s_{m-1}
    from s_0 = f_1/f_0 of the base values."""
    two_over_z = 2.0 / z
    s = base[1] / base[0]
    ratios = [s]
    for m in range(1, n):
        s = (m + nu) * two_over_z - 1.0 / s
        ratios.append(s)
    return ratios[:n]


def _sequence(n: int, z: complex, nu: float, hankel: bool) -> tuple[list, list]:
    """Base and ratios 0..n-1 at z of J_m, or with ``hankel`` of H^(1)_m
    (j_m, h^(1)_m for nu = 1/2), by the routes of the module docstring."""
    if z == 0 and not hankel:  # J_n(0) = j_n(0) = delta_{n0}; J_{n+1}/J_n -> 0
        return [1.0, 0.0], [0.0] * n
    if z == 0:
        raise SingularArgumentError(f"{'spherical h_n' if nu else 'H_n'}^(1) is singular at z = 0")
    base = _base(z, nu, hankel)
    if hankel or _upward_is_stable(n, z):
        return base, _upward(base, n, z, nu)
    x = abs(z)
    start = n + 20 + int(x + 16.0 * x ** (1.0 / 3.0))
    two_over_z = 2.0 / z
    r = 0j  # f_{start+1}/f_start
    for m in range(start, n, -1):
        r = 1.0 / (((m + nu) * two_over_z - r) or _LENTZ_TINY)
    ratios = [0j] * n
    for m in range(n, 0, -1):
        r = 1.0 / (((m + nu) * two_over_z - r) or _LENTZ_TINY)
        ratios[m - 1] = r
    return base, ratios


# ---------------------------------------------------------------------------
# Batch API (orders 0..nmax at each of a batch of arguments)
# ---------------------------------------------------------------------------
def _all(hankel: bool, nmax, z, spherical: bool) -> tuple[np.ndarray, np.ndarray]:
    """(base, ratios) of _sequence at each z, with one order nmax or one per z.

    Each row is the call at its own order: its route, Miller start and
    argument guard follow that order alone.  Its ratios are padded past
    it, up to the batch's largest order, with the finite filler 1.0, which
    callers cut off.
    """
    z = np.asarray(z, dtype=complex)
    if isinstance(nmax, np.ndarray) and nmax.ndim == 0:
        nmax = nmax[()]  # a 0-d order is the scalar it holds
    orders = list(nmax) if isinstance(nmax, (list, tuple, np.ndarray)) else [nmax] * z.size
    if len(orders) != z.size:
        raise ShapeError(f"{len(orders)} orders for {z.size} arguments")
    for n in orders:
        _check_order(n)
    top = max(orders, default=0)
    nu = 0.5 if spherical else 0.0
    rows = [_sequence(n, _check_argument(x, n), nu, hankel) for n, x in zip(orders, z.flat)]
    return (np.array([b for b, _ in rows], dtype=complex).reshape(z.shape + (2,)),
            np.array([r + [1.0] * (top - len(r)) for _, r in rows],
                     dtype=complex).reshape(z.shape + (top,)))


def bessel_j(nmax, z, spherical: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """J_0(z) .. J_nmax(z), or j_n with ``spherical``, in ratio form:
    (J_0, J_1) e^{-Im z} and J_{n+1}/J_n for n < nmax along the last axis,
    for a scalar z or a 1-d batch."""
    return _all(False, nmax, z, spherical)


def bessel_h1(nmax, z, spherical: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """H_0^(1)(z) .. H_nmax^(1)(z), or h_n^(1) with ``spherical``, in ratio
    form: (H_0, H_1) e^{Im z} and H_{n+1}/H_n for n < nmax.  Raises on
    z = 0."""
    return _all(True, nmax, z, spherical)
