"""Special-function tests: series oracles, identities, ratio form, guards."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

from nearcloak import specfun as sf
from nearcloak.errors import RangeError, ShapeError, SingularArgumentError

import oracles


# ---------------------------------------------------------------------------
# Independent series oracles (used to freeze expected values)
# ---------------------------------------------------------------------------
def j0_maclaurin(z: complex) -> complex:
    """sum_m (-1)^m (z/2)^{2m} / (m!)^2, summed to machine precision."""
    term = 1.0 + 0j
    total = term
    m = 1
    while abs(term) > 1e-20 * abs(total):
        term *= -(z / 2) ** 2 / (m * m)
        total += term
        m += 1
    return total


def j1_maclaurin(z: complex) -> complex:
    term = z / 2
    total = term
    m = 1
    while abs(term) > 1e-20 * abs(total):
        term *= -(z / 2) ** 2 / (m * (m + 1))
        total += term
        m += 1
    return total


def y0_series(z: complex) -> complex:
    """(2/pi)[(ln(z/2)+gamma) J_0 - sum (-1)^m h_m (z^2/4)^m/(m!)^2]."""
    gamma = 0.5772156649015328606
    term = 1.0 + 0j
    acc = 0j
    h = 0.0
    m = 1
    while True:
        term *= -(z / 2) ** 2 / (m * m)
        h += 1.0 / m
        acc += term * h
        if abs(term) < 1e-20:
            break
        m += 1
    return (2 / math.pi) * ((cmath.log(z / 2) + gamma) * j0_maclaurin(z) - acc)


# ---------------------------------------------------------------------------
# Values from the ratio form
# ---------------------------------------------------------------------------
def j_values(nmax, z, lam=0.0):
    """J_0..J_nmax(z) (j_n at lam = 1/2), rebuilt from specfun's base and ratios."""
    z = complex(z)
    return np.array([complex(v) for v in
                     oracles.rebuilt(sf.bessel_j(nmax, z, lam), z.imag)])


def h_values(nmax, z, lam=0.0):
    """H_0..H_nmax(z) (h_n at lam = 1/2), rebuilt from specfun's base and ratios."""
    z = complex(z)
    return np.array([complex(v) for v in
                     oracles.rebuilt(sf.bessel_h1(nmax, z, lam), -z.imag)])


# ---------------------------------------------------------------------------
# Point values
# ---------------------------------------------------------------------------
def test_j_at_zero():
    base, ratios = sf.bessel_j(0, 0.0)
    assert base.tolist() == [1.0, 0.0] and ratios.shape == (0,)
    base, ratios = sf.bessel_j(1, 0.0)
    assert ratios.tolist() == [0.0]  # the limit z/2 of J_1/J_0
    assert j_values(1, 0.0).tolist() == [1.0, 0.0]


def test_j0_at_one_against_maclaurin_oracle():
    oracle = j0_maclaurin(1.0)
    assert abs(oracle - 0.7651976866) < 1e-9  # frozen from the oracle
    base, ratios = sf.bessel_j(1, 1.0)
    assert abs(base[0] - oracle) < 1e-12
    assert abs(base[0] * ratios[0] - j1_maclaurin(1.0)) < 1e-12  # J_1 = J_0 (J_1/J_0)


def test_h0_at_one_against_series_oracle():
    oracle = j0_maclaurin(1.0) + 1j * y0_series(1.0)
    assert abs(oracle - (0.7651976866 + 0.0882569642j)) < 1e-9
    ours = sf.bessel_h1(0, 1.0)[0][0]
    assert abs(ours - oracle) < 1e-11


def test_h_scale_tracks_exponential_decay():
    z = 12.0 + 20.0j
    base = sf.bessel_h1(0, z)[0]
    # |H_0| ~ sqrt(2/(pi|z|)) e^{-Im z}: the base H_0 e^{Im z} stays O(1),
    # and ln|H_0| is -20 up to O(log|z|).
    assert -math.log(abs(z)) - 2.0 < math.log(abs(base[0])) - z.imag + 20.0 < 2.0
    assert abs(abs(base[0]) / math.sqrt(2.0 / (math.pi * abs(z))) - 1.0) < 10.0 / abs(z)


def test_deriv_order_zero_is_minus_first_order():
    # J_0'/J_0 = 0/z - J_1/J_0, so J_0' = -J_1.
    z = 1.3 + 0.4j
    base, ratios = sf.bessel_j(1, z)
    d = base[0] * (0.0 / z - ratios[0]) * cmath.exp(z.imag)
    assert abs(d + special.jv(1, z)) < 1e-14 * abs(d)


def test_deriv_small_argument_leading_order():
    oracle = -j1_maclaurin(0.04)  # J_0' = -J_1 ~ -z/2
    base, ratios = sf.bessel_j(1, 0.04)
    d = base[0] * -ratios[0]
    assert abs(d - oracle) < 1e-12
    assert abs(d + 0.02) < 1e-5


def test_h_deriv_magnitude_decays_exponentially():
    # |H_n'| = |H_n| |n/z - H_{n+1}/H_n| ~ sqrt(2/(pi|z|)) e^{-Im z}.
    z = 25.0 + 20.0j
    base, ratios = sf.bessel_h1(3, z)
    values = h_values(3, z) * math.exp(z.imag)  # Amos-scaled
    for n in range(3):
        d = abs(values[n] * (n / z - ratios[n]))
        expected = math.sqrt(2.0 / (math.pi * abs(z)))
        assert abs(d / expected - 1.0) < 10.0 / abs(z)


# ---------------------------------------------------------------------------
# Spherical functions
# ---------------------------------------------------------------------------
def test_spherical_closed_forms():
    for z in (0.7, 2.0 + 1.5j, 9.0 + 0.3j):
        j0 = j_values(0, z, lam=0.5)[0]
        assert abs(j0 - cmath.sin(z) / z) < 1e-13 * abs(j0)
        h0 = h_values(0, z, lam=0.5)[0]
        assert abs(h0 - (-1j * cmath.exp(1j * z) / z)) < 1e-13 * abs(h0)


def test_spherical_j1_closed_form_oracle():
    z = 0.1
    oracle = math.sin(z) / z ** 2 - math.cos(z) / z
    assert abs(oracle - 0.0333001) < 5e-7  # quoted to 6 digits
    base, ratios = sf.bessel_j(1, z, lam=0.5)
    assert abs(base[1] - oracle) < 1e-14
    assert abs(base[0] * ratios[0] - oracle) < 1e-14


def test_spherical_at_zero():
    assert sf.bessel_j(0, 0.0, lam=0.5)[0][0] == 1.0
    assert j_values(2, 0.0, lam=0.5).tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(SingularArgumentError):
        sf.bessel_h1(0, 0.0, lam=0.5)


# ---------------------------------------------------------------------------
# Identities (property tests)
# ---------------------------------------------------------------------------
def test_wronskian_y_form():
    # J_n Y_n' - J_n' Y_n = 2/(pi z), with Y = (H - J)/i and f' = f (n/z -
    # f_{n+1}/f_n).  The identity itself cancels to e^{-2 Im z} of the
    # product size, so draws keep 0 <= Im z <= 3 where it is resolvable in
    # double precision; the H-form below covers arbitrary Im z.
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(0, 21))
        re = rng.uniform(0.1, 30.0) * rng.choice([-1.0, 1.0])
        z = complex(re, rng.uniform(0.0, 3.0))
        if not (0.1 <= abs(z) <= 30.0) or z.real < 0:
            continue
        j, h = j_values(n + 1, z)[n], h_values(n + 1, z)[n]
        dj = j * (n / z - sf.bessel_j(n + 1, z)[1][n])
        dh = h * (n / z - sf.bessel_h1(n + 1, z)[1][n])
        w = j * (dh - dj) * -1j - dj * (h - j) * -1j
        err = abs(w / (2.0 / (math.pi * z)) - 1.0)
        assert err <= 1e-9, (n, z, err)


def test_wronskian_scaled_h_form_all_magnitudes():
    # J_n H_n' - J_n' H_n = J_n H_n (r_n - s_n) = 2i/(pi z) stays O(1/z) at
    # any Im z >= 0: J_n H_n is the product of the Amos-scaled values, whose
    # scales e^{+-Im z} cancel.
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(0, 15))
        z = complex(rng.uniform(0.1, 3000.0) * cmath.exp(1j * rng.uniform(0, math.pi)))
        j, h = sf.bessel_j(n + 1, z), sf.bessel_h1(n + 1, z)
        product = complex(oracles.rebuilt(j, 0.0)[n] * oracles.rebuilt(h, 0.0)[n])
        w = product * (j[1][n] - h[1][n])
        assert abs(w / (2j / (math.pi * z)) - 1.0) <= 1e-9


@pytest.mark.parametrize("kind", ["J", "H1"])
def test_recurrence_consistency(kind):
    # f_{n-1} + f_{n+1} = (2n/z) f_n, divided by f_n: 1/r_{n-1} + r_n = 2n/z,
    # relative to the largest of the three terms.
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        z = complex(rng.uniform(0.1, 30.0) * cmath.exp(1j * rng.uniform(0.0, math.pi)))
        ratios = (sf.bessel_j if kind == "J" else sf.bessel_h1)(n + 1, z)[1]
        terms = (1.0 / ratios[n - 1], ratios[n], 2.0 * n / z)
        err = abs(terms[0] + terms[1] - terms[2]) / max(map(abs, terms))
        assert err <= 1e-9


def test_asymptotic_agreement_large_imaginary():
    # Leading large-argument forms of the Amos-scaled values:
    # J_n e^{-Im z} ~ sqrt(1/(2 pi z)) e^{i(-Re z + n pi/2 + pi/4)},
    # H_n e^{Im z} ~ sqrt(2/(pi z)) e^{i(Re z - n pi/2 - pi/4)};
    # agreement to 10/|z| for Im z >= 15.
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(0, 3))
        x = rng.uniform(0.0, 300.0)
        y = rng.uniform(15.0, 300.0)
        z = complex(x, y)
        jn = complex(oracles.rebuilt(sf.bessel_j(n, z), 0.0)[n])
        j_lead = cmath.sqrt(1.0 / (2 * math.pi * z)) * cmath.exp(
            1j * (-z.real + n * math.pi / 2 + math.pi / 4))
        assert abs(jn / j_lead - 1.0) <= 10.0 / abs(z)
        hn = complex(oracles.rebuilt(sf.bessel_h1(n, z), 0.0)[n])
        h_lead = cmath.sqrt(2.0 / (math.pi * z)) * cmath.exp(
            1j * (z.real - n * math.pi / 2 - math.pi / 4))
        assert abs(hn / h_lead - 1.0) <= 10.0 / abs(z)


def test_cross_check_against_scipy_complex_plane():
    # Check over the closed upper half-plane.  Orders 0 and 1 are scipy's
    # own jve and hankel1e, so this checks the continued fraction and the
    # upward step at the higher orders.
    rng = np.random.default_rng(19)
    for _ in range(400):
        n = int(rng.integers(0, 21))
        z = complex(rng.uniform(0.1, 30.0)
                    * cmath.exp(1j * rng.uniform(0.0, math.pi)))
        ours = j_values(n, z)[n]
        ref = complex(special.jv(n, z))
        assert abs(ours - ref) <= 1e-9 * max(abs(ref), 1e-280)
        ours = h_values(n, z)[n]
        ref = complex(special.hankel1(n, z))
        assert abs(ours - ref) <= 1e-9 * abs(ref)


def test_spherical_cross_check_against_scipy():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(0, 15))
        z = complex(rng.uniform(0.1, 30.0)
                    * cmath.exp(1j * rng.uniform(0.0, math.pi)))
        front = cmath.sqrt(math.pi / (2 * z))
        ours = j_values(n, z, lam=0.5)[n]
        ref = front * complex(special.jv(n + 0.5, z))
        assert abs(ours - ref) <= 1e-9 * abs(ref)
        ours = h_values(n, z, lam=0.5)[n]
        ref = front * complex(special.hankel1(n + 0.5, z))
        assert abs(ours - ref) <= 1e-9 * abs(ref)


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------
def test_range_guards():
    with pytest.raises(RangeError):
        sf.bessel_j(sf.ORDER_MAX + 1, 1.0)
    with pytest.raises(RangeError):
        sf.bessel_j(0, 3.0e4)
    for order in (-1, True):
        with pytest.raises(RangeError, match="order must be a nonnegative integer"):
            sf.bessel_j(order, 1.0)
    with pytest.raises(SingularArgumentError):
        sf.bessel_h1(0, 0.0)
    # the J ratios are admissible at z = 0, where they take their limit 0
    base, ratios = sf.bessel_j(3, np.array([1.0, 0.0]))
    assert base[1].tolist() == [1.0, 0.0] and ratios[1].tolist() == [0.0, 0.0, 0.0]


def test_non_finite_argument_is_a_range_error():
    with pytest.raises(RangeError, match="non-finite argument"):
        sf.bessel_j(3, complex(math.nan, 0))


def test_upward_regime_lifts_the_argument_guard():
    # Beyond |z| = 2e4, up to 1e8, the arguments where every order of the
    # call takes the upward step are admitted: Im z >= 20 and
    # top^2 Im z <= |z|^2.  At top = ORDER_MAX:
    for z in (3e4 + 20j, 1e6 * cmath.exp(0.294j), 9.9e7 * cmath.exp(0.5j)):
        for family in (sf.bessel_j, sf.bessel_h1):
            base, ratios = family(sf.ORDER_MAX, z)
            assert np.all(np.isfinite(base)) and np.all(np.isfinite(ratios))
    for z in (3e4, 3e4 + 19.9j, 3e4j, 1.01e8 * cmath.exp(0.5j)):
        for family in (sf.bessel_j, sf.bessel_h1):
            with pytest.raises(RangeError, match="exceeds the guard"):
                family(sf.ORDER_MAX, z)


def test_argument_guard_follows_the_top_order_of_the_call():
    # At top = 150 the order condition admits z = iy for y >= 150^2 = 22500:
    # 2.3e4i passes and 2.2e4i is refused, as is any Im z < 20.  Each row
    # of a batch is judged at its own order, and a lower order admits 2.2e4i.
    for family in (sf.bessel_j, sf.bessel_h1):
        for z in (2.3e4j, 3e4 + 20j):
            base, ratios = family(150, z)
            assert np.all(np.isfinite(base)) and np.all(np.isfinite(ratios))
        for z in (2.2e4j, 3e4 + 19.9j):
            with pytest.raises(RangeError, match="exceeds the guard .* top order 150"):
                family(150, z)
        base, ratios = family([10, 150], np.array([2.2e4j, 1.0]))
        alone = family(10, 2.2e4j)
        assert np.array_equal(base[0], alone[0]) and np.array_equal(ratios[0, :10], alone[1])
        with pytest.raises(RangeError, match="top order 150"):
            family([150, 10], np.array([2.2e4j, 1.0]))
        family(140, 2.2e4j)
    # J_n(iy) = i^n I_n(y): the admitted ratios are i I_{n+1}/I_n.
    y = 2.3e4
    _, ratios = sf.bessel_j(150, 1j * y)
    n = np.arange(150)
    ref = 1j * special.ive(n + 1, y) / special.ive(n, y)
    assert np.max(np.abs(ratios - ref) / np.abs(ref)) <= 1e-13


def _family(hankel, lam):
    """(the specfun family at order offset lam, the sign of its Amos scale,
    its mpmath oracle Gamma(lam + 1) (2/z)^lam Z_{n+lam}(z))."""
    bessel = mpmath.hankel1 if hankel else mpmath.besselj
    return (lambda n, z: (sf.bessel_h1 if hankel else sf.bessel_j)(n, z, lam),
            -1.0 if hankel else 1.0,
            lambda n, z: (mpmath.gamma(lam + 1) * mpmath.exp(-lam * mpmath.log(z / 2))
                          * bessel(n + lam, z)))


FAMILIES = {
    "bessel_j_all": _family(False, 0.0), "bessel_h1_all": _family(True, 0.0),
    "spherical_j_all": _family(False, 0.5), "spherical_h1_all": _family(True, 0.5),
    "offset1_j_all": _family(False, 1.0), "offset1_h1_all": _family(True, 1.0),
    "offset1.5_j_all": _family(False, 1.5), "offset1.5_h1_all": _family(True, 1.5),
}
# The order offsets of the batch tests: ids False and True are the
# cylindrical and spherical cases, as they have always been named.
OFFSETS = pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5], ids=["False", "True", "1", "1.5"])


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_argument_floor(name):
    family, sign, oracle = FAMILIES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (1e-200, 1e-200j, -3e-60 + 1e-60j):
            with pytest.raises(RangeError, match="floor"):
                family(3, z)
        # just above the floor every order is finite and accurate
        z = 1.5 * sf.ARGUMENT_FLOOR * cmath.exp(0.7j)
        seq = family(sf.ORDER_MAX, z)
    assert np.all(np.isfinite(seq[0])) and np.all(np.isfinite(seq[1]))
    got = oracles.rebuilt(seq, sign * z.imag)
    with mpmath.workdps(30):
        for n in (0, 1, 3, sf.ORDER_MAX):
            ref = oracle(n, mpmath.mpc(z))
            # values near e^{+-2.4e4} (order 200): the ratio products carry
            # the rounding of 200 ratios
            tol = 1e-12 + 1e-15 * abs(float(mpmath.log(abs(ref))))
            assert abs(got[n] - ref) <= tol * abs(ref)


def test_spherical_derivatives_closed_forms():
    z = 1.7 + 0.6j
    j0 = j_values(0, z, lam=0.5)[0]
    d = j0 * -sf.bessel_j(1, z, lam=0.5)[1][0]
    expected = cmath.cos(z) / z - cmath.sin(z) / z ** 2  # j_0' = -j_1
    assert abs(d - expected) < 1e-13 * abs(expected)
    h0 = h_values(0, z, lam=0.5)[0]
    d = h0 * -sf.bessel_h1(1, z, lam=0.5)[1][0]
    h1 = -cmath.exp(1j * z) * (1.0 / z + 1j / z ** 2)
    assert abs(d + h1) < 1e-13 * abs(h1)  # h_0' = -h_1


# ---------------------------------------------------------------------------
# Batches of arguments
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_batch_rows_equal_calls_at_their_own_order(name):
    family = FAMILIES[name][0]
    zs = np.array([0.02, 1.5 + 0.5j, 40.0, 3.0 + 2.0j, 600.0 + 900.0j])
    orders = [9, 30, 12, 20, 25]
    base, ratios = family(orders, zs)
    assert base.shape == (zs.size, 2) and ratios.shape == (zs.size, max(orders))
    for row, (n, z) in enumerate(zip(orders, zs)):
        alone = family(n, z)
        assert np.array_equal(base[row], alone[0])
        assert np.array_equal(ratios[row, :n], alone[1])
        assert np.all(ratios[row, n:] == 1.0)  # the filler past the row's order
    # One order for all arguments: each row is the scalar call.
    same = family(12, zs)
    for row, z in enumerate(zs):
        alone = family(12, z)
        assert np.array_equal(same[0][row], alone[0])
        assert np.array_equal(same[1][row], alone[1])
    # A 0-d order array is the scalar order it holds.
    for z in (zs, zs[1]):
        for got, want in zip(family(np.array(12), z), family(12, z)):
            assert np.array_equal(got, want)


@OFFSETS
def test_batch_row_agrees_with_its_call_across_the_route_boundary(lam):
    # At the FSH angle, order 14 takes the upward step (14^2 Im z <= |z|^2)
    # and order 60 does not.  A row at order 14 in a batch whose top order
    # is 60 still takes the upward step, so it is its own call bit for bit,
    # as is the row at order 60, which takes the continued fraction.
    z = 300.0 * cmath.exp(0.294j)
    assert sf._upward_is_stable(14, z) and not sf._upward_is_stable(60, z)
    base, ratios = sf.bessel_j([14, 60], np.array([z, z]), lam)
    for row, n in enumerate((14, 60)):
        alone = sf.bessel_j(n, z, lam)
        assert np.array_equal(base[row], alone[0])
        assert np.array_equal(ratios[row, :n], alone[1])


def _every_route(rng, size, hankel):
    """``size`` seeded (orders, arguments), one order per row, taking the
    routes of _sequence in turn: z = 0 (J and j only; H and h raise there),
    small real z, upward-stable complex z with |z| <= 2e4, complex z on the
    continued fraction, and 2e4 < |z| <= 1e8 on the upward step."""
    orders, zs = [], []
    while len(zs) < size:
        n, route = int(rng.integers(0, 81)), len(zs) % 5
        turn = cmath.exp(1j * rng.uniform(0.01, math.pi - 0.01))
        if route == 0 and not hankel:
            z = 0j
        elif route in (0, 1):
            z = complex(rng.uniform(1e-3, 30.0))
        else:
            lo, hi = {2: (50.0, sf.ARGUMENT_GUARD), 3: (0.5, 60.0), 4: (sf.ARGUMENT_GUARD, 1e8)}[route]
            z = math.exp(rng.uniform(math.log(lo), math.log(hi))) * turn
            if sf._upward_is_stable(n, z) != (route != 3):
                continue
        orders.append(n)
        zs.append(z)
    return orders, np.array(zs)


@OFFSETS
@pytest.mark.parametrize("hankel", [False, True], ids=["j", "h1"])
def test_batch_over_every_route_is_its_rows_own_calls(hankel, lam):
    # One Amos call serves the whole batch; every row keeps the bits of its
    # own call, and the last row those of a batch of one.
    family = sf.bessel_h1 if hankel else sf.bessel_j
    orders, zs = _every_route(np.random.default_rng(34), 2000, hankel)
    size = np.abs(zs)
    stable = np.array([sf._upward_is_stable(n, z) for n, z in zip(orders, zs)])
    assert np.sum(zs == 0) == (0 if hankel else 400)
    assert np.sum((zs.imag == 0) & (zs != 0)) == (800 if hankel else 400)
    assert np.sum((zs.imag > 0) & ~stable) == 400  # the fraction, for J and j
    assert np.sum(stable & (size <= sf.ARGUMENT_GUARD)) == 400
    assert np.sum(stable & (size > sf.ARGUMENT_GUARD)) == 400
    base, ratios = family(orders, zs, lam)
    for row, (n, z) in enumerate(zip(orders, zs)):
        alone = family(n, z, lam)
        assert np.array_equal(base[row], alone[0])
        assert np.array_equal(ratios[row, :n], alone[1])
    one = family(orders[-1:], zs[-1:], lam)
    assert np.array_equal(one[0][0], base[1999])
    assert np.array_equal(one[1][0], ratios[1999, :orders[-1]])


def test_upward_step_needs_the_order_condition():
    # At z = -40.94 + 271.55i the upward step from J_0, J_1 is off by 5e-5
    # at order 87, which n <= |z|/2 would admit: a rounding error at order
    # 0 grows by about exp(n^2 Im z/|z|^2) = e^27 relative to J_n.  The
    # order condition leaves it to the continued fraction.
    z, n = complex(-40.94, 271.55), 87
    assert n <= abs(z) / 2 and not sf._upward_is_stable(n, z)
    (base,) = sf._base([z], 0.0, False)
    upward = oracles.rebuilt((base, sf._upward(base, n, z, 0.0)), z.imag)
    fraction = oracles.rebuilt(sf.bessel_j(n, z), z.imag)
    with mpmath.workdps(60):
        exact = mpmath.besselj(n, mpmath.mpc(z))
        assert abs(upward[n] - exact) > 1e-6 * abs(exact)
        assert abs(fraction[n] - exact) <= 1e-14 * abs(exact)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_lower_half_plane_is_out_of_range(name):
    family = FAMILIES[name][0]
    for z in (2.0 - 1e-3j, np.array([1.0, 2.0 + 1.0j, 2.0 - 1e-3j])):
        with pytest.raises(RangeError, match="below the real axis"):
            family(3, z)
    # A signed zero imaginary part lies on the axis.
    on_axis, plain = family(3, complex(2.0, -0.0)), family(3, 2.0)
    assert np.array_equal(on_axis[0], plain[0])
    assert np.array_equal(on_axis[1], plain[1])


@pytest.mark.parametrize("lam", [-0.5, 0.25, sf.OFFSETS[-1] + 0.5, math.nan, True, "0.5", 1j])
def test_order_offset_is_a_half_integer_up_to_the_cap(lam):
    for family in (sf.bessel_j, sf.bessel_h1):
        with pytest.raises(RangeError, match="order offset must be one of"):
            family(3, 1.0, lam)


def test_offsets_one_and_three_halves_in_closed_form():
    # Gamma(2) (2/z) J_{n+1}(z) and Gamma(5/2) (2/z)^(3/2) J_{n+3/2}(z), whose
    # order 0 is 2 J_1(z)/z and 3 (sin z - z cos z)/z^3 = 3 j_1(z)/z.
    for z in (0.7, 2.0 + 1.5j, 9.0 + 0.3j):
        f = j_values(1, z, lam=1.0)
        assert abs(f[0] - 2.0 * complex(special.jv(1, z)) / z) < 1e-13 * abs(f[0])
        f = j_values(0, z, lam=1.5)
        exact = 3.0 * (cmath.sin(z) - z * cmath.cos(z)) / z ** 3
        assert abs(f[0] - exact) < 1e-13 * abs(exact)
        assert sf.bessel_j(0, 0.0, lam=1.5)[0].tolist() == [1.0, 0.0]


def test_batch_guards_apply_to_every_argument():
    with pytest.raises(RangeError, match="below the floor"):
        sf.bessel_j(3, np.array([1.0, 1e-60]))
    with pytest.raises(SingularArgumentError):
        sf.bessel_h1(3, np.array([1.0, 0.0]), lam=0.5)
    # one order per argument, or a single order for all of them
    for family in (sf.bessel_j, sf.bessel_h1):
        for orders, z in (([3, 4], 1.0), ([3], np.array([1.0, 2.0])),
                          ([3, 4, 5], np.array([1.0, 2.0]))):
            with pytest.raises(ShapeError, match="orders for"):
                family(orders, z)
