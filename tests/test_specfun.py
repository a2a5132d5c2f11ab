"""Special-function tests: series oracles, identities, scaling, guards."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

from nearcloak import specfun as sf
from nearcloak.errors import DomainError, RangeError, SingularArgumentError


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
# Point values
# ---------------------------------------------------------------------------
def test_j_at_zero():
    v = sf.bessel_j_all(0, 0.0)[0]
    assert v.to_complex() == 1.0
    v = sf.bessel_j_all(1, 0.0)[1]
    assert v.mantissa == 0 and v.to_complex() == 0


def test_j0_at_one_against_maclaurin_oracle():
    oracle = j0_maclaurin(1.0)
    assert abs(oracle - 0.7651976866) < 1e-9  # frozen from the oracle
    ours = sf.bessel_j_all(0, 1.0)[0].to_complex()
    assert abs(ours - oracle) < 1e-12


def test_h0_at_one_against_series_oracle():
    oracle = j0_maclaurin(1.0) + 1j * y0_series(1.0)
    assert abs(oracle - (0.7651976866 + 0.0882569642j)) < 1e-9
    ours = sf.bessel_h1_all(0, 1.0)[0].to_complex()
    assert abs(ours - oracle) < 1e-11


def test_h_scale_tracks_exponential_decay():
    z = 12.0 + 20.0j
    v = sf.bessel_h1_all(0, z)[0]
    # |H_0| ~ sqrt(2/(pi|z|)) e^{-Im z}: log scale -20 up to O(log|z|).
    assert -20.0 - math.log(abs(z)) - 2.0 < v.abs_log() < -20.0 + 2.0


def test_deriv_order_zero_is_minus_first_order():
    z = 1.3 + 0.4j
    d = sf.derivative_all(sf.bessel_j_all(1, z), z)[0].to_complex()
    assert abs(d + sf.bessel_j_all(1, z)[1].to_complex()) < 1e-14 * abs(d)


def test_deriv_small_argument_leading_order():
    oracle = -j1_maclaurin(0.04)  # J_0' = -J_1 ~ -z/2
    d = sf.derivative_all(sf.bessel_j_all(1, 0.04), 0.04)[0].to_complex()
    assert abs(d - oracle) < 1e-12
    assert abs(d + 0.02) < 1e-5


def test_h_deriv_magnitude_decays_exponentially():
    z = 25.0 + 20.0j
    ds = sf.derivative_all(sf.bessel_h1_all(3, z), z)
    for n in range(3):
        d = ds[n]
        expected = math.sqrt(2.0 / (math.pi * abs(z))) * math.exp(-z.imag)
        assert abs(math.exp(d.abs_log()) / expected - 1.0) < 10.0 / abs(z)


# ---------------------------------------------------------------------------
# Spherical functions
# ---------------------------------------------------------------------------
def test_spherical_closed_forms():
    for z in (0.7, 2.0 + 1.5j, 9.0 - 0.3j):
        j0 = sf.spherical_j_all(0, z)[0].to_complex()
        assert abs(j0 - cmath.sin(z) / z) < 1e-13 * abs(j0)
        h0 = sf.spherical_h1_all(0, z)[0].to_complex()
        assert abs(h0 - (-1j * cmath.exp(1j * z) / z)) < 1e-13 * abs(h0)


def test_spherical_j1_closed_form_oracle():
    z = 0.1
    oracle = math.sin(z) / z ** 2 - math.cos(z) / z
    assert abs(oracle - 0.0333001) < 5e-7  # quoted to 6 digits
    ours = sf.spherical_j_all(1, z)[1].to_complex()
    assert abs(ours - oracle) < 1e-14


def test_spherical_at_zero():
    assert sf.spherical_j_all(0, 0.0)[0].to_complex() == 1.0
    assert sf.spherical_j_all(2, 0.0)[2].mantissa == 0
    with pytest.raises(SingularArgumentError):
        sf.spherical_h1_all(0, 0.0)


# ---------------------------------------------------------------------------
# Legendre polynomials
# ---------------------------------------------------------------------------
def test_legendre_low_orders():
    for x in (-1.0, -0.3, 0.0, 0.8, 1.0):
        p = sf.legendre_p_table(1, x)
        assert p[0] == 1.0
        assert p[1] == x


def test_legendre_p5_explicit_polynomial():
    x = 0.3
    oracle = (63 * x ** 5 - 70 * x ** 3 + 15 * x) / 8.0
    assert abs(oracle - 0.3454) < 1e-4
    assert abs(sf.legendre_p_table(5, x)[5] - oracle) < 1e-14


def test_legendre_bounded_and_domain_checked():
    xs = np.linspace(-1, 1, 201)
    table = sf.legendre_p_table(12, xs)
    assert np.max(np.abs(table)) <= 1.0 + 1e-12
    with pytest.raises(DomainError):
        sf.legendre_p_table(3, 1.2)


# ---------------------------------------------------------------------------
# Identities (property tests)
# ---------------------------------------------------------------------------
def test_wronskian_y_form():
    # J_n Y_n' - J_n' Y_n = 2/(pi z).  The identity itself cancels to
    # e^{-2|Im z|} of the product size, so draws keep |Im z| <= 3 where it
    # is resolvable in double precision; the scaled H-form below covers
    # arbitrary Im z.
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(0, 21))
        re = rng.uniform(0.1, 30.0) * rng.choice([-1.0, 1.0])
        z = complex(re, rng.uniform(-3.0, 3.0))
        if not (0.1 <= abs(z) <= 30.0) or z.real < 0:
            continue
        js = sf.bessel_j_all(n + 1, z)
        hs = sf.bessel_h1_all(n + 1, z)
        djs = sf.derivative_all(js, z)
        dhs = sf.derivative_all(hs, z)
        minus_i = -1j
        ys = [(hs[m] - js[m]) * minus_i for m in range(n + 1)]
        dys = [(dhs[m] - djs[m]) * minus_i for m in range(n)] + []
        w = js[n] * ((dhs[n] - djs[n]) * minus_i) - djs[n] * ys[n]
        ref = sf.scaled(2.0 / (math.pi * z), 0.0)
        err = abs(((w - ref) / ref).to_complex())
        assert err <= 1e-9, (n, z, err)


def test_wronskian_scaled_h_form_all_magnitudes():
    # J_n H_n' - J_n' H_n = 2i/(pi z) stays O(1/z) at any Im z >= 0, so it
    # exercises the e^{+-Im z} scale cancellation directly.
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(0, 15))
        z = complex(rng.uniform(0.1, 3000.0) * cmath.exp(1j * rng.uniform(0, math.pi)))
        js = sf.bessel_j_all(n + 1, z)
        hs = sf.bessel_h1_all(n + 1, z)
        djs = sf.derivative_all(js, z)
        dhs = sf.derivative_all(hs, z)
        w = js[n] * dhs[n] - djs[n] * hs[n]
        ref = sf.scaled(2j / (math.pi * z), 0.0)
        assert abs(((w - ref) / ref).to_complex()) <= 1e-9


@pytest.mark.parametrize("kind", ["J", "H1"])
def test_recurrence_consistency(kind):
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        z = complex(rng.uniform(0.1, 30.0) * cmath.exp(1j * rng.uniform(-0.45 * math.pi, math.pi)))
        seq = (sf.bessel_j_all if kind == "J" else sf.bessel_h1_all)(n + 1, z)
        lhs = seq[n - 1] + seq[n + 1]
        rhs = seq[n] * (2.0 * n / z)
        scale = max(seq[n - 1].abs_log(), seq[n + 1].abs_log(), rhs.abs_log())
        err = math.exp((lhs - rhs).abs_log() - scale) if (lhs - rhs).mantissa != 0 else 0.0
        assert err <= 1e-9


def test_scaled_value_round_trip():
    # exp(log x) wobbles by ~|log x| ulps, so the first round trip is
    # 1e-13-tight over 1e+-200 magnitudes; re-scaling the unscaled value
    # must then reproduce the mantissa exactly (idempotent normal form).
    rng = np.random.default_rng(11)
    v = np.array([complex(rng.normal(), rng.normal()) * 10.0 ** rng.integers(-200, 200)
                  for _ in range(300)])
    sv = sf.scaled(v, 0.0)
    assert sv.to_complex() == pytest.approx(v, rel=1e-13, abs=0.0)
    size = np.abs(sv.mantissa)
    assert np.all((size == 0) | ((0.5 <= size) & (size <= 2.0)))
    again = sf.scaled(sv.to_complex(), 0.0)
    assert again.mantissa == pytest.approx(sv.mantissa, rel=1e-15)
    zero = sf.scaled(0.0, 0.0)
    assert zero.mantissa == 0 and zero.to_complex() == 0
    with pytest.raises(RangeError):
        sf.scaled(1.0, 800.0).to_complex()


def test_asymptotic_agreement_large_imaginary():
    # Leading large-argument forms: J_n ~ sqrt(1/(2 pi z)) e^{|Im z|}
    # e^{i(-Re z + n pi/2 + pi/4)}, H_n ~ sqrt(2/(pi z)) e^{-Im z}
    # e^{i(Re z - n pi/2 - pi/4)}; agreement to 10/|z| for Im z >= 15.
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(0, 3))
        x = rng.uniform(0.0, 300.0)
        y = rng.uniform(15.0, 300.0)
        z = complex(x, y)
        jn = sf.bessel_j_all(n, z)[n]
        j_lead = (sf.scaled(cmath.sqrt(1.0 / (2 * math.pi * z)), 0.0)
                  * sf.scaled(cmath.exp(1j * (-z.real + n * math.pi / 2 + math.pi / 4)), abs(z.imag)))
        assert abs(((jn - j_lead) / j_lead).to_complex()) <= 10.0 / abs(z)
        hn = sf.bessel_h1_all(n, z)[n]
        h_lead = (sf.scaled(cmath.sqrt(2.0 / (math.pi * z)), 0.0)
                  * sf.scaled(cmath.exp(1j * (z.real - n * math.pi / 2 - math.pi / 4)), -z.imag))
        assert abs(((hn - h_lead) / h_lead).to_complex()) <= 10.0 / abs(z)


def test_cross_check_against_scipy_complex_plane():
    # Independent implementation check over the full working range.
    rng = np.random.default_rng(19)
    for _ in range(400):
        n = int(rng.integers(0, 21))
        z = complex(rng.uniform(0.1, 30.0)
                    * cmath.exp(1j * rng.uniform(-0.45 * math.pi, math.pi)))
        ours = sf.bessel_j_all(n, z)[n].to_complex()
        ref = complex(special.jv(n, z))
        assert abs(ours - ref) <= 1e-9 * max(abs(ref), 1e-280)
        ours = sf.bessel_h1_all(n, z)[n].to_complex()
        ref = complex(special.hankel1(n, z))
        assert abs(ours - ref) <= 1e-9 * abs(ref)


def test_spherical_cross_check_against_scipy():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(0, 15))
        z = complex(rng.uniform(0.1, 30.0)
                    * cmath.exp(1j * rng.uniform(-0.45 * math.pi, math.pi)))
        front = cmath.sqrt(math.pi / (2 * z))
        ours = sf.spherical_j_all(n, z)[n].to_complex()
        ref = front * complex(special.jv(n + 0.5, z))
        assert abs(ours - ref) <= 1e-9 * abs(ref)
        ours = sf.spherical_h1_all(n, z)[n].to_complex()
        ref = front * complex(special.hankel1(n + 0.5, z))
        assert abs(ours - ref) <= 1e-9 * abs(ref)


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------
def test_range_guards():
    with pytest.raises(RangeError):
        sf.bessel_j_all(sf.ORDER_MAX + 1, 1.0)
    with pytest.raises(RangeError):
        sf.bessel_j_all(0, 3.0e4)
    with pytest.raises(RangeError):
        sf.bessel_j_all(-1, 1.0)
    with pytest.raises(SingularArgumentError):
        sf.bessel_h1_all(0, 0.0)
    with pytest.raises(SingularArgumentError):
        sf.derivative_all(sf.bessel_j_all(3, 0.0), 0.0)
    # order 0 only needs B_0' = -B_1, which is admissible at z = 0
    assert sf.derivative_all(sf.bessel_j_all(1, 0.0), 0.0)[0].mantissa == 0


FAMILIES = {
    "bessel_j_all": (sf.bessel_j_all, mpmath.besselj),
    "bessel_h1_all": (sf.bessel_h1_all, mpmath.hankel1),
    "spherical_j_all": (sf.spherical_j_all,
                        lambda n, z: mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(n + 0.5, z)),
    "spherical_h1_all": (sf.spherical_h1_all,
                         lambda n, z: mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.hankel1(n + 0.5, z)),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_argument_floor(name):
    family, oracle = FAMILIES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (1e-200, 1e-200j, -3e-60 + 1e-60j):
            with pytest.raises(RangeError, match="floor"):
                family(3, z)
        # just above the floor every order is finite and accurate
        z = 1.5 * sf.ARGUMENT_FLOOR * cmath.exp(0.7j)
        seq = family(sf.ORDER_MAX, z)
    with mpmath.workdps(30):
        for n in (0, 1, 3, sf.ORDER_MAX):
            ref = oracle(n, mpmath.mpc(z))
            got = mpmath.mpc(complex(seq.mantissa[n])) * mpmath.exp(seq.log_scale[n])
            # a log scale near 2.4e4 (order 200) is itself rounded to ~5e-12
            tol = 1e-12 + 1e-15 * abs(seq.log_scale[n])
            assert abs(got - ref) <= tol * abs(ref)


def test_scaled_arithmetic_basics():
    a = sf.scaled(3.0 + 4.0j, 10.0)
    b = sf.scaled(1.0 - 2.0j, -5.0)
    prod = (a * b).to_complex()
    assert prod == pytest.approx((3 + 4j) * (1 - 2j) * math.exp(5.0), rel=1e-14)
    quot = (a / b).to_complex()
    assert quot == pytest.approx((3 + 4j) / (1 - 2j) * math.exp(15.0), rel=1e-14)
    s = (a + b).to_complex()
    assert s == pytest.approx((3 + 4j) * math.exp(10.0) + (1 - 2j) * math.exp(-5.0),
                              rel=1e-14)
    # Far-separated scales: the small addend is negligible, not overflowing.
    big = sf.scaled(1.0, 500.0)
    small = sf.scaled(1.0, -500.0)
    assert (big + small).abs_log() == pytest.approx(500.0)


def test_spherical_derivatives_closed_forms():
    z = 1.7 + 0.6j
    d = sf.derivative_all(sf.spherical_j_all(1, z), z)[0].to_complex()
    expected = cmath.cos(z) / z - cmath.sin(z) / z ** 2  # j_0' = -j_1
    assert abs(d - expected) < 1e-13 * abs(expected)
    d = sf.derivative_all(sf.spherical_h1_all(1, z), z)[0].to_complex()
    h1 = -cmath.exp(1j * z) * (1.0 / z + 1j / z ** 2)
    assert abs(d + h1) < 1e-13 * abs(h1)  # h_0' = -h_1


# ---------------------------------------------------------------------------
# Batches of arguments
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("family", [sf.bessel_j_all, sf.bessel_h1_all,
                                    sf.spherical_j_all, sf.spherical_h1_all],
                         ids=lambda f: f.__name__)
def test_batch_rows_equal_calls_at_their_own_order(family):
    zs = np.array([0.02, 1.5 + 0.5j, 40.0, 3.0 - 2.0j, 600.0 + 900.0j])
    orders = [9, 30, 12, 20, 25]
    batch = family(orders, zs)
    assert batch.shape == (zs.size, max(orders) + 1)
    derivs = sf.derivative_all(batch, zs)
    for row, (n, z) in enumerate(zip(orders, zs)):
        alone = family(n, z)
        assert np.array_equal(batch.mantissa[row, :n + 1], alone.mantissa)
        assert np.array_equal(batch.log_scale[row, :n + 1], alone.log_scale)
        deriv = sf.derivative_all(alone, z)
        assert np.array_equal(derivs.mantissa[row, :n], deriv.mantissa)
    # One order for all arguments: each row is the scalar call.
    same = family(12, zs)
    for row, z in enumerate(zs):
        assert np.array_equal(same[row].mantissa, family(12, z).mantissa)


def test_batch_guards_apply_to_every_argument():
    with pytest.raises(RangeError, match="below the floor"):
        sf.bessel_j_all(3, np.array([1.0, 1e-60]))
    with pytest.raises(SingularArgumentError):
        sf.derivative_all(sf.bessel_j_all(3, np.array([1.0, 0.0])), np.array([1.0, 0.0]))
