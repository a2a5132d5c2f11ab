"""Property tests over parameter space: S-matrix invariants and scaled arrays.

The modal invariants are per-mode unitarity |S_n| = 1 for the lossless
sound-soft/sound-hard linings and passivity |S_n| <= 1 for the lossy
FSS/FSH linings, with S_n = 1 + 2 d_n (-i)^n in 2D (d_n carries i^n) and
S_n = 1 + 2 d_n in 3D; for the lossy linings the optical theorem becomes
the inequality scattered power <= extinction.  The BIE far field is
invariant under rotating the obstacle and the incident direction together.
The sequence properties pin specfun's ratio form (log-derivatives, and
values rebuilt in mpmath from the base value and the ratio products) and
the solver's in-range products and quotients of sequences to an
element-by-element mpmath oracle, which is independent of specfun and
has no exponent limit.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nearcloak import bie, mie, specfun
from nearcloak.media import virtual_core_params
from nearcloak.mie import SchemeSpec, WaveParams

import oracles

SETTINGS = settings(max_examples=40, deadline=None)

dims = st.sampled_from([2, 3])
wavenumbers = st.floats(0.5, 4.0)
radii = st.floats(math.log(1e-6), math.log(0.5)).map(math.exp)
lossy_schemes = st.one_of(
    st.builds(SchemeSpec.finite_sound_soft, beta_coeff=st.floats(0.1, 10.0)),
    st.builds(SchemeSpec.finite_sound_hard, c=st.floats(0.2, 5.0),
              delta=st.floats(0.1, 0.75), a=st.floats(0.5, 5.0), b=st.floats(0.1, 5.0)))

_MINUS_I_POW = np.array([1.0, -1.0j, -1.0, 1.0j])


def _wave(dim, k):
    return WaveParams(k, np.eye(dim)[0])


def _smatrix(sol):
    n = np.arange(sol.n_max + 1)
    phase = _MINUS_I_POW[n & 3] if sol.dim == 2 else 1.0
    return 1.0 + 2.0 * sol.d_n * phase


# ---------------------------------------------------------------------------
# Modal invariants
# ---------------------------------------------------------------------------
@SETTINGS
@given(dim=dims, k=wavenumbers, rho=radii, kind=st.sampled_from(["ss", "sh"]))
def test_lossless_linings_are_unitary_per_mode(dim, k, rho, kind):
    sol = mie.solve(SchemeSpec(kind), dim, _wave(dim, k), rho)
    assert np.max(np.abs(np.abs(_smatrix(sol)) - 1.0)) <= 1e-12


@SETTINGS
@given(dim=dims, k=wavenumbers, rho=radii, scheme=lossy_schemes)
def test_lossy_linings_are_passive_per_mode(dim, k, rho, scheme):
    sigma_l, q_l = scheme.layer_params(rho)
    # Beyond the argument guard the solve correctly raises RangeError.
    assume(abs(k * cmath.sqrt(q_l / sigma_l) * rho) <= specfun.ARGUMENT_GUARD)
    sol = mie.solve(scheme, dim, _wave(dim, k), rho, (1.0, 1.0))
    assert np.max(np.abs(_smatrix(sol))) <= 1.0 + 1e-12


def _scattered_and_extinction(sol, k):
    """Quadrature of the scattered power and the forward-amplitude extinction.

    2D: int_0^{2pi} |A|^2 dtheta (4096-point trapezoid, exact for the
    trigonometric polynomial) against -sqrt(8 pi / k) Re[e^{i pi/4} A(0)].
    3D: 2 pi int_0^pi |A|^2 sin(theta) dtheta (64-node Gauss-Legendre in
    cos(theta), exact for degree 2 n_max <= 127) against (4 pi / k) Im A(0).
    """
    forward = mie.far_field(sol, np.array([0.0])).amplitude[0]
    if sol.dim == 2:
        th = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        amp = mie.far_field(sol, th).amplitude
        scattered = np.mean(np.abs(amp) ** 2) * 2 * math.pi
        return scattered, -math.sqrt(8 * math.pi / k) * (cmath.exp(1j * math.pi / 4) * forward).real
    nodes, weights = np.polynomial.legendre.leggauss(64)
    th = np.arccos(np.clip(nodes, -1, 1))
    order = np.argsort(th)
    amp = mie.far_field(sol, th[order]).amplitude[np.argsort(order)]
    scattered = 2 * math.pi * float(weights @ (np.abs(amp) ** 2))
    return scattered, (4 * math.pi / k) * forward.imag


@SETTINGS
@given(dim=dims, k=wavenumbers, rho=radii, scheme=lossy_schemes)
def test_lossy_linings_scatter_at_most_the_extinction(dim, k, rho, scheme):
    sigma_l, q_l = scheme.layer_params(rho)
    assume(abs(k * cmath.sqrt(q_l / sigma_l) * rho) <= specfun.ARGUMENT_GUARD)
    sol = mie.solve(scheme, dim, _wave(dim, k), rho, (1.0, 1.0))
    assert sol.n_max <= 63   # inside the exactness range of both quadratures
    scattered, extinction = _scattered_and_extinction(sol, k)
    assert scattered <= extinction * (1.0 + 1e-8)


# The first zero of J_0: with k = 2 and sigma' = 1 in 2D, q' = J01^2 puts
# k_2 rho/2 on it at every rho.
J01 = 2.404825557695773


@SETTINGS
@given(dim=dims, scheme=st.one_of(lossy_schemes, st.just(SchemeSpec.layered(1.5, 2 + 0.3j))),
       k=wavenumbers, rho=radii,
       sigma=st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
       q_re=st.floats(-10.0, 10.0), q_im=st.floats(0.0, 10.0))
@example(dim=2, scheme=SchemeSpec.finite_sound_hard(), k=2.0, rho=0.1, sigma=1.0,
         q_re=J01 ** 2, q_im=0.0)
def test_interface_continuity_and_flux(dim, scheme, k, rho, sigma, q_re, q_im):
    # u and the flux sigma du/dr are continuous at rho (exterior/layer) and
    # at rho/2 (layer/core), within 1e-10 of max|u| on the exterior side of
    # rho.  The flux is taken as r sigma du/dr: sigma du/dr grows like the
    # layer wavenumber, ~1/rho, and so does its rounding (up to 1e-8 of
    # max|u| at rho = 1e-6), while r sigma du/dr is scale-free.
    q = complex(q_re, q_im)
    assume(abs(q) >= 1e-3)  # lossy linings need contents with a wavenumber
    sigma_l, q_l = scheme.layer_params(rho)
    assume(abs(k * cmath.sqrt(q_l / sigma_l) * rho) <= specfun.ARGUMENT_GUARD)
    sol = mie.solve(scheme, dim, _wave(dim, k), rho, (sigma, q))
    sigma_a, _ = virtual_core_params(sigma, q, rho, dim)
    th = np.linspace(0.0, math.pi, 7)

    def field(r, region, derivative=False):
        return mie.field_on_circle(sol, r, th, region=region, radial_derivative=derivative)

    scale = np.max(np.abs(field(rho, "exterior")))
    for r, (outer, sigma_out), (inner, sigma_in) in (
            (rho, ("exterior", 1.0), ("layer", sigma_l)),
            (rho / 2, ("layer", sigma_l), ("core", sigma_a))):
        assert np.max(np.abs(field(r, outer) - field(r, inner))) <= 1e-10 * scale
        flux = sigma_out * field(r, outer, True) - sigma_in * field(r, inner, True)
        assert r * np.max(np.abs(flux)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Cloaked contents under the dilation x -> rho x
# ---------------------------------------------------------------------------
@SETTINGS
@given(dim=dims, rho=radii, sigma=st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
       q_re=st.floats(-1e3, 1e3), q_im=st.floats(0.0, 1e3))
def test_virtual_core_params_is_the_dilation_push_forward(dim, rho, sigma, q_re, q_im):
    # The generic push-forward with M = rho I and J = rho^dim.
    q = complex(q_re, q_im)
    sigma_v, q_v = virtual_core_params(sigma, q, rho, dim)
    ref = oracles.push_forward(oracles.MediumSpec.isotropic(sigma, q, dim),
                               oracles.JacobianData(rho * np.eye(dim), rho ** dim))
    assert np.allclose(ref.sigma, sigma_v * np.eye(dim), rtol=1e-13, atol=0.0)
    assert abs(ref.q - q_v) <= 1e-13 * abs(q_v)


# ---------------------------------------------------------------------------
# BIE far field under rotation
# ---------------------------------------------------------------------------
def _star_curve(amps, phases, alpha, n_points=64):
    """r(t) = 1 + sum_{m=2..4} a_m cos(m t + phi_m), turned by alpha:
    x(t) = r(t) e^{i(t + alpha)} has modes 1 and m + 1, 1 - m."""
    turn = cmath.exp(1j * alpha)
    modes = [(1, turn)]
    for m, a, phi in zip(range(2, 5), amps, phases):
        modes += [(m + 1, 0.5 * a * turn * cmath.exp(1j * phi)),
                  (1 - m, 0.5 * a * turn * cmath.exp(-1j * phi))]
    return bie.BoundaryCurve(tuple(modes), n_points, name="star")


coefficients = st.lists(st.floats(-0.08, 0.08), min_size=3, max_size=3).map(np.array)
phase_triples = st.lists(st.floats(0.0, 2 * math.pi), min_size=3, max_size=3).map(np.array)


@SETTINGS
@given(amps=coefficients, phases=phase_triples, k=wavenumbers,
       alpha=st.floats(0.0, math.pi))
def test_bie_far_field_is_rotation_invariant(amps, phases, k, alpha):
    # theta + alpha stays inside [0, 2 pi]
    angles = np.linspace(0.0, 2 * math.pi - alpha, 32)
    wave = WaveParams(k, np.array([1.0, 0.0]))
    turned = WaveParams(k, np.array([math.cos(alpha), math.sin(alpha)]))
    a0 = bie.far_field_from_density(
        bie.assemble_and_solve(_star_curve(amps, phases, 0.0), wave), wave, angles).amplitude
    a1 = bie.far_field_from_density(
        bie.assemble_and_solve(_star_curve(amps, phases, alpha), turned), turned,
        angles + alpha).amplitude
    assert np.max(np.abs(a0 - a1)) <= 1e-12 * np.max(np.abs(a0))


@SETTINGS
@given(amps=coefficients, phases=phase_triples, alpha=st.floats(0.0, 2 * math.pi))
def test_star_mode_table_matches_polar_form(amps, phases, alpha):
    # x = r e^{i theta}, theta = t + alpha: x' = (r' + i r) e^{i theta},
    # x'' = (r'' - r + 2i r') e^{i theta}.
    crv = _star_curve(amps, phases, alpha)
    t, pts, d1, d2, _, _ = bie._geometry(crv)
    m = np.arange(2, 5)
    arg = np.multiply.outer(t, m) + phases
    r = 1.0 + np.cos(arg) @ amps
    dr = -np.sin(arg) @ (m * amps)
    ddr = -np.cos(arg) @ (m * m * amps)
    turn = np.exp(1j * (t + alpha))
    for got, ref in zip((pts, d1, d2), (r * turn, (dr + 1j * r) * turn,
                                         (ddr - r + 2j * dr) * turn)):
        got = got[:, 0] + 1j * got[:, 1]
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@SETTINGS
@given(dim=dims, k=wavenumbers, kind=st.sampled_from(["ss", "sh", "fss", "fsh"]),
       large=st.floats(0.25, 0.5), small=st.lists(radii, min_size=1, max_size=5))
def test_batched_solve_equals_per_rho_solves(dim, k, kind, large, small):
    # A rho near 0.5 and one near 1e-6 need different n_max, so the batch
    # is padded; the grid is unsorted on purpose.
    rhos = small + [large]
    scheme, wave = SchemeSpec(kind), _wave(dim, k)
    batch = mie.solve_many(scheme, dim, wave, rhos)
    singles = [mie.solve(scheme, dim, wave, rho) for rho in rhos]
    assume(len({sol.n_max for sol in singles}) > 1)
    assert len(batch) == len(rhos)
    for got, expected in zip(batch, singles):
        assert got.rho == expected.rho
        assert got.n_max == expected.n_max
        assert got.branch_flags == expected.branch_flags
        assert got.degenerate_modes == expected.degenerate_modes
        assert got.truncation_tail == expected.truncation_tail
        for name in ("d_n", "a_n", "b_n", "c_n"):  # None for an obstacle's a, b, c
            assert np.array_equal(getattr(got, name), getattr(expected, name))


# ---------------------------------------------------------------------------
# Ratio-form sequences against an element-wise mpmath oracle
# ---------------------------------------------------------------------------
FAMILIES = [(kind, spherical) for kind in ("j", "h") for spherical in (False, True)]

arguments = st.builds(
    lambda r, angle: complex(r * math.cos(angle), r * math.sin(angle)),
    st.floats(math.log(0.1), math.log(200.0)).map(math.exp),
    st.floats(0.0, math.pi))


def _sequence(family, nmax, z):
    """specfun's (base, ratios) of orders 0..nmax of one family at z."""
    kind, spherical = family
    return (specfun.bessel_j if kind == "j" else specfun.bessel_h1)(nmax, z, spherical)


def _scale(family, z) -> float:
    """The exponent that undoes the Amos scaling: Im z for J, -Im z for H."""
    return z.imag if family[0] == "j" else -z.imag


def _log_abs(x) -> float:
    return float(mpmath.log(abs(x)))


@SETTINGS
@given(family=st.sampled_from(FAMILIES), nmax=st.integers(1, 30), z=arguments)
@example(family=("j", False), nmax=4, z=148.4131591025766 + 0j)  # J_3 near a zero
def test_array_derivative_matches_elementwise(family, nmax, z):
    # Derivatives f_n' = f_n (n/z - f_{n+1}/f_n), from the log-derivatives
    # the solver forms and the values rebuilt from the ratio form, against
    # f_n' = (n/z) f_n - f_{n+1} of the 60-digit oracle.  The error is
    # measured against max(|f_n'|, |f_n|), so next to a zero of f_n, where
    # the log-derivative is huge, it counts as the derivative's; the
    # fraction's rounding over ~|z| steps gives the term in |z|, as in the
    # value properties below.
    seq = _sequence(family, nmax, z)
    logd = mie._log_derivative(seq[1], z)
    assert logd.shape == (nmax,)
    got = oracles.rebuilt(seq, _scale(family, z))
    with mpmath.workdps(60):
        zm = mpmath.mpc(z)
        f = (_mp_h(family[1], nmax, zm) if family[0] == "h"
             else [_mp_j(family[1], n, zm) for n in range(nmax + 1)])
        for n in range(nmax):
            exact = n / zm * f[n] - f[n + 1]
            tol = 1e-12 + 2e-16 * abs(z)
            assert abs(got[n] * logd[n] - exact) <= tol * max(abs(exact), abs(f[n])), (n, z)


@SETTINGS
@given(fa=st.sampled_from(FAMILIES), fb=st.sampled_from(FAMILIES),
       nmax=st.integers(1, 30), za=arguments, zb=arguments)
def test_array_arithmetic_matches_elementwise(fa, fb, nmax, za, zb):
    # The solver's products and quotients of two sequences (mie._values), in
    # double precision from the ratios, against the exact products of the
    # same sequences rebuilt in mpmath.
    a, b = _sequence(fa, nmax, za), _sequence(fb, nmax, zb)
    xs, ys = oracles.rebuilt(a, 0.0), oracles.rebuilt(b, 0.0)
    prod, quot = mie._values([a, b]), mie._values([a], [b])
    assert prod.shape == quot.shape == (nmax,)
    for n in range(nmax):
        for got, expected in ((prod[n], xs[n] * ys[n]), (quot[n], xs[n] / ys[n])):
            assert abs(got - expected) <= 1e-13 * abs(expected), (n, got, expected)
    # with the Amos scales restored, the one-sequence values are the oracle's
    values = mie._values([a]) * np.exp(_scale(fa, za))
    assert values == pytest.approx([complex(x) * math.exp(_scale(fa, za)) for x in xs[:nmax]],
                                   rel=1e-13, abs=0.0)


def _mp_j(spherical, n, z):
    """j_n(z) = sqrt(pi/(2z)) J_{n+1/2}(z) or J_n(z) in mpmath."""
    if spherical:
        return mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(n + mpmath.mpf(1) / 2, z)
    return mpmath.besselj(n, z)


@SETTINGS
@given(spherical=st.booleans(), nmax=st.integers(0, 60),
       r=st.floats(math.log(1e-40), math.log(1.5e4)).map(math.exp),
       angle=st.floats(0.0, math.pi))
# At the first zeros of J_0 and j_0, and next to the first, the values are
# rebuilt from the order-1 base value.
@example(spherical=False, nmax=5, r=2.404825557695773, angle=0.0)
@example(spherical=True, nmax=5, r=math.pi, angle=0.0)
@example(spherical=False, nmax=5, r=abs(2.404825557695773 + 1e-9j),
         angle=cmath.phase(2.404825557695773 + 1e-9j))
def test_j_families_match_mpmath(spherical, nmax, r, angle):
    # The closed upper half-plane, from the power-law regime to |z| = 1.5e4.
    # Errors are measured against the local envelope
    # max(|f_n|, |f_n'| min(1, |z|/(n+1))), which is |f_n| except next to
    # a zero of f_n.  The values are rebuilt in mpmath from the base value
    # and the ratio products.  The downward fraction carries rounding over
    # its ~|z| steps through the oscillatory range, hence the term in |z|
    # (1.3e-12 at |z| = 1.4e4 on the real axis).
    z = complex(r * math.cos(angle), r * math.sin(angle))
    seq = specfun.bessel_j(nmax, z, spherical)
    got = oracles.rebuilt(seq, z.imag)
    with mpmath.workdps(60):  # mpmath's complex besselj loses digits at 30
        zm = mpmath.mpc(z)
        f = [_mp_j(spherical, n, zm) for n in range(nmax + 2)]
        for n in range(nmax + 1):
            slope = abs(n / zm * f[n] - f[n + 1]) * min(1.0, r / (n + 1))
            tol = 1e-12 + 1e-15 * abs(_log_abs(got[n])) + 2e-16 * r
            assert abs(got[n] - f[n]) <= tol * max(abs(f[n]), slope), (n, z)


@st.composite
def upward_regime(draw):
    """(z, nmax) where J_n and j_n take the upward step for every n <= nmax:
    Im z >= 20 and nmax^2 Im z <= |z|^2, with log-uniform |z| up to 1e8 and
    Im z, and beyond |z| = 2e4 only arguments the guard admits."""
    # 0.99 keeps |z| inside each guard after the rounding of complex(x, y).
    r = math.exp(draw(st.floats(math.log(20.0), math.log(0.99 * specfun._UPWARD_GUARD))))
    y_max = r if r <= 0.99 * specfun.ARGUMENT_GUARD else min(r, (r / specfun.ORDER_MAX) ** 2)
    y = max(20.0, math.exp(draw(st.floats(math.log(20.0), math.log(y_max)))))
    z = complex(draw(st.sampled_from([1.0, -1.0])) * math.sqrt(max(r * r - y * y, 0.0)), y)
    top = min(specfun.ORDER_MAX, math.isqrt(int(abs(z) ** 2 / z.imag)))
    while not specfun._upward_is_stable(top, z):
        top -= 1
    return z, draw(st.integers(0, top))


@SETTINGS
@given(spherical=st.booleans(), point=upward_regime())
# Order 87 here lies outside the order condition (the upward step would be
# off by 5e-5), so the continued fraction serves it.
@example(spherical=False, point=(complex(-40.94, 271.55), 87))
def test_j_families_match_mpmath_in_the_upward_regime(spherical, point):
    # Values rebuilt from the base and the ratio products against the
    # 60-digit oracle at orders 0, 1, nmax/2 and nmax.  The start values
    # J_0, J_1 are exact to rounding and the order condition keeps the
    # growth of their rounding below e, so 1e-14 holds here, against
    # 1e-12 + 2e-16 |z| for the continued fraction on the real axis.  Below
    # |z| = 21.8, where Amos's jve leaves its asymptotic expansion, jve
    # itself is off by up to 2.6e-14 at orders 1/2 and 3/2, and the j_n
    # values carry that.
    z, nmax = point
    seq = specfun.bessel_j(nmax, z, spherical)
    got = oracles.rebuilt(seq, z.imag)
    tol = 3e-14 if spherical and abs(z) < 21.8 else 1e-14
    with mpmath.workdps(60):
        zm = mpmath.mpc(z)
        for n in sorted({0, min(1, nmax), nmax // 2, nmax}):
            exact = _mp_j(spherical, n, zm)
            assert abs(got[n] - exact) <= tol * abs(exact), (n, z)


def _mp_h(spherical, nmax, z):
    """H_n^(1)(z) or h_n^(1)(z), n = 0..nmax, in mpmath.

    H_nu(z) = (2/(pi i)) e^{-i pi nu/2} K_nu(-iz), with K_nu run up from two
    orders by its recurrence, which is stable upward; h_n is H_{n+1/2}
    times sqrt(pi/2)/sqrt(z), the upper-half-plane branch of
    sqrt(pi/(2z)).  mpmath.hankel1 is not used: it forms J + iY, which
    cancels, and returns 0 once Im z reaches about 150.
    """
    zm = mpmath.mpc(z)
    w, nu = -1j * zm, mpmath.mpf(1) / 2 if spherical else mpmath.mpf(0)
    k = [mpmath.besselk(nu, w), mpmath.besselk(nu + 1, w)]
    for n in range(1, nmax):
        k.append(k[n - 1] + 2 * (nu + n) / w * k[n])
    front = mpmath.sqrt(mpmath.pi / 2) / mpmath.sqrt(zm) if spherical else 1
    return [front * 2 / (mpmath.pi * 1j) * mpmath.exp(-1j * mpmath.pi * (nu + n) / 2) * k[n]
            for n in range(nmax + 1)]


@SETTINGS
@given(spherical=st.booleans(), nmax=st.integers(0, 30),
       r=st.one_of(st.floats(math.log(1e-40), math.log(12.5)),
                   st.floats(math.log(12.5), math.log(100.0)),
                   st.floats(math.log(100.0), math.log(2e4))).map(math.exp),
       angle=st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.0, math.pi)))
@example(spherical=False, nmax=1, r=13.49, angle=0.0)
@example(spherical=False, nmax=22, r=13.21, angle=0.0)
@example(spherical=False, nmax=3, r=200.0, angle=0.0)
@example(spherical=False, nmax=3, r=1.7e4, angle=math.pi)
@example(spherical=False, nmax=4, r=6.6193, angle=1.9663)
@example(spherical=False, nmax=30, r=3.810767422066023e-35, angle=0.0)
def test_h_families_match_mpmath(spherical, nmax, r, angle):
    # Log-uniform |z| in three bands (small, moderate and large arguments),
    # real axes included.  The tolerances are the error budget of the
    # specfun docstring: the values, rebuilt in mpmath from scipy's hankel1e
    # base values and the ratios of the upward step, stay within a few ulps
    # up to |z| = 100, and beyond that within a budget that grows with
    # |ln|H_n||.
    z = complex(-r, 0.0) if angle == math.pi else complex(r * math.cos(angle),
                                                          r * math.sin(angle))
    seq = specfun.bessel_h1(nmax, z, spherical)
    got = oracles.rebuilt(seq, -z.imag)
    with mpmath.workdps(50):
        expected = _mp_h(spherical, nmax, z)
        for n in range(nmax + 1):
            tol = (1e-14 if r < 100.0 else 1e-15) + 2.3e-16 * abs(_log_abs(got[n]))
            assert abs(got[n] - expected[n]) <= tol * abs(expected[n]), (n, z)
