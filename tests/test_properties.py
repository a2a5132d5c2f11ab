"""Property tests over parameter space: S-matrix invariants and scaled arrays.

The modal invariants are per-mode unitarity |S_n| = 1 for the lossless
sound-soft/sound-hard linings and passivity |S_n| <= 1 for the lossy
FSS/FSH linings, with S_n = 1 + 2 d_n (-i)^n in 2D (d_n carries i^n) and
S_n = 1 + 2 d_n in 3D; for the lossy linings the optical theorem becomes
the inequality scattered power <= extinction.  The BIE far field is
invariant under rotating the obstacle and the incident direction together.
The sequence properties pin the scaled array arithmetic of specfun, and
the J_n/j_n values themselves, to an element-by-element mpmath oracle,
which is independent of specfun and has no exponent limit.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    core = virtual_core_params(1.0, 1.0, rho, dim)
    lw = mie.layer_wavenumbers(scheme, rho, k, core)
    # Beyond the argument guard the solve correctly raises RangeError.
    assume(abs(lw.k_tilde * rho) <= specfun.ARGUMENT_GUARD)
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
    core = virtual_core_params(1.0, 1.0, rho, dim)
    lw = mie.layer_wavenumbers(scheme, rho, k, core)
    assume(abs(lw.k_tilde * rho) <= specfun.ARGUMENT_GUARD)
    sol = mie.solve(scheme, dim, _wave(dim, k), rho, (1.0, 1.0))
    assert sol.n_max <= 63   # inside the exactness range of both quadratures
    scattered, extinction = _scattered_and_extinction(sol, k)
    assert scattered <= extinction * (1.0 + 1e-8)


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
    """r(t) = 1 + sum_{m=2..4} a_m cos(m t + phi_m), rotated by alpha."""
    m = np.arange(2, 5)
    c, s = math.cos(alpha), math.sin(alpha)
    rot_t = np.array([[c, s], [-s, c]])  # row vectors times R^T

    def frame(t):
        t = np.asarray(t, dtype=float)
        arg = np.multiply.outer(t, m) + phases
        r = 1.0 + np.cos(arg) @ amps
        dr = -np.sin(arg) @ (m * amps)
        ddr = -np.cos(arg) @ (m * m * amps)
        radial = np.stack([np.cos(t), np.sin(t)], axis=-1)
        tangent = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        return r[..., None], dr[..., None], ddr[..., None], radial, tangent

    def pos(t):
        r, _, _, e, _ = frame(t)
        return (r * e) @ rot_t

    def dpos(t):
        r, dr, _, e, p = frame(t)
        return (dr * e + r * p) @ rot_t

    def ddpos(t):
        r, dr, ddr, e, p = frame(t)
        return ((ddr - r) * e + 2.0 * dr * p) @ rot_t

    return bie.BoundaryCurve(pos, dpos, ddpos, n_points, name="star")


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


def _assert_rows_close(got, expected, tol=1e-13):
    if expected is None:
        assert got is None
        return
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected), initial=0.0) <= tol * np.max(np.abs(expected))


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
        _assert_rows_close(got.d_n, expected.d_n)
        for name in ("a_n", "b_n", "c_n"):
            got_n, expected_n = getattr(got, name), getattr(expected, name)
            if expected_n is None:
                assert got_n is None
            else:
                _assert_rows_close(got_n.to_complex(), expected_n.to_complex())


# ---------------------------------------------------------------------------
# Scaled arrays against an element-wise mpmath oracle
# ---------------------------------------------------------------------------
FAMILIES = [specfun.bessel_j_all, specfun.bessel_h1_all,
            specfun.spherical_j_all, specfun.spherical_h1_all]

arguments = st.builds(
    lambda r, angle: complex(r * math.cos(angle), r * math.sin(angle)),
    st.floats(math.log(0.1), math.log(200.0)).map(math.exp),
    st.floats(-0.45 * math.pi, math.pi))


def _mp(a):
    """The elements mantissa * exp(log_scale) of a 1-d scaled array in mpmath."""
    return [mpmath.mpc(m) * mpmath.exp(s)
            for m, s in zip(a.mantissa.tolist(), a.log_scale.tolist())]


def _log_abs(x) -> float:
    return float(mpmath.log(abs(x)))


def _assert_close(got, expected, scale, tol=1e-13):
    """|got - expected| <= tol * exp(scale), both mpmath numbers.

    The tolerance covers the rounding of log scales up to a few hundred.
    """
    err = abs(got - expected)
    assert err == 0 or _log_abs(err) - scale <= math.log(tol), (got, expected)


@SETTINGS
@given(family=st.sampled_from(FAMILIES), nmax=st.integers(1, 30), z=arguments)
def test_array_derivative_matches_elementwise(family, nmax, z):
    seq = family(nmax, z)
    deriv = specfun.derivative_all(seq, z)
    assert deriv.shape == (nmax,)
    s, d, logs = _mp(seq), _mp(deriv), seq.abs_log()
    zm = mpmath.mpc(z)
    for n in range(nmax):
        expected = -s[1] if n == 0 else s[n] * (n / zm) - s[n + 1]
        scale = max(logs[n] + math.log(max(n, 1) / abs(z)), logs[n + 1])
        _assert_close(d[n], expected, scale)


@SETTINGS
@given(fa=st.sampled_from(FAMILIES), fb=st.sampled_from(FAMILIES),
       nmax=st.integers(0, 30), za=arguments, zb=arguments)
def test_array_arithmetic_matches_elementwise(fa, fb, nmax, za, zb):
    a, b = fa(nmax, za), fb(nmax, zb)
    prod, quot, total, diff = (_mp(v) for v in (a * b, a / b, a + b, a - b))
    xs, ys = _mp(a), _mp(b)
    for n, (x, y) in enumerate(zip(xs, ys)):
        _assert_close(prod[n], x * y, _log_abs(x * y))
        _assert_close(quot[n], x / y, _log_abs(x / y))
        top = max(_log_abs(x), _log_abs(y))
        _assert_close(total[n], x + y, top)
        _assert_close(diff[n], x - y, top)
    logs = a.abs_log()
    assert logs == pytest.approx([_log_abs(x) for x in xs], abs=1e-13)
    if np.max(logs) <= 700.0:
        values = a.to_complex()
        for n, x in enumerate(xs):
            assert values[n] == pytest.approx(complex(x), rel=1e-13, abs=0.0)


def _mp_j(spherical, n, z):
    """j_n(z) = sqrt(pi/(2z)) J_{n+1/2}(z) or J_n(z) in mpmath."""
    if spherical:
        return mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(n + mpmath.mpf(1) / 2, z)
    return mpmath.besselj(n, z)


@SETTINGS
@given(spherical=st.booleans(), nmax=st.integers(0, 60),
       r=st.floats(math.log(1e-40), math.log(1.5e4)).map(math.exp),
       angle=st.floats(-math.pi, math.pi))
def test_j_families_match_mpmath(spherical, nmax, r, angle):
    # Both half-planes, from the power-law regime to |z| = 1.5e4.  Errors are
    # measured against the local envelope max(|f_n|, |f_n'| min(1, |z|/(n+1))),
    # which is |f_n| except next to a zero of f_n.  Miller rounding
    # accumulates over the ~|z| recurrence steps of the oscillatory range,
    # hence the term in |z| (1.2e-12 at |z| = 1.4e4 on the real axis).
    z = complex(r * math.cos(angle), r * math.sin(angle))
    seq = (specfun.spherical_j_all if spherical else specfun.bessel_j_all)(nmax, z)
    got = _mp(seq)
    with mpmath.workdps(60):  # mpmath's complex besselj loses digits at 30
        zm = mpmath.mpc(z)
        f = [_mp_j(spherical, n, zm) for n in range(nmax + 2)]
        for n in range(nmax + 1):
            slope = abs(n / zm * f[n] - f[n + 1]) * min(1.0, r / (n + 1))
            tol = 1e-12 + 1e-15 * abs(seq.log_scale[n]) + 2e-16 * r
            assert abs(got[n] - f[n]) <= tol * max(abs(f[n]), slope), (n, z)
