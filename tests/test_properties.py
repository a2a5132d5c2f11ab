"""Property tests over parameter space: S-matrix invariants and scaled arrays.

The modal invariants are per-mode unitarity |S_n| = 1 for the lossless
sound-soft/sound-hard linings and passivity |S_n| <= 1 for the lossy
FSS/FSH linings, with S_n = 1 + 2 d_n (-i)^n in 2D (d_n carries i^n) and
S_n = 1 + 2 d_n in 3D; for the lossy linings the optical theorem becomes
the inequality scattered power <= extinction.  The BIE far field is
invariant under rotating the obstacle and the incident direction together,
and reciprocal: A(xhat; d) = A(-d; -xhat).
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


@pytest.mark.parametrize("kind", ["fss", "fsh"])
@pytest.mark.parametrize("dim", [2, 3])
def test_field_is_continuous_at_rho_for_large_k_rho(kind, dim):
    # k rho from 10 to 60, beyond the wavenumbers above.  The tail test
    # reads d_n only, and the near field at rho sums terms of the size of
    # J_n(k rho), about sqrt|d_n|, so the jump is far above 1e-10 of
    # max|u| here: 3D FSS at k rho = 33, rho = 0.1 read 4.9e-7 with the
    # classical start x + 8 + 4 x^(1/3), the bound below.
    th = np.linspace(0.0, math.pi, 7)
    for rho in (0.1, 0.45):
        for x in np.geomspace(10.0, 60.0, 13):
            sol = mie.solve(SchemeSpec(kind), dim, _wave(dim, x / rho), rho)
            outside = mie.field_on_circle(sol, rho, th, region="exterior")
            inside = mie.field_on_circle(sol, rho, th, region="layer")
            assert np.max(np.abs(outside - inside)) <= 5e-7 * np.max(np.abs(outside)), x


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
@given(amps=coefficients, phases=st.just(np.zeros(3)) | phase_triples, k=wavenumbers,
       alpha=st.floats(0.0, math.pi))
# The unit circle 4.2e-6 above j_{0,1}: condition 3.65e5, far fields 8.1e-12 apart.
@example(amps=np.zeros(3), phases=np.zeros(3), k=2.404829753003892, alpha=1.0)
def test_bie_far_field_is_rotation_invariant(amps, phases, k, alpha):
    # With zero phases every c_m is real: the unturned star solves as two
    # blocks and the turned one as one.  theta + alpha stays inside [0, 2 pi].
    # Two correct solves differ by about 1.3e-17 times the condition number,
    # which near an interior resonance outgrows the fixed 1e-12.
    angles = np.linspace(0.0, 2 * math.pi - alpha, 32)
    wave = WaveParams(k, np.array([1.0, 0.0]))
    turned = WaveParams(k, np.array([math.cos(alpha), math.sin(alpha)]))
    sol0 = bie.assemble_and_solve(_star_curve(amps, phases, 0.0), wave)
    sol1 = bie.assemble_and_solve(_star_curve(amps, phases, alpha), turned)
    a0 = bie.far_field_from_density(sol0, wave, angles).amplitude
    a1 = bie.far_field_from_density(sol1, turned, angles + alpha).amplitude
    cond = max(sol0.condition_estimate, sol1.condition_estimate)
    assert np.max(np.abs(a0 - a1)) <= (1e-12 + 1e-15 * cond) * np.max(np.abs(a0))


@settings(max_examples=25, deadline=None)
@given(star=st.none() | st.tuples(coefficients, phase_triples, st.floats(0.1, 3.0)),
       k=st.floats(0.5, 7.0), i=st.integers(0, 63), j=st.integers(0, 63))
def test_bie_far_field_is_reciprocal(star, k, i, j):
    # A(xhat; d) = A(-d; -xhat), on the kite (mirror-symmetric: two blocks)
    # and on turned star curves (a complex mode: one block).
    crv = bie.kite(256) if star is None else _star_curve(*star, n_points=256)
    angles = 2 * math.pi * np.arange(64) / 64

    def pattern(index):
        wave = WaveParams(k, np.array([math.cos(angles[index]), math.sin(angles[index])]))
        return bie.far_field_from_density(bie.assemble_and_solve(crv, wave), wave,
                                          angles).amplitude

    a_d, a_x = pattern(i), pattern((j + 32) % 64)
    assert abs(a_d[j] - a_x[(i + 32) % 64]) <= 1e-12 * np.max(np.abs(a_d))


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
       large=st.floats(0.25, 0.5), small=st.lists(radii, min_size=1, max_size=5),
       sigma=st.floats(0.1, 10.0), q=st.complex_numbers(max_magnitude=5.0).map(
           lambda q: complex(q.real, abs(q.imag))).filter(lambda q: abs(q) >= 0.01))
def test_batched_solve_equals_per_rho_solves(dim, k, kind, large, small, sigma, q):
    # A rho near 0.5 and one near 1e-6 need different n_max, so the batch
    # is padded; the grid is unsorted on purpose.  The contents (sigma', q')
    # set the core argument of the lossy linings' pass over four argument
    # arrays; the obstacles only check them.
    rhos = small + [large]
    scheme, wave = SchemeSpec(kind), _wave(dim, k)
    batch = mie.solve_many(scheme, dim, wave, rhos, (sigma, q))
    singles = [mie.solve(scheme, dim, wave, rho, (sigma, q)) for rho in rhos]
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
# specfun's order offsets lam = (N - 2)/2 of N = 2 to 5: cylindrical, spherical,
# and those of R^4 and R^5.
OFFSETS = (0.0, 0.5, 1.0, 1.5)
FAMILIES = [(kind, lam) for kind in ("j", "h") for lam in OFFSETS]

arguments = st.builds(
    lambda r, angle: complex(r * math.cos(angle), r * math.sin(angle)),
    st.floats(math.log(0.1), math.log(200.0)).map(math.exp),
    st.floats(0.0, math.pi))


def _sequence(family, nmax, z):
    """specfun's (base, ratios) of orders 0..nmax of one family at z."""
    kind, lam = family
    return (specfun.bessel_j if kind == "j" else specfun.bessel_h1)(nmax, z, lam)


def _scale(family, z) -> float:
    """The exponent that undoes the Amos scaling: Im z for J, -Im z for H."""
    return z.imag if family[0] == "j" else -z.imag


def _log_abs(x) -> float:
    return float(mpmath.log(abs(x)))


@SETTINGS
@given(family=st.sampled_from(FAMILIES), nmax=st.integers(1, 30), z=arguments)
@example(family=("j", 0.0), nmax=4, z=148.4131591025766 + 0j)  # J_3 near a zero
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


def _front(lam, z):
    """Gamma(lam + 1) (2/z)^lam in mpmath, on the branch continuous from the
    upper half-plane: sqrt(pi/(2z)) at lam = 1/2."""
    lam = mpmath.mpf(lam)
    return mpmath.gamma(lam + 1) * mpmath.exp(-lam * mpmath.log(z / 2))


def _mp_j(lam, n, z):
    """Gamma(lam + 1) (2/z)^lam J_{n+lam}(z) in mpmath: J_n(z) at lam = 0,
    j_n(z) at lam = 1/2."""
    return _front(lam, z) * mpmath.besselj(n + mpmath.mpf(lam), z)


@SETTINGS
@given(lam=st.sampled_from(OFFSETS), nmax=st.integers(0, 60),
       r=st.floats(math.log(1e-40), math.log(1.5e4)).map(math.exp),
       angle=st.floats(0.0, math.pi))
# At the first zeros of J_0 and j_0, and next to the first, the values are
# rebuilt from the order-1 base value.
@example(lam=0.0, nmax=5, r=2.404825557695773, angle=0.0)
@example(lam=0.5, nmax=5, r=math.pi, angle=0.0)
@example(lam=0.0, nmax=5, r=abs(2.404825557695773 + 1e-9j),
         angle=cmath.phase(2.404825557695773 + 1e-9j))
def test_j_families_match_mpmath(lam, nmax, r, angle):
    # The closed upper half-plane, from the power-law regime to |z| = 1.5e4.
    # Errors are measured against the local envelope
    # max(|f_n|, |f_n'| min(1, |z|/(n+1))), which is |f_n| except next to
    # a zero of f_n.  The values are rebuilt in mpmath from the base value
    # and the ratio products.  The downward fraction carries rounding over
    # its ~|z| steps through the oscillatory range, hence the term in |z|
    # (1.3e-12 at |z| = 1.4e4 on the real axis).
    z = complex(r * math.cos(angle), r * math.sin(angle))
    seq = specfun.bessel_j(nmax, z, lam)
    got = oracles.rebuilt(seq, z.imag)
    with mpmath.workdps(60):  # mpmath's complex besselj loses digits at 30
        zm = mpmath.mpc(z)
        f = [_mp_j(lam, n, zm) for n in range(nmax + 2)]
        for n in range(nmax + 1):
            slope = abs(n / zm * f[n] - f[n + 1]) * min(1.0, r / (n + 1))
            tol = 1e-12 + 1e-15 * abs(_log_abs(got[n])) + 2e-16 * r
            assert abs(got[n] - f[n]) <= tol * max(abs(f[n]), slope), (n, z)


def _deeper_fraction(n, z, lam):
    """The J family's ratios 0..n-1 at z by specfun's continued fraction in
    its own operations, started 60 + |z| + 32 |z|^(1/3) orders above its
    Miller start max(n, |z|) + 10 + 8 |z|^(1/3)."""
    x = abs(z)
    start = int(max(n, x) + 10.0 + 8.0 * x ** (1.0 / 3.0)) + int(60.0 + x + 32.0 * x ** (1.0 / 3.0))
    two_over_z, r = 2.0 / z, 0j
    for m in range(start, n, -1):
        r = 1.0 / (((m + lam) * two_over_z - r) or specfun._LENTZ_TINY)
    ratios = [0j] * n
    for m in range(n, 0, -1):
        r = 1.0 / (((m + lam) * two_over_z - r) or specfun._LENTZ_TINY)
        ratios[m - 1] = r
    return ratios


@SETTINGS
@given(lam=st.sampled_from(OFFSETS), n=st.integers(1, specfun.ORDER_MAX),
       r=st.floats(math.log(1e-3), math.log(specfun.ARGUMENT_GUARD)).map(math.exp),
       angle=st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.0, math.pi)))
@example(lam=0.0, n=1, r=1e-3, angle=0.0)
@example(lam=1.5, n=200, r=2e4, angle=0.0)
@example(lam=0.5, n=1, r=2e4, angle=math.pi)
def test_miller_start_is_deep_enough_to_the_bit(lam, n, r, angle):
    # Wherever the J family takes the continued fraction, its ratios equal,
    # bit for bit, those of a start 60 + |z| + 32 |z|^(1/3) orders deeper.
    z = complex(-r, 0.0) if angle == math.pi else complex(r * math.cos(angle), r * math.sin(angle))
    assume(z.imag >= 0 and not specfun._upward_is_stable(n, z))
    _, ratios = specfun.bessel_j(n, z, lam)
    deeper = np.array(_deeper_fraction(n, z, lam), dtype=complex)
    assert np.array_equal(ratios.view(np.uint64), deeper.view(np.uint64))


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
@given(lam=st.sampled_from(OFFSETS), point=upward_regime())
# Order 87 here lies outside the order condition (the upward step would be
# off by 5e-5), so the continued fraction serves it.
@example(lam=0.0, point=(complex(-40.94, 271.55), 87))
def test_j_families_match_mpmath_in_the_upward_regime(lam, point):
    # Values rebuilt from the base and the ratio products against the
    # 60-digit oracle at orders 0, 1, nmax/2 and nmax.  The start values
    # J_0, J_1 are exact to rounding and the order condition keeps the
    # growth of their rounding below e, so 1e-14 holds here, against
    # 1e-12 + 2e-16 |z| for the continued fraction on the real axis.  Below
    # |z| = 21.8, where Amos's jve leaves its asymptotic expansion, jve
    # itself is off by up to 2.6e-14 at orders 1/2 and 3/2, and the values
    # of a half-integer offset carry that.
    z, nmax = point
    seq = specfun.bessel_j(nmax, z, lam)
    got = oracles.rebuilt(seq, z.imag)
    tol = 3e-14 if lam % 1 and abs(z) < 21.8 else 1e-14
    with mpmath.workdps(60):
        zm = mpmath.mpc(z)
        for n in sorted({0, min(1, nmax), nmax // 2, nmax}):
            exact = _mp_j(lam, n, zm)
            assert abs(got[n] - exact) <= tol * abs(exact), (n, z)


def _mp_h(lam, nmax, z):
    """Gamma(lam + 1) (2/z)^lam H_{n+lam}^(1)(z), n = 0..nmax, in mpmath:
    H_n^(1)(z) at lam = 0, h_n^(1)(z) at lam = 1/2.

    H_nu(z) = (2/(pi i)) e^{-i pi nu/2} K_nu(-iz), with K_nu run up from two
    orders by its recurrence, which is stable upward.  mpmath.hankel1 is
    not used: it forms J + iY, which cancels, and returns 0 once Im z
    reaches about 150.
    """
    zm = mpmath.mpc(z)
    w, nu = -1j * zm, mpmath.mpf(lam)
    k = [mpmath.besselk(nu, w), mpmath.besselk(nu + 1, w)]
    for n in range(1, nmax):
        k.append(k[n - 1] + 2 * (nu + n) / w * k[n])
    front = _front(lam, zm)
    return [front * 2 / (mpmath.pi * 1j) * mpmath.exp(-1j * mpmath.pi * (nu + n) / 2) * k[n]
            for n in range(nmax + 1)]


@SETTINGS
@given(lam=st.sampled_from(OFFSETS), nmax=st.integers(0, 30),
       r=st.one_of(st.floats(math.log(1e-40), math.log(12.5)),
                   st.floats(math.log(12.5), math.log(100.0)),
                   st.floats(math.log(100.0), math.log(2e4))).map(math.exp),
       angle=st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.0, math.pi)))
@example(lam=0.0, nmax=1, r=13.49, angle=0.0)
@example(lam=0.0, nmax=22, r=13.21, angle=0.0)
@example(lam=0.0, nmax=3, r=200.0, angle=0.0)
@example(lam=0.0, nmax=3, r=1.7e4, angle=math.pi)
@example(lam=0.0, nmax=4, r=6.6193, angle=1.9663)
@example(lam=0.0, nmax=30, r=3.810767422066023e-35, angle=0.0)
def test_h_families_match_mpmath(lam, nmax, r, angle):
    # Log-uniform |z| in three bands (small, moderate and large arguments),
    # real axes included.  The tolerances are the error budget of the
    # specfun docstring: the values, rebuilt in mpmath from scipy's hankel1e
    # base values and the ratios of the upward step, stay within a few ulps
    # up to |z| = 100, and beyond that within a budget that grows with
    # |ln|H_n||.
    z = complex(-r, 0.0) if angle == math.pi else complex(r * math.cos(angle),
                                                          r * math.sin(angle))
    seq = specfun.bessel_h1(nmax, z, lam)
    got = oracles.rebuilt(seq, -z.imag)
    with mpmath.workdps(50):
        expected = _mp_h(lam, nmax, z)
        for n in range(nmax + 1):
            tol = (1e-14 if r < 100.0 else 1e-15) + 2.3e-16 * abs(_log_abs(got[n]))
            assert abs(got[n] - expected[n]) <= tol * abs(expected[n]), (n, z)
