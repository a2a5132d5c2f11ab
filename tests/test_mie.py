"""Modal-solver tests: coefficients, far fields, near fields, energy."""

import cmath
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import special

from nearcloak import media, mie, specfun
from nearcloak.errors import DomainError, RangeError, ShapeError, TruncationError
from nearcloak.media import virtual_core_params
from nearcloak.mie import SchemeSpec, WaveParams

import oracles

WAVE2 = WaveParams(2.0, np.array([1.0, 0.0]))
WAVE3 = WaveParams(2.0, np.array([1.0, 0.0, 0.0]))


def _wave(dim, k=2.0):
    return WAVE2 if dim == 2 else WaveParams(k, np.array([1.0, 0.0, 0.0]))


def _fit_slope(x, y):
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# ---------------------------------------------------------------------------
# Sound-hard / sound-soft coefficients
# ---------------------------------------------------------------------------
def test_sh_2d_small_argument_d0():
    sol = mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, 0.01)  # k rho = 0.02
    expected = -1j * math.pi * 0.02 ** 2 / 4.0
    assert abs(sol.d_n[0]) == pytest.approx(3.1416e-4, rel=1e-3)
    # the complex value carries an O((k rho)^2 ln(k rho)) correction
    assert sol.d_n[0] == pytest.approx(expected, rel=5e-3)


@pytest.mark.parametrize("n, slope_2d", [(0, 2.0), (1, 2.0), (2, 4.0)])
def test_sh_2d_coefficient_magnitude_laws(n, slope_2d):
    # d_0 = O(rho^2) and d_n = O(rho^{2n}) for n >= 1.
    rhos = 0.5 ** np.arange(5, 10)
    mags = [abs(mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, r).d_n[n]) for r in rhos]
    assert _fit_slope(rhos, mags) == pytest.approx(slope_2d if n == 0 else 2 * n,
                                                   abs=0.05)


def test_sh_3d_leading_order_cubic():
    rhos = 0.5 ** np.arange(5, 10)
    mags = [abs(mie.solve(SchemeSpec.sound_hard(), 3, WAVE3, r).d_n[0]) for r in rhos]
    assert _fit_slope(rhos, mags) == pytest.approx(3.0, abs=0.05)


def test_ss_2d_inverse_log_leading_order():
    for rho in (1e-3, 1e-5, 1e-7):
        sol = mie.solve(SchemeSpec.sound_soft(), 2, WAVE2, rho)
        lead = (math.pi / 2.0) / abs(math.log(2.0 * rho))
        assert abs(sol.d_n[0]) == pytest.approx(lead, rel=0.35)
    # the product |d_0| * |ln(k rho)| tends to pi/2 from below
    vals = [abs(mie.solve(SchemeSpec.sound_soft(), 2, WAVE2, r).d_n[0]) * abs(math.log(2 * r))
            for r in (1e-3, 1e-6, 1e-9)]
    assert vals[0] < vals[1] < vals[2] < math.pi / 2


def test_ss_3d_small_argument_d0():
    sol = mie.solve(SchemeSpec.sound_soft(), 3, WAVE3, 0.01)  # k rho = 0.02
    assert abs(sol.d_n[0]) == pytest.approx(0.02, rel=1e-3)
    expected = -(cmath.sin(0.02) / 0.02) / (-1j * cmath.exp(0.02j) / 0.02)
    assert sol.d_n[0] == pytest.approx(expected, rel=1e-12)


def test_ss_3d_d0_at_tiny_argument():
    # k rho = 2e-40: the closed form of j_1 cancels to noise here, so the
    # spherical Miller sequence must not be normalised against it.
    z = 2e-40
    sol = mie.solve(SchemeSpec.sound_soft(), 3, WAVE3, z / 2.0)
    expected = -(cmath.sin(z) / z) / (-1j * cmath.exp(1j * z) / z)
    assert sol.d_n[0] == pytest.approx(expected, rel=1e-12)


def test_degenerate_radius_rejected():
    with pytest.raises(DomainError):
        mie.solve(SchemeSpec.sound_soft(), 2, WAVE2, 0.0)


# ---------------------------------------------------------------------------
# Layered transmission solve
# ---------------------------------------------------------------------------
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["sh", "fsh"])
def test_overflowing_k_rho_is_a_range_error(dim, kind):
    # k rho = 2e308 overflows to inf; the argument guard names it before the
    # truncation order or the layer parameters are formed from it.
    with pytest.raises(RangeError, match="exceeds the guard"):
        mie.solve(SchemeSpec(kind), dim, _wave(dim), 1e308)


def test_layered_homogeneous_limit_scatters_nothing():
    # the virtual core (1, 1) holds the physical contents (rho^(dim-2), rho^dim)
    for dim in (2, 3):
        contents = (0.3 ** (dim - 2), 0.3 ** dim)
        sol = mie.solve(SchemeSpec.layered(1.0, 1.0), dim, _wave(dim), 0.3, contents)
        assert np.max(np.abs(sol.d_n)) <= 1e-12


def test_fsh_deviation_bound_at_reference_rho():
    # |d_0^FSH - d_0^SH| <= pi k |alpha + i beta| rho^{2+delta}; at
    # rho = 0.01 with k=2, sqrt(3+2i) = 1.8174+0.5503i the bound is 1.193e-4.
    rho = 0.01
    bound = math.pi * 2.0 * abs(cmath.sqrt(3 + 2j)) * rho ** 2.5
    assert bound == pytest.approx(1.193e-4, rel=1e-3)
    fsh = mie.solve(SchemeSpec.finite_sound_hard(), 2, WAVE2, rho)
    sh = mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, rho)
    assert abs(fsh.d_n[0] - sh.d_n[0]) <= bound


def test_fsh_wavenumber_branch_and_diagnostics():
    rho = 0.02
    sol = mie.solve(SchemeSpec.finite_sound_hard(), 2, WAVE2, rho)
    assert sol.k_layer.imag > 0
    assert sol.branch_flags is None
    # the impedance quotient, the exterior log-derivative of mode 0 at rho,
    # tends to -i/C0 = -i sqrt(sigma_l q_l)
    x = WAVE2.k * rho
    quotient = ((-special.jv(1, x) - sol.d_n[0] * special.hankel1(1, x))
                / (special.jv(0, x) + sol.d_n[0] * special.hankel1(0, x)))
    sigma_l, q_l = SchemeSpec.finite_sound_hard().layer_params(rho)
    assert quotient == pytest.approx(-1j * cmath.sqrt(sigma_l * q_l), rel=0.2)
    assert sol.degenerate_modes == ()


def test_fsh_no_overflow_down_to_1e6():
    rho = 1e-6
    fsh = mie.solve(SchemeSpec.finite_sound_hard(), 2, WAVE2, rho)
    sh = mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, rho)
    assert np.all(np.isfinite(fsh.d_n))
    bound = math.pi * 2.0 * abs(cmath.sqrt(3 + 2j)) * rho ** 2.5
    assert abs(fsh.d_n[0] - sh.d_n[0]) <= bound


def test_fsh_solves_where_the_layer_argument_passes_the_guard_at_low_order():
    # With delta = 0.734375, a = 1, b = 3 (k = 1) the layer arguments
    # k_tilde rho (rho = 3e-6) and k_tilde rho/2 (rho = 1.07e-6) lie just above
    # |z| = 2e4, where the solve's orders (n_max = 9) take the upward step
    # although ORDER_MAX would not.  d_0 keeps the rate rho^(2 + delta) of
    # its neighbours and half the bound pi k |sqrt(a + ib)| rho^(2 + delta).
    scheme = SchemeSpec.finite_sound_hard(c=1.0, delta=0.734375, a=1.0, b=3.0)
    wave = WaveParams(1.0, np.array([1.0, 0.0]))
    rhos = (3e-6, 1.07e-6)
    diffs, layer_args = [], []
    for rho in rhos:
        fsh = mie.solve(scheme, 2, wave, rho)
        sh = mie.solve(SchemeSpec.sound_hard(), 2, wave, rho)
        assert np.all(np.isfinite(fsh.d_n))
        diffs.append(abs(fsh.d_n[0] - sh.d_n[0]))
        assert diffs[-1] <= math.pi * abs(cmath.sqrt(1 + 3j)) * rho ** 2.734375
        layer_args.append(abs(fsh.k_layer) * rho)
    assert min(layer_args[0], layer_args[1] / 2) > specfun.ARGUMENT_GUARD
    assert _fit_slope(rhos, diffs) == pytest.approx(2.734375, abs=0.01)


def test_fss_coefficients_approach_sound_soft():
    diffs = []
    for rho in (0.5 ** 4, 0.5 ** 6, 0.5 ** 8):
        fss = mie.solve(SchemeSpec.finite_sound_soft(), 2, WAVE2, rho)
        ss = mie.solve(SchemeSpec.sound_soft(), 2, WAVE2, rho)
        diffs.append(abs(fss.d_n[0] - ss.d_n[0]))
    assert diffs[0] > diffs[1] > diffs[2]


def test_layered_degenerate_core_branch():
    # Core tuned so k2 rho/2 hits the first zero of J_0: the inner
    # elimination must stay finite and continuous in the core parameters.
    rho, k = 0.1, 2.0
    j01 = special.jn_zeros(0, 1)[0]
    q_a = (2.0 * j01 / (k * rho)) ** 2  # virtual; the physical q' is q_a rho^2
    sol = mie.solve(SchemeSpec.finite_sound_hard(), 2, WAVE2, rho, (1.0, q_a * rho ** 2))
    assert np.all(np.isfinite(sol.d_n))
    sol_eps = mie.solve(SchemeSpec.finite_sound_hard(), 2, WAVE2, rho,
                        (1.0, q_a * (1 + 1e-9) * rho ** 2))
    assert sol.d_n[0] == pytest.approx(sol_eps.d_n[0], rel=1e-5)


def _mp_sequence(dim, kind, n_max, z):
    """(values, derivatives) of orders 0..n_max of J/H (2D) or j/h (3D) at z
    in mpmath.  H runs up from orders 0 and 1, as the recurrence is stable
    upward for it (mpmath's integer-order Y is slow)."""
    nu = 0 if dim == 2 else mpmath.mpf(1) / 2
    s = 1 if dim == 2 else mpmath.sqrt(mpmath.pi / (2 * z))
    if kind == "j":
        f = [s * mpmath.besselj(n + nu, z) for n in range(n_max + 2)]
    else:
        f = [s * mpmath.hankel1(n + nu, z) for n in range(2)]
        for n in range(1, n_max + 1):
            f.append(2 * (n + nu) / z * f[n] - f[n - 1])
    return f[:-1], [n / z * f[n] - f[n + 1] for n in range(n_max + 1)]


def _interface_solve(dim, k, rho, layer, core, n_max):
    """(d_n, a_n, b_n, c_n) of every mode n <= n_max from the four interface
    conditions, solved in 50-digit mpmath: continuity of u and sigma du/dr
    at rho and rho/2.  The layer field of mode n is a_n J_n(kt r) +
    b_n H_n(kt r), the core field c_n J_n(k2 r).  Returns kt, k2 and the
    coefficients."""
    k, rho = mpmath.mpf(k), mpmath.mpf(rho)
    (s_l, q_l), (s_a, q_a) = [(mpmath.mpf(s), mpmath.mpc(q)) for s, q in (layer, core)]
    kt, k2 = k * mpmath.sqrt(q_l / s_l), k * mpmath.sqrt(q_a / s_a)

    def value_and_flux(kind, wavenumber, sigma, r):
        f, df = _mp_sequence(dim, kind, n_max, wavenumber * r)
        return [(v, sigma * wavenumber * dv) for v, dv in zip(f, df)]

    jk, hk = (value_and_flux(kind, k, 1, rho) for kind in "jh")
    jt, ht = (value_and_flux(kind, kt, s_l, rho) for kind in "jh")
    jt2, ht2 = (value_and_flux(kind, kt, s_l, rho / 2) for kind in "jh")
    jc = value_and_flux("j", k2, s_a, rho / 2)
    out = []
    for n in range(n_max + 1):
        phase = 1j ** n if dim == 2 else 1
        m = mpmath.matrix([[hk[n][0], -jt[n][0], -ht[n][0], 0],
                           [hk[n][1], -jt[n][1], -ht[n][1], 0],
                           [0, jt2[n][0], ht2[n][0], -jc[n][0]],
                           [0, jt2[n][1], ht2[n][1], -jc[n][1]]])
        out.append(mpmath.lu_solve(m, mpmath.matrix([-phase * jk[n][0], -phase * jk[n][1], 0, 0])))
    return kt, k2, out


def _mp_field(dim, terms, thetas):
    """sum_n eps_n R_n cos(n theta) (2D) or sum_n (2n+1) i^n R_n P_n(cos theta)
    (3D) in mpmath, for the radial factors R_n of ``terms``."""
    out = []
    for th in thetas:
        th = mpmath.mpf(th)
        if dim == 2:
            out.append(sum((1 if n == 0 else 2) * r * mpmath.cos(n * th)
                           for n, r in enumerate(terms)))
        else:
            out.append(sum((2 * n + 1) * 1j ** n * r * mpmath.legendre(n, mpmath.cos(th))
                           for n, r in enumerate(terms)))
    return np.array([complex(u) for u in out])


@pytest.mark.parametrize("dim, rho, contents", [
    (2, 1e-3, None), (3, 1e-3, None),
    # q' = q_a rho^2 with J_0(k2 rho/2) = 0 in the virtual core
    (2, 0.1, (1.0, (2.0 * special.jn_zeros(0, 1)[0] / (2.0 * 0.1)) ** 2 * 0.1 ** 2)),
])
def test_layered_coefficients_match_multiprecision_interface_solve(dim, rho, contents):
    # d_n, and the near field in the layer and the core (values and radial
    # derivatives), against the 50-digit solve summed mode by mode.
    scheme = SchemeSpec.finite_sound_hard()
    contents = contents or (1.0, 1.0)
    core = virtual_core_params(*contents, rho, dim)
    sol = mie.solve(scheme, dim, _wave(dim), rho, contents)
    th = np.linspace(0.0, math.pi, 7)
    with mpmath.workdps(50):
        kt, k2, coeffs = _interface_solve(dim, 2.0, rho, scheme.layer_params(rho), core,
                                          sol.n_max)
        for n, (d, _, _, _) in enumerate(coeffs):
            assert abs(sol.d_n[n] - complex(d)) <= 1e-12 * abs(complex(d))
        for region, r, parts in (("layer", 0.75 * rho, ((1, "j", kt), (2, "h", kt))),
                                 ("core", 0.25 * rho, ((3, "j", k2),))):
            fields = [0, 0]  # radial factors of the value and of the derivative
            for i, kind, wavenumber in parts:
                f, df = _mp_sequence(dim, kind, sol.n_max, wavenumber * mpmath.mpf(r))
                fields = [fields[0] + np.array([x[i] * v for x, v in zip(coeffs, f)]),
                          fields[1] + np.array([x[i] * wavenumber * v for x, v in zip(coeffs, df)])]
            for derivative, terms in enumerate(fields):
                expected = _mp_field(dim, terms, th)
                got = mie.field_on_circle(sol, r, th, region=region,
                                          radial_derivative=bool(derivative))
                assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), \
                    (region, derivative)


def test_modal_solution_invariants():
    rho = 0.05
    sol = mie.solve(SchemeSpec.finite_sound_hard(), 2, WAVE2, rho)
    n = sol.n_max + 1
    assert sol.d_n.shape == sol.a_n.shape == sol.b_n.shape == sol.c_n.shape == (n,)
    assert sol.branch_flags is None
    assert sol.truncation_tail <= 1e-14


def test_tail_decay_property():
    for dim in (2, 3):
        for scheme in (SchemeSpec.sound_hard(), SchemeSpec.sound_soft()):
            sol = mie.solve(scheme, dim, _wave(dim), 0.5)
            mags = np.abs(sol.d_n)
            assert sol.truncation_tail <= 1e-14
            peak = int(np.argmax(mags))
            nz = mags[peak:]
            nz = nz[nz > 0]
            assert np.all(np.diff(nz) < 0)  # strictly decreasing past the peak


def test_adaptive_truncation_clamped_at_order_cap():
    # k rho = 165: the adaptive order would step past the cap (195 -> 203);
    # it stops at n_max = 199, where the tail is still 1.55e-13.
    wave = WaveParams(330.0, np.array([1.0, 0.0]))
    with pytest.raises(TruncationError, match=r"1\.55e-13 .* n_max = 199 \(k rho = 165\)"):
        mie.solve(SchemeSpec.sound_hard(), 2, wave, 0.5)


# ---------------------------------------------------------------------------
# Far field
# ---------------------------------------------------------------------------
def test_far_field_matches_direct_neumann_series():
    # Independent evaluation of the closed-form sound-hard series using
    # scipy Bessel functions.
    rho = 0.37
    sol = mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, rho)
    th = np.linspace(0, 2 * math.pi, 33, endpoint=False)
    ours = mie.far_field(sol, th).amplitude
    n = np.arange(40)
    ratio = special.jvp(n, 2 * rho) / special.h1vp(n, 2 * rho)
    direct = (-np.exp(-1j * math.pi / 4) * math.sqrt(2 / (math.pi * 2.0))
              * (ratio[0] + 2 * np.sum(ratio[1:, None] * np.cos(np.outer(n[1:], th)), axis=0)))
    assert np.max(np.abs(ours - direct)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("dim", [2, 3])
def test_fields_above_order_100_match_closed_form_sound_hard_series(dim):
    # k rho = 150 needs n_max = 188.  The closed-form sound-hard series,
    # summed with scipy Bessel functions, checks the far field and the
    # scattered near field on and outside the obstacle, so the phases
    # i^n and (-i)^n of every order up to n_max enter.
    k, rho = 300.0, 0.5
    sol = mie.solve(SchemeSpec.sound_hard(), dim, WaveParams(k, np.eye(dim)[0]), rho)
    assert sol.n_max >= 100
    n, x = np.arange(sol.n_max + 1), k * rho
    th = np.linspace(0.0, math.pi, 61)
    i_pow = np.array([1j ** (m % 4) for m in n])
    radii = (rho, 1.3 * rho, 2.0 * rho)
    if dim == 2:
        weights, basis = np.where(n == 0, 1.0, 2.0), np.cos(np.outer(n, th))
        ratio = special.jvp(n, x) / special.h1vp(n, x)  # -d_n (-i)^n
        far = -np.exp(-1j * math.pi / 4) * math.sqrt(2 / (math.pi * k)) * ratio
        outgoing = [special.hankel1(n, k * r) for r in radii]
    else:
        weights, basis = 2 * n + 1, special.eval_legendre(n[:, None], np.cos(th))
        ratio = special.spherical_jn(n, x, True) / (special.spherical_jn(n, x, True)
                                                    + 1j * special.spherical_yn(n, x, True))
        far = (1j / k) * ratio
        outgoing = [special.spherical_jn(n, k * r) + 1j * special.spherical_yn(n, k * r)
                    for r in radii]
    pairs = [(mie.far_field(sol, th).amplitude, (weights * far) @ basis)]
    for r, h in zip(radii, outgoing):
        pairs.append((mie.field_on_circle(sol, r, th, scattered_only=True),
                      (weights * i_pow * -ratio * h) @ basis))
    for got, expected in pairs:
        assert np.max(np.abs(got - expected)) <= 2.5e-13 * np.max(np.abs(expected))


def test_far_field_backscatter_leading_magnitude_2d():
    # |A(pi)| ~ sqrt(2 pi/k) (3/4) (k rho)^2 = 5.317e-4 at k=2, rho=0.01.
    sol = mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, 0.01)
    amp = mie.far_field(sol, np.array([math.pi])).amplitude[0]
    lead = math.sqrt(2 * math.pi / 2.0) * 0.75 * 0.02 ** 2
    assert lead == pytest.approx(5.317e-4, rel=1e-3)
    assert abs(amp) == pytest.approx(lead, rel=2 * 0.02 ** 2 + 1e-4)


def test_far_field_forward_leading_magnitude_3d():
    sol = mie.solve(SchemeSpec.sound_hard(), 3, WAVE3, 0.01)
    amp = mie.far_field(sol, np.array([0.0])).amplitude[0]
    lead = (1 / 2.0) * (1.0 / 6.0) * 0.02 ** 3
    assert lead == pytest.approx(6.667e-7, rel=1e-3)
    assert abs(amp) == pytest.approx(lead, rel=2 * 0.02 ** 2 + 1e-4)


def test_far_field_depends_only_on_relative_angle():
    # The modal solve uses only k, so any rotated incident direction gives
    # the same pattern over theta = angle(xhat, d).
    th = np.linspace(0, 2 * math.pi, 50, endpoint=False)
    rho = 0.2
    sh = SchemeSpec.sound_hard()
    a1 = mie.far_field(mie.solve(sh, 2, WaveParams(2.0, np.array([1.0, 0.0])), rho), th)
    d = np.array([math.cos(1.1), math.sin(1.1)])
    a2 = mie.far_field(mie.solve(sh, 2, WaveParams(2.0, d), rho), th)
    assert np.max(np.abs(a1.amplitude - a2.amplitude)) <= 1e-12 * np.max(np.abs(a1.amplitude))


@pytest.mark.parametrize("rho, theta", [(-1.0, 0.0), (0.0, 0.0), (math.nan, 0.0),
                                        (math.inf, 0.0), (0.01, math.nan), (0.01, -math.inf)])
@pytest.mark.parametrize("dim", [2, 3])
def test_leading_asymptotic_checks_rho_and_theta(dim, rho, theta):
    with pytest.raises(DomainError, match="finite rho > 0"):
        mie.leading_asymptotic(dim, WAVE2 if dim == 2 else WAVE3, rho, theta)


@pytest.mark.parametrize("dim, wave", [(3, WAVE2), (2, WAVE3)])
def test_leading_asymptotic_checks_dim_against_the_wave(dim, wave):
    with pytest.raises(DomainError, match=f"a {dim}D solve needs a {dim}-vector direction"):
        mie.leading_asymptotic(dim, wave, 0.1, 0.0)


def test_leading_asymptotic_special_angle_zeros():
    # zero up to the floating representation of pi/3 and arccos(2/3)
    assert abs(mie.leading_asymptotic(2, WAVE2, 0.01, math.pi / 3)) < 1e-19
    assert abs(mie.leading_asymptotic(3, WAVE3, 0.01, math.acos(2 / 3))) < 1e-19
    amp = mie.leading_asymptotic(2, WAVE2, 0.01, math.pi)
    assert abs(amp) == pytest.approx(5.317e-4, rel=1e-3)


@pytest.mark.parametrize("dim", [2, 3])
def test_asymptotic_consistency_remainder_order(dim):
    # |A_series - A_leading| = kappa (k rho)^{dim+2} with kappa stable
    # under rho halvings (within 30%).
    wave = _wave(dim)
    thetas = [0.4, 2.0, 3.0]
    rhos = [0.025, 0.0125, 0.00625]
    for theta in thetas:
        kappas = []
        for rho in rhos:
            sol = mie.solve(SchemeSpec.sound_hard(), dim, wave, rho)
            a_series = mie.far_field(sol, np.array([theta])).amplitude[0]
            a_lead = mie.leading_asymptotic(dim, wave, rho, theta)
            kappas.append(abs(a_series - a_lead) / (wave.k * rho) ** (dim + 2))
        for k1, k2 in zip(kappas, kappas[1:]):
            assert abs(k1 / k2 - 1.0) <= 0.3


# ---------------------------------------------------------------------------
# Near field
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dim", [2, 3])
def test_field_reduces_to_plane_wave_without_scattering(dim):
    sol = mie.solve(SchemeSpec.sound_hard(), dim, _wave(dim), 0.3)
    quiet = replace(sol, d_n=np.zeros_like(sol.d_n))
    for r, th in ((0.7, 0.3), (2.0, 1.9), (5.0, 4.0)):
        u = oracles.field_at(quiet, (r, th))
        expected = cmath.exp(1j * 2.0 * r * math.cos(th))
        assert u == pytest.approx(expected, rel=1e-11)


@pytest.mark.filterwarnings("error")
def test_near_field_beyond_the_double_range_is_a_range_error():
    # At k r = 2e-45 the exterior factor d_9 H_9(k r) needs H_9 ~ 1e400.
    sol = mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, 1e-45)
    assert np.all(np.isfinite(sol.d_n))
    with pytest.raises(RangeError, match="leaves the double range"):
        mie.field_on_circle(sol, 1e-45, np.array([0.0, 1.0]))


@pytest.mark.parametrize("dim", [2, 3])
def test_near_field_rejects_non_finite_angles(dim):
    sol = mie.solve(SchemeSpec.sound_hard(), dim, _wave(dim), 0.3)
    with pytest.raises(DomainError, match="finite"):
        mie.field_on_circle(sol, 1.0, np.array([math.nan, 0.0, math.inf]))
    if dim == 2:
        with pytest.raises(DomainError, match="finite"):
            mie.scattered_cauchy_data(sol, 1.0, np.array([0.0, math.nan]))


@pytest.mark.parametrize("dim", [2, 3])
def test_near_field_rejects_angle_arrays_that_are_not_1d(dim):
    sol = mie.solve(SchemeSpec.sound_hard(), dim, _wave(dim), 0.3)
    for thetas in (np.zeros((2, 2)), np.array(0.5)):
        with pytest.raises(ShapeError, match="1-d"):
            mie.field_on_circle(sol, 0.5, thetas)
    if dim == 2:
        with pytest.raises(ShapeError, match="1-d"):
            mie.scattered_cauchy_data(sol, 0.5, np.zeros((2, 2)))


@pytest.mark.parametrize("dim", [2, 3])
def test_far_field_checks_angles_before_the_sum(dim):
    # Both dims raise the FarFieldPattern message, and no bad grid reaches
    # the angle-table cache.
    sol = mie.solve(SchemeSpec.sound_hard(), dim, _wave(dim), 0.3)
    before = mie._angle_table.cache_info()
    for angles in ([0.0, math.nan], [0.0, math.inf], [[0.0, 1.0]], [1.0, 0.5]):
        with pytest.raises(DomainError, match="finite, strictly increasing 1-d array"):
            mie.far_field(sol, np.array(angles))
    with pytest.raises(DomainError, match="outside the valid range"):
        mie.far_field(sol, np.array([0.0, 7.0]))
    after = mie._angle_table.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_far_field_pattern_needs_one_amplitude_per_angle():
    with pytest.raises(ShapeError, match="2 angles"):
        mie.FarFieldPattern([0.0, 1.0], [1.0, 2.0, 3.0], 2)
    with pytest.raises(ShapeError):
        mie.FarFieldPattern([0.0, 1.0], [[1.0, 2.0]], 3)


@pytest.mark.parametrize("dim", [1, 4, "2d", "3D", None])
def test_far_field_pattern_dim_must_be_2_or_3(dim):
    with pytest.raises(DomainError, match="dim must be 2 or 3"):
        mie.FarFieldPattern([0.0, 1.0], [1.0, 2.0], dim)


def test_far_field_pattern_dim_sets_the_angle_range():
    # 4.0 lies in [0, 2pi] but beyond pi.
    pattern = mie.FarFieldPattern([0.0, 4.0], [1.0, 2.0j], 2)
    assert pattern.dim == 2 and pattern.amplitude.dtype == complex
    with pytest.raises(DomainError, match="outside the valid range"):
        mie.FarFieldPattern([0.0, 4.0], [1.0, 2.0j], 3)


# ---------------------------------------------------------------------------
# The 3D angle table: P_n(cos theta)
# ---------------------------------------------------------------------------
def _legendre_table(thetas, rows: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """x = cos(theta) and the cached 3D angle table, rows P_0..P_{rows-1}
    at x.  No x outside [-1, 1] reaches a table: far_field and
    field_on_circle check the angles first."""
    thetas = np.asarray(thetas, dtype=float)
    return np.cos(thetas), mie._angle_table(3, thetas.tobytes(), rows)


def test_legendre_low_orders():
    x, table = _legendre_table(np.arccos([-1.0, -0.3, 0.0, 0.8, 1.0]))
    assert np.all(table[0] == 1.0)
    assert np.array_equal(table[1], x)


def test_legendre_p5_explicit_polynomial():
    x, table = _legendre_table([math.acos(0.3)])
    oracle = (63 * x ** 5 - 70 * x ** 3 + 15 * x) / 8.0
    assert abs(oracle[0] - 0.3454) < 1e-4
    assert abs(table[5, 0] - oracle[0]) < 1e-14


def test_legendre_bounded():
    _, table = _legendre_table(np.arccos(np.linspace(-1, 1, 201)))
    assert np.max(np.abs(table[:13])) <= 1.0 + 1e-12


def test_tallest_legendre_table_matches_mpmath():
    # N_MAX_CAP + 1 = 200 orders round up to 224 rows, the tallest table.
    assert -(-(mie.N_MAX_CAP + 1) // 32) * 32 == 224
    x, table = _legendre_table(np.linspace(0.0, math.pi, 720), 224)
    with mpmath.workdps(30):
        for n in (0, 1, 5, 57, 111, 180, 223):
            exact = np.array([float(mpmath.legendre(n, mpmath.mpf(v))) for v in x])
            assert np.max(np.abs(table[n] - exact)) <= 3e-13


# ---------------------------------------------------------------------------
# The angle-table cache
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("descending", [False, True], ids=["small-n-first", "large-n-first"])
def test_cached_angular_sums_equal_the_uncached_oracle(dim, descending):
    # Every row count below and at the multiples of 32 the tables are
    # rounded to, reached in either order: a sum from the first rows of a
    # larger table is the sum from a table of its own size, bit for bit.
    mie._angle_table.cache_clear()
    rng = np.random.default_rng(21)
    hi = 2.0 * math.pi if dim == 2 else math.pi
    for m in (1, 7, 100, 333, 720):
        angles = np.linspace(0.0, hi, m)
        for size in sorted((1, 2, 31, 32, 33, 200), reverse=descending):
            coef = rng.normal(size=(2, size)) + 1j * rng.normal(size=(2, size))
            got = mie._angular_sum(dim, coef, angles)
            assert np.array_equal(got, oracles.angular_sum(dim, coef, angles))


@pytest.mark.parametrize("dim", [2, 3])
def test_cached_angle_tables_are_read_only(dim):
    table = mie._angle_table(dim, np.linspace(0.0, 1.0, 5).tobytes(), 32)
    assert table.shape == (32, 5) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 2.0


def test_angle_table_cache_stays_bounded():
    coef = np.ones((1, 40), dtype=complex)
    for i in range(50):
        mie._angular_sum(2 + i % 2, coef, np.linspace(0.0, 1.0 + 0.01 * i, 9))
    info = mie._angle_table.cache_info()
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize("dim", [2, 3])
def test_cauchy_data_leaves_the_angle_cache_alone(dim):
    # Its grid is a one-off: no cache slot, and the same sums bit for bit.
    sol = mie.solve(SchemeSpec.finite_sound_hard(), dim, _wave(dim), 0.3)
    phis = np.linspace(0.0, 2.0, 37) - 0.123
    before = mie._angle_table.cache_info()
    u, dudr = mie.scattered_cauchy_data(sol, 0.7, phis)
    after = mie._angle_table.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert np.array_equal(u, mie.field_on_circle(sol, 0.7, phis, scattered_only=True))
    assert np.array_equal(dudr, mie.field_on_circle(sol, 0.7, phis, scattered_only=True,
                                                    radial_derivative=True))


@pytest.mark.parametrize("dim", [2, 3])
def test_mutating_the_angle_array_after_a_call_changes_no_later_result(dim):
    sol = mie.solve(SchemeSpec.finite_sound_hard(), dim, _wave(dim), 0.3)
    angles = np.linspace(0.0, 3.0, 50)
    far = mie.far_field(sol, angles).amplitude.copy()
    near = mie.field_on_circle(sol, 0.5, angles)
    kept = angles.copy()
    angles *= 0.5  # same bytes length, new values
    assert np.array_equal(mie.far_field(sol, kept).amplitude, far)
    assert np.array_equal(mie.field_on_circle(sol, 0.5, kept), near)
    assert np.array_equal(mie.far_field(sol, angles).amplitude,
                          mie.far_field(sol, 0.5 * kept).amplitude)
    assert np.array_equal(mie._angular_sum(dim, sol.d_n[None], angles)[0],
                          oracles.angular_sum(dim, sol.d_n[None], 0.5 * kept)[0])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("r", [0.3, 3.0, 6.0])
def test_incident_wave_is_exact_at_any_radius(dim, r):
    # n_max = 12 resolves k rho = 0.6, far below k r = 12 at r = 6
    sol = mie.solve(SchemeSpec.sound_hard(), dim, _wave(dim), 0.3)
    assert sol.n_max == 12
    th = np.linspace(0.0, 2 * math.pi if dim == 2 else math.pi, 73)
    cos = np.cos(th)
    plane = np.exp(2j * r * cos)
    for derivative, expected in ((False, plane), (True, 2j * cos * plane)):
        total = mie.field_on_circle(sol, r, th, radial_derivative=derivative)
        scattered = mie.field_on_circle(sol, r, th, scattered_only=True,
                                        radial_derivative=derivative)
        assert np.max(np.abs(total - scattered - expected)) <= 1e-13


@pytest.mark.parametrize("scheme", [SchemeSpec.finite_sound_hard(),
                                    SchemeSpec.finite_sound_soft()])
def test_interface_continuity_and_flux(scheme):
    # A fixed 2D point of the hypothesis property of the same name in
    # test_properties.
    rho = 0.05
    sol = mie.solve(scheme, 2, WAVE2, rho)
    th = np.linspace(0, 2 * math.pi, 9, endpoint=False)
    sigma_l, _ = scheme.layer_params(rho)

    u_out = mie.field_on_circle(sol, rho, th, region="exterior")
    u_lay = mie.field_on_circle(sol, rho, th, region="layer")
    assert np.max(np.abs(u_out - u_lay)) <= 1e-10 * np.max(np.abs(u_out))

    du_out = mie.field_on_circle(sol, rho, th, region="exterior", radial_derivative=True)
    du_lay = mie.field_on_circle(sol, rho, th, region="layer", radial_derivative=True)
    assert np.max(np.abs(du_out - sigma_l * du_lay)) <= 1e-10 * np.max(np.abs(du_out))

    u_lay2 = mie.field_on_circle(sol, rho / 2, th, region="layer")
    u_core = mie.field_on_circle(sol, rho / 2, th, region="core")
    assert np.max(np.abs(u_lay2 - u_core)) <= 1e-10 * np.max(np.abs(u_core))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scheme", [SchemeSpec.finite_sound_hard(),
                                    SchemeSpec.finite_sound_soft()])
def test_region_inferred_inside_a_layered_solution(dim, scheme):
    rho = 0.05
    sol = mie.solve(scheme, dim, _wave(dim), rho)
    th = np.linspace(0.0, math.pi, 19)
    for r, region in ((0.99 * rho, "layer"), (0.75 * rho, "layer"), (0.5 * rho, "layer"),
                      (0.49 * rho, "core"), (0.25 * rho, "core")):
        for derivative in (False, True):
            inferred = mie.field_on_circle(sol, r, th, radial_derivative=derivative)
            named = mie.field_on_circle(sol, r, th, region=region,
                                        radial_derivative=derivative)
            assert np.array_equal(inferred, named)
    with pytest.raises(DomainError, match="outside the layer region"):
        mie.field_on_circle(sol, 0.25 * rho, th, region="layer")


@pytest.mark.parametrize("dim", [2, 3])
def test_named_region_must_contain_the_radius(dim):
    # The regions are closed: exterior r >= rho, layer rho/2 <= r <= rho,
    # core r <= rho/2; a radius outside the named one is an error.
    rho = 0.1
    th = np.linspace(0.0, math.pi, 5)
    sh = mie.solve(SchemeSpec.sound_hard(), dim, _wave(dim), rho)
    fsh = mie.solve(SchemeSpec.finite_sound_hard(), dim, _wave(dim), rho)
    for sol, r, region in ((sh, 0.05, "exterior"), (fsh, 0.05, "exterior"),
                           (fsh, 0.99 * rho, "core"), (fsh, 5 * rho, "core"),
                           (fsh, 0.49 * rho, "layer"), (fsh, 1.01 * rho, "layer")):
        with pytest.raises(DomainError, match=f"outside the {region} region"):
            mie.field_on_circle(sol, r, th, region=region)
    for r, region in ((rho, "exterior"), (rho, "layer"), (rho / 2, "layer"),
                      (rho / 2, "core"), (0.0, "core")):
        assert np.all(np.isfinite(mie.field_on_circle(fsh, r, th, region=region)))


@pytest.mark.parametrize("dim", [2, 3])
def test_every_region_miss_names_one_region(dim):
    # One rule picks the region: a miss names the region asked for, or the
    # exterior where none was named, whatever kind of region it is.
    rho = 0.1
    th = np.linspace(0.0, math.pi, 5)
    sh = mie.solve(SchemeSpec.sound_hard(), dim, _wave(dim), rho)
    fsh = mie.solve(SchemeSpec.finite_sound_hard(), dim, _wave(dim), rho)
    for sol, r, region, named in ((sh, 0.05, None, "exterior"), (sh, rho, "layer", "layer"),
                                  (fsh, rho, "nowhere", "nowhere")):
        with pytest.raises(DomainError, match=rf"r = {r:g} lies outside the {named} region "
                                              rf"\(rho = {rho:g}\)"):
            mie.field_on_circle(sol, r, th, region=region)


def test_field_region_dispatch_and_errors():
    rho = 0.05
    sol = mie.solve(SchemeSpec.finite_sound_soft(), 2, WAVE2, rho)
    # interface points use the outer expansion by convention
    v_auto = oracles.field_at(sol, (rho, 0.4))
    v_ext = oracles.field_at(sol, (rho, 0.4), region="exterior")
    assert v_auto == v_ext
    sh = mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, 0.3)
    with pytest.raises(DomainError):
        oracles.field_at(sh, (0.2, 0.0))
    with pytest.raises(DomainError):
        oracles.field_at(sol, (rho, 0.0), region="nowhere")


# ---------------------------------------------------------------------------
# Energy conservation (optical theorem, quadrature oracle)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scheme", [SchemeSpec.sound_hard(), SchemeSpec.sound_soft()])
def test_optical_theorem_2d(scheme):
    # For the modal convention u^s ~ A e^{ikr}/sqrt(r):
    # int_0^{2pi} |A|^2 dtheta = -sqrt(8 pi / k) Re[e^{i pi/4} A(0)].
    rho, k = 0.4, 2.0
    sol = mie.solve(scheme, 2, WAVE2, rho)
    th = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    amp = mie.far_field(sol, th).amplitude
    lhs = np.mean(np.abs(amp) ** 2) * 2 * math.pi
    forward = mie.far_field(sol, np.array([0.0])).amplitude[0]
    rhs = -math.sqrt(8 * math.pi / k) * (cmath.exp(1j * math.pi / 4) * forward).real
    assert lhs == pytest.approx(rhs, rel=1e-8)


@pytest.mark.parametrize("scheme", [SchemeSpec.sound_hard(), SchemeSpec.sound_soft()])
def test_optical_theorem_3d(scheme):
    # 2 pi int_0^pi |A|^2 sin(theta) dtheta = (4 pi / k) Im A(0).
    # In x = cos(theta) the integrand is a polynomial of degree 2 n_max,
    # so 64-node Gauss-Legendre integrates it exactly.
    rho, k = 0.4, 2.0
    sol = mie.solve(scheme, 3, WAVE3, rho)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    th = np.arccos(np.clip(nodes, -1, 1))
    order = np.argsort(th)
    amp = mie.far_field(sol, th[order]).amplitude[np.argsort(order)]
    lhs = 2 * math.pi * float(weights @ (np.abs(amp) ** 2))
    forward = mie.far_field(sol, np.array([0.0])).amplitude[0]
    rhs = (4 * math.pi / k) * forward.imag
    assert lhs == pytest.approx(rhs, rel=1e-8)


# ---------------------------------------------------------------------------
# FSH -> SH convergence (coefficients and near field)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dim, extra", [(2, 2.0), (3, 3.0)])
def test_fsh_to_sh_coefficient_slopes(dim, extra):
    # |d_n^FSH - d_n^SH| decays like rho^{2n + dim + delta}.
    wave = _wave(dim)
    rhos = 0.5 ** np.arange(4, 10)
    for n in range(3):
        diffs = []
        for rho in rhos:
            fsh = mie.solve(SchemeSpec.finite_sound_hard(), dim, wave, rho)
            sh = mie.solve(SchemeSpec.sound_hard(), dim, wave, rho)
            diffs.append(abs(fsh.d_n[n] - sh.d_n[n]))
        assert _fit_slope(rhos, diffs) >= 2 * n + extra + 0.5 - 0.1


def test_near_field_deviation_slope():
    from nearcloak.analysis import near_field_deviation
    rhos = 0.5 ** np.arange(4, 10)
    devs, devs_on_boundary = [], []
    for rho in rhos:
        fsh = mie.solve(SchemeSpec.finite_sound_hard(), 2, WAVE2, rho)
        sh = mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, rho)
        devs.append(near_field_deviation(fsh, sh, 0.1))
        devs_on_boundary.append(near_field_deviation(fsh, sh, rho))
    slope_fixed = _fit_slope(rhos, devs)            # fixed radius: rho^{2+delta}
    assert slope_fixed >= 2.4
    # On the obstacle the guarantee weakens to C rho^{1+delta}; the actual
    # decay here is rho^{2+delta} |ln rho| (the n=0 Hankel log factor), so
    # check bound consistency plus a strict degradation vs the fixed radius.
    slope_b = _fit_slope(rhos, devs_on_boundary)
    assert slope_b >= 1.4
    assert slope_b <= slope_fixed - 0.1


def test_wave_params_validation():
    with pytest.raises(DomainError):
        WaveParams(-1.0, np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        WaveParams(2.0, np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        WaveParams(2.0, np.array([1.0]))
    w = WaveParams(2.0, np.array([3.0, 4.0]) / 5.0)
    assert np.linalg.norm(w.d) == pytest.approx(1.0)


def test_scheme_validation():
    with pytest.raises(DomainError):
        SchemeSpec("absorbing")
    with pytest.raises(DomainError):
        SchemeSpec.finite_sound_hard(delta=-0.5)
    with pytest.raises(DomainError):
        SchemeSpec.finite_sound_soft(beta_coeff=0.0)
    with pytest.raises(DomainError):
        SchemeSpec.sound_hard().layer_params(0.1)


def test_non_finite_inputs_are_domain_errors():
    for d in ([math.nan, 0.0], [math.inf, 0.0], [1.0, math.nan, 0.0]):
        with pytest.raises(DomainError):
            WaveParams(2.0, np.array(d))
    for rho in (math.inf, math.nan):
        for scheme in (SchemeSpec.sound_hard(), SchemeSpec.sound_soft(),
                       SchemeSpec.finite_sound_hard()):
            with pytest.raises(DomainError):
                mie.solve(scheme, 2, WAVE2, rho)
    with pytest.raises(DomainError):
        mie.FarFieldPattern(np.array([]), np.array([]), 2)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_scheme_constants_must_be_finite(bad):
    for name in ("c", "delta", "a", "b"):
        with pytest.raises(DomainError):
            SchemeSpec.finite_sound_hard(**{name: bad})
    with pytest.raises(DomainError):
        SchemeSpec.finite_sound_soft(beta_coeff=bad)


def test_layered_lining_and_contents_must_be_passive():
    for sigma_l, q_l in [(1.0, 1.0 - 0.5j), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf),
                         (1.0, 0.0)]:
        with pytest.raises(DomainError):
            SchemeSpec.layered(sigma_l, q_l)
    scheme = SchemeSpec.layered(1.0, 1.0 + 0.5j)
    with pytest.raises(DomainError):  # the virtual core (1, 1 - 0.5j) is active
        mie.solve(scheme, 2, WAVE2, 0.3, (1.0, (1.0 - 0.5j) * 0.3 ** 2))
    for kind in (scheme, SchemeSpec.sound_hard(), SchemeSpec.sound_soft()):
        with pytest.raises(DomainError):
            mie.solve(kind, 2, WAVE2, 0.3, (-1.0, 1.0))


def test_wave_must_match_the_dimension():
    for scheme in (SchemeSpec.sound_hard(), SchemeSpec.finite_sound_hard()):
        with pytest.raises(DomainError, match="3-vector"):
            mie.solve(scheme, 3, WAVE2, 0.3)
        with pytest.raises(DomainError, match="2-vector"):
            mie.solve_many(scheme, 2, WAVE3, [0.3, 0.1])


def test_lossy_linings_reject_contents_without_a_wavenumber():
    # q' = 0 is passive and the ideal linings solve it, but the lossy ones
    # would need J_n at k_2 rho/2 = 0.
    for dim in (2, 3):
        for scheme in (SchemeSpec.finite_sound_hard(), SchemeSpec.finite_sound_soft()):
            with pytest.raises(DomainError, match="q' != 0"):
                mie.solve(scheme, dim, _wave(dim), 0.05, (1.0, 0.0))
        for scheme in (SchemeSpec.sound_hard(), SchemeSpec.sound_soft()):
            mie.solve(scheme, dim, _wave(dim), 0.05, (1.0, 0.0))


def test_solve_enters_physical_contents_through_virtual_core_params(monkeypatch):
    # The lossy layers convert the contents once per rho, and their core
    # wavenumber is the one of that virtual core; the obstacles never do.
    rho, contents = 0.05, (2.5, 3.0 + 0.7j)
    calls = []
    monkeypatch.setattr(mie, "virtual_core_params",
                        lambda *args: calls.append(args) or virtual_core_params(*args))
    for dim in (2, 3):
        for scheme in (SchemeSpec.finite_sound_hard(), SchemeSpec.finite_sound_soft()):
            calls.clear()
            sol = mie.solve_many(scheme, dim, _wave(dim), [rho, 2 * rho], contents)
            assert calls == [(*contents, rho, dim), (*contents, 2 * rho, dim)]
            core = virtual_core_params(*contents, rho, dim)
            assert sol[0].k_core == mie._layer_wavenumbers(scheme, rho, 2.0, core)[1]
            direct = mie._eliminate(dim, _wave(dim), [rho], scheme, contents)[0]
            assert np.array_equal(sol[0].d_n, direct.d_n)
        for scheme in (SchemeSpec.sound_hard(), SchemeSpec.sound_soft()):
            calls.clear()
            mie.solve(scheme, dim, _wave(dim), rho, contents)
            assert calls == []


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scheme", [SchemeSpec.sound_hard(), SchemeSpec.sound_soft()],
                         ids=["sh", "ss"])
def test_obstacles_ignore_contents_beyond_the_virtual_range(dim, scheme):
    # q' rho^-dim overflows at rho = 1e-6, but the obstacles never convert
    # the contents: they solve, and d_n is that of the default contents.
    with pytest.raises(RangeError):
        virtual_core_params(1.0, 1e300, 1e-6, dim)
    sol = mie.solve(scheme, dim, _wave(dim), 1e-6, (1.0, 1e300))
    assert np.array_equal(sol.d_n, mie.solve(scheme, dim, _wave(dim), 1e-6, (1.0, 1.0)).d_n)
