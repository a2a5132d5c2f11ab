"""Modal-solver tests: coefficients, far fields, near fields, energy."""

import cmath
import dataclasses
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


def _wave(dim):
    """The k = 2 wave along the first axis of R^dim."""
    return WaveParams(2.0, np.eye(dim)[0])


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


def _golden_max(f, lo, hi, steps=80):
    """The point of [lo, hi] where golden-section search finds f largest."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(steps):
        if fa > fb:
            hi, b, fb = b, a, fa
            a = hi - g * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + g * (hi - lo)
            fb = f(b)
    return a if fa > fb else b


def test_degenerate_mode_is_flagged_at_a_layer_resonance():
    # A lossless layer over contents that are nearly a sound-hard wall: at
    # the q_l where |d_6| peaks, the exterior denominator R DH - P of mode 6
    # cancels to below 1e-14 of its terms, and only that mode is flagged.
    # d_6 itself is not pinned, as the cancellation is what the flag reports.
    rho, contents = 0.025, (1e-30, 1e-30)

    def solve(q_l):
        return mie.solve(SchemeSpec.layered(1.0, q_l), 2, WAVE2, rho, contents)

    q_l = _golden_max(lambda q_l: abs(solve(q_l).d_n[6]), 30073.0, 30074.5)
    sol = solve(q_l)
    assert sol.degenerate_modes == (6,)
    assert np.all(np.isfinite(sol.d_n))
    for wall in (SchemeSpec.sound_soft(), SchemeSpec.sound_hard()):
        assert mie.solve(wall, 2, WAVE2, rho, contents).degenerate_modes == ()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scheme, k, rho, message", [
    # sigma_l = 1e-309 is subnormal, and q_l / sigma_l overflows
    (SchemeSpec.finite_sound_hard(c=1e-300), 2.0, 1e-3,
     "leaves the double range: (sigma_l, q_l) = (1e-309, 3+2j)"),
    # sigma_l = 0.1^602 underflows to 0
    (SchemeSpec.finite_sound_hard(delta=300.0), 2.0, 0.1,
     "leaves the double range: (sigma_l, q_l) = (0, 3+2j)"),
    # q_l = 1 + i beta rho^-2 overflows
    (SchemeSpec.finite_sound_soft(beta_coeff=1e300), 2.0, 1e-20,
     "leaves the double range: (sigma_l, q_l) = (1, 1+infj)"),
    # sigma_l = rho^3 overflows in the power itself
    (SchemeSpec.finite_sound_hard(), 1e-150, 1e150,
     "leaves the double range: (sigma_l, q_l) overflows"),
], ids=["subnormal_sigma", "zero_sigma", "infinite_q", "overflowing_sigma"])
def test_layer_beyond_the_double_range_is_a_range_error(dim, scheme, k, rho, message):
    with pytest.raises(RangeError) as info:
        mie.solve(scheme, dim, WaveParams(k, np.eye(dim)[0]), rho)
    assert str(info.value) == f"the {scheme.kind} layer at rho = {rho:g} {message}"


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lining, q", [
    ("layer", 2.0 - 1e-16j), ("layer", complex(-4.0, -0.0)),
    ("core", 0.5 - 1e-16j), ("core", complex(-4.0, -0.0)),
], ids=["layer-tiny", "layer-signed-zero", "core-tiny", "core-signed-zero"])
def test_tolerated_negative_im_q_solves_as_im_q_zero(dim, lining, q):
    # check_passive tolerates Im q down to -1e-15 |q|.  Such a q, and a q
    # whose Im is -0.0, must solve exactly as the same q with Im q = +0.0:
    # no wavenumber may leave the principal branch that C_0 and the core
    # coupling sqrt(sigma_a q_a) stay on.
    def solve(q):
        if lining == "layer":
            return mie.solve(SchemeSpec.layered(1.5, q), dim, _wave(dim), 0.1)
        return mie.solve(SchemeSpec.finite_sound_soft(), dim, _wave(dim), 0.1, (2.0, q))

    got, want = solve(q), solve(complex(q.real, 0.0))
    for name in ("d_n", "a_n", "b_n", "c_n"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.k_layer, got.k_core) == (want.k_layer, want.k_core)


@pytest.mark.parametrize("scheme, rho", [
    (SchemeSpec.finite_sound_soft(), 0.0), (SchemeSpec.finite_sound_hard(delta=0.3), -0.5),
    (SchemeSpec.finite_sound_hard(), math.nan)], ids=["fss-zero", "fsh-negative", "fsh-nan"])
def test_layer_params_checks_rho(scheme, rho):
    with pytest.raises(DomainError) as info:
        scheme.layer_params(rho)
    assert str(info.value) == f"rho must be finite and positive, got {rho}"


@pytest.mark.parametrize("scheme, dim, rho, contents, digits", [
    pytest.param(SchemeSpec.finite_sound_hard(), 2, 1e-3, None, 50, id="2-0.001-None"),
    pytest.param(SchemeSpec.finite_sound_hard(), 3, 1e-3, None, 50, id="3-0.001-None"),
    # q' = q_a rho^2 with J_0(k2 rho/2) = 0 in the virtual core
    pytest.param(SchemeSpec.finite_sound_hard(), 2, 0.1,
                 (1.0, (2.0 * special.jn_zeros(0, 1)[0] / (2.0 * 0.1)) ** 2 * 0.1 ** 2), 50,
                 id="2-0.1-contents2"),
    pytest.param(SchemeSpec.finite_sound_soft(), 2, 1e-2, (2.0, 0.5 + 0.2j), 50, id="fss-2"),
    pytest.param(SchemeSpec.finite_sound_soft(), 3, 1e-2, (2.0, 0.5 + 0.2j), 50, id="fss-3"),
    pytest.param(SchemeSpec.layered(1.5, 2 + 0.3j), 2, 1e-2, (2.0, 0.5 + 0.2j), 50,
                 id="layered-2"),
    # Kept at the 80 digits its system needed before the oracle scaled it.
    pytest.param(SchemeSpec.layered(1.5, 2 + 0.3j), 3, 1e-2, (2.0, 0.5 + 0.2j), 80,
                 id="layered-3"),
])
def test_layered_coefficients_match_multiprecision_interface_solve(scheme, dim, rho, contents,
                                                                   digits):
    # d_n, and the near field in the layer and the core (values and radial
    # derivatives), against the multiprecision solve summed mode by mode.
    # The first three cases are FSH with the default contents unless given.
    contents = contents or (1.0, 1.0)
    core = virtual_core_params(*contents, rho, dim)
    sol = mie.solve(scheme, dim, _wave(dim), rho, contents)
    th = np.linspace(0.0, math.pi, 7)
    with mpmath.workdps(digits):
        kt, k2, coeffs = oracles.interface_solve(dim, 2.0, rho, scheme.layer_params(rho), core,
                                          sol.n_max)
        for n, (d, _, _, _) in enumerate(coeffs):
            assert abs(sol.d_n[n] - complex(d)) <= 1e-12 * abs(complex(d))
        for region, r, parts in (("layer", 0.75 * rho, ((1, "j", kt), (2, "h", kt))),
                                 ("core", 0.25 * rho, ((3, "j", k2),))):
            fields = [0, 0]  # radial factors of the value and of the derivative
            for i, kind, wavenumber in parts:
                f, df = oracles.mp_sequence(dim, kind, sol.n_max, wavenumber * mpmath.mpf(r))
                fields = [fields[0] + np.array([x[i] * v for x, v in zip(coeffs, f)]),
                          fields[1] + np.array([x[i] * wavenumber * v for x, v in zip(coeffs, df)])]
            for derivative, terms in enumerate(fields):
                expected = oracles.mp_field(dim, terms, th)
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


def _classical_n_max(k, rho):
    """The classical start x + 8 + 4 x^(1/3), x = k rho, rounded up."""
    x = k * rho
    return int(math.ceil(x + 8.0 + 4.0 * x ** (1.0 / 3.0)))


@pytest.mark.parametrize("kind, dim, k, rhos, passes", [
    ("ss", 2, 2.0, [0.5, 1e-3, 0.2], 1),
    ("fsh", 3, 2.0, [0.5, 1e-3, 0.2], 1),
    ("fsh", 2, 122.0, [0.01, 0.3, 1e-4], 2),  # k rho = 36.6 is solved again at n + 8
])
def test_each_truncation_pass_makes_one_call_per_kind(monkeypatch, kind, dim, k, rhos, passes):
    # One bessel_j and one bessel_h1 call per pass, each over every argument
    # array of the pass concatenated: k rho alone for an obstacle, and k rho,
    # kt rho, kt rho/2, k_2 rho/2 for a lossy layer.
    if passes == 2:  # default_n_max passes k rho = 36.6 at once; start it lower
        monkeypatch.setattr(mie, "default_n_max", _classical_n_max)
    calls = []
    for name in ("bessel_j", "bessel_h1"):
        fn = getattr(specfun, name)
        monkeypatch.setattr(specfun, name,
                            lambda nmax, z, *args, _fn=fn, _name=name, **kw:
                            calls.append((_name, list(nmax))) or _fn(nmax, z, *args, **kw))
    sols = mie.solve_many(SchemeSpec(kind), dim, WaveParams(k, np.eye(dim)[0]), rhos)
    arrays = 1 if kind == "ss" else 4
    assert [name for name, _ in calls] == ["bessel_j", "bessel_h1"] * passes
    first = [mie.default_n_max(k, rho) + 1 for rho in rhos] * arrays
    assert calls[0][1] == calls[1][1] == first
    if passes == 2:  # only the row whose tail is above threshold, 8 orders up
        assert calls[2][1] == calls[3][1] == [first[1] + 8] * arrays
        assert sols[1].n_max == mie.default_n_max(k, rhos[1]) + 8
    assert all(sol.truncation_tail <= mie.TAIL_THRESHOLD for sol in sols)


@pytest.mark.parametrize("kind", ["ss", "sh", "fss", "fsh"])
@pytest.mark.parametrize("dim", [2, 3])
def test_first_truncation_pass_meets_the_tail_test(kind, dim):
    # Every solve keeps its first pass's order; below k rho = 19.5 that is
    # the classical start, and above it no more than 3 orders past the
    # smallest order whose tail passes.
    for rho in (0.1, 0.45):
        for x in np.geomspace(0.01, 150.0, 30):
            k = x / rho
            sol = mie.solve(SchemeSpec(kind), dim, WaveParams(k, np.eye(dim)[0]), rho)
            start = mie.default_n_max(k, rho)
            assert sol.n_max == min(start, mie.N_MAX_CAP)
            if x < 19.5:
                assert start == _classical_n_max(k, rho)
            else:
                mag = np.abs(sol.d_n)
                passing = np.flatnonzero(mag <= mie.TAIL_THRESHOLD * np.maximum.accumulate(mag))
                assert sol.n_max - passing[0] <= 3, (x, rho)


def test_adaptive_truncation_clamped_at_order_cap():
    # k rho = 165: default_n_max (203) is past the cap, so the solve stops
    # at n_max = 199, where the tail is still 1.55e-13.
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
    message = "theta must be finite" if 0 < rho < math.inf else "rho must be finite and positive"
    with pytest.raises(DomainError, match=message):
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


@pytest.mark.parametrize("dim", [1, media.DIM_MAX + 1, "2d", "3D", None])
def test_far_field_pattern_dim_must_be_2_or_3(dim):
    # Named for the range of its first cases; a pattern takes any integer dim
    # from 2 to DIM_MAX, as a modal solve does.
    with pytest.raises(DomainError, match=f"dim must be an integer from 2 to {media.DIM_MAX}"):
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
def _legendre_table(thetas) -> tuple[np.ndarray, np.ndarray]:
    """x = cos(theta) and the cached 3D angle table, rows P_0..P_{N_MAX_CAP}
    at x.  No x outside [-1, 1] reaches a table: far_field and
    field_on_circle check the angles first."""
    thetas = np.asarray(thetas, dtype=float)
    return np.cos(thetas), mie._angle_table(3, thetas.tobytes())


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
    # Every table has N_MAX_CAP + 1 = 200 rows, orders 0 to 199.
    x, table = _legendre_table(np.linspace(0.0, math.pi, 720))
    assert table.shape == (mie.N_MAX_CAP + 1, 720) == (200, 720)
    with mpmath.workdps(30):
        for n in (0, 1, 5, 57, 111, 180, 199):
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
    table = mie._angle_table(dim, np.linspace(0.0, 1.0, 5).tobytes())
    assert table.shape == (200, 5) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 2.0


def test_angle_table_cache_stays_bounded():
    coef = np.ones((1, 40), dtype=complex)
    for i in range(50):
        mie._angular_sum(2 + i % 2, coef, np.linspace(0.0, 1.0 + 0.01 * i, 9))
    info = mie._angle_table.cache_info()
    assert info.currsize <= info.maxsize


def test_one_grid_holds_one_table_for_every_order():
    # Far fields near both ends of the orders a solve reaches share the one
    # table of their grid, of N_MAX_CAP + 1 rows.
    mie._angle_table.cache_clear()
    angles = np.linspace(0.0, math.pi, 37)
    low, high = (mie.solve(SchemeSpec.sound_hard(), 3, WAVE3, rho) for rho in (0.1, 30.0))
    assert low.n_max <= 12 and high.n_max >= 85
    for sol in (low, high):
        mie.far_field(sol, angles)
    info = mie._angle_table.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert mie._angle_table(3, angles.tobytes()).shape == (mie.N_MAX_CAP + 1, 37)


def test_a_sum_over_more_orders_than_any_solve_is_a_shape_error():
    sol = mie.ModalSolution(3, 0.5, 2.0, np.full(mie.N_MAX_CAP + 2, 1e-20, dtype=complex))
    with pytest.raises(ShapeError, match="201 orders"):
        mie.far_field(sol, np.linspace(0.0, math.pi, 5))


@pytest.mark.parametrize("dim", [2, 3])
def test_returned_solutions_are_read_only(dim):
    sol = mie.solve(SchemeSpec.finite_sound_hard(), dim, _wave(dim), 0.3)
    for name in ("d_n", "a_n", "b_n", "c_n"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(sol, name)[-1] = 1.0
    assert sol.truncation_tail <= mie.TAIL_THRESHOLD


@pytest.mark.parametrize("dim", [2, 3])
def test_cauchy_data_leaves_the_angle_cache_alone(dim):
    # Its grid is a one-off: no cache slot, and the same sums bit for bit.
    phis = np.linspace(0.0, 2.0, 37) - 0.123
    for scheme in (SchemeSpec.finite_sound_hard(), SchemeSpec.sound_hard()):
        sol = mie.solve(scheme, dim, _wave(dim), 0.3)
        before = mie._angle_table.cache_info()
        u, dudr = mie.scattered_cauchy_data(sol, 0.7, phis)
        after = mie._angle_table.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert np.array_equal(u, mie.field_on_circle(sol, 0.7, phis, scattered_only=True))
        assert np.array_equal(dudr, mie.field_on_circle(sol, 0.7, phis, scattered_only=True,
                                                        radial_derivative=True))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scheme", [SchemeSpec.sound_hard(), SchemeSpec.finite_sound_hard()],
                         ids=["sh", "fsh"])
def test_cauchy_data_evaluates_the_exterior_terms_once(monkeypatch, dim, scheme):
    # The field and its radial derivative come from one pass over the same
    # terms: one Hankel sequence, as one field_on_circle call makes.
    sol = mie.solve(scheme, dim, _wave(dim), 0.3)
    phis = np.linspace(0.0, 2.0, 37)
    calls = []
    for name in ("bessel_j", "bessel_h1"):
        fn = getattr(specfun, name)
        monkeypatch.setattr(specfun, name,
                            lambda *args, _fn=fn, _name=name, **kw:
                            calls.append(_name) or _fn(*args, **kw))
    mie.scattered_cauchy_data(sol, 0.7, phis)
    assert calls == ["bessel_h1"]
    calls.clear()
    mie.field_on_circle(sol, 0.7, phis, scattered_only=True, radial_derivative=True)
    assert calls == ["bessel_h1"]


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
    for sol, r, region, named in ((sh, 0.05, None, "exterior"), (sh, 0.05, "exterior", "exterior"),
                                  (fsh, rho / 4, "layer", "layer")):
        with pytest.raises(DomainError, match=rf"r = {r:g} lies outside the {named} region "
                                              rf"\(rho = {rho:g}\)"):
            mie.field_on_circle(sol, r, th, region=region)


@pytest.mark.parametrize("kind, region, regions", [
    ("fsh", "shell", "exterior, layer, core"),  # not a region of any solution
    ("fsh", "nowhere", "exterior, layer, core"),
    ("sh", "layer", "exterior"),  # an obstacle has no layer
])
def test_a_region_the_solution_lacks_is_named_with_those_it_has(kind, region, regions):
    sol = mie.solve(SchemeSpec(kind), 2, WAVE2, 0.3)
    with pytest.raises(DomainError, match=rf"^the solution has no '{region}' region, "
                                          rf"only {regions}$"):
        mie.field_on_circle(sol, 0.2, np.linspace(0.0, math.pi, 5), region=region)


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
    for k in (-1.0, 2 + 0j, True, "2", math.nan, math.inf):
        with pytest.raises(DomainError, match="wavenumber must be a finite real number > 0"):
            WaveParams(k, np.array([1.0, 0.0]))
    assert WaveParams(np.float64(2.0), np.array([1.0, 0.0])).k == 2.0
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


def test_scheme_is_its_kind_and_that_kinds_own_constants():
    # Two fields; a kind takes exactly its own constants, its defaults
    # where they are omitted, so that equal linings compare equal.
    assert [f.name for f in dataclasses.fields(SchemeSpec)] == ["kind", "constants"]
    assert SchemeSpec("fsh") == SchemeSpec.finite_sound_hard() == SchemeSpec("fsh", (1, 0.5, 3, 2))
    assert SchemeSpec("fss").constants == (2.5,) and SchemeSpec("sh").constants == ()
    assert SchemeSpec("sh", []) == SchemeSpec.sound_hard()
    assert SchemeSpec.layered(1.5, 2 + 0.3j).constants == (1.5, 2 + 0.3j)
    for kind, constants in [("sh", (1.0,)), ("ss", (2.5,)), ("fss", ()), ("fss", (2.5, 1.0)),
                            ("fsh", (1.0, 0.5, 3.0)), ("layered", (1.0,))]:
        with pytest.raises(DomainError, match=f"'{kind}' takes"):
            SchemeSpec(kind, constants)
    with pytest.raises(DomainError, match="FSH requires finite constants > 0"):
        SchemeSpec("fsh", (1.0, -0.5, 3.0, 2.0))
    with pytest.raises(DomainError, match="q_l != 0"):
        SchemeSpec("layered", (1.0, 0.0))
    # Each lossy law in its defining form, op for op.
    rho = 0.3
    assert SchemeSpec.finite_sound_soft(0.7).layer_params(rho) == (1.0, 1.0 + 1j * 0.7 / rho ** 2)
    assert SchemeSpec.finite_sound_hard(2.0, 0.3, 1.0, 3.0).layer_params(rho) == (
        2.0 * rho ** (2.0 + 2.0 * 0.3), 1.0 + 1j * 3.0)


def test_field_on_circle_rejects_bad_radii_and_region_options():
    rho, thetas = 0.05, np.linspace(0.0, 1.0, 4)
    sol = mie.solve(SchemeSpec.finite_sound_soft(), 2, WAVE2, rho)
    for r in (-1.0, math.nan):
        with pytest.raises(DomainError, match="radius must be finite and nonnegative"):
            mie.field_on_circle(sol, r, thetas)
    with pytest.raises(DomainError, match="radial derivative undefined at the origin"):
        mie.field_on_circle(sol, 0.0, thetas, radial_derivative=True)  # in the core
    with pytest.raises(DomainError, match="scattered_only applies to the exterior region"):
        mie.field_on_circle(sol, 0.75 * rho, thetas, scattered_only=True)  # in the layer


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


@pytest.mark.parametrize("bad", [math.inf, math.nan, 3 + 1j, "2", True, np.True_])
def test_scheme_constants_must_be_finite(bad):
    # Finite real numbers only: a complex or str constant is no TypeError of
    # a comparison, and a bool is no beta = 1.
    for name in ("c", "delta", "a", "b"):
        with pytest.raises(DomainError):
            SchemeSpec.finite_sound_hard(**{name: bad})
    with pytest.raises(DomainError):
        SchemeSpec.finite_sound_soft(beta_coeff=bad)
    assert SchemeSpec.finite_sound_soft(np.float32(2.5)).constants == (2.5,)


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


# ---------------------------------------------------------------------------
# Any dimension N from 2 to DIM_MAX: one solver in lam = (N - 2)/2
# ---------------------------------------------------------------------------
def test_dims_from_2_to_the_cap_solve_and_one_above_it_is_refused():
    assert media.DIM_MAX == 2 + round(2 * specfun.OFFSETS[-1]) == 7
    for dim in range(2, media.DIM_MAX + 1):
        sol = mie.solve(SchemeSpec.finite_sound_hard(), dim, _wave(dim), 0.1)
        assert sol.dim == dim and np.all(np.isfinite(sol.d_n)) and sol.truncation_tail <= 1e-14
    with pytest.raises(DomainError, match="incident direction"):
        _wave(media.DIM_MAX + 1)
    with pytest.raises(DomainError, match=f"dim must be an integer from 2 to {media.DIM_MAX}"):
        mie.solve(SchemeSpec.sound_hard(), media.DIM_MAX + 1, WAVE2, 0.1)


def test_weights_count_the_harmonics_of_each_degree():
    n = np.arange(64)
    assert np.array_equal(mie._weights(2)[:64], np.where(n == 0, 1.0, 2.0))
    assert np.array_equal(mie._weights(3)[:64], 2 * n + 1)
    assert np.array_equal(mie._weights(4)[:64], (n + 1) ** 2)
    assert np.array_equal(mie._weights(5)[:64], (n + 1) * (n + 2) * (2 * n + 3) // 6)


def test_angle_tables_are_normalised_gegenbauer_polynomials():
    # cos n theta in 2D (the recurrence against numpy's cos), numpy's
    # legvander bit for bit in 3D, and mpmath's Gegenbauer polynomials above.
    rows = 224
    angles = np.linspace(0.0, 2 * math.pi, 361)[:-1]
    cosines = np.cos(np.outer(np.arange(rows), angles))
    assert np.max(np.abs(mie._tabulate(2, angles, rows) - cosines)) <= 5e-13
    angles = np.linspace(0.0, math.pi, 100)
    assert np.array_equal(mie._tabulate(3, angles, rows),
                          np.polynomial.legendre.legvander(np.cos(angles), rows - 1).T)
    angles = np.linspace(0.0, math.pi, 13)
    for dim in (4, 5, media.DIM_MAX):
        table, lam = mie._tabulate(dim, angles, rows), mpmath.mpf(dim - 2) / 2
        with mpmath.workdps(30):
            for n in (0, 1, 2, 31, 100, rows - 1):
                exact = [mpmath.gegenbauer(n, lam, mpmath.cos(mpmath.mpf(th)))
                         / mpmath.gegenbauer(n, lam, 1) for th in angles]
                assert np.max(np.abs(table[n] - np.array(exact, dtype=float))) <= 1e-14


@pytest.mark.parametrize("dim", [4, 5])
@pytest.mark.parametrize("kind", ["sh", "fsh", "ss", "fss", "layered"])
def test_coefficients_in_four_and_five_dimensions_match_the_interface_system(dim, kind):
    # d_n against a 40-digit solve of each mode's interface conditions with
    # radial functions r^-lam J_{n+lam}(kr), r^-lam H_{n+lam}(kr), within
    # 1e-12 of max|d_n|, over rho = 1e-1 .. 1e-3 in half decades.  The
    # lossless walls keep every mode's S_n = 1 + 2 d_n on the unit circle.
    scheme = SchemeSpec.layered(1.0, 1.0) if kind == "layered" else SchemeSpec(kind)
    for rho in 10.0 ** -np.arange(1.0, 3.01, 0.5):
        sol = mie.solve(scheme, dim, _wave(dim), rho)
        with mpmath.workdps(40):
            if kind in ("sh", "ss"):
                expected = oracles.wall_solve(dim, 2.0, rho, kind, sol.n_max)
            else:
                core = virtual_core_params(1.0, 1.0, rho, dim)
                _, _, coeffs = oracles.interface_solve(dim, 2.0, rho, scheme.layer_params(rho),
                                                       core, sol.n_max)
                expected = [c[0] for c in coeffs]
            expected = np.array([complex(d) for d in expected])
        assert np.max(np.abs(sol.d_n - expected)) <= 1e-12 * np.max(np.abs(expected)), rho
        if kind in ("sh", "ss"):
            assert np.max(np.abs(np.abs(1 + 2 * sol.d_n) - 1)) <= 1e-14


@pytest.mark.parametrize("dim", [2, 3, 4, 5, media.DIM_MAX])
def test_far_field_constant_is_the_scattered_field_at_large_radius(dim):
    # u^s(r) e^{-ikr} r^{(N-1)/2} -> A at the rate 1/r: its Richardson
    # extrapolation from k r = 8000 and 16000 is A to 1e-7 of max|A|.
    th = np.linspace(0.0, math.pi, 7)
    for scheme in (SchemeSpec.sound_hard(), SchemeSpec.finite_sound_soft()):
        sol = mie.solve(scheme, dim, _wave(dim), 0.4)
        far = mie.far_field(sol, th).amplitude
        near = [mie.field_on_circle(sol, r, th, scattered_only=True)
                * np.exp(-2j * r) * r ** ((dim - 1) / 2) for r in (4000.0, 8000.0)]
        assert np.max(np.abs(2 * near[1] - near[0] - far)) <= 1e-7 * np.max(np.abs(far))


@pytest.mark.parametrize("dim", [4, 5])
def test_leading_asymptotic_in_four_and_five_dimensions(dim):
    # The small-ball term is the series' leading order (criterion 3's 5e-3),
    # its remainder falls like (k rho)^2 relative, and it vanishes at
    # arccos((N - 1)/N).
    wave = _wave(dim)
    rels = []
    for rho in (0.02, 0.01):
        sol = mie.solve(SchemeSpec.sound_hard(), dim, wave, rho)
        a_series = mie.far_field(sol, np.array([math.pi])).amplitude[0]
        a_lead = mie.leading_asymptotic(dim, wave, rho, math.pi)
        rels.append(abs(a_series - a_lead) / abs(a_lead))
    assert rels[1] <= 5e-3 and 3.5 <= rels[0] / rels[1] <= 4.5
    special = mie.leading_asymptotic(dim, wave, 0.01, math.acos((dim - 1) / dim))
    assert abs(special) <= 1e-15 * abs(mie.leading_asymptotic(dim, wave, 0.01, math.pi))
