"""Boundary-integral solver tests: quadrature, oracle agreement, far fields."""

import ast
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.linalg import lu_factor, lu_solve

from nearcloak import bie, mie, specfun
from nearcloak.errors import DomainError, ResonanceError, ShapeError
from nearcloak.mie import SchemeSpec, WaveParams

import oracles

WAVE = WaveParams(2.0, np.array([1.0, 0.0]))
ANGLES = 2 * math.pi * np.arange(100) / 100


# ---------------------------------------------------------------------------
# Quadrature building blocks
# ---------------------------------------------------------------------------
def test_log_weights_annihilate_constants():
    # int_0^{2pi} log(4 sin^2((t-s)/2)) ds = 0
    r = bie.log_weights(32)
    assert abs(np.sum(r)) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 7, 20])
def test_log_weights_exact_on_trig_polynomials(m):
    # int_0^{2pi} log(4 sin^2((t-s)/2)) cos(m s) ds = -(2 pi/m) cos(m t)
    n_half = 32
    t = 2 * math.pi * np.arange(2 * n_half) / (2 * n_half)
    r = bie.log_weights(n_half)
    idx = np.abs(np.arange(2 * n_half)[:, None] - np.arange(2 * n_half)[None, :])
    quad = (r[idx] * np.cos(m * t)[None, :]).sum(axis=1)
    assert np.max(np.abs(quad + (2 * math.pi / m) * np.cos(m * t))) < 1e-12


def test_log_weights_match_mpmath_reference():
    # R_m from its defining sum at 25 digits, over every m.
    n_half = 64
    with mpmath.workdps(25):
        ref = [float(-(2 * mpmath.pi / n_half)
                     * mpmath.fsum(mpmath.cos(p * m * mpmath.pi / n_half) / p
                                   for p in range(1, n_half))
                     - (mpmath.pi / n_half ** 2) * (-1) ** m)
               for m in range(2 * n_half)]
    ref = np.array(ref)
    assert np.max(np.abs(bie.log_weights(n_half) - ref)) <= 1e-15 * np.max(np.abs(ref))


def _closed_form_circle(radius, t):
    return (radius * np.stack([np.cos(t), np.sin(t)], axis=-1),
            radius * np.stack([-np.sin(t), np.cos(t)], axis=-1),
            radius * np.stack([-np.cos(t), -np.sin(t)], axis=-1))


def _closed_form_kite(t):
    return (np.stack([np.cos(t) + 0.65 * np.cos(2 * t) - 0.65, 1.5 * np.sin(t)], axis=-1),
            np.stack([-np.sin(t) - 1.3 * np.sin(2 * t), 1.5 * np.cos(t)], axis=-1),
            np.stack([-np.cos(t) - 2.6 * np.cos(2 * t), -1.5 * np.sin(t)], axis=-1))


@pytest.mark.parametrize("n_points", [8, 64, 2048])
@pytest.mark.parametrize("curve, closed_form", [
    (lambda n: bie.circle(0.37, n), lambda t: _closed_form_circle(0.37, t)),
    (bie.kite, _closed_form_kite)], ids=["circle", "kite"])
def test_mode_tables_match_closed_forms(curve, closed_form, n_points):
    crv = curve(n_points)
    t, pts, d1, d2, _, _ = bie._geometry(crv)
    for got, ref in zip((pts, d1, d2), closed_form(t)):
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_laplace_double_layer_gauss_identity():
    # The Laplace double-layer kernel built from the same geometry and
    # diagonal-limit machinery must reproduce the interior Gauss identity:
    # (1/2 I - K_0) 1 = 1, i.e. the row sums of K_0 equal -1/2.
    for curve in (bie.circle(0.8, 64), bie.kite(128)):
        t, pts, d1, d2, normals, jac = bie._geometry(curve)
        diff = pts[:, None, :] - pts[None, :, :]
        r2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
        np.fill_diagonal(r2, 1.0)
        b = diff[..., 0] * normals[None, :, 0] + diff[..., 1] * normals[None, :, 1]
        kernel = b / (2 * math.pi * r2)
        np.fill_diagonal(kernel, (d2[:, 0] * d1[:, 1] - d2[:, 1] * d1[:, 0])
                         / (4 * math.pi * jac ** 2))
        n_half = curve.n_points // 2
        row_sums = (math.pi / n_half) * kernel.sum(axis=1)
        assert np.max(np.abs(row_sums + 0.5)) < 1e-10


# ---------------------------------------------------------------------------
# Solver: oracle agreement against the modal series
# ---------------------------------------------------------------------------
def _scipy_special_names(module) -> set[str]:
    """Names a module takes from scipy.special, as ``special.<name>`` or imports."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "special"):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.special":
            names.update(alias.name for alias in node.names)
    return names


def test_oracle_shares_no_special_function_with_modal_solver():
    # The BIE oracle cross-validates the modal solver only while the two
    # draw their Bessel functions from different routines.
    bie_names = _scipy_special_names(bie)
    assert bie_names, "no scipy.special use found in bie"
    assert bie_names.isdisjoint(_scipy_special_names(specfun))


def test_circle_trace_matches_modal_series():
    rho = 0.5
    crv = bie.circle(rho, 256)
    sol = bie.assemble_and_solve(crv, WAVE)
    assert sol.residual <= 1e-12
    ref = mie.field_on_circle(mie.solve(SchemeSpec.sound_hard(), 2, WAVE, rho), rho,
                              crv.nodes(), scattered_only=True)
    err = np.max(np.abs(sol.trace - ref)) / np.max(np.abs(ref))
    assert err <= 1e-8


def test_zero_incident_gives_zero_density():
    # homogeneous system: the invertible operator maps only 0 to 0
    crv = bie.circle(0.5, 64)
    kmat, _ = bie._system_matrices(WAVE.k, *bie._geometry(crv), np.zeros(crv.n_points))
    a = 0.5 * np.eye(crv.n_points) - kmat
    v = lu_solve(lu_factor(a), np.zeros(crv.n_points, dtype=complex))
    assert np.max(np.abs(v)) == 0.0


def test_solve_holds_two_system_sized_arrays():
    # A = 1/2 I - K and its LU factors, 16 N^2 bytes each; S is never stored
    # and the 1-norm's |A| is freed before the LU copy.  numpy reports its
    # array allocations to tracemalloc, so the peak is deterministic.
    n = 512
    curve = bie.kite(n)
    tracemalloc.start()
    try:
        bie.assemble_and_solve(curve, WAVE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 16 * n ** 2


def _split_kernel_matrices(k, t, pts, d1, d2, normals, jac):
    """Reference assembly: each kernel split as k1 log(4 sin^2) + k2 with
    general-order (Amos) J and H^(1), combined as R_|i-j| k1 + (pi/N) k2."""
    n_half = t.size // 2
    diff = pts[:, None, :] - pts[None, :, :]
    r = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(r, 1.0)
    kr = k * r
    b = diff[..., 0] * normals[None, :, 0] + diff[..., 1] * normals[None, :, 1]
    s = 4.0 * np.sin((t[:, None] - t[None, :]) / 2.0) ** 2
    np.fill_diagonal(s, 1.0)
    logsin = np.log(s)

    m1 = -(k / (4 * math.pi)) * special.jv(1, kr) * b / r
    m2 = 0.25j * k * special.hankel1(1, kr) * b / r - m1 * logsin
    np.fill_diagonal(m1, 0.0)
    np.fill_diagonal(m2, (d2[:, 0] * d1[:, 1] - d2[:, 1] * d1[:, 0])
                     / (4 * math.pi * jac ** 2))
    s1 = -(1 / (4 * math.pi)) * special.jv(0, kr) * jac[None, :]
    s2 = 0.25j * special.hankel1(0, kr) * jac[None, :] - s1 * logsin
    np.fill_diagonal(s1, -(1 / (4 * math.pi)) * jac)
    np.fill_diagonal(s2, jac * (0.25j - (np.log(0.5 * k * jac) + np.euler_gamma)
                                / (2 * math.pi)))
    idx = np.abs(np.arange(t.size)[:, None] - np.arange(t.size)[None, :])
    rw = bie.log_weights(n_half)
    return (rw[idx] * m1 + (math.pi / n_half) * m2,
            rw[idx] * s1 + (math.pi / n_half) * s2)


def _random_density(n_points):
    rng = np.random.default_rng(n_points)
    return rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)


@pytest.mark.parametrize("k", [0.5, 2.7, 20.0])
@pytest.mark.parametrize("n_points", [8, 64, 66, 128, 200])
@pytest.mark.parametrize("make", [bie.kite, lambda n: bie.circle(0.6, n)],
                         ids=["kite", "circle"])
def test_system_matrices_match_split_kernel_reference(make, n_points, k):
    geometry = bie._geometry(make(n_points))
    psi = _random_density(n_points)
    kmat, s_psi = bie._system_matrices(k, *geometry, psi)
    k_ref, s_ref = _split_kernel_matrices(k, *geometry)
    assert np.max(np.abs(kmat - k_ref)) <= 1e-12 * np.max(np.abs(k_ref))
    # The entries of S agree to 1e-12 of max|S|; carried through the sum,
    # entry i of S psi can be off by 1e-12 sum_j |S_ij| |psi_j| at most.
    assert np.all(np.abs(s_psi - s_ref @ psi) <= 1e-12 * (np.abs(s_ref) @ np.abs(psi)))


@pytest.mark.parametrize("n_points", [8, 66, 200, 256])
@pytest.mark.parametrize("make", [bie.kite, lambda n: bie.circle(0.6, n)],
                         ids=["kite", "circle"])
def test_blocked_assembly_equals_dense_evaluation_bit_for_bit(make, n_points):
    # One block, a partial last block, and whole blocks: the mirrored
    # entries of K carry the same bits as a dense evaluation at (j, i).
    geometry = bie._geometry(make(n_points))
    psi = _random_density(n_points)
    eps = np.finfo(float).eps
    for k in (0.5, 20.0):
        kmat, s_psi = bie._system_matrices(k, *geometry, psi)
        k_ref, s_ref = oracles.dense_system_matrices(k, *geometry)
        assert np.array_equal(kmat, k_ref)
        assert np.array_equal(np.signbit(kmat.view(float)), np.signbit(k_ref.view(float)))
        # S is never stored, so S psi is compared instead.  Each S_ij |x'_j|
        # psi_j is rounded at a different step (the oracle rounds S_ij |x'_j|,
        # the assembly |x'_j| psi_j), and the two sums add the terms in a
        # different order: a few ulps of sum_j |S_ij| |psi_j| apart.
        assert np.all(np.abs(s_psi - s_ref @ psi) <= 8 * eps * (np.abs(s_ref) @ np.abs(psi)))


def test_kite_self_convergence():
    a256 = bie.far_field_from_density(
        bie.assemble_and_solve(bie.kite(256), WAVE), WAVE, ANGLES).amplitude
    a512 = bie.far_field_from_density(
        bie.assemble_and_solve(bie.kite(512), WAVE), WAVE, ANGLES).amplitude
    assert np.max(np.abs(a256 - a512)) <= 1e-9


def test_spectral_convergence_on_kite():
    ref = bie.far_field_from_density(
        bie.assemble_and_solve(bie.kite(512), WAVE), WAVE, ANGLES).amplitude
    errs = []
    for n in (32, 64, 128):
        amp = bie.far_field_from_density(
            bie.assemble_and_solve(bie.kite(n), WAVE), WAVE, ANGLES).amplitude
        errs.append(np.max(np.abs(amp - ref)))
    # faster than any fixed power: each doubling cuts the error by >= 1e2
    assert errs[1] <= errs[0] * 1e-2
    assert errs[2] <= errs[1] * 1e-2


def test_far_field_matches_modal_series_on_circles():
    for rho in (0.5, 0.1, 0.01):
        for k in (1.0, 2.0, 5.0):
            wave = WaveParams(k, np.array([1.0, 0.0]))
            sol = bie.assemble_and_solve(bie.circle(rho, 256), wave)
            a_bie = bie.far_field_from_density(sol, wave, ANGLES).amplitude
            modal = mie.solve(SchemeSpec.sound_hard(), 2, wave, rho)
            a_mie = mie.far_field(modal, ANGLES).amplitude
            err = np.max(np.abs(a_bie - a_mie)) / np.max(np.abs(a_mie))
            assert err <= 1e-6, (rho, k, err)


def test_far_field_rotation_invariance():
    # A depends on the relative angle only: rotating d and the observation
    # grid together leaves the pattern unchanged.
    rot = 0.7
    subset = ANGLES[:50]  # keep the rotated grid inside [0, 2pi)
    sol0 = bie.assemble_and_solve(bie.circle(0.4, 128), WAVE)
    a0 = bie.far_field_from_density(sol0, WAVE, subset).amplitude
    wave_r = WaveParams(2.0, np.array([math.cos(rot), math.sin(rot)]))
    sol_r = bie.assemble_and_solve(bie.circle(0.4, 128), wave_r)
    a_r = bie.far_field_from_density(sol_r, wave_r, subset + rot).amplitude
    assert np.max(np.abs(a0 - a_r)) <= 1e-12 * np.max(np.abs(a0))


def test_zero_density_and_no_incident_term_gives_zero_far_field():
    crv = bie.circle(0.5, 64)
    sol = bie.assemble_and_solve(crv, WAVE)
    # Zero Cauchy data on a circle, and a density record whose trace and
    # stored flux are both zero, give an exactly zero far field.
    zero = bie.DensitySolution(curve=crv, wave=WAVE, trace=np.zeros_like(sol.trace),
                               neumann_data=np.zeros_like(sol.neumann_data))
    amp = bie.far_field_from_cauchy_data(2.0, np.zeros(64), np.zeros(64),
                                         WAVE, ANGLES).amplitude
    assert np.max(np.abs(amp)) == 0.0
    amp = bie.far_field_from_density(zero, WAVE, ANGLES).amplitude
    assert np.max(np.abs(amp)) == 0.0


def test_plane_wave_only_term_matches_disk_closed_form():
    # With trace = 0 the far-field formula reduces to
    # gamma int e^{-ik xhat.y} d(e^{ik d.y})/dnu ds
    #   = gamma k^2 (d.xhat - 1) int_{B_rho} e^{ik(d-xhat).y} dy,
    # and the disk integral is 2 pi rho J_1(q rho)/q with q = k|d - xhat|.
    rho = 0.37
    crv = bie.circle(rho, 256)
    sol = bie.assemble_and_solve(crv, WAVE)
    zeroed = bie.DensitySolution(curve=crv, wave=WAVE, trace=np.zeros_like(sol.trace),
                                 neumann_data=sol.neumann_data)
    amp = bie.far_field_from_density(zeroed, WAVE, ANGLES).amplitude
    gamma = np.exp(1j * math.pi / 4) / math.sqrt(8 * math.pi * WAVE.k)
    oracle = np.empty_like(amp)
    for i, th in enumerate(ANGLES):
        xhat = np.array([math.cos(th), math.sin(th)])
        q = WAVE.k * np.linalg.norm(WAVE.d - xhat)
        disk = math.pi * rho ** 2 if q == 0 else 2 * math.pi * rho * special.jv(1, q * rho) / q
        oracle[i] = gamma * WAVE.k ** 2 * (WAVE.d @ xhat - 1.0) * disk
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(amp - oracle)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Far field from Cauchy data
# ---------------------------------------------------------------------------
def test_cauchy_data_reproduces_modal_far_field():
    rho, r3 = 0.5, 4.0
    msol = mie.solve(SchemeSpec.sound_hard(), 2, WAVE, rho)
    phis = 2 * math.pi * np.arange(128) / 128
    u, dudr = mie.scattered_cauchy_data(msol, r3, phis)
    amp = bie.far_field_from_cauchy_data(r3, u, dudr, WAVE, ANGLES).amplitude
    ref = mie.far_field(msol, ANGLES).amplitude
    assert np.max(np.abs(amp - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_cauchy_data_point_source_far_field():
    # Radiating source G(x - x0): far field gamma e^{-ik xhat.x0}.
    x0 = np.array([0.3, -0.2])
    r3, m, k = 2.0, 256, WAVE.k
    phis = 2 * math.pi * np.arange(m) / m
    ys = r3 * np.stack([np.cos(phis), np.sin(phis)], axis=1)
    d = ys - x0[None, :]
    dist = np.hypot(d[:, 0], d[:, 1])
    u = 0.25j * special.hankel1(0, k * dist)
    radial = (d[:, 0] * np.cos(phis) + d[:, 1] * np.sin(phis)) / dist
    dudr = -0.25j * k * special.hankel1(1, k * dist) * radial
    amp = bie.far_field_from_cauchy_data(r3, u, dudr, WAVE, ANGLES).amplitude
    gamma = np.exp(1j * math.pi / 4) / math.sqrt(8 * math.pi * k)
    xhat = np.stack([np.cos(ANGLES), np.sin(ANGLES)], axis=1)
    oracle = gamma * np.exp(-1j * k * xhat @ x0)
    assert np.max(np.abs(amp - oracle)) <= 1e-8 * np.max(np.abs(oracle))


def test_cauchy_data_shape_error():
    with pytest.raises(ShapeError):
        bie.far_field_from_cauchy_data(2.0, np.zeros(16), np.zeros(17), WAVE, ANGLES)


@pytest.mark.parametrize("far_field", [
    lambda a: mie.far_field(mie.solve(SchemeSpec.sound_hard(), 2, WAVE, 0.5), a),
    lambda a: bie.far_field_from_density(
        bie.assemble_and_solve(bie.circle(0.5, 64), WAVE), WAVE, a),
    lambda a: bie.far_field_from_cauchy_data(2.0, np.zeros(16), np.zeros(16), WAVE, a)],
    ids=["mie", "density", "cauchy"])
def test_far_field_rejects_nan_angles(far_field):
    with pytest.raises(DomainError, match="finite"):
        far_field(np.array([0.0, math.nan]))


def test_cauchy_data_far_field_needs_a_2d_wave():
    # Both 2D entries raise the same error for a 3-vector direction.
    wave3 = WaveParams(2.0, np.array([1.0, 0.0, 0.0]))
    for solve in (lambda: bie.assemble_and_solve(bie.circle(0.5, 64), wave3),
                  lambda: bie.far_field_from_cauchy_data(
                      2.0, np.zeros(16), np.zeros(16), wave3, ANGLES)):
        with pytest.raises(DomainError, match="2-vector direction"):
            solve()


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0])
def test_cauchy_data_radius_must_be_finite_and_positive(radius):
    with pytest.raises(DomainError, match="finite and positive"):
        bie.far_field_from_cauchy_data(radius, np.zeros(16), np.zeros(16), WAVE, ANGLES)


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------
def test_interior_resonance_detected():
    # The direct second-kind equation degenerates at interior Dirichlet
    # eigenvalues; on the unit circle the first is k = j_{0,1}.
    k_res = special.jn_zeros(0, 1)[0]
    with pytest.raises(ResonanceError):
        bie.assemble_and_solve(bie.circle(1.0, 128),
                               WaveParams(k_res, np.array([1.0, 0.0])))
    # slightly detuned wavenumbers are fine
    bie.assemble_and_solve(bie.circle(1.0, 128),
                           WaveParams(k_res + 0.05, np.array([1.0, 0.0])))


def test_interior_neumann_eigenvalue_is_not_resonant():
    # j'_{1,1} is an interior Neumann eigenvalue of the unit circle but lies
    # below j_{0,1}, the smallest zero of any J_n, so the direct equation
    # stays well conditioned there.
    k = special.jnp_zeros(1, 1)[0]
    assert k < special.jn_zeros(0, 1)[0]
    sol = bie.assemble_and_solve(bie.circle(1.0, 128),
                                 WaveParams(k, np.array([1.0, 0.0])))
    assert sol.condition_estimate < 100


def test_curve_validation():
    with pytest.raises(DomainError):
        bie.circle(0.5, 63)  # odd node count
    with pytest.raises(DomainError):
        bie.circle(-1.0)
    with pytest.raises(DomainError):
        bie.circle(0.5, 4096)  # beyond the dense-solver cap
    for n_points in (64.0, "64"):
        with pytest.raises(DomainError, match="even integer"):
            bie.circle(0.5, n_points)
    assert bie.circle(0.5, np.int64(64)).n_points == 64
    with pytest.raises(DomainError, match="not regular"):
        bie.BoundaryCurve(((0, 1.0 + 0.5j),), 64)
    for bad in (math.nan, complex(0.0, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            bie.BoundaryCurve(((1, 1.0), (2, bad)), 64)
    with pytest.raises(DomainError):
        bie.assemble_and_solve(bie.circle(0.5, 64),
                               WaveParams(2.0, np.array([1.0, 0.0, 0.0])))


def test_clockwise_curves_are_rejected():
    # Run clockwise, the circle would solve with the inward normal and a
    # far field 100% off the sound-hard series.
    with pytest.raises(DomainError, match="counterclockwise"):
        bie.BoundaryCurve(((-1, 0.5),), 256)
    with pytest.raises(DomainError, match="counterclockwise"):
        bie.BoundaryCurve(tuple((-m, c) for m, c in bie.kite(64).modes), 64)
    # x = 0.1 e^{-it} runs clockwise, but a repeated m would hide that
    # from the sum over the table.
    with pytest.raises(DomainError, match="repeat"):
        bie.BoundaryCurve(((1, 0.5), (1, -0.5), (-1, 0.1)), 64)


def test_far_field_needs_the_solved_wave():
    sol = bie.assemble_and_solve(bie.kite(64), WAVE)
    for wave in (WaveParams(3.0, np.array([1.0, 0.0])), WaveParams(2.0, np.array([0.0, 1.0]))):
        with pytest.raises(DomainError, match="solved"):
            bie.far_field_from_density(sol, wave, ANGLES)
    same = WaveParams(2.0, np.array([1.0, 0.0]))
    assert np.array_equal(bie.far_field_from_density(sol, same, ANGLES).amplitude,
                          bie.far_field_from_density(sol, WAVE, ANGLES).amplitude)
