"""Boundary-integral solver tests: quadrature, oracle agreement, far fields."""

import ast
import cmath
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.linalg import lu_factor, lu_solve

from nearcloak import bie, mie, specfun
from nearcloak.errors import DomainError, RangeError, ResonanceError, ShapeError, TruncationError
from nearcloak.mie import SchemeSpec, WaveParams

import oracles

WAVE = WaveParams(2.0, np.array([1.0, 0.0]))
ANGLES = 2 * math.pi * np.arange(100) / 100


def _turned(curve, angle):
    """The curve turned about the origin by ``angle``: every c_m times
    e^{i angle}, so that a mode is complex and the solve takes one block."""
    turn = cmath.exp(1j * angle)
    return bie.BoundaryCurve(tuple((m, c * turn) for m, c in curve.modes), curve.n_points,
                             name=f"{curve.name} turned")


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


_MP_COS, _MP_SIN = np.frompyfunc(mpmath.cos, 1, 1), np.frompyfunc(mpmath.sin, 1, 1)


def _closed_form_circle(radius, t):
    cos, sin = _MP_COS(t), _MP_SIN(t)
    return (radius * np.stack([cos, sin], axis=-1),
            radius * np.stack([-sin, cos], axis=-1),
            radius * np.stack([-cos, -sin], axis=-1))


def _closed_form_kite(t):
    cos, sin, cos2, sin2 = _MP_COS(t), _MP_SIN(t), _MP_COS(2 * t), _MP_SIN(2 * t)
    return (np.stack([cos + 0.65 * cos2 - 0.65, 1.5 * sin], axis=-1),
            np.stack([-sin - 1.3 * sin2, 1.5 * cos], axis=-1),
            np.stack([-cos - 2.6 * cos2, -1.5 * sin], axis=-1))


@pytest.mark.parametrize("n_points", [8, 64, 2048])
@pytest.mark.parametrize("curve, closed_form", [
    (lambda n: bie.circle(0.37, n), lambda t: _closed_form_circle(0.37, t)),
    (bie.kite, _closed_form_kite)], ids=["circle", "kite"])
def test_mode_tables_match_closed_forms(curve, closed_form, n_points):
    # The closed forms are taken at 30 digits, at the exact nodes
    # (2j + 1) pi/N: cos and sin of t_j rounded to a double are themselves
    # off by up to 1.13e-15 of the kite's max|x'| near t = 2 pi at N = 2048.
    crv = curve(n_points)
    _, pts, d1, d2, _, _ = bie._geometry(crv)
    with mpmath.workdps(30):
        nodes = np.array([(2 * j + 1) * mpmath.pi / n_points for j in range(n_points)],
                         dtype=object)
        refs = [ref.astype(float) for ref in closed_form(nodes)]
    for got, ref in zip((pts, d1, d2), refs):
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_real_mode_tables_are_mirror_symmetric_bit_for_bit():
    # x_(N-1-j) = conj x_j, x'_(N-1-j) = -conj x'_j and
    # x''_(N-1-j) = conj x''_j exactly, with no node on the real axis: the
    # split solve folds the system on the curve's own nodes.
    for crv in (bie.kite(66), bie.circle(0.6, 256)):
        _, pts, d1, d2, normals, jac = crv._node_geometry
        mirror = np.arange(crv.n_points)[::-1]
        for array, sign in ((pts, (1, -1)), (d1, (-1, 1)), (d2, (1, -1)), (normals, (1, -1))):
            assert np.array_equal(array[mirror], array * sign)
        assert np.array_equal(jac[mirror], jac)
        assert np.all(pts[:, 1] != 0.0)


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
    # homogeneous system: the invertible operator maps only 0 to 0, in
    # each block of either path
    for crv in (bie.circle(0.5, 64), _turned(bie.circle(0.5, 64), 0.3)):
        for a, g in bie._system(WAVE.k, crv, np.zeros(crv.n_points, dtype=complex)):
            assert np.max(np.abs(g)) == 0.0
            v = lu_solve(lu_factor(a), np.zeros(g.size, dtype=complex))
            assert np.max(np.abs(v)) == 0.0


def test_curve_builds_its_geometry_once(monkeypatch):
    # The curve builds its node geometry at construction; the solve and the
    # far field read it.
    calls = []
    build = bie._geometry
    monkeypatch.setattr(bie, "_geometry", lambda curve: calls.append(curve) or build(curve))
    crv = bie.kite(64)
    sol = bie.assemble_and_solve(crv, WAVE)
    bie.far_field_from_density(sol, WAVE, ANGLES)
    assert len(calls) == 1
    assert all(not array.flags.writeable for array in crv._node_geometry)
    for got, ref in zip(crv._node_geometry, build(crv)):
        assert np.array_equal(got, ref)


def test_non_finite_system_is_a_domain_error(monkeypatch):
    # The 1-norm that feeds each block's condition estimate is the
    # finiteness check, ahead of scipy's LU, which runs without scanning A;
    # the kernel pass serves both the split and the one-block path.
    kernel_pass = bie._kernel_pass

    def with_nan(*args, **kwargs):
        a, g = kernel_pass(*args, **kwargs)
        a[3, 5] = math.nan
        return a, g

    monkeypatch.setattr(bie, "_kernel_pass", with_nan)
    for crv in (bie.kite(64), _turned(bie.kite(64), 0.3)):
        with pytest.raises(DomainError, match=rf"non-finite Nystrom system for {crv.name} at k=2"):
            bie.assemble_and_solve(crv, WAVE)


@pytest.mark.filterwarnings("error")
def test_overflowing_wavenumber_is_a_domain_error_without_warnings():
    # At k = 1e300 the system is finite, but ||g|| overflows, so the
    # residual is not; on either path that is reported, not returned.
    for crv in (bie.kite(64), _turned(bie.kite(64), 0.3)):
        with pytest.raises(DomainError,
                           match=rf"non-finite trace or residual for {crv.name} at k=1e\+300"):
            bie.assemble_and_solve(crv, WaveParams(1e300, np.array([1.0, 0.0])))


@pytest.mark.filterwarnings("error")
def test_overflowing_far_field_is_a_domain_error_without_warnings():
    huge = np.full(16, 1e308)
    with pytest.raises(DomainError, match="non-finite far field at k=2"):
        bie.far_field_from_cauchy_data(2.0, huge, huge, WAVE, ANGLES)


@pytest.mark.filterwarnings("error")
def test_overflowing_circle_is_a_domain_error_without_warnings():
    # The orientation check scales each |c_m| by the largest, so nothing
    # overflows there, for Python and numpy scalars alike; the overflowing
    # system is reported as such.
    assert bie.BoundaryCurve(((np.int64(1), np.complex128(1e200)),), 64).n_points == 64
    with pytest.raises(DomainError, match=r"non-finite Nystrom system for circle\(r=1e\+200\)"):
        bie.assemble_and_solve(bie.circle(1e200, 64), WAVE)


@pytest.mark.parametrize("n_points", [64, 256, 1024])
@pytest.mark.parametrize("radius", [1e-6, 0.5, 40.0])
def test_circle_just_above_the_low_frequency_floor_matches_the_modal_series(radius,
                                                                            n_points):
    wave = WaveParams(1.01 * bie.MIN_K_DIAMETER / (2.0 * radius), np.array([1.0, 0.0]))
    sol = bie.assemble_and_solve(bie.circle(radius, n_points), wave)
    a_bie = bie.far_field_from_density(sol, wave, ANGLES).amplitude
    a_mie = mie.far_field(mie.solve(SchemeSpec.sound_hard(), 2, wave, radius), ANGLES).amplitude
    assert np.max(np.abs(a_bie - a_mie)) <= 1e-8 * np.max(np.abs(a_mie))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("curve, k", [
    (bie.circle(0.5, 64), 0.99 * bie.MIN_K_DIAMETER), (bie.circle(1e-200, 64), 2.0),
    (bie.kite(64), 1e-200), (_turned(bie.kite(64), 0.3), 5e-9),
], ids=["circle", "tiny_circle", "kite", "turned_kite"])
def test_below_the_low_frequency_floor_is_a_range_error(curve, k):
    # Where k times the diameter is this small, the far field is lost to
    # rounding (the kite's |A| = 3.474 k^{3/2} would be 3.5e-300 at 1e-200).
    with pytest.raises(RangeError, match=rf"k = {k:g} times the diameter .* of "):
        bie.assemble_and_solve(curve, WaveParams(k, np.array([1.0, 0.0])))


def test_solve_holds_two_system_sized_arrays():
    # One block: A = 1/2 I - K and its LU factors, 16 N^2 bytes each; S is
    # never stored and the 1-norm's |A| is freed before the LU copy.  numpy
    # reports its array allocations to tracemalloc, so the peak is
    # deterministic.
    n = 512
    curve = _turned(bie.kite(n), 0.3)
    tracemalloc.start()
    try:
        bie.assemble_and_solve(curve, WAVE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 16 * n ** 2


def test_split_solve_holds_one_system_sized_array():
    # Two blocks of N/2: A_e, A_o and one block's LU factors at a
    # time, 12 N^2 bytes, where one block holds 32 N^2.
    n = 512
    curve = bie.kite(n)
    tracemalloc.start()
    try:
        bie.assemble_and_solve(curve, WAVE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * n ** 2


def test_split_assembly_halves_the_kernel_evaluations(monkeypatch):
    # Each Bessel function runs about N^2/4 times on a mirror-symmetric
    # curve, and about N^2/2 times on a general one.
    n = 512
    sizes = []
    j0 = special.j0
    monkeypatch.setattr(special, "j0", lambda x: sizes.append(np.size(x)) or j0(x))
    bie.assemble_and_solve(bie.kite(n), WAVE)
    assert sum(sizes) <= n ** 2 / 4 + 64 * n
    sizes.clear()
    bie.assemble_and_solve(_turned(bie.kite(n), 0.3), WAVE)
    assert sum(sizes) >= n ** 2 / 2


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


def _system_reference(k_ref):
    """A = 1/2 I - K formed from a reference K: negated, then 1/2 added on
    the diagonal."""
    a_ref = np.negative(k_ref)
    a_ref.flat[:: k_ref.shape[0] + 1] += 0.5
    return a_ref


def _reference_blocks(curve, a, g, bound):
    """(A, g, bound) per block of bie._system, from the full system A v = g
    and an entrywise bound on g's error: one block for a general curve; for
    a mirror-symmetric one, the even and odd folds of A and g, and for both
    the even fold of the bound."""
    if not bie._mirror_symmetric(curve):
        return ((a, g, bound),)
    h = g.size // 2
    rows, mirror = np.arange(h), np.arange(g.size)[:h - 1:-1]  # node j, node N - 1 - j
    a_1, a_r = a[np.ix_(rows, rows)], a[np.ix_(rows, mirror)]
    b = 0.5 * (bound[rows] + bound[mirror])
    return ((a_1 + a_r, 0.5 * (g[rows] + g[mirror]), b),
            (a_1 - a_r, 0.5 * (g[rows] - g[mirror]), b))


@pytest.mark.parametrize("k", [0.5, 2.7, 20.0])
@pytest.mark.parametrize("n_points", [8, 64, 66, 128, 200])
@pytest.mark.parametrize("make", [bie.kite, lambda n: bie.circle(0.6, n)],
                         ids=["kite", "circle"])
def test_system_matrices_match_split_kernel_reference(make, n_points, k):
    # The split blocks of the curve and the one block of the curve turned.
    psi = _random_density(n_points)
    for crv, count in ((make(n_points), 2), (_turned(make(n_points), 0.3), 1)):
        k_ref, s_ref = _split_kernel_matrices(k, *crv._node_geometry)
        # The entries of S agree to 1e-12 of max|S|; carried through the
        # sum, entry i of g = -S psi can be off by 1e-12 sum_j |S_ij| |psi_j|.
        refs = _reference_blocks(crv, _system_reference(k_ref), -(s_ref @ psi),
                                 1e-12 * (np.abs(s_ref) @ np.abs(psi)))
        blocks = bie._system(k, crv, psi)
        assert len(blocks) == len(refs) == count
        for (a, g), (a_ref, g_ref, bound) in zip(blocks, refs):
            assert np.max(np.abs(a - a_ref)) <= 1e-12 * np.max(np.abs(k_ref))
            assert np.all(np.abs(g - g_ref) <= bound)


@pytest.mark.parametrize("n_points", [8, 66, 200, 256])
@pytest.mark.parametrize("make", [bie.kite, lambda n: bie.circle(0.6, n)],
                         ids=["kite", "circle"])
def test_blocked_assembly_equals_dense_evaluation_bit_for_bit(make, n_points):
    # One kernel pass over all N nodes (the turned curve has a complex
    # mode): with one block, a partial last block, and whole blocks, the
    # mirrored entries of A carry the same bits as a dense evaluation of K
    # at (j, i), negated and shifted by 1/2 on the diagonal, signed zeros
    # included.
    crv = _turned(make(n_points), 0.3)
    psi = _random_density(n_points)
    eps = np.finfo(float).eps
    for k in (0.5, 20.0):
        (a, g), = bie._system(k, crv, psi)
        k_ref, s_ref = oracles.dense_system_matrices(k, *crv._node_geometry)
        a_ref = _system_reference(k_ref)
        assert np.array_equal(a, a_ref)
        assert np.array_equal(np.signbit(a.view(float)), np.signbit(a_ref.view(float)))
        # S is never stored, so g = -S psi is compared instead.  Each
        # S_ij |x'_j| psi_j is rounded at a different step (the oracle rounds
        # S_ij |x'_j|, the assembly |x'_j| psi_j), and the two sums add the
        # terms in a different order: a few ulps of sum_j |S_ij| |psi_j| apart.
        assert np.all(np.abs(g + s_ref @ psi) <= 8 * eps * (np.abs(s_ref) @ np.abs(psi)))


@pytest.mark.parametrize("n_points", [8, 66, 200, 256])
@pytest.mark.parametrize("make", [bie.kite, lambda n: bie.circle(0.6, n)],
                         ids=["kite", "circle"])
def test_split_blocks_equal_fold_of_dense_evaluation(make, n_points):
    # A_e, A_o, g_e and g_o are the even and odd folds of the full system on
    # the curve's own (mirror-symmetric) nodes, to a few ulps: the fold adds
    # A[i, j] and A[i, N - 1 - j], and g's sums run in another order.
    crv = make(n_points)
    psi = _random_density(n_points)
    eps = np.finfo(float).eps
    for k in (0.5, 20.0):
        k_ref, s_ref = oracles.dense_system_matrices(k, *crv._node_geometry)
        refs = _reference_blocks(crv, _system_reference(k_ref), -(s_ref @ psi),
                                 8 * eps * (np.abs(s_ref) @ np.abs(psi)))
        blocks = bie._system(k, crv, psi)
        assert len(blocks) == len(refs) == 2
        for (a, g), (a_ref, g_ref, bound) in zip(blocks, refs):
            assert np.max(np.abs(a - a_ref)) <= 8 * eps * np.max(np.abs(a_ref))
            assert np.all(np.abs(g - g_ref) <= bound)


@pytest.mark.parametrize("k", [0.5, 2.0, 7.0])
@pytest.mark.parametrize("n_points", [64, 256, 512])
def test_split_blocks_are_the_one_block_pass_folded_bit_for_bit(n_points, k):
    # The mirror pass reads nodes N - 1 - I off the node table, so A_R is
    # A[I, N - 1 - I] of the pass over all N nodes, and A_e, A_o its folds.
    crv = bie.kite(n_points)
    h = n_points // 2
    rows, mirror = np.arange(h), n_points - 1 - np.arange(h)
    psi = _random_density(n_points)
    a, _ = bie._kernel_pass(k, crv._node_geometry, np.arange(n_points), psi[:, None])
    a_1, a_r = a[np.ix_(rows, rows)], a[np.ix_(rows, mirror)]
    (a_e, _), (a_o, _) = bie._system(k, crv, psi)
    assert np.array_equal(a_e, a_1 + a_r)
    assert np.array_equal(a_o, a_1 - a_r)


def _unchecked_solve(crv, wave):
    """(v, psi) from the solve that assemble_and_solve runs, without the
    checks that follow it: psi as assemble_and_solve forms it, op for op."""
    _, pts, _, _, normals, jac = crv._node_geometry
    psi = -1j * wave.k * (normals @ wave.d) / jac * np.exp(1j * wave.k * (pts @ wave.d))
    solve = bie._solve_circulant if bie._circular(crv) else bie._solve_blocks
    return solve(wave.k, crv, psi)[0], psi


def _check_public_solve(crv, wave, trace, unresolved):
    """assemble_and_solve raises TruncationError where the nodes do not
    resolve the wave, and elsewhere returns ``trace`` bit for bit."""
    if unresolved:
        with pytest.raises(TruncationError, match=rf"{crv.n_points} nodes do not resolve"):
            bie.assemble_and_solve(crv, wave)
    else:
        assert np.array_equal(bie.assemble_and_solve(crv, wave).trace, trace)


@pytest.mark.parametrize("k", [0.5, 2.7, 20.0])
@pytest.mark.parametrize("n_points", [64, 256])
@pytest.mark.parametrize("make", [bie.kite, lambda n: bie.circle(0.6, n)],
                         ids=["kite", "circle"])
def test_split_solve_matches_full_dense_solve(make, n_points, k):
    # The trace from the two blocks against one LU of the full dense system
    # on the same nodes, for two incident directions.  The kite's 64 nodes
    # do not resolve k = 20, so there the solve is compared below the
    # resolution check of assemble_and_solve, which raises.
    crv = make(n_points)
    k_ref, s_ref = oracles.dense_system_matrices(k, *crv._node_geometry)
    lu = lu_factor(_system_reference(k_ref))
    for angle in (0.0, 1.1):
        wave = WaveParams(k, np.array([math.cos(angle), math.sin(angle)]))
        trace, psi = _unchecked_solve(crv, wave)
        v = lu_solve(lu, -(s_ref @ psi))
        assert np.max(np.abs(trace - v)) <= 1e-13 * np.max(np.abs(v))
        _check_public_solve(crv, wave, trace, crv.name == "kite" and (n_points, k) == (64, 20.0))


def _circles(n_points):
    """A circle about the origin (real c_1), one off the origin (a mode-0
    term) and one turned (complex c_1): each solves as a circulant."""
    return (bie.circle(0.6, n_points),
            bie.BoundaryCurve(((0, 0.3 - 0.2j), (1, 0.6)), n_points, name="off-centre"),
            _turned(bie.circle(0.6, n_points), 0.3))


def _no_dense_system(*args):
    raise AssertionError("a circle was solved through _system")


@pytest.mark.parametrize("k", [0.5, 2.7, 20.0])
@pytest.mark.parametrize("n_points", [8, 64, 66, 256])
def test_circulant_solve_matches_full_dense_solve(monkeypatch, n_points, k):
    # The circulant solve against one LU of the full dense system on the
    # same nodes, with no dense assembly.  Eight nodes do not resolve
    # k = 2.7 or 20, so there the solve is compared below the resolution
    # check of assemble_and_solve, which raises.
    monkeypatch.setattr(bie, "_system", _no_dense_system)
    wave = WaveParams(k, np.array([math.cos(1.1), math.sin(1.1)]))
    for crv in _circles(n_points):
        k_ref, s_ref = oracles.dense_system_matrices(k, *crv._node_geometry)
        trace, psi = _unchecked_solve(crv, wave)
        v = lu_solve(lu_factor(_system_reference(k_ref)), -(s_ref @ psi))
        assert np.max(np.abs(trace - v)) <= 1e-13 * np.max(np.abs(v))
        _check_public_solve(crv, wave, trace, n_points == 8 and k > 1)


def test_circulant_solve_evaluates_one_kernel_column(monkeypatch):
    # N arguments of each Bessel routine per circle solve, against N^2/4
    # for the mirror split and N^2/2 for one block.
    n = 512
    sizes = []
    j0 = special.j0
    monkeypatch.setattr(special, "j0", lambda x: sizes.append(np.size(x)) or j0(x))
    for crv in _circles(n):
        sizes.clear()
        bie.assemble_and_solve(crv, WAVE)
        assert sum(sizes) <= n


@pytest.mark.parametrize("k", [0.5, 2.7, 20.0])
def test_circulant_condition_number_is_exact(k):
    # ||a||_1 ||IFFT(1/lambda)||_1 is the 1-norm condition number of the
    # full system, not an estimate of it (nor the larger block's).
    wave = WaveParams(k, np.array([1.0, 0.0]))
    for crv in _circles(128):
        k_ref, _ = oracles.dense_system_matrices(k, *crv._node_geometry)
        cond = np.linalg.cond(_system_reference(k_ref), 1)
        sol = bie.assemble_and_solve(crv, wave)
        assert abs(sol.condition_estimate - cond) <= 1e-8 * cond


def test_residual_and_condition_estimate_are_the_full_systems(monkeypatch):
    # With each block's solution perturbed, so that the residual is far
    # above rounding, the residual rebuilt from the weighted block
    # residuals is ||A v - g||/||g|| of the full system at the returned
    # trace.  The condition estimate is the larger block's: on kite(128)
    # at k = 2 the even block's 1-norm condition number is 26.5 and the
    # odd block's 13.2.
    solve_block = bie._solve_block
    rng = np.random.default_rng(7)

    def perturbed(a, g, curve, k):
        x, cond = solve_block(a, g, curve, k)
        return x + 1e-3 * rng.standard_normal(x.size), cond

    monkeypatch.setattr(bie, "_solve_block", perturbed)
    for crv in (bie.kite(128), _turned(bie.kite(128), 0.3)):
        sol = bie.assemble_and_solve(crv, WAVE)
        k_ref, s_ref = oracles.dense_system_matrices(WAVE.k, *crv._node_geometry)
        g = -(s_ref @ sol.neumann_data)
        full = np.linalg.norm(_system_reference(k_ref) @ sol.trace - g) / np.linalg.norm(g)
        assert abs(sol.residual - full) <= 1e-10 * full
        conds = [np.linalg.cond(a, 1) for a, _ in bie._system(WAVE.k, crv, sol.neumann_data)]
        assert max(conds) / 1.5 <= sol.condition_estimate <= max(conds) * (1 + 1e-12)


@pytest.mark.parametrize("k", [0.5, 2.7, 20.0])
def test_split_and_one_block_solves_give_one_far_field(k):
    # The kite solves as two blocks; turned by 0.3 rad, as one.  Turning the
    # incidence and the observation angles with it gives the same pattern.
    turn, incidence = 0.3, 0.4
    angles = ANGLES[ANGLES + turn <= 2 * math.pi]
    amps = []
    for crv, shift in ((bie.kite(256), 0.0), (_turned(bie.kite(256), turn), turn)):
        wave = WaveParams(k, np.array([math.cos(incidence + shift), math.sin(incidence + shift)]))
        sol = bie.assemble_and_solve(crv, wave)
        amps.append(bie.far_field_from_density(sol, wave, angles + shift).amplitude)
    assert np.max(np.abs(amps[0] - amps[1])) <= 1e-12 * np.max(np.abs(amps[0]))


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


def test_far_field_of_real_density_data_matches_complex():
    # Real trace and flux arrays give the far field of the same values
    # stored as complex.
    crv = bie.circle(0.5, 64)
    real = np.cos(crv.nodes())
    amps = [bie.far_field_from_density(
        bie.DensitySolution(curve=crv, wave=WAVE, trace=v, neumann_data=v[::-1].copy()),
        WAVE, ANGLES).amplitude for v in (real, real.astype(complex))]
    assert np.array_equal(amps[0], amps[1])


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
    for u, dudn in ((np.zeros(16), np.zeros(17)), (np.array([]), np.array([]))):
        with pytest.raises(ShapeError):
            bie.far_field_from_cauchy_data(2.0, u, dudn, WAVE, ANGLES)


FAR_FIELDS = [
    lambda a: mie.far_field(mie.solve(SchemeSpec.sound_hard(), 2, WAVE, 0.5), a),
    lambda a: bie.far_field_from_density(
        bie.assemble_and_solve(bie.circle(0.5, 64), WAVE), WAVE, a),
    lambda a: bie.far_field_from_cauchy_data(2.0, np.zeros(16), np.zeros(16), WAVE, a)]


@pytest.mark.parametrize("far_field", FAR_FIELDS, ids=["mie", "density", "cauchy"])
def test_far_field_rejects_nan_angles(far_field):
    with pytest.raises(DomainError, match="finite"):
        far_field(np.array([0.0, math.nan]))


@pytest.mark.parametrize("far_field", FAR_FIELDS, ids=["mie", "density", "cauchy"])
def test_far_field_rejects_a_2d_angle_array(far_field):
    # The angles are checked by one rule before the sum, so no entry fails
    # with numpy's broadcasting error instead.
    with pytest.raises(DomainError, match="1-d array"):
        far_field(np.array([[0.0, 1.0], [2.0, 3.0]]))


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
    # So are j_{1,1} and j_{2,1}, whose modes are both even and odd.
    for order in (0, 1, 2):
        k_res = special.jn_zeros(order, 1)[0]
        with pytest.raises(ResonanceError):
            bie.assemble_and_solve(bie.circle(1.0, 128),
                                   WaveParams(k_res, np.array([1.0, 0.0])))
        # slightly detuned wavenumbers are fine
        bie.assemble_and_solve(bie.circle(1.0, 128),
                               WaveParams(k_res + 0.05, np.array([1.0, 0.0])))


@pytest.mark.parametrize("n_points", [64, 256])
@pytest.mark.parametrize("detuning", [1e-3, 1e-5, 1e-7])
def test_near_resonant_far_field_error_scales_with_the_condition_number(detuning, n_points):
    # Just above k = j_{0,1} on the unit circle every path's far field is
    # off the modal series by at most about 4.6e-16 times the condition
    # number, relative to max|A|: the circulant, the mirror split (a zero
    # mode 3 keeps the circle but leaves the circulant path) and one block.
    wave = WaveParams(special.jn_zeros(0, 1)[0] + detuning, np.array([1.0, 0.0]))
    a_mie = mie.far_field(mie.solve(SchemeSpec.sound_hard(), 2, wave, 1.0), ANGLES).amplitude
    for c_1 in (None, 1.0, cmath.exp(0.3j)):
        crv = (bie.circle(1.0, n_points) if c_1 is None
               else bie.BoundaryCurve(((1, c_1), (3, 0.0)), n_points))
        sol = bie.assemble_and_solve(crv, wave)
        a_bie = bie.far_field_from_density(sol, wave, ANGLES).amplitude
        bound = 1e-15 * sol.condition_estimate * np.max(np.abs(a_mie))
        assert np.max(np.abs(a_bie - a_mie)) <= bound, (c_1, sol.condition_estimate)


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


@pytest.mark.filterwarnings("error")
def test_clockwise_curves_are_rejected():
    # Run clockwise, the circle would solve with the inward normal and a
    # far field 100% off the sound-hard series.
    with pytest.raises(DomainError, match="counterclockwise"):
        bie.BoundaryCurve(((-1, 0.5),), 256)
    # At any scale: |c_m|^2 underflows to 0 at 1e-200 and overflows at 1e200.
    for scale in (1.0, 1e-200, 1e200):
        modes = tuple((m, scale * c) for m, c in bie.kite(64).modes)
        assert bie.BoundaryCurve(modes, 64).n_points == 64
        with pytest.raises(DomainError, match="counterclockwise"):
            bie.BoundaryCurve(tuple((-m, c) for m, c in modes), 64)
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


def test_density_solution_trace_must_match_the_node_count():
    crv = bie.kite(64)
    with pytest.raises(ShapeError, match="node count"):
        bie.DensitySolution(crv, WAVE, np.zeros(63, complex), np.zeros(64, complex))


def test_trace_tail_is_the_trace_spectrum_above_a_quarter_of_the_nodes():
    # tau = max |v_m| over |m| >= N/4 of the trace's DFT, over max |v_m|.
    # Resolved solves read far below TRACE_TAIL_THRESHOLD: the golden
    # 64-node kite 7.6e-6, criterion 9's 256-node kite and the default
    # circle at rounding.
    for crv, below in ((bie.kite(64), 1e-5), (bie.kite(256), 1e-13), (bie.circle(0.5), 1e-13)):
        sol = bie.assemble_and_solve(crv, WAVE)
        n = crv.n_points
        spectrum = np.abs(np.fft.fft(sol.trace))
        band = np.abs(np.fft.fftfreq(n, 1.0 / n)) >= n / 4
        assert sol.trace_tail == spectrum[band].max() / spectrum.max()
        assert sol.trace_tail < below


@pytest.mark.parametrize("k", [40.0, 60.0])
def test_nodes_that_miss_the_wave_raise_truncation_error(k):
    # 256 kite nodes resolve k = 20 (tau = 1.1e-4, far field within 2e-15
    # of 2,048 nodes) but not k = 40 (tau = 0.69, 8 % off) or k = 60
    # (tau = 1.0, 39 % off).
    wave = WaveParams(k, np.array([1.0, 0.0]))
    with pytest.raises(TruncationError, match=rf"256 nodes do not resolve kite at k={k:g}: "
                                               r"the trace's DFT tail is [\d.]+, above 0\.1"):
        bie.assemble_and_solve(bie.kite(256), wave)
    sol = bie.assemble_and_solve(bie.kite(256), WaveParams(20.0, np.array([1.0, 0.0])))
    assert 1e-5 < sol.trace_tail < 1e-3


def test_resolution_check_on_circles_passes_only_accurate_solves():
    # tau over-reads on circles, whose circulant solve is exact mode by mode
    # up to |m| = N/2, but every circle solve it passes is accurate, and
    # every inaccurate one raises (the worst that passes here is 3.0e-8).
    # The band |m| >= 3N/8 would pass radius 0.5 at N = 64, k = 40 (a band
    # tail of 0.061) 13 % off.  Errors are relative to the modal max|A|.
    cases = 0
    for radius in (0.5, 1.0):
        for n_points in (32, 64, 128, 256):
            crv = bie.circle(radius, n_points)
            for k in (1, 2, 5, 10, 20, 30, 40, 60, 80, 100, 120, 150):
                if k * radius > 0.75 * n_points:
                    continue
                cases += 1
                wave = WaveParams(float(k), np.array([1.0, 0.0]))
                exact = mie.far_field(mie.solve(SchemeSpec.sound_hard(), 2, wave, radius),
                                      ANGLES).amplitude

                def error(solution):
                    far = bie.far_field_from_density(solution, wave, ANGLES).amplitude
                    return np.max(np.abs(far - exact)) / np.max(np.abs(exact))

                trace, psi = _unchecked_solve(crv, wave)
                if error(bie.DensitySolution(crv, wave, trace, psi)) > 1e-5:
                    with pytest.raises(TruncationError):
                        bie.assemble_and_solve(crv, wave)
                try:
                    solution = bie.assemble_and_solve(crv, wave)
                except TruncationError:
                    continue
                assert error(solution) <= 1e-7, (radius, n_points, k)
    assert cases == 73


def test_every_entry_states_the_one_wave_rule():
    # WaveParams.require_dim: one check and one message for every solver.
    wave2 = WaveParams(2.0, np.array([1.0, 0.0]))
    wave3 = WaveParams(2.0, np.array([0.0, 0.0, 1.0]))
    entries = [
        (2, 3, lambda: bie.assemble_and_solve(bie.circle(0.5, 64), wave3)),
        (2, 3, lambda: bie.far_field_from_cauchy_data(2.0, np.zeros(16), np.zeros(16), wave3,
                                                      ANGLES)),
        (2, 3, lambda: mie.solve(SchemeSpec.sound_hard(), 2, wave3, 0.3)),
        (2, 3, lambda: mie.leading_asymptotic(2, wave3, 0.1, 0.0)),
        (3, 2, lambda: mie.solve(SchemeSpec.sound_hard(), 3, wave2, 0.3)),
        (3, 2, lambda: mie.leading_asymptotic(3, wave2, 0.1, 0.0)),
    ]
    for dim, size, entry in entries:
        with pytest.raises(DomainError) as raised:
            entry()
        assert str(raised.value) == f"a {dim}D solve needs a {dim}-vector direction, got {size}"
