"""Transformation-acoustics tests: maps, Jacobians, push-forwards."""

import itertools
import math

import numpy as np
import pytest

from nearcloak import analysis, bie, media, mie
from nearcloak.errors import DomainError, RangeError
from nearcloak.media import RadialMapSpec
from nearcloak.mie import SchemeSpec, WaveParams

import oracles
from oracles import JacobianData, MediumSpec, OrientationError

SPEC = RadialMapSpec(rho=0.5, r1=2.0, r2=3.0)


# ---------------------------------------------------------------------------
# Radial blow-up
# ---------------------------------------------------------------------------
def test_blowup_endpoints():
    x = np.array([0.5, 0.0])
    assert np.linalg.norm(oracles.radial_blowup(SPEC, x)) == pytest.approx(2.0)
    x = np.array([0.0, 3.0])
    assert np.allclose(oracles.radial_blowup(SPEC, x), x)  # identity on |x| = R2


def test_blowup_midpoint():
    # Affine radial rule: |x| = 1.75 (midpoint of [0.5, 3]) -> 2.5.
    x = 1.75 * np.array([math.cos(0.3), math.sin(0.3)])
    y = oracles.radial_blowup(SPEC, x)
    assert np.linalg.norm(y) == pytest.approx(2.5, rel=1e-14)


def test_blowup_domain_errors():
    with pytest.raises(DomainError):
        oracles.radial_blowup(SPEC, np.array([0.3, 0.0]))
    with pytest.raises(DomainError):
        oracles.radial_blowup(SPEC, np.array([3.5, 0.0]))
    with pytest.raises(DomainError):
        oracles.radial_blowup_inverse(SPEC, np.array([1.0, 0.0]))


def test_blowup_monotone_bijection():
    rng = np.random.default_rng(0)
    radii = np.sort(rng.uniform(SPEC.rho, SPEC.r2, 50))
    images = oracles.forward_radius(SPEC, radii)
    assert np.all(np.diff(images) > 0)
    assert np.min(images) >= SPEC.r1 - 1e-12 and np.max(images) <= SPEC.r2 + 1e-12
    for _ in range(50):
        x = rng.uniform(-1, 1, 2)
        x *= rng.uniform(SPEC.rho, SPEC.r2) / np.linalg.norm(x)
        y = oracles.radial_blowup(SPEC, x)
        back = oracles.radial_blowup_inverse(SPEC, y)
        assert np.max(np.abs(back - x)) <= 1e-12 * np.linalg.norm(x)


# ---------------------------------------------------------------------------
# Push-forward
# ---------------------------------------------------------------------------
def test_push_forward_identity():
    med = MediumSpec(np.array([[2.0, 0.3], [0.3, 1.0]]), 1.5 + 0.2j)
    out = oracles.push_forward(med, JacobianData(np.eye(2), 1.0))
    assert np.allclose(out.sigma, med.sigma)
    assert out.q == med.q


def test_push_forward_2d_dilation_conformal():
    med = MediumSpec(np.array([[2.0, 0.3], [0.3, 1.0]]), 1.0 + 0j)
    out = oracles.push_forward(med, JacobianData(2.0 * np.eye(2), 4.0))
    assert np.allclose(out.sigma, med.sigma)  # sigma invariant in 2D
    assert out.q == pytest.approx(0.25)


def test_push_forward_rejects_orientation_reversal():
    with pytest.raises(OrientationError):
        JacobianData(np.diag([1.0, -1.0]), -1.0)


def _fd_jacobian(spec, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((oracles.radial_blowup(spec, x + e)
                     - oracles.radial_blowup(spec, x - e)) / (2 * h))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("dim", [2, 3])
def test_radial_jacobian_matches_finite_differences(dim):
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.normal(size=dim)
        x *= rng.uniform(SPEC.rho * 1.05, SPEC.r2 * 0.95) / np.linalg.norm(x)
        jac = oracles.radial_jacobian(SPEC, x)
        fd = _fd_jacobian(SPEC, x)
        assert np.max(np.abs(jac.matrix - fd)) <= 1e-8
        assert jac.det == pytest.approx(np.linalg.det(fd), rel=1e-6)


@pytest.mark.parametrize("dim", [2, 3])
def test_cloak_medium_matches_fd_pushforward(dim):
    rng = np.random.default_rng(21)
    for _ in range(20):
        y = rng.normal(size=dim)
        y *= rng.uniform(SPEC.r1 * 1.01, SPEC.r2 * 0.99) / np.linalg.norm(y)
        med = oracles.cloak_medium_at(SPEC, y)
        x = oracles.radial_blowup_inverse(SPEC, y)
        fd = oracles.push_forward(MediumSpec.isotropic(1.0, 1.0, dim),
                                JacobianData.from_matrix(_fd_jacobian(SPEC, x)))
        assert np.max(np.abs(med.sigma - fd.sigma)) <= 1e-8
        assert abs(med.q - fd.q) <= 1e-6 * abs(fd.q)


def test_cloak_at_outer_interface_closed_form():
    # The map is the identity pointwise on |y| = R2 but its Jacobian is
    # not: the radial stretch stays s = (R2-R1)/(R2-rho), so the cloak
    # tensor approaches eigenvalues (s, 1/s) with q = 1/s there (the
    # finite-difference push-forward oracle confirms this; the shell
    # medium is genuinely discontinuous across |y| = R2).
    y = np.array([0.0, 3.0])
    med = oracles.cloak_medium_at(SPEC, y)
    s = SPEC.slope
    assert np.allclose(np.sort(np.linalg.eigvalsh(med.sigma)), [s, 1.0 / s],
                       rtol=1e-12)
    assert med.q == pytest.approx(1.0 / s, rel=1e-12)


def test_cloak_tensor_spd_everywhere():
    rng = np.random.default_rng(4)
    for _ in range(60):
        y = rng.normal(size=2)
        y *= rng.uniform(SPEC.r1 + 1e-6, SPEC.r2) / np.linalg.norm(y)
        med = oracles.cloak_medium_at(SPEC, y)
        assert med.sigma_min > 0


def test_cloak_tensor_grows_like_inverse_rho():
    # Largest eigenvalue at fixed |y| just above R1: slope -1 +- 0.1 vs rho.
    rhos = 0.5 ** np.arange(2, 9)
    y = np.array([2.0 + 1e-9, 0.0])
    eigs = []
    for rho in rhos:
        spec = RadialMapSpec(rho, 2.0, 3.0)
        med = oracles.cloak_medium_at(spec, y)
        eigs.append(med.sigma_max)
    slope = np.polyfit(np.log(rhos), np.log(eigs), 1)[0]
    assert abs(slope + 1.0) <= 0.1


def test_push_forward_composition():
    rng = np.random.default_rng(13)
    for _ in range(40):
        a = rng.normal(size=(2, 2))
        sig = a @ a.T + 0.5 * np.eye(2)
        med = MediumSpec(sig, complex(rng.uniform(0.5, 2), rng.uniform(0, 1)))
        m1 = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        m2 = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        if np.linalg.det(m1) <= 0.1 or np.linalg.det(m2) <= 0.1:
            continue
        jg = JacobianData.from_matrix(m2)
        jf = JacobianData.from_matrix(m1)
        jfg = JacobianData.from_matrix(m1 @ m2)
        two_step = oracles.push_forward(oracles.push_forward(med, jg), jf)
        one_step = oracles.push_forward(med, jfg)
        assert np.max(np.abs(two_step.sigma - one_step.sigma)) <= 1e-10 * np.max(np.abs(one_step.sigma))
        assert abs(two_step.q - one_step.q) <= 1e-10 * abs(one_step.q)


# ---------------------------------------------------------------------------
# Physical <-> virtual conversions
# ---------------------------------------------------------------------------
def test_virtual_core_identity_at_rho_one():
    sigma, q = media.virtual_core_params(1.0, 1.0, 1.0, 2)
    assert sigma == pytest.approx(1.0)
    assert q == pytest.approx(1.0)


def test_virtual_core_scaling_2d_3d():
    sigma, q = media.virtual_core_params(2.0, 5.0, 0.1, 2)
    assert sigma == pytest.approx(2.0)
    assert q == pytest.approx(500.0)
    sigma, q = media.virtual_core_params(2.0, 5.0, 0.1, 3)
    assert sigma == pytest.approx(20.0)
    assert q == pytest.approx(5000.0)


def test_layer_conversion_round_trip_and_reference_values():
    rho = 0.01
    # Virtual FSH layer (C=1, delta=0.5): sigma = rho^3, q = 3+2i maps to
    # the physical pair (rho^3, rho^2 (3+2i)); sigma is 2D-conformal.
    sig_p, q_p = media.virtual_core_params(rho ** 3, 3 + 2j, 1 / rho, 2)
    assert sig_p == pytest.approx(rho ** 3)
    assert q_p == pytest.approx(rho ** 2 * (3 + 2j))
    # Virtual FSS layer: (1, 1 + 2.5 rho^-2 i) -> (1, rho^2 (1 + 2.5 rho^-2 i)).
    sig_p, q_p = media.virtual_core_params(1.0, 1 + 2.5j / rho ** 2, 1 / rho, 2)
    assert sig_p == pytest.approx(1.0)
    assert q_p == pytest.approx(rho ** 2 + 2.5j)
    for dim in (2, 3):
        sig_v, q_v = media.virtual_core_params(sig_p, q_p, rho, dim)
        back = media.virtual_core_params(sig_v, q_v, 1 / rho, dim)
        assert back[0] == pytest.approx(sig_p)
        assert back[1] == pytest.approx(q_p)


def test_virtual_core_params_checks_the_contents():
    bad = [(0.0, 1.0, 0.1, 2), (-1.0, 1.0, 0.1, 2), (math.nan, 1.0, 0.1, 2),
           (math.inf, 1.0, 0.1, 3), (1.0, 1.0 - 1e-3j, 0.1, 2),
           (1.0, complex(math.inf, 0.0), 0.1, 2), (1.0, complex(1.0, math.nan), 0.1, 3),
           (1.0, 1.0, 0.0, 2), (1.0, 1.0, -0.1, 2), (1.0, 1.0, math.nan, 2),
           (1.0, 1.0, math.inf, 3), (1.0, 1.0, 0.1, media.DIM_MAX + 1), (1.0, 1.0, 0.1, 1)]
    for sigma, q, rho, dim in bad:
        with pytest.raises(DomainError):
            media.virtual_core_params(sigma, q, rho, dim)
    # Rounding-level negative Im q passes, as it always has.
    assert media.virtual_core_params(1.0, 1.0 - 1e-16j, 0.1, 2)[1].imag == 0.0
    with pytest.raises(RangeError):   # rho^-3 beyond the double range
        media.virtual_core_params(1.0, 1.0, 1e-200, 3)


def test_a_numpy_dim_is_used_as_a_python_int():
    # rho ** -np.int64(3) would be a numpy power, which overflows to inf with
    # a RuntimeWarning (an error in these tests); the checked dim is an int.
    with pytest.raises(RangeError, match="virtual contents overflow"):
        media.virtual_core_params(1.0, 1.0, 1e-200, np.int64(3))
    assert (media.virtual_core_params(2.0, 1.0, 0.5, np.int64(5))
            == media.virtual_core_params(2.0, 1.0, 0.5, 5) == (2.0 * 0.5 ** -3, 0.5 ** -5 + 0j))
    assert type(media._check_dim(np.int64(3))) is int


@pytest.mark.parametrize("q", [complex(1.5e308, 1.5e308), complex(-1.5e308, 1.5e308)])
def test_a_complex_whose_modulus_overflows_is_not_a_number(q):
    # Both parts are finite, but |q| is beyond the double range, where abs()
    # raises OverflowError: the number rule refuses it with a DomainError.
    assert not media._number(q, media._COMPLEX)
    with pytest.raises(DomainError, match="q must be finite"):
        media.check_passive(1.0, q)
    # Below the overflow, the parts and the modulus are finite.
    assert media.check_passive(1.0, complex(1e308, 1e308)) == (1.0, complex(1e308, 1e308))
    assert not media._number(10 ** 400) and media._number(10 ** 300)


def test_virtual_sigma_rounding_to_zero_is_a_domain_error():
    # sigma' / rho in 3D rounds to 0: the virtual pair is checked as passive,
    # so no solver divides by that 0.
    with pytest.raises(DomainError, match="sigma must be finite and positive, got 0.0"):
        media.virtual_core_params(5e-324, 1.0, 4.0, 3)


@pytest.mark.parametrize("sigma, q, rho, dim", [
    (1.0, 1e300, 1e-6, 3), (1.0, 1e300j, 1e-6, 2), (1e300, 1.0, 1e-10, 3)],
    ids=["q_re", "q_im", "sigma"])
def test_virtual_contents_beyond_the_double_range_are_a_range_error(sigma, q, rho, dim):
    # Finite, passive contents whose product with a finite power of rho
    # overflows: the RangeError of the docstring, not a DomainError on inf.
    with pytest.raises(RangeError, match="overflow"):
        media.virtual_core_params(sigma, q, rho, dim)
    with pytest.raises(RangeError, match="overflow"):
        mie.solve(SchemeSpec.finite_sound_hard(), dim, WaveParams(2.0, np.eye(dim)[0]), rho,
                  (sigma, q))


# ---------------------------------------------------------------------------
# Validation and sampling
# ---------------------------------------------------------------------------
def test_medium_spec_validation():
    with pytest.raises(DomainError):
        MediumSpec(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)  # indefinite
    with pytest.raises(DomainError):
        MediumSpec(np.eye(2), 1.0 - 0.5j)  # active medium
    with pytest.raises(DomainError):
        MediumSpec(np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0)  # asymmetric
    med = MediumSpec(np.diag([0.5, 3.0]), 1.0)
    assert med.sigma_min == pytest.approx(0.5)
    assert med.sigma_max == pytest.approx(3.0)


def test_radial_map_validation():
    with pytest.raises(DomainError):
        RadialMapSpec(2.5, 2.0, 3.0)
    with pytest.raises(DomainError):
        RadialMapSpec(0.5, 3.0, 2.0)
    for bad in ((0.5, 2.0, math.inf), (math.nan, 2.0, 3.0), (0.5, math.nan, 3.0)):
        with pytest.raises(DomainError):
            RadialMapSpec(*bad)
    # The tangential stretch peaks at R1/rho; its square must be a double.
    assert RadialMapSpec(1.6e-154, 2.0, 3.0).rho == 1.6e-154
    for rho in (1.4e-154, 1e-160, 5e-324):
        with pytest.raises(RangeError, match=f"rho = {rho:g}"):
            RadialMapSpec(rho, 2.0, 3.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("rho", [0.5, 1e-4, 1e-12, 3e-16, 1e-17, 1e-150])
def test_sample_cloak_grid_stays_finite_as_rho_goes_to_zero(dim, rho):
    # With 9 cells, centres at 0, +-2/3, ..., +-8/3 put cells on |y| = R1 = 2
    # exactly (4 in 2D, 30 in 3D); each maps to r = rho, so q = 1/J is the
    # closed form at t = R1/rho bit for bit.
    spec = RadialMapSpec(rho, 2.0, 3.0)
    rows = media.sample_cloak_grid(spec, 9, dim=dim)
    assert np.isfinite(rows).all()
    on_r1 = np.linalg.norm(rows[:, :dim], axis=1) == spec.r1
    assert np.count_nonzero(on_r1) == (4 if dim == 2 else 30)
    q_at_rho = 1.0 / (spec.slope * (spec.r1 / rho) ** (dim - 1))
    assert np.all(rows[on_r1, -2] == q_at_rho)
    # A point that the domain check admits just below R1 maps to r = rho too.
    f = spec.r1 * (1 - 5e-13)
    sigma, q = media.cloak_tensor(spec, np.array([[f] + [0.0] * (dim - 1)]))
    assert np.isfinite(sigma).all()
    assert q[0] == pytest.approx(1.0 / (spec.slope * (f / rho) ** (dim - 1)), rel=1e-12)


def test_sample_cloak_grid_shell_only():
    rows = media.sample_cloak_grid(SPEC, 24, dim=2)
    assert rows.shape[1] == 2 + 3 + 2  # x, y, upper-triangle sigma, Re q, Im q
    radii = np.hypot(rows[:, 0], rows[:, 1])
    assert np.all((radii >= SPEC.r1) & (radii <= SPEC.r2))
    # cell-centered grid never hits the singular inner interface exactly
    assert np.min(np.abs(radii - SPEC.r1)) > 1e-12


def test_sample_cloak_grid_needs_a_cell():
    for cells in (0, -3):
        with pytest.raises(DomainError):
            media.sample_cloak_grid(SPEC, cells, dim=2)


def test_sample_cloak_grid_needs_dim_2_or_3():
    with pytest.raises(DomainError, match="dim must be 2 or 3"):
        media.sample_cloak_grid(SPEC, 9, dim=4)


@pytest.mark.parametrize("call", [
    lambda dim: analysis.observation_angles(dim, 10),
    lambda dim: mie.FarFieldPattern([0.0, 1.0], [1.0, 2.0], dim),
    lambda dim: media.virtual_core_params(1.0, 1.0, 0.5, dim),
    lambda dim: media.sample_cloak_grid(SPEC, 9, dim=dim),
], ids=["observation_angles", "FarFieldPattern", "virtual_core_params", "sample_cloak_grid"])
def test_every_dim_check_names_the_value_it_got(call):
    rule = rf"(2 or 3|an integer from 2 to {media.DIM_MAX})"
    with pytest.raises(DomainError, match=rf"^dim must be {rule}, got '2'$"):
        call("2")


@pytest.mark.parametrize("cells", [8.0, math.nan, "8", True])
def test_sample_cloak_grid_needs_an_integer_cell_count(cells):
    with pytest.raises(DomainError, match="integer count"):
        media.sample_cloak_grid(SPEC, cells, dim=2)


@pytest.mark.parametrize("dim", [2, 3])
def test_sample_cloak_grid_empty_shell_keeps_columns(dim):
    # One cell per side: the only center is the origin, inside the core.
    rows = media.sample_cloak_grid(SPEC, 1, dim=dim)
    assert rows.shape == (0, dim + dim * (dim + 1) // 2 + 2)


@pytest.mark.parametrize("dim, cells", [(2, 1), (2, 23), (2, 64), (3, 1), (3, 9), (3, 12)])
def test_sample_cloak_grid_equals_the_full_cube_oracle(dim, cells):
    # Bit for bit, row order included; one cell per side is an empty shell.
    rows = media.sample_cloak_grid(SPEC, cells, dim=dim)
    ref = oracles.cloak_grid_rows(SPEC, cells, dim)
    assert rows.shape == ref.shape and (cells == 1) == (rows.shape[0] == 0)
    assert np.array_equal(rows.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("rho", [0.5, 1e-4])
def test_sample_cloak_grid_matches_pointwise_pushforward(dim, rho):
    # Every row against the independent single-point chain: inverse map,
    # analytic Jacobian, generic push-forward of (I, 1).  The two paths
    # may round |y| differently in the last bit, and r = rho + (|y| - R1)/s
    # amplifies that by cond = |y|/(s r), up to ~4e4 next to R1 at
    # rho = 1e-4; the tolerance allows ~45 ulps of |y| on top of 1e-12.
    spec = RadialMapSpec(rho, 2.0, 3.0)
    rows = media.sample_cloak_grid(spec, 13 if dim == 2 else 9, dim=dim)
    assert rows.shape[0] > 0
    iu = np.triu_indices(dim)
    unit = MediumSpec.isotropic(1.0, 1.0, dim)
    for row in rows:
        y = row[:dim]
        ref = oracles.push_forward(unit, oracles.radial_jacobian(
            spec, oracles.radial_blowup_inverse(spec, y)))
        f = np.linalg.norm(y)
        tol = 1e-12 + 1e-14 * f / (spec.slope * oracles.inverse_radius(spec, f))
        assert np.max(np.abs(row[dim:-2] - ref.sigma[iu])) <= tol * np.max(np.abs(ref.sigma))
        assert abs(complex(row[-2], row[-1]) - ref.q) <= tol * abs(ref.q)


def _mirror_images(dim):
    """(point map, entry map) of each axis reflection, and in 2D of the x-y
    swap, on the rows of sample_cloak_grid: a reflection negates the
    off-diagonals that involve its axis, the swap exchanges sigma_xx and
    sigma_yy."""
    iu = list(zip(*np.triu_indices(dim)))
    images = []
    for axis in range(dim):
        flip = np.where(np.arange(dim) == axis, -1.0, 1.0)
        sign = np.array([-1.0 if (a == axis) != (b == axis) else 1.0 for a, b in iu] + [1.0, 1.0])
        images.append((lambda p, flip=flip: p * flip, lambda e, sign=sign: e * sign))
    if dim == 2:
        images.append((lambda p: p[:, ::-1], lambda e: e[:, [2, 1, 0, 3, 4]]))
    return images


@pytest.mark.parametrize("rho, r1, r2", [(0.5, 2.0, 3.0), (1e-4, 1.7, 2.7), (0.01, 2.3, 3.3)])
@pytest.mark.parametrize("dim, cells", [(2, 9), (2, 23), (2, 24), (2, 84), (3, 9), (3, 14), (3, 26)])
def test_sample_cloak_grid_is_exactly_mirror_symmetric(dim, cells, rho, r1, r2):
    # Bit for bit, with signed zeros aside ("==", and -0.0 + 0.0 keys).
    rows = media.sample_cloak_grid(RadialMapSpec(rho, r1, r2), cells, dim=dim)
    pts, entries = rows[:, :dim], rows[:, dim:]
    centers = np.unique(pts)
    assert centers.size == cells and np.array_equal(centers[::-1], -centers)
    index = {p: i for i, p in enumerate(map(tuple, (pts + 0.0).tolist()))}
    for move_point, move_entries in _mirror_images(dim):
        image = [index.get(p) for p in map(tuple, (move_point(pts) + 0.0).tolist())]
        assert None not in image
        assert np.array_equal(entries[image], move_entries(entries))


@pytest.mark.parametrize("dim", [2, 3])
def test_cloak_tensor_keeps_the_bits_of_the_dense_closed_form(dim):
    # The (..., dim, dim) broadcast of t^2/J I + ((s^2 - t^2)/J) yhat yhat^T,
    # signed zeros included: the axis points put +-0.0 in every slot.
    rng = np.random.default_rng(11)
    y = rng.normal(size=(300, dim))
    y *= rng.uniform(SPEC.r1, SPEC.r2, (300, 1)) / np.linalg.norm(y, axis=-1, keepdims=True)
    on_axes = [np.where(np.arange(dim) == axis, side * 2.5, zeros)
               for axis in range(dim) for side in (1.0, -1.0)
               for zeros in itertools.product((0.0, -0.0), repeat=dim)]
    y = np.vstack([y, on_axes])
    s, f = SPEC.slope, np.linalg.norm(y, axis=-1)
    t = f / (SPEC.rho + np.maximum(f - SPEC.r1, 0.0) / s)
    jac = s * t ** (dim - 1)
    tang, radial = (t * t / jac)[:, None, None], (s * s / jac)[:, None, None]
    yhat = y / f[:, None]
    ref = tang * np.eye(dim) + (radial - tang) * (yhat[:, :, None] * yhat[:, None, :])
    sigma, q = media.cloak_tensor(SPEC, y)
    assert np.array_equal(sigma.view(np.int64), ref.view(np.int64))
    assert np.array_equal(q.view(np.int64), (1.0 / jac).view(np.int64))


def test_cloak_tensor_broadcasts_over_leading_axes():
    rng = np.random.default_rng(5)
    y = rng.normal(size=(4, 5, 3))
    y *= rng.uniform(SPEC.r1, SPEC.r2, (4, 5, 1)) / np.linalg.norm(y, axis=-1, keepdims=True)
    sigma, q = media.cloak_tensor(SPEC, y)
    assert sigma.shape == (4, 5, 3, 3) and q.shape == (4, 5)
    med = oracles.cloak_medium_at(SPEC, y[2, 3])
    assert np.array_equal(sigma[2, 3], med.sigma) and q[2, 3] == med.q
    y[1, 2] *= 0.5   # one point inside the core rejects the whole batch
    with pytest.raises(DomainError):
        media.cloak_tensor(SPEC, y)
    with pytest.raises(DomainError):
        oracles.cloak_medium_at(SPEC, np.array([0.0, 3.5]))


@pytest.mark.parametrize("y, message", [
    (np.full(4, 1.25), "dim must be 2 or 3, got 4"),
    (np.array([2.5]), "dim must be 2 or 3, got 1"),
    (np.array(2.5), "y must have a last axis of 2 or 3 coordinates, got a scalar"),
])
def test_cloak_tensor_takes_points_of_two_or_three_coordinates(y, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        media.cloak_tensor(SPEC, y)


def test_cloak_tensor_rejects_nan_points():
    with pytest.raises(DomainError):
        media.cloak_tensor(RadialMapSpec(0.5, 2.0, 3.0), np.array([[math.nan, 2.5]]))


# ---------------------------------------------------------------------------
# The number rule (media._number): every scalar entry, one table per kind
# ---------------------------------------------------------------------------
_WAVE2 = WaveParams(2.0, np.array([1.0, 0.0]))
_SH = SchemeSpec.sound_hard()
_SOLUTION = mie.solve(_SH, 2, _WAVE2, 0.3)
_ANGLES = np.array([0.0, 1.0])

# name -> (the entry called at one number v, a good v).
_REAL_ENTRIES = {
    "WaveParams.k": (lambda v: WaveParams(v, np.array([1.0, 0.0])), 1),
    "fss beta": (lambda v: SchemeSpec.finite_sound_soft(v), 1),
    "fsh delta": (lambda v: SchemeSpec.finite_sound_hard(delta=v), 1),
    "layered sigma_l": (lambda v: SchemeSpec.layered(v, 1.0), 1),
    "layer_params rho": (lambda v: SchemeSpec("fss").layer_params(v), 1),
    "check_passive sigma": (lambda v: media.check_passive(v, 1.0), 1),
    "virtual_core_params sigma": (lambda v: media.virtual_core_params(v, 1.0, 0.5, 2), 1),
    "virtual_core_params rho": (lambda v: media.virtual_core_params(1.0, 1.0, v, 2), 1),
    "RadialMapSpec rho": (lambda v: RadialMapSpec(v, 2.0, 3.0), 1),
    "RadialMapSpec r1": (lambda v: RadialMapSpec(0.5, v, 3.0), 2),
    "RadialMapSpec r2": (lambda v: RadialMapSpec(0.5, 2.0, v), 3),
    "solve rho": (lambda v: mie.solve(_SH, 2, _WAVE2, v), 1),
    "solve_many rho": (lambda v: mie.solve_many(_SH, 2, _WAVE2, [0.3, v]), 1),
    "solve contents sigma": (
        lambda v: mie.solve(SchemeSpec("fsh"), 2, _WAVE2, 0.3, (v, 1.0)), 1),
    "sweep rho": (lambda v: analysis.sweep(_SH, 2, _WAVE2, [0.3, v], angle_count=4), 1),
    "leading_asymptotic rho": (lambda v: mie.leading_asymptotic(2, _WAVE2, v, 0.0), 1),
    "leading_asymptotic theta": (lambda v: mie.leading_asymptotic(2, _WAVE2, 0.1, v), 1),
    "field_on_circle r": (lambda v: mie.field_on_circle(_SOLUTION, v, _ANGLES), 1),
    "scattered_cauchy_data radius": (
        lambda v: mie.scattered_cauchy_data(_SOLUTION, v, _ANGLES), 1),
    "bie.circle radius": (lambda v: bie.circle(v, 16), 1),
    "far_field_from_cauchy_data radius": (lambda v: bie.far_field_from_cauchy_data(
        v, np.zeros(8), np.zeros(8), _WAVE2, _ANGLES), 1),
}
_COMPLEX_ENTRIES = {
    "check_passive q": (lambda v: media.check_passive(1.0, v), 1),
    "virtual_core_params q": (lambda v: media.virtual_core_params(1.0, v, 0.5, 2), 1),
    "layered q_l": (lambda v: SchemeSpec.layered(1.0, v), 1),
    "solve contents q": (lambda v: mie.solve(SchemeSpec("fsh"), 2, _WAVE2, 0.3, (1.0, v)), 1),
    "BoundaryCurve c_m": (lambda v: bie.BoundaryCurve(((1, v),), 16), 1),
}
_INTEGER_ENTRIES = {
    "sample_cloak_grid cells": (lambda v: media.sample_cloak_grid(SPEC, v, dim=2), 4),
    "observation_angles count": (lambda v: analysis.observation_angles(2, v), 4),
    "BoundaryCurve n_points": (lambda v: bie.circle(1.0, v), 16),
    "BoundaryCurve m": (lambda v: bie.BoundaryCurve(((v, 1.0),), 16), 1),
}
_DIM_ENTRIES = {
    "WaveParams.require_dim": (lambda v: _WAVE2.require_dim(v), 2),
    "solve dim": (lambda v: mie.solve(_SH, v, _WAVE2, 0.3), 2),
    "leading_asymptotic dim": (lambda v: mie.leading_asymptotic(v, _WAVE2, 0.1, 0.0), 2),
    "FarFieldPattern dim": (lambda v: mie.FarFieldPattern(_ANGLES, [1.0, 2.0], v), 2),
    "observation_angles dim": (lambda v: analysis.observation_angles(v, 4), 2),
    "virtual_core_params dim": (lambda v: media.virtual_core_params(1.0, 1.0, 0.5, v), 2),
    "sample_cloak_grid dim": (lambda v: media.sample_cloak_grid(SPEC, 4, dim=v), 2),
}
_REALS = (int, np.int64, np.float32, np.float64)
# kind -> (its entries, the values each must refuse, the types each takes).
_RULES = {
    "real": (_REAL_ENTRIES, [True, np.True_, "0.5", 0.5 + 0j, math.nan, math.inf], _REALS),
    "complex": (_COMPLEX_ENTRIES, [True, np.True_, "1", complex(math.nan, 0.0),
                                   complex(0.0, math.inf), math.inf],
                (*_REALS, complex, np.complex64)),
    "integer": (_INTEGER_ENTRIES, [True, np.True_, "4", 4.0, np.float64(4), math.nan, math.inf],
                (int, np.int64, np.int32)),
    "dim": (_DIM_ENTRIES, [2.0, True, np.float64(2), np.True_, "2", media.DIM_MAX + 1],
            (int, np.int64)),
}


@pytest.mark.parametrize("kind, name", [(kind, name) for kind, (entries, _, _) in _RULES.items()
                                        for name in entries])
def test_every_scalar_entry_follows_the_number_rule(kind, name):
    # Each refuses a bool, a str, a number of the wrong kind and a non-finite
    # value with a DomainError that names it, and takes the numpy types.
    entries, bad, types = _RULES[kind]
    call, good = entries[name]
    for value in bad:
        with pytest.raises(DomainError) as info:
            call(value)
        assert repr(value) in str(info.value), (value, str(info.value))
    for number in types:
        call(number(good))


def test_numpy_scalars_are_used_as_python_numbers():
    # A float32 is used at its exact value in double precision: numpy would
    # keep a float32 times a Python float in single precision.
    v = np.float32(0.7)
    assert type(WaveParams(v, np.array([1.0, 0.0])).k) is float
    assert type(SchemeSpec.finite_sound_soft(v).constants[0]) is float
    assert type(RadialMapSpec(np.float32(0.5), 2.0, v + 2).slope) is float
    sigma, q = media.check_passive(v, np.complex64(1 + 1j))
    assert (type(sigma), type(q)) == (float, complex)
    solution = mie.solve(_SH, 2, WaveParams(3.0, np.array([1.0, 0.0])), 0.3)
    assert np.array_equal(mie.field_on_circle(solution, v, _ANGLES),
                          mie.field_on_circle(solution, float(v), _ANGLES))
