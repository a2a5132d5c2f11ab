"""Sweep/fit orchestration tests."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nearcloak import analysis, cli, mie, specfun
from nearcloak.analysis import fit_decay, sweep
from nearcloak.errors import DomainError, InsufficientDataError, RangeError, ShapeError
from nearcloak.mie import SchemeSpec, WaveParams

import oracles

WAVE2 = WaveParams(2.0, np.array([1.0, 0.0]))
WAVE3 = WaveParams(2.0, np.array([1.0, 0.0, 0.0]))


def _synthetic(rhos, amps):
    return np.asarray(rhos), np.asarray(amps)


# ---------------------------------------------------------------------------
# Fits on constructed data
# ---------------------------------------------------------------------------
def test_fit_power_law_exact_synthetic():
    rhos = 0.5 ** np.arange(1, 9)
    fit = fit_decay(*_synthetic(rhos, 7 * rhos ** 2), "power-law")
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_inverse_log_exact_synthetic():
    rhos = 0.5 ** np.arange(1, 9)
    c = 0.37
    fit = fit_decay(*_synthetic(rhos, c / np.abs(np.log(rhos))), "inverse-log")
    assert fit.slope == pytest.approx(c, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_requires_three_points():
    rhos = np.array([0.5, 0.25])
    with pytest.raises(InsufficientDataError):
        fit_decay(*_synthetic(rhos, rhos ** 2), "power-law")
    with pytest.raises(DomainError):
        fit_decay(*_synthetic(0.5 ** np.arange(1, 6), 0.5 ** np.arange(1, 6)),
                  "cubic-spline")


@pytest.mark.parametrize("keep_fraction", [0.0, -0.5, 1.0 + 1e-12, 5.0, math.nan])
def test_fit_keep_fraction_must_lie_in_the_unit_interval(keep_fraction):
    rhos = 0.5 ** np.arange(1, 9)
    with pytest.raises(DomainError, match="keep_fraction"):
        fit_decay(*_synthetic(rhos, rhos ** 2), "power-law", keep_fraction=keep_fraction)


def test_fit_keep_fraction_keeps_at_least_three_points():
    rhos = 0.5 ** np.arange(1, 9)
    assert fit_decay(*_synthetic(rhos, rhos ** 2), "power-law", keep_fraction=1e-3).n_used == 3
    assert fit_decay(*_synthetic(rhos, rhos ** 2), "power-law", keep_fraction=1.0).n_used == 8


def test_sweep_result_validation():
    with pytest.raises(DomainError):
        fit_decay(*_synthetic([0.25, 0.5], [1.0, 2.0]), "power-law")  # not decreasing
    with pytest.raises(ShapeError):
        fit_decay(*_synthetic([0.5, 0.25], [1.0]), "power-law")
    with pytest.raises(DomainError):
        fit_decay(*_synthetic([0.5, 0.25], [1.0, -1.0]), "power-law")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho, amp, model", [
    ([0.5, math.nan, 0.125], [1.0, 0.5, 0.25], "power-law"),
    ([0.5, 0.25, 0.0], [1.0, 0.5, 0.25], "power-law"),
    ([0.5, 0.25, -0.125], [1.0, 0.5, 0.25], "inverse-log"),
    ([0.5, 0.25, 0.125], [1.0, math.nan, 0.25], "power-law"),
    ([0.5, 0.25, 0.125], [1.0, math.inf, 0.25], "inverse-log"),
    ([2.0, 1.0, 0.5], [1.0, 0.5, 0.25], "inverse-log"),  # 1/|ln rho| is infinite
])
def test_fit_rejects_data_outside_its_rule(rho, amp, model):
    with pytest.raises(DomainError):
        fit_decay(rho, amp, model)


def test_inverse_log_fit_may_leave_rho_one_outside_its_window():
    # The fit takes the smallest ceil(2 * 4 / 3) = 3 rho, which leave out rho = 1.
    rho, amp = [1.0, 0.5, 0.25, 0.125], [1.0, 0.5, 0.3, 0.2]
    assert fit_decay(rho, amp, "inverse-log") == fit_decay(rho[1:], amp[1:], "inverse-log",
                                                           keep_fraction=1.0)


@pytest.mark.parametrize("model", analysis.FIT_MODELS)
def test_fit_of_plain_lists_equals_fit_of_float_arrays(model):
    rhos = [0.5 ** j for j in range(1, 9)]
    amps = [0.3 * r ** 2 + 0.01 * r ** 3 for r in rhos]
    assert fit_decay(rhos, amps, model) == fit_decay(np.array(rhos), np.array(amps), model)


@pytest.mark.parametrize("kind, n", [("sh", 7), ("ss", 6), ("fsh", 4), ("fss", 9)])
def test_window_fit_reproduces_the_sweep_fit(kind, n):
    # The sweep fits the smallest ceil(2n/3) rho values; slicing that
    # window out of the arrays and fitting all of it gives the same fit.
    result = sweep(SchemeSpec(kind), 2, WAVE2, 0.5 ** np.arange(2, 2 + n))
    m = math.ceil(2 * n / 3)
    fit = fit_decay(result.rho_values[-m:], result.max_amplitude[-m:], result.model,
                    keep_fraction=1.0)
    assert (fit.slope, fit.residual) == (result.fitted_exponent, result.fit_residual)


# ---------------------------------------------------------------------------
# Real sweeps
# ---------------------------------------------------------------------------
def test_sh_sweep_exponent_near_two():
    result = sweep(SchemeSpec.sound_hard(), 2, WAVE2, 0.5 ** np.arange(3, 9))
    assert result.model == "power-law"
    assert 1.9 <= result.fitted_exponent <= 2.1


def test_default_model_is_power_law_in_3d_and_by_family_in_2d():
    rhos = 0.5 ** np.arange(3, 6)
    for kind, model_2d in (("sh", "power-law"), ("fsh", "power-law"),
                           ("ss", "inverse-log"), ("fss", "inverse-log")):
        assert sweep(SchemeSpec(kind), 2, WAVE2, rhos).model == model_2d
        assert sweep(SchemeSpec(kind), 3, WAVE3, rhos).model == "power-law"


def test_unknown_fit_model_is_rejected_before_solving(monkeypatch):
    # Below three rho values no fit runs, so only the name check catches it.
    monkeypatch.setattr(mie, "solve_many", lambda *args: pytest.fail("solved"))
    for rhos in ([0.5, 0.25], 0.5 ** np.arange(1, 6)):
        with pytest.raises(DomainError, match="unknown fit model 'bogus'"):
            sweep(SchemeSpec.sound_hard(), 2, WAVE2, rhos, model="bogus")


def test_sweep_determinism():
    rhos = 0.5 ** np.arange(3, 7)
    a = sweep(SchemeSpec.finite_sound_hard(), 2, WAVE2, rhos)
    b = sweep(SchemeSpec.finite_sound_hard(), 2, WAVE2, rhos)
    assert np.array_equal(a.max_amplitude, b.max_amplitude)
    assert a.fitted_exponent == b.fitted_exponent
    assert a.fit_residual == b.fit_residual


def test_max_amplitude_monotone_for_every_scheme():
    rhos = 0.5 ** np.arange(3, 8)
    for scheme in (SchemeSpec.sound_hard(), SchemeSpec.sound_soft(),
                   SchemeSpec.finite_sound_hard(), SchemeSpec.finite_sound_soft()):
        result = sweep(scheme, 2, WAVE2, rhos)
        assert np.all(np.diff(result.max_amplitude) < 0), scheme.kind


def test_fit_sanity_correct_model_wins_by_10x():
    rhos = 0.5 ** np.arange(5, 11)
    sh = sweep(SchemeSpec.sound_hard(), 2, WAVE2, rhos)
    assert (fit_decay(sh.rho_values, sh.max_amplitude, "inverse-log").residual
            >= 10 * fit_decay(sh.rho_values, sh.max_amplitude, "power-law").residual)
    ss = sweep(SchemeSpec.sound_soft(), 2, WAVE2, rhos)
    assert (fit_decay(ss.rho_values, ss.max_amplitude, "power-law").residual
            >= 10 * fit_decay(ss.rho_values, ss.max_amplitude, "inverse-log").residual)


def test_compare_schemes():
    rhos = 0.5 ** np.arange(3, 7)
    a = sweep(SchemeSpec.sound_hard(), 2, WAVE2, rhos)
    diff = analysis.compare_schemes(a, a)
    assert np.all(diff == 0.0)
    b = sweep(SchemeSpec.sound_hard(), 2, WAVE2, 0.5 ** np.arange(4, 8))
    with pytest.raises(ShapeError):
        analysis.compare_schemes(a, b)


@pytest.mark.parametrize("k", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_fsh_with_delta_one_keeps_its_rate_down_to_rho_1e6(dim, k):
    # With delta = 1 the layer argument k_tilde rho grows like 1/rho and
    # passes |z| = 2e4 near rho = 1e-4; down to rho = 9.5e-7 it reaches
    # |z| = 8e6 (k = 4), in the regime where J_n takes the upward step.
    # The exponent stays in the windows of criteria 1 and 2, and max|A|
    # approaches the sound-hard obstacle's (FSH - SH is O(rho^(dim+delta))).
    wave = WaveParams(k, np.eye(dim)[0])
    rhos = 0.125 * 0.5 ** np.arange(18)
    fsh = sweep(SchemeSpec.finite_sound_hard(delta=1.0), dim, wave, rhos)
    sh = sweep(SchemeSpec.sound_hard(), dim, wave, rhos)
    window = (1.9, 2.1) if dim == 2 else (2.9, 3.1)
    assert window[0] <= fsh.fitted_exponent <= window[1]
    assert abs(fsh.max_amplitude[-1] / sh.max_amplitude[-1] - 1.0) <= 1e-3
    layer = mie.solve(SchemeSpec.finite_sound_hard(delta=1.0), dim, wave, rhos[-1]).k_layer
    assert abs(layer * rhos[-1]) > 2.0 * specfun.ARGUMENT_GUARD


def test_batched_sweep_judges_each_rho_at_its_own_order():
    # At k = 300 the rho = 0.5 solve runs to n_max = 188, while the layer
    # argument at rho = 0.14 (|z| = 2.1e4, beyond the 2e4 guard) is admitted
    # only up to order 174 (n^2 Im z <= |z|^2), and its own solve stops at
    # 72.  The batch solves each rho as alone.
    scheme = SchemeSpec.finite_sound_hard(c=1, delta=1, a=1e-3, b=100)
    wave = WaveParams(300, [1, 0])
    result = sweep(scheme, 2, wave, [0.5, 0.14])
    angles = analysis.observation_angles(2, analysis.DEFAULT_ANGLE_COUNT)
    for rho, amplitude in zip(result.rho_values, result.max_amplitude):
        alone = np.abs(mie.far_field(mie.solve(scheme, 2, wave, rho), angles).amplitude).max()
        assert abs(amplitude - alone) <= 1e-13 * alone


def test_observation_angle_count_must_be_an_integer_of_at_least_two():
    assert analysis.observation_angles(2, np.int64(4)).tolist() == [
        0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    for dim in (2, 3):
        for count in (2.5, 3.0, 1, "3"):
            with pytest.raises(DomainError, match="integer count of at least two"):
                analysis.observation_angles(dim, count)


def test_sweep_error_annotated_with_rho():
    with pytest.raises(RangeError, match="rho=8"):
        # FSS beta rule is fine, but rho >= R1-scale geometry is nonsense
        # only at the solver level: force a failure via a huge rho that
        # breaks the argument guard.
        sweep(SchemeSpec.sound_hard(), 2, WAVE2, [8.0e4, 4.0e4, 2.0e4])


@pytest.mark.parametrize("scheme", ["sh", "fsh"])
@pytest.mark.parametrize("dim, wave", [(2, WAVE2), (3, WAVE3)], ids=["2d", "3d"])
@pytest.mark.parametrize("rhos, message", [
    ([0.5, 1e-60], "solver failed at rho=1e-60: |z| = 2e-60 is below the floor 1e-50"),
    ([2e4, 1.0, 1e-60], "solver failed at rho=20000: |z| = 4e+04 exceeds the guard 20000"),
], ids=["floor", "guard-before-floor"])
def test_batched_sweep_error_names_the_largest_failing_rho(scheme, dim, wave, rhos, message):
    # The whole grid is one batched solve; its error must still name the
    # largest rho that fails on its own, with the solver's error type.
    with pytest.raises(RangeError) as info:
        sweep(SchemeSpec(scheme), dim, wave, rhos)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Special angles and near field
# ---------------------------------------------------------------------------
def test_special_angle_ratio_divides_by_four():
    rhos = [0.5 ** j for j in range(7, 11)]
    for dim, wave in ((2, WAVE2), (3, WAVE3)):
        ratios = analysis.special_angle_suppression(dim, wave, rhos)
        factors = ratios[:-1] / ratios[1:]
        assert np.all((factors >= 3.2) & (factors <= 4.8)), (dim, factors)


def test_empty_rho_list_is_insufficient_data():
    with pytest.raises(InsufficientDataError, match="empty rho list"):
        analysis.special_angle_suppression(2, WAVE2, [])
    with pytest.raises(InsufficientDataError, match="empty rho list"):
        sweep(SchemeSpec.sound_hard(), 2, WAVE2, [])


def test_near_field_deviation_trivial_and_domain():
    sol = mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, 0.05)
    assert analysis.near_field_deviation(sol, sol, 0.2) == 0.0
    other = mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, 0.1)
    with pytest.raises(ShapeError):
        analysis.near_field_deviation(sol, other, 0.2)
    with pytest.raises(DomainError):
        analysis.near_field_deviation(sol, sol, 0.04)


def test_near_field_deviation_inside_rho_names_the_exterior():
    sol = mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, 0.05)
    with pytest.raises(DomainError, match="r = 0.04 lies outside the exterior region"):
        analysis.near_field_deviation(sol, sol, 0.04)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------
def _cli_sweep(tmp_path, rho_count, json_out=None):
    """Write the 2D sound-hard sweep over rho = 2^-3 ... through the CLI."""
    argv = ["sweep", "--scheme", "sh", "--dim", "2", "--k", "2", "--rho-start", "0.125",
            "--rho-count", str(rho_count), "--out", str(tmp_path / "sweep.csv")]
    assert cli.main(argv + (["--json-out", str(json_out)] if json_out else [])) == 0
    return tmp_path / "sweep.csv"


def test_sweep_csv_round_trip(tmp_path):
    result = sweep(SchemeSpec.sound_hard(), 2, WAVE2, 0.5 ** np.arange(3, 7))
    jpath = tmp_path / "sweep.json"
    rho, amp = oracles.read_sweep_csv(_cli_sweep(tmp_path, 4, jpath))
    assert np.array_equal(rho, result.rho_values)
    assert np.array_equal(amp, result.max_amplitude)
    import json
    payload = json.loads(jpath.read_text())
    assert payload["scheme"] == "sh"
    assert payload["exponent"] == pytest.approx(result.fitted_exponent)


def test_fit_reproducible_from_persisted_csv(tmp_path):
    # sweeps persist before fitting: re-fitting the CSV table must
    # reproduce the stored exponent exactly
    result = sweep(SchemeSpec.sound_hard(), 2, WAVE2, 0.5 ** np.arange(3, 9))
    rho, amp = oracles.read_sweep_csv(_cli_sweep(tmp_path, 6))
    refit = fit_decay(rho, amp, "power-law")
    assert refit.slope == result.fitted_exponent
    assert refit.residual == result.fit_residual


# Edge values of the byte format; integers must read as their float.
_CSV_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]),
    st.floats(), st.integers(-2 ** 64, 2 ** 64))


@st.composite
def _csv_tables(draw):
    """(width, rows) drawn from a small pool, so values repeat heavily."""
    pool = draw(st.lists(_CSV_VALUES, min_size=1, max_size=6))
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=width, max_size=width),
                         max_size=12))
    return width, rows


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_csv_tables(), as_array=st.booleans())
@example(table=(3, []), as_array=True)
@example(table=(1, []), as_array=False)
@example(table=(2, [[-0.0, 0.0]]), as_array=False)
def test_write_csv_matches_the_per_value_writer(tmp_path, table, as_array):
    width, rows = table
    columns = [f"c{j}" for j in range(width)]
    footer = [("model", "power-law"), ("fitted_exponent", "nan")]
    given_rows = np.array(rows, dtype=float).reshape(-1, width) if as_array else rows
    cli.write_csv(tmp_path / "new.csv", "t", columns, given_rows, footer)
    oracles.write_csv_per_value(tmp_path / "ref.csv", "t", columns, rows, footer)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("count", [0, 2 * cli._CSV_BLOCK_ROWS + 1])
def test_write_csv_matches_the_per_value_writer_across_blocks(tmp_path, width, count):
    # Three blocks, the last of one row; at width 1 every value ends its row.
    pool = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 1.5, -2.25, 5e-324, 1e16])
    rows = pool[np.arange(count * width).reshape(count, width) * 7 % pool.size]
    columns = [f"c{j}" for j in range(width)]
    cli.write_csv(tmp_path / "new.csv", "t", columns, rows, [("model", "power-law")])
    oracles.write_csv_per_value(tmp_path / "ref.csv", "t", columns, rows, [("model", "power-law")])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("rows, error", [
    ([(1.0, 2.0), ("x", 3.0)], ValueError),     # not a number
    ([(1.0, 2.0), (3.0,)], ValueError),         # ragged
    ([(1.0, 2.0, 3.0)], ShapeError),            # wider than the header
    ([()], ShapeError),                         # a row with no values
    ([(), ()], ShapeError),
])
def test_write_csv_bad_row_leaves_the_file_untouched(tmp_path, rows, error):
    path = tmp_path / "t.csv"
    path.write_text("kept\n")
    with pytest.raises(error):
        cli.write_csv(path, "t", ["a", "b"], rows)
    assert path.read_text() == "kept\n"


def test_write_csv_empty_row_is_not_a_header_only_file(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ShapeError):
        cli.write_csv(path, "t", ["a"], [[]])
    assert not path.exists()


@pytest.mark.parametrize("rows", [[], np.empty((0, 2))])
def test_write_csv_no_rows_writes_the_header_only(tmp_path, rows):
    # An empty media shell has no cells, and its grid file still names its columns.
    path = tmp_path / "t.csv"
    cli.write_csv(path, "t", ["a", "b"], rows, [("cells", "0")])
    assert path.read_text() == f"# schema=t-v{cli.CSV_SCHEMA_VERSION}\na,b\n# cells,0\n"
