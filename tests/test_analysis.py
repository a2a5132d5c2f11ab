"""Sweep/fit orchestration tests."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nearcloak import analysis, mie
from nearcloak.analysis import SweepResult, fit_decay, sweep
from nearcloak.errors import DomainError, InsufficientDataError, RangeError, ShapeError
from nearcloak.mie import SchemeSpec, WaveParams

import oracles

WAVE2 = WaveParams(2.0, np.array([1.0, 0.0]))
WAVE3 = WaveParams(2.0, np.array([1.0, 0.0, 0.0]))


def _synthetic(rhos, amps, model="power-law"):
    return SweepResult(scheme=SchemeSpec.sound_hard(), dim=2, k=2.0,
                       rho_values=np.asarray(rhos), max_amplitude=np.asarray(amps),
                       fitted_exponent=math.nan, fit_residual=math.nan,
                       model=model)


# ---------------------------------------------------------------------------
# Fits on constructed data
# ---------------------------------------------------------------------------
def test_fit_power_law_exact_synthetic():
    rhos = 0.5 ** np.arange(1, 9)
    fit = fit_decay(_synthetic(rhos, 7 * rhos ** 2), "power-law")
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.residual < 1e-12
    assert fit.correlation > 1 - 1e-12


def test_fit_inverse_log_exact_synthetic():
    rhos = 0.5 ** np.arange(1, 9)
    c = 0.37
    fit = fit_decay(_synthetic(rhos, c / np.abs(np.log(rhos))), "inverse-log")
    assert fit.slope == pytest.approx(c, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_requires_three_points():
    rhos = np.array([0.5, 0.25])
    with pytest.raises(InsufficientDataError):
        fit_decay(_synthetic(rhos, rhos ** 2), "power-law")
    with pytest.raises(DomainError):
        fit_decay(_synthetic(0.5 ** np.arange(1, 6), 0.5 ** np.arange(1, 6)),
                  "cubic-spline")


def test_sweep_result_validation():
    with pytest.raises(DomainError):
        _synthetic([0.25, 0.5], [1.0, 2.0])  # not decreasing
    with pytest.raises(ShapeError):
        _synthetic([0.5, 0.25], [1.0])
    with pytest.raises(DomainError):
        _synthetic([0.5, 0.25], [1.0, -1.0])


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
    assert (fit_decay(sh, "inverse-log").residual
            >= 10 * fit_decay(sh, "power-law").residual)
    ss = sweep(SchemeSpec.sound_soft(), 2, WAVE2, rhos)
    assert (fit_decay(ss, "power-law").residual
            >= 10 * fit_decay(ss, "inverse-log").residual)


def test_compare_schemes():
    rhos = 0.5 ** np.arange(3, 7)
    a = sweep(SchemeSpec.sound_hard(), 2, WAVE2, rhos)
    diff = analysis.compare_schemes(a, a)
    assert np.all(diff == 0.0)
    b = sweep(SchemeSpec.sound_hard(), 2, WAVE2, 0.5 ** np.arange(4, 8))
    with pytest.raises(ShapeError):
        analysis.compare_schemes(a, b)


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


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------
def test_sweep_csv_round_trip(tmp_path):
    result = sweep(SchemeSpec.sound_hard(), 2, WAVE2, 0.5 ** np.arange(3, 7))
    path = tmp_path / "sweep.csv"
    analysis.write_sweep_csv(result, path)
    rho, amp = oracles.read_sweep_csv(path)
    assert np.array_equal(rho, result.rho_values)
    assert np.array_equal(amp, result.max_amplitude)
    jpath = tmp_path / "sweep.json"
    analysis.write_sweep_json(result, jpath)
    import json
    payload = json.loads(jpath.read_text())
    assert payload["scheme"] == "sh"
    assert payload["exponent"] == pytest.approx(result.fitted_exponent)


def test_fit_reproducible_from_persisted_csv(tmp_path):
    # sweeps persist before fitting: re-fitting the CSV table must
    # reproduce the stored exponent exactly
    result = sweep(SchemeSpec.sound_hard(), 2, WAVE2, 0.5 ** np.arange(3, 9))
    path = tmp_path / "sweep.csv"
    analysis.write_sweep_csv(result, path)
    rho, amp = oracles.read_sweep_csv(path)
    refit = fit_decay(_synthetic(rho, amp), "power-law")
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
@example(table=(2, [[-0.0, 0.0]]), as_array=False)
def test_write_csv_matches_the_per_value_writer(tmp_path, table, as_array):
    width, rows = table
    columns = [f"c{j}" for j in range(width)]
    footer = [("model", "power-law"), ("fitted_exponent", "nan")]
    given_rows = np.array(rows, dtype=float).reshape(-1, width) if as_array else rows
    analysis.write_csv(tmp_path / "new.csv", "t", columns, given_rows, footer)
    oracles.write_csv_per_value(tmp_path / "ref.csv", "t", columns, rows, footer)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("rows, error", [
    ([(1.0, 2.0), ("x", 3.0)], ValueError),     # not a number
    ([(1.0, 2.0), (3.0,)], ValueError),         # ragged
    ([(1.0, 2.0, 3.0)], ShapeError),            # wider than the header
])
def test_write_csv_bad_row_leaves_the_file_untouched(tmp_path, rows, error):
    path = tmp_path / "t.csv"
    path.write_text("kept\n")
    with pytest.raises(error):
        analysis.write_csv(path, "t", ["a", "b"], rows)
    assert path.read_text() == "kept\n"
