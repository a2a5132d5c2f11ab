"""CLI tests: subcommands, config round-trip, golden files, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nearcloak
from nearcloak import cli, media

import oracles

DATA = Path(__file__).parent / "data"


def run(args, cwd):
    old = os.getcwd()
    os.chdir(cwd)
    try:
        return cli.main(args)
    finally:
        os.chdir(old)


def _fresh_process(args, cwd):
    """Run the CLI in a new interpreter, whose parser has never parsed."""
    src = str(Path(nearcloak.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "nearcloak", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def read_table(path):
    """Numeric rows of one of our CSVs (comments and header skipped)."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#") or line[0].isalpha():
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return np.asarray(rows)


def read_footer(path, key):
    for line in Path(path).read_text().splitlines():
        if line.startswith(f"# {key},"):
            return float(line.split(",")[1])
    raise KeyError(key)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def test_sweep_command_rows_and_exponent(tmp_path):
    code = run(["sweep", "--scheme", "sh", "--dim", "2", "--k", "2",
                "--rho-start", "0.5", "--rho-factor", "0.5", "--rho-count", "8",
                "--out", "sweep.csv", "--json-out", "sweep.json"], tmp_path)
    assert code == 0
    table = read_table(tmp_path / "sweep.csv")
    assert table.shape == (8, 2)
    exponent = read_footer(tmp_path / "sweep.csv", "fitted_exponent")
    assert 1.9 <= exponent <= 2.1
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert payload["scheme"] == "sh" and payload["dim"] == 2


def test_mie_command_fsh_small_rho(tmp_path):
    code = run(["mie", "--scheme", "fsh", "--dim", "2", "--k", "2",
                "--rho", "1e-3", "--angles", "100", "--out", "ff.csv"], tmp_path)
    assert code == 0
    table = read_table(tmp_path / "ff.csv")
    assert table.shape == (100, 4)
    assert np.all(np.abs(np.hypot(table[:, 1], table[:, 2]) - table[:, 3]) < 1e-14)


def test_sweep_command_fsh_where_only_the_low_order_rho_passes_the_guard(tmp_path):
    # The layer argument at rho = 0.14 has |z| = 2.1e4: admitted at that
    # rho's own order, not at the n_max = 188 that rho = 0.5 needs.
    args = ["--scheme", "fsh", "--fsh-delta", "1", "--fsh-a", "1e-3", "--fsh-b", "100",
            "--k", "300"]
    assert run(["sweep", *args, "--rho-start", "0.5", "--rho-factor", "0.28",
                "--rho-count", "2", "--out", "sweep.csv"], tmp_path) == 0
    table = read_table(tmp_path / "sweep.csv")
    assert table[:, 0].tolist() == [0.5, 0.14]
    for rho, amplitude in table:
        assert run(["mie", *args, "--rho", str(rho), "--out", "ff.csv"], tmp_path) == 0
        alone = read_table(tmp_path / "ff.csv")[:, 3].max()
        assert abs(amplitude - alone) <= 1e-13 * alone


def test_compare_command(tmp_path):
    code = run(["compare", "--scheme-a", "fss", "--scheme-b", "ss",
                "--rho-start", "0.0625", "--rho-factor", "0.5",
                "--rho-count", "4", "--out", "cmp.csv"], tmp_path)
    assert code == 0
    table = read_table(tmp_path / "cmp.csv")
    assert table.shape == (4, 4)
    assert np.all(np.diff(table[:, 3]) < 0)  # FSS -> SS difference shrinks


def test_mie_command_fsh_physical_core(tmp_path):
    # Non-default physical core flags, against frozen reference rows.
    code = run(["mie", "--scheme", "fsh", "--dim", "2", "--k", "2", "--rho", "0.5",
                "--angles", "4", "--core-sigma", "2", "--core-q-re", "3",
                "--core-q-im", "0.5", "--out", "ff.csv"], tmp_path)
    assert code == 0
    reference = np.array([
        [0.0, -0.45263893573930575, 0.49068105398928885, 0.6675701482924853],
        [1.5707963267948966, -0.22054574542793726, 0.0338494981440964, 0.22312824642113713],
        [3.141592653589793, 0.01553791361221107, -0.048991028043439425, 0.0513959880552325],
        [4.71238898038469, -0.22054574542793715, 0.03384949814409632, 0.22312824642113702],
    ])
    assert np.max(np.abs(read_table(tmp_path / "ff.csv") - reference)) <= 1e-10


def test_media_and_bie_commands(tmp_path):
    assert run(["media", "--rho", "0.25", "--cells", "10", "--out", "m.csv"],
               tmp_path) == 0
    assert run(["bie", "--curve", "circle", "--radius", "0.5",
                "--n-points", "64", "--out", "b.csv"], tmp_path) == 0
    assert read_table(tmp_path / "m.csv").shape[1] == 7
    assert read_table(tmp_path / "b.csv").shape == (100, 4)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------
def test_dump_config_round_trip_bit_identical(tmp_path):
    args = ["sweep", "--scheme", "fsh", "--dim", "2", "--rho-count", "5",
            "--out", "a.csv", "--dump-config", "cfg.json"]
    assert run(args, tmp_path) == 0
    cfg = json.loads((tmp_path / "cfg.json").read_text())
    assert cfg["command"] == "sweep" and cfg["scheme"] == "fsh"
    assert run(["sweep", "--config", "cfg.json", "--out", "b.csv"], tmp_path) == 0
    a = (tmp_path / "a.csv").read_text()
    b = (tmp_path / "b.csv").read_text()
    assert a == b


def test_config_flag_precedence(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"command": "sweep", "rho_count": 3, "scheme": "sh", "out": "x.csv"}))
    assert run(["sweep", "--config", "cfg.json", "--rho-count", "4",
                "--out", "y.csv"], tmp_path) == 0
    assert read_table(tmp_path / "y.csv").shape[0] == 4


def test_unknown_config_key_rejected(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"rho_counts": 3}))
    code = run(["sweep", "--config", "cfg.json"], tmp_path)
    assert code == cli.EXIT_INVALID_PARAMETER


@pytest.mark.parametrize("command, cfg", [
    ("mie", {"angles": 2.5}),
    ("media", {"cells": 2.5}),
    ("mie", {"k": "2"}),
    ("sweep", {"dim": True}),
    ("sweep", {"json_out": 1}),
    ("mie", [1, 2]),
    ("bie", {"curve": "square"}),
    ("sweep", {"model": "bogus", "rho_count": 2}),
    ("compare", {"scheme_a": "layered"}),
])
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, command, cfg):
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = run([command, "--config", "cfg.json"], tmp_path)
    assert code == cli.EXIT_INVALID_PARAMETER
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "NearCloakError"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def _non_default(key, default):
    """A valid value of a parameter that differs from its default."""
    if key in cli._CHOICES:
        return next(c for c in cli._CHOICES[key] if c != default)
    if default is None:
        return "nondefault.json"
    if isinstance(default, str):
        return "nondefault_" + default
    return default + (2 if isinstance(default, int) else 0.25)


@pytest.mark.parametrize("command", list(cli._DEFAULTS))
def test_every_flag_reaches_the_dumped_config(tmp_path, command):
    defaults = cli._DEFAULTS[command]
    values = {key: _non_default(key, default) for key, default in defaults.items()}
    args = [command, "--dump-config", "cfg.json"]
    for key, value in values.items():
        args += ["--" + key.replace("_", "-"), str(value)]
    assert run(args, tmp_path) == 0
    dumped = json.loads((tmp_path / "cfg.json").read_text())
    assert dumped == {"command": command, **values}
    for key, default in defaults.items():
        assert type(dumped[key]) is (str if default is None else type(default)), key


@pytest.mark.parametrize("first, second", [
    (["sweep", "--k", "3", "--json-out", "a.json", "--out", "a.csv"],
     ["sweep", "--out", "b.csv"]),
    (["sweep", "--scheme", "fss", "--k", "3", "--rho-count", "4", "--json-out", "a.json",
      "--out", "a.csv"],
     ["sweep", "--config", "cfg.json", "--out", "b.csv"]),
], ids=["flags", "config"])
def test_consecutive_calls_share_no_parameters(tmp_path, first, second):
    # main reuses one parser: a flag of one call must not reach the next.
    (tmp_path / "cfg.json").write_text(json.dumps({"scheme": "fsh", "rho_count": 5}))
    assert run(first, tmp_path) == 0
    (tmp_path / "a.json").unlink()
    assert run(second, tmp_path) == 0
    assert not (tmp_path / "a.json").exists()
    _fresh_process([*second[:-1], "fresh.csv"], tmp_path)
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


# ---------------------------------------------------------------------------
# Exit codes and error records
# ---------------------------------------------------------------------------
def test_no_arguments_prints_usage_and_fails(capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage" in err
    assert json.loads(err.splitlines()[-1])["exit_code"] == cli.EXIT_USAGE


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = _fresh_process(["--help"], tmp_path)
    assert "sweep" in proc.stdout and "bie" in proc.stdout


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["warp"]) == cli.EXIT_USAGE


def test_invalid_parameter_is_distinct_exit_code(tmp_path, capsys):
    code = run(["sweep", "--rho-factor", "1.5", "--out", "x.csv"], tmp_path)
    assert code == cli.EXIT_INVALID_PARAMETER
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["exit_code"] == cli.EXIT_INVALID_PARAMETER


def test_unwritable_output_path(tmp_path, capsys):
    code = run(["mie", "--rho", "0.5", "--angles", "8",
                "--out", "no/such/dir/out.csv"], tmp_path)
    assert code == cli.EXIT_UNWRITABLE_OUTPUT


def test_dump_config_into_missing_directory_writes_nothing(tmp_path, capsys):
    code = run(["mie", "--angles", "8", "--out", "x.csv",
                "--dump-config", "no/such/dir/cfg.json"], tmp_path)
    assert code == cli.EXIT_UNWRITABLE_OUTPUT
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["exit_code"] == code
    assert list(tmp_path.iterdir()) == []


def test_sweep_keeps_solver_error_type(tmp_path, capsys):
    # k rho = 500 at the first rho: the modal series cannot converge below
    # the order cap, which is an invalid parameter, not an internal error.
    code = run(["sweep", "--k", "1000", "--out", "x.csv"], tmp_path)
    assert code == cli.EXIT_INVALID_PARAMETER
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "TruncationError"
    assert "rho=0.5" in record["message"]


def test_truncation_at_order_cap_is_invalid_parameter(tmp_path, capsys):
    code = run(["mie", "--k", "330", "--rho", "0.5", "--out", "x.csv"], tmp_path)
    assert code == cli.EXIT_INVALID_PARAMETER
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "TruncationError"


def test_argument_below_specfun_floor_is_invalid_parameter(tmp_path, capsys):
    code = run(["mie", "--dim", "3", "--rho", "1e-200", "--out", "x.csv"], tmp_path)
    assert code == cli.EXIT_INVALID_PARAMETER
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "RangeError"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme", ["sh", "fsh"])
@pytest.mark.parametrize("command, flags", [
    ("mie", ["--rho", "1e308"]), ("sweep", ["--rho-start", "1e308"]),
    ("compare", ["--rho-start", "1e308"]),
], ids=lambda v: v if isinstance(v, str) else "")
def test_overflowing_k_rho_is_a_range_error_without_warnings(tmp_path, capsys, command,
                                                             flags, scheme):
    # k rho = inf lies beyond the argument guard, like any |z| > 2e4.
    lining = ["--scheme-a", scheme] if command == "compare" else ["--scheme", scheme]
    assert run([command, *lining, *flags, "--out", "x.csv"], tmp_path) == cli.EXIT_INVALID_PARAMETER
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "RangeError"
    assert not (tmp_path / "x.csv").exists()


def test_media_without_cells_is_invalid_parameter(tmp_path, capsys):
    code = run(["media", "--cells", "0", "--out", "m.csv"], tmp_path)
    assert code == cli.EXIT_INVALID_PARAMETER
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "DomainError"
    assert not (tmp_path / "m.csv").exists()


def test_invalid_physics_parameter(tmp_path):
    code = run(["mie", "--rho", "-0.5", "--out", "x.csv"], tmp_path)
    assert code == cli.EXIT_INVALID_PARAMETER


@pytest.mark.parametrize("args", [
    ["mie", "--rho", "inf"], ["mie", "--rho", "nan"],
    ["bie", "--incident-angle", "nan"],
    ["mie", "--scheme", "fsh", "--fsh-delta", "inf"],
    ["mie", "--scheme", "fsh", "--fsh-c", "nan"],
    ["mie", "--scheme", "fss", "--fss-beta", "inf"],
    ["bie", "--angles", "0"], ["bie", "--angles", "-3"], ["bie", "--angles", "1"],
], ids="_".join)
def test_non_finite_or_too_few_inputs_are_domain_errors(tmp_path, capsys, args):
    assert run(args + ["--out", "x.csv"], tmp_path) == cli.EXIT_INVALID_PARAMETER
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "DomainError"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["media", "--r2", "inf"], ["bie", "--radius", "nan"], ["bie", "--radius", "inf"],
    # finite, but the squared radius of a grid cell overflows
    ["media", "--r2", "1e308"], ["media", "--r2", "1e154", "--dim", "3"],
], ids="_".join)
def test_non_finite_radii_are_domain_errors_without_warnings(tmp_path, capsys, args):
    assert run(args + ["--out", "x.csv"], tmp_path) == cli.EXIT_INVALID_PARAMETER
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "DomainError"
    assert not (tmp_path / "x.csv").exists()


def _strict_json(path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def test_short_sweep_writes_strict_json_without_a_fit(tmp_path):
    assert run(["sweep", "--rho-count", "2", "--out", "s.csv", "--json-out", "s.json"],
               tmp_path) == 0
    payload = _strict_json(tmp_path / "s.json")
    assert payload["exponent"] is None and payload["residual"] is None
    assert len(payload["max_amplitude"]) == 2


def test_dump_config_of_non_finite_flag_writes_nothing(tmp_path, capsys):
    args = ["mie", "--k", "inf", "--out", "x.csv", "--dump-config", "cfg.json"]
    assert run(args, tmp_path) == cli.EXIT_INVALID_PARAMETER
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "ValueError"
    assert not (tmp_path / "cfg.json").exists() and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("scheme", ["ss", "sh", "fss", "fsh"])
@pytest.mark.parametrize("flags", [["--core-sigma", "-1"], ["--core-sigma", "nan"],
                                   ["--core-q-im", "-1"], ["--core-q-re", "inf"]],
                         ids="_".join)
@pytest.mark.parametrize("command", ["mie", "sweep", "compare"])
def test_contents_are_checked_for_every_scheme(tmp_path, capsys, command, flags, scheme):
    if command == "compare":
        args = ["compare", "--scheme-a", scheme, "--scheme-b", scheme]
    else:
        args = [command, "--scheme", scheme]
    assert run(args + flags + ["--out", "x.csv"], tmp_path) == cli.EXIT_INVALID_PARAMETER
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "DomainError"


@pytest.mark.parametrize("dim", ["2", "3"])
@pytest.mark.parametrize("scheme", ["fss", "fsh"])
def test_lossy_lining_of_contents_without_a_wavenumber_is_domain_error(tmp_path, capsys,
                                                                      scheme, dim):
    args = ["mie", "--scheme", scheme, "--dim", dim, "--core-q-re", "0", "--out", "x.csv"]
    assert run(args, tmp_path) == cli.EXIT_INVALID_PARAMETER
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "DomainError"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flags", [["--core-q-re", "1e300"], ["--core-sigma", "1e300"]],
                         ids="_".join)
def test_virtual_contents_overflow_is_invalid_parameter(tmp_path, capsys, flags):
    args = ["mie", "--scheme", "fsh", "--dim", "3", "--rho", "1e-10", *flags, "--out", "x.csv"]
    assert run(args, tmp_path) == cli.EXIT_INVALID_PARAMETER
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "RangeError"
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# Golden files (schema stability)
# ---------------------------------------------------------------------------
GOLDEN_CASES = [
    ("golden_mie_sh.csv", ["mie", "--scheme", "sh", "--dim", "2", "--k", "2",
                           "--rho", "0.5", "--angles", "8"]),
    ("golden_sweep_ss.csv", ["sweep", "--scheme", "ss", "--dim", "2", "--k", "2",
                             "--rho-start", "0.5", "--rho-factor", "0.5",
                             "--rho-count", "5", "--angles", "36"]),
    ("golden_media.csv", ["media", "--rho", "0.5", "--r1", "2", "--r2", "3",
                          "--cells", "8"]),
    ("golden_bie_kite.csv", ["bie", "--curve", "kite", "--k", "2",
                             "--n-points", "64", "--angles", "8"]),
    ("golden_compare_fsh_sh_3d.csv", ["compare", "--scheme-a", "fsh", "--scheme-b", "sh",
                                      "--dim", "3", "--k", "2", "--rho-count", "12"]),
]


@pytest.mark.parametrize("golden, args", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_outputs(tmp_path, golden, args):
    out = tmp_path / "out.csv"
    assert run(args + ["--out", str(out)], tmp_path) == 0
    fresh = out.read_text().splitlines()
    reference = (DATA / golden).read_text().splitlines()
    assert fresh[0] == reference[0]          # version-stamped schema line
    assert fresh[1] == reference[1]          # column header
    new = read_table(out)
    ref = read_table(DATA / golden)
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref)) <= 1e-10


def test_media_command_3d(tmp_path):
    assert run(["media", "--rho", "0.5", "--dim", "3", "--cells", "8",
                "--out", "m3.csv"], tmp_path) == 0
    table = read_table(tmp_path / "m3.csv")
    assert table.shape[1] == 3 + 6 + 2  # x, y, z, upper triangle, Re q, Im q
    radii = np.linalg.norm(table[:, :3], axis=1)
    assert np.all((radii >= 2.0) & (radii <= 3.0))


@pytest.mark.parametrize("dim, cells", [(2, 23), (3, 9)])
def test_media_csv_matches_the_per_value_writer(tmp_path, dim, cells):
    assert run(["media", "--rho", "0.3", "--dim", str(dim), "--cells", str(cells),
                "--out", "m.csv"], tmp_path) == 0
    grid = media.sample_cloak_grid(media.RadialMapSpec(0.3, 2.0, 3.0), cells, dim=dim)
    columns = (tmp_path / "m.csv").read_text().splitlines()[1].split(",")
    oracles.write_csv_per_value(tmp_path / "ref.csv", "media", columns, grid)
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
