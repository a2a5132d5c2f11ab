"""CLI tests: subcommands, config round-trip, golden files, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nearcloak
from nearcloak import analysis, cli, media, mie
from nearcloak.mie import SchemeSpec, WaveParams

import oracles

DATA = Path(__file__).parent / "data"


def run(args, cwd):
    old = os.getcwd()
    os.chdir(cwd)
    try:
        return cli.main(args)
    finally:
        os.chdir(old)


def _fresh_process(args, cwd, optimize=sys.flags.optimize, status=0):
    """Run the interpreter with ``args`` in a new process that must exit
    with ``status``: a CLI run there has a parser that has never parsed and
    modules never imported.  It runs at the suite's own optimisation level
    (``python -OO -m pytest`` gives -OO) unless ``optimize`` says otherwise,
    and raises a RuntimeWarning as an error, as pytest does in the suite."""
    src = str(Path(nearcloak.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["-" + "O" * optimize] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-W", "error::RuntimeWarning", *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == status, proc.stderr
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


@pytest.mark.parametrize("k", ["40", "60"])
def test_bie_whose_nodes_miss_the_wave_writes_nothing(tmp_path, capsys, k):
    # The default 256 kite nodes resolve k = 20, but not k = 40 or 60.
    assert run(["bie", "--curve", "kite", "--k", "20", "--out", "ok.csv"], tmp_path) == 0
    assert run(["bie", "--curve", "kite", "--k", k, "--out", "x.csv"],
               tmp_path) == cli.EXIT_INVALID_PARAMETER
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "TruncationError" and f"kite at k={k}" in record["message"]
    assert not (tmp_path / "x.csv").exists()


# (args, exit code, args of a run whose CSV it writes byte for byte, or None)
EXIT_CASES = [
    (["mie", "--scheme", "fsh", "--dim", "3"], 0, None),
    (["bie"], 0, None),
    # A circle's circulant solve: FFTs with a division by the eigenvalues.
    (["bie", "--radius", "0.7", "--k", "4.7", "--n-points", "1024"], 0, None),
    # 256 nodes on this circle resolve k = 60 (tau = 2.9e-15), but not
    # k = 150, whose far field would be 1.5e-3 off.
    (["bie", "--radius", "0.5", "--k", "60"], 0, None),
    (["bie", "--radius", "0.5", "--k", "150"], cli.EXIT_INVALID_PARAMETER, None),
    # Odd cell counts put centres on the axes (coordinates exactly 0.0), and
    # in 3D six on |y| = R1 = 2, whose preimage is r = rho.
    (["media", "--cells", "23", "--rho", "1e-4"], 0, None),
    (["media", "--dim", "3", "--cells", "9", "--rho", "1e-4"], 0, None),
    # Near the smallest rho whose stretch (R1/rho)^2 is a double.
    (["media", "--dim", "3", "--cells", "9", "--rho", "1e-150"], 0, None),
    # Im q' = -1e-17 is inside the passivity tolerance and read as 0 ("=":
    # argparse reads a bare -1e-17 as an option).
    (["mie", "--scheme", "fss", "--rho", "0.5", "--core-q-im=-1e-17"], 0,
     ["mie", "--scheme", "fss", "--rho", "0.5", "--core-q-im", "0"]),
]


@pytest.mark.parametrize("args, code, twin", EXIT_CASES,
                         ids=["_".join(args) for args, _, _ in EXIT_CASES])
def test_runs_exit_with_their_code_and_finite_rows(tmp_path, capsys, args, code, twin):
    assert run([*args, "--out", "x.csv"], tmp_path) == code
    if code:
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "TruncationError"
        assert not (tmp_path / "x.csv").exists()
        return
    assert np.isfinite(read_table(tmp_path / "x.csv")).all()
    if twin:
        assert run([*twin, "--out", "twin.csv"], tmp_path) == 0
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "twin.csv").read_bytes()


def test_contents_whose_modulus_overflows_exit_3(tmp_path, capsys):
    # Both parts of q' are finite doubles, but |q'| = 2.1e308 is not: the
    # number rule refuses it before any abs() can raise OverflowError (exit 5).
    args = ["mie", "--scheme", "sh", "--core-q-re", "1.5e308", "--core-q-im", "1.5e308"]
    assert run([*args, "--out", "x.csv"], tmp_path) == cli.EXIT_INVALID_PARAMETER
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "DomainError" and "q must be finite" in record["message"]
    assert not (tmp_path / "x.csv").exists()


def test_internal_failure_exits_5_with_one_json_record(tmp_path, capsys, monkeypatch):
    def divide_by_zero(params):
        return 1 / 0

    monkeypatch.setitem(cli._RUNNERS, "mie", (cli._RUNNERS["mie"][0], divide_by_zero))
    assert run(["mie", "--out", "x.csv"], tmp_path) == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "ZeroDivisionError", "message": "division by zero",
                                  "exit_code": 5}


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
    if key == "dim":
        return 3  # the one non-default dim that every subcommand takes
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
    _fresh_process(["-m", "nearcloak", *second[:-1], "fresh.csv"], tmp_path)
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
    # Both entries the README documents: the package and its cli module.
    for module in ("nearcloak", "nearcloak.cli"):
        proc = _fresh_process(["-m", module, "--help"], tmp_path)
        assert "sweep" in proc.stdout and "bie" in proc.stdout, module


def test_help_under_python_dash_oo_lists_every_subcommand_with_its_help(tmp_path):
    # -OO strips docstrings; the help lines live in _RUNNERS, so it prints
    # the same text.
    stripped = _fresh_process(["-m", "nearcloak", "--help"], tmp_path, optimize=2).stdout
    for command, (help_text, _) in cli._RUNNERS.items():
        assert any(line.split() == [command, *help_text.split()]
                   for line in stripped.splitlines()), command
    assert stripped == _fresh_process(["-m", "nearcloak", "--help"], tmp_path, optimize=0).stdout


@pytest.mark.parametrize("code", [
    "import nearcloak",
    "from nearcloak import cli; status = cli.main(['media', '--cells', '5', '--out', 'm.csv'])",
    "from nearcloak import cli; status = cli.main(['--help'])",
], ids=["import", "media", "help"])
def test_start_up_loads_no_scipy(tmp_path, code):
    # Each module imports scipy where it calls it, so the package's import,
    # a media run and --help load none of it (about 0.3 s of start-up).
    _fresh_process(["-c", f"import sys; status = 0; {code}; "
                          "sys.exit(status or 'scipy' in sys.modules)"], tmp_path)


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


# ---------------------------------------------------------------------------
# Dimensions and rho grids, checked by the library's rules
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dim", [4, 5, 6, 7])
@pytest.mark.parametrize("scheme", ["sh", "fss"])
def test_mie_in_rn_writes_the_in_process_far_field(tmp_path, scheme, dim):
    assert run(["mie", "--scheme", scheme, "--dim", str(dim), "--out", "ff.csv"], tmp_path) == 0
    wave = WaveParams(2.0, np.eye(dim)[0])
    pattern = mie.far_field(mie.solve(SchemeSpec(scheme), dim, wave, 0.5, (1.0, 1.0 + 0j)),
                            analysis.observation_angles(dim, 100))
    rows = [(theta, a.real, a.imag, abs(a))
            for theta, a in zip(pattern.angles, map(complex, pattern.amplitude))]
    oracles.write_csv_per_value(tmp_path / "ref.csv", "farfield",
                                ["theta", "re_A", "im_A", "abs_A"], rows)
    assert (tmp_path / "ff.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("scheme, rate", [("sh", 0), ("fsh", 0), ("ss", 2), ("fss", 2)])
def test_sweep_in_rn_fits_the_abstracts_rate(tmp_path, scheme, rate, dim):
    # rho^N for the sound-hard linings and rho^(N - 2) for the sound-soft
    # ones, in the +-0.1 windows of the acceptance criteria.
    assert run(["sweep", "--scheme", scheme, "--dim", str(dim), "--k", "2",
                "--rho-start", "0.0625", "--rho-count", "12", "--out", "s.csv"], tmp_path) == 0
    assert abs(read_footer(tmp_path / "s.csv", "fitted_exponent") - (dim - rate)) <= 0.1


@pytest.mark.parametrize("args", [
    ["mie", "--dim", "8"], ["mie", "--dim", "1"], ["sweep", "--dim", "8"],
    ["compare", "--dim=-2"], ["mie", "--config", "cfg.json"],  # the file holds {"dim": 8}
], ids="_".join)
def test_modal_dims_beyond_the_solver_are_domain_errors(tmp_path, capsys, args):
    # The library's dim rule; --dim 1000000000 is the capped case below.
    (tmp_path / "cfg.json").write_text(json.dumps({"dim": 8}))
    assert run([*args, "--out", "x.csv"], tmp_path) == cli.EXIT_INVALID_PARAMETER
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "DomainError" and "an integer from 2 to 7" in record["message"]
    assert not (tmp_path / "x.csv").exists()


def test_media_dims_are_2_or_3_and_a_dim_is_an_integer(tmp_path, capsys):
    assert run(["media", "--dim", "4", "--out", "m.csv"], tmp_path) == cli.EXIT_INVALID_PARAMETER
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert (record["error"], record["message"]) == ("DomainError", "dim must be 2 or 3, got 4")
    assert run(["mie", "--dim", "2.5", "--out", "x.csv"], tmp_path) == cli.EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["sweep", "--scheme", "sh"], ["compare", "--scheme-a", "ss", "--scheme-b", "sh"],
], ids=["sweep", "compare"])
def test_a_7d_grid_whose_max_amplitude_underflows_is_a_range_error(tmp_path, capsys, args):
    # 0.5^153 = 4.4e-47: max|A| of SH is 0.0 there, and no fit or column
    # can read it; 150 rho end on the subnormal 2.7367017e-317 and pass.
    flags = [*args, "--dim", "7", "--out", "x.csv"]
    assert run([*flags, "--rho-count", "154"], tmp_path) == cli.EXIT_INVALID_PARAMETER
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert (record["error"], record["message"]) == ("RangeError",
                                                    "max|A| underflows to 0 at rho=4.37906e-47")
    assert list(tmp_path.iterdir()) == []
    assert run([*flags, "--rho-count", "150"], tmp_path) == 0
    assert 2.7367017e-317 in read_table(tmp_path / "x.csv")[-1]


@pytest.mark.parametrize("flags, message", [
    (["--core-q-im=-1"], "q must be finite with Im q >= 0, got (1-1j)"),
    (["--scheme", "fsh", "--core-q-re", "0"],
     "lossy linings need contents with q' != 0, got (sigma', q') = (1, 0+0j)"),
], ids=["active", "lossy_q_0"])
def test_contents_errors_name_no_rho(tmp_path, capsys, flags, message):
    # The whole grid is at fault, so the sweep gives the message of mie.
    for command in ("sweep", "mie"):
        assert run([command, *flags, "--out", "x.csv"], tmp_path) == cli.EXIT_INVALID_PARAMETER
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (record["error"], record["message"]) == ("DomainError", message)


_CAPPED_MAIN = """import resource, sys
from nearcloak import cli
# The address space now, plus 64 MB: no input of 1e9 values fits.
size = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (size + 2**26, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux's /proc")
@pytest.mark.parametrize("args, message", [
    (["mie", "--dim", "1000000000"], "dim must be an integer from 2 to 7, got 1000000000"),
    # The grid's last rho, rho_start * rho_factor^(count - 1), is 0.0; at
    # 1e400 the power has no double.
    (["sweep", "--rho-count", str(10**12)], "rho must be finite and positive, got 0.0"),
    (["sweep", "--rho-count", str(10**400)], "rho must be finite and positive, got 0.0"),
], ids=["dim_1e9", "rho_count_1e12", "rho_count_1e400"])
def test_huge_inputs_exit_3_before_anything_is_built(tmp_path, args, message):
    # Each is checked before a direction or grid of its size is built,
    # which would raise MemoryError (exit 5) under the cap.
    proc = _fresh_process(["-c", _CAPPED_MAIN, *args], tmp_path,
                          status=cli.EXIT_INVALID_PARAMETER)
    record = json.loads(proc.stderr.splitlines()[-1])
    assert (record["error"], record["message"]) == ("DomainError", message)
    assert list(tmp_path.iterdir()) == []


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
    ["bie", "--incident-angle", "nan"], ["bie", "--incident-angle", "inf"],
    ["bie", "--incident-angle=-inf"],  # "=": argparse reads a bare -inf as an option
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
    # finite, but the Nystrom system overflows (and at 1e308 the incident data)
    ["bie", "--radius", "1e200", "--n-points", "64"],
    ["bie", "--radius", "1e308", "--n-points", "64"],
], ids="_".join)
def test_non_finite_radii_are_domain_errors_without_warnings(tmp_path, capsys, args):
    assert run(args + ["--out", "x.csv"], tmp_path) == cli.EXIT_INVALID_PARAMETER
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "DomainError"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    # (R1/rho)^2 overflows
    ["media", "--rho", "1e-160"], ["media", "--rho", "1e-160", "--dim", "3"],
    # k times the curve's diameter is below the low-frequency floor
    ["bie", "--radius", "1e-20"], ["bie", "--radius", "1e-200"],
    ["bie", "--curve", "kite", "--k", "1e-200"],
], ids="_".join)
def test_scales_beyond_the_solvers_range_are_range_errors(tmp_path, capsys, args):
    assert run(args + ["--out", "x.csv"], tmp_path) == cli.EXIT_INVALID_PARAMETER
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "RangeError"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [2, 3])
def test_media_at_rho_1e_17_writes_finite_rows(tmp_path, dim):
    # Cells on |y| = R1 = 2 take the closed form at r = rho, t = R1/rho.  The
    # entries are of size t/s, so they hold the radial eigenvalue s rho/R1
    # only to within rounding of that size.
    args = ["media", "--cells", "9", "--rho", "1e-17", "--dim", str(dim), "--out", "m.csv"]
    assert run(args, tmp_path) == 0
    table = read_table(tmp_path / "m.csv")
    assert np.isfinite(table).all()
    spec = media.RadialMapSpec(1e-17, 2.0, 3.0)
    on_r1 = [row for row in table if np.linalg.norm(row[:dim]) == 2.0]
    assert len(on_r1) >= 4
    iu = np.triu_indices(dim)
    unit = oracles.MediumSpec.isotropic(1.0, 1.0, dim)
    for row in on_r1:
        ref = oracles.push_forward(unit, oracles.radial_jacobian(spec, 1e-17 * row[:dim] / 2.0))
        assert np.allclose(row[dim:-2], ref.sigma[iu], rtol=1e-12, atol=1e-12 * ref.sigma_max)
        assert row[-2] == pytest.approx(ref.q.real, rel=1e-12) and row[-1] == 0.0


@pytest.mark.filterwarnings("error")
def test_overflowing_bie_wavenumber_is_a_domain_error_without_warnings(tmp_path, capsys):
    # The system is finite, but its residual overflows: no far field of NaNs.
    args = ["bie", "--k", "1e300", "--n-points", "64", "--out", "x.csv"]
    assert run(args, tmp_path) == cli.EXIT_INVALID_PARAMETER
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "DomainError"
    assert record["message"] == "non-finite trace or residual for circle(r=0.5) at k=1e+300"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.filterwarnings("error")
def test_inverse_log_fit_through_rho_one_is_a_domain_error(tmp_path, capsys):
    # rho = 2, 1, 0.5: the fitted window holds rho = 1, where 1/|ln rho| is infinite.
    code = run(["sweep", "--scheme", "ss", "--rho-start", "2", "--rho-factor", "0.5",
                "--rho-count", "3", "--out", "s.csv"], tmp_path)
    assert code == cli.EXIT_INVALID_PARAMETER
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "DomainError"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.filterwarnings("error")
def test_compare_through_rho_one_writes_each_schemes_sweep(tmp_path):
    # compare fits nothing, so a grid that no inverse-log fit admits still
    # compares; each max|A| column is that scheme's own sweep.
    code = run(["compare", "--scheme-a", "fss", "--scheme-b", "ss", "--rho-start", "2",
                "--rho-factor", "0.5", "--rho-count", "3", "--out", "cmp.csv"], tmp_path)
    assert code == 0
    table = read_table(tmp_path / "cmp.csv")
    assert table[:, 0].tolist() == [2.0, 1.0, 0.5]
    wave = WaveParams(2.0, np.array([1.0, 0.0]))
    for column, kind in ((1, "fss"), (2, "ss")):
        result = analysis.sweep(SchemeSpec(kind), 2, wave, [2.0, 1.0, 0.5])
        assert np.array_equal(table[:, column], result.max_amplitude)


def test_compare_runs_no_fit(tmp_path, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("compare ran a fit")
    monkeypatch.setattr(analysis, "fit_decay", no_fit)
    assert run(["compare", "--out", "cmp.csv"], tmp_path) == 0
    assert read_table(tmp_path / "cmp.csv").shape == (7, 4)


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


def test_sweep_whose_json_cannot_be_written_leaves_no_csv(tmp_path, capsys):
    # Both outputs or neither: the CSV written first is removed.
    args = ["sweep", "--rho-count", "4", "--out", "s.csv", "--json-out", "nodir/x.json"]
    assert run(args, tmp_path) == cli.EXIT_UNWRITABLE_OUTPUT
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["exit_code"] == 4
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("args", [
    ["sweep", "--rho-count", "3", "--out", "s.csv", "--json-out", "s.csv"],
    ["sweep", "--rho-count", "3", "--out", "s.csv", "--json-out", "sub/../s.csv"],
    ["mie", "--angles", "8", "--out", "x", "--dump-config", "x"],
    ["mie", "--angles", "8", "--out", "x", "--dump-config", "./x"],
], ids=["sweep", "sweep_dotdot", "mie", "mie_dot"])
def test_outputs_naming_one_file_write_nothing(tmp_path, capsys, args):
    # Each output would overwrite the one before it at that path.
    (tmp_path / "sub").mkdir()
    assert run(args, tmp_path) == cli.EXIT_INVALID_PARAMETER
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "NearCloakError" and "different files" in record["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags, message", [
    # sigma_l = 1e-309 is subnormal: q_l / sigma_l overflows
    (["--fsh-c", "1e-300", "--rho", "1e-3"],
     "the fsh layer at rho = 0.001 leaves the double range: (sigma_l, q_l) = (1e-309, 3+2j)"),
    # sigma_l = 0.1^602 underflows to 0
    (["--fsh-delta", "300", "--rho", "0.1"],
     "the fsh layer at rho = 0.1 leaves the double range: (sigma_l, q_l) = (0, 3+2j)"),
    # (the later --scheme wins) sigma_a = 1e-320/0.5 is subnormal: q_a/sigma_a
    # overflows, so k_2 is infinite
    (["--scheme", "fss", "--dim", "3", "--core-sigma", "1e-320", "--rho", "0.5"],
     "the virtual core at rho = 0.5 leaves the double range: "
     "(sigma_a, q_a) = (1.99998e-320, 8+0j)"),
], ids=["subnormal_sigma", "zero_sigma", "subnormal_core_sigma"])
def test_lossy_layer_beyond_the_double_range_is_invalid_parameter(tmp_path, capsys, flags,
                                                                  message):
    args = ["mie", "--scheme", "fsh", *flags, "--out", "x.csv"]
    assert run(args, tmp_path) == cli.EXIT_INVALID_PARAMETER
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert (record["error"], record["message"]) == ("RangeError", message)
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
