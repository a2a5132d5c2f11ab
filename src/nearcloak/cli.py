"""Command-line front end.

Subcommands: ``mie`` (far-field pattern of one solve), ``sweep``
(rho sweep with decay fit), ``compare`` (two schemes on one rho grid, no fit),
``bie`` (boundary-integral far field on a circle or kite), ``media``
(cloak tensor sampled on a grid).  Parameters come from built-in
defaults (the reference experiment: k = 2, d = +x, 100 observation
angles, rho halving from 0.5, shell R1 = 2, R2 = 3), overridden by an
optional JSON config file (--config), overridden by explicit flags.
``--dump-config`` writes the fully resolved parameter set; feeding that
file back through --config reproduces the outputs bit for bit.

Every output format (the far-field, sweep, compare and media CSVs, the
sweep summary JSON) and the two writers, ``write_csv`` and ``write_json``,
live here; ``analysis`` only computes.

Exit codes: 0 success, 2 usage error, 3 invalid parameter, 4 unwritable
output path, 5 internal failure.  Failures also emit one JSON error
record on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import analysis, bie, media, mie
from .errors import DomainError, NearCloakError, ShapeError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID_PARAMETER = 3
EXIT_UNWRITABLE_OUTPUT = 4
EXIT_INTERNAL = 5

CSV_SCHEMA_VERSION = 1
_CSV_BLOCK_ROWS = 1024  # rows joined per write: peak memory stays flat

# Every parameter is declared once, here: build_parser adds one flag per key
# (--<key with _ as ->), typed by its default (str where the default is
# None).  The scheme key(s) come first, so the flags keep their order; a
# lining's flags are its SchemeSpec constants, in order, and their defaults.
_LINING_FLAGS = {"fsh": ("fsh_c", "fsh_delta", "fsh_a", "fsh_b"), "fss": ("fss_beta",)}
_SCHEME_DEFAULTS = {
    "dim": 2, "k": 2.0, "angles": analysis.DEFAULT_ANGLE_COUNT,
    **{flag: value for kind, flags in _LINING_FLAGS.items()
       for flag, value in zip(flags, mie.SchemeSpec(kind).constants)},
    "core_sigma": 1.0, "core_q_re": 1.0, "core_q_im": 0.0,
}
_RHO_GRID_DEFAULTS = {"rho_start": 0.5, "rho_factor": 0.5, "rho_count": 7}

_DEFAULTS = {
    "mie": {"scheme": "sh", **_SCHEME_DEFAULTS, "rho": 0.5, "out": "farfield.csv"},
    "sweep": {"scheme": "sh", **_SCHEME_DEFAULTS, **_RHO_GRID_DEFAULTS, "model": "auto",
              "out": "sweep.csv", "json_out": None},
    "compare": {"scheme_a": "fsh", "scheme_b": "sh", **_SCHEME_DEFAULTS,
                **_RHO_GRID_DEFAULTS, "out": "compare.csv"},
    "bie": {"curve": "circle", "radius": 0.5, "k": 2.0, "incident_angle": 0.0, "n_points": 256,
            "angles": analysis.DEFAULT_ANGLE_COUNT, "out": "bie_farfield.csv"},
    "media": {"rho": 0.5, "r1": 2.0, "r2": 3.0, "dim": 2, "cells": 40, "out": "media_grid.csv"},
}

_SCHEMES = ["ss", "sh", "fss", "fsh"]
_CHOICES = {
    "scheme": _SCHEMES, "scheme_a": _SCHEMES, "scheme_b": _SCHEMES, "dim": [2, 3],
    "model": ["auto", *analysis.FIT_MODELS], "curve": ["circle", "kite"],
}

# Types a --config value may take, by the type of its default (never bool).
_CONFIG_TYPES = {int: (int,), float: (int, float), str: (str,), type(None): (str, type(None))}


# ---------------------------------------------------------------------------
# Parser construction
# ---------------------------------------------------------------------------
@functools.cache  # parsing never mutates the parser, so main reuses one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearcloak",
        description="Near-cloaking scattering experiments (modal and "
                    "boundary-integral solvers).")
    sub = parser.add_subparsers(dest="command")
    for command, defaults in _DEFAULTS.items():
        p = sub.add_parser(command, help=_RUNNERS[command].__doc__)
        for key, default in defaults.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, choices=_CHOICES.get(key),
                           type=str if default is None else type(default))
        p.add_argument("--config", help="JSON file with parameter overrides")
        p.add_argument("--dump-config", dest="dump_config",
                       help="write the resolved parameters as JSON, then run")
    return parser


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags."""
    params = dict(_DEFAULTS[command])
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise NearCloakError("config file must hold a JSON object")
        cfg.pop("command", None)
        unknown = set(cfg) - set(params)
        if unknown:
            raise NearCloakError(f"unknown config keys: {sorted(unknown)}")
        for key, value in cfg.items():
            accepted, choices = _CONFIG_TYPES[type(params[key])], _CHOICES.get(key)
            if (isinstance(value, bool) or not isinstance(value, accepted)
                    or choices is not None and value not in choices):
                needs = choices or " or ".join(t.__name__ for t in accepted)
                raise NearCloakError(
                    f"config key {key!r} needs {needs}, got {json.dumps(value)}")
        params.update(cfg)
    for key in params:
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    return params


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def _scheme_from(params: dict, key: str) -> mie.SchemeSpec:
    return mie.SchemeSpec(params[key], tuple(map(params.get, _LINING_FLAGS.get(params[key], ()))))


def _wave_from(params: dict, dim: int) -> mie.WaveParams:
    ang = float(params.get("incident_angle", 0.0))
    if not math.isfinite(ang):
        raise DomainError(f"incident angle must be finite, got {ang}")
    return mie.WaveParams(params["k"], np.array([math.cos(ang), math.sin(ang), 0.0][:dim]))


def _contents_from(params: dict) -> tuple[float, complex]:
    return params["core_sigma"], params["core_q_re"] + 1j * params["core_q_im"]


def _rho_grid(params: dict) -> list[float]:
    start, factor, count = (params["rho_start"], params["rho_factor"],
                            params["rho_count"])
    if not (0 < factor < 1 and start > 0 and count >= 1):
        raise NearCloakError("need rho_start > 0, 0 < rho_factor < 1, rho_count >= 1")
    return [start * factor ** j for j in range(count)]


def write_csv(path, schema: str, columns, rows, footer=()) -> None:
    """Write a ``# schema=<schema>-v1`` CSV: header, rows of numbers written
    as ``repr(float(v))`` (exact round trip), then ``# key,text`` footer lines.

    The float64 table is built before the file is opened, so a bad row
    leaves the file untouched.  Each distinct bit pattern (-0.0 keeps its
    sign) is formatted once, as two words: U words ending in "," and U
    ending in "\\n", the last column indexing the second half.  A block of
    rows is then one gather of words and one join: grids repeat most of
    their values, and no Python work is done per row."""
    table = np.ascontiguousarray(rows if isinstance(rows, np.ndarray) else list(rows),
                                 dtype=float)
    if len(table) and table.shape[1:] != (len(columns),):
        raise ShapeError(f"{len(columns)} columns, but rows of shape {table.shape}")
    bits, inverse = np.unique(table.view(np.int64), return_inverse=True)
    words = [repr(v) for v in bits.view(float).tolist()]
    text = np.array([w + "," for w in words] + [w + "\n" for w in words], dtype=object)
    # numpy 2 returns the inverse in the table's shape, numpy 1 flat.
    inverse = inverse.reshape(table.shape)
    if table.size:
        inverse[:, -1] += len(words)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema={schema}-v{CSV_SCHEMA_VERSION}\n")
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            fh.write("".join(text[inverse[start:start + _CSV_BLOCK_ROWS]].ravel().tolist()))
        for key, value in footer:
            fh.write(f"# {key},{value}\n")


def write_json(path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline.

    A non-finite float raises ValueError before the file is opened, as
    strict JSON cannot hold it."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_farfield_csv(path: str, pattern) -> None:
    # abs of the Python complex, not np.abs: they differ in the last bit.
    write_csv(path, "farfield", ["theta", "re_A", "im_A", "abs_A"],
              ((th, a.real, a.imag, abs(a))
               for th, a in zip(pattern.angles, map(complex, pattern.amplitude))))


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------
def _run_mie(params: dict) -> None:
    """far-field pattern of one modal solve"""
    dim = params["dim"]
    wave = _wave_from(params, dim)
    scheme = _scheme_from(params, "scheme")
    sol = mie.solve(scheme, dim, wave, params["rho"], _contents_from(params))
    pattern = mie.far_field(sol, analysis.observation_angles(dim, params["angles"]))
    _write_farfield_csv(params["out"], pattern)


def _sweep(params: dict, key: str, model: str = "auto") -> analysis.SweepResult:
    """analysis.sweep of the scheme under ``key`` over the flags' rho grid."""
    dim = params["dim"]
    wave, rhos, contents = _wave_from(params, dim), _rho_grid(params), _contents_from(params)
    return analysis.sweep(_scheme_from(params, key), dim, wave, rhos,
                          angle_count=params["angles"], contents=contents, model=model)


def _run_sweep(params: dict) -> None:
    """rho sweep of max|A| with decay fit"""
    result = _sweep(params, "scheme", params["model"])
    fit = result.fit  # before any file is opened, so a failing fit writes nothing
    write_csv(params["out"], "sweep", ["rho", "max_abs_A"],
              zip(result.rho_values, result.max_amplitude),
              footer=[("model", result.model),
                      ("fitted_exponent", repr(fit.slope) if fit else "nan"),
                      ("fit_residual", repr(fit.residual) if fit else "nan")])
    if params["json_out"]:
        try:
            write_json(params["json_out"], {
                "schema": f"sweep-summary-v{CSV_SCHEMA_VERSION}",
                "scheme": params["scheme"], "dim": params["dim"], "k": params["k"],
                "angle_count": params["angles"], "model": result.model,
                # JSON has no NaN: a sweep too short to fit writes null.
                "exponent": fit.slope if fit else None,
                "residual": fit.residual if fit else None,
                "rho_values": result.rho_values.tolist(),
                "max_amplitude": result.max_amplitude.tolist(),
            })
        except (OSError, ValueError):
            os.remove(params["out"])  # both outputs or neither
            raise


def _run_compare(params: dict) -> None:
    """per-rho difference of two schemes"""
    a, b = _sweep(params, "scheme_a"), _sweep(params, "scheme_b")
    write_csv(params["out"], "compare", ["rho", "max_abs_A_a", "max_abs_A_b", "abs_diff"],
              zip(a.rho_values, a.max_amplitude, b.max_amplitude,
                  analysis.compare_schemes(a, b)))


def _run_bie(params: dict) -> None:
    """boundary-integral far field"""
    wave = _wave_from(params, 2)
    angles = analysis.observation_angles(2, params["angles"])
    if params["curve"] == "circle":
        curve = bie.circle(params["radius"], params["n_points"])
    else:
        curve = bie.kite(params["n_points"])
    solution = bie.assemble_and_solve(curve, wave)
    pattern = bie.far_field_from_density(solution, wave, angles)
    _write_farfield_csv(params["out"], pattern)


def _run_media(params: dict) -> None:
    """sample the cloak tensor on a grid"""
    spec = media.RadialMapSpec(params["rho"], params["r1"], params["r2"])
    rows = media.sample_cloak_grid(spec, params["cells"], dim=params["dim"])
    coords = "xyz"[:params["dim"]]
    iu = [f"sigma_{a}{b}" for i, a in enumerate(coords) for b in coords[i:]]
    write_csv(params["out"], "media", [*coords, *iu, "re_q", "im_q"], rows)


# One runner per _DEFAULTS entry; its docstring is the subcommand's help.
_RUNNERS = {
    "mie": _run_mie,
    "sweep": _run_sweep,
    "compare": _run_compare,
    "bie": _run_bie,
    "media": _run_media,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def _fail(code: int, kind: str, message: str) -> int:
    record = {"error": kind, "message": message, "exit_code": code}
    print(json.dumps(record), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return _fail(EXIT_USAGE, "usage", "no subcommand given")

    try:
        params = _resolve(args.command, args)
    except (OSError, json.JSONDecodeError, NearCloakError) as exc:
        return _fail(EXIT_INVALID_PARAMETER, type(exc).__name__, str(exc))

    try:
        if args.dump_config:  # a non-finite flag has no JSON form: ValueError
            write_json(args.dump_config, {"command": args.command, **params})
        _RUNNERS[args.command](params)
    except (NearCloakError, ValueError) as exc:
        return _fail(EXIT_INVALID_PARAMETER, type(exc).__name__, str(exc))
    except OSError as exc:
        return _fail(EXIT_UNWRITABLE_OUTPUT, type(exc).__name__, str(exc))
    except Exception as exc:
        return _fail(EXIT_INTERNAL, type(exc).__name__, str(exc))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
