"""Verification of task outputs against references independent of the program.

Every check returns a list of problems; an empty list means the output
passed.  References:

* SS/SH coefficients -- scipy closed forms (jvp/h1vp in 2D,
  spherical_jn/spherical_yn in 3D); far fields re-synthesised from them
  with numpy/scipy, not with the program's series code.
* Lossless linings -- per-mode unitarity |S_n| = 1; lossy linings --
  passivity |S_n| <= 1, with S_n = 1 + 2 d_n (-i)^n in 2D, 1 + 2 d_n in 3D.
  CLI far fields are decomposed back into modes (FFT in 2D, Legendre
  least squares in 3D) to get S_n.
* Sweeps -- the acceptance exponent windows wherever the fitted tail is
  asymptotic (k rho <= ASYMPTOTIC_KRHO on every fitted point).
* BIE -- circle against the modal solution, residual, and the optical
  theorem on the kite.
* Media -- the closed-form cloak tensor t I + (a - t) yy^T, q = 1/J, with
  J = s (f/r)^(dim-1), radial eigenvalue a = s^2/J and tangential
  t = (f/r)^2/J; in 2D that is (f/(s r)) I + (s r/f - f/(s r)) yy^T.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
from scipy import special

import tasks

COEFF_TOL = 1e-9        # closed-form coefficients, relative to the largest
FAR_TOL = 1e-9          # far-field re-synthesis, relative to max |A|
UNITARY_TOL = 1e-9      # | |S_n| - 1 | (lossless) and |S_n| - 1 (lossy)
CONTINUITY_TOL = 1e-6   # near field across an interface, relative to max |u|
BIE_MODAL_TOL = 1e-6
BIE_RESIDUAL_TOL = 1e-10
OPTICAL_TOL = 1e-8
MEDIA_TOL = 1e-10
ASYMPTOTIC_KRHO = 0.13
FIT_FRACTION = 2.0 / 3.0
# Acceptance windows on the power-law exponent (criteria 1, 2 and 6).
POWER_WINDOWS = {2: (1.9, 2.1), 3: (2.9, 3.1)}
# Criterion 7: max|A| against 1/|log rho| for the 2D sound-soft family.
INVERSE_LOG_MIN_CORRELATION = 0.99


# ---------------------------------------------------------------------------
# Independent modal references
# ---------------------------------------------------------------------------
def closed_form_coeffs(dim: int, kind: str, k: float, rho: float, nmax: int) -> np.ndarray:
    """d_n of the SS/SH obstacle, 2D with the i^n factor, from scipy."""
    n = np.arange(nmax + 1)
    z = k * rho
    deriv = kind == "sh"
    with np.errstate(all="ignore"):
        if dim == 2:
            if deriv:
                num, den = special.jvp(n, z), special.h1vp(n, z)
            else:
                num, den = special.jv(n, z), special.hankel1(n, z)
            d = -(1j ** n) * num / den
        else:
            jn = special.spherical_jn(n, z, derivative=deriv)
            yn = special.spherical_yn(n, z, derivative=deriv)
            d = -jn / (jn + 1j * yn)
    # Past the overflow of H_n the ratio J/H is below any double.
    return np.where(np.isfinite(d), d, 0.0)


def smatrix(dim: int, d: np.ndarray) -> np.ndarray:
    n = np.arange(d.size)
    return 1.0 + 2.0 * d * ((-1j) ** n if dim == 2 else 1.0)


def synth_far_field(dim: int, k: float, d: np.ndarray, angles: np.ndarray) -> np.ndarray:
    n = np.arange(d.size)
    if dim == 2:
        eps = np.where(n == 0, 1.0, 2.0)
        basis = np.cos(np.outer(angles, n))
        return math.sqrt(2.0 / (math.pi * k)) * cmath.exp(-0.25j * math.pi) * (
            basis @ (eps * d * (-1j) ** n))
    basis = special.eval_legendre(n[None, :], np.cos(angles)[:, None])
    return (-1j / k) * (basis @ ((2 * n + 1) * d))


def recover_coeffs(dim: int, k: float, angles: np.ndarray, amp: np.ndarray,
                   nmax: int) -> np.ndarray:
    """Invert synth_far_field on a sampled pattern (FFT / least squares)."""
    if dim == 2:
        m = amp.size
        c = np.fft.fft(amp)[: nmax + 1] / m
        c /= math.sqrt(2.0 / (math.pi * k)) * cmath.exp(-0.25j * math.pi)
        n = np.arange(nmax + 1)
        return c * (1j ** n)
    n = np.arange(nmax + 1)
    basis = special.eval_legendre(n[None, :], np.cos(angles)[:, None])
    coef, *_ = np.linalg.lstsq(basis, amp, rcond=None)
    return coef / ((-1j / k) * (2 * n + 1))


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    return float(np.max(np.abs(a - b))) / scale if scale > 0 else float(np.max(np.abs(a)))


def check_modes(dim: int, kind: str, k: float, rho: float, d: np.ndarray,
                where: str) -> list[str]:
    """Closed form (SS/SH) and unitarity/passivity of per-mode coefficients."""
    problems = []
    if not np.all(np.isfinite(d)):
        return [f"{where}: non-finite coefficients"]
    s = np.abs(smatrix(dim, d))
    if kind in ("ss", "sh"):
        err = _rel_err(d, closed_form_coeffs(dim, kind, k, rho, d.size - 1))
        if err > COEFF_TOL:
            problems.append(f"{where}: coefficients off the closed form by {err:.2e}")
        if np.max(np.abs(s - 1.0)) > UNITARY_TOL:
            problems.append(f"{where}: unitarity defect {np.max(np.abs(s - 1.0)):.2e}")
    elif np.max(s) > 1.0 + UNITARY_TOL:
        problems.append(f"{where}: passivity violated, max |S_n| = {np.max(s):.15g}")
    return problems


# ---------------------------------------------------------------------------
# CSV readers
# ---------------------------------------------------------------------------
def read_csv(path: str) -> tuple[list[str], np.ndarray, dict]:
    """(header lines, numeric table, footer '# key,value' pairs)."""
    head, rows, footer = [], [], {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.rstrip("\n")
            if i < 2:
                head.append(line)
            elif line.startswith("# "):
                key, value = line[2:].split(",", 1)
                footer[key] = value
            elif line:
                rows.append([float(v) for v in line.split(",")])
    return head, np.asarray(rows, dtype=float), footer


def _rho_grid(count: int) -> np.ndarray:
    return tasks.RHO_START * 0.5 ** np.arange(count)


def _fit_tail(count: int) -> int:
    return min(count, max(3, int(math.ceil(FIT_FRACTION * count))))


def reference_max_amplitude(kind: str, dim: int, k: float, rhos: np.ndarray,
                            angle_count: int) -> np.ndarray:
    angles = tasks.far_angles(dim, angle_count)
    out = np.empty(rhos.size)
    for i, rho in enumerate(rhos):
        nmax = int(math.ceil(k * rho + 20))
        d = closed_form_coeffs(dim, kind, k, rho, nmax)
        out[i] = np.max(np.abs(synth_far_field(dim, k, d, angles)))
    return out


# ---------------------------------------------------------------------------
# Per-kind checks
# ---------------------------------------------------------------------------
def _check_sweep(task: dict, out: dict) -> list[str]:
    head, table, footer = read_csv(out["files"]["csv"])
    if head != ["# schema=sweep-v1", "rho,max_abs_A"]:
        return [f"sweep: unexpected header {head}"]
    count, dim, k, kind = task["rho_count"], task["dim"], task["k"], task["scheme"]
    rhos = _rho_grid(count)
    if table.shape != (count, 2) or np.any(table[:, 0] != rhos):
        return ["sweep: rho column differs from the requested grid"]
    amp = table[:, 1]
    if not np.all(np.isfinite(amp) & (amp > 0)):
        return ["sweep: max|A| not finite and positive"]
    problems = []
    with open(out["files"]["json"], encoding="utf-8") as fh:
        summary = json.load(fh)
    if (summary["rho_values"] != table[:, 0].tolist()
            or summary["max_amplitude"] != amp.tolist()
            or repr(float(summary["exponent"])) != footer.get("fitted_exponent")):
        problems.append("sweep: JSON summary disagrees with the CSV")
    if kind in ("ss", "sh"):
        err = _rel_err(amp, reference_max_amplitude(kind, dim, k, rhos, 100))
        if err > FAR_TOL:
            problems.append(f"sweep: max|A| off the closed form by {err:.2e}")
    tail = _fit_tail(count)
    fit_rho, fit_amp = rhos[count - tail:], amp[count - tail:]
    if k * fit_rho[0] > ASYMPTOTIC_KRHO:
        return problems
    exponent = float(footer["fitted_exponent"])
    if kind in ("sh", "fsh"):
        lo, hi = POWER_WINDOWS[dim]
        slope = float(np.polyfit(np.log(fit_rho), np.log(fit_amp), 1)[0])
        if not (lo <= exponent <= hi) or abs(slope - exponent) > 1e-8 * abs(slope):
            problems.append(f"sweep: exponent {exponent} (refit {slope}) "
                            f"outside [{lo}, {hi}]")
    elif dim == 2:
        corr = float(np.corrcoef(1.0 / np.abs(np.log(fit_rho)), fit_amp)[0, 1])
        if corr < INVERSE_LOG_MIN_CORRELATION:
            problems.append(f"sweep: inverse-log correlation {corr:.5f} < "
                            f"{INVERSE_LOG_MIN_CORRELATION}")
    return problems


def _check_compare(task: dict, out: dict) -> list[str]:
    head, table, _ = read_csv(out["files"]["csv"])
    if head != ["# schema=compare-v1", "rho,max_abs_A_a,max_abs_A_b,abs_diff"]:
        return [f"compare: unexpected header {head}"]
    count = task["rho_count"]
    rhos = _rho_grid(count)
    if table.shape != (count, 4) or np.any(table[:, 0] != rhos):
        return ["compare: rho column differs from the requested grid"]
    a, b, diff = table[:, 1], table[:, 2], table[:, 3]
    problems = []
    if np.max(np.abs(diff - np.abs(a - b))) > 1e-15 * np.max(np.abs(a)):
        problems.append("compare: abs_diff is not |a - b|")
    err = _rel_err(b, reference_max_amplitude(task["scheme_b"], task["dim"],
                                              task["k"], rhos, 100))
    if err > FAR_TOL:
        problems.append(f"compare: ideal-lining column off the closed form by {err:.2e}")
    start = count - _fit_tail(count)
    if not diff[-1] < diff[start]:
        problems.append("compare: the lossy lining does not approach the ideal one")
    return problems


def _check_mie(task: dict, out: dict) -> list[str]:
    head, table, _ = read_csv(out["files"]["csv"])
    if head != ["# schema=farfield-v1", "theta,re_A,im_A,abs_A"]:
        return [f"mie: unexpected header {head}"]
    dim, k, rho = task["dim"], task["k"], task["rho"]
    angles = tasks.far_angles(dim, 100)
    if table.shape != (100, 4) or np.any(table[:, 0] != angles):
        return ["mie: theta column differs from the observation grid"]
    amp = table[:, 1] + 1j * table[:, 2]
    problems = []
    if np.max(np.abs(np.abs(amp) - table[:, 3])) > 1e-15 * np.max(table[:, 3]):
        problems.append("mie: abs_A is not |A|")
    nmax = int(math.ceil(k * rho + 20))
    d = recover_coeffs(dim, k, angles, amp, nmax)
    problems += check_modes(dim, task["scheme"], k, rho, d, "mie")
    return problems


def _check_modal(task: dict, out: dict) -> list[str]:
    sol, far = out["solution"], out["far"]
    dim, k, rho, kind = task["dim"], task["k"], task["rho"], task["scheme"]
    problems = check_modes(dim, kind, k, rho, np.asarray(sol.d_n), "modal")
    if sol.truncation_tail > 1e-14:
        problems.append(f"modal: truncation tail {sol.truncation_tail:.2e}")
    angles = tasks.far_angles(dim, tasks.FAR_ANGLES)
    if far.angles.shape != angles.shape or np.any(far.angles != angles):
        problems.append("modal: far-field angles differ from the request")
    else:
        err = _rel_err(far.amplitude, synth_far_field(dim, k, sol.d_n, angles))
        if err > FAR_TOL:
            problems.append(f"modal: far field off its coefficients by {err:.2e}")
    if kind in ("fss", "fsh"):
        near = out["near"]
        if not all(np.all(np.isfinite(v)) for v in near.values()):
            problems.append("modal: non-finite near field")
        else:
            err = _rel_err(near["layer"], near["exterior"])
            if err > CONTINUITY_TOL:
                problems.append(f"modal: field jumps by {err:.2e} across |x| = rho")
        dev = out["deviation"]
        if not (math.isfinite(dev) and dev >= 0):
            problems.append(f"modal: near-field deviation {dev}")
    return problems


def optical_theorem_defect(k: float, amp: np.ndarray, forward: int) -> float:
    """2D sound-hard: int |A|^2 = -sqrt(8 pi/k) Re(e^{i pi/4} A(d)), relative."""
    lhs = 2.0 * math.pi * float(np.mean(np.abs(amp) ** 2))
    rhs = -math.sqrt(8.0 * math.pi / k) * (cmath.exp(0.25j * math.pi) * amp[forward]).real
    return abs(lhs - rhs) / abs(rhs)


def _check_bie(task: dict, out: dict) -> list[str]:
    problems = []
    amp = out["far"].amplitude
    if not out["residual"] <= BIE_RESIDUAL_TOL:
        problems.append(f"bie: residual {out['residual']:.2e}")
    if not np.all(np.isfinite(amp)):
        return problems + ["bie: non-finite far field"]
    defect = optical_theorem_defect(task["k"], amp, task["incident_index"])
    if defect > OPTICAL_TOL:
        problems.append(f"bie: optical theorem defect {defect:.2e}")
    if task["curve"] == "circle":
        err = _rel_err(amp, out["modal_far"].amplitude)
        if err > BIE_MODAL_TOL:
            problems.append(f"bie: circle differs from the modal solution by {err:.2e}")
    return problems


def cloak_rows(dim: int, cells: int, rho: float, r1: float, r2: float) -> np.ndarray:
    """Closed-form rows of ``media`` output, in the same order."""
    edges = np.linspace(-r2, r2, cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    pts = np.stack([g.ravel() for g in np.meshgrid(*([centers] * dim), indexing="ij")],
                   axis=1)
    f = np.linalg.norm(pts, axis=1)
    keep = (f >= r1) & (f <= r2)
    pts, f = pts[keep], f[keep]
    s = (r2 - r1) / (r2 - rho)
    c = (r1 - rho) * r2 / (r2 - rho)
    r = (f - c) / s
    jac = s * (f / r) ** (dim - 1)
    tang = (f / r) ** 2 / jac          # f/(s r) in 2D, 1/s in 3D
    radial = s * s / jac               # s r/f in 2D, s r^2/f^2 in 3D
    yhat = pts / f[:, None]
    sigma = (tang[:, None, None] * np.eye(dim)
             + (radial - tang)[:, None, None] * yhat[:, :, None] * yhat[:, None, :])
    q = 1.0 / jac
    iu = np.triu_indices(dim)
    return np.column_stack([pts, sigma[:, iu[0], iu[1]], q, np.zeros_like(q)])


def _check_media(task: dict, out: dict) -> list[str]:
    head, table, _ = read_csv(out["files"]["csv"])
    dim = task["dim"]
    coords = "xyz"[:dim]
    cols = list(coords) + [f"sigma_{a}{b}" for i, a in enumerate(coords)
                           for b in coords[i:]] + ["re_q", "im_q"]
    if head != ["# schema=media-v1", ",".join(cols)]:
        return [f"media: unexpected header {head}"]
    ref = cloak_rows(dim, task["cells"], task["rho"], task["r1"], task["r2"])
    if table.shape != ref.shape:
        return [f"media: {table.shape[0]} rows, closed form has {ref.shape[0]}"]
    err = float(np.max(np.abs(table - ref) / np.maximum(1.0, np.abs(ref))))
    if err > MEDIA_TOL:
        return [f"media: rows off the closed form by {err:.2e}"]
    return []


_CHECKS = {
    "sweep": _check_sweep, "compare": _check_compare, "mie": _check_mie,
    "modal": _check_modal, "bie": _check_bie, "media": _check_media,
}


def check(task: dict, out: dict) -> list[str]:
    """Problems with one task's output; [] when it is correct."""
    if "exit" in out and out["exit"] != 0:
        return [f"{task['kind']}: CLI exited with {out['exit']}"]
    try:
        return _CHECKS[task["kind"]](task, out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{task['kind']}: unreadable output ({type(exc).__name__}: {exc})"]


# ---------------------------------------------------------------------------
# Golden canary
# ---------------------------------------------------------------------------
# The four committed golden CLI cases, with the arguments the test suite uses.
GOLDEN_CASES = (
    ("golden_mie_sh.csv", ["mie", "--scheme", "sh", "--dim", "2", "--k", "2",
                           "--rho", "0.5", "--angles", "8"]),
    ("golden_sweep_ss.csv", ["sweep", "--scheme", "ss", "--dim", "2", "--k", "2",
                             "--rho-start", "0.5", "--rho-factor", "0.5",
                             "--rho-count", "5", "--angles", "36"]),
    ("golden_media.csv", ["media", "--rho", "0.5", "--r1", "2", "--r2", "3",
                          "--cells", "8"]),
    ("golden_bie_kite.csv", ["bie", "--curve", "kite", "--k", "2",
                             "--n-points", "64", "--angles", "8"]),
)
GOLDEN_TOL = 1e-10


def golden_canary(data_dir: str, work_dir: str, main) -> list[str]:
    """Re-run the golden CLI cases through ``main``; problems, or []."""
    problems = []
    for name, argv in GOLDEN_CASES:
        path = f"{work_dir}/{name}"
        code = main(argv + ["--out", path])
        if code != 0:
            problems.append(f"{name}: exit {code}")
            continue
        head, new, _ = read_csv(path)
        ref_head, ref, _ = read_csv(f"{data_dir}/{name}")
        if head != ref_head or new.shape != ref.shape:
            problems.append(f"{name}: header or shape differs")
        elif np.max(np.abs(new - ref)) > GOLDEN_TOL:
            problems.append(f"{name}: differs by {np.max(np.abs(new - ref)):.2e}")
    return problems
