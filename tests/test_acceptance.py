"""Acceptance suite: one test per criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines
and the measured values next to their required windows.
"""

import cmath
import math
import time

import numpy as np
import pytest

from nearcloak import analysis, bie, mie, specfun
from nearcloak.analysis import fit_decay, sweep
from nearcloak.media import RadialMapSpec
from nearcloak.mie import SchemeSpec, WaveParams

import oracles
from oracles import MediumSpec

K = 2.0
WAVE2 = WaveParams(K, np.array([1.0, 0.0]))
WAVE3 = WaveParams(K, np.array([1.0, 0.0, 0.0]))


def _report(criterion: str, detail: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_01_sh_rate_2d():
    t0 = time.monotonic()
    result = sweep(SchemeSpec.sound_hard(), 2, WAVE2, [0.5 ** j for j in range(3, 11)])
    elapsed = time.monotonic() - t0
    e = result.fitted_exponent
    _report("criterion 1 (2D SH rate)",
            f"exponent {e:.4f} in [1.9, 2.1], runtime {elapsed:.2f}s < 5s",
            1.9 <= e <= 2.1 and elapsed < 5.0)


def test_02_sh_rate_3d():
    t0 = time.monotonic()
    result = sweep(SchemeSpec.sound_hard(), 3, WAVE3, [0.5 ** j for j in range(3, 11)])
    elapsed = time.monotonic() - t0
    e = result.fitted_exponent
    _report("criterion 2 (3D SH rate)",
            f"exponent {e:.4f} in [2.9, 3.1], runtime {elapsed:.2f}s < 5s",
            2.9 <= e <= 3.1 and elapsed < 5.0)


def test_03_leading_order_constants():
    rho = 0.01
    rels = {}
    for dim, wave in ((2, WAVE2), (3, WAVE3)):
        sol = mie.solve(SchemeSpec.sound_hard(), dim, wave, rho)
        a_series = mie.far_field(sol, np.array([math.pi])).amplitude[0]
        a_lead = mie.leading_asymptotic(dim, wave, rho, math.pi)
        rels[dim] = abs(a_series - a_lead) / abs(a_lead)
    _report("criterion 3 (leading-order constants)",
            f"relative deviation 2D {rels[2]:.2e}, 3D {rels[3]:.2e}, both <= 5e-3",
            rels[2] <= 5e-3 and rels[3] <= 5e-3)


def test_04_special_angle_suppression():
    rhos = [0.5 ** j for j in range(7, 11)]  # k rho <= 0.0156 <= 0.02
    ok = True
    details = []
    for dim, wave in ((2, WAVE2), (3, WAVE3)):
        ratios = analysis.special_angle_suppression(dim, wave, rhos)
        factors = ratios[:-1] / ratios[1:]
        details.append(f"{dim}D factors {np.round(factors, 3)}")
        ok = ok and bool(np.all((factors >= 3.2) & (factors <= 4.8)))
    _report("criterion 4 (special-angle suppression)",
            "; ".join(details) + " all within 4 +- 20% per halving", ok)


def test_05_fsh_to_sh_coefficient_convergence():
    scheme = SchemeSpec.finite_sound_hard(c=1.0, delta=0.5, a=3.0, b=2.0)
    rhos = np.array([0.5 ** j for j in range(4, 13)])
    bound_const = math.pi * K * abs(cmath.sqrt(3 + 2j))
    slopes = {}
    bound_ok = True
    for dim, wave in ((2, WAVE2), (3, WAVE3)):
        diffs = []
        for rho in rhos:
            fsh = mie.solve(scheme, dim, wave, rho)
            sh = mie.solve(SchemeSpec.sound_hard(), dim, wave, rho)
            diff = abs(fsh.d_n[0] - sh.d_n[0])
            diffs.append(diff)
            if dim == 2 and diff > bound_const * rho ** 2.5:
                bound_ok = False
        slopes[dim] = float(np.polyfit(np.log(rhos), np.log(diffs), 1)[0])
    _report("criterion 5 (FSH->SH coefficients)",
            f"slopes 2D {slopes[2]:.3f} >= 2.4, 3D {slopes[3]:.3f} >= 3.4, "
            f"2D deviation always under pi k |alpha+i beta| rho^2.5: {bound_ok}",
            slopes[2] >= 2.4 and slopes[3] >= 3.4 and bound_ok)


def test_06_fsh_near_cloak_rate():
    scheme = SchemeSpec.finite_sound_hard()
    rhos = [0.5 ** j for j in range(3, 11)]
    e2 = sweep(scheme, 2, WAVE2, rhos).fitted_exponent
    e3 = sweep(scheme, 3, WAVE3, rhos).fitted_exponent
    _report("criterion 6 (FSH near-cloak rate)",
            f"exponent 2D {e2:.4f} in [1.9, 2.1], 3D {e3:.4f} in [2.9, 3.1]",
            1.9 <= e2 <= 2.1 and 2.9 <= e3 <= 3.1)


def test_07_ss_inverse_log_law():
    rhos = [0.5 ** j for j in range(4, 11)]
    result = sweep(SchemeSpec.sound_soft(), 2, WAVE2, rhos)
    # the criterion covers the whole stated range: fit all points
    inv = fit_decay(result, "inverse-log", keep_fraction=1.0)
    pow_ = fit_decay(result, "power-law", keep_fraction=1.0)
    corr10 = float(np.corrcoef(1.0 / np.abs(np.log10(result.rho_values)),
                               result.max_amplitude)[0, 1])
    ratio = pow_.residual / inv.residual
    _report("criterion 7 (SS inverse-log law)",
            f"correlation vs 1/|log10 rho| {corr10:.5f} >= 0.99, "
            f"power-law residual / inverse-log residual {ratio:.1f} >= 10",
            corr10 >= 0.99 and ratio >= 10.0)


def test_08_fss_approaches_ss():
    rhos = [0.5 ** j for j in range(4, 11)]
    fss = sweep(SchemeSpec.finite_sound_soft(), 2, WAVE2, rhos)
    ss = sweep(SchemeSpec.sound_soft(), 2, WAVE2, rhos)
    diff = analysis.compare_schemes(fss, ss)
    mono = bool(np.all(np.diff(diff) < 0))
    _report("criterion 8 (FSS -> SS difference)",
            f"per-rho |max A| differences {np.format_float_scientific(diff[0], 3)}"
            f" .. {np.format_float_scientific(diff[-1], 3)} monotone decreasing: {mono}",
            mono)


def test_09_bie_oracle_agreement():
    t0 = time.monotonic()
    angles = 2 * math.pi * np.arange(100) / 100
    sol = bie.assemble_and_solve(bie.circle(0.5, 256), WAVE2)
    a_bie = bie.far_field_from_density(sol, WAVE2, angles).amplitude
    a_mie = mie.far_field(mie.solve(SchemeSpec.sound_hard(), 2, WAVE2, 0.5), angles).amplitude
    circle_err = float(np.max(np.abs(a_bie - a_mie)) / np.max(np.abs(a_mie)))
    a256 = bie.far_field_from_density(
        bie.assemble_and_solve(bie.kite(256), WAVE2), WAVE2, angles).amplitude
    a512 = bie.far_field_from_density(
        bie.assemble_and_solve(bie.kite(512), WAVE2), WAVE2, angles).amplitude
    kite_err = float(np.max(np.abs(a256 - a512)))
    elapsed = time.monotonic() - t0
    _report("criterion 9 (BIE oracle)",
            f"circle far-field error {circle_err:.2e} <= 1e-6, "
            f"kite self-convergence {kite_err:.2e} <= 1e-9, "
            f"runtime {elapsed:.2f}s < 2s",
            circle_err <= 1e-6 and kite_err <= 1e-9 and elapsed < 2.0)


def test_10_special_function_suite():
    # Wronskian, recurrence and scaled-asymptotic invariants over >= 1e4
    # random (n, z) samples, within one second.
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    samples = 0
    worst_w = worst_r = worst_a = 0.0
    while samples < 10_000:
        nmax = int(rng.integers(1, 21))
        r = rng.uniform(0.1, 30.0)
        theta = rng.uniform(0.0, math.pi)
        z = complex(r * math.cos(theta), r * math.sin(theta))
        js = specfun.bessel_j_all(nmax + 1, z)
        hs = specfun.bessel_h1_all(nmax + 1, z)
        djs = specfun.derivative_all(js, z)
        dhs = specfun.derivative_all(hs, z)
        ref = specfun.scaled(2j / (math.pi * z), 0.0)
        # orders 0..nmax-1
        w = js[:nmax] * dhs[:nmax] - djs[:nmax] * hs[:nmax]
        worst_w = max(worst_w, float(np.max(np.abs(((w - ref) / ref).to_complex()))))
        # orders 1..nmax-1: f_{n-1} + f_{n+1} = (2n/z) f_n
        n = np.arange(1, nmax)
        for seq in (js, hs):
            lower, upper = seq[:nmax - 1], seq[2:nmax + 1]
            rhs = seq[1:nmax] * (2.0 * n / z)
            scale = np.maximum(np.maximum(lower.abs_log(), upper.abs_log()), rhs.abs_log())
            err = np.exp((lower + upper - rhs).abs_log() - scale)  # 0 where exact
            worst_r = max(worst_r, float(np.max(err, initial=0.0)))
        samples += 2 * nmax
    # scaled-asymptotic agreement for Im z >= 15
    for _ in range(200):
        n = int(rng.integers(0, 3))
        z = complex(rng.uniform(0, 200), rng.uniform(15, 200))
        hn = specfun.bessel_h1_all(n, z)[n]
        lead = (specfun.scaled(cmath.sqrt(2 / (math.pi * z)), 0.0)
                * specfun.scaled(cmath.exp(1j * (z.real - n * math.pi / 2 - math.pi / 4)),
                                 -z.imag))
        worst_a = max(worst_a, abs(((hn - lead) / lead).to_complex()) * abs(z) / 10.0)
        jn = specfun.bessel_j_all(n, z)[n]
        jlead = (specfun.scaled(cmath.sqrt(1 / (2 * math.pi * z)), 0.0)
                 * specfun.scaled(cmath.exp(1j * (-z.real + n * math.pi / 2 + math.pi / 4)),
                                  abs(z.imag)))
        worst_a = max(worst_a, abs(((jn - jlead) / jlead).to_complex()) * abs(z) / 10.0)
    elapsed = time.monotonic() - t0
    _report("criterion 10 (special functions)",
            f"{samples} (n, z) samples: worst Wronskian {worst_w:.2e} <= 1e-9, "
            f"worst recurrence {worst_r:.2e} <= 1e-9, asymptotic margin "
            f"{worst_a:.2f} <= 1, runtime {elapsed:.2f}s < 1s",
            worst_w <= 1e-9 and worst_r <= 1e-9 and worst_a <= 1.0 and elapsed < 1.0)


def test_11_transformation_media_suite():
    rng = np.random.default_rng(99)
    spec = RadialMapSpec(0.5, 2.0, 3.0)
    # push-forward composition
    comp_ok = True
    for _ in range(30):
        a = rng.normal(size=(2, 2))
        med = MediumSpec(a @ a.T + 0.5 * np.eye(2),
                         complex(rng.uniform(0.5, 2), rng.uniform(0, 1)))
        m1 = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        m2 = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        if min(np.linalg.det(m1), np.linalg.det(m2)) <= 0.1:
            continue
        two = oracles.push_forward(oracles.push_forward(med, oracles.JacobianData.from_matrix(m2)),
                                   oracles.JacobianData.from_matrix(m1))
        one = oracles.push_forward(med, oracles.JacobianData.from_matrix(m1 @ m2))
        comp_ok &= bool(np.max(np.abs(two.sigma - one.sigma))
                        <= 1e-10 * np.max(np.abs(one.sigma)))
    # bijectivity
    bij_ok = True
    for _ in range(40):
        x = rng.normal(size=2)
        x *= rng.uniform(spec.rho, spec.r2) / np.linalg.norm(x)
        back = oracles.radial_blowup_inverse(spec, oracles.radial_blowup(spec, x))
        bij_ok &= bool(np.max(np.abs(back - x)) <= 1e-12 * np.linalg.norm(x))
    # SPD sampling
    spd_ok = True
    for _ in range(40):
        y = rng.normal(size=2)
        y *= rng.uniform(spec.r1 + 1e-9, spec.r2) / np.linalg.norm(y)
        spd_ok &= oracles.cloak_medium_at(spec, y).sigma_min > 0
    # 1/rho growth of the largest eigenvalue at fixed |y| just above R1
    rhos = 0.5 ** np.arange(2, 9)
    y = np.array([2.0 + 1e-9, 0.0])
    eigs = [oracles.cloak_medium_at(RadialMapSpec(r, 2.0, 3.0), y).sigma_max
            for r in rhos]
    slope = float(np.polyfit(np.log(rhos), np.log(eigs), 1)[0])
    _report("criterion 11 (transformation media)",
            f"composition {comp_ok}, bijectivity {bij_ok}, SPD {spd_ok}, "
            f"largest-eigenvalue slope {slope:.3f} = -1 +- 0.1",
            comp_ok and bij_ok and spd_ok and abs(slope + 1.0) <= 0.1)
