"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (run with -s to stream them); assertions
carry the same thresholds, so the suite is the gate.
"""

import math
import time

import numpy as np
import pytest

from frontlab import (
    NonExistence,
    OutcomeTag,
    SemiWaveParams,
    SemiWaveProfile,
    SimConfig,
    c0_curve,
    classify_outcome,
    compare_mu_limit,
    estimate_cstar,
    flux_M,
    make_laplace,
    make_power,
    measure_speed,
    principal_eigenvalue,
    simulate,
    solve_semiwave,
    truncated_speed_sequence,
)
from frontlab.cauchy import MuLimitConfig

from .conftest import parabola_u0
from .oracles import backward_ode_picard, logistic_scalar

CSTAR = 3.0 * math.sqrt(3.0) / 2.0


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"{name} {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{name}: {detail}"


def test_ac1_semiwave_oracle_equivalence(laplace, logistic):
    t0 = time.perf_counter()
    params = SemiWaveParams(depth=40.0, n_cells=4000)
    prof = solve_semiwave(1.0, 1.0, laplace, logistic, params)
    psi = backward_ode_picard(1.0, 1.0, laplace, logistic_scalar, 40.0, 4000)
    elapsed = time.perf_counter() - t0
    gap = float(np.max(np.abs(psi - prof.phi)))
    ok = gap <= 1e-4 and prof.residual < 1e-6 and elapsed < 10.0
    _report(
        "AC-1",
        ok,
        f"operator vs backward-march oracle sup-gap {gap:.2e} (<=1e-4), "
        f"residual {prof.residual:.2e} (<1e-6), {elapsed:.1f}s (<10s)",
    )


def test_ac2_cstar_consistency(laplace, logistic):
    t0 = time.perf_counter()
    params = SemiWaveParams(depth=80.0, n_cells=4000, tol_iter=1e-8)
    est = estimate_cstar(1.0, laplace, logistic, params)
    rel = abs(est - CSTAR) / CSTAR
    accept2 = isinstance(solve_semiwave(2.0, 1.0, laplace, logistic), SemiWaveProfile)
    reject3 = isinstance(solve_semiwave(3.0, 1.0, laplace, logistic), NonExistence)
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.05 and accept2 and reject3 and elapsed < 120.0
    _report(
        "AC-2",
        ok,
        f"estimate {est:.4f} vs dispersion {CSTAR:.5f} (rel {rel:.3f} <= 0.05), "
        f"accepts c=2: {accept2}, rejects c=3: {reject3}, {elapsed:.0f}s (<120s)",
    )


def test_ac3_speed_selection_structure(laplace, logistic, c0_mu1):
    cs = np.arange(0.25, 2.26, 0.25)
    Ms = []
    for c in cs:
        prof = solve_semiwave(c, 1.0, laplace, logistic)
        Ms.append(flux_M(prof, laplace, 1.0))
    Ms = np.asarray(Ms)
    m_dec = bool(np.all(np.diff(Ms) < 0.0))
    g_inc = bool(np.all(np.diff(cs - Ms) > 0.0))
    ok = m_dec and g_inc and c0_mu1.residual < 1e-8 and 0.0 < c0_mu1.c0 < 0.5
    _report(
        "AC-3",
        ok,
        f"M decreasing: {m_dec}, G increasing: {g_inc}, "
        f"c0 = {c0_mu1.c0:.6f} in (0, 0.5), residual {c0_mu1.residual:.2e} (<1e-8)",
    )


def test_ac4_linear_spreading_speed(spreading_traj_T200, c0_mu1):
    traj = spreading_traj_T200["traj"]
    elapsed = spreading_traj_T200["seconds"]
    meas = measure_speed(traj)
    rel = abs(meas.slope_h - c0_mu1.c0) / c0_mu1.c0
    sym = float(np.max(np.abs(traj.gs + traj.hs)))
    ok = rel <= 0.10 and sym < 1e-10 and elapsed < 300.0
    _report(
        "AC-4",
        ok,
        f"slope {meas.slope_h:.5f} vs c0 {c0_mu1.c0:.5f} (rel {rel:.4f} <= 0.1), "
        f"max|g+h| {sym:.1e} (<1e-10), {elapsed:.0f}s (<300s)",
    )


def test_ac5_accelerating_spreading(logistic):
    cfg = SimConfig(
        kernel=make_power(0.8),
        reaction=logistic,
        d=1.0,
        mu=0.1,
        h0=4.0,
        u0=parabola_u0(4.0),
        t_max=200.0,
        dx=0.25,
        sample_dt=0.5,
        v_cap=2.0,
    )
    traj = simulate(cfg)
    dy = measure_speed(traj).dyadic_slopes
    increasing = all(b > a for a, b in zip(dy, dy[1:]))
    ratio = dy[-1] / dy[0]
    ok = increasing and ratio >= 2.0
    _report(
        "AC-5",
        ok,
        f"dyadic slopes {[round(s, 4) for s in dy]} strictly increasing: {increasing}, "
        f"ratio {ratio:.2f} >= 2",
    )


def test_ac6_mu_to_infinity(laplace, logistic):
    mus = [1.0, 10.0, 100.0, 1000.0]
    lap = c0_curve(mus, 1.0, laplace, logistic)
    cs = [e.solution.c0 for e in lap]
    gaps = [CSTAR - c for c in cs]
    lap_ok = all(b > a for a, b in zip(cs, cs[1:])) and all(
        b < a for a, b in zip(gaps, gaps[1:])
    )
    lap_ok = lap_ok and all(c < CSTAR for c in cs)
    pw = c0_curve(mus, 1.0, make_power(2.0), logistic)
    ps = [e.solution.c0 for e in pw]
    seps = [abs(b - a) / a for a, b in zip(ps, ps[1:])]
    pw_ok = (
        all(b > a for a, b in zip(ps, ps[1:]))
        and ps[-1] / ps[0] > 2.0
        and all(s > 0.01 for s in seps)
    )
    _report(
        "AC-6",
        lap_ok and pw_ok,
        f"thin-tail c0(mu) {[round(c, 4) for c in cs]} increasing with shrinking gap: {lap_ok}; "
        f"heavy-tail c0(mu) {[round(c, 4) for c in ps]} ratio {ps[-1]/ps[0]:.2f} > 2, "
        f"no plateau: {pw_ok}",
    )


def test_ac7_truncation_squeeze(laplace, logistic, c0_mu1):
    fat = truncated_speed_sequence(
        make_power(0.8),
        [10.0, 20.0, 40.0, 80.0],
        1.0,
        1.0,
        logistic,
        SemiWaveParams(depth=120.0, n_cells=3000, tol_iter=1e-9),
    )
    fat_cs = [e.c_n for e in fat]
    fat_ok = all(b >= a * (1.0 - 1e-6) for a, b in zip(fat_cs, fat_cs[1:])) and (
        fat_cs[-1] / fat_cs[0] > 2.0
    )
    thin = truncated_speed_sequence(laplace, [10.0, 20.0, 40.0], 1.0, 1.0, logistic)
    thin_cs = [e.c_n for e in thin]
    thin_rel = abs(thin_cs[-1] - c0_mu1.c0) / c0_mu1.c0
    thin_ok = (
        all(b >= a * (1.0 - 1e-6) for a, b in zip(thin_cs, thin_cs[1:])) and thin_rel <= 0.05
    )
    _report(
        "AC-7",
        fat_ok and thin_ok,
        f"fat-tail c_n {[round(c, 4) for c in fat_cs]} ratio "
        f"{fat_cs[-1]/fat_cs[0]:.2f} > 2: {fat_ok}; "
        f"thin-tail c_n(R=40) within {thin_rel:.2e} of untruncated (<=0.05): {thin_ok}",
    )


def test_ac8_dichotomy(spreading_traj_T200, laplace, logistic):
    spread_tag = classify_outcome(spreading_traj_T200["traj"]).tag

    vanish_cfg = SimConfig(
        kernel=laplace,
        reaction=logistic,
        d=5.0,
        mu=0.05,
        h0=0.2,
        u0=parabola_u0(0.2, amplitude=0.01),
        t_max=200.0,
        dx=0.1,
        sample_dt=0.5,
    )
    vanish_tag = classify_outcome(simulate(vanish_cfg)).tag

    half_cfg = SimConfig(
        kernel=laplace,
        reaction=logistic,
        d=1.0,
        mu=1.0,
        h0=10.0,
        u0=parabola_u0(10.0, amplitude=0.5),
        t_max=200.0,
        dx=0.1,
        sample_dt=0.5,
    )
    half_tag = classify_outcome(simulate(half_cfg)).tag

    ok = (
        spread_tag is OutcomeTag.SPREADING
        and vanish_tag is OutcomeTag.VANISHING
        and half_tag is OutcomeTag.SPREADING
    )
    _report(
        "AC-8",
        ok,
        f"reference run: {spread_tag.value}, small-range small-data run: {vanish_tag.value}, "
        f"half-amplitude run: {half_tag.value}",
    )


def test_ac9_mu_limit_comparison(laplace, logistic):
    shared = MuLimitConfig(
        kernel=laplace,
        reaction=logistic,
        d=1.0,
        h0=5.0,
        u0=parabola_u0(5.0),
        t_max=20.0,
        dx=0.1,
        domain_halfwidth=80.0,
        window_halfwidth=20.0,
        snap_dt=1.0,
    )
    report = compare_mu_limit([1.0, 10.0, 100.0], shared)
    excess_ok = all(e.sup_excess <= 5e-3 for e in report.entries)
    sups = [e.sup_abs for e in report.entries]
    dec_ok = all(b < a for a, b in zip(sups, sups[1:]))
    ok = excess_ok and dec_ok and not report.domain_too_small
    _report(
        "AC-9",
        ok,
        f"one-sided excess {[f'{e.sup_excess:.1e}' for e in report.entries]} all <= 5e-3: "
        f"{excess_ok}; sup|u_mu - u_*| {[round(s, 4) for s in sups]} decreasing: {dec_ok}",
    )


def test_ac10_invariant_suite(laplace, logistic):
    params = SemiWaveParams(depth=30.0, n_cells=1200)
    checks: dict[str, bool] = {}

    sol = solve_semiwave(1.0, 1.0, laplace, logistic, params)
    checks["monotone_iterates"] = sol.monotonicity_slip < 1e-10
    checks["spatial_monotonicity"] = bool(np.max(np.diff(sol.phi)) < params.tol_iter)

    profiles = [solve_semiwave(c, 1.0, laplace, logistic, params).phi for c in (0.5, 1.0, 1.5)]
    checks["monotone_in_c"] = all(
        np.all(a >= b - 1e-8) for a, b in zip(profiles, profiles[1:])
    )

    sigma_profiles = []
    for s in (0.0, 0.05, 0.1):
        sigma_profiles.append(solve_semiwave(1.0, 1.0, laplace, logistic, params, sigma=s).phi)
    checks["monotone_in_sigma"] = all(
        np.all(b >= a - 1e-8) for a, b in zip(sigma_profiles, sigma_profiles[1:])
    )

    bumped = np.minimum(sol.phi + 0.1, 1.0)
    again = solve_semiwave(1.0, 1.0, laplace, logistic, params, initial=bumped)
    checks["uniqueness_two_starts"] = bool(
        np.max(np.abs(again.phi - sol.phi)) <= 10.0 * params.tol_iter
    )

    rng = np.random.default_rng(5)
    x = rng.uniform(-50.0, 50.0, 200)
    checks["kernel_tail_identity"] = bool(
        np.max(np.abs(laplace.tail_mass(x) + laplace.tail_mass(-x) - 1.0)) < 1e-12
    )

    lam = principal_eigenvalue(80.0, 1.0, laplace, 1.0)
    checks["eigenvalue_limit"] = abs(lam - 1.0) <= 0.10

    coarse = simulate(
        SimConfig(
            kernel=laplace, reaction=logistic, d=1.0, mu=1.0, h0=10.0,
            u0=parabola_u0(10.0), t_max=50.0, dx=0.1, sample_dt=0.5,
        )
    )
    fine = simulate(
        SimConfig(
            kernel=laplace, reaction=logistic, d=1.0, mu=1.0, h0=10.0,
            u0=parabola_u0(10.0), t_max=50.0, dx=0.05, sample_dt=0.5,
        )
    )
    checks["refinement_consistency"] = (
        abs(coarse.hs[-1] - fine.hs[-1]) / fine.hs[-1] < 0.02
    )

    failed = [name for name, ok in checks.items() if not ok]
    _report(
        "AC-10",
        not failed,
        "all invariant properties hold" if not failed else f"failed: {failed}",
    )
