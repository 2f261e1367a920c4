import math
from dataclasses import replace

import numpy as np
import pytest

from frontlab import (
    NonExistence,
    SemiWaveParams,
    SemiWaveProfile,
    TailClass,
    adjust_for_truncation,
    c0_curve,
    c_of_J,
    flux_M,
    linear_determinacy_speed,
    make_custom,
    make_gaussian,
    make_laplace,
    make_power,
    make_uniform,
    solve_c0,
    solve_semiwave,
    truncate,
)
from frontlab import semiwave, speed
from frontlab.errors import DivergentIntegralError, NoFiniteSpeedError, NonconvergenceError

from .oracles import laplace_c0_exact

_KERNELS = {
    "laplace": make_laplace,
    "gaussian": make_gaussian,
    "uniform": make_uniform,
    "power2": lambda: make_power(2.0),
}


def _synthetic_profile(template: SemiWaveProfile, values: np.ndarray) -> SemiWaveProfile:
    return SemiWaveProfile(
        grid=template.grid,
        phi=values,
        c=template.c,
        d=template.d,
        sigma=0.0,
        iterations_used=1,
        residual=0.0,
        plateau_value=float(values[0]),
        ode_defect=0.0,
        monotonicity_slip=0.0,
    )


class TestFluxM:
    def test_zero_profile(self, laplace, logistic, quick_params):
        prof = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params)
        zero = _synthetic_profile(prof, np.zeros_like(prof.phi))
        assert flux_M(zero, laplace, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_plateau_profile_gives_flux_constant(self, laplace, logistic, quick_params):
        prof = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params)
        ones = _synthetic_profile(prof, np.ones_like(prof.phi))
        # profile-grid trapezoid vs the dense flux-constant quadrature
        assert flux_M(ones, laplace, 1.0) == pytest.approx(c_of_J(laplace), rel=1e-4)

    def test_accepted_profile_bounded(self, laplace, logistic, quick_params):
        prof = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params)
        val = flux_M(prof, laplace, 1.0)
        assert 0.0 < val < 0.5

    def test_fat_tail_rejected(self, laplace, logistic, quick_params):
        prof = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params)
        with pytest.raises(NoFiniteSpeedError):
            flux_M(prof, make_power(0.8), 1.0)

    def test_kernel_without_tail_integral_raises(self, logistic, quick_params):
        lap = make_laplace()
        k = make_custom("laplace-tail-only", lap.density, lap.tail_mass, TailClass.THIN_TAIL)
        prof = solve_semiwave(1.0, 1.0, k, logistic, quick_params)
        with pytest.raises(DivergentIntegralError):
            flux_M(prof, k, 1.0)


class TestSolveC0:
    def test_reference_instance(self, c0_mu1):
        assert c0_mu1.residual < 1e-8
        assert 0.0 < c0_mu1.c0 < 0.5
        assert c0_mu1.c0 < c0_mu1.flux_constant

    def test_against_dense_sampling_of_G(self, laplace, logistic, c0_mu1, quick_params):
        """Bracket the root independently by scanning G on a coarse grid."""
        cs = np.linspace(0.05, 0.45, 21)
        gs = []
        for c in cs:
            prof = solve_semiwave(c, 1.0, laplace, logistic, quick_params)
            gs.append(c - flux_M(prof, laplace, 1.0))
        gs = np.asarray(gs)
        sign_change = np.nonzero(np.diff(np.sign(gs)) > 0)[0]
        assert sign_change.size == 1
        lo, hi = cs[sign_change[0]], cs[sign_change[0] + 1]
        assert lo <= c0_mu1.c0 <= hi

    def test_small_mu_upper_bound(self, laplace, logistic):
        sol = solve_c0(1e-3, 1.0, laplace, logistic)
        assert sol.c0 < 1e-3 * 0.5 + 1e-12
        assert sol.residual < 1e-8

    def test_fat_tail_has_no_finite_speed(self, logistic):
        with pytest.raises(NoFiniteSpeedError):
            solve_c0(1.0, 1.0, make_power(0.8), logistic)

    def test_flux_reads_the_solver_quadrature(self, logistic, quick_params):
        # flux_M sums the workspace's weights: no tail evaluation per call
        k, calls = make_laplace(), []
        tail = k.tail_mass
        k.tail_mass = lambda x: calls.append(x) or tail(x)
        prof = solve_semiwave(0.5, 1.0, k, logistic, quick_params)
        before = len(calls)
        assert flux_M(prof, k, 1.0) == flux_M(prof, k, 1.0) > 0.0
        assert len(calls) == before

    def test_monotone_flux_functional(self, laplace, logistic, quick_params):
        cs = np.arange(0.25, 2.26, 0.25)
        Ms = []
        for c in cs:
            prof = solve_semiwave(c, 1.0, laplace, logistic, quick_params)
            Ms.append(flux_M(prof, laplace, 1.0))
        Ms = np.asarray(Ms)
        assert np.all(np.diff(Ms) < 0.0)
        assert np.all(np.diff(cs - Ms) > 0.0)

    @pytest.mark.parametrize(
        "kname, mu",
        [
            ("laplace", 1e-3),
            ("laplace", 1.0),
            ("laplace", 100.0),
            ("gaussian", 1.0),
            ("uniform", 10.0),
            ("power2", 1.0),
            ("power2", 10.0),
            ("truncated", 1.0),
        ],
        ids=lambda v: f"mu{v:g}" if isinstance(v, float) else v,
    )
    def test_bracket_insensitive(self, logistic, quick_params, kname, mu):
        """The frozen iteration agrees with a root finder over monotone solves."""
        from frontlab import bracketed_root

        d, r = 1.0, logistic
        if kname == "truncated":
            # the problem truncated_speed_sequence solves at radius 10
            tk = truncate(make_power(0.8), 10.0)
            adj = adjust_for_truncation(logistic, tk.sigma_n, d)
            k, r = tk.normalized(), adj.to_unit_reaction()
            mu, d = mu * tk.sigma_n * adj.eta_n, d * tk.sigma_n
        else:
            k = _KERNELS[kname]()
        tol = 1e-9
        sol = solve_c0(mu, d, k, r, quick_params, tol=tol)

        def G(c):
            prof = solve_semiwave(c, d, k, r, quick_params)
            assert prof.accepted, f"no semi-wave at c = {c}"
            return c - flux_M(prof, k, mu)

        # a bracket around c0 in which every speed lies below the threshold c*
        other = bracketed_root(G, 0.5 * sol.c0, 1.5 * sol.c0, tol * 1e-3)
        assert abs(other - sol.c0) <= 10.0 * tol
        assert sol.residual <= tol

    def test_few_semiwave_solves(self, laplace, logistic, quick_params, monkeypatch):
        speeds = []

        def counted(c, *args, **kwargs):
            speeds.append(c)
            return solve_semiwave(c, *args, **kwargs)

        monkeypatch.setattr(speed, "solve_semiwave", counted)
        sol = solve_c0(1.0, 1.0, laplace, logistic, quick_params)
        # the certificate at c0 is the only monotone solve
        assert speeds == [sol.c0]
        assert sol.residual <= 1e-8

    def test_max_iters_bounds_the_frozen_iteration(self, laplace, logistic):
        # the frozen iteration takes 38 iterations and the certificate 19
        params = SemiWaveParams(depth=30.0, n_cells=1200, max_iters=38)
        sol = solve_c0(1.0, 1.0, laplace, logistic, params)
        assert sol.c0 == pytest.approx(0.2717034943215537, rel=1e-11)
        assert sol.profile.iterations_used == 19
        with pytest.raises(NonconvergenceError, match="did not converge in 37 iterations"):
            solve_c0(1.0, 1.0, laplace, logistic, replace(params, max_iters=37))

    def test_few_applications_at_large_mu(self, laplace, logistic, monkeypatch):
        # Laplace mu = 1000 applies the operator in 91 frozen iterations, then
        # 201 times in the certificate, whose start sits 1e3*tol_iter above
        # the frozen profile
        iterations = []

        def recorded(*args, **kwargs):
            out = semiwave._frozen(*args, **kwargs)
            iterations.append(out[2])
            return out

        monkeypatch.setattr(speed, "_frozen", recorded)
        sol = solve_c0(1000.0, 1.0, laplace, logistic)
        assert sol.residual <= 1e-8
        assert iterations == [91]
        assert sol.profile.iterations_used == 201

    @pytest.mark.parametrize("verdict", ["nonexistence", "wrong-profile"])
    def test_rejected_certificate_raises(
        self, laplace, logistic, quick_params, monkeypatch, verdict
    ):
        def polished(c, *args, **kwargs):
            if verdict == "nonexistence":
                return NonExistence(
                    c=c, plateau_value=0.5, residual=1.0, iterations_used=1, reason="rejected"
                )
            # an accepted profile, but at half the speed: its flux is not c0's
            return solve_semiwave(0.5 * c, *args)

        monkeypatch.setattr(speed, "solve_semiwave", polished)
        with pytest.raises(NonconvergenceError, match="certif"):
            solve_c0(1.0, 1.0, laplace, logistic, quick_params)

    @pytest.mark.parametrize(
        "mu, exact", [(1e4, 2.1711320455), (1e5, 2.3075196570), (1e6, 2.3904855263)]
    )
    def test_large_mu_against_shooting(self, laplace, logistic, mu, exact):
        # exact values from ODE shooting of the Laplace reduction; the default
        # grid reads about +4.4e-6 above them
        sol = solve_c0(mu, 1.0, laplace, logistic)
        assert sol.c0 == pytest.approx(exact, rel=1e-5)

    @pytest.mark.parametrize(
        "kname, mu", [("uniform", 3000.0), ("gaussian", 5000.0), ("gaussian", 1e6)]
    )
    def test_large_mu_converges(self, logistic, kname, mu):
        k = _KERNELS[kname]()
        sol = solve_c0(mu, 1.0, k, logistic)
        assert sol.residual <= 1e-8
        assert sol.c0 < linear_determinacy_speed(1.0, k, logistic)

    def test_small_mu_is_linear_in_mu(self, laplace, logistic):
        # c0 ~ mu*M(0+) as mu -> 0
        slopes = [solve_c0(mu, 1.0, laplace, logistic).c0 / mu for mu in (1e-9, 1e-7)]
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-6)

    def test_workspace_rounding(self):
        # 0 on the relative-accuracy paths (exponential, banded), a few eps on
        # the FFT path
        eps = np.finfo(float).eps
        params = SemiWaveParams()
        for make, lo, hi in [(make_laplace, 0.0, 0.0), (make_uniform, 0.0, 0.0),
                             (make_gaussian, eps, 16 * eps)]:
            k = make()
            ws = semiwave._workspace(k, params.resolve_depth(k), params.n_cells)
            assert lo <= ws.rounding <= hi

    def test_tolerance_floor_at_huge_mu(self, logistic, monkeypatch):
        # at mu = 1e6, 0.1*tol/(mu*c(J)) = 3.1e-15 for the power kernel lies
        # below where its steps stall, so without a floor the budget runs out;
        # above the floor mu*c(J)*r/256 both solves converge.  The reference
        # is the solve at tol_iter = 1e-12.
        iterations = []

        def recorded(*args, **kwargs):
            out = semiwave._frozen(*args, **kwargs)
            iterations.append(out[2])
            return out

        monkeypatch.setattr(speed, "_frozen", recorded)
        sol = solve_c0(1e6, 1.0, make_power(2.0), logistic)
        assert sol.residual <= 1e-8
        assert sol.c0 == pytest.approx(7.758441755638781, rel=1e-9)
        assert iterations[0] < 1000
        assert sol.profile.iterations_used < 1000

    def test_certificate_rejects_past_the_floor(self, logistic):
        # at mu = 1e7 the Gaussian's floor leaves the certified flux residual
        # above tol: both solves converge, and the certificate rejects
        with pytest.raises(NonconvergenceError, match="leaves residual"):
            solve_c0(1e7, 1.0, make_gaussian(), logistic)

    @pytest.mark.parametrize("target", ["c0", "pinned"])
    def test_frozen_integrates_twice_per_iteration(
        self, laplace, logistic, quick_params, monkeypatch, target
    ):
        # one integration at the speed, one (a suffix for the pin) at speed + dc
        calls, counts = [], []
        integrate, frozen = semiwave._Operator.integrate, semiwave._frozen
        monkeypatch.setattr(
            semiwave._Operator, "integrate", lambda A, w: calls.append(w.size) or integrate(A, w)
        )

        def counted(*args, **kwargs):
            before = len(calls)
            out = frozen(*args, **kwargs)
            counts.append((len(calls) - before, out[2]))
            return out

        monkeypatch.setattr(semiwave, "_frozen", counted)
        monkeypatch.setattr(speed, "_frozen", counted)
        if target == "c0":
            solve_c0(1.0, 1.0, laplace, logistic, quick_params)
        else:
            k = make_uniform(1.0)
            c_lin = linear_determinacy_speed(1.0, k, logistic)
            semiwave._pinned_semiwave(1.0, k, logistic, quick_params, 0.5 * c_lin)
        [(integrations, iterations)] = counts
        assert integrations <= 2 * iterations

    def test_below_minimal_wave_speed(self, c0_mu1):
        assert c0_mu1.c0 < 3.0 * np.sqrt(3.0) / 2.0

    def test_profile_attached(self, c0_mu1):
        assert isinstance(c0_mu1.profile, SemiWaveProfile)
        assert c0_mu1.profile.c == c0_mu1.c0


class TestC0Curve:
    def test_input_validation(self, laplace, logistic):
        with pytest.raises(ValueError):
            c0_curve([1.0, 0.5], 1.0, laplace, logistic)
        with pytest.raises(ValueError):
            c0_curve([-1.0, 2.0], 1.0, laplace, logistic)
        for mu in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                c0_curve([1.0, mu], 1.0, laplace, logistic)
            with pytest.raises(ValueError, match="finite"):
                solve_c0(mu, 1.0, laplace, logistic)

    def test_errors_recorded_not_raised(self, logistic, quick_params):
        entries = c0_curve([1.0, 2.0], 1.0, make_power(0.8), logistic, quick_params)
        assert all(e.solution is None for e in entries)
        assert all("NoFiniteSpeed" in e.error for e in entries)

    def test_bugs_propagate(self, laplace, logistic, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not a failed solve")

        monkeypatch.setattr(speed, "solve_c0", broken)
        with pytest.raises(TypeError, match="a bug"):
            c0_curve([1.0], 1.0, laplace, logistic)

    def test_failures_at_extreme_inputs_are_recorded(self, laplace, logistic):
        # mu = 1e300 leaves the Laplace phase flat in c (no Newton step), and
        # tol = 5e-324 leaves no positive profile tolerance; neither is a bug
        [entry] = c0_curve([1e300], 1.0, laplace, logistic)
        assert entry.error.startswith("NonconvergenceError: frozen iteration's phase is flat")
        with pytest.raises(NonconvergenceError, match="no positive profile tolerance"):
            solve_c0(1.0, 1.0, laplace, logistic, tol=5e-324)

    def test_large_mu_sweep_has_no_error(self, laplace, logistic):
        entries = c0_curve([1e2, 1e3, 1e4, 1e5, 1e6], 1.0, laplace, logistic)
        assert [e.error for e in entries] == [None] * 5
        cs = [e.solution.c0 for e in entries]
        assert all(b > a for a, b in zip(cs, cs[1:]))

    def test_increasing_in_mu(self, laplace, logistic, quick_params):
        entries = c0_curve([0.5, 1.0, 2.0], 1.0, laplace, logistic, quick_params)
        cs = [e.solution.c0 for e in entries]
        assert all(b > a for a, b in zip(cs, cs[1:]))


@pytest.fixture(scope="module")
def laplace_exact():
    """c0 of the Laplace kernel by ODE shooting, free of the lattice."""
    return {mu: laplace_c0_exact(mu, 1.0) for mu in (1.0, 10.0, 100.0)}


class TestLaplaceExact:
    @pytest.mark.parametrize("mu", [1.0, 10.0, 100.0])
    def test_default_grid_against_shooting(self, laplace, logistic, laplace_exact, mu):
        sol = solve_c0(mu, 1.0, laplace, logistic)
        assert sol.c0 == pytest.approx(laplace_exact[mu], rel=5e-5)

    def test_error_is_second_order_in_h(self, laplace, logistic, laplace_exact):
        # the errors at 4 000 and 8 000 cells read -3.55e-5 and -8.88e-6 relative
        exact = laplace_exact[1.0]
        errors = [
            solve_c0(1.0, 1.0, laplace, logistic, SemiWaveParams(n_cells=n)).c0 - exact
            for n in (4000, 8000)
        ]
        assert 3.5 <= errors[0] / errors[1] <= 4.5
