import numpy as np
import pytest

from frontlab import (
    SemiWaveParams,
    SemiWaveProfile,
    c0_curve,
    c_of_J,
    flux_M,
    make_power,
    solve_c0,
    solve_semiwave,
)
from frontlab.errors import NoFiniteSpeedError


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

    def test_monotone_flux_functional(self, laplace, logistic, quick_params):
        cs = np.arange(0.25, 2.26, 0.25)
        Ms = []
        for c in cs:
            prof = solve_semiwave(c, 1.0, laplace, logistic, quick_params)
            Ms.append(flux_M(prof, laplace, 1.0))
        Ms = np.asarray(Ms)
        assert np.all(np.diff(Ms) < 0.0)
        assert np.all(np.diff(cs - Ms) > 0.0)

    def test_bracket_insensitive(self, laplace, logistic, quick_params):
        from frontlab import bracketed_root

        tol = 1e-9
        sol = solve_c0(1.0, 1.0, laplace, logistic, quick_params, tol=tol)

        cache = {}

        def G(c):
            if c not in cache:
                prof = solve_semiwave(c, 1.0, laplace, logistic, quick_params)
                cache[c] = c - flux_M(prof, laplace, 1.0)
            return cache[c]

        # a hand-picked bracket, different from the grown one inside solve_c0
        other = bracketed_root(G, 0.05, 0.45, tol, tol * 1e-3)
        assert abs(other - sol.c0) <= 10.0 * tol

    def test_few_semiwave_solves(self, laplace, logistic, quick_params, monkeypatch):
        import frontlab.speed

        speeds = []

        def counted(c, *args, **kwargs):
            speeds.append(c)
            return solve_semiwave(c, *args, **kwargs)

        monkeypatch.setattr(frontlab.speed, "solve_semiwave", counted)
        sol = solve_c0(1.0, 1.0, laplace, logistic, quick_params)
        # plain bisection to width tol*1e-3 = 1e-11 needs over 25 solves here
        assert len(speeds) <= 12
        assert sol.residual <= 1e-8

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

    def test_errors_recorded_not_raised(self, logistic, quick_params):
        entries = c0_curve([1.0, 2.0], 1.0, make_power(0.8), logistic, quick_params)
        assert all(e.solution is None for e in entries)
        assert all("NoFiniteSpeed" in e.error for e in entries)

    def test_increasing_in_mu(self, laplace, logistic, quick_params):
        entries = c0_curve([0.5, 1.0, 2.0], 1.0, laplace, logistic, quick_params)
        cs = [e.solution.c0 for e in entries]
        assert all(b > a for a, b in zip(cs, cs[1:]))
