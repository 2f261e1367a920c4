import gc
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from frontlab import (
    NonExistence,
    SemiWaveParams,
    SemiWaveProfile,
    TailClass,
    apply_A,
    choose_M,
    estimate_cstar,
    front_slope,
    half_level_shift,
    linear_determinacy_speed,
    make_custom,
    make_gaussian,
    make_laplace,
    make_power,
    make_uniform,
    solve_semiwave,
)
from frontlab import semiwave, speed
from frontlab.errors import NoCrossingError, NonconvergenceError, UnsupportedTailError
from frontlab.semiwave import _WORKSPACES, _workspace

from .oracles import backward_ode_picard, logistic_scalar


class TestChooseM:
    def test_reference_value(self, logistic):
        assert choose_M(1.0, 1.0, logistic) == pytest.approx(2.1)
        assert choose_M(2.0, 1.0, logistic) == pytest.approx(1.05)

    def test_inverse_in_c(self, logistic):
        assert choose_M(2.0, 1.0, logistic) == pytest.approx(
            0.5 * choose_M(1.0, 1.0, logistic)
        )

    def test_shifted_reaction_monotone(self, logistic):
        M = choose_M(0.3, 1.0, logistic)
        u = np.linspace(0.0, 1.0, 1001)
        ft = (0.3 * M - 1.0) * u + logistic.f(u)
        assert np.all(np.diff(ft) >= -1e-12)

    def test_invalid_args(self, logistic):
        with pytest.raises(ValueError):
            choose_M(0.0, 1.0, logistic)
        with pytest.raises(ValueError):
            choose_M(1.0, -1.0, logistic)


class TestOperator:
    def test_A_of_one_below_one(self, laplace, logistic, quick_params):
        M = choose_M(1.0, 1.0, logistic)
        phi1 = np.ones(quick_params.n_cells + 1)
        out = apply_A(phi1, 1.0, 1.0, laplace, logistic, M, 0.0, quick_params)
        assert np.all(out[:-1] < 1.0)
        assert out[-1] == 0.0

    def test_A_of_one_below_one_with_sigma(self, laplace, logistic, quick_params):
        M = choose_M(1.0, 1.0, logistic)
        phi1 = np.ones(quick_params.n_cells + 1)
        out = apply_A(phi1, 1.0, 1.0, laplace, logistic, M, 0.3, quick_params)
        assert np.all(out < 1.0)

    def test_monotone_in_argument(self, laplace, logistic, quick_params):
        M = choose_M(1.0, 1.0, logistic)
        rng = np.random.default_rng(3)
        hi = np.clip(np.linspace(1.0, 0.0, quick_params.n_cells + 1) + 0.1, 0.0, 1.0)
        lo = np.clip(hi - rng.uniform(0.0, 0.3, hi.size), 0.0, 1.0)
        out_hi = apply_A(hi, 1.0, 1.0, laplace, logistic, M, 0.0, quick_params)
        out_lo = apply_A(lo, 1.0, 1.0, laplace, logistic, M, 0.0, quick_params)
        assert np.all(out_lo <= out_hi + 1e-12)

    def test_zero_profile_quadrature_against_quad(self, laplace, logistic, quick_params):
        """A[0] keeps only the far-field term; compare against adaptive quadrature."""
        c = d = 1.0
        M = choose_M(c, d, logistic)
        L = quick_params.depth
        out = apply_A(
            np.zeros(quick_params.n_cells + 1), c, d, laplace, logistic, M, 0.0, quick_params
        )
        assert np.all(out[:-1] > 0.0)
        ws = _workspace(laplace, L, quick_params.n_cells)
        a = lambda y: 0.5 * math.exp(y) if y <= 0 else 1.0 - 0.5 * math.exp(-y)
        for j in (0, quick_params.n_cells // 3, 2 * quick_params.n_cells // 3):
            x = ws.x[j]
            val, _ = quad(
                lambda xi: math.exp(M * (x - xi)) * d * a(-xi - L), x, 0.0, limit=200
            )
            # piecewise-linear product quadrature carries O(h^2) interpolation error
            assert out[j] == pytest.approx(val / c, abs=2e-5)


class TestWorkspaceCache:
    def test_entry_goes_with_its_kernel(self, logistic, quick_params):
        kernel = make_laplace()
        solve_semiwave(1.0, 1.0, kernel, logistic, quick_params)
        assert kernel in _WORKSPACES
        # dead kernels left in reference cycles by earlier tests would leave
        # with this collection and be counted against this one
        gc.collect()
        held = len(_WORKSPACES)
        alive = weakref.ref(kernel)
        lattice = weakref.ref(_workspace(kernel, quick_params.depth, quick_params.n_cells).lattice)
        del kernel
        gc.collect()
        assert alive() is None and lattice() is None
        assert len(_WORKSPACES) == held - 1


class TestSolveSemiwave:
    @pytest.mark.parametrize(
        "c, d, sigma, message",
        [
            (0.0, 1.0, 0.0, "c must be positive"),
            (-1.0, 1.0, 0.0, "c must be positive"),
            (1.0, 0.0, 0.0, "d must be positive"),
            (1.0, 1.0, -0.1, "sigma must be >= 0"),
        ],
    )
    def test_invalid_args(self, laplace, logistic, c, d, sigma, message):
        with pytest.raises(ValueError, match=message):
            solve_semiwave(c, d, laplace, logistic, sigma=sigma)

    def test_reference_instance(self, laplace, logistic):
        out = solve_semiwave(1.0, 1.0, laplace, logistic)
        assert isinstance(out, SemiWaveProfile)
        assert out.phi[-1] == 0.0
        assert out.plateau_value >= 0.99
        assert out.residual < 1e-6
        assert np.all((0.0 <= out.phi) & (out.phi <= 1.0))

    def test_spatial_monotonicity(self, laplace, logistic, quick_params):
        out = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params)
        assert np.max(np.diff(out.phi)) < quick_params.tol_iter

    def test_iterates_decrease_from_upper_start(self, laplace, logistic, quick_params):
        out = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params)
        assert out.monotonicity_slip < 1e-12

    def test_rejects_above_cstar(self, laplace, logistic, quick_params):
        out = solve_semiwave(3.0, 1.0, laplace, logistic, quick_params)
        assert isinstance(out, NonExistence)
        assert out.plateau_value < 0.99

    def test_monotone_in_c(self, laplace, logistic, quick_params):
        profiles = [
            solve_semiwave(c, 1.0, laplace, logistic, quick_params).phi
            for c in (0.5, 1.0, 1.5, 2.0)
        ]
        for a, b in zip(profiles, profiles[1:]):
            assert np.all(a >= b - 1e-8)

    def test_monotone_in_sigma(self, laplace, logistic):
        sols = []
        params = SemiWaveParams(depth=30.0, n_cells=1200)
        for sigma in (0.0, 0.05, 0.1):
            sols.append(solve_semiwave(1.0, 1.0, laplace, logistic, params, sigma=sigma).phi)
        for a, b in zip(sols, sols[1:]):
            assert np.all(b >= a - 1e-8)

    def test_uniqueness_from_two_starts(self, laplace, logistic, quick_params):
        first = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params)
        bumped = np.minimum(first.phi + 0.1, 1.0)
        second = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params, initial=bumped)
        assert isinstance(second, SemiWaveProfile)
        assert np.max(np.abs(second.phi - first.phi)) <= 10.0 * quick_params.tol_iter

    def test_profiles_vanish_toward_cstar(self, laplace, logistic, quick_params):
        sups = []
        for c in (1.0, 1.5, 2.0):
            out = solve_semiwave(c, 1.0, laplace, logistic, quick_params)
            x = out.grid.nodes()
            sups.append(float(np.max(out.phi[x >= -5.0])))
        assert sups[0] > sups[1] > sups[2]

    def test_oracle_equivalence(self, laplace, logistic):
        params = SemiWaveParams(depth=40.0, n_cells=4000)
        prof = solve_semiwave(1.0, 1.0, laplace, logistic, params)
        psi = backward_ode_picard(1.0, 1.0, laplace, logistic_scalar, 40.0, 4000)
        assert float(np.max(np.abs(psi - prof.phi))) <= 1e-4


class TestHalfLevelShift:
    def test_exact_node_crossing(self, laplace, logistic, quick_params):
        prof = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params)
        synthetic = SemiWaveProfile(
            grid=prof.grid,
            phi=np.where(prof.grid.nodes() <= -2.0, 1.0, np.where(prof.grid.nodes() >= -2.0 + prof.grid.spacing, 0.0, 0.5)),
            c=1.0,
            d=1.0,
            sigma=0.0,
            iterations_used=1,
            residual=0.0,
            plateau_value=1.0,
            ode_defect=0.0,
            monotonicity_slip=0.0,
        )
        # phi hits exactly 1/2 at the node x = -2
        idx = int(np.argmin(np.abs(prof.grid.nodes() + 2.0)))
        synthetic.phi[idx] = 0.5
        l, (shifted, values) = half_level_shift(synthetic)
        assert l == pytest.approx(2.0, abs=1e-12)
        assert shifted.left == pytest.approx(prof.grid.left + l)

    def test_shifted_profile_half_at_origin(self, laplace, logistic, quick_params):
        prof = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params)
        l, (shifted, values) = half_level_shift(prof)
        xs = shifted.nodes()
        assert float(np.interp(0.0, xs, values)) == pytest.approx(0.5, abs=1e-3)

    def test_front_flattens_with_c(self, laplace, logistic, quick_params):
        ls = [
            half_level_shift(solve_semiwave(c, 1.0, laplace, logistic, quick_params))[0]
            for c in (0.5, 1.0, 1.5)
        ]
        assert ls[0] < ls[1] < ls[2]

    def test_no_crossing(self, laplace, logistic, quick_params):
        prof = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params)
        broken = SemiWaveProfile(
            grid=prof.grid,
            phi=0.25 * prof.phi,
            c=1.0,
            d=1.0,
            sigma=0.0,
            iterations_used=1,
            residual=0.0,
            plateau_value=0.25,
            ode_defect=0.0,
            monotonicity_slip=0.0,
        )
        with pytest.raises(NoCrossingError):
            half_level_shift(broken)

    def test_accepted_profile_above_the_half_level(self, laplace, logistic):
        # sigma = 0.6 pins phi(0) at 0.6, so the profile never drops below 1/2
        prof = solve_semiwave(
            1.0, 1.0, laplace, logistic, SemiWaveParams(depth=30.0, n_cells=600), sigma=0.6
        )
        assert isinstance(prof, SemiWaveProfile)
        assert prof.phi.min() >= 0.5
        with pytest.raises(NoCrossingError):
            half_level_shift(prof)


class TestFrontSlope:
    def test_negative(self, laplace, logistic, quick_params):
        prof = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params)
        assert front_slope(prof, 1.0, laplace) < 0.0

    def test_matches_finite_difference(self, laplace, logistic):
        params = SemiWaveParams(depth=40.0, n_cells=4000)
        prof = solve_semiwave(1.0, 1.0, laplace, logistic, params)
        h = prof.grid.spacing
        fd = (prof.phi[-1] - prof.phi[-2]) / h
        assert front_slope(prof, 1.0, laplace) == pytest.approx(fd, abs=5.0 * h)

    def test_linear_in_d(self, laplace, logistic, quick_params):
        prof = solve_semiwave(1.0, 1.0, laplace, logistic, quick_params)
        assert front_slope(prof, 2.0, laplace) == pytest.approx(
            2.0 * front_slope(prof, 1.0, laplace), rel=1e-12
        )


_THRESHOLD_PARAMS = SemiWaveParams(depth=30.0, n_cells=1200, max_iters=10_000)

# runs of the freezing iteration: c0 at mu = 10, and the pinned c* solve of
# the cstar-threshold workload
_FROZEN_RUNS = {
    "laplace-mu10": lambda r: speed.solve_c0(10.0, 1.0, make_laplace(), r),
    "uniform-mu10": lambda r: speed.solve_c0(10.0, 1.0, make_uniform(1.0), r),
    "threshold": lambda r: estimate_cstar(1.0, make_uniform(1.0), r, _THRESHOLD_PARAMS),
}


class TestFrozen:
    @pytest.mark.parametrize("run", sorted(_FROZEN_RUNS))
    def test_chord_slope_matches_the_every_step_slope(self, logistic, monkeypatch, run):
        runs, frozen = [], semiwave._frozen

        def recorded(*args, **kwargs):
            out = frozen(*args, **kwargs)
            runs.append((out[0].c, out[2]))
            return out

        monkeypatch.setattr(semiwave, "_frozen", recorded)
        monkeypatch.setattr(speed, "_frozen", recorded)
        _FROZEN_RUNS[run](logistic)
        monkeypatch.setattr(semiwave, "_SLOPE_EVERY", 1)
        _FROZEN_RUNS[run](logistic)
        (c_chord, it_chord), (c_newton, it_newton) = runs
        assert c_chord == pytest.approx(c_newton, rel=1e-9)
        assert it_chord <= it_newton + 3

    @pytest.mark.parametrize("run", ["laplace-mu10", "threshold"])
    def test_one_integration_per_step_plus_one_per_slope(self, logistic, monkeypatch, run):
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
        _FROZEN_RUNS[run](logistic)
        [(integrations, iterations)] = counts
        slopes = -(-iterations // semiwave._SLOPE_EVERY)  # steps 1, 1 + every, ...
        assert iterations > semiwave._SLOPE_EVERY
        assert integrations == iterations + slopes


class TestEstimateCstar:
    def test_laplace_against_dispersion_value(self, laplace, logistic):
        params = SemiWaveParams(depth=80.0, n_cells=4000, tol_iter=1e-8)
        est = estimate_cstar(1.0, laplace, logistic, params)
        exact = 3.0 * math.sqrt(3.0) / 2.0
        assert abs(est - exact) / exact <= 0.05

    def test_laplace_pinned_speed(self, laplace, logistic):
        # the regression value of the dispersion-test config: c(40) on [-80, 0]
        params = SemiWaveParams(depth=80.0, n_cells=4000, tol_iter=1e-8)
        est = estimate_cstar(1.0, laplace, logistic, params)
        assert est == pytest.approx(2.5277045671677567, rel=1e-12)

    def test_uniform_against_linear_determinacy(self, logistic):
        k = make_uniform(1.0)
        c_lin = linear_determinacy_speed(1.0, k, logistic)
        params = SemiWaveParams(depth=80.0, n_cells=4000, tol_iter=1e-8)
        est = estimate_cstar(1.0, k, logistic, params)
        assert abs(est - c_lin) / c_lin <= 0.05

    def test_unsupported_tail(self, logistic):
        with pytest.raises(UnsupportedTailError):
            estimate_cstar(1.0, make_power(2.0), logistic)
        # thin-tailed, but without an exponential-moment range to start from
        gauss = make_gaussian(1.0)
        custom = make_custom("gauss", gauss.density, gauss.tail_mass, TailClass.THIN_TAIL)
        with pytest.raises(UnsupportedTailError, match="start"):
            estimate_cstar(1.0, custom, logistic)

    def test_pinned_speed_of_the_threshold_workload(self, logistic, monkeypatch):
        # uniform R = 1 at depth 30 and 1 200 cells: one cold solve at c_lin/2,
        # then the pinned iteration; the estimate is c(15), 0.12 % above c_lin
        cold = []

        def recorded(c, *args, **kwargs):
            out = solve_semiwave(c, *args, **kwargs)
            cold.append((c, out.iterations_used))
            return out

        monkeypatch.setattr(semiwave, "solve_semiwave", recorded)
        k = make_uniform(1.0)
        params = SemiWaveParams(depth=30.0, n_cells=1200, max_iters=10_000)
        c_lin = linear_determinacy_speed(1.0, k, logistic)
        pinned = semiwave._pinned_semiwave(1.0, k, logistic, params, 0.5 * c_lin)
        assert cold == [(0.5 * c_lin, 76)]
        assert pinned.iterations_used == 1029
        assert pinned.c == pytest.approx(0.9063760890, abs=1e-9)
        assert pinned.residual <= 100 * params.tol_iter
        i = params.n_cells // 2
        assert pinned.grid.nodes()[i] == pytest.approx(-15.0, abs=1e-12)
        assert pinned.phi[i] == pytest.approx(0.5, abs=1e-9)
        assert estimate_cstar(1.0, k, logistic, params) == pinned.c

    def test_start_speed_does_not_matter(self, logistic):
        k = make_uniform(1.0)
        params = SemiWaveParams(depth=30.0, n_cells=1200, max_iters=10_000)
        c_lin = linear_determinacy_speed(1.0, k, logistic)
        slow = semiwave._pinned_semiwave(1.0, k, logistic, params, 0.5 * c_lin)
        fast = semiwave._pinned_semiwave(1.0, k, logistic, params, 0.8 * c_lin)
        assert abs(slow.c - fast.c) <= 1e-7

    def test_small_budget_raises(self, logistic):
        # the cold start takes 76 iterations, the pinned iteration 1029
        params = SemiWaveParams(depth=30.0, n_cells=1200, max_iters=500)
        with pytest.raises(NonconvergenceError, match="did not converge in 500"):
            estimate_cstar(1.0, make_uniform(1.0), logistic, params)

    def test_short_depth_raises(self, logistic):
        # a front pinned 4 units in leaves no plateau at -L = -8
        params = SemiWaveParams(depth=8.0, n_cells=800)
        with pytest.raises(NonconvergenceError, match="plateau"):
            estimate_cstar(1.0, make_uniform(1.0), logistic, params)

    @pytest.mark.parametrize("kname", ["laplace", "gaussian", "uniform"])
    def test_linear_determinacy_closed_form(self, logistic, kname):
        # min over l > 0 of [d(J-hat(l) - 1) + 1]/l with d = 1, i.e. J-hat(l)/l
        if kname == "laplace":
            # 1/(l - l^3), smallest at l = 1/sqrt(3)
            k, exact = make_laplace(), 3.0 * math.sqrt(3.0) / 2.0
        elif kname == "gaussian":
            # exp(l^2/2)/l, smallest at l = 1
            k, exact = make_gaussian(1.0), math.exp(0.5)
        else:
            # sinh(l)/l^2, smallest where tanh(l) = l/2
            lam = brentq(lambda t: math.tanh(t) - 0.5 * t, 1.0, 3.0, xtol=1e-15)
            k, exact = make_uniform(1.0), math.sinh(lam) / lam**2
        c_lin = linear_determinacy_speed(1.0, k, logistic)
        assert c_lin == pytest.approx(exact, rel=1e-12)
        # the bits of the doubling loop that grow_bracket replaced
        assert c_lin == {
            "laplace": 2.598076211353316,
            "gaussian": 1.6487212707001282,
            "uniform": 0.9052617393690582,
        }[kname]

    def test_linear_determinacy_of_a_narrow_kernel(self, logistic):
        # J_R(x) = J_1(x/R)/R has c_lin(J_R) = R c_lin(J_1).  At R = 1e-9 the
        # minimiser sits near 2.4e9, thirty-odd doublings up from 1.  From
        # R = 400 on the first probe's moment at lam = 2 is past the largest
        # float, and the bracket search halves down to the minimiser
        c_one = linear_determinacy_speed(1.0, make_uniform(1.0), logistic)
        for R in (1e-9, 400.0, 1e4):
            c_lin = linear_determinacy_speed(1.0, make_uniform(R), logistic)
            assert c_lin == pytest.approx(R * c_one, rel=1e-9), R

    def test_linear_determinacy_of_a_wide_gaussian(self, logistic):
        # exp(l^2 sd^2/2)/l is smallest at l = 1/sd; the bracket search
        # probes moments past the largest float on its way there
        c_lin = linear_determinacy_speed(1.0, make_gaussian(30.0), logistic)
        assert c_lin == pytest.approx(30.0 * math.sqrt(math.e), rel=1e-12)

    def test_linear_determinacy_doubling_is_capped(self, logistic):
        # the minimiser near 2.4e30 lies beyond BRACKET_MAX_STEPS doublings
        with pytest.raises(NonconvergenceError):
            linear_determinacy_speed(1.0, make_uniform(1e-30), logistic)
