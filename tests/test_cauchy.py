import numpy as np
import pytest

from frontlab import (
    CauchyConfig,
    CauchyState,
    MuLimitConfig,
    UniformGrid,
    cauchy_simulate,
    cauchy_step,
    compare_mu_limit,
    fit_slope,
    make_laplace,
    make_power,
)

from .conftest import parabola_u0


def _cfg(kernel, reaction, **kw):
    defaults = dict(
        kernel=kernel,
        reaction=reaction,
        d=1.0,
        u0=parabola_u0(5.0),
        t_max=20.0,
        dx=0.2,
        domain_halfwidth=80.0,
        sample_dt=0.5,
    )
    defaults.update(kw)
    return CauchyConfig(**defaults)


class TestCauchyStep:
    def test_far_field_keeps_relative_accuracy(self, laplace, logistic):
        """The exponentially small leading edge must survive every step.

        An FFT convolution would bury the domain-end density (~1e-13 here)
        under its ~1e-16 absolute rounding floor.  At 801 nodes, above
        FFT_MIN_NODES, the Laplace kernel's convolution runs as its O(n)
        recursion; the textbook direct sum below is the reference.
        """
        grid = UniformGrid(-80.0, 80.0, 800)
        x, h = grid.nodes(), grid.spacing
        n, dt = x.size, 0.05
        w = np.full(n, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        jrow = laplace.density(np.arange(-(n - 1), n) * h)
        u0 = parabola_u0(5.0)(x)
        state = CauchyState(grid=grid, u=u0, t=0.0)
        ref = u0.copy()
        for _ in range(300):
            state = cauchy_step(state, dt, 1.0, laplace, logistic)
            Ju = np.convolve(w * ref, jrow)[n - 1 : 2 * n - 1]
            ref = np.maximum(ref + dt * (Ju - ref + logistic.f(ref)), 0.0)
        assert 0.0 < ref[-1] < 1e-10
        assert state.u[-1] == pytest.approx(ref[-1], rel=1e-10)
        assert state.u[0] == pytest.approx(ref[0], rel=1e-10)


class TestCauchySimulate:
    def test_equilibrium_interior(self, laplace, logistic):
        cfg = _cfg(laplace, logistic, u0=lambda x: np.where(np.abs(np.asarray(x)) <= 40.0, 1.0, 0.0), t_max=5.0)
        run = cauchy_simulate(cfg)
        x = run.final_state.grid.nodes()
        interior = np.abs(x) <= 20.0
        # equilibrium sits at 1 + O(dx^2/12 * J'') quadrature bias
        np.testing.assert_allclose(run.final_state.u[interior], 1.0, atol=5e-3)

    def test_positivity_and_symmetry(self, laplace, logistic):
        run = cauchy_simulate(_cfg(laplace, logistic, t_max=10.0))
        u = run.final_state.u
        assert np.min(u) >= 0.0
        np.testing.assert_allclose(u, u[::-1], atol=1e-12)

    def test_level_track_monotone_on_spreading_run(self, laplace, logistic):
        run = cauchy_simulate(_cfg(laplace, logistic, t_max=15.0))
        tr = run.track
        ok = ~np.isnan(tr.x_plus)
        assert np.all(np.diff(tr.x_plus[ok]) >= -1e-9)
        assert np.all(tr.x_minus[ok] <= tr.x_plus[ok])

    def test_compact_support_required(self, laplace, logistic):
        cfg = _cfg(laplace, logistic, u0=lambda x: np.maximum(0.0, 1.0 - (np.asarray(x) / 70.0) ** 2))
        with pytest.raises(ValueError):
            cauchy_simulate(cfg)

    def test_level_speed_approaches_cstar(self, laplace, logistic):
        # smaller dt: the front speed of the explicit scheme carries O(dt) bias
        cfg = _cfg(
            laplace,
            logistic,
            t_max=80.0,
            dx=0.2,
            domain_halfwidth=240.0,
            dt=0.025,
        )
        run = cauchy_simulate(cfg)
        assert not run.domain_too_small
        tr = run.track
        n2 = tr.ts.size // 2
        slope = fit_slope(tr.ts[n2:], tr.x_plus[n2:])
        cstar = 3.0 * np.sqrt(3.0) / 2.0
        assert abs(slope - cstar) / cstar <= 0.10

    def test_fat_tail_accelerates(self, logistic):
        cfg = CauchyConfig(
            kernel=make_power(0.8),
            reaction=logistic,
            d=1.0,
            u0=parabola_u0(2.0),
            t_max=6.0,
            dx=0.4,
            domain_halfwidth=400.0,
            sample_dt=0.05,
            boundary_eps=0.05,
        )
        run = cauchy_simulate(cfg)
        tr = run.track
        t_end = tr.ts[-1]
        slopes = []
        for m in range(4, 0, -1):
            a, b = t_end / 2**m, t_end / 2 ** (m - 1)
            mask = (tr.ts > a) & (tr.ts <= b) & ~np.isnan(tr.x_plus)
            slopes.append(fit_slope(tr.ts[mask], tr.x_plus[mask]))
        assert all(b > a for a, b in zip(slopes, slopes[1:]))

    def test_domain_flag(self, laplace, logistic):
        cfg = _cfg(laplace, logistic, t_max=20.0, domain_halfwidth=30.0, u0=parabola_u0(10.0))
        run = cauchy_simulate(cfg)
        assert run.domain_too_small


@pytest.fixture(scope="module")
def mu_limit_report(laplace, logistic):
    shared = MuLimitConfig(
        kernel=laplace,
        reaction=logistic,
        d=1.0,
        h0=5.0,
        u0=parabola_u0(5.0),
        t_max=8.0,
        dx=0.2,
        domain_halfwidth=50.0,
        window_halfwidth=10.0,
        snap_dt=1.0,
    )
    return compare_mu_limit([1.0, 10.0, 100.0], shared)


class TestCompareMuLimit:
    def test_one_sided_ordering(self, mu_limit_report):
        for e in mu_limit_report.entries:
            assert e.sup_excess <= 5e-3

    def test_error_decreases_with_mu(self, mu_limit_report):
        sups = [e.sup_abs for e in mu_limit_report.entries]
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_fronts_grow_with_mu(self, mu_limit_report):
        hs = [e.h_final for e in mu_limit_report.entries]
        assert all(b > a for a, b in zip(hs, hs[1:]))

    def test_rejects_bad_mu(self, laplace, logistic):
        shared = MuLimitConfig(
            kernel=laplace,
            reaction=logistic,
            d=1.0,
            h0=5.0,
            u0=parabola_u0(5.0),
            t_max=1.0,
            dx=0.2,
            domain_halfwidth=30.0,
            window_halfwidth=10.0,
        )
        with pytest.raises(ValueError):
            compare_mu_limit([0.0, 1.0], shared)
