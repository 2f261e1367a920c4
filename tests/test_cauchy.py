import math

import numpy as np
import pytest

from frontlab import cauchy, fbsim
from frontlab import (
    CauchyConfig,
    CauchyState,
    LatticeConvolution,
    MuLimitConfig,
    UniformGrid,
    cauchy_simulate,
    cauchy_step,
    compare_mu_limit,
    fit_slope,
    make_gaussian,
    make_laplace,
    make_power,
    make_uniform,
)
from frontlab.errors import ConfigError, DomainTooSmallError, RejectedStepError
from frontlab.fbsim import _Schedule

from .conftest import parabola_u0
from .oracles import mu_limit_by_separate_runs


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

        An FFT convolution would bury the domain-end density (1e-13 for the
        Laplace kernel here, 1e-34 for the Gaussian, 1e-81 for the uniform
        kernel) under its ~1e-16 absolute rounding floor.  At 801 nodes,
        above FFT_MIN_NODES, the Laplace kernel's convolution runs as its
        O(n) tridiagonal solve, and the uniform and Gaussian rows, which end in exact
        zeros after 5 and 192 cells, as banded sums; the textbook direct sum
        below is the reference.
        """
        grid = UniformGrid(-80.0, 80.0, 800)
        x, h = grid.nodes(), grid.spacing
        n, dt = x.size, 0.05
        w = np.full(n, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        for k in (laplace, make_uniform(1.0), make_gaussian(1.0)):
            jrow = k.density(np.arange(-(n - 1), n) * h)
            u0 = parabola_u0(5.0)(x)
            state = CauchyState(grid=grid, u=u0, t=0.0)
            conv = LatticeConvolution(k, h)
            ref = u0.copy()
            for _ in range(300):
                state = cauchy_step(state, dt, 1.0, logistic, conv)
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

    def test_dt_above_stability_bound_rejected(self, laplace, logistic):
        # the reaction bound 0.2/(d + K) is 0.1 here, as simulate checks it
        with pytest.raises(RejectedStepError, match="stability bound"):
            cauchy_simulate(_cfg(laplace, logistic, dt=3.0))
        run = cauchy_simulate(_cfg(laplace, logistic, t_max=1.0, dt=0.1))
        assert run.track.ts[-1] == pytest.approx(1.0)

    def test_domain_flag(self, laplace, logistic):
        cfg = _cfg(laplace, logistic, t_max=20.0, domain_halfwidth=30.0, u0=parabola_u0(10.0))
        run = cauchy_simulate(cfg)
        assert run.domain_too_small


class TestSchedule:
    def test_fires_at_start_multiples_and_end(self):
        s = _Schedule(1.0, 3.5)
        times = [0.0, 0.4, 1.0 - 5e-10, 1.5, 2.5, 2.9, 3.5]
        assert [s.due(t) for t in times] == [True, False, True, False, True, False, True]

    def test_end_within_its_tolerance(self):
        s = _Schedule(2.0, 3.0)
        assert [s.due(t) for t in (0.0, 2.0, 3.0 - 1e-11, 3.0 - 5e-13)] == [True, True, False, True]

    def test_long_step_fires_once_and_skips_ahead(self):
        s = _Schedule(0.5, 10.0)
        assert s.due(0.0) and s.due(1.7)
        assert not s.due(1.9)
        assert s.due(2.0)

    @pytest.mark.parametrize("period", [None, 0.0])
    def test_no_period_never_fires(self, period):
        s = _Schedule(period, 2.0)
        assert not any(s.due(t) for t in (0.0, 1.0, 2.0))

    @pytest.mark.parametrize("period", [-1.0, math.inf, math.nan])
    def test_bad_period_raises(self, period):
        # a negative period never passes t, so due() would loop forever
        with pytest.raises(ValueError, match="period"):
            _Schedule(period, 1.0)

    @pytest.mark.parametrize("field", ["sample_dt", "snap_dt"])
    def test_negative_period_raises_in_cauchy_simulate(self, laplace, logistic, field):
        with pytest.raises(ValueError, match="period"):
            cauchy_simulate(_cfg(laplace, logistic, t_max=1.0, **{field: -1.0}))


def _mu_shared(kernel, reaction, **kw):
    defaults = dict(
        kernel=kernel,
        reaction=reaction,
        d=1.0,
        h0=5.0,
        u0=parabola_u0(5.0),
        t_max=8.0,
        dx=0.2,
        domain_halfwidth=50.0,
        window_halfwidth=10.0,
        snap_dt=1.0,
    )
    defaults.update(kw)
    return MuLimitConfig(**defaults)


@pytest.fixture(scope="module")
def mu_limit_report(laplace, logistic):
    return compare_mu_limit([1.0, 10.0, 100.0], _mu_shared(laplace, logistic))


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
        shared = _mu_shared(laplace, logistic, t_max=1.0, domain_halfwidth=30.0)
        with pytest.raises(ValueError):
            compare_mu_limit([0.0, 1.0], shared)

    @pytest.mark.parametrize("mu", [math.inf, math.nan])
    def test_rejects_nonfinite_mu(self, laplace, logistic, monkeypatch, mu):
        # before any run: an infinite mu gives the shared dt = 0, which every
        # run would read as unset, and nan fails inside a free-boundary step
        shared = _mu_shared(laplace, logistic, t_max=1.0, domain_halfwidth=30.0)
        steps = []
        monkeypatch.setattr(cauchy, "cauchy_step", lambda *a, **kw: steps.append(a))
        with pytest.raises(ValueError, match="finite"):
            compare_mu_limit([1.0, mu], shared)
        assert steps == []

    @pytest.mark.parametrize("snap_dt", [0.0, -1.0])
    def test_rejects_nonpositive_snap_dt(self, laplace, logistic, monkeypatch, snap_dt):
        # a schedule that never fires would compare nothing and report zero
        # excess for every mu
        shared = _mu_shared(laplace, logistic, t_max=1.0, domain_halfwidth=30.0, snap_dt=snap_dt)
        steps = []
        monkeypatch.setattr(cauchy, "cauchy_step", lambda *a, **kw: steps.append(a))
        with pytest.raises(ValueError, match="snap_dt"):
            compare_mu_limit([1.0, 10.0], shared)
        assert steps == []

    @pytest.mark.parametrize(
        "kw",
        [{}, dict(t_max=3.7, snap_dt=1.5, dx=0.1, domain_halfwidth=30.0)],
        ids=["fixture", "end-off-schedule"],
    )
    def test_lockstep_equals_separate_runs(self, laplace, logistic, kw):
        mus = [1.0, 10.0, 100.0]
        shared = _mu_shared(laplace, logistic, **kw)
        report = compare_mu_limit(mus, shared)
        entries, dt, flagged = mu_limit_by_separate_runs(mus, shared)
        got = [(e.mu, e.sup_excess, e.sup_abs, e.h_final) for e in report.entries]
        assert got == entries
        assert report.shared_dt == dt
        assert report.domain_too_small == flagged

    def test_window_escaping_the_line_raises(self, laplace, logistic):
        # the mu = 100 front passes x = 12 before t = 6
        shared = _mu_shared(
            laplace, logistic, t_max=6.0, domain_halfwidth=12.0, window_halfwidth=5.0
        )
        with pytest.raises(ValueError, match="escaped"):
            compare_mu_limit([100.0], shared)

    def test_escape_names_the_earliest_snapshot_after_it(self, laplace, logistic, monkeypatch):
        # every run steps to t_max and is compared after it ends; an escape
        # still raises, naming the first snapshot after it, and with two runs
        # that escape at different snapshots the earlier one in either order
        shared = _mu_shared(
            laplace, logistic, t_max=6.0, domain_halfwidth=12.0, window_halfwidth=5.0
        )
        cells = round(shared.domain_halfwidth / shared.dx)
        escaped = {}

        def recorded(s, dt, d, mu, r, *, conv, step=fbsim.step):
            out = step(s, dt, d, mu, r, conv=conv)
            if out.j0 < -cells or out.j0 + out.u.size - 1 > cells:
                escaped.setdefault(mu, out.t)
            return out

        monkeypatch.setattr(fbsim, "step", recorded)

        def message(mus):
            with pytest.raises(DomainTooSmallError, match="escaped") as info:
                compare_mu_limit(mus, shared)
            return str(info.value)

        snapshot = {}
        for mu in (100.0, 30.0):
            text = message([mu])
            snapshot[mu] = math.ceil(escaped[mu] / shared.snap_dt) * shared.snap_dt
            # the escape falls strictly between two snapshots
            assert escaped[mu] < snapshot[mu] - 1e-6
            assert text.endswith(f"at t={snapshot[mu]:g}")
        assert snapshot[100.0] < snapshot[30.0]
        for mus in ([100.0, 30.0], [30.0, 100.0]):
            assert message(mus).endswith(f"at t={snapshot[100.0]:g}")

    @pytest.mark.parametrize("X, dx", [(80.05, 0.1), (80.0, 0.15), (50.0, 0.3)])
    def test_line_off_the_lattice_is_refused(self, laplace, logistic, X, dx):
        # whole-line nodes spaced 2X/round(2X/dx) miss the lattice unless X/dx
        # is whole; the comparison would then read a spurious excess
        shared = _mu_shared(laplace, logistic, t_max=1.0, dx=dx, domain_halfwidth=X)
        with pytest.raises(ConfigError, match=r"grid\.domain_halfwidth .* grid\.dx"):
            compare_mu_limit([1.0], shared)
