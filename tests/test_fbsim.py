import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest
from scipy.optimize import brentq

from frontlab import (
    FieldState,
    LatticeConvolution,
    OutcomeTag,
    SimConfig,
    c_of_J,
    classify_outcome,
    make_laplace,
    make_power,
    make_uniform,
    measure_speed,
    principal_eigenvalue,
    simulate,
    stability_dt,
    step,
    truncate,
    truncated_speed_sequence,
)
from frontlab import fbsim
from frontlab.errors import (
    FrontlabError, InitialDataError, InsufficientDataError, RejectedStepError,
)
from frontlab.fbsim import FrontTrajectory, _initial_state, _quad_weighted
from frontlab.numerics import FFT_MIN_NODES

from .conftest import parabola_u0
from .oracles import dense_principal_eigenvalue, laplace_ell_star


def _small_cfg(kernel, reaction, **kw):
    defaults = dict(
        kernel=kernel,
        reaction=reaction,
        d=1.0,
        mu=1.0,
        h0=5.0,
        u0=parabola_u0(5.0),
        t_max=10.0,
        dx=0.1,
        sample_dt=0.25,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestStep:
    def test_mu_zero_freezes_boundaries(self, laplace, logistic):
        cfg = _small_cfg(laplace, logistic, mu=1.0)
        traj = simulate(cfg)
        s0 = traj.final_state
        conv = LatticeConvolution(laplace, s0.dx)
        s1 = step(s0, 0.01, 1.0, 0.0, logistic, conv=conv)
        assert s1.g == s0.g and s1.h == s0.h
        assert s1.t > s0.t

    def test_zero_density_is_stationary(self, laplace, logistic):
        s = FieldState(
            t=0.0, g=-1.0, h=1.0, dx=0.1, j0=-9, u=np.zeros(19), m0star=1.0
        )
        s1 = step(s, 0.01, 1.0, 1.0, logistic, conv=LatticeConvolution(laplace, 0.1))
        assert np.all(s1.u == 0.0)
        assert s1.g == s.g and s1.h == s.h

    def test_symmetric_single_step(self, laplace, logistic):
        cfg = _small_cfg(laplace, logistic)
        from frontlab.fbsim import _initial_state

        s = _initial_state(cfg)
        s1 = step(s, 0.01, 1.0, 1.0, logistic, conv=LatticeConvolution(laplace, 0.1))
        assert abs(s1.g + s1.h) < 1e-14
        np.testing.assert_allclose(s1.u, s1.u[::-1], atol=1e-14)

    def test_overshoot_breaks_the_density_invariant(self, laplace, logistic):
        # dt = 10 is far past the stability bound: u = 0.5 steps to a peak of
        # 1.0713, above M0* = 1
        s = FieldState(t=0.0, g=-1.0, h=1.0, dx=0.1, j0=-9, u=np.full(19, 0.5), m0star=1.0)
        with pytest.raises(FrontlabError, match=r"density invariant violated: max u = 1\.07"):
            step(s, 10.0, 1.0, 1.0, logistic, conv=LatticeConvolution(laplace, 0.1))

    def test_nan_node_breaks_the_density_invariant(self, laplace, logistic):
        u = np.full(19, 0.5)
        u[9] = np.nan
        s = FieldState(t=0.0, g=-1.0, h=1.0, dx=0.1, j0=-9, u=u, m0star=1.0)
        with pytest.raises(FrontlabError, match="density invariant violated: max u = nan"):
            step(s, 0.01, 1.0, 1.0, logistic, conv=LatticeConvolution(laplace, 0.1))

    @pytest.mark.parametrize("n", [1, 2, FFT_MIN_NODES - 1, FFT_MIN_NODES, 2559])
    def test_exponential_fluxes_match_tail_mass(self, laplace, logistic, n):
        # Laplace reads its fluxes off the convolution's end values; the same
        # kernel without exp_rate sums the tail.  mu = 1e8 makes the boundary
        # moves dwarf g and h, so g and h carry the fluxes to rounding.  The
        # tridiagonal solve's relative error grows with the nodes per decay
        # length, 1/dx = 20 here.
        dx = 0.05
        j0 = -(n // 2)
        x = (j0 + np.arange(n)) * dx
        g, h = x[0] - 0.3 * dx, x[-1] + 0.7 * dx
        u = (x - g) * (h - x) / (0.5 * (h - g)) ** 2
        s = FieldState(t=0.0, g=g, h=h, dx=dx, j0=j0, u=u, m0star=1.0)
        plain = dataclasses.replace(laplace, exp_rate=None)
        got, want = (
            step(s, 0.2 * dx, 1.0, 1e8, logistic, conv=LatticeConvolution(kk, dx))
            for kk in (laplace, plain)
        )
        assert got.h - h > 100.0 * h
        assert got.h == pytest.approx(want.h, rel=1e-14, abs=0.0)
        assert got.g == pytest.approx(want.g, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "make, per_step",
        [
            (make_laplace, 0),
            (lambda: make_power(0.8), 0),
            (lambda: truncate(make_power(0.8), 10.0), 2),
        ],
        ids=["laplace", "power0.8", "truncated"],
    )
    def test_tail_mass_calls_per_step(self, logistic, make, per_step):
        # Laplace reads its fluxes off the convolution and the power kernel off
        # its tail table; the truncated kernel's kinked tail fails the table's
        # check, so it evaluates the tail at every node, twice per step
        k = make()
        calls = []
        tail = k.tail_mass
        k.tail_mass = lambda y: calls.append(y) or tail(y)
        s = _initial_state(_small_cfg(k, logistic))
        conv = LatticeConvolution(k, s.dx)
        # h0 lies on the lattice, so the first step adds a node at each end
        # and the second samples the table again for the grown window
        for _ in range(2):
            s = step(s, 0.01, 1.0, 1.0, logistic, conv=conv)
        calls.clear()
        for _ in range(5):
            s = step(s, 0.01, 1.0, 1.0, logistic, conv=conv)
        assert len(calls) == 5 * per_step

    @pytest.mark.parametrize(
        "make, dx",
        [
            (lambda: make_uniform(1.0), 0.15),
            (lambda: truncate(make_power(0.8), 10.0), 0.1),
            (lambda: make_power(5.0), 1.0),
        ],
        ids=["uniform", "truncated", "power5-dx1"],
    )
    def test_rough_tails_keep_the_direct_sums(self, logistic, make, dx):
        # these tails fail the tail table's check (the uniform kink lies inside
        # a cell, the truncated tail is piecewise linear, and sigma = 5 is too
        # steep for 16 points per cell at dx = 1), so the step moves the
        # boundaries by the two tail sums over the nodes, bit for bit
        k = make()
        j0, n = -30, 61
        x = (j0 + np.arange(n)) * dx
        g, h = x[0] - 0.4 * dx, x[-1] + 0.8 * dx
        s = FieldState(
            t=0.0, g=g, h=h, dx=dx, j0=j0, u=(x - g) * (h - x) / (0.5 * (h - g)) ** 2,
            m0star=1.0,
        )
        tail, calls = k.tail_mass, []
        k.tail_mass = lambda y: calls.append(np.shape(y)) or tail(y)
        conv = LatticeConvolution(k, dx)
        out = step(s, 0.01, 1.0, 1.0, logistic, conv=conv)
        wu = _quad_weighted(s, x[0], x[-1])
        assert out.h == h + 0.01 * 1.0 * float(np.dot(wu, np.asarray(tail(x - h))))
        assert out.g == g - 0.01 * 1.0 * float(np.dot(wu, np.asarray(tail(g - x))))
        # the failed check is final, also for a later window the table would
        # cover: it evaluates the tail at its 10 nodes, twice, and no table
        calls.clear()
        conv.boundary_fluxes(wu[:10], conv(wu[:10]), j0, x[0] - 0.5 * dx, x[9] + 0.5 * dx)
        assert calls == [(10,), (10,)]


class TestSimulate:
    def test_fronts_monotone_and_symmetric(self, laplace, logistic):
        traj = simulate(_small_cfg(laplace, logistic))
        assert np.all(np.diff(traj.hs) >= 0.0)
        assert np.all(np.diff(traj.gs) <= 0.0)
        assert np.max(np.abs(traj.gs + traj.hs)) < 1e-10

    def test_density_bounds_and_no_clamps(self, laplace, logistic):
        traj = simulate(_small_cfg(laplace, logistic))
        state = traj.final_state
        assert traj.clamp_count == 0
        assert np.min(state.u) >= 0.0
        assert np.max(state.u) <= state.m0star * (1.0 + 0.125 * state.dx**2) + 1e-12

    def test_speed_cap_is_checked(self, logistic):
        # the accelerated preset to t = 10: its fronts reach about 0.1, past a
        # cap of 0.05 and well inside 2.0
        cfg = _small_cfg(
            make_power(0.8), logistic, mu=0.1, h0=4.0, u0=parabola_u0(4.0), dx=0.25,
            v_cap=0.05,
        )
        with pytest.warns(RuntimeWarning, match=r"reached speed 0\.1\d*, above the speed cap 0\.05"):
            simulate(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(dataclasses.replace(cfg, v_cap=2.0))

    def test_rejects_oversized_dt(self, laplace, logistic, monkeypatch):
        cfg = _small_cfg(laplace, logistic)
        bound = stability_dt(1.0, logistic, 0.1, 1.0 * 1.0 * c_of_J(laplace))
        steps = []
        monkeypatch.setattr(fbsim, "step", lambda *a, **kw: steps.append(a) or step(*a, **kw))
        with pytest.raises(RejectedStepError, match="exceeds stability bound"):
            simulate(dataclasses.replace(cfg, dt=2.0 * bound))
        assert steps == []  # checked once, before the first step
        simulate(dataclasses.replace(cfg, dt=bound, t_max=5.0 * bound))
        assert len(steps) == 5

    @pytest.mark.parametrize("field", ["sample_dt", "snap_dt"])
    def test_negative_period_raises(self, laplace, logistic, field):
        # a negative period never passes t: the schedule would loop forever
        with pytest.raises(ValueError, match="period"):
            simulate(_small_cfg(laplace, logistic, t_max=1.0, **{field: -1.0}))

    def test_u0_preconditions(self, laplace, logistic):
        cfg = _small_cfg(laplace, logistic, u0=lambda x: np.ones_like(np.asarray(x)))
        with pytest.raises(ValueError):
            simulate(cfg)

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(h0=1e-14, u0=parabola_u0(1e-14)), "no lattice nodes"),
            (dict(u0=lambda x: np.ones_like(np.asarray(x))), "vanish"),
            (dict(u0=lambda x: np.zeros_like(np.asarray(x))), "positive"),
            (dict(u0=lambda x: np.where(np.abs(x) < 0.01, np.nan, parabola_u0(5.0)(x))), "finite"),
        ],
        ids=["no-nodes", "edge", "zero-inside", "nan-inside"],
    )
    def test_u0_preconditions_are_frontlab_errors(self, laplace, logistic, kw, match):
        with pytest.raises(InitialDataError, match=match):
            simulate(_small_cfg(laplace, logistic, **kw))

    def test_unset_speed_cap_steps_at_the_front_bound(self, laplace, logistic, monkeypatch):
        # v_cap = 0 means unset, so dt keeps a front moving at mu*M0*c(J)
        # within a quarter cell, below the reaction bound at mu = 10
        cfg = _small_cfg(laplace, logistic, mu=10.0, t_max=0.05, v_cap=0.0)
        want = 0.25 * cfg.dx / (cfg.mu * _initial_state(cfg).m0star * c_of_J(laplace))
        assert want < 0.2 / (cfg.d + logistic.lipschitz_K)
        dts = []
        monkeypatch.setattr(
            fbsim, "step", lambda s, dt, *a, **kw: dts.append(dt) or step(s, dt, *a, **kw)
        )
        simulate(cfg)
        assert dts[0] == want

    def test_fat_tail_without_speed_cap_is_refused(self, logistic):
        # no a-priori front speed bound exists, and only a cap could size dt
        with pytest.raises(FrontlabError, match="double-tail"):
            simulate(_small_cfg(make_power(0.8), logistic))

    def test_snapshots_scheduled(self, laplace, logistic):
        traj = simulate(_small_cfg(laplace, logistic, snap_dt=2.5))
        times = [s.t for s in traj.snapshots]
        assert times[0] == 0.0
        assert len(times) >= 5

    def test_comparison_in_mu(self, laplace, logistic):
        t1 = simulate(_small_cfg(laplace, logistic, mu=0.5))
        t2 = simulate(_small_cfg(laplace, logistic, mu=1.5))
        # sampling times coincide only approximately; compare on shared count
        n = min(t1.hs.size, t2.hs.size)
        assert np.all(t1.hs[:n] <= t2.hs[:n] + 0.1)

    def test_comparison_in_kernel_truncation(self, laplace, logistic):
        k1 = truncate(laplace, 2.0)
        k2 = truncate(laplace, 4.0)
        t1 = simulate(_small_cfg(k1, logistic))
        t2 = simulate(_small_cfg(k2, logistic))
        tf = simulate(_small_cfg(laplace, logistic))
        n = min(t1.hs.size, t2.hs.size, tf.hs.size)
        assert np.all(t1.hs[:n] <= t2.hs[:n] + 0.1)
        assert np.all(t2.hs[:n] <= tf.hs[:n] + 0.1)

    def test_refinement_consistency(self, laplace, logistic):
        coarse = simulate(_small_cfg(laplace, logistic, h0=10.0, u0=parabola_u0(10.0), t_max=50.0))
        fine_cfg = _small_cfg(
            laplace, logistic, h0=10.0, u0=parabola_u0(10.0), t_max=50.0, dx=0.05
        )
        fine = simulate(fine_cfg)
        rel = abs(coarse.hs[-1] - fine.hs[-1]) / fine.hs[-1]
        assert rel < 0.02


class TestStabilityDt:
    def test_reaction_bound_without_a_speed(self, logistic):
        assert stability_dt(0.7, logistic, 0.05) == 0.2 / (0.7 + logistic.lipschitz_K)

    @pytest.mark.parametrize("v", [0.1, 1.0, 100.0])
    def test_speed_caps_the_reaction_bound(self, logistic, v):
        want = min(0.2 / (0.7 + logistic.lipschitz_K), 0.25 * 0.05 / v)
        assert stability_dt(0.7, logistic, 0.05, v) == want


class TestClassifyOutcome:
    def test_synthetic_vanishing(self, laplace, logistic):
        ts = np.linspace(0.0, 100.0, 201)
        traj = FrontTrajectory(
            ts=ts,
            gs=np.full_like(ts, -0.3),
            hs=np.full_like(ts, 0.3),
            snapshots=[],
            final_state=FieldState(
                t=100.0, g=-0.3, h=0.3, dx=0.1, j0=-2, u=np.full(5, 1e-9), m0star=1.0
            ),
            config=_small_cfg(laplace, logistic, h0=0.25),
        )
        assert classify_outcome(traj).tag is OutcomeTag.VANISHING

    def test_synthetic_spreading(self, laplace, logistic):
        ts = np.linspace(0.0, 100.0, 201)
        hs = 0.25 + 2.0 * ts
        n_nodes = 41
        traj = FrontTrajectory(
            ts=ts,
            gs=-hs,
            hs=hs,
            snapshots=[],
            final_state=FieldState(
                t=100.0, g=-200.25, h=200.25, dx=10.0, j0=-(n_nodes // 2),
                u=np.full(n_nodes, 0.99), m0star=1.0,
            ),
            config=_small_cfg(laplace, logistic, h0=0.25),
        )
        assert classify_outcome(traj).tag is OutcomeTag.SPREADING

    def test_synthetic_undecided(self, laplace, logistic):
        ts = np.linspace(0.0, 100.0, 201)
        hs = 5.0 + 0.5 * ts
        traj = FrontTrajectory(
            ts=ts,
            gs=-hs,
            hs=hs,
            snapshots=[],
            final_state=FieldState(
                t=100.0, g=-55.0, h=55.0, dx=1.0, j0=-54, u=np.full(109, 0.4), m0star=1.0
            ),
            config=_small_cfg(laplace, logistic, h0=5.0),
        )
        assert classify_outcome(traj).tag is OutcomeTag.UNDECIDED


class TestMeasureSpeed:
    @staticmethod
    def _traj_from(ts, hs, laplace, logistic):
        return FrontTrajectory(
            ts=ts,
            gs=-hs,
            hs=hs,
            snapshots=[],
            final_state=FieldState(
                t=float(ts[-1]), g=float(-hs[-1]), h=float(hs[-1]), dx=0.1, j0=0,
                u=np.ones(3), m0star=1.0,
            ),
            config=_small_cfg(laplace, logistic),
        )

    def test_linear_front(self, laplace, logistic):
        ts = np.linspace(0.0, 160.0, 321)
        m = measure_speed(self._traj_from(ts, 2.0 * ts, laplace, logistic))
        assert m.slope_h == pytest.approx(2.0, abs=1e-12)
        assert m.slope_g == pytest.approx(-2.0, abs=1e-12)
        np.testing.assert_allclose(m.dyadic_slopes, 2.0, atol=1e-12)

    def test_superlinear_front(self, laplace, logistic):
        ts = np.linspace(0.0, 160.0, 321)
        m = measure_speed(self._traj_from(ts, ts**1.5, laplace, logistic))
        dy = m.dyadic_slopes
        assert all(b > a for a, b in zip(dy, dy[1:]))

    def test_too_short(self, laplace, logistic):
        ts = np.linspace(0.0, 1.0, 5)
        with pytest.raises(InsufficientDataError):
            measure_speed(self._traj_from(ts, 2.0 * ts, laplace, logistic))


class TestTruncatedSpeedSequence:
    def test_thin_tail_recovers_untruncated(self, laplace, logistic, c0_mu1):
        entries = truncated_speed_sequence(laplace, [10.0, 20.0, 40.0], 1.0, 1.0, logistic)
        cs = [e.c_n for e in entries]
        assert all(b >= a * (1.0 - 1e-6) for a, b in zip(cs, cs[1:]))
        assert abs(cs[-1] - c0_mu1.c0) / c0_mu1.c0 <= 0.05

    def test_diffusion_enters_the_adjusted_equilibrium(self, laplace, logistic, quick_params):
        d = 2.0
        (entry,) = truncated_speed_sequence(laplace, [5.0], d, 1.0, logistic, quick_params)
        residual = float(logistic.f(entry.eta_n)) - d * (1.0 - entry.sigma_n) * entry.eta_n
        assert abs(residual) <= 1e-12

    def test_radii_must_increase(self, laplace, logistic):
        with pytest.raises(ValueError):
            truncated_speed_sequence(laplace, [10.0, 10.0], 1.0, 1.0, logistic)

    def test_each_radius_releases_its_kernel(self, laplace, logistic, quick_params, monkeypatch):
        # a radius's tables live as long as its kernel: the next radius must
        # not build its own while the last one's are still held
        refs, alive = [], []

        def recording_truncate(k, R):
            alive.append(sum(ref() is not None for ref in refs))
            tk = truncate(k, R)
            refs.append(weakref.ref(tk))
            return tk

        monkeypatch.setattr(fbsim, "truncate", recording_truncate)
        truncated_speed_sequence(laplace, [5.0, 10.0, 20.0], 1.0, 1.0, logistic, quick_params)
        assert alive == [0, 0, 0]
        assert all(ref() is None for ref in refs)


class TestPrincipalEigenvalue:
    def test_tiny_domain_limit(self, laplace):
        lam = principal_eigenvalue(1e-3, 1.0, laplace, 1.0)
        assert lam == pytest.approx(0.0, abs=5e-3)
        lam2 = principal_eigenvalue(1e-3, 2.0, laplace, 0.5)
        assert lam2 == pytest.approx(-1.5, abs=5e-3)

    def test_large_domain_limit(self, laplace):
        lam = principal_eigenvalue(80.0, 1.0, laplace, 1.0)
        assert 0.9 < lam < 1.0

    def test_against_dense_solver(self, laplace):
        lam = principal_eigenvalue(20.0, 1.0, laplace, 1.0)
        dense = dense_principal_eigenvalue(20.0, 1.0, laplace, 1.0, 400)
        # same operator up to the exact-mass row scaling, an O(hx^2) touch-up
        assert lam == pytest.approx(dense, abs=5e-3)

    def test_monotone_in_domain(self, laplace):
        lams = [principal_eigenvalue(ell, 1.0, laplace, 1.0) for ell in (10.0, 20.0, 40.0, 80.0)]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_invalid_ell(self, laplace):
        with pytest.raises(ValueError):
            principal_eigenvalue(0.0, 1.0, laplace, 1.0)


@pytest.mark.parametrize("d", [2.0, 5.0])
def test_eigenvalue_root_matches_laplace_ell_star(laplace, d):
    ell = brentq(lambda l: principal_eigenvalue(l, d, laplace, 1.0), 0.1, 4.0, xtol=1e-10)
    assert ell == pytest.approx(laplace_ell_star(d, 1.0), abs=1e-5)
