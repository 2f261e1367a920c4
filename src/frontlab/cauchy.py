"""Whole-line nonlocal Cauchy solver with level-set tracking.

Serves two jobs: measuring level-set speeds against the minimal traveling
wave speed, and acting as the large-permeability limit of the free-boundary
runs.  The line is truncated to [-X, X]; validity of the truncation is
monitored through the density at the endpoints rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fbsim
from .errors import ConfigError, DomainTooSmallError, InitialDataError
from .fbsim import SimConfig, Snapshot, simulate, stability_dt
from .kernels import Kernel, c_of_J
from .numerics import LatticeConvolution, UniformGrid
from .reactions import Reaction

__all__ = [
    "CauchyConfig",
    "CauchyState",
    "LevelSetTrack",
    "CauchyRun",
    "cauchy_step",
    "cauchy_simulate",
    "MuLimitConfig",
    "MuLimitReport",
    "compare_mu_limit",
]

# the level u = _LEVEL whose outermost crossings a run tracks
_LEVEL = 0.5
# a density above this at either end of the line flags the line as too short
_BOUNDARY_EPS = 1e-3


@dataclass(eq=False, kw_only=True)
class CauchyConfig:
    kernel: Kernel
    reaction: Reaction
    d: float
    u0: Callable[[np.ndarray], np.ndarray]
    t_max: float
    dx: float
    domain_halfwidth: float
    # 0 leaves each unset: dt then is the stability bound, no snapshots are stored
    dt: float = 0.0
    sample_dt: float = 0.5
    snap_dt: float = 0.0


@dataclass(eq=False, kw_only=True)
class CauchyState:
    grid: UniformGrid
    u: np.ndarray
    t: float


@dataclass(eq=False, kw_only=True)
class LevelSetTrack:
    """Outermost crossings of u = lam; NaN while the level is not attained."""

    lam: float
    ts: np.ndarray
    x_minus: np.ndarray
    x_plus: np.ndarray


@dataclass(eq=False, kw_only=True)
class CauchyRun:
    track: LevelSetTrack
    snapshots: list[Snapshot]
    final_state: CauchyState
    domain_too_small: bool
    config: CauchyConfig


def cauchy_step(
    s: CauchyState,
    dt: float,
    d: float,
    r: Reaction,
    conv: LatticeConvolution,
) -> CauchyState:
    """One explicit Euler step of u_t = d(J*u - u) + f(u) on the truncated line.

    ``conv`` is the kernel's lattice convolution at the grid spacing, built
    once per run so the kernel row is sampled once; the trapezoid weights
    are the grid's own (``UniformGrid.weights``), built once per grid.
    """
    u = s.u
    wu = s.grid.weights * u
    # Always the relative-accuracy path (the tridiagonal solve for an
    # exponential kernel, the direct sum otherwise): a whole-line density is
    # exponentially small toward the domain ends, and the FFT path's absolute
    # rounding floor (~1e-16 of the peak) would replace those values with
    # noise that KPP growth amplifies to O(1) within tens of time units.
    u_new = conv.direct(wu)
    # max(u + dt*(d*(Ju - u) + f(u)), 0), operation for operation, on the
    # convolution's storage
    u_new -= u
    u_new *= d
    u_new += r.f(u)
    u_new *= dt
    u_new += u
    np.maximum(u_new, 0.0, out=u_new)
    return CauchyState(grid=s.grid, u=u_new, t=s.t + dt)


def _level_crossings(x: np.ndarray, u: np.ndarray, lam: float) -> tuple[float, float]:
    above = u >= lam
    if not above.any():
        return math.nan, math.nan
    idx = np.nonzero(above)[0]
    i_lo, i_hi = int(idx[0]), int(idx[-1])
    dx = x[1] - x[0]
    if i_lo == 0:
        x_minus = float(x[0])
    else:
        frac = (u[i_lo] - lam) / (u[i_lo] - u[i_lo - 1])
        x_minus = float(x[i_lo] - dx * frac)
    if i_hi == u.size - 1:
        x_plus = float(x[-1])
    else:
        frac = (u[i_hi] - lam) / (u[i_hi] - u[i_hi + 1])
        x_plus = float(x[i_hi] + dx * frac)
    return x_minus, x_plus


def _initial_state(cfg: CauchyConfig) -> CauchyState:
    X = cfg.domain_halfwidth
    n = max(2, int(round(2.0 * X / cfg.dx)))
    grid = UniformGrid(-X, X, n)
    x = grid.nodes()
    u = np.asarray(cfg.u0(x), dtype=float)
    if not np.isfinite(u).all():
        raise InitialDataError("u0 must be finite")
    half = 0.5 * X
    if np.any(u[np.abs(x) > half] > 0.0):
        raise DomainTooSmallError(f"u0 must be compactly supported inside [-X/2, X/2], X = {X:g}")
    return CauchyState(grid=grid, u=u, t=0.0)


def cauchy_simulate(cfg: CauchyConfig) -> CauchyRun:
    state = _initial_state(cfg)
    x = state.grid.nodes()
    dt = fbsim._checked_dt(cfg.dt, stability_dt(cfg.d, cfg.reaction, cfg.dx))
    conv = LatticeConvolution(cfg.kernel, state.grid.spacing)

    ts, crossings = [], []
    snapshots: list[Snapshot] = []
    flagged = False
    samples = fbsim._Schedule(cfg.sample_dt, cfg.t_max)
    snaps = fbsim._Schedule(cfg.snap_dt, cfg.t_max)
    while True:
        flagged = flagged or bool(max(state.u[0], state.u[-1]) > _BOUNDARY_EPS)
        if samples.due(state.t):
            ts.append(state.t)
            crossings.append(_level_crossings(x, state.u, _LEVEL))
        if snaps.due(state.t):
            snapshots.append(Snapshot(t=state.t, x=x, u=state.u.copy()))
        if samples.ended(state.t):
            break
        step_dt = min(dt, cfg.t_max - state.t)
        state = cauchy_step(state, step_dt, cfg.d, cfg.reaction, conv)

    track = LevelSetTrack(
        lam=_LEVEL,
        ts=np.asarray(ts),
        x_minus=np.asarray([c[0] for c in crossings]),
        x_plus=np.asarray([c[1] for c in crossings]),
    )
    return CauchyRun(
        track=track,
        snapshots=snapshots,
        final_state=state,
        domain_too_small=flagged,
        config=cfg,
    )


@dataclass(eq=False, kw_only=True)
class MuLimitConfig:
    """Shared setup of the free-boundary family and its whole-line limit."""

    kernel: Kernel
    reaction: Reaction
    d: float
    h0: float
    u0: Callable[[np.ndarray], np.ndarray]
    t_max: float
    dx: float
    domain_halfwidth: float
    window_halfwidth: float
    snap_dt: float = 1.0


@dataclass(eq=False, kw_only=True)
class MuLimitEntry:
    mu: float
    sup_excess: float  # sup of (u_mu - u_star)_+ over the window
    sup_abs: float  # sup of |u_mu - u_star| over the window
    h_final: float


@dataclass(eq=False, kw_only=True)
class MuLimitReport:
    entries: list[MuLimitEntry]
    shared_dt: float
    domain_too_small: bool


def compare_mu_limit(mus, shared: MuLimitConfig) -> MuLimitReport:
    """Free-boundary runs at each mu, compared with one whole-line run.

    One ``cauchy_simulate`` run and one ``simulate`` run per mu store their
    densities whenever the snapshot schedule fires; each free-boundary
    snapshot is embedded in the whole line and compared with it on the
    window.  So ``domain_halfwidth`` must be a whole number of ``dx`` cells,
    which puts every whole-line node on the lattice; any other raises
    ``ConfigError``.  All runs share a single dt: the discrete one-sided
    ordering between the constrained and unconstrained evolutions survives
    only when time discretizations match.  The runs start from one state, so
    they share M0*, and the tightest of their stability bounds is the one at
    the front speed bound max(mus)*M0*c(J); c_of_J raises
    DivergentIntegralError on a fat tail, where that bound is infinite.

    Each free-boundary run is compared as soon as it ends and then dropped,
    so beside the whole line's snapshots at most one run's are held.  A
    window that escapes the line raises ``DomainTooSmallError`` once every
    run has ended, naming the earliest snapshot, over all runs, at which a
    window no longer fits.
    """
    mus = [float(m) for m in mus]
    if not all(0.0 < m < math.inf for m in mus):
        # before any run: an infinite mu gives dt = 0, which a run reads as unset
        raise ValueError("all mu values must be positive and finite")
    if not shared.snap_dt > 0:
        # a schedule of period 0 never fires, so nothing would be compared
        raise ValueError(f"snap_dt must be positive, got {shared.snap_dt}")
    cells = shared.domain_halfwidth / shared.dx
    if abs(cells - round(cells)) > 1e-9:
        raise ConfigError(
            [f"grid.domain_halfwidth must be a whole number of grid.dx cells, got "
             f"{shared.domain_halfwidth:g} / {shared.dx:g} = {cells:.10g}"]
        )

    def u0_compact(x):
        out = np.asarray(shared.u0(x), dtype=float)
        return np.where(np.abs(x) < shared.h0, out, 0.0)

    k, dx = shared.kernel, shared.dx
    common = dict(kernel=k, reaction=shared.reaction, d=shared.d, t_max=shared.t_max, dx=dx,
                  sample_dt=0.0, snap_dt=shared.snap_dt)
    mu_max = max(mus, default=0.0)
    start = fbsim._initial_state(SimConfig(mu=mu_max, h0=shared.h0, u0=shared.u0, **common))
    dt = stability_dt(shared.d, shared.reaction, dx, mu_max * start.m0star * c_of_J(k))

    star = cauchy_simulate(CauchyConfig(
        u0=u0_compact, domain_halfwidth=shared.domain_halfwidth, dt=dt, **common
    ))
    x = star.final_state.grid.nodes()
    window = np.abs(x) <= shared.window_halfwidth + 1e-12

    entries = []
    escaped = math.inf  # the earliest snapshot at which a window left the line
    for m in mus:
        traj = simulate(SimConfig(mu=m, h0=shared.h0, u0=shared.u0, dt=dt, **common))
        sup_excess = sup_abs = 0.0
        for fb, st in zip(traj.snapshots, star.snapshots):
            first = int(round((fb.x[0] - x[0]) / dx))
            if first < 0 or first + fb.u.size > x.size:
                escaped = min(escaped, st.t)
                break
            u_mu = np.zeros_like(x)
            u_mu[first : first + fb.u.size] = fb.u
            diff = (u_mu - st.u)[window]
            sup_excess = max(sup_excess, float(np.max(diff, initial=0.0)))
            sup_abs = max(sup_abs, float(np.max(np.abs(diff), initial=0.0)))
        entries.append(MuLimitEntry(mu=m, sup_excess=sup_excess, sup_abs=sup_abs,
                                    h_final=float(traj.final_state.h)))
        del traj  # before the next run, so one run's snapshots are held at a time
    if escaped < math.inf:
        raise DomainTooSmallError(
            f"free-boundary window escaped the whole-line domain at t={escaped:g}"
        )
    return MuLimitReport(entries=entries, shared_dt=dt, domain_too_small=star.domain_too_small)
