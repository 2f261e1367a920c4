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

from .fbsim import SimConfig, Snapshot, simulate, stability_dt
from .kernels import Kernel
from .numerics import LatticeConvolution, UniformGrid, trapezoid_weights
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


@dataclass(eq=False, kw_only=True)
class CauchyConfig:
    kernel: Kernel
    reaction: Reaction
    d: float
    u0: Callable[[np.ndarray], np.ndarray]
    t_max: float
    dx: float
    domain_halfwidth: float
    dt: float | None = None
    sample_dt: float = 0.5
    snap_dt: float | None = None
    level: float = 0.5
    boundary_eps: float = 1e-3


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
    k: Kernel,
    r: Reaction,
    conv: LatticeConvolution | None = None,
) -> CauchyState:
    """One explicit Euler step of u_t = d(J*u - u) + f(u) on the truncated line.

    ``conv`` is the kernel's lattice convolution at the grid spacing; a run
    passes one so the kernel row is sampled once.
    """
    n = s.u.size
    if conv is None:
        conv = LatticeConvolution(k.density, s.grid.spacing, n, k.exp_rate)
    # Always the relative-accuracy path (the recursion for an exponential
    # kernel, the direct sum otherwise): a whole-line density is
    # exponentially small toward the domain ends, and the FFT path's absolute
    # rounding floor (~1e-16 of the peak) would replace those values with
    # noise that KPP growth amplifies to O(1) within tens of time units.
    Ju = conv.direct(trapezoid_weights(n, s.grid.spacing) * s.u)
    u_new = np.maximum(s.u + dt * (d * (Ju - s.u) + r.f(s.u)), 0.0)
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


def cauchy_simulate(cfg: CauchyConfig) -> CauchyRun:
    X = cfg.domain_halfwidth
    n = max(2, int(round(2.0 * X / cfg.dx)))
    grid = UniformGrid(-X, X, n)
    x = grid.nodes()
    u = np.asarray(cfg.u0(x), dtype=float)
    half = 0.5 * X
    if np.any(u[np.abs(x) > half] > 0.0):
        raise ValueError("u0 must be compactly supported inside [-X/2, X/2]")
    state = CauchyState(grid=grid, u=u, t=0.0)
    dt = cfg.dt or stability_dt(cfg.d, cfg.reaction, cfg.dx, 0.0, 1.0, v_cap=0.0)

    conv = LatticeConvolution(cfg.kernel.density, grid.spacing, x.size, cfg.kernel.exp_rate)

    ts = [0.0]
    crossings = [_level_crossings(x, u, cfg.level)]
    snapshots: list[Snapshot] = []
    if cfg.snap_dt:
        snapshots.append(Snapshot(t=0.0, x=x, u=u.copy()))
    flagged = bool(max(u[0], u[-1]) > cfg.boundary_eps)
    next_sample = cfg.sample_dt
    next_snap = cfg.snap_dt if cfg.snap_dt else math.inf

    while state.t < cfg.t_max - 1e-12:
        step_dt = min(dt, cfg.t_max - state.t)
        state = cauchy_step(state, step_dt, cfg.d, cfg.kernel, cfg.reaction, conv)
        if max(state.u[0], state.u[-1]) > cfg.boundary_eps:
            flagged = True
        at_end = state.t >= cfg.t_max - 1e-12
        if state.t >= next_sample - 1e-9 or at_end:
            ts.append(state.t)
            crossings.append(_level_crossings(x, state.u, cfg.level))
            while next_sample <= state.t + 1e-9:
                next_sample += cfg.sample_dt
        if state.t >= next_snap - 1e-9 or (at_end and cfg.snap_dt):
            snapshots.append(Snapshot(t=state.t, x=x, u=state.u.copy()))
            while next_snap <= state.t + 1e-9:
                next_snap += cfg.snap_dt

    track = LevelSetTrack(
        lam=cfg.level,
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
    boundary_eps: float = 1e-3


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
    window_halfwidth: float


def compare_mu_limit(mus, shared: MuLimitConfig) -> MuLimitReport:
    """Free-boundary runs at each mu against one whole-line run.

    All runs share a single dt (the tightest of the individual stability
    bounds): the discrete one-sided ordering between the constrained and
    unconstrained evolutions survives only when time discretizations match.
    """
    mus = [float(m) for m in mus]
    if any(m <= 0 for m in mus):
        raise ValueError("all mu values must be positive")

    def u0_compact(x):
        out = np.asarray(shared.u0(x), dtype=float)
        return np.where(np.abs(x) < shared.h0, out, 0.0)

    m0star = max(
        float(np.max(u0_compact(np.linspace(-shared.h0, shared.h0, 2001)))),
        shared.reaction.cap_K0,
    )
    dts = [stability_dt(shared.d, shared.reaction, shared.dx, 0.0, 1.0, v_cap=0.0)]
    for m in mus:
        dts.append(stability_dt(shared.d, shared.reaction, shared.dx, m, m0star, shared.kernel))
    dt = min(dts)

    cauchy_cfg = CauchyConfig(
        kernel=shared.kernel,
        reaction=shared.reaction,
        d=shared.d,
        u0=u0_compact,
        t_max=shared.t_max,
        dx=shared.dx,
        domain_halfwidth=shared.domain_halfwidth,
        dt=dt,
        sample_dt=shared.t_max,
        snap_dt=shared.snap_dt,
        boundary_eps=shared.boundary_eps,
    )
    star = cauchy_simulate(cauchy_cfg)
    star_x = star.snapshots[0].x
    window = np.abs(star_x) <= shared.window_halfwidth + 1e-12

    entries = []
    for m in mus:
        fb_cfg = SimConfig(
            kernel=shared.kernel,
            reaction=shared.reaction,
            d=shared.d,
            mu=m,
            h0=shared.h0,
            u0=shared.u0,
            t_max=shared.t_max,
            dx=shared.dx,
            dt=dt,
            sample_dt=shared.t_max,
            snap_dt=shared.snap_dt,
        )
        traj = simulate(fb_cfg)
        if len(traj.snapshots) != len(star.snapshots):
            raise ValueError("snapshot schedules of the two solvers diverged")
        sup_excess = 0.0
        sup_abs = 0.0
        for fb_snap, st_snap in zip(traj.snapshots, star.snapshots):
            if abs(fb_snap.t - st_snap.t) > 1e-9:
                raise ValueError("snapshot times of the two solvers diverged")
            u_mu = _on_lattice(fb_snap.x, fb_snap.u, star_x, shared.dx)
            diff = (u_mu - st_snap.u)[window]
            sup_excess = max(sup_excess, float(np.max(diff, initial=0.0)))
            sup_abs = max(sup_abs, float(np.max(np.abs(diff), initial=0.0)))
        entries.append(
            MuLimitEntry(
                mu=m, sup_excess=sup_excess, sup_abs=sup_abs, h_final=float(traj.hs[-1])
            )
        )
    return MuLimitReport(
        entries=entries,
        shared_dt=dt,
        domain_too_small=star.domain_too_small,
        window_halfwidth=shared.window_halfwidth,
    )


def _on_lattice(x_sub: np.ndarray, u_sub: np.ndarray, x_full: np.ndarray, dx: float) -> np.ndarray:
    """Embed an active-window density into the full lattice (zero outside)."""
    out = np.zeros_like(x_full)
    if u_sub.size == 0:
        return out
    start = int(round((x_sub[0] - x_full[0]) / dx))
    if start < 0 or start + u_sub.size > x_full.size:
        raise ValueError("free-boundary window escaped the whole-line domain")
    out[start : start + u_sub.size] = u_sub
    return out
