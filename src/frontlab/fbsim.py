"""Explicit time stepping of the nonlocal free-boundary system.

The density lives on a fixed global lattice x = j*dx; the boundaries g, h
move continuously between lattice nodes.  Integrals over [g, h] combine the
composite trapezoid rule over interior nodes with the two partial cells that
end exactly at the boundaries, where the density vanishes by definition.
Both boundary fluxes come from the run's lattice convolution
(``LatticeConvolution.boundary_fluxes``, which describes how it reads them).

A step runs in a fixed operation order: the density update performs the
floating-point operations of ``u + dt*(d*Ju - d*u + f(u))`` in that order,
in place on the convolution's result.  The order, not the storage, fixes
the bits, which keeps reruns and refactors of the step byte-identical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import FrontlabError, InitialDataError, InsufficientDataError, RejectedStepError
from .kernels import Kernel, c_of_J, truncate
from .numerics import LatticeConvolution, fit_slope
from .reactions import Reaction, adjust_for_truncation
from .semiwave import SemiWaveParams, _Workspace
from .speed import SpeedSolution, solve_c0

__all__ = [
    "FieldState",
    "FrontTrajectory",
    "Outcome",
    "OutcomeTag",
    "SimConfig",
    "Snapshot",
    "stability_dt",
    "step",
    "simulate",
    "classify_outcome",
    "measure_speed",
    "SpeedMeasurement",
    "truncated_speed_sequence",
    "TruncationEntry",
    "principal_eigenvalue",
]


@dataclass(eq=False, kw_only=True, slots=True)
class FieldState:
    """Density on the active lattice window strictly inside (g, h)."""

    t: float
    g: float
    h: float
    dx: float
    j0: int  # lattice index of the first active node
    u: np.ndarray
    m0star: float
    clamp_count: int = 0

    def positions(self) -> np.ndarray:
        return (self.j0 + np.arange(self.u.size)) * self.dx


def _active_range(g: float, h: float, dx: float) -> tuple[int, int]:
    """Lattice indices strictly inside (g, h); boundary-coincident nodes carry u=0."""
    j_lo = math.floor(g / dx + 1e-12) + 1
    j_hi = math.ceil(h / dx - 1e-12) - 1
    return j_lo, j_hi


def _quad_weighted(state: FieldState, x_0: float, x_last: float) -> np.ndarray:
    """The density times its trapezoid weights over [g, h], the two boundary
    partial cells included; ``x_0`` and ``x_last`` are the first and last
    active node.  An end weight is ``0.5*dx + 0.5*(partial cell)``, summed
    before it multiplies the density."""
    u, dx = state.u, state.dx
    if u.size == 1:
        return 0.5 * (state.h - state.g) * u
    wu = dx * u
    wu[0] = (0.5 * dx + 0.5 * (x_0 - state.g)) * u[0]
    wu[-1] = (0.5 * dx + 0.5 * (state.h - x_last)) * u[-1]
    return wu


def stability_dt(d: float, r: Reaction, dx: float, speed: float = 0.0) -> float:
    """Largest admissible explicit step: the reaction bound ``0.2/(d + K)``,
    capped at ``0.25*dx/speed`` when ``speed > 0`` so that a boundary moving
    at most that fast crosses at most a quarter cell per step."""
    dt = 0.2 / (d + r.lipschitz_K)
    if speed > 0.0:
        dt = min(dt, 0.25 * dx / speed)
    return dt


def _checked_dt(dt: float, bound: float) -> float:
    """A configured step, or the stability bound when none is set (0); a step
    above the bound raises ``RejectedStepError``."""
    dt = dt or bound
    if dt > bound * (1.0 + 1e-9):
        raise RejectedStepError(f"dt={dt} exceeds stability bound {bound}")
    return dt


def step(
    s: FieldState,
    dt: float,
    d: float,
    mu: float,
    r: Reaction,
    *,
    conv: LatticeConvolution,
) -> FieldState:
    """One explicit Euler step of density and boundaries.

    ``conv`` is the kernel's lattice convolution at spacing ``s.dx``, built
    once per run so the kernel row and tail table are sampled once, not on
    every step; it also gives both boundary fluxes.  ``dt`` is not checked
    here: the bound (``stability_dt``) is fixed over a run, so ``simulate``
    checks a configured ``dt`` once and ``compare_mu_limit`` passes its
    fastest run's bound to every run as ``SimConfig.dt``.
    """
    u, dx = s.u, s.dx
    n = u.size
    # the same products as the ends of positions()
    x_0, x_last = s.j0 * dx, (s.j0 + n - 1) * dx
    wu = _quad_weighted(s, x_0, x_last)
    # a free-boundary density vanishes at a finite slope at g and h, so the
    # FFT path's absolute rounding floor never meets an exponentially small
    # leading edge (contrast cauchy_step)
    Ju = conv(wu)
    flux_h, flux_g = conv.boundary_fluxes(wu, Ju, s.j0, s.g, s.h)

    # u + dt*(d*Ju - d*u + f(u)), operation for operation, on Ju's storage;
    # d*u goes into wu's, which the fluxes no longer need
    u_new = Ju
    u_new *= d
    u_new -= np.multiply(d, u, out=wu)
    u_new += r.f(u)
    u_new *= dt
    u_new += u
    clamps = 0
    if np.minimum.reduce(u_new) < 0.0:
        clamps = int(np.count_nonzero(u_new < 0.0))
        np.maximum(u_new, 0.0, out=u_new)
    # trapezoid convolution bias saturates the equilibrium O(dx^2/12 * J'')
    # above the continuum cap; the invariant check carries exactly that slack
    cap = s.m0star * (1.0 + 0.125 * dx * dx) + 1e-12
    peak = float(np.maximum.reduce(u_new))
    if not peak <= cap:  # a NaN node fails it too
        raise FrontlabError(f"density invariant violated: max u = {peak} > M0* = {s.m0star}")

    h_new = s.h + dt * mu * flux_h
    g_new = s.g - dt * mu * flux_g

    j_lo, j_hi = _active_range(g_new, h_new, dx)
    grow_left = s.j0 - j_lo
    grow_right = j_hi - (s.j0 + n - 1)
    if grow_left or grow_right:
        u_new = np.concatenate(
            [np.zeros(max(grow_left, 0)), u_new, np.zeros(max(grow_right, 0))]
        )
    return FieldState(
        t=s.t + dt,
        g=g_new,
        h=h_new,
        dx=dx,
        j0=j_lo,
        u=u_new,
        m0star=s.m0star,
        clamp_count=s.clamp_count + clamps,
    )


@dataclass(eq=False, kw_only=True)
class SimConfig:
    """Inputs of one free-boundary run."""

    kernel: Kernel
    reaction: Reaction
    d: float
    mu: float
    h0: float
    u0: Callable[[np.ndarray], np.ndarray]
    t_max: float
    dx: float
    # 0 leaves each unset: dt then is the stability bound, no snapshots are
    # stored, and the front speed bound is mu*M0*c(J)
    dt: float = 0.0
    sample_dt: float = 0.5
    snap_dt: float = 0.0
    v_cap: float = 0.0


@dataclass(eq=False, kw_only=True)
class Snapshot:
    """Density ``u`` at nodes ``x`` at time ``t``; both solvers store these."""

    t: float
    x: np.ndarray
    u: np.ndarray


@dataclass(eq=False, kw_only=True)
class FrontTrajectory:
    """Sampled (t, g, h) plus stored density snapshots."""

    ts: np.ndarray
    gs: np.ndarray
    hs: np.ndarray
    snapshots: list[Snapshot]
    final_state: FieldState
    config: SimConfig

    @property
    def clamp_count(self) -> int:
        return self.final_state.clamp_count


def _initial_state(cfg: SimConfig) -> FieldState:
    j_lo, j_hi = _active_range(-cfg.h0, cfg.h0, cfg.dx)
    if j_hi < j_lo:
        raise InitialDataError("initial range contains no lattice nodes; shrink dx")
    x = np.arange(j_lo, j_hi + 1) * cfg.dx
    u = np.asarray(cfg.u0(x), dtype=float)
    edge_vals = np.asarray(cfg.u0(np.array([-cfg.h0, cfg.h0])), dtype=float)
    if not (np.isfinite(u).all() and np.isfinite(edge_vals).all()):
        raise InitialDataError("u0 must be finite")
    edge = float(np.max(np.abs(edge_vals)))
    if edge > 1e-9:
        raise InitialDataError(f"u0 must vanish at the initial boundaries, got {edge}")
    if np.min(u) <= 0.0:
        raise InitialDataError("u0 must be positive strictly inside the initial range")
    m0star = max(float(np.max(u)), cfg.reaction.cap_K0)
    return FieldState(t=0.0, g=-cfg.h0, h=cfg.h0, dx=cfg.dx, j0=j_lo, u=u, m0star=m0star)


class _Schedule:
    """Sampling times of a run: 0, every multiple of ``period``, and ``t_end``.

    ``due(t)`` is asked once at every time the run reaches, in order.  A
    multiple counts as reached within 1e-9 and the end within 1e-12, which is
    also where ``ended`` stops the run.  With period 0 nothing is due, not
    even the end; a negative or non-finite period, which would never pass
    t, raises ``ValueError``.
    """

    def __init__(self, period: float, t_end: float):
        if period and not 0.0 < period < math.inf:
            raise ValueError(f"a sampling period must be finite and >= 0, got {period}")
        self.period = period
        self.t_end = t_end
        self.next = 0.0

    def ended(self, t: float) -> bool:
        return t >= self.t_end - 1e-12

    def due(self, t: float) -> bool:
        if not self.period or (t < self.next - 1e-9 and not self.ended(t)):
            return False
        while self.next <= t + 1e-9:
            self.next += self.period
        return True


def simulate(cfg: SimConfig) -> FrontTrajectory:
    """Run to the horizon, sampling fronts and storing periodic snapshots."""
    state = _initial_state(cfg)
    # c_of_J raises DivergentIntegralError on a fat tail, whose fronts have
    # no a-priori speed bound
    speed = cfg.v_cap or cfg.mu * state.m0star * c_of_J(cfg.kernel)
    dt = _checked_dt(cfg.dt, stability_dt(cfg.d, cfg.reaction, cfg.dx, speed))
    conv = LatticeConvolution(cfg.kernel, cfg.dx)
    ts, gs, hs = [], [], []
    snapshots: list[Snapshot] = []
    samples = _Schedule(cfg.sample_dt, cfg.t_max)
    snaps = _Schedule(cfg.snap_dt, cfg.t_max)
    v_max = 0.0  # the fastest either front moved over one step, read only with v_cap
    while True:
        if samples.due(state.t):
            ts.append(state.t)
            gs.append(state.g)
            hs.append(state.h)
        if snaps.due(state.t):
            snapshots.append(Snapshot(t=state.t, x=state.positions(), u=state.u.copy()))
        if samples.ended(state.t):
            break
        step_dt = min(dt, cfg.t_max - state.t)
        prev = state
        state = step(state, step_dt, cfg.d, cfg.mu, cfg.reaction, conv=conv)
        if cfg.v_cap:
            v_max = max(v_max, (state.h - prev.h) / step_dt, (prev.g - state.g) / step_dt)
    if cfg.v_cap and v_max > cfg.v_cap:
        # dt keeps a front within a quarter cell per step only up to v_cap
        warnings.warn(
            f"a front reached speed {v_max:.4g}, above the speed cap {cfg.v_cap:.4g} "
            "that sets dt",
            RuntimeWarning,
            stacklevel=2,
        )
    return FrontTrajectory(
        ts=np.asarray(ts),
        gs=np.asarray(gs),
        hs=np.asarray(hs),
        snapshots=snapshots,
        final_state=state,
        config=cfg,
    )


class OutcomeTag(Enum):
    SPREADING = "Spreading"
    VANISHING = "Vanishing"
    UNDECIDED = "Undecided"


# Finite-horizon proxies for the asymptotic dichotomy.  The span threshold
# scales h0: the reference spreading run (mu=1, Laplace, logistic) covers
# about 10.8 * h0 by T=200, so 20 * h0 is out of reach at that horizon and
# 10 * h0 is used instead.
_SPAN_FACTOR = 10.0
_CORE_EPS = 0.05
_VANISH_EPS = 1e-6
_STALL_EPS = 1e-6
_TAIL_FRACTION = 0.1


@dataclass(eq=False, kw_only=True)
class Outcome:
    tag: OutcomeTag
    evidence: dict


def classify_outcome(traj: FrontTrajectory) -> Outcome:
    """Spreading / Vanishing / Undecided from the final window of a run."""
    state = traj.final_state
    h0 = traj.config.h0
    span = state.h - state.g
    sup_u = float(np.max(state.u)) if state.u.size else 0.0

    x = state.positions()
    core = np.abs(x) <= h0 + 1e-12
    core_min = float(np.min(state.u[core])) if core.any() else 0.0

    k_tail = max(2, int(math.ceil(_TAIL_FRACTION * traj.ts.size)))
    tail = slice(traj.ts.size - k_tail, traj.ts.size)
    front_rate = abs(fit_slope(traj.ts[tail], traj.hs[tail])) + abs(
        fit_slope(traj.ts[tail], traj.gs[tail])
    )

    evidence = {
        "span": span,
        "sup_u": sup_u,
        "core_min_u": core_min,
        "front_rate": front_rate,
        "span_threshold": _SPAN_FACTOR * h0,
    }
    if span >= _SPAN_FACTOR * h0 and core_min >= 1.0 - _CORE_EPS:
        return Outcome(tag=OutcomeTag.SPREADING, evidence=evidence)
    if sup_u <= _VANISH_EPS and front_rate <= _STALL_EPS:
        return Outcome(tag=OutcomeTag.VANISHING, evidence=evidence)
    return Outcome(tag=OutcomeTag.UNDECIDED, evidence=evidence)


@dataclass(eq=False, kw_only=True)
class SpeedMeasurement:
    slope_h: float
    slope_g: float
    dyadic_slopes: list[float]


# measure_speed fits the front slope on this final fraction of the samples
_WINDOW_FRACTION = 0.25


def measure_speed(traj: FrontTrajectory) -> SpeedMeasurement:
    """Front speed from the final window plus slopes over dyadic windows."""
    ts, hs, gs = traj.ts, traj.hs, traj.gs
    n = ts.size
    if n < 4:
        raise InsufficientDataError("trajectory has too few samples")
    k = max(2, int(math.ceil(_WINDOW_FRACTION * n)))
    slope_h = fit_slope(ts[n - k :], hs[n - k :])
    slope_g = fit_slope(ts[n - k :], gs[n - k :])

    t_end = float(ts[-1])
    dyadic: list[float] = []
    for m in range(4, 0, -1):
        a, b = t_end / 2**m, t_end / 2 ** (m - 1)
        mask = (ts > a + 1e-12) & (ts <= b + 1e-12)
        if np.count_nonzero(mask) < 2:
            raise InsufficientDataError(
                f"dyadic window ({a:.3g}, {b:.3g}] holds fewer than 2 samples"
            )
        dyadic.append(fit_slope(ts[mask], hs[mask]))
    return SpeedMeasurement(slope_h=slope_h, slope_g=slope_g, dyadic_slopes=dyadic)


@dataclass(eq=False, kw_only=True)
class TruncationEntry:
    radius: float
    sigma_n: float
    eta_n: float
    c_n: float
    solution: SpeedSolution


def truncated_speed_sequence(
    k: Kernel,
    radii,
    d: float,
    mu: float,
    r: Reaction,
    params: SemiWaveParams | None = None,
    tol: float = 1e-8,
) -> list[TruncationEntry]:
    """Speeds of the cutoff-kernel problems, which squeeze the original run.

    Each cutoff kernel is renormalized to unit mass, the reaction absorbs the
    mass deficit, and the problem is rescaled so its positive equilibrium
    returns to 1; the flux constant picks up both factors.
    """
    radii = [float(R) for R in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    out: list[TruncationEntry] = []
    for R in radii:
        tk = truncate(k, R)
        adj = adjust_for_truncation(r, tk.sigma_n, d)
        unit = adj.to_unit_reaction()
        sol = solve_c0(
            mu * tk.sigma_n * adj.eta_n,
            d * tk.sigma_n,
            tk.normalized(),
            unit,
            params,
            tol,
        )
        out.append(
            TruncationEntry(
                radius=R, sigma_n=tk.sigma_n, eta_n=adj.eta_n, c_n=sol.c0, solution=sol
            )
        )
        # the tables of one radius go before the next radius builds its own
        del tk, adj, unit
    return out


# principal_eigenvalue discretizes [-ell, ell] with this many cells
_EIGEN_CELLS = 400


def principal_eigenvalue(
    ell: float,
    d: float,
    k: Kernel,
    a_const: float,
) -> float:
    """Top eigenvalue of the truncated convolution operator plus a constant.

    The semi-wave workspace on [-2*ell, 0], a translate of [-ell, ell], gives
    the trapezoid weights w, the kernel matrix K (its lattice convolution of
    unit vectors) and the exact-mass row scaling rho, under which the
    eigenvalue approaches its limit from below as in the continuum.  The
    similarity sqrt(rho*w) symmetrizes d*rho*K*w for a symmetric eigensolver.
    """
    if ell <= 0:
        raise ValueError("ell must be positive")
    ws = _Workspace(k, 2.0 * ell, _EIGEN_CELLS)
    K = np.array([ws.lattice.direct(e) for e in np.eye(_EIGEN_CELLS + 1)])
    m = np.sqrt(ws.row_scale * ws.trap_w)
    A = d * (m[:, None] * K * m[None, :])
    np.fill_diagonal(A, A.diagonal() + (a_const - d))
    return float(np.linalg.eigvalsh(A)[-1])
