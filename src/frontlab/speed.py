"""Spreading speed selection: the unique root of c = mu * M(c).

M(c) is the boundary flux of the semi-wave with speed c.  It is strictly
decreasing in c, so G(c) = c - mu*M(c) is strictly increasing, and +inf
past the existence threshold of the semi-wave.  A bracketed root finder
bisects while the bracket reaches past that threshold and then converges
superlinearly by Brent's method.  Semi-wave solves dominate the cost, so
profiles are cached per speed and nearby evaluations warm-start from the
cached profile of the nearest smaller speed, which stays above the target
fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoFiniteSpeedError, NonconvergenceError
from .kernels import Kernel, TailClass, c_of_J, classify_tail
from .numerics import bracketed_root, grow_bracket, trapezoid_weights
from .reactions import Reaction
from .semiwave import SemiWaveParams, SemiWaveProfile, _ProfileCache

__all__ = ["SpeedSolution", "CurveEntry", "flux_M", "solve_c0", "c0_curve"]


@dataclass(eq=False, kw_only=True)
class SpeedSolution:
    """Root c0 of the flux identity, with the profile selected there."""

    c0: float
    mu: float
    residual: float
    bracket: tuple[float, float]
    profile: SemiWaveProfile
    flux_constant: float  # mu * c(J), the strict upper bound on c0


def flux_M(p: SemiWaveProfile, k: Kernel, mu: float) -> float:
    """mu times the outward boundary flux of a semi-wave profile.

    Uses the tail-mass identity: the double integral of J over the quadrant
    behind the front collapses to the integral of a(x)*phi(x), plus the
    analytic remainder where the profile is closed with its plateau.
    """
    if classify_tail(k) is TailClass.FAT_TAIL:
        raise NoFiniteSpeedError(f"kernel {k.name!r} has a divergent boundary-flux integral")
    x = p.grid.nodes()
    w = trapezoid_weights(x.size, p.grid.spacing)
    body = float(np.dot(w, np.asarray(k.tail_mass(x), dtype=float) * p.phi))
    return mu * (body + k.tail_integral(p.grid.left))


def solve_c0(
    mu: float,
    d: float,
    k: Kernel,
    r: Reaction,
    params: SemiWaveParams | None = None,
    tol: float = 1e-8,
) -> SpeedSolution:
    """Root of G(c) = c - mu*M(c) in a geometrically grown bracket.

    ``numerics.grow_bracket`` grows it from ``min(0.1, mu*c(J)/10)`` and twice
    that; ``numerics.bracketed_root`` bisects while G = +inf at the upper end
    (no semi-wave), then runs Brent's method; the residual is checked against tol.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if classify_tail(k) is TailClass.FAT_TAIL:
        raise NoFiniteSpeedError(
            f"kernel {k.name!r} violates double-tail integrability: no finite spreading speed"
        )
    params = params or SemiWaveParams()
    cJ = c_of_J(k)
    cache = _ProfileCache(d, k, r, params)

    def G(c: float) -> float:
        out = cache.solve(c)
        if not out.accepted:
            # beyond the existence threshold G has the sign of its c* limit
            return math.inf
        return c - flux_M(out, k, mu)

    start = min(0.1, mu * cJ / 10.0)
    lo, hi, g_lo, g_hi = grow_bracket(G, start, 2.0 * start)
    c0 = bracketed_root(G, lo, hi, ftol=tol, xtol=tol * 1e-3, g_lo=g_lo, g_hi=g_hi)
    out = cache.solve(c0)
    if not out.accepted:
        raise NonconvergenceError(f"no semi-wave at the root-found speed c0={c0}")
    residual = abs(c0 - flux_M(out, k, mu))
    if residual > tol:
        raise NonconvergenceError(f"root finder stalled with residual {residual:.3e} > {tol:.1e}")
    return SpeedSolution(
        c0=c0,
        mu=mu,
        residual=residual,
        bracket=(lo, hi),
        profile=out,
        flux_constant=mu * cJ,
    )


@dataclass(eq=False, kw_only=True)
class CurveEntry:
    mu: float
    solution: SpeedSolution | None
    error: str | None = None


def c0_curve(
    mus,
    d: float,
    k: Kernel,
    r: Reaction,
    params: SemiWaveParams | None = None,
    tol: float = 1e-8,
) -> list[CurveEntry]:
    """Per-mu speed solve; failures are recorded and the sweep continues."""
    mus = [float(m) for m in mus]
    if any(m <= 0 for m in mus):
        raise ValueError("all mu values must be positive")
    if any(b <= a for a, b in zip(mus, mus[1:])):
        raise ValueError("mus must be strictly increasing")

    def solve_one(m: float) -> CurveEntry:
        try:
            return CurveEntry(mu=m, solution=solve_c0(m, d, k, r, params, tol))
        except Exception as exc:  # noqa: BLE001 - per-entry error capture is the contract
            return CurveEntry(mu=m, solution=None, error=f"{type(exc).__name__}: {exc}")
    return [solve_one(m) for m in mus]
