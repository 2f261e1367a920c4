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
from .numerics import bracketed_root
from .reactions import Reaction
from .semiwave import NonExistence, SemiWaveParams, SemiWaveProfile, solve_semiwave

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
    w = np.full(x.size, p.grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    body = float(np.dot(w, np.asarray(k.tail_mass(x), dtype=float) * p.phi))
    return mu * (body + k.tail_integral(p.grid.left))


class _ProfileCache:
    """Warm-started semi-wave solves keyed by speed."""

    def __init__(self, d, k, r, params):
        self.d, self.k, self.r, self.params = d, k, r, params
        self.profiles: dict[float, SemiWaveProfile] = {}

    def solve(self, c: float) -> SemiWaveProfile | NonExistence:
        hit = self.profiles.get(c)
        if hit is not None:
            return hit
        seeds = [cc for cc in self.profiles if cc < c]
        initial = None
        if seeds:
            # profiles grow as c shrinks, so a smaller-c profile (nudged up to
            # absorb discretization slack) still dominates the fixed point
            initial = np.minimum(self.profiles[max(seeds)].phi + 1e-3, 1.0)
        out = solve_semiwave(c, self.d, self.k, self.r, self.params, initial=initial)
        if isinstance(out, SemiWaveProfile):
            self.profiles[c] = out
        return out


def solve_c0(
    mu: float,
    d: float,
    k: Kernel,
    r: Reaction,
    params: SemiWaveParams | None = None,
    tol: float = 1e-8,
) -> SpeedSolution:
    """Root of G(c) = c - mu*M(c) in a geometrically grown bracket.

    ``numerics.bracketed_root`` bisects while the upper end has no semi-wave
    (G = +inf there), then runs Brent's method on the finite bracket until
    |G| <= tol.  The residual at the returned speed is checked against tol.
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
        if isinstance(out, NonExistence):
            # beyond the existence threshold G has the sign of its c* limit
            return math.inf
        return c - flux_M(out, k, mu)

    lo = min(0.1, mu * cJ / 10.0)
    g_lo = G(lo)
    shrink = 0
    while g_lo >= 0.0:
        lo *= 0.5
        shrink += 1
        if shrink > 60:
            raise NonconvergenceError("could not find a negative bracket end for G")
        g_lo = G(lo)
    hi = 2.0 * lo
    g_hi = G(hi)
    grow = 0
    while g_hi < 0.0:
        lo, g_lo = hi, g_hi
        hi *= 2.0
        grow += 1
        if grow > 60:
            raise NonconvergenceError("G never becomes positive; bracket search failed")
        g_hi = G(hi)
    bracket = (lo, hi)

    c0 = bracketed_root(G, lo, hi, ftol=tol, xtol=tol * 1e-3, g_lo=g_lo, g_hi=g_hi)
    out = cache.solve(c0)
    if isinstance(out, NonExistence):
        raise NonconvergenceError(f"no semi-wave at the root-found speed c0={c0}")
    residual = abs(c0 - flux_M(out, k, mu))
    if residual > tol:
        raise NonconvergenceError(f"root finder stalled with residual {residual:.3e} > {tol:.1e}")
    return SpeedSolution(
        c0=c0,
        mu=mu,
        residual=residual,
        bracket=bracket,
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
