"""Spreading speed selection: the unique root of c = mu * M(c).

M(c) is the boundary flux of the semi-wave with speed c.  It is strictly
decreasing in c, so G(c) = c - mu*M(c) is strictly increasing, and +inf
past the existence threshold of the semi-wave.  ``solve_c0`` does not
search for the root of G: it solves the semi-wave equation and the
free-boundary condition together by the freezing iteration of
``semiwave._frozen``, whose phase condition c = mu*M(A_c(phi)) moves the
speed by one Newton step per iteration, as the pin phi(-L/2) = 1/2 does
for c*.  The monotone iteration then certifies the result: a solve at the
frozen speed, warm-started just above the frozen profile, must accept a
profile whose flux matches c0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NoFiniteSpeedError, NonconvergenceError
from .kernels import Kernel, TailClass, c_of_J, classify_tail
from .reactions import Reaction
from .semiwave import SemiWaveParams, SemiWaveProfile, _frozen, _workspace, solve_semiwave

__all__ = ["SpeedSolution", "CurveEntry", "flux_M", "solve_c0", "c0_curve"]

_EPS = float(np.finfo(float).eps)


@dataclass(eq=False, kw_only=True)
class SpeedSolution:
    """Root c0 of the flux identity, with the profile selected there."""

    c0: float
    mu: float
    residual: float
    profile: SemiWaveProfile
    flux_constant: float  # mu * c(J), the strict upper bound on c0


def flux_M(p: SemiWaveProfile, k: Kernel, mu: float) -> float:
    """mu times the outward boundary flux of a semi-wave profile.

    Uses the tail-mass identity: the double integral of J over the quadrant
    behind the front collapses to the integral of a(x)*phi(x), plus the
    analytic remainder where the profile is closed with its plateau.  The
    quadrature is the solver workspace's, the one whose phase condition
    sets the speed in ``solve_c0``.
    """
    if classify_tail(k) is TailClass.FAT_TAIL:
        raise NoFiniteSpeedError(f"kernel {k.name!r} has a divergent boundary-flux integral")
    return mu * _workspace(k, -p.grid.left, p.grid.n_cells).flux(p.phi)


def solve_c0(
    mu: float,
    d: float,
    k: Kernel,
    r: Reaction,
    params: SemiWaveParams | None = None,
    tol: float = 1e-8,
) -> SpeedSolution:
    """c0 and its semi-wave from one freezing iteration.

    ``semiwave._frozen`` starts from phi = 1 at ``c = min(0.1, mu*c(J)/10)``.
    Each step integrates the next iterate A_c(phi) at the current speed,
    reads the phase ``c - mu*M(A_c(phi))`` off it, and moves c by one Newton
    step on that phase.  ``max_iters`` bounds its iterations and those of
    the certificate.  Both stop at
    ``tol_iter' = min(tol_iter, tol/(10*mu*c(J)))``, but not below
    ``mu*c(J)*r/256`` with r the workspace convolution's measured rounding
    (0 off the FFT path), under which the iteration's steps stall.  The result
    counts only if ``solve_semiwave`` at c0, started
    ``min(1e-3, 1e3*tol_iter')`` above the frozen profile, accepts a profile
    whose residual ``|c0 - mu*M(phi)|`` is at most tol; that profile is
    returned.  Every failure, of the iteration or of the certificate,
    raises ``NonconvergenceError``.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if classify_tail(k) is TailClass.FAT_TAIL:
        raise NoFiniteSpeedError(
            f"kernel {k.name!r} violates double-tail integrability: no finite spreading speed"
        )
    params = params or SemiWaveParams()
    cJ = c_of_J(k)
    ws = _workspace(k, params.resolve_depth(k), params.n_cells)

    # A profile error e moves mu*M by up to mu*c(J)*e, and a solve stops up
    # to about tol_iter/(1 - rho) from its limit, rho the contraction rate of
    # the iteration.  At tol_iter = tol/(mu*c(J)) the flux residual came out
    # at up to twice tol near c*, where rho nears 1, so the frozen iteration
    # and the certificate resolve the profile to a tenth of that.
    tol_iter = min(params.tol_iter, 0.1 * tol / (mu * cJ))
    # The iterations carry the convolution's absolute rounding r magnified
    # by about mu*c(J); the phase reads the profile through that weight, and
    # the profile follows the speed.  On the FFT path (r = 3-4 eps) at
    # mu = 1e6, the Gaussian's frozen steps stall near mu*c(J)*r/200 and
    # power sigma = 2's monotone steps, even at a fixed speed, near
    # mu*c(J)*r/250, so tol_iter' stays above mu*c(J)*r/256.  r is a few
    # eps, so that floor can bind only where tol_iter' < mu*c(J)*eps; the
    # test spares the direct sum that measures r everywhere else.
    if tol_iter < mu * cJ * _EPS:
        tol_iter = max(tol_iter, mu * cJ * ws.rounding / 256.0)
    fine = replace(params, tol_iter=tol_iter)
    A, phi, _, _ = _frozen(
        d, r, ws, fine, np.ones(params.n_cells + 1), min(0.1, mu * cJ / 10.0),
        lambda c, u: c - mu * ws.flux(u),
    )
    c0 = A.c
    # the iteration stops at |phi_new - phi| < tol_iter, so a start 1e3*tol_iter
    # above its profile still lies above the fixed point for contraction
    # rates up to 0.999, and the certificate spends few iterations removing
    # the nudge
    nudge = min(1e-3, 1e3 * fine.tol_iter)
    out = solve_semiwave(c0, d, k, r, fine, initial=np.minimum(phi + nudge, 1.0))
    if not out.accepted:
        raise NonconvergenceError(f"certificate rejected the frozen speed c0={c0}: {out.reason}")
    residual = abs(c0 - flux_M(out, k, mu))
    if residual > tol:
        raise NonconvergenceError(
            f"certified profile at c0={c0} leaves residual {residual:.3e} > {tol:.1e}"
        )
    return SpeedSolution(c0=c0, mu=mu, residual=residual, profile=out, flux_constant=mu * cJ)


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
