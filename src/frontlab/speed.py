"""Spreading speed selection: the unique root of c = mu * M(c).

M(c) is the boundary flux of the semi-wave with speed c.  It is strictly
decreasing in c, so G(c) = c - mu*M(c) is strictly increasing, and +inf
past the existence threshold of the semi-wave.  ``solve_c0`` does not
search for the root of G: it solves the semi-wave equation and the
free-boundary condition as one system in (phi, c),

    F(phi, c) = (A_c(phi) - phi,  c - mu*M(phi)) = 0,

by matrix-free Newton-Krylov (Knoll & Keyes, J. Comput. Phys. 193, 2004):
scipy's Newton loop, line search and forcing terms around this module's
one-cycle GMRES, ``_gmres``, with ``_NEWTON_STEPS`` steps as its only
budget (``max_iters`` bounds each monotone solve).  One monotone solve at
a small speed c_s starts it and, by the monotonicity of G, brackets the
root in [c_s, mu*M(c_s)].  The monotone iteration then certifies the
result: a second solve at the Newton speed, warm-started just above the
Newton profile, must accept a profile whose flux matches c0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import NoConvergence, newton_krylov

from .errors import NoFiniteSpeedError, NonconvergenceError
from .kernels import Kernel, TailClass, c_of_J, classify_tail
from .numerics import BRACKET_MAX_STEPS
from .reactions import Reaction
from .semiwave import (
    SemiWaveParams, SemiWaveProfile, _Operator, _workspace, choose_M, solve_semiwave,
)

__all__ = ["SpeedSolution", "CurveEntry", "flux_M", "solve_c0", "c0_curve"]

# Newton steps before a solve counts as failed: three times the most any c0
# of the mu-to-infinity acceptance check or the speed-sweep bench takes (7).
# This is Newton's only budget; max_iters bounds the monotone solves.
_NEWTON_STEPS = 21


@dataclass(eq=False, kw_only=True)
class SpeedSolution:
    """Root c0 of the flux identity, with the profile selected there.

    ``bracket`` is ``(c_s, mu*M(c_s))``: the speed of the starting solve and
    its flux, which enclose c0 because G increases.
    """

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
    analytic remainder where the profile is closed with its plateau.  The
    quadrature is the solver workspace's, the one the bordered Newton solve
    for c0 uses.
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
    """c0 and its semi-wave from one bordered Newton-Krylov solve.

    The start is a cold monotone solve at ``c_s = min(0.1, mu*c(J)/10)``,
    halved while G(c_s) >= 0, and the speed ``sqrt(c_s * mu*M(c_s))``
    inside the bracket.  ``scipy.optimize.newton_krylov`` with ``_gmres``
    then solves F(phi, c) = 0 in at most ``_NEWTON_STEPS`` Newton steps;
    ``max_iters`` bounds only the two monotone solves.  Both solves stop at
    ``tol_iter' = min(tol_iter, tol/(10*mu*c(J)))``.  The result counts only
    if ``solve_semiwave`` at c0, started ``min(1e-3, 1e3*tol_iter')`` above
    the Newton profile, accepts a profile whose residual
    ``|c0 - mu*M(phi)|`` is at most tol; that profile is returned.  Every
    failure, of Newton or of the certificate, raises
    ``NonconvergenceError``.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if classify_tail(k) is TailClass.FAT_TAIL:
        raise NoFiniteSpeedError(
            f"kernel {k.name!r} violates double-tail integrability: no finite spreading speed"
        )
    params = params or SemiWaveParams()
    cJ = c_of_J(k)

    c_s = min(0.1, mu * cJ / 10.0)
    for _ in range(BRACKET_MAX_STEPS + 1):
        start = solve_semiwave(c_s, d, k, r, params)
        if start.accepted:
            hi = flux_M(start, k, mu)
            if c_s < hi:
                break
        c_s *= 0.5
    else:
        raise NonconvergenceError(f"G is not negative anywhere down to {2.0 * c_s:.3g}")

    # A profile error e moves mu*M by up to mu*c(J)*e, and a solve stops up
    # to about tol_iter/(1 - rho) from its limit, rho the contraction rate of
    # the iteration.  At tol_iter = tol/(mu*c(J)) the flux residual came out
    # at up to twice tol near c*, where rho nears 1, so Newton and the
    # certificate resolve the profile to a tenth of that.
    fine = replace(params, tol_iter=min(params.tol_iter, 0.1 * tol / (mu * cJ)))
    # Newton from the bracket's geometric mean: from its lower end it failed
    # at mu = 100 and 1000, from its midpoint at Laplace mu = 1000
    phi, c0 = _bordered_newton(mu, d, k, r, fine, start.phi, math.sqrt(c_s * hi))
    # Newton stops at |F| <= tol_iter, so a start 1e3*tol_iter above its
    # profile still lies above the fixed point for contraction rates up to
    # 0.999, and the certificate spends few iterations removing the nudge
    nudge = min(1e-3, 1e3 * fine.tol_iter)
    out = solve_semiwave(c0, d, k, r, fine, initial=np.minimum(phi + nudge, 1.0))
    if not out.accepted:
        raise NonconvergenceError(f"certificate rejected the Newton speed c0={c0}: {out.reason}")
    residual = abs(c0 - flux_M(out, k, mu))
    if residual > tol:
        raise NonconvergenceError(
            f"certified profile at c0={c0} leaves residual {residual:.3e} > {tol:.1e}"
        )
    return SpeedSolution(
        c0=c0,
        mu=mu,
        residual=residual,
        bracket=(c_s, hi),
        profile=out,
        flux_constant=mu * cJ,
    )


def _bordered_newton(
    mu: float,
    d: float,
    k: Kernel,
    r: Reaction,
    params: SemiWaveParams,
    phi: np.ndarray,
    c: float,
) -> tuple[np.ndarray, float]:
    """Newton-Krylov solution (phi, c) of F = 0 from the given start, with
    ``_gmres`` for the linear solves and ``|F| <= tol_iter`` to stop."""
    ws = _workspace(k, params.resolve_depth(k), params.n_cells)
    # choose_M(c, d, r) is M at unit speed over c, bit for bit: check it once
    m_unit = choose_M(1.0, d, r)

    def F(z: np.ndarray) -> np.ndarray:
        phi, c = z[:-1], float(z[-1])
        if not c > 0.0:
            raise NonconvergenceError(f"bordered Newton solve for c0 reached c = {c}")
        out = np.empty_like(z)
        out[:-1] = _Operator(c, d, r, m_unit / c, 0.0, ws)(phi)
        out[:-1] -= phi
        out[-1] = c - mu * ws.flux(phi)
        return out

    try:
        # Each of the maxiter passes tests convergence before it steps, so
        # _NEWTON_STEPS steps take _NEWTON_STEPS + 1 passes
        z = newton_krylov(
            F, np.append(phi, c), method=_gmres, f_tol=params.tol_iter, maxiter=_NEWTON_STEPS + 1
        )
    except NoConvergence:
        raise NonconvergenceError(
            f"bordered Newton solve for c0 did not converge in {_NEWTON_STEPS} Newton steps"
        ) from None
    except ValueError as exc:
        raise NonconvergenceError(f"bordered Newton solve for c0 failed: {exc}") from None
    return z[:-1], float(z[-1])


def _gmres(A, b: np.ndarray, rtol: float, maxiter: int, M=None) -> tuple[np.ndarray, int]:
    """One GMRES cycle (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986)
    for A x = b from x = 0: the Krylov method of ``_bordered_newton``.

    It takes at most ``maxiter`` Arnoldi steps and stops once the
    least-squares residual is at most ``rtol*|b|``, or on breakdown, when
    orthogonalisation leaves at most eps times the new vector's norm:
    scipy's gmres rule with atol = 0.  Each step orthogonalises by classical
    Gram-Schmidt with one re-orthogonalisation pass, four matrix-vector
    products in all, and rotates the Hessenberg column on Python floats;
    scipy's gmres does modified Gram-Schmidt and its rotations one array
    operation at a time in Python.
    Returns ``(x, info)``, info 0 on convergence and ``maxiter`` otherwise,
    as scipy's Krylov methods do.  ``newton_krylov`` passes no
    preconditioner, so ``M`` is always None.
    """
    beta = math.sqrt(b @ b)
    if beta == 0.0:
        return np.zeros_like(b), 0
    V = np.empty((maxiter + 1, b.size))
    V[0] = b / beta
    g = [beta]  # the rotated least-squares right-hand side
    R: list[list[float]] = []  # columns of the rotated Hessenberg matrix
    rotations: list[tuple[float, float]] = []
    eps, converged = np.finfo(float).eps, False
    for k in range(maxiter):
        w = A.matvec(V[k])
        before = math.sqrt(w @ w)
        h = V[: k + 1] @ w
        w -= h @ V[: k + 1]
        again = V[: k + 1] @ w
        w -= again @ V[: k + 1]
        after = math.sqrt(w @ w)
        col = (h + again).tolist()
        for i, (cs, sn) in enumerate(rotations):
            col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
        rho = math.hypot(col[k], after)
        if rho == 0.0:  # the new column would make R singular: stop before it
            break
        cs, sn = col[k] / rho, after / rho
        rotations.append((cs, sn))
        col[k] = rho
        R.append(col)
        g.append(-sn * g[k])
        g[k] *= cs
        converged = abs(g[k + 1]) <= rtol * beta
        if converged or after <= eps * before:
            break
        V[k + 1] = w / after
    # back substitution for the upper triangular R y = g
    m = len(R)
    y = [0.0] * m
    for i in reversed(range(m)):
        y[i] = (g[i] - sum(R[j][i] * y[j] for j in range(i + 1, m))) / R[i][i]
    return np.asarray(y) @ V[:m], 0 if converged else maxiter


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
