"""Semi-wave profiles by monotone fixed-point iteration.

The half-line stationary problem is solved on a truncated domain [-L, 0]
after rewriting it with an exponential integrating factor.  The resulting
operator is monotone increasing and maps the order interval [0, 1] into
itself, so iterating down from the constant upper solution 1 converges to
the maximal fixed point; a genuine semi-wave exists exactly when that fixed
point keeps its plateau near 1.

Beyond -L the profile is closed with its plateau value 1, which contributes
the analytic tail mass of the kernel to every convolution.

Each iteration runs in a fixed operation order (see ``_Operator``): the
same floating-point operations as the operator's plain expression, in the
same order, with the constants of a solve computed once before it.  That
order is what keeps reruns and refactors byte-identical.

The threshold c* is not read off these verdicts: near it a collapse or an
exhausted budget follows the last bits of the convolution.  ``estimate_cstar``
instead solves for the semi-wave whose half level is pinned at -L/2 and
returns its speed, with the speed as an unknown of the iteration: the
freezing iteration ``_frozen``, which also gives ``speed.solve_c0`` its
speed and profile under the free-boundary condition.
"""

from __future__ import annotations

import math
import warnings
import weakref
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dtbsv

from .errors import (
    DivergentIntegralError, NonconvergenceError, NoCrossingError, UnsupportedTailError,
)
from .kernels import Kernel, TailClass, classify_tail
from .numerics import (
    LatticeConvolution, UniformGrid, grow_bracket, trapezoid_weights,
)
from .reactions import Reaction

__all__ = [
    "SemiWaveParams",
    "SemiWaveProfile",
    "NonExistence",
    "choose_M",
    "apply_A",
    "solve_semiwave",
    "half_level_shift",
    "front_slope",
    "estimate_cstar",
]

# default truncation depth per tail class; heavy tails decay too slowly for 40
_DEPTH_DEFAULT = {
    TailClass.THIN_TAIL: 40.0,
    TailClass.COMPACT_SUPPORT: 40.0,
    TailClass.HEAVY_TAIL_J1_ONLY: 400.0,
    TailClass.FAT_TAIL: 400.0,
}
# a converged profile is accepted when its fixed-point residual is at most
# this multiple of tol_iter
_RESIDUAL_FACTOR = 100.0
# a profile keeps its plateau while phi(-L) >= 1 - _PLATEAU_EPS
_PLATEAU_EPS = 1e-2
# the freezing iteration refreshes its phase slope on every _SLOPE_EVERY-th
# step and reuses it in between
_SLOPE_EVERY = 3


@dataclass(kw_only=True)
class SemiWaveParams:
    """Discretization and iteration controls for the semi-wave solver."""

    depth: float | None = None  # L; None resolves per kernel tail class
    n_cells: int = 4000
    tol_iter: float = 1e-10
    max_iters: int = 100_000

    def __post_init__(self):
        if self.depth is not None and self.depth <= 0:
            raise ValueError("depth must be positive")
        if self.n_cells < 100:
            raise ValueError("n_cells must be >= 100")
        if self.tol_iter <= 0:
            raise ValueError("tol_iter must be positive")

    def resolve_depth(self, k: Kernel) -> float:
        if self.depth is not None:
            return self.depth
        return _DEPTH_DEFAULT[classify_tail(k)]


def choose_M(c: float, d: float, r: Reaction) -> float:
    """Integrating-factor constant M, large enough that (cM - d)u + f(u) is
    nondecreasing on [0, 1]."""
    if c <= 0:
        raise ValueError("c must be positive")
    if d <= 0:
        raise ValueError("d must be positive")
    M = (d + 1.1 * r.lipschitz_K) / c
    u = np.linspace(0.0, 1.0, 2001)
    ftilde = (c * M - d) * u + r.f(u)
    worst = float(np.min(np.diff(ftilde)))
    if worst < -1e-9:
        raise ValueError(f"chosen M leaves the shifted reaction decreasing (worst step {worst})")
    return M


class _Workspace:
    """Per-(kernel, depth, n_cells) precomputation shared across iterations."""

    def __init__(self, k: Kernel, L: float, n_cells: int):
        self.grid = UniformGrid(-L, 0.0, n_cells)
        self.h = self.grid.spacing
        self.x = self.grid.nodes()
        self.trap_w = trapezoid_weights(n_cells + 1, self.h)
        self.lattice = LatticeConvolution(k, self.h)
        self.a_x = np.asarray(k.tail_mass(self.x), dtype=float)
        # plateau closure: phi = 1 on (-inf, -L) adds the tail mass beyond -L
        self.far = np.asarray(k.tail_mass(-self.x - L), dtype=float)
        # row normalization makes the inner quadrature exact on constants,
        # which keeps the discrete operator strictly below 1 at the plateau
        row_sums = self.lattice(self.trap_w)
        exact = np.asarray(k.tail_mass(self.x + L), dtype=float) - self.a_x
        with np.errstate(divide="ignore", invalid="ignore"):
            self.row_scale = np.where(row_sums > 0.0, exact / row_sums, 1.0)
        # the boundary-flux quadrature; None for a kernel without a tail integral
        self.flux_w = self.trap_w * self.a_x
        self.flux_far = k.tail_integral(-L) if k.tail_integral_fn is not None else None

    @cached_property
    def rounding(self) -> float:
        """The largest absolute error of the convolution on the trapezoid
        weights, measured once against the direct sum: 0 on the
        relative-accuracy paths, a few eps on the FFT path."""
        exact = self.lattice.direct(self.trap_w)
        return float(np.max(np.abs(self.lattice(self.trap_w) - exact)))

    def convolve(self, phi: np.ndarray, direct: bool = False) -> np.ndarray:
        # a semi-wave profile vanishes at a finite slope at the front, so the
        # FFT path's absolute rounding floor is harmless here, short of the
        # tolerances that solve_c0 bounds with ``rounding``; the pinned solve
        # asks for the direct sum (see _pinned_semiwave)
        out = (self.lattice.direct if direct else self.lattice)(self.trap_w * phi)
        out *= self.row_scale
        return out

    def flux(self, phi: np.ndarray) -> float:
        """The outward boundary flux of phi: the trapezoid integral of a(x)*phi(x)
        over [-L, 0], plus the integral of a(x) beyond -L, where phi is closed
        with its plateau 1."""
        if self.flux_far is None:
            raise DivergentIntegralError("the kernel has no integrable tail-mass integral")
        return float(np.dot(self.flux_w, phi)) + self.flux_far


# weak keys: a workspace goes when its kernel does, so long sweeps over
# fresh kernels (truncate(), configs) keep memory bounded
_WORKSPACES: weakref.WeakKeyDictionary[Kernel, dict[tuple[float, int], _Workspace]] = (
    weakref.WeakKeyDictionary()
)


def _workspace(k: Kernel, L: float, n_cells: int) -> _Workspace:
    per_kernel = _WORKSPACES.setdefault(k, {})
    key = (float(L), int(n_cells))
    ws = per_kernel.get(key)
    if ws is None:
        ws = per_kernel[key] = _Workspace(k, L, n_cells)
    return ws


def _exp_cell_weights(M: float, h: float) -> tuple[float, float, float]:
    """Weights of the product rule for int exp(-M s) w(s) ds on one cell.

    Integrates the exponential factor exactly against a linear interpolant of
    w; reduces to the plain trapezoid rule as M*h -> 0 and stays accurate for
    stiff M*h >> 1, where naive trapezoid overweights the cell by M*h/2.
    """
    z = M * h
    em = math.expm1(-z)
    p0 = -em / z
    if z < 1e-3:
        q1 = 0.5 - z / 3.0 + z * z / 8.0 - z ** 3 / 30.0
    else:
        q1 = -(z + em * (1.0 + z)) / (z * z)
    beta = h * q1
    alpha = h * p0 - beta
    return alpha, beta, 1.0 + em


def apply_A(
    phi: np.ndarray,
    c: float,
    d: float,
    k: Kernel,
    r: Reaction,
    M: float,
    sigma: float,
    params: SemiWaveParams,
) -> np.ndarray:
    """One application of the integrating-factor fixed-point operator."""
    ws = _workspace(k, params.resolve_depth(k), params.n_cells)
    return _Operator(c, d, r, M, sigma, ws)(phi)


class _Operator:
    """The fixed-point operator at one speed, with the constants of a solve
    (cell weights, the integrating factor's band, sigma terms) computed once.

    A call performs the same floating-point operations in the same order as
    the textbook expression

        w = d*(convolve(phi) + far) + d*sigma*a_x + (c*M - d)*phi + f(phi)
        cell = alpha*w[:-1] + beta*w[1:]
        out[:-1] = I/c,  I[j] = cell[j] + E*I[j+1],  out[-1] = 0
        (+ sigma*exp(M*x) when sigma != 0)

    but updates its temporaries in place, so its result is bit for bit that
    of the expression.  At sigma = 0 the sigma term is left out rather than
    added as zeros: adding +0.0 changes only a -0.0, and the tail mass
    ``far`` is never -0.0, so neither is ``convolve(phi) + far``.

    The integrating factor I solves ``U @ I = cell`` with U unit upper
    bidiagonal, superdiagonal -E: one BLAS ``dtbsv`` back substitution on a
    band of U that the operator builds once.
    """

    def __init__(self, c: float, d: float, r: Reaction, M: float, sigma: float, ws: _Workspace):
        self.ws, self.c, self.d, self.f = ws, c, d, r.f
        self.shift = c * M - d
        self.alpha, self.beta, E = _exp_cell_weights(M, ws.h)
        # dtbsv's upper band storage: row 0 the superdiagonal (its first entry
        # unused), row 1 the unit diagonal, which diag=1 leaves unread
        self.band = np.zeros((2, ws.x.size - 1), order="F")
        self.band[0, 1:] = -E
        self.sigma = sigma
        if sigma != 0.0:
            self.source = d * sigma * ws.a_x
            self.lift = sigma * np.exp(M * ws.x[:-1])

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        return self.integrate(self.rhs(phi))

    def rhs(self, phi: np.ndarray, direct: bool = False) -> np.ndarray:
        """The operator's first half: the node values w of the shifted
        right-hand side, with the convolution summed directly if asked.  The
        speed enters only through c*M, which ``choose_M`` makes the same at
        every speed up to rounding."""
        w = self.ws.convolve(phi, direct)
        w += self.ws.far
        w *= self.d
        if self.sigma != 0.0:
            w += self.source
        w += self.shift * phi
        w += self.f(phi)
        return w

    def integrate(self, w: np.ndarray) -> np.ndarray:
        """The operator's second half, from the node values w of the shifted
        right-hand side on the last ``w.size`` nodes.  The recursion runs from
        the front, so a suffix of w gives the same suffix of the full result,
        bit for bit, from the band's last columns.  Leaves w as it is."""
        m = w.size - 1
        cell = self.alpha * w[:-1]
        cell += self.beta * w[1:]
        acc = dtbsv(1, self.band[:, -m:], cell, lower=0, diag=1, overwrite_x=1)
        out = np.empty_like(w)
        np.divide(acc, self.c, out=out[:-1])
        out[-1] = 0.0
        if self.sigma != 0.0:
            out[:-1] += self.lift[-m:]
            out[-1] = self.sigma
        return out


@dataclass(eq=False, kw_only=True)
class SemiWaveProfile:
    """Accepted semi-wave on [-L, 0] with convergence metadata."""

    grid: UniformGrid
    phi: np.ndarray
    c: float
    d: float
    sigma: float
    iterations_used: int
    residual: float
    plateau_value: float
    ode_defect: float
    monotonicity_slip: float

    @property
    def accepted(self) -> bool:
        return True


@dataclass(eq=False, kw_only=True)
class NonExistence:
    """Diagnostics for a speed at which the iteration lost its plateau."""

    c: float
    plateau_value: float
    residual: float
    iterations_used: int
    reason: str

    @property
    def accepted(self) -> bool:
        return False


def solve_semiwave(
    c: float,
    d: float,
    k: Kernel,
    r: Reaction,
    params: SemiWaveParams | None = None,
    initial: np.ndarray | None = None,
    sigma: float = 0.0,
) -> SemiWaveProfile | NonExistence:
    """Iterate the monotone operator from an upper solution down to a profile.

    Starting from 1 (or any iterate known to dominate the maximal fixed
    point) the sequence decreases pointwise, so a plateau that drops below
    1 - _PLATEAU_EPS can never recover: the solve bails out early and reports
    NonExistence.  Exhausting max_iters raises NonconvergenceError, which is
    a different outcome from NonExistence.  ``sigma`` is the homotopy
    source, which pins the front value phi(0) at sigma instead of 0.
    """
    M = choose_M(c, d, r)
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    params = params or SemiWaveParams()
    ws = _workspace(k, params.resolve_depth(k), params.n_cells)

    if initial is None:
        phi = np.ones(params.n_cells + 1)
    else:
        phi = np.clip(np.asarray(initial, dtype=float), 0.0, 1.0)
        if phi.shape != ws.x.shape:
            raise ValueError("initial profile does not match the solver grid")

    A = _Operator(c, d, r, M, sigma, ws)
    slip = 0.0
    threshold = 1.0 - _PLATEAU_EPS
    for it in range(1, params.max_iters + 1):
        nxt = A(phi)
        diff = nxt - phi
        rise = float(diff.max())
        # max |diff| without the abs temporary: the same value
        delta = max(rise, -float(diff.min()))
        slip = max(slip, rise)
        phi = nxt
        if phi[0] < threshold:
            # iterates only decrease from an upper start: plateau is gone
            return NonExistence(
                c=c,
                plateau_value=float(phi[0]),
                residual=delta,
                iterations_used=it,
                reason="plateau collapsed below 1 - plateau_eps",
            )
        if delta < params.tol_iter:
            break
    else:
        raise NonconvergenceError(
            f"semi-wave iteration at c={c} did not converge in {params.max_iters} iterations"
        )

    if initial is None and slip > 1e-10:
        warnings.warn(
            f"monotone iteration slipped upward by {slip:.2e} at c={c}",
            RuntimeWarning,
            stacklevel=2,
        )
    return _verdict(A, phi, A(phi), params.tol_iter, it, slip)


def _verdict(
    A: _Operator, phi: np.ndarray, nxt: np.ndarray, tol_iter: float, it: int, slip: float
) -> SemiWaveProfile | NonExistence:
    """The plateau and residual test of a converged iterate phi of A, whose
    image under A is ``nxt``: NonExistence, or the profile with its ODE
    defect, the sup defect of the differential form at interior nodes.  That
    is O(h^2) by centered differences, so it is reported, not gated on: the
    fixed-point residual is the discretization-consistent test."""
    residual = float(np.max(np.abs(nxt - phi)))
    plateau = float(phi[0])
    if not (plateau >= 1.0 - _PLATEAU_EPS and residual <= _RESIDUAL_FACTOR * tol_iter):
        return NonExistence(
            c=A.c,
            plateau_value=plateau,
            residual=residual,
            iterations_used=it,
            reason="plateau or residual test failed after convergence",
        )
    ws, d = A.ws, A.d
    dphi = (phi[2:] - phi[:-2]) / (2.0 * ws.h)
    rhs = d * (ws.convolve(phi) + ws.far + A.sigma * ws.a_x) - d * phi + A.f(phi)
    return SemiWaveProfile(
        grid=ws.grid,
        phi=phi,
        c=A.c,
        d=d,
        sigma=A.sigma,
        iterations_used=it,
        residual=residual,
        plateau_value=plateau,
        ode_defect=float(np.max(np.abs(rhs[1:-1] + A.c * dphi))),
        monotonicity_slip=slip,
    )


def half_level_shift(p: SemiWaveProfile) -> tuple[float, tuple[UniformGrid, np.ndarray]]:
    """Distance l with phi(-l) = 1/2 and the profile re-centered there."""
    phi, x = p.phi, p.grid.nodes()
    if p.plateau_value < 0.5:
        raise NoCrossingError("profile never reaches the half level")
    below = np.nonzero(phi < 0.5)[0]
    if below.size == 0:
        # a homotopy source sigma >= 1/2 pins phi(0) at or above the level
        raise NoCrossingError("profile never drops below the half level")
    j = int(below[0])  # phi[j-1] >= 1/2 > phi[j]; j >= 1 since plateau >= 1/2
    x_cross = x[j - 1] + p.grid.spacing * (phi[j - 1] - 0.5) / (phi[j - 1] - phi[j])
    l = -float(x_cross)
    shifted = UniformGrid(p.grid.left + l, p.grid.right + l, p.grid.n_cells)
    return l, (shifted, phi.copy())


def front_slope(p: SemiWaveProfile, d: float, k: Kernel) -> float:
    """One-sided derivative of the profile at the front via the flux identity."""
    x = p.grid.nodes()
    w = trapezoid_weights(x.size, p.grid.spacing)
    inner = float(np.dot(w, np.asarray(k.density(-x), dtype=float) * p.phi))
    far = float(k.tail_mass(np.asarray(p.grid.left)))  # mass beyond -L, phi = 1 there
    return -(d / p.c) * (inner + far)


def estimate_cstar(
    d: float,
    k: Kernel,
    r: Reaction,
    params: SemiWaveParams | None = None,
) -> float:
    """The speed c(L/2) of the semi-wave whose half level sits at x = -L/2.

    The paper's c* is where semi-waves stop existing.  Near it the profile
    flattens and its half level moves away from the front, so on [-L, 0]
    the speed of the profile pinned at -L/2 approaches c* from below as L
    grows, roughly as c* - A/L^2.  One pinned solve gives it: a cold
    ``solve_semiwave`` at c_lin/2 (c_lin the linear-determinacy speed),
    stopped at ``max(tol_iter, 1e-6)`` and shifted so that phi(-L/2) = 1/2,
    then the freezing iteration of ``_pinned_semiwave``, whose chord Newton
    step on c refreshes its slope every third step.  The iteration budget
    running out, a speed that leaves (0, inf), or a profile that fails the
    plateau or residual test raises ``NonconvergenceError``; no outcome is
    read as a verdict.  An estimate more than 5% from c_lin warns.
    """
    cls = classify_tail(k)
    if cls not in (TailClass.THIN_TAIL, TailClass.COMPACT_SUPPORT):
        raise UnsupportedTailError(
            f"kernel {k.name!r} has tail class {cls.value}; no finite minimal wave speed"
        )
    c_lin = linear_determinacy_speed(d, k, r)
    if c_lin is None:
        raise UnsupportedTailError(
            f"kernel {k.name!r} has no exponential-moment range to start the c* solve from"
        )
    estimate = _pinned_semiwave(d, k, r, params or SemiWaveParams(), 0.5 * c_lin).c
    if abs(estimate - c_lin) > 0.05 * c_lin:
        warnings.warn(
            f"pinned semi-wave speed ({estimate:.4g}) and linear determinacy ({c_lin:.4g}) "
            "disagree by more than 5%",
            RuntimeWarning,
            stacklevel=2,
        )
    return estimate


def _frozen(
    d: float,
    r: Reaction,
    ws: _Workspace,
    params: SemiWaveParams,
    phi: np.ndarray,
    c: float,
    phase: Callable[[float, np.ndarray], float],
    start: int = 0,
    direct: bool = False,
) -> tuple[_Operator, np.ndarray, int, float]:
    """The freezing iteration (Beyn & Thuemmler, SIAM J. Appl. Dyn. Syst. 3,
    2004): the profile phi and its speed c, with c held by the phase
    condition ``phase(c, A_c(phi)[start:]) = 0``.

    Each step forms the operator's speed-independent first half at unit
    speed,

        w = d*(J*phi + far) + (c*M - d)*phi + f(phi),   c*M = choose_M(1, d, r),

    sets the next iterate to ``A_c.integrate(w)`` and reads the phase off
    it; ``phase`` sees the nodes from ``start`` to the front.  c moves by a
    chord Newton step (Shamanskii; Kelley, *Iterative Methods for Linear and
    Nonlinear Equations*, SIAM 1995): the phase's forward-difference slope,
    from one more integration of the suffix ``w[start:]`` at c + dc, is
    recomputed on the first step and every ``_SLOPE_EVERY``-th after it, and
    reused in between, so most steps take one integration.  The iteration
    stops once max|phi_new - phi| < tol_iter and the speed step is below
    tol_iter*c, and returns the operator at the last speed, its image of the
    last iterate, the number of iterations and the largest upward step of
    any node; ``max_iters`` is its only budget.  A speed that leaves
    (0, inf), or a recomputed slope of exactly 0, which leaves no Newton
    step, raises ``NonconvergenceError``.
    """
    cM = choose_M(1.0, d, r)
    unit = _Operator(1.0, d, r, cM, 0.0, ws)

    def at(c: float) -> _Operator:
        if not 0.0 < c < math.inf:
            raise NonconvergenceError(f"frozen iteration reached c = {c:.3g}")
        return _Operator(c, d, r, cM / c, 0.0, ws)

    slip = slope = 0.0
    for it in range(1, params.max_iters + 1):
        w = unit.rhs(phi, direct)
        A = at(c)
        nxt = A.integrate(w)
        g = phase(c, nxt[start:])
        if (it - 1) % _SLOPE_EVERY == 0:
            dc = 1e-8 * c
            slope = (phase(c + dc, at(c + dc).integrate(w[start:])) - g) / dc
            if slope == 0.0:
                raise NonconvergenceError(f"frozen iteration's phase is flat in c at c = {c:.6g}")
        step = g / slope
        diff = nxt - phi
        rise = float(diff.max())
        delta = max(rise, -float(diff.min()))
        slip = max(slip, rise)
        phi = nxt
        if delta < params.tol_iter and abs(step) < params.tol_iter * c:
            return A, phi, it, slip
        c -= step
    raise NonconvergenceError(
        f"frozen iteration did not converge in {params.max_iters} iterations "
        f"(last speed {c:.6g})"
    )


def _pinned_semiwave(
    d: float, k: Kernel, r: Reaction, params: SemiWaveParams, c_start: float
) -> SemiWaveProfile:
    """The semi-wave with phi(-L/2) = 1/2, and its speed, by ``_frozen``.

    Near c* the map phi -> A_c(phi) has one eigenvalue within about 1e-11 of
    1: the front's translation, held only by the exponentially small leading
    edge.  Pinning the front's position removes that mode.  The phase is
    A_c(phi) at -L/2, minus 1/2; A_c(phi) decreases in c at every node, and
    the phase's slope integrates only the nodes from -L/2 to the front.
    The convolution is the relative-accuracy path,
    ``LatticeConvolution.direct``: under the FFT's absolute rounding
    floor the leading edge is noise, and the uniform kernel at depth 80
    (4 000 cells) lost its phase that way.  The start comes from
    the cold profile at ``c_start``, never from another pinned profile: one
    shifted by a single unit stopped after 4 iterations near its own speed.
    That profile is only shifted and interpolated into a start, so its
    monotone solve stops at ``max(tol_iter, 1e-6)``; it must still be
    accepted.
    """
    L = params.resolve_depth(k)
    ws = _workspace(k, L, params.n_cells)
    cold = solve_semiwave(
        c_start, d, k, r, replace(params, tol_iter=max(params.tol_iter, 1e-6))
    )
    if not cold.accepted:
        raise NonconvergenceError(f"no semi-wave at the start speed c={c_start}: {cold.reason}")
    l, _ = half_level_shift(cold)
    phi = np.interp(ws.x + (0.5 * L - l), ws.x, cold.phi, left=1.0, right=0.0)

    # -L/2 lies theta of a cell beyond node j0
    n = params.n_cells
    j0 = n // 2
    theta = 0.5 * n - j0

    def phase(c: float, tail: np.ndarray) -> float:
        return float((1.0 - theta) * tail[0] + theta * tail[1]) - 0.5

    A, phi, it, slip = _frozen(d, r, ws, params, phi, c_start, phase, start=j0, direct=True)
    out = _verdict(A, phi, A.integrate(A.rhs(phi, direct=True)), params.tol_iter, it, slip)
    if not out.accepted:
        raise NonconvergenceError(
            f"pinned semi-wave at c={A.c:.6g} failed its plateau or residual test "
            f"(plateau {out.plateau_value:.3g}, residual {out.residual:.2e})"
        )
    return out


def linear_determinacy_speed(d: float, k: Kernel, r: Reaction) -> float | None:
    """min over lam > 0 of [d (J-hat(lam) - 1) + f'(0)] / lam, if defined.

    None means the kernel has no finite exponential moment.  Without an
    upper end to the moments, ``grow_bracket`` finds a lam where doubling it
    no longer lowers the objective, from [1, 2] on, and the minimum lies
    below twice that lam; the search raises ``NonconvergenceError`` after
    ``BRACKET_MAX_STEPS`` doublings.
    """
    if k.lambda_sup <= 0:
        return None

    def objective(lam: float) -> float:
        m = k.exp_moment(lam)
        return math.inf if math.isinf(m) else (d * (m - 1.0) + r.df0) / lam

    if math.isfinite(k.lambda_sup):
        lo, hi = 1e-8 * k.lambda_sup, k.lambda_sup * (1.0 - 1e-10)
    else:
        _, top = grow_bracket(lambda lam: objective(2.0 * lam) - objective(lam), 1.0, 2.0)
        lo, hi = 1e-8, 2.0 * top
    # imported here, not with the module: most commands never need scipy.optimize
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})
    return float(res.fun)
