"""Semi-wave profiles by monotone fixed-point iteration.

The half-line stationary problem is solved on a truncated domain [-L, 0]
after rewriting it with an exponential integrating factor.  The resulting
operator is monotone increasing and maps the order interval [0, 1] into
itself, so iterating down from the constant upper solution 1 converges to
the maximal fixed point; a genuine semi-wave exists exactly when that fixed
point keeps its plateau near 1.

Beyond -L the profile is closed with its plateau value 1, which contributes
the analytic tail mass of the kernel to every convolution.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import NonconvergenceError, NoCrossingError, UnsupportedTailError
from .kernels import Kernel, TailClass, classify_tail
from .numerics import (
    LatticeConvolution,
    UniformGrid,
    bracketed_root,
    minimize_scalar,
    trapezoid_weights,
)
from .reactions import Reaction

__all__ = [
    "SemiWaveParams",
    "SemiWaveProfile",
    "NonExistence",
    "MConstant",
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


@dataclass(kw_only=True)
class SemiWaveParams:
    """Discretization and iteration controls for the semi-wave solver."""

    depth: float | None = None  # L; None resolves per kernel tail class
    n_cells: int = 4000
    sigma_homotopy: float = 0.0
    tol_iter: float = 1e-10
    max_iters: int = 100_000
    plateau_eps: float = 1e-2
    residual_factor: float = 100.0

    def __post_init__(self):
        if self.depth is not None and self.depth <= 0:
            raise ValueError("depth must be positive")
        if self.n_cells < 100:
            raise ValueError("n_cells must be >= 100")
        if self.tol_iter <= 0:
            raise ValueError("tol_iter must be positive")
        if not 0.0 < self.plateau_eps < 0.1:
            raise ValueError("plateau_eps must lie in (0, 0.1)")
        if self.sigma_homotopy < 0:
            raise ValueError("sigma_homotopy must be >= 0")

    def resolve_depth(self, k: Kernel) -> float:
        if self.depth is not None:
            return self.depth
        return _DEPTH_DEFAULT[classify_tail(k)]


@dataclass(eq=False)
class MConstant:
    """Integrating-factor constant; c*M - d + f' must stay nonnegative."""

    M: float


def choose_M(c: float, d: float, r: Reaction) -> MConstant:
    """M large enough that (cM - d)u + f(u) is nondecreasing on [0, 1]."""
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
    return MConstant(M)


class _Workspace:
    """Per-(kernel, depth, n_cells) precomputation shared across iterations."""

    def __init__(self, k: Kernel, L: float, n_cells: int):
        self.grid = UniformGrid(-L, 0.0, n_cells)
        self.h = self.grid.spacing
        self.x = self.grid.nodes()
        self.trap_w = trapezoid_weights(n_cells + 1, self.h)
        self.lattice = LatticeConvolution(k.density, self.h, n_cells + 1)
        self.a_x = np.asarray(k.tail_mass(self.x), dtype=float)
        # plateau closure: phi = 1 on (-inf, -L) adds the tail mass beyond -L
        self.far = np.asarray(k.tail_mass(-self.x - L), dtype=float)
        # row normalization makes the inner quadrature exact on constants,
        # which keeps the discrete operator strictly below 1 at the plateau
        row_sums = self.lattice(self.trap_w)
        exact = np.asarray(k.tail_mass(self.x + L), dtype=float) - self.a_x
        with np.errstate(divide="ignore", invalid="ignore"):
            self.row_scale = np.where(row_sums > 0.0, exact / row_sums, 1.0)

    def convolve(self, phi: np.ndarray) -> np.ndarray:
        # a semi-wave profile vanishes at a finite slope at the front, so the
        # FFT path's absolute rounding floor is harmless here
        return self.row_scale * self.lattice(self.trap_w * phi)


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
    M: MConstant,
    sigma: float,
    params: SemiWaveParams,
) -> np.ndarray:
    """One application of the integrating-factor fixed-point operator."""
    ws = _workspace(k, params.resolve_depth(k), params.n_cells)
    return _apply(phi, c, d, r, M.M, sigma, ws)


def _apply(phi, c, d, r, M, sigma, ws: _Workspace) -> np.ndarray:
    w_tilde = (
        d * (ws.convolve(phi) + ws.far)
        + d * sigma * ws.a_x
        + (c * M - d) * phi
        + r.f(phi)
    )
    alpha, beta, E = _exp_cell_weights(M, ws.h)
    cell = alpha * w_tilde[:-1] + beta * w_tilde[1:]
    # I[j] = cell[j] + E * I[j+1], integrated from the right end
    acc = lfilter([1.0], [1.0, -E], cell[::-1])[::-1]
    out = np.empty_like(phi)
    out[:-1] = acc / c
    out[-1] = 0.0
    if sigma != 0.0:
        out[:-1] += sigma * np.exp(M * ws.x[:-1])
        out[-1] = sigma
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
) -> SemiWaveProfile | NonExistence:
    """Iterate the monotone operator from an upper solution down to a profile.

    Starting from 1 (or any iterate known to dominate the maximal fixed
    point) the sequence decreases pointwise, so a plateau that drops below
    1 - plateau_eps can never recover: the solve bails out early and reports
    NonExistence.  Exhausting max_iters raises NonconvergenceError, which is
    a different outcome from NonExistence.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    if d <= 0:
        raise ValueError("d must be positive")
    params = params or SemiWaveParams()
    sigma = params.sigma_homotopy
    ws = _workspace(k, params.resolve_depth(k), params.n_cells)
    M = choose_M(c, d, r)

    if initial is None:
        phi = np.ones(params.n_cells + 1)
        cold_start = True
    else:
        phi = np.clip(np.asarray(initial, dtype=float), 0.0, 1.0)
        if phi.shape != ws.x.shape:
            raise ValueError("initial profile does not match the solver grid")
        cold_start = False

    slip = 0.0
    threshold = 1.0 - params.plateau_eps
    for it in range(1, params.max_iters + 1):
        nxt = _apply(phi, c, d, r, M.M, sigma, ws)
        delta = float(np.max(np.abs(nxt - phi)))
        slip = max(slip, float(np.max(nxt - phi)))
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

    if cold_start and slip > 1e-10:
        warnings.warn(
            f"monotone iteration slipped upward by {slip:.2e} at c={c}",
            RuntimeWarning,
            stacklevel=2,
        )
    residual = float(np.max(np.abs(_apply(phi, c, d, r, M.M, sigma, ws) - phi)))
    plateau = float(phi[0])
    accept = plateau >= threshold and residual <= params.residual_factor * params.tol_iter
    if not accept:
        return NonExistence(
            c=c,
            plateau_value=plateau,
            residual=residual,
            iterations_used=it,
            reason="plateau or residual test failed after convergence",
        )
    return SemiWaveProfile(
        grid=ws.grid,
        phi=phi,
        c=c,
        d=d,
        sigma=sigma,
        iterations_used=it,
        residual=residual,
        plateau_value=plateau,
        ode_defect=_ode_defect(phi, c, d, r, sigma, ws),
        monotonicity_slip=slip,
    )


def _ode_defect(phi, c, d, r, sigma, ws: _Workspace) -> float:
    """Sup defect of the differential form at interior nodes (diagnostic).

    Centered differences make this O(h^2); it is reported, not gated on,
    because the fixed-point residual is the discretization-consistent test.
    """
    dphi = (phi[2:] - phi[:-2]) / (2.0 * ws.h)
    rhs = d * (ws.convolve(phi) + ws.far + sigma * ws.a_x) - d * phi + r.f(phi)
    return float(np.max(np.abs(rhs[1:-1] + c * dphi)))


def half_level_shift(p: SemiWaveProfile) -> tuple[float, tuple[UniformGrid, np.ndarray]]:
    """Distance l with phi(-l) = 1/2 and the profile re-centered there."""
    phi, x = p.phi, p.grid.nodes()
    if p.plateau_value < 0.5:
        raise NoCrossingError("profile never reaches the half level")
    below = np.nonzero(phi < 0.5)[0]
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
    tol_c: float = 0.02,
) -> float:
    """Threshold speed above which the semi-wave iteration loses its plateau.

    Bisection on the acceptance predicate (``numerics.bracketed_root`` fed
    -1 or +inf), warm-started from cached profiles.
    When the kernel has a finite exponential moment the linear-determinacy
    value is computed as a cross-check and a disagreement beyond 5% warns.
    """
    cls = classify_tail(k)
    if cls not in (TailClass.THIN_TAIL, TailClass.COMPACT_SUPPORT):
        raise UnsupportedTailError(
            f"kernel {k.name!r} has tail class {cls.value}; no finite minimal wave speed"
        )
    params = params or SemiWaveParams()
    cache: dict[float, SemiWaveProfile] = {}

    def accepts(c: float) -> bool:
        seeds = [cc for cc in cache if cc < c]
        initial = cache[max(seeds)].phi if seeds else None
        if initial is not None:
            initial = np.minimum(initial + 1e-3, 1.0)
        try:
            out = solve_semiwave(c, d, k, r, params, initial=initial)
        except NonconvergenceError:
            # right at the threshold the iteration may stall; for bracketing
            # purposes that point is indistinguishable from a rejection
            return False
        if isinstance(out, SemiWaveProfile):
            cache[c] = out
            return True
        return False

    lo, hi = 0.1, 1.0
    while not accepts(lo):
        lo *= 0.5
        if lo < 1e-4:
            raise NonconvergenceError("no accepted semi-wave found at any probed speed")
    while accepts(hi):
        lo = hi
        hi *= 2.0
        if hi > 1e6:
            raise NonconvergenceError("semi-wave acceptance never fails; no finite threshold")
    estimate = bracketed_root(
        lambda c: -1.0 if accepts(c) else math.inf,
        lo, hi, ftol=0.0, xtol=tol_c, g_lo=-1.0, g_hi=math.inf,
    )

    c_lin = linear_determinacy_speed(d, k, r)
    if c_lin is not None and abs(estimate - c_lin) > 0.05 * c_lin:
        warnings.warn(
            f"existence bisection ({estimate:.4g}) and linear determinacy ({c_lin:.4g}) "
            "disagree by more than 5%",
            RuntimeWarning,
            stacklevel=2,
        )
    return estimate


def linear_determinacy_speed(d: float, k: Kernel, r: Reaction) -> float | None:
    """min over lam > 0 of [d (J-hat(lam) - 1) + f'(0)] / lam, if defined."""
    if k.lambda_sup <= 0:
        return None

    def objective(lam: float) -> float:
        m = k.exp_moment(lam)
        return math.inf if math.isinf(m) else (d * (m - 1.0) + r.df0) / lam

    if math.isfinite(k.lambda_sup):
        lo, hi = 1e-8 * k.lambda_sup, k.lambda_sup * (1.0 - 1e-10)
    else:
        lo, hi = 1e-8, 1.0
        while objective(2.0 * hi) < objective(hi):
            hi *= 2.0
            if hi > 1e8:
                return None
        hi *= 2.0
    lam, val = minimize_scalar(objective, lo, hi, tol=1e-10)
    return float(val)
