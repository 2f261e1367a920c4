"""Dispersal kernels with analytic tail machinery and tail classification.

Every built-in kernel ships an exact cumulative tail a(x) = integral of J up
to x, because boundary fluxes and far-field closures evaluate a() at
arbitrary arguments where raw quadrature of the density would dominate the
error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import betainc, erfc

from .errors import (
    DivergentIntegralError,
    NonNormalizableError,
    UndecidableTailError,
)
from .numerics import UniformGrid, trapezoid_weights

__all__ = [
    "TailClass",
    "Kernel",
    "TruncatedKernel",
    "make_laplace",
    "make_gaussian",
    "make_uniform",
    "make_power",
    "make_custom",
    "c_of_J",
    "classify_tail",
    "truncate",
    "exp_moment",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


class TailClass(Enum):
    COMPACT_SUPPORT = "CompactSupport"
    THIN_TAIL = "ThinTail"
    HEAVY_TAIL_J1_ONLY = "HeavyTailJ1Only"
    FAT_TAIL = "FatTail"


@dataclass(eq=False, kw_only=True)
class Kernel:
    """Even dispersal density J with its exact tail apparatus.

    tail_mass(x) is a(x) = integral of J over (-inf, x]; tail_integral(x0)
    is the once-more integrated tail, integral of a over (-inf, x0], defined
    whenever the kernel satisfies the double-tail integrability condition.
    exp_moment_fn(lam) returns the one-sided exponential moment or +inf.
    exp_rate is set only where J(x) = J(0) * exp(-exp_rate * |x|) holds
    exactly, since LatticeConvolution then sums the row by a tridiagonal
    solve and, as tail_mass(x) = density(x) / exp_rate for x <= 0, reads the
    boundary fluxes off that sum (boundary_fluxes); a cut-off or rescaled
    copy is a new Kernel without it.

    Kernels without an analytic tail_mass (density-only user kernels) must
    pass through truncate() before any solver touches them; the tails feed
    every boundary flux and far-field closure, and quadrature of raw tails
    would dominate the error budget.
    """

    name: str
    density: Callable[[np.ndarray], np.ndarray]
    tail_mass: Callable[[np.ndarray], np.ndarray] | None
    tail_class: TailClass | None
    total_mass: float = 1.0
    support_radius: float | None = None
    exp_moment_fn: Callable[[float], float] | None = None
    lambda_sup: float = 0.0
    tail_integral_fn: Callable[[float], float] | None = None
    exp_rate: float | None = None
    params: dict = field(default_factory=dict)

    def tail_integral(self, x0: float) -> float:
        """Integral of a(x) over (-inf, x0]; raises if it diverges."""
        if self.tail_integral_fn is None:
            raise DivergentIntegralError(
                f"kernel {self.name!r} has no integrable tail-mass integral"
            )
        return float(self.tail_integral_fn(x0))

    def exp_moment(self, lam: float) -> float:
        return exp_moment(self, lam)


@dataclass(eq=False, kw_only=True)
class TruncatedKernel(Kernel):
    """Kernel multiplied by a smooth even cutoff; carries its mass deficit."""

    sigma_n: float

    def normalized(self) -> Kernel:
        """Unit-mass version of the truncated density."""
        s = self.sigma_n
        dens, mass, tint = self.density, self.tail_mass, self.tail_integral_fn
        return Kernel(
            name=f"{self.name}/norm",
            density=lambda x: dens(x) / s,
            tail_mass=lambda x: mass(x) / s,
            tail_class=TailClass.COMPACT_SUPPORT,
            total_mass=1.0,
            support_radius=self.support_radius,
            exp_moment_fn=None,
            lambda_sup=math.inf,
            tail_integral_fn=(lambda x0: tint(x0) / s) if tint else None,
            params=dict(self.params, normalized=True),
        )


def make_laplace() -> Kernel:
    """J(x) = exp(-|x|)/2."""

    def a(x):
        x = np.asarray(x, dtype=float)
        e = 0.5 * np.exp(-np.abs(x))
        return np.where(x <= 0.0, e, 1.0 - e)

    def em(lam):
        return 1.0 / (1.0 - lam * lam) if abs(lam) < 1.0 else math.inf

    return Kernel(
        name="laplace",
        density=lambda x: 0.5 * np.exp(-np.abs(np.asarray(x, dtype=float))),
        tail_mass=a,
        tail_class=TailClass.THIN_TAIL,
        exp_moment_fn=em,
        lambda_sup=1.0,
        tail_integral_fn=_laplace_tail_int,
        exp_rate=1.0,
    )


def _laplace_tail_int(x0: float) -> float:
    if x0 <= 0.0:
        return 0.5 * math.exp(x0)
    return x0 + 0.5 * math.exp(-x0)


def make_gaussian(sd: float = 1.0) -> Kernel:
    """Centered normal density with standard deviation ``sd``."""
    if sd <= 0:
        raise ValueError("sd must be positive")

    def dens(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * (x / sd) ** 2) / (sd * _SQRT2PI)

    def a(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * erfc(-x / (sd * math.sqrt(2.0)))

    def em(lam):
        try:
            return math.exp(0.5 * (lam * sd) ** 2)
        except OverflowError:  # past the largest float, as a divergent moment
            return math.inf

    def tint(x0):
        z = x0 / sd
        pdf = math.exp(-0.5 * z * z) / _SQRT2PI
        cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
        return sd * (pdf + z * cdf)

    return Kernel(
        name="gaussian",
        density=dens,
        tail_mass=a,
        tail_class=TailClass.THIN_TAIL,
        exp_moment_fn=em,
        lambda_sup=math.inf,
        tail_integral_fn=tint,
        params={"sd": sd},
    )


def make_uniform(radius: float = 1.0) -> Kernel:
    """J = 1/(2R) on [-R, R]."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    R = float(radius)

    def dens(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= R, 0.5 / R, 0.0)

    def a(x):
        x = np.asarray(x, dtype=float)
        return np.clip((x + R) / (2.0 * R), 0.0, 1.0)

    def em(lam):
        z = lam * R
        return math.sinh(z) / z if z != 0.0 else 1.0

    def tint(x0):
        if x0 <= -R:
            return 0.0
        if x0 <= R:
            return (x0 + R) ** 2 / (4.0 * R)
        return x0

    return Kernel(
        name="uniform",
        density=dens,
        tail_mass=a,
        tail_class=TailClass.COMPACT_SUPPORT,
        support_radius=R,
        exp_moment_fn=em,
        lambda_sup=math.inf,
        tail_integral_fn=tint,
        params={"radius": R},
    )


def make_power(sigma_exp: float) -> Kernel:
    """Normalized algebraic-tail density proportional to (1 + x^2)^(-sigma).

    Integrable only for sigma > 1/2.  The double-tail condition holds exactly
    when sigma > 1; the exponential moment is infinite for every lam > 0.
    """
    s = float(sigma_exp)
    if s <= 0.5:
        raise NonNormalizableError(f"power kernel requires sigma > 1/2, got {s}")
    C = math.gamma(s) / (math.sqrt(math.pi) * math.gamma(s - 0.5))

    def dens(x):
        x = np.asarray(x, dtype=float)
        return C * (1.0 + x * x) ** (-s)

    def a(x):
        x = np.asarray(x, dtype=float)
        xx = x * x
        left = np.asarray(0.5 * betainc(s - 0.5, 0.5, 1.0 / (1.0 + xx)))
        # z = 1/(1 + x^2) carries x^2 only in its last bits as x -> 0, where
        # I_z then loses about eps/|x| absolute; below |x| = 1/2 take the
        # complement 1 - I_w(1/2, s - 1/2) at w = x^2/(1 + x^2) instead
        near = xx < 0.25
        if near.any():
            w = xx[near]
            left[near] = 0.5 - 0.5 * betainc(0.5, s - 0.5, w / (1.0 + w))
        return np.where(x <= 0.0, left, 1.0 - left)

    tint = None
    if s > 1.0:
        def tint(x0):
            if x0 > 0.0:
                raise ValueError("tail integral implemented for x0 <= 0 only")
            ax0 = float(a(np.asarray(x0)))
            return x0 * ax0 + C * (1.0 + x0 * x0) ** (1.0 - s) / (2.0 * (s - 1.0))

    return Kernel(
        name="power",
        density=dens,
        tail_mass=a,
        tail_class=TailClass.HEAVY_TAIL_J1_ONLY if s > 1.0 else TailClass.FAT_TAIL,
        exp_moment_fn=lambda lam: 1.0 if lam == 0.0 else math.inf,
        lambda_sup=0.0,
        tail_integral_fn=tint,
        params={"sigma": s},
    )


def c_of_J(k: Kernel) -> float:
    """Integral of a(x) over the left half-line, the flux constant of the kernel.

    That is the tail integral at 0, which every kernel with a finite flux
    constant carries: in closed form for the built-ins, tabulated once the
    kernel has been truncated.
    """
    if classify_tail(k) is TailClass.FAT_TAIL:
        raise DivergentIntegralError(f"kernel {k.name!r} fails double-tail integrability")
    return k.tail_integral(0.0)


def classify_tail(k: Kernel) -> TailClass:
    """Stored class for built-ins; numeric probes for user kernels.

    The double-tail probe walks a geometric depth ladder and extrapolates the
    remaining tail from the measured increment ratio: slowly decaying but
    integrable tails (the interesting regime) park far more than 1e-6 of
    their mass beyond any fixed shallow depth, so a fixed-depth criterion
    alone cannot certify convergence.
    """
    if k.tail_class is not None:
        return k.tail_class
    if k.support_radius is not None and math.isfinite(k.support_radius):
        return TailClass.COMPACT_SUPPORT
    if k.tail_mass is None:
        raise UndecidableTailError(
            f"kernel {k.name!r} has no tail-mass function; truncate() it first",
            diagnostics={"kernel": k.name},
        )
    for i in range(7):
        lam = 2.0 ** (-i)
        if math.isfinite(exp_moment(k, lam)):
            return TailClass.THIN_TAIL
    partials = []
    depths = [10.0 * 2**j for j in range(11)]
    for D in depths:
        grid = UniformGrid(-D, 0.0, max(2000, int(200 * D)))
        w = trapezoid_weights(grid.n_cells + 1, grid.spacing)
        partials.append(float(np.dot(w, k.tail_mass(grid.nodes()))))
        if len(partials) < 3:
            continue
        inc_prev = partials[-2] - partials[-3]
        inc = partials[-1] - partials[-2]
        total = partials[-1]
        if inc <= 1e-6 * total:
            return TailClass.HEAVY_TAIL_J1_ONLY
        ratio = inc / max(inc_prev, 1e-300)
        if ratio < 0.9:
            projected_tail = inc * ratio / (1.0 - ratio)
            if projected_tail <= 1e-6 * total:
                return TailClass.HEAVY_TAIL_J1_ONLY
        elif ratio >= 0.97:
            # increments refuse to decay under doubling: divergent
            return TailClass.FAT_TAIL
    raise UndecidableTailError(
        "tail probe inconclusive",
        diagnostics={"depths": depths, "partials": partials},
    )


def exp_moment(k: Kernel, lam: float) -> float:
    """One-sided exponential moment of J; +inf marks divergence."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        return k.total_mass
    if k.exp_moment_fn is not None:
        return float(k.exp_moment_fn(lam))
    if k.support_radius is not None and math.isfinite(k.support_radius):
        return _quad_moment(k, lam, k.support_radius)
    # the exponential only overtakes a decaying density near x ~ 1/lam, so
    # the probe depth must scale with 1/lam to witness divergence
    base = max(20.0, 10.0 / lam)
    prev = None
    inc_prev = None
    for D in (base, 2 * base, 4 * base, 8 * base, 16 * base):
        cur = _quad_moment(k, lam, D)
        if prev is not None:
            inc = cur - prev
            if inc < 1e-8 * max(1.0, cur):
                return cur
            if inc_prev is not None and inc >= inc_prev:
                return math.inf
            inc_prev = inc
        prev = cur
    return math.inf


def _quad_moment(k: Kernel, lam: float, D: float) -> float:
    grid = UniformGrid(-D, D, max(2000, int(400 * D)))
    x = grid.nodes()
    return float(np.dot(trapezoid_weights(x.size, grid.spacing), k.density(x) * np.exp(lam * x)))


def make_custom(
    name: str,
    density: Callable[[np.ndarray], np.ndarray],
    tail_mass: Callable[[np.ndarray], np.ndarray] | None = None,
    tail_class: TailClass | None = None,
) -> Kernel:
    """User-supplied kernel.  Without an analytic tail_mass the kernel is
    only usable after explicit truncation, which builds tabulated tails on
    the compact support."""
    return Kernel(
        name=name,
        density=density,
        tail_mass=tail_mass,
        tail_class=tail_class,
        params={"custom": True},
    )


# width of the cutoff's smooth step, from 1 at R down to 0 at R + _RAMP
_RAMP = 1.0


def truncate(k: Kernel, R: float) -> TruncatedKernel:
    """Multiply J by a C^1 even cutoff: 1 on [-R, R], 0 beyond R + _RAMP."""
    if R <= 0:
        raise ValueError("R must be positive")
    S = R + _RAMP
    base_density = k.density

    def cutoff(x):
        t = np.clip((S - np.abs(np.asarray(x, dtype=float))) / _RAMP, 0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)

    def dens(x):
        return base_density(x) * cutoff(x)

    # mass from the exact complement: what the cutoff removes is the analytic
    # tail beyond S plus the ramp deficit, so sigma_n <= 1 by construction;
    # density-only kernels lose the tail term and simply assert it negligible
    xr = np.linspace(R, S, int(4000 * _RAMP) + 1)
    deficit = base_density(xr) * (1.0 - cutoff(xr))
    ramp_loss = float(np.dot(trapezoid_weights(xr.size, xr[1] - xr[0]), deficit))
    tail_loss = float(k.tail_mass(np.asarray(-S, dtype=float))) if k.tail_mass else 0.0
    sigma_n = min(1.0, max(1e-12, 1.0 - 2.0 * tail_loss - 2.0 * ramp_loss))

    # dense cumulative tables give a() and its integral on the compact
    # support, rescaled so the total mass matches sigma_n exactly
    n_tab = max(4001, int(800 * S) + 1)
    xs = np.linspace(-S, S, n_tab)
    js = dens(xs)
    dx = xs[1] - xs[0]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (js[1:] + js[:-1]) * dx)])
    if cum[-1] > 0:
        cum *= sigma_n / cum[-1]
    acum = np.concatenate([[0.0], np.cumsum(0.5 * (cum[1:] + cum[:-1]) * dx)])

    def a(x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, xs, cum, left=0.0, right=sigma_n)

    def tint(x0):
        if x0 <= -S:
            return 0.0
        if x0 <= S:
            return float(np.interp(x0, xs, acum))
        return float(acum[-1] + sigma_n * (x0 - S))

    return TruncatedKernel(
        name=f"{k.name}|R={R}",
        density=dens,
        tail_mass=a,
        tail_class=TailClass.COMPACT_SUPPORT,
        total_mass=sigma_n,
        support_radius=S,
        exp_moment_fn=None,
        lambda_sup=math.inf,
        tail_integral_fn=tint,
        params=dict(k.params, cutoff_radius=R, ramp=_RAMP),
        sigma_n=sigma_n,
    )
