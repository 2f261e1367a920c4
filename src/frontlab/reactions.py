"""KPP reaction terms, their validation, and the truncation-adjusted variant."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateAdjustmentError
from .numerics import bracketed_root

__all__ = [
    "Reaction",
    "AdjustedReaction",
    "ClauseResult",
    "ValidationReport",
    "make_logistic",
    "make_polynomial",
    "validate_kpp",
    "adjust_for_truncation",
]


@dataclass(eq=False, kw_only=True)
class Reaction:
    """Growth term f with derivative data and the linear extension below 0.

    ``f`` accepts scalars or arrays and already applies f(u) = df0*u for
    u < 0, so callers never special-case the extension.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df0: float
    df1: float
    lipschitz_K: float
    cap_K0: float
    params: dict = field(default_factory=dict)


def _extend(core: Callable[[np.ndarray], np.ndarray], df0: float):
    def f(u):
        u = np.asarray(u, dtype=float)
        # nothing below 0, the usual case: core alone gives the same values.
        # An empty input counts as nonnegative (initial); a NaN fails the
        # test and takes the masked branch.
        if np.minimum.reduce(u, initial=0.0) >= 0.0:
            out = core(u)
        else:
            out = np.where(u < 0.0, df0 * u, core(np.maximum(u, 0.0)))
        return out if u.ndim else float(out)

    return f


def make_logistic() -> Reaction:
    """f(u) = u(1 - u)."""
    return Reaction(
        name="logistic",
        f=_extend(lambda u: u * (1.0 - u), 1.0),
        df0=1.0,
        df1=-1.0,
        lipschitz_K=1.0,
        cap_K0=1.0,
    )


def make_polynomial(coeffs: Sequence[float]) -> Reaction:
    """Reaction from ascending polynomial coefficients (c0 + c1*u + ...).

    Derivatives at 0 and 1 come from the coefficients; the Lipschitz constant
    is a sampled finite-difference maximum inflated by 10% since sampling can
    only undershoot it.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("need at least two polynomial coefficients")
    dc = c[1:] * np.arange(1, c.size)

    def core(u):
        return np.polyval(c[::-1], u)

    df0 = float(dc[0]) if dc.size else 0.0
    df1 = float(np.polyval(dc[::-1], 1.0))

    us = np.linspace(0.0, 1.0, 10_001)
    slopes = np.diff(core(us)) / np.diff(us)
    lipschitz = 1.1 * float(np.max(np.abs(slopes)))

    cap = 1.0
    probe = np.linspace(1.0, 50.0, 4001)[1:]
    vals = core(probe)
    neg = vals < 0.0
    if neg.all():
        cap = 1.0
    elif neg.any():
        idx = np.nonzero(~neg)[0]
        cap = float(probe[idx[-1] + 1]) if idx[-1] + 1 < probe.size else math.inf
    else:
        cap = math.inf

    return Reaction(
        name="polynomial",
        f=_extend(core, df0),
        df0=df0,
        df1=df1,
        lipschitz_K=lipschitz,
        cap_K0=cap,
        params={"coeffs": c.tolist()},
    )


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    passed: bool
    worst_violation: float


@dataclass(frozen=True)
class ValidationReport:
    clauses: tuple[ClauseResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failed(self) -> list[str]:
        return [c.clause for c in self.clauses if not c.passed]


# validate_kpp samples f at the interior nodes of this many cells of [0, 1]
_KPP_SAMPLES = 10_000


def validate_kpp(r: Reaction) -> ValidationReport:
    """Sample-based check of every KPP clause on (0, 1).

    Checks are numeric, not symbolic: f is user-supplied code.  The report
    carries one entry per clause with the worst violation magnitude.
    """
    eps = 1e-12
    u = np.linspace(0.0, 1.0, _KPP_SAMPLES + 1)[1:-1]
    fu = np.asarray(r.f(u), dtype=float)
    clauses: list[ClauseResult] = []

    def add(name, passed, violation):
        clauses.append(ClauseResult(name, bool(passed), float(max(violation, 0.0))))

    v = abs(float(r.f(0.0)))
    add("f(0)=0", v <= eps, v)
    v = abs(float(r.f(1.0)))
    add("f(1)=0", v <= eps, v)
    v = float(np.max(-fu))
    add("positive_inside", v < 0.0, v)
    add("df0_positive", r.df0 > 0.0, -min(r.df0, 0.0) if r.df0 <= 0 else 0.0)
    add("df1_negative", r.df1 < 0.0, max(r.df1, 0.0))
    v = float(np.max(np.diff(fu / u)))
    add("ratio_nonincreasing", v <= eps, v)
    # an infinite cap means f stays positive somewhere beyond every bound
    cap_probe = r.cap_K0 * np.linspace(1.0, 3.0, 201)[1:]
    v = float(np.max(r.f(cap_probe))) if math.isfinite(r.cap_K0) else math.inf
    add("negative_beyond_cap", v < 0.0, v)
    uneg = -np.linspace(1e-6, 1.0, 100)
    v = float(np.max(np.abs(r.f(uneg) - r.df0 * uneg)))
    add("extension_linear", v <= eps, v)
    return ValidationReport(tuple(clauses))


@dataclass(eq=False, kw_only=True)
class AdjustedReaction:
    """f_n(u) = f(u) - d (1 - sigma_n) u, with its interior zero eta_n."""

    base: Reaction
    sigma_n: float
    d: float
    f_n: Callable[[np.ndarray], np.ndarray]
    eta_n: float

    def to_unit_reaction(self) -> Reaction:
        """Rescale so the positive equilibrium sits at 1 again.

        v -> f_n(eta_n v)/eta_n preserves the KPP structure, which lets the
        semi-wave machinery run unchanged on truncated-kernel problems.
        """
        eta, fn, base, sig = self.eta_n, self.f_n, self.base, self.sigma_n

        def core(v):
            return fn(eta * np.asarray(v, dtype=float)) / eta

        df0 = base.df0 - self.d * (1.0 - sig)
        h = 1e-7
        df1 = float((core(1.0 + h) - core(1.0 - h)) / (2.0 * h))
        vs = np.linspace(0.0, 1.0, 4001)
        lip = float(np.max(np.abs(np.diff(core(vs)) / np.diff(vs))))
        return Reaction(
            name=f"{base.name}|sigma={sig:.6g}",
            f=_extend(core, df0),
            df0=df0,
            df1=df1,
            lipschitz_K=lip,
            cap_K0=max(1.0, base.cap_K0 / eta),
            params={"sigma_n": sig, "eta_n": eta},
        )


def adjust_for_truncation(r: Reaction, sigma_n: float, d: float) -> AdjustedReaction:
    """Reaction correction absorbing the truncated kernel's mass deficit d (1 - sigma_n) u."""
    if not 0.0 < sigma_n <= 1.0:
        raise ValueError(f"sigma_n must lie in (0, 1], got {sigma_n}")
    loss = d * (1.0 - sigma_n)
    if loss >= r.df0:
        raise DegenerateAdjustmentError(
            f"mass deficit d(1 - sigma_n) = {loss:.3g} >= f'(0) = {r.df0:.3g}; growth vanishes"
        )
    base_f = r.f

    def f_n(u):
        u = np.asarray(u, dtype=float)
        out = base_f(u) - loss * u
        return out if out.ndim else float(out)

    if sigma_n == 1.0:
        return AdjustedReaction(base=r, sigma_n=1.0, d=d, f_n=f_n, eta_n=1.0)

    # f_n(u)/u = f(u)/u - loss is nonincreasing (KPP), positive near 0 and
    # -loss at 1, so its negative brackets and finds the zero eta_n
    def G(v: float) -> float:
        return -f_n(v) / v

    eta_n = bracketed_root(G, 0.5, 1.0, xtol=1e-14)
    return AdjustedReaction(base=r, sigma_n=sigma_n, d=d, f_n=f_n, eta_n=eta_n)
