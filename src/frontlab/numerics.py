"""Shared low-level numerics: quadrature, lattice convolution, a bracketed
root finder, scalar minimization, regression."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.optimize import brentq

from .errors import BracketError, NonconvergenceError

__all__ = [
    "UniformGrid",
    "trapezoid",
    "trapezoid_weights",
    "LatticeConvolution",
    "FFT_MIN_NODES",
    "bracketed_root",
    "minimize_scalar",
    "fit_slope",
]

_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class UniformGrid:
    """Uniform 1-D grid over [left, right] with ``n_cells`` cells."""

    left: float
    right: float
    n_cells: int

    def __post_init__(self):
        if not self.left < self.right:
            raise ValueError(f"grid requires left < right, got [{self.left}, {self.right}]")
        if self.n_cells < 2:
            raise ValueError(f"grid requires n_cells >= 2, got {self.n_cells}")

    @property
    def spacing(self) -> float:
        return (self.right - self.left) / self.n_cells

    def nodes(self) -> np.ndarray:
        # left + j*spacing rather than linspace, so node positions are reproducible
        return self.left + self.spacing * np.arange(self.n_cells + 1)


def trapezoid(values: Sequence[float] | np.ndarray, grid: UniformGrid) -> float:
    """Composite trapezoid rule for node values sampled on ``grid``."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size != grid.n_cells + 1:
        raise ValueError(f"expected {grid.n_cells + 1} node values, got shape {v.shape}")
    return float(grid.spacing * (v.sum() - 0.5 * (v[0] + v[-1])))


def trapezoid_weights(n_nodes: int, spacing: float) -> np.ndarray:
    """Composite trapezoid weights of ``n_nodes`` equally spaced nodes."""
    w = np.full(n_nodes, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


# Inputs shorter than this convolve directly.  Measured on a 2-core Xeon
# (numpy 2.4, scipy 1.17), medians of 9 x 300 calls: at 400 nodes np.convolve
# takes 0.027-0.033 ms against 0.043-0.045 ms for the cached-transform path
# with the row sampled for exactly n nodes; the two meet near 500 (0.049 ms
# each), and near 650 when the row was sampled for 2n nodes, as it can be
# after a doubling; the transform is 3.5x faster at 1 601 nodes.
FFT_MIN_NODES = 500


class LatticeConvolution:
    """``out[i] = sum_j wu[j] * J((i - j) * dx)`` on n consecutive lattice nodes.

    The kernel row ``J(m * dx)``, ``|m| < N``, is sampled once for a capacity
    N >= n that at least doubles whenever a longer input arrives, and its
    real FFT of length ``L >= 2N - 1`` is kept.  Entries ``N-1 ... N-2+n`` of
    the circular convolution of length L are then the exact linear
    convolution, so an FFT-path call costs one forward and one inverse
    transform of the input.

    Only the density function is held, not the kernel, so a cache keyed
    weakly on the kernel lets it and this object go together.
    """

    def __init__(self, density: Callable[[np.ndarray], np.ndarray], dx: float, capacity: int = 1):
        self.density = density
        self.dx = float(dx)
        self.capacity = 0
        self._grow(capacity)

    def _grow(self, n: int) -> None:
        N = max(n, 2 * self.capacity)
        self.row = np.asarray(self.density(np.arange(-(N - 1), N) * self.dx), dtype=float)
        self._size = next_fast_len(2 * N - 1, real=True)
        self._row_hat = rfft(self.row, self._size)
        self.capacity = N

    def _fit(self, n: int) -> int:
        if n > self.capacity:
            self._grow(n)
        return self.capacity

    def __call__(self, wu: np.ndarray) -> np.ndarray:
        """Convolve by the path that is faster at this input size."""
        return self.direct(wu) if wu.size < FFT_MIN_NODES else self.fft(wu)

    def direct(self, wu: np.ndarray) -> np.ndarray:
        """Direct summation: on nonnegative input every output keeps its
        relative accuracy, however small it is."""
        n = wu.size
        N = self._fit(n)
        return np.convolve(self.row[N - n : N + n - 1], wu, mode="valid")

    def fft(self, wu: np.ndarray) -> np.ndarray:
        """Cached-transform path: absolute error ~1e-16 of the largest term."""
        n = wu.size
        N = self._fit(n)
        return irfft(rfft(wu, self._size) * self._row_hat, self._size)[N - 1 : N - 1 + n]


class _Stop(Exception):
    """Ends a brentq run at a point where |G| <= ftol or G is not finite."""

    def __init__(self, x: float, g: float):
        super().__init__(x, g)
        self.x, self.g = x, g


def bracketed_root(
    G: Callable[[float], float],
    lo: float,
    hi: float,
    ftol: float,
    xtol: float,
    g_lo: float | None = None,
    g_hi: float | None = None,
) -> float:
    """Root of a scalar function that increases wherever it is finite.

    G may return +inf on an upper part of the bracket, as ``c - mu*M(c)``
    does past the existence threshold of the semi-wave.  Phase 1 bisects,
    using only the sign of G, while G(hi) is not finite.  Phase 2 runs
    Brent's method (``scipy.optimize.brentq``) on the finite bracket.  It is
    never handed +inf: a point where G is not finite becomes the new upper
    end, and phase 1 resumes.  Either phase returns as soon as |G| <= ftol;
    otherwise the bracket width xtol stops it, and phase 1 returns the
    midpoint of its last bracket.  A G that returns only -1 or +inf (a
    predicate) therefore repeats plain bisection to width xtol.  ``g_lo`` and
    ``g_hi`` pass values of G already known at the ends, so they are not
    evaluated again.
    """
    if not (ftol >= 0 and xtol > 0):
        raise ValueError(f"need ftol >= 0 and xtol > 0, got ftol={ftol}, xtol={xtol}")
    if not lo < hi:
        raise ValueError(f"bad bracket [{lo}, {hi}]")
    g_lo = G(lo) if g_lo is None else g_lo
    if abs(g_lo) <= ftol:
        return lo
    g_hi = G(hi) if g_hi is None else g_hi
    if abs(g_hi) <= ftol:
        return hi
    if not g_lo < 0.0 < g_hi:
        raise BracketError(f"G does not change sign on [{lo}, {hi}]: G(lo)={g_lo}, G(hi)={g_hi}")

    def g(x: float) -> float:
        if x == lo:
            return g_lo
        if x == hi:
            return g_hi
        gx = G(x)
        if not math.isfinite(gx) or abs(gx) <= ftol:
            raise _Stop(x, gx)
        return gx

    while True:
        while not math.isfinite(g_hi):
            mid = 0.5 * (lo + hi)
            if hi - lo <= xtol or mid in (lo, hi):
                return mid
            g_mid = G(mid)
            if abs(g_mid) <= ftol:
                return mid
            if g_mid < 0.0:
                lo, g_lo = mid, g_mid
            else:
                hi, g_hi = mid, g_mid
        try:
            root, info = brentq(g, lo, hi, xtol=xtol, full_output=True, disp=False)
        except _Stop as stop:
            if math.isfinite(stop.g):
                return stop.x
            hi, g_hi = stop.x, stop.g
            continue
        if not info.converged:
            raise NonconvergenceError(f"Brent's method did not converge on [{lo}, {hi}]")
        return float(root)


def minimize_scalar(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> tuple[float, float]:
    """Golden-section minimum of a unimodal function on [lo, hi].

    Returns (argmin, min).
    """
    if not lo < hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    g1, g2 = g(x1), g(x2)
    it = 0
    while b - a > tol and it < max_iter:
        if g1 <= g2:
            b, x2, g2 = x2, x1, g1
            x1 = b - _INV_GOLDEN * (b - a)
            g1 = g(x1)
        else:
            a, x1, g1 = x1, x2, g2
            x2 = a + _INV_GOLDEN * (b - a)
            g2 = g(x2)
        it += 1
    x = x1 if g1 <= g2 else x2
    return float(x), float(g(x))


def fit_slope(ts: Sequence[float] | np.ndarray, xs: Sequence[float] | np.ndarray) -> float:
    """Least-squares slope of xs against ts."""
    t = np.asarray(ts, dtype=float)
    x = np.asarray(xs, dtype=float)
    if t.shape != x.shape or t.ndim != 1 or t.size < 2:
        raise ValueError("ts and xs must be equal-length 1-D sequences of length >= 2")
    if not np.all(np.diff(t) > 0):
        raise ValueError("ts must be strictly increasing")
    t0 = t - t.mean()
    return float(np.dot(t0, x - x.mean()) / np.dot(t0, t0))
