"""Shared low-level numerics: trapezoid weights, lattice convolution, a
geometric bracket search, regression."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg.lapack import dpttrs

from .errors import NonconvergenceError

if TYPE_CHECKING:
    from .kernels import Kernel

__all__ = [
    "UniformGrid",
    "trapezoid_weights",
    "LatticeConvolution",
    "FFT_MIN_NODES",
    "BAND_PER_LOG2",
    "TAIL_NODES",
    "TAIL_TOL",
    "grow_bracket",
    "fit_slope",
]


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

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid weights of the nodes, computed on first use and kept
        read-only, so a time-stepping loop on one grid builds them once."""
        w = trapezoid_weights(self.n_cells + 1, self.spacing)
        w.flags.writeable = False
        return w


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
# after a doubling; the transform is 3.5x faster at 1 601 nodes.  An
# exponential kernel takes neither path at any size: its tridiagonal solve
# (one dpttrs call) took 2-4 us at 12-100 nodes, 5-6 at 300, 12-14 at 1 201
# and 23-25 at 2 559 on the same machine, against 2-4, 15-30, 28-38 and
# 42-56 us for np.convolve and the two first-order recursions it replaced.
FFT_MIN_NODES = 500

# From FFT_MIN_NODES nodes on, a row that ends in exact zeros (uniform,
# Gaussian past underflow, truncate()) is summed over its band |m| <= w when
# its 2w + 1 entries number at most BAND_PER_LOG2 * log2(n), and by the FFT
# otherwise.  Measured on the same machine and versions, medians of 5: the
# banded sum costs about 15-25 ns per node plus 0.15-0.3 ns per
# multiply-add, the FFT path 48-12 100 us at 500-83 139 nodes (5-9 ns * n *
# log2 n).  They meet near w = 120 at 1 201-3 001 nodes, 100 at 4 001, 260
# at 20 001 and 400 at 83 139; the rule's w = 102, 115, 119, 143 and 163
# there err toward the FFT.  The FFT side was measured with transforms of
# 2N - 1 points; a banded row's transform takes N + w, which would move the
# crossover lower, but the rule is kept as measured.
BAND_PER_LOG2 = 20.0

# The tail table samples each cell at TAIL_NODES Chebyshev points, both ends
# included, and is kept only if its interpolant matches the tail at the
# TAIL_NODES - 1 points halfway between them (in angle) to within TAIL_TOL of
# the table's largest value.  Sixteen points leave at most 1e-15 there for
# power kernels at dx <= 0.25 and for the Gaussian at dx <= 1.
TAIL_NODES = 16
TAIL_TOL = 1e-13
_TAIL_NODES = (np.sin(0.5 * np.pi * np.arange(TAIL_NODES) / (TAIL_NODES - 1)) ** 2).tolist()
_TAIL_CHECK = np.sin(0.5 * np.pi * (np.arange(TAIL_NODES - 1) + 0.5) / (TAIL_NODES - 1)) ** 2
_TAIL_BARY = [(-1.0) ** k * (0.5 if k in (0, TAIL_NODES - 1) else 1.0) for k in range(TAIL_NODES)]


def _interpolate(
    t_h: float, t_g: float, rows: Sequence[Sequence[float]]
) -> tuple[float, float]:
    """The polynomials through the two columns of ``rows`` (their values at
    the table's nodes), at ``t_h`` and ``t_g`` (in cells) respectively, by the
    second barycentric formula.  One pass serves both columns, and each does
    the operations that it would alone: an offset on a node takes that
    node's value.  Plain floats: a step calls this on 16 rows, where numpy's
    per-call cost would dominate."""
    num_h = den_h = num_g = den_g = 0.0
    at_h = at_g = None
    for node, b, (v_h, v_g) in zip(_TAIL_NODES, _TAIL_BARY, rows):
        if t_h == node:
            at_h = v_h
        else:
            c = b / (t_h - node)
            num_h += c * v_h
            den_h += c
        if t_g == node:
            at_g = v_g
        else:
            c = b / (t_g - node)
            num_g += c * v_g
            den_g += c
    return (
        num_h / den_h if at_h is None else at_h,
        num_g / den_g if at_g is None else at_g,
    )


# row i: the weights that _interpolate gives the node values at _TAIL_CHECK[i]
_TAIL_CHECK_WEIGHTS = np.array(
    [[_interpolate(t, t, [(v, v) for v in e])[0] for e in np.eye(TAIL_NODES).tolist()]
     for t in _TAIL_CHECK.tolist()]
)


class LatticeConvolution:
    """``out[i] = sum_j wu[j] * J((i - j) * dx)`` on n consecutive lattice nodes.

    The kernel row ``J(m * dx)``, ``|m| < N``, is sampled for N = n of the
    first input that needs it, and again for an N that at least doubles
    whenever a longer one arrives.  Its band w is the last m with ``J(m *
    dx) != 0``: N - 1 unless the row ends in exact zeros.  The FFT path
    keeps the real FFT of the row laid out circularly in ``L =
    next_fast_len(N + w)`` points, entries ``0 ... w`` at the start, ``-w
    ... -1`` at the end and zeros between.  Since ``L >= n + w``, entries
    ``0 ... n-1`` of an input's circular convolution with it take no
    wrap-around and are the exact linear convolution, so an FFT-path call
    costs one forward and one inverse transform of length L: about 2N for
    a row without exact zeros, and N + w for one with them.

    A row that ends in exact zeros, ``J(m * dx) = 0`` for ``|m| > w`` (a
    uniform kernel, a Gaussian where ``exp`` underflows, ``truncate()``),
    is summed directly over its band only: ``direct`` then costs O(n * w)
    and drops nothing but exact zeros, so every output keeps its relative
    accuracy.  ``__call__`` takes that banded sum over the FFT when the band
    is narrow enough for the cost rule of ``BAND_PER_LOG2``.

    A kernel with ``exp_rate`` set is exactly exponential, ``J(x) = J(0) *
    exp(-exp_rate * |x|)``.  Its row is geometric, ``J(m * dx) = J(0) * r**|m|``
    with ``r = exp(-exp_rate * dx)``, and the n x n matrix ``K = (r**|i-j|)``
    has the tridiagonal inverse ``T / (1 - r**2)``, ``T = tridiag(-r, 1 + r**2,
    -r)`` with corner entries 1.  T factors in closed form as ``L D L^T``, L
    unit lower bidiagonal with subdiagonal -r and ``D = diag(1, ..., 1, 1 -
    r**2)``, so at every size both ``__call__`` and ``direct`` sum the row by
    one LAPACK ``dpttrs`` solve on ``J(0) * (1 - r**2) * wu``: O(n), with no
    factorisation and no powers of r, so no span overflows.  Its forward and
    backward sweeps add only nonnegative terms, so every output keeps its
    relative accuracy like the direct sum.  Such a convolution reads J(0)
    once, never samples its row and never takes the FFT path.

    ``boundary_fluxes`` gives the two boundary fluxes of a free-boundary
    window, ``sum_j wu[j] * a(x_j - h)`` and ``sum_j wu[j] * a(g - x_j)``
    with a the kernel's tail, so the half-infinite inner integrals of the
    boundary laws never need quadrature.  It reads them one of three ways:

    - For an exponential kernel the tail is the density over the rate,
      ``a(y) = J(y) / exp_rate`` for y <= 0, so ``flux_h = exp(-exp_rate *
      (h - x_last)) / exp_rate * Ju[-1]``, and flux_g mirrors it with
      ``Ju[0]``: both are read off the end values of the window's
      convolution, which the tridiagonal solve gives to full relative
      accuracy, and the tail is never evaluated.
    - Any other kernel reads them off a tail table: the tail
      a(-(m * dx + theta)) of nodes m cells in from the end node, where the
      boundary lies theta in (0, dx] beyond that node.  The first call
      samples it at the ``TAIL_NODES`` Chebyshev points theta of one cell
      for every m below N (N as for the row, at least doubling when a
      longer window arrives) and checks the interpolant in between; after
      that a call fills a two-column buffer kept beside the table with
      ``wu`` and takes one (``TAIL_NODES`` x n) product, whose two columns
      are interpolated at the two offsets in one barycentric pass, with no
      tail evaluation.  Smooth tails pass the check: the Gaussian, and
      power kernels up to dx = 0.5 except sigma = 5 there.  Tails with a kink inside a cell fail: every ``truncate()``
      kernel, and a uniform kernel whose radius is not a whole number of
      cells (one whose radius is, is linear on each cell and passes).
    - A failed check drops the table for good, and every later call
      evaluates the tail at every node of the window, twice.

    The kernel's density, tail and ``exp_rate`` are read once and the kernel
    is not held, so a cache keyed weakly on the kernel lets it and this object
    go together.

    Every call returns a fresh array that the caller owns and may update in
    place.  The FFT path copies its input into one zero-padded buffer kept by
    this object, but no result is a view of that buffer, so a later call
    never changes an earlier result.
    """

    def __init__(self, k: Kernel, dx: float):
        self.density = k.density
        self.tail_mass = k.tail_mass
        self.dx = float(dx)
        self.exp_rate = k.exp_rate
        self.capacity = self.band = 0
        self._tail, self._tail_capacity = None, 0
        if self.exp_rate is not None:
            self._r = math.exp(-self.exp_rate * self.dx)
            self._one_minus_r2 = -math.expm1(-2.0 * self.exp_rate * self.dx)
            self._amp = float(k.density(0.0))
            self._offdiag = np.empty(0)

    def _fit(self, n: int) -> int:
        if n > self.capacity:
            N = max(n, 2 * self.capacity)
            self.row = np.asarray(self.density(np.arange(-(N - 1), N) * self.dx), dtype=float)
            nonzero = np.flatnonzero(self.row[N - 1 :])
            w = self.band = int(nonzero[-1]) if nonzero.size else 0
            self._size = next_fast_len(N + w, real=True)
            circular = np.zeros(self._size)
            circular[: w + 1] = self.row[N - 1 : N + w]
            if w:  # circular[-0:] would be the whole buffer
                circular[-w:] = self.row[N - 1 - w : N - 1]
            self._row_hat = rfft(circular)
            self._padded = np.zeros(self._size)
            self._filled = 0
            self.capacity = N
        return self.capacity

    def __call__(self, wu: np.ndarray) -> np.ndarray:
        """Convolve by the path that is faster for this kernel and input size."""
        n = wu.size
        if n < FFT_MIN_NODES or self.exp_rate is not None:
            return self.direct(wu)
        self._fit(n)
        if 2 * self.band + 1 <= BAND_PER_LOG2 * math.log2(n):
            return self.direct(wu)
        return self.fft(wu)

    def direct(self, wu: np.ndarray) -> np.ndarray:
        """Direct summation, over the row's band when it ends in exact zeros,
        or the tridiagonal solve of an exponential kernel: on nonnegative
        input every output keeps its relative accuracy, however small it is."""
        n = wu.size
        if self.exp_rate is not None:
            if n == 1:
                # J(0) * wu; dpttrs takes no empty subdiagonal
                return self._amp * wu
            if self._offdiag.size != n - 1:
                # D and L of T = L D L^T at this size, kept for the next call
                self._pivots = np.ones(n)
                self._pivots[-1] = self._one_minus_r2
                self._offdiag = np.full(n - 1, -self._r)
            b = (self._amp * self._one_minus_r2) * wu
            return dpttrs(self._pivots, self._offdiag, b, overwrite_b=1)[0]
        N = self._fit(n)
        w = self.band
        if w < n - 1:
            return np.convolve(wu, self.row[N - 1 - w : N + w])[w : w + n]
        return np.convolve(self.row[N - n : N + n - 1], wu, mode="valid")

    def fft(self, wu: np.ndarray) -> np.ndarray:
        """Cached-transform path: absolute error ~1e-16 of the largest term."""
        n = wu.size
        self._fit(n)
        padded = self._padded
        padded[:n] = wu
        padded[n : self._filled] = 0.0
        self._filled = n
        spectrum = rfft(padded)
        spectrum *= self._row_hat
        return irfft(spectrum, self._size)[:n]

    def boundary_fluxes(
        self, wu: np.ndarray, Ju: np.ndarray, j0: int, g: float, h: float
    ) -> tuple[float, float]:
        """``(flux_h, flux_g)`` of the weighted density ``wu`` on the nodes
        ``(j0 + arange(n)) * dx``, with g and h at most one cell beyond the
        end nodes; ``Ju = self(wu)``, whose end values an exponential kernel
        reads.  On the tail table, the (``TAIL_NODES`` x n) @ (n x 2)
        product gives the node sums of both sides, and ``_interpolate``
        reads both offsets off them in one pass.  ``wu`` is only read, so
        the caller may reuse its storage afterwards."""
        n = wu.size
        # the same products as the ends of the window's positions
        x_0, x_last = j0 * self.dx, (j0 + n - 1) * self.dx
        lam = self.exp_rate
        if lam is not None:
            return (
                math.exp(-lam * (h - x_last)) / lam * float(Ju[-1]),
                math.exp(-lam * (x_0 - g)) / lam * float(Ju[0]),
            )
        if n > self._tail_capacity:
            self._fit_tail(n)
        if self._tail is None:
            x = (j0 + np.arange(n)) * self.dx
            return (
                float(np.dot(wu, np.asarray(self.tail_mass(x - h), dtype=float))),
                float(np.dot(wu, np.asarray(self.tail_mass(g - x), dtype=float))),
            )
        # the (n, 2) product operand [wu[::-1], wu], filled into a kept buffer
        pair = self._pair[:n]
        pair[:, 0] = wu[::-1]
        pair[:, 1] = wu
        return _interpolate(
            (h - x_last) / self.dx, (x_0 - g) / self.dx, (self._tail[:, :n] @ pair).tolist()
        )

    def _fit_tail(self, n: int) -> None:
        N = max(n, 2 * self._tail_capacity)
        points = np.concatenate((_TAIL_NODES, _TAIL_CHECK))[:, None] * self.dx
        a = np.asarray(self.tail_mass(-(np.arange(N) * self.dx + points)), dtype=float)
        table = a[:TAIL_NODES]
        if np.max(np.abs(_TAIL_CHECK_WEIGHTS @ table - a[TAIL_NODES:])) > TAIL_TOL * np.max(table):
            # a failed check is final: no later window samples the tail again
            self._tail, self._tail_capacity = None, math.inf
        else:
            self._tail, self._tail_capacity = table.copy(), N
            self._pair = np.empty((N, 2))


BRACKET_MAX_STEPS = 60


def grow_bracket(G: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """``(lo, hi)`` with G(lo) < 0 <= G(hi).

    G increases wherever it is finite and may return +inf.  A lo with G(lo)
    not negative becomes hi and halves, and a hi with G(hi) < 0 becomes lo
    and doubles, each at most ``BRACKET_MAX_STEPS`` times before raising
    ``NonconvergenceError``.
    """
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    halvings = doublings = 0
    while not G(lo) < 0.0:
        if halvings == BRACKET_MAX_STEPS:
            raise NonconvergenceError(f"G is not negative anywhere down to {lo:.3g}")
        lo, hi, halvings = 0.5 * lo, lo, halvings + 1
    while G(hi) < 0.0:
        if doublings == BRACKET_MAX_STEPS:
            raise NonconvergenceError(f"G is negative everywhere up to {hi:.3g}")
        lo, hi, doublings = hi, 2.0 * hi, doublings + 1
    return lo, hi


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
