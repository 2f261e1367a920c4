import numpy as np
import pytest

from frontlab import (
    LatticeConvolution,
    UniformGrid,
    bracketed_root,
    fit_slope,
    make_laplace,
    make_power,
    minimize_scalar,
    trapezoid,
    trapezoid_weights,
)
from frontlab.errors import BracketError
from frontlab.numerics import FFT_MIN_NODES


class TestUniformGrid:
    def test_nodes_reproducible(self):
        g = UniformGrid(-40.0, 0.0, 4000)
        nodes = g.nodes()
        assert nodes[0] == -40.0
        assert nodes[-1] == g.left + g.n_cells * g.spacing
        assert nodes[17] == g.left + 17 * g.spacing

    def test_invalid(self):
        with pytest.raises(ValueError):
            UniformGrid(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            UniformGrid(0.0, 1.0, 1)


class TestTrapezoid:
    def test_constant_exact(self):
        for n in (2, 7, 100):
            g = UniformGrid(0.0, 1.0, n)
            assert trapezoid(np.ones(n + 1), g) == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact(self):
        g = UniformGrid(0.0, 1.0, 10)
        assert trapezoid(g.nodes(), g) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_within_error_bound(self):
        g = UniformGrid(0.0, 1.0, 100)
        val = trapezoid(g.nodes() ** 2, g)
        assert abs(val - 1.0 / 3.0) <= 2e-5

    def test_linearity_in_input(self):
        g = UniformGrid(0.0, 2.0, 64)
        rng = np.random.default_rng(0)
        f, h = rng.normal(size=65), rng.normal(size=65)
        lhs = trapezoid(3.0 * f + 2.0 * h, g)
        rhs = 3.0 * trapezoid(f, g) + 2.0 * trapezoid(h, g)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_length_mismatch(self):
        g = UniformGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            trapezoid(np.ones(10), g)


class TestTrapezoidWeights:
    def test_matches_trapezoid_rule(self):
        g = UniformGrid(-1.0, 2.0, 30)
        v = np.cos(g.nodes())
        w = trapezoid_weights(g.n_cells + 1, g.spacing)
        assert float(np.dot(w, v)) == pytest.approx(trapezoid(v, g), rel=1e-14)


def _reference_convolution(density, dx, wu):
    """The textbook sum, with the kernel row sampled for exactly this size."""
    n = wu.size
    row = np.asarray(density(np.arange(-(n - 1), n) * dx), dtype=float)
    return np.convolve(wu, row)[n - 1 : 2 * n - 1]


_KERNELS = {"laplace": make_laplace(), "power0.8": make_power(0.8)}


class TestLatticeConvolution:
    @pytest.mark.parametrize("kname", sorted(_KERNELS))
    @pytest.mark.parametrize(
        "n", [1, 2, 299, 301, FFT_MIN_NODES - 1, FFT_MIN_NODES + 1, 1024, 2559]
    )
    def test_direct_and_fft_agree(self, kname, n):
        density = _KERNELS[kname].density
        wu = np.random.default_rng(n).uniform(0.0, 0.1, n)
        conv = LatticeConvolution(density, 0.15)
        ref = _reference_convolution(density, 0.15, wu)
        direct, fft = conv.direct(wu), conv.fft(wu)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(direct - ref)) <= 1e-14 * scale
        assert np.max(np.abs(fft - direct)) <= 1e-12 * scale
        picked = conv(wu)
        assert np.array_equal(picked, direct if n < FFT_MIN_NODES else fft)

    @pytest.mark.parametrize("kname", sorted(_KERNELS))
    def test_capacity_regrowth(self, kname):
        density = _KERNELS[kname].density
        conv = LatticeConvolution(density, 0.05, 1024)
        rng = np.random.default_rng(7)
        for n in (1024, 1025, 2, 1500):
            wu = rng.uniform(0.0, 0.05, n)
            ref = _reference_convolution(density, 0.05, wu)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(conv.direct(wu) - ref)) <= 1e-14 * scale
            assert np.max(np.abs(conv.fft(wu) - ref)) <= 1e-12 * scale
        # 1025 nodes outgrew 1024 and doubled it; shorter inputs reuse the row
        assert conv.capacity == 2048


class TestBisect:
    """numerics.bracketed_root: bisection while G(hi) is infinite, then Brent."""

    def test_affine(self):
        root = bracketed_root(lambda c: c - 1.0, 0.0, 2.0, 1e-10, 1e-12)
        assert root == pytest.approx(1.0, abs=1e-9)

    def test_sqrt2(self):
        root = bracketed_root(lambda c: c * c - 2.0, 1.0, 2.0, 1e-12, 1e-14)
        assert root == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_bad_bracket(self):
        with pytest.raises(BracketError):
            bracketed_root(lambda c: c + 10.0, 0.0, 1.0, 1e-8, 1e-11)

    def test_bracket_choice_insensitive(self):
        r1 = bracketed_root(lambda c: c**3 - 5.0, 0.0, 3.0, 1e-12, 1e-14)
        r2 = bracketed_root(lambda c: c**3 - 5.0, 1.5, 1.8, 1e-12, 1e-14)
        assert abs(r1 - r2) <= 1e-10

    def test_accepts_infinite_values(self):
        G = lambda c: c**3 - 1.0 if c < 1.5 else float("inf")
        assert bracketed_root(G, 0.0, 2.0, 1e-10, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_infinite_value_inside_finite_bracket(self):
        # G is finite at both ends but not at the first point Brent probes
        # above the root: that point becomes the upper end, and bisection
        # resumes before Brent's method sees +inf
        probes = []

        def smooth(c):
            probes.append(c)
            return c**3 - 2.0

        bracketed_root(smooth, 0.0, 3.0, 0.0, 1e-12)
        first_above = next(c for c in probes[2:] if c**3 > 2.0)

        def G(c):
            if abs(c - first_above) < 1e-3:
                return float("inf")
            return c**3 - 2.0

        root = bracketed_root(G, 0.0, 3.0, 1e-12, 1e-14)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)

    def test_stops_once_within_ftol(self):
        probes = []

        def G(c):
            probes.append(c)
            return np.expm1(c - 1.0)

        root = bracketed_root(G, 0.0, 3.0, ftol=0.05, xtol=1e-12)
        within = [abs(np.expm1(c - 1.0)) <= 0.05 for c in probes]
        assert probes[-1] == root and within == [False] * (len(probes) - 1) + [True]

    def test_superlinear_on_smooth_G(self):
        # plain bisection needs log2(0.2 / 1e-11) > 34 evaluations here
        calls = []

        def G(c):
            calls.append(c)
            return c - 0.6 * np.exp(-c)

        root = bracketed_root(G, 0.3, 0.5, ftol=0.0, xtol=1e-11)
        assert len(calls) <= 12
        assert abs(root - 0.6 * np.exp(-root)) <= 1e-11

    def test_predicate_repeats_bisection(self):
        threshold = 0.8947
        probes = []

        def G(c):
            probes.append(c)
            return -1.0 if c < threshold else float("inf")

        got = bracketed_root(G, 0.5, 1.0, 0.0, 0.02, g_lo=-1.0, g_hi=float("inf"))
        lo, hi, expected = 0.5, 1.0, []
        while hi - lo > 0.02:
            mid = 0.5 * (lo + hi)
            expected.append(mid)
            if mid < threshold:
                lo = mid
            else:
                hi = mid
        assert probes == expected
        assert got == 0.5 * (lo + hi)


class TestMinimizeScalar:
    def test_parabola(self):
        x, v = minimize_scalar(lambda t: (t - 0.5) ** 2, 0.0, 1.0, 1e-12)
        assert x == pytest.approx(0.5, abs=1e-8)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_dispersion_objective(self):
        # analytic minimizer of 1/(t - t^3) on (0, 1) sits at 1/sqrt(3)
        x, v = minimize_scalar(lambda t: 1.0 / (t - t**3), 1e-6, 1.0 - 1e-6, 1e-12)
        assert x == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-7)
        assert v == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, rel=1e-10)

    def test_hyperbola(self):
        x, v = minimize_scalar(lambda t: t + 1.0 / t, 0.1, 10.0, 1e-12)
        assert x == pytest.approx(1.0, abs=1e-7)
        assert v == pytest.approx(2.0, rel=1e-12)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda t: t, 1.0, 1.0, 1e-8)


class TestFitSlope:
    def test_exact_line(self):
        assert fit_slope([0.0, 1.0, 2.0], [0.0, 2.0, 4.0]) == pytest.approx(2.0, abs=1e-14)

    def test_flat(self):
        assert fit_slope([0.0, 1.0], [5.0, 5.0]) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_noise_cancels(self):
        ts = np.array([0.0, 1.0, 2.0, 3.0])
        xs = 1.5 * ts
        xs[0] += 0.01
        xs[3] += 0.01
        # equal perturbations at symmetric leverage points cancel exactly
        assert fit_slope(ts, xs) == pytest.approx(1.5, abs=1e-12)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(1)
        ts = np.sort(rng.uniform(0, 10, 20))
        ts += np.arange(20) * 1e-6  # enforce strict increase
        xs = rng.normal(size=20)
        assert fit_slope(ts, xs) == pytest.approx(fit_slope(ts, xs + 7.5), abs=1e-10)

    def test_degenerate_ts(self):
        with pytest.raises(ValueError):
            fit_slope([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_slope([0.0], [1.0])
