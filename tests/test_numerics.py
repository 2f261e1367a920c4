import dataclasses
import math

import numpy as np
import pytest
from scipy.fft import next_fast_len

from frontlab import (
    LatticeConvolution,
    UniformGrid,
    bracketed_root,
    fit_slope,
    make_gaussian,
    make_laplace,
    make_power,
    make_uniform,
    truncate,
    trapezoid_weights,
)
from frontlab import numerics
from frontlab.errors import NonconvergenceError
from frontlab.numerics import (
    BAND_PER_LOG2, BRACKET_MAX_STEPS, FFT_MIN_NODES, TAIL_NODES, grow_bracket,
)


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


def _trapezoid(values, grid):
    return float(np.dot(trapezoid_weights(grid.n_cells + 1, grid.spacing), values))


class TestTrapezoid:
    def test_constant_exact(self):
        for n in (2, 7, 100):
            g = UniformGrid(0.0, 1.0, n)
            assert _trapezoid(np.ones(n + 1), g) == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact(self):
        g = UniformGrid(0.0, 1.0, 10)
        assert _trapezoid(g.nodes(), g) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_within_error_bound(self):
        g = UniformGrid(0.0, 1.0, 100)
        val = _trapezoid(g.nodes() ** 2, g)
        assert abs(val - 1.0 / 3.0) <= 2e-5

    def test_linearity_in_input(self):
        g = UniformGrid(0.0, 2.0, 64)
        rng = np.random.default_rng(0)
        f, h = rng.normal(size=65), rng.normal(size=65)
        lhs = _trapezoid(3.0 * f + 2.0 * h, g)
        rhs = 3.0 * _trapezoid(f, g) + 2.0 * _trapezoid(h, g)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestTrapezoidWeights:
    def test_matches_trapezoid_rule(self):
        g = UniformGrid(-1.0, 2.0, 30)
        v = np.cos(g.nodes())
        w = trapezoid_weights(g.n_cells + 1, g.spacing)
        rule = g.spacing * (v.sum() - 0.5 * (v[0] + v[-1]))
        assert float(np.dot(w, v)) == pytest.approx(rule, rel=1e-14)


def _reference_convolution(density, dx, wu):
    """The textbook sum, with the kernel row sampled for exactly this size."""
    n = wu.size
    row = np.asarray(density(np.arange(-(n - 1), n) * dx), dtype=float)
    return np.convolve(wu, row)[n - 1 : 2 * n - 1]


# the Laplace row without exp_rate, so it takes the direct and FFT paths;
# power rows never end in exact zeros, the others do (the narrow uniform
# row within one cell of m = 0, so its band is 0)
_KERNELS = {
    "laplace": dataclasses.replace(make_laplace(), exp_rate=None),
    "power0.8": make_power(0.8),
    "uniform": make_uniform(1.0),
    "uniform-narrow": make_uniform(0.01),
    "gaussian": make_gaussian(1.0),
    "truncated": truncate(make_power(0.8), 10.0),
}


def _record_transform_lengths(monkeypatch) -> list[int]:
    """The length of every forward transform that numerics takes."""
    real_rfft = numerics.rfft
    lengths = []

    def recorded(a, *args, **kwargs):
        lengths.append(np.size(a))
        return real_rfft(a, *args, **kwargs)

    monkeypatch.setattr(numerics, "rfft", recorded)
    return lengths


def _circular_length(density, dx, N) -> int:
    """next_fast_len(N + w), w the last m < N with J(m * dx) != 0."""
    w = int(np.flatnonzero(density(np.arange(N) * dx))[-1])
    return next_fast_len(N + w, real=True)


class TestLatticeConvolution:
    @pytest.mark.parametrize("kname", sorted(_KERNELS))
    @pytest.mark.parametrize(
        "n", [1, 2, 299, 301, FFT_MIN_NODES - 1, FFT_MIN_NODES + 1, 1024, 2559]
    )
    def test_direct_and_fft_agree(self, kname, n, monkeypatch):
        density = _KERNELS[kname].density
        wu = np.random.default_rng(n).uniform(0.0, 0.1, n)
        conv = LatticeConvolution(_KERNELS[kname], 0.15)
        ref = _reference_convolution(density, 0.15, wu)
        lengths = _record_transform_lengths(monkeypatch)
        direct, fft = conv.direct(wu), conv.fft(wu)
        # the row's transform and the input's, both N + w points long
        assert lengths == [_circular_length(density, 0.15, conv.capacity)] * 2
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(direct - ref)) <= 1e-14 * scale
        assert np.max(np.abs(fft - direct)) <= 1e-12 * scale
        picked = conv(wu)
        banded = 2 * conv.band + 1 <= BAND_PER_LOG2 * math.log2(n)
        assert np.array_equal(picked, direct if n < FFT_MIN_NODES or banded else fft)

    @pytest.mark.parametrize("kname", sorted(_KERNELS))
    def test_capacity_regrowth(self, kname, monkeypatch):
        density = _KERNELS[kname].density
        conv = LatticeConvolution(_KERNELS[kname], 0.05)
        lengths = _record_transform_lengths(monkeypatch)
        rng = np.random.default_rng(7)
        capacities = []
        for n in (1024, 1025, 2, 1500):
            wu = rng.uniform(0.0, 0.05, n)
            ref = _reference_convolution(density, 0.05, wu)
            scale = np.max(np.abs(ref))
            lengths.clear()
            assert np.max(np.abs(conv.direct(wu) - ref)) <= 1e-14 * scale
            assert np.max(np.abs(conv.fft(wu) - ref)) <= 1e-12 * scale
            # the input's transform, after the row's when the capacity grew
            grew = conv.capacity != (capacities or [0])[-1]
            assert lengths == [_circular_length(density, 0.05, conv.capacity)] * (1 + grew), n
            capacities.append(conv.capacity)
        # the first call sizes the row for its 1024 nodes, 1025 nodes double
        # it, and shorter inputs reuse it
        assert capacities == [1024, 2048, 2048, 2048]

    @pytest.mark.parametrize("n", [FFT_MIN_NODES, FFT_MIN_NODES + 1, 1601, 2559])
    def test_exponential_recursion_keeps_relative_accuracy(self, n):
        """The Laplace row is geometric and summed by one tridiagonal solve,
        and every output, down to the ~1e-100 ends, stays within 1e-12
        relative of the textbook sum."""
        k = make_laplace()
        dx = 0.05
        x = (np.arange(n) - 0.5 * (n - 1)) * dx
        wu = np.exp(-3.0 * np.abs(x)) * dx
        conv = LatticeConvolution(k, dx)
        ref = _reference_convolution(k.density, dx, wu)
        out = conv(wu)
        assert np.max(np.abs(out / ref - 1.0)) <= 1e-12
        assert np.array_equal(out, conv.direct(wu))

    def test_exponential_regrowth_across_crossover(self):
        # sizes on both sides of FFT_MIN_NODES, in either order, take the
        # tridiagonal solve: no row is ever sampled, and J(0) is the one
        # density value read
        for sizes in ((400, 1601, 2, 1), (1601, 400, 2, 1)):
            k = make_laplace()
            points = []
            density = k.density
            k.density = lambda x: points.append(np.size(x)) or density(x)
            conv = LatticeConvolution(k, 0.05)
            rng = np.random.default_rng(11)
            for n in sizes:
                wu = rng.uniform(0.0, 0.05, n)
                ref = _reference_convolution(density, 0.05, wu)
                out = conv(wu)
                assert np.max(np.abs(out / ref - 1.0)) <= 1e-12
                assert np.array_equal(out, conv.direct(wu))
                assert conv.capacity == 0
            assert points == [1]

    def test_exponential_recursion_samples_one_density_value(self):
        k = make_laplace()
        points = []
        density = k.density
        k.density = lambda x: points.append(np.size(x)) or density(x)
        conv = LatticeConvolution(k, 0.05)
        wu = np.random.default_rng(3).uniform(0.0, 0.05, 1601)
        conv(wu)
        conv(wu)
        assert points == [1]

    def test_path_follows_the_kernel(self, monkeypatch):
        """Built from make_laplace(), the convolution runs one dpttrs solve
        at every size but 1; the copy without exp_rate runs the FFT path,
        and a uniform kernel, whose row ends after 20 cells, the banded
        sum."""
        real_dpttrs = numerics.dpttrs
        calls = []
        monkeypatch.setattr(
            numerics, "dpttrs", lambda *a, **kw: calls.append(a) or real_dpttrs(*a, **kw)
        )
        wu = np.random.default_rng(5).uniform(0.0, 0.1, FFT_MIN_NODES)
        tridiagonal = LatticeConvolution(make_laplace(), 0.05)
        for n, solves in ((FFT_MIN_NODES, 1), (12, 1), (1, 0)):
            calls.clear()
            out = tridiagonal(wu[:n])
            assert len(calls) == solves, n
            assert np.array_equal(out, tridiagonal.direct(wu[:n]))
        assert tridiagonal.capacity == 0
        calls.clear()
        plain = LatticeConvolution(dataclasses.replace(make_laplace(), exp_rate=None), 0.05)
        assert np.array_equal(plain(wu), plain.fft(wu))
        banded = LatticeConvolution(make_uniform(1.0), 0.05)
        monkeypatch.setattr(banded, "fft", None)
        out = banded(wu)
        assert banded.band == 20
        assert np.array_equal(out, banded.direct(wu))
        assert calls == []

    def test_exponential_sum_at_overflowing_span(self):
        """83 139 nodes at dx = 0.1, where r**-n = e**8313.9 overflows: the
        solve forms no power of r, and on constant input every output
        matches the closed form sum_j r**|i-j| = (1 + r - r**(i+1) -
        r**(n-i)) / (1 - r)."""
        k, dx, n = make_laplace(), 0.1, 83139
        r = math.exp(-dx)
        with pytest.raises(OverflowError):
            r**-n
        i = np.arange(n)
        closed = (1.0 + r - r ** (i + 1) - r ** (n - i)) / -math.expm1(-dx)
        out = LatticeConvolution(k, dx).direct(np.full(n, 0.01))
        assert np.max(np.abs(out / (0.5 * 0.01 * closed) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [499, 500, 1201, 4001])
    @pytest.mark.parametrize(
        "kname, dx",
        [("uniform", 0.025), ("uniform", 0.15), ("gaussian", 0.15), ("truncated", 0.15)],
    )
    def test_band_matches_the_full_direct_sum(self, kname, dx, n):
        """A row that ends in exact zeros is summed over its band only; every
        output stays within a few ulp of the full sum, relative."""
        k = {
            "uniform": make_uniform(1.0),
            "gaussian": make_gaussian(1.0),
            "truncated": truncate(make_power(0.8), 10.0),
        }[kname]
        wu = np.random.default_rng(n).uniform(0.0, 0.1, n)
        conv = LatticeConvolution(k, dx)
        out = conv.direct(wu)
        assert conv.band < n - 1
        ref = _reference_convolution(k.density, dx, wu)
        assert np.max(np.abs(out / ref - 1.0)) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("radius, band", [(10.0, 274), (20.0, 524), (40.0, 1024), (80.0, 2024)])
    def test_cost_rule_keeps_the_fft_for_wide_bands(self, radius, band):
        """The truncation preset's rows (depth 120, 3 000 cells) end in exact
        zeros, but too late for the banded sum to beat the FFT."""
        k = truncate(make_power(0.8), radius).normalized()
        wu = np.random.default_rng(3).uniform(0.0, 0.1, 3001)
        conv = LatticeConvolution(k, 120.0 / 3000)
        out = conv(wu)
        assert conv.band == band
        assert 2 * band + 1 > BAND_PER_LOG2 * math.log2(wu.size)
        assert np.array_equal(out, conv.fft(wu))


class TestTailTable:
    """``boundary_fluxes`` against the direct sums over the nodes,
    ``dot(wu, tail_mass(x - h))`` and ``dot(wu, tail_mass(g - x))``.

    Windows are centred on 0 as in a run: a node's position carries the
    rounding of ``j * dx``, about 1e-16 of |x|, which the direct sum inherits
    and the table, built from lattice offsets, does not.
    """

    @pytest.mark.parametrize("dx", [0.05, 0.15, 0.25, 0.5])
    @pytest.mark.parametrize("kname", ["power0.8", "power1", "power2", "power5", "gaussian"])
    def test_matches_direct_sums(self, kname, dx):
        k = make_gaussian(1.0) if kname == "gaussian" else make_power(float(kname[5:]))
        conv = LatticeConvolution(k, dx)
        rng = np.random.default_rng(int(100 * dx))
        node = dx * np.sin(0.5 * np.pi * 5 / (TAIL_NODES - 1)) ** 2
        # the first window samples the table, and the next two outgrow it
        for n in (139, 780, 2559):
            j0 = -(n // 2)
            x = (j0 + np.arange(n)) * dx
            for theta_h, theta_g in [
                (dx, 1e-12 * dx),  # the cell's two ends, as _active_range allows
                (1e-12 * dx, dx),
                (node, node),  # a Chebyshev node of the table
                tuple(rng.uniform(0.0, dx, 2)),
                tuple(rng.uniform(0.0, dx, 2)),
            ]:
                h, g = x[-1] + theta_h, x[0] - theta_g
                for u in (rng.uniform(0.0, 1.0, n), (x - g) * (h - x)):
                    wu = dx * u
                    got = conv.boundary_fluxes(wu, conv(wu), j0, g, h)
                    flux_h = float(np.dot(wu, k.tail_mass(x - h)))
                    flux_g = float(np.dot(wu, k.tail_mass(g - x)))
                    if kname == "power5" and dx == 0.5:
                        # the table misses the tail by 3e-13 of a(0) near the
                        # boundary, so this spacing sums the tail directly
                        assert got == (flux_h, flux_g)
                        continue
                    assert got[0] == pytest.approx(flux_h, rel=1e-13, abs=0.0)
                    assert got[1] == pytest.approx(flux_g, rel=1e-13, abs=0.0)

    def test_table_grows_by_doubling(self):
        k = make_power(0.8)
        rows = []
        tail = k.tail_mass
        # a table sample is 2-D, so a sum over the nodes would fail here
        k.tail_mass = lambda y: rows.append(np.shape(y)[1]) or tail(y)
        conv = LatticeConvolution(k, 0.1)
        for n in (100, 101, 150, 200, 201, 7):
            wu = np.full(n, 0.1)
            conv.boundary_fluxes(wu, conv(wu), 0, -0.05, (n - 1) * 0.1 + 0.05)
        assert rows == [100, 200, 400]

    def test_uniform_radius_on_the_lattice_passes(self):
        # a uniform tail is linear on every cell when R is a whole number of
        # cells, so the table reproduces it to rounding
        k, dx = make_uniform(1.0), 0.1
        x = np.arange(-60, 61) * dx
        h, g = x[-1] + 0.3 * dx, x[0] - 0.7 * dx
        wu = dx * (x - g) * (h - x)
        conv = LatticeConvolution(k, dx)
        got = conv.boundary_fluxes(wu, conv(wu), -60, g, h)
        assert got[0] == pytest.approx(float(np.dot(wu, k.tail_mass(x - h))), rel=1e-14)
        assert got[1] == pytest.approx(float(np.dot(wu, k.tail_mass(g - x))), rel=1e-14)

    @pytest.mark.parametrize(
        "kname, dx",
        [("laplace", 0.05), ("laplace", 0.5), ("uniform1.03", 0.05), ("truncated", 0.1),
         ("power5", 1.0)],
    )
    def test_closed_form_and_node_sums(self, kname, dx):
        """The Laplace kernel reads both fluxes off the convolution's end
        values, to the tridiagonal solve's relative accuracy; the other three
        tails fail the table's check on the first window and are summed over
        the nodes, bit for bit, on every later window too, however short."""
        k = {
            "laplace": make_laplace,
            "uniform1.03": lambda: make_uniform(1.03),
            "truncated": lambda: truncate(make_power(0.8), 10.0),
            "power5": lambda: make_power(5.0),
        }[kname]()
        conv = LatticeConvolution(k, dx)
        rng = np.random.default_rng(7)
        for n in (139, 780, 1, 2, 61):
            j0 = -(n // 2)
            x = (j0 + np.arange(n)) * dx
            theta_h, theta_g = rng.uniform(0.0, dx, 2)
            h, g = x[-1] + theta_h, x[0] - theta_g
            wu = dx * rng.uniform(0.0, 1.0, n)
            got = conv.boundary_fluxes(wu, conv(wu), j0, g, h)
            want = (
                float(np.dot(wu, k.tail_mass(x - h))), float(np.dot(wu, k.tail_mass(g - x)))
            )
            if kname == "laplace":
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)
            else:
                assert got == want


class TestBisect:
    """numerics.bracketed_root: grow_bracket, then Brent's method to xtol."""

    def test_affine(self):
        root = bracketed_root(lambda c: c - 1.0, 0.5, 2.0, 1e-12)
        assert root == pytest.approx(1.0, abs=1e-11)

    def test_sqrt2(self):
        root = bracketed_root(lambda c: c * c - 2.0, 1.0, 2.0, 1e-14)
        assert root == pytest.approx(np.sqrt(2.0), abs=1e-13)

    def test_bad_bracket(self):
        # a start that misses the root is grown until it straddles it; a G
        # that never changes sign exhausts the growth and raises
        assert bracketed_root(lambda c: c - 5.0, 0.1, 0.2, 1e-12) == pytest.approx(5.0, abs=1e-11)
        with pytest.raises(NonconvergenceError):
            bracketed_root(lambda c: c + 10.0, 0.5, 1.0, 1e-11)

    def test_bracket_choice_insensitive(self):
        r1 = bracketed_root(lambda c: c**3 - 5.0, 0.1, 3.0, 1e-14)
        r2 = bracketed_root(lambda c: c**3 - 5.0, 1.5, 1.8, 1e-14)
        assert abs(r1 - r2) <= 1e-12

    def test_superlinear_on_smooth_G(self):
        # plain bisection needs log2(0.2 / 1e-11) > 34 evaluations here
        calls = []

        def G(c):
            calls.append(c)
            return c - 0.6 * np.exp(-c)

        root = bracketed_root(G, 0.3, 0.5, xtol=1e-11)
        assert len(calls) <= 12
        assert abs(root - 0.6 * np.exp(-root)) <= 1e-11

    def test_ends_evaluated_once(self):
        calls = []

        def G(c):
            calls.append(c)
            return c - 0.45

        bracketed_root(G, 0.1, 0.2, xtol=1e-12)
        assert len(calls) == len(set(calls))


class TestGrowBracket:
    """numerics.grow_bracket: halve lo while G(lo) >= 0, double hi while G(hi) < 0."""

    @staticmethod
    def _recording(G):
        probes = []

        def g(c):
            probes.append(c)
            return G(c)

        return g, probes

    def test_start_already_brackets(self):
        G, probes = self._recording(lambda c: c - 0.15)
        assert grow_bracket(G, 0.1, 0.2) == (0.1, 0.2, 0.1 - 0.15, 0.2 - 0.15)
        assert probes == [0.1, 0.2]

    def test_grow_path(self):
        G, probes = self._recording(lambda c: c - 5.0)
        lo, hi, g_lo, g_hi = grow_bracket(G, 0.1, 0.2)
        assert (lo, hi) == (3.2, 6.4) and (g_lo, g_hi) == (3.2 - 5.0, 6.4 - 5.0)
        assert probes == [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4]

    def test_shrink_path_reuses_the_known_end(self):
        G, probes = self._recording(lambda c: c - 0.01)
        lo, hi, g_lo, g_hi = grow_bracket(G, 0.1, 0.2)
        assert (lo, hi) == (0.00625, 0.0125)
        assert (g_lo, g_hi) == (0.00625 - 0.01, 0.0125 - 0.01)
        # the old lo becomes hi with its value, and 0.2 is never probed
        assert probes == [0.1, 0.05, 0.025, 0.0125, 0.00625]

    def test_infinite_values(self):
        # a predicate: -1 below 3, +inf above
        G, probes = self._recording(lambda c: -1.0 if c < 3.0 else math.inf)
        assert grow_bracket(G, 0.1, 1.0) == (2.0, 4.0, -1.0, math.inf)
        assert probes == [0.1, 1.0, 2.0, 4.0]
        G, probes = self._recording(lambda c: -1.0 if c < 0.03 else math.inf)
        assert grow_bracket(G, 0.1, 1.0) == (0.025, 0.05, -1.0, math.inf)
        assert probes == [0.1, 0.05, 0.025]

    def test_guards_raise_nonconvergence(self):
        G, probes = self._recording(lambda c: 1.0)
        with pytest.raises(NonconvergenceError):
            grow_bracket(G, 0.1, 0.2)
        assert len(probes) == 1 + BRACKET_MAX_STEPS
        G, probes = self._recording(lambda c: -1.0)
        with pytest.raises(NonconvergenceError):
            grow_bracket(G, 0.1, 0.2)
        assert len(probes) == 2 + BRACKET_MAX_STEPS

    def test_bad_start(self):
        for lo, hi in ((0.0, 1.0), (1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError):
                grow_bracket(lambda c: c, lo, hi)


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
