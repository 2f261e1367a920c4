import math
import tracemalloc

import numpy as np
import pytest

from frontlab import (
    Kernel,
    TailClass,
    c_of_J,
    classify_tail,
    exp_moment,
    make_custom,
    make_gaussian,
    make_laplace,
    make_power,
    make_uniform,
    truncate,
)
from frontlab import kernels
from frontlab.errors import (
    DivergentIntegralError,
    FrontlabError,
    NonNormalizableError,
    UndecidableTailError,
)

ALL_BUILTINS = [
    make_laplace(),
    make_gaussian(1.0),
    make_gaussian(2.5),
    make_uniform(1.0),
    make_uniform(3.0),
    make_power(2.0),
    make_power(1.0),
    make_power(0.8),
]


@pytest.mark.parametrize("k", ALL_BUILTINS, ids=lambda k: f"{k.name}{k.params}")
class TestBuiltinInvariants:
    def test_evenness_and_positivity(self, k):
        rng = np.random.default_rng(7)
        x = rng.uniform(-50.0, 50.0, 200)
        J = k.density(x)
        assert np.all(J >= 0.0)
        np.testing.assert_allclose(J, k.density(-x), rtol=0, atol=1e-14)
        assert float(k.density(np.zeros(1))[0]) > 0.0

    def test_tail_mass_symmetry(self, k):
        rng = np.random.default_rng(11)
        x = rng.uniform(-50.0, 50.0, 200)
        s = k.tail_mass(x) + k.tail_mass(-x)
        np.testing.assert_allclose(s, 1.0, rtol=0, atol=1e-12)

    def test_tail_mass_limits(self, k):
        # algebraic tails still hold visible mass at 1e6; only the ordering
        # and the far limits are universal
        assert float(k.tail_mass(np.asarray(-1e6))) < 1e-3
        assert float(k.tail_mass(np.asarray(1e6))) > 1.0 - 1e-3
        x = np.linspace(-30, 30, 500)
        assert np.all(np.diff(k.tail_mass(x)) >= -1e-14)

    def test_tail_mass_derivative_matches_density(self, k):
        rng = np.random.default_rng(13)
        x = rng.uniform(-20.0, 20.0, 50)
        if k.support_radius is not None:
            # keep the stencil away from the density jump of the uniform family
            x = x[np.abs(np.abs(x) - k.support_radius) > 0.01]
        e = 1e-5
        fd = (k.tail_mass(x + e) - k.tail_mass(x - e)) / (2.0 * e)
        np.testing.assert_allclose(fd, k.density(x), rtol=1e-5, atol=1e-6)

    def test_classify_matches_stored(self, k):
        assert classify_tail(k) is k.tail_class


class TestTailMassValues:
    def test_laplace_left_branch(self):
        k = make_laplace()
        x = np.linspace(-10.0, 0.0, 101)
        np.testing.assert_allclose(k.tail_mass(x), 0.5 * np.exp(x), rtol=1e-14)

    def test_exp_rate_tail_is_density_over_rate(self):
        # the free-boundary step reads its fluxes off this identity
        k = make_laplace()
        y = np.concatenate([-np.logspace(-6.0, 2.5, 200), [0.0]])
        want = np.asarray(k.density(y)) / k.exp_rate
        got = np.asarray(k.tail_mass(y))
        assert np.all(np.abs(got - want) <= np.spacing(want))

    def test_cauchy_closed_form(self):
        k = make_power(1.0)
        x = np.linspace(-30.0, 30.0, 301)
        np.testing.assert_allclose(k.tail_mass(x), 0.5 + np.arctan(x) / np.pi, atol=1e-12)

    def test_power_tail_near_zero(self):
        # within 1 of the origin, including where z = 1/(1 + x^2) rounds to
        # 1, against the closed forms for sigma = 1 and 2; the tail table's
        # check compares its interpolant with these values at 1e-13
        y = np.logspace(-9.0, 0.0, 400)
        x = np.concatenate([-y, y])
        for sigma, closed in (
            (1.0, 0.5 + np.arctan(x) / np.pi),
            (2.0, 0.5 + (x / (1.0 + x * x) + np.arctan(x)) / np.pi),
        ):
            np.testing.assert_allclose(make_power(sigma).tail_mass(x), closed, rtol=0, atol=3e-16)

    def test_power_classes(self):
        assert make_power(2.0).tail_class is TailClass.HEAVY_TAIL_J1_ONLY
        assert make_power(1.0).tail_class is TailClass.FAT_TAIL
        assert make_power(0.8).tail_class is TailClass.FAT_TAIL
        with pytest.raises(NonNormalizableError):
            make_power(0.5)


class TestFluxConstant:
    def test_laplace(self):
        assert c_of_J(make_laplace()) == pytest.approx(0.5, rel=1e-15)

    def test_uniform(self):
        assert c_of_J(make_uniform(1.0)) == pytest.approx(0.25, rel=1e-15)

    def test_gaussian(self):
        # integral of the normal cdf over the left half-line is sd/sqrt(2 pi)
        sd = 1.7
        assert c_of_J(make_gaussian(sd)) == pytest.approx(sd / math.sqrt(2 * math.pi), rel=1e-15)

    def test_cauchy_diverges(self):
        with pytest.raises(DivergentIntegralError):
            c_of_J(make_power(1.0))

    def test_power2(self):
        assert c_of_J(make_power(2.0)) == pytest.approx(1.0 / math.pi, rel=1e-15)



class TestExpMoment:
    def test_laplace_values(self):
        k = make_laplace()
        assert exp_moment(k, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert exp_moment(k, 0.0) == 1.0
        assert math.isinf(exp_moment(k, 1.0))

    def test_any_kernel_at_zero(self):
        for k in ALL_BUILTINS:
            assert exp_moment(k, 0.0) == pytest.approx(k.total_mass)

    def test_power_diverges(self):
        assert math.isinf(exp_moment(make_power(2.0), 0.1))

    def test_wide_gaussian_overflows_to_inf(self):
        # 0.5*(lam*sd)^2 = 1800 is past the largest exponent of a float
        assert math.isinf(exp_moment(make_gaussian(30.0), 2.0))
        assert exp_moment(make_gaussian(30.0), 1.0 / 30.0) == pytest.approx(math.exp(0.5))

    def test_wide_uniform_overflows_to_inf(self):
        # sinh(lam*R) overflows once lam*R passes about 710
        assert math.isinf(exp_moment(make_uniform(400.0), 2.0))
        assert exp_moment(make_uniform(400.0), 1.0 / 400.0) == pytest.approx(math.sinh(1.0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            exp_moment(make_laplace(), -0.1)


class TestUserKernelProbes:
    @staticmethod
    def _as_user(k):
        return Kernel(name=f"user:{k.name}", density=k.density, tail_mass=k.tail_mass, tail_class=None)

    def test_thin_probe(self):
        assert classify_tail(self._as_user(make_laplace())) is TailClass.THIN_TAIL

    def test_heavy_probe(self):
        assert classify_tail(self._as_user(make_power(2.0))) is TailClass.HEAVY_TAIL_J1_ONLY

    def test_fat_probe(self):
        assert classify_tail(self._as_user(make_power(0.8))) is TailClass.FAT_TAIL
        assert classify_tail(self._as_user(make_power(1.0))) is TailClass.FAT_TAIL

    def test_numeric_moment(self):
        k = self._as_user(make_laplace())
        # classification-grade accuracy only: trapezoid on a kernel corner
        assert exp_moment(k, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-4)


class TestTruncate:
    def test_laplace_mass(self):
        tk = truncate(make_laplace(), 40.0)
        assert tk.sigma_n >= 1.0 - math.exp(-40.0)
        assert tk.sigma_n <= 1.0
        assert tk.tail_class is TailClass.COMPACT_SUPPORT
        assert tk.support_radius == 41.0

    def test_compact_untouched(self):
        tk = truncate(make_uniform(1.0), 2.0)
        assert tk.sigma_n == pytest.approx(1.0, abs=1e-12)
        x = np.linspace(-1.0, 1.0, 101)
        np.testing.assert_allclose(tk.density(x), make_uniform(1.0).density(x), atol=1e-14)

    def test_mass_monotone_in_radius(self):
        k = make_power(0.8)
        sigmas = [truncate(k, R).sigma_n for R in (5.0, 10.0, 20.0, 40.0)]
        assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))

    def test_density_dominated_pointwise(self):
        k = make_laplace()
        t1, t2 = truncate(k, 5.0), truncate(k, 10.0)
        x = np.linspace(-12, 12, 401)
        assert np.all(t1.density(x) <= t2.density(x) + 1e-15)
        assert np.all(t2.density(x) <= k.density(x) + 1e-15)

    def test_flux_constant_converges_from_below(self):
        k = make_laplace()
        vals = [c_of_J(truncate(k, R)) for R in (5.0, 10.0, 20.0, 40.0)]
        full = c_of_J(k)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= full + 1e-6 for v in vals)
        assert vals[-1] == pytest.approx(full, rel=1e-6)

    def test_normalized(self):
        tk = truncate(make_power(0.8), 10.0)
        kn = tk.normalized()
        assert kn.total_mass == 1.0
        assert float(kn.tail_mass(np.asarray(1e9))) == pytest.approx(1.0, rel=1e-12)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            truncate(make_laplace(), -1.0)

    def test_refuses_an_oversized_table(self):
        # 800 points per unit of support: 8e8 at R = 1e6, refused before
        # anything is allocated
        with pytest.raises(FrontlabError, match=r"R = 1e\+06 needs tables of 800000801 points"):
            truncate(make_laplace(), 1e6)

    def test_build_peak_memory(self):
        # the kernel keeps three tables of 8 bytes a point (grid, a() and its
        # integral); building them holds no more than three at once, plus
        # temporaries of one sampling block
        k = make_power(0.8)
        truncate(k, 10.0)  # first-call allocations stay out of the count
        n_tab = int(800 * 1001.0) + 1
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            tk = truncate(k, 1000.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert tk.support_radius == 1001.0
        assert peak <= 26 * n_tab

    def test_table_limit_is_inclusive(self, monkeypatch):
        # R = 10 needs 800 * 11 + 1 = 8 801 points
        monkeypatch.setattr(kernels, "TRUNCATE_MAX_TABLE", 8801)
        assert truncate(make_laplace(), 10.0).support_radius == 11.0
        with pytest.raises(FrontlabError, match="8801"):
            truncate(make_laplace(), 10.01)


class TestCustomKernel:
    def test_density_only_requires_truncation(self):
        k = make_custom("narrow", lambda x: np.exp(-np.abs(np.asarray(x)) * 4.0) * 2.0)
        with pytest.raises(UndecidableTailError):
            classify_tail(k)
        tk = truncate(k, 8.0)
        assert classify_tail(tk) is TailClass.COMPACT_SUPPORT
        assert tk.sigma_n == pytest.approx(1.0, abs=1e-6)
        # tabulated tails make the truncated kernel fully usable
        assert c_of_J(tk) == pytest.approx(0.125, abs=1e-4)

    def test_custom_with_analytic_tail_classifies(self):
        lap = make_laplace()
        k = make_custom("wrapped", lap.density, lap.tail_mass)
        assert classify_tail(k) is TailClass.THIN_TAIL


class TestExpRate:
    """exp_rate selects the tridiagonal solve in LatticeConvolution, so a wrong value
    would silently give the wrong operator: only make_laplace sets it."""

    def test_laplace_is_exponential(self):
        assert make_laplace().exp_rate == 1.0

    @pytest.mark.parametrize(
        "k",
        [
            make_gaussian(1.0),
            make_uniform(1.0),
            make_power(2.0),
            make_custom("user", make_laplace().density, make_laplace().tail_mass),
            truncate(make_laplace(), 10.0),
            truncate(make_laplace(), 10.0).normalized(),
        ],
        ids=lambda k: k.name,
    )
    def test_others_are_not(self, k):
        assert k.exp_rate is None
