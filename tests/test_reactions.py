import numpy as np
import pytest

from frontlab import adjust_for_truncation, make_logistic, make_polynomial, validate_kpp
from frontlab.errors import DegenerateAdjustmentError


class TestLogistic:
    def test_values(self, logistic):
        assert float(logistic.f(0.5)) == pytest.approx(0.25)
        assert float(logistic.f(0.0)) == 0.0
        assert float(logistic.f(1.0)) == 0.0
        assert logistic.df0 == 1.0
        assert logistic.df1 == -1.0
        assert logistic.lipschitz_K == 1.0
        assert logistic.cap_K0 == 1.0

    def test_ratio_nonincreasing(self, logistic):
        u = np.linspace(1e-6, 1.0, 1000)
        ratio = logistic.f(u) / u
        assert np.all(np.diff(ratio) <= 1e-12)

    def test_extension(self, logistic):
        assert float(logistic.f(-0.2)) == pytest.approx(-0.2)
        u = np.array([-0.5, -0.1, 0.1])
        np.testing.assert_allclose(logistic.f(u), [-0.5, -0.1, 0.1 * 0.9])

    def test_extension_continuity_at_zero(self, logistic):
        e = 1e-8
        left = float(logistic.f(-e)) / -e
        right = float(logistic.f(e)) / e
        assert left == pytest.approx(logistic.df0, abs=1e-7)
        assert right == pytest.approx(logistic.df0, abs=1e-7)


class TestValidateKpp:
    def test_logistic_all_pass(self, logistic):
        report = validate_kpp(logistic)
        assert report.all_pass, report.failed()

    def test_degenerate_slope_at_zero(self):
        # u^2 (1 - u) has f'(0) = 0
        r = make_polynomial([0.0, 0.0, 1.0, -1.0])
        report = validate_kpp(r)
        assert "df0_positive" in report.failed()

    def test_ratio_increasing_near_zero(self):
        # u (1 - u)(1 + 2u): f/u rises at 0 even though the endpoints behave
        r = make_polynomial([0.0, 1.0, 1.0, -2.0])
        report = validate_kpp(r)
        failed = report.failed()
        assert "ratio_nonincreasing" in failed
        assert "df0_positive" not in failed
        assert "df1_negative" not in failed


class TestAdjustForTruncation:
    def test_identity_at_full_mass(self, logistic):
        adj = adjust_for_truncation(logistic, 1.0, 1.0)
        assert adj.eta_n == 1.0
        u = np.linspace(0, 1, 11)
        np.testing.assert_allclose(adj.f_n(u), logistic.f(u))

    @pytest.mark.parametrize("sigma", [0.9, 0.99])
    def test_logistic_eta_closed_form(self, logistic, sigma):
        # u(1-u) - (1-sigma) u = u (sigma - u) vanishes at sigma
        adj = adjust_for_truncation(logistic, sigma, 1.0)
        assert adj.eta_n == pytest.approx(sigma, abs=1e-10)

    @pytest.mark.parametrize("sigma", [0.5, 0.9])
    def test_cubic_eta_closed_form(self, sigma):
        # u - u^3 - (1-sigma) u = u (sigma - u^2) vanishes at sqrt(sigma)
        adj = adjust_for_truncation(make_polynomial([0.0, 1.0, 0.0, -1.0]), sigma, 1.0)
        assert abs(adj.eta_n - np.sqrt(sigma)) <= 1e-14

    def test_logistic_eta_for_every_sigma(self, logistic):
        # -f_n(u)/u = u - sigma is linear, so the first secant step of the
        # root finder lands on sigma, however far down the bracket was grown
        for i in range(1, 1000):
            sigma = i / 1000
            eta = adjust_for_truncation(logistic, sigma, 1.0).eta_n
            assert abs(eta - sigma) <= 1e-14, sigma

    def test_eta_increases_with_sigma(self, logistic):
        etas = [adjust_for_truncation(logistic, s, 1.0).eta_n for s in (0.7, 0.8, 0.9, 0.999)]
        assert all(b > a for a, b in zip(etas, etas[1:]))

    def test_fn_below_f(self, logistic):
        adj = adjust_for_truncation(logistic, 0.8, 1.0)
        u = np.linspace(0.0, logistic.cap_K0, 500)
        assert np.all(adj.f_n(u) <= logistic.f(u) + 1e-15)

    def test_degenerate_mass_loss(self, logistic):
        # d (1 - sigma_n) >= f'(0): no growth is left
        with pytest.raises(DegenerateAdjustmentError):
            adjust_for_truncation(logistic, 1e-6, 2.0)
        # just below that, u (sigma_n - u) still has its zero at sigma_n
        assert abs(adjust_for_truncation(logistic, 1e-6, 1.0).eta_n - 1e-6) <= 1e-14
        with pytest.raises(ValueError):
            adjust_for_truncation(logistic, 0.0, 1.0)

    def test_diffusion_scales_the_loss(self, logistic):
        # d (J_n*u - u) loses d (1 - sigma_n) u, so eta_n solves f(eta) = d (1 - sigma_n) eta
        d, sigma = 2.0, 0.9
        adj = adjust_for_truncation(logistic, sigma, d)
        assert abs(float(logistic.f(adj.eta_n)) - d * (1.0 - sigma) * adj.eta_n) <= 1e-12
        assert adj.to_unit_reaction().df0 == pytest.approx(logistic.df0 - d * (1.0 - sigma))

    def test_degenerate_check_scales_with_d(self, logistic):
        # at d = 2 the loss 2 (1 - sigma_n) reaches f'(0) = 1 at sigma_n = 0.5
        adjust_for_truncation(logistic, 0.5, 1.0)
        adjust_for_truncation(logistic, 0.6, 2.0)
        with pytest.raises(DegenerateAdjustmentError):
            adjust_for_truncation(logistic, 0.5, 2.0)

    def test_unit_rescale_is_scaled_logistic(self, logistic):
        adj = adjust_for_truncation(logistic, 0.9, 1.0)
        unit = adj.to_unit_reaction()
        v = np.linspace(0.0, 1.0, 200)
        np.testing.assert_allclose(unit.f(v), 0.9 * v * (1.0 - v), atol=1e-12)
        assert unit.df0 == pytest.approx(0.9)
        assert unit.df1 == pytest.approx(-0.9, abs=1e-6)
        assert validate_kpp(unit).all_pass
