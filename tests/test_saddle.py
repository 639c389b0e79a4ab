import cmath
import math

import numpy as np
import pytest

from bosemilne import factorization as fz, saddle
from bosemilne.dispersion import lambda_case_pv
from bosemilne.errors import ConvergenceError, DomainError

W0_EXACT = {0.0: 3.83001609630907, 2.0: 5.96940917071577}


class TestSaddleRoot:
    @pytest.mark.parametrize("alpha, printed", [(0.0, 3.83002), (2.0, 5.96941)])
    def test_printed_values(self, alpha, printed):
        assert abs(saddle.saddle_root(alpha) - printed) <= 1e-5

    @pytest.mark.parametrize("alpha", [0.0, 0.7, 2.0, 3.0])
    def test_defining_equation_residual(self, alpha):
        w0 = saddle.saddle_root(alpha)
        a4 = alpha + 4.0
        assert abs(math.exp(w0) * (a4 - w0) - (a4 + w0)) <= 1e-9 * math.exp(w0)
        assert 0.0 < w0 < a4

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            saddle.saddle_root(-0.5)

    def test_within_one_ulp_of_mpmath(self):
        # the root of the equation the program solves, with a4 = alpha + 4.0
        # rounded to a float (that rounding alone moves the root by up to
        # 1.2 ulp at alpha near 0), by mpmath at 40 digits; Newton's root lies
        # within 0.53 ulp of it here (Brent's method at xtol 1e-15: 1.48)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        worst = 0.0
        for alpha in np.random.default_rng(28).uniform(0.0, 3.0, 300).tolist():
            a4 = mpmath.mpf(alpha + 4.0)
            root = mpmath.findroot(lambda w: mpmath.exp(w) * (a4 - w) - (a4 + w), a4)
            worst = max(worst, float(abs(saddle.saddle_root(alpha) - root) / math.ulp(float(root))))
        assert worst <= 1.0

    def test_residual_check_raises(self, monkeypatch):
        # a start that is not a number leaves a NaN residual, which must not pass
        monkeypatch.setattr(saddle, "saddle_root_approx", lambda alpha: math.nan)
        with pytest.raises(ConvergenceError, match="residual too large"):
            saddle.saddle_root(0.0)


class TestBrentPort:
    # scipy.optimize.brentq is the test-only oracle: at the alphas that a
    # command, the acceptance suite or the benchmark prints, Newton's root
    # has its bits, pinned here
    @staticmethod
    def scipy_root(alpha):
        from scipy.optimize import brentq
        a4 = alpha + 4.0
        eps = 1e-9 * a4
        return brentq(lambda w: math.exp(w) * (a4 - w) - (a4 + w), eps, a4 - eps,
                      xtol=1e-15, rtol=8.9e-16)

    BITS = {0.0: 3.830016096309075, 0.5: 4.389731215829071, 1.0: 4.928119358173284,
            1.5: 5.453087255261353, 2.0: 5.969409170715774, 3.0: 6.987079570718171}

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_same_root_as_scipy(self, alpha):
        assert saddle.saddle_root(alpha) == self.scipy_root(alpha) == self.BITS[alpha]


class TestSaddleApprox:
    @pytest.mark.parametrize("alpha, printed", [(0.0, 3.85347), (2.0, 5.97025)])
    def test_printed_values(self, alpha, printed):
        assert abs(saddle.saddle_root_approx(alpha) - printed) <= 1e-5

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_within_one_percent(self, alpha):
        w0 = saddle.saddle_root(alpha)
        assert abs(saddle.saddle_root_approx(alpha) - w0) <= 0.01 * w0

    def test_gap_at_alpha_zero_is_point_six_percent(self):
        gap = (saddle.saddle_root_approx(0.0) - saddle.saddle_root(0.0)) / saddle.saddle_root(0.0)
        assert gap == pytest.approx(0.0061, abs=1e-3)

    def test_large_alpha_limit(self):
        assert saddle.saddle_root_approx(30.0) / 34.0 == pytest.approx(1.0, abs=1e-13)


class TestV1Saddle:
    def test_alpha_zero_identity(self):
        assert saddle.v1_saddle(0.0, 0.7104460896) == 0.7104460896

    def test_printed_alpha_two(self):
        assert abs(saddle.v1_saddle(2.0, 0.71045) - 0.01994) <= 1e-5

    def test_monotone_decreasing(self):
        vals = [saddle.v1_saddle(a, 0.7104460896) for a in np.linspace(0.0, 3.0, 13)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSurrogate:
    # the surrogate is lam_C(w0^alpha z): alpha 0's slit table, stretched
    def test_alpha_zero_is_case_function(self, table0, surrogate_table):
        # w0^0 = 1: the surrogate slit is Case's own, node for node
        assert np.array_equal(surrogate_table(0.0).samples, table0.samples)

    def test_origin(self, surrogate_table):
        # lam = 1 at z = 0, so theta starts at 0 on every slit
        assert surrogate_table(2.0).theta_at(0.0) == 0.0

    def test_argument_substitution(self, table0, surrogate_table):
        w0 = saddle.saddle_root(2.0)
        table = surrogate_table(2.0)
        mus = np.geomspace(1e-4, 0.99, 50) / w0 ** 2
        np.testing.assert_allclose(table.theta_at(mus), table0.theta_at(w0 ** 2 * mus),
                                   rtol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_generic_pipeline_reproduces_scaling(self, ctx, surrogate_table, alpha):
        # the theta/V1 machinery on the surrogate slit collapses to w0^-alpha V1(0)
        w0 = saddle.saddle_root(alpha)
        table = surrogate_table(alpha)
        model = ctx.model(alpha)
        est = fz.v1_coefficient(model, table)
        want = w0 ** (-alpha) * ctx.v1(0.0).value
        assert abs(est.value - want) <= 1e-6

    def test_table_matches_fresh_values(self, surrogate_table):
        # theta of the surrogate table against 20,000 fresh boundary values
        # lam_C(y + i0) = pv(y) + i pi y / 2, y = mu/edge
        table = surrogate_table(2.0)
        rng = np.random.default_rng(21)
        mus = np.exp(rng.uniform(math.log(1e-6), math.log(table.mu_max), 20000))
        ys = mus / table.slit_edge
        fresh = np.array([cmath.phase(complex(lambda_case_pv(y), 0.5 * math.pi * y))
                          for y in ys.tolist()])
        assert np.max(np.abs(table.theta_at(mus) - fresh)) <= 2e-8
        assert np.all(table.theta_at(table.slit_edge * np.array([1.0, 3.0])) == math.pi)
