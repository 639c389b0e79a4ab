import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma, zeta

import adaptive_reference
from bosemilne.errors import ConfigurationError, DivergenceError, DomainError
from bosemilne.special import AlphaModel, einstein, moment_l0, xi_alpha

E_AT_1 = 0.92067359420779231895  # 50-digit evaluation of e/(e-1)^2


class TestEinstein:
    def test_reference_value(self):
        assert einstein(1.0) == pytest.approx(E_AT_1, rel=1e-15)

    def test_even(self):
        assert einstein(-1.7) == einstein(1.7)

    def test_leading_pole_coefficient(self):
        x = 1e-6
        assert x * x * einstein(x) == pytest.approx(1.0, abs=1e-10)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            einstein(0.0)

    def test_no_overflow_at_700(self):
        v = einstein(700.0)
        assert 0.0 < v < 1e-300 or v > 0  # finite, positive

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1e-8, max_value=50.0))
    def test_matches_exponential_form(self, x):
        direct = math.exp(x) / math.expm1(x) ** 2
        assert abs(einstein(x) - direct) <= 1e-14 * direct

    def test_regularised_series_joins_direct_branch(self):
        x = 0.249  # series branch; compare against the direct subtraction
        series = adaptive_reference.einstein_reg(x)
        direct = einstein(x) - 1.0 / x ** 2 + 1.0 / 12.0
        assert series == pytest.approx(direct, rel=1e-10)
        assert adaptive_reference.einstein_reg(1e-9) == pytest.approx(0.0, abs=1e-19)


class TestMoments:
    @pytest.mark.parametrize("p, closed", [
        (0.0, 4 * math.pi ** 4 / 15),            # Gamma(5) zeta(4)
        (2.0, 732.48700462880338059),            # Gamma(7) zeta(6)
    ])
    def test_closed_forms(self, p, closed):
        assert moment_l0(p) == pytest.approx(closed, rel=5e-16)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0])
    def test_gamma_zeta_oracle(self, p):
        want = float(gamma(p + 5) * zeta(p + 4))
        assert abs(moment_l0(p) - want) <= 5e-16 * want

    def test_continuation_below_minus_three(self):
        # termwise series continues to Gamma(1.1) zeta(0.1), a negative value;
        # the Laurent head (-3.49) and the Gauss sums (2.92) cancel to it
        got = moment_l0(-3.9)
        assert got == pytest.approx(-0.57370020877384537994, rel=2e-15)

    def test_against_mpmath(self):
        # the moments AlphaModel.build takes for alpha = 0, 0.1, ..., 3, and
        # two points of the continuation, against 30-digit Gamma(p+5)
        # zeta(p+4) at the double p itself: worst 4.1e-16 on the alpha
        # grid, 5.0e-16 / 1.6e-15 at -3.5 / -3.9, where the head and the
        # sums cancel; a rounded p + 4 in the exponent cost 2.5e-15
        mpmath = pytest.importorskip("mpmath")
        alphas = np.round(np.arange(31) * 0.1, 12)
        ps = np.unique(np.concatenate([alphas, -alphas, 2 * alphas, [-3.5, -3.9]]))
        with mpmath.workdps(30):
            for p in ps[ps != -3.0].tolist():
                want = mpmath.gamma(mpmath.mpf(p) + 5) * mpmath.zeta(mpmath.mpf(p) + 4)
                assert abs(moment_l0(p) - want) <= 2e-15 * abs(want), p

    @pytest.mark.parametrize("p", [-4.0, -5.2])
    def test_divergent(self, p):
        with pytest.raises(DivergenceError):
            moment_l0(p)

    def test_zeta_pole(self):
        with pytest.raises(DivergenceError):
            moment_l0(-3.0)


class TestAlphaModel:
    def test_moments_match_closed_form(self, model1):
        want = float(gamma(1 + 5) * zeta(1 + 4))
        assert abs(model1.l0_alpha - want) <= 5e-16 * want
        want2 = float(gamma(2 + 5) * zeta(2 + 4))
        assert abs(model1.l0_2alpha - want2) <= 5e-16 * want2

    @pytest.mark.parametrize("alpha", [-0.1, 3.2, math.nan, math.inf])
    def test_rejects_out_of_range(self, alpha):
        with pytest.raises(ConfigurationError):
            AlphaModel.build(alpha)

    def test_alpha_three_has_no_negative_moment(self):
        m = AlphaModel.build(3.0)
        assert m.l0_neg is None
        assert m.l0_alpha > 0


class TestXiAlpha:
    def test_alpha_zero_inside_slit(self, model0):
        assert xi_alpha(model0, 0.5) == model0.l0_2alpha

    def test_alpha_zero_outside_slit(self, model0):
        assert xi_alpha(model0, 2.0) == 0.0

    def test_alpha_two_unit_mu(self, model2):
        # independent oracle: adaptive quadrature of w^8 E on (0, 1)
        assert xi_alpha(model2, 1.0) == pytest.approx(0.13396432776187883834, rel=1e-10)

    def test_monotone_nonincreasing(self, model1):
        mus = np.geomspace(1e-3, 50.0, 24)
        vals = [xi_alpha(model1, float(m)) for m in mus]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= model1.l0_2alpha * (1 + 1e-14) for v in vals)

    def test_limits(self, model1):
        assert xi_alpha(model1, 1e-10) == model1.l0_2alpha
        assert xi_alpha(model1, 1e8) < 1e-20

    def test_domain(self, model1):
        with pytest.raises(DomainError):
            xi_alpha(model1, 0.0)

    @pytest.mark.parametrize("alpha", [0.006, 0.1, 0.5, 1.0, 2.0])
    def test_against_adaptive_reference(self, alpha):
        # the cumulative Gauss sums and the Laurent head against adaptive
        # quadrature at tolerance 1e-14, on cutoffs from below 0.25 (the
        # Laurent head) through the frequency knots to the full moment
        model = AlphaModel.build(alpha)
        cuts = np.concatenate([np.geomspace(1e-3, 79.9, 300), [0.25, 0.2499, 0.2501, 4.0, 79.0]])
        mus = cuts ** -alpha
        got = xi_alpha(model, mus)
        want = adaptive_reference.xi_alpha(model, mus, 1e-14)
        assert np.max(np.abs(got - want) / want) <= 1e-13
        assert np.array_equal(got, [xi_alpha(model, float(m)) for m in mus])
