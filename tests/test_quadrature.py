import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosemilne import quadrature
from bosemilne.errors import AccuracyError, ConfigurationError, DomainError
from bosemilne.quadrature import (KNOT_ORDERS, ChebPanels, KnotPv, PvIntegrand, gauss_rule,
                                  integrate, integrate_rows, integrate_with_error, knot_pv_sums,
                                  power_tail, pv_integral, pv_rows)
from bosemilne.special import einstein


class TestGaussRule:
    def test_order_one(self):
        r = gauss_rule(1)
        assert r.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert r.weights[0] == pytest.approx(2.0, abs=1e-15)

    def test_order_two_closed_form(self):
        r = gauss_rule(2)
        np.testing.assert_allclose(r.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(r.weights, [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 16, 64, 257])
    def test_weights_and_nodes(self, n):
        r = gauss_rule(n)
        assert abs(r.weights.sum() - 2.0) <= 1e-14
        assert np.all(r.weights > 0)
        assert np.all(np.diff(r.nodes) > 0)

    def test_exactness_degree_2n_minus_1(self):
        # order 64 integrates tau^126 on [-1, 1] exactly
        r = gauss_rule(64)
        got = r.weights @ r.nodes ** 126
        assert got == pytest.approx(2.0 / 127.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [0, -3, 10001, 2.5])
    def test_order_validation(self, bad):
        with pytest.raises(ConfigurationError):
            gauss_rule(bad)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: np.ones_like(x), 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_planck_moment(self):
        got = integrate(lambda w: w ** 4 * einstein(w), 0.0, 80.0, 1e-12)
        assert got == pytest.approx(4 * math.pi ** 4 / 15, rel=1e-10)

    def test_log_endpoint_singularity(self):
        got = integrate(lambda t: np.log(1.0 / t), 0.0, 1.0, 1e-8, max_depth=40)
        assert got == pytest.approx(1.0, rel=1e-8)

    def test_breakpoints_skip_interior_kink(self):
        f = lambda x: np.abs(x - 0.3)
        got = integrate(f, 0.0, 1.0, 1e-12, points=[0.3])
        assert got == pytest.approx(0.5 * 0.3 ** 2 + 0.5 * 0.7 ** 2, rel=1e-13)

    def test_accuracy_error_carries_best_estimate(self):
        f = lambda x: np.abs(x - 1 / math.pi) ** -0.95
        with pytest.raises(AccuracyError) as exc:
            integrate(f, 0.0, 1.0, 1e-13, max_depth=4)
        assert exc.value.best is not None
        assert exc.value.bound > 0

    def test_complex_integrand(self):
        got = integrate(lambda t: np.exp(1j * t), 0.0, math.pi / 2, 1e-13)
        assert got == pytest.approx(1.0 + 1j, rel=1e-12)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 0.0)


class TestPrincipalValue:
    def test_constant_symmetric_pole(self):
        # f == 1 on (0, 2), pole at 1: logarithms cancel
        p = PvIntegrand(f=lambda t: np.ones_like(t), pole=1.0, interval=(0.0, 2.0))
        assert pv_integral(p) == pytest.approx(0.0, abs=1e-13)

    def test_linear_through_origin(self):
        p = PvIntegrand(f=lambda t: t, pole=0.0, interval=(-1.0, 1.0))
        assert pv_integral(p) == pytest.approx(2.0, rel=1e-13)

    def test_quadratic_antiderivative_oracle(self):
        # t^2/(t-1) = t + 1 + 1/(t-1): P-integral over (0,2) is 4
        p = PvIntegrand(f=lambda t: t ** 2, pole=1.0, interval=(0.0, 2.0))
        assert pv_integral(p) == pytest.approx(4.0, rel=1e-13)

    def test_pole_at_endpoint_rejected(self):
        with pytest.raises(DomainError):
            PvIntegrand(f=lambda t: t, pole=1.0, interval=(0.0, 1.0))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
           st.lists(st.floats(-3, 3), min_size=3, max_size=3),
           st.floats(-2, 2), st.floats(-2, 2))
    def test_linearity(self, ca, cb, wa, wb):
        f = lambda t: ca[0] + ca[1] * t + ca[2] * t * t
        g = lambda t: cb[0] + cb[1] * t + cb[2] * t * t
        h = lambda t: wa * f(t) + wb * g(t)
        pole, iv = 0.4, (-1.0, 2.0)
        lhs = pv_integral(PvIntegrand(f=h, pole=pole, interval=iv))
        rhs = (wa * pv_integral(PvIntegrand(f=f, pole=pole, interval=iv))
               + wb * pv_integral(PvIntegrand(f=g, pole=pole, interval=iv)))
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))

    def test_against_scipy_qawc(self):
        from scipy.integrate import quad
        f = lambda t: np.cos(t) * np.exp(-0.3 * t)
        got = pv_integral(PvIntegrand(f=f, pole=0.7, interval=(0.0, 3.0)), tol=1e-11)
        want, _ = quad(lambda t: float(f(np.asarray(t))), 0.0, 3.0,
                       weight="cauchy", wvar=0.7)
        assert got == pytest.approx(want, rel=1e-9)


def test_error_estimate_is_a_bound():
    f = lambda x: np.sin(7 * x) / (1 + x * x)
    val, err = integrate_with_error(f, 0.0, 4.0, 1e-10)
    exact, _ = integrate_with_error(f, 0.0, 4.0, 1e-14, max_depth=20)
    assert abs(val - exact) <= max(err, 1e-13)


class TestBatchedRows:
    def test_first_panel_rows(self):
        # smooth rows pass on their first panel, all in one call of f; a
        # reversed interval is a DomainError, as in integrate
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.exp(x)

        a = np.array([0.0, 1.0])
        b = np.array([1.0, 3.0])
        vals, _ = integrate_rows(f, a, b, 1e-12)
        assert shapes == [(2, 3 * 64)]
        assert vals == pytest.approx(np.exp(b) - np.exp(a), rel=1e-14)
        with pytest.raises(DomainError):
            integrate_rows(np.exp, [0.0, 2.0], [1.0, 1.0])

    def test_rows_match_adaptive(self):
        # sqrt(x + p) needs bisection for p = 1e-12 only; every row is within
        # 10 tol of its closed form, and integrate is the one-row call, bit
        # for bit
        p = np.array([1.0, 1e-12, 0.5])

        def f(x, q):
            return np.sqrt(x + q)

        got, _ = integrate_rows(f, np.zeros(3), np.ones(3), 1e-10, params=(p,),
                                max_depth=30)
        exact = 2.0 / 3.0 * ((1.0 + p) ** 1.5 - p ** 1.5)
        assert np.all(np.abs(got - exact) <= 10 * 1e-10 * exact)
        for q, g in zip(p, got):
            one, _ = integrate_rows(f, [0.0], [1.0], 1e-10, params=([q],), max_depth=30)
            assert integrate(lambda x: f(x, q), 0.0, 1.0, 1e-10, max_depth=30) == one[0] == g

    def test_fallback_keeps_accuracy_error(self):
        with pytest.raises(AccuracyError):
            integrate_rows(lambda x: 1.0 / np.sqrt(x), [0.0], [1.0], 1e-14, max_depth=2)

    def test_row_independent_of_its_batch(self):
        # rows that pass the first panel and rows that bisect deeply, with and
        # without a split point (nan: none): each value has the same bits
        # alone, in reverse order and in the mixed batch
        q = np.array([1.0, 1e-12, 0.5, 1e-9, 2.0])
        pts = np.array([np.nan, 0.3, 0.5, np.nan, 0.9])

        def f(x, q):
            return np.sqrt(np.abs(x - 0.3) + q)

        def rows(q, pts):
            return integrate_rows(f, np.zeros(len(q)), np.ones(len(q)), 1e-10,
                                  params=(q,), points=pts, max_depth=30)[0]

        batch = rows(q, pts)
        backwards = rows(q[::-1], pts[::-1])[::-1]
        alone = [rows(q[i:i + 1], pts[i:i + 1])[0] for i in range(len(q))]
        assert batch.tolist() == backwards.tolist() == alone

    @pytest.mark.parametrize("split", [False, True])
    def test_deep_rows_agree_with_integrate(self, split):
        q = np.array([1e-12, 1e-8, 1e-4])
        pts = (0.3,) if split else ()

        def f(x, q):
            return np.sqrt(np.abs(x - 0.3) + q)

        got, _ = integrate_rows(f, np.zeros(3), np.ones(3), 1e-12, params=(q,),
                                points=np.full(3, 0.3) if split else None, max_depth=40)
        exact = 2.0 / 3.0 * ((0.3 + q) ** 1.5 + (0.7 + q) ** 1.5 - 2.0 * q ** 1.5)
        assert np.all(np.abs(got - exact) <= 10 * 1e-12 * exact)
        for c, g in zip(q, got):
            one, _ = integrate_rows(f, [0.0], [1.0], 1e-12, params=([c],),
                                    points=[0.3] if split else None, max_depth=40)
            assert g == one[0] == integrate(lambda x: f(x, c), 0.0, 1.0, 1e-12,
                                            max_depth=40, points=pts)

    def test_several_points_per_row(self):
        # a row cut at 0.7 and 0.2, given unsorted and repeated, with a NaN and
        # a point outside (0, 1) that are ignored, has no kink left inside a
        # panel; the other rows cut at one point, at none, or bisect sqrt(x)
        nan = np.nan

        def f(x, q):
            return np.abs(x - 0.2) + np.abs(x - 0.7) + q * np.sqrt(x)

        q = np.array([0.0, 1.0, 0.0, 2.0])
        pts = np.array([[0.7, 0.2, 0.2, nan, 5.0],
                        [nan, nan, nan, nan, nan],
                        [0.2, nan, nan, nan, nan],
                        [0.7, 0.7, -1.0, 0.2, nan]])

        def rows(q, pts):
            return integrate_rows(f, np.zeros(len(q)), np.ones(len(q)), 1e-12,
                                  params=(q,), points=pts, max_depth=40)[0]

        batch = rows(q, pts)
        backwards = rows(q[::-1], pts[::-1])[::-1]
        alone = [rows(q[i:i + 1], pts[i:i + 1])[0] for i in range(len(q))]
        assert batch.tolist() == backwards.tolist() == alone
        one = integrate(lambda x: np.abs(x - 0.2) + np.abs(x - 0.7), 0.0, 1.0, 1e-12,
                        max_depth=40, points=[0.7, 0.2, 0.2, 5.0])
        assert one == pytest.approx(0.63, rel=1e-14)
        assert one == batch[0]

    def test_max_depth_error_carries_the_rows_estimate(self):
        # the smooth row converges on its first panel; the singular one stalls
        # and reports the same best estimate and bound as when alone
        def f(x, q):
            return np.abs(x - q) ** -0.95

        with pytest.raises(AccuracyError) as mixed:
            integrate_rows(f, [0.0, 0.0], [1.0, 1.0], 1e-13, params=([2.0, 1 / math.pi],),
                           max_depth=4)
        with pytest.raises(AccuracyError) as alone:
            integrate_rows(f, [0.0], [1.0], 1e-13, params=([1 / math.pi],), max_depth=4)
        assert "depth 4" in str(mixed.value)
        assert math.isfinite(mixed.value.best) and mixed.value.bound > 0
        assert (mixed.value.best, mixed.value.bound) == (alone.value.best, alone.value.bound)

    def test_pv_rows_against_pv_integral_and_qawc(self):
        from scipy.integrate import quad

        def f(t):
            return np.cos(2.0 * t) * np.exp(-0.3 * t)

        poles = np.array([0.7, 1.5, 2.9])
        got = pv_rows(f, poles, 0.0, 3.0, 1e-11)
        for g, c in zip(got, poles):
            one = pv_integral(PvIntegrand(f=f, pole=c, interval=(0.0, 3.0)), tol=1e-11)
            want, _ = quad(lambda t: math.cos(2.0 * t) * math.exp(-0.3 * t), 0.0, 3.0,
                           weight="cauchy", wvar=c)
            assert g == one
            assert g == pytest.approx(want, rel=1e-9)


class TestKnotPvSums:
    """The regularised principal-value sum of the fixed rules on knot intervals."""

    knots = np.array([0.0, 0.1, 0.35, 1.0])

    def rule(self, fine):
        """(nodes, weights) of `KnotPv`'s first pass on the knots, or of its
        fine pass: the knots graded below 0.1 and bisected."""
        nodes, _, weights = KnotPv(self.knots, lambda t: (t, t)).pair(fine)
        return nodes, weights

    @pytest.mark.parametrize("fine", [False, True])
    def test_polynomial_is_exact(self, fine):
        # (t^2 - c^2)/(t - c) = t + c: the value is its integral 1/2 + c and
        # the estimate rounding
        nodes, weights = self.rule(fine)
        c = np.linspace(0.05, 0.95, 11)
        value, err = knot_pv_sums(nodes ** 2, c ** 2, c, nodes, weights)
        np.testing.assert_allclose(value, 0.5 + c, rtol=1e-14, atol=0.0)
        assert np.all(err <= 1e-14)

    @pytest.mark.parametrize("fine", [False, True])
    def test_rows_do_not_depend_on_blocks(self, fine):
        # rows over three blocks of the work array and part of a fourth, each
        # equal to its one-row sum bit for bit
        nodes, weights = self.rule(fine)
        c = np.linspace(0.05, 0.95, 3 * (quadrature._PV_WORK // len(nodes)) + 1)
        value, err = knot_pv_sums(nodes ** 2, c ** 2, c, nodes, weights)
        rows = [knot_pv_sums(nodes ** 2, c[i:i + 1] ** 2, c[i:i + 1], nodes, weights)
                for i in range(len(c))]
        assert value.tolist() == [v[0] for v, _ in rows]
        assert err.tolist() == [e[0] for _, e in rows]

    @pytest.mark.parametrize("fine", [False, True])
    def test_node_on_pole_gives_nan_estimate(self, fine):
        # 0/0 where f_c is f at the node, and x/0 where it is not: both
        # estimates are NaN, which no tolerance test passes
        nodes, weights = self.rule(fine)
        c = np.full(2, nodes[5])
        _, err = knot_pv_sums(2.0 * nodes, np.array([2.0 * c[0], 2.0 * c[0] + 1e-3]), c,
                              nodes, weights)
        assert np.all(np.isnan(err))

    @pytest.mark.parametrize("fine", [False, True])
    def test_node_on_pole_takes_the_slope(self, fine):
        # poles on a node of the high-order rule, of the low-order one, and on
        # none: with f'(c) = 2c as the quotient at the node, (t^2 - c^2)/(t -
        # c) = t + c sums exactly again; the row on no node keeps its bits
        nodes, weights = self.rule(fine)
        low = KNOT_ORDERS[0] * len(nodes) // sum(KNOT_ORDERS)
        c = np.array([nodes[5], nodes[low + 3], 0.5])
        value, err = knot_pv_sums(nodes ** 2, c ** 2, c, nodes, weights, 2.0 * c)
        np.testing.assert_allclose(value, 0.5 + c, rtol=1e-14, atol=0.0)
        assert np.all(err <= 1e-14)
        plain = knot_pv_sums(nodes ** 2, c[2:] ** 2, c[2:], nodes, weights)
        assert (value[2], err[2]) == (plain[0][0], plain[1][0])


def power_tail_reference(q, end, z, x):
    """int_0^(1/end) u^a e^(-x u)/(1 - z u) du, a = -q - 1, at 40 digits, real z < end.

    At x = 0 in closed form, U^(a+1)/(a+1) 2F1(1, a+1; a+2; z U) with U =
    1/end. At x > 0 the head terms u^a (1 + (z - x) u) of the integrand are
    integrated exactly and the rest, O(u^(a+2)) at 0, by tanh-sinh quadrature,
    split at U/2 and, for a pole next to the end, at U (1 - 10^-k), k = 1..13.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, top, z = -mpmath.mpf(q) - 1, 1 / mpmath.mpf(end), mpmath.mpf(z)
        if x == 0.0:
            return float(top ** (a + 1) / (a + 1) * mpmath.hyp2f1(1, a + 1, a + 2, z * top))
        x = mpmath.mpf(x)
        head = top ** (a + 1) / (a + 1) + (z - x) * top ** (a + 2) / (a + 2)
        cuts = [0, top / 2]
        if abs(z - end) < end / 2:
            cuts += [top * (1 - mpmath.mpf(10) ** -k) for k in range(1, 14)]
        rest = mpmath.quad(lambda u: u ** a * (mpmath.exp(-x * u) / (1 - z * u) - 1 - (z - x) * u),
                           cuts + [top])
        return float(head + rest)


class TestPowerTail:
    """int_0^(1/end) u^(-q-1) e^(-x u)/(1 - z u) du against 40-digit references.

    q = -5 / -2 / -1.14 are Vp's tails at alpha 0.5 / 1 / 1.4 and the field's
    at alpha 0.43 / 0.75 / 0.95; q = -0.4 / -1/7 / -0.02 the field's at
    alpha 1.25 / 1.4 / 1.49, where u^(-q-1) is singular at 0. z runs from
    -1e4 to 1e-10 end below the end, the pole u = 1/z just beyond 1/end.
    """

    @staticmethod
    def zs(end):
        return np.array([0.7, -3.0, 0.3 * end, end * (1 - 1e-6), end * (1 - 1e-10), -1e4])

    QS = [-5.0, -2.0, -1.14, -0.4, -1.0 / 7.0, -0.02]

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("x", [0.0, 1.0, 5.0, 100.0])
    def test_against_mpmath(self, q, x):
        # at x = 0 every z at ends 2 and 30 against 2F1; at x > 0, where each
        # reference is a tanh-sinh quadrature, one z per q at end 2, the six
        # q taking the six z. Measured within 1.3e-15 on the whole grid
        for end in (2.0, 30.0) if x == 0.0 else (2.0,):
            z = self.zs(end) if x == 0.0 else self.zs(end)[[self.QS.index(q)]]
            got = power_tail(q, end, z, 1e-10, x)
            for zi, g in zip(z.tolist(), got.tolist()):
                want = power_tail_reference(q, end, zi, x)
                assert abs(g - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("q", [-0.4, -2.0])
    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_pole_next_to_the_end(self, q, x):
        # z up to 1e-10 end below end: the pole u = 1/z just beyond 1/end.
        # Subtracted, the rule's estimate meets tolerance 1e-13 there, and
        # the value is within 1e-14 of the reference
        end = 30.0
        z = end * (1.0 - np.array([1e-6, 1e-8, 1e-10]))
        got = power_tail(q, end, z, 1e-13, x)
        for zi, g in zip(z.tolist(), got.tolist()):
            want = power_tail_reference(q, end, zi, x)
            assert abs(g - want) <= 1e-14 * abs(want)

    def test_no_rows(self):
        # an empty batch of rows, as an empty profile grid sends
        assert power_tail(-0.4, 2.0, np.array([]), 1e-10, np.array([])).shape == (0,)

    def test_estimate_over_tolerance_raises(self):
        # the 8-point sums of e^(-100 u) u^4 on [1/4, 1/2] miss by 1e-11 of
        # the integral (the value itself is right): no tolerance below that
        # is met, and the row raises with its best value and bound
        with pytest.raises(AccuracyError, match="power-law tail") as info:
            power_tail(-5.0, 2.0, [0.7], 1e-13, 100.0)
        assert info.value.bound > 1e-13 * abs(info.value.best)


class TestChebPanels:
    """The adaptive Chebyshev panels in s = ln x, on atan(ln x)."""

    @staticmethod
    def f(x):
        return np.arctan(np.log(x))

    def test_values_and_slopes_within_tol(self):
        panels, _, _ = ChebPanels.fit(self.f, np.geomspace(1e-3, 1e3, 3), 1e-10, 8)
        x = np.exp(np.random.default_rng(4).uniform(math.log(1e-3), math.log(1e3), 1000))
        assert np.max(np.abs(panels.value(x) - self.f(x))) <= 1e-10
        assert np.max(np.abs(panels.slope(x) - 1.0 / (x * (1.0 + np.log(x) ** 2)))) <= 1e-10

    def test_nodes_ascend_with_the_function_bits(self):
        panels, nodes, values = ChebPanels.fit(self.f, np.geomspace(1e-3, 1e3, 3), 1e-10, 8)
        assert np.all(np.diff(nodes) > 0.0)
        assert nodes[0] == 1e-3 and nodes[-1] == 1e3
        assert np.array_equal(values, self.f(nodes))
        assert set(panels.breaks.tolist()) <= set(nodes.tolist())
