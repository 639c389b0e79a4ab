import cmath
import math
import pickle

import numpy as np
import pytest

import adaptive_reference
from bosemilne import dispersion, quadrature
from bosemilne.dispersion import (DispersionTable, build_theta_table,
                                  evaluate_boundary, index_kappa,
                                  lambda_boundary,
                                  lambda_boundary_batch, lambda_case, lambda_case_pv,
                                  lambda_general, weighted_case_average)
from bosemilne.errors import ConsistencyError, DomainError, ResolutionError
from bosemilne.special import einstein

LAM_C_2 = -0.098612288668109691395  # 1 - ln 3


class TestCaseFunction:
    def test_reference_point(self):
        assert lambda_case(2.0 + 0j) == pytest.approx(LAM_C_2, rel=1e-14)

    def test_origin_is_removable(self):
        assert lambda_case(0.0) == 1.0
        assert abs(lambda_case(1e-10j) - 1.0) < 1e-9

    def test_second_order_zero(self):
        z = 1e4 * cmath.exp(0.4j)
        assert abs(z * z * lambda_case(z) + 1.0 / 3.0) < 1e-8

    @pytest.mark.parametrize("z", [0.5, -1.0, 1.0, 0.2 + 0j])
    def test_cut_rejected(self, z):
        with pytest.raises(DomainError):
            lambda_case(z)

    def test_series_and_log_branches_agree(self):
        # both branches are exercised just inside and outside the switch radius
        for z in (3.999 + 0.7j, 4.001 + 0.7j, -3.999 - 0.2j, -4.001 - 0.2j):
            direct = 1.0 + 0.5 * z * (np.log(z - 1.0) - np.log(z + 1.0))
            assert lambda_case(z) == pytest.approx(direct, rel=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        zs = rng.uniform(-5, 5, 20) + 1j * rng.uniform(0.05, 5, 20)
        for z in zs:
            assert lambda_case(np.conj(z)) == pytest.approx(
                np.conj(lambda_case(z)), rel=1e-14)


class TestCaseBoundary:
    # the slit's boundary value lam_C(y + i0) = pv(y) + i pi y / 2, the closed
    # form of every slit table
    def test_center(self):
        re, im = dispersion._slit_parts(np.array([0.0]))
        assert (re[0], im[0]) == (1.0, 0.0)

    def test_half(self):
        re, im = dispersion._slit_parts(np.array([0.5]))
        assert re[0] == pytest.approx(1 - 0.25 * math.log(3), rel=1e-14)
        assert im[0] == pytest.approx(math.pi / 4, rel=1e-15)

    def test_log_divergence_at_edge(self):
        assert lambda_case_pv(1 - 1e-12) < -10.0


class TestLambdaGeneral:
    def test_alpha_zero_is_case_function(self, model0):
        z = 2j
        assert lambda_general(model0, z) == lambda_case(z)

    def test_weighted_average_reduction(self, model0):
        # the generic integral route must collapse to lam_C at alpha = 0
        for z in (0.3 + 0.7j, -2 + 0.1j, 5j, 20.0 + 3j):
            assert abs(weighted_case_average(model0, z) - lambda_case(z)) <= 1e-12

    def test_small_argument_limit(self, model1):
        assert abs(lambda_general(model1, 1e-6j) - 1.0) < 1e-4

    def test_second_order_zero_alpha2(self, model2):
        z = 10j
        got = lambda_general(model2, z)
        # 30-digit reference for the weighted integral at this point
        assert got == pytest.approx(1.3609257370090932e-05, rel=1e-10)
        ref = model2.l0_neg / (3.0 * model2.l0_alpha)
        # the asymptote carries a slowly decaying O(|z|^(-1/2)) correction (9% here)
        assert abs(z * z * got + ref) <= 0.15 * ref

    @pytest.mark.parametrize("alpha_fixture", ["model1", "model2"])
    def test_conjugate_symmetry(self, alpha_fixture, request):
        model = request.getfixturevalue(alpha_fixture)
        rng = np.random.default_rng(11)
        zs = rng.uniform(-3, 3, 6) + 1j * rng.uniform(0.1, 3, 6)
        for z in zs:
            a = lambda_general(model, np.conj(complex(z)))
            b = np.conj(lambda_general(model, complex(z)))
            assert a == pytest.approx(b, rel=1e-13)

    def test_second_order_zero_alpha2_oracle(self, model2):
        # criterion 5's documented deviation at |z| = 1000, from the defining
        # integral at 30 digits; the criterion itself asks for 1e-6 and fails
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            z, a = mp.mpc(0, 1000), 2

            def l0(p):
                return mp.gamma(p + 5) * mp.zeta(p + 4)

            def f(w):
                u = w ** a * z
                lam_c = 1 + u / 2 * mp.log((u - 1) / (u + 1))
                return w ** (a + 4) * mp.exp(w) / mp.expm1(w) ** 2 * lam_c

            wc = 1 / mp.sqrt(1000)  # where |w^a z| = 1
            lam = mp.quad(f, [0, wc, 8 * wc, 64 * wc, 10, mp.inf]) / l0(a)
            ref = l0(-a) / (3 * l0(a))
            want = float(abs(z * z * lam + ref) / ref)
        assert want == pytest.approx(9.15064509449e-3, rel=1e-11)
        zc = 1000j
        ref_prog = model2.l0_neg / (3.0 * model2.l0_alpha)
        got = abs(zc * zc * lambda_general(model2, zc) + ref_prog) / ref_prog
        assert got == pytest.approx(want, rel=1e-9)

    def test_real_argument_rejected_for_positive_alpha(self, model1):
        with pytest.raises(DomainError):
            lambda_general(model1, 0.7)


class TestLambdaBoundary:
    def test_alpha_zero_reduction(self, model0):
        s = lambda_boundary(model0, 0.5)
        assert s.real == pytest.approx(1 - 0.25 * math.log(3), rel=1e-14)
        assert s.imag == pytest.approx(math.pi / 4, rel=1e-15)

    def test_small_mu(self, model0):
        s = lambda_boundary(model0, 1e-9)
        assert s.real == pytest.approx(1.0, abs=1e-8)
        assert s.imag == pytest.approx(0.0, abs=1e-8)

    def test_alpha_zero_outside_slit(self, model0):
        s = lambda_boundary(model0, 2.0)
        assert s.imag == 0.0
        assert s.real == pytest.approx(LAM_C_2, rel=1e-13)
        assert lambda_boundary_batch(model0, [2.0])[2][0] == math.pi

    def test_against_independent_quadrature(self, ctx):
        # scipy QUADPACK on the raw integrand, split at the log singularity;
        # mu covers ws = mu^(-1/a) beyond the cut 80, next to it, ws = 1 and
        # ws < 1 (mu = 100)
        from scipy.integrate import quad
        for alpha in (0.5, 1.0, 2.0):
            model = ctx.model(alpha)
            for mu in (1e-5, 79.5 ** -alpha, 0.5, 1.0, 100.0):
                ws = mu ** (-1.0 / alpha)

                def f(w):
                    y = w ** alpha * mu
                    lam_pv = 1.0 - 0.5 * y * math.log(abs((1 + y) / (1 - y)))
                    return w ** (alpha + 4) * float(einstein(w)) * (lam_pv - 1.0)

                cuts = [0.0, ws, 80.0] if ws < 80.0 else [0.0, 80.0]
                val = sum(quad(f, lo, hi, limit=400, epsabs=1e-15 * model.l0_alpha,
                               epsrel=1e-13)[0] for lo, hi in zip(cuts[:-1], cuts[1:]))
                xi, _ = quad(lambda w: w ** (2 * alpha + 4) * float(einstein(w)),
                             0.0, min(ws, 80.0), limit=400, epsabs=0.0, epsrel=1e-13)
                s = lambda_boundary(model, mu)
                # Re lam+ = 1 + O(1) integral: near mu = 100 it cancels to ~1e-7,
                # so the two quadratures agree only to an absolute ~1e-14 there
                assert s.real == pytest.approx(1.0 + val / model.l0_alpha,
                                               rel=1e-9, abs=1e-13)
                assert s.imag == pytest.approx(
                    0.5 * math.pi * mu * xi / model.l0_alpha, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_batch_rows_independent(self, ctx, alpha):
        # one call, the reversed call and one-row calls give the same bits,
        # which keeps tables identical whatever chunk or worker a mu lands in;
        # the phase of the one-row lam+ is the batch's theta
        model = ctx.model(alpha)
        mus = np.concatenate([np.geomspace(1e-6, 3000.0, 37), [79.5 ** -alpha, 1.0]])
        batch = np.array(lambda_boundary_batch(model, mus))
        backwards = np.array(lambda_boundary_batch(model, mus[::-1]))[:, ::-1]
        single = np.array([(s.real, s.imag, cmath.phase(s))
                           for s in (lambda_boundary(model, float(m)) for m in mus)]).T
        assert np.array_equal(batch, backwards)
        assert np.array_equal(batch, single)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_fallback_rows_agree(self, ctx, alpha, monkeypatch):
        # the fixed rule uses no adaptive panel; the reference at tol=1e-15,
        # below what its first 64-point panel can certify, goes on to
        # bisection steps (panels evaluated with a known whole)
        model = ctx.model(alpha)
        mus = np.array([1e-5, 79.5 ** -alpha, 0.3, 1.0, 7.0, 100.0])
        calls = []
        panels = quadrature._panels

        def spy(f, lo, hi, rule, whole=None):
            if whole is not None:
                calls.append(len(lo))
            return panels(f, lo, hi, rule, whole)

        monkeypatch.setattr(quadrature, "_panels", spy)
        default, _, _ = lambda_boundary_batch(model, mus)
        assert not calls
        # the adaptive frequency integral at depth 20, tolerance 1e-15
        strict = adaptive_reference.re_part(model, mus, 1e-15, 20)
        assert calls
        for got, want in zip(strict, default):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("alpha,mu", [(2.0, 100.0), (2.0, 1000.0), (1.0, 100.0)])
    def test_real_part_at_large_mu_oracle(self, ctx, alpha, mu):
        # Re lam+ is ~1e-9 to 1e-6 here; written as 1 + (an integral near
        # -l0)/l0 it cancelled to a relative 7.5e-8 at (2, 1000). The
        # defining integral at 30 digits, up to the model's frequency cut
        mp = pytest.importorskip("mpmath")
        model = ctx.model(alpha)
        with mp.workdps(30):
            a, m = mp.mpf(alpha), mp.mpf(mu)

            def f(w):
                y = w ** a * m
                lam_pv = 1 - y / 2 * mp.log(abs((1 + y) / (1 - y)))
                return w ** (a + 4) * mp.exp(w) / mp.expm1(w) ** 2 * lam_pv

            ws = m ** (-1 / a)  # the singular frequency, where w^a mu = 1
            want = float(mp.quad(f, [0, ws / 2, ws, 2 * ws, 1, 10, model.omega_cut])
                         / (mp.gamma(a + 5) * mp.zeta(a + 4)))
        assert lambda_boundary(model, mu).real == pytest.approx(want, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_against_adaptive_reference(self, ctx, alpha):
        # the fixed rule against the adaptive routes at tolerance 1e-10,
        # depth 20, on the default table's nodes and on 200 log-uniform mu
        # in (1e-6, mu_max)
        model, table = ctx.model(alpha), ctx.table(alpha)
        rng = np.random.default_rng(22)
        mus = np.concatenate([table.mu[1:], np.exp(rng.uniform(
            math.log(1e-6), math.log(table.mu_max), 200))])
        got = lambda_boundary_batch(model, mus)
        for part, values, want in zip(("lambda_real", "im_plus", "theta"), got,
                                      adaptive_reference.boundary_values(model, mus)):
            assert np.max(np.abs(values - want)) <= 1e-12, part

    @pytest.mark.parametrize("alpha", [0.006, 0.1])
    def test_small_alpha_against_strict_reference(self, ctx, alpha):
        # the step of rho from full to 0 is alpha wide in ln t; the adaptive
        # route's own error here is 3e-11 at tolerance 1e-10, so the
        # reference runs at 1e-13, its cutoffs at 1e-14
        model = ctx.model(alpha)
        rng = np.random.default_rng(23)
        mus = np.concatenate([np.exp(rng.uniform(math.log(1e-6), math.log(30.0), 60)),
                              80.0 ** -alpha * np.array([0.999, 1.001, 1.01, 1.05])])
        got_re, got_im, _ = lambda_boundary_batch(model, mus)
        re = adaptive_reference.re_part(model, mus, 1e-13, 30)
        im = 0.5 * math.pi * mus * adaptive_reference.xi_alpha(model, mus, 1e-14) / model.l0_alpha
        assert np.max(np.abs(got_re - re)) <= 1e-12
        assert np.max(np.abs(got_im - im)) <= 1e-12

    def test_nonpositive_mu_rejected(self, model1):
        with pytest.raises(DomainError):
            lambda_boundary(model1, -0.5)

    def test_mu_beyond_the_rule_rejected(self, model1):
        assert cmath.phase(lambda_boundary(model1, 0.99 * dispersion._T_END)) == pytest.approx(
            math.pi)
        with pytest.raises(DomainError, match="requires mu <"):
            lambda_boundary(model1, dispersion._T_END)


class TestThetaTable:
    def test_starts_at_zero(self, table0):
        # one (mu, theta) row a node, the origin first
        assert table0.samples.shape == (len(table0.samples), 2)
        assert np.array_equal(table0.samples[0], [0.0, 0.0])

    def test_alpha_zero_closure_beyond_slit(self, table0):
        assert float(table0.theta_at(1.5)) == math.pi
        assert float(table0.theta_at(7.0)) == math.pi

    def test_theta_monotone_within_jump_guard(self, table0, table1):
        for t in (table0, table1):
            assert np.all(np.abs(np.diff(t.theta)) <= 0.5 * math.pi)
            assert t.theta[-1] > 2.8  # close to pi at the far end

    @pytest.mark.parametrize("surrogate", [False, True], ids=["alpha0", "surrogate2"])
    def test_slit_nodes_hold_theta_at(self, table0, surrogate_table, surrogate):
        # a slit table's node thetas are the closed form theta_at evaluates
        table = surrogate_table(2.0) if surrogate else table0
        assert np.array_equal(table.theta, table.theta_at(table.mu))

    def test_im_plus_nonnegative(self, model1, table1):
        _, im, _ = lambda_boundary_batch(model1, table1.mu[1:])
        assert np.all(im >= 0.0)

    def test_no_zeros_of_lambda_plus_on_cut(self, model0, model1, table0, table1):
        # lam+ lam- = |lam+|^2 must stay strictly positive along the cut
        for model, t in ((model0, table0), (model1, table1)):
            re, im, _ = lambda_boundary_batch(model, t.mu[1:])
            assert np.all(re ** 2 + im ** 2 > 0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_panel_nodes_hold_boundary_theta(self, ctx, alpha):
        # a panel table's node thetas are the boundary values' own bits
        table = ctx.table(alpha)
        _, _, theta = lambda_boundary_batch(ctx.model(alpha), table.mu[1:])
        assert np.array_equal(table.theta[1:], theta)

    def test_theta_nondecreasing_near_origin(self, table0, table1):
        for t in (table0, table1):
            assert np.all(np.diff(t.theta[:50]) >= -1e-15)

    @pytest.mark.parametrize("surrogate_alpha", [None, 2.0], ids=["alpha0", "surrogate2"])
    def test_slit_slope_matches_central_difference(self, table0, surrogate_table,
                                                   surrogate_alpha):
        # closed-form d theta/d mu of a slit table: alpha 0's and a surrogate's
        table = table0 if surrogate_alpha is None else surrogate_table(surrogate_alpha)
        edge = table.slit_edge
        mus = edge * np.array([1e-3, 0.05, 0.3, 0.7, 0.95, 0.999])
        h = 1e-6 * mus * (1.0 - mus / edge)
        diff = (table.theta_at(mus + h) - table.theta_at(mus - h)) / (2.0 * h)
        slope = table.theta_slope(mus)
        assert np.all(slope > 0.0)
        np.testing.assert_allclose(slope, diff, rtol=1e-7)
        assert np.all(table.theta_slope(edge * np.array([1.0, 1.5])) == 0.0)

    def test_tail_exponent_alpha_half(self, ctx):
        t = ctx.table(0.5)
        want = (0.5 - 3.0) / 0.5
        assert abs(t.tail[1] - want) <= 0.1 * abs(want)

    def test_bad_grid_rejected(self, model0):
        with pytest.raises(ConsistencyError):
            build_theta_table(model0, np.array([]))


class TestPanelTable:
    """alpha > 0 tables: Chebyshev panels in ln mu."""

    # theta_at at a head point (below the first break), two panel points and
    # one tail point beyond mu_max, and theta_slope at the first three,
    # pinned with ==: a change that moves them states the move
    PINS = {
        0.5: ([0.0001770234590760703, 1.2536743525577987, 3.141587327730094,
               3.141592653474219],
              [3.5404692021950446, 6.1093911491377035, 3.7976612913432944e-06]),
        1.0: ([0.00046233851478105835, 2.4028644505250507, 3.1389431776018166,
               3.141589386874387],
              [9.246770866219006, 3.177449259841282, 0.000752697973275756]),
    }

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_theta_pinned(self, ctx, alpha):
        table = ctx.table(alpha)
        mus = np.array([5e-5, 0.3, 7.0, 2.0 * table.mu_max])
        theta, slope = self.PINS[alpha]
        assert table.theta_at(mus).tolist() == theta
        assert table.theta_slope(mus[:3]).tolist() == slope

    def test_no_tail_where_theta_reaches_pi(self, ctx):
        # alpha 0.1: theta is pi at working precision at mu_max
        table = ctx.table(0.1)
        assert table.tail is None
        assert table.theta_at(2.0 * table.mu_max) == math.pi

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_fresh_values_within_theta_tol(self, ctx, alpha):
        # the interpolant (panels, and the closure below the first break),
        # or alpha 0's closed form, against 20,000 fresh boundary values of
        # the model, log-uniform on (1e-6, mu_max)
        table = ctx.table(alpha)
        rng = np.random.default_rng(20)
        mus = np.exp(rng.uniform(math.log(1e-6), math.log(table.mu_max), 20000))
        _, _, fresh = evaluate_boundary(ctx.model(alpha), mus)
        assert np.max(np.abs(table.theta_at(mus) - fresh)) <= 2e-8

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_boundary_value_count(self, ctx, alpha, monkeypatch):
        # the mu_max probes and every panel pass; the midpoint-refined
        # pchip tables took 4543 to 5210
        counts = []
        real = dispersion.lambda_boundary_batch

        def counting(model, mus, **kw):
            counts.append(len(np.atleast_1d(mus)))
            return real(model, mus, **kw)

        monkeypatch.setattr(dispersion, "lambda_boundary_batch", counting)
        build_theta_table(ctx.model(alpha))
        assert sum(counts) <= 400

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_one_boundary_rule_per_build(self, ctx, alpha, monkeypatch):
        # the mu_max probes and every pass share one first pass of the
        # boundary rule, and no row of a default table needs the fine pass
        builds, passes = [], []
        rule, run = quadrature.knot_rule, quadrature.KnotPv._pass
        monkeypatch.setattr(quadrature, "knot_rule",
                            lambda knots: builds.append(len(knots)) or rule(knots))
        monkeypatch.setattr(quadrature.KnotPv, "_pass",
                            lambda self, fine, *rows: passes.append(fine) or run(self, fine, *rows))
        build_theta_table(ctx.model(alpha))
        assert len(builds) == 1 and passes and not any(passes)

    def test_tail_continues_the_last_panel(self, ctx):
        table = ctx.table(1.0)
        assert table.tail[1] == -2.0
        mu = table.mu_max
        assert table.theta_at(np.nextafter(mu, np.inf)) == pytest.approx(
            table.theta_at(mu), abs=1e-14)

    def test_unresolved_panels_raise(self, ctx, monkeypatch):
        # at alpha 0.5 two of the eight first panels need a bisection
        monkeypatch.setattr(dispersion, "_MAX_PASSES", 1)
        with pytest.raises(ResolutionError, match="after 1 passes"):
            build_theta_table(ctx.model(0.5))


class TestIndex:
    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_kappa_is_minus_one(self, ctx, alpha):
        assert index_kappa(ctx.table(alpha)) == -1

    def test_degenerate_table_rejected(self, table0):
        stub = DispersionTable(samples=table0.samples[:3], alpha=0.0, slit_edge=1.0)
        with pytest.raises(ConsistencyError):
            index_kappa(stub)


@pytest.mark.parametrize("alpha,surrogate", [(0.0, False), (0.5, False), (2.0, True)],
                         ids=["alpha0", "alpha0.5", "surrogate2"])
def test_table_pickles(ctx, surrogate_table, alpha, surrogate):
    # tables are plain data: a fresh table survives a pickle round trip bit for bit
    table = surrogate_table(alpha) if surrogate else build_theta_table(ctx.model(alpha))
    loaded = pickle.loads(pickle.dumps(table))
    mus = np.concatenate([[0.0], np.geomspace(1e-6, 10.0 * table.mu_max, 2000)])
    assert np.array_equal(loaded.samples, table.samples)
    assert loaded.theta_at(mus).tobytes() == table.theta_at(mus).tobytes()
