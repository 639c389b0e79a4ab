import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from adaptive_reference import integrate, pv_reference, tail_reference
from bosemilne import dispersion, factorization as fz, field, quadrature
from bosemilne.errors import DivergenceError, DomainError, RangeError
from bosemilne.special import AlphaModel

V1_MILNE = 0.7104460896  # classical half-space extrapolation constant


def cut_nodes(table):
    """The theta table's nodes inside the cut (0, mu_max), where Vp is defined."""
    mu = table.mu
    return mu[(mu > 0.0) & (mu < table.mu_max)]


def n_jump_complex(data, eta):
    """n(eta) evaluated literally as -2 l0 K (1/X+ - 1/X-) / (2 pi i eta).

    Independent of the real closed form of fz.n_coefficient; its imaginary
    part must vanish by conjugate symmetry.
    """
    xp = fz.x_boundary(data, eta, "above")
    xm = fz.x_boundary(data, eta, "below")
    return -2.0 * data.model.l0_alpha * data.k * (1.0 / xp - 1.0 / xm) / (2.0j * math.pi * eta)


def v_reference(data, z):
    """V(z) = (1/pi) int_0^inf (theta(t) - pi)/(t - z) dt off the cut [0, inf).

    The adaptive integral to mu_max (`adaptive_reference.integrate`), split
    at Re z when that lies inside, plus the tail's closed form (tail_reference).
    """
    z, table = complex(z), data.table
    pts = [z.real] if 0.0 < z.real < table.mu_max else []
    body = integrate(lambda t: (table.theta_at(t) - math.pi) / (t - z), 0.0,
                     table.mu_max, 1e-10, max_depth=30, points=pts)
    return (body + tail_reference(data, z)[0]) / math.pi


def x_reference(data, z):
    """X(z) = (1/z) exp V(z) off the cut, V from v_reference."""
    return cmath.exp(v_reference(data, z)) / complex(z)


def n_transform(data, z):
    """N(z) = -2 l0 (K0 - K z) + C0/X(z) off the cut, with C0 = -2 l0 K."""
    c0 = -2.0 * data.model.l0_alpha * data.k
    return -2.0 * data.model.l0_alpha * (data.k0 - data.k * z) + c0 / x_reference(data, z)


class TestV1:
    @pytest.mark.parametrize("alpha, value, error", [
        (0.5, 0.37669228055802856, 1.757403809181269e-12),
        (1.0, 0.26865649209656023, 4.1665278930558144e-08),
        (1.25, 0.3136853867571443, 1.939787814985398e-06)], ids=["0.5", "1.0", "1.25"])
    def test_exact_route_pinned(self, ctx, alpha, value, error):
        # the panel integral and the tail's closed form, pinned with ==: a
        # change that moves V1 states the move
        est = ctx.v1(alpha)
        assert (est.value, est.error) == (value, error)

    def test_alpha_zero_exact(self, ctx):
        est = ctx.v1(0.0)
        assert est.value == pytest.approx(V1_MILNE, abs=1e-8)
        assert est.error < 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_slit_against_mpmath(self, ctx, surrogate_table, alpha):
        # the fixed-rule slit route at edge 1 (alpha 0) and at the saddle
        # surrogates' edges, against 30-digit mpmath: 8.6e-17, 6.2e-18 and
        # 4.2e-18 off, each inside its reported error
        mpmath = pytest.importorskip("mpmath")
        table = ctx.table(0.0) if alpha == 0.0 else surrogate_table(alpha)
        est = fz.v1_coefficient(ctx.model(alpha), table)
        with mpmath.workdps(30):
            def resid(y):
                return mpmath.pi - mpmath.atan2(mpmath.pi * y / 2, 1 - y * mpmath.atanh(y))

            want = table.slit_edge * mpmath.quad(resid, [0, 0.5, 0.9, 0.99, 1]) / mpmath.pi
            gap = abs(est.value - want)
        assert gap <= 2e-16
        assert gap <= est.error <= 1e-15

    def test_paper_rounding(self, ctx):
        assert abs(ctx.v1(0.0).value - 0.71045) <= 5e-5

    def test_small_alpha_between_its_neighbours(self, ctx):
        # alpha 0.1 and 0.25 reach theta = pi within the table (no tail); V1
        # falls from V1(0) = 0.7104 as alpha grows
        v = {a: ctx.v1(a).value for a in (0.0, 0.1, 0.25, 0.5)}
        assert v[0.0] > v[0.1] > v[0.25] > v[0.5]

    @pytest.mark.parametrize("alpha,rtol", [(0.5, 1e-9), (1.0, 1e-7)])
    def test_against_independent_reference(self, ctx, alpha, rtol):
        # bench/references.json: scipy quad of the defining integrals, no bosemilne
        refs = json.loads((Path(__file__).parents[1] / "bench" / "references.json").read_text())
        want = refs["v1"][str(alpha)]
        est = ctx.v1(alpha)
        gap = abs(est.value - want)
        assert gap <= rtol * want
        assert gap <= est.error <= 1e-6 * want

    def test_alpha_zero_needs_no_table(self, model0, table0):
        assert fz.v1_coefficient(model0) == fz.v1_coefficient(model0, table0)

    def test_divergence_flag_at_alpha_two(self, ctx, model2):
        with pytest.raises(DivergenceError, match="saddle"):
            fz.v1_coefficient(model2, ctx.table(2.0))

    def test_divergence_raised_before_any_table(self, model2, monkeypatch):
        # the tail exponent (alpha - 3)/alpha decides divergence alone
        built = []
        monkeypatch.setattr(fz, "build_theta_table", lambda *a, **kw: built.append(a))
        with pytest.raises(DivergenceError, match="tail exponent -0.5 >= -1"):
            fz.v1_coefficient(model2)
        assert built == []

    def test_pole_at_three_halves(self):
        # V1 has a simple pole at alpha = 3/2 whose residue follows from the
        # tail pi - theta = c mu^p: V1 (3/2 - alpha) -> 3c/(4 pi), c of the
        # alpha-1.5 table (0.176168; limit 0.0420570). Measured relative gap
        # 2.92e-3 / 2.92e-4 at alpha 1.499 / 1.4999, linear in 3/2 - alpha
        limit = 3.0 * dispersion.build_theta_table(AlphaModel.build(1.5)).tail[0] / (4 * math.pi)
        for alpha, bound in ((1.499, 4e-3), (1.4999, 4e-4)):
            v1 = fz.v1_coefficient(AlphaModel.build(alpha)).value
            assert abs(v1 * (1.5 - alpha) / limit - 1.0) <= bound

    def test_independent_of_k(self, ctx, model0, table0):
        d1 = fz.build_factorization(model0, table0, k=1.0)
        d2 = fz.build_factorization(model0, table0, k=-3.5)
        assert d1.v1 == d2.v1
        assert d2.k0 == d2.v1 * -3.5


class TestVTransform:
    # v_reference, on which the reconstruction tests build X(z)
    def test_negative_axis_against_scipy(self, data0):
        from scipy.integrate import quad
        g = data0.table.theta_at
        want, _ = quad(lambda t: (g(t) - math.pi) / (t + 1.0),
                       0.0, data0.table.mu_max, limit=400)
        got = v_reference(data0, -1.0)
        assert got.imag == 0.0
        assert got.real == pytest.approx(want / math.pi, rel=1e-8)

    def test_far_field_bound(self, data0):
        z = 1e6j
        assert abs(v_reference(data0, z)) <= 2.0 * data0.v1 / 1e6


class TestXFactor:
    def test_normalisation_at_infinity(self, data0):
        z = 1e5 * cmath.exp(2.1j)
        assert abs(z * x_reference(data0, z) - 1.0) <= 2e-5

    def test_boundary_ratio_equals_lambda_ratio(self, ctx, data0):
        mu = 0.3
        xp = fz.x_boundary(data0, mu, "above")
        xm = fz.x_boundary(data0, mu, "below")
        theta = float(data0.table.theta_at(mu))
        assert xp / xm == pytest.approx(cmath.exp(2j * (theta - math.pi)), rel=1e-12)
        lp = dispersion.lambda_boundary(ctx.model(0.0), mu)
        assert xp / xm == pytest.approx(lp / lp.conjugate(), rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_array_equals_scalar(self, ctx, alpha):
        # criterion 7 passes arrays of mu; a scalar still gives a complex number
        data = fz.build_factorization(ctx.model(alpha), ctx.table(alpha), k=1.0,
                                      v1_est=ctx.v1(alpha))
        mus = np.array([0.02, 0.3, 0.9])
        for side in ("above", "below"):
            got = fz.x_boundary(data, mus, side)
            want = [fz.x_boundary(data, float(m), side) for m in mus]
            assert all(type(w) is complex for w in want)
            assert got == pytest.approx(want, rel=1e-13)
        got = dispersion.lambda_boundary(ctx.model(alpha), mus)
        want = [dispersion.lambda_boundary(ctx.model(alpha), float(m)) for m in mus]
        assert all(type(w) is complex for w in want)
        assert got == pytest.approx(want, rel=1e-13)


class TestEmergentClosedForm:
    @pytest.mark.parametrize("alpha,bound", [(0.0, 1.4e-10), (0.5, 4.2e-10),
                                             (1.0, 4.5e-7), (1.25, 7.0e-6)])
    def test_profile_against_closed_form(self, ctx, alpha, bound):
        # zero inflow gives phi(0, -mu) = -K/X(-mu) = K mu e^(-V(-mu)), a
        # regular integral of theta alone; X from x_reference. Measured max
        # 8.8e-11 / 4.2e-10 / 4.5e-7 / 7.0e-6 in units of |K| (1 + V1): from
        # alpha 1 on a constant gap, the zero-inflow residual's, set by the
        # one-term continuum tail beyond eta_max
        sol = ctx.solution(alpha)
        data = sol.factorization
        end = 30.0 if alpha == 0.0 else 0.95 * sol.eta_max
        mus = np.geomspace(1e-3, end, 40)
        want = np.array([-data.k / x_reference(data, -m) for m in mus])
        assert np.all(want.imag == 0.0)
        gap = np.abs(field.evaluate(sol, 0.0, -mus) - want.real)
        assert np.max(gap) / (abs(data.k) * (1.0 + data.v1)) <= bound


class TestSpectrumCoefficient:
    def test_zero_gradient(self, ctx, model0, table0):
        data = fz.build_factorization(model0, table0, k=0.0)
        assert fz.n_coefficient(data, 0.5) == 0.0

    def test_vanishes_beyond_slit(self, data0):
        assert fz.n_coefficient(data0, 1.0) == 0.0
        assert fz.n_coefficient(data0, 3.7) == 0.0

    def test_jump_expression_is_real(self, data0):
        for eta in (0.2, 0.55, 0.9):
            nj = n_jump_complex(data0, eta)
            nc = fz.n_coefficient(data0, eta)
            assert abs(nj.imag) <= 1e-10 * abs(nj)
            assert nj.real == pytest.approx(nc, rel=1e-12)

    def test_linear_in_k(self, ctx, model0, table0):
        d1 = fz.build_factorization(model0, table0, k=1.0)
        d2 = fz.build_factorization(model0, table0, k=2.0)
        n1 = fz.n_coefficient(d1, 0.4)
        n2 = fz.n_coefficient(d2, 0.4)
        assert n2 == pytest.approx(2.0 * n1, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_array_form_against_scalar_math(self, ctx, alpha):
        # one numpy pass over the table nodes inside the cut replaced a loop
        # of math.exp and math.sin, which differ from numpy's by an ulp on a
        # few nodes; an array through the slit edge is 0 beyond it
        data = ctx.solution(alpha).factorization
        etas = cut_nodes(data.table)
        amp = 2.0 * data.model.l0_alpha * data.k / math.pi
        ref = [fz.N_SIGN * amp * math.exp(-vp) * math.sin(math.pi - data.table.theta_at(e))
               for e, vp in zip(etas.tolist(), fz.v_cut(data, etas).tolist())]
        np.testing.assert_allclose(fz.n_coefficient(data, etas), ref,
                                   rtol=4 * np.finfo(float).eps, atol=0.0)
        if alpha == 0.0:
            got = fz.n_coefficient(data, np.array([0.4, 1.0, 3.7]))
            assert got.tolist() == [fz.n_coefficient(data, 0.4), 0.0, 0.0]

    def test_domain_and_range(self, data0, ctx, model1, table1):
        with pytest.raises(DomainError):
            fz.n_coefficient(data0, -0.2)
        with pytest.raises(DomainError):
            fz.n_coefficient(data0, np.array([0.3, 0.0]))
        d1 = fz.build_factorization(model1, table1, k=1.0, v1_est=ctx.v1(1.0))
        with pytest.raises(RangeError):
            fz.n_coefficient(d1, 2.0 * table1.mu_max)


def slit_vp_mpmath(c, dps=30):
    """Vp(c) on the alpha = 0 slit (edge 1) at dps digits, for c near the edge.

    P int_0^1 g/(t - c) dt with g = arg lam_C(t + i0) - pi, split at c -+ h,
    h = (1 - c)/2: the plain integrals on either side, and the symmetric
    part int_0^h (g(c + u) - g(c - u))/u du around the pole.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        c = mp.mpf(c)
        h = (1 - c) / 2

        def g(t):
            return mp.atan2(mp.pi * t / 2, 1 - t * mp.atanh(t)) - mp.pi

        body = [mp.mpf(0), mp.mpf("0.5")]
        body += [1 - mp.mpf(10) ** -k for k in range(1, 16) if 1 - mp.mpf(10) ** -k < c - h]
        left = mp.quad(lambda t: g(t) / (t - c), body + [c - h])
        near = mp.quad(lambda u: (g(c + u) - g(c - u)) / u, [0, h / 100, h])
        right = mp.quad(lambda t: g(t) / (t - c), [c + h, c + 1.5 * h, 1])
        return float((left + near + right) / mp.pi)


class TestVCut:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_array_equals_per_eta(self, ctx, alpha):
        # etas over more than two blocks of the fixed rule's sums, from below
        # the continuum table to next to the end of the theta table; alpha 1
        # adds the tail
        model, table = ctx.model(alpha), ctx.table(alpha)
        data = fz.build_factorization(model, table, k=1.0, v1_est=ctx.v1(alpha))
        block = quadrature._PV_WORK // len(data.vp_rule.pair(False)[0])
        etas = np.concatenate([[1e-5, 5e-5],
                               np.geomspace(1e-4, 0.999 * table.mu_max, 2 * block)])
        got = fz.v_cut(data, etas)
        assert len(etas) > 2 * block
        assert got.tolist() == [fz.v_cut(data, float(e)) for e in etas]
        with pytest.raises(RangeError):
            fz.v_cut(data, np.array([0.5, table.mu_max]))

    @pytest.mark.parametrize("alpha, most", [(0.0, 70), (0.5, 32), (1.0, 30)])
    def test_knots_at_most_a_factor_two_apart(self, ctx, alpha, most):
        # 0, then table nodes from the first to mu_max, neighbours at most a
        # factor 2 apart in mu and, on the slit, in edge - mu; every panel
        # break is a knot, and the slit edge comes last. 64 / 28 / 26 knots,
        # where every table node was one (402 / 232 / 186)
        table = ctx.table(alpha)
        data = fz.build_factorization(ctx.model(alpha), table, k=1.0, v1_est=ctx.v1(alpha))
        knots = data.vp_rule._knots
        edge = table.slit_edge
        inner = knots[1:] if edge is None else knots[1:-1]
        assert knots[0] == 0.0 and inner[0] == table.mu[1] and inner[-1] == table.mu_max
        assert np.all(np.isin(inner, table.mu)) and np.all(np.diff(inner) > 0)
        assert np.all(inner[1:] <= 2.0 * inner[:-1])
        if edge is None:
            assert np.all(np.isin(table.panels.breaks, inner))
        else:
            gap = edge - inner
            assert knots[-1] == edge and np.all(gap[:-1] <= 2.0 * gap[1:])
        assert len(knots) <= most

    def test_slit_vp_does_not_follow_the_table_sampling(self, ctx, data0):
        # the slit table on twice the default nodes gives other knots but the
        # same Vp: 50 etas with 1 - eta >= 1e-4, measured within 4.4e-14
        table = dispersion.build_theta_table(
            data0.model, grid=dispersion._slit_grid(1.0, 800, 1e-4))
        data = fz.build_factorization(data0.model, table, k=1.0, v1_est=ctx.v1(0.0))
        assert len(data.vp_rule._knots) != len(data0.vp_rule._knots)
        etas = np.concatenate([np.geomspace(1e-6, 0.5, 25, endpoint=False),
                               1.0 - np.geomspace(0.5, 1e-4, 25)])
        assert np.max(np.abs(fz.v_cut(data, etas) - fz.v_cut(data0, etas))) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_against_adaptive_reference(self, ctx, alpha):
        # every table node inside the cut and 2000 seeded etas from 1e-6 to
        # mu_max; measured at most 4.3e-12 (nodes) and 4.4e-12 (random), at
        # alpha 1
        data = ctx.solution(alpha).factorization
        nodes = cut_nodes(data.table)
        rng = np.random.default_rng(11)
        etas = np.exp(rng.uniform(math.log(1e-6), math.log(data.table.mu_max), 2000))
        assert np.max(np.abs(fz.v_cut(data, nodes) - pv_reference(data, nodes))) <= 1e-10
        assert np.max(np.abs(fz.v_cut(data, etas) - pv_reference(data, etas))) <= 1e-10

    def test_slit_nodes_against_adaptive_reference(self, sol0):
        # nodes with 1 - eta >= 1e-4; measured at most 4.7e-12. Closer to the
        # edge the adaptive reference is itself up to 5.6e-4 off (see the
        # mpmath test below)
        nodes = cut_nodes(sol0.factorization.table)
        etas = nodes[1.0 - nodes >= 1e-4]
        got = fz.v_cut(sol0.factorization, etas)
        assert np.max(np.abs(got - pv_reference(sol0.factorization, etas))) <= 1e-10

    def test_pinned_alpha_one_eta(self, ctx):
        # adaptive principal values at tolerance 1e-9 were 3.05e-4 off here:
        # their stopping scale |g'(c)| mu_max loosened the tolerance
        data = ctx.solution(1.0).factorization
        eta = 6.892294976729862e-4
        assert abs(fz.v_cut(data, eta) - pv_reference(data, np.array([eta]))[0]) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_node_on_pole_takes_the_slope(self, ctx, alpha, monkeypatch):
        # an eta on a node of the first pair divides 0 by 0 there; the node
        # takes theta's slope instead, and the first pair settles the row
        data = ctx.solution(alpha).factorization
        nodes = data.vp_rule.pair(False)[0]
        eta = float(nodes[np.argmin(np.abs(nodes - 0.3))])
        redone, run = [], quadrature.KnotPv._pass

        def spy(self, fine, f_c, c, x, slope):
            if fine:
                redone.extend(c.tolist())
            return run(self, fine, f_c, c, x, slope)

        monkeypatch.setattr(quadrature.KnotPv, "_pass", spy)
        got = fz.v_cut(data, eta)
        assert redone == []
        assert abs(got - pv_reference(data, np.array([eta]))[0]) <= 1e-10

    def test_own_nodes_next_to_the_edge(self, sol0):
        # the first pair's nodes with 1 - eta < 1e-10 below mu_max: next to
        # the edge the rounded nodes of both pairs land on such a pole, in
        # the high- or the low-order rule, where 18 of 276 raised
        # AccuracyError. Every sixth against mpmath: measured 2.7e-19/(1 - eta)
        data = sol0.factorization
        nodes = data.vp_rule.pair(False)[0]
        etas = nodes[(1.0 - nodes < 1e-10) & (nodes < data.table.mu_max)]
        got = fz.v_cut(data, etas)
        assert len(etas) == 276 and np.all(np.isfinite(got))
        for eta, vp in zip(etas[::46].tolist(), got[::46].tolist()):
            assert abs(vp - slit_vp_mpmath(eta)) <= 1e-18 / (1.0 - eta)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("gap", [1e-8, 1e-10])
    def test_just_below_mu_max(self, ctx, alpha, gap):
        # the tail's pole u = 1/eta within 1e-8 of its end 1/mu_max, where
        # the adaptive tail stalled at depth 24; measured within 4.3e-16
        data = ctx.solution(alpha).factorization
        eta = data.table.mu_max - gap
        assert abs(fz.v_cut(data, eta) - pv_reference(data, np.array([eta]))[0]) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.25, 1.4])
    def test_tail_against_closed_form(self, ctx, alpha):
        # Vp's tail beyond mu_max on 50 etas up to 1e-9 mu_max below it,
        # against 2F1: measured within 5.4e-16, where the adaptive tail was
        # 6.9e-11 / 8.0e-11 off at alpha 1.25 / 1.4
        table = ctx.table(alpha)
        data = fz.build_factorization(ctx.model(alpha), table, k=1.0, v1_est=ctx.v1(alpha))
        etas = np.concatenate([np.geomspace(1e-4, 0.5 * table.mu_max, 25),
                               table.mu_max * (1.0 - np.geomspace(0.5, 1e-9, 25))])
        want = tail_reference(data, etas)
        assert np.max(np.abs(fz._tail_cauchy(data, etas) - want) / np.abs(want)) <= 1e-14

    @pytest.mark.parametrize("eta", [0.9999999999998872, 0.9999999999988711,
                                     0.9999999998561573])
    def test_slit_edge_against_mpmath(self, data0, eta):
        # continuum nodes 1.13e-13, 1.13e-12 and 1.44e-10 below the edge. Vp
        # runs to the slit edge, not to mu_max = 1 - 1e-13: theta < pi
        # between them, a piece of -7.4e-2 / -3.1e-3 / -2.3e-5 here. Left is
        # a rounding floor: the knot intervals next to the edge are a few
        # hundred ulp wide, and the error measured 2.5e-19/(1 - eta)
        assert abs(fz.v_cut(data0, eta) - slit_vp_mpmath(eta)) <= 1e-18 / (1.0 - eta)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_fine_pair_agrees(self, ctx, alpha, monkeypatch):
        # no eta tried needs the fine pass; forced on every row, it gives the
        # first pass's values (measured within 1.1e-14)
        data = ctx.solution(alpha).factorization
        etas = np.geomspace(1e-6, 0.99 * data.table.mu_max, 25)
        want = fz.v_cut(data, etas)
        pair = quadrature.KnotPv.pair
        monkeypatch.setattr(quadrature.KnotPv, "pair", lambda self, fine: pair(self, True))
        assert np.max(np.abs(fz.v_cut(data, etas) - want)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_no_adaptive_principal_value(self, ctx, alpha, monkeypatch):
        data = ctx.solution(alpha).factorization
        calls = []
        monkeypatch.setattr(quadrature, "pv_rows", lambda *a, **k: calls.append(1))
        fz.spectrum_table(data)
        fz.v_cut(data, np.array([1e-5, 0.3, 0.5 * data.table.mu_max]))
        assert calls == []


class TestReconstruction:
    def test_n_reproduces_cauchy_transform(self, sol0):
        # N(z) from the tabulated continuum must match -2 l0 (K0 - K z) + C0/X(z)
        data0 = sol0.factorization
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, 10) + 1j * np.where(rng.uniform(size=10) < 0.5, -1, 1) \
            * rng.uniform(0.4, 2.0, 10)
        for z in pts:
            z = complex(z)
            lhs = integrate(lambda t: sol0.eta_n(t) / (t - z), 0.0,
                            sol0.eta_max, 1e-10, max_depth=30)
            rhs = n_transform(data0, z)
            assert abs(lhs - rhs) <= 1e-4 * abs(rhs)

    def test_alpha_one_with_tail(self, ctx, table1):
        sol = ctx.solution(1.0)
        data = sol.factorization
        _, p = table1.tail
        eta_ref = sol.eta_max
        n_ref = float(sol.eta_n(np.array([eta_ref]))[0]) / eta_ref
        for z in (0.6 + 0.8j, -1.1 - 0.5j, 2.4 + 1.7j):
            body = integrate(lambda t: sol.eta_n(t) / (t - z), 0.0,
                             eta_ref, 1e-10, max_depth=30)
            tail = n_ref * eta_ref ** (-p) * integrate(
                lambda u: u ** (-p - 2.0) / (1.0 - z * u), 0.0, 1.0 / eta_ref,
                1e-10, max_depth=24)
            rhs = n_transform(data, z)
            assert abs(body + tail - rhs) <= 2e-3 * abs(rhs)
