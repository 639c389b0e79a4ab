import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from bosemilne import dispersion, factorization as fz, quadrature
from bosemilne.errors import DivergenceError, DomainError, RangeError

V1_MILNE = 0.7104460896  # classical half-space extrapolation constant


def n_jump_complex(data, eta):
    """n(eta) evaluated literally as -2 l0 K (1/X+ - 1/X-) / (2 pi i eta).

    Independent of the real closed form of fz.n_coefficient; its imaginary
    part must vanish by conjugate symmetry.
    """
    xp = fz.x_boundary(data, eta, "above")
    xm = fz.x_boundary(data, eta, "below")
    return -2.0 * data.model.l0_alpha * data.k * (1.0 / xp - 1.0 / xm) / (2.0j * math.pi * eta)


def n_transform(data, z):
    """N(z) = -2 l0 (K0 - K z) + C0/X(z) off the cut, with C0 = -2 l0 K."""
    c0 = -2.0 * data.model.l0_alpha * data.k
    return -2.0 * data.model.l0_alpha * (data.k0 - data.k * z) + c0 / fz.x_factor(data, z)


class TestV1:
    def test_alpha_zero_exact(self, ctx):
        est = ctx.v1(0.0)
        assert est.value == pytest.approx(V1_MILNE, abs=1e-8)
        assert est.error < 1e-8

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

    def test_independent_of_k(self, ctx, model0, table0):
        d1 = fz.build_factorization(model0, table0, k=1.0)
        d2 = fz.build_factorization(model0, table0, k=-3.5)
        assert d1.v1 == d2.v1
        assert d2.k0 == d2.v1 * -3.5


class TestVTransform:
    def test_cut_rejected(self, data0):
        with pytest.raises(DomainError):
            fz.v_transform(data0, 0.5)

    def test_conjugate_symmetry(self, data0):
        z = 0.4 + 0.9j
        assert fz.v_transform(data0, z.conjugate()) == pytest.approx(
            fz.v_transform(data0, z).conjugate(), rel=1e-12)

    def test_negative_axis_against_scipy(self, data0):
        from scipy.integrate import quad
        g = data0.table.theta_at
        want, _ = quad(lambda t: (g(t) - math.pi) / (t + 1.0),
                       0.0, data0.table.mu_max, limit=400)
        got = fz.v_transform(data0, -1.0)
        assert got.imag == 0.0
        assert got.real == pytest.approx(want / math.pi, rel=1e-8)

    def test_far_field_bound(self, data0):
        z = 1e6j
        assert abs(fz.v_transform(data0, z)) <= 2.0 * data0.v1 / 1e6


class TestXFactor:
    def test_normalisation_at_infinity(self, data0):
        z = 1e5 * cmath.exp(2.1j)
        assert abs(z * fz.x_factor(data0, z) - 1.0) <= 2e-5

    def test_conjugate_symmetry(self, data0):
        z = -0.8 + 1.1j
        assert fz.x_factor(data0, z.conjugate()) == pytest.approx(
            fz.x_factor(data0, z).conjugate(), rel=1e-12)

    def test_origin_rejected(self, data0):
        with pytest.raises(DomainError):
            fz.x_factor(data0, 0.0)

    def test_boundary_ratio_equals_lambda_ratio(self, ctx, data0):
        mu = 0.3
        xp = fz.x_boundary(data0, mu, "above")
        xm = fz.x_boundary(data0, mu, "below")
        theta = float(data0.table.theta_at(mu))
        assert xp / xm == pytest.approx(cmath.exp(2j * (theta - math.pi)), rel=1e-12)
        s = dispersion.lambda_boundary(ctx.model(0.0), mu)
        lp = complex(s.lambda_real, s.im_plus)
        assert xp / xm == pytest.approx(lp / lp.conjugate(), rel=1e-6)


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
        # one numpy pass over the spectrum_table nodes replaced a loop of
        # math.exp and math.sin, which differ from numpy's by an ulp on a few
        # nodes; an array through the slit edge is 0 beyond it
        sol = ctx.solution(alpha)
        data = sol.factorization
        amp = 2.0 * data.model.l0_alpha * data.k / math.pi
        ref = [fz.N_SIGN * amp * math.exp(-vp) * math.sin(math.pi - data.table.theta_at(e))
               for e, vp in zip(sol._etas.tolist(), sol._vps.tolist())]
        np.testing.assert_allclose(sol._ns, ref, rtol=4 * np.finfo(float).eps, atol=0.0)
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


class TestVCut:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_array_equals_per_eta(self, ctx, alpha):
        # more etas than one batch of fz.ROWS, from below the continuum table
        # to next to the end of the theta table; alpha 1 adds the tail
        model, table = ctx.model(alpha), ctx.table(alpha)
        data = fz.build_factorization(model, table, k=1.0, v1_est=ctx.v1(alpha))
        etas = np.concatenate([[1e-5, 5e-5], np.geomspace(1e-4, 0.999 * table.mu_max, 38)])
        got = fz.v_cut(data, etas)
        assert len(etas) > fz.ROWS
        assert got.tolist() == [fz.v_cut(data, float(e)) for e in etas]
        with pytest.raises(RangeError):
            fz.v_cut(data, np.array([0.5, table.mu_max]))


class TestReconstruction:
    def test_n_reproduces_cauchy_transform(self, data0):
        # N(z) from the tabulated continuum must match -2 l0 (K0 - K z) + C0/X(z)
        etas, vps, ns = fz.spectrum_table(data0)
        eni = PchipInterpolator(np.concatenate([[0.0], etas]),
                                np.concatenate([[0.0], etas * ns]))
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, 10) + 1j * np.where(rng.uniform(size=10) < 0.5, -1, 1) \
            * rng.uniform(0.4, 2.0, 10)
        for z in pts:
            z = complex(z)
            lhs = quadrature.integrate(lambda t: eni(t) / (t - z), 0.0,
                                       float(etas[-1]), 1e-10, max_depth=30)
            rhs = n_transform(data0, z)
            assert abs(lhs - rhs) <= 1e-4 * abs(rhs)

    def test_alpha_one_with_tail(self, ctx, model1, table1):
        data = fz.build_factorization(model1, table1, k=1.0, v1_est=ctx.v1(1.0))
        etas, vps, ns = fz.spectrum_table(data)
        eni = PchipInterpolator(np.concatenate([[0.0], etas]),
                                np.concatenate([[0.0], etas * ns]))
        p = table1.tail_exponent
        n_ref, eta_ref = float(ns[-1]), float(etas[-1])
        for z in (0.6 + 0.8j, -1.1 - 0.5j, 2.4 + 1.7j):
            body = quadrature.integrate(lambda t: eni(t) / (t - z), 0.0,
                                        eta_ref, 1e-10, max_depth=30)
            tail = n_ref * eta_ref ** (-p) * quadrature.integrate(
                lambda u: u ** (-p - 2.0) / (1.0 - z * u), 0.0, 1.0 / eta_ref,
                1e-10, max_depth=24)
            rhs = n_transform(data, z)
            assert abs(body + tail - rhs) <= 2e-3 * abs(rhs)
