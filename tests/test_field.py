import dataclasses
import math

import numpy as np
import pytest

from adaptive_reference import pv_reference
from bosemilne import dispersion, factorization as fz, field, quadrature
from bosemilne.errors import AccuracyError, DomainError, RangeError
from bosemilne.field import (MilneSolution, boundary_residual, evaluate,
                             mode_equation_residual, solve_milne)


def spy_redo(monkeypatch, rule) -> list:
    """Record the (x, pole) of every row the first pass of a `quadrature.KnotPv`
    (a solution's continuum integral, or Vp's rule) hands to the fine pass."""
    redone = []
    real = quadrature.KnotPv._pass

    def spy(self, fine, f_c, c, x, slope):
        if fine and self is rule:
            redone.extend(zip(x.tolist(), c.tolist()))
        return real(self, fine, f_c, c, x, slope)

    monkeypatch.setattr(quadrature.KnotPv, "_pass", spy)
    return redone


def first_pair_nodes(sol, near) -> list:
    """The nodes of the first pair of sol's continuum rule closest to each of `near`."""
    nodes = sol.eta_n_rule.pair(False)[0]
    return [float(nodes[np.argmin(np.abs(nodes - m))]) for m in near]


def adaptive_integral(sol, x, mu, tol):
    """The tabulated part of the continuum integral by adaptive quadrature at tolerance tol.

    The reference for the fixed rules: principal-value rows (0 < mu <
    eta_max) by quadrature.pv_rows, one call per x, and the other rows by one
    integrate_rows call.
    """
    b = sol.eta_max

    def f(eta, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return sol.eta_n(eta) * np.exp(-np.where(eta > 0, x / eta, np.inf))

    out = np.empty(mu.shape)
    pv = (0.0 < mu) & (mu < b)
    for x0 in np.unique(x[pv]).tolist():
        rows = pv & (x == x0)
        out[rows] = quadrature.pv_rows(lambda eta: f(eta, x0), mu[rows], 0.0, b, tol,
                                       max_depth=30)
    if not np.all(pv):
        n = int(np.sum(~pv))
        out[~pv], _ = quadrature.integrate_rows(
            lambda eta, x, mu: f(eta, x) / (eta - mu), np.zeros(n), np.full(n, b), tol,
            params=(x[~pv], mu[~pv]), max_depth=30,
            scale=float(np.max(np.abs(sol.panels.coeffs).sum(axis=1))))
    return out


def reference_gap(sol, x, mu, tol):
    """max |continuum integral - adaptive reference at tol| in units of |K| (1 + V1) of phi."""
    data = sol.factorization
    x, mu = (np.atleast_1d(np.asarray(v, dtype=float)) for v in np.broadcast_arrays(x, mu))
    ref = adaptive_integral(sol, x, mu, tol) + field._continuum_tail(sol, x, mu)
    dev = np.abs(field._continuum_integral(sol, x, mu) - ref) / (2.0 * data.model.l0_alpha)
    return float(np.max(dev)) / (abs(data.k) * (1.0 + data.v1))


class TestDiscreteModes:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("mode", ["+", "-"])
    def test_equation_residual(self, ctx, alpha, mode):
        assert mode_equation_residual(ctx.model(alpha), mode) <= 1e-10


class TestEvaluate:
    def test_negative_x_rejected(self, sol0):
        with pytest.raises(DomainError):
            evaluate(sol0, -0.1, 0.5)

    @pytest.mark.parametrize("x,mu", [
        (math.nan, 0.5), (0.5, math.nan), (1.0, math.inf), (1.0, -math.inf), (math.inf, 0.5),
        (np.array([0.0, 1.0]), np.array([0.5, math.nan])),
    ])
    def test_non_finite_rejected_before_integration(self, sol0, monkeypatch, x, mu):
        # NaN used to bisect to depth 30 and mu = +-inf to return -+inf
        calls = []
        monkeypatch.setattr(field, "_continuum_integral", lambda *a: calls.append(1))
        with pytest.raises(DomainError, match="finite"):
            evaluate(sol0, x, mu)
        assert not calls

    def test_zero_gradient_solution_is_zero(self, ctx, table0):
        sol = solve_milne(ctx.model(0.0), k=0.0, table=table0)
        for x, mu in ((0.0, 0.3), (1.0, -0.3), (5.0, 0.9)):
            assert evaluate(sol, x, mu) == 0.0
        assert boundary_residual(sol) == 0.0

    def test_far_field_asymptote(self, sol0):
        mu = -0.5
        data = sol0.factorization
        for x in (5.0, 10.0, 20.0):
            dev = abs(evaluate(sol0, x, mu) - (data.k0 + data.k * (x - mu)))
            assert dev <= math.exp(-x)  # continuum support ends at eta = 1

    def test_boundary_value_near_zero(self, sol0):
        val = evaluate(sol0, 0.0, 0.5)
        assert abs(val) <= 1e-3 * (1.0 + sol0.factorization.v1)

    def test_slit_edge_regularity(self, sol0):
        # alpha = 0, mu > 1: no continuum delta mode, value stays finite
        val = evaluate(sol0, 0.5, 1.5)
        assert math.isfinite(val)
        data = sol0.factorization
        no_delta = data.k0 + data.k * (0.5 - 1.5) + \
            field._continuum_integral(sol0, 0.5, 1.5) / (2 * data.model.l0_alpha)
        assert val == pytest.approx(no_delta, rel=1e-12)

    @pytest.mark.parametrize("mu,h", [(-1.0, 2.907809), (0.0, 1.0)])
    def test_emergent_distribution(self, sol0, mu, h):
        # one-speed Milne problem: phi(0, -m) = K H(m) / sqrt(3), with
        # Chandrasekhar's H(1) = 2.907809 and H(0) = 1
        want = sol0.factorization.k * h / math.sqrt(3.0)
        tol = 1e-5 * (1.0 + sol0.factorization.v1)
        assert abs(evaluate(sol0, 0.0, mu) - want) <= tol

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("mu", [5e-5, 1e-5])
    def test_zero_inflow_below_continuum_table(self, ctx, alpha, mu):
        # 0 < mu < eta_min = 1e-4: Vp comes from v_cut, not the Vp table
        sol = ctx.solution(alpha)
        assert mu < sol.eta_min
        val = evaluate(sol, 0.0, mu)
        assert abs(val) <= 1e-5 * abs(sol.factorization.k) * (1.0 + sol.factorization.v1)

    def test_linearity_in_k(self, ctx, table0):
        sol1 = solve_milne(ctx.model(0.0), k=1.0, table=table0)
        sol2 = solve_milne(ctx.model(0.0), k=-2.0, table=table0)
        for x, mu in ((0.0, 0.4), (1.0, -0.7), (3.0, 0.2)):
            assert evaluate(sol2, x, mu) == pytest.approx(
                -2.0 * evaluate(sol1, x, mu), rel=1e-10, abs=1e-12)


    @pytest.mark.parametrize("alpha,mus", [
        # mu < 0, mu = 0, below the table, principal values, beyond the slit
        (0.0, [-0.7, 0.0, 5e-5, 0.3, 0.97, 1.5]),
        # the same with the algebraic tail, up to mu = 20 < eta_max
        (0.5, [-0.7, 0.0, 5e-5, 0.3, 20.0]),
        (1.0, [-0.7, 0.0, 5e-5, 0.3, 20.0]),
        # 40 points, every one with the algebraic tail, in one batch
        (0.5, [-2.0, -0.7, -1e-3, 0.0, 5e-5, 0.02, 0.3, 0.9, 2.0, 20.0]),
    ])
    def test_array_equals_pointwise(self, ctx, alpha, mus):
        # x = 1e-3 keeps the delta term of mu = 5e-5 (x/mu = 20); x = 0.5
        # drops it (x/mu > 50)
        sol = ctx.solution(alpha)
        x, mu = (g.ravel() for g in np.meshgrid([0.0, 1e-3, 0.5, 3.0], mus, indexing="ij"))
        got = evaluate(sol, x, mu)
        want = [evaluate(sol, float(a), float(b)) for a, b in zip(x, mu)]
        assert isinstance(want[0], float)
        assert got.tolist() == want

    def test_mixed_fallback_batch_equals_pointwise(self, sol0, monkeypatch):
        # mu on a node of the first fixed rule next to 0.64, 0.7 and 0.79:
        # 0/0 there, so the fine pass takes those rows, and one batch holds
        # fine-pass and first-pass rows
        redone = spy_redo(monkeypatch, sol0.eta_n_rule)
        m1, m2, m3 = first_pair_nodes(sol0, [0.64, 0.7, 0.79])
        x, mu = (g.ravel() for g in np.meshgrid(
            [0.0, 0.5], [0.3, m1, -0.5, m2, 0.5, m3, 1.5], indexing="ij"))
        got = evaluate(sol0, x, mu)
        assert sorted(redone) == [(x0, m) for x0 in (0.0, 0.5) for m in (m1, m2, m3)]
        want = [evaluate(sol0, float(a), float(b)) for a, b in zip(x, mu)]
        assert got.tolist() == want

    def test_redo_rows_take_no_adaptive_quadrature(self, sol0, monkeypatch):
        # the batch above, rows redone included, with every adaptive routine
        # of quadrature counted: at alpha 0 (no algebraic tail) there are none
        calls = []
        for name in ("pv_rows", "integrate_rows", "integrate_with_error"):
            monkeypatch.setattr(quadrature, name, lambda *a, _n=name, **k: calls.append(_n))
        redone = spy_redo(monkeypatch, sol0.eta_n_rule)
        evaluate(sol0, np.array([0.0, 0.0, 0.0, 0.5]),
                 np.array(first_pair_nodes(sol0, [0.64, 0.7, 0.79]) + [0.3]))
        assert len(redone) == 3 and calls == []

    def test_range_checked_before_integration(self, ctx, sol0, monkeypatch):
        # mu = 1 (alpha 0): the continuum integrand diverges like a log-log;
        # mu > eta_max (alpha 0.5): the tail has its pole inside its integral;
        # mu = mu_max (alpha 0.1, no tail): v_cut gives no Vp there, while
        # mu = 29.9 beyond eta_max passes
        sol05, sol01 = ctx.solution(0.5), ctx.solution(0.1)
        calls = []
        monkeypatch.setattr(quadrature, "integrate_rows", lambda *a, **k: calls.append(1))
        monkeypatch.setattr(quadrature, "knot_pv_sums", lambda *a, **k: calls.append(1))
        with pytest.raises(RangeError, match="slit edge"):
            evaluate(sol0, 0.0, np.array([0.5, 0.75, 1.0]))
        with pytest.raises(RangeError, match="tail"):
            evaluate(sol05, np.array([0.0, 5.0]), 40.0)
        with pytest.raises(RangeError, match="no Vp"):
            evaluate(sol01, 0.0, np.array([29.9, sol01.factorization.table.mu_max]))
        assert not calls


class TestContinuumPanels:
    """eta n(eta) as Chebyshev panels against fresh values of n_coefficient."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_fresh_values(self, ctx, alpha, monkeypatch):
        # 500 points geometric in the panel variable x (up to 1.13e-13 below
        # the alpha-0 edge), each within 10 times its panel's last three
        # coefficients plus Vp's own accuracy, 1e-12 max |eta n|, plus next
        # to the edge 1e-16/(1 - eta) relative: there the rounded Lobatto
        # points sit up to 1.1e-16/(1 - eta) off in ln(1 - eta), and Vp has
        # its floor (measured 2.0e-17/(1 - eta)). Measured at most 9.6e-14 /
        # 3.5e-13 / 7.9e-12 of max |eta n| up to 1 - 1e-6 / eta_max / eta_max.
        # At alpha > 0 the fresh Vp is the adaptive reference, one call for
        # all points: the fixed rule is 7.5e-13 off it 4.4e-6 from one of its
        # nodes at alpha 1, where the panels are 5e-13 off. At alpha 0 it
        # stays v_cut, as the reference keeps 1e-4 from the slit edge
        sol = ctx.solution(alpha)
        data, coeffs = sol.factorization, sol.panels.coeffs
        breaks, edge = data.continuum_breaks, data.table.slit_edge or math.inf
        x = np.geomspace(*data.table.panel_x(breaks[[0, -1]]), 500)
        eta = np.clip(data.table.panel_mu(x), breaks[0], breaks[-1])
        if alpha > 0.0:
            monkeypatch.setattr(fz, "v_cut", pv_reference)
        fresh = eta * fz.n_coefficient(data, eta)
        panel = np.clip(np.searchsorted(breaks, eta, "right") - 1, 0, len(coeffs) - 1)
        bound = (10.0 * np.abs(coeffs[:, -3:]).max(axis=1)[panel]
                 + 1e-12 * np.max(np.abs(fresh)) + 1e-16 / (edge - eta) * np.abs(fresh))
        assert np.all(np.abs(sol.eta_n(eta) - fresh) <= bound)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_line_below_the_first_break(self, ctx, alpha):
        # below eta_min = 1e-4 eta n is the line from 0 to the first panel
        # value; measured within 5.7e-4 / 1.2e-3 / 2.7e-3 of fresh values
        # from 1e-7 on
        sol = ctx.solution(alpha)
        eta = np.geomspace(1e-7, sol.eta_min, 50, endpoint=False)
        fresh = eta * fz.n_coefficient(sol.factorization, eta)
        assert np.all(np.abs(sol.eta_n(eta) - fresh) <= 5e-3 * np.abs(fresh))
        assert sol.eta_n(np.array([0.0])).tolist() == [0.0]

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_knots_keep_every_break(self, ctx, alpha):
        # the field's continuum rule has Vp's knot rule: ratios of at most 2
        # in eta and, on the slit, in 1 - eta, with every panel break a knot
        sol = ctx.solution(alpha)
        knots = sol.eta_n_rule._knots
        breaks = sol.factorization.continuum_breaks
        assert knots[0] == 0.0 and knots[1] == sol.eta_min and knots[-1] == sol.eta_max
        assert np.all(np.isin(breaks, knots)) and np.all(knots[2:] <= 2.0 * knots[1:-1])
        if alpha == 0.0:
            gap = 1.0 - knots[1:]
            assert np.all(gap[:-1] <= 2.0 * gap[1:])

    @pytest.mark.parametrize("nodes,panels", [(60, 3), (400, 17), (800, 35)])
    def test_slit_panels_follow_the_grid(self, ctx, nodes, panels):
        # equal panels in the slit grid's variable, about 23 grid intervals
        # each, from the first node to the last below mu_max: criterion 9's
        # 60-node grid gives a coarser continuum than the default 400 nodes
        table = dispersion.build_theta_table(ctx.model(0.0),
                                             dispersion._slit_grid(1.0, nodes, 1e-4))
        data = fz.build_factorization(ctx.model(0.0), table, k=1.0, v1_est=ctx.v1(0.0))
        breaks = data.continuum_breaks
        assert len(breaks) == panels + 1
        assert breaks[0] == table.mu[1] and breaks[-1] == table.mu[-2]
        s = np.log(table.panel_x(breaks))  # to the rounding of eta next to the edge
        dev = np.abs(s - np.linspace(s[0], s[-1], panels + 1))
        assert np.all(dev <= 1e-13 + 4.0 * np.finfo(float).eps / (1.0 - breaks))


class TestFixedRule:
    """The field's continuum integral by the fixed rule on each knot interval."""

    @pytest.mark.parametrize("alpha,mus", [
        # mu < 0, mu = 0, below the table, principal values, beyond the slit
        (0.0, [-0.7, -1e-3, 0.0, 5e-5, 0.02, 0.3, 0.6, 0.97, 0.9999, 1.5]),
        (0.5, [-0.7, -1e-3, 0.0, 5e-5, 0.02, 0.3, 0.6, 0.9, 2.0, 20.0]),
        (1.0, [-0.7, -1e-3, 0.0, 5e-5, 0.02, 0.3, 0.6, 0.9, 2.0, 20.0]),
    ])
    def test_against_tight_reference(self, ctx, alpha, mus):
        # adaptive quadrature of the same interpolant at tolerance 1e-12:
        # measured at most 3.1e-12 |K| (1 + V1) on these points
        x, mu = (g.ravel() for g in np.meshgrid([0.0, 1e-3, 0.5, 3.0], mus, indexing="ij"))
        assert reference_gap(ctx.solution(alpha), x, mu, 1e-12) <= 1e-10

    def test_node_on_pole_falls_back(self, sol0, monkeypatch):
        # a principal value whose pole is a node of the 16-point rule divides
        # by zero there: its estimate is NaN, and the fine pass takes the row
        redone = spy_redo(monkeypatch, sol0.eta_n_rule)
        mu = first_pair_nodes(sol0, [0.5])[0]
        val = evaluate(sol0, 1.0, mu)
        assert redone == [(1.0, mu)] and math.isfinite(val)
        assert reference_gap(sol0, 1.0, mu, 1e-12) <= 1e-10

    def test_fine_rule_inside_the_first_interval(self, ctx, monkeypatch):
        # x and mu about eta_1 / 100: e^{-x/eta} turns over inside [0, eta_1 =
        # 1e-4], which the fine pass grades. Adaptive quadrature at tolerance
        # 1e-9 is 2e-7 off here
        sol = ctx.solution(1.0)
        redone = spy_redo(monkeypatch, sol.eta_n_rule)
        assert reference_gap(sol, 6.44e-7, 6.59e-7, 1e-13) <= 1e-10
        assert redone == [(6.44e-7, 6.59e-7)]

    def test_fine_rule_on_a_coarse_table(self, ctx, monkeypatch):
        # criterion 9's 60-node slit table, whose continuum is 3 panels: the
        # first pair's estimate misses its tolerance at x = 0 for mu from
        # about 0.19 to 0.22
        coarse = dispersion.build_theta_table(ctx.model(0.0),
                                              dispersion._slit_grid(1.0, 60, 1e-4))
        sol = solve_milne(ctx.model(0.0), k=1.0, table=coarse)
        redone = spy_redo(monkeypatch, sol.eta_n_rule)
        assert reference_gap(sol, 0.0, 0.22, 1e-12) <= 1e-10
        assert redone == [(0.0, 0.22)]

    @pytest.mark.parametrize("alpha", [0.1, 0.25])
    def test_fine_pass_at_small_alpha(self, ctx, alpha, monkeypatch):
        # the first pass misses Vp and phi(0, mu) rows here, and the fine
        # pass settles them: 120 / 49 of the 120 etas and 400 / 379 of the
        # 400 mu at alpha 0.1 / 0.25. Measured: Vp within 1.01e-11 / 1.43e-12
        # of the adaptive reference, and |phi(0, mu)| at most 9.35e-11 /
        # 1.27e-10 of |K| (1 + V1)
        sol = ctx.solution(alpha)
        data = sol.factorization
        vp_redone = spy_redo(monkeypatch, data.vp_rule)
        field_redone = spy_redo(monkeypatch, sol.eta_n_rule)
        etas = np.geomspace(1e-3, 0.9 * data.table.mu_max, 120)
        assert np.max(np.abs(fz.v_cut(data, etas) - pv_reference(data, etas))) <= 5e-11
        mus = np.geomspace(2e-3, 0.95 * sol.eta_max, 400)
        res = np.abs(evaluate(sol, 0.0, mus)) / (abs(data.k) * (1.0 + data.v1))
        assert np.max(res) <= 5e-10
        assert len(vp_redone) >= 40 and len(field_redone) >= 300

    def test_row_the_fine_rule_cannot_settle(self, sol0):
        # 2.1e-13 beyond the end of the alpha-0 table, where evaluate's range
        # check stops first (it keeps 2e-6 from the slit edge): the pole is too
        # close to the last knot interval for either rule
        with pytest.raises(AccuracyError, match="fine rule") as exc:
            field._continuum_integral(sol0, np.array([0.5, 0.0]), np.array([0.3, 1.0 + 1e-13]))
        assert math.isfinite(exc.value.best) and exc.value.bound > 1e-9 * abs(exc.value.best)

    def test_fallback_rows_on_profile_grid(self, sol0, monkeypatch):
        # an alpha-0 31 x 33 grid like the profile benchmark's and its
        # emergent distribution: every row settles on the first fixed rule
        # (3 of 1023 did not on the pchip of the continuum table)
        redone = spy_redo(monkeypatch, sol0.eta_n_rule)
        x, mu = (g.ravel() for g in np.meshgrid(np.linspace(0.0, 20.0, 31),
                                                np.linspace(0.01, 0.97, 33), indexing="ij"))
        evaluate(sol0, x, mu)
        evaluate(sol0, 0.0, np.linspace(-1.0, 0.0, 21))
        assert redone == []


class TestPinnedBits:
    """v_cut and evaluate at a few points of the default solutions, pinned with ==.

    Vp by the fixed rule and the tail, and phi at x = 0 (the undamped sum),
    x > 0 (the damped one), beyond the slit and with the algebraic tail. A
    change that moves any of these values states the move.
    """

    PINS = {
        0.0: ([1e-5, 0.3, 0.9, 0.999],
              [-10.963551081993138, -0.13643641041986126, 1.8204344969355315,
               2.7803106556886465],
              [(0.0, 0.3), (0.5, -0.7), (1e-3, 5e-5), (0.5, 1.5)],
              [-8.560929742884582e-13, 1.8972761598902206, 0.5799629601312097,
               -0.26770392363714524]),
        0.5: ([1e-5, 0.3, 2.0, 20.0],
              [-10.244467147783613, 0.9581881363009902, 0.22348590521408324,
               0.01909641165012234],
              [(0.0, 0.3), (0.5, -0.7), (1e-3, 5e-5), (3.0, 20.0)],
              [2.053991698947044e-11, 1.5686260815068023, 0.28389574611422075,
               0.2652994892752183]),
        1.0: ([1e-5, 0.3, 2.0, 20.0],
              [-9.539301171484006, 0.67528100119107, 0.1507726465776523,
               0.013865624368131883],
              [(0.0, 0.3), (0.5, -0.7), (1e-3, 5e-5), (3.0, 20.0)],
              [5.647482829163053e-07, 1.439669263939752, 0.1418732313341741,
               0.24758918494114823]),
    }

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_values_pinned(self, ctx, alpha):
        etas, vps, points, phis = self.PINS[alpha]
        sol = ctx.solution(alpha)
        assert fz.v_cut(sol.factorization, np.array(etas)).tolist() == vps
        x, mu = np.array(points).T
        assert evaluate(sol, x, mu).tolist() == phis


class TestCallCounts:
    """Deterministic cost guards: integrand calls, not time.

    The field reads its interpolant once per solution at each fixed rule's
    nodes and once per call at the principal-value poles; rows the first
    pass cannot settle read it once more at their poles, and the fine pass's
    nodes once per solution. v_cut reads theta once at its poles, and once
    per factorisation at the nodes of its fixed rule. One adaptive quadrature per value made
    about 130 calls per field point and 80 per Vp node. The fine pass has
    24 nodes on each of its intervals.
    """

    class Counting:
        def __init__(self, fn):
            self.fn, self.calls = fn, 0

        def __call__(self, *args):
            self.calls += 1
            return self.fn(*args)

    def test_field_row(self, sol0, monkeypatch):
        # one 33-point mu row at fixed x: the nodes and the poles, 2 calls
        # (the lockstep adaptive field made 53)
        sol, calls, value = dataclasses.replace(sol0), [], quadrature.ChebPanels.value
        monkeypatch.setattr(quadrature.ChebPanels, "value",
                            lambda self, x: calls.append(1) or value(self, x))
        evaluate(sol, 1.0, np.linspace(0.01, 0.97, 33))
        assert len(calls) <= 2

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_fine_pass_nodes(self, ctx, alpha):
        # the 16/8 pair on the knots with 8 more below knots[1], every
        # interval bisected (the 64/48 pair on the knots took 112 per interval)
        sol = ctx.solution(alpha)
        for rule in (sol.eta_n_rule, sol.factorization.vp_rule):
            assert len(rule.pair(True)[0]) == 24 * 2 * (len(rule._knots) - 1 + 8)

    def test_spectrum_table(self, data0):
        # 400 nodes at alpha 0: Vp's poles and rule nodes, then n's nodes (the
        # lockstep adaptive principal values made about 350 calls)
        table = dataclasses.replace(data0.table)
        spy = table.__dict__["theta_at"] = self.Counting(data0.table.theta_at)
        fz.spectrum_table(dataclasses.replace(data0, table=table))
        assert spy.calls <= 3


class TestBoundaryResidual:
    def test_default_grid_level(self, sol0):
        assert boundary_residual(sol0) <= 1e-3

    @staticmethod
    def tail_pipeline_residual(ctx, alpha):
        # exercises the algebraic-tail branches of Vp, n, and the eta integral
        sol = ctx.solution(alpha)
        assert sol.factorization.k0 == pytest.approx(ctx.v1(alpha).value, rel=1e-12)
        return boundary_residual(sol)

    def test_alpha_one_pipeline(self, ctx):
        # measured 7.9e-7, what the tail beyond eta_max leaves; 1.6e-6 on the
        # pchip of eta n, 1.5e-5 while the delta term read Vp from a pchip
        # of the continuum nodes
        assert self.tail_pipeline_residual(ctx, 1.0) <= 2e-6

    def test_alpha_half_pipeline(self, ctx):
        # measured 4.3e-10; 2.3e-6 on the pchip of eta n, 1.3e-5 with the
        # pchip of Vp
        assert self.tail_pipeline_residual(ctx, 0.5) <= 1e-9

    def test_alpha_one_and_a_quarter_pipeline(self, ctx):
        # measured 9.2e-6 (1.4e-5 on the pchip of eta n); the continuum
        # tail's integrand u^(-p-2) is singular at u = 0 here, and power_tail
        # integrates its Taylor head there in closed form
        assert self.tail_pipeline_residual(ctx, 1.25) <= 2e-5

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_zero_inflow_on_3000_points(self, ctx, alpha):
        # |phi(0, mu)| / (|K| (1 + V1)) on geometric mu up to 0.99 (alpha 0)
        # or 0.95 eta_max. Measured median 3.4e-12 / 1.6e-11 / 4.5e-7 and max
        # 7.7e-11 / 2.0e-10 / 7.9e-7 at alpha 0 / 0.5 / 1; at alpha 1 the
        # tail beyond eta_max sets both. On a pchip of eta n(eta) the max was
        # 1.28e-5 / 1.60e-5 / 3.05e-5, and the delta term on a pchip of Vp
        # gave medians of 2.7e-7 / 1.3e-6 / 1.6e-6
        med, worst = {0.0: (1e-11, 2e-10), 0.5: (5e-11, 5e-10), 1.0: (1e-6, 2e-6)}[alpha]
        sol = ctx.solution(alpha)
        data = sol.factorization
        end = 0.99 if alpha == 0.0 else 0.95 * sol.eta_max
        res = np.abs(evaluate(sol, 0.0, np.geomspace(0.002, end, 3000)))
        res /= abs(data.k) * (1.0 + data.v1)
        assert np.median(res) <= med and np.max(res) <= worst

    @pytest.mark.parametrize("alpha", [0.1, 0.2])
    def test_zero_inflow_beyond_continuum_table(self, ctx, alpha):
        # no algebraic tail here, so mu in (eta_max, mu_max) = (mu_max (1 -
        # 1e-8), mu_max) takes Vp from v_cut. Measured median 5.7e-14 /
        # 8.1e-14 and max 2.0e-13 / 2.2e-13 at alpha 0.1 / 0.2, down to 1e-9
        # from either end and at the last float below mu_max (max 1.45e-9 /
        # 1.54e-9 on the pchip of eta n)
        sol = ctx.solution(alpha)
        data = sol.factorization
        lo, hi = sol.eta_max, data.table.mu_max
        mus = np.concatenate([[lo + 1e-9], np.linspace(lo, hi, 52)[1:-1],
                              [hi - 1e-9, np.nextafter(hi, 0.0)]])
        res = np.abs(evaluate(sol, 0.0, mus)) / (abs(data.k) * (1.0 + data.v1))
        assert np.median(res) <= 2.5e-13 and np.max(res) <= 1e-12

    @pytest.mark.parametrize("alpha,worst", [(0.5, 5e-10), (1.0, 2e-6)])
    def test_zero_inflow_just_below_eta_max(self, ctx, alpha, worst):
        # the continuum tail's pole u = 1/mu up to 1e-10 eta_max beyond its
        # end 1/eta_max, where an adaptive tail stalled at depth 24; measured
        # 8.1e-11 / 8.9e-7, the bounds of the 3000-point test
        sol = ctx.solution(alpha)
        data = sol.factorization
        mus = sol.eta_max * (1.0 - np.array([1e-6, 1e-8, 1e-10]))
        res = np.abs(evaluate(sol, 0.0, mus)) / (abs(data.k) * (1.0 + data.v1))
        assert np.max(res) <= worst

    def test_sign_flip_detector(self, sol0):
        panels = dataclasses.replace(sol0.panels, coeffs=-sol0.panels.coeffs)
        flipped = MilneSolution(factorization=sol0.factorization, panels=panels)
        assert boundary_residual(flipped) > 0.1

    def test_invariant_k0_over_k(self, sol0):
        data = sol0.factorization
        assert data.k0 / data.k == data.v1
        assert np.all(np.diff(data.continuum_breaks) > 0)
