import numpy as np
import pytest

from bosemilne import dom, quadrature
from bosemilne.dom import DomGrid, extract_k0, freq_rule, mode_sweep_residual, solve
from bosemilne.errors import ConfigurationError, ConvergenceError, ExtractionError
from bosemilne.special import einstein


@pytest.fixture(scope="module")
def small_grid0(ctx):
    return DomGrid.build(ctx.model(0.0), L=25.0, n_cells=150, n_angle=8, n_freq=8)


class TestFreqRule:
    def test_weights_sum_to_truncated_moment(self, ctx):
        nodes, weights = freq_rule(ctx.model(1.0), 48, 30.0)
        want = quadrature.integrate(lambda w: w ** 5 * einstein(w), 0.0, 30.0,
                                    1e-13, max_depth=20)
        assert weights.sum() == pytest.approx(want, rel=1e-12)
        assert np.all(weights > 0)
        assert np.all((nodes > 0) & (nodes < 30.0))

    def test_polynomial_exactness(self, ctx):
        nodes, weights = freq_rule(ctx.model(0.0), 24, 30.0)
        want = quadrature.integrate(lambda w: w ** 7 * einstein(w), 0.0, 30.0,
                                    1e-13, max_depth=20)
        assert weights @ nodes ** 3 == pytest.approx(want, rel=1e-12)


class TestGrid:
    def test_direction_weights(self, small_grid0):
        assert abs(small_grid0.v_weights.sum() - 2.0) <= 1e-12

    def test_thin_slab_warning(self, ctx):
        grid = DomGrid.build(ctx.model(1.0), L=30.0, n_cells=64, n_angle=8, n_freq=32)
        assert any("thin" in d for d in grid.diagnostics)

    def test_odd_angles_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            DomGrid.build(ctx.model(0.0), n_angle=7)

    def test_too_coarse_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            DomGrid.build(ctx.model(0.0), n_cells=4)


def _reference_sweep(sweeper, grid, S, inflow_pos, inflow_neg):
    """One loop per direction over channel-major columns, as the sweep was
    first written: the arithmetic the fused loop must reproduce bit for bit."""
    h = np.diff(grid.x_nodes)
    n = len(h)

    def cells(mu):
        tau = np.outer(1.0 / np.abs(mu), h)
        F = np.empty_like(tau)
        small = tau < 1e-4
        ts = tau[small]
        F[small] = ts * (0.5 - ts * (1.0 / 6.0 - ts / 24.0))
        tb = tau[~small]
        F[~small] = (tb - 1.0 + np.exp(-tb)) / tb
        return np.exp(-tau), F

    Ep, Fp = cells(sweeper.mu_pos)
    Em, Fm = cells(sweeper.mu_neg)
    Sl, Sr = S[:-1], S[1:]
    dS = Sr - Sl
    out = np.zeros_like(S)
    store_p = np.empty((len(sweeper.mu_pos), n + 1))
    store_m = np.empty((len(sweeper.mu_neg), n + 1))
    phi = inflow_pos
    out[0] += sweeper.cw_pos @ phi
    store_p[:, 0] = phi
    for j in range(n):
        phi = phi * Ep[:, j] + Sl[j] * (1.0 - Ep[:, j]) + dS[j] * Fp[:, j]
        out[j + 1] += sweeper.cw_pos @ phi
        store_p[:, j + 1] = phi
    phi = inflow_neg
    out[n] += sweeper.cw_neg @ phi
    store_m[:, n] = phi
    for j in range(n - 1, -1, -1):
        phi = phi * Em[:, j] + Sr[j] * (1.0 - Em[:, j]) - dS[j] * Fm[:, j]
        out[j] += sweeper.cw_neg @ phi
        store_m[:, j] = phi
    return out, store_p.T, store_m.T


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("n_cells", [77, 20])   # not a multiple of, and under, one block
def test_fused_sweep_matches_reference(ctx, alpha, n_cells):
    model = ctx.model(alpha)
    grid = DomGrid.build(model, L=20.0, n_cells=n_cells, n_angle=8, n_freq=8)
    sweeper = dom._Sweeper(model, grid)
    rng = np.random.default_rng(n_cells)
    S = grid.x_nodes + rng.normal(size=len(grid.x_nodes))
    inflow_pos = rng.normal(size=len(sweeper.mu_pos))
    inflow_neg = rng.normal(size=len(sweeper.mu_neg))
    want_out, want_p, want_m = _reference_sweep(sweeper, grid, S, inflow_pos, inflow_neg)
    out, phi_p, phi_m = sweeper.apply(S, inflow_pos, inflow_neg, keep_phi=True)
    assert np.array_equal(out, want_out)
    assert np.array_equal(phi_p, want_p)
    assert np.array_equal(phi_m, want_m)
    assert np.array_equal(sweeper.apply(S, inflow_pos, inflow_neg), want_out)


class TestModes:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("mode", ["+", "-"])
    def test_sweep_preserves_modes(self, ctx, alpha, mode):
        grid = DomGrid.build(ctx.model(alpha), L=20.0, n_cells=80, n_angle=8, n_freq=8)
        assert mode_sweep_residual(ctx.model(alpha), grid, mode) <= 1e-10


class TestSolve:
    def test_zero_gradient(self, ctx, small_grid0):
        res = solve(ctx.model(0.0), small_grid0, k=0.0)
        assert res.k0_extracted == 0.0
        assert np.abs(res.phi).max() == 0.0

    def test_small_grid_intercept(self, ctx, small_grid0):
        res = solve(ctx.model(0.0), small_grid0, k=1.0)
        assert abs(res.k0_extracted - 0.710446) <= 0.02 * 0.710446
        assert res.slope == pytest.approx(1.0, rel=1e-3)
        assert res.residual <= 1e-9 * 25.0

    def test_source_monotone_outside_layer(self, ctx, small_grid0):
        res = solve(ctx.model(0.0), small_grid0, k=1.0)
        x = small_grid0.x_nodes
        inner = (x > 2.0) & (x < 24.0)
        assert np.all(np.diff(res.source[inner]) > 0)

    def test_max_iter_exceeded(self, ctx, small_grid0):
        with pytest.raises(ConvergenceError):
            solve(ctx.model(0.0), small_grid0, k=1.0, max_iter=1)

    def test_angular_grid_convergence(self, ctx):
        # halving the angular error at least 4x per doubling
        k0 = {}
        for n in (4, 8, 16):
            grid = DomGrid.build(ctx.model(0.0), L=25.0, n_cells=150,
                                 n_angle=n, n_freq=4)
            k0[n] = solve(ctx.model(0.0), grid, k=1.0).k0_extracted
        d1 = abs(k0[4] - k0[8])
        d2 = abs(k0[8] - k0[16])
        assert d1 >= 4.0 * d2

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("k", [2.0, 0.985749])
    def test_linearity_in_k(self, ctx, alpha, k):
        # k = 2 scales exactly in floating point; 0.985749 does not, so only a
        # solve whose stopping rule scales with k keeps k0/k fixed
        grid = DomGrid.build(ctx.model(alpha), L=25.0, n_cells=150, n_angle=8, n_freq=8)
        r1 = solve(ctx.model(alpha), grid, k=1.0)
        rk = solve(ctx.model(alpha), grid, k=k)
        assert rk.k0_extracted == pytest.approx(k * r1.k0_extracted, rel=1e-9)

    @pytest.mark.parametrize("alpha,sweeps,k0", [
        (0.0, 45, 0.7102350964285854),
        (0.5, 74, 0.37656284727644646),
        (1.0, 131, 0.26401318182694666),
    ])
    def test_default_solves_pinned(self, ctx, alpha, sweeps, k0):
        # the session's default-grid solves, which criterion 10 also reads
        res = ctx.dom_result(alpha)
        assert res.iterations == sweeps
        assert res.k0_extracted == pytest.approx(k0, rel=1e-12)

    def test_alpha_two_intercept_drifts_with_slab_length(self, ctx):
        # the exact V1 integral diverges at alpha = 2, and consistently the
        # truncated-slab intercept keeps growing with L: reported, not asserted
        k0 = {}
        for L, cells in ((12.0, 160), (20.0, 240)):
            grid = DomGrid.build(ctx.model(2.0), L=L, n_cells=cells,
                                 n_angle=8, n_freq=12)
            k0[L] = solve(ctx.model(2.0), grid, k=1.0).k0_extracted
        assert k0[20.0] > k0[12.0] > 0.0


class TestExtract:
    def test_exact_linear(self):
        x = np.linspace(0, 30, 301)
        a, b = extract_k0(x, 0.7 + 1.0 * x, (18.0, 27.0), k=1.0)
        assert a == pytest.approx(0.7, abs=1e-12)
        assert b == pytest.approx(1.0, abs=1e-13)

    def test_noisy_linear(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0, 30, 301)
        s = 0.7 + x + rng.normal(0, 1e-6, x.shape)
        a, _ = extract_k0(x, s, (18.0, 27.0), k=1.0)
        assert a == pytest.approx(0.7, abs=1e-5)

    def test_window_inside_boundary_layer(self):
        x = np.linspace(0, 30, 301)
        s = 0.7 + x - 0.6 * np.exp(-x / 2.0)
        with pytest.raises(ExtractionError):
            extract_k0(x, s, (0.0, 4.0), k=1.0)

    def test_slope_mismatch(self):
        x = np.linspace(0, 30, 301)
        with pytest.raises(ExtractionError, match="slope"):
            extract_k0(x, 0.7 + 1.05 * x, (18.0, 27.0), k=1.0)

    def test_window_too_small(self):
        x = np.linspace(0, 30, 31)
        with pytest.raises(ExtractionError):
            extract_k0(x, 0.7 + x, (18.0, 18.5), k=1.0)
