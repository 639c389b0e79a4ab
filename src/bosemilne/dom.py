"""Discrete-ordinates cross-check of the analytic temperature jump.

Solves the dimensionless transport equation

    v d(phi)/dx + w^a phi = w^a S(x),
    S(x) = (1/(2 l0)) int w^(a+4) E(w) dw int_-1^1 phi(x, v', w') dv'

on a truncated slab [0, L] with zero inflow at x = 0 and the asymptotic state
K0 + K (x - v/w^a) imposed as inflow at x = L, K0 being the intercept of the
interior linear fit of S (Marshak-style closure). The source
S is isotropic and frequency-independent, so the far field is S(x) = K0 + Kx
exactly and the intercept of the interior fit is the temperature jump.

Discretisation: Gauss-Legendre directions on (-1, 1); frequency nodes from a
generalised Gauss rule built for the weight w^(a+4) E(w) by the discretised
Stieltjes procedure (the weight is absorbed into the quadrature weights, so
the source reduction is a plain ordered dot product and bit-reproducible).
Spatial cells grow geometrically from the boundary and each sweep uses the
integrating-factor (exponential) update with a linear-in-cell source, which
is exact for both discrete modes and keeps optically thick high-frequency
cells positive. A channel is one rate mu = v / w^a: (direction, frequency)
pairs of equal rate carry the same phi, so they merge into one channel with
their summed source weight. At alpha = 0 the rate is v alone (the grey
problem), so a direction has n_angle / 2 channels instead of
n_angle / 2 * n_freq; at alpha > 0 no two rates are equal. The direction
rule is a mirror bit for bit, so each negative channel is a positive one run
over the cells in reverse (the +- symmetry of discrete ordinates): the cell
arrays are stored once, cells x channels for the positive channels, and the
negative channels read them in reversed cell order. Both directions advance
in one cell loop, three in-place numpy calls and two dot products per cell:
2 ms per sweep on the default grid at alpha = 0 (600 cells, 2 x 16
channels) and 9 ms at alpha > 0 (2 x 768 channels), one BLAS thread.

The far-end intercept is a fixed linear functional of S (the intercept row of
the fit-window least-squares pseudo-inverse), so one sweep is affine in S and
its fixed point solves a linear system of len(x_nodes) unknowns; with
conservative scattering the plain iteration contracts only like 1 - O(1/L^2),
too slow at L = 30. `solve` assembles the sweep's linear map once and
LU-solves the system, with a right-hand side in closed form: one sweep (the
check), and 0.02 s at alpha = 0 and 0.06-0.07 s at alpha > 0 on the
default grid (one BLAS thread, 2 vCPUs). `_Sweeper.operator` assembles the
map and the responses to the two slab-end inflows in one pass per direction,
by blocks of cells, mostly as matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import ConfigurationError, ConvergenceError, ExtractionError
from .special import AlphaModel, einstein
from .util import blas_one_thread

__all__ = [
    "DomGrid",
    "DomResult",
    "freq_rule",
    "solve",
    "extract_k0",
]

# cells per block of the sweep's source arrays (memory, not results)
_BLOCK = 50
# ratio of neighbouring cell widths, growing away from x = 0
_GROWTH = 1.01
# smallest normal float: the assembly sets smaller states to zero
_TINY = np.finfo(float).tiny


@blas_one_thread()
def freq_rule(model: AlphaModel, n: int, omega_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalised Gauss rule for the weight w^(alpha+4) E(w) on (0, omega_max).

    Recurrence coefficients of the orthonormal polynomials come from a
    1000-point composite discretisation of the weight (Stieltjes procedure);
    the Jacobi matrix eigen-decomposition yields nodes and weights whose sum
    matches the truncated moment to machine precision.
    """
    if not (1 <= n <= 200):
        raise ConfigurationError(f"frequency node count out of range: {n}")
    # discretise the measure: geometric panels resolve the w^(alpha+2) origin
    edges = np.concatenate([[0.0], np.geomspace(1e-3 * omega_max, omega_max, 40)])
    x, w = quadrature.gauss_rule(24).map_to(edges[:-1, None], edges[1:, None])
    xd = x.ravel()
    wd = (w * x ** (model.alpha + 4) * einstein(x)).ravel()

    beta0 = float(np.sum(wd))
    a_coef = np.zeros(n)
    sqrt_b = np.zeros(n)  # sqrt(b_k), k = 1..n-1 stored at [1:]
    p_prev = np.zeros_like(xd)
    p_cur = np.full_like(xd, 1.0 / math.sqrt(beta0))
    for k in range(n):
        a_coef[k] = float(wd @ (xd * p_cur * p_cur))
        if k == n - 1:
            break
        t = (xd - a_coef[k]) * p_cur - (sqrt_b[k] if k > 0 else 0.0) * p_prev
        sqrt_b[k + 1] = math.sqrt(float(wd @ (t * t)))
        p_prev, p_cur = p_cur, t / sqrt_b[k + 1]

    # numpy's eigh, not scipy.linalg (see solve); on these Jacobi matrices it
    # gives the bits of scipy's eigh_tridiagonal. With more than one OpenBLAS
    # thread it wakes a worker that then spins: one thread, as in solve
    jacobi = np.diag(a_coef) + np.diag(sqrt_b[1:], 1) + np.diag(sqrt_b[1:], -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = beta0 * vecs[0, :] ** 2
    return nodes, weights


@dataclass(frozen=True)
class DomGrid:
    """Spatial nodes, direction nodes/weights, and frequency nodes/weights."""

    x_nodes: np.ndarray
    v_nodes: np.ndarray
    v_weights: np.ndarray
    w_nodes: np.ndarray
    w_weights: np.ndarray
    L: float
    diagnostics: tuple[str, ...]

    @classmethod
    def build(cls, model: AlphaModel, *, L: float = 30.0, n_cells: int = 600,
              n_angle: int = 32, n_freq: int = 48) -> "DomGrid":
        """Slab [0, L] of n_cells cells growing by _GROWTH from the boundary,
        n_angle Gauss directions and n_freq frequency nodes on (0, 30)."""
        if n_cells < 16 or n_angle < 4 or n_freq < 2:
            raise ConfigurationError("grid too coarse to be meaningful")
        if n_angle % 2:
            raise ConfigurationError("n_angle must be even (a v = 0 node cannot sweep)")
        if not (math.isfinite(L) and L > 0):
            raise ConfigurationError(f"slab length must be positive and finite, got {L}")
        h0 = L * (_GROWTH - 1.0) / (_GROWTH ** n_cells - 1.0)
        x = np.concatenate([[0.0], h0 * np.cumsum(_GROWTH ** np.arange(n_cells))])
        x[-1] = L
        v_rule = quadrature.gauss_rule(n_angle)
        wn, ww = freq_rule(model, n_freq, 30.0)
        diags = []
        rate_min = float(np.min(wn) ** model.alpha) / float(np.max(np.abs(v_rule.nodes)))
        if math.exp(-L * rate_min) >= 1e-6:
            diags.append(
                f"slab may be optically thin for the slowest channel: "
                f"exp(-L*rate_min) = {math.exp(-L * rate_min):.2e}")
        return cls(x_nodes=x, v_nodes=v_rule.nodes, v_weights=v_rule.weights,
                   w_nodes=wn, w_weights=ww, L=L, diagnostics=tuple(diags))


@dataclass(frozen=True)
class DomResult:
    """Converged source with the extracted far-field intercept.

    `residual` is the max-norm of G(S) - S after a check sweep of the
    solved source S with the extracted far-end value.
    """

    source: np.ndarray       # S at the spatial nodes
    k0_extracted: float
    slope: float
    iterations: int
    residual: float
    diagnostics: tuple[str, ...]


def _merge_equal_rates(mu: np.ndarray, cw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One channel per distinct rate mu, in order of first occurrence, with
    the summed source weight of the channels that share it.

    Channels of equal mu see the same cells and, with inflows that depend on
    mu alone, carry the same phi, so merging them is exact. At alpha = 0
    (w^0 == 1.0) each direction node is one channel; at alpha > 0 every rate
    is distinct and nothing merges.
    """
    _, first, inverse = np.unique(mu, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))   # sorted index -> first-occurrence index
    return mu[np.sort(first)], np.bincount(rank[inverse], weights=cw)


class _Sweeper:
    """Exponential-upwind sweep of both directions in one cell loop.

    Channels are the distinct rates mu of each direction (`_merge_equal_rates`),
    with summed source weights cw: n_pos of them per direction at alpha = 0,
    n_pos * n_freq at alpha > 0. The direction rule must be a bit-for-bit
    mirror (numpy's Gauss-Legendre rule is), so the negative channels are the
    positive ones mirrored, ``mu_neg = -mu_pos`` and ``cw_neg = cw_pos`` in
    the same order, and each crosses a cell at its positive twin's rate: the
    cell arrays ``E = exp(-tau)`` and ``F = (tau - 1 + E) / tau`` are stored
    once, cell-major as (cells, m) for the positive channels, and the
    negative channels read them in reversed cell order. Step j of the sweep
    moves the positive channels across cell j and the negative ones across
    cell n - 1 - j, in three in-place calls on one contiguous row of both
    directions' E that keep the rounding of
    ``phi E + (1 - E) S_upwind + F dS`` term by term. The cell sources and
    those rows are formed _BLOCK cells at a time.
    """

    def __init__(self, model: AlphaModel, grid: DomGrid):
        h = np.diff(grid.x_nodes)
        v, a = grid.v_nodes, grid.v_weights
        pos = v > 0
        if not (np.array_equal(v[~pos], -v[pos][::-1])
                and np.array_equal(a[~pos], a[pos][::-1])):
            raise ConfigurationError(
                "direction rule is not a bit-for-bit mirror: the negative nodes "
                "and weights must be the positive ones reversed, nodes negated")
        wa = grid.w_nodes ** model.alpha
        l0d = float(np.sum(grid.w_weights))
        # (direction, frequency) pairs flattened, source weights
        # a_k w_i / (2 l0_disc), merged to one channel per rate
        self.mu_pos, self.cw_pos = _merge_equal_rates(
            (v[pos][:, None] / wa[None, :]).ravel(),
            (np.outer(a[pos], grid.w_weights) / (2.0 * l0d)).ravel())
        self.mu_neg, self.cw_neg = -self.mu_pos, self.cw_pos
        n, m = len(h), len(self.mu_pos)
        rate = 1.0 / self.mu_pos
        # E and F are built in place, _BLOCK cells at a time: full-size
        # temporaries (tau among them) would raise the peak memory of a solve
        self.E = np.empty((n, m))
        self.F = np.empty_like(self.E)
        for j0 in range(0, n, _BLOCK):
            j1 = min(j0 + _BLOCK, n)
            tau = np.multiply(h[j0:j1, None], rate)
            E, F = self.E[j0:j1], self.F[j0:j1]
            np.negative(tau, out=E)
            np.exp(E, out=E)
            np.subtract(tau, 1.0, out=F)
            F += E
            F /= tau
            # cancellation-free series where tau is small
            small = tau < 1e-4
            ts = tau[small]
            F[small] = ts * (0.5 - ts * (1.0 / 6.0 - ts / 24.0))

    def apply(self, S: np.ndarray, inflow_pos: np.ndarray, inflow_neg: np.ndarray, *,
              keep_phi: bool):
        """One transport sweep from the inflow at x = 0 (positive channels) and
        x = L (negative channels); returns the recomputed source, and with
        `keep_phi` phi of each direction as (n_x, channels) arrays indexed by
        node (the tests' exactness check of the sweep on the discrete modes)."""
        n, m = self.E.shape
        dS = S[1:] - S[:-1]
        # upwind source value and slope term of step j, per direction
        s_up = np.stack([S[:-1], S[:0:-1]], axis=1)[:, :, None]
        ds = np.stack([dS, -dS[::-1]], axis=1)[:, :, None]
        phi = np.concatenate([inflow_pos, inflow_neg])
        phi_p, phi_m = phi[:m], phi[m:]
        store = np.empty((n + 1, 2 * m)) if keep_phi else None
        # per-node ddot, not one gemv over the rows: it keeps the reduction
        # bit-identical, and a multithreaded BLAS gemv costs more than the loop
        red_p, red_m = [self.cw_pos @ phi_p], [self.cw_neg @ phi_m]
        if keep_phi:
            store[0] = phi
        for j0 in range(0, n, _BLOCK):
            j1 = min(j0 + _BLOCK, n)
            b = j1 - j0
            # the rows of steps j0..j1-1: cells j0..j1-1 for the positive
            # channels, cells n-1-j0 down to n-j1 for the negative ones
            E = np.concatenate([self.E[j0:j1], self.E[n - j1:n - j0][::-1]], axis=1)
            F = np.concatenate([self.F[j0:j1], self.F[n - j1:n - j0][::-1]], axis=1)
            P = np.subtract(1.0, E).reshape(b, 2, m)
            P *= s_up[j0:j1]
            Q = F.reshape(b, 2, m) * ds[j0:j1]
            for j, e, p, q in zip(range(j0 + 1, j1 + 1), E,
                                  P.reshape(b, 2 * m), Q.reshape(b, 2 * m)):
                phi *= e
                phi += p
                phi += q
                red_p.append(self.cw_pos @ phi_p)
                red_m.append(self.cw_neg @ phi_m)
                if keep_phi:
                    store[j] = phi
        out = np.zeros_like(S)
        out += red_p
        out += red_m[::-1]
        if keep_phi:
            return out, store[:, :m], store[::-1, m:]
        return out

    def operator(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sweep's affine map, one pass per direction: views (T0, h, g)
        of one array W with columns [h, S_0 ... S_n, g]. ``apply(S, 0, 0) ==
        T0 @ S``; h and g are the sources of an inflow of mu_pos at x = 0 and
        of a unit inflow at x = L, with no source: an inflow is the channels'
        state at the slab end, one more source column. 4-6 ms on the default
        grid at alpha = 0 and 38-47 ms at alpha > 0 (one BLAS thread).

        C[0] holds d phi(node j0) / d inflow and C[l + 1] d phi(node j0) /
        dS_l, l <= j0, per channel. Across a block the rows get
        ``(D * cw) @ C[:j0 + 2].T``, D the running product of the block's E
        rows. The block's own sources reach node j0 + i + 1 as the lower
        triangle of ``(D * cw) @ (coef / D).T``, coef_l the weight of
        S_(j0 + l) in the update of its cell, plus F_i cw from S_(j0 + i + 1);
        C then moves on by D[-1] and gains ``(coef / D) D[-1]``. This product
        needs D[-1] to be a normal float, and where a channel's transmission
        across the block underflows that channel keeps the recurrence cell by
        cell. Against that recurrence for every channel the product moves
        entries of T0 by a few ulps (3.2e-15 relative at most on the default
        grids; h and g lie within 8.3e-16 of a sweep's max). The negative
        channels run the same loop on the cell arrays in reversed cell order
        and land in ``W[::-1, :0:-1]``, columns g, S_n ... S_0. Entries of D
        and C below the smallest normal float are set to zero: they add
        nothing to the map, while subnormal operands would stall the GEMMs
        and the C updates wherever a block's transmission underflows.
        """
        n, m = self.E.shape
        W = np.zeros((n + 1, n + 3))
        C = np.empty((n + 2, m))
        for E, F, cw, inflow, rows in (
                (self.E, self.F, self.cw_pos, self.mu_pos, W[:, :-1]),
                (self.E[::-1], self.F[::-1], self.cw_neg, np.ones(m), W[::-1, :0:-1])):
            C.fill(0.0)
            C[0] = inflow
            rows[0, 0] = cw @ inflow
            for j0 in range(0, n, _BLOCK):
                j1 = min(j0 + _BLOCK, n)
                b = j1 - j0
                # the negative pass reads E and F reversed: a contiguous copy
                # of the block keeps its products on BLAS
                Eb, Fb = np.ascontiguousarray(E[j0:j1]), np.ascontiguousarray(F[j0:j1])
                D = _running_product(Eb)
                D[D < _TINY] = 0.0
                Dcw = D * cw
                rows[j0 + 1:j1 + 1, :j0 + 2] += Dcw @ C[:j0 + 2].T
                C[:j0 + 2] *= D[-1]
                C[j1 + 1] = Fb[-1]
                # phi(j + 1) = E phi(j) + (1 - E - F) S_j + F S_(j+1), so
                # coef_l D_i / D_l is the recurrence's coef_l E_(l+1) ... E_i
                coef = 1.0 - Eb - Fb
                coef[1:] += Fb[:-1] * Eb[1:]
                blk = rows[j0 + 1:j1 + 1, j0 + 1:j1 + 2]
                blk[np.arange(b), np.arange(1, b + 1)] += Fb @ cw
                thick = D[-1] == 0.0
                if thick.any():
                    # channels whose block transmission underflows keep the
                    # per-cell recurrence, and drop out of the product below
                    Ek, ck, cwk = Eb[:, thick], coef[:, thick], cw[thick]
                    for i in range(b):
                        ck[:i] *= Ek[i]
                        blk[i, :i + 1] += ck[:i + 1] @ cwk
                    C[j0 + 1:j1 + 1, thick] += ck
                    coef[:, thick] = 0.0
                    D[:, thick] = 1.0
                # D >= D[-1] >= _TINY keeps coef / D finite; the upper
                # triangle (l > i) may overflow and is dropped
                coef /= D
                blk[:, :b] += np.tril(Dcw @ coef.T)
                coef *= D[-1]
                C[j0 + 1:j1 + 1] += coef
                # C >= 0, as the inflows, E, F and 1 - E - F are: this
                # catches every subnormal
                Cb = C[:j1 + 2]
                Cb[Cb < _TINY] = 0.0
        return W[:, 1:-1], W[:, 0], W[:, -1]


def _running_product(E: np.ndarray) -> np.ndarray:
    """Row i is ``E[0] * ... * E[i]``, in np.cumprod's order and bits, formed
    a row at a time: numpy's accumulate walks the columns one by one, about
    3x slower."""
    D = E.copy()
    for i in range(1, len(D)):
        D[i] *= D[i - 1]
    return D


@blas_one_thread()
def solve(model: AlphaModel, grid: DomGrid, k: float = 1.0, *, tol: float = 1e-9) -> DomResult:
    """Fixed point of the sweep map by one dense linear solve, with the
    far-end closure. The intercept K0 is fitted over the fixed window
    [0.6 L, 0.9 L] of the slab.

    One sweep G(S) = T S + G(0) is affine in S: T = T0 + g p^T, where T0
    (`_Sweeper.operator`) sweeps with zero inflow at both ends and g answers a
    zero source with unit far inflow, which the intercept row p scales by
    k0(S) = p . S[window]. LU solves for u = S - k x,
    (I - T) u = G(k x) - k x: u stays O(k0) while S grows to k L, and the
    intercept's rounding error scales with the size of the unknown (40-115
    times larger for S itself). The right-hand side needs no sweep: the sweep
    carries k (x - mu) exactly, so with no inflow at x = 0 and k (L - mu) at
    x = L it returns k [h(x) + x (sum cw - 1)], h the positive channels'
    response to an inflow of mu at x = 0 with no source (the mirror makes
    sum cw mu exactly 0). h and g are the operator's inflow columns, and
    sum cw - 1 is one correctly rounded sum over both directions, with none
    of the cancellation of a swept G(k x) less k x: on the default grids the
    intercept lies within 2e-13 (relative) of a long-double refinement of the
    same discrete system at alpha 0, 0.5 and 1. One sweep with the extracted
    k0 checks the result: its max|G(S) - S| is `residual`, and it must not
    exceed tol * max(1, |k| L). The intercept check enforces slope agreement
    with k and fit linearity. That check sweep is the one sweep of
    `iterations`. The solve runs on one OpenBLAS thread
    (`util.blas_one_thread`), whoever calls it: the GEMMs' and the LU's last
    bits depend on the thread count, and a second worker would only spin.
    """
    sweeper = _Sweeper(model, grid)
    x = grid.x_nodes
    window = (0.6 * grid.L, 0.9 * grid.L)
    sel = (x >= window[0]) & (x <= window[1])
    if int(np.sum(sel)) < 8:
        raise ExtractionError("fit window contains fewer than 8 nodes")
    # intercept row of the least-squares fit S ~ a + b x over the window
    p = np.linalg.pinv(np.vstack([np.ones(int(np.sum(sel))), x[sel]]).T)[0]
    mu, cw = sweeper.mu_pos, sweeper.cw_pos

    A, h, g = sweeper.operator()
    rhs = k * (h + x * math.fsum([*cw, *cw, -1.0]))
    A[:, sel] += np.outer(g, p)
    np.negative(A, out=A)
    A[np.diag_indices_from(A)] += 1.0
    # numpy's LAPACK, not scipy.linalg (here and in freq_rule's eigh):
    # importing scipy.linalg costs start-up
    try:
        S = k * x + np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"sweep fixed point is singular: {exc}") from exc

    k0, slope = extract_k0(x, S, window, k)
    G = sweeper.apply(S, np.zeros_like(mu), k0 + k * (grid.L - sweeper.mu_neg), keep_phi=False)
    residual = float(np.max(np.abs(G - S)))
    bound = tol * max(1.0, abs(k) * grid.L)
    if not residual <= bound:
        raise ConvergenceError(
            f"check sweep residual {residual:.3e} exceeds tol * max(1, |k| L) = {bound:.3e}")
    return DomResult(source=S, k0_extracted=k0, slope=slope, iterations=1,
                     residual=residual, diagnostics=grid.diagnostics)


def extract_k0(x_nodes: np.ndarray, source: np.ndarray,
               fit_window: tuple[float, float], k: float) -> tuple[float, float]:
    """Least-squares intercept of S(x) ~ a + b x inside the fit window.

    The slope must reproduce the imposed gradient within 1% and the fit
    must be essentially exact (R^2 >= 0.9999); both guard against windows
    that overlap a boundary layer or a slab that is too short.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    source = np.asarray(source, dtype=float)
    sel = (x_nodes >= fit_window[0]) & (x_nodes <= fit_window[1])
    if int(np.sum(sel)) < 8:
        raise ExtractionError("fit window contains fewer than 8 nodes")
    xs, ys = x_nodes[sel], source[sel]
    A = np.vstack([np.ones_like(xs), xs]).T
    (a, b), *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - (a + b * xs)
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    if ss_tot > 0:
        r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot
        if r2 < 0.9999:
            raise ExtractionError(
                f"source is not linear in the window (R^2 = {r2:.6f}); "
                "the window likely overlaps a boundary layer")
    if k != 0.0 and abs(b - k) > 0.01 * abs(k):
        raise ExtractionError(
            f"fitted slope {b:.6g} deviates from the imposed gradient {k:.6g} "
            "by more than 1%; the slab is too short")
    return float(a), float(b)
