"""Adaptive-quadrature references for the boundary values at alpha > 0, for Vp
and for the weighted Case average.

The program sums Re lam+ on a fixed rule as a Hilbert transform of
xi_alpha and takes xi_alpha from cumulative Gauss sums. The tests compare
them with independent routes on the adaptive engine: xi_alpha by adaptive
quadrature of w^(2a+4) E(w) up to the cutoff, and Re lam+ as the frequency
integral of pv lam_C(w^a mu) over the Planck weight. Vp, which the program
sums on fixed rules too, is `pv_reference`: adaptive principal values of
theta - pi, and the table's tail law in closed form (`tail_reference`).
The average lam(z) off the real axis, a fixed graded rule in the program,
is `weighted_case_average` here. `integrate` is the engine's scalar
integral for the tests.
"""

import math

import numpy as np
import pytest

from bosemilne import quadrature, special
from bosemilne.dispersion import lambda_case, lambda_case_pv


# Laurent coefficients of E(x) - 1/x^2 + 1/12 = sum c_k x^(2k), k >= 1
_REG_COEFFS = (1.0 / 240.0, -1.0 / 6048.0, 1.0 / 172800.0, -1.0 / 5322240.0)


def einstein_reg(x):
    """Regularised Einstein function E(x) - 1/x^2 + 1/12.

    Smooth through x = 0; evaluated by series for |x| < 1/4 where the direct
    subtraction loses all significant digits.
    """
    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    small = np.abs(arr) < 0.25
    x2 = arr[small] ** 2
    out[small] = x2 * np.polynomial.polynomial.polyval(x2, _REG_COEFFS)
    xb = arr[~small]
    out[~small] = special.einstein(xb) - 1.0 / (xb * xb) + 1.0 / 12.0
    return out if arr.ndim else float(out)


def integrate(f, a, b, tol=1e-10, **kwargs):
    """Adaptive integral of f over (a, b): quadrature.integrate_with_error's value."""
    return quadrature.integrate_with_error(f, a, b, tol, **kwargs)[0]


def weighted_case_average(model, z, tol=1e-12):
    """(1/l0) int_0^cut w^(a+4) E(w) lam_C(w^a z) dw by adaptive quadrature at depth 24.

    The integrand changes character where |w^a z| ~ 1, so for |z| > 1 the
    panels are seeded at 1, 8 and 64 times that frequency, below half the
    cutoff.
    """
    a, zc = model.alpha, complex(z)

    def f(w):
        return w ** (a + 4) * special.einstein(w) * lambda_case(w ** a * zc)

    pts = []
    if a > 0.0 and abs(zc) > 1.0:
        w_cross = math.exp(-math.log(abs(zc)) / a)
        pts = [p for p in (w_cross, 8.0 * w_cross, 64.0 * w_cross) if p < 0.5 * model.omega_cut]
    return integrate(f, 0.0, model.omega_cut, tol, max_depth=24, points=pts) / model.l0_alpha


def xi_alpha(model, mu, tol=1e-12):
    """xi_alpha for alpha > 0 by quadrature.integrate_rows at tolerance tol."""
    arr = np.atleast_1d(np.asarray(mu, dtype=float))
    log_cut = -np.log(arr) / model.alpha
    full = log_cut >= math.log(model.omega_cut)
    cut = np.exp(np.where(full, 0.0, log_cut))
    a2 = 2 * model.alpha

    def plain(w):
        return w ** (a2 + 4) * special.einstein(w)

    def regular(w):
        return w ** (a2 + 4) * einstein_reg(w)

    # the Laurent expansion of E keeps the relative accuracy at tiny cutoffs;
    # a cutoff that underflows to 0 (small alpha, large mu) leaves nothing
    live = ~full & (cut > 0.0)
    laurent = live & (cut <= 0.25)
    out = np.where(cut == 0.0, 0.0, model.l0_2alpha)
    for rows, integrand in ((live & ~laurent, plain), (laurent, regular)):
        c = cut[rows]
        vals, _ = quadrature.integrate_rows(integrand, np.zeros_like(c), c, tol)
        if integrand is regular:
            vals = c ** (a2 + 3) / (a2 + 3) - c ** (a2 + 5) / (12 * (a2 + 5)) + vals
        out[rows] = vals
    return out


def _pv_integrand(w, mu, shift, a):
    """w^(a+4) E(w) (pv lam_C(w^a mu) - shift), elementwise."""
    vals = w ** (a + 4) * special.einstein(w) * (lambda_case_pv(w ** a * mu) - shift)
    # points rounding exactly onto the singular frequency carry zero measure
    return np.where(np.isfinite(vals), vals, 0.0)


def re_part(model, mu, tol=1e-10, max_depth=20):
    """Re lam+(mu) for every mu, a > 0, as
    shift + (1/l0) int_0^cut w^(a+4) E(w) (pv lam_C(w^a mu) - shift) dw.

    shift = 1 for mu <= 1 keeps the integrand small on the long stretch
    below the singular frequency ws = mu^(-1/a). shift = 0 for mu > 1, where
    Re lam+ decays to 0 and 1 + (an integral near -l0)/l0 would cancel.
    Where ws lies below the cut, the integral is split there: plain pieces
    away from it, and its two neighbourhoods under w = ws -+ e^-t up to
    t_cap, where e^-t falls below 16 eps max(ws, 1). Tolerance 1e-10 at
    depth 20 by default.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    a, cut = model.alpha, model.omega_cut
    eps16 = 16 * np.finfo(float).eps
    shift = np.where(mu <= 1.0, 1.0, 0.0)
    log_ws = -np.log(mu) / a
    split = (math.log(eps16) <= log_ws) & (log_ws < math.log(cut))
    ws = np.exp(np.where(split, log_ws, 0.0))
    dl = np.minimum(0.5 * ws, 1.0)
    dr = np.minimum(0.5 * (cut - ws), 1.0)
    t_cap = -np.log(eps16 * np.maximum(ws, 1.0))

    def plain(w, mu, ws, shift):
        return _pv_integrand(w, mu, shift, a)

    def left(t, mu, ws, shift):
        return _pv_integrand(ws - np.exp(-t), mu, shift, a) * np.exp(-t)

    def right(t, mu, ws, shift):
        return _pv_integrand(ws + np.exp(-t), mu, shift, a) * np.exp(-t)

    pieces = (  # (integrand, lower, upper, rows that have the piece)
        (plain, np.zeros_like(mu), np.where(split, ws - dl, cut), ~split | (ws - dl > 0.0)),
        (left, -np.log(dl), t_cap, split & (-np.log(dl) < t_cap)),
        (right, -np.log(dr), t_cap, split & (-np.log(dr) < t_cap)),
        (plain, ws + dr, np.full_like(mu, cut), split & (ws + dr < cut)),
    )
    total = np.zeros_like(mu)
    for f, lo, hi, rows in pieces:
        part = np.zeros_like(mu)
        part[rows], _ = quadrature.integrate_rows(
            f, lo[rows], hi[rows], tol, params=(mu[rows], ws[rows], shift[rows]),
            max_depth=max_depth, scale=model.l0_alpha)
        total += part
    return shift + total / model.l0_alpha


def boundary_values(model, mu):
    """(Re, Im, theta) of lam+ by the adaptive routes at their default tolerances."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    im = 0.5 * math.pi * mu * xi_alpha(model, mu) / model.l0_alpha
    re = re_part(model, mu)
    return re, im, np.arctan2(im, re)


def tail_reference(data, z):
    """int_{mu_max}^inf (theta - pi)/(t - z) dt of the table's tail law, in closed form.

    With theta - pi = -c t^p beyond mu_max and u = 1/t it is -c int_0^U
    u^a/(1 - z u) du, a = -p - 1 and U = 1/mu_max: -c U^(a+1)/(a+1) 2F1(1,
    a+1; a+2; z U), by mpmath at 30 digits, for every z, real below mu_max or
    complex. 0 for a table without a tail.
    """
    z = np.atleast_1d(z)
    if data.table.tail is None:
        return np.zeros(z.shape, z.dtype)
    mpmath = pytest.importorskip("mpmath")
    c, p = data.table.tail
    kind = complex if np.iscomplexobj(z) else float
    with mpmath.workdps(30):
        a, top = -mpmath.mpf(p) - 1, 1 / mpmath.mpf(data.table.mu_max)
        scale = -c * top ** (a + 1) / (a + 1)
        return np.array([kind(scale * mpmath.hyp2f1(1, a + 1, a + 2, zi * top))
                         for zi in z.tolist()])


def pv_reference(data, etas):
    """Vp(etas) by adaptive principal values (quadrature.pv_rows) at tolerance 1e-13.

    The body runs to mu_max, plus the table's tail beyond it in closed form
    (tail_reference). A slit table
    adds the piece from mu_max to the slit edge, 1e-13 wide: for etas at
    least 1e-4 below the edge, 1/(t - eta) is 1/(edge - eta) there to 1e-9,
    and int g dt is taken in the edge variable t = edge - e^-s.
    """
    table = data.table
    g = lambda t: table.theta_at(t) - math.pi
    body = quadrature.pv_rows(g, etas, 0.0, table.mu_max, 1e-13,
                              slopes=table.theta_slope(etas), max_depth=50)
    if table.slit_edge is not None:
        edge, s0 = table.slit_edge, -math.log(table.slit_edge - table.mu_max)
        assert np.all(edge - etas >= 1e-4)
        piece = integrate(lambda s: g(edge - np.exp(-s)) * np.exp(-s), s0, s0 + 45.0, 1e-8,
                          max_depth=30)
        body += piece / (edge - etas)
    return (body + tail_reference(data, etas)) / math.pi
