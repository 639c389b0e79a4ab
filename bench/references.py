"""Independent reference values for the benchmark's output checks.

Nothing here imports bosemilne: every number comes from scipy quadrature of
the defining integrals, or from the literature, so a fault in the program's
own quadrature, tables or interpolation cannot hide in its reference.

    python3 bench/references.py    # recompute and rewrite references.json, ~20 s

To verify the stored file, run the command and diff it against git.

V1(alpha) = (1/pi) int_0^inf (pi - theta(mu)) dmu with theta = arg lam+(mu),

    Re lam+(mu) = (1/l0) int_0^inf w^(a+4) E(w) lam_C,pv(w^a mu) dw,
    Im lam+(mu) = (pi mu / 2 l0) int_0^{mu^(-1/a)} w^(2a+4) E(w) dw,

E(w) = 1/(4 sinh^2(w/2)) and l0 = Gamma(a+5) zeta(a+4) in closed form. For
large mu the tail pi - theta ~ C mu^((a-3)/a) is added in closed form from
the last evaluated point. The Chandrasekhar H function (conservative
isotropic scattering) is solved from its nonlinear integral equation at run
time; it is cheap and needs no stored number.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy import integrate, special

REFERENCE_FILE = Path(__file__).with_name("references.json")

# Milne extrapolation length q(inf) of the one-speed conservative problem
# (Chandrasekhar, Radiative Transfer, 1950, ch. IV); equals V1(0).
V1_ZERO_LITERATURE = 0.7104460896

_W_TOP = 400.0  # w^(2a+4) E(w) < 1e-160 beyond this frequency
_MU_SPLIT = (1.0, 1e2, 1e4, 1e6)
_QUAD = dict(epsabs=0.0, epsrel=1e-12, limit=500)


def planck_moment(p: float) -> float:
    """int_0^inf w^(p+4) E(w) dw = Gamma(p+5) zeta(p+4)."""
    return float(special.gamma(p + 5.0) * special.zeta(p + 4.0))


def _einstein(w: float) -> float:
    s = math.sinh(0.5 * w)
    return 1.0 / (4.0 * s * s)


def case_pv(y: float) -> float:
    """Real part 1 - (y/2) ln|(1+y)/(1-y)| of the one-speed dispersion function.

    Beyond y = 2 the cancellation-free form -(atanh(u) - u)/u, u = 1/y, with
    its power series, keeps full relative accuracy as lam -> -1/(3 y^2).
    """
    if y < 2.0:
        u = min(y, 1.0 / y)
        return 1.0 - y * math.atanh(u)
    u = 1.0 / y
    u2 = u * u
    acc, term, k = 0.0, u2, 1
    while term > 1e-18 * max(acc, 1e-300):
        acc += term / (2 * k + 1)
        term *= u2
        k += 1
    return -acc


def theta(alpha: float, mu: float, l0: float) -> float:
    """Continuous argument of lam+(mu) for alpha > 0."""
    ws = mu ** (-1.0 / alpha)

    def f(w):
        return w ** (alpha + 4) * _einstein(w) * case_pv(w ** alpha * mu)

    if ws < _W_TOP:
        re = sum(integrate.quad(f, lo, hi, **_QUAD)[0]
                 for lo, hi in ((0.0, ws), (ws, min(2.0 * ws, _W_TOP)),
                                (min(2.0 * ws, _W_TOP), _W_TOP)) if lo < hi)
    else:
        re = integrate.quad(f, 0.0, _W_TOP, **_QUAD)[0]
    cut = min(ws, _W_TOP)
    xi = integrate.quad(lambda w: w ** (2 * alpha + 4) * _einstein(w), 0.0, cut,
                        **_QUAD)[0]
    return math.atan2(0.5 * math.pi * mu * xi / l0, re / l0)


def v1_exact(alpha: float) -> float:
    """V1(alpha) for 0 < alpha < 3/2 by adaptive quadrature in mu."""
    if not 0.0 < alpha < 1.5:
        raise ValueError("the exact V1 integral converges only for 0 < alpha < 3/2")
    l0 = planck_moment(alpha)

    def g(mu):
        return math.pi - theta(alpha, mu, l0)

    def g_log(s):  # mu = e^s on the decades where the integrand is a power law
        mu = math.exp(s)
        return mu * g(mu)

    total = integrate.quad(g, 0.0, _MU_SPLIT[0], **_QUAD)[0]
    for lo, hi in zip(_MU_SPLIT[:-1], _MU_SPLIT[1:]):
        total += integrate.quad(g_log, math.log(lo), math.log(hi), **_QUAD)[0]
    p = (alpha - 3.0) / alpha
    mu_end = _MU_SPLIT[-1]
    total += g(mu_end) * mu_end / -(p + 1.0)
    return total / math.pi


def v1_zero() -> float:
    """V1(0) from theta = atan2(pi mu / 2, 1 - mu atanh mu) on the slit (0, 1)."""
    def g(mu):
        return math.pi - math.atan2(0.5 * math.pi * mu, 1.0 - mu * math.atanh(mu))
    return integrate.quad(g, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=500)[0] / math.pi


def chandrasekhar_h(n: int = 8):
    """H(mu) for conservative isotropic scattering, as a callable on [0, 1].

    Solves 1/H(mu) = int_0^1 mu' H(mu') / (2 (mu + mu')) dmu' (Chandrasekhar's
    form for albedo 1) on Gauss nodes of geometric panels, which resolve the
    mu ln mu behaviour at the origin; then evaluates the same integral at any
    mu. The plain iteration of this form alternates between two states, so
    successive iterates are averaged.
    """
    edges = np.concatenate([[0.0], np.geomspace(1e-8, 1.0, 33)])
    x, w = np.polynomial.legendre.leggauss(n)
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel()
    weights = (0.5 * (hi - lo) * w).ravel()
    kernel = 0.5 / (nodes[:, None] + nodes[None, :])
    h = np.ones_like(nodes)
    for _ in range(500):
        new = 0.5 * (h + 1.0 / ((weights * nodes * h) @ kernel))
        done = np.max(np.abs(new - h)) < 1e-14
        h = new
        if done:
            break
    else:
        raise RuntimeError("H-function iteration did not converge")
    if abs(float(weights @ h) - 2.0) > 1e-10:  # zeroth moment of H is 2 at albedo 1
        raise RuntimeError("H function fails its moment identity")
    hw = weights * nodes * h * 0.5

    def h_at(mu: float) -> float:
        return 1.0 / float(np.sum(hw / (mu + nodes))) if mu > 0.0 else 1.0

    return h_at


def compute() -> dict:
    v1 = {"0": v1_zero()}
    with warnings.catch_warnings():
        # epsrel 1e-12 sits at the round-off floor on some panels; QUADPACK
        # says so, and the stored digits are stable to 1e-10 regardless
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for alpha in (0.5, 1.0):
            v1[repr(alpha)] = v1_exact(alpha)
    return {
        "v1": v1,
        "method": "scipy.integrate.quad of (1/pi) int (pi - theta) dmu, theta from "
                  "quad of the Planck-weighted one-speed dispersion function; "
                  "epsrel 1e-12, closed-form power-law tail beyond mu = 1e6",
        "make": "python3 bench/references.py",
    }


def load() -> dict:
    """Stored V1 references keyed by alpha."""
    data = json.loads(REFERENCE_FILE.read_text())
    return {float(k): float(v) for k, v in data["v1"].items()}


def main() -> int:
    fresh = compute()
    if abs(fresh["v1"]["0"] - V1_ZERO_LITERATURE) > 1e-10:
        print(f"V1(0) quadrature {fresh['v1']['0']!r} disagrees with the literature",
              file=sys.stderr)
        return 1
    REFERENCE_FILE.write_text(json.dumps(fresh, indent=2) + "\n")
    print(json.dumps(fresh, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
