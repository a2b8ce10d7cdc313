"""Ideal target states and quality metrics for synthesized mechanical states.

Targets are pure states held as kernel groups of Gaussian terms (complex means
for the cat superpositions, a Laguerre polynomial for Fock states).  Every metric
is exact: the fidelity 2 pi * int(W W_t) (one moment table per group), the
negativity (phase_space), and the cat-lobe fit and the squeezing on the exact 1-D
quadrature marginals.  Grids serve only rendering and cross-checks in the tests.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from numpy.polynomial import polynomial as P

from .exceptions import DomainError, NumericalDomainError
from .phase_space import (MultiPoly, PolyGaussian, _expect, _hermite_functions,
                          _require_normalized, marginal, normalize,
                          overlap_terms, translate, wigner_negativity)

SQRT2 = math.sqrt(2.0)
CAT_NORM_MIN = 1e-6    # least 1 + parity e^(-2 alpha^2): below, an odd cat's terms cancel
FOCK_MAX = 170         # 171! overflows a double
_ONE = MultiPoly.constant(2)


def _pair_weights(alphas, coeffs) -> list:
    """c_j c_k* <a_k|a_j> over all pairs (j, k); their sum is the squared norm."""
    return [cj * np.conj(ck) * np.exp(np.conj(ak) * aj - (abs(aj) ** 2 + abs(ak) ** 2) / 2.0)
            for cj, aj in zip(coeffs, alphas) for ck, ak in zip(coeffs, alphas)]


def _coherent(alphas, coeffs, scale: float) -> tuple:
    """(terms, psi) of the normalized sum_k c_k |alpha_k> with x scaled by `scale`
    (p by 1/scale).  Terms: |a_j><a_k| gives <a_k|a_j> N(u; m_jk, cov) with the
    complex mean m_jk = ((a_j + a_k*) scale, -i (a_j - a_k*) / scale) / sqrt2."""
    weights = _pair_weights(alphas, coeffs)
    norm, cov = sum(weights).real, np.diag([scale * scale, 1.0 / (scale * scale)]) / 2.0
    means = np.array([[(aj + np.conj(ak)) * scale, -1j * (aj - np.conj(ak)) / scale]
                      for aj, ak in product(alphas, alphas)]) / SQRT2
    pref = math.pi ** -0.25 / math.sqrt(scale * norm)

    def psi(x):
        y = np.asarray(x, dtype=float) / scale
        tot = np.zeros(np.shape(y), dtype=complex)
        for c, a in zip(coeffs, alphas):
            tot += c * np.exp(-y * y / 2.0 + SQRT2 * a * y
                              - a * a / 2.0 - abs(a) ** 2 / 2.0)
        return pref * tot
    return ((np.array(weights) / norm, means, cov, _ONE),), psi


def _fock(n: int, lam: float) -> tuple:
    """(terms, psi): one term (-1)^n L_n(2 (x^2/lam^2 + lam^2 p^2)) N(u; 0, diag(lam^2,
    lam^-2)/2), and psi_n(x / lam) / sqrt(lam)."""
    coef = np.zeros((2 * n + 1, 2 * n + 1))
    for k in range(n + 1):
        ck = (-1.0) ** (n + k) * math.comb(n, k) * 2.0 ** k / math.factorial(k)
        for j in range(k + 1):
            coef[2 * j, 2 * (k - j)] = ck * math.comb(k, j) * lam ** (2 * (k - 2 * j))
    terms = ((np.ones(1), np.zeros((1, 2)), np.diag([lam * lam, 1.0 / (lam * lam)]) / 2.0,
              MultiPoly(coef)),)
    return terms, lambda x: (_hermite_functions(np.asarray(x, dtype=float) / lam, n)[n]
                             / math.sqrt(lam))


def _finite(build, **params) -> tuple:
    """build() -> (terms, psi), or DomainError where params drive the terms out of
    double precision: a non-finite parameter, or a finite one so large it overflows."""
    try:
        with np.errstate(all="ignore"):
            terms, psi = build()
    except ArithmeticError as exc:      # OverflowError, ZeroDivisionError of float math
        raise DomainError(f"target parameters {params} overflow: {exc}") from None
    if not all(np.isfinite(a).all() for w, m, c, poly in terms for a in (w, m, c, poly.coef)):
        raise DomainError(f"target parameters {params} give non-finite terms")
    return terms, psi


@dataclass(frozen=True, eq=False)
class TargetState:
    """Pure reference state: cat, Fock, or four-component cat, with optional
    squeezing (coordinate scale lam: x -> x/lam, p -> p*lam along the stated axis).

    `terms` holds its Wigner function as kernel groups (weights (K,), means (K, 2),
    cov, poly): K = 4 for a cat, 16 for a four-cat, one Laguerre term for Fock.
    `wavefunction(x)` is psi on the X axis (complex for P cats and four cats).
    """

    terms: tuple
    wavefunction: Callable

    @classmethod
    def cat(cls, alpha: float, parity: int = 1, lobe_var: float = 0.5,
            axis: str = "x") -> "TargetState":
        """Squeezed cat S(|a> + parity |-a>); lobe_var is the absolute marginal
        variance of each lobe along the cat axis (vacuum: 1/2)."""
        if alpha < 0 or lobe_var <= 0:
            raise DomainError("cat amplitude must be >= 0 and lobe variance positive")
        if parity not in (+1, -1):
            raise DomainError(f"parity must be +-1, got {parity}")
        if axis not in ("x", "p"):
            raise DomainError(f"axis must be 'x' or 'p', got {axis}")
        if 1.0 + parity * math.exp(-2.0 * alpha * alpha) < CAT_NORM_MIN:
            raise DomainError(f"odd cat at alpha = {alpha} has a vanishing norm")
        a, lam, coeffs = float(alpha), math.sqrt(2.0 * lobe_var), [1.0, float(parity)]
        # a P cat is |i a> + parity |-i a> squeezed along p: x is scaled by 1/lam
        alphas, scale = ([a, -a], lam) if axis == "x" else ([1j * a, -1j * a], 1.0 / lam)
        return cls(*_finite(lambda: _coherent(alphas, coeffs, scale),
                            alpha=alpha, lobe_var=lobe_var))

    @classmethod
    def fock(cls, n: int, squeeze_db: float = 0.0) -> "TargetState":
        """Squeezed Fock state; squeeze_db scales the X variance by 10^(db/10)."""
        if not 0 <= n <= FOCK_MAX:     # exact for any int, false for NaN
            raise DomainError(f"Fock index must lie in [0, {FOCK_MAX}], got {n}")
        if not float(n).is_integer():
            raise DomainError(f"Fock index must be an integer, got {n}")
        return cls(*_finite(lambda: _fock(int(n), 10.0 ** (float(squeeze_db) / 20.0)),
                            squeeze_db=squeeze_db))

    @classmethod
    def four_cat(cls, alpha0: float) -> "TargetState":
        """Equal superposition of coherent states at alpha0 e^{i(2k-1)pi/4}."""
        if alpha0 < 0:
            raise DomainError(f"amplitude must be >= 0, got {alpha0}")
        alphas = [float(alpha0) * np.exp(1j * (2 * k - 1) * math.pi / 4.0) for k in range(1, 5)]
        return cls(*_finite(lambda: _coherent(alphas, [1.0] * 4, 1.0), alpha0=alpha0))


# ---------------------------------------------------------------------------
# metrics

def _clipped_overlap(W: PolyGaussian, target: TargetState) -> float:
    f = overlap_terms(W, target.terms)
    if not math.isfinite(f):
        raise NumericalDomainError(f"fidelity overlap is {f}")
    clipped = min(max(f, 0.0), 1.0)
    if abs(f - clipped) > 1e-9:
        warnings.warn(f"fidelity clipped by {abs(f - clipped):.3e}", RuntimeWarning, stacklevel=3)
    return clipped


def fidelity(W_state: PolyGaussian, target: TargetState) -> float:
    """F = <psi_t| rho |psi_t> = 2 pi int(W W_t), clipped to [0, 1]; exact,
    as one batched Gaussian-moment sum per kernel group of the target."""
    _require_normalized(W_state)
    return _clipped_overlap(W_state, target)


def parity_indicator(W_state: PolyGaussian) -> float:
    """pi * W(0,0): the photon-number parity expectation; sign gives (-1)^n."""
    return math.pi * float(W_state.evaluate(np.zeros((1, 2)))[0])


@dataclass(frozen=True)
class CatFit:
    axis: str            # 'x' or 'p'
    x_star: float        # half peak separation along the cat axis
    lobe_var: float      # absolute Gaussian lobe variance of the marginal
    alpha2: float        # |alpha|^2 = x_star^2 / (4 lobe_var)
    dip_ratio: float     # central marginal value / peak value (bimodality witness)
    refined: bool        # the model fit was accepted; False: the peak-reading seed


def _marginal(W: PolyGaussian, i: int) -> tuple:
    """The exact X (i = 0) or P (i = 1) marginal m(x) = q(x) N(x; mu, s) of W, as
    (q ascending coefficients with the norm folded in, mu, s)."""
    M = marginal(W, [i])
    return M.norm * M.poly.coef, float(M.mean[0]), float(M.cov[0, 0])


def _variance(q, mu, s) -> float:
    """Var of the marginal m = q N(mu, s), from its raw moments."""
    return float(_expect(np.r_[0.0, 0.0, q], mu, s) - _expect(np.r_[0.0, q], mu, s) ** 2)


def _cat_cost_fn(q, mu, s):
    """cost((xb, v), parity) = int (model - m / mass)^2 dx in closed form, with
    model = (N(x; xb, v) + N(x; -xb, v) + 2 parity E N(x; 0, v)) / S the ideal
    squeezed cat's marginal, E = exp(-xb^2 / 2v), S = 2 + 2 parity E."""
    mass = _expect(q, mu, s)
    m_sq = _expect(P.polymul(q, q), mu, s / 2.0) / math.sqrt(4.0 * math.pi * s) / mass ** 2
    q = q.tolist()

    def cost(z, parity):
        xb, v = float(z[0]), float(z[1])
        if xb <= 0 or v <= 1e-4 or 1.0 + parity * (e := math.exp(-xb * xb / (2.0 * v))) < 5e-4:
            return 1e6      # odd model at xb -> 0: the weights / S lose all precision
        S = 2.0 + 2.0 * parity * e
        model_sq = (2.0 + 6.0 * e * e + 8.0 * parity * e ** 1.5) / (
            S * S * math.sqrt(4.0 * math.pi * v))
        # sqrt(2 pi t) N(c; mu, t) E[q] under the product Gaussian, c = xb, -xb, 0
        t = v + s
        lobe = [math.exp(-(c - mu) ** 2 / (2.0 * t)) * _expect(q, (c * s + mu * v) / t, v * s / t)
                for c in (xb, -xb, 0.0)]
        cross = (lobe[0] + lobe[1] + 2.0 * parity * e * lobe[2]) / (
            S * math.sqrt(2.0 * math.pi * t) * mass)
        return model_sq - 2.0 * cross + m_sq
    return cost


def _lobes(q, mu, s) -> tuple | None:
    """(dip ratio, half lobe separation, lobe variance) of m = q N(mu, s), or None."""
    # critical points of m: real roots of d = s q' - (x - mu) q, as m' = N d / s
    d = P.polysub(s * P.polyder(q), P.polymul([-mu, 1.0], q))
    try:
        r = P.polyroots(d)
    except np.linalg.LinAlgError as exc:     # a subnormal leading coefficient
        raise NumericalDomainError(f"marginal critical points: {exc}") from exc
    x = np.sort(r.real[np.abs(r.imag) <= 1e-9 * np.maximum(1.0, np.abs(r.real))])

    def m(y):
        return P.polyval(y, q) * np.exp(-(y - mu) ** 2 / (2.0 * s))

    # lobes: maxima (m'' = N d' / s < 0) above a fifth of the highest
    mx, dd = m(x), P.polyval(x, P.polyder(d))
    peaks = np.flatnonzero((dd < 0) & (mx > 0.2 * mx.max(initial=0.0)))
    if len(peaks) < 2 or not (x[peaks[0]] < -0.1 and x[peaks[-1]] > 0.1):
        return None
    ends = peaks[[0, -1]]
    xl, xr = x[ends]
    dip = float(m(0.5 * (xl + xr)) / mx[ends].min())
    if dip > 0.98:
        return None
    # seed lobe variance: -1 / (log m)'' = -s q / d' at the two outer lobes
    v0 = float(np.mean(-s * P.polyval(x[ends], q) / dd[ends]))
    return dip, float(0.5 * (xr - xl)), v0


def _refine(dip: float, x0: float, v0: float, axis: str, q, mu, s) -> CatFit:
    """Fit the two-lobe cat-marginal model from the lobe reading; corrects the
    bias of the bare peak reading when the lobes overlap (small |alpha|^2)."""
    from scipy.optimize import minimize
    cost = _cat_cost_fn(q, mu, s)
    best = min((minimize(cost, [max(x0, 0.05), v0], args=(parity,), method="Nelder-Mead",
                         options={"xatol": 1e-6, "fatol": 1e-12, "maxiter": 400})
                for parity in (+1, -1)), key=lambda r: r.fun)
    xb, vl = float(best.x[0]), float(best.x[1])
    refined = 0.2 * x0 < xb < 5.0 * max(x0, 0.1) and 0.05 * v0 < vl < 20.0 * v0
    if refined:
        x0, v0 = xb, vl
    return CatFit(axis, x0, v0, x0 ** 2 / (4.0 * v0), dip, refined)


def cat_fit(W: PolyGaussian) -> CatFit | None:
    """Two-lobe fit on the exact quadrature marginals; None without cat structure."""
    return _fit_and_squeezing(W)[1]


def _fit_and_squeezing(W: PolyGaussian, n: int | None = None,
                       sigma11: float | None = None) -> tuple[dict, CatFit | None]:
    """score_state's squeezing dict and the cat fit whose lobes it reads."""
    margs = [_marginal(W, i) for i in (0, 1)]
    # prefer the axis with the deeper central dip (true cat lobes, not fringes);
    # the fit leaves the dip as it is, so only that axis is refined
    found = [(*lobes, a, *mg) for a, mg in zip("xp", margs) if (lobes := _lobes(*mg))]
    fit = _refine(*min(found, key=lambda f: f[0])) if found else None
    vx, vp = (_variance(*mg) for mg in margs)
    if not min(vx, vp) > 0:
        raise NumericalDomainError(f"quadrature variances {vx:.3e}, {vp:.3e} are not positive")
    out = {"min_var_db": 10.0 * math.log10(2.0 * min(vx, vp)),
           "var_x": vx, "var_p": vp, "method": "min_var"}
    if n is not None:
        out["fock_ref_db"] = 10.0 * math.log10(2.0 * min(vx, vp) / (2 * n + 1))
    if fit is not None:
        out["lobe_db"] = 10.0 * math.log10(2.0 * fit.lobe_var)
    if sigma11 is not None:
        out["sigma_fock_db"] = -10.0 * math.log10(sigma11)
        out["sigma_cat_db"] = -10.0 * math.log10(2.0 * sigma11)
    return out, fit


def best_cat_fidelity(W: PolyGaussian, axis: str) -> tuple[float, tuple]:
    """Fidelity against the best-fitting even squeezed cat on the given axis.

    Displaced states are recentred first.  Nelder-Mead starts from the lobe
    reading of that axis's exact marginal, alpha2 = x0^2 / (4 v0) and lobe_var = v0
    (or (2, 1/2) without two lobes); returns (F, (alpha2, lobe_var))."""
    from scipy.optimize import minimize

    Wc = normalize(translate(W, -W.mean)) if np.abs(W.mean).max() > 1e-9 else W
    _require_normalized(Wc)
    lobes = _lobes(*_marginal(Wc, int(axis == "p")))
    seed = (2.0, 0.5) if lobes is None else (lobes[1] ** 2 / (4.0 * lobes[2]), lobes[2])

    def neg_f(q):
        a2, v = q
        if a2 <= 0.01 or v <= 0.02 or v > 6.0:
            return 1.0
        return -_clipped_overlap(Wc, TargetState.cat(math.sqrt(a2), 1, lobe_var=v, axis=axis))

    r = minimize(neg_f, list(seed), method="Nelder-Mead",
                 options={"xatol": 1e-4, "fatol": 1e-7})
    return -float(r.fun), (float(r.x[0]), float(r.x[1]))


def best_fock_fidelity(W: PolyGaussian, n: int) -> tuple[float, float]:
    """Fidelity against the best squeezed Fock-n target; returns (F, squeeze_db)."""
    from scipy.optimize import minimize_scalar

    _require_normalized(W)
    r = minimize_scalar(lambda sdb: -_clipped_overlap(W, TargetState.fock(n, float(sdb))),
                        bounds=(-10.0, 10.0), method="bounded")
    return -float(r.fun), float(r.x)


@dataclass(frozen=True)
class StateMetrics:
    """Quality summary of a state; its JSON keeps the key "F" (null) that report.json pins."""

    delta: float
    alpha2: float | None
    squeeze_db: float | None
    parity: float
    method_tags: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.delta < -1e-9:
            raise DomainError(f"negativity {self.delta} is negative")

    def to_json_dict(self) -> dict:
        return {"F": None, "delta": self.delta, "alpha2": self.alpha2, "squeeze_dB":
                self.squeeze_db, "parity": self.parity, "method_tags": self.method_tags}


def score_state(W: PolyGaussian, n: int | None = None,
                sigma11: float | None = None) -> StateMetrics:
    """Negativity, cat size, squeezing and parity indicator of W.

    method_tags["squeeze"] holds the squeezing in dB (negative = below vacuum):
    min_var_db:   10 log10(2 min(Var X, Var P)), with var_x and var_p
    fock_ref_db:  10 log10(2 min Var / (2n+1)), given the Fock index n
    lobe_db:      10 log10(2 v_lobe) from the fitted cat lobes (if any)
    sigma_fock_db / sigma_cat_db: the mapping prescription -10 log10(sigma11)
                  and -10 log10(2 sigma11), given the pre-measurement sigma11
    """
    delta = wigner_negativity(W)
    sq, fit = _fit_and_squeezing(W, n, sigma11)
    tags = {"squeeze": sq} if fit is None else {
        "squeeze": sq, "cat_axis": fit.axis, "cat_dip": fit.dip_ratio,
        "cat_refined": fit.refined}
    sq_db = sq["min_var_db"] if fit is None else sq.get("lobe_db")
    return StateMetrics(delta=delta, alpha2=None if fit is None else fit.alpha2,
                        squeeze_db=sq_db, parity=parity_indicator(W), method_tags=tags)
