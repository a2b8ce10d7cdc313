"""Ideal target states and quality metrics for synthesized mechanical states.

Targets are pure states held as kernel groups of Gaussian terms (complex means
for the cat superpositions, a Laguerre polynomial for Fock states).  Every metric
is exact: the fidelity 2 pi * int(W W_t) (one moment table per group), the
negativity (phase_space), and the cat-lobe fit and the squeezing on the exact 1-D
quadrature marginals.  The fits (the cat-marginal model, the best cat and Fock
targets) are Newton's method on the exact values, gradients and Hessians of
these closed forms.  Grids serve only rendering and cross-checks in the tests.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from numpy.polynomial import polynomial as P

from .exceptions import ContractError, DomainError, NumericalDomainError
from .phase_space import (MultiPoly, PolyGaussian, _expect, _hermite_functions,
                          _kernel_overlaps, _linear, _moments, _require_normalized,
                          marginal, normalize, overlap_terms, translate,
                          wigner_negativity)

SQRT2 = math.sqrt(2.0)
CAT_NORM_MIN = 1e-6    # least 1 + parity e^(-2 alpha^2): below, an odd cat's terms cancel
FOCK_MAX = 170         # 171! overflows a double
NEWTON_MAX = 60        # cap on Newton iterates per fit; the test states stop well below it
_Y_ODD = -math.log1p(-5e-4)    # below, the odd cat model's 1 - e^-y < 5e-4 loses all precision
_ONE = MultiPoly.constant(2)
_XP = (MultiPoly.variable(2, 0), MultiPoly.variable(2, 1))


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

def _clip(f: float) -> float:
    """A fidelity overlap clipped to [0, 1], with a warning beyond round-off."""
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
    return _clip(overlap_terms(W_state, target.terms))


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


class _Jet(tuple):
    """(f, f_a, f_b, f_aa, f_ab, f_bb): a value with its gradient and Hessian in two
    variables, carried through + and * by the sum and product rules and through
    `chain` and `compose` by the chain rule (second-order forward differentiation)."""

    __slots__ = ()

    def __add__(self, o):
        if isinstance(o, _Jet):
            return _Jet(map(operator.add, self, o))
        return _Jet((self[0] + o, *self[1:]))

    def __mul__(self, o):
        if not isinstance(o, _Jet):
            return _Jet([x * o for x in self])
        (f, a, b, aa, ab, bb), (g, c, d, cc, cd, dd) = self, o
        return _Jet((f * g, f * c + a * g, f * d + b * g, f * cc + 2.0 * a * c + aa * g,
                     f * cd + a * d + b * c + ab * g, f * dd + 2.0 * b * d + bb * g))
    __radd__, __rmul__ = __add__, __mul__

    def chain(self, g0, g1, g2):
        """g(self), from g, g' and g'' at the value."""
        f, a, b, aa, ab, bb = self
        return _Jet((g0, g1 * a, g1 * b, g1 * aa + g2 * a * a, g1 * ab + g2 * a * b,
                     g1 * bb + g2 * b * b))

    def compose(self, X, Y):
        """self(X, Y), for the jets X and Y of its two arguments."""
        dx, dy = X + -X[0], Y + -Y[0]
        return (dx * (dx * (self[3] / 2.0) + dy * self[4] + self[1])
                + dy * (dy * (self[5] / 2.0) + self[2]) + self[0])


def _cat_cost_fn(q, mu, s):
    """cost((y, v), parity) = int (model - m / mass)^2 dx in closed form, as a _Jet in
    (y, v), with model = (N(x; xb, v) + N(x; -xb, v) + 2 parity E N(x; 0, v)) / S the
    ideal squeezed cat's marginal, y = xb^2 / 2v, E = e^-y, S = 2 + 2 parity E."""
    mass = _expect(q, mu, s)
    m_sq = _expect(P.polymul(q, q), mu, s / 2.0) / math.sqrt(4.0 * math.pi * s) / mass ** 2
    # column k: m^(k) = q_k N(x; mu, s), q_(k+1) = q_k' - (x - mu) q_k / s, and
    # d^k/dc^k int m N(x; c, v) dx = int m^(k) N(x; c, v) dx
    Q = np.zeros((len(q) + 4, 5))
    Q[:len(q), 0] = q
    for k in range(4):
        Q[:-1, k + 1] = Q[1:, k] * np.arange(1, len(Q)) + Q[:-1, k] * (mu / s)
        Q[1:, k + 1] -= Q[:-1, k] / s

    def cost(z, parity):
        y, v = float(z[0]), float(z[1])
        if y <= 0 or v <= 1e-4 or (parity < 0 and y < _Y_ODD):
            return _Jet((1e6, 0.0, 0.0, 0.0, 0.0, 0.0))
        Y, V = _Jet((y, 1.0, 0.0, 0.0, 0.0, 0.0)), _Jet((v, 0.0, 1.0, 0.0, 0.0, 0.0))
        e, E = ((Y * -r).chain(*3 * (math.exp(-r * y),)) for r in (0.5, 1.0))
        # 1 + parity e and S / 2 = 1 + parity E, their values without cancellation:
        # int model^2 = 2 (1 + parity e)^2 (1 - 2 parity e + 3 E) / (S^2 sqrt(4 pi v))
        A, B = (_Jet((1.0 + math.exp(-r * y) if parity > 0 else -math.expm1(-r * y),
                      *(x * parity)[1:])) for r, x in ((0.5, e), (1.0, E)))
        g, Binv = (4.0 * math.pi * v) ** -0.5, B.chain(1.0 / B[0], -B[0] ** -2, 2.0 * B[0] ** -3)
        model_sq = A * A * (e * (-2.0 * parity) + E * 3.0 + 1.0) * Binv * Binv * V.chain(
            0.5 * g, -0.25 * g / v, 0.375 * g / (v * v))
        # G(c) = int m N(x; c, v) dx at c = xb, -xb, 0 from the product Gaussian
        # N((c s + mu v) / t, v s / t): its c derivatives from the q_k, dG/dv = G''/2
        xb, t = math.sqrt(2.0 * v * y), v + s
        c = np.array([xb, -xb, 0.0])
        J = np.array([_moments(m, v * s / t, len(Q)) for m in (c * s + mu * v) / t]) @ Q
        jp, jm, j0 = (J * np.exp(-(c - mu) ** 2 / (2.0 * t))[:, None]
                      / math.sqrt(2.0 * math.pi * t)).tolist()      # d^k G / dc^k, k = 0..4
        pair = _Jet((jp[0] + jm[0], jp[1] - jm[1], (jp[2] + jm[2]) / 2.0, jp[2] + jm[2],
                     (jp[3] - jm[3]) / 2.0, (jp[4] + jm[4]) / 4.0))      # in (xb, v)
        lobes = (pair.compose((Y * V * 2.0).chain(xb, 0.5 / xb, -0.25 / xb ** 3), V)
                 + E * _Jet((j0[0], 0.0, j0[2] / 2.0, 0.0, 0.0, j0[4] / 4.0)) * (2.0 * parity))
        return model_sq + lobes * Binv * (-1.0 / mass) + m_sq
    return cost


def _lobes(q, mu, s) -> tuple | None:
    """(dip ratio, half lobe separation, lobe variance) of m = q N(mu, s), or None."""
    # critical points of m: real roots of d = s q' - (x - mu) q, as m' = N d / s
    d = P.polysub(s * P.polyder(q), P.polymul([-mu, 1.0], q))
    try:
        with np.errstate(over="ignore"):
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


def _newton_max(jet, z, lo, hi) -> tuple:
    """(f, z) at a local maximum of f in the box lo <= z <= hi, from z, with jet(z)
    the _Jet of f.  A variable on a bound whose gradient points out stays there;
    the others take the Newton step with each Hessian eigenvalue by its magnitude
    (an ascent where f is not concave; 1/sqrt(curvature) off a minimum), clipped
    to the box and halved until f falls by no more than round-off.  A full step
    below sqrt(eps) of z ends the search."""
    eps = np.finfo(float).eps
    z = np.clip(np.asarray(z, dtype=float), lo, hi)
    J = jet(z)
    for _ in range(NEWTON_MAX):
        g, H = np.array(J[1:3]), np.array([J[3:5], J[4:6]])
        free = ((z > lo) | (g > 0)) & ((z < hi) | (g < 0))
        w, U = np.linalg.eigh(H[free][:, free])
        y = U.T @ g[free]
        d = np.zeros(2)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[free] = U @ (np.where(y == 0.0, np.sqrt(np.maximum(w, 0.0)), y) / np.abs(w))
        if not np.isfinite(d).all():    # a flat direction (a wall's constant value)
            break
        t = 1.0
        while True:
            zt = np.clip(z + t * d, lo, hi)
            if np.all(np.abs(zt - z) <= math.sqrt(eps) * np.maximum(np.abs(z), 1.0)):
                return J[0], zt if t == 1.0 else z
            Jt = jet(zt)
            if Jt[0] >= J[0] - 8.0 * eps * max(abs(J[0]), 1.0):
                break
            t /= 2.0
        z, J = zt, Jt
    return J[0], z


def _refine(dip: float, x0: float, v0: float, axis: str, q, mu, s) -> CatFit:
    """Fit the two-lobe cat-marginal model from the lobe reading; corrects the
    bias of the bare peak reading when the lobes overlap (small |alpha|^2)."""
    cost, y0 = _cat_cost_fn(q, mu, s), max(x0, 0.05) ** 2 / (2.0 * v0)
    best = max((_newton_max(lambda z, p=parity: cost(z, p) * -1.0, [y0, v0],
                            np.array([_Y_ODD if parity < 0 else 0.0, 1e-4]), np.full(2, np.inf))
                for parity in (+1, -1)), key=lambda r: r[0])
    yb, vl = (float(x) for x in best[1])
    xb = math.sqrt(2.0 * vl * yb)
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


def _kernel_diffs(W: PolyGaussian) -> list:
    """The polynomials p of W = P N's derivatives p N: P, P_x, P_p, P_xx, P_xp, P_pp,
    then D P, D^2 P, D P_x and D P_p for the squeeze generator D = -x d/dx + p d/dp,
    from d/du_i (f N) = (f_i - [C^-1 (u - m)]_i f) N, (D f)_x = D f_x - f_x and
    (D f)_p = D f_p + f_p."""
    if W.nvars != 2:
        raise ContractError("overlap is defined for 2-variable states")
    ci = np.linalg.inv(W.cov)

    def d(poly: MultiPoly, i: int) -> MultiPoly:
        return poly.diff(i) + _linear(ci[i] @ W.mean, -ci[i]) * poly

    def gen(fx: MultiPoly, fp: MultiPoly) -> MultiPoly:      # D f from f_x and f_p
        return _XP[1] * fp + (_XP[0] * fx).scale(-1.0)
    px, pp = d(W.poly, 0), d(W.poly, 1)
    pxx, pxp, ppp = d(px, 0), d(px, 1), d(pp, 1)
    Dpx, Dpp = gen(pxx, pxp), gen(pxp, ppp)
    return [W.poly, px, pp, pxx, pxp, ppp, gen(px, pp), gen(Dpx + px.scale(-1.0), Dpp + pp),
            Dpx, Dpp]


def best_cat_fidelity(W: PolyGaussian, axis: str) -> tuple[float, tuple]:
    """Fidelity against the best-fitting even squeezed cat on the given axis.

    Displaced states are recentred first.  Newton steps start from the lobe
    reading of that axis's exact marginal, alpha2 = x0^2 / (4 v0) and lobe_var = v0
    (or (2, 1/2) without two lobes), in the box 0.01 < alpha2, 0.02 < lobe_var <= 6;
    returns (F, (alpha2, lobe_var)).

    A P cat is the X cat of W with x and p swapped.  Each term of the X cat of
    amplitude a and lobe_var e^(2l) / 2 is N(S^-1 u; a e_k, I/2), S = diag(e^l, e^-l):
    d/da shifts it by -S e_k . grad and d/dl applies D = -x d/dx + p d/dp.  By parts,
    with O(f) = 2 pi int f term, G_a = O(S e_k . grad W), G_l = -O(D W), and so on to
    second order: one moment table of ten derivatives of W per Newton iterate."""
    Wc = normalize(translate(W, -W.mean)) if np.abs(W.mean).max() > 1e-9 else W
    _require_normalized(Wc)
    lobes = _lobes(*_marginal(Wc, int(axis == "p")))
    seed = (2.0, 0.5) if lobes is None else (lobes[1] ** 2 / (4.0 * lobes[2]), lobes[2])
    if axis == "p":
        Wc = PolyGaussian(Wc.cov[::-1, ::-1], Wc.mean[::-1], MultiPoly(Wc.poly.coef.T), Wc.norm)
    polys = _kernel_diffs(Wc)

    def jet(z):
        a2, v = z
        a = math.sqrt(a2)
        (w, means, cov, poly), = TargetState.cat(a, 1, lobe_var=v).terms
        c, E = _kernel_overlaps(Wc, polys, means, cov, poly)
        ex, ep = means[:, 0] / a, means[:, 1] / a        # S e_k
        O = c * E
        G = (O[0], ex * O[1] + ep * O[2], ex * ex * O[3] + 2.0 * ex * ep * O[4] + ep * ep * O[5],
             -O[6], O[7], ex * (O[1] - O[8]) - ep * (O[2] + O[9]))
        # weights h = 1 / (2 + 2 e) on |a><a| and |-a><-a|, 1/2 - h on the cross terms,
        # e = exp(-2 a^2): dh/da = 8 e h^2 a, d^2h/da^2 = 8 e h^2 (1 - 4 a^2 + 16 a^2 e h)
        e = math.exp(-2.0 * a2)
        h = 1.0 / (2.0 + 2.0 * e)
        dh = np.where(means[:, 1] == 0.0, 8.0, -8.0) * e * h * h
        w1, w2 = dh * a, dh * (1.0 - 4.0 * a2 + 16.0 * a2 * e * h)
        F, Fa, Faa, Fl, Fll, Fal = (Wc.norm * float(np.real(np.sum(x))) for x in (
            w * c * E[0], w1 * G[0] + w * G[1], w2 * G[0] + 2.0 * w1 * G[1] + w * G[2],
            w * G[3], w * G[4], w1 * G[3] + w * G[5]))
        # in (alpha2, lobe_var): a = sqrt(alpha2), l = ln(2 lobe_var) / 2
        return _Jet((F, Fa / (2.0 * a), Fl / (2.0 * v), (Faa - Fa / a) / (4.0 * a2),
                     Fal / (4.0 * a * v), (Fll - 2.0 * Fl) / (4.0 * v * v)))
    f, z = _newton_max(jet, seed, np.nextafter([0.01, 0.02], 1.0), np.array([np.inf, 6.0]))
    return _clip(float(f)), (float(z[0]), float(z[1]))


def best_fock_fidelity(W: PolyGaussian, n: int) -> tuple[float, float]:
    """Fidelity against the best squeezed Fock-n target, -10 <= squeeze_db <= 10;
    returns (F, squeeze_db).  Newton steps start at 0 dB.  The target is
    T(x / lam, lam p) with lam = 10^(db / 20), so the overlap's first and second
    derivatives in ln lam are -O(D W) and O(D^2 W) (best_cat_fidelity's D and O)."""
    _require_normalized(W)
    polys = operator.itemgetter(0, 6, 7)(_kernel_diffs(W))        # P, D P, D^2 P
    k = math.log(10.0) / 20.0          # d ln(lam) / d db

    def jet(z):      # the second variable is pinned at 0
        (w, means, cov, poly), = TargetState.fock(n, float(z[0])).terms
        c, E = _kernel_overlaps(W, polys, means, cov, poly)
        F, F1, F2 = (W.norm * float(np.real(np.sum(w * c * e))) for e in E)
        return _Jet((F, -k * F1, 0.0, k * k * F2, 0.0, 0.0))
    f, z = _newton_max(jet, [0.0, 0.0], np.array([-10.0, 0.0]), np.array([10.0, 0.0]))
    return _clip(float(f)), float(z[0])


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
