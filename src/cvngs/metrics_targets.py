"""Ideal target states and quality metrics for synthesized mechanical states.

Targets are pure states held as sums of Gaussian terms (complex means for the
cat superpositions, a Laguerre polynomial for Fock states).  Fidelity against
a pure target is the phase-space overlap 2 pi * int(W W_t), computed exactly
term by term; the negativity is exact as well (phase_space).  Grids serve only
the cat-lobe fit and the squeezing estimate, which read a rendered field.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy.special import erf

from .exceptions import ContractError, DomainError
from .phase_space import (GridSpec, MultiPoly, PolyGaussian, _gauss_density,
                          evaluate_grid, overlap_terms, wigner_negativity)

SQRT2 = math.sqrt(2.0)
_ONE = MultiPoly.constant(2)

# truncated-second-moment correction for a +-2 sigma window of a Gaussian lobe
_PHI2 = math.exp(-2.0) / math.sqrt(2.0 * math.pi)
_MASS2 = erf(2.0 / SQRT2)
TRUNC_CORRECTION = 1.0 - 4.0 * _PHI2 / _MASS2


def _pair_weights(alphas, coeffs) -> list:
    """c_j c_k* <a_k|a_j> over all pairs (j, k); their sum is the squared norm."""
    return [cj * np.conj(ck) * np.exp(np.conj(ak) * aj - (abs(aj) ** 2 + abs(ak) ** 2) / 2.0)
            for cj, aj in zip(coeffs, alphas) for ck, ak in zip(coeffs, alphas)]


def _coherent_terms(alphas, coeffs, scale: float) -> tuple:
    """Wigner terms of the normalized sum_k c_k |alpha_k> with x scaled by
    `scale` (p by 1/scale): |a_j><a_k| gives <a_k|a_j> N(u; m_jk, cov) with the
    complex mean m_jk = ((a_j + a_k*) scale, -i (a_j - a_k*) / scale) / sqrt2."""
    weights = _pair_weights(alphas, coeffs)
    norm, cov = sum(weights).real, np.diag([scale * scale, 1.0 / (scale * scale)]) / 2.0
    return tuple((w / norm, np.array([(aj + np.conj(ak)) * scale,
                                      -1j * (aj - np.conj(ak)) / scale]) / SQRT2, cov, _ONE)
                 for w, (aj, ak) in zip(weights, product(alphas, alphas)))


def _coherent_superposition_psi(alphas, coeffs, scale: float):
    """psi(x) of the normalized sum_k c_k |alpha_k>, with x scaled by `scale`."""
    pref = math.pi ** -0.25 / math.sqrt(scale * sum(_pair_weights(alphas, coeffs)).real)

    def psi(x):
        y = np.asarray(x, dtype=float) / scale
        tot = np.zeros(np.shape(y), dtype=complex)
        for c, a in zip(coeffs, alphas):
            tot += c * np.exp(-y * y / 2.0 + SQRT2 * a * y
                              - a * a / 2.0 - abs(a) ** 2 / 2.0)
        return pref * tot
    return psi


def _fock_terms(n: int, lam: float) -> tuple:
    """One term: (-1)^n L_n(2 (x^2/lam^2 + lam^2 p^2)) N(u; 0, diag(lam^2, lam^-2)/2)."""
    poly = {}
    for k in range(n + 1):
        ck = (-1.0) ** (n + k) * math.comb(n, k) * 2.0 ** k / math.factorial(k)
        for j in range(k + 1):
            poly[(2 * j, 2 * (k - j))] = ck * math.comb(k, j) * lam ** (2 * (k - 2 * j))
    return ((1.0, np.zeros(2), np.diag([lam * lam, 1.0 / (lam * lam)]) / 2.0,
             MultiPoly(2, poly)),)


@dataclass(frozen=True)
class TargetState:
    """Pure reference state: cat, Fock, or four-component cat, with optional
    squeezing (coordinate scale lam: x -> x/lam, p -> p*lam along the stated axis).

    `terms` holds its Wigner function as Gaussian terms (weight, mean, cov,
    poly): 4 for a cat, 16 for a four-cat, one Laguerre term for a Fock state.
    """

    kind: str
    params: dict = field(repr=True)
    terms: tuple = field(init=False, repr=False, compare=False)

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
        return cls("cat", {"alpha": float(alpha), "parity": int(parity),
                           "lobe_var": float(lobe_var), "axis": axis})

    @classmethod
    def fock(cls, n: int, squeeze_db: float = 0.0) -> "TargetState":
        """Squeezed Fock state; squeeze_db scales the X variance by 10^(db/10)."""
        if n < 0:
            raise DomainError(f"Fock index must be >= 0, got {n}")
        return cls("fock", {"n": int(n), "squeeze_db": float(squeeze_db)})

    @classmethod
    def four_cat(cls, alpha0: float) -> "TargetState":
        """Equal superposition of coherent states at alpha0 e^{i(2k-1)pi/4}."""
        if alpha0 < 0:
            raise DomainError(f"amplitude must be >= 0, got {alpha0}")
        return cls("four_cat", {"alpha0": float(alpha0)})

    def __post_init__(self):
        if self.kind not in ("cat", "fock", "four_cat"):
            raise DomainError(f"unknown target kind {self.kind!r}")
        terms = (_fock_terms(self.params["n"], 10.0 ** (self.params["squeeze_db"] / 20.0))
                 if self.kind == "fock" else _coherent_terms(*self._superposition()))
        object.__setattr__(self, "terms", terms)

    def _superposition(self) -> tuple:
        """(alphas, coeffs, x scale) of a cat or a four-cat."""
        if self.kind == "four_cat":
            a0 = self.params["alpha0"]
            alphas = [a0 * np.exp(1j * (2 * k - 1) * math.pi / 4.0) for k in range(1, 5)]
            return alphas, [1.0] * 4, 1.0
        a, lam = self.params["alpha"], math.sqrt(2.0 * self.params["lobe_var"])
        coeffs = [1.0, float(self.params["parity"])]
        # a P cat is |i a> + parity |-i a> squeezed along p: x is scaled by 1/lam
        return ([a, -a], coeffs, lam) if self.params["axis"] == "x" else \
            ([1j * a, -1j * a], coeffs, 1.0 / lam)

    def wigner(self):
        """Callable W_t(x, p), normalized to integrate to 1: the sum of its terms."""
        def W(x, p):
            x, p = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
            u = np.stack([x.ravel(), p.ravel()], axis=1)
            return sum((w * _gauss_density(u, m, c)).real * q.evaluate(u)
                       for w, m, c, q in self.terms).reshape(x.shape)
        return W

    def wavefunction(self):
        """Callable psi(x) on the X axis (complex for P cats / four cats)."""
        if self.kind != "fock":
            return _coherent_superposition_psi(*self._superposition())
        n, lam = self.params["n"], 10.0 ** (self.params["squeeze_db"] / 20.0)
        from numpy.polynomial.hermite import hermval
        cvec = [0.0] * n + [1.0]

        def psi(x):
            y = np.asarray(x, dtype=float) / lam
            raw = hermval(y, cvec) * np.exp(-y * y / 2.0)
            nrm = math.sqrt(math.sqrt(math.pi) * lam * (2.0 ** n) * math.factorial(n))
            return raw / nrm
        return psi

    def wigner_grid(self, grid: GridSpec = GridSpec()) -> np.ndarray:
        return self.wigner()(*np.meshgrid(grid.axis, grid.axis, indexing="ij"))


# ---------------------------------------------------------------------------
# metrics

def _auto_grid(W: PolyGaussian, base: GridSpec = GridSpec()) -> GridSpec:
    sd = np.sqrt(np.diag(W.cov))
    need = float(max(abs(W.mean[0]) + 6.0 * sd[0], abs(W.mean[1]) + 6.0 * sd[1]))
    return GridSpec(-need, need, int(base.n * need / base.xmax) | 1) if need > base.xmax else base


def fidelity(W_state: PolyGaussian, target: TargetState) -> float:
    """F = <psi_t| rho |psi_t> = 2 pi int(W W_t), clipped to [0, 1]; exact,
    as a sum of Gaussian-moment integrals over the target's terms."""
    mass = W_state.total_mass()
    if abs(mass - 1.0) > 1e-6:
        raise ContractError(f"state not normalized (mass {mass:.6e})")
    f = overlap_terms(W_state, target.terms)
    clipped = min(max(f, 0.0), 1.0)
    if abs(f - clipped) > 1e-9:
        warnings.warn(f"fidelity clipped by {abs(f - clipped):.3e}", RuntimeWarning, stacklevel=2)
    return clipped


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


def _cat_marginal_model(ax, xbar, v, parity):
    """Marginal density of the ideal squeezed cat with lobes at +-xbar."""
    gp = np.exp(-(ax - xbar) ** 2 / (2.0 * v))
    gm = np.exp(-(ax + xbar) ** 2 / (2.0 * v))
    cross = 2.0 * parity * math.exp(-xbar ** 2 / (2.0 * v)) * np.exp(-ax ** 2 / (2.0 * v))
    dens = gp + gm + cross
    mass = dens.sum() * (ax[1] - ax[0])
    return dens / mass if mass > 0 else dens


def _fit_axis(m: np.ndarray, ax: np.ndarray) -> dict | None:
    step = ax[1] - ax[0]
    peaks = [i for i in range(1, len(m) - 1)
             if m[i] >= m[i - 1] and m[i] > m[i + 1] and m[i] > 0.2 * m.max()]
    if len(peaks) < 2:
        return None
    iL, iR = peaks[0], peaks[-1]
    if not (ax[iL] < -0.1 and ax[iR] > 0.1):
        return None

    def refine(i):
        y0, y1, y2 = m[i - 1], m[i], m[i + 1]
        den = y0 - 2.0 * y1 + y2
        return ax[i] + (0.5 * (y0 - y2) / den) * step if den != 0 else ax[i]

    xl, xr = refine(iL), refine(iR)
    mid = np.argmin(np.abs(ax - 0.5 * (xl + xr)))
    dip = float(m[mid] / min(m[iL], m[iR]))
    if dip > 0.98:
        return None

    # seed lobe variance: second moment in a +-2 sigma window, truncation-corrected,
    # started from a log-parabola curvature fit
    def lobe_variance(xp):
        sel = np.abs(ax - xp) < max(3 * step, 0.5)
        z = np.polyfit(ax[sel] - xp, np.log(np.maximum(m[sel], 1e-300)), 2)
        v = -1.0 / (2.0 * z[0]) if z[0] < 0 else 0.25
        for _ in range(3):
            half = 2.0 * math.sqrt(max(v, 1e-6))
            sel = np.abs(ax - xp) <= half
            w = m[sel]
            if w.sum() <= 0:
                break
            raw = float(np.sum(w * (ax[sel] - xp) ** 2) / np.sum(w))
            v = raw / TRUNC_CORRECTION
        return v

    v0 = 0.5 * (lobe_variance(xl) + lobe_variance(xr))
    x0 = 0.5 * (xr - xl)

    # refine against the two-lobe cat-marginal model; corrects the bias of the
    # bare peak reading when the lobes overlap (small |alpha|^2)
    from scipy.optimize import minimize

    dens = np.maximum(m, 0.0)
    mass = dens.sum() * step
    if mass > 0:
        dens = dens / mass

        def cost(q, parity):
            xb, lv = q
            if xb <= 0 or lv <= 1e-4:
                return 1e6
            return float(np.sum((_cat_marginal_model(ax, xb, lv, parity) - dens) ** 2))

        best = None
        for parity in (+1, -1):
            r = minimize(cost, [max(x0, 0.05), v0], args=(parity,),
                         method="Nelder-Mead",
                         options={"xatol": 1e-6, "fatol": 1e-12, "maxiter": 400})
            if best is None or r.fun < best.fun:
                best = r
        xb, vl = float(best.x[0]), float(best.x[1])
        if 0.2 * x0 < xb < 5.0 * max(x0, 0.1) and 0.05 * v0 < vl < 20.0 * v0:
            x0, v0 = xb, vl

    return {"x_star": x0, "lobe_var": v0,
            "alpha2": x0 ** 2 / (4.0 * v0), "dip": dip}


def cat_fit_field(field: np.ndarray, grid: GridSpec) -> CatFit | None:
    """Two-lobe fit on a rendered Wigner field (row-major [x, p])."""
    mx = field.sum(axis=1) * grid.step
    mp = field.sum(axis=0) * grid.step
    cands = {}
    for name, m in (("x", mx), ("p", mp)):
        r = _fit_axis(m, grid.axis)
        if r is not None:
            cands[name] = r
    if not cands:
        return None
    # prefer the axis with the deeper central dip (true cat lobes, not fringes)
    name = min(cands, key=lambda k: cands[k]["dip"])
    r = cands[name]
    return CatFit(name, r["x_star"], r["lobe_var"], r["alpha2"], r["dip"])


def cat_fit(W: PolyGaussian, grid: GridSpec | None = None) -> CatFit | None:
    """Locate the two-lobe structure; returns None when no cat structure exists."""
    g = grid or _auto_grid(W)
    field, _ = evaluate_grid(W, g)
    return cat_fit_field(field, g)


def cat_size(W: PolyGaussian, grid: GridSpec | None = None) -> float | None:
    """|alpha|^2 from the fitted lobes; None when no cat structure is resolved."""
    return getattr(cat_fit(W, grid), "alpha2", None)


def _variances(field: np.ndarray, grid: GridSpec) -> tuple[float, float]:
    ax, step = grid.axis, grid.step
    mx = field.sum(axis=1) * step
    mp = field.sum(axis=0) * step
    vx = float(np.sum(mx * ax ** 2) * step - (np.sum(mx * ax) * step) ** 2)
    vp = float(np.sum(mp * ax ** 2) * step - (np.sum(mp * ax) * step) ** 2)
    return vx, vp


def quadrature_variances(W: PolyGaussian, grid: GridSpec | None = None) -> tuple[float, float]:
    g = grid or _auto_grid(W)
    return _variances(evaluate_grid(W, g)[0], g)


def _squeezing(field: np.ndarray, grid: GridSpec, fit: CatFit | None,
               n: int | None, sigma11: float | None) -> dict:
    vx, vp = _variances(field, grid)
    out = {"min_var_db": 10.0 * math.log10(2.0 * min(vx, vp)),
           "var_x": vx, "var_p": vp, "method": "min_var"}
    if n is not None:
        out["fock_ref_db"] = 10.0 * math.log10(2.0 * min(vx, vp) / (2 * n + 1))
    if fit is not None:
        out["lobe_db"] = 10.0 * math.log10(2.0 * fit.lobe_var)
    if sigma11 is not None:
        out["sigma_fock_db"] = -10.0 * math.log10(sigma11)
        out["sigma_cat_db"] = -10.0 * math.log10(2.0 * sigma11)
    return out


def squeezing_estimate(W: PolyGaussian, n: int | None = None,
                       sigma11: float | None = None,
                       grid: GridSpec | None = None) -> dict:
    """Squeezing of the state in dB (negative = below vacuum), several methods.

    min_var_db:   10 log10(2 min(Var X, Var P))
    fock_ref_db:  10 log10(2 min Var / (2n+1)), given the Fock index n
    lobe_db:      10 log10(2 v_lobe) from the fitted cat lobes (if any)
    sigma_fock_db / sigma_cat_db: the mapping prescription -10 log10(sigma11)
                  and -10 log10(2 sigma11), given the pre-measurement sigma11
    """
    g = grid or _auto_grid(W)
    field, _ = evaluate_grid(W, g)
    return _squeezing(field, g, cat_fit_field(field, g), n, sigma11)


def best_cat_fidelity(W: PolyGaussian, axis: str, parity: int = 1,
                      seed: tuple[float, float] | None = None) -> tuple[float, tuple]:
    """Fidelity against the best-fitting squeezed cat on the given axis.

    Displaced states are recentred first; returns (F, (alpha2, lobe_var))."""
    from scipy.optimize import minimize

    from .phase_space import normalize, translate

    Wc = W
    if np.abs(W.mean).max() > 1e-9:
        Wc = normalize(translate(W, -W.mean))
    if seed is None:
        fit = cat_fit(Wc)
        seed = (fit.alpha2, fit.lobe_var) if fit is not None and fit.axis == axis \
            else (2.0, 0.5)

    def neg_f(q):
        a2, v = q
        if a2 <= 0.01 or v <= 0.02 or v > 6.0:
            return 1.0
        return -fidelity(Wc, TargetState.cat(math.sqrt(a2), parity,
                                             lobe_var=v, axis=axis))

    r = minimize(neg_f, list(seed), method="Nelder-Mead",
                 options={"xatol": 1e-4, "fatol": 1e-7})
    return -float(r.fun), (float(r.x[0]), float(r.x[1]))


def best_fock_fidelity(W: PolyGaussian, n: int) -> tuple[float, float]:
    """Fidelity against the best squeezed Fock-n target; returns (F, squeeze_db)."""
    from scipy.optimize import minimize_scalar

    r = minimize_scalar(lambda sdb: -fidelity(W, TargetState.fock(n, squeeze_db=float(sdb))),
                        bounds=(-10.0, 10.0), method="bounded")
    return -float(r.fun), float(r.x)


@dataclass(frozen=True)
class StateMetrics:
    """Quality summary of a synthesized mechanical state."""

    F: float | None
    delta: float
    alpha2: float | None
    squeeze_db: float | None
    parity: float
    method_tags: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.F is not None and self.F > 1.0 + 1e-9:
            raise DomainError(f"fidelity {self.F} exceeds 1")
        if self.delta < -1e-9:
            raise DomainError(f"negativity {self.delta} is negative")

    def to_json_dict(self) -> dict:
        return {"F": self.F, "delta": self.delta, "alpha2": self.alpha2,
                "squeeze_dB": self.squeeze_db,
                "parity": self.parity, "method_tags": self.method_tags}


def score_state(W: PolyGaussian, target: TargetState | None = None,
                n: int | None = None, sigma11: float | None = None) -> StateMetrics:
    """Convenience bundle: fidelity (if a target is given), negativity, cat size,
    squeezing estimate and parity indicator."""
    f = fidelity(W, target) if target is not None else None
    delta = wigner_negativity(W)
    g = _auto_grid(W)
    field, _ = evaluate_grid(W, g)
    fit = cat_fit_field(field, g)
    sq = _squeezing(field, g, fit, n, sigma11)
    tags = {"squeeze": sq} if fit is None else {
        "squeeze": sq, "cat_axis": fit.axis, "cat_dip": fit.dip_ratio}
    sq_db = sq["min_var_db"] if fit is None else sq.get("lobe_db")
    return StateMetrics(F=f, delta=delta, alpha2=None if fit is None else fit.alpha2,
                        squeeze_db=sq_db, parity=parity_indicator(W), method_tags=tags)
