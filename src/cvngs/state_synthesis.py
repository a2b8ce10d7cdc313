"""End-to-end engineered-photon-subtraction (EPS) pipelines and closed forms.

Gain convention: every stage gain g_A here is the reported-gain symbol, a
variance-domain multiplier of the X_C quadrature variance (dB = 10 log10 g_A).
The physical quadrature scaling applied in phase space is sqrt(g_A); the
amplifier's noise n_A multiplies the P_C variance by (1 + n_A)/g_A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .exceptions import ContractError, DomainError, ZeroWeightError
from .gaussian_core import (CovMatrix, SigmaMatrix, amplifier_block, cov_from_sigma,
                            loss_channel_sigma, sigma_from_cov)
from .phase_space import (MultiPoly, PolyGaussian, _expect, _linear, _photon_frame,
                          _project_frame, _subtract_in_frame, _subtract_over_u,
                          apply_linear_map, gaussian_wigner, normalize)

SQRT2 = math.sqrt(2.0)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise DomainError(f"cannot express non-positive gain {x} in dB")
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class EpsStage:
    """One amplifier + n-photon-subtraction stage."""

    g_A: float                 # variance-domain gain (linear)
    n: int = 2                 # subtracted photons
    n_A: float = 0.0           # amplifier noise (P_C variance excess)

    def __post_init__(self):
        if not self.g_A > 0:
            raise DomainError(f"stage gain must be positive, got {self.g_A}")
        if self.n < 0:
            raise DomainError(f"subtracted photon count must be >= 0, got {self.n}")
        if self.n_A < 0:
            raise DomainError(f"amplifier noise must be >= 0, got {self.n_A}")

    @property
    def g_db(self) -> float:
        return linear_to_db(self.g_A)

    @property
    def quad_gain(self) -> float:
        return math.sqrt(self.g_A)

    @property
    def quad_noise(self) -> float:
        # P_C variance multiplier (1+n_A)/g_A <=> quadrature multiplier (1+m)/sqrt(g_A)
        return math.sqrt(1.0 + self.n_A) - 1.0


@dataclass(frozen=True)
class MeasurementSpec:
    """Homodyne projection: direction theta (0 = X_C), outcome zeta, error eps,
    efficiency mu."""

    theta: float = 0.0
    zeta: float = 0.0
    eps: float = 0.1
    mu: float = 1.0

    def __post_init__(self):
        if self.eps <= 0:
            raise DomainError(f"measurement error must be positive, got {self.eps}")
        if not 0.0 < self.mu <= 1.0:
            raise DomainError(f"homodyne efficiency must lie in (0, 1], got {self.mu}")


@dataclass(frozen=True)
class PipelineSpec:
    """Full conditioning chain: transmission loss, EPS stages, dark counts,
    homodyne projection."""

    stages: tuple[EpsStage, ...] = ()
    measurement: MeasurementSpec = field(default_factory=MeasurementSpec)
    eta: float = 1.0
    dark_count: float = 1.0    # herald fidelity nu

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not 0.0 <= self.eta <= 1.0:
            raise DomainError(f"transmission efficiency must lie in [0, 1], got {self.eta}")
        if not 0.0 < self.dark_count <= 1.0:
            raise DomainError(f"herald fidelity must lie in (0, 1], got {self.dark_count}")


def eps_pipeline(V: CovMatrix, spec: PipelineSpec) -> PolyGaussian:
    """Run the full EPS chain on the two-mode Gaussian state V.

    Order: transmission loss -> per stage (amplify the kernel, subtract^n) ->
    dark-count mixing -> homodyne window along X_theta -> integral over the
    optical mode -> normalize.  Returns the 2-variable mechanical Wigner function.
    The state is f(w) N(u; 0, V_k) with w = M u + o.  The first stage that
    subtracts runs in its photon frame, f over lambda alone; a later one carries f
    over u itself, as its own frame would invert J and lose (1/s_min(J))^deg f
    to round-off.
    """
    if spec.eta < 1.0:
        V = cov_from_sigma(loss_channel_sigma(sigma_from_cov(V), spec.eta))
    cov, mean = gaussian_wigner(V).cov, np.zeros(4)
    f, M, o = np.ones((1, 1)), np.eye(4), np.zeros(4)
    for k, stage in enumerate(spec.stages):
        T = np.diag([1.0, 1.0, *np.diag(amplifier_block(stage.quad_gain, stage.quad_noise))])
        cov, M = T @ cov @ T.T, M @ np.linalg.inv(T)
        if not stage.n:
            continue
        M_k, o_k, J, c = _photon_frame(cov, mean)
        if f.size == 1:     # the first stage that subtracts: f over its lambda alone
            M, o, lam = M_k, o_k, None
        else:               # a later one: f over u
            f = MultiPoly(f.reshape(f.shape + (1,) * (4 - f.ndim))).substitute_linear(M, o).coef
            M, o, lam = np.eye(4), np.zeros(4), np.c_[o_k[:2], M_k[:2]]
        for _ in range(stage.n):
            unheralded = f      # a dark count fires one subtraction short
            f = _subtract_in_frame(f, J, c) if lam is None else _subtract_over_u(f, lam, c)
        # a killed state stays dead: one check after the stage's last subtraction
        if _frame_state(f, M, o, cov, mean).total_mass() <= 0:
            raise ZeroWeightError(
                f"zero-weight branch: subtraction in stage {k} annihilated the state")
    if spec.dark_count < 1.0 and spec.stages and spec.stages[-1].n > 0:
        f = dark_count_mix(_frame_state(f, M, o, cov, mean),
                           _frame_state(unheralded, M, o, cov, mean), spec.dark_count).poly.coef
    m = spec.measurement
    return normalize(_project_frame(f, M, o, cov, mean, m.theta, m.eps, m.zeta, m.mu))


def _frame_state(f, M, o, cov, mean) -> PolyGaussian:
    """f(w) N(u; mean, cov) pushed forward to w = M u + o (its first f.ndim rows)."""
    M, o = M[:f.ndim], o[:f.ndim]
    return PolyGaussian(M @ cov @ M.T, M @ mean + o, MultiPoly(f))


def dark_count_mix(W_heralded: PolyGaussian, W_unheralded: PolyGaussian,
                   nu: float) -> PolyGaussian:
    """Convex mixture nu * heralded + (1-nu) * unheralded of normalized branches.

    Both branches must share the same Gaussian kernel (they do whenever they
    differ only in subtraction count)."""
    if not 0.0 <= nu <= 1.0:
        raise DomainError(f"herald fidelity must lie in [0, 1], got {nu}")
    if W_heralded.nvars != W_unheralded.nvars:
        raise ContractError("dark-count branches live on different variable sets")
    if (not np.allclose(W_heralded.cov, W_unheralded.cov, rtol=1e-12, atol=1e-14)
            or not np.allclose(W_heralded.mean, W_unheralded.mean, atol=1e-12)):
        raise ContractError("dark-count branches must share the same Gaussian kernel")
    if nu == 1.0:
        return normalize(W_heralded)
    if nu == 0.0:
        return normalize(W_unheralded)
    zh = W_heralded.total_mass()
    zu = W_unheralded.total_mass()
    if zh <= 0 or zu <= 0:
        raise ZeroWeightError("cannot mix zero-weight branches")
    mixed = (W_heralded.poly.scale(nu * W_heralded.norm / zh)
             + W_unheralded.poly.scale((1.0 - nu) * W_unheralded.norm / zu))
    return PolyGaussian(W_heralded.cov, W_heralded.mean, mixed, 1.0)


# ---------------------------------------------------------------------------
# gain solving

def solve_gain(sigma: SigmaMatrix, xi: float) -> float:
    """Amplifier gain g_A = s33 - xi * s13^2 / s11 realizing the target xi."""
    if abs(sigma.s13) < 1e-12:
        raise DomainError("no X correlation (s13 = 0): xi is undefined")
    g = sigma.s33 - xi * sigma.s13 ** 2 / sigma.s11
    if g <= 0:
        raise DomainError(
            f"solved gain is not positive (g={g:.4e}) for xi={xi}; "
            f"s33={sigma.s33:.4f}, s13={sigma.s13:.4f}, s11={sigma.s11:.4f}")
    return float(g)


def xi_from_gain(sigma: SigmaMatrix, g_A: float) -> float:
    if abs(sigma.s13) < 1e-12:
        raise DomainError("no X correlation (s13 = 0): xi is undefined")
    return float((sigma.s33 - g_A) / (sigma.s13 ** 2 / sigma.s11))


# ---------------------------------------------------------------------------
# analytic wave-function route (pure gamma=0 states)

def phi_poly_coeffs(n: int, xi: float) -> np.ndarray:
    """Ascending coefficients of phi_{n,xi}(y) in y = X_M / sqrt(2/s11),
    valid for all real xi (polynomial form; no sqrt(xi) branch issues)."""
    out = np.zeros(n + 1)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = ((-1.0) ** k * math.factorial(n) * 2.0 ** (n - 2 * k)
                          / (math.factorial(k) * math.factorial(n - 2 * k))) * xi ** k
    return out


@dataclass(frozen=True, eq=False)
class WavefunctionXM:
    """Real mechanical wave function q(X - d) * exp(-s11 (X - d)^2 / 2), normalized;
    `coeffs` holds the ascending coefficients of q in y = X - d."""

    coeffs: np.ndarray = field(repr=False)
    s11: float = 1.0
    displacement: float = 0.0

    def _gauss_mean(self, q) -> float:
        # E[q(y)] against exp(-s11 y^2), i.e. y ~ N(0, 1/(2 s11))
        return _expect(q, 0.0, 0.5 / self.s11)

    def norm_constant(self) -> float:
        q = self.coeffs
        return math.sqrt(math.sqrt(math.pi / self.s11) * self._gauss_mean(P.polymul(q, q)))

    def __call__(self, x):
        y = np.asarray(x, dtype=float) - self.displacement
        return (P.polyval(y, self.coeffs) * np.exp(-self.s11 * y * y / 2.0)
                / self.norm_constant())

    def mean_phonons(self) -> float:
        """<m' m> = (<X^2> + <P^2> - 1)/2 of the normalized state; <P^2> is the
        integral of (psi')^2, and psi' = (q' - s11 y q) exp(-s11 y^2 / 2)."""
        q = self.coeffs
        xq = P.polymul([self.displacement, 1.0], q)
        dq = P.polysub(P.polyder(q), self.s11 * P.polymulx(q))
        return 0.5 * (self._gauss_mean(P.polyadd(P.polymul(xq, xq), P.polymul(dq, dq)))
                      / self._gauss_mean(P.polymul(q, q)) - 1.0)


def wavefunction_XM(sigma: SigmaMatrix, g_A: float, n: int,
                    zeta: float = 0.0) -> WavefunctionXM:
    """Closed-form mechanical wave function after an n-photon EPS with outcome
    X_C = zeta (pure-state route; exact for gamma = 0 covariances).

    Built by applying the annihilation operator (X_C + d/dX_C)/sqrt(2) n times
    to the amplified joint wave function and evaluating at X_C = zeta.  The
    zeta != 0 outcome displaces X_M by d = -zeta s13 / (sqrt(g_A) s11).
    """
    if abs(sigma.s13) < 1e-12:
        raise DomainError("no X correlation (s13 = 0)")
    if n < 0:
        raise DomainError(f"photon number must be >= 0, got {n}")
    s11 = sigma.s11
    s33a = sigma.s33 / g_A            # post-amplifier (variance-gain) sigma elements
    s13a = sigma.s13 / math.sqrt(g_A)

    # q(X, Y = X_C) times exp(-(s11 X^2 + s33a Y^2 + 2 s13a X Y)/2); one
    # annihilation maps q -> (((1 - s33a) Y - s13a X) q + dq/dY) / sqrt(2)
    step = _linear(0.0, [-s13a, 1.0 - s33a])
    q = MultiPoly.constant(2)
    for _ in range(n):
        q = (step * q + q.diff(1)).scale(1.0 / SQRT2)
    # at Y = zeta: exp(-(s11 X^2 + 2 s13a zeta X)/2) = exp(-s11 (X-d)^2/2) * const,
    # so re-centre the polynomial in X on y = X - d
    d = -s13a * zeta / s11
    coeffs = MultiPoly(P.polyval(zeta, q.coef.T)).substitute_linear(
        np.eye(1), [d]).coef
    if not coeffs.any():
        raise ZeroWeightError("wave function vanished (subtraction from vacuum)")
    return WavefunctionXM(coeffs, s11, d)


def conversion_rate_gamma(n: int, xi: float) -> float:
    """Remote photon-phonon conversion rate Gamma = <m' m>/n at s11 = 1.

    Symmetric about xi = 1/2 where it attains its maximum Gamma = 1.
    """
    if n < 1:
        raise DomainError(f"photon number must be >= 1, got {n}")
    # phi is expressed in y = X/sqrt(2/s11) = X/sqrt(2) at s11=1: rescale powers
    psi = WavefunctionXM(phi_poly_coeffs(n, xi) / SQRT2 ** np.arange(n + 1), 1.0, 0.0)
    return psi.mean_phonons() / n


# ---------------------------------------------------------------------------
# four-component cat cascade

def four_cat_conditions(xi1: float) -> float:
    """Second-stage target satisfying the C4-symmetry condition 5 xi1 + xi2 = 3."""
    return 3.0 - 5.0 * xi1


def four_cat_gains(sigma: SigmaMatrix, xi1: float) -> tuple[float, float]:
    """(g_A1, g_A2) for the cascaded 2-photon EPS pair; g_A2 solves
    xi2 = (s33 - g_A2 g_A1) / (s13^2 / s11)."""
    xi2 = four_cat_conditions(xi1)
    g1 = solve_gain(sigma, xi1)
    g2 = (sigma.s33 - xi2 * sigma.s13 ** 2 / sigma.s11) / g1
    if g2 <= 0:
        raise DomainError(f"second-stage gain not positive (g2={g2:.4e}) for xi1={xi1}")
    return g1, g2


def four_cat_pipeline(V: CovMatrix, xi1: float, measurement: MeasurementSpec) -> dict:
    """Two cascaded 2-photon EPS stages tuned to the four-component-cat condition.

    Returns the mechanical state, the stage gains, and fidelities against the
    ideal four-component cat of amplitude 1.6: `fidelity` is evaluated in the
    state's natural squeezing frame (X_M in units of sqrt(1/s11), the frame in
    which the C4 condition is derived); `fidelity_lab` uses lab coordinates.
    """
    from .metrics_targets import TargetState, fidelity

    sigma = sigma_from_cov(V)
    g1, g2 = four_cat_gains(sigma, xi1)
    spec = PipelineSpec(stages=(EpsStage(g1, 2), EpsStage(g2, 2)),
                        measurement=measurement)
    W = eps_pipeline(V, spec)

    target = TargetState.four_cat(1.6)
    f_lab = fidelity(W, target)
    # squeezing-frame fidelity: undo the mechanical squeeze X -> X sqrt(s11)
    lam = math.sqrt(sigma.s11)
    T = np.diag([lam, 1.0 / lam])
    W_frame = apply_linear_map(W, T)
    f_frame = fidelity(W_frame, target)
    return {"state": W, "g_A1": g1, "g_A2": g2, "xi2": four_cat_conditions(xi1),
            "fidelity": f_frame, "fidelity_lab": f_lab}


def four_cat_wavefunction(sigma: SigmaMatrix, xi1: float) -> WavefunctionXM:
    """Closed-form quartic wave function of the cascaded 2+2 EPS (gamma = 0)."""
    xi2 = four_cat_conditions(xi1)
    s11 = sigma.s11
    s2 = 1.0 / s11
    # quartic in y = X/s with s = sqrt(1/s11)
    coeffs = [2.0 * xi1 ** 2 + xi1 * xi2, 0.0, -(5.0 * xi1 + xi2) / s2, 0.0, 1.0 / s2 ** 2]
    return WavefunctionXM(np.array(coeffs), s11, 0.0)


# ---------------------------------------------------------------------------
# imperfection closed form and OPA gain

def imperfect_wigner_closed_form(sigma: SigmaMatrix, eps: float,
                                 mu: float) -> PolyGaussian:
    """Measured mechanical Wigner function of the 2-photon EPS in closed form.

    sigma is the post-amplifier (and post-transmission-loss) joint sigma
    matrix; eps and mu are the homodyne window error and efficiency.  The
    six coefficients are fixed against the exact pipeline (the d coefficient
    reads s24/s44, and the window error enters through its variance 2 eps^2).
    """
    if eps <= 0:
        raise DomainError(f"measurement error must be positive, got {eps}")
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"homodyne efficiency must lie in (0, 1], got {mu}")
    s11, s22, s33, s44 = sigma.s11, sigma.s22, sigma.s33, sigma.s44
    s13, s24 = sigma.s13, sigma.s24
    e2 = 2.0 * eps * eps
    den = mu + s33 - mu * s33 + e2 * s33
    if abs(den) < 1e-14:
        raise DomainError(f"degenerate measurement denominator ({den:.3e})")
    if abs(s44) < 1e-14:
        raise DomainError("sigma44 vanishes")
    a = s11 + (1.0 - mu + e2) * s13 ** 2 / (mu * (-1.0 + s33) - (1.0 + e2) * s33)
    b = s22 - s24 ** 2 / s44
    c = (1.0 + e2) * s13 / den
    d = s24 / s44
    e = (1.0 + e2) * (-1.0 + s33) / den
    f = (s44 - 1.0) / s44
    lam = e * e + f * f + 6.0 * e * f

    if a <= 0 or b <= 0:
        raise DomainError(f"Gaussian envelope not normalizable (a={a:.3e}, b={b:.3e})")

    # polynomial [(2F+ - 2e - 2f)^2 - 4(e-f)F- - lam] over (X_M, P_M)
    x2 = MultiPoly([[0.0], [0.0], [1.0]])
    p2 = MultiPoly([[0.0, 0.0, 1.0]])
    Fp = x2.scale(c * c) + p2.scale(d * d)
    Fm = x2.scale(c * c) + p2.scale(-d * d)
    core = Fp.scale(2.0) + MultiPoly.constant(2, -2.0 * e - 2.0 * f)
    quartic = core * core + Fm.scale(-4.0 * (e - f)) + MultiPoly.constant(2, -lam)

    cov = np.diag([1.0 / (2.0 * a), 1.0 / (2.0 * b)])
    return normalize(PolyGaussian(cov, np.zeros(2), quartic, 1.0))


def opa_gain(pump_ratio: float) -> float:
    """OPA amplitude-quadrature gain g_A = (1+x)^2/(1-x)^2 for x = chi2 L / kappa_A."""
    if not 0.0 <= pump_ratio < 1.0:
        raise DomainError(
            f"pump ratio must lie in [0, 1) (instability threshold), got {pump_ratio}")
    return (1.0 + pump_ratio) ** 2 / (1.0 - pump_ratio) ** 2
