"""Two-mode Gaussian state algebra.

Covariance matrices of the mechanical/optical pair in the quadrature basis
(X_M, P_M, X_C, P_C) with X = (a + a')/sqrt(2), vacuum variance 1/2.  All
operations are pure: inputs are never mutated and every result is a fresh,
frozen array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import sqrtm

from .exceptions import DomainError, NumericalDomainError

CONVENTION_TAG = "XM,PM,XC,PC; hbar=1; vac=1/2"

# symplectic form, one {{0,1},{-1,0}} block per mode
OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
OMEGA.flags.writeable = False

SYMMETRY_RTOL = 1e-12
PHYS_TOL = 1e-9
CONDITION_WARN = 1e12


def _frozen(a):
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SqueezeSpec:
    """Linear squeezing factor of the input X quadrature variance (< 1 = squeezed)."""

    linear: float

    def __post_init__(self):
        if not 0 < self.linear < np.inf:
            raise DomainError(f"squeezing factor must be positive and finite, got {self.linear}")

    @classmethod
    def from_db(cls, db: float) -> "SqueezeSpec":
        try:
            return cls(10.0 ** (db / 10.0))
        except OverflowError:
            raise DomainError(f"squeezing of {db} dB overflows") from None

    @property
    def db(self) -> float:
        return 10.0 * np.log10(self.linear)


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """4x4 two-mode covariance matrix V."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (4, 4):
            raise DomainError(f"covariance matrix must be 4x4, got {m.shape}")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
            raise DomainError("covariance matrix is not symmetric")
        object.__setattr__(self, "entries", _frozen(0.5 * (m + m.T)))

    @property
    def V_M(self) -> np.ndarray:
        return self.entries[:2, :2]

    @property
    def V_C(self) -> np.ndarray:
        return self.entries[2:, 2:]

    @property
    def V_MC(self) -> np.ndarray:
        return self.entries[:2, 2:]

    def det(self) -> float:
        return float(np.linalg.det(self.entries))

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Symplectic spectrum (ascending); physical states have all >= 1/2."""
        # Hermitian route: eig(i S Omega S) with S = sqrt(V) is real and comes in
        # +-nu pairs; stabler than eig(i Omega V) for near-pure states.
        S = np.real(sqrtm(self.entries))
        K = 1j * (S @ OMEGA @ S)
        ev = np.linalg.eigvalsh(0.5 * (K + K.conj().T))
        return np.sort(ev[ev > 0.0])


@dataclass(frozen=True, eq=False)
class SigmaMatrix:
    """sigma = V^-1 / 2, the quadratic form of the Gaussian Wigner exponent."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (4, 4):
            raise DomainError(f"sigma matrix must be 4x4, got {m.shape}")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
            raise DomainError("sigma matrix is not symmetric")
        if np.linalg.eigvalsh(m).min() <= 0:
            raise DomainError("sigma matrix must be positive definite")
        object.__setattr__(self, "entries", _frozen(0.5 * (m + m.T)))

    # named elements used throughout the closed-form expressions
    @property
    def s11(self): return float(self.entries[0, 0])

    @property
    def s22(self): return float(self.entries[1, 1])

    @property
    def s33(self): return float(self.entries[2, 2])

    @property
    def s44(self): return float(self.entries[3, 3])

    @property
    def s13(self): return float(self.entries[0, 2])

    @property
    def s24(self): return float(self.entries[1, 3])


def _inv_with_condition_report(m: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(m)
    if cond > CONDITION_WARN:
        warnings.warn(f"{what}: condition number {cond:.2e} exceeds {CONDITION_WARN:.0e}; "
                      "result may lose precision", RuntimeWarning, stacklevel=3)
    return np.linalg.inv(m)


def sigma_from_cov(V: CovMatrix) -> SigmaMatrix:
    return SigmaMatrix(0.5 * _inv_with_condition_report(V.entries, "sigma_from_cov"))


def cov_from_sigma(sigma: SigmaMatrix) -> CovMatrix:
    return CovMatrix(0.5 * _inv_with_condition_report(sigma.entries, "cov_from_sigma"))


def initial_covariance(n_m: float, s: float) -> CovMatrix:
    """Pre-pulse covariance: thermal mechanics x optical input whose X variance
    is squeezed by the linear factor s."""
    if n_m < 0:
        raise DomainError(f"thermal occupation must be >= 0, got {n_m}")
    if not s > 0:
        raise DomainError(f"squeezing factor must be positive, got {s}")
    occ = 1.0 + 2.0 * n_m
    return CovMatrix(0.5 * np.diag([occ, occ, s, 1.0 / s]))


def check_physical(V: CovMatrix) -> tuple[bool, float]:
    """Uncertainty-relation guard: returns (physical?, minimal symplectic eigenvalue)."""
    nu = V.symplectic_eigenvalues()
    nu_min = float(nu.min())
    return nu_min >= 0.5 - PHYS_TOL, nu_min


def apply_symplectic(V: CovMatrix, U: np.ndarray) -> CovMatrix:
    """Congruence V -> U V U^T (U need not actually be symplectic)."""
    U = np.asarray(U, dtype=float)
    if U.shape != (4, 4):
        raise DomainError(f"expected a 4x4 matrix, got {U.shape}")
    return CovMatrix(U @ V.entries @ U.T)


def amplifier_block(g_quad: float, n_quad: float = 0.0) -> np.ndarray:
    """Optical-mode matrix of the phase-sensitive amplifier: diag(g, (1+n)/g).

    g_quad multiplies the X_C quadrature directly.
    """
    if not g_quad > 0:
        raise DomainError(f"amplifier gain must be positive, got {g_quad}")
    if n_quad < 0:
        raise DomainError(f"amplifier noise must be >= 0, got {n_quad}")
    return np.diag([g_quad, (1.0 + n_quad) / g_quad])


def amplifier_map(V: CovMatrix, g_quad: float, n_quad: float = 0.0) -> CovMatrix:
    """Apply the (noisy) amplifier congruence on the optical mode.

    For n_quad = 0 this is the symplectic squeeze diag(g, 1/g) and always maps
    physical states to physical states.  For n_quad > 0 it is the literal
    non-symplectic prescription, which is not a quantum channel and can push
    near-pure entangled states slightly below the uncertainty bound, which
    raises NumericalDomainError.
    """
    U = np.eye(4)
    U[2:, 2:] = amplifier_block(g_quad, n_quad)
    out = apply_symplectic(V, U)
    if n_quad > 0.0:
        ok, nu = check_physical(out)
        if not ok:
            raise NumericalDomainError(f"noisy amplifier output unphysical "
                                       f"(min symplectic eigenvalue {nu:.6f} < 1/2)")
    return out


def logarithmic_negativity(V: CovMatrix) -> float:
    """E_N from the partial-transpose symplectic eigenvalue of a two-mode state."""
    det_m = np.linalg.det(V.V_M)
    det_c = np.linalg.det(V.V_C)
    det_mc = np.linalg.det(V.V_MC)
    det_v = V.det()
    mu = det_m + det_c - 2.0 * det_mc
    disc = mu * mu - 4.0 * det_v
    if disc < 0:
        if disc < -1e-12 * max(mu * mu, 1.0):
            raise NumericalDomainError(
                f"PT eigenvalue discriminant negative ({disc:.3e}) for V =\n{V.entries}")
        disc = 0.0
    nu_t = np.sqrt((mu - np.sqrt(disc)) / 2.0)
    return float(max(0.0, -np.log(2.0 * nu_t)))


def epr_steering_MtoC(V: CovMatrix) -> float:
    """Gaussian M->C steering, vacuum-referenced: max{0, ln(det V_M / (4 det V)) / 2}."""
    det_v = V.det()
    if det_v <= 0:
        raise DomainError(f"det V must be positive, got {det_v}")
    det_m = np.linalg.det(V.V_M)
    return float(max(0.0, 0.5 * np.log(det_m / (4.0 * det_v))))


def require_xp_decoupled(sigma: SigmaMatrix, what: str):
    """The six-element closed forms assume no X-P cross correlations."""
    m = sigma.entries
    off = max(abs(m[0, 1]), abs(m[0, 3]), abs(m[1, 2]), abs(m[2, 3]))
    if off > 1e-10 * max(np.abs(m).max(), 1.0):
        raise DomainError(
            f"{what} requires an X/P-decoupled sigma matrix "
            f"(max cross element {off:.2e})")


def loss_channel_sigma(sigma: SigmaMatrix, eta: float) -> SigmaMatrix:
    """Transmission loss of the optical mode, as element maps on sigma."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"transmission efficiency must lie in [0, 1], got {eta}")
    require_xp_decoupled(sigma, "loss_channel_sigma")
    s11, s22, s33, s44 = sigma.s11, sigma.s22, sigma.s33, sigma.s44
    s13, s24 = sigma.s13, sigma.s24
    dx = eta + (1.0 - eta) * s33
    dp = eta + (1.0 - eta) * s44
    out = np.array(sigma.entries)
    out[0, 0] = s11 - (1.0 - eta) * s13 ** 2 / dx
    out[1, 1] = s22 - (1.0 - eta) * s24 ** 2 / dp
    out[2, 2] = s33 / dx
    out[3, 3] = s44 / dp
    out[0, 2] = out[2, 0] = np.sqrt(eta) * s13 / dx
    out[1, 3] = out[3, 1] = np.sqrt(eta) * s24 / dp
    return SigmaMatrix(out)


def loss_channel_cov(V: CovMatrix, eta: float) -> CovMatrix:
    """Same loss channel expressed on V (beam splitter with vacuum ancilla)."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"transmission efficiency must lie in [0, 1], got {eta}")
    T = np.diag([1.0, 1.0, np.sqrt(eta), np.sqrt(eta)])
    N = np.diag([0.0, 0.0, (1.0 - eta) / 2.0, (1.0 - eta) / 2.0])
    return CovMatrix(T @ V.entries @ T.T + N)
