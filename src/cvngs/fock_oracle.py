"""Brute-force Fock-basis oracle for verifying the phase-space pipeline.

Simulates the whole protocol in the truncated Fock basis, d = N + 1: squeezed
input, effective beam splitter, amplifier (squeeze unitary), photon
subtraction, loss (Kraus), windowed homodyne projection, and Wigner rendering.
A state is held as a square-root factor A of its density matrix, rho = A A^dagger,
with A of shape (d, d, r) over (m, c, column) for two modes.  The beam splitter
is a recurrence, exact in the box; the squeezes are the only matrix exponentials.
Every channel acts on the optical axis c of A at O(d^3 r) or less, and the Wigner
map reads A on a lattice; no d^2 x d^2 matrix is formed.
The noisy amplifier (n_A > 0) is not completely positive, so it is the one
pipeline feature the oracle cannot check.  The `oracle` command and the tests
use it as an independent cross-check; no golden file comes from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import comb

from .exceptions import DomainError, TruncationError, ZeroWeightError
from .gaussian_core import CovMatrix
from .phase_space import GridSpec, _hermite_functions
from .pulse_dynamics import PulseSpec, SystemParams

DEFAULT_TRUNCATION = 40
EDGE_POP_TOL = 1e-6
MAX_LATTICE = 4096     # lattice points of wigner_from_density, which holds (d, lattice) arrays


def _annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _squeeze_unitary(dim: int, r: float) -> np.ndarray:
    """S(r) = exp(r (a^2 - a'^2)/2): maps X -> e^{-r} X."""
    a = _annihilation(dim)
    return expm(0.5 * r * (a @ a - a.T @ a.T))


@dataclass(frozen=True, eq=False)
class FockState:
    """Truncated state over one or two modes as a square-root factor of its
    density matrix, rho = A A^dagger: `amps` A has shape (d, d, r) over
    (m, c, column) for two modes and (d, r) for one, d = N + 1."""

    amps: np.ndarray = field(kw_only=True, repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amps)
        if amps.ndim not in (2, 3) or amps.shape[:-1] != amps.shape[:1] * (amps.ndim - 1):
            raise DomainError(f"factor has shape {amps.shape}, expected (d, r) or (d, d, r)")
        object.__setattr__(self, "amps", amps)

    @classmethod
    def from_density(cls, rho: np.ndarray, truncation: int, n_modes: int) -> "FockState":
        """Factor a dense (d^modes, d^modes) density matrix by eigh; rejects a
        non-Hermitian or a non-PSD rho."""
        dim = (truncation + 1) ** n_modes
        rho = np.asarray(rho)
        if rho.shape != (dim, dim):
            raise DomainError(f"density matrix has shape {rho.shape}, expected {dim}")
        if np.abs(rho - rho.conj().T).max() > 1e-10 * max(np.abs(rho).max(), 1e-30):
            raise DomainError("density matrix is not Hermitian")
        lam, U = np.linalg.eigh(0.5 * (rho + rho.conj().T))
        if lam[0] < -1e-10 * max(lam[-1], 0.0):
            raise DomainError(f"density matrix is not positive (eigenvalue {lam[0]:.3e})")
        keep = lam > 0
        amps = U[:, keep] * np.sqrt(lam[keep])
        return cls(amps=amps.reshape((truncation + 1,) * n_modes + (-1,)))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    @property
    def truncation(self) -> int:
        return self.dim - 1

    @property
    def n_modes(self) -> int:
        return self.amps.ndim - 1

    def density(self) -> np.ndarray:
        A = self.amps.reshape(self.dim ** self.n_modes, -1)
        return A @ A.conj().T

    def trace(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def normalized(self) -> "FockState":
        tr = self.trace()
        if tr <= 0:
            raise ZeroWeightError("state has non-positive trace")
        return FockState(amps=self.amps / math.sqrt(tr))

    def check_edge_population(self):
        edges = (np.take(self.amps, -1, axis=k) for k in range(self.n_modes))
        pop = sum(float(np.vdot(e, e).real) for e in edges)
        tr = max(self.trace(), 1e-300)
        if pop / tr > EDGE_POP_TOL:
            raise TruncationError(
                f"edge population {pop / tr:.2e} exceeds {EDGE_POP_TOL}")

    def reduced_mechanical(self) -> "FockState":
        return FockState(amps=self.amps.reshape(self.dim, -1))

    def mean_photons(self) -> float:
        """<n> of a single-mode state (normalized)."""
        st = self.normalized()
        return float(np.arange(st.dim) @ np.sum(np.abs(st.amps) ** 2, axis=-1))

    def quadrature_covariance(self) -> np.ndarray:
        """Symmetrized second moments (zero-mean states) in (X_M, P_M[, X_C, P_C]):
        Re <Q_i A, Q_j A> / tr, the quadratures acting on one axis of the factor."""
        a = _annihilation(self.dim)
        quads = [(a + a.T) / math.sqrt(2.0), (a - a.T) / (1j * math.sqrt(2.0))]
        tr = self.trace()
        if tr <= 0:
            raise ZeroWeightError("state has non-positive trace")
        QA = [np.tensordot(q, self.amps, axes=1) for q in quads]     # on m
        if self.n_modes == 2:
            QA += [_on_c(q, self.amps) for q in quads]
        return np.array([[np.vdot(u, v).real for v in QA] for u in QA]) / tr


def build_entangled_state(params: SystemParams, pulse: PulseSpec,
                          truncation: int = DEFAULT_TRUNCATION) -> FockState:
    """Exact gamma = 0 construction: squeezed vacuum scattered off the mechanics.

    The effective beam splitter maps m -> sqrt(R) m - sqrt(T) c and
    c -> -(sqrt(T) m + sqrt(R) c); a creation-operator recurrence applies it,
    exact for every in-box amplitude, and the input squeeze is the one matrix
    exponential.  Thermal initial mechanics (n_m > 0) is supported; gamma > 0
    requires the environment modes and is validated at the second-moment
    level via scattering_covariance instead.
    """
    if params.gamma_mhz != 0.0:
        raise DomainError("full Fock oracle requires gamma = 0; "
                          "use scattering_covariance for gamma > 0 moments")
    d = truncation + 1
    r_sq = -0.5 * math.log(params.squeeze.linear)
    sq = _squeeze_unitary(d, r_sq)[:, 0]

    nb = params.n_m
    p = (nb / (1.0 + nb)) ** np.arange(d)      # thermal weights, vacuum at n_m = 0
    p /= p.sum()
    # column k of psi is P U (|k> (x) sq), U the beam splitter and P the optical
    # parity (-1)^c, and sqrt(p_k) psi_k are the columns of the factor; weights
    # below double precision of p_0 are dropped, which keeps the thermal rank small
    r = int(np.count_nonzero(p > np.finfo(float).eps * p[0]))    # p falls with k
    # P U |0, c> = (-1)^c (sin m' + cos c')^c / sqrt(c!) |0, 0>, cos = sqrt(R):
    # the amplitude of |i, l> is sq_(i+l) (-1)^(i+l) sqrt(C(i+l, i)) sin^i cos^l
    cos, sin = math.sqrt(pulse.R), math.sqrt(pulse.T)
    i, l = np.ogrid[:d, :d]
    n = i + l                                   # up to 2N photons; sq stops at N
    sq_n = np.concatenate([sq, np.zeros(d - 1)])[n]
    psi = np.zeros((d, d, r))
    psi[..., 0] = (-1.0) ** n * sq_n * np.sqrt(comb(n, i)) * sin ** i * cos ** l
    # P U m' U' P = cos m' - sin c', and |k + 1> = m' |k> / sqrt(k + 1)
    sqrt_n = np.sqrt(np.arange(1.0, d))
    for k in range(r - 1):
        psi[1:, :, k + 1] = (cos / math.sqrt(k + 1.0)) * sqrt_n[:, None] * psi[:-1, :, k]
        psi[:, 1:, k + 1] -= (sin / math.sqrt(k + 1.0)) * sqrt_n * psi[:, :-1, k]
    st = FockState(amps=psi * np.sqrt(p[:r]))
    st.check_edge_population()
    return st


def scattering_covariance(params: SystemParams, pulse: PulseSpec) -> CovMatrix:
    """Independent second-moment oracle from the quadrature scattering relations.

    Works for any gamma >= 0 by orthogonalizing the overlapping temporal modes:
    the falling-exponential modes are split into their projection onto the
    rising-exponential ones (overlap w = 2 G tau sqrt(R) / T) plus an
    independent remainder.  Input modes: M_in, C_in, C_perp, M_env, M_perp.
    """
    R, T = pulse.R, pulse.T
    r1 = params.g_mhz ** 2 / (params.kappa_mhz * params.G_mhz)
    r2 = params.gamma_mhz / params.G_mhz
    w = -math.log(R) * math.sqrt(R) / T
    w_perp = math.sqrt(max(1.0 - w * w, 0.0))

    # per-quadrature linear map rows: (M_in, C_in, C_perp, M_env, M_perp)
    m_row = np.array([math.sqrt(R), -math.sqrt(T * r1), 0.0, -math.sqrt(T * r2), 0.0])
    # C_out = -( sqrt(T r1) M_in + [r1 sqrt(R) + (1-r1) w] C_in + (1-r1) w_perp C_perp
    #            + sqrt(r1 r2) (sqrt(R) - w) M_env - sqrt(r1 r2) w_perp M_perp )
    c_row = -np.array([math.sqrt(T * r1),
                       r1 * math.sqrt(R) + (1.0 - r1) * w,
                       (1.0 - r1) * w_perp,
                       math.sqrt(r1 * r2) * (math.sqrt(R) - w),
                       -math.sqrt(r1 * r2) * w_perp])
    occ = 1.0 + 2.0 * params.n_m
    s = params.squeeze.linear
    var_x = np.array([occ, s, s, occ, occ]) / 2.0
    var_p = np.array([occ, 1.0 / s, 1.0 / s, occ, occ]) / 2.0

    V = np.zeros((4, 4))
    rows = [m_row, c_row]
    for i in range(2):
        for j in range(2):
            V[2 * i, 2 * j] = rows[i] @ (var_x * rows[j])
            V[2 * i + 1, 2 * j + 1] = rows[i] @ (var_p * rows[j])
    return CovMatrix(V)


# ---------------------------------------------------------------------------
# channels: each acts on the optical axis c of the (m, c, column) factor


def _on_c(op: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """op on the optical axis c of a (m, c, column) factor, batched over m:
    the factor of (I (x) op) rho (I (x) op)^dagger."""
    return np.matmul(op, amps)


def _two_mode(state: FockState, what: str):
    if state.n_modes != 2:
        raise DomainError(f"{what} acts on the two-mode state")


def apply_amplifier(state: FockState, g_quad: float) -> FockState:
    """Quadrature squeeze X_C -> g X_C.  The noiseless amplifier only: the noisy
    congruence has no unitary dilation (it is not completely positive)."""
    _two_mode(state, "amplifier")
    if g_quad <= 0:
        raise DomainError(f"gain must be positive, got {g_quad}")
    S = _squeeze_unitary(state.dim, -math.log(g_quad))
    out = FockState(amps=_on_c(S, state.amps))
    out.check_edge_population()
    return out


def apply_annihilate_C(state: FockState) -> FockState:
    """a rho a' on the optical mode: a sqrt(c+1)-scaled shift of the factor's
    c axis; keeps the (trace) weight of the branch."""
    _two_mode(state, "photon subtraction")
    A = state.amps
    out = np.zeros_like(A)
    out[:, :-1] = A[:, 1:] * np.sqrt(np.arange(1.0, state.dim))[:, None]
    out = FockState(amps=out)
    if out.trace() <= 1e-14:
        raise ZeroWeightError("subtraction annihilated the state (optical vacuum)")
    return out


def _loss_amplitudes(dim: int, eta: float) -> np.ndarray:
    """a[k, i] with K_k |i + k> = a[k, i] |i> for the loss Kraus operators
    K_k = sqrt((1-eta)^k/k!) eta^(n/2) a^k: a[k, i]^2 = C(i+k, k) (1-eta)^k eta^i."""
    ks, i = np.ogrid[:dim, :dim]
    return np.sqrt(comb(i + ks, ks) * (1.0 - eta) ** ks * eta ** i)


def apply_loss(state: FockState, eta: float) -> FockState:
    """Loss channel on the optical mode: the blocks K_k A, each a shift of the
    c axis by k, are stacked on the column axis, so r -> d r."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"transmission efficiency must lie in [0, 1], got {eta}")
    _two_mode(state, "loss")
    if eta == 1.0:
        return state
    d, A = state.dim, state.amps
    a = _loss_amplitudes(d, eta)
    out = np.zeros((d, d, d, A.shape[-1]), A.dtype)     # (m, c, k, column)
    for k in range(d):
        out[:, :d - k, k] = a[k, :d - k, None] * A[:, k:]
    return FockState(amps=out.reshape(d, d, -1))


def _loss_adjoint(Pi: np.ndarray, eta: float) -> np.ndarray:
    """L_eta^dagger(Pi) = sum_k K_k^T Pi K_k: exact in the truncated space,
    where every K_k maps the space into itself."""
    d = Pi.shape[0]
    a = _loss_amplitudes(d, eta)
    out = np.zeros_like(Pi)
    for k in range(d):
        out[k:, k:] += a[k, :d - k, None] * Pi[:d - k, :d - k] * a[k, :d - k]
    return out


@functools.lru_cache(maxsize=8)
def _hermgauss(deg: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.hermite.hermgauss(deg)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _window_povm(dim: int, zeta: float, eps: float) -> np.ndarray:
    """Pi = int w(x) |x><x| dx with w = exp(-(x-zeta)^2/(2 eps^2)), computed by
    Gauss-Hermite quadrature on the combined Gaussian weight (exact for the
    truncated basis).  w <= 1, so Pi <= I and the channel is trace
    non-increasing; the constant weight convention of the phase-space window
    cancels on normalization."""
    alpha = 1.0 + 1.0 / (2.0 * eps * eps)
    beta = zeta / (eps * eps)
    gamma = zeta * zeta / (2.0 * eps * eps)
    nodes, weights = _hermgauss(max(64, dim + 12))
    xs = nodes / math.sqrt(alpha) + beta / (2.0 * alpha)
    psi = _hermite_functions(xs, dim - 1)
    # e^{-x^2} e^{-(x-zeta)^2/2eps^2} = e^{-alpha x^2 + beta x - gamma}; the GH
    # weight supplies e^{-t^2} after x = t/sqrt(alpha) + beta/(2 alpha)
    pref = np.exp(beta * beta / (4.0 * alpha) - gamma) / math.sqrt(alpha)
    # psi_m psi_n e^{x^2} carries the polynomial part
    poly = psi * np.exp(xs * xs / 2.0)[None, :]
    return pref * np.einsum("mx,x,nx->mn", poly, weights, poly)


def apply_homodyne_window(state: FockState, zeta: float, eps: float,
                          mu: float = 1.0) -> FockState:
    """Windowed X_C homodyne: POVM on C then partial trace.  mu < 1 is a
    pre-loss, folded into the POVM as L_mu^dagger(Pi)."""
    _two_mode(state, "homodyne")
    if eps <= 0:
        raise DomainError(f"measurement error must be positive, got {eps}")
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"efficiency must lie in (0, 1], got {mu}")
    d, A = state.dim, state.amps
    Pi = _window_povm(d, zeta, eps)
    if mu < 1.0:
        Pi = _loss_adjoint(Pi, mu)
    # rho_m = Tr_c[(I (x) Pi) rho] = (Pi on c of A) A^dagger, over (m, (c, column))
    rho_m = _on_c(Pi, A).reshape(d, -1) @ A.reshape(d, -1).conj().T
    if np.trace(rho_m).real <= 1e-16:
        raise ZeroWeightError("homodyne window has vanishing overlap with the state")
    return FockState.from_density(rho_m, state.truncation, 1)


def wigner_from_density(state: FockState, grid: GridSpec = GridSpec()) -> np.ndarray:
    """W(x, p) of a single-mode density matrix on the grid (row-major [x, p])."""
    if state.n_modes != 1:
        raise DomainError("wigner_from_density expects the reduced single-mode state")
    st = state.normalized()
    A, d = st.amps, st.dim
    # psi_m(x + y/2) psi_n(x - y/2) e^{-ipy} is band-limited in y to
    # sqrt(2d + 1) + |p|.  The y step resolves that band four times over and
    # divides 2 x (grid step), so every x +- y/2 lies on one lattice u of
    # spacing dy/2, where the psi_n are evaluated once.
    band = math.sqrt(2.0 * d + 1.0) + max(abs(grid.xmin), abs(grid.xmax))
    q = math.ceil(4.0 * grid.step * band / math.pi)
    dy = 2.0 * grid.step / q
    K = math.ceil(min(2.0 * (math.sqrt(2.0 * d + 1.0) + 4.0) / dy, MAX_LATTICE))
    L = q * (grid.n - 1) + 2 * K + 1        # the u lattice, long for a wide or a fine grid
    if L > MAX_LATTICE:
        raise DomainError(f"{grid} needs a {L}-point lattice, above {MAX_LATTICE}")
    if A.shape[1] > d:                      # rho = A A' = R' R, R the (d, d) factor of A'
        A = np.linalg.qr(A.conj().T, mode="r").conj().T
    u = grid.xmin + (np.arange(L) - K) * (dy / 2.0)
    phi = A.T @ _hermite_functions(u, d - 1)    # <u_a|A_col>, (r, L)
    # M[a, k] = <x_a + y_k/2|rho|x_a - y_k/2> for k >= 0, read through windows of
    # K + 1 lattice points that start q apart, the backward ones on a reversed
    # copy of the lattice; k < 0 is its conjugate
    windows = functools.partial(np.lib.stride_tricks.sliding_window_view,
                                window_shape=K + 1, axis=1)
    fwd = windows(phi)[:, K::q][:, :grid.n]
    bwd = windows(phi[:, ::-1].conj())[:, L - 1 - K::-q][:, :grid.n]
    M = np.einsum("cak,cak->ak", fwd, bwd)
    M[:, 1:] *= 2.0
    yp = np.outer(dy * np.arange(K + 1), grid.axis)   # Re(M e^{-i y p})
    W = M.real @ np.cos(yp)
    if np.iscomplexobj(M):
        W += M.imag @ np.sin(yp)
    return W * (dy / (2.0 * math.pi))


def run_eps_oracle(params: SystemParams, pulse: PulseSpec, g_A_var: float,
                   n_sub: int, eta: float = 1.0, mu: float = 1.0,
                   nu: float = 1.0, eps: float = 0.1, zeta: float = 0.0,
                   truncation: int = DEFAULT_TRUNCATION,
                   state: FockState | None = None) -> FockState:
    """Full pipeline in the Fock basis, mirroring eps_pipeline's ordering.

    g_A_var is the variance-domain stage gain (the quadrature unitary applies
    sqrt(g_A_var)).  Pass a prebuilt `state` to reuse the entangled input.
    """
    st = state if state is not None else build_entangled_state(params, pulse, truncation)
    if eta < 1.0:
        st = apply_loss(st, eta)
    # with dark counts the n-1 click branch is the heralded chain one step short
    unheralded = apply_amplifier(st, math.sqrt(g_A_var))
    for _ in range(n_sub - 1):
        unheralded = apply_annihilate_C(unheralded)
    heralded = apply_annihilate_C(unheralded) if n_sub > 0 else unheralded
    if nu < 1.0 and n_sub > 0:
        # the mixture nu rho_h / tr_h + (1 - nu) rho_u / tr_u, stacked as columns
        amps = np.concatenate(
            [math.sqrt(nu / heralded.trace()) * heralded.amps,
             math.sqrt((1.0 - nu) / unheralded.trace()) * unheralded.amps], axis=-1)
        heralded = FockState(amps=amps)
    return apply_homodyne_window(heralded, zeta, eps, mu).normalized()
