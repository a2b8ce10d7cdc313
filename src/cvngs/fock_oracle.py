"""Brute-force Fock-basis oracle for verifying the phase-space pipeline.

Simulates the whole protocol on truncated two-mode density matrices: squeezed
input, effective beam splitter, amplifier (squeeze unitary), photon
subtraction, loss (Kraus), windowed homodyne projection, and Wigner rendering.
Channels act on the optical axes (c, c') of the (m, c, m', c') tensor of the
two-mode density matrix, d = N + 1, at O(d^5) or less; no d^2 x d^2 operator
is formed.  The noisy amplifier (n_A > 0) is not completely positive, so it is
the one pipeline feature the oracle cannot check.  Used by tests and
golden-file generation only; never the primary path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from .exceptions import DomainError, TruncationError, ZeroWeightError
from .gaussian_core import CovMatrix
from .phase_space import GridSpec
from .pulse_dynamics import PulseSpec, SystemParams

DEFAULT_TRUNCATION = 40
EDGE_POP_TOL = 1e-6


def _annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _squeeze_unitary(dim: int, r: float) -> np.ndarray:
    """S(r) = exp(r (a^2 - a'^2)/2): maps X -> e^{-r} X."""
    a = _annihilation(dim)
    return expm(0.5 * r * (a @ a - a.T @ a.T))


def _bs_sectors(dim: int, R: float):
    """exp(-theta (m'c - mc')) with cos(theta) = sqrt(R): m -> sqrt(R) m - sqrt(T) c.

    The generator conserves n_m + n_c, so the unitary is block diagonal over
    the total-photon-number sectors.  Yields (n_tot, ks, block): block acts on
    the sector basis |k, n_tot - k>, k in ks, which sits at the flat two-mode
    indices ks * dim + (n_tot - ks).
    """
    theta = math.acos(math.sqrt(R))
    for n_tot in range(2 * dim - 1):
        ks = np.arange(max(0, n_tot - dim + 1), min(n_tot, dim - 1) + 1)
        # generator on |k, n-k>: m'c |k, n-k> = sqrt((k+1)(n-k)) |k+1, n-k-1>
        sub = np.sqrt((ks[:-1] + 1.0) * (n_tot - ks[:-1]))
        G = np.diag(sub, -1)
        yield n_tot, ks, expm(-theta * (G - G.T))


def _hermite_functions(xs: np.ndarray, nmax: int) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions psi_n(x), vacuum variance 1/2."""
    out = np.zeros((nmax + 1, len(xs)))
    out[0] = math.pi ** -0.25 * np.exp(-xs ** 2 / 2.0)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * xs * out[0]
    for n in range(2, nmax + 1):
        out[n] = (math.sqrt(2.0 / n) * xs * out[n - 1]
                  - math.sqrt((n - 1.0) / n) * out[n - 2])
    return out


@dataclass(frozen=True)
class FockState:
    """Truncated density matrix over one or two modes (dimension (N+1)^modes)."""

    rho: np.ndarray = field(repr=False)
    truncation: int
    n_modes: int
    weight: float = 1.0     # running success weight of trace-decreasing channels

    def __post_init__(self):
        dim = (self.truncation + 1) ** self.n_modes
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (dim, dim):
            raise DomainError(f"density matrix has shape {rho.shape}, expected {dim}")
        # Hermiticity check and symmetrization by row panels: each panel's
        # adjoint is formed once, and the temporaries stay in cache
        sym = np.empty_like(rho)
        worst = scale = 0.0
        for i in range(0, dim, self.dim):
            top, adj = rho[i:i + self.dim], rho[:, i:i + self.dim].conj().T
            worst = max(worst, np.abs(top - adj).max())
            scale = max(scale, np.abs(top).max())
            np.add(top, adj, out=sym[i:i + self.dim])
        if worst > 1e-10 * max(scale, 1e-30):
            raise DomainError("density matrix is not Hermitian")
        sym *= 0.5
        sym.flags.writeable = False
        object.__setattr__(self, "rho", sym)

    @property
    def dim(self) -> int:
        return self.truncation + 1

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def normalized(self) -> "FockState":
        tr = self.trace()
        if tr <= 0:
            raise ZeroWeightError("state has non-positive trace")
        return FockState(self.rho / tr, self.truncation, self.n_modes,
                         self.weight * tr)

    def check_edge_population(self):
        d = self.dim
        if self.n_modes == 1:
            pop = float(np.real(self.rho[d - 1, d - 1]))
        else:
            r4 = self.rho.reshape(d, d, d, d)
            pop = float(np.real(r4[d - 1, :, d - 1, :].trace()
                                + r4[:, d - 1, :, d - 1].trace()))
        tr = max(self.trace(), 1e-300)
        if pop / tr > EDGE_POP_TOL:
            raise TruncationError(
                f"edge population {pop / tr:.2e} exceeds {EDGE_POP_TOL}",
                suggested=2 * self.truncation)

    def reduced_mechanical(self) -> "FockState":
        if self.n_modes == 1:
            return self
        d = self.dim
        r4 = self.rho.reshape(d, d, d, d)
        rho_m = np.einsum("mcnc->mn", r4)
        return FockState(rho_m, self.truncation, 1, self.weight)

    def mean_photons(self) -> float:
        """<n> of a single-mode state (normalized)."""
        st = self.normalized()
        return float(np.real(np.sum(np.arange(st.dim) * np.diag(st.rho))))

    def quadrature_covariance(self) -> np.ndarray:
        """Symmetrized second moments (zero-mean states) in (X_M, P_M[, X_C, P_C])."""
        d = self.dim
        a = _annihilation(d)
        quads = [(a + a.T) / math.sqrt(2.0), (a - a.T) / (1j * math.sqrt(2.0))]
        tr = self.trace()
        if tr <= 0:
            raise ZeroWeightError("state has non-positive trace")
        r4 = self.rho.reshape(d, d, d, d) if self.n_modes == 2 else None  # (m, c, m', c')
        reduced = ([self.rho] if r4 is None else
                   [np.einsum("mcnc->mn", r4), np.einsum("mcmd->cd", r4)])
        n = 2 * self.n_modes
        V = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                qi, qj = quads[i % 2], quads[j % 2]
                if i // 2 == j // 2:
                    val = 0.5 * np.trace(reduced[i // 2] @ (qi @ qj + qj @ qi))
                else:
                    val = np.einsum("mcnd,nm,dc->", r4, qi, qj)
                V[i, j] = V[j, i] = float(np.real(val))
        return V / tr


def build_entangled_state(params: SystemParams, pulse: PulseSpec,
                          truncation: int = DEFAULT_TRUNCATION) -> FockState:
    """Exact gamma = 0 construction: squeezed vacuum scattered off the mechanics.

    The effective beam splitter maps m -> sqrt(R) m - sqrt(T) c and
    c -> -(sqrt(T) m + sqrt(R) c).  Thermal initial mechanics (n_m > 0) is
    supported; gamma > 0 requires the environment modes and is validated at
    the second-moment level via scattering_covariance instead.
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

    # input sum_k p_k |k><k| (x) |sq><sq|; column k of psi is P U (|k> (x) sq),
    # U the beam splitter and P the optical parity (-1)^c, filled sector by
    # sector without a dense U.  All of it is real.
    psi = np.zeros((d * d, d))
    for n_tot, ks, block in _bs_sectors(d, pulse.R):
        cs = n_tot - ks
        psi[np.ix_(ks * d + cs, ks)] = ((-1.0) ** cs)[:, None] * block * sq[cs]
    keep = p > 0
    psi = psi[:, keep]
    rho = (psi * p[keep]) @ psi.T

    st = FockState(rho, truncation, 2)
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
# channels

def _apply_on_c(rho: np.ndarray, op: np.ndarray) -> np.ndarray:
    """(I (x) op) rho (I (x) op)^dagger of a two-mode density matrix, applied on
    the optical axes of its (m, c, m', c') tensor: op on c, op^dagger on c'."""
    d = op.shape[0]
    out = np.matmul(op, rho.reshape(d, d, d * d))      # c, batched over m
    return (out.reshape(d ** 3, d) @ op.conj().T).reshape(d * d, d * d)


def apply_amplifier(state: FockState, g_quad: float, n_quad: float = 0.0) -> FockState:
    """Quadrature squeeze X_C -> g X_C; the noisy congruence has no unitary
    dilation (non-CP), so n_quad > 0 is rejected."""
    if state.n_modes != 2:
        raise DomainError("amplifier acts on the two-mode state")
    if g_quad <= 0:
        raise DomainError(f"gain must be positive, got {g_quad}")
    if n_quad != 0.0:
        raise DomainError("oracle amplifier supports n_A = 0 only "
                          "(the noisy map is not completely positive)")
    S = _squeeze_unitary(state.dim, -math.log(g_quad))
    out = FockState(_apply_on_c(state.rho, S), state.truncation, 2, state.weight)
    out.check_edge_population()
    return out


def apply_annihilate_C(state: FockState) -> FockState:
    """a rho a' on the optical mode, a shift of both optical indices scaled by
    sqrt(c+1) sqrt(c'+1); keeps the (trace) weight of the branch."""
    if state.n_modes != 2:
        raise DomainError("photon subtraction acts on the two-mode state")
    d = state.dim
    r4 = state.rho.reshape(d, d, d, d)
    s = np.sqrt(np.arange(1.0, d))
    out = np.zeros_like(r4)
    # in place: a product temporary would be one more d^4 array at the oracle's peak
    np.multiply(r4[:, 1:, :, 1:], s[:, None, None] * s, out=out[:, :-1, :, :-1])
    out = FockState(out.reshape(d * d, d * d), state.truncation, 2, state.weight)
    if out.trace() <= 1e-14:
        raise ZeroWeightError("subtraction annihilated the state (optical vacuum)")
    return out


def apply_loss(state: FockState, eta: float) -> FockState:
    """Loss channel on the optical mode via Kraus operators K_k = sqrt((1-eta)^k/k!)
    eta^(n/2) a^k.  K_k shifts both optical indices by k, so each diagonal
    c' - c = delta of the (c, c') plane maps into itself by one real triangular
    matrix T[u, u + k] = a_k(c) a_k(c'), a_k(i)^2 = C(i+k, k) (1-eta)^k eta^i."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"transmission efficiency must lie in [0, 1], got {eta}")
    if eta == 1.0:
        return state
    d = state.dim
    ks, i = np.ogrid[:d, :d]
    log_binom = gammaln(i + ks + 1.0) - gammaln(i + 1.0) - gammaln(ks + 1.0)
    a = np.sqrt(np.exp(log_binom) * (1.0 - eta) ** ks * eta ** i)    # a[k, i]
    # (c, c', m, m') rows; complex entries as float pairs, T is real
    Y = np.ascontiguousarray(state.rho.reshape(d, d, d, d).transpose(1, 3, 0, 2))
    Y = Y.reshape(d * d, d * d).view(np.float64)
    out = np.empty_like(Y)
    for delta in range(1 - d, d):
        j0, L = max(0, -delta), d - abs(delta)
        rows = slice(j0 * (d + 1) + delta, None, d + 1)
        u, v = np.ogrid[:L, :L]
        k = np.maximum(v - u, 0)
        T = np.where(v >= u, a[k, j0 + u] * a[k, j0 + u + delta], 0.0)
        out[rows][:L] = T @ Y[rows][:L]
    rho = out.view(complex).reshape(d, d, d, d).transpose(2, 0, 3, 1)
    return FockState(rho.reshape(d * d, d * d), state.truncation, 2, state.weight)


def _window_povm(dim: int, zeta: float, eps: float) -> np.ndarray:
    """Pi = int w(x) |x><x| dx with w = exp(-(x-zeta)^2/(2 eps^2)), computed by
    Gauss-Hermite quadrature on the combined Gaussian weight (exact for the
    truncated basis).  w <= 1, so Pi <= I and the channel is trace
    non-increasing; the constant weight convention of the phase-space window
    cancels on normalization."""
    alpha = 1.0 + 1.0 / (2.0 * eps * eps)
    beta = zeta / (eps * eps)
    gamma = zeta * zeta / (2.0 * eps * eps)
    nodes, weights = np.polynomial.hermite.hermgauss(max(64, dim + 12))
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
    """Windowed X_C homodyne: POVM on C then partial trace; mu < 1 as pre-loss."""
    if state.n_modes != 2:
        raise DomainError("homodyne acts on the two-mode state")
    if eps <= 0:
        raise DomainError(f"measurement error must be positive, got {eps}")
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"efficiency must lie in (0, 1], got {mu}")
    st = apply_loss(state, mu) if mu < 1.0 else state
    d = st.dim
    Pi = _window_povm(d, zeta, eps)
    r4 = st.rho.reshape(d, d, d, d)
    rho_m = np.einsum("mcnd,dc->mn", r4, Pi)
    out = FockState(rho_m, st.truncation, 1, st.weight)
    if out.trace() <= 1e-16:
        raise ZeroWeightError("homodyne window has vanishing overlap with the state")
    return out


def wigner_from_density(state: FockState, grid: GridSpec = GridSpec()) -> np.ndarray:
    """W(x, p) of a single-mode density matrix on the grid (row-major [x, p])."""
    if state.n_modes != 1:
        raise DomainError("wigner_from_density expects the reduced single-mode state")
    st = state.normalized()
    d = st.dim
    xs = grid.axis
    extent = math.sqrt(2.0 * d + 1.0) + 4.0
    dy = 0.02
    # y grid symmetric about 0, so psi_n(x - y/2) is psi_n(x + y/2) reversed
    K = math.ceil(2.0 * extent / dy)
    ys = dy * np.arange(-K, K + 1)
    # M(x, y) = <x+y/2|rho|x-y/2>, with the real and imaginary parts of rho apart
    Mr, Mi = np.empty((2, len(xs), len(ys)))
    for ix, x in enumerate(xs):
        Pp = _hermite_functions(x + ys / 2.0, d - 1)     # (d, ny)
        Mr[ix] = np.sum(Pp * (st.rho.real @ Pp[:, ::-1]), axis=0)
        Mi[ix] = np.sum(Pp * (st.rho.imag @ Pp[:, ::-1]), axis=0)
    yp = np.outer(ys, xs)           # Re(M e^{-i y p})
    return (Mr @ np.cos(yp) + Mi @ np.sin(yp)) * dy / (2.0 * math.pi)


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
    truncation = st.truncation
    if eta < 1.0:
        st = apply_loss(st, eta)
    # with dark counts the n-1 click branch is the heralded chain one step short;
    # the chain holds the only reference to the amplified state, which it frees
    unheralded, st = apply_amplifier(st, math.sqrt(g_A_var)), None
    for _ in range(n_sub - 1):
        unheralded = apply_annihilate_C(unheralded)
    heralded = apply_annihilate_C(unheralded) if n_sub > 0 else unheralded
    if nu < 1.0 and n_sub > 0:
        rho = (nu * heralded.rho / heralded.trace()
               + (1.0 - nu) * unheralded.rho / unheralded.trace())
        st = FockState(rho, truncation, 2)
    else:
        st = heralded
    st = apply_homodyne_window(st, zeta, eps, mu)
    return st.normalized()
