"""Exact polynomial-times-Gaussian Wigner calculus.

Every state in the photon-subtraction pipeline is of the form

    W(u) = norm * poly(u) * N(u; mean, cov)

with N a normalized Gaussian density over nvars quadratures (4 before the
homodyne projection, 2 after).  All pipeline operators map this family to
itself exactly; grids are only a rendering step.

poly is a dense coefficient tensor, one axis per variable.  Every affine change
of variables runs through `_compose_axis`, a one-variable Horner substitution;
a linear map is LU-factored into such steps.  Photon subtraction runs in the
kernel's photon frame: lambda = u_C - (cov^-1 (u - mean))_C / 2 are two linear
forms, and n subtractions are a bivariate recursion in them.  The homodyne
window is a Gaussian along X_theta, and the integral over the optical mode a 2-D
blur of f(lambda) followed by lambda = K y + b.  Gaussian integrals sum the
coefficients against a table of raw moments, batched over means.  The Wigner
negativity is exact in p; its x panels end where the number of real roots in
p changes, counted from the inertia of a Bezoutian built once per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.linalg import lu
from scipy.special import ndtr

from .exceptions import ContractError, DomainError
from .gaussian_core import (CovMatrix, SigmaMatrix, check_physical,
                            require_xp_decoupled)

# axis indices in the joint ordering
XM, PM, XC, PC = 0, 1, 2, 3
BY_C = np.eye(4)[[XC, PC, XM, PM]]      # u -> (X_C, P_C, X_M, P_M)


def _along(axis: int, index) -> tuple:
    """Index `index` (an int or a slice) along one axis, all of the others."""
    return (slice(None),) * axis + (index,)


class MultiPoly:
    """Real polynomial on a dense tensor (not copied): coef[e] multiplies prod_i u_i^e_i."""

    __slots__ = ("coef",)

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)

    @classmethod
    def constant(cls, nvars: int, value: float = 1.0) -> "MultiPoly":
        return cls(np.full((1,) * nvars, float(value)))

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        return _linear(0.0, np.eye(nvars)[i])

    @property
    def nvars(self) -> int:
        return self.coef.ndim

    @property
    def terms(self) -> dict:
        """Read-only {exponent tuple: coefficient} view of the non-zero entries."""
        nz = np.nonzero(self.coef)
        return dict(zip(zip(*(a.tolist() for a in nz)), self.coef[nz].tolist()))

    @property
    def degree(self) -> int:
        return int(sum(np.nonzero(self.coef)).max(initial=0))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = np.zeros(np.maximum(self.coef.shape, other.coef.shape))
        out[tuple(map(slice, self.coef.shape))] = self.coef
        out[tuple(map(slice, other.coef.shape))] += other.coef
        return MultiPoly(out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self.coef, other.coef
        if np.count_nonzero(a) < np.count_nonzero(b):
            a, b = b, a
        out, tmp = np.zeros(np.add(a.shape, b.shape) - 1), np.empty_like(a)
        for e in zip(*np.nonzero(b)):
            out[tuple(map(slice, e, np.add(e, a.shape)))] += np.multiply(b[e], a, out=tmp)
        return MultiPoly(out)

    def scale(self, s: float) -> "MultiPoly":
        return MultiPoly(self.coef * s)

    def diff(self, i: int) -> "MultiPoly":
        k = self.coef.shape[i]
        if k == 1:
            return MultiPoly.constant(self.nvars, 0.0)
        ramp = np.arange(1, k).reshape([-1] + [1] * (self.nvars - i - 1))
        return MultiPoly(self.coef[_along(i, slice(1, None))] * ramp)

    def substitute_linear(self, A: np.ndarray, b: np.ndarray | None = None) -> "MultiPoly":
        """p(u) -> p(A u + b).  A = perm L U (scipy.linalg.lu): permute the axes,
        then u_i -> b'_i + u_i + sum_(j<i) L_ij u_j for i = 0..n-1, b' = perm^T b,
        then u_i -> sum_(j>=i) U_ij u_j for i = n-1..0, one axis at a time."""
        n = self.nvars
        perm, L, U = lu(np.asarray(A, dtype=float))
        b = perm.T @ (np.zeros(n) if b is None else np.asarray(b, dtype=float))
        coef = np.transpose(self.coef, perm.argmax(axis=0))
        for i in range(n):
            coef = _compose_axis(coef, i, b[i], 1.0, np.r_[L[i, :i], np.zeros(n - i)])
        for i in reversed(range(n)):
            coef = _compose_axis(coef, i, 0.0, U[i, i], np.r_[np.zeros(i + 1), U[i, i + 1:]])
        return MultiPoly(coef)

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on pts of shape (N, nvars), Horner along each axis."""
        pts = np.atleast_2d(pts)
        out = P.polyval(pts[:, 0], self.coef)
        for k in range(1, self.nvars):
            out = P.polyval(pts[:, k], out, tensor=False)
        return out


def _linear(const: float, w) -> MultiPoly:
    """The linear form const + sum_j w_j u_j."""
    coef = np.zeros([1 + (x != 0.0) for x in w])
    coef.flat[0] = const
    for j in np.flatnonzero(w):
        coef[(0,) * j + (1,) + (0,) * (len(w) - j - 1)] = w[j]
    return MultiPoly(coef)


def _compose_axis(coef: np.ndarray, i: int, const: float, own: float,
                  others) -> np.ndarray:
    """Coefficients of p after u_i -> const + own u_i + sum_(j != i) others_j u_j,
    by Horner's rule in u_i: acc <- acc * (that linear form) + c_k, with c_k the
    slab of u_i^k.  The result keeps the arity; no axis outgrows the degree.
    After the step for u_i^k acc has total degree <= deg - k, so that step runs
    in place on the box min(shape_j, deg - k + 1), and steps with k > deg are
    skipped: every non-zero coefficient sees the full-box operations, and the
    zeros beyond the degree are left alone."""
    grow = [j for j in range(coef.ndim) if j != i and others[j] != 0.0]
    if const == 0.0 and own == 1.0 and not grow:
        return coef
    deg = MultiPoly(coef).degree
    shape = list(coef.shape)
    for j in grow:
        shape[j] = max(shape[j], min(shape[j] + coef.shape[i] - 1, deg + 1))
    acc = np.zeros(shape)
    terms = [(i, own)] + [(j, others[j]) for j in grow]
    for k in reversed(range(min(coef.shape[i], deg + 1))):
        e = deg - k + 1                 # this step's box edge; the last step's is e - 1
        last = [slice(min(s, e - 1)) for s in shape]     # acc is zero outside it
        shifted = []
        for j, w in terms:              # w u_j times the last acc, cut to this box
            src, dst, n = list(last), list(last), min(shape[j], e) - 1
            src[j], dst[j] = slice(n), slice(1, n + 1)
            shifted.append((tuple(dst), w * acc[tuple(src)]))
        acc[tuple(last)] *= const
        for dst, t in shifted:
            acc[dst] += t
        slab = [slice(min(c, e)) for c in coef.shape]
        src = list(slab)
        slab[i], src[i] = slice(1), slice(k, k + 1)
        acc[tuple(slab)] += coef[tuple(src)]
    return acc


def _hermite_functions(xs: np.ndarray, nmax: int) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions psi_n(x), vacuum variance 1/2: out[n] at xs."""
    out = np.zeros((nmax + 1, *np.shape(xs)))
    out[0] = math.pi ** -0.25 * np.exp(-xs ** 2 / 2.0)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * xs * out[0]
    for n in range(2, nmax + 1):
        out[n] = (math.sqrt(2.0 / n) * xs * out[n - 1]
                  - math.sqrt((n - 1.0) / n) * out[n - 2])
    return out


@np.errstate(over="ignore", invalid="ignore")
def _moment_table(cov: np.ndarray, means: np.ndarray, shape) -> np.ndarray:
    """M[e, k] = E[prod u_i^e_i] for N(means[k], cov), e over the index box
    `shape`, by the recursion on the first non-zero exponent i:
    M[e + 1_i] = mean_i M[e] + sum_(j >= i) cov_ij e_j M[e - 1_j].
    Entries far above the polynomial's degree may overflow; they multiply zeros."""
    n = len(shape)
    means = np.asarray(means).T                                 # (n, K)
    M = np.zeros((*shape, means.shape[1]), dtype=np.result_type(cov, means, float))
    M[(0,) * n] = 1.0
    for i in reversed(range(n)):
        S = M[(0,) * i]               # axes i..n-1, K; axes after i are complete
        cross = [(_along(j - i - 1, slice(1, None)), _along(j - i - 1, slice(-1)),
                  cov[i, j] * np.arange(1, shape[j]).reshape((-1,) + (1,) * (n - j)))
                 for j in range(i + 1, n)]
        for k in range(1, shape[i]):
            val = means[i] * S[k - 1]
            if k >= 2:
                val += cov[i, i] * (k - 1) * S[k - 2]
            for hi, lo, c in cross:
                val[hi] += c * S[k - 1][lo]
            S[k] = val
    return M


def _moments(mean, var, n: int) -> list:
    """Raw moments M_k = mean M_(k-1) + (k-1) var M_(k-2) of N(mean, var), k < max(n, 2)."""
    mom = [1.0, mean]
    for k in range(2, n):
        mom.append(mean * mom[-1] + (k - 1) * var * mom[-2])
    return mom


def _expect(q, mean, var):
    """E[q(x)] for x ~ N(mean, var), mean a scalar or an array of means."""
    return sum(c * mk for c, mk in zip(q, _moments(mean, var, len(q))))


def _gauss_integral(coef: np.ndarray, cov: np.ndarray, means: np.ndarray) -> np.ndarray:
    """E[poly(u)] for u ~ N(means[k], cov), k = 0..K-1, from one batched table."""
    return np.sum(coef[..., None] * _moment_table(cov, means, coef.shape),
                  axis=tuple(range(coef.ndim)), where=(coef != 0.0)[..., None])


def _gauss_density(pts: np.ndarray, mean, cov: np.ndarray) -> np.ndarray:
    """N(u; mean, cov) at each row u of pts; complex for a complex mean."""
    d = pts - mean
    expo = -0.5 * np.einsum("ni,ij,nj->n", d, np.linalg.inv(cov), d)
    return np.exp(expo) / ((2.0 * np.pi) ** (len(cov) / 2.0) * np.sqrt(np.linalg.det(cov)))


@dataclass(frozen=True, eq=False)
class PolyGaussian:
    """norm * poly(u) * N(u; mean, cov) over nvars quadratures."""

    cov: np.ndarray = field(repr=False)
    mean: np.ndarray = field(repr=False)
    poly: MultiPoly = field(repr=False)
    norm: float = 1.0

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        mean = np.array(self.mean, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DomainError("covariance must be square")
        if mean.shape != (cov.shape[0],):
            raise DomainError("mean has wrong length")
        if self.poly.nvars != cov.shape[0]:
            raise DomainError("polynomial arity does not match covariance size")
        cov.flags.writeable = False
        mean.flags.writeable = False
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "mean", mean)

    @property
    def nvars(self) -> int:
        return self.cov.shape[0]

    def total_mass(self) -> float:
        """Integral of W over all variables (the running success weight)."""
        return self.norm * _gauss_integral(self.poly.coef, self.cov, self.mean[None])[0]

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.norm * self.poly.evaluate(pts) * _gauss_density(pts, self.mean, self.cov)

    def __call__(self, *coords) -> float | np.ndarray:
        pts = np.stack(np.broadcast_arrays(*[np.asarray(c, dtype=float) for c in coords]), -1)
        shape = pts.shape[:-1]
        out = self.evaluate(pts.reshape(-1, self.nvars))
        return out.reshape(shape) if shape else float(out[0])


def gaussian_wigner(V: CovMatrix) -> PolyGaussian:
    """Wigner function of the zero-mean Gaussian state with covariance V."""
    if not check_physical(V)[0]:
        raise DomainError("covariance matrix is not physical")
    return PolyGaussian(V.entries, np.zeros(4), MultiPoly.constant(4), 1.0)


def normalize(W: PolyGaussian) -> PolyGaussian:
    mass = W.total_mass()
    if not 0 < mass < math.inf:
        raise ContractError(f"cannot normalize: total mass {mass:.3e} is not positive and finite")
    return PolyGaussian(W.cov, W.mean, W.poly, W.norm / mass)


def _require_normalized(W: PolyGaussian) -> None:
    mass = W.total_mass()
    if abs(mass - 1.0) > 1e-6:
        raise ContractError(f"state is not normalized (mass {mass:.6e}); call normalize()")


def qn_polynomial(sigma: SigmaMatrix, n: int) -> MultiPoly:
    """Q_n polynomial of the n-photon-subtracted Gaussian Wigner function.

    Defined by the recursion Q_0 = 1,
    Q_1 = 1 - (s33+s44)/2 + L_X^2 + L_P^2, and
    Q_n = Q_1 Q_{n-1} - L_X dQ/dX_C - L_P dQ/dP_C + (d2Q/dX_C^2 + d2Q/dP_C^2)/4,
    with L_X = (s33-1) X_C + s13 X_M and L_P = (s44-1) P_C + s24 P_M.
    n-fold application of the subtraction operator equals 2^-n Q_n times the
    Gaussian.
    """
    if n < 0:
        raise DomainError(f"photon number must be >= 0, got {n}")
    require_xp_decoupled(sigma, "qn_polynomial")
    if n == 0:
        return MultiPoly.constant(4)
    lx = _linear(0.0, [sigma.s13, 0.0, sigma.s33 - 1.0, 0.0])
    lp = _linear(0.0, [0.0, sigma.s24, 0.0, sigma.s44 - 1.0])
    q1 = MultiPoly.constant(4, 1.0 - (sigma.s33 + sigma.s44) / 2.0) + lx * lx + lp * lp
    q = q1
    for _ in range(n - 1):
        q = (q1 * q
             + lx.scale(-1.0) * q.diff(XC) + lp.scale(-1.0) * q.diff(PC)
             + (q.diff(XC).diff(XC) + q.diff(PC).diff(PC)).scale(0.25))
    return q


def _photon_frame(cov: np.ndarray, mean: np.ndarray) -> tuple:
    """(M, o, J, c) of the kernel N(u; mean, cov), A = cov^-1: the coordinates
    w = M u + o = (lambda, X_M, P_M) with lambda = P (u - mean) + mean_C and
    P = [0 I] - A_(C,:) / 2; J = I - A_CC / 2 = dlambda/du_C, c = 1 - tr A_CC / 4."""
    A = np.linalg.inv(cov)
    M = np.vstack([np.eye(2, 4, 2) - 0.5 * A[2:], np.eye(2, 4)])
    return M, np.r_[mean[2:] - M[:2] @ mean, 0, 0], M[:2, 2:], 1 - 0.25 * np.trace(A[2:, 2:])


def _subtract_in_frame(f: np.ndarray, J: np.ndarray, c: float) -> np.ndarray:
    """One photon subtraction f N -> g N for f over lambda, where d/du_C = J^T grad:
    g = [(|lambda|^2 + c) f + lambda^T J^T grad f + tr(J^T H J) / 4] / 2."""
    s0, s1 = f.shape
    e0, e1 = np.arange(s0)[:, None], np.arange(s1)
    Q = 0.25 * J @ J.T
    g = np.zeros((s0 + 2, s1 + 2))
    g[:s0, :s1] = (c + J[0, 0] * e0 + J[1, 1] * e1) * f
    g[2:, :s1] += f
    g[:s0, 2:] += f
    g[:s0 - 1, 1:s1 + 1] += J[0, 1] * e0[1:] * f[1:]
    g[1:s0 + 1, :s1 - 1] += J[1, 0] * e1[1:] * f[:, 1:]
    g[:max(s0 - 2, 0), :s1] += Q[0, 0] * (e0 * (e0 - 1))[2:] * f[2:]
    g[:s0, :max(s1 - 2, 0)] += Q[1, 1] * (e1 * (e1 - 1))[2:] * f[:, 2:]
    g[:s0 - 1, :s1 - 1] += (Q[0, 1] + Q[1, 0]) * (e0[1:] * e1[1:]) * f[1:, 1:]
    return 0.5 * g


def _subtract_over_u(f: np.ndarray, lam: np.ndarray, c: float) -> np.ndarray:
    """`_subtract_in_frame` for f over w = (X_C, P_C, X_M, P_M), lambda = lam . (1, w)."""
    f, (lx, lp) = MultiPoly(f), (_linear(row[0], row[1:]) for row in lam)
    dx, dp = f.diff(0), f.diff(1)
    return ((lx * lx + lp * lp + MultiPoly.constant(4, c)) * f + lx * dx + lp * dp
            + (dx.diff(0) + dp.diff(1)).scale(0.25)).scale(0.5).coef


def _project_frame(f: np.ndarray, M: np.ndarray, o: np.ndarray, cov: np.ndarray,
                   mean: np.ndarray, theta: float, eps: float, zeta: float,
                   mu: float) -> PolyGaussian:
    """Homodyne projection of f(w) N(u; mean, cov), w = M u + o, onto X_theta =
    cos(theta) X_C + sin(theta) P_C = zeta, unnormalized.  For f over lambda = w_01,
    lambda | (X_M, P_M) = y is N(K y + b, S) under the windowed kernel: the integral
    over the optical mode is the blur sum_k (grad^T S grad / 2)^k f / k!, at K y + b."""
    if eps <= 0:
        raise DomainError(f"measurement error must be positive, got {eps}")
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"homodyne efficiency must lie in (0, 1], got {mu}")
    d = np.array([0.0, 0.0, math.cos(theta), math.sin(theta)])
    Wd = multiply_gaussian_window(PolyGaussian(cov, mean, MultiPoly.constant(4)), d, zeta /
                                  np.sqrt(mu), np.sqrt((eps * eps + (1.0 - mu) / 2.0) / mu))
    if f.ndim == 4:                 # f over all of w (a later stage, project_XC): in u
        return marginal(PolyGaussian(Wd.cov, Wd.mean, MultiPoly(f).substitute_linear(M, o)),
                        [XM, PM])
    C, m = Wd.cov, Wd.mean
    G = C[2:, :2] @ np.linalg.inv(C[:2, :2])
    S = M[:2, 2:] @ (C[2:, 2:] - G @ C[:2, :2] @ G.T) @ M[:2, 2:].T
    K, b = M[:2, :2] + M[:2, 2:] @ G, o[:2] + M[:2, 2:] @ (m[2:] - G @ m[:2])
    e0, e1 = np.arange(f.shape[0])[:, None], np.arange(f.shape[1])
    h, term, k = f.copy(), f, 0
    while term.any():               # each step lowers the degree by 2
        k += 1
        nxt = np.zeros_like(term)
        nxt[:-2] = 0.5 * S[0, 0] * (e0 * (e0 - 1))[2:] * term[2:]
        nxt[:, :-2] += 0.5 * S[1, 1] * (e1 * (e1 - 1))[2:] * term[:, 2:]
        nxt[:-1, :-1] += 0.5 * (S[0, 1] + S[1, 0]) * (e0[1:] * e1[1:]) * term[1:, 1:]
        term = nxt / k
        h += term
    return PolyGaussian(C[:2, :2], m[:2], MultiPoly(h).substitute_linear(K, b))


def apply_linear_map(W: PolyGaussian, T: np.ndarray) -> PolyGaussian:
    """Pushforward of W under u -> T u (e.g. a measurement-direction rotation)."""
    T = np.asarray(T, dtype=float)
    return PolyGaussian(T @ W.cov @ T.T, T @ W.mean,
                        W.poly.substitute_linear(np.linalg.inv(T)), W.norm)


def translate(W: PolyGaussian, shift) -> PolyGaussian:
    """W'(u) = W(u - shift): displace the state by `shift` in phase space."""
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (W.nvars,):
        raise DomainError(f"shift has wrong length for nvars={W.nvars}")
    return PolyGaussian(W.cov, W.mean + shift,
                        W.poly.substitute_linear(np.eye(W.nvars), -shift), W.norm)


def multiply_gaussian_window(W: PolyGaussian, axis, center: float,
                             std: float) -> PolyGaussian:
    """Multiply by exp(-(d.u - center)^2 / (2 std^2)) / sqrt(2 std^2), d = e_axis or axis."""
    if std <= 0:
        raise DomainError(f"window width must be positive, got {std}")
    d = np.eye(W.nvars)[axis] if np.ndim(axis) == 0 else np.asarray(axis, dtype=float)
    A = np.linalg.inv(W.cov)
    b = A @ W.mean
    A2 = A + np.outer(d, d) / std ** 2
    b2 = b + d * center / std ** 2
    cov2 = np.linalg.inv(A2)
    cov2 = 0.5 * (cov2 + cov2.T)
    mean2 = cov2 @ b2
    log_c = (0.5 * (b2 @ mean2) - 0.5 * (b @ W.mean) - center ** 2 / (2.0 * std ** 2)
             + 0.5 * (np.linalg.slogdet(cov2)[1] - np.linalg.slogdet(W.cov)[1])
             - 0.5 * np.log(2.0 * std ** 2))
    return PolyGaussian(cov2, mean2, W.poly, W.norm * float(np.exp(log_c)))


def marginal(W: PolyGaussian, keep: list[int]) -> PolyGaussian:
    """Integrate out all axes not in `keep` (exact Gaussian-moment integration)."""
    keep = list(keep)
    if not keep:
        raise DomainError("keep set must be non-empty")
    if sorted(set(keep)) != sorted(keep) or any(k >= W.nvars for k in keep):
        raise DomainError(f"invalid keep axes {keep} for nvars={W.nvars}")

    n = W.nvars
    drop = [i for i in range(n) if i not in keep]
    Vxx = W.cov[np.ix_(keep, keep)]
    Vyx = W.cov[np.ix_(drop, keep)]
    Vyy = W.cov[np.ix_(drop, drop)]
    K = Vyx @ np.linalg.inv(Vxx)
    Sc = Vyy - K @ Vxx @ K.T
    Sc = 0.5 * (Sc + Sc.T)
    mu_x = W.mean[keep]
    c0 = W.mean[drop] - K @ mu_x

    # y_i = c0_i + sum_j K_ij x_j + z_i with z ~ N(0, Sc): substitute on each
    # dropped axis (it then holds z_i) and take E_z against the moment table.
    coef = W.poly.coef
    for iy, i in enumerate(drop):
        others = np.zeros(n)
        others[keep] = K[iy]
        coef = _compose_axis(coef, i, c0[iy], 1.0, others)
    mom_z = _moment_table(Sc, np.zeros((1, len(drop))), [coef.shape[i] for i in drop])[..., 0]
    coef = np.tensordot(coef, mom_z, axes=(drop, range(len(drop))))
    coef = np.transpose(coef, np.argsort(np.argsort(keep)))    # ascending -> keep order
    return PolyGaussian(Vxx, mu_x, MultiPoly(coef), W.norm)


def project_XC(W: PolyGaussian, eps: float, zeta: float = 0.0,
               mu: float = 1.0) -> PolyGaussian:
    """Homodyne projection of the optical mode onto the X_C = zeta window.

    The finite measurement error eps enters as the Gaussian window
    exp(-(X_C - zeta)^2 / (2 eps^2)); detector efficiency mu < 1 is folded in
    as the exactly equivalent inflated window with std' = sqrt((eps^2 +
    (1-mu)/2)/mu) centered at zeta/sqrt(mu).  Returns the normalized
    mechanical state over (X_M, P_M).
    """
    if W.nvars != 4:
        raise ContractError("project_XC acts on the joint 4-variable state")
    f = np.transpose(W.poly.coef, (2, 3, 0, 1))         # over (X_C, P_C, X_M, P_M)
    return normalize(_project_frame(f, BY_C, np.zeros(4), W.cov, W.mean, 0.0, eps, zeta, mu))


# ---------------------------------------------------------------------------
# rendering and integral functionals

DEFAULT_GRID = (-6.0, 6.0, 241)


@dataclass(frozen=True)
class GridSpec:
    xmin: float = DEFAULT_GRID[0]
    xmax: float = DEFAULT_GRID[1]
    n: int = DEFAULT_GRID[2]

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.n >= 2 and self.step > 0):
            raise DomainError(f"degenerate grid {self}")

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.n)

    @property
    def step(self) -> float:
        return (self.xmax - self.xmin) / (self.n - 1)


def evaluate_grid(W: PolyGaussian, grid: GridSpec = GridSpec()) -> tuple[np.ndarray, dict]:
    """Row-major field W[x_i, p_j] plus a normalization/clipping report."""
    if W.nvars != 2:
        raise ContractError("evaluate_grid renders 2-variable mechanical states")
    ax = grid.axis
    X, P = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([X.ravel(), P.ravel()], axis=1)
    field = W.evaluate(pts).reshape(grid.n, grid.n)
    riemann = float(field.sum() * grid.step ** 2)
    edge = float(max(np.abs(field[0]).max(), np.abs(field[-1]).max(),
                     np.abs(field[:, 0]).max(), np.abs(field[:, -1]).max()))
    report = {
        "grid": {"xmin": grid.xmin, "xmax": grid.xmax, "n": grid.n},
        "riemann_mass": riemann,
        "boundary_max_abs": edge,
        "clipped": bool(edge > 1e-6),
        "normalized_within_1e-4": bool(abs(riemann - 1.0) < 1e-4),
    }
    return field, report


# quadrature of wigner_negativity
NEG_SPAN = 12.0    # x range: kernel mean +- NEG_SPAN marginal standard deviations
NEG_SWEEP = 512    # sweep points bracketing the x where the real-root count changes
NEG_NODES = 48     # Gauss-Legendre nodes per x panel
_T_MAX = 30.0      # |t| past which phi(t) t^k underflows to 0
_GL_T, _GL_W = np.polynomial.legendre.leggauss(NEG_NODES)


def _t_polys(W: PolyGaussian):
    """(coef, at): W = N(x) phi(t) sum_k b_k(x) t^k with p = mu(x) + s t and
    coef[i, k] the coefficient of x^i in b_k, composed once; at(xs) -> (b[:, k],
    the roots in t (companion eigenvalues), N(x)) at each x, for the panel nodes."""
    C, m = W.cov, W.mean
    kappa = C[0, 1] / C[0, 0]
    nz = np.nonzero(W.poly.coef)
    coef = W.poly.coef[:nz[0].max(initial=0) + 1, :nz[1].max(initial=0) + 1]
    # p = m_p + kappa (x - m_x) + s t: coef[i, k] multiplies x^i t^k
    coef = W.norm * _compose_axis(coef, 1, m[1] - kappa * m[0],
                                  math.sqrt(C[1, 1] - kappa * C[0, 1]), [kappa, 0.0])
    dp = coef.shape[1] - 1
    scaffold = np.zeros((dp, dp))
    scaffold[1:, :-1] = np.eye(max(dp - 1, 0))

    def at(xs):
        b = np.vander(xs, len(coef), increasing=True) @ coef
        comp = np.repeat(scaffold[None], len(xs), axis=0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            comp[:, :, -1:] = (-b[:, :dp] / b[:, dp:])[:, :, None]
        comp[~np.isfinite(comp)] = 0.0
        dens = np.exp(-0.5 * (xs - m[0]) ** 2 / C[0, 0]) / math.sqrt(2.0 * math.pi * C[0, 0])
        return b, np.linalg.eigvals(comp), dens
    return coef, at


def _real_root_count(coef: np.ndarray):
    """xs -> the number of distinct real roots in t of f = sum_k b_k(x) t^k (coef
    as in `_t_polys`), without finding them.  By Hermite's theorem it is the
    signature (#positive - #negative eigenvalues) of the Bezoutian of f and
    f' = df/dt, the symmetric B with sum_ij B_ij u^i v^j = (f(u) f'(v) - f(v) f'(u))
    / (u - v).  B is bilinear in the b_k, so B(x) = sum_m x^m B_m is built once.
    Each call scales B(x) to a diagonal of magnitude 1 (the Jacobi scaling
    D B D, a congruence: the signature stays) and runs one batched eigvalsh.
    Eigenvalues within 1e-14 max|lambda|, a few times eigvalsh's backward error
    at d <= 16, count as zero.  A vanishing b_d only pads B with zeros, so the
    count is that of f's actual degree.  Where all roots cluster far off the
    real axis B is ill-conditioned: at n >= 5, five or more marginal standard
    deviations out, a sign can flip and add panel edges there."""
    d = coef.shape[1] - 1
    deriv = np.zeros_like(coef)
    deriv[:, :-1] = coef[:, 1:] * np.arange(1, d + 1)
    # F[m, k, l]: the x^m u^k v^l coefficient of f(u) f'(v) - f(v) f'(u)
    G = np.einsum("pk,ql->pqkl", coef, deriv)
    G -= G.transpose(0, 1, 3, 2)
    F = np.zeros((2 * len(coef) - 1, d + 1, d + 1))
    for p in range(len(coef)):
        F[p:p + len(coef)] += G[p]
    # F = (u - v) B, so B_ij = sum_(r >= 1) F_(i + r, j + 1 - r)
    B = np.zeros((len(F), d, d))
    for r in range(1, d + 1):
        B[:, :d - r + 1, r - 1:] += F[:, r:, :d - r + 1]
    B = B.reshape(len(F), d * d)

    def count(xs):
        M = (np.vander(xs, len(B), increasing=True) @ B).reshape(len(xs), d, d)
        diag = np.abs(np.diagonal(M, axis1=1, axis2=2))
        s = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        lam = np.linalg.eigvalsh(M * s[:, :, None] * s[:, None, :])
        tol = 1e-14 * np.abs(lam).max(axis=1, initial=0.0)[:, None]
        return np.sum(lam > tol, axis=1) - np.sum(lam < -tol, axis=1)
    return count


def wigner_negativity(W: PolyGaussian) -> float:
    """Wigner negativity delta = integral of (|W| - W) = -2 int min(W, 0).

    At fixed x, W = N(x) phi(t) sum_k b_k(x) t^k with p = mu(x) + s t and phi
    the standard normal density: the p integral of its negative part is exact,
    a sum of incomplete Gaussian moments between the roots in t.  The real
    parts of all roots cut the t axis (a complex pair's cut only splits an
    interval of one sign).  The x integral is Gauss-Legendre on panels whose
    edges are the x where the real-root count changes.  The sweep and the
    bisection read that count from the inertia of the Bezoutian
    (`_real_root_count`); the roots themselves (companion eigenvalues, one
    batched eigvals) are computed at the panel nodes only.

    Accuracy: the p integral is exact, the x quadrature is not.  Where a pair
    of roots meets, the integrand has a (x0 - x)^(3/2) branch point at the panel
    edge, so the error falls algebraically with the node count.  On 50 n = 2
    states of the benchmark's quality_scan (seed 901), 48 -> 192 nodes moves
    delta by 1e-9 typically and by 9.0e-7 at most; that state's error against
    384 nodes is -9.1e-7, 6.7e-8 and -9.7e-9 at 48, 96 and 192 nodes.
    """
    if W.nvars != 2:
        raise ContractError("wigner_negativity is defined for 2-variable states")
    _require_normalized(W)

    coef, t_polys = _t_polys(W)
    n_real = _real_root_count(coef)
    half = NEG_SPAN * math.sqrt(W.cov[0, 0])
    xs = W.mean[0] + np.linspace(-half, half, NEG_SWEEP)
    count = n_real(xs)
    jump = np.flatnonzero(count[1:] != count[:-1])
    lo, hi = xs[jump], xs[jump + 1]
    for _ in range(20 if jump.size else 0):     # bisect each bracketed change
        mid = 0.5 * (lo + hi)
        same = n_real(mid) == count[jump]
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    edges = np.concatenate([xs[:1], 0.5 * (lo + hi), xs[-1:]])
    w = 0.5 * np.diff(edges)[:, None]
    b, roots, dens = t_polys((edges[:-1, None] + w * (_GL_T + 1.0)).ravel())
    ends = np.full((len(b), 1), _T_MAX)
    t = np.concatenate([-ends, np.sort(np.clip(roots.real, -_T_MAX, _T_MAX)), ends], axis=1)
    # I_k(t) = int_-inf^t u^k phi(u) du: I_0 = Phi, I_1 = -phi, I_k = (k-1) I_(k-2) - t^(k-1) phi
    tp = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    mom = [ndtr(t), -tp]
    for k in range(2, b.shape[1]):
        tp = tp * t
        mom.append((k - 1) * mom[k - 2] - tp)
    seg = np.einsum("nk,nik->ni", b, np.diff(np.stack(mom[:b.shape[1]], axis=-1), axis=1))
    return float(-2.0 * (w * _GL_W).ravel() @ (dens * np.minimum(seg, 0.0).sum(axis=1)))


def _kernel_overlaps(W: PolyGaussian, polys, means, cov, poly) -> tuple:
    """(c (K,), E (I, K)) with 2 pi * int W.norm polys[i](u) N(u; W.mean, W.cov)
    poly(u) N(u; m_k, cov) du = W.norm c_k E_ik: polynomials on W's kernel against
    one kernel group (means (K, 2), cov, poly), from one product covariance, one
    stacked polynomial product and one batched moment table."""
    if W.nvars != 2 or np.shape(means)[1:] != (2,):
        raise ContractError("overlap is defined for 2-variable states")
    A1 = np.linalg.inv(W.cov)
    a1 = A1 @ W.mean
    A2 = np.linalg.inv(cov)
    pcov = np.linalg.inv(A1 + A2)
    pcov = 0.5 * (pcov + pcov.T)
    b = a1 + means @ A2.T
    pmean = b @ pcov.T
    log_c = -0.5 * (W.mean @ a1 + np.linalg.slogdet(W.cov)[1]
                    + np.sum(means @ A2 * means - b * pmean, axis=1)
                    + np.linalg.slogdet(cov)[1] - np.linalg.slogdet(pcov)[1])
    n0, n1 = np.max([p.coef.shape for p in polys], axis=0)
    S = np.zeros((len(polys), n0, n1))
    for Si, p in zip(S, polys):
        Si[:p.coef.shape[0], :p.coef.shape[1]] = p.coef
    C = np.zeros((len(polys), n0 + poly.coef.shape[0] - 1, n1 + poly.coef.shape[1] - 1))
    for i, j in zip(*np.nonzero(poly.coef)):
        C[:, i:i + n0, j:j + n1] += poly.coef[i, j] * S
    # entries the coefficients never reach may overflow: they are dropped, not multiplied by 0
    M = np.where((C != 0.0).any(axis=0)[..., None], _moment_table(pcov, pmean, C.shape[1:]), 0.0)
    return np.exp(log_c), np.tensordot(C, M, axes=([1, 2], [0, 1]))


def overlap_terms(W: PolyGaussian, terms) -> float:
    """Re 2 pi * int W(u) sum_k w_k poly(u) N(u; m_k, cov), exactly, over kernel
    groups (w (K,), m (K, 2), cov, poly): one product covariance, polynomial
    product and batched moment table per group.  Weights and means may be
    complex (coherent-state superpositions); the moment recursion still holds."""
    total = 0.0
    for w, means, cov, poly in terms:
        c, E = _kernel_overlaps(W, [W.poly], means, cov, poly)
        total += np.sum(w * c * E[0])
    return W.norm * float(np.real(total))


def overlap(W1: PolyGaussian, W2: PolyGaussian) -> float:
    """2 pi * integral(W1 W2): the state overlap when at least one is pure."""
    return overlap_terms(W1, [(np.array([W2.norm]), W2.mean[None], W2.cov, W2.poly)])
