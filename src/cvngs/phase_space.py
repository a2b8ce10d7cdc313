"""Exact polynomial-times-Gaussian Wigner calculus.

Every state in the photon-subtraction pipeline is of the form

    W(u) = norm * poly(u) * N(u; mean, cov)

with N a normalized Gaussian density over nvars quadratures (4 before the
homodyne projection, 2 after).  All pipeline operators map this family to
itself exactly; grids are only a rendering step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import comb, ndtr

from .exceptions import ContractError, DomainError
from .gaussian_core import CovMatrix, SigmaMatrix, amplifier_block

MERGE_RTOL = 1e-15

# axis indices in the joint ordering
XM, PM, XC, PC = 0, 1, 2, 3


class MultiPoly:
    """Real polynomial in nvars variables, stored as {exponent tuple: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise DomainError(f"exponent {e} has wrong arity for nvars={nvars}")
                if c != 0.0:
                    self.terms[tuple(int(k) for k in e)] = float(c)
        self._merge()

    def _merge(self):
        if not self.terms:
            return
        cmax = max(abs(c) for c in self.terms.values())
        self.terms = {e: c for e, c in self.terms.items() if abs(c) > MERGE_RTOL * cmax}

    @classmethod
    def constant(cls, nvars: int, value: float = 1.0) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, i: int, coeff: float = 1.0) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): coeff})

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return MultiPoly(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0.0) + c1 * c2
            return MultiPoly(self.nvars, out)
        return self.scale(float(other))

    __rmul__ = __mul__

    def scale(self, s: float) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: c * s for e, c in self.terms.items()})

    def diff(self, i: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = out.get(tuple(e2), 0.0) + c * e[i]
        return MultiPoly(self.nvars, out)

    def substitute_linear(self, A: np.ndarray, b: np.ndarray | None = None) -> "MultiPoly":
        """p(u) -> p(A u + b), for diagonal-free generality (A is nvars x nvars)."""
        n = self.nvars
        A = np.asarray(A, dtype=float)
        b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
        images = []
        for i in range(n):
            img = MultiPoly(n, {(0,) * n: b[i]})
            for j in range(n):
                if A[i, j] != 0.0:
                    img = img + MultiPoly.variable(n, j, A[i, j])
            images.append(img)
        out = MultiPoly(n)
        for e, c in self.terms.items():
            term = MultiPoly.constant(n, c)
            for i, p in enumerate(e):
                for _ in range(p):
                    term = term * images[i]
            out = out + term
        return out

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on pts of shape (N, nvars)."""
        pts = np.atleast_2d(pts)
        out = np.zeros(pts.shape[0])
        for e, c in self.terms.items():
            t = np.full(pts.shape[0], c)
            for k, p in enumerate(e):
                if p:
                    t *= pts[:, k] ** p
            out += t
        return out

    def max_abs_coeff_diff(self, other: "MultiPoly") -> float:
        keys = set(self.terms) | set(other.terms)
        return max((abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys),
                   default=0.0)


def _gauss_moment_fn(cov: np.ndarray, mean: np.ndarray):
    """Memoized raw-moment evaluator E[prod u_i^e_i] for N(mean, cov)."""
    n = len(mean)
    memo: dict[tuple, float] = {}

    def mom(e: tuple) -> float:
        if sum(e) == 0:
            return 1.0
        v = memo.get(e)
        if v is not None:
            return v
        i = next(k for k in range(n) if e[k] > 0)
        e1 = list(e)
        e1[i] -= 1
        val = mean[i] * mom(tuple(e1))
        for j in range(n):
            if e1[j] > 0:
                e2 = list(e1)
                e2[j] -= 1
                val += cov[i, j] * e1[j] * mom(tuple(e2))
        memo[e] = val
        return val

    return mom


def _gauss_density(pts: np.ndarray, mean, cov: np.ndarray) -> np.ndarray:
    """N(u; mean, cov) at each row u of pts; complex for a complex mean."""
    d = pts - mean
    expo = -0.5 * np.einsum("ni,ij,nj->n", d, np.linalg.inv(cov), d)
    return np.exp(expo) / ((2.0 * np.pi) ** (len(cov) / 2.0) * np.sqrt(np.linalg.det(cov)))


@dataclass(frozen=True)
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
        mom = _gauss_moment_fn(self.cov, self.mean)
        return self.norm * sum(c * mom(e) for e, c in self.poly.terms.items())

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
    if not V.is_physical():
        raise DomainError("covariance matrix is not physical")
    return PolyGaussian(V.entries, np.zeros(4), MultiPoly.constant(4), 1.0)


def normalize(W: PolyGaussian) -> PolyGaussian:
    mass = W.total_mass()
    if mass <= 0:
        raise ContractError(f"cannot normalize: total mass {mass:.3e} is not positive")
    return PolyGaussian(W.cov, W.mean, W.poly, W.norm / mass)


def _neg_log_gradient_polys(W: PolyGaussian) -> list[MultiPoly]:
    """l_k(u) with d/du_k N = -l_k(u) N, i.e. l_k = [cov^-1 (u - mean)]_k."""
    n = W.nvars
    ci = np.linalg.inv(W.cov)
    out = []
    for k in range(n):
        p = MultiPoly(n, {(0,) * n: -float(ci[k] @ W.mean)})
        for j in range(n):
            if ci[k, j] != 0.0:
                p = p + MultiPoly.variable(n, j, ci[k, j])
        out.append(p)
    return out


def subtract_photon(W: PolyGaussian) -> PolyGaussian:
    """Single photon subtraction on the optical mode, as the exact second-order
    differential operator acting on poly * Gaussian.  Degree grows by 2; the
    result is left unnormalized so norm tracks the subtraction weight."""
    if W.nvars != 4:
        raise ContractError("subtract_photon acts on the joint 4-variable state")
    n = 4
    ls = _neg_log_gradient_polys(W)
    p = W.poly

    def d(poly: MultiPoly, k: int) -> MultiPoly:
        # derivative of poly * N, divided by N
        return poly.diff(k) + ls[k].scale(-1.0) * poly

    x = MultiPoly.variable(n, XC)
    pp = MultiPoly.variable(n, PC)
    acc = (x * x + pp * pp + MultiPoly.constant(n)) * p
    acc = acc + x * d(p, XC) + pp * d(p, PC)
    acc = acc + d(d(p, XC), XC).scale(0.25) + d(d(p, PC), PC).scale(0.25)
    return PolyGaussian(W.cov, W.mean, acc.scale(0.5), W.norm)


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
    from .gaussian_core import require_xp_decoupled
    require_xp_decoupled(sigma, "qn_polynomial")
    nv = 4
    if n == 0:
        return MultiPoly.constant(nv)
    lx = (MultiPoly.variable(nv, XC, sigma.s33 - 1.0)
          + MultiPoly.variable(nv, XM, sigma.s13))
    lp = (MultiPoly.variable(nv, PC, sigma.s44 - 1.0)
          + MultiPoly.variable(nv, PM, sigma.s24))
    q1 = (MultiPoly.constant(nv, 1.0 - (sigma.s33 + sigma.s44) / 2.0)
          + lx * lx + lp * lp)
    q = q1
    for _ in range(n - 1):
        q = (q1 * q
             + lx.scale(-1.0) * q.diff(XC) + lp.scale(-1.0) * q.diff(PC)
             + (q.diff(XC).diff(XC) + q.diff(PC).diff(PC)).scale(0.25))
    return q


def amplify_wigner(W: PolyGaussian, g_quad: float, n_quad: float = 0.0) -> PolyGaussian:
    """Phase-sensitive amplification of the optical mode: X_C -> g X_C and
    P_C -> (1+n)/g P_C as a density pushforward (quadrature-domain gains)."""
    if W.nvars != 4:
        raise ContractError("amplify_wigner acts on the joint 4-variable state")
    E = amplifier_block(g_quad, n_quad)
    T = np.eye(4)
    T[2:, 2:] = E
    Ti = np.linalg.inv(T)
    return PolyGaussian(T @ W.cov @ T.T, T @ W.mean,
                        W.poly.substitute_linear(Ti), W.norm)


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


def multiply_gaussian_window(W: PolyGaussian, axis: int, center: float,
                             std: float) -> PolyGaussian:
    """Multiply by exp(-(u_axis - center)^2 / (2 std^2)) / sqrt(2 std^2)."""
    if std <= 0:
        raise DomainError(f"window width must be positive, got {std}")
    n = W.nvars
    A = np.linalg.inv(W.cov)
    b = A @ W.mean
    A2 = A.copy()
    A2[axis, axis] += 1.0 / std ** 2
    b2 = b.copy()
    b2[axis] += center / std ** 2
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
    if len(keep) == W.nvars:
        perm = np.eye(W.nvars)[keep]
        return apply_linear_map(W, perm)

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
    m = len(keep)
    nz = len(drop)
    mom_z = _gauss_moment_fn(Sc, np.zeros(nz))

    # y_i = sum_j K_ij x_j + c0_i + z_i with z ~ N(0, Sc); expand monomials in y
    # and take E_z exactly.
    ext = m + nz
    images = []
    for i in range(nz):
        img = MultiPoly(ext, {(0,) * ext: c0[i]})
        for j in range(m):
            if K[i, j] != 0.0:
                img = img + MultiPoly.variable(ext, j, K[i, j])
        img = img + MultiPoly.variable(ext, m + i, 1.0)
        images.append(img)

    out: dict[tuple, float] = {}
    for e, c in W.poly.terms.items():
        ex = tuple(e[i] for i in keep)
        term = MultiPoly(ext, {ex + (0,) * nz: c})
        for iy, i_all in enumerate(drop):
            for _ in range(e[i_all]):
                term = term * images[iy]
        for ee, cc in term.terms.items():
            mz = mom_z(ee[m:])
            if mz != 0.0:
                key = ee[:m]
                out[key] = out.get(key, 0.0) + cc * mz
    return PolyGaussian(Vxx, mu_x, MultiPoly(m, out), W.norm)


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
    if eps <= 0:
        raise DomainError(f"measurement error must be positive, got {eps}")
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"homodyne efficiency must lie in (0, 1], got {mu}")
    std = np.sqrt((eps * eps + (1.0 - mu) / 2.0) / mu)
    center = zeta / np.sqrt(mu)
    out = multiply_gaussian_window(W, XC, center, std)
    out = marginal(out, [XM, PM])
    return normalize(out)


# ---------------------------------------------------------------------------
# rendering and integral functionals

DEFAULT_GRID = (-6.0, 6.0, 241)


@dataclass(frozen=True)
class GridSpec:
    xmin: float = DEFAULT_GRID[0]
    xmax: float = DEFAULT_GRID[1]
    n: int = DEFAULT_GRID[2]

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.n >= 2):
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
    """xs -> (b[:, k], the roots in t (companion eigenvalues), N(x)) at each x;
    the coefficients, binomial table and companion scaffold are built once."""
    C, m = W.cov, W.mean
    kappa = C[0, 1] / C[0, 0]
    coef = np.zeros([max((e[i] for e in W.poly.terms), default=0) + 1 for i in (0, 1)])
    for e, c in W.poly.terms.items():
        coef[e] = c
    # p^j = sum_k binom(j, k) mu^(j-k) s^k t^k
    dp = coef.shape[1] - 1
    j = np.arange(dp + 1)
    binom_s = comb(j[:, None], j) * (C[1, 1] - kappa * C[0, 1]) ** (j / 2.0)
    expo = np.maximum(j[:, None] - j, 0)
    scaffold = np.zeros((dp, dp))
    scaffold[1:, :-1] = np.eye(max(dp - 1, 0))

    def at(xs):
        mu = m[1] + kappa * (xs - m[0])
        T = binom_s * mu[:, None, None] ** expo
        b = W.norm * np.einsum("nj,njk->nk", np.vander(xs, len(coef), increasing=True) @ coef, T)
        comp = np.repeat(scaffold[None], len(xs), axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            comp[:, :, -1:] = (-b[:, :dp] / b[:, dp:])[:, :, None]
        comp[~np.isfinite(comp)] = 0.0
        dens = np.exp(-0.5 * (xs - m[0]) ** 2 / C[0, 0]) / math.sqrt(2.0 * math.pi * C[0, 0])
        return b, np.linalg.eigvals(comp), dens
    return at


def wigner_negativity(W: PolyGaussian) -> float:
    """Wigner negativity delta = integral of (|W| - W) = -2 int min(W, 0).

    At fixed x, W = N(x) phi(t) sum_k b_k(x) t^k with p = mu(x) + s t and phi
    the standard normal density: the p integral of its negative part is exact,
    a sum of incomplete Gaussian moments between the roots in t.  The real
    parts of all roots cut the t axis (a complex pair's cut only splits an
    interval of one sign).  The x integral is Gauss-Legendre on panels whose
    edges are the x where the real-root count changes.
    """
    if W.nvars != 2:
        raise ContractError("wigner_negativity is defined for 2-variable states")
    mass = W.total_mass()
    if abs(mass - 1.0) > 1e-6:
        raise ContractError(f"state is not normalized (mass {mass:.6e}); call normalize()")

    t_polys = _t_polys(W)

    def n_real(x):
        r = t_polys(x)[1]
        return np.sum(np.abs(r.imag) <= 1e-9 * np.maximum(1.0, np.abs(r.real)), axis=1)

    half = NEG_SPAN * math.sqrt(W.cov[0, 0])
    xs = W.mean[0] + np.linspace(-half, half, NEG_SWEEP)
    count = n_real(xs)
    jump = np.flatnonzero(count[1:] != count[:-1])
    lo, hi = xs[jump], xs[jump + 1]
    for _ in range(40 if jump.size else 0):     # bisect each bracketed change
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


def overlap_terms(W: PolyGaussian, terms) -> float:
    """Re 2 pi * int W(u) sum_k w_k poly_k(u) N(u; m_k, cov_k), exactly: each
    product is a poly-Gaussian whose integral is a Gaussian-moment sum.  The
    weights w_k and means m_k may be complex (coherent-state superpositions);
    the moment recursion holds unchanged for a complex mean."""
    if W.nvars != 2 or any(np.shape(term[1]) != (2,) for term in terms):
        raise ContractError("overlap is defined for 2-variable states")
    A1 = np.linalg.inv(W.cov)
    a1 = A1 @ W.mean
    const1 = W.mean @ a1 + np.linalg.slogdet(W.cov)[1]
    total = 0.0
    for w, mean, cov, poly in terms:
        A2 = np.linalg.inv(cov)
        pcov = np.linalg.inv(A1 + A2)
        pcov = 0.5 * (pcov + pcov.T)
        b = a1 + A2 @ mean
        pmean = pcov @ b
        log_c = -0.5 * (const1 + mean @ A2 @ mean - b @ pmean + np.linalg.slogdet(cov)[1]
                        - np.linalg.slogdet(pcov)[1])
        mom = _gauss_moment_fn(pcov, pmean)
        total += w * np.exp(log_c) * sum(c * mom(e) for e, c in (W.poly * poly).terms.items())
    return W.norm * float(np.real(total))


def overlap(W1: PolyGaussian, W2: PolyGaussian) -> float:
    """2 pi * integral(W1 W2): the state overlap when at least one is pure."""
    return overlap_terms(W1, [(W2.norm, W2.mean, W2.cov, W2.poly)])
