import math

import numpy as np
import pytest

from cvngs import (CovMatrix, EpsStage, GridSpec, MeasurementSpec, MultiPoly,
                   PipelineSpec, PolyGaussian, PulseSpec, SystemParams,
                   amplifier_map, apply_linear_map,
                   covariance_after_pulse, eps_pipeline, evaluate_grid,
                   gaussian_wigner, initial_covariance, marginal,
                   multiply_gaussian_window, normalize, overlap, project_XC,
                   qn_polynomial, sigma_from_cov, solve_gain, wigner_negativity)
from cvngs import phase_space
from cvngs.exceptions import ContractError, DomainError
from cvngs.gaussian_core import amplifier_block
from cvngs.phase_space import (NEG_SPAN, NEG_SWEEP, PC, XC, _compose_axis, _linear,
                               _photon_frame, _real_root_count, _subtract_in_frame, _t_polys,
                               translate)


def pulsed_V(R=0.5, db=-6.0, gamma=1.6):
    p = SystemParams(3.0, 7.0, gamma).with_squeeze_db(db)
    return covariance_after_pulse(p, PulseSpec(R))


def amplify_wigner(W, g_quad, n_quad=0.0):
    """Phase-sensitive amplification of the optical mode, X_C -> g X_C and
    P_C -> (1+n)/g P_C, as a pushforward of the whole 4-variable state: the
    reference for the pipeline, which amplifies the kernel alone."""
    T = np.eye(4)
    T[2:, 2:] = amplifier_block(g_quad, n_quad)
    return apply_linear_map(W, T)


def fock1_wigner():
    """Exact Fock-1 Wigner as a PolyGaussian: (2x^2 + 2p^2 - 1) e^{-r^2}/pi."""
    poly = MultiPoly([[-1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    return PolyGaussian(np.eye(2) / 2, np.zeros(2), poly, 1.0)


def coeff_diff(a: MultiPoly, b: MultiPoly) -> float:
    """Largest absolute coefficient of a - b."""
    return float(np.abs((a + b.scale(-1.0)).coef).max())


def reference_subtract(W):
    """Reference for the photon-frame recursion: one photon subtraction as the
    second-order operator on the 4-variable box, a MultiPoly expression."""
    ci = np.linalg.inv(W.cov)
    p = W.poly

    def d(poly, k):
        return poly.diff(k) + _linear(ci[k] @ W.mean, -ci[k]) * poly

    x, pp = MultiPoly.variable(4, XC), MultiPoly.variable(4, PC)
    acc = (x * x + pp * pp + MultiPoly.constant(4)) * p
    acc = acc + x * d(p, XC) + pp * d(p, PC)
    acc = acc + d(d(p, XC), XC).scale(0.25) + d(d(p, PC), PC).scale(0.25)
    return PolyGaussian(W.cov, W.mean, acc.scale(0.5), W.norm)


def frame_subtract(W, n=1):
    """n subtractions from the Gaussian W by the pipeline's photon-frame
    recursion, written back in u."""
    assert W.poly.coef.size == 1, "the recursion starts from a constant polynomial"
    M, o, J, c = _photon_frame(W.cov, W.mean)
    f = W.poly.coef.reshape(1, 1)
    for _ in range(n):
        f = _subtract_in_frame(f, J, c)
    return PolyGaussian(W.cov, W.mean, MultiPoly(f[:, :, None, None]).substitute_linear(M, o),
                        W.norm)


def companion_real_count(coef, xs):
    """Reference for `_real_root_count`: the count `wigner_negativity` read from
    the companion eigenvalues of sum_k b_k(x) t^k, those whose imaginary part is
    within 1e-9 max(1, |real part|)."""
    dp = coef.shape[1] - 1
    b = np.vander(xs, len(coef), increasing=True) @ coef
    comp = np.zeros((len(xs), dp, dp))
    comp[:, 1:, :-1] = np.eye(max(dp - 1, 0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        comp[:, :, -1:] = (-b[:, :dp] / b[:, dp:])[:, :, None]
    comp[~np.isfinite(comp)] = 0.0
    r = np.linalg.eigvals(comp)
    return np.sum(np.abs(r.imag) <= 1e-9 * np.maximum(1.0, np.abs(r.real)), axis=1)


def companion_negativity(W, monkeypatch):
    """`wigner_negativity` by the companion count: the same sweep, bisection and
    panels with `companion_real_count` in place of the Bezoutian's inertia."""
    with monkeypatch.context() as m:
        m.setattr(phase_space, "_real_root_count",
                  lambda coef: lambda xs: companion_real_count(coef, xs))
        return wigner_negativity(W)


def sweep_points(W):
    """The x at which `wigner_negativity` sweeps the real-root count."""
    half = NEG_SPAN * math.sqrt(W.cov[0, 0])
    return W.mean[0] + np.linspace(-half, half, NEG_SWEEP)


def fine_grid_state(n, theta, zeta, xi):
    """One lossless n-photon stage at R = 0.9, gamma = 0, measured at (theta, zeta)."""
    V = pulsed_V(R=0.9, gamma=0.0)
    spec = PipelineSpec(stages=(EpsStage(solve_gain(sigma_from_cov(V), xi), n),),
                        measurement=MeasurementSpec(theta=theta, zeta=zeta))
    return eps_pipeline(V, spec)


def seeded_state(n, theta, seed):
    """One n-photon stage with loss, mu < 1 and dark counts, drawn from `seed`."""
    u = np.random.default_rng(seed).random(8)
    V = pulsed_V(R=0.5 + 0.4 * u[0], db=-7.0 + 3.0 * u[1], gamma=1.6 * u[2])
    meas = MeasurementSpec(theta=theta, zeta=u[4] - 0.5, mu=0.8 + 0.2 * u[5])
    spec = PipelineSpec(stages=(EpsStage(solve_gain(sigma_from_cov(V), 0.4 + 0.5 * u[3]), n),),
                        measurement=meas, eta=0.85 + 0.15 * u[6], dark_count=0.95 + 0.05 * u[7])
    return eps_pipeline(V, spec)


def hand_built_state(kind):
    """t-degree 0 (a Gaussian), t-degree 1, or 1 + (x - 0.3) p^2, whose leading
    t-coefficient vanishes at x = 0.3, on a correlated kernel."""
    if kind == "gaussian":
        return marginal(gaussian_wigner(pulsed_V()), [0, 1])
    cov, coef = np.array([[0.6, 0.2], [0.2, 0.5]]), np.zeros((2, 3))
    coef[0, 0] = 1.0
    if kind == "t-degree-1":
        coef[0, 1], coef[1, 0] = 0.8, 0.3
    else:
        coef[0, 2], coef[1, 2] = -0.3, 1.0
    return normalize(PolyGaussian(cov, np.array([0.1, -0.2]), MultiPoly(coef)))


SYMMETRIC_FOCK2 = (2, 0.0, 0.0, 0.9)    # p-symmetric: its count jumps 4 -> 0 at one x

# (photon number, builder, arguments): the states of the real-root-count tests
COUNT_CASES = ([pytest.param(n, seeded_state, (n, theta, seed), id=f"n{n}-theta{theta}-seed{seed}")
                for seed in (0, 1) for n in range(1, 7) for theta in (0.0, 0.4)]
               + [pytest.param(2, fine_grid_state, SYMMETRIC_FOCK2, id="fock2-symmetric")]
               + [pytest.param(0, hand_built_state, (kind,), id=kind)
                  for kind in ("gaussian", "t-degree-1", "t-lead-vanishes")])


def random_poly(rng, nvars, deg, pad=0):
    """Seeded polynomial of total degree deg in a box padded by `pad` beyond it."""
    coef = np.zeros((deg + 1 + pad,) * nvars)
    for e in np.ndindex(coef.shape):
        if sum(e) <= deg:
            coef[e] = rng.normal()
    return coef


class TestComposeAxis:
    # the full-box Horner result, evaluated at 50 seeded points u, against p at the
    # substituted point: measured at most 8.1e-16 of max |p| there, bound 1e-13
    @pytest.mark.parametrize("nvars, deg", [(2, 5), (4, 4)])
    @pytest.mark.parametrize("own", [0.0, 1.0, 0.7])
    @pytest.mark.parametrize("const", [0.0, -0.45])
    @pytest.mark.parametrize("pad", [0, 3])
    def test_equals_full_box_horner(self, nvars, deg, own, const, pad):
        # pad = 3 puts zero slabs beyond the degree in the loop along every axis
        rng = np.random.default_rng(17 * nvars + deg + pad)
        coef = random_poly(rng, nvars, deg, pad)
        u = rng.uniform(-1.5, 1.5, size=(50, nvars))
        for i in range(nvars):
            for zero in [j for j in range(nvars) if j != i]:
                others = rng.normal(size=nvars)
                others[zero] = 0.0                  # an axis that does not grow
                got = _compose_axis(coef, i, const, own, others)
                assert got.ndim == nvars
                assert max(got.shape) <= max(coef.shape)
                v = u.copy()
                v[:, i] = const + own * u[:, i] + np.delete(u, i, 1) @ np.delete(others, i)
                want = MultiPoly(coef).evaluate(v)
                assert np.abs(MultiPoly(got).evaluate(u) - want).max() < 1e-13 * np.abs(want).max()

    def test_zero_and_constant_polynomials(self):
        for coef in (np.zeros((3, 4)), np.full((1, 1), 2.5), np.pad([[2.5]], ((0, 3), (0, 2)))):
            got = _compose_axis(coef, 0, 0.3, 0.7, [0.0, 1.2])
            assert MultiPoly(got).terms == MultiPoly(coef).terms


class TestMultiPoly:
    def test_algebra(self):
        x = MultiPoly.variable(2, 0)
        p = MultiPoly.variable(2, 1)
        q = (x + p) * (x + p.scale(-1.0))
        assert q.terms == {(2, 0): 1.0, (0, 2): -1.0}

    @pytest.mark.parametrize("scalar", [2.0, 2, np.float64(2.0)])
    def test_product_takes_polynomials_only(self, scalar):
        # scale() is the one scalar product
        x = MultiPoly.variable(2, 0)
        with pytest.raises(TypeError):
            x * scalar
        with pytest.raises(TypeError):
            scalar * x

    def test_degree_and_diff(self):
        x = MultiPoly.variable(3, 0)
        q = x * x * MultiPoly.variable(3, 2)
        assert q.degree == 3
        assert q.diff(0).terms == {(1, 0, 1): 2.0}

    def test_substitute_linear(self):
        x = MultiPoly.variable(2, 0)
        A = np.array([[2.0, 0.0], [0.0, 1.0]])
        assert (x * x).substitute_linear(A).terms == {(2, 0): 4.0}

    def test_substitute_linear_with_row_exchange(self):
        # A[0, 0] = 0 forces the LU factorization to permute rows
        rng = np.random.default_rng(7)
        coef = np.zeros((7, 7, 7, 7))
        for e in np.ndindex(coef.shape):
            if sum(e) <= 6:
                coef[e] = rng.normal()
        p = MultiPoly(coef)
        A = rng.normal(size=(4, 4))
        A[0, 0] = 0.0
        b = rng.normal(size=4)
        u = rng.uniform(-1.5, 1.5, size=(25, 4))
        want = p.evaluate(u @ A.T + b)
        got = p.substitute_linear(A, b).evaluate(u)
        assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()


class TestGaussianWigner:
    def test_mass_is_one(self):
        W = gaussian_wigner(pulsed_V())
        assert abs(W.total_mass() - 1.0) < 1e-12

    def test_grid_mass(self):
        W = gaussian_wigner(initial_covariance(0.0, 1.0))
        Wm = marginal(W, [0, 1])
        field, report = evaluate_grid(Wm, GridSpec())
        assert abs(report["riemann_mass"] - 1.0) < 1e-8

    def test_unphysical_rejected(self):
        with pytest.raises(DomainError):
            gaussian_wigner(CovMatrix(0.3 * np.eye(4)))

    def test_pure_state_marginal_matches_wavefunction(self):
        # for gamma = 0 the (X_M, X_C) marginal is |psi|^2 with quadratic form 2*sigma_X
        V = pulsed_V(R=0.5, gamma=0.0)
        sig = sigma_from_cov(V)
        W = gaussian_wigner(V)
        m = marginal(W, [0, 2])
        xs = np.linspace(-3, 3, 31)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], 1)
        got = m.evaluate(pts)
        quad = (sig.s11 * X ** 2 + sig.s33 * Y ** 2 + 2 * sig.s13 * X * Y).ravel()
        want = np.exp(-quad)
        want *= got[len(got) // 2] / want[len(want) // 2]
        assert np.abs(got - want).max() < 1e-8


class TestSubtraction:
    def test_vacuum_annihilated(self):
        V = initial_covariance(0.0, 1.0)   # optical block is vacuum
        W = frame_subtract(gaussian_wigner(V))
        assert abs(W.total_mass()) < 1e-14

    def test_single_subtraction_matches_q1(self):
        V = pulsed_V(R=0.6)
        sig = sigma_from_cov(V)
        W = frame_subtract(gaussian_wigner(V))
        q1 = qn_polynomial(sig, 1).scale(0.5)   # C-hat = Q_1 / 2 on the Gaussian
        assert coeff_diff(W.poly, q1) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 6, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_qn_recursion_matches_repeated_subtraction(self, n, seed):
        rng = np.random.default_rng(seed)
        V = pulsed_V(R=float(rng.uniform(0.2, 0.9)), db=float(rng.uniform(-8, -2)))
        sig = sigma_from_cov(V)
        W = frame_subtract(gaussian_wigner(V), n)
        qn = qn_polynomial(sig, n).scale(0.5 ** n)
        scale = max(abs(c) for c in qn.terms.values())
        assert coeff_diff(W.poly, qn) < 1e-10 * scale

    def test_chain_equals_operator_expression(self):
        # a displaced, rotated kernel: every entry of cov^-1 and the mean is non-zero
        W = translate(gaussian_wigner(pulsed_V(R=0.7)), [0.3, -0.2, 0.4, 0.1])
        c, s = math.cos(0.4), math.sin(0.4)
        T = np.array([[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]])
        T[2:, 2:] = T[2:, 2:] @ [[math.cos(0.3), math.sin(0.3)], [-math.sin(0.3), math.cos(0.3)]]
        W = apply_linear_map(W, T)
        assert np.all(np.linalg.inv(W.cov) != 0.0) and np.all(W.mean != 0.0)
        want = W
        for n in range(1, 9):
            want = reference_subtract(want)
            got = frame_subtract(W, n).poly
            scale = np.abs(want.poly.coef).max()
            assert coeff_diff(got, want.poly) < 1e-13 * scale

    def test_degree_grows_by_two(self):
        W = gaussian_wigner(pulsed_V())
        for expected in (2, 4, 6):
            assert frame_subtract(W, expected // 2).poly.degree == expected

    def test_q0_is_one(self):
        assert qn_polynomial(sigma_from_cov(pulsed_V()), 0).terms == {(0, 0, 0, 0): 1.0}

    def test_vacuum_q1_zero(self):
        sig = sigma_from_cov(initial_covariance(0.0, 1.0))
        assert qn_polynomial(sig, 1).terms == {}

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            qn_polynomial(sigma_from_cov(pulsed_V()), -1)

    def test_mean_photons_match_oracle(self):
        # photon-subtracted single-mode squeezed vacuum on C, vacuum on M
        from cvngs.fock_oracle import apply_annihilate_C, build_entangled_state
        s = 10 ** -0.4
        V = initial_covariance(0.0, s)
        W = normalize(frame_subtract(gaussian_wigner(V)))
        # <n_C> from phase space: (<X_C^2> + <P_C^2> - 1)/2 via moments
        Wc = marginal(W, [2, 3])
        from cvngs.phase_space import _moment_table
        mom = _moment_table(Wc.cov, Wc.mean[None], np.add(Wc.poly.coef.shape, 2))[..., 0]
        ex2 = sum(c * mom[tuple(np.add(e, (2, 0)))] for e, c in Wc.poly.terms.items())
        ep2 = sum(c * mom[tuple(np.add(e, (0, 2)))] for e, c in Wc.poly.terms.items())
        n_ps = 0.5 * (Wc.norm * (ex2 + ep2) - 1.0)

        p = SystemParams(3.0, 7.0, 0.0, squeeze=__import__("cvngs").SqueezeSpec(s))
        st = build_entangled_state(p, PulseSpec(1.0 - 1e-14), truncation=40)
        st = apply_annihilate_C(st)
        d = st.dim
        r4 = (st.density() / st.trace()).reshape(d, d, d, d)
        rho_c = np.einsum("mcmd->cd", r4)
        n_oracle = float(np.real(np.sum(np.arange(d) * np.diag(rho_c))))
        assert abs(n_ps - n_oracle) < 1e-6


class TestAmplify:
    def test_identity(self):
        V = pulsed_V()
        W = amplify_wigner(gaussian_wigner(V), 1.0, 0.0)
        assert np.allclose(W.cov, V.entries)

    def test_matches_amplifier_map(self):
        V = pulsed_V()
        W = amplify_wigner(gaussian_wigner(V), 1.9, 0.1)
        assert np.allclose(W.cov, amplifier_map(V, 1.9, 0.1).entries)
        assert abs(W.total_mass() - 1.0) < 1e-12

    def test_poly_substitution_consistent(self):
        # amplify(subtract(W)) evaluated pointwise equals the pushforward density
        V = pulsed_V(R=0.7)
        Ws = reference_subtract(gaussian_wigner(V))
        g = 1.5
        Wa = amplify_wigner(Ws, g, 0.0)
        pts = np.array([[0.3, -0.2, 0.5, 0.1], [1.0, 0.4, -0.7, 0.9]])
        pulled = pts.copy()
        pulled[:, 2] /= g
        pulled[:, 3] *= g
        assert np.allclose(Wa.evaluate(pts), Ws.evaluate(pulled) / 1.0, rtol=1e-12)

    def test_bad_gain(self):
        with pytest.raises(DomainError):
            amplify_wigner(gaussian_wigner(pulsed_V()), 0.0)


class TestProjection:
    def test_product_state_projection_is_identity_on_M(self):
        V = initial_covariance(0.2, 0.5)
        W = project_XC(gaussian_wigner(V), eps=0.1)
        assert np.allclose(W.cov, V.entries[:2, :2], atol=1e-12)
        assert abs(W.total_mass() - 1.0) < 1e-12

    def test_keeps_all_axes_is_identity(self):
        W = gaussian_wigner(pulsed_V())
        M = marginal(W, [0, 1, 2, 3])
        assert np.allclose(M.cov, W.cov)

    def test_empty_keep_rejected(self):
        with pytest.raises(DomainError):
            marginal(gaussian_wigner(pulsed_V()), [])

    def test_zeta_displaces_mechanics(self):
        V = pulsed_V(R=0.5, gamma=0.0)
        W = project_XC(gaussian_wigner(V), eps=0.05, zeta=1.0)
        assert abs(W.mean[0]) > 0.05   # correlated X_M picks up a displacement
        assert abs(W.total_mass() - 1.0) < 1e-12

    def test_marginal_matches_gauss_hermite(self):
        # n = 6 at theta = 0.3, windowed at zeta = 0.4: integrate (X_C, P_C) out
        # by tensor Gauss-Hermite on the conditional Gaussian of the dropped axes
        W = amplify_wigner(gaussian_wigner(pulsed_V()), 1.4)
        for _ in range(6):
            W = reference_subtract(W)
        c, s = math.cos(0.3), math.sin(0.3)
        T = np.eye(4)
        T[2:, 2:] = [[c, s], [-s, c]]
        W = multiply_gaussian_window(apply_linear_map(W, T), 2, 0.4, 0.1)
        M = marginal(W, [0, 1])
        K = W.cov[2:, :2] @ np.linalg.inv(W.cov[:2, :2])
        Sc = W.cov[2:, 2:] - K @ W.cov[:2, 2:]
        t, w = np.polynomial.hermite.hermgauss(20)
        nodes = np.sqrt(2.0) * np.stack(np.meshgrid(t, t, indexing="ij"), -1).reshape(-1, 2)
        weights = np.outer(w, w).ravel() / math.pi
        L = np.linalg.cholesky(Sc)
        xs = np.array([[0.0, 0.0], [0.4, -0.3], [-0.8, 0.6], [1.2, 0.2]])
        got, want = M.evaluate(xs), []
        for x in xs:
            y = W.mean[2:] + K @ (x - W.mean[:2]) + nodes @ L.T
            pts = np.column_stack([np.repeat(x[None], len(y), 0), y])
            cond = np.exp(-0.5 * np.sum(nodes * nodes, 1)) / (2.0 * math.pi * np.prod(np.diag(L)))
            want.append(weights @ (W.evaluate(pts) / cond))
        assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()

    def test_high_order_rotated_pipeline_is_physical(self):
        spec = PipelineSpec(stages=(EpsStage(1.5, 8),),
                            measurement=MeasurementSpec(theta=0.3, eps=0.1))
        W = eps_pipeline(pulsed_V(), spec)
        assert abs(W.total_mass() - 1.0) < 1e-9
        field, _ = evaluate_grid(W, GridSpec(n=57))
        assert np.abs(field).max() <= 1.0 / math.pi

    def test_bad_args(self):
        W = gaussian_wigner(pulsed_V())
        with pytest.raises(DomainError):
            project_XC(W, eps=0.0)
        with pytest.raises(DomainError):
            project_XC(W, eps=0.1, mu=0.0)
        with pytest.raises(ContractError):
            project_XC(project_XC(W, eps=0.1), eps=0.1)


class TestGridAndNegativity:
    def test_vacuum_peak(self):
        W = marginal(gaussian_wigner(initial_covariance(0.0, 1.0)), [0, 1])
        field, report = evaluate_grid(W, GridSpec())
        assert field.max() == pytest.approx(1.0 / math.pi, rel=1e-6)
        assert report["normalized_within_1e-4"]

    def test_fock1_values(self):
        W = fock1_wigner()
        assert W.evaluate(np.zeros((1, 2)))[0] == pytest.approx(-1.0 / math.pi, rel=1e-12)
        assert abs(W.total_mass() - 1.0) < 1e-12

    def test_fock1_negativity_analytic(self):
        delta = wigner_negativity(fock1_wigner())
        assert abs(delta - (4.0 * math.exp(-0.5) - 2.0)) < 1e-6

    def test_gaussian_negativity_zero(self):
        for W in (marginal(gaussian_wigner(pulsed_V()), [0, 1]),
                  project_XC(gaussian_wigner(pulsed_V(R=0.7)), eps=0.1, zeta=1.2)):
            assert wigner_negativity(W) < 1e-12

    @pytest.mark.parametrize("n, theta, zeta, xi",
                             [(2, 0.3, 0.4, 0.5), (3, 0.5, 0.4, 0.5), (6, 0.2, 0.4, 0.5),
                              SYMMETRIC_FOCK2],
                             ids=["2-0.3", "3-0.5", "6-0.2", "2-0.0-symmetric"])
    def test_negativity_matches_fine_grid(self, n, theta, zeta, xi):
        W = fine_grid_state(n, theta, zeta, xi)
        # Riemann sum of |W| - W on a 1601^2 grid; the polynomial on the grid
        # is V_x C V_p^T with C its dense coefficient matrix
        half = float(np.max(np.abs(W.mean) + 9.0 * np.sqrt(np.diag(W.cov))))
        ax = np.linspace(-half, half, 1601)
        coef = np.zeros((W.poly.degree + 1,) * 2)
        for (i, j), c in W.poly.terms.items():
            coef[i, j] = c
        vander = np.vander(ax, len(coef), increasing=True)
        X, P = np.meshgrid(ax, ax, indexing="ij")
        kernel = PolyGaussian(W.cov, W.mean, MultiPoly.constant(2), W.norm)
        field = (vander @ coef @ vander.T) * kernel(X, P)
        riemann = float(np.sum(np.abs(field) - field)) * (ax[1] - ax[0]) ** 2
        assert riemann > 0.5
        assert abs(wigner_negativity(W) - riemann) < 1e-5

    def test_unnormalized_rejected(self):
        W = marginal(gaussian_wigner(pulsed_V()), [0, 1])
        W2 = PolyGaussian(W.cov, W.mean, W.poly, 2.0 * W.norm)
        with pytest.raises(ContractError):
            wigner_negativity(W2)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(DomainError):
            GridSpec(0.0, 0.0, 100)


class TestRealRootCount:
    @pytest.mark.parametrize("n, build, args", COUNT_CASES)
    def test_equals_companion_count(self, n, build, args):
        W = build(*args)
        coef, _ = _t_polys(W)
        xs = sweep_points(W)
        want = companion_real_count(coef, xs)
        assert np.array_equal(_real_root_count(coef)(xs), want)
        if args == SYMMETRIC_FOCK2:
            # two root pairs meet at one x: the discriminant keeps its sign there
            assert {(4, 0), (0, 4)} <= set(zip(want[:-1].tolist(), want[1:].tolist()))

    @pytest.mark.parametrize("n, build, args", [c for c in COUNT_CASES if c.values[0] <= 4])
    def test_delta_bit_identical_to_companion_route(self, n, build, args, monkeypatch):
        W = build(*args)
        assert wigner_negativity(W).hex() == companion_negativity(W, monkeypatch).hex()

    def test_far_tail_disagreement_moves_no_delta(self, monkeypatch):
        # a known limit in float64: where all roots cluster far off the real
        # axis the scaled Bezoutian is ill-conditioned, and at n >= 5 an
        # eigenvalue's sign can flip (4 of 480 seeded n <= 6 states, this one
        # among them, all beyond 7 sigma).  The extra panel edges fall where W
        # has no negative part.
        W = seeded_state(6, 0.0, 16)
        coef, _ = _t_polys(W)
        xs = sweep_points(W)
        off = _real_root_count(coef)(xs) != companion_real_count(coef, xs)
        assert np.all(np.abs(xs[off] - W.mean[0]) > 7.0 * math.sqrt(W.cov[0, 0]))
        assert wigner_negativity(W) == companion_negativity(W, monkeypatch)

    def test_one_eigvals_call_per_negativity(self, monkeypatch):
        calls, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
        wigner_negativity(fine_grid_state(*SYMMETRIC_FOCK2))
        assert len(calls) == 1


class TestEquality:
    def test_array_holding_states_compare_by_identity(self):
        # the generated == would compare ndarray fields and raise
        W = fock1_wigner()
        assert (W == normalize(W)) is False
        assert (W == W) is True
        V = pulsed_V()
        assert (V == CovMatrix(V.entries)) is False


class TestOverlap:
    def test_purity_of_pure_gaussian(self):
        W = marginal(gaussian_wigner(pulsed_V(gamma=0.0)), [0, 1])
        # reduced state of an entangled pure state is mixed; purity < 1
        p = overlap(W, W)
        assert 0.0 < p <= 1.0 + 1e-12

    def test_vacuum_self_overlap(self):
        W = marginal(gaussian_wigner(initial_covariance(0.0, 1.0)), [0, 1])
        assert overlap(W, W) == pytest.approx(1.0, abs=1e-12)

    def test_fock1_orthogonal_to_vacuum(self):
        vac = marginal(gaussian_wigner(initial_covariance(0.0, 1.0)), [0, 1])
        assert abs(overlap(fock1_wigner(), vac)) < 1e-12
