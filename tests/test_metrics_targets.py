import json
import math
from pathlib import Path

import numpy as np
import pytest

from cvngs import (EpsStage, GridSpec, MeasurementSpec, PipelineSpec,
                   PulseSpec, SystemParams, TargetState, cat_fit,
                   covariance_after_pulse, eps_pipeline, evaluate_grid, fidelity,
                   four_cat_pipeline, gaussian_wigner, initial_covariance, marginal,
                   parity_indicator, score_state, sigma_from_cov, solve_gain)
from cvngs.exceptions import ContractError, DomainError, NumericalDomainError
from cvngs.metrics_targets import (_Y_ODD, _cat_cost_fn, _lobes, _marginal,
                                   best_cat_fidelity, best_fock_fidelity)
from cvngs.phase_space import PolyGaussian, _gauss_density, normalize, translate
from test_phase_space import fock1_wigner

GOLDEN = Path(__file__).parent / "golden"


def target_wigner(target, x, p):
    """W_t(x, p), normalized to integrate to 1: the sum of the target's terms."""
    x, p = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
    u = np.stack([x.ravel(), p.ravel()], axis=1)
    return sum((wk * _gauss_density(u, mk, c)).real * q.evaluate(u)
               for w, m, c, q in target.terms for wk, mk in zip(w, m)).reshape(x.shape)


def wigner_grid(target, g):
    """The target's W_t on the grid, row-major [x, p]."""
    return target_wigner(target, *np.meshgrid(g.axis, g.axis, indexing="ij"))


def pipeline_state(xi, R=0.9, gamma=0.0, n=2, db=-6.0, n_m=0.0, g=None, n_A=0.0,
                   theta=0.0, mu=1.0, **channel):
    p = SystemParams(3.0, 7.0, gamma, n_m).with_squeeze_db(db)
    V = covariance_after_pulse(p, PulseSpec(R))
    sig = sigma_from_cov(V)
    spec = PipelineSpec(stages=(EpsStage(solve_gain(sig, xi) if g is None else g, n, n_A),),
                        measurement=MeasurementSpec(theta=theta, mu=mu), **channel)
    return eps_pipeline(V, spec), sig


class TestTargets:
    def test_fock1_center_value(self):
        t = TargetState.fock(1)
        assert target_wigner(t, 0.0, 0.0) == pytest.approx(-1.0 / math.pi, rel=1e-12)

    def test_targets_normalized(self):
        g = GridSpec(-8.0, 8.0, 321)
        for t in (TargetState.cat(math.sqrt(2.0), 1),
                  TargetState.cat(1.0, -1, lobe_var=0.3, axis="p"),
                  TargetState.fock(2, squeeze_db=-3.0),
                  TargetState.four_cat(1.6)):
            field = wigner_grid(t, g)
            assert field.sum() * g.step ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_wavefunction_consistent_with_wigner(self):
        # marginal of W equals |psi|^2 for the X-axis cat
        t = TargetState.cat(math.sqrt(2.0), 1)
        g = GridSpec(-8.0, 8.0, 321)
        marg = wigner_grid(t, g).sum(axis=1) * g.step
        psi = t.wavefunction
        dens = np.abs(psi(g.axis)) ** 2
        assert np.abs(marg - dens).max() < 1e-8

    @pytest.mark.parametrize("t", [
        TargetState.cat(1.3, 1, lobe_var=0.3, axis="x"),
        TargetState.cat(1.3, -1, lobe_var=0.3, axis="p"),
        TargetState.fock(3, squeeze_db=-2.5),
        TargetState.four_cat(1.6)], ids=["cat-x", "cat-p", "fock", "four-cat"])
    def test_wigner_terms_match_wavefunction(self, t):
        # W(x, p) = (1/pi) int psi*(x + y) psi(x - y) e^{2ipy} dy
        psi = t.wavefunction
        y = np.linspace(-12.0, 12.0, 6001)
        for x, p in ((0.1, 0.2), (-0.7, 0.4), (1.1, -0.9), (0.0, 1.5)):
            ref = np.sum(np.conj(psi(x + y)) * psi(x - y) * np.exp(2j * p * y)).real
            assert target_wigner(t, x, p) == pytest.approx(ref * (y[1] - y[0]) / math.pi,
                                                           abs=1e-12)

    def test_four_cat_wavefunction_normalized(self):
        psi = TargetState.four_cat(1.6).wavefunction
        xs = np.linspace(-10, 10, 4001)
        assert np.trapezoid(np.abs(psi(xs)) ** 2, xs) == pytest.approx(1.0, abs=1e-8)

    def test_zero_amplitude_cat_allowed(self):
        t = TargetState.cat(0.0, 1)
        assert target_wigner(t, 0.0, 0.0) > 0.0

    def test_bad_targets_rejected(self):
        with pytest.raises(DomainError):
            TargetState.cat(-1.0, 1)
        with pytest.raises(DomainError):
            TargetState.cat(1.0, 2)
        with pytest.raises(DomainError):
            TargetState.fock(-1)
        for alpha in (0.0, 1e-9):       # an odd cat without norm: its fidelity would be NaN
            with pytest.raises(DomainError):
                TargetState.cat(alpha, -1)
        # a non-integer index scored as Fock-2, a non-finite parameter built NaN terms,
        # a huge finite one raised OverflowError or built NaN terms
        fock, cat, four_cat, inf, nan = (TargetState.fock, TargetState.cat,
                                         TargetState.four_cat, math.inf, math.nan)
        for make in (lambda: fock(2.7), lambda: fock(nan), lambda: fock(2, squeeze_db=inf),
                     lambda: fock(2, squeeze_db=nan), lambda: cat(nan), lambda: cat(inf),
                     lambda: cat(1.0, lobe_var=nan), lambda: cat(1.0, lobe_var=inf),
                     lambda: four_cat(nan), lambda: four_cat(inf), lambda: cat(1e200),
                     lambda: fock(2, squeeze_db=1e4), lambda: fock(10 ** 400),
                     lambda: four_cat(1e200)):
            with pytest.raises(DomainError):
                make()


class TestFidelity:
    def test_fock1_state_against_fock1_target(self):
        assert fidelity(fock1_wigner(), TargetState.fock(1)) == pytest.approx(
            1.0, abs=1e-6)

    def test_vacuum_against_vacuum_cat(self):
        W = marginal(gaussian_wigner(initial_covariance(0.0, 1.0)), [0, 1])
        assert fidelity(W, TargetState.fock(0)) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_states(self):
        W = marginal(gaussian_wigner(initial_covariance(0.0, 1.0)), [0, 1])
        assert fidelity(W, TargetState.fock(1)) < 1e-8

    def test_symmetry_on_pure_pair(self):
        # overlap of two pure PolyGaussians is symmetric by construction
        from cvngs import overlap
        a = fock1_wigner()
        b = marginal(gaussian_wigner(initial_covariance(0.0, 0.5)), [0, 1])
        assert overlap(a, b) == pytest.approx(overlap(b, a), abs=1e-12)

    def test_unnormalized_rejected(self):
        from cvngs import PolyGaussian
        W = fock1_wigner()
        W2 = PolyGaussian(W.cov, W.mean, W.poly, 3.0)
        with pytest.raises(ContractError):
            fidelity(W2, TargetState.fock(1))

    def test_non_finite_overlap_rejected(self):
        from cvngs import PolyGaussian
        W = fock1_wigner()
        with pytest.raises(NumericalDomainError):
            fidelity(PolyGaussian(W.cov, W.mean, W.poly, float("nan")), TargetState.fock(1))

    def test_pipeline_fock_state(self):
        W, sig = pipeline_state(0.5, gamma=0.0)
        t = TargetState.fock(2, squeeze_db=-10 * math.log10(sig.s11))
        assert fidelity(W, t) > 0.99


def measured_state(xi, n=2, theta=0.35, zeta=0.5):
    p = SystemParams(3.0, 7.0, 0.0).with_squeeze_db(-6.0)
    V = covariance_after_pulse(p, PulseSpec(0.9))
    sig = sigma_from_cov(V)
    spec = PipelineSpec(stages=(EpsStage(solve_gain(sig, xi), n),),
                        measurement=MeasurementSpec(theta=theta, zeta=zeta))
    return eps_pipeline(V, spec), sig


class TestExactFidelity:
    """The exact term-sum overlap against 2 pi sum(W W_t) h^2 on a fine grid."""

    @staticmethod
    def grid_fidelity(W, target):
        g = GridSpec(-8.0, 8.0, 401)
        field, _ = evaluate_grid(W, g)
        return 2.0 * math.pi * float(np.sum(field * wigner_grid(target, g))) * g.step ** 2

    @pytest.mark.parametrize("xi, target", [
        (1.0, TargetState.cat(math.sqrt(2.0), 1, lobe_var=0.3, axis="p")),
        (0.0, TargetState.cat(math.sqrt(2.0), 1, lobe_var=0.4, axis="x")),
        (0.5, TargetState.fock(2, squeeze_db=-2.0)),
    ], ids=["cat-p", "cat-x", "fock"])
    def test_matches_grid(self, xi, target):
        W, _ = measured_state(xi)
        ref = self.grid_fidelity(W, target)
        assert ref > 0.3
        assert abs(fidelity(W, target) - ref) < 1e-9

    def test_four_cat_matches_grid(self):
        V = covariance_after_pulse(SystemParams(3.0, 7.0, 0.0).with_squeeze_db(-6.0),
                                   PulseSpec(0.9))
        meas = MeasurementSpec(theta=0.2, zeta=0.3, eps=0.01)
        W = four_cat_pipeline(V, 0.0, meas)["state"]
        target = TargetState.four_cat(1.6)
        ref = self.grid_fidelity(W, target)
        assert ref > 0.1
        assert abs(fidelity(W, target) - ref) < 1e-9


class TestBatchedOverlap:
    @pytest.mark.parametrize("target, n_terms", [
        (TargetState.cat(1.3, 1, lobe_var=0.3, axis="p"), 4),
        (TargetState.four_cat(1.6), 16),
        (TargetState.fock(2, squeeze_db=-2.0), 1)], ids=["cat", "four-cat", "fock"])
    def test_groups_equal_sum_of_single_terms(self, target, n_terms):
        from cvngs.phase_space import overlap_terms
        W, _ = measured_state(1.0)
        singles = sum(overlap_terms(W, [(w[k:k + 1], m[k:k + 1], cov, poly)])
                      for w, m, cov, poly in target.terms for k in range(len(w)))
        assert len(target.terms) == 1
        assert len(target.terms[0][0]) == n_terms
        assert overlap_terms(W, target.terms) == pytest.approx(singles, rel=1e-14, abs=0.0)


def cat_marginal(x, xb, v, parity):
    """Normalized marginal of the ideal squeezed cat: lobes at +-xb of variance v."""
    def g(c):
        return np.exp(-(x - c) ** 2 / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
    e = math.exp(-xb * xb / (2.0 * v))
    return (g(xb) + g(-xb) + 2.0 * parity * e * g(0.0)) / (2.0 + 2.0 * parity * e)


# the acceptance states of criteria 5-7 (gamma = 1.6 MHz), n = 3 at theta = 0.3,
# and a weakly bimodal fig3d state whose odd-parity fit runs into xb -> 0
FIT_STATES = {
    "R0.5-P": dict(xi=1.0, R=0.5), "R0.5-X": dict(xi=0.0, R=0.5),
    "R0.9-P": dict(xi=1.0), "R0.9-X": dict(xi=0.0),
    "thermal": dict(xi=None, g=10 ** 0.566, n_m=0.2),
    "lossy": dict(xi=1.0, R=0.5, eta=0.9, mu=0.8, dark_count=0.98),
    "n3-theta": dict(xi=0.5, n=3, theta=0.3),
    "fig3d-noisy": dict(xi=0.5, R=0.5, n_A=0.1, eta=0.85, mu=0.8, dark_count=0.98),
}




def fit_state(name):
    """A FIT_STATES state, the vacuum, or a -6 dB squeezed vacuum squeezed along x or p."""
    if name == "vacuum":
        return marginal(gaussian_wigner(initial_covariance(0.0, 1.0)), [0, 1])
    if name.startswith("sqvac"):
        return marginal(gaussian_wigner(initial_covariance(0.0, 10 ** -0.6)),
                        [2, 3] if name.endswith("x") else [3, 2])
    return pipeline_state(gamma=1.6, **FIT_STATES[name])[0]


# The derivative-free searches the metric fits used before their Newton steps,
# kept as the independent reference for the Newton fits.

def nelder_mead_cat(W, axis):
    """Nelder-Mead on F(alpha2, lobe_var) from the lobe reading, 1 outside the box."""
    from scipy.optimize import minimize
    Wc = normalize(translate(W, -W.mean)) if np.abs(W.mean).max() > 1e-9 else W
    lobes = _lobes(*_marginal(Wc, int(axis == "p")))
    seed = (2.0, 0.5) if lobes is None else (lobes[1] ** 2 / (4.0 * lobes[2]), lobes[2])

    def neg_f(q):
        a2, v = q
        if a2 <= 0.01 or v <= 0.02 or v > 6.0:
            return 1.0
        return -fidelity(Wc, TargetState.cat(math.sqrt(a2), 1, lobe_var=v, axis=axis))
    r = minimize(neg_f, list(seed), method="Nelder-Mead", options={"xatol": 1e-4, "fatol": 1e-7})
    return -float(r.fun), (float(r.x[0]), float(r.x[1]))


def brent_fock(W, n):
    """Bounded Brent on F(squeeze_db) over [-10, 10]."""
    from scipy.optimize import minimize_scalar
    r = minimize_scalar(lambda db: -fidelity(W, TargetState.fock(n, float(db))),
                        bounds=(-10.0, 10.0), method="bounded")
    return -float(r.fun), float(r.x)


def nelder_mead_refine(W):
    """Nelder-Mead on the cat-marginal cost in (xb, v) from score_state's lobe reading:
    (cost, (xb, v), parity, the refined flag)."""
    from scipy.optimize import minimize
    found = [(*lobes, mg) for mg in (_marginal(W, 0), _marginal(W, 1)) if (lobes := _lobes(*mg))]
    dip, x0, v0, mg = min(found, key=lambda f: f[0])
    cost = _cat_cost_fn(*mg)

    def cost_xv(z, parity):
        return 1e6 if z[0] <= 0 else cost((z[0] ** 2 / (2.0 * z[1]), z[1]), parity)[0]
    r, parity = min(((minimize(cost_xv, [max(x0, 0.05), v0], args=(p,), method="Nelder-Mead",
                               options={"xatol": 1e-6, "fatol": 1e-12, "maxiter": 400}), p)
                     for p in (1, -1)), key=lambda rp: rp[0].fun)
    xb, v = r.x
    refined = 0.2 * x0 < xb < 5.0 * max(x0, 0.1) and 0.05 * v0 < v < 20.0 * v0
    return r.fun, (xb, v), parity, refined


REF_STATES = [*FIT_STATES, "vacuum", "sqvac-x", "sqvac-p"]


class TestNewtonFits:
    """The Newton fits against the derivative-free reference searches above."""

    @pytest.mark.parametrize("axis", ["x", "p"])
    @pytest.mark.parametrize("name", REF_STATES)
    def test_best_cat_fit(self, name, axis):
        # off-axis fits are multimodal: both searches climb from the same seed
        # and may end on different local maxima (R0.5-P on x: 0.584 against 0.189)
        W = fit_state(name)
        F, (a2, v) = best_cat_fidelity(W, axis)
        assert F >= nelder_mead_cat(W, axis)[0] - 1e-9
        at = fidelity(W, TargetState.cat(math.sqrt(a2), 1, lobe_var=v, axis=axis))
        assert F == pytest.approx(at, abs=1e-12)
        assert 0.01 < a2 and 0.02 < v <= 6.0

    @pytest.mark.parametrize("name", REF_STATES)
    def test_best_fock_fit(self, name):
        W = fit_state(name)
        F, db = best_fock_fidelity(W, 2)
        assert F >= brent_fock(W, 2)[0] - 1e-9
        assert F == pytest.approx(fidelity(W, TargetState.fock(2, db)), abs=1e-12)
        assert -10.0 <= db <= 10.0

    @pytest.mark.parametrize("db", [-3.0, 0.0, 2.0])
    def test_fock_fit_finds_its_own_target(self, db):
        (w, means, cov, poly), = TargetState.fock(2, db).terms
        W = PolyGaussian(cov, means[0].real, poly, float(w[0].real))
        F, squeeze_db = best_fock_fidelity(W, 2)
        assert F >= 1.0 - 1e-9
        assert squeeze_db == pytest.approx(db, abs=1e-4)

    def test_joint_state_rejected(self):
        W = gaussian_wigner(initial_covariance(0.0, 1.0))
        for fit in (lambda: best_cat_fidelity(W, "x"), lambda: best_fock_fidelity(W, 2)):
            with pytest.raises(ContractError):
                fit()

    def test_newton_stops_on_a_flat_objective(self):
        # a constant (a cost wall) has a zero Hessian: the search stops where it is
        from cvngs.metrics_targets import _Jet, _newton_max
        flat = _Jet((1e6, 0.0, 0.0, 0.0, 0.0, 0.0))
        f, z = _newton_max(lambda z: flat, [0.5, 0.3], np.zeros(2), np.full(2, np.inf))
        assert f == 1e6 and list(z) == [0.5, 0.3]

    def test_clip_warns_once(self):
        # a state whose mass is 1 + 5e-7 (inside the normalization guard) overlaps
        # its own Fock target by more than 1: the fit clips and warns once, at the end
        (w, means, cov, poly), = TargetState.fock(2).terms
        W = PolyGaussian(cov, means[0].real, poly, 1.0 + 5e-7)
        with pytest.warns(RuntimeWarning, match="fidelity clipped") as seen:
            assert best_fock_fidelity(W, 2) == (1.0, 0.0)
        assert len(seen) == 1

    @pytest.mark.parametrize("name", [*FIT_STATES, "eps_fock_R09", "eps_pcat_lossy_R05",
                                      "one-photon"])
    def test_refine_converges_below_nelder_mead(self, name):
        # the Newton point's cost is no higher than where Nelder-Mead stopped, its
        # gradient vanishes, and the refined flag is the same
        from cvngs.cli import _eps_state
        if name.startswith("eps"):
            W = _eps_state(json.loads((GOLDEN / f"{name}.manifest.json").read_text()))[2]
        else:
            W = pipeline_state(0.5, n=1)[0] if name == "one-photon" else fit_state(name)
        ref_cost, _, _, ref_refined = nelder_mead_refine(W)
        fit = cat_fit(W)
        assert fit.refined == ref_refined == (name != "one-photon")
        if fit.refined:
            cost = _cat_cost_fn(*_marginal(W, "xp".index(fit.axis)))
            y = fit.x_star ** 2 / (2.0 * fit.lobe_var)
            jet = min((cost((y, fit.lobe_var), p) for p in (1, -1)), key=lambda j: j[0])
            assert jet[0] <= ref_cost + 1e-15
            assert math.hypot(jet[1], jet[2]) <= 1e-9


class TestCatSize:
    @pytest.mark.parametrize("alpha2", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("squeeze_db", [0.0, -6.0, 6.0])
    def test_ideal_cats(self, alpha2, squeeze_db):
        # the closed-form least-squares cost of the ideal-cat model of size
        # alpha2 against an exact marginal equals a fine Riemann sum
        lobe_var = 0.5 * 10 ** (squeeze_db / 10.0)
        xb = 2.0 * math.sqrt(alpha2 * lobe_var)
        x = np.linspace(-30.0, 30.0, 24001)
        W, _ = pipeline_state(1.0, gamma=1.6)
        for axis in (0, 1):
            q, mu, s = _marginal(W, axis)
            M = marginal(W, [axis])
            m = M(x) / M.total_mass()
            cost = _cat_cost_fn(q, mu, s)
            for parity in (1, -1):
                ref = np.sum((cat_marginal(x, xb, lobe_var, parity) - m) ** 2) * (x[1] - x[0])
                y = xb * xb / (2.0 * lobe_var)
                assert cost((y, lobe_var), parity)[0] == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("parity", [1, -1])
    def test_cost_derivatives(self, parity):
        # the cost's jet against central differences of its value in (y, v)
        W, _ = pipeline_state(1.0, gamma=1.6)
        cost = _cat_cost_fn(*_marginal(W, 1))
        z, h = np.array([1.3, 0.35]), 1e-4
        jet = cost(z, parity)

        def grad(z):
            return np.array([(cost(z + dz, parity)[0] - cost(z - dz, parity)[0]) / (2 * h)
                             for dz in np.eye(2) * h])
        hess = np.array([(grad(z + dz) - grad(z - dz)) / (2 * h) for dz in np.eye(2) * h])
        assert jet[1:3] == pytest.approx(grad(z), rel=1e-6)
        assert [jet[3], jet[4], jet[5]] == pytest.approx(
            [hess[0, 0], hess[0, 1], hess[1, 1]], rel=1e-4)

    @pytest.mark.parametrize("name", list(FIT_STATES))
    def test_fit_matches_sampled_fit(self, name):
        # the exact fit against a least-squares fit of the same model to the
        # exact marginal sampled on a fine 1-D grid
        from scipy.optimize import least_squares
        W, _ = pipeline_state(gamma=1.6, **FIT_STATES[name])
        fit = cat_fit(W)
        x = np.linspace(-12.0, 12.0, 4801)
        h = x[1] - x[0]
        m = marginal(W, [0 if fit.axis == "x" else 1])(x)
        m = m / (m.sum() * h)
        best = min((least_squares(lambda z: (cat_marginal(x, *z, parity) - m) * math.sqrt(h),
                                  [1.1 * fit.x_star, 0.9 * fit.lobe_var],
                                  xtol=1e-15, ftol=1e-15, gtol=1e-15)
                    for parity in (1, -1)), key=lambda r: r.cost)
        xb, v = best.x
        assert fit.alpha2 == pytest.approx(xb * xb / (4.0 * v), abs=1e-7)
        assert fit.lobe_var == pytest.approx(v, abs=1e-7)

    def test_cost_walls(self):
        # walls at y = xb^2 / 2v <= 0, v <= 1e-4, and for odd parity at xb -> 0,
        # 1 - exp(-y) < 5e-4; the refinement's lower bound on y sits on that wall
        W, _ = pipeline_state(1.0, gamma=1.6)
        cost = _cat_cost_fn(*_marginal(W, 0))
        assert cost((0.0, 0.3), 1)[0] == cost((-0.5, 0.3), 1)[0] == 1e6
        assert cost((1.0, 1e-4), 1)[0] == 1e6
        y = 1e-3 ** 2 / 0.6
        assert cost((y, 0.3), -1)[0] == 1e6
        assert cost((y, 0.3), 1)[0] < 1.0
        assert -math.expm1(-np.nextafter(_Y_ODD, 0.0)) < 5e-4 <= -math.expm1(-_Y_ODD)
        assert cost((_Y_ODD, 0.3), -1)[0] < 1.0
        assert cost((np.nextafter(_Y_ODD, 0.0), 0.3), -1)[0] == 1e6

    def test_refined_flag(self):
        # a one-photon marginal is the odd cat's alpha -> 0 limit: the model fit
        # leaves the acceptance window and the fit keeps the lobe reading
        W, _ = pipeline_state(0.5, n=1)
        fit = cat_fit(W)
        marg = _marginal(W, "xp".index(fit.axis))
        assert not fit.refined
        assert (fit.dip_ratio, fit.x_star, fit.lobe_var) == _lobes(*marg)
        assert score_state(W).method_tags["cat_refined"] is False
        W, _ = pipeline_state(1.0, gamma=1.6)
        assert cat_fit(W).refined
        assert score_state(W).method_tags["cat_refined"] is True

    def test_work_counts(self, monkeypatch):
        # deterministic guard on the fits' work: no scipy.optimize call; a scored
        # state runs two Newton fits (one per parity), a best fit one; every
        # best-fit evaluation builds one moment table; and the evaluations per
        # fit stay at or below those measured on FIT_STATES (cat-marginal
        # refinement 11 per parity, best cat 16, best Fock 7)
        import scipy.optimize
        import cvngs.metrics_targets as mt
        import cvngs.phase_space as ps

        def forbidden(*args, **kwargs):
            raise AssertionError("a metric fit called scipy.optimize")
        for name in ("minimize", "minimize_scalar", "least_squares"):
            monkeypatch.setattr(scipy.optimize, name, forbidden)
        runs, tables, per_eval = [], [], []

        def newton(fgh, z, lo, hi):
            def counted(z):
                runs[-1] += 1
                return fgh(z)
            runs.append(0)
            return real_newton(counted, z, lo, hi)

        def moment_table(*args):
            tables.append(1)
            return real_table(*args)

        def overlaps(*args):
            before = len(tables)
            out = real_overlaps(*args)
            per_eval.append(len(tables) - before)
            return out
        real_newton, real_table = mt._newton_max, ps._moment_table
        real_overlaps = mt._kernel_overlaps
        monkeypatch.setattr(mt, "_newton_max", newton)
        monkeypatch.setattr(ps, "_moment_table", moment_table)
        monkeypatch.setattr(mt, "_kernel_overlaps", overlaps)
        refine, cat, fock = [], [], []
        for name in FIT_STATES:
            W = fit_state(name)
            runs.clear()
            score_state(W)
            assert len(runs) == 2
            refine += runs
            for fit, log in ((lambda: best_cat_fidelity(W, "x"), cat),
                             (lambda: best_cat_fidelity(W, "p"), cat),
                             (lambda: best_fock_fidelity(W, 2), fock)):
                runs.clear()
                per_eval.clear()
                fit()
                assert len(runs) == 1 and per_eval == [1] * runs[0]
                log += runs
        assert max(refine) <= 11 and max(cat) <= 16 and max(fock) <= 7

    @pytest.mark.parametrize("name", list(FIT_STATES))
    def test_best_fit_beats_the_cat_fit_target(self, name):
        # the best fit seeds from the lobe reading, yet ends no worse than the
        # even cat at the refined cat fit's (alpha2, lobe variance)
        from cvngs.metrics_targets import best_cat_fidelity
        W, _ = pipeline_state(gamma=1.6, **FIT_STATES[name])
        fit = cat_fit(W)
        at_fit = fidelity(W, TargetState.cat(math.sqrt(fit.alpha2), 1, lobe_var=fit.lobe_var,
                                             axis=fit.axis))
        assert best_cat_fidelity(W, fit.axis)[0] >= at_fit - 1e-7

    def test_p_axis_detected(self):
        for xi, axis in ((1.0, "p"), (0.0, "x")):
            fit = cat_fit(pipeline_state(xi, gamma=1.6)[0])
            assert fit is not None and fit.axis == axis

    def test_squeezed_p_cat_lobes(self):
        # lobe_var is the lobe variance along p for a P cat
        t = TargetState.cat(math.sqrt(2.0), 1, lobe_var=0.3, axis="p")
        g = GridSpec(-8.0, 8.0, 401)
        mp = wigner_grid(t, g).sum(axis=0) * g.step
        want = cat_marginal(g.axis, 2.0 * math.sqrt(2.0 * 0.3), 0.3, 1)
        assert np.abs(mp - want).max() < 1e-10

    def test_pipeline_cat_sizes(self):
        for xi in (0.0, 1.0):
            W, _ = pipeline_state(xi, gamma=0.0)
            a2 = cat_fit(W).alpha2
            assert a2 == pytest.approx(2.0, abs=0.25)

    def test_no_cat_structure(self):
        W = marginal(gaussian_wigner(initial_covariance(0.0, 1.0)), [0, 1])
        assert cat_fit(W) is None


class TestSqueezingAndParity:
    def test_vacuum_zero_db(self):
        W = marginal(gaussian_wigner(initial_covariance(0.0, 1.0)), [0, 1])
        est = score_state(W).method_tags["squeeze"]
        assert abs(est["min_var_db"]) < 1e-6

    def test_squeezed_gaussian(self):
        V = initial_covariance(0.0, 10 ** -0.3)
        W = marginal(gaussian_wigner(V), [2, 3])
        est = score_state(W).method_tags["squeeze"]
        assert est["min_var_db"] == pytest.approx(-3.0, abs=1e-6)

    def test_sigma_prescriptions(self):
        W = marginal(gaussian_wigner(initial_covariance(0.0, 1.0)), [0, 1])
        est = score_state(W, sigma11=1.6).method_tags["squeeze"]
        assert est["sigma_fock_db"] == pytest.approx(-10 * math.log10(1.6))
        assert est["sigma_cat_db"] == pytest.approx(-10 * math.log10(3.2))

    def test_gaussian_mechanical_squeezing_consistency(self):
        # sigma11 of the R=0.9, -6 dB, gamma=0 state: exact value vs R + T/S;
        # the conditional X_M variance given X_C is 1/(2 sigma11)
        p = SystemParams(3.0, 7.0, 0.0).with_squeeze_db(-6.0)
        V = covariance_after_pulse(p, PulseSpec(0.9))
        sig = sigma_from_cov(V)
        approx = 0.9 + 0.1 / p.squeeze.linear
        assert sig.s11 == pytest.approx(approx, abs=1e-12)
        assert approx == pytest.approx(1.298, abs=1e-3)
        Vx = V.entries[np.ix_([0, 2], [0, 2])]
        cond_var = Vx[0, 0] - Vx[0, 1] ** 2 / Vx[1, 1]
        assert cond_var == pytest.approx(1.0 / (2.0 * sig.s11), abs=1e-12)

    @pytest.mark.parametrize("n, theta", [(2, 0.0), (3, 0.3)])
    def test_variances_match_fine_grid(self, n, theta):
        W, _ = pipeline_state(1.0, gamma=1.6, n=n, theta=theta)
        g = GridSpec(-16.0, 16.0, 801)
        field, _ = evaluate_grid(W, g)
        ax, h = g.axis, g.step
        sq = score_state(W).method_tags["squeeze"]
        for var, m in zip((sq["var_x"], sq["var_p"]),
                          (field.sum(axis=1) * h, field.sum(axis=0) * h)):
            ref = np.sum(m * ax ** 2) * h - (np.sum(m * ax) * h) ** 2
            assert var == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_parity_rule(self, n):
        W, _ = pipeline_state(0.5, n=n)
        assert math.copysign(1.0, parity_indicator(W)) == (-1.0) ** n


class TestScoreState:
    def test_bundle(self):
        W, sig = pipeline_state(1.0, gamma=1.6)
        m = score_state(W, n=2, sigma11=sig.s11)
        assert m.delta > 0.0
        assert m.alpha2 is not None
        d = m.to_json_dict()
        assert set(d) == {"F", "delta", "alpha2", "squeeze_dB", "parity",
                          "method_tags"}
        assert d["F"] is None       # report.json pins the key; fidelities are the best fits

    def test_subnormal_marginal_is_numerical_domain(self):
        # the X marginal of this state has a 4.8e-319 coefficient: the lobe
        # reader's root finder cannot build its companion matrix; the numpy
        # overflows on the way there are ignored, not warned about
        from cvngs.cli import _eps_state
        import warnings
        W = _eps_state({"channel": {"eta": 1e-300}, "pulse": {"R": 1e-12},
                        "stages": [{"g_linear": 1e-06, "n": 2}]})[2]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(NumericalDomainError, match="marginal critical points"):
                score_state(W)
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]

    def test_metrics_render_nothing(self, monkeypatch):
        import cvngs.metrics_targets as mt
        import cvngs.phase_space as ps
        from cvngs.metrics_targets import best_cat_fidelity

        def no_grid(*args, **kwargs):
            raise AssertionError("a metric rendered a grid")
        for module in (ps, mt):
            monkeypatch.setattr(module, "evaluate_grid", no_grid, raising=False)
        W, sig = pipeline_state(1.0, gamma=1.6)
        m = score_state(W, n=2, sigma11=sig.s11)
        assert m.alpha2 is not None
        assert cat_fit(W).axis == "p" and cat_fit(W).alpha2 > 1.0
        sq = m.method_tags["squeeze"]
        assert min(sq["var_x"], sq["var_p"]) > 0.0 and "lobe_db" in sq
        assert best_cat_fidelity(W, "p")[0] > 0.5
