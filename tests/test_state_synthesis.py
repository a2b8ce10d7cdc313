import math

import numpy as np
import pytest

from cvngs import (EpsStage, GridSpec, MeasurementSpec, PipelineSpec,
                   PulseSpec, SystemParams, conversion_rate_gamma,
                   covariance_after_pulse, dark_count_mix, eps_pipeline,
                   evaluate_grid, four_cat_conditions, four_cat_gains,
                   four_cat_pipeline, four_cat_wavefunction, gaussian_wigner,
                   imperfect_wigner_closed_form, initial_covariance,
                   linear_to_db, loss_channel_sigma, opa_gain, sigma_from_cov,
                   solve_gain, wavefunction_XM, xi_from_gain)
from cvngs.exceptions import ContractError, DomainError, ZeroWeightError
from cvngs.gaussian_core import SigmaMatrix
from test_phase_space import coeff_diff, reference_subtract


def pulsed(R=0.9, db=-6.0, gamma=1.6, n_m=0.0):
    p = SystemParams(3.0, 7.0, gamma, n_m=n_m).with_squeeze_db(db)
    return covariance_after_pulse(p, PulseSpec(R))


class TestSolveGain:
    def test_fig2_point_gains(self):
        # implementation values at R=0.9, -6 dB, C_om=0.8 (the reference set
        # quotes 5.90/5.76/5.62; see ROADMAP.md, "Baseline at this re-anchor")
        sig = sigma_from_cov(pulsed())
        assert linear_to_db(solve_gain(sig, 0.0)) == pytest.approx(5.8413, abs=2e-4)
        assert linear_to_db(solve_gain(sig, 0.5)) == pytest.approx(5.6493, abs=2e-4)
        assert linear_to_db(solve_gain(sig, 1.0)) == pytest.approx(5.4485, abs=2e-4)

    @pytest.mark.parametrize("xi", [-1.0, 0.0, 0.25, 0.5, 1.0, 2.0])
    def test_roundtrip(self, xi):
        sig = sigma_from_cov(pulsed(R=0.6))
        assert xi_from_gain(sig, solve_gain(sig, xi)) == pytest.approx(xi, abs=1e-12)

    def test_no_correlation_rejected(self):
        sig = sigma_from_cov(initial_covariance(0.0, 0.5))
        with pytest.raises(DomainError):
            solve_gain(sig, 0.5)

    def test_nonpositive_gain_rejected(self):
        sig = sigma_from_cov(pulsed(R=0.5))
        with pytest.raises(DomainError):
            solve_gain(sig, 50.0)


class TestWavefunctionRoute:
    def test_xi_zero_is_monomial(self):
        sig = sigma_from_cov(pulsed(gamma=0.0))
        g = solve_gain(sig, 0.0)
        psi = wavefunction_XM(sig, g, 2)
        assert np.flatnonzero(psi.coeffs).tolist() == [2]
        xs = np.linspace(0.1, 3.0, 500)
        dens = psi(xs) ** 2
        peak = xs[np.argmax(dens)]
        assert peak == pytest.approx(math.sqrt(2.0 / sig.s11), abs=0.01)

    def test_xi_half_at_unit_sigma_is_fock2(self):
        # synthetic sigma with s11 = 1: psi must equal the Fock-2 wave function
        m = np.diag([1.0, 1.0, 3.0, 1.0])
        m[0, 2] = m[2, 0] = 0.9
        sig = SigmaMatrix(m)
        g = solve_gain(sig, 0.5)
        psi = wavefunction_XM(sig, g, 2)
        xs = np.linspace(-4, 4, 201)
        from numpy.polynomial.hermite import hermval
        ref = hermval(xs, [0, 0, 1.0]) * np.exp(-xs ** 2 / 2)
        ref /= math.sqrt(8.0 * math.sqrt(math.pi))   # int H2^2 e^{-x^2} = 2^2 2! sqrt(pi)
        got = psi(xs)
        got *= np.sign(got[-1]) * np.sign(ref[-1])
        assert np.abs(got - ref).max() < 1e-9

    def test_zeta_zero_no_displacement(self):
        sig = sigma_from_cov(pulsed(gamma=0.0))
        psi = wavefunction_XM(sig, solve_gain(sig, 1.0), 2, zeta=0.0)
        assert psi.displacement == 0.0

    def test_displacement_formula(self):
        sig = sigma_from_cov(pulsed(R=0.5, gamma=0.0))
        g = solve_gain(sig, 1.0)
        zeta = 1.0
        psi = wavefunction_XM(sig, g, 2, zeta=zeta)
        d_expected = -zeta * sig.s13 / (math.sqrt(g) * sig.s11)
        assert psi.displacement == pytest.approx(d_expected, abs=1e-12)

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_route_equivalence_with_pipeline(self, xi, n):
        # |psi(X_M)|^2 equals the X marginal of the phase-space pipeline (gamma=0,
        # small-eps window)
        V = pulsed(R=0.9, gamma=0.0)
        sig = sigma_from_cov(V)
        g = solve_gain(sig, xi)
        spec = PipelineSpec(stages=(EpsStage(g, n),),
                            measurement=MeasurementSpec(eps=1e-4))
        W = eps_pipeline(V, spec)
        from cvngs.phase_space import marginal
        mx = marginal(W, [0])
        psi = wavefunction_XM(sig, g, n)
        xs = np.linspace(-5, 5, 401)
        got = mx.evaluate(xs[:, None])
        want = psi(xs) ** 2
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("R, zeta, n, xi", [(0.5, 1.0, 2, 1.0), (0.9, -0.7, 3, 0.5),
                                                 (0.5, 0.4, 1, 0.0)])
    def test_mean_phonons_displaced_matches_pipeline(self, R, zeta, n, xi):
        # <m' m> = (<X^2> + <P^2> - 1)/2 from the exact raw second moments of the
        # phase-space pipeline's marginals (gamma = 0, small-eps window)
        from cvngs.phase_space import _expect, marginal
        V = pulsed(R=R, gamma=0.0)
        sig = sigma_from_cov(V)
        g = solve_gain(sig, xi)
        W = eps_pipeline(V, PipelineSpec(stages=(EpsStage(g, n),),
                                         measurement=MeasurementSpec(zeta=zeta, eps=1e-4)))
        raw2 = [m.norm * _expect(np.r_[0.0, 0.0, m.poly.coef], m.mean[0], m.cov[0, 0])
                for m in (marginal(W, [i]) for i in (0, 1))]
        psi = wavefunction_XM(sig, g, n, zeta=zeta)
        assert psi.mean_phonons() == pytest.approx(0.5 * (sum(raw2) - 1.0), abs=1e-6)
        xs, dx = np.linspace(-12.0, 12.0, 4801, retstep=True)
        assert abs(np.sum(psi(xs) ** 2) * dx - 1.0) < 1e-10

    def test_pipeline_displacement_matches_formula(self):
        V = pulsed(R=0.5, gamma=1.6)
        sig = sigma_from_cov(V)
        g = solve_gain(sig, 1.0)
        spec = PipelineSpec(stages=(EpsStage(g, 2),),
                            measurement=MeasurementSpec(zeta=1.0, eps=1e-4))
        W = eps_pipeline(V, spec)
        assert W.mean[0] == pytest.approx(-sig.s13 / (math.sqrt(g) * sig.s11),
                                          abs=1e-6)


class TestConversionRate:
    def test_maximum_at_half(self):
        for n in (1, 2, 3, 4):
            assert conversion_rate_gamma(n, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_single_photon_always_unity(self):
        for xi in (-1.0, 0.0, 0.3, 1.0, 2.0):
            assert conversion_rate_gamma(1, xi) == pytest.approx(1.0, abs=1e-12)

    def test_two_photon_xi_zero(self):
        assert conversion_rate_gamma(2, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symmetry(self, n):
        for xi in np.linspace(-1.0, 2.0, 13):
            a = conversion_rate_gamma(n, xi)
            b = conversion_rate_gamma(n, 1.0 - xi)
            assert abs(a - b) < 1e-10

    def test_zero_photons_rejected(self):
        with pytest.raises(DomainError):
            conversion_rate_gamma(0, 0.5)


class TestPipeline:
    def test_no_stage_product_state(self):
        V = initial_covariance(0.1, 0.5)
        W = eps_pipeline(V, PipelineSpec())
        assert np.allclose(W.cov, V.entries[:2, :2], atol=1e-12)
        from cvngs import wigner_negativity
        assert wigner_negativity(W) < 1e-12

    def test_subtracting_vacuum_is_zero_weight(self):
        V = initial_covariance(0.0, 1.0)
        with pytest.raises(ZeroWeightError):
            eps_pipeline(V, PipelineSpec(stages=(EpsStage(1.0, 1),)))

    @pytest.mark.parametrize("stages, k", [
        ((EpsStage(1.0, 2),), 0),
        ((EpsStage(1.0, 0), EpsStage(1.0, 3)), 1)], ids=["stage-0", "stage-1"])
    def test_zero_weight_names_its_stage(self, stages, k):
        # the optical mode is vacuum: one check per stage, after its last subtraction
        V = initial_covariance(0.0, 1.0)
        with pytest.raises(ZeroWeightError,
                           match=f"^zero-weight branch: subtraction in stage {k} annihilated"):
            eps_pipeline(V, PipelineSpec(stages=stages))

    def test_parity_rule(self):
        # xi = 1/2 outputs have parity (-1)^n at the origin
        from cvngs import parity_indicator
        V = pulsed(R=0.9, gamma=0.0)
        sig = sigma_from_cov(V)
        for n in (1, 2, 3):
            g = solve_gain(sig, 0.5)
            W = eps_pipeline(V, PipelineSpec(stages=(EpsStage(g, n),)))
            assert math.copysign(1.0, parity_indicator(W)) == (-1.0) ** n

    def test_measurement_direction_rotation(self):
        # measuring P_C (theta = pi/2) on an X-cat recipe gives the same state
        # family as measuring X_C with the roles of X/P swapped upstream
        V = pulsed(R=0.5)
        sig = sigma_from_cov(V)
        g = solve_gain(sig, 1.0)
        spec = PipelineSpec(stages=(EpsStage(g, 2),),
                            measurement=MeasurementSpec(theta=math.pi / 2))
        W = eps_pipeline(V, spec)   # just exercise the rotated-measurement path
        assert abs(W.total_mass() - 1.0) < 1e-9

    def test_mass_normalized(self):
        V = pulsed(R=0.5)
        sig = sigma_from_cov(V)
        spec = PipelineSpec(stages=(EpsStage(solve_gain(sig, 0.5), 2),),
                            measurement=MeasurementSpec(mu=0.8),
                            eta=0.9, dark_count=0.98)
        W = eps_pipeline(V, spec)
        assert abs(W.total_mass() - 1.0) < 1e-9


class TestDarkCounts:
    def test_limit_cases(self):
        V = pulsed(R=0.5)
        W = gaussian_wigner(V)
        Wh = reference_subtract(reference_subtract(W))
        Wu = reference_subtract(W)
        from cvngs import normalize
        m1 = dark_count_mix(Wh, Wu, 1.0)
        assert coeff_diff(m1.poly, normalize(Wh).poly) < 1e-12
        m0 = dark_count_mix(Wh, Wu, 0.0)
        assert coeff_diff(m0.poly, normalize(Wu).poly) < 1e-12

    def test_mismatched_kernels_rejected(self):
        V1, V2 = pulsed(R=0.5), pulsed(R=0.6)
        with pytest.raises(ContractError):
            dark_count_mix(reference_subtract(gaussian_wigner(V1)),
                           reference_subtract(gaussian_wigner(V2)), 0.9)

    def test_small_effect_at_098(self):
        V = pulsed(R=0.5)
        sig = sigma_from_cov(V)
        g = solve_gain(sig, 1.0)
        f = []
        for nu in (1.0, 0.98):
            spec = PipelineSpec(stages=(EpsStage(g, 2),), dark_count=nu)
            W = eps_pipeline(V, spec)
            from cvngs import TargetState, fidelity
            f.append(fidelity(W, TargetState.cat(math.sqrt(2.0), 1,
                                                 sig.s11 / 4.0, axis="p")))
        assert abs(f[0] - f[1]) <= 0.02


class TestFourCat:
    def test_conditions(self):
        assert four_cat_conditions(0.0) == 3.0
        assert four_cat_conditions(0.5) == 0.5
        assert four_cat_conditions(1.0) == -2.0

    def test_degenerate_second_stage_at_half(self):
        sig = sigma_from_cov(pulsed(gamma=0.0))
        g1, g2 = four_cat_gains(sig, 0.5)
        assert g2 == pytest.approx(1.0, abs=1e-12)   # 0 dB

    def test_branches_share_wavefunction(self):
        sig = sigma_from_cov(pulsed(gamma=0.0))
        psi_a = four_cat_wavefunction(sig, 0.0)
        psi_b = four_cat_wavefunction(sig, 1.0)
        xs = np.linspace(-6, 6, 601)
        assert np.abs(psi_a(xs) - psi_b(xs)).max() < 1e-8

    def test_quartic_matches_pipeline_marginal(self):
        V = pulsed(gamma=0.0)
        sig = sigma_from_cov(V)
        res = four_cat_pipeline(V, 0.0, MeasurementSpec(eps=1e-4))
        from cvngs.phase_space import marginal
        mx = marginal(res["state"], [0])
        psi = four_cat_wavefunction(sig, 0.0)
        xs = np.linspace(-5, 5, 401)
        assert np.abs(mx.evaluate(xs[:, None]) - psi(xs) ** 2).max() < 1e-6

    def test_marginal_profile_two_sided_pairs(self):
        # P(X_M) of the four-component cat: symmetric inner and outer lobe pairs
        V = pulsed(gamma=0.0)
        res = four_cat_pipeline(V, 0.0, MeasurementSpec(eps=0.01))
        g = GridSpec()
        field, _ = evaluate_grid(res["state"], g)
        m = field.sum(axis=1)
        peaks = [i for i in range(1, len(m) - 1)
                 if m[i] >= m[i - 1] and m[i] > m[i + 1] and m[i] > 0.15 * m.max()]
        assert len(peaks) == 4
        xs = g.axis[peaks]
        assert np.allclose(xs, -xs[::-1], atol=1e-9)   # symmetric about 0

    def test_cat_direction_selection(self):
        # Var(P_M) > Var(X_M) on the xi=1 branch and vice versa at R=0.9
        from cvngs import score_state
        V = pulsed()
        sig = sigma_from_cov(V)
        for xi, bigger in ((1.0, "p"), (0.0, "x")):
            W = eps_pipeline(V, PipelineSpec(stages=(EpsStage(solve_gain(sig, xi), 2),)))
            sq = score_state(W).method_tags["squeeze"]
            vx, vp = sq["var_x"], sq["var_p"]
            assert (vp > vx) == (bigger == "p")

    def test_fidelity_in_squeezing_frame(self):
        V = pulsed(gamma=0.0)
        res = four_cat_pipeline(V, 0.0, MeasurementSpec(eps=0.01))
        assert res["fidelity"] == pytest.approx(0.975, abs=0.01)
        assert res["fidelity_lab"] < res["fidelity"]


class TestClosedFormAndOpa:
    @pytest.mark.parametrize("mu", [1.0, 0.8])
    def test_closed_form_matches_pipeline(self, mu):
        V = pulsed(R=0.5)
        sig = loss_channel_sigma(sigma_from_cov(V), 0.9)
        from cvngs import cov_from_sigma
        Vl = cov_from_sigma(sig)
        g = solve_gain(sig, 1.0)
        spec = PipelineSpec(stages=(EpsStage(g, 2),),
                            measurement=MeasurementSpec(eps=0.1, mu=mu))
        W = eps_pipeline(Vl, spec)
        U = np.diag([1.0, 1.0, math.sqrt(g), 1.0 / math.sqrt(g)])
        Ui = np.linalg.inv(U)
        sig_amp = SigmaMatrix(Ui.T @ sig.entries @ Ui)
        Wcf = imperfect_wigner_closed_form(sig_amp, 0.1, mu)
        grid = GridSpec()
        f1, _ = evaluate_grid(W, grid)
        f2, _ = evaluate_grid(Wcf, grid)
        assert np.abs(f1 - f2).max() < 1e-6

    def test_pure_quartic_limit(self):
        # s33 = s44 = 1 makes e = f = 0: the polynomial reduces to (2F+)^2
        m = np.diag([1.2, 1.2, 1.0, 1.0])
        m[0, 2] = m[2, 0] = 0.3
        m[1, 3] = m[3, 1] = -0.2
        sig = SigmaMatrix(m)
        W = imperfect_wigner_closed_form(sig, 0.1, 1.0)
        assert all(sum(e) in (4, 2, 0) for e in W.poly.terms)
        # no negative regions: (2F+)^2 >= 0
        field, _ = evaluate_grid(W, GridSpec())
        assert field.min() > -1e-15

    def test_opa_gain(self):
        assert opa_gain(0.0) == 1.0
        assert opa_gain(1.0 / 3.0) == pytest.approx(4.0, abs=1e-12)
        with pytest.raises(DomainError):
            opa_gain(1.0)
