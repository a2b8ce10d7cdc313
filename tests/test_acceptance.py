"""Acceptance suite: one test per criterion, asserted at the stated tolerance.

Each test prints a `[criterion N] PASS/FAIL` line with the measured values
(run with `pytest -s tests/test_acceptance.py` to see them all).  Criteria
whose reference values are not reproducible from the defining equations fail
here by design; the root-cause analysis is in ROADMAP.md, section "Baseline at
this re-anchor".
"""

import math

import numpy as np
import pytest

import cvngs as cv

G_MHZ, KAPPA_MHZ, GAMMA_MHZ = 3.0, 7.0, 1.6


def params(db=-6.0, gamma=GAMMA_MHZ, n_m=0.0):
    return cv.SystemParams(G_MHZ, KAPPA_MHZ, gamma, n_m=n_m).with_squeeze_db(db)


def pulsed(R, db=-6.0, gamma=GAMMA_MHZ, n_m=0.0):
    return cv.covariance_after_pulse(params(db, gamma, n_m), cv.PulseSpec(R))


def eps_state(V, g_A, n=2, eta=1.0, mu=1.0, nu=1.0, eps=0.1, zeta=0.0):
    spec = cv.PipelineSpec(stages=(cv.EpsStage(g_A, n),),
                           measurement=cv.MeasurementSpec(zeta=zeta, eps=eps, mu=mu),
                           eta=eta, dark_count=nu)
    return cv.eps_pipeline(V, spec)


from cvngs.metrics_targets import best_cat_fidelity, best_fock_fidelity
from test_phase_space import coeff_diff, frame_subtract


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


MASSES = []


def track(W):
    MASSES.append(W.total_mass())
    return W


class TestCriterion1Rates:
    def test_rates_and_durations(self):
        p = params()
        G, C = p.G_mhz, p.cooperativity
        tau09 = cv.PulseSpec(0.9).tau_s(p)
        tau05 = cv.PulseSpec(0.5).tau_s(p)
        checks = {
            "G=2.886": abs(G - 2.886) < 5e-4,
            "C_om=0.804": abs(C - 0.804) < 5e-4,
            "tau(0.9)=2.9ns": abs(tau09 - 2.9e-9) <= 0.02 * 2.9e-9,
            "tau(0.5)=19.1ns": abs(tau05 - 19.1e-9) <= 0.02 * 19.1e-9,
        }
        ok = report(1, all(checks.values()),
                    f"G={G:.4f} MHz, C_om={C:.4f}, tau(0.9)={tau09 * 1e9:.3f} ns, "
                    f"tau(0.5)={tau05 * 1e9:.3f} ns")
        assert ok, checks


class TestCriterion2EntanglementCurves:
    def test_curve_shape(self):
        rs = np.linspace(0.02, 0.995, 200)
        en, st = [], []
        for r in rs:
            V = pulsed(float(r))
            en.append(cv.logarithmic_negativity(V))
            st.append(cv.epr_steering_MtoC(V))
        r_en = float(rs[int(np.argmax(en))])
        r_st = float(rs[int(np.argmax(st))])
        en_at_1 = cv.logarithmic_negativity(pulsed(1.0 - 1e-12))
        positive = all(
            cv.logarithmic_negativity(pulsed(float(r), db)) > 0.0
            for r in np.linspace(0.05, 0.95, 10) for db in (-6.0, -3.0, 3.0))
        checks = {
            "argmax E_N in [0.4,0.6]": 0.4 <= r_en <= 0.6,
            "argmax steering in [0.4,0.6]": 0.4 <= r_st <= 0.6,
            "E_N(R=1)=0": en_at_1 < 1e-6,
            "E_N>0 inside": positive,
        }
        ok = report(2, all(checks.values()),
                    f"argmax_R(E_N)={r_en:.3f}, argmax_R(steering)={r_st:.3f}, "
                    f"E_N(R->1)={en_at_1:.2e}, all-positive={positive}")
        assert ok, checks


class TestCriterion3Cooperativity:
    def test_normalized_correlations(self):
        base = params(gamma=0.0)
        V0 = cv.covariance_after_pulse(base, cv.PulseSpec(0.5))
        e0 = cv.logarithmic_negativity(V0)
        s0 = cv.epr_steering_MtoC(V0)

        def ratios(c_om):
            V = pulsed(0.5, gamma=G_MHZ ** 2 / (KAPPA_MHZ * c_om))
            return (cv.logarithmic_negativity(V) / e0,
                    cv.epr_steering_MtoC(V) / s0)

        _, s_ratio = ratios(0.055)
        e_ratio, _ = ratios(0.01)
        checks = {
            "steering ratio 0.10+-0.02 at C=0.055": abs(s_ratio - 0.10) <= 0.02,
            "E_N ratio > 0.10 at C=0.01": e_ratio > 0.10,
        }
        ok = report(3, all(checks.values()),
                    f"steering ratio(C=0.055)={s_ratio:.4f}, "
                    f"E_N ratio(C=0.01)={e_ratio:.4f}")
        assert ok, checks


class TestCriterion4GainValues:
    def test_published_gain_triple(self):
        sig = cv.sigma_from_cov(pulsed(0.9))
        got = {"g_x": cv.linear_to_db(cv.solve_gain(sig, 0.0)),
               "g_F": cv.linear_to_db(cv.solve_gain(sig, 0.5)),
               "g_p": cv.linear_to_db(cv.solve_gain(sig, 1.0))}
        want = {"g_x": 5.90, "g_F": 5.76, "g_p": 5.62}
        checks = {k: abs(got[k] - want[k]) <= 0.05 for k in want}
        ok = report(4, all(checks.values()),
                    "computed {g_x:.3f}/{g_F:.3f}/{g_p:.3f} dB vs reference "
                    "5.90/5.76/5.62 +-0.05 (see ROADMAP.md baseline: the reference triple "
                    "corresponds to gamma=g in the covariance)".format(**got))
        assert ok, got


class TestCriterion5IdealStates:
    def test_fidelities_at_solved_gains(self):
        details, checks = [], {}
        V9 = pulsed(0.9)
        sig9 = cv.sigma_from_cov(V9)
        # Fock target at R = 0.9 (best squeezed-Fock-2 over the squeeze)
        W = track(eps_state(V9, cv.solve_gain(sig9, 0.5)))
        f_fock, _ = best_fock_fidelity(W, 2)
        checks["R=0.9 Fock F>0.98"] = f_fock > 0.98
        details.append(f"R=0.9 Fock-2: F={f_fock:.4f}")

        for xi, axis, name in ((1.0, "p", "P-cat"), (0.0, "x", "X-cat")):
            Wc = track(eps_state(V9, cv.solve_gain(sig9, xi)))
            f, _ = best_cat_fidelity(Wc, axis)
            checks[f"R=0.9 {name} F>0.98"] = f > 0.98
            details.append(f"R=0.9 {name}: F={f:.4f}")

        V5 = pulsed(0.5)
        sig5 = cv.sigma_from_cov(V5)
        for xi, axis, name in ((1.0, "p", "P-cat"), (0.0, "x", "X-cat")):
            Wc = track(eps_state(V5, cv.solve_gain(sig5, xi)))
            f, _ = best_cat_fidelity(Wc, axis)
            checks[f"R=0.5 {name} F>0.88"] = f > 0.88
            details.append(f"R=0.5 {name}: F={f:.4f}")

        ok = report(5, all(checks.values()),
                    "; ".join(details) + "  [purity bound caps these below the "
                    "reference values at C_om=0.8; see ROADMAP.md baseline]")
        assert ok, checks


class TestCriterion6ThermalCases:
    @pytest.mark.parametrize("db,n_m,g_db,f_ref,a2_ref,d_ref", [
        (-3.0, 0.05, 2.88, 0.62, 2.1, 0.20),
        (-6.0, 0.20, 5.66, 0.70, 2.1, 0.18),
    ])
    def test_thermal_quality(self, db, n_m, g_db, f_ref, a2_ref, d_ref):
        V = pulsed(0.9, db=db, n_m=n_m)
        W = track(eps_state(V, cv.db_to_linear(g_db)))
        delta = cv.wigner_negativity(W)
        fit = cv.cat_fit(W)
        a2 = fit.alpha2 if fit else float("nan")
        axis = fit.axis if fit else "x"
        f, _ = best_cat_fidelity(W, axis)
        checks = {
            f"F={f_ref}+-0.03": abs(f - f_ref) <= 0.03,
            f"alpha2={a2_ref}+-0.1": abs(a2 - a2_ref) <= 0.1,
            f"delta={d_ref}+-0.03": abs(delta - d_ref) <= 0.03,
        }
        ok = report(6, all(checks.values()),
                    f"(S_in={db} dB, n_m={n_m}, g_A={g_db} dB): F={f:.3f} "
                    f"(ref {f_ref}), |alpha|^2={a2:.3f} (ref {a2_ref}), "
                    f"delta={delta:.3f} (ref {d_ref})")
        assert ok, checks


class TestCriterion7Imperfections:
    @pytest.fixture(scope="class")
    def lossy_states(self):
        V = pulsed(0.5)
        sig = cv.sigma_from_cov(V)          # gains calibrated on the ideal protocol
        sig_post = cv.loss_channel_sigma(sig, 0.9)
        out = {}
        for name, xi in (("P-cat", 1.0), ("Fock", 0.5), ("X-cat", 0.0)):
            g = cv.solve_gain(sig, xi)
            out[name] = track(eps_state(V, g, eta=0.9, mu=0.8, nu=0.98))
        return out, sig_post

    def test_p_cat(self, lossy_states):
        states, sig_post = lossy_states
        W = states["P-cat"]
        delta = cv.wigner_negativity(W)
        fit = cv.cat_fit(W)
        a2 = fit.alpha2 if fit else float("nan")
        f, _ = best_cat_fidelity(W, "p")
        checks = {"alpha2 1.7+-0.05": abs(a2 - 1.7) <= 0.05,
                  "delta 0.04+-0.05": abs(delta - 0.04) <= 0.05,
                  "F 0.76+-0.05": abs(f - 0.76) <= 0.05}
        ok = report(7, all(checks.values()),
                    f"P-cat: |alpha|^2={a2:.3f}, delta={delta:.4f}, F={f:.3f} "
                    f"(refs 1.7/0.04/0.76)")
        assert ok, checks

    def test_fock(self, lossy_states):
        states, sig_post = lossy_states
        W = states["Fock"]
        delta = cv.wigner_negativity(W)
        sq = cv.score_state(W, n=2, sigma11=sig_post.s11).method_tags["squeeze"]
        s_db = sq["sigma_fock_db"]
        f, _ = best_fock_fidelity(W, 2)
        checks = {"delta 0.05+-0.05": abs(delta - 0.05) <= 0.05,
                  "F 0.66+-0.05": abs(f - 0.66) <= 0.05,
                  "s -2+-0.3 dB": abs(s_db - (-2.0)) <= 0.3}
        ok = report(7, all(checks.values()),
                    f"Fock: delta={delta:.4f}, F={f:.3f}, s={s_db:.2f} dB "
                    f"(refs 0.05/0.66/-2)")
        assert ok, checks

    def test_x_cat(self, lossy_states):
        states, sig_post = lossy_states
        W = states["X-cat"]
        delta = cv.wigner_negativity(W)
        fit = cv.cat_fit(W)
        a2 = fit.alpha2 if fit else float("nan")
        f, _ = best_cat_fidelity(W, "x")
        sq = cv.score_state(W, sigma11=sig_post.s11).method_tags["squeeze"]
        s_db = sq["sigma_cat_db"]
        checks = {"alpha2 1.7+-0.05": abs(a2 - 1.7) <= 0.05,
                  "delta 0.06+-0.05": abs(delta - 0.06) <= 0.05,
                  "F 0.81+-0.05": abs(f - 0.81) <= 0.05,
                  "s -4.6+-0.3 dB": abs(s_db - (-4.6)) <= 0.3}
        ok = report(7, all(checks.values()),
                    f"X-cat: |alpha|^2={a2:.3f}, delta={delta:.4f}, F={f:.3f}, "
                    f"s={s_db:.2f} dB (refs 1.7/0.06/0.81/-4.6)")
        assert ok, checks


class TestCriterion8ImperfectOutcome:
    def test_displacement_identity(self):
        sig = cv.sigma_from_cov(pulsed(0.5))
        g = cv.solve_gain(sig, 1.0)
        psi = cv.wavefunction_XM(sig, g, 2, zeta=1.0)
        d_formula = -1.0 * sig.s13 / (math.sqrt(g) * sig.s11)
        ok = abs(psi.displacement - d_formula) < 1e-6
        report(8, ok, f"wave-function displacement d={psi.displacement:.8f} vs "
                      f"formula {d_formula:.8f}")
        assert ok

    def test_fixed_direction_cat_fidelity(self):
        V = pulsed(0.5)
        sig = cv.sigma_from_cov(V)
        g = cv.solve_gain(sig, 1.0)
        W = track(eps_state(V, g, zeta=1.0))
        f, _ = best_cat_fidelity(W, "p")
        ok = abs(f - 0.9) <= 0.03
        report(8, ok, f"zeta=1 P-cat fidelity F={f:.3f} (ref 0.9+-0.03; "
                      "purity-bounded at C_om=0.8, see ROADMAP.md baseline)")
        assert ok


class TestCriterion9FourCat:
    def test_cascade_fidelity_and_branch_equality(self):
        V = pulsed(0.9, gamma=0.0)
        sig = cv.sigma_from_cov(V)
        res = {}
        for xi1 in (0.0, 1.0):
            res[xi1] = cv.four_cat_pipeline(V, xi1, cv.MeasurementSpec(eps=1e-3))
            track(res[xi1]["state"])
        f0, f1 = res[0.0]["fidelity"], res[1.0]["fidelity"]
        psi_a = cv.four_cat_wavefunction(sig, 0.0)
        psi_b = cv.four_cat_wavefunction(sig, 1.0)
        xs = np.linspace(-8.0, 8.0, 1601)
        sup = float(np.abs(psi_a(xs) - psi_b(xs)).max())
        checks = {
            "F(0,3)=0.98+-0.01": abs(f0 - 0.98) <= 0.01,
            "F(1,-2)=0.98+-0.01": abs(f1 - 0.98) <= 0.01,
            "same wave function (<1e-8)": sup < 1e-8,
        }
        ok = report(9, all(checks.values()),
                    f"F(xi1=0)={f0:.4f}, F(xi1=1)={f1:.4f} (squeezing-frame), "
                    f"branch wave-function sup-diff={sup:.2e}")
        assert ok, checks


class TestCriterion10Properties:
    def test_channel_physicality_preservation(self):
        ok_all = True
        for r in (0.9, 0.5, 0.2):
            V = pulsed(r)
            sig = cv.sigma_from_cov(V)
            for eta in (0.9, 0.5):
                Vl = cv.cov_from_sigma(cv.loss_channel_sigma(sig, eta))
                ok_all &= cv.check_physical(Vl)[0]
            ok_all &= cv.check_physical(cv.amplifier_map(V, 1.9))[0]
        report(10, ok_all, "physicality preserved under loss and noiseless amplifier")
        assert ok_all

    def test_steering_implies_entanglement_grid(self):
        viol = 0
        for r in np.linspace(0.02, 0.99, 50):
            for db in np.linspace(-10.0, 10.0, 50):
                V = pulsed(float(r), db=float(db))
                if cv.epr_steering_MtoC(V) > 0.0 and \
                        cv.logarithmic_negativity(V) <= 0.0:
                    viol += 1
        report(10, viol == 0, f"steering => entanglement on 50x50 grid "
                              f"({viol} violations)")
        assert viol == 0

    def test_qn_equals_repeated_subtraction(self):
        worst = 0.0
        for seed in (3, 11, 42):
            rng = np.random.default_rng(seed)
            V = pulsed(float(rng.uniform(0.2, 0.95)), db=float(rng.uniform(-8, -2)))
            sig = cv.sigma_from_cov(V)
            W = cv.gaussian_wigner(V)
            for n in (1, 2, 3):
                Wn = frame_subtract(W, n)      # the pipeline's recursion, written in u
                qn = cv.qn_polynomial(sig, n).scale(0.5 ** n)
                scale = max(abs(c) for c in qn.terms.values())
                worst = max(worst, coeff_diff(Wn.poly, qn) / scale)
        report(10, worst < 1e-10, f"Q_n recursion == n-fold subtraction "
                                  f"(worst rel dev {worst:.2e})")
        assert worst < 1e-10

    def test_conversion_rate_identities(self):
        checks = {
            "Gamma(2,0)=2/3": abs(cv.conversion_rate_gamma(2, 0.0) - 2.0 / 3.0) < 1e-12,
            "Gamma(n,1/2)=1": all(abs(cv.conversion_rate_gamma(n, 0.5) - 1.0) < 1e-12
                                  for n in (1, 2, 3, 4)),
            "symmetry": all(abs(cv.conversion_rate_gamma(n, xi)
                                - cv.conversion_rate_gamma(n, 1.0 - xi)) < 1e-10
                            for n in (1, 2, 3, 4)
                            for xi in np.linspace(-1.0, 2.0, 9)),
        }
        report(10, all(checks.values()), f"conversion-rate identities {checks}")
        assert all(checks.values())

    def test_fock1_negativity(self):
        from test_phase_space import fock1_wigner
        delta = cv.wigner_negativity(fock1_wigner())
        ref = 4.0 * math.exp(-0.5) - 2.0
        report(10, abs(delta - ref) < 1e-6,
               f"delta(Fock-1)={delta:.8f} vs {ref:.8f}")
        assert abs(delta - ref) < 1e-6

    def test_parity_rules(self):
        V = pulsed(0.9, gamma=0.0)
        sig = cv.sigma_from_cov(V)
        ok = True
        for n in (1, 2, 3, 4):
            W = track(eps_state(V, cv.solve_gain(sig, 0.5), n=n))
            ok &= math.copysign(1.0, cv.parity_indicator(W)) == (-1.0) ** n
        report(10, ok, "W(0,0) sign equals (-1)^n for xi=1/2, n<=4")
        assert ok

    def test_all_pipeline_outputs_normalized(self):
        worst = max(abs(m - 1.0) for m in MASSES) if MASSES else 0.0
        report(10, worst < 1e-8,
               f"all {len(MASSES)} pipeline outputs normalized (worst |mass-1| "
               f"= {worst:.2e})")
        assert worst < 1e-8


class TestCriterion11OracleEquivalence:
    def test_gamma0_pipelines_match_oracle(self):
        from cvngs.fock_oracle import (build_entangled_state, run_eps_oracle,
                                       wigner_from_density)
        grid = cv.GridSpec()
        worst_grid, worst_mom = 0.0, 0.0
        cases = []
        for R, chan in ((0.9, {}), (0.5, {}),
                        (0.5, {"eta": 0.9, "mu": 0.8, "nu": 0.98})):
            p = params(gamma=0.0)
            pulse = cv.PulseSpec(R)
            V = cv.covariance_after_pulse(p, pulse)
            st0 = build_entangled_state(p, pulse, truncation=40)
            worst_mom = max(worst_mom,
                            float(np.abs(st0.quadrature_covariance()
                                         - V.entries).max()))
            sig = cv.sigma_from_cov(V)
            for xi in (0.0, 0.5, 1.0):
                g = cv.solve_gain(sig, xi)
                st = run_eps_oracle(p, pulse, g, 2, state=st0,
                                    eta=chan.get("eta", 1.0),
                                    mu=chan.get("mu", 1.0),
                                    nu=chan.get("nu", 1.0))
                Wo = wigner_from_density(st.reduced_mechanical(), grid)
                W = eps_state(V, g, eta=chan.get("eta", 1.0),
                              mu=chan.get("mu", 1.0), nu=chan.get("nu", 1.0))
                Wp, _ = cv.evaluate_grid(W, grid)
                diff = float(np.abs(Wo - Wp).max())
                worst_grid = max(worst_grid, diff)
                cases.append(f"R={R},xi={xi},{'lossy' if chan else 'ideal'}:"
                             f"{diff:.2e}")
        ok = worst_grid < 1e-3 and worst_mom < 1e-6
        report(11, ok, f"max grid diff {worst_grid:.2e} (<1e-3), max moment "
                       f"diff {worst_mom:.2e} (<1e-6) over {len(cases)} pipelines")
        assert ok, cases


class TestCriterion12ClosedForm:
    def test_six_parameter_form_matches_pipeline(self):
        V = pulsed(0.5)
        sig = cv.loss_channel_sigma(cv.sigma_from_cov(V), 0.9)
        Vl = cv.cov_from_sigma(sig)
        worst = 0.0
        for xi in (0.0, 0.5, 1.0):
            g = cv.solve_gain(sig, xi)
            W = track(eps_state(Vl, g, mu=1.0, eps=0.1))
            U = np.diag([1.0, 1.0, math.sqrt(g), 1.0 / math.sqrt(g)])
            Ui = np.linalg.inv(U)
            sig_amp = cv.SigmaMatrix(Ui.T @ sig.entries @ Ui)
            Wcf = cv.imperfect_wigner_closed_form(sig_amp, 0.1, 1.0)
            grid = cv.GridSpec()
            f1, _ = cv.evaluate_grid(W, grid)
            f2, _ = cv.evaluate_grid(Wcf, grid)
            worst = max(worst, float(np.abs(f1 - f2).max()))
        ok = worst < 1e-6
        report(12, ok, f"closed form vs numeric pipeline at mu=1, eps=0.1: "
                       f"max abs diff {worst:.2e} (<1e-6)")
        assert ok
