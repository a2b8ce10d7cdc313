import numpy as np
import pytest

from cvngs import (CovMatrix, SqueezeSpec, amplifier_map, apply_symplectic,
                   check_physical, cov_from_sigma, epr_steering_MtoC,
                   initial_covariance, logarithmic_negativity,
                   loss_channel_cov, loss_channel_sigma, sigma_from_cov)
from cvngs.exceptions import DomainError


def tmsv(r):
    """Two-mode squeezed vacuum covariance."""
    c, s = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    V = np.zeros((4, 4))
    V[:2, :2] = V[2:, 2:] = c * np.eye(2)
    V[:2, 2:] = V[2:, :2] = s * np.diag([1.0, -1.0])
    return CovMatrix(V)


def pulsed_V(R=0.5, db=-6.0, gamma=1.6, n_m=0.0):
    from cvngs import PulseSpec, SystemParams, covariance_after_pulse
    p = SystemParams(3.0, 7.0, gamma, n_m=n_m).with_squeeze_db(db)
    return covariance_after_pulse(p, PulseSpec(R))


class TestInitialCovariance:
    def test_vacuum(self):
        V = initial_covariance(0.0, 1.0)
        assert np.allclose(V.entries, np.eye(4) / 2)

    def test_minus6db_optical_block(self):
        V = initial_covariance(0.0, SqueezeSpec.from_db(-6.0).linear)
        assert np.allclose(np.diag(V.V_C), [0.12559432, 1.99053585], atol=1e-7)

    def test_thermal_mechanical_block(self):
        V = initial_covariance(0.05, 0.5012)
        assert np.allclose(V.V_M, 0.55 * np.eye(2))

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            initial_covariance(-0.1, 1.0)
        with pytest.raises(DomainError):
            initial_covariance(0.0, 0.0)
        with pytest.raises(DomainError):
            SqueezeSpec(0.0)

    @pytest.mark.parametrize("db", [1e308, 4000.0, -4000.0, float("inf"), float("nan")])
    def test_squeeze_db_out_of_range_is_domain_error(self, db):
        with pytest.raises(DomainError):
            SqueezeSpec.from_db(db)


class TestPhysicality:
    def test_vacuum_is_physical(self):
        ok, nu = check_physical(CovMatrix(np.eye(4) / 2))
        assert ok and abs(nu - 0.5) < 1e-12

    def test_below_vacuum_unphysical(self):
        ok, _ = check_physical(CovMatrix(0.4 * np.eye(4)))
        assert not ok

    def test_pulsed_state_physical(self):
        ok, nu = check_physical(pulsed_V(R=0.5))
        assert ok and nu >= 0.5 - 1e-9

    def test_nonsymmetric_rejected(self):
        m = np.eye(4) / 2
        m[0, 1] = 0.1
        with pytest.raises(DomainError):
            CovMatrix(m)


class TestSymplecticAndAmplifier:
    def test_identity(self):
        V = pulsed_V()
        assert np.allclose(apply_symplectic(V, np.eye(4)).entries, V.entries)

    def test_squeeze_congruence(self):
        g = 1.7
        U = np.diag([1.0, 1.0, g, 1.0 / g])
        out = apply_symplectic(CovMatrix(np.eye(4) / 2), U)
        assert np.allclose(np.diag(out.entries), [0.5, 0.5, g * g / 2, 1 / (2 * g * g)])

    def test_amplifier_gain_one_keeps_state(self):
        V = pulsed_V()
        assert np.allclose(amplifier_map(V, 1.0, 0.0).entries, V.entries)

    def test_amplifier_noiseless(self):
        out = amplifier_map(CovMatrix(np.eye(4) / 2), 2.0, 0.0)
        assert np.allclose(np.diag(out.V_C), [2.0, 1.0 / 8.0])

    def test_amplifier_noisy(self):
        out = amplifier_map(CovMatrix(np.eye(4) / 2), 2.0, 0.16)
        assert np.allclose(np.diag(out.V_C), [2.0, 1.16 ** 2 / 8.0])

    def test_amplifier_rejects_bad_gain(self):
        with pytest.raises(DomainError):
            amplifier_map(pulsed_V(), -1.0)


class TestEntanglementMeasures:
    def test_product_state_not_entangled(self):
        V = initial_covariance(0.3, SqueezeSpec.from_db(-6.0).linear)
        assert logarithmic_negativity(V) < 1e-12
        assert epr_steering_MtoC(V) < 1e-12

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_tmsv_log_negativity(self, r):
        assert abs(logarithmic_negativity(tmsv(r)) - 2 * r) < 1e-9

    @pytest.mark.parametrize("r", [0.2, 0.7, 1.3])
    def test_tmsv_steering(self, r):
        # vacuum-referenced Gaussian steering of a pure TMSV: ln cosh 2r
        assert abs(epr_steering_MtoC(tmsv(r)) - np.log(np.cosh(2 * r))) < 1e-9

    def test_vacuum_has_no_steering(self):
        assert epr_steering_MtoC(CovMatrix(np.eye(4) / 2)) == 0.0

    def test_pulsed_state_steers(self):
        assert epr_steering_MtoC(pulsed_V(R=0.9)) > 0.0


class TestLossChannel:
    def test_eta_one_identity(self):
        sig = sigma_from_cov(pulsed_V())
        out = loss_channel_sigma(sig, 1.0)
        assert np.allclose(out.entries, sig.entries)

    def test_eta_zero_decouples(self):
        sig = sigma_from_cov(pulsed_V())
        out = loss_channel_sigma(sig, 0.0)
        assert abs(out.s13) < 1e-14
        assert abs(out.s33 - 1.0) < 1e-12

    def test_matches_cov_route(self):
        V = pulsed_V(R=0.7)
        for eta in (0.3, 0.9):
            via_sigma = cov_from_sigma(loss_channel_sigma(sigma_from_cov(V), eta))
            via_cov = loss_channel_cov(V, eta)
            assert np.allclose(via_sigma.entries, via_cov.entries, atol=1e-12)

    def test_entanglement_monotone_under_loss(self):
        V = pulsed_V(R=0.5)
        sig = sigma_from_cov(V)
        ens = [logarithmic_negativity(cov_from_sigma(loss_channel_sigma(sig, eta)))
               for eta in (1.0, 0.8, 0.6, 0.4, 0.2)]
        assert all(a >= b - 1e-12 for a, b in zip(ens, ens[1:]))

    def test_range_checked(self):
        with pytest.raises(DomainError):
            loss_channel_sigma(sigma_from_cov(pulsed_V()), 1.2)


class TestSigmaRoundTrip:
    def test_roundtrip(self):
        V = pulsed_V(R=0.33, db=-4.0)
        back = cov_from_sigma(sigma_from_cov(V))
        assert np.abs(back.entries - V.entries).max() < 1e-10
