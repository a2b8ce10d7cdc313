import math
import warnings

import numpy as np
import pytest

from cvngs import (PulseSpec, SystemParams, correlation_sweep,
                   covariance_after_pulse, epr_steering_MtoC,
                   initial_covariance, logarithmic_negativity)
from cvngs.exceptions import DomainError

def params(db=-6.0, gamma=1.6, n_m=0.0):
    return SystemParams(3.0, 7.0, gamma, n_m=n_m).with_squeeze_db(db)


class TestRates:
    def test_effective_decay_and_cooperativity(self):
        p = params()
        G, C = p.G_mhz, p.cooperativity
        assert abs(G - (9.0 / 7.0 + 1.6)) < 1e-12
        assert abs(C - 9.0 / (7.0 * 1.6)) < 1e-12

    def test_zero_gamma_infinite_cooperativity(self):
        p = params(gamma=0.0)
        G, C = p.G_mhz, p.cooperativity
        assert G == pytest.approx(9.0 / 7.0)
        assert math.isinf(C)

    def test_bad_cavity_warning_names_the_caller(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            SystemParams(3.0, 7.0, 1.6)
        assert [w.filename for w in caught] == [__file__]

    def test_squeezed_copy_warns_once_at_the_caller(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = SystemParams(3.0, 7.0, 1.6).with_squeeze_db(-6.0)
        assert [w.filename for w in caught] == [__file__]
        assert p.squeeze.db == pytest.approx(-6.0) and p.gamma_mhz == 1.6

    def test_pulse_durations(self):
        p = params()
        assert PulseSpec(0.9).tau_s(p) == pytest.approx(2.9e-9, rel=0.02)
        assert PulseSpec(0.5).tau_s(p) == pytest.approx(19.1e-9, rel=0.02)

    def test_tau_reflectivity_roundtrip(self):
        p = params()
        for r in (0.999, 0.5, 0.037):
            tau = PulseSpec(r).tau_s(p)
            assert PulseSpec.from_tau(tau, p).R == pytest.approx(r, rel=1e-12)

    def test_reflectivity_range(self):
        with pytest.raises(DomainError):
            PulseSpec(0.0)
        with pytest.raises(DomainError):
            PulseSpec(1.2)


class TestCovarianceAfterPulse:
    def test_r_equal_one_is_initial_state(self):
        p = params(n_m=0.1)
        V = covariance_after_pulse(p, PulseSpec(1.0))
        assert np.allclose(V.entries,
                           initial_covariance(0.1, p.squeeze.linear).entries)

    def test_swap_limit(self):
        # gamma=0, R -> 0 transfers the squeezed pulse onto the mechanics
        p = params(gamma=0.0)
        V = covariance_after_pulse(p, PulseSpec(1e-9))
        s = p.squeeze.linear
        assert np.allclose(np.diag(V.V_M), [s / 2, 1 / (2 * s)], rtol=1e-6)

    def test_vacuum_input_stays_vacuum(self):
        p = SystemParams(3.0, 7.0, 1.6)   # S_in = 1, n_m = 0
        for r in (0.9, 0.5, 0.1):
            V = covariance_after_pulse(p, PulseSpec(r))
            assert np.allclose(V.entries, np.eye(4) / 2, atol=1e-12)

    @pytest.mark.parametrize("r", [0.95, 0.6, 0.3, 0.05])
    @pytest.mark.parametrize("db", [-6.0, -3.0])
    def test_pure_for_zero_gamma(self, r, db):
        V = covariance_after_pulse(params(db=db, gamma=0.0), PulseSpec(r))
        assert abs(V.det() - 1.0 / 16.0) < 1e-9

    def test_continuity_in_R(self):
        p = params()
        for r in (0.9, 0.5, 0.1):
            V1 = covariance_after_pulse(p, PulseSpec(r))
            V2 = covariance_after_pulse(p, PulseSpec(r + 1e-6))
            assert np.abs(V2.entries - V1.entries).max() < 1e-5

    def test_near_one_series_branch(self):
        # V_MC vanishes only as sqrt(T), so compare very close to R = 1
        p = params()
        V = covariance_after_pulse(p, PulseSpec(1.0 - 1e-13))
        assert np.abs(V.entries - initial_covariance(0.0, p.squeeze.linear).entries).max() < 1e-6

    def test_no_interaction_no_correlation(self):
        V = covariance_after_pulse(params(), PulseSpec(1.0 - 1e-12))
        assert logarithmic_negativity(V) < 1e-5
        assert epr_steering_MtoC(V) < 1e-5


class TestAgainstScatteringOracle:
    @pytest.mark.parametrize("gamma", [0.0, 1.6, 3.0])
    @pytest.mark.parametrize("r", [0.9, 0.5, 0.15])
    def test_second_moments_match(self, gamma, r):
        from cvngs.fock_oracle import scattering_covariance
        p = params(gamma=gamma, n_m=0.05)
        pulse = PulseSpec(r)
        V = covariance_after_pulse(p, pulse)
        Vo = scattering_covariance(p, pulse)
        assert np.abs(V.entries - Vo.entries).max() < 1e-12


class TestCorrelationSweep:
    def test_single_point(self):
        rows = correlation_sweep(params(), [0.5], [-6.0])
        assert len(rows) == 1
        assert rows[0]["R"] == 0.5

    def test_peak_near_half(self):
        rows = correlation_sweep(params(), list(np.linspace(0.05, 0.99, 95)), [-6.0])
        best_en = max(rows, key=lambda r: r["E_N"])
        best_st = max(rows, key=lambda r: r["steering_MC"])
        assert 0.4 <= best_en["R"] <= 0.6 or 0.4 <= best_st["R"] <= 0.6
        assert 0.3 <= best_en["R"] <= 0.6

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            correlation_sweep(params(), [], [-6.0])

    def test_cooperativity_attenuation_anchor(self):
        # normalized steering ~0.1 at C_om = 0.055; E_N ratio > 0.1 at C_om 0.01
        base = SystemParams(3.0, 7.0, 0.0).with_squeeze_db(-6.0)
        V0 = covariance_after_pulse(base, PulseSpec(0.5))
        e0, s0 = logarithmic_negativity(V0), epr_steering_MtoC(V0)

        def at(C):
            p = SystemParams(3.0, 7.0, 9.0 / (7.0 * C)).with_squeeze_db(-6.0)
            V = covariance_after_pulse(p, PulseSpec(0.5))
            return logarithmic_negativity(V) / e0, epr_steering_MtoC(V) / s0

        _, s_ratio = at(0.055)
        assert abs(s_ratio - 0.10) < 0.02
        e_ratio, _ = at(0.01)
        assert e_ratio > 0.10
