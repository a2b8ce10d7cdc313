"""Property-based checks of the structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvngs import (CovMatrix, PulseSpec, SqueezeSpec, SystemParams,
                   amplifier_map, check_physical, cov_from_sigma,
                   covariance_after_pulse, epr_steering_MtoC, gaussian_wigner,
                   logarithmic_negativity, loss_channel_sigma, qn_polynomial,
                   sigma_from_cov, solve_gain, xi_from_gain)
from test_phase_space import frame_subtract


def random_physical_V(seed, thermal_max=1.5, squeeze_max=1.0):
    """Random physical V in the X/P-decoupled family the protocol produces.

    S acts as an arbitrary invertible 2x2 matrix A on (X_M, X_C) and as
    inv(A).T on (P_M, P_C), which is symplectic and keeps the X and P sectors
    uncorrelated (squeezes along the axes + beam splitters generate this set).
    """
    rng = np.random.default_rng(seed)
    while True:
        A = rng.uniform(-1.0, 1.0, (2, 2)) * math.exp(rng.uniform(0, squeeze_max))
        if abs(np.linalg.det(A)) > 0.1:
            break
    B = np.linalg.inv(A).T
    S = np.zeros((4, 4))
    S[np.ix_([0, 2], [0, 2])] = A
    S[np.ix_([1, 3], [1, 3])] = B
    D = np.diag(np.repeat(0.5 + rng.uniform(0.0, thermal_max, 2), 2))
    return CovMatrix(S @ D @ S.T)


seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_random_states_are_physical(seed):
    ok, nu = check_physical(random_physical_V(seed))
    assert ok, nu


@settings(max_examples=40, deadline=None)
@given(seeds, st.floats(0.0, 1.0))
def test_loss_preserves_physicality(seed, eta):
    V = random_physical_V(seed)
    out = cov_from_sigma(loss_channel_sigma(sigma_from_cov(V), eta))
    ok, nu = check_physical(out)
    assert ok, (eta, nu)


@settings(max_examples=40, deadline=None)
@given(seeds, st.floats(0.2, 5.0))
def test_noiseless_amplifier_preserves_physicality(seed, g):
    out = amplifier_map(random_physical_V(seed), g, 0.0)
    ok, nu = check_physical(out)
    assert ok, (g, nu)


@settings(max_examples=40, deadline=None)
@given(seeds, st.floats(0.2, 5.0), st.floats(0.0, 2.0))
def test_noisy_amplifier_physical_or_surfaced(seed, g, n_A):
    # the literal noisy congruence is not CPTP: the contract is "physical
    # output or an explicit error", never a silent unphysical state
    from cvngs.exceptions import NumericalDomainError
    try:
        out = amplifier_map(random_physical_V(seed), g, n_A)
    except NumericalDomainError:
        return
    ok, nu = check_physical(out)
    assert ok, (g, n_A, nu)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_steering_implies_entanglement(seed):
    V = random_physical_V(seed)
    if epr_steering_MtoC(V) > 1e-10:
        assert logarithmic_negativity(V) > 0.0


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_sigma_roundtrip(seed):
    V = random_physical_V(seed)
    back = cov_from_sigma(sigma_from_cov(V))
    assert np.abs(back.entries - V.entries).max() < 1e-10 * max(
        1.0, np.abs(V.entries).max())


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(0, 3))
def test_qn_degree(seed, n):
    sig = sigma_from_cov(random_physical_V(seed))
    q = qn_polynomial(sig, n)
    if n == 0:
        assert q.degree == 0
    else:
        assert q.degree == 2 * n


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_subtraction_degree_growth(seed):
    W = gaussian_wigner(random_physical_V(seed))
    W1 = frame_subtract(W)
    assert W1.poly.degree == W.poly.degree + 2


@settings(max_examples=50, deadline=None)
@given(st.floats(-20.0, 20.0))
def test_squeeze_db_roundtrip(db):
    assert SqueezeSpec.from_db(db).db == pytest.approx(db, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 0.999999))
def test_tau_reflectivity_roundtrip(r):
    p = SystemParams(3.0, 7.0, 1.6)
    tau = PulseSpec(r).tau_s(p)
    assert PulseSpec.from_tau(tau, p).R == pytest.approx(r, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 0.95), st.floats(-9.0, -1.0), st.floats(-1.0, 2.0))
def test_gain_xi_roundtrip(r, db, xi):
    p = SystemParams(3.0, 7.0, 1.6).with_squeeze_db(db)
    sig = sigma_from_cov(covariance_after_pulse(p, PulseSpec(r)))
    try:
        g = solve_gain(sig, xi)
    except Exception:
        return
    assert xi_from_gain(sig, g) == pytest.approx(xi, abs=1e-12)


def test_steering_implies_entanglement_on_sweep_grid():
    # the acceptance-grade deterministic grid: 50 x 50 over (R, S_in)
    p = SystemParams(3.0, 7.0, 1.6)
    for r in np.linspace(0.02, 0.99, 50):
        for db in np.linspace(-10.0, 10.0, 50):
            V = covariance_after_pulse(p.with_squeeze_db(float(db)),
                                       PulseSpec(float(r)))
            if epr_steering_MtoC(V) > 0.0:
                assert logarithmic_negativity(V) > 0.0
