"""The photon-frame EPS pipeline against independent routes: the subtraction
operator on the 4-variable box (`reference_subtract`), the closed-form heralding
weights of a Gaussian, and a 40-digit evaluation of a golden state."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cvngs import (EpsStage, GridSpec, MeasurementSpec, MultiPoly, PipelineSpec,
                   amplifier_map, apply_linear_map, cli, cov_from_sigma,
                   dark_count_mix, eps_pipeline, evaluate_grid, four_cat_gains,
                   gaussian_wigner, loss_channel_sigma, project_XC, sigma_from_cov,
                   solve_gain)
from cvngs import phase_space
from cvngs.exceptions import NumericalDomainError
from cvngs.gaussian_core import amplifier_block
from cvngs.phase_space import _photon_frame, _subtract_in_frame
from cvngs.state_synthesis import _frame_state
from test_phase_space import amplify_wigner, pulsed_V, reference_subtract

CHECK_GRID = GridSpec(-7.0, 7.0, 57)
GOLDEN = Path(__file__).parent / "golden"


def reference_pipeline(V, spec):
    """The chain on the 4-variable box: loss, per stage `amplify_wigner` and n
    `reference_subtract`, dark-count mixing, the rotation that brings X_theta
    onto X_C, then `project_XC`."""
    if spec.eta < 1.0:
        V = cov_from_sigma(loss_channel_sigma(sigma_from_cov(V), spec.eta))
    joint = gaussian_wigner(V)
    for stage in spec.stages:
        joint = amplify_wigner(joint, stage.quad_gain, stage.quad_noise)
        for _ in range(stage.n):
            unheralded, joint = joint, reference_subtract(joint)
    if spec.dark_count < 1.0 and spec.stages and spec.stages[-1].n > 0:
        joint = dark_count_mix(joint, unheralded, spec.dark_count)
    m = spec.measurement
    c, s = math.cos(m.theta), math.sin(m.theta)
    T = np.eye(4)
    T[2:, 2:] = [[c, s], [-s, c]]
    return project_XC(apply_linear_map(joint, T), m.eps, m.zeta, m.mu)


def grid_diff(spec, V):
    a, _ = evaluate_grid(eps_pipeline(V, spec), CHECK_GRID)
    b, _ = evaluate_grid(reference_pipeline(V, spec), CHECK_GRID)
    return float(np.abs(a - b).max())


def single_stage(n, imperfect, seed):
    """One n-photon stage drawn from `seed`; `imperfect` turns on theta, zeta, mu,
    loss, dark counts and amplifier noise together."""
    u = np.random.default_rng(seed).random(9)
    V = pulsed_V(R=0.5 + 0.4 * u[0], db=-7.0 + 3.0 * u[1], gamma=1.6 * u[2])
    g = solve_gain(sigma_from_cov(V), 0.3 + 0.6 * u[3])
    if not imperfect:
        return V, PipelineSpec(stages=(EpsStage(g, n),),
                               measurement=MeasurementSpec(zeta=u[4] - 0.5))
    meas = MeasurementSpec(theta=0.1 + 0.5 * u[5], zeta=u[4] - 0.5, mu=0.8 + 0.2 * u[6],
                           eps=0.05 + 0.1 * u[7])
    return V, PipelineSpec(stages=(EpsStage(g, n, 0.1 * u[8]),), measurement=meas,
                           eta=0.85 + 0.15 * u[8], dark_count=0.95)


class TestAgainstReferenceChain:
    # max |W - W_ref| on the 57^2 check grid over these cases, measured: 8.4e-15
    # up to n = 4, 4.2e-14 at n = 5-6 and 6.1e-13 at n = 7-8.  The reference is the
    # less accurate side there: against a 40-digit evaluation of the plain n = 6
    # and n = 8 states it is off by 4.9e-14 and 6.4e-13, the pipeline by 7.3e-15
    # and 9.5e-14 (and on another n = 8 state, R = 0.50: 2.1e-12 against 3.2e-14).
    @pytest.mark.parametrize("imperfect", [False, True], ids=["plain", "imperfect"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_stage(self, n, imperfect):
        V, spec = single_stage(n, imperfect, seed=100 + n)
        assert grid_diff(spec, V) < (5e-14 if n <= 4 else 2e-13 if n <= 6 else 3e-12)

    # measured: at most 9.6e-15 over the cascades of up to 5 photons, and 2.8e-13
    # to 4.6e-13 over those of 8.  (1, 1, 0) ends on an amplifier after a later
    # stage: f over u then meets the projection with M = T^-1, not I
    @pytest.mark.parametrize("ns, feat", [((1, 2), ""), ((2, 2), "four-cat"),
                                          ((2, 2), "four-cat-theta-loss"), ((3, 2), "theta"),
                                          ((1, 1, 1), "dark"), ((1, 1, 1, 1), ""),
                                          ((1, 1, 0), "theta"), ((1, 7), "theta"),
                                          ((7, 1), "theta"), ((4, 4), "theta")], ids=str)
    def test_cascade(self, ns, feat):
        if "four-cat" in feat:
            V = pulsed_V(R=0.9, gamma=0.0)
            gains = four_cat_gains(sigma_from_cov(V), 0.02)
        else:
            V = pulsed_V(R=0.7, db=-5.0)
            gains = (solve_gain(sigma_from_cov(V), 0.4),) + (1.3,) * (len(ns) - 1)
        spec = PipelineSpec(stages=tuple(EpsStage(g, n) for g, n in zip(gains, ns)),
                            measurement=MeasurementSpec(theta=0.3 * ("theta" in feat),
                                                        zeta=0.2, eps=0.05),
                            eta=0.9 if "loss" in feat else 1.0,
                            dark_count=0.95 if "dark" in feat else 1.0)
        assert grid_diff(spec, V) < (5e-14 if sum(ns) <= 5 else 2e-12)

    @pytest.mark.parametrize("d", [1e-2, 1e-8, 0.0])
    def test_later_stage_with_singular_frame(self, d):
        # the second stage's gain puts the kernel's conditional optical X precision at
        # 2 (1 + d): one singular value of that stage's J is about d.  A later stage
        # carries f over u, so nothing inverts J: measured 1.1e-14 at every d
        V = pulsed_V(R=0.9, gamma=0.0)
        g1 = solve_gain(sigma_from_cov(V), 0.4)
        T = np.diag([1.0, 1.0, math.sqrt(g1), 1.0 / math.sqrt(g1)])
        g2 = np.linalg.inv(T @ V.entries @ T.T)[2, 2] / 2.0 * (1.0 + d)
        spec = PipelineSpec(stages=(EpsStage(g1, 2), EpsStage(g2, 2)),
                            measurement=MeasurementSpec(theta=0.3))
        W = eps_pipeline(V, spec)
        assert np.all(np.isfinite(W.poly.coef))
        assert grid_diff(spec, V) < 1e-13

    def test_amplifier_noise_keeps_the_unchecked_congruence(self):
        # amplifier_map checks physicality and refuses this noisy amplifier's output;
        # the pipeline applies the literal congruence to the kernel, as it always did
        V = pulsed_V(R=0.9, gamma=0.0)
        stage = EpsStage(solve_gain(sigma_from_cov(V), 0.5), 2, 0.05)
        with pytest.raises(NumericalDomainError):
            amplifier_map(V, stage.quad_gain, stage.quad_noise)
        assert grid_diff(PipelineSpec(stages=(stage,)), V) < 5e-14

    def test_single_stage_stays_bivariate(self, monkeypatch):
        # one stage never builds a 4-variable box: no MultiPoly product, and every
        # _compose_axis call has fewer than 4 axes
        def no_product(self, other):
            raise AssertionError("MultiPoly.__mul__ called for a single stage")

        seen, compose = [], phase_space._compose_axis

        def guarded(coef, *args):
            seen.append(coef.ndim)
            return compose(coef, *args)

        monkeypatch.setattr(MultiPoly, "__mul__", no_product)
        monkeypatch.setattr(phase_space, "_compose_axis", guarded)
        V, spec = single_stage(8, True, seed=7)
        W = eps_pipeline(V, spec)
        assert abs(W.total_mass() - 1.0) < 1e-12
        assert seen and max(seen) < 4


@pytest.mark.parametrize("R, phi, g", [(0.5, 0.0, 1.0), (0.9, 0.4, 3.2), (0.7, 1.1, 0.6)])
def test_heralding_weight_closed_form(R, phi, g):
    # the mass of the recursion's output is <a^dag a> after one subtraction and
    # <a^dag^2 a^2> = 2 <a^dag a>^2 + |<a^2>|^2 after two (Wick), over the amplified
    # optical block; phi rotates that block so that V_xp != 0.  Measured: 6.7e-16
    # relative at most
    c, s = math.cos(phi), math.sin(phi)
    T = np.eye(4)
    T[2:, 2:] = amplifier_block(g) @ np.array([[c, s], [-s, c]])
    cov, mean = T @ pulsed_V(R=R).entries @ T.T, np.zeros(4)
    M, o, J, c0 = _photon_frame(cov, mean)
    f1 = _subtract_in_frame(np.ones((1, 1)), J, c0)
    f2 = _subtract_in_frame(f1, J, c0)
    Vc = cov[2:, 2:]
    n1 = 0.5 * (Vc[0, 0] + Vc[1, 1] - 1.0)
    a2 = 0.5 * (Vc[0, 0] - Vc[1, 1]) + 1j * Vc[0, 1]
    assert _frame_state(f1, M, o, cov, mean).total_mass() == pytest.approx(n1, rel=1e-14)
    assert _frame_state(f2, M, o, cov, mean).total_mass() == pytest.approx(
        2.0 * n1 ** 2 + abs(a2) ** 2, rel=1e-14)


def test_eps_fock_R09_against_40_digits():
    # the golden eps_fock_R09 state from its float V and g_A, with the subtraction
    # operator on the 4-variable box, the window and the optical integral in
    # 40-digit arithmetic.  Measured on its 61^2 golden grid: the pipeline is off
    # by at most 4.1e-15 (the 4-variable float route by 3.8e-15)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    manifest = cli.validate_manifest(
        json.loads((GOLDEN / "eps_fock_R09.manifest.json").read_text()))
    _, _, V, sigma = cli._gaussian_of(manifest)
    spec = cli._pipeline_of(manifest, sigma)
    (stage,), m = spec.stages, spec.measurement
    assert (m.theta, m.zeta, m.mu, spec.eta, spec.dark_count) == (0.0, 0.0, 1.0, 1.0, 1.0)

    def mul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(sum, zip(ea, eb)))
                out[e] = out.get(e, 0) + ca * cb
        return out

    def add(*terms):
        out = {}
        for w, p in terms:
            for e, c in p.items():
                out[e] = out.get(e, 0) + w * c
        return out

    def diff(p, k):
        return {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k] for e, c in p.items() if e[k]}

    def form(const, w):
        return {(0,) * 4: const, **{tuple(int(i == j) for i in range(4)): w[j] for j in range(4)}}

    # amplify (exact square root of the float g_A), then subtract: u = (X_M, P_M, X_C, P_C)
    G = mp.diag([1, 1, mp.sqrt(stage.g_A), 1 / mp.sqrt(stage.g_A)])
    cov = G * mp.matrix(V.entries.tolist()) * G.T
    A = cov ** -1
    f, half = {(0,) * 4: mp.mpf(1)}, mp.mpf(1) / 2
    x, p = form(0, [0, 0, 1, 0]), form(0, [0, 0, 0, 1])
    for _ in range(stage.n):
        d = [add((1, diff(f, k)), (-1, mul(form(0, [A[k, j] for j in range(4)]), f)))
             for k in (2, 3)]
        dd = [add((1, diff(d[i], k)), (-1, mul(form(0, [A[k, j] for j in range(4)]), d[i])))
              for i, k in enumerate((2, 3))]
        f = add((half, mul(add((1, mul(x, x)), (1, mul(p, p)), (1, {(0,) * 4: 1})), f)),
                (half, mul(x, d[0])), (half, mul(p, d[1])), (half / 4, dd[0]), (half / 4, dd[1]))
    # window on X_C (zeta = 0, mu = 1), then u_C = K y + z with z ~ N(0, S)
    A[2, 2] += 1 / mp.mpf(m.eps) ** 2
    cov = A ** -1
    Vy = cov[0:2, 0:2]
    K = cov[2:4, 0:2] * Vy ** -1
    S = cov[2:4, 2:4] - K * Vy * K.T
    sub = [form(0, [1, 0, 0, 0]), form(0, [0, 1, 0, 0]),
           form(0, [K[0, 0], K[0, 1], 1, 0]), form(0, [K[1, 0], K[1, 1], 0, 1])]
    h = {}
    for e, c in f.items():
        t = {(0,) * 4: c}
        for i in range(4):
            for _ in range(e[i]):
                t = mul(t, sub[i])
        h = add((1, h), (1, t))

    def moments(C, top):
        """E[v0^i v1^j] for v ~ N(0, C), i + j <= top."""
        out = {(0, 0): mp.mpf(1)}
        for tot in range(1, top + 1):
            for i in range(tot + 1):
                k = int(i == 0)             # lower an axis whose exponent is positive
                lo = (i - (k == 0), tot - i - (k == 1))
                out[(i, tot - i)] = sum(
                    C[k, j] * lo[j] * out[(lo[0] - (j == 0), lo[1] - (j == 1))]
                    for j in (0, 1) if lo[j])
        return out

    top = max(map(sum, h))
    mom_z, mom_y = moments(S, top), moments(Vy, top)
    poly = {}
    for e, c in h.items():
        poly[e[:2]] = poly.get(e[:2], 0) + c * mom_z[e[2:]]
    mass = sum(c * mom_y[e] for e, c in poly.items())
    ci, det = Vy ** -1, mp.det(Vy)
    Wref = []
    ax = np.linspace(-6.0, 6.0, 61)
    for xv in ax:
        for pv in ax:
            X, P = mp.mpf(xv), mp.mpf(pv)
            q = ci[0, 0] * X * X + 2 * ci[0, 1] * X * P + ci[1, 1] * P * P
            Wref.append(sum(c * X ** e[0] * P ** e[1] for e, c in poly.items())
                        * mp.exp(-q / 2) / (2 * mp.pi * mp.sqrt(det) * mass))
    W, _ = evaluate_grid(eps_pipeline(V, spec), GridSpec(-6.0, 6.0, 61))
    assert np.abs(W.ravel() - np.array(Wref, dtype=float)).max() < 1e-14
