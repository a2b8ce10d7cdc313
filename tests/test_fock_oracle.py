import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_laguerre

from cvngs import (EpsStage, GridSpec, MeasurementSpec, PipelineSpec,
                   PulseSpec, SystemParams, covariance_after_pulse,
                   eps_pipeline, evaluate_grid, sigma_from_cov, solve_gain)
from cvngs import fock_oracle
from cvngs.exceptions import DomainError, TruncationError, ZeroWeightError
from cvngs.phase_space import _hermite_functions
from cvngs.fock_oracle import (FockState, _annihilation, _on_c,
                               _squeeze_unitary, apply_amplifier,
                               apply_annihilate_C, apply_homodyne_window, apply_loss,
                               build_entangled_state, run_eps_oracle,
                               scattering_covariance, wigner_from_density)


def params(db=-6.0, gamma=0.0, n_m=0.0):
    return SystemParams(3.0, 7.0, gamma, n_m=n_m).with_squeeze_db(db)


def padded_dense_build(p, pulse, N):
    """Reference for build_entangled_state at truncation N: the whole beam
    splitter as one matrix exponential on rho_m (x) |sq><sq|, then the optical
    parity, on a box of 2N + 1 photons per mode, cropped to the N box.  The
    input holds at most 2N photons and the generator conserves their total, so
    no sector the input reaches is clipped in the padded box."""
    d, D = N + 1, 2 * N + 1
    a = _annihilation(D)
    theta = math.atan2(math.sqrt(pulse.T), math.sqrt(pulse.R))   # exact near R = 1
    U = expm(-theta * (np.kron(a.T, a) - np.kron(a, a.T)))
    U = np.kron(np.eye(D), np.diag((-1.0) ** np.arange(D))) @ U
    sq, pm = np.zeros(D), np.zeros(D)
    sq[:d] = _squeeze_unitary(d, -0.5 * math.log(p.squeeze.linear))[:, 0]
    pm[:d] = (p.n_m / (1.0 + p.n_m)) ** np.arange(d)
    rho_in = np.kron(np.diag(pm / pm.sum()), np.outer(sq, sq))
    ref = (U @ rho_in @ U.T).reshape(D, D, D, D)[:d, :d, :d, :d]
    return ref.reshape(d * d, d * d)


def lattice(d, grid):
    """(q, dy, K, L) of wigner_from_density's position lattice."""
    band = math.sqrt(2.0 * d + 1.0) + max(abs(grid.xmin), abs(grid.xmax))
    q = math.ceil(4.0 * grid.step * band / math.pi)
    dy = 2.0 * grid.step / q
    K = math.ceil(2.0 * (math.sqrt(2.0 * d + 1.0) + 4.0) / dy)
    return q, dy, K, q * (grid.n - 1) + 2 * K + 1


def dense_lattice_wigner(state, grid):
    """Reference for wigner_from_density: the whole lattice matrix
    G = <u_a|rho|u_b>, read at x +- y/2 for every y, then the cosine and sine
    sums over the full y range."""
    st = state.normalized()
    rho, d = st.density(), st.dim
    q, dy, K, L = lattice(d, grid)
    k = np.arange(-K, K + 1)
    u = grid.xmin + (np.arange(L) - K) * (dy / 2.0)
    psi = _hermite_functions(u, d - 1)
    G = psi.T @ rho @ psi
    j = q * np.arange(grid.n)[:, None] + K
    M = G[j + k, j - k]
    yp = np.outer(dy * k, grid.axis)
    return (M.real @ np.cos(yp) + M.imag @ np.sin(yp)) * dy / (2.0 * math.pi)


@pytest.fixture(scope="module")
def entangled_40():
    return build_entangled_state(params(), PulseSpec(0.5), truncation=40)


class TestBuild:
    def test_r_one_is_product_vacuum_mechanics(self):
        st = build_entangled_state(params(), PulseSpec(1.0 - 1e-15), truncation=28)
        rho_m = st.reduced_mechanical().normalized()
        assert np.real(rho_m.density()[0, 0]) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_input_stays_vacuum(self):
        st = build_entangled_state(params(db=0.0), PulseSpec(0.5), truncation=12)
        assert np.real(st.density()[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_second_moments_match_covariance(self, entangled_40):
        V = covariance_after_pulse(params(), PulseSpec(0.5))
        Vo = entangled_40.quadrature_covariance()
        assert np.abs(V.entries - Vo).max() < 1e-6

    def test_thermal_initial_state(self):
        st = build_entangled_state(params(n_m=0.1), PulseSpec(0.7), truncation=28)
        V = covariance_after_pulse(params(n_m=0.1), PulseSpec(0.7))
        assert np.abs(st.quadrature_covariance() - V.entries).max() < 1e-5

    def test_build_matches_dense_unitary(self):
        N, n_m = 8, 0.1
        p, pulse = params(db=-1.0, n_m=n_m), PulseSpec(0.9)
        st = build_entangled_state(p, pulse, truncation=N)
        assert np.abs(st.density() - padded_dense_build(p, pulse, N)).max() <= 1e-13

    @pytest.mark.parametrize("R", [0.05, 0.5, 1.0 - 1e-12])
    def test_thermal_build_matches_dense_unitary(self, R):
        N = 10      # at N = 8 the n_m = 0.3 thermal tail trips the edge guard
        p, pulse = params(db=-1.0, n_m=0.3), PulseSpec(R)
        st = build_entangled_state(p, pulse, truncation=N)
        assert np.abs(st.density() - padded_dense_build(p, pulse, N)).max() <= 1e-13

    def test_one_matrix_exponential(self, monkeypatch):
        # the input squeeze is the only expm; the beam splitter is a recurrence
        calls = []

        def counted(M):
            calls.append(M.shape)
            return expm(M)

        monkeypatch.setattr(fock_oracle, "expm", counted)
        for N in (8, 40):
            calls.clear()
            build_entangled_state(params(db=-1.0, n_m=0.1), PulseSpec(0.7), truncation=N)
            assert calls == [(N + 1, N + 1)]

    def test_gamma_requires_moment_oracle(self):
        with pytest.raises(DomainError):
            build_entangled_state(params(gamma=1.6), PulseSpec(0.5))

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            build_entangled_state(params(db=-12.0), PulseSpec(0.5), truncation=6)


class TestScatteringCovariance:
    @pytest.mark.parametrize("gamma", [0.0, 1.6])
    def test_matches_closed_form(self, gamma):
        p = params(gamma=gamma, n_m=0.2)
        for r in (0.999, 0.9, 0.4):
            V = covariance_after_pulse(p, PulseSpec(r))
            Vo = scattering_covariance(p, PulseSpec(r))
            assert np.abs(V.entries - Vo.entries).max() < 1e-12


class TestChannels:
    def test_loss_identity(self, entangled_40):
        out = apply_loss(entangled_40, 1.0)
        assert np.abs(out.density() - entangled_40.density()).max() == 0.0

    def test_loss_trace_preserving(self, entangled_40):
        out = apply_loss(entangled_40, 0.7)
        assert out.trace() == pytest.approx(entangled_40.trace(), abs=1e-10)

    def test_loss_reduces_entanglement_moments(self, entangled_40):
        out = apply_loss(entangled_40, 0.5)
        V = out.quadrature_covariance()
        Vin = entangled_40.quadrature_covariance()
        assert abs(V[0, 2]) < abs(Vin[0, 2])

    def test_loss_matches_gaussian_channel(self, entangled_40):
        from cvngs import loss_channel_cov
        out = apply_loss(entangled_40, 0.6)
        V = covariance_after_pulse(params(), PulseSpec(0.5))
        assert np.abs(out.quadrature_covariance()
                      - loss_channel_cov(V, 0.6).entries).max() < 1e-6

    def test_annihilate_vacuum_raises(self):
        st = build_entangled_state(params(db=0.0), PulseSpec(0.5), truncation=8)
        with pytest.raises(ZeroWeightError):
            apply_annihilate_C(st)

    def test_annihilation_weight_decreases(self, entangled_40):
        out = apply_annihilate_C(entangled_40)
        assert out.trace() < entangled_40.trace()

    def test_amplifier_is_squeeze(self, entangled_40):
        g = 1.5
        out = apply_amplifier(entangled_40, g)
        V = out.quadrature_covariance()
        Vin = entangled_40.quadrature_covariance()
        assert V[2, 2] == pytest.approx(g * g * Vin[2, 2], rel=1e-5)
        assert V[3, 3] == pytest.approx(Vin[3, 3] / (g * g), rel=1e-5)

    def test_homodyne_trace_non_increasing(self, entangled_40):
        out = apply_homodyne_window(entangled_40, 0.0, 0.1)
        assert out.trace() <= entangled_40.trace()
        assert out.n_modes == 1


class TestModeWiseChannels:
    """The channels act on the optical axis c of the (m, c, column) factor; the
    reference is the dense congruence with kron(I, op) on the d^2 x d^2 matrix."""

    N = 8

    @pytest.fixture(scope="class")
    def state(self):
        # a random complex two-mode state, so imaginary parts are exercised
        d = self.N + 1
        rng = np.random.default_rng(7)
        A = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        rho = A @ A.conj().T
        return FockState.from_density(rho / np.trace(rho).real, self.N, 2)

    @staticmethod
    def congruence(rho, ops):
        d = ops[0].shape[0]
        out = np.zeros_like(rho)
        for op in ops:
            K = np.kron(np.eye(d), op)
            out += K @ rho @ K.conj().T
        return out

    def assert_close(self, got, ref):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_amplifier(self):
        # the amplifier checks edge population, so use a state well inside N = 8
        st = build_entangled_state(params(db=-1.0), PulseSpec(0.9), truncation=self.N)
        g = 1.2
        ref = self.congruence(st.density(), [_squeeze_unitary(st.dim, -math.log(g))])
        self.assert_close(apply_amplifier(st, g).density(), ref)

    def test_apply_on_c_complex_operator(self, state):
        rng = np.random.default_rng(8)
        op = rng.standard_normal((state.dim,) * 2) + 1j * rng.standard_normal((state.dim,) * 2)
        out = FockState(amps=_on_c(op, state.amps))
        self.assert_close(out.density(), self.congruence(state.density(), [op]))

    def test_subtraction(self, state):
        ref = self.congruence(state.density(), [_annihilation(state.dim)])
        self.assert_close(apply_annihilate_C(state).density(), ref)

    @pytest.mark.parametrize("mu", [0.3, 0.8])
    def test_folded_efficiency_matches_loss_then_window(self, state, mu):
        # L_mu^dagger(Pi) in the POVM against the loss channel, then the window
        folded = apply_homodyne_window(state, 0.3, 0.15, mu)
        ref = apply_homodyne_window(apply_loss(state, mu), 0.3, 0.15)
        self.assert_close(folded.density(), ref.density())

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9])
    def test_loss_matches_kraus_sum(self, state, eta):
        d = state.dim
        a = _annihilation(d)
        eta_n = np.diag(math.sqrt(eta) ** np.arange(d))
        kraus = [math.sqrt((1.0 - eta) ** k / math.factorial(k))
                 * eta_n @ np.linalg.matrix_power(a, k) for k in range(d)]
        self.assert_close(apply_loss(state, eta).density(),
                          self.congruence(state.density(), kraus))


class TestFactor:
    """rho = A A^dagger; dense matrices enter only through from_density."""

    def test_density_round_trip(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        rho = A @ A.conj().T
        st = FockState.from_density(rho, 3, 2)
        assert st.amps.shape[:2] == (4, 4)
        assert np.abs(st.density() - rho).max() <= 1e-13 * np.abs(rho).max()

    def test_from_density_rejects_non_psd(self):
        with pytest.raises(DomainError, match="not positive"):
            FockState.from_density(np.diag([1.0, 0.5, -0.2]), 2, 1)

    def test_from_density_rejects_non_hermitian(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        rho[0, 1] = 0.1j
        with pytest.raises(DomainError, match="not Hermitian"):
            FockState.from_density(rho, 2, 1)

    def test_positional_density_rejected(self):
        # a dense rho passed as the factor would silently be squared
        with pytest.raises(TypeError):
            FockState(np.eye(3) / 3.0, 2, 1)

    def test_equality_is_identity(self):
        st = FockState.from_density(np.eye(3) / 3.0, 2, 1)
        assert (st == st) is True
        assert (st == FockState(amps=st.amps)) is False

    def test_edge_population_one_mode(self):
        # columns are not an edge: two columns in |0> pass, weight in |N> fails
        amps = np.zeros((5, 2))
        amps[0] = (0.6, 0.8)
        FockState(amps=amps).check_edge_population()
        amps[-1, 1] = 0.01
        with pytest.raises(TruncationError, match="edge population 1.00e-04"):
            FockState(amps=amps).check_edge_population()

    @pytest.mark.parametrize("edge", [(-1, 0), (0, -1)], ids=["m", "c"])
    def test_edge_population_two_modes(self, edge):
        amps = np.zeros((5, 5, 2))
        amps[0, 0] = (0.6, 0.8)
        FockState(amps=amps).check_edge_population()
        amps[edge + (1,)] = 0.01
        with pytest.raises(TruncationError, match="edge population 1.00e-04"):
            FockState(amps=amps).check_edge_population()

    def test_oracle_memory_stays_small(self):
        # N = 40 with loss, efficiency and dark counts: the dense two-mode
        # route peaked near 364 MB on this case; the factor stays a few MB
        p, pulse = params(), PulseSpec(0.9)
        g = solve_gain(sigma_from_cov(covariance_after_pulse(p, pulse)), 0.5)
        kw = dict(eta=0.9, mu=0.8, nu=0.97, zeta=0.2, truncation=40)
        run_eps_oracle(p, pulse, g, 3, **kw)        # first-call caches
        tracemalloc.start()
        try:
            run_eps_oracle(p, pulse, g, 3, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestWigner:
    # a fine or a wide grid needs a lattice of 2.7e13 or 2.6e6 points and a
    # matrix of that size squared: it is refused before anything is allocated
    @pytest.mark.parametrize("grid", [GridSpec(0.0, 1e-12, 3), GridSpec(-1000.0, 1000.0, 21)],
                             ids=["fine", "wide"])
    def test_lattice_too_long_rejected(self, grid):
        with pytest.raises(DomainError, match="lattice"):
            wigner_from_density(FockState.from_density(np.eye(3) / 3.0, 2, 1), grid)

    def test_vacuum_peak(self):
        d = 13
        rho = np.zeros((d, d), complex)
        rho[0, 0] = 1.0
        st = FockState.from_density(rho, 12, 1)
        W = wigner_from_density(st, GridSpec())
        assert W.max() == pytest.approx(1.0 / math.pi, rel=1e-6)
        assert W.sum() * GridSpec().step ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_fock1_values(self):
        d = 13
        rho = np.zeros((d, d), complex)
        rho[1, 1] = 1.0
        st = FockState.from_density(rho, 12, 1)
        g = GridSpec()
        W = wigner_from_density(st, g)
        i0 = g.n // 2
        assert W[i0, i0] == pytest.approx(-1.0 / math.pi, rel=1e-5)
        delta = float(np.sum(np.abs(W) - W) * g.step ** 2)
        assert delta == pytest.approx(4.0 * math.exp(-0.5) - 2.0, abs=1e-3)

    def test_complex_state_is_rotated_wigner(self):
        # (|0> + |1>)/sqrt(2) sits at x > 0; exp(-i pi/2 n) moves it to p < 0,
        # a quarter turn of the grid, through purely imaginary coherences
        d = 13
        psi = np.zeros(d)
        psi[:2] = 1.0 / math.sqrt(2.0)
        rho = np.outer(psi, psi)
        phase = (-1j) ** np.arange(d)
        rho_rot = phase[:, None] * rho * phase.conj()[None, :]
        g = GridSpec(-4.0, 4.0, 41)
        W = wigner_from_density(FockState.from_density(rho, 12, 1), g)
        W_rot = wigner_from_density(FockState.from_density(rho_rot, 12, 1), g)
        assert np.abs(W_rot - np.rot90(W, -1)).max() < 1e-12

    @staticmethod
    def reference_state(kind):
        if kind == "real":
            rng = np.random.default_rng(11)
            A = rng.standard_normal((13, 4)) * 0.6 ** np.arange(13)[:, None]
            return FockState(amps=A)
        if kind == "quarter_turn":
            amps = np.zeros((13, 1), complex)
            amps[:2, 0] = np.array([1.0, -1j]) / math.sqrt(2.0)
            return FockState(amps=amps)
        if kind == "two_mode_lossy":      # r = d * d columns, above d
            st = build_entangled_state(params(db=-2.0), PulseSpec(0.6), truncation=16)
            return apply_loss(st, 0.8).reduced_mechanical()
        p, pulse = params(), PulseSpec(0.9)
        g = solve_gain(sigma_from_cov(covariance_after_pulse(p, pulse)), 0.5)
        return run_eps_oracle(p, pulse, g, 2, eta=0.9, mu=0.9, nu=0.97, zeta=0.2,
                              truncation=40)

    @pytest.mark.parametrize("kind", ["real", "quarter_turn", "two_mode_lossy", "eps_N40"])
    def test_matches_dense_lattice_matrix(self, kind):
        st, g = self.reference_state(kind), GridSpec(-6.0, 6.0, 61)
        if kind == "two_mode_lossy":
            assert st.amps.shape[1] > st.dim
        ref = dense_lattice_wigner(st, g)
        assert np.abs(wigner_from_density(st, g) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_memory_below_one_lattice_matrix(self):
        # the dense route held the L x L matrix G and its fancy-indexed reads
        st, g = self.reference_state("eps_N40"), GridSpec(-6.0, 6.0, 61)
        L = lattice(st.dim, g)[3]
        wigner_from_density(st, g)
        tracemalloc.start()
        try:
            wigner_from_density(st, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * L * L

    def test_fock_states_match_laguerre_closed_form(self):
        # W_n = (-1)^n L_n(2 r^2) e^{-r^2} / pi, vacuum variance 1/2
        g = GridSpec(-8.0, 8.0, 161)
        r2 = g.axis[:, None] ** 2 + g.axis[None, :] ** 2
        for n in range(41):
            amps = np.zeros((41, 1))
            amps[n] = 1.0
            W = wigner_from_density(FockState(amps=amps), g)
            ref = (-1) ** n * eval_laguerre(n, 2.0 * r2) * np.exp(-r2) / math.pi
            assert np.abs(W - ref).max() < 1e-12, n


class TestTruncationConvergence:
    def test_truncation_stable_beyond_default(self):
        # doubling N above the default 40 moves metrics by < 1e-4
        p = params()
        pulse = PulseSpec(0.9)
        from cvngs import covariance_after_pulse, sigma_from_cov, solve_gain
        sig = sigma_from_cov(covariance_after_pulse(p, pulse))
        g = solve_gain(sig, 0.5)
        vals = {}
        for N in (40, 80):
            st = run_eps_oracle(p, pulse, g, 2, truncation=N)
            rho = st.reduced_mechanical()
            W = wigner_from_density(rho, GridSpec())
            vals[N] = (rho.mean_photons(), float(W[GridSpec().n // 2, GridSpec().n // 2]))
        assert abs(vals[40][0] - vals[80][0]) < 1e-4
        assert abs(vals[40][1] - vals[80][1]) < 1e-4


class TestPartialTranspose:
    def test_log_negativity_vs_gaussian_formula(self):
        from cvngs import logarithmic_negativity
        st = build_entangled_state(params(), PulseSpec(0.5), truncation=30)
        d = st.dim
        r4 = (st.density() / st.trace()).reshape(d, d, d, d)
        rho_pt = r4.transpose(0, 3, 2, 1).reshape(d * d, d * d)
        ev = np.linalg.eigvalsh(rho_pt)
        en_fock = math.log(float(np.sum(np.abs(ev))))
        V = covariance_after_pulse(params(), PulseSpec(0.5))
        assert abs(en_fock - logarithmic_negativity(V)) < 1e-3


class TestOracleEquivalence:
    @pytest.fixture(scope="class")
    def built_09(self):
        return build_entangled_state(params(), PulseSpec(0.9), truncation=40)

    @pytest.mark.parametrize("xi", [0.0, 1.0])
    def test_full_eps_matches_phase_space(self, xi, built_09):
        p = params()
        pulse = PulseSpec(0.9)
        V = covariance_after_pulse(p, pulse)
        sig = sigma_from_cov(V)
        g = solve_gain(sig, xi)
        st = run_eps_oracle(p, pulse, g, 2, state=built_09)
        grid = GridSpec()
        Wo = wigner_from_density(st.reduced_mechanical(), grid)
        W = eps_pipeline(V, PipelineSpec(stages=(EpsStage(g, 2),)))
        Wp, _ = evaluate_grid(W, grid)
        assert np.abs(Wo - Wp).max() < 1e-3

    @pytest.mark.parametrize("n, n_m", [(1, 0.0), (3, 0.0), (4, 0.0), (2, 0.1)])
    def test_photon_number_and_thermal_match_phase_space(self, n, n_m):
        p = params(db=-4.0, n_m=n_m)
        pulse = PulseSpec(0.9)
        V = covariance_after_pulse(p, pulse)
        g = solve_gain(sigma_from_cov(V), 0.5)
        out = run_eps_oracle(p, pulse, g, n, truncation=40)
        grid = GridSpec()
        Wo = wigner_from_density(out.reduced_mechanical(), grid)
        Wp, _ = evaluate_grid(eps_pipeline(V, PipelineSpec(stages=(EpsStage(g, n),))), grid)
        assert np.abs(Wo - Wp).max() < 1e-3

    def test_zeta_and_mu_channelled_run(self):
        p = params()
        pulse = PulseSpec(0.5)
        V = covariance_after_pulse(p, pulse)
        sig = sigma_from_cov(V)
        g = solve_gain(sig, 1.0)
        st = run_eps_oracle(p, pulse, g, 2, eta=0.9, mu=0.8, nu=0.98,
                            zeta=0.5, truncation=24)
        grid = GridSpec()
        Wo = wigner_from_density(st.reduced_mechanical(), grid)
        spec = PipelineSpec(stages=(EpsStage(g, 2),),
                            measurement=MeasurementSpec(zeta=0.5, mu=0.8),
                            eta=0.9, dark_count=0.98)
        W = eps_pipeline(V, spec)
        Wp, _ = evaluate_grid(W, grid)
        assert np.abs(Wo - Wp).max() < 2e-3
