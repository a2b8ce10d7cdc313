"""Seeded workloads: item generators and per-item correctness gates.

A workload is a fixed cycle of item classes.  A class fixes everything that
sets an item's cost (photon numbers, stage count, which channels are on,
truncation, command); the seed only moves the continuous physical
parameters inside each class's ranges.  Those are drawn from a Kronecker
sequence with seeded offsets, so every seed spreads a class's items evenly
over its ranges and whole cycles cost nearly the same on every seed.

Each item has `run()`, the timed library calls, and `check(out)`, the
untimed gate, which returns None or the reason the output is wrong.  Gates
use an independent route where one exists (Fock oracle, six-parameter closed
form, Q_n recursion, golden bytes) and invariants everywhere: unit mass,
|W| <= 1/pi, F in [0, 1], delta >= 0.  The tolerances are the accuracies
the routes claim in the test suite.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from cvngs import (EpsStage, GridSpec, MeasurementSpec, PipelineSpec,
                   PolyGaussian, PulseSpec, SigmaMatrix, SystemParams,
                   amplifier_map, covariance_after_pulse, eps_pipeline,
                   evaluate_grid, four_cat_gains, imperfect_wigner_closed_form,
                   loss_channel_sigma, project_XC, qn_polynomial, score_state,
                   sigma_from_cov, solve_gain)
from cvngs import cli, fock_oracle
from cvngs.metrics_targets import (TargetState, best_cat_fidelity,
                                   best_fock_fidelity, fidelity)

INV_PI = 1.0 / math.pi
MASS_TOL = 1e-9          # project_XC normalizes by an exact Gaussian-moment sum
QN_TOL = 1e-9            # Q_n route vs subtraction on W; n <= 6 round-off is 5e-13
QN_MAX_N = 6             # above this the reference costs as much as the item
CLOSED_FORM_TOL = 1e-6   # six-parameter closed form (test_state_synthesis)
ORACLE_W_TOL = 1e-3      # Fock oracle Wigner grid (test_fock_oracle)
ORACLE_V_TOL = 1e-6      # Fock oracle second moments (test_fock_oracle)
FIT_F_TOL = 1e-7         # Nelder-Mead fatol of best_cat_fidelity
CHECK_GRID = GridSpec(-7.0, 7.0, 57)
ORACLE_GRID = GridSpec(-6.0, 6.0, 61)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_ALPHA = np.array([math.sqrt(p) % 1.0 for p in _PRIMES])


@dataclass
class Item:
    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


class Sampler:
    """u in [0,1)^12 for (class, repetition): Kronecker sequence, seeded shift."""

    def __init__(self, seed: int, n_classes: int):
        self.offsets = np.random.default_rng(seed).random((n_classes, len(_PRIMES)))

    def __call__(self, cls: int, rep: int) -> np.ndarray:
        return np.mod(self.offsets[cls] + (rep + 1) * _ALPHA, 1.0)


def _lerp(u, lo, hi):
    return float(lo + (hi - lo) * u)


def _invariants(W) -> str | None:
    mass = W.total_mass()
    if not abs(mass - 1.0) <= MASS_TOL:
        return f"mass {mass!r} is not 1"
    field, _ = evaluate_grid(W, CHECK_GRID)
    peak = float(np.abs(field).max())
    if not peak <= INV_PI * (1.0 + 1e-9):
        return f"|W| reaches {peak!r} > 1/pi"
    return None


def _max_diff(W, W_ref) -> float:
    a, _ = evaluate_grid(W, CHECK_GRID)
    b, _ = evaluate_grid(W_ref, CHECK_GRID)
    return float(np.abs(a - b).max())


def _qn_route(V, g_A, n, m: MeasurementSpec):
    """Lossless single stage at theta = 0 through the Q_n recursion."""
    V_amp = amplifier_map(V, math.sqrt(g_A))
    q = qn_polynomial(sigma_from_cov(V_amp), n).scale(0.5 ** n)
    W = PolyGaussian(V_amp.entries, np.zeros(4), q, 1.0)
    return project_XC(W, m.eps, m.zeta, m.mu)


def _closed_form_route(V, g_A, eta, m: MeasurementSpec):
    """Single n = 2 stage at theta = zeta = 0 through the six-parameter form."""
    sig = loss_channel_sigma(sigma_from_cov(V), eta)
    U_inv = np.diag([1.0, 1.0, 1.0 / math.sqrt(g_A), math.sqrt(g_A)])
    sig_amp = SigmaMatrix(U_inv.T @ sig.entries @ U_inv)
    return imperfect_wigner_closed_form(sig_amp, m.eps, m.mu)


def _params(gamma, db):
    return SystemParams(3.0, 7.0, gamma).with_squeeze_db(db)


# ---------------------------------------------------------------------------
# synth_highorder: polynomial algebra, no scoring

# (class, photon numbers per stage, features): t = theta != 0, z = zeta != 0,
# e = loss, m = mu < 1, v = dark counts, a = amplifier noise, 4 = four-cat gains
SYNTH_CLASSES = (
    [(f"n{n}", (n,), "z" if n in (1, 3, 5) else "") for n in range(1, 8)]
    + [("n8", (8,), ""), ("n8_mu", (8,), "m"), ("n8_b", (8,), "")]
    + [(f"n{n}_theta", (n,), "tz" if n <= 3 else "t") for n in range(1, 6)]
    + [("n1_dark", (1,), "v"), ("n3_loss_mu", (3,), "emz"), ("n4_dark", (4,), "v"),
       ("n2_ampnoise", (2,), "a"), ("n5_loss_dark_ampnoise", (5,), "eva"),
       ("fourcat", (2, 2), "4"), ("fourcat_loss_theta", (2, 2), "4et"),
       ("cascade_1_2", (1, 2), "z")])


def _synth_item(name, ns, feat, u) -> Item:
    gamma = 0.0 if "4" in feat else _lerp(u[0], 0.0, 2.0)
    # the four-cat gains exist only near R = 0.9, -6 dB (second gain > 0)
    R = _lerp(u[1], 0.88, 0.92) if "4" in feat else _lerp(u[1], 0.4, 0.9)
    db = _lerp(u[2], -6.5, -5.0) if "4" in feat else _lerp(u[2], -8.0, -3.0)
    xi = _lerp(u[3], 0.0, 1.0)
    meas = MeasurementSpec(theta=_lerp(u[4], 0.15, 0.6) if "t" in feat else 0.0,
                           zeta=_lerp(u[5], -0.6, 0.6) if "z" in feat else 0.0,
                           eps=0.01 if "4" in feat else _lerp(u[6], 0.05, 0.15),
                           mu=_lerp(u[7], 0.75, 0.95) if "m" in feat else 1.0)
    eta = _lerp(u[8], 0.8, 0.95) if "e" in feat else 1.0
    nu = _lerp(u[9], 0.9, 0.99) if "v" in feat else 1.0
    n_A = _lerp(u[10], 0.05, 0.2) if "a" in feat else 0.0
    xi1 = _lerp(u[11], -0.05, 0.05)

    def run():
        V = covariance_after_pulse(_params(gamma, db), PulseSpec(R))
        sig = sigma_from_cov(V)
        if "4" in feat:
            gains = four_cat_gains(sig, xi1)
        elif len(ns) == 2:
            gains = (solve_gain(sig, xi), 10.0 ** _lerp(u[11], 0.05, 0.2))
        else:
            gains = (solve_gain(sig, xi),)
        spec = PipelineSpec(stages=tuple(EpsStage(g, n, n_A) for g, n in zip(gains, ns)),
                            measurement=meas, eta=eta, dark_count=nu)
        return V, gains, eps_pipeline(V, spec)

    def check(out):
        V, gains, W = out
        bad = _invariants(W)
        if bad is None and len(ns) == 1 and ns[0] <= QN_MAX_N and not set(feat) & set("teva"):
            diff = _max_diff(W, _qn_route(V, gains[0], ns[0], meas))
            if not diff <= QN_TOL:
                bad = f"Q_n route differs by {diff!r}"
        return bad

    return Item(name, run, check)


# ---------------------------------------------------------------------------
# quality_scan: n = 2, theta = 0 chains scored like fig3a/b

QUALITY_CLASSES = (("cat_p", "cat", False), ("fock2_a", "fock", False),
                   ("fock2_b", "fock", False), ("fock2_c", "fock", False),
                   ("fock2_dark", "fock", True))


def _quality_item(name, fit, dark, u) -> Item:
    gamma = _lerp(u[0], 0.05, 2.5) * 9.0 / 7.0
    R = _lerp(u[1], 0.4, 0.6)
    db = _lerp(u[2], -7.0, -5.0)
    xi = _lerp(u[3], 0.9, 1.0) if fit == "cat" else _lerp(u[3], 0.4, 0.6)
    eta = _lerp(u[4], 0.85, 1.0)
    meas = MeasurementSpec(mu=_lerp(u[5], 0.8, 1.0))
    nu = _lerp(u[6], 0.95, 0.99) if dark else 1.0

    def run():
        V = covariance_after_pulse(_params(gamma, db), PulseSpec(R))
        sig = sigma_from_cov(V)
        g = solve_gain(sig, xi)
        W = eps_pipeline(V, PipelineSpec(stages=(EpsStage(g, 2),), measurement=meas,
                                         eta=eta, dark_count=nu))
        metrics = score_state(W, sigma11=sig.s11)
        best = best_cat_fidelity(W, "p") if fit == "cat" else best_fock_fidelity(W, 2)
        return V, g, W, metrics, best

    def check(out):
        V, g, W, metrics, (F, arg) = out
        bad = _invariants(W)
        if bad:
            return bad
        if not (0.0 <= F <= 1.0 and metrics.delta >= 0.0
                and abs(metrics.parity) <= 1.0 + 1e-9):
            return f"metrics out of range: F={F!r} delta={metrics.delta!r}"
        if not dark:
            diff = _max_diff(W, _closed_form_route(V, g, eta, meas))
            if not diff <= CLOSED_FORM_TOL:
                return f"closed form differs by {diff!r}"
        if fit == "cat":
            F_at = fidelity(W, TargetState.cat(math.sqrt(arg[0]), 1, lobe_var=arg[1],
                                                axis="p"))
        else:
            F_at = fidelity(W, TargetState.fock(2, squeeze_db=arg))
            F_zero = fidelity(W, TargetState.fock(2))
            if F < F_zero - FIT_F_TOL:
                return f"best Fock fit {F!r} below the unsqueezed target {F_zero!r}"
        if abs(F - F_at) > FIT_F_TOL:
            return f"best fit {F!r} disagrees with F at its argmax {F_at!r}"
        return None

    return Item(name, run, check)


# ---------------------------------------------------------------------------
# oracle_check: gamma = 0 single stages through the Fock oracle

ORACLE_CLASSES = (("N32_n1_zeta", 32, 1, "z"), ("N32_n2_loss", 32, 2, "e"),
                  ("N32_n3_mu_zeta", 32, 3, "mz"), ("N32_n2_dark_mu", 32, 2, "vm"),
                  ("N32_n1_loss_mu", 32, 1, "em"), ("N32_n3_dark", 32, 3, "v"),
                  ("N40_n2_zeta", 40, 2, "z"))


def _oracle_item(name, N, n, feat, u, tracer) -> Item:
    # squeezing above 4 dB puts more than the oracle's 1e-3 Wigner accuracy
    # into Fock states beyond N = 32 once n = 3 photons are subtracted
    R = _lerp(u[0], 0.5, 0.9)
    db = _lerp(u[1], -4.0, -2.5)
    xi = _lerp(u[2], 0.0, 1.0)
    eps = _lerp(u[3], 0.08, 0.15)
    zeta = _lerp(u[4], -0.5, 0.5) if "z" in feat else 0.0
    mu = _lerp(u[5], 0.8, 0.95) if "m" in feat else 1.0
    eta = _lerp(u[6], 0.85, 0.95) if "e" in feat else 1.0
    nu = _lerp(u[7], 0.95, 0.99) if "v" in feat else 1.0

    def run():
        params, pulse = _params(0.0, db), PulseSpec(R)
        V = covariance_after_pulse(params, pulse)
        g = solve_gain(sigma_from_cov(V), xi)
        spec = PipelineSpec(stages=(EpsStage(g, n),),
                            measurement=MeasurementSpec(zeta=zeta, eps=eps, mu=mu),
                            eta=eta, dark_count=nu)
        W_ps, _ = evaluate_grid(eps_pipeline(V, spec), ORACLE_GRID)
        state = fock_oracle.build_entangled_state(params, pulse, N)
        # method calls the wrappers cannot see get their span here
        with tracer.span("fock_oracle", "FockState.quadrature_covariance"):
            V_fock = state.quadrature_covariance()
        out = fock_oracle.run_eps_oracle(params, pulse, g, n, eta=eta, mu=mu, nu=nu,
                                         eps=eps, zeta=zeta, state=state)
        with tracer.span("fock_oracle", "FockState.reduced_mechanical"):
            rho_m = out.reduced_mechanical()
        W_fock = fock_oracle.wigner_from_density(rho_m, ORACLE_GRID)
        return V, V_fock, W_ps, W_fock

    def check(out):
        V, V_fock, W_ps, W_fock = out
        dv = float(np.abs(V_fock - V.entries).max())
        dw = float(np.abs(W_fock - W_ps).max())
        mass = float(W_fock.sum() * ORACLE_GRID.step ** 2)
        if not dv <= ORACLE_V_TOL:
            return f"oracle second moments differ by {dv!r}"
        if not dw <= ORACLE_W_TOL:
            return f"oracle Wigner grid differs by {dw!r}"
        if not (abs(mass - 1.0) <= 1e-3 and np.abs(W_ps).max() <= INV_PI * (1 + 1e-9)):
            return f"oracle grid mass {mass!r} or |W| out of range"
        return None

    return Item(name, run, check)


# ---------------------------------------------------------------------------
# cli_manifests: manifests through cli.run into a scratch directory

GOLDEN_CASES = (("fig2a", "fig2a.csv"), ("eps_fock_R09", "state.csv"),
                ("eps_pcat_lossy_R05", "state.csv"))
CLI_FIGURES = tuple(f for f in cli.FIGURE_IDS
                    if f not in ("fig3a", "fig3b", "fig3c", "fig3d"))


def _cli_manifest(kind, u) -> dict:
    params = {"gamma_mhz": round(_lerp(u[0], 0.0, 2.0), 6),
              "squeeze_db": round(_lerp(u[1], -7.0, -4.0), 6)}
    pulse = {"R": round(_lerp(u[2], 0.5, 0.9), 6)}
    if kind == "eps_plain":
        return {"command": "eps", "params": params, "pulse": pulse,
                "stages": [{"xi": round(_lerp(u[3], 0.0, 1.0), 6), "n": 2}]}
    if kind == "eps_channel":
        return {"command": "eps", "params": params, "pulse": pulse,
                "stages": [{"xi": round(_lerp(u[3], 0.4, 1.0), 6), "n": 2}],
                "channel": {"eta": round(_lerp(u[4], 0.85, 0.95), 6),
                            "nu": round(_lerp(u[5], 0.95, 0.99), 6)},
                "measurement": {"mu": round(_lerp(u[6], 0.8, 0.95), 6),
                                "zeta": round(_lerp(u[7], -0.3, 0.3), 6)}}
    if kind == "eps_theta_n3":
        return {"command": "eps", "params": params, "pulse": pulse,
                "stages": [{"g_db": round(_lerp(u[3], 1.0, 3.0), 6), "n": 3}],
                "measurement": {"theta": round(_lerp(u[4], 0.1, 0.4), 6)}}
    if kind == "four-cat":
        return {"command": "four-cat", "params": {"gamma_mhz": 0.0},
                "pulse": {"R": round(_lerp(u[2], 0.88, 0.92), 6)},
                "four_cat": {"xi1": round(_lerp(u[3], -0.05, 0.05), 6)}}
    if kind == "imperfections":
        return {"command": "imperfections", "params": params, "pulse": pulse,
                "stages": [{"xi": round(_lerp(u[3], 0.4, 1.0), 6), "n": 2}],
                "channel": {"eta": round(_lerp(u[4], 0.85, 1.0), 6)},
                "measurement": {"eps": round(_lerp(u[5], 0.05, 0.15), 6),
                                "mu": round(_lerp(u[6], 0.8, 1.0), 6)}}
    if kind == "gain-solve":
        return {"command": "gain-solve", "params": params, "pulse": pulse}
    if kind == "entanglement-sweep":
        return {"command": "entanglement-sweep", "params": params,
                "sweep": {"squeeze_db_grid": [params["squeeze_db"], -3.0]}}
    return {"command": "figures", "figure": {"which": kind}}


CLI_CLASSES = (("eps_plain", "eps_channel", "eps_theta_n3", "four-cat",
                "imperfections", "gain-solve", "entanglement-sweep")
               + CLI_FIGURES + tuple(f"golden:{g}" for g, _ in GOLDEN_CASES))


def _check_report(outdir: Path, rep: dict) -> str | None:
    cmd = rep.get("manifest", {}).get("command")
    if cmd == "eps":
        m = rep["metrics"]
        if not (m["delta"] >= 0.0 and abs(m["parity"]) <= 1.0 + 1e-9):
            return f"eps metrics out of range: {m}"
    elif cmd == "imperfections":
        d = rep["max_abs_diff_numeric_vs_closed_form"]
        if not d <= CLOSED_FORM_TOL:
            return f"closed form differs by {d!r}"
    elif cmd == "four-cat":
        if not all(0.0 <= rep[k] <= 1.0 for k in ("fidelity", "fidelity_lab")):
            return "four-cat fidelity out of [0, 1]"
    elif cmd == "gain-solve":
        if not (rep["g_x_dB"] >= rep["g_F_dB"] >= rep["g_p_dB"] and rep["sigma11"] > 0):
            return f"gains not ordered by xi: {rep}"
    elif cmd == "entanglement-sweep":
        if not (rep["n_rows"] == 2 * 97 and rep["peak_E_N"] > 0.0):
            return f"sweep rows/peak wrong: {rep['n_rows']} {rep['peak_E_N']}"
    for name in rep["artifacts"]:
        if not name.endswith(".json") or "manifest" in name:
            continue
        env = json.loads((outdir / name).read_text())
        norm = env.get("normalization") if isinstance(env, dict) else None
        if norm and "riemann_mass" in norm and not norm["riemann_mass"] <= 1.0 + 1e-4:
            return f"{name}: grid mass {norm['riemann_mass']!r} exceeds 1"
        if norm and "riemann_mass" in norm:
            rows = (outdir / name.replace(".json", ".csv")).read_text().split("\n", 1)[1]
            w = np.fromstring(rows.replace("\n", ","), sep=",").reshape(-1, 3)[:, 2]
            if not np.abs(w).max() <= INV_PI * (1.0 + 1e-9):
                return f"{name}: |W| exceeds 1/pi"
    return None


def _cli_item(kind, u, workdir: Path, golden_dir: Path, counters=None) -> Item:
    if kind.startswith("golden:"):
        golden = kind.split(":", 1)[1]
        manifest = json.loads((golden_dir / f"{golden}.manifest.json").read_text())
        artifact = dict(GOLDEN_CASES)[golden]
    else:
        manifest, golden, artifact = _cli_manifest(kind, u), None, None

    def run():
        outdir = Path(tempfile.mkdtemp(dir=workdir))
        return outdir, cli.run(json.loads(json.dumps(manifest)), outdir)

    def check(out):
        outdir, rc = out
        try:
            if rc != cli.EXIT_OK:
                return f"cli.run exited {rc}"
            rep = json.loads((outdir / "report.json").read_text())
            missing = [a for a in rep["artifacts"] if not (outdir / a).is_file()]
            if missing:
                return f"artifacts missing: {missing}"
            files = [p for p in outdir.iterdir() if p.is_file()]
            if counters is not None:
                counters["bytes"] += sum(p.stat().st_size for p in files)
                counters["artifacts"] += len(rep["artifacts"])
            if golden is not None:
                same = (outdir / artifact).read_bytes() == (
                    golden_dir / f"{golden}.csv").read_bytes()
                if counters is not None:
                    counters["golden_mismatches"] += not same
                if not same:
                    return f"{golden}: bytes differ from tests/golden"
            return _check_report(outdir, rep)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    return Item(kind, run, check)


# ---------------------------------------------------------------------------


class Workload:
    """A cycle of item classes with seeded parameters."""

    def __init__(self, name: str, seed: int, root: Path, tracer):
        self.name = name
        self.tracer = tracer
        self.workdir = root / "perfbench" / "out" / "work"
        self.golden_dir = root / "tests" / "golden"
        self.cli_counters = {"bytes": 0, "artifacts": 0, "golden_mismatches": 0}
        self.classes = {"synth_highorder": SYNTH_CLASSES, "quality_scan": QUALITY_CLASSES,
                        "oracle_check": ORACLE_CLASSES, "cli_manifests": CLI_CLASSES}[name]
        self.sample = Sampler(seed, len(self.classes))

    def cycle(self, rep: int) -> list[Item]:
        return [self._item(i, c, self.sample(i, rep)) for i, c in enumerate(self.classes)]

    def _item(self, i, c, u) -> Item:
        if self.name == "synth_highorder":
            return _synth_item(*c, u)
        if self.name == "quality_scan":
            return _quality_item(*c, u)
        if self.name == "oracle_check":
            return _oracle_item(*c, u, self.tracer)
        self.workdir.mkdir(parents=True, exist_ok=True)
        return _cli_item(c, u, self.workdir, self.golden_dir, self.cli_counters)

    def warmup(self) -> None:
        """One cheap pass through each code path: lazy imports (scipy.optimize,
        scipy.linalg) and first-call costs happen here, before timing."""
        if self.name == "synth_highorder":
            for item in (_synth_item("warm", (1,), "tzemva", self.sample(0, -1)),
                         _synth_item("warm", (1,), "", self.sample(0, -1))):
                item.check(item.run())
        elif self.name == "quality_scan":
            item = _quality_item("warm", "fock", False, self.sample(1, -1))
            item.check(item.run())
        elif self.name == "oracle_check":
            params, pulse = _params(0.0, -1.0), PulseSpec(0.95)
            st = fock_oracle.run_eps_oracle(params, pulse, 1.1, 1, eta=0.9, mu=0.9,
                                            nu=0.98, zeta=0.1, truncation=12)
            fock_oracle.wigner_from_density(st.reduced_mechanical(), GridSpec(-3, 3, 5))
            fock_oracle.build_entangled_state(params, pulse, 12).quadrature_covariance()
        else:
            self.workdir.mkdir(parents=True, exist_ok=True)
            for kind in ("gain-solve", "golden:eps_fock_R09"):
                item = _cli_item(kind, self.sample(0, -1), self.workdir, self.golden_dir)
                item.check(item.run())


# item_tail_ms percentile of each workload.  Item costs come in blocks, one
# per class, so a percentile that falls between two blocks jumps with run
# length; each value sits in the middle of the slowest block(s), at the same
# rank fraction for any number of cycles.  synth: the three n = 8 classes
# (3 of 23); quality: the cat fit (1 of 5); oracle: the N = 40 item (1 of 7);
# cli: fig4b and four-cat (between the 2nd and 4th slowest of 41).
TAIL_PERCENTILE = {"synth_highorder": 93.5, "quality_scan": 90.0,
                   "oracle_check": 92.9, "cli_manifests": 92.7}
