"""Command-line front end: manifests in, deterministic CSV/JSON artifacts out.

Subcommands: entanglement-sweep, eps, gain-solve, four-cat, imperfections,
oracle, figures.  Every run writes a report.json carrying the manifest hash,
tool version and headline metrics; artifacts contain no timestamps so reruns
are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import CvngsError, DomainError, NumericalDomainError
from .gaussian_core import (CONVENTION_TAG, epr_steering_MtoC,
                            logarithmic_negativity, sigma_from_cov)
from .metrics_targets import (TargetState, best_cat_fidelity,
                              best_fock_fidelity, score_state)
from .phase_space import GridSpec, evaluate_grid
from .pulse_dynamics import (PulseSpec, SystemParams, correlation_sweep,
                             covariance_after_pulse)
from .state_synthesis import (EpsStage, MeasurementSpec, PipelineSpec,
                              eps_pipeline, four_cat_pipeline,
                              four_cat_wavefunction,
                              imperfect_wigner_closed_form, linear_to_db,
                              solve_gain, xi_from_gain)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

COMMANDS = ("entanglement-sweep", "eps", "gain-solve", "four-cat",
            "imperfections", "oracle", "figures")

FIGURE_IDS = (["fig2a", "fig2b"] + [f"fig2{c}" for c in "cdefghij"]
              + ["fig3a", "fig3b", "fig3c", "fig3d", "fig4b"]
              + ["figS1a", "figS1b", "figS1c"]
              + [f"figS2{c}" for c in "abcd"] + ["figS3a", "figS3b", "figS4"]
              + [f"figS5{c}" for c in "abcd"] + [f"figS6{c}" for c in "abcdef"])


# ---------------------------------------------------------------------------
# manifest schema and validation

_SCHEMA = {
    "command": {"type": "enum", "values": COMMANDS, "required": True},
    "params": {"type": "object", "fields": {
        "g_mhz": {"type": "number", "min": 0.0, "min_exclusive": True},
        "kappa_mhz": {"type": "number", "min": 0.0, "min_exclusive": True},
        "gamma_mhz": {"type": "number", "min": 0.0},
        "n_m": {"type": "number", "min": 0.0},
        "squeeze_db": {"type": "number"},
    }},
    "pulse": {"type": "object", "fields": {
        "R": {"type": "number", "min": 0.0, "max": 1.0, "min_exclusive": True},
        "tau_ns": {"type": "number", "min": 0.0},
    }},
    "stages": {"type": "array", "item_fields": {
        "g_db": {"type": "number"},
        "g_linear": {"type": "number", "min": 0.0, "min_exclusive": True},
        "xi": {"type": "number"},
        "n": {"type": "integer", "min": 0},
        "n_A": {"type": "number", "min": 0.0},
    }},
    "measurement": {"type": "object", "fields": {
        "theta": {"type": "number"},
        "zeta": {"type": "number"},
        "eps": {"type": "number", "min": 0.0, "min_exclusive": True},
        "mu": {"type": "number", "min": 0.0, "max": 1.0, "min_exclusive": True},
    }},
    "channel": {"type": "object", "fields": {
        "eta": {"type": "number", "min": 0.0, "max": 1.0},
        "nu": {"type": "number", "min": 0.0, "max": 1.0, "min_exclusive": True},
    }},
    "grid": {"type": "object", "fields": {
        "xmin": {"type": "number"},
        "xmax": {"type": "number"},
        "n": {"type": "integer", "min": 2},
    }},
    "sweep": {"type": "object", "fields": {
        "r_grid": {"type": "number_array"},
        "squeeze_db_grid": {"type": "number_array"},
    }},
    "figure": {"type": "object", "fields": {
        "which": {"type": "string"},
        "eta": {"type": "number", "min": 0.0, "max": 1.0},
        "mu": {"type": "number", "min": 0.0, "max": 1.0, "min_exclusive": True},
    }},
    "oracle": {"type": "object", "fields": {
        "truncation": {"type": "integer", "min": 4},
    }},
    "four_cat": {"type": "object", "fields": {
        "xi1": {"type": "number"},
    }},
    "out_dir": {"type": "string"},
}


class ManifestError(ValueError):
    pass


def _check_number(name, v, spec):
    if spec["type"] == "integer":
        if not isinstance(v, int) or isinstance(v, bool):
            raise ManifestError(f"{name}: expected integer, got {v!r}")
    elif not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ManifestError(f"{name}: expected number, got {v!r}")
    lo = spec.get("min")
    if lo is not None:
        if spec.get("min_exclusive") and not v > lo:
            raise ManifestError(f"{name}: must be > {lo}, got {v}")
        if not spec.get("min_exclusive") and v < lo:
            raise ManifestError(f"{name}: must be >= {lo}, got {v}")
    hi = spec.get("max")
    if hi is not None and v > hi:
        raise ManifestError(f"{name}: must be <= {hi}, got {v}")


def _validate_fields(prefix, obj, fields):
    if not isinstance(obj, dict):
        raise ManifestError(f"{prefix}: expected object")
    for key in obj:
        if key not in fields:
            raise ManifestError(f"{prefix}.{key}: unknown field")
    for key, v in obj.items():
        spec = fields[key]
        if spec["type"] in ("number", "integer"):
            _check_number(f"{prefix}.{key}", v, spec)
        elif spec["type"] == "string":
            if not isinstance(v, str):
                raise ManifestError(f"{prefix}.{key}: expected string")
        elif spec["type"] == "number_array":
            if (not isinstance(v, list) or not v
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                               for x in v)):
                raise ManifestError(f"{prefix}.{key}: expected non-empty number array")


def validate_manifest(manifest: dict) -> dict:
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must be a JSON object")
    for key in manifest:
        if key not in _SCHEMA:
            raise ManifestError(f"unknown top-level field {key!r}")
    if "command" not in manifest:
        raise ManifestError("missing required field 'command'")
    cmd = manifest["command"]
    if cmd not in COMMANDS:
        raise ManifestError(f"unknown command {cmd!r}")
    for key, v in manifest.items():
        spec = _SCHEMA[key]
        if spec.get("type") == "object":
            _validate_fields(key, v, spec["fields"])
        elif spec.get("type") == "array":
            if not isinstance(v, list):
                raise ManifestError(f"{key}: expected array")
            for i, item in enumerate(v):
                _validate_fields(f"{key}[{i}]", item, spec["item_fields"])
        elif spec.get("type") == "string" and not isinstance(v, str):
            raise ManifestError(f"{key}: expected string")
    pulse = manifest.get("pulse", {})
    if "R" in pulse and "tau_ns" in pulse:
        raise ManifestError("pulse: give exactly one of R or tau_ns")
    return manifest


# ---------------------------------------------------------------------------
# manifest -> domain objects

def _params_of(manifest) -> SystemParams:
    p = manifest.get("params", {})
    sp = SystemParams(g_mhz=p.get("g_mhz", 3.0), kappa_mhz=p.get("kappa_mhz", 7.0),
                      gamma_mhz=p.get("gamma_mhz", 1.6), n_m=p.get("n_m", 0.0))
    return sp.with_squeeze_db(p.get("squeeze_db", -6.0))


def _pulse_of(manifest, params) -> PulseSpec:
    p = manifest.get("pulse", {})
    if "tau_ns" in p:
        return PulseSpec.from_tau(p["tau_ns"] * 1e-9, params)
    return PulseSpec(p.get("R", 0.9))


def _grid_of(manifest) -> GridSpec:
    g = manifest.get("grid", {})
    return GridSpec(g.get("xmin", -6.0), g.get("xmax", 6.0), g.get("n", 241))


def _measurement_of(manifest) -> MeasurementSpec:
    m = manifest.get("measurement", {})
    return MeasurementSpec(theta=m.get("theta", 0.0), zeta=m.get("zeta", 0.0),
                           eps=m.get("eps", 0.1), mu=m.get("mu", 1.0))


def _stages_of(manifest, sigma) -> tuple[EpsStage, ...]:
    out = []
    for st in manifest.get("stages", [{"xi": 0.5, "n": 2}]):
        if "g_db" in st:
            g = 10.0 ** (st["g_db"] / 10.0)
        elif "g_linear" in st:
            g = st["g_linear"]
        elif "xi" in st:
            g = solve_gain(sigma, st["xi"])
        else:
            raise ManifestError("stage: give one of g_db, g_linear, xi")
        out.append(EpsStage(g, st.get("n", 2), st.get("n_A", 0.0)))
    return tuple(out)


# ---------------------------------------------------------------------------
# serialization helpers (deterministic, no timestamps)

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _grid_envelope(grid: GridSpec, report: dict) -> dict:
    return {"grid": {"xmin": grid.xmin, "xmax": grid.xmax, "n": grid.n},
            "convention": CONVENTION_TAG, "normalization": report}


def _write_wigner(outdir: Path, name: str, field: np.ndarray, grid: GridSpec,
                  report: dict) -> None:
    ax = grid.axis
    rows = []
    for i, x in enumerate(ax):
        for j, p in enumerate(ax):
            rows.append((x, p, field[i, j]))
    _write_csv(outdir / f"{name}.csv", ["X", "P", "W"], rows)
    _write_json(outdir / f"{name}.json", _grid_envelope(grid, report))


def _gnuplot_script(outdir: Path, name: str, kind: str, title: str,
                    columns: list[str] | None = None) -> None:
    if kind == "grid":
        body = (f'set title "{title}"\nset xlabel "X_M"\nset ylabel "P_M"\n'
                f"set view map\nset dgrid3d 101,101\n"
                f'splot "{name}.csv" every ::1 using 1:2:3 with pm3d notitle\n')
    else:
        plots = ", ".join(f'"{name}.csv" every ::1 using 1:{i + 2} with lines '
                          f'title "{c}"' for i, c in enumerate(columns or []))
        body = f'set title "{title}"\nset datafile separator ","\nplot {plots}\n'
    (outdir / f"{name}.gp").write_text(body)


def _manifest_hash(manifest: dict) -> str:
    return hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def _golden_check(outdir: Path, artifacts: list[str]) -> dict | None:
    golden = os.environ.get("CVNGS_GOLDEN_DIR")
    if not golden:
        return None
    res = {}
    for name in artifacts:
        ref = Path(golden) / name
        got = outdir / name
        if not ref.exists():
            res[name] = "missing"
        elif ref.read_bytes() == got.read_bytes():
            res[name] = "equal"
        else:
            res[name] = "different"
    return res


# ---------------------------------------------------------------------------
# command implementations; each returns (report_extras, artifact_names)

def _sweep_rows_chunk(args):
    params_dict, r_chunk, db_grid = args
    params = SystemParams(**{k: v for k, v in params_dict.items()
                             if k != "squeeze_db"}).with_squeeze_db(
        params_dict["squeeze_db"])
    return correlation_sweep(params, r_chunk, db_grid)


def cmd_entanglement_sweep(manifest, outdir, jobs=1):
    params = _params_of(manifest)
    sweep = manifest.get("sweep", {})
    r_grid = sweep.get("r_grid", list(np.linspace(0.02, 0.98, 97)))
    db_grid = sweep.get("squeeze_db_grid", [params.squeeze.db])
    if jobs > 1 and len(r_grid) >= 2 * jobs:
        pd = {"g_mhz": params.g_mhz, "kappa_mhz": params.kappa_mhz,
              "gamma_mhz": params.gamma_mhz, "n_m": params.n_m,
              "squeeze_db": params.squeeze.db}
        chunks = [(pd, list(c), db_grid) for c in np.array_split(r_grid, jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            parts = list(ex.map(_sweep_rows_chunk, chunks))
        by_db: dict[float, list] = {db: [] for db in db_grid}
        for part in parts:
            for row in part:
                by_db[row["S_in_dB"]].append(row)
        rows = [r for db in db_grid for r in by_db[db]]
    else:
        rows = correlation_sweep(params, r_grid, db_grid)
    _write_csv(outdir / "sweep.csv",
               ["R", "tau_s", "S_in_dB", "E_N", "steering_MC"],
               [(r["R"], r["tau_s"], r["S_in_dB"], r["E_N"], r["steering_MC"])
                for r in rows])
    _write_json(outdir / "sweep.json", rows)
    peak = max(rows, key=lambda r: r["E_N"])
    return {"n_rows": len(rows), "peak_E_N": peak["E_N"],
            "peak_R": peak["R"]}, ["sweep.csv", "sweep.json"]


def cmd_gain_solve(manifest, outdir, jobs=1):
    params = _params_of(manifest)
    pulse = _pulse_of(manifest, params)
    sigma = sigma_from_cov(covariance_after_pulse(params, pulse))
    res = {"g_p_dB": linear_to_db(solve_gain(sigma, 1.0)),
           "g_F_dB": linear_to_db(solve_gain(sigma, 0.5)),
           "g_x_dB": linear_to_db(solve_gain(sigma, 0.0)),
           "sigma11": sigma.s11, "sigma13": sigma.s13, "sigma33": sigma.s33}
    _write_json(outdir / "gains.json", res)
    return res, ["gains.json"]


def _run_eps(manifest, outdir, name="state"):
    params = _params_of(manifest)
    pulse = _pulse_of(manifest, params)
    grid = _grid_of(manifest)
    V = covariance_after_pulse(params, pulse)
    sigma = sigma_from_cov(V)
    stages = _stages_of(manifest, sigma)
    chan = manifest.get("channel", {})
    spec = PipelineSpec(stages=stages, measurement=_measurement_of(manifest),
                        eta=chan.get("eta", 1.0), dark_count=chan.get("nu", 1.0))
    W = eps_pipeline(V, spec)
    field, report = evaluate_grid(W, grid)
    _write_wigner(outdir, name, field, grid, report)
    _gnuplot_script(outdir, name, "grid", "mechanical Wigner function")

    xi = xi_from_gain(sigma, stages[0].g_A) if stages else None
    n = stages[-1].n if stages else None
    metrics = score_state(W, n=n, sigma11=sigma.s11)
    extras = {"metrics": metrics.to_json_dict(),
              "stages": [{"g_dB": s.g_db, "n": s.n, "n_A": s.n_A} for s in stages],
              "xi_first_stage": xi}
    return extras, [f"{name}.csv", f"{name}.json", f"{name}.gp"]


def cmd_eps(manifest, outdir, jobs=1):
    return _run_eps(manifest, outdir)


def cmd_four_cat(manifest, outdir, jobs=1):
    params = _params_of(manifest)
    pulse = _pulse_of(manifest, params)
    grid = _grid_of(manifest)
    xi1 = manifest.get("four_cat", {}).get("xi1", 0.0)
    V = covariance_after_pulse(params, pulse)
    res = four_cat_pipeline(V, xi1, _measurement_of(manifest))
    field, report = evaluate_grid(res["state"], grid)
    _write_wigner(outdir, "four_cat", field, grid, report)
    _gnuplot_script(outdir, "four_cat", "grid", "four-component cat")
    extras = {"g_A1_dB": linear_to_db(res["g_A1"]),
              "g_A2_dB": linear_to_db(res["g_A2"]), "xi2": res["xi2"],
              "fidelity": res["fidelity"], "fidelity_lab": res["fidelity_lab"]}
    return extras, ["four_cat.csv", "four_cat.json", "four_cat.gp"]


def cmd_imperfections(manifest, outdir, jobs=1):
    """Numeric pipeline and six-parameter closed form side by side."""
    from .gaussian_core import SigmaMatrix, loss_channel_sigma

    params = _params_of(manifest)
    pulse = _pulse_of(manifest, params)
    grid = _grid_of(manifest)
    chan = manifest.get("channel", {})
    meas = _measurement_of(manifest)
    V = covariance_after_pulse(params, pulse)
    sigma = sigma_from_cov(V)
    stages = _stages_of(manifest, sigma)
    if len(stages) != 1 or stages[0].n != 2:
        raise DomainError("the closed form covers a single 2-photon stage")

    spec = PipelineSpec(stages=stages, measurement=meas,
                        eta=chan.get("eta", 1.0), dark_count=chan.get("nu", 1.0))
    W = eps_pipeline(V, spec)
    num_field, num_report = evaluate_grid(W, grid)
    _write_wigner(outdir, "numeric", num_field, grid, num_report)
    _gnuplot_script(outdir, "numeric", "grid", "numeric pipeline")

    sig = loss_channel_sigma(sigma, chan.get("eta", 1.0))
    U = np.diag([1.0, 1.0, math.sqrt(stages[0].g_A), 1.0 / math.sqrt(stages[0].g_A)])
    Ui = np.linalg.inv(U)
    sig_amp = SigmaMatrix(Ui.T @ sig.entries @ Ui)
    Wcf = imperfect_wigner_closed_form(sig_amp, meas.eps, meas.mu)
    field, report = evaluate_grid(Wcf, grid)
    _write_wigner(outdir, "closed_form", field, grid, report)

    metrics = score_state(W, n=stages[-1].n, sigma11=sig.s11)
    extras = {"metrics": metrics.to_json_dict(),
              "stages": [{"g_dB": s.g_db, "n": s.n, "n_A": s.n_A} for s in stages],
              "max_abs_diff_numeric_vs_closed_form": float(
                  np.abs(num_field - field).max())}
    return extras, ["numeric.csv", "numeric.json", "numeric.gp",
                    "closed_form.csv", "closed_form.json"]


def cmd_oracle(manifest, outdir, jobs=1):
    from .fock_oracle import run_eps_oracle, wigner_from_density
    params = _params_of(manifest)
    pulse = _pulse_of(manifest, params)
    grid = _grid_of(manifest)
    sigma = sigma_from_cov(covariance_after_pulse(params, pulse))
    stages = _stages_of(manifest, sigma)
    if len(stages) != 1:
        raise DomainError("the Fock oracle runs single-stage pipelines")
    chan = manifest.get("channel", {})
    meas = _measurement_of(manifest)
    trunc = manifest.get("oracle", {}).get("truncation", 40)
    st = run_eps_oracle(params, pulse, stages[0].g_A, stages[0].n,
                        eta=chan.get("eta", 1.0), mu=meas.mu,
                        nu=chan.get("nu", 1.0), eps=meas.eps, zeta=meas.zeta,
                        truncation=trunc)
    rho_m = st.reduced_mechanical().normalized()
    field = wigner_from_density(rho_m, grid)
    riemann = float(field.sum() * grid.step ** 2)
    report = {"riemann_mass": riemann, "truncation": trunc}
    _write_wigner(outdir, "oracle", field, grid, report)
    return {"truncation": trunc, "riemann_mass": riemann,
            "mean_phonons": rho_m.mean_photons()}, ["oracle.csv", "oracle.json"]


# ---------------------------------------------------------------------------
# figures catalog

def _figure_eps_grid(outdir, fid, R, gain_rule, squeeze_db=-6.0, n_m=0.0,
                     channel=None, measurement=None, grid=None):
    manifest = {"command": "eps",
                "params": {"gamma_mhz": 1.6, "squeeze_db": squeeze_db, "n_m": n_m},
                "pulse": {"R": R}}
    params = _params_of(manifest)
    pulse = _pulse_of(manifest, params)
    V = covariance_after_pulse(params, pulse)
    sigma = sigma_from_cov(V)
    if gain_rule == "none":
        g = 1.0
    elif isinstance(gain_rule, (int, float)):
        g = float(gain_rule)
    else:
        g = solve_gain(sigma, {"x": 0.0, "F": 0.5, "p": 1.0}[gain_rule])
    chan = channel or {}
    spec = PipelineSpec(stages=(EpsStage(g, 2),),
                        measurement=measurement or MeasurementSpec(),
                        eta=chan.get("eta", 1.0), dark_count=chan.get("nu", 1.0))
    W = eps_pipeline(V, spec)
    g_spec = grid or GridSpec()
    field, report = evaluate_grid(W, g_spec)
    _write_wigner(outdir, fid, field, g_spec, report)
    _gnuplot_script(outdir, fid, "grid", fid)
    return [f"{fid}.csv", f"{fid}.json", f"{fid}.gp"]


def _figure(fid: str, outdir: Path, overrides: dict | None = None) -> list[str]:
    base = {"g_mhz": 3.0, "kappa_mhz": 7.0, "gamma_mhz": 1.6}
    overrides = overrides or {}

    if fid == "fig2a":
        rows = []
        rs = np.linspace(0.02, 0.995, 160)
        for db in (-6.0, -3.0):
            params = SystemParams(**base).with_squeeze_db(db)
            for r in rs:
                V = covariance_after_pulse(params, PulseSpec(float(r)))
                rows.append((float(r), db, logarithmic_negativity(V),
                             epr_steering_MtoC(V)))
        _write_csv(outdir / f"{fid}.csv", ["R", "S_in_dB", "E_N", "steering_MC"], rows)
        _gnuplot_script(outdir, fid, "curve", "entanglement vs R",
                        ["S_in_dB", "E_N", "steering"])
        return [f"{fid}.csv", f"{fid}.gp"]

    if fid == "fig2b":
        params = SystemParams(**base).with_squeeze_db(-6.0)
        rows = []
        for r in np.linspace(0.05, 0.995, 120):
            sigma = sigma_from_cov(covariance_after_pulse(params, PulseSpec(float(r))))
            rows.append((float(r),
                         linear_to_db(solve_gain(sigma, 1.0)),
                         linear_to_db(solve_gain(sigma, 0.5)),
                         linear_to_db(solve_gain(sigma, 0.0))))
        _write_csv(outdir / f"{fid}.csv", ["R", "g_p_dB", "g_F_dB", "g_x_dB"], rows)
        _gnuplot_script(outdir, fid, "curve", "required gains vs R",
                        ["g_p", "g_F", "g_x"])
        return [f"{fid}.csv", f"{fid}.gp"]

    if fid in tuple(f"fig2{c}" for c in "cdefghij"):
        R = 0.9 if fid[-1] in "cdef" else 0.5
        rule = {"c": "none", "d": "p", "e": "F", "f": "x",
                "g": "none", "h": "p", "i": "F", "j": "x"}[fid[-1]]
        return _figure_eps_grid(outdir, fid, R, rule)

    if fid in ("fig3a", "fig3b"):
        # quality vs 1/C_om at R=0.5: (a) P-cat, (b) Fock
        xi = 1.0 if fid == "fig3a" else 0.5
        rows = []
        for inv_c in np.linspace(0.05, 2.5, 18):
            gamma = inv_c * 9.0 / 7.0
            params = SystemParams(3.0, 7.0, gamma).with_squeeze_db(-6.0)
            V = covariance_after_pulse(params, PulseSpec(0.5))
            sigma = sigma_from_cov(V)
            W = eps_pipeline(V, PipelineSpec(stages=(EpsStage(solve_gain(sigma, xi), 2),)))
            m = score_state(W, sigma11=sigma.s11)
            if fid == "fig3a":
                F, _ = best_cat_fidelity(W, "p")
            else:
                F, _ = best_fock_fidelity(W, 2)
            rows.append((float(inv_c), F, m.delta,
                         m.alpha2 if m.alpha2 is not None else float("nan")))
        _write_csv(outdir / f"{fid}.csv", ["inv_C_om", "F", "delta", "alpha2"], rows)
        _gnuplot_script(outdir, fid, "curve", "quality vs 1/C_om",
                        ["F", "delta", "alpha2"])
        return [f"{fid}.csv", f"{fid}.gp"]

    if fid in ("fig3c", "fig3d"):
        # quality vs total detection efficiency Gamma = eta + mu; the split is
        # ambiguous, so mu stays fixed (default 0.8, manifest-overridable) and
        # eta is swept; the split is recorded in every row
        xi = 1.0 if fid == "fig3c" else 0.5
        mu = overrides.get("mu", 0.8)
        rows = []
        for n_A in (0.0, 0.1):
            for eta in np.linspace(0.6, 1.0, 9):
                params = SystemParams(**base).with_squeeze_db(-6.0)
                V = covariance_after_pulse(params, PulseSpec(0.5))
                sigma = sigma_from_cov(V)
                g = solve_gain(sigma, xi)
                spec = PipelineSpec(stages=(EpsStage(g, 2, n_A),),
                                    measurement=MeasurementSpec(mu=mu),
                                    eta=float(eta), dark_count=0.98)
                m = score_state(eps_pipeline(V, spec), sigma11=sigma.s11)
                rows.append((float(eta) + mu, float(eta), mu, n_A, m.delta,
                             m.alpha2 if m.alpha2 is not None else float("nan")))
        _write_csv(outdir / f"{fid}.csv",
                   ["Gamma", "eta", "mu", "n_A", "delta", "alpha2"], rows)
        _gnuplot_script(outdir, fid, "curve", "quality vs detection efficiency",
                        ["delta", "alpha2"])
        return [f"{fid}.csv", f"{fid}.gp"]

    if fid == "fig4b":
        params = SystemParams(3.0, 7.0, 0.0).with_squeeze_db(-6.0)
        V = covariance_after_pulse(params, PulseSpec(0.9))
        res = four_cat_pipeline(V, 0.0)
        grid = GridSpec()
        field, report = evaluate_grid(res["state"], grid)
        _write_wigner(outdir, fid, field, grid, report)
        marg = field.sum(axis=1) * grid.step
        _write_csv(outdir / f"{fid}_PX.csv", ["X_M", "P_X"],
                   list(zip(grid.axis, marg)))
        _gnuplot_script(outdir, fid, "grid", "four-component cat")
        return [f"{fid}.csv", f"{fid}.json", f"{fid}_PX.csv", f"{fid}.gp"]

    if fid in ("figS1a", "figS1b"):
        c_om = 0.5 if fid == "figS1a" else 0.1
        gamma = 9.0 / 7.0 / c_om
        rows = []
        for db in (-6.0, -3.0):
            params = SystemParams(3.0, 7.0, gamma).with_squeeze_db(db)
            for r in np.linspace(0.02, 0.995, 120):
                V = covariance_after_pulse(params, PulseSpec(float(r)))
                rows.append((float(r), db, logarithmic_negativity(V),
                             epr_steering_MtoC(V)))
        _write_csv(outdir / f"{fid}.csv", ["R", "S_in_dB", "E_N", "steering_MC"], rows)
        _gnuplot_script(outdir, fid, "curve", f"correlations at C_om={c_om}",
                        ["E_N", "steering"])
        return [f"{fid}.csv", f"{fid}.gp"]

    if fid == "figS1c":
        params0 = SystemParams(3.0, 7.0, 0.0).with_squeeze_db(-6.0)
        V0 = covariance_after_pulse(params0, PulseSpec(0.5))
        e0, s0 = logarithmic_negativity(V0), epr_steering_MtoC(V0)
        rows = []
        for c_om in np.geomspace(0.005, 10.0, 60):
            gamma = 9.0 / 7.0 / c_om
            params = SystemParams(3.0, 7.0, gamma).with_squeeze_db(-6.0)
            V = covariance_after_pulse(params, PulseSpec(0.5))
            rows.append((float(c_om), logarithmic_negativity(V) / e0,
                         epr_steering_MtoC(V) / s0))
        _write_csv(outdir / f"{fid}.csv",
                   ["C_om", "E_N_normalized", "steering_normalized"], rows)
        _gnuplot_script(outdir, fid, "curve", "normalized correlations vs C_om",
                        ["E_N", "steering"])
        return [f"{fid}.csv", f"{fid}.gp"]

    if fid in ("figS2a", "figS2b", "figS2c", "figS2d"):
        rule = {"a": "none", "b": "x", "c": "F", "d": "p"}[fid[-1]]
        return _figure_eps_grid(outdir, fid, 0.9, rule)

    if fid == "figS3a":
        return _figure_eps_grid(outdir, fid, 0.9, 10 ** 0.288,
                                squeeze_db=-3.0, n_m=0.05)
    if fid == "figS3b":
        return _figure_eps_grid(outdir, fid, 0.9, 10 ** 0.566,
                                squeeze_db=-6.0, n_m=0.2)

    if fid == "figS4":
        params = SystemParams(3.0, 7.0, 0.0).with_squeeze_db(-6.0)
        sigma = sigma_from_cov(covariance_after_pulse(params, PulseSpec(0.9)))
        psi = four_cat_wavefunction(sigma, 0.0)
        lam = math.sqrt(1.0 / sigma.s11)
        ideal = TargetState.four_cat(1.6).wavefunction()
        xs = np.linspace(-8.0, 8.0, 481)
        # normalized-frame comparison: pipeline psi in y = X/lam units
        rows = [(float(x), float(psi(np.array([x * lam]))[0] * math.sqrt(lam)),
                 float(np.real(ideal(np.array([x]))[0])))
                for x in xs]
        _write_csv(outdir / f"{fid}.csv", ["X_M", "psi_pipeline", "psi_ideal"], rows)
        _gnuplot_script(outdir, fid, "curve", "four-cat wave functions",
                        ["pipeline", "ideal"])
        return [f"{fid}.csv", f"{fid}.gp"]

    if fid == "figS5a":
        rows = []
        for tag, eta, n_A in (("loss", 0.9, 0.0), ("ampnoise", 1.0, 0.16)):
            params = SystemParams(**base).with_squeeze_db(-6.0)
            for r in np.linspace(0.02, 0.995, 120):
                V = covariance_after_pulse(params, PulseSpec(float(r)))
                from .gaussian_core import amplifier_map, loss_channel_cov
                if eta < 1.0:
                    V = loss_channel_cov(V, eta)
                if n_A > 0:
                    with np.errstate(all="ignore"):
                        import warnings as _w
                        with _w.catch_warnings():
                            _w.simplefilter("ignore", RuntimeWarning)
                            V = amplifier_map(V, 1.0, math.sqrt(1.0 + n_A) - 1.0,
                                              strict=False)
                rows.append((float(r), tag, logarithmic_negativity(V),
                             epr_steering_MtoC(V)))
        _write_csv(outdir / f"{fid}.csv", ["R", "case", "E_N", "steering_MC"], rows)
        _gnuplot_script(outdir, fid, "curve", "correlations with imperfections",
                        ["E_N", "steering"])
        return [f"{fid}.csv", f"{fid}.gp"]

    if fid in ("figS5b", "figS5c", "figS5d"):
        rule = {"b": "p", "c": "F", "d": "x"}[fid[-1]]
        return _figure_eps_grid(outdir, fid, 0.5, rule,
                                channel={"eta": 0.9, "nu": 0.98},
                                measurement=MeasurementSpec(mu=0.8))

    if fid in tuple(f"figS6{c}" for c in "abcdef"):
        rule = {"a": "p", "b": "F", "c": "x", "d": "p", "e": "F", "f": "x"}[fid[-1]]
        theta = 0.0 if fid[-1] in "abc" else math.pi / 2.0
        return _figure_eps_grid(outdir, fid, 0.5, rule,
                                measurement=MeasurementSpec(theta=theta, zeta=1.0))

    raise DomainError(f"unknown figure id {fid!r}")


def cmd_figures(manifest, outdir, jobs=1):
    fig_cfg = manifest.get("figure", {})
    which = fig_cfg.get("which", "all")
    overrides = {k: v for k, v in fig_cfg.items() if k != "which"}
    ids = FIGURE_IDS if which == "all" else [which]
    for fid in ids:
        if fid not in FIGURE_IDS:
            raise ManifestError(f"unknown figure id {fid!r}")
    artifacts = []
    if jobs > 1 and len(ids) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            futs = [(fid, ex.submit(_figure_worker, fid, str(outdir), overrides))
                    for fid in ids]
            for fid, fut in futs:
                artifacts.extend(fut.result())
    else:
        for fid in ids:
            artifacts.extend(_figure(fid, outdir, overrides))
    for fid in ids:
        _write_json(outdir / f"{fid}.manifest.json",
                    {"command": "figures", "figure": dict({"which": fid}, **overrides)})
        artifacts.append(f"{fid}.manifest.json")
    extras = {"figures": ids}
    if any(f in ids for f in ("fig3c", "fig3d")):
        extras["fig3_split"] = {"mu": overrides.get("mu", 0.8), "eta": "swept"}
    return extras, artifacts


def _figure_worker(fid: str, outdir: str, overrides: dict) -> list[str]:
    return _figure(fid, Path(outdir), overrides)


# ---------------------------------------------------------------------------
# driver

_DISPATCH = {
    "entanglement-sweep": cmd_entanglement_sweep,
    "eps": cmd_eps,
    "gain-solve": cmd_gain_solve,
    "four-cat": cmd_four_cat,
    "imperfections": cmd_imperfections,
    "oracle": cmd_oracle,
    "figures": cmd_figures,
}


def run(manifest: dict, outdir: Path, jobs: int = 1) -> int:
    """Validate and execute a manifest; always writes report.json when possible."""
    report = {"tool": "cvngs", "version": __version__,
              "convention": CONVENTION_TAG}
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        manifest = validate_manifest(manifest)
    except ManifestError as exc:
        report["error"] = {"kind": "validation", "message": str(exc)}
        _write_json(outdir / "report.json", report)
        print(f"manifest validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report["manifest"] = manifest
    report["manifest_sha256"] = _manifest_hash(manifest)
    try:
        extras, artifacts = _DISPATCH[manifest["command"]](manifest, outdir, jobs)
    except ManifestError as exc:
        report["error"] = {"kind": "validation", "message": str(exc)}
        _write_json(outdir / "report.json", report)
        print(f"manifest validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CvngsError, NumericalDomainError) as exc:
        report["error"] = {"kind": "numerical-domain",
                           "op": type(exc).__name__, "message": str(exc)}
        _write_json(outdir / "report.json", report)
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report.update(extras)
    report["artifacts"] = sorted(artifacts)
    golden = _golden_check(outdir, artifacts)
    if golden is not None:
        report["golden_check"] = golden
    _write_json(outdir / "report.json", report)
    if golden is not None and any(v != "equal" for v in golden.values()):
        print("golden regression mismatch", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cvngs",
        description="pulsed optomechanical non-Gaussian state synthesis")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--manifest", type=str, default=None,
                    help="JSON manifest path (merged over the chosen command)")
    ap.add_argument("--out", type=str, default="out", help="output directory")
    ap.add_argument("--jobs", type=int, default=1, help="worker pool size")
    ap.add_argument("--grid", type=str, default=None,
                    help='"xmin,xmax,n" rendering grid')
    ap.add_argument("--which", type=str, default=None,
                    help="figure id for the figures command")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.manifest:
        try:
            with open(args.manifest) as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read manifest: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        if manifest.setdefault("command", args.command) != args.command:
            print(f"manifest command {manifest['command']!r} conflicts with "
                  f"the {args.command!r} subcommand", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        manifest = {"command": args.command}
    if args.grid:
        try:
            xmin, xmax, n = args.grid.split(",")
            manifest["grid"] = {"xmin": float(xmin), "xmax": float(xmax), "n": int(n)}
        except ValueError:
            print('bad --grid, expected "xmin,xmax,n"', file=sys.stderr)
            return EXIT_VALIDATION
    if args.which:
        manifest.setdefault("figure", {})["which"] = args.which
    return run(manifest, Path(args.out), jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
