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
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import CvngsError, DomainError
from .fock_oracle import DEFAULT_TRUNCATION, run_eps_oracle, wigner_from_density
from .gaussian_core import (CONVENTION_TAG, SigmaMatrix, amplifier_block,
                            apply_symplectic, epr_steering_MtoC,
                            logarithmic_negativity, loss_channel_cov,
                            loss_channel_sigma, sigma_from_cov)
from .metrics_targets import (TargetState, best_cat_fidelity,
                              best_fock_fidelity, score_state)
from .phase_space import GridSpec, evaluate_grid, marginal
from .pulse_dynamics import (PulseSpec, SystemParams, correlation_sweep,
                             covariance_after_pulse)
from .state_synthesis import (EpsStage, MeasurementSpec, PipelineSpec,
                              db_to_linear, eps_pipeline, four_cat_pipeline,
                              four_cat_wavefunction,
                              imperfect_wigner_closed_form, linear_to_db,
                              solve_gain, xi_from_gain)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_SCHEMA = json.loads((Path(__file__).parent / "manifest.schema.json").read_text())
COMMANDS = tuple(_SCHEMA["properties"]["command"]["enum"])
_G_LINEAR = _SCHEMA["properties"]["stages"]["items"]["properties"]["g_linear"]

# xi of the P-cat, Fock and X-cat gain rules
_XI = {"p": 1.0, "F": 0.5, "x": 0.0}
MAX_PHOTONS = 8     # subtracted photons summed over the stages: the range the tests cover


# ---------------------------------------------------------------------------
# manifest validation against manifest.schema.json

class ManifestError(ValueError):
    pass


_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
          "integer": int}


def _check(v, schema: dict, path: str) -> None:
    """Validate v against the JSON-Schema subset the manifest schema uses.

    Stricter than JSON Schema: a bool is not a number and 2.0 is not an
    integer, because GridSpec.n and the oracle truncation need a real int.
    """
    t = schema.get("type")
    if t is not None and (isinstance(v, bool) or not isinstance(v, _TYPES[t])):
        raise ManifestError(f"{path or 'manifest'}: expected {t}, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ManifestError(f"{path}: expected a finite number, got {v!r}")
    if "minimum" in schema and v < schema["minimum"]:
        raise ManifestError(f"{path}: must be >= {schema['minimum']}, got {v}")
    if "exclusiveMinimum" in schema and not v > schema["exclusiveMinimum"]:
        raise ManifestError(f"{path}: must be > {schema['exclusiveMinimum']}, got {v}")
    if "maximum" in schema and v > schema["maximum"]:
        raise ManifestError(f"{path}: must be <= {schema['maximum']}, got {v}")
    if "enum" in schema and v not in schema["enum"]:
        raise ManifestError(f"unknown {path} {v!r}")
    if "minItems" in schema and len(v) < schema["minItems"]:
        raise ManifestError(f"{path}: expected at least {schema['minItems']} item(s)")
    for i, item in enumerate(v if "items" in schema else ()):
        _check(item, schema["items"], f"{path}[{i}]")
    props = schema.get("properties")
    if props is None:
        return
    if schema.get("additionalProperties") is False:
        for key in v:
            if key not in props:
                raise ManifestError(f"{path + '.' if path else ''}{key}: unknown field")
    for key in schema.get("required", ()):
        if key not in v:
            raise ManifestError(f"missing required field {key!r}")
    for key, item in v.items():
        _check(item, props.get(key, {}), f"{path + '.' if path else ''}{key}")


def validate_manifest(manifest: dict) -> dict:
    _check(manifest, _SCHEMA, "")
    pulse = manifest.get("pulse", {})
    if "R" in pulse and "tau_ns" in pulse:
        raise ManifestError("pulse: give exactly one of R or tau_ns")
    stages = manifest.get("stages", ())
    for i, st in enumerate(stages):
        if sum(k in st for k in ("g_db", "g_linear", "xi")) != 1:
            raise ManifestError(f"stages[{i}]: give exactly one of g_db, g_linear, xi")
    if (total := sum(st.get("n", 2) for st in stages)) > MAX_PHOTONS:
        raise ManifestError(f"stages: at most {MAX_PHOTONS} photons in all, got {total}")
    grid = manifest.get("grid", {})
    if not grid.get("xmax", GridSpec.xmax) > grid.get("xmin", GridSpec.xmin):
        raise ManifestError("grid: xmax must exceed xmin")
    if manifest["command"] == "oracle":
        if "stages" in manifest and len(stages) != 1:
            raise ManifestError("stages: the Fock oracle runs single-stage pipelines")
        if manifest.get("measurement", {}).get("theta", 0.0):
            raise ManifestError("measurement.theta: the Fock oracle runs at theta = 0 only")
        if any(st.get("n_A") for st in stages):
            raise ManifestError("stages.n_A: the Fock oracle runs at n_A = 0 only")
        if manifest.get("params", {}).get("gamma_mhz") != 0:
            raise ManifestError("params.gamma_mhz: the Fock oracle runs at gamma_mhz = 0 only "
                                "(the default is 1.6)")
    return manifest


# ---------------------------------------------------------------------------
# manifest -> domain objects

def _params_of(manifest) -> SystemParams:
    p = manifest.get("params", {})
    sp = SystemParams(g_mhz=p.get("g_mhz", 3.0), kappa_mhz=p.get("kappa_mhz", 7.0),
                      gamma_mhz=p.get("gamma_mhz", 1.6), n_m=p.get("n_m", 0.0))
    return sp.with_squeeze_db(p.get("squeeze_db", -6.0))


def _gaussian_of(manifest):
    """(params, pulse, V, sigma): the two-mode state after the manifest's pulse."""
    params = _params_of(manifest)
    p = manifest.get("pulse", {})
    if "tau_ns" in p:
        pulse = PulseSpec.from_tau(p["tau_ns"] * 1e-9, params)
    else:
        pulse = PulseSpec(p.get("R", 0.9))
    V = covariance_after_pulse(params, pulse)
    return params, pulse, V, sigma_from_cov(V)


def _grid_of(manifest) -> GridSpec:
    return GridSpec(**manifest.get("grid", {}))


def _stages_of(manifest, sigma) -> tuple[EpsStage, ...]:
    out = []
    for st in manifest.get("stages", [{"xi": 0.5, "n": 2}]):
        if "g_db" in st:
            g = db_to_linear(st["g_db"])
        elif "g_linear" in st:
            g = st["g_linear"]
        else:
            g = solve_gain(sigma, st["xi"])
            if not _G_LINEAR["minimum"] <= g <= _G_LINEAR["maximum"]:
                raise DomainError(f"solved gain {g:.3e} lies outside the g_linear range")
        out.append(EpsStage(g, st.get("n", 2), st.get("n_A", 0.0)))
    return tuple(out)


def _measurement_of(manifest) -> MeasurementSpec:
    return MeasurementSpec(**manifest.get("measurement", {}))


def _pipeline_of(manifest, sigma) -> PipelineSpec:
    chan = manifest.get("channel", {})
    return PipelineSpec(stages=_stages_of(manifest, sigma),
                        measurement=_measurement_of(manifest),
                        eta=chan.get("eta", 1.0), dark_count=chan.get("nu", 1.0))


# ---------------------------------------------------------------------------
# serialization helpers (deterministic, no timestamps)

def _write_csv(path: Path, header: list[str], rows) -> None:
    """Floats as %.12g, anything else as str, through one %-template taken from
    the first row (each column keeps one type)."""
    rows = list(rows)
    line = ",".join("%.12g" if isinstance(v, float) else "%s" for v in rows[0]) if rows else ""
    body = (line + "\n") * len(rows) % tuple(v for row in rows for v in row)
    path.write_text(",".join(header) + "\n" + body)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _write_wigner(outdir: Path, name: str, field: np.ndarray, grid: GridSpec,
                  report: dict) -> list[str]:
    """A map's X,P,W CSV (X outer) and grid JSON.  The axis is formatted once, with
    %.12g, into the rows' x_i,p_j,%.12g template; one % fills in the field."""
    axis = ["%.12g" % a for a in grid.axis.tolist()]
    tail = [f",{p},%.12g\n" for p in axis]
    body = "".join(x + x.join(tail) for x in axis) % tuple(field.ravel().tolist())
    (outdir / f"{name}.csv").write_text("X,P,W\n" + body)
    _write_json(outdir / f"{name}.json",
                {"grid": {"xmin": grid.xmin, "xmax": grid.xmax, "n": grid.n},
                 "convention": CONVENTION_TAG, "normalization": report})
    return [f"{name}.csv", f"{name}.json"]


def _render(outdir: Path, name: str, W, grid: GridSpec,
            title: str | None = None) -> tuple[np.ndarray, list[str]]:
    """Render W on grid and write it; a title adds a gnuplot map script."""
    field, report = evaluate_grid(W, grid)
    artifacts = _write_wigner(outdir, name, field, grid, report)
    if title is not None:
        (outdir / f"{name}.gp").write_text(
            f'set title "{title}"\nset xlabel "X_M"\nset ylabel "P_M"\n'
            f"set view map\nset dgrid3d 101,101\n"
            f'splot "{name}.csv" every ::1 using 1:2:3 with pm3d notitle\n')
        artifacts.append(f"{name}.gp")
    return field, artifacts


def _curve(outdir: Path, name: str, header: list[str], rows, title: str,
           columns: list[str]) -> list[str]:
    """Write a curve's CSV and a gnuplot line-plot script over its columns."""
    _write_csv(outdir / f"{name}.csv", header, rows)
    plots = ", ".join(f'"{name}.csv" every ::1 using 1:{i + 2} with lines '
                      f'title "{c}"' for i, c in enumerate(columns))
    (outdir / f"{name}.gp").write_text(
        f'set title "{title}"\nset datafile separator ","\nplot {plots}\n')
    return [f"{name}.csv", f"{name}.gp"]


# ---------------------------------------------------------------------------
# command implementations; each returns (report_extras, artifact_names)

def cmd_entanglement_sweep(manifest, outdir):
    params = _params_of(manifest)
    sweep = manifest.get("sweep", {})
    rows = correlation_sweep(params,
                             sweep.get("r_grid", list(np.linspace(0.02, 0.98, 97))),
                             sweep.get("squeeze_db_grid", [params.squeeze.db]))
    header = ["R", "tau_s", "S_in_dB", "E_N", "steering_MC"]
    _write_csv(outdir / "sweep.csv", header, [[r[k] for k in header] for r in rows])
    _write_json(outdir / "sweep.json", rows)
    peak = max(rows, key=lambda r: r["E_N"])
    return {"n_rows": len(rows), "peak_E_N": peak["E_N"],
            "peak_R": peak["R"]}, ["sweep.csv", "sweep.json"]


def cmd_gain_solve(manifest, outdir):
    sigma = _gaussian_of(manifest)[3]
    res = {f"g_{k}_dB": linear_to_db(solve_gain(sigma, xi)) for k, xi in _XI.items()}
    res.update(sigma11=sigma.s11, sigma13=sigma.s13, sigma33=sigma.s33)
    _write_json(outdir / "gains.json", res)
    return res, ["gains.json"]


def _eps_state(manifest):
    """(sigma, spec, W): the manifest's EPS pipeline and the mechanical state it heralds."""
    _, _, V, sigma = _gaussian_of(manifest)
    spec = _pipeline_of(manifest, sigma)
    return sigma, spec, eps_pipeline(V, spec)


def cmd_eps(manifest, outdir):
    sigma, spec, W = _eps_state(manifest)
    _, artifacts = _render(outdir, "state", W, _grid_of(manifest),
                           "mechanical Wigner function")
    stages = spec.stages
    metrics = score_state(W, n=stages[-1].n if stages else None, sigma11=sigma.s11)
    try:
        xi = xi_from_gain(sigma, stages[0].g_A) if stages else None
    except DomainError:         # s13 = 0: xi is undefined, a diagnostic only
        xi = None
    return {"metrics": metrics.to_json_dict(),
            "stages": [{"g_dB": s.g_db, "n": s.n, "n_A": s.n_A} for s in stages],
            "xi_first_stage": xi}, artifacts


def cmd_four_cat(manifest, outdir):
    V = _gaussian_of(manifest)[2]
    xi1 = manifest.get("four_cat", {}).get("xi1", 0.0)
    res = four_cat_pipeline(V, xi1, _measurement_of(manifest))
    _, artifacts = _render(outdir, "four_cat", res["state"], _grid_of(manifest),
                           "four-component cat")
    extras = {"g_A1_dB": linear_to_db(res["g_A1"]),
              "g_A2_dB": linear_to_db(res["g_A2"]), "xi2": res["xi2"],
              "fidelity": res["fidelity"], "fidelity_lab": res["fidelity_lab"]}
    return extras, artifacts


def cmd_imperfections(manifest, outdir):
    """Numeric pipeline and six-parameter closed form side by side."""
    sigma, spec, W = _eps_state(manifest)
    grid = _grid_of(manifest)
    stages, meas = spec.stages, spec.measurement
    if (len(stages) != 1 or stages[0].n != 2 or stages[0].n_A or spec.dark_count < 1.0
            or meas.theta or meas.zeta):
        raise DomainError("the closed form covers one 2-photon stage with eta, eps and mu only")

    num_field, artifacts = _render(outdir, "numeric", W, grid, "numeric pipeline")

    sig = loss_channel_sigma(sigma, spec.eta)
    U = np.diag([1.0, 1.0, math.sqrt(stages[0].g_A), 1.0 / math.sqrt(stages[0].g_A)])
    Ui = np.linalg.inv(U)
    sig_amp = SigmaMatrix(Ui.T @ sig.entries @ Ui)
    Wcf = imperfect_wigner_closed_form(sig_amp, meas.eps, meas.mu)
    field, cf_artifacts = _render(outdir, "closed_form", Wcf, grid)

    metrics = score_state(W, n=stages[-1].n, sigma11=sig.s11)
    extras = {"metrics": metrics.to_json_dict(),
              "stages": [{"g_dB": s.g_db, "n": s.n, "n_A": s.n_A} for s in stages],
              "max_abs_diff_numeric_vs_closed_form": float(
                  np.abs(num_field - field).max())}
    return extras, artifacts + cf_artifacts


def cmd_oracle(manifest, outdir):
    params, pulse, _, sigma = _gaussian_of(manifest)
    grid = _grid_of(manifest)
    spec = _pipeline_of(manifest, sigma)
    stage, meas = spec.stages[0], spec.measurement
    trunc = manifest.get("oracle", {}).get("truncation", DEFAULT_TRUNCATION)
    st = run_eps_oracle(params, pulse, stage.g_A, stage.n,
                        eta=spec.eta, mu=meas.mu, nu=spec.dark_count,
                        eps=meas.eps, zeta=meas.zeta, truncation=trunc)
    rho_m = st.reduced_mechanical().normalized()
    field = wigner_from_density(rho_m, grid)
    riemann = float(field.sum() * grid.step ** 2)
    artifacts = _write_wigner(outdir, "oracle", field, grid,
                              {"riemann_mass": riemann, "truncation": trunc})
    return {"truncation": trunc, "riemann_mass": riemann,
            "mean_phonons": rho_m.mean_photons()}, artifacts


# ---------------------------------------------------------------------------
# figures catalog: FIGURES maps each id to a builder(fid, outdir)
# that writes the figure's artifacts and returns their names


def _eps_map(R, rule=None, g=1.0, **manifest):
    """Builder of a one-stage n = 2 EPS Wigner map: the eps state of a small
    manifest at reflectivity R.  Rule 'p'/'F'/'x' solves the gain for that xi,
    otherwise the stage uses the fixed gain g."""
    stage = {"g_linear": g} if rule is None else {"xi": _XI[rule]}
    manifest = dict(manifest, pulse={"R": R}, stages=[stage])

    def build(fid, outdir):
        return _render(outdir, fid, _eps_state(manifest)[2], GridSpec(), fid)[1]
    return build


def _curve_figure(rows, header, title, columns):
    """Builder of a curve figure whose CSV rows are rows(fid)."""
    def build(fid, outdir):
        return _curve(outdir, fid, header, rows(fid), title, columns)
    return build


def _V(gamma, R):
    """Post-pulse covariance at the paper's g and kappa and -6 dB input squeezing."""
    return covariance_after_pulse(SystemParams(3.0, 7.0, gamma).with_squeeze_db(-6.0),
                                  PulseSpec(R))


def _correlation_figure(gamma, n_r, title, columns):
    """Builder of E_N and M->C steering against R at -6 and -3 dB input squeezing,
    from the entanglement-sweep rows."""
    header = ["R", "S_in_dB", "E_N", "steering_MC"]

    def rows(fid):
        sweep = correlation_sweep(SystemParams(3.0, 7.0, gamma),
                                  np.linspace(0.02, 0.995, n_r), (-6.0, -3.0))
        return ([r[k] for k in header] for r in sweep)
    return _curve_figure(rows, header, title, columns)


def _gain_rows(fid):
    for r in np.linspace(0.05, 0.995, 120):
        sigma = sigma_from_cov(_V(1.6, float(r)))
        yield (float(r), *(linear_to_db(solve_gain(sigma, _XI[k])) for k in "pFx"))


def _cooperativity_rows(fid):
    """Quality vs 1/C_om at R = 0.5: (a) P-cat, (b) Fock."""
    for inv_c in np.linspace(0.05, 2.5, 18):
        sigma, _, W = _eps_state({"params": {"gamma_mhz": inv_c * 9.0 / 7.0},
                                  "pulse": {"R": 0.5},
                                  "stages": [{"xi": 1.0 if fid == "fig3a" else 0.5}]})
        m = score_state(W, sigma11=sigma.s11)
        F = (best_cat_fidelity(W, "p") if fid == "fig3a" else best_fock_fidelity(W, 2))[0]
        yield (float(inv_c), F, m.delta,
               m.alpha2 if m.alpha2 is not None else float("nan"))


def _efficiency_rows(fid):
    """Quality vs total detection efficiency Gamma = eta + mu.

    The split is ambiguous, so mu stays fixed at 0.8 and eta is swept; the split
    is recorded in every row."""
    mu = 0.8
    for n_A in (0.0, 0.1):
        for eta in np.linspace(0.6, 1.0, 9):
            sigma, _, W = _eps_state({
                "pulse": {"R": 0.5}, "measurement": {"mu": mu},
                "stages": [{"xi": 1.0 if fid == "fig3c" else 0.5, "n_A": n_A}],
                "channel": {"eta": float(eta), "nu": 0.98}})
            m = score_state(W, sigma11=sigma.s11)
            yield (float(eta) + mu, float(eta), mu, n_A, m.delta,
                   m.alpha2 if m.alpha2 is not None else float("nan"))


def _fig4b(fid, outdir):
    res = four_cat_pipeline(_V(0.0, 0.9), 0.0, MeasurementSpec(eps=0.01))
    grid = GridSpec()
    artifacts = _render(outdir, fid, res["state"], grid, "four-component cat")[1]
    _write_csv(outdir / f"{fid}_PX.csv", ["X_M", "P_X"],
               list(zip(grid.axis, marginal(res["state"], [0])(grid.axis))))
    return artifacts + [f"{fid}_PX.csv"]


def _normalized_correlation_rows(fid):
    V0 = _V(0.0, 0.5)
    e0, s0 = logarithmic_negativity(V0), epr_steering_MtoC(V0)
    for c_om in np.geomspace(0.005, 10.0, 60):
        V = _V(9.0 / 7.0 / c_om, 0.5)
        yield float(c_om), logarithmic_negativity(V) / e0, epr_steering_MtoC(V) / s0


def _wavefunction_rows(fid):
    sigma = sigma_from_cov(_V(0.0, 0.9))
    psi = four_cat_wavefunction(sigma, 0.0)
    lam = math.sqrt(1.0 / sigma.s11)
    ideal = TargetState.four_cat(1.6).wavefunction
    # normalized-frame comparison: pipeline psi in y = X/lam units
    xs = np.linspace(-8.0, 8.0, 481)
    return zip(xs.tolist(), (psi(xs * lam) * math.sqrt(lam)).tolist(),
               np.real(ideal(xs)).tolist())


def _imperfect_correlation_rows(fid):
    # ampnoise is the noisy amplifier at g = 1, n_A = 0.16: its literal congruence is
    # not a channel and dips below the uncertainty bound near R = 1 (amplifier_map
    # refuses it); the figure plots it unchecked, as published
    U = np.eye(4)
    U[2:, 2:] = amplifier_block(1.0, math.sqrt(1.16) - 1.0)
    for tag in ("loss", "ampnoise"):
        for r in np.linspace(0.02, 0.995, 120):
            V = _V(1.6, float(r))
            V = loss_channel_cov(V, 0.9) if tag == "loss" else apply_symplectic(V, U)
            yield float(r), tag, logarithmic_negativity(V), epr_steering_MtoC(V)


_LOSSY = {"channel": {"eta": 0.9, "nu": 0.98}, "measurement": {"mu": 0.8}}

FIGURES = {
    "fig2a": _correlation_figure(1.6, 160, "entanglement vs R",
                                 ["S_in_dB", "E_N", "steering"]),
    "fig2b": _curve_figure(_gain_rows, ["R", "g_p_dB", "g_F_dB", "g_x_dB"],
                           "required gains vs R", ["g_p", "g_F", "g_x"]),
    **{f"fig2{c}": _eps_map(0.9 if c in "cdef" else 0.5, rule)
       for c, rule in zip("cdefghij", (None, "p", "F", "x") * 2)},
    **dict.fromkeys(("fig3a", "fig3b"), _curve_figure(
        _cooperativity_rows, ["inv_C_om", "F", "delta", "alpha2"],
        "quality vs 1/C_om", ["F", "delta", "alpha2"])),
    **dict.fromkeys(("fig3c", "fig3d"), _curve_figure(
        _efficiency_rows, ["Gamma", "eta", "mu", "n_A", "delta", "alpha2"],
        "quality vs detection efficiency", ["delta", "alpha2"])),
    "fig4b": _fig4b,
    **{f"figS1{c}": _correlation_figure(9.0 / 7.0 / c_om, 120,
                                        f"correlations at C_om={c_om}", ["E_N", "steering"])
       for c, c_om in zip("ab", (0.5, 0.1))},
    "figS1c": _curve_figure(_normalized_correlation_rows,
                            ["C_om", "E_N_normalized", "steering_normalized"],
                            "normalized correlations vs C_om", ["E_N", "steering"]),
    **{f"figS2{c}": _eps_map(0.9, rule) for c, rule in zip("abcd", (None, "x", "F", "p"))},
    "figS3a": _eps_map(0.9, g=10 ** 0.288, params={"squeeze_db": -3.0, "n_m": 0.05}),
    "figS3b": _eps_map(0.9, g=10 ** 0.566, params={"n_m": 0.2}),
    "figS4": _curve_figure(_wavefunction_rows, ["X_M", "psi_pipeline", "psi_ideal"],
                           "four-cat wave functions", ["pipeline", "ideal"]),
    "figS5a": _curve_figure(_imperfect_correlation_rows,
                            ["R", "case", "E_N", "steering_MC"],
                            "correlations with imperfections", ["E_N", "steering"]),
    **{f"figS5{c}": _eps_map(0.5, rule, **_LOSSY) for c, rule in zip("bcd", "pFx")},
    **{f"figS6{c}": _eps_map(0.5, rule, measurement={"theta": theta, "zeta": 1.0})
       for c, rule, theta in zip("abcdef", "pFxpFx", (0.0,) * 3 + (math.pi / 2.0,) * 3)},
}
FIGURE_IDS = list(FIGURES)


def cmd_figures(manifest, outdir):
    which = manifest.get("figure", {}).get("which", "all")
    ids = FIGURE_IDS if which == "all" else [which]
    if which != "all" and which not in FIGURES:
        raise ManifestError(f"unknown figure id {which!r}")
    artifacts = [name for fid in ids for name in FIGURES[fid](fid, outdir)]
    for fid in ids:
        _write_json(outdir / f"{fid}.manifest.json",
                    {"command": "figures", "figure": {"which": fid}})
        artifacts.append(f"{fid}.manifest.json")
    extras = {"figures": ids}
    if "fig3c" in ids or "fig3d" in ids:
        extras["fig3_split"] = {"mu": 0.8, "eta": "swept"}
    return extras, artifacts


# ---------------------------------------------------------------------------
# driver

# every command of the schema's enum has its cmd_<name> (KeyError at import otherwise)
_DISPATCH = {c: globals()["cmd_" + c.replace("-", "_")] for c in COMMANDS}


def run(manifest: dict, outdir: Path) -> int:
    """Validate and execute a manifest; always writes report.json when possible."""
    report = {"tool": "cvngs", "version": __version__, "convention": CONVENTION_TAG}
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        manifest = validate_manifest(manifest)
        report["manifest"] = manifest
        report["manifest_sha256"] = hashlib.sha256(
            json.dumps(manifest, sort_keys=True).encode()).hexdigest()
        extras, artifacts = _DISPATCH[manifest["command"]](manifest, outdir)
    except (ManifestError, CvngsError, np.linalg.LinAlgError) as exc:
        if isinstance(exc, ManifestError):
            report["error"] = {"kind": "validation", "message": str(exc)}
            code, what = EXIT_VALIDATION, "manifest validation failed"
        else:
            report["error"] = {"kind": "numerical-domain",
                               "op": type(exc).__name__, "message": str(exc)}
            code, what = EXIT_NUMERICAL, "numerical-domain error"
        _write_json(outdir / "report.json", report)
        print(f"{what}: {exc}", file=sys.stderr)
        return code
    report.update(extras)
    report["artifacts"] = sorted(artifacts)
    _write_json(outdir / "report.json", report)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cvngs",
        description="pulsed optomechanical non-Gaussian state synthesis")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--manifest", type=str, default=None,
                    help="JSON manifest path (merged over the chosen command)")
    ap.add_argument("--out", type=str, default="out", help="output directory")
    ap.add_argument("--which", type=str, default=None,
                    help="figure id for the figures command")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.manifest:
        try:
            with open(args.manifest) as fh:
                manifest = json.load(fh)
            if not isinstance(manifest, dict):
                raise ManifestError("manifest must be a JSON object")
        except (OSError, ValueError) as exc:
            print(f"cannot read manifest: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        if manifest.setdefault("command", args.command) != args.command:
            print(f"manifest command {manifest['command']!r} conflicts with "
                  f"the {args.command!r} subcommand", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        manifest = {"command": args.command}
    if args.which:
        manifest.setdefault("figure", {})["which"] = args.which
    return run(manifest, Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
