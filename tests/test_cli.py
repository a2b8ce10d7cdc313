import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvngs
from cvngs import GridSpec, PulseSpec, SystemParams
from cvngs.cli import (_SCHEMA, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                       FIGURE_IDS, ManifestError, _check, _write_csv,
                       _write_wigner, main, run, validate_manifest)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestValidation:
    def test_unknown_field_rejected(self, tmp_path):
        rc = run({"command": "eps", "bogus": 1}, tmp_path)
        assert rc == EXIT_VALIDATION
        assert read_json(tmp_path / "report.json")["error"]["kind"] == "validation"

    def test_unknown_nested_field_rejected(self, tmp_path):
        rc = run({"command": "eps", "params": {"g": 3.0}}, tmp_path)
        assert rc == EXIT_VALIDATION

    def test_degenerate_grid_rejected(self, tmp_path):
        rc = run({"command": "eps", "grid": {"n": 1}}, tmp_path)
        assert rc == EXIT_VALIDATION

    def test_ambiguous_pulse_rejected(self, tmp_path):
        rc = run({"command": "eps", "pulse": {"R": 0.9, "tau_ns": 3.0}}, tmp_path)
        assert rc == EXIT_VALIDATION

    def test_range_enforced_at_parse_time(self, tmp_path):
        rc = run({"command": "eps", "channel": {"eta": 1.5}}, tmp_path)
        assert rc == EXIT_VALIDATION

    def test_unknown_figure_id(self, tmp_path):
        rc = run({"command": "figures", "figure": {"which": "fig99"}}, tmp_path)
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("manifest", [
        {"command": "eps", "grid": {"n": 61.0}},
        {"command": "eps", "stages": [{"xi": 0.5, "n": True}]},
        {"command": "eps", "pulse": {"R": 0}},
        {"command": "entanglement-sweep", "sweep": {"r_grid": []}},
        {"command": "nope"},
        {"grid": {"n": 61}},
        {"command": "eps", "grid": {"xmin": 2.0, "xmax": 2.0}},
        {"command": "eps", "grid": {"xmin": 7.0}},
        {"command": "figures", "figure": {"which": "fig2c", "eta": 0.9}},
        {"command": "gain-solve", "out_dir": "elsewhere"},
        {"command": "gain-solve", "pulse": {"tau_ns": float("nan")}},
        {"command": "eps", "grid": {"xmax": float("inf")}},
        {"command": "entanglement-sweep", "sweep": {"r_grid": [0.5, float("-inf")]}},
        {"command": "oracle", "measurement": {"theta": 0.7}},
        {"command": "figures", "figure": {"which": "fig2c", "mu": 0.5}},
        {"command": "eps", "stages": [{"g_db": 2.0, "xi": 0.5}]},
        {"command": "eps", "stages": [{"g_db": 2.0, "g_linear": 5.0}]},
        {"command": "eps", "stages": [{"n": 2}]},
        {"command": "eps", "stages": [{"g_db": 4000.0}]},
        {"command": "eps", "stages": [{"g_linear": 1e300}]},
        {"command": "eps", "stages": [{"g_db": -4000.0}]},
        {"command": "eps", "stages": [{"g_linear": 1e-300}]},
        {"command": "oracle", "params": {"gamma_mhz": 0, "squeeze_db": -3},
         "oracle": {"truncation": 24}, "stages": [{"xi": 0.5, "n": 2, "n_A": 0.2}]},
        {"command": "eps", "grid": {"xmin": -1e300, "xmax": 1e300, "n": 3}},
        {"command": "eps", "grid": {"n": 1002}},
        {"command": "oracle", "oracle": {"truncation": 81}},
        {"command": "eps", "stages": [{"xi": 0.5, "n": 5}, {"xi": 0.5, "n": 4}]},
        {"command": "oracle", "stages": [{"xi": 0.5, "n": 2}, {"xi": 0.5, "n": 2}]},
        {"command": "oracle", "stages": []},
        {"command": "entanglement-sweep", "sweep": {"squeeze_db_grid": [1e308]}},
        {"command": "entanglement-sweep", "sweep": {"r_grid": [0.5, 1.5]}},
    ], ids=["float-int", "bool-int", "R-exclusive-min", "empty-array", "unknown-command",
            "missing-command", "xmax-eq-xmin", "xmin-past-default-xmax",
            "figure-eta", "out-dir", "nan", "infinity", "minus-infinity-item",
            "oracle-theta", "figure-mu-unread", "stage-g-db-and-xi",
            "stage-g-db-and-g-linear", "stage-without-gain", "stage-g-db-overflow",
            "stage-g-linear-huge", "stage-g-db-underflow", "stage-g-linear-tiny",
            "oracle-n-A", "grid-huge-span", "grid-n-above-bound",
            "truncation-above-bound", "photons-above-bound", "oracle-two-stages",
            "oracle-no-stage", "sweep-squeeze-db-overflow", "sweep-R-above-one"])
    def test_schema_rejects(self, tmp_path, manifest):
        assert run(manifest, tmp_path) == EXIT_VALIDATION
        assert read_json(tmp_path / "report.json")["error"]["kind"] == "validation"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("params", [{}, {"gamma_mhz": 1.6}, {"gamma_mhz": 1e-9}],
                             ids=["default", "paper", "tiny"])
    def test_oracle_needs_gamma_zero(self, tmp_path, params):
        # the oracle's gamma = 0 rule fails validation (exit 2), not the state build (exit 3)
        rc = run({"command": "oracle", "params": params, "oracle": {"truncation": 12}}, tmp_path)
        assert rc == EXIT_VALIDATION
        assert read_json(tmp_path / "report.json")["error"]["message"].startswith(
            "params.gamma_mhz: ")

    @pytest.mark.parametrize("stage", [{"g_db": 60.0}, {"g_db": -60.0},
                                       {"g_linear": 1e6}, {"g_linear": 1e-6}])
    def test_stage_gain_bounds_accepted(self, tmp_path, stage):
        assert run({"command": "eps", "stages": [stage], "grid": {"n": 21}},
                   tmp_path) == EXIT_OK

    # validation alone: an N = 80 oracle state is not built here
    @pytest.mark.parametrize("manifest", [
        {"command": "oracle", "params": {"gamma_mhz": 0}, "oracle": {"truncation": 80}},
        {"command": "eps", "stages": [{"xi": 0.5, "n": 8}]},
        {"command": "eps", "stages": [{"xi": 0.5, "n": 4}, {"g_db": 3.0, "n": 4}]},
        {"command": "eps", "stages": [{"xi": 0.5}] * 4}],
        ids=["truncation-80", "photons-8", "photons-4-4", "photons-default-n"])
    def test_work_bounds_accepted(self, manifest):
        assert validate_manifest(manifest) is manifest

    def test_readme_manifest_runs(self, tmp_path):
        # the README's example manifest validates and runs, so the docs track the schema
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        manifest = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        assert validate_manifest(manifest) is manifest
        assert run(manifest, tmp_path) == EXIT_OK


class TestNumericalErrors:
    def test_xi_without_correlation_is_numerical_domain(self, tmp_path):
        # S_in = 0 dB gives sigma13 = 0: solving for xi must exit 3
        rc = run({"command": "eps", "params": {"squeeze_db": 0.0},
                  "stages": [{"xi": 0.5, "n": 2}]}, tmp_path)
        assert rc == EXIT_NUMERICAL
        assert read_json(tmp_path / "report.json")["error"]["kind"] == "numerical-domain"

    def test_solved_gain_out_of_range(self, tmp_path):
        assert run({"command": "eps", "stages": [{"xi": -1e300}]}, tmp_path) == EXIT_NUMERICAL
        assert "solved gain" in read_json(tmp_path / "report.json")["error"]["message"]

    # each of these moves the numeric map away from the closed form (by 0.023 to 0.14)
    @pytest.mark.parametrize("extra", [{"channel": {"nu": 0.9}},
                                       {"stages": [{"xi": 1.0, "n": 2, "n_A": 0.1}]},
                                       {"measurement": {"theta": 0.4}},
                                       {"measurement": {"zeta": 0.5}}],
                             ids=["nu", "n_A", "theta", "zeta"])
    def test_imperfections_outside_the_closed_form(self, tmp_path, extra):
        manifest = dict({"command": "imperfections", "pulse": {"R": 0.5},
                         "stages": [{"xi": 1.0, "n": 2}], "grid": {"n": 61}}, **extra)
        assert run(manifest, tmp_path) == EXIT_NUMERICAL
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


EDGE = (0.0, 5e-324, 1e-300, 1e-12, 1e12, 1e300)


def edge_values(prop):
    """Edge values of a schema number, with their negatives and the field's own
    bounds, that the field's schema accepts."""
    def valid(v):
        try:
            _check(v, prop, "")
        except ManifestError:
            return False
        return True
    bounds = [prop[k] for k in ("minimum", "maximum") if k in prop]
    return [v for v in dict.fromkeys((*EDGE, *(-m for m in EDGE), *bounds)) if valid(v)]


def edge_numbers(prop):
    return st.sampled_from(edge_values(prop))


def block(name, **fixed):
    """An optional-keys object of the schema block `name`, with edge numbers."""
    props = _SCHEMA["properties"][name]["properties"]
    return st.fixed_dictionaries({}, optional={
        k: fixed.get(k, edge_numbers(p)) for k, p in props.items()})


def arrays(name):
    """An optional-keys object of the schema block `name` of arrays, each item an
    edge number of the array's item schema."""
    props = _SCHEMA["properties"][name]["properties"]
    return st.fixed_dictionaries({}, optional={
        k: st.lists(edge_numbers(p["items"]), min_size=p["minItems"], max_size=3)
        for k, p in props.items()})


STAGE = _SCHEMA["properties"]["stages"]["items"]["properties"]
stages = st.lists(st.sampled_from(["g_db", "g_linear", "xi"]).flatmap(
    lambda gain: st.fixed_dictionaries({gain: edge_numbers(STAGE[gain])}, optional={
        "n": st.sampled_from([0, 1, 2, 3]), "n_A": edge_numbers(STAGE["n_A"])})),
    min_size=1, max_size=1)


def commands(names, **blocks):
    """Manifests of the given commands: the shared blocks and the commands' own."""
    return st.fixed_dictionaries(
        {"command": st.sampled_from(names), "grid": block("grid", n=st.sampled_from([2, 3, 21]))},
        optional={"params": block("params"), "pulse": block("pulse"), **blocks})


manifests = st.one_of(
    commands(["eps", "imperfections", "oracle"], stages=stages,
             measurement=block("measurement"), channel=block("channel"),
             oracle=st.just({"truncation": 8})),
    commands(["entanglement-sweep"], sweep=arrays("sweep")),
    commands(["four-cat"], measurement=block("measurement"), four_cat=block("four_cat")),
    commands(["gain-solve"]))


def reject_constant(name):
    raise ValueError(f"report.json holds {name}")


@settings(max_examples=180, deadline=None, derandomize=True)
@given(manifest=manifests)
def test_hostile_manifest_ends_in_a_report(manifest):
    # overflow in the rejected inputs warns on its way to the typed error
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = run(manifest, Path(tmp))
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)
        json.loads((Path(tmp) / "report.json").read_text(), parse_constant=reject_constant)


@pytest.mark.parametrize("key", ["r_grid", "squeeze_db_grid"])
def test_sweep_edge_items_end_in_a_report(tmp_path, key):
    # every edge value the item schema accepts, one sweep row each
    for i, v in enumerate(edge_values(_SCHEMA["properties"]["sweep"]["properties"][key]["items"])):
        rc = run({"command": "entanglement-sweep", "sweep": {key: [v]}}, tmp_path / str(i))
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)
        json.loads((tmp_path / str(i) / "report.json").read_text(),
                   parse_constant=reject_constant)


class TestGainSolve:
    def test_fig2_gains(self, tmp_path):
        rc = run({"command": "gain-solve", "pulse": {"R": 0.9}}, tmp_path)
        assert rc == EXIT_OK
        g = read_json(tmp_path / "gains.json")
        assert g["g_x_dB"] == pytest.approx(5.8413, abs=1e-3)
        assert g["g_F_dB"] == pytest.approx(5.6493, abs=1e-3)
        assert g["g_p_dB"] == pytest.approx(5.4485, abs=1e-3)

    def test_tau_ns_pulse_matches_its_reflectivity(self, tmp_path):
        params = SystemParams(3.0, 7.0, 1.6)
        tau_ns = PulseSpec(0.9).tau_s(params) * 1e9
        assert run({"command": "gain-solve", "pulse": {"R": 0.9}}, tmp_path / "R") == EXIT_OK
        assert run({"command": "gain-solve", "pulse": {"tau_ns": tau_ns}},
                   tmp_path / "tau") == EXIT_OK
        by_R, by_tau = (read_json(tmp_path / d / "gains.json") for d in ("R", "tau"))
        assert by_tau == pytest.approx(by_R, rel=1e-9)

    def test_report_carries_hash_and_version(self, tmp_path):
        run({"command": "gain-solve"}, tmp_path)
        rep = read_json(tmp_path / "report.json")
        assert rep["tool"] == "cvngs"
        assert len(rep["manifest_sha256"]) == 64
        assert rep["manifest"]["command"] == "gain-solve"


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        m = {"command": "eps", "grid": {"xmin": -5.0, "xmax": 5.0, "n": 61}}
        run(m, tmp_path / "a")
        run(m, tmp_path / "b")
        for name in ("state.csv", "state.json", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestCommands:
    def test_sweep_csv_header(self, tmp_path):
        run({"command": "entanglement-sweep",
             "sweep": {"r_grid": [0.5], "squeeze_db_grid": [-6.0]}}, tmp_path)
        head = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert head == "R,tau_s,S_in_dB,E_N,steering_MC"

    def test_eps_writes_wigner_artifacts(self, tmp_path):
        rc = run({"command": "eps", "grid": {"n": 41}}, tmp_path)
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "report.json")
        assert set(rep["artifacts"]) >= {"state.csv", "state.json", "state.gp"}
        env = read_json(tmp_path / "state.json")
        assert env["convention"].startswith("XM,PM,XC,PC")

    def test_stage_gain_in_db_or_linear(self, tmp_path):
        reports = []
        for i, stage in enumerate(({"g_db": 3.0, "n": 1}, {"g_linear": 10 ** 0.3, "n": 1})):
            assert run({"command": "eps", "stages": [stage], "grid": {"n": 41}},
                       tmp_path / str(i)) == EXIT_OK
            reports.append(read_json(tmp_path / str(i) / "report.json"))
        for rep in reports:
            assert rep["stages"] == [{"g_dB": pytest.approx(3.0, abs=1e-12), "n": 1,
                                      "n_A": 0.0}]
        for key in ("delta", "parity"):
            assert reports[0]["metrics"][key] == pytest.approx(reports[1]["metrics"][key],
                                                               rel=1e-9)

    def test_four_cat_command(self, tmp_path):
        rc = run({"command": "four-cat", "params": {"gamma_mhz": 0.0},
                  "four_cat": {"xi1": 0.0}, "grid": {"n": 41},
                  "measurement": {"eps": 0.01}}, tmp_path)
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "report.json")
        assert rep["fidelity"] == pytest.approx(0.975, abs=0.01)

    def test_imperfections_closed_form_agreement(self, tmp_path):
        rc = run({"command": "imperfections",
                  "pulse": {"R": 0.5},
                  "stages": [{"xi": 1.0, "n": 2}],
                  "measurement": {"mu": 0.8},
                  "grid": {"n": 81}}, tmp_path)
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "report.json")
        assert rep["max_abs_diff_numeric_vs_closed_form"] < 1e-9

    def test_oracle_command(self, tmp_path):
        rc = run({"command": "oracle", "params": {"gamma_mhz": 0.0},
                  "pulse": {"R": 0.9}, "stages": [{"xi": 0.5, "n": 2}],
                  "oracle": {"truncation": 24}, "grid": {"n": 41}}, tmp_path)
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "report.json")
        assert abs(rep["riemann_mass"] - 1.0) < 1e-3

    def test_figures_single(self, tmp_path):
        rc = main(["figures", "--which", "fig2b", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "report.json")
        assert rep["figures"] == ["fig2b"]
        assert rep["artifacts"] == ["fig2b.csv", "fig2b.gp", "fig2b.manifest.json"]
        for name in rep["artifacts"]:
            assert (tmp_path / name).exists()

    def test_figure_grid_artifact(self, tmp_path):
        rc = run({"command": "figures", "figure": {"which": "figS3a"}}, tmp_path)
        assert rc == EXIT_OK
        assert (tmp_path / "figS3a.json").exists()


def reference_wigner_csv(path, field, grid):
    """The map CSV as stacked X, P, W rows through _write_csv."""
    X, P = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    _write_csv(path, ["X", "P", "W"],
               np.stack([X.ravel(), P.ravel(), field.ravel()], axis=1).tolist())


class TestWignerWriter:
    SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 0.1 + 0.2, 1.0 / math.pi,
               -1.0 / math.pi, math.nextafter(1.0 / math.pi, 1.0),
               math.nextafter(-1.0 / math.pi, -1.0), 1e300, 123456789012.5]

    # the default axis, an odd one, and one holding 0.0 exactly (linspace(-2, 2, 9))
    @pytest.mark.parametrize("grid", [GridSpec(), GridSpec(-3.0, 2.5, 7),
                                      GridSpec(-2.0, 2.0, 9)],
                             ids=["default", "odd", "axis-with-zero"])
    def test_bytes_match_stacked_rows(self, tmp_path, grid):
        field = np.random.default_rng(7).normal(scale=1.0 / math.pi, size=(grid.n, grid.n))
        field.flat[:len(self.SPECIAL)] = self.SPECIAL
        field.flat[-len(self.SPECIAL):] = self.SPECIAL
        assert _write_wigner(tmp_path, "m", field, grid, {}) == ["m.csv", "m.json"]
        reference_wigner_csv(tmp_path / "ref.csv", field, grid)
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_import_leaves_scipy_optimize_unloaded():
    # the metric layer imports minimize lazily; loading it costs every workload's setup
    src = str(Path(cvngs.__file__).resolve().parents[1])
    code = ("import sys, cvngs, cvngs.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


# CSV data rows of each curve figure; every other id is a Wigner map on the
# default 241 x 241 grid
CURVE_ROWS = {"fig2a": 320, "fig2b": 120, "fig3a": 18, "fig3b": 18, "fig3c": 18,
              "fig3d": 18, "figS1a": 240, "figS1b": 240, "figS1c": 60, "figS4": 481,
              "figS5a": 240}
CURVE_HEADERS = {
    **dict.fromkeys(("fig2a", "figS1a", "figS1b"), "R,S_in_dB,E_N,steering_MC"),
    "fig2b": "R,g_p_dB,g_F_dB,g_x_dB",
    **dict.fromkeys(("fig3a", "fig3b"), "inv_C_om,F,delta,alpha2"),
    **dict.fromkeys(("fig3c", "fig3d"), "Gamma,eta,mu,n_A,delta,alpha2"),
    "figS1c": "C_om,E_N_normalized,steering_normalized",
    "figS4": "X_M,psi_pipeline,psi_ideal",
    "figS5a": "R,case,E_N,steering_MC",
}


@pytest.fixture(scope="module")
def all_figures(tmp_path_factory):
    """One `figures --which all` run."""
    outdir = tmp_path_factory.mktemp("figures")
    assert run({"command": "figures"}, outdir) == EXIT_OK
    return outdir, read_json(outdir / "report.json")


class TestFigureCatalog:
    def test_report_lists_every_id_and_artifact(self, all_figures):
        outdir, rep = all_figures
        assert rep["figures"] == FIGURE_IDS
        assert rep["fig3_split"] == {"mu": 0.8, "eta": "swept"}
        assert sorted(p.name for p in outdir.iterdir()) == \
            sorted(rep["artifacts"] + ["report.json"])

    @pytest.mark.parametrize("fid", FIGURE_IDS)
    def test_figure_artifacts(self, all_figures, fid):
        outdir, rep = all_figures
        assert {f"{fid}.csv", f"{fid}.gp", f"{fid}.manifest.json"} <= set(rep["artifacts"])
        lines = (outdir / f"{fid}.csv").read_text().splitlines()
        if fid in CURVE_ROWS:
            assert (lines[0], len(lines) - 1) == (CURVE_HEADERS[fid], CURVE_ROWS[fid])
        else:
            assert (lines[0], len(lines) - 1) == ("X,P,W", 241 ** 2)
            assert read_json(outdir / f"{fid}.json")["grid"] == \
                {"xmin": -6.0, "xmax": 6.0, "n": 241}
        assert read_json(outdir / f"{fid}.manifest.json")["figure"] == {"which": fid}

    @pytest.mark.parametrize("fid", ["fig3c", "fig3d"])
    def test_efficiency_rows_carry_the_given_mu(self, all_figures, fid):
        lines = (all_figures[0] / f"{fid}.csv").read_text().splitlines()[1:]
        for line in lines:
            gamma, eta, mu = map(float, line.split(",")[:3])
            assert mu == 0.8 and math.isclose(gamma, eta + 0.8)

    def test_four_cat_marginal(self, all_figures):
        lines = (all_figures[0] / "fig4b_PX.csv").read_text().splitlines()
        assert (lines[0], len(lines) - 1) == ("X_M,P_X", 241)

    def test_four_cat_marginal_is_exact(self, all_figures):
        # P_X is the exact X marginal: a p sum over +-14 agrees to 1e-12, where
        # a sum over the map's own +-6 rows clips the tails by about 1e-8
        from cvngs import MeasurementSpec, four_cat_pipeline
        from cvngs.cli import _V
        x, px = np.loadtxt(all_figures[0] / "fig4b_PX.csv", delimiter=",", skiprows=1).T
        W = four_cat_pipeline(_V(0.0, 0.9), 0.0, MeasurementSpec(eps=0.01))["state"]
        p = np.linspace(-14.0, 14.0, 1401)
        fine = W(x[:, None], p).sum(axis=1) * (p[1] - p[0])
        assert np.abs(fine - px).max() < 1e-12


class TestMainEntry:
    def test_cli_main_roundtrip(self, tmp_path, capsys):
        rc = main(["gain-solve", "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK

    def test_oracle_without_manifest_fails_validation(self, tmp_path, capsys):
        assert main(["oracle", "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert "params.gamma_mhz" in capsys.readouterr().err

    def test_jobs_flag_removed(self, tmp_path):
        # figures run serially; --jobs is an unknown flag, so argparse exits 2
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--jobs", "2", "--which", "fig2a", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_manifest_command_mismatch_rejected(self, tmp_path):
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps({"command": "eps"}))
        rc = main(["oracle", "--manifest", str(mp), "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"eps"', "null"])
    def test_non_object_manifest_file(self, tmp_path, text):
        mp = tmp_path / "m.json"
        mp.write_text(text)
        assert main(["eps", "--manifest", str(mp), "--out", str(tmp_path / "o")]) \
            == EXIT_VALIDATION

    def test_nan_manifest_file(self, tmp_path):
        # json.load reads the non-standard NaN token; validation must refuse it
        mp = tmp_path / "m.json"
        mp.write_text('{"command": "gain-solve", "pulse": {"tau_ns": NaN}}')
        assert main(["gain-solve", "--manifest", str(mp), "--out", str(tmp_path / "o")]) \
            == EXIT_VALIDATION
        report = (tmp_path / "o" / "report.json").read_text()
        assert "NaN" not in report and "validation" in report

    def test_manifest_file(self, tmp_path):
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps({"command": "gain-solve", "pulse": {"R": 0.5}}))
        rc = main(["gain-solve", "--manifest", str(mp), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
