"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py        (from the root of a checkout)

1. Gates: for each workload, real outputs pass their gate and deliberately
   perturbed copies of them are counted as failed.
2. Counters: two traced runs of one seed, in fresh processes, report
   identical deterministic counters (calls, polynomial terms and degree,
   oracle state bytes, CLI bytes and artifacts).

Exits non-zero on the first disagreement.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
COUNTER_ITEMS = {"synth_highorder": 23, "quality_scan": 5, "oracle_check": 2,
                 "cli_manifests": 41}


def _expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def _first(wl, cls):
    return next(item for item in wl.cycle(0) if item.cls == cls)


def check_gates() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import warnings
    warnings.simplefilter("ignore")
    import numpy as np
    from cvngs.phase_space import PolyGaussian, translate

    import tracing
    import workloads

    def wl(name):
        return workloads.Workload(name, 7, ROOT, tracing.Tracer())

    synth = wl("synth_highorder")
    item = _first(synth, "n2")
    V, gains, W = item.run()
    _expect(item.check((V, gains, W)) is None, "synth n2 passes")
    heavier = PolyGaussian(W.cov, W.mean, W.poly, W.norm * (1.0 + 1e-6))
    _expect(item.check((V, gains, heavier)) is not None, "synth: mass 1 + 1e-6 fails")
    _expect(item.check((V, gains, translate(W, np.array([1e-4, 0.0])))) is not None,
            "synth: state shifted by 1e-4 fails the Q_n route")

    quality = wl("quality_scan")
    for cls in ("cat_p", "fock2_a"):
        item = _first(quality, cls)
        V, g, W, metrics, (F, arg) = item.run()
        _expect(item.check((V, g, W, metrics, (F, arg))) is None, f"quality {cls} passes")
        _expect(item.check((V, g, W, metrics, (F - 1e-5, arg))) is not None,
                f"quality {cls}: best-fit F lowered by 1e-5 fails")
        _expect(item.check((V, g, translate(W, np.array([0.0, 1e-3])), metrics,
                            (F, arg))) is not None,
                f"quality {cls}: state shifted by 1e-3 fails the closed form")
    _expect(item.check((V, g, W, metrics, (1.0 + 1e-6, arg))) is not None,
            "quality: F > 1 fails")

    oracle = wl("oracle_check")
    item = _first(oracle, "N32_n1_zeta")
    V, V_fock, W_ps, W_fock = item.run()
    _expect(item.check((V, V_fock, W_ps, W_fock)) is None, "oracle N32 passes")
    W_bad = W_fock.copy()
    W_bad[30, 30] += 2e-3
    _expect(item.check((V, V_fock, W_ps, W_bad)) is not None,
            "oracle: Wigner grid off by 2e-3 fails")
    _expect(item.check((V, V_fock + 2e-6, W_ps, W_fock)) is not None,
            "oracle: second moments off by 2e-6 fails")

    cli = wl("cli_manifests")
    item = _first(cli, "golden:eps_fock_R09")
    outdir, rc = item.run()
    csv = outdir / "state.csv"
    data = bytearray(csv.read_bytes())
    data[-2] = ord("9") if data[-2] != ord("9") else ord("8")
    csv.write_bytes(bytes(data))
    _expect(item.check((outdir, rc)) is not None, "cli: golden CSV with one digit changed fails")
    item = _first(cli, "imperfections")
    out = item.run()
    _expect(item.check(out) is None, "cli imperfections passes")
    outdir, rc = item.run()
    rep = json.loads((outdir / "report.json").read_text())
    rep["max_abs_diff_numeric_vs_closed_form"] = 2e-6
    (outdir / "report.json").write_text(json.dumps(rep))
    _expect(item.check((outdir, rc)) is not None, "cli: closed-form gap of 2e-6 fails")
    _expect(item.check((outdir, 3)) is not None, "cli: non-zero exit fails")


def _counters(workload: str) -> dict:
    sys.path.insert(0, str(HERE))
    from run import PINNED
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", "11", "--seconds", "0", "--trace", "1",
           "--items", str(COUNTER_ITEMS[workload]), "--t0", repr(time.time())]
    proc = subprocess.run(cmd, env=dict(os.environ, **PINNED), capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(1)
    layer = json.loads(proc.stdout.strip().splitlines()[-1])["per_layer"]
    return {k: v for k, v in layer.items()
            if not k.endswith("_ms") and not k.endswith("items_per_s")}


def check_counters() -> None:
    for workload in COUNTER_ITEMS:
        a, b = _counters(workload), _counters(workload)
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        _expect(not diff and a.keys() == b.keys(),
                f"{workload}: {len(a)} counters identical across two traced runs {diff or ''}")


if __name__ == "__main__":
    check_gates()
    check_counters()
