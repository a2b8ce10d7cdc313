"""One benchmark process: import cvngs from the checkout, set up a workload,
run it in a closed loop and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 EPOCH [--setup-only] [--items K]

Started by run.py in a fresh process with BLAS/OpenMP threads pinned.  The
loop runs whole cycles of the workload's item classes and stops at the end
of the first cycle that finishes after --seconds, and not before two cycles
(or after --items items).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HARD_CAP_S = 150.0
# a workload whose cycle is close to --seconds (oracle_check) would otherwise
# run one cycle on some runs and two on others
MIN_CYCLES = 2


def _import_cvngs() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cvngs
    if Path(cvngs.__file__).resolve().parent != (src / "cvngs").resolve():
        raise ImportError(f"cvngs imported from {cvngs.__file__}, not {src}")
    from cvngs import cli, fock_oracle, metrics_targets  # noqa: F401  (tracing wraps all)


def _provenance(seed: int) -> dict:
    import numpy as np
    import scipy
    import subprocess

    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    if not sha:
        import hashlib
        h = hashlib.sha256()
        for p in sorted((ROOT / "src" / "cvngs").glob("*.py")):
            h.update(p.name.encode() + p.read_bytes())
        sha = "src-sha256:" + h.hexdigest()[:16]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        l3 = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        l3 = 0
    if l3 <= 0:
        try:
            l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        except OSError:
            l3 = "unknown"
    return {"git_sha": sha, "seed": seed, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "l3_bytes": l3}


def _percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Linearly interpolated percentile; returns (value, samples beyond it)."""
    s = sorted(values)
    rank = pct / 100.0 * (len(s) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (rank - lo) * (s[hi] - s[lo]), len(s) - 1 - lo


def _measure(wl, tracer, args, tail_pct: float) -> dict:
    """The closed loop: one item at a time, whole cycles, run() timed and
    check() untimed."""
    lat, classes, failures = [], [], []
    cycle_busy = []          # busy seconds of each complete cycle
    attempted, busy, rep = 0, 0.0, 0
    t_begin = time.perf_counter()
    while True:
        this_cycle = 0.0
        for item in wl.cycle(rep):
            tracer.item = attempted
            tracer.enabled = bool(args.trace)
            t0 = time.perf_counter()
            try:
                out, err = item.run(), None
            except Exception as exc:  # a raising item is a failed item
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            tracer.enabled = False
            attempted += 1
            this_cycle += dt
            if err is None:
                try:
                    err = item.check(out)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is None:
                lat.append(dt)
                classes.append(item.cls)
            else:
                failures.append(f"{item.cls}: {err}")
            if ((args.items and attempted >= args.items)
                    or time.perf_counter() - t_begin > HARD_CAP_S):
                break
        else:
            cycle_busy.append(this_cycle)
        busy += this_cycle
        rep += 1
        if len(cycle_busy) < rep or (
                not args.items and len(cycle_busy) >= MIN_CYCLES
                and time.perf_counter() - t_begin >= args.seconds):
            break
    for f in failures[:20]:
        print("FAILED", f, file=sys.stderr)
    res = {"attempted": attempted, "failed": len(failures), "cycles": len(cycle_busy),
           "busy_s": busy, "cycle_busy_s": cycle_busy,
           "wall_s": time.perf_counter() - t_begin}
    if lat:
        if cycle_busy:
            # every cycle does the same work, so the median cycle gives the
            # rate without the cycles that a stall of the host happened to hit
            rate = len(wl.classes) / statistics.median(cycle_busy)
        else:
            rate = attempted / busy
        tail, beyond = _percentile(lat, tail_pct)
        by_class = {}
        for c, dt in zip(classes, lat):
            by_class.setdefault(c, []).append(1e3 * dt)
        res.update(items_per_s=rate * len(lat) / attempted,
                   item_p50_ms=1e3 * statistics.median(lat), item_tail_ms=1e3 * tail,
                   tail_percentile=tail_pct, tail_beyond=beyond, passed=len(lat),
                   class_ms=by_class)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="spawn time (epoch s)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--items", type=int, default=0,
                    help="stop after this many items instead of after --seconds")
    args = ap.parse_args(argv)

    import warnings
    # SystemParams warns on every construction at the paper's own kappa < 3 g;
    # warnings are not outputs, and emitting them would be timed
    warnings.simplefilter("ignore")
    _import_cvngs()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    import workloads  # after install, so its cvngs names are the wrapped ones

    wl = workloads.Workload(args.workload, args.seed, ROOT, tracer)
    wl.cycle(0)               # input generation counts as set-up
    wl.warmup()
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    res = _measure(wl, tracer, args, workloads.TAIL_PERCENTILE[args.workload])
    res.update(setup_s=setup_s, provenance=_provenance(args.seed),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.trace and res["attempted"]:
        layer = tracing.aggregate(tracer.spans, res["attempted"], res["busy_s"])
        layer["cli.bytes_written"] = wl.cli_counters["bytes"] / res["attempted"]
        layer["cli.artifacts"] = wl.cli_counters["artifacts"] / res["attempted"]
        layer["cli.golden_mismatches"] = wl.cli_counters["golden_mismatches"]
        layer["bench.traced_items_per_s"] = res.get("items_per_s", 0.0)
        res["per_layer"] = layer
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracing.dump(tracer.spans, out_dir / f"trace_{args.workload}_seed{args.seed}.json")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
