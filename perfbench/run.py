"""cvngs benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in a fresh child
process (worker.py) with BLAS/OpenMP pinned to one thread; this process only
imports the standard library.

--trace 0: six set-up-only processes, then the measured process.  Prints the
end-to-end metrics: items_per_s, item_p50_ms, item_tail_ms, setup_s (median of
the seven set-up times) and peak_rss_mb (the measured process's own peak).
--trace 1: one measured process with spans around every public cvngs
function; prints the per-layer metrics and writes the spans to perfbench/out.

Workload names, metric names and units come from BENCHMARK.json at the root.
The last stdout line is the result JSON; the line before it carries the
provenance (git SHA or source hash, nproc, numpy/scipy/BLAS, L3 size, seed,
item count, tail percentile).  Exits non-zero, printing no result, when a
worker fails, e.g. because src/cvngs is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170.0
# Pinned for the worker processes only.  The glibc malloc settings keep freed
# heap memory mapped: without them, returning it to the kernel after each
# large item and faulting it back in on the next makes item latency jump
# between two levels (about 100 and 150 ms for a 241^2 CLI render).
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
          "MALLOC_TRIM_THRESHOLD_": str(1 << 30), "MALLOC_TOP_PAD_": str(1 << 28)}


def _worker(args, extra, deadline) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    env = dict(os.environ, **PINNED)
    timeout = max(1.0, min(WORKER_TIMEOUT_S, deadline - time.monotonic()))
    proc = subprocess.run(cmd + ["--t0", repr(time.time())], env=env,
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + 175.0

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(args, ["--setup-only"], deadline)["setup_s"])
        res = _worker(args, [], deadline)
        if args.trace:
            values = res["per_layer"]
        else:
            setups.append(res["setup_s"])
            values = dict(res, setup_s=statistics.median(setups))
        declared = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared}
        prov = dict(res["provenance"], workload=args.workload, trace=args.trace,
                    items_passed=res["passed"], cycles=res["cycles"],
                    tail_percentile=res["tail_percentile"],
                    tail_beyond=res["tail_beyond"], busy_s=res["busy_s"],
                    wall_s=res["wall_s"], setup_samples_s=setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1

    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    detail = {"cycle_busy_s": res["cycle_busy_s"], "class_ms": res["class_ms"]}
    out_dir = Path.cwd() / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(dict(result, provenance=prov, detail=detail), indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
