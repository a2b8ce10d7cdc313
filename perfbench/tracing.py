"""In-memory call spans around the public functions of the cvngs modules.

`install` replaces every public module-level function, in every loaded cvngs
module that refers to it, by a recorder; nothing under src/ is edited.  A
span holds (module, name, start, end, parent span, item id, counters) and
stays in memory until `aggregate`/`dump` at the end of the run.

A span is opened for each call *into* a module: a call from one public
function to another of the same module is part of the caller's span (so
project_XC's self time includes its marginalization, wigner_negativity's its
grid renders).  metrics_targets is the exception: its functions nest by
design (score_state and the best fits call fidelity and cat_fit), and each is
a named layer metric.  In `cli` only `run` is wrapped, so that cli.run's self
time is validation plus serialization.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from time import perf_counter

MODULES = ("gaussian_core", "pulse_dynamics", "phase_space", "state_synthesis",
           "metrics_targets", "fock_oracle", "cli")
NESTED = {"metrics_targets"}
ONLY = {"cli": {"run"}}
ORACLE_CHANNELS = ("apply_amplifier", "apply_annihilate_C", "apply_loss",
                   "apply_homodyne_window", "run_eps_oracle")
BEST_FIT = ("best_cat_fidelity", "best_fock_fidelity")

MOD, NAME, T0, T1, PARENT, ITEM, COUNTERS = range(7)


def _counters(out):
    """Deterministic size counters of a layer's result: polynomial term count
    and degree of a poly x Gaussian, byte size of a Fock density matrix."""
    poly = getattr(out, "poly", None)
    if poly is not None:
        terms = getattr(poly, "terms", None)
        return {"terms": len(terms) if terms is not None else 0,
                "degree": int(getattr(poly, "degree", 0))}
    rho = getattr(out, "rho", None)
    if rho is not None and hasattr(rho, "nbytes"):
        return {"bytes": int(rho.nbytes)}
    return None


class Tracer:
    """Span recorder; a disabled tracer passes calls straight through."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self.enabled = False

    def _open(self, module, name):
        rec = [module, name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               self.item, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[T0] = perf_counter()
        return rec

    def _close(self, rec):
        rec[T1] = perf_counter()
        self.stack.pop()

    def wrap(self, module, name, fn):
        tracer = self
        nests = module in NESTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or (
                    not nests and tracer.stack
                    and tracer.spans[tracer.stack[-1]][MOD] == module):
                return fn(*args, **kwargs)
            rec = tracer._open(module, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            rec[COUNTERS] = _counters(out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, module, name):
        """Span for a library call the wrappers cannot see (a method call)."""
        if not self.enabled:
            yield
            return
        rec = self._open(module, name)
        try:
            yield
        finally:
            self._close(rec)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every cvngs module."""
    originals = {}
    for mod_name in MODULES:
        mod = sys.modules[f"cvngs.{mod_name}"]
        for name, obj in vars(mod).items():
            if (not inspect.isfunction(obj) or obj.__module__ != mod.__name__
                    or name.startswith("_")
                    or (mod_name in ONLY and name not in ONLY[mod_name])):
                continue
            originals[id(obj)] = (obj, tracer.wrap(mod_name, name, obj))
    for mod_key, mod in list(sys.modules.items()):
        if mod_key != "cvngs" and not mod_key.startswith("cvngs."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])


def _self_times(spans):
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[T1] - rec[T0]
    return [rec[T1] - rec[T0] - c for rec, c in zip(spans, child)]


def _entry_spans(spans):
    """Spans with no ancestor in their own module: summing their durations
    gives each module's inclusive time without double counting."""
    out = []
    for rec in spans:
        p = rec[PARENT]
        while p >= 0 and spans[p][MOD] != rec[MOD]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


def aggregate(spans, n_items: int, item_seconds: float) -> dict:
    """Per-item per-layer metrics from the spans of a traced run: self time
    (`.self_ms`), inclusive time under the module's entry calls (`.incl_ms`),
    call counts and size counters."""
    selfs = _self_times(spans)
    entry = _entry_spans(spans)
    incl = {m: 0.0 for m in MODULES}
    per_name: dict[tuple, list] = {}
    per_mod: dict[str, list] = {m: [0.0, 0] for m in MODULES}
    top_level = 0.0
    fits, fit_fidelity_calls = 0, 0
    terms, degree, oracle_bytes = [], [], []
    for idx, (rec, s) in enumerate(zip(spans, selfs)):
        key = (rec[MOD], rec[NAME])
        acc = per_name.setdefault(key, [0.0, 0])
        acc[0] += s
        acc[1] += 1
        per_mod[rec[MOD]][0] += s
        per_mod[rec[MOD]][1] += 1
        if entry[idx]:
            incl[rec[MOD]] += rec[T1] - rec[T0]
        if rec[PARENT] < 0:
            top_level += rec[T1] - rec[T0]
        c = rec[COUNTERS]
        if c:
            if "terms" in c and rec[MOD] == "phase_space":
                terms.append(c["terms"])
                degree.append(c["degree"])
            if "bytes" in c:
                oracle_bytes.append(c["bytes"])
        if key == ("metrics_targets", "fidelity"):
            p = rec[PARENT]
            while p >= 0 and spans[p][NAME] not in BEST_FIT:
                p = spans[p][PARENT]
            fit_fidelity_calls += p >= 0
        elif rec[MOD] == "metrics_targets" and rec[NAME] in BEST_FIT:
            fits += 1

    n = max(n_items, 1)

    def self_ms(mod, *names):
        return 1e3 * sum(per_name.get((mod, nm), (0.0, 0))[0] for nm in names) / n

    def calls(mod, name):
        return per_name.get((mod, name), (0.0, 0))[1] / n

    out = {f"{m}.self_ms": 1e3 * per_mod[m][0] / n for m in MODULES}
    out.update({f"{m}.incl_ms": 1e3 * incl[m] / n for m in MODULES})
    out.update({f"{m}.calls": per_mod[m][1] / n for m in ("pulse_dynamics",
                                                          "gaussian_core")})
    for name in ("subtract_photon", "amplify_wigner", "apply_linear_map",
                 "project_XC", "evaluate_grid", "wigner_negativity"):
        out[f"phase_space.{name}.self_ms"] = self_ms("phase_space", name)
    out["phase_space.subtract_photon.calls"] = calls("phase_space", "subtract_photon")
    out["phase_space.poly_terms_peak"] = max(terms, default=0)
    out["phase_space.poly_degree_peak"] = max(degree, default=0)
    out["phase_space.poly_terms_per_op"] = sum(terms) / len(terms) if terms else 0.0
    for name in ("fidelity", "score_state", "cat_fit"):
        out[f"metrics_targets.{name}.self_ms"] = self_ms("metrics_targets", name)
    out["metrics_targets.best_fit.self_ms"] = self_ms("metrics_targets", *BEST_FIT)
    out["metrics_targets.fidelity.calls"] = calls("metrics_targets", "fidelity")
    out["metrics_targets.fidelity_per_fit"] = fit_fidelity_calls / fits if fits else 0.0
    for name in ("build_entangled_state", "wigner_from_density"):
        out[f"fock_oracle.{name}.self_ms"] = self_ms("fock_oracle", name)
    out["fock_oracle.channels.self_ms"] = self_ms("fock_oracle", *ORACLE_CHANNELS)
    out["fock_oracle.state_bytes_peak"] = max(oracle_bytes, default=0)
    out["cli.run.self_ms"] = self_ms("cli", "run")
    for name in ("eps_pipeline", "four_cat_pipeline"):
        out[f"state_synthesis.{name}.self_ms"] = self_ms("state_synthesis", name)
    out["bench.unspanned_ms"] = 1e3 * max(item_seconds - top_level, 0.0) / n
    return out


def dump(spans, path) -> None:
    """Write the spans as JSON rows: module, name, start, end, parent, item."""
    with open(path, "w") as fh:
        json.dump({"fields": ["module", "name", "t0", "t1", "parent", "item",
                              "counters"], "spans": spans}, fh)
