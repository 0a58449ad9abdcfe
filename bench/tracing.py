"""Spans and counts recorded from outside the library.

``install`` rebinds public module attributes of ``sandwiched_sde`` so
each call into a layer opens a span (name, start, end, parent id), and
wraps the drift and barrier callables so their calls are counted under
the layer that made them. Spans are kept in memory and written out with
the worker's result; ``layer_metrics`` derives per-layer self times and
counts from them. Nothing here imports the library.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

ROUTES = ("closed_form_cir", "cardano_tsb", "bracketed_generic")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id, name, start, end, attrs]
        self.stack = []
        self.layer = "none"  # layer of the innermost open span
        self.counts = Counter()  # (layer, what) -> calls

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self.stack[-1][0] if self.stack else -1
        record = [len(self.spans), parent, name, time.monotonic(), None, attrs]
        self.spans.append(record)
        self.stack.append(record)
        outer, self.layer = self.layer, name.split(".")[0]
        try:
            yield record
        finally:
            record[4] = time.monotonic()
            self.stack.pop()
            self.layer = outer

    def counts_by_name(self) -> dict:
        return {f"{layer}:{what}": n for (layer, what), n in self.counts.items()}

    def counting(self, fn, what: str):
        """fn, counting its calls under the layer of the innermost open span."""
        counts = self.counts

        def counted(*args):
            counts[self.layer, what] += 1
            return fn(*args)
        return counted


def install(tracer: Tracer, cli, config, model, noise, solver, analysis):
    """Wrap the layer entry points; returns a function that undoes it."""
    saved = []

    def rebind(module, name, new):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def spanned(name, fn, attrs=None, after=None):
        def wrapped(*args, **kwargs):
            with tracer.span(name, **(attrs(*args) if attrs else {})) as record:
                result = fn(*args, **kwargs)
                if after:
                    after(record, result)
                return result
        return wrapped

    def load_config(path):
        with tracer.span("config.load"):
            rc = original_load(path)
        drift = rc.config.drift
        drift = replace(drift, b=tracer.counting(drift.b, "drift"),
                        db_dy=tracer.counting(drift.db_dy, "drift"))
        return replace(rc, config=replace(rc.config, drift=drift))

    original_load = config.load_config
    rebind(config, "load_config", load_config)
    rebind(cli, "load_config", load_config)

    for name in ("cir_drift", "tsb_drift", "power_sandwich_drift"):
        rebind(model, name, spanned("model.build", getattr(model, name)))
    rebind(model, "bound_constants",
           spanned("model.bound_constants", model.bound_constants))
    for name in ("constant_bound", "sin_bound"):
        make = getattr(model, name)
        rebind(model, name,
               lambda *a, _make=make: tracer.counting(_make(*a), "barrier"))

    def noise_attrs(spec, grid, seed, *rest):
        return {"points": grid.n}

    for module in (noise, cli, analysis):
        rebind(module, "generate_noise",
               spanned("noise.generate", module.generate_noise, noise_attrs))
    rebind(noise, "sample_path", spanned("noise.cholesky_sample", noise.sample_path))
    rebind(noise, "sample_path_fast_fbm",
           spanned("noise.circulant", noise.sample_path_fast_fbm))
    rebind(noise, "covariance_matrix",
           spanned("noise.covariance", noise.covariance_matrix))
    rebind(noise, "holder_constant", spanned("checks.holder", noise.holder_constant))

    def solve_attrs(config, *rest):
        return {"steps": config.grid_points, "generic_calls": 0}

    def record_route(record, path):
        record[5]["route"] = path.stepper

    for module in (solver, cli, analysis):
        rebind(module, "simulate",
               spanned("solver.simulate", module.simulate, solve_attrs, record_route))
    for module in (solver, cli):
        rebind(module, "check_sandwich",
               spanned("checks.sandwich", module.check_sandwich))

    generic = solver.implicit_step_generic

    def implicit_step_generic(*args, **kwargs):
        if tracer.stack and tracer.stack[-1][2] == "solver.simulate":
            tracer.stack[-1][5]["generic_calls"] += 1
        return generic(*args, **kwargs)

    rebind(solver, "implicit_step_generic", implicit_step_generic)
    rebind(cli, "main", spanned("cli.main", cli.main))
    rebind(analysis, "run_convergence_study",
           spanned("analysis.study", analysis.run_convergence_study,
                   lambda spec, *rest: {"reference_n": spec.reference_n}))

    def restore():
        for module, name, value in reversed(saved):
            setattr(module, name, value)

    return restore


def layer_metrics(traces) -> dict:
    """Per-layer metrics from the workers' traces.

    ``traces`` holds one ``{"spans": [...], "counts": {...},
    "bytes_written": n}`` per traced process. Times named ``*_s`` are
    seconds per process; counts are totals over all traced processes.
    """
    procs = max(len(traces), 1)
    incl = Counter()
    self_time = Counter()
    n_spans = Counter()
    counts = Counter()
    route_time, route_steps = Counter(), Counter()
    points = 0
    noise_cold, noise_warm = [], []
    polished = 0
    ref_time = study_time = 0.0
    fallbacks = 0
    bytes_written = 0
    for trace in traces:
        spans = trace["spans"]
        by_id = {s[0]: s for s in spans}
        counts.update(trace["counts"])
        bytes_written += trace.get("bytes_written", 0)
        child_time = Counter()
        children = {}
        for s in spans:
            dur = s[4] - s[3]
            if s[1] >= 0:
                child_time[s[1]] += dur
                children.setdefault(s[1], []).append(s)
        for s in spans:
            sid, parent, name, start, end, attrs = s
            dur = end - start
            incl[name] += dur
            self_time[name] += dur - child_time[sid]
            n_spans[name] += 1
            if name == "noise.generate":
                points += attrs["points"]
                builds = _has_descendant(s, children, "noise.covariance")
                (noise_cold if builds else noise_warm).append(dur)
            elif name == "noise.cholesky_sample" and parent >= 0 \
                    and by_id[parent][2] == "noise.circulant":
                fallbacks += 1
            elif name == "solver.simulate":
                route = attrs.get("route", "unknown")
                route_time[route] += dur
                route_steps[route] += attrs["steps"]
                if route != "bracketed_generic":
                    polished += attrs["generic_calls"]
                if parent >= 0 and by_id[parent][2] == "analysis.study" \
                        and attrs["steps"] == by_id[parent][5]["reference_n"]:
                    ref_time += dur
            elif name == "analysis.study":
                study_time += dur

    steps = sum(route_steps.values())
    closed_steps = route_steps["closed_form_cir"] + route_steps["cardano_tsb"]
    cholesky = n_spans["noise.cholesky_sample"]
    builds = n_spans["noise.covariance"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "config.load_s": (self_time["config.load"] / procs, "s"),
        "model.build_s": ((incl["model.build"] + incl["model.bound_constants"])
                          / procs, "s"),
        "cli.self_s": (self_time["cli.main"] / procs, "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "noise.sample_s": (incl["noise.generate"] / procs, "s"),
        "noise.ns_per_point": (ratio(incl["noise.generate"], points) * 1e9, "ns"),
        "noise.cov_build_s": (incl["noise.covariance"] / procs, "s"),
        "noise.cold_sample_s": (statistics.fmean(noise_cold) if noise_cold else 0.0, "s"),
        "noise.warm_sample_ms": (statistics.median(noise_warm) * 1e3
                                 if noise_warm else 0.0, "ms"),
        "noise.factor_builds": (builds, "count"),
        "noise.cholesky_samples": (cholesky, "count"),
        "noise.cache_hit_ratio": (ratio(cholesky - builds, cholesky), "ratio"),
        "noise.fallbacks": (fallbacks, "count"),
    }
    for route in ROUTES:
        metrics[f"solver.{route}.ns_per_step"] = (
            ratio(route_time[route], route_steps[route]) * 1e9, "ns")
    metrics.update({
        "solver.steps": (steps, "count"),
        "solver.polish_ratio": (ratio(polished, closed_steps), "ratio"),
        "model.drift_evals_per_step": (ratio(counts["solver:drift"], steps), "1/step"),
        "model.barrier_evals_per_step": (ratio(counts["solver:barrier"], steps), "1/step"),
        "checks.sandwich_s": (incl["checks.sandwich"] / procs, "s"),
        "checks.holder_s": (incl["checks.holder"] / procs, "s"),
        "checks.envelope_s": (incl["checks.envelope"] / procs, "s"),
        "analysis.self_s": (self_time["analysis.study"] / procs, "s"),
        "analysis.ref_solve_share": (ratio(ref_time, study_time), "ratio"),
    })
    return metrics


def _has_descendant(span, children, name) -> bool:
    stack = list(children.get(span[0], ()))
    while stack:
        s = stack.pop()
        if s[2] == name:
            return True
        stack.extend(children.get(s[0], ()))
    return False
