"""One benchmark process: set up one part of a unit, run it, check its outputs.

Started by ``run.py`` as ``python3 bench/worker.py '<job json>'``; writes
its result as JSON to ``job["result"]``. Set-up time runs from the
parent's spawn time to the first noise draw. Per-path latencies come
from a timestamp taken at each noise draw, the one hook the untraced run
places. Outputs are checked after the timed work, against the oracle in
``checks.py``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

import checks
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CONFIGS = os.path.join(BENCH, "configs")


class Library:
    """The sandwiched_sde modules of this checkout, imported from src/."""

    def __init__(self):
        src = os.path.join(ROOT, "src")
        sys.path.insert(0, src)
        from sandwiched_sde import analysis, cli, config, model, noise, solver
        if not os.path.abspath(cli.__file__).startswith(src + os.sep):
            raise ImportError(f"sandwiched_sde imported from {cli.__file__}, not {src}")
        self.analysis, self.cli, self.config = analysis, cli, config
        self.model, self.noise, self.solver = model, noise, solver

    def modules(self) -> dict:
        return {name: getattr(self, name) for name in
                ("cli", "config", "model", "noise", "solver", "analysis")}


class Part:
    """Timing and check bookkeeping shared by the part kinds."""

    def __init__(self, job, lib):
        self.job, self.lib = job, lib
        self.smoke = job["smoke"]
        self.tracer = tracing.Tracer() if job["traced"] else None
        self._restore = None
        self.ready = self.end = None
        self.path_ms, self.steps = [], 0
        self.attempted = self.failed = 0
        self.problems = []
        self.extra = {}
        self.rss_mb = 0.0

    def config_path(self, name: str) -> str:
        path = os.path.join(CONFIGS, name)
        if not self.smoke:
            return path
        with open(path) as fh:
            data = json.load(fh)
        data["run"]["N"] = workloads.SMOKE["N"]
        data["run"]["paths"] = workloads.SMOKE["cli_paths"]
        small = os.path.join(self.job["tmp"], name)
        with open(small, "w") as fh:
            json.dump(data, fh)
        return small

    def start_trace(self):
        if self.tracer is not None:
            self._restore = tracing.install(self.tracer, **self.lib.modules())

    def stop_trace(self):
        """Ends the timed work: undoes tracing and notes peak memory so far."""
        self.end = time.monotonic()
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self._restore is not None:
            self._restore()
            self._restore = None

    def span(self, name):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def record_path(self, ok: bool, problem: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def latencies(self, stamps, end):
        marks = list(stamps) + [end]
        self.path_ms.extend((b - a) * 1e3 for a, b in zip(marks, marks[1:]))


def stamp_hook(module, name, stamps, captured=None):
    """Rebind module.name so each call is timestamped (and its arguments and
    result kept for checking); returns the original."""
    original = getattr(module, name)

    def hooked(*args, **kwargs):
        stamps.append(time.monotonic())
        result = original(*args, **kwargs)
        if captured is not None:
            captured.append((args, result))
        return result

    setattr(module, name, hooked)
    return original


def run_cli(part: Part):
    lib, job = part.lib, part.job
    cfg_path = part.config_path(job["config"])
    with open(cfg_path) as fh:
        data = json.load(fh)
    n, paths = int(data["run"]["N"]), int(data["run"]["paths"])
    seeds = list(range(job["seed0"], job["seed0"] + paths))
    out = os.path.join(job["tmp"], "out")
    stamps = []
    raw_noise = stamp_hook(lib.cli, "generate_noise", stamps)
    part.start_trace()
    code = lib.cli.main(["simulate", "--config", cfg_path, "--seed", str(seeds[0]),
                         "--out", out])
    end = time.monotonic()
    part.stop_trace()
    lib.cli.generate_noise = raw_noise
    part.ready = stamps[0] if stamps else end
    part.latencies(stamps, end)
    part.steps = n * len(stamps)
    part.extra["bytes_written"] = sum(
        os.path.getsize(os.path.join(out, f"path_{s}.csv")) for s in seeds
        if os.path.isfile(os.path.join(out, f"path_{s}.csv")))

    problems = checks.cli_output_problems(out, seeds)
    if code != 0 or problems:
        for seed in seeds:
            part.record_path(False, f"{job['config']} seed {seed}: exit code {code}; "
                                    + "; ".join(problems[:3]))
        return
    rc = lib.config.load_config(cfg_path)
    oracle = checks.ModelOracle(data["model"])
    grid = rc.config.grid
    for i, seed in enumerate(seeds):
        t, y = checks.read_path_csv(os.path.join(out, f"path_{seed}.csv"))
        noise_path = lib.noise.generate_noise(rc.driver, grid, seed)
        why = path_problems(oracle, grid.points, t, y, noise_path.values, rc.tol,
                            rc.config.drift.b)
        if i == 0 and not why:
            rerun = lib.solver.simulate(rc.config, noise_path, stepper=rc.stepper,
                                        tol=rc.tol)
            if not (rerun.values == y).all():
                why = "library re-run differs from the CSV values"
        part.record_path(not why, f"{job['config']} seed {seed}: {why}")
    if job["canary"]:
        part.extra["canary"] = canary_path(lib, cfg_path)


def path_problems(oracle, grid_points, t, y, noise_values, tol, exact_drift) -> str:
    if len(y) != len(grid_points) or not (t == grid_points).all():
        return f"{len(y)} values on the wrong grid"
    bad = checks.sandwich_violations(oracle, t, y)
    if bad:
        return f"{bad} grid points on or beyond a barrier"
    bad = checks.residual_violations(oracle, t, y, noise_values, tol, exact_drift)
    if bad:
        return f"{bad} steps above the residual tolerance"
    return ""


def run_study(part: Part):
    lib, job = part.lib, part.job
    meshes = workloads.SMOKE["study_meshes"] if part.smoke else workloads.MESHES
    ref_n = workloads.SMOKE["study_reference_n"] if part.smoke else workloads.REFERENCE_N
    stamps, solves = [], []
    raw_noise = stamp_hook(lib.analysis, "generate_noise", stamps)
    raw_simulate = stamp_hook(lib.analysis, "simulate", [], solves)
    part.start_trace()
    studies = []
    for fam in job["families"]:
        rc = lib.config.load_config(os.path.join(CONFIGS, fam["config"]))
        paths = workloads.SMOKE["study_paths"] if part.smoke else fam["paths"]
        spec = lib.analysis.ConvergenceStudySpec(
            config=rc.config, driver=rc.driver, mesh_list=meshes, reference_n=ref_n,
            paths=paths, seed_base=job["seed0"] + fam["seed_offset"],
            lam_expected=rc.config.drift.bounds.holder_exponent)
        studies.append((fam["config"], rc, spec))
    part.ready = time.monotonic()
    reports = []
    for _, _, spec in studies:
        first = len(stamps)
        reports.append(lib.analysis.run_convergence_study(spec))
        part.latencies(stamps[first:], time.monotonic())
    part.stop_trace()
    lib.analysis.generate_noise, lib.analysis.simulate = raw_noise, raw_simulate

    by_seed = {}
    for (cfg, noise_path, *_), path in solves:
        by_seed.setdefault(noise_path.seed, []).append((cfg, noise_path, path))
    part.extra["study"] = {}
    for (name, rc, spec), report in zip(studies, reports):
        oracle = checks.ModelOracle.from_file(os.path.join(CONFIGS, name))
        part.steps += spec.paths * (spec.reference_n + sum(spec.mesh_list))
        for m in range(spec.paths):
            seed = spec.seed_base + m
            runs = by_seed.get(seed, [])
            why = "" if len(runs) == 1 + len(meshes) else f"{len(runs)} solves recorded"
            for cfg, noise_path, path in runs:
                why = why or path_problems(oracle, cfg.grid.points, path.grid.points,
                                           path.values, noise_path.values, spec.tol,
                                           cfg.drift.b)
            if m == 0 and not why:
                cfg, _, path = runs[0]
                rerun = lib.solver.simulate(
                    cfg, lib.noise.generate_noise(rc.driver, cfg.grid, seed))
                if not (rerun.values == path.values).all():
                    why = "reference re-run is not bitwise identical"
            part.record_path(not why, f"study {name} seed {seed}: {why}")
        part.extra["study"][name] = {
            "paths": spec.paths,
            "deltas": [m.delta for m in report.per_mesh],
            "means": [m.mean_error_r for m in report.per_mesh],
            "slope": report.slope,
        }
    if job["canary"]:
        part.extra["canary"] = {}
        for name, _, _ in studies:
            part.extra["canary"].update(canary_study(lib, os.path.join(CONFIGS, name)))


def run_envelope(part: Part):
    lib, job = part.lib, part.job
    n = workloads.SMOKE["N"] if part.smoke else workloads.ENVELOPE_N
    paths = workloads.SMOKE["envelope_paths"] if part.smoke else job["paths"]
    part.start_trace()
    families = []
    for fam in job["families"]:
        rc = lib.config.load_config(os.path.join(CONFIGS, fam["config"]))
        cfg = replace(rc.config, grid_points=n)
        lam = cfg.drift.bounds.holder_exponent
        bc = lib.model.bound_constants(cfg)
        denom = cfg.drift.gamma * lam + lam - 1.0
        tt = cfg.grid.points
        lo = np.asarray(cfg.drift.bounds.phi(tt), float)
        hi = None if cfg.drift.bounds.psi is None else \
            np.asarray(cfg.drift.bounds.psi(tt), float)
        families.append((fam, rc, cfg, lam, bc, denom, lo, hi))
    part.ready = time.monotonic()
    kept = []
    contained = {fam["config"]: 0 for fam in job["families"]}
    # Families take turns block by block, so each family's latencies sample
    # the whole run. A latency sample is the mean time per path over one
    # block: single 3-30 ms paths are shorter than the speed swings of a
    # shared machine, and a batched solver only has per-block times.
    block = workloads.ENVELOPE_BLOCK
    for first in range(0, paths, block):
        for fam, rc, cfg, lam, bc, denom, lo, hi in families:
            count = min(block, paths - first)
            start = time.monotonic()
            for i in range(first, first + count):
                seed = job["seed0"] + fam["seed_offset"] + i
                noise_path = lib.noise.generate_noise(rc.driver, cfg.grid, seed)
                path = lib.solver.simulate(cfg, noise_path)
                report = lib.solver.check_sandwich(path, cfg)
                lam_hat = lib.noise.holder_constant(noise_path, lam)
                with part.span("checks.envelope"):
                    margin = bc.L1 / (bc.L2 + lam_hat) ** (1.0 / denom)
                    inside = np.all(path.values >= lo + margin)
                    if hi is not None:
                        inside = inside and np.all(path.values <= hi - margin)
                    else:
                        inside = inside and np.all(path.values <= bc.L3 + bc.L4 * lam_hat)
                contained[fam["config"]] += bool(inside)
                kept.append((fam, rc, cfg, noise_path, path, report.strict_ok))
            part.path_ms.append((time.monotonic() - start) * 1e3 / count)
    part.extra["envelope"] = {name: [k, paths] for name, k in contained.items()}
    part.stop_trace()
    part.steps = n * paths * len(families)

    first = set()
    for fam, rc, cfg, noise_path, path, strict_ok in kept:
        oracle = checks.ModelOracle.from_file(os.path.join(CONFIGS, fam["config"]))
        why = "" if strict_ok else "check_sandwich reports a violation"
        why = why or path_problems(oracle, cfg.grid.points, path.grid.points,
                                   path.values, noise_path.values, 1e-12,
                                   cfg.drift.b)
        if fam["config"] not in first and not why:
            first.add(fam["config"])
            rerun = lib.solver.simulate(
                cfg, lib.noise.generate_noise(rc.driver, cfg.grid, noise_path.seed))
            if not (rerun.values == path.values).all():
                why = "re-run is not bitwise identical"
        part.record_path(not why, f"envelope {fam['config']} seed {noise_path.seed}: {why}")
    if job["canary"]:
        part.extra["canary"] = {}
        for fam in job["families"]:
            part.extra["canary"].update(
                canary_path(lib, os.path.join(CONFIGS, fam["config"])))


def canary_path(lib, cfg_path: str) -> dict:
    """Fixed-seed N=256 path of a config, compared against reference.json."""
    rc = lib.config.load_config(cfg_path)
    cfg = replace(rc.config, grid_points=workloads.ENVELOPE_N)
    noise_path = lib.noise.generate_noise(rc.driver, cfg.grid, workloads.CANARY_SEED)
    path = lib.solver.simulate(cfg, noise_path)
    return {f"path:{os.path.basename(cfg_path)}": [float(v) for v in path.values[::32]]}


def canary_study(lib, cfg_path: str) -> dict:
    """Fixed-seed one-path convergence study of a config."""
    rc = lib.config.load_config(cfg_path)
    spec = lib.analysis.ConvergenceStudySpec(
        config=rc.config, driver=rc.driver, mesh_list=(64, 128, 256),
        reference_n=2048, paths=1, seed_base=workloads.CANARY_SEED)
    report = lib.analysis.run_convergence_study(spec)
    return {f"study:{os.path.basename(cfg_path)}":
            [m.mean_error_r for m in report.per_mesh + report.inverse_distance]}


def canaries(lib) -> dict:
    """Every canary value, for recording reference.json."""
    values = {}
    for name in sorted(os.listdir(CONFIGS)):
        values.update(canary_path(lib, os.path.join(CONFIGS, name)))
    for name in ("cir_fbm.json", "tsb_fbm.json"):
        values.update(canary_study(lib, os.path.join(CONFIGS, name)))
    return values


KINDS = {"cli": run_cli, "study": run_study, "envelope": run_envelope}


def main(argv) -> int:
    job = json.loads(argv[1])
    lib = Library()
    import scipy
    result = {"versions": {"python": platform.python_version(),
                           "numpy": np.__version__, "scipy": scipy.__version__}}
    if job["kind"] == "canaries":
        result["canary"] = canaries(lib)
    else:
        part = Part(job, lib)
        KINDS[job["kind"]](part)
        result.update(
            setup_s=part.ready - job["spawn_t"],
            work_s=part.end - part.ready,
            steps=part.steps,
            path_ms=part.path_ms,
            rss_mb=part.rss_mb,
            attempted=part.attempted,
            failed=part.failed,
            problems=part.problems[:20],
            **part.extra,
        )
        if part.tracer is not None:
            result["trace"] = {"spans": part.tracer.spans,
                               "counts": part.tracer.counts_by_name(),
                               "bytes_written": part.extra.get("bytes_written", 0)}
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
