"""Benchmark of sandwiched-sde: workloads, end-to-end metrics, per-layer trace.

    python3 bench/run.py --workload cli_fbm_closed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke              # every workload at toy sizes
    python3 bench/run.py --record-reference   # rewrite bench/reference.json

A run repeats units of its workload in a closed loop, each part of a unit
in a fresh worker process (``worker.py``), until ``--seconds`` have
passed. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs the same units untraced and traced in turn and
prints the per-layer metrics. Every output is checked; the last line of
standard output is one JSON object, and the exit code is 0 only when
every check passed. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src", "sandwiched_sde")
REFERENCE = os.path.join(BENCH, "reference.json")
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


class Runner:
    """Starts worker processes for units of one workload and collects results."""

    def __init__(self, tmp: str, smoke: bool):
        self.tmp = tmp
        self.smoke = smoke
        self.started = time.monotonic()
        n = str(threads())
        self.env = dict(os.environ, OMP_NUM_THREADS=n, OPENBLAS_NUM_THREADS=n,
                        MKL_NUM_THREADS=n)

    def spawn(self, job: dict) -> dict:
        job["result"] = os.path.join(job["tmp"], "result.json")
        os.makedirs(job["tmp"])
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        try:
            job["spawn_t"] = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(job)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(remaining, 1.0))
            if proc.returncode != 0:
                return {"crashed": f"exit {proc.returncode}: {proc.stderr[-600:]}"}
            with open(job["result"]) as fh:
                return json.load(fh)
        except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
            return {"crashed": f"{type(exc).__name__}: {exc}"}
        finally:
            shutil.rmtree(job["tmp"], ignore_errors=True)

    def unit(self, name: str, seed: int, unit: int, traced: bool, canary: bool):
        results = []
        for p, part in enumerate(workloads.WORKLOADS[name]["parts"]):
            job = dict(part, seed0=workloads.unit_seed(seed, unit) + 500 * p,
                       traced=traced, canary=canary, smoke=self.smoke,
                       tmp=os.path.join(self.tmp, f"u{unit}-p{p}-{'t' if traced else 'u'}"))
            result = self.spawn(job)
            if "crashed" in result or "steps" not in result:
                planned = planned_paths(part, self.smoke)
                result = {"attempted": planned, "failed": planned,
                          "problems": [f"{name} unit {unit} part {p} worker failed: "
                                       f"{result.get('crashed', 'no result')}"]}
            results.append(result)
        return results


def planned_paths(part: dict, smoke: bool) -> int:
    s = workloads.SMOKE
    if part["kind"] == "cli":
        if smoke:
            return s["cli_paths"]
        with open(os.path.join(BENCH, "configs", part["config"])) as fh:
            return int(json.load(fh)["run"]["paths"])
    if part["kind"] == "study":
        return sum(s["study_paths"] if smoke else f["paths"] for f in part["families"])
    return len(part["families"]) * (s["envelope_paths"] if smoke else part["paths"])


def run_checks(results) -> tuple:
    """Checks over all units of a run: pooled slopes, pooled envelope
    containment and agreement with the recorded reference values."""
    problems = []
    pooled, contained = {}, {}
    canary = {}
    for r in results:
        for name, study in r.get("study", {}).items():
            acc = pooled.setdefault(name, [0, None, study["deltas"]])
            acc[0] += study["paths"]
            weighted = [m * study["paths"] for m in study["means"]]
            acc[1] = weighted if acc[1] is None else [a + b for a, b in zip(acc[1], weighted)]
        for name, (inside, total) in r.get("envelope", {}).items():
            acc = contained.setdefault(name, [0, 0])
            acc[0] += inside
            acc[1] += total
        canary.update(r.get("canary", {}))
    slopes = {}
    for name, (paths, sums, deltas) in pooled.items():
        slopes[name] = checks.fitted_slope(deltas, [v / paths for v in sums])
        problems.append(checks.slope_problem(name, slopes[name]))
    for name, (inside, total) in contained.items():
        problems.append(checks.containment_problem(name, inside, total))
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    if not canary:
        problems.append("no reference values were computed")
    problems.extend(checks.reference_problems(canary, reference))
    summary = {"slopes": slopes, "containment": contained,
               "reference_values": len(canary)}
    return problems, len(pooled) + len(contained) + 1, summary


def end_to_end(results) -> tuple:
    timed = [r for r in results if "steps" in r]
    samples = [ms for r in timed for ms in r["path_ms"]]
    if not samples:
        return {}, {}
    tail, pct, n = checks.tail(samples)
    work = sum(r["work_s"] for r in timed)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in timed), "s"),
        "path_steps_per_s": (sum(r["steps"] for r in timed) / work, "steps/s"),
        "path_ms.p50": (statistics.median(samples), "ms"),
        "path_ms.tail": (tail, "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in timed), "MB"),
    }
    return metrics, {"tail_percentile": pct, "path_samples": n,
                     "processes": len(timed)}


def throughput(results) -> float:
    timed = [r for r in results if "steps" in r]
    work = sum(r["work_s"] for r in timed)
    return sum(r["steps"] for r in timed) / work if work else 0.0


def provenance(results) -> dict:
    versions = next((r["versions"] for r in results if "versions" in r), {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {"git_commit": git_commit(), "src_sha256": digest.hexdigest()[:16],
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": threads(), **versions}


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: bool):
    """Untraced units until ``seconds`` pass, or with ``trace`` a fixed number of
    (untraced, traced) unit pairs so the trace counts repeat exactly."""
    plain, traced = [], []
    if trace:
        pairs = max(1, round(seconds / (2.2 * workloads.WORKLOADS[name]["unit_s"])))
        for u in range(pairs):
            plain += runner.unit(name, seed, u, traced=False, canary=u == 0)
            traced += runner.unit(name, seed, u, traced=True, canary=False)
    else:
        walls = []
        # Start another unit only if it should end within ``seconds``.
        while not walls or (time.monotonic() - runner.started
                            + statistics.fmean(walls) <= seconds):
            start = time.monotonic()
            plain += runner.unit(name, seed, len(walls), traced=False,
                                 canary=not walls)
            walls.append(time.monotonic() - start)
    return plain, traced


def report(name, seed, args, plain, traced) -> dict:
    results = plain + traced
    problems, run_level, summary = run_checks(results)
    problems = [p for p in problems if p]
    attempted = sum(r["attempted"] for r in results) + run_level
    failed = sum(r["failed"] for r in results) + len(problems)
    problems = [p for r in results for p in r.get("problems", [])] + problems
    metrics, shape = end_to_end(plain)
    printed = dict(metrics)
    if traced:
        layer = tracing.layer_metrics([r["trace"] for r in traced if "trace" in r])
        untraced = throughput(plain)
        layer["trace.overhead_ratio"] = (
            throughput(traced) / untraced if untraced else 0.0, "ratio")
        metrics = layer
        printed.update(layer)
    for metric, (value, unit) in printed.items():
        print(f"{name}  {metric:36s} {value:14.6g} {unit}")
    print(f"{name}  {'failed_ratio':36s} {failed:>7d} / {attempted} "
          f"= {failed / attempted:.4g}")
    for p in problems[:10]:
        print(f"{name}  FAILED: {p}")
    detail = {"workload": name, "seed": seed, "seconds": args.seconds,
              "trace": int(bool(traced)),
              "failed_ratio": failed / attempted, **shape, **summary,
              "provenance": provenance(results)}
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.smoke or args.record_reference):
        parser.error("give --workload, --smoke or --record-reference")
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"bench: no sandwiched_sde sources under {os.path.dirname(SRC)}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    tmp = os.path.join(ROOT, ".bench_tmp", f"{os.getpid()}")
    try:
        runner = Runner(tmp, smoke=args.smoke)
        if args.record_reference:
            result = runner.spawn({"kind": "canaries", "tmp": os.path.join(tmp, "ref")})
            if "canary" not in result:
                print(f"bench: recording failed: {result}", file=sys.stderr)
                return 1
            with open(REFERENCE, "w") as fh:
                json.dump(result["canary"], fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote {len(result['canary'])} reference entries to {REFERENCE}")
            return 0
        if args.smoke:
            ok = True
            for name in workloads.WORKLOADS:
                plain = runner.unit(name, args.seed, 0, traced=False, canary=True)
                traced = runner.unit(name, args.seed, 0, traced=True, canary=False)
                outcome = report(name, args.seed, args, plain, traced)
                ok = ok and outcome["correct"]
            print(json.dumps({"smoke_ok": ok}))
            return 0 if ok else 1
        plain, traced = run_workload(runner, args.workload, args.seed,
                                     args.seconds, bool(args.trace))
        outcome = report(args.workload, args.seed, args, plain, traced)
        print(json.dumps(outcome))
        return 0 if outcome["correct"] else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
