"""Command-line interface.

Subcommands: validate, simulate, noise, convergence. Exit codes:
0 success, 1 domain or validation failure, 2 usage or parse error.
All outputs are deterministic given the config and seeds (and, for
noise sampled through a Cholesky factor, the BLAS thread count); files
are written to a temporary name and renamed on success.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager

import numpy as np

from . import __version__, noise
from .analysis import ConvergenceStudySpec, run_convergence_study
from .config import ConfigError, load_config
from .model import max_mesh, mesh_terms, validate_assumptions
from .noise import _symmetric_rows, generate_noise, sample_path
from .solver import STEPPERS, StepError, check_sandwich, simulate

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


@contextmanager
def _atomic_file(path: str):
    """A text file written under a temporary name and renamed on success."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def _csv_lines(rows) -> list:
    # One line per row of Python floats; repr round-trips every value.
    return [",".join(map(repr, row)) for row in rows]


def _column(values):
    """The CSV text of each value of one column, as an iterator."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def _csv_text(header: str, columns) -> str:
    # columns: iterables of formatted values (see _column); a list of them
    # can be shared by several files.
    return "\n".join([header, *map(",".join, zip(*columns, strict=True))]) + "\n"


def _csv(header: str, columns) -> str:
    return _csv_text(header, [_column(c) for c in columns])


# Values per block of the covariance dump: bounds the Python objects the
# dump holds at once, whatever the grid size.
_DUMP_BLOCK = 1 << 15


def _out_dir(args, run_config) -> str:
    return args.out or run_config.out_dir or "."


def cmd_validate(args) -> int:
    rc = load_config(args.config)
    report = validate_assumptions(rc.config)
    print(report)
    print(f"max admissible mesh: {max_mesh(rc.config):.6g} "
          f"(configured mesh {rc.config.mesh:.6g})")
    binding = max(mesh_terms(rc.config).items(), key=lambda kv: kv[1])
    print(f"binding mesh term: {binding[0]} = {binding[1]:.6g}")
    return EXIT_OK if report.all_pass else EXIT_FAILURE


def cmd_simulate(args) -> int:
    rc = load_config(args.config)
    seed0 = args.seed if args.seed is not None else rc.seed
    stepper = args.stepper or rc.stepper
    tol = args.tol if args.tol is not None else rc.tol
    out = _out_dir(args, rc)
    written = []
    manifest = {"version": __version__, "config": os.path.abspath(args.config),
                "stepper": stepper, "tol": tol, "paths": []}
    # Every path shares the grid, so its column is formatted once.
    t_column = list(_column(rc.config.grid.points))
    try:
        for i in range(rc.paths):
            seed = seed0 + i
            start = time.perf_counter()
            noise_path = generate_noise(rc.driver, rc.config.grid, seed)
            path = simulate(rc.config, noise_path, stepper=stepper, tol=tol)
            elapsed = time.perf_counter() - start
            report = check_sandwich(path, rc.config)
            name = os.path.join(out, f"path_{seed}.csv")
            _atomic_write(name, _csv_text("t,y", (t_column, _column(path.values))))
            written.append(name)
            manifest["paths"].append({
                "seed": seed, "file": os.path.basename(name),
                "stepper": path.stepper,
                "max_residual": float(np.max(path.residuals)),
                "sandwich_ok": report.strict_ok,
                "wall_time_seconds": elapsed,
            })
            if not report.strict_ok:
                raise StepError(f"sandwich violated at indices "
                                f"{report.violations[:5]} (seed {seed})")
    except (StepError, ValueError) as exc:
        for name in written:
            if os.path.exists(name):
                os.unlink(name)
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _atomic_write(os.path.join(out, "manifest.json"),
                  json.dumps(manifest, indent=2) + "\n")
    if args.gnuplot:
        files = " ".join(f"'{os.path.basename(n)}' using 1:2 with lines notitle,"
                         for n in written)
        _atomic_write(os.path.join(out, "plot.gp"),
                      f"set xlabel 't'\nset ylabel 'y'\nplot {files.rstrip(',')}\n")
    print(f"wrote {len(written)} path file(s) and manifest.json to {out}")
    return EXIT_OK


def cmd_noise(args) -> int:
    rc = load_config(args.config)
    seed = args.seed if args.seed is not None else rc.seed
    out = _out_dir(args, rc)
    grid = rc.config.grid

    def write_noise(noise_path):
        _atomic_write(os.path.join(out, f"noise_{seed}.csv"),
                      _csv("t,z", (noise_path.grid.points, noise_path.values)))

    if not args.cov:
        write_noise(generate_noise(rc.driver, grid, seed))
    else:
        # Called through the module: wrappers of noise.covariance_matrix see it.
        cov = noise.covariance_matrix(rc.driver, grid)
        step = max(1, _DUMP_BLOCK // grid.n)
        with _atomic_file(os.path.join(out, f"cov_{seed}.csv")) as fh:
            # The whole dump is written before the sample factors cov in
            # place; the noise file is written before the dump is renamed.
            for rows in _symmetric_rows(cov, grid.n):
                for r0 in range(0, len(rows), step):
                    fh.write("\n".join(_csv_lines(rows[r0:r0 + step].tolist())) + "\n")
            write_noise(sample_path(rc.driver, grid, seed, cov=cov))
    print(f"wrote noise_{seed}.csv to {out}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    rc = load_config(args.config)
    lam = rc.config.drift.bounds.holder_exponent
    spec = ConvergenceStudySpec(
        config=rc.config, driver=rc.driver, mesh_list=args.meshes,
        reference_n=args.ref, paths=args.paths, r=args.r,
        seed_base=args.seed if args.seed is not None else rc.seed,
        lam_expected=lam, stepper=args.stepper or rc.stepper,
        tol=args.tol if args.tol is not None else rc.tol)
    report = run_convergence_study(spec)
    out = _out_dir(args, rc)
    _atomic_write(os.path.join(out, "convergence.json"), report.to_json() + "\n")
    rows = report.per_mesh
    _atomic_write(os.path.join(out, "convergence.csv"), _csv(
        "N,delta,mean_err,stderr",
        ([m.n for m in rows], [m.delta for m in rows],
         [m.mean_error_r for m in rows],
         [m.stderr if m.stderr is not None else float("nan") for m in rows])))
    _atomic_write(os.path.join(out, "loglog.dat"), _csv(
        "log_delta,log_err",
        (np.log([m.delta for m in rows]),
         np.log([m.mean_error_r for m in rows]) / report.r)))
    print(f"fitted slope: {report.slope:.4f}"
          + (f" +/- {report.slope_stderr:.4f}" if report.slope_stderr else
             " (stderr unavailable with a single path)"))
    print(f"expected rate lambda: {lam:.4f}")
    return EXIT_OK


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return int(text)


def _meshes(text: str) -> tuple:
    meshes = tuple(map(_positive_int, text.split(",")))
    if len(set(meshes)) != len(meshes):
        raise argparse.ArgumentTypeError(f"entries must be distinct: {text!r}")
    return meshes


def _tol(text: str) -> float:
    if not 0.0 < float(text) < np.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite: {text!r}")
    return float(text)


def _moment_order(text: str) -> float:
    if not 1.0 <= float(text) < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and at least 1: {text!r}")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sandwiched-sde",
        description="Backward Euler simulation of sandwiched SDEs with "
                    "Holder-continuous Gaussian noise.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--tol", type=_tol, default=None)
        p.add_argument("--stepper", choices=STEPPERS, default=None)

    p = sub.add_parser("validate", help="check the sandwich assumptions")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="simulate sample paths to CSV")
    common(p)
    p.add_argument("--gnuplot", action="store_true",
                   help="also emit a gnuplot script")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("noise", help="dump a driver sample path to CSV")
    common(p)
    p.add_argument("--cov", action="store_true",
                   help="also dump the covariance matrix")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("convergence", help="run a nested-grid rate study")
    common(p)
    p.add_argument("--meshes", type=_meshes, required=True,
                   help="comma-separated coarse step counts")
    p.add_argument("--ref", type=_positive_int, required=True,
                   help="reference step count")
    p.add_argument("--paths", type=_positive_int, default=100)
    p.add_argument("--r", type=_moment_order, default=1.0, help="moment order")
    p.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, StepError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
