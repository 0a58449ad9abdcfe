"""Empirical strong-convergence studies for the backward Euler scheme.

The exact solution is unknown for these SDEs, so a fine-grid run of the
same scheme (the reference mesh) stands in for it; coarse runs are
coupled to the reference by restricting the very same noise realization
to nested grids. Errors are measured in the sup norm over the fine grid
with the coarse path extended piecewise constantly, means of error^r are
fitted against the mesh on log-log scale, and jackknife resampling over
paths supplies a standard error for the fitted rate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import SandwichConfig, ckls_transform
from .noise import GaussianDriverSpec, NoisePath, TimeGrid, generate_noise, \
    restrict_to_coarse
from .solver import SimulatedPath, simulate

__all__ = [
    "ConvergenceStudySpec",
    "MeshErrors",
    "ConvergenceReport",
    "sup_error",
    "inverse_distance_error",
    "run_convergence_study",
    "verify_ckls",
]


@dataclass(frozen=True)
class ConvergenceStudySpec:
    """Shape of a nested-grid strong-error study."""

    config: SandwichConfig  # grid_points is reinterpreted per mesh below
    driver: GaussianDriverSpec
    mesh_list: tuple
    reference_n: int
    paths: int
    r: float = 1.0
    seed_base: int = 0
    lam_expected: Optional[float] = None
    stepper: str = "auto"
    tol: float = 1e-12

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("need at least one Monte Carlo path")
        if self.r < 1.0:
            raise ValueError("moment order r must be at least 1")
        meshes = tuple(sorted(int(n) for n in self.mesh_list))
        if len(set(meshes)) != len(meshes):
            raise ValueError("mesh_list entries must be distinct")
        object.__setattr__(self, "mesh_list", meshes)
        for n in meshes:
            if self.reference_n % n != 0:
                raise ValueError(f"mesh N={n} does not divide "
                                 f"reference N={self.reference_n}")
        if self.reference_n < 8 * max(meshes):
            raise ValueError("reference grid must be at least 8x the finest mesh")


@dataclass(frozen=True)
class MeshErrors:
    n: int
    delta: float
    mean_error_r: float
    stderr: Optional[float]


@dataclass(frozen=True)
class ConvergenceReport:
    per_mesh: tuple
    slope: float
    slope_stderr: Optional[float]
    r: float
    lam_expected: Optional[float]
    inverse_distance: Optional[tuple]
    inverse_distance_slope: Optional[float]

    def to_dict(self) -> dict:
        def rows(per_mesh):
            return [{"N": m.n, "delta": m.delta, "mean_err": m.mean_error_r,
                     "stderr": m.stderr} for m in per_mesh]

        return {
            "r": self.r,
            "lambda_expected": self.lam_expected,
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "per_mesh": rows(self.per_mesh),
            "inverse_distance_slope": self.inverse_distance_slope,
            "inverse_distance": None if self.inverse_distance is None
            else rows(self.inverse_distance),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def sup_error(coarse: SimulatedPath, reference: SimulatedPath) -> float:
    """Sup over the fine grid of |reference - coarse| with the coarse path
    extended piecewise constantly onto the fine grid."""
    if reference.grid.horizon != coarse.grid.horizon:
        raise ValueError("paths live on different horizons")
    if reference.grid.n % coarse.grid.n != 0:
        raise ValueError("coarse grid does not nest in the reference grid")
    factor = reference.grid.n // coarse.grid.n
    extended = np.repeat(coarse.values[:-1], factor)
    extended = np.append(extended, coarse.values[-1])
    return float(np.max(np.abs(reference.values - extended)))


def inverse_distance_error(coarse: SimulatedPath, reference: SimulatedPath,
                           bounds) -> tuple:
    """Sup over the coarse grid of the reciprocal barrier-distance gap.

    Compares 1/(Y - phi) between the reference and the coarse path at the
    shared grid points (and symmetrically for psi when present).
    """
    if reference.grid.n % coarse.grid.n != 0:
        raise ValueError("coarse grid does not nest in the reference grid")
    factor = reference.grid.n // coarse.grid.n
    tt = coarse.grid.points
    y_ref = reference.values[::factor]
    y_coarse = coarse.values
    lo, hi = bounds.values(tt)
    sides = (("lower", y_ref - lo, y_coarse - lo), ("upper", hi - y_ref, hi - y_coarse))
    errs = []
    for side, d_ref, d_coarse in sides[:1 + bounds.two_sided]:
        if np.any(d_ref < 1e-300) or np.any(d_coarse < 1e-300):
            raise ValueError(
                f"path touches the {side} barrier; sandwich violated upstream")
        errs.append(float(np.max(np.abs(1.0 / d_ref - 1.0 / d_coarse))))
    return errs[0], errs[1] if bounds.two_sided else None


def _fit_slope(deltas: np.ndarray, means_r: np.ndarray, r: float) -> float:
    # Slope of log(mean(err^r)^(1/r)) against log(delta); dividing by r
    # keeps slopes comparable across moment orders.
    return float(np.polyfit(np.log(deltas), np.log(means_r) / r, 1)[0])


def _jackknife_slope_stderr(deltas, err_r, r) -> Optional[float]:
    m = err_r.shape[0]
    if m < 2:
        return None
    total = err_r.sum(axis=0)
    slopes = np.empty(m)
    for i in range(m):
        loo_mean = (total - err_r[i]) / (m - 1)
        slopes[i] = _fit_slope(deltas, loo_mean, r)
    return float(math.sqrt((m - 1) / m * np.sum((slopes - slopes.mean()) ** 2)))


def run_convergence_study(spec: ConvergenceStudySpec) -> ConvergenceReport:
    """Monte Carlo estimate of the strong rate over nested grids.

    Per path: draw the reference noise, run the scheme at the reference
    mesh and at every coarse mesh on the restricted noise, and collect
    sup errors. Deterministic given the spec (seeds are seed_base + m).
    """
    ref_grid = TimeGrid(horizon=spec.config.horizon, n=spec.reference_n)
    ref_config = replace(spec.config, grid_points=spec.reference_n)
    coarse_configs = [replace(spec.config, grid_points=n)
                      for n in spec.mesh_list]
    n_mesh = len(spec.mesh_list)
    err = np.empty((spec.paths, n_mesh))
    inv_err = np.empty((spec.paths, n_mesh))
    bounds = spec.config.drift.bounds

    for m in range(spec.paths):
        seed = spec.seed_base + m
        ref_noise = generate_noise(spec.driver, ref_grid, seed)
        try:
            reference = simulate(ref_config, ref_noise, stepper=spec.stepper,
                                 tol=spec.tol)
            for j, cfg in enumerate(coarse_configs):
                coarse_noise = restrict_to_coarse(
                    ref_noise, spec.reference_n // cfg.grid_points)
                coarse = simulate(cfg, coarse_noise, stepper=spec.stepper,
                                  tol=spec.tol)
                err[m, j] = sup_error(coarse, reference)
                lo_err, hi_err = inverse_distance_error(coarse, reference, bounds)
                inv_err[m, j] = lo_err if hi_err is None else max(lo_err, hi_err)
        except Exception as exc:
            raise RuntimeError(
                f"path with seed {seed} failed during the study") from exc

    deltas = np.array([spec.config.horizon / n for n in spec.mesh_list])
    powered = [err ** spec.r, inv_err ** spec.r]
    means = [p.mean(axis=0) for p in powered]
    rows = []
    for p, mean in zip(powered, means):
        if spec.paths > 1:
            stderrs = p.std(axis=0, ddof=1) / math.sqrt(spec.paths)
        else:
            stderrs = [None] * n_mesh
        rows.append(tuple(
            MeshErrors(n=n, delta=deltas[j], mean_error_r=float(mean[j]),
                       stderr=None if stderrs[j] is None else float(stderrs[j]))
            for j, n in enumerate(spec.mesh_list)))
    return ConvergenceReport(
        per_mesh=rows[0],
        slope=_fit_slope(deltas, means[0], spec.r),
        slope_stderr=_jackknife_slope_stderr(deltas, powered[0], spec.r),
        r=spec.r,
        lam_expected=spec.lam_expected,
        inverse_distance=rows[1],
        inverse_distance_slope=_fit_slope(deltas, means[1], spec.r),
    )


def verify_ckls(path: SimulatedPath, noise: NoisePath, gamma: float,
                kappa1: float, kappa2: float) -> float:
    """Consistency residual of the power-transformed CIR path.

    X = Y^(1+gamma) should satisfy X(t) = X(0)
    + (1+gamma) * [int (kappa1 - kappa2 X) ds + int X^alpha dZ], the
    last integral understood as a limit of Riemann-Stieltjes sums, which
    requires a driver smoother than 1/2-Holder. Both integrals are
    approximated by left-point sums on the grid; the returned sup-norm
    residual shrinks as the grid is refined.
    """
    lam = noise.spec.holder_exponent(noise.grid)
    if lam <= 0.5:
        raise ValueError(
            f"the transformed SDE needs a driver with Holder exponent > 1/2, "
            f"got {lam:.3g}")
    x = ckls_transform(path, gamma)
    xv = x.values
    delta = path.grid.delta
    drift_sum = np.concatenate(
        [[0.0], np.cumsum((kappa1 - kappa2 * xv[:-1]) * delta)])
    stieltjes_sum = np.concatenate(
        [[0.0], np.cumsum(xv[:-1] ** x.alpha * np.diff(noise.values))])
    rhs = xv[0] + (1.0 + gamma) * (drift_sum + stieltjes_sum)
    return float(np.max(np.abs(xv - rhs)))
