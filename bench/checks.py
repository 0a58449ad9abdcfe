"""Output checks of the benchmark.

Each checker takes plain arrays, files or numbers and returns what is
wrong with them, so the self-tests can hand it doctored outputs. The
model oracle re-implements the barriers and drifts of the benchmark's
JSON configs with vectorised NumPy, independently of the library.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

SLOPE_BAND = (0.54, 0.84)
CONTAINMENT_SHARE = 0.99
# Reference values are compared with this relative tolerance, not bitwise,
# so later changes may reorder floating-point operations.
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-12
TAIL_BEYOND = 10


class ModelOracle:
    """Barriers phi, psi and drift b(t, y) of one config's "model" section."""

    def __init__(self, model: dict):
        drift = model["drift"]
        bounds = model.get("bounds", {})
        self.family = drift["family"]
        self.k1 = float(drift["kappa1"])
        self.k2 = float(drift["kappa2"])
        self.k3 = float(drift.get("kappa3", 0.0))
        self.gamma = float(drift.get("gamma", 1.0))
        if self.family == "cir":
            self._phi, self._psi = {"kind": "const", "value": 0.0}, None
        else:
            self._phi = bounds.get("phi", {"kind": "const", "value": -1.0})
            self._psi = bounds.get("psi", {"kind": "const", "value": 1.0})

    @classmethod
    def from_file(cls, path: str) -> "ModelOracle":
        with open(path) as fh:
            return cls(json.load(fh)["model"])

    @staticmethod
    def _shape(spec: dict, t: np.ndarray) -> np.ndarray:
        if spec["kind"] == "const":
            return np.full_like(t, float(spec["value"]))
        return spec["a"] + spec["b"] * np.sin(spec["c"] * t)

    def phi(self, t) -> np.ndarray:
        return self._shape(self._phi, np.asarray(t, float))

    def psi(self, t):
        return None if self._psi is None else self._shape(self._psi, np.asarray(t, float))

    def drift(self, t, y) -> np.ndarray:
        """b(t, y); NaN outside the open sandwich."""
        y = np.asarray(y, float)
        lo = y - self.phi(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.family == "cir":
                b = self.k1 / lo ** self.gamma - self.k2 * y
                return np.where(lo > 0.0, b, np.nan)
            hi = self.psi(t) - y
            b = self.k1 / lo ** self.gamma - self.k2 / hi ** self.gamma - self.k3 * y
            return np.where((lo > 0.0) & (hi > 0.0), b, np.nan)


def sandwich_violations(oracle: ModelOracle, t, y) -> int:
    """Grid points that are not strictly inside the barriers."""
    t, y = np.asarray(t, float), np.asarray(y, float)
    inside = y > oracle.phi(t)
    upper = oracle.psi(t)
    if upper is not None:
        inside &= y < upper
    return int(np.count_nonzero(~inside))


def residual_violations(oracle: ModelOracle, t, y, noise_values, tol: float,
                        exact_drift=None) -> int:
    """Steps k with |y_k+1 - b(t_k+1, y_k+1) delta - z_k| > tol max(1, |z_k|),
    where z_k = y_k + dZ_k.

    Near a barrier the residual of a step that meets the contract can read
    above tol through one-ulp differences in evaluating b, so a step that
    fails the vectorised oracle is evaluated again with ``exact_drift``
    (the library's own scalar b(t, y)) when it is given.
    """
    t, y = np.asarray(t, float), np.asarray(y, float)
    delta = t[1] - t[0]
    z = y[:-1] + np.diff(np.asarray(noise_values, float))
    limit = tol * np.maximum(1.0, np.abs(z))
    resid = np.abs(y[1:] - oracle.drift(t[1:], y[1:]) * delta - z)
    bad = np.nonzero(~(resid <= limit))[0]
    if exact_drift is None:
        return int(bad.size)
    count = 0
    for k in bad:
        try:
            r = abs(y[k + 1] - exact_drift(t[k + 1], y[k + 1]) * delta - z[k])
        except ValueError:  # DomainError: the point is outside the sandwich
            r = math.inf
        count += 0 if r <= limit[k] else 1
    return count


def fitted_slope(deltas, mean_errors) -> float:
    """Slope of log(mean sup error) against log(mesh), as the library fits it."""
    return float(np.polyfit(np.log(deltas), np.log(mean_errors), 1)[0])


def slope_problem(label: str, slope: float, band=SLOPE_BAND):
    if band[0] <= slope <= band[1]:
        return None
    return f"{label}: convergence slope {slope:.4f} outside {band}"


def containment_problem(label: str, contained: int, total: int,
                        share: float = CONTAINMENT_SHARE):
    if total > 0 and contained >= share * total:
        return None
    return f"{label}: {contained}/{total} paths inside the envelope, need {share:.0%}"


def read_path_csv(path: str):
    """(t, y) columns of a CLI path file with header "t,y"."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,y":
            raise ValueError(f"{path}: header {header!r}, expected 't,y'")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return data[:, 0], data[:, 1]


def cli_output_problems(out_dir: str, seeds) -> list:
    """Missing or inconsistent files of one ``simulate`` run."""
    problems = []
    manifest_path = os.path.join(out_dir, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    entries = {e.get("seed"): e for e in manifest.get("paths", [])}
    for seed in seeds:
        name = f"path_{seed}.csv"
        entry = entries.get(seed)
        if entry is None or entry.get("file") != name:
            problems.append(f"manifest has no entry for seed {seed}")
        elif entry.get("sandwich_ok") is not True:
            problems.append(f"manifest reports a sandwich violation for seed {seed}")
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"{name} is missing")
    if len(entries) != len(seeds):
        problems.append(f"manifest lists {len(entries)} paths, expected {len(seeds)}")
    return problems


def reference_problems(got: dict, reference: dict,
                       rtol: float = REFERENCE_RTOL,
                       atol: float = REFERENCE_ATOL) -> list:
    """Values that differ from the recorded reference beyond the tolerance."""
    problems = []
    for key, values in got.items():
        expected = reference.get(key)
        if expected is None:
            problems.append(f"no reference values recorded for {key}")
            continue
        if len(expected) != len(values):
            problems.append(f"{key}: {len(values)} values, reference has {len(expected)}")
            continue
        for i, (a, b) in enumerate(zip(values, expected)):
            if not math.isclose(a, b, rel_tol=rtol, abs_tol=atol):
                problems.append(f"{key}[{i}] = {a!r}, reference {b!r}")
                break
    return problems


def tail(samples):
    """(value, percentile, count): the highest percentile of the samples that
    still has TAIL_BEYOND samples above it, i.e. the 11th largest sample.

    With fewer than 2 * TAIL_BEYOND + 1 samples that rank falls below the
    median; the median is reported then, and the percentile says so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    k = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return ordered[k], 100.0 * k / n, n
