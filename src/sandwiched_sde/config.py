"""JSON run configurations.

Schema (unknown keys are rejected at every level):

    {
      "model": {
        "drift": {"family": "cir" | "tsb" | "power_sandwich",
                  "kappa1": ..., "kappa2": ..., "kappa3": ..., "gamma": ...},
        "bounds": {"phi": {"kind": "const", "value": ...}
                          | {"kind": "sin_shift", "a": ..., "b": ..., "c": ...},
                   "psi": {... same shapes ...},          # two-sided only
                   "lambda": ..., "K": ...},              # K optional
        "y0": ...
      },
      "noise": {"kind": "brownian"}
               | {"kind": "fbm", "H": ...}
               | {"kind": "mbm", "H": {"a": ..., "b": ..., "c": ...}},
      "run": {"T": ..., "N": ..., "seed": ..., "paths": ...,
              "stepper": "auto" | "closed" | "generic", "tol": ...},
      "output": {"dir": ..., "format": "csv" | "json"}
    }

Path files are always written as CSV: "format" is validated so that
existing configs keep loading, but it selects nothing.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from typing import Optional

from . import model, noise
from .solver import DEFAULT_TOL, STEPPERS

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    config: model.SandwichConfig
    driver: noise.GaussianDriverSpec
    seed: int
    paths: int
    stepper: str
    tol: float
    out_dir: Optional[str]


def _section(data: dict, name: str, allowed: set, required: set) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"missing keys in {name!r}: {sorted(missing)}")
    return data


def _number(data: dict, section: str, key: str, default=None):
    value = data.get(key, default)
    if value is None:
        raise ConfigError(f"{section}.{key} is required")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{section}.{key} must be a number")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf or too large a float
        raise ConfigError(f"{section}.{key} must be finite")
    return float(value)


def _integer(data: dict, section: str, key: str, default=None,
             positive: bool = True) -> int:
    value = _number(data, section, key, default)
    if not value.is_integer() or value < (1 if positive else 0):
        kind = "a positive" if positive else "a non-negative"
        raise ConfigError(f"{section}.{key} must be {kind} integer")
    return int(value)


def _bound_shape(spec: dict, where: str, lam: float, horizon: float):
    """Returns (callable, K contribution)."""
    spec = _section(spec, where, {"kind", "value", "a", "b", "c"}, {"kind"})
    kind = spec["kind"]
    if kind == "const":
        return model.constant_bound(_number(spec, where, "value")), 0.0
    if kind == "sin_shift":
        a = _number(spec, where, "a")
        b = _number(spec, where, "b")
        c = _number(spec, where, "c")
        return (model.sin_bound(a, b, c),
                abs(b * c) * max(horizon, 1e-300) ** (1.0 - lam))
    raise ConfigError(f"{where}.kind must be 'const' or 'sin_shift', got {kind!r}")


_FAMILY_DEFAULTS = {
    "cir": {"kappa3": None, "gamma": 1.0},
    "tsb": {"kappa3": 0.0, "gamma": 1.0},
    "power_sandwich": {"kappa3": 0.0, "gamma": None},
}


def _parse_model(data: dict, horizon: float, n: int) -> model.SandwichConfig:
    data = _section(data, "model", {"drift", "bounds", "y0"},
                    {"drift", "bounds", "y0"})
    drift_data = _section(data["drift"], "model.drift",
                          {"family", "kappa1", "kappa2", "kappa3", "gamma"},
                          {"family", "kappa1", "kappa2"})
    family = drift_data["family"]
    if family not in _FAMILY_DEFAULTS:
        raise ConfigError(f"unknown drift family {family!r}")
    kappa1 = _number(drift_data, "model.drift", "kappa1")
    kappa2 = _number(drift_data, "model.drift", "kappa2")
    defaults = _FAMILY_DEFAULTS[family]
    if "kappa3" in drift_data and defaults["kappa3"] is None:
        raise ConfigError(f"family {family!r} does not take kappa3")
    if "gamma" in drift_data and family == "tsb":
        raise ConfigError("family 'tsb' has gamma fixed to 1; "
                          "use 'power_sandwich' for other powers")

    bounds_data = _section(data["bounds"], "model.bounds",
                           {"phi", "psi", "lambda", "K"}, {"lambda"})
    lam = _number(bounds_data, "model.bounds", "lambda")
    if not 0.0 < lam < 1.0:
        raise ConfigError("model.bounds.lambda must lie in (0,1)")

    y0 = _number(data, "model", "y0")

    if family == "cir":
        if "phi" in bounds_data or "psi" in bounds_data:
            raise ConfigError("the cir family has phi fixed to 0 and no psi")
        gamma = _number(drift_data, "model.drift", "gamma", defaults["gamma"])
        drift = model.cir_drift(kappa1, kappa2, gamma, lam, horizon)
        return model.SandwichConfig(y0=y0, drift=drift, grid_points=n)

    phi_data = bounds_data.get("phi", {"kind": "const", "value": -1.0})
    psi_data = bounds_data.get("psi", {"kind": "const", "value": 1.0})
    phi, k_phi = _bound_shape(phi_data, "model.bounds.phi", lam, horizon)
    psi, k_psi = _bound_shape(psi_data, "model.bounds.psi", lam, horizon)
    k_joint = _number(bounds_data, "model.bounds", "K", k_phi + k_psi)
    bounds = model.BoundFunctions(phi=phi, psi=psi, holder_exponent=lam,
                                  holder_constant=k_joint, horizon=horizon)
    kappa3 = _number(drift_data, "model.drift", "kappa3", defaults["kappa3"])
    if family == "tsb":
        drift = model.tsb_drift(kappa1, kappa2, kappa3, bounds)
    else:
        gamma = _number(drift_data, "model.drift", "gamma")
        drift = model.power_sandwich_drift(kappa1, kappa2, gamma, bounds,
                                           kappa3=kappa3)
    return model.SandwichConfig(y0=y0, drift=drift, grid_points=n)


def _parse_noise(data: dict) -> noise.GaussianDriverSpec:
    data = _section(data, "noise", {"kind", "H", "lambda"}, {"kind"})
    kind = data["kind"]
    hint = None
    if "lambda" in data:
        hint = _number(data, "noise", "lambda")
    if kind == "brownian":
        spec = noise.brownian()
    elif kind == "fbm":
        spec = noise.fbm(_number(data, "noise", "H"))
    elif kind == "mbm":
        h = data.get("H")
        if isinstance(h, dict):
            h = _section(h, "noise.H", {"a", "b", "c"}, {"a", "b", "c"})
            spec = noise.mbm_sin(_number(h, "noise.H", "a"),
                                 _number(h, "noise.H", "b"),
                                 _number(h, "noise.H", "c"))
        elif isinstance(h, (int, float)):
            spec = noise.mbm_sin(float(h), 0.0, 0.0)
        else:
            raise ConfigError("noise.H for mbm must be a number or "
                              "{'a':..,'b':..,'c':..}")
    else:
        raise ConfigError(f"unknown noise kind {kind!r}")
    if hint is not None:
        spec = replace(spec, holder_exponent_hint=hint)
    return spec


def parse_config(data: dict) -> RunConfig:
    data = _section(data, "<root>", {"model", "noise", "run", "output"},
                    {"model", "noise", "run"})
    run = _section(data["run"], "run",
                   {"T", "N", "seed", "paths", "stepper", "tol"}, {"T", "N"})
    horizon = _number(run, "run", "T")
    n = _integer(run, "run", "N")
    seed = _integer(run, "run", "seed", 0, positive=False)
    paths = _integer(run, "run", "paths", 1)
    stepper = run.get("stepper", "auto")
    if stepper not in STEPPERS:
        raise ConfigError("run.stepper must be auto, closed, or generic")
    tol = _number(run, "run", "tol", DEFAULT_TOL)
    for key, value in (("T", horizon), ("tol", tol)):
        if value <= 0.0:
            raise ConfigError(f"run.{key} must be positive")

    output = _section(data.get("output", {}), "output", {"dir", "format"}, set())
    if output.get("format", "csv") not in ("csv", "json"):
        raise ConfigError("output.format must be csv or json")

    return RunConfig(
        config=_parse_model(data["model"], horizon, n),
        driver=_parse_noise(data["noise"]),
        seed=seed,
        paths=paths,
        stepper=stepper,
        tol=tol,
        out_dir=output.get("dir"),
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: "
                          f"line {exc.lineno}, column {exc.colno}") from exc
    return parse_config(data)
