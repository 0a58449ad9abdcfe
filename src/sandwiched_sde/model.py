"""Drift specifications and a priori bounds for sandwiched SDEs.

A sandwiched SDE is Y(t) = Y(0) + int_0^t b(s, Y(s)) ds + Z(t) whose
solution stays strictly above a lower bound function phi (one-sided) or
strictly between phi and psi (two-sided). This module defines the drift
families shipped with the library, validates the regularity assumptions
behind the sandwich property, computes admissible mesh sizes for the
drift-implicit Euler scheme, and evaluates the explicit envelope
constants that bound how close paths can get to the barriers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .noise import TimeGrid

__all__ = [
    "BoundFunctions",
    "DriftSpec",
    "SandwichConfig",
    "BoundConstants",
    "ValidationReport",
    "CheckResult",
    "DomainError",
    "constant_bound",
    "sin_bound",
    "cir_drift",
    "tsb_drift",
    "power_sandwich_drift",
    "validate_assumptions",
    "max_mesh",
    "mesh_terms",
    "bound_constants",
    "theoretical_envelope",
    "ckls_transform",
    "TransformedPath",
]

ONE_SIDED = "one-sided"
TWO_SIDED = "two-sided"

_SAFETY = 0.99  # strict mesh inequalities are enforced with this margin


class DomainError(ValueError):
    """Raised when a drift is evaluated at or beyond its barriers."""


def constant_bound(value: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


def sin_bound(a: float, b: float, c: float) -> Callable[[np.ndarray], np.ndarray]:
    """Bound shape a + b*sin(c*t)."""
    return lambda t: a + b * np.sin(c * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class BoundFunctions:
    """Barrier functions with their joint Holder regularity (psi is None
    one-sided). Only ``values`` evaluates them; ``inside`` is the sandwich test."""

    phi: Callable[[np.ndarray], np.ndarray]
    psi: Optional[Callable[[np.ndarray], np.ndarray]]
    holder_exponent: float
    holder_constant: float
    horizon: float

    def __post_init__(self):
        if not 0.0 < self.holder_exponent < 1.0:
            raise ValueError("holder_exponent must lie in (0,1)")
        if self.holder_constant < 0.0:
            raise ValueError("holder_constant must be nonnegative")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")

    @property
    def two_sided(self) -> bool:
        return self.psi is not None

    def values(self, t) -> tuple:
        """(phi(t), psi(t)), psi = +inf one-sided: Python floats for a
        scalar t, else float arrays shaped like the array t."""
        if isinstance(t, np.ndarray) and t.ndim:
            hi = np.full(t.shape, math.inf) if self.psi is None else self.psi(t)
            return tuple(v if v.shape == t.shape else np.broadcast_to(v, t.shape)
                         for v in (np.asarray(self.phi(t), float), np.asarray(hi, float)))
        return float(self.phi(t)), math.inf if self.psi is None else float(self.psi(t))

    def inside(self, t, y):
        """Mask of phi(t) < y < psi(t), elementwise; NaN is outside."""
        lo, hi = self.values(t)
        return (lo < y) & (y < hi)


@dataclass(frozen=True)
class DriftSpec:
    """A drift b(t, y) together with its regularity constants.

    ``b`` and ``db_dy`` take floats or NumPy arrays of t and y and work
    elementwise (``simulate`` passes floats, the checks here arrays); the
    built-in families raise DomainError unless phi(t) < y < psi(t).
    c1, p: local Lipschitz scale and blow-up power; c2, gamma, y_star:
    repulsion strength, power, and zone width near the barriers; c3: an
    upper bound on db/dy. ``closed_form`` is ``(route, constants)`` when
    the implicit step has a closed form the solver runs by that route
    label, ``("closed_form_cir", (kappa1, kappa2))`` or
    ``("cardano_tsb", (kappa1, kappa2, kappa3))``; None (the generic
    route) otherwise.
    """

    b: Callable[[float, float], float]
    db_dy: Callable[[float, float], float]
    c1: float
    p: float
    c2: float
    gamma: float
    y_star: float
    c3: float
    kind: str
    bounds: BoundFunctions
    closed_form: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in (ONE_SIDED, TWO_SIDED):
            raise ValueError(f"unknown sandwich kind {self.kind!r}")
        if (self.kind == TWO_SIDED) != self.bounds.two_sided:
            raise ValueError("psi must be given for two-sided drifts only")
        for name in ("c1", "c2", "c3", "y_star"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.p <= 1.0:
            raise ValueError("blow-up power p must exceed 1")


@dataclass(frozen=True)
class SandwichConfig:
    """Initial value, drift, and uniform partition for one simulation."""

    y0: float
    drift: DriftSpec
    grid_points: int

    def __post_init__(self):
        if self.grid_points < 1:
            raise ValueError("grid_points must be at least 1")

    @property
    def horizon(self) -> float:
        return self.drift.bounds.horizon

    @property
    def mesh(self) -> float:
        return self.horizon / self.grid_points

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(horizon=self.horizon, n=self.grid_points)


@dataclass(frozen=True)
class BoundConstants:
    """Explicit constants of the pathwise envelope around the barriers."""

    beta: float
    L1: float
    L2: float
    L3: Optional[float] = None
    L4: Optional[float] = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "spot-checked" | "fail"
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if c.status == "fail"]

    def __str__(self) -> str:
        lines = [f"assumption report ({self.kind} sandwich)"]
        for c in self.checks:
            lines.append(f"  {c.name:<12} {c.status:<12} {c.detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Built-in drift families
# ---------------------------------------------------------------------------

_DENSE = 2001  # deterministic lattice used for closed-form constant derivation


def _domain_values(bounds: BoundFunctions, t, y) -> tuple:
    """``bounds.values(t)``, or DomainError unless phi(t) < y < psi(t) (NaN is
    outside). A scalar mask is tested as a bool: ``np.all`` costs microseconds."""
    lo, hi = bounds.values(t)
    inside = (lo < y) & (y < hi)
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        k = np.argmin(inside)
        y_k, lo_k, hi_k = (v.flat[k] for v in np.broadcast_arrays(y, lo, hi))
        raise DomainError(f"drift evaluated at y={y_k} outside ({lo_k}, {hi_k})")
    return lo, hi


def _power_drift(kappa1, kappa2, gamma, bounds, kappa3=None):
    """The DriftSpec fields every built-in family shares, as a partial that
    the family completes with c1, c2, y_star and c3: b and db/dy of
    kappa1/(y-phi)^gamma - kappa2/(psi-y)^gamma - kappa3*y, after the
    parameter checks, and the closed form the step has when gamma = 1.

    CIR passes no kappa3: its kappa2 becomes kappa3, the upper kappa is 0
    and psi = +inf. As y - 0 = y, 0/(inf - y)^gamma = 0 and a - 0 = a,
    its values are bitwise those of kappa1/y^gamma - kappa2*y.
    """
    if kappa1 <= 0 or kappa2 <= 0:
        raise ValueError("kappa1 and kappa2 must be positive")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    closed_form = ("cardano_tsb", (kappa1, kappa2, kappa3))
    if kappa3 is None:
        closed_form = ("closed_form_cir", (kappa1, kappa2))
        kappa2, kappa3 = 0.0, kappa2

    def b(t, y):
        lo, hi = _domain_values(bounds, t, y)
        return (kappa1 / (y - lo) ** gamma
                - kappa2 / (hi - y) ** gamma
                - kappa3 * y)

    def db_dy(t, y):
        lo, hi = _domain_values(bounds, t, y)
        return (-kappa1 * gamma / (y - lo) ** (gamma + 1.0)
                - kappa2 * gamma / (hi - y) ** (gamma + 1.0)
                - kappa3)
    return partial(DriftSpec, b=b, db_dy=db_dy, p=gamma + 1.0, gamma=gamma,
                   kind=TWO_SIDED if bounds.two_sided else ONE_SIDED, bounds=bounds,
                   closed_form=closed_form if gamma == 1.0 else None)


def cir_drift(kappa1: float, kappa2: float, gamma: float,
              holder_exponent: float, horizon: float) -> DriftSpec:
    """Generalized CIR drift b(t, y) = kappa1 / y^gamma - kappa2 * y.

    One-sided sandwich above phi == 0. The regularity constants are
    derived in closed form: c2 = kappa1/2 with repulsion zone
    y_star = (kappa1 / (2 kappa2))^(1/(gamma+1)), p = gamma + 1 and
    c1 = kappa1*gamma + kappa2, and c3 = 1 (db/dy is negative).
    """
    bounds = BoundFunctions(
        phi=constant_bound(0.0), psi=None,
        holder_exponent=holder_exponent, holder_constant=0.0, horizon=horizon,
    )
    spec = _power_drift(kappa1, kappa2, gamma, bounds)
    return spec(c1=kappa1 * gamma + kappa2, c2=kappa1 / 2.0,
                y_star=(kappa1 / (2.0 * kappa2)) ** (1.0 / (gamma + 1.0)), c3=1.0)


def _sandwich_repulsion_zone(kappa1, kappa2, kappa3, gamma, gap_min, y_max):
    # Largest y_star (halving from gap_min/4) for which the repulsion
    # inequality b >= c2 / (y - phi)^gamma holds with c2 = min(kappa)/2:
    # the competing terms must eat at most half of the leading kappa.
    c2 = min(kappa1, kappa2) / 2.0
    y_star = gap_min / 4.0
    for _ in range(200):
        competing = max(kappa1, kappa2) / (gap_min - y_star) ** gamma \
            + abs(kappa3) * y_max
        if y_star ** gamma * competing <= c2:
            return c2, y_star
        y_star /= 2.0
    raise ValueError("could not find a repulsion zone; drift parameters degenerate")


def _two_sided_drift(kappa1, kappa2, kappa3, gamma, bounds):
    spec = _power_drift(kappa1, kappa2, gamma, bounds, kappa3)
    phi_t, psi_t = bounds.values(np.linspace(0.0, bounds.horizon, _DENSE))
    gap_min = float(np.min(psi_t - phi_t))
    if not 0.0 < gap_min < math.inf:  # psi is +inf when missing
        raise ValueError("psi must be given and stay strictly above phi")
    y_max = float(np.max(np.abs(np.stack([phi_t, psi_t]))))
    c2, y_star = _sandwich_repulsion_zone(kappa1, kappa2, kappa3, gamma,
                                          gap_min, y_max)
    c1 = gamma * (kappa1 + kappa2) * (1.0 + bounds.holder_constant) + abs(kappa3)
    return spec(c1=c1, c2=c2, y_star=y_star, c3=max(1.0, 1.0 - kappa3))


def tsb_drift(kappa1: float, kappa2: float, kappa3: float,
              bounds: BoundFunctions) -> DriftSpec:
    """TSB-type drift kappa1/(y-phi) - kappa2/(psi-y) - kappa3*y (gamma = 1).

    The classical bounded-noise TSB model -kappa*y/(1-y^2) is the case
    phi == -1, psi == 1, kappa1 = kappa2 = kappa/2, kappa3 = 0.
    """
    return _two_sided_drift(kappa1, kappa2, kappa3, 1.0, bounds)


def power_sandwich_drift(kappa1: float, kappa2: float, gamma: float,
                         bounds: BoundFunctions,
                         kappa3: float = 0.0) -> DriftSpec:
    """Two-sided drift with repulsion power gamma at both barriers."""
    return _two_sided_drift(kappa1, kappa2, kappa3, gamma, bounds)


# ---------------------------------------------------------------------------
# Assumption validation
# ---------------------------------------------------------------------------

_LATTICE = 65


def _lattice(config: SandwichConfig, eps: float):
    """Deterministic (t, y) lattice over the eps-interior of the domain."""
    drift = config.drift
    tt = np.linspace(0.0, config.horizon, _LATTICE)
    lo, hi = drift.bounds.values(tt)
    lo, hi = lo + eps, hi - eps
    if drift.kind == ONE_SIDED:
        hi = lo + max(4.0 * drift.y_star, 2.0 * abs(config.y0) + 1.0)
    frac = np.linspace(0.0, 1.0, _LATTICE)
    ts = np.repeat(tt, _LATTICE)
    ys = (lo[:, None] + frac[None, :] * (hi - lo)[:, None]).ravel()
    keep = hi.repeat(_LATTICE) > lo.repeat(_LATTICE)
    return ts[keep], ys[keep]


def _spot_check_lipschitz(config: SandwichConfig, eps: float) -> Optional[str]:
    drift = config.drift
    ts, ys = _lattice(config, eps)
    n = len(ts)
    if n < 2:
        return None
    bs = drift.b(ts, ys)
    lam = drift.bounds.holder_exponent
    scale = drift.c1 / eps ** drift.p
    # Deterministic pair subsample: several fixed strides across the lattice.
    for stride in (1, 7, 61, 409, n // 2 + 1):
        j = (np.arange(n) + stride) % n
        lhs = np.abs(bs - bs[j])
        rhs = scale * (np.abs(ys - ys[j]) + np.abs(ts - ts[j]) ** lam)
        bad = lhs > rhs * (1.0 + 1e-9)
        if np.any(bad):
            k = int(np.argmax(bad))
            return (f"Lipschitz bound violated at eps={eps:.4g}, "
                    f"(t,y)=({ts[k]:.4g},{ys[k]:.4g})")
    return None


def _spot_check_repulsion(config: SandwichConfig) -> Optional[str]:
    # One drift call on a (side, t, dist) lattice; sides are lower, upper.
    drift = config.drift
    tt = np.linspace(0.0, config.horizon, _LATTICE)
    lo, hi = drift.bounds.values(tt[:, None])
    dists = drift.y_star * np.linspace(1.0 / _LATTICE, 1.0, _LATTICE)
    sides = [lo + dists, hi - dists][:1 + drift.bounds.two_sided]
    push = drift.b(tt[:, None], np.array(sides))
    push[1:] *= -1.0
    bad = push < drift.c2 / dists ** drift.gamma * (1.0 - 1e-9)
    if not np.any(bad):
        return None
    side, i, j = np.unravel_index(np.argmax(bad), bad.shape)
    return (f"{('lower', 'upper')[side]} repulsion fails at "
            f"t={tt[i]:.4g}, dist={dists[j]:.4g}")


def validate_assumptions(config: SandwichConfig) -> ValidationReport:
    """Check the sandwich assumptions; inequalities in (t, y) are verified
    on deterministic lattices and labeled spot-checked, never proved."""
    drift = config.drift
    bounds = drift.bounds
    lam = bounds.holder_exponent
    two = drift.kind == TWO_SIDED
    tag = "B" if two else "A"
    checks = []

    # (A1)/(B1): initial value strictly inside.
    phi0, psi0 = bounds.values(0.0)
    ok = phi0 < config.y0 < psi0
    if two:
        detail = f"phi(0)={phi0:.6g} < y0={config.y0:.6g} < psi(0)={psi0:.6g}"
    else:
        detail = f"y0={config.y0:.6g} > phi(0)={phi0:.6g}"
    checks.append(CheckResult(f"({tag}1)", "pass" if ok else "fail", detail))

    # Barrier regularity: ordering and Holder constant, sampled.
    tt = np.linspace(0.0, config.horizon, 257)
    phi_t, psi_t = bounds.values(tt)
    detail, status = "barriers sampled on 257 points", "spot-checked"
    if np.any(psi_t <= phi_t):  # never one-sided, where psi is +inf
        status, detail = "fail", "psi does not stay strictly above phi"
    if status != "fail":
        diffs = np.abs(phi_t[:, None] - phi_t[None, :])
        if two:
            diffs = diffs + np.abs(psi_t[:, None] - psi_t[None, :])
        gaps = np.abs(tt[:, None] - tt[None, :]) ** lam
        np.fill_diagonal(gaps, 1.0)
        np.fill_diagonal(diffs, 0.0)
        if np.any(diffs > bounds.holder_constant * gaps * (1.0 + 1e-9) + 1e-15):
            status = "fail"
            detail = "sampled barrier increments exceed K |t-s|^lambda"
    checks.append(CheckResult("barriers", status, detail))

    # (A2)/(B2): lattice spot checks of the local Lipschitz bound (DriftSpec
    # holds p > 1).
    problem = None
    for eps in (drift.y_star / 4.0, drift.y_star / 2.0, drift.y_star):
        problem = _spot_check_lipschitz(config, eps) or problem
    checks.append(CheckResult(
        f"({tag}2)", "fail" if problem else "spot-checked",
        problem or f"c1={drift.c1:.6g}, p={drift.p:.6g} on 3 lattices"))

    # (A3)/(B3): power condition (exact arithmetic) and repulsion spot check.
    need = 1.0 / lam - 1.0
    if drift.gamma <= need:
        checks.append(CheckResult(
            f"({tag}3)", "fail",
            f"gamma={drift.gamma:.6g} <= 1/lambda - 1 = {need:.6g}"))
    else:
        problem = _spot_check_repulsion(config)
        checks.append(CheckResult(
            f"({tag}3)", "fail" if problem else "spot-checked",
            problem or f"gamma={drift.gamma:.6g} > {need:.6g}; "
                       f"repulsion holds on lattice"))

    # (A4)/(B4): c3 dominates sampled db/dy.
    ts, ys = _lattice(config, drift.y_star / 4.0)
    sup_db = float(np.max(drift.db_dy(ts, ys)))
    ok = drift.c3 > sup_db
    checks.append(CheckResult(
        f"({tag}4)", "spot-checked" if ok else "fail",
        f"c3={drift.c3:.6g} vs sampled sup db/dy={sup_db:.6g}"))

    # Mesh condition for the configured partition.
    dmax = max_mesh(config)
    ok = config.mesh <= dmax
    checks.append(CheckResult(
        "mesh", "pass" if ok else "fail",
        f"mesh={config.mesh:.6g}, max admissible={dmax:.6g}"))

    return ValidationReport(kind=drift.kind, checks=tuple(checks))


# ---------------------------------------------------------------------------
# Mesh limits and envelope constants
# ---------------------------------------------------------------------------

def mesh_terms(config: SandwichConfig) -> dict:
    """The reciprocal rates entering the mesh condition, by name."""
    drift = config.drift
    terms = {"c3": drift.c3}
    if drift.kind == ONE_SIDED:
        gap0 = config.y0 - drift.bounds.values(0.0)[0]
        if gap0 <= 0.0:
            raise ValueError("y0 must exceed phi(0) in the one-sided case")
        terms["c1/(y0-phi(0))^p"] = drift.c1 / gap0 ** drift.p
    return terms


def max_mesh(config: SandwichConfig) -> float:
    """Largest admissible mesh (with a 0.99 safety factor), clamped to T."""
    return min(_SAFETY / max(mesh_terms(config).values()), config.horizon)


def bound_constants(config: SandwichConfig) -> BoundConstants:
    """Envelope constants beta, L1, L2 (and L3, L4 one-sided).

    The exponent combination gamma*lambda + lambda - 1 must be positive;
    this is exactly the condition gamma > 1/lambda - 1.
    """
    drift = config.drift
    bounds = drift.bounds
    lam = bounds.holder_exponent
    gamma = drift.gamma
    denom = gamma * lam + lam - 1.0
    if denom <= 0.0:
        raise ValueError(
            f"gamma*lambda + lambda - 1 = {denom:.6g} <= 0; "
            f"need gamma > 1/lambda - 1")
    c2 = drift.c2
    beta = (lam ** (lam / (1.0 - lam)) - lam ** (1.0 / (1.0 - lam))) \
        / c2 ** (lam / (1.0 - lam))
    phi0, psi0 = bounds.values(0.0)
    start_gap = config.y0 - phi0
    seed = min(start_gap, drift.y_star, psi0 - config.y0)
    if seed <= 0.0:
        raise ValueError("initial value is not strictly inside the sandwich")
    L2 = bounds.holder_constant \
        + (2.0 * beta) ** (lam - 1.0) * (seed / 2.0) ** (1.0 - lam - gamma * lam)
    L1 = 1.0 / (2.0 ** (gamma * lam / denom) * beta ** ((1.0 - lam) / denom))

    if drift.kind == TWO_SIDED:
        return BoundConstants(beta=beta, L1=L1, L2=L2)

    # One-sided upper bound constants via the discrete Gronwall chain.
    T = bounds.horizon
    q = drift.c1 / start_gap ** drift.p
    tt = np.linspace(0.0, T, _DENSE)
    phi_t, _ = bounds.values(tt)
    b_on_shift = drift.b(tt, phi_t + start_gap)
    # Linear growth |b(t,y)| <= C_lin + q |y| on the region above phi + gap.
    c_lin = float(np.max(np.abs(b_on_shift))) \
        + q * float(np.max(np.abs(phi_t - start_gap)))
    additive = abs(float(np.min(phi_t))) \
        + abs(float(np.max(phi_t)) + start_gap) + T * c_lin
    n0 = math.floor(T * q) + 1
    denom0 = 1.0 - q * (T / n0)
    C1 = additive / denom0
    C2 = T ** lam / denom0
    C3 = q / denom0
    growth = math.exp(T * C3)
    return BoundConstants(beta=beta, L1=L1, L2=L2,
                          L3=C1 * growth, L4=C2 * growth)


def theoretical_envelope(config: SandwichConfig, lam_holder: float,
                         t) -> tuple:
    """Pathwise envelope at time(s) t given a Holder constant of the noise.

    Returns (lower, upper): phi(t) + L1/(L2+Lambda)^(1/(gamma l + l - 1))
    below, and the mirrored barrier bound (two-sided) or L3 + L4*Lambda
    (one-sided) above.
    """
    if lam_holder <= 0.0:
        raise ValueError("the Holder constant must be positive")
    drift = config.drift
    bc = bound_constants(config)
    lam = drift.bounds.holder_exponent
    denom = drift.gamma * lam + lam - 1.0
    margin = bc.L1 / (bc.L2 + lam_holder) ** (1.0 / denom)
    lo, hi = drift.bounds.values(np.asarray(t, dtype=float))
    if drift.kind == TWO_SIDED:
        return lo + margin, hi - margin
    # 0 * lo gives the constant upper bound the shape (or type) of lo.
    return lo + margin, 0.0 * lo + (bc.L3 + bc.L4 * lam_holder)


# ---------------------------------------------------------------------------
# CKLS transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformedPath:
    """Pointwise power transform X = Y^(1+gamma) of a positive path."""

    grid: TimeGrid
    values: np.ndarray
    gamma: float
    alpha: float  # elasticity gamma / (1 + gamma) of the transformed SDE


def ckls_transform(path, gamma: float) -> TransformedPath:
    """Map a positive path Y to X = Y^(1+gamma) (identity when gamma=0)."""
    values = np.asarray(path.values, dtype=float)
    if np.any(values <= 0.0):
        raise ValueError("ckls_transform needs a strictly positive path")
    return TransformedPath(
        grid=path.grid,
        values=values ** (1.0 + gamma),
        gamma=gamma,
        alpha=gamma / (1.0 + gamma),
    )
