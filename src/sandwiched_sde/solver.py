"""Drift-implicit (backward) Euler stepping for sandwiched SDEs.

Each step solves y - b(t_next, y) * delta = z for the next state, where
z = Y_prev + dZ. The map on the left is strictly increasing under the
mesh condition c3 * delta < 1 and diverges at the barriers, so the step
has a unique in-domain solution and the scheme preserves the sandwich.
Closed forms exist for the CIR family (quadratic) and the TSB family
(cubic via Cardano); everything else goes through a bracketed,
safeguarded Newton solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (TWO_SIDED, DomainError, DriftSpec, SandwichConfig, max_mesh,
                    theoretical_envelope)
from .noise import NoisePath, TimeGrid

__all__ = [
    "SimulatedPath",
    "SandwichReport",
    "StepError",
    "UnattainableContractError",
    "implicit_step_cir",
    "implicit_step_tsb",
    "implicit_step_generic",
    "simulate",
    "check_sandwich",
]

DEFAULT_TOL = 1e-12


class StepError(RuntimeError):
    """An implicit step could not be solved to tolerance."""


class UnattainableContractError(StepError):
    """No double meets the residual contract: the bracket is two adjacent doubles."""


@dataclass(frozen=True)
class SimulatedPath:
    """Grid values of the backward Euler approximation.

    Between grid points the approximation is extended piecewise
    constantly: Y(t) = Y(t_k) for t in [t_k, t_{k+1}).
    """

    grid: TimeGrid
    values: np.ndarray
    noise_seed: int
    stepper: str
    residuals: np.ndarray


@dataclass(frozen=True)
class SandwichReport:
    strict_ok: bool
    violations: tuple
    envelope_ok: Optional[bool]
    envelope_violations: tuple
    lam_hat: Optional[float]


def implicit_step_cir(drift: DriftSpec, t_next: float, delta: float,
                      rhs: float) -> float:
    """Closed-form implicit step for the CIR drift with gamma = 1.

    Solves y = rhs + (kappa1/y - kappa2*y)*delta for the unique positive
    root; the discriminant is positive for any rhs when kappa1 > 0. The
    CIR drift does not depend on t_next. A one-step window of the kernel
    that ``simulate`` runs, so both take the same floating-point path.
    """
    return _cir_steps(rhs, [0.0], drift.param_dict, delta)[0]


def _cir_steps(y: float, dz, params: dict, delta: float) -> list:
    """Closed-form CIR steps from y over the increments dz.

    Each step is the positive root of s y^2 - z y - kappa1*delta = 0
    with s = 1 + kappa2*delta and z = y_prev + dz. For z < 0 the
    rationalized form avoids cancelling sqrt(z^2 + c) against -z, where
    c = 4*kappa1*delta*s.
    """
    scale = 1.0 + params["kappa2"] * delta
    c, two_scale = 4.0 * params["kappa1"] * delta * scale, 2.0 * scale
    sqrt = math.sqrt
    out = []
    append = out.append
    for d in dz:
        z = y + d
        if z < 0.0:
            y = c / (two_scale * (sqrt(z * z + c) - z))
        else:
            y = (z + sqrt(z * z + c)) / two_scale
        append(y)
    return out


def _tsb_scale(delta: float, kappa3: float) -> float:
    scale = 1.0 + delta * kappa3
    if scale <= 0.0:
        raise StepError(f"mesh too coarse for kappa3={kappa3}: 1 + delta*kappa3 <= 0")
    return scale


def _tsb_affine(phi: np.ndarray, psi: np.ndarray, delta: float, kappa1: float,
                kappa2: float, scale: float) -> tuple:
    """The z-independent parts of the monic TSB cubic, as lists.

    On barrier values phi, psi the cubic of the step with rhs z has
    B2 = c2 - z/scale, B1 = c1 + e1*z and B0 = c0 - e0*z; returns
    (c2, c1, e1, c0, e0).
    """
    total = phi + psi
    prod = phi * psi
    return ((-total).tolist(),
            (prod - delta * (kappa1 + kappa2) / scale).tolist(),
            (total / scale).tolist(),
            (delta * (kappa1 * psi + kappa2 * phi) / scale).tolist(),
            (prod / scale).tolist())


_TWO_THIRDS_PI = 2.0 * math.pi / 3.0
_FOUR_THIRDS_PI = 4.0 * math.pi / 3.0


def _tsb_steps(y: float, dz, coefs: tuple, phi, psi, scale: float) -> list:
    """Implicit TSB steps from y over the increments dz.

    ``coefs`` are the lists of ``_tsb_affine`` and phi, psi the barrier
    lists of the same steps. Each step solves the monic cubic
    y^3 + B2 y^2 + B1 y + B0 of z = y_prev + dz by Cardano in shift
    form: y = u - B2/3 gives the depressed cubic u^3 + 3p u + 2q = 0,
    solved in trigonometric form. Its three roots are real and distinct:
    the step equation times (y - phi)(psi - y) is a cubic F with
    F(phi) = -delta*kappa1*(psi - phi) < 0 < delta*kappa2*(psi - phi)
    = F(psi) and leading coefficient -scale < 0, so F has one root below
    phi, one inside (phi, psi) and one above psi. A step with
    p^3 + q^2 >= 0, or without exactly one root inside, has lost its
    roots to round-off: the returned values stop before it.
    """
    sqrt, acos, cos = math.sqrt, math.acos, math.cos
    turn1, turn2 = _TWO_THIRDS_PI, _FOUR_THIRDS_PI
    out = []
    append = out.append
    for d, a2, a1, f1, a0, f0, lo, hi in zip(dz, *coefs, phi, psi):
        z = y + d
        b2 = a2 - z / scale
        b1 = a1 + f1 * z
        shift = b2 / 3.0
        p = b1 / 3.0 - shift * shift
        q = shift * (shift * shift - 0.5 * b1) + 0.5 * (a0 - f0 * z)
        if p * p * p + q * q >= 0.0:
            return out
        m = sqrt(-p)
        arg = q / (p * m)
        if arg > 1.0:
            arg = 1.0
        elif arg < -1.0:
            arg = -1.0
        t3 = acos(arg) / 3.0
        m += m
        r0 = m * cos(t3) - shift
        r1 = m * cos(t3 - turn1) - shift
        r2 = m * cos(t3 - turn2) - shift
        # r0 >= r1 >= r2, and the middle root is the one inside unless
        # round-off decides otherwise.
        inside0, inside2 = lo < r0 < hi, lo < r2 < hi
        if lo < r1 < hi:
            if inside0 or inside2:
                return out
            y = r1
        elif inside0 != inside2:
            y = r0 if inside0 else r2
        else:
            return out
        append(y)
    return out


def implicit_step_tsb(drift: DriftSpec, t_next: float, delta: float,
                      rhs: float) -> float:
    """Implicit TSB step: the unique cubic root inside (phi, psi).

    A one-step window of the kernel that ``simulate`` runs, so both
    take the same floating-point path.
    """
    params = drift.param_dict
    phi_next, psi_next = drift.bounds.values(t_next)
    scale = _tsb_scale(delta, params["kappa3"])
    coefs = _tsb_affine(np.array([phi_next]), np.array([psi_next]), delta,
                        params["kappa1"], params["kappa2"], scale)
    out = _tsb_steps(rhs, [0.0], coefs, [phi_next], [psi_next], scale)
    if not out:
        raise StepError(
            f"expected exactly one real root in ({phi_next}, {psi_next}) "
            f"for rhs={rhs}; mesh condition likely violated")
    return out[0]


_BRACKET_BUDGET = 64


def implicit_step_generic(drift: DriftSpec, t_next: float, delta: float,
                          rhs: float, tol: float = DEFAULT_TOL) -> tuple:
    """Solve the implicit step by bracketing plus safeguarded Newton.

    g(y) = y - b(t, y)*delta is strictly increasing, tends to -inf at
    phi(t)+ and to +inf at psi(t)- (two-sided) or as y -> inf, so a sign
    change bracket always exists; Newton accelerates inside it and falls
    back to bisection whenever it leaves the bracket. Returns
    ``(y, abs(g(y) - rhs))``, the residual the contract was checked on.
    """
    if not tol > 0.0:  # NaN too
        raise ValueError("tol must be positive")
    t, z = t_next, rhs

    def g(y):
        return y - drift.b(t, y) * delta

    phi_t, psi_t = drift.bounds.values(t)
    if drift.kind == TWO_SIDED:
        width = psi_t - phi_t
        eta = width * 2.0 ** -52
        lo, hi = phi_t + eta, psi_t - eta
        # Shrink the offset if the drift blow-up is not yet dominant there.
        for _ in range(8):
            if g(lo) <= z <= g(hi):
                break
            eta *= 2.0 ** -16
            lo, hi = phi_t + eta, psi_t - eta
        else:
            raise StepError(f"could not bracket the step at t={t} with rhs={z}")
    else:
        eta = max(abs(phi_t), 1.0) * 2.0 ** -52
        lo = phi_t + eta
        for _ in range(8):
            if g(lo) <= z:
                break
            eta *= 2.0 ** -16
            lo = phi_t + eta
        else:
            raise StepError(f"could not bracket the step below at t={t}, rhs={z}")
        hi = max(z, phi_t + 1.0)
        bump = 1.0
        for _ in range(_BRACKET_BUDGET):
            if g(hi) >= z:
                break
            hi += bump
            bump *= 2.0
        else:
            raise StepError(
                f"upper bracket search exhausted at t={t}; last bracket "
                f"[{lo}, {hi}] with g(hi)={g(hi)} < rhs={z}")

    target = tol * max(1.0, abs(z))
    y = 0.5 * (lo + hi)
    for _ in range(200):
        gy = g(y)
        err = gy - z
        if abs(err) <= target:
            return y, abs(err)
        if err > 0.0:
            hi = y
        else:
            lo = y
        slope = 1.0 - drift.db_dy(t, y) * delta
        y_newton = y - err / slope if slope > 0.0 else math.inf
        y = y_newton if lo < y_newton < hi else 0.5 * (lo + hi)
    resid = abs(g(y) - z)
    if resid <= target:
        return y, resid
    if math.nextafter(lo, hi) == hi:
        raise UnattainableContractError(
            f"residual contract unattainable at t={t}: the adjacent doubles {float(lo)!r}"
            f" and {float(hi)!r} leave residuals {g(lo) - z:.3e} and {g(hi) - z:.3e}, "
            f"bound tol*max(1,|rhs|) = {target:.3e}")
    raise StepError(f"step did not converge at t={t}: residual {resid:.3e}")


def _choose_stepper(drift: DriftSpec, stepper: str) -> str:
    """The route label for ``stepper`` (auto, closed or generic)."""
    if stepper not in ("auto", "closed", "generic"):
        raise ValueError(f"unknown stepper {stepper!r}")
    if stepper == "generic":
        return "bracketed_generic"
    closed = None
    if drift.family == "cir" and drift.param_dict.get("gamma") == 1.0:
        closed = "closed_form_cir"
    elif drift.family in ("tsb", "power_sandwich") \
            and drift.param_dict.get("gamma") == 1.0:
        closed = "cardano_tsb"
    if stepper == "closed" and closed is None:
        raise ValueError(
            f"no closed-form stepper for family {drift.family!r} "
            f"with gamma={drift.param_dict.get('gamma')}")
    return closed or "bracketed_generic"


def simulate(config: SandwichConfig, noise: NoisePath,
             stepper: str = "auto", tol: float = DEFAULT_TOL,
             unsafe_mesh: bool = False) -> SimulatedPath:
    """Run the backward Euler scheme over the whole grid.

    Refuses to run when the mesh condition fails (uniqueness of the
    implicit step is only guaranteed under it) unless ``unsafe_mesh``.
    Every accepted step meets the residual contract
    |y - b(t,y)*delta - z| <= tol*max(1,|z|); a step that cannot meet it
    raises StepError naming the step index.
    """
    if noise.grid != config.grid:
        raise ValueError("noise grid does not match configuration grid")
    if config.mesh > max_mesh(config) and not unsafe_mesh:
        raise ValueError(
            f"mesh {config.mesh:.6g} exceeds the admissible maximum "
            f"{max_mesh(config):.6g}; pass unsafe_mesh=True to override")
    mode = _choose_stepper(config.drift, stepper)
    if mode == "bracketed_generic":
        values, residuals = _generic_path(config, noise, tol)
    else:
        values, residuals = _closed_form_path(config, noise, mode, tol)
    return SimulatedPath(grid=config.grid, values=values,
                         noise_seed=noise.seed, stepper=mode,
                         residuals=residuals)


def _generic_path(config: SandwichConfig, noise: NoisePath, tol: float) -> tuple:
    drift = config.drift
    n, delta = config.grid_points, config.mesh
    tt = config.grid.points
    dz = np.diff(noise.values)
    values = np.empty(n + 1)
    residuals = np.zeros(n + 1)
    values[0] = y = config.y0
    for k in range(1, n + 1):
        y, residuals[k] = _generic_step(drift, tt[k], delta, y + dz[k - 1], tol, k)
        values[k] = y
    return values, residuals


_RESUME_WINDOW = 64
# Steps per call of a closed-form kernel: bounds the per-step lists (the
# TSB cubic's coefficients among them) whatever the path length.
_STEP_WINDOW = 2048


def _closed_form_path(config: SandwichConfig, noise: NoisePath, mode: str,
                      tol: float) -> tuple:
    """The closed-form routes: a loop on Python floats, then array checks.

    Barriers and constants are evaluated once per path, and the TSB
    cubic's z-independent coefficients with numpy on the grid. The path
    is stepped in windows of at most ``_STEP_WINDOW`` steps: one fused
    kernel steps through a window, and one array call of ``drift.b``
    checks the residual contract on the steps it took. The window's
    first failing step k, a contract miss or the TSB step whose cubic
    lost its roots to round-off, is solved by the generic solver; the
    closed form then resumes at k + 1 over ``_RESUME_WINDOW`` steps, a
    window that doubles up to ``_STEP_WINDOW`` while no step fails.
    """
    drift = config.drift
    params = drift.param_dict
    n, delta = config.grid_points, config.mesh
    tt = config.grid.points
    dz = np.diff(noise.values)
    values = np.empty(n + 1)
    residuals = np.zeros(n + 1)
    values[0] = config.y0

    if mode == "closed_form_cir":
        def steps(y, w0, w1):
            return _cir_steps(y, dz[w0:w1].tolist(), params, delta)
    else:
        scale = _tsb_scale(delta, params["kappa3"])
        phi, psi = drift.bounds.values(tt)

        def steps(y, w0, w1):
            lo, hi = phi[w0 + 1:w1 + 1], psi[w0 + 1:w1 + 1]
            return _tsb_steps(y, dz[w0:w1].tolist(),
                              _tsb_affine(lo, hi, delta, params["kappa1"],
                                          params["kappa2"], scale),
                              lo.tolist(), hi.tolist(), scale)

    start, window = 0, _STEP_WINDOW
    while start < n:
        stop = min(n, start + window)
        out = steps(float(values[start]), start, stop)
        k = start + len(out)  # the last step the kernel took
        values[start + 1:k + 1] = out
        if out:
            t = tt[start + 1:k + 1]
            y = values[start + 1:k + 1]
            z = values[start:k] + dz[start:k]
            try:
                resid = np.abs(y - drift.b(t, y) * delta - z)
            except DomainError as exc:
                k = start + 1 + int(np.argmin(drift.bounds.inside(t, y)))
                raise StepError(f"step {k} (t={tt[k]:.6g}): {exc}") from exc
            ok = resid <= tol * np.maximum(1.0, np.abs(z))  # False on NaN
            j = int(np.argmin(ok))
            if not ok[j]:
                k = start + j
            residuals[start + 1:k + 1] = resid[:k - start]
        if k == stop:
            start, window = stop, min(2 * window, _STEP_WINDOW)
            continue
        k += 1
        values[k], residuals[k] = _generic_step(
            drift, float(tt[k]), delta, float(values[k - 1] + dz[k - 1]), tol, k)
        start, window = k, _RESUME_WINDOW
    return values, residuals


def _generic_step(drift: DriftSpec, t_next: float, delta: float, z: float,
                  tol: float, k: int) -> tuple:
    """Step k by the bracketed solver: (y, residual).

    A failure raises StepError (or its subclass) naming the step; a
    drift's DomainError becomes a StepError.
    """
    try:
        return implicit_step_generic(drift, t_next, delta, z, tol=tol)
    except (StepError, DomainError) as exc:
        kind = type(exc) if isinstance(exc, StepError) else StepError
        raise kind(f"step {k} (t={t_next:.6g}, rhs={z:.6g}): {exc}") from exc


def check_sandwich(path: SimulatedPath, config: SandwichConfig,
                   lam_hat: Optional[float] = None) -> SandwichReport:
    """Verify the strict sandwich at every grid point, and optionally the
    theoretical envelope computed from an estimated Holder constant.

    The envelope check is a soft diagnostic: a grid-based estimate of the
    Holder constant underestimates the true pathwise one.
    """
    tt = path.grid.points
    strict = config.drift.bounds.inside(tt, path.values)
    violations = tuple(int(i) for i in np.nonzero(~strict)[0])

    envelope_ok = None
    env_violations = ()
    if lam_hat is not None:
        env_lo, env_hi = theoretical_envelope(config, lam_hat, tt)
        inside = (path.values >= env_lo) & (path.values <= env_hi)
        env_violations = tuple(int(i) for i in np.nonzero(~inside)[0])
        envelope_ok = not env_violations
    return SandwichReport(strict_ok=not violations, violations=violations,
                          envelope_ok=envelope_ok,
                          envelope_violations=env_violations,
                          lam_hat=lam_hat)
