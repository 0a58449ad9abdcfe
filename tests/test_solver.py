import math
import re
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sandwiched_sde.model import (
    BoundFunctions,
    DomainError,
    DriftSpec,
    SandwichConfig,
    cir_drift,
    constant_bound,
    max_mesh,
    power_sandwich_drift,
    sin_bound,
    tsb_drift,
)
from sandwiched_sde.noise import NoisePath, TimeGrid, brownian, fbm, generate_noise
from sandwiched_sde import solver
from sandwiched_sde.solver import (
    SimulatedPath,
    StepError,
    check_sandwich,
    implicit_step_cir,
    implicit_step_generic,
    implicit_step_tsb,
    simulate,
)


def bisection_oracle(drift, t_next, delta, rhs, lo, hi, tol=1e-13):
    """Independent root finder for y - b(t,y)*delta = rhs by pure bisection."""
    def g(y):
        return y - drift.b(t_next, y) * delta - rhs
    assert g(lo) < 0.0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def exact_cir_step(y_prev, delta, dz, kappa1, kappa2):
    """The positive CIR step root in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        z = Decimal(y_prev) + Decimal(dz)
        scale = 1 + Decimal(kappa2) * Decimal(delta)
        c = 4 * Decimal(kappa1) * Decimal(delta) * scale
        return float((z + (z * z + c).sqrt()) / (2 * scale))


def symmetric_tsb(kappa=1.0, kappa3=0.0, lam=0.7):
    bounds = BoundFunctions(constant_bound(-1.0), constant_bound(1.0),
                            lam, 0.0, 1.0)
    return tsb_drift(kappa / 2.0, kappa / 2.0, kappa3, bounds)


CIR_11 = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)


class TestImplicitStepCir:
    def test_equilibrium_is_fixed_point(self):
        # y = z + (1/y - y)*delta has the root y = 1 when z = 1.
        assert implicit_step_cir(CIR_11, 0.5, 0.25, 1.0 + 0.0) == pytest.approx(
            1.0, abs=1e-15)

    def test_closed_form_value(self):
        got = implicit_step_cir(CIR_11, 0.5, 0.1, 0.4 + 0.1)
        assert got == pytest.approx((0.5 + math.sqrt(0.69)) / 2.2, rel=1e-15)

    def test_positive_under_extreme_shock(self):
        y = implicit_step_cir(CIR_11, 0.5, 0.1, 1.0 - 100.0)
        assert y > 0.0

    @pytest.mark.parametrize("dz", [-1e5, -1e8])
    def test_large_negative_shock_has_no_cancellation(self, dz):
        # The textbook root (z + sqrt(z^2 + c)) / (2s) cancels for z << 0:
        # it gave 1.004e-9 at dz = -1e5 and exactly 0.0 at dz = -1e8.
        got = implicit_step_cir(CIR_11, 0.5, 1e-4, 0.0 + dz)
        assert got == pytest.approx(exact_cir_step(0.0, 1e-4, dz, 1.0, 1.0),
                                    rel=1e-14, abs=0.0)

    def test_agrees_with_bisection_oracle(self):
        rng = np.random.default_rng(2024)
        drift_cache = {}
        for _ in range(1000):
            kappa1 = rng.uniform(0.1, 3.0)
            kappa2 = rng.uniform(0.1, 3.0)
            delta = rng.uniform(0.001, 0.2)
            y_prev = rng.uniform(0.01, 5.0)
            dz = rng.normal()
            key = (kappa1, kappa2)
            if key not in drift_cache:
                drift_cache[key] = cir_drift(kappa1, kappa2, 1.0, 0.7, 1.0)
            drift = drift_cache[key]
            rhs = y_prev + dz
            closed = implicit_step_cir(drift, 0.5, delta, rhs)
            oracle = bisection_oracle(drift, 0.5, delta, rhs,
                                      lo=1e-14, hi=abs(rhs) + 10.0)
            assert closed == pytest.approx(oracle, abs=1e-10, rel=1e-10)


def tsb_cubic(z, delta, k1, k2, k3, phi, psi):
    """Monic cubic coefficients (B2, B1, B0) of the TSB step with rhs z,
    from the z-independent parts the kernel computes on the grid."""
    scale = solver._tsb_scale(delta, k3)
    (c2,), (c1,), (e1,), (c0,), (e0,) = solver._tsb_affine(
        np.array([phi]), np.array([psi]), delta, k1, k2, scale)
    return c2 - z / scale, c1 + e1 * z, c0 - e0 * z


class TestTsbCoefficients:
    def test_symmetric_resting_state(self):
        b2, b1, b0 = tsb_cubic(0.0, 0.1, 0.5, 0.5, 0.0, -1.0, 1.0)
        assert (b2, b0) == (0.0, 0.0)
        assert b1 == pytest.approx(-1.1, rel=1e-15)

    def test_zero_mesh_factorizes(self):
        # At delta = 0 the cubic must be (y - phi)(y - psi)(y - z).
        rng = np.random.default_rng(7)
        for _ in range(50):
            phi = rng.uniform(-2.0, 0.0)
            psi = phi + rng.uniform(0.5, 2.0)
            z = rng.normal()
            b2, b1, b0 = tsb_cubic(z, 0.0, 1.0, 1.0, 0.3, phi, psi)
            assert b2 == pytest.approx(-(phi + psi + z), rel=1e-13, abs=1e-13)
            assert b1 == pytest.approx(phi * psi + (phi + psi) * z,
                                       rel=1e-13, abs=1e-13)
            assert b0 == pytest.approx(-phi * psi * z, rel=1e-13, abs=1e-13)

    def test_polynomial_identity(self):
        # Multiplying the implicit equation by (y-phi)(psi-y) must give
        # -(1 + delta*kappa3) times the monic cubic.
        rng = np.random.default_rng(11)
        for _ in range(200):
            phi = rng.uniform(-2.0, 0.0)
            psi = phi + rng.uniform(0.5, 2.0)
            z = rng.normal()
            delta = rng.uniform(0.0, 0.3)
            k1, k2 = rng.uniform(0.1, 2.0, 2)
            k3 = rng.uniform(-1.0, 1.0)
            b2, b1, b0 = tsb_cubic(z, delta, k1, k2, k3, phi, psi)
            for y in rng.uniform(phi - 1.0, psi + 1.0, 4):
                implicit = ((y - z) * (y - phi) * (psi - y)
                            - delta * k1 * (psi - y)
                            + delta * k2 * (y - phi)
                            + delta * k3 * y * (y - phi) * (psi - y))
                cubic = y ** 3 + b2 * y ** 2 + b1 * y + b0
                assert cubic == pytest.approx(
                    -implicit / (1.0 + delta * k3), rel=1e-10, abs=1e-10)

    def test_rejects_degenerate_scale(self):
        # delta = 1 with kappa3 = -1 makes 1 + delta*kappa3 vanish.
        with pytest.raises(StepError):
            implicit_step_tsb(symmetric_tsb(kappa3=-1.0), 0.5, 1.0, 0.0)


def depressed(b2, b1, b0):
    """(p, q, disc, shift) of y^3 + b2 y^2 + b1 y + b0 in the kernel's
    shift form y = u - b2/3, u^3 + 3p u + 2q = 0, disc = p^3 + q^2."""
    shift = b2 / 3.0
    p = b1 / 3.0 - shift * shift
    q = shift * (shift * shift - 0.5 * b1) + 0.5 * b0
    return p, q, p * p * p + q * q, shift


class TestCardanoSolve:
    def test_three_simple_roots(self):
        # For delta > 0 the step cubic has one real root below phi, one
        # inside and one above psi: the trigonometric branch keeps the
        # middle one.
        drift = symmetric_tsb(kappa3=0.25)
        for z in (-3.0, -0.75, 0.0, 0.2, 0.9, 5.0):
            coefs = tsb_cubic(z, 0.1, 0.5, 0.5, 0.25, -1.0, 1.0)
            assert depressed(*coefs)[2] < 0.0
            roots = np.sort(np.roots([1.0, *coefs]).real)
            assert roots[0] < -1.0 < roots[1] < 1.0 < roots[2]
            assert implicit_step_tsb(drift, 0.5, 0.1, z) == pytest.approx(
                roots[1], abs=1e-14)

    @pytest.mark.parametrize("coefs, phi, psi", [
        # y^3 + y: one real root, 0, and the pair +-i.
        ((0.0, 1.0, 0.0), -1.0, 1.0),
        # (y - 1)^3: p = q = 0.
        ((-3.0, 3.0, -1.0), 0.0, 2.0),
    ])
    def test_kernel_stops_where_roots_are_not_three_real(self, coefs, phi,
                                                         psi):
        # A first step with the roots -1.05, 0, 1.05 of y^3 - 1.1 y is
        # taken; the kernel stops before the second, whose cubic has
        # p^3 + q^2 >= 0.
        b2, b1, b0 = coefs
        assert depressed(b2, b1, b0)[2] >= 0.0
        affine = ([0.0, b2], [-1.1, b1], [0.0, 0.0], [0.0, b0], [0.0, 0.0])
        out = solver._tsb_steps(0.0, [0.0, 0.0], affine, [-1.0, phi],
                                [1.0, psi], 1.0)
        assert len(out) == 1 and abs(out[0]) < 1e-15
        assert solver._tsb_steps(0.0, [0.0], [c[1:] for c in affine],
                                 [phi], [psi], 1.0) == []


class TestImplicitStepTsb:
    def test_symmetric_zero(self):
        assert implicit_step_tsb(symmetric_tsb(), 0.5, 0.1, 0.0) == \
            pytest.approx(0.0, abs=1e-14)

    def test_stays_inside_for_extreme_shocks(self):
        drift = symmetric_tsb()
        for rhs in (-10.0, -1.0, 1.0, 10.0):
            y = implicit_step_tsb(drift, 0.5, 0.05, rhs)
            assert -1.0 < y < 1.0

    def test_agrees_with_bisection_oracle(self):
        rng = np.random.default_rng(31)
        drift = symmetric_tsb(kappa=1.0, kappa3=0.25)
        for _ in range(1000):
            delta = rng.uniform(0.001, 0.2)
            rhs = rng.normal(scale=2.0)
            got = implicit_step_tsb(drift, 0.5, delta, rhs)
            oracle = bisection_oracle(drift, 0.5, delta, rhs,
                                      lo=-1.0 + 1e-14, hi=1.0 - 1e-14)
            assert got == pytest.approx(oracle, abs=1e-10, rel=1e-10)


class TestImplicitStepGeneric:
    def test_identity_when_drift_vanishes(self):
        bounds = BoundFunctions(constant_bound(-1e6), None, 0.5, 0.0, 1.0)
        drift = DriftSpec(b=lambda t, y: 0.0, db_dy=lambda t, y: 0.0,
                          c1=1.0, p=2.0, c2=1.0, gamma=1.0, y_star=1.0,
                          c3=1.0, kind="one-sided", bounds=bounds)
        for rhs in (-3.0, 0.0, 0.3, 12.5):
            y, _ = implicit_step_generic(drift, 0.5, 0.1, rhs)
            assert y == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_matches_cir_closed_form(self):
        drift = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
        rng = np.random.default_rng(17)
        for _ in range(300):
            delta = rng.uniform(0.001, 0.2)
            y_prev = rng.uniform(0.05, 4.0)
            dz = rng.normal()
            generic, _ = implicit_step_generic(drift, 0.5, delta, y_prev + dz)
            closed = implicit_step_cir(drift, 0.5, delta, y_prev + dz)
            assert generic == pytest.approx(closed, abs=1e-10, rel=1e-10)

    def test_matches_tsb_cardano(self):
        drift = symmetric_tsb()
        rng = np.random.default_rng(19)
        for _ in range(300):
            delta = rng.uniform(0.001, 0.2)
            rhs = rng.normal(scale=1.5)
            generic, _ = implicit_step_generic(drift, 0.5, delta, rhs)
            assert generic == pytest.approx(
                implicit_step_tsb(drift, 0.5, delta, rhs), abs=1e-10, rel=1e-10)

    def test_monotone_in_rhs(self):
        drift = cir_drift(2.0, 0.5, 2.0, 0.5, 1.0)
        ys = []
        for rhs in np.linspace(-3.0, 3.0, 13):
            ys.append(implicit_step_generic(drift, 0.3, 0.05, rhs)[0])
        assert all(a < b for a, b in zip(ys, ys[1:]))
        assert all(y > 0.0 for y in ys)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            implicit_step_generic(CIR_11, 0.5, 0.1, 1.0, tol=0.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            implicit_step_generic(CIR_11, 0.5, 0.1, 1.0, tol=math.nan)
        # A NaN tolerance fails every closed-form check, and the generic
        # step it falls back to rejects it.
        cfg = SandwichConfig(1.0, CIR_11, 8)
        with pytest.raises(ValueError, match="tol must be positive"):
            simulate(cfg, zero_noise(cfg.grid), tol=math.nan)

    def test_returns_checked_residual(self):
        # The residual is |g(y) - rhs| as the contract checked it, with the
        # bits of the expression simulate() reports.
        rng = np.random.default_rng(23)
        for drift, t in ((CIR_11, 0.5), (symmetric_tsb(kappa3=0.25), 0.5),
                         (sin_barrier_tsb(), 0.37)):
            lo = float(drift.bounds.phi(t))
            for rhs in rng.normal(lo + 1.0, 2.0, 50):
                y, resid = implicit_step_generic(drift, t, 0.05, rhs)
                assert resid == abs(y - drift.b(t, y) * 0.05 - rhs)
                assert resid <= 1e-12 * max(1.0, abs(rhs))


def zero_noise(grid):
    return NoisePath(grid=grid, values=np.zeros(grid.n + 1), seed=0,
                     spec=brownian())


class TestSimulate:
    def test_equilibrium_stays_constant(self):
        cfg = SandwichConfig(1.0, cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), 128)
        path = simulate(cfg, zero_noise(cfg.grid))
        assert np.allclose(path.values, 1.0, atol=1e-12)

    def test_refuses_overcoarse_mesh(self):
        cfg = SandwichConfig(1.0, cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), 1)
        with pytest.raises(ValueError):
            simulate(cfg, zero_noise(cfg.grid))
        path = simulate(cfg, zero_noise(cfg.grid), unsafe_mesh=True)
        assert path.values[-1] > 0.0

    def test_rejects_mismatched_grid(self):
        cfg = SandwichConfig(1.0, cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), 128)
        with pytest.raises(ValueError):
            simulate(cfg, zero_noise(TimeGrid(1.0, 64)))

    def test_deterministic(self):
        cfg = SandwichConfig(1.0, cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), 256)
        noise = generate_noise(fbm(0.7), cfg.grid, 42)
        a = simulate(cfg, noise)
        b = simulate(cfg, noise)
        assert np.array_equal(a.values, b.values)

    def test_residual_contract(self):
        cfg = SandwichConfig(1.0, cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), 512)
        noise = generate_noise(fbm(0.7), cfg.grid, 3)
        tol = 1e-12
        path = simulate(cfg, noise, tol=tol)
        drift = cfg.drift
        delta = cfg.mesh
        for k in range(cfg.grid_points):
            z = path.values[k] + noise.values[k + 1] - noise.values[k]
            y = path.values[k + 1]
            resid = abs(y - drift.b(path.grid.points[k + 1], y) * delta - z)
            assert resid <= tol * max(1.0, abs(z))

    def test_closed_and_generic_paths_agree(self):
        cfg = SandwichConfig(1.0, cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), 256)
        noise = generate_noise(fbm(0.7), cfg.grid, 8)
        a = simulate(cfg, noise, stepper="closed")
        b = simulate(cfg, noise, stepper="generic")
        assert a.stepper == "closed_form_cir"
        assert b.stepper == "bracketed_generic"
        assert np.allclose(a.values, b.values, atol=1e-8)

    def test_tsb_sandwich_preserved(self):
        cfg = SandwichConfig(0.0, symmetric_tsb(), 256)
        for seed in range(20):
            noise = generate_noise(fbm(0.7), cfg.grid, seed)
            path = simulate(cfg, noise)
            assert path.stepper == "cardano_tsb"
            assert np.all(path.values > -1.0)
            assert np.all(path.values < 1.0)

    def test_power_sandwich_between_moving_barriers(self):
        bounds = BoundFunctions(sin_bound(0.0, 1.0, 10.0),
                                sin_bound(2.0, 1.0, 10.0), 0.3, 20.0, 1.0)
        drift = power_sandwich_drift(1.0, 1.0, 4.0, bounds)
        cfg = SandwichConfig(1.0, drift, 256)
        for seed in range(5):
            noise = generate_noise(fbm(0.35), cfg.grid, seed)
            path = simulate(cfg, noise)
            assert path.stepper == "bracketed_generic"
            tt = path.grid.points
            assert np.all(path.values > np.sin(10.0 * tt))
            assert np.all(path.values < np.sin(10.0 * tt) + 2.0)

    @pytest.mark.parametrize("stepper", ["closed_form_cir", "cardano_tsb",
                                         "bracketed_generic", "magic"])
    def test_rejects_route_labels_as_stepper(self, stepper):
        # Route labels name what ran; the input is auto, closed or generic.
        cfg = SandwichConfig(1.0, CIR_11, 8)
        with pytest.raises(ValueError, match="unknown stepper"):
            simulate(cfg, zero_noise(cfg.grid), stepper=stepper)

    def test_drift_domain_error_names_the_step(self):
        # A one-sided drift defined only up to y = 3: the third step's
        # bracket search evaluates it above 3.
        def b(t, y):
            if y > 3.0:
                raise DomainError(f"y={y} above 3")
            return 1.0 / y

        def db_dy(t, y):
            if y > 3.0:
                raise DomainError(f"y={y} above 3")
            return -1.0 / (y * y)

        bounds = BoundFunctions(constant_bound(0.0), None, 0.5, 0.0, 1.0)
        drift = DriftSpec(b=b, db_dy=db_dy, c1=1.0, p=2.0, c2=1.0, gamma=1.0,
                          y_star=1.0, c3=1.0, kind="one-sided", bounds=bounds)
        cfg = SandwichConfig(1.0, drift, 8)
        values = np.array([0.0, 0.1, 0.2, 4.2, 4.2, 4.2, 4.2, 4.2, 4.2])
        noise = NoisePath(grid=cfg.grid, values=values, seed=0, spec=brownian())
        with pytest.raises(StepError, match=r"^step 3 "):
            simulate(cfg, noise, stepper="generic")

    def test_closed_stepper_unavailable_for_power_gamma(self):
        bounds = BoundFunctions(constant_bound(-1.0), constant_bound(1.0),
                                0.4, 0.0, 1.0)
        drift = power_sandwich_drift(1.0, 1.0, 3.0, bounds)
        cfg = SandwichConfig(0.0, drift, 128)
        with pytest.raises(ValueError):
            simulate(cfg, zero_noise(cfg.grid), stepper="closed")


def stepwise_reference(cfg, noise, tol=1e-12):
    """simulate() rebuilt from the public one-step solvers."""
    tt = cfg.grid.points.tolist()
    dz = np.diff(noise.values).tolist()
    values = [float(cfg.y0)]
    for k in range(cfg.grid_points):
        values.append(reference_step(cfg, tt[k + 1], values[-1], dz[k], tol))
    return np.array(values)


def reference_step(cfg, t_next, y_prev, dz, tol=1e-12):
    """One step of simulate() from the public one-step solvers.

    The step takes the closed form (the generic solver where the cubic
    has no unique root inside the barriers) and is polished by the
    generic solver whenever it misses the residual contract.
    """
    drift = cfg.drift
    delta = cfg.mesh
    z = y_prev + dz
    if drift.family == "cir":
        y = implicit_step_cir(drift, t_next, delta, z)
    else:
        try:
            y = implicit_step_tsb(drift, t_next, delta, z)
        except StepError:
            y, _ = implicit_step_generic(drift, t_next, delta, z, tol=tol)
    if abs(y - drift.b(t_next, y) * delta - z) > tol * max(1.0, abs(z)):
        y, _ = implicit_step_generic(drift, t_next, delta, z, tol=tol)
    return y


def sin_barrier_tsb():
    bounds = BoundFunctions(sin_bound(0.0, 1.0, 10.0),
                            sin_bound(2.0, 1.0, 10.0), 0.69, 20.0, 1.0)
    return power_sandwich_drift(1.0, 1.0, 1.0, bounds)


def one_step_noise(cfg, dz):
    return NoisePath(grid=cfg.grid, values=np.array([0.0, dz]), seed=0,
                     spec=brownian())


class TestClosedFormLoop:
    def test_cir_matches_stepwise_reference(self):
        cfg = SandwichConfig(0.2, cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), 1024)
        for seed in range(3):
            noise = generate_noise(fbm(0.7), cfg.grid, seed)
            path = simulate(cfg, noise)
            assert path.stepper == "closed_form_cir"
            assert np.array_equal(path.values, stepwise_reference(cfg, noise))

    def test_tsb_matches_stepwise_reference(self):
        cfg = SandwichConfig(0.3, symmetric_tsb(kappa3=0.25), 1024)
        for seed in range(3):
            noise = generate_noise(fbm(0.7), cfg.grid, seed)
            path = simulate(cfg, noise)
            assert path.stepper == "cardano_tsb"
            assert np.array_equal(path.values, stepwise_reference(cfg, noise))

    def test_sin_barrier_tsb_matches_stepwise_reference(self):
        cfg = SandwichConfig(1.0, sin_barrier_tsb(), 1024)
        for seed in range(3):
            noise = generate_noise(fbm(0.7), cfg.grid, seed)
            path = simulate(cfg, noise)
            assert path.stepper == "cardano_tsb"
            # The loop evaluates the barriers on the whole grid and the
            # reference one time point at a time; np.sin need not round
            # both the same way on every build.
            np.testing.assert_allclose(path.values,
                                       stepwise_reference(cfg, noise),
                                       rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("drift, y0, tol, exact", [
        (symmetric_tsb(), 0.0, 3e-16, True),
        (sin_barrier_tsb(), 1.0, 1e-15, False),
    ])
    def test_polish_resumes_closed_form(self, monkeypatch, drift, y0, tol, exact):
        # A tolerance at the round-off floor makes some closed-form steps
        # miss the contract, so they are polished and the loop resumes.
        polished = []
        generic = solver.implicit_step_generic

        def counting(drift, t_next, delta, rhs, tol=solver.DEFAULT_TOL):
            polished.append(t_next)
            return generic(drift, t_next, delta, rhs, tol=tol)

        monkeypatch.setattr(solver, "implicit_step_generic", counting)
        cfg = SandwichConfig(y0, drift, 1024)
        noise = generate_noise(fbm(0.7), cfg.grid, 3)
        path = simulate(cfg, noise, tol=tol)
        assert 0 < len(polished) < cfg.grid_points
        ref = stepwise_reference(cfg, noise, tol=tol)
        if exact:
            assert np.array_equal(path.values, ref)
        else:
            np.testing.assert_allclose(path.values, ref, rtol=1e-13, atol=0.0)
        z = path.values[:-1] + np.diff(noise.values)
        assert np.all(path.residuals[1:] <= tol * np.maximum(1.0, np.abs(z)))
        if exact:
            tt = cfg.grid.points
            for k in range(1, cfg.grid_points + 1):
                y = path.values[k]
                assert path.residuals[k] == abs(
                    y - drift.b(tt[k], y) * cfg.mesh - z[k - 1])

    def test_cardano_without_unique_root_falls_back_to_generic(self):
        # Near phi = 0 the cubic's roots are lost to round-off of its
        # 1e8-sized coefficients; the generic solver still finds the step.
        bounds = BoundFunctions(constant_bound(0.0), constant_bound(1.0),
                                0.7, 0.0, 0.25)
        drift = tsb_drift(0.5, 0.5, 0.0, bounds)
        cfg = SandwichConfig(0.5, drift, 1)
        with pytest.raises(StepError):
            implicit_step_tsb(drift, 0.25, 0.25, 0.5 - 1e8)
        path = simulate(cfg, one_step_noise(cfg, -1e8))
        assert path.stepper == "cardano_tsb"
        assert path.values[1] == implicit_step_generic(drift, 0.25, 0.25,
                                                       0.5 - 1e8)[0]
        assert 0.0 < path.values[1] < 1.0

    @staticmethod
    def lost_roots_path(n=1024, shock_at=900):
        """TSB on barriers 0 and 1 whose noise drops by 1e8 at step
        ``shock_at``: from there on the cubic's roots are lost to
        round-off of its 1e8-sized coefficients."""
        bounds = BoundFunctions(constant_bound(0.0), constant_bound(1.0),
                                0.7, 0.0, 1.0)
        cfg = SandwichConfig(0.5, tsb_drift(0.5, 0.5, 0.0, bounds), n)
        values = 0.1 * generate_noise(fbm(0.7), cfg.grid, 3).values
        values[shock_at:] -= 1e8
        return cfg, NoisePath(grid=cfg.grid, values=values, seed=3,
                              spec=brownian())

    @staticmethod
    def record_generic(monkeypatch, fail=False):
        seen = []
        generic = solver.implicit_step_generic

        def recording(drift, t_next, delta, rhs, tol=solver.DEFAULT_TOL):
            seen.append(t_next)
            if fail:
                raise StepError("no generic solver")
            return generic(drift, t_next, delta, rhs, tol=tol)

        monkeypatch.setattr(solver, "implicit_step_generic", recording)
        return seen

    def test_failing_generic_step_names_first_failing_step(self, monkeypatch):
        # At the round-off tolerance floor contract misses come long
        # before the lost roots; the error names the first of them.
        cfg, noise = self.lost_roots_path()
        seen = self.record_generic(monkeypatch)
        simulate(cfg, noise, tol=3e-16)
        first = int(np.searchsorted(cfg.grid.points, seen[0]))
        assert 0 < first < 900
        self.record_generic(monkeypatch, fail=True)
        with pytest.raises(StepError, match=rf"^step {first} "):
            simulate(cfg, noise, tol=3e-16)

    def test_generic_solver_sees_each_step_once(self, monkeypatch):
        cfg, noise = self.lost_roots_path()
        seen = self.record_generic(monkeypatch)
        path = simulate(cfg, noise, tol=3e-16)
        assert path.stepper == "cardano_tsb"
        assert cfg.grid.points[900] in seen
        assert len(seen) == len(set(seen))

    def test_lost_roots_mid_path_resume_closed_form(self, monkeypatch):
        cfg, noise = self.lost_roots_path(n=256, shock_at=100)
        seen = self.record_generic(monkeypatch)
        with mock.patch.object(solver, "_STEP_WINDOW", 64):
            path = simulate(cfg, noise)
        assert seen == [cfg.grid.points[100]]
        assert path.stepper == "cardano_tsb"
        assert np.array_equal(path.values, stepwise_reference(cfg, noise))

    def test_out_of_domain_value_names_first_bad_step(self):
        # z = -1e300 overflows z*z, so the CIR root underflows to 0.0.
        cfg = SandwichConfig(1.0, cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), 16)
        values = np.zeros(17)
        values[5:] = -1e300
        noise = NoisePath(grid=cfg.grid, values=values, seed=0, spec=brownian())
        with pytest.raises(StepError, match=r"^step 5 "):
            simulate(cfg, noise)

    def test_unattainable_contract_raises_typed_error(self):
        # At rhs = 1e6 the root lies 1.25e-7 below psi = 1, where one ulp
        # of y moves the residual by far more than tol * |rhs|.
        drift = tsb_drift(0.5, 0.5, 0.0, BoundFunctions(
            constant_bound(-1.0), constant_bound(1.0), 0.7, 0.0, 0.25))
        cfg = SandwichConfig(0.0, drift, 1)
        with pytest.raises(StepError, match=r"^step 1 "):
            simulate(cfg, one_step_noise(cfg, 1e6))


    def test_unattainable_contract_names_both_neighbours(self):
        # kappa1 = kappa2 = 0.5, barriers +-1, N = 2^14: a one-step shock
        # to rhs = 2.5 puts the root about 5e-6 below psi = 1, where the
        # residual jumps by more than the bound between adjacent doubles.
        drift = tsb_drift(0.5, 0.5, 0.0, BoundFunctions(
            constant_bound(-1.0), constant_bound(1.0), 0.7, 0.0, 1.0))
        cfg = SandwichConfig(0.0, drift, 2 ** 14)
        values = np.full(cfg.grid_points + 1, 2.5)
        values[0] = 0.0
        noise = NoisePath(grid=cfg.grid, values=values, seed=0, spec=brownian())
        for stepper in ("auto", "generic"):
            with pytest.raises(solver.UnattainableContractError,
                               match=r"^step 1 ") as info:
                simulate(cfg, noise, stepper=stepper)
            assert isinstance(info.value, StepError)
            found = re.search(r"doubles (\S+) and (\S+) leave residuals (\S+) "
                              r"and (\S+), bound tol\*max\(1,\|rhs\|\) = (\S+)$",
                              str(info.value))
            lo, hi = float(found[1]), float(found[2])
            assert math.nextafter(lo, hi) == hi < 1.0
            bound = float(found[5])
            assert bound == pytest.approx(2.5e-12)
            t = cfg.grid.points[1]
            for y, printed in ((lo, found[3]), (hi, found[4])):
                resid = y - drift.b(t, y) * cfg.mesh - 2.5
                assert f"{resid:.3e}" == printed
                assert abs(resid) > bound


_HORIZON = 0.25
_MAGNITUDE = st.floats(1e-12, 1e12)
_SIGNED = st.builds(lambda sign, m: sign * m, st.sampled_from((-1.0, 1.0)),
                    _MAGNITUDE)
# Near psi = 1 the spacing of doubles bounds the attainable residual: the
# contract tol * |rhs| fails from rhs ~ 1e3 on (see the test above).
_TSB_RHS = st.one_of(st.floats(-1e12, -1e-12), st.floats(1e-12, 1e2))
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


class TestStepProperties:
    """One step of simulate() over right-hand sides of size 1e-12 to 1e12:
    strictly inside, residual contract, monotone in the right-hand side."""

    cir = cir_drift(1.0, 1.0, 1.0, 0.7, _HORIZON)
    tsb = tsb_drift(0.5, 0.5, 0.0, BoundFunctions(
        constant_bound(0.0), constant_bound(1.0), 0.7, 0.0, _HORIZON))

    @staticmethod
    def check(drift, y0, rhs_pair, tol=1e-12):
        cfg = SandwichConfig(y0, drift, 1)
        steps = []
        for rhs in sorted(rhs_pair):
            dz = rhs - y0
            y = simulate(cfg, one_step_noise(cfg, dz), tol=tol).values[1]
            steps.append((y0 + dz, y))
        (z_lo, y_lo), (z_hi, y_hi) = steps
        for z, y in steps:
            assert y > 0.0
            if drift.kind == "two-sided":
                assert y < 1.0
            resid = abs(y - drift.b(_HORIZON, y) * _HORIZON - z)
            assert resid <= tol * max(1.0, abs(z))
        # Monotone wherever the right-hand sides differ by more than the
        # solver tolerance can blur.
        if z_hi - z_lo > 1e-9 * max(1.0, abs(z_lo), abs(z_hi)):
            assert y_lo <= y_hi

    @_PROPERTY
    @given(st.tuples(_SIGNED, _SIGNED))
    def test_cir_step(self, rhs_pair):
        self.check(self.cir, 1.0, rhs_pair)

    @_PROPERTY
    @given(st.tuples(_TSB_RHS, _TSB_RHS))
    def test_tsb_step(self, rhs_pair):
        self.check(self.tsb, 0.5, rhs_pair)



# A right-hand side: a barrier value plus a small signed offset, where the
# barrier and the root outside it nearly make a double root of the cubic,
# or a free value with |rhs| from 1e-12 to 1e2.
_NEAR_BARRIER = st.tuples(st.sampled_from(("phi", "psi")),
                          st.sampled_from((-1.0, 1.0)), st.floats(1e-12, 1e-2))
_FREE_RHS = st.tuples(st.just("free"), st.sampled_from((-1.0, 1.0)),
                      st.floats(1e-12, 1e2))


class TestTsbKernelProperty:
    """The windowed TSB loop of simulate() against the chain of one-step
    solves, over admissible parameters and meshes."""

    @staticmethod
    def config(kappa1, kappa2, kappa3, share, sin_barriers, n):
        # delta*kappa >= 0.08 keeps rhs = 1e2 inside what the residual
        # contract can attain next to a barrier (see TestStepProperties).
        mesh = share * 0.99 / max(1.0, 1.0 - kappa3)
        if sin_barriers:
            phi, psi, y0, holder = (sin_bound(0.0, 1.0, 10.0),
                                    sin_bound(2.0, 1.0, 10.0), 1.0, 20.0)
        else:
            phi, psi, y0, holder = (constant_bound(-1.0), constant_bound(1.0),
                                    0.0, 0.0)
        bounds = BoundFunctions(phi, psi, 0.7, holder, n * mesh)
        cfg = SandwichConfig(y0, tsb_drift(kappa1, kappa2, kappa3, bounds), n)
        assert cfg.mesh <= max_mesh(cfg)
        return cfg

    @_PROPERTY
    @given(kappa1=st.floats(0.5, 3.0), kappa2=st.floats(0.5, 3.0),
           kappa3=st.one_of(st.floats(-2.0, -1e-3), st.floats(1e-3, 2.0)),
           share=st.floats(0.5, 0.999), sin_barriers=st.booleans(),
           targets=st.lists(st.one_of(_NEAR_BARRIER, _FREE_RHS),
                            min_size=1, max_size=12),
           window=st.sampled_from((1, 3, 7)))
    def test_windowed_loop_equals_step_chain(self, kappa1, kappa2, kappa3,
                                             share, sin_barriers, targets,
                                             window):
        cfg = self.config(kappa1, kappa2, kappa3, share, sin_barriers,
                          len(targets))
        drift, delta = cfg.drift, cfg.mesh
        tt = cfg.grid.points
        phi, psi = drift.bounds.phi(tt), drift.bounds.psi(tt)
        # Build the noise step by step so that each step sees its target.
        values, chain = [0.0], [cfg.y0]
        for k, (where, sign, size) in enumerate(targets, start=1):
            base = {"phi": phi[k], "psi": psi[k], "free": 0.0}[where]
            values.append(values[-1] + (base + sign * size - chain[-1]))
            chain.append(reference_step(cfg, tt[k], chain[-1],
                                        values[-1] - values[-2]))
        noise = NoisePath(grid=cfg.grid, values=np.array(values), seed=0,
                          spec=brownian())
        path = simulate(cfg, noise)
        with mock.patch.object(solver, "_STEP_WINDOW", window):
            windowed = simulate(cfg, noise)
        assert np.array_equal(windowed.values, path.values)
        assert np.array_equal(windowed.residuals, path.residuals)
        if sin_barriers:
            # np.sin need not round a scalar and an array alike.
            np.testing.assert_allclose(path.values, chain, rtol=1e-12,
                                       atol=1e-14)
        else:
            assert np.array_equal(path.values, chain)
        assert np.all((phi < path.values) & (path.values < psi))
        z = path.values[:-1] + np.diff(noise.values)
        bound = 1e-12 * np.maximum(1.0, np.abs(z))
        assert np.all(path.residuals[1:] <= bound)
        for k in range(1, cfg.grid_points + 1):
            y = path.values[k]
            assert abs(y - drift.b(tt[k], y) * delta - z[k - 1]) <= bound[k - 1]

class TestCheckSandwich:
    def _cfg(self, n=8):
        return SandwichConfig(1.0, cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), n)

    def test_reports_clean_path(self):
        cfg = self._cfg(128)
        path = simulate(cfg, generate_noise(fbm(0.7), cfg.grid, 1))
        report = check_sandwich(path, cfg)
        assert report.strict_ok
        assert report.violations == ()
        assert report.envelope_ok is None

    def test_detects_injected_violation(self):
        cfg = self._cfg(4)
        values = np.array([1.0, 0.9, -0.1, 0.8, 1.1])
        path = SimulatedPath(grid=cfg.grid, values=values, noise_seed=0,
                             stepper="closed_form_cir", residuals=np.zeros(5))
        report = check_sandwich(path, cfg)
        assert not report.strict_ok
        assert report.violations == (2,)

    def test_envelope_flags_grazing_path(self):
        cfg = self._cfg(4)
        values = np.array([1.0, 1.0, 1e-15, 1.0, 1.0])
        path = SimulatedPath(grid=cfg.grid, values=values, noise_seed=0,
                             stepper="closed_form_cir", residuals=np.zeros(5))
        report = check_sandwich(path, cfg, lam_hat=1.0)
        assert report.strict_ok
        assert report.envelope_ok is False
        assert 2 in report.envelope_violations
