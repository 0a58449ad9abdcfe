import math

import numpy as np
import pytest

from sandwiched_sde.model import (
    BoundConstants,
    BoundFunctions,
    DomainError,
    DriftSpec,
    SandwichConfig,
    bound_constants,
    cir_drift,
    ckls_transform,
    constant_bound,
    max_mesh,
    power_sandwich_drift,
    sin_bound,
    theoretical_envelope,
    tsb_drift,
    validate_assumptions,
)
from sandwiched_sde.noise import TimeGrid
from sandwiched_sde.solver import SimulatedPath


def symmetric_tsb(lam=0.7, kappa=1.0, horizon=1.0):
    bounds = BoundFunctions(constant_bound(-1.0), constant_bound(1.0),
                            lam, 0.0, horizon)
    return tsb_drift(kappa / 2.0, kappa / 2.0, 0.0, bounds)


def moving_barrier_drift(lam=0.3, horizon=1.0):
    k = abs(2.0 * 10.0) * horizon ** (1.0 - lam)  # joint for phi and psi
    bounds = BoundFunctions(sin_bound(0.0, 1.0, 10.0), sin_bound(2.0, 1.0, 10.0),
                            lam, 2.0 * 10.0 * horizon ** (1.0 - lam), horizon)
    del k
    return power_sandwich_drift(1.0, 1.0, 4.0, bounds)


class TestEvalDrift:
    def test_cir_equilibrium(self):
        d = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
        assert d.b(0.0, 1.0) == 0.0

    def test_cir_direct_value(self):
        d = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
        assert d.b(0.3, 2.0) == pytest.approx(-1.5, abs=1e-15)

    def test_tsb_symmetry_point(self):
        d = symmetric_tsb()
        assert d.b(0.0, 0.0) == 0.0

    def test_tsb_matches_rational_form(self):
        # -kappa*y/(1-y^2) == (kappa/2) * (1/(y+1) - 1/(1-y))
        kappa = 1.7
        d = symmetric_tsb(kappa=kappa)
        for y in np.linspace(-0.9, 0.9, 19):
            assert d.b(0.5, y) == pytest.approx(
                -kappa * y / (1.0 - y * y), rel=1e-12)

    def test_domain_error_not_nan(self):
        d = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
        with pytest.raises(DomainError):
            d.b(0.0, 0.0)
        with pytest.raises(DomainError):
            d.b(0.0, -1.0)
        t = symmetric_tsb()
        with pytest.raises(DomainError):
            t.b(0.0, 1.0)

    def test_power_sandwich_formula(self):
        d = moving_barrier_drift()
        t, y = 0.2, 1.2
        lo = math.sin(10 * t)
        assert d.b(t, y) == pytest.approx(
            1.0 / (y - lo) ** 4 - 1.0 / (lo + 2.0 - y) ** 4, rel=1e-12)


    def test_array_b_matches_scalar(self):
        tt = np.linspace(0.0, 1.0, 9)
        for d, ys in ((cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), np.linspace(0.1, 3.0, 9)),
                      (symmetric_tsb(), np.linspace(-0.9, 0.9, 9)),
                      (moving_barrier_drift(), np.sin(10.0 * tt) + 0.3)):
            got = d.b(tt, ys)
            assert got.shape == ys.shape
            np.testing.assert_allclose(
                got, [d.b(t, y) for t, y in zip(tt, ys)], rtol=1e-14)

    def test_array_b_raises_if_any_point_outside(self):
        tt = np.linspace(0.0, 1.0, 4)
        with pytest.raises(DomainError):
            cir_drift(1.0, 1.0, 1.0, 0.7, 1.0).b(tt, np.array([1.0, 0.5, 0.0, 2.0]))
        with pytest.raises(DomainError):
            symmetric_tsb().b(tt, np.array([0.0, 0.5, 1.0, -0.5]))
        with pytest.raises(DomainError):
            moving_barrier_drift().b(tt, np.sin(10.0 * tt) + np.array([0.5, 1.0, 2.0, 1.5]))


class TestValidateAssumptions:
    def test_cir_reference_parameters_all_pass(self):
        d = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
        report = validate_assumptions(SandwichConfig(1.0, d, 256))
        assert report.all_pass, str(report)

    def test_cir_bad_gamma_fails_power_check(self):
        d = cir_drift(1.0, 1.0, 0.3, 0.7, 1.0)
        report = validate_assumptions(SandwichConfig(1.0, d, 256))
        failed = {c.name for c in report.failed()}
        assert "(A3)" in failed

    def test_tsb_initial_value_inside(self):
        report = validate_assumptions(SandwichConfig(0.0, symmetric_tsb(), 256))
        b1 = next(c for c in report.checks if c.name == "(B1)")
        assert b1.status == "pass"

    def test_tsb_reference_parameters_all_pass(self):
        report = validate_assumptions(SandwichConfig(0.0, symmetric_tsb(), 256))
        assert report.all_pass, str(report)

    def test_power_sandwich_reference_parameters_all_pass(self):
        report = validate_assumptions(SandwichConfig(1.0, moving_barrier_drift(), 256))
        assert report.all_pass, str(report)

    def test_initial_value_outside_fails(self):
        report = validate_assumptions(SandwichConfig(1.5, symmetric_tsb(), 256))
        assert not report.all_pass


def manual_drift(c1=1.0, p=2.0, c2=1.0, gamma=1.0, y_star=0.5, c3=2.0,
                 kind="two-sided", lam=0.5):
    psi = constant_bound(1.0) if kind == "two-sided" else None
    bounds = BoundFunctions(constant_bound(0.0), psi, lam, 0.0, 1.0)
    return DriftSpec(b=lambda t, y: 0.0, db_dy=lambda t, y: 0.0,
                     c1=c1, p=p, c2=c2, gamma=gamma, y_star=y_star, c3=c3,
                     kind=kind, bounds=bounds)


class TestMaxMesh:
    def test_two_sided_uses_c3_only(self):
        d = manual_drift(c3=2.0, kind="two-sided")
        assert max_mesh(SandwichConfig(0.5, d, 4)) == pytest.approx(0.495)

    def test_one_sided_takes_worst_term(self):
        d = manual_drift(c1=4.0, p=2.0, c3=1.0, kind="one-sided")
        # y0 - phi(0) = 1 so the c1 term dominates: 0.99 / 4
        assert max_mesh(SandwichConfig(1.0, d, 8)) == pytest.approx(0.2475)

    def test_vacuous_constraint_clamps_to_horizon(self):
        d = manual_drift(c3=1e-12, kind="two-sided")
        assert max_mesh(SandwichConfig(0.5, d, 4)) == 1.0

    def test_condition_strict_and_monotone(self):
        d = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
        cfg = SandwichConfig(1.0, d, 8)
        assert max_mesh(cfg) * d.c3 < 1.0
        finer = SandwichConfig(1.0, d, 9)
        assert finer.mesh < max_mesh(finer)


class TestBoundConstants:
    def test_beta_at_half(self):
        # lambda = 1/2, c2 = 1: exponents are 1 and 2, so beta = 1/2 - 1/4.
        d = manual_drift(c2=1.0, gamma=3.0, lam=0.5)
        bc = bound_constants(SandwichConfig(0.5, d, 4))
        assert bc.beta == pytest.approx(0.25)

    def test_l1_closed_form(self):
        d = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
        bc = bound_constants(SandwichConfig(1.0, d, 256))
        expected = 1.0 / (2.0 ** (0.7 / 0.4) * bc.beta ** (0.3 / 0.4))
        assert bc.L1 == pytest.approx(expected, rel=1e-14)

    def test_pure_function(self):
        d = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
        cfg = SandwichConfig(1.0, d, 256)
        assert bound_constants(cfg) == bound_constants(cfg)

    def test_one_sided_has_upper_constants(self):
        d = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
        bc = bound_constants(SandwichConfig(1.0, d, 256))
        assert bc.L3 is not None and bc.L3 > 0
        assert bc.L4 is not None and bc.L4 > 0

    def test_two_sided_has_no_upper_constants(self):
        bc = bound_constants(SandwichConfig(0.0, symmetric_tsb(), 256))
        assert bc.L3 is None and bc.L4 is None

    def test_invalid_power_combination(self):
        d = manual_drift(gamma=0.5, lam=0.5)  # gamma*lam + lam - 1 < 0
        with pytest.raises(ValueError):
            bound_constants(SandwichConfig(0.5, d, 4))


class TestTheoreticalEnvelope:
    def test_lower_bound_decreases_with_holder_constant(self):
        d = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
        cfg = SandwichConfig(1.0, d, 256)
        lo1, _ = theoretical_envelope(cfg, 1.0, 0.5)
        lo2, _ = theoretical_envelope(cfg, 5.0, 0.5)
        assert lo2 < lo1
        lo3, _ = theoretical_envelope(cfg, 1e12, 0.5)
        assert 0.0 < lo3 < 1e-6  # approaches phi from above

    def test_two_sided_symmetry(self):
        cfg = SandwichConfig(0.0, symmetric_tsb(), 256)
        lo, hi = theoretical_envelope(cfg, 2.0, 0.3)
        assert hi - 1.0 == pytest.approx(-(lo + 1.0), rel=1e-14)

    def test_ordering(self):
        d = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
        cfg = SandwichConfig(1.0, d, 256)
        lo, hi = theoretical_envelope(cfg, 3.0, 0.25)
        assert 0.0 < lo < hi


class TestCklsTransform:
    def _path(self, values):
        values = np.asarray(values, dtype=float)
        grid = TimeGrid(1.0, len(values) - 1)
        return SimulatedPath(grid=grid, values=values, noise_seed=0,
                             stepper="closed_form_cir",
                             residuals=np.zeros(len(values)))

    def test_gamma_one_squares(self):
        x = ckls_transform(self._path([1.0, 2.0]), 1.0)
        assert np.array_equal(x.values, [1.0, 4.0])
        assert x.alpha == 0.5

    def test_gamma_zero_identity(self):
        x = ckls_transform(self._path([1.0, 0.5, 2.0]), 0.0)
        assert np.array_equal(x.values, [1.0, 0.5, 2.0])
        assert x.alpha == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ckls_transform(self._path([1.0, 0.0]), 1.0)


class TestLipschitzConstants:
    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
    def test_cir_pairs_within_bound(self, eps):
        d = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
        rng = np.random.default_rng(12345)
        scale = d.c1 / eps ** d.p
        ts = rng.uniform(0.0, 1.0, (1000, 2))
        ys = eps + rng.exponential(1.0, (1000, 2))
        for (t1, t2), (y1, y2) in zip(ts, ys):
            lhs = abs(d.b(t1, y1) - d.b(t2, y2))
            rhs = scale * (abs(y1 - y2) + abs(t1 - t2) ** 0.7)
            assert lhs <= rhs * (1.0 + 1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
    def test_tsb_pairs_within_bound(self, eps):
        d = symmetric_tsb()
        rng = np.random.default_rng(999)
        scale = d.c1 / eps ** d.p
        ts = rng.uniform(0.0, 1.0, (1000, 2))
        ys = rng.uniform(-1.0 + eps, 1.0 - eps, (1000, 2))
        for (t1, t2), (y1, y2) in zip(ts, ys):
            lhs = abs(d.b(t1, y1) - d.b(t2, y2))
            rhs = scale * (abs(y1 - y2) + abs(t1 - t2) ** 0.7)
            assert lhs <= rhs * (1.0 + 1e-12)
