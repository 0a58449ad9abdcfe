import math
from dataclasses import replace

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


    def test_array_db_dy_matches_scalar(self):
        tt = np.linspace(0.0, 1.0, 9)
        for d, ys in ((cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), np.linspace(0.1, 3.0, 9)),
                      (cir_drift(1.0, 1.0, 2.5, 0.7, 1.0), np.linspace(0.1, 3.0, 9)),
                      (symmetric_tsb(), np.linspace(-0.9, 0.9, 9)),
                      (moving_barrier_drift(), np.sin(10.0 * tt) + 0.3)):
            got = d.db_dy(tt, ys)
            assert got.shape == ys.shape
            np.testing.assert_allclose(
                got, [d.db_dy(t, y) for t, y in zip(tt, ys)], rtol=1e-14)


def built_in_families():
    """(name, drift, a point strictly inside at t = 0.3) per family."""
    return [("cir", cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), 1.0),
            ("cir_gamma", cir_drift(1.0, 1.0, 2.5, 0.7, 1.0), 1.0),
            ("tsb", symmetric_tsb(), 0.0),
            ("power_sandwich", moving_barrier_drift(), math.sin(3.0) + 1.0)]


class TestDriftDomain:
    """b and db_dy raise DomainError unless phi(t) < y < psi(t)."""

    @pytest.mark.parametrize("name, drift, good", built_in_families())
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "phi", "psi"])
    def test_scalar_and_array_calls_raise(self, name, drift, good, bad):
        t, bounds = 0.3, drift.bounds
        y = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "phi": float(bounds.phi(t)),
             "psi": float(bounds.psi(t)) if bounds.two_sided else math.inf}[bad]
        for fn in (drift.b, drift.db_dy):
            with pytest.raises(DomainError):
                fn(t, y)
            with pytest.raises(DomainError):
                fn(np.float64(t), np.float64(y))
            with pytest.raises(DomainError):
                fn(np.full(3, t), np.array([good, y, good]))

    @pytest.mark.parametrize("name, drift, good", built_in_families())
    def test_error_names_the_first_point_outside(self, name, drift, good):
        tt = np.array([0.3, 0.3, 0.3])
        with pytest.raises(DomainError, match=r"y=nan outside"):
            drift.b(tt, np.array([good, math.nan, -math.inf]))


@pytest.mark.parametrize("family", [lambda b: tsb_drift(0.5, 0.5, 0.0, b),
                                    lambda b: power_sandwich_drift(1.0, 1.0, 3.0, b)])
def test_two_sided_families_need_psi(family):
    with pytest.raises(ValueError, match="psi must be given"):
        family(BoundFunctions(constant_bound(-1.0), None, 0.7, 0.0, 1.0))


BOUNDS = {
    "constant": BoundFunctions(constant_bound(-1.0), constant_bound(1.0), 0.7, 0.0, 1.0),
    "sin": BoundFunctions(sin_bound(0.0, 1.0, 10.0), sin_bound(2.0, 1.0, 10.0),
                          0.29, 20.0, 1.0),
    "one-sided": BoundFunctions(constant_bound(0.0), None, 0.7, 0.0, 1.0),
}


class TestBoundValues:
    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_scalar_and_array_values_same_bits(self, name):
        bounds = BOUNDS[name]
        tt = np.linspace(0.0, 1.0, 1001)
        lo, hi = bounds.values(tt)
        assert lo.shape == hi.shape == tt.shape
        scalar = [bounds.values(t) for t in tt.tolist()]
        assert all(type(v) is float for pair in scalar for v in pair)
        assert np.array_equal(np.array(scalar), np.stack([lo, hi], axis=1))
        assert np.array_equal(np.array([bounds.values(t) for t in tt]), np.array(scalar))
        lo2, hi2 = bounds.values(tt.reshape(77, 13))
        assert np.array_equal(lo2.ravel(), lo) and np.array_equal(hi2.ravel(), hi)
        assert np.all(np.isinf(hi)) == (name == "one-sided")

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_scalar_and_array_inside_same_bits(self, name):
        bounds = BOUNDS[name]
        tt = np.repeat(np.linspace(0.0, 1.0, 51), 7)
        lo, hi = bounds.values(tt)
        mid = lo + np.where(np.isinf(hi), 1.0, 0.5 * (hi - lo))
        kind = np.arange(tt.size) % 7
        ys = np.choose(kind, [mid, np.nextafter(lo, np.inf), lo, hi, lo - 1.0,
                              np.full_like(lo, np.nan), np.full_like(lo, np.inf)])
        mask = bounds.inside(tt, ys)
        assert mask.dtype == bool
        assert np.array_equal(mask, [bool(bounds.inside(t, y)) for t, y in zip(tt, ys)])
        assert np.array_equal(mask, kind < 2)


class TestSharedFormula:
    """Every family builds b and db_dy from one two-sided formula; each
    must still give the bits of its own literal formula."""

    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_cir_bits(self, gamma):
        k1, k2 = 0.7, 1.3
        drift = cir_drift(k1, k2, gamma, 0.7, 1.0)
        ys = np.geomspace(1e-300, 1e150, 4001)
        tt = np.linspace(0.0, 1.0, ys.size)
        # y^gamma underflows to 0 and overflows to inf at the ends.
        with np.errstate(divide="ignore", over="ignore"):
            assert np.array_equal(drift.b(tt, ys), k1 / ys ** gamma - k2 * ys)
            assert np.array_equal(drift.db_dy(tt, ys),
                                  -k1 * gamma / ys ** (gamma + 1.0) - k2)
            for t, y in zip(tt[::400], ys[::400]):
                assert drift.b(t, y) == k1 / y ** gamma - k2 * y

    @pytest.mark.parametrize("name", ["constant", "sin"])
    @pytest.mark.parametrize("gamma", [1.0, 2.0, 4.0])
    def test_two_sided_bits(self, name, gamma):
        k1, k2, k3 = 0.7, 1.3, 0.25
        bounds = BOUNDS[name]
        drift = (tsb_drift(k1, k2, k3, bounds) if gamma == 1.0
                 else power_sandwich_drift(k1, k2, gamma, bounds, kappa3=k3))
        frac = np.geomspace(1e-12, 0.5, 41)
        frac = np.concatenate([frac, 1.0 - frac])
        tt = np.repeat(np.linspace(0.0, 1.0, 101), frac.size)
        if name == "sin":
            lo, hi = np.sin(10.0 * tt), 2.0 + np.sin(10.0 * tt)
        else:
            lo, hi = np.full_like(tt, -1.0), np.full_like(tt, 1.0)
        ys = lo + (hi - lo) * np.tile(frac, 101)
        if gamma == 1.0:  # the TSB drift as written in its docstring
            b = k1 / (ys - lo) - k2 / (hi - ys) - k3 * ys
            db = -k1 / (ys - lo) ** 2.0 - k2 / (hi - ys) ** 2.0 - k3
        else:
            b = k1 / (ys - lo) ** gamma - k2 / (hi - ys) ** gamma - k3 * ys
            db = (-k1 * gamma / (ys - lo) ** (gamma + 1.0)
                  - k2 * gamma / (hi - ys) ** (gamma + 1.0) - k3)
        assert np.array_equal(drift.b(tt, ys), b)
        assert np.array_equal(drift.db_dy(tt, ys), db)


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


def golden_configs():
    """Built-in drifts with one constant pushed past what the drift meets."""
    cir = cir_drift(1.0, 1.0, 1.0, 0.7, 1.0)
    unit = BoundFunctions(constant_bound(-1.0), constant_bound(1.0), 0.7, 0.0, 1.0)
    lopsided = tsb_drift(2.0, 0.5, 0.0, unit)
    moving = BoundFunctions(sin_bound(0.0, 1.0, 10.0), sin_bound(2.0, 1.0, 10.0),
                            0.29, 20.0, 1.0)
    power = power_sandwich_drift(1.0, 1.0, 4.0, moving)
    drifting = power_sandwich_drift(1.0, 1.0, 4.0, moving, kappa3=0.05)
    pushing = tsb_drift(0.5, 0.5, -3.0, unit)
    return {
        "cir_lipschitz_c1": SandwichConfig(1.0, replace(cir, c1=0.05), 256),
        "cir_repulsion_c2": SandwichConfig(1.0, replace(cir, c2=0.9), 256),
        "tsb_upper_repulsion": SandwichConfig(0.0, replace(lopsided, c2=1.0), 256),
        "power_both_repulsion": SandwichConfig(1.0, replace(power, c2=2.0), 256),
        "tsb_derivative_c3": SandwichConfig(0.0, replace(pushing, c3=0.5), 256),
        "tsb_y0_outside": SandwichConfig(1.5, lopsided, 256),
        "power_upper_repulsion": SandwichConfig(
            1.0, replace(power_sandwich_drift(4.0, 1.0, 4.0, moving), c2=1.0), 256),
        "power_repulsion_late": SandwichConfig(1.0, replace(drifting, y_star=0.9), 256),
    }


# (name, status, detail) of every check, as the scalar-loop validation
# reported them: the array checks must report the same first failure.
GOLDEN_REPORTS = {
    "cir_lipschitz_c1": [
        ('(A1)', 'pass', 'y0=1 > phi(0)=0'),
        ('barriers', 'spot-checked', 'barriers sampled on 257 points'),
        ('(A2)', 'fail', 'Lipschitz bound violated at eps=0.7071, (t,y)=(0,0.7071)'),
        ('(A3)', 'spot-checked', 'gamma=1 > 0.428571; repulsion holds on lattice'),
        ('(A4)', 'spot-checked', 'c3=1 vs sampled sup db/dy=-1.09909'),
        ('mesh', 'pass', 'mesh=0.00390625, max admissible=0.99'),
    ],
    "cir_repulsion_c2": [
        ('(A1)', 'pass', 'y0=1 > phi(0)=0'),
        ('barriers', 'spot-checked', 'barriers sampled on 257 points'),
        ('(A2)', 'spot-checked', 'c1=2, p=2 on 3 lattices'),
        ('(A3)', 'fail', 'lower repulsion fails at t=0, dist=0.3264'),
        ('(A4)', 'spot-checked', 'c3=1 vs sampled sup db/dy=-1.09909'),
        ('mesh', 'pass', 'mesh=0.00390625, max admissible=0.495'),
    ],
    "tsb_upper_repulsion": [
        ('(B1)', 'pass', 'phi(0)=-1 < y0=0 < psi(0)=1'),
        ('barriers', 'spot-checked', 'barriers sampled on 257 points'),
        ('(B2)', 'spot-checked', 'c1=2.5, p=2 on 3 lattices'),
        ('(B3)', 'fail', 'upper repulsion fails at t=0, dist=0.001923'),
        ('(B4)', 'spot-checked', 'c3=1 vs sampled sup db/dy=-2.16677'),
        ('mesh', 'pass', 'mesh=0.00390625, max admissible=0.99'),
    ],
    "power_both_repulsion": [
        ('(B1)', 'pass', 'phi(0)=0 < y0=1 < psi(0)=2'),
        ('barriers', 'spot-checked', 'barriers sampled on 257 points'),
        ('(B2)', 'spot-checked', 'c1=168, p=5 on 3 lattices'),
        ('(B3)', 'fail', 'lower repulsion fails at t=0, dist=0.007692'),
        ('(B4)', 'spot-checked', 'c3=1 vs sampled sup db/dy=-8'),
        ('mesh', 'pass', 'mesh=0.00390625, max admissible=0.99'),
    ],
    "tsb_derivative_c3": [
        ('(B1)', 'pass', 'phi(0)=-1 < y0=0 < psi(0)=1'),
        ('barriers', 'spot-checked', 'barriers sampled on 257 points'),
        ('(B2)', 'spot-checked', 'c1=4, p=2 on 3 lattices'),
        ('(B3)', 'spot-checked', 'gamma=1 > 0.428571; repulsion holds on lattice'),
        ('(B4)', 'fail', 'c3=0.5 vs sampled sup db/dy=2'),
        ('mesh', 'pass', 'mesh=0.00390625, max admissible=1'),
    ],
    "tsb_y0_outside": [
        ('(B1)', 'fail', 'phi(0)=-1 < y0=1.5 < psi(0)=1'),
        ('barriers', 'spot-checked', 'barriers sampled on 257 points'),
        ('(B2)', 'spot-checked', 'c1=2.5, p=2 on 3 lattices'),
        ('(B3)', 'spot-checked', 'gamma=1 > 0.428571; repulsion holds on lattice'),
        ('(B4)', 'spot-checked', 'c3=1 vs sampled sup db/dy=-2.16677'),
        ('mesh', 'pass', 'mesh=0.00390625, max admissible=0.99'),
    ],
    "power_upper_repulsion": [
        ('(B1)', 'pass', 'phi(0)=0 < y0=1 < psi(0)=2'),
        ('barriers', 'spot-checked', 'barriers sampled on 257 points'),
        ('(B2)', 'spot-checked', 'c1=420, p=5 on 3 lattices'),
        ('(B3)', 'fail', 'upper repulsion fails at t=0, dist=0.01538'),
        ('(B4)', 'spot-checked', 'c3=1 vs sampled sup db/dy=-16.6601'),
        ('mesh', 'pass', 'mesh=0.00390625, max admissible=0.99'),
    ],
    "power_repulsion_late": [
        ('(B1)', 'pass', 'phi(0)=0 < y0=1 < psi(0)=2'),
        ('barriers', 'spot-checked', 'barriers sampled on 257 points'),
        ('(B2)', 'spot-checked', 'c1=168.05, p=5 on 3 lattices'),
        ('(B3)', 'fail', 'lower repulsion fails at t=0.07812, dist=0.9'),
        ('(B4)', 'spot-checked', 'c3=1 vs sampled sup db/dy=-8.05'),
        ('mesh', 'pass', 'mesh=0.00390625, max admissible=0.99'),
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_validation_report_golden(name):
    report = validate_assumptions(golden_configs()[name])
    assert [(c.name, c.status, c.detail) for c in report.checks] == GOLDEN_REPORTS[name]


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
