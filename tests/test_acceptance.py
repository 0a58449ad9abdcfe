"""End-to-end acceptance checks.

Each criterion is a single test, so ``pytest -v`` prints one pass/fail
line per criterion. The heavier Monte Carlo studies are shared through
module-scoped fixtures. Run with ``-s`` to see the printed diagnostics.
"""

import math
import time

import numpy as np
import pytest

from sandwiched_sde.analysis import (
    ConvergenceStudySpec,
    run_convergence_study,
    verify_ckls,
)
from sandwiched_sde.model import (
    BoundFunctions,
    SandwichConfig,
    bound_constants,
    cir_drift,
    constant_bound,
    power_sandwich_drift,
    sin_bound,
    tsb_drift,
)
from sandwiched_sde.noise import (
    TimeGrid,
    covariance_matrix,
    fbm,
    fbm_covariance,
    generate_noise,
    holder_constant,
    mbm_sin,
    restrict_to_coarse,
    sample_path_fast_fbm,
)
import sandwiched_sde.noise as noise_module
from sandwiched_sde.solver import (
    implicit_step_cir,
    implicit_step_tsb,
    simulate,
)

SLOPE_BAND = (0.54, 0.84)


def cir_config(n, lam=0.69):
    return SandwichConfig(1.0, cir_drift(1.0, 1.0, 1.0, lam, 1.0), n)


def tsb_config(n, lam=0.69):
    bounds = BoundFunctions(constant_bound(-1.0), constant_bound(1.0),
                            lam, 0.0, 1.0)
    return SandwichConfig(0.0, tsb_drift(0.5, 0.5, 0.0, bounds), n)


def power_sandwich_config(n, lam=0.29):
    # Barriers sin(10t) and sin(10t)+2; K = 2*10*T^(1-lam) covers both.
    bounds = BoundFunctions(sin_bound(0.0, 1.0, 10.0),
                            sin_bound(2.0, 1.0, 10.0),
                            lam, 20.0, 1.0)
    return SandwichConfig(1.0, power_sandwich_drift(1.0, 1.0, 4.0, bounds), n)


def sin_hurst_driver():
    return mbm_sin(0.5, 0.2, 2.0 * math.pi)


def strict_inside(path, config):
    tt = path.grid.points
    lo = np.asarray(config.drift.bounds.phi(tt), float)
    ok = np.all(path.values > lo)
    if config.drift.bounds.psi is not None:
        hi = np.asarray(config.drift.bounds.psi(tt), float)
        ok = ok and np.all(path.values < hi)
    return bool(ok)


@pytest.fixture(scope="module")
def cir_study():
    spec = ConvergenceStudySpec(
        config=cir_config(64), driver=fbm(0.7),
        mesh_list=(64, 128, 256, 512, 1024), reference_n=2 ** 14,
        paths=100, r=1.0, seed_base=10_000, lam_expected=0.69)
    return run_convergence_study(spec)


@pytest.fixture(scope="module")
def tsb_study():
    spec = ConvergenceStudySpec(
        config=tsb_config(64), driver=fbm(0.7),
        mesh_list=(64, 128, 256, 512, 1024), reference_n=2 ** 14,
        paths=100, r=1.0, seed_base=20_000, lam_expected=0.69)
    return run_convergence_study(spec)


def test_criterion_01_sandwich_preservation():
    """1000 paths across all families and drivers: zero strict violations."""
    n = 256
    violations = 0
    total = 0
    for h in (0.6, 0.7, 0.8):
        lam = h - 0.01
        for family_cfg in (cir_config(n, lam), tsb_config(n, lam)):
            for seed in range(150):
                noise = generate_noise(fbm(h), family_cfg.grid,
                                       100_000 + total)
                path = simulate(family_cfg, noise)
                violations += 0 if strict_inside(path, family_cfg) else 1
                total += 1
    cfg = power_sandwich_config(n)
    for seed in range(100):
        noise = generate_noise(sin_hurst_driver(), cfg.grid, 200_000 + seed)
        path = simulate(cfg, noise)
        violations += 0 if strict_inside(path, cfg) else 1
        total += 1
    print(f"criterion 1: {total} paths, {violations} sandwich violations")
    assert total == 1000
    assert violations == 0


def test_criterion_02_step_residuals_and_oracles():
    """Residual contract at 1e-12; closed forms vs bisection to 1e-10."""
    tol = 1e-12

    def bisect(drift, delta, rhs, lo, hi):
        def g(y):
            return y - drift.b(0.5, y) * delta - rhs
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-14 * max(1.0, abs(mid)):
                break
        return 0.5 * (lo + hi)

    # Residual contract along full simulated paths.
    worst = 0.0
    for cfg in (cir_config(512), tsb_config(512)):
        noise = generate_noise(fbm(0.7), cfg.grid, 7)
        path = simulate(cfg, noise, tol=tol)
        dz = np.diff(noise.values)
        for k in range(cfg.grid_points):
            z = path.values[k] + dz[k]
            y = path.values[k + 1]
            resid = abs(y - cfg.drift.b(path.grid.points[k + 1], y)
                        * cfg.mesh - z)
            worst = max(worst, resid / max(1.0, abs(z)))
    assert worst <= tol

    # Closed-form CIR stepper vs the oracle on 1000 randomized inputs.
    rng = np.random.default_rng(777)
    cir = cir_drift(1.0, 1.0, 1.0, 0.69, 1.0)
    worst_cir = 0.0
    for _ in range(1000):
        delta = rng.uniform(0.001, 0.2)
        y_prev = rng.uniform(0.01, 5.0)
        dz = rng.normal()
        closed = implicit_step_cir(cir, 0.5, delta, y_prev + dz)
        oracle = bisect(cir, delta, y_prev + dz, 1e-14, abs(y_prev + dz) + 10.0)
        worst_cir = max(worst_cir, abs(closed - oracle))
    assert worst_cir <= 1e-10

    # Cardano TSB stepper vs the oracle on 1000 randomized inputs.
    tsb = tsb_config(64).drift
    worst_tsb = 0.0
    for _ in range(1000):
        delta = rng.uniform(0.001, 0.2)
        rhs = rng.normal(scale=2.0)
        got = implicit_step_tsb(tsb, 0.5, delta, rhs)
        oracle = bisect(tsb, delta, rhs, -1.0 + 1e-14, 1.0 - 1e-14)
        worst_tsb = max(worst_tsb, abs(got - oracle))
    assert worst_tsb <= 1e-10
    print(f"criterion 2: residual {worst:.2e}, "
          f"cir oracle gap {worst_cir:.2e}, tsb oracle gap {worst_tsb:.2e}")


def test_criterion_03_cir_convergence_rate(cir_study):
    """One-sided CIR strong rate: slope within 0.69 +/- 0.15."""
    slope = cir_study.slope
    print(f"criterion 3: CIR slope {slope:.4f} "
          f"+/- {cir_study.slope_stderr:.4f}, band {SLOPE_BAND}")
    assert SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]


def test_criterion_04_tsb_convergence_rate(tsb_study):
    """Two-sided TSB strong rate: slope within 0.69 +/- 0.15."""
    slope = tsb_study.slope
    print(f"criterion 4: TSB slope {slope:.4f} "
          f"+/- {tsb_study.slope_stderr:.4f}, band {SLOPE_BAND}")
    assert SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]


def test_criterion_05_inverse_distance_convergence(tsb_study):
    """Mean sup inverse-distance error shrinks from N=2^6 to N=2^10."""
    rows = {m.n: m.mean_error_r for m in tsb_study.inverse_distance}
    trend = [rows[n] for n in (64, 128, 256, 512, 1024)]
    print(f"criterion 5: inverse-distance means {trend}, "
          f"slope {tsb_study.inverse_distance_slope:.4f}")
    assert rows[1024] < rows[64]


def test_criterion_06_fbm_law():
    """Empirical fBm covariance within 5 SE; H=0.5 increments uncorrelated."""
    n, m = 64, 10_000
    grid = TimeGrid(1.0, n)
    for h in (0.3, 0.5, 0.7):
        draws = np.empty((m, n))
        for s in range(m):
            draws[s] = sample_path_fast_fbm(h, grid, 300_000 + s).values[1:]
        emp = draws.T @ draws / m
        cov = fbm_covariance(grid.points[1:, None], grid.points[None, 1:], h)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / m)
        dev = np.max(np.abs(emp - cov) / se)
        print(f"criterion 6: H={h} max covariance deviation {dev:.2f} SE")
        assert dev <= 5.0
        if h == 0.5:
            inc = np.diff(np.concatenate(
                [np.zeros((m, 1)), draws], axis=1), axis=1)
            inc = inc - inc.mean()
            var = np.mean(inc ** 2)
            for lag in (1, 2, 3, 4):
                prods = inc[:, lag:] * inc[:, :-lag]
                rho = np.mean(prods) / var
                sigma = 1.0 / math.sqrt(prods.size)
                print(f"criterion 6: H=0.5 lag-{lag} autocorr "
                      f"{rho:.5f} ({abs(rho) / sigma:.2f} sigma)")
                assert abs(rho) <= 5.0 * sigma


def test_criterion_07_mbm_degeneration():
    """Constant-H mBm covariance equals fBm covariance to 1e-12 (N=128)."""
    grid = TimeGrid(1.0, 128)
    for h in (0.3, 0.7):
        a = covariance_matrix(mbm_sin(h, 0.0, 0.0), grid)
        b = covariance_matrix(fbm(h), grid)
        gap = float(np.max(np.abs(a - b)))
        print(f"criterion 7: H={h} max entrywise gap {gap:.2e}")
        assert gap <= 1e-12


def test_criterion_08_showcase_runs():
    """Three showcase parameter sets at N=10^4: deterministic, sandwiched."""
    n = 10_000

    def run_family(label, cfg, driver, seeds):
        start = time.perf_counter()
        first = None
        for seed in seeds:
            noise = generate_noise(driver, cfg.grid, seed)
            path = simulate(cfg, noise)
            assert strict_inside(path, cfg)
            if first is None:
                first = path.values.copy()
        elapsed = time.perf_counter() - start
        # Determinism: rerun the first seed and compare bitwise.
        rerun = simulate(cfg, generate_noise(driver, cfg.grid, seeds[0]))
        assert np.array_equal(rerun.values, first)
        print(f"criterion 8: {label}: {len(seeds)} paths, "
              f"{elapsed / len(seeds):.4f} s/path")

    run_family("cir fbm(0.7)", cir_config(n), fbm(0.7), range(10))
    run_family("tsb fbm(0.7)", tsb_config(n), fbm(0.7), range(10))
    run_family("power sandwich mbm", power_sandwich_config(n),
               sin_hurst_driver(), range(3))
    # Drop the large cached mBm covariance factor (about 0.41 GB, packed).
    noise_module._factor_cache.clear()


def test_criterion_09_theoretical_envelope():
    """Envelope from the per-path Holder estimate holds for >= 99% of paths."""
    n, paths = 256, 1000
    families = (
        ("cir", cir_config(n), fbm(0.7), 0.69),
        ("tsb", tsb_config(n), fbm(0.7), 0.69),
        ("power_sandwich", power_sandwich_config(n), sin_hurst_driver(), 0.29),
    )
    for label, cfg, driver, lam in families:
        bc = bound_constants(cfg)
        denom = cfg.drift.gamma * lam + lam - 1.0
        tt = cfg.grid.points
        lo_barrier = np.asarray(cfg.drift.bounds.phi(tt), float)
        two_sided = cfg.drift.bounds.psi is not None
        if two_sided:
            hi_barrier = np.asarray(cfg.drift.bounds.psi(tt), float)
        contained = 0
        failed_lams = []
        for seed in range(paths):
            noise = generate_noise(driver, cfg.grid, 400_000 + seed)
            path = simulate(cfg, noise)
            lam_hat = holder_constant(noise, lam)
            margin = bc.L1 / (bc.L2 + lam_hat) ** (1.0 / denom)
            ok = np.all(path.values >= lo_barrier + margin)
            if two_sided:
                ok = ok and np.all(path.values <= hi_barrier - margin)
            else:
                ok = ok and np.all(path.values <= bc.L3 + bc.L4 * lam_hat)
            if ok:
                contained += 1
            elif len(failed_lams) < 5:
                failed_lams.append((seed, lam_hat))
        print(f"criterion 9: {label}: {contained}/{paths} inside envelope; "
              f"failures (seed, lam_hat): {failed_lams}")
        assert contained >= 0.99 * paths, f"{label}: {contained}/{paths}"


def test_criterion_10_ckls_consistency():
    """Transformed-path residual shrinks with refinement for >= 80% of seeds."""
    fine_n, coarse_n = 2 ** 14, 2 ** 10
    wins = 0
    seeds = range(20)
    for seed in seeds:
        fine_cfg = cir_config(fine_n)
        fine_noise = generate_noise(fbm(0.7), fine_cfg.grid, 500_000 + seed)
        fine = simulate(fine_cfg, fine_noise)
        coarse_noise = restrict_to_coarse(fine_noise, fine_n // coarse_n)
        coarse = simulate(cir_config(coarse_n), coarse_noise)
        r_fine = verify_ckls(fine, fine_noise, 1.0, 1.0, 1.0)
        r_coarse = verify_ckls(coarse, coarse_noise, 1.0, 1.0, 1.0)
        wins += 1 if r_fine < r_coarse else 0
    print(f"criterion 10: residual decreased for {wins}/20 seeds")
    assert wins >= 16
