import json

import numpy as np
import pytest

from sandwiched_sde.analysis import (
    ConvergenceStudySpec,
    inverse_distance_error,
    run_convergence_study,
    sup_error,
    verify_ckls,
)
from sandwiched_sde.model import (
    BoundFunctions,
    SandwichConfig,
    cir_drift,
    constant_bound,
    tsb_drift,
)
from sandwiched_sde.noise import (
    NoisePath,
    TimeGrid,
    brownian,
    fbm,
    generate_noise,
    restrict_to_coarse,
)
from sandwiched_sde.solver import SimulatedPath, simulate


def make_path(values, horizon=1.0):
    values = np.asarray(values, dtype=float)
    grid = TimeGrid(horizon, len(values) - 1)
    return SimulatedPath(grid=grid, values=values, noise_seed=0,
                         stepper="closed_form_cir",
                         residuals=np.zeros(len(values)))


def cir_config(n):
    return SandwichConfig(1.0, cir_drift(1.0, 1.0, 1.0, 0.7, 1.0), n)


class TestSupError:
    def test_identical_paths(self):
        path = make_path([1.0, 1.5, 1.2, 0.9, 1.1])
        assert sup_error(path, path) == 0.0

    def test_constant_offset(self):
        a = make_path([1.0, 1.5, 1.2])
        b = make_path([1.3, 1.8, 1.5])
        assert sup_error(a, b) == pytest.approx(0.3)

    def test_piecewise_constant_extension(self):
        # Coarse path (0, 1) on two points vs fine path on four: the
        # coarse value 0 applies on [0, 1/2), so the gap at t=1/4 counts.
        coarse = make_path([0.0, 1.0])
        fine = make_path([0.0, 0.75, 0.5, 0.25, 1.0])
        assert sup_error(coarse, fine) == pytest.approx(0.75)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        coarse = make_path(rng.normal(size=5))
        fine = make_path(rng.normal(size=17))
        factor = 4
        expected = 0.0
        for i in range(17):
            expected = max(expected,
                           abs(fine.values[i] - coarse.values[min(i // factor, 4)]))
        assert sup_error(coarse, fine) == pytest.approx(expected, rel=1e-15)

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            sup_error(make_path(np.zeros(4)), make_path(np.zeros(5)))


class TestInverseDistanceError:
    def test_identical_paths_zero(self):
        bounds = BoundFunctions(constant_bound(0.0), None, 0.7, 0.0, 1.0)
        path = make_path([1.0, 2.0, 0.5])
        lo, hi = inverse_distance_error(path, path, bounds)
        assert lo == 0.0 and hi is None

    def test_reciprocal_arithmetic(self):
        bounds = BoundFunctions(constant_bound(0.0), constant_bound(4.0),
                                0.7, 0.0, 1.0)
        coarse = make_path([1.0, 2.0, 1.0])
        ref = make_path([1.0, 1.0, 2.0])
        lo, hi = inverse_distance_error(coarse, ref, bounds)
        assert lo == pytest.approx(0.5)          # |1/1 - 1/2|
        assert hi == pytest.approx(1.0 / 6.0)    # |1/3 - 1/2|

    def test_rejects_touching_barrier(self):
        bounds = BoundFunctions(constant_bound(0.0), None, 0.7, 0.0, 1.0)
        with pytest.raises(ValueError):
            inverse_distance_error(make_path([1.0, 0.0, 1.0]),
                                   make_path([1.0, 1.0, 1.0]), bounds)


class TestStudySpecValidation:
    def test_rejects_non_divisor_mesh(self):
        with pytest.raises(ValueError):
            ConvergenceStudySpec(config=cir_config(8), driver=fbm(0.7),
                                 mesh_list=(12,), reference_n=512, paths=2)

    def test_rejects_reference_too_close(self):
        with pytest.raises(ValueError):
            ConvergenceStudySpec(config=cir_config(8), driver=fbm(0.7),
                                 mesh_list=(64,), reference_n=128, paths=2)

    @pytest.mark.parametrize("r", [0.5, float("nan"), float("inf")])
    def test_rejects_bad_moment_order(self, r):
        with pytest.raises(ValueError, match="moment order"):
            ConvergenceStudySpec(config=cir_config(8), driver=fbm(0.7),
                                 mesh_list=(16,), reference_n=512, paths=2, r=r)

    def test_sorts_meshes(self):
        spec = ConvergenceStudySpec(config=cir_config(8), driver=fbm(0.7),
                                    mesh_list=(32, 8, 16), reference_n=512,
                                    paths=2)
        assert spec.mesh_list == (8, 16, 32)


@pytest.fixture(scope="module")
def small_study():
    spec = ConvergenceStudySpec(
        config=cir_config(16), driver=fbm(0.7),
        mesh_list=(16, 32, 64), reference_n=1024, paths=8,
        r=1.0, seed_base=500, lam_expected=0.69)
    return spec, run_convergence_study(spec)


class TestRunConvergenceStudy:
    def test_errors_decrease_with_mesh(self, small_study):
        _, report = small_study
        means = [m.mean_error_r for m in report.per_mesh]
        assert means[0] > means[1] > means[2] > 0.0

    def test_positive_slope_near_rate(self, small_study):
        _, report = small_study
        assert 0.3 < report.slope < 1.1
        assert report.slope_stderr is not None and report.slope_stderr > 0.0

    def test_inverse_distance_tracked(self, small_study):
        _, report = small_study
        assert report.inverse_distance is not None
        inv = [m.mean_error_r for m in report.inverse_distance]
        assert inv[0] > inv[-1] > 0.0
        assert report.inverse_distance_slope > 0.0

    def test_deterministic(self, small_study):
        spec, report = small_study
        again = run_convergence_study(spec)
        assert again.to_dict() == report.to_dict()

    def test_json_round_trip(self, small_study):
        _, report = small_study
        data = json.loads(report.to_json())
        assert data["slope"] == report.slope
        assert len(data["per_mesh"]) == 3
        assert data["lambda_expected"] == 0.69

    def test_coupling_restricts_same_noise(self):
        # The coarse noise in the study must be the reference noise
        # subsampled, not a fresh draw.
        grid = TimeGrid(1.0, 64)
        ref = generate_noise(fbm(0.7), grid, 123)
        coarse = restrict_to_coarse(ref, 8)
        assert np.array_equal(coarse.values, ref.values[::8])

    def test_single_path_has_no_stderr(self):
        spec = ConvergenceStudySpec(
            config=cir_config(16), driver=fbm(0.7),
            mesh_list=(16, 32), reference_n=512, paths=1, seed_base=9)
        report = run_convergence_study(spec)
        assert report.slope_stderr is None
        assert all(m.stderr is None for m in report.per_mesh)

    def test_failing_path_names_seed(self):
        bounds = BoundFunctions(constant_bound(-1.0), constant_bound(1.0),
                                0.7, 0.0, 1.0)
        cfg = SandwichConfig(1.5, tsb_drift(0.5, 0.5, 0.0, bounds), 16)
        spec = ConvergenceStudySpec(config=cfg, driver=fbm(0.7),
                                    mesh_list=(16,), reference_n=256,
                                    paths=1, seed_base=77)
        with pytest.raises(RuntimeError, match="77"):
            run_convergence_study(spec)

    def test_r_two_study_runs(self):
        spec = ConvergenceStudySpec(
            config=cir_config(16), driver=fbm(0.7),
            mesh_list=(16, 32, 64), reference_n=1024, paths=8,
            r=2.0, seed_base=500, lam_expected=0.69)
        report = run_convergence_study(spec)
        assert 0.2 < report.slope < 1.2


class TestVerifyCkls:
    def test_equilibrium_zero_noise(self):
        cfg = cir_config(256)
        noise = NoisePath(grid=cfg.grid, values=np.zeros(257), seed=0,
                          spec=fbm(0.7))
        path = simulate(cfg, noise)
        assert verify_ckls(path, noise, 1.0, 1.0, 1.0) < 1e-10

    def test_refuses_rough_drivers(self):
        cfg = cir_config(64)
        for spec in (brownian(), fbm(0.4)):
            noise = generate_noise(spec, cfg.grid, 1)
            path = simulate(cfg, noise, unsafe_mesh=True)
            with pytest.raises(ValueError):
                verify_ckls(path, noise, 1.0, 1.0, 1.0)

    def test_residual_decreases_with_refinement(self):
        fine_n, coarse_n = 2 ** 12, 2 ** 9
        for seed in (1, 2, 3):
            fine_cfg = cir_config(fine_n)
            fine_noise = generate_noise(fbm(0.7), fine_cfg.grid, seed)
            fine = simulate(fine_cfg, fine_noise)
            coarse_noise = restrict_to_coarse(fine_noise, fine_n // coarse_n)
            coarse = simulate(cir_config(coarse_n), coarse_noise)
            r_fine = verify_ckls(fine, fine_noise, 1.0, 1.0, 1.0)
            r_coarse = verify_ckls(coarse, coarse_noise, 1.0, 1.0, 1.0)
            assert r_fine < r_coarse
