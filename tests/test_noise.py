import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import sandwiched_sde
from dense_cholesky import dense_factor, dense_sample, unpack
from sandwiched_sde import noise as noise_module
from sandwiched_sde.noise import (
    CholeskyError,
    GaussianDriverSpec,
    NoisePath,
    TimeGrid,
    brownian,
    covariance_matrix,
    custom,
    fbm,
    fbm_covariance,
    generate_noise,
    holder_constant,
    mbm,
    mbm_covariance,
    mbm_sin,
    restrict_to_coarse,
    sample_path,
    sample_path_fast_fbm,
)


def brute_force_holder(values, points, lam):
    best = 0.0
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, abs(values[j] - values[i])
                       / (points[j] - points[i]) ** lam)
    return best


def per_gap_holder(path, lam, gaps):
    """The per-gap scan that ``holder_constant`` replaces: one call per gap."""
    z = path.values
    delta = path.grid.delta
    best = 0.0
    for gap in gaps:
        step = np.max(np.abs(z[gap:] - z[:-gap])) / (gap * delta) ** lam
        if step > best:
            best = float(step)
    return best


def all_gaps(n):
    return range(1, n + 1)


def dyadic_gaps(n):
    return sorted({min(2 ** j, n) for j in range(n.bit_length())})


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


@st.composite
def holder_paths(draw):
    """Random walks, the constant path and values up to +-1e300."""
    n = draw(st.integers(1, 600))
    kind = draw(st.sampled_from(["walk", "constant", "extreme"]))
    if kind == "walk":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        scale = draw(st.sampled_from([1e-12, 1.0, 1e12]))
        tail = np.cumsum(scale * rng.standard_normal(n))
    elif kind == "constant":
        tail = np.zeros(n)
    else:
        tail = draw(arrays(np.float64, n, elements=st.sampled_from(
            [1e300, -1e300, 0.0]) | st.floats(-1e300, 1e300)))
    horizon = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    return NoisePath(grid=TimeGrid(horizon, n), values=np.concatenate(
        [[0.0], tail]), seed=0, spec=brownian())


class TestTimeGrid:
    def test_points_and_delta(self):
        grid = TimeGrid(2.0, 4)
        assert grid.delta == 0.5
        assert np.array_equal(grid.points, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)


class TestCovariances:
    def test_fbm_direct_value(self):
        assert fbm_covariance(1.0, 2.0, 0.7) == pytest.approx(
            2.0 ** 0.4, rel=1e-15)
        assert fbm_covariance(1.0, 2.0, 0.7) == pytest.approx(
            1.3195079107728942, rel=1e-15)

    def test_fbm_half_is_min(self):
        for s, t in [(1.0, 2.0), (0.25, 0.75), (3.0, 3.0)]:
            assert fbm_covariance(s, t, 0.5) == pytest.approx(min(s, t))

    def test_fbm_variance_power_law(self):
        for t in (0.5, 1.0, 2.0):
            assert fbm_covariance(t, t, 0.3) == pytest.approx(t ** 0.6)

    def test_fbm_rejects_bad_hurst(self):
        with pytest.raises(ValueError):
            fbm_covariance(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            fbm(1.0)

    def test_mbm_constant_hurst_equals_fbm(self):
        s = np.linspace(0.1, 2.0, 9)
        for h in (0.3, 0.7):
            a = mbm_covariance(s[:, None], s[None, :], h, h)
            b = fbm_covariance(s[:, None], s[None, :], h)
            assert np.max(np.abs(a - b)) <= 1e-14

    def test_matrix_symmetric_psd(self):
        grid = TimeGrid(1.0, 32)
        for spec in (brownian(), fbm(0.3), fbm(0.8),
                     mbm_sin(0.5, 0.2, 2 * np.pi)):
            cov = covariance_matrix(spec, grid)
            assert np.array_equal(cov, cov.T)
            assert np.min(np.linalg.eigvalsh(cov)) > -1e-10

    def test_custom_kernel_used_verbatim(self):
        spec = custom(lambda s, t: np.minimum(s, t), 0.49)
        grid = TimeGrid(1.0, 8)
        assert np.array_equal(covariance_matrix(spec, grid),
                              covariance_matrix(brownian(), grid))


class TestSamplePath:
    def test_deterministic_and_seed_sensitive(self):
        grid = TimeGrid(1.0, 64)
        a = sample_path(fbm(0.7), grid, 42)
        b = sample_path(fbm(0.7), grid, 42)
        c = sample_path(fbm(0.7), grid, 43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_starts_at_zero(self):
        path = sample_path(fbm(0.3), TimeGrid(1.0, 16), 7)
        assert path.values[0] == 0.0

    def test_brownian_equals_fbm_half_bitwise(self):
        grid = TimeGrid(1.0, 128)
        a = sample_path(brownian(), grid, 11)
        b = sample_path(fbm(0.5), grid, 11)
        assert np.array_equal(a.values, b.values)

    def test_custom_min_kernel_matches_brownian(self):
        grid = TimeGrid(1.0, 32)
        a = sample_path(brownian(), grid, 5)
        b = sample_path(custom(lambda s, t: np.minimum(s, t), 0.49), grid, 5)
        assert np.allclose(a.values, b.values, atol=1e-10)

    def test_mbm_constant_hurst_degenerates_to_fbm(self):
        grid = TimeGrid(1.0, 32)
        for h in (0.3, 0.7):
            a = sample_path(mbm_sin(h, 0.0, 0.0), grid, 3)
            b = sample_path(fbm(h), grid, 3)
            assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_brownian_increment_moments(self):
        grid = TimeGrid(1.0, 2 ** 14)
        path = sample_path_fast_fbm(0.5, grid, 101)
        normalized = path.increments / np.sqrt(grid.delta)
        n = len(normalized)
        assert abs(np.mean(normalized)) < 5.0 / np.sqrt(n)
        assert abs(np.var(normalized) - 1.0) < 5.0 * np.sqrt(2.0 / n)

    def test_path_rejects_nonzero_start(self):
        grid = TimeGrid(1.0, 2)
        with pytest.raises(ValueError):
            NoisePath(grid=grid, values=np.array([1.0, 0.0, 0.0]),
                      seed=0, spec=brownian())


class TestFastFbm:
    def test_deterministic(self):
        grid = TimeGrid(1.0, 256)
        a = sample_path_fast_fbm(0.7, grid, 9)
        b = sample_path_fast_fbm(0.7, grid, 9)
        assert np.array_equal(a.values, b.values)

    def test_fgn_lag_one_autocorrelation(self):
        # For fGn with Hurst H the lag-1 autocorrelation is 2^(2H-1) - 1.
        grid = TimeGrid(1.0, 2 ** 16)
        path = sample_path_fast_fbm(0.7, grid, 77)
        x = path.increments
        x = x - np.mean(x)
        rho = np.dot(x[1:], x[:-1]) / np.dot(x, x)
        assert abs(rho - (2.0 ** 0.4 - 1.0)) < 5.0 / np.sqrt(len(x))

    def test_half_matches_uncorrelated(self):
        grid = TimeGrid(1.0, 2 ** 14)
        path = sample_path_fast_fbm(0.5, grid, 55)
        x = path.increments
        x = x - np.mean(x)
        rho = np.dot(x[1:], x[:-1]) / np.dot(x, x)
        assert abs(rho) < 5.0 / np.sqrt(len(x))

    def test_empirical_covariance_matches_law(self):
        grid = TimeGrid(1.0, 16)
        m = 4000
        draws = np.array([sample_path_fast_fbm(0.3, grid, 1000 + s).values[1:]
                          for s in range(m)])
        emp = draws.T @ draws / m
        cov = covariance_matrix(fbm(0.3), grid)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / m)
        assert np.all(np.abs(emp - cov) <= 5.0 * se)

    def test_variance_at_horizon(self):
        grid = TimeGrid(2.0, 8)
        m = 4000
        vals = np.array([sample_path_fast_fbm(0.7, grid, 5000 + s).values[-1]
                         for s in range(m)])
        target = 2.0 ** 1.4
        se = target * np.sqrt(2.0 / m)
        assert abs(np.var(vals) - target) <= 5.0 * se


class TestSpectrumCache:
    """sqrt of the circulant spectrum, cached per (n, H) across seeds."""

    def setup_method(self):
        noise_module._fgn_sqrt_spectrum.cache_clear()

    teardown_method = setup_method

    def test_cached_sample_equals_cold_sample(self):
        grid = TimeGrid(1.0, 1000)
        sample_path_fast_fbm(0.3, grid, 1)
        warm = sample_path_fast_fbm(0.3, grid, 8)
        assert noise_module._fgn_sqrt_spectrum.cache_info().hits == 1
        noise_module._fgn_sqrt_spectrum.cache_clear()
        cold = sample_path_fast_fbm(0.3, grid, 8)
        assert np.array_equal(warm.values, cold.values)
        assert np.array_equal(noise_module._fgn_sqrt_spectrum(1000, 0.3),
                              np.sqrt(noise_module._fgn_circulant_eigs(1000, 0.3)))

    def test_cached_root_is_read_only(self):
        root = noise_module._fgn_sqrt_spectrum(64, 0.7)
        with pytest.raises(ValueError):
            root[0] = 1.0
        assert noise_module._fgn_sqrt_spectrum(64, 0.7) is root

    def test_cache_is_bounded(self):
        for n in range(2, 40):
            sample_path_fast_fbm(0.7, TimeGrid(1.0, n), 0)
        info = noise_module._fgn_sqrt_spectrum.cache_info()
        assert info.maxsize == 8
        assert info.currsize == 8

    def test_negative_eigenvalue_warns_and_falls_back_every_call(self, monkeypatch):
        monkeypatch.setattr(noise_module, "_fgn_circulant_eigs",
                            lambda n, hurst: np.full(2 * n, -1.0))
        grid = TimeGrid(1.0, 32)
        cholesky = sample_path(fbm(0.7), grid, 5).values
        for _ in range(3):
            with pytest.warns(UserWarning, match="negative eigenvalue"):
                path = sample_path_fast_fbm(0.7, grid, 5)
            assert np.array_equal(path.values, cholesky)
        assert noise_module._fgn_sqrt_spectrum.cache_info().hits == 2


class TestGenerateNoise:
    def test_auto_uses_circulant_for_fbm(self):
        grid = TimeGrid(1.0, 64)
        a = generate_noise(fbm(0.7), grid, 3)
        b = sample_path_fast_fbm(0.7, grid, 3)
        assert np.array_equal(a.values, b.values)

    def test_auto_uses_cholesky_for_mbm(self):
        grid = TimeGrid(1.0, 32)
        spec = mbm_sin(0.5, 0.2, 2 * np.pi)
        a = generate_noise(spec, grid, 3)
        b = sample_path(spec, grid, 3)
        assert np.array_equal(a.values, b.values)

    def test_brownian_and_half_fbm_identical(self):
        grid = TimeGrid(1.0, 64)
        a = generate_noise(brownian(), grid, 21)
        b = generate_noise(fbm(0.5), grid, 21)
        assert np.array_equal(a.values, b.values)


class TestHolderConstant:
    def test_zero_path(self):
        grid = TimeGrid(1.0, 8)
        path = NoisePath(grid=grid, values=np.zeros(9), seed=0, spec=brownian())
        assert holder_constant(path, 0.5) == 0.0

    def test_single_jump(self):
        grid = TimeGrid(1.0, 4)
        values = np.array([0.0, 0.0, 3.0, 3.0, 3.0])
        path = NoisePath(grid=grid, values=values, seed=0, spec=brownian())
        # The tightest pair is the jump across one step of size 1/4.
        assert holder_constant(path, 0.5) == pytest.approx(3.0 / 0.25 ** 0.5)

    def test_linear_path(self):
        grid = TimeGrid(1.0, 4)
        path = NoisePath(grid=grid, values=grid.points.copy(), seed=0,
                         spec=brownian())
        assert holder_constant(path, 0.5) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        grid = TimeGrid(1.0, 40)
        path = sample_path_fast_fbm(0.7, grid, 17)
        for lam in (0.3, 0.5, 0.69):
            expected = brute_force_holder(path.values, grid.points, lam)
            assert holder_constant(path, lam) == pytest.approx(expected,
                                                               rel=1e-12)

    def test_dyadic_is_lower_bound(self):
        grid = TimeGrid(1.0, 64)
        path = sample_path_fast_fbm(0.3, grid, 23)
        assert holder_constant(path, 0.29, lags="dyadic") \
            <= holder_constant(path, 0.29, lags="all")

    def test_auto_warns_on_large_grids(self):
        grid = TimeGrid(1.0, 8192)
        path = sample_path_fast_fbm(0.7, grid, 1)
        with pytest.warns(UserWarning):
            holder_constant(path, 0.69)

    def test_rejects_bad_exponent(self):
        grid = TimeGrid(1.0, 4)
        path = NoisePath(grid=grid, values=np.zeros(5), seed=0, spec=brownian())
        with pytest.raises(ValueError):
            holder_constant(path, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 1000, 4096])
    def test_equals_per_gap_loop(self, n):
        for hurst in (0.3, 0.7):
            path = sample_path_fast_fbm(hurst, TimeGrid(1.0, n), 5)
            for lam in (0.29, 0.69):
                assert holder_constant(path, lam, lags="all") \
                    == per_gap_holder(path, lam, all_gaps(n))
                assert holder_constant(path, lam, lags="dyadic") \
                    == per_gap_holder(path, lam, dyadic_gaps(n))

    @_PROPERTY
    @given(holder_paths(),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.sampled_from([8, 8 * 1000, noise_module._HOLDER_BLOCK_BYTES]))
    def test_equals_per_gap_loop_property(self, path, lam, block_bytes):
        # Block budgets of one row, a few rows and the default.
        n = path.grid.n
        with mock.patch.object(noise_module, "_HOLDER_BLOCK_BYTES", block_bytes):
            assert holder_constant(path, lam, lags="all") \
                == per_gap_holder(path, lam, all_gaps(n))
        assert holder_constant(path, lam, lags="dyadic") \
            == per_gap_holder(path, lam, dyadic_gaps(n))

    def test_auto_dyadic_above_4096_equals_loop(self):
        n = 5000
        path = sample_path_fast_fbm(0.3, TimeGrid(1.0, n), 9)
        with pytest.warns(UserWarning, match="dyadic"):
            estimate = holder_constant(path, 0.29)
        assert estimate == per_gap_holder(path, 0.29, dyadic_gaps(n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lags", ["all", "dyadic"])
    def test_rejects_non_finite_values(self, bad, lags):
        values = sample_path_fast_fbm(0.7, TimeGrid(1.0, 64), 4).values
        values[37] = bad
        values[50] = bad
        path = NoisePath(grid=TimeGrid(1.0, 64), values=values, seed=0,
                         spec=fbm(0.7))
        with pytest.raises(ValueError, match="index 37 "):
            holder_constant(path, 0.69, lags=lags)

    def test_all_pairs_memory_bound(self):
        n = 4096
        path = sample_path_fast_fbm(0.7, TimeGrid(1.0, n), 3)
        tracemalloc.start()
        try:
            holder_constant(path, 0.69, lags="all")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One row block, numpy's iterator buffers (at most 8192 elements per
        # operand) and a few n-vectors; measured 0.37 MB. The pair triangle
        # would be 8 n^2 / 2 = 67 MB.
        assert peak <= 2 * noise_module._HOLDER_BLOCK_BYTES + 64 * n


class TestRestrictToCoarse:
    def test_factor_one_is_identity(self):
        path = sample_path_fast_fbm(0.7, TimeGrid(1.0, 16), 2)
        coarse = restrict_to_coarse(path, 1)
        assert np.array_equal(coarse.values, path.values)

    def test_subsamples_shared_points(self):
        path = sample_path_fast_fbm(0.7, TimeGrid(1.0, 8), 2)
        coarse = restrict_to_coarse(path, 2)
        assert coarse.grid.n == 4
        assert np.array_equal(coarse.values, path.values[::2])
        assert np.array_equal(coarse.grid.points, path.grid.points[::2])

    def test_composes(self):
        path = sample_path_fast_fbm(0.7, TimeGrid(1.0, 16), 2)
        once = restrict_to_coarse(path, 4)
        twice = restrict_to_coarse(restrict_to_coarse(path, 2), 2)
        assert np.array_equal(once.values, twice.values)

    def test_rejects_non_divisor(self):
        path = sample_path_fast_fbm(0.7, TimeGrid(1.0, 8), 2)
        with pytest.raises(ValueError):
            restrict_to_coarse(path, 3)

    def test_holder_constant_never_grows(self):
        path = sample_path_fast_fbm(0.7, TimeGrid(1.0, 64), 31)
        coarse = restrict_to_coarse(path, 4)
        assert holder_constant(coarse, 0.69) <= holder_constant(path, 0.69)


class TestHolderExponentDefaults:
    def test_fbm_slightly_below_hurst(self):
        assert fbm(0.7).holder_exponent() == pytest.approx(0.69)

    def test_brownian(self):
        assert brownian().holder_exponent() == pytest.approx(0.49)

    def test_mbm_needs_grid(self):
        spec = mbm_sin(0.5, 0.2, 2 * np.pi)
        with pytest.raises(ValueError):
            spec.holder_exponent()
        got = spec.holder_exponent(TimeGrid(1.0, 64))
        assert got == pytest.approx(0.3 - 0.01, abs=1e-3)

    def test_custom_needs_hint(self):
        spec = GaussianDriverSpec(kind="custom",
                                  cov=lambda s, t: np.minimum(s, t))
        with pytest.raises(ValueError):
            spec.holder_exponent()
        assert custom(lambda s, t: np.minimum(s, t),
                      0.49).holder_exponent() == 0.49


def stored_kernel(matrix):
    """A custom kernel that hands back the same stored array on every call."""
    return custom(lambda s, t: matrix, 0.49)


def brownian_matrix(n):
    t = TimeGrid(1.0, n).points[1:]
    return np.minimum.outer(t, t)


def factor_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def cold_factor(spec, grid):
    """Build the factor with the cache bypassed, and leave nothing cached."""
    key = (spec.cache_key, grid.horizon, grid.n)
    noise_module._factor_cache.pop(key, None)
    try:
        return noise_module._factor_for(spec, grid)
    finally:
        noise_module._factor_cache.pop(key, None)


class TestCovarianceBuffer:
    @pytest.mark.parametrize("spec", [
        brownian(), fbm(0.3), mbm_sin(0.5, 0.2, 2 * np.pi),
        custom(lambda s, t: np.asfortranarray(np.minimum(s, t)), 0.49)])
    def test_fresh_c_contiguous_float64(self, spec):
        cov = covariance_matrix(spec, TimeGrid(1.0, 20))
        assert cov.dtype == np.float64
        assert cov.flags.c_contiguous and cov.flags.owndata

    def test_custom_kernel_array_not_written_into(self):
        stored = brownian_matrix(40)
        before = stored.copy()
        spec = stored_kernel(stored)
        assert not np.shares_memory(covariance_matrix(spec, TimeGrid(1.0, 40)),
                                    stored)
        sample_path(spec, TimeGrid(1.0, 40), 3)
        assert np.array_equal(stored, before)

    def test_triangle_build_is_the_pointwise_formula(self):
        # 300 points: one full row block of 256 and a partial one.
        grid = TimeGrid(1.0, 300)
        t = grid.points[1:]
        spec = mbm_sin(0.5, 0.2, 2 * np.pi)
        h = spec.hurst_fn(t)
        full = mbm_covariance(t[:, None], t[None, :], h[:, None], h[None, :])
        assert np.array_equal(covariance_matrix(spec, grid), full)
        assert np.array_equal(covariance_matrix(fbm(0.3), grid),
                              fbm_covariance(t[:, None], t[None, :], 0.3))


def never_refill(packed):
    raise AssertionError("a positive definite covariance needs no refill")


class TestBlockedCholesky:
    @pytest.mark.parametrize("spec,n", [
        (mbm_sin(0.5, 0.2, 2 * np.pi), 1024), (fbm(0.3), 600)])
    def test_matches_numpy_cholesky(self, spec, n):
        grid = TimeGrid(1.0, n)
        cov = covariance_matrix(spec, grid)
        ref = np.linalg.cholesky(cov)
        packed = covariance_matrix(spec, grid, packed=True)
        factor = unpack(noise_module._cholesky_with_jitter(packed, n, never_refill), n)
        # Measured 8.0e-13 (mBm, N=1024) and 3.8e-14 (fBm, N=600).
        assert factor_gap(factor, ref) <= 1e-12
        assert np.linalg.norm(factor @ factor.T - cov) <= (
            1e-14 * np.linalg.norm(cov))
        # The diagonal blocks are stored whole, with zeros above the diagonal.
        assert np.array_equal(np.triu(factor, 1), np.zeros((n, n)))

    @pytest.mark.parametrize("n", [1, 100, 256, 300, 513])
    def test_block_edges(self, n):
        # Blocks of 256: below one block, exactly one, and ragged last blocks.
        grid = TimeGrid(1.0, n)
        cov = covariance_matrix(fbm(0.3), grid)
        packed = covariance_matrix(fbm(0.3), grid, packed=True)
        full, ragged = divmod(n, 256)
        assert packed.size == 256 * 256 * full * (full + 1) // 2 + ragged * n
        rows = list(noise_module._block_rows(packed, n))
        assert [(i0, i1) for i0, i1, _ in rows] == [
            (i0, min(i0 + 256, n)) for i0 in range(0, n, 256)]
        for i0, i1, blk in rows:
            assert np.array_equal(blk, cov[i0:i1, :i1])
        noise_module._cholesky_in_place(packed, n)
        a = unpack(packed, n)
        assert factor_gap(a, np.linalg.cholesky(cov)) <= 1e-13
        assert np.array_equal(np.triu(a, 1), np.zeros((n, n)))

    def test_cold_factor_memory_bound(self):
        n = 2048
        tracemalloc.start()
        try:
            cold_factor(mbm_sin(0.5, 0.2, 2 * np.pi), TimeGrid(1.0, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The packed buffer, n (n + 256) / 2 values (0.5625 of 8 n^2 at
        # n = 2048), plus kernel row chunks and 256 x 256 temporaries;
        # measured 0.60 (0.72 with 1 MB row chunks).
        assert peak <= 0.75 * 8 * n * n

    def test_jitter_is_reported(self):
        n = 300
        spec = custom(lambda s, t: np.ones(np.broadcast_shapes(s.shape, t.shape)),
                      0.49)
        grid = TimeGrid(1.0, n)
        with pytest.warns(UserWarning, match="jitter") as record:
            factor = unpack(noise_module._factor_for(spec, grid), n)
        jitter = float(re.search(r"jitter (\S+)", str(record[0].message))[1])
        assert jitter > 0.0
        cov = covariance_matrix(spec, grid)
        gram = factor @ factor.T
        assert np.max(np.abs(gram - (cov + jitter * np.eye(n)))) <= 1e-12
        assert np.allclose(np.diag(gram) - np.diag(cov), jitter, rtol=0.05,
                           atol=0.0)

    def test_no_warning_without_jitter(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cold_factor(mbm_sin(0.5, 0.2, 2 * np.pi), TimeGrid(1.0, 256))

    def test_not_positive_definite_restores_input(self):
        # The last pivot of the Brownian factor is delta; taking 2 delta off
        # the last variance makes it negative, so the factor fails in the
        # second row block, after the first has been overwritten.
        n = 300
        grid = TimeGrid(1.0, n)
        stored = brownian_matrix(n)
        stored[-1, -1] -= 2.0 / n
        before = stored.copy()
        smallest = np.min(np.linalg.eigvalsh(before))
        assert smallest < 0.0
        with pytest.raises(CholeskyError, match=f"{smallest:.3e}"):
            sample_path(stored_kernel(stored), grid, 0)
        assert np.array_equal(stored, before)
        # A caller's packed covariance is factored in place, and refilled
        # from the kernel when every attempt fails.
        work = covariance_matrix(stored_kernel(stored), grid, packed=True)
        packed_before = work.copy()
        with pytest.raises(CholeskyError, match=f"{smallest:.3e}"):
            sample_path(stored_kernel(stored), grid, 0, cov=work)
        assert np.array_equal(work, packed_before)
        assert np.array_equal(stored, before)
        # Each failed attempt is undone by refilling from the source.
        packed = covariance_matrix(stored_kernel(stored), grid, packed=True)
        source = packed.copy()
        refills = []

        def refill(buf):
            refills.append(1)
            buf[...] = source

        with pytest.raises(CholeskyError):
            noise_module._cholesky_with_jitter(packed, n, refill)
        assert len(refills) == 1 + noise_module._MAX_JITTER_DOUBLINGS
        assert np.array_equal(packed, source)


# mBm below one block, exactly one, one row past it and four blocks;
# fBm with a ragged last block.
ORACLE_CASES = [(mbm_sin(0.5, 0.2, 2 * np.pi), n) for n in (1, 255, 256, 257, 1024)] \
    + [(fbm(0.3), 600)]


class TestDenseOracle:
    """The packed factor against the dense factor the library used to build."""

    @pytest.mark.parametrize("spec,n", ORACLE_CASES)
    def test_factor_blocks_equal_dense_factor(self, spec, n):
        grid = TimeGrid(1.0, n)
        factor = cold_factor(spec, grid)
        dense = dense_factor(spec, grid)
        for i0, i1, blk in noise_module._block_rows(factor, n):
            assert np.array_equal(blk, dense[i0:i1, :i1])
        assert np.array_equal(unpack(factor, n), dense)

    @pytest.mark.parametrize("spec,n", ORACLE_CASES)
    def test_samples_equal_dense_gemv(self, spec, n):
        grid = TimeGrid(1.0, n)
        noise_module._factor_cache.pop((spec.cache_key, 1.0, n), None)
        dense = dense_factor(spec, grid)
        for seed in range(5):
            got = sample_path(spec, grid, seed).values
            want = dense_sample(dense, seed)
            if n % 256 == 1:
                # The last block is one row, which numpy computes as a dot
                # product: the same sum as the GEMV row, in another order
                # (measured: up to 16 ulp of the last value at n = 257).
                bound = 4 * n * np.finfo(float).eps * (
                    np.abs(dense) @ np.abs(noise_module._rng(seed).standard_normal(n)))
                assert np.all(np.abs(got[1:] - want[1:]) <= bound)
            else:
                assert np.array_equal(got, want)
        noise_module._factor_cache.pop((spec.cache_key, 1.0, n), None)

    @pytest.mark.parametrize("spec", [
        brownian(), fbm(0.5), custom(lambda s, t: np.exp(-np.abs(s - t)), 0.49)])
    def test_other_cholesky_routes_equal_dense_gemv(self, spec):
        grid = TimeGrid(2.0, 512)
        dense = dense_factor(spec, grid)
        for seed in range(3):
            assert np.array_equal(sample_path(spec, grid, seed).values,
                                  dense_sample(dense, seed))


JITTER_SIZES = (1, 255, 256, 257, 300, 513)


@st.composite
def near_singular_covariances(draw):
    """A rank-one kernel plus eps I, or fBm at pairs of near-duplicate times."""
    n = draw(st.sampled_from(JITTER_SIZES))
    t = TimeGrid(1.0, n).points[1:]
    if draw(st.booleans()):
        a = draw(st.floats(0.6, 2.0))
        v = a + 0.5 * np.sin(draw(st.floats(0.0, 20.0)) * t)
        eps = draw(st.sampled_from((0.0, 1e-18, 1e-16, 1e-14))) * a * a
        return np.outer(v, v) + eps * np.eye(n)
    tau = t.copy()
    tau[1::2] = tau[:-1:2] + draw(st.sampled_from((0.0, 1e-14, 1e-12, 1e-10)))
    return fbm_covariance(tau[:, None], tau[None, :], draw(st.floats(0.6, 0.9)))


class TestJitterProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(near_singular_covariances())
    def test_jittered_factor(self, matrix):
        n = matrix.shape[0]
        grid = TimeGrid(1.0, n)
        stored = matrix.copy()
        spec = stored_kernel(stored)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            factor = noise_module._factor_for(spec, grid)
        amount = 0.0
        if record:
            (message,) = [str(w.message) for w in record]
            amount = float(re.search(r"jitter (\S+) to its diagonal", message)[1])
            schedule = 1e-12 * float(np.mean(np.diagonal(matrix)))
            assert amount in [schedule * 2.0 ** k
                              for k in range(noise_module._MAX_JITTER_DOUBLINGS)]
            assert repr(amount) in message
        lower = unpack(factor, n)
        gap = np.max(np.abs(lower @ lower.T - (matrix + amount * np.eye(n))))
        assert gap <= 1e-12 * np.max(np.abs(matrix))
        cov = covariance_matrix(spec, grid, packed=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            from_caller = noise_module._factor_for(spec, grid, cov=cov)
            oracle = dense_factor(spec, grid)
        # A caller's packed covariance becomes the factor, jitter included.
        assert from_caller is cov
        assert np.array_equal(from_caller, factor)
        assert np.array_equal(stored, matrix)
        if n % 256 != 1:
            # A one-row last block is solved against the first diagonal
            # factor alone, where the dense factor solved it with 256 more
            # rows; OpenBLAS takes another path for one right-hand side,
            # and at n = 513 the last row moved in its last bits.
            assert np.array_equal(lower, oracle)


def test_import_leaves_scipy_linalg_out():
    # scipy.linalg costs every process several MB of RSS.
    src = os.path.dirname(os.path.dirname(sandwiched_sde.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, sandwiched_sde, sandwiched_sde.cli; "
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
