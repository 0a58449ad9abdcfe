"""Discrete sample paths of Holder-continuous Gaussian drivers.

Supported drivers: standard Brownian motion, fractional Brownian motion
(fBm), multifractional Brownian motion (mBm) with a time-varying Hurst
function, and arbitrary user-supplied covariance kernels. Paths are
generated on uniform grids either by Cholesky factorization of the
covariance matrix or, for fBm, by circulant embedding of the increment
covariance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gamma as _gamma_fn

__all__ = [
    "TimeGrid",
    "GaussianDriverSpec",
    "NoisePath",
    "brownian",
    "fbm",
    "mbm",
    "mbm_sin",
    "custom",
    "fbm_covariance",
    "mbm_covariance",
    "covariance_matrix",
    "sample_path",
    "sample_path_fast_fbm",
    "generate_noise",
    "holder_constant",
    "restrict_to_coarse",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition 0 = t_0 < t_1 < ... < t_n = T."""

    horizon: float
    n: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.n < 1:
            raise ValueError("need at least one step")

    @property
    def delta(self) -> float:
        return self.horizon / self.n

    @cached_property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n + 1)


@dataclass(frozen=True)
class GaussianDriverSpec:
    """A centered Gaussian driver identified by its covariance on grids.

    ``cache_key`` identifies specs whose covariance factorization may be
    reused across paths; it is None for specs built around raw callables.
    """

    kind: str  # "brownian" | "fbm" | "mbm" | "custom"
    hurst: Optional[float] = None
    hurst_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    cov: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    holder_exponent_hint: Optional[float] = None
    cache_key: Optional[tuple] = field(default=None, compare=False)

    def holder_exponent(self, grid: Optional[TimeGrid] = None) -> float:
        """Default Holder exponent: slightly below the (minimal) Hurst index."""
        if self.holder_exponent_hint is not None:
            return self.holder_exponent_hint
        if self.kind == "brownian":
            return 0.49
        if self.kind == "fbm":
            return self.hurst - 0.01
        if self.kind == "mbm":
            if grid is None:
                raise ValueError("mbm needs a grid to locate the minimal Hurst value")
            return float(np.min(self.hurst_fn(grid.points))) - 0.01
        raise ValueError("no default Holder exponent for custom drivers; pass a hint")


@dataclass(frozen=True)
class NoisePath:
    """Driver values Z(t_k) on a grid, with Z(0) = 0."""

    grid: TimeGrid
    values: np.ndarray
    seed: int
    spec: GaussianDriverSpec

    def __post_init__(self):
        if len(self.values) != self.grid.n + 1:
            raise ValueError("values length must equal number of grid points")
        if self.values[0] != 0.0:
            raise ValueError("driver paths must start at zero")

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values)


def brownian() -> GaussianDriverSpec:
    return GaussianDriverSpec(kind="brownian", hurst=0.5, cache_key=("brownian",))


def fbm(hurst: float) -> GaussianDriverSpec:
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"Hurst index must lie in (0,1), got {hurst}")
    return GaussianDriverSpec(kind="fbm", hurst=hurst, cache_key=("fbm", hurst))


def mbm(hurst_fn: Callable[[np.ndarray], np.ndarray]) -> GaussianDriverSpec:
    return GaussianDriverSpec(kind="mbm", hurst_fn=hurst_fn)


def mbm_sin(a: float, b: float, c: float) -> GaussianDriverSpec:
    """mBm with the built-in Hurst shape H(t) = a + b*sin(c*t)."""
    return GaussianDriverSpec(
        kind="mbm",
        hurst_fn=lambda t: a + b * np.sin(c * t),
        cache_key=("mbm_sin", a, b, c),
    )


def custom(cov: Callable[[np.ndarray, np.ndarray], np.ndarray],
           holder_exponent_hint: float) -> GaussianDriverSpec:
    return GaussianDriverSpec(kind="custom", cov=cov,
                              holder_exponent_hint=holder_exponent_hint)


def fbm_covariance(s, t, hurst: float):
    """Covariance of fBm: (t^2H + s^2H - |t-s|^2H) / 2."""
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"Hurst index must lie in (0,1), got {hurst}")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    h2 = 2.0 * hurst
    out = 0.5 * (np.abs(t) ** h2 + np.abs(s) ** h2 - np.abs(t - s) ** h2)
    return out if out.ndim else float(out)


def _mbm_root(h):
    # sqrt(Gamma(2h+1) sin(pi h)): the factor of the mBm normalisation that
    # depends on one index only.
    return np.sqrt(_gamma_fn(2.0 * h + 1.0) * np.sin(np.pi * h))


def mbm_covariance(s, t, hs, ht):
    """Covariance of harmonizable mBm between times s, t with Hurst hs, ht.

    r(hs) r(ht) (|s|^H + |t|^H - |t-s|^H) / (2 Gamma(H+1) sin(pi H / 2)) with
    H = hs + ht and r(h) = sqrt(Gamma(2h+1) sin(pi h)), normalised so that a
    constant Hurst index gives fBm exactly. Pointwise and exactly symmetric
    in (s, hs) <-> (t, ht); with row and column vectors r costs O(N).
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    hs = np.asarray(hs, dtype=float)
    ht = np.asarray(ht, dtype=float)
    hsum = hs + ht
    out = np.abs(s) ** hsum + np.abs(t) ** hsum - np.abs(t - s) ** hsum
    out *= _mbm_root(hs) * _mbm_root(ht)
    out /= 2.0 * _gamma_fn(hsum + 1.0) * np.sin(0.5 * np.pi * hsum)
    return out if out.ndim else float(out)


_BLOCK = 256
# Byte budget of one row chunk of a pointwise kernel (at least one row).
_KERNEL_CHUNK_BYTES = 1 << 18


def _blocks(n: int):
    for i0 in range(0, n, _BLOCK):
        yield i0, min(i0 + _BLOCK, n)


def _block_rows(packed: np.ndarray, n: int):
    """Yield (i0, i1, rows i0:i1 x columns 0:i1) of a packed lower matrix.

    Each block row, diagonal block included, is one C-contiguous slice of
    a flat buffer: n (n + 256) / 2 values when 256 divides n.
    """
    for i0, i1 in _blocks(n):
        start = i0 * (i0 + _BLOCK) // 2  # the block rows above are full
        yield i0, i1, packed[start:start + (i1 - i0) * i1].reshape(i1 - i0, i1)


def _symmetric_rows(packed: np.ndarray, n: int):
    """Yield the full rows of a packed symmetric matrix, one block row at a time."""
    blocks = list(_block_rows(packed, n))
    for b, (i0, i1, blk) in enumerate(blocks):
        yield np.hstack([blk] + [below[:, i0:i1].T for _, _, below in blocks[b + 1:]])


def _kernel_rows(spec: GaussianDriverSpec, grid: TimeGrid):
    """rows(i, j): the covariance of (Z(t_1), ..., Z(t_n)) at index slices i, j."""
    t = grid.points[1:]
    if spec.kind == "brownian":
        return lambda i, j: np.minimum.outer(t[i], t[j])
    if spec.kind == "fbm":
        hurst = spec.hurst
        return lambda i, j: fbm_covariance(t[i, None], t[None, j], hurst)
    if spec.kind == "mbm":
        h = np.asarray(spec.hurst_fn(t), dtype=float)
        if np.any(h <= 0.0) or np.any(h >= 1.0):
            raise ValueError("mbm Hurst function must take values in (0,1) on the grid")
        return lambda i, j: mbm_covariance(t[i, None], t[None, j], h[i, None], h[None, j])
    if spec.kind == "custom":
        full = np.asarray(spec.cov(t[:, None], t[None, :]), dtype=float)
        return lambda i, j: full[i, j]
    raise ValueError(f"unknown driver kind {spec.kind!r}")


def _fill_packed(n: int, rows, packed: Optional[np.ndarray] = None) -> np.ndarray:
    # Lower block rows from rows(i, j), at most _KERNEL_CHUNK_BYTES per call.
    if packed is None:
        packed = np.empty(sum((i1 - i0) * i1 for i0, i1 in _blocks(n)))
    for i0, i1, blk in _block_rows(packed, n):
        step = max(1, _KERNEL_CHUNK_BYTES // (8 * i1))
        for r in range(0, i1 - i0, step):
            blk[r:r + step] = rows(slice(i0 + r, min(i0 + r + step, i1)), slice(0, i1))
    return packed


def covariance_matrix(spec: GaussianDriverSpec, grid: TimeGrid, *,
                      packed: bool = False) -> np.ndarray:
    """Covariance of (Z(t_1), ..., Z(t_n)); t_0 is excluded since Z(0) = 0.

    Always a fresh C-contiguous float64 array that the caller may
    overwrite. With ``packed=True`` it holds only the lower block rows, in
    the flat layout of the Cholesky factor; fBm and mBm then evaluate
    their kernel on lower rows only, and no n x n array is made.
    """
    n = grid.n
    rows = _kernel_rows(spec, grid)
    if packed:
        return _fill_packed(n, rows)
    out = np.empty((n, n))
    for i0, i1 in _blocks(n):
        out[i0:i1, :i1] = rows(slice(i0, i1), slice(0, i1))
        out[:i0, i0:i1] = out[i0:i1, :i0].T  # diagonal blocks are evaluated whole
    return out


class CholeskyError(RuntimeError):
    pass


_MAX_JITTER_DOUBLINGS = 8
_factor_cache: dict = {}


def _cholesky_in_place(packed: np.ndarray, n: int) -> None:
    """Overwrite a packed lower matrix with its Cholesky factor.

    Left-looking over block rows: each block left of the diagonal takes one
    GEMM against finished blocks and a solve against the diagonal factor
    above it; the diagonal block is then factored by ``np.linalg.cholesky``
    (zeros above its diagonal), raising ``np.linalg.LinAlgError`` if not PD.
    """
    rows = list(_block_rows(packed, n))
    for b, (i0, i1, blk) in enumerate(rows):
        for j0, j1, above in rows[:b]:
            part = blk[:, j0:j1]
            part -= blk[:, :j0] @ above[:, :j0].T
            part[...] = np.linalg.solve(above[:, j0:j1], part.T).T
        left = blk[:, :i0]
        blk[:, i0:i1] = np.linalg.cholesky(blk[:, i0:i1] - left @ left.T)


def _cholesky_with_jitter(packed: np.ndarray, n: int, refill) -> np.ndarray:
    """Factor a packed covariance in place, adding diagonal jitter if not PD.

    Returns ``packed``. Jitter starts at 1e-12 times the mean variance and
    doubles up to ``_MAX_JITTER_DOUBLINGS`` times; the amount used is
    reported with a warning. ``refill(packed)`` undoes a failed attempt from
    the covariance's source; if every amount fails, ``CholeskyError``.
    """
    r = np.arange(n)
    i0 = r - r % _BLOCK  # flat index of entry (r, r), as in _block_rows
    index = i0 * (i0 + _BLOCK) // 2 + (r - i0) * np.minimum(i0 + _BLOCK, n) + r
    diag = packed[index]
    jitter = 1e-12 * float(np.mean(diag))
    for amount in [0.0] + [jitter * 2.0 ** k for k in range(_MAX_JITTER_DOUBLINGS)]:
        packed[index] = diag + amount
        try:
            _cholesky_in_place(packed, n)
            break
        except np.linalg.LinAlgError:
            refill(packed)
    else:
        dense = np.zeros((n, n))
        for b0, b1, blk in _block_rows(packed, n):
            dense[b0:b1, :b1] = blk
        smallest = float(np.min(np.linalg.eigvalsh(dense)))
        raise CholeskyError(
            f"covariance matrix is not positive definite after jitter; "
            f"smallest eigenvalue estimate {smallest:.3e}"
        )
    if amount:
        warnings.warn(f"covariance matrix is not positive definite; added "
                      f"jitter {amount!r} to its diagonal")
    return packed


def _brownian_like_factor(grid: TimeGrid) -> np.ndarray:
    # Exact Cholesky factor of min(s,t) on a uniform grid: sqrt(delta) at j <= i.
    k, root = np.arange(grid.n), np.sqrt(grid.delta)
    return _fill_packed(grid.n, lambda i, j: root * (k[j] <= k[i, None]))


def _factor_for(spec: GaussianDriverSpec, grid: TimeGrid,
                cov: Optional[np.ndarray] = None) -> np.ndarray:
    """The packed factor, cached by ``cache_key``; a packed ``cov`` becomes it."""
    key = None
    if spec.cache_key is not None:
        key = (spec.cache_key, grid.horizon, grid.n)
        cached = _factor_cache.get(key)
        if cached is not None:
            return cached
    n = grid.n
    if spec.kind == "brownian" or (spec.kind == "fbm" and spec.hurst == 0.5):
        factor = _brownian_like_factor(grid)
    else:
        def refill(packed):
            _fill_packed(n, _kernel_rows(spec, grid), packed)

        packed = covariance_matrix(spec, grid, packed=True) if cov is None else cov
        factor = _cholesky_with_jitter(packed, n, refill)
    if key is not None:
        _factor_cache[key] = factor
    return factor


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def sample_path(spec: GaussianDriverSpec, grid: TimeGrid, seed: int,
                cov: Optional[np.ndarray] = None) -> NoisePath:
    """Sample the driver on the grid via the covariance Cholesky factor.

    The sample has the exact joint Gaussian law of the driver restricted
    to the grid and is deterministic given (spec, grid, seed) and the
    BLAS thread count: the factor and the products go through BLAS, whose
    rounding depends on how many threads it uses. ``cov`` may pass in
    ``covariance_matrix(spec, grid, packed=True)``: unless a factor is
    cached, it is factored in place (and refilled on a CholeskyError).
    """
    factor = _factor_for(spec, grid, cov)
    xi = _rng(seed).standard_normal(grid.n)
    values = np.concatenate(
        [[0.0], *(blk @ xi[:i1] for _, i1, blk in _block_rows(factor, grid.n))])
    return NoisePath(grid=grid, values=values, seed=seed, spec=spec)


def _fgn_circulant_eigs(n: int, hurst: float) -> np.ndarray:
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    rho = 0.5 * ((k + 1.0) ** h2 + np.abs(k - 1.0) ** h2) - k ** h2
    circ = np.concatenate([rho[:-1], [0.0], rho[-2:0:-1]])
    return np.fft.fft(circ).real


@lru_cache(maxsize=8)
def _fgn_sqrt_spectrum(n: int, hurst: float) -> Optional[np.ndarray]:
    """Read-only sqrt of the circulant fGn spectrum for (n, hurst), or
    None when the embedding has a negative eigenvalue.

    Seed-independent, so it is kept for the last 8 pairs (16n bytes each).
    """
    eigs = _fgn_circulant_eigs(n, hurst)
    if np.min(eigs) < 0.0:
        return None
    root = np.sqrt(eigs)
    root.flags.writeable = False
    return root


def sample_path_fast_fbm(hurst: float, grid: TimeGrid, seed: int) -> NoisePath:
    """Sample fBm on the grid by circulant embedding of the fGn covariance.

    Exact in law and O(N log N); falls back to the Cholesky route with a
    warning if the embedding produces a negative eigenvalue.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"Hurst index must lie in (0,1), got {hurst}")
    n = grid.n
    root = _fgn_sqrt_spectrum(n, hurst)
    if root is None:
        warnings.warn(
            "circulant embedding has a negative eigenvalue; "
            "falling back to Cholesky sampling"
        )
        return sample_path(fbm(hurst), grid, seed)
    rng = _rng(seed)
    z = np.zeros(2 * n, dtype=complex)
    z[0] = rng.standard_normal()
    z[n] = rng.standard_normal()
    v = rng.standard_normal((n - 1, 2))
    z[1:n] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
    z[n + 1:] = np.conj(z[1:n][::-1])
    fgn = np.sqrt(2 * n) * np.fft.ifft(root * z).real[:n]
    increments = fgn * grid.delta ** hurst
    values = np.empty(n + 1)
    values[0] = 0.0
    np.cumsum(increments, out=values[1:])
    return NoisePath(grid=grid, values=values, seed=seed,
                     spec=fbm(hurst) if hurst != 0.5 else brownian())


def generate_noise(spec: GaussianDriverSpec, grid: TimeGrid, seed: int) -> NoisePath:
    """Dispatch to the fast fBm sampler when possible, Cholesky otherwise."""
    if spec.kind in ("brownian", "fbm"):
        hurst = 0.5 if spec.kind == "brownian" else spec.hurst
        return sample_path_fast_fbm(hurst, grid, seed)
    return sample_path(spec, grid, seed)


# Byte budget of the row block in the all-pairs Holder scan (at least one row).
_HOLDER_BLOCK_BYTES = 128 * 1024


def _widest_all_gaps(z: np.ndarray) -> np.ndarray:
    """max_i |z[i+g] - z[i]| for every gap g = 1..n, in row blocks.

    Row i of ``ahead`` holds z[i+1], z[i+2], ... padded with NaN past the
    end, so one block of rows gives every gap its valid pairs and
    ``fmax`` drops the padding. Each block is differenced in place in
    one buffer of at most ``_HOLDER_BLOCK_BYTES``.
    """
    n = len(z) - 1
    padded = np.full(2 * n, np.nan)
    padded[:n + 1] = z
    ahead = sliding_window_view(padded[1:], n)
    rows = max(1, min(n, _HOLDER_BLOCK_BYTES // (8 * n)))
    buf = np.empty(rows * n)
    widest = np.zeros(n)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        width = n - i0  # gaps past n - i0 leave the grid from every row
        blk = buf[:(i1 - i0) * width].reshape(i1 - i0, width)
        np.subtract(ahead[i0:i1, :width], z[i0:i1, None], out=blk)
        np.abs(blk, out=blk)
        np.fmax(widest[:width], np.fmax.reduce(blk, axis=0), out=widest[:width])
    return widest


def holder_constant(path: NoisePath, lam: float, lags: str = "auto") -> float:
    """Discrete Holder-constant estimate max |Z(t_n)-Z(t_k)| / (t_n-t_k)^lam.

    ``lags="all"`` scans every grid pair in one array pass over row
    blocks; ``"dyadic"`` restricts to power-of-two gaps (a lower bound
    for the full-pair maximum) and is the automatic choice above 4096
    steps, flagged with a warning. A non-finite path value raises
    ``ValueError`` naming its index.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("Holder exponent must lie in (0,1)")
    z = path.values
    n = path.grid.n
    delta = path.grid.delta
    finite = np.isfinite(z)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"holder_constant: path value {z[k]!r} at index {k} "
                         f"is not finite")
    if lags == "auto":
        lags = "all" if n <= 4096 else "dyadic"
        if lags == "dyadic":
            warnings.warn(
                "holder_constant: using dyadic gap restriction for a grid "
                "with more than 4096 steps; the result is a lower bound "
                "for the full-pair maximum"
            )
    if lags == "all":
        gaps = range(1, n + 1)
        widest = _widest_all_gaps(z)
    elif lags == "dyadic":
        gaps = sorted({min(2 ** j, n) for j in range(n.bit_length())})
        widest = np.array([np.max(np.abs(z[gap:] - z[:-gap])) for gap in gaps])
    else:
        raise ValueError(f"unknown lag mode {lags!r}")
    steps = widest / np.array([(gap * delta) ** lam for gap in gaps])
    return float(np.fmax.reduce(steps, initial=0.0))


def restrict_to_coarse(path: NoisePath, factor: int) -> NoisePath:
    """Subsample the path onto the coarse grid with n/factor steps."""
    if factor < 1:
        raise ValueError("factor must be a positive integer")
    if path.grid.n % factor != 0:
        raise ValueError(f"factor {factor} does not divide {path.grid.n} steps")
    coarse = TimeGrid(horizon=path.grid.horizon, n=path.grid.n // factor)
    return replace(path, grid=coarse, values=path.values[::factor].copy())
