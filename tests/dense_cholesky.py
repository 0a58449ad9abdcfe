"""Dense reference for the packed Cholesky factor of ``sandwiched_sde.noise``.

The factor used to be one n x n float64 matrix, factored in place by the
blocked Cholesky below, and a sample was one GEMV with it. The packed
factor does the same per-block operations, so its blocks equal these
factors bitwise; the tests compare the two.
"""

import warnings

import numpy as np

from sandwiched_sde import noise as noise_module
from sandwiched_sde.noise import covariance_matrix

_BLOCK = 256
_MAX_JITTER_DOUBLINGS = 8


def _blocks(n):
    for i0 in range(0, n, _BLOCK):
        yield i0, min(i0 + _BLOCK, n)


def cholesky_in_place(a):
    """Overwrite the lower triangle of ``a`` with its Cholesky factor.

    Left-looking and blocked by block columns; the strict upper triangle
    still holds the input. Raises ``np.linalg.LinAlgError`` if a diagonal
    block is not positive definite.
    """
    n = a.shape[0]
    for j0, j1 in _blocks(n):
        done = a[j0:j1, :j0]
        d = np.linalg.cholesky(a[j0:j1, j0:j1] - done @ done.T)
        np.copyto(a[j0:j1, j0:j1], d, where=np.tri(j1 - j0, dtype=bool))
        if j1 < n:
            panel = a[j1:, j0:j1]
            panel -= a[j1:, :j0] @ done.T
            panel[...] = np.linalg.solve(d, panel.T).T


def _restore_lower(a, diag):
    # Undo a failed factorization from the untouched strict upper triangle.
    for i0, i1 in _blocks(a.shape[0]):
        a[i0:i1, :i0] = a[:i0, i0:i1].T
        blk = a[i0:i1, i0:i1]
        np.copyto(blk, blk.T, where=np.tri(i1 - i0, k=-1, dtype=bool))
    np.fill_diagonal(a, diag)


def cholesky_with_jitter(cov):
    """Factor the symmetric ``cov`` in place, with the jitter schedule of
    the library; returns it lower triangular. Raises
    ``noise.CholeskyError`` with ``cov`` restored if every amount fails."""
    diag = np.diagonal(cov).copy()
    jitter = 1e-12 * float(np.mean(diag))
    for amount in [0.0] + [jitter * 2.0 ** k for k in range(_MAX_JITTER_DOUBLINGS)]:
        np.fill_diagonal(cov, diag + amount)
        try:
            cholesky_in_place(cov)
            break
        except np.linalg.LinAlgError:
            _restore_lower(cov, diag)
    else:
        smallest = float(np.min(np.linalg.eigvalsh(cov)))
        raise noise_module.CholeskyError(
            f"covariance matrix is not positive definite after jitter; "
            f"smallest eigenvalue estimate {smallest:.3e}"
        )
    if amount:
        warnings.warn(f"covariance matrix is not positive definite; added "
                      f"jitter {amount!r} to its diagonal")
    for i0, i1 in _blocks(cov.shape[0]):
        cov[i0:i1, i1:] = 0.0
        np.copyto(cov[i0:i1, i0:i1], 0.0, where=~np.tri(i1 - i0, dtype=bool))
    return cov


def dense_covariance(spec, grid):
    """The full n x n covariance: the packed lower block rows, mirrored
    above the diagonal blocks (which the kernel evaluates whole)."""
    n = grid.n
    cov = unpack(covariance_matrix(spec, grid), n)
    for i0, i1 in _blocks(n):
        cov[:i0, i0:i1] = cov[i0:i1, :i0].T
    return cov


def dense_factor(spec, grid):
    """The n x n factor the library built before the packed layout."""
    n = grid.n
    if spec.kind == "brownian" or (spec.kind == "fbm" and spec.hurst == 0.5):
        return np.tril(np.full((n, n), np.sqrt(grid.delta)))
    return cholesky_with_jitter(dense_covariance(spec, grid))


def dense_sample(factor, seed):
    """Sample values (with Z(0) = 0) from a dense factor, as one GEMV."""
    xi = noise_module._rng(seed).standard_normal(factor.shape[0])
    values = np.empty(factor.shape[0] + 1)
    values[0] = 0.0
    values[1:] = factor @ xi
    return values


def unpack(packed, n):
    """The n x n matrix whose lower block rows a packed buffer holds; zero
    above the diagonal blocks."""
    dense = np.zeros((n, n))
    for i0, i1, blk in noise_module._block_rows(packed, n):
        dense[i0:i1, :i1] = blk
    return dense
