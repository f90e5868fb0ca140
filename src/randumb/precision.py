"""Shrinkage and factorization of the pooled covariance.

The raw covariance S is pulled toward a scaled identity by the
closed-form oracle-approximating shrinkage intensity

    mu  = tr(S) / E
    rho = min(1, [ (1 - 2/E) tr(S^2) + tr(S)^2 ]
                 / [ (n + 1 - 2/E) ( tr(S^2) - tr(S)^2 / E ) ])
    shrunk = (1 - rho) S + rho mu I

with rho = 1 when the denominator is non-positive (S already
proportional to the identity).  A ridge term lambda * I is then added
and the result factorized once (Cholesky); scoring needs only solves
against this factorization, never an explicit inverse.

The estimator writes only the upper triangle of its Fortran-ordered
accumulator, so shrinkage and factorization read only that triangle and
work on the buffer in place: tr(S) from the diagonal, tr(S^2) from one
dot per column, one in-place scaling pass, and an upper Cholesky factor.
Nothing E x E is mirrored, scanned or allocated on the way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import DataError, NumericalError, ShapeError

# Column panels of the blockwise passes hold at most this many elements
# (1 MiB of float64), so no pass allocates anything E x E.
_PANEL_ELEMENTS = 1 << 17


def _panels(e: int):
    """(j0, j1) column ranges whose E-row panels fit in _PANEL_ELEMENTS."""
    width = max(1, _PANEL_ELEMENTS // e)
    for j0 in range(0, e, width):
        yield j0, min(j0 + width, e)


@dataclass(frozen=True)
class ShrinkageResult:
    """Shrinkage intensity rho in [0, 1], target scale mu = tr(S)/E, and
    the shrunk matrix (1-rho) S + rho mu I."""

    rho: float
    mu: float
    shrunk: np.ndarray


def _upper_sum_squares(a: np.ndarray) -> float:
    """tr(S^2) = 2 sum_{i<j} S_ij^2 + sum_i S_ii^2 of the symmetric S whose
    upper triangle ``a`` holds, by one BLAS dot per column of the triangle
    (per row when ``a`` is C-ordered, so every run is contiguous)."""
    e = a.shape[0]
    if a.flags.f_contiguous:
        runs = (a[:j, j] for j in range(1, e))
    else:
        runs = (a[i, i + 1 :] for i in range(e - 1))
    off = sum(float(np.dot(run, run)) for run in runs)
    diag = np.diagonal(a)
    return 2.0 * off + float(np.dot(diag, diag))


def shrink_upper(a: np.ndarray, n: int, denom: float = 1.0) -> tuple[float, float]:
    """OAS-shrink S = a / denom in place, reading only the upper triangle.

    ``a`` is square and holds S * denom in its upper triangle (a scatter
    and its normalizer, or a covariance and 1).  One pass turns it into
    (1 - rho) S + rho mu I: the whole array is scaled by
    (1 - rho) / denom, so a mirrored strict lower triangle stays the
    mirror and a zero one stays zero.  Returns (rho, mu).
    """
    e = a.shape[0]
    tr_s = float(np.trace(a)) / denom
    with np.errstate(over="ignore", invalid="ignore"):
        tr_s2 = _upper_sum_squares(a) / (denom * denom)
    if not np.isfinite(tr_s2):
        raise NumericalError(
            f"tr(S^2) of the covariance is not finite ({tr_s2}); "
            f"the accumulator holds non-finite or overflowing values"
        )
    mu = tr_s / e
    num = (1.0 - 2.0 / e) * tr_s2 + tr_s * tr_s
    den = (n + 1.0 - 2.0 / e) * (tr_s2 - tr_s * tr_s / e)
    rho = 1.0 if den <= 0.0 else min(1.0, num / den)
    a *= (1.0 - rho) / denom
    a[np.diag_indices(e)] += rho * mu
    return rho, mu


def _check_symmetric(S: np.ndarray) -> None:
    """Raise DataError unless max |S - S^T| <= 1e-6 max |S|, comparing
    one column panel with its mirrored row panel at a time."""
    asym = scale = 0.0
    for j0, j1 in _panels(S.shape[0]):
        panel = S[:, j0:j1]
        scale = max(scale, float(np.abs(panel).max()))
        asym = max(asym, float(np.abs(panel - S[j0:j1, :].T).max()))
    if asym > 1e-6 * max(scale, 1e-300):
        raise DataError(
            f"covariance is not symmetric: max |S - S^T| = {asym:.3e} "
            f"against scale {scale:.3e}"
        )


def oas_shrink(S: np.ndarray, n: int, copy: bool = True) -> ShrinkageResult:
    """Shrink a symmetric covariance toward mu*I with the closed-form rho.

    ``n`` is the number of samples behind S (augmented copies included).
    With copy=False, S itself is overwritten with the shrunk matrix.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ShapeError(f"covariance must be square, got shape {S.shape}")
    if n < 2:
        raise DataError(f"shrinkage needs n >= 2 samples, got {n}")
    _check_symmetric(S)
    out = S.copy(order="K") if copy else S
    rho, mu = shrink_upper(out, n)
    return ShrinkageResult(rho=rho, mu=mu, shrunk=out)


class PrecisionModel:
    """A factorized (shrunk + lambda I): repeated SPD solves, plus a
    log-determinant diagnostic."""

    def __init__(self, shrunk: np.ndarray, ridge: float, overwrite: bool = False):
        shrunk = np.asarray(shrunk, dtype=np.float64)
        if shrunk.ndim != 2 or shrunk.shape[0] != shrunk.shape[1]:
            raise ShapeError(f"matrix must be square, got shape {shrunk.shape}")
        if ridge < 0:
            raise DataError(f"ridge must be >= 0, got {ridge}")
        self.embed_dim = shrunk.shape[0]
        self.ridge = float(ridge)
        if not overwrite:
            shrunk = np.array(shrunk, order="F")
        if ridge:
            shrunk[np.diag_indices(self.embed_dim)] += ridge
        # The factorization reads only the upper triangle, so only that
        # triangle is checked, a column panel at a time.
        for j0, j1 in _panels(self.embed_dim):
            if not np.isfinite(shrunk[:j1, j0:j1]).all():
                raise NumericalError(
                    "factorization rejected the matrix: it contains "
                    "non-finite values"
                )
        try:
            self._factor = cho_factor(
                shrunk, lower=False, overwrite_a=True, check_finite=False
            )
        except LinAlgError as exc:
            match = re.search(r"(\d+)-th leading minor", str(exc))
            pivot = int(match.group(1)) - 1 if match else None
            raise NumericalError(
                f"regularized covariance is not positive definite "
                f"(ridge={ridge:g}): {exc}",
                pivot_index=pivot,
            ) from exc
        except ValueError as exc:
            raise NumericalError(f"factorization rejected the matrix: {exc}") from exc
        diag = np.diagonal(self._factor[0])
        self.log_det = float(2.0 * np.log(diag).sum())

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (shrunk + lambda I) z = b for one vector or a column stack."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.embed_dim:
            raise ShapeError(
                f"right-hand side has leading dim {b.shape[0]}, "
                f"expected {self.embed_dim}"
            )
        return cho_solve(self._factor, b, check_finite=False)
