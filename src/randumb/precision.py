"""Shrinkage and factorization of the pooled covariance.

The raw covariance S is pulled toward a scaled identity by the
closed-form oracle-approximating shrinkage intensity

    mu  = tr(S) / E
    rho = min(1, [ (1 - 2/E) tr(S^2) + tr(S)^2 ]
                 / [ (n + 1 - 2/E) ( tr(S^2) - tr(S)^2 / E ) ])
    shrunk = (1 - rho) S + rho mu I

with rho = 1 when the denominator is non-positive (S already
proportional to the identity).  A ridge term lambda * I is then added,
and scoring needs only solves against A = shrunk + lambda I, never an
explicit inverse.

The estimator keeps only the upper triangle of its accumulator, packed
into one vector of E (E + 1) / 2 entries in LAPACK's rectangular full
packed (RFP) format (TRANSR = 'N', UPLO = 'U'; Gustavson, Wasniewski,
Dongarra & Langou, ACM TOMS 37(2), 2010).  rho and mu come from two
traces of that vector: tr(S) from the packed diagonal and tr(S^2) from
one BLAS ddot over it (``packed_shrinkage``).  ``PrecisionModel`` then
factors A = alpha I + beta P, P the matrix whose upper triangle the vector
holds, in one of two exact representations.  Finalize passes the raw
scatter P = (n - 1) S of n samples in k classes, alpha = rho mu + lambda
and beta = (1 - rho) / (n - 1), so that A = shrunk + lambda I.

* dense: one scaling pass takes the vector to beta P in place, alpha
  goes onto its diagonal and an RFP Cholesky factor (dpftrf, E^3 / 3
  flops) takes it over; solves are dpftrs.
* low rank: the scatter has rank r <= n - k, so A is a scaled identity
  plus a rank-r term.  A pivoted partial Cholesky (Harbrecht, Peters &
  Schneider, Appl. Numer. Math. 62(4), 2012) reads r columns of the
  vector, never writing it, into L L^T = beta P with L of E x r.  Then
  A^{-1} b = (b - L K^{-1} L^T b) / alpha with K = alpha I_r + L^T L
  (Woodbury), and log det A = (E - r) log alpha + log det K: E r^2
  flops.

``low_rank_fits`` picks the representation from E, the rank bound
n - k and the C columns of the discriminant solve alone: the low-rank
one whenever 8 (r + 2 C) <= E + 1.  Up to r = E / 8 it is
the faster one at every E from 512 to 8192 on two cores; at E = 6144
it stops being so between r = E / 6 and E / 4.  Its scratch, L, K (r x r) and
at most two E x C blocks, is then 8 E (r + 2 C) + 8 r^2 <= E (E + 1) +
(E + 1)^2 / 8 bytes: at most (9 E + 1) / (32 E), just over 28%, of the
4 E (E + 1)-byte accumulator.  The dense one allocates under 5% of it
on top, besides the copy of a read-only vector.  Nothing E x E is mirrored, scanned or allocated on either
path.  Every kernel is scipy's (``scipy.linalg.blas`` and ``.lapack``),
so a run uses one OpenBLAS and one thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ddot, dgemm, dgemv, dsyrk
from scipy.linalg.lapack import dpftrf, dpftrs, dpotrf, dpotrs, dtrttf

from .errors import DataError, NumericalError, ShapeError

# The RFP variant every packed routine is called with.
RFP = {"transr": "N", "uplo": "U"}

# Panels of the blockwise passes hold at most this many elements (1 MiB
# of float64), so no pass allocates anything E x E.
_PANEL_ELEMENTS = 1 << 17


def _panels(e: int):
    """(j0, j1) column ranges whose E-row panels fit in _PANEL_ELEMENTS."""
    width = max(1, _PANEL_ELEMENTS // e)
    for j0 in range(0, e, width):
        yield j0, min(j0 + width, e)


def packed_size(e: int) -> int:
    """Entries of an E x E triangle in RFP storage: E (E + 1) / 2."""
    return e * (e + 1) // 2


def packed_dim(a: np.ndarray) -> int:
    """The order E of the matrix whose triangle the RFP vector ``a`` holds."""
    if a.ndim != 1:
        raise ShapeError(f"a packed triangle is one vector, got shape {a.shape}")
    e = (math.isqrt(8 * a.size + 1) - 1) // 2
    if a.size == 0 or packed_size(e) != a.size:
        raise ShapeError(f"length {a.size} is not E (E + 1) / 2 for any E >= 1")
    return e


def packed_diagonal(e: int) -> np.ndarray:
    """Positions of S_00 .. S_{E-1,E-1} in the RFP vector of an E x E
    upper triangle.

    The vector is a column-major array with leading dimension E (odd E)
    or E + 1 (even E).  With n1 = E // 2, the leading n1 x n1 triangle is
    stored transposed from row n1 + 1 of the first column and the
    trailing one as is from row n1, so each diagonal steps by lda + 1.
    """
    n1 = e // 2
    step = e + 2 - e % 2
    return np.concatenate(
        [n1 + 1 + np.arange(n1) * step, n1 + np.arange(e - n1) * step]
    )


def pack_upper(S: np.ndarray) -> np.ndarray:
    """The RFP vector of the upper triangle of the square matrix ``S``;
    the strict lower triangle is never read."""
    packed, info = dtrttf(S, **RFP)
    if info != 0:
        raise NumericalError(f"packing rejected the matrix (info={info})")
    return packed


@dataclass(frozen=True)
class ShrinkageResult:
    """Shrinkage intensity rho in [0, 1], target scale mu = tr(S)/E, and
    the shrunk matrix (1-rho) S + rho mu I."""

    rho: float
    mu: float
    shrunk: np.ndarray


def _oas(tr_s: float, tr_s2: float, e: int, n: int) -> tuple[float, float]:
    """(rho, mu) of the module docstring from tr(S) and tr(S^2)."""
    if not np.isfinite(tr_s2):
        raise NumericalError(
            f"tr(S^2) of the covariance is not finite ({tr_s2}); "
            f"the accumulator holds non-finite or overflowing values"
        )
    mu = tr_s / e
    num = (1.0 - 2.0 / e) * tr_s2 + tr_s * tr_s
    den = (n + 1.0 - 2.0 / e) * (tr_s2 - tr_s * tr_s / e)
    rho = 1.0 if den <= 0.0 else min(1.0, num / den)
    return rho, mu


def packed_shrinkage(a: np.ndarray, n: int, denom: float = 1.0) -> tuple[float, float]:
    """(rho, mu) of S = a / denom, ``a`` the RFP vector of its upper
    triangle times ``denom`` (a scatter and its normalizer, or a
    covariance and 1), without writing to ``a``.

    Every off-diagonal entry appears once in ``a``, so with d the packed
    diagonal tr(S^2) = (2 a.a - d.d) / denom^2, two ddot calls over
    vectors that are already contiguous.  A non-finite or overflowing
    ``a`` raises NumericalError here.
    """
    e = packed_dim(a)
    d = a[packed_diagonal(e)]
    tr_s2 = (2.0 * ddot(a, a) - ddot(d, d)) / (denom * denom)
    return _oas(float(d.sum()) / denom, tr_s2, e, n)


def low_rank_fits(e: int, max_rank: int, num_classes: int) -> bool:
    """Whether ``PrecisionModel`` factors an E x E matrix of rank at most
    ``max_rank``, solved against C = ``num_classes`` columns, in the
    low-rank representation (module docstring): when
    8 (r + 2 C) <= E + 1, so that L (E x r) and two E x C blocks, 8 E
    (r + 2 C) bytes, are at most a quarter of the accumulator's
    4 E (E + 1).  Up to there the low-rank factor is the faster one."""
    return 8 * (max_rank + 2 * num_classes) <= e + 1


def _rfp_column(a: np.ndarray, e: int, p: int, out: np.ndarray) -> np.ndarray:
    """Column p of the symmetric matrix whose upper triangle the RFP
    vector ``a`` holds, copied into ``out`` (length E) as at most three
    slices of ``a``.

    In the layout ``packed_diagonal`` describes, entry (i, j), i <= j,
    sits at i + (j - n1) lda when j >= n1, and at n1 + 1 + j + i lda
    (the leading triangle, transposed) when j < n1.
    """
    n1 = e // 2
    lda = e + 1 - e % 2
    if p >= n1:
        start = (p - n1) * lda
        out[: p + 1] = a[start : start + p + 1]
        out[p + 1 :] = a[p + (p + 1 - n1) * lda :: lda][: e - p - 1]
    else:
        out[: p + 1] = a[n1 + 1 + p :: lda][: p + 1]
        out[p + 1 : n1] = a[n1 + 2 + p + p * lda : 2 * n1 + 1 + p * lda]
        out[n1:] = a[p::lda][: e - n1]
    return out


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

    No run calls this full-matrix kernel: finalize runs
    ``packed_shrinkage`` and ``PrecisionModel``, which the verify and
    acceptance checks test against the oracle.  It stays only because
    ``perfbench/spans.py`` wraps it by name, until ROADMAP item 2 deletes
    it with ``ShrinkageResult`` and ``_check_symmetric``.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ShapeError(f"covariance must be square, got shape {S.shape}")
    if n < 2:
        raise DataError(f"shrinkage needs n >= 2 samples, got {n}")
    _check_symmetric(S)
    out = S.copy(order="K") if copy else S
    flat = out.ravel(order="K")  # a view of any contiguous matrix
    rho, mu = _oas(float(np.trace(out)), ddot(flat, flat), out.shape[0], n)
    out *= 1.0 - rho
    out[np.diag_indices(out.shape[0])] += rho * mu
    return ShrinkageResult(rho=rho, mu=mu, shrunk=out)


class PrecisionModel:
    """A factored A = ridge I + scale P: repeated SPD solves, plus the
    log-determinant and factor-rank diagnostics.

    ``packed`` is the RFP vector of the upper triangle of a positive
    semidefinite P (``pack_upper``).  From ``max_rank``, a bound on P's
    rank (None: none), and ``num_rhs``, the columns the solves take,
    ``low_rank_fits`` picks the representation (module docstring).

    Dense (``factor_rank`` E): the vector is scaled and ridged in place
    and the factor takes it over; a read-only vector is copied first.

    Low rank: the pivoted Cholesky of scale P stops after ``max_rank``
    columns, or once the largest residual diagonal is at most E eps times
    the largest diagonal of scale P; ``factor_rank`` is the r columns it
    took.  ``packed`` is only read.
    """

    def __init__(
        self, packed: np.ndarray, ridge: float, scale: float = 1.0,
        max_rank: int | None = None, num_rhs: int = 1,
    ):
        packed = np.asarray(packed, dtype=np.float64)
        if ridge < 0:
            raise DataError(f"ridge must be >= 0, got {ridge}")
        e = packed_dim(packed)
        self.embed_dim = e
        self.ridge = float(ridge)
        self._low_rank = None
        if max_rank is not None and low_rank_fits(e, max_rank, num_rhs):
            self._factor_low_rank(packed, scale, max_rank)
            return
        if not packed.flags.writeable:
            packed = packed.copy()
        packed *= scale
        diag = packed_diagonal(e)
        packed[diag] += ridge
        for i in range(0, packed.size, _PANEL_ELEMENTS):
            if not np.isfinite(packed[i : i + _PANEL_ELEMENTS]).all():
                raise NumericalError(
                    "factorization rejected the matrix: it contains "
                    "non-finite values"
                )
        self._factor, info = dpftrf(e, packed, overwrite_a=1, **RFP)
        if info > 0:
            raise NumericalError(
                f"regularized covariance is not positive definite "
                f"(ridge={ridge:g}): its leading minor of order {info} is not",
                pivot_index=info - 1,
            )
        if info < 0:
            raise NumericalError(f"factorization rejected argument {-info}")
        self.factor_rank = e
        self.log_det = float(2.0 * np.log(self._factor[diag]).sum())

    def _factor_low_rank(self, packed: np.ndarray, beta: float, max_rank: int) -> None:
        """L (E x r) with L L^T = beta P, beta the scale, and the
        Cholesky factor of K = ridge I_r + L^T L (class docstring)."""
        e, alpha = self.embed_dim, self.ridge
        if not alpha > 0:
            raise NumericalError(
                "regularized covariance is not positive definite: its "
                "scaled-identity part (shrinkage target plus ridge) is 0",
                pivot_index=0,
            )
        residual = packed[packed_diagonal(e)]
        residual *= beta
        if not np.isfinite(residual).all():
            raise NumericalError("factorization rejected the matrix: it contains non-finite values")
        stop = e * np.finfo(np.float64).eps * residual.max()
        L = np.empty((e, min(max_rank, e)), order="F")
        r = 0
        while r < L.shape[1]:
            p = int(np.argmax(residual))
            pivot = residual[p]
            if pivot <= stop:
                break
            col = _rfp_column(packed, e, p, L[:, r])
            if r:  # col = beta P[:, p] - L[:, :r] L[p, :r]
                dgemv(-1.0, L[:, :r], L[p, :r], beta, col, overwrite_y=1)
            else:
                col *= beta
            col /= math.sqrt(pivot)
            residual -= col * col
            r += 1
        self._low_rank = L = L[:, :r]
        self.factor_rank = r
        log_det_k = 0.0
        if r:
            K = dsyrk(1.0, L, trans=1)
            K[np.diag_indices(r)] += alpha
            self._factor, info = dpotrf(K, overwrite_a=1)
            if info != 0:
                raise NumericalError(
                    f"factorization rejected the low-rank factor's inner matrix (info={info})"
                )
            log_det_k = 2.0 * float(np.log(self._factor.diagonal()).sum())
        self.log_det = (e - r) * math.log(alpha) + log_det_k

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A z = b for one vector or a column stack."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.embed_dim:
            raise ShapeError(
                f"right-hand side has leading dim {b.shape[0]}, "
                f"expected {self.embed_dim}"
            )
        stack = b.reshape(len(b), -1)
        if self._low_rank is None:
            z, info = dpftrs(self.embed_dim, self._factor, stack, **RFP)
        elif self.factor_rank == 0:
            z, info = stack / self.ridge, 0
        else:
            # Woodbury: z = (b - L K^{-1} L^T b) / alpha
            L = self._low_rank
            y, info = dpotrs(self._factor, dgemm(1.0, L, stack, trans_a=1), overwrite_b=1)
            z = dgemm(-1.0, L, y, 1.0, stack)
            z /= self.ridge
        if info != 0:
            raise NumericalError(f"solve rejected argument {-info}")
        return z.reshape(b.shape)
