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

The estimator keeps only the upper triangle of its accumulator, packed
into one vector of E (E + 1) / 2 entries in LAPACK's rectangular full
packed (RFP) format (TRANSR = 'N', UPLO = 'U'; Gustavson, Wasniewski,
Dongarra & Langou, ACM TOMS 37(2), 2010).  Shrinkage and factorization
work on that vector in place: tr(S) from the packed diagonal, tr(S^2)
from one BLAS ddot over the vector, one scaling pass, and an RFP
Cholesky factor (dpftrf) whose solves are dpftrs.  Nothing E x E is
mirrored, scanned or allocated on the way.  Every one of these kernels
is scipy's (``scipy.linalg.blas`` and ``.lapack``), so a run uses one
OpenBLAS and one thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ddot
from scipy.linalg.lapack import dpftrf, dpftrs, dtrttf

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


def shrink_packed(a: np.ndarray, n: int, denom: float = 1.0) -> tuple[float, float]:
    """OAS-shrink S = a / denom in place, ``a`` the RFP vector of its
    upper triangle times ``denom`` (a scatter and its normalizer, or a
    covariance and 1).

    Every off-diagonal entry appears once in ``a``, so with d the packed
    diagonal tr(S^2) = (2 a.a - d.d) / denom^2, two ddot calls over
    vectors that are already contiguous.  One pass scales the
    vector by (1 - rho) / denom and adds rho mu to the diagonal.
    Returns (rho, mu).
    """
    e = packed_dim(a)
    diag = packed_diagonal(e)
    d = a[diag]
    tr_s2 = (2.0 * ddot(a, a) - ddot(d, d)) / (denom * denom)
    rho, mu = _oas(float(d.sum()) / denom, tr_s2, e, n)
    a *= (1.0 - rho) / denom
    a[diag] += rho * mu
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

    No run calls this full-matrix kernel: finalize runs ``shrink_packed``,
    which the verify and acceptance checks test against the oracle.  It
    stays only because ``perfbench/spans.py`` wraps it by name, until
    ROADMAP item 2 deletes it with ``ShrinkageResult`` and
    ``_check_symmetric``.
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
    """A factorized (shrunk + lambda I): repeated SPD solves, plus a
    log-determinant diagnostic.

    ``packed`` is the RFP vector of the upper triangle of ``shrunk``
    (``pack_upper``); the ridge is added to it and it is factored in
    place, so the factor takes the vector over.
    """

    def __init__(self, packed: np.ndarray, ridge: float):
        packed = np.asarray(packed, dtype=np.float64)
        if ridge < 0:
            raise DataError(f"ridge must be >= 0, got {ridge}")
        e = packed_dim(packed)
        self.embed_dim = e
        self.ridge = float(ridge)
        diag = packed_diagonal(e)
        if ridge:
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
        self.log_det = float(2.0 * np.log(self._factor[diag]).sum())

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (shrunk + lambda I) z = b for one vector or a column stack."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.embed_dim:
            raise ShapeError(
                f"right-hand side has leading dim {b.shape[0]}, "
                f"expected {self.embed_dim}"
            )
        z, info = dpftrs(self.embed_dim, self._factor, b.reshape(len(b), -1), **RFP)
        if info != 0:
            raise NumericalError(f"solve rejected argument {-info}")
        return z.reshape(b.shape)
