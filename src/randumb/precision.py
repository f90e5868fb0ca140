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

The estimator holds the scatter P = (n - 1) S of n samples in k classes
in one of two forms (``streaming`` module docstring), and each has its
own exact factor of A = alpha I + beta P.  Finalize passes
alpha = rho mu + lambda and beta = (1 - rho) / (n - 1), so that
A = shrunk + lambda I.

* packed: the RFP vector of P's upper triangle (TRANSR = 'N',
  UPLO = 'U'; Gustavson, Wasniewski, Dongarra & Langou, ACM TOMS 37(2),
  2010).  rho and mu come from two traces of the vector: tr(S) from the
  packed diagonal and tr(S^2) from one BLAS ddot over it
  (``packed_shrinkage``).  ``PrecisionModel`` scales the vector to
  beta P in place, puts alpha onto its diagonal and takes an RFP
  Cholesky factor of it (dpftrf, E^3 / 3 flops); solves are dpftrs.
* factor: L (E x q) with L L^T = P, q <= n - k, as the estimator holds
  it: P's eigenvectors scaled by the square roots of its eigenvalues
  s_i = ||l_i||^2, so L's columns are orthogonal.  tr(S) is sum(s) and
  tr(S^2) is s.s, each over n - 1 (``factor_shrinkage``), so L is only
  read.  ``PrecisionModel`` solves by Woodbury with the diagonal inner
  matrix D = alpha I_q + beta diag(s), A^{-1} b = (b - beta L D^{-1}
  L^T b) / alpha, and log det A = (E - q) log alpha + log det D: E q
  flops per right-hand side.

``low_rank_fits`` is the rule that picks the form when the estimator is
built, from E, the stream's rank bound r = n - k and the C columns of
the discriminant solve alone: the factor form whenever
8 (r + 2 C) <= E + 1, where it is the faster one (see the README's
table).  Its finalize then allocates at most two E x C blocks.  The
packed form's finalize allocates under 5% of the accumulator on top,
besides the copy of a read-only vector.  Nothing E x E is mirrored,
scanned or allocated on either path.  Every kernel is one of scipy's
f2py routines that ``kernels`` loads without ``scipy.linalg``, so a run
uses one OpenBLAS and one thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, ShapeError
from .kernels import ddot, dgemm, dpftrf, dpftrs, dtrttf

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
    """Whether the scatter of a stream whose rank is at most ``max_rank``,
    solved against C = ``num_classes`` columns, is held as a factor
    (module docstring): when 8 (r + 2 C) <= E + 1, so that the factor's
    E x (r + C) buffer (L and the C spare columns a block's rows pass
    through) and one more E x C block, 8 E (r + 2 C) bytes, are at most
    a quarter of the packed accumulator's 4 E (E + 1).  Up to there the
    factor form's observe plus finalize is the faster one (README's
    table)."""
    return 8 * (max_rank + 2 * num_classes) <= e + 1


def factor_shrinkage(L: np.ndarray, n: int, denom: float = 1.0) -> tuple[float, float]:
    """(rho, mu) of S = L L^T / denom without writing to ``L``, whose
    columns are orthogonal (``PrecisionModel``): s_i = ||l_i||^2 are the
    scatter's nonzero eigenvalues, so tr(S) = sum(s) / denom and
    tr(S^2) = s.s / denom^2.  A non-finite or overflowing ``L`` raises
    NumericalError here."""
    s = np.einsum("ij,ij->j", L, L)
    tr_s2 = ddot(s, s) / (denom * denom) if s.size else 0.0
    return _oas(float(s.sum()) / denom, tr_s2, L.shape[0], n)


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

    ``state`` is the positive semidefinite P in either form the
    estimator holds, and the form picks the factor (module docstring).

    Packed, the RFP vector of P's upper triangle (``pack_upper``;
    ``factor_rank`` E): the vector is scaled and ridged in place and the
    factor takes it over; a read-only vector is copied first.

    Factor, L (E x q) with P = L L^T and orthogonal columns, as the
    estimator holds it: L is only read, and is trusted to be that
    eigen-factor.  With d_i = scale ||l_i||^2, A is ridge + d_i along
    column i and ridge on the rest.  ``factor_rank`` counts the columns
    whose d_i exceeds E eps times the largest, P's numerical rank.
    """

    def __init__(self, state: np.ndarray, ridge: float, scale: float = 1.0):
        state = np.asarray(state, dtype=np.float64)
        if ridge < 0:
            raise DataError(f"ridge must be >= 0, got {ridge}")
        self.ridge = float(ridge)
        self._low_rank = None
        if state.ndim == 2:
            self.embed_dim = state.shape[0]
            self._factor_low_rank(state, scale)
            return
        e = packed_dim(state)
        self.embed_dim = e
        packed = state if state.flags.writeable else state.copy()
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

    def _factor_low_rank(self, L: np.ndarray, beta: float) -> None:
        """d_i = beta ||l_i||^2, beta the scale: A is ridge + d_i along L's
        column i and ridge on the rest (class docstring)."""
        (e, q), alpha = L.shape, self.ridge
        if not alpha > 0:
            raise NumericalError(
                "regularized covariance is not positive definite: its "
                "scaled-identity part (shrinkage target plus ridge) is 0",
                pivot_index=0,
            )
        d = beta * np.einsum("ij,ij->j", L, L)
        if not np.isfinite(d).all():
            raise NumericalError(
                "factorization rejected the matrix: it contains non-finite values"
            )
        floor = e * np.finfo(np.float64).eps * d.max(initial=0.0)
        self.factor_rank = int(np.count_nonzero(d > floor))
        self._low_rank, self._weights = L, beta / (alpha + d)
        self.log_det = (e - q) * math.log(alpha) + float(np.log(alpha + d).sum())

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
            if info != 0:
                raise NumericalError(f"solve rejected argument {-info}")
        else:
            # Woodbury: z = (b - L ((beta / (ridge + d)) * L^T b)) / ridge
            L = self._low_rank
            y = dgemm(1.0, L, stack, trans_a=1) * self._weights[:, None]
            z = dgemm(-1.0, L, y, 1.0, stack)
            z /= self.ridge
        return z.reshape(b.shape)
