"""Exact streaming estimation of class means and a pooled scatter
matrix in embedding space, folded in one block of samples at a time.

A block is merged into the running state with the pairwise rule of
Chan, Golub & LeVeque (1979).  For one class with n samples and mean mu
before the block, and m rows of mean b inside it:

    scatter += sum over the rows of (phi - b) (phi - b)^T
             + (n m / (n + m)) (b - mu) (b - mu)^T
    mu      += (b - mu) m / (n + m)

All centred rows of a block, plus one mean-shift row
sqrt(n m / (n + m)) (b - mu) per class seen before, are stacked into
one matrix Z, and ``scatter += Z^T Z`` is a single rank-k symmetric
update at matrix-multiply speed.  In exact arithmetic
the result is the batch pooled within-class scatter, for any arrival
order and any cut of the stream into blocks.

A single sample is a block of one: its centred row is zero, and its
mean-shift row carries coefficient n / (n + 1), the classic telescoping
update.

No sample outlives its block: state is the scatter's upper triangle
plus one float64 mean vector and a count per class, so memory is
O(E^2 + C*E) no matter how long the stream runs.  The C class rows are
allocated up front and label c is row c; a count of 0 marks a class not
seen yet.

The triangle is one float64 vector of E (E + 1) / 2 entries in LAPACK's
rectangular full packed (RFP) format, half the bytes of a square
buffer, and each block is folded into it with the RFP rank-k update
(dsfrk).  ``packed_scatter`` hands the vector over as stored, for
finalize to shrink and factor in place; ``scatter`` and ``covariance``
unpack it into a full symmetric matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dsfrk, dtfttr

from .errors import (
    DataError,
    DataFormatError,
    InsufficientDataError,
    ModelStateError,
    ShapeError,
    check_int,
)
from .precision import RFP, packed_size

_MIRROR_BLOCK = 256


def _mirror_upper(a: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of ``a`` onto the lower, blockwise, in place.

    Works block-by-block so no temporary larger than _MIRROR_BLOCK^2 is
    created even for very large matrices.
    """
    n, block = a.shape[0], _MIRROR_BLOCK
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        diag = a[i0:i1, i0:i1]
        diag[:] = np.triu(diag) + np.triu(diag, 1).T
        for j0 in range(i1, n, block):
            j1 = min(j0 + block, n)
            a[j0:j1, i0:i1] = a[i0:i1, j0:j1].T
    return a


def _merge(mean: np.ndarray, count: int, rows: np.ndarray):
    """Fold ``rows`` into the running ``mean`` of ``count`` samples, and
    centre them on their own mean b, both in place.

    Returns (n m / (n + m), b - mean): the coefficient and vector of the
    merge's mean-shift scatter term.  For a single row the sum is that
    row exactly, so this is the per-sample update to the last bit.
    """
    m = len(rows)
    block_mean = rows.sum(axis=0) / m
    delta = block_mean - mean
    mean += delta * m / (count + m)
    rows -= block_mean
    return count * m / (count + m), delta


def _stored(arrays: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The checkpoint array ``name``, checked against the ``shape`` the
    model implies."""
    if name not in arrays:
        raise DataFormatError(f"checkpoint has no {name!r} array")
    arr = np.asarray(arrays[name])
    if arr.shape != shape:
        raise DataFormatError(
            f"checkpoint array {name!r} has shape {list(arr.shape)}, expected {list(shape)}"
        )
    return arr


class StreamingEstimator:
    """Per-class means plus one pooled scatter matrix, updated per block.

    Parameters
    ----------
    embed_dim : size E of the incoming embedded vectors; each is
        centred on its own class mean (the LDA covariance).
    num_classes : the class count C; labels are 0..C-1, and label c is
        row c of the counts and means.
    track_scatter : set False for mean-only classifiers to skip the
        scatter accumulator entirely.
    """

    def __init__(self, embed_dim: int, num_classes: int, track_scatter: bool = True):
        check_int("embed_dim", embed_dim, 1)
        check_int("num_classes", num_classes, 1)
        self.embed_dim = embed_dim
        self.track_scatter = track_scatter
        self._counts = np.zeros(num_classes, dtype=np.int64)
        self._means = np.zeros((num_classes, embed_dim), dtype=np.float64)
        self._scatter = (
            np.zeros(packed_size(embed_dim), dtype=np.float64)
            if track_scatter
            else None
        )

    # -- streaming ---------------------------------------------------------

    def observe(self, phi: np.ndarray, labels) -> None:
        """Fold embedded samples into the running statistics.

        ``phi`` is one embedding of length E with one label, or a block
        of shape (m, E) with m labels.  A block is validated whole before
        any state changes; a non-finite row, or a label outside 0..C-1,
        raises a DataError whose ``row`` is that row's index in the block.
        """
        if self.track_scatter and self._scatter is None:
            raise ModelStateError(
                "estimator state was consumed by packed_scatter(consume=True); "
                "no further observations are possible"
            )
        phi = np.asarray(phi)
        if phi.ndim == 1 and phi.shape[0] == self.embed_dim:
            phi = phi[None, :]
        elif phi.ndim != 2 or phi.shape[1] != self.embed_dim:
            raise ShapeError(
                f"expected an embedding of length {self.embed_dim} or a block "
                f"of them, got shape {phi.shape}"
            )
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if labels.shape != (phi.shape[0],):
            raise ShapeError(
                f"a block of {phi.shape[0]} embeddings needs as many labels, "
                f"got {labels.size}"
            )
        if not np.isfinite(phi).all():
            raise DataError(
                "embedded sample contains non-finite values",
                row=int(np.argmin(np.isfinite(phi).all(axis=1))),
            )
        outside = (labels < 0) | (labels >= len(self._counts))
        if outside.any():
            row = int(np.argmax(outside))
            raise DataError(
                f"label {labels[row]} is outside 0..{len(self._counts) - 1}", row=row
            )
        m = phi.shape[0]
        if m == 0:
            return

        # Rows sorted by label, so each class is one contiguous slice.
        order = np.argsort(labels, kind="stable")
        labels = labels[order]
        cuts = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
        starts, stops = [0, *cuts], [*cuts, m]
        # The sorted rows are scattered straight into z, whose last rows
        # hold the mean-shift terms.
        z = np.empty((m + len(starts), self.embed_dim), dtype=np.float64)
        rows = z[:m]
        rows[np.argsort(order)] = phi

        stacked = m  # rows of z filled so far
        for c, start, stop in zip(labels[starts].tolist(), starts, stops):
            count = int(self._counts[c])
            coef, delta = _merge(self._means[c], count, rows[start:stop])
            if count > 0:
                np.multiply(delta, np.sqrt(coef), out=z[stacked])
                stacked += 1
            self._counts[c] += stop - start

        if not self.track_scatter:
            return
        stacked = z[:stacked]
        # stacked.T is Fortran-ordered, so it reaches LAPACK without a copy.
        dsfrk(
            self.embed_dim, len(stacked), 1.0, stacked.T, 1.0, self._scatter,
            trans="N", overwrite_c=1, **RFP,
        )

    # -- snapshots ----------------------------------------------------------

    @property
    def total_count(self) -> int:
        return int(self._counts.sum())

    def class_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The C counts and the C x E mean rows, as held: row c is label
        c, and a count of 0 marks a class not seen yet."""
        return self._counts, self._means

    def scatter(self) -> np.ndarray:
        """The pooled sum of squared deviations, as a full symmetric matrix."""
        self._require_scatter()
        full, info = dtfttr(self.embed_dim, self._scatter, **RFP)
        if info != 0:
            raise ModelStateError(f"unpacking the scatter failed (info={info})")
        return _mirror_upper(full)

    def covariance(self) -> np.ndarray:
        """scatter / (n - 1), as a full symmetric matrix."""
        denom = self._normalizer()
        out = self.scatter()
        out /= denom
        return out

    def packed_scatter(self, consume: bool = False) -> tuple[np.ndarray, int]:
        """The accumulator as stored, with the covariance's normalizer.

        Returns (scatter, denom): the RFP vector of the scatter's upper
        triangle (module docstring; ``precision.RFP``) and n - 1.
        Without ``consume`` the vector is a copy.  With ``consume`` it is
        the accumulator itself, handed over without a copy; the estimator
        is then spent and rejects further observe/covariance calls.  This is the
        constant-memory path at the end of a one-pass run.
        """
        denom = self._normalizer()
        if not consume:
            return self._scatter.copy(), denom
        out, self._scatter = self._scatter, None
        return out, denom

    def _normalizer(self) -> int:
        self._require_scatter()
        n = self.total_count
        if n < 2:
            raise InsufficientDataError(f"covariance needs n >= 2 samples, got n={n}")
        return n - 1

    def state_nbytes(self) -> int:
        """Bytes held by the statistics: the C counts and mean rows and the
        packed accumulator, constant from construction on."""
        arrays = (self._counts, self._means, self._scatter)
        return sum(a.nbytes for a in arrays if a is not None)

    def _require_scatter(self) -> None:
        if not self.track_scatter:
            raise ModelStateError("estimator was built with track_scatter=False")
        if self._scatter is None:
            raise ModelStateError("estimator state was already consumed")

    # -- checkpointing ------------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        """The statistics as a checkpoint stores them: the arrays
        themselves, not copies."""
        arrays = {"class_counts": self._counts, "class_means": self._means}
        if self.track_scatter:
            self._require_scatter()
            arrays["scatter"] = self._scatter
        return arrays

    @classmethod
    def _restore(
        cls, arrays: dict, embed_dim: int, num_classes: int, track_scatter: bool
    ) -> "StreamingEstimator":
        """Rebuild an estimator around checkpoint ``arrays``, adopted
        without a copy.  A missing or misshapen array, one the settings do
        not use, counts that are not integers or a negative count raise
        DataFormatError naming the array."""
        # Built without an accumulator: the stored one is adopted below
        # rather than allocated a second time.
        est = cls(embed_dim, num_classes, track_scatter=False)
        est.track_scatter = track_scatter
        shapes = {
            "class_counts": (num_classes,),
            "class_means": (num_classes, embed_dim),
            **({"scatter": (packed_size(embed_dim),)} if track_scatter else {}),
        }
        unused = sorted(set(arrays) - set(shapes))
        if unused:
            raise DataFormatError(
                f"checkpoint has a {unused[0]!r} array that its model does not use"
            )
        stored = {name: _stored(arrays, name, shape) for name, shape in shapes.items()}
        counts = stored["class_counts"]
        if counts.dtype.kind not in "iu":
            raise DataFormatError(
                f"checkpoint array 'class_counts' has dtype {counts.dtype}, expected integers"
            )
        if (counts < 0).any():
            raise DataFormatError("checkpoint array 'class_counts' holds a negative count")
        est._counts = counts.astype(np.int64, copy=False)
        est._means = stored["class_means"].astype(np.float64, copy=False)
        if track_scatter:
            est._scatter = stored["scatter"].astype(np.float64, copy=False)
        return est
