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
O(E^2 + C*E) no matter how long the stream runs.  The per-class rows
keep spare capacity that doubles when full, so a new label is written
in place (an append, in class-incremental order) rather than copying
every mean.

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
    ConfigurationError,
    DataError,
    DataFormatError,
    InsufficientDataError,
    ModelStateError,
    ShapeError,
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


def _stored(arrays: dict, name: str, shape: tuple[int, ...] | None) -> np.ndarray:
    """The checkpoint array ``name``, checked against the ``shape`` the
    model implies (None: any one-dimensional length)."""
    if name not in arrays:
        raise DataFormatError(f"checkpoint has no {name!r} array")
    arr = np.asarray(arrays[name])
    if arr.shape != shape and not (shape is None and arr.ndim == 1):
        raise DataFormatError(
            f"checkpoint array {name!r} has shape {list(arr.shape)}, expected "
            f"{list(shape) if shape is not None else '[C]'}"
        )
    return arr


class StreamingEstimator:
    """Per-class means plus one pooled scatter matrix, updated per block.

    Parameters
    ----------
    embed_dim : size E of the incoming embedded vectors; each is
        centred on its own class mean (the LDA covariance).
    track_scatter : set False for mean-only classifiers to skip the
        scatter accumulator entirely.
    """

    def __init__(self, embed_dim: int, track_scatter: bool = True):
        if embed_dim < 1:
            raise ConfigurationError(f"embed_dim must be >= 1, got {embed_dim}")
        self.embed_dim = embed_dim
        self.track_scatter = track_scatter
        # One row per class seen, in increasing label order: the first
        # _num rows of each array; the rest is spare capacity.
        self._num = 0
        self._labels = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int64)
        self._means = np.zeros((0, embed_dim), dtype=np.float64)
        self._scatter = (
            np.zeros(packed_size(embed_dim), dtype=np.float64)
            if track_scatter
            else None
        )
        self._consumed = False

    # -- streaming ---------------------------------------------------------

    def observe(self, phi: np.ndarray, labels) -> None:
        """Fold embedded samples into the running statistics.

        ``phi`` is one embedding of length E with one label, or a block
        of shape (m, E) with m labels.  A block is validated whole before
        any state changes; a non-finite row raises a DataError whose
        ``row`` is that row's index in the block.
        """
        if self._consumed:
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
        m = phi.shape[0]
        if m == 0:
            return

        # Rows sorted by label, so each class is one contiguous slice.
        order = np.argsort(labels, kind="stable")
        labels = labels[order]
        cuts = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
        starts, stops = [0, *cuts], [*cuts, m]
        block_labels = labels[starts]
        self._insert(np.setdiff1d(block_labels, self._labels[: self._num], assume_unique=True))
        # The sorted rows are scattered straight into z, whose spare rows
        # hold the mean-shift terms.
        z = np.empty((m + len(starts), self.embed_dim), dtype=np.float64)
        rows = z[:m]
        rows[np.argsort(order)] = phi

        stacked = m  # rows of z filled so far
        for i, start, stop in zip(
            np.searchsorted(self._labels[: self._num], block_labels).tolist(), starts, stops
        ):
            count = int(self._counts[i])
            coef, delta = _merge(self._means[i], count, rows[start:stop])
            if count > 0:
                np.multiply(delta, np.sqrt(coef), out=z[stacked])
                stacked += 1
            self._counts[i] += stop - start

        if not self.track_scatter:
            return
        stacked = z[:stacked]
        # stacked.T is Fortran-ordered, so it reaches LAPACK without a copy.
        dsfrk(
            self.embed_dim, len(stacked), 1.0, stacked.T, 1.0, self._scatter,
            trans="N", overwrite_c=1, **RFP,
        )

    def _insert(self, new: np.ndarray) -> None:
        """Give each label in ``new`` (sorted, none seen before) a zero row
        at its place in label order.  Rows after it shift within the
        arrays, which ``_grow`` reallocates when full."""
        c, k = self._num, len(new)
        if k == 0:
            return
        if c + k > len(self._labels):
            self._grow(c + k)
        at = np.searchsorted(self._labels[:c], new).tolist()
        e = self.embed_dim
        # The flat view moves overlapping rows without a temporary.
        flat = self._means.reshape(-1)
        # From the last new label back, the rows after it move up by the
        # number of new labels before them, then its own row is zeroed.
        for j in range(k - 1, -1, -1):
            lo, hi, to = at[j], (at[j + 1] if j + 1 < k else c), at[j] + j
            self._labels[lo + j + 1 : hi + j + 1] = self._labels[lo:hi]
            self._counts[lo + j + 1 : hi + j + 1] = self._counts[lo:hi]
            flat[(lo + j + 1) * e : (hi + j + 1) * e] = flat[lo * e : hi * e]
            self._labels[to], self._counts[to] = new[j], 0
            self._means[to] = 0.0
        self._num = c + k

    def _grow(self, rows: int) -> None:
        """Reallocate the class rows to hold ``rows`` classes, keeping the
        ``_num`` rows in use.  The capacity is the next power of two, so
        it doubles when full and depends only on the class count, not on
        how the stream was cut or whether it was checkpointed."""
        c, capacity = self._num, 1 << (rows - 1).bit_length() if rows else 0
        for name in ("_labels", "_counts", "_means"):
            old = getattr(self, name)
            grown = np.zeros((capacity, *old.shape[1:]), dtype=old.dtype)
            grown[:c] = old[:c]
            setattr(self, name, grown)

    # -- snapshots ----------------------------------------------------------

    @property
    def total_count(self) -> int:
        return int(self._counts[: self._num].sum())

    @property
    def classes_seen(self) -> list[int]:
        return self._labels[: self._num].tolist()

    def class_means(self) -> dict[int, np.ndarray]:
        """Snapshot of every per-class mean, keyed by observed labels only."""
        return dict(zip(self.classes_seen, self._means[: self._num].copy()))

    def class_counts(self) -> dict[int, int]:
        return dict(zip(self.classes_seen, self._counts[: self._num].tolist()))

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
        self._consumed = True
        return out, denom

    def _normalizer(self) -> int:
        self._require_scatter()
        n = self.total_count
        if n < 2:
            raise InsufficientDataError(f"covariance needs n >= 2 samples, got n={n}")
        return n - 1

    def state_nbytes(self) -> int:
        """Bytes held by the statistics, spare class rows included; constant
        once all classes are seen."""
        arrays = (self._labels, self._counts, self._means, self._scatter)
        return sum(a.nbytes for a in arrays if a is not None)

    def _require_scatter(self) -> None:
        if self._consumed:
            raise ModelStateError("estimator state was already consumed")
        if not self.track_scatter:
            raise ModelStateError("estimator was built with track_scatter=False")

    # -- checkpointing ------------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        """The statistics as a checkpoint stores them: views of the arrays
        themselves (the classes seen, without spare rows), not copies."""
        c = self._num
        arrays = {
            "class_labels": self._labels[:c],
            "class_counts": self._counts[:c],
            "class_means": self._means[:c],
        }
        if self.track_scatter:
            self._require_scatter()
            arrays["scatter"] = self._scatter
        return arrays

    @classmethod
    def _restore(
        cls, arrays: dict, embed_dim: int, track_scatter: bool
    ) -> "StreamingEstimator":
        """Rebuild an estimator around checkpoint ``arrays``.  The packed
        scatter is adopted without a copy; the class rows are copied into
        the capacity the stream would have grown them to.  A missing or
        misshapen array, one the settings do not use, labels or counts
        that are not integers, labels that are not strictly increasing or
        a count below 1 raise DataFormatError naming the array."""
        # Built without an accumulator: the stored one is adopted below
        # rather than allocated a second time.
        est = cls(embed_dim, track_scatter=False)
        est.track_scatter = track_scatter
        labels = _stored(arrays, "class_labels", None)
        c = len(labels)
        shapes = {
            "class_counts": (c,),
            "class_means": (c, embed_dim),
            **({"scatter": (packed_size(embed_dim),)} if track_scatter else {}),
        }
        unused = sorted(set(arrays) - {"class_labels", *shapes})
        if unused:
            raise DataFormatError(
                f"checkpoint has a {unused[0]!r} array that its model does not use"
            )
        stored = {name: _stored(arrays, name, shape) for name, shape in shapes.items()}
        counts = stored["class_counts"]
        for name, arr in (("class_labels", labels), ("class_counts", counts)):
            if arr.dtype.kind not in "iu":
                raise DataFormatError(
                    f"checkpoint array {name!r} has dtype {arr.dtype}, expected integers"
                )
        if (np.diff(labels) <= 0).any():
            raise DataFormatError(
                "checkpoint array 'class_labels' repeats a label or is out of order"
            )
        if (counts < 1).any():
            raise DataFormatError("checkpoint array 'class_counts' holds a count below 1")
        est._grow(c)
        est._num = c
        est._labels[:c] = labels
        est._counts[:c] = counts
        est._means[:c] = stored["class_means"]
        if track_scatter:
            est._scatter = stored["scatter"].astype(np.float64, copy=False)
        return est
