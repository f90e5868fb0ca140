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
order and any cut of the stream into blocks.  A "global" mode applies
the same rule around the block's grand mean and the total count,
yielding the scatter around the grand mean.

A single sample is a block of one: its centred row is zero, and its
mean-shift row carries coefficient n / (n + 1), the classic telescoping
update.

No sample outlives its block: state is the scatter's upper triangle
plus one float64 mean vector and a count per class, so memory is
O(E^2 + C*E) no matter how long the stream runs.

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

from . import data_io
from .errors import (
    ConfigurationError,
    DataError,
    DataFormatError,
    InsufficientDataError,
    ModelStateError,
    ShapeError,
)
from .precision import RFP, packed_size

MODE_POOLED = "pooled_within_class"
MODE_GLOBAL = "global"
MODES = (MODE_POOLED, MODE_GLOBAL)

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


def _merge(mean: np.ndarray, count: int, rows: np.ndarray, centre: bool):
    """Fold ``rows`` into the running ``mean`` of ``count`` samples, in place.

    Returns (n m / (n + m), b - mean) with b the rows' own mean: the
    coefficient and vector of the merge's mean-shift scatter term.  With
    ``centre`` the rows are also centred on b, in place.  For a single
    row the sum is that row exactly, so this is the per-sample update to
    the last bit.
    """
    m = len(rows)
    block_mean = rows.sum(axis=0) / m
    delta = block_mean - mean
    mean += delta * m / (count + m)
    if centre:
        rows -= block_mean
    return count * m / (count + m), delta


def _stored(arrays: dict, name: str, shape: tuple[int, ...] | None) -> np.ndarray:
    """The checkpoint array ``name``, checked against the ``shape`` its
    meta implies (None: any one-dimensional length)."""
    if name not in arrays:
        raise DataFormatError(f"checkpoint has no {name!r} array")
    arr = np.asarray(arrays[name])
    if arr.shape != shape and not (shape is None and arr.ndim == 1):
        raise DataFormatError(
            f"checkpoint array {name!r} has shape {list(arr.shape)}, expected "
            f"{list(shape) if shape is not None else '[C]'}"
        )
    return arr


class ClassStats:
    """Running count and mean for one class label."""

    __slots__ = ("count", "mean")

    def __init__(self, embed_dim: int):
        self.count = 0
        self.mean = np.zeros(embed_dim, dtype=np.float64)


class StreamingEstimator:
    """Per-class means plus one pooled scatter matrix, updated per block.

    Parameters
    ----------
    embed_dim : size E of the incoming embedded vectors.
    mode : "pooled_within_class" centers each sample on its own class
        mean (the LDA covariance); "global" centers on the grand mean.
    pooled_unbiased : divide the scatter by (n - C) instead of (n - 1)
        in ``covariance``; only meaningful in pooled mode.
    track_scatter : set False for mean-only classifiers to skip the
        scatter accumulator entirely.
    """

    def __init__(
        self,
        embed_dim: int,
        mode: str = MODE_POOLED,
        pooled_unbiased: bool = False,
        track_scatter: bool = True,
    ):
        if embed_dim < 1:
            raise ConfigurationError(f"embed_dim must be >= 1, got {embed_dim}")
        if mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
        if pooled_unbiased and mode != MODE_POOLED:
            raise ConfigurationError(
                "the (n - C) normalizer applies to pooled_within_class mode only"
            )
        self.embed_dim = embed_dim
        self.mode = mode
        self.pooled_unbiased = pooled_unbiased
        self.track_scatter = track_scatter
        self.total_count = 0
        self._classes: dict[int, ClassStats] = {}
        self._grand_mean = np.zeros(embed_dim, dtype=np.float64)
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

        # Rows sorted by label, so each class is one contiguous slice;
        # the spare rows of z hold the mean-shift terms.
        order = np.argsort(labels, kind="stable")
        phi, labels = phi[order], labels[order]
        cuts = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
        starts, stops = [0, *cuts], [*cuts, m]
        z = np.empty((m + len(starts) + 1, self.embed_dim), dtype=np.float64)
        rows = z[:m]
        rows[...] = phi

        pooled = self.mode == MODE_POOLED
        shifts = []
        for start, stop in zip(starts, stops):
            label = int(labels[start])
            stats = self._classes.get(label)
            if stats is None:
                stats = self._classes[label] = ClassStats(self.embed_dim)
            shift = _merge(stats.mean, stats.count, rows[start:stop], centre=pooled)
            if pooled and stats.count > 0:
                shifts.append(shift)
            stats.count += stop - start
        if not pooled:
            shift = _merge(self._grand_mean, self.total_count, rows, centre=True)
            if self.total_count > 0:
                shifts.append(shift)
        self.total_count += m

        if not self.track_scatter:
            return
        for i, (coef, delta) in enumerate(shifts):
            np.multiply(delta, np.sqrt(coef), out=z[m + i])
        stacked = z[: m + len(shifts)]
        # stacked.T is Fortran-ordered, so it reaches LAPACK without a copy.
        dsfrk(
            self.embed_dim, len(stacked), 1.0, stacked.T, 1.0, self._scatter,
            trans="N", overwrite_c=1, **RFP,
        )

    # -- snapshots ----------------------------------------------------------

    @property
    def classes_seen(self) -> list[int]:
        return sorted(self._classes)

    def class_means(self) -> dict[int, np.ndarray]:
        """Snapshot of every per-class mean, keyed by observed labels only."""
        return {label: s.mean.copy() for label, s in self._classes.items()}

    def class_counts(self) -> dict[int, int]:
        return {label: s.count for label, s in self._classes.items()}

    def scatter(self) -> np.ndarray:
        """The pooled sum of squared deviations, as a full symmetric matrix."""
        self._require_scatter()
        full, info = dtfttr(self.embed_dim, self._scatter, **RFP)
        if info != 0:
            raise ModelStateError(f"unpacking the scatter failed (info={info})")
        return _mirror_upper(full)

    def covariance(self) -> np.ndarray:
        """scatter / (n - 1), or / (n - C) when pooled_unbiased is set,
        as a full symmetric matrix."""
        denom = self._normalizer()
        out = self.scatter()
        out /= denom
        return out

    def packed_scatter(self, consume: bool = False) -> tuple[np.ndarray, int]:
        """The accumulator as stored, with the covariance's normalizer.

        Returns (scatter, denom): the RFP vector of the scatter's upper
        triangle (module docstring; ``precision.RFP``) and n - 1, or
        n - C when pooled_unbiased is set.  Without ``consume`` the
        vector is a copy.  With ``consume`` it is the accumulator itself,
        handed over without a copy; the estimator is then spent and
        rejects further observe/covariance calls.  This is the
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
        denom = self.total_count - (
            len(self._classes) if self.pooled_unbiased else 1
        )
        if self.total_count < 2 or denom < 1:
            raise InsufficientDataError(
                f"covariance needs more samples: n={self.total_count}, "
                f"normalizer n-{'C' if self.pooled_unbiased else '1'}={denom}"
            )
        return denom

    def state_nbytes(self) -> int:
        """Bytes held by the statistics; constant once all classes are seen."""
        total = self._grand_mean.nbytes
        if self._scatter is not None:
            total += self._scatter.nbytes
        for s in self._classes.values():
            total += s.mean.nbytes + 16  # count + label
        return total

    def _require_scatter(self) -> None:
        if self._consumed:
            raise ModelStateError("estimator state was already consumed")
        if not self.track_scatter:
            raise ModelStateError("estimator was built with track_scatter=False")

    # -- checkpointing ------------------------------------------------------

    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        labels = self.classes_seen
        meta = {
            "embed_dim": self.embed_dim,
            "mode": self.mode,
            "pooled_unbiased": self.pooled_unbiased,
            "track_scatter": self.track_scatter,
            "total_count": self.total_count,
        }
        arrays = {
            "class_labels": np.asarray(labels, dtype=np.int64),
            "class_counts": np.asarray(
                [self._classes[c].count for c in labels], dtype=np.int64
            ),
            "class_means": (
                np.stack([self._classes[c].mean for c in labels])
                if labels
                else np.zeros((0, self.embed_dim))
            ),
            "grand_mean": self._grand_mean,
        }
        if self.track_scatter:
            self._require_scatter()
            arrays["scatter"] = self._scatter
        return meta, arrays

    def save(self, path) -> None:
        """Checkpoint counts, means, scatter, and mode for exact resume."""
        meta, arrays = self._state()
        data_io.write_checkpoint(path, {"kind": "estimator", **meta}, arrays)

    @classmethod
    def _from_state(cls, meta: dict, arrays: dict) -> "StreamingEstimator":
        """Rebuild an estimator from checkpoint meta and arrays.  A missing
        or invalid meta field, counts that disagree with ``total_count``
        or a repeated class label raise DataFormatError naming it."""
        try:
            embed_dim, mode = int(meta["embed_dim"]), meta["mode"]
            unbiased = bool(meta["pooled_unbiased"])
            tracked = bool(meta["track_scatter"])
            total_count = int(meta["total_count"])
        except KeyError as exc:
            raise DataFormatError(f"checkpoint meta has no {exc} field") from exc
        # Built without an accumulator: the stored one is adopted below
        # rather than allocated a second time.
        try:
            est = cls(
                embed_dim, mode=mode, pooled_unbiased=unbiased, track_scatter=False
            )
        except ConfigurationError as exc:
            raise DataFormatError(f"checkpoint meta: {exc}") from exc
        est.track_scatter = tracked
        est.total_count = total_count
        e = est.embed_dim
        labels = _stored(arrays, "class_labels", None)
        c = len(labels)
        counts = _stored(arrays, "class_counts", (c,))
        means = _stored(arrays, "class_means", (c, e))
        if len(np.unique(labels)) != c:
            raise DataFormatError("checkpoint array 'class_labels' repeats a label")
        if int(counts.sum()) != total_count:
            raise DataFormatError(
                f"checkpoint meta total_count {total_count} disagrees with the "
                f"'class_counts', which sum to {int(counts.sum())}"
            )
        est._grand_mean = np.asarray(
            _stored(arrays, "grand_mean", (e,)), dtype=np.float64
        )
        for i, label in enumerate(labels):
            stats = ClassStats(e)
            stats.count = int(counts[i])
            stats.mean = np.asarray(means[i], dtype=np.float64)
            est._classes[int(label)] = stats
        if est.track_scatter:
            est._scatter = np.asarray(
                _stored(arrays, "scatter", (packed_size(e),)), dtype=np.float64
            )
        return est

    @classmethod
    def load(cls, path) -> "StreamingEstimator":
        meta, arrays = data_io.read_checkpoint(path)
        if meta.get("kind") != "estimator":
            raise DataError(f"{path}: not an estimator checkpoint")
        return cls._from_state(meta, arrays)
