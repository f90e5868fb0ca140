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
update.  A mean-only estimator may also count each row of a block
twice: the symmetric half's flip pairs (``StreamingClassifier.observe``).
A block's labels, then its rows, are checked once before the fold,
which trusts them: the classifier checks the rows it embeds, and its
mirrors of them, permutations of checked rows, go to the fold as made.

No sample outlives its block: state is the scatter, plus one float64
mean vector and a count per class, so memory is O(E^2 + C*E) no matter
how long the stream runs.  The C class rows are allocated up front and
label c is row c; a count of 0 marks a class not seen yet.

The scatter is held in one of two forms, fixed when the estimator is
built and kept through checkpoints.

* packed: its upper triangle, one float64 vector of E (E + 1) / 2
  entries in LAPACK's rectangular full packed (RFP) format, half the
  bytes of a square buffer.  Each block is folded into it with the RFP
  rank-k update (dsfrk).
* factor: given the stream's rank bound b (its rows less its classes),
  where ``precision.low_rank_fits(E, b, C)`` holds, an E x b matrix L
  with L L^T = scatter, held in an F-ordered E x (b + C) buffer.  After
  t samples of k_t classes the scatter has rank at most t - k_t <= b,
  so only the first t - k_t columns, L's active width, are nonzero
  between blocks.  A block writes its centred and mean-shift rows Z
  straight into the columns after the active ones, so the buffer's
  first columns are W = [L, Z^T].  They fit: the block leaves the width
  t' - k_t' <= b and adds one column beyond it per class it holds,
  since each such class is either new or gets a mean shift.  The Gram
  of W is diag(||l_i||^2) on L's block, since L's columns are
  orthogonal, L^T Z^T (one dgemm) beside it and Z Z^T (one dsyrk) below;
  LAPACK's dsyevd gives its eigenpairs, and W V overwrites W one row
  panel at a time, V the eigenvectors of the new active width in
  descending order (thin-SVD updating; Brand, Linear Algebra Appl. 415,
  2006).  The columns past the new width are zeroed, so no row outlives
  its block and nothing E-tall is allocated beside the buffer.  So L is
  the scatter's eigenvectors scaled by the square roots of its
  eigenvalues: L^T L is diagonal and non-increasing, and L is a
  function of the scatter alone up to column signs.  A block that would
  take the rank past b is refused.

``scatter_state`` hands the form over as held (the vector, or L's
active columns), or lends it read-only, for finalize to shrink and
factor; ``scatter`` and ``covariance`` expand either into a full
symmetric matrix.
"""

from __future__ import annotations

import numpy as np

from .data_io import refuse_fractional_labels
from .errors import (
    DataError,
    DataFormatError,
    InsufficientDataError,
    ModelStateError,
    NumericalError,
    ShapeError,
    check_int,
)
from .kernels import dgemm, dsfrk, dsyevd, dsyrk, dtfttr
from .precision import RFP, low_rank_fits, packed_size

_MIRROR_BLOCK = 256

# Rows of W per panel of the factor update's write-back: a panel's
# temporaries are 512 x q, about 1 MiB each at a q of a few hundred
# columns, and never E-tall.
_ROTATE_ROWS = 512


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


def _merge(mean: np.ndarray, count: int, rows: np.ndarray, centre: bool, repeat: int):
    """Fold ``rows``, each counted ``repeat`` times, into the running
    ``mean`` of ``count`` samples in place, and with ``centre`` centre
    them on their own mean b.

    Returns (n m / (n + m), b - mean), m the rows counted: the
    coefficient and vector of the merge's mean-shift scatter term.  For
    a single row the sum is that row exactly, so this is the per-sample
    update to the last bit.
    """
    block_mean = rows.sum(axis=0) / len(rows)
    m = repeat * len(rows)
    delta = block_mean - mean
    mean += delta * m / (count + m)
    if centre:
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
        scatter entirely.
    rank_bound : the stream's rows less its classes, a bound on the
        scatter's rank (None: no bound).  Where ``low_rank_fits`` holds
        for it, the scatter is held as an E x rank_bound factor in an
        E x (rank_bound + C) buffer, and packed otherwise (module
        docstring).
    """

    def __init__(
        self, embed_dim: int, num_classes: int, track_scatter: bool = True,
        rank_bound: int | None = None,
    ):
        check_int("embed_dim", embed_dim, 1)
        check_int("num_classes", num_classes, 1)
        if rank_bound is not None:
            check_int("rank_bound", rank_bound, 0)
        self.embed_dim = embed_dim
        self.track_scatter = track_scatter
        self._counts = np.zeros(num_classes, dtype=np.int64)
        self._means = np.zeros((num_classes, embed_dim), dtype=np.float64)
        self._scatter = None
        if track_scatter and rank_bound is not None and low_rank_fits(
            embed_dim, rank_bound, num_classes
        ):
            self._scatter = np.zeros((embed_dim, rank_bound + num_classes), order="F")
        elif track_scatter:
            self._scatter = np.zeros(packed_size(embed_dim), dtype=np.float64)

    # -- streaming ---------------------------------------------------------

    def observe(self, phi: np.ndarray, labels) -> None:
        """Fold embedded samples into the running statistics.

        ``phi`` is one embedding of length E with one label, or a block
        of shape (m, E) with m labels.  A block is validated whole before
        any state changes, labels first; a label that is not a whole
        number in 0..C-1, or a non-finite row, raises a DataError whose
        ``row`` is that row's index in the block, and on the factor form
        a block that would take the scatter's rank past the bound raises
        ModelStateError.
        """
        phi = np.atleast_2d(phi)
        labels = self._check_labels(labels, len(phi))
        self._fold(self._check_rows(phi), labels, 1)

    def _check_labels(self, labels, m: int) -> np.ndarray:
        """A block's labels as int64: m of them, each a whole number in 0..C-1."""
        labels = np.asarray(labels).reshape(-1)
        if labels.shape != (m,):
            raise ShapeError(f"a block of {m} rows needs one label per row, got {labels.size}")
        refuse_fractional_labels(labels, "block")
        labels = labels.astype(np.int64, copy=False)
        outside = (labels < 0) | (labels >= len(self._counts))
        if outside.any():
            row = int(np.argmax(outside))
            raise DataError(f"label {labels[row]} is outside 0..{len(self._counts) - 1}", row=row)
        return labels

    def _check_rows(self, phi: np.ndarray) -> np.ndarray:
        """``phi``, if it is an (m, E) block of finite rows."""
        if phi.ndim != 2 or phi.shape[1] != self.embed_dim:
            raise ShapeError(f"expected rows of length {self.embed_dim}, got shape {phi.shape}")
        finite = np.isfinite(phi).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise DataError("embedded sample contains non-finite values", row=row)
        return phi

    def _fold(self, phi: np.ndarray, labels: np.ndarray, repeat: int) -> None:
        """Fold in a checked block, each row counted ``repeat`` times (2: a
        mean-only estimator's flip pairs, one symmetric-half row each).
        Refuses only what the checks cannot know: a spent estimator, and
        on the factor form a block past the rank bound."""
        if self.track_scatter and self._scatter is None:
            raise ModelStateError(
                "estimator state was consumed by scatter_state(consume=True); "
                "no further observations are possible"
            )
        m = phi.shape[0]
        if m == 0:
            return

        # Rows sorted by label, so each class is one contiguous slice.
        order = np.argsort(labels, kind="stable")
        labels = labels[order]
        cuts = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
        starts, stops = [0, *cuts], [*cuts, m]
        factor = self.track_scatter and self._scatter.ndim == 2
        seen = int(np.count_nonzero(self._counts[labels[starts]]))
        lead = 0
        if factor:
            lead = self._active_width()
            width = lead + m - (len(starts) - seen)
            bound = self._rank_bound()
            if width > bound:
                raise ModelStateError(
                    f"this block would raise the scatter's rank to {width}, past "
                    f"the rank bound {bound} its factor was built for"
                )
        # The sorted rows are scattered straight into z, whose last rows
        # hold the mean-shift terms, one per class seen before; a
        # mean-only estimator needs neither those nor centred rows.  On
        # the factor form z^T is the buffer's columns after L's active
        # ones, so W = [L, Z^T] is its first lead + m + shifts columns:
        # that is width plus one column per class in the block, within
        # the rank bound plus the C spare columns.
        shifts = seen if self.track_scatter else 0
        if factor:
            z = self._scatter[:, lead : lead + m + shifts].T
        else:
            z = np.empty((self.embed_dim, m + shifts), order="F").T
        rows = z[:m]
        rows[np.argsort(order)] = phi

        stacked = m  # rows of z filled so far
        for c, start, stop in zip(labels[starts].tolist(), starts, stops):
            count = int(self._counts[c])
            coef, delta = _merge(
                self._means[c], count, rows[start:stop], self.track_scatter, repeat
            )
            if count > 0 and self.track_scatter:
                np.multiply(delta, np.sqrt(coef), out=z[stacked])
                stacked += 1
            self._counts[c] += repeat * (stop - start)

        if factor:
            self._rotate(lead, lead + stacked, width)
        elif self.track_scatter:
            # z.T is Fortran-ordered, so it reaches LAPACK without a copy.
            dsfrk(
                self.embed_dim, stacked, 1.0, z.T, 1.0, self._scatter,
                trans="N", overwrite_c=1, **RFP,
            )

    def _rotate(self, lead: int, q: int, width: int) -> None:
        """Set the factor's first ``width`` columns to W V and zero the
        rest of W, the buffer's first ``q`` columns [L, Z^T]: V holds the
        eigenvectors of the ``width`` largest eigenvalues of W^T W, in
        descending order (module docstring).

        L's ``lead`` columns are orthogonal, so the Gram's leading block
        is diag(||l_i||^2); only L^T Z^T (one dgemm) and Z Z^T (one
        dsyrk) are formed.  W V is written back over W one row panel of
        _ROTATE_ROWS rows at a time, through two panel buffers reused
        for every panel."""
        if width == 0:
            # every row was a new class's only one, so W is zero already
            return
        w = self._scatter[:, :q]
        gram = np.zeros((q, q), order="F")
        zt = w[:, lead:]
        if lead:
            L = w[:, :lead]
            diagonal = np.arange(lead)
            gram[diagonal, diagonal] = np.einsum("ij,ij->j", L, L)
            gram[:lead, lead:] = dgemm(1.0, L, zt, trans_a=1)
        gram[lead:, lead:] = dsyrk(1.0, zt, trans=1)
        if not np.isfinite(gram).all():
            # rows whose products overflow: the factor holds no number, so
            # finalize refuses it as the packed form's overflow
            w[:, :width] = np.nan
            w[:, width:] = 0.0
            return
        _, v, info = dsyevd(gram, overwrite_a=1)
        if info != 0:
            raise NumericalError(f"the eigensolver rejected the block's Gram matrix (info={info})")
        # dsyevd returns the eigenpairs in ascending order, so the kept
        # columns are reversed once.  A row of W V reads only that row of
        # W, so each panel is written in place: copied into one F-ordered
        # scratch (a row panel of the buffer is not contiguous, which f2py
        # would copy anyway), multiplied into one reused output, and
        # copied back.
        top = np.asfortranarray(v[:, q - width :][:, ::-1])
        rows = min(_ROTATE_ROWS, self.embed_dim)
        scratch, product = np.empty(rows * q), np.empty(rows * width)
        for i0 in range(0, self.embed_dim, rows):
            panel = w[i0 : i0 + rows]
            k = len(panel)
            a = scratch[: k * q].reshape((k, q), order="F")
            c = product[: k * width].reshape((k, width), order="F")
            a[:] = panel
            panel[:, :width] = dgemm(1.0, a, top, c=c, overwrite_c=1)
            panel[:, width:] = 0.0

    def _rank_bound(self) -> int:
        """The factor's rank bound: its buffer's width less the C spare
        columns a block's rows pass through."""
        return self._scatter.shape[1] - len(self._counts)

    def _active_width(self) -> int:
        """Columns of the factor that may be nonzero: the samples seen less
        the classes seen, the scatter's rank bound so far."""
        return self.total_count - int(np.count_nonzero(self._counts))

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
        if self._scatter.ndim == 2:
            L = self._scatter[:, : self._active_width()]
            if L.shape[1] == 0:
                return np.zeros((self.embed_dim, self.embed_dim))
            return _mirror_upper(dsyrk(1.0, L))
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

    def scatter_state(self, consume: bool = False) -> tuple[np.ndarray, int]:
        """The scatter as held, with the covariance's normalizer.

        Returns (state, denom): the RFP vector of the scatter's upper
        triangle (``precision.RFP``) on the packed form, or the factor's
        active columns, E x (n - k), on the factor form (module
        docstring); and n - 1.  Without ``consume`` the state is a
        read-only view, which a caller that writes must copy.  With
        ``consume`` it is handed over without a copy; the estimator is
        then spent and rejects further observe/covariance calls.  This
        is the constant-memory path at the end of a one-pass run.
        """
        denom = self._normalizer()
        state = self._scatter
        if state.ndim == 2:
            state = state[:, : self._active_width()]
        if consume:
            self._scatter = None
            return state, denom
        view = state.view()
        view.flags.writeable = False
        return view, denom

    def _normalizer(self) -> int:
        self._require_scatter()
        n = self.total_count
        if n < 2:
            raise InsufficientDataError(f"covariance needs n >= 2 samples, got n={n}")
        return n - 1

    def state_nbytes(self) -> int:
        """Bytes held by the statistics: the C counts and mean rows and the
        scatter in its form (the packed accumulator, or the factor's
        E x (b + C) buffer), constant from construction on."""
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
        themselves, not copies.  The form names the scatter's array:
        'scatter' for the packed vector, 'scatter_factor' for L^T, whose
        rows are the F-ordered buffer's first b columns (b x E,
        C-ordered; the C spare columns are zero between blocks and not
        stored)."""
        arrays = {"class_counts": self._counts, "class_means": self._means}
        if self.track_scatter:
            self._require_scatter()
            if self._scatter.ndim == 2:
                arrays["scatter_factor"] = self._scatter[:, : self._rank_bound()].T
            else:
                arrays["scatter"] = self._scatter
        return arrays

    @classmethod
    def _restore(
        cls, arrays: dict, embed_dim: int, num_classes: int, track_scatter: bool
    ) -> "StreamingEstimator":
        """Rebuild an estimator around checkpoint ``arrays``, adopted
        without a copy, in the form its scatter array names.  A missing
        or misshapen array, one the settings do not use, counts that are
        not integers or a negative count, and a factor narrower than the
        counts' rank bound raise DataFormatError naming the array.  A
        stored factor's b rows are copied once into a new E x (b + C)
        buffer, which adds the C spare columns."""
        # Built without a scatter: the stored one is adopted below rather
        # than allocated a second time.
        est = cls(embed_dim, num_classes, track_scatter=False)
        est.track_scatter = track_scatter
        factor = track_scatter and "scatter_factor" in arrays
        shapes = {"class_counts": (num_classes,), "class_means": (num_classes, embed_dim)}
        if factor:
            shapes["scatter_factor"] = (*np.shape(arrays["scatter_factor"])[:1], embed_dim)
        elif track_scatter:
            shapes["scatter"] = (packed_size(embed_dim),)
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
        if factor:
            rows = stored["scatter_factor"]
            if len(rows) < est._active_width():
                raise DataFormatError(
                    f"checkpoint array 'scatter_factor' has shape {list(rows.shape)}, expected "
                    f"at least {est._active_width()} rows, the samples less the classes its "
                    f"counts hold"
                )
            est._scatter = np.zeros((embed_dim, len(rows) + num_classes), order="F")
            est._scatter[:, : len(rows)] = rows.T
        elif track_scatter:
            est._scatter = stored["scatter"].astype(np.float64, copy=False)
        return est
