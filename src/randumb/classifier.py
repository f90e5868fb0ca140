"""The decision rule and its ablation variants.

Variants:

* ``randumb``    random Fourier embedding, then nearest class mean under
                 the shrunk-covariance Mahalanobis metric.
* ``kernel_ncm`` same embedding, raw inner-product similarity to the
                 class means (drops the decorrelation step).
* ``slda``       Mahalanobis rule directly on the raw input vectors
                 (drops the embedding).
* ``ncm``        inner-product nearest class mean on raw inputs (drops
                 both).
* ``rp_relu``    relu(Wx) random-projection embedding with the full
                 Mahalanobis rule.

Every variant predicts the argmax over labels c of the linear
discriminant phi . w_c + b_c, with one column w_c and one bias b_c per
class row.  For the Mahalanobis variants w_c = A^{-1} mean_c and
b_c = -1/2 mean_c . w_c, A = shrunk + ridge I: the argmin of the squared
distance (phi - mean_c)^T A^{-1} (phi - mean_c), whose common
phi^T A^{-1} phi term cancels, with the weights from one Cholesky solve
per finalize.  For the inner-product variants w_c = mean_c and b_c = 0.
A class not seen yet has b_c = -inf and is never predicted.  Ties break
toward the smallest class label.

A flip run's model observes each original followed by its mirror: on a
mirror-paired map the mirror's embedding is the original's with its
halves swapped, [phi, Q phi], and on raw inputs its pixels mirrored.
An inner-product model on a paired map (``kernel_ncm`` with flips)
holds only the symmetric half s = (phi_1 + phi_2)/sqrt(2) of its rows
(``fourier`` module docstring): a flip pair is the rows (s, a) and
(s, -a), so every class mean has a = 0, and phi . mean equals
s . mean_s.  Such a model folds each pair into one s row counted twice,
holds C x E/2 means and scores s . mean_s.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import data_io
from .errors import (
    ConfigurationError,
    DataError,
    DataFormatError,
    EmptyModelError,
    ModelStateError,
    ShapeError,
    check_int,
    check_real,
)
# RandomReluMap is re-exported: perfbench/spans.py wraps it by this path.
from .fourier import FeatureMapSpec, RandomReluMap, build_map, mirror_pixels
from .kernels import dgemm
from .precision import PrecisionModel, factor_shrinkage, packed_shrinkage
from .streaming import StreamingEstimator

# variant -> (random-map head, or None on raw inputs; Mahalanobis rule?)
VARIANTS = {
    "randumb": ("fourier", True),
    "kernel_ncm": ("fourier", False),
    "slda": (None, True),
    "ncm": (None, False),
    "rp_relu": ("relu", True),
}

# Float64 entries of the one slice of embeddings predict_batch scores at a
# time: 2 MiB, 32 rows at E=8192.
SCORE_CHUNK = 1 << 18


@dataclass(frozen=True)
class ModelVariant:
    """Configuration of one classifier: variant name, class count,
    embedding spec and ridge strength.

    Labels are 0..num_classes-1.  The embedding's head must be the one
    ``VARIANTS`` names for the variant; ``slda``/``ncm`` run on raw
    inputs and take ``input_dim`` instead.  ``ridge`` is ignored by the
    two inner-product variants.
    """

    variant: str
    num_classes: int
    embedding: FeatureMapSpec | None = None
    ridge: float = 0.0
    input_dim: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; expected one of {tuple(VARIANTS)}"
            )
        check_int("num_classes", self.num_classes, 1)
        head = VARIANTS[self.variant][0]
        given = self.embedding.head if self.embedding is not None else None
        if given != head:
            want = f"a {head!r} embedding" if head else "raw inputs, with no embedding"
            raise ConfigurationError(
                f"variant {self.variant} runs on {want}; got head {given!r}"
            )
        if head is None and self.input_dim is None:
            raise ConfigurationError(f"variant {self.variant} needs a positive input_dim")
        if self.input_dim is not None:
            check_int("input_dim", self.input_dim, 1)
        if self.embedding is not None and self.input_dim is not None:
            if self.input_dim != self.embedding.input_dim:
                raise ConfigurationError(
                    f"input_dim {self.input_dim} contradicts the embedding "
                    f"spec's {self.embedding.input_dim}"
                )
        check_real("ridge", self.ridge)
        if not (self.ridge >= 0) or not np.isfinite(self.ridge):
            raise ConfigurationError(f"ridge must be finite and >= 0, got {self.ridge}")

    @property
    def raw_input_dim(self) -> int:
        return self.embedding.input_dim if self.embedding else self.input_dim

    @property
    def embed_dim(self) -> int:
        return self.embedding.embed_dim if self.embedding else self.input_dim

    @property
    def needs_precision(self) -> bool:
        return VARIANTS[self.variant][1]

    @property
    def symmetric_half(self) -> bool:
        """An inner-product variant on a mirror-paired map: its state and
        scores live in the symmetric half (module docstring)."""
        return (
            not self.needs_precision
            and self.embedding is not None
            and self.embedding.mirror_width is not None
        )

    @property
    def state_dim(self) -> int:
        """Entries of each class mean: E/2 on the symmetric half, else E."""
        return self.embed_dim // 2 if self.symmetric_half else self.embed_dim


def _pair_labels(labels, pairs: int) -> np.ndarray:
    """The labels of a block of ``pairs`` flip pairs, one per row of the
    pairs.  A count other than two per pair raises ShapeError, and a
    label that is not a whole number, or a mirror whose label differs
    from its original's, a DataError whose ``row`` is its index."""
    labels = np.asarray(labels).reshape(-1)
    if labels.shape != (2 * pairs,):
        raise ShapeError(
            f"a block of {pairs} flip pairs needs {2 * pairs} labels, one per row, "
            f"got {labels.size}"
        )
    data_io.refuse_fractional_labels(labels, "block")
    split = labels[0::2] != labels[1::2]
    if split.any():
        row = 2 * int(np.argmax(split)) + 1
        raise DataError(
            f"row {row} mirrors row {row - 1} but has label {labels[row]}, not "
            f"{labels[row - 1]}: an image and its mirror share one label",
            row=row,
        )
    return labels


class StreamingClassifier:
    """One streaming model: embed each block of samples, fold it into the
    running statistics, finalize once, then score test points.

    ``observe`` may resume after a non-consuming ``finalize`` (the
    scores simply reflect the most recent finalize).  A consuming
    finalize releases the scatter to the precision step without copying
    it, and ends the stream.  ``rank_bound``, the stream's rows less its
    classes, lets the estimator hold the scatter as a factor where the
    rule allows (``streaming`` module docstring); None holds it packed.
    """

    def __init__(self, config: ModelVariant, rank_bound: int | None = None):
        estimator = StreamingEstimator(
            config.state_dim, config.num_classes, config.needs_precision, rank_bound
        )
        self._start(config, estimator)

    def _start(self, config: ModelVariant, estimator: StreamingEstimator) -> None:
        self.config = config
        self.feature_map = fmap = build_map(config.embedding) if config.embedding else None
        # the nonlinearity of a projection: phi, or s on the symmetric half
        self._activate = None
        if fmap is not None:
            self._activate = fmap.activate_symmetric if config.symmetric_half else fmap.activate
        self.estimator = estimator
        self._reset()

    def _reset(self) -> None:
        """Drop the finalized rule (W, b) and its diagnostics."""
        self._weights = self._bias = self.log_det = self.factor_rank = None
        self.shrinkage_rho = self.shrinkage_mu = None

    @property
    def finalized(self) -> bool:
        return self._weights is not None

    def _embed(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if self.feature_map is None:
            return x
        return self.feature_map.embed_batch(x[None] if x.ndim == 1 else x)

    def observe(self, x_raw: np.ndarray, labels, mirror_width: int | None = None) -> None:
        """Embed one raw sample, or a block of rows with one label each,
        and fold it into the statistics.

        With ``mirror_width``, ``x_raw`` holds the originals of flip
        pairs, and ``labels`` one label per row of the pairs: each
        original is followed by its image mirrored at that width, under
        the same label.  The originals are embedded once; a mirrored row
        is the original's embedding with its halves swapped (which needs
        a map paired at that width), or, on raw inputs, the original's
        pixels mirrored.  On the symmetric half (module docstring) each
        pair is one s row counted twice, so such a model refuses a
        non-empty block without its map's width.  A pair whose two
        labels differ, which the symmetric half could not hold, raises a
        DataError whose ``row`` is the mirror's, before any state
        changes.
        """
        rows = np.atleast_2d(x_raw)
        if mirror_width is not None:
            labels = _pair_labels(labels, len(rows))
        if self.config.symmetric_half:
            # one s row per pair, under the pair's label, counted twice
            if len(rows):
                self._require_paired_at(mirror_width)
            proj = self.feature_map.project(rows)
            s = self._activate(proj, np.empty((len(proj), self.estimator.embed_dim), np.float32))
            self.estimator._observe(s, labels if mirror_width is None else labels[0::2], 2)
            return
        phi = self._embed(x_raw)
        if mirror_width is not None and len(phi):
            phi = self._with_mirrors(np.atleast_2d(phi), mirror_width)
        self.estimator.observe(phi, labels)

    def _require_paired_at(self, width: int | None) -> None:
        """Refuse mirrored rows at an image width other than the one the
        map is paired at, and on the symmetric half a block without
        mirrors."""
        paired = self.config.embedding.mirror_width
        if width is None:
            raise ConfigurationError(
                f"a model on the symmetric half observes flip pairs only: its blocks "
                f"need mirror_width {paired}, the width its map is paired at"
            )
        if width != paired:
            raise ConfigurationError(
                f"mirrored rows at image width {width} need a map paired at that "
                f"width; this model's map has mirror_width {paired}"
            )

    def _with_mirrors(self, phi: np.ndarray, width: int) -> np.ndarray:
        """Rows [phi_i, mirror of phi_i] for each row i of ``phi``."""
        m, e = phi.shape
        pairs = np.empty((m, 2, e), dtype=phi.dtype)
        pairs[:, 0] = phi
        if self.feature_map is None:
            check_int("mirror_width", width, 1)
            if e % width:
                raise ConfigurationError(
                    f"mirrored rows at image width {width} need an input size the width "
                    f"divides; these rows hold {e} entries"
                )
            mirror_pixels(phi, width, out=pairs[:, 1])
        else:
            self._require_paired_at(width)
            # the half swap Q: the embedding of the mirrored image
            pairs.reshape(m, 2, 2, -1)[:, 1] = phi.reshape(m, 2, -1)[:, ::-1]
        return pairs.reshape(2 * m, e)

    def finalize(self, consume: bool = False) -> None:
        """Snapshot the discriminant of the C class rows (module
        docstring); for Mahalanobis variants, shrink + ridge + factorize
        the covariance and solve against it once.

        rho and mu are read from the scatter in the form the estimator
        holds it (``packed_shrinkage`` or ``factor_shrinkage``), and one
        ``PrecisionModel`` factors A = (rho mu + lambda) I +
        ((1 - rho) / (n - 1)) scatter in the representation that form
        takes (``precision`` module docstring).  consume=True hands the
        state over without a copy and spends the estimator;
        consume=False lends it read-only, and only a dense factor copies
        it.  The factor is freed before finalize returns; ``factor_rank``
        says which representation ran (E: dense).
        """
        if self.estimator.total_count == 0:
            raise EmptyModelError("no samples observed; nothing to finalize")
        # Drop the previous snapshot first, so a failed finalize leaves
        # the model unfinalized rather than mixing old and new state.
        self._reset()
        counts, means = self.estimator.class_rows()
        if self.config.needs_precision:
            n = self.estimator.total_count
            scatter, denom = self.estimator.scatter_state(consume=consume)
            shrinkage = factor_shrinkage if scatter.ndim == 2 else packed_shrinkage
            rho, mu = shrinkage(scatter, n, denom)
            precision = PrecisionModel(scatter, rho * mu + self.config.ridge, (1.0 - rho) / denom)
            weights = precision.solve(means.T)
            bias = -0.5 * np.einsum("ec,ec->c", means.T, weights)
            self.shrinkage_rho, self.shrinkage_mu = rho, mu
            self.log_det, self.factor_rank = precision.log_det, precision.factor_rank
        else:
            # a copy, so that later observations leave the snapshot as it is
            weights = means.T.copy(order="F")
            bias = np.zeros(len(means))
        bias[counts == 0] = -np.inf
        self._weights, self._bias = weights, bias

    def _require_finalized(self) -> None:
        if not self.finalized:
            if self.estimator.total_count == 0:
                raise EmptyModelError("no classes observed yet")
            raise ModelStateError("call finalize() before scoring")

    def predict_batch(self, X_raw: np.ndarray) -> np.ndarray:
        """Labels for rows of raw inputs, ranked by the linear
        discriminant (module docstring).

        The rows are projected in one call, as handed in (the caller
        bounds them), and then scored SCORE_CHUNK entries at a time: each
        slice of rows is activated into one reused float32 scratch (phi,
        or s on the symmetric half), copied into one reused float64
        buffer (on raw inputs, copied straight in) and scored with one
        dgemm.  So a call allocates the block's float32 projection plus
        one float64 slice of at most 8 * SCORE_CHUNK bytes and its
        float32 scratch of half that (and on a paired map the activation's
        float32 temporary of one slice), and no float32 or float64
        embedding of the whole block.  A row with a
        non-finite entry, or one whose scores are not finite (an entry
        past float32's range, such as 1e39), has no label: it raises a
        DataError whose ``row`` is its index in the block."""
        self._require_finalized()
        X_raw = np.asarray(X_raw)
        if X_raw.ndim != 2 or X_raw.shape[1] != self.config.raw_input_dim:
            raise ShapeError(
                f"expected (n, {self.config.raw_input_dim}) inputs, "
                f"got shape {X_raw.shape}"
            )
        if not np.isfinite(X_raw).all():
            row = int(np.argmin(np.isfinite(X_raw).all(axis=1)))
            raise DataError(f"input row {row} contains non-finite values", row=row)
        fmap, e, n = self.feature_map, self.estimator.embed_dim, len(X_raw)
        step = max(1, min(SCORE_CHUNK // e, n))
        labels = np.empty(n, dtype=np.intp)
        # An entry past float32's range overflows the cast or the
        # projection, and its row's scores are refused below, so the
        # warnings on the way are silenced.
        with np.errstate(over="ignore", invalid="ignore"):
            source = X_raw if fmap is None else fmap.project(X_raw)
            # allocated after the projection, so its temporaries are gone;
            # a slice is embedded in float32, then cast to float64 exactly
            phis = np.empty((step, e))
            scratch = None if fmap is None else np.empty((step, e), dtype=np.float32)
            for start in range(0, n, step):
                rows = source[start : start + step]
                k = len(rows)
                phis[:k] = rows if fmap is None else self._activate(rows, scratch[:k])
                # phi W as (W^T phi^T)^T in scipy's BLAS: W (E x C) and
                # phi^T are F-contiguous views, so f2py copies nothing.
                scores = dgemm(1.0, self._weights, phis[:k].T, trans_a=1).T
                # a non-finite phi makes every score of its row non-finite
                finite = np.isfinite(scores).all(axis=1)
                if not finite.all():
                    row = start + int(np.argmin(finite))
                    raise DataError(
                        f"input row {row} has non-finite scores: an entry, or its "
                        f"projection, is past float32's range",
                        row=row,
                    )
                scores += self._bias
                labels[start : start + k] = np.argmax(scores, axis=1)
        return labels

    # -- checkpointing ------------------------------------------------------

    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The checkpoint: the model's config as meta, plus the
        estimator's arrays as they are held.  Finalized artifacts are
        rebuilt by finalize() after a load."""
        return {"kind": "classifier", "model": asdict(self.config)}, self.estimator._arrays()

    @classmethod
    def _from_state(cls, meta: dict, arrays: dict) -> "StreamingClassifier":
        """Rebuild a classifier from checkpoint meta and arrays.  A meta
        whose kind is wrong or whose model misses a field, carries one it
        does not know or holds an invalid value, and an array the model
        does not imply, raise DataFormatError naming it."""
        if meta.get("kind") != "classifier":
            raise DataFormatError(f"checkpoint kind {meta.get('kind')!r} is not 'classifier'")
        if not isinstance(meta.get("model"), dict):
            raise DataFormatError("checkpoint meta has no 'model' field holding an object")
        model = dict(meta["model"])
        # The ModelVariant defaults would hide a missing field.
        missing = [f.name for f in fields(ModelVariant) if f.name not in model]
        if missing:
            raise DataFormatError(f"checkpoint meta has no {missing[0]!r} field")
        try:
            if model["embedding"] is not None:
                model["embedding"] = FeatureMapSpec(**model["embedding"])
            config = ModelVariant(**model)
        except (ConfigurationError, TypeError) as exc:
            raise DataFormatError(f"checkpoint model: {exc}") from exc
        estimator = StreamingEstimator._restore(
            arrays, config.state_dim, config.num_classes, config.needs_precision
        )
        # The classifier is built around the restored estimator, so no
        # zero accumulator is allocated beside the one just read.
        classifier = cls.__new__(cls)
        classifier._start(config, estimator)
        return classifier

    def save(self, path) -> None:
        """Write the checkpoint (``_state``) to ``path``, atomically."""
        data_io.write_checkpoint(path, *self._state())

    @classmethod
    def load(cls, path) -> "StreamingClassifier":
        """Rebuild a saved classifier; a refused checkpoint raises
        DataFormatError naming the path and the field or array."""
        meta, arrays = data_io.read_checkpoint(path)
        try:
            return cls._from_state(meta, arrays)
        except DataFormatError as exc:
            raise exc.with_prefix(str(path))

