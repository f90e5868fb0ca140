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

Mahalanobis variants take the argmin of the squared distance
(phi - mean_i)^T A^{-1} (phi - mean_i), A = shrunk + ridge I, evaluated
as the argmax of the linear discriminant w_i . phi + b_i with
w_i = A^{-1} mean_i and b_i = -1/2 mean_i . w_i (the common
phi^T A^{-1} phi term cancels); the weights come from one Cholesky
solve per finalize.  The inner-product variants take the argmax of
phi . mean_i.  Ties break toward the smallest class label.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import data_io
from .errors import (
    ConfigurationError,
    DataError,
    DataFormatError,
    EmptyModelError,
    ModelStateError,
    ShapeError,
)
# RandomReluMap is re-exported: perfbench/spans.py wraps it by this path.
from .fourier import FeatureMapSpec, RandomReluMap, build_map
from .precision import PrecisionModel, shrink_packed
from .streaming import MODE_POOLED, MODES, StreamingEstimator

# variant -> (random-map head, or None on raw inputs; Mahalanobis rule?)
VARIANTS = {
    "randumb": ("fourier", True),
    "kernel_ncm": ("fourier", False),
    "slda": (None, True),
    "ncm": (None, False),
    "rp_relu": ("relu", True),
}


@dataclass(frozen=True)
class ModelVariant:
    """Configuration of one classifier: variant name, embedding spec,
    ridge strength, and covariance centering mode.

    The embedding's head must be the one ``VARIANTS`` names for the
    variant; ``slda``/``ncm`` run on raw inputs and take ``input_dim``
    instead.  ``ridge`` is ignored by the two inner-product variants.
    """

    variant: str
    embedding: FeatureMapSpec | None = None
    ridge: float = 0.0
    estimator_mode: str = MODE_POOLED
    pooled_unbiased: bool = False
    input_dim: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; expected one of {tuple(VARIANTS)}"
            )
        head = VARIANTS[self.variant][0]
        given = self.embedding.head if self.embedding is not None else None
        if given != head:
            want = f"a {head!r} embedding" if head else "raw inputs, with no embedding"
            raise ConfigurationError(
                f"variant {self.variant} runs on {want}; got head {given!r}"
            )
        if head is None and (self.input_dim is None or self.input_dim < 1):
            raise ConfigurationError(
                f"variant {self.variant} needs a positive input_dim"
            )
        if self.embedding is not None and self.input_dim is not None:
            if self.input_dim != self.embedding.input_dim:
                raise ConfigurationError(
                    f"input_dim {self.input_dim} contradicts the embedding "
                    f"spec's {self.embedding.input_dim}"
                )
        if not (self.ridge >= 0) or not np.isfinite(self.ridge):
            raise ConfigurationError(f"ridge must be finite and >= 0, got {self.ridge}")
        if self.estimator_mode not in MODES:
            raise ConfigurationError(
                f"estimator_mode must be one of {MODES}, got {self.estimator_mode!r}"
            )

    @property
    def raw_input_dim(self) -> int:
        return self.embedding.input_dim if self.embedding else self.input_dim

    @property
    def embed_dim(self) -> int:
        return self.embedding.embed_dim if self.embedding else self.input_dim

    @property
    def needs_precision(self) -> bool:
        return VARIANTS[self.variant][1]


class StreamingClassifier:
    """One streaming model: embed each block of samples, fold it into the
    running statistics, finalize once, then score test points.

    ``observe`` may resume after a non-consuming ``finalize`` (the
    scores simply reflect the most recent finalize).  A consuming
    finalize releases the scatter buffer to the precision step without
    copying it, and ends the stream.
    """

    def __init__(self, config: ModelVariant):
        self._start(
            config,
            StreamingEstimator(
                config.embed_dim,
                mode=config.estimator_mode,
                pooled_unbiased=config.pooled_unbiased,
                track_scatter=config.needs_precision,
            ),
        )

    def _start(self, config: ModelVariant, estimator: StreamingEstimator) -> None:
        self.config = config
        self.feature_map = build_map(config.embedding) if config.embedding else None
        self.estimator = estimator
        self._labels: np.ndarray | None = None
        self._means: np.ndarray | None = None
        self._precision = None
        self._lin_weights = None
        self._lin_bias = None
        self.shrinkage_rho: float | None = None
        self.shrinkage_mu: float | None = None

    @property
    def finalized(self) -> bool:
        return self._labels is not None

    def _embed(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if self.feature_map is None:
            return x
        if x.ndim == 1:
            return self.feature_map.embed(x)
        return self.feature_map.embed_batch(x)

    def observe(self, x_raw: np.ndarray, labels) -> None:
        """Embed one raw sample, or a block of rows with one label each,
        and fold it into the statistics."""
        self.estimator.observe(self._embed(x_raw), labels)

    def finalize(self, consume: bool = False) -> None:
        """Snapshot the class means and (for Mahalanobis variants)
        shrink + ridge + factorize the covariance.

        Shrinkage and factorization work in place on the estimator's
        packed upper triangle of the scatter.  consume=True hands that
        vector over without any copy, so nothing quadratic is allocated;
        the estimator is spent afterwards.  consume=False works on one
        copy.
        """
        if self.estimator.total_count == 0:
            raise EmptyModelError("no samples observed; nothing to finalize")
        # Drop the previous snapshot first, so its packed factor is freed
        # before the next one is built and a failed finalize leaves the
        # model unfinalized rather than mixing old and new state.
        self._labels = self._precision = None
        self._lin_weights = self._lin_bias = None
        means = self.estimator.class_means()
        labels = np.asarray(sorted(means), dtype=np.int64)
        self._means = np.stack([means[c] for c in labels])
        if self.config.needs_precision:
            scatter, denom = self.estimator.packed_scatter(consume=consume)
            self.shrinkage_rho, self.shrinkage_mu = shrink_packed(
                scatter, self.estimator.total_count, denom
            )
            self._precision = PrecisionModel(scatter, self.config.ridge)
            # The rule's linear form (module docstring).
            weights = self._precision.solve(self._means.T)
            self._lin_weights = weights
            self._lin_bias = -0.5 * np.einsum("ec,ec->c", self._means.T, weights)
        self._labels = labels

    @property
    def precision(self):
        return self._precision

    def _require_finalized(self) -> None:
        if not self.finalized:
            if self.estimator.total_count == 0:
                raise EmptyModelError("no classes observed yet")
            raise ModelStateError("call finalize() before scoring")

    def predict_batch(self, X_raw: np.ndarray, block: int = 256) -> np.ndarray:
        """Labels for rows of raw inputs, embedding and scoring blockwise,
        so only a (block, C) score array is materialized.  Mahalanobis
        variants rank by the linear discriminant (module docstring)."""
        self._require_finalized()
        X_raw = np.asarray(X_raw)
        if X_raw.ndim != 2 or X_raw.shape[1] != self.config.raw_input_dim:
            raise ShapeError(
                f"expected (n, {self.config.raw_input_dim}) inputs, "
                f"got shape {X_raw.shape}"
            )
        n = X_raw.shape[0]
        out = np.empty(n, dtype=np.int64)
        for start in range(0, n, block):
            stop = min(start + block, n)
            if self.feature_map is not None:
                phi = self.feature_map.embed_batch(X_raw[start:stop])
            else:
                phi = X_raw[start:stop]
            phi = phi.astype(np.float64, copy=False)
            if self.config.needs_precision:
                scores = phi @ self._lin_weights + self._lin_bias
            else:
                scores = phi @ self._means.T
            out[start:stop] = self._labels[np.argmax(scores, axis=1)]
        return out

    # -- checkpointing ------------------------------------------------------

    def save(self, path) -> None:
        """Checkpoint = variant tag + embedding spec + ridge + estimator
        state.  Finalized artifacts are rebuilt by finalize() on load."""
        est_meta, arrays = self.estimator._state()
        emb = self.config.embedding
        meta = {
            "kind": "classifier",
            "variant": self.config.variant,
            "ridge": self.config.ridge,
            "input_dim": self.config.input_dim,
            "embedding": asdict(emb) if emb is not None else None,
            "estimator": est_meta,
        }
        data_io.write_checkpoint(path, meta, arrays)

    @classmethod
    def load(cls, path) -> "StreamingClassifier":
        """Rebuild a saved classifier.  A checkpoint whose meta misses a
        field, carries one the spec does not know, or disagrees with its
        own estimator state raises DataFormatError naming the field."""
        meta, arrays = data_io.read_checkpoint(path)
        if meta.get("kind") != "classifier":
            raise DataError(f"{path}: not a classifier checkpoint")
        try:
            emb, est_meta = meta["embedding"], meta["estimator"]
            variant, ridge, input_dim = meta["variant"], meta["ridge"], meta["input_dim"]
            mode, unbiased = est_meta["mode"], est_meta["pooled_unbiased"]
            embed_dim, track_scatter = est_meta["embed_dim"], est_meta["track_scatter"]
        except KeyError as exc:
            raise DataFormatError(f"{path}: checkpoint meta has no {exc} field") from exc
        try:
            config = ModelVariant(
                variant=variant,
                # a field the spec does not take, or lacks, is a TypeError
                embedding=FeatureMapSpec(**emb) if emb is not None else None,
                ridge=float(ridge),
                estimator_mode=mode,
                pooled_unbiased=bool(unbiased),
                input_dim=input_dim,
            )
        except (ConfigurationError, TypeError) as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
        if config.embed_dim != embed_dim:
            raise DataFormatError(
                f"{path}: embed_dim {config.embed_dim} of the model disagrees "
                f"with the estimator's embed_dim {embed_dim}"
            )
        if config.needs_precision != track_scatter:
            raise DataFormatError(
                f"{path}: variant {variant} disagrees with the estimator's "
                f"track_scatter {track_scatter}"
            )
        # The classifier is built around the restored estimator, so no
        # zero accumulator is allocated beside the one just read.
        model = cls.__new__(cls)
        model._start(config, StreamingEstimator._from_state(est_meta, arrays))
        return model
