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

from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.linalg.blas import dgemm

from . import data_io
from .errors import (
    ConfigurationError,
    DataFormatError,
    EmptyModelError,
    ModelStateError,
    ShapeError,
)
# RandomReluMap is re-exported: perfbench/spans.py wraps it by this path.
from .fourier import FeatureMapSpec, RandomReluMap, build_map
from .precision import PrecisionModel, shrink_packed
from .streaming import StreamingEstimator

# Rows per block: the stream is cut, and test sets are scored, this many
# rows at a time.  The cut positions are part of the bitwise-resume
# contract, and 256 rows sit at the knee of the packed rank-k update.
BLOCK_ROWS = 256

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
        # exactly an int (no bool, no numpy scalar): the checkpoint meta is JSON
        if type(self.num_classes) is not int or self.num_classes < 1:
            raise ConfigurationError(
                f"num_classes must be a positive integer, got {self.num_classes!r}"
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
        estimator = StreamingEstimator(config.embed_dim, config.num_classes, config.needs_precision)
        self._start(config, estimator)

    def _start(self, config: ModelVariant, estimator: StreamingEstimator) -> None:
        self.config = config
        self.feature_map = build_map(config.embedding) if config.embedding else None
        self.estimator = estimator
        self._labels: np.ndarray | None = None
        self._means: np.ndarray | None = None
        self.precision = None
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
        return self.feature_map.embed_batch(x[None] if x.ndim == 1 else x)

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
        self._labels = self.precision = None
        self._lin_weights = self._lin_bias = None
        # The labels seen, in increasing order, so ties go to the smallest.
        stats = self.estimator._arrays()
        labels = np.flatnonzero(stats["class_counts"])
        self._means = stats["class_means"][labels]
        if self.config.needs_precision:
            scatter, denom = self.estimator.packed_scatter(consume=consume)
            self.shrinkage_rho, self.shrinkage_mu = shrink_packed(
                scatter, self.estimator.total_count, denom
            )
            self.precision = PrecisionModel(scatter, self.config.ridge)
            # The rule's linear form (module docstring).
            weights = self.precision.solve(self._means.T)
            self._lin_weights = weights
            self._lin_bias = -0.5 * np.einsum("ec,ec->c", self._means.T, weights)
        self._labels = labels

    def _require_finalized(self) -> None:
        if not self.finalized:
            if self.estimator.total_count == 0:
                raise EmptyModelError("no classes observed yet")
            raise ModelStateError("call finalize() before scoring")

    def predict_batch(self, X_raw: np.ndarray) -> np.ndarray:
        """Labels for rows of raw inputs, embedded and scored BLOCK_ROWS
        rows at a time.  Mahalanobis variants rank by the linear
        discriminant (module docstring)."""
        self._require_finalized()
        X_raw = np.asarray(X_raw)
        if X_raw.ndim != 2 or X_raw.shape[1] != self.config.raw_input_dim:
            raise ShapeError(
                f"expected (n, {self.config.raw_input_dim}) inputs, "
                f"got shape {X_raw.shape}"
            )
        n = X_raw.shape[0]
        out = np.empty(n, dtype=np.int64)
        for start in range(0, n, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n)
            # Rebinding phi before the cast frees the previous block's rows.
            phi = self._embed(X_raw[start:stop])
            phi = phi.astype(np.float64, copy=False)
            # phi A as (A^T phi^T)^T in scipy's BLAS, A the discriminant
            # weights (E x C, F-order) or the means' transpose: every
            # operand is an F-contiguous view, so f2py copies nothing.
            if self.config.needs_precision:
                scores = dgemm(1.0, self._lin_weights, phi.T, trans_a=1).T + self._lin_bias
            else:
                scores = dgemm(1.0, self._means.T, phi.T, trans_a=1).T
            out[start:stop] = self._labels[np.argmax(scores, axis=1)]
        return out

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
            arrays, config.embed_dim, config.num_classes, config.needs_precision
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

