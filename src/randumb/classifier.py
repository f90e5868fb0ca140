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
    check_int,
    check_real,
)
# RandomReluMap is re-exported: perfbench/spans.py wraps it by this path.
from .fourier import FeatureMapSpec, RandomReluMap, build_map, mirror_pixels
from .precision import PrecisionModel, packed_shrinkage
from .streaming import StreamingEstimator

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
        original is followed by its image mirrored at that width.  The
        originals are embedded once; a mirrored row is the original's
        embedding with its halves swapped (which needs a map paired at
        that width), or, on raw inputs, the original's pixels mirrored.
        """
        phi = self._embed(x_raw)
        if mirror_width is not None:
            phi = self._with_mirrors(np.atleast_2d(phi), mirror_width)
        self.estimator.observe(phi, labels)

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
            paired = self.config.embedding.mirror_width
            if paired != width:
                raise ConfigurationError(
                    f"mirrored rows at image width {width} need a map paired at that "
                    f"width; this model's map has mirror_width {paired}"
                )
            # the half swap Q: the embedding of the mirrored image
            pairs.reshape(m, 2, 2, -1)[:, 1] = phi.reshape(m, 2, -1)[:, ::-1]
        return pairs.reshape(2 * m, e)

    def finalize(self, consume: bool = False) -> None:
        """Snapshot the discriminant of the C class rows (module
        docstring); for Mahalanobis variants, shrink + ridge + factorize
        the covariance and solve against it once.

        ``packed_shrinkage`` reads rho and mu from the estimator's packed
        upper triangle of the scatter, and one ``PrecisionModel`` factors
        A = (rho mu + lambda) I + ((1 - rho) / (n - 1)) scatter, in the
        representation the ``precision`` module docstring's rule picks
        from E, the rank bound n - k (k the classes seen) and C.
        consume=True hands the vector over without a copy and spends the
        estimator; consume=False lends it read-only, and only a dense
        factor copies it.  The factor is freed before finalize returns;
        ``factor_rank`` says which representation ran (E: dense).
        """
        if self.estimator.total_count == 0:
            raise EmptyModelError("no samples observed; nothing to finalize")
        # Drop the previous snapshot first, so a failed finalize leaves
        # the model unfinalized rather than mixing old and new state.
        self._reset()
        counts, means = self.estimator.class_rows()
        if self.config.needs_precision:
            n = self.estimator.total_count
            # the scatter's rank bound: one less than its count per class seen
            max_rank = n - int(np.count_nonzero(counts))
            scatter, denom = self.estimator.packed_scatter(consume=consume)
            rho, mu = packed_shrinkage(scatter, n, denom)
            precision = PrecisionModel(
                scatter, rho * mu + self.config.ridge, (1.0 - rho) / denom, max_rank, len(counts)
            )
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
        """Labels for rows of raw inputs, embedded in one block as handed
        in (the caller bounds it) and ranked by the linear discriminant
        (module docstring)."""
        self._require_finalized()
        X_raw = np.asarray(X_raw)
        if X_raw.ndim != 2 or X_raw.shape[1] != self.config.raw_input_dim:
            raise ShapeError(
                f"expected (n, {self.config.raw_input_dim}) inputs, "
                f"got shape {X_raw.shape}"
            )
        phi = self._embed(X_raw).astype(np.float64, copy=False)
        # phi W as (W^T phi^T)^T in scipy's BLAS: W (E x C) and phi^T are
        # F-contiguous views, so f2py copies nothing.
        scores = dgemm(1.0, self._weights, phi.T, trans_a=1).T + self._bias
        return np.argmax(scores, axis=1)

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

