"""Class-incremental streams, the one-pass benchmark loop, metrics,
embedding sweeps, and ablation runs.

Protocol: classes are split into tasks following a class order; the
stream visits tasks in order, presenting each task's samples in a
seed-shuffled order (flipped copies, when enabled, follow their
originals on adjacent steps).  The stream is delivered in blocks of
consecutive steps; the model observes every element exactly once, is
finalized, and is then evaluated on the full test set.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .classifier import ModelVariant, StreamingClassifier, VARIANTS
from .data_io import (
    ORIGIN_FLIPPED,
    ORIGIN_ORIGINAL,
    DatasetDescriptor,
    RawDataset,
    flip_horizontal,
    normalize_batch,
)
from .errors import (
    ConfigurationError,
    DataError,
    ModelStateError,
    RanDumbError,
    UnsupportedAugmentationError,
)
from .fourier import GENERATOR_NAME, FeatureMapSpec
from .streaming import MODE_POOLED

DEFAULT_MEMORY_CAP_BYTES = 16 * 1024**3

ABLATION_ORDER = tuple(VARIANTS)

_STREAM_BLOCK = 256


@dataclass(frozen=True)
class StreamSpec:
    """How to serialize a train set into a class-incremental stream."""

    dataset: DatasetDescriptor
    classes_per_task: int = 1
    class_order: tuple[int, ...] | None = None
    augment: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.classes_per_task < 1:
            raise ConfigurationError(
                f"classes_per_task must be >= 1, got {self.classes_per_task}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        order = self.class_order
        if order is None:
            order = tuple(range(self.dataset.num_classes))
            object.__setattr__(self, "class_order", order)
        else:
            object.__setattr__(self, "class_order", tuple(int(c) for c in order))
        if sorted(self.class_order) != list(range(self.dataset.num_classes)):
            raise ConfigurationError(
                f"class_order must be a permutation of 0..{self.dataset.num_classes - 1}"
            )
        if self.augment and self.dataset.kind != "images":
            raise UnsupportedAugmentationError(
                f"dataset {self.dataset.name} holds feature vectors; "
                f"flip augmentation needs unflattened images"
            )

    @property
    def tasks(self) -> tuple[tuple[int, ...], ...]:
        k = self.classes_per_task
        return tuple(
            self.class_order[i : i + k] for i in range(0, len(self.class_order), k)
        )


@dataclass(frozen=True)
class StreamBlock:
    """Consecutive stream steps ``start .. start + len(labels) - 1``.

    Row i is step ``start + i``: train-set sample ``indices[i]``,
    mirrored when ``flipped[i]``, as the flat normalized ``features[i]``
    with label ``labels[i]``.
    """

    start: int
    indices: np.ndarray
    flipped: np.ndarray
    features: np.ndarray
    labels: np.ndarray

    @property
    def stop(self) -> int:
        return self.start + len(self.labels)

    def describe(self, row: int | None) -> str:
        """Name one row's stream step, or the whole block without a row."""
        if row is None:
            return f"stream steps {self.start}..{self.stop - 1}"
        origin = ORIGIN_FLIPPED if self.flipped[row] else ORIGIN_ORIGINAL
        return f"stream step {self.start + row} (class {self.labels[row]}, {origin})"


def make_stream(
    spec: StreamSpec, train_x: np.ndarray, train_y: np.ndarray, cut_every: int = 0
):
    """Yield the class-incremental stream as StreamBlocks.

    Deterministic in spec.seed: one generator shuffles each task's
    indices in sequence.  Flip-augmented streams put each flipped copy
    on the step right after its original.  Blocks are cut at every
    multiple of 256 stream steps and, when cut_every > 0, at every
    multiple of cut_every: cuts depend only on the absolute stream
    position, never on task boundaries.  Only one block of the train set
    is ever normalized at a time.
    """
    train_x = np.asarray(train_x)
    train_y = np.asarray(train_y)
    rng = np.random.default_rng(spec.seed)
    descriptor = spec.dataset
    orders = []
    for task in spec.tasks:
        members = []
        for c in task:
            idx = np.flatnonzero(train_y == c)
            if len(idx) == 0:
                raise ConfigurationError(f"class {c} has no samples in the train set")
            members.append(idx)
        order = np.concatenate(members)
        rng.shuffle(order)
        orders.append(order)
    indices = np.concatenate(orders)
    flipped = np.zeros(len(indices), dtype=bool)
    if spec.augment:
        indices = np.repeat(indices, 2)
        flipped = np.tile([False, True], len(flipped))
    n = len(indices)
    cuts = np.arange(0, n, _STREAM_BLOCK)
    if cut_every > 0:
        cuts = np.union1d(cuts, np.arange(0, n, cut_every))
    for start, stop in zip(cuts.tolist(), cuts[1:].tolist() + [n]):
        idx = indices[start:stop]
        flip = flipped[start:stop]
        if descriptor.kind == "images":
            images = train_x[idx]
            if flip.any():
                images[flip] = flip_horizontal(images[flip])
            features = normalize_batch(images, descriptor)
        else:
            features = train_x[idx].astype(np.float32, copy=False)
        yield StreamBlock(
            start, idx, flip, features, train_y[idx].astype(np.int64, copy=False)
        )


def compute_accuracy(predictions: np.ndarray, labels: np.ndarray):
    """Per-class and overall accuracy.

    Returns (per_class, sample_average, class_average): per-class is
    correct_c / count_c over the true labels; sample average is total
    correct / total count.  On class-balanced test sets the two
    averages coincide; both are reported.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise DataError(
            f"predictions and labels must be equal-length vectors, got "
            f"{predictions.shape} and {labels.shape}"
        )
    if len(labels) == 0:
        raise DataError("cannot score an empty evaluation set")
    per_class = {}
    for c in np.unique(labels):
        mask = labels == c
        per_class[int(c)] = float((predictions[mask] == c).mean())
    average = float((predictions == labels).mean())
    class_average = float(np.mean(list(per_class.values())))
    return per_class, average, class_average


@dataclass
class RunResult:
    """Everything one benchmark run produced, JSON-serializable."""

    config: dict
    per_class_accuracy: dict[int, float]
    average_accuracy: float
    class_average_accuracy: float
    wall_time_seconds: float
    peak_memory_estimate_bytes: int
    observe_count: int
    shrinkage_rho: float | None = None
    shrinkage_mu: float | None = None
    log_det: float | None = None
    intermediate: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "config": self.config,
            "per_class_accuracy": {
                str(k): v for k, v in sorted(self.per_class_accuracy.items())
            },
            "average_accuracy": self.average_accuracy,
            "class_average_accuracy": self.class_average_accuracy,
            "wall_time_seconds": self.wall_time_seconds,
            "peak_memory_estimate_bytes": self.peak_memory_estimate_bytes,
            "observe_count": self.observe_count,
            "shrinkage_rho": self.shrinkage_rho,
            "shrinkage_mu": self.shrinkage_mu,
            "log_det": self.log_det,
        }
        if self.intermediate:
            out["intermediate"] = self.intermediate
        return out


def append_jsonl(result: RunResult, path) -> None:
    """Append one run as a single JSON line."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(result.to_json()) + "\n")


def _config_echo(stream_spec: StreamSpec, model_config: ModelVariant, eval_every: int):
    d = stream_spec.dataset
    emb = model_config.embedding
    echo = {
        "dataset": d.name,
        "input_dim": d.input_dim,
        "num_classes": d.num_classes,
        "train_count": d.train_count,
        "test_count": d.test_count,
        "normalization": {
            "channel_means": list(d.channel_means),
            "channel_stds": list(d.channel_stds),
        },
        "variant": model_config.variant,
        "state_dim": model_config.embed_dim,
        "ridge": model_config.ridge if model_config.needs_precision else None,
        "estimator_mode": model_config.estimator_mode,
        "pooled_unbiased": model_config.pooled_unbiased,
        "augment": stream_spec.augment,
        "classes_per_task": stream_spec.classes_per_task,
        "class_order": list(stream_spec.class_order),
        "stream_seed": stream_spec.seed,
        "feature_seed": emb.seed if emb is not None else None,
        "gamma": emb.gamma if emb is not None else None,
        "num_bases": emb.num_bases if emb is not None else None,
        "rng": GENERATOR_NAME,
        "numpy_version": np.__version__,
        "eval_every": eval_every,
    }
    return echo


def check_memory_cap(
    model_config: ModelVariant, cap_bytes: int, eval_every: int = 0
) -> int:
    """Refuse covariance-tracking runs whose packed triangles exceed the cap.

    A run holds the float64 accumulator, the 4*E*(E+1) bytes of the
    scatter's upper triangle; with eval_every > 0 each snapshot factors a
    copy of it as well, so it holds two.
    """
    if not model_config.needs_precision:
        return 0
    e = model_config.embed_dim
    copies = 2 if eval_every > 0 else 1
    needed = copies * 4 * e * (e + 1)
    if needed > cap_bytes:
        snapshot = " and the copy each --eval-every-k snapshot factors"
        raise ConfigurationError(
            f"state dimension {e} needs {copies} x 4*E*(E+1) = {needed} bytes for "
            f"the float64 covariance accumulator{snapshot if copies == 2 else ''}, "
            f"above the configured cap of {cap_bytes} bytes; lower the "
            f"embedding size or raise the cap"
        )
    return needed


def _peak_memory_estimate(
    model_config: ModelVariant,
    descriptor: DatasetDescriptor,
    state_bytes: int,
    stream_steps: int,
    test_count: int,
    eval_every: int,
) -> int:
    """Upper bound on the bytes one ``run_benchmark`` call allocates at once.

    Held throughout: the random map, the statistics (``state_bytes``),
    the normalized test set and the stream's index arrays, plus, with
    eval_every > 0, the packed factor of the latest snapshot (one copy of
    the accumulator).  On top of that comes the largest transient:
    building the map, normalizing the test set, one ingestion block (raw
    rows and their normalized copies, the projection, the float32
    embedding, its sort copy and finiteness mask, and the float64
    stacked rows of the rank-k update), or finalize's mean arrays with
    one predict block.
    """
    e, d, c = model_config.embed_dim, descriptor.input_dim, descriptor.num_classes
    b = _STREAM_BLOCK
    emb = model_config.embedding
    width = emb.num_bases if emb is not None else 0
    snapshot = 4 * e * (e + 1) if model_config.needs_precision and eval_every > 0 else 0
    held = (
        4 * width * d
        + state_bytes
        + snapshot
        + 4 * test_count * d
        + 25 * stream_steps
    )
    # a projection block and its cos/sin (or relu) output beside the embedding
    embed = 4 * b * (e + 2 * width)
    # the previous block's features stay alive while the next is cut
    ingest = 17 * b * d + max(embed, 9 * b * e + 8 * (b + c + 1) * e)
    score = 8 * c * e * 4 + embed + 8 * b * (e + c)
    transient = max(12 * width * d, 12 * test_count * d, ingest, score)
    return held + transient


def _evaluate(model: StreamingClassifier, test_flat: np.ndarray, test_y: np.ndarray):
    predictions = model.predict_batch(test_flat)
    return compute_accuracy(predictions, test_y)


def run_benchmark(
    stream_spec: StreamSpec,
    model_config: ModelVariant,
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    eval_every: int = 0,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> RunResult:
    """One full pass: stream -> finalize -> evaluate the whole test set.

    eval_every=k > 0 additionally snapshots test accuracy every k stream
    steps via a non-consuming finalize (this factors a copy of the
    accumulator, so the run holds two packed triangles); the default
    evaluates once at the end through the consuming, single-buffer path.
    """
    check_memory_cap(model_config, memory_cap_bytes, eval_every)
    if stream_spec.dataset.input_dim != model_config.raw_input_dim:
        raise ConfigurationError(
            f"dataset feeds {stream_spec.dataset.input_dim}-dim inputs but the "
            f"model expects {model_config.raw_input_dim}"
        )
    started = time.perf_counter()
    model = StreamingClassifier(model_config)
    if stream_spec.dataset.kind == "images":
        test_flat = normalize_batch(test_x, stream_spec.dataset)
    else:
        test_flat = np.asarray(test_x, dtype=np.float32)
    test_y = np.asarray(test_y)

    intermediate = []
    steps = 0
    for block in make_stream(stream_spec, train_x, train_y, cut_every=eval_every):
        try:
            model.observe(block.features, block.labels)
        except RanDumbError as exc:
            raise exc.with_prefix(block.describe(getattr(exc, "row", None)))
        steps = block.stop
        # One-pass contract: every stream element hit observe exactly
        # once, and nothing else did.
        if model.estimator.observe_count != steps:
            raise ModelStateError(
                f"one-pass check failed after stream step {steps - 1}: the "
                f"estimator holds {model.estimator.observe_count} samples, "
                f"the stream delivered {steps}"
            )
        if eval_every > 0 and steps % eval_every == 0:
            model.finalize(consume=False)
            _, average, _ = _evaluate(model, test_flat, test_y)
            intermediate.append({"step": steps, "average_accuracy": average})

    state_bytes = model.estimator.state_nbytes()
    model.finalize(consume=eval_every == 0)
    per_class, average, class_average = _evaluate(model, test_flat, test_y)
    elapsed = time.perf_counter() - started

    peak = _peak_memory_estimate(
        model_config, stream_spec.dataset, state_bytes, steps, len(test_y), eval_every
    )
    pm = model.precision
    return RunResult(
        config=_config_echo(stream_spec, model_config, eval_every),
        per_class_accuracy=per_class,
        average_accuracy=average,
        class_average_accuracy=class_average,
        wall_time_seconds=elapsed,
        peak_memory_estimate_bytes=int(peak),
        observe_count=steps,
        shrinkage_rho=model.shrinkage_rho,
        shrinkage_mu=model.shrinkage_mu,
        log_det=pm.log_det if pm is not None else None,
        intermediate=intermediate,
    )


# ---------------------------------------------------------------------------
# Config-level entry points (shared by the CLI)
# ---------------------------------------------------------------------------


def build_model_config(
    variant: str,
    descriptor: DatasetDescriptor,
    embed_dim: int,
    gamma: float,
    ridge: float | None,
    seed: int,
    estimator_mode: str = MODE_POOLED,
    pooled_unbiased: bool = False,
) -> ModelVariant:
    """Translate CLI-level knobs into a ModelVariant for one dataset."""
    if variant not in VARIANTS:
        raise ConfigurationError(
            f"unknown variant {variant!r}; expected one of {tuple(VARIANTS)}"
        )
    if ridge is None:
        ridge = descriptor.default_ridge
    common = dict(
        ridge=ridge,
        estimator_mode=estimator_mode,
        pooled_unbiased=pooled_unbiased,
    )
    head = VARIANTS[variant][0]
    if head is None:
        return ModelVariant(variant=variant, input_dim=descriptor.input_dim, **common)
    embedding = FeatureMapSpec(
        head=head,
        input_dim=descriptor.input_dim,
        embed_dim=embed_dim,
        seed=seed,
        gamma=gamma if head == "fourier" else None,
    )
    return ModelVariant(variant=variant, embedding=embedding, **common)


def run_on_dataset(
    data: RawDataset,
    variant: str = "randumb",
    embed_dim: int = 25000,
    gamma: float = 1.0,
    ridge: float | None = None,
    seed: int = 0,
    augment: bool | None = None,
    classes_per_task: int = 1,
    class_order: tuple[int, ...] | None = None,
    estimator_mode: str = MODE_POOLED,
    pooled_unbiased: bool = False,
    eval_every: int = 0,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> RunResult:
    """Run one benchmark from plain keyword settings.

    The embedding seed is the run seed itself; the stream shuffle uses
    seed + 1 so the two random choices never alias.  Augmentation and
    ridge default per dataset.
    """
    descriptor = data.descriptor
    if augment is None:
        augment = descriptor.flip_default
    stream_spec = StreamSpec(
        dataset=descriptor,
        classes_per_task=classes_per_task,
        class_order=class_order,
        augment=augment,
        seed=seed + 1,
    )
    model_config = build_model_config(
        variant,
        descriptor,
        embed_dim,
        gamma,
        ridge,
        seed,
        estimator_mode,
        pooled_unbiased,
    )
    return run_benchmark(
        stream_spec,
        model_config,
        data.train_x,
        data.train_y,
        data.test_x,
        data.test_y,
        eval_every=eval_every,
        memory_cap_bytes=memory_cap_bytes,
    )


def sweep_embedding(dims: list[int], data: RawDataset, **settings) -> list[RunResult]:
    """One run per embedding size with shared data, seed, and stream.

    Sizes must be non-descending (repeats allowed; repeated sizes
    reproduce identical results), and even for the Fourier variants.
    """
    if not dims:
        raise ConfigurationError("sweep needs at least one embedding size")
    for a, b in zip(dims, dims[1:]):
        if b < a:
            raise ConfigurationError(f"sweep sizes must be non-descending, got {dims}")
    results = []
    for dim in dims:
        results.append(run_on_dataset(data, embed_dim=dim, **settings))
    return results


def run_ablation(
    data: RawDataset,
    variants: tuple[str, ...] = ABLATION_ORDER,
    **settings,
) -> list[RunResult]:
    """Run the requested variants over the identical stream."""
    results = []
    for variant in variants:
        results.append(run_on_dataset(data, variant=variant, **settings))
    return results


def sweep_table(results: list[RunResult]) -> str:
    """CSV rows (variant, state_dim, average, class_average) for a result list."""
    lines = ["variant,state_dim,average_accuracy,class_average_accuracy"]
    for r in results:
        lines.append(
            f"{r.config['variant']},{r.config['state_dim']},"
            f"{r.average_accuracy:.6f},{r.class_average_accuracy:.6f}"
        )
    return "\n".join(lines) + "\n"
