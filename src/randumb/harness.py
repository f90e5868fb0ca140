"""Class-incremental streams, the one-pass benchmark loop, metrics,
embedding sweeps, and ablation runs.

Protocol: ``make_stream`` cuts the train split of the RawDataset it is
handed into tasks of consecutive labels; the stream visits tasks in label
order, presenting each task's samples in a seed-shuffled order (flipped
copies, when enabled, follow their originals on adjacent steps).  The
stream is delivered in blocks of consecutive steps; the model observes
every element exactly once, is finalized, and is then evaluated on the
same RawDataset's full test split.  A flip stream is cut only between
an image and its mirror, so each flip block is the normalized originals
of its steps; the model emits each original's row followed by its
mirror's, or on the symmetric half one row per pair counted twice
(``StreamingClassifier.observe``).
"""

from __future__ import annotations

import inspect
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np
from numpy.random import default_rng

from .classifier import ModelVariant, StreamingClassifier, VARIANTS
from .data_io import DatasetDescriptor, RawDataset, as_class_labels, normalize_batch
from .errors import (
    ConfigurationError,
    DataError,
    ModelStateError,
    RanDumbError,
    UnsupportedAugmentationError,
    check_int,
)
from .fourier import GENERATOR_NAME, FeatureMapSpec
from .precision import low_rank_fits

DEFAULT_MEMORY_CAP_BYTES = 16 * 1024**3

# Rows per block: the stream is cut, and the test split is scored, this
# many rows at a time; nothing else cuts rows.  The cut positions are part
# of the bitwise-resume contract, and 256 rows sit at the knee of the
# packed rank-k update.  It is even, so no block cut splits a flip pair.
BLOCK_ROWS = 256

# Bytes per unit of getrusage's ru_maxrss: KiB on Linux, bytes on macOS.
_RSS_UNIT = 1 if sys.platform == "darwin" else 1024

ABLATION_ORDER = tuple(VARIANTS)


@dataclass(frozen=True)
class StreamBlock:
    """Consecutive stream steps ``start .. start + len(labels) - 1``.

    Step ``start + i`` is train-set sample ``indices[i]`` with label
    ``labels[i]``.  ``features`` holds the flat normalized originals:
    without flips (``mirror_width`` None) row i is step i.  With flips
    ``start`` is even, row i is step 2i, and step 2i + 1 is its image
    mirrored left-right at width ``mirror_width``.
    """

    start: int
    indices: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    mirror_width: int | None = None

    @property
    def stop(self) -> int:
        return self.start + len(self.labels)

    def describe(self, row: int | None) -> str:
        """Name one row's stream step, or the whole block without a row."""
        if row is None:
            return f"stream steps {self.start}..{self.stop - 1}"
        step = self.start + row
        origin = "flipped" if self.mirror_width and step % 2 else "original"
        return f"stream step {step} (class {self.labels[row]}, {origin})"


def make_stream(
    data: RawDataset,
    classes_per_task: int = 1,
    augment: bool = False,
    seed: int = 0,
    cut_every: int = 0,
):
    """The class-incremental stream of ``data``'s train split, as a
    generator of StreamBlocks.

    Tasks are consecutive label ranges of classes_per_task classes each,
    visited in label order.  The order is fixed here, deterministic in
    seed: one generator shuffles each task's indices in sequence, so a bad
    setting or a class with no train samples is refused before any block
    is made.  Flip-augmented streams put each flipped copy on the step
    right after its original.  Blocks are cut at every multiple of
    BLOCK_ROWS stream steps and, when cut_every > 0, at every multiple of
    cut_every: cuts depend only on the absolute stream position, never on
    task boundaries.  A flip stream is cut only between pairs, so it
    refuses an odd cut_every.  Only the originals of one block of the
    train set are ever normalized at a time.
    """
    descriptor, train_x, train_y = data.descriptor, data.train_x, data.train_y
    check_int("classes_per_task", classes_per_task, 1)
    check_int("seed", seed, 0)
    check_int("cut_every", cut_every, 0)
    width = None
    if augment:
        if descriptor.kind != "images":
            raise UnsupportedAugmentationError(
                f"dataset {descriptor.name} holds feature vectors; "
                f"flip augmentation needs unflattened images"
            )
        if cut_every % 2:
            raise ConfigurationError(
                f"--eval-every-k {cut_every} would cut an image from its mirror: a "
                f"flip run needs an even --eval-every-k (or --no-augment)"
            )
        width = descriptor.image_shape[-1]
    rng = default_rng(seed)
    c = descriptor.num_classes
    orders = []
    for first in range(0, c, classes_per_task):
        members = []
        for label in range(first, min(first + classes_per_task, c)):
            idx = np.flatnonzero(train_y == label)
            if len(idx) == 0:
                raise ConfigurationError(f"class {label} has no samples in the train set")
            members.append(idx)
        order = np.concatenate(members)
        rng.shuffle(order)
        orders.append(order)
    step = 2 if augment else 1
    indices = np.repeat(np.concatenate(orders), step)
    n = len(indices)
    # A mask, not np.union1d: np.unique imports numpy.ma on first use.
    steps = np.arange(n)
    is_cut = steps % BLOCK_ROWS == 0
    if cut_every > 0:
        is_cut |= steps % cut_every == 0
    cuts = np.flatnonzero(is_cut)

    def blocks():
        for start, stop in zip(cuts.tolist(), cuts[1:].tolist() + [n]):
            idx = indices[start:stop]
            yield StreamBlock(
                start, idx, _flat(train_x[idx[::step]], descriptor),
                train_y[idx].astype(np.int64, copy=False), width,
            )

    return blocks()


def _flat(rows: np.ndarray, descriptor: DatasetDescriptor) -> np.ndarray:
    """Raw rows as the model takes them: images normalized and flattened,
    feature vectors as float32."""
    if descriptor.kind == "images":
        return normalize_batch(rows, descriptor)
    return rows.astype(np.float32, copy=False)


def _predict_test(model: StreamingClassifier, data: RawDataset) -> np.ndarray:
    """Predictions for ``data``'s raw test split, each BLOCK_ROWS rows made
    flat just before they are scored, so the flat split is never held whole."""
    test_x = data.test_x
    out = np.empty(len(test_x), dtype=np.int64)
    for start in range(0, len(test_x), BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        out[start:stop] = model.predict_batch(_flat(test_x[start:stop], data.descriptor))
    return out


def compute_accuracy(predictions: np.ndarray, labels: np.ndarray):
    """Per-class and overall accuracy.

    Returns (per_class, sample_average, class_average): per-class is
    correct_c / count_c over the classes present in the true labels;
    sample average is total correct / total count.  On class-balanced
    test sets the two averages coincide; both are reported.  A negative
    or fractional true label raises DataError naming its row.
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
    labels = as_class_labels(labels, "evaluation")
    correct = predictions == labels
    counts = np.bincount(labels)
    hits = np.bincount(labels[correct], minlength=len(counts))
    per_class = {int(c): float(hits[c] / counts[c]) for c in np.flatnonzero(counts)}
    average = float(correct.mean())
    class_average = float(np.mean(list(per_class.values())))
    return per_class, average, class_average


@dataclass
class RunResult:
    """Everything one benchmark run produced, JSON-serializable.

    ``state_bytes`` is the nbytes of the statistics' own arrays at the
    end of the stream (``StreamingEstimator.state_nbytes``: the C class
    means and counts, 8*C*(E+1) bytes, 8*C*(E/2+1) on the symmetric
    half, and the scatter in the form the
    run holds, the packed accumulator's 4*E*(E+1) bytes or the factor
    buffer's 8*E*(n-k+C), see ``check_memory_cap``).  ``peak_rss_bytes``
    is measured: the process's resident-set high-water mark (``getrusage``
    ``ru_maxrss``) when the run ends, which also counts the interpreter,
    the raw data and whatever the process held before the run.
    ``factor_rank`` is the rank of the final factor: E when finalize
    factored densely, the low-rank factor's r otherwise, None without a
    covariance.
    """

    config: dict
    per_class_accuracy: dict[int, float]
    average_accuracy: float
    class_average_accuracy: float
    wall_time_seconds: float
    state_bytes: int
    peak_rss_bytes: int
    observe_count: int
    shrinkage_rho: float | None = None
    shrinkage_mu: float | None = None
    log_det: float | None = None
    factor_rank: int | None = None
    intermediate: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        """The fields in declaration order; class keys become sorted
        strings, and an empty ``intermediate`` is left out."""
        out = asdict(self)
        out["per_class_accuracy"] = {
            str(k): v for k, v in sorted(self.per_class_accuracy.items())
        }
        if not self.intermediate:
            del out["intermediate"]
        return out


def append_jsonl(result: RunResult, path) -> None:
    """Append one run as a single JSON line."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(result.to_json()) + "\n")


def _config_echo(
    data: RawDataset, model_config: ModelVariant, eval_every: int,
    augment: bool, classes_per_task: int, stream_seed: int,
):
    d = data.descriptor
    emb = model_config.embedding
    return {
        "dataset": d.name,
        "input_dim": d.input_dim,
        "num_classes": d.num_classes,
        "train_count": len(data.train_y),
        "test_count": len(data.test_y),
        "normalization": {
            "channel_means": list(d.channel_means),
            "channel_stds": list(d.channel_stds),
        },
        "variant": model_config.variant,
        "state_dim": model_config.embed_dim,
        "ridge": model_config.ridge if model_config.needs_precision else None,
        "augment": augment,
        "classes_per_task": classes_per_task,
        "stream_seed": stream_seed,
        "feature_seed": emb.seed if emb is not None else None,
        "gamma": emb.gamma if emb is not None else None,
        "num_bases": emb.num_bases if emb is not None else None,
        "rng": GENERATOR_NAME,
        "numpy_version": np.__version__,
        "eval_every": eval_every,
    }


def check_memory_cap(
    model_config: ModelVariant, cap_bytes: int, max_rank: int, eval_every: int = 0
) -> int:
    """Refuse runs whose statistics exceed the cap, before any of them is
    allocated; returns the bytes they need.

    Every run holds the C class rows, a float64 mean and an int64 count
    each: 8*C*(E+1) bytes, or 8*C*(E/2+1) on the symmetric half
    (``classifier`` module docstring).  A covariance-tracking run also holds the
    scatter in the form the estimator picks from ``max_rank``, the
    scatter's rank bound n - k at the end of the stream: where
    ``low_rank_fits`` holds for it, the float64 factor's buffer,
    8*E*(n-k+C) bytes (L and the C spare columns each block's rows pass
    through), which snapshots only read; otherwise the packed
    accumulator, the 4*E*(E+1) bytes of the scatter's upper triangle,
    and with eval_every > 0 each dense snapshot factors a copy of it as
    well, so it holds two.
    """
    c, e = model_config.num_classes, model_config.embed_dim
    rows = 8 * c * (model_config.state_dim + 1)
    half = "/2" if model_config.symmetric_half else ""
    what = f"8*C*(E{half}+1) = {rows} for the class rows"
    needed = rows
    if model_config.needs_precision and low_rank_fits(e, max_rank, c):
        needed += 8 * e * (max_rank + c)
        what += f" and 8*E*(n-k+C) = {needed - rows} for the float64 scatter factor"
    elif model_config.needs_precision:
        copies = 2 if eval_every > 0 else 1
        needed += copies * 4 * e * (e + 1)
        what += f" and {copies} x 4*E*(E+1) = {needed - rows} for the float64 accumulator"
        if copies == 2:
            what += " and the copy each dense --eval-every-k snapshot factors"
    if needed > cap_bytes:
        raise ConfigurationError(
            f"{c} classes at state dimension {e} need {needed} bytes ({what}), above "
            f"the configured cap of {cap_bytes} bytes; lower the embedding size or "
            f"the largest label, or raise the cap"
        )
    return needed


def run_on_dataset(
    data: RawDataset,
    variant: str = "randumb",
    embed_dim: int = 25000,
    gamma: float | None = None,
    ridge: float | None = None,
    seed: int = 0,
    augment: bool | None = None,
    classes_per_task: int = 1,
    eval_every: int = 0,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> RunResult:
    """One full pass: stream -> finalize -> evaluate the whole test set.

    The embedding seed is the run seed itself; the stream shuffle uses
    seed + 1 so the two random choices never alias.  Augmentation,
    ridge and the Fourier kernel width gamma default per dataset; a
    features dataset has no default gamma, so a Fourier variant on one
    needs it given.  A flip run's map is mirror-paired at the image width.
    Every setting is checked before the model is allocated: seed and
    eval_every here, the model's by FeatureMapSpec, ModelVariant and
    check_memory_cap, classes_per_task, augment and a flip run's odd
    eval_every by make_stream.

    eval_every=k > 0 additionally snapshots test accuracy every k stream
    steps via a non-consuming finalize, each normalizing the raw test
    split again, block by block.  The model is built with the stream's
    rank bound (its rows, twice with flips, less its classes), so where
    the ``precision`` module docstring's rule holds for it the run holds
    the scatter as a factor, which snapshots only read; otherwise each
    snapshot factors a copy of the packed accumulator.  The final
    evaluation always goes through the consuming, single-buffer path.
    """
    return _planned_run(
        data, variant, embed_dim, gamma, ridge, seed, augment, classes_per_task,
        eval_every, memory_cap_bytes,
    )()


def _planned_run(
    data, variant, embed_dim, gamma, ridge, seed, augment, classes_per_task,
    eval_every, memory_cap_bytes,
):
    """``run_on_dataset``'s settings checked, its model config built and
    its stream order fixed; returns the pass itself, to call with no
    arguments.  Nothing the size of the model is allocated here."""
    check_int("seed", seed, 0)
    check_int("eval_every", eval_every, 0)
    descriptor = data.descriptor
    if augment is None:
        augment = descriptor.flip_default
    # a flip run on a features dataset gets no width here and is refused
    # by make_stream
    width = descriptor.image_shape[-1] if augment and descriptor.kind == "images" else None
    # an unknown variant gets no head here and is refused by ModelVariant
    head = VARIANTS.get(variant, (None,))[0]
    if head == "fourier" and gamma is None:
        gamma = descriptor.default_gamma
        if gamma is None:
            raise ConfigurationError(
                f"variant {variant} on the {descriptor.kind} dataset {descriptor.name} "
                f"has no default kernel width; set --gamma"
            )
    embedding = None if head is None else FeatureMapSpec(
        head=head,
        input_dim=descriptor.input_dim,
        embed_dim=embed_dim,
        seed=seed,
        gamma=gamma if head == "fourier" else None,
        mirror_width=width,
    )
    model_config = ModelVariant(
        variant=variant,
        num_classes=descriptor.num_classes,
        embedding=embedding,
        ridge=descriptor.default_ridge if ridge is None else ridge,
        input_dim=descriptor.input_dim if head is None else None,
    )
    # the scatter's rank bound at the end of the stream: its rows less the
    # classes present, which are all C (make_stream refuses an empty class)
    max_rank = len(data.train_y) * (2 if augment else 1) - descriptor.num_classes
    check_memory_cap(model_config, memory_cap_bytes, max_rank, eval_every)
    stream_seed = seed + 1
    stream = make_stream(data, classes_per_task, augment, stream_seed, cut_every=eval_every)
    echo = _config_echo(data, model_config, eval_every, augment, classes_per_task, stream_seed)
    return partial(_run_pass, data, model_config, max_rank, stream, eval_every, echo)


def _run_pass(data, model_config, max_rank, stream, eval_every, echo) -> RunResult:
    started = time.perf_counter()
    model = StreamingClassifier(model_config, max_rank)
    intermediate = []
    steps = 0
    for block in stream:
        try:
            model.observe(block.features, block.labels, block.mirror_width)
        except RanDumbError as exc:
            raise exc.with_prefix(block.describe(getattr(exc, "row", None)))
        steps = block.stop
        # One-pass contract: every stream element hit observe exactly
        # once, and nothing else did.
        if model.estimator.total_count != steps:
            raise ModelStateError(
                f"one-pass check failed after stream step {steps - 1}: the "
                f"estimator holds {model.estimator.total_count} samples, "
                f"the stream delivered {steps}"
            )
        if eval_every > 0 and steps % eval_every == 0:
            model.finalize(consume=False)
            _, average, _ = compute_accuracy(_predict_test(model, data), data.test_y)
            intermediate.append({"step": steps, "average_accuracy": average})

    state_bytes = model.estimator.state_nbytes()
    model.finalize(consume=True)
    per_class, average, class_average = compute_accuracy(
        _predict_test(model, data), data.test_y
    )
    elapsed = time.perf_counter() - started

    return RunResult(
        config=echo,
        per_class_accuracy=per_class,
        average_accuracy=average,
        class_average_accuracy=class_average,
        wall_time_seconds=elapsed,
        state_bytes=state_bytes,
        peak_rss_bytes=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RSS_UNIT,
        observe_count=steps,
        shrinkage_rho=model.shrinkage_rho,
        shrinkage_mu=model.shrinkage_mu,
        log_det=model.log_det,
        factor_rank=model.factor_rank,
        intermediate=intermediate,
    )


def sweep_embedding(dims: list[int], data: RawDataset, **settings) -> list[RunResult]:
    """One run per embedding size with shared data, seed, and stream.

    Sizes must be non-descending (repeats allowed; repeated sizes
    reproduce identical results), and even for the Fourier variants
    (divisible by 4 on a flip run, whose map is mirror-paired).
    The variant must embed its inputs: slda and ncm run on raw inputs at
    every size, so a sweep of them is refused.  Every size's settings and
    memory cap are checked before the first run starts.
    """
    if not dims:
        raise ConfigurationError("sweep needs at least one embedding size")
    variant = settings.get("variant")
    if variant in VARIANTS and VARIANTS[variant][0] is None:
        raise ConfigurationError(
            f"variant {variant} runs on raw inputs and has no embedding size to sweep"
        )
    for a, b in zip(dims, dims[1:]):
        if b < a:
            raise ConfigurationError(f"sweep sizes must be non-descending, got {dims}")
    runs = [_plan(data, embed_dim=dim, **settings) for dim in dims]
    return [run() for run in runs]


def run_ablation(
    data: RawDataset,
    variants: tuple[str, ...] = ABLATION_ORDER,
    **settings,
) -> list[RunResult]:
    """Run the requested variants over the identical stream.  Every
    variant's settings and memory cap are checked before the first run
    starts."""
    runs = [_plan(data, variant=variant, **settings) for variant in variants]
    return [run() for run in runs]


def _plan(data: RawDataset, **settings):
    """``_planned_run`` of ``run_on_dataset``'s arguments, defaults filled in."""
    bound = inspect.signature(run_on_dataset).bind(data, **settings)
    bound.apply_defaults()
    return _planned_run(**bound.arguments)


def sweep_table(results: list[RunResult]) -> str:
    """CSV rows (variant, state_dim, average, class_average) for a result list."""
    lines = ["variant,state_dim,average_accuracy,class_average_accuracy"]
    for r in results:
        lines.append(
            f"{r.config['variant']},{r.config['state_dim']},"
            f"{r.average_accuracy:.6f},{r.class_average_accuracy:.6f}"
        )
    return "\n".join(lines) + "\n"
