"""Independent brute-force references for tests and the `verify` command.

Everything here is coded directly from definitions: two-pass batch
statistics, explicit dense inverses, literal kernel evaluation.  None
of it calls into the streaming modules, so agreement between the two
sides is evidence, not circularity.  Slow on purpose, so the verify
checks run small: E <= 31 on at most 400 samples for the statistics,
shrinkage and discriminant checks, E = 239 and 240 on 4 samples for the
low-rank finalize, 10-dimensional inputs for the kernel check, and
E = 256 on 300-step image streams for the flip check (``run_verify``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, NumericalError


def exact_rbf_kernel_matrix(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    """Pairwise kernel matrix via explicit squared distances."""
    # Imported here: scipy.spatial is slow to load and only this oracle
    # needs it.
    from scipy.spatial.distance import cdist

    sq = cdist(np.asarray(X, np.float64), np.asarray(Y, np.float64), "sqeuclidean")
    return np.exp(-gamma * sq)


@dataclass
class BatchStats:
    """Two-pass batch statistics: per-class means, the pooled
    within-class scatter, and its (n - 1)-normalized covariance."""

    means: dict[int, np.ndarray]
    counts: dict[int, int]
    scatter: np.ndarray
    covariance: np.ndarray


def batch_stats(samples: np.ndarray, labels: np.ndarray) -> BatchStats:
    """Textbook batch computation: means first, then the outer sums of
    each sample centered on its class mean."""
    X = np.asarray(samples, dtype=np.float64)
    y = np.asarray(labels)
    n = X.shape[0]
    if n < 2:
        raise DataError(f"need n >= 2 samples, got {n}")
    means = {}
    counts = {}
    for label in np.unique(y):
        members = X[y == label]
        means[int(label)] = members.mean(axis=0)
        counts[int(label)] = len(members)
    centered = X - np.stack([means[int(label)] for label in y])
    scatter = centered.T @ centered
    return BatchStats(
        means=means,
        counts=counts,
        scatter=scatter,
        covariance=scatter / (n - 1),
    )


def oas_reference(S: np.ndarray, n: int):
    """Independent transcription of the shrinkage estimator.

    Deliberately written with different primitives than the production
    code (np.trace of an explicit matrix product, np.eye target) so a
    transcription slip in either copy shows up as disagreement.

    Returns (rho, mu, shrunk).
    """
    S = np.asarray(S, dtype=np.float64)
    e = S.shape[0]
    trace_s = np.trace(S)
    trace_s_sq = np.trace(S @ S)
    mu = trace_s / e
    numerator = (1.0 - 2.0 / e) * trace_s_sq + trace_s**2
    denominator = (n + 1.0 - 2.0 / e) * (trace_s_sq - trace_s**2 / e)
    if denominator <= 0.0:
        rho = 1.0
    else:
        rho = min(1.0, numerator / denominator)
    shrunk = (1.0 - rho) * S + rho * mu * np.eye(e)
    return rho, mu, shrunk


def batch_lda_predict(
    means: dict[int, np.ndarray],
    covariance: np.ndarray,
    ridge: float,
    X: np.ndarray,
) -> np.ndarray:
    """Linear discriminant with an explicit dense inverse.

    Scores class i as w_i . x + b_i with w_i = (Sigma + ridge I)^{-1} mu_i
    and b_i = -1/2 mu_i . w_i; ties resolve to the smallest label.
    """
    cov = np.asarray(covariance, dtype=np.float64)
    e = cov.shape[0]
    try:
        inv = np.linalg.inv(cov + ridge * np.eye(e))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"regularized covariance is singular: {exc}") from exc
    labels = sorted(means)
    M = np.stack([means[c] for c in labels])  # (C, E)
    W = inv @ M.T  # (E, C)
    b = -0.5 * np.einsum("ce,ec->c", M, W)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    scores = X @ W + b
    picks = np.argmax(scores, axis=1)  # first max = smallest label
    return np.asarray(labels, dtype=np.int64)[picks]


def batch_mahalanobis_predict(
    means: dict[int, np.ndarray],
    covariance: np.ndarray,
    ridge: float,
    X: np.ndarray,
) -> np.ndarray:
    """Quadratic-form nearest class mean with an explicit dense inverse."""
    cov = np.asarray(covariance, dtype=np.float64)
    e = cov.shape[0]
    inv = np.linalg.inv(cov + ridge * np.eye(e))
    labels = sorted(means)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    dists = np.empty((X.shape[0], len(labels)))
    for j, label in enumerate(labels):
        delta = X - means[label]
        dists[:, j] = np.einsum("ne,ef,nf->n", delta, inv, delta)
    picks = np.argmin(dists, axis=1)  # first min = smallest label
    return np.asarray(labels, dtype=np.int64)[picks]


# ---------------------------------------------------------------------------
# Verify suite
# ---------------------------------------------------------------------------


@dataclass
class OracleReport:
    """Outcome of one verification check: pass iff the worst observed
    error is within tolerance."""

    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_error <= self.tolerance)

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "max_error": float(self.max_error),
            "tolerance": float(self.tolerance),
            "passed": self.passed,
        }


def _check_streaming_vs_batch(rng) -> OracleReport:
    from .streaming import StreamingEstimator

    worst = 0.0
    for trial in range(6):
        e = int(rng.integers(4, 32))
        n = int(rng.integers(50, 400))
        k = int(rng.integers(2, 8))
        X = rng.standard_normal((n, e))
        y = rng.integers(0, k, size=n)
        # Random block sizes from 1 up, as production streams arrive.
        cuts = np.cumsum(rng.integers(1, 64, size=n))
        bounds = [0, *cuts[cuts < n].tolist(), n]
        est = StreamingEstimator(e, k)
        for start, stop in zip(bounds, bounds[1:]):
            est.observe(X[start:stop], y[start:stop])
        ref = batch_stats(X, y)
        scale = max(np.abs(ref.covariance).max(), 1e-12)
        worst = max(worst, np.abs(est.covariance() - ref.covariance).max() / scale)
        means = est.class_rows()[1]
        for label, mean in ref.means.items():
            mscale = max(np.abs(mean).max(), 1e-12)
            worst = max(worst, np.abs(means[label] - mean).max() / mscale)
    return OracleReport("streaming_matches_batch", worst, 1e-8)


def _check_rff_kernel(rng) -> OracleReport:
    from .fourier import FeatureMap, FeatureMapSpec

    d = 10
    X = rng.standard_normal((100, d)) * 0.4
    Y = rng.standard_normal((100, d)) * 0.4
    exact = exact_rbf_kernel_matrix(X, Y, 1.0).diagonal()

    def mae(num_bases: int, seed: int) -> float:
        fm = FeatureMap(FeatureMapSpec("fourier", d, 2 * num_bases, seed, gamma=1.0))
        approx = np.einsum("ij,ij->i", fm.embed_batch(X), fm.embed_batch(Y))
        return float(np.abs(approx - exact).mean())

    worst = max(mae(5000, seed) for seed in range(3))
    coarse = np.mean([mae(100, s) for s in range(5)])
    fine = np.mean([mae(10000, s) for s in range(5)])
    if fine >= coarse:
        worst = max(worst, 1.0)  # monotonicity violation forces a failure
    return OracleReport("rff_kernel_approximation", worst, 0.02)


def _check_oas(rng) -> OracleReport:
    """The shrinkage finalize runs against the oracle: (rho, mu) of the
    packed upper triangle, and the log det and solves of the factor of
    (rho mu + lambda) I + (1 - rho) S, against the oracle's shrunk + lambda
    I.  A scaled identity is a fixed point: rho = 1, mu exact."""
    from .precision import PrecisionModel, pack_upper, packed_shrinkage

    ridge = 1e-3
    worst = 0.0
    for _ in range(5):
        e, n = 20, 50
        A = rng.standard_normal((n, e))
        S = A.T @ A / n
        rho, mu = packed_shrinkage(pack_upper(S), n)
        rho_ref, mu_ref, shrunk_ref = oas_reference(S, n)
        model = PrecisionModel(pack_upper(S), rho * mu + ridge, 1.0 - rho)
        oracle = shrunk_ref + ridge * np.eye(e)
        b = rng.standard_normal((e, 3))
        worst = max(
            worst, abs(rho - rho_ref), abs(mu - mu_ref),
            abs(model.log_det - np.linalg.slogdet(oracle)[1]),
            np.abs(model.solve(b) - np.linalg.solve(oracle, b)).max(),
        )
        if not (0.0 <= rho <= 1.0):
            worst = max(worst, 1.0)
    rho, mu = packed_shrinkage(pack_upper(3.5 * np.eye(12)), 100)
    worst = max(worst, abs(rho - 1.0), abs(mu - 3.5))
    return OracleReport("oas_matches_reference", worst, 1e-10)


def _check_lda_equivalence(rng) -> OracleReport:
    from .classifier import ModelVariant, StreamingClassifier

    e, k, per_class = 10, 3, 100
    centers = rng.standard_normal((k, e)) * 2.0
    X = np.concatenate(
        [centers[i] + rng.standard_normal((per_class, e)) for i in range(k)]
    )
    y = np.repeat(np.arange(k), per_class)
    model = StreamingClassifier(
        ModelVariant(variant="slda", num_classes=k, ridge=1e-3, input_dim=e)
    )
    model.observe(X, y)
    model.finalize()
    stats = batch_stats(X, y)
    tests = rng.standard_normal((1000, e)) * 2.0
    # The model shrinks before factoring, so the oracle gets the same
    # shrunk matrix (computed by the independent transcription).
    _, _, shrunk = oas_reference(stats.covariance, len(y))
    oracle = batch_lda_predict(stats.means, shrunk, 1e-3, tests)
    mine = model.predict_batch(tests)
    disagreement = float(np.mean(mine != oracle))
    # And the equivalence theorem itself: quadratic argmin == linear
    # argmax on one shared matrix.
    quad = batch_mahalanobis_predict(stats.means, shrunk, 1e-3, tests)
    disagreement = max(disagreement, float(np.mean(quad != oracle)))
    return OracleReport("lda_equivalence", disagreement, 0.0)


def _check_finalize_upper(rng) -> OracleReport:
    """The production finalize, on the scatter in either form the
    estimator holds, each model built with its stream's rank bound n - k.
    Against the oracle on the full covariance, at an even and an odd
    order (the two layouts of RFP storage), for a consuming and a copying
    finalize and for one after a checkpoint round trip: the worst error
    over rho, mu, log det and predictions.  Three sample sizes reach both
    forms: 30 samples per class at E = 12 and 11 hold the packed triangle
    over 3 classes and factor densely; 2 per class over 2 classes (rank
    n - k = 2) and 9 per class over 3 classes (rank 24, with r + 2 C = 30
    at the edge of ``low_rank_fits``) at E = 240 and 239 hold the factor.
    A finalize whose ``factor_rank`` shows the other representation
    counts as a failure."""
    from .classifier import ModelVariant, StreamingClassifier

    ridge = 1e-3
    worst = 0.0
    for dim, k, per_class, rank in ((12, 3, 30, None), (240, 2, 2, 2), (240, 3, 9, 24)):
        centers = rng.standard_normal((k, dim)) * 2.0
        X_all = np.concatenate(
            [centers[i] + rng.standard_normal((per_class, dim)) for i in range(k)]
        )
        y = np.repeat(np.arange(k), per_class)
        tests_all = rng.standard_normal((200, dim)) * 2.0
        for e in (dim, dim - 1):
            X, tests = X_all[:, :e], tests_all[:, :e]
            stats = batch_stats(X, y)
            rho, mu, shrunk = oas_reference(stats.covariance, len(y))
            _, log_det = np.linalg.slogdet(shrunk + ridge * np.eye(e))
            oracle = batch_lda_predict(stats.means, shrunk, ridge, tests)
            for handoff in ("consume", "copy", "restored"):
                model = StreamingClassifier(
                    ModelVariant(variant="slda", num_classes=k, ridge=ridge, input_dim=e),
                    len(y) - k,
                )
                model.observe(X, y)
                if handoff == "restored":
                    meta, arrays = model._state()
                    model = StreamingClassifier._from_state(
                        meta, {name: a.copy() for name, a in arrays.items()}
                    )
                model.finalize(consume=handoff != "copy")
                worst = max(
                    worst,
                    abs(model.shrinkage_rho - rho),
                    abs(model.shrinkage_mu - mu) / max(abs(mu), 1e-300),
                    abs(model.log_det - log_det) / max(abs(log_det), 1.0),
                    float(np.mean(model.predict_batch(tests) != oracle)),
                    float(model.factor_rank != (e if rank is None else rank)),
                )
    return OracleReport("finalize_upper_matches_reference", worst, 1e-10)


# Thresholds of flip_pair_errors, relative to the largest entry, frozen
# over run_verify seeds 0..49 of flip_check_dataset on all five variants
# x classes_per_task 1 and 3 x cut_every 0 and 38 at E=256: the worst
# seen was 1.5e-7 on the means and 1.5e-7 on the packed scatter (float32
# rounding of the two embeddings), with no prediction apart; slda and ncm
# were exact.
FLIP_MEANS_TOL = 1e-6
FLIP_SCATTER_TOL = 1e-6


def flip_check_dataset(rng):
    """CIFAR-shaped images of 6 classes, 25 train and 10 test each: one
    smooth random prototype per class plus pixel noise.  Their flip
    stream of 300 steps spans a BLOCK_ROWS cut."""
    from .data_io import DESCRIPTORS, DatasetDescriptor, RawDataset

    cifar, classes = DESCRIPTORS["cifar10"], 6
    descriptor = DatasetDescriptor(
        "flipcheck", "images", cifar.input_dim, classes, cifar.channel_means,
        cifar.channel_stds, cifar.image_shape, flip_default=True,
    )
    prototypes = 128 + 48 * np.kron(rng.standard_normal((classes, 3, 4, 4)), np.ones((8, 8)))

    def draw(per_class):
        y = np.repeat(np.arange(classes), per_class)
        x = prototypes[y] + 40 * rng.standard_normal((len(y), 3, 32, 32))
        return np.clip(x, 0, 255).astype(np.uint8), y

    return RawDataset(descriptor, *draw(25), *draw(10))


def flip_pair_errors(
    data, variant: str, embed_dim: int, seed: int, classes_per_task: int, cut_every: int
) -> tuple[float, float, float]:
    """A flip run's streamed model against the stream that materializes
    every copy: each step's image flipped (``flip_horizontal``),
    normalized and embedded through the same mirror-paired map, block by
    block on the same cuts.  Returns the worst differences of the class
    means and of the packed scatter, each relative to its largest entry,
    and the fraction of test predictions apart after a finalize.

    A model on the symmetric half (``kernel_ncm``) takes flip pairs only,
    so its explicit side is built here: the E-dim class means of the
    embedded copies, summed in float64, and the argmax of phi . mean over
    the test split.  The streamed means are compared with their
    symmetric half (mean_1 + mean_2)/sqrt(2)."""
    from .classifier import VARIANTS, ModelVariant, StreamingClassifier
    from .data_io import flip_horizontal, normalize_batch
    from .fourier import FeatureMapSpec
    from .harness import make_stream

    d = data.descriptor
    width = d.image_shape[-1]
    head = VARIANTS[variant][0]
    spec = None if head is None else FeatureMapSpec(
        head, d.input_dim, embed_dim, seed,
        gamma=d.default_gamma if head == "fourier" else None, mirror_width=width,
    )
    config = ModelVariant(
        variant, d.num_classes, spec, d.default_ridge, None if spec else d.input_dim
    )
    streamed = StreamingClassifier(config)
    explicit = None if config.symmetric_half else StreamingClassifier(config)
    fmap = streamed.feature_map
    sums = np.zeros((d.num_classes, embed_dim))
    counts = np.zeros(d.num_classes)
    for block in make_stream(data, classes_per_task, True, seed + 1, cut_every):
        streamed.observe(block.features, block.labels, block.mirror_width)
        images = data.train_x[block.indices]
        # every block starts on an even step, so its odd rows are the copies
        images[1::2] = flip_horizontal(images[1::2])
        flat = normalize_batch(images, d)
        if explicit is None:
            np.add.at(sums, block.labels, fmap.embed_batch(flat))
            np.add.at(counts, block.labels, 1)
        else:
            explicit.observe(flat, block.labels)

    def rel(a, b):
        return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))

    tests = normalize_batch(data.test_x, d)
    streamed_means = streamed.estimator.class_rows()[1]
    scatter = 0.0
    if explicit is None:
        full = sums / counts[:, None]
        half = embed_dim // 2
        means = rel(streamed_means, (full[:, :half] + full[:, half:]) / np.sqrt(2.0))
        want = np.argmax(fmap.embed_batch(tests).astype(np.float64) @ full.T, axis=1)
    else:
        means = rel(streamed_means, explicit.estimator.class_rows()[1])
        if config.needs_precision:
            scatter = rel(
                streamed.estimator.scatter_state()[0], explicit.estimator.scatter_state()[0]
            )
        explicit.finalize(consume=True)
        want = explicit.predict_batch(tests)
    streamed.finalize(consume=True)
    apart = float(np.mean(streamed.predict_batch(tests) != want))
    return means, scatter, apart


def _check_flip_pairs(rng) -> OracleReport:
    """flip_pair_errors on every variant, one task and three, with and
    without a cut off the BLOCK_ROWS grid: the worst error as a fraction
    of its threshold (predictions apart count as a failure)."""
    from .classifier import VARIANTS

    data = flip_check_dataset(rng)
    seed = int(rng.integers(0, 2**31))
    worst = 0.0
    for variant in VARIANTS:
        for classes_per_task in (1, 3):
            for cut_every in (0, 38):
                means, scatter, apart = flip_pair_errors(
                    data, variant, 256, seed, classes_per_task, cut_every
                )
                worst = max(
                    worst, means / FLIP_MEANS_TOL, scatter / FLIP_SCATTER_TOL,
                    2.0 if apart else 0.0,
                )
    return OracleReport("flip_pairs_match_explicit_copies", worst, 1.0)


def run_verify(seed: int = 0) -> list[OracleReport]:
    """Run every oracle check; returns one report each.

    The checks run at small seeded sizes, far below the paper's E = 25000,
    so the whole suite takes seconds: the statistics, shrinkage and
    discriminant checks at E <= 31 on at most 400 samples, the low-rank
    finalize at E = 239 and 240 on 4 and 27 samples, the kernel check on
    10-dimensional inputs with 100 to 10000 frequencies, and the
    flip-pair check at E = 256 on 300-step streams of CIFAR-shaped images.
    """
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    checks = [
        _check_streaming_vs_batch,
        _check_rff_kernel,
        _check_oas,
        _check_finalize_upper,
        _check_lda_equivalence,
        _check_flip_pairs,
    ]
    reports = []
    for i, check in enumerate(checks):
        reports.append(check(np.random.default_rng(seed + i)))
    return reports
