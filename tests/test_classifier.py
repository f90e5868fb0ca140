"""Classifier variants: configuration rules, decision rules, variant
semantics, batch/single agreement, and checkpointing."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import assert_refused, gaussian_blobs, paired_halves
from randumb import classifier as classifier_module
from randumb import streaming as streaming_module
from randumb import (
    ConfigurationError,
    DataError,
    EmptyModelError,
    FeatureMap,
    FeatureMapSpec,
    ModelStateError,
    ModelVariant,
    NumericalError,
    PrecisionModel,
    RandomReluMap,
    ShapeError,
    StreamingClassifier,
    StreamingEstimator,
    VARIANTS,
    make_stream,
)
from randumb.harness import BLOCK_ROWS
from randumb.data_io import normalize_batch, read_checkpoint, write_checkpoint
from randumb.precision import pack_upper, packed_size
from randumb.reference import (
    FLIP_MEANS_TOL,
    batch_lda_predict,
    batch_mahalanobis_predict,
    batch_stats,
    flip_check_dataset,
    oas_reference,
)


# The class count of the models here: every test labels its samples below it.
CLASSES = 10


def fourier_config(variant="randumb", input_dim=6, num_bases=32, gamma=0.5,
                   seed=11, ridge=1e-4, num_classes=CLASSES, **kw):
    spec = FeatureMapSpec("fourier", input_dim, 2 * num_bases, seed, gamma=gamma)
    return ModelVariant(
        variant=variant, num_classes=num_classes, embedding=spec, ridge=ridge, **kw
    )


def relu_spec(input_dim, embed_dim, seed):
    return FeatureMapSpec("relu", input_dim, embed_dim, seed)


def raw_config(variant="slda", input_dim=6, ridge=1e-4, num_classes=CLASSES, **kw):
    return ModelVariant(
        variant=variant, num_classes=num_classes, input_dim=input_dim, ridge=ridge, **kw
    )


def fit(config, X, y, consume=False):
    model = StreamingClassifier(config)
    for x, label in zip(X, y):
        model.observe(x, int(label))
    model.finalize(consume=consume)
    return model


class TestModelVariantValidation:
    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError, match="unknown variant"):
            ModelVariant(variant="svm", num_classes=CLASSES, input_dim=4)

    @pytest.mark.parametrize("variant", ["randumb", "kernel_ncm"])
    def test_fourier_variants_need_fourier_spec(self, variant):
        with pytest.raises(ConfigurationError, match="'fourier' embedding"):
            ModelVariant(variant=variant, num_classes=CLASSES, input_dim=4)
        with pytest.raises(ConfigurationError, match="'fourier' embedding"):
            ModelVariant(variant=variant, num_classes=CLASSES, embedding=relu_spec(4, 8, 0))

    def test_rp_relu_needs_rp_spec(self):
        with pytest.raises(ConfigurationError, match="'relu' embedding"):
            ModelVariant(
                variant="rp_relu",
                num_classes=CLASSES,
                embedding=FeatureMapSpec("fourier", 4, 8, 0, gamma=1.0),
            )
        with pytest.raises(ConfigurationError, match="'relu' embedding"):
            ModelVariant(variant="rp_relu", num_classes=CLASSES, input_dim=4)

    @pytest.mark.parametrize("variant", ["slda", "ncm"])
    def test_raw_variants_forbid_embedding(self, variant):
        spec = FeatureMapSpec("fourier", 4, 8, 0, gamma=1.0)
        with pytest.raises(ConfigurationError, match="raw inputs"):
            ModelVariant(variant=variant, num_classes=CLASSES, embedding=spec, input_dim=4)
        with pytest.raises(ConfigurationError, match="input_dim"):
            ModelVariant(variant=variant, num_classes=CLASSES)

    def test_input_dim_must_match_embedding(self):
        spec = FeatureMapSpec("fourier", 4, 8, 0, gamma=1.0)
        with pytest.raises(ConfigurationError, match="contradicts"):
            ModelVariant(variant="randumb", num_classes=CLASSES, embedding=spec, input_dim=5)
        # Matching value is allowed.
        cfg = ModelVariant(variant="randumb", num_classes=CLASSES, embedding=spec, input_dim=4)
        assert cfg.raw_input_dim == 4
        assert cfg.embed_dim == 8

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")])
    def test_bad_ridge(self, ridge):
        with pytest.raises(ConfigurationError, match="ridge"):
            raw_config(ridge=ridge)

    @pytest.mark.parametrize("ridge", [np.float32(1e-3), True, "0.001", None])
    def test_ridge_outside_json_refused_by_name(self, ridge):
        """The config goes into the checkpoint meta as JSON, so a ridge
        json cannot write (a numpy float32, say) is refused when the config
        is built, not when the model is saved."""
        refusal = f"^ridge must be a Python int or float, got {re.escape(repr(ridge))}$"
        with pytest.raises(ConfigurationError, match=refusal):
            raw_config(ridge=ridge)

    def test_float64_and_int_settings_save_and_load(self, tmp_path):
        """numpy's float64 is a Python float, so it passes and the
        checkpoint meta holds it as a plain JSON number."""
        spec = FeatureMapSpec("fourier", 4, 8, 0, gamma=np.float64(0.5))
        for config in (
            ModelVariant("randumb", 2, spec, ridge=np.float64(1e-3)),
            ModelVariant("slda", 2, ridge=0, input_dim=4),
        ):
            model = StreamingClassifier(config)
            model.observe(np.eye(4), [0, 1, 0, 1])
            model.save(tmp_path / "model.rdck")
            assert StreamingClassifier.load(tmp_path / "model.rdck").config == config

    def test_needs_precision_flags(self):
        assert fourier_config("randumb").needs_precision
        assert raw_config("slda").needs_precision
        rp = ModelVariant(variant="rp_relu", num_classes=CLASSES, embedding=relu_spec(4, 8, 0))
        assert rp.needs_precision
        assert not fourier_config("kernel_ncm").needs_precision
        assert not raw_config("ncm").needs_precision


class TestRPSpec:
    """The relu head of the frozen random map (the rp_relu embedding)."""

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            relu_spec(input_dim=0, embed_dim=8, seed=0)
        with pytest.raises(ConfigurationError):
            relu_spec(input_dim=4, embed_dim=0, seed=0)
        with pytest.raises(ConfigurationError):
            relu_spec(input_dim=4, embed_dim=8, seed=-1)
        with pytest.raises(ConfigurationError, match="no gamma"):
            FeatureMapSpec("relu", 4, 8, 0, gamma=1.0)

    def test_embed_dim_is_output_dim(self):
        spec = relu_spec(input_dim=4, embed_dim=17, seed=0)
        assert spec.embed_dim == spec.num_bases == 17

    def test_relu_semantics(self):
        spec = relu_spec(input_dim=3, embed_dim=16, seed=5)
        fmap = RandomReluMap(spec)
        x = np.array([0.3, -1.2, 0.7], dtype=np.float64)
        raw = fmap.weights.astype(np.float64) @ x
        out = fmap.embed(x)
        assert out.shape == (16,)
        assert np.all(out >= 0)
        expected = np.maximum(x.astype(np.float32)[None, :] @ fmap.weights.T, 0.0)[0]
        np.testing.assert_array_equal(out, expected)
        # Every strictly negative pre-activation is clamped to exactly zero.
        assert np.all(out[raw < -1e-6] == 0)

    def test_deterministic_weights(self):
        spec = relu_spec(input_dim=5, embed_dim=9, seed=123)
        a = RandomReluMap(spec)
        b = RandomReluMap(spec)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.weights.dtype == np.float32
        assert a.weights.shape == (9, 5)

    def test_weight_distribution_is_standard_normal(self):
        spec = relu_spec(input_dim=400, embed_dim=500, seed=9)
        w = RandomReluMap(spec).weights.astype(np.float64)
        assert abs(w.mean()) < 0.01
        assert abs(w.var() - 1.0) < 0.02

    def test_embed_batch_matches_single(self):
        # Single-precision matmul reassociates across batch shapes, so the
        # agreement is to float32 roundoff, not bitwise.
        spec = relu_spec(input_dim=6, embed_dim=12, seed=3)
        fmap = RandomReluMap(spec)
        X = np.random.default_rng(0).standard_normal((40, 6)).astype(np.float32)
        batch = fmap.embed_batch(X)
        for i in range(40):
            np.testing.assert_allclose(
                batch[i], fmap.embed(X[i]), rtol=1e-4, atol=1e-6
            )


def precision_of(model):
    """A factor of the model's shrunk + ridged covariance, built apart
    from finalize from the estimator's full covariance (so before any
    consuming finalize)."""
    est = model.estimator
    shrunk = oas_reference(est.covariance(), est.total_count)[2]
    return PrecisionModel(pack_upper(shrunk), model.config.ridge)


def seen_means(model):
    """(labels, means): the classes seen so far, in increasing order, and
    their mean rows."""
    counts, means = model.estimator.class_rows()
    labels = np.flatnonzero(counts)
    return labels, means[labels]


def squared_distances(precision, phi, means):
    """(n, C) squared distances (phi_k - mean_j)^T A^{-1} (phi_k - mean_j),
    each through one solve against the model's factor."""
    out = np.empty((len(phi), len(means)))
    for j, mean in enumerate(means):
        delta = phi - mean
        out[:, j] = np.einsum("ne,en->n", delta, precision.solve(delta.T))
    return out


class TestDecisionRule:
    def test_training_point_at_class_mean_wins(self):
        # One-point classes: each training point IS its class mean, so its
        # Mahalanobis distance to its own class is exactly zero.
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 6))
        model = StreamingClassifier(raw_config(input_dim=6, ridge=1e-3))
        for i, x in enumerate(X):
            model.observe(x, i)
        model.finalize()
        dist = squared_distances(precision_of(model), X, seen_means(model)[1])
        np.testing.assert_array_equal(np.diagonal(dist), 0.0)
        np.testing.assert_array_equal(model.predict_batch(X), np.arange(4))

    def test_tie_breaks_to_smallest_label_minimizing(self):
        # Classes 4 and 9 share a mean, so every point scores them
        # equally; the tie must resolve to label 4 everywhere.
        model = StreamingClassifier(raw_config(input_dim=3, ridge=1e-2))
        shared = np.array([1.0, 2.0, 3.0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            jitter = rng.standard_normal(3) * 0.01
            model.observe(shared + jitter, 4)
            model.observe(shared + jitter, 9)
        model.observe(np.array([-5.0, -5.0, -5.0]), 7)
        model.observe(np.array([-5.1, -4.9, -5.0]), 7)
        model.finalize()
        means = model.estimator.class_rows()[1]
        np.testing.assert_array_equal(means[4], means[9])
        assert model.predict_batch(shared[None, :])[0] == 4
        picks = model.predict_batch(shared + 3.0 * rng.standard_normal((200, 3)))
        assert 4 in picks and 9 not in picks

    def test_tie_breaks_to_smallest_label_maximizing(self):
        model = StreamingClassifier(
            ModelVariant(variant="ncm", num_classes=CLASSES, input_dim=3)
        )
        shared = np.array([1.0, 0.0, 2.0])
        model.observe(shared, 6)
        model.observe(shared, 2)
        model.observe(np.array([-3.0, 1.0, 0.0]), 8)
        model.finalize()
        assert model.predict_batch(shared[None, :])[0] == 2
        rng = np.random.default_rng(1)
        picks = model.predict_batch(shared + 3.0 * rng.standard_normal((200, 3)))
        assert 2 in picks and 6 not in picks

    def test_scores_and_predict_agree(self):
        """predict_batch picks the extremal per-class score computed
        directly: the smallest squared Mahalanobis distance for the
        covariance variants, the largest inner product otherwise."""
        rng = np.random.default_rng(7)
        X, y = gaussian_blobs(rng, num_classes=4, dim=5, per_class=50)
        T = rng.standard_normal((50, 5))
        for config in (
            fourier_config(input_dim=5, ridge=1e-4),
            fourier_config("kernel_ncm", input_dim=5, ridge=0.0),
            raw_config("slda", input_dim=5),
            raw_config("ncm", input_dim=5, ridge=0.0),
        ):
            model = fit(config, X, y)
            phi = T if model.feature_map is None else model.feature_map.embed_batch(T)
            phi = phi.astype(np.float64)
            labels, means = seen_means(model)
            if config.needs_precision:
                pick = np.argmin(squared_distances(precision_of(model), phi, means), axis=1)
            else:
                pick = np.argmax(phi @ means.T, axis=1)
            np.testing.assert_array_equal(model.predict_batch(T), labels[pick])

    def test_ncm_scores_are_plain_inner_products(self):
        rng = np.random.default_rng(4)
        X, y = gaussian_blobs(rng, num_classes=3, dim=4, per_class=30)
        model = fit(raw_config("ncm", input_dim=4, ridge=0.0), X, y)
        # Test points at every scale, so a score that is not the plain
        # inner product (a norm term, a bias) changes some label.
        T = rng.standard_normal((1000, 4)) * rng.uniform(0.01, 3.0, size=(1000, 1))
        labels, means = seen_means(model)
        scores = T @ means.T
        np.testing.assert_array_equal(
            model.predict_batch(T), labels[np.argmax(scores, axis=1)]
        )

    def test_kernel_ncm_scores_are_embedded_inner_products(self):
        rng = np.random.default_rng(5)
        X, y = gaussian_blobs(rng, num_classes=3, dim=4, per_class=30)
        config = fourier_config("kernel_ncm", input_dim=4, ridge=0.0)
        model = fit(config, X, y)
        fmap = FeatureMap(config.embedding)
        T = rng.standard_normal((1000, 4)) * rng.uniform(0.01, 3.0, size=(1000, 1))
        phi = fmap.embed_batch(T).astype(np.float64)
        labels, means = seen_means(model)
        scores = phi @ means.T
        np.testing.assert_array_equal(
            model.predict_batch(T), labels[np.argmax(scores, axis=1)]
        )


def variant_config(variant):
    """A model of ``variant`` on 6-dimensional inputs."""
    if variant in ("randumb", "kernel_ncm"):
        return fourier_config(variant, input_dim=6)
    if variant == "rp_relu":
        return ModelVariant(
            variant="rp_relu",
            num_classes=CLASSES,
            embedding=relu_spec(6, 24, 2),
            ridge=1e-4,
        )
    return raw_config(variant, input_dim=6)


class TestBatchAgreement:
    @pytest.mark.parametrize("variant", ["randumb", "kernel_ncm", "slda", "ncm", "rp_relu"])
    def test_predict_batch_matches_single(self, variant):
        rng = np.random.default_rng(13)
        X, y = gaussian_blobs(rng, num_classes=5, dim=6, per_class=40)
        model = fit(variant_config(variant), X, y)
        # More rows than one scoring block, so the batch crosses a cut.
        T = rng.standard_normal((BLOCK_ROWS + 73, 6)).astype(np.float32)
        batch = model.predict_batch(T)
        singles = np.concatenate([model.predict_batch(t[None, :]) for t in T])
        np.testing.assert_array_equal(batch, singles)

    @pytest.mark.parametrize(
        "variant,spec",
        [
            ("kernel_ncm", FeatureMapSpec("fourier", 784, 6144, 5, gamma=2e-3)),
            ("rp_relu", relu_spec(512, 4096, 5)),
        ],
        ids=["kernel_ncm-784x6144", "rp_relu-512x4096"],
    )
    def test_one_row_scores_as_inside_a_block_at_real_sizes(self, variant, spec):
        """A row scored alone gets the label it gets inside a full block,
        through both scoring products (means and discriminant weights)."""
        rng = np.random.default_rng(17)
        X, y = gaussian_blobs(rng, num_classes=10, dim=spec.input_dim, per_class=30)
        model = StreamingClassifier(
            ModelVariant(variant, num_classes=CLASSES, embedding=spec, ridge=1e-4)
        )
        for start in range(0, len(y), BLOCK_ROWS):
            model.observe(X[start : start + BLOCK_ROWS], y[start : start + BLOCK_ROWS])
        model.finalize(consume=True)
        T = X[:BLOCK_ROWS] + rng.standard_normal((BLOCK_ROWS, spec.input_dim)).astype(np.float32)
        batch = model.predict_batch(T)
        singles = np.concatenate([model.predict_batch(t[None, :]) for t in T])
        np.testing.assert_array_equal(batch, singles)

    @pytest.mark.parametrize("variant", ["randumb", "kernel_ncm", "slda", "ncm", "rp_relu"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_gets_no_label(self, variant, bad):
        """A row with a NaN or infinite entry is refused by its index in
        the block, as observe refuses it, rather than scored."""
        rng = np.random.default_rng(14)
        X, y = gaussian_blobs(rng, num_classes=5, dim=6, per_class=40)
        model = fit(variant_config(variant), X, y)
        T = rng.standard_normal((8, 6)).astype(np.float32)
        T[5, 2] = bad
        with pytest.raises(DataError, match="row 5") as info:
            model.predict_batch(T)
        assert info.value.row == 5

    @pytest.mark.parametrize("variant", ["randumb", "kernel_ncm", "rp_relu"])
    def test_row_past_float32_range_gets_no_label(self, variant):
        """A row that is finite in float64 but past float32's range (1e39)
        has no float32 embedding: predict_batch refuses it by its index
        in the block, as observe does, rather than label it class 0, and
        lets no RuntimeWarning out."""
        rng = np.random.default_rng(15)
        X, y = gaussian_blobs(rng, num_classes=5, dim=6, per_class=40)
        model = fit(variant_config(variant), X, y)
        T = rng.standard_normal((8, 6))
        T[5, 2] = 1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="row 5") as info:
                model.predict_batch(T)
        assert info.value.row == 5

    def test_row_past_float32_range_is_named_in_a_later_slice(self):
        """The refused row is named by its index in the block, not in the
        float64 slice that found it."""
        rng = np.random.default_rng(16)
        spec = relu_spec(6, 8192, 4)
        model = StreamingClassifier(ModelVariant("rp_relu", CLASSES, spec, ridge=1e-4), 10)
        model.observe(rng.standard_normal((20, 6)), np.arange(20) % CLASSES)
        model.finalize()
        step = classifier_module.SCORE_CHUNK // spec.embed_dim
        T = rng.standard_normal((2 * step + 5, 6))
        T[step + 3] = -1e39
        with pytest.raises(DataError) as info:
            model.predict_batch(T)
        assert info.value.row == step + 3

    def test_predict_batch_shape_check(self):
        rng = np.random.default_rng(1)
        X, y = gaussian_blobs(rng, num_classes=3, dim=4, per_class=20)
        model = fit(raw_config(input_dim=4), X, y)
        with pytest.raises(ShapeError):
            model.predict_batch(np.zeros((5, 7)))
        with pytest.raises(ShapeError):
            model.predict_batch(np.zeros(4))

    def test_linear_form_equals_quadratic_argmin(self):
        # The batch path ranks with w_i . phi + b_i; verify against the
        # oracle's explicit quadratic argmin on the same shrunk-and-ridged
        # matrix.
        rng = np.random.default_rng(21)
        X, y = gaussian_blobs(rng, num_classes=6, dim=8, per_class=80)
        model = fit(raw_config(input_dim=8, ridge=1e-3), X, y)
        T = rng.standard_normal((1000, 8))
        stats = batch_stats(X, y)
        _, _, shrunk = oas_reference(stats.covariance, len(y))
        quad = batch_mahalanobis_predict(stats.means, shrunk, 1e-3, T)
        np.testing.assert_array_equal(model.predict_batch(T), quad)


class TestSlicedScoring:
    """predict_batch projects a block once and scores it a float64 slice
    of SCORE_CHUNK entries at a time; its labels are those of the float64
    reference that scores the whole block's embedding at once (on
    kernel_ncm with flips, the symmetric half (phi_1 + phi_2)/sqrt(2) of
    that embedding, against the C x E/2 means)."""

    E = 4096  # 64 rows per slice

    def model(self, variant, flips):
        head = VARIANTS[variant][0]
        if head is None:
            spec, d, width = None, self.E, 64
        else:
            d, width = 3 * 8 * 8, 8
            spec = FeatureMapSpec(
                head, d, self.E, 7, gamma=0.01 if head == "fourier" else None,
                mirror_width=width if flips else None,
            )
        config = ModelVariant(variant, CLASSES, spec, ridge=1e-3, input_dim=None if spec else d)
        rng = np.random.default_rng(31)
        X, y = gaussian_blobs(rng, num_classes=CLASSES, dim=d, per_class=4)
        rows = 2 * len(y) if flips else len(y)
        model = StreamingClassifier(config, rows - CLASSES)
        if flips:
            model.observe(X, np.repeat(y, 2), mirror_width=width)
        else:
            model.observe(X, y)
        model.finalize()
        return model, X

    @pytest.mark.parametrize("flips", [False, True], ids=["plain", "flips"])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_labels_match_the_float64_reference(self, variant, flips):
        model, X = self.model(variant, flips)
        symmetric = model.config.symmetric_half
        assert symmetric == (variant == "kernel_ncm" and flips)
        step = classifier_module.SCORE_CHUNK // (self.E // 2 if symmetric else self.E)
        assert step + 1 < BLOCK_ROWS
        rng = np.random.default_rng(32)
        for n in (0, 1, step + 1, BLOCK_ROWS):
            T = X[np.arange(n) % len(X)] + rng.standard_normal((n, X.shape[1])).astype(np.float32)
            fmap = model.feature_map
            phi = (fmap.embed_batch(T) if fmap else T).astype(np.float64)
            if symmetric:
                phi = (phi[:, : self.E // 2] + phi[:, self.E // 2 :]) / np.sqrt(2.0)
            scores = phi @ model._weights + model._bias
            want = np.argmax(scores, axis=1)
            got = model.predict_batch(T)
            assert got.shape == (n,)
            top = np.sort(scores, axis=1)[:, -2:]
            clear = top[:, 1] - top[:, 0] > 1e-9 * np.abs(top).max(axis=1)
            assert n < 2 or clear.mean() > 0.9
            np.testing.assert_array_equal(got[clear], want[clear])


class TestMirroredIntake:
    """observe(x, labels, mirror_width) folds in each original followed by
    its mirror: [phi, Q phi] (the halves swapped) on a paired map, and
    [x, P x] (the pixels mirrored) on raw inputs.  kernel_ncm on a paired
    map holds the symmetric half of those rows: its counts are the
    explicit rows' and its means the symmetric half of their means."""

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_each_original_then_its_mirror(self, variant):
        rng = np.random.default_rng(66)
        head = VARIANTS[variant][0]
        spec = None if head is None else FeatureMapSpec(
            head, 48, 64, 5, gamma=0.05 if head == "fourier" else None, mirror_width=4
        )
        config = ModelVariant(variant, 3, spec, ridge=1e-3, input_dim=None if spec else 48)
        X = rng.standard_normal((20, 48)).astype(np.float32)
        labels = np.repeat(rng.integers(0, 3, 20), 2)
        paired = StreamingClassifier(config)
        paired.observe(X, labels, mirror_width=4)
        if spec is None:
            phi, mirror = X, X.reshape(20, -1, 4)[..., ::-1].reshape(20, -1)
        else:
            phi = paired.feature_map.embed_batch(X)
            mirror = np.concatenate([phi[:, 32:], phi[:, :32]], axis=1)
        explicit = StreamingEstimator(phi.shape[1], 3, config.needs_precision)
        explicit.observe(np.stack([phi, mirror], axis=1).reshape(40, -1), labels)
        got, want = paired.estimator._arrays(), explicit._arrays()
        assert list(got) == list(want)
        if variant == "kernel_ncm":
            assert paired.config.symmetric_half
            np.testing.assert_array_equal(got["class_counts"], want["class_counts"])
            means = want["class_means"]
            half = (means[:, :32] + means[:, 32:]) / np.sqrt(2.0)
            assert np.abs(got["class_means"] - half).max() <= FLIP_MEANS_TOL * np.abs(half).max()
            return
        for name in got:
            np.testing.assert_array_equal(got[name], want[name])

    @pytest.mark.parametrize("mirror_width", [None, 4])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_an_empty_block_is_a_no_op(self, variant, mirror_width):
        """A block of no rows and no labels leaves the statistics as they
        were, with or without mirrors, on every variant."""
        head = VARIANTS[variant][0]
        spec = None if head is None else FeatureMapSpec(
            head, 48, 64, 5, gamma=0.05 if head == "fourier" else None, mirror_width=4
        )
        config = ModelVariant(variant, 3, spec, ridge=1e-3, input_dim=None if spec else 48)
        model = StreamingClassifier(config)
        model.observe(np.ones((1, 48), np.float32), [1, 1], mirror_width=4)
        before = {name: a.copy() for name, a in model.estimator._arrays().items()}
        model.observe(np.zeros((0, 48), np.float32), [], mirror_width=mirror_width)
        assert model.estimator.total_count == 2
        for name, array in model.estimator._arrays().items():
            np.testing.assert_array_equal(array, before[name])

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_a_mirror_under_another_label_is_refused(self, variant):
        """An image and its mirror share one label: a pair whose mirror
        carries another is refused, naming the mirror's row, before any
        state changes, on a paired map (where kernel_ncm could not even
        hold it: its pair is one row of the symmetric half) and on raw
        inputs alike."""
        head = VARIANTS[variant][0]
        spec = None if head is None else FeatureMapSpec(
            head, 48, 64, 5, gamma=0.05 if head == "fourier" else None, mirror_width=4
        )
        config = ModelVariant(variant, 3, spec, ridge=1e-3, input_dim=None if spec else 48)
        model = StreamingClassifier(config)
        X = np.random.default_rng(67).standard_normal((3, 48)).astype(np.float32)
        model.observe(X, [0, 0, 2, 2, 1, 1], mirror_width=4)
        before = {name: a.copy() for name, a in model.estimator._arrays().items()}
        for labels, row in (([0, 1, 1, 1, 2, 2], 1), ([0, 0, 1, 1, 2, 0], 5)):
            with pytest.raises(DataError, match=rf"^row {row} mirrors row {row - 1} ") as info:
                model.observe(X, labels, mirror_width=4)
            assert info.value.row == row
        with pytest.raises(ShapeError, match="3 flip pairs needs 6 labels, one per row, got 3"):
            model.observe(X, [0, 1, 2], mirror_width=4)
        for name, array in model.estimator._arrays().items():
            np.testing.assert_array_equal(array, before[name])

    def test_symmetric_half_takes_flip_pairs_only(self):
        """kernel_ncm on a paired map holds one row of the symmetric half
        per flip pair, so a non-empty block without the map's width is
        refused and leaves the statistics as they were."""
        spec = FeatureMapSpec("fourier", 48, 64, 5, gamma=0.05, mirror_width=4)
        model = StreamingClassifier(ModelVariant("kernel_ncm", 3, spec))
        assert model.estimator.class_rows()[1].shape == (3, 32)
        with pytest.raises(ConfigurationError, match="observes flip pairs only"):
            model.observe(np.ones((2, 48), np.float32), [0, 1])
        assert model.estimator.total_count == 0

    def test_map_paired_at_another_width_refused(self):
        for width in (4, None):
            spec = FeatureMapSpec("fourier", 48, 64, 5, gamma=0.05, mirror_width=width)
            model = StreamingClassifier(ModelVariant("kernel_ncm", 3, spec))
            with pytest.raises(ConfigurationError, match=rf"has mirror_width {width}$"):
                model.observe(np.zeros((2, 48), np.float32), [0, 0, 1, 1], mirror_width=8)
            assert model.estimator.total_count == 0

    @pytest.mark.parametrize("variant", ["slda", "ncm"])
    def test_raw_width_that_does_not_divide_the_input_refused(self, variant):
        """On raw inputs the pixels themselves are mirrored, so the width
        must divide the input size; the refusal names both, and the
        statistics are left as they were."""
        model = StreamingClassifier(ModelVariant(variant, 3, input_dim=48))
        model.observe(np.ones((1, 48), np.float32), [0, 0], mirror_width=4)
        before = {name: a.copy() for name, a in model.estimator._arrays().items()}
        refusal = "image width 5 need an input size the width divides; these rows hold 48"
        with pytest.raises(ConfigurationError, match=refusal):
            model.observe(np.zeros((2, 48), np.float32), [0, 0, 1, 1], mirror_width=5)
        for width in (0, 4.0):
            with pytest.raises(ConfigurationError, match="^mirror_width must be"):
                model.observe(np.zeros((2, 48), np.float32), [0, 0, 1, 1], mirror_width=width)
        for name, array in model.estimator._arrays().items():
            np.testing.assert_array_equal(array, before[name])


class TestScaleInvariance:
    def test_argmin_survives_scaling_the_regularized_covariance(self):
        # Scaling (shrunk + ridge I) by any c > 0 scales every Mahalanobis
        # score by 1/c and so cannot change the ranking.
        rng = np.random.default_rng(31)
        X, y = gaussian_blobs(rng, num_classes=5, dim=6, per_class=100)
        model = fit(raw_config(input_dim=6, ridge=1e-3), X, y)
        shrunk = oas_reference(
            np.cov(np.concatenate([X[y == c] - X[y == c].mean(axis=0) for c in range(5)]).T,
                   bias=False),
            len(X),
        )[2]
        base = PrecisionModel(pack_upper(shrunk), ridge=1e-3)
        scaled = PrecisionModel(pack_upper(3.7 * (shrunk + 1e-3 * np.eye(6))), ridge=0.0)
        means = seen_means(model)[1]
        T = rng.standard_normal((1000, 6))
        d_base = squared_distances(base, T, means)
        d_scaled = squared_distances(scaled, T, means)
        np.testing.assert_array_equal(
            np.argmin(d_base, axis=1), np.argmin(d_scaled, axis=1)
        )
        np.testing.assert_allclose(d_scaled * 3.7, d_base, rtol=1e-9, atol=1e-12)


class TestLdaEquivalence:
    def test_slda_matches_batch_lda_oracle(self):
        rng = np.random.default_rng(41)
        X, y = gaussian_blobs(rng, num_classes=5, dim=7, per_class=120)
        model = fit(raw_config("slda", input_dim=7, ridge=1e-4), X, y)
        # Batch oracle on the same shrunk + ridged matrix.
        means = {c: X[y == c].mean(axis=0) for c in range(5)}
        centered = np.concatenate([X[y == c] - means[c] for c in range(5)])
        S = (centered.T @ centered) / (len(X) - 1)
        shrunk = oas_reference(S, len(X))[2]
        T = rng.standard_normal((1000, 7))
        oracle = batch_lda_predict(means, shrunk, 1e-4, T)
        mine = model.predict_batch(T)
        assert (mine == oracle).mean() == 1.0


class TestLifecycle:
    def test_finalize_empty_model(self):
        model = StreamingClassifier(raw_config(input_dim=4))
        with pytest.raises(EmptyModelError):
            model.finalize()

    def test_predict_before_observe(self):
        model = StreamingClassifier(raw_config(input_dim=4))
        with pytest.raises(EmptyModelError):
            model.predict_batch(np.zeros((1, 4)))

    def test_predict_before_finalize(self):
        model = StreamingClassifier(raw_config(input_dim=4))
        model.observe(np.ones(4), 0)
        model.observe(np.zeros(4), 1)
        with pytest.raises(ModelStateError, match="finalize"):
            model.predict_batch(np.zeros((1, 4)))

    def test_observe_after_consuming_finalize(self):
        rng = np.random.default_rng(3)
        X, y = gaussian_blobs(rng, num_classes=3, dim=4, per_class=10)
        model = fit(raw_config(input_dim=4), X, y, consume=True)
        with pytest.raises(ModelStateError):
            model.observe(np.zeros(4), 0)

    def test_observe_resumes_after_nonconsuming_finalize(self):
        rng = np.random.default_rng(3)
        X, y = gaussian_blobs(rng, num_classes=3, dim=4, per_class=30)
        model = fit(raw_config(input_dim=4), X, y, consume=False)
        first = model.predict_batch(X[:20])
        for x, label in zip(*gaussian_blobs(rng, 3, 4, 10)):
            model.observe(x, int(label))
        model.finalize()
        second = model.predict_batch(X[:20])
        assert first.shape == second.shape

    def test_consuming_and_copying_finalize_agree(self):
        rng = np.random.default_rng(8)
        X, y = gaussian_blobs(rng, num_classes=4, dim=5, per_class=50)
        T = rng.standard_normal((100, 5))
        a = fit(raw_config(input_dim=5), X, y, consume=False)
        b = fit(raw_config(input_dim=5), X, y, consume=True)
        np.testing.assert_array_equal(a.predict_batch(T), b.predict_batch(T))
        assert a.shrinkage_rho == b.shrinkage_rho

    def test_shrinkage_stats_recorded(self):
        rng = np.random.default_rng(9)
        X, y = gaussian_blobs(rng, num_classes=3, dim=4, per_class=40)
        model = fit(raw_config(input_dim=4), X, y)
        assert 0.0 <= model.shrinkage_rho <= 1.0
        assert model.shrinkage_mu > 0
        mean_only = fit(raw_config("ncm", input_dim=4, ridge=0.0), X, y)
        assert mean_only.shrinkage_rho is None


class TestUpperTriangleFinalize:
    """Finalize shrinks and factors the accumulator's packed upper
    triangle in place.  For a consuming and a copying finalize, before
    and after a save/load round trip and at an even and an odd order (the
    two RFP layouts), rho, mu, log det and predictions match the oracle
    on the full covariance."""

    @pytest.mark.parametrize("restored", [False, True], ids=["live", "restored"])
    @pytest.mark.parametrize("e", [9, 8], ids=["odd", "even"])
    @pytest.mark.parametrize("consume", [True, False])
    def test_matches_oracle_upper_only_and_mirrored(self, tmp_path, consume, e, restored):
        rng = np.random.default_rng(12)
        X_all, y = gaussian_blobs(rng, num_classes=4, dim=9, per_class=40)
        T_all = rng.standard_normal((300, 9)) * 2.0
        X, T = X_all[:, :e], T_all[:, :e]
        config = raw_config(input_dim=e, ridge=1e-3)
        model = StreamingClassifier(config)
        model.observe(X[:150], y[:150])
        model.observe(X[150:], y[150:])
        cov = model.estimator.covariance()
        if restored:
            model.save(tmp_path / "model.rdck")
            model = StreamingClassifier.load(tmp_path / "model.rdck")
        assert model.estimator._scatter.shape == (e * (e + 1) // 2,)
        model.finalize(consume=consume)

        rho, mu, shrunk = oas_reference(cov, len(y))
        _, log_det = np.linalg.slogdet(shrunk + 1e-3 * np.eye(e))
        assert abs(model.shrinkage_rho - rho) < 1e-10
        assert abs(model.shrinkage_mu - mu) < 1e-10 * abs(mu)
        assert abs(model.log_det - log_det) < 1e-10 * abs(log_det)
        means = dict(zip(*seen_means(model)))
        oracle = batch_lda_predict(means, shrunk, 1e-3, T)
        np.testing.assert_array_equal(model.predict_batch(T), oracle)

    def test_nonconsuming_finalize_leaves_the_accumulator_untouched(self):
        rng = np.random.default_rng(13)
        X, y = gaussian_blobs(rng, num_classes=3, dim=5, per_class=30)
        model = StreamingClassifier(raw_config(input_dim=5))
        model.observe(X, y)
        buffer = model.estimator._scatter
        before = buffer.copy()
        model.finalize(consume=False)
        first = model.log_det
        assert model.estimator._scatter is buffer
        np.testing.assert_array_equal(buffer, before)
        # a factor taken in place would make the next snapshot factor it again
        model.finalize(consume=False)
        assert model.log_det == first

    def test_repeated_snapshots_hold_one_factor(self):
        """A non-consuming finalize frees the previous snapshot's factor
        before copying the accumulator, so snapshot after snapshot holds
        one packed copy (4*E*(E+1) bytes) beside the accumulator, not two."""
        e = 1024
        rng = np.random.default_rng(15)
        model = StreamingClassifier(raw_config(input_dim=e))
        model.observe(rng.standard_normal((300, e)), np.arange(300) % 4)
        tracemalloc.start()
        try:
            model.finalize(consume=False)
            model.finalize(consume=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 4 * e * (e + 1)

    def test_consuming_finalize_keeps_no_quadratic_array(self):
        """After a consuming finalize the model is the C discriminant
        columns and biases: neither the accumulator nor its factor
        outlives finalize, so evaluation runs without 4*E*(E+1) bytes."""
        e = 1024
        rng = np.random.default_rng(16)
        model = StreamingClassifier(raw_config(input_dim=e))
        model.observe(rng.standard_normal((300, e)), np.arange(300) % 4)
        model.finalize(consume=True)

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, dict):
                for value in obj.values():
                    yield from arrays(value)
            elif type(obj).__module__.startswith("randumb."):
                for value in vars(obj).values():
                    yield from arrays(value)

        held = list(arrays(model))
        assert held and max(a.size for a in held) < packed_size(e)

    def test_failed_finalize_leaves_the_model_unfinalized(self):
        rng = np.random.default_rng(14)
        X, y = gaussian_blobs(rng, num_classes=2, dim=3, per_class=10)
        model = StreamingClassifier(raw_config(input_dim=3))
        model.observe(X, y)
        model.finalize()
        # a finite sample whose outer product overflows the accumulator
        model.observe(np.full((1, 3), 1e200), [0])
        with pytest.raises(NumericalError, match="not finite"):
            model.finalize()
        assert not model.finalized
        assert model.shrinkage_rho is model.shrinkage_mu is model.log_det is None
        with pytest.raises(ModelStateError, match="finalize"):
            model.predict_batch(np.zeros((1, 3)))


class TestLowRankFinalize:
    """Few-shot finalize: n samples of k classes give a scatter of rank at
    most n - k.  A model built with that bound holds the scatter as a
    factor where ``low_rank_fits`` says so, and finalize factors A as a
    scaled identity plus the factor's term.  rho, mu, log det, the
    weights and the predictions match the oracle on the full covariance
    (``oas_reference``, a dense solve, ``slogdet``, ``batch_lda_predict``)
    to the 1e-10 of the verify check."""

    RIDGE = 1e-3

    @staticmethod
    def few_shot(rng, e, k, per_class, copies=1):
        """k classes of ``per_class`` distinct rows, each row ``copies``
        times, in shuffled order, and 50 test rows."""
        centers = rng.standard_normal((k, e)) * 2.0
        y = np.repeat(np.arange(k), per_class)
        X = np.repeat(centers[y] + rng.standard_normal((len(y), e)), copies, axis=0)
        y = np.repeat(y, copies)
        order = rng.permutation(len(y))
        return X[order], y[order], rng.standard_normal((50, e)) * 2.0

    @staticmethod
    def fit_bounded(config, X, y, consume=False):
        """A model built with the stream's rank bound n - k, fed in one
        block and finalized."""
        model = StreamingClassifier(config, len(y) - len(np.unique(y)))
        model.observe(X, y)
        model.finalize(consume=consume)
        return model

    def assert_matches_oracle(self, model, X, y, T):
        e = X.shape[1]
        stats = batch_stats(X, y)
        rho, mu, shrunk = oas_reference(stats.covariance, len(y))
        A = shrunk + self.RIDGE * np.eye(e)
        labels, means = seen_means(model)
        W = np.linalg.solve(A, means.T)
        assert abs(model.shrinkage_rho - rho) < 1e-10
        assert abs(model.shrinkage_mu - mu) < 1e-10 * abs(mu)
        assert abs(model.log_det - np.linalg.slogdet(A)[1]) < 1e-10 * abs(model.log_det)
        assert np.abs(model._weights[:, labels] - W).max() < 1e-10 * np.abs(W).max()
        oracle = batch_lda_predict(dict(zip(labels, means)), shrunk, self.RIDGE, T)
        np.testing.assert_array_equal(model.predict_batch(T), oracle)

    @pytest.mark.parametrize("handoff", ["consume", "copy", "restored"])
    @pytest.mark.parametrize("e", [480, 479], ids=["even", "odd"])
    def test_matches_oracle(self, tmp_path, e, handoff):
        rng = np.random.default_rng(70)
        X, y, T = self.few_shot(rng, e, k=3, per_class=3)
        config = raw_config(input_dim=e, ridge=self.RIDGE, num_classes=3)
        model = StreamingClassifier(config, 9 - 3)
        model.observe(X[:4], y[:4])
        model.observe(X[4:], y[4:])
        if handoff == "restored":
            model.save(tmp_path / "model.rdck")
            model = StreamingClassifier.load(tmp_path / "model.rdck")
        assert model.estimator._scatter.shape == (e, 6 + 3)
        model.finalize(consume=handoff != "copy")
        assert model.factor_rank == 9 - 3
        self.assert_matches_oracle(model, X, y, T)

    @pytest.mark.parametrize("per_class", [3, 40], ids=["low-rank", "dense"])
    def test_either_side_of_the_rule_matches_oracle(self, per_class):
        """At E = 480 with 3 classes, 3 samples per class give the rank
        bound 6 (8 (6 + 2 C) <= E + 1), so the model holds a factor, and
        40 per class give 117 (not), so it holds the packed triangle."""
        rng = np.random.default_rng(71)
        X, y, T = self.few_shot(rng, 480, k=3, per_class=per_class)
        model = self.fit_bounded(raw_config(input_dim=480, ridge=self.RIDGE, num_classes=3), X, y)
        assert model.factor_rank == (6 if per_class == 3 else 480)
        self.assert_matches_oracle(model, X, y, T)

    def test_agrees_with_the_dense_factor_of_the_same_accumulator(self, monkeypatch):
        """Forced onto the packed form, the same stream factors densely:
        rho and mu agree with the factor form's to 1e-12 relative (each
        form reads its own pair of traces), and log det and weights within
        1e-10."""
        rng = np.random.default_rng(72)
        X, y, T = self.few_shot(rng, 481, k=3, per_class=3)
        config = raw_config(input_dim=481, ridge=self.RIDGE, num_classes=3)
        low = self.fit_bounded(config, X, y, consume=True)
        monkeypatch.setattr(streaming_module, "low_rank_fits", lambda *args: False)
        dense = self.fit_bounded(config, X, y, consume=True)
        assert (low.factor_rank, dense.factor_rank) == (6, 481)
        assert abs(low.shrinkage_rho - dense.shrinkage_rho) <= 1e-12 * dense.shrinkage_rho
        assert abs(low.shrinkage_mu - dense.shrinkage_mu) <= 1e-12 * dense.shrinkage_mu
        assert abs(low.log_det - dense.log_det) < 1e-10 * abs(dense.log_det)
        scale = np.abs(dense._weights).max()
        assert np.abs(low._weights - dense._weights).max() < 1e-10 * scale
        np.testing.assert_array_equal(low.predict_batch(T), dense.predict_batch(T))

    def test_duplicate_rows_stop_the_pivoting_early(self):
        """Two distinct rows per class, each twice: the bound n - k is 6
        but the scatter has rank 2, and the factor counts 2 columns above
        the threshold."""
        rng = np.random.default_rng(73)
        X, y, T = self.few_shot(rng, 400, k=2, per_class=2, copies=2)
        model = self.fit_bounded(raw_config(input_dim=400, ridge=self.RIDGE, num_classes=2), X, y)
        assert model.factor_rank == 2
        self.assert_matches_oracle(model, X, y, T)

    def test_small_directions_are_kept(self):
        """Within-class deviations scaled over four orders of magnitude:
        every one of the n - k directions is far above the threshold, so
        all count and the oracle still holds."""
        rng = np.random.default_rng(77)
        X, y, T = self.few_shot(rng, 480, k=3, per_class=3)
        means = np.stack([X[y == c].mean(axis=0) for c in range(3)])
        X = means[y] + (X - means[y]) * np.logspace(0, -4, len(y))[:, None]
        model = self.fit_bounded(raw_config(input_dim=480, ridge=self.RIDGE, num_classes=3), X, y)
        assert model.factor_rank == 6
        self.assert_matches_oracle(model, X, y, T)

    def test_zero_scatter_without_ridge_is_refused_on_both_paths(self, monkeypatch):
        """One distinct row per class: the scatter is exactly 0, so rho = 1,
        mu = 0 and with ridge 0 the scaled identity alpha is 0."""
        rng = np.random.default_rng(74)
        X, y, _ = self.few_shot(rng, 240, k=2, per_class=1, copies=2)
        config = raw_config(input_dim=240, ridge=0.0, num_classes=2)
        for dense in (False, True):
            if dense:
                monkeypatch.setattr(streaming_module, "low_rank_fits", lambda *args: False)
            model = StreamingClassifier(config, 2)
            model.observe(X, y)
            assert model.estimator._scatter.ndim == (1 if dense else 2)
            with pytest.raises(NumericalError, match="not positive definite"):
                model.finalize()
            assert not model.finalized and model.factor_rank is None

    def test_overflowing_rows_refused_at_finalize(self):
        """Finite rows whose products overflow leave the factor without a
        number, and finalize refuses it as it refuses the packed form's
        overflow, leaving the model unfinalized."""
        config = raw_config(input_dim=240, ridge=self.RIDGE, num_classes=2)
        model = StreamingClassifier(config, 4)
        model.observe(np.eye(240)[:3], [0, 0, 1])
        model.observe(np.full((2, 240), 1e200), [1, 1])
        with pytest.raises(NumericalError, match="not finite"):
            model.finalize()
        assert not model.finalized and model.log_det is None

    def test_copying_finalize_reads_the_accumulator_in_place(self):
        """A non-consuming finalize on the factor form neither writes nor
        copies the factor: it stays bitwise as it was, the stream goes
        on, and the finalize allocates under 5% of the packed form's
        4 E (E + 1) bytes."""
        e = 1024
        rng = np.random.default_rng(75)
        X, y, _ = self.few_shot(rng, e, k=2, per_class=4)
        config = raw_config(input_dim=e, ridge=self.RIDGE, num_classes=2)
        model = StreamingClassifier(config, 10 - 2)
        model.observe(X, y)
        buffer = model.estimator._scatter
        before = buffer.copy()
        tracemalloc.start()
        try:
            model.finalize(consume=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.factor_rank == 6
        assert peak < 0.05 * 4 * e * (e + 1)
        assert model.estimator._scatter is buffer and buffer.flags.writeable
        np.testing.assert_array_equal(buffer, before)
        model.observe(X[:2] + rng.standard_normal((2, e)), y[:2])
        model.finalize(consume=False)
        assert model.factor_rank == 8

    def test_resume_through_a_checkpoint_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(76)
        X, y, T = self.few_shot(rng, 500, k=3, per_class=3)
        config = raw_config(input_dim=500, ridge=self.RIDGE, num_classes=3)
        whole = StreamingClassifier(config, 6)
        whole.observe(X[:5], y[:5])
        whole.observe(X[5:], y[5:])
        first = StreamingClassifier(config, 6)
        first.observe(X[:5], y[:5])
        first.save(tmp_path / "half.rdck")
        resumed = StreamingClassifier.load(tmp_path / "half.rdck")
        resumed.observe(X[5:], y[5:])
        np.testing.assert_array_equal(resumed.estimator._scatter, whole.estimator._scatter)
        for model in (whole, resumed):
            model.finalize(consume=True)
        assert whole.factor_rank == 6
        for name in ("shrinkage_rho", "shrinkage_mu", "log_det", "factor_rank"):
            assert getattr(resumed, name) == getattr(whole, name), name
        np.testing.assert_array_equal(resumed._weights, whole._weights)
        np.testing.assert_array_equal(resumed._bias, whole._bias)
        np.testing.assert_array_equal(resumed.predict_batch(T), whole.predict_batch(T))


class TestOrderInvariance:
    """Predictions depend on neither the arrival order of the stream, nor
    where it is cut into blocks, nor which label each class carries."""

    @staticmethod
    def feed(config, X, y, rng):
        model = StreamingClassifier(config)
        cuts = np.cumsum(rng.integers(1, 40, size=len(y)))
        bounds = [0, *cuts[cuts < len(y)].tolist(), len(y)]
        for start, stop in zip(bounds, bounds[1:]):
            model.observe(X[start:stop], y[start:stop])
        model.finalize()
        return model

    @staticmethod
    def discriminant(model, T):
        phi = T if model.feature_map is None else model.feature_map.embed_batch(T)
        phi = phi.astype(np.float64)
        means = seen_means(model)[1]
        if not model.config.needs_precision:
            return phi @ means.T
        weights = precision_of(model).solve(means.T)
        return phi @ weights - 0.5 * np.einsum("ec,ec->c", means.T, weights)

    @pytest.mark.parametrize("variant", ["randumb", "kernel_ncm", "slda", "ncm", "rp_relu"])
    def test_predictions_ignore_arrival_and_class_order(self, variant):
        rng = np.random.default_rng(71)
        for trial in range(20):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(2, 8))
            n = int(rng.integers(4 * k, 300))
            classes = rng.choice(100, size=k, replace=False)
            relabel = dict(zip(classes.tolist(), rng.permutation(classes).tolist()))
            centers = rng.standard_normal((k, d)) * 2.0
            which = rng.integers(0, k, size=n)
            X = (centers[which] + rng.standard_normal((n, d))).astype(np.float32)
            y = classes[which]
            order = rng.permutation(n)
            X2 = X[order]
            y2 = np.array([relabel[c] for c in y[order].tolist()])
            T = rng.standard_normal((400, d)) * 3.0
            if variant in ("randumb", "kernel_ncm"):
                config = fourier_config(
                    variant, input_dim=d, num_bases=8, gamma=0.3, seed=trial, ridge=1e-3,
                    num_classes=100,
                )
            elif variant == "rp_relu":
                config = ModelVariant(
                    variant, num_classes=100, embedding=relu_spec(d, 16, trial), ridge=1e-3
                )
            else:
                config = raw_config(variant, input_dim=d, ridge=1e-3, num_classes=100)
            first = self.feed(config, X, y, rng)
            second = self.feed(config, X2, y2, rng)
            scores = np.sort(self.discriminant(first, T), axis=1)
            gap = scores[:, -1] - scores[:, -2]
            clear = gap > 1e-9 * np.abs(scores).max(axis=1)
            assert clear.mean() >= 0.99, (trial, clear.mean())
            want = np.array([relabel[c] for c in first.predict_batch(T).tolist()])
            got = second.predict_batch(T)
            np.testing.assert_array_equal(got[clear], want[clear])


class TestEndToEnd:
    @pytest.mark.parametrize("variant", ["randumb", "kernel_ncm", "slda", "ncm", "rp_relu"])
    def test_separable_blobs_learned_above_chance(self, variant):
        # Train and test splits must share class centers, so both are drawn
        # from one generator here.
        rng = np.random.default_rng(57)
        centers = rng.standard_normal((4, 10)) * 4.0
        def draw(per_class):
            Xs = np.concatenate(
                [centers[i] + rng.standard_normal((per_class, 10)) for i in range(4)]
            )
            ys = np.repeat(np.arange(4), per_class)
            perm = rng.permutation(len(ys))
            return Xs[perm].astype(np.float32), ys[perm]
        X, y = draw(150)
        T, ty = draw(50)
        if variant in ("randumb", "kernel_ncm"):
            config = fourier_config(variant, input_dim=10, num_bases=128, gamma=0.05)
        elif variant == "rp_relu":
            config = ModelVariant(
                variant="rp_relu",
                num_classes=CLASSES,
                embedding=relu_spec(10, 256, 2),
                ridge=1e-4,
            )
        else:
            config = raw_config(variant, input_dim=10)
        model = fit(config, X, y)
        acc = (model.predict_batch(T) == ty).mean()
        assert acc > 0.9, f"{variant} accuracy {acc}"


class TestCheckpointing:
    @pytest.mark.parametrize("variant", ["randumb", "slda", "ncm", "rp_relu"])
    def test_roundtrip_identical_predictions(self, tmp_path, variant):
        rng = np.random.default_rng(61)
        X, y = gaussian_blobs(rng, num_classes=3, dim=5, per_class=40)
        if variant == "randumb":
            config = fourier_config(variant, input_dim=5)
        elif variant == "rp_relu":
            config = ModelVariant(
                variant="rp_relu",
                num_classes=CLASSES,
                embedding=relu_spec(5, 20, 4),
                ridge=1e-4,
            )
        else:
            config = raw_config(variant, input_dim=5, ridge=1e-4 if variant == "slda" else 0.0)
        model = StreamingClassifier(config)
        for x, label in zip(X, y):
            model.observe(x, int(label))
        path = tmp_path / "model.rdck"
        model.save(path)
        model.finalize()

        restored = StreamingClassifier.load(path)
        assert restored.config == config
        restored.finalize()
        T = rng.standard_normal((60, 5))
        np.testing.assert_array_equal(model.predict_batch(T), restored.predict_batch(T))

    @pytest.mark.parametrize("variant", ["randumb", "rp_relu", "kernel_ncm"])
    def test_flip_run_roundtrip_restores_the_paired_map(self, tmp_path, variant):
        """The checkpoint meta carries the map's mirror width: the
        restored model redraws the paired map (A and B, the folds of the
        iid draw at D/2 rows), takes the rest of the flip stream and
        predicts bit for bit as the model never saved (kernel_ncm on the
        symmetric half of its means)."""
        data = flip_check_dataset(np.random.default_rng(65))
        d = data.descriptor
        head = VARIANTS[variant][0]
        spec = FeatureMapSpec(
            head, d.input_dim, 128, 3,
            gamma=d.default_gamma if head == "fourier" else None, mirror_width=32,
        )
        config = ModelVariant(variant, d.num_classes, spec, ridge=1e-4)
        blocks = list(make_stream(data, augment=True, seed=1, cut_every=38))

        def feed(model, part):
            for block in part:
                model.observe(block.features, block.labels, block.mirror_width)

        direct = StreamingClassifier(config)
        feed(direct, blocks)
        first = StreamingClassifier(config)
        feed(first, blocks[:3])
        path = tmp_path / "flip.rdck"
        first.save(path)
        restored = StreamingClassifier.load(path)
        assert restored.config.embedding.mirror_width == 32
        folded = paired_halves(spec)
        for fmap in (first.feature_map, restored.feature_map):
            assert fmap.sum_weights.tobytes() == folded[0].tobytes()
            assert fmap.diff_weights.tobytes() == folded[1].tobytes()
            # half the bytes of the unpaired W
            assert 2 * (folded[0].nbytes + folded[1].nbytes) == 4 * spec.num_bases * d.input_dim
        feed(restored, blocks[3:])
        for got, want in zip(restored.estimator.class_rows(), direct.estimator.class_rows()):
            assert got.tobytes() == want.tobytes()
        tests = normalize_batch(data.test_x, d)
        for model in (direct, restored):
            model.finalize()
        np.testing.assert_array_equal(direct.predict_batch(tests), restored.predict_batch(tests))
        assert (restored.shrinkage_rho, restored.log_det) == (direct.shrinkage_rho, direct.log_det)

    def test_save_midstream_then_resume(self, tmp_path):
        rng = np.random.default_rng(62)
        X, y = gaussian_blobs(rng, num_classes=3, dim=4, per_class=50)
        half = len(X) // 2

        direct = StreamingClassifier(raw_config(input_dim=4))
        for x, label in zip(X, y):
            direct.observe(x, int(label))
        direct.finalize()

        first = StreamingClassifier(raw_config(input_dim=4))
        for x, label in zip(X[:half], y[:half]):
            first.observe(x, int(label))
        path = tmp_path / "half.rdck"
        first.save(path)
        resumed = StreamingClassifier.load(path)
        for x, label in zip(X[half:], y[half:]):
            resumed.observe(x, int(label))
        resumed.finalize()

        T = rng.standard_normal((80, 4))
        np.testing.assert_array_equal(direct.predict_batch(T), resumed.predict_batch(T))

    def test_load_holds_one_copy_of_the_accumulator(self, tmp_path):
        """load builds the classifier around the estimator read from the
        checkpoint, so no zero accumulator is allocated beside it."""
        e = 1024
        rng = np.random.default_rng(63)
        model = StreamingClassifier(raw_config(input_dim=e, ridge=1e-3))
        model.observe(rng.standard_normal((300, e)), np.arange(300) % 4)
        path = tmp_path / "big.rdck"
        model.save(path)
        payload = sum(a.nbytes for a in model._state()[1].values())
        tracemalloc.start()
        try:
            restored = StreamingClassifier.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * payload
        model.finalize()
        restored.finalize()
        T = rng.standard_normal((50, e))
        np.testing.assert_array_equal(model.predict_batch(T), restored.predict_batch(T))

    def test_wrong_kind_rejected(self, tmp_path):
        from randumb import DataError
        from randumb.data_io import write_checkpoint

        path = tmp_path / "other.rdck"
        write_checkpoint(path, {"kind": "estimator"}, {})
        with pytest.raises(DataError, match="classifier"):
            StreamingClassifier.load(path)

    @pytest.mark.parametrize("order", ["shuffled", "class_incremental"])
    @pytest.mark.parametrize("variant", ["randumb", "kernel_ncm", "slda", "ncm", "rp_relu"])
    def test_resume_at_any_block_boundary_is_bitwise(self, tmp_path, variant, order):
        """Saved at a random block boundary (the first and the last
        included), loaded and finished, a run holds every array of the
        uninterrupted run, and finalizes to the same rho, mu, log det and
        predictions, bit for bit.  In a class-incremental stream the
        classes after the boundary are new to the loaded model."""
        rng = np.random.default_rng([66, len(variant)])
        path = tmp_path / "resume.rdck"
        for trial in range(4):
            d, k, n = int(rng.integers(2, 8)), int(rng.integers(1, 6)), int(rng.integers(20, 200))
            if variant in ("randumb", "kernel_ncm"):
                config = fourier_config(variant, input_dim=d, num_bases=int(rng.integers(2, 16)),
                                        seed=trial)
            elif variant == "rp_relu":
                spec = relu_spec(d, int(rng.integers(1, 30)), trial)
                config = ModelVariant(variant, num_classes=CLASSES, embedding=spec, ridge=1e-4)
            else:
                config = raw_config(variant, input_dim=d)
            y = rng.integers(0, k, size=n)
            if order == "class_incremental":
                y = np.sort(y)
            X = rng.standard_normal((k, d))[y] * 2.0 + rng.standard_normal((n, d))
            cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(0, 12)), replace=False))
            bounds = [0, *cuts, n]
            stop = bounds[int(rng.integers(0, len(bounds)))]

            def feed(model, lo, hi):
                for start, end in zip(bounds, bounds[1:]):
                    if lo <= start and end <= hi:
                        model.observe(X[start:end], y[start:end])
                return model

            whole = feed(StreamingClassifier(config), 0, n)
            feed(StreamingClassifier(config), 0, stop).save(path)
            resumed = feed(StreamingClassifier.load(path), stop, n)
            meta, arrays = whole._state()
            assert resumed._state()[0] == meta and resumed.config == config
            assert resumed._state()[1].keys() == arrays.keys()
            for name, stored in arrays.items():
                assert resumed._state()[1][name].dtype == stored.dtype
                np.testing.assert_array_equal(resumed._state()[1][name], stored)

            T = rng.standard_normal((40, d)) * 2.0
            for model in (whole, resumed):
                model.finalize(consume=True)
            assert resumed.shrinkage_rho == whole.shrinkage_rho
            assert resumed.shrinkage_mu == whole.shrinkage_mu
            assert resumed.log_det == whole.log_det
            np.testing.assert_array_equal(resumed.predict_batch(T), whole.predict_batch(T))


class TestCheckpointMeta:
    """load refuses a checkpoint whose model config is incomplete,
    unknown, invalid, or at odds with the arrays stored beside it, naming
    the path and the field or array."""

    @staticmethod
    def tampered(tmp_path, config, edit):
        rng = np.random.default_rng(64)
        d = config.raw_input_dim
        model = StreamingClassifier(config)
        model.observe(rng.standard_normal((30, d)), np.arange(30) % 3)
        path = tmp_path / "model.rdck"
        model.save(path)
        meta, arrays = read_checkpoint(path)
        edit(meta)
        write_checkpoint(path, meta, arrays)
        return path

    @pytest.mark.parametrize(
        "field",
        [
            "variant", "num_classes", "ridge", "input_dim", "embedding", "model", "seed",
        ],
    )
    def test_missing_field_rejected(self, tmp_path, field):
        """Including 'model' itself: a checkpoint in the layout before the
        config was stored whole has none, and 'num_classes': one in the
        layout before the class rows were indexed by label has none."""
        def drop(meta):
            owner = {"model": meta, "seed": meta["model"]["embedding"]}
            owner.get(field, meta["model"]).pop(field)

        path = self.tampered(tmp_path, fourier_config(input_dim=5), drop)
        assert_refused(path, repr(field))

    @pytest.mark.parametrize("value", ["randumb", [["variant", "slda"]], None])
    def test_model_field_not_an_object_rejected(self, tmp_path, value):
        path = self.tampered(
            tmp_path, fourier_config(input_dim=5), lambda m: m.update(model=value)
        )
        assert_refused(path, "'model' field holding an object")

    @pytest.mark.parametrize(
        "embedding,field",
        [
            # the layout before the two random maps shared one spec
            ({"type": "fourier", "input_dim": 5, "num_bases": 32, "gamma": 0.5,
              "seed": 11}, "type"),
            ({"head": "fourier", "input_dim": 5, "embed_dim": 64, "seed": 11,
              "gamma": 0.5, "scale": 2.0}, "scale"),
        ],
    )
    def test_unknown_spec_field_rejected(self, tmp_path, embedding, field):
        path = self.tampered(
            tmp_path,
            fourier_config(input_dim=5),
            lambda m: m["model"].update(embedding=embedding),
        )
        assert_refused(path, repr(field))

    @pytest.mark.parametrize("variant", ["randumb", "rp_relu", "slda"])
    def test_embed_dim_disagreeing_with_estimator_rejected(self, tmp_path, variant):
        """The size is stored once, in the config; the arrays' shapes must
        agree with it."""
        if variant == "randumb":
            config = fourier_config(input_dim=5, num_bases=16, num_classes=3)
            edit = lambda m: m["model"]["embedding"].update(embed_dim=8)  # noqa: E731
            found, expected = [3, 32], [3, 8]
        elif variant == "rp_relu":
            config = ModelVariant(
                variant="rp_relu", num_classes=3, embedding=relu_spec(5, 20, 4)
            )
            edit = lambda m: m["model"]["embedding"].update(embed_dim=21)  # noqa: E731
            found, expected = [3, 20], [3, 21]
        else:
            config = raw_config(input_dim=5, num_classes=3)
            edit = lambda m: m["model"].update(input_dim=4)  # noqa: E731
            found, expected = [3, 5], [3, 4]
        path = self.tampered(tmp_path, config, edit)
        assert_refused(
            path,
            re.escape(f"'class_means' has shape {found}, expected {expected}"),
        )

    def test_full_means_on_the_symmetric_half_rejected(self, tmp_path):
        """kernel_ncm on a paired map holds C x E/2 means: a checkpoint
        holding C x E of them, as one written before it held the
        symmetric half, is refused naming the array."""
        spec = FeatureMapSpec("fourier", 48, 64, 5, gamma=0.05, mirror_width=4)
        model = StreamingClassifier(ModelVariant("kernel_ncm", 3, spec))
        X = np.random.default_rng(68).standard_normal((6, 48)).astype(np.float32)
        model.observe(X, np.repeat(np.arange(6) % 3, 2), mirror_width=4)
        path = tmp_path / "model.rdck"
        model.save(path)
        meta, arrays = read_checkpoint(path)
        arrays["class_means"] = np.zeros((3, 64))
        write_checkpoint(path, meta, arrays)
        assert_refused(path, re.escape("'class_means' has shape [3, 64], expected [3, 32]"))

    @pytest.mark.parametrize(
        "num_classes,refusal",
        [
            (0, "num_classes must be >= 1, got 0"),
            (2.5, "num_classes must be an integer, got 2.5"),
            (True, "num_classes must be an integer, got True"),
            ("3", "num_classes must be an integer, got '3'"),
        ],
    )
    def test_invalid_class_count_rejected(self, tmp_path, num_classes, refusal):
        path = self.tampered(
            tmp_path,
            raw_config(input_dim=5),
            lambda m: m["model"].update(num_classes=num_classes),
        )
        assert_refused(path, re.escape(f"checkpoint model: {refusal}") + "$")

    def test_class_count_disagreeing_with_the_rows_rejected(self, tmp_path):
        """Label c is row c: a class count the arrays do not have is refused
        at load, naming the first array whose rows disagree."""
        path = self.tampered(
            tmp_path,
            raw_config(input_dim=5, num_classes=3),
            lambda m: m["model"].update(num_classes=4),
        )
        assert_refused(path, re.escape("'class_counts' has shape [3], expected [4]"))

    @pytest.mark.parametrize(
        "config,variant",
        [
            (fourier_config("randumb", input_dim=5), "kernel_ncm"),
            (raw_config("ncm", input_dim=5), "slda"),
        ],
    )
    def test_precision_need_disagreeing_with_track_scatter_rejected(
        self, tmp_path, config, variant
    ):
        """Whether a covariance is kept is stored once, as the variant; a
        swapped variant leaves a 'scatter' array behind or finds none."""
        path = self.tampered(tmp_path, config, lambda m: m["model"].update(variant=variant))
        assert_refused(path, "'scatter'")

    def test_invalid_spec_values_rejected_as_data_format(self, tmp_path):
        path = self.tampered(
            tmp_path,
            fourier_config(input_dim=5),
            lambda m: m["model"]["embedding"].update(embed_dim=63),
        )
        assert_refused(path, "even")

    @pytest.mark.parametrize(
        "config,owner,field,value",
        [
            (fourier_config(input_dim=5), "embedding", "input_dim", 5.0),
            (fourier_config(input_dim=5, num_bases=8), "embedding", "embed_dim", 16.0),
            (fourier_config(input_dim=5, seed=1), "embedding", "seed", 1.0),
            (raw_config(input_dim=4), "model", "input_dim", 4.0),
        ],
        ids=["embedding-input_dim", "embedding-embed_dim", "embedding-seed", "slda-input_dim"],
    )
    def test_float_size_rejected(self, tmp_path, config, owner, field, value):
        """A size or seed stored as a JSON float of the same value is
        refused by name, not passed on to an array constructor."""
        def edit(meta):
            (meta["model"] if owner == "model" else meta["model"]["embedding"])[field] = value

        path = self.tampered(tmp_path, config, edit)
        assert_refused(path, re.escape(field) + " must be .*integer, got " + re.escape(repr(value)))
