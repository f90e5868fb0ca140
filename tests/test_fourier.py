"""Frozen random maps: spec validation, sampling, determinism, geometry,
kernel fidelity, and a transcription of both heads."""

import numpy as np
import pytest

from randumb.errors import ConfigurationError, ShapeError
from randumb.fourier import FeatureMap, FeatureMapSpec, RandomReluMap, build_map
from randumb.reference import exact_rbf_kernel


def rff(input_dim, num_bases, gamma, seed):
    """The Fourier spec with num_bases frequencies, E = 2 * num_bases."""
    return FeatureMapSpec("fourier", input_dim, 2 * num_bases, seed, gamma=gamma)


class TestSpecValidation:
    def test_output_dim_is_twice_the_bases(self):
        spec = FeatureMapSpec("fourier", input_dim=3072, embed_dim=25000, seed=0, gamma=1.0)
        assert spec.embed_dim == 25000
        assert spec.num_bases == 12500

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(head="fourier", input_dim=0, embed_dim=8, gamma=1.0, seed=0),
            dict(head="fourier", input_dim=4, embed_dim=0, gamma=1.0, seed=0),
            dict(head="fourier", input_dim=4, embed_dim=8, gamma=0.0, seed=0),
            dict(head="fourier", input_dim=4, embed_dim=8, gamma=-1.0, seed=0),
            dict(head="fourier", input_dim=4, embed_dim=8, gamma=float("nan"), seed=0),
            dict(head="fourier", input_dim=4, embed_dim=8, gamma=1.0, seed=-1),
            dict(head="fourier", input_dim=4, embed_dim=8, gamma=float("inf"), seed=0),
            dict(head="fourier", input_dim=4, embed_dim=8, gamma=None, seed=0),
            dict(head="relu", input_dim=0, embed_dim=8, seed=0),
            dict(head="relu", input_dim=4, embed_dim=0, seed=0),
            dict(head="relu", input_dim=4, embed_dim=8, seed=-1),
            dict(head="relu", input_dim=4, embed_dim=8, gamma=1.0, seed=0),
            dict(head="gelu", input_dim=4, embed_dim=8, seed=0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FeatureMapSpec(**kwargs)

    def test_embed_dim_helper_rejects_odd_sizes(self):
        """The Fourier head needs E/2 cos/sin pairs; the relu head takes
        any positive E, odd included, with one row per entry."""
        for bad in (0, -2, 63, 1):
            with pytest.raises(ConfigurationError, match="one cosine and one sine"):
                FeatureMapSpec("fourier", 4, bad, 0, gamma=1.0)
        for e in (1, 63, 64):
            assert FeatureMapSpec("relu", 4, e, 0).num_bases == e

    @pytest.mark.parametrize("head", ["fourier", "relu"])
    def test_valid_spec_of_each_head(self, head):
        gamma = 0.5 if head == "fourier" else None
        spec = FeatureMapSpec(head, input_dim=4, embed_dim=8, seed=3, gamma=gamma)
        assert spec.num_bases == (4 if head == "fourier" else 8)
        fmap = build_map(spec)
        assert fmap.weights.shape == (spec.num_bases, 4)
        assert type(fmap) is (RandomReluMap if head == "relu" else FeatureMap)


class TestTranscription:
    """Both heads against a plain numpy transcription, bit for bit:
    W = PCG64(seed).standard_normal((rows, d)), times sqrt(2 gamma) for
    the Fourier head, cast to float32; relu(X W^T), or the interleaved
    cos/sin of X W^T times 1/sqrt(rows)."""

    @pytest.mark.parametrize(
        "head,input_dim,embed_dim,seed,gamma",
        [
            ("fourier", 5, 16, 3, 0.7),
            ("fourier", 33, 2, 0, 1.0),
            ("relu", 5, 16, 3, None),
            ("relu", 33, 17, 11, None),
            ("relu", 1, 1, 0, None),
        ],
    )
    def test_weights_and_embeddings_match_transcription(
        self, head, input_dim, embed_dim, seed, gamma
    ):
        spec = FeatureMapSpec(head, input_dim, embed_dim, seed, gamma=gamma)
        fmap = build_map(spec)
        rows = embed_dim // 2 if head == "fourier" else embed_dim
        w = np.random.Generator(np.random.PCG64(seed)).standard_normal((rows, input_dim))
        if head == "fourier":
            w *= np.sqrt(2.0 * gamma)
        w = w.astype(np.float32)
        assert fmap.weights.dtype == np.float32
        assert fmap.weights.tobytes() == w.tobytes()

        # One block of rows, so both sides make the same float32 matmul
        # call (its rounding may depend on the number of rows).
        X = np.random.default_rng(seed + 1).standard_normal((200, input_dim))
        proj = X.astype(np.float32) @ w.T
        if head == "fourier":
            want = np.empty((200, embed_dim), dtype=np.float32)
            want[:, 0::2] = np.cos(proj)
            want[:, 1::2] = np.sin(proj)
            want *= np.float32(1.0 / np.sqrt(rows))
        else:
            want = np.maximum(proj, 0.0)
        got = fmap.embed_batch(X)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(fmap.embed(X[7]), fmap.embed_batch(X[7:8])[0])


class TestSampling:
    def test_same_seed_same_map(self):
        spec = rff(input_dim=1, num_bases=1, gamma=0.5, seed=123)
        a = FeatureMap(spec)
        b = FeatureMap(spec)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_different_seed_different_map(self):
        base = dict(input_dim=5, num_bases=16, gamma=1.0)
        a = FeatureMap(rff(seed=0, **base))
        b = FeatureMap(rff(seed=1, **base))
        assert not np.array_equal(a.weights, b.weights)

    def test_entry_variance_matches_two_gamma(self):
        """Entries are drawn from N(0, 2*gamma); with 200k samples the
        empirical variance lands within 0.02 of 2.0."""
        fm = FeatureMap(rff(input_dim=2, num_bases=100_000, gamma=1.0, seed=7))
        var = np.var(fm.weights.astype(np.float64))
        assert abs(var - 2.0) < 0.02

    def test_stored_as_float32(self):
        fm = FeatureMap(rff(input_dim=3, num_bases=8, gamma=1.0, seed=0))
        assert fm.weights.dtype == np.float32
        assert fm.weights.shape == (8, 3)


class TestEmbedding:
    def test_zero_vector_alternates_cos_one_sin_zero(self):
        fm = FeatureMap(rff(input_dim=6, num_bases=10, gamma=1.0, seed=0))
        phi = fm.embed(np.zeros(6))
        inv = 1.0 / np.sqrt(10)
        np.testing.assert_allclose(phi[0::2], inv, rtol=1e-6)
        np.testing.assert_allclose(phi[1::2], 0.0, atol=1e-7)

    def test_unit_norm(self):
        """cos^2 + sin^2 sums to 1 per frequency, so every embedding has
        unit length (within float32 rounding)."""
        fm = FeatureMap(rff(input_dim=12, num_bases=5000, gamma=1.0, seed=3))
        rng = np.random.default_rng(0)
        for _ in range(5):
            phi = fm.embed(rng.standard_normal(12))
            assert abs(np.linalg.norm(phi.astype(np.float64)) - 1.0) < 1e-6

    def test_deterministic_embeddings(self):
        spec = rff(input_dim=9, num_bases=32, gamma=0.8, seed=21)
        x = np.random.default_rng(1).standard_normal(9)
        np.testing.assert_array_equal(FeatureMap(spec).embed(x), FeatureMap(spec).embed(x))

    def test_inner_product_tracks_kernel(self):
        """Embedding inner products approximate exp(-gamma ||x-y||^2)."""
        rng = np.random.default_rng(5)
        fm = FeatureMap(rff(input_dim=10, num_bases=5000, gamma=1.0, seed=11))
        for _ in range(5):
            x = rng.standard_normal(10) * 0.4
            y = rng.standard_normal(10) * 0.4
            approx = float(fm.embed(x) @ fm.embed(y))
            assert abs(approx - exact_rbf_kernel(x, y, 1.0)) < 0.05

    def test_kernel_error_shrinks_with_more_bases(self):
        """Mean absolute kernel error decreases at each step of
        D in {100, 1000, 10000}, averaged over 5 seeds."""
        rng = np.random.default_rng(6)
        X = rng.standard_normal((100, 10)) * 0.4
        Y = rng.standard_normal((100, 10)) * 0.4
        diff = X - Y
        exact = np.exp(-1.0 * np.einsum("ij,ij->i", diff, diff))

        def mae(num_bases, seed):
            fm = FeatureMap(rff(10, num_bases, 1.0, seed))
            approx = np.einsum("ij,ij->i", fm.embed_batch(X), fm.embed_batch(Y))
            return np.abs(approx - exact).mean()

        errors = [np.mean([mae(d, s) for s in range(5)]) for d in (100, 1000, 10000)]
        assert errors[0] > errors[1] > errors[2]

    def test_blocking_does_not_change_results(self):
        fm = FeatureMap(rff(input_dim=7, num_bases=24, gamma=1.3, seed=2))
        X = np.random.default_rng(2).standard_normal((33, 7))
        full = fm.embed_batch(X, block=33)
        for block in (1, 2, 5, 32, 64):
            np.testing.assert_array_equal(fm.embed_batch(X, block=block), full)
        np.testing.assert_array_equal(fm.embed(X[4]), full[4])

    def test_shape_errors(self):
        fm = FeatureMap(rff(input_dim=4, num_bases=4, gamma=1.0, seed=0))
        with pytest.raises(ShapeError):
            fm.embed(np.zeros(5))
        with pytest.raises(ShapeError):
            fm.embed_batch(np.zeros((3, 5)))
        with pytest.raises(ConfigurationError):
            fm.embed_batch(np.zeros((3, 4)), block=0)
