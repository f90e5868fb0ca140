"""Frozen random maps: spec validation, sampling, determinism, geometry,
kernel fidelity, and a transcription of both heads."""

import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg.blas import sgemm

from randumb.errors import ConfigurationError, ShapeError
from randumb.fourier import DRAW_CHUNK, FeatureMap, FeatureMapSpec, RandomReluMap, build_map
from randumb.reference import exact_rbf_kernel_matrix

from conftest import traced_peak


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

    @pytest.mark.parametrize("gamma", [np.float32(0.5), True, "0.5", Fraction(1, 2)])
    def test_gamma_outside_json_refused_by_name(self, gamma):
        """The spec goes into the checkpoint meta as JSON, so a gamma json
        cannot write (a numpy float32, say) is refused when the spec is
        built, not when the model is saved."""
        refusal = f"^gamma must be a Python int or float, got {re.escape(repr(gamma))}$"
        with pytest.raises(ConfigurationError, match=refusal):
            FeatureMapSpec("fourier", 4, 8, 0, gamma=gamma)

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
    """Both heads against a plain transcription, bit for bit:
    W = PCG64(seed).standard_normal((rows, d)), times sqrt(2 gamma) for
    the Fourier head, cast to float32; relu(X W^T), or the interleaved
    cos/sin of X W^T times 1/sqrt(rows), with X W^T from scipy's sgemm."""

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

        # The projection is the map's own BLAS call, sgemm on W and X^T:
        # numpy's ``@`` may pick another kernel (gemv for a single
        # frequency), whose rounding differs in the last bits.
        X = np.random.default_rng(seed + 1).standard_normal((200, input_dim))
        proj = sgemm(1.0, w.T, X.astype(np.float32).T, trans_a=1).T
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


class TestChunkedDraw:
    """W is drawn one DRAW_CHUNK of float64 at a time: the build holds W
    and one chunk, and W is the one-shot draw bit for bit."""

    @pytest.mark.parametrize(
        "spec",
        [
            # many chunks, the last one partial
            rff(input_dim=3072, num_bases=1000, gamma=0.3, seed=4),
            # one row wider than a chunk, three rows
            FeatureMapSpec("relu", input_dim=DRAW_CHUNK + 68928, embed_dim=3, seed=5),
            # less than one chunk
            FeatureMapSpec("relu", input_dim=5, embed_dim=7, seed=6),
        ],
        ids=["fourier-1000x3072", "relu-3x200000", "relu-7x5"],
    )
    def test_build_holds_the_map_and_one_chunk(self, spec):
        fmap, peak = traced_peak(build_map, spec)
        assert peak <= fmap.weights.nbytes + 1.1 * 2**20
        w = np.random.Generator(np.random.PCG64(spec.seed)).standard_normal(
            (spec.num_bases, spec.input_dim)
        )
        if spec.head == "fourier":
            w *= np.sqrt(2.0 * spec.gamma)
        assert fmap.weights.tobytes() == w.astype(np.float32).tobytes()

    def test_embed_allocates_the_projection_and_the_output(self):
        """cos and sin are written straight into the output's columns."""
        fmap = FeatureMap(rff(input_dim=512, num_bases=1024, gamma=0.01, seed=1))
        X = np.random.default_rng(1).standard_normal((256, 512)).astype(np.float32)
        out, peak = traced_peak(fmap.embed_batch, X)
        projection = 4 * len(X) * fmap.spec.num_bases
        assert peak <= 1.01 * (projection + out.nbytes)


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
            exact = exact_rbf_kernel_matrix(x[None], y[None], 1.0)[0, 0]
            assert abs(approx - exact) < 0.05

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
        """Callers cut the rows; each row's embedding must not depend on
        the cut.  The 7-input maps stay below OpenBLAS's small-matrix
        cutoff (M N K <= 10^6) at every block size, so all their blocks
        take one small kernel.  The two with D d >= 2^20 check that a
        one-row block takes the same sgemm kernel as a full one."""
        specs = [
            rff(input_dim=7, num_bases=24, gamma=1.3, seed=2),
            FeatureMapSpec("relu", input_dim=7, embed_dim=48, seed=2),
            FeatureMapSpec("fourier", input_dim=784, embed_dim=6144, seed=3, gamma=2e-3),
            FeatureMapSpec("relu", input_dim=512, embed_dim=4096, seed=3),
        ]
        rng = np.random.default_rng(2)
        for spec in specs:
            fm = build_map(spec)
            X = rng.standard_normal((300, spec.input_dim))
            full = fm.embed_batch(X)
            for block in (1, 2, 5, 7, 32, 64, 256):
                sliced = np.concatenate(
                    [fm.embed_batch(X[i : i + block]) for i in range(0, len(X), block)]
                )
                np.testing.assert_array_equal(sliced, full, err_msg=f"{spec} {block}")
            np.testing.assert_array_equal(fm.embed(X[4]), full[4])

    def test_shape_errors(self):
        fm = FeatureMap(rff(input_dim=4, num_bases=4, gamma=1.0, seed=0))
        with pytest.raises(ShapeError):
            fm.embed(np.zeros(5))
        with pytest.raises(ShapeError):
            fm.embed_batch(np.zeros((3, 5)))


class TestFrozenDraw:
    """W of an unpaired spec is pinned by checksum, so any change to the
    draw (chunking, dtype, scaling, generator) fails here rather than
    only in a bitwise comparison of whole runs."""

    @pytest.mark.parametrize(
        "spec,sha256",
        [
            (
                FeatureMapSpec("fourier", 3072, 2048, 1, gamma=5e-4),
                "4759b31b258e32ba912d249d010b7b280128224bf494f014c9e8b8df7cb97c12",
            ),
            (
                FeatureMapSpec("fourier", 784, 6144, 7, gamma=2e-3),
                "94a9e88885563fdfea333157a569ea05e5c7bb63a0040c4e2f5d34b82ddccbd1",
            ),
            (
                FeatureMapSpec("relu", 512, 8192, 3),
                "a3aca283e72a86bd852debe92fb98f9efc3c4c22356ac879f7351292ad39b101",
            ),
        ],
        ids=["fourier-2048x3072", "fourier-6144x784", "relu-8192x512"],
    )
    def test_weights_checksum(self, spec, sha256):
        assert hashlib.sha256(build_map(spec).weights.tobytes()).hexdigest() == sha256


def mirrored(X, width):
    """Flat channel-major images mirrored left-right, by hand."""
    return np.ascontiguousarray(X.reshape(len(X), -1, width)[..., ::-1]).reshape(len(X), -1)


class TestMirrorPairedMap:
    """A spec with mirror_width draws W0 at D/2 rows and stores
    W = [W0; W0 P], so the embedding of a mirrored image is the
    original's with its halves swapped."""

    @pytest.mark.parametrize("head", ["fourier", "relu"])
    def test_first_half_is_the_unpaired_draw_at_half_the_rows(self, head):
        gamma = 5e-4 if head == "fourier" else None
        paired = build_map(FeatureMapSpec(head, 3072, 256, 9, gamma=gamma, mirror_width=32))
        half = paired.spec.num_bases // 2
        # the iid draw at D/2 rows, which is also the first D/2 rows of
        # the iid draw at D rows
        for rows in (half, 2 * half):
            embed_dim = 2 * rows if head == "fourier" else rows
            iid = build_map(FeatureMapSpec(head, 3072, embed_dim, 9, gamma=gamma))
            assert paired.weights[:half].tobytes() == iid.weights[:half].tobytes()
        np.testing.assert_array_equal(paired.weights[half:], mirrored(paired.weights[:half], 32))
        assert paired.weights.nbytes == build_map(
            FeatureMapSpec(head, 3072, 256, 9, gamma=gamma)
        ).weights.nbytes

    # float32 rounding: the two projections sum 3072 products in other
    # orders, and cos/sin turn the projection's absolute error into an
    # entry's (entries <= 1/sqrt(D))
    @pytest.mark.parametrize("head,tol", [("fourier", 5e-5), ("relu", 1e-6)])
    def test_mirrored_image_swaps_the_halves(self, head, tol):
        gamma = 5e-4 if head == "fourier" else None
        fmap = build_map(FeatureMapSpec(head, 3072, 512, 2, gamma=gamma, mirror_width=32))
        X = np.random.default_rng(2).standard_normal((40, 3072)).astype(np.float32)
        direct = fmap.embed_batch(mirrored(X, 32))
        swapped = np.roll(fmap.embed_batch(X), 256, axis=1)
        assert np.abs(direct - swapped).max() <= tol * np.abs(direct).max()

    def test_pairing_needs_sizes_that_split(self):
        for head, bad, good in (("fourier", (18, 6), 16), ("relu", (17, 3), 18)):
            gamma = 0.5 if head == "fourier" else None
            for e in bad:
                with pytest.raises(ConfigurationError, match=rf"--embed-dim {e} cannot"):
                    FeatureMapSpec(head, 8, e, 0, gamma=gamma, mirror_width=4)
                FeatureMapSpec(head, 8, e, 0, gamma=gamma)  # unpaired, the size is fine
            FeatureMapSpec(head, 8, good, 0, gamma=gamma, mirror_width=4)
        for width in (0, 3, 2.0, True):
            with pytest.raises(ConfigurationError, match="mirror_width"):
                FeatureMapSpec("relu", 8, 8, 0, mirror_width=width)
