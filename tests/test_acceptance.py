"""Acceptance gates for the whole package, one test per gate.

Gates that need a real dataset on disk (MNIST / CIFAR-10) or the
full-scale memory budget skip with an explanatory message instead of
silently passing; everything else runs on any machine in minutes.
"""

import os
import tracemalloc

import numpy as np
import pytest

from conftest import (
    blob_dataset,
    require_cifar10,
    require_full_scale,
    require_mnist,
    traced_peak,
)
from randumb import (
    FeatureMap,
    FeatureMapSpec,
    ModelVariant,
    StreamingClassifier,
    StreamingEstimator,
    load_dataset,
    run_ablation,
    run_on_dataset,
    sweep_embedding,
)
from randumb.data_io import dataset_from_features
from randumb.precision import PrecisionModel, low_rank_fits, pack_upper, packed_shrinkage
from randumb.reference import (
    batch_lda_predict,
    batch_stats,
    exact_rbf_kernel_matrix,
    oas_reference,
)


def relative_max_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.abs(b).max()), 1e-30)
    return float(np.abs(a - b).max()) / scale


class TestPropertyGates:
    def test_streaming_statistics_match_batch_and_ignore_order(self):
        # 50 random streams, E <= 50, n <= 5000, up to 10 classes: the
        # online statistics must match the two-pass batch computation and
        # a permuted replay of the same stream, each within 1e-8 relative
        # error.
        rng = np.random.default_rng(1234)
        worst_batch = 0.0
        worst_perm = 0.0
        for trial in range(50):
            e = int(rng.integers(2, 51))
            n = int(rng.integers(50, 5001))
            k = int(rng.integers(2, 11))
            X = rng.standard_normal((n, e))
            y = rng.integers(0, k, size=n)
            perm = rng.permutation(n)
            est = StreamingEstimator(e, k)
            for x, c in zip(X, y):
                est.observe(x, int(c))
            est_perm = StreamingEstimator(e, k)
            for i in perm:
                est_perm.observe(X[i], int(y[i]))

            ref = batch_stats(X, y)
            cov = est.covariance()
            worst_batch = max(worst_batch, relative_max_error(cov, ref.covariance))
            means = est.class_rows()[1]
            for c, mu in ref.means.items():
                worst_batch = max(worst_batch, relative_max_error(means[c], mu))
            cov_perm = est_perm.covariance()
            worst_perm = max(worst_perm, relative_max_error(cov_perm, cov))
            means_perm = est_perm.class_rows()[1]
            for c in ref.means:
                worst_perm = max(
                    worst_perm, relative_max_error(means_perm[c], means[c])
                )
        assert worst_batch <= 1e-8, f"streaming vs batch: {worst_batch:.3e}"
        assert worst_perm <= 1e-8, f"permutation invariance: {worst_perm:.3e}"

    def test_fourier_kernel_error_small_and_shrinking(self):
        # At 5000 frequency pairs the mean absolute gap between embedded
        # inner products and the exact Gaussian kernel over 100 random
        # pairs stays under 0.02, and the gap at 10000 pairs is smaller
        # than at 100 pairs averaged over 5 feature seeds.
        d = 5
        gamma = 1.0
        rng = np.random.default_rng(7)
        pairs = (rng.standard_normal((100, 2, d)) * 0.5).astype(np.float64)
        exact = exact_rbf_kernel_matrix(pairs[:, 0], pairs[:, 1], gamma).diagonal()

        def mean_abs_error(num_bases: int, seed: int) -> float:
            spec = FeatureMapSpec(
                "fourier", input_dim=d, embed_dim=2 * num_bases, seed=seed, gamma=gamma
            )
            fmap = FeatureMap(spec)
            lhs = fmap.embed_batch(pairs[:, 0]).astype(np.float64)
            rhs = fmap.embed_batch(pairs[:, 1]).astype(np.float64)
            approx = np.einsum("ne,ne->n", lhs, rhs)
            return float(np.abs(approx - exact).mean())

        assert mean_abs_error(5000, seed=0) < 0.02

        coarse = np.mean([mean_abs_error(100, s) for s in range(5)])
        fine = np.mean([mean_abs_error(10000, s) for s in range(5)])
        assert fine < coarse, f"error grew with width: {fine:.4f} vs {coarse:.4f}"

    def test_shrinkage_bounds_identity_and_oracle_agreement(self):
        # The shrinkage finalize runs: packed_shrinkage on the RFP vector of
        # the covariance's upper triangle, then the factor of
        # (rho mu + ridge) I + (1 - rho) S that finalize forms from it.
        rng = np.random.default_rng(11)
        # Mixing weight stays in [0, 1] across benign and degenerate inputs.
        cases = []
        for e in (2, 5, 20, 60):
            A = rng.standard_normal((e + 3, e))
            cases.append((A.T @ A / (e + 3), e + 3))
            v = rng.standard_normal(e)
            cases.append((np.outer(v, v), 2))          # rank one
            cases.append((np.zeros((e, e)), 5))        # all zero
            cases.append((np.eye(e) * 3.0, 10**9))     # huge n
        for S, n in cases:
            rho, _ = packed_shrinkage(pack_upper(S), n)
            assert 0.0 <= rho <= 1.0, rho

        # A scaled identity is a fixed point: rho = 1 and mu exact.
        assert packed_shrinkage(pack_upper(2.5 * np.eye(40)), 100) == (1.0, 2.5)

        # Agreement with the independent transcription on random SPD input.
        ridge = 1e-3
        worst = 0.0
        for trial in range(10):
            e = int(rng.integers(4, 64))
            n = int(rng.integers(e, 500))
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
                float(np.abs(model.solve(b) - np.linalg.solve(oracle, b)).max()),
            )
        assert worst <= 1e-10, f"oracle disagreement {worst:.3e}"

    def test_predictions_match_batch_lda_oracle_everywhere(self):
        # On balanced classes, the streaming classifier's label must agree
        # with the explicit batch discriminant on all 1000 test points.
        rng = np.random.default_rng(17)
        k, per_class, d = 5, 200, 8
        centers = rng.standard_normal((k, d)) * 2.0
        X = np.concatenate(
            [centers[i] + rng.standard_normal((per_class, d)) for i in range(k)]
        )
        y = np.repeat(np.arange(k), per_class)
        order = rng.permutation(len(y))
        X, y = X[order], y[order]

        ridge = 1e-4
        model = StreamingClassifier(
            ModelVariant(variant="slda", num_classes=k, input_dim=d, ridge=ridge)
        )
        for x, c in zip(X, y):
            model.observe(x, int(c))
        model.finalize()

        ref = batch_stats(X, y)
        _, _, shrunk = oas_reference(ref.covariance, len(y))
        T = rng.standard_normal((1000, d))
        oracle = batch_lda_predict(ref.means, shrunk, ridge, T)
        mine = model.predict_batch(T)
        agreement = float((mine == oracle).mean())
        assert agreement == 1.0, f"agreement {agreement:.4f}"
        # Scoring one row at a time gives the same labels.
        singles = [model.predict_batch(T[i : i + 1]) for i in range(len(T))]
        np.testing.assert_array_equal(np.concatenate(singles), mine)


class TestDatasetGates:
    def test_variant_ordering_on_mnist_desk_configuration(self):
        base = require_mnist()
        data = load_dataset("mnist", base)
        results = run_ablation(
            data,
            variants=("randumb", "slda", "kernel_ncm", "ncm"),
            embed_dim=2000,
            ridge=1e-6,
            augment=False,
            seed=0,
        )
        accs = {r.config["variant"]: r.average_accuracy for r in results}
        assert (
            accs["randumb"] > accs["slda"] > accs["kernel_ncm"] > accs["ncm"]
        ), f"ordering violated: {accs}"

    def test_full_scale_mnist_accuracy_band(self):
        base = require_mnist()
        require_full_scale()
        data = load_dataset("mnist", base)
        result = run_on_dataset(data, variant="randumb", embed_dim=25000, seed=0)
        accuracy = result.average_accuracy * 100
        assert 96.8 <= accuracy <= 99.8, f"accuracy {accuracy:.2f}"

    def test_full_scale_cifar10_accuracy_and_flip_gap(self):
        base = require_cifar10()
        require_full_scale()
        data = load_dataset("cifar10", base)
        flipped = run_on_dataset(
            data, variant="randumb", embed_dim=25000, seed=0, augment=True
        )
        plain = run_on_dataset(
            data, variant="randumb", embed_dim=25000, seed=0, augment=False
        )
        accuracy = flipped.average_accuracy * 100
        assert 54.1 <= accuracy <= 57.1, f"accuracy {accuracy:.2f}"
        gap = (flipped.average_accuracy - plain.average_accuracy) * 100
        assert 2.1 <= gap <= 4.1, f"flip gap {gap:.2f}"

    def test_full_scale_mnist_embedding_sweep_gaps(self):
        base = require_mnist()
        require_full_scale()
        data = load_dataset("mnist", base)
        results = sweep_embedding(
            [1000, 15000, 25000], data, variant="randumb", seed=0
        )
        acc = {r.config["state_dim"]: r.average_accuracy * 100 for r in results}
        wide_gap = acc[25000] - acc[1000]
        assert 2.6 <= wide_gap <= 4.6, f"gap to smallest width {wide_gap:.2f}"
        assert acc[25000] - acc[15000] <= 0.5, (
            f"gap to mid width {acc[25000] - acc[15000]:.2f}"
        )


class TestContractGates:
    def test_consuming_finalize_allocates_under_five_percent_of_the_accumulator(self):
        """One accumulator through finalize: at E=2048 the consuming
        finalize (shrink, factor, discriminant solve) allocates less than
        5% of the packed 4*E*(E+1)-byte accumulator on top of it."""
        e = 2048
        rng = np.random.default_rng(24)
        model = StreamingClassifier(
            ModelVariant(variant="slda", num_classes=10, ridge=1e-4, input_dim=e)
        )
        for start in range(0, 600, 256):
            X = rng.standard_normal((min(256, 600 - start), e))
            model.observe(X, np.arange(start, start + len(X)) % 10)
        tracemalloc.start()
        try:
            model.finalize(consume=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 4 * e * (e + 1), f"finalize allocated {peak} bytes"

    def test_consuming_low_rank_finalize_allocates_under_five_percent(self):
        """The same gate on the factor form: 10 classes of 4 samples at
        E=2048 bound the rank by 30, so the model holds L (E x 30) and
        finalize allocates K and the discriminant, under 5% of the packed
        form's bytes."""
        e = 2048
        rng = np.random.default_rng(25)
        model = StreamingClassifier(
            ModelVariant(variant="slda", num_classes=10, ridge=1e-4, input_dim=e), 30
        )
        model.observe(rng.standard_normal((40, e)), np.arange(40) % 10)
        tracemalloc.start()
        try:
            model.finalize(consume=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.factor_rank == 30
        assert peak < 0.05 * 4 * e * (e + 1), f"finalize allocated {peak} bytes"

    def test_consuming_low_rank_finalize_at_the_rule_boundary(self):
        """246 samples of 10 classes at E=2048 bound the rank by 236, so
        8 (r + 2 C) = 2048 meets the rule's E + 1 at its edge.  The
        consuming finalize of the factor form allocates at most K and two
        E x C blocks, within 8 E (r + 2 C) + 8 r^2 bytes, which the rule
        keeps within (9 E + 1) / (32 E) of the packed form's 4 E (E + 1)."""
        e, c, n = 2048, 10, 246
        r = n - c
        assert low_rank_fits(e, r, c) and not low_rank_fits(e, r + 1, c)
        bound = 8 * e * (r + 2 * c) + 8 * r * r
        assert bound <= (9 * e + 1) / (32 * e) * 4 * e * (e + 1)
        rng = np.random.default_rng(26)
        model = StreamingClassifier(
            ModelVariant(variant="slda", num_classes=c, ridge=1e-4, input_dim=e), r
        )
        model.observe(rng.standard_normal((n, e)), np.arange(n) % c)
        tracemalloc.start()
        try:
            model.finalize(consume=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.factor_rank == r
        assert peak <= bound, f"finalize allocated {peak} bytes"

    def test_factor_run_never_allocates_the_packed_vector(self):
        """Built with its rank bound at the rule's edge (E=2048, 246
        samples of 10 classes), a model holds the scatter as its factor
        from construction through observe and a consuming finalize, and
        never allocates the 4*E*(E+1)-byte packed vector: the peak is L's
        buffer, one block's temporaries and the finalize's scratch."""
        e, c, n = 2048, 10, 246
        rng = np.random.default_rng(27)
        X = rng.standard_normal((n, e))
        config = ModelVariant(variant="slda", num_classes=c, ridge=1e-4, input_dim=e)

        def run():
            model = StreamingClassifier(config, n - c)
            for start in range(0, n, 128):
                model.observe(X[start : start + 128], np.arange(start, min(start + 128, n)) % c)
            model.finalize(consume=True)
            return model

        tracemalloc.start()
        try:
            model = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.factor_rank == n - c
        assert peak < 4 * e * (e + 1), f"the run allocated {peak} bytes"

    def test_factor_update_holds_no_copy_of_the_factor(self):
        """Each block's rows go into the factor buffer's spare columns and
        W V is written back one row panel at a time, so at E=8192 the
        observe calls allocate, beyond the buffer built before them, under
        half of one E x q float64 matrix, q = lead + m + shifts the widest
        block's columns [L, Z^T]: 70-row blocks of all 10 classes give
        q = 70, 140 and 210."""
        e, c, n, m = 8192, 10, 210, 70
        rng = np.random.default_rng(28)
        X = rng.standard_normal((n, e))
        y = np.arange(n) % c
        est = StreamingEstimator(e, c, rank_bound=n - c)
        assert est._scatter.shape == (e, n)
        tracemalloc.start()
        try:
            for start in range(0, n, m):
                est.observe(X[start : start + m], y[start : start + m])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        q = (n - m - c) + m + c  # the last block's lead + m + shifts
        assert peak < 0.5 * 8 * e * q, f"observe allocated {peak} bytes"

    def test_state_size_constant_over_hundred_thousand_steps(self):
        # The model state must not grow with stream length: only the
        # accumulator, one mean per class, and counters.
        e, k, n = 16, 10, 100_000
        rng = np.random.default_rng(23)
        X = rng.standard_normal((n, e)).astype(np.float32)
        y = (np.arange(n) % k).astype(np.int64)

        est = StreamingEstimator(e, k)
        sizes = []
        for i in range(n):
            est.observe(X[i], int(y[i]))
            if i + 1 in (1000, 10_000, 50_000, 100_000):
                sizes.append(est.state_nbytes())
        assert len(set(sizes)) == 1, f"state grew: {sizes}"

        # A 200-step stream over the same classes holds the same bytes.
        short = StreamingEstimator(e, k)
        for i in range(200):
            short.observe(X[i], int(y[i]))
        assert short.state_nbytes() == sizes[-1]

        # End to end through the harness, whose one-pass assertion runs
        # on every step; what the run allocates at once stays small.
        data = dataset_from_features(X, y, X[:1000], y[:1000])
        result, peak = traced_peak(lambda: run_on_dataset(data, variant="slda", seed=0))
        assert result.observe_count == n
        assert peak < 64 * 1024**2

    def test_identical_configs_reproduce_identical_results(self):
        data = blob_dataset(seed=29, num_classes=5, dim=10, train_per_class=60)
        runs = [
            run_on_dataset(
                data, variant="randumb", embed_dim=128, gamma=0.05, seed=4
            )
            for _ in range(2)
        ]
        assert runs[0].average_accuracy == runs[1].average_accuracy
        assert runs[0].per_class_accuracy == runs[1].per_class_accuracy
        assert runs[0].class_average_accuracy == runs[1].class_average_accuracy
        assert runs[0].shrinkage_rho == runs[1].shrinkage_rho
        assert runs[0].shrinkage_mu == runs[1].shrinkage_mu
        assert runs[0].log_det == runs[1].log_det
