"""Self-checks for the brute-force reference implementations.

These functions are the yardstick the streaming modules are measured
against, so they get their own closed-form sanity tests first.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from randumb.errors import ConfigurationError, DataError
from randumb.reference import (
    OracleReport,
    batch_lda_predict,
    batch_mahalanobis_predict,
    batch_stats,
    exact_rbf_kernel_matrix,
    oas_reference,
    run_verify,
)


def test_import_leaves_scipy_spatial_unloaded():
    """scipy.spatial costs a noticeable share of start-up and only the
    kernel-matrix oracle needs it, so importing the package skips it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, randumb; print('scipy.spatial' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


class TestExactRbfKernelMatrix:
    def test_identical_points_give_one(self):
        x = np.array([[1.5, -2.0, 0.25]])
        assert exact_rbf_kernel_matrix(x, x, gamma=3.0)[0, 0] == 1.0

    def test_log_two_distance_gives_half(self):
        """gamma=1 and squared distance ln(2) puts the kernel at exactly 1/2."""
        x = np.zeros((1, 4))
        y = np.zeros((1, 4))
        y[0, 0] = np.sqrt(np.log(2.0))
        assert exact_rbf_kernel_matrix(x, y, gamma=1.0)[0, 0] == pytest.approx(
            0.5, rel=1e-12
        )

    def test_matrix_agrees_with_the_definition(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 5))
        Y = rng.standard_normal((4, 5))
        K = exact_rbf_kernel_matrix(X, Y, gamma=0.7)
        assert K.shape == (6, 4)
        for i in range(6):
            for j in range(4):
                diff = X[i] - Y[j]
                assert K[i, j] == pytest.approx(np.exp(-0.7 * (diff @ diff)), rel=1e-12)


class TestBatchStats:
    def test_two_points_closed_form(self):
        """For two same-class points the scatter is (v-w)(v-w)^T / 2 and,
        with n - 1 = 1, the covariance equals the scatter."""
        v = np.array([1.0, 2.0, 3.0])
        w = np.array([2.0, 0.0, 3.0])
        stats = batch_stats(np.stack([v, w]), np.array([0, 0]))
        expected = 0.5 * np.outer(v - w, v - w)
        np.testing.assert_allclose(stats.scatter, expected, atol=1e-12)
        np.testing.assert_allclose(stats.covariance, expected, atol=1e-12)
        np.testing.assert_allclose(stats.means[0], (v + w) / 2)

    def test_counts_and_keys(self):
        X = np.arange(12.0).reshape(6, 2)
        y = np.array([3, 7, 3, 7, 3, 7])
        stats = batch_stats(X, y)
        assert set(stats.means) == {3, 7}
        assert stats.counts == {3: 3, 7: 3}

    def test_needs_two_samples(self):
        with pytest.raises(DataError):
            batch_stats(np.ones((1, 3)), np.array([0]))


class TestBatchLdaPredict:
    def test_point_at_mean_identity_covariance(self):
        means = {0: np.array([2.0, 0.0]), 1: np.array([-2.0, 1.0])}
        cov = np.eye(2)
        assert batch_lda_predict(means, cov, 0.0, means[1])[0] == 1

    def test_tie_breaks_to_smallest_label(self):
        """Duplicate class means give identical scores; the smaller label wins."""
        shared = np.array([1.0, 1.0, 0.0])
        means = {4: shared.copy(), 9: shared.copy()}
        picks = batch_lda_predict(means, np.eye(3), 1e-3, np.zeros((5, 3)))
        assert (picks == 4).all()

    def test_scale_invariance_of_regularized_matrix(self):
        """Scaling (Sigma + ridge I) by c > 0 scales every score by 1/c
        and leaves the argmax unchanged."""
        rng = np.random.default_rng(2)
        A = rng.standard_normal((50, 8))
        cov = A.T @ A / 50
        means = {i: rng.standard_normal(8) for i in range(4)}
        X = rng.standard_normal((1000, 8))
        base = batch_lda_predict(means, cov + 1e-2 * np.eye(8), 0.0, X)
        scaled = batch_lda_predict(means, 3.7 * (cov + 1e-2 * np.eye(8)), 0.0, X)
        assert (base == scaled).all()

    def test_quadratic_and_linear_rules_agree(self):
        """Mahalanobis argmin equals linear-score argmax on a shared
        covariance: the cross terms cancel class-independently."""
        rng = np.random.default_rng(3)
        A = rng.standard_normal((60, 7))
        cov = A.T @ A / 60
        means = {i: rng.standard_normal(7) for i in range(5)}
        X = rng.standard_normal((500, 7))
        lda = batch_lda_predict(means, cov, 1e-3, X)
        quad = batch_mahalanobis_predict(means, cov, 1e-3, X)
        assert (lda == quad).all()

    def test_singular_matrix_raises(self):
        from randumb.errors import NumericalError

        means = {0: np.ones(3)}
        with pytest.raises(NumericalError):
            batch_lda_predict(means, np.zeros((3, 3)), 0.0, np.ones(3))


class TestOasReference:
    def test_rho_stays_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for n in (2, 5, 10_000):
            A = rng.standard_normal((n, 6)) if n > 6 else rng.standard_normal((8, 6))
            S = np.cov(A.T)
            rho, mu, shrunk = oas_reference(S, n)
            assert 0.0 <= rho <= 1.0
            np.testing.assert_allclose(shrunk, shrunk.T, atol=1e-12)

    def test_identity_input_is_fixed_point(self):
        rho, mu, shrunk = oas_reference(2.5 * np.eye(9), 40)
        assert rho == 1.0 and mu == pytest.approx(2.5)
        np.testing.assert_allclose(shrunk, 2.5 * np.eye(9), atol=1e-15)


class TestOracleReport:
    def test_pass_iff_error_within_tolerance(self):
        assert OracleReport("x", 1e-9, 1e-8).passed
        assert not OracleReport("x", 2e-8, 1e-8).passed
        assert OracleReport("x", 1e-8, 1e-8).passed

    def test_json_round_trip_types(self):
        import json

        blob = json.dumps(OracleReport("x", np.float64(0.5), 1.0).to_json())
        parsed = json.loads(blob)
        assert parsed["passed"] is True and parsed["check"] == "x"


def test_run_verify_all_green():
    """The packaged self-check suite passes end to end."""
    reports = run_verify(seed=0)
    assert len(reports) == 6
    for report in reports:
        assert report.passed, f"{report.name}: {report.max_error} > {report.tolerance}"


@pytest.mark.parametrize(
    "seed,refusal",
    [(1.5, "must be an integer, got 1.5"), (True, "must be an integer, got True"),
     (np.int64(1), "must be an integer"), (-1, "must be >= 0, got -1")],
)
def test_run_verify_refuses_a_seed_that_is_not_a_natural_int(seed, refusal):
    """The verify seed follows every other seed's rule: 1.5 used to end in
    numpy's TypeError, and True ran as seed 1."""
    with pytest.raises(ConfigurationError, match=rf"^seed {refusal}"):
        run_verify(seed)
