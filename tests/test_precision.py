"""Shrinkage, factorization, and the quadratic forms its solves give."""

import tracemalloc

import numpy as np
import pytest

from randumb.errors import DataError, NumericalError, ShapeError
from randumb.precision import (
    PrecisionModel,
    factor_shrinkage,
    low_rank_fits,
    oas_shrink,
    pack_upper,
    packed_diagonal,
    packed_dim,
    packed_shrinkage,
)
from randumb.reference import oas_reference
from randumb.streaming import StreamingEstimator


def random_spd(rng, e, n=None):
    n = n or 3 * e
    A = rng.standard_normal((n, e))
    return A.T @ A / n


def eigen_factor(rng, e, sigma):
    """L = U diag(sigma), U (E x len(sigma)) with orthonormal columns: a
    factor with orthogonal columns, as the estimator holds the scatter."""
    U = np.linalg.qr(rng.standard_normal((e, len(sigma))))[0]
    return U * np.asarray(sigma)


class TestOasShrink:
    def test_scaled_identity_maps_to_itself(self):
        """mu equals the diagonal value, so the convex combination is a
        no-op whatever rho is."""
        for sigma_sq in (0.1, 1.0, 42.0):
            result = oas_shrink(sigma_sq * np.eye(8), n=30)
            np.testing.assert_array_equal(result.shrunk, sigma_sq * np.eye(8))

    def test_zero_matrix_stays_zero(self):
        result = oas_shrink(np.zeros((5, 5)), n=10)
        assert not result.shrunk.any()
        assert result.mu == 0.0

    def test_matches_independent_transcription(self):
        """Production formula and the reference transcription agree to
        1e-10 on random SPD inputs (E=20, n=50)."""
        rng = np.random.default_rng(30)
        for _ in range(10):
            S = random_spd(rng, 20, 50)
            mine = oas_shrink(S, n=50)
            rho, mu, shrunk = oas_reference(S, 50)
            assert abs(mine.rho - rho) < 1e-10
            assert abs(mine.mu - mu) < 1e-10
            assert np.abs(mine.shrunk - shrunk).max() < 1e-10

    def test_rho_bounds_on_degenerate_inputs(self):
        rng = np.random.default_rng(31)
        u = rng.standard_normal(6)
        cases = [
            (np.outer(u, u), 3),          # rank one
            (np.zeros((6, 6)), 5),        # zero
            (np.eye(6), 2),               # identity, tiny n
            (random_spd(rng, 6), 10_000), # huge n
        ]
        for S, n in cases:
            assert 0.0 <= oas_shrink(S, n).rho <= 1.0

    def test_eigenvalues_interpolate_toward_target(self):
        """Shrinkage is a convex combination with mu I, so eigenvalues
        stay inside [min(eigs, mu), max(eigs, mu)]."""
        rng = np.random.default_rng(32)
        S = random_spd(rng, 12, 30)
        result = oas_shrink(S, n=30)
        eigs = np.linalg.eigvalsh(S)
        lo = min(eigs.min(), result.mu) - 1e-12
        hi = max(eigs.max(), result.mu) + 1e-12
        shrunk_eigs = np.linalg.eigvalsh(result.shrunk)
        assert shrunk_eigs.min() >= lo and shrunk_eigs.max() <= hi

    def test_rejects_asymmetric_or_tiny_n(self):
        S = np.eye(4)
        S[0, 1] = 0.5
        with pytest.raises(DataError):
            oas_shrink(S, n=10)
        with pytest.raises(DataError):
            oas_shrink(np.eye(4), n=1)

    def test_in_place_mode_reuses_the_buffer(self):
        rng = np.random.default_rng(33)
        S = random_spd(rng, 7)
        result = oas_shrink(S, n=21, copy=False)
        assert result.shrunk is S

    def test_asymmetry_found_in_any_column_panel(self):
        """At E=600 the symmetry check runs over three column panels; an
        asymmetric pair outside the first one is still caught."""
        rng = np.random.default_rng(37)
        S = random_spd(rng, 600, 700)
        assert 0.0 <= oas_shrink(S, n=700).rho <= 1.0
        S[550, 480] += 1.0
        with pytest.raises(DataError, match="not symmetric"):
            oas_shrink(S, n=700)

    def test_in_place_shrink_allocates_no_square_temporary(self):
        """Symmetry check, traces and scaling stay within panel-sized
        temporaries: far below one E x E array (32 MiB at E=2048)."""
        rng = np.random.default_rng(38)
        S = random_spd(rng, 2048, 2100)
        tracemalloc.start()
        try:
            oas_shrink(S, n=2100, copy=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024**2


class TestPackedLayout:
    """The RFP vector of an E x E upper triangle: its size, its diagonal
    and its order, for the even and the odd layout."""

    @pytest.mark.parametrize("e", range(1, 10))
    def test_diagonal_positions_match_lapack_packing(self, e):
        a = pack_upper(np.diag(np.arange(1.0, e + 1)))
        assert a.shape == (e * (e + 1) // 2,) and packed_dim(a) == e
        np.testing.assert_array_equal(a[packed_diagonal(e)], np.arange(1.0, e + 1))
        assert np.count_nonzero(a) == e

    @staticmethod
    def layout_column(a, e, p):
        """Column p of the symmetric matrix, read from the RFP vector by
        the layout ``packed_diagonal`` documents: entry (i, j), i <= j,
        at i + (j - n1) lda when j >= n1, and at n1 + 1 + j + i lda (the
        leading triangle, transposed) when j < n1."""
        n1, lda = e // 2, e + 1 - e % 2

        def at(i, j):
            i, j = min(i, j), max(i, j)
            return i + (j - n1) * lda if j >= n1 else n1 + 1 + j + i * lda

        return a[[at(i, p) for i in range(e)]]

    @pytest.mark.parametrize("e", range(1, 10))
    def test_columns_read_back_the_symmetric_matrix(self, e):
        """Every entry sits where that layout says, so the diagonal
        positions derived from it are LAPACK's."""
        rng = np.random.default_rng(e)
        S = random_spd(rng, e)
        a = pack_upper(S)
        for p in range(e):
            np.testing.assert_array_equal(self.layout_column(a, e, p), S[:, p])

    def test_non_triangular_length_rejected(self):
        for bad in (np.zeros(0), np.zeros(4), np.zeros((3, 2))):
            with pytest.raises(ShapeError):
                packed_dim(bad)


class TestShrinkUpper:
    """The production shrinkage: (rho, mu) of S = a / denom, ``a`` the
    packed upper triangle of S * denom, and the factor finalize forms
    from them, A = (rho mu + lambda) I + ((1 - rho) / denom) a."""

    RIDGE = 1e-3

    def assert_factor_matches(self, a, rho, mu, denom, shrunk_ref, rng):
        model = PrecisionModel(a, rho * mu + self.RIDGE, (1.0 - rho) / denom)
        A = shrunk_ref + self.RIDGE * np.eye(len(shrunk_ref))
        assert abs(model.log_det - np.linalg.slogdet(A)[1]) < 1e-10
        b = rng.standard_normal((len(A), 3))
        assert np.abs(model.solve(b) - np.linalg.solve(A, b)).max() < 1e-10

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_upper_only_matches_reference(self, order):
        rng = np.random.default_rng(39)
        for e in (30, 29):
            S = random_spd(rng, e, 40)
            denom = 39.0
            a = pack_upper(np.array(np.triu(S * denom), order=order))
            rho, mu = packed_shrinkage(a, 40, denom)
            rho_ref, mu_ref, shrunk_ref = oas_reference(S, 40)
            assert abs(rho - rho_ref) < 1e-10
            assert abs(mu - mu_ref) < 1e-10
            self.assert_factor_matches(a, rho, mu, denom, shrunk_ref, rng)

    def test_mirrored_lower_triangle_stays_the_mirror(self):
        """Packing reads only the upper triangle, so a mirrored matrix
        shrinks and factors exactly like its upper triangle alone."""
        rng = np.random.default_rng(40)
        S = random_spd(rng, 25, 30)
        mirrored = pack_upper(np.asfortranarray(S * 29.0))
        upper = pack_upper(np.triu(S * 29.0))
        np.testing.assert_array_equal(mirrored, upper)
        rho, mu = packed_shrinkage(mirrored, 30, 29.0)
        assert packed_shrinkage(upper, 30, 29.0) == (rho, mu)
        factors = [
            PrecisionModel(a, rho * mu + self.RIDGE, (1.0 - rho) / 29.0) for a in (mirrored, upper)
        ]
        assert factors[0].log_det == factors[1].log_det
        v = rng.standard_normal(25)
        np.testing.assert_array_equal(factors[0].solve(v), factors[1].solve(v))
        _, _, shrunk_ref = oas_reference(S, 30)
        self.assert_factor_matches(pack_upper(S * 29.0), rho, mu, 29.0, shrunk_ref, rng)

    def test_non_finite_trace_of_square_raises(self):
        a = np.eye(5)
        a[1, 3] = np.inf
        with pytest.raises(NumericalError, match="not finite"):
            packed_shrinkage(pack_upper(a), 10)
        # finite entries whose squares overflow
        with pytest.raises(NumericalError, match="not finite"):
            packed_shrinkage(pack_upper(np.eye(4) * 1e200), 10)


class TestBuildPrecision:
    """Factorizing (shrunk + ridge I), given as the RFP vector of its
    upper triangle, into a PrecisionModel."""

    def test_identity_solves_are_identity(self):
        pm = PrecisionModel(pack_upper(np.eye(6)), ridge=0.0)
        v = np.arange(6.0)
        np.testing.assert_allclose(pm.solve(v), v, atol=1e-12)

    def test_diagonal_case_closed_form(self):
        d = np.array([1.0, 2.0, 4.0])
        pm = PrecisionModel(pack_upper(np.diag(d)), ridge=0.5)
        for i in range(3):
            e_i = np.zeros(3)
            e_i[i] = 1.0
            np.testing.assert_allclose(pm.solve(e_i), e_i / (d[i] + 0.5), atol=1e-14)

    def test_solve_matches_dense_inverse(self):
        rng = np.random.default_rng(34)
        S = random_spd(rng, 50)
        pm = PrecisionModel(pack_upper(S), ridge=1e-3)
        inv = np.linalg.inv(S + 1e-3 * np.eye(50))
        for _ in range(5):
            v = rng.standard_normal(50)
            assert np.abs(pm.solve(v) - inv @ v).max() < 1e-8

    def test_residuals_on_random_right_hand_sides(self):
        rng = np.random.default_rng(35)
        S = random_spd(rng, 40)
        A = S + 1e-4 * np.eye(40)
        pm = PrecisionModel(pack_upper(S), ridge=1e-4)
        for _ in range(100):
            v = rng.standard_normal(40)
            z = pm.solve(v)
            assert np.linalg.norm(A @ z - v) / np.linalg.norm(v) < 1e-6

    def test_log_det_matches_slogdet(self):
        rng = np.random.default_rng(36)
        S = random_spd(rng, 15)
        pm = PrecisionModel(pack_upper(S), ridge=0.01)
        sign, logdet = np.linalg.slogdet(S + 0.01 * np.eye(15))
        assert sign == 1.0
        assert pm.log_det == pytest.approx(logdet, rel=1e-10)

    def test_non_positive_definite_reports_pivot(self):
        with pytest.raises(NumericalError) as excinfo:
            PrecisionModel(pack_upper(np.diag([1.0, -1.0, 2.0])), ridge=0.0)
        assert excinfo.value.pivot_index == 1

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            PrecisionModel(np.zeros((3, 3, 1)), ridge=0.0)
        with pytest.raises(ShapeError):
            PrecisionModel(np.zeros(5), ridge=0.0)
        with pytest.raises(DataError):
            PrecisionModel(pack_upper(np.eye(3)), ridge=-0.1)

    def test_reads_only_the_upper_triangle(self):
        """The factor is taken from the upper triangle alone: a zero or a
        non-finite strict lower triangle changes nothing."""
        rng = np.random.default_rng(41)
        S = random_spd(rng, 600, 700)
        full = PrecisionModel(pack_upper(S), ridge=1e-3)
        upper = np.triu(S)
        upper[500, 20] = np.nan
        half = PrecisionModel(pack_upper(upper), ridge=1e-3)
        assert half.log_det == full.log_det
        v = rng.standard_normal(600)
        np.testing.assert_array_equal(half.solve(v), full.solve(v))

    def test_non_finite_upper_triangle_rejected(self):
        for i, j in ((0, 3), (2, 2), (1, 599)):
            S = np.eye(600)
            S[i, j] = np.inf if i != j else np.nan
            with pytest.raises(NumericalError, match="non-finite"):
                PrecisionModel(pack_upper(S), ridge=0.0)

    @pytest.mark.parametrize("e", [40, 41])
    def test_packed_input_factors_in_place_like_the_square(self, e):
        """The factor takes over the packed vector itself and solves like
        the square matrix it packs."""
        rng = np.random.default_rng(42)
        S = random_spd(rng, e)
        packed = pack_upper(S)
        model = PrecisionModel(packed, ridge=1e-3)
        assert np.shares_memory(model._factor, packed)
        A = S + 1e-3 * np.eye(e)
        assert model.log_det == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-12)
        v = rng.standard_normal((e, 3))
        np.testing.assert_allclose(model.solve(v), np.linalg.solve(A, v), rtol=1e-9)
        np.testing.assert_allclose(model.solve(v[:, 0]), model.solve(v)[:, 0], rtol=1e-12)

    def test_read_only_vector_is_copied_and_left_as_it_was(self):
        """The lent view of a non-consuming ``scatter_state`` is read-only:
        the dense factor copies it, so it factors like a writable copy
        and stays bitwise as it was."""
        rng = np.random.default_rng(45)
        est = StreamingEstimator(30, 2)
        est.observe(rng.standard_normal((60, 30)), np.arange(60) % 2)
        lent = est.scatter_state()[0]
        before = lent.copy()
        model = PrecisionModel(lent, 1e-3)
        np.testing.assert_array_equal(lent, before)
        writable = PrecisionModel(lent.copy(), 1e-3)
        assert model.factor_rank == 30 and model.log_det == writable.log_det
        v = rng.standard_normal((30, 2))
        np.testing.assert_array_equal(model.solve(v), writable.solve(v))

    @pytest.mark.parametrize("e", [6, 7])
    def test_pivot_index_is_global_in_either_layout(self, e):
        """The RFP factor works on two sub-triangles; the reported pivot is
        still the leading minor's index in the whole matrix."""
        for pivot in range(e):
            d = np.ones(e)
            d[pivot] = -1.0
            with pytest.raises(NumericalError) as excinfo:
                PrecisionModel(pack_upper(np.diag(d)), ridge=0.0)
            assert excinfo.value.pivot_index == pivot


class TestLowRankPrecision:
    """The factor form of A = ridge I + scale P, P = L L^T given as its
    factor L, and the rule that picks the form."""

    def test_rule_puts_the_benchmark_shapes_on_their_sides(self):
        """Both few-shot benchmark shapes take the factor form: the
        features workload (E = 8192, 20 classes of 8: rank bound 140) and
        the MNIST workload (E = 6144, 10 classes of 30: rank bound 290,
        8 (290 + 2 * 10) = 2480 <= E + 1).  At E = 6144 with 10 classes
        the rule's last low-rank bound is 748."""
        assert low_rank_fits(8192, 160 - 20, 20)
        assert low_rank_fits(6144, 300 - 10, 10)
        assert low_rank_fits(6144, 748, 10) and not low_rank_fits(6144, 749, 10)
        # the boundary: 8 (r + 2 C) against E + 1
        assert low_rank_fits(47, 2, 2) and not low_rank_fits(46, 2, 2)

    # four orders of magnitude and two zero columns: rank 5 of 7 columns
    SIGMA = (10.0, 3.0, 0.1, 0.02, 1e-3, 0.0, 0.0)

    @pytest.mark.parametrize("e", [60, 61])
    def test_solves_and_log_det_match_the_dense_matrix(self, e):
        """A rank-5 P handed over as its eigen-factor L (E x 7), only read."""
        rng = np.random.default_rng(43)
        F = eigen_factor(rng, e, self.SIGMA)
        before = F.copy()
        model = PrecisionModel(F, 0.3, 0.7)
        np.testing.assert_array_equal(F, before)
        assert model.factor_rank == 5
        A = 0.7 * F @ F.T + 0.3 * np.eye(e)
        assert model.log_det == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-12)
        v = rng.standard_normal((e, 3))
        np.testing.assert_allclose(model.solve(v), np.linalg.solve(A, v), rtol=1e-10)
        np.testing.assert_allclose(model.solve(v[:, 0]), model.solve(v)[:, 0], rtol=1e-12)

    def test_the_rule_picks_the_representation(self):
        """At E = 60 the bound 5 with one class fits the rule, so the
        estimator holds the scatter of 6 rows of one class as a factor;
        the bound 6, the bound 5 with two classes (two right-hand sides)
        or no bound do not, and it holds the packed triangle, which
        factors densely, in place, to the same A."""
        rng = np.random.default_rng(46)
        X = rng.standard_normal((6, 60))

        def state(bound, classes):
            est = StreamingEstimator(60, classes, rank_bound=bound)
            est.observe(X, np.zeros(6, dtype=np.int64))
            return est.scatter_state(consume=True)[0]

        factor = state(5, 1)
        low = PrecisionModel(factor, 0.3, 0.7)
        assert factor.shape == (60, 5)
        for bound, classes in ((6, 1), (5, 2), (None, 1)):
            packed = state(bound, classes)
            dense = PrecisionModel(packed, 0.3, 0.7)
            assert (low.factor_rank, dense.factor_rank) == (5, 60)
            assert np.shares_memory(dense._factor, packed)
            assert dense.log_det == pytest.approx(low.log_det, rel=1e-12)

    def test_rank_zero_is_the_scaled_identity(self):
        """scale = 0 (rho = 1): no column counts, and A = ridge I."""
        F = np.random.default_rng(47).standard_normal((40, 3))
        model = PrecisionModel(F, 2.0, 0.0)
        assert model.factor_rank == 0
        assert model.log_det == pytest.approx(40 * np.log(2.0), rel=1e-15)
        np.testing.assert_array_equal(model.solve(np.arange(40.0)), np.arange(40.0) / 2.0)

    def test_no_columns_is_the_scaled_identity(self):
        """q = 0 (one sample per class): A = ridge I, and S is 0."""
        L = np.zeros((40, 0))
        model = PrecisionModel(L, 2.0, 0.7)
        assert model.factor_rank == 0
        assert model.log_det == pytest.approx(40 * np.log(2.0), rel=1e-15)
        b = np.arange(80.0).reshape(40, 2)
        np.testing.assert_array_equal(model.solve(b), b / 2.0)
        assert factor_shrinkage(L, 20, 19.0) == (1.0, 0.0)

    def test_zero_alpha_and_non_finite_diagonal_refused(self):
        F = np.random.default_rng(48).standard_normal((40, 3))
        with pytest.raises(NumericalError, match="not positive definite"):
            PrecisionModel(F, 0.0, 1.0)
        F[2, 1] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            PrecisionModel(F, 1.0, 1.0)

    def test_shrinkage_only_reads_the_vector(self):
        """Either form's traces leave the state as it was, and agree."""
        rng = np.random.default_rng(44)
        F = eigen_factor(rng, 31, (4.0, 2.5, 1.0, 0.3, 0.01, 0.0))
        a = pack_upper(F @ F.T)
        before = a.copy(), F.copy()
        packed = packed_shrinkage(a, 20, 19.0)
        factor = factor_shrinkage(F, 20, 19.0)
        np.testing.assert_array_equal(a, before[0])
        np.testing.assert_array_equal(F, before[1])
        np.testing.assert_allclose(factor, packed, rtol=1e-12)


class TestMahalanobis:
    """The squared Mahalanobis distance d^T A^{-1} d through solve."""

    @staticmethod
    def form(pm, d):
        return float(d @ pm.solve(d))

    def test_zero_delta_is_zero(self):
        pm = PrecisionModel(pack_upper(np.eye(5)), ridge=0.0)
        assert self.form(pm, np.zeros(5)) == 0.0

    def test_identity_metric_is_squared_norm(self):
        pm = PrecisionModel(pack_upper(np.eye(2)), ridge=0.0)
        assert self.form(pm, np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(37)
        S = random_spd(rng, 30)
        pm = PrecisionModel(pack_upper(S), ridge=1e-3)
        inv = np.linalg.inv(S + 1e-3 * np.eye(30))
        for _ in range(20):
            d = rng.standard_normal(30)
            assert abs(self.form(pm, d) - d @ inv @ d) < 1e-8

    def test_non_increasing_in_ridge(self):
        """A larger ridge means a larger matrix, hence a smaller
        quadratic form for any fixed direction."""
        rng = np.random.default_rng(38)
        S = random_spd(rng, 10)
        d = rng.standard_normal(10)
        values = [
            self.form(PrecisionModel(pack_upper(S), ridge=lam), d)
            for lam in (0.0, 1e-4, 1e-2, 1.0, 10.0)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_shape_check(self):
        pm = PrecisionModel(pack_upper(np.eye(3)), ridge=0.0)
        with pytest.raises(ShapeError):
            pm.solve(np.zeros(4))
