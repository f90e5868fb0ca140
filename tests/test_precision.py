"""Shrinkage, factorization, and the quadratic forms its solves give."""

import tracemalloc

import numpy as np
import pytest

from scipy.linalg.lapack import dtfttr

from randumb.errors import DataError, NumericalError, ShapeError
from randumb.precision import (
    PrecisionModel,
    oas_shrink,
    pack_upper,
    packed_diagonal,
    packed_dim,
    shrink_packed,
)
from randumb.reference import oas_reference


def random_spd(rng, e, n=None):
    n = n or 3 * e
    A = rng.standard_normal((n, e))
    return A.T @ A / n


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


def unpack_upper(a):
    """The upper triangle held in the RFP vector ``a``, zeros below."""
    return np.triu(dtfttr(packed_dim(a), a)[0])


class TestPackedLayout:
    """The RFP vector of an E x E upper triangle: its size, its diagonal
    and its order, for the even and the odd layout."""

    @pytest.mark.parametrize("e", range(1, 10))
    def test_diagonal_positions_match_lapack_packing(self, e):
        a = pack_upper(np.diag(np.arange(1.0, e + 1)))
        assert a.shape == (e * (e + 1) // 2,) and packed_dim(a) == e
        np.testing.assert_array_equal(a[packed_diagonal(e)], np.arange(1.0, e + 1))
        assert np.count_nonzero(a) == e

    def test_non_triangular_length_rejected(self):
        for bad in (np.zeros(0), np.zeros(4), np.zeros((3, 2))):
            with pytest.raises(ShapeError):
                packed_dim(bad)


class TestShrinkUpper:
    """The production kernel: shrink S = a / denom in place, ``a`` the
    packed upper triangle of S * denom."""

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_upper_only_matches_reference(self, order):
        rng = np.random.default_rng(39)
        for e in (30, 29):
            S = random_spd(rng, e, 40)
            denom = 39.0
            a = pack_upper(np.array(np.triu(S * denom), order=order))
            rho, mu = shrink_packed(a, 40, denom)
            rho_ref, mu_ref, shrunk_ref = oas_reference(S, 40)
            assert abs(rho - rho_ref) < 1e-10
            assert abs(mu - mu_ref) < 1e-10
            assert np.abs(unpack_upper(a) - np.triu(shrunk_ref)).max() < 1e-10

    def test_mirrored_lower_triangle_stays_the_mirror(self):
        """Packing reads only the upper triangle, so a mirrored matrix
        shrinks exactly like its upper triangle alone."""
        rng = np.random.default_rng(40)
        S = random_spd(rng, 25, 30)
        mirrored = pack_upper(np.asfortranarray(S * 29.0))
        upper = pack_upper(np.triu(S * 29.0))
        np.testing.assert_array_equal(mirrored, upper)
        assert shrink_packed(mirrored, 30, 29.0) == shrink_packed(upper, 30, 29.0)
        np.testing.assert_array_equal(mirrored, upper)
        _, _, shrunk_ref = oas_reference(S, 30)
        assert np.abs(unpack_upper(mirrored) - np.triu(shrunk_ref)).max() < 1e-10

    def test_non_finite_trace_of_square_raises(self):
        a = np.eye(5)
        a[1, 3] = np.inf
        with pytest.raises(NumericalError, match="not finite"):
            shrink_packed(pack_upper(a), 10)
        # finite entries whose squares overflow
        with pytest.raises(NumericalError, match="not finite"):
            shrink_packed(pack_upper(np.eye(4) * 1e200), 10)


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
            PrecisionModel(np.eye(3), ridge=0.0)
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
