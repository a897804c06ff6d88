import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from tylerlaw import spectral_norm, standardize, symmetric_eigenvalues, tyler_residual


def random_symmetric(rng, d, scale=1.0):
    A = rng.standard_normal((d, d)) * scale
    return 0.5 * (A + A.T)


class TestEigenvalues:
    def test_diagonal(self):
        np.testing.assert_allclose(symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_off_diagonal(self):
        np.testing.assert_allclose(
            symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0], atol=1e-15
        )

    def test_two_by_two_hand_computed(self):
        # char poly (2 - t)^2 - 1 = 0  ->  t = 1, 3
        np.testing.assert_allclose(
            symmetric_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [1.0, 3.0], atol=1e-14
        )

    def test_sorted_ascending(self):
        rng = np.random.default_rng(5)
        w = symmetric_eigenvalues(random_symmetric(rng, 40))
        assert np.all(np.diff(w) >= 0)

    def test_trace_consistency(self):
        rng = np.random.default_rng(11)
        for d in (1, 5, 30, 120):
            A = random_symmetric(rng, d, scale=3.0)
            w = symmetric_eigenvalues(A)
            assert abs(w.sum() - np.trace(A)) <= 1e-9 * d * max(spectral_norm(A), 1.0)

    def test_non_finite_entries_rejected(self):
        A = np.eye(3)
        A[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite-entry"):
            symmetric_eigenvalues(A)
        A[0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite-entry"):
            spectral_norm(A)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.ones((2, 3)))

    @pytest.mark.parametrize("d", [4, 16, 64, 100])
    def test_agrees_with_numpy_eigvalsh(self, d):
        # scipy's dsyevd and numpy's eigvalsh may round differently at d >= 64
        A = random_symmetric(np.random.default_rng(d), d)
        w, want = symmetric_eigenvalues(A), np.linalg.eigvalsh(A)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [64, 100, 200])
    def test_is_scipy_dsyevd_lower_without_vectors_bit_for_bit(self, d):
        # Q D Q^t unsymmetrized: its triangles differ by roundoff, so reading
        # the upper one changes bits, and so do computing the eigenvectors and
        # a work array larger than f2py's default 2d + 1
        rng = np.random.default_rng(d)
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        A = (Q * np.linspace(-2.0, 3.0, d)) @ Q.T
        assert not np.array_equal(A, A.T)
        want = lapack.dsyevd(A, compute_v=0, lower=1)[0]
        assert symmetric_eigenvalues(A).tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", ["c", "strided", "readonly", "fortran"])
    def test_reads_any_layout_as_its_lower_triangle_and_leaves_it(self, layout):
        # a C-ordered array read as Fortran-ordered would give the upper
        # triangle's bits; a solver that overwrites its input would destroy it
        Q = np.linalg.qr(np.random.default_rng(7).standard_normal((64, 64)))[0]
        A = (Q * np.linspace(-2.0, 3.0, 64)) @ Q.T
        strided = np.zeros((128, 192))
        strided[::2, ::3] = A
        given = {"c": A, "strided": strided[::2, ::3], "readonly": np.asfortranarray(A), "fortran": np.asfortranarray(A)}[layout]
        given.flags.writeable = layout != "readonly"
        want = lapack.dsyevd(np.asfortranarray(A), compute_v=0, lower=1)[0]
        assert symmetric_eigenvalues(given).tobytes() == want.tobytes()
        assert given.tobytes() == A.tobytes()

    def test_empty_matrix_has_no_eigenvalues(self):
        w = symmetric_eigenvalues(np.zeros((0, 0)))
        assert w.shape == (0,) and w.dtype == np.float64


class TestSpectralNorm:
    def test_examples(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == 5.0
        assert spectral_norm(np.zeros((4, 4))) == 0.0
        assert spectral_norm(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-15)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_weyl_eigenvalue_perturbation(self, seed, d):
        # |lambda_i(A) - lambda_i(B)| <= ||A - B||_2 for every i
        rng = np.random.default_rng(seed)
        A = random_symmetric(rng, d, scale=2.0)
        B = random_symmetric(rng, d, scale=2.0)
        gap = np.abs(symmetric_eigenvalues(A) - symmetric_eigenvalues(B))
        bound = spectral_norm(A - B)
        assert np.all(gap <= bound + 1e-10 * max(1.0, bound))


class TestStandardize:
    def test_identity_maps_to_zero(self):
        for d, n in ((1, 1), (3, 7), (10, 1000)):
            np.testing.assert_array_equal(standardize(np.eye(d), n), np.zeros((d, d)))

    def test_scaling_example(self):
        # sqrt(8/2) = 2
        out = standardize(np.diag([1.1, 0.9]), 8)
        np.testing.assert_allclose(out, np.diag([0.2, -0.2]), atol=1e-15)

    def test_affine_exactness(self):
        rng = np.random.default_rng(3)
        for d, n in ((2, 5), (7, 7), (20, 400)):
            A = random_symmetric(rng, d, scale=4.0)
            s = np.sqrt(n / d)
            resid = standardize(A, n) + s * np.eye(d) - s * A
            assert np.max(np.abs(resid)) <= 1e-13 * s * (1.0 + np.max(np.abs(A)))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            standardize(np.eye(2), 0)
        with pytest.raises(ValueError):
            standardize(np.ones((2, 3)), 5)



def _residual_with_data(A):
    rng = np.random.default_rng(1)
    return tyler_residual(rng.standard_normal((A.shape[0], 3 * A.shape[0])), A)


@pytest.mark.parametrize(
    "entry",
    [symmetric_eigenvalues, spectral_norm, lambda A: standardize(A, 10), _residual_with_data],
    ids=["symmetric_eigenvalues", "spectral_norm", "standardize", "tyler_residual"],
)
def test_symmetry_is_decided_at_every_entry_point(entry):
    # each reads one triangle, so [[1, 1], [0, 1]] would pass for [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="non-symmetric"):
        entry(np.array([[1.0, 1.0], [0.0, 1.0]]))
    # a rotated diagonal Q D Q^t is symmetric only to roundoff
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((50, 50)))[0]
    A = (Q * np.arange(1.0, 51.0)) @ Q.T
    assert not np.array_equal(A, A.T)
    entry(A)
