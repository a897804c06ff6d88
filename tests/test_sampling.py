import numpy as np
import pytest

from tylerlaw import (
    ChiRadius,
    ConstantRadius,
    Coupling,
    PopulationSpec,
    ScaledFRootRadius,
    SignedChiRadius,
    derive_seed,
    sample_covariance,
    sample_population,
    sample_radius,
    sample_unit_sphere,
    splitmix64,
    symmetric_eigenvalues,
)


class TestUnitSphere:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 17, 200):
            u = sample_unit_sphere(d, rng, size=1)
            assert u.shape == (d, 1)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12

    def test_batch_unit_norms(self):
        rng = np.random.default_rng(1)
        u = sample_unit_sphere(5, rng, size=1000)
        assert u.shape == (5, 1000)
        np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)

    def test_dimension_one_is_a_fair_sign(self):
        rng = np.random.default_rng(2)
        u = sample_unit_sphere(1, rng, size=10_000)[0]
        assert set(np.unique(u)) == {-1.0, 1.0}
        assert abs(np.mean(u > 0) - 0.5) < 0.02

    def test_first_coordinate_moments(self):
        # exact sphere moments: E u1 = 0, E u1^2 = 1/d
        rng = np.random.default_rng(3)
        u1 = sample_unit_sphere(2, rng, size=100_000)[0]
        assert abs(u1.mean()) <= 0.02
        assert abs((u1**2).mean() - 0.5) <= 0.02

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_unit_sphere(0, rng, size=1)
        with pytest.raises(ValueError):
            sample_unit_sphere(3, rng, size=0)


class TestRadialLaws:
    def test_constant_is_exact(self):
        rng = np.random.default_rng(4)
        u = sample_unit_sphere(3, rng, size=1)
        r = sample_radius(ConstantRadius(2.0), u, Coupling.INDEPENDENT, rng)
        np.testing.assert_array_equal(r, [2.0])

    def test_constant_rejects_zero(self):
        with pytest.raises(ValueError):
            ConstantRadius(0.0)
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite and nonzero"):
                ConstantRadius(value)

    def test_chi_second_moment(self):
        # E chi2_4 = 4
        rng = np.random.default_rng(5)
        u = sample_unit_sphere(4, rng, size=100_000)
        r = sample_radius(ChiRadius(4), u, Coupling.INDEPENDENT, rng)
        assert r.min() >= 0
        assert abs((r**2).mean() - 4.0) <= 0.08

    def test_chi_gamma_branch(self):
        # above the switch point the gamma sampler must keep E chi2_df = df
        rng = np.random.default_rng(6)
        u = sample_unit_sphere(3, rng, size=50_000)
        r = sample_radius(ChiRadius(100), u, Coupling.INDEPENDENT, rng)
        assert abs((r**2).mean() / 100.0 - 1.0) <= 0.02

    def test_signed_chi_sign_balance(self):
        rng = np.random.default_rng(7)
        u = sample_unit_sphere(3, rng, size=100_000)
        r = sample_radius(SignedChiRadius(3), u, Coupling.INDEPENDENT, rng)
        assert abs(np.mean(r < 0) - 0.5) <= 0.01

    def test_scaled_f_root_positive(self):
        rng = np.random.default_rng(8)
        u = sample_unit_sphere(5, rng, size=10_000)
        r = sample_radius(ScaledFRootRadius(5, 1), u, Coupling.INDEPENDENT, rng)
        assert np.all(r > 0)
        assert np.all(np.isfinite(r))

    def test_sign_coupling_multiplier(self):
        # radius r0 * (1 + sign(u1)/2): 3/2 on u1 > 0, 1/2 on u1 < 0
        rng = np.random.default_rng(9)
        u = sample_unit_sphere(2, rng, size=1000)
        r = sample_radius(ConstantRadius(2.0), u, Coupling.SIGN_U1, rng)
        np.testing.assert_array_equal(np.unique(r[u[0] > 0]), [3.0])
        np.testing.assert_array_equal(np.unique(r[u[0] < 0]), [1.0])

    def test_unknown_law_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(TypeError, match="unknown radial law"):
            sample_radius("chi", sample_unit_sphere(3, rng, size=1), Coupling.INDEPENDENT, rng)

    def test_one_dimensional_u_rejected(self):
        # one unit vector must be passed as a (d, 1) array
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match=r"\(d, m\)"):
            sample_radius(ChiRadius(3), np.array([1.0, 0.0, 0.0]), Coupling.INDEPENDENT, rng)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChiRadius(0)
        with pytest.raises(ValueError):
            ScaledFRootRadius(3, 0)
        with pytest.raises(ValueError):
            SignedChiRadius(-1)


class TestSamplePopulation:
    def test_constant_radius_columns_on_sphere(self):
        spec = PopulationSpec(2, ConstantRadius(1.0), seed=11)
        X = sample_population(spec, 3)
        assert X.shape == (2, 3)
        np.testing.assert_allclose(np.linalg.norm(X, axis=0), 1.0, atol=1e-12)

    def test_same_seed_bit_identical(self):
        spec = PopulationSpec(7, ScaledFRootRadius(7, 1), Coupling.SIGN_U1, seed=123)
        X1 = sample_population(spec, 500)
        X2 = sample_population(spec, 500)
        np.testing.assert_array_equal(X1, X2)

    def test_different_seed_differs(self):
        a = sample_population(PopulationSpec(3, ChiRadius(3), seed=1), 10)
        b = sample_population(PopulationSpec(3, ChiRadius(3), seed=2), 10)
        assert not np.array_equal(a, b)

    def test_columns_nonzero(self):
        spec = PopulationSpec(4, SignedChiRadius(4), seed=21)
        X = sample_population(spec, 2000)
        assert np.linalg.norm(X, axis=0).min() > 0

    def test_chi_population_is_standard_normal(self):
        # chi(d) radius independent of the direction: X ~ N(0, I_d); the
        # sample covariance spectrum must hug 1 and the entry mean hug 0
        spec = PopulationSpec(5, ChiRadius(5), seed=31)
        X = sample_population(spec, 10_000)
        w = symmetric_eigenvalues(sample_covariance(X))
        assert w.min() >= 0.7 and w.max() <= 1.3
        spec10 = PopulationSpec(10, ChiRadius(10), seed=32)
        assert abs(sample_population(spec10, 10_000).mean()) <= 0.02

    def test_invalid_sample_size(self):
        with pytest.raises(ValueError):
            sample_population(PopulationSpec(2, ChiRadius(2), seed=0), 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PopulationSpec(0, ChiRadius(1))
        with pytest.raises(TypeError):
            PopulationSpec(2, "chi")
        with pytest.raises(TypeError):
            PopulationSpec(2, ChiRadius(2), coupling="independent")


class TestSeedDerivation:
    def test_splitmix64_reference_vector(self):
        # first output of the SplitMix64 stream seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_derive_seed_deterministic_and_distinct(self):
        seeds = {derive_seed(42, i, r) for i in range(8) for r in range(64)}
        assert len(seeds) == 8 * 64
        assert derive_seed(42, 3, 5) == derive_seed(42, 3, 5)
        assert derive_seed(42, 3, 5) != derive_seed(43, 3, 5)
        assert derive_seed(42, 5, 3) != derive_seed(42, 3, 5)

    def test_derive_seed_in_range(self):
        for s in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= derive_seed(s, 7, 11) < 2**64
