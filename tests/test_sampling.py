import tracemalloc

import numpy as np
import pytest
from scipy.special import fdtr

from tylerlaw import (
    RADIAL_KINDS,
    ChiRadius,
    ConstantRadius,
    Coupling,
    ExperimentConfig,
    PopulationSpec,
    PopulationTemplate,
    ScaledFRootRadius,
    SignedChiRadius,
    derive_seed,
    run_trial,
    sample_covariance,
    sample_population,
    splitmix64,
    symmetric_eigenvalues,
)
from tylerlaw.sampling import _CHI_CHUNK, CHI_EXACT_DF_MAX, _chi_square


def unit_sphere(d, seed, m):
    """The directions U of every population drawn at this seed."""
    return sample_population(PopulationSpec(d, ConstantRadius(1.0), seed=seed), m)


class TestUnitSphere:
    def test_unit_norm(self):
        for d in (1, 2, 3, 17, 200):
            u = unit_sphere(d, 0, 1)
            assert u.shape == (d, 1)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12

    def test_batch_unit_norms(self):
        u = unit_sphere(5, 1, 1000)
        assert u.shape == (5, 1000)
        np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)

    def test_dimension_one_is_a_fair_sign(self):
        u = unit_sphere(1, 2, 10_000)[0]
        assert set(np.unique(u)) == {-1.0, 1.0}
        assert abs(np.mean(u > 0) - 0.5) < 0.02

    def test_first_coordinate_moments(self):
        # exact sphere moments: E u1 = 0, E u1^2 = 1/d
        u1 = unit_sphere(2, 3, 100_000)[0]
        assert abs(u1.mean()) <= 0.02
        assert abs((u1**2).mean() - 0.5) <= 0.02


class TestRadialLaws:
    def test_constant_is_exact(self):
        X = sample_population(PopulationSpec(3, ConstantRadius(2.0), seed=4), 1)
        np.testing.assert_array_equal(X, 2.0 * unit_sphere(3, 4, 1))
        np.testing.assert_array_equal(ConstantRadius(2.0).draw(np.random.default_rng(4), 1), [2.0])

    def test_constant_rejects_zero(self):
        with pytest.raises(ValueError):
            ConstantRadius(0.0)
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite and nonzero"):
                ConstantRadius(value)

    def test_chi_second_moment(self):
        # E chi2_4 = 4
        r = np.linalg.norm(sample_population(PopulationSpec(4, ChiRadius(4), seed=5), 100_000), axis=0)
        assert ChiRadius(4).draw(np.random.default_rng(5), 100_000).min() >= 0
        assert abs((r**2).mean() - 4.0) <= 0.08

    def test_chi_gamma_branch(self):
        # above the switch point the gamma sampler must keep E chi2_df = df
        r = np.linalg.norm(sample_population(PopulationSpec(3, ChiRadius(100), seed=6), 50_000), axis=0)
        assert abs((r**2).mean() / 100.0 - 1.0) <= 0.02

    @pytest.mark.parametrize("df", [1, 7, 63, 64])
    def test_chunked_chi_square_is_one_draw(self, df):
        # the normals pass through one buffer a chunk of rows at a time: every
        # chunk boundary keeps the bits of one (m, df) draw and its sums, and
        # the generator ends where that draw leaves it
        rows = _CHI_CHUNK // df
        for m in [0, 1, rows - 1, rows, rows + 1, 3 * rows + 5]:
            one, chunked = np.random.default_rng(m), np.random.default_rng(m)
            z = one.standard_normal((m, df))
            np.testing.assert_array_equal(_chi_square(chunked, df, m), np.einsum("ij,ij->i", z, z))
            assert chunked.bit_generator.state == one.bit_generator.state

    def test_signed_chi_sign_balance(self):
        r = SignedChiRadius(3).draw(np.random.default_rng(7), 100_000)
        assert abs(np.mean(r < 0) - 0.5) <= 0.01

    def test_scaled_f_root_positive(self):
        X = sample_population(PopulationSpec(5, ScaledFRootRadius(5, 1), seed=8), 10_000)
        r = np.linalg.norm(X, axis=0)
        assert np.all(r > 0)
        assert np.all(np.isfinite(r))

    @pytest.mark.parametrize("df, p", [(5, 1), (16, 3), (64, 1)])
    def test_scaled_f_root_follows_the_f_law(self, df, p):
        # R^2 / df ~ F_{df,p}: the one-sample KS statistic of 20000 draws
        # stays below the 1% critical value 1.628 / sqrt(n)
        n = 20_000
        x = np.sort(ScaledFRootRadius(df, p).draw(np.random.default_rng(df + p), n) ** 2 / df)
        cdf = fdtr(df, p, x)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert ks <= 1.628 / np.sqrt(n)

    def test_sign_coupling_multiplier(self):
        # radius r0 * (1 + sign(u1)/2): 3/2 on u1 > 0, 1/2 on u1 < 0
        X = sample_population(PopulationSpec(2, ConstantRadius(2.0), Coupling.SIGN_U1, seed=9), 1000)
        u = unit_sphere(2, 9, 1000)
        np.testing.assert_array_equal(X[:, u[0] > 0], 3.0 * u[:, u[0] > 0])
        np.testing.assert_array_equal(X[:, u[0] < 0], 1.0 * u[:, u[0] < 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ChiRadius(0)
        with pytest.raises(ValueError):
            ScaledFRootRadius(3, 0)
        with pytest.raises(ValueError):
            SignedChiRadius(-1)

    def test_signed_chi_is_its_own_kind(self):
        # signed chi is chi times a fair sign, yet a distinct radial law
        assert ChiRadius(4) != SignedChiRadius(4)
        assert RADIAL_KINDS["signed-chi"] is SignedChiRadius
        with pytest.raises(ValueError, match="SignedChiRadius 'df'"):
            SignedChiRadius(0)


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

    @pytest.mark.parametrize("d, n", [(5, 40), (CHI_EXACT_DF_MAX + 6, 20)])
    @pytest.mark.parametrize("coupling", list(Coupling))
    @pytest.mark.parametrize("kind", sorted(RADIAL_KINDS))
    def test_draw_order_pinned(self, kind, coupling, d, n):
        # sphere normals, then the radius draw, then the coupling multiplier:
        # the order fixes every bit of every trial; the larger d takes the
        # gamma branch of the chi-square
        params = RADIAL_KINDS[kind].params
        template = PopulationTemplate(
            kind, coupling, p=3 if "p" in params else None, c=-1.5 if "c" in params else None
        )
        spec = template.instantiate(d, 20260810 + d)
        rng = np.random.default_rng(spec.seed)
        z = rng.standard_normal((d, n))
        u = z / np.linalg.norm(z, axis=0)
        r = spec.radial.draw(rng, n)
        if coupling is Coupling.SIGN_U1:
            r = r * (1.0 + 0.5 * np.sign(u[0]))
        np.testing.assert_array_equal(sample_population(spec, n), u * r)

    @pytest.mark.parametrize("coupling", list(Coupling))
    def test_tyler_fields_do_not_depend_on_the_radius(self, coupling):
        # every radial law at one seed scales the same directions U, and
        # Tyler's estimate depends on U alone: its fields agree to roundoff
        # (relative 1e-12, with an absolute floor for the entries that are
        # zero up to roundoff, such as the first moment)
        results = []
        for kind, law in RADIAL_KINDS.items():
            population = PopulationTemplate(
                kind, coupling, p=1 if "p" in law.params else None, c=-1.5 if "c" in law.params else None
            )
            cfg = ExperimentConfig(
                population=population, schedule=((16, 160),), replicates=1, estimators=("tyler",),
                base_seed=20260810, save_spectra=True,
            )
            trial = run_trial(cfg, 0, 0)
            results.append((trial.results["tyler"], trial.spectra["tyler"]))
        (want, want_spectrum), rest = results[0], results[1:]
        assert len(rest) == len(RADIAL_KINDS) - 1 == 3
        for got, spectrum in rest:
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
            np.testing.assert_allclose(spectrum, want_spectrum, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got.residual, want.residual, rtol=1e-12, atol=1e-12)
            got_fields, want_fields = got.summary.to_dict(), want.summary.to_dict()
            for name, value in want_fields.items():
                np.testing.assert_allclose(got_fields[name], value, rtol=1e-12, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("d, n", [(1, 2), (3, 2), (9, 8), (16, 1600), (100, 120), (200, 9)])
    def test_directions_keep_numpy_norm_bits(self, d, n):
        # einsum's column sums of squares, summed row after row as
        # np.linalg.norm sums them whenever n >= 2
        z = np.random.default_rng(d + n).standard_normal((d, n))
        u = sample_population(PopulationSpec(d, ConstantRadius(1.0), seed=d + n), n)
        np.testing.assert_array_equal(u, z / np.linalg.norm(z, axis=0))

    @pytest.mark.parametrize(
        "d, coupling, law",
        [
            pytest.param(d, coupling, law, id=f"{d}-{coupling}" + ("" if law is ScaledFRootRadius else f"-{law.name}"))
            for law in (ScaledFRootRadius, ChiRadius, SignedChiRadius)
            for d in (20, 64)
            for coupling in Coupling
        ],
    )
    def test_draw_peaks_near_its_output(self, d, coupling, law):
        # the normals become U and then X in place, the t radius takes a few
        # length-n vectors and the chi radius a 64 KB buffer of normals: the
        # peak stays within 1.3x the output (a (d, n) temporary would make it 2x)
        spec = PopulationSpec(d, law(d, 1) if law is ScaledFRootRadius else law(d), coupling, seed=5)
        sample_population(spec, 100 * d)  # first-call allocations of numpy
        tracemalloc.start()
        try:
            X = sample_population(spec, 100 * d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * X.nbytes

    @pytest.mark.parametrize("coupling", list(Coupling))
    @pytest.mark.parametrize("kind", sorted(RADIAL_KINDS))
    def test_draw_into_out_keeps_the_bits(self, kind, coupling):
        params = RADIAL_KINDS[kind].params
        template = PopulationTemplate(kind, coupling, p=3 if "p" in params else None, c=-1.5 if "c" in params else None)
        spec = template.instantiate(12, 77)
        out = np.full(12 * 300 + 5, np.nan)
        X = sample_population(spec, 300, out)
        np.testing.assert_array_equal(X, sample_population(spec, 300))
        assert np.shares_memory(X, out) and X.flags.c_contiguous
        assert np.isnan(out[12 * 300 :]).all()  # only the first d n entries are written

    @pytest.mark.parametrize(
        "out",
        [
            np.empty(12 * 300 - 1), np.empty(12 * 300, dtype=np.float32), np.empty(2 * 12 * 300)[::2], np.empty((300, 12)).T,
            [0.0] * (12 * 300),
        ],
        ids=["too-small", "float32", "strided", "fortran", "list"],
    )
    def test_draw_rejects_an_unfit_out(self, out):
        with pytest.raises(ValueError, match="C-contiguous float64 array of at least 3600 entries"):
            sample_population(PopulationSpec(12, ChiRadius(12), seed=1), 300, out)

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
