import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from tylerlaw import (
    MarchenkoPastur,
    Semicircle,
    esd_moment,
    ks_distance,
    sample_covariance,
    semicircle_moment,
    standardize,
    summarize,
    symmetric_eigenvalues,
    tyler,
)

SC = Semicircle()


def semicircle_quantile(p):
    return brentq(lambda x: SC.cdf(x) - p, -2.0, 2.0, xtol=1e-12)


class TestKsDistance:
    def test_point_mass_at_zero(self):
        assert ks_distance(np.zeros(5), SC) == pytest.approx(0.5)

    def test_disjoint_support(self):
        assert ks_distance(np.full(3, 5.0), SC) == pytest.approx(1.0)

    def test_quantile_construction_is_near_zero(self):
        # eigenvalues at the law's quantiles (i - 1/2)/d: the exact KS is
        # 1/(2d) up to the quantile solver error
        d = 1000
        lam = np.array([semicircle_quantile((i - 0.5) / d) for i in range(1, d + 1)])
        assert ks_distance(lam, SC) <= 0.002

    def test_mp_point_mass_included(self):
        # all eigenvalues at 0 vs MP(2): G(0) = 0.5 from the atom
        assert ks_distance(np.zeros(4), MarchenkoPastur(2.0)) == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_mp_atom_ignores_signs_of_null_eigenvalues(self, seed):
        # a (16, 8) sample covariance has 8 null eigenvalues that come out
        # as +/-1e-16 roundoff; MP(2) puts its mass-1/2 atom exactly at 0
        X = np.random.default_rng(seed).standard_normal((16, 8))
        lam = symmetric_eigenvalues(sample_covariance(X))
        null = np.abs(lam) <= 1e-12
        assert null.sum() == 8
        law = MarchenkoPastur(2.0)
        variants = [lam, np.where(null, np.abs(lam), lam), np.where(null, -np.abs(lam), lam),
                    np.where(null, 0.0, lam)]
        ks = [ks_distance(v, law) for v in variants]
        assert ks == [ks[0]] * len(ks)
        assert ks[0] < 0.5

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_bounds_against_continuous_law(self, seed, d):
        lam = np.sort(np.random.default_rng(seed).standard_normal(d) * 2.0)
        ks = ks_distance(lam, SC)
        assert 1.0 / (2 * d) <= ks <= 1.0


class TestEsdMoment:
    def test_trivial_values(self):
        lam = np.array([-1.0, 1.0])
        assert esd_moment(lam, 2) == 1.0
        assert esd_moment(lam, 3) == 0.0
        assert esd_moment(np.array([1.0, 2.0, 3.0]), 1) == 2.0

    def test_matches_trace_powers(self):
        # brute-force oracle: (1/d) tr(A^m) by repeated matrix multiplication
        rng = np.random.default_rng(17)
        for d in (2, 10, 50):
            A = rng.standard_normal((d, d))
            A = 0.5 * (A + A.T)
            lam = symmetric_eigenvalues(A)
            P = np.eye(d)
            for m in range(1, 5):
                P = P @ A
                oracle = np.trace(P) / d
                assert esd_moment(lam, m) == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_first_moment_of_standardized_trace_d_matrix(self):
        # tr(T) = d forces the first standardized moment to vanish
        rng = np.random.default_rng(23)
        d, n = 12, 240
        rep = tyler(rng.standard_normal((d, n)))
        lam = symmetric_eigenvalues(standardize(rep.estimate, n))
        assert abs(esd_moment(lam, 1)) <= 1e-9 * np.sqrt(n / d)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError, match="moment-overflow"):
            esd_moment(np.array([1e308]), 4)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            esd_moment(np.array([1.0]), 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [lambda lam: ks_distance(lam, SC), lambda lam: esd_moment(lam, 2), lambda lam: summarize(lam, SC)],
    ids=["ks_distance", "esd_moment", "summarize"],
)
def test_non_finite_eigenvalues_rejected(call, bad):
    # a nan used to give a nan KS (or "moment-overflow"), an inf a finite KS
    with pytest.raises(ValueError, match="non-finite-entry"):
        call(np.array([bad, 0.5]))


class TestSummarize:
    def test_zero_matrix(self):
        s = summarize(np.zeros(2), SC, max_moment=2)
        assert s.ks == pytest.approx(0.5)
        assert s.moments == (0.0, 0.0)
        assert s.lambda_min == 0.0 and s.lambda_max == 0.0
        assert s.spectral_norm == 0.0

    def test_pm_two(self):
        s = summarize(np.array([-2.0, 2.0]), SC, max_moment=2)
        assert s.lambda_min == -2.0 and s.lambda_max == 2.0
        assert s.moments[1] == pytest.approx(4.0)
        assert s.spectral_norm == 2.0

    def test_monte_carlo_trial_fields_finite(self):
        rng = np.random.default_rng(64)
        d, n = 64, 6400
        rep = tyler(rng.standard_normal((d, n)))
        lam = symmetric_eigenvalues(standardize(rep.estimate, n))
        s = summarize(lam, SC, max_moment=6)
        assert np.isfinite(s.ks) and len(s.moments) == 6
        assert np.all(np.isfinite(s.moments))
        assert s.spectral_norm == max(abs(s.lambda_min), abs(s.lambda_max))

    def test_round_trip_dict(self):
        s = summarize(np.array([-1.0, 0.5, 2.0]), SC, max_moment=3)
        assert type(s).from_dict(s.to_dict()) == s

    def test_moments_match_semicircle_at_modest_size(self):
        # sanity anchor for the convergence claims: even at d = 32 the second
        # moment is within a few percent of the Catalan value
        rng = np.random.default_rng(3)
        d, n = 32, 3200
        rep = tyler(rng.standard_normal((d, n)))
        lam = symmetric_eigenvalues(standardize(rep.estimate, n))
        assert abs(esd_moment(lam, 2) - semicircle_moment(2)) < 0.25
