import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from tylerlaw import MarchenkoPastur, Semicircle, semicircle_moment

SC = Semicircle()


class TestSemicircle:
    def test_pdf_values(self):
        assert SC.pdf(0.0) == pytest.approx(1.0 / np.pi, abs=1e-15)
        assert SC.pdf(2.0) == 0.0
        assert SC.pdf(-2.0) == 0.0
        assert SC.pdf(3.0) == 0.0
        assert SC.pdf(-5.0) == 0.0

    def test_support(self):
        assert SC.support() == (-2.0, 2.0)

    def test_cdf_anchor_points(self):
        assert SC.cdf(0.0) == 0.5
        assert SC.cdf(-2.0) == 0.0
        assert SC.cdf(2.0) == 1.0
        assert SC.cdf(-7.0) == 0.0
        assert SC.cdf(7.0) == 1.0

    def test_cdf_at_one(self):
        # quadrature of the density is the oracle for the closed form
        oracle = quad(SC.pdf, -2.0, 1.0, epsabs=1e-13, limit=200)[0]
        assert SC.cdf(1.0) == pytest.approx(oracle, abs=1e-10)
        assert SC.cdf(1.0) == pytest.approx(0.8044988905221149, abs=1e-12)

    def test_cdf_matches_quadrature_on_grid(self):
        xs = np.linspace(-2.0, 2.0, 1000)
        for x in xs:
            oracle = quad(SC.pdf, -2.0, x, epsabs=1e-13, limit=200)[0]
            assert abs(SC.cdf(x) - oracle) <= 1e-9

    def test_cdf_vectorized_and_monotone(self):
        xs = np.linspace(-3.0, 3.0, 401)
        cs = SC.cdf(xs)
        assert cs.shape == xs.shape
        assert np.all(np.diff(cs) >= 0)

    @pytest.mark.parametrize("m", range(11))
    def test_moment_vs_quadrature(self, m):
        oracle = quad(lambda t: t**m * SC.pdf(t), -2.0, 2.0, epsabs=1e-12, limit=200)[0]
        assert semicircle_moment(m) == pytest.approx(oracle, abs=1e-8)

    def test_moments_odd_zero_even_catalan(self):
        assert [semicircle_moment(m) for m in (1, 3, 5, 9)] == [0.0, 0.0, 0.0, 0.0]
        assert [semicircle_moment(m) for m in (0, 2, 4, 6, 8, 10)] == [1.0, 1.0, 2.0, 5.0, 14.0, 42.0]

    def test_moment_rejects_negative_order(self):
        with pytest.raises(ValueError):
            semicircle_moment(-1)


class TestMarchenkoPastur:
    @pytest.mark.parametrize("y", [0.1, 0.25, 0.5, 1.0, 2.0])
    def test_continuous_mass(self, y):
        mp = MarchenkoPastur(y)
        lo, hi = mp.support()
        mass = quad(mp.pdf, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=400)[0]
        assert mass == pytest.approx(1.0 - mp.point_mass_at_zero, abs=1e-8)

    @pytest.mark.parametrize("y", [0.1, 0.25, 0.5, 1.0, 2.0])
    def test_mean_is_one(self, y):
        # the point mass at zero contributes nothing to the mean
        mp = MarchenkoPastur(y)
        lo, hi = mp.support()
        mean = quad(lambda t: t * mp.pdf(t), lo, hi, epsabs=1e-12, epsrel=1e-12, limit=400)[0]
        assert mean == pytest.approx(1.0, abs=1e-6)

    def test_point_mass(self):
        assert MarchenkoPastur(0.1).point_mass_at_zero == 0.0
        assert MarchenkoPastur(1.0).point_mass_at_zero == 0.0
        assert MarchenkoPastur(2.0).point_mass_at_zero == 0.5
        assert MarchenkoPastur(4.0).point_mass_at_zero == 0.75

    def test_support_edges(self):
        assert MarchenkoPastur(0.25).support() == (0.25, 2.25)
        assert MarchenkoPastur(1.0).support() == (0.0, 4.0)

    def test_pdf_value_inside_support(self):
        # hand plug-in at x = 1, y = 1/4
        assert MarchenkoPastur(0.25).pdf(1.0) == pytest.approx(
            (2.0 / np.pi) * np.sqrt(0.9375), abs=1e-14
        )

    def test_pdf_outside_support(self):
        mp = MarchenkoPastur(0.25)
        assert mp.pdf(0.1) == 0.0
        assert mp.pdf(3.0) == 0.0
        assert mp.pdf(-1.0) == 0.0
        assert mp.pdf(0.0) == 0.0  # y < 1: zero is outside the support

    @pytest.mark.parametrize("y", [1.0, 2.0])
    def test_pdf_rejects_point_mass_location(self, y):
        with pytest.raises(ValueError, match="invalid-argument"):
            MarchenkoPastur(y).pdf(0.0)
        with pytest.raises(ValueError, match="invalid-argument"):
            MarchenkoPastur(y).pdf(np.array([0.5, 0.0]))

    def test_cdf_includes_point_mass(self):
        mp = MarchenkoPastur(2.0)
        assert mp.cdf(0.0) == 0.5
        assert mp.cdf(-0.5) == 0.0
        assert mp.cdf(0.1) == 0.5  # between the atom and the continuous part
        assert mp.cdf(mp.a_plus) == 1.0
        assert mp.cdf(100.0) == 1.0

    def test_cdf_matches_direct_quadrature(self):
        mp = MarchenkoPastur(0.5)
        lo, _ = mp.support()
        for x in (0.3, 0.9, 1.7, 2.5):
            oracle = quad(mp.pdf, lo, x, epsabs=1e-12, limit=400)[0]
            assert mp.cdf(x) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("y", [0.01, 0.25, 5 / 6, 1.0, 2.0, 5.0])
    def test_cdf_matches_quadrature_up_to_the_edges(self, y):
        # oracle: the density after x = a_minus + span sin^2(theta), which has
        # no square-root edges, integrated at near machine precision
        mp = MarchenkoPastur(y)
        am, ap = mp.support()
        span = ap - am

        def integrand(theta):
            s = np.sin(theta)
            return span**2 * np.sin(2 * theta) ** 2 / (4 * np.pi * y * (am + span * s * s))

        xs = am + span * np.array([1e-12, 1e-6, 0.3, 0.7, 1 - 1e-6, 1 - 1e-12])
        for x, got in zip(xs, mp.cdf(xs)):
            top = np.arcsin(np.sqrt((x - am) / span))
            want = mp.point_mass_at_zero + quad(integrand, 0.0, top, epsabs=1e-14, epsrel=1e-13, limit=400)[0]
            assert got == pytest.approx(want, abs=1e-12)

    def test_cdf_vectorized_matches_scalar(self):
        mp = MarchenkoPastur(2.0)
        xs = np.linspace(-0.5, 7.0, 101)
        assert np.array_equal(mp.cdf(xs), [mp.cdf(float(x)) for x in xs])
        assert isinstance(mp.cdf(1.0), float)

    def test_cdf_monotone(self):
        for y in (0.25, 2.0):
            mp = MarchenkoPastur(y)
            xs = np.linspace(-1.0, mp.a_plus + 1.0, 200)
            cs = mp.cdf(xs)
            assert np.all(np.diff(cs) >= -1e-12)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            MarchenkoPastur(0.0)
        with pytest.raises(ValueError):
            MarchenkoPastur(-1.0)


def test_import_does_not_load_quadrature():
    code = "import sys, tylerlaw; sys.exit('scipy.integrate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
