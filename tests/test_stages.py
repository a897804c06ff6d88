"""The single stages of the README's "Library quick start", one at a time.

Sampling, Tyler's fit, spectra and the reference laws are library calls;
these tests run each stage alone on small hand-made inputs and pin what it
returns and what it rejects.
"""

import numpy as np
import pytest

from tylerlaw import (
    Coupling,
    MarchenkoPastur,
    NoConvergenceError,
    PopulationTemplate,
    Semicircle,
    law_from_dict,
    sample_population,
    standardize,
    symmetric_eigenvalues,
    tyler,
)


def chi_sample(d=4, n=200, seed=7):
    return sample_population(PopulationTemplate("chi").instantiate(d, seed), n)


class TestSampleStage:
    def test_shape_and_determinism(self):
        X = chi_sample()
        assert X.shape == (4, 200)
        assert np.isfinite(X).all()
        assert chi_sample().tobytes() == X.tobytes()

    def test_cauchy_sign_coupled_population(self):
        template = PopulationTemplate("scaled-f-root", Coupling("sign-u1"), p=1)
        X = sample_population(template.instantiate(3, 1), 30)
        assert X.shape == (3, 30)
        assert np.isfinite(X).all()

    def test_unused_parameter_rejected(self):
        with pytest.raises(ValueError, match="radial 'chi' does not take 'p'"):
            PopulationTemplate("chi", p=7)

    def test_constant_requires_value(self):
        with pytest.raises(ValueError, match="radial 'constant' requires 'c'"):
            PopulationTemplate("constant")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_constant_rejects_non_finite_value(self, value):
        with pytest.raises(ValueError, match="finite and nonzero"):
            PopulationTemplate("constant", c=value)


class TestTylerStage:
    def test_fit_and_diagnostics(self):
        report = tyler(chi_sample())
        assert report.converged
        assert report.residual <= 1e-8
        assert report.estimate.shape == (4, 4)
        assert abs(np.trace(report.estimate) - 4) <= 1e-9

    def test_iteration_cap_is_no_convergence(self):
        # not a ValueError: the CLI maps this class to a numerical failure
        with pytest.raises(NoConvergenceError) as exc:
            tyler(chi_sample(), tol=1e-15, max_iter=1)
        assert not isinstance(exc.value, ValueError)
        assert exc.value.report.iterations == 1

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be finite"):
            tyler(chi_sample(), tol=np.nan)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="dimension-exceeds-sample"):
            tyler(np.eye(3)[:, :2])

    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError, match="non-finite-entry"):
            tyler(np.array([[1.0, 0.0, np.nan], [0.0, 1.0, 1.0]]))


class TestSpectrumStage:
    def test_eigenvalues_ascending(self):
        assert symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])).tolist() == [1.0, 2.0, 3.0]

    def test_rejects_a_non_symmetric_matrix(self):
        # the eigensolver reads one triangle: [[1, 2], [3, 4]] would come out
        # as -0.854 and 5.854 where its eigenvalues are -0.372 and 5.372
        with pytest.raises(ValueError, match="non-symmetric"):
            symmetric_eigenvalues(np.array([[1.0, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("kind", ["exact", "gram", "rotated"])
    def test_accepts_symmetric_matrices(self, kind):
        # a rotated diagonal Q D Q^t is symmetric only to roundoff
        rng = np.random.default_rng(0)
        B = rng.standard_normal((50, 80))
        Q = np.linalg.qr(B[:, :50])[0]
        A, expected = {
            "exact": (np.diag(np.arange(50.0)), np.arange(50.0)),
            "gram": (B @ B.T, np.linalg.eigvalsh(B @ B.T)),
            "rotated": ((Q * np.arange(1.0, 51.0)) @ Q.T, np.arange(1.0, 51.0)),
        }[kind]
        lam = symmetric_eigenvalues(A)
        np.testing.assert_allclose(lam, expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    def test_standardize_requires_a_sample_size(self):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            standardize(np.eye(2), 0)

    def test_standardized_identity_is_zero(self):
        assert symmetric_eigenvalues(standardize(np.eye(2), 8)).tolist() == [0.0, 0.0]


class TestLawStage:
    def test_semicircle_on_a_grid(self):
        x = np.linspace(-2.0, 2.0, 9)
        law = Semicircle()
        root = np.sqrt(4.0 - x**2)
        np.testing.assert_allclose([law.pdf(v) for v in x], root / (2 * np.pi), rtol=0, atol=1e-12)
        cdf = 0.5 + x * root / (4 * np.pi) + np.arcsin(x / 2) / np.pi
        np.testing.assert_allclose(law.cdf(x), cdf, rtol=0, atol=1e-12)

    def test_mp_point_mass_on_a_grid(self):
        law = MarchenkoPastur(2.0)
        with pytest.raises(ValueError):
            law.pdf(0.0)  # the point mass has no density
        assert law.cdf(0.0) == 0.5  # but the cdf includes it
        a, b = (1 - np.sqrt(2.0)) ** 2, (1 + np.sqrt(2.0)) ** 2
        density = np.sqrt((b - 0.5) * (0.5 - a)) / (2 * np.pi * 2.0 * 0.5)
        assert law.pdf(0.5) == pytest.approx(density, abs=1e-12)

    def test_mp_requires_y(self):
        with pytest.raises(ValueError, match="requires the 'y' key"):
            law_from_dict({"law": "mp"})

    def test_infinite_mp_ratio_rejected(self):
        with pytest.raises(ValueError, match="MP ratio y must be finite"):
            MarchenkoPastur(np.inf)
        with pytest.raises(ValueError, match="MP ratio y must be finite"):
            law_from_dict({"law": "mp", "y": float("inf")})

    def test_semicircle_rejects_y(self):
        with pytest.raises(ValueError, match=r"keys: \['y'\]"):
            law_from_dict({"law": "semicircle", "y": 3})
