import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, blas, cho_factor, cho_solve, lapack

from tylerlaw import (
    ChiRadius,
    NoConvergenceError,
    PopulationSpec,
    ScaledFRootRadius,
    estimators,
    sample_covariance,
    sample_population,
    symmetric_eigenvalues,
    tyler,
    tyler_residual,
)

TOL = 1e-9


def reference_rhs(X, omega, work=None):
    # the kernel with numpy's Gram product, symmetrized afterwards: the
    # oracle for estimators._tyler_rhs, with its signature (omega None is
    # the identity; the reference needs no workspace)
    d, n = X.shape
    omega = np.eye(d) if omega is None else omega
    q = np.einsum("ij,ij->j", X, cho_solve(cho_factor(omega, lower=True), X))
    Y = X / np.sqrt(q)
    G = (d / n) * (Y @ Y.T)
    return 0.5 * (G + G.T)


def f2py_rhs(X, omega):
    # the kernel's steps made with scipy's f2py wrappers and numpy: the bits
    # estimators._tyler_rhs promises
    d, n = X.shape
    L = lapack.dtrtri(lapack.dpotrf(omega, lower=1, clean=0)[0], lower=1)[0]
    Z = blas.dtrmm(1.0, L, X.T, side=1, lower=1, trans_a=1)
    Y = X / np.sqrt(np.einsum("ij,ij->i", Z, Z))
    G = blas.dsyrk(1.0, Y.T, trans=1)
    G = G + G.T
    G.flat[:: d + 1] *= 0.5
    return G * (d / n)


def cauchy_scaled_sample(seed, d, n):
    # Gaussian columns scaled by Cauchy draws, which the fit ignores
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, n)) * rng.standard_cauchy(n)


def scaled_identity_data(d):
    # columns sqrt(d) * e_j: sample covariance and Tyler estimate are both I
    return np.sqrt(d) * np.eye(d)


class TestSampleCovariance:
    def test_scaled_identity(self):
        np.testing.assert_allclose(sample_covariance(scaled_identity_data(4)), np.eye(4), atol=1e-15)

    def test_single_column(self):
        S = sample_covariance(np.array([[1.0], [1.0]]))
        np.testing.assert_allclose(S, np.ones((2, 2)), atol=1e-15)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 40))
        S = sample_covariance(X)
        np.testing.assert_array_equal(S, S.T)
        w = symmetric_eigenvalues(S)
        assert w.min() >= -1e-12 * np.trace(S)

    @pytest.mark.parametrize("d, n", [(16, 1600), (64, 6400)])
    def test_bit_equal_to_symmetrized_numpy_product(self, d, n):
        X = np.random.default_rng(d).standard_normal((d, n))
        S = (X @ X.T) / n
        np.testing.assert_array_equal(sample_covariance(X), 0.5 * (S + S.T))

    def test_gaussian_concentration(self):
        X = sample_population(PopulationSpec(10, ChiRadius(10), seed=42), 100_000)
        w = symmetric_eigenvalues(sample_covariance(X) - np.eye(10))
        assert max(abs(w[0]), abs(w[-1])) <= 0.05

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, bad):
        X = np.eye(3)
        X[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite-entry"):
            sample_covariance(X)


class TestTyler:
    def test_dimension_one(self):
        rep = tyler(np.array([[0.5, -2.0, 3.0]]))
        np.testing.assert_allclose(rep.estimate, [[1.0]])
        assert rep.iterations == 1
        assert rep.converged

    def test_scaled_identity_fixed_point(self):
        # three unit vectors 120 degrees apart, scaled by 3, form a tight
        # frame: (2/3) * sum_j u_j u_j^t = I, so the fit starts at its fixed point
        angles = 2 * np.pi * np.arange(3) / 3
        rep = tyler(3 * np.array([np.cos(angles), np.sin(angles)]))
        np.testing.assert_allclose(rep.estimate, np.eye(2), atol=1e-12)
        assert rep.iterations == 1

    def test_cauchy_sample(self):
        X = sample_population(PopulationSpec(5, ScaledFRootRadius(5, 1), seed=7), 500)
        rep = tyler(X)
        assert rep.converged
        assert rep.residual <= 1e-8
        w = symmetric_eigenvalues(rep.estimate)
        assert w.min() > 0 and w.max() < 5
        assert abs(np.trace(rep.estimate) - 5) <= 1e-10 * 5

    def test_trace_normalization(self):
        rng = np.random.default_rng(1)
        for d in (2, 8, 20):
            X = rng.standard_normal((d, 10 * d))
            rep = tyler(X)
            assert abs(np.trace(rep.estimate) - d) <= 1e-10 * d

    def test_step_history_finite_and_converged(self):
        X = sample_population(PopulationSpec(6, ChiRadius(6), seed=3), 120)
        rep = tyler(X)
        steps = np.array(rep.step_history)
        assert len(steps) == rep.iterations
        assert np.all(np.isfinite(steps))
        assert steps[-1] <= TOL
        assert rep.residual <= 10 * TOL * 6

    def test_radial_scale_invariance(self):
        # each summand X_j X_j^t / (X_j^t T^{-1} X_j) is invariant under
        # X_j -> c_j X_j, including negative c_j
        rng = np.random.default_rng(5)
        X = sample_population(PopulationSpec(6, ChiRadius(6), seed=9), 90)
        scales = rng.uniform(0.2, 5.0, size=90) * rng.choice([-1.0, 1.0], size=90)
        base = tyler(X).estimate
        scaled = tyler(X * scales).estimate
        assert np.max(np.abs(base - scaled)) <= 1e-8

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        ratio=st.integers(2, 12),
        factor=st.sampled_from([1.0, 1e160, 1e-160, 1e200, 1e-200]),
    )
    @example(seed=0, d=4, ratio=10, factor=1e160)
    @example(seed=0, d=4, ratio=10, factor=1e-160)
    @example(seed=0, d=4, ratio=10, factor=1e200)
    @example(seed=0, d=4, ratio=10, factor=1e-200)
    @example(seed=35, d=2, ratio=2, factor=1.0)
    @example(seed=89, d=2, ratio=2, factor=1.0)
    @example(seed=282, d=2, ratio=2, factor=1.0)
    @settings(max_examples=40, deadline=None)
    def test_column_permutation_and_signed_rescaling_invariance(self, seed, d, ratio, factor):
        # the shape equation sums over columns and each summand ignores the
        # column's scale and sign, so reordering and rescaling the columns
        # leaves the fixed point where it was; an extreme factor on about
        # half the columns makes their squares overflow or underflow unless
        # the fit handles column scales exactly
        rng = np.random.default_rng(seed)
        n = ratio * d
        X = rng.standard_normal((d, n)) * rng.standard_cauchy(n)
        scales = rng.uniform(0.1, 10.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        scales[rng.random(n) < 0.5] *= factor
        T = tyler(X).estimate
        moved = tyler(X[:, rng.permutation(n)] * scales).estimate
        assert np.linalg.norm(moved - T) <= 10 * TOL * np.linalg.norm(T)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), ratio=st.integers(2, 12))
    @example(seed=35, d=2, ratio=2)
    @example(seed=89, d=2, ratio=2)
    @example(seed=282, d=2, ratio=2)
    @settings(max_examples=40, deadline=None)
    def test_orthogonal_equivariance(self, seed, d, ratio):
        # the iteration starts at I = Q I Q^t and each step commutes with
        # X -> Q X, so the fit of the rotated sample is the rotated fit
        rng = np.random.default_rng(seed)
        n = ratio * d
        X = rng.standard_normal((d, n)) * rng.standard_cauchy(n)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        T = tyler(X).estimate
        bound = 10 * TOL * np.linalg.norm(T)
        assert np.linalg.norm(tyler(Q @ X).estimate - Q @ T @ Q.T) <= bound
        # the transported matrix solves the rotated fixed-point equation
        # within sqrt(tol) ||T||_F, and as well as T solves the original one
        residual = tyler_residual(Q @ X, Q @ T @ Q.T)
        assert residual <= np.sqrt(TOL) * np.linalg.norm(T)
        assert abs(residual - tyler_residual(X, T)) <= bound

    @pytest.mark.parametrize("d, n", [(100, 105), (100, 120), (64, 6400)])
    def test_converged_fit_solves_the_equation_to_tol(self, d, n):
        # converged means the stop rule ||F(T) - T||_F <= tol ||T||_F held;
        # the independent checker must see the same on the returned estimate
        X = sample_population(PopulationSpec(d, ScaledFRootRadius(d, 1), seed=n), n)
        rep = tyler(X, tol=TOL)
        assert rep.converged
        assert tyler_residual(X, rep.estimate) <= TOL * np.linalg.norm(rep.estimate)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), ratio=st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_converged_fit_solves_the_equation_on_small_samples(self, seed, d, ratio):
        X = cauchy_scaled_sample(seed, d, ratio * d)
        rep = tyler(X, tol=TOL)
        assert rep.converged
        assert tyler_residual(X, rep.estimate) <= TOL * np.linalg.norm(rep.estimate)

    def test_anderson_evaluation_counts(self):
        # the plain map needs 120-123 evaluations at (100, 120) and up to
        # 8071 on (2, 4) samples; these counts hold only while the
        # extrapolation is accepted, so an Anderson step that silently
        # falls back to plain steps fails here
        counts = [tyler(np.random.default_rng(s).standard_normal((100, 120))).iterations for s in range(4)]
        assert counts == [22, 18, 19, 21]
        for s in range(4):
            assert tyler(np.random.default_rng(s).standard_normal((100, 105))).iterations <= 38
        assert max(tyler(cauchy_scaled_sample(s, 2, 4)).iterations for s in range(400)) <= 46

    def test_requires_enough_observations(self):
        with pytest.raises(ValueError, match="dimension-exceeds-sample"):
            tyler(np.ones((3, 2)))

    def test_square_sample_rejected(self):
        # at n = d > 1 every X D X^t with D positive diagonal solves the shape
        # equation: the line of each column holds n/d = 1 of the points, which
        # Tyler's existence condition forbids
        with pytest.raises(ValueError, match="dimension-exceeds-sample: .*requires n > d"):
            tyler(np.random.default_rng(5).standard_normal((5, 5)))

    def test_rejects_zero_column(self):
        X = np.eye(3)
        X[:, 1] = 0.0
        with pytest.raises(ValueError, match="zero-column"):
            tyler(np.hstack([X, np.eye(3)]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, bad):
        X = np.hstack([np.eye(3), np.eye(3)])
        X[0, 4] = bad
        with pytest.raises(ValueError, match="non-finite-entry"):
            tyler(X)

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            tyler(scaled_identity_data(2), tol=0.0)
        with pytest.raises(ValueError):
            tyler(scaled_identity_data(2), max_iter=0)
        # a nan tol fails every comparison, so the loop would stop at once
        # and report the identity as converged
        for tol in (np.nan, np.inf):
            with pytest.raises(ValueError, match="tol must be finite"):
                tyler(scaled_identity_data(3), tol=tol)

    def test_no_convergence_on_subspace_data(self):
        # every observation on one line: the iterate collapses to rank one
        # and its residual cannot be evaluated.  pytest.raises passes any
        # other exception through, so a LinAlgError or ValueError from the
        # kernel would fail here
        X = np.zeros((2, 4))
        X[0] = 1.0
        with pytest.raises(NoConvergenceError, match="lost positive definiteness") as exc:
            tyler(X)
        report = exc.value.report
        assert not report.converged
        assert report.residual == np.inf
        assert abs(np.trace(report.estimate) - 2) <= 1e-10 * 2
        # 28 of 30 columns on e1 (d = 3): the residual never meets tol
        # while the iterate degenerates
        X = np.random.default_rng(22).standard_normal((3, 30))
        X[1:, :28] = 0.0
        with pytest.raises(NoConvergenceError, match="no-convergence") as exc:
            tyler(X)
        assert not exc.value.report.converged

    def test_rejects_columns_concentrated_on_a_line(self):
        # 30 of 40 columns on e1 (d = 4) break Tyler's existence condition
        # (n/d = 10 or more on a line), so no estimate solves the equation
        # and the residual never meets tol
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 40))
        X[1:, :30] = 0.0
        with pytest.raises(NoConvergenceError, match="no-convergence") as exc:
            tyler(X)
        report = exc.value.report
        assert not report.converged
        assert report.residual > 1.0
        assert abs(np.trace(report.estimate) - 4) <= 1e-10 * 4

    def test_no_convergence_on_iteration_cap(self):
        # every cap below the converging count stops at exactly that many
        # evaluations, after the same ones as the uncapped fit, and reports
        # the residual of the estimate it returns.  The (2, 4) fits reject
        # extrapolations, seed 0's at evaluation 4 (13 in all) and seed
        # 282's at 3, 5 and 9 (40 in all), so some caps fall right after one
        samples = [
            (sample_population(PopulationSpec(4, ChiRadius(4), seed=12), 40), 1e-15),
            (cauchy_scaled_sample(0, 2, 4), TOL),
            (cauchy_scaled_sample(282, 2, 4), TOL),
        ]
        for X, tol in samples:
            full = tyler(X, tol=tol)
            assert full.converged
            for k in range(1, full.iterations):
                message = f"no-convergence: {k} iterations without meeting tol="
                with pytest.raises(NoConvergenceError, match=message) as exc:
                    tyler(X, tol=tol, max_iter=k)
                report = exc.value.report
                assert report.iterations == k
                assert not report.converged
                assert np.isfinite(report.residual)
                assert report.step_history == full.step_history[:k]
                assert report.residual == tyler_residual(X, report.estimate)


class TestTylerResidual:
    def test_zero_at_fixed_point(self):
        assert tyler_residual(scaled_identity_data(3), np.eye(3)) <= 1e-14

    def test_orthogonal_columns_make_any_diagonal_a_fixed_point(self):
        # with X = sqrt(2) I (n = d) every diagonal PD matrix solves the
        # fixed-point equation, so this residual is exactly zero
        assert tyler_residual(scaled_identity_data(2), np.diag([1.5, 0.5])) <= 1e-14

    def test_hand_computed_positive_residual(self):
        # columns (1,0) and (1,1) with shape I: quadratic forms 1 and 2,
        # rhs = [[3/2, 1/2], [1/2, 1/2]], defect Frobenius norm exactly 1
        X = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert tyler_residual(X, np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_tyler_output_satisfies_contract(self):
        X = sample_population(PopulationSpec(4, ChiRadius(4), seed=8), 200)
        rep = tyler(X)
        assert tyler_residual(X, rep.estimate) <= 10 * TOL * 4

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-200, -1e300])
    def test_ignores_column_scales_like_the_fit(self, scale):
        # each summand is invariant under X_j -> c X_j, so the residual of
        # the fitted shape must not move when one column is scaled, however
        # far; squaring such a column overflows or underflows without the
        # power-of-two rescale tyler() applies
        X = np.random.default_rng(0).standard_normal((4, 40))
        shape = tyler(X).estimate
        base = tyler_residual(X, shape)
        X[:, 0] *= scale
        assert tyler_residual(X, shape) == pytest.approx(base, rel=1e-6)

    def test_rejects_zero_column(self):
        X = np.random.default_rng(0).standard_normal((4, 40))
        X[:, 3] = 0.0
        with pytest.raises(ValueError, match="zero-column: column 3"):
            tyler_residual(X, np.eye(4))

    def test_singular_shape_rejected(self):
        X = scaled_identity_data(2)
        with pytest.raises(ValueError, match="singular-shape"):
            tyler_residual(X, np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="singular-shape"):
            tyler_residual(X, np.diag([1.0, 1e-16]))

    @pytest.mark.parametrize(
        "shape, message",
        [
            (np.diag([np.nan, 1.0]), "non-finite-entry"),
            (np.array([[1.0, np.inf], [np.inf, 1.0]]), "non-finite-entry"),
            (np.ones((3, 2)), "expected a square matrix"),
            # f2py's triangular routines raise their own error class, which is not a ValueError
            (np.eye(3), r"expected a \(2, 2\) triangle, got shape \(3, 3\)"),
        ],
        ids=["nan-diagonal", "inf-entry", "not-square", "other-dimension"],
    )
    def test_malformed_shape_rejected(self, shape, message):
        with pytest.raises(ValueError, match=message):
            tyler_residual(scaled_identity_data(2), shape)


class TestTylerKernel:
    @staticmethod
    def pair(d, n, seed=0):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((d, d))
        return rng.standard_normal((d, n)), A @ A.T / d + np.eye(d)

    @pytest.mark.parametrize("d, n", [(4, 40), (16, 1600), (64, 6400)])
    def test_agrees_with_reference_to_roundoff(self, d, n):
        # the inverted factor and one triangular product where the reference
        # makes two solves, so the kernel rounds differently; it measured at
        # most 5.3e-16 over seeds 0-4
        X, omega = self.pair(d, n)
        got, want = estimators._tyler_rhs(X, omega), reference_rhs(X, omega)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("d, n", [(16, 1600), (64, 6400), (100, 120)])
    def test_matches_f2py_steps_bit_for_bit(self, d, n):
        # one workspace, filled with nan and reused by two evaluations: each
        # overwrites all of it and keeps nothing of the last
        X, omega = self.pair(d, n)
        work = np.full((n, d), np.nan, order="F")
        for shape in (2.0 * np.eye(d), omega):
            got = estimators._tyler_rhs(X, shape, work)
            assert got.tobytes() == f2py_rhs(X, shape).tobytes()
        assert estimators._tyler_rhs(X, omega).tobytes() == got.tobytes()

    @pytest.mark.parametrize("scales", ["none", "moderate", "extreme"])
    @pytest.mark.parametrize("d, n", [(3, 5), (16, 1600), (100, 120)])
    def test_identity_start_is_the_evaluation_at_the_identity(self, d, n, scales):
        # omega None skips the factor, its inverse and the product, which at
        # the identity leave X^t as it is.  Columns times powers of two are
        # exact; the extreme ones (2^-300 .. 2^300) go through the fit's
        # own rescaling first
        X = self.pair(d, n)[0]
        if scales != "none":
            top = 40 if scales == "moderate" else 300
            X = estimators._rescale_columns(X * 2.0 ** np.random.default_rng(1).integers(-top, top + 1, n))
        start = estimators._tyler_rhs(X, None, np.full((n, d), np.nan, order="F"))
        full = estimators._tyler_rhs(X, np.eye(d), np.full((n, d), np.nan, order="F"))
        assert start.tobytes() == full.tobytes()

    @pytest.mark.parametrize("identity", [False, True])
    def test_evaluation_in_a_workspace_allocates_little(self, identity):
        # with the fit's workspace, an evaluation at (64, 6400) allocates the
        # factor, q and the (d, d) Gram products: under 5% of X (a (d, n)
        # temporary would be 100%)
        X, omega = self.pair(64, 6400)
        omega = None if identity else omega
        work = np.empty((6400, 64), order="F")
        estimators._tyler_rhs(X, omega, work)  # first-call allocations of numpy
        tracemalloc.start()
        try:
            estimators._tyler_rhs(X, omega, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * X.nbytes

    def test_near_square_agrees_with_reference(self):
        X, omega = self.pair(100, 120)
        got, want = estimators._tyler_rhs(X, omega), reference_rhs(X, omega)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @staticmethod
    def dtrsm_rhs(X, omega):
        # the kernel whitened by f2py's triangular solve, as before the
        # inverted factor: the reference for the whitening step alone
        d, n = X.shape
        Z = blas.dtrsm(1.0, lapack.dpotrf(omega, lower=1)[0], X.T, side=1, lower=1, trans_a=1)
        Y = X / np.sqrt(np.einsum("ij,ij->i", Z, Z))
        G = (d / n) * (Y @ Y.T)
        return 0.5 * (G + G.T)

    @pytest.mark.parametrize("cond", [1e0, 1e4, 1e8, 1e12, 1e14])
    @pytest.mark.parametrize("d, n", [(16, 1600), (64, 6400), (100, 120)])
    def test_inverted_factor_agrees_with_triangular_solve(self, d, n, cond):
        # a rotated shape of condition cond, up to the limit tyler_residual
        # accepts; the gap measured at most 3.0e-15 relative
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        omega = (Q * np.geomspace(1.0, 1.0 / cond, d)) @ Q.T
        omega = 0.5 * (omega + omega.T)
        X = rng.standard_normal((d, n))
        got, want = estimators._tyler_rhs(X, omega), self.dtrsm_rhs(X, omega)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("diagonal, info", [([1.0, -1.0], 2), ([2.0, 1.0, -1.0, 3.0], 3)], ids=["info-2", "info-3"])
    def test_rejects_omega_that_is_not_positive_definite(self, diagonal, info):
        # dpotrf's info is the order of the first leading minor that is not positive
        X = np.random.default_rng(0).standard_normal((len(diagonal), 4))
        with pytest.raises(LinAlgError, match=rf"not positive definite \(dpotrf info {info}\)"):
            estimators._tyler_rhs(X, np.diag(diagonal))

    @staticmethod
    def singular_factor_after(monkeypatch, calls):
        # from call `calls` + 1 on, dtrtri sees the factor with a zero
        # diagonal entry and reports it, as it would for a singular factor
        real, count = estimators._blas.dtrtri, itertools.count(1)

        def dtrtri(c, **kwargs):
            if next(count) > calls:
                c = np.array(c)
                c[-1, -1] = 0.0
            return real(c, **kwargs)

        monkeypatch.setattr(estimators._blas, "dtrtri", dtrtri)

    def test_failed_inversion_raises_linalg_error(self, monkeypatch):
        self.singular_factor_after(monkeypatch, 0)
        X, omega = self.pair(4, 40)
        with pytest.raises(LinAlgError, match=r"Cholesky factor is singular \(dtrtri info 4\)"):
            estimators._tyler_rhs(X, omega)

    def test_failed_inversion_ends_the_fit(self, monkeypatch):
        # the identity start calls no dtrtri, so the first call is the
        # second evaluation's
        self.singular_factor_after(monkeypatch, 0)
        with pytest.raises(NoConvergenceError, match="lost positive definiteness") as exc:
            tyler(self.pair(4, 40)[0])
        assert exc.value.report.iterations == 2
        assert exc.value.report.residual == np.inf

    def test_failed_inversion_rejects_the_shape(self, monkeypatch):
        self.singular_factor_after(monkeypatch, 0)
        with pytest.raises(ValueError, match=r"singular-shape: factorization failed"):
            tyler_residual(*self.pair(4, 40))

    @pytest.mark.parametrize("d, n", [(4, 40), (100, 120)])
    def test_exactly_symmetric(self, d, n):
        G = estimators._tyler_rhs(*self.pair(d, n))
        np.testing.assert_array_equal(G, G.T)

    def test_near_square_fit_matches_reference_kernel(self, monkeypatch):
        X = sample_population(PopulationSpec(100, ChiRadius(100), seed=11), 120)
        rep = tyler(X, tol=TOL)
        monkeypatch.setattr(estimators, "_tyler_rhs", reference_rhs)
        ref = tyler(X, tol=TOL)
        assert rep.converged and ref.converged
        assert rep.iterations == ref.iterations
        assert np.linalg.norm(rep.estimate - ref.estimate) <= 10 * TOL * np.linalg.norm(ref.estimate)

