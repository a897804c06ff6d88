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
    # estimators._tyler_rhs promises.  Z = X^t L^{-t} by the inverted factor
    # and a triangular product
    d, n = X.shape
    L = lapack.dpotrf(omega, lower=1, clean=0)[0]
    Z = blas.dtrmm(1.0, lapack.dtrtri(L, lower=1)[0], X.T, side=1, lower=1, trans_a=1)
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

    def test_one_by_one_converges_at_the_first_evaluation(self):
        # (1, 1) is below n = 2d, so the complement fit runs it; the identity
        # start is its fixed point, exactly, and the fit ends there before the
        # complementary problem, which would have no dimensions
        rep = tyler(np.array([[-7.0]]))
        assert rep.estimate.tolist() == [[1.0]]
        assert rep.iterations == 1 and rep.step_history == (0.0,)
        assert rep.converged and rep.residual == 0.0

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
        # at n >= 2d the fit is Anderson's.  The plain map needs up to 8071
        # evaluations on (2, 4) samples; these counts hold only while the
        # extrapolation is accepted, so an Anderson step that silently
        # falls back to plain steps fails here
        counts = [tyler(np.random.default_rng(s).standard_normal((100, 200))).iterations for s in range(4)]
        assert counts == [14, 14, 13, 13]
        counts = [tyler(np.random.default_rng(s).standard_normal((16, 64))).iterations for s in range(4)]
        assert counts == [13, 13, 13, 13]
        assert max(tyler(cauchy_scaled_sample(s, 2, 4)).iterations for s in range(400)) <= 46

    def test_complement_evaluation_counts(self):
        # at n < 2d the fit evaluates the identity, solves the complementary
        # problem in n - d dimensions, and measures the mapped solution with
        # the kernel, where it stops: the last two entries, the complement's
        # stop and the kernel's measure, both meet tol.  The Anderson fit of
        # X alone needed 18-22 evaluations at (100, 120) and up to 38 at
        # (100, 105), the plain map 120-123 at (100, 120); a mapped solution
        # that missed tol, or an Anderson step that silently fell back to
        # plain steps, fails here
        for n in (120, 105):
            reports = [tyler(np.random.default_rng(s).standard_normal((100, n))) for s in range(4)]
            assert [rep.iterations for rep in reports] == [14, 14, 14, 14]
            assert all(max(rep.step_history[-2:]) <= TOL for rep in reports)

    @pytest.mark.parametrize("n", [105, 120])
    def test_fit_stopping_at_its_start_makes_no_anderson_history(self, n):
        # below 2d the fit usually stops at the mapped start, before any
        # Anderson step.  The history, two blocks of 5 d^2 doubles, is made at
        # the first accepted step, so such a fit peaks below it: 5.0-5.3 d^2
        # doubles measured, against 18-19 while the history was made up front
        d = 100
        X = np.random.default_rng(0).standard_normal((d, n))
        tyler(X)  # first-call allocations of numpy
        tracemalloc.start()
        try:
            rep = tyler(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.iterations == 14 and max(rep.step_history[-2:]) <= TOL
        assert peak < 10 * d * d * 8

    @pytest.mark.parametrize("d, n", [(64, 127), (64, 128)])
    def test_complement_and_anderson_fits_agree(self, d, n, monkeypatch):
        # the complement's mapped solution and X's own Anderson fit on both
        # sides of the n < 2d rule: one solution, reached by either.  Below
        # 2d the fit makes the mapped solution its second iterate, and a
        # ratio of 0 keeps it on X's own map.  At n = 2d no ratio can send the
        # fit through the complement, which would have d dimensions and take
        # its own complement without end, so the start is made directly
        X = sample_population(PopulationSpec(d, ChiRadius(d), seed=n), n)
        if n < 2 * d:
            rep = tyler(X, tol=TOL)
            assert rep.converged
            complement = rep.estimate
            monkeypatch.setattr(estimators, "_COMPLEMENT_RATIO", 0)
        else:
            complement = estimators._complement_start(X, TOL, 1000, [], np.empty((n, d), order="F"))
        anderson = estimators._fit(X, TOL, 1000, [])
        assert anderson.converged
        for T in (complement, anderson.estimate):
            assert tyler_residual(X, T) <= TOL * np.linalg.norm(T)
        gap = np.linalg.norm(complement - anderson.estimate)
        assert gap <= 10 * TOL * np.linalg.norm(anderson.estimate)

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

    @pytest.mark.parametrize(
        "seed, d, n",
        [(1, 2, 3)] + [(seed, 2, 3) for seed in range(3, 12)] + [(6, 4, 6), (15, 10, 15), (120, 100, 120)],
    )
    def test_two_parallel_columns_break_the_condition_near_square(self, seed, d, n):
        # at n < 2d a line holding two columns holds more than n/d of the
        # points, so no shape solves the equation, nor the complementary
        # problem: its iterate degenerates until a step cannot be evaluated
        # (99-273 evaluations on the larger samples), and the fit raises
        # NoConvergenceError, not LinAlgError or a RuntimeWarning (an error
        # under pytest), and does not hang.  On the (2, 3) samples the third
        # column is off the line of the other two, so the null-space basis
        # has a zero row, to roundoff, and the fit ends after the identity
        # (the Newton fit it replaced reached the cap of 1000 on six of them)
        X = np.random.default_rng(seed).standard_normal((d, n))
        X[:, 1] = -2.5 * X[:, 0]
        with pytest.raises(NoConvergenceError, match="no-convergence") as exc:
            tyler(X)
        report = exc.value.report
        assert not report.converged
        assert report.iterations <= (1 if d == 2 else 300)
        assert abs(np.trace(report.estimate) - d) <= 1e-10 * d

    @pytest.mark.parametrize("roundoff", [False, True])
    def test_column_off_the_span_of_the_others_ends_after_the_identity(self, roundoff):
        # one column off the span of the others, a subspace of dimension
        # d - 1 holding n - 1 > (d - 1) n / d columns: the null-space basis
        # has a zero row (exactly for these integer columns, at roundoff for
        # random ones), which ends the fit with the lost-definiteness error
        # before the complementary problem
        X = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        if roundoff:
            X = np.random.default_rng(0).standard_normal((4, 7))
            X[3, :6] = 0.0
        d, n = X.shape
        unit = X / np.linalg.norm(X, axis=0)
        assert estimators._null_basis(unit) is None
        with pytest.raises(NoConvergenceError, match="lost positive definiteness") as exc:
            tyler(X)
        assert exc.value.report.iterations == 1
        assert exc.value.report.estimate.tolist() == np.eye(d).tolist()

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
        # 282's at 3, 5 and 9 (40 in all), so some caps fall right after one.
        # Below n = 2d the caps fall in the complementary problem too: (3, 5)
        # seed 50 rejects an extrapolation there at evaluation 4 (18 in all),
        # (6, 7) seed 191 solves it in one and then takes 18 of X's map (20),
        # and (100, 120) is the benchmark's shape (14)
        samples = [
            (sample_population(PopulationSpec(4, ChiRadius(4), seed=12), 40), 1e-15),
            (cauchy_scaled_sample(0, 2, 4), TOL),
            (cauchy_scaled_sample(282, 2, 4), TOL),
            (cauchy_scaled_sample(50, 3, 5), TOL),
            (cauchy_scaled_sample(191, 6, 7), TOL),
            (sample_population(PopulationSpec(100, ChiRadius(100), seed=12), 120), TOL),
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


def fit_bytes(rep):
    # every field of a report, the estimate as its bytes
    return rep.estimate.tobytes(), rep.iterations, rep.residual, rep.converged, rep.step_history


class TestTylerWorkspace:
    @pytest.mark.parametrize(
        "d, n, scaled, spare",
        [(16, 1600, False, 0), (16, 24, False, 0), (16, 1600, True, 0), (16, 1600, False, 7)],
        ids=["semicircle", "near-square", "scaled-2^+-300", "larger-block"],
    )
    def test_fit_in_work_keeps_the_bits(self, d, n, scaled, spare):
        X = sample_population(PopulationSpec(d, ScaledFRootRadius(d, 1), seed=n), n)
        if scaled:  # out of the one-pass range: the fit rescales a copy of X
            X = X * 2.0 ** np.where(np.arange(n) % 2, 300, -300)
        work = np.full(d * n + spare, np.nan)
        assert fit_bytes(tyler(X, work=work)) == fit_bytes(tyler(X))
        assert np.isnan(work[d * n :]).all()  # only the first d n entries are written

    @pytest.mark.parametrize(
        "work, message",
        [
            (np.empty(12 * 300 - 1), "C-contiguous float64 array of at least 3600 entries"),
            (np.empty(12 * 300, dtype=np.float32), "C-contiguous float64 array of at least 3600 entries"),
            (np.empty(2 * 12 * 300)[::2], "C-contiguous float64 array of at least 3600 entries"),
            (np.empty((300, 12)).T, "C-contiguous float64 array of at least 3600 entries"),
            ([0.0] * (12 * 300), "C-contiguous float64 array of at least 3600 entries"),
            (None, "must not overlap the data matrix"),
        ],
        ids=["too-small", "float32", "strided", "fortran", "list", "overlapping"],
    )
    def test_rejects_an_unfit_work(self, work, message):
        block = sample_population(PopulationSpec(12, ChiRadius(12), seed=1), 301).ravel()
        X = block[: 12 * 300].reshape(12, 300)
        before = X.copy()
        with pytest.raises(ValueError, match=message):
            tyler(X, work=block[6:] if work is None else work)
        np.testing.assert_array_equal(X, before)

    def test_fit_in_work_allocates_no_block(self):
        # with ``work`` a (64, 6400) fit allocates the (d, d) iterates, q and
        # the Anderson history: under one (d, n) block (the workspace is one)
        d, n = 64, 6400
        X = sample_population(PopulationSpec(d, ScaledFRootRadius(d, 1), seed=3), n)
        work = np.empty(d * n)
        tyler(X, work=work)  # first-call allocations of numpy
        tracemalloc.start()
        try:
            rep = tyler(X, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged and peak < 8 * d * n


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



class TestComplement:
    """The near-square fit's complementary problem: the null-space basis B of U, the
    data scaled to unit columns, and the identity that makes its shape equation X's."""

    SAMPLES = {
        "(100, 105)": lambda: np.random.default_rng(0).standard_normal((100, 105)),
        "(100, 120)": lambda: np.random.default_rng(1).standard_normal((100, 120)),
        "(64, 127)": lambda: np.random.default_rng(2).standard_normal((64, 127)),
        "cauchy (6, 9)": lambda: cauchy_scaled_sample(3, 6, 9),
    }

    @staticmethod
    def unit(X):
        return X / np.linalg.norm(X, axis=0)

    @pytest.mark.parametrize("name", SAMPLES)
    def test_basis_spans_the_null_space(self, name):
        # U B = 0 to the roundoff of the product (measured at most 4.1 eps
        # of |U| |B| entrywise), so X diag(|X_j|^-1) B = 0, and B holds the
        # rows of I_{n-d}, so |B v| >= |v|: its smallest singular value is at
        # least 1, and its rank n - d
        X = self.SAMPLES[name]()
        d, n = X.shape
        U = self.unit(X)
        B = estimators._null_basis(U)
        assert B.shape == (n, n - d)
        assert np.all(np.abs(U @ B) <= 16 * np.finfo(float).eps * (np.abs(U) @ np.abs(B)))
        assert np.linalg.svd(B, compute_uv=False).min() >= 1 - 1e-12

    @pytest.mark.parametrize("name", SAMPLES)
    def test_leverages_of_the_two_problems_add_up_to_one(self, name):
        # at random weights w (log-weights within 2 of 0): the leverages
        # w_j U_j^t T^{-1} U_j of W^{1/2} U^t, T = U W U^t, and the leverages
        # w_j^{-1} b_j^t S^{-1} b_j of W^{-1/2} B, S = B^t W^{-1} B, from the
        # kernel's quadratic forms, add up to 1, since the two hat matrices
        # add up to I.  Measured within 7.3e-14, at T of condition up to 2e4
        X = self.SAMPLES[name]()
        d, n = X.shape
        U = self.unit(X)
        B = estimators._null_basis(U)
        rng = np.random.default_rng(5)
        for w in [np.ones(n)] + [np.exp(rng.uniform(-2, 2, n)) for _ in range(3)]:
            T, S = (U * w) @ U.T, (B.T / w) @ B
            primal = w * estimators._quadratic_forms(U, T, np.empty((n, d), order="F"))
            complement = estimators._quadratic_forms(B.T, S, np.empty((n, n - d), order="F")) / w
            np.testing.assert_allclose(primal + complement, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d, n", [(3, 5), (100, 120)])
    def test_rank_deficient_data_ends_at_the_identity(self, d, n):
        # a zero row puts every column in a hyperplane: the LU's last pivot
        # is zero, so no basis is made, and the fit ends after the identity
        # with the lost-definiteness error (NoConvergenceError)
        X = np.random.default_rng(d).standard_normal((d, n))
        X[-1] = 0.0
        assert estimators._null_basis(self.unit(X)) is None
        with pytest.raises(NoConvergenceError, match="lost positive definiteness") as exc:
            tyler(X)
        assert exc.value.report.iterations == 1

    @pytest.mark.parametrize("exponent", [-256, -255, 252, 253, 254])
    def test_fit_at_the_edges_of_the_unrescaled_range(self, exponent):
        # columns times 2^exponent stay unrescaled (peaks up to 2^256): the
        # complementary problem is made from unit columns, so the fit is
        # where it was
        X = np.random.default_rng(0).standard_normal((100, 120))
        scaled = X * 2.0**exponent
        assert np.array_equal(estimators._rescale_columns(scaled), scaled)
        rep, ref = tyler(scaled), tyler(X)
        assert rep.converged and rep.iterations == ref.iterations
        assert np.linalg.norm(rep.estimate - ref.estimate) <= 10 * TOL * np.linalg.norm(ref.estimate)
