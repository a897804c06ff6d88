"""Scatter estimators: the sample covariance matrix and Tyler's M-estimator.

Data matrices are (d, n) arrays whose columns are the observations.  Both
estimators return dense symmetric (d, d) arrays; Tyler's estimate is
positive definite with trace d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from . import _blas
from ._blas import ddot, dgelss, dgemm, dgemv
from .spectral import symmetric_eigenvalues

__all__ = ["TylerReport", "NoConvergenceError", "sample_covariance", "tyler", "tyler_residual"]

# Condition numbers above this mark a shape matrix as numerically singular.
_COND_LIMIT = 1e14
# Columns whose largest entry has a binary exponent beyond +-256 are rescaled.
_EXPONENT_LIMIT = 256
# Anderson acceleration combines the last this many steps (Walker & Ni 2011).
_ANDERSON_DEPTH = 5
# Below this many observations per dimension the fit's second iterate comes
# from the complementary problem of n points in n - d dimensions, which has
# more than two points per dimension (README, "Numerical conventions").
_COMPLEMENT_RATIO = 2


class NoConvergenceError(RuntimeError):
    """Tyler iteration failed; ``report`` holds the partial state."""

    def __init__(self, message: str, report: "TylerReport"):
        super().__init__(message)
        self.report = report


@dataclass
class TylerReport:
    """Outcome of the Tyler fixed-point iteration.

    Attributes
    ----------
    estimate : numpy.ndarray
        Symmetric (d, d) scatter estimate with trace d (also on failure).
    iterations : int
        Number of evaluations of the fixed-point map, including those of
        rejected extrapolations and of the plain steps that replace them;
        below n = 2d those of the complementary problem, which makes the
        second iterate, count too.
    residual : float
        Frobenius norm of the fixed-point defect ||F(T) - T||_F of the
        returned estimate, from the kernel's map evaluation of it, so it
        equals ``tyler_residual(X, estimate)``; ``inf`` when the estimate
        cannot be Cholesky-factored or its map value is not finite, or the
        complementary problem lost positive definiteness (the fit then
        raises NoConvergenceError).
    converged : bool
        Whether the stop rule ``residual <= tol * ||estimate||_F`` was met:
        the shape equation is solved to ``tol``.  A fit capped in the
        complementary problem is not converged, even when its residual
        meets ``tol``.
    step_history : tuple of float
        Relative residual ||F(T) - T||_F / ||T||_F of each evaluated
        iterate, one entry per map evaluation (``inf`` for one that could
        not be evaluated).  Below n = 2d the entries after the first, the
        identity's, are the complementary problem's relative residuals
        ||F(S) - S||_F / ||S||_F until the kernel's measure of its mapped
        solution, the second iterate, and those of X's map again from there.
    """

    estimate: np.ndarray = field(compare=False)
    iterations: int
    residual: float
    converged: bool
    step_history: tuple[float, ...]


def _as_data_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"data matrix must be 2-D (d, n), got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite-entry: data matrix contains nan or inf")
    return X


def _in_range(X: np.ndarray) -> bool:
    # one pass in place of `_as_data_matrix`'s scan and `_rescale_columns`:
    # when every column's sum of squares s lies in [2^-400, 2^400], X is
    # finite (a nan fails the test) and has no zero column, and each column's
    # peak, in [sqrt(s / d), sqrt(s)], lies within 2^+-256 for d < 2^112, so
    # both would keep X as it is
    if X.ndim != 2 or X.shape[0] >= 2**112:
        return False
    squares = np.einsum("ij,ij->j", X, X)
    return bool(np.all((squares >= 2.0**-400) & (squares <= 2.0**400)))


def _rescale_columns(X: np.ndarray) -> np.ndarray:
    # the shape equation ignores column scales, and scaling a column by a
    # power of two is exact, so columns whose squares could overflow or
    # underflow are brought near 1; X is copied only then, and in-range data
    # keeps its bits.  A zero column (peak |entry| 0, taken without an |X|
    # temporary) has no direction and is rejected
    peak = np.maximum(X.max(axis=0, initial=0.0), -X.min(axis=0, initial=0.0))
    if np.any(peak == 0):
        raise ValueError(f"zero-column: column {int(np.argmin(peak))} of the data matrix is zero")
    _, exponent = np.frexp(peak)
    if np.any(np.abs(exponent) > _EXPONENT_LIMIT):
        X = np.ldexp(X, -exponent)
    return X


def sample_covariance(X) -> np.ndarray:
    """Sample covariance S = (1/n) * sum_j X_j X_j^t of a (d, n) data matrix.

    The population center is taken to be zero, so no mean is subtracted.
    The result is symmetrized exactly and positive semidefinite.  Raises
    ValueError ("non-finite-entry") when X holds nan or inf.
    """
    X = _as_data_matrix(X)
    n = X.shape[1]
    if n < 1:
        raise ValueError("need at least one observation")
    return _gram(X) / n


def _gram(Y: np.ndarray) -> np.ndarray:
    # Y Y^t, exactly symmetric, in scipy's BLAS like every linear-algebra
    # call of the package: numpy's bundled OpenBLAS has a second thread pool,
    # which would fight scipy's.  dsyrk fills the upper triangle and leaves
    # zeros below, so G + G.T doubles only the diagonal; halving it is exact
    G = _blas.dsyrk(Y.T)
    G = G + G.T
    G.flat[:: Y.shape[0] + 1] *= 0.5
    return G


def _quadratic_forms(X: np.ndarray, omega: np.ndarray | None, work: np.ndarray) -> np.ndarray:
    """The n quadratic forms X_j^t omega^{-1} X_j, omega None the identity, made in ``work``: an
    (n, d) Fortran-ordered array it overwrites, left holding Z = X^t L^{-t} (L omega's Cholesky
    factor), whose row j is (L^{-1} X_j)^t; at the identity a C-ordered X is read in place."""
    if omega is None and X.flags.c_contiguous:
        # Z = X^t, which a C-ordered X holds in the workspace's layout
        return np.einsum("ij,ij->i", X.T, X.T)
    np.copyto(work, X.T)
    if omega is not None:
        # no finiteness scans: X has passed `_in_range` or `_as_data_matrix`, and
        # omega is an iterate `tyler` found finite or a shape `tyler_residual` has checked
        L, info = _blas.dpotrf(omega, lower=1, clean=0)
        if info != 0:
            raise LinAlgError(f"omega is not positive definite (dpotrf info {info})")
        # X_j^t omega^{-1} X_j = |L^{-1} X_j|^2, made in place from the right
        # on X^t by the inverted factor and one triangular product (in scipy's
        # OpenBLAS 2-3x faster than a triangular solve when n >> d)
        L, info = _blas.dtrtri(L, lower=1)
        if info != 0:
            raise LinAlgError(f"omega's Cholesky factor is singular (dtrtri info {info})")
        _blas.dtrmm(L, work)
    return np.einsum("ij,ij->i", work, work)


def _tyler_rhs(X: np.ndarray, omega: np.ndarray | None, work: np.ndarray | None = None) -> np.ndarray:
    """Evaluate (d/n) * sum_j X_j X_j^t / (X_j^t omega^{-1} X_j), omega None the identity, in
    ``work``: an (n, d) Fortran-ordered array it overwrites, fresh when None, one per fit in ``tyler``."""
    d, n = X.shape
    # the workspace holds X^t, then Z, then (X / sqrt(q))^t: the evaluation
    # makes no (d, n) temporary
    work = np.empty((n, d), order="F") if work is None else work
    np.divide(X.T, np.sqrt(_quadratic_forms(X, omega, work))[:, None], out=work)
    return _gram(work.T) * (d / n)


def tyler(X, tol: float = 1e-9, max_iter: int = 1000, *, work: np.ndarray | None = None) -> TylerReport:
    """Tyler's M-estimator for scatter, normalized to trace d.

    Solves the shape equation

        T = (d/n) * sum_j X_j X_j^t / (X_j^t T^{-1} X_j),

    which determines T only up to a scalar multiple, so every iterate has
    trace d.  The fit starts at the identity and iterates the map
    T -> d F(T) / tr F(T), where F is the right-hand side, accelerated with
    type-II Anderson mixing of the last five steps, safeguarded: an
    extrapolated iterate that cannot be Cholesky-factored, has a non-finite
    map value or a larger relative residual than the last accepted iterate
    is replaced by the plain map step from that iterate, and the history is
    cleared.  For n < 2d the second iterate is the mapped solution of the
    complementary problem: the shape equation of the n rows b_j of a basis
    B of the null space of U, the data scaled to unit columns, in n - d
    dimensions, solved by the same iteration.  Its solution S gives the
    weights w_j = b_j^t S^{-1} b_j, and U diag(w) U^t solves the shape
    equation of X (the hat matrices of W^{1/2} U^t and W^{-1/2} B add up to
    I), so the iteration goes on from it, scaled to trace d, and usually
    stops at its first evaluation.  The fit stops on one rule,
    ||F(T) - T||_F <= tol * ||T||_F, measured on the map evaluation it
    already makes, and returns the iterate measured.  The estimator is
    invariant under rescaling any column by a nonzero scalar, so it is
    distribution-free over generalized spherical (and elliptical)
    populations; columns of extreme scale are rescaled by exact powers of
    two before the iteration.

    Parameters
    ----------
    X : array_like
        Data matrix of shape (d, n) with n > d (or n = d = 1) and no zero column.
    tol : float
        Relative Frobenius residual tolerance (finite, > 0).
    max_iter : int
        Cap on map evaluations (>= 1), the complementary problem's included.
    work : numpy.ndarray, optional
        A C-contiguous float64 array of at least d * n entries, apart from X,
        whose first d * n entries the fit overwrites with its (n, d) kernel
        workspace; fresh when None.  A sweep passes each trial thread's block.

    Returns
    -------
    TylerReport
        Estimate plus convergence diagnostics.

    Raises
    ------
    ValueError
        If n < d or n = d > 1 ("dimension-exceeds-sample"), some column is zero
        ("zero-column"), an entry is nan or inf ("non-finite-entry"),
        ``tol`` or ``max_iter`` is out of range, or ``work`` is not a numpy
        array, is too small, not C-contiguous float64 or overlaps X.
    NoConvergenceError
        If the cap is reached before the residual meets ``tol`` (a cap reached
        in the complementary problem raises too, with the kernel's residual
        of the mapped iterate, which may already meet ``tol``), or a plain
        map step cannot be evaluated (the iterate lost positive
        definiteness, residual ``inf``); carries the partial report (trace
        still d).  Columns concentrated on a subspace end either way.
    """
    X = np.asarray(X, dtype=float)
    in_range = _in_range(X)
    if not in_range:
        X = _as_data_matrix(X)
    d, n = X.shape
    if not 0 < tol < math.inf:  # nan fails too, and would stop every fit at once
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if n < d or n == d > 1:  # at n = d > 1 every X D X^t, D > 0 diagonal, solves the equation
        raise ValueError(f"dimension-exceeds-sample: Tyler's estimator requires n > d, got d={d}, n={n}")
    work = np.empty(d * n) if work is None else work
    if not (isinstance(work, np.ndarray) and work.dtype == np.float64 and work.flags.c_contiguous and work.size >= d * n):
        raise ValueError(f"work must be a C-contiguous float64 array of at least {d * n} entries")
    if np.may_share_memory(work, X):  # the kernel writes into work while it reads X
        raise ValueError("work must not overlap the data matrix")
    work = work.reshape(-1)[: d * n].reshape(d, n).T  # (n, d), Fortran-ordered
    return _fit(X if in_range else _rescale_columns(X), tol, max_iter, [], work)


def _evaluate(X, omega, steps, work, start=False):
    # one kernel evaluation: the trace-d map value d F / tr F and the residual
    # ||F(omega) - omega||_F, or (None, inf) when omega cannot be factored or
    # F(omega) is not finite.  Each appends its relative residual to
    # ``steps``, but a non-finite omega is not evaluated and counts no step.
    # The identity start needs no factor
    norm2 = _dot(omega, omega)
    if not math.isfinite(norm2):
        return None, math.inf
    try:
        rhs = _tyler_rhs(X, None if start else omega, work)
    except LinAlgError:
        rhs = None
    else:
        gap = rhs - omega
        residual = math.sqrt(_dot(gap, gap))
    if rhs is None or not math.isfinite(residual):
        steps.append(math.inf)
        return None, math.inf
    steps.append(residual / math.sqrt(norm2))
    rhs *= X.shape[0] / np.trace(rhs)
    return rhs, residual


def _report(omega, steps, residual, converged):
    return TylerReport(omega, len(steps), residual, converged, tuple(steps))


def _lost_definiteness(omega, steps):
    return NoConvergenceError(
        "no-convergence: iterate lost positive definiteness (columns may be concentrated on a subspace)",
        _report(omega, steps, math.inf, False),
    )


def _result(omega, steps, residual, relative, tol, max_iter):
    if relative > tol:
        raise NoConvergenceError(
            f"no-convergence: {max_iter} iterations without meeting tol={tol}",
            _report(omega, steps, residual, False),
        )
    return _report(omega, steps, residual, True)


def _fit(X, tol, max_iter, steps, work=None):
    # Anderson-accelerated map iteration on a checked, rescaled X (see
    # ``tyler``) from the identity, appending each evaluation's relative
    # residual to ``steps``, which max_iter caps.  ``work`` is the kernel's
    # (n, d) Fortran-ordered workspace, reused by every evaluation, fresh when
    # None, as it is for the complementary problem: X's fit holds U in its own
    d, n = X.shape
    work = np.empty((n, d), order="F") if work is None else work
    omega = np.eye(d)
    mapped, residual = _evaluate(X, omega, steps, work, start=True)
    # below n = 2d the second iterate is the complementary problem's mapped
    # solution.  That problem's n points in n - d dimensions are more than
    # 2(n - d) whenever n < 2d, so its own fit never takes this branch
    if n < _COMPLEMENT_RATIO * d and steps[-1] > tol and len(steps) < max_iter:
        mapped = None  # not held through the complementary fit, which reuses its memory
        omega = _complement_start(X, tol, max_iter, steps, work)
        if len(steps) == max_iter:
            # capped in the complementary problem: the kernel's measure, not an evaluation
            _, residual = _evaluate(X, omega, [], work)
            return _result(omega, steps, residual, math.inf, tol, max_iter)  # raises whatever the residual
        mapped, residual = _evaluate(X, omega, steps, work)
    if mapped is None:
        raise _lost_definiteness(omega, steps)
    defect = mapped - omega
    relative = steps[-1]
    # Anderson history of the accepted iterates: rows of differences of
    # successive map values and of successive map defects (map value minus
    # iterate), written in turn over the oldest; ``added`` counts differences
    # since the last restart.  It is made at the first accepted step, so a fit
    # that stops at its start, as most near-square fits do, makes none
    dmapped = ddefect = None
    added = 0
    while relative > tol and len(steps) < max_iter:
        # each pass evaluates one candidate: the Anderson extrapolation while
        # there is a history, else the plain map step from the accepted iterate
        if added:
            m = min(added, _ANDERSON_DEPTH)
            # type-II Anderson iterate  mapped - G g,  where g minimizes
            # ||defect - F g|| over the history rows, taken as the columns of
            # F and G (Fortran-ordered views, not copies).  Least squares does
            # not depend on row order, so the slots need no reordering.  The
            # singular-value cutoff keeps a nearly dependent history from
            # producing huge weights; a failed SVD gives nan weights, which
            # evaluate rejects
            F, G = ddefect[:m].T, dmapped[:m].T
            gram, rhs = dgemm(1.0, F, F, trans_a=1), dgemv(1.0, F, defect.ravel(), trans=1)
            _, g, _, _, _, info = dgelss(gram, rhs, cond=1e-12)
            if info != 0:
                g = np.full(m, np.nan)
            candidate = dgemv(-1.0, G, g, beta=1.0, y=mapped.ravel()).reshape(d, d)
            candidate *= d / np.trace(candidate)
        else:
            candidate = mapped
        new_mapped, new_residual = _evaluate(X, candidate, steps, work)
        if added and (new_mapped is None or steps[-1] > relative):
            # safeguard: an extrapolation that cannot be evaluated, or whose
            # residual grows, clears the history, so the next pass takes the
            # plain step from the accepted iterate
            added = 0
            continue
        if new_mapped is None:
            raise _lost_definiteness(candidate, steps)
        new_defect = new_mapped - candidate
        if dmapped is None:
            dmapped, ddefect = np.empty((2, _ANDERSON_DEPTH, d * d))
        slot = added % _ANDERSON_DEPTH
        np.subtract(new_mapped.ravel(), mapped.ravel(), out=dmapped[slot])
        np.subtract(new_defect.ravel(), defect.ravel(), out=ddefect[slot])
        added += 1
        omega, mapped, defect = candidate, new_mapped, new_defect
        residual, relative = new_residual, steps[-1]
    return _result(omega, steps, residual, relative, tol, max_iter)


def _complement_start(X, tol, max_iter, steps, work):
    # the complementary start for n < 2d, made in ``work``, which first holds U^t, U the unit
    # columns of X: U diag(w) U^t, w_j = b_j^t S^{-1} b_j, S the fit of the rows b_j of a basis
    # B of U's null space, its evaluations in ``steps`` under the same cap.  A singular U, a zero
    # row of B or a complementary fit that loses positive definiteness ends the fit at the identity
    unit = np.divide(X.T, np.sqrt(np.einsum("ij,ij->j", X, X))[:, None], out=work).T
    basis = _null_basis(unit)
    if basis is None:
        raise _lost_definiteness(np.eye(X.shape[0]), steps)
    try:
        shape = _fit(basis.T, tol, max_iter, steps).estimate
    except NoConvergenceError as exc:
        if exc.report.residual == math.inf:
            raise _lost_definiteness(np.eye(X.shape[0]), steps) from None
        shape = exc.report.estimate
    weights = _quadratic_forms(basis.T, shape, np.empty_like(basis, order="F"))
    return _weighted_gram(unit, weights, work)


def _null_basis(unit):
    # an (n, n - d) basis B of the null space of the (d, n) unit, or None
    # when the fit cannot go on from it.  P U^t = L R, L = [L1; L2] unit
    # lower trapezoidal, so U B = 0 for B = P^t [-L1^{-t} L2^t; I], of rank
    # n - d by its identity block.  A singular R means X has rank below d, and
    # a zero row b_j means U_j is outside the span of the other columns; in
    # either case no shape solves the equation.  A row within n eps of the
    # longest (data with such a row measured 4e-17; random samples no
    # shorter than 8e-5 of it), or any row when one is not finite, counts as
    # zero
    d, n = unit.shape
    lu, pivots, info = _blas.dgetrf(unit.T)
    top, _ = _blas.dtrtrs(lu, lu[d:].T, lower=1, trans=1, unitdiag=1)
    basis = _blas.dlaswp(np.vstack([-top, np.eye(n - d)]), pivots, inc=-1)
    norms = np.einsum("ij,ij->i", basis, basis)
    if info != 0 or not np.all(norms > (n * np.finfo(float).eps) ** 2 * norms.max()):
        return None
    return basis


def _weighted_gram(U, w, work):
    # U diag(w) U^t scaled to trace d, for positive weights w; taken as
    # w / max w <= 1, which cannot overflow
    d = U.shape[0]
    np.multiply(U.T, np.sqrt(w / w.max())[:, None], out=work)
    omega = _gram(work.T)
    omega *= d / np.trace(omega)
    return omega


def _dot(A: np.ndarray, B: np.ndarray) -> float:
    # Frobenius inner product in scipy's BLAS, the library the kernel runs
    # in; ravel copies only arrays that are not C-ordered, which the loop
    # never makes
    return ddot(A.ravel(), B.ravel())


def tyler_residual(X, shape) -> float:
    """Frobenius norm of the fixed-point defect of ``shape`` for the data X.

    Returns || (d/n) * sum_j X_j X_j^t / (X_j^t shape^{-1} X_j) - shape ||_F,
    which is zero exactly when ``shape`` solves the sample shape equation.
    Like ``tyler``, it ignores column scales and rescales columns of extreme
    scale by exact powers of two first.

    Raises
    ------
    ValueError
        If X holds nan or inf ("non-finite-entry") or a zero column
        ("zero-column"), or ``shape`` is not a finite square matrix, is not
        symmetric to roundoff ("non-symmetric"), or is numerically singular
        or not positive definite (condition above 1e14, "singular-shape").
    """
    X = np.asarray(X, dtype=float)
    if not _in_range(X):
        X = _rescale_columns(_as_data_matrix(X))
    shape = np.asarray(shape, dtype=float)
    w = symmetric_eigenvalues(shape)
    if w[0] <= 0 or w[-1] / w[0] > _COND_LIMIT:
        raise ValueError(
            f"singular-shape: condition estimate {w[-1] / w[0] if w[0] > 0 else np.inf:.3g} "
            f"exceeds {_COND_LIMIT:.0e}"
        )
    try:
        defect = _tyler_rhs(X, shape) - shape
    except LinAlgError as exc:  # PD check passed but factorization still failed
        raise ValueError(f"singular-shape: factorization failed ({exc})") from None
    return math.sqrt(_dot(defect, defect))
