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
        rejected extrapolations and of the plain steps that replace them.
    residual : float
        Frobenius norm of the fixed-point defect ||F(T) - T||_F of the
        returned estimate, from the map evaluation the iteration made on it;
        ``inf`` when the estimate cannot be Cholesky-factored or its map
        value is not finite (the fit then raises NoConvergenceError).
    converged : bool
        Whether ``residual <= tol * ||estimate||_F``: the shape equation is
        solved to ``tol``.
    step_history : tuple of float
        Relative residual ||F(T) - T||_F / ||T||_F of each evaluated
        iterate, one entry per map evaluation (``inf`` for one that could
        not be evaluated).
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


def _tyler_rhs(X: np.ndarray, omega: np.ndarray | None, work: np.ndarray | None = None) -> np.ndarray:
    """Evaluate (d/n) * sum_j X_j X_j^t / (X_j^t omega^{-1} X_j), omega None the identity, in
    ``work``: an (n, d) Fortran-ordered array it overwrites, fresh when None, one per fit in ``tyler``."""
    d, n = X.shape
    # the workspace holds X^t, then Z = X^t L^{-t}, whose row j is
    # (L^{-1} X_j)^t, then (X / sqrt(q))^t: the evaluation makes no (d, n) temporary
    work = np.empty((n, d), order="F") if work is None else work
    np.copyto(work, X.T)
    if omega is not None:
        # no finiteness scans: X has passed `_as_data_matrix`, and omega is an
        # iterate `tyler` found finite or a shape `tyler_residual` has checked
        L, info = _blas.dpotrf(omega, lower=1, clean=0)
        if info != 0:
            raise LinAlgError(f"omega is not positive definite (dpotrf info {info})")
        L, info = _blas.dtrtri(L, lower=1)
        if info != 0:
            raise LinAlgError(f"omega's Cholesky factor is singular (dtrtri info {info})")
        # X_j^t omega^{-1} X_j = |L^{-1} X_j|^2 from the inverted factor and
        # one triangular product (in scipy's OpenBLAS 2-3x faster than the
        # solve dtrsm when n >> d), made in place from the right on X^t.  At
        # the identity L^{-1} = I, so Z is X^t itself
        _blas.dtrmm(L, work)
    np.divide(X.T, np.sqrt(np.einsum("ij,ij->i", work, work))[:, None], out=work)
    return _gram(work.T) * (d / n)


def tyler(X, tol: float = 1e-9, max_iter: int = 1000) -> TylerReport:
    """Tyler's M-estimator for scatter, normalized to trace d.

    Runs the fixed-point iteration for the shape equation

        T = (d/n) * sum_j X_j X_j^t / (X_j^t T^{-1} X_j),

    starting from the identity, for the map T -> d F(T) / tr F(T), where F
    is the right-hand side (the equation determines T only up to a scalar
    multiple, so every iterate has trace d).  The map is accelerated with
    type-II Anderson mixing of the last five steps, safeguarded: an
    extrapolated iterate that cannot be Cholesky-factored, has a non-finite
    map value or a larger relative residual than the last accepted iterate
    is replaced by the plain map step from that iterate, and the history is
    cleared.  The iteration stops on one rule, ||F(T) - T||_F <= tol *
    ||T||_F, measured on the map evaluation it already makes, and returns
    the iterate measured.  The estimator is invariant under rescaling any
    column by a nonzero scalar, so it is distribution-free over generalized
    spherical (and elliptical) populations; columns of extreme scale are
    rescaled by exact powers of two before the iteration.

    Parameters
    ----------
    X : array_like
        Data matrix of shape (d, n) with n > d (or n = d = 1) and no zero column.
    tol : float
        Relative Frobenius residual tolerance (finite, > 0).
    max_iter : int
        Cap on map evaluations (>= 1).

    Returns
    -------
    TylerReport
        Estimate plus convergence diagnostics.

    Raises
    ------
    ValueError
        If n < d or n = d > 1 ("dimension-exceeds-sample"), some column is zero
        ("zero-column"), an entry is nan or inf ("non-finite-entry"), or
        ``tol`` or ``max_iter`` is out of range.
    NoConvergenceError
        If the cap is reached before the residual meets ``tol``, or a plain
        map step cannot be evaluated (the iterate lost positive
        definiteness, residual ``inf``); carries the partial report (trace
        still d).  Columns concentrated on a subspace end either way.
    """
    X = _as_data_matrix(X)
    d, n = X.shape
    if not 0 < tol < math.inf:  # nan fails too, and would stop every fit at once
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if n < d or n == d > 1:  # at n = d > 1 every X D X^t, D > 0 diagonal, solves the equation
        raise ValueError(f"dimension-exceeds-sample: Tyler's estimator requires n > d, got d={d}, n={n}")
    X = _rescale_columns(X)
    work = np.empty((n, d), order="F")  # the kernel's workspace, reused by every evaluation

    steps: list[float] = []

    def evaluate(omega, start=False):
        # one kernel evaluation: the trace-d map value d F / tr F and the
        # residual ||F(omega) - omega||_F, or (None, inf) when omega cannot
        # be factored or F(omega) is not finite.  A non-finite omega is not
        # evaluated and counts no step.  The identity start needs no factor
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
        rhs *= d / np.trace(rhs)
        return rhs, residual

    def report(omega, residual, converged):
        return TylerReport(
            estimate=omega,
            iterations=len(steps),
            residual=residual,
            converged=converged,
            step_history=tuple(steps),
        )

    omega = np.eye(d)
    mapped, residual = evaluate(omega, start=True)
    defect = mapped - omega
    relative = steps[-1]
    # Anderson history of the accepted iterates: rows of differences of
    # successive map values and of successive map defects (map value minus
    # iterate), written in turn over the oldest; ``added`` counts differences
    # since the last restart
    dmapped = np.empty((_ANDERSON_DEPTH, d * d))
    ddefect = np.empty((_ANDERSON_DEPTH, d * d))
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
        new_mapped, new_residual = evaluate(candidate)
        if added and (new_mapped is None or steps[-1] > relative):
            # safeguard: an extrapolation that cannot be evaluated, or whose
            # residual grows, clears the history, so the next pass takes the
            # plain step from the accepted iterate
            added = 0
            continue
        if new_mapped is None:
            raise NoConvergenceError(
                "no-convergence: iterate lost positive definiteness "
                "(columns may be concentrated on a subspace)",
                report(candidate, math.inf, False),
            )
        new_defect = new_mapped - candidate
        slot = added % _ANDERSON_DEPTH
        np.subtract(new_mapped.ravel(), mapped.ravel(), out=dmapped[slot])
        np.subtract(new_defect.ravel(), defect.ravel(), out=ddefect[slot])
        added += 1
        omega, mapped, defect = candidate, new_mapped, new_defect
        residual, relative = new_residual, steps[-1]

    if relative > tol:
        raise NoConvergenceError(
            f"no-convergence: {max_iter} iterations without meeting tol={tol}",
            report(omega, residual, False),
        )
    return report(omega, residual, True)


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
