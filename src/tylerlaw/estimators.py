"""Scatter estimators: the sample covariance matrix and Tyler's M-estimator.

Data matrices are (d, n) arrays whose columns are the observations.  Both
estimators return dense symmetric (d, d) arrays; Tyler's estimate is
positive definite with trace d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.blas import dsyrk

__all__ = [
    "TylerReport", "NoConvergenceError", "SingularShapeError", "sample_covariance", "tyler",
    "tyler_residual"
]

# Condition numbers above this mark a shape matrix as numerically singular.
_COND_LIMIT = 1e14
# Columns whose largest entry has a binary exponent beyond +-256 are rescaled.
_EXPONENT_LIMIT = 256


class NoConvergenceError(RuntimeError):
    """Tyler iteration failed; ``report`` holds the partial state."""

    def __init__(self, message: str, report: "TylerReport"):
        super().__init__(message)
        self.report = report


class SingularShapeError(RuntimeError):
    """A shape matrix is numerically singular (condition estimate > 1e14)."""


@dataclass
class TylerReport:
    """Outcome of the Tyler fixed-point iteration.

    Attributes
    ----------
    estimate : numpy.ndarray
        Symmetric (d, d) scatter estimate with trace d (also on failure).
    iterations : int
        Number of iterations performed.
    residual : float
        Frobenius norm of the fixed-point defect at exit, computed with the
        same kernel as the iteration; ``inf`` when the estimate cannot be
        Cholesky-factored (the fit then raises NoConvergenceError).
    converged : bool
        Whether the relative-change stopping rule was met with a residual of
        at most sqrt(tol) times the estimate's Frobenius norm.
    step_history : tuple of float
        Relative Frobenius change of the iterate, one entry per iteration.
    boundary_regime : bool
        True when n == d, where existence holds but convergence can be slow
        and the fixed point may be non-unique.
    """

    estimate: np.ndarray = field(compare=False)
    iterations: int
    residual: float
    converged: bool
    step_history: tuple[float, ...]
    boundary_regime: bool


def _as_data_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"data matrix must be 2-D (d, n), got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite-entry: data matrix contains nan or inf")
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
    S = (X @ X.T) / n
    return 0.5 * (S + S.T)


def _tyler_rhs(X: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Evaluate (d/n) * sum_j X_j X_j^t / (X_j^t omega^{-1} X_j)."""
    d, n = X.shape
    chol = cho_factor(omega, lower=True)
    q = np.einsum("ij,ij->j", X, cho_solve(chol, X))
    Y = X / np.sqrt(q)
    # the Gram product runs in scipy's BLAS like the Cholesky calls: numpy's
    # `@` would wake a second OpenBLAS thread pool that fights this one.
    # dsyrk fills the upper triangle and leaves zeros below, so G + G.T
    # doubles only the diagonal, and halving it back is exact
    G = dsyrk(1.0, Y.T, trans=1)
    G = G + G.T
    G.flat[:: d + 1] *= 0.5
    G *= d / n
    return G


def tyler(X, tol: float = 1e-9, max_iter: int = 1000) -> TylerReport:
    """Tyler's M-estimator for scatter, normalized to trace d.

    Runs the fixed-point iteration for the shape equation

        T = (d/n) * sum_j X_j X_j^t / (X_j^t T^{-1} X_j),

    starting from the identity.  Every iterate is rescaled to trace d (the
    equation determines T only up to a scalar multiple), and the iteration
    stops when the relative Frobenius change between successive iterates
    drops to ``tol``.  The estimator is invariant under rescaling any column
    by a nonzero scalar, so it is distribution-free over generalized
    spherical (and elliptical) populations; columns of extreme scale are
    rescaled by exact powers of two before the iteration.

    Parameters
    ----------
    X : array_like
        Data matrix of shape (d, n) with n >= d and no zero column.
    tol : float
        Relative Frobenius stopping tolerance (> 0).
    max_iter : int
        Iteration cap (>= 1).

    Returns
    -------
    TylerReport
        Estimate plus convergence diagnostics.

    Raises
    ------
    ValueError
        If n < d ("dimension-exceeds-sample"), some column is zero
        ("zero-column") or an entry is nan or inf ("non-finite-entry").
    NoConvergenceError
        If the iteration cap is reached, an iterate loses positive
        definiteness (Cholesky fails), or the step meets ``tol`` while the
        residual exceeds sqrt(tol) * ||T||_F (an unevaluable residual is
        ``inf``); carries the partial report (trace still d).
    """
    X = _as_data_matrix(X)
    d, n = X.shape
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if n < d:
        raise ValueError(
            f"dimension-exceeds-sample: Tyler's estimator requires n >= d, got d={d}, n={n}"
        )
    peak = np.max(np.abs(X), axis=0, initial=0.0)
    if np.any(peak == 0):
        raise ValueError(f"zero-column: column {int(np.argmin(peak))} of the data matrix is zero")
    # the fit ignores column scales, and scaling a column by a power of two
    # is exact, so columns whose squares could overflow or underflow are
    # brought near 1; X is copied only then, and in-range data keeps its bits
    _, exponent = np.frexp(peak)
    if np.any(np.abs(exponent) > _EXPONENT_LIMIT):
        X = np.ldexp(X, -exponent)

    def _report(omega, iterations, converged):
        # an iterate that cannot be factored has residual inf.  The step also
        # vanishes on a degenerate iterate when the existence condition
        # fails, so only a small residual means the equation is solved
        try:
            residual = _defect(X, omega)
        except LinAlgError:
            residual = float("inf")
        solved = bool(residual <= math.sqrt(tol) * np.linalg.norm(omega, "fro"))
        report = TylerReport(
            estimate=omega,
            iterations=iterations,
            residual=residual,
            converged=converged and solved,
            step_history=tuple(steps),
            boundary_regime=(n == d),
        )
        if converged and not solved:
            raise NoConvergenceError(
                f"no-convergence: step met tol={tol} but the residual is {residual:.3g} "
                "(columns may be concentrated on a subspace)",
                report,
            )
        return report

    omega = np.eye(d)
    steps: list[float] = []
    for iterations in range(1, max_iter + 1):
        try:
            nxt = _tyler_rhs(X, omega)
        except LinAlgError:
            raise NoConvergenceError(
                "no-convergence: iterate lost positive definiteness "
                "(columns may be concentrated on a subspace)",
                _report(omega, iterations - 1, False),
            ) from None
        nxt *= d / np.trace(nxt)
        delta = np.linalg.norm(nxt - omega, "fro") / np.linalg.norm(omega, "fro")
        steps.append(float(delta))
        omega = nxt
        if delta <= tol:
            return _report(omega, iterations, True)

    raise NoConvergenceError(
        f"no-convergence: {max_iter} iterations without meeting tol={tol}",
        _report(omega, max_iter, False),
    )


def _defect(X: np.ndarray, shape: np.ndarray) -> float:
    return float(np.linalg.norm(_tyler_rhs(X, shape) - shape, "fro"))


def tyler_residual(X, shape) -> float:
    """Frobenius norm of the fixed-point defect of ``shape`` for the data X.

    Returns || (d/n) * sum_j X_j X_j^t / (X_j^t shape^{-1} X_j) - shape ||_F,
    which is zero exactly when ``shape`` solves the sample shape equation.

    Raises
    ------
    SingularShapeError
        If ``shape`` is numerically singular or not positive definite
        (eigenvalue condition estimate above 1e14).
    """
    X = _as_data_matrix(X)
    shape = np.asarray(shape, dtype=float)
    w = np.linalg.eigvalsh(shape)
    if w[0] <= 0 or w[-1] / w[0] > _COND_LIMIT:
        raise SingularShapeError(
            f"singular-shape: condition estimate {w[-1] / w[0] if w[0] > 0 else np.inf:.3g} "
            f"exceeds {_COND_LIMIT:.0e}"
        )
    try:
        return _defect(X, shape)
    except LinAlgError as exc:  # PD check passed but factorization still failed
        raise SingularShapeError(f"singular-shape: factorization failed ({exc})") from None
