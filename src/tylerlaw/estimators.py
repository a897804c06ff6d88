"""Scatter estimators: the sample covariance matrix and Tyler's M-estimator.

Data matrices are (d, n) arrays whose columns are the observations.  Both
estimators return dense symmetric (d, d) arrays; Tyler's estimate is
positive definite with trace d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

__all__ = [
    "TylerReport", "NoConvergenceError", "SingularShapeError", "sample_covariance", "tyler",
    "tyler_residual"
]

# Condition numbers above this mark a shape matrix as numerically singular.
_COND_LIMIT = 1e14


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
        Frobenius norm of the fixed-point defect at exit; ``inf`` when the
        partial estimate is too ill-conditioned to evaluate it.
    converged : bool
        Whether the relative-change stopping rule was met.
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
    return X


def sample_covariance(X) -> np.ndarray:
    """Sample covariance S = (1/n) * sum_j X_j X_j^t of a (d, n) data matrix.

    The population center is taken to be zero, so no mean is subtracted.
    The result is symmetrized exactly and positive semidefinite.
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
    G = (d / n) * (Y @ Y.T)
    return 0.5 * (G + G.T)


def tyler(X, tol: float = 1e-9, max_iter: int = 1000) -> TylerReport:
    """Tyler's M-estimator for scatter, normalized to trace d.

    Runs the fixed-point iteration for the shape equation

        T = (d/n) * sum_j X_j X_j^t / (X_j^t T^{-1} X_j),

    starting from the identity.  Every iterate is rescaled to trace d (the
    equation determines T only up to a scalar multiple), and the iteration
    stops when the relative Frobenius change between successive iterates
    drops to ``tol``.  The estimator is invariant under rescaling any column
    by a nonzero scalar, so it is distribution-free over generalized
    spherical (and elliptical) populations.

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
        If n < d ("dimension-exceeds-sample") or some column is zero
        ("zero-column").
    NoConvergenceError
        If the iteration cap is reached or the iterate loses positive
        definiteness twice; carries the partial report (trace still d).
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
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0):
        j = int(np.argmin(norms))
        raise ValueError(f"zero-column: column {j} of the data matrix is zero")

    def _report(omega, iterations, converged):
        # a failed fit still reports its partial state; an unevaluable
        # residual there is inf rather than a second error
        try:
            residual = tyler_residual(X, omega)
        except SingularShapeError:
            if converged:
                raise
            residual = float("inf")
        return TylerReport(
            estimate=omega,
            iterations=iterations,
            residual=residual,
            converged=converged,
            step_history=tuple(steps),
            boundary_regime=(n == d),
        )

    omega = np.eye(d)
    steps: list[float] = []
    jitter_used = False

    for iterations in range(1, max_iter + 1):
        jittered_now = False
        try:
            nxt = _tyler_rhs(X, omega)
        except LinAlgError:
            if jitter_used:
                raise NoConvergenceError(
                    "no-convergence: iterate lost positive definiteness twice "
                    "(columns may be concentrated on a subspace)",
                    _report(omega, iterations - 1, False),
                ) from None
            # one-shot diagonal jitter, then give up on the next breakdown
            jitter_used = jittered_now = True
            omega = omega + (1e-12 * d) * np.eye(d)
            try:
                nxt = _tyler_rhs(X, omega)
            except LinAlgError:
                raise NoConvergenceError(
                    "no-convergence: iterate not positive definite after jitter",
                    _report(omega, iterations - 1, False),
                ) from None
        nxt *= d / np.trace(nxt)
        delta = np.linalg.norm(nxt - omega, "fro") / np.linalg.norm(omega, "fro")
        steps.append(float(delta))
        omega = nxt
        # a jittered step moved the iterate artificially; never accept it
        if delta <= tol and not jittered_now:
            return _report(omega, iterations, True)

    raise NoConvergenceError(
        f"no-convergence: {max_iter} iterations without meeting tol={tol}",
        _report(omega, max_iter, False),
    )


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
        G = _tyler_rhs(X, shape)
    except LinAlgError as exc:  # PD check passed but factorization still failed
        raise SingularShapeError(f"singular-shape: factorization failed ({exc})") from None
    return float(np.linalg.norm(G - shape, "fro"))
