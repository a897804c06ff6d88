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
# Below this many observations per dimension the fit takes Newton steps on the
# log-weights and the kernel whitens by a triangular solve; from it on, Anderson
# steps and the inverted factor (README, "Performance": the crossover table).
_NEWTON_RATIO = 2
# Armijo's sufficient-decrease fraction, and the step length below which a
# Newton line search gives way to the plain map step.
_ARMIJO = 1e-4
_MIN_STEP = 1 / 32
# The most a Newton step moves any log-weight.  Unscaled, the first step at
# n = d + 1 moved some by hundreds, onto a numerically singular iterate whose
# f read a spurious decrease.  On small near-square samples 2 took the fewest
# evaluations of 0.5-4, and 4 let some fits fail.
_MAX_STEP = 2.0


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
        rejected extrapolations and of the plain steps that replace them,
        and every trial point of a Newton line search, rejected or not.
    residual : float
        Frobenius norm of the fixed-point defect ||F(T) - T||_F of the
        returned estimate, from the kernel's map evaluation of it (below
        n = 2d a re-measure of the returned iterate, so it equals
        ``tyler_residual(X, estimate)``); ``inf`` when the estimate cannot be
        Cholesky-factored or its map value is not finite (the fit then
        raises NoConvergenceError).
    converged : bool
        Whether ``residual <= tol * ||estimate||_F``: the shape equation is
        solved to ``tol``.
    step_history : tuple of float
        Relative residual ||F(T) - T||_F / ||T||_F of each evaluated
        iterate, one entry per map evaluation (``inf`` for one that could
        not be evaluated).  Below n = 2d every entry after the first comes
        from the weight-space evaluation, which agrees with the kernel's to
        roundoff.
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
    # the workspace holds X^t, then Z = X^t L^{-t} (L omega's Cholesky
    # factor), whose row j is (L^{-1} X_j)^t, then (X / sqrt(q))^t: the
    # evaluation makes no (d, n) temporary
    work = np.empty((n, d), order="F") if work is None else work
    np.copyto(work, X.T)
    if omega is not None:
        # no finiteness scans: X has passed `_as_data_matrix`, and omega is an
        # iterate `tyler` found finite or a shape `tyler_residual` has checked
        L, info = _blas.dpotrf(omega, lower=1, clean=0)
        if info != 0:
            raise LinAlgError(f"omega is not positive definite (dpotrf info {info})")
        # X_j^t omega^{-1} X_j = |L^{-1} X_j|^2, made in place from the right
        # on X^t.  Near n = d by one triangular solve, which costs less than
        # the inverse and a product (91 us against 138 us at (100, 120) on 2
        # vCPUs); from n = 2d on by the inverted factor and one triangular
        # product (in scipy's OpenBLAS 2-3x faster than the solve when
        # n >> d).  At the identity L^{-1} = I, so Z is X^t itself
        if n < _NEWTON_RATIO * d:
            _blas.dtrsm(L, work)
        else:
            L, info = _blas.dtrtri(L, lower=1)
            if info != 0:
                raise LinAlgError(f"omega's Cholesky factor is singular (dtrtri info {info})")
            _blas.dtrmm(L, work)
    np.divide(X.T, np.sqrt(np.einsum("ij,ij->i", work, work))[:, None], out=work)
    return _gram(work.T) * (d / n)


def tyler(X, tol: float = 1e-9, max_iter: int = 1000) -> TylerReport:
    """Tyler's M-estimator for scatter, normalized to trace d.

    Solves the shape equation

        T = (d/n) * sum_j X_j X_j^t / (X_j^t T^{-1} X_j),

    which determines T only up to a scalar multiple, so every iterate has
    trace d.  The fit starts at the identity.  For n >= 2d it iterates the
    map T -> d F(T) / tr F(T), where F is the right-hand side, accelerated
    with type-II Anderson mixing of the last five steps, safeguarded: an
    extrapolated iterate that cannot be Cholesky-factored, has a non-finite
    map value or a larger relative residual than the last accepted iterate
    is replaced by the plain map step from that iterate, and the history is
    cleared.  For n < 2d every iterate after the identity is X e^y X^t
    scaled to trace d, and damped Newton steps on the n log-weights y
    minimize the convex f(y) = log det(X e^y X^t) - (d/n) sum(y), whose
    stationary points are the solutions, each step moving no log-weight by
    more than 2; each trial point of the backtracking line search is a map
    evaluation, made in the n - d dimensions orthogonal to the rows of the
    data scaled to unit columns.
    Both stop on one rule, ||F(T) - T||_F <= tol * ||T||_F, measured on the
    map evaluation they already make, and return the iterate measured; below
    2d the kernel re-measures the returned iterate, and its residual decides
    (if it misses ``tol`` while evaluations remain, the fit goes on).  The
    estimator is invariant under rescaling any column by a nonzero scalar,
    so it is distribution-free over generalized spherical (and elliptical)
    populations; columns of extreme scale are rescaled by exact powers of
    two before the iteration.

    Parameters
    ----------
    X : array_like
        Data matrix of shape (d, n) with n > d (or n = d = 1) and no zero column.
    tol : float
        Relative Frobenius residual tolerance (finite, > 0).
    max_iter : int
        Cap on map evaluations (>= 1), line-search trials included.

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
    fit = _newton_fit if n < _NEWTON_RATIO * d else _anderson_fit
    return fit(_rescale_columns(X), tol, max_iter)


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


def _anderson_fit(X, tol, max_iter):
    # Anderson-accelerated map iteration from the identity on a checked,
    # rescaled X (see ``tyler``)
    d, n = X.shape
    work = np.empty((n, d), order="F")  # the kernel's workspace, reused by every evaluation
    steps: list[float] = []
    omega = np.eye(d)
    mapped, residual = _evaluate(X, omega, steps, work, start=True)
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
        slot = added % _ANDERSON_DEPTH
        np.subtract(new_mapped.ravel(), mapped.ravel(), out=dmapped[slot])
        np.subtract(new_defect.ravel(), defect.ravel(), out=ddefect[slot])
        added += 1
        omega, mapped, defect = candidate, new_mapped, new_defect
        residual, relative = new_residual, steps[-1]
    return _result(omega, steps, residual, relative, tol, max_iter)


def _newton_fit(X, tol, max_iter):
    # damped Newton iteration from the identity on a checked, rescaled X (see
    # ``tyler``).  Every iterate after the identity is U e^y U^t at trace d,
    # U the data scaled to unit columns, and the kernel evaluates only the
    # identity and the iterate returned: each trial point is evaluated in
    # weight space (``_WeightSpace``).  The first is the plain map step from
    # the identity, y = 0, since F(I) is proportional to U U^t; each later one
    # is a Newton trial y + t delta, t = 1, 1/2, ..., accepted when f falls
    # by Armijo's fraction of the predicted decrease or the map residual
    # falls (near the solution f's change is below its roundoff).  A Hessian
    # that cannot be factored, or a line search that reaches _MIN_STEP, takes
    # the plain map step y - log h from the accepted iterate instead.  When
    # the residual meets tol or the cap is reached, the kernel re-measures the
    # accepted iterate, and its residual decides: if it misses tol while
    # evaluations remain, the loop goes on
    d, n = X.shape
    work = np.empty((n, d), order="F")
    steps: list[float] = []
    omega = np.eye(d)
    _, residual = _evaluate(X, omega, steps, work, start=True)
    relative = steps[-1]
    if relative <= tol or len(steps) >= max_iter:
        return _result(omega, steps, residual, relative, tol, max_iter)
    space = _WeightSpace(X)
    plain, delta, stepped = np.zeros(n), None, True
    while True:
        while relative > tol and len(steps) < max_iter:
            if not stepped:
                # the Newton step of the point just accepted (``rows`` still
                # holds it), taken only when the loop goes on past it
                delta, slope = _newton_step(space.rows, h)
                t, stepped = 1.0, True
            trial = plain if delta is None else y + t * delta
            point = space.evaluate(trial)
            evaluated = point is not None
            steps.append(point[0] if evaluated else math.inf)
            if delta is not None and not (evaluated and (point[1] <= f + _ARMIJO * t * slope or steps[-1] < relative)):
                t *= 0.5
                if t < _MIN_STEP:
                    delta = None
                continue
            if not evaluated:
                raise _lost_definiteness(_weighted_gram(space.unit, trial, work), steps)
            y, (relative, f, h) = trial, point
            plain, stepped = y - np.log(h), False
        omega = _weighted_gram(space.unit, y, work)
        measured: list[float] = []  # the kernel's relative residual, not an evaluation of the fit
        _, residual = _evaluate(X, omega, measured, work)
        if residual == math.inf:
            raise _lost_definiteness(omega, steps)
        relative = measured[0]
        if relative <= tol or len(steps) >= max_iter:
            return _result(omega, steps, residual, relative, tol, max_iter)


def _weighted_gram(X, y, work):
    # the iterate of log-weights y, X e^y X^t scaled to trace d.  The weights
    # are taken as e^(y - max y) <= 1, which cannot overflow
    d = X.shape[0]
    np.multiply(X.T, np.exp(0.5 * (y - y.max()))[:, None], out=work)
    omega = _gram(work.T)
    omega *= d / np.trace(omega)
    return omega


class _WeightSpace:
    """Tyler's map at the iterates T = U diag(b) U^t, b proportional to e^y, of one
    fit, evaluated in the n - d dimensions orthogonal to the rows of U, the data
    scaled to unit columns (which leaves the fit where it was).

    With W = e^y, the hat matrix P of W^{1/2} U^t has I - P = V M^{-1} V^t for
    V = W^{-1/2} B, B a basis of U's null space and M = V^t V, so the
    leverages are h = diag(P) = b_j U_j^t T^{-1} U_j, and F(T) = U diag(a) U^t
    with a = (d/n) b / h.  Both matrices are combinations of the rank-one
    U_j U_j^t, so ||F(T) - T||_F^2 = D^t K D with D = a - b and
    K = (U^t U)∘(U^t U).  Jacobi's complementary-minor identity gives
    log det(U W U^t) = sum(y) + log det(B^t W^{-1} B) + a constant.  A trial
    point then costs O(n (n - d)^2) where the kernel's costs O(d^2 n).  Unit
    columns keep K, a fourth power of the data, finite at every column scale
    the fit leaves unrescaled."""

    def __init__(self, X):
        d, n = X.shape
        self.unit = X / np.sqrt(np.einsum("ij,ij->j", X, X))
        # P U^t = L R, L = [L1; L2] unit lower trapezoidal, so U B = 0 for
        # B = P^t [-L1^{-t} L2^t; I], of rank n - d by its identity block.  A
        # singular R means X has rank below d; no iterate is then evaluated
        lu, pivots, info = _blas.dgetrf(self.unit.T)
        top, _ = _blas.dtrtrs(lu, lu[d:].T, lower=1, trans=1, unitdiag=1)
        self.basis = _blas.dlaswp(np.vstack([-top, np.eye(n - d)]), pivots, inc=-1)
        self.singular = info != 0
        # K; it is symmetric, and its transpose is the Fortran-ordered view
        # that f2py's dgemv takes without a copy
        self.kernel = np.square(_gram(self.unit.T)).T
        self.rows = np.empty_like(self.basis, order="F")  # V, orthonormalized in place

    def evaluate(self, y):
        # (relative residual ||F(T) - T||_F / ||T||_F, f(y) up to a constant,
        # h) at log-weights y, leaving V C^{-1} in ``rows`` (M = C^t C, so its
        # columns are orthonormal and I - P = rows rows^t); None when the
        # point cannot be evaluated: W^{-1/2} or M overflows, M cannot be
        # factored, or a leverage is not in (0, 1].  Overflow and its nan are
        # found by the checks, so numpy's warnings are off
        n, m = self.basis.shape
        d = n - m
        top = y.max()
        with np.errstate(all="ignore"):
            np.multiply(self.basis, np.exp(0.5 * (top - y))[:, None], out=self.rows)
            factor, info = _blas.dpotrf(_blas.dsyrk(self.rows).T, lower=1, clean=0)
            _blas.dtrsm(factor, self.rows)
            h = 1.0 - np.einsum("ij,ij->i", self.rows, self.rows)
            w = np.exp(y - top)
            b = w * (d / w.sum())  # trace d: the columns are unit vectors
            gap = (d / n) * b / h - b
            # D^t K D >= 0, but roundoff can take a near-zero one below
            relative = math.sqrt(max(self._quadratic(gap), 0.0) / self._quadratic(b))
            # f(y) = log det(U e^y U^t) - (d/n) sum(y), with
            # log det(B^t W^{-1} B) = log det M - (n - d) max y
            value = (1.0 - d / n) * float(y.sum()) - m * top + 2.0 * float(np.log(np.diagonal(factor)).sum())
        if self.singular or info != 0 or not (math.isfinite(relative) and math.isfinite(value) and h.min() > 0):
            return None
        return relative, value, h

    def _quadratic(self, v):
        return ddot(v, dgemv(1.0, self.kernel, v))


def _newton_step(V, h):
    # the Newton step delta of f(y) = log det(X e^y X^t) - (d/n) sum(y) and
    # the slope g^t delta, from the leverages h and the orthonormal V with
    # I - P = V V^t (see ``_WeightSpace``); (None, nan) when the Hessian
    # cannot be factored or the step is not a descent direction.  The
    # gradient is g = h - d/n and the Hessian diag(h) - P∘P: a weighted
    # Laplacian with null vector 1, so adding 11^t / n makes it positive
    # definite and leaves delta orthogonal to 1, the direction f does not
    # change along.  Off the diagonal P∘P = (V V^t)∘(V V^t), and on it h^2
    n = h.size
    hessian = _blas.dsyrk(V, trans=0)  # I - P, upper triangle
    np.square(hessian, out=hessian)
    np.subtract(1.0 / n, hessian, out=hessian)
    hessian.flat[:: n + 1] = h * (1.0 - h) + 1.0 / n
    factor, info = _blas.dpotrf(hessian, clean=0, overwrite_a=1)
    if info != 0:
        return None, math.nan
    g = h - (n - V.shape[1]) / n
    delta, info = _blas.dpotrs(factor, g)
    delta *= -1.0 / max(1.0, np.abs(delta).max() / _MAX_STEP)
    slope = ddot(g, delta)
    if info != 0 or not -math.inf < slope < 0:
        return None, math.nan
    return delta, slope


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
