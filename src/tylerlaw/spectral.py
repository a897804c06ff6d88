"""Eigenvalues, spectral norm and standardization of symmetric matrices.

An empirical spectral distribution (ESD) is represented as the ascending
array of eigenvalues of a symmetric matrix; the induced CDF places mass 1/d
on each entry.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

from . import _blas

__all__ = ["symmetric_eigenvalues", "spectral_norm", "standardize"]


def _as_symmetric(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite-entry: matrix contains nan or inf")
    # the eigensolver reads one triangle, so a matrix that is not symmetric to
    # roundoff (relative to its largest entry, as in ks_distance) would get
    # the eigenvalues of another matrix; products such as Q T Q^t pass
    gap = np.max(np.abs(A - A.T), initial=0.0)
    limit = A.shape[0] * np.finfo(float).eps * np.max(np.abs(A), initial=0.0)
    if gap > limit:
        raise ValueError(f"non-symmetric: max |A - A^t| = {gap:.3g} exceeds {limit:.3g}")
    return A


def symmetric_eigenvalues(A) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    Uses LAPACK's divide-and-conquer solver ``dsyevd`` from scipy, the
    library that runs every other linear-algebra call of the package,
    reading the lower triangle.  Raises ValueError on a non-square,
    non-finite or non-symmetric matrix and LinAlgError when the solver fails
    to converge.
    """
    w, _, info = _blas.dsyevd(_as_symmetric(A), compute_v=0, lower=1)
    if info != 0:
        raise LinAlgError(f"dsyevd failed to converge (info {info})")
    return w


def spectral_norm(A) -> float:
    """max(|lambda_1|, |lambda_d|) of a symmetric matrix."""
    w = symmetric_eigenvalues(A)
    return float(max(abs(w[0]), abs(w[-1])))


def standardize(A, n_samples: int) -> np.ndarray:
    """Map a (d, d) scatter matrix A to sqrt(n/d) * (A - I).

    This is the scaling under which the ESD of the sample covariance (and of
    Tyler's estimator) approaches the semicircle law as d/n -> 0.  The result
    is generally indefinite.
    """
    A = _as_symmetric(A)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    d = A.shape[0]
    return np.sqrt(n_samples / d) * (A - np.eye(d))
