"""Eigenvalues, spectral norm, standardization, and empirical spectral CDFs.

An empirical spectral distribution (ESD) is represented as the ascending
array of eigenvalues of a symmetric matrix; the induced CDF places mass 1/d
on each entry.
"""

from __future__ import annotations

import numpy as np

__all__ = ["symmetric_eigenvalues", "spectral_norm", "standardize", "esd_eval"]


def _as_symmetric(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite-entry: matrix contains nan or inf")
    return A


def symmetric_eigenvalues(A) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    Uses the dense symmetric solver (LAPACK via ``numpy.linalg.eigvalsh``),
    reading the lower triangle.  Raises ValueError on non-finite entries.
    """
    return np.linalg.eigvalsh(_as_symmetric(A))


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


def esd_eval(eigenvalues, x):
    """Empirical spectral CDF: fraction of eigenvalues <= x.

    ``eigenvalues`` must be sorted ascending; ``x`` may be a scalar or an
    array.  The step function is right-continuous by construction.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigenvalues must be a nonempty 1-D array")
    counts = np.searchsorted(lam, x, side="right")
    out = counts / lam.size
    return float(out) if np.ndim(x) == 0 else out
