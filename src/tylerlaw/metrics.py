"""Distances and moments of empirical spectral distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import Record
from .laws import ReferenceLaw

__all__ = ["SpectralSummary", "ks_distance", "esd_moment", "summarize"]


@dataclass(frozen=True)
class SpectralSummary(Record):
    """Spectral summary of one ESD against a reference law.

    ``moments[k]`` is the (k+1)-th ESD moment (1/d) sum lambda_i^(k+1);
    ``spectral_norm`` equals max(|lambda_min|, |lambda_max|).
    """

    ks: float
    moments: tuple[float, ...]
    lambda_min: float
    lambda_max: float
    spectral_norm: float


def _as_esd(eigenvalues) -> np.ndarray:
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigenvalues must be a nonempty 1-D array")
    if not np.all(np.isfinite(lam)):
        raise ValueError("non-finite-entry: eigenvalues contain nan or inf")
    return lam


def ks_distance(eigenvalues, law: ReferenceLaw) -> float:
    """Kolmogorov-Smirnov distance between an ESD and a reference law.

    The supremum of |F(x) - G(x)| is attained at the eigenvalue jump points,
    so it is computed exactly as the maximum over eigenvalues lam of
    |F(lam) - G(lam)| and |F(lam-) - G(lam-)|, with the left limits taken
    from tie counts.  G is the full law CDF (point mass included for
    Marchenko-Pastur with y > 1).  When the law has an atom at zero,
    eigenvalues within d * eps * max|lam| of zero count as zero, so the
    roundoff signs of a rank-deficient matrix's null eigenvalues do not
    decide on which side of the atom they fall.
    """
    lam = _as_esd(eigenvalues)
    d = lam.size
    atom = law.point_mass_at_zero
    if atom > 0:
        lam = np.where(np.abs(lam) <= d * np.finfo(float).eps * np.abs(lam).max(), 0.0, lam)
    G = np.asarray(law.cdf(lam), dtype=float)
    hi = np.abs(np.searchsorted(lam, lam, "right") / d - G)
    lo = np.abs(np.searchsorted(lam, lam, "left") / d - np.where(lam == 0.0, G - atom, G))
    return float(max(hi.max(), lo.max()))


def esd_moment(eigenvalues, m: int) -> float:
    """m-th ESD moment (1/d) sum_i lambda_i^m, m >= 1.

    Accumulated with exact float summation; raises ValueError
    ("non-finite-entry") for a nan or inf eigenvalue and OverflowError
    ("moment-overflow") if the powers leave the finite range.
    """
    if m < 1:
        raise ValueError(f"moment order must be >= 1, got {m}")
    lam = _as_esd(eigenvalues)
    with np.errstate(over="ignore"):
        powers = lam**m
    if not np.all(np.isfinite(powers)):
        raise OverflowError(f"moment-overflow: eigenvalue powers of order {m} are non-finite")
    return math.fsum(powers) / lam.size


def summarize(eigenvalues, law: ReferenceLaw, max_moment: int = 6) -> SpectralSummary:
    """KS distance, ESD moments 1..max_moment, and the extreme eigenvalues."""
    if max_moment < 1:
        raise ValueError(f"max_moment must be >= 1, got {max_moment}")
    lam = _as_esd(eigenvalues)
    return SpectralSummary(
        ks=ks_distance(lam, law),
        moments=tuple(esd_moment(lam, m) for m in range(1, max_moment + 1)),
        lambda_min=float(lam[0]),
        lambda_max=float(lam[-1]),
        spectral_norm=float(max(abs(lam[0]), abs(lam[-1]))),
    )
