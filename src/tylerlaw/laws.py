"""Closed-form reference laws: semicircle and Marchenko-Pastur.

Each law is one class that carries its config ``name`` and exposes
``pdf``, ``cdf``, ``support`` and ``point_mass_at_zero``.  Only the
Marchenko-Pastur law with ratio y > 1 has a point mass (1 - 1/y at zero); it
is never baked into the density, and ``cdf`` includes it.

``ReferenceLaw`` lists the classes once and ``REFERENCE_LAWS`` maps each name
to its class; ``law_to_dict`` and ``law_from_dict`` are the one JSON form of
a law, ``{"law": name, ...}`` plus the class's fields.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

from .codec import Record, decode

__all__ = [
    "Semicircle", "MarchenkoPastur", "ReferenceLaw", "REFERENCE_LAWS", "semicircle_moment",
    "law_to_dict", "law_from_dict"
]


def semicircle_moment(m: int) -> float:
    """m-th moment of the semicircle law: 0 for odd m, Catalan C_{m/2} for even."""
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    if m % 2 == 1:
        return 0.0
    k = m // 2
    return float(math.comb(2 * k, k) // (k + 1))


@dataclass(frozen=True)
class Semicircle(Record):
    """Semicircle law: density sqrt(4 - x^2) / (2 pi) on [-2, 2]."""

    name: typing.ClassVar[str] = "semicircle"
    point_mass_at_zero: typing.ClassVar[float] = 0.0

    def support(self) -> tuple[float, float]:
        return (-2.0, 2.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        dens = np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2.0 * np.pi)
        return float(dens) if dens.ndim == 0 else dens

    def cdf(self, x):
        # closed form: 1/2 + x sqrt(4 - x^2)/(4 pi) + arcsin(x/2)/pi,
        # clamped to [-2, 2] where it hits exactly 0 and 1
        x = np.asarray(x, dtype=float)
        t = np.clip(x, -2.0, 2.0)
        c = 0.5 + t * np.sqrt(4.0 - t * t) / (4.0 * np.pi) + np.arcsin(t / 2.0) / np.pi
        return float(c) if c.ndim == 0 else c


@dataclass(frozen=True)
class MarchenkoPastur(Record):
    """Marchenko-Pastur law with a finite ratio y > 0.

    Continuous density sqrt((a_plus - x)(x - a_minus)) / (2 pi x y) on
    [a_minus, a_plus] with a_pm = (1 +/- sqrt(y))^2, plus a point mass of
    (1 - 1/y)^+ at zero when y > 1.
    """

    name: typing.ClassVar[str] = "mp"
    y: float

    def __post_init__(self):
        if not 0 < self.y < math.inf:
            raise ValueError(f"MP ratio y must be finite and > 0, got {self.y}")

    @property
    def a_minus(self) -> float:
        return (1.0 - math.sqrt(self.y)) ** 2

    @property
    def a_plus(self) -> float:
        return (1.0 + math.sqrt(self.y)) ** 2

    @property
    def point_mass_at_zero(self) -> float:
        return max(0.0, 1.0 - 1.0 / self.y)

    def support(self) -> tuple[float, float]:
        # support of the continuous part; the y > 1 point mass sits at 0
        return (self.a_minus, self.a_plus)

    def pdf(self, x):
        """Density of the continuous part; 0 outside [a_minus, a_plus].

        For y >= 1 the point x = 0 is the point-mass location (or, at y = 1,
        a non-removable singularity of the density) and raises ValueError.
        """
        x = np.asarray(x, dtype=float)
        if self.y >= 1 and np.any(x == 0.0):
            raise ValueError(
                "invalid-argument: MP density undefined at x = 0 for y >= 1 "
                "(point mass location); query point_mass_at_zero instead"
            )
        am, ap = self.a_minus, self.a_plus
        inside = (x >= am) & (x <= ap) & (x != 0.0)
        # two roots and two divides: (ap - x) * (x - am) and y * x overflow for y near 1e300
        with np.errstate(divide="ignore", invalid="ignore"):
            rad = np.sqrt(ap - x) * np.sqrt(x - am)
            dens = np.where(inside, rad / (2.0 * np.pi * np.where(inside, x, 1.0)) / self.y, 0.0)
        return float(dens) if dens.ndim == 0 else dens

    def cdf(self, x):
        """Full CDF: point mass at zero (when y > 1) plus the continuous part.

        The continuous part is in closed form: with x = a_minus + (a_plus -
        a_minus) sin^2(theta), its mass on (-inf, x] is

            [(1 + y) theta + sqrt(y) sin(2 theta)
             - |1 - y| atan2(sqrt(a_plus) sin(theta), sqrt(a_minus) cos(theta))] / (pi y)

        (Bai & Silverstein 2010).  It is accurate to about 1e-14 up to both
        edges of the support.
        """
        x = np.asarray(x, dtype=float)
        am, ap, y = self.a_minus, self.a_plus, self.y
        t = np.clip(x, am, ap)
        theta = np.arctan2(np.sqrt(t - am), np.sqrt(ap - t))
        cont = (
            (1.0 + y) * theta
            + math.sqrt(y) * np.sin(2.0 * theta)
            - abs(1.0 - y) * np.arctan2(math.sqrt(ap) * np.sin(theta), math.sqrt(am) * np.cos(theta))
        ) / (math.pi * y)
        total = 1.0 - self.point_mass_at_zero
        cont = np.where(x <= am, 0.0, np.where(x >= ap, total, np.clip(cont, 0.0, total)))
        c = cont + np.where(x >= 0.0, self.point_mass_at_zero, 0.0)
        return float(c) if c.ndim == 0 else c


ReferenceLaw = Semicircle | MarchenkoPastur

REFERENCE_LAWS = {law.name: law for law in typing.get_args(ReferenceLaw)}


def law_to_dict(law: ReferenceLaw) -> dict:
    """``{"law": name}`` plus the law's parameters, e.g. ``{"law": "mp", "y": 0.25}``."""
    return {"law": law.name, **law.to_dict()}


def law_from_dict(d: dict) -> ReferenceLaw:
    """Inverse of ``law_to_dict``; a law takes exactly its own parameters."""
    if not isinstance(d, dict):
        raise ValueError(f"reference must be a JSON object with a 'law' key, got {d!r}")
    params = dict(d)
    name = decode(str | None, params.pop("law", None), "reference 'law'")
    if name not in REFERENCE_LAWS:
        raise ValueError(f"reference 'law' must be one of {tuple(REFERENCE_LAWS)}, got {name!r}")
    return REFERENCE_LAWS[name].from_dict(params, where=f"reference law {name!r}")
