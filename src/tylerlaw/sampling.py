"""Sampling from generalized spherical populations.

A generalized spherical population is a random vector X = R * U where U is
uniform on the unit sphere of R^d and R is a scalar radius.  Unlike the
classical spherical case, R may take negative values and may depend on U;
the center is identically zero.

Each radial law is one class that carries its config ``name``, its
constructor arguments in config terms (``params``: ``df`` is tied to the
population dimension, ``p`` and ``c`` come from the template) and its own
``draw(rng, m)``.  ``RadialLaw`` lists the classes once and ``RADIAL_KINDS``
maps each name to its class, so adding a radial law means adding its class
to ``RadialLaw``.  ``Coupling`` says how the radius depends on U, and
``PopulationTemplate`` is a population with the dimension left open.

RNG contract
------------
All draws go through an explicit ``numpy.random.Generator``.
``sample_population`` is the one function that draws a population: it seeds
a fresh PCG64 generator (``numpy.random.default_rng``) from
``PopulationSpec.seed``, so identical specs produce bit-identical samples.
A radial law's ``draw(rng, m)`` draws radii alone, and the unit sphere is
the population with ``ConstantRadius(1.0)``, whose draw takes no random
numbers.  Directions are never redrawn: a column of normals that are all
exactly 0.0 has probability zero.  Parallel trials must use independently
derived seeds; ``derive_seed`` mixes a base seed with trial indices through
SplitMix64, a fixed, documented 64-bit mixing function.

Chi radii (``chi``, ``signed-chi``) use sums of squared standard normals for
df <= 64 (exact construction) and a gamma sampler above that switch point
(speed); the benchmark's recorded covariance values come from that draw.
The normals are drawn and summed in row chunks of about 64 KB through one
buffer, which gives the bits and the generator state of one (m, df) draw
without making it.  t radii (``scaled-f-root``) use numpy's F sampler, two
gamma draws a radius.
"""

from __future__ import annotations

import numbers
import typing
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codec import Record

__all__ = [
    "ChiRadius", "ScaledFRootRadius", "ConstantRadius", "SignedChiRadius", "RadialLaw",
    "RADIAL_KINDS", "Coupling", "PopulationSpec", "PopulationTemplate", "sample_population",
    "splitmix64", "derive_seed"
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Above this df, chi-square draws switch from summed squared normals to a
# gamma sampler.
CHI_EXACT_DF_MAX = 64
# Doubles in the buffer through which the normal-sum chi-square passes its normals
_CHI_CHUNK = 8192


def splitmix64(x: int) -> int:
    """One SplitMix64 output step for the 64-bit state ``x``."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *indices: int) -> int:
    """Derive an independent 64-bit stream seed from a base seed and indices.

    The base seed absorbs each index in turn through SplitMix64:
    ``state <- splitmix64(state ^ splitmix64(index))``.  The mixing is fixed
    so that trial seeds are reproducible across runs and independent of the
    order in which trials execute.
    """
    state = base_seed & _MASK64
    for idx in indices:
        state = splitmix64(state ^ splitmix64(idx & _MASK64))
    return state


def _chi_square(rng: np.random.Generator, df: int, m: int) -> np.ndarray:
    """m draws of chi2_df; exact normal-sum construction up to df = 64.

    The (m, df) normals are drawn in row order, a chunk of rows at a time into
    one buffer, and each row is summed alone, so the chunks give the bits of
    one (m, df) draw and leave the generator where it would.
    """
    if df > CHI_EXACT_DF_MAX:
        return 2.0 * rng.standard_gamma(0.5 * df, size=m)
    out, rows = np.empty(m), _CHI_CHUNK // df
    buf = np.empty((min(m, rows), df))
    for start in range(0, m, rows):
        z = buf[: m - start]
        rng.standard_normal(out=z)
        np.einsum("ij,ij->i", z, z, out=out[start : start + len(z)])
    return out


def _check_positive_int(radial, name: str):
    value = getattr(radial, name)
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{type(radial).__name__} '{name}' must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class ChiRadius:
    """R = sqrt(chi2_df); nonnegative.  With df = d the population is N(0, I_d)."""

    name: typing.ClassVar[str] = "chi"
    params: typing.ClassVar[tuple[str, ...]] = ("df",)
    df: int

    def __post_init__(self):
        _check_positive_int(self, "df")

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return np.sqrt(_chi_square(rng, self.df, m))


@dataclass(frozen=True)
class ScaledFRootRadius:
    """R = sqrt(df * F_{df,p}), F from numpy's sampler; nonnegative.

    With df = d the population is the d-dimensional t with p degrees of
    freedom; p = 1 gives the multivariate Cauchy, which has no finite mean.
    """

    name: typing.ClassVar[str] = "scaled-f-root"
    params: typing.ClassVar[tuple[str, ...]] = ("df", "p")
    df: int
    p: int

    def __post_init__(self):
        _check_positive_int(self, "df")
        _check_positive_int(self, "p")

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return np.sqrt(self.df * rng.f(self.df, self.p, m))


@dataclass(frozen=True)
class ConstantRadius:
    """R = c exactly; c must be finite and nonzero (may be negative)."""

    name: typing.ClassVar[str] = "constant"
    params: typing.ClassVar[tuple[str, ...]] = ("c",)
    c: float

    def __post_init__(self):
        if self.c == 0 or not np.isfinite(self.c):
            raise ValueError(f"ConstantRadius 'c' must be finite and nonzero, got {self.c!r}")

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return np.full(m, float(self.c))


@dataclass(frozen=True)
class SignedChiRadius(ChiRadius):
    """R = +/- sqrt(chi2_df): the chi radius times an independent fair sign."""

    name: typing.ClassVar[str] = "signed-chi"

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return super().draw(rng, m) * (rng.integers(0, 2, size=m) * 2 - 1)


RadialLaw = ChiRadius | ScaledFRootRadius | ConstantRadius | SignedChiRadius

RADIAL_KINDS = {law.name: law for law in typing.get_args(RadialLaw)}


class Coupling(Enum):
    """How the radius depends on the sphere draw.

    ``INDEPENDENT`` draws R independently of U.  ``SIGN_U1`` multiplies the
    drawn radius by 1 + sign(u_1)/2: 3/2 when the first sphere coordinate is
    positive and 1/2 when it is negative, so the radius is a non-constant
    function of U with a nonzero multiplier.
    """

    INDEPENDENT = "independent"
    SIGN_U1 = "sign-u1"


@dataclass(frozen=True)
class PopulationSpec:
    """A generalized spherical population; the center is identically zero.

    Parameters
    ----------
    dim : int
        Dimension d >= 1.
    radial : RadialLaw
        Law of the scalar radius R.
    coupling : Coupling
        Dependence of the radius on the sphere draw.
    seed : int
        64-bit seed for the PCG64 generator backing ``sample_population``.
    """

    dim: int
    radial: RadialLaw
    coupling: Coupling = Coupling.INDEPENDENT
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if not isinstance(self.radial, RadialLaw):
            raise TypeError(f"unknown radial law: {self.radial!r}")
        if not isinstance(self.coupling, Coupling):
            raise TypeError(f"unknown coupling: {self.coupling!r}")


def sample_population(spec: PopulationSpec, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Draw the (spec.dim, n) data matrix of an i.i.d. sample of size n.

    Column j is R_j * U_j.  The PCG64 generator seeded from ``spec.seed``
    draws the (dim, n) normals whose columns over their norms are U, then the
    n radii from ``spec.radial``; the coupling multiplier comes last, so the
    same spec and n give the same bits.  The normals become U and then X in
    place, and the norms come from einsum, so the draw makes no (dim, n)
    temporary; for n >= 2 they are ``np.linalg.norm``'s bits.  With ``out``,
    a C-contiguous float64 array of at least dim * n entries, X is written
    into its first dim * n entries and returned as a view of them; any
    other ``out``, a list among them, raises ValueError.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    out = np.empty(spec.dim * n) if out is None else out
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.flags.c_contiguous and out.size >= spec.dim * n):
        raise ValueError(f"out must be a C-contiguous float64 array of at least {spec.dim * n} entries")
    rng = np.random.default_rng(spec.seed)
    u = rng.standard_normal(out=out.reshape(-1)[: spec.dim * n].reshape(spec.dim, n))
    u /= np.sqrt(np.einsum("ij,ij->j", u, u))
    r = spec.radial.draw(rng, n)
    if spec.coupling is Coupling.SIGN_U1:
        r = r * (1.0 + 0.5 * np.sign(u[0]))  # u[0]: first coordinate of each column
    u *= r
    return u


@dataclass(frozen=True)
class PopulationTemplate(Record):
    """Population family with the dimension left open.

    The radial degrees of freedom track the dimension: ``chi`` at dimension
    d uses chi2_d (standard normal population), ``scaled-f-root`` uses
    sqrt(d F_{d,p}) (d-dimensional t with p degrees of freedom), and
    ``signed-chi`` the sign-symmetrized chi.  ``constant`` uses the fixed
    radius ``c``.  A kind must get exactly the parameters it takes.
    """

    _where = "population"
    _omit_none = True

    radial: str
    coupling: Coupling = Coupling.INDEPENDENT
    p: int | None = None
    c: float | None = None

    def __post_init__(self):
        kind = RADIAL_KINDS.get(self.radial)
        if kind is None:
            raise ValueError(f"radial must be one of {tuple(RADIAL_KINDS)}, got {self.radial!r}")
        for name in ("p", "c"):
            if (getattr(self, name) is None) == (name in kind.params):
                verb = "requires" if name in kind.params else "does not take"
                raise ValueError(f"radial {self.radial!r} {verb} '{name}'")
        self.instantiate(1, 0)  # the law's own checks on p and c

    def instantiate(self, dim: int, seed: int) -> PopulationSpec:
        kind = RADIAL_KINDS[self.radial]
        values = {"df": dim, "p": self.p, "c": self.c}
        law = kind(*(values[name] for name in kind.params))
        return PopulationSpec(dim=dim, radial=law, coupling=self.coupling, seed=seed)
