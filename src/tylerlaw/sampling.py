"""Sampling from generalized spherical populations.

A generalized spherical population is a random vector X = R * U where U is
uniform on the unit sphere of R^d and R is a scalar radius.  Unlike the
classical spherical case, R may take negative values and may depend on U;
the center is identically zero.

``RADIAL_KINDS`` is the one table of radial laws: it maps each config and
CLI name (``chi``, ``scaled-f-root``, ``constant``, ``signed-chi``) to the
law's class, the parameters it takes and its draw.  Adding a radial law means
adding its class and one entry there.  ``Coupling`` says how the radius
depends on U, and ``PopulationTemplate`` is a population with the dimension
left open.

RNG contract
------------
All draws go through an explicit ``numpy.random.Generator``.  Population
sampling seeds a fresh PCG64 generator (``numpy.random.default_rng``) from
``PopulationSpec.seed``, so identical specs produce bit-identical samples.
Parallel trials must use independently derived seeds; ``derive_seed`` mixes
a base seed with trial indices through SplitMix64, a fixed, documented
64-bit mixing function.

Chi-square draws use sums of squared standard normals for df <= 64 (exact
construction) and a gamma sampler above that switch point (speed).
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codec import Record

__all__ = [
    "ChiRadius", "ScaledFRootRadius", "ConstantRadius", "SignedChiRadius", "RadialLaw",
    "RadialKind", "RADIAL_KINDS", "Coupling", "PopulationSpec", "PopulationTemplate",
    "DegenerateDrawError", "sample_unit_sphere", "sample_radius", "sample_population",
    "splitmix64", "derive_seed"
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Above this df, chi-square draws switch from summed squared normals to a
# gamma sampler.
CHI_EXACT_DF_MAX = 64

# Norms below this are treated as a degenerate sphere draw and redrawn.
_MIN_SPHERE_NORM = 1e-300
_MAX_REDRAWS = 100


class DegenerateDrawError(RuntimeError):
    """Raised when the sphere sampler keeps producing near-zero vectors."""


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


def _check_positive_int(law, name: str):
    value = getattr(law, name)
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{type(law).__name__} '{name}' must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class ChiRadius:
    """R = sqrt(chi2_df); nonnegative.  With df = d the population is N(0, I_d)."""

    df: int

    def __post_init__(self):
        _check_positive_int(self, "df")


@dataclass(frozen=True)
class ScaledFRootRadius:
    """R = sqrt(df * F_{df,p}) from independent chi-squares; nonnegative.

    With df = d the population is the d-dimensional t with p degrees of
    freedom; p = 1 gives the multivariate Cauchy, which has no finite mean.
    """

    df: int
    p: int

    def __post_init__(self):
        _check_positive_int(self, "df")
        _check_positive_int(self, "p")


@dataclass(frozen=True)
class ConstantRadius:
    """R = value exactly; value must be nonzero (may be negative)."""

    value: float

    def __post_init__(self):
        if self.value == 0:
            raise ValueError("ConstantRadius value must be nonzero")


@dataclass(frozen=True)
class SignedChiRadius:
    """R = +/- sqrt(chi2_df) with an independent fair sign."""

    df: int

    def __post_init__(self):
        _check_positive_int(self, "df")


RadialLaw = ChiRadius | ScaledFRootRadius | ConstantRadius | SignedChiRadius


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
        _kind_of(self.radial)
        if not isinstance(self.coupling, Coupling):
            raise TypeError(f"unknown coupling: {self.coupling!r}")


def sample_unit_sphere(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw uniformly from the unit sphere S^{d-1} in R^dim.

    Normalized independent standard normals; the construction is exactly
    rotation invariant in distribution.  Draws whose raw norm falls below
    1e-300 are redrawn (at most 100 times, then ``DegenerateDrawError``).

    Parameters
    ----------
    dim : int
        Ambient dimension, >= 1.  dim = 1 yields +1 or -1.
    rng : numpy.random.Generator
        Source of randomness.
    size : int, optional
        If given, draw that many points and return them as columns.

    Returns
    -------
    numpy.ndarray
        Shape (dim,) if size is None, else (dim, size); unit columns.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    m = 1 if size is None else int(size)
    if m < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    z = rng.standard_normal((dim, m))
    norms = np.linalg.norm(z, axis=0)
    for _ in range(_MAX_REDRAWS):
        bad = norms < _MIN_SPHERE_NORM
        if not bad.any():
            break
        k = int(bad.sum())
        z[:, bad] = rng.standard_normal((dim, k))
        norms = np.linalg.norm(z, axis=0)
    else:
        raise DegenerateDrawError(
            "degenerate-draw: sphere sampler produced near-zero vectors "
            f"{_MAX_REDRAWS} times in a row"
        )
    u = z / norms
    return u[:, 0] if size is None else u


def _chi_square(rng: np.random.Generator, df: int, m: int) -> np.ndarray:
    """m draws of chi2_df; exact normal-sum construction up to df = 64."""
    if df <= CHI_EXACT_DF_MAX:
        z = rng.standard_normal((m, df))
        return np.einsum("ij,ij->i", z, z)
    return 2.0 * rng.standard_gamma(0.5 * df, size=m)


def _draw_chi(law, rng, m):
    return np.sqrt(_chi_square(rng, law.df, m))


def _draw_scaled_f_root(law, rng, m):
    num = _chi_square(rng, law.df, m) / law.df
    den = _chi_square(rng, law.p, m) / law.p
    return np.sqrt(law.df * num / den)


def _draw_signed_chi(law, rng, m):
    return _draw_chi(law, rng, m) * (rng.integers(0, 2, size=m) * 2 - 1)


@dataclass(frozen=True)
class RadialKind:
    """A radial law as configs name it.

    ``params`` lists the constructor arguments of ``law`` in order: ``df``
    is tied to the population dimension, the others (``p``, ``c``) come
    from the ``PopulationTemplate``.  ``draw(law, rng, m)`` returns m radii.
    """

    law: type
    params: tuple[str, ...]
    draw: Callable[[RadialLaw, np.random.Generator, int], np.ndarray]


# The one place a radial law is registered: config and CLI name -> kind.
RADIAL_KINDS = {
    "chi": RadialKind(ChiRadius, ("df",), _draw_chi),
    "scaled-f-root": RadialKind(ScaledFRootRadius, ("df", "p"), _draw_scaled_f_root),
    "constant": RadialKind(ConstantRadius, ("c",), lambda law, rng, m: np.full(m, float(law.value))),
    "signed-chi": RadialKind(SignedChiRadius, ("df",), _draw_signed_chi),
}


def _kind_of(law) -> RadialKind:
    for kind in RADIAL_KINDS.values():
        if type(law) is kind.law:
            return kind
    raise TypeError(f"unknown radial law: {law!r}")


def sample_radius(
    law: RadialLaw, u: np.ndarray, coupling: Coupling, rng: np.random.Generator
) -> float | np.ndarray:
    """Draw the scalar radius (or one per column of ``u``).

    The base radius is drawn from ``law``; the coupling multiplier, if any,
    is applied last.  ``u`` must have unit column norms.

    Returns a float for a single unit vector, else an array of shape (m,)
    matching the columns of ``u``.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 1
    r = _kind_of(law).draw(law, rng, 1 if scalar else u.shape[1])
    if coupling is Coupling.SIGN_U1:
        r = r * (1.0 + 0.5 * np.sign(u[0]))  # u[0]: first coordinate of each column
    elif coupling is not Coupling.INDEPENDENT:
        raise TypeError(f"unknown coupling: {coupling!r}")
    return float(r[0]) if scalar else r


def sample_population(spec: PopulationSpec, n: int) -> np.ndarray:
    """Draw an i.i.d. sample of size n; columns are the observations.

    Column j is R_j * U_j with independent draws across j.  The generator is
    PCG64 seeded from ``spec.seed``, so the output is bit-identical across
    calls with the same spec and n.

    Returns
    -------
    numpy.ndarray
        Data matrix of shape (spec.dim, n); every column is nonzero.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(spec.seed)
    u = sample_unit_sphere(spec.dim, rng, size=n)
    r = sample_radius(spec.radial, u, spec.coupling, rng)
    return u * r


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
        law = kind.law(*(values[name] for name in kind.params))
        return PopulationSpec(dim=dim, radial=law, coupling=self.coupling, seed=seed)
