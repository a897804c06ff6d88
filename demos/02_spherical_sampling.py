"""Sampling generalized spherical populations X = R * U.

Shows the four radial laws (Gaussian via the chi radius, heavy-tailed
Cauchy via the scaled F root, exact constant, sign-symmetrized chi) and the
sign-of-first-coordinate coupling that makes R depend on U.  Everything is
seeded, so reruns reproduce these numbers exactly.
"""

import numpy as np

from tylerlaw import (
    ChiRadius,
    ConstantRadius,
    Coupling,
    PopulationSpec,
    ScaledFRootRadius,
    SignedChiRadius,
    sample_population,
)


def describe(name, spec, n=20_000):
    X = sample_population(spec, n)
    norms = np.linalg.norm(X, axis=0)
    print(f"{name} (d={spec.dim}, n={n})")
    print(f"  entry mean           = {X.mean():+.4f}")
    print(f"  median column norm   = {np.median(norms):.4f}")
    print(f"  max column norm      = {norms.max():.2f}")
    print(f"  99% column norm      = {np.quantile(norms, 0.99):.2f}")
    return X


def main():
    d = 10
    describe("standard normal population (chi radius)", PopulationSpec(d, ChiRadius(d), seed=1))

    # p = 1: multivariate Cauchy; the norm quantiles explode while the
    # median stays tame, the signature of a law with no mean
    describe(
        "multivariate Cauchy (sqrt(d F_{d,1}) radius)",
        PopulationSpec(d, ScaledFRootRadius(d, 1), seed=2),
    )

    describe("unit sphere (constant radius 1)", PopulationSpec(d, ConstantRadius(1.0), seed=3))

    describe("sign-symmetrized chi radius", PopulationSpec(d, SignedChiRadius(d), seed=4))
    r = SignedChiRadius(d).draw(np.random.default_rng(4), 10_000)
    print(f"  drawn radii: {np.mean(r < 0):.1%} negative (fair sign; X = R U is unchanged in law)")

    print()
    print("radius coupled to sign(u_1): multiplier 3/2 above the equator, 1/2 below")
    spec = PopulationSpec(2, ConstantRadius(2.0), Coupling.SIGN_U1, seed=5)
    X = sample_population(spec, 10_000)
    norms = np.linalg.norm(X, axis=0)
    up = norms[X[0] > 0]
    down = norms[X[0] < 0]
    print(f"  column norms with u_1 > 0: all equal {np.unique(np.round(up, 12))}")
    print(f"  column norms with u_1 < 0: all equal {np.unique(np.round(down, 12))}")


if __name__ == "__main__":
    main()
