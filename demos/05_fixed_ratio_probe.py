"""Exploratory probes beyond the d/n -> 0 regime.

Two open-ended measurements: at the fixed ratio y = d/n = 0.25 the
(non-standardized) Tyler spectrum is compared against the Marchenko-Pastur
law, and along the d/n = 0.01 schedule the variance of ||T* - S*||_2 is
fitted against d on log-log axes.  Both are reports, not gates.
"""

from tylerlaw import (
    ExperimentConfig,
    MarchenkoPastur,
    PopulationTemplate,
    Semicircle,
    run_sweep,
)


def main():
    print("Tyler spectrum at fixed ratio y = 0.25 vs Marchenko-Pastur(0.25)")
    cfg = ExperimentConfig(
        population=PopulationTemplate(radial="chi"),
        schedule={"preset": "mp", "dims": [50, 100]},
        replicates=5,
        estimators=("tyler",),
        standardized=False,
        reference=MarchenkoPastur(0.25),
        base_seed=20260810,
    )
    for pair in run_sweep(cfg, n_jobs=4).summary.pairs:
        t = pair.estimators["tyler"]
        print(f"  d={pair.d:4d}, n={pair.n:4d}: median KS = {t['ks_median']:.4f}")

    print()
    print("variance of ||T* - S*||_2 along the d/n = 0.01 schedule (Gaussian data)")
    cfg = ExperimentConfig(
        population=PopulationTemplate(radial="chi"),
        schedule={"preset": "semicircle", "dims": [16, 32, 64]},
        replicates=20,
        estimators=("covariance", "tyler"),
        standardized=True,
        reference=Semicircle(),
        base_seed=20260810,
    )
    result = run_sweep(cfg, n_jobs=4)
    for pair in result.summary.pairs:
        print(
            f"  d={pair.d:4d}: median = {pair.cross_norm_median:.4f}, "
            f"var = {pair.cross_norm_var:.3e}"
        )
    print(f"  fitted slope of log var vs log d: {result.summary.variance_slope:.2f}")
    print("  (a slope below -1 is what almost-sure convergence would want)")


if __name__ == "__main__":
    main()
