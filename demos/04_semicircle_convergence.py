"""The headline experiment: the standardized Tyler spectrum goes semicircle.

For a heavy-tailed (Cauchy) spherical population and a schedule with
d/n = 0.01, the empirical spectral distribution of sqrt(n/d) (T - I)
approaches the semicircle law as d grows: the KS distance falls, the
extreme eigenvalues head for -2 and 2, and the ESD moments head for the
Catalan numbers.  Writes one eigenvalue CSV per trial (plot-ready) plus
the trial and summary JSON files.
"""

from tylerlaw import (
    ExperimentConfig,
    PopulationTemplate,
    Semicircle,
    run_sweep,
    semicircle_moment,
    write_results,
)


def main():
    cfg = ExperimentConfig(
        population=PopulationTemplate(radial="scaled-f-root", p=1),
        schedule={"preset": "semicircle", "dims": [16, 32, 64]},
        replicates=10,
        estimators=("tyler",),
        standardized=True,
        reference=Semicircle(),
        max_moment=4,
        base_seed=20260810,
        save_spectra=True,
    )
    result = run_sweep(cfg, n_jobs=4)
    out = write_results(result, "semicircle_run")
    print(f"wrote {out}/trials.json, summary.json, eigenvalues/*.csv")
    print()
    print("     d      n   KS(T*, semicircle)   lambda_min   lambda_max    m2      m4")
    for pair in result.summary.pairs:
        t = pair.estimators["tyler"]
        print(
            f"  {pair.d:4d}  {pair.n:5d}        {t['ks_median']:.4f}        "
            f"{t['lambda_min_median']:+.3f}      {t['lambda_max_median']:+.3f}   "
            f"{t['moments_median'][1]:.3f}   {t['moments_median'][3]:.3f}"
        )
    print(
        f"  limit                 0.0            -2.000      +2.000   "
        f"{semicircle_moment(2):.3f}   {semicircle_moment(4):.3f}"
    )


if __name__ == "__main__":
    main()
