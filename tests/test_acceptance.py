"""Acceptance suite: one printed pass/fail line per criterion.

Run ``pytest tests/test_acceptance.py -s`` to watch the lines live.  The
Monte Carlo criteria (3-8) use the frozen base seed 20260810; thresholds
were calibrated once against these runs (and against quadrature / brute
force oracles for the exact criteria) and are fixed below.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from tylerlaw import (
    ExperimentConfig,
    MarchenkoPastur,
    PopulationTemplate,
    Semicircle,
    esd_moment,
    ks_distance,
    run_sweep,
    semicircle_moment,
    spectral_norm,
    symmetric_eigenvalues,
    tyler,
    tyler_residual,
    write_results,
)

BASE_SEED = 20260810
REPLICATES = 20
DIMS = (16, 32, 64)

# calibrated Monte Carlo thresholds (medians over 20 replicates)
KS_MAX_AT_64 = 0.12
LAMBDA_MIN_BAND = (-2.6, -1.5)
LAMBDA_MAX_BAND = (1.5, 2.6)
# Tyler's second standardized moment carries a finite-d bias of about 3/d
# (measured 1.04-1.06 at d=64), so the m=2 gate sits above it
MOMENT_TOL = {1: 0.05, 2: 0.08, 3: 0.3, 4: 0.3}
CROSS_NORM_MAX_AT_64 = 0.5
S_NORM_BAND = (1.6, 2.5)


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def cauchy_sweep():
    # multivariate Cauchy population: no finite mean, Tyler still converges
    cfg = ExperimentConfig(
        population=PopulationTemplate(radial="scaled-f-root", p=1),
        schedule={"preset": "semicircle", "dims": DIMS},
        replicates=REPLICATES,
        estimators=("tyler",),
        standardized=True,
        reference=Semicircle(),
        max_moment=6,
        base_seed=BASE_SEED,
    )
    return run_sweep(cfg, n_jobs=4)


@pytest.fixture(scope="module")
def gaussian_sweep():
    cfg = ExperimentConfig(
        population=PopulationTemplate(radial="chi"),
        schedule={"preset": "semicircle", "dims": DIMS},
        replicates=REPLICATES,
        estimators=("covariance", "tyler"),
        standardized=True,
        reference=Semicircle(),
        max_moment=6,
        base_seed=BASE_SEED,
    )
    return run_sweep(cfg, n_jobs=4)


def test_criterion_1_exact_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)

    # Tyler contract on 20 random instances, d <= 30, n = 10 d
    for _ in range(20):
        d = int(rng.integers(2, 31))
        X = rng.standard_normal((d, 10 * d))
        rep = tyler(X)
        assert rep.residual <= 1e-8 * d
        assert abs(np.trace(rep.estimate) - d) <= 1e-10 * d

    # radial-scale invariance under random nonzero (incl. negative) scalings
    for seed in (1, 2, 3):
        r = np.random.default_rng(seed)
        d, n = 8, 80
        X = r.standard_normal((d, n))
        scales = r.uniform(0.1, 10.0, n) * r.choice([-1.0, 1.0], n)
        assert np.max(np.abs(tyler(X).estimate - tyler(X * scales).estimate)) <= 1e-8

    # orthogonal equivariance
    for seed in (4, 5, 6):
        r = np.random.default_rng(seed)
        d, n = 7, 70
        X = r.standard_normal((d, n))
        Q, _ = np.linalg.qr(r.standard_normal((d, d)))
        T = tyler(X).estimate
        assert np.max(np.abs(tyler(Q @ X).estimate - Q @ T @ Q.T)) <= 1e-8
        assert tyler_residual(Q @ X, Q @ T @ Q.T) <= 1e-8 * d

    # Weyl eigenvalue perturbation bound on 100 random symmetric pairs
    for _ in range(100):
        d = int(rng.integers(2, 41))
        A = rng.standard_normal((d, d))
        B = rng.standard_normal((d, d))
        A, B = 0.5 * (A + A.T), 0.5 * (B + B.T)
        gap = np.abs(symmetric_eigenvalues(A) - symmetric_eigenvalues(B))
        bound = spectral_norm(A - B)
        assert np.all(gap <= bound + 1e-10 * max(1.0, bound))

    # ESD moments against the trace-power brute force
    for _ in range(10):
        d = int(rng.integers(2, 51))
        A = rng.standard_normal((d, d))
        A = 0.5 * (A + A.T)
        lam = symmetric_eigenvalues(A)
        P = np.eye(d)
        for m in range(1, 5):
            P = P @ A
            target = np.trace(P) / d
            assert abs(esd_moment(lam, m) - target) <= 1e-8 * max(1.0, abs(target))

    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (exact invariant suite)",
        elapsed < 10.0,
        f"all invariants hold, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_law_correctness():
    sc = Semicircle()
    worst_cdf = 0.0
    for x in np.linspace(-2.0, 2.0, 1000):
        worst_cdf = max(worst_cdf, abs(sc.cdf(x) - quad(sc.pdf, -2.0, x, epsabs=1e-13, limit=200)[0]))
    assert worst_cdf <= 1e-9

    worst_moment = 0.0
    for m in range(11):
        q = quad(lambda t, m=m: t**m * sc.pdf(t), -2.0, 2.0, epsabs=1e-12, limit=200)[0]
        worst_moment = max(worst_moment, abs(semicircle_moment(m) - q))
        if m % 2 == 1:
            assert semicircle_moment(m) == 0.0
    assert worst_moment <= 1e-8
    assert [semicircle_moment(m) for m in (2, 4, 6, 8, 10)] == [1.0, 2.0, 5.0, 14.0, 42.0]

    worst_mass, worst_mean = 0.0, 0.0
    for y in (0.1, 0.25, 0.5, 1.0, 2.0):
        mp = MarchenkoPastur(y)
        lo, hi = mp.support()
        mass = quad(mp.pdf, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=400)[0]
        mean = quad(lambda t: t * mp.pdf(t), lo, hi, epsabs=1e-12, epsrel=1e-12, limit=400)[0]
        worst_mass = max(worst_mass, abs(mass - (1.0 - mp.point_mass_at_zero)))
        worst_mean = max(worst_mean, abs(mean - 1.0))
    assert worst_mass <= 1e-8
    assert worst_mean <= 1e-6

    _report(
        "criterion 2 (law correctness)",
        True,
        f"cdf err {worst_cdf:.1e}, moment err {worst_moment:.1e}, "
        f"MP mass err {worst_mass:.1e}, MP mean err {worst_mean:.1e}",
    )


def _tyler_medians(sweep, key):
    return [pair.estimators["tyler"][key] for pair in sweep.summary.pairs]


def test_criterion_3_semicircle_convergence(cauchy_sweep):
    assert cauchy_sweep.summary.total_failed == 0
    ks = _tyler_medians(cauchy_sweep, "ks_median")
    ok = ks[-1] <= KS_MAX_AT_64 and ks[0] > ks[1] > ks[2]
    _report(
        "criterion 3 (ESD of standardized Tyler vs semicircle, Cauchy data)",
        ok,
        f"median KS over d={DIMS}: {[round(v, 4) for v in ks]} (gate {KS_MAX_AT_64} at d=64, decreasing)",
    )


def test_criterion_4_extreme_eigenvalues(cauchy_sweep):
    lmin = _tyler_medians(cauchy_sweep, "lambda_min_median")
    lmax = _tyler_medians(cauchy_sweep, "lambda_max_median")
    in_band = (
        LAMBDA_MIN_BAND[0] <= lmin[-1] <= LAMBDA_MIN_BAND[1]
        and LAMBDA_MAX_BAND[0] <= lmax[-1] <= LAMBDA_MAX_BAND[1]
    )
    shrinking = abs(lmin[-1] + 2.0) < abs(lmin[0] + 2.0) and abs(lmax[-1] - 2.0) < abs(lmax[0] - 2.0)
    _report(
        "criterion 4 (extreme standardized eigenvalues approach -2 and 2)",
        in_band and shrinking,
        f"median lambda_min {[round(v, 3) for v in lmin]}, lambda_max {[round(v, 3) for v in lmax]}",
    )


def test_criterion_5_moment_convergence(cauchy_sweep):
    moments = _tyler_medians(cauchy_sweep, "moments_median")[-1]  # d = 64
    gaps = {m: abs(moments[m - 1] - semicircle_moment(m)) for m in (1, 2, 3, 4)}
    ok = all(gaps[m] <= MOMENT_TOL[m] for m in gaps)
    _report(
        "criterion 5 (ESD moments vs semicircle moments at d=64)",
        ok,
        "gaps " + ", ".join(f"m={m}: {gaps[m]:.3f} (tol {MOMENT_TOL[m]})" for m in sorted(gaps)),
    )


def test_criterion_6_tyler_tracks_covariance(gaussian_sweep):
    assert gaussian_sweep.summary.total_failed == 0
    cross = [pair.cross_norm_median for pair in gaussian_sweep.summary.pairs]
    ok = cross[0] > cross[1] > cross[2] and cross[-1] <= CROSS_NORM_MAX_AT_64
    _report(
        "criterion 6 (||T* - S*||_2 shrinks along d)",
        ok,
        f"median over d={DIMS}: {[round(v, 4) for v in cross]} (gate {CROSS_NORM_MAX_AT_64} at d=64)",
    )


def test_criterion_7_covariance_norm(gaussian_sweep):
    snorm = [pair.estimators["covariance"]["spectral_norm_median"] for pair in gaussian_sweep.summary.pairs]
    ok = S_NORM_BAND[0] <= snorm[-1] <= S_NORM_BAND[1]
    _report(
        "criterion 7 (||S*||_2 near 2 at d=64)",
        ok,
        f"median ||S*||_2 over d={DIMS}: {[round(v, 3) for v in snorm]} (band {S_NORM_BAND})",
    )


def test_criterion_8_exploratory_reports(gaussian_sweep):
    # fixed-ratio probe: non-standardized Tyler spectrum against MP(0.25)
    cfg = ExperimentConfig(
        population=PopulationTemplate(radial="chi"),
        schedule={"preset": "mp", "dims": [100]},
        replicates=5,
        estimators=("tyler",),
        standardized=False,
        reference=MarchenkoPastur(0.25),
        max_moment=6,
        base_seed=BASE_SEED,
    )
    probe = run_sweep(cfg, n_jobs=4)
    ks = probe.summary.pairs[0].estimators["tyler"]["ks_median"]
    slope = gaussian_sweep.summary.variance_slope
    assert np.isfinite(ks) and np.isfinite(slope)
    print(
        f"[REPORT] criterion 8 (exploratory, no gate): "
        f"KS(ESD(T), MP(0.25)) at d=100, n=400 = {ks:.4f} (expected under ~0.1); "
        f"slope of log var(||T* - S*||_2) vs log d = {slope:.2f}"
    )


def test_criterion_9_reproducibility(tmp_path):
    cfg = ExperimentConfig(
        population=PopulationTemplate(radial="chi"),
        schedule=((8, 80), (16, 160)),
        replicates=3,
        estimators=("covariance", "tyler"),
        base_seed=BASE_SEED,
        save_spectra=True,
    )
    a = write_results(run_sweep(cfg, n_jobs=1), tmp_path / "serial")
    b = write_results(run_sweep(cfg, n_jobs=4), tmp_path / "parallel")
    same_trials = (a / "trials.json").read_bytes() == (b / "trials.json").read_bytes()
    spectra_a = sorted(f.name for f in (a / "eigenvalues").glob("*.csv"))
    same_spectra = spectra_a == sorted(f.name for f in (b / "eigenvalues").glob("*.csv")) and all(
        (a / "eigenvalues" / f).read_bytes() == (b / "eigenvalues" / f).read_bytes() for f in spectra_a
    )
    _report(
        "criterion 9 (byte-identical persistence across parallelism)",
        same_trials and same_spectra,
        f"trials.json identical, {len(spectra_a)} spectra CSVs identical",
    )
