"""Output check for one sweep directory written by ``tylerlaw sweep``.

The check reads only what the sweep wrote (``trials.json``,
``summary.json``, the eigenvalue CSVs) and flags each trial that fails:

- every Tyler fit reports ``converged`` with ``residual <= 1e-8 * d``
  (the criterion-1 contract);
- each pair's ``ks_median`` is the median of its trials' KS values, and,
  at the golden seed, matches the value recorded when the benchmark was
  defined;
- the workload's KS gates hold (median KS at d = 64 <= 0.12 for the
  Cauchy semicircle sweep);
- with spectra saved, one CSV exists per successful trial and estimator.

A pair-level failure fails every trial of that pair.

``spot_check`` recomputes one trial per pair with the benchmark's own plain
Tyler iteration and reference-law CDFs, so that a run at any seed is
checked against code outside ``tylerlaw``.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RESIDUAL_PER_DIM = 1e-8

# Absolute KS tolerance per unit of the Tyler tolerance.  Stopping at
# relative step tol leaves the estimate within about tol * rho / (1 - rho)
# of the fixed point (rho <= 0.85 on these workloads), and the reference
# densities are at most 2.1, so KS moves by a small multiple of tol:
# between tol = 1e-9 and tol = 1e-13 it moved by at most 1e-9.  A factor
# of 100 leaves that much margin.
KS_ATOL_PER_TOL = 100.0

# Median-of-trials consistency is pure arithmetic on the same floats.
MEDIAN_RTOL = 1e-12


@dataclass
class CheckResult:
    trials: int
    failed: set = field(default_factory=set)  # (pair_index, replicate)
    problems: list[str] = field(default_factory=list)
    sha256: str = ""

    def fail(self, keys, why: str):
        self.failed.update(keys)
        self.problems.append(why)


def read_sweep(out_dir: Path) -> tuple[list[dict], dict, str]:
    raw = (out_dir / "trials.json").read_bytes()
    trials = [json.loads(line) for line in raw.decode("utf-8").splitlines() if line.strip()]
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    return trials, summary, hashlib.sha256(raw).hexdigest()


def check_sweep(out_dir, config: dict, golden=None, ks_gates=None) -> CheckResult:
    """Check one sweep's output against ``config``; see the module docstring.

    ``golden`` maps an estimator tag to its per-pair ``ks_median`` list, or
    is None when no recorded values apply to this seed.
    """
    out_dir = Path(out_dir)
    trials, summary, digest = read_sweep(out_dir)
    tol = config["tyler"]["tol"]
    ks_atol = KS_ATOL_PER_TOL * tol
    res = CheckResult(trials=len(trials), sha256=digest)
    by_pair: dict[int, list[dict]] = {}
    for t in trials:
        by_pair.setdefault(t["pair_index"], []).append(t)
        key = (t["pair_index"], t["replicate"])
        if t["error"] is not None:
            res.fail([key], f"trial {key} raised: {t['error']}")
            continue
        fit = t["results"].get("tyler")
        if fit is not None and not (fit["converged"] and fit["residual"] <= RESIDUAL_PER_DIM * t["d"]):
            res.fail([key], f"trial {key}: converged={fit['converged']} residual={fit['residual']}")

    expected = config["replicates"] * len(summary["summary"]["pairs"])
    if len(trials) != expected:
        res.fail(set(), f"trials.json has {len(trials)} rows, expected {expected}")

    for pair in summary["summary"]["pairs"]:
        i = pair["pair_index"]
        keys = [(t["pair_index"], t["replicate"]) for t in by_pair.get(i, [])]
        for tag in config["estimators"]:
            ks = [t["results"][tag]["summary"]["ks"] for t in by_pair.get(i, []) if t["error"] is None]
            got = pair["estimators"].get(tag, {}).get("ks_median")
            if got is None or not ks:
                res.fail(keys, f"pair {i} {tag}: no ks_median")
                continue
            if not math.isclose(got, statistics.median(ks), rel_tol=MEDIAN_RTOL):
                res.fail(keys, f"pair {i} {tag}: ks_median {got} is not the median of its trials")
            if golden is not None and abs(got - golden[tag][i]) > ks_atol:
                res.fail(keys, f"pair {i} {tag}: ks_median {got} != recorded {golden[tag][i]}")
            gate = (ks_gates or {}).get(pair["d"])
            if tag == "tyler" and gate is not None and got > gate:
                res.fail(keys, f"pair {i} (d={pair['d']}): ks_median {got} above gate {gate}")

    if config.get("save_spectra"):
        ok = [t for t in trials if t["error"] is None]
        n_csv = len(list((out_dir / "eigenvalues").glob("*.csv")))
        if n_csv != len(ok) * len(config["estimators"]):
            res.fail(set(), f"{n_csv} spectra CSVs for {len(ok)} trials")
    return res


# --- independent recomputation -------------------------------------------


def reference_tyler(X: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Plain Tyler fixed-point iteration from the identity, trace d."""
    d, n = X.shape
    T = np.eye(d)
    for _ in range(max_iter):
        q = np.einsum("ij,ij->j", X, np.linalg.solve(T, X))
        G = (d / n) * (X / q) @ X.T
        G = 0.5 * (G + G.T)
        G *= d / np.trace(G)
        step = np.linalg.norm(G - T) / np.linalg.norm(T)
        T = G
        if step <= tol:
            return T
    raise RuntimeError("reference Tyler iteration did not converge")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)


def reference_cdf(law: dict, x: np.ndarray) -> np.ndarray:
    """Semicircle CDF in closed form; Marchenko-Pastur (y < 1) by Gauss-Legendre.

    The MP density is integrated after x = a + (b - a) sin^2(theta), which
    makes the integrand smooth on [0, theta(x)].
    """
    x = np.asarray(x, dtype=float)
    if law["law"] == "semicircle":
        t = np.clip(x, -2.0, 2.0)
        return 0.5 + t * np.sqrt(4.0 - t * t) / (4.0 * np.pi) + np.arcsin(t / 2.0) / np.pi
    y = law["y"]
    if not 0 < y < 1:
        raise ValueError(f"reference MP CDF needs 0 < y < 1, got {y}")
    a, b = (1 - math.sqrt(y)) ** 2, (1 + math.sqrt(y)) ** 2
    span = b - a
    top = np.arcsin(np.sqrt(np.clip((x - a) / span, 0.0, 1.0)))
    theta = 0.5 * top[:, None] * (_GL_NODES[None, :] + 1.0)
    s2 = np.sin(theta) ** 2
    f = span * span * np.sin(2.0 * theta) ** 2 / (4.0 * np.pi * y * (a + span * s2))
    return 0.5 * top * (f @ _GL_WEIGHTS)


def reference_ks(eigenvalues: np.ndarray, law: dict) -> float:
    lam = np.sort(eigenvalues)
    d = lam.size
    G = reference_cdf(law, lam)
    return float(max(np.abs(np.arange(1, d + 1) / d - G).max(), np.abs(np.arange(d) / d - G).max()))


def spot_check(out_dir, config: dict) -> CheckResult:
    """Recompute the Tyler KS of replicate 0 of every pair independently.

    The inputs are regenerated with ``tylerlaw``'s seeded sampler (they are
    the sweep's inputs); the estimate, spectrum and KS distance are not.
    """
    from tylerlaw.harness import ExperimentConfig
    from tylerlaw.sampling import derive_seed, sample_population

    out_dir = Path(out_dir)
    trials, _, digest = read_sweep(out_dir)
    rows = {(t["pair_index"], t["replicate"]): t for t in trials}
    cfg = ExperimentConfig.from_dict(config)
    res = CheckResult(trials=len(cfg.schedule), sha256=digest)
    for i, (d, n) in enumerate(cfg.schedule):
        key = (i, 0)
        row = rows.get(key)
        if row is None or row["error"] is not None:
            res.fail([key], f"spot check: trial {key} missing or failed")
            continue
        X = sample_population(cfg.population.instantiate(d, derive_seed(cfg.base_seed, i, 0)), n)
        T = reference_tyler(X, cfg.tol, cfg.max_iter)
        A = math.sqrt(n / d) * (T - np.eye(d)) if cfg.standardized else T
        want = reference_ks(np.linalg.eigvalsh(A), config["reference"])
        got = row["results"]["tyler"]["summary"]["ks"]
        if abs(got - want) > KS_ATOL_PER_TOL * cfg.tol:
            res.fail([key], f"spot check: trial {key} ks {got} != recomputed {want}")
    return res
