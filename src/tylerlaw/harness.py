"""Seeded Monte Carlo experiment harness.

An experiment draws samples from a generalized spherical population over a
schedule of (d, n) pairs, fits the requested scatter estimators, optionally
standardizes them to sqrt(n/d) * (A - I), and summarizes each spectrum
against a reference law.  Trials are independent: trial (i, r) uses the
seed ``derive_seed(base_seed, i, r)``, so a sweep is reproducible and its
persisted output is byte-identical regardless of the parallelism degree.

``ESTIMATORS`` is the one table of estimators: it maps each config tag to
its fit.  The config file schema and the output layout are described once,
in README.md ("Config schema" and "Output layout").
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._blas import one_blas_thread
from .codec import SCHEMA_VERSION, Record, check_keys, decode
from .estimators import sample_covariance, tyler
from .laws import ReferenceLaw, Semicircle, law_from_dict, law_to_dict
from .metrics import SpectralSummary, summarize
from .sampling import PopulationTemplate, derive_seed, sample_population
from .spectral import spectral_norm, standardize, symmetric_eigenvalues

__all__ = [
    "ESTIMATORS", "ExperimentConfig", "EstimatorResult", "TrialResult", "PairSummary",
    "SweepSummary", "SweepResult", "run_trial", "run_sweep", "summarize_sweep", "write_results",
    "read_trials"
]


def _fit_covariance(cfg: ExperimentConfig, X: np.ndarray, work: np.ndarray | None) -> tuple[np.ndarray, dict]:
    return sample_covariance(X), {}


def _fit_tyler(cfg: ExperimentConfig, X: np.ndarray, work: np.ndarray | None) -> tuple[np.ndarray, dict]:
    r = tyler(X, tol=cfg.tol, max_iter=cfg.max_iter, work=work)
    return r.estimate, dict(iterations=r.iterations, residual=r.residual, converged=r.converged)


# Config tag -> fit(cfg, X, work) -> (estimate, solver diagnostics for
# EstimatorResult), ``work`` a block apart from X that the fit may overwrite,
# or None.  The fits look ``tyler`` and ``sample_covariance`` up in this
# module when called, so a wrapper installed on those names sees every fit.
ESTIMATORS = {"covariance": _fit_covariance, "tyler": _fit_tyler}


# Doubles in a schedule's largest sample from which a sweep at n_jobs = 1 draws each next sample
# on a second CPU: below it a draw is too short to hide behind a fit
_DRAW_AHEAD_MIN = 1 << 14

# Schedule preset -> n/d of its pairs (d, n): d/n -> 0 for the semicircle, y = 1/4 for MP
_PRESET_RATIOS = {"semicircle": 100, "mp": 4}


def _schedule_from_config(spec) -> tuple[tuple[int, int], ...]:
    if isinstance(spec, dict):
        check_keys(spec, {"preset", "dims"}, "schedule")
        preset = decode(str | None, spec.get("preset"), "schedule 'preset'")
        if preset not in _PRESET_RATIOS:
            raise ValueError(f"schedule preset must be one of {tuple(_PRESET_RATIOS)}, got {preset!r}")
        spec = [(d, _PRESET_RATIOS[preset] * d) for d in decode(tuple[int, ...], spec.get("dims"), "schedule 'dims'")]
    return decode(tuple[tuple[int, int], ...], spec, "config 'schedule'")


@dataclass(frozen=True)
class ExperimentConfig(Record):
    """Full description of one sweep; README.md gives its JSON form."""

    _where = "config"

    population: PopulationTemplate
    schedule: tuple[tuple[int, int], ...] = field(metadata={"decode": _schedule_from_config})
    replicates: int
    estimators: tuple[str, ...] = ("tyler",)
    standardized: bool = True
    reference: ReferenceLaw = field(
        default=Semicircle(), metadata={"encode": law_to_dict, "decode": law_from_dict}
    )
    max_moment: int = 6
    base_seed: int = 0
    tol: float = field(default=1e-9, metadata={"group": "tyler"})
    max_iter: int = field(default=1000, metadata={"group": "tyler"})
    save_spectra: bool = False

    def __post_init__(self):
        object.__setattr__(self, "schedule", _schedule_from_config(self.schedule))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.schedule:
            raise ValueError("schedule must contain at least one (d, n) pair")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if not self.estimators or any(t not in ESTIMATORS for t in self.estimators):
            raise ValueError(f"estimators must be a nonempty subset of {tuple(ESTIMATORS)}")
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError("estimators must not repeat")
        if self.max_moment < 1:
            raise ValueError(f"max_moment must be >= 1, got {self.max_moment}")
        if not 0 < self.tol < np.inf or self.max_iter < 1:
            raise ValueError("tyler settings require a finite tol > 0 and max_iter >= 1")
        for d, n in self.schedule:
            if d < 1 or n < 1:
                raise ValueError(f"schedule pair ({d}, {n}) must be positive")
            if "tyler" in self.estimators and (n < d or n == d > 1):
                raise ValueError(f"schedule pair ({d}, {n}) has n {'<' if n < d else '='} d; Tyler's estimator requires n > d")

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError as exc:
            raise ValueError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass(frozen=True)
class EstimatorResult(Record):
    """One estimator's spectral summary plus its solver diagnostics."""

    summary: SpectralSummary
    iterations: int | None = None
    residual: float | None = None
    converged: bool | None = None


@dataclass
class TrialResult(Record):
    """Outcome of one (pair, replicate) trial.

    ``results`` maps estimator tags to their summaries; ``cross_norm`` is
    the spectral norm of sqrt(n/d) (T - S) when both estimators ran.  A
    failed trial carries the error string and an empty ``results``.
    ``spectra`` is an in-memory diagnostic: it is excluded from equality and
    from trials.json so that identical configs persist byte-identically.
    """

    _schema = True

    pair_index: int
    replicate: int
    d: int
    n: int
    seed: int
    results: dict[str, EstimatorResult]
    cross_norm: float | None = None
    error: str | None = None
    spectra: dict[str, np.ndarray] | None = field(default=None, compare=False, repr=False)

    @property
    def failed(self) -> bool:
        return self.error is not None

    def trial_id(self) -> str:
        return f"pair{self.pair_index:03d}_rep{self.replicate:03d}"

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "TrialResult":
        return cls.from_dict(json.loads(line))


def _draw(cfg: ExperimentConfig, pair_index: int, replicate: int, out: np.ndarray | None) -> np.ndarray:
    d, n = cfg.schedule[pair_index]
    return sample_population(cfg.population.instantiate(d, derive_seed(cfg.base_seed, pair_index, replicate)), n, out)


def run_trial(cfg: ExperimentConfig, pair_index: int, replicate: int, *, sample: np.ndarray | Future | None = None,
              work: np.ndarray | None = None) -> TrialResult:
    """Run one seeded trial on one BLAS thread; its errors yield a failed record, an address outside
    cfg a ValueError.

    ``sample`` is a block of at least d * n doubles to draw the sample into, or the Future of the
    sample drawn ahead, whose draw, if it raised, fails the trial as the same draw would here;
    ``work`` is ``tyler``'s workspace.  Without them the trial allocates its own."""
    if not (0 <= pair_index < len(cfg.schedule) and 0 <= replicate < cfg.replicates):
        raise ValueError(f"pair_index must be in 0..{len(cfg.schedule) - 1} and replicate in 0..{cfg.replicates - 1}")
    d, n = cfg.schedule[pair_index]
    seed = derive_seed(cfg.base_seed, pair_index, replicate)
    trial = TrialResult(pair_index=pair_index, replicate=replicate, d=d, n=n, seed=seed, results={})
    with one_blas_thread():
        try:
            X = sample.result() if isinstance(sample, Future) else _draw(cfg, pair_index, replicate, sample)
            mats: dict[str, np.ndarray] = {}
            spectra: dict[str, np.ndarray] = {}
            for tag in cfg.estimators:
                mats[tag], diag = ESTIMATORS[tag](cfg, X, work)
                A = standardize(mats[tag], n) if cfg.standardized else mats[tag]
                spectra[tag] = symmetric_eigenvalues(A)
                trial.results[tag] = EstimatorResult(summarize(spectra[tag], cfg.reference, cfg.max_moment), **diag)
            if "covariance" in mats and "tyler" in mats:
                trial.cross_norm = float(spectral_norm(np.sqrt(n / d) * (mats["tyler"] - mats["covariance"])))
            trial.spectra = spectra if cfg.save_spectra else None
        except (ValueError, OverflowError, RuntimeError) as exc:
            trial.results, trial.cross_norm = {}, None
            trial.error = f"{type(exc).__name__}: {exc}"
    return trial


@dataclass
class PairSummary(Record):
    """Aggregates over the successful replicates of one (d, n) pair."""

    pair_index: int
    d: int
    n: int
    trials: int
    failed: int
    estimators: dict[str, dict]
    cross_norm_median: float | None = None
    cross_norm_mean: float | None = None
    cross_norm_var: float | None = None


@dataclass
class SweepSummary(Record):
    """Per-pair aggregates and the sweep's trial counts."""

    _schema = True

    pairs: list[PairSummary]
    total_trials: int
    total_failed: int


@dataclass
class SweepResult:
    """A sweep's records and aggregates, and its wall time in seconds."""

    config: ExperimentConfig
    trials: list[TrialResult]
    summary: SweepSummary
    wall_time: float


def _estimator_aggregates(records: list[EstimatorResult]) -> dict:
    def column(name):
        return np.array([getattr(r.summary, name) for r in records])

    ks, snorm = column("ks"), column("spectral_norm")
    return {
        "ks_median": float(np.median(ks)),
        "ks_mean": float(np.mean(ks)),
        "lambda_min_median": float(np.median(column("lambda_min"))),
        "lambda_max_median": float(np.median(column("lambda_max"))),
        "spectral_norm_median": float(np.median(snorm)),
        "spectral_norm_mean": float(np.mean(snorm)),
        "moments_median": [float(v) for v in np.median(column("moments"), axis=0)],
    }


def summarize_sweep(cfg: ExperimentConfig, trials: list[TrialResult]) -> SweepSummary:
    """Aggregate per-pair medians/means; failed trials are counted, not pooled."""
    pairs: list[PairSummary] = []
    for i, (d, n) in enumerate(cfg.schedule):
        mine = [t for t in trials if t.pair_index == i]
        ok = [t for t in mine if not t.failed]
        est: dict[str, dict] = {}
        for tag in cfg.estimators:
            records = [t.results[tag] for t in ok if tag in t.results]
            if records:
                est[tag] = _estimator_aggregates(records)
        ps = PairSummary(pair_index=i, d=d, n=n, trials=len(mine), failed=len(mine) - len(ok), estimators=est)
        crosses = np.array([t.cross_norm for t in ok if t.cross_norm is not None])
        if crosses.size:
            ps.cross_norm_median = float(np.median(crosses))
            ps.cross_norm_mean = float(np.mean(crosses))
            ps.cross_norm_var = float(np.var(crosses, ddof=1)) if crosses.size > 1 else 0.0
        pairs.append(ps)

    failed = sum(1 for t in trials if t.failed)
    return SweepSummary(pairs=pairs, total_trials=len(trials), total_failed=failed)


def run_sweep(cfg: ExperimentConfig, n_jobs: int = 1) -> SweepResult:
    """Run every (pair, replicate) trial; parallelism never changes the output.

    Each trial derives its own seed, so any execution order yields the same
    records; every path returns them in (pair, replicate) order.
    Every trial runs on one BLAS thread, and cores are used through
    ``n_jobs`` trial threads: the process-wide thread count of scipy's
    OpenBLAS is 1 until the sweep returns or raises, at any ``n_jobs``.
    Each trial thread makes two blocks of the schedule's largest d * n
    doubles at its first trial and hands them to each of its trials as
    ``run_trial``'s ``sample`` and ``work``, so the trials allocate no
    (d, n) array.  The blocks are freed with this call's frame.

    At ``n_jobs`` 1, when this thread may run on two CPUs or more and the
    largest sample holds at least ``_DRAW_AHEAD_MIN`` doubles, one helper
    thread draws each trial's sample while the trial before it runs, into
    two sample blocks in turn, and the trial gets the draw's Future as
    ``sample``: the sweep holds three blocks.  The helper is pinned to one
    CPU, since a woken thread is otherwise placed on its waker's, and joined
    before the call returns or raises.  The call writes no state of this
    thread: the only process state it changes is the OpenBLAS thread count,
    which it restores, and the only CPU mask it sets is the helper's.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    start = time.perf_counter()
    tasks = [(i, r) for i in range(len(cfg.schedule)) for r in range(cfg.replicates)]
    size = max(d * n for d, n in cfg.schedule)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    blocks = threading.local()  # each trial thread's sample and workspace blocks

    def trial(task):
        if not hasattr(blocks, "sample"):
            blocks.sample, blocks.work = np.empty(size), np.empty(size)
        return run_trial(cfg, *task, sample=blocks.sample, work=blocks.work)

    with one_blas_thread():
        if n_jobs > 1:
            with ThreadPoolExecutor(max_workers=n_jobs) as pool:
                trials = list(pool.map(trial, tasks))
        elif len(cpus) > 1 and size >= _DRAW_AHEAD_MIN:
            trials = _run_drawing_ahead(cfg, tasks, size, max(cpus))
        else:
            trials = [trial(t) for t in tasks]
    summary = summarize_sweep(cfg, trials)
    return SweepResult(config=cfg, trials=trials, summary=summary, wall_time=time.perf_counter() - start)


def _run_drawing_ahead(cfg: ExperimentConfig, tasks: list, size: int, helper: int) -> list[TrialResult]:
    """``run_sweep``'s serial trials, each sample drawn by a helper pinned to CPU ``helper`` while
    this thread runs the trial before it."""
    samples, work = (np.empty(size), np.empty(size)), np.empty(size)
    with ThreadPoolExecutor(1, initializer=os.sched_setaffinity, initargs=(0, {helper})) as pool:

        def draw(k):  # into the block that trial k - 2 used, which has returned
            return pool.submit(_draw, cfg, *tasks[k], samples[k % 2]) if k < len(tasks) else None

        trials, ahead = [], draw(0)
        for k, task in enumerate(tasks):
            sample, ahead = ahead, draw(k + 1)
            trials.append(run_trial(cfg, *task, sample=sample, work=work))
    return trials


def _atomic_write_text(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_results(result: SweepResult, out_dir) -> Path:
    """Persist a sweep: trials.json (JSONL), summary.json, optional spectra CSVs.

    Re-running with the same config overwrites atomically (temp file +
    rename), and a re-run deletes the spectra CSVs it did not write.
    Returns the output directory.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _atomic_write_text(out / "trials.json", "".join(t.to_json_line() + "\n" for t in result.trials))

    summary_doc = {
        "schema": SCHEMA_VERSION,
        "config": result.config.to_dict(),
        "summary": result.summary.to_dict(),
        "wall_time_total": result.wall_time,
    }
    _atomic_write_text(out / "summary.json", json.dumps(summary_doc, indent=2, sort_keys=True) + "\n")

    eig_dir = out / "eigenvalues"
    spectra = {eig_dir / f"{t.trial_id()}_{tag}.csv": lam for t in result.trials for tag, lam in (t.spectra or {}).items()}
    if spectra:
        eig_dir.mkdir(exist_ok=True)
    for path, lam in spectra.items():
        _atomic_write_text(path, "".join(f"{v:.17g}\n" for v in lam))
    # spectra of an earlier sweep into this directory would pass for this one's
    for stale in set(eig_dir.glob("pair*_rep*_*.csv")) - spectra.keys():
        stale.unlink()
    return out


def read_trials(path) -> list[TrialResult]:
    """Parse a trials.json (one JSON object per line) back into records."""
    with open(path, encoding="utf-8") as fh:
        return [TrialResult.from_json_line(line) for line in fh if line.strip()]
