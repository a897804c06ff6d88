import ctypes
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from tylerlaw import (
    Coupling,
    ExperimentConfig,
    MarchenkoPastur,
    PopulationTemplate,
    Semicircle,
    SweepResult,
    derive_seed,
    read_trials,
    run_sweep,
    run_trial,
    summarize_sweep,
    write_results,
)
from tylerlaw import _blas, harness
from tylerlaw.harness import TrialResult

# the benchmark's span recorder, imported from its directory as the benchmark's own tests do
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from spans import Recorder, installed  # noqa: E402


# whether a sweep at n_jobs 1 draws ahead here, given a sample of at least 2^14 doubles
DRAWS_AHEAD = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def small_config(**overrides):
    base = dict(
        population=PopulationTemplate(radial="chi"),
        schedule=((4, 40), (8, 80)),
        replicates=3,
        estimators=("covariance", "tyler"),
        standardized=True,
        reference=Semicircle(),
        max_moment=4,
        base_seed=101,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_schedules(self):
        assert small_config(schedule={"preset": "semicircle", "dims": [16, 32]}).schedule == ((16, 1600), (32, 3200))
        assert small_config(schedule={"preset": "mp", "dims": [100]}).schedule == ((100, 400),)

    def test_round_trip_dict(self):
        cfg = small_config(reference=MarchenkoPastur(0.25), save_spectra=True)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_with_preset(self):
        cfg = ExperimentConfig.from_dict(
            {
                "population": {"radial": "scaled-f-root", "p": 1},
                "schedule": {"preset": "semicircle", "dims": [16, 32]},
                "replicates": 2,
            }
        )
        assert cfg.schedule == ((16, 1600), (32, 3200))
        assert cfg.estimators == ("tyler",)
        assert cfg.reference == Semicircle()

    def test_square_tyler_pair_rejected(self):
        with pytest.raises(ValueError, match=r"\(4, 4\).*requires n > d"):
            small_config(schedule=((4, 4),))
        small_config(schedule=((4, 4),), estimators=("covariance",))
        small_config(schedule=((1, 1),))  # d = 1 has no proper subspace

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="n < d"):
            small_config(schedule=((8, 4),))
        with pytest.raises(ValueError, match="replicates"):
            small_config(replicates=0)
        with pytest.raises(ValueError, match="estimators"):
            small_config(estimators=("ledoit",))
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"population": {"radial": "chi"}, "schedule": [[2, 4]], "replicates": 1, "bogus": 1})
        with pytest.raises(ValueError, match="unknown population keys"):
            PopulationTemplate.from_dict({"radial": "chi", "dim": 4})
        with pytest.raises(ValueError, match="scaled-f-root"):
            PopulationTemplate(radial="scaled-f-root")
        with pytest.raises(ValueError, match="'p'"):
            PopulationTemplate(radial="scaled-f-root", p=1.5)
        with pytest.raises(ValueError, match="'p'"):
            PopulationTemplate.from_dict({"radial": "scaled-f-root", "p": 1.5})
        with pytest.raises(ValueError, match="chi"):
            PopulationTemplate(radial="chi", c=2.0)
        with pytest.raises(ValueError, match="reference"):
            ExperimentConfig.from_dict(
                {"population": {"radial": "chi"}, "schedule": [[2, 4]], "replicates": 1, "reference": {"law": "wigner"}}
            )

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"replicates": 2.5}, "replicates"),
            ({"standardized": "yes"}, "standardized"),
            ({"estimators": ["tyler", 3]}, "estimators"),
            ({"tyler": {"tol": 1e-9, "max_iter": 10.5}}, "max_iter"),
            ({"tyler": {"tol": 1e-9, "steps": 3}}, "unknown tyler keys"),
            ({"reference": {"law": "mp", "y": 0.25, "z": 1}}, "z"),
            ({"population": {"radial": "constant", "c": "2"}}, "'c'"),
            ({"population": "chi"}, "population"),
            ({"schema": 1}, "unknown config keys"),
            ({"schedule": [[4.5, 40]]}, "schedule"),
            ({"schedule": {"preset": "mp"}}, "dims"),
            ({"schedule": {"preset": "mp", "dims": [8.5]}}, "dims"),
            ({"schedule": {"preset": "wigner", "dims": [8]}}, "preset"),
            ({"schedule": []}, "at least one"),
            ({"schedule": [[0, 4]]}, "must be positive"),
            ({"estimators": ["tyler", "tyler"]}, "must not repeat"),
            ({"max_moment": 0}, "max_moment"),
            ({"tyler": {"tol": 0.0}}, "tol > 0"),
            ({"tyler": {"max_iter": 0}}, "max_iter >= 1"),
            ({"tyler": {"tol": float("nan")}}, "finite tol > 0"),
            ({"tyler": {"tol": float("inf")}}, "finite tol > 0"),
            ({"reference": {"law": "mp", "y": float("inf")}}, "finite and > 0"),
            ({"population": {"radial": "constant", "c": float("nan")}}, "finite and nonzero"),
            ({"schedule": [[4, 40, 5]]}, "schedule"),
            ({"schedule": [[4]]}, "schedule"),
            ({"schedule": {"preset": ["mp"], "dims": [8]}}, "preset"),
            ({"reference": {"law": "mp"}}, "requires the 'y' key"),
            ({"reference": {"law": "semicircle", "y": 3}}, r"keys: \['y'\]"),
            ({"population": {"radial": "chi", "p": 7}}, "does not take 'p'"),
            ({"population": {"radial": "constant"}}, "requires 'c'"),
        ],
    )
    def test_load_time_type_checks(self, override, message):
        doc = {"population": {"radial": "chi"}, "schedule": [[2, 4]], "replicates": 1}
        doc.update(override)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("pair", [(4.5, 40), (4, 40.9), (True, 40)], ids=["d-4.5", "n-40.9", "d-True"])
    def test_python_built_schedule_must_hold_integers(self, pair):
        # (4.5, 40.9) used to run as (4, 40); from_dict already rejected it
        with pytest.raises(ValueError, match="schedule"):
            small_config(schedule=(pair,))

    def test_python_built_schedule_takes_a_preset(self):
        preset = {"preset": "mp", "dims": [100]}
        cfg = small_config(schedule=preset)
        assert cfg == ExperimentConfig.from_dict({**small_config().to_dict(), "schedule": preset})

    def test_numpy_integers_accepted_in_schedule(self):
        cfg = small_config(schedule=((np.int64(4), np.int64(40)),))
        assert cfg.schedule == ((4, 40),) and type(cfg.schedule[0][0]) is int

    def test_integers_widen_to_float(self):
        cfg = ExperimentConfig.from_dict(
            {"population": {"radial": "constant", "c": 2}, "schedule": [[2, 4]], "replicates": 1,
             "tyler": {"tol": 1}}
        )
        assert cfg.population.c == 2.0 and isinstance(cfg.population.c, float)
        assert cfg.tol == 1.0 and isinstance(cfg.tol, float)

    def test_covariance_only_allows_n_below_d(self):
        cfg = small_config(estimators=("covariance",), schedule=((8, 4),))
        assert cfg.schedule == ((8, 4),)

    def test_population_template_instantiation(self):
        pop = PopulationTemplate(radial="scaled-f-root", p=1, coupling=Coupling.SIGN_U1)
        spec = pop.instantiate(6, seed=9)
        assert spec.dim == 6 and spec.radial.df == 6 and spec.radial.p == 1
        assert spec.coupling is Coupling.SIGN_U1

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            ExperimentConfig.from_json_file(tmp_path / "nope.json")

    def test_bad_json_config(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            ExperimentConfig.from_json_file(p)


class TestRunTrial:
    def test_degenerate_pair_gives_zero_summary(self):
        cfg = ExperimentConfig(
            population=PopulationTemplate(radial="chi"),
            schedule=((1, 1),),
            replicates=1,
            estimators=("tyler",),
            base_seed=5,
        )
        t = run_trial(cfg, 0, 0)
        assert not t.failed
        s = t.results["tyler"].summary
        assert s.lambda_min == 0.0 and s.lambda_max == 0.0
        assert s.ks == pytest.approx(0.5)

    def test_seeded_convergence(self):
        cfg = small_config(schedule=((16, 1600),), estimators=("tyler",))
        t = run_trial(cfg, 0, 0)
        assert t.results["tyler"].converged
        assert t.results["tyler"].residual <= 1e-8

    def test_deterministic_records(self):
        cfg = small_config()
        a = run_trial(cfg, 1, 2)
        b = run_trial(cfg, 1, 2)
        assert a == b  # wall_time is excluded from comparison
        assert a.to_json_line() == b.to_json_line()
        assert a.seed == derive_seed(cfg.base_seed, 1, 2)

    def test_cross_norm_present_only_with_both_estimators(self):
        cfg = small_config()
        t = run_trial(cfg, 0, 0)
        assert t.cross_norm is not None and t.cross_norm >= 0
        t_single = run_trial(small_config(estimators=("tyler",)), 0, 0)
        assert t_single.cross_norm is None

    def test_failed_trial_recorded_not_raised(self):
        cfg = small_config(estimators=("tyler",), max_iter=1, tol=1e-15)
        t = run_trial(cfg, 0, 0)
        assert t.failed
        assert "no-convergence" in t.error
        assert t.results == {}

    @pytest.mark.parametrize("pair_index, replicate", [(-1, 0), (2, 0), (0, 3)], ids=["pair-1", "pair-len", "rep-len"])
    def test_trial_address_checked(self, pair_index, replicate):
        # (-1, 0) ran the last pair recorded as pair -1; (0, 3) ran a replicate
        # the three-replicate config does not have
        cfg = small_config()
        with pytest.raises(ValueError, match=r"pair_index must be in 0\.\.1 and replicate in 0\.\.2"):
            run_trial(cfg, pair_index, replicate)

    def test_given_blocks_change_no_byte(self):
        cfg = small_config()
        given = run_trial(cfg, 1, 2, sample=np.empty(8 * 80), work=np.empty(8 * 80))
        assert given.to_json_line() == run_trial(cfg, 1, 2).to_json_line()

    def test_the_sample_is_drawn_into_sample_and_fitted_in_work(self, monkeypatch):
        seen, real = [], harness.tyler

        def spy(X, *args, work=None, **kwargs):
            seen.append((X, work))
            return real(X, *args, work=work, **kwargs)

        monkeypatch.setattr(harness, "tyler", spy)
        sample, work = np.empty(8 * 80), np.empty(8 * 80)
        assert not run_trial(small_config(), 1, 0, sample=sample, work=work).failed
        [(X, given)] = seen
        assert given is work and np.shares_memory(X, sample)

    def test_one_block_as_both_fails_the_trial(self):
        # the fit would overwrite its own data: the trial fails, with no fit recorded
        block = np.empty(8 * 80)
        t = run_trial(small_config(), 1, 0, sample=block, work=block)
        assert t.failed and t.results == {} and t.cross_norm is None
        assert "work must not overlap the data matrix" in t.error

    def test_no_module_level_thread_local(self):
        # a sweep hands each trial its blocks as arguments, through no module state
        assert not any(isinstance(v, threading.local) for v in vars(harness).values())


@pytest.fixture
def blas_threads():
    """Set scipy's OpenBLAS to 2 threads, a count a parallel sweep must change
    and restore; yield the getter and put the prior count back afterwards."""
    get, set_ = _blas.openblas_thread_calls()
    prior = get()
    set_(2)
    yield get
    set_(prior)


class TestRunSweep:
    def test_basic_bookkeeping(self):
        cfg = ExperimentConfig(
            population=PopulationTemplate(radial="chi"),
            schedule=((8, 800),),
            replicates=3,
            estimators=("tyler",),
            base_seed=7,
        )
        result = run_sweep(cfg)
        assert len(result.trials) == 3
        assert result.summary.total_trials == 3
        assert result.summary.total_failed == 0
        pair = result.summary.pairs[0]
        assert pair.trials == 3
        assert "tyler" in pair.estimators
        assert np.isfinite(pair.estimators["tyler"]["ks_median"])

    def test_failed_trials_skipped_in_aggregates(self):
        cfg = small_config(estimators=("tyler",), max_iter=1, tol=1e-15)
        result = run_sweep(cfg)
        assert result.summary.total_failed == result.summary.total_trials
        for pair in result.summary.pairs:
            assert pair.estimators == {}
            assert pair.cross_norm_median is None

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_jobs_below_one_rejected(self, n_jobs):
        with pytest.raises(ValueError, match="n_jobs"):
            run_sweep(small_config(), n_jobs=n_jobs)

    def test_parallel_matches_serial(self):
        cfg = small_config()
        serial = run_sweep(cfg, n_jobs=1)
        parallel = run_sweep(cfg, n_jobs=4)
        assert [t.to_json_line() for t in serial.trials] == [
            t.to_json_line() for t in parallel.trials
        ]

    def test_blas_thread_calls_resolve(self):
        # CI pins scipy 1.17.1, whose wheel exports both calls; without them
        # the one-thread policy below would be a silent no-op
        assert _blas.openblas_thread_calls() is not None

    def test_blas_thread_calls_bound_once(self, blas_threads, monkeypatch):
        # the (get, set) pair is looked up when _blas is imported: entering
        # one_blas_thread, nested or not, and a sweep construct no CDLL
        made, real = [], ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: made.append(args) or real(*args, **kwargs))
        with _blas.one_blas_thread():
            with _blas.one_blas_thread():
                assert blas_threads() == 1
        run_sweep(small_config(), n_jobs=2)
        assert made == [] and blas_threads() == 2

    def test_a_sweep_writes_the_thread_count_twice(self, blas_threads, monkeypatch):
        # on entry and on exit: each trial's own entry finds 1 and writes nothing
        writes, (get, set_) = [], _blas.openblas_thread_calls()
        monkeypatch.setattr(_blas, "_THREAD_CALLS", (get, lambda count: writes.append(count) or set_(count)))
        run_sweep(small_config(), n_jobs=2)
        assert writes == [1, 2] and blas_threads() == 2

    def test_parallel_trials_run_on_one_blas_thread(self, blas_threads, monkeypatch):
        seen = []

        def spy(cfg, i, r, **blocks):
            seen.append(blas_threads())
            return real(cfg, i, r, **blocks)

        real = harness.run_trial
        monkeypatch.setattr(harness, "run_trial", spy)
        run_sweep(small_config(), n_jobs=2)
        assert seen == [1] * 6
        assert blas_threads() == 2
        seen.clear()
        run_sweep(small_config(), n_jobs=1)  # the serial path too: cores come from n_jobs
        assert seen == [1] * 6
        assert blas_threads() == 2

    def test_blas_threads_restored_when_a_trial_raises(self, blas_threads, monkeypatch):
        def boom(cfg, i, r, **blocks):
            assert blas_threads() == 1
            raise KeyError("boom")

        monkeypatch.setattr(harness, "run_trial", boom)
        for n_jobs in (1, 2):
            with pytest.raises(KeyError, match="boom"):
                run_sweep(small_config(), n_jobs=n_jobs)
            assert blas_threads() == 2

    def test_a_trial_alone_fits_on_one_blas_thread(self, blas_threads, monkeypatch):
        # outside a sweep too (a warm-up trial, a demo, a library caller):
        # the fit sees one BLAS thread, and the count is restored after a
        # trial that succeeds and after one that fails
        seen, real = [], harness.tyler

        def spy(*args, **kwargs):
            seen.append(blas_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "tyler", spy)
        assert not run_trial(small_config(), 0, 0).failed
        assert seen == [1] and blas_threads() == 2
        assert run_trial(small_config(max_iter=1, tol=1e-15), 1, 0).failed
        assert seen == [1, 1] and blas_threads() == 2

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_trials_after_a_threads_first_allocate_no_block(self, monkeypatch, n_jobs):
        # every trial thread draws its samples and fits them in its two blocks,
        # and at n_jobs 1 a helper draws them ahead into two spare blocks:
        # after a thread's first trial or draw, no trial's or draw's traced
        # peak reaches one (d, n) block.  tracemalloc's peak covers every
        # thread, so the lock runs one trial or drawn-ahead sample at a time
        # and each traced peak is its own; a trial's own draw is in its peak
        lock, nested, firsts, peaks = threading.RLock(), threading.local(), set(), {"trial": [], "draw": []}

        def traced(kind, real, shape):
            def call(*args, **kwargs):
                with lock:
                    if getattr(nested, "on", False):
                        return real(*args, **kwargs)
                    nested.on = True
                    tracemalloc.reset_peak()
                    start = tracemalloc.get_traced_memory()[0]
                    try:
                        result = real(*args, **kwargs)
                    finally:
                        nested.on = False
                    d, n = shape(*args)
                    if (kind, threading.get_ident()) in firsts:
                        peaks[kind].append((tracemalloc.get_traced_memory()[1] - start) / (8 * d * n))
                    firsts.add((kind, threading.get_ident()))
                    return result

            return call

        run, draw = traced("trial", harness.run_trial, lambda cfg, i, r: cfg.schedule[i]), harness.sample_population

        def trial(cfg, i, r, *, sample, work):
            if isinstance(sample, Future):  # drawn ahead under the lock: waited for outside it
                sample.result()
            return run(cfg, i, r, sample=sample, work=work)

        monkeypatch.setattr(harness, "run_trial", trial)
        monkeypatch.setattr(harness, "sample_population", traced("draw", draw, lambda spec, n, out: (spec.dim, n)))
        tracemalloc.start()
        try:
            result = run_sweep(small_config(schedule=((16, 1600), (32, 3200)), replicates=3), n_jobs=n_jobs)
        finally:
            tracemalloc.stop()
        threads = {thread for kind, thread in firsts if kind == "trial"}
        assert not any(t.failed for t in result.trials) and len(peaks["trial"]) == 6 - len(threads)
        assert max(peaks["trial"] + peaks["draw"]) < 1

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_arenas_released_when_the_sweep_returns_or_raises(self, monkeypatch, n_jobs):
        class Boom(Exception):
            pass

        cfg = small_config(schedule=((16, 1600), (32, 3200)), replicates=2)
        run_sweep(cfg, n_jobs=n_jobs)  # numpy's and scipy's first-call allocations
        calls, real = itertools.count(), harness.summarize

        def summarize_until_the_sixth(*args):
            if next(calls) == 5:  # in the second pair's trials, with the arenas in use
                raise Boom
            return real(*args)

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_sweep(cfg, n_jobs=n_jobs)
            returned, peak = (m - before for m in tracemalloc.get_traced_memory())
            monkeypatch.setattr(harness, "summarize", summarize_until_the_sixth)
            try:
                run_sweep(cfg, n_jobs=n_jobs)
            except Boom:
                pass
            raised = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.trials) == 4
        block = 8 * 32 * 3200
        # a trial thread's two blocks, or the three of a sweep that draws ahead
        assert peak >= (3 if n_jobs == 1 and DRAWS_AHEAD else 2) * block
        assert returned < block / 4 and raised < block / 4

    def test_variance_slope_reported(self):
        cfg = small_config(replicates=4)
        result = run_sweep(cfg)
        assert result.summary.variance_slope is None or np.isfinite(result.summary.variance_slope)
        # with two d values and positive variances the probe must be present
        crosses_vary = all(p.cross_norm_var and p.cross_norm_var > 0 for p in result.summary.pairs)
        if crosses_vary:
            assert result.summary.variance_slope is not None

    @staticmethod
    def cross_norm_sweep(dims, crosses):
        # a config over the dims and two trials per pair with the given cross norms
        cfg = small_config(schedule=tuple((d, 10 * d) for d in dims), replicates=2)
        trials = [
            TrialResult(pair_index=i, replicate=r, d=d, n=10 * d, seed=0, results={}, cross_norm=c)
            for i, (d, pair) in enumerate(zip(dims, crosses))
            for r, c in enumerate(pair)
        ]
        return cfg, trials

    def test_variance_slope_rejects_an_overflowed_variance(self):
        # the variance of (0, 1e300) overflows to inf: the fit must fail loudly,
        # as a numerical failure, not report a NaN slope
        cfg, trials = self.cross_norm_sweep((4, 8, 16), [(0.0, 1e300), (0.0, 1.0), (0.0, 2.0)])
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(OverflowError, match="variance-overflow"):
            summarize_sweep(cfg, trials)

    def test_variance_slope_matches_polyfit(self):
        # the least-squares slope of log var against log d: np.polyfit's, up to
        # its roundoff, and the exact slope of the same floats, up to the fit's own
        from fractions import Fraction

        rng = np.random.default_rng(20)
        for _ in range(240):
            dims = tuple(int(d) for d in rng.choice(np.arange(2, 400), size=rng.integers(2, 7), replace=False))
            crosses = [(0.0, float(c)) for c in np.exp(rng.uniform(-8, 8, size=len(dims)))]
            cfg, trials = self.cross_norm_sweep(dims, crosses)
            summary = summarize_sweep(cfg, trials)
            x, y = np.log(dims), np.log([p.cross_norm_var for p in summary.pairs])
            slope = np.polyfit(x, y, 1)[0]
            assert abs(summary.variance_slope - slope) <= 1e-12 * max(1.0, abs(slope))
            x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
            dx = [v - sum(x) / len(x) for v in x]
            exact = float(sum(a * b for a, b in zip(dx, y)) / sum(a * a for a in dx))
            assert abs(summary.variance_slope - exact) <= 1e-14 * max(1.0, abs(exact))


two_cpus = pytest.mark.skipif(not DRAWS_AHEAD, reason="a sweep draws ahead on two CPUs or more")


def one_cpu(monkeypatch):
    """Let sweeps see one CPU of this thread's mask, so that n_jobs 1 draws inline."""
    real = os.sched_getaffinity
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(real(pid))})


def draw_threads(monkeypatch, masks=None):
    """The threads on which the sweeps' samples are drawn, in draw order; their CPU masks go to
    ``masks`` if given."""
    seen, real = [], harness.sample_population

    def spy(*args):
        seen.append(threading.current_thread())
        if masks is not None:
            masks.append(os.sched_getaffinity(0))
        return real(*args)

    monkeypatch.setattr(harness, "sample_population", spy)
    return seen


@two_cpus
class TestDrawAhead:
    # a (16, 1600) sample holds 25600 doubles, past the size from which a
    # sweep at n_jobs 1 draws each next sample on a helper thread
    cfg = small_config(schedule=((8, 800), (16, 1600)), replicates=3)

    def test_every_path_writes_the_same_trials(self, tmp_path, monkeypatch):
        # drawn ahead, drawn inline and drawn by each pool thread, with the
        # interpreter switching threads often so that a draw into a block
        # still in use would show in the bytes
        seen = draw_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ahead = write_results(run_sweep(self.cfg, n_jobs=1), tmp_path / "ahead") / "trials.json"
            assert len(seen) == 6 and threading.current_thread() not in seen
            parallel = write_results(run_sweep(self.cfg, n_jobs=2), tmp_path / "parallel") / "trials.json"
            one_cpu(monkeypatch)
            seen.clear()
            inline = write_results(run_sweep(self.cfg, n_jobs=1), tmp_path / "inline") / "trials.json"
            assert seen == [threading.current_thread()] * 6
        finally:
            sys.setswitchinterval(interval)
        assert ahead.read_bytes() == inline.read_bytes() == parallel.read_bytes()

    def test_a_draw_that_raises_fails_its_trial_on_both_serial_paths(self, monkeypatch):
        real, bad = harness.sample_population, derive_seed(self.cfg.base_seed, 1, 1)

        def draw(spec, n, out):
            if spec.seed == bad:
                raise ValueError("no sample")
            return real(spec, n, out)

        monkeypatch.setattr(harness, "sample_population", draw)
        ahead = run_sweep(self.cfg, n_jobs=1).trials
        one_cpu(monkeypatch)
        inline = run_sweep(self.cfg, n_jobs=1).trials
        assert [t.to_json_line() for t in ahead] == [t.to_json_line() for t in inline]
        assert [t.error for t in ahead] == [None] * 4 + ["ValueError: no sample", None]

    def test_the_callers_cpu_mask_is_restored(self, monkeypatch):
        # during the sweep the caller runs on all but the helper's CPU, the
        # helper on that one; after it the caller's mask is whole again,
        # whether the sweep returns or a trial raises
        cpus, masks, helper_masks, real = os.sched_getaffinity(0), [], [], harness.run_trial
        seen = draw_threads(monkeypatch, helper_masks)

        def trial(cfg, i, r, **blocks):
            masks.append(os.sched_getaffinity(0))
            if (i, r) == (1, 1) and raising:
                raise KeyError("boom")
            return real(cfg, i, r, **blocks)

        monkeypatch.setattr(harness, "run_trial", trial)
        for raising in (False, True):
            masks.clear()
            if raising:
                with pytest.raises(KeyError, match="boom"):
                    run_sweep(self.cfg, n_jobs=1)
            else:
                run_sweep(self.cfg, n_jobs=1)
            assert masks and all(m == cpus - {max(cpus)} for m in masks)
            assert helper_masks and all(m == {max(cpus)} for m in helper_masks)
            assert os.sched_getaffinity(0) == cpus
        assert not any(t.is_alive() for t in seen)

    def test_no_helper_thread_outlives_the_sweep(self, monkeypatch):
        before = set(threading.enumerate())
        seen = draw_threads(monkeypatch)
        run_sweep(self.cfg, n_jobs=1)
        assert seen and not any(t.is_alive() for t in seen)
        assert set(threading.enumerate()) == before


class TestBenchmarkSpans:
    @pytest.mark.parametrize("path", [pytest.param("ahead", marks=two_cpus), "inline", "pool"])
    def test_the_span_wrappers_carry_the_blocks(self, tmp_path, monkeypatch, path):
        # the benchmark replaces run_trial and sample_population by name with spans that
        # forward *args and **kwargs: each trial still gets its blocks and is timed once
        if path == "inline":
            one_cpu(monkeypatch)
        cfg, n_jobs = TestDrawAhead.cfg, 2 if path == "pool" else 1
        plain = write_results(run_sweep(cfg, n_jobs=n_jobs), tmp_path / "plain") / "trials.json"
        works, real = [], harness.tyler

        def spy(*args, work=None, **kwargs):
            works.append(work)
            return real(*args, work=work, **kwargs)

        monkeypatch.setattr(harness, "tyler", spy)
        with installed(Recorder()) as recorder:
            wrapped = write_results(run_sweep(cfg, n_jobs=n_jobs), tmp_path / "wrapped") / "trials.json"
        names = [s.name for s in recorder.spans]
        assert names.count("harness.trial") == names.count("sampling") == 6
        assert len(works) == 6 and all(w is not None and w.size == 16 * 1600 for w in works)
        assert wrapped.read_bytes() == plain.read_bytes()


class TestPersistence:
    def test_results_must_be_an_object(self):
        line = json.loads(run_trial(small_config(), 0, 0).to_json_line())
        with pytest.raises(ValueError, match="'results'"):
            TrialResult.from_dict({**line, "results": [1]})

    def test_empty_results(self, tmp_path):
        cfg = small_config()
        empty = SweepResult(config=cfg, trials=[], summary=summarize_sweep(cfg, []), wall_time=0.0)
        out = write_results(empty, tmp_path / "run")
        assert (out / "trials.json").read_text() == ""
        doc = json.loads((out / "summary.json").read_text())
        assert doc["summary"]["total_trials"] == 0
        assert doc["summary"]["total_failed"] == 0

    def test_wall_time_total_is_the_sweep_wall_time(self, tmp_path):
        # parallel trials overlap, so a sum of per-trial times would over-count
        cfg = small_config(replicates=4)
        start = time.perf_counter()
        result = run_sweep(cfg, n_jobs=2)
        elapsed = time.perf_counter() - start
        doc = json.loads((write_results(result, tmp_path / "run") / "summary.json").read_text())
        assert 0 < doc["wall_time_total"] <= elapsed

    def test_round_trip(self, tmp_path):
        cfg = small_config(replicates=2)
        result = run_sweep(cfg)
        out = write_results(result, tmp_path / "run")
        back = read_trials(out / "trials.json")
        assert back == result.trials

    def test_single_trial_line(self, tmp_path):
        cfg = small_config(replicates=1, schedule=((4, 40),))
        result = run_sweep(cfg)
        out = write_results(result, tmp_path / "run")
        lines = (out / "trials.json").read_text().splitlines()
        assert len(lines) == 1
        assert TrialResult.from_json_line(lines[0]) == result.trials[0]

    def test_spectra_files(self, tmp_path):
        cfg = ExperimentConfig(
            population=PopulationTemplate(radial="chi"),
            schedule=((3, 12),),
            replicates=4,
            estimators=("tyler",),
            base_seed=13,
            save_spectra=True,
        )
        result = run_sweep(cfg)
        out = write_results(result, tmp_path / "run")
        files = sorted((out / "eigenvalues").glob("*.csv"))
        assert len(files) == 4
        for f in files:
            vals = [float(v) for v in f.read_text().split()]
            assert len(vals) == 3
            assert vals == sorted(vals)

    def test_rerun_leaves_only_its_own_spectra(self, tmp_path):
        # a smaller re-run, then one without spectra, into the same directory:
        # no CSV of an earlier sweep may sit next to the new trials.json
        def sweep(replicates, save_spectra):
            cfg = ExperimentConfig(population=PopulationTemplate(radial="chi"), schedule=((3, 12),), replicates=replicates,
                                   estimators=("tyler",), base_seed=13, save_spectra=save_spectra)
            out = write_results(run_sweep(cfg), tmp_path / "run")
            return sorted(p.name for p in (out / "eigenvalues").glob("*"))

        (tmp_path / "run" / "eigenvalues").mkdir(parents=True)
        (tmp_path / "run" / "eigenvalues" / "notes.txt").write_text("kept\n")
        assert len(sweep(4, True)) == 5
        assert sweep(2, True) == ["notes.txt", "pair000_rep000_tyler.csv", "pair000_rep001_tyler.csv"]
        assert sweep(2, False) == ["notes.txt"]

    def test_atomic_overwrite(self, tmp_path):
        cfg = small_config(replicates=1)
        result = run_sweep(cfg)
        out = write_results(result, tmp_path / "run")
        first = (out / "trials.json").read_bytes()
        write_results(result, out)
        assert (out / "trials.json").read_bytes() == first
        assert not list(out.glob("*.tmp"))

    def test_byte_identical_across_parallelism(self, tmp_path):
        cfg = small_config()
        a = write_results(run_sweep(cfg, n_jobs=1), tmp_path / "a")
        b = write_results(run_sweep(cfg, n_jobs=3), tmp_path / "b")
        assert (a / "trials.json").read_bytes() == (b / "trials.json").read_bytes()

    def test_byte_identical_across_parallelism_at_threaded_blas_shapes(self, tmp_path):
        # larger than the golden configs (d <= 32, n <= 128): shapes where
        # OpenBLAS may split a call across its threads at --jobs 1, while
        # --jobs 2 runs every call on one thread
        cfg = small_config(schedule=((64, 640), (100, 120)), replicates=2)
        a = write_results(run_sweep(cfg, n_jobs=1), tmp_path / "a")
        b = write_results(run_sweep(cfg, n_jobs=2), tmp_path / "b")
        assert (a / "trials.json").read_bytes() == (b / "trials.json").read_bytes()
