import json

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
    mp_schedule,
    read_trials,
    run_sweep,
    run_trial,
    semicircle_schedule,
    summarize_sweep,
    write_results,
)
from tylerlaw.harness import TrialResult


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
        assert semicircle_schedule([16, 32]) == ((16, 1600), (32, 3200))
        assert mp_schedule([100]) == ((100, 400),)

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
        ],
    )
    def test_load_time_type_checks(self, override, message):
        doc = {"population": {"radial": "chi"}, "schedule": [[2, 4]], "replicates": 1}
        doc.update(override)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(doc)

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

    def test_variance_slope_reported(self):
        cfg = small_config(replicates=4)
        result = run_sweep(cfg)
        assert result.summary.variance_slope is None or np.isfinite(result.summary.variance_slope)
        # with two d values and positive variances the probe must be present
        crosses_vary = all(p.cross_norm_var and p.cross_norm_var > 0 for p in result.summary.pairs)
        if crosses_vary:
            assert result.summary.variance_slope is not None


class TestPersistence:
    def test_empty_results(self, tmp_path):
        cfg = small_config()
        empty = SweepResult(config=cfg, trials=[], summary=summarize_sweep(cfg, []))
        out = write_results(empty, tmp_path / "run")
        assert (out / "trials.json").read_text() == ""
        doc = json.loads((out / "summary.json").read_text())
        assert doc["summary"]["total_trials"] == 0
        assert doc["summary"]["total_failed"] == 0

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
