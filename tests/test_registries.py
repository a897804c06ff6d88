"""Tests driven by the three registries, so a new entry is tested with no other edit.

``RADIAL_KINDS`` (radial laws), ``REFERENCE_LAWS`` (limit laws) and
``ESTIMATORS`` (scatter estimators) are each parametrized over: every entry
must round-trip through a config and run.
"""

import dataclasses

import numpy as np
import pytest

from tylerlaw import (
    ESTIMATORS,
    RADIAL_KINDS,
    REFERENCE_LAWS,
    ExperimentConfig,
    PopulationTemplate,
    harness,
    law_from_dict,
    law_to_dict,
    run_sweep,
    run_trial,
)

# a valid value for each template parameter a radial law may take
_TEMPLATE_VALUES = {"p": 3, "c": -1.5}


def template(radial: str) -> PopulationTemplate:
    params = {name: _TEMPLATE_VALUES[name] for name in RADIAL_KINDS[radial].params if name != "df"}
    return PopulationTemplate(radial, **params)


def reference(name: str):
    # every reference-law parameter is valid at 2.0; MP(2) has an atom at zero
    cls = REFERENCE_LAWS[name]
    return cls(**{f.name: 2.0 for f in dataclasses.fields(cls)})


def config(**overrides) -> ExperimentConfig:
    base = dict(
        population=PopulationTemplate("chi"),
        schedule=((4, 40), (6, 60)),
        replicates=2,
        estimators=tuple(ESTIMATORS),
        max_moment=4,
        base_seed=20260810,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("radial", sorted(RADIAL_KINDS))
class TestRadialKinds:
    def test_config_round_trip(self, radial):
        cfg = config(population=template(radial))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_draws_are_finite_and_nonzero(self, radial):
        law = template(radial).instantiate(5, 0).radial
        r = law.draw(np.random.default_rng(3), 2000)
        assert r.shape == (2000,)
        assert np.all(np.isfinite(r)) and np.all(r != 0)


@pytest.mark.parametrize("name", sorted(REFERENCE_LAWS))
class TestReferenceLaws:
    def test_config_round_trip(self, name):
        law = reference(name)
        assert law_from_dict(law_to_dict(law)) == law
        assert law_to_dict(law)["law"] == name
        cfg = config(reference=law)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_point_mass_matches_the_cdf_jump(self, name):
        law = reference(name)
        assert law.cdf(0.0) - law.cdf(-1e-300) == pytest.approx(law.point_mass_at_zero, abs=1e-12)


@pytest.mark.parametrize("tag", sorted(ESTIMATORS))
def test_run_trial_with_each_estimator(tag):
    trial = run_trial(config(estimators=(tag,)), 1, 0)
    assert trial.error is None
    assert list(trial.results) == [tag]
    summary = trial.results[tag].summary
    assert np.isfinite(summary.ks) and np.all(np.isfinite(summary.moments))


@pytest.mark.parametrize("jobs", [1, 2])
def test_fits_call_the_harness_names_once_per_trial(monkeypatch, jobs):
    # benchmarks/spans.py times the estimators by replacing these names in
    # tylerlaw.harness, so the fits must look them up there on every call
    calls = {"tyler": [], "sample_covariance": []}
    for name, seen in calls.items():
        original = getattr(harness, name)

        def counted(*args, _original=original, _seen=seen, **kwargs):
            _seen.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    cfg = config(replicates=3)
    result = run_sweep(cfg, n_jobs=jobs)
    assert not any(t.failed for t in result.trials)
    trials = len(cfg.schedule) * cfg.replicates
    assert {name: len(seen) for name, seen in calls.items()} == {"tyler": trials, "sample_covariance": trials}
