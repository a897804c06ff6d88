"""Tests of the benchmark's own code: spans, inputs and the output check.

Run with ``python -m pytest benchmarks/tests`` from the repository root.
"""

import json

import numpy as np
import pytest

from check import check_sweep, reference_cdf, spot_check
from spans import Recorder, Span, installed, layer_metrics, self_time
from tylerlaw import cli
from tylerlaw.harness import ExperimentConfig
from tylerlaw.laws import MarchenkoPastur, Semicircle
from tylerlaw.sampling import derive_seed, sample_population
from workloads import WORKLOADS

TINY = {
    "population": {"radial": "chi"},
    "schedule": [[4, 40], [8, 80]],
    "replicates": 3,
    "estimators": ["covariance", "tyler"],
    "standardized": True,
    "reference": {"law": "semicircle"},
    "tyler": {"tol": 1e-9, "max_iter": 1000},
    "save_spectra": True,
    "base_seed": 7,
}


def _write(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def _sweep(tmp_path, config):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    return out


def test_self_time_subtracts_the_union_of_children():
    parent = Span(1, None, "p", 0, 0.0, 10.0)
    kids = [
        Span(2, 1, "a", 0, 1.0, 3.0),
        Span(3, 1, "b", 0, 2.0, 4.0),  # overlaps a: [1, 4] covered once
        Span(4, 1, "c", 0, 9.0, 12.0),  # runs past the parent: only [9, 10] counts
    ]
    assert self_time(parent, kids) == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_recursive_cdf_is_one_span():
    rec = Recorder()
    original = MarchenkoPastur.cdf
    law = MarchenkoPastur(0.5)
    x = np.linspace(0.0, 3.0, 25)
    with installed(rec):
        traced = law.cdf(x)
    assert [s.name for s in rec.spans] == ["laws.cdf"]
    assert rec.spans[0].attrs == {"points": 25}
    np.testing.assert_array_equal(traced, law.cdf(x))
    assert MarchenkoPastur.cdf is original


def test_spans_nest_per_thread_with_parallel_trials(tmp_path):
    rec = Recorder()
    with installed(rec):
        rec.wrap("cli.main", cli.main)(
            ["sweep", "--config", str(_write(tmp_path, TINY)), "--jobs", "3", "--out", str(tmp_path / "o")]
        )
    by_id = {s.id: s for s in rec.spans}
    trials = [s for s in rec.spans if s.name == "harness.trial"]
    assert len(trials) == 6
    for s in rec.spans:
        if s.name in ("sampling", "estimators.tyler", "metrics.summarize"):
            parent = by_id[s.parent]
            assert parent.name == "harness.trial" and parent.thread == s.thread
    m = layer_metrics(rec.spans, jobs=3)
    assert m["sampling.calls"] == 6 and m["estimators.tyler.calls"] == 6
    assert m["laws.cdf.points"] == 3 * (4 + 8) * 2
    assert m["estimators.tyler.iterations"] > 0 and m["estimators.tyler.nonconverged"] == 0


def _first_sample(config):
    cfg = ExperimentConfig.from_dict(config)
    d, n = cfg.schedule[0]
    return sample_population(cfg.population.instantiate(d, derive_seed(cfg.base_seed, 0, 0)), n)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_argument_decides_the_inputs(name):
    w = WORKLOADS[name]
    same = _first_sample(w.config_for(11)), _first_sample(w.config_for(11))
    other = _first_sample(w.config_for(12))
    np.testing.assert_array_equal(*same)
    assert not np.array_equal(same[0], other)


def test_check_accepts_a_clean_sweep_and_rejects_a_doctored_row(tmp_path):
    out = _sweep(tmp_path, TINY)
    clean = check_sweep(out, TINY)
    assert clean.trials == 6 and not clean.failed and not clean.problems

    rows = (out / "trials.json").read_text().splitlines()
    row = json.loads(rows[4])
    row["results"]["tyler"]["residual"] = 1.0
    rows[4] = json.dumps(row)
    (out / "trials.json").write_text("\n".join(rows) + "\n")
    doctored = check_sweep(out, TINY)
    assert doctored.failed == {(row["pair_index"], row["replicate"])}
    assert doctored.sha256 != clean.sha256


def test_check_rejects_a_ks_median_off_the_recorded_value(tmp_path):
    out = _sweep(tmp_path, TINY)
    summary = json.loads((out / "summary.json").read_text())["summary"]["pairs"]
    golden = {tag: [p["estimators"][tag]["ks_median"] for p in summary] for tag in TINY["estimators"]}
    assert not check_sweep(out, TINY, golden).failed
    golden["tyler"][1] += 1e-3
    assert check_sweep(out, TINY, golden).failed == {(1, r) for r in range(3)}


@pytest.mark.parametrize("law", [Semicircle(), MarchenkoPastur(100 / 120), MarchenkoPastur(0.25)])
def test_reference_cdf_matches_the_program_laws(law):
    spec = {"law": "semicircle"} if isinstance(law, Semicircle) else {"law": "mp", "y": law.y}
    x = np.linspace(-2.5, 4.0, 301)
    np.testing.assert_allclose(reference_cdf(spec, x), law.cdf(x), atol=1e-10)


@pytest.mark.parametrize("reference", [{"law": "semicircle"}, {"law": "mp", "y": 0.5}])
def test_spot_check_agrees_with_the_sweep(tmp_path, reference):
    config = dict(TINY, reference=reference, standardized=reference["law"] == "semicircle")
    out = _sweep(tmp_path, config)
    res = spot_check(out, config)
    assert res.trials == 2 and not res.failed, res.problems
