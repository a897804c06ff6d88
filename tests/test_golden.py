"""Golden outputs: small sweeps whose files must not change under refactoring.

Each config below runs through ``tylerlaw sweep`` at ``--jobs 1`` and
``--jobs 2`` and must reproduce ``trials.json`` byte for byte and
``summary.json`` exactly, without its wall-time field.

Regenerate the fixtures (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which writes the named configs' fixtures, or every config's when no name is
given.
"""

import json
from pathlib import Path

import pytest

from tylerlaw.cli import main

GOLDEN = Path(__file__).with_name("golden")

_PAIRS = [[4, 40], [8, 80]]
_BOTH = ["covariance", "tyler"]

# name -> (config, expected exit code)
CONFIGS = {
    "chi": ({"population": {"radial": "chi"}, "schedule": _PAIRS}, 0),
    "cauchy": ({"population": {"radial": "scaled-f-root", "p": 1}, "schedule": _PAIRS}, 0),
    "sign-u1": (
        {"population": {"radial": "scaled-f-root", "p": 3, "coupling": "sign-u1"}, "schedule": _PAIRS},
        0,
    ),
    "constant": ({"population": {"radial": "constant", "c": -1.5}, "schedule": _PAIRS}, 0),
    "signed-chi": ({"population": {"radial": "signed-chi"}, "schedule": _PAIRS}, 0),
    "no-convergence": (
        {"population": {"radial": "chi"}, "schedule": _PAIRS, "tyler": {"tol": 1e-15, "max_iter": 2}},
        3,
    ),
    "mp-quarter": (
        {
            "population": {"radial": "chi"},
            "schedule": {"preset": "mp", "dims": [8, 16]},
            "standardized": False,
            "reference": {"law": "mp", "y": 0.25},
        },
        0,
    ),
    "near-square": (
        {
            "population": {"radial": "scaled-f-root", "p": 1},
            "schedule": [[8, 10], [16, 24], [16, 31]],
            "standardized": False,
            "reference": {"law": "mp", "y": 0.8},
        },
        0,
    ),
    "mp-two": (
        {
            "population": {"radial": "signed-chi"},
            "schedule": [[16, 8], [32, 16]],
            "estimators": ["covariance"],
            "standardized": False,
            "reference": {"law": "mp", "y": 2.0},
        },
        0,
    ),
}


def full_config(name: str) -> dict:
    cfg = {"replicates": 2, "estimators": _BOTH, "max_moment": 4, "base_seed": 20260810}
    cfg.update(CONFIGS[name][0])
    return cfg


def run_config(name: str, tmp: Path, jobs: int) -> tuple[bytes, dict]:
    cfg_path = tmp / f"{name}.json"
    cfg_path.write_text(json.dumps(full_config(name)), encoding="utf-8")
    out = tmp / f"{name}-jobs{jobs}"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs)])
    assert code == CONFIGS[name][1]
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    summary.pop("wall_time_total")
    return (out / "trials.json").read_bytes(), summary


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sweep_matches_golden(name, jobs, tmp_path):
    trials, summary = run_config(name, tmp_path, jobs)
    want_trials = (GOLDEN / f"{name}.trials.json").read_bytes()
    want_summary = json.loads((GOLDEN / f"{name}.summary.json").read_text(encoding="utf-8"))
    assert trials == want_trials
    assert summary == want_summary


if __name__ == "__main__":
    import sys
    import tempfile

    names = sys.argv[1:] or sorted(CONFIGS)
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        sys.exit(f"unknown config(s) {', '.join(unknown)}; choose from {', '.join(sorted(CONFIGS))}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            trials, summary = run_config(name, Path(tmp), 1)
            (GOLDEN / f"{name}.trials.json").write_bytes(trials)
            (GOLDEN / f"{name}.summary.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            print(f"wrote {name}")
