"""Golden outputs: small sweeps whose files must not change under refactoring.

Each config below runs through ``tylerlaw sweep`` at ``--jobs 1`` and
``--jobs 2``.  Semicircle configs must reproduce ``trials.json`` byte for
byte; Marchenko-Pastur configs are compared value by value within 1e-12
relative, so that an equivalent CDF formula may move KS in the last bits.
``summary.json`` is compared the same way, without its wall-time field.

Regenerate the fixtures (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from tylerlaw.cli import main

GOLDEN = Path(__file__).with_name("golden")

_PAIRS = [[4, 40], [8, 80]]
_BOTH = ["covariance", "tyler"]

# name -> (config, expected exit code, exact bytes?)
CONFIGS = {
    "chi": ({"population": {"radial": "chi"}, "schedule": _PAIRS}, 0, True),
    "cauchy": ({"population": {"radial": "scaled-f-root", "p": 1}, "schedule": _PAIRS}, 0, True),
    "sign-u1": (
        {"population": {"radial": "scaled-f-root", "p": 3, "coupling": "sign-u1"}, "schedule": _PAIRS},
        0,
        True,
    ),
    "constant": ({"population": {"radial": "constant", "c": -1.5}, "schedule": _PAIRS}, 0, True),
    "signed-chi": ({"population": {"radial": "signed-chi"}, "schedule": _PAIRS}, 0, True),
    "no-convergence": (
        {"population": {"radial": "chi"}, "schedule": _PAIRS, "tyler": {"tol": 1e-15, "max_iter": 2}},
        3,
        True,
    ),
    "mp-quarter": (
        {
            "population": {"radial": "chi"},
            "schedule": {"preset": "mp", "dims": [8, 16]},
            "standardized": False,
            "reference": {"law": "mp", "y": 0.25},
        },
        0,
        False,
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
        False,
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


def assert_close(got, want, path="$"):
    """Equal structure; floats within 1e-12 relative, everything else exact."""
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{path}: keys differ"
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


def parse_lines(raw: bytes) -> list:
    return [json.loads(line) for line in raw.decode("utf-8").splitlines()]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sweep_matches_golden(name, jobs, tmp_path):
    trials, summary = run_config(name, tmp_path, jobs)
    want_trials = (GOLDEN / f"{name}.trials.json").read_bytes()
    want_summary = json.loads((GOLDEN / f"{name}.summary.json").read_text(encoding="utf-8"))
    if CONFIGS[name][2]:
        assert trials == want_trials
        assert summary == want_summary
    else:
        assert_close(parse_lines(trials), parse_lines(want_trials))
        assert_close(summary, want_summary)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            trials, summary = run_config(name, Path(tmp), 1)
            (GOLDEN / f"{name}.trials.json").write_bytes(trials)
            (GOLDEN / f"{name}.summary.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            print(f"wrote {name}")
