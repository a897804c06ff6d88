import gc
import json
import subprocess
import sys

import pytest

from tylerlaw import _blas, cli, harness
from tylerlaw.cli import main
from tylerlaw.harness import TrialResult


def run_cli(*args):
    return main([str(a) for a in args])


def write_config(tmp_path, **overrides):
    cfg = {
        "population": {"radial": "chi"},
        "schedule": [[4, 40], [8, 80]],
        "replicates": 2,
        "estimators": ["covariance", "tyler"],
        "base_seed": 33,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestTrialAndSweep:
    def test_trial_writes_one_record(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert run_cli("trial", "--config", cfg, "--out", out) == 0
        lines = (out / "trials.json").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["pair_index"] == 0 and record["replicate"] == 0
        assert set(record["results"]) == {"covariance", "tyler"}

    def test_trial_writes_the_sweeps_record(self, tmp_path, monkeypatch):
        # one trial run alone writes, byte for byte, the line the sweep
        # writes for its address, its fit on one BLAS thread as in the
        # sweep, whatever the thread count before
        cfg = write_config(tmp_path, schedule=[[4, 40], [16, 1600]])
        seen = []

        def spy(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        real, (get, set_) = harness.tyler, _blas.openblas_thread_calls()
        prior = get()
        set_(2)
        try:
            assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "sweep") == 0
            monkeypatch.setattr(harness, "tyler", spy)
            args = ("--pair", 1, "--replicate", 1, "--out", tmp_path / "trial")
            assert run_cli("trial", "--config", cfg, *args) == 0
            assert seen == [1] and get() == 2
        finally:
            set_(prior)
        swept = (tmp_path / "sweep" / "trials.json").read_text().splitlines(keepends=True)
        assert (tmp_path / "trial" / "trials.json").read_text() == swept[3]
        assert json.loads(swept[3])["pair_index"] == json.loads(swept[3])["replicate"] == 1

    def test_sweep_outputs_and_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("sweep", "--config", cfg, "--out", a) == 0
        assert run_cli("sweep", "--config", cfg, "--out", b, "--jobs", 2) == 0
        assert (a / "trials.json").read_bytes() == (b / "trials.json").read_bytes()
        summary = json.loads((a / "summary.json").read_text())
        assert summary["summary"]["total_trials"] == 4

    def test_out_in_config_rejected(self, tmp_path, capsys):
        # --out is the one source of the output directory
        cfg = write_config(tmp_path, out=str(tmp_path / "fromcfg"))
        assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "r") == 2
        assert "unknown config keys: ['out']" in capsys.readouterr().err
        assert not (tmp_path / "fromcfg").exists() and not (tmp_path / "r").exists()

    def test_all_trials_failed_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, estimators=["tyler"], tyler={"tol": 1e-15, "max_iter": 1}
        )
        assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "r") == 3
        assert run_cli("trial", "--config", cfg, "--out", tmp_path / "t") == 3
        assert "trial failed:" in capsys.readouterr().err

    def test_config_errors(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert run_cli("sweep", "--config", missing, "--out", tmp_path / "x") == 2
        bad = write_config(tmp_path, schedule=[[8, 4]])
        assert run_cli("sweep", "--config", bad, "--out", tmp_path / "x") == 2
        cfg = write_config(tmp_path)
        for command in ("trial", "sweep"):
            with pytest.raises(SystemExit) as exc:  # no --out: argparse's usage error
                run_cli(command, "--config", cfg)
            assert exc.value.code == 2
        assert run_cli("trial", "--config", cfg, "--pair", 2, "--out", tmp_path / "x") == 2
        assert run_cli("trial", "--config", cfg, "--replicate", 2, "--out", tmp_path / "x") == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path)
        out = tmp_path / "r"
        assert run_cli("sweep", "--config", cfg, "--out", out, "--jobs", jobs) == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"tyler": {"tol": float("nan")}}, "finite tol > 0"),
            ({"population": {"radial": "constant", "c": float("nan")}}, "finite and nonzero"),
            ({"population": {"radial": "constant", "c": 0}}, "ConstantRadius 'c' must be finite and nonzero"),
        ],
        ids=["tol", "c", "c-zero"],
    )
    def test_non_finite_config_values_rejected(self, tmp_path, capsys, override, message):
        # Python's json reads NaN and Infinity as floats
        cfg = write_config(tmp_path, **override)
        out = tmp_path / "r"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reference", [{"law": ["mp"]}, "semicircle"], ids=["list-name", "string"])
    def test_reference_law_name_must_be_a_string(self, tmp_path, capsys, reference):
        cfg = write_config(tmp_path, reference=reference)
        out = tmp_path / "r"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert "reference" in err and "'law'" in err
        assert not out.exists()

    def test_non_integer_radial_p_rejected_at_load(self, tmp_path, capsys):
        cfg = write_config(tmp_path, population={"radial": "scaled-f-root", "p": 1.5})
        out = tmp_path / "r"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert "'p'" in err and "1.5" in err
        assert not out.exists()

    def test_parameters_a_kind_does_not_take_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, population={"radial": "chi", "p": 3, "c": 2.0})
        out = tmp_path / "r"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert "chi" in err and "'p'" in err
        assert not out.exists()

    def test_an_overflowing_cross_norm_variance_is_written_as_inf(self, tmp_path, monkeypatch, capsys):
        # the cross norms (0, 1e300) of the first pair have a variance that
        # overflows: the summary records it as numpy computes it, inf with its
        # RuntimeWarning, and the sweep succeeds
        crosses = [(0.0, 1e300), (0.0, 1.0), (0.0, 2.0)]

        def fake_trial(cfg, i, r, **blocks):
            d, n = cfg.schedule[i]
            return TrialResult(pair_index=i, replicate=r, d=d, n=n, seed=0, results={}, cross_norm=crosses[i][r])

        monkeypatch.setattr("tylerlaw.harness.run_trial", fake_trial)
        cfg = write_config(tmp_path, schedule=[[4, 40], [8, 80], [16, 160]])
        out = tmp_path / "r"
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert run_cli("sweep", "--config", cfg, "--out", out) == 0
        assert capsys.readouterr().err == ""
        pairs = json.loads((out / "summary.json").read_text(encoding="utf-8"))["summary"]["pairs"]
        assert [p["cross_norm_var"] for p in pairs] == [float("inf"), 0.5, 2.0]

    def test_unwritable_output_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path)
        target = tmp_path / "blocked"
        target.write_text("file, not a directory", encoding="utf-8")
        assert run_cli("sweep", "--config", cfg, "--out", target) == 4


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "tylerlaw", "trial", "--config", str(cfg),
         "--pair", "0", "--replicate", "0", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len((out / "trials.json").read_text().splitlines()) == 1


def test_parser_has_trial_and_sweep_only():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == ["sweep", "trial"]


def test_a_warm_sweep_call_leaves_no_argparse_garbage(tmp_path):
    # a parser built per call leaves its help formatters in reference cycles
    # for the cyclic collector
    cfg = write_config(tmp_path, schedule=[[4, 40]])
    argv = ("sweep", "--config", cfg, "--out", tmp_path / "run")
    assert run_cli(*argv) == 0
    gc.collect()
    before = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_cli(*argv) == 0
        gc.collect()
        left = [type(o).__qualname__ for o in gc.garbage[before:] if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
    assert left == []


@pytest.mark.parametrize("command", ["sample", "tyler", "spectrum", "law"])
def test_single_stage_commands_are_argparse_errors(tmp_path, capsys, command):
    # the single stages are library calls, not subcommands
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--out", out)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()
