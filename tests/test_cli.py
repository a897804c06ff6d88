import json
import subprocess
import sys

import numpy as np
import pytest

from tylerlaw import MarchenkoPastur, Semicircle, _blas, cli
from tylerlaw.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "X.csv"
    code = run_cli(
        "sample", "--dim", 4, "--n", 200, "--radial", "chi", "--seed", 7, "--out", path
    )
    assert code == 0
    return path


class TestSample:
    def test_matrix_shape_and_determinism(self, tmp_path, sample_csv):
        X = np.loadtxt(sample_csv, delimiter=",")
        assert X.shape == (4, 200)
        again = tmp_path / "X2.csv"
        run_cli("sample", "--dim", 4, "--n", 200, "--radial", "chi", "--seed", 7, "--out", again)
        assert sample_csv.read_bytes() == again.read_bytes()

    def test_cauchy_and_coupled_variants(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(
            "sample", "--dim", 3, "--n", 30, "--radial", "scaled-f-root", "--radial-p", 1,
            "--coupling", "sign-u1", "--seed", 1, "--out", out,
        ) == 0
        assert np.loadtxt(out, delimiter=",").shape == (3, 30)

    def test_unused_parameter_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(
            "sample", "--dim", 2, "--n", 5, "--radial", "chi", "--radial-p", 7, "--seed", 1,
            "--out", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "chi" in err and "'p'" in err
        assert not out.exists()

    def test_constant_requires_value(self, tmp_path):
        code = run_cli(
            "sample", "--dim", 2, "--n", 5, "--radial", "constant", "--seed", 1,
            "--out", tmp_path / "x.csv",
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_constant_rejects_non_finite_value(self, tmp_path, capsys, value):
        out = tmp_path / "x.csv"
        code = run_cli(
            "sample", "--dim", 2, "--n", 5, "--radial", "constant", "--radial-c", value,
            "--seed", 1, "--out", out,
        )
        assert code == 2
        assert "finite and nonzero" in capsys.readouterr().err
        assert not out.exists()


class TestTylerCommand:
    def test_fit_and_diagnostics(self, tmp_path, sample_csv, capsys):
        shape_csv = tmp_path / "T.csv"
        assert run_cli("tyler", "--in", sample_csv, "--out", shape_csv) == 0
        diag = json.loads(capsys.readouterr().err.strip())
        assert set(diag) == {"d", "n", "iterations", "residual", "converged"}
        assert diag["converged"] is True
        assert diag["residual"] <= 1e-8
        T = np.loadtxt(shape_csv, delimiter=",")
        assert T.shape == (4, 4)
        assert abs(np.trace(T) - 4) <= 1e-9

    def test_no_convergence_exit_code(self, tmp_path, sample_csv):
        code = run_cli(
            "tyler", "--in", sample_csv, "--max-iter", 1, "--tol", 1e-15,
            "--out", tmp_path / "T.csv",
        )
        assert code == 3

    def test_nan_tol_is_config_error(self, tmp_path, sample_csv, capsys):
        out = tmp_path / "T.csv"
        assert run_cli("tyler", "--in", sample_csv, "--tol", "nan", "--out", out) == 2
        assert "tol must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path):
        assert run_cli("tyler", "--in", tmp_path / "none.csv", "--out", tmp_path / "T.csv") == 4

    def test_underdetermined_is_config_error(self, tmp_path):
        path = tmp_path / "wide.csv"
        np.savetxt(path, np.eye(3)[:, :2], delimiter=",")
        assert run_cli("tyler", "--in", path, "--out", tmp_path / "T.csv") == 2

    def test_non_finite_data_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("1,0,nan\n0,1,1\n", encoding="utf-8")
        assert run_cli("tyler", "--in", path, "--out", tmp_path / "T.csv") == 2
        assert "config error: non-finite-entry" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_eigenvalues_table(self, tmp_path):
        mat = tmp_path / "A.csv"
        np.savetxt(mat, np.diag([3.0, 1.0, 2.0]), delimiter=",")
        out = tmp_path / "eigs.csv"
        assert run_cli("spectrum", "--in", mat, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eigenvalue"
        assert [float(v) for v in lines[1:]] == [1.0, 2.0, 3.0]

    def test_rejects_a_non_symmetric_matrix(self, tmp_path, capsys):
        # the eigensolver reads one triangle: [[1, 2], [3, 4]] would come out
        # as -0.854 and 5.854 where its eigenvalues are -0.372 and 5.372
        mat = tmp_path / "A.csv"
        np.savetxt(mat, [[1.0, 2.0], [3.0, 4.0]], delimiter=",")
        assert run_cli("spectrum", "--in", mat, "--out", tmp_path / "e.csv") == 2
        assert "config error: non-symmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["exact", "gram", "rotated"])
    def test_accepts_symmetric_matrices(self, tmp_path, kind):
        # a rotated diagonal Q D Q^t is symmetric only to roundoff
        rng = np.random.default_rng(0)
        B = rng.standard_normal((50, 80))
        Q = np.linalg.qr(B[:, :50])[0]
        A = {
            "exact": np.diag(np.arange(50.0)),
            "gram": B @ B.T,
            "rotated": (Q * np.arange(1.0, 51.0)) @ Q.T,
        }[kind]
        mat = tmp_path / "A.csv"
        np.savetxt(mat, A, delimiter=",")
        assert run_cli("spectrum", "--in", mat, "--out", tmp_path / "e.csv") == 0

    def test_standardize_requires_n(self, tmp_path):
        mat = tmp_path / "A.csv"
        np.savetxt(mat, np.eye(2), delimiter=",")
        out = tmp_path / "e.csv"
        for argv in (["--standardize"], ["--n", 8]):  # the sample size is --standardize's own value
            with pytest.raises(SystemExit) as exc:  # argparse's usage error
                run_cli("spectrum", "--in", mat, *argv, "--out", out)
            assert exc.value.code == 2
        assert run_cli("spectrum", "--in", mat, "--standardize", 0, "--out", out) == 2
        assert not out.exists()

    def test_eigensolver_failure_is_numerical(self, tmp_path, monkeypatch, capsys):
        # numpy's LinAlgError subclasses ValueError, the config-error class
        def fail(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("tylerlaw.cli.symmetric_eigenvalues", fail)
        mat = tmp_path / "A.csv"
        np.savetxt(mat, np.eye(2), delimiter=",")
        assert run_cli("spectrum", "--in", mat, "--out", tmp_path / "e.csv") == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_standardized_identity_is_zero(self, tmp_path):
        mat = tmp_path / "A.csv"
        np.savetxt(mat, np.eye(2), delimiter=",")
        out = tmp_path / "e.csv"
        assert run_cli("spectrum", "--in", mat, "--standardize", 8, "--out", out) == 0
        vals = [float(v) for v in out.read_text().splitlines()[1:]]
        assert vals == [0.0, 0.0]


class TestLawCommand:
    def test_semicircle_table(self, tmp_path):
        out = tmp_path / "law.csv"
        # leading '-' needs the --grid=LO:HI:STEP form under argparse
        assert run_cli("law", "--law", "semicircle", "--grid=-2:2:0.5", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,pdf,cdf"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (9, 3)
        law = Semicircle()
        np.testing.assert_allclose(rows[:, 1], law.pdf(rows[:, 0]), atol=1e-12)
        np.testing.assert_allclose(rows[:, 2], law.cdf(rows[:, 0]), atol=1e-12)

    def test_mp_table_marks_atom_with_nan(self, tmp_path):
        out = tmp_path / "mp.csv"
        assert run_cli("law", "--law", "mp", "--y", 2.0, "--grid", "0:1:0.5", "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert np.isnan(float(rows[0][1]))  # pdf at the point mass
        assert float(rows[0][2]) == 0.5  # cdf includes it
        law = MarchenkoPastur(2.0)
        assert float(rows[1][1]) == pytest.approx(law.pdf(0.5), abs=1e-12)

    def test_mp_requires_y(self, tmp_path):
        assert run_cli("law", "--law", "mp", "--grid", "0:1:0.5", "--out", tmp_path / "x.csv") == 2

    def test_bad_grid(self, tmp_path, capsys):
        assert run_cli("law", "--law", "semicircle", "--grid", "2:1:0.5", "--out", tmp_path / "x.csv") == 2
        assert run_cli("law", "--law", "semicircle", "--grid", "0:1", "--out", tmp_path / "x.csv") == 2
        # 0:inf:1 exited 3 (float infinity to integer), nan:1:1 exited 2 with
        # numpy's message, and 0:1:inf wrote a nan row
        for grid in ("0:inf:1", "nan:1:1", "0:1:nan", "0:1:inf", "-inf:0:1"):
            assert run_cli("law", "--law", "semicircle", f"--grid={grid}", "--out", tmp_path / "x.csv") == 2
            assert "config error: grid must" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_infinite_mp_ratio_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("law", "--law", "mp", "--y", "inf", "--grid", "0:1:0.5", "--out", out) == 2
        assert "MP ratio y must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_mp_ratio_runs_clean_under_warnings_as_errors(self, tmp_path):
        # the density overflowed at y = 1e300: a traceback and exit 1 under -W error
        out = tmp_path / "f.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "tylerlaw", "law", "--law", "mp",
             "--y", "1e300", "--grid", "0:2:0.5", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(r[1]) for r in rows[1:]] == [0.0, 0.0, 0.0, 0.0]

    def test_semicircle_rejects_y(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("law", "--law", "semicircle", "--y", 3, "--grid", "0:1:0.5", "--out", out) == 2
        err = capsys.readouterr().err
        assert "semicircle" in err and "'y'" in err
        assert not out.exists()


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
        # writes for its address, on one BLAS thread as in the sweep,
        # whatever the thread count before
        cfg = write_config(tmp_path, schedule=[[4, 40], [16, 1600]])
        seen = []

        def spy(*args):
            seen.append(get())
            return real(*args)

        real, (get, set_) = cli.run_trial, _blas.openblas_thread_calls()
        monkeypatch.setattr(cli, "run_trial", spy)
        prior = get()
        set_(2)
        try:
            assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "sweep") == 0
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

    def test_unwritable_output_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path)
        target = tmp_path / "blocked"
        target.write_text("file, not a directory", encoding="utf-8")
        assert run_cli("sweep", "--config", cfg, "--out", target) == 4


def test_module_entry_point(tmp_path):
    out = tmp_path / "law.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "tylerlaw", "law", "--law", "semicircle",
         "--grid", "0:1:1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == "x,pdf,cdf"
