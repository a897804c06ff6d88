"""Sweep benchmark: time to solution, CPU cost and per-module spans.

Usage, from the repository root::

    python3 benchmarks/run.py --workload semicircle-cauchy --seed 20260810 \
        --seconds 10 --trace 0

Each workload is a ``tylerlaw sweep`` config (see ``workloads.py``).  The
benchmark writes the config with ``--seed`` as its base seed and drives the
sweep in-process through ``tylerlaw.cli.main``, the path a user runs,
repeating it until ``--seconds`` have passed.  Every sweep's output is
checked (``check.py``); one trial per pair is also recomputed independently.

``--trace 0`` reports the end-to-end metrics, each a median over the run:

- ``sweep_s``: wall seconds of the ``cli.main`` sweep call;
- ``cpu_s``: process user + system CPU seconds over the same interval;
- ``setup_s``: from process start until the timed sweep can begin (import
  ``tylerlaw``, write the config, one untimed warm-up trial), measured in
  fresh child processes, median of ``SETUP_PROBES``;
- ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` alternates untraced and traced sweeps and reports the
per-layer metrics of ``spans.py`` plus ``trace.overhead_s``, the traced
minus the untraced median ``sweep_s``.  Spans go to
``.bench_out/trace-<workload>-<seed>.jsonl`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (trials) and ``metrics``; the lines
before it give the environment, the recorded baseline and a readable
report including ``failed_frac``.  The exit code is 0 when every check
passes, 1 when an output check fails and 2 when the program cannot be run.

BLAS thread variables are read and reported, never set: the thread policy
belongs to the program under test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from check import check_sweep, spot_check
from spans import Recorder, installed, layer_metrics, median_metrics
from workloads import GOLDEN_SEED, WORKLOADS, nproc

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def die(message: str):
    """Stop without a result: the program could not be run as configured."""
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import tylerlaw from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "tylerlaw" / "__init__.py").is_file():
        die(f"no tylerlaw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tylerlaw.cli
    import tylerlaw.harness

    if Path(tylerlaw.__file__).resolve().parent != SRC / "tylerlaw":
        die(f"imported tylerlaw from {tylerlaw.__file__}, not {SRC}")
    return tylerlaw


def prepare(workload, seed: int, run_dir: Path) -> Path:
    """Set-up: import the program, write the config, run one warm-up trial."""
    tylerlaw = import_program()
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    config = workload.config_for(seed)
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    cfg = tylerlaw.harness.ExperimentConfig.from_json_file(config_path)
    warm = tylerlaw.harness.run_trial(cfg, 0, 0)
    if warm.failed:
        die(f"warm-up trial failed: {warm.error}")
    return config_path


def measure_setup(workload_name: str, seed: int, run_dir: Path) -> list[float]:
    """Wall time from spawning a fresh interpreter until it is ready to sweep."""
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload_name, "--seed", str(seed), "--out", str(run_dir / f"probe{k}")]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or line.strip() != "ready":
            die(f"set-up probe exited with {rc}")
        times.append(ready - start)
    return times


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process (read only)."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "nproc": nproc(),
        "git_rev": git_rev(),
    }


def timed_sweep(cli_main, config_path: Path, jobs: int, out_dir: Path) -> tuple[float, float]:
    """One ``tylerlaw sweep`` call: (wall seconds, process CPU seconds)."""
    argv = ["sweep", "--config", str(config_path), "--jobs", str(jobs), "--out", str(out_dir)]
    c0, t0 = time.process_time(), time.perf_counter()
    rc = cli_main(argv)
    t1, c1 = time.perf_counter(), time.process_time()
    # 3: every trial failed; the output is still written and the check counts it
    if rc not in (0, 3):
        die(f"tylerlaw sweep exited with {rc}")
    return t1 - t0, c1 - c0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=GOLDEN_SEED, help="base seed of the sweep")
    p.add_argument("--seconds", type=float, default=10.0, help="how long to repeat the sweep")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        prepare(workload, args.seed, Path(args.out))
        print("ready", flush=True)
        return 0

    run_dir = OUT / f"{workload.name}-{os.getpid()}"
    try:
        return run(args, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, workload, run_dir: Path) -> int:
    setup = [] if args.trace else measure_setup(workload.name, args.seed, run_dir)
    config_path = prepare(workload, args.seed, run_dir)
    from tylerlaw import cli

    config = workload.config_for(args.seed)
    jobs = workload.resolved_jobs()
    golden = workload.golden_ks_median if args.seed == GOLDEN_SEED else None
    recorder = Recorder()
    walls, cpus, traced_walls, layers, digests = [], [], [], [], set()
    attempted, failed, problems = 0, 0, []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k < 1 + args.trace or time.perf_counter() < deadline:
        out_dir = run_dir / f"sweep{k}"
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            first = len(recorder.spans)
            with installed(recorder):
                wall, _ = timed_sweep(recorder.wrap("cli.main", cli.main), config_path, jobs, out_dir)
            metrics = layer_metrics(recorder.spans[first:], jobs)
            metrics["harness.write.bytes"] = dir_bytes(out_dir)
            layers.append(metrics)
            traced_walls.append(wall)
        else:
            wall, cpu = timed_sweep(cli.main, config_path, jobs, out_dir)
            walls.append(wall)
            cpus.append(cpu)
        checked = check_sweep(out_dir, config, golden, workload.ks_gates)
        if k == 0:
            spot = spot_check(out_dir, config)
            checked.failed |= spot.failed
            checked.problems += spot.problems
        attempted += checked.trials
        failed += len(checked.failed)
        problems += checked.problems
        digests.add(checked.sha256)
        shutil.rmtree(out_dir)
        k += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = failed == 0 and not problems
    print(json.dumps({"environment": environment()}, sort_keys=True))
    print(json.dumps({"baseline": {workload.name: workload.baseline}}, sort_keys=True))
    print(json.dumps({"info": {"workload": workload.name, "seed": args.seed, "jobs": jobs,
                               "sweep_s_each": [round(w, 4) for w in walls],
                               "cpu_s_each": [round(c, 4) for c in cpus],
                               "setup_s_each": [round(t, 4) for t in setup],
                               "traced_sweep_s_each": [round(w, 4) for w in traced_walls],
                               "trials_json_sha256": sorted(digests),
                               "golden_ks_checked": golden is not None}}, sort_keys=True))
    for why in problems[:20]:
        print(f"check failed: {why}")

    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{workload.name}-{args.seed}.jsonl"
        recorder.write(trace_path)
        values = median_metrics(layers)
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = {k: unit_of(k) for k in values}
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        values = {
            "sweep_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"sweep_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    report = dict(values, failed_frac=failed / attempted)
    units["failed_frac"] = "fraction"
    for name, value in report.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ms_per_iter"):
        return "ms"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
