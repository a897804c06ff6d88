"""Command line interface.

Subcommands::

    trial     run one seeded trial of an experiment config
    sweep     run a full experiment config

The single stages (sampling, Tyler's fit, spectra, reference laws) are
library calls, as the README's "Library quick start" shows.

Exit codes: 0 success; 2 config or argument error; 3 numerical failure
(``trial``'s trial failed, every trial of a ``sweep`` failed, or a
cross-norm variance overflowed before the slope fit); 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .estimators import NoConvergenceError
from .harness import (
    ExperimentConfig,
    SweepResult,
    run_sweep,
    run_trial,
    summarize_sweep,
    write_results,
)


def _cmd_trial(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    start = time.perf_counter()
    trial = run_trial(cfg, args.pair, args.replicate)
    summary = summarize_sweep(cfg, [trial])
    write_results(SweepResult(cfg, [trial], summary, wall_time=time.perf_counter() - start), args.out)
    if trial.failed:
        print(f"trial failed: {trial.error}", file=sys.stderr)
        return 3
    return 0


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    result = run_sweep(cfg, n_jobs=args.jobs)
    write_results(result, args.out)
    if all(t.failed for t in result.trials):
        print("all trials failed", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tylerlaw",
        description="Tyler's M-estimator, spherical sampling, and spectral reference laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trial", help="run one seeded trial of an experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--pair", type=int, default=0, help="schedule pair index")
    p.add_argument("--replicate", type=int, default=0, help="replicate index")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_trial)

    p = sub.add_parser("sweep", help="run a full experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel trials, as threads; at 1, with two CPUs or more and a largest "
                   "sample of 2^14 doubles or more, a helper thread draws each next sample while a trial runs; every trial "
                   "runs on one BLAS thread (output is identical)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # numerical failures first: numpy's LinAlgError is a ValueError
        return args.func(args)
    except (NoConvergenceError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
