"""Command line interface.

Subcommands::

    sample    draw a population sample and write it as a d x n CSV matrix
    tyler     fit Tyler's M-estimator to a CSV data matrix
    spectrum  eigenvalues of a symmetric CSV matrix, optionally standardized
    law       tabulate (x, pdf, cdf) of a reference law over a grid
    trial     run one seeded trial of an experiment config
    sweep     run a full experiment config

Matrix CSVs carry no header (one matrix row per line, '.' decimal); the
``law`` and ``spectrum`` outputs are tables with a header line.

Exit codes: 0 success; 2 config or argument error; 3 numerical failure
(no convergence, an eigensolver failure, or all trials failed); 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from ._blas import one_blas_thread
from .estimators import NoConvergenceError, tyler
from .harness import (
    ExperimentConfig,
    SweepResult,
    run_sweep,
    run_trial,
    summarize_sweep,
    write_results,
)
from .laws import REFERENCE_LAWS, law_from_dict
from .sampling import RADIAL_KINDS, Coupling, PopulationTemplate, sample_population
from .spectral import standardize, symmetric_eigenvalues

_FMT = "%.17g"


def _load_matrix(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _save_matrix(path, M: np.ndarray):
    np.savetxt(path, np.atleast_2d(M), delimiter=",", fmt=_FMT)


def _cmd_sample(args) -> int:
    template = PopulationTemplate(args.radial, Coupling(args.coupling), p=args.radial_p, c=args.radial_c)
    _save_matrix(args.out, sample_population(template.instantiate(args.dim, args.seed), args.n))
    return 0


def _cmd_tyler(args) -> int:
    X = _load_matrix(args.infile)
    report = tyler(X, tol=args.tol, max_iter=args.max_iter)
    _save_matrix(args.out, report.estimate)
    d, n = X.shape
    diag = dict(d=int(d), n=int(n), iterations=report.iterations, residual=report.residual,
                converged=report.converged)
    print(json.dumps(diag, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_spectrum(args) -> int:
    A = _load_matrix(args.infile)
    if args.standardize is not None:
        A = standardize(A, args.standardize)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("eigenvalue\n" + "".join(f"{v:.17g}\n" for v in symmetric_eigenvalues(A)))
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(p) for p in spec.split(":"))
    except Exception as exc:
        raise ValueError(f"grid must be LO:HI:STEP, got {spec!r}") from exc
    # nan fails both comparisons, and the comparisons guard the division
    if not (step > 0 and hi >= lo and np.isfinite([lo, hi, step, (hi - lo) / step]).all()):
        raise ValueError(f"grid must have finite LO <= HI, STEP > 0 and (HI-LO)/STEP, got {spec!r}")
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def _cmd_law(args) -> int:
    params = {"y": args.y} if args.y is not None else {}
    law = law_from_dict({"law": args.law, **params})
    grid = _parse_grid(args.grid)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("x,pdf,cdf\n")
        for x in grid:
            try:
                pdf = law.pdf(x)
            except ValueError:
                pdf = float("nan")  # point-mass location of MP with y >= 1
            fh.write(f"{x:.17g},{pdf:.17g},{law.cdf(x):.17g}\n")
    return 0


def _cmd_trial(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    start = time.perf_counter()
    with one_blas_thread():  # as in a sweep, so the record is the sweep's
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

    p = sub.add_parser("sample", help="draw a population sample as a d x n CSV matrix")
    p.add_argument("--dim", type=int, required=True, help="dimension d")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--radial", choices=list(RADIAL_KINDS), required=True,
                   help="radial law; chi/signed-chi/scaled-f-root tie their df to --dim")
    p.add_argument("--radial-p", type=int, default=None, help="scaled-f-root denominator df")
    p.add_argument("--radial-c", type=float, default=None, help="constant radius value")
    p.add_argument("--coupling", choices=[c.value for c in Coupling], default=Coupling.INDEPENDENT.value,
                   help="dependence of the radius on the sphere draw")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("tyler", help="fit Tyler's M-estimator to a CSV data matrix")
    p.add_argument("--in", dest="infile", required=True, help="d x n data matrix CSV")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--out", required=True, help="output CSV path for the d x d estimate")
    p.set_defaults(func=_cmd_tyler)

    p = sub.add_parser("spectrum", help="eigenvalues of a symmetric CSV matrix")
    p.add_argument("--in", dest="infile", required=True, help="d x d symmetric matrix CSV")
    p.add_argument("--standardize", type=int, default=None, metavar="N", help="map A to sqrt(N/d)(A - I) first, N the sample size")
    p.add_argument("--out", required=True, help="output CSV (header + ascending eigenvalues)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("law", help="tabulate (x, pdf, cdf) of a reference law")
    p.add_argument("--law", choices=list(REFERENCE_LAWS), required=True)
    p.add_argument("--y", type=float, default=None, help="MP ratio y (mp only)")
    p.add_argument("--grid", required=True, help="evaluation grid LO:HI:STEP")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_law)

    p = sub.add_parser("trial", help="run one seeded trial of an experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--pair", type=int, default=0, help="schedule pair index")
    p.add_argument("--replicate", type=int, default=0, help="replicate index")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_trial)

    p = sub.add_parser("sweep", help="run a full experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel trials, as threads; every trial runs on one BLAS thread (output is identical)")
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
