"""Command-line surface.

Subcommands: matrix, test, fit, enumerate, table1, bootstrap.  Every
command is deterministic given its flags and seed, emits a JSON or CSV
report envelope on stdout (or --out FILE), and exits 0 on success, 2 on
usage errors, 3 on data errors, 4 on numeric failures.  Errors are written
to stderr as one structured JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, baselines, bootstrap, population
from .betafit import mle_moment_pipeline, mom_joint_fit
from .core import (
    kemeny_distance,
    kemeny_rho,
    tau_kappa,
)
from .datasets import Dataset, load_dataset
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DegenerateInputError,
    KemenyError,
    ValidationError,
)
from .hypotests import (
    kemeny_t_one_sample,
    kemeny_t_paired,
    kemeny_t_welch,
    kemeny_z_test,
    point_biserial,
)
from .report import ReportEnvelope, rows_to_csv, stamp_now, to_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_MATRIX_METRICS = {
    "kemeny_distance": kemeny_distance,
    "tau_kappa": tau_kappa,
    "kemeny_rho": kemeny_rho,
    "kendall_b": baselines.kendall_tau_b,
    "spearman": baselines.spearman_rho,
    "pearson": baselines.pearson_r,
}

_TEST_METHODS = ("z", "t1", "welch", "paired", "pointbiserial", "wilcoxon")


def _emit(args, envelope: ReportEnvelope, csv_text: str | None) -> None:
    if args.output == "csv":
        if csv_text is None:
            raise ConfigError("this payload has no CSV form")
        text = csv_text
    else:
        text = to_json(envelope)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _envelope(args, kind: str, payload, seed=None) -> ReportEnvelope:
    return ReportEnvelope(
        payload_kind=kind,
        payload=payload,
        command=sys.argv[1:],
        seed=seed,
        timestamp=stamp_now() if args.stamp else None,
    )


def _dataset(args) -> Dataset:
    exclude = tuple(args.exclude.split(",")) if args.exclude else ()
    data = load_dataset(args.data, delimiter=args.delimiter, exclude=exclude)
    if args.columns:
        data = data.select([c.strip() for c in args.columns.split(",")])
    return data


def _cmd_matrix(args) -> None:
    data = _dataset(args)
    if len(data.columns) < 2:
        raise ConfigError("matrix needs at least 2 numeric columns")
    metric = _MATRIX_METRICS[args.metric]
    if args.mom_fit and args.metric != "kemeny_distance":
        raise ConfigError("--mom-fit only annotates the kemeny_distance metric")
    p = len(data.columns)
    cells: list[list[float | None]] = [[None] * p for _ in range(p)]
    flags: dict[str, str] = {}
    fits: dict[str, dict] = {}
    for i in range(p):
        for j in range(i, p):
            key = f"{data.columns[i]}|{data.columns[j]}"
            if i == j and args.metric == "kemeny_distance":
                cells[i][j] = 0.0  # self-distance reported as 0 by convention
                continue
            try:
                value = float(metric(data.data[:, i], data.data[:, j]))
            except (DegenerateInputError, ValidationError) as exc:
                flags[key] = str(exc)
                continue
            cells[i][j] = value
            cells[j][i] = value
            if args.mom_fit and i != j:
                try:
                    fit = mom_joint_fit(data.n_rows, value)
                    fits[key] = {
                        "alpha1": fit.params.alpha1,
                        "alpha2": fit.params.alpha2,
                    }
                except (ValidationError, ConvergenceError) as exc:
                    flags[key] = str(exc)
    payload = {
        "metric": args.metric,
        "n": data.n_rows,
        "columns": list(data.columns),
        "cells": cells,
        "flags": flags,
    }
    if args.mom_fit:
        payload["mom_fits"] = fits
    rows = [
        {"column": data.columns[i], **{data.columns[j]: cells[i][j] for j in range(p)}}
        for i in range(p)
    ]
    csv_text = rows_to_csv(["column", *data.columns], rows)
    _emit(args, _envelope(args, "matrix", payload), csv_text)


def _baseline_block(x: np.ndarray, y: np.ndarray) -> dict:
    block: dict = {}
    for name, fn in (
        ("kendall_tau_b", baselines.kendall_tau_b),
        ("spearman_rho", baselines.spearman_rho),
        ("pearson_r", baselines.pearson_r),
    ):
        try:
            block[name] = float(fn(x, y))
        except KemenyError as exc:
            block[name] = None
            block[f"{name}_error"] = str(exc)
    try:
        block["wilcoxon"] = baselines.wilcoxon_rank_sum(x, y).as_dict()
        block.update(baselines.effect_sizes(x, y))
    except KemenyError:
        pass
    return block


def _cmd_test(args) -> None:
    data = _dataset(args)
    x = data.column(args.x)
    y = data.column(args.y)
    if args.method == "wilcoxon":
        res = baselines.wilcoxon_rank_sum(x, y)
        payload = {"method": "baseline_wilcoxon", "n": int(x.size), **res.as_dict()}
    else:
        fn = {
            "z": kemeny_z_test,
            "t1": kemeny_t_one_sample,
            "welch": kemeny_t_welch,
            "paired": kemeny_t_paired,
            "pointbiserial": point_biserial,
        }[args.method]
        payload = fn(x, y).as_dict()
    if args.baselines:
        payload["baselines"] = _baseline_block(x, y)
    flat = {k: v for k, v in payload.items() if not isinstance(v, dict)}
    csv_text = rows_to_csv(list(flat), [flat])
    _emit(args, _envelope(args, "test", payload), csv_text)


def _cmd_fit(args) -> None:
    data = _dataset(args)
    names = [c.strip() for c in args.fit_columns.split(",")]
    if len(names) != 2:
        raise ConfigError(f"fit needs exactly 2 columns, got {names}")
    x = data.column(names[0])
    y = data.column(names[1])
    rho = kemeny_distance(x, y)
    fit = mom_joint_fit(data.n_rows, rho)
    payload = {
        "columns": names,
        "n": data.n_rows,
        "rho": float(rho),
        "support": fit.support,
        "alpha1": fit.params.alpha1,
        "alpha2": fit.params.alpha2,
        "mean": fit.params.mean,
        "fitted_distance": fit.fitted_distance,
    }
    if args.pipeline:
        payload["pipeline"] = mle_moment_pipeline(x, y).as_dict()
    flat = {k: v for k, v in payload.items() if not isinstance(v, (dict, list))}
    csv_text = rows_to_csv(list(flat), [flat])
    _emit(args, _envelope(args, "fit", payload), csv_text)


def _cmd_enumerate(args) -> None:
    cap = args.exhaustive_cap_override or population.DEFAULT_EXHAUSTIVE_CAP
    spec = population.PopulationSpec(
        n=args.n,
        mode=args.mode,
        sample_count=args.samples if args.mode == "montecarlo" else 0,
        seed=args.seed,
        exhaustive_cap=cap,
    )
    summary = population.distance_distribution_moments(spec)
    payload = {
        "n": args.n,
        "mode": args.mode,
        "population_count": population.population_cardinality(args.n),
        "cardinality_gap": population.cardinality_gap(args.n),
        "formula_sd": population.population_variance_formula(args.n) ** 0.5,
        "moments": summary.as_dict(),
    }
    flat = {
        "n": args.n,
        "mode": args.mode,
        "population_count": payload["population_count"],
        "formula_sd": payload["formula_sd"],
        **summary.as_dict(),
    }
    csv_text = rows_to_csv(list(flat), [flat])
    _emit(args, _envelope(args, "moments", payload, seed=args.seed), csv_text)


def _cmd_table1(args) -> None:
    n_list = [int(tok) for tok in args.n_list.split(",")]
    cap = args.exhaustive_cap_override or population.DEFAULT_EXHAUSTIVE_CAP
    rows = population.table1_report(
        n_list, sample_count=args.samples, seed=args.seed, exhaustive_cap=cap
    )
    dicts = [row.as_dict() for row in rows]
    payload = {"rows": dicts}
    fields = [
        "n", "formula_sd", "empirical_mean", "empirical_sd", "ratio", "flagged",
        "skew", "excess_kurtosis", "sample_count", "mode",
    ]
    csv_text = rows_to_csv(fields, dicts)
    _emit(args, _envelope(args, "moments", payload, seed=args.seed), csv_text)


def _cmd_bootstrap(args) -> None:
    try:
        with open(args.config) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config {args.config} is not valid JSON: {exc}") from exc
    try:
        dataset_name = raw["dataset"]
        x_col = raw["x"]
        y_col = raw["y"]
        config = bootstrap.HarnessConfig(
            replicates=args.replicates or int(raw["replicates"]),
            resample_size=args.resample_size or int(raw["resample_size"]),
            seed=int(raw.get("seed", args.seed)),
            methods=tuple(raw["methods"]),
            dataset=dataset_name,
            fixed_sample=bool(raw.get("fixed_sample", False)),
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing required field {exc}") from exc
    data = load_dataset(dataset_name)
    raw_target = args.raw_out or raw.get("raw_out")
    if raw_target:
        with open(raw_target, "w") as sink:
            report = bootstrap.run_harness(
                config, data.column(x_col), data.column(y_col), raw_sink=sink
            )
    else:
        report = bootstrap.run_harness(config, data.column(x_col), data.column(y_col))
    payload = report.as_dict()
    rows = [
        {"method": tag, **payload["methods"][tag]} for tag in config.methods
    ]
    fields = [
        "method", "count", "mean", "sd", "median", "mad", "min", "max", "range",
        "skewness", "excess_kurtosis", "spread_degenerate", "skipped", "evaluated",
    ]
    csv_text = rows_to_csv(fields, rows)
    _emit(args, _envelope(args, "harness", payload, seed=config.seed), csv_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kemeny",
        description="Tie-robust rank correlation toolkit on the Kemeny metric.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report to this file instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stamp", action="store_true",
                       help="include a wall-clock timestamp (breaks byte-identity)")

    def dataset_flags(p):
        p.add_argument("--data", required=True,
                       help="embedded dataset name (iris, sleep) or CSV path")
        p.add_argument("--delimiter", default=",")
        p.add_argument("--exclude", default="",
                       help="comma-separated columns to drop before parsing")
        p.add_argument("--columns", default="",
                       help="comma-separated columns to keep, in order")

    p = sub.add_parser("matrix", help="pairwise metric matrix over columns")
    dataset_flags(p)
    common(p)
    p.add_argument("--metric", choices=sorted(_MATRIX_METRICS), required=True)
    p.add_argument("--mom-fit", action="store_true",
                   help="annotate off-diagonal distances with joint Beta shapes")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("test", help="one hypothesis test on a column pair")
    dataset_flags(p)
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--method", choices=_TEST_METHODS, required=True)
    p.add_argument("--baselines", action="store_true",
                   help="append the classical-estimator comparison block")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("fit", help="joint Beta shape fit for a column pair")
    dataset_flags(p)
    common(p)
    p.add_argument("--fit-columns", required=True, metavar="X,Y",
                   help="the two columns to fit")
    p.add_argument("--pipeline", action="store_true",
                   help="append marginal MLE fits and the reconstructed correlation")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("enumerate", help="population moments at one sample size")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "montecarlo"), default="exhaustive")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--exhaustive-cap-override", type=int, default=0,
                   help="raise the exhaustive cap (n=6 maximum)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table1", help="closed-form vs empirical sd comparison report")
    common(p)
    p.add_argument("--n-list", required=True, help="comma-separated sizes")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--exhaustive-cap-override", type=int, default=0)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("bootstrap", help="run the resampling harness from a config file")
    common(p)
    p.add_argument("--config", required=True, help="JSON HarnessConfig file")
    p.add_argument("--replicates", type=int, default=0,
                   help="override the config's replicate count")
    p.add_argument("--resample-size", type=int, default=0,
                   help="override the config's resample size")
    p.add_argument("--raw-out",
                   help="stream replicate-level statistics to this CSV file")
    p.set_defaults(func=_cmd_bootstrap)

    return parser


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": {"code": kind, "message": message}}) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DataError as exc:
        return _fail(EXIT_DATA, "data", str(exc))
    except ConfigError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    except (ValidationError, DegenerateInputError, ConvergenceError) as exc:
        return _fail(EXIT_NUMERIC, "numeric", str(exc))
    except KemenyError as exc:
        return _fail(EXIT_NUMERIC, "numeric", str(exc))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
