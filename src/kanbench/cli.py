"""Command-line front end: generate data, train, forecast, benchmark, report.

Exit codes: 0 success, 1 usage error (bad flags), 2 runtime failure. Output
files are overwritten, never appended, so reruns are reproducible. Every
random draw flows from an explicit --seed or config seed; nothing is seeded
from the clock, and no subcommand touches the network.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import bench, kan, lstm
from .bench import (
    REPORT_FORMATS,
    config_from_dict,
    config_to_dict,
    emit_report,
    fit,
    load_matrix,
    load_results,
    prepare,
    run_matrix,
    save_results,
    runtime_summary,
)
from .data import REGIME_PRESETS, MinMaxScaler, gen_synthetic, make_regime, write_csv
from .forecast import iterative_forecast, write_trace_csv
from .numcore import check_int, checkpoint_array, checkpoint_field, checkpoint_numbers


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message, self.format_usage())


def _positive_int(text: str) -> int:
    """An int >= 1 from a flag's text; argparse names the flag in the error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kanbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="write a synthetic OHLCV CSV")
    p.add_argument("--regime", required=True, choices=sorted(REGIME_PRESETS))
    p.add_argument("--days", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--drift", type=float, default=None, help="override regime drift")
    p.add_argument("--volatility", type=float, default=None, help="override regime sigma")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one model from an experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="checkpoint JSON to write")
    p.add_argument("--report", default=None, help="optional training report JSON")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("forecast", help="roll a checkpoint forward H steps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--horizon", required=True, type=_positive_int)
    p.add_argument("--out", required=True, help="trace CSV to write")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("benchmark", help="run an experiment matrix and report")
    p.add_argument("--matrix", required=True, help="matrix JSON (list of configs)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--parallel", type=_positive_int, default=1)
    p.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    p.add_argument("--best", action="store_true", help="keep only each cell's best config")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("report", help="re-render reports from saved results")
    p.add_argument("--in", dest="input", required=True, help="results JSON from benchmark")
    p.add_argument("--format", choices=REPORT_FORMATS, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--best", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def _cmd_gen_data(args) -> None:
    regime = make_regime(args.regime, args.days, args.seed, args.drift, args.volatility)
    series = gen_synthetic(regime)
    write_csv(series, args.out)
    print(f"wrote {args.out}: {len(series)} rows, regime={args.regime}, seed={args.seed}")


def _load_config(path):
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def _cmd_train(args) -> None:
    config = _load_config(args.config)
    prepared = prepare(config)
    model, report, test_rmse = fit(config, prepared)

    model_dict = kan.to_json_dict(model) if config.model == "kan" else lstm.to_json_dict(model)
    checkpoint = {
        "kind": config.model,
        "model": model_dict,
        "scaler": {
            "mins": prepared.scaler.mins.tolist(),
            "maxs": prepared.scaler.maxs.tolist(),
        },
        "lookback": prepared.lookback,
        "feature_mode": config.data.feature_mode,
        "target_col": prepared.target_col,
        "seed_window": prepared.scaled[-prepared.lookback :].tolist(),
        "config": config_to_dict(config),
        "version": bench._artifact_version(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(checkpoint, fh)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({**dataclasses.asdict(report), "test_rmse": test_rmse}, fh, indent=2)
    print(
        f"trained {config.label}: train RMSE {report.final_rmse:.4f}, "
        f"test RMSE {test_rmse:.4f}, {report.epochs_run} epochs "
        f"in {report.wall_seconds:.2f}s -> {args.out}"
    )


def _cmd_forecast(args) -> None:
    with open(args.checkpoint, encoding="utf-8") as fh:
        bundle = json.load(fh)
    loaders = {"kan": kan.from_json_dict, "lstm": lstm.from_json_dict}
    kind = checkpoint_field(bundle, "kind", "checkpoint")
    if kind not in loaders:
        raise ValueError(f"checkpoint has unknown model kind {kind!r}")
    model_d, seed_window, target_col, scaler_d = (
        checkpoint_field(bundle, key, "checkpoint")
        for key in ("model", "seed_window", "target_col", "scaler")
    )
    target_col = check_int(target_col, "checkpoint field 'target_col'", least=0)
    window = checkpoint_numbers(seed_window, "checkpoint field 'seed_window' must be rows of numbers")
    model = loaders[kind](model_d)
    trace = iterative_forecast(model, window, args.horizon, close_col=target_col)
    scaler = MinMaxScaler(*(checkpoint_array(scaler_d, key, window.shape[1], "checkpoint scaler")
                            for key in ("mins", "maxs")))
    write_trace_csv(trace, args.out, scaler, price_feature=target_col)
    print(f"forecast {args.horizon} steps with {kind} -> {args.out}")


def _cmd_benchmark(args) -> None:
    configs = load_matrix(args.matrix)
    results = run_matrix(configs, parallelism=args.parallel)
    os.makedirs(args.out_dir, exist_ok=True)
    results_path = os.path.join(args.out_dir, "results.json")
    save_results(results, results_path)
    written = emit_report(results, args.format, args.out_dir, best_only=args.best)
    runtime = runtime_summary(results)
    for path in [results_path] + written:
        print(f"wrote {path}")
    failures = [r for r in results if r.failure]
    if failures:
        for r in failures:
            print(f"FAILED {r.config.label}: {r.failure}", file=sys.stderr)
    print(
        f"mean training seconds: kan={runtime['kan']['mean_wall_seconds']:.2f} "
        f"lstm={runtime['lstm']['mean_wall_seconds']:.2f} "
        f"(lstm/kan ratio {runtime['lstm_over_kan_ratio']:.2f})"
    )


def _cmd_report(args) -> None:
    results = load_results(args.input)
    written = emit_report(results, args.format, args.out_dir, best_only=args.best)
    for path in written:
        print(f"wrote {path}")


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        message, usage = err.args  # usage of the (sub)command whose flags were bad
        print(f"usage error: {message}", file=sys.stderr)
        print(usage, file=sys.stderr, end="")
        return 1
    try:
        args.func(args)
    except Exception as err:  # runtime failure -> exit 2, message on stderr
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entry()
