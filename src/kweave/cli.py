"""Command-line entry points.

Subcommands: `learn`, `svm train`, `evaluate`, `experiment run`,
`report sweep`. Exit codes: 0 success, 1 config or input error
(experiment.InputError), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import baselines, experiment, metrics, svm
from .data import load_dataset
from .experiment import InputError
from .kernels import RECIPES, KernelError, check_weights, combine

logger = logging.getLogger(__name__)


def _load_data(path: str, fmt: str):
    try:
        return load_dataset(path, fmt)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load dataset {path!r}: {exc}") from exc


def _load_config(path: str) -> experiment.ExperimentConfig:
    try:
        return experiment.load_config(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"bad config {path!r}: {exc}") from exc


def _check_out(path: str, directory: bool = False) -> None:
    """Refuse an output path that cannot be written, before any work; creates nothing."""
    target = Path(path)
    if directory:  # the nearest existing path, the directory itself if it exists, must be one
        nearest = next(p for p in (target, *target.parents) if p.exists())
        if not nearest.is_dir():
            raise InputError(f"cannot make directory {path!r}: "
                             f"{str(nearest)!r} is not a directory")
    elif target.is_dir() or not target.parent.is_dir():
        what = "it is" if target.is_dir() else f"{str(target.parent)!r} is not"
        raise InputError(f"cannot write file {path!r}: {what} a directory")


def _load_run(args):
    """The config of `experiment run` / `report sweep`, with --out applied, and its dataset."""
    config = _load_config(args.config)
    if args.out:
        config.output_dir = args.out
    _check_out(config.output_dir, directory=True)
    return config, _load_data(config.dataset_path, config.dataset_format)


def _write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_learn(args) -> int:
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    _check_out(args.out)
    dataset = _load_data(args.data, args.format)
    method = args.method.replace("-", "_")
    config = experiment.ExperimentConfig(
        dataset_path=args.data,
        dataset_format=args.format,
        kernel_recipe=args.recipe,
        method=method,
        mkl_num_steps=args.steps,
        mkl_batch_size=args.batch_size,
    )
    folds = experiment.check_method(method, dataset.labels, config.svm_folds, args.seed)
    _, _, bank, dropped = experiment.prepare_train(dataset, args.recipe, args.seed)
    mu, details = experiment.learn_weights(bank, dataset.labels, config, args.seed, folds)
    payload = {
        "method": method,
        "mu": [float(v) for v in mu],
        "p": len(mu),
        "dropped_kernels": [int(i) for i in dropped],
        "seed": args.seed,
        **details,
    }
    _write_json(payload, args.out)
    print(f"{method}: {int(np.count_nonzero(mu))}/{len(mu)} nonzero weights -> {args.out}")
    return 0


def _read_weights(path: str) -> np.ndarray:
    """The `mu` list of a weights file: numbers, finite, non-negative, not all zero."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not (isinstance(payload, dict) and isinstance(payload.get("mu"), list)):
            raise ValueError("expected a JSON object with a 'mu' list")
        if any(type(v) not in (int, float) for v in payload["mu"]):  # a bool is no number
            raise ValueError("'mu' must hold only numbers")
        return check_weights(len(payload["mu"]), payload["mu"])
    except (OSError, ValueError, TypeError) as exc:  # KernelError is a ValueError
        raise InputError(f"bad weights {path!r}: {exc}") from exc


def cmd_svm_train(args) -> int:
    if args.folds < 2:
        raise InputError(f"--folds must be >= 2, got {args.folds}")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    _check_out(args.out)
    dataset = _load_data(args.data, args.format)
    folds = experiment.draw_folds(dataset.labels, args.folds, args.seed, "--folds")
    mu = _read_weights(args.weights) if args.weights else None
    _, _, bank, _ = experiment.prepare_train(dataset, args.recipe, args.seed)
    if mu is None:
        mu = baselines.uniform_weights(bank.p)
    if mu.size != bank.p:  # dropped kernels set p, so only the centered bank knows it
        raise InputError(f"bad weights {args.weights!r}: expected {bank.p} weights "
                         f"(one per kept kernel), got {mu.size}")
    try:
        gram = combine(bank, mu)
    except KernelError as exc:  # weights whose weighted sum leaves the float range
        raise InputError(f"bad weights {args.weights!r}: {exc}") from exc
    best_C, records, ovr = svm.fit(gram, dataset.labels, folds)
    payload = {
        "chosen_C": best_C,
        "cv_records": records,
        "class_names": list(dataset.class_names),
        **ovr.to_dict(),
    }
    _write_json(payload, args.out)
    print(f"trained {len(ovr.models)}-class model, C={best_C:g} -> {args.out}")
    return 0


def _read_label_file(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            values = [line.strip() for line in fh if line.strip()]
        return np.array([int(v) for v in values], dtype=np.int64)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read label file {path!r}: {exc}") from exc


def cmd_evaluate(args) -> int:
    if not 0.0 <= args.drop_fraction < 1.0:
        raise InputError(f"--drop-fraction must be in [0, 1), got {args.drop_fraction}")
    if args.out:
        _check_out(args.out)
    true = _read_label_file(args.true)
    pred = _read_label_file(args.pred)
    if true.shape != pred.shape:
        raise InputError("true/pred label files differ in length")
    if true.size == 0:
        raise InputError("label files are empty")
    lo, hi = int(min(true.min(), pred.min())), int(max(true.max(), pred.max()))
    c = args.classes if args.classes else hi + 1
    if lo < 0 or hi >= c:
        raise InputError(f"label ids must be in [0, {c}), got {lo}..{hi}")
    out = {"metrics": {**metrics.evaluate(true, pred, c),
                       "confusion": metrics.confusion_matrix(true, pred, c).tolist()}}
    if args.drop_fraction > 0.0:
        if not args.confidence:
            raise InputError("--drop-fraction needs --confidence")
        try:
            conf = np.loadtxt(args.confidence, dtype=np.float64, ndmin=1)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read confidence file {args.confidence!r}: {exc}") from exc
        if conf.shape != true.shape:
            raise InputError("confidence file length mismatch")
        if not np.all(np.isfinite(conf)):  # argsort would rank a NaN as the most confident
            raise InputError(f"confidence file {args.confidence!r} holds a non-finite value")
        retained, out["filtered_metrics"] = metrics.filter_unsure(
            conf, pred, true, args.drop_fraction, c)
        out["retained"] = retained.tolist()
    if args.out:
        _write_json(out, args.out)
    else:
        print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_experiment_run(args) -> int:
    config, dataset = _load_run(args)
    report = experiment.run_experiment(config, dataset=dataset)
    os.makedirs(config.output_dir, exist_ok=True)
    json_path = os.path.join(config.output_dir, "report.json")
    table = experiment.render_markdown_table(report)
    _write_json(report.to_dict(), json_path)
    Path(config.output_dir, "report.md").write_text(table, encoding="utf-8")
    acc = report.aggregate["accuracy"]
    print(table, end="")
    print(
        f"{config.method}: accuracy {100 * acc['mean']:.2f}({100 * acc['std']:.2f}) "
        f"over {report.aggregate['n_succeeded']}/{report.aggregate['n_splits']} splits "
        f"-> {json_path}"
    )
    return 0


def cmd_report_sweep(args) -> int:
    config, dataset = _load_run(args)
    sweep = experiment.run_lambda_sweep(config, dataset=dataset)
    os.makedirs(config.output_dir, exist_ok=True)
    tsv_path = os.path.join(config.output_dir, "sweep.tsv")
    Path(tsv_path).write_text(experiment.render_sweep_tsv(sweep), encoding="utf-8")
    _write_json(sweep, os.path.join(config.output_dir, "sweep.json"))
    print(f"{len(sweep['records'])} sweep records -> {tsv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kweave",
        description="Two-stage multiple kernel learning over precomputed Gram banks.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command")

    def add_data_args(p):
        p.add_argument("--data", required=True, help="dataset file")
        p.add_argument("--format", default="csv", choices=["csv", "sparse_svm"])
        p.add_argument("--recipe", default="uci_full", choices=RECIPES)

    p = sub.add_parser("learn", help="learn kernel weights on a full dataset")
    add_data_args(p)
    p.add_argument(
        "--method", required=True,
        choices=sorted(m.replace("_", "-") for m in experiment.METHODS),
    )
    p.add_argument("--out", required=True, help="weights JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=None, help="subgradient steps (default: auto)")
    p.add_argument("--batch-size", type=int, default=100)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("svm", help="SVM operations")
    ssub = p.add_subparsers(dest="subcommand")
    st = ssub.add_parser("train", help="train a combined-kernel SVM")
    add_data_args(st)
    st.add_argument("--weights", help="weights JSON from `learn` (default: uniform)")
    st.add_argument("--out", required=True, help="model JSON path")
    st.add_argument("--folds", type=int, default=4)
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=cmd_svm_train)

    p = sub.add_parser("evaluate", help="score prediction files")
    p.add_argument("--true", required=True, help="file with one true label id per line")
    p.add_argument("--pred", required=True, help="file with one predicted label id per line")
    p.add_argument("--classes", type=int, default=0, help="class count (default: infer)")
    p.add_argument("--drop-fraction", type=float, default=0.0)
    p.add_argument("--confidence", help="per-instance confidence file for filtering")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    for group, group_help, name, name_help, func in (
        ("experiment", "experiment pipelines", "run", "run a config end to end",
         cmd_experiment_run),
        ("report", "report utilities", "sweep", "lambda sweep diagnostics on one split",
         cmd_report_sweep),
    ):
        p = sub.add_parser(group, help=group_help).add_subparsers(dest="subcommand")
        p = p.add_parser(name, help=name_help)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="override the config's output directory")
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold those into the config-error code
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything past config validation is a runtime failure
        logger.error("%s", exc)
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
