"""End-to-end experiment protocol: random splits, per-split weight learning,
SVM training with CV-selected C, evaluation, and Table-style aggregation.

Every split's holdout and CV folds are drawn and checked first (plan_splits).
Per split: (1) train/test subsets, (2) feature scaling fit on train, (3) the
centered kernel bank on train, its rows in stage one's planned order whatever
the method, (4) method-specific kernel weights, (5) the test rows' combined
cross Gram, summed one centered cross block at a time, (6) Gram combination,
C selection on the planned folds and one-vs-rest training, (7) prediction and
metrics, (8) per-stage wall-clock accounting and the process's peak RSS so
far. Everything randomized is seeded from base_seed + split_index, so
reports are reproducible byte for byte apart from timing fields at a fixed
BLAS thread count (README says which fields another count can move).
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import logging
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import baselines, metrics, mkl, svm
from .data import Dataset, FeatureScaler, SplitPlan, holdout_split, kfold_plan, load_dataset
from .kernels import RECIPES, build_kernel_bank, center_bank, combine, combine_cross
from .kspace import balance, make_kexamples, pair_counts, plan_rows

logger = logging.getLogger(__name__)

METHODS = ("tsmkl", "target_align", "average", "best_kernel")

# stage ids for seed derivation; fixed so reports stay reproducible
_SEED_BALANCE = 1
_SEED_LAMBDA = 2
_SEED_FINAL = 3
_SEED_BESTK = 4
_SEED_SVM_FOLDS = 6


def derive_seed(base: int, *path: int) -> int:
    """Deterministic u64 stream seed for a (base, stage...) path."""
    ss = np.random.SeedSequence(entropy=int(base), spawn_key=tuple(int(x) for x in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class InputError(ValueError):
    """Arguments, config or data the program cannot use; the CLI exits 1."""


def is_json_number(value) -> bool:
    """An int or a float within the float range; a bool is no number."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def _at(section: str | None, key: str, **kwargs):
    """A config field kept in JSON as config[section][key], or config[key] when
    section is None; fields are read, checked and written in declaration order."""
    return field(metadata={"json": (section, key)}, **kwargs)


@dataclass
class ExperimentConfig:
    dataset_path: str = _at("dataset", "path")
    dataset_format: str = _at("dataset", "format", default="csv")
    kernel_recipe: str = _at("kernels", "recipe", default="uci_full")
    method: str = _at(None, "method", default="tsmkl")
    n_splits: int = _at("splits", "count", default=10)
    train_fraction: float = _at("splits", "train_fraction", default=0.8)
    base_seed: int = _at("splits", "base_seed", default=0)
    stratified: bool = _at("splits", "stratified", default=True)
    # None: 10^3 below 1000 train rows, else 10^5
    mkl_num_steps: int | None = _at("mkl", "num_steps", default=None)
    mkl_batch_size: int = _at("mkl", "batch_size", default=100)
    lambda_grid: list | None = _at("mkl", "lambda_grid", default=None)
    c_grid: list = _at("svm", "c_grid", default_factory=lambda: list(svm.DEFAULT_C_GRID))
    svm_folds: int = _at("svm", "folds", default=4)
    drop_fraction: float = _at("metrics", "drop_fraction", default=0.0)
    output_dir: str = _at(None, "output_dir", default="out")

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.kernel_recipe not in RECIPES:
            raise InputError(
                f"unknown kernel recipe {self.kernel_recipe!r}, expected one of {RECIPES}"
            )
        if self.n_splits < 1:
            raise InputError("n_splits must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise InputError("train_fraction must be in (0, 1)")
        if self.base_seed < 0:
            raise InputError("base_seed must be >= 0")
        if not 0.0 <= self.drop_fraction < 1.0:
            raise InputError("drop_fraction must be in [0, 1)")
        if self.svm_folds < 2:
            raise InputError("svm_folds must be >= 2")
        if self.mkl_num_steps is not None and self.mkl_num_steps < 1:
            raise InputError("mkl_num_steps must be >= 1")
        if self.mkl_batch_size < 1:
            raise InputError("mkl_batch_size must be >= 1")
        if self.lambda_grid is not None:
            mkl._validate_grid(self.lambda_grid)
        if not self.c_grid:
            raise InputError("c_grid must be non-empty")
        if not all(np.isfinite(c) and c > 0 for c in self.c_grid):
            raise InputError("c_grid entries must be positive and finite")
        if any(a >= b for a, b in zip(self.c_grid, self.c_grid[1:])):
            raise InputError("c_grid must be strictly ascending")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """Nested JSON config, erroring on unknown keys so typos surface and on
        values of a type their field's annotation does not admit."""
        if not isinstance(obj, dict):
            raise ValueError(f"a config must be a JSON object, got {type(obj).__name__}")
        rest = {None: dict(obj)}
        for f in fields(cls):
            section = f.metadata["json"][0]
            if section is not None and section not in rest:
                sec = rest[None].pop(section, {})
                if not isinstance(sec, dict):
                    raise ValueError(f"config section {section!r} must be an object")
                rest[section] = dict(sec)
        kwargs = {}
        for f in fields(cls):
            section, key = f.metadata["json"]
            if key in rest[section]:
                value = kwargs[f.name] = rest[section].pop(key)
                # annotations are strings such as "int | None"; an int fills a float field,
                # a bool only a bool field, and every int or list entry is_json_number
                kind, hint = type(value).__name__, f.type
                ok = kind in hint.replace("None", "NoneType").split(" | ") or (
                    kind == "int" and "float" in hint)
                numbers = value if kind == "list" else [value] if kind == "int" else []
                if not all(map(is_json_number, numbers)):
                    ok, hint = False, ("a list of numbers" if kind == "list"
                                       else "a number within the float range")
                if not ok:
                    raise ValueError(f"config value {key!r} in {section or 'top-level'} must be "
                                     f"{hint}, got {value!r}")
        if kwargs.get("dataset_path") is None:
            raise ValueError("config requires dataset.path")
        for section, sec in rest.items():
            if sec:
                raise ValueError(f"unknown config keys in {section or 'top-level'}: {sorted(sec)}")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        flat = asdict(self)
        out: dict = {}
        for f in fields(self):
            section, key = f.metadata["json"]
            (out.setdefault(section, {}) if section else out)[key] = flat[f.name]
        return out


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def _mkl_steps(config: ExperimentConfig, n_train: int) -> int:
    if config.mkl_num_steps is not None:
        return config.mkl_num_steps
    return 1000 if n_train < 1000 else 100000


def prepare_train(train: Dataset, recipe: str, seed: int = 0):
    """Fit the scaler on the train rows, build the recipe's bank and center it,
    its rows the pairs kspace.plan_rows plans for stage one at the seed.

    Returns (scaler, centered bank, dropped kernel indices); the bank keeps
    the scaled train rows (bank.features) for the test side.
    """
    scaler = FeatureScaler.fit(train.instances)
    Xs = scaler.apply(train.instances)
    seeds = derive_seed(seed, _SEED_BALANCE), derive_seed(seed, _SEED_LAMBDA)
    bank, dropped = center_bank(build_kernel_bank(Xs, recipe), plan_rows(train.labels, *seeds)[0])
    return scaler, bank, dropped


def learn_weights(bank, train_y, config: ExperimentConfig, seed: int, folds=None):
    """Learn the config's kernel weights on a centered train-side bank.

    Returns (mu, details). The bank must come from prepare_train on train
    rows only, with the same seed; nothing here may see test rows. best_kernel
    picks its kernel by CV on folds, the ones check_method returned.
    """
    train_y = np.asarray(train_y, dtype=np.int64)
    details: dict = {}

    if config.method == "tsmkl":
        steps = _mkl_steps(config, len(train_y))
        bal = balance(make_kexamples(train_y, bank))
        lam, lam_records = mkl.select_lambda(
            bal, config.lambda_grid, derive_seed(seed, _SEED_LAMBDA), config.mkl_batch_size, steps
        )
        final = mkl.pegasos_train(
            bal, lam, steps, config.mkl_batch_size, derive_seed(seed, _SEED_FINAL)
        )
        mu = final.mu
        # F(0) = 1, so these fits ended provably worse than mu = 0
        worse = sum(r["objective"] is not None and r["objective"] > 1.0 for r in lam_records)
        logger.info("seed %d: lambda %g chosen; %d of %d lambdas have objective > 1",
                    seed, lam, worse, len(lam_records))
        details = {
            "chosen_lambda": lam,
            "final_train_hinge": final.final_train_hinge,
            "num_steps": steps,
            "n_kexamples": len(bal),
            "lambda_records": lam_records,
            "lambdas_worse_than_zero": worse,
        }
    elif config.method == "target_align":
        mu = baselines.target_align(bank, train_y)
    elif config.method == "average":
        mu = baselines.uniform_weights(bank.p)
    else:  # best_kernel, the last of METHODS
        idx, mu = baselines.best_kernel(bank, train_y, folds, c_grid=config.c_grid)
        details = {"chosen_kernel": idx, "kernel_label": bank.specs[idx].label()}
    return mu, details


def draw_folds(labels, k: int, seed: int, name: str) -> list:
    """The k CV folds of these rows for the seed (data.kfold_plan); InputError
    when k exceeds the rows or no fold's train side holds every class (select_C
    skips a fold that loses a class as long as another keeps them all)."""
    labels = np.asarray(labels)
    if k > len(labels):
        raise InputError(f"{name} {k} exceeds the {len(labels)} train rows")
    folds = kfold_plan(len(labels), k, seed)
    n_classes = np.unique(labels).size
    if not any(np.unique(labels[f.train_indices]).size == n_classes for f in folds):
        raise InputError(f"no fold of {name} {k} holds every class on its train side")
    return folds


def check_method(method: str, train_y, svm_folds: int, seed: int):
    """What a method needs from its train rows: tsmkl's mkl.MIN_KEXAMPLES balanced
    K-examples (kspace.plan_rows's m, twice the smaller pair count), and
    best_kernel's CV folds, which it returns (None for the other methods)."""
    if method == "tsmkl":
        m = 2 * min(pair_counts(train_y))
        if m < mkl.MIN_KEXAMPLES:
            raise InputError(f"tsmkl needs {mkl.MIN_KEXAMPLES} balanced K-examples to select "
                             f"lambda; {len(train_y)} train rows give {m}")
    elif method == "best_kernel":
        return draw_folds(train_y, svm_folds, derive_seed(seed, _SEED_BESTK),
                          "best_kernel's svm.folds")


def plan_splits(dataset: Dataset, config: ExperimentConfig, n_splits: int) -> list:
    """Each split's (holdout, svm.folds folds, best_kernel's folds or None),
    drawn once and checked before any split runs: each side holds every class,
    the train rows suffice for the method, and some fold keeps every class on
    its train side. Raises InputError naming the first split that fails."""
    plans = []
    for seed in range(config.base_seed, config.base_seed + n_splits):
        try:
            plan = holdout_split(dataset, config.train_fraction, seed, config.stratified)
            for side, rows in (("train", plan.train_indices), ("test", plan.test_indices)):
                missing = np.setdiff1d(np.arange(dataset.n_classes), dataset.labels[rows])
                if missing.size:
                    name = dataset.class_names[missing[0]]
                    raise InputError(f"the {side} side has no rows of class {name!r}")
            train_y = dataset.labels[plan.train_indices]
            bestk_folds = check_method(config.method, train_y, config.svm_folds, seed)
            folds = draw_folds(train_y, config.svm_folds, derive_seed(seed, _SEED_SVM_FOLDS),
                               "svm.folds")
        except ValueError as exc:  # holdout_split's own refusals too
            i = seed - config.base_seed
            raise InputError(f"split {i} (seed {seed}) of {config.dataset_path!r}: {exc}") from exc
        plans.append((plan, folds, bestk_folds))
    return plans


def _holdout(dataset: Dataset, plan: SplitPlan):
    """The (train, test) datasets of a planned split."""
    return dataset.subset(plan.train_indices), dataset.subset(plan.test_indices)


def _mu_summary(mu: np.ndarray) -> dict:
    top = np.argsort(mu)[::-1][:5]
    return {
        "nonzero": int(np.count_nonzero(mu)),
        "top5": [[int(i), float(mu[i])] for i in top if mu[i] > 0],
    }


@contextmanager
def _timed(timings: dict, name: str):
    """Time the block into timings[name], also when it raises."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - t0


def _peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)  # bytes vs KB


def _run_split(dataset: Dataset, config: ExperimentConfig, split_index: int, plan) -> dict:
    seed = config.base_seed + split_index
    record: dict = {"split_index": split_index, "seed": seed}
    timings: dict = {}
    holdout, folds, bestk_folds = plan
    try:
        with _timed(timings, "split"):
            train, test = _holdout(dataset, holdout)
            record["n_train"], record["n_test"] = train.n, test.n

        with _timed(timings, "kernel_learning"):
            scaler, bank, dropped = prepare_train(train, config.kernel_recipe, seed)
            mu, details = learn_weights(bank, train.labels, config, seed, bestk_folds)
        record["mu"] = [float(v) for v in mu]
        record["mu_summary"] = _mu_summary(mu)
        record["dropped_kernels"] = [int(i) for i in dropped]
        record.update(details)

        with _timed(timings, "kernel_build"):
            cross = combine_cross(bank, mu, scaler.apply(test.instances))

        with _timed(timings, "svm"):
            best_C, cv_records, ovr = svm.fit(combine(bank, mu), train.labels, folds, config.c_grid)
        record["chosen_C"] = float(best_C)
        record["cv_records"] = cv_records
        record["final_fit"] = [
            {
                "class": c, "iterations": m.iterations, "converged": m.converged,
                "kkt_gap": m.kkt_gap,
            }
            for c, m in enumerate(ovr.models)
        ]

        with _timed(timings, "evaluation"):
            D = ovr.decision_matrix(cross)
            pred = D.argmax(axis=1)
            record["metrics"] = metrics.evaluate(test.labels, pred, dataset.n_classes)
            if config.drop_fraction > 0.0:
                conf = metrics.margin_confidence(D)
                _, record["filtered_metrics"] = metrics.filter_unsure(
                    conf, pred, test.labels, config.drop_fraction, dataset.n_classes
                )
    except Exception as exc:  # per-split isolation: one bad split must not kill the run
        # a stage's time is written when it ends, so the one that raised is the last key
        record["stage"] = next(reversed(timings))
        logger.warning("split %d failed at stage %s: %s", split_index, record["stage"], exc)
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["timings"] = {**timings, "peak_rss_mb": _peak_rss_mb()}
    return record


def _mean_std(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std, "count": int(arr.size)}


def aggregate_records(per_split: list[dict]) -> dict:
    """Mean/std over successful splits for the headline metrics."""
    ok = [r for r in per_split if "error" not in r]
    if not ok:
        raise RuntimeError("no split succeeded; cannot aggregate")
    agg = {"n_splits": len(per_split), "n_succeeded": len(ok)}
    for key in ("accuracy", "mean_per_class_accuracy", "macro_f1", "mean_mcc"):
        agg[key] = _mean_std([r["metrics"][key] for r in ok])
    filt = [r for r in ok if "filtered_metrics" in r]
    if filt:
        agg["filtered_accuracy"] = _mean_std([r["filtered_metrics"]["accuracy"] for r in filt])
    return agg


@dataclass
class ExperimentReport:
    config: dict
    per_split: list
    aggregate: dict
    artifact_hashes: dict
    created_at: str
    total_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


def _dataset_sha256(config: ExperimentConfig, dataset: Dataset) -> str:
    try:
        with open(config.dataset_path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(dataset.instances).tobytes())
        h.update(np.ascontiguousarray(dataset.labels).tobytes())
        return h.hexdigest()


def run_experiment(config: ExperimentConfig, dataset: Dataset | None = None) -> ExperimentReport:
    """The full multi-split protocol; needs >= 1 successful split to report."""
    t_start = time.perf_counter()
    if dataset is None:
        dataset = load_dataset(config.dataset_path, config.dataset_format)
    plans = plan_splits(dataset, config, config.n_splits)
    per_split = [_run_split(dataset, config, i, plan) for i, plan in enumerate(plans)]
    aggregate = aggregate_records(per_split)
    cfg_dict = config.to_dict()
    hashes = {
        "dataset_sha256": _dataset_sha256(config, dataset),
        "config_sha256": hashlib.sha256(
            json.dumps(cfg_dict, sort_keys=True).encode()
        ).hexdigest(),
    }
    return ExperimentReport(
        config=cfg_dict,
        per_split=per_split,
        aggregate=aggregate,
        artifact_hashes=hashes,
        created_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        total_seconds=time.perf_counter() - t_start,
    )


def run_lambda_sweep(config: ExperimentConfig, dataset: Dataset | None = None) -> dict:
    """One split, one model per lambda, downstream accuracy per model.

    The records pair K-space quality with test accuracy of the
    combined-kernel SVM, the data behind the hinge-vs-accuracy diagnostic:
    one per lambda whose fit succeeded, in grid order. k_hinge is the
    validation hinge of mkl.train_grid; k_accuracy is sign agreement of
    mu.z with t on that validation K-split (a zero score counts as +1);
    data_accuracy is None where the weights collapsed or the SVM stage
    failed. Its split is run_experiment's split 0. Only tsmkl has a lambda
    grid, so a config of any other method raises InputError.
    """
    if config.method != "tsmkl":
        raise InputError(f"the lambda sweep runs tsmkl; the config's method is {config.method!r}")
    t_start = time.perf_counter()
    if dataset is None:
        dataset = load_dataset(config.dataset_path, config.dataset_format)
    seed = config.base_seed
    ((plan, folds, _),) = plan_splits(dataset, config, 1)
    train, test = _holdout(dataset, plan)
    scaler, bank, _ = prepare_train(train, config.kernel_recipe, seed)
    bal = balance(make_kexamples(train.labels, bank))

    val_k, fits = mkl.train_grid(
        bal, config.lambda_grid, derive_seed(seed, _SEED_LAMBDA), config.mkl_batch_size,
        _mkl_steps(config, train.n),
    )
    # the test-side sums of the models that did not collapse, made in one pass and
    # keyed by lambda (a grid is strictly descending, so no two fits share one)
    live = {lam: model.mu for lam, model, _ in fits if model is not None and not model.collapsed}
    crosses = {} if not live else dict(zip(
        live, combine_cross(bank, list(live.values()), scaler.apply(test.instances))
    ))
    records = []
    for lam, model, k_hinge in fits:
        if model is None:
            continue
        k_pred = np.where(val_k.scores(model.mu) >= 0, 1, -1)
        acc = None
        if not model.collapsed:
            try:
                _, _, ovr = svm.fit(combine(bank, model.mu), train.labels, folds, config.c_grid)
                pred = ovr.predict(crosses[lam])
                acc = float(np.mean(pred == test.labels))
            except (ValueError, RuntimeError) as exc:
                logger.warning("lambda=%g: sweep SVM stage failed: %s", lam, exc)
        records.append(
            {
                "lambda": lam,
                "k_hinge": k_hinge,
                "k_accuracy": float(np.mean(k_pred == val_k.t)),
                "data_accuracy": acc,
            }
        )
    return {
        "config": config.to_dict(),
        "split": {"seed": seed, "n_train": train.n, "n_test": test.n},
        "records": records,
        "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "total_seconds": time.perf_counter() - t_start,
    }


# ---------------------------------------------------------------------------
# report rendering

_TIMING_KEYS = ("timings", "created_at", "total_seconds")


def strip_timing_fields(obj):
    """Recursively drop wall-clock fields; what remains is the deterministic core."""
    if isinstance(obj, dict):
        return {k: strip_timing_fields(v) for k, v in obj.items() if k not in _TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing_fields(v) for v in obj]
    return obj


def _pct_cell(stat: dict) -> str:
    return f"{100.0 * stat['mean']:.2f}({100.0 * stat['std']:.2f})"


def render_markdown_table(report: ExperimentReport) -> str:
    """The report's Table-style row of mean(std) percent cells, under a header."""
    agg = report.aggregate
    row = "| {m} | {acc} | {mpc} | {f1} | {mcc} | {k} |".format(
        m=report.config["method"],
        acc=_pct_cell(agg["accuracy"]),
        mpc=_pct_cell(agg["mean_per_class_accuracy"]),
        f1=_pct_cell(agg["macro_f1"]),
        mcc=_pct_cell(agg["mean_mcc"]),
        k=agg["n_succeeded"],
    )
    return (
        "| Method | Accuracy | Mean per-class | Macro F1 | Mean MCC | Splits |\n"
        f"| --- | --- | --- | --- | --- | --- |\n{row}\n"
    )


def render_sweep_tsv(sweep: dict) -> str:
    cols = ("lambda", "k_hinge", "k_accuracy", "data_accuracy")
    lines = ["\t".join(cols)]
    for rec in sweep["records"]:
        lines.append(
            "\t".join("nan" if rec[c] is None else f"{rec[c]:.10g}" for c in cols)
        )
    return "\n".join(lines) + "\n"

