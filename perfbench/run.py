#!/usr/bin/env python3
"""kweave benchmark: protocol splits at the paper's Sonar shape.

Run from the root of a checkout (the sources are imported from ./src):

    python3 perfbench/run.py --workload sonar793-tsmkl --seed 3 --seconds 48 --trace 0

The program is driven as a black box through its public experiment path,
`experiment.load_config` -> `experiment.run_experiment` (what
`kweave experiment run` does), fed generated CSVs and configs. Each split
runs on its own dataset, generated from (--seed, split index), so a run
averages over datasets as well as splits. The number of splits is fixed
by the workload, --seconds and --trace alone: floor(--seconds / the
workload's nominal split time), halved with --trace 1, at least one. So
every commit measured with one seed runs the same datasets, and the same
seed always gives the same accuracy.

--trace 0 prints the end-to-end metrics. --trace 1 runs every split twice,
untraced and then with per-layer wrappers (perfbench/tracer.py), and prints
the per-layer metrics of the traced runs plus the tracing overhead.

Checks, each of which fails the run (exit 1, "correct": false):
  * every split succeeds (a failed split counts in `failed`);
  * two runs at one seed give identical reports after
    `experiment.strip_timing_fields` (the warm-up input twice in every
    run; the untraced and traced run of every split with --trace 1);
  * the K-space counting law, pairs == n_train (n_train + 1) / 2, on every
    tsmkl split, and no K-space built on best_kernel splits;
  * with --trace 1, every wrapper's call count matches the protocol.

KWEAVE_THREADS must be unset; BLAS threads are pinned to BLAS_THREADS.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
N_CLASSES = 2

# name -> (datagen shape, kernel recipe, method, nominal split seconds).
# BENCHMARK.json records why each workload was chosen. The nominal split
# time (median on a 2-vCPU Xeon VM, OpenBLAS at one thread) only sets how
# many splits fit in --seconds; it is a constant, not a measurement.
WORKLOADS = {
    "sonar793-tsmkl": ("sonar", "uci_full_plus_per_feature", "tsmkl", 23.0),
    "sonar13-bestk": ("sonar", "uci_full", "best_kernel", 6.8),
}
# The warm-up runs the same recipe and method on a small input with short
# grids, so lazy imports and first-call costs are paid before the first
# timed split.
WARMUP_CLASSES = (24, 20)
WARMUP_CONFIG = {"mkl": {"num_steps": 20}, "svm": {"c_grid": [1.0], "folds": 2}}

END_TO_END = {
    "setup_s": "s",
    "split_s": "s",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
    "split_ok_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def write_config(path, csv_path, recipe, method, base_seed, extra=None) -> Path:
    config = {
        "dataset": {"path": str(csv_path), "format": "csv"},
        "kernels": {"recipe": recipe},
        "method": method,
        "splits": {"count": 1, "train_fraction": 0.8, "base_seed": base_seed,
                   "stratified": True},
        "output_dir": str(path.parent / "out"),
    }
    config.update(extra or {})
    path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
    return path


def write_split_inputs(workload, seed, index, workdir) -> Path:
    """The CSV and config of split `index`: its own dataset and split seed."""
    import datagen

    shape, recipe, method, _ = WORKLOADS[workload]
    n_pos, n_neg, d = datagen.SHAPES[shape]
    csv_path = workdir / f"data{index}.csv"
    datagen.write_csv(csv_path, *datagen.make_dataset(n_pos, n_neg, d, seed, index))
    return write_config(workdir / f"split{index}.json", csv_path, recipe, method,
                        seed * 1000 + index)


def set_up(workload, seed, workdir):
    """Everything before the first split: import, generate, write, warm up.

    Returns (warm-up config path, run_split result of the warm-up).
    """
    import datagen
    from kweave import experiment

    shape, recipe, method, _ = WORKLOADS[workload]
    write_split_inputs(workload, seed, 0, workdir)
    warm_csv = workdir / "warmup.csv"
    d = datagen.SHAPES[shape][2]
    datagen.write_csv(warm_csv, *datagen.make_dataset(*WARMUP_CLASSES, d, seed))
    warm_cfg = write_config(
        workdir / "warmup.json", warm_csv, recipe, method, seed, WARMUP_CONFIG
    )
    return warm_cfg, run_split(experiment.load_config(warm_cfg))


def time_setup_probe(workload, seed) -> float:
    """Wall time of a fresh process doing set_up and exiting."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return elapsed


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                           and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "KWEAVE_THREADS": None,
    }


def strip(report) -> dict:
    from kweave import experiment

    return experiment.strip_timing_fields(report.to_dict())


def counting_law(method, record, counter) -> list:
    """The K-space counting law on one split, from the make_kexamples probe."""
    built = counter.by_name()["kspace.build"]
    if method != "tsmkl":
        return [f"{method} built {len(built)} K-spaces, expected none"] if built else []
    n = record["n_train"]
    if len(built) != 1:
        return [f"K-space built {len(built)} times in one split"]
    if built[0].info["pairs"] != n * (n + 1) // 2:
        return [f"K-space has {built[0].info['pairs']} pairs, n_train={n} implies "
                f"{n * (n + 1) // 2}"]
    return []


def run_split(config):
    """(wall seconds, report, failure message or None) of one single-split run.

    run_experiment keeps a failing split's error in its record and then,
    with no split left to aggregate, raises RuntimeError; so for a
    single-split config that exception is how a failed split shows.
    """
    from kweave import experiment

    t0 = time.perf_counter()
    try:
        report = experiment.run_experiment(config)
    except RuntimeError as exc:
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, report, None


def run(args, workdir) -> int:
    import tracer as tr
    from kweave import experiment, mkl

    method, split_estimate = WORKLOADS[args.workload][2:]
    # a traced run times every split twice, so it runs half as many
    n_splits = max(1, int(args.seconds // (split_estimate * (1 + args.trace))))
    problems: list[str] = []

    warm_cfg, (_, warm_report, warm_error) = set_up(args.workload, args.seed, workdir)
    _, again, again_error = run_split(experiment.load_config(warm_cfg))
    if warm_error or again_error:
        problems.append(f"warm-up split failed {warm_error or again_error}")
    elif strip(warm_report) != strip(again):
        problems.append("warm-up reports differ after strip_timing_fields")
    setup_samples = [time_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    env = environment()
    if env["blas_threads"] not in (None, BLAS_THREADS):
        problems.append(f"BLAS runs {env['blas_threads']} threads, pinned {BLAS_THREADS}")
    print(json.dumps({"env": env}, sort_keys=True))

    walls, accuracies, layer_rows = [], [], []
    attempted = failed = 0
    for i in range(n_splits):
        if i > 0:
            write_split_inputs(args.workload, args.seed, i, workdir)
        config = experiment.load_config(workdir / f"split{i}.json")
        counter = tr.Tracer(tr.PAIR_COUNTER)
        with counter.installed():
            wall, report, error = run_split(config)
        attempted += 1
        line = f"split {i} seed {config.base_seed}: {wall:.4f} s"
        if error:
            failed += 1
            problems.append(f"split {i} failed {error}")
        else:
            record = report.per_split[0]
            walls.append(wall)
            accuracies.append(record["metrics"]["accuracy"])
            problems += [f"split {i}: {p}" for p in counting_law(method, record, counter)]

        if args.trace and not error:
            tracer = tr.Tracer()
            with tracer.installed(), tracer.span(tr.ROOT):
                traced_wall, traced, traced_error = run_split(config)
            attempted += 1
            line += f", traced {traced_wall:.4f} s"
            if traced_error:
                failed += 1
                problems.append(f"split {i} failed traced {traced_error}")
            else:
                if strip(traced) != strip(report):
                    problems.append(f"split {i}: traced and untraced reports differ")
                layers = tr.layer_metrics(tracer)
                n_lambdas = len(config.lambda_grid or mkl.default_lambda_grid())
                problems += [
                    f"split {i}: {p}" for p in tr.check_structure(
                        tracer, layers, method, N_CLASSES, n_lambdas, len(config.c_grid),
                        config.svm_folds, len(record["mu"]))
                ]
                layers["trace.split_s"] = traced_wall
                layers["trace.overhead_s"] = traced_wall - wall
                layer_rows.append(layers)
        print(line, flush=True)
        if problems:
            break

    if args.trace:
        names = list(layer_rows[0]) if layer_rows else []
        values = {n: statistics.median(row[n] for row in layer_rows) for n in names}
        units = {n: layer_unit(n) for n in names}
        print(f"per-layer medians over {len(layer_rows)} traced splits")
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "split_s": statistics.median(walls) if walls else None,
            "accuracy": statistics.fmean(accuracies) if accuracies else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "split_ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
        print(f"split_s is the median of {len(walls)} of {n_splits} splits; setup_s the "
              f"median of {len(setup_samples)} fresh-process set-ups")
    values = {n: v for n, v in values.items() if v is not None}
    for name, value in values.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if "KWEAVE_THREADS" in os.environ:
        print("KWEAVE_THREADS is set; the benchmark measures the default (unset)",
              file=sys.stderr)
        return 2
    if not (SRC / "kweave" / "__init__.py").is_file():
        print(f"no kweave sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # before numpy is first imported, so the BLAS library reads them
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import kweave

    if Path(kweave.__file__).resolve().parent != SRC / "kweave":
        print(f"kweave imported from {kweave.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, workdir)
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
