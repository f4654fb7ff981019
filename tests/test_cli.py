"""Command-line interface: subcommands, artifacts, and exit codes."""

import json
import os

import numpy as np
import pytest

import kweave.experiment as experiment
from kweave import cli, svm
from kweave.cli import main

from test_experiment import write_toy_csv


@pytest.fixture
def toy_csv(tmp_path):
    return write_toy_csv(tmp_path / "toy.csv")


def write_config(tmp_path, toy_csv, **overrides):
    cfg = {
        "dataset": {"path": toy_csv},
        "method": "average",
        "splits": {"count": 2},
        "mkl": {"num_steps": 150, "lambda_grid": [1.0, 0.0625]},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLearn:
    def test_writes_weights(self, tmp_path, toy_csv, capsys):
        out = tmp_path / "w.json"
        code = main(
            ["learn", "--data", toy_csv, "--method", "target-align", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "target_align"
        assert len(payload["mu"]) == payload["p"] == 13
        assert "nonzero weights" in capsys.readouterr().out

    def test_tsmkl_records_lambda(self, tmp_path, toy_csv):
        out = tmp_path / "w.json"
        code = main(
            [
                "learn", "--data", toy_csv, "--method", "tsmkl",
                "--out", str(out), "--steps", "150",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["num_steps"] == 150
        assert payload["chosen_lambda"] > 0
        assert len(payload["lambda_records"]) == 17  # default grid


class TestSvmTrain:
    def test_with_learned_weights(self, tmp_path, toy_csv):
        weights = tmp_path / "w.json"
        assert main(["learn", "--data", toy_csv, "--method", "average", "--out", str(weights)]) == 0
        model = tmp_path / "model.json"
        code = main(
            [
                "svm", "train", "--data", toy_csv,
                "--weights", str(weights), "--out", str(model),
            ]
        )
        assert code == 0
        payload = json.loads(model.read_text())
        assert payload["chosen_C"] in [r["C"] for r in payload["cv_records"]]
        assert payload["n_classes"] == 2
        assert len(payload["models"]) == 2
        assert payload["class_names"] == ["c0", "c1"]


class TestEvaluate:
    def test_hand_metrics(self, tmp_path, capsys):
        true = tmp_path / "true.txt"
        pred = tmp_path / "pred.txt"
        true.write_text("0\n0\n1\n1\n")
        pred.write_text("0\n1\n1\n1\n")
        assert main(["evaluate", "--true", str(true), "--pred", str(pred)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["metrics"]["accuracy"] == 0.75
        assert out["metrics"]["confusion"] == [[1, 1], [0, 2]]

    def test_filtering_to_file(self, tmp_path):
        true = tmp_path / "true.txt"
        pred = tmp_path / "pred.txt"
        conf = tmp_path / "conf.txt"
        true.write_text("0\n0\n1\n1\n")
        pred.write_text("1\n0\n1\n1\n")
        conf.write_text("0.1\n0.9\n0.5\n0.7\n")
        out = tmp_path / "metrics.json"
        code = main(
            [
                "evaluate", "--true", str(true), "--pred", str(pred),
                "--drop-fraction", "0.25", "--confidence", str(conf),
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["retained"] == [1, 2, 3]
        assert payload["filtered_metrics"]["accuracy"] == 1.0


class TestExperimentRun:
    def test_writes_report_artifacts(self, tmp_path, toy_csv, capsys):
        cfg = write_config(tmp_path, toy_csv)
        assert main(["experiment", "run", "--config", cfg]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["aggregate"]["n_succeeded"] == 2
        md = (out / "report.md").read_text()
        assert md.startswith("| Method |")
        stdout = capsys.readouterr().out
        assert "average: accuracy" in stdout

    def test_out_flag_overrides(self, tmp_path, toy_csv):
        cfg = write_config(tmp_path, toy_csv)
        other = tmp_path / "elsewhere"
        assert main(["experiment", "run", "--config", cfg, "--out", str(other)]) == 0
        assert (other / "report.json").exists()


class TestReportSweep:
    def test_writes_tsv_and_json(self, tmp_path, toy_csv, capsys):
        cfg = write_config(tmp_path, toy_csv, method="tsmkl")
        assert main(["report", "sweep", "--config", cfg]) == 0
        out = tmp_path / "out"
        tsv = (out / "sweep.tsv").read_text().strip().split("\n")
        assert tsv[0] == "lambda\tk_hinge\tk_accuracy\tdata_accuracy"
        assert len(tsv) == 3  # header + 2 grid points
        sweep = json.loads((out / "sweep.json").read_text())
        assert len(sweep["records"]) == 2
        assert "2 sweep records" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The exit-code table: minimal input files x command -> code and a message
# substring, with no output written by a failing command. Paths are relative
# to the case's own directory. README's exit-code list follows these rows.

EIGHT = "f,label\n0.1,a\n0.9,b\n0.3,a\n1.4,b\n0.2,a\n1.1,b\n0.5,a\n1.6,b\n"
THREE = "f,label\n0,a\n1,b\n2,a\n"  # 4 same-class pairs, 2 others: 4 K-examples
FOUR = "f,label\n0,a\n1,b\n2,a\n3,b\n"  # a stratified 80% keeps one row per class
SIX = "f,label\n0,a\n1,a\n2,a\n5,b\n6,b\n7,b\n"
TWELVE = "f,label\n" + "".join(f"{i},a\n" for i in range(9)) + "9,b\n10,b\n11,b\n"
CONSTANT = "f,g,label\n" + "1,2,a\n1,2,b\n" * 10  # no feature column varies
# the std of column f overflows, so scaling would map the column to +-0
OVERFLOW = "f,g,label\n" + "".join(f"{(-1) ** i}e308,{i},{'ab'[i % 2]}\n" for i in range(20))
LEARN = ["learn", "--data", "data.csv", "--out", "w.json", "--method"]
SVM = ["svm", "train", "--data", "data.csv", "--out", "m.json"]
EVALUATE = ["evaluate", "--true", "t.txt", "--pred", "p.txt", "--out", "e.json"]
RUN_COMMANDS = {"run": ["experiment", "run"], "sweep": ["report", "sweep"]}


def data(text=EIGHT, **extra):
    return {"data.csv": text, **extra}


def run_config(text=EIGHT, **overrides):
    config = {
        "dataset": {"path": "data.csv"},
        "method": "average",
        "splits": {"count": 2},
        "mkl": {"num_steps": 50, "lambda_grid": [1.0, 0.0625]},
        "output_dir": "out",
    }
    config.update(overrides)
    return data(text, **{"config.json": json.dumps(config)})


def weights(mu):
    return data(**{"w.json": json.dumps(mu)})


def labels(true, pred, conf="0.5\n0.7\n"):
    files = {"t.txt": true, "p.txt": pred}
    return files if conf is None else {**files, "c.txt": conf}


INVALID_CONFIG_VALUES = [
    {"mkl": {"num_steps": 0}},
    {"mkl": {"lambda_grid": [0.0625, 1.0]}},
    {"svm": {"c_grid": [-1.0]}},
    {"kernels": {"recipe": "everything"}},
    {"splits": {"count": "2"}},
    {"splits": {"count": 2, "base_seed": -3}},
    {"svm": {"c_grid": [float("nan")]}},
    {"svm": {"c_grid": [float("inf")]}},
    {"svm": {"c_grid": [1.0, float("nan")]}},
    {"mkl": {"lambda_grid": [float("inf"), 1.0]}},
    # a C grid must be strictly ascending, as a lambda grid must be strictly descending
    {"svm": {"c_grid": [10.0, 1.0]}},
    {"svm": {"c_grid": [1.0, 1.0]}},
]

# (id, files, argv, exit code, substring of stdout + stderr)
EXIT_CASES = [
    ("help", {}, ["--help"], 0, "kweave"),
    ("no-command", {}, [], 1, "usage:"),
    ("bare-group", {}, ["svm"], 1, "usage:"),
    ("unknown-command", {}, ["frobnicate"], 1, "invalid choice"),
    ("learn-average-3-rows", data(THREE), LEARN + ["average"], 0, "nonzero weights"),
    ("learn-unknown-method", data(), LEARN + ["boosting"], 1, "invalid choice"),
    ("learn-batch-size-0", data(), LEARN + ["average", "--batch-size", "0"], 1,
     "mkl_batch_size must be >= 1"),
    ("learn-steps-0", data(), LEARN + ["tsmkl", "--steps", "0"], 1, "mkl_num_steps must be >= 1"),
    ("learn-negative-seed", data(), LEARN + ["tsmkl", "--seed", "-1"], 1, "--seed must be >= 0"),
    ("learn-no-feature-csv", data("label\na\nb\na\nb\n"), LEARN + ["average"], 1,
     "feature column"),
    ("learn-no-feature-sparse", data("a\nb\na\n"), LEARN + ["average", "--format", "sparse_svm"],
     1, "feature column"),
    # every kernel of such a dataset's bank would be degenerate
    ("learn-constant-features", data(CONSTANT), LEARN + ["average"], 1,
     "cannot load dataset 'data.csv': no feature column varies (every std <= 1e-12)"),
    ("learn-overflowing-column", data(OVERFLOW), LEARN + ["average"], 1,
     "cannot load dataset 'data.csv': the std of feature column 0 (counting from 0) overflows"),
    # a line's first token is its label, so an entry there would be taken for one
    ("learn-sparse-missing-label", data("1:0.5 2:0.3\n2:0.1 3:0.9\n1:0.2 2:0.4\n"),
     LEARN + ["average", "--format", "sparse_svm"], 1, "data.csv:1: missing label"),
    ("learn-best-kernel-3-rows", data(THREE), LEARN + ["best-kernel"], 1,
     "best_kernel's svm.folds 4 exceeds the 3 train rows"),
    ("learn-tsmkl-3-rows", data(THREE), LEARN + ["tsmkl"], 1,
     "tsmkl needs 5 balanced K-examples to select lambda; 3 train rows give 4"),
    # an output file's directory must exist, checked before the data is read; the last --out wins
    ("learn-out-dir-missing", data(), LEARN + ["average", "--out", "missing/x.json"], 1,
     "cannot write file 'missing/x.json': 'missing' is not a directory"),
    ("svm-one-fold", data(), SVM + ["--folds", "1"], 1, "--folds must be >= 2"),
    ("svm-negative-seed", data(), SVM + ["--seed", "-1"], 1, "--seed must be >= 0"),
    ("svm-folds-over-rows", data(FOUR), SVM + ["--folds", "5"], 1,
     "--folds 5 exceeds the 4 train rows"),
    # 3 rows in 2 folds: one train side is a single row; at seed 0 the other is a, a
    ("svm-no-fold-holds-every-class", data(THREE), SVM + ["--folds", "2"], 1,
     "no fold of --folds 2 holds every class on its train side"),
    # at seed 1 the two-row train side is a, b: the one-row fold is skipped
    ("svm-some-folds-lose-a-class", data(THREE), SVM + ["--folds", "2", "--seed", "1"], 0,
     "trained 2-class model"),
    # the count is known only once the bank is built; combine refuses it, before any fit
    ("svm-weights-length", weights({"mu": [1.0, 2.0]}), SVM + ["--weights", "w.json"], 1,
     "bad weights 'w.json': expected 13 weights (one per kept kernel), got 2"),
    ("svm-weights-negative", weights({"mu": [-1.0] + [1.0] * 12}), SVM + ["--weights", "w.json"],
     1, "bad weights 'w.json': negative kernel weight"),
    ("svm-weights-all-zero", weights({"mu": [0.0] * 13}), SVM + ["--weights", "w.json"], 1,
     "bad weights 'w.json': all-zero kernel weight vector"),
    ("svm-weights-nan", weights({"mu": [float("nan")] + [1.0] * 12}),
     SVM + ["--weights", "w.json"], 1, "bad weights 'w.json': non-finite kernel weight"),
    ("svm-weights-list", weights([1.0] * 13), SVM + ["--weights", "w.json"], 1,
     "bad weights 'w.json': expected a JSON object with a 'mu' list"),
    ("svm-weights-string", weights({"mu": ["1.0"] * 13}), SVM + ["--weights", "w.json"], 1,
     "bad weights 'w.json': 'mu' must hold only numbers"),
    ("svm-weights-bool", weights({"mu": [True] * 13}), SVM + ["--weights", "w.json"], 1,
     "bad weights 'w.json': 'mu' must hold only numbers"),
    ("svm-weights-overflow", weights({"mu": [1e308] * 13}), SVM + ["--weights", "w.json"], 1,
     "bad weights 'w.json': the weighted sum of the Grams overflows"),
    # a JSON integer past the float range is no number a weight can hold
    ("svm-weights-huge-int", weights({"mu": [10**400] * 13}), SVM + ["--weights", "w.json"], 1,
     "bad weights 'w.json': 'mu' must hold only numbers"),
    ("svm-constant-features", data(CONSTANT), SVM, 1,
     "cannot load dataset 'data.csv': no feature column varies (every std <= 1e-12)"),
    ("svm-out-dir-missing", data(), SVM + ["--out", "missing/x.json"], 1,
     "cannot write file 'missing/x.json': 'missing' is not a directory"),
    ("evaluate-out-dir-missing", labels("0\n1\n", "0\n1\n"),
     EVALUATE + ["--out", "missing/x.json"], 1,
     "cannot write file 'missing/x.json': 'missing' is not a directory"),
    ("evaluate-drop-without-confidence", labels("0\n1\n", "0\n1\n"),
     EVALUATE + ["--drop-fraction", "0.5"], 1, "error: --drop-fraction needs --confidence"),
    ("evaluate-confidence-missing", labels("0\n1\n", "0\n1\n", None),
     EVALUATE + ["--drop-fraction", "0.5", "--confidence", "c.txt"], 1,
     "error: cannot read confidence file"),
    # a given confidence file is checked whether or not a drop fraction uses it
    ("evaluate-confidence-missing-without-drop", labels("0\n1\n", "0\n1\n", None),
     EVALUATE + ["--confidence", "c.txt"], 1, "error: cannot read confidence file 'c.txt'"),
    ("evaluate-confidence-malformed", labels("0\n1\n", "0\n1\n", "0.1\nhigh\n"),
     EVALUATE + ["--drop-fraction", "0.5", "--confidence", "c.txt"], 1,
     "error: cannot read confidence file"),
    ("evaluate-classes-too-few", labels("0\n1\n", "0\n1\n"), EVALUATE + ["--classes", "1"], 1,
     "error: label ids must be in [0, 1)"),
    ("evaluate-negative-label", labels("0\n1\n", "0\n-1\n"), EVALUATE, 1,
     "error: label ids must be in [0, 2)"),
    ("evaluate-empty", labels("", ""), EVALUATE, 1, "error: label files are empty"),
    ("evaluate-drop-above-one", labels("0\n1\n", "0\n1\n"),
     EVALUATE + ["--drop-fraction", "1.5", "--confidence", "c.txt"], 1,
     "error: --drop-fraction must be"),
    ("evaluate-drop-negative", labels("0\n1\n", "0\n1\n"),
     EVALUATE + ["--drop-fraction", "-0.1", "--confidence", "c.txt"], 1,
     "error: --drop-fraction must be"),
    ("evaluate-length-mismatch", labels("0\n1\n", "0\n"), EVALUATE, 1,
     "error: true/pred label files differ in length"),
    ("evaluate-label-file-missing", {"t.txt": "0\n1\n"}, EVALUATE, 1,
     "error: cannot read label file 'p.txt'"),
    ("evaluate-label-not-integer", labels("0\n1\n", "0\nb\n"), EVALUATE, 1,
     "error: cannot read label file 'p.txt'"),
    ("evaluate-confidence-length-mismatch", labels("0\n1\n", "0\n1\n", "0.5\n"),
     EVALUATE + ["--drop-fraction", "0.5", "--confidence", "c.txt"], 1,
     "error: confidence file length mismatch"),
    # argsort puts a NaN last, so it would rank as the most confident row
    ("evaluate-confidence-nan", labels("0\n1\n1\n0\n", "0\n1\n1\n1\n", "nan\n0.5\n0.2\n0.1\n"),
     EVALUATE + ["--drop-fraction", "0.5", "--confidence", "c.txt"], 1,
     "error: confidence file 'c.txt' holds a non-finite value"),
    # "" names no file or directory: every --out refuses it before any work; the last --out wins
    *(
        (f"{name}-out-empty", files, argv + ["--out", ""], 1,
         "cannot write to '': the path is empty")
        for name, files, argv in [
            ("learn", data(), LEARN + ["average"]),
            ("svm", data(), SVM),
            ("evaluate", labels("0\n1\n", "0\n1\n"), EVALUATE),
            ("run", run_config(), ["experiment", "run", "--config", "config.json"]),
            ("sweep", run_config(method="tsmkl"), ["report", "sweep", "--config", "config.json"]),
        ]
    ),
    ("run-missing-config", {}, ["experiment", "run", "--config", "config.json"], 1, "bad config"),
    ("run-config-int", {"config.json": "5"}, ["experiment", "run", "--config", "config.json"], 1,
     "bad config 'config.json': a config must be a JSON object, got int"),
    ("run-config-list", {"config.json": "[]"}, ["experiment", "run", "--config", "config.json"],
     1, "bad config 'config.json': a config must be a JSON object, got list"),
    ("run-unknown-config-key", run_config(svm={"C": 3}), ["experiment", "run", "--config",
     "config.json"], 1, "unknown config keys in svm"),
    *(
        (f"run-invalid-config-{i}", run_config(**overrides),
         ["experiment", "run", "--config", "config.json"], 1, "bad config")
        for i, overrides in enumerate(INVALID_CONFIG_VALUES)
    ),
    # a value of the wrong JSON type is refused before any split runs; 1e3 is not rounded
    *(
        (f"run-{case}", run_config(**overrides), ["experiment", "run", "--config", "config.json"],
         1, f"bad config 'config.json': config value {message}")
        for case, overrides, message in [
            ("svm-folds-float", {"svm": {"folds": 2.5}}, "'folds' in svm must be int, got 2.5"),
            ("stratified-string", {"splits": {"stratified": "no"}},
             "'stratified' in splits must be bool, got 'no'"),
            ("dataset-path-int", {"dataset": {"path": 0}}, "'path' in dataset must be str, got 0"),
            ("output-dir-int", {"output_dir": 5}, "'output_dir' in top-level must be str, got 5"),
            # a list holds JSON numbers only: true is not C = 1, nor "10" the number 10
            ("c-grid-bool", {"svm": {"c_grid": [True]}},
             "'c_grid' in svm must be a list of numbers, got [True]"),
            ("lambda-grid-string", {"mkl": {"lambda_grid": ["1", "0.5"]}},
             "'lambda_grid' in mkl must be a list of numbers, got ['1', '0.5']"),
            ("c-grid-string", {"svm": {"c_grid": ["10"]}},
             "'c_grid' in svm must be a list of numbers, got ['10']"),
        ]
    ),
    # lambda * k * B underflows in the float32 step: every lambda, so every split, fails
    ("run-all-splits-fail", run_config(method="tsmkl", mkl={"lambda_grid": [1e-300]}),
     ["experiment", "run", "--config", "config.json"], 2, "runtime failure"),
    # refused before the splits are planned, which would not end
    ("splits-count-huge-int", run_config(splits={"count": 10**400}),
     ["experiment", "run", "--config", "config.json"], 1,
     "bad config 'config.json': config value 'count' in splits must be a number within the "
     "float range"),
    ("run-empty-side", run_config("f,label\n0,a\n1,b\n", splits={"stratified": False}),
     ["experiment", "run", "--config", "config.json"], 1,
     "split 0 (seed 0) of 'data.csv': train_fraction 0.8 yields an empty side for n=2"),
    *(
        (f"{name}-{case}", files, command + ["--config", "config.json"], 1, message)
        for name, command in RUN_COMMANDS.items()
        for case, files, message in [
            ("missing-dataset", run_config(dataset={"path": "no-such.csv"}),
             "cannot load dataset 'no-such.csv'"),
            ("bad-format", run_config(dataset={"path": "data.csv", "format": "arff"}),
             "cannot load dataset 'data.csv': unknown format 'arff'"),
            ("no-feature-column", run_config("label\na\nb\na\nb\n"), "feature column"),
            ("constant-features", run_config(CONSTANT, method="tsmkl"),
             "cannot load dataset 'data.csv': no feature column varies (every std <= 1e-12)"),
            ("overflowing-column", run_config(OVERFLOW, method="tsmkl"),
             "cannot load dataset 'data.csv': the std of feature column 0 (counting from 0) "
             "overflows"),
            # an output directory that exists as a file is refused before the data is read
            ("output-dir-is-a-file", run_config(method="tsmkl", output_dir="data.csv"),
             "cannot make directory 'data.csv': 'data.csv' is not a directory"),
            # "" names no directory: refused before any split runs, not at the end
            ("output-dir-empty", run_config(method="tsmkl", output_dir=""),
             "cannot write to '': the path is empty"),
            # a stratified split cannot divide a class of one row
            ("one-row-class", run_config("f,label\n0,a\n1,a\n2,a\n3,a\n4,b\n", method="tsmkl"),
             "split 0 (seed 0) of 'data.csv': stratified split needs >= 2 members per class"),
            ("num-steps-float", run_config(method="tsmkl", mkl={"num_steps": 1e3}),
             "bad config 'config.json': config value 'num_steps' in mkl must be int | None, "
             "got 1000.0"),
            # a JSON integer past the float range is no number a grid can hold
            ("lambda-grid-huge-int", run_config(method="tsmkl", mkl={"lambda_grid": [10**400]}),
             "bad config 'config.json': config value 'lambda_grid' in mkl must be a list of "
             "numbers"),
            ("c-grid-huge-int", run_config(method="tsmkl", svm={"c_grid": [1.0, 10**400]}),
             "bad config 'config.json': config value 'c_grid' in svm must be a list of numbers"),
            ("svm-folds-over-train-rows", run_config(method="tsmkl", svm={"folds": 500}),
             "split 0 (seed 0) of 'data.csv': svm.folds 500 exceeds the 6 train rows"),
            ("tsmkl-4-rows", run_config(FOUR, method="tsmkl", svm={"folds": 2}),
             "split 0 (seed 0) of 'data.csv': tsmkl needs 5 balanced K-examples to select "
             "lambda; 2 train rows give 2"),
            # 10 train rows of 12 at random: split 0 draws two a rows to test
            ("unstratified-loses-class", run_config(
                TWELVE, method="tsmkl", splits={"count": 10, "stratified": False},
                svm={"folds": 2}),
             "split 0 (seed 0) of 'data.csv': the test side has no rows of class 'b'"),
            # 2 a and 2 b train rows: at seed 1 both CV folds of 2 train on one class
            ("cv-folds-lose-every-class", run_config(
                SIX, method="tsmkl", splits={"count": 1, "base_seed": 1}, svm={"folds": 2}),
             "split 0 (seed 1) of 'data.csv': no fold of svm.folds 2 holds every class on its "
             "train side"),
        ]
    ),
    ("run-best-kernel-folds-lose-every-class", run_config(
        SIX, method="best_kernel", splits={"count": 1, "base_seed": 1}, svm={"folds": 2}),
     ["experiment", "run", "--config", "config.json"], 1,
     "split 0 (seed 1) of 'data.csv': no fold of best_kernel's svm.folds 2 holds every class "
     "on its train side"),
    # the sweep fits every lambda of one split; with none fitted it writes nothing
    ("sweep-all-lambdas-fail", run_config(method="tsmkl", mkl={"lambda_grid": [1e-300]}),
     ["report", "sweep", "--config", "config.json"], 2,
     "runtime failure: MklError: every lambda in the grid failed"),
    # only tsmkl has a lambda grid to sweep
    ("sweep-non-tsmkl-method", run_config(), ["report", "sweep", "--config", "config.json"], 1,
     "the lambda sweep runs tsmkl; the config's method is 'average'"),
]


@pytest.mark.parametrize(
    "files, argv, code, message", [c[1:] for c in EXIT_CASES], ids=[c[0] for c in EXIT_CASES]
)
def test_exit_code(tmp_path, monkeypatch, capsys, files, argv, code, message):
    monkeypatch.chdir(tmp_path)

    def in_process(argv):
        got = main(argv)
        captured = capsys.readouterr()
        return got, captured.out + captured.err

    check_exit_row(tmp_path, files, argv, code, message, in_process)


def check_exit_row(directory, files, argv, code, message, run):
    """Check one EXIT_CASES row in an empty directory: write its files there,
    call run(argv), which runs the command in that directory and returns
    (exit code, stdout + stderr), and check the code, the message, that
    nothing is written but a successful command's --out, and that every
    input file is byte-unchanged. test_exit_code runs main in-process; CI
    runs every row through the installed kweave script."""
    for name, text in files.items():
        (directory / name).write_text(text)
    inputs = {name: (directory / name).read_bytes() for name in files}
    got, output = run(argv)
    assert got == code and message in output, (got, output)
    written = {p.name for p in directory.iterdir()} - set(files)
    assert written == ({argv[argv.index("--out") + 1]} if code == 0 and "--out" in argv else set())
    assert {name: (directory / name).read_bytes() for name in files} == inputs


@pytest.mark.parametrize("case", ["negative", "all-zero", "nan", "list", "huge-int"])
def test_weights_are_checked_before_the_bank(tmp_path, monkeypatch, capsys, case):
    files, argv, code, message = next(c[1:] for c in EXIT_CASES if c[0] == f"svm-weights-{case}")

    def no_bank(*args):
        raise AssertionError("the bank was built")

    monkeypatch.setattr(experiment, "prepare_train", no_bank)
    test_exit_code(tmp_path, monkeypatch, capsys, files, argv, code, message)


def test_weight_count_is_refused_before_any_fit(tmp_path, monkeypatch, capsys):
    files, argv, code, message = next(c[1:] for c in EXIT_CASES if c[0] == "svm-weights-length")
    monkeypatch.setattr(svm, "fit", lambda *args: pytest.fail("an SVM was fitted"))
    test_exit_code(tmp_path, monkeypatch, capsys, files, argv, code, message)


@pytest.mark.parametrize("row", [f"{name}-out-empty" for name in
                                 ("learn", "svm", "evaluate", "run", "sweep")])
def test_empty_out_is_refused_before_any_work(tmp_path, monkeypatch, capsys, row):
    files, argv, code, message = next(c[1:] for c in EXIT_CASES if c[0] == row)
    for name in ("_load_data", "_read_label_file"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("an input was read"))
    test_exit_code(tmp_path, monkeypatch, capsys, files, argv, code, message)


@pytest.mark.parametrize("row", ["run-cv-folds-lose-every-class",
                                 "sweep-cv-folds-lose-every-class",
                                 "run-best-kernel-folds-lose-every-class"])
def test_cv_folds_are_checked_before_the_bank(tmp_path, monkeypatch, capsys, row):
    # pytest.fail is no Exception, so neither the split isolation nor main can absorb it
    files, argv, code, message = next(c[1:] for c in EXIT_CASES if c[0] == row)
    monkeypatch.setattr(experiment, "prepare_train", lambda *args: pytest.fail("bank built"))
    test_exit_code(tmp_path, monkeypatch, capsys, files, argv, code, message)
