"""Command-line interface: subcommands, artifacts, and exit codes."""

import json
import os

import numpy as np
import pytest

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

    def test_bad_batch_size_is_config_error(self, tmp_path, toy_csv):
        code = main(
            [
                "learn", "--data", toy_csv, "--method", "average",
                "--out", str(tmp_path / "w.json"), "--batch-size", "0",
            ]
        )
        assert code == 1

    def test_zero_steps_is_config_error(self, tmp_path, toy_csv):
        code = main(
            [
                "learn", "--data", toy_csv, "--method", "tsmkl",
                "--out", str(tmp_path / "w.json"), "--steps", "0",
            ]
        )
        assert code == 1

    def test_negative_seed_is_config_error(self, tmp_path, toy_csv, capsys):
        out = tmp_path / "w.json"
        code = main(
            [
                "learn", "--data", toy_csv, "--method", "tsmkl", "--steps", "20",
                "--out", str(out), "--seed", "-1",
            ]
        )
        assert code == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fmt, text",
        [("csv", "label\na\nb\na\n"), ("sparse_svm", "a\nb\na\n")],
        ids=["csv", "sparse_svm"],
    )
    def test_no_feature_column_is_config_error(self, tmp_path, capsys, fmt, text):
        data = tmp_path / "bare.txt"
        data.write_text(text)
        out = tmp_path / "w.json"
        code = main(["learn", "--data", str(data), "--format", fmt, "--method", "average",
                     "--out", str(out)])
        assert code == 1
        assert "feature column" in capsys.readouterr().err
        assert not out.exists()

    def test_best_kernel_with_fewer_rows_than_folds_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "three.csv"
        data.write_text("f,label\n0.0,a\n1.0,b\n2.0,a\n")
        out = tmp_path / "w.json"
        code = main(["learn", "--data", str(data), "--method", "best-kernel", "--out", str(out)])
        assert code == 1
        assert "4-fold CV exceeds the 3 rows" in capsys.readouterr().err
        assert not out.exists()

    def test_tsmkl_with_too_few_kexamples_is_config_error(self, tmp_path, capsys):
        # 3 rows (a, b, a): 4 same-class pairs and 2 others balance to 4 K-examples
        data = tmp_path / "three.csv"
        data.write_text("f,label\n1,a\n2,b\n3,a\n")
        out = tmp_path / "w.json"
        code = main(["learn", "--data", str(data), "--method", "tsmkl", "--out", str(out)])
        assert code == 1
        assert "needs 5 balanced K-examples" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_rejected_by_parser(self, tmp_path, toy_csv):
        code = main(
            ["learn", "--data", toy_csv, "--method", "boosting", "--out", "w.json"]
        )
        assert code == 1


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

    def test_weight_length_mismatch(self, tmp_path, toy_csv):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"mu": [1.0, 2.0]}))
        code = main(
            [
                "svm", "train", "--data", toy_csv,
                "--weights", str(weights), "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "case", ["negative", "all_zero", "nan", "top_level_list"]
    )
    def test_invalid_weights_are_config_errors(self, tmp_path, toy_csv, capsys, case):
        weights = tmp_path / "w.json"
        assert main(["learn", "--data", toy_csv, "--method", "average", "--out", str(weights)]) == 0
        mu = json.loads(weights.read_text())["mu"]
        if case == "negative":
            mu[0] = -1.0
        elif case == "all_zero":
            mu = [0.0] * len(mu)
        elif case == "nan":
            mu[0] = float("nan")
        payload = mu if case == "top_level_list" else {"mu": mu}
        weights.write_text(json.dumps(payload))  # NaN is written as the NaN literal
        model = tmp_path / "m.json"
        code = main(
            ["svm", "train", "--data", toy_csv, "--weights", str(weights), "--out", str(model)]
        )
        assert code == 1
        assert "bad weights" in capsys.readouterr().err
        assert not model.exists()

    def test_negative_seed_is_config_error(self, tmp_path, toy_csv, capsys):
        model = tmp_path / "m.json"
        code = main(["svm", "train", "--data", toy_csv, "--seed", "-1", "--out", str(model)])
        assert code == 1
        assert "--seed" in capsys.readouterr().err
        assert not model.exists()

    def test_one_fold_is_config_error(self, tmp_path, toy_csv, capsys):
        model = tmp_path / "m.json"
        code = main(["svm", "train", "--data", toy_csv, "--folds", "1", "--out", str(model)])
        assert code == 1
        assert "--folds" in capsys.readouterr().err
        assert not model.exists()

    def test_more_folds_than_rows_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "four.csv"
        data.write_text("f,label\n0.0,a\n1.0,b\n2.0,a\n3.0,b\n")
        model = tmp_path / "m.json"
        code = main(["svm", "train", "--data", str(data), "--folds", "5", "--out", str(model)])
        assert code == 1
        assert "--folds" in capsys.readouterr().err
        assert not model.exists()


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

    def test_drop_needs_confidence(self, tmp_path, capsys):
        true = tmp_path / "t.txt"
        true.write_text("0\n1\n")
        code = main(
            ["evaluate", "--true", str(true), "--pred", str(true), "--drop-fraction", "0.5"]
        )
        assert code == 1
        assert "confidence" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "0.1\nhigh\n"], ids=["missing", "malformed"])
    def test_bad_confidence_file_is_usage_error(self, tmp_path, capsys, content):
        true = tmp_path / "t.txt"
        true.write_text("0\n1\n")
        conf = tmp_path / "conf.txt"
        if content is not None:
            conf.write_text(content)
        code = main(
            [
                "evaluate", "--true", str(true), "--pred", str(true),
                "--drop-fraction", "0.5", "--confidence", str(conf),
            ]
        )
        assert code == 1
        assert "confidence file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "true, pred, extra",
        [
            ("0\n1\n", "0\n1\n", ["--classes", "1"]),
            ("0\n1\n", "0\n-1\n", []),
            ("", "", []),
            ("0\n1\n", "0\n1\n", ["--drop-fraction", "1.5"]),
            ("0\n1\n", "0\n1\n", ["--drop-fraction", "-0.1"]),
        ],
        ids=["classes_too_few", "negative_label", "empty", "drop_above_one", "drop_negative"],
    )
    def test_bad_input_is_config_error(self, tmp_path, capsys, true, pred, extra):
        t, p, conf = tmp_path / "t.txt", tmp_path / "p.txt", tmp_path / "conf.txt"
        t.write_text(true)
        p.write_text(pred)
        conf.write_text("0.5\n0.7\n")
        args = ["evaluate", "--true", str(t), "--pred", str(p), "--confidence", str(conf)]
        assert main(args + extra) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_length_mismatch(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0\n1\n")
        b.write_text("0\n")
        assert main(["evaluate", "--true", str(a), "--pred", str(b)]) == 1


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

    def test_missing_config(self, capsys):
        assert main(["experiment", "run", "--config", "missing.json"]) == 1
        assert "bad config" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, toy_csv):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": {"path": toy_csv}, "svm": {"C": 3}}))
        assert main(["experiment", "run", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
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
        ],
    )
    def test_invalid_config_value_exits_one(self, tmp_path, toy_csv, capsys, overrides):
        cfg = write_config(tmp_path, toy_csv, **overrides)
        assert main(["experiment", "run", "--config", cfg]) == 1
        assert "bad config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["experiment", "run"], ["report", "sweep"]])
    @pytest.mark.parametrize(
        "dataset", [{"path": "missing.csv"}, {"format": "arff"}], ids=["missing", "bad_format"]
    )
    def test_bad_dataset_exits_one(self, tmp_path, toy_csv, capsys, command, dataset):
        cfg = write_config(tmp_path, toy_csv, method="tsmkl", dataset={"path": toy_csv, **dataset})
        assert main(command + ["--config", cfg]) == 1
        assert "cannot load dataset" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["experiment", "run"], ["report", "sweep"]])
    def test_label_only_dataset_exits_one(self, tmp_path, toy_csv, capsys, command):
        data = tmp_path / "labels.csv"
        data.write_text("label\na\nb\na\nb\n")
        cfg = write_config(tmp_path, toy_csv, dataset={"path": str(data)})
        assert main(command + ["--config", cfg]) == 1
        assert "feature column" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["experiment", "run"], ["report", "sweep"]])
    def test_one_row_class_exits_one(self, tmp_path, toy_csv, capsys, command):
        # a stratified split cannot divide a class of one row
        data = tmp_path / "one-b.csv"
        data.write_text("f,label\n0.0,a\n1.0,a\n2.0,a\n3.0,a\n4.0,b\n")
        cfg = write_config(tmp_path, toy_csv, dataset={"path": str(data)})
        assert main(command + ["--config", cfg]) == 1
        assert "needs >= 2 members per class" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure_exits_two(self, tmp_path, toy_csv, capsys):
        # structurally valid config that must fail at run time: lambda * k * B
        # underflows in the float32 step, so every lambda diverges at step 1
        # and every split errors out
        cfg = write_config(
            tmp_path, toy_csv, method="tsmkl", mkl={"num_steps": 150, "lambda_grid": [1e-300]}
        )
        assert main(["experiment", "run", "--config", cfg]) == 2
        assert "runtime failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["experiment", "run"], ["report", "sweep"]])
    def test_more_folds_than_train_rows_exits_one(self, tmp_path, toy_csv, capsys, command):
        cfg = write_config(tmp_path, toy_csv, method="tsmkl", svm={"folds": 500})
        assert main(command + ["--config", cfg]) == 1
        assert "svm.folds 500 exceeds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().out

    def test_bare_group_prints_help(self, capsys):
        assert main(["svm"]) == 1
        assert "usage:" in capsys.readouterr().out

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "kweave" in capsys.readouterr().out
