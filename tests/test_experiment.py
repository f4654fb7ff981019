"""Multi-split experiment protocol: config handling, per-split isolation,
aggregation, determinism, and report rendering."""

import dataclasses
import json
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kweave.experiment as experiment
import kweave.metrics as metrics
import kweave.mkl as mkl
import kweave.svm as svm
from kweave.data import Dataset, holdout_split, kfold_plan, load_dataset
from kweave.experiment import (
    ExperimentConfig,
    ExperimentReport,
    _mkl_steps,
    aggregate_records,
    learn_weights,
    prepare_train,
    render_markdown_table,
    render_sweep_tsv,
    run_experiment,
    run_lambda_sweep,
    strip_timing_fields,
)
from kweave.kernels import center_standardize_apply, combine_cross
from kweave.kspace import plan_rows

from conftest import cross_gram, force_nonconvergence, make_blobs


def write_toy_csv(path, n_per_class=16, d=3, gap=4.0, seed=0):
    data = make_blobs(n_per_class=n_per_class, d=d, gap=gap, seed=seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"f{j}" for j in range(d)) + ",label\n")
        for row, lab in zip(data.instances, data.labels):
            fh.write(",".join(f"{v:.9g}" for v in row) + f",c{lab}\n")
    return str(path)


@pytest.fixture
def toy_csv(tmp_path):
    return write_toy_csv(tmp_path / "toy.csv")


def fast_config(toy_csv, **overrides):
    kwargs = dict(
        dataset_path=toy_csv,
        method="average",
        n_splits=2,
        mkl_num_steps=150,
        lambda_grid=[1.0, 0.0625],
        output_dir="unused",
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestConfig:
    def test_round_trip(self, toy_csv):
        cfg = fast_config(toy_csv, method="tsmkl", drop_fraction=0.1)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    # every field at a valid value other than its default, and the JSON text
    # to_dict gives it and the defaults: this pins the nesting and the key order
    FULL = dict(
        dataset_path="data/protein.svm", dataset_format="sparse_svm",
        kernel_recipe="uci_full_plus_per_feature", method="best_kernel", n_splits=3,
        train_fraction=0.75, base_seed=5, stratified=False, mkl_num_steps=50,
        mkl_batch_size=20, lambda_grid=[1.0, 0.0625], c_grid=[0.1, 1.0, 10.0], svm_folds=3,
        drop_fraction=0.1, output_dir="runs/protein",
    )
    FULL_JSON = (
        '{"dataset": {"path": "data/protein.svm", "format": "sparse_svm"}, '
        '"kernels": {"recipe": "uci_full_plus_per_feature"}, "method": "best_kernel", '
        '"splits": {"count": 3, "train_fraction": 0.75, "base_seed": 5, "stratified": false}, '
        '"mkl": {"num_steps": 50, "batch_size": 20, "lambda_grid": [1.0, 0.0625]}, '
        '"svm": {"c_grid": [0.1, 1.0, 10.0], "folds": 3}, "metrics": {"drop_fraction": 0.1}, '
        '"output_dir": "runs/protein"}'
    )
    DEFAULT_JSON = (
        '{"dataset": {"path": "d.csv", "format": "csv"}, "kernels": {"recipe": "uci_full"}, '
        '"method": "tsmkl", '
        '"splits": {"count": 10, "train_fraction": 0.8, "base_seed": 0, "stratified": true}, '
        '"mkl": {"num_steps": null, "batch_size": 100, "lambda_grid": null}, '
        '"svm": {"c_grid": [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0], "folds": 4}, '
        '"metrics": {"drop_fraction": 0.0}, "output_dir": "out"}'
    )

    def test_json_layout_is_pinned(self):
        cfg, defaults = ExperimentConfig(**self.FULL), ExperimentConfig(dataset_path="d.csv")
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(cfg, f.name) != getattr(defaults, f.name), f.name
        assert json.dumps(cfg.to_dict()) == self.FULL_JSON
        assert ExperimentConfig.from_dict(json.loads(self.FULL_JSON)) == cfg
        assert json.dumps(defaults.to_dict()) == self.DEFAULT_JSON
        assert ExperimentConfig.from_dict(json.loads(self.DEFAULT_JSON)) == defaults

    def test_to_dict_copies_the_grids(self):
        cfg = ExperimentConfig(**self.FULL)
        out = cfg.to_dict()
        out["mkl"]["lambda_grid"].append(0.5)
        out["svm"]["c_grid"].append(100.0)
        assert cfg == ExperimentConfig(**self.FULL)

    def test_readme_lists_every_config_key_with_its_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        block = readme.split("Every config key", 1)[1].split("\n\n")[1]
        listed = re.findall(r"^- `([a-z_.]+)`: (required|`[^`]*`)", block, re.M)
        places = [f.metadata["json"] for f in dataclasses.fields(ExperimentConfig)]
        assert [key for key, _ in listed] == [f"{s}.{k}" if s else k for s, k in places]
        defaults = ExperimentConfig(dataset_path="d.csv").to_dict()
        for (key, default), (section, name) in zip(listed, places):
            if key == "dataset.path":
                assert default == "required"
            else:
                value = defaults[section][name] if section else defaults[name]
                assert json.loads(default.strip("`")) == value, key

    def test_defaults_from_minimal_dict(self):
        cfg = ExperimentConfig.from_dict({"dataset": {"path": "d.csv"}})
        assert cfg.method == "tsmkl"
        assert cfg.n_splits == 10
        assert cfg.train_fraction == 0.8
        assert cfg.svm_folds == 4
        assert cfg.kernel_recipe == "uci_full"

    def test_missing_path(self):
        with pytest.raises(ValueError, match="dataset.path"):
            ExperimentConfig.from_dict({})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys in dataset"):
            ExperimentConfig.from_dict({"dataset": {"path": "d.csv", "bogus": 1}})
        with pytest.raises(ValueError, match="unknown config keys in top-level"):
            ExperimentConfig.from_dict({"dataset": {"path": "d.csv"}, "exp": {}})

    def test_section_must_be_object(self):
        with pytest.raises(ValueError, match="must be an object"):
            ExperimentConfig.from_dict({"dataset": {"path": "d.csv"}, "mkl": 5})

    def test_field_validation(self):
        base = dict(dataset_path="d.csv")
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig(method="boosting", **base)
        with pytest.raises(ValueError, match="n_splits"):
            ExperimentConfig(n_splits=0, **base)
        with pytest.raises(ValueError, match="train_fraction"):
            ExperimentConfig(train_fraction=1.0, **base)
        with pytest.raises(ValueError, match="base_seed"):
            ExperimentConfig(base_seed=-3, **base)
        with pytest.raises(ValueError, match="drop_fraction"):
            ExperimentConfig(drop_fraction=1.0, **base)
        with pytest.raises(ValueError, match="svm_folds"):
            ExperimentConfig(svm_folds=1, **base)
        with pytest.raises(ValueError, match="batch_size"):
            ExperimentConfig(mkl_batch_size=0, **base)
        with pytest.raises(ValueError, match="empty C grid"):
            ExperimentConfig(c_grid=[], **base)
        for bad in ([-1.0], [float("nan")], [float("inf")], [1.0, float("nan")]):
            with pytest.raises(ValueError, match="C grid entries must be positive and finite"):
                ExperimentConfig(c_grid=bad, **base)
        for bad in ([float("inf"), 1.0], [1.0, float("nan")]):
            with pytest.raises(ValueError, match="lambda grid entries must be positive and finite"):
                ExperimentConfig(lambda_grid=bad, **base)
        with pytest.raises(ValueError, match="mkl_num_steps"):
            ExperimentConfig(mkl_num_steps=0, **base)
        with pytest.raises(ValueError, match="descending"):
            ExperimentConfig(lambda_grid=[0.1, 1.0], **base)
        for bad in ([10.0, 1.0], [1.0, 1.0], [0.1, 10.0, 1.0]):
            with pytest.raises(ValueError, match="C grid must be strictly ascending"):
                ExperimentConfig(c_grid=bad, **base)
        with pytest.raises(ValueError, match="recipe"):
            ExperimentConfig(kernel_recipe="everything", **base)

    def test_step_preset(self, toy_csv):
        auto = fast_config(toy_csv, mkl_num_steps=None)
        assert _mkl_steps(auto, 999) == 1000
        assert _mkl_steps(auto, 1000) == 100000
        assert _mkl_steps(fast_config(toy_csv, mkl_num_steps=42), 5000) == 42


def prepared_bank(toy_csv, seed=0):
    """The toy data and its centered bank, in stage one's row order for seed."""
    data = load_dataset(toy_csv)
    _, bank, _ = prepare_train(data, "uci_full", seed)
    return data, bank


class TestLearnWeights:
    def test_average_is_uniform(self, toy_csv):
        data = load_dataset(toy_csv)
        scaler, bank, _ = prepare_train(data, "uci_full")
        np.testing.assert_array_equal(bank.features, scaler.apply(data.instances))
        mu, details = learn_weights(bank, data.labels, fast_config(toy_csv), seed=0)
        np.testing.assert_array_equal(mu, np.full(bank.p, 1.0 / bank.p))
        assert details == {}

    def test_tsmkl_details(self, toy_csv):
        data, bank = prepared_bank(toy_csv, seed=3)
        cfg = fast_config(toy_csv, method="tsmkl")
        mu, details = learn_weights(bank, data.labels, cfg, seed=3)
        assert np.all(mu >= 0.0)
        assert details["chosen_lambda"] in cfg.lambda_grid
        assert details["num_steps"] == 150
        assert details["n_kexamples"] % 2 == 0  # balanced set
        assert len(details["lambda_records"]) == len(cfg.lambda_grid)
        for r in details["lambda_records"]:
            assert r["lambda"] in cfg.lambda_grid and isinstance(r["val_hinge"], float)
            assert r["steps"] == 150 and isinstance(r["steps"], int)
            assert isinstance(r["collapsed"], bool)
            assert isinstance(r["final_train_hinge"], float) and r["final_train_hinge"] >= 0.0
            assert isinstance(r["objective"], float) and r["objective"] >= r["final_train_hinge"]

    def test_tsmkl_counts_lambdas_worse_than_zero(self, toy_csv, caplog):
        data, bank = prepared_bank(toy_csv, seed=3)
        cfg = fast_config(toy_csv, method="tsmkl", lambda_grid=[1.0, 0.0625, 1e-8])
        with caplog.at_level("INFO", logger="kweave.experiment"):
            _, details = learn_weights(bank, data.labels, cfg, seed=3)
        objectives = [r["objective"] for r in details["lambda_records"]]
        # 150 steps cannot shrink the first step's mu ~ 1/lam back to a
        # useful size at lam = 1e-8: its objective is far above F(0) = 1
        assert objectives[-1] > 1.0
        assert details["lambdas_worse_than_zero"] == sum(f > 1.0 for f in objectives)
        want = f"{details['lambdas_worse_than_zero']} of 3 lambdas"
        assert any(want in r.getMessage() for r in caplog.records)

    def test_best_kernel_details(self, toy_csv):
        data, bank = prepared_bank(toy_csv)
        cfg = fast_config(toy_csv, method="best_kernel")
        folds = experiment.check_method("best_kernel", data.labels, cfg.svm_folds, 1)
        mu, details = learn_weights(bank, data.labels, cfg, 1, folds)
        idx = details["chosen_kernel"]
        assert mu[idx] == 1.0
        assert np.count_nonzero(mu) == 1
        assert details["kernel_label"] == bank.specs[idx].label()


def two_class(X):
    """X as a dataset whose rows alternate between two classes."""
    return Dataset(X, np.arange(len(X)) % 2, ("a", "b"))


class TestCrossStage:
    """The test side sums the centered cross blocks one at a time."""

    @staticmethod
    def per_feature_split(n_train=80, n_test=50, d=10):
        rng = np.random.default_rng(4)
        scaler, bank, dropped = prepare_train(
            two_class(rng.normal(0, 1, (n_train, d))), "uci_full_plus_per_feature"
        )
        assert bank.p == 13 * d + 13 and not dropped
        return scaler, bank, rng.normal(0, 1, (n_test, d))

    @pytest.mark.parametrize(
        "recipe,constant_column",
        [("uci_full", None), ("uci_full_plus_per_feature", None), ("uci_full_plus_per_feature", 1)],
    )
    def test_shared_products_equal_per_kernel_blocks(self, recipe, constant_column):
        # each feature scope's products are shared by its kernels; every block
        # is still the per-kernel evaluation and centering, bit for bit
        rng = np.random.default_rng(6)
        X, X_test = rng.normal(0, 1, (25, 3)), rng.normal(0, 1, (8, 3))
        if constant_column is not None:
            X[:, constant_column] = 2.0
        scaler, bank, dropped = prepare_train(two_class(X), recipe)
        assert bool(dropped) == (constant_column is not None)
        Xt, Xs = scaler.apply(X_test), scaler.apply(X)
        blocks = combine_cross(bank, np.eye(bank.p), Xt)  # a one-hot row is its block
        assert blocks.shape == (bank.p, 8, 25)
        for spec, stats, block in zip(bank.specs, bank.stats, blocks):
            expected = center_standardize_apply(cross_gram(spec, Xt, Xs), stats)
            np.testing.assert_array_equal(block, expected, err_msg=spec.label())

    def test_peak_memory_is_a_few_blocks(self):
        scaler, bank, Xt = self.per_feature_split()
        mu = np.full(bank.p, 1.0 / bank.p)
        tracemalloc.start()
        try:
            cross = combine_cross(bank, mu, scaler.apply(Xt))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Evaluating and centering one Gaussian block makes about four block
        # temporaries. Holding every block (p * 32 KB = 4.6 MB here) is far
        # over this bound.
        assert peak < cross.nbytes + 8 * cross.nbytes


class TestRunExperiment:
    def test_average_toy_run(self, toy_csv):
        cfg = fast_config(toy_csv)
        report = run_experiment(cfg)
        assert len(report.per_split) == 2
        p = None
        for rec in report.per_split:
            assert "error" not in rec
            p = len(rec["mu"])
            np.testing.assert_allclose(rec["mu"], np.full(p, 1.0 / p))
            assert set(rec["timings"]) == {
                "split", "kernel_learning", "kernel_build", "svm", "evaluation", "peak_rss_mb",
            }
            assert rec["timings"]["peak_rss_mb"] > 0
            assert rec["chosen_C"] in cfg.c_grid
            assert [r["C"] for r in rec["cv_records"]] == cfg.c_grid
            steps = [r["smo_iterations"] for r in rec["cv_records"]]
            assert all(isinstance(k, int) and k >= 0 for k in steps) and steps[0] > 0
            assert 0.0 <= rec["metrics"]["accuracy"] <= 1.0
        assert report.aggregate["n_succeeded"] == 2
        assert set(report.artifact_hashes) == {"dataset_sha256", "config_sha256"}

    def test_report_records_lambdas_and_final_fit(self, toy_csv):
        cfg = fast_config(toy_csv, method="tsmkl")
        report = json.loads(json.dumps(run_experiment(cfg).to_dict()))
        assert len(report["per_split"]) == 2
        for rec in report["per_split"]:
            assert [r["lambda"] for r in rec["lambda_records"]] == cfg.lambda_grid
            assert all(r["steps"] == 150 for r in rec["lambda_records"])
            assert [f["class"] for f in rec["final_fit"]] == [0, 1]
            first, second = rec["final_fit"]
            assert isinstance(first["iterations"], int) and first["iterations"] > 0
            assert first["converged"] is True
            # class 1 starts from class 0's duals, which already solve it
            assert second["iterations"] == 0 and second["converged"] is True
            for f in rec["final_fit"]:
                assert isinstance(f["kkt_gap"], float) and f["kkt_gap"] <= 1e-3

    def test_aggregate_recomputes(self, toy_csv):
        report = run_experiment(fast_config(toy_csv, n_splits=3))
        accs = [r["metrics"]["accuracy"] for r in report.per_split]
        agg = report.aggregate["accuracy"]
        assert abs(agg["mean"] - np.mean(accs)) <= 1e-12
        assert abs(agg["std"] - np.std(accs, ddof=1)) <= 1e-12

    def test_single_split_std_zero(self, toy_csv):
        report = run_experiment(fast_config(toy_csv, n_splits=1))
        assert report.aggregate["accuracy"]["std"] == 0.0
        assert "(0.00)" in render_markdown_table(report)

    def test_deterministic_modulo_timings(self, toy_csv):
        cfg = fast_config(toy_csv, method="tsmkl", n_splits=2)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        sa = json.dumps(strip_timing_fields(a.to_dict()), sort_keys=True)
        sb = json.dumps(strip_timing_fields(b.to_dict()), sort_keys=True)
        assert sa == sb

    def test_no_test_leakage(self, toy_csv):
        # the recorded weights must be reproducible from the train rows alone
        cfg = fast_config(toy_csv, method="tsmkl", n_splits=1, base_seed=5)
        report = run_experiment(cfg)
        rec = report.per_split[0]
        data = load_dataset(toy_csv)
        plan = holdout_split(data, cfg.train_fraction, rec["seed"], cfg.stratified)
        train = data.subset(plan.train_indices)
        _, bank, _ = prepare_train(train, cfg.kernel_recipe, rec["seed"])
        mu, _ = learn_weights(bank, train.labels, cfg, rec["seed"])
        assert rec["mu"] == [float(v) for v in mu]

    def test_row_order_leaves_the_other_methods_unchanged(self, toy_csv, monkeypatch):
        # combine and gram(l) scatter by the recorded pairs, so average's and
        # best_kernel's records are exact in any row order; target alignment's
        # (M, a) sums run in row order, so only its mu moves, by rounding
        data = load_dataset(toy_csv)

        def records(identity):
            out = {}
            with monkeypatch.context() as m:
                if identity:
                    m.setattr(experiment, "plan_rows",
                              lambda y, *seeds: (np.triu_indices(len(y)), None))
                for method in ("average", "best_kernel", "target_align"):
                    cfg = fast_config(toy_csv, method=method, n_splits=1)
                    (plan,) = experiment.plan_splits(data, cfg, 1)
                    rec = experiment._run_split(data, cfg, 0, plan)
                    assert "error" not in rec
                    out[method] = strip_timing_fields(rec)
            return out

        natural, planned = records(identity=True), records(identity=False)
        assert planned["average"] == natural["average"]
        assert planned["best_kernel"] == natural["best_kernel"]
        a, b = natural["target_align"], planned["target_align"]
        np.testing.assert_allclose(b["mu"], a["mu"], rtol=0.0, atol=1e-11)
        assert b["chosen_C"] == a["chosen_C"]
        assert [r["cv_accuracy"] for r in b["cv_records"]] == [
            r["cv_accuracy"] for r in a["cv_records"]
        ]
        assert b["metrics"] == a["metrics"]

    def test_failed_split_isolated(self, toy_csv, monkeypatch):
        # one function per stage, each called once per split; failing its
        # first call must fail split 0 only, at that stage
        targets = {
            "split": (experiment, "_holdout"),
            "kernel_learning": (experiment, "learn_weights"),
            "kernel_build": (experiment, "combine_cross"),
            "svm": (svm, "fit"),
            "evaluation": (metrics, "evaluate"),
        }
        cfg = fast_config(toy_csv, n_splits=3)
        stages = list(targets)
        for stage, (holder, name) in targets.items():
            real = getattr(holder, name)
            calls = []

            def flaky(*args, real=real, calls=calls):
                calls.append(args)
                if len(calls) == 1:
                    raise RuntimeError("synthetic failure")
                return real(*args)

            with monkeypatch.context() as mp:
                mp.setattr(holder, name, flaky)
                report = run_experiment(cfg)
            first = report.per_split[0]
            assert first["error"] == "RuntimeError: synthetic failure"
            assert first["stage"] == stage
            assert list(first["timings"]) == stages[: stages.index(stage) + 1] + ["peak_rss_mb"]
            assert len(calls) == 3
            assert all("error" not in r and "stage" not in r for r in report.per_split[1:])
            assert report.aggregate["n_succeeded"] == 2
            assert report.aggregate["n_splits"] == 3

    def test_all_zero_weights_fail_at_kernel_build(self, toy_csv, monkeypatch):
        # the test-side combination is the first use of mu, so it is what rejects it
        def zero_weights(bank, y, config, seed, folds):
            return np.zeros(bank.p), {}

        monkeypatch.setattr(experiment, "learn_weights", zero_weights)
        cfg = fast_config(toy_csv, n_splits=1)
        data = load_dataset(toy_csv)
        (plan,) = experiment.plan_splits(data, cfg, 1)
        rec = experiment._run_split(data, cfg, 0, plan)
        assert rec["error"] == "KernelError: all-zero kernel weight vector"
        assert rec["stage"] == "kernel_build"
        assert list(rec["timings"]) == ["split", "kernel_learning", "kernel_build", "peak_rss_mb"]

    def test_failed_stage_keeps_its_wall_time(self, toy_csv, monkeypatch):
        def slow_failure(*args):
            time.sleep(0.05)
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(svm, "fit", slow_failure)
        data, cfg = load_dataset(toy_csv), fast_config(toy_csv, n_splits=1)
        (plan,) = experiment.plan_splits(data, cfg, 1)
        rec = experiment._run_split(data, cfg, 0, plan)
        assert rec["stage"] == "svm"
        assert list(rec["timings"]) == [
            "split", "kernel_learning", "kernel_build", "svm", "peak_rss_mb",
        ]
        assert rec["timings"]["svm"] >= 0.05

    def test_capped_final_fit_is_reported(self, toy_csv, monkeypatch):
        force_nonconvergence(monkeypatch)
        rec = run_experiment(fast_config(toy_csv, n_splits=1)).per_split[0]
        assert [f["converged"] for f in rec["final_fit"]] == [False, False]
        assert "svm_jitter_retry" not in rec

    def test_all_splits_failing_raises(self, toy_csv, monkeypatch):
        def broken(bank, y, config, seed, folds):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(experiment, "learn_weights", broken)
        with pytest.raises(RuntimeError, match="no split succeeded"):
            run_experiment(fast_config(toy_csv))

    def test_drop_fraction_adds_filtered_metrics(self, toy_csv):
        report = run_experiment(fast_config(toy_csv, drop_fraction=0.2))
        for rec in report.per_split:
            assert rec["filtered_metrics"]["retained_fraction"] == pytest.approx(0.8, abs=0.1)
        assert "filtered_accuracy" in report.aggregate


class TestPlanSplits:
    """Every split is drawn and checked once, before any split runs."""

    @staticmethod
    def twelve_rows():
        # 9 a and 3 b: 10 random train rows leave 2 test rows, often both a
        return Dataset(np.arange(12.0)[:, None], [0] * 9 + [1] * 3, ("a", "b"))

    def test_a_late_failing_split_stops_the_run_before_any_work(self, monkeypatch):
        # seed 4 holds out one row of each class, seed 5 two a rows
        calls = []
        monkeypatch.setattr(experiment, "prepare_train", lambda *args: calls.append(args))
        cfg = ExperimentConfig(dataset_path="twelve.csv", method="average", n_splits=2,
                               base_seed=4, stratified=False, svm_folds=2)
        with pytest.raises(experiment.InputError, match=r"split 1 \(seed 5\) of 'twelve.csv': "
                           "the test side has no rows of class 'b'"):
            run_experiment(cfg, dataset=self.twelve_rows())
        assert calls == []

    def test_sweep_plans_its_split_for_tsmkl(self, monkeypatch):
        # only tsmkl has a lambda grid: another method is refused before planning
        data = Dataset(np.arange(4.0)[:, None], [0, 1, 0, 1], ("a", "b"))
        cfg = ExperimentConfig(dataset_path="four.csv", method="average", svm_folds=2)
        with monkeypatch.context() as m:
            m.setattr(experiment, "plan_splits", lambda *args: pytest.fail("planned"))
            with pytest.raises(experiment.InputError,
                               match="runs tsmkl; the config's method is 'average'$"):
                run_lambda_sweep(cfg, dataset=data)
        # a stratified 80% of a, b, a, b trains on one row per class: each of
        # 2 CV folds trains on one row, and its 3 pairs balance to 2 K-examples
        with pytest.raises(experiment.InputError, match="split 0 .*no fold of svm.folds 2 "
                           "holds every class on its train side$"):
            experiment.plan_splits(data, cfg, 1)
        cfg = ExperimentConfig(dataset_path="four.csv", method="tsmkl", svm_folds=2)
        with pytest.raises(experiment.InputError, match="split 0 .*2 train rows give 2$"):
            run_lambda_sweep(cfg, dataset=data)

    def test_holdout_drawn_once_per_split(self, toy_csv, monkeypatch):
        seeds = []

        def counted(dataset, fraction, seed, stratified):
            seeds.append(seed)
            return holdout_split(dataset, fraction, seed, stratified)

        monkeypatch.setattr(experiment, "holdout_split", counted)
        run_experiment(fast_config(toy_csv, n_splits=3, base_seed=7))
        assert seeds == [7, 8, 9]

    def test_cv_folds_drawn_once_per_split(self, toy_csv, monkeypatch):
        # svm.folds' folds per split, best_kernel's too, and the sweep's once for every lambda
        calls = []

        def counted(n, k, seed):
            calls.append(seed)
            return kfold_plan(n, k, seed)

        monkeypatch.setattr(experiment, "kfold_plan", counted)
        for method, per_split in (("average", 1), ("tsmkl", 1), ("best_kernel", 2)):
            calls.clear()
            run_experiment(fast_config(toy_csv, method=method, n_splits=2))
            assert len(calls) == 2 * per_split, method
        calls.clear()
        run_lambda_sweep(fast_config(toy_csv, method="tsmkl"))  # a 2-value lambda grid
        assert len(calls) == 1

    def test_kexample_count_is_plan_rows_m(self, monkeypatch):
        # with an unreachable minimum the check reports every label vector's count
        monkeypatch.setattr(experiment.mkl, "MIN_KEXAMPLES", 10**9)
        rng = np.random.default_rng(0)
        for _ in range(30):
            y = rng.integers(0, rng.integers(2, 5), size=rng.integers(2, 15))
            _, m = plan_rows(y, 0, 1)
            with pytest.raises(experiment.InputError, match=f"{len(y)} train rows give {m}$"):
                experiment.check_method("tsmkl", y, 4, 0)

    def test_method_needs(self):
        experiment.check_method("average", [0, 1, 0], 4, 0)  # no CV folds, no K-examples
        experiment.check_method("target_align", [0, 1, 0], 4, 0)
        with pytest.raises(experiment.InputError, match="best_kernel's svm.folds 4 exceeds the 3"):
            experiment.check_method("best_kernel", [0, 1, 0], 4, 0)
        experiment.check_method("best_kernel", [0, 1, 0], 3, 0)


class TestAggregateRecords:
    @staticmethod
    def rec(acc, **extra):
        base = {
            "metrics": {
                "accuracy": acc,
                "mean_per_class_accuracy": acc,
                "macro_f1": acc,
                "mean_mcc": acc,
            }
        }
        base.update(extra)
        return base

    def test_mean_std_ddof1(self):
        agg = aggregate_records([self.rec(0.8), self.rec(0.9)])
        assert agg["accuracy"]["mean"] == pytest.approx(0.85)
        assert agg["accuracy"]["std"] == pytest.approx(np.std([0.8, 0.9], ddof=1))
        assert agg["n_succeeded"] == 2

    def test_errors_excluded(self):
        agg = aggregate_records([self.rec(0.8), {"error": "boom"}])
        assert agg["n_splits"] == 2
        assert agg["n_succeeded"] == 1
        assert agg["accuracy"]["mean"] == 0.8
        assert agg["accuracy"]["std"] == 0.0

    def test_all_errors_raise(self):
        with pytest.raises(RuntimeError, match="no split"):
            aggregate_records([{"error": "a"}, {"error": "b"}])


def fake_report(mean=0.8642, std=0.04):
    stat = {"mean": mean, "std": std, "count": 10}
    return ExperimentReport(
        config={"method": "tsmkl"},
        per_split=[],
        aggregate={
            "n_splits": 10,
            "n_succeeded": 10,
            "accuracy": stat,
            "mean_per_class_accuracy": stat,
            "macro_f1": stat,
            "mean_mcc": stat,
        },
        artifact_hashes={},
        created_at="now",
        total_seconds=1.0,
    )


class TestReports:
    def test_markdown_cells(self):
        table = render_markdown_table(fake_report())
        lines = table.strip().split("\n")
        assert lines[0] == "| Method | Accuracy | Mean per-class | Macro F1 | Mean MCC | Splits |"
        assert len(lines) == 3
        assert "86.42(4.00)" in lines[2]
        assert "| tsmkl |" in lines[2]

    def test_report_to_dict_round_trip(self, toy_csv):
        report = run_experiment(fast_config(toy_csv, n_splits=1))
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert ExperimentReport(**payload) == report

    def test_sweep_tsv_rendering(self):
        sweep = {
            "records": [
                {"lambda": 1.0, "k_hinge": 0.5, "k_accuracy": 0.75, "data_accuracy": 0.8},
                {"lambda": 0.25, "k_hinge": 0.4, "k_accuracy": 0.8, "data_accuracy": None},
            ]
        }
        lines = render_sweep_tsv(sweep).strip().split("\n")
        assert lines[0] == "lambda\tk_hinge\tk_accuracy\tdata_accuracy"
        assert lines[1].split("\t") == ["1", "0.5", "0.75", "0.8"]
        assert lines[2].split("\t")[-1] == "nan"

    def test_strip_timing_fields(self):
        obj = {
            "total_seconds": 1.0,
            "created_at": "x",
            "per_split": [{"timings": {"svm": 2.0}, "seed": 3}],
            "keep": {"timings": {}, "value": 7},
        }
        stripped = strip_timing_fields(obj)
        assert stripped == {"per_split": [{"seed": 3}], "keep": {"value": 7}}


class TestLambdaSweep:
    def test_records_shape(self, toy_csv):
        cfg = fast_config(toy_csv, method="tsmkl", n_splits=1)
        sweep = run_lambda_sweep(cfg)
        assert len(sweep["records"]) == len(cfg.lambda_grid)
        for rec in sweep["records"]:
            assert set(rec) == {"lambda", "k_hinge", "k_accuracy", "data_accuracy"}
            assert rec["lambda"] in cfg.lambda_grid
            assert rec["data_accuracy"] is None or 0.0 <= rec["data_accuracy"] <= 1.0
        assert sweep["split"]["n_train"] + sweep["split"]["n_test"] == 32
        # at least one model must have produced a downstream accuracy
        assert any(rec["data_accuracy"] is not None for rec in sweep["records"])

    def test_singleton_grid_reports_the_svm_stage_accuracy(self, toy_csv, monkeypatch):
        # a stub SVM stage that predicts classes 0, 1, 0, 1, ... for the test rows
        class Alternating:
            def predict(self, cross):
                return np.arange(cross.shape[0]) % 2

        monkeypatch.setattr(svm, "fit", lambda *args: (1.0, [], Alternating()))
        cfg = fast_config(toy_csv, method="tsmkl", n_splits=1, lambda_grid=[0.5])
        records = run_lambda_sweep(cfg)["records"]
        assert len(records) == 1
        assert set(records[0]) == {"lambda", "k_hinge", "k_accuracy", "data_accuracy"}
        dataset = load_dataset(toy_csv)
        plan = holdout_split(dataset, cfg.train_fraction, cfg.base_seed)
        test_y = dataset.labels[plan.test_indices]
        want = float(np.mean(test_y == np.arange(len(test_y)) % 2))
        assert want != 0.5  # so swapped labels would score differently
        assert records[0]["data_accuracy"] == want

    def test_diverging_lambda_drops_its_record(self, toy_csv, caplog):
        # lambda * k * B underflows in the float32 step, so 1e-300 diverges at step 1
        cfg = fast_config(toy_csv, method="tsmkl", n_splits=1, lambda_grid=[1.0, 0.0625, 1e-300])
        with caplog.at_level("WARNING", logger="kweave.mkl"):
            records = run_lambda_sweep(cfg)["records"]
        assert [r["lambda"] for r in records] == [1.0, 0.0625]
        assert any("lambda=1e-300 failed" in r.getMessage() for r in caplog.records)

    def test_collapsed_lambda_between_live_ones(self, tmp_path, monkeypatch):
        # the live models' test-side sums come as one stack, one row per live lambda
        cfg = fast_config(write_toy_csv(tmp_path / "toy.csv", gap=1.5), method="tsmkl",
                          n_splits=1, lambda_grid=[1.0, 0.25, 0.0625],
                          kernel_recipe="uci_full_plus_per_feature")
        plain = run_lambda_sweep(cfg)["records"]
        assert plain[0]["data_accuracy"] != plain[2]["data_accuracy"]  # so swapped rows show
        real = mkl.pegasos_train

        def collapse_quarter(kset, lam, *args):
            model = real(kset, lam, *args)
            return dataclasses.replace(model, mu=np.zeros_like(model.mu)) if lam == 0.25 else model

        monkeypatch.setattr(mkl, "pegasos_train", collapse_quarter)
        records = run_lambda_sweep(cfg)["records"]
        assert records[1]["lambda"] == 0.25 and records[1]["data_accuracy"] is None
        assert [records[0], records[2]] == [plain[0], plain[2]]

    def test_svm_stage_failure_leaves_accuracy_none(self, toy_csv, monkeypatch, caplog):
        def broken(*args):
            raise ValueError("broken SVM stage")

        monkeypatch.setattr(svm, "fit", broken)
        cfg = fast_config(toy_csv, method="tsmkl", n_splits=1)
        with caplog.at_level("WARNING", logger="kweave.experiment"):
            records = run_lambda_sweep(cfg)["records"]
        assert [r["lambda"] for r in records] == cfg.lambda_grid
        assert all(r["data_accuracy"] is None for r in records)
        assert all(r["k_hinge"] is not None for r in records)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert any("broken SVM stage" in m for m in warnings)
