"""Offline numeric parity gate for the two-stage pipeline.

The UCI reproductions skip without network access, so this pins small
synthetic runs to the values the pipeline produced before any K-space,
solver or pipeline rewrite, and target alignment to its exact QP
solution: one tsmkl split on the per-feature bank
(p = 13 + 13 * 4 = 65), one split of each baseline on the uci_full bank
(p = 13), and a three-value lambda sweep. The tsmkl weights and the sweep's
K-space hinges were re-pinned on purpose when the K-space store became
float32, and again when Pegasos began to read cyclic slices of the
planned row order instead of i.i.d. draws (one sweep K-accuracy moved by
one validation pair); every chosen lambda, C and kernel and every data
accuracy stayed the same. A change to the numerics must keep
the chosen lambda, C and kernel and every accuracy exactly, and every kernel
weight and K-space hinge within 1e-12.
"""

import numpy as np
import pytest

from kweave.experiment import ExperimentConfig, run_experiment, run_lambda_sweep

from conftest import make_blobs

# re-pinned when stage one began to read contiguous slices of the planned
# row order: the same lambda, C and accuracy; 46 of 65 weights moved, by up to 0.078
EXPECTED_MU = [
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.03240969032049179, 0.4475115239620209, 0.0,
    0.0012812414206564426, 0.003375735366716981, 0.0, 0.05127933621406555, 0.05175931751728058,
    0.05276678502559662, 0.054965756833553314, 0.060589294880628586, 0.07509739696979523,
    0.11071981489658356, 0.19639763236045837, 0.3641905188560486, 0.010339485481381416,
    0.003195383818820119, 0.0006006795447319746, 0.05081554874777794, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.0, 0.0, 0.07029595226049423, 0.0017637703567743301, 0.0, 0.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.02298138663172722, 0.030532807111740112, 0.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.0, 0.0, 0.003752322867512703, 0.10015158355236053, 0.0, 0.0, 0.0, 0.0,
]


def test_tsmkl_per_feature_parity():
    data = make_blobs(n_per_class=20, d=4, gap=1.5, seed=3)
    config = ExperimentConfig(
        dataset_path="blobs.csv",  # unread: the dataset is passed in
        method="tsmkl",
        kernel_recipe="uci_full_plus_per_feature",
        n_splits=1,
        base_seed=7,
        mkl_num_steps=200,
        output_dir="unused",
    )
    record = run_experiment(config, dataset=data).per_split[0]
    assert "error" not in record
    assert record["n_kexamples"] == 512
    assert record["chosen_lambda"] == 0.0244140625
    assert record["chosen_C"] == 0.1
    assert record["metrics"]["accuracy"] == 0.875
    np.testing.assert_allclose(record["mu"], EXPECTED_MU, rtol=0.0, atol=1e-12)


def _blobs_config(**overrides):
    kwargs = dict(
        dataset_path="blobs.csv",  # unread: the dataset is passed in
        n_splits=1,
        base_seed=7,
        output_dir="unused",
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# the exact alignment QP's solution; the projected ascent pinned before it
# stopped up to 6.5e-9 away, and the float32 store moved it by 1.2e-8
_ALIGN_MU = [0.0] * 13
_ALIGN_MU[8], _ALIGN_MU[10], _ALIGN_MU[12] = (
    0.9776171101816888, 0.12788663345311682, 0.16706224847053883,
)


@pytest.mark.parametrize(
    "method, overrides, chosen_C, chosen_kernel, mu",
    [
        ("average", {}, 10.0, None, [1.0 / 13] * 13),
        ("target_align", {}, 1.0, None, _ALIGN_MU),
        # a three-value C grid keeps best_kernel's 13 x |grid| x folds CV fits fast
        ("best_kernel", {"c_grid": [0.1, 1.0, 10.0]}, 1.0, 8, np.eye(13)[8]),
    ],
)
def test_baseline_parity(method, overrides, chosen_C, chosen_kernel, mu):
    data = make_blobs(n_per_class=20, d=4, gap=1.5, seed=3)
    record = run_experiment(_blobs_config(method=method, **overrides), dataset=data).per_split[0]
    assert "error" not in record
    assert record["chosen_C"] == chosen_C
    assert record["metrics"]["accuracy"] == 0.875
    assert record.get("chosen_kernel") == chosen_kernel
    np.testing.assert_allclose(record["mu"], mu, rtol=0.0, atol=1e-12)


def test_lambda_sweep_parity():
    data = make_blobs(n_per_class=20, d=4, gap=1.5, seed=3)
    config = _blobs_config(
        method="tsmkl",
        mkl_num_steps=200,
        lambda_grid=[1.0, 0.0625, 0.00390625],
        c_grid=[0.1, 1.0, 10.0],
    )
    records = run_lambda_sweep(config, dataset=data)["records"]
    assert [r["lambda"] for r in records] == [1.0, 0.0625, 0.00390625]
    np.testing.assert_allclose(
        [r["k_hinge"] for r in records],
        [0.9128905986295899, 0.8396781915890089, 0.8739478111885689],
        rtol=0.0, atol=1e-12,
    )
    assert [r["k_accuracy"] for r in records] == [
        0.6568627450980392, 0.6666666666666666, 0.6274509803921569,
    ]
    assert [r["data_accuracy"] for r in records] == [0.875, 0.875, 0.875]
