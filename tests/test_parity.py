"""Offline numeric parity gate for the two-stage pipeline.

The UCI reproductions skip without network access, so this pins small
synthetic runs to the values the pipeline produced before any K-space,
solver or pipeline rewrite, and target alignment to its exact QP
solution: one tsmkl split on the per-feature bank
(p = 13 + 13 * 4 = 65), one split of each baseline on the uci_full bank
(p = 13), and a three-value lambda sweep. The weights and K-space hinges
were re-pinned on purpose when the K-space store became float32; every
choice and accuracy stayed the same. A change to the numerics must keep
the chosen lambda, C and kernel and every accuracy exactly, and every kernel
weight and K-space hinge within 1e-12.
"""

import numpy as np
import pytest

from kweave.experiment import ExperimentConfig, run_experiment, run_lambda_sweep

from conftest import make_blobs

# re-pinned when the K-space store became float32: mu moved by at most 1.4e-7
EXPECTED_MU = [
    0.002774057909846306, 0.0028881626203656197, 0.0031180698424577713, 0.003584014717489481,
    0.004535280633717775, 0.006478753872215748, 0.01030376460403204, 0.025542262941598892,
    0.42029842734336853, 0.002421875251457095, 0.0010295826941728592, 0.0032701457384973764,
    0.0026605576276779175, 0.05440358817577362, 0.05523061752319336, 0.056900881230831146,
    0.06030351668596268, 0.0673341378569603, 0.08212844282388687, 0.11353030055761337,
    0.17957955598831177, 0.31870755553245544, 0.005914429202675819, 0.0028199092485010624,
    0.003553067333996296, 0.053582221269607544, 0.0003881133161485195,
    0.0002618953585624695, 1.639965921640396e-05, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.09779711812734604, 0.013745924457907677, 0.0005166949704289436, 0.023910081014037132,
    0.02373235672712326, 0.023381028324365616, 0.022694449871778488, 0.021383097395300865,
    0.018988344818353653, 0.014976711943745613, 0.009249137714505196, 0.0030696960166096687,
    0.0, 0.013419783674180508, 0.03114873170852661, 0.024089183658361435, 0.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.0, 0.0, 0.022641077637672424, 0.0, 0.0, 0.0, 0.0,
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
        [0.9124467082563605, 0.8469278533399726, 0.8790515281543062],
        rtol=0.0, atol=1e-12,
    )
    assert [r["k_accuracy"] for r in records] == [
        0.6568627450980392, 0.6666666666666666, 0.6372549019607843,
    ]
    assert [r["data_accuracy"] for r in records] == [0.875, 0.875, 0.875]
