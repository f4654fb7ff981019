"""Offline numeric parity gate for the two-stage pipeline.

The UCI reproductions skip without network access, so this pins small
synthetic runs to the values the pipeline produced before any K-space,
solver or pipeline rewrite, and target alignment to its exact QP
solution: one tsmkl split on the per-feature bank
(p = 13 + 13 * 4 = 65), one split of each baseline on the uci_full bank
(p = 13), and a three-value lambda sweep. A change to the numerics must keep
the chosen lambda, C and kernel and every accuracy exactly, and every kernel
weight and K-space hinge within 1e-12.
"""

import numpy as np
import pytest

from kweave.experiment import ExperimentConfig, run_experiment, run_lambda_sweep

from conftest import make_blobs

EXPECTED_MU = [
    0.00277405863021255, 0.00288816120915233, 0.003118069283438462, 0.0035840156210557583,
    0.004535280578379554, 0.006478753842283577, 0.010303764993768028, 0.025542245038841102,
    0.4202983693842527, 0.002421875599764788, 0.0010295825474641723, 0.003270145521097076,
    0.0026605571237372245, 0.05440361153318834, 0.05523060994904799, 0.05690087970237387,
    0.06030350837301249, 0.06733412329898837, 0.08212843890700154, 0.11353031801580749,
    0.1795795032850224, 0.3187074161981003, 0.005914430083519149, 0.0028199090503743746,
    0.003553067260365343, 0.05358218371195585, 0.00038811608899229355,
    0.00026189612469912794, 1.6401853045141558e-05, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.09779713752360186, 0.013745930428293574, 0.0005166936395797628, 0.02391007869285041,
    0.023732358134076106, 0.02338102386579037, 0.022694449090714067, 0.02138309672210842,
    0.01898834438754586, 0.014976706123849173, 0.009249138684388269, 0.003069698191881902,
    0.0, 0.013419782129935267, 0.031148739746223363, 0.02408918438594967, 0.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.0, 0.0, 0.022641089742056898, 0.0, 0.0, 0.0, 0.0,
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
# stopped up to 6.5e-9 away
_ALIGN_MU = [0.0] * 13
_ALIGN_MU[8], _ALIGN_MU[10], _ALIGN_MU[12] = (
    0.9776171094738203, 0.12788662339820248, 0.16706226030991847,
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
        [0.912446705097023, 0.8469278440456806, 0.8790515306356825],
        rtol=0.0, atol=1e-12,
    )
    assert [r["k_accuracy"] for r in records] == [
        0.6568627450980392, 0.6666666666666666, 0.6372549019607843,
    ]
    assert [r["data_accuracy"] for r in records] == [0.875, 0.875, 0.875]
