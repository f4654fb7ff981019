"""Offline numeric parity gate for the two-stage pipeline.

The UCI reproductions skip without network access, so this pins one small
synthetic tsmkl run on the per-feature bank (p = 13 + 13 * 4 = 65) to the
values the pipeline produced before any K-space or solver rewrite. A change
to the numerics must keep the chosen lambda, the chosen C and the accuracy
exactly, and every kernel weight within 1e-12.
"""

import numpy as np

from kweave.experiment import ExperimentConfig, run_experiment

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
