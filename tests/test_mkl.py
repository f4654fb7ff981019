"""Stochastic subgradient weight learning and lambda selection.

The solver is checked against a brute-force oracle: grid search with
iterative refinement over the non-negative orthant, written against plain
(Z, t) arrays so it shares nothing with the implementation under test.
"""

import inspect
import tracemalloc

import numpy as np
import pytest

from kweave import mkl
from kweave.mkl import (
    DivergedError,
    MklError,
    MklModel,
    default_lambda_grid,
    hinge_loss,
    pegasos_train,
    select_lambda,
)

from kweave.data import holdout_split
from kweave.experiment import ExperimentConfig, learn_weights, prepare_train
from kweave.kspace import KExampleSet, balance, make_kexamples

from conftest import make_blobs, synth_kset


# ---------------------------------------------------------------------------
# oracle: refined grid search over mu >= 0


def objective(Z, t, lam, mu):
    margins = t * (Z @ mu)
    return 0.5 * lam * float(mu @ mu) + float(np.mean(np.maximum(0.0, 1.0 - margins)))


def qp_oracle(Z, t, lam, points=21, rounds=6):
    """Minimize the regularized hinge objective by shrinking-window grid search.

    The optimum satisfies lam/2 ||mu||^2 <= F(0) = 1, so each coordinate
    lies in [0, sqrt(2/lam)]; every round re-grids a window around the
    incumbent and halves... shrinks it by the old grid step.
    """
    Z = np.asarray(Z, dtype=np.float64)
    p = Z.shape[1]
    hi = np.sqrt(2.0 / lam)
    lo_corner = np.zeros(p)
    width = hi
    best_mu, best_f = np.zeros(p), objective(Z, t, lam, np.zeros(p))
    for _ in range(rounds):
        axes = [np.linspace(lo_corner[k], lo_corner[k] + width, points) for k in range(p)]
        grids = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([g.ravel() for g in grids], axis=1)
        cand = np.maximum(cand, 0.0)
        margins = t[:, None] * (Z @ cand.T)
        F = 0.5 * lam * (cand**2).sum(axis=1) + np.maximum(0.0, 1.0 - margins).mean(axis=0)
        k = int(F.argmin())
        if F[k] < best_f:
            best_f, best_mu = float(F[k]), cand[k].copy()
        step = width / (points - 1)
        lo_corner = np.maximum(best_mu - step, 0.0)
        width = 2.0 * step
    return best_mu, best_f


def fista_certificate(Z, t, lam, rel_gap=1e-3, max_iter=100_000):
    """Primal and dual values (P, D) of the objective, certified to P - D <= rel_gap P.

    D(a) = mean(a) - ||[Z^T (a t) / m]_+||^2 / (2 lam) over the box
    a in [0, 1]^m is the Lagrange dual of the objective, and
    mu(a) = [Z^T (a t) / m]_+ / lam is a feasible primal point, so
    D(a) <= F* <= P = F(mu(a)). D is maximized by FISTA (Beck & Teboulle
    2009), restarting the momentum when the step turns against it
    (O'Donoghue & Candes 2015); grad -D(a) = (t (Z mu(a)) - 1) / m is
    ||Z||^2 / (lam m^2)-Lipschitz.
    """
    Z = np.asarray(Z, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    m = len(t)
    step = lam * m * m / np.linalg.norm(Z, 2) ** 2

    def primal(a):
        return np.maximum(Z.T @ (a * t) / m, 0.0) / lam

    a = b = np.zeros(m)
    theta = 1.0
    for _ in range(max_iter):
        a_next = np.clip(b - step * (t * (Z @ primal(b)) - 1.0) / m, 0.0, 1.0)
        if (b - a_next) @ (a_next - a) > 0.0:
            theta = 1.0
        theta_next = (1.0 + np.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        b = a_next + (theta - 1.0) / theta_next * (a_next - a)
        a, theta = a_next, theta_next
        mu = primal(a)
        P = objective(Z, t, lam, mu)
        D = float(a.mean()) - 0.5 * lam * float(mu @ mu)
        if P - D <= rel_gap * P:
            return P, D
    raise AssertionError(f"no certificate in {max_iter} steps: gap {P - D} at P = {P}")


def test_oracle_reproduces_hand_solved_problem():
    # {z=(1,1), t=+1; z=(-1,-1), t=-1}, lam=0.01: symmetric optimum (a, a)
    # minimizing 0.01 a^2 + [1 - 2a]_+, i.e. a = 0.5, F = 0.0025
    Z = np.array([[1.0, 1.0], [-1.0, -1.0]])
    t = np.array([1.0, -1.0])
    mu, f = qp_oracle(Z, t, lam=0.01)
    np.testing.assert_allclose(mu, [0.5, 0.5], atol=5e-3)
    np.testing.assert_allclose(f, 0.0025, rtol=1e-3)


def test_oracle_hinge_free_case():
    # single well-separated example: F = lam/2 mu^2 once margin >= 1,
    # optimum at the smallest mu with z*mu = 1 ... balance point solves
    # lam*mu = z on the hinge-active side; verify against direct scan
    Z = np.array([[2.0]])
    t = np.array([1.0])
    lam = 0.5
    mu, f = qp_oracle(Z, t, lam)
    dense = np.linspace(0, 2, 200_001)
    F = 0.5 * lam * dense**2 + np.maximum(0, 1 - 2.0 * dense)
    assert abs(f - F.min()) < 1e-6
    assert abs(mu[0] - dense[F.argmin()]) < 1e-3


def test_pegasos_at_the_chosen_lambda_is_certified_near_optimal():
    # the hand-solved problem above: D <= F* = 0.0025 <= P
    P, D = fista_certificate([[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0], 0.01)
    assert D <= 0.0025 <= P
    # test_parity.py's tsmkl split (512 K-examples, p = 65) at 1,000 steps;
    # over 16 seeds the certified excess F(mu) - F* was at most 1.4% of F*
    # at this split's lambda and 1.0% here (CHANGES.md)
    data = make_blobs(n_per_class=20, d=4, gap=1.5, seed=3)
    config = ExperimentConfig(dataset_path="blobs.csv", method="tsmkl",
                              kernel_recipe="uci_full_plus_per_feature", n_splits=1,
                              base_seed=7, mkl_num_steps=1000, output_dir="unused")
    plan = holdout_split(data, config.train_fraction, 7, config.stratified)
    train = data.subset(plan.train_indices)
    _, bank, _ = prepare_train(train, config.kernel_recipe, 7)
    mu, details = learn_weights(bank, train.labels, config, 7)
    lam = details["chosen_lambda"]
    bal = balance(make_kexamples(train.labels, bank))
    assert (len(bal), bank.p) == (512, 65)
    chosen = next(r for r in details["lambda_records"] if r["lambda"] == lam)
    final = MklModel(mu, details["final_train_hinge"], details["num_steps"])
    # the grid fit on the lambda-train block, and the final fit on the whole set
    for kset, pegasos in ((mkl._split_kset(bal)[0], chosen["objective"]),
                          (bal, final.objective(lam))):
        P, D = fista_certificate(kset.stack, kset.t, lam)
        assert P - D <= 1e-3 * P
        assert D <= pegasos
        assert pegasos - D <= 0.02 * D  # so F(mu) - F* <= 0.02 F*, as D <= F*


# ---------------------------------------------------------------------------
# pegasos


def reference_pegasos(Z, t, lam, batch_size, num_steps, seed):
    """The solver's steps with a compacted-violator update, on plain arrays.

    Step k's batch is the batch_size rows from (phase + (k - 1) batch_size)
    mod m on, cut as one slice of enough copies of the rows laid end to end,
    so a batch that wraps past the end continues at row 0; the phase is
    rng(seed).integers(m). Sums only the violating rows. Returns mu, or
    raises DivergedError at the first non-finite iterate.
    """
    Z = np.asarray(Z, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    m = len(t)
    phase = int(np.random.default_rng(seed).integers(m))
    mu = np.zeros(Z.shape[1])
    for k in range(1, num_steps + 1):
        a = (phase + (k - 1) * batch_size) % m
        copies = -(-(a + batch_size) // m)  # enough to hold rows a .. a + batch_size - 1
        z = np.concatenate([Z] * copies)[a : a + batch_size]
        tb = np.concatenate([t] * copies)[a : a + batch_size]
        with np.errstate(over="ignore", invalid="ignore"):
            viol = tb * (z @ mu) < 1.0
            mu *= 1.0 - 1.0 / k
            if np.any(viol):
                mu += (tb[viol] @ z[viol]) / (lam * k * batch_size)
        np.maximum(mu, 0.0, out=mu)
        if not np.all(np.isfinite(mu)):
            raise DivergedError(k)
    return mu


class TestPegasos:
    @pytest.mark.parametrize(
        "m, p, batch_size, lam, scale",
        [
            (40, 5, 16, 0.1, 1.0),
            (40, 1, 16, 0.05, 1.0),  # p = 1
            (25, 3, 1, 0.2, 1.0),  # batch_size = 1
            (60, 8, 100, 0.01, 2.0),
            (30, 4, 20, 1e4, 1.0),  # mu stays tiny: every batch all-violating
        ],
    )
    def test_masked_update_matches_compacted_reference(self, m, p, batch_size, lam, scale):
        rng = np.random.default_rng(m * 100 + p)
        Z = rng.normal(0, scale, (m, p))
        t = np.where(rng.random(m) < 0.5, 1, -1)
        t[:2] = [1, -1]
        want = reference_pegasos(Z, t, lam, batch_size, 400, m + p)
        got = pegasos_train(synth_kset(Z, t), lam, 400, batch_size, seed=m + p)
        np.testing.assert_allclose(got.mu, want, rtol=0, atol=1e-12)

    def test_all_violating_batches_match_reference(self):
        # margins t mu.z are <= 0 < 1 on every pair for every mu >= 0
        rng = np.random.default_rng(31)
        Z = np.abs(rng.normal(0, 1, (20, 3)))
        t = np.array([1, -1] * 10)
        Z[t > 0] *= -1.0
        kset = synth_kset(Z, t)
        got = pegasos_train(kset, 0.3, 200, 10, seed=4)
        want = reference_pegasos(Z, t, 0.3, 10, 200, 4)
        # every update projects back to 0: the k-step fits are the iterates
        for k in range(1, 200):
            assert not np.any(pegasos_train(kset, 0.3, k, 10, seed=4).mu > 0)
        assert not np.any(got.mu > 0)
        np.testing.assert_allclose(got.mu, want, rtol=0, atol=1e-12)

    def test_batches_without_violators_match_reference(self):
        # every pair has t z >= 1 on its only coordinate: once mu >= 1 no
        # batch violates, and mu decays by (1 - 1/k) alone
        Z = np.array([[2.0], [-3.0], [1.5], [-1.0]])
        t = np.array([1, -1, 1, -1])
        got = pegasos_train(synth_kset(Z, t), 1e-3, 300, 3, seed=8)
        want = reference_pegasos(Z, t, 1e-3, 3, 300, 8)
        assert got.mu[0] >= 1.0
        np.testing.assert_allclose(got.mu, want, rtol=0, atol=1e-12)

    def test_divergence_step_matches_reference(self):
        # three of every four rows in a cycled batch are +1, so the first
        # step's sum of t z is about 5e201 and its 1/(lam k |B|) overflows
        Z = np.full((4, 1), 1e200)
        t = np.array([1, -1, 1, 1])
        with pytest.raises(DivergedError) as want:
            reference_pegasos(Z, t, 1e-150, 100, 50, 0)
        with pytest.raises(DivergedError) as got:
            pegasos_train(synth_kset(Z, t), 1e-150, num_steps=50, seed=0)
        assert got.value.step == want.value.step

    @pytest.mark.parametrize("batch_size", [1, 7, 100])
    def test_cyclic_batches_match_the_reference_slices_exactly(self, batch_size):
        # integer z makes every violator sum exact in any order, so the masked
        # and compacted updates agree bitwise and only the batches can differ:
        # the solver's views and wrapped gathers against the reference's
        # slices; 53 rows in batches of 7 or 100 wrap every few steps
        rng = np.random.default_rng(batch_size)
        Z = rng.integers(-3, 4, (53, 4)).astype(np.float64)
        t = np.where(rng.random(53) < 0.5, 1, -1)
        t[:2] = [1, -1]
        got = pegasos_train(synth_kset(Z, t), 0.05, 1061, batch_size, seed=6)
        want = reference_pegasos(Z, t, 0.05, batch_size, 1061, 6)
        assert np.any(want > 0)
        np.testing.assert_array_equal(got.mu, want)

    @pytest.mark.parametrize("k", [1023, 1024, 1025])
    def test_k_step_fit_is_the_kth_iterate_of_a_longer_fit(self, k, monkeypatch):
        # the trajectory tests read the k-th iterate off a num_steps=k fit;
        # here a spy on the batch gather reads a longer fit's own mu, which
        # before step j + 1 is the j-th iterate
        rng = np.random.default_rng(k)
        Z = rng.normal(0, 1, (50, 4)).astype(np.float32)
        t = np.where(rng.random(50) < 0.5, 1, -1)
        t[:2] = [1, -1]
        kset = KExampleSet(t, Z)
        iterates, starts = [], []
        gather = mkl.sample_batch

        def spy(kset, start, size):
            iterates.append(inspect.currentframe().f_back.f_locals["mu"].copy())
            starts.append(start)
            return gather(kset, start, size)

        monkeypatch.setattr(mkl, "sample_batch", spy)
        pegasos_train(kset, 0.05, 1064, 8, seed=5)
        monkeypatch.undo()
        assert len(iterates) == 1064
        # consecutive batches of 8 rows, cycling through the 50 rows
        assert all(b == (a + 8) % 50 for a, b in zip(starts, starts[1:]))
        got = pegasos_train(kset, 0.05, k, 8, seed=5).mu
        assert np.any(got > 0)
        assert got.tobytes() == iterates[k].astype(np.float64).tobytes()

    def test_long_fit_never_holds_every_batch_index(self):
        rng = np.random.default_rng(12)
        Z = rng.normal(0, 1, (40, 3))
        t = np.array([1, -1] * 20)
        kset = synth_kset(Z, t)
        num_steps, batch_size = 20 * 1024, 8
        all_indices = num_steps * batch_size * 8  # every batch's row indices as int64
        tracemalloc.start()
        try:
            pegasos_train(kset, 0.1, num_steps, batch_size, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < all_indices / 4

    def test_two_example_set_matches_oracle(self):
        Z = np.array([[1.0, 1.0], [-1.0, -1.0]])
        t = np.array([1, -1])
        kset = synth_kset(Z, t)
        model = pegasos_train(kset, 0.01, num_steps=10_000, seed=0)
        np.testing.assert_allclose(model.mu, [0.5, 0.5], atol=0.1)
        _, f_star = qp_oracle(Z, t.astype(float), lam=0.01)
        f_hat = objective(Z, t.astype(float), 0.01, model.mu)
        assert f_hat <= f_star * 1.01 + 1e-12

    def test_randomized_oracle_agreement(self):
        rng = np.random.default_rng(2024)
        for trial in range(5):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(6, 51))
            Z = rng.normal(0, 1, (m, p))
            t = np.where(rng.random(m) < 0.5, 1, -1)
            if abs(t.sum()) == m:
                t[0] = -t[0]
            lam = float(rng.choice([0.5, 0.1, 0.02]))
            kset = synth_kset(Z, t)
            model = pegasos_train(kset, lam, num_steps=20_000, seed=trial)
            _, f_star = qp_oracle(Z, t.astype(float), lam)
            f_hat = objective(Z, t.astype(float), lam, model.mu)
            assert f_hat <= f_star * 1.01 + 1e-9, f"trial {trial}: {f_hat} vs {f_star}"

    def test_float32_stack_runs_at_float32_and_returns_float64(self):
        rng = np.random.default_rng(17)
        Z32 = rng.normal(0, 1, (80, 6)).astype(np.float32)
        t = np.where(Z32[:, 0] + Z32[:, 1] + rng.normal(0, 0.5, 80) > 0, 1, -1)
        kset = KExampleSet(t, Z32)
        got = pegasos_train(kset, 0.05, 500, 16, seed=3)
        want = pegasos_train(synth_kset(Z32.astype(np.float64), t), 0.05, 500, 16, seed=3)
        assert got.mu.dtype == np.float64
        # every iterate (the k-step fit) is non-negative and float32-exact
        for k in range(1, 501):
            mu = pegasos_train(kset, 0.05, k, 16, seed=3).mu
            assert mu.min() >= 0.0
            np.testing.assert_array_equal(mu.astype(np.float32).astype(np.float64), mu)
        assert np.any(want.mu > 0)
        assert not np.array_equal(got.mu, want.mu)  # the float32 fit rounds at float32
        # the same draws on the same values: only float32 rounding differs
        np.testing.assert_allclose(got.mu, want.mu, rtol=1e-5, atol=1e-6)
        assert got.final_train_hinge == pytest.approx(want.final_train_hinge, abs=1e-6)

    def test_float32_step_scale_underflow_is_divergence(self):
        # lam * k * B = 1e-298 rounds to 0 in float32: the step is infinite
        Z = np.array([[1.0, 1.0], [-1.0, -1.0]] * 2, dtype=np.float32)
        t = np.array([1, -1, 1, -1])
        with pytest.raises(DivergedError) as err:
            pegasos_train(KExampleSet(t, Z), 1e-300, num_steps=50, batch_size=4, seed=0)
        assert err.value.step == 1

    def test_huge_lambda_collapses_weights(self):
        rng = np.random.default_rng(5)
        Z = rng.uniform(-1, 1, (20, 3))
        t = np.array([1, -1] * 10)
        model = pegasos_train(synth_kset(Z, t), 1e6, num_steps=2000, seed=0)
        assert np.linalg.norm(model.mu) <= 1e-3

    def test_projection_nonnegative_at_every_step(self):
        rng = np.random.default_rng(8)
        Z = rng.normal(0, 2, (30, 4))
        t = np.where(rng.random(30) < 0.5, 1, -1)
        t[:2] = [1, -1]
        kset = synth_kset(Z, t)
        # the k-step fit is the k-th iterate of the 500-step one
        lows = [pegasos_train(kset, 0.05, num_steps=k, seed=1).mu.min() for k in range(1, 501)]
        assert min(lows) >= 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        Z = rng.normal(0, 1, (12, 2))
        t = np.array([1, -1] * 6)
        a = pegasos_train(synth_kset(Z, t), 0.1, num_steps=300, seed=77)
        b = pegasos_train(synth_kset(Z, t), 0.1, num_steps=300, seed=77)
        np.testing.assert_array_equal(a.mu, b.mu)

    def test_single_kclass_rejected(self):
        Z = np.ones((4, 2))
        kset = synth_kset(Z, np.ones(4, dtype=int))
        with pytest.raises(ValueError, match="K-classes"):
            pegasos_train(kset, 0.1, num_steps=10, seed=0)

    def test_divergence_reported_with_step(self):
        # three of every four rows in a cycled batch are +1, so the first
        # step's sum of t z is about 5e201 and its 1/(lam k |B|) overflows
        Z = np.full((4, 1), 1e200)
        t = np.array([1, -1, 1, 1])
        with pytest.raises(DivergedError) as err:
            pegasos_train(synth_kset(Z, t), 1e-150, num_steps=50, seed=0)
        assert err.value.step >= 1

    @pytest.mark.parametrize(
        "lam, opts, match",
        [
            (0.0, {}, "lam must be positive and finite"),
            (-1.0, {}, "lam must be positive and finite"),
            (np.inf, {}, "lam must be positive and finite"),
            (np.nan, {}, "lam must be positive and finite"),
            (0.1, {"batch_size": 0}, "batch_size and num_steps must be >= 1"),
            (0.1, {"num_steps": 0}, "batch_size and num_steps must be >= 1"),
        ],
    )
    def test_argument_validation(self, lam, opts, match):
        kset = synth_kset(np.ones((4, 2)), np.array([1, -1, 1, -1]))
        with pytest.raises(ValueError, match=match):
            pegasos_train(kset, lam, **opts)

    def test_final_hinge_is_exact(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(0, 1, (15, 2))
        t = np.array([1, -1] * 7 + [1])
        kset = synth_kset(Z, t)
        model = pegasos_train(kset, 0.2, num_steps=200, seed=0)
        assert model.final_train_hinge == pytest.approx(hinge_loss(model.mu, kset), abs=1e-15)


class TestHingeLoss:
    def test_zero_weights_give_unit_loss(self):
        rng = np.random.default_rng(0)
        kset = synth_kset(rng.normal(0, 1, (9, 3)), np.array([1, -1] * 4 + [1]))
        assert hinge_loss(np.zeros(3), kset) == 1.0

    def test_satisfied_margin_is_zero(self):
        kset = synth_kset(np.array([[2.0, 0.0]]), np.array([1]))
        assert hinge_loss(np.array([1.0, 0.0]), kset) == 0.0

    def test_two_term_hand_case(self):
        kset = synth_kset(np.array([[0.5], [0.5]]), np.array([1, -1]))
        assert hinge_loss(np.array([1.0]), kset) == pytest.approx(1.0)


class TestLambdaGrid:
    def test_leading_values(self):
        grid = default_lambda_grid()
        np.testing.assert_allclose(grid[:3], [100.0, 25.0, 6.25], rtol=0)

    def test_length_and_floor(self):
        grid = default_lambda_grid()
        assert len(grid) == 17
        assert grid[-1] == 100.0 / 4**16
        assert 100.0 / 4**17 < 1e-8  # the next candidate falls below the floor

    def test_strictly_descending_positive(self):
        grid = np.array(default_lambda_grid())
        assert np.all(grid > 0)
        assert np.all(np.diff(grid) < 0)


def separable_kset(copies: int = 5, scale: float = 1.0):
    Z = scale * np.vstack(
        [np.tile([1.0, 1.0], (copies, 1)), np.tile([-1.0, -1.0], (copies, 1))]
    )
    t = np.array([1] * copies + [-1] * copies)
    return synth_kset(Z, t)


class TestSelectLambda:
    def test_singleton_grid(self):
        lam, records = select_lambda(separable_kset(), grid=[0.25], seed=0, num_steps=200)
        assert lam == 0.25
        assert len(records) == 1

    def test_choice_is_grid_member(self):
        lam, records = select_lambda(separable_kset(), seed=1, num_steps=200)
        assert lam in default_lambda_grid()
        assert len(records) == len(default_lambda_grid())

    def test_endpoints_not_better_on_separable_set(self):
        grid = default_lambda_grid()
        lam, records = select_lambda(separable_kset(copies=10), grid=grid, seed=3, num_steps=2000)
        by_lam = {r["lambda"]: r["val_hinge"] for r in records}
        assert by_lam[lam] <= by_lam[grid[0]]
        assert by_lam[lam] <= by_lam[grid[-1]]

    def test_tie_breaks_toward_larger_lambda(self):
        # a margin-saturated set where many lambdas reach validation hinge 0
        kset = separable_kset(copies=20)
        lam, records = select_lambda(kset, seed=5, num_steps=3000)
        best = min(r["val_hinge"] for r in records if r["val_hinge"] is not None)
        winners = [r["lambda"] for r in records if r["val_hinge"] == best]
        assert lam == max(winners)

    def test_small_set_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            select_lambda(separable_kset(copies=2), seed=0, num_steps=10)

    def test_per_lambda_failure_skipped(self, caplog):
        # with |z| ~ 1e9, the 1/(1e-300 * 1) first step overflows and that
        # lambda must be skipped, not take down the sweep
        kset = separable_kset(copies=5, scale=1e9)
        with caplog.at_level("WARNING"):
            lam, records = select_lambda(kset, grid=[1.0, 1e-300], seed=0, num_steps=100)
        assert lam == 1.0
        failed = [r for r in records if r["val_hinge"] is None]
        assert len(failed) == 1
        assert failed[0] == {
            "lambda": 1e-300, "val_hinge": None, "steps": None,
            "collapsed": None, "final_train_hinge": None, "objective": None,
        }
        assert records[0]["steps"] == 100 and records[0]["collapsed"] is False
        assert any("skip" in r.message or "failed" in r.message for r in caplog.records)

    def test_every_lambda_failing_raises_in_train_grid(self):
        # the lambda sweep reads train_grid directly, so it raises there, not
        # only in select_lambda
        kset = separable_kset(copies=5, scale=1e9)
        for fit in (mkl.train_grid, select_lambda):
            with pytest.raises(MklError, match="every lambda in the grid failed"):
                fit(kset, [1e-300, 1e-301], 0, 100, 100)

    def test_objective_flags_a_lambda_worse_than_zero(self):
        # on this set t z = (1, 1) for every pair, so the first step sets
        # mu = (1, 1)/lam, no later batch violates while 2/(lam k) >= 1, and
        # mu decays to (1, 1)/(lam T): hinge 0 and F(mu) = 1/(lam T^2) = 1e4
        # at lam = 1e-8, T = 100, far above F(0) = 1
        num_steps = 100
        _, records = select_lambda(separable_kset(), grid=[1.0, 1e-8], seed=0,
                                   num_steps=num_steps)
        small = records[1]
        assert small["final_train_hinge"] == 0.0
        assert small["objective"] == pytest.approx(1.0 / (1e-8 * num_steps**2), rel=1e-9)
        assert records[0]["objective"] < 1.0
        assert [r["objective"] > 1.0 for r in records] == [False, True]


def reference_select_lambda(Z, t, grid, seed, batch_size, num_steps, val_fraction=0.2):
    """select_lambda on plain arrays: the same 80/20 split (the leading
    fifth of the rows validates) and seed ^ idx streams, reference_pegasos
    per lambda, the exact validation hinge, and the first minimum in grid
    order."""
    Z, t = np.asarray(Z, dtype=np.float64), np.asarray(t, dtype=np.float64)
    n_val = max(1, int(np.floor(val_fraction * len(t) + 0.5)))
    tr, va = np.arange(n_val, len(t)), np.arange(n_val)

    def hinge(mu, idx):
        return float(np.mean(np.maximum(0.0, 1.0 - t[idx] * (Z[idx] @ mu))))

    records = []
    for idx, lam in enumerate(grid):
        mu = reference_pegasos(Z[tr], t[tr], lam, batch_size, num_steps, seed ^ idx)
        records.append({
            "lambda": lam, "val_hinge": hinge(mu, va), "steps": num_steps,
            "collapsed": not np.any(mu > 0), "final_train_hinge": hinge(mu, tr),
            "objective": 0.5 * lam * float(mu @ mu) + hinge(mu, tr),
        })
    hinges = [r["val_hinge"] for r in records]
    return grid[hinges.index(min(hinges))], records


class TestSelectLambdaReference:
    @pytest.mark.parametrize("seed", [0, 13])
    def test_records_and_pick_match_plain_array_reference(self, seed):
        # integer z keeps every violator sum exact, so each mu matches the
        # reference bitwise and only the hinge means can round differently
        rng = np.random.default_rng(40 + seed)
        Z = rng.integers(-3, 4, (60, 4)).astype(np.float64)
        t = np.where(Z[:, 0] + Z[:, 1] + rng.normal(0, 1.5, 60) > 0, 1, -1)
        grid = default_lambda_grid()
        lam, records = select_lambda(synth_kset(Z, t), grid, seed=seed, batch_size=10,
                                     num_steps=200)
        want_lam, want = reference_select_lambda(Z, t, grid, seed, 10, 200)
        assert lam == want_lam
        assert len({r["val_hinge"] for r in want}) > 2  # the pick is not a trivial tie
        assert [set(r) for r in records] == [set(r) for r in want]
        for got, ref in zip(records, want):
            assert (got["lambda"], got["steps"], got["collapsed"]) == (
                ref["lambda"], ref["steps"], ref["collapsed"]
            )
            for key in ("val_hinge", "final_train_hinge"):
                assert got[key] == pytest.approx(ref[key], rel=0, abs=1e-12)
            assert got["objective"] == pytest.approx(ref["objective"], rel=1e-12, abs=1e-12)


class TestModelSerialization:
    def test_collapse_flag(self):
        model = MklModel(mu=np.zeros(3), final_train_hinge=1.0, steps_run=10)
        assert model.collapsed
