"""Stochastic subgradient weight learning, lambda selection, and the
hinge concentration diagnostic.

The solver is checked against a brute-force oracle: grid search with
iterative refinement over the non-negative orthant, written against plain
(Z, t) arrays so it shares nothing with the implementation under test.
"""

import numpy as np
import pytest

from kweave.mkl import (
    BoundInputs,
    DivergedError,
    MklConfig,
    MklError,
    MklModel,
    concentration_bound,
    default_lambda_grid,
    hinge_loss,
    lambda_sweep_report,
    pegasos_train,
    select_lambda,
)

from conftest import synth_kset


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


# ---------------------------------------------------------------------------
# pegasos


def reference_pegasos(Z, t, lam, batch_size, num_steps, seed):
    """The solver's steps with a compacted-violator update, on plain arrays.

    Draws the same batches as pegasos_train, gathers each with fancy
    indexing, and sums only the violating rows. Returns mu, or raises
    DivergedError at the first non-finite iterate.
    """
    Z = np.asarray(Z, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    rng = np.random.default_rng(seed)
    mu = np.zeros(Z.shape[1])
    for k in range(1, num_steps + 1):
        idx = rng.integers(0, len(t), size=batch_size)
        z, tb = Z[idx], t[idx]
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
        cfg = MklConfig(lam=lam, batch_size=batch_size, num_steps=400, seed=m + p)
        want = reference_pegasos(Z, t, lam, batch_size, cfg.num_steps, cfg.seed)
        got = pegasos_train(synth_kset(Z, t), cfg)
        np.testing.assert_allclose(got.mu, want, rtol=0, atol=1e-12)

    def test_all_violating_batches_match_reference(self):
        # margins t mu.z are <= 0 < 1 on every pair for every mu >= 0
        rng = np.random.default_rng(31)
        Z = np.abs(rng.normal(0, 1, (20, 3)))
        t = np.array([1, -1] * 10)
        Z[t > 0] *= -1.0
        seen = []
        cfg = MklConfig(lam=0.3, batch_size=10, num_steps=200, seed=4)
        got = pegasos_train(synth_kset(Z, t), cfg, on_step=lambda k, mu: seen.append(mu.copy()))
        want = reference_pegasos(Z, t, 0.3, 10, 200, 4)
        assert not np.any(seen[-1] > 0)  # every update projects back to 0
        np.testing.assert_allclose(got.mu, want, rtol=0, atol=1e-12)

    def test_batches_without_violators_match_reference(self):
        # every pair has t z >= 1 on its only coordinate: once mu >= 1 no
        # batch violates, and mu decays by (1 - 1/k) alone
        Z = np.array([[2.0], [-3.0], [1.5], [-1.0]])
        t = np.array([1, -1, 1, -1])
        cfg = MklConfig(lam=1e-3, batch_size=3, num_steps=300, seed=8)
        got = pegasos_train(synth_kset(Z, t), cfg)
        want = reference_pegasos(Z, t, 1e-3, 3, 300, 8)
        assert got.mu[0] >= 1.0
        np.testing.assert_allclose(got.mu, want, rtol=0, atol=1e-12)

    def test_divergence_step_matches_reference(self):
        Z = np.full((4, 1), 1e200)
        t = np.array([1, -1, 1, -1])
        with pytest.raises(DivergedError) as want:
            reference_pegasos(Z, t, 1e-150, 100, 50, 0)
        with pytest.raises(DivergedError) as got:
            pegasos_train(synth_kset(Z, t), MklConfig(lam=1e-150, num_steps=50, seed=0))
        assert got.value.step == want.value.step

    def test_two_example_set_matches_oracle(self):
        Z = np.array([[1.0, 1.0], [-1.0, -1.0]])
        t = np.array([1, -1])
        kset = synth_kset(Z, t)
        model = pegasos_train(kset, MklConfig(lam=0.01, num_steps=10_000, seed=0))
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
            model = pegasos_train(kset, MklConfig(lam=lam, num_steps=20_000, seed=trial))
            _, f_star = qp_oracle(Z, t.astype(float), lam)
            f_hat = objective(Z, t.astype(float), lam, model.mu)
            assert f_hat <= f_star * 1.01 + 1e-9, f"trial {trial}: {f_hat} vs {f_star}"

    def test_huge_lambda_collapses_weights(self):
        rng = np.random.default_rng(5)
        Z = rng.uniform(-1, 1, (20, 3))
        t = np.array([1, -1] * 10)
        model = pegasos_train(synth_kset(Z, t), MklConfig(lam=1e6, num_steps=2000, seed=0))
        assert np.linalg.norm(model.mu) <= 1e-3

    def test_projection_nonnegative_at_every_step(self):
        rng = np.random.default_rng(8)
        Z = rng.normal(0, 2, (30, 4))
        t = np.where(rng.random(30) < 0.5, 1, -1)
        t[:2] = [1, -1]
        seen = []
        pegasos_train(
            synth_kset(Z, t),
            MklConfig(lam=0.05, num_steps=500, seed=1),
            on_step=lambda k, mu: seen.append(mu.min()),
        )
        assert len(seen) == 500
        assert min(seen) >= 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        Z = rng.normal(0, 1, (12, 2))
        t = np.array([1, -1] * 6)
        cfg = MklConfig(lam=0.1, num_steps=300, seed=77)
        a = pegasos_train(synth_kset(Z, t), cfg)
        b = pegasos_train(synth_kset(Z, t), cfg)
        np.testing.assert_array_equal(a.mu, b.mu)

    def test_single_kclass_rejected(self):
        Z = np.ones((4, 2))
        kset = synth_kset(Z, np.ones(4, dtype=int))
        with pytest.raises(ValueError, match="K-classes"):
            pegasos_train(kset, MklConfig(lam=0.1, num_steps=10, seed=0))

    def test_divergence_reported_with_step(self):
        Z = np.full((4, 1), 1e200)
        t = np.array([1, -1, 1, -1])
        with pytest.raises(DivergedError) as err:
            pegasos_train(synth_kset(Z, t), MklConfig(lam=1e-150, num_steps=50, seed=0))
        assert err.value.step >= 1

    def test_final_hinge_is_exact(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(0, 1, (15, 2))
        t = np.array([1, -1] * 7 + [1])
        kset = synth_kset(Z, t)
        model = pegasos_train(kset, MklConfig(lam=0.2, num_steps=200, seed=0))
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
            "collapsed": None, "final_train_hinge": None,
        }
        assert records[0]["steps"] == 100 and records[0]["collapsed"] is False
        assert any("skip" in r.message or "failed" in r.message for r in caplog.records)


class TestSweepReport:
    def test_singleton_grid_single_record(self):
        records = lambda_sweep_report(
            separable_kset(), [0.5], evaluator=lambda model: 0.9, seed=0, num_steps=100
        )
        assert len(records) == 1
        rec = records[0]
        assert set(rec) == {"lambda", "k_hinge", "k_accuracy", "data_accuracy"}
        assert rec["data_accuracy"] == 0.9

    def test_failures_shrink_record_count(self):
        records = lambda_sweep_report(
            separable_kset(scale=1e9), [1.0, 0.1, 1e-300],
            evaluator=lambda m: 1.0, seed=0, num_steps=100,
        )
        assert len(records) == 2

    def test_none_accuracy_passthrough(self):
        records = lambda_sweep_report(
            separable_kset(), [0.5], evaluator=lambda m: None, seed=0, num_steps=50
        )
        assert records[0]["data_accuracy"] is None


class TestConcentrationBound:
    def test_hand_computed_slack(self):
        b = BoundInputs(gamma=1.0, R=1.0, delta=0.05, n=100, empirical_hinge=0.0)
        assert concentration_bound(b) == pytest.approx(0.48960, abs=1e-4)

    def test_delta_near_one_kills_slack(self):
        b = BoundInputs(gamma=1.0, R=1.0, delta=1 - 1e-12, n=100, empirical_hinge=0.25)
        assert concentration_bound(b) == pytest.approx(0.25, abs=1e-5)

    def test_quadrupling_n_halves_slack_exactly(self):
        for n in (25, 100, 400):
            s1 = concentration_bound(BoundInputs(1.0, 1.0, 0.05, n, 0.0))
            s2 = concentration_bound(BoundInputs(1.0, 1.0, 0.05, 4 * n, 0.0))
            assert s1 == 2.0 * s2

    def test_monotonicities(self):
        base = dict(gamma=1.0, R=1.0, delta=0.1, n=50, empirical_hinge=0.2)

        def val(**kw):
            return concentration_bound(BoundInputs(**{**base, **kw}))

        assert val(empirical_hinge=0.3) > val()
        assert val(R=2.0) > val()
        assert val(n=200) < val()
        assert val(gamma=2.0) < val()
        assert val(delta=0.5) < val()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(gamma=0.0, R=1.0, delta=0.1, n=10, empirical_hinge=0.0)
        with pytest.raises(ValueError):
            BoundInputs(gamma=1.0, R=1.0, delta=1.5, n=10, empirical_hinge=0.0)


class TestModelSerialization:
    def test_collapse_flag(self):
        model = MklModel(
            mu=np.zeros(3), chosen_lambda=1.0, final_train_hinge=1.0,
            validation_hinge=None, steps_run=10, seed=0,
        )
        assert model.collapsed
