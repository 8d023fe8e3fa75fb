import os
import sys
import threading
import time

import numpy as np
import pytest

from itals import (
    Model,
    ObservationTensor,
    SolverError,
    TensorShape,
    TrainConfig,
    dense_regularized_loss,
    dense_solve_column,
    effective_lambdas,
    fit,
    gram_product_bruteforce,
    solve_axis,
)
from itals import solver
from itals.solver import REG_MODES, _AxisPlan, init_factors

from conftest import random_observation, synthetic_tensor


def make_model(factors, config=None):
    factors = [np.asarray(m, dtype=np.float64) for m in factors]
    dims = tuple(m.shape[1] for m in factors)
    roles = ["user", "item"] + [f"context-{i}" for i in range(len(dims) - 2)]
    shape = TensorShape(dims, roles)
    config = config or TrainConfig(features=factors[0].shape[0], epochs=1)
    return Model(shape, factors, [m @ m.T for m in factors], config)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(features=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(reg=-1)
        with pytest.raises(ValueError):
            TrainConfig(reg_mode="weird")
        with pytest.raises(ValueError):
            TrainConfig(init_scale=0.0)

    @pytest.mark.parametrize("field, value", [
        ("reg", float("inf")),
        ("reg", float("nan")),
        ("init_scale", float("inf")),
        ("init_scale", float("nan")),
        ("features", 2.5),
        ("features", True),
        ("epochs", 2.5),
        ("epochs", True),
        ("seed", 1.0),
        ("seed", True),
        ("seed", "1"),
    ])
    def test_rejects_non_finite_and_non_integer_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, low, high", [("features", 1, 2**32), ("epochs", 1, 2**32), ("seed", 0, 2**63)])
    def test_integers_fit_the_model_files_trailer(self, field, low, high):
        for value in (low - 1, high):
            with pytest.raises(ValueError, match=rf"^{field} must be an integer in \[{low}, {high}\), got {value}$"):
                TrainConfig(**{field: value})
        for value in (low, np.int64(high - 1)):
            assert getattr(TrainConfig(**{field: value}, init_scale=1.0), field) == value

    def test_default_init_scale(self):
        assert TrainConfig(features=16).init_scale == pytest.approx(0.25)


class TestEffectiveLambda:
    def obs(self):
        shape = TensorShape((2, 3), ("user", "item"))
        return ObservationTensor(shape, [[0, 0], [0, 1], [1, 0]], [2.0, 2.0, 2.0])

    def test_constant(self):
        config = TrainConfig(reg=0.1)
        obs = self.obs()
        assert effective_lambdas(config, obs, 0) == pytest.approx([0.1, 0.1])
        assert effective_lambdas(config, obs, 1) == pytest.approx([0.1, 0.1, 0.1])

    def test_support_proportional(self):
        config = TrainConfig(reg=0.01, reg_mode="support")
        obs = self.obs()
        assert effective_lambdas(config, obs, 0)[0] == pytest.approx(0.02)
        assert effective_lambdas(config, obs, 1)[0] == pytest.approx(0.02)

    def test_zero_support_floor(self):
        config = TrainConfig(reg=0.01, reg_mode="support")
        assert effective_lambdas(config, self.obs(), 1)[2] == pytest.approx(0.01)

    def test_big_support(self):
        shape = TensorShape((1, 250), ("user", "item"))
        coords = np.stack([np.zeros(250, dtype=np.int64), np.arange(250)], axis=1)
        obs = ObservationTensor(shape, coords, np.full(250, 2.0))
        config = TrainConfig(reg=0.01, reg_mode="support")
        assert effective_lambdas(config, obs, 0)[0] == pytest.approx(2.5)


class TestSolveAxis:
    def test_scalar_closed_form(self):
        # one observed cell (w=2) and one implicit zero against unit item
        # factors: minimize 2(1-m)^2 + m^2 -> m = 2/3
        shape = TensorShape((1, 2), ("user", "item"))
        obs = ObservationTensor(shape, [[0, 0]], [2.0])
        model = make_model([[[0.0]], [[1.0, 1.0]]])
        solve_axis(model, obs, 0, 0.0)
        assert model.factors[0][0, 0] == pytest.approx(2.0 / 3.0)

    def test_empty_column_solves_to_zero(self):
        shape = TensorShape((2, 2), ("user", "item"))
        obs = ObservationTensor(shape, [[0, 0]], [3.0])
        model = make_model([np.zeros((1, 2)), [[1.0, 2.0]]])
        solve_axis(model, obs, 0, 0.0)
        assert model.factors[0][0, 1] == 0.0

    def test_axis_without_cells_is_zero_even_when_singular(self):
        # zero minimizes m^T (G + lam I) m even when G + lam I is singular
        shape = TensorShape((2, 2), ("user", "item"))
        obs = ObservationTensor(shape, np.empty((0, 2), dtype=np.int64), [])
        model = make_model([np.ones((2, 2)), np.zeros((2, 2))])
        solve_axis(model, obs, 0, 0.0)
        assert np.array_equal(model.factors[0], np.zeros((2, 2)))

    def test_gram_refreshed(self):
        obs = synthetic_tensor((4, 5, 3), 20, seed=0)
        config = TrainConfig(features=2, epochs=1, reg=0.1, seed=1)
        factors = init_factors(config, obs.shape.dims)
        model = Model(obs.shape, factors, [m @ m.T for m in factors], config)
        solve_axis(model, obs, 1, 0.1)
        assert np.allclose(model.grams[1], model.factors[1] @ model.factors[1].T)

    def test_singular_without_regularization(self):
        shape = TensorShape((2, 2), ("user", "item"))
        obs = ObservationTensor(shape, [[0, 0]], [3.0])
        # rank-deficient item Gram (K=2 from one effective direction of zeros);
        # n = 1 is thin-sized at K = 2 and 4, but lambda = 0 keeps the LU
        # path, which reports the singular system
        for k in (2, 4):
            model = make_model([np.zeros((k, 2)), np.zeros((k, 2))])
            with pytest.raises(SolverError, match="regularization"):
                solve_axis(model, obs, 0, 0.0)

    @staticmethod
    def check_against_dense_solves():
        """solve_axis against dense_solve_column on random instances.

        25 instances draw K from 1..3, 30 more K from 4..12 in both
        reg modes.  Returns (K, per-column cell counts, per-column
        lambdas) of every instance, in solve order.
        """
        instances = []
        rng = np.random.default_rng(42)
        draws = [(1, 4, None)] * 25 + [(4, 13, mode) for mode in ("constant", "support")] * 15
        for low, high, mode in draws:
            obs = random_observation(rng)
            d = obs.ndim
            axis = int(rng.integers(0, d))
            k = int(rng.integers(low, high))
            min_other = min(s for a, s in enumerate(obs.shape.dims) if a != axis)
            reg = float(rng.choice([0.01, 0.1, 1.0] + ([0.0] if k <= min_other else [])))
            config = TrainConfig(
                features=k, epochs=1, reg=reg,
                reg_mode=mode or str(rng.choice(["constant", "support"])),
                seed=int(rng.integers(2**31)),
            )
            factors = init_factors(config, obs.shape.dims)
            model = Model(obs.shape, factors, [m @ m.T for m in factors], config)
            lams = effective_lambdas(config, obs, axis)
            expected = np.stack(
                [
                    dense_solve_column(model, obs, axis, j, lams[j])
                    for j in range(obs.shape.dims[axis])
                ],
                axis=1,
            )
            solve_axis(model, obs, axis, lams)
            np.testing.assert_allclose(model.factors[axis], expected, rtol=1e-8, atol=1e-10)
            instances.append((k, np.diff(obs.axis_groups(axis)[1]), lams))
        return instances

    @staticmethod
    def thin_columns(k, counts, lams):
        """Columns the thin path solves: stored cells, below the flop
        crossover 3 n^2 K + n^3 < K^3, and lambda > 0."""
        n = counts.astype(np.float64)
        return (n > 0) & (3 * n * n * k + n**3 < k**3) & (lams > 0)

    def check_both_paths_ran(self, instances):
        thin = np.concatenate([self.thin_columns(*inst) for inst in instances])
        counts = np.concatenate([c for _, c, _ in instances])
        assert (counts == 0).any()
        assert thin.any()
        assert ((counts > 0) & ~thin).any()
        return counts

    def test_matches_dense_normal_equations(self, lanes):
        for instances in lanes(self.check_against_dense_solves):
            self.check_both_paths_ran(instances)

    def test_matches_dense_normal_equations_in_tiny_blocks(self, monkeypatch, lanes):
        # many blocks per axis, and columns wider than CELL_BLOCK in blocks
        # of their own
        monkeypatch.setattr(solver, "CELL_BLOCK", 5)
        monkeypatch.setattr(solver, "SOLVE_BLOCK", 3)
        calls = []
        column_blocks = solver._column_blocks

        def recorded(counts, n_thin, max_cells, max_cols):
            blocks = column_blocks(counts, n_thin, max_cells, max_cols)
            calls.append((counts, n_thin, blocks))
            return blocks

        monkeypatch.setattr(solver, "_column_blocks", recorded)
        one, two = lanes(self.check_against_dense_solves)
        instances = one + two
        counts = self.check_both_paths_ran(instances)
        assert (counts > 5).any()
        assert len(calls) == len(instances)
        for (widths, n_thin, blocks), inst in zip(calls, instances):
            assert n_thin == self.thin_columns(*inst).sum()
            bounds = [0] + [b1 for _, b1 in blocks]
            assert [b0 for b0, _ in blocks] == bounds[:-1]
            assert bounds[-1] == len(widths)
            for b0, b1 in blocks:
                # no block straddles the thin/thick cut, and a thin block
                # at most doubles its width
                assert b1 <= n_thin or b0 >= n_thin
                if b0 < n_thin:
                    assert widths[b1 - 1] <= 2 * widths[b0]


class TestGramIdentity:
    def test_hadamard_of_grams_equals_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            dims = [int(rng.integers(1, 7)) for _ in range(d)]
            k = int(rng.integers(1, 4))
            factors = [rng.uniform(-1, 1, size=(k, s)) for s in dims]
            axes = [a for a in range(d) if a != 0]
            product = factors[axes[0]] @ factors[axes[0]].T
            for a in axes[1:]:
                product = product * (factors[a] @ factors[a].T)
            brute = gram_product_bruteforce(factors, axes)
            np.testing.assert_allclose(product, brute, atol=1e-10, rtol=1e-10)


class TestFit:
    def test_epoch_count_and_axis_order(self):
        obs = synthetic_tensor((4, 5, 3), 25, seed=1)
        calls = []
        config = TrainConfig(features=2, epochs=3, reg=0.1, seed=0)
        fit(obs, config, after_axis=lambda m, e, a: calls.append((e, a)))
        assert calls == [(e, a) for e in range(3) for a in range(3)]

    def test_rejects_empty_tensor(self):
        shape = TensorShape((2, 2), ("user", "item"))
        obs = ObservationTensor(shape, np.empty((0, 2), dtype=np.int64), [])
        with pytest.raises(SolverError, match="empty"):
            fit(obs, TrainConfig(features=1, epochs=1))

    def test_deterministic_given_seed(self):
        obs = synthetic_tensor((5, 6, 4), 40, seed=9)
        config = TrainConfig(features=3, epochs=2, reg=0.05, seed=123)
        a = fit(obs, config)
        b = fit(obs, config)
        for ma, mb in zip(a.factors, b.factors):
            assert ma.tobytes() == mb.tobytes()

    def test_seed_changes_model(self):
        obs = synthetic_tensor((5, 6, 4), 40, seed=9)
        a = fit(obs, TrainConfig(features=3, epochs=1, reg=0.05, seed=1))
        b = fit(obs, TrainConfig(features=3, epochs=1, reg=0.05, seed=2))
        assert not np.allclose(a.factors[0], b.factors[0])

    def test_loss_non_increasing_small_instance(self):
        obs = synthetic_tensor((4, 5, 3), 30, seed=4)
        config = TrainConfig(features=2, epochs=5, reg=0.1, seed=7)
        losses = []
        fit(obs, config, after_axis=lambda m, e, a: losses.append(
            dense_regularized_loss(m, obs, config)
        ))
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev * (1 + 1e-9)

    def test_overflow_names_epoch_and_axis(self):
        # weights this large used to raise "use a regularization value > 0"
        obs = synthetic_tensor((5, 6, 3), 20, seed=1)
        huge = ObservationTensor(obs.shape, obs.coords, np.full(obs.n_nonzero, 1e300))
        with pytest.raises(SolverError, match=r"non-finite factors in epoch 1, axis 0 \(user\)"):
            fit(huge, TrainConfig(features=3, epochs=2, reg=0.1))

    def test_cells_of_weight_one_against_the_dense_oracle(self):
        # w = 1 is a stored 1 whose w - 1 is 0, on the thin and the thick path
        base = synthetic_tensor((5, 30, 3), 45, seed=6)
        weights = base.weights.copy()
        weights[::2] = 1.0
        obs = ObservationTensor(base.shape, base.coords, weights)
        config = TrainConfig(features=4, epochs=2, reg=0.1, seed=3)
        plans = [_AxisPlan(obs, a, 4, effective_lambdas(config, obs, a)) for a in range(obs.ndim)]
        assert sum(p.n_thin for p in plans) and sum(p.n_thick for p in plans)
        fitted = fit(obs, config)
        factors = init_factors(config, obs.shape.dims)
        model = Model(obs.shape, factors, [m @ m.T for m in factors], config)
        for _ in range(config.epochs):
            for axis in range(obs.ndim):
                lams = effective_lambdas(config, obs, axis)
                columns = [dense_solve_column(model, obs, axis, j, lams[j]) for j in range(obs.shape.dims[axis])]
                factors[axis] = np.stack(columns, axis=1)
                model.grams[axis] = factors[axis] @ factors[axis].T
        for got, want in zip(fitted.factors, factors):
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)

    def test_id_maps_attached(self):
        obs = synthetic_tensor((3, 3), 4, seed=2)
        maps = [["a", "b", "c"], ["x", "y", "z"]]
        model = fit(obs, TrainConfig(features=1, epochs=1, reg=0.1), id_maps=maps)
        assert model.id_maps == maps


def signed_factors(config, dims):
    """Seeded factors of both signs in (-init_scale, init_scale)."""
    rng = np.random.default_rng(config.seed)
    return [rng.uniform(-config.init_scale, config.init_scale, size=(config.features, int(s))) for s in dims]


def zipf_tensor(n_users, n_items, a, seed):
    """User x item tensor whose item columns hold Zipf(a) cells, capped at n_users."""
    rng = np.random.default_rng(seed)
    counts = np.minimum(rng.zipf(a, size=n_items), n_users)
    items = np.repeat(np.arange(n_items), counts)
    # each item's cells are consecutive users from a random start, so distinct
    starts = np.repeat(rng.integers(0, n_users, size=n_items), counts)
    ranks = np.arange(items.size) - np.repeat(np.cumsum(counts) - counts, counts)
    coords = np.stack([(starts + ranks) % n_users, items], axis=1)
    shape = TensorShape((n_users, n_items), ("user", "item"))
    return ObservationTensor(shape, coords, rng.uniform(2.0, 50.0, size=items.size))


class TestAxisPlan:
    @pytest.fixture(scope="class")
    def zipf_obs(self):
        return zipf_tensor(2000, 200_000, 3.0, seed=5)

    @pytest.mark.parametrize("k", [20, 80])
    def test_padding_stays_small_on_zipf_columns(self, zipf_obs, k):
        # a block pads its columns to its widest one; sorted columns and
        # the CELL_BLOCK budget keep that within 10% of the stored cells
        obs = zipf_obs
        for axis in range(2):
            plan = _AxisPlan(obs, axis, k, 0.1)
            assert plan.n_thin + plan.n_thick == (obs.support[axis] > 0).sum()
            assert obs.n_nonzero <= plan.padded_cells <= 1.1 * obs.n_nonzero

    def test_flop_estimate_is_affine_in_stored_cells(self):
        # every column thick and stored in at every size, so each cell adds
        # 2 K^2 per axis and each column a fixed 2 K^3 / 3
        k, dims = 4, (40, 50, 8)
        sizes = [1000, 2000, 4000, 8000]
        flop = []
        for n_plus in sizes:
            obs = synthetic_tensor(dims, n_plus, seed=2)
            plans = [_AxisPlan(obs, axis, k, 0.1) for axis in range(obs.ndim)]
            assert sum(p.n_thick for p in plans) == sum(dims)
            flop.append(sum(p.flop for p in plans))
        slopes = np.diff(flop) / np.diff(sizes)
        np.testing.assert_allclose(slopes, 2 * obs.ndim * k * k, rtol=1e-12)

    def test_counts_follow_the_solvers_split(self):
        obs = synthetic_tensor((12, 30, 3), 80, seed=4)
        assert (obs.support[1] == 0).any()
        k = 6
        for axis in range(obs.ndim):
            lams = effective_lambdas(TrainConfig(reg=0.1, reg_mode="support"), obs, axis)
            plan = _AxisPlan(obs, axis, k, lams)
            counts = obs.support[axis]
            thin = TestSolveAxis.thin_columns(k, counts, lams)
            assert plan.n_thin == thin.sum()
            assert plan.n_thick == ((counts > 0) & ~thin).sum()
            n = counts[counts > 0].astype(np.float64)
            n_thin = counts[thin].astype(np.float64)
            expected = (
                2 * n.sum() * k * k + plan.n_thick * 2 * k**3 / 3
                + (2 * n_thin**2 * k + 2 * n_thin**3 / 3).sum()
            )
            assert plan.flop == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_fit_builds_each_plan_once(self, monkeypatch, epochs):
        calls = []
        column_blocks = solver._column_blocks

        def counted(*args):
            calls.append(args)
            return column_blocks(*args)

        monkeypatch.setattr(solver, "_column_blocks", counted)
        obs = synthetic_tensor((6, 8, 3), 40, seed=4)
        fit(obs, TrainConfig(features=3, epochs=epochs, reg=0.1))
        assert len(calls) == obs.ndim

    @pytest.mark.parametrize("reg_mode", REG_MODES)
    @pytest.mark.parametrize("dims, n_plus", [((12, 30, 3), 80), ((25, 30), 150)])
    def test_fit_equals_a_loop_of_solve_axis(self, monkeypatch, reg_mode, dims, n_plus):
        # signed factors: a padding cell must add exactly zero whatever the
        # signs of the rows it would otherwise have gathered
        monkeypatch.setattr(solver, "init_factors", signed_factors)
        obs = synthetic_tensor(dims, n_plus, seed=4)
        config = TrainConfig(features=6, epochs=3, reg=0.1, reg_mode=reg_mode, seed=5)
        plans = [_AxisPlan(obs, a, 6, effective_lambdas(config, obs, a)) for a in range(obs.ndim)]
        assert any(p.empty.any() for p in plans) or len(dims) == 2
        assert sum(p.n_thin for p in plans) and sum(p.n_thick for p in plans)

        fitted = fit(obs, config)
        factors = signed_factors(config, obs.shape.dims)
        assert (factors[0] < 0).any()
        model = Model(obs.shape, factors, [m @ m.T for m in factors], config)
        for _ in range(config.epochs):
            for axis in range(obs.ndim):
                solve_axis(model, obs, axis, effective_lambdas(config, obs, axis))
        for got, want in zip(fitted.factors + fitted.grams, model.factors + model.grams):
            assert got.tobytes() == want.tobytes()


def same_bits(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


class TestLanes:
    """Training on 1 and on 2 lanes gives the same factor bits."""

    @pytest.mark.parametrize("k", [20, 80])
    def test_fit_on_thin_and_thick_columns(self, lanes, k):
        # item columns hold about 10 cells, thin at both K; users about 75,
        # thick at both; the 3 context columns are thick
        obs = synthetic_tensor((40, 300, 3), 3000, seed=11)
        config = TrainConfig(features=k, epochs=2, reg=0.1, seed=2)
        plans = [_AxisPlan(obs, a, k, 0.1) for a in range(obs.ndim)]
        assert plans[1].n_thin and plans[0].n_thick and not plans[0].n_thin
        # a thin block wide enough to be cut into one slice per lane
        assert any(thin and len(block) > 1 for block, *_, thin in plans[1].blocks)
        one, two = lanes(lambda: fit(obs, config))
        assert same_bits(one.factors + one.grams, two.factors + two.grams)

    @pytest.mark.parametrize("max_cols", [3, 7])
    def test_fit_in_tiny_blocks(self, lanes, monkeypatch, max_cols):
        # blocks of 3 columns are cut into slices of 1 and 2 columns
        monkeypatch.setattr(solver, "CELL_BLOCK", 40)
        monkeypatch.setattr(solver, "SOLVE_BLOCK", max_cols)
        obs = synthetic_tensor((40, 300, 3), 3000, seed=12)
        config = TrainConfig(features=20, epochs=2, reg=0.1, reg_mode="support", seed=3)
        one, two = lanes(lambda: fit(obs, config))
        assert same_bits(one.factors + one.grams, two.factors + two.grams)

    def test_solve_axis(self, lanes):
        obs = synthetic_tensor((30, 200, 4), 2500, seed=13)
        config = TrainConfig(features=24, epochs=1, reg=0.1, seed=4)

        def solved():
            factors = init_factors(config, obs.shape.dims)
            model = Model(obs.shape, factors, [m @ m.T for m in factors], config)
            for axis in range(obs.ndim):
                solve_axis(model, obs, axis, effective_lambdas(config, obs, axis))
            return model

        one, two = lanes(solved)
        assert same_bits(one.factors + one.grams, two.factors + two.grams)

    def test_one_lane_at_a_time_solves_a_column_wider_than_a_block(self, monkeypatch):
        # every user column holds more cells than CELL_BLOCK, so each is a
        # block of its own that cannot be cut; two of them solved at once
        # would hold two blocks' gathers
        monkeypatch.setattr(solver, "_cpu_count", lambda: 2)
        monkeypatch.setattr(solver, "CELL_BLOCK", 8)
        obs = synthetic_tensor((6, 40), 150, seed=15)
        plan = _AxisPlan(obs, 0, 4, 0.1)
        assert len(plan.blocks) == 6 and all(w.size > 8 for _, _, w, _, _ in plan.blocks)
        lock, running, most = threading.Lock(), [0], [0]
        solve = np.linalg.solve

        def watched(*args):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.02)  # room for the other lane to start its own block
            with lock:
                running[0] -= 1
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", watched)
        factors = init_factors(TrainConfig(features=4, seed=1), obs.shape.dims)
        plan.solve(Model(obs.shape, factors, [m @ m.T for m in factors], TrainConfig(features=4)))
        assert most == [1]

    def test_singular_system_in_a_lane_is_a_solver_error(self, lanes):
        # every user column's system is 0: all item factors are zero and lambda is 0
        shape = TensorShape((6, 2), ("user", "item"))
        obs = ObservationTensor(shape, [[u, 0] for u in range(6)], np.full(6, 3.0))

        def solve():
            model = make_model([np.zeros((2, 6)), np.zeros((2, 2))])
            with pytest.raises(SolverError, match="regularization"):
                solve_axis(model, obs, 0, 0.0)

        lanes(solve)

    def test_overflow_names_epoch_and_axis_on_two_lanes(self, monkeypatch):
        monkeypatch.setattr(solver, "_cpu_count", lambda: 2)
        obs = synthetic_tensor((5, 6, 3), 20, seed=1)
        huge = ObservationTensor(obs.shape, obs.coords, np.full(obs.n_nonzero, 1e300))
        with pytest.raises(SolverError, match=r"non-finite factors in epoch 1, axis 0 \(user\)"):
            fit(huge, TrainConfig(features=3, epochs=2, reg=0.1))

    @pytest.mark.parametrize("count", [1, 2])
    def test_threads_started(self, monkeypatch, count):
        monkeypatch.setattr(solver, "_cpu_count", lambda: count)
        started, alive = [], []
        start = threading.Thread.start
        solve_thin = solver._solve_thin

        def counted_start(thread):
            started.append(thread)
            start(thread)

        def watched(*args):
            alive.append(threading.active_count())
            return solve_thin(*args)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        monkeypatch.setattr(solver, "_solve_thin", watched)
        before = threading.active_count()
        fit(synthetic_tensor((40, 300, 3), 3000, seed=11), TrainConfig(features=20, epochs=1, reg=0.1))
        assert alive and threading.active_count() == before
        if count == 1:
            assert not started and set(alive) == {before}
        else:
            assert started and not any(thread.is_alive() for thread in started)


class TestEach:
    def test_runs_every_item_once(self, monkeypatch):
        monkeypatch.setattr(solver, "_cpu_count", lambda: 2)
        seen = []
        solver._each(range(50), seen.append)
        assert sorted(seen) == list(range(50))

    def test_more_lanes_than_cores_under_frequent_switches(self, monkeypatch):
        # a lost update of the shared queue or of a thin block's slice count
        # would skip or repeat an item, or leave a block's columns unsolved
        monkeypatch.setattr(solver, "CELL_BLOCK", 40)
        monkeypatch.setattr(solver, "SOLVE_BLOCK", 9)
        obs = synthetic_tensor((40, 300, 3), 3000, seed=14)
        config = TrainConfig(features=20, epochs=1, reg=0.1, seed=6)
        monkeypatch.setattr(solver, "_cpu_count", lambda: 1)
        expected = fit(obs, config)
        monkeypatch.setattr(solver, "_cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            seen = []
            solver._each(range(2000), seen.append)
            model = fit(obs, config)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(range(2000))
        assert same_bits(model.factors + model.grams, expected.factors + expected.grams)

    @pytest.mark.parametrize("first_to_fail", [0, 1])
    def test_raises_the_earliest_failed_items_exception(self, monkeypatch, first_to_fail):
        # each lane holds one of the first two items before either fails, so
        # both run, one in a started thread; whichever fails first, the
        # exception raised is item 0's, as in a plain loop, and no lane
        # takes another item
        monkeypatch.setattr(solver, "_cpu_count", lambda: 2)
        both = threading.Barrier(2, timeout=10)
        failed_first = threading.Event()
        ran = []

        def work(item):
            if item < 2:
                both.wait()
                ran.append((item, threading.current_thread() is threading.main_thread()))
                if item == first_to_fail:
                    failed_first.set()
                else:
                    assert failed_first.wait(timeout=10)
                raise SolverError(f"item {item}")
            ran.append((item, None))

        with pytest.raises(SolverError, match="^item 0$"):
            solver._each(range(10), work)
        assert sorted(item for item, _ in ran) == [0, 1]
        assert {on_main for _, on_main in ran} == {True, False}

    def test_nested_calls_run_inline(self, monkeypatch):
        monkeypatch.setattr(solver, "_cpu_count", lambda: 2)
        started, inner = [], []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        solver._each(range(4), lambda _: solver._each(range(3), inner.append))
        assert len(started) == 1 and sorted(inner) == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]

    def test_cpu_count_without_an_affinity_call(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for machine, lanes in ((2, 2), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: machine)
            assert solver._cpu_count() == lanes
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        obs = synthetic_tensor((40, 300, 3), 3000, seed=11)
        config = TrainConfig(features=20, epochs=1, reg=0.1, seed=2)
        model = fit(obs, config)
        monkeypatch.setattr(solver, "_cpu_count", lambda: 1)
        assert same_bits(model.factors, fit(obs, config).factors)
