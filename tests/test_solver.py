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
    effective_lambda,
    effective_lambdas,
    fit,
    gram_product_bruteforce,
    predict_cell,
    solve_axis,
    synthetic_tensor,
)
from itals import solver
from itals.solver import init_factors

from conftest import random_observation


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

    def test_default_init_scale(self):
        assert TrainConfig(features=16).init_scale == pytest.approx(0.25)


class TestEffectiveLambda:
    def obs(self):
        shape = TensorShape((2, 3), ("user", "item"))
        return ObservationTensor(shape, [[0, 0], [0, 1], [1, 0]], [2.0, 2.0, 2.0])

    def test_constant(self):
        config = TrainConfig(reg=0.1)
        obs = self.obs()
        assert effective_lambda(config, obs, 0, 0) == pytest.approx(0.1)
        assert effective_lambda(config, obs, 1, 2) == pytest.approx(0.1)

    def test_support_proportional(self):
        config = TrainConfig(reg=0.01, reg_mode="support")
        obs = self.obs()
        assert effective_lambda(config, obs, 0, 0) == pytest.approx(0.02)
        assert effective_lambda(config, obs, 1, 0) == pytest.approx(0.02)

    def test_zero_support_floor(self):
        config = TrainConfig(reg=0.01, reg_mode="support")
        assert effective_lambda(config, self.obs(), 1, 2) == pytest.approx(0.01)

    def test_big_support(self):
        shape = TensorShape((1, 250), ("user", "item"))
        coords = np.stack([np.zeros(250, dtype=np.int64), np.arange(250)], axis=1)
        obs = ObservationTensor(shape, coords, np.full(250, 2.0))
        config = TrainConfig(reg=0.01, reg_mode="support")
        assert effective_lambda(config, obs, 0, 0) == pytest.approx(2.5)

    def test_vectorized_matches_scalar(self):
        config = TrainConfig(reg=0.01, reg_mode="support")
        obs = self.obs()
        for axis in range(2):
            lams = effective_lambdas(config, obs, axis)
            for j in range(obs.shape.dims[axis]):
                assert lams[j] == effective_lambda(config, obs, axis, j)


class TestPredictCell:
    def test_rank_one_product(self):
        model = make_model([[[2.0]], [[3.0]], [[0.5]]])
        assert predict_cell(model, (0, 0, 0)) == pytest.approx(3.0)

    def test_zero_column_annihilates(self):
        model = make_model([[[0.0, 2.0]], [[3.0, 4.0]]])
        assert predict_cell(model, (0, 0)) == 0.0
        assert predict_cell(model, (0, 1)) == 0.0
        assert predict_cell(model, (1, 1)) == pytest.approx(8.0)

    def test_two_features(self):
        model = make_model([np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])])
        assert predict_cell(model, (0, 0)) == pytest.approx(11.0)

    def test_bounds(self):
        model = make_model([[[1.0]], [[1.0]]])
        with pytest.raises(IndexError):
            predict_cell(model, (0, 5))
        with pytest.raises(IndexError):
            predict_cell(model, (0,))


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
        # rank-deficient item Gram (K=2 from one effective direction of zeros)
        model = make_model([np.zeros((2, 2)), np.zeros((2, 2))])
        with pytest.raises(SolverError, match="regularization"):
            solve_axis(model, obs, 0, 0.0)

    @staticmethod
    def check_against_dense_solves():
        """solve_axis against dense_solve_column on 25 random instances.

        Returns the stored-cell counts of every solved column.
        """
        all_counts = []
        rng = np.random.default_rng(42)
        for _ in range(25):
            obs = random_observation(rng)
            d = obs.ndim
            axis = int(rng.integers(0, d))
            k = int(rng.integers(1, 4))
            min_other = min(s for a, s in enumerate(obs.shape.dims) if a != axis)
            reg = float(rng.choice([0.01, 0.1, 1.0] + ([0.0] if k <= min_other else [])))
            config = TrainConfig(
                features=k, epochs=1, reg=reg,
                reg_mode=str(rng.choice(["constant", "support"])),
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
            all_counts.extend(np.diff(obs.axis_groups(axis)[1]))
        return np.array(all_counts)

    def test_matches_dense_normal_equations(self):
        counts = self.check_against_dense_solves()
        assert (counts == 0).any()

    def test_matches_dense_normal_equations_in_tiny_blocks(self, monkeypatch):
        # many blocks per axis, and columns wider than CELL_BLOCK in blocks
        # of their own
        monkeypatch.setattr(solver, "CELL_BLOCK", 5)
        monkeypatch.setattr(solver, "SOLVE_BLOCK", 3)
        counts = self.check_against_dense_solves()
        assert (counts == 0).any()
        assert (counts > 5).any()


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

    def test_id_maps_attached(self):
        obs = synthetic_tensor((3, 3), 4, seed=2)
        maps = [["a", "b", "c"], ["x", "y", "z"]]
        model = fit(obs, TrainConfig(features=1, epochs=1, reg=0.1), id_maps=maps)
        assert model.id_maps == maps
