import itertools

import numpy as np
import pytest

from itals import (
    DenseCapError,
    Model,
    ObservationTensor,
    TensorShape,
    TrainConfig,
    dense_loss,
    dense_predictions,
    dense_regularized_loss,
    score_items,
)
from itals.solver import init_factors

from conftest import synthetic_tensor


def make_model(factors):
    factors = [np.asarray(m, dtype=np.float64) for m in factors]
    dims = tuple(m.shape[1] for m in factors)
    roles = ["user", "item"] + [f"context-{i}" for i in range(len(dims) - 2)]
    shape = TensorShape(dims, roles)
    config = TrainConfig(features=factors[0].shape[0], epochs=1)
    return Model(shape, factors, [m @ m.T for m in factors], config)


def item_scores(model, user, states):
    """score_items with one unit-weight state per context axis, in axis order."""
    return score_items(
        model, user, {axis: [(state, 1.0)] for axis, state in zip(model.shape.context_axes, states)}
    )


def test_zero_model_loss_is_sum_of_weights():
    obs = synthetic_tensor((3, 4, 2), 10, seed=0)
    model = make_model([np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 2))])
    assert dense_loss(model, obs) == pytest.approx(obs.weights.sum())


def test_perfect_model_zero_loss():
    shape = TensorShape((1, 1), ("user", "item"))
    obs = ObservationTensor(shape, [[0, 0]], [5.0])
    model = make_model([[[1.0]], [[1.0]]])
    assert dense_loss(model, obs) == pytest.approx(0.0)


def test_half_prediction_everywhere():
    # 2x2 tensor, one stored cell w=3, every prediction 0.5:
    # 3*(1-0.5)^2 + 3*1*(0-0.5)^2 = 0.75 + 0.75
    shape = TensorShape((2, 2), ("user", "item"))
    obs = ObservationTensor(shape, [[0, 0]], [3.0])
    model = make_model([[[1.0, 1.0]], [[0.5, 0.5]]])
    assert dense_loss(model, obs) == pytest.approx(1.5)


def test_cap_refusal():
    obs = synthetic_tensor((10, 10, 10), 5, seed=1)
    model = make_model([np.zeros((1, 10))] * 3)
    with pytest.raises(DenseCapError, match="cap"):
        dense_loss(model, obs, cap=999)


def test_dense_predictions_match_cellwise():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        dims = [int(rng.integers(2, 5)) for _ in range(d)]
        factors = [rng.uniform(-1, 1, size=(3, s)) for s in dims]
        model = make_model(factors)
        pred = dense_predictions(model)
        assert pred.shape == tuple(dims)
        for user, *states in itertools.product(range(dims[0]), *(range(s) for s in dims[2:])):
            np.testing.assert_allclose(
                pred[(user, slice(None), *states)],
                item_scores(model, user, states),
                rtol=0,
                atol=1e-12,
            )


def test_dense_loss_matches_manual_enumeration():
    rng = np.random.default_rng(6)
    obs = synthetic_tensor((3, 3, 2), 6, seed=7)
    factors = [rng.uniform(0, 1, size=(2, s)) for s in obs.shape.dims]
    model = make_model(factors)
    stored = {tuple(c): w for c, w in zip(obs.coords.tolist(), obs.weights)}
    total = 0.0
    for coord in itertools.product(*(range(s) for s in obs.shape.dims)):
        w = stored.get(coord, 1.0)
        t = 1.0 if coord in stored else 0.0
        user, item, *states = coord
        total += w * (t - item_scores(model, user, states)[item]) ** 2
    assert dense_loss(model, obs) == pytest.approx(total, rel=1e-12)


def test_regularized_loss_adds_column_penalties():
    obs = synthetic_tensor((3, 4), 5, seed=8)
    config = TrainConfig(features=2, epochs=1, reg=0.5, reg_mode="support", seed=0)
    factors = init_factors(config, obs.shape.dims)
    model = Model(obs.shape, factors, [m @ m.T for m in factors], config)
    base = dense_loss(model, obs)
    penalty = 0.0
    for axis in range(2):
        for j in range(obs.shape.dims[axis]):
            lam = 0.5 * max(int(obs.support[axis][j]), 1)
            penalty += lam * float(factors[axis][:, j] @ factors[axis][:, j])
    assert dense_regularized_loss(model, obs, config) == pytest.approx(base + penalty)
