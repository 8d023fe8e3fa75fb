import numpy as np
import pytest

from itals import (
    ContextError,
    Model,
    ObservationTensor,
    SolverError,
    TensorShape,
    TrainConfig,
    dense_solve_column,
    effective_lambdas,
    fit_ials,
    fit_ica,
    score_items,
)
from itals.baseline import slice_by_state
from itals.solver import init_factors

from conftest import synthetic_tensor


def band_tensor(n_states, seed=0, n_users=6, n_items=7, n_cells=40, skip_states=()):
    """Random 3-way tensor whose context axis has n_states states."""
    rng = np.random.default_rng(seed)
    shape = TensorShape((n_users, n_items, n_states), ("user", "item", "timeband"))
    rows = set()
    while len(rows) < n_cells:
        state = int(rng.integers(0, n_states))
        if state in skip_states:
            continue
        rows.add((int(rng.integers(0, n_users)), int(rng.integers(0, n_items)), state))
    rows = sorted(rows)
    weights = rng.uniform(2.0, 20.0, size=len(rows))
    return ObservationTensor(shape, np.array(rows), weights)


def dense_als(obs, config):
    """Factors after config.epochs ALS sweeps of dense oracle column solves."""
    factors = init_factors(config, obs.shape.dims)
    model = Model(obs.shape, factors, [m @ m.T for m in factors], config)
    for _ in range(config.epochs):
        for axis in range(obs.ndim):
            lams = effective_lambdas(config, obs, axis)
            model.factors[axis] = np.stack(
                [
                    dense_solve_column(model, obs, axis, j, lams[j])
                    for j in range(obs.shape.dims[axis])
                ],
                axis=1,
            )
    return model.factors


class TestFitIals:
    def test_requires_two_dims(self):
        obs = synthetic_tensor((3, 3, 3), 5, seed=0)
        with pytest.raises(SolverError, match="2-dimensional"):
            fit_ials(obs, TrainConfig(features=2, epochs=1))

    def test_matches_generic_solver_on_two_dims(self):
        for seed in (0, 1, 2):
            obs = synthetic_tensor((8, 9), 30, seed=seed)
            config = TrainConfig(features=3, epochs=3, reg=0.1, seed=seed)
            expected = dense_als(obs, config)
            for ma, mb in zip(fit_ials(obs, config).factors, expected):
                np.testing.assert_allclose(ma, mb, atol=1e-10, rtol=1e-10)

    def test_support_mode_also_matches(self):
        obs = synthetic_tensor((6, 10), 25, seed=5)
        config = TrainConfig(features=2, epochs=2, reg=0.05, reg_mode="support", seed=3)
        expected = dense_als(obs, config)
        for ma, mb in zip(fit_ials(obs, config).factors, expected):
            np.testing.assert_allclose(ma, mb, atol=1e-10)


class TestFitIca:
    def test_one_submodel_per_state(self):
        obs = band_tensor(7, seed=1)
        model = fit_ica(obs, TrainConfig(features=2, epochs=1, reg=0.1, seed=0))
        assert model.n_states == 7
        assert len(model.submodels) == 7

    def test_empty_states_get_null_models(self):
        obs = band_tensor(5, seed=2, skip_states=(1, 3))
        model = fit_ica(obs, TrainConfig(features=2, epochs=1, reg=0.1, seed=0))
        assert model.submodels[1] is None
        assert model.submodels[3] is None
        assert model.submodels[0] is not None

    def test_requires_three_dims(self):
        obs = synthetic_tensor((4, 4), 5, seed=3)
        with pytest.raises(SolverError, match="context"):
            fit_ica(obs, TrainConfig(features=1, epochs=1))

    def test_slice_content(self):
        obs = band_tensor(4, seed=4)
        config = TrainConfig(features=2, epochs=2, reg=0.1, seed=6)
        model = fit_ica(obs, config)
        for state in range(4):
            mask = obs.coords[:, 2] == state
            if not mask.any():
                assert model.submodels[state] is None
                continue
            part = ObservationTensor(
                TensorShape((6, 7), ("user", "item")),
                obs.coords[mask][:, :2],
                obs.weights[mask],
            )
            expected = fit_ials(part, config)
            for ma, mb in zip(model.submodels[state].factors, expected.factors):
                assert np.array_equal(ma, mb)

    @pytest.mark.parametrize("axes", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_slice_matches_mask_reference(self, axes):
        # state 3 holds no cells; the axis orders put the context first and last
        base = band_tensor(5, seed=16, n_cells=45, skip_states=(3,))
        roles = [base.shape.axis_roles[a] for a in axes]
        shape = TensorShape([base.shape.dims[a] for a in axes], roles)
        obs = ObservationTensor(shape, base.coords[:, axes], base.weights)
        ctx, user, item = roles.index("timeband"), roles.index("user"), roles.index("item")
        for state in range(5):
            mask = obs.coords[:, ctx] == state
            part = slice_by_state(obs, state)
            expected = ObservationTensor(
                TensorShape((6, 7), ("user", "item")),
                obs.coords[mask][:, [user, item]],
                obs.weights[mask],
            )
            assert part.coords.tobytes() == expected.coords.tobytes()
            assert part.weights.tobytes() == expected.weights.tobytes()
            assert part.n_nonzero == (0 if state == 3 else mask.sum())
        for state in (-1, 5):
            with pytest.raises(SolverError, match="out of bounds"):
                slice_by_state(obs, state)

    def test_slice_cells_partition(self):
        obs = band_tensor(6, seed=7, n_cells=35)
        total = sum(slice_by_state(obs, s).n_nonzero for s in range(6))
        assert total == obs.n_nonzero

    def test_all_events_one_state(self):
        obs = band_tensor(4, seed=8, skip_states=(0, 2, 3))
        model = fit_ica(obs, TrainConfig(features=2, epochs=1, reg=0.1, seed=0))
        real = [s for s, m in enumerate(model.submodels) if m is not None]
        assert real == [1]

    def test_state_independence(self):
        # adding events in state 0 must not change state 1's sub-model
        base = band_tensor(2, seed=9, n_cells=30)
        keep = {tuple(r) for r in base.coords.tolist()}
        extra = [
            [u, i, 0]
            for u in range(6)
            for i in range(7)
            if (u, i, 0) not in keep
        ][:2]
        assert extra
        grown = ObservationTensor(
            base.shape,
            np.concatenate([base.coords, np.asarray(extra, dtype=np.int64)]),
            np.concatenate([base.weights, np.full(len(extra), 2.0)]),
        )
        config = TrainConfig(features=2, epochs=2, reg=0.1, seed=11)
        a = fit_ica(base, config)
        b = fit_ica(grown, config)
        for ma, mb in zip(a.submodels[1].factors, b.submodels[1].factors):
            assert np.array_equal(ma, mb)
        assert not np.array_equal(a.submodels[0].factors[0], b.submodels[0].factors[0])


class TestPredictIca:
    def test_null_state_scores_zero(self):
        obs = band_tensor(3, seed=10, skip_states=(2,))
        model = fit_ica(obs, TrainConfig(features=2, epochs=1, reg=0.1, seed=0))
        assert np.array_equal(score_items(model, 0, 2), np.zeros(7))

    def test_state_bounds(self):
        obs = band_tensor(3, seed=10)
        model = fit_ica(obs, TrainConfig(features=2, epochs=1, reg=0.1, seed=0))
        with pytest.raises(ContextError, match="out of bounds"):
            score_items(model, 0, 3)

    def test_single_state_composite_equals_plain_ials(self):
        rng = np.random.default_rng(12)
        n_cells = 25
        rows = set()
        while len(rows) < n_cells:
            rows.add((int(rng.integers(0, 5)), int(rng.integers(0, 6))))
        rows = sorted(rows)
        weights = rng.uniform(2.0, 9.0, len(rows))
        flat = ObservationTensor(
            TensorShape((5, 6), ("user", "item")), np.array(rows), weights
        )
        cube = ObservationTensor(
            TensorShape((5, 6, 1), ("user", "item", "timeband")),
            np.array([[u, i, 0] for u, i in rows]),
            weights,
        )
        config = TrainConfig(features=2, epochs=2, reg=0.1, seed=13)
        plain = fit_ials(flat, config)
        composite = fit_ica(cube, config)
        for u in range(5):
            assert np.array_equal(score_items(composite, u, 0), score_items(plain, u))

    def test_states_with_different_slices_score_differently(self):
        obs = band_tensor(2, seed=14, n_cells=30)
        model = fit_ica(obs, TrainConfig(features=2, epochs=2, reg=0.1, seed=15))
        diffs = [
            np.abs(score_items(model, u, 0) - score_items(model, u, 1)).max() for u in range(6)
        ]
        assert max(diffs) > 1e-6
