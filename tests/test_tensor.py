import re

import numpy as np
import pytest

from itals import (
    ObservationTensor,
    SequenceSpec,
    TensorBuildError,
    TensorShape,
    WeightingScheme,
    build_tensor,
    sequential_context,
)

from conftest import make_event_log, seasonal_dataset, synthetic_tensor


def pair_shape(n_users, n_items):
    return TensorShape((n_users, n_items), ("user", "item"))


def ctx_shape(n_users, n_items, n_states):
    return TensorShape((n_users, n_items, n_states), ("user", "item", "context-1"))


class TestTensorShape:
    def test_requires_two_dims(self):
        with pytest.raises(ValueError, match="2 dimensions"):
            TensorShape((5,), ("user",))

    def test_requires_positive_sizes(self):
        with pytest.raises(ValueError, match=">= 1"):
            TensorShape((5, 0), ("user", "item"))

    def test_requires_user_and_item_roles(self):
        with pytest.raises(ValueError, match="'user' and one 'item'"):
            TensorShape((5, 5), ("user", "user"))

    def test_axis_lookups(self):
        shape = ctx_shape(4, 5, 6)
        assert shape.user_axis == 0
        assert shape.item_axis == 1
        assert shape.context_axes == (2,)
        assert shape.n_cells() == 120


class TestWeightingScheme:
    def test_defaults(self):
        scheme = WeightingScheme()
        assert scheme.base == 1.0 and scheme.alpha == 100.0

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            WeightingScheme(base=2.0, alpha=-1.0)

    def test_rejects_weights_at_most_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            WeightingScheme(base=0.5, alpha=0.5)

    @pytest.mark.parametrize("base, alpha", [(1.0, np.nan), (1.0, np.inf), (-np.inf, np.inf)])
    def test_rejects_non_finite_base_or_alpha(self, base, alpha):
        # they used to fail only when the tensor was built
        with pytest.raises(ValueError, match="base and alpha must be finite"):
            WeightingScheme(base=base, alpha=alpha)


class TestBuildTensor:
    def test_single_event_weight(self):
        log = make_event_log([0], [0], [10])
        obs = build_tensor(
            log, [[(0, 1.0)]], ctx_shape(1, 1, 1), WeightingScheme(base=1, alpha=10)
        )
        assert obs.n_nonzero == 1
        assert obs.weights[0] == pytest.approx(11.0)

    def test_repeat_events_merge_into_weight(self):
        log = make_event_log([0, 0, 0], [0, 0, 0], [1, 2, 3])
        obs = build_tensor(
            log,
            [[(2, 1.0)], [(2, 1.0)], [(2, 1.0)]],
            ctx_shape(1, 1, 3),
            WeightingScheme(base=1, alpha=10),
        )
        assert obs.n_nonzero == 1
        assert obs.weights[0] == pytest.approx(1 + 3 * 10)

    def test_distinct_contexts_make_distinct_cells(self):
        log = make_event_log([0, 0], [0, 0], [1, 2])
        obs = build_tensor(log, [[(0, 1.0)], [(1, 1.0)]], ctx_shape(1, 1, 2))
        assert obs.n_nonzero == 2

    def test_two_dims_ignore_context(self):
        log = make_event_log([0, 1], [1, 0], [1, 2])
        obs = build_tensor(log, [[(9, 1.0)], [(9, 1.0)]], pair_shape(2, 2))
        assert obs.n_nonzero == 2
        assert obs.coords[:, 0].max() < 2

    def test_out_of_bounds_names_axis(self):
        log = make_event_log([0], [3], [1])
        with pytest.raises(TensorBuildError, match=r"axis 1 \(item"):
            build_tensor(log, None, pair_shape(1, 2))

    def test_context_state_bounds(self):
        log = make_event_log([0], [0], [1])
        with pytest.raises(TensorBuildError, match="context-1"):
            build_tensor(log, [[(5, 1.0)]], ctx_shape(1, 1, 2))

    def test_relative_weight_range(self):
        log = make_event_log([0], [0], [1])
        with pytest.raises(TensorBuildError, match="relative weight"):
            build_tensor(log, [[(0, 1.5)]], ctx_shape(1, 1, 1))
        with pytest.raises(TensorBuildError, match="relative weight"):
            build_tensor(log, [[(0, 0.0)]], ctx_shape(1, 1, 1))

    @pytest.mark.parametrize("state", [1.7, np.nan, np.inf, -np.inf, 1e30])
    def test_context_state_must_be_an_integer(self, state):
        # 1.7 used to train as state 1, and NaN to warn and then fail as out of bounds
        log = make_event_log([0, 0, 0], [0, 1, 0], [1, 2, 3])
        states = [[(0, 1.0)], [(1, 0.5), (state, 0.5)], [(state, 2.0)]]
        message = f"context state must be an int64 integer, got {state!r} for event 1"
        with pytest.raises(TensorBuildError, match=re.escape(message) + "$"):
            build_tensor(log, states, ctx_shape(1, 2, 2))

    def test_integral_float_and_bool_states_read_as_integers(self):
        log = make_event_log([0, 0], [0, 1], [1, 2])
        want = build_tensor(log, [[(1, 1.0)], [(0, 0.5)]], ctx_shape(1, 2, 2))
        for states in ([[(1.0, 1.0)], [(0.0, 0.5)]], [[(True, 1.0)], [(False, 0.5)]]):
            got = build_tensor(log, states, ctx_shape(1, 2, 2))
            assert np.array_equal(got.coords, want.coords)
            assert np.array_equal(got.weights, want.weights)

    def test_relative_weight_error_names_first_bad_event(self):
        log = make_event_log([0, 0, 0, 0], [0, 1, 0, 1], [1, 2, 3, 4])
        states = [[(0, 1.0), (1, 0.5)], [], [(1, 1.0), (0, 2)], [(0, -1.0)]]
        with pytest.raises(TensorBuildError, match=r"got 2 for event 2$"):
            build_tensor(log, states, ctx_shape(1, 2, 2))

    def test_multi_pair_states_match_per_event_sums(self):
        rng = np.random.default_rng(8)
        n = 60
        log = make_event_log(
            rng.integers(0, 5, n), rng.integers(0, 6, n), np.arange(n), n_users=5, n_items=6
        )
        states = [
            [(int(rng.integers(0, 4)), float(rng.choice([0.25, 0.5, 1.0])))
             for _ in range(int(rng.integers(0, 4)))]
            for _ in range(n)
        ]
        # the context axis first, so keys are not in (user, item, state) order
        shape = TensorShape((4, 5, 6), ("context-1", "user", "item"))
        obs = build_tensor(log, states, shape, WeightingScheme(base=1, alpha=10))
        totals: dict = {}
        for user, item, pairs in zip(log.users.tolist(), log.items.tolist(), states):
            for state, rel in pairs:
                totals[(state, user, item)] = totals.get((state, user, item), 0.0) + rel
        cells = sorted(totals)
        assert obs.coords.tolist() == [list(c) for c in cells]
        assert obs.weights.tolist() == [1 + 10 * totals[c] for c in cells]

    def test_seasonal_log_matches_dict_aggregation(self):
        log, _ = seasonal_dataset(seed=0)
        obs = build_tensor(log, None, pair_shape(log.n_users, log.n_items), WeightingScheme(1, 10))
        totals: dict = {}
        for cell in zip(log.users.tolist(), log.items.tolist()):
            totals[cell] = totals.get(cell, 0.0) + 1.0
        cells = sorted(totals)
        assert obs.coords.tolist() == [list(c) for c in cells]
        assert obs.weights.tolist() == [1 + 10 * totals[c] for c in cells]

    def test_sequence_context_matches_dict_aggregation(self):
        # several decayed states per event, summed in event order
        log, _ = seasonal_dataset(seed=0, n_users=60)
        log = log.sorted_by_user_time()
        spec = SequenceSpec(history_depth=3, decay=0.7, category_count=6, cold_state=5)
        states = sequential_context(log, {i: i % 5 for i in range(log.n_items)}, spec)
        assert max(map(len, states)) == 3
        shape = ctx_shape(log.n_users, log.n_items, 6)
        obs = build_tensor(log, states, shape, WeightingScheme(1, 10))
        totals: dict = {}
        for user, item, pairs in zip(log.users.tolist(), log.items.tolist(), states):
            for state, rel in pairs:
                totals[(user, item, state)] = totals.get((user, item, state), 0.0) + rel
        cells = sorted(totals)
        assert obs.coords.tolist() == [list(c) for c in cells]
        assert obs.weights.tolist() == [1 + 10 * totals[c] for c in cells]

    def test_cell_limit(self):
        log = make_event_log([0], [0], [1])
        with pytest.raises(TensorBuildError, match=f"tensor of {2**63} cells"):
            build_tensor(log, [[(0, 1.0)]], ctx_shape(2**21, 2**21, 2**21))

    def test_small_relative_weight_under_a_low_base(self):
        # 0.5 + 0.6 * 0.1 < 1, though the scheme itself is valid
        log = make_event_log([0], [0], [1])
        with pytest.raises(TensorBuildError, match="cell weight below 1"):
            build_tensor(log, [[(0, 0.1)]], ctx_shape(1, 1, 1), WeightingScheme(0.5, 0.6))

    def test_a_weight_that_rounds_to_one_is_a_cell(self):
        # 1 + 100 * 0.1**19 rounds to 1, the limit of a vanishing relative weight
        log = make_event_log([0, 0], [0, 1], [1, 2])
        obs = build_tensor(log, [[(0, 0.1**19)], [(0, 1.0)]], ctx_shape(1, 2, 1))
        assert obs.weights.tolist() == [1.0, 101.0]

    def test_a_deep_window_of_distinct_categories(self):
        # the 21st purchase's window reaches rank 19, of weight 0.1**19
        n = 21
        log = make_event_log([0] * n, list(range(n)), list(range(n)), n_items=n)
        spec = SequenceSpec(history_depth=20, decay=0.1, category_count=n + 1, cold_state=n)
        pairs = sequential_context(log, {i: i for i in range(n)}, spec)
        obs = build_tensor(log, pairs, ctx_shape(1, n, n + 1))
        assert obs.weights.min() == 1.0
        assert obs.n_nonzero == 1 + sum(range(1, n))

    def test_alpha_zero_requires_bigger_base(self):
        log = make_event_log([0], [0], [1])
        obs = build_tensor(log, None, pair_shape(1, 1), WeightingScheme(base=2, alpha=0))
        assert obs.weights[0] == pytest.approx(2.0)

    def test_empty_log(self):
        log = make_event_log([], [], [], n_users=2, n_items=2)
        obs = build_tensor(log, None, pair_shape(2, 2))
        assert obs.n_nonzero == 0

    def test_cells_at_most_events(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            log = make_event_log(
                rng.integers(0, 4, n), rng.integers(0, 5, n), rng.integers(0, 100, n),
                n_users=4, n_items=5,
            )
            obs = build_tensor(log, None, pair_shape(4, 5))
            assert obs.n_nonzero <= n
            distinct = len({(int(u), int(i)) for u, i in zip(log.users, log.items)})
            assert obs.n_nonzero == distinct

    def test_support_sums_to_n_nonzero(self):
        rng = np.random.default_rng(6)
        n = 50
        log = make_event_log(
            rng.integers(0, 6, n), rng.integers(0, 7, n), rng.integers(0, 100, n),
            n_users=6, n_items=7,
        )
        states = [[(int(rng.integers(0, 3)), 1.0)] for _ in range(n)]
        obs = build_tensor(log, states, ctx_shape(6, 7, 3))
        for axis in range(3):
            assert obs.support[axis].sum() == obs.n_nonzero
            assert obs.support[axis].shape == (obs.shape.dims[axis],)

    def test_rebuild_is_bit_identical(self):
        rng = np.random.default_rng(7)
        n = 30
        log = make_event_log(
            rng.integers(0, 5, n), rng.integers(0, 5, n), rng.integers(0, 50, n),
            n_users=5, n_items=5,
        )
        a = build_tensor(log, None, pair_shape(5, 5))
        b = build_tensor(log, None, pair_shape(5, 5))
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()


class TestObservationTensor:
    def test_rejects_duplicate_coordinates(self):
        with pytest.raises(TensorBuildError, match="duplicate"):
            ObservationTensor(pair_shape(2, 2), [[0, 1], [0, 1]], [2.0, 3.0])
        with pytest.raises(TensorBuildError, match=r"duplicate coordinate \(1, 2\)"):
            ObservationTensor(pair_shape(2, 3), [[1, 2], [0, 0], [1, 2]], [2.0, 3.0, 4.0])

    def test_rejects_small_weights(self):
        with pytest.raises(TensorBuildError, match="not below 1"):
            ObservationTensor(pair_shape(2, 2), [[0, 1]], [np.nextafter(1.0, 0.0)])
        assert ObservationTensor(pair_shape(2, 2), [[0, 1]], [1.0]).weights.tolist() == [1.0]

    def test_rejects_infinite_weights(self):
        # one inf weight used to train all-NaN factors without an error
        with pytest.raises(TensorBuildError, match="finite"):
            ObservationTensor(pair_shape(2, 2), [[0, 0], [0, 1]], [2.0, np.inf])

    def test_rejects_out_of_bounds(self):
        with pytest.raises(TensorBuildError, match="axis 0"):
            ObservationTensor(pair_shape(2, 2), [[2, 0]], [2.0])

    def test_coords_sorted_lexicographically(self):
        obs = ObservationTensor(
            pair_shape(3, 3), [[2, 0], [0, 1], [0, 0]], [2.0, 3.0, 4.0]
        )
        assert obs.coords.tolist() == [[0, 0], [0, 1], [2, 0]]
        assert obs.weights.tolist() == [4.0, 3.0, 2.0]

    def test_shuffled_and_sorted_coords_give_the_same_tensor(self):
        obs = synthetic_tensor((6, 5, 4), 50, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(3):
            order = rng.permutation(obs.n_nonzero)
            again = ObservationTensor(obs.shape, obs.coords[order], obs.weights[order])
            assert again.coords.tobytes() == obs.coords.tobytes()
            assert again.weights.tobytes() == obs.weights.tobytes()
        rows = obs.coords.tolist()
        assert rows == sorted(rows)

    def test_cell_limit(self):
        roles = ("user", "item", "context-1", "context-2")
        with pytest.raises(TensorBuildError, match=f"tensor of {2**63} cells"):
            ObservationTensor(TensorShape((2**16,) * 3 + (2**15,), roles), [[0] * 4], [2.0])
        # the largest cell index of a shape just inside the limit
        corner = [2**16 - 1] * 3 + [2**15 - 2]
        fits = ObservationTensor(TensorShape((2**16,) * 3 + (2**15 - 1,), roles), [corner], [2.0])
        assert fits.coords.tolist() == [corner]

    def test_immutable_arrays(self):
        obs = ObservationTensor(pair_shape(2, 2), [[0, 1]], [2.0])
        with pytest.raises(ValueError):
            obs.weights[0] = 5.0

    def test_axis_groups_cover_cells(self):
        rng = np.random.default_rng(8)
        obs = synthetic_tensor((5, 4, 3), 30, seed=3)
        for axis in range(3):
            order, starts = obs.axis_groups(axis)
            assert starts[0] == 0 and starts[-1] == obs.n_nonzero
            for j in range(obs.shape.dims[axis]):
                cells = order[starts[j] : starts[j + 1]]
                assert np.all(obs.coords[cells, axis] == j)
                assert len(cells) == obs.support[axis][j]
