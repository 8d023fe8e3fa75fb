import numpy as np
import pytest

from itals import (
    ContextError,
    Model,
    SeasonSpec,
    SequenceSpec,
    TensorShape,
    TrainConfig,
    assign_time_band,
    last_category_states,
    resolve_context_vector,
    sequential_context,
    time_band_states,
)
from itals.context import _window_states

from conftest import make_event_log

DAY = 86_400
WEEK = 7 * DAY


class TestSeasonSpec:
    def test_uniform(self):
        spec = SeasonSpec.uniform(DAY, 48)
        assert spec.n_bands == 48
        assert spec.band_boundaries[:3] == (0, 1800, 3600)

    def test_uniform_divisibility(self):
        with pytest.raises(ContextError, match="divisible"):
            SeasonSpec.uniform(100, 3)

    def test_first_boundary_zero(self):
        with pytest.raises(ContextError, match="must be 0"):
            SeasonSpec(DAY, (100, 200))

    def test_strictly_increasing(self):
        with pytest.raises(ContextError, match="increasing"):
            SeasonSpec(DAY, (0, 200, 200))

    def test_boundaries_inside_season(self):
        with pytest.raises(ContextError, match="inside"):
            SeasonSpec(DAY, (0, DAY))


class TestAssignTimeBand:
    def test_thirty_minute_bands(self):
        spec = SeasonSpec.uniform(DAY, 48)
        assert assign_time_band(15 * 60, spec) == 0  # 00:15
        assert assign_time_band(13 * 3600, spec) == 26  # 13:00

    def test_weekday_bands(self):
        spec = SeasonSpec.uniform(WEEK, 7)
        # two full days past a season start lands in band 2
        assert assign_time_band(2 * DAY + 12 * 3600, spec) == 2
        assert assign_time_band(10 * WEEK + 2 * DAY, spec) == 2

    def test_wraparound_at_season_length(self):
        spec = SeasonSpec.uniform(DAY, 48)
        assert assign_time_band(DAY, spec) == 0

    def test_utc_offset_shifts_bands(self):
        plain = SeasonSpec.uniform(DAY, 24)
        shifted = SeasonSpec.uniform(DAY, 24, utc_offset=3600)
        assert assign_time_band(0, plain) == 0
        assert assign_time_band(0, shifted) == 1

    def test_periodicity(self):
        rng = np.random.default_rng(0)
        spec = SeasonSpec(DAY, (0, 7_200, 30_000, 60_000))
        ts = rng.integers(0, 10 * DAY, 500)
        assert np.array_equal(
            assign_time_band(ts, spec), assign_time_band(ts + DAY, spec)
        )

    def test_every_event_gets_one_band(self):
        rng = np.random.default_rng(1)
        spec = SeasonSpec.uniform(DAY, 6)
        ts = rng.integers(0, 40 * DAY, 1000)
        bands = assign_time_band(ts, spec)
        assert bands.shape == (1000,)
        assert np.all((bands >= 0) & (bands < 6))
        hist = np.bincount(bands, minlength=6)
        assert hist.sum() == 1000

    def test_states_helper(self):
        spec = SeasonSpec.uniform(DAY, 24)
        states = time_band_states([0, 3600, 7200], spec)
        assert states == [[(0, 1.0)], [(1, 1.0)], [(2, 1.0)]]


class TestSequenceSpec:
    def test_validation(self):
        with pytest.raises(ContextError):
            SequenceSpec(history_depth=0, category_count=2, cold_state=1)
        with pytest.raises(ContextError):
            SequenceSpec(history_depth=1, decay=0.0, category_count=2, cold_state=1)
        with pytest.raises(ContextError):
            SequenceSpec(history_depth=1, category_count=2, cold_state=2)


class TestSequentialContext:
    def spec(self, depth=1, decay=1.0, cats=4):
        # categories 0..cats-1 are real, state `cats` is the cold state
        return SequenceSpec(
            history_depth=depth, decay=decay, category_count=cats + 1, cold_state=cats
        )

    def test_last_purchase_category(self):
        # item 0 is a TV (cat 0), item 1 a DVD player (cat 1); buying the
        # DVD player after the TV carries the TV category as context
        log = make_event_log([0, 0], [0, 1], [10, 20])
        states = sequential_context(log, {0: 0, 1: 1}, self.spec(depth=1))
        assert states[0] == [(4, 1.0)]  # cold state
        assert states[1] == [(0, 1.0)]

    def test_first_event_of_every_user_is_cold(self):
        log = make_event_log([0, 1, 0], [0, 0, 1], [1, 2, 3])
        states = sequential_context(log.sorted_by_user_time(), {0: 0, 1: 1}, self.spec())
        cold = self.spec().cold_state
        assert states[0] == [(cold, 1.0)]
        # user 1's first (and only) event is also cold
        assert [(cold, 1.0)] in (states[1], states[2])

    def test_decay_weights(self):
        log = make_event_log([0, 0, 0], [0, 1, 2], [1, 2, 3])
        states = sequential_context(log, {0: 0, 1: 1, 2: 2}, self.spec(depth=2, decay=0.5))
        assert states[2] == [(1, 1.0), (0, 0.5)]

    def test_duplicate_categories_merge_capped(self):
        log = make_event_log([0, 0, 0, 0], [0, 1, 2, 3], [1, 2, 3, 4])
        mapping = {0: 2, 1: 2, 2: 2, 3: 0}
        states = sequential_context(log, mapping, self.spec(depth=3, decay=1.0))
        assert states[3] == [(2, 1.0)]
        states = sequential_context(log, mapping, self.spec(depth=3, decay=0.25))
        # 1 + 0.25 + 0.0625 capped at 1
        assert states[3] == [(2, 1.0)]

    def test_merge_below_cap(self):
        # duplicate category at ranks 2 and 3: 0.25 + 0.0625, no capping
        log = make_event_log([0, 0, 0, 0], [0, 1, 2, 3], [1, 2, 3, 4])
        mapping = {0: 1, 1: 1, 2: 0, 3: 3}
        states = sequential_context(log, mapping, self.spec(depth=3, decay=0.25))
        assert states[3] == [(0, 1.0), (1, 0.25 + 0.0625)]

    def test_same_timestamp_not_strictly_earlier(self):
        log = make_event_log([0, 0, 0], [0, 1, 2], [5, 5, 9])
        states = sequential_context(log, {0: 0, 1: 1, 2: 2}, self.spec(depth=2))
        cold = self.spec().cold_state
        assert states[0] == [(cold, 1.0)]
        assert states[1] == [(cold, 1.0)]  # ties are not history
        assert states[2] == [(1, 1.0), (0, 1.0)]

    def test_tied_baskets_match_brute_force(self):
        rng = np.random.default_rng(5)
        users, items, stamps = [], [], []
        for user in range(4):
            ts = 0
            for _ in range(12):
                ts += int(rng.integers(0, 3))  # repeated timestamps join baskets
                for _ in range(int(rng.integers(1, 5))):
                    users.append(user)
                    items.append(int(rng.integers(0, 9)))
                    stamps.append(ts)
        log = make_event_log(users, items, stamps, n_users=4, n_items=9)
        mapping = {i: i % 4 for i in range(9)}
        for depth in (1, 2, 4):
            spec = self.spec(depth=depth, decay=0.5)
            states = sequential_context(log, mapping, spec)
            for e in range(len(log)):
                earlier = [
                    mapping[items[p]]
                    for p in range(e)
                    if users[p] == users[e] and stamps[p] < stamps[e]
                ]
                assert states[e] == _window_states(earlier[::-1][:depth], spec)

    def test_many_tied_events_are_all_cold(self):
        n = 20_000
        log = make_event_log(np.zeros(n), np.arange(n) % 7, np.full(n, 42), n_items=7)
        spec = self.spec(depth=3)
        states = sequential_context(log, {i: i % 4 for i in range(7)}, spec)
        assert all(pairs == [(spec.cold_state, 1.0)] for pairs in states)

    def test_window_size_bounds(self):
        rng = np.random.default_rng(3)
        n = 200
        log = make_event_log(
            rng.integers(0, 5, n), rng.integers(0, 6, n), np.sort(rng.integers(0, 10_000, n)),
            n_users=5, n_items=6,
        ).sorted_by_user_time()
        mapping = {i: i % 3 for i in range(6)}
        spec = self.spec(depth=3, decay=0.7, cats=3)
        states = sequential_context(log, mapping, spec)
        for pairs in states:
            assert 1 <= len(pairs) <= 3
            weights = [w for _, w in pairs]
            assert all(0 < w <= 1 for w in weights)

    def test_missing_mapping_names_item(self):
        log = make_event_log([0], [0], [1])
        with pytest.raises(ContextError, match="i0"):
            sequential_context(log, {}, self.spec())

    def test_unsorted_input_rejected(self):
        log = make_event_log([0, 0], [0, 1], [20, 10])
        with pytest.raises(ContextError, match="sorted"):
            sequential_context(log, {0: 0, 1: 1}, self.spec())

    def test_category_colliding_with_cold_state(self):
        log = make_event_log([0], [0], [1])
        spec = SequenceSpec(history_depth=1, category_count=3, cold_state=2)
        with pytest.raises(ContextError, match="reserved"):
            sequential_context(log, {0: 2}, spec)


class TestLastCategoryStates:
    def test_latest_training_purchases(self):
        log = make_event_log([0, 0, 1], [0, 1, 0], [10, 20, 5])
        spec = SequenceSpec(history_depth=2, decay=0.5, category_count=3, cold_state=2)
        per_user = last_category_states(log, {0: 0, 1: 1}, spec)
        assert per_user[0] == [(1, 1.0), (0, 0.5)]
        assert per_user[1] == [(0, 1.0)]
        assert 2 not in per_user

    def test_category_colliding_with_cold_state(self):
        log = make_event_log([0], [0], [1])
        spec = SequenceSpec(history_depth=1, category_count=3, cold_state=2)
        with pytest.raises(ContextError, match="reserved"):
            last_category_states(log, {0: 2}, spec)


def context_model(matrix):
    """Wrap a context factor matrix in a minimal model."""
    matrix = np.asarray(matrix, dtype=np.float64)
    k, s = matrix.shape
    shape = TensorShape((2, 2, s), ("user", "item", "context-1"))
    factors = [np.ones((k, 2)), np.ones((k, 2)), matrix]
    config = TrainConfig(features=k, epochs=1)
    return Model(shape, factors, [m @ m.T for m in factors], config)


class TestResolveContextVector:
    def test_single_state_is_the_column(self):
        model = context_model([[1.0, 2.0], [3.0, 4.0]])
        vec = resolve_context_vector(model, [(1, 1.0)])
        assert np.allclose(vec, [2.0, 4.0])

    def test_opposite_columns_cancel(self):
        model = context_model([[1.0, -1.0], [2.0, -2.0]])
        vec = resolve_context_vector(model, [(0, 1.0), (1, 1.0)])
        assert np.allclose(vec, [0.0, 0.0])

    def test_weighted_average(self):
        model = context_model([[1.0, 0.0], [0.0, 3.0]])
        vec = resolve_context_vector(model, [(0, 1.0), (1, 0.5)])
        assert np.allclose(vec, [2.0 / 3.0, 1.0])

    def test_empty_states_error(self):
        model = context_model([[1.0, 2.0]])
        with pytest.raises(ContextError, match="empty"):
            resolve_context_vector(model, [])

    def test_state_bounds(self):
        model = context_model([[1.0, 2.0]])
        with pytest.raises(ContextError, match="out of bounds"):
            resolve_context_vector(model, [(7, 1.0)])

    def test_weights_must_be_finite_and_positive(self):
        model = context_model([[1.0, 2.0]])
        for weight in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ContextError, match="finite and > 0"):
                resolve_context_vector(model, [(0, 1.0), (1, weight)])
