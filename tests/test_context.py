import re
import time
import tracemalloc

import numpy as np
import pytest

from itals import (
    ContextError,
    ContextPairs,
    EvalError,
    Model,
    RequestPairs,
    SeasonSpec,
    SequenceContext,
    SequenceSpec,
    SplitSpec,
    TensorShape,
    TimeBandContext,
    TrainConfig,
    WeightingScheme,
    assign_time_band,
    build_tensor,
    last_category_states,
    recall_precision_at,
    sequential_context,
    split_by_date,
    time_band_states,
)
from itals import context
from itals.evaluation import _pairs, _resolve, score_items

from conftest import basket_dataset, make_event_log, seasonal_dataset

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

    def test_values_outside_int64_rejected(self):
        for season, offset in ((2**63, 0), (DAY, 2**63), (DAY, -(2**63) - 1), (DAY, 10**20)):
            with pytest.raises(ContextError, match="int64"):
                SeasonSpec(season, (0,), offset)
        SeasonSpec(2**63 - 1, (0,), -(2**63))
        SeasonSpec(DAY, (0,), 2**63 - 1)

    @pytest.mark.parametrize("args, name, value", [
        ((86400.9, (0, 3600)), "season_length", 86400.9),
        ((True, (0,)), "season_length", True),
        ((DAY, (0, 3600.7)), "band boundary", 3600.7),
        ((DAY, (0, "7200")), "band boundary", "7200"),
        ((DAY, (False, 3600)), "band boundary", False),
        ((DAY, (0,), True), "utc_offset", True),
        ((DAY, (0,), 0.5), "utc_offset", 0.5),
    ])
    def test_values_are_integers(self, args, name, value):
        # each used to be truncated by int(): 86400.9 built a season of 86400
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ContextError, match=f"^{re.escape(message)}$"):
            SeasonSpec(*args)
        spec = SeasonSpec(np.int64(DAY), [np.int32(0), np.uint16(3600)], np.int8(-3))
        assert spec == SeasonSpec(DAY, (0, 3600), -3)
        assert type(spec.season_length) is int and type(spec.band_boundaries[1]) is int

    @pytest.mark.parametrize("args, name, value", [
        ((DAY, True), "bands", True),
        ((DAY, 2.5), "bands", 2.5),
        ((DAY, np.float64(6)), "bands", np.float64(6)),
        ((DAY + 0.0, 6), "season_length", DAY + 0.0),
        ((DAY, 6, True), "utc_offset", True),
    ])
    def test_uniform_takes_integers(self, args, name, value):
        # uniform(DAY, True) used to build one band, uniform(DAY, 2.5) to raise a TypeError
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ContextError, match=f"^{re.escape(message)}$"):
            SeasonSpec.uniform(*args)
        assert SeasonSpec.uniform(np.int64(DAY), np.int32(6)) == SeasonSpec.uniform(DAY, 6)


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

    def test_no_overflow_near_the_int64_limits(self):
        def true_band(ts, spec):
            offset = (ts + spec.utc_offset) % spec.season_length  # Python ints do not wrap
            return sum(b <= offset for b in spec.band_boundaries) - 1

        big = 2**63 - 1
        cases = [
            (big - 99, SeasonSpec.uniform(DAY, 6, utc_offset=3600)),  # band 4, not 2
            (5, SeasonSpec(DAY, (0, DAY // 2), utc_offset=big)),
            (2**62, SeasonSpec(big, (0, 2**62), utc_offset=2**62)),
            (big, SeasonSpec(big, (0, 1, big - 1), utc_offset=-(2**63))),
        ]
        rng = np.random.default_rng(9)
        for _ in range(200):
            season = int(rng.integers(1, big >> int(rng.integers(0, 63)), endpoint=True))
            bounds = sorted({0, *(int(b) for b in rng.integers(0, season, 3))})
            offset = int(rng.integers(-(2**63), big, endpoint=True))
            ts = int(rng.integers(0, big, endpoint=True))
            cases.append((ts, SeasonSpec(season, bounds, offset)))
        assert assign_time_band(big - 99, cases[0][1]) == 4
        for ts, spec in cases:
            assert assign_time_band(ts, spec) == true_band(ts, spec)
            assert assign_time_band(np.array([ts, 0]), spec).tolist() == [
                true_band(ts, spec), true_band(0, spec)
            ]

    def test_states_helper(self):
        spec = SeasonSpec.uniform(DAY, 24)
        states = time_band_states([0, 3600, 7200], spec)
        assert list(states) == [[(0, 1.0)], [(1, 1.0)], [(2, 1.0)]]


class TestSequenceSpec:
    def test_validation(self):
        with pytest.raises(ContextError):
            SequenceSpec(history_depth=0, category_count=2, cold_state=1)
        with pytest.raises(ContextError):
            SequenceSpec(history_depth=1, decay=0.0, category_count=2, cold_state=1)
        with pytest.raises(ContextError):
            SequenceSpec(history_depth=1, category_count=2, cold_state=2)

    @pytest.mark.parametrize("depth", [2.5, True, 0, "2"])
    def test_history_depth_is_an_integer_of_at_least_one(self, depth):
        # 2.5 used to raise a TypeError inside the window rule, True to act as 1
        message = f"history_depth must be an integer >= 1, got {depth!r}"
        with pytest.raises(ContextError, match=message):
            SequenceSpec(history_depth=depth, category_count=2, cold_state=1)
        assert SequenceSpec(history_depth=np.int64(2), category_count=2, cold_state=1)

    @pytest.mark.parametrize("field, value", [
        ("category_count", 2.5),
        ("category_count", True),
        ("category_count", "3"),
        ("cold_state", 0.5),
        ("cold_state", False),
    ])
    def test_category_count_and_cold_state_are_integers(self, field, value):
        # a cold state of 0.5 used to construct and fail later in build_tensor,
        # naming an event instead of the spec
        args = {"history_depth": 1, "category_count": 3, "cold_state": 0, field: value}
        with pytest.raises(ContextError, match=f"^{field} must be an integer, got {value!r}$"):
            SequenceSpec(**args)
        assert SequenceSpec(history_depth=1, category_count=np.int64(3), cold_state=np.int32(2))

    @pytest.mark.parametrize("decay", ["0.5", True, None, 0.0, 1.5, float("nan")])
    def test_decay_is_a_real_number_in_the_unit_interval(self, decay):
        # "0.5" used to raise a TypeError, and True to be stored as it was
        message = f"decay must be a real number in (0, 1], got {decay!r}"
        with pytest.raises(ContextError, match=f"^{re.escape(message)}$"):
            SequenceSpec(history_depth=1, decay=decay, category_count=2, cold_state=1)
        for decay in (np.float64(0.5), np.float32(0.25), 1):
            spec = SequenceSpec(history_depth=1, decay=decay, category_count=2, cold_state=1)
            assert spec.decay == decay


def brute_force_window(earlier, spec):
    """The context of a user's categories ``earlier`` (oldest first), merged pair by pair.

    The last ``history_depth`` categories, most recent first, weigh 1,
    decay, decay**2, ...; a repeat adds its weight to the pair of its first
    place, capped at 1.  No window at all is the cold state.
    """
    pairs = []
    for rank, cat in enumerate(earlier[::-1][: spec.history_depth]):
        weight = spec.decay**rank
        places = [j for j, (seen, _) in enumerate(pairs) if seen == cat]
        if places:
            pairs[places[0]] = (cat, min(1.0, pairs[places[0]][1] + weight))
        else:
            pairs.append((cat, weight))
    return pairs or [(spec.cold_state, 1.0)]


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
        # then in time order: the users interleave, each still in time order
        order = np.argsort(stamps, kind="stable")
        for users, items, stamps in (
            (users, items, stamps), ([seq[p] for p in order] for seq in (users, items, stamps))
        ):
            self.check_against_brute_force(users, items, stamps)

    def check_against_brute_force(self, users, items, stamps):
        log = make_event_log(users, items, stamps, n_users=4, n_items=9)
        mapping = {i: i % 4 for i in range(9)}
        # depth 60 exceeds every history; at decay 0.9 a repeat crosses the cap
        for depth, decay in ((1, 0.5), (2, 0.5), (4, 0.5), (60, 0.5), (4, 0.9), (60, 1.0)):
            spec = self.spec(depth=depth, decay=decay)
            states = sequential_context(log, mapping, spec)
            for e in range(len(log)):
                earlier = [
                    mapping[items[p]]
                    for p in range(e)
                    if users[p] == users[e] and stamps[p] < stamps[e]
                ]
                assert states[e] == brute_force_window(earlier, spec)
            per_user = last_category_states(log, mapping, spec)
            for user in range(4):
                history = [mapping[i] for u, i in zip(users, items) if u == user]
                assert per_user[user] == brute_force_window(history, spec)
            if decay == 0.9:  # a later place at weight 1 is a capped repeat
                assert any(w == 1.0 for pairs in states for _, w in pairs[1:])

    def test_empty_log(self):
        log = make_event_log([], [], [], n_users=0, n_items=0)
        assert list(sequential_context(log, {}, self.spec(depth=3))) == []
        assert last_category_states(log, {}, self.spec(depth=3)) == {}

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

    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_pairs_per_event_stay_at_most_the_depth(self, depth):
        # 8 categories, 30 purchases per user in tied baskets, repeats common
        rng = np.random.default_rng(11)
        users = np.repeat(np.arange(6), 30)
        stamps = np.concatenate([np.sort(rng.integers(0, 12, 30)) for _ in range(6)])
        log = make_event_log(users, rng.integers(0, 12, users.size), stamps, n_users=6, n_items=12)
        mapping = {i: i % 8 for i in range(12)}
        spec = self.spec(depth=depth, decay=0.8, cats=8)
        sizes = [len(pairs) for pairs in sequential_context(log, mapping, spec)]
        sizes += [len(pairs) for pairs in last_category_states(log, mapping, spec).values()]
        assert max(sizes) == depth

    def test_depth_beyond_the_history_builds_no_more_weights(self):
        # the window weights used to be built for the whole depth on every call
        log = make_event_log([0, 0, 1], [0, 1, 2], [1, 2, 3])
        mapping = {0: 0, 1: 1, 2: 0}

        def contexts(depth):
            spec = self.spec(depth=depth, decay=0.5)
            return list(sequential_context(log, mapping, spec)), last_category_states(log, mapping, spec)

        assert contexts(10**12) == contexts(3)
        tracemalloc.start()
        try:
            assert contexts(10**6) == contexts(3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200_000

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

    @staticmethod
    def sorted_copy_rule(train, item_to_category, spec):
        """The rule as it was: a sorted copy of the whole log, users found by np.unique."""
        ordered = train.sorted_by_user_time()
        users, starts, counts = np.unique(ordered.users, return_index=True, return_counts=True)
        categories, codes = context._category_codes(ordered.items, item_to_category, spec, ordered.item_ids)
        offsets, states, weights = context._windows(categories, codes, starts, starts + counts, spec)
        bounds, states, weights = offsets.tolist(), states.tolist(), weights.tolist()
        return {
            user: list(zip(states[start:end], weights[start:end]))
            for user, start, end in zip(users.tolist(), bounds, bounds[1:])
        }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_sorted_copy_rule(self, seed):
        rng = np.random.default_rng(seed)
        users, items, stamps = random_baskets(rng, n_users=40, trips=12, n_items=30)
        # rows in no order: the rule sorts by user and time itself
        shuffle = rng.permutation(users.size)
        log = make_event_log(users[shuffle], items[shuffle], stamps[shuffle], n_users=40, n_items=30)
        mapping = {i: (i * 5) % 9 for i in range(30)}
        for depth, decay in ((1, 0.5), (3, 0.7), (50, 1.0)):
            spec = SequenceSpec(history_depth=depth, decay=decay, category_count=10, cold_state=9)
            got = last_category_states(log, mapping, spec)
            assert repr(got) == repr(self.sorted_copy_rule(log, mapping, spec))
        empty = make_event_log([], [], [], n_users=0, n_items=0)
        assert last_category_states(empty, mapping, spec) == {}


class TestContextSpecs:
    """Each spec equals the extractors combined as the command line combined them before the specs."""

    @staticmethod
    def time_band_rule(train, test, season):
        order = np.lexsort((test.timestamps, test.users))
        users = test.users[order]
        first = order[np.r_[True, users[1:] != users[:-1]]]
        bands = assign_time_band(test.timestamps[first], season)
        requests = {u: [(b, 1.0)] for u, b in zip(test.users[first].tolist(), bands.tolist())}
        return (train, time_band_states(train.timestamps, season)), requests

    @staticmethod
    def sequence_rule(train, test, mapping, n_categories, depth, decay):
        spec = SequenceSpec(depth, decay, n_categories + 1, n_categories)
        ordered = train.sorted_by_user_time()
        per_user = last_category_states(train, mapping, spec)
        cold = [(spec.cold_state, 1.0)]
        requests = {u: per_user.get(u, cold) for u in np.unique(test.users).tolist()}
        return (ordered, sequential_context(ordered, mapping, spec)), requests

    @staticmethod
    def assert_same(ctx, train, test, want):
        (want_events, want_pairs), want_requests = want
        events, pairs = ctx.training(train)
        for column in ("users", "items", "timestamps"):
            assert getattr(events, column).tobytes() == getattr(want_events, column).tobytes()
        for column in ("offsets", "states", "weights"):
            assert getattr(pairs, column).tobytes() == getattr(want_pairs, column).tobytes()
        requests = ctx.requests(train, test)
        assert isinstance(requests, RequestPairs)
        assert repr(dict(requests)) == repr(want_requests)
        assert all(type(user) is int for user in requests)

    @staticmethod
    def split(log, split_ts, every):
        """The date split, less the training events of every ``every``-th user (left with no history)."""
        train, test = split_by_date(log, SplitSpec(split_ts))
        train = train.select(train.users % every != 0)
        assert np.setdiff1d(test.users, train.users).size > 0
        return train, test

    @pytest.mark.parametrize("seed", [0, 1])
    def test_time_bands_on_the_seasonal_log(self, seed):
        log, split_ts = seasonal_dataset(seed=seed, n_users=80)
        train, test = self.split(log, split_ts, 7)
        for season in (SeasonSpec.uniform(DAY, 6), SeasonSpec(WEEK, (0, 3600, 40000, DAY), 3600)):
            ctx = TimeBandContext(season)
            assert ctx.role == "timeband"
            assert ctx.names == [f"band-{b}" for b in range(season.n_bands)]
            self.assert_same(ctx, train, test, self.time_band_rule(train, test, season))

    @pytest.mark.parametrize("user_sorted", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sequences_on_the_basket_log(self, seed, user_sorted):
        log, split_ts, mapping = basket_dataset(seed=seed, n_users=60)
        if user_sorted:
            log = log.sorted_by_user_time()
        train, test = self.split(log, split_ts, 5)
        names = [f"c{c}" for c in range(13)]
        for depth, decay in ((1, 1.0), (4, 0.6), (30, 0.9)):
            ctx = SequenceContext(depth, decay, mapping, names)
            assert ctx.role == "category"
            assert ctx.names == [*names, "__no_prior__"]
            want = self.sequence_rule(train, test, mapping, 13, depth, decay)
            self.assert_same(ctx, train, test, want)

    def test_empty_test_log(self):
        log, split_ts = seasonal_dataset(seed=0, n_users=20)
        train, test = split_by_date(log, SplitSpec(split_ts))
        empty = test.select(np.zeros(len(test), dtype=bool))
        assert TimeBandContext(SeasonSpec.uniform(DAY, 6)).requests(train, empty) == {}
        ctx = SequenceContext(2, 0.5, {i: 0 for i in range(log.n_items)}, ["c"])
        assert ctx.requests(train, empty) == {}

    def test_sequence_spec_is_checked_on_construction(self):
        with pytest.raises(ContextError, match="history_depth must be an integer >= 1"):
            SequenceContext(0, 0.5, {}, ["a"])
        with pytest.raises(ContextError, match="decay must be a real number"):
            SequenceContext(2, "0.5", {}, ["a"])
        ctx = SequenceContext(2, 0.5, {0: 1}, iter(["a", "b"]))
        assert ctx.category_names == ("a", "b")
        assert (ctx.spec.category_count, ctx.spec.cold_state) == (3, 2)

    def test_from_rows_takes_one_category_per_item(self):
        ctx = SequenceContext.from_rows(2, 0.5, [3, 1, 3, 0], [1, 0, 1, 1], ["a", "b"])
        assert ctx.item_to_category == {0: 1, 1: 0, 3: 1}
        assert ctx.names == ["a", "b", "__no_prior__"]
        # i1 catA, i2 catB, then i1 catB: i1 used to keep catB, and catA to name an empty state
        with pytest.raises(ContextError, match="^item 'i1' has two categories, 'catA' and 'catB'$"):
            SequenceContext.from_rows(1, 1.0, [1, 2, 1], [0, 1, 1], ["catA", "catB"], ["i0", "i1", "i2"])
        with pytest.raises(ContextError, match="^item 2 has two categories, 'x' and 'z'$"):
            SequenceContext.from_rows(1, 1.0, [2, 0, 2, 2], [2, 0, 0, 2], ["x", "y", "z"])
        assert SequenceContext.from_rows(1, 1.0, [], [], []).item_to_category == {}


class TestRequestPairs:
    """A ``RequestPairs`` is the read-only mapping {user: pairs} of its columns."""

    def test_mapping(self):
        requests = RequestPairs([2, 5, 9], [0, 1, 3, 4], [1, 0, 2, 3], [1.0, 0.5, 0.25, 1.0])
        assert dict(requests) == {2: [(1, 1.0)], 5: [(0, 0.5), (2, 0.25)], 9: [(3, 1.0)]}
        assert requests == {2: [(1, 1.0)], 5: [(0, 0.5), (2, 0.25)], 9: [(3, 1.0)]}
        assert requests[np.int32(5)] == [(0, 0.5), (2, 0.25)]
        assert list(requests) == [2, 5, 9] and all(type(user) is int for user in requests)
        assert 9 in requests and 4 not in requests and "2" not in requests and 10 not in requests
        for user in (-1, 3, 10, "2", 2.0):
            with pytest.raises(KeyError):
                requests[user]
        for column in (requests.users, requests.offsets, requests.states, requests.weights):
            assert not column.flags.writeable
        assert repr(requests) == "RequestPairs(3 users, 4 pairs)"

    @pytest.mark.parametrize(
        "users, offsets, message",
        [
            ([1, 1], [0, 1, 2], "users must ascend and be distinct"),
            ([2, 1], [0, 1, 2], "users must ascend and be distinct"),
            ([1.0, 2.0], [0, 1, 2], "users must be integers"),
            ([1, 2], [0, 2], "offsets must start at 0"),
            ([1, 2], [1, 1, 2], "offsets must start at 0"),
            ([1, 2], [0, 2, 1], "offsets must start at 0"),
            ([1, 2], [0, 1, 1], "offsets must end at the number"),
            ([[1, 2]], [0, 1, 2], "users must be a 1-D array"),
        ],
    )
    def test_constructor_checks_the_layout(self, users, offsets, message):
        with pytest.raises(ContextError, match=message):
            RequestPairs(users, offsets, [0, 1], [1.0, 1.0])

    def test_sequence_requests_without_any_history(self):
        log, split_ts, mapping = basket_dataset(seed=2, n_users=20)
        train, test = split_by_date(log, SplitSpec(split_ts))
        nobody = train.select(np.zeros(len(train), dtype=bool))
        requests = SequenceContext(3, 0.5, mapping, [f"c{c}" for c in range(13)]).requests(nobody, test)
        assert dict(requests) == {user: [(13, 1.0)] for user in np.unique(test.users).tolist()}


def random_baskets(rng, n_users, trips, n_items):
    """Columns of a log whose users make ``trips`` trips of 1-4 items each.

    A user's trips may share a timestamp (one basket), user 0 makes none
    (a cold user), and the rows are in time order, so users interleave.
    """
    users, items, stamps = [], [], []
    for user in range(1, n_users):
        ts = 0
        for _ in range(int(rng.integers(0, trips + 1))):
            ts += int(rng.integers(0, 3))  # 0 joins the previous basket
            for _ in range(int(rng.integers(1, 5))):
                users.append(user)
                items.append(int(rng.integers(0, n_items)))
                stamps.append(ts)
    order = np.argsort(stamps, kind="stable")
    return [np.asarray(seq, dtype=np.int64)[order] for seq in (users, items, stamps)]


class TestWindowKernel:
    """The vectorized window rule equals a scan of the module docstring's rule, weights by ==."""

    # depth 1, depths around and beyond every history, decay 1.0, and
    # decays at which repeats stay below the cap of 1 or reach it
    SPECS = ((1, 0.5), (2, 1.0), (3, 0.9), (4, 0.6), (5, 0.3), (60, 0.7), (10**9, 1.0))

    @pytest.mark.parametrize("cells", [None, 5], ids=["one-block", "blocks-of-5-cells"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_a_scan_of_the_rule(self, seed, cells, monkeypatch):
        if cells is not None:  # many row blocks, and rows wider than a block
            monkeypatch.setattr(context, "_WINDOW_CELLS", cells)
        rng = np.random.default_rng(seed)
        users, items, stamps = random_baskets(rng, n_users=6, trips=14, n_items=10)
        log = make_event_log(users, items, stamps, n_users=6, n_items=10)
        mapping = {i: (i * 7) % 5 for i in range(10)}
        users, items, stamps = users.tolist(), items.tolist(), stamps.tolist()
        repeats = {"below the cap": 0, "at the cap": 0}
        for depth, decay in self.SPECS:
            spec = SequenceSpec(history_depth=depth, decay=decay, category_count=6, cold_state=5)
            states = sequential_context(log, mapping, spec)
            assert len(states) == len(log)
            for e in range(len(log)):
                earlier = [
                    mapping[items[p]] for p in range(len(log))
                    if users[p] == users[e] and stamps[p] < stamps[e]
                ]
                assert states[e] == brute_force_window(earlier, spec)
            per_user = last_category_states(log, mapping, spec)
            assert 0 not in per_user  # the cold user has no history
            for user in range(1, 6):
                history = [mapping[i] for u, i in zip(users, items) if u == user]
                assert per_user.get(user) == (brute_force_window(history, spec) if history else None)
                recent = history[::-1][:depth]
                for cat, weight in per_user.get(user, []):
                    if recent.count(cat) > 1:
                        repeats["at the cap" if weight == 1.0 else "below the cap"] += 1
        assert min(repeats.values()) > 0, repeats


class TestWindowDepthGuard:
    """Adversarial depths stay bounded in memory and time."""

    def test_a_huge_depth_on_a_short_log(self):
        # the matrix is as wide as the longest window, not as the depth
        log = make_event_log(
            [0, 0, 0, 1, 1, 0, 2, 2, 1, 0], [0, 1, 2, 3, 0, 1, 2, 3, 0, 1], [1, 2, 2, 3, 4, 5, 6, 7, 8, 9]
        )
        mapping = {i: i for i in range(4)}

        def contexts(depth):
            spec = SequenceSpec(history_depth=depth, decay=0.5, category_count=5, cold_state=4)
            return list(sequential_context(log, mapping, spec)), last_category_states(log, mapping, spec)

        tracemalloc.start()
        try:
            got = contexts(10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == contexts(10)
        assert peak < 200_000

    def test_one_deep_user_among_many_short_ones(self):
        # 12.5 million window cells, merged in row blocks: the peak read
        # 6.1 MiB here, and 9.1 MiB for a per-window Python loop
        rng = np.random.default_rng(0)
        users = np.concatenate([np.zeros(5000, np.int64), np.repeat(np.arange(1, 1001), 5)])
        stamps = np.concatenate([np.arange(5000), np.tile(np.arange(5), 1000)])
        log = make_event_log(users, rng.integers(0, 40, users.size), stamps, n_items=40)
        spec = SequenceSpec(history_depth=5000, decay=0.9, category_count=15, cold_state=14)
        mapping = {i: i % 14 for i in range(40)}
        tracemalloc.start()
        began = time.perf_counter()
        try:
            states = sequential_context(log, mapping, spec)
            per_user = last_category_states(log, mapping, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - began < 20.0
        assert peak < 12 * 2**20
        # the deep user's last window holds every category, most recent first
        last = [mapping[i] for i in log.items[:5000][::-1].tolist()]
        assert per_user[0] == brute_force_window(last[::-1], spec)
        assert states[4999] == brute_force_window(last[:0:-1], spec)


    def test_a_window_ends_where_its_weight_underflows(self):
        # 0.5**1075 is 0.0: from the 1,076th most recent category on, a
        # window of distinct categories would hold pairs of weight 0
        n = 1200
        assert 0.5**1074 > 0.0 == 0.5**1075
        log = make_event_log([0] * n, list(range(n)), list(range(n)), n_items=n)
        spec = SequenceSpec(history_depth=2000, decay=0.5, category_count=n + 1, cold_state=n)
        mapping = {i: i for i in range(n)}
        pairs = sequential_context(log, mapping, spec)
        assert np.diff(pairs.offsets).tolist() == [1] + [min(e, 1075) for e in range(1, n)]
        assert pairs.weights.min() > 0.0
        obs = build_tensor(log, pairs, TensorShape((1, n, n + 1), ("user", "item", "context-1")))
        assert obs.n_nonzero == pairs.states.size
        request = last_category_states(log, mapping, spec)[0]
        assert request == [pair for pair in brute_force_window(list(range(n)), spec) if pair[1] > 0.0]
        assert len(request) == 1075
        model = context_model(np.ones((2, n + 1)))
        assert score_items(model, 0, request).tolist() == [2.0, 2.0]


class TestContextPairs:
    LISTS = [[(3, 1.0), (1, 0.5)], [], [(0, 0.25)], [(2, 1.0), (0, 0.75), (4, 0.125)]]

    def test_columns(self):
        pairs = ContextPairs.from_lists(self.LISTS)
        assert len(pairs) == 4
        assert pairs.offsets.dtype == np.int64 and pairs.offsets.tolist() == [0, 2, 2, 3, 6]
        assert pairs.states.dtype == np.int64 and pairs.states.tolist() == [3, 1, 0, 2, 0, 4]
        assert pairs.weights.dtype == np.float64
        assert pairs.weights.tolist() == [1.0, 0.5, 0.25, 1.0, 0.75, 0.125]
        for column in (pairs.offsets, pairs.states, pairs.weights):
            assert column.ndim == 1 and not column.flags.writeable

    def test_a_sequence_of_pair_lists(self):
        pairs = ContextPairs.from_lists(self.LISTS)
        assert list(pairs) == self.LISTS
        assert [pairs[e] for e in range(4)] == self.LISTS
        for index in (np.int64(3), np.int32(3), np.uint8(3), -1):
            assert pairs[index] == self.LISTS[3]
        assert all(type(s) is int and type(w) is float for s, w in pairs[3])
        for index in (4, -5):
            with pytest.raises(IndexError):
                pairs[index]
        with pytest.raises(TypeError):
            pairs[1.0]
        assert list(ContextPairs.from_lists([])) == []

    def test_extractors_return_columns(self):
        log = make_event_log([0, 0, 1, 0], [0, 1, 2, 2], [1, 1, 2, 5])
        spec = SequenceSpec(history_depth=2, decay=0.5, category_count=4, cold_state=3)
        states = sequential_context(log, {0: 0, 1: 1, 2: 2}, spec)
        assert isinstance(states, ContextPairs)
        assert list(states) == [[(3, 1.0)], [(3, 1.0)], [(3, 1.0)], [(1, 1.0), (0, 0.5)]]
        bands = time_band_states([0, 3600, 7200], SeasonSpec.uniform(DAY, 24))
        assert isinstance(bands, ContextPairs)
        assert bands.offsets.tolist() == [0, 1, 2, 3] and bands.states.tolist() == [0, 1, 2]

    def test_build_tensor_reads_the_columns_as_it_reads_the_lists(self):
        rng = np.random.default_rng(2)
        users, items, stamps = random_baskets(rng, n_users=8, trips=10, n_items=9)
        log = make_event_log(users, items, stamps, n_users=8, n_items=9)
        spec = SequenceSpec(history_depth=3, decay=0.7, category_count=5, cold_state=4)
        pairs = sequential_context(log, {i: i % 4 for i in range(9)}, spec)
        shape = TensorShape((8, 9, 5), ("user", "item", "category"))
        want = build_tensor(log, list(pairs), shape, WeightingScheme(1, 10))
        got = build_tensor(log, pairs, shape, WeightingScheme(1, 10))
        assert got.coords.tobytes() == want.coords.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()

    def test_from_lists_names_the_first_bad_pair(self):
        with pytest.raises(ContextError, match=r"^relative weight must be in \(0, 1\], got 2 for event 2$"):
            ContextPairs.from_lists([[(0, 1.0)], [], [(1, 1.0), (0, 2)], [(0.5, 1.0)]])
        with pytest.raises(ContextError, match=r"^context state must be an int64 integer, got 0.5 for event 1$"):
            ContextPairs.from_lists([[(0, 1.0)], [(0.5, 1.0)], [(1, 2.0)]])

    @pytest.mark.parametrize("offsets, states, weights, message", [
        ([1, 2], [0], [1.0], "start at 0"),
        ([0, 2, 1], [0, 1], [1.0, 1.0], "never fall"),
        ([], [], [], "start at 0"),
        ([0, 1], [0, 1], [1.0, 1.0], "end at the number"),
        ([0, 2], [0, 1], [1.0], "end at the number"),
        ([0, 1], [0.5], [1.0], "states must be a 1-D array castable to int64"),
        ([0.0, 1.0], [0], [1.0], "offsets must be"),
        ([[0, 1]], [0], [1.0], "offsets must be"),
        ([0, 1, 2], [0, 1], [1.0, 0.0], r"got 0.0 for event 1$"),
        ([0, 2], [0, 1], [np.nan, 1.0], r"got nan for event 0$"),
        ([0, 0, 1], [0], [1.5], r"got 1.5 for event 1$"),
    ])
    def test_constructor_checks_the_columns(self, offsets, states, weights, message):
        with pytest.raises(ContextError, match=message):
            ContextPairs(offsets, states, weights)

    def test_constructor_leaves_the_callers_arrays_writeable(self):
        offsets, states, weights = np.array([0, 1]), np.array([2]), np.array([0.5])
        pairs = ContextPairs(offsets, states, weights)
        assert offsets.flags.writeable and states.flags.writeable and weights.flags.writeable
        assert pairs[0] == [(2, 0.5)]


def context_model(matrix):
    """Wrap a context factor matrix in a minimal model."""
    matrix = np.asarray(matrix, dtype=np.float64)
    k, s = matrix.shape
    shape = TensorShape((2, 2, s), ("user", "item", "context-1"))
    factors = [np.ones((k, 2)), np.ones((k, 2)), matrix]
    config = TrainConfig(features=k, epochs=1)
    return Model(shape, factors, [m @ m.T for m in factors], config)


def resolve_one(matrix, pairs):
    """The request context vector of one list of pairs, by the one-list form."""
    return _resolve(np.asarray(matrix, dtype=np.float64), [pairs])[:, 0]


def looped_vector(matrix, pairs):
    """The weighted average of ``matrix`` columns, summed in list order."""
    vec, total = np.zeros(matrix.shape[0]), 0.0
    for state, weight in pairs:
        vec += weight * matrix[:, state]
        total += weight
    return vec / total


class TestResolveContextVector:
    """The scorer's request resolver, ``evaluation._resolve``, at one list."""

    def test_single_state_is_the_column(self):
        vec = resolve_one([[1.0, 2.0], [3.0, 4.0]], [(1, 1.0)])
        assert np.allclose(vec, [2.0, 4.0])

    def test_opposite_columns_cancel(self):
        vec = resolve_one([[1.0, -1.0], [2.0, -2.0]], [(0, 1.0), (1, 1.0)])
        assert np.allclose(vec, [0.0, 0.0])

    def test_weighted_average(self):
        vec = resolve_one([[1.0, 0.0], [0.0, 3.0]], [(0, 1.0), (1, 0.5)])
        assert np.allclose(vec, [2.0 / 3.0, 1.0])

    def test_empty_states_error(self):
        # an empty request is refused before it reaches the resolver
        model = context_model([[1.0, 2.0]])
        with pytest.raises(EvalError, match="empty"):
            score_items(model, 0, [])

    def test_state_bounds(self):
        for pairs in ([(7, 1.0)], [(0, 1.0), (-1, 1.0)], [(0.7, 1.0)]):
            with pytest.raises(ContextError, match="out of bounds"):
                resolve_one([[1.0, 2.0]], pairs)

    def test_weights_must_be_finite_and_positive(self):
        for weight in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ContextError, match="finite and > 0"):
                resolve_one([[1.0, 2.0]], [(0, 1.0), (1, weight)])


class TestResolveContextMatrix:
    """``evaluation._resolve`` on a block of lists."""

    def test_columns_equal_the_vector_bit_for_bit(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(6, 9))
        lists = [
            [(int(rng.integers(0, 9)), float(rng.uniform(0.1, 2.0)))
             for _ in range(int(rng.integers(1, 5)))]
            for _ in range(40)
        ]
        block = _resolve(matrix, _pairs(lists, 9))
        assert block.shape == (6, 40)
        for j, pairs in enumerate(lists):
            assert block[:, j].tobytes() == resolve_one(matrix, pairs).tobytes()
            assert block[:, j].tobytes() == looped_vector(matrix, pairs).tobytes()

    def test_a_long_list_in_a_block(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(5, 30))
        lists = [
            [(int(rng.integers(0, 30)), float(rng.uniform(0.1, 2.0))) for _ in range(length)]
            for length in (1, 5_000, 3, 1, 2)
        ]
        block = _resolve(matrix, _pairs(lists, 30))
        for j, pairs in enumerate(lists):
            assert block[:, j].tobytes() == resolve_one(matrix, pairs).tobytes()

    def test_numpy_and_integer_weights_sum_as_floats(self):
        # a float32 weight used to make the one-list total a float32 sum
        matrix = np.random.default_rng(7).normal(size=(3, 4))
        fractions, counts = (0.1, 0.7, 0.3), (1, 3, 2)
        kinds = ((np.float32, fractions), (np.float16, fractions), (np.int64, counts), (int, counts))
        for kind, values in kinds:
            pairs = [(state, kind(value)) for state, value in enumerate(values)]
            block = _resolve(matrix, _pairs([pairs, [(3, 1.0)]], 4))
            expected = looped_vector(matrix, [(s, float(w)) for s, w in pairs])
            assert block[:, 0].tobytes() == expected.tobytes()
            assert resolve_one(matrix, pairs).tobytes() == expected.tobytes()

    def test_errors_match_the_vector(self):
        matrix = np.array([[1.0, 2.0]])
        # an empty request is refused before it reaches the resolver
        test = make_event_log([0, 1], [0, 1], [1, 2])
        with pytest.raises(EvalError, match="empty"):
            recall_precision_at(context_model(matrix), test, 2, {0: [(0, 1.0)], 1: []})
        with pytest.raises(ContextError, match=r"context state 7 out of bounds \(size 2\)"):
            _resolve(matrix, _pairs([[(0, 1.0)], [(1, 1.0), (7, 1.0)]], 2))
        with pytest.raises(ContextError, match=r"context state 0.7 out of bounds \(size 2\)"):
            _resolve(matrix, _pairs([[(0, 1.0)], [(1, 1.0), (0.7, 1.0)]], 2))
        for weight in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ContextError, match="finite and > 0"):
                _resolve(matrix, _pairs([[(0, 1.0)], [(0, 1.0), (1, weight)]], 2))

    def test_numpy_integer_states(self):
        matrix = np.random.default_rng(5).normal(size=(3, 4))
        lists = [[(1, 0.5), (3, 1.0)], [(2, 1.0)]]
        expected = _resolve(matrix, _pairs(lists, 4))
        for kind in (np.int64, np.uint64, np.int32):
            mixed = [[(kind(s), w) for s, w in lists[0]], lists[1]]
            assert _resolve(matrix, _pairs(mixed, 4)).tobytes() == expected.tobytes()
            assert resolve_one(matrix, mixed[0]).tobytes() == expected[:, 0].tobytes()
        for state in (1.0, np.float64(1.0), "1", None):
            with pytest.raises(ContextError, match="out of bounds"):
                _resolve(matrix, _pairs([[(state, 1.0)], [(2, 1.0)]], 4))
            with pytest.raises(ContextError, match="out of bounds"):
                resolve_one(matrix, [(state, 1.0)])
