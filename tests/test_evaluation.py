import io
import logging
import re
import tracemalloc

import numpy as np
import pytest

from itals import (
    CompositeModel,
    ContextError,
    EvalError,
    Model,
    RankingReport,
    RequestPairs,
    SeasonSpec,
    SequenceContext,
    SplitSpec,
    TensorShape,
    TimeBandContext,
    TrainConfig,
    assign_time_band,
    build_tensor,
    emit_pr_curve,
    fit,
    fit_ials,
    fit_ica,
    implicitize,
    ingest_ratings,
    recall_precision_at,
    recommend_topn,
    split_by_date,
    time_band_states,
)
from itals import evaluation
from itals.evaluation import score_items

from conftest import DAY, basket_dataset, make_event_log, seasonal_dataset


def scoring_model(user_matrix, item_matrix, context_matrix=None):
    factors = [np.asarray(user_matrix, float), np.asarray(item_matrix, float)]
    roles = ["user", "item"]
    if context_matrix is not None:
        factors.append(np.asarray(context_matrix, float))
        roles.append("context-1")
    shape = TensorShape(tuple(m.shape[1] for m in factors), tuple(roles))
    config = TrainConfig(features=factors[0].shape[0], epochs=1)
    return Model(shape, factors, [m @ m.T for m in factors], config)


def composite_model(user_matrices, item_matrices, n_users, n_items):
    """Composite of per-state scoring models; a None pair makes a null state."""
    subs = [
        None if u is None else scoring_model(u, i) for u, i in zip(user_matrices, item_matrices)
    ]
    shape = TensorShape((n_users, n_items, len(subs)), ("user", "item", "context-1"))
    return CompositeModel(2, shape, subs, TrainConfig(features=2, epochs=1))


def brute_force_report(model, test, n_max, request_states=None, seen=None, average="macro"):
    """Per-user reference: lexsort on (id, -score) after exclusion, then count hits."""
    n_users = model.shape.dims[model.shape.user_axis]
    hits, n_relevant = [], []
    for user in sorted(set(test.users.tolist())):
        relevant = set(test.items[test.users == user].tolist())
        flags = np.zeros(n_max)
        if user < n_users:
            states = None if request_states is None else request_states[user]
            scores = score_items(model, user, states)
            ids = np.arange(scores.size)
            if seen is not None:
                keep = ~np.isin(ids, seen.items[seen.users == user])
                ids, scores = ids[keep], scores[keep]
            top = ids[np.lexsort((ids, -scores))][:n_max]
            flags[: top.size] = [i in relevant for i in top.tolist()]
        hits.append(np.cumsum(flags))
        n_relevant.append(len(relevant))
    hits, n_relevant = np.array(hits), np.array(n_relevant, dtype=np.float64)
    steps = np.arange(1, n_max + 1)
    if average == "macro":
        return (hits / n_relevant[:, None]).mean(axis=0), (hits / steps).mean(axis=0)
    return hits.sum(axis=0) / n_relevant.sum(), hits.sum(axis=0) / (steps * len(hits))


def looped_report(
    model, test, n_max, requests=None, seen=None, average="macro", skip_unknown=False
):
    """(recall, precision) of one recommend_topn call per test user, summed in user order."""
    n_users = model.shape.dims[model.shape.user_axis]
    steps = np.arange(1, n_max + 1, dtype=np.float64)
    recall_sum, precision_sum, hits_sum = np.zeros(n_max), np.zeros(n_max), np.zeros(n_max)
    total_relevant = n_eval = 0
    for user in np.unique(test.users).tolist():
        if user >= n_users and skip_unknown:
            continue
        relevant = np.unique(test.items[test.users == user])
        flags = np.zeros(n_max)
        if user < n_users:
            states = None if requests is None else requests[user]
            exclude = None if seen is None else seen.items[seen.users == user]
            ranked = recommend_topn(model, user, states, n_max, exclude_items=exclude)
            flags[: ranked.items.size] = np.isin(ranked.items, relevant)
        hits = np.cumsum(flags)
        n_eval += 1
        total_relevant += relevant.size
        hits_sum += hits
        recall_sum += hits / relevant.size
        precision_sum += hits / steps
    if average == "macro":
        return recall_sum / n_eval, precision_sum / n_eval
    return hits_sum / total_relevant, hits_sum / (steps * n_eval)


def assert_bitwise_report(report, reference):
    recall, precision = reference
    assert report.recall.tobytes() == recall.tobytes()
    assert report.precision.tobytes() == precision.tobytes()


def identity_scorer(score_rows):
    """Model whose score for (user, item) is score_rows[user][item]."""
    scores = np.asarray(score_rows, dtype=np.float64)
    n_users, n_items = scores.shape
    return scoring_model(scores.T, np.eye(n_items))


class TestImplicitize:
    def parse(self, text):
        return ingest_ratings(io.StringIO(text))

    def test_five_star_rule(self):
        ratings = self.parse("u\ta\t5\t1\nu\tb\t4\t2\nv\tc\t5\t3\n")
        events = implicitize(ratings, 5.0)
        assert len(events) == 2
        assert events.items.tolist() == [0, 2]

    def test_half_star_threshold(self):
        ratings = self.parse("u\ta\t4.5\t1\nu\tb\t5.0\t2\nu\tc\t4.0\t3\n")
        events = implicitize(ratings, 4.5)
        assert len(events) == 2

    def test_zero_threshold_keeps_all(self):
        ratings = self.parse("u\ta\t1\t1\nu\tb\t3\t2\n")
        events = implicitize(ratings, 0.0)
        assert len(events) == len(ratings)
        assert events.timestamps.tolist() == [1, 2]


class TestSplitByDate:
    def log(self):
        return make_event_log([0, 0, 1, 1], [0, 1, 0, 1], [10, 20, 30, 40])

    def test_partition(self):
        train, test = split_by_date(self.log(), SplitSpec(25))
        assert len(train) == 2 and len(test) == 2
        assert train.timestamps.max() < 25 <= test.timestamps.min()

    def test_all_before_split_gives_empty_test(self, caplog):
        with caplog.at_level(logging.WARNING, logger="itals"):
            train, test = split_by_date(self.log(), SplitSpec(100))
        assert len(test) == 0
        assert "empty test" in caplog.text

    def test_horizon_bounds_test_window(self):
        log = make_event_log([0, 0, 0], [0, 1, 2], [10, 50, 200_000])
        train, test = split_by_date(log, SplitSpec(20, test_horizon=86_400))
        assert len(train) == 1
        assert len(test) == 1  # the far-future event is dropped
        assert test.timestamps.max() - 20 < 86_400

    @pytest.mark.parametrize("split, horizon, field, bad", [
        ("3", None, "split_timestamp", "'3'"),
        (True, None, "split_timestamp", "True"),
        (float("nan"), None, "split_timestamp", "nan"),
        (10, True, "test_horizon", "True"),
        (10, "5", "test_horizon", "'5'"),
        (10, float("nan"), "test_horizon", "nan"),
    ])
    def test_split_and_horizon_are_real_numbers(self, split, horizon, field, bad):
        # "3" used to fail inside numpy, True to give a one-second horizon,
        # and a NaN to put every event in the test log or none
        with pytest.raises(EvalError, match=f"^{field} must be a real number, got {bad}$"):
            SplitSpec(split, horizon)
        train, test = split_by_date(self.log(), SplitSpec(np.int64(15), np.float64(20.0)))
        assert train.timestamps.tolist() == [10] and test.timestamps.tolist() == [20, 30]

    def test_exhaustive_without_horizon(self):
        log = self.log()
        train, test = split_by_date(log, SplitSpec(25))
        assert len(train) + len(test) == len(log)


class TestRecommendTopn:
    def test_all_items_when_n_large(self):
        model = identity_scorer([[0.5, 0.1, 0.9]])
        ranked = recommend_topn(model, 0, None, 10)
        assert ranked.items.tolist() == [2, 0, 1]
        assert list(ranked.scores) == sorted(ranked.scores, reverse=True)

    def test_monotone_construction(self):
        # item columns are scalar multiples of the user direction
        user = np.array([[1.0], [2.0]])
        multiples = [0.3, 1.5, 0.7, 1.1]
        items = np.array([[m * 1.0 for m in multiples], [m * 2.0 for m in multiples]])
        model = scoring_model(user, items)
        ranked = recommend_topn(model, 0, None, 4)
        assert ranked.items.tolist() == [1, 3, 2, 0]

    def test_ties_break_by_ascending_id(self):
        model = identity_scorer([[1.0, 1.0, 1.0, 2.0]])
        ranked = recommend_topn(model, 0, None, 4)
        assert ranked.items.tolist() == [3, 0, 1, 2]

    def test_exclude_items(self):
        model = identity_scorer([[5.0, 4.0, 3.0, 2.0]])
        ranked = recommend_topn(model, 0, None, 3, exclude_items=np.array([0, 2]))
        assert ranked.items.tolist() == [1, 3]

    def test_exclude_ids_outside_the_items_rejected(self):
        # -1 used to drop the last item and 4 to raise a bare IndexError
        model = identity_scorer([[5.0, 4.0, 3.0, 2.0]])
        for bad in ([-1], [0, 4], [2**40]):
            with pytest.raises(EvalError, match=r"\[0, 4\)"):
                recommend_topn(model, 0, None, 3, exclude_items=np.array(bad))
        ranked = recommend_topn(model, 0, None, 3, exclude_items=np.array([], dtype=np.int64))
        assert ranked.items.tolist() == [0, 1, 2]

    def test_exclude_ids_that_are_not_integers_rejected(self):
        # 1.7 and True used to be read as item 1
        model = identity_scorer([[5.0, 4.0, 3.0, 2.0]])
        for bad in ([1.7], [True], np.array([1.0]), ["1"]):
            with pytest.raises(EvalError, match="excluded item ids must be integers"):
                recommend_topn(model, 0, None, 3, exclude_items=bad)
        for empty in ([], np.array([]), ()):
            assert recommend_topn(model, 0, None, 3, exclude_items=empty).items.tolist() == [0, 1, 2]
        for ids in ([1], np.array([1], dtype=np.uint8), np.array([1], dtype=np.int32)):
            assert recommend_topn(model, 0, None, 3, exclude_items=ids).items.tolist() == [0, 2, 3]

    def test_a_user_that_is_not_an_integer_rejected(self):
        # True used to score user 1, and 1.7 user 1 through the bounds test
        model = identity_scorer([[1.0, 2.0], [3.0, 4.0]])
        for bad in (True, 1.7, 1.0, "1", np.array(1)):
            with pytest.raises(EvalError, match="user must be a Python or numpy integer"):
                score_items(model, bad)
            with pytest.raises(EvalError, match="user must be a Python or numpy integer"):
                recommend_topn(model, bad, None, 2, allow_unknown=True)
        assert score_items(model, np.int32(1)).tolist() == [3.0, 4.0]

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(21)
        user_m = rng.normal(size=(20, 5))
        item_m = rng.normal(size=(20, 60))
        model = scoring_model(user_m, item_m)
        for user in range(5):
            scores = user_m[:, user] @ item_m
            expected = sorted(range(60), key=lambda i: (-scores[i], i))[:20]
            ranked = recommend_topn(model, user, None, 20)
            assert ranked.items.tolist() == expected

    def test_duplicate_exclusions(self):
        model = identity_scorer([[5.0, 4.0, 3.0, 2.0, 1.0]])
        ranked = recommend_topn(model, 0, None, 2, exclude_items=np.array([0, 2, 0, 2, 2]))
        assert ranked.items.tolist() == [1, 3]
        assert ranked.scores.tolist() == [4.0, 2.0]

    def test_n_beyond_remaining_candidates(self):
        model = identity_scorer([[1.0, 3.0, 3.0, 0.0, 3.0]])
        ranked = recommend_topn(model, 0, None, 10, exclude_items=np.array([2, 3, 3]))
        assert ranked.items.tolist() == [1, 4, 0]
        assert ranked.scores.tolist() == [3.0, 3.0, 1.0]
        ranked = recommend_topn(model, 0, None, 10, exclude_items=np.arange(5))
        assert ranked.items.tolist() == []

    def test_nan_scores_rank_last(self):
        model = scoring_model([[1.0]], [[1.0, np.nan, 3.0, 2.0, np.nan]])
        assert recommend_topn(model, 0, None, 4).items.tolist() == [2, 3, 0, 1]
        assert recommend_topn(model, 0, None, 2).items.tolist() == [2, 3]
        ranked = recommend_topn(model, 0, None, 3, exclude_items=np.array([2, 3]))
        assert ranked.items.tolist() == [0, 1, 4]

    def test_unknown_user(self):
        model = identity_scorer([[1.0, 2.0]])
        with pytest.raises(EvalError, match="unknown user"):
            recommend_topn(model, 5, None, 2)
        ranked = recommend_topn(model, 5, None, 2, allow_unknown=True)
        assert np.all(ranked.scores == 0.0)

    def test_context_required_for_tensor_model(self):
        model = scoring_model(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 5)))
        with pytest.raises(EvalError, match="context"):
            recommend_topn(model, 0, None, 2)

    def test_context_vector_reweights_scores(self):
        user = np.array([[1.0], [1.0]])
        items = np.array([[1.0, 0.0], [0.0, 1.0]])
        ctx = np.array([[2.0, 0.0], [0.0, 3.0]])
        model = scoring_model(user, items, ctx)
        assert score_items(model, 0, 0).tolist() == [2.0, 0.0]
        assert score_items(model, 0, 1).tolist() == [0.0, 3.0]
        assert score_items(model, 0, [(0, 1.0), (1, 1.0)]).tolist() == [1.0, 1.5]

    def test_weights_must_be_finite_and_positive(self):
        # a zero or NaN weight used to make every score NaN and rank in id order
        tensor = scoring_model(np.ones((1, 1)), np.ones((1, 3)), np.ones((1, 2)))
        composite = composite_model([np.ones((2, 1))] * 2, [np.ones((2, 3))] * 2, 1, 3)
        for model in (tensor, composite):
            for weight in (0.0, -1.0, np.nan, np.inf):
                for states in ([(1, weight)], [(0, 1.0), (1, weight)]):
                    with pytest.raises(ContextError, match="finite and > 0"):
                        score_items(model, 0, states)
                    with pytest.raises(ContextError, match="finite and > 0"):
                        recommend_topn(model, 0, states, 2)

    def test_n_must_be_positive(self):
        with pytest.raises(EvalError, match="n must be >= 1"):
            recommend_topn(identity_scorer([[1.0, 2.0]]), 0, None, 0)

    def test_n_is_an_integer(self):
        # True used to return a one-item list and 2.5 numpy's raw TypeError
        model = identity_scorer([[1.0, 2.0]])
        for n in (True, 2.5, "2", np.float64(2.0), None):
            with pytest.raises(EvalError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
                recommend_topn(model, 0, None, n)
        assert recommend_topn(model, 0, None, np.int8(1)).items.tolist() == [1]

    def test_a_list_for_a_two_context_model_rejected(self):
        factors = [np.ones((1, n)) for n in (1, 2, 2, 3)]
        shape = TensorShape((1, 2, 2, 3), ("user", "item", "context-1", "context-2"))
        model = Model(shape, factors, [m @ m.T for m in factors], TrainConfig(features=1, epochs=1))
        with pytest.raises(EvalError, match="mapping for multi-context models"):
            score_items(model, 0, [(0, 1.0)])
        scores = score_items(model, 0, {2: [(1, 1.0)], 3: [(2, 1.0)]})
        assert scores.tolist() == [1.0, 1.0]

    def test_empty_or_misplaced_states_rejected(self):
        tensor = scoring_model(np.ones((1, 1)), np.ones((1, 2)), np.ones((1, 2)))
        composite = composite_model([np.ones((2, 1))], [np.ones((2, 2))], 1, 2)
        for model in (tensor, composite):
            for states in ([], {2: []}):
                with pytest.raises(EvalError, match="empty"):
                    score_items(model, 0, states)
            with pytest.raises(EvalError, match="context axes"):
                score_items(model, 0, {0: [(0, 1.0)]})


class TestCompositeScoring:
    def model(self):
        # state 0 scores [2, 1], state 1 is null, state 2 scores [1, 3]
        items = [np.array([[2.0, 1.0], [0.0, 0.0]]), None, np.array([[1.0, 3.0], [0.0, 0.0]])]
        users = [None if i is None else np.array([[1.0], [0.0]]) for i in items]
        return composite_model(users, items, 1, 2)

    def test_heaviest_state_selects_the_submodel(self):
        model = self.model()
        assert score_items(model, 0, 2).tolist() == [1.0, 3.0]
        assert score_items(model, 0, [(0, 0.4), (2, 0.9)]).tolist() == [1.0, 3.0]
        assert score_items(model, 0, {2: [(2, 0.4), (0, 0.9)]}).tolist() == [2.0, 1.0]
        # equal weights: the first heaviest pair wins
        assert score_items(model, 0, [(2, 0.5), (0, 0.5)]).tolist() == [1.0, 3.0]
        assert score_items(model, 0, [(1, 1.0)]).tolist() == [0.0, 0.0]

    def test_state_out_of_bounds(self):
        model = self.model()
        for state in (-1, 3):
            with pytest.raises(ContextError, match="out of bounds"):
                score_items(model, 0, state)


class TestRequestRule:
    """Every request pair holds an integer state in [0, size) and a finite weight > 0."""

    BAD = [
        # a float state used to pick iCA sub-model 0, and a raw IndexError in a tensor model
        pytest.param([(0.7, 1.0)], "context state 0.7 out of bounds (size 3)", id="float-state"),
        # iCA used to check the heaviest state only
        pytest.param(
            [(0, 0.9), (7, 0.1)], "context state 7 out of bounds (size 3)", id="light-pair-outside"
        ),
        pytest.param(
            [(1, 0.5), (-1, 1.0)], "context state -1 out of bounds (size 3)", id="negative-state"
        ),
        pytest.param(
            [(0, 1.0), (1, np.nan)], "context weight nan of state 1 must be finite and > 0",
            id="nan-weight",
        ),
        pytest.param(
            [(2, 0.0), (1, 1.0)], "context weight 0.0 of state 2 must be finite and > 0",
            id="zero-weight",
        ),
        pytest.param(
            [(2, 0.5), (9, np.inf)], "context state 9 out of bounds (size 3)", id="state-before-weight"
        ),
        # a block used to read a bool state next to int states as its integer
        pytest.param(
            [(0, 0.5), (True, 1.0)], "context state True out of bounds (size 3)", id="bool-state"
        ),
        # a block used to read a string weight as a number, one list raised TypeError
        pytest.param(
            [(0, 1.0), (1, "0.5")], "context weight 0.5 of state 1 must be finite and > 0",
            id="string-weight",
        ),
    ]

    def models(self):
        """A tensor model and a composite with a null sub-model: 4 users, 5 items, 3 states."""
        rng = np.random.default_rng(61)
        tensor = scoring_model(*(rng.normal(size=(2, s)) for s in (4, 5, 3)))
        composite = composite_model(
            [rng.normal(size=(2, 4)) for _ in range(2)] + [None],
            [rng.normal(size=(2, 5)) for _ in range(3)], 4, 5,
        )
        return tensor, composite

    def errors(self, monkeypatch, requests):
        """The ContextError messages of every path, for each model in turn."""
        test = make_event_log([0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, 4], n_users=4, n_items=5)
        bad = next(user for user, pairs in requests.items() if pairs != [(1, 1.0)])
        messages = []
        for model in self.models():
            calls = [
                lambda: score_items(model, bad, requests[bad]),
                lambda: recommend_topn(model, bad, requests[bad], 3),
            ]
            for users in (1, 4):  # one user per block, and one block
                calls.append(lambda users=users: (
                    monkeypatch.setattr(evaluation, "RANK_BLOCK", users * 5),
                    recall_precision_at(model, test, 3, requests),
                ))
            for call in calls:
                with pytest.raises(ContextError) as info:
                    call()
                messages.append(str(info.value))
        return messages

    @pytest.mark.parametrize("states, message", BAD)
    def test_tensor_and_composite_raise_the_same_error(self, monkeypatch, states, message):
        requests = {user: [(1, 1.0)] for user in range(4)}
        requests[2] = states
        assert self.errors(monkeypatch, requests) == [message] * 8

    def test_the_first_bad_pair_is_named(self, monkeypatch):
        requests = {0: [(1, 1.0)], 1: [(0, 1.0), (1, np.nan)], 2: [(7, 1.0)], 3: [(1, 1.0)]}
        messages = self.errors(monkeypatch, requests)
        assert set(messages) == {"context weight nan of state 1 must be finite and > 0"}

    def test_a_bare_bool_is_no_state(self):
        for model in self.models():
            with pytest.raises(ContextError, match="context state True out of bounds"):
                score_items(model, 0, True)
            assert score_items(model, 0, np.int64(1)).tobytes() == score_items(model, 0, 1).tobytes()

    def test_numpy_integer_states_are_integers(self, monkeypatch):
        test = make_event_log([0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, 4], n_users=4, n_items=5)
        requests = {0: [(1, 1.0)], 1: [(0, 0.5), (2, 1.0)], 2: [(2, 1.0)], 3: [(0, 1.0)]}
        numpy_requests = {
            user: [(kind(s), w) for s, w in pairs]
            for (user, pairs), kind in zip(requests.items(), (np.int64, np.uint64, np.int32, int))
        }
        for model in self.models():
            expected = recall_precision_at(model, test, 3, requests)
            report = recall_precision_at(model, test, 3, numpy_requests)
            assert_bitwise_report(report, (expected.recall, expected.precision))
            for user, pairs in numpy_requests.items():
                scores = score_items(model, user, pairs)
                assert scores.tobytes() == score_items(model, user, requests[user]).tobytes()


def request_columns(requests, typed=True):
    """``requests`` as a ``RequestPairs``; numpy picks the column types, or they hold the pairs as given."""
    users = sorted(requests)
    pairs = [pair for user in users for pair in requests[user]]
    offsets = np.cumsum([0] + [len(requests[user]) for user in users])
    dtype = None if typed else object
    states = np.array([state for state, _ in pairs], dtype=dtype)
    weights = np.array([weight for _, weight in pairs], dtype=dtype)
    return RequestPairs(users, offsets, states, weights)


class TestColumnarRequests:
    """The spec's ``RequestPairs`` and a plain dict of the same pairs rank alike and fail alike."""

    CONFIG = TrainConfig(features=6, epochs=2, reg=0.1, seed=3)

    def cases(self):
        """(spec, train, test) of one-pair time bands and of multi-pair sequences with cold users."""
        log, split_ts = seasonal_dataset(seed=4, n_users=60)
        train, test = split_by_date(log, SplitSpec(split_ts))
        ctx = TimeBandContext(SeasonSpec.uniform(DAY, 6))
        yield ctx, train, test
        log, split_ts, mapping = basket_dataset(seed=4, n_users=60)
        train, test = split_by_date(log, SplitSpec(split_ts))
        # users without history ask in the cold state
        train = train.select(train.users % 9 != 0)
        yield SequenceContext(4, 0.6, mapping, [f"c{c}" for c in range(13)]), train, test

    def test_spec_requests_rank_as_a_dict_of_the_same_pairs(self, monkeypatch):
        lengths = set()
        for ctx, train, test in self.cases():
            events, pairs = ctx.training(train)
            shape = TensorShape((train.n_users, train.n_items, len(ctx.names)), ("user", "item", ctx.role))
            obs = build_tensor(events, pairs, shape)
            requests = ctx.requests(train, test)
            assert isinstance(requests, RequestPairs)
            plain = dict(requests)
            lengths |= {len(user_pairs) for user_pairs in plain.values()}
            width = max(train.n_items, int(test.items.max()) + 1)
            for model in (fit(obs, self.CONFIG), fit_ica(obs, self.CONFIG)):
                for users in (7, test.n_users):  # several blocks, and one
                    monkeypatch.setattr(evaluation, "RANK_BLOCK", users * width)
                    for seen in (None, train):
                        for average in ("macro", "micro"):
                            expected = recall_precision_at(model, test, 20, plain, seen=seen, average=average)
                            report = recall_precision_at(model, test, 20, requests, seen=seen, average=average)
                            assert_bitwise_report(report, (expected.recall, expected.precision))
        # one-pair bands and cold states, and windows of several pairs
        assert 1 in lengths and max(lengths) > 1

    BAD = [
        pytest.param([(0, 0.5), (True, 1.0)], "context state True out of bounds (size 3)", id="bool-state"),
        pytest.param(
            [(0, 1.0), (1, "0.5")], "context weight 0.5 of state 1 must be finite and > 0", id="string-weight"
        ),
        pytest.param(
            [(2, 0.0), (1, 1.0)], "context weight 0.0 of state 2 must be finite and > 0", id="zero-weight"
        ),
        pytest.param(
            [(0, 0.9), (7, 0.1)], "context state 7 out of bounds (size 3)", id="state-outside-the-axis"
        ),
    ]

    def errors(self, monkeypatch, requests):
        """The error messages of a dict and of its columns, for a tensor and a composite model."""
        test = make_event_log([0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, 4], n_users=4, n_items=5)
        forms = [requests, request_columns(requests, typed=False)]
        typed = request_columns(requests)
        if repr(dict(typed)) == repr(requests):  # numpy reads a bool as 1 and makes a str of a float
            forms.append(typed)
        messages = []
        for model in TestRequestRule().models():
            for users in (1, 4):  # one user per block, and one block
                monkeypatch.setattr(evaluation, "RANK_BLOCK", users * 5)
                for form in forms:
                    with pytest.raises((ContextError, EvalError)) as info:
                        recall_precision_at(model, test, 3, form)
                    messages.append((type(info.value), str(info.value)))
        return set(messages)

    @pytest.mark.parametrize("states, message", BAD)
    def test_a_bad_pair_raises_the_same_error_in_both_forms(self, monkeypatch, states, message):
        requests = {user: [(1, 1.0)] for user in range(4)}
        requests[2] = states
        assert self.errors(monkeypatch, requests) == {(ContextError, message)}
        # a later bad pair is not the one named
        requests[3] = [(9, 1.0)]
        assert self.errors(monkeypatch, requests) == {(ContextError, message)}

    def test_a_bool_column_holds_no_states(self):
        test = make_event_log([0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, 4], n_users=4, n_items=5)
        requests = RequestPairs(range(4), range(5), np.array([True, False, True, True]), np.ones(4))
        for model in TestRequestRule().models():
            with pytest.raises(ContextError, match=re.escape("context state True out of bounds (size 3)")):
                recall_precision_at(model, test, 3, requests)

    def test_a_missing_user_or_an_empty_list_raises_the_same_error(self, monkeypatch):
        requests = {user: [(1, 1.0)] for user in range(4)}
        del requests[2]
        assert self.errors(monkeypatch, requests) == {(EvalError, "no request context for user 2")}
        requests[2] = []
        assert self.errors(monkeypatch, requests) == {(EvalError, "empty context state list")}

    def test_a_model_without_context_ignores_the_requests(self):
        model = identity_scorer([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        test = make_event_log([0, 1], [2, 2], [1, 2], n_users=2, n_items=3)
        report = recall_precision_at(model, test, 2, request_columns({0: [(5, 1.0)]}))
        assert report.at(1) == (0.5, 0.5)


class TestRecallPrecision:
    def test_perfect_ranker_closed_forms(self):
        # user 0 has 3 relevant items ranked first; user 1 has 1
        scores = [
            [9.0, 8.0, 7.0, 0.1, 0.2, 0.0],
            [0.0, 0.1, 0.2, 9.0, 0.0, 0.1],
        ]
        model = identity_scorer(scores)
        test = make_event_log(
            [0, 0, 0, 1], [0, 1, 2, 3], [1, 2, 3, 4], n_users=2, n_items=6
        )
        report = recall_precision_at(model, test, 6)
        for n in range(1, 7):
            expected_recall = (min(n, 3) / 3 + min(n, 1) / 1) / 2
            expected_precision = (min(n, 3) / n + min(n, 1) / n) / 2
            r, p = report.at(n)
            assert r == pytest.approx(expected_recall)
            assert p == pytest.approx(expected_precision)

    def test_recall_weakly_increasing_precision_times_n_is_hits(self):
        rng = np.random.default_rng(31)
        model = identity_scorer(rng.normal(size=(8, 30)))
        test = make_event_log(
            rng.integers(0, 8, 40), rng.integers(0, 30, 40), np.arange(40),
            n_users=8, n_items=30,
        )
        report = recall_precision_at(model, test, 15)
        assert np.all(np.diff(report.recall) >= -1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(32)
        base = rng.normal(size=(6, 20))
        test = make_event_log(
            rng.integers(0, 6, 25), rng.integers(0, 20, 25), np.arange(25),
            n_users=6, n_items=20,
        )
        a = recall_precision_at(identity_scorer(base), test, 10)
        b = recall_precision_at(identity_scorer(3.0 * base + 7.0), test, 10)
        np.testing.assert_array_equal(a.recall, b.recall)
        np.testing.assert_array_equal(a.precision, b.precision)

    def test_unknown_users_count_as_misses_by_default(self):
        model = identity_scorer([[1.0, 2.0, 3.0]])
        test = make_event_log([0, 5], [0, 1], [1, 2], n_users=6, n_items=3)
        counted = recall_precision_at(model, test, 3)
        skipped = recall_precision_at(model, test, 3, skip_unknown_users=True)
        assert counted.n_users == 2
        assert skipped.n_users == 1
        assert skipped.n_skipped == 1
        # counting the unknown user halves macro recall at full depth
        assert counted.recall[-1] == pytest.approx(skipped.recall[-1] / 2)

    def test_exclude_seen(self):
        model = identity_scorer([[9.0, 5.0, 1.0]])
        seen = make_event_log([0], [0], [1], n_users=1, n_items=3)
        test = make_event_log([0], [1], [2], n_users=1, n_items=3)
        with_seen = recall_precision_at(model, test, 1)
        without = recall_precision_at(model, test, 1, seen=seen)
        assert with_seen.recall[0] == 0.0  # item 0 crowds out the hit
        assert without.recall[0] == 1.0

    def test_micro_vs_macro(self):
        # user 0: 1 relevant, hit at rank 1; user 1: 2 relevant, 1 hit
        model = identity_scorer([[9.0, 0.0, 0.0, 0.0], [9.0, 0.0, 0.1, 0.0]])
        test = make_event_log([0, 1, 1], [0, 0, 3], [1, 2, 3], n_users=2, n_items=4)
        macro = recall_precision_at(model, test, 1)
        micro = recall_precision_at(model, test, 1, average="micro")
        assert macro.recall[0] == pytest.approx((1.0 + 0.5) / 2)
        assert micro.recall[0] == pytest.approx(2.0 / 3.0)
        assert macro.precision[0] == pytest.approx(1.0)
        assert micro.precision[0] == pytest.approx(1.0)

    def test_request_states_mapping_and_missing(self):
        user = np.ones((1, 2))
        items = np.ones((1, 3))
        ctx = np.ones((1, 2))
        model = scoring_model(user, items, ctx)
        test = make_event_log([0, 1], [0, 1], [1, 2], n_users=2, n_items=3)
        report = recall_precision_at(model, test, 2, request_states={0: 0, 1: 1})
        assert report.n_users == 2
        with pytest.raises(EvalError, match="no request context"):
            recall_precision_at(model, test, 2, request_states={0: 0})

    @pytest.mark.parametrize("composite", [False, True])
    @pytest.mark.parametrize("average", ["macro", "micro"])
    def test_matches_brute_force(self, composite, average):
        # integer factors make score ties; the test log has an unknown user
        # (id 7), the seen log repeats events and can leave fewer candidates
        # than n_max
        rng = np.random.default_rng(41)
        n_users, n_items, n_states = 7, 12, 3
        for _ in range(15):
            if composite:
                model = composite_model(
                    [rng.integers(-2, 3, (2, n_users)) for _ in range(n_states - 1)] + [None],
                    [rng.integers(-2, 3, (2, n_items)) for _ in range(n_states)],
                    n_users, n_items,
                )
            else:
                model = scoring_model(
                    rng.integers(-2, 3, (2, n_users)),
                    rng.integers(-2, 3, (2, n_items)),
                    rng.integers(-2, 3, (2, n_states)),
                )
            n_test, n_seen = int(rng.integers(1, 30)), int(rng.integers(0, 60))
            test = make_event_log(
                rng.integers(0, n_users + 1, n_test), rng.integers(0, n_items, n_test),
                np.arange(n_test), n_users=n_users + 1, n_items=n_items,
            )
            seen = make_event_log(
                rng.integers(0, n_users, n_seen), rng.integers(0, n_items, n_seen),
                np.arange(n_seen), n_users=n_users, n_items=n_items,
            )
            requests = {
                user: [(int(rng.integers(0, n_states)), float(rng.choice([0.5, 1.0])))
                       for _ in range(int(rng.integers(1, 3)))]
                for user in range(n_users + 1)
            }
            report = recall_precision_at(
                model, test, n_items, requests, seen=seen, average=average
            )
            recall, precision = brute_force_report(model, test, n_items, requests, seen, average)
            np.testing.assert_allclose(report.recall, recall, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(report.precision, precision, rtol=1e-12, atol=1e-15)

    def test_empty_test_rejected(self):
        model = identity_scorer([[1.0]])
        empty = make_event_log([], [], [], n_users=1, n_items=1)
        with pytest.raises(EvalError, match="empty"):
            recall_precision_at(model, empty, 1)

    def test_bad_arguments_rejected(self):
        model = identity_scorer([[1.0, 2.0]])
        test = make_event_log([0], [1], [1], n_users=1, n_items=2)
        with pytest.raises(EvalError, match="n_max must be >= 1"):
            recall_precision_at(model, test, 0)
        with pytest.raises(EvalError, match="'macro' or 'micro'"):
            recall_precision_at(model, test, 2, average="mean")

    def test_n_max_is_an_integer(self):
        # 2.5 and True used to raise raw TypeErrors
        model = identity_scorer([[1.0, 2.0]])
        test = make_event_log([0], [1], [1], n_users=1, n_items=2)
        for n_max in (True, 2.5, "2", np.float64(2.0)):
            with pytest.raises(EvalError, match=f"^n_max must be an integer, got {re.escape(repr(n_max))}$"):
                recall_precision_at(model, test, n_max)
        assert recall_precision_at(model, test, np.int64(2)).at(1) == (1.0, 1.0)

    def test_no_evaluable_users(self):
        model = identity_scorer([[1.0, 2.0]])
        test = make_event_log([1, 2], [0, 1], [1, 2], n_users=3, n_items=2)
        with pytest.raises(EvalError, match="no evaluable users"):
            recall_precision_at(model, test, 2, skip_unknown_users=True)


class TestBlockRanking:
    N_USERS, N_ITEMS, N_STATES = 9, 13, 3

    @pytest.mark.parametrize("k", [5, 20])
    def test_block_scores_equal_one_row_scores_to_rounding(self, k):
        # a block's GEMM and a one-row product may round differently in the
        # last bits, each within the dot-product bound K * eps * sum |terms|
        rng = np.random.default_rng(k)
        n_users, n_items, n_states = 300, 400, 4
        model = scoring_model(*(rng.normal(size=(k, s)) for s in (n_users, n_items, n_states)))
        states = rng.integers(0, n_states, n_users)
        requests = [[(int(s), 1.0)] for s in states]
        contexts = evaluation._request_columns(model, dict(enumerate(requests)), np.arange(n_users))
        block = evaluation._score_rows(model, np.arange(n_users), contexts)
        rows = np.stack([score_items(model, user, requests[user]) for user in range(n_users)])
        user_m, item_m, context_m = model.factors
        terms = np.abs(user_m * context_m[:, states]).T @ np.abs(item_m)
        assert np.all(np.abs(block - rows) <= 2 * k * np.finfo(float).eps * terms)

    def instance(self, rng, composite):
        """A float model, a test log with unknown users and items, a seen log and requests."""
        n_users, n_items, n_states = self.N_USERS, self.N_ITEMS, self.N_STATES
        if composite:
            model = composite_model(
                [rng.normal(size=(2, n_users)) for _ in range(n_states - 1)] + [None],
                [rng.normal(size=(2, n_items)) for _ in range(n_states)],
                n_users, n_items,
            )
        else:
            model = scoring_model(*(rng.normal(size=(3, s)) for s in (n_users, n_items, n_states)))
        n_test, n_seen = 60, 80
        # users up to n_users + 2 are unknown; items n_items and n_items + 1
        # are relevant but never ranked
        test = make_event_log(
            rng.integers(0, n_users + 3, n_test), rng.integers(0, n_items + 2, n_test),
            np.arange(n_test), n_users=n_users + 3, n_items=n_items + 2,
        )
        seen = make_event_log(
            rng.integers(0, n_users, n_seen), rng.integers(0, n_items, n_seen),
            np.arange(n_seen), n_users=n_users, n_items=n_items,
        )
        requests = {
            user: [(int(rng.integers(0, n_states)), float(rng.choice([0.25, 0.5, 1.0])))
                   for _ in range(int(rng.integers(1, 4)))]
            for user in range(n_users + 3)
        }
        return model, test, seen, requests

    def block_sizes(self, monkeypatch, test, n_max=1):
        """Set the block cap to 1, 3 and all test users in turn."""
        width = max(self.N_ITEMS, int(test.items.max()) + 1, n_max)
        for users in (1, 3, self.N_USERS + 3):
            monkeypatch.setattr(evaluation, "RANK_BLOCK", users * width)
            yield

    @pytest.mark.parametrize("composite", [False, True])
    @pytest.mark.parametrize("average", ["macro", "micro"])
    @pytest.mark.parametrize("skip", [False, True])
    def test_every_block_size_gives_the_looped_report(self, monkeypatch, composite, average, skip):
        rng = np.random.default_rng(51)
        for _ in range(6):
            model, test, seen, requests = self.instance(rng, composite)
            for n_max in (4, self.N_ITEMS):
                reference = looped_report(model, test, n_max, requests, seen, average, skip)
                for _ in self.block_sizes(monkeypatch, test):
                    report = recall_precision_at(
                        model, test, n_max, requests, seen=seen,
                        skip_unknown_users=skip, average=average,
                    )
                    assert_bitwise_report(report, reference)

    def edge_instance(self, rng, composite):
        """``instance`` with integer factors and NaN item columns.

        User 0 has seen every item and user 1 all but two; both are in the
        test log.  Integer factors make ties, and in a composite the null
        state gives an all-zero row.
        """
        n_users, n_items, n_states = self.N_USERS, self.N_ITEMS, self.N_STATES
        _, test, seen, requests = self.instance(rng, composite)

        def item_matrix():
            matrix = rng.integers(-1, 2, (2, n_items)).astype(float)
            matrix[:, rng.choice(n_items, 2, replace=False)] = np.nan
            return matrix

        if composite:
            model = composite_model(
                [rng.integers(-1, 2, (2, n_users)) for _ in range(n_states - 1)] + [None],
                [item_matrix() for _ in range(n_states)], n_users, n_items,
            )
        else:
            model = scoring_model(
                rng.integers(-1, 2, (2, n_users)), item_matrix(), rng.integers(1, 3, (2, n_states))
            )
        test = make_event_log(
            np.r_[test.users, 0, 1], np.r_[test.items, 0, 1], np.arange(len(test) + 2),
            n_users=test.n_users, n_items=test.n_items,
        )
        almost = np.delete(np.arange(n_items), rng.choice(n_items, 2, replace=False))
        seen = make_event_log(
            np.r_[seen.users, np.zeros(n_items, int), np.ones(n_items - 2, int)],
            np.r_[seen.items, np.arange(n_items), almost], np.arange(len(seen) + 2 * n_items - 2),
            n_users=n_users, n_items=n_items,
        )
        return model, test, seen, requests

    def edge_features(self, model, test, seen, requests, n=4):
        """Which selection edge cases the key rows of the known test users show."""
        features = set()
        for user in np.unique(test.users[test.users < self.N_USERS]).tolist():
            key = -score_items(model, user, requests[user])
            zero = (key == 0).all()
            key[seen.items[seen.users == user]] = np.inf
            ordered = np.sort(key)
            candidates = np.count_nonzero(key != np.inf)
            features |= {
                name for name, shown in (
                    ("nan", np.isnan(key).any()),
                    ("all excluded", candidates == 0),
                    ("fewer than n", 0 < candidates < n),
                    ("tie at the n-th", candidates > n and ordered[n - 1] == ordered[n]),
                    ("all-zero row", zero),
                ) if shown
            }
        return features

    @pytest.mark.parametrize("composite", [False, True])
    @pytest.mark.parametrize("average", ["macro", "micro"])
    def test_selection_edge_cases_give_the_looped_report(self, monkeypatch, composite, average):
        rng = np.random.default_rng(55)
        features = set()
        for _ in range(6):
            model, test, seen, requests = self.edge_instance(rng, composite)
            features |= self.edge_features(model, test, seen, requests)
            for n_max in (4, self.N_ITEMS, self.N_ITEMS + 3):
                reference = looped_report(model, test, n_max, requests, seen, average)
                for _ in self.block_sizes(monkeypatch, test, n_max):
                    report = recall_precision_at(
                        model, test, n_max, requests, seen=seen, average=average
                    )
                    assert_bitwise_report(report, reference)
        expected = {"nan", "all excluded", "fewer than n", "tie at the n-th"}
        assert features == expected | ({"all-zero row"} if composite else set())

    def test_block_selection_equals_the_row_rule(self):
        rng = np.random.default_rng(56)
        for _ in range(300):
            n_rows, width = int(rng.integers(1, 7)), int(rng.integers(1, 25))
            key = rng.integers(-3, 4, (n_rows, width)).astype(float)
            # NaN of either sign, zeros of either sign, excluded and -inf keys
            marks = ((np.nan, 0.1), (-np.nan, 0.1), (-0.0, 0.1), (np.inf, 0.2), (-np.inf, 0.05))
            for value, share in marks:
                key[rng.random(key.shape) < share] = value
            if rng.random() < 0.5:
                key[rng.integers(0, n_rows)] = np.inf
            for n in (1, 2, 5, width, width + 3):
                rows, ranks, items = evaluation._top_n_rows(key, n)
                for row in range(n_rows):
                    expected = evaluation._top_n(key[row], n)
                    assert items[rows == row].tolist() == expected.tolist()
                    assert ranks[rows == row].tolist() == list(range(expected.size))

    @pytest.mark.parametrize("composite", [False, True])
    @pytest.mark.parametrize("average", ["macro", "micro"])
    def test_event_order_does_not_matter(self, composite, average):
        rng = np.random.default_rng(57)
        for _ in range(4):
            model, test, seen, requests = self.instance(rng, composite)
            report = recall_precision_at(model, test, 4, requests, seen=seen, average=average)
            shuffled = recall_precision_at(
                model, test.select(rng.permutation(len(test))), 4, requests,
                seen=seen.select(rng.permutation(len(seen))), average=average,
            )
            assert shuffled.n_users == report.n_users
            assert_bitwise_report(shuffled, (report.recall, report.precision))

    def test_missing_request_context_in_any_block(self, monkeypatch):
        model, test, seen, requests = self.instance(np.random.default_rng(52), False)
        last = int(test.users[test.users < self.N_USERS].max())
        del requests[last]
        for _ in self.block_sizes(monkeypatch, test):
            with pytest.raises(EvalError, match=f"no request context for user {last}"):
                recall_precision_at(model, test, 4, requests, seen=seen)

    def test_seen_items_checked_before_any_ranking(self):
        # no user has a request context, so ranking anyone would fail first
        model = scoring_model(np.ones((1, 3)), np.ones((1, 4)), np.ones((1, 2)))
        test = make_event_log([0, 1], [0, 1], [1, 2], n_users=3, n_items=4)
        for bad in (-1, 4):
            seen = make_event_log([0, 2], [1, bad], [1, 2], n_users=3, n_items=5)
            with pytest.raises(EvalError, match=r"excluded item ids must lie in \[0, 4\)"):
                recall_precision_at(model, test, 2, {}, seen=seen)

    def test_memory_is_bounded_when_n_max_exceeds_the_items(self):
        # blocks were sized by the items alone, so their metric arrays grew
        # with n_max times the users of a block
        rng = np.random.default_rng(53)
        model = scoring_model(rng.normal(size=(2, 200)), rng.normal(size=(2, 10)))
        test = make_event_log(
            np.arange(200), rng.integers(0, 10, 200), np.arange(200), n_users=200, n_items=10
        )
        tracemalloc.start()
        try:
            report = recall_precision_at(model, test, 20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.recall[-1] == 1.0
        assert peak < 16 * 2**20

    def one_user_per_block(self, monkeypatch, test):
        """Set the block cap to 1, 3 and all test users in turn, whatever n_max."""
        width = max(self.N_ITEMS, int(test.items.max()) + 1)
        for users in (1, 3, self.N_USERS + 3):
            monkeypatch.setattr(evaluation, "RANK_BLOCK", users * width)
            yield

    @pytest.mark.parametrize("composite", [False, True])
    @pytest.mark.parametrize("average", ["macro", "micro"])
    @pytest.mark.parametrize("skip", [False, True])
    def test_grouping_edge_cases_give_the_looped_report(self, monkeypatch, composite, average, skip):
        # test users in descending order with every event twice; seen users
        # that are not in the test log; test users above the seen log's ids,
        # then seen users above the test log's ids; unknown test users, one
        # of them with seen events
        rng = np.random.default_rng(58)
        n_users, n_items = self.N_USERS, self.N_ITEMS
        cases = (([11, 9, 8, 7, 5, 2], [0, 1, 2, 3, 4, 5, 9]), ([3, 1, 0], [0, 1, 4, 6, 8]))
        for test_users, seen_users in cases:
            model, _, _, requests = self.instance(rng, composite)
            users = rng.choice(test_users, 30)
            users = np.sort(np.r_[users, test_users])[::-1]
            items = rng.integers(0, n_items + 2, users.size)
            test = make_event_log(
                np.r_[users, users], np.r_[items, items], np.arange(2 * users.size),
                n_users=n_users + 3, n_items=n_items + 2,
            )
            seen_of = rng.choice(seen_users, 40)
            seen = make_event_log(
                seen_of, rng.integers(0, n_items, seen_of.size), np.arange(seen_of.size),
                n_users=n_users + 3, n_items=n_items,
            )
            for n_max in (4, n_items):
                reference = looped_report(model, test, n_max, requests, seen, average, skip)
                for _ in self.one_user_per_block(monkeypatch, test):
                    report = recall_precision_at(
                        model, test, n_max, requests, seen=seen,
                        skip_unknown_users=skip, average=average,
                    )
                    assert_bitwise_report(report, reference)
                    assert report.n_skipped == (skip and int(np.sum(np.array(test_users) >= n_users)))

    @pytest.mark.parametrize("composite", [False, True])
    @pytest.mark.parametrize("average", ["macro", "micro"])
    def test_positions_past_the_items_give_the_looped_report(self, monkeypatch, composite, average):
        # only the first width positions are ranked; the hits of the rest
        # are filled in, the precision terms a block of positions at a time
        rng = np.random.default_rng(62)
        for _ in range(3):
            model, test, seen, requests = self.instance(rng, composite)
            width = max(self.N_ITEMS, int(test.items.max()) + 1)
            for n_max in (width + 1, 5 * width + 3):
                reference = looped_report(model, test, n_max, requests, seen, average)
                for _ in self.one_user_per_block(monkeypatch, test):
                    report = recall_precision_at(model, test, n_max, requests, seen=seen, average=average)
                    assert_bitwise_report(report, reference)

    def test_counting_order_is_a_stable_sort(self):
        rng = np.random.default_rng(63)
        for n_keys in (2, 300, 1 << 16, (1 << 16) + 1, 1 << 20):
            keys = rng.integers(0, n_keys, 5_000)
            keys[:3] = n_keys - 1
            order = evaluation._counting_order(keys, n_keys)
            assert order.tolist() == np.argsort(keys, kind="stable").tolist()

    @pytest.mark.parametrize(
        "log, column, message",
        [
            ("test", "users", "test log holds a negative user id, -1"),
            ("test", "items", "test log holds a negative item id, -1"),
            ("seen", "users", "seen log holds a negative user id, -1"),
            ("seen", "items", r"excluded item ids must lie in \[0, 4\)"),
        ],
    )
    @pytest.mark.parametrize("skip", [False, True])
    def test_negative_ids_are_rejected_before_any_ranking(self, log, column, message, skip):
        # a test user -1 used to be scored as user 4 (the last), and a test
        # item -1 to mark the last item relevant; no user has a request
        # context, so ranking anyone would fail first
        model = scoring_model(np.ones((1, 5)), np.ones((1, 4)), np.ones((1, 2)))
        logs = {
            "test": make_event_log([0, 4], [1, 2], [1, 2], n_users=5, n_items=4),
            "seen": make_event_log([0, 4], [0, 3], [1, 2], n_users=5, n_items=4),
        }
        getattr(logs[log], column)[0] = -1
        with pytest.raises(EvalError, match=message):
            recall_precision_at(model, logs["test"], 2, {}, seen=logs["seen"], skip_unknown_users=skip)
        if log == "test" and column == "users":
            with pytest.raises(EvalError, match="unknown user -1"):
                recommend_topn(model, -1, 0, 2)

    def test_one_pair_lists_gather_as_one_list_each(self):
        # a block of one-pair lists is one gather, (w * column + 0.0) / w
        rng = np.random.default_rng(64)
        k, n_states = 5, 7
        matrix = rng.normal(size=(k, n_states))
        matrix[:, 2] = -0.0
        matrix[rng.random(matrix.shape) < 0.2] = -0.0
        weights = (1.0, 0.3, 2.5, 1e-3, 7.0, 1 / 3)
        lists = [[(int(rng.integers(0, n_states)), float(rng.choice(weights)))] for _ in range(60)]
        block = evaluation._resolve(matrix, evaluation._pairs(lists, n_states))
        for j, pairs in enumerate(lists):
            assert block[:, j].tobytes() == evaluation._resolve(matrix, [pairs]).tobytes()
        # a sum that starts at zero turns -0.0 into +0.0
        assert not np.signbit(block[block == 0.0]).any()
        model = scoring_model(rng.normal(size=(k, 6)), rng.normal(size=(k, self.N_ITEMS)), matrix)
        requests = dict(enumerate(lists[:6]))
        test = make_event_log(
            rng.integers(0, 6, 30), rng.integers(0, self.N_ITEMS, 30), np.arange(30),
            n_users=6, n_items=self.N_ITEMS,
        )
        for average in ("macro", "micro"):
            report = recall_precision_at(model, test, 5, requests, average=average)
            assert_bitwise_report(report, looped_report(model, test, 5, requests, average=average))

    def test_cutoff_rule_on_rows_with_few_finite_keys(self):
        # a finite n-th key takes the keys not above it; rows with fewer than
        # n finite keys (all NaN, all excluded, a few candidates) take the
        # rule's other path, and both give the full sort's order
        rng = np.random.default_rng(65)
        width = 9
        for _ in range(200):
            key = rng.integers(-2, 3, (7, width)).astype(float)
            key[rng.random(key.shape) < 0.1] = -0.0
            key[0] = np.nan
            key[1] = np.inf
            key[2, rng.choice(width, width - 2, replace=False)] = np.inf
            key[3, rng.choice(width, width - 2, replace=False)] = np.nan
            key[4, rng.random(width) < 0.5] = np.inf
            key[4, rng.random(width) < 0.5] = np.nan
            key[5, rng.random(width) < 0.3] = -np.inf
            key = key[rng.permutation(7)]
            for n in (1, 2, 3, 5, width, width + 2):
                rows, ranks, items = evaluation._top_n_rows(key, n)
                for row in range(7):
                    ids = np.flatnonzero(key[row] != np.inf)
                    expected = ids[np.lexsort((ids, key[row, ids]))][:n]
                    assert evaluation._top_n(key[row], n).tolist() == expected.tolist()
                    assert items[rows == row].tolist() == expected.tolist()
                    assert ranks[rows == row].tolist() == list(range(expected.size))

    def test_composite_block_selection(self):
        # the first pair of largest weight of each list, every pair checked
        rng = np.random.default_rng(66)
        for _ in range(50):
            lists = [
                [(int(rng.integers(0, 4)), float(rng.choice([0.25, 0.5, 1.0])))
                 for _ in range(int(rng.integers(1, 5)))]
                for _ in range(int(rng.integers(1, 30)))
            ]
            expected = []
            for pairs in lists:
                heaviest = max(weight for _, weight in pairs)
                expected.append(next(state for state, weight in pairs if weight == heaviest))
            assert evaluation._pairs(lists, 4).heaviest().tolist() == expected
            # the first bad pair in list order is named, wherever the lists put it
            bad = [(pairs[:], int(rng.integers(0, len(pairs) + 1))) for pairs in lists]
            picks = rng.choice(len(lists), min(3, len(lists)), replace=False)
            first = None
            for j in sorted(picks.tolist()):
                pairs, at = bad[j]
                state = (7, 0.5) if rng.random() < 0.5 else (1, np.nan)
                pairs.insert(at, state)
            for pairs, _ in bad:
                for state, weight in pairs:
                    if first is None and not (0 <= state < 4 and 0 < weight < np.inf):
                        first = (state, weight)
            with pytest.raises(ContextError) as block_error:
                evaluation._pairs([pairs for pairs, _ in bad], 4).heaviest()
            with pytest.raises(ContextError) as pair_error:
                evaluation._check_pair(*first, 4)
            assert str(block_error.value) == str(pair_error.value)

    @pytest.mark.parametrize("k", [20, 80])
    def test_one_user_scores_equal_the_vector_product(self, k):
        rng = np.random.default_rng(k)
        model = scoring_model(*(rng.normal(size=(k, s)) for s in (4, 50, 3)))
        states = [(2, 1.0), (0, 0.6)]
        context, total = np.zeros(k), 0.0
        for state, weight in states:
            context += weight * model.factors[2][:, state]
            total += weight
        for user in range(4):
            weights = model.factors[0][:, user] * (context / total)
            expected = weights @ model.factors[1]
            assert score_items(model, user, states).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("average", ["macro", "micro"])
    def test_fitted_seasonal_model_matches_recommend_topn(self, average):
        log, split_ts = seasonal_dataset(seed=0)
        train, test = split_by_date(log, SplitSpec(split_ts))
        season = SeasonSpec.uniform(DAY, 6)
        shape = TensorShape((log.n_users, log.n_items, 6), ("user", "item", "timeband"))
        model = fit(build_tensor(train, time_band_states(train.timestamps, season), shape),
                    TrainConfig(features=12, epochs=3, reg=0.1))
        first = {}
        for idx in np.lexsort((test.timestamps, test.users))[::-1].tolist():
            band = assign_time_band(test.timestamps[idx], season)
            # every third user asks in two bands, so list lengths differ
            pairs = [(band, 1.0), ((band + 1) % 6, 0.5)]
            first[int(test.users[idx])] = pairs[: 2 if test.users[idx] % 3 == 0 else 1]
        report = recall_precision_at(model, test, 20, first, seen=train, average=average)
        assert report.n_users == log.n_users
        assert_bitwise_report(report, looped_report(model, test, 20, first, train, average))


class TestTopNGrid:
    """``_top_n_rows`` sorts each row's candidates in a (rows x most candidates) grid, by ``_top_n``'s rule."""

    @staticmethod
    def candidate_counts(key, n):
        """Each row's candidates by the rule: keys at or below a finite n-th key, else every key but +inf."""
        n = min(n, key.shape[1])
        nth = np.partition(key, n - 1, axis=1)[:, [n - 1]]
        return np.where(nth[:, 0] < np.inf, (key <= nth).sum(1), (~(key > nth) & (key != np.inf)).sum(1))

    def check(self, key, n):
        """Assert the row rule on every row; return whether the grid was a reshape."""
        rows, ranks, items = evaluation._top_n_rows(key, n)
        assert (np.diff(rows) >= 0).all()
        for row in range(key.shape[0]):
            expected = evaluation._top_n(key[row], n)
            assert items[rows == row].tolist() == expected.tolist()
            assert ranks[rows == row].tolist() == list(range(expected.size))
        return len(set(self.candidate_counts(key, n).tolist())) == 1

    def test_grid_selection_equals_the_row_rule(self):
        rng = np.random.default_rng(71)
        grids = set()
        for trial in range(300):
            n_rows, width = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            if trial % 3 == 0:  # distinct keys: every row has n candidates
                key = rng.permuted(np.tile(np.arange(width, dtype=float), (n_rows, 1)), axis=1)
            else:  # ties at the n-th key, zeros of either sign, NaN of either sign, -inf, excluded
                key = rng.integers(-4, 5, (n_rows, width)).astype(float)
                marks = ((-0.0, 0.2), (np.nan, 0.1), (-np.nan, 0.1), (-np.inf, 0.05), (np.inf, 0.15))
                for value, share in marks:
                    key[rng.random(key.shape) < share] = value
                if rng.random() < 0.3:
                    key[rng.integers(0, n_rows)] = np.inf  # every item excluded
            for n in {1, 3, max(1, width - 1), width, width + 2}:
                grids.add(self.check(key, n))
        assert grids == {True, False}

    def test_a_composite_block_with_a_null_sub_model(self):
        # the null sub-model scores every item 0, so its rows tie everywhere
        rng = np.random.default_rng(72)
        model = composite_model(
            [rng.integers(-1, 2, (2, 8)) for _ in range(2)] + [None],
            [rng.integers(-1, 2, (2, 30)) for _ in range(3)], 8, 30,
        )
        for _ in range(20):
            lists = [[(int(rng.integers(0, 3)), 1.0)] for _ in range(8)]
            key = -evaluation._score_rows(model, np.arange(8), {2: lists})
            key[rng.random(key.shape) < 0.2] = np.inf
            for n in (1, 4, 29, 30, 31):
                self.check(key, n)
        null = -evaluation._score_rows(model, np.arange(8), {2: [[(2, 1.0)]] * 8})
        assert not null.any()
        for n in (1, 4, 30, 31):
            assert self.check(null, n)


class TestQualityGate:
    def test_itals_beats_both_baselines_on_seasonal_log(self):
        # the paper's seasonality result: pooling all sessions and
        # reweighting by time band beats a bandless model and per-band models
        log, split_ts = seasonal_dataset(seed=0)
        train, test = split_by_date(log, SplitSpec(split_ts))
        ctx = TimeBandContext(SeasonSpec.uniform(DAY, 6))
        shape3 = TensorShape((log.n_users, log.n_items, len(ctx.names)), ("user", "item", ctx.role))
        obs3 = build_tensor(*ctx.training(train), shape3)
        obs2 = build_tensor(train, None, TensorShape(shape3.dims[:2], ("user", "item")))
        first = ctx.requests(train, test)
        config = TrainConfig(features=20, epochs=10, reg=0.1)

        def recall_at_20(model, requests):
            return recall_precision_at(model, test, 20, requests, seen=train).at(20)[0]

        itals = recall_at_20(fit(obs3, config), first)
        assert itals > recall_at_20(fit_ials(obs2, config), None)
        assert itals > recall_at_20(fit_ica(obs3, config), first)



class TestSequentialQualityGate:
    def test_itals_beats_both_baselines_on_basket_log(self):
        # the paper's sequential result: the categories of the last
        # purchases, as a context axis, beat a context-free model and
        # per-category models
        log, split_ts, mapping = basket_dataset(seed=0, n_users=150)
        train, test = split_by_date(log, SplitSpec(split_ts))
        # categories 0..12; the spec adds the state of no prior purchase
        ctx = SequenceContext(4, 0.6, mapping, category_names=range(13))
        shape3 = TensorShape((log.n_users, log.n_items, len(ctx.names)), ("user", "item", ctx.role))
        obs3 = build_tensor(*ctx.training(train), shape3)
        obs2 = build_tensor(train, None, TensorShape(shape3.dims[:2], ("user", "item")))
        requests = ctx.requests(train, test)
        config = TrainConfig(features=20, epochs=3, reg=0.1)

        def recall_at_20(model, requests):
            return recall_precision_at(model, test, 20, requests, seen=train).at(20)[0]

        itals = recall_at_20(fit(obs3, config), requests)
        assert itals > recall_at_20(fit_ials(obs2, config), None)
        assert itals > recall_at_20(fit_ica(obs3, config), requests)

class TestPrCurve:
    def test_row_count_and_header(self):
        report = RankingReport(
            n_max=50,
            recall=np.linspace(0.01, 0.5, 50),
            precision=np.linspace(0.5, 0.01, 50),
            n_users=10,
        )
        text = emit_pr_curve(report)
        lines = text.strip().split("\n")
        assert lines[0] == "N,recall,precision"
        assert len(lines) == 51
        first = lines[1].split(",")
        assert first[0] == "1"

    def test_writes_file(self, tmp_path):
        report = RankingReport(2, np.array([0.1, 0.2]), np.array([0.1, 0.1]), 3)
        path = tmp_path / "curve.csv"
        emit_pr_curve(report, path)
        assert path.read_text().startswith("N,recall,precision")

    def test_perfect_ranker_curve_reaches_one(self):
        model = identity_scorer([[5.0, 1.0]])
        test = make_event_log([0], [0], [1], n_users=1, n_items=2)
        report = recall_precision_at(model, test, 2)
        text = emit_pr_curve(report)
        last = text.strip().split("\n")[-1].split(",")
        assert float(last[1]) == 1.0
