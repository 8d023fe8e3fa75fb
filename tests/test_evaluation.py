import io
import logging

import numpy as np
import pytest

from itals import (
    CompositeModel,
    ContextError,
    EvalError,
    Model,
    RankingReport,
    SeasonSpec,
    SplitSpec,
    TensorShape,
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
from itals.evaluation import score_items

from conftest import DAY, make_event_log, seasonal_dataset


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


class TestQualityGate:
    def test_itals_beats_both_baselines_on_seasonal_log(self):
        # the paper's seasonality result: pooling all sessions and
        # reweighting by time band beats a bandless model and per-band models
        log, split_ts = seasonal_dataset(seed=0)
        train, test = split_by_date(log, SplitSpec(split_ts))
        season = SeasonSpec.uniform(DAY, 6)
        shape3 = TensorShape((log.n_users, log.n_items, 6), ("user", "item", "timeband"))
        obs3 = build_tensor(train, time_band_states(train.timestamps, season), shape3)
        obs2 = build_tensor(train, None, TensorShape(shape3.dims[:2], ("user", "item")))
        order = np.lexsort((test.timestamps, test.users))
        first = {}
        for idx in order[::-1].tolist():
            first[int(test.users[idx])] = [(assign_time_band(test.timestamps[idx], season), 1.0)]
        config = TrainConfig(features=20, epochs=10, reg=0.1)

        def recall_at_20(model, requests):
            return recall_precision_at(model, test, 20, requests, seen=train).at(20)[0]

        itals = recall_at_20(fit(obs3, config), first)
        assert itals > recall_at_20(fit_ials(obs2, config), None)
        assert itals > recall_at_20(fit_ica(obs3, config), first)


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
