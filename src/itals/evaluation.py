"""Date splits, implicitization and top-N ranking metrics.

Evaluation and serving rank through one path.  ``score_items`` scores
every item for one user in one request context (for a composite model
the heaviest context state picks the sub-model); ``recommend_topn``
drops the excluded items and keeps the top N, ties broken by ascending
item id; ``recall_precision_at`` groups the test and seen logs by user
once and calls ``recommend_topn`` for each test user.

Recall@N and precision@N follow the per-user convention: relevant items
are the distinct items the user touched in the test period, one ranking
is produced per user from their request-time context, and metrics are
averaged over the users with at least one test event.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .baseline import CompositeModel
from .context import ContextError, resolve_context_vector
from .events import EventLog, RatingLog

__all__ = [
    "SplitSpec",
    "RankedList",
    "RankingReport",
    "EvalError",
    "implicitize",
    "split_by_date",
    "score_items",
    "recommend_topn",
    "recall_precision_at",
    "emit_pr_curve",
]

log = logging.getLogger("itals")


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class SplitSpec:
    """Date-based split: train strictly before, test at or after.

    With a horizon, test events at or past split_timestamp + horizon are
    dropped entirely.
    """

    split_timestamp: int
    test_horizon: Optional[int] = None

    def __post_init__(self):
        if self.test_horizon is not None and self.test_horizon <= 0:
            raise EvalError("test_horizon must be positive when given")


def split_by_date(events: EventLog, spec: SplitSpec):
    """Partition an event log into (train, test) by timestamp."""
    train_mask = events.timestamps < spec.split_timestamp
    test_mask = ~train_mask
    if spec.test_horizon is not None:
        test_mask &= events.timestamps < spec.split_timestamp + spec.test_horizon
    train = events.select(train_mask)
    test = events.select(test_mask)
    if len(train) == 0:
        log.warning("date split produced an empty training set")
    if len(test) == 0:
        log.warning("date split produced an empty test set")
    return train, test


def implicitize(ratings: RatingLog, threshold: float) -> EventLog:
    """Keep ratings at or above the threshold as positive implicit events."""
    mask = ratings.ratings >= threshold
    return EventLog(
        users=ratings.users[mask],
        items=ratings.items[mask],
        timestamps=ratings.timestamps[mask],
        categories=None,
        user_ids=ratings.user_ids,
        item_ids=ratings.item_ids,
        category_ids=None,
    )


@dataclass
class RankedList:
    """Top-N recommendation for one user: item ids with descending scores."""

    user: int
    items: np.ndarray
    scores: np.ndarray


StateInput = Union[int, Sequence, Mapping, None]


def _states_per_axis(model, states: StateInput) -> dict:
    """Normalize context-state input to {axis: [(state, weight), ...]}.

    Every context axis of the model, and no other axis, gets a non-empty
    list; a bare state or list applies to the single context axis.
    """
    ctx_axes = model.shape.context_axes
    if not ctx_axes:
        return {}
    if states is None:
        raise EvalError("model has a context axis; context states are required")
    if isinstance(states, Mapping):
        if set(states) != set(ctx_axes):
            raise EvalError(f"context states must be keyed by the context axes {ctx_axes}")
        per_axis = {axis: list(pairs) for axis, pairs in states.items()}
    elif len(ctx_axes) != 1:
        raise EvalError("pass a {axis: states} mapping for multi-context models")
    elif isinstance(states, (int, np.integer)):
        per_axis = {ctx_axes[0]: [(int(states), 1.0)]}
    else:
        per_axis = {ctx_axes[0]: list(states)}
    if not all(per_axis.values()):
        raise EvalError("empty context state list")
    return per_axis


def score_items(model, user: int, states: StateInput = None, allow_unknown: bool = False) -> np.ndarray:
    """Scores for every item, for one user in one context.

    For a tensor model this is the item factor matrix contracted with the
    elementwise product of the user column and the resolved context
    vectors.  For a composite model the heaviest context state selects
    the sub-model (null sub-models score everything 0).  An
    out-of-vocabulary user raises unless ``allow_unknown``, which scores
    from a zero vector.
    """
    n_users = model.shape.dims[model.shape.user_axis]
    n_items = model.shape.dims[model.shape.item_axis]
    if not (0 <= user < n_users):
        if allow_unknown:
            return np.zeros(n_items)
        raise EvalError(f"unknown user {user} (model has {n_users})")
    per_axis = _states_per_axis(model, states)
    if isinstance(model, CompositeModel):
        (pairs,) = per_axis.values()
        if not all(0 < weight < np.inf for _, weight in pairs):
            raise ContextError("context weights must be finite and > 0")
        state = int(max(pairs, key=lambda sw: sw[1])[0])
        if not (0 <= state < model.n_states):
            raise ContextError(f"context state {state} out of bounds (size {model.n_states})")
        sub = model.submodels[state]
        return np.zeros(n_items) if sub is None else score_items(sub, user)
    weights = model.factors[model.shape.user_axis][:, user].copy()
    for axis, pairs in per_axis.items():
        weights *= resolve_context_vector(model, pairs, axis)
    return weights @ model.factors[model.shape.item_axis]


def recommend_topn(
    model,
    user: int,
    states: StateInput,
    n: int,
    exclude_items: Optional[np.ndarray] = None,
    allow_unknown: bool = False,
) -> RankedList:
    """Rank the top n items for a user, ties broken by ascending item id.

    ``exclude_items`` drops the given item ids in [0, n_items) (typically
    the user's training items, repeats allowed) from the candidate set, so
    the list is shorter than n when fewer candidates remain.
    """
    if n < 1:
        raise EvalError("n must be >= 1")
    scores = score_items(model, user, states, allow_unknown=allow_unknown)
    # rank by ascending key; excluded items sort after every candidate
    key = -scores
    if exclude_items is not None:
        exclude = np.asarray(exclude_items, dtype=np.int64)
        try:  # the bounds check of ravel_multi_index costs a third of min and max
            key[np.ravel_multi_index((exclude,), key.shape)] = np.inf
        except ValueError:
            raise EvalError(f"excluded item ids must lie in [0, {key.size})") from None
    n = min(n, key.size)
    # the candidates with keys at or below the n-th; "not above" also
    # keeps NaN keys, which then sort last as in a full sort
    top = np.flatnonzero(~(key > np.partition(key, n - 1)[n - 1]))
    top = top[key[top] != np.inf]
    # a stable sort of ascending ids keeps the ascending-id tie-break
    top = top[np.argsort(key[top], kind="stable")[:n]]
    return RankedList(user=user, items=top, scores=scores[top])


@dataclass
class RankingReport:
    """Recall@N and precision@N for N = 1..n_max plus evaluation counts."""

    n_max: int
    recall: np.ndarray
    precision: np.ndarray
    n_users: int
    n_skipped: int = 0
    average: str = "macro"

    def at(self, n: int):
        return float(self.recall[n - 1]), float(self.precision[n - 1])


def _items_by_user(log: EventLog, users: np.ndarray):
    """(items, lo, hi): ``items[lo[j]:hi[j]]`` are the items of ``users[j]``."""
    order = np.lexsort((log.items, log.users))
    grouped = log.users[order]
    lo = np.searchsorted(grouped, users, side="left")
    hi = np.searchsorted(grouped, users, side="right")
    return log.items[order], lo, hi


def recall_precision_at(
    model,
    test: EventLog,
    n_max: int,
    request_states: Optional[Mapping] = None,
    seen: Optional[EventLog] = None,
    skip_unknown_users: bool = False,
    average: str = "macro",
) -> RankingReport:
    """Ranking metrics over all users with at least one test event.

    Per user, relevant items are the distinct test items; hits@N counts
    the relevant items in that user's top N.  ``request_states`` maps each
    user id to their recommendation-request context; ``seen`` excludes
    that log's per-user items from rankings.  Users outside the model
    vocabulary score zero hits unless ``skip_unknown_users``.  ``average``
    is macro (mean of per-user ratios) or micro (ratio of summed counts).
    """
    if n_max < 1:
        raise EvalError("n_max must be >= 1")
    if len(test) == 0:
        raise EvalError("test log is empty")
    if average not in ("macro", "micro"):
        raise EvalError("average must be 'macro' or 'micro'")

    n_users_model = model.shape.dims[model.shape.user_axis]
    users = np.unique(test.users)
    test_items, test_lo, test_hi = _items_by_user(test, users)
    if seen is not None:
        seen_items, seen_lo, seen_hi = _items_by_user(seen, users)

    steps = np.arange(1, n_max + 1, dtype=np.float64)
    recall_sum = np.zeros(n_max)
    precision_sum = np.zeros(n_max)
    hits_sum = np.zeros(n_max)
    total_relevant = 0
    n_eval = 0
    n_skipped = 0

    for j, user in enumerate(users.tolist()):
        relevant = np.unique(test_items[test_lo[j] : test_hi[j]])
        flags = np.zeros(n_max)
        if user >= n_users_model:
            if skip_unknown_users:
                n_skipped += 1
                continue
        else:
            states = None
            if request_states is not None:
                try:
                    states = request_states[user]
                except KeyError:
                    raise EvalError(f"no request context for user {user}") from None
            exclude = None if seen is None else seen_items[seen_lo[j] : seen_hi[j]]
            ranked = recommend_topn(model, user, states, n_max, exclude_items=exclude)
            flags[: len(ranked.items)] = np.isin(ranked.items, relevant)
        hits = np.cumsum(flags)
        n_eval += 1
        total_relevant += len(relevant)
        hits_sum += hits
        recall_sum += hits / len(relevant)
        precision_sum += hits / steps

    if n_eval == 0:
        raise EvalError("no evaluable users in the test log")
    if average == "macro":
        recall = recall_sum / n_eval
        precision = precision_sum / n_eval
    else:
        recall = hits_sum / total_relevant
        precision = hits_sum / (steps * n_eval)
    return RankingReport(n_max, recall, precision, n_eval, n_skipped, average)


def emit_pr_curve(report: RankingReport, path: Union[str, Path, None] = None) -> str:
    """CSV of (N, recall, precision) rows for N = 1..n_max."""
    buf = io.StringIO()
    buf.write("N,recall,precision\n")
    for n in range(1, report.n_max + 1):
        r, p = report.at(n)
        buf.write(f"{n},{r:.10g},{p:.10g}\n")
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
