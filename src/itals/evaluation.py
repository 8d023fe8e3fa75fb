"""Date splits, implicitization and top-N ranking metrics.

Evaluation and serving rank through one scorer and one selection rule.
``_score_rows`` scores a block of users against every item: for a tensor
model one matrix product of the user columns, weighted elementwise by
the resolved request contexts, against the item factors; for a
composite model the heaviest context state of each user picks the
sub-model.  The selection rule keeps a row's top N, ties broken by
ascending item id, with excluded items dropped and NaN scores last.
Serving applies it to one row (``_top_n``), evaluation to every row of
a block at once (``_top_n_rows``).  A row whose n-th smallest key is
finite takes the keys at or below it as its candidates, since every
excluded (+inf) and NaN key lies above; a row with fewer than n finite
keys also keeps its NaN keys, which sort last.

A request context is a list of (state, weight) pairs per context axis.
One rule holds for every pair, checked by ``_check_pair``: the state is
a Python or numpy integer in [0, axis size) and the weight a Python or
numpy number, finite and > 0 (a bool is neither, a string no number);
else ContextError names the first bad pair.  ``_contexts`` normalizes
the context input of a block of requests, ``_pairs`` checks a block's
pairs with one vectorized test, ``_resolve`` turns a block of lists into
weighted averages of the context factor columns (one gather when every
list has one pair), and the composite's selection takes the first pair
of largest weight of every list at once.

``score_items`` and ``recommend_topn`` are the one-user case.
``recall_precision_at`` refuses negative ids in either log and seen
items outside the model before it ranks anyone.  It takes the distinct
test users from one ``bincount`` and ranks them in ascending order, in
blocks of at most ``RANK_BLOCK`` scores; a user -> (block, row) map and
one counting sort on the block number put every test and seen event
into its block, so no log is sorted by comparison and none is read once
per block.  A block resolves its contexts, scores its rows with one
product, marks its seen items with one assignment, selects the top N of
all rows with one partition and one sort, and takes the hits from a
boolean block of relevant items.  No item is ranked past the row width,
so blocks rank at most that many positions and the hits of the rest are
filled in.  A block's scores come from one matrix product and a one-row
request's from a vector product, which may round differently in the last
bits, within the dot-product bound K * eps * sum |terms| (differences of
1.8e-15 were seen at K = 20).  The per-user sums run over users in
order, so the metrics equal a loop over ``recommend_topn`` wherever no
two of a user's candidate scores lie within that difference, as on the
tests' and the benchmark's instances.

Recall@N and precision@N follow the per-user convention: relevant items
are the distinct items the user touched in the test period, one ranking
is produced per user from their request-time context, and metrics are
averaged over the users with at least one test event.
"""

from __future__ import annotations

import io
import logging
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .baseline import CompositeModel
from .context import ContextError
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

# A ranking block holds at most this many entries per array: its rows
# are as wide as the items (136 users at 480 items), and it ranks at most
# that many positions, so its score, key, relevance and metric arrays
# stay under about 1 MB each whatever n_max.
RANK_BLOCK = 1 << 16


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


def _contexts(ctx_axes: tuple, requests: Sequence) -> dict:
    """Normalize a block of context-state inputs to {axis: [pairs of each request]}.

    Every context axis of the model, ``ctx_axes``, and no other axis gets
    a non-empty list of (state, weight) pairs per request; a bare state or
    list applies to the single context axis.  The first bad request raises
    EvalError.
    """
    if not ctx_axes:
        return {}
    if len(ctx_axes) == 1 and all(type(states) is list and states for states in requests):
        # the usual input, a non-empty list per request, is only read: no copies
        return {ctx_axes[0]: list(requests)}
    per_axis = {axis: [] for axis in ctx_axes}
    for states in requests:
        if states is None:
            raise EvalError("model has a context axis; context states are required")
        if isinstance(states, Mapping):
            if set(states) != set(ctx_axes):
                raise EvalError(f"context states must be keyed by the context axes {ctx_axes}")
            by_axis = states.items()
        elif len(ctx_axes) != 1:
            raise EvalError("pass a {axis: states} mapping for multi-context models")
        elif isinstance(states, (int, np.integer)):  # a bool too, which the rule refuses
            by_axis = [(ctx_axes[0], [(states, 1.0)])]
        else:
            by_axis = [(ctx_axes[0], states)]
        for axis, pairs in by_axis:
            pairs = list(pairs)
            if not pairs:
                raise EvalError("empty context state list")
            per_axis[axis].append(pairs)
    return per_axis


# The types a request pair may hold; a bool is an int but neither a state
# nor a weight.
_STATE_TYPES = (int, np.integer)
_WEIGHT_TYPES = (float, int, np.floating, np.integer)


def _of_types(values, types) -> bool:
    """Whether every value is an instance of ``types`` and none is a bool."""
    kinds = set(map(type, values))
    return bool not in kinds and all(issubclass(kind, types) for kind in kinds)


def _check_pair(state, weight, size: int) -> None:
    """The request rule: an integer state in [0, size) and a finite number > 0 as weight."""
    if not (isinstance(state, _STATE_TYPES) and type(state) is not bool and 0 <= state < size):
        raise ContextError(f"context state {state} out of bounds (size {size})")
    if not (isinstance(weight, _WEIGHT_TYPES) and type(weight) is not bool and 0 < weight < np.inf):
        raise ContextError(f"context weight {weight} of state {state} must be finite and > 0")


def _pairs(lists: Sequence, size: int):
    """(states, weights, lengths) of a block of pair lists, each pair checked by the request rule.

    ``states`` (integers) and ``weights`` (float64) hold every pair in list
    order, ``lengths`` the pair count of each list.  One vectorized test
    passes a valid block; otherwise every pair goes through
    ``_check_pair``, so ContextError names the first bad one.
    """
    lengths = np.array([len(pairs) for pairs in lists], dtype=np.int64)
    pairs = [pair for states in lists for pair in states]
    states = [state for state, _ in pairs]
    weights = [weight for _, weight in pairs]
    # numpy would read a bool state as an integer and a string weight as a
    # number, so only states and weights of the rule's types become arrays
    typed = _of_types(states, _STATE_TYPES) and _of_types(weights, _WEIGHT_TYPES)
    if typed:
        states, weights = np.array(states), np.array(weights, dtype=np.float64)
    if not (
        typed
        and states.dtype.kind in "iu"
        and ((states >= 0) & (states < size) & (weights > 0) & (weights < np.inf)).all()
    ):
        for state, weight in pairs:
            _check_pair(state, weight, size)
        states = states.astype(np.int64)  # numpy ints of mixed signedness, read as floats
    return states, weights, lengths


def _heaviest(lists: Sequence, size: int) -> np.ndarray:
    """The state of each list's first pair of largest weight; every pair is checked."""
    states, weights, lengths = _pairs(lists, size)
    col = np.repeat(np.arange(lengths.size), lengths)
    top = np.flatnonzero(weights == np.maximum.reduceat(weights, np.cumsum(lengths) - lengths)[col])
    # ``top`` holds the heaviest pairs in list order; keep each list's first
    return states[top[np.r_[True, col[top[1:]] != col[top[:-1]]]]]


def _resolve(matrix: np.ndarray, lists: Sequence) -> np.ndarray:
    """(K, B) weighted averages of ``matrix`` columns, one per list of (state, weight) pairs.

    Every column sums its pairs in list order, so a block equals its lists
    resolved one at a time bit for bit.  One list is a loop over its pairs
    (fewer numpy calls).  A block gathers every list's first pair in one
    pass, which is all a block of one-pair lists needs, then adds one
    later list position's pairs at a time across the block.  A pair that
    breaks the request rule raises ContextError, the first one named.
    """
    size = matrix.shape[1]
    if len(lists) == 1:
        vec = np.zeros(matrix.shape[0])
        total = 0.0
        for state, weight in lists[0]:
            # a valid pair of a Python int and float, the usual one, skips the call
            if not (
                type(state) is int and 0 <= state < size
                and type(weight) is float and 0 < weight < np.inf
            ):
                _check_pair(state, weight, size)
                weight = float(weight)  # a numpy float32 total would not sum as a block's
            # multiplying or dividing by exactly 1.0 changes no bit, so it is skipped
            vec += matrix[:, state] if weight == 1.0 else weight * matrix[:, state]
            total += weight
        return (vec if total == 1.0 else vec / total)[:, None]
    states, weights, lengths = _pairs(lists, size)
    first = np.cumsum(lengths) - lengths
    totals = weights[first]
    # adding the first pair to a zero column, as a list's sum starts, turns -0.0 into +0.0
    vecs = totals * matrix[:, states[first]] + 0.0
    if lengths.max() > 1:
        # pair p is at position rank[p] of the list of column col[p]; a stable
        # sort by position makes each position's pairs one slice, columns
        # ascending, the first slice being the first pairs
        col = np.repeat(np.arange(lengths.size), lengths)
        rank = np.arange(states.size) - np.repeat(first, lengths)
        by_rank = np.argsort(rank, kind="stable")
        ends = np.cumsum(np.bincount(rank)).tolist()
        for lo, hi in zip(ends, ends[1:]):
            at = by_rank[lo:hi]
            vecs[:, col[at]] += weights[at] * matrix[:, states[at]]
            totals[col[at]] += weights[at]
    return vecs / totals


def _score_rows(model, users: np.ndarray, contexts: dict) -> np.ndarray:
    """(B, n_items) scores of the known ``users``, one row per user.

    ``contexts`` maps each context axis to the B users' lists of (state,
    weight) pairs.  A tensor model scores the block with one matrix
    product of the user columns, weighted elementwise by the resolved
    context vectors, against the item factors.  A composite model groups
    the users by the sub-model their heaviest state selects; a null
    sub-model scores 0.
    """
    if isinstance(model, CompositeModel):
        (lists,) = contexts.values()
        states = _heaviest(lists, model.n_states)
        scores = np.zeros((users.size, model.shape.dims[model.shape.item_axis]))
        for state in np.unique(states).tolist():
            sub = model.submodels[state]
            if sub is not None:
                rows = np.flatnonzero(states == state)
                scores[rows] = _score_rows(sub, users[rows], {})
        return scores
    weights = model.factors[model.shape.user_axis].take(users, axis=1)
    for axis, lists in contexts.items():
        weights *= _resolve(model.factors[axis], lists)
    return weights.T @ model.factors[model.shape.item_axis]


def score_items(model, user: int, states: StateInput = None, allow_unknown: bool = False) -> np.ndarray:
    """Scores for every item, for one user in one context.

    The one-user case of the block scorer: for a tensor model, the item
    factor matrix contracted with the elementwise product of the user
    column and the resolved context vectors; for a composite model, the
    sub-model of the heaviest context state (null sub-models score
    everything 0).  An out-of-vocabulary user raises unless
    ``allow_unknown``, which scores from a zero vector.
    """
    if not isinstance(user, _STATE_TYPES) or type(user) is bool:
        raise EvalError(f"user must be a Python or numpy integer, got {user!r}")
    n_users = model.shape.dims[model.shape.user_axis]
    n_items = model.shape.dims[model.shape.item_axis]
    if not (0 <= user < n_users):
        if allow_unknown:
            return np.zeros(n_items)
        raise EvalError(f"unknown user {user} (model has {n_users})")
    contexts = _contexts(model.shape.context_axes, [states])
    return _score_rows(model, np.array([user]), contexts)[0]


def _top_n(key: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n smallest keys, ascending, ties broken by ascending index.

    NaN keys rank last.  Keys of +inf mark excluded items, which drop
    out, so fewer than n indices come back when fewer candidates remain.
    """
    n = min(n, key.size)
    nth = np.partition(key, n - 1)[n - 1]
    if nth < np.inf:
        # the candidates: keys at or below a finite n-th, above which lie
        # every excluded and NaN key
        top = (key <= nth).nonzero()[0]
    else:
        # fewer than n finite keys: "not above" the n-th also keeps NaN
        # keys, which then sort last as in a full sort
        top = (~(key > nth)).nonzero()[0]
        top = top[key[top] != np.inf]
    # a stable sort of ascending ids keeps the ascending-id tie-break
    return top[np.argsort(key[top], kind="stable")[:n]]


def _top_n_rows(key: np.ndarray, n: int):
    """(rows, ranks, indices) of every row's top n keys, by the rule of ``_top_n``.

    One partition finds each row's n-th key.  The candidates, chosen as
    ``_top_n`` chooses them, are ordered by row, then key, then index, and
    the first n of each row are kept, ``ranks`` counting from 0.
    """
    width = key.shape[1]
    n = min(n, width)
    nth = np.partition(key, n - 1, axis=1)[:, [n - 1]]  # a copy: the partition is freed
    candidates = key <= nth
    short = np.flatnonzero(~(nth[:, 0] < np.inf))
    if short.size:  # rows with fewer than n finite keys
        keys = key[short]
        candidates[short] = ~(keys > nth[short]) & (keys != np.inf)
    flat = np.flatnonzero(candidates)
    rows, top = np.divmod(flat, width)
    # dense ranks of the keys (equal keys share one, NaN ranks last) make
    # (row, key, index) one distinct integer, so one unstable sort orders
    # each row as the stable sort of _top_n does; it is below key.size
    # squared, as distinct.size <= key.size, so int64 holds it for any key
    # under 3e9 entries (RANK_BLOCK sizing keeps key.size <= max(2**16, width))
    distinct, dense = np.unique(key.ravel()[flat], return_inverse=True)
    order = np.argsort((rows * np.int64(distinct.size) + dense) * width + top)
    counts = np.bincount(rows, minlength=key.shape[0])
    ranks = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
    first = ranks < n
    keep = order[first]
    return rows[keep], ranks[first], top[keep]


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
        exclude = np.asarray(exclude_items)
        if exclude.size and exclude.dtype.kind not in "iu":
            raise EvalError(f"excluded item ids must be integers, got an array of {exclude.dtype}")
        try:  # the bounds check of ravel_multi_index costs a third of min and max
            key[np.ravel_multi_index((exclude.astype(np.int64, copy=False),), key.shape)] = np.inf
        except ValueError:
            raise _exclude_error(key.size) from None
    top = _top_n(key, n)
    return RankedList(user=user, items=top, scores=scores[top])


def _exclude_error(n_items: int) -> EvalError:
    return EvalError(f"excluded item ids must lie in [0, {n_items})")


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


def _counting_order(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """A stable order of integer keys in [0, n_keys), in time linear in their count.

    numpy's stable sort of 16-bit integers is a radix sort; wider keys
    take one such pass per 16 bits, least significant first.
    """
    order = np.argsort(keys.astype(np.uint16, copy=False), kind="stable")
    for shift in range(16, (n_keys - 1).bit_length(), 16):
        order = order[np.argsort((keys[order] >> shift).astype(np.uint16), kind="stable")]
    return order


def _cells_by_block(log: EventLog, block_of: np.ndarray, base_of: np.ndarray, n_blocks: int):
    """(cells, ends): the flat cell index of each of ``log``'s events in its ranking block.

    ``block_of[u]`` is user u's block (``n_blocks`` for a user not ranked,
    whose events drop out) and ``base_of[u]`` the flat index of the first
    cell of u's row in it; the maps' last entries stand for every larger
    id.  One counting sort on the block number groups the events, so
    block b's cells are ``cells[ends[b]:ends[b + 1]]``.
    """
    blocks = block_of.take(log.users, mode="clip")
    counts = np.bincount(blocks, minlength=n_blocks + 1)
    kept = _counting_order(blocks, n_blocks + 1)[: blocks.size - counts[n_blocks]]
    cells = base_of.take(log.users, mode="clip") + log.items
    return cells[kept], np.r_[0, np.cumsum(counts[:n_blocks])]


def _requests(request_states: Mapping, users: list) -> list:
    """The request context of each of ``users``; a user without one raises EvalError."""
    try:
        return [request_states[user] for user in users]
    except KeyError:
        missing = next(user for user in users if user not in request_states)
        raise EvalError(f"no request context for user {missing}") from None


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
    n_items = model.shape.dims[model.shape.item_axis]
    ctx_axes = model.shape.context_axes
    for kind, ids in (("user", test.users), ("item", test.items)):
        if ids.min() < 0:
            raise EvalError(f"test log holds a negative {kind} id, {ids.min()}")
    if seen is not None and seen.items.size:
        if seen.users.min() < 0:
            raise EvalError(f"seen log holds a negative user id, {seen.users.min()}")
        if seen.items.min() < 0 or seen.items.max() >= n_items:
            raise _exclude_error(n_items)
    counts = np.bincount(test.users)
    users = np.flatnonzero(counts)
    # the users ascend, so the ones the model knows come first
    n_known = int(np.searchsorted(users, n_users_model))
    n_skipped = 0
    if skip_unknown_users:
        n_skipped = users.size - n_known
        users = users[:n_known]
    if users.size == 0:
        raise EvalError("no evaluable users in the test log")
    # a test item the model does not know is relevant but never ranked
    width = max(n_items, int(test.items.max()) + 1)
    # no item is ranked past the width, so blocks rank at most width positions
    depth = min(n_max, width)
    block = max(1, RANK_BLOCK // width)
    n_blocks = -(-users.size // block)
    rows = np.arange(users.size)
    block_of = np.full(counts.size + 1, n_blocks, dtype=np.uint16 if n_blocks < 1 << 16 else np.int64)
    block_of[users] = rows // block
    base_of = np.zeros(counts.size + 1, dtype=np.int64)
    base_of[users] = rows % block * width
    test_cells, test_ends = _cells_by_block(test, block_of, base_of, n_blocks)
    if seen is not None:
        # only the known users' rows are scored, n_items keys each
        block_of[users[n_known:]] = n_blocks
        base_of[users] = rows % block * n_items
        seen_cells, seen_ends = _cells_by_block(seen, block_of, base_of, n_blocks)
    steps = np.arange(1, n_max + 1, dtype=np.float64)
    macro = average == "macro"
    # running sums over users in user order: recall and precision terms
    # (macro) or hits (micro); each block adds its rows one at a time
    sums = np.zeros((2 if macro else 1, depth))
    total_relevant = 0
    last_hits = []

    for b in range(n_blocks):
        start = b * block
        block_users = users[start : start + block]
        relevant = np.zeros((block_users.size, width), dtype=bool)
        np.put(relevant, test_cells[test_ends[b] : test_ends[b + 1]], True)
        flags = np.zeros((block_users.size, depth))
        known = min(block_users.size, max(0, n_known - start))
        if known:
            ranked = block_users[:known]
            states = [None] * known
            if request_states is not None:
                states = _requests(request_states, ranked.tolist())
            key = _score_rows(model, ranked, _contexts(ctx_axes, states))
            np.negative(key, out=key)
            if seen is not None:
                np.put(key, seen_cells[seen_ends[b] : seen_ends[b + 1]], np.inf)
            top_rows, ranks, top = _top_n_rows(key, depth)
            flags[top_rows, ranks] = relevant[top_rows, top]
        hits = np.cumsum(flags, axis=1)
        if depth < n_max:
            last_hits.append(hits[:, -1].copy())
        n_relevant = relevant.sum(axis=1)
        total_relevant += int(n_relevant.sum())
        terms = np.empty((block_users.size + 1, *sums.shape))
        terms[0] = sums
        if macro:
            np.divide(hits, n_relevant[:, None], out=terms[1:, 0])
            np.divide(hits, steps[:depth], out=terms[1:, 1])
        else:
            terms[1:, 0] = hits
        # cumsum adds the rows one after another, like a loop over users
        sums = np.cumsum(terms, axis=0)[-1]

    if depth < n_max:
        # past the width every user's hits stay at their last count, so the
        # recall terms and the hits keep their last sum; the precision terms
        # are summed over users in order, a block of positions at a time
        hits = np.concatenate(last_hits)
        tail = np.empty((sums.shape[0], n_max - depth))
        tail[0] = sums[0, -1]
        if macro:
            chunk = max(1, RANK_BLOCK // hits.size)
            for lo in range(depth, n_max, chunk):
                terms = hits[:, None] / steps[lo : lo + chunk]
                tail[1, lo - depth : lo - depth + terms.shape[1]] = np.cumsum(terms, axis=0)[-1]
        sums = np.concatenate([sums, tail], axis=1)

    n_eval = users.size
    if macro:
        recall = sums[0] / n_eval
        precision = sums[1] / n_eval
    else:
        recall = sums[0] / total_relevant
        precision = sums[0] / (steps * n_eval)
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
