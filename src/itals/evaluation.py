"""Date splits, implicitization and top-N ranking metrics.

Evaluation and serving rank through one scorer and one selection rule.
``_score_rows`` scores a block of users against every item: for a tensor
model one matrix product of the user columns, weighted elementwise by
the resolved request contexts, against the item factors; for a
composite model the heaviest context state of each user picks the
sub-model (the module's one test of the model kind).  The selection
rule keeps a row's top N, ties broken by ascending item id, with
excluded items dropped and NaN scores last.  Serving applies it to one
row (``_top_n``), evaluation to every row of a block at once
(``_top_n_rows``).  A row whose n-th smallest key is finite takes the
keys at or below it as its candidates, since every excluded (+inf) and
NaN key lies above; a row with fewer than n finite keys also keeps its
NaN keys, which sort last.  The block form puts the candidates in a
(rows x most candidates) grid, a reshape when every row has as many,
and orders each row with one stable sort.

A request context is a list of (state, weight) pairs per context axis.
One rule holds for every pair, checked by ``_check_pair``: the state is
a Python or numpy integer in [0, axis size) and the weight a Python or
numpy number, finite and > 0 (a bool is neither, a string no number);
else ContextError names the first bad pair.  A ranking call reads its
users' requests once, into columns (``_Requests``: states, weights and
per-user offsets) that one vectorized test checks (``_checked``): a
``context.RequestPairs``, as the specs give, is gathered from its
columns with no per-user step, any other mapping is read once per user,
normalized by ``_contexts`` and flattened by ``_pairs``.  Each block
takes its rows' slice of the columns; ``_resolve`` turns it into
weighted averages of the context factor columns (one gather when every
list has one pair), and the composite takes the first pair of largest
weight of every request of the block, in ``_score_rows``.

``score_items`` and ``recommend_topn`` are the one-user case.
``recall_precision_at`` refuses negative ids in either log and seen
items outside the model before it ranks anyone.  It takes the distinct
test users from one ``bincount`` and ranks them in ascending order, in
blocks of at most ``RANK_BLOCK`` scores; a user -> (block, row) map and
one counting sort on the block number put every test and seen event
into its block, so no log is sorted by comparison and none is read once
per block.  A block resolves its contexts, scores its rows with one
product, marks its seen items with one assignment, selects the top N of
all rows with one partition and one stable sort per row of candidates,
and takes the hits from a boolean block of relevant items.  No item is
ranked past the row width, so blocks rank at most that many positions
and the hits of the rest are filled in.  A block's scores come from one
matrix product and a one-row request's from a vector product, which may
round differently in the last bits, within the dot-product bound K * eps * sum |terms| (differences of
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
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .baseline import CompositeModel
from .context import ContextError, RequestPairs, _take_runs
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
    dropped entirely.  Both are real numbers, not bools or NaN.
    """

    split_timestamp: int
    test_horizon: Optional[int] = None

    def __post_init__(self):
        horizon = () if self.test_horizon is None else (("test_horizon", self.test_horizon),)
        for name, value in (("split_timestamp", self.split_timestamp), *horizon):
            # value != value only for NaN
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or value != value:
                raise EvalError(f"{name} must be a real number, got {value!r}")
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


class _Requests:
    """Checked request pairs of a block of rows on one context axis, as columns.

    Row j's pairs are ``states[offsets[j]:offsets[j + 1]]`` (int64, in
    the axis) with the matching ``weights`` (float64, finite and > 0);
    no row is empty.  A ranking block scores the ``rows`` slice of its
    users, and a composite model picks their sub-models by ``heaviest``.
    """

    __slots__ = ("states", "weights", "offsets")

    def __init__(self, states, weights, offsets):
        self.states, self.weights, self.offsets = states, weights, offsets

    def rows(self, lo: int, hi: int) -> "_Requests":
        """The rows [lo, hi), as views."""
        a, b = self.offsets[lo], self.offsets[hi]
        return _Requests(self.states[a:b], self.weights[a:b], self.offsets[lo : hi + 1] - a)

    def heaviest(self) -> np.ndarray:
        """The state of each row's first pair of largest weight."""
        lengths = np.diff(self.offsets)
        col = np.repeat(np.arange(lengths.size), lengths)
        top = np.flatnonzero(self.weights == np.maximum.reduceat(self.weights, self.offsets[:-1])[col])
        # ``top`` holds the heaviest pairs in row order; keep each row's first
        return self.states[top[np.r_[True, col[top[1:]] != col[top[:-1]]]]]


def _checked(states: np.ndarray, weights: np.ndarray, offsets: np.ndarray, size: int, pairs=None) -> _Requests:
    """The pair columns as ``_Requests`` if every pair keeps the request rule.

    One vectorized test passes valid columns; otherwise every pair, as
    given in ``pairs`` (the columns' own values by default), goes through
    ``_check_pair``, so ContextError names the first bad one.
    """
    if not (
        states.dtype.kind in "iu"
        and weights.dtype.kind in "fiu"
        and ((states >= 0) & (states < size) & (weights > 0) & (weights < np.inf)).all()
    ):
        for state, weight in pairs or zip(states.tolist(), weights.tolist()):
            _check_pair(state, weight, size)
    # numpy ints of mixed signedness are read as floats, and a column may hold objects
    return _Requests(states.astype(np.int64, copy=False), weights.astype(np.float64, copy=False), offsets)


def _pairs(lists: Sequence, size: int) -> _Requests:
    """The checked columns of a block of pair lists, each pair checked by the request rule."""
    counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    pairs = list(chain.from_iterable(lists))
    states = [state for state, _ in pairs]
    weights = [weight for _, weight in pairs]
    # numpy would read a bool state as an integer and a string weight as a
    # number, so only states and weights of the rule's types become arrays
    if not (_of_types(states, _STATE_TYPES) and _of_types(weights, _WEIGHT_TYPES)):
        for state, weight in pairs:
            _check_pair(state, weight, size)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return _checked(np.array(states), np.array(weights, dtype=np.float64), offsets, size, pairs)


def _of_requests(requests: RequestPairs, users: np.ndarray, size: int) -> _Requests:
    """The checked columns of ``users``' rows of ``requests``, gathered with no per-user step."""
    at = np.searchsorted(requests.users, users)
    found = at < requests.users.size
    found[found] = requests.users[at[found]] == users[found]
    if not found.all():
        raise EvalError(f"no request context for user {users[~found][0]}")
    offsets, take = _take_runs(requests.offsets, at)
    if not np.diff(offsets).all():
        raise EvalError("empty context state list")
    return _checked(requests.states[take], requests.weights[take], offsets, size)


def _request_columns(model, request_states, users: np.ndarray) -> dict:
    """{context axis: ``_Requests``} of the known ``users``, each request read once.

    A ``RequestPairs`` is gathered from its columns; any other mapping is
    read once per user and normalized by ``_contexts``.  A user without a
    request context raises EvalError, a bad pair ContextError.
    """
    ctx_axes = model.shape.context_axes
    dims = model.shape.dims
    if not ctx_axes:
        return {}
    if isinstance(request_states, RequestPairs):
        if len(ctx_axes) != 1:
            raise EvalError("pass a {axis: states} mapping for multi-context models")
        return {ctx_axes[0]: _of_requests(request_states, users, dims[ctx_axes[0]])}
    states = [None] * users.size
    if request_states is not None:
        states = _requests(request_states, users.tolist())
    return {axis: _pairs(lists, dims[axis]) for axis, lists in _contexts(ctx_axes, states).items()}


def _resolve(matrix: np.ndarray, requests) -> np.ndarray:
    """(K, B) weighted averages of ``matrix`` columns, one per request of (state, weight) pairs.

    ``requests`` is one request's pair list, as ``[pairs]``, or a
    ranking block's ``_Requests``.  Every column sums its pairs in list
    order, so a block equals its lists resolved one at a time bit for bit.
    One list is a loop over its pairs, the first that breaks the request
    rule raising ContextError.  A block gathers every list's first pair in
    one pass, which is all a block of one-pair lists needs, then adds one
    later list position's pairs at a time across the block.
    """
    if not isinstance(requests, _Requests):
        size = matrix.shape[1]
        vec = np.zeros(matrix.shape[0])
        total = 0.0
        (pairs,) = requests
        for state, weight in pairs:
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
    states, weights = requests.states, requests.weights
    first = requests.offsets[:-1]
    totals = weights[first]
    # adding the first pair to a zero column, as a list's sum starts, turns -0.0 into +0.0
    vecs = totals * matrix[:, states[first]] + 0.0
    if states.size > first.size:
        # pair p is at position rank[p] of the list of column col[p]; a stable
        # sort by position makes each position's pairs one slice, columns
        # ascending, the first slice being the first pairs
        lengths = np.diff(requests.offsets)
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

    ``contexts`` maps each context axis to the users' requests, as
    ``_resolve`` takes them.  A tensor model scores the block with one
    matrix product of the user columns, weighted elementwise by the
    resolved context vectors, against the item factors.  A composite
    model groups the users by the sub-model their heaviest state selects,
    a serving list checked into columns first; a null sub-model scores 0.
    """
    if isinstance(model, CompositeModel):
        (requests,) = contexts.values()
        if not isinstance(requests, _Requests):
            requests = _pairs(requests, model.n_states)
        states = requests.heaviest()
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

    One partition finds each row's n-th key, and the candidates are
    chosen as ``_top_n`` chooses them.  They fill a (rows x most
    candidates) grid, each row's in ascending index order and padded at
    its end with NaN, which sorts after every candidate; when every row
    has as many candidates, as it has n when no row ties at its n-th key,
    the grid is a reshape.  One stable sort per row then orders each row
    by key, ties by index, and the first n of each row are kept, ``ranks``
    counting from 0, rows ascending.
    """
    n_rows, width = key.shape
    n = min(n, width)
    nth = np.partition(key, n - 1, axis=1)[:, [n - 1]]  # a copy: the partition is freed
    candidates = key <= nth
    short = np.flatnonzero(~(nth[:, 0] < np.inf))
    if short.size:  # rows with fewer than n finite keys
        keys = key[short]
        candidates[short] = ~(keys > nth[short]) & (keys != np.inf)
    flat = np.flatnonzero(candidates)
    # row r's candidates, indices ascending, are flat[bounds[r]:bounds[r + 1]]
    bounds = np.searchsorted(flat, np.arange(0, key.size + 1, width))
    counts = np.diff(bounds)
    most = int(counts.max())
    if flat.size == n_rows * most:
        cells = flat.reshape(n_rows, most)
        keys = key.take(cells)
    else:
        place = np.repeat(np.arange(n_rows), counts), np.arange(flat.size) - np.repeat(bounds[:-1], counts)
        keys = np.full((n_rows, most), np.nan)
        keys[place] = key.take(flat)
        cells = np.zeros((n_rows, most), dtype=np.int64)
        cells[place] = flat
    order = np.argsort(keys, axis=1, kind="stable")[:, :n]
    cells = np.take_along_axis(cells, order, axis=1)
    depth = np.minimum(counts, n)
    rows = np.repeat(np.arange(n_rows), depth)
    ranks = np.arange(rows.size) - np.repeat(np.cumsum(depth) - depth, depth)
    if rows.size < cells.size:
        cells = cells[np.arange(order.shape[1]) < depth[:, None]]
    return rows, ranks, cells.ravel() - rows * width


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
    _check_count("n", n)
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


def _check_count(name: str, value) -> None:
    """A top-N count is a Python or numpy integer >= 1, not a bool."""
    if not isinstance(value, _STATE_TYPES) or type(value) is bool:
        raise EvalError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise EvalError(f"{name} must be >= 1")


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
    user id to their recommendation-request context (a plain mapping, or
    the specs' ``RequestPairs``), read once per call; ``seen`` excludes
    that log's per-user items from rankings.  Users outside the model
    vocabulary score zero hits unless ``skip_unknown_users``.  ``average``
    is macro (mean of per-user ratios) or micro (ratio of summed counts).
    """
    _check_count("n_max", n_max)
    if len(test) == 0:
        raise EvalError("test log is empty")
    if average not in ("macro", "micro"):
        raise EvalError("average must be 'macro' or 'micro'")

    n_users_model = model.shape.dims[model.shape.user_axis]
    n_items = model.shape.dims[model.shape.item_axis]
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
    # every known user's request, read and checked once
    contexts = _request_columns(model, request_states, users[:n_known]) if n_known else {}
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
            rows = {axis: requests.rows(start, start + known) for axis, requests in contexts.items()}
            key = _score_rows(model, block_users[:known], rows)
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
