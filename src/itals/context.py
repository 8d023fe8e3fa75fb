"""Context specs and extractors: seasonal time bands and last-purchase categories.

A context spec is the one definition of a context kind's rules:
``TimeBandContext`` and ``SequenceContext`` each give the axis ``role``,
the state ``names``, ``training(train)`` (the events in tensor order and
their pairs) and ``requests(train, test)`` (each test user's pairs, the
mapping ``recall_precision_at`` takes, as a ``RequestPairs``: columns
that it reads with no per-user step).  They are built on the
extractors below, which map raw events to (state, weight) pairs for the
tensor's context axis.  An event's pairs are held as columns, a
``ContextPairs``: per-event offsets into one array of states and one of
weights, never a Python list per event.  ``build_tensor`` reads those
arrays directly, and ``ContextPairs.from_lists`` is the one adapter for
a plain list of pair lists.  Nothing here reads a model: turning a
request into a context vector is the scorer's job (``evaluation``).
Time bands bin the timestamp's offset inside a recurring season.

Sequence context has one window rule.  A user's events in time order
(ties in log order) give a category list ``cats``; the window [start, end)
is ``cats[max(start, end - depth):end]``, most recent first, and its j-th
category weighs decay**(j-1); the window ends before its first j whose
weight underflows to 0.0, as no pair weighs 0.  A repeated category sums
its weights in rank order, capped at 1, at its first place; an empty
window is ``[(cold_state, 1.0)]``.  An event's window ends where its basket (same
user and timestamp) begins, a request's at the end of the user's history.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import ClassVar

import numpy as np

from .events import EventLog

__all__ = [
    "ContextPairs",
    "RequestPairs",
    "SeasonSpec",
    "SequenceContext",
    "SequenceSpec",
    "TimeBandContext",
    "ContextError",
    "assign_time_band",
    "sequential_context",
    "time_band_states",
    "last_category_states",
]

class ContextError(ValueError):
    pass


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(name: str, value) -> int:
    """``value`` as a Python int; ContextError unless ``_is_integer``."""
    if not _is_integer(value):
        raise ContextError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _unit_weights(weights: np.ndarray) -> np.ndarray:
    """Where a relative weight lies in (0, 1]; NaN does not."""
    return (weights > 0) & (weights <= 1.0)


class ContextPairs(Sequence):
    """Every event's (state, weight) pairs, held as three read-only columns.

    Event e's pairs are ``states[offsets[e]:offsets[e + 1]]`` with the
    matching ``weights``.  ``offsets`` is int64 of length events + 1,
    starts at 0 and never falls; ``states`` is int64 and ``weights``
    float64, each weight in (0, 1].  As a sequence, ``pairs[e]`` (a Python
    or numpy integer) is event e's list of (int, float) tuples.
    """

    __slots__ = ("offsets", "states", "weights")

    def __init__(self, offsets, states, weights):
        columns = []
        for name, values, dtype in (
            ("offsets", offsets, np.int64), ("states", states, np.int64), ("weights", weights, np.float64)
        ):
            values = np.asarray(values)
            if values.ndim != 1 or values.size and not np.can_cast(values.dtype, dtype):
                raise ContextError(f"{name} must be a 1-D array castable to {np.dtype(dtype)}")
            values = values.astype(dtype, copy=False).view()
            values.flags.writeable = False
            columns.append(values)
        offsets, states, weights = columns
        if offsets.size == 0 or offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
            raise ContextError("offsets must start at 0 and never fall")
        if not offsets[-1] == states.size == weights.size:
            raise ContextError("offsets must end at the number of states and of weights")
        bad = np.flatnonzero(~_unit_weights(weights))
        if bad.size:
            e = int(np.searchsorted(offsets, bad[0], side="right")) - 1
            raise ContextError(f"relative weight must be in (0, 1], got {weights[bad[0]]} for event {e}")
        self.offsets, self.states, self.weights = offsets, states, weights

    @classmethod
    def from_lists(cls, lists) -> "ContextPairs":
        """The columns of a list of (state, weight) lists, one per event.

        A state must be an integer (a bool reads as 0 or 1, an integral
        float as its integer) and a weight must lie in (0, 1]; the error
        names the first bad pair's event.
        """
        counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        pairs = np.array(list(chain.from_iterable(lists)), dtype=np.float64).reshape(-1, 2)
        states, weights = pairs[:, 0], pairs[:, 1]
        # NaN and infinity fail the range test, so the int64 cast cannot warn
        integral = (states == np.trunc(states)) & (np.abs(states) < 2.0**63)
        bad = np.flatnonzero(~(integral & _unit_weights(weights)))
        if bad.size:
            ends = np.cumsum(counts)
            e = int(np.searchsorted(ends, bad[0], side="right"))
            state, rel = lists[e][bad[0] - ends[e] + counts[e]]
            what = f"relative weight must be in (0, 1], got {rel}"
            if not integral[bad[0]]:
                what = f"context state must be an int64 integer, got {state!r}"
            raise ContextError(f"{what} for event {e}")
        return cls(np.concatenate(([0], np.cumsum(counts))), states.astype(np.int64), weights)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, event) -> list:
        e = operator.index(event)
        n = len(self)
        if not -n <= e < n:
            raise IndexError(f"event {e} out of range for {n} events")
        start, end = self.offsets[e % n], self.offsets[e % n + 1]
        return list(zip(self.states[start:end].tolist(), self.weights[start:end].tolist()))

    def __iter__(self):
        bounds, states, weights = self.offsets.tolist(), self.states.tolist(), self.weights.tolist()
        for start, end in zip(bounds, bounds[1:]):
            yield list(zip(states[start:end], weights[start:end]))

    def __repr__(self) -> str:
        return f"ContextPairs({len(self)} events, {self.states.size} pairs)"


class RequestPairs(Mapping):
    """Each user's request pairs as columns: the read-only mapping {user: [(state, weight), ...]}.

    ``users`` is int64, ascending and distinct; user ``users[j]``'s pairs
    are ``states[offsets[j]:offsets[j + 1]]`` with the matching
    ``weights``; ``offsets`` is int64.  The specs give ``offsets``,
    ``states`` and ``weights`` as a ``ContextPairs``.  ``states`` and
    ``weights`` are held as given: the request rule is the scorer's,
    checked when a ranking reads them, as it is for a plain dict of the
    same pairs.  ``recall_precision_at`` reads the columns with no
    per-user step; as a mapping, ``requests[user]`` (a Python or numpy
    integer) is the user's list of pairs.
    """

    __slots__ = ("users", "offsets", "states", "weights")

    def __init__(self, users, offsets, states, weights):
        columns = []
        for name, values in (("users", users), ("offsets", offsets), ("states", states), ("weights", weights)):
            values = np.asarray(values)
            if values.ndim != 1:
                raise ContextError(f"{name} must be a 1-D array")
            if name in ("users", "offsets"):
                if values.size and values.dtype.kind not in "iu":
                    raise ContextError(f"{name} must be integers")
                values = values.astype(np.int64, copy=False)
            values = values.view()
            values.flags.writeable = False
            columns.append(values)
        users, offsets, states, weights = columns
        if (users[1:] <= users[:-1]).any():
            raise ContextError("users must ascend and be distinct")
        if offsets.size != users.size + 1 or offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
            raise ContextError("offsets must start at 0, never fall and have one entry more than users")
        if not offsets[-1] == states.size == weights.size:
            raise ContextError("offsets must end at the number of states and of weights")
        self.users, self.offsets, self.states, self.weights = users, offsets, states, weights

    def _row(self, user):
        """The position of ``user`` in ``users``, or None."""
        if not isinstance(user, (int, np.integer)):
            return None
        j = int(np.searchsorted(self.users, user))
        return j if j < self.users.size and self.users[j] == user else None

    def __getitem__(self, user) -> list:
        j = self._row(user)
        if j is None:
            raise KeyError(user)
        start, end = self.offsets[j], self.offsets[j + 1]
        return list(zip(self.states[start:end].tolist(), self.weights[start:end].tolist()))

    def __iter__(self):
        return iter(self.users.tolist())

    def __len__(self) -> int:
        return self.users.size

    def __repr__(self) -> str:
        return f"RequestPairs({len(self)} users, {self.states.size} pairs)"


@dataclass(frozen=True)
class SeasonSpec:
    """A recurring season of fixed length partitioned into time bands.

    Band b covers [boundaries[b], boundaries[b+1]) of the offset inside
    the season; the last band wraps up to season_length.  ``utc_offset``
    shifts timestamps into the desired fixed local time before binning
    (no DST handling).  Every value is a Python or numpy integer, not a bool.
    """

    season_length: int
    band_boundaries: tuple
    utc_offset: int = 0

    def __init__(self, season_length, band_boundaries, utc_offset: int = 0):
        object.__setattr__(self, "season_length", _integer("season_length", season_length))
        object.__setattr__(
            self, "band_boundaries", tuple(_integer("band boundary", b) for b in band_boundaries)
        )
        object.__setattr__(self, "utc_offset", _integer("utc_offset", utc_offset))
        if self.season_length <= 0:
            raise ContextError("season_length must be positive")
        if self.season_length >= 2**63 or not -(2**63) <= self.utc_offset < 2**63:
            raise ContextError("season_length and utc_offset must fit in int64")
        bounds = self.band_boundaries
        if len(bounds) < 1:
            raise ContextError("at least one band boundary is required")
        if bounds[0] != 0:
            raise ContextError("first band boundary must be 0")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ContextError("band boundaries must be strictly increasing")
        if bounds[-1] >= self.season_length:
            raise ContextError("band boundaries must lie inside [0, season_length)")

    @classmethod
    def uniform(cls, season_length: int, bands: int, utc_offset: int = 0) -> "SeasonSpec":
        """Equal-width bands; season_length must divide evenly."""
        season_length, bands = _integer("season_length", season_length), _integer("bands", bands)
        if bands < 1:
            raise ContextError("need at least one band")
        if season_length % bands != 0:
            raise ContextError("uniform bands require season_length divisible by count")
        width = season_length // bands
        return cls(season_length, tuple(range(0, season_length, width)), utc_offset)

    @property
    def n_bands(self) -> int:
        return len(self.band_boundaries)


def assign_time_band(timestamp, spec: SeasonSpec):
    """Band index of a timestamp (scalar or array) inside its season."""
    ts = np.asarray(timestamp, dtype=np.int64)
    # (ts + utc_offset) mod season without int64 overflow: reduce both terms,
    # then their sum less the season lies in [-season, season)
    season = spec.season_length
    offset = ts % season - (season - spec.utc_offset % season)
    offset += (offset < 0) * season
    bounds = np.asarray(spec.band_boundaries, dtype=np.int64)
    band = np.searchsorted(bounds, offset, side="right") - 1
    if np.ndim(timestamp) == 0:
        return int(band)
    return band.astype(np.int64)


@dataclass(frozen=True)
class SequenceSpec:
    """Last-purchase category context.

    The j-th most recent strictly-earlier purchase contributes its
    category with relative weight decay**(j-1), for j = 1..history_depth
    while that weight has not underflowed to 0.0.
    ``cold_state`` is the reserved state for users with no prior purchase
    and must never be produced by a real category.  ``history_depth``,
    ``category_count`` and ``cold_state`` are Python or numpy integers and
    ``decay`` a real number, none a bool.
    """

    history_depth: int
    decay: float = 1.0
    category_count: int = 0
    cold_state: int = 0

    def __post_init__(self):
        depth, decay = self.history_depth, self.decay
        if not _is_integer(depth) or depth < 1:
            raise ContextError(f"history_depth must be an integer >= 1, got {depth!r}")
        if isinstance(decay, bool) or not isinstance(decay, numbers.Real) or not 0.0 < decay <= 1.0:
            raise ContextError(f"decay must be a real number in (0, 1], got {decay!r}")
        for name in ("category_count", "cold_state"):
            _integer(name, getattr(self, name))
        if self.category_count < 1:
            raise ContextError("category_count must be >= 1")
        if not (0 <= self.cold_state < self.category_count):
            raise ContextError("cold_state must be a valid state id")


def _category_codes(items, item_to_category: Mapping[int, int], spec: SequenceSpec, item_ids):
    """(categories, codes): ``categories[codes[e]]`` is event e's category state.

    The codes are int32 where they fit, so the window kernel sorts them
    fast.  ContextError names the lowest unmapped or reserved item.
    """
    unique, inverse = np.unique(items, return_inverse=True)
    cats = [item_to_category.get(item) for item in unique.tolist()]
    for item, cat in zip(unique.tolist(), cats):
        if cat is None:
            name = item_ids[item] if item < len(item_ids) else item
            raise ContextError(f"no category mapping for item {name!r}")
        if not (0 <= cat < spec.category_count) or cat == spec.cold_state:
            raise ContextError(f"category {cat} of item {item} collides with reserved states")
    categories, item_codes = np.unique(np.array(cats, dtype=np.int64), return_inverse=True)
    codes = item_codes.astype(np.int32 if categories.size < 2**31 - 1 else np.int64)
    return categories, codes[inverse]


# cells of the window matrix merged at once, so the kernel's memory stays
# O(pairs + block) at any depth; a row wider than this is a block alone
_WINDOW_CELLS = 1 << 16


def _windows(categories, codes, starts, ends, spec: SequenceSpec):
    """The merged windows [start, end) of the category list, one per (start, end), by the module's rule.

    The list is ``categories[codes]``.  Returns the windows' (offsets,
    states, weights).  Row w of the (windows x ranks) category matrix
    holds window w's codes, most recent first, so the matrix is as wide as
    the longest window; it is merged in row blocks of at most
    _WINDOW_CELLS cells.
    """
    lengths = np.minimum(ends - starts, min(spec.history_depth, codes.size))
    # Python's pow, as the rule has always been computed; numpy's may differ by an ulp
    rank_weight = np.array([spec.decay**rank for rank in range(int(lengths.max(initial=0)))], dtype=np.float64)
    # a window ends at its first rank of weight 0.0 (decay**rank underflows)
    rank_weight = rank_weight[rank_weight > 0.0]
    lengths = np.minimum(lengths, rank_weight.size)
    width = int(lengths.max(initial=0))
    rows = max(1, _WINDOW_CELLS // max(width, 1))
    blocks = [
        _merge(codes, ends[a:a + rows], lengths[a:a + rows], rank_weight, categories.size)
        for a in range(0, lengths.size, rows)
    ]
    # an empty block last gives the dtypes when there are no windows
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    counts, found, weights = (np.concatenate(column) for column in zip(*blocks, empty))
    # code n_codes stands for an empty window
    states = np.append(categories, spec.cold_state)[found]
    return np.concatenate(([0], np.cumsum(counts))), states, weights


def _merge(codes, ends, lengths, rank_weight, n_codes):
    """(pairs per row, codes, weights) of one row block of the window matrix.

    An empty row gets the one pair (n_codes, 1.0).
    """
    rank = np.arange(int(lengths.max(initial=0)))
    held = rank < lengths[:, None]
    # empty cells sort after every code, and a stable sort keeps each
    # code's ranks ascending
    matrix = np.where(held, codes[np.where(held, ends[:, None] - 1 - rank, 0)], n_codes)
    by_code = np.argsort(matrix, axis=1, kind="stable")
    row = np.nonzero(held)[0]
    ranks = by_code[held]
    code = matrix[row, ranks]
    weight = rank_weight[ranks]
    new = np.ones(code.size, dtype=bool)
    new[1:] = (code[1:] != code[:-1]) | (row[1:] != row[:-1])
    first = np.flatnonzero(new)
    # each code's weights summed left to right in rank order, as the
    # rule's running sum does: np.add.accumulate adds one cell at a time,
    # where np.sum may sum pairwise; zeros pad a run to its chunk's width
    total = weight[first]
    count = np.diff(first, append=code.size)
    repeated = np.flatnonzero(count > 1)
    repeated = repeated[np.argsort(-count[repeated])]
    a = 0
    while a < repeated.size:
        width = int(count[repeated[a]])
        runs = repeated[a:a + max(1, _WINDOW_CELLS // width)]
        step = np.arange(width)[:, None]
        inside = step < count[runs]
        cells = np.where(inside, weight[np.where(inside, first[runs] + step, 0)], 0.0)
        total[runs] = np.add.accumulate(cells)[-1]
        a += runs.size
    np.minimum(total, 1.0, out=total)
    # the codes of each row in the order of their first places
    slot = np.full(held.shape, -1)
    slot[row[first], ranks[first]] = np.arange(first.size)
    placed = slot[slot >= 0]
    counts = np.bincount(row[first], minlength=lengths.size)
    empty = counts == 0
    counts[empty] = 1
    found = np.full(counts.sum(), n_codes, dtype=np.int64)
    weights = np.ones(counts.sum())
    real = np.repeat(~empty, counts)
    found[real], weights[real] = code[first[placed]], total[placed]
    return counts, found, weights


def sequential_context(
    events: EventLog,
    item_to_category: Mapping[int, int],
    spec: SequenceSpec,
) -> ContextPairs:
    """Per-event context states: the window [user start, basket start) of the user's list.

    The events of a basket are not each other's history; their log order
    still sets recency for later events.  ``events`` must be sorted by
    timestamp within each user; users may interleave.  Output is aligned
    with the input event order.  Raises ContextError when an item lacks a
    category mapping or the ordering precondition is violated.
    """
    order = np.argsort(events.users, kind="stable")
    users, stamps = events.users[order], events.timestamps[order]
    new_user = np.diff(users, prepend=-1) != 0  # user indices are >= 0
    if (stamps[1:] < stamps[:-1])[~new_user[1:]].any():
        raise ContextError("events must be sorted per user by timestamp")
    categories, codes = _category_codes(events.items, item_to_category, spec, events.item_ids)
    new_basket = new_user.copy()
    new_basket[1:] |= stamps[1:] != stamps[:-1]
    # the events of one basket share its window: merge it once per basket
    user_start = np.maximum.accumulate(np.where(new_user, np.arange(order.size), 0))
    basket_start = np.flatnonzero(new_basket)
    starts = user_start[basket_start]
    offsets, states, weights = _windows(categories, codes[order], starts, basket_start, spec)
    # then copy each event's basket window, in the input order
    event_offsets, take = _take_runs(offsets, (np.cumsum(new_basket) - 1)[np.argsort(order)])
    return ContextPairs(event_offsets, states[take], weights[take])


def _take_runs(offsets: np.ndarray, runs: np.ndarray):
    """(offsets, take): run j of the result is run ``runs[j]`` of a column split at ``offsets``.

    ``take`` indexes the column's entries in the result's order.
    """
    start = offsets[runs]
    counts = offsets[runs + 1] - start
    taken = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=taken[1:])
    return taken, np.arange(taken[-1]) + np.repeat(start - taken[:-1], counts)


def _last_windows(train: EventLog, item_to_category: Mapping[int, int], spec: SequenceSpec):
    """(users, offsets, states, weights): each training user's window [user start, user end).

    The users ascend.
    """
    order = np.lexsort((train.timestamps, train.users))
    users = train.users[order]
    # the bounds of the sorted list's user runs; user indices are >= 0
    runs = np.flatnonzero(np.diff(users, prepend=-1, append=-1))
    categories, codes = _category_codes(train.items[order], item_to_category, spec, train.item_ids)
    return (users[runs[:-1]], *_windows(categories, codes, runs[:-1], runs[1:], spec))


def last_category_states(
    train: EventLog,
    item_to_category: Mapping[int, int],
    spec: SequenceSpec,
) -> dict:
    """Request-time context per user: the window [user start, user end) of the user's list.

    Returns {user: [(state, weight), ...]}.  This is the window a next
    event after the training period would get.  Users absent from the log
    map to the cold state implicitly (they are simply missing from the
    dict).
    """
    users, offsets, states, weights = _last_windows(train, item_to_category, spec)
    # the scorer checks request pairs, so these lists are built as they are
    bounds, states, weights = offsets.tolist(), states.tolist(), weights.tolist()
    return {
        user: list(zip(states[start:end], weights[start:end]))
        for user, start, end in zip(users.tolist(), bounds, bounds[1:])
    }


def time_band_states(timestamps, spec: SeasonSpec) -> ContextPairs:
    """Single-band context per event: the pair (band, 1.0) for each timestamp."""
    bands = np.atleast_1d(assign_time_band(np.asarray(timestamps, dtype=np.int64), spec))
    return ContextPairs(np.arange(bands.size + 1), bands, np.ones(bands.size))


# ---------------------------------------------------------------------------
# context specs: one object per context kind, the one definition of its rules


@dataclass(frozen=True)
class TimeBandContext:
    """Time-band context: an event's state is its band in ``season``.

    The states are named ``band-i``.  A request is the band of the user's
    first test event (ties in log order), with weight 1.
    """

    season: SeasonSpec
    role: ClassVar[str] = "timeband"

    @property
    def names(self) -> list:
        return [f"band-{i}" for i in range(self.season.n_bands)]

    def training(self, train: EventLog) -> tuple:
        """(events in tensor order, their ``ContextPairs``): the log as it is and each event's band."""
        return train, time_band_states(train.timestamps, self.season)

    def requests(self, train: EventLog, test: EventLog) -> RequestPairs:
        """{user: [(band, 1.0)]} of every test user; the training log plays no part."""
        order = np.lexsort((test.timestamps, test.users))
        users, first = np.unique(test.users[order], return_index=True)
        pairs = time_band_states(test.timestamps[order[first]], self.season)
        return RequestPairs(users, pairs.offsets, pairs.states, pairs.weights)


@dataclass(frozen=True)
class SequenceContext:
    """Last-purchase category context, by the module's window rule.

    ``item_to_category`` maps an item index to its category state, and
    ``category_names`` names the states 0..C-1 in order; the cold state,
    a user's state before any purchase, is C, named ``__no_prior__``.
    Training sorts the log by user and time itself.  A request is the
    window of the user's whole training history; a test user without one
    asks in the cold state.
    """

    history_depth: int
    decay: float
    item_to_category: Mapping[int, int]
    category_names: tuple
    spec: SequenceSpec = field(init=False, repr=False, compare=False)
    role: ClassVar[str] = "category"

    def __post_init__(self):
        names = tuple(self.category_names)
        object.__setattr__(self, "category_names", names)
        # the categories are states 0..C-1 and the cold state is C
        spec = SequenceSpec(self.history_depth, self.decay, len(names) + 1, len(names))
        object.__setattr__(self, "spec", spec)

    @classmethod
    def from_rows(cls, history_depth, decay, items, categories, category_names, item_ids=None):
        """The context of parallel item and category columns, such as a log's.

        Each item must have one category: ContextError names the lowest
        item given two, by its id in ``item_ids`` when given.
        """
        # the distinct (item, category) pairs, sorted by item: an item in two has two categories
        items, categories = np.unique(np.array([items, categories], np.int64), axis=1)
        clash = np.flatnonzero(items[1:] == items[:-1])
        if clash.size:
            j, item = int(clash[0]), int(items[clash[0]])
            item = item if item_ids is None else item_ids[item]
            two = [category_names[c] for c in categories[j:j + 2]]
            raise ContextError(f"item {item!r} has two categories, {two[0]!r} and {two[1]!r}")
        mapping = dict(zip(items.tolist(), categories.tolist()))
        return cls(history_depth, decay, mapping, category_names)

    @property
    def names(self) -> list:
        return [*self.category_names, "__no_prior__"]

    def training(self, train: EventLog) -> tuple:
        """(events in tensor order, their ``ContextPairs``): the log sorted by user and time.

        The pairs are each event's window, as ``sequential_context`` gives them.
        """
        ordered = train.sorted_by_user_time()
        return ordered, sequential_context(ordered, self.item_to_category, self.spec)

    def requests(self, train: EventLog, test: EventLog) -> RequestPairs:
        """{user: pairs} of every test user: the window of the user's training history.

        A test user with no training event asks in the cold state.
        """
        known, offsets, states, weights = _last_windows(train, self.item_to_category, self.spec)
        users = np.unique(test.users)
        at = np.searchsorted(known, users)
        history = at < known.size
        history[history] = known[at[history]] == users[history]
        # a user without history takes the one pair (cold, 1.0), a run appended to the columns
        at[~history] = known.size
        offsets, take = _take_runs(np.append(offsets, states.size + 1), at)
        states, weights = np.append(states, self.spec.cold_state)[take], np.append(weights, 1.0)[take]
        pairs = ContextPairs(offsets, states, weights)
        return RequestPairs(users, pairs.offsets, pairs.states, pairs.weights)
