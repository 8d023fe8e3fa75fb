"""Context extractors: seasonal time bands and last-purchase categories.

Both map raw events to lists of (state, weight) pairs for the tensor's
context axis, one list per event, and the request contexts that
evaluation scores.  They read events only, never a model: turning a
request into a context vector is the scorer's job (``evaluation``).
Time bands bin the timestamp's offset inside a recurring season.

Sequence context has one window rule.  A user's events in time order
(ties in log order) give a category list ``cats``; the window [start, end)
is ``cats[max(start, end - depth):end]``, most recent first, and its j-th
category weighs decay**(j-1).  A repeated category sums its weights in
rank order, capped at 1, at its first place; an empty window is
``[(cold_state, 1.0)]``.  An event's window ends where its basket (same
user and timestamp) begins, a request's at the end of the user's history.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .events import EventLog

__all__ = [
    "SeasonSpec",
    "SequenceSpec",
    "ContextError",
    "assign_time_band",
    "sequential_context",
    "time_band_states",
    "last_category_states",
]

class ContextError(ValueError):
    pass


@dataclass(frozen=True)
class SeasonSpec:
    """A recurring season of fixed length partitioned into time bands.

    Band b covers [boundaries[b], boundaries[b+1]) of the offset inside
    the season; the last band wraps up to season_length.  ``utc_offset``
    shifts timestamps into the desired fixed local time before binning
    (no DST handling).
    """

    season_length: int
    band_boundaries: tuple
    utc_offset: int = 0

    def __init__(self, season_length, band_boundaries, utc_offset: int = 0):
        object.__setattr__(self, "season_length", int(season_length))
        object.__setattr__(
            self, "band_boundaries", tuple(int(b) for b in band_boundaries)
        )
        object.__setattr__(self, "utc_offset", int(utc_offset))
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
    category with relative weight decay**(j-1), for j = 1..history_depth.
    ``cold_state`` is the reserved state for users with no prior purchase
    and must never be produced by a real category.
    """

    history_depth: int
    decay: float = 1.0
    category_count: int = 0
    cold_state: int = 0

    def __post_init__(self):
        depth = self.history_depth
        if isinstance(depth, bool) or not isinstance(depth, numbers.Integral) or depth < 1:
            raise ContextError(f"history_depth must be an integer >= 1, got {depth!r}")
        if not (0.0 < self.decay <= 1.0):
            raise ContextError("decay must lie in (0, 1]")
        for name in ("category_count", "cold_state"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ContextError(f"{name} must be an integer, got {value!r}")
        if self.category_count < 1:
            raise ContextError("category_count must be >= 1")
        if not (0 <= self.cold_state < self.category_count):
            raise ContextError("cold_state must be a valid state id")


def _category_states(items, item_to_category: Mapping[int, int], spec: SequenceSpec, item_ids):
    """Each event's category state; ContextError names the lowest unmapped or reserved item."""
    unique, inverse = np.unique(items, return_inverse=True)
    cats = [item_to_category.get(item) for item in unique.tolist()]
    for item, cat in zip(unique.tolist(), cats):
        if cat is None:
            name = item_ids[item] if item < len(item_ids) else item
            raise ContextError(f"no category mapping for item {name!r}")
        if not (0 <= cat < spec.category_count) or cat == spec.cold_state:
            raise ContextError(f"category {cat} of item {item} collides with reserved states")
    return np.array(cats, dtype=np.int64)[inverse]


def _windows(cats: list, starts: list, ends: list, spec: SequenceSpec) -> list:
    """The merged window of positions [start, end) of ``cats`` per pair, by the module's rule."""
    # no window is longer than the whole list
    weights = [spec.decay**rank for rank in range(min(spec.history_depth, len(cats)))]
    out = []
    for start, end in zip(starts, ends):
        merged: dict = {}
        for cat, weight in zip(reversed(cats[max(start, end - spec.history_depth):end]), weights):
            merged[cat] = min(1.0, merged[cat] + weight) if cat in merged else weight
        out.append(list(merged.items()) or [(spec.cold_state, 1.0)])
    return out


def sequential_context(
    events: EventLog,
    item_to_category: Mapping[int, int],
    spec: SequenceSpec,
) -> list:
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
    cats = _category_states(events.items, item_to_category, spec, events.item_ids)[order]
    new_basket = new_user.copy()
    new_basket[1:] |= stamps[1:] != stamps[:-1]
    # the events of one basket share its window: merge it once per basket
    user_start = np.maximum.accumulate(np.where(new_user, np.arange(order.size), 0))
    basket_start = np.flatnonzero(new_basket)
    starts = user_start[basket_start].tolist()
    windows = _windows(cats.tolist(), starts, basket_start.tolist(), spec)
    basket = (np.cumsum(new_basket) - 1)[np.argsort(order)]
    return [list(windows[b]) for b in basket.tolist()]


def last_category_states(
    train: EventLog,
    item_to_category: Mapping[int, int],
    spec: SequenceSpec,
) -> dict:
    """Request-time context per user: the window [user start, user end) of the user's list.

    This is the window a next event after the training period would get.
    Users absent from the log map to the cold state implicitly (they are
    simply missing from the dict).
    """
    ordered = train.sorted_by_user_time()
    users, starts, counts = np.unique(ordered.users, return_index=True, return_counts=True)
    cats = _category_states(ordered.items, item_to_category, spec, ordered.item_ids).tolist()
    windows = _windows(cats, starts.tolist(), (starts + counts).tolist(), spec)
    return dict(zip(users.tolist(), windows))


def time_band_states(timestamps, spec: SeasonSpec) -> list:
    """Single-band context per event: [(band, 1.0)] for each timestamp."""
    bands = assign_time_band(np.asarray(timestamps, dtype=np.int64), spec)
    return [[(int(b), 1.0)] for b in np.atleast_1d(bands)]
