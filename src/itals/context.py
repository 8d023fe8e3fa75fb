"""Context extractors: seasonal time bands and last-purchase categories.

Both map raw events to discrete context states for the tensor's third
axis.  Time bands bin the timestamp's offset inside a recurring season;
the sequential extractor emits the categories of a user's most recent
prior purchases with geometrically decayed relative weights.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .events import EventLog

__all__ = [
    "SeasonSpec",
    "SequenceSpec",
    "ContextError",
    "assign_time_band",
    "sequential_context",
    "resolve_context_vector",
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
    offset = (ts + spec.utc_offset) % spec.season_length
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
        if self.history_depth < 1:
            raise ContextError("history_depth must be >= 1")
        if not (0.0 < self.decay <= 1.0):
            raise ContextError("decay must lie in (0, 1]")
        if self.category_count < 1:
            raise ContextError("category_count must be >= 1")
        if not (0 <= self.cold_state < self.category_count):
            raise ContextError("cold_state must be a valid state id")


def _window_states(recent_categories: Sequence[int], spec: SequenceSpec) -> list:
    """Merge a recent-first category window into (state, weight) pairs.

    Duplicate categories sum their decay weights, capped at 1 so a
    repeated category never outweighs the single-purchase case.
    """
    if not recent_categories:
        return [(spec.cold_state, 1.0)]
    merged: dict = {}
    order: list = []
    for rank, cat in enumerate(recent_categories):
        weight = spec.decay**rank
        if cat in merged:
            merged[cat] = min(1.0, merged[cat] + weight)
        else:
            merged[cat] = weight
            order.append(cat)
    return [(cat, merged[cat]) for cat in order]


def _category_of(item: int, item_to_category: Mapping[int, int], spec: SequenceSpec, item_ids) -> int:
    """The item's category state; ContextError when it is unmapped or reserved."""
    cat = item_to_category.get(item)
    if cat is None:
        name = item_ids[item] if item < len(item_ids) else item
        raise ContextError(f"no category mapping for item {name!r}")
    cat = int(cat)
    if not (0 <= cat < spec.category_count) or cat == spec.cold_state:
        raise ContextError(f"category {cat} of item {item} collides with reserved states")
    return cat


def sequential_context(
    events: EventLog,
    item_to_category: Mapping[int, int],
    spec: SequenceSpec,
) -> list:
    """Per-event context states from each user's purchase history.

    ``events`` must be sorted per user by timestamp.  For each event the
    categories of that user's up to ``history_depth`` most recent
    strictly-earlier events are emitted with decayed weights; a user's
    first event gets the cold state.  Output is aligned with the input
    event order.

    Raises ContextError when an item lacks a category mapping or the
    ordering precondition is violated.
    """
    n = len(events)
    out: list = [None] * n
    # per user: [timestamp of the current group, categories of strictly
    # earlier events, categories of the current same-timestamp group];
    # both windows keep only the history_depth most recent entries
    state: dict = {}

    for e in range(n):
        user = int(events.users[e])
        item = int(events.items[e])
        ts = int(events.timestamps[e])
        entry = state.get(user)
        if entry is None:
            depth = spec.history_depth
            entry = state[user] = [ts, deque(maxlen=depth), deque(maxlen=depth)]
        elif ts < entry[0]:
            raise ContextError("events must be sorted per user by timestamp")
        elif ts > entry[0]:
            entry[0] = ts
            entry[1].extend(entry[2])
            entry[2].clear()
        out[e] = _window_states(list(reversed(entry[1])), spec)
        entry[2].append(_category_of(item, item_to_category, spec, events.item_ids))

    return out


def last_category_states(
    train: EventLog,
    item_to_category: Mapping[int, int],
    spec: SequenceSpec,
) -> dict:
    """Request-time context per user: categories of the last purchases.

    Mirrors ``sequential_context`` for a hypothetical next event after the
    end of the training period.  Users absent from the log map to the
    cold state implicitly (they are simply missing from the dict).
    """
    ordered = train.sorted_by_user_time()
    latest: dict = defaultdict(lambda: deque(maxlen=spec.history_depth))
    for user, item in zip(ordered.users.tolist(), ordered.items.tolist()):
        latest[user].append(_category_of(item, item_to_category, spec, ordered.item_ids))
    return {user: _window_states(list(reversed(cats)), spec) for user, cats in latest.items()}


def time_band_states(timestamps, spec: SeasonSpec) -> list:
    """Single-band context per event: [(band, 1.0)] for each timestamp."""
    bands = assign_time_band(np.asarray(timestamps, dtype=np.int64), spec)
    return [[(int(b), 1.0)] for b in np.atleast_1d(bands)]


def resolve_context_vector(model, states: Sequence[tuple], axis: Optional[int] = None) -> np.ndarray:
    """Weighted average of context feature vectors for a set of states.

    With a single state this is exactly that state's column of the
    context factor matrix.  Every weight must be finite and > 0.
    """
    states = list(states)
    if not states:
        raise ContextError("cannot resolve an empty context state list")
    if axis is None:
        ctx_axes = model.shape.context_axes
        if len(ctx_axes) != 1:
            raise ContextError("model must have exactly one context axis, or pass axis=")
        axis = ctx_axes[0]
    matrix = model.factors[axis]
    size = model.shape.dims[axis]
    total = 0.0
    vec = np.zeros(matrix.shape[0], dtype=np.float64)
    for state, weight in states:
        if not (0 <= state < size):
            raise ContextError(f"context state {state} out of bounds (size {size})")
        if not 0 < weight < np.inf:
            raise ContextError(f"context weight {weight} of state {state} must be finite and > 0")
        vec += weight * matrix[:, state]
        total += weight
    return vec / total
