"""Shared helpers: random instances and a synthetic seasonal dataset."""

from __future__ import annotations

import numpy as np
import pytest

from itals import EventLog, ObservationTensor, TensorShape, synthetic_tensor


def random_observation(rng, d_choices=(2, 3, 4), max_size=6, min_cells=1):
    """Small random tensor for oracle comparisons."""
    d = int(rng.choice(d_choices))
    dims = tuple(int(rng.integers(2, max_size + 1)) for _ in range(d))
    n_cells = int(np.prod(dims))
    n_plus = int(rng.integers(min_cells, n_cells + 1))
    return synthetic_tensor(dims, n_plus, seed=int(rng.integers(2**31)))


def make_event_log(users, items, timestamps, categories=None, n_users=None, n_items=None):
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    n_users = int(users.max()) + 1 if n_users is None else n_users
    n_items = int(items.max()) + 1 if n_items is None else n_items
    return EventLog(
        users=users,
        items=items,
        timestamps=np.asarray(timestamps, dtype=np.int64),
        categories=None if categories is None else np.asarray(categories, dtype=np.int64),
        user_ids=[f"u{i}" for i in range(n_users)],
        item_ids=[f"i{i}" for i in range(n_items)],
        category_ids=None,
    )


DAY = 86_400


def seasonal_dataset(
    seed=0,
    n_users=300,
    n_items=360,
    n_bands=6,
    n_genres=8,
    active_bands=3,
    train_days=54,
    test_days=6,
    session_prob=0.22,
    session_events=6,
):
    """Synthetic log with multiplicative user x item x time-band structure.

    Every user sticks to one genre; every item belongs to a genre and is
    only consumed in a window of ``active_bands`` consecutive time bands
    (think broadcast schedules).  A session happens in one band and draws
    genre-matching items active in that band (10% exploration).  The
    genre taste is shared across bands while the band gates the item
    pool, so a factorization that pools all sessions and reweights by
    band fits the process, a bandless model recommends inactive items,
    and per-band composites fragment each user's already-sparse history.
    Each user has exactly one test-window session (next-visit protocol).

    Returns (log, split_timestamp).
    """
    rng = np.random.default_rng(seed)
    item_genre = np.arange(n_items) % n_genres
    item_phase = (np.arange(n_items) // n_genres) % n_bands
    band_width = DAY // n_bands

    def active_in(band):
        return (band - item_phase) % n_bands < active_bands

    users, items, stamps = [], [], []

    def session(u, genre, day):
        band = int(rng.integers(0, n_bands))
        active = active_in(band)
        pool = np.flatnonzero(active & (item_genre == genre))
        fallback = np.flatnonzero(active)
        for _ in range(session_events):
            source = pool if (pool.size and rng.random() < 0.9) else fallback
            users.append(u)
            items.append(int(rng.choice(source)))
            stamps.append(day * DAY + band * band_width + int(rng.integers(0, band_width)))

    for u in range(n_users):
        genre = u % n_genres
        for day in range(train_days):
            if rng.random() < session_prob:
                session(u, genre, day)
        session(u, genre, train_days + int(rng.integers(0, test_days)))

    log = make_event_log(users, items, stamps, n_users=n_users, n_items=n_items)
    return log, train_days * DAY

