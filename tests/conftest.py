"""Shared helpers: random instances and a synthetic seasonal dataset."""

from __future__ import annotations

import numpy as np
import pytest

from itals import EventLog, ObservationTensor, TensorShape


def synthetic_tensor(dims, n_plus, seed=0):
    """Random tensor with exactly n_plus distinct uniform cells."""
    dims = tuple(int(s) for s in dims)
    n_cells = int(np.prod(dims))
    if n_plus > n_cells:
        raise ValueError(f"cannot place {n_plus} distinct cells in {n_cells}")
    rng = np.random.default_rng(seed)
    chosen = np.empty(0, dtype=np.int64)
    while chosen.shape[0] < n_plus:
        draw = rng.integers(0, n_cells, size=int(1.2 * (n_plus - chosen.shape[0])) + 16)
        chosen = np.unique(np.concatenate([chosen, draw]))
    chosen = rng.permutation(chosen)[:n_plus]
    coords = np.stack(np.unravel_index(chosen, dims), axis=1)
    weights = rng.uniform(2.0, 101.0, size=n_plus)
    roles = ["user", "item"] + [f"context-{i + 1}" for i in range(len(dims) - 2)]
    return ObservationTensor(TensorShape(dims, roles), coords, weights)


@pytest.fixture
def lanes(monkeypatch):
    """``lanes(check)`` runs ``check()`` at 1 and at 2 solver lanes and returns both results.

    The lane count is set in place of the process's CPU count, so a
    one-CPU runner also takes the threaded path.
    """
    from itals import solver

    def at_each_count(check):
        results = []
        for count in (1, 2):
            monkeypatch.setattr(solver, "_cpu_count", lambda: count)
            results.append(check())
        return results

    return at_each_count


def overwrite_float64(path, value, replacement):
    """Replace the one little-endian float64 equal to value in a file."""
    raw = path.read_bytes()
    old = np.array([value], dtype="<f8").tobytes()
    assert raw.count(old) == 1
    path.write_bytes(raw.replace(old, np.array([replacement], dtype="<f8").tobytes()))


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


def write_events(path, n_users=12, n_items=15, n_events=250, seed=0, with_category=False):
    """A seeded event TSV over 30 days; the category column, if any, follows the item."""
    rng = np.random.default_rng(seed)
    cats = ["alpha", "beta", "gamma"]
    lines = []
    for _ in range(n_events):
        u = rng.integers(0, n_users)
        i = int(rng.integers(0, n_items))
        ts = int(rng.integers(0, 30 * DAY))
        row = f"user{u}\titem{i}\t{ts}"
        if with_category:
            row += f"\t{cats[i % 3]}"
        lines.append(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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



def basket_dataset(seed=0, n_users=150, n_categories=13, variants=24, trips=14, train_days=60):
    """Synthetic grocery log: multi-item baskets that share one timestamp.

    Item ``c * variants + v`` is variant v of category c; variant v has
    taste v % 4, and each user draws 90% of their items from one taste.
    A trip's main category follows one of two fixed successors of the
    previous trip's (90%), so the last purchases' categories predict the
    next basket.  A trip buys two items of its main category (four on the
    test trip) and, 60% of the time, one item of a staple category 0-2
    ahead of them; categories 3 and 4 are durables, bought once at most.
    Every user makes ``trips`` trips on distinct training days and one on
    the day after.  Rows are in time order, so users interleave.

    Returns (log, split timestamp, {item: category}).
    """
    rng = np.random.default_rng(seed)
    tastes, staples, durables = 4, 3, {3, 4}
    regular = np.arange(staples, n_categories)
    successors = [
        (regular[(3 * c + 1) % regular.size], regular[(5 * c + 2) % regular.size])
        for c in range(n_categories)
    ]
    users, items, stamps = [], [], []
    for u in range(n_users):
        taste = int(rng.integers(tastes))

        def variant():
            if rng.random() < 0.9:
                return taste + tastes * int(rng.integers(variants // tastes))
            return int(rng.integers(variants))

        days = [*np.sort(rng.choice(train_days, size=trips, replace=False)).tolist(), train_days]
        main, owned = int(rng.choice(regular)), set()
        for day in days:
            if rng.random() < 0.9:
                main = int(successors[main][int(rng.integers(2))])
            else:
                main = int(rng.choice(regular))
            while main in owned:
                main = int(rng.choice(regular))
            if main in durables:
                owned.add(main)
            basket = [(int(rng.integers(staples)), variant())] if rng.random() < 0.6 else []
            basket += [(main, variant()) for _ in range(4 if day == train_days else 2)]
            ts = day * DAY + int(rng.integers(DAY))
            for cat, v in basket:
                users.append(u)
                items.append(cat * variants + v)
                stamps.append(ts)
    order = np.argsort(stamps, kind="stable")
    n_items = n_categories * variants
    log = make_event_log(
        np.asarray(users)[order], np.asarray(items)[order], np.asarray(stamps)[order],
        n_users=n_users, n_items=n_items,
    )
    return log, train_days * DAY, {i: i // variants for i in range(n_items)}
