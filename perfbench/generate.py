"""Seeded synthetic event logs for the benchmark workloads.

Each generator takes a numpy Generator, returns the events as a
``GeneratedLog`` and writes nothing itself; ``write_tsv`` turns the log
into the ``user \\t item \\t timestamp [\\t category]`` file the program
ingests.  Rows are in timestamp order, as a real export would be, with
ties kept in the order the generator produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

DAY = 86_400
BANDS = 6  # time bands of the seasonal log's day


@dataclass
class GeneratedLog:
    """Events in dense generator ids; ``split_ts`` starts the test period."""

    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray
    categories: Optional[np.ndarray]
    split_ts: int


def _chronological(users, items, stamps, cats, split_ts) -> GeneratedLog:
    order = np.argsort(stamps, kind="stable")
    return GeneratedLog(
        users[order].astype(np.int64),
        items[order].astype(np.int64),
        stamps[order].astype(np.int64),
        None if cats is None else cats[order].astype(np.int64),
        int(split_ts),
    )


def _pick(rng, table, counts, keys) -> np.ndarray:
    """One uniform draw per key from the padded pools ``table[key, :counts[key]]``."""
    return table[keys, (rng.random(len(keys)) * counts[keys]).astype(np.int64)]


def seasonal_log(
    rng: np.random.Generator,
    n_users: int,
    n_items: int,
    test_events: int,
    train_sessions: int = 12,
    session_events: int = 6,
) -> GeneratedLog:
    """Log with a multiplicative user x item x time-band structure.

    Every user sticks to one of 8 genres; every item belongs to a genre
    and is consumed only in 3 consecutive of the ``BANDS`` bands of the
    day.  A session falls in one band and draws genre-matching items
    active in that band, with 10% exploration over all active items.
    Each user has exactly ``train_sessions`` sessions on distinct days of
    the 54 training days, so the event count does not depend on the
    seed, and one session of ``test_events`` events in the 6-day test
    window.
    """
    genres, active_bands, train_days, test_days = 8, 3, 54, 6
    item_genre = np.arange(n_items) % genres
    item_phase = (np.arange(n_items) // genres) % BANDS
    band_width = DAY // BANDS
    active = (np.arange(BANDS)[:, None] - item_phase[None, :]) % BANDS < active_bands

    # pools keyed by band * (genres + 1) + genre; genre ``genres`` is "any"
    n_keys = BANDS * (genres + 1)
    table = np.zeros((n_keys, n_items), dtype=np.int64)
    counts = np.zeros(n_keys, dtype=np.int64)
    for band in range(BANDS):
        for genre in range(genres + 1):
            pool = np.flatnonzero(active[band] & ((item_genre == genre) | (genre == genres)))
            key = band * (genres + 1) + genre
            table[key, : pool.size] = pool
            counts[key] = pool.size

    days = np.argsort(rng.random((n_users, train_days)), axis=1)[:, :train_sessions]
    sess_user = np.concatenate([np.repeat(np.arange(n_users), train_sessions), np.arange(n_users)])
    sess_day = np.concatenate([days.ravel(), train_days + rng.integers(0, test_days, size=n_users)])
    sess_band = rng.integers(0, BANDS, size=sess_user.size)
    sizes = np.full(sess_user.size, session_events)
    sizes[-n_users:] = test_events

    users = np.repeat(sess_user, sizes)
    bands = np.repeat(sess_band, sizes)
    pick = np.where(rng.random(users.size) < 0.9, users % genres, genres)
    items = _pick(rng, table, counts, bands * (genres + 1) + pick)
    stamps = (
        np.repeat(sess_day, sizes) * DAY
        + bands * band_width
        + rng.integers(0, band_width, size=users.size)
    )
    return _chronological(users, items, stamps, None, train_days * DAY)


def basket_log(
    rng: np.random.Generator,
    n_users: int,
    n_categories: int = 13,
    variants: int = 24,
    train_trips: int = 14,
) -> GeneratedLog:
    """Grocery-like log: multi-item baskets that share one timestamp.

    Category ``c`` holds items ``c * variants + v``; variant ``v`` has
    genre ``v % 4`` and every user prefers one genre (90% of draws).  A
    trip's main category follows one of two fixed successors of the
    previous trip's main category (90%), so the categories of the last
    purchases predict the next basket.  The main category gives two items
    (four on the test trip); with probability 0.6 one of the 3 staple
    categories, bought again and again, adds one more, written first so
    the main category is the most recent purchase.  The 2 durable
    categories are bought at most once per user.  Every user makes
    ``train_trips`` trips on distinct days of the 60 training days and
    one trip on the day after the split.  The category graph is fixed;
    the seed draws the shoppers.
    """
    n_genres, staples, durables, train_days, test_items = 4, 3, 2, 60, 4
    regular = np.arange(staples, n_categories)
    durable = set(range(staples, staples + durables))
    position = np.arange(n_categories)
    succ = np.stack(
        [regular[(3 * position + 1) % regular.size], regular[(5 * position + 2) % regular.size]], axis=1
    )
    per_genre = variants // n_genres

    users, items, stamps, cats = [], [], [], []
    for u in range(n_users):
        genre = int(rng.integers(n_genres))
        days = np.append(np.sort(rng.choice(train_days, size=train_trips, replace=False)), train_days)
        bought: set = set()
        main = int(rng.choice(regular))
        for day in days:
            main = int(succ[main, rng.integers(2)]) if rng.random() < 0.9 else int(rng.choice(regular))
            while main in bought:
                main = int(rng.choice(regular))
            if main in durable:
                bought.add(main)
            basket = []
            if rng.random() < 0.6:
                basket.append((int(rng.integers(staples)), genre + n_genres * int(rng.integers(per_genre))))
            size = test_items if day == train_days else 2
            for slot in rng.choice(per_genre, size=size, replace=False):
                v = genre + n_genres * int(slot) if rng.random() < 0.9 else int(rng.integers(variants))
                basket.append((main, v))
            ts = int(day) * DAY + int(rng.integers(0, DAY))
            for cat, v in basket:
                users.append(u)
                items.append(cat * variants + v)
                stamps.append(ts)
                cats.append(cat)
    return _chronological(
        np.asarray(users), np.asarray(items), np.asarray(stamps), np.asarray(cats),
        train_days * DAY,
    )


def write_tsv(log: GeneratedLog, path: Path) -> None:
    """Write the log as the TSV the program ingests; ids are u<n>, i<n>, c<n>."""
    cols = [
        np.char.add("u", log.users.astype(str)),
        np.char.add("i", log.items.astype(str)),
        log.timestamps.astype(str),
    ]
    if log.categories is not None:
        cols.append(np.char.add("c", log.categories.astype(str)))
    lines = cols[0]
    for col in cols[1:]:
        lines = np.char.add(np.char.add(lines, "\t"), col)
    Path(path).write_text("\n".join(lines.tolist()) + "\n", encoding="utf-8")
