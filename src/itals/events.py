"""Raw event ingestion: TSV parsing and string-to-dense-index mapping."""

from __future__ import annotations

import io
import math
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

import numpy as np

__all__ = [
    "EventLog",
    "RatingLog",
    "ParseError",
    "ingest_events",
    "ingest_ratings",
    "write_events_tsv",
    "write_id_map",
    "read_category_map",
]

Source = Union[str, Path, IO[str], IO[bytes], Iterable[str]]


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass
class EventLog:
    """Column-oriented sequence of events plus the id maps built at ingestion.

    ``user_ids[j]`` is the original string id assigned dense index ``j``
    (first-seen order); likewise for items and categories.  ``categories``
    is None when no ingested line carried a category column; individual
    events without one hold -1.
    """

    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray
    categories: Optional[np.ndarray] = None
    user_ids: list = field(default_factory=list)
    item_ids: list = field(default_factory=list)
    category_ids: Optional[list] = None

    def __len__(self) -> int:
        return len(self.users)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def select(self, mask: np.ndarray) -> "EventLog":
        """Subset of events; id maps are shared, not remapped."""
        return EventLog(
            self.users[mask],
            self.items[mask],
            self.timestamps[mask],
            None if self.categories is None else self.categories[mask],
            self.user_ids,
            self.item_ids,
            self.category_ids,
        )

    def sorted_by_user_time(self) -> "EventLog":
        """Stable reorder by (user, timestamp), the layout sequential context expects."""
        order = np.lexsort((self.timestamps, self.users))
        return self.select(order)


@dataclass
class RatingLog:
    """Explicit ratings, same column layout as EventLog plus a rating value."""

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    timestamps: np.ndarray
    user_ids: list = field(default_factory=list)
    item_ids: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.users)


def _open_lines(source: Source) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8")
    if isinstance(source, io.TextIOBase):
        return source
    if hasattr(source, "read"):  # byte stream
        return io.TextIOWrapper(source, encoding="utf-8")
    return source


def _rows(source: Source, counts: tuple) -> Iterator[tuple]:
    """(line number, fields) of each line; blank lines and '#' lines are skipped.

    A line with a field count not in ``counts`` raises ParseError.  A stream
    opened here is closed here; callers wrap the call in ``closing`` so that
    also happens when they stop early.
    """
    lines = _open_lines(source)
    try:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if not line or line[0] == "#" or line.isspace():
                continue
            fields = line.split("\t")
            if len(fields) not in counts:
                expected = " or ".join(map(str, counts))
                raise ParseError(
                    line_no, f"expected {expected} tab-separated fields, got {len(fields)}"
                )
            yield line_no, fields
    finally:
        if lines is not source and hasattr(lines, "close"):
            lines.close()


def _parse_timestamp(text: str, line_no: int) -> int:
    try:
        value = int(text)
    except ValueError:
        try:
            fval = float(text)
        except ValueError:
            raise ParseError(line_no, f"timestamp not parseable: {text!r}") from None
        if not np.isfinite(fval):
            raise ParseError(line_no, f"timestamp not finite: {text!r}")
        # floor, not truncation toward 0, which would accept -0.5 as 0
        value = math.floor(fval)
    if value < 0:
        raise ParseError(line_no, f"timestamp negative: {text!r}")
    if value > np.iinfo(np.int64).max:
        raise ParseError(line_no, f"timestamp too large for int64: {text!r}")
    return value


def ingest_events(source: Source) -> EventLog:
    """Parse a UTF-8 TSV event log into a dense-indexed EventLog.

    One event per line: ``user \\t item \\t unix-timestamp [\\t category]``.
    Lines beginning with '#' and blank lines are skipped.  Unknown string
    ids get dense indices in first-seen order.
    """
    user_index: dict = {}
    item_index: dict = {}
    cat_index: dict = {}
    users, items, stamps, cats = [], [], [], []
    saw_category = False

    with closing(_rows(source, (3, 4))) as rows:
        for line_no, fields in rows:
            uid, iid, ts = fields[0], fields[1], fields[2]
            users.append(user_index.setdefault(uid, len(user_index)))
            items.append(item_index.setdefault(iid, len(item_index)))
            # up to 18 plain digits, the common case, fit int64 and need no call
            plain = ts.isdecimal() and len(ts) < 19
            stamps.append(int(ts) if plain else _parse_timestamp(ts, line_no))
            if len(fields) == 4:
                saw_category = True
                cats.append(cat_index.setdefault(fields[3], len(cat_index)))
            else:
                cats.append(-1)

    return EventLog(
        users=np.asarray(users, dtype=np.int64),
        items=np.asarray(items, dtype=np.int64),
        timestamps=np.asarray(stamps, dtype=np.int64),
        categories=np.asarray(cats, dtype=np.int64) if saw_category else None,
        user_ids=list(user_index),
        item_ids=list(item_index),
        category_ids=list(cat_index) if saw_category else None,
    )


def ingest_ratings(source: Source) -> RatingLog:
    """Parse a ratings TSV: ``user \\t item \\t rating \\t unix-timestamp``."""
    user_index: dict = {}
    item_index: dict = {}
    users, items, ratings, stamps = [], [], [], []

    with closing(_rows(source, (4,))) as rows:
        for line_no, fields in rows:
            try:
                rating = float(fields[2])
            except ValueError:
                raise ParseError(line_no, f"rating not parseable: {fields[2]!r}") from None
            if not np.isfinite(rating):
                raise ParseError(line_no, f"rating not finite: {fields[2]!r}")
            users.append(user_index.setdefault(fields[0], len(user_index)))
            items.append(item_index.setdefault(fields[1], len(item_index)))
            ratings.append(rating)
            stamps.append(_parse_timestamp(fields[3], line_no))

    return RatingLog(
        users=np.asarray(users, dtype=np.int64),
        items=np.asarray(items, dtype=np.int64),
        ratings=np.asarray(ratings, dtype=np.float64),
        timestamps=np.asarray(stamps, dtype=np.int64),
        user_ids=list(user_index),
        item_ids=list(item_index),
    )


def write_events_tsv(log: EventLog, path: Union[str, Path]) -> None:
    """Write events in canonical form (dense indices as ids), one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(log)):
            row = f"{log.users[i]}\t{log.items[i]}\t{log.timestamps[i]}"
            if log.categories is not None and log.categories[i] >= 0:
                row += f"\t{log.categories[i]}"
            fh.write(row + "\n")


def write_id_map(ids: list, path: Union[str, Path]) -> None:
    """Write an id map as ``dense-index \\t original-id`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx, original in enumerate(ids):
            fh.write(f"{idx}\t{original}\n")


def read_category_map(source: Source, item_ids: list) -> tuple:
    """Read an ``item \\t category`` TSV into ({item index: category index}, names).

    Item ids are resolved against an existing id map; lines for unknown
    items are ignored (they carry no events).  Category strings get dense
    indices in first-seen order; the second element lists them in index
    order.
    """
    item_lookup = {orig: idx for idx, orig in enumerate(item_ids)}
    cat_index: dict = {}
    mapping: dict = {}
    with closing(_rows(source, (2,))) as rows:
        for _, (item, category) in rows:
            item_idx = item_lookup.get(item)
            if item_idx is not None:
                mapping[item_idx] = cat_index.setdefault(category, len(cat_index))
    return mapping, list(cat_index)
