"""Raw event ingestion: TSV parsing and string-to-dense-index mapping.

Every TSV reader here goes through one block reader.  A source is read in
blocks of about ``_BLOCK_CHARS`` characters of whole lines (a line longer
than a block makes a longer block), and each block is parsed with numpy
over its UTF-8 bytes:

- A source is a path, a byte stream or a text stream, and every one is
  read under one line rule, a file's universal newlines: "\\n", "\\r\\n"
  and a lone "\\r" each end one line.  A path or a byte stream is decoded
  in that mode, and a text stream's chunks are translated to it with the
  decoder that mode uses.  One leading U+FEFF, a UTF-8 byte-order mark,
  is dropped from every source.  A block ends at its last "\\n".
- Blank lines, lines starting with '#' and whitespace-only lines
  (``str.isspace``) are skipped; the last are found among the lines whose
  first and last bytes can belong to whitespace, and only those few are
  decoded.  Fields are split at tabs, and a line whose field count the
  reader does not take is a ParseError.
- Equal fields of a block are grouped exactly, by all their bytes and
  their length: the key is the field's 8-byte words, masked past its
  end, sorted once per word count, so a long field widens no other
  field's key.  Only the first field of each group is decoded, and ids
  get dense indices in first-seen order.
- A timestamp of fewer than 19 ASCII digits is parsed in int64, one digit
  column at a time; any other goes through ``_parse_timestamp``.
- A ParseError names the first bad line in file order, whatever the
  reason and whichever block it is in.

Memory is O(block + events); time is linear in the input.
"""

from __future__ import annotations

import io
import math
from contextlib import closing
from dataclasses import dataclass, field
from itertools import chain, repeat
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
    "read_category_rows",
]

# a path, a byte stream or a text stream; each is read in universal newlines mode
Source = Union[str, Path, IO[bytes], IO[str]]


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


# characters read from a stream at a time; a block holds whole lines
_BLOCK_CHARS = 1 << 18
# zero bytes after a block, so 8-byte words may be read past a field's end
_PAD = 8
# bytes a whitespace-only line can start or end with: ASCII whitespace
# and every byte of a multi-byte UTF-8 character
_MAYBE_SPACE = np.zeros(256, dtype=bool)
_MAYBE_SPACE[[9, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_MAYBE_SPACE[0x80:] = True
# _LOW_BYTES[r] keeps the r low bytes of a little-endian word
_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)


def _blocks(source: Source) -> Iterator[tuple]:
    """(UTF-8 bytes, line starts, line ends) of each block of the source.

    The bytes end in _PAD zero bytes that belong to no line.  A file
    opened here is closed here, and a caller's stream is left open;
    callers wrap the call in ``closing`` so that also happens when they
    stop early.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as stream:
            yield from _stream_blocks(_chunks(stream))
    elif isinstance(source, io.TextIOBase):
        yield from _stream_blocks(_universal(source))
    elif hasattr(source, "read"):  # byte stream, left open for the caller
        stream = io.TextIOWrapper(source, encoding="utf-8")
        try:
            yield from _stream_blocks(_chunks(stream))
        finally:
            stream.detach()
    else:
        raise TypeError(f"a source is a path, a byte stream or a text stream, not {type(source).__name__}")


def _chunks(stream) -> Iterator[str]:
    return iter(lambda: stream.read(_BLOCK_CHARS), "")


def _universal(stream) -> Iterator[str]:
    """A text stream's chunks as a file reads them: "\\r\\n" and a lone "\\r" become "\\n".

    The decoder holds back a chunk's last "\\r" until it sees the next
    character, so a "\\r\\n" split between two chunks stays one line end.
    """
    newlines = io.IncrementalNewlineDecoder(None, translate=True)
    for chunk in _chunks(stream):
        yield newlines.decode(chunk)
    yield newlines.decode("", final=True)


def _stream_blocks(chunks: Iterable[str]) -> Iterator[tuple]:
    """Blocks of text chunks whose lines end at "\\n"; one leading byte-order mark is not data."""
    pieces: list = []  # the text read since the last block
    chunks = iter(chunks)
    for chunk in chain([next(chunks, "").removeprefix("\ufeff")], chunks):
        cut = chunk.rfind("\n") + 1
        if cut:
            pieces.append(chunk[:cut])
            yield _text_block(pieces)
        pieces.append(chunk[cut:])
    if any(pieces):
        yield _text_block(pieces)


def _text_block(pieces: list) -> tuple:
    """The block of the text pieces, which it empties (so a long line is held once)."""
    pieces.append("\0" * _PAD)
    text = "".join(pieces)
    pieces.clear()
    data = text.encode("utf-8", "surrogatepass")
    del text
    size = len(data) - _PAD
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8, count=size) == 10)
    if data[size - 1] != 10:
        ends = np.append(ends, size)
    return data, np.concatenate(([0], ends[:-1] + 1)), ends


class _Table:
    """The lines of one block that hold fields, split at their tabs.

    Rows are the kept lines (not blank, '#' or whitespace-only) before the
    first one whose field count is not in ``counts``; that line's
    ParseError is ``error``.  ``line_no`` holds each row's line number.
    """

    def __init__(self, data: bytes, starts, ends, first_line: int, counts: tuple):
        self.data = data
        self.buf = buf = np.frombuffer(data, dtype=np.uint8)
        size = len(data) - _PAD
        # the little-endian 8-byte word at every byte offset
        self.words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))
        self.nul = data.find(b"\0", 0, size) >= 0
        first, last = buf[starts], buf[ends - 1]
        kept = (ends > starts) & (first != ord("#"))
        for i in np.flatnonzero(kept & _MAYBE_SPACE[first] & _MAYBE_SPACE[last]).tolist():
            kept[i] = not data[starts[i]:ends[i]].decode("utf-8", "surrogatepass").isspace()
        rows = np.flatnonzero(kept)
        self.tabs = np.flatnonzero(buf[:size] == 9)
        self.first_tab = np.searchsorted(self.tabs, starts[rows])
        self.n_fields = np.searchsorted(self.tabs, ends[rows]) - self.first_tab + 1
        self.error = None
        bad = np.logical_and.reduce([self.n_fields != count for count in counts])
        if bad.any():
            b = int(np.argmax(bad))
            expected = " or ".join(map(str, counts))
            self.error = ParseError(
                first_line + int(rows[b]),
                f"expected {expected} tab-separated fields, got {self.n_fields[b]}",
            )
            rows, self.first_tab, self.n_fields = rows[:b], self.first_tab[:b], self.n_fields[:b]
        self.starts, self.ends = starts[rows], ends[rows]
        self.line_no = first_line + rows

    def __len__(self) -> int:
        return self.starts.size

    def field(self, col: int, rows=None) -> tuple:
        """Byte offsets (starts, ends) of field ``col`` in ``rows`` (default: all)."""
        pick = slice(None) if rows is None else rows
        tab, n_fields = self.first_tab[pick] + col, self.n_fields[pick]
        starts = self.starts[pick] if col == 0 else self.tabs[tab - 1] + 1
        ends = np.where(n_fields == col + 1, self.ends[pick], np.take(self.tabs, tab, mode="clip"))
        return starts, ends

    def texts(self, starts, ends) -> list:
        data = self.data
        return [
            data[a:b].decode("utf-8", "surrogatepass")
            for a, b in zip(starts.tolist(), ends.tolist())
        ]

    def grouped(self, starts, ends) -> tuple:
        """(group of each field, text of each group): equal fields share a group.

        Groups are numbered in the order of their first fields.
        """
        label, first = _group(self.words, starts, ends - starts, self.nul)
        return label, self.texts(starts[first], ends[first])


def _group(words, starts, lengths, nul: bool) -> tuple:
    """(group of each field, first field of each group), groups in first-field order.

    Two fields are equal when they have the same length and bytes: the key
    is the field's words, the last one masked to its bytes, and its length
    when ``nul`` says a field may hold a zero byte (else the masked words
    fix the length).  Fields are keyed in classes of equal word count, so
    no key is wider than its own field.
    """
    widths = (lengths + 7) >> 3
    if widths.size and widths.min() == widths.max():
        classes = [np.arange(widths.size)]
    else:
        by_width = np.argsort(widths, kind="stable")
        classes = np.split(by_width, np.flatnonzero(np.diff(widths[by_width])) + 1)
    label = np.empty(lengths.size, dtype=np.int64)
    firsts = []
    n_groups = 0
    for rows in classes:
        if rows.size == 0:
            continue
        width = int(widths[rows[0]])
        if width == 0 or rows.size == 1:
            label[rows] = n_groups
            firsts.append(rows[:1])
            n_groups += 1
            continue
        keys = np.empty((width + nul, rows.size), dtype=np.uint64)
        keys[:width] = words[starts[rows] + 8 * np.arange(width)[:, None]]
        keys[width - 1] &= _LOW_BYTES[lengths[rows] - 8 * (width - 1)]
        if nul:
            keys[width] = lengths[rows]
        order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys)
        keys = keys[:, order]
        new = np.empty(rows.size, dtype=bool)
        new[0] = True
        np.any(keys[:, 1:] != keys[:, :-1], axis=0, out=new[1:])
        label[rows[order]] = n_groups + np.cumsum(new) - 1
        # the sort need not be stable: a group's first field is its lowest
        firsts.append(np.minimum.reduceat(rows[order], np.flatnonzero(new)))
        n_groups += firsts[-1].size
    if not firsts:
        return label, np.empty(0, dtype=np.int64)
    first = np.concatenate(firsts)
    by_first = np.argsort(first)
    rank = np.empty(n_groups, dtype=np.int64)
    rank[by_first] = np.arange(n_groups)
    return rank[label], first[by_first]


def _intern(table: _Table, col: int, index: dict, rows=None) -> np.ndarray:
    """Dense index of field ``col`` in ``rows``, new ids added to ``index`` in first-seen order."""
    label, texts = table.grouped(*table.field(col, rows))
    dense = [index.setdefault(text, len(index)) for text in texts]
    return np.array(dense, dtype=np.int64)[label]


def _stamps(table: _Table, col: int) -> tuple:
    """(timestamps, first ParseError or None) of field ``col``."""
    starts, ends = table.field(col)
    lengths = ends - starts
    # up to 18 ASCII digits, the common case, fit int64 and need no call
    plain = (lengths > 0) & (lengths < 19)
    stamps = np.zeros(len(table), dtype=np.int64)
    for place in range(int(lengths[plain].max(initial=0))):
        held = lengths > place
        digit = np.take(table.buf, ends - 1 - place, mode="clip") - np.uint8(ord("0"))
        plain &= (digit < 10) | ~held
        stamps += np.where(held, digit, 0) * np.int64(10**place)
    other = np.flatnonzero(~plain)
    texts = table.texts(starts[other], ends[other])
    for row, text in zip(other.tolist(), texts):
        try:
            stamps[row] = _parse_timestamp(text, int(table.line_no[row]))
        except ParseError as err:
            return stamps, err
    return stamps, None


def _ratings(table: _Table, col: int) -> tuple:
    """(ratings, first ParseError or None) of field ``col``; each distinct text is parsed once."""
    label, texts = table.grouped(*table.field(col))
    values = []
    for text in texts:
        try:
            value = float(text)
        except ValueError:
            message = f"rating not parseable: {text!r}"
        else:
            if np.isfinite(value):
                values.append(value)
                continue
            message = f"rating not finite: {text!r}"
        # groups are in first-seen order: this one's first row is the first bad row
        row = int(np.argmax(label == len(values)))
        return None, ParseError(int(table.line_no[row]), message)
    return np.array(values, dtype=np.float64)[label], None


def _raise_first(*errors) -> None:
    """Raise the error of the earliest line; on one line, the earliest argument's."""
    found = [err for err in errors if err is not None]
    if found:
        raise min(found, key=lambda err: err.line_no)


def _tables(source: Source, counts: tuple) -> Iterator[_Table]:
    line_no = 1
    with closing(_blocks(source)) as blocks:
        for data, starts, ends in blocks:
            yield _Table(data, starts, ends, line_no, counts)
            line_no += starts.size


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


def _column(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


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

    with closing(_tables(source, (3, 4))) as tables:
        for table in tables:
            stamp, bad_stamp = _stamps(table, 2)
            _raise_first(bad_stamp, table.error)
            users.append(_intern(table, 0, user_index))
            items.append(_intern(table, 1, item_index))
            stamps.append(stamp)
            four = np.flatnonzero(table.n_fields == 4)
            cat = np.full(len(table), -1, dtype=np.int64)
            if four.size:
                saw_category = True
                cat[four] = _intern(table, 3, cat_index, four)
            cats.append(cat)

    return EventLog(
        users=_column(users, np.int64),
        items=_column(items, np.int64),
        timestamps=_column(stamps, np.int64),
        categories=_column(cats, np.int64) if saw_category else None,
        user_ids=list(user_index),
        item_ids=list(item_index),
        category_ids=list(cat_index) if saw_category else None,
    )


def ingest_ratings(source: Source) -> RatingLog:
    """Parse a ratings TSV: ``user \\t item \\t rating \\t unix-timestamp``."""
    user_index: dict = {}
    item_index: dict = {}
    users, items, ratings, stamps = [], [], [], []

    with closing(_tables(source, (4,))) as tables:
        for table in tables:
            rating, bad_rating = _ratings(table, 2)
            stamp, bad_stamp = _stamps(table, 3)
            _raise_first(bad_rating, bad_stamp, table.error)
            users.append(_intern(table, 0, user_index))
            items.append(_intern(table, 1, item_index))
            ratings.append(rating)
            stamps.append(stamp)

    return RatingLog(
        users=_column(users, np.int64),
        items=_column(items, np.int64),
        ratings=_column(ratings, np.float64),
        timestamps=_column(stamps, np.int64),
        user_ids=list(user_index),
        item_ids=list(item_index),
    )


def write_events_tsv(log: EventLog, path: Union[str, Path]) -> None:
    """Write events in canonical form (dense indices as ids), one per line."""
    columns = [log.users.tolist(), log.items.tolist(), log.timestamps.tolist()]
    if log.categories is None:
        tails = repeat("")
    else:
        tails = ["" if cat < 0 else f"\t{cat}" for cat in log.categories.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(map("{}\t{}\t{}{}\n".format, *columns, tails)))


def write_id_map(ids: list, path: Union[str, Path]) -> None:
    """Write an id map as ``dense-index \\t original-id`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx, original in enumerate(ids):
            fh.write(f"{idx}\t{original}\n")


def read_category_rows(source: Source, item_ids: list) -> tuple:
    """Read an ``item \\t category`` TSV into (items, categories, names), in file order.

    ``items`` and ``categories`` are int64 columns with one row per line
    of a known item: item ids are resolved against an existing id map,
    and lines for unknown items are ignored (they carry no events).
    Category strings get dense indices in first-seen order; ``names``
    lists them in index order.
    """
    item_lookup = {orig: idx for idx, orig in enumerate(item_ids)}
    cat_index: dict = {}
    columns = [(np.empty(0, np.int64), np.empty(0, np.int64))]
    with closing(_tables(source, (2,))) as tables:
        for table in tables:
            _raise_first(table.error)
            label, texts = table.grouped(*table.field(0))
            items = np.array([item_lookup.get(text, -1) for text in texts], dtype=np.int64)[label]
            known = np.flatnonzero(items >= 0)
            columns.append((items[known], _intern(table, 1, cat_index, known)))
    items, categories = (np.concatenate(column) for column in zip(*columns))
    return items, categories, list(cat_index)

