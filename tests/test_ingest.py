"""The block reader against the per-line reader it replaced, and its bounds.

The oracle below is the per-line rule the package used before the block
reader: one ``rstrip``/``split``/``setdefault`` step per line, over the
source's text read in universal newlines mode, the one line rule of every
source.  The block reader must give the same logs, id maps and ParseErrors
on every source.
"""

import io
import time
import tracemalloc
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

import itals.events as events
from itals import ParseError, ingest_events, ingest_ratings
from itals.events import EventLog, RatingLog, _parse_timestamp, read_category_rows, write_events_tsv


# ---- the per-line oracle ---------------------------------------------------


def _open_lines(source):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8")
    if isinstance(source, io.TextIOBase):
        return io.StringIO(source.read(), newline=None)
    return io.TextIOWrapper(source, encoding="utf-8")  # byte stream


def _rows(source, counts):
    lines = _open_lines(source)
    try:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if line_no == 1:
                line = line.removeprefix("\ufeff")  # a byte-order mark is not data
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
        if lines is not source:
            lines.close()


def oracle_events(source):
    user_index, item_index, cat_index = {}, {}, {}
    users, items, stamps, cats = [], [], [], []
    saw_category = False
    with closing(_rows(source, (3, 4))) as rows:
        for line_no, fields in rows:
            uid, iid, ts = fields[0], fields[1], fields[2]
            users.append(user_index.setdefault(uid, len(user_index)))
            items.append(item_index.setdefault(iid, len(item_index)))
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


def oracle_ratings(source):
    user_index, item_index = {}, {}
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


def oracle_category_rows(source, item_ids):
    item_lookup = {orig: idx for idx, orig in enumerate(item_ids)}
    cat_index, items, categories = {}, [], []
    with closing(_rows(source, (2,))) as rows:
        for _, (item, category) in rows:
            item_idx = item_lookup.get(item)
            if item_idx is not None:
                items.append(item_idx)
                categories.append(cat_index.setdefault(category, len(cat_index)))
    return items, categories, list(cat_index)


def oracle_write(log, path):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(log)):
            row = f"{log.users[i]}\t{log.items[i]}\t{log.timestamps[i]}"
            if log.categories is not None and log.categories[i] >= 0:
                row += f"\t{log.categories[i]}"
            fh.write(row + "\n")


# ---- seeded texts ----------------------------------------------------------

IDS = [
    "u1", "u2", "u10", "a", "a\0", "a\0\0", "ü", "用户", "😀id", "\ufeffbom", " lead",
    "prefix_12", "prefix_13", "prefix_1234567890abc", "prefix_1234567890abd",
    "x" * 8, "x" * 9, "x" * 16, "x" * 17, "y" * 24 + "\0", "y" * 24, "#not",
]
STAMPS = [
    "0", "7", "000123", "1240000000", "999999999999999999", "9223372036854775807",
    "0001000000000000000000", "100.75", "1e3", "١٢٣", "１２３", " 42", "42\u3000", "+5", "1_000",
]
CATEGORIES = ["c1", "books", "ü", "c\0", "c", "z" * 20]
SKIPPED = ["", "# comment", "#", "\t", "\t\t", " ", "\x1c", "\u3000", " \t\u3000\x1c ", "\x85", "\r"]
BAD = [
    "u\ti", "u", "u\ti\t1\tc\textra", "u\ti\tnotatime", "u\ti\t-5", "u\ti\t1e30",
    "u\ti\tnan", "u\ti\t", "\u3000x\t\u3000", "u\ti\t-0.5",
]
ENDINGS = ["\n", "\n", "\n", "\r\n", "\r\r\n"]


def event_text(rng, n_lines, bad_lines=0):
    lines = []
    for _ in range(n_lines):
        kind = rng.random()
        if kind < 0.15:
            line = SKIPPED[rng.integers(len(SKIPPED))]
        else:
            fields = [IDS[rng.integers(len(IDS))], IDS[rng.integers(len(IDS))]]
            fields.append(STAMPS[rng.integers(len(STAMPS))] if kind < 0.3 else str(rng.integers(10**9)))
            if rng.random() < 0.5:
                fields.append(CATEGORIES[rng.integers(len(CATEGORIES))])
            line = "\t".join(fields)
        lines.append(line + ENDINGS[rng.integers(len(ENDINGS))])
    for _ in range(bad_lines):
        at = int(rng.integers(len(lines) + 1))
        lines.insert(at, BAD[rng.integers(len(BAD))] + "\n")
    text = "".join(lines)
    # about half the texts end without a newline
    return text.rstrip("\n") if rng.random() < 0.5 else text


def sources(text, tmp_path):
    """Each source form of one text, made fresh on each call."""
    path = tmp_path / "events.tsv"
    path.write_bytes(text.encode("utf-8"))
    return {
        "path": lambda: path,
        "str-path": lambda: str(path),
        "text": lambda: io.StringIO(text),
        # whatever a text stream's own newline rule, its text is read as a file's
        "text-newline-any": lambda: io.StringIO(text, newline=""),
        "text-newline-cr": lambda: io.StringIO(text, newline="\r"),
        "text-newline-crlf": lambda: io.StringIO(text, newline="\r\n"),
        "wrapped-newline-any": lambda: io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), "utf-8", newline=""),
        "bytes": lambda: io.BytesIO(text.encode("utf-8")),
    }


def outcome(reader, source):
    try:
        return reader(source)
    except ParseError as err:
        return ("ParseError", err.line_no, str(err))


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is type(want)
    for name, value in vars(want).items():
        mine = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert mine.dtype == value.dtype and mine.shape == value.shape, name
            assert np.array_equal(mine, value), name
        else:
            assert mine == value, name


@pytest.fixture(params=[None, 64, 512], ids=lambda b: f"block{b or 'default'}")
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(events, "_BLOCK_CHARS", request.param)
    return request.param


class TestEventsEqualOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_valid_texts(self, seed, block, tmp_path):
        text = event_text(np.random.default_rng(seed), 200)
        for form, make in sources(text, tmp_path).items():
            want = outcome(oracle_events, make())
            assert not isinstance(want, tuple), (form, want)
            assert_same(outcome(ingest_events, make()), want)

    @pytest.mark.parametrize("seed", range(6))
    def test_bad_lines(self, seed, block, tmp_path):
        rng = np.random.default_rng([seed, 7])
        text = event_text(rng, 200, bad_lines=int(rng.integers(1, 4)))
        for form, make in sources(text, tmp_path).items():
            want = outcome(oracle_events, make())
            assert isinstance(want, tuple), form
            assert outcome(ingest_events, make()) == want, form

    def test_bad_lines_of_each_kind_in_one_block(self):
        valid = "u\ti\t1\n"
        for first in BAD:
            for second in BAD:
                text = valid + first + "\n" + valid + second + "\n"
                want = outcome(oracle_events, io.StringIO(text))
                assert want[1] == 2
                assert outcome(ingest_events, io.StringIO(text)) == want

    def test_a_stamp_error_before_a_field_count_error(self):
        text = "u\ti\t1\nu\ti\tx\nu\ti\nu\ti\t-1\n"
        want = outcome(oracle_events, io.StringIO(text))
        assert want == ("ParseError", 2, "line 2: timestamp not parseable: 'x'")
        assert outcome(ingest_events, io.StringIO(text)) == want

    @pytest.mark.parametrize("bad", ["u\ti", "u\ti\tx", "u\ti\t-1", "a\tb\tc\td\te"])
    def test_a_bad_line_in_a_later_block(self, bad, monkeypatch):
        monkeypatch.setattr(events, "_BLOCK_CHARS", 40)
        text = "".join(f"u{k}\ti{k}\t{k}\n" for k in range(50)) + bad + "\nu\ti\t-2\n"
        want = outcome(oracle_events, io.StringIO(text))
        assert want[1] == 51
        assert outcome(ingest_events, io.StringIO(text)) == want

    def test_every_source_form_reads_the_files_line_ends(self, tmp_path):
        # a lone "\r", "\r\n" and "\r\r\n" (two line ends) end lines in every form
        path = tmp_path / "events.tsv"
        valid = "u\ti\t1\rv\tj\t2\r\nw\tk\t3\r\r\nx\tl\t4"
        bad = "u\ti\t1\rv\tj\t2\r\nw\tk\t3\r\r\nbad\nx\tl\t4\n"
        # a StringIO made with newline "\r" or "\r\n" rewrites the "\n"s of
        # its initial text, so those modes are given the file's text through
        # a TextIOWrapper, which reads it as it is
        forms = {
            "bytes": lambda text: io.BytesIO(text.encode("utf-8")),
            **{
                f"text-newline-{newline!r}": lambda text, newline=newline: io.StringIO(text, newline=newline)
                for newline in (None, "", "\n")
            },
            **{
                f"wrapped-newline-{newline!r}": lambda text, newline=newline: io.TextIOWrapper(
                    io.BytesIO(text.encode("utf-8")), "utf-8", newline=newline
                )
                for newline in (None, "", "\n", "\r", "\r\n")
            },
        }
        path.write_bytes(valid.encode("utf-8"))
        want = ingest_events(path)
        assert want.user_ids == ["u", "v", "w", "x"]
        for make in forms.values():
            assert_same(ingest_events(make(valid)), want)
        path.write_bytes(bad.encode("utf-8"))
        want = outcome(ingest_events, path)
        assert want == ("ParseError", 5, "line 5: expected 3 or 4 tab-separated fields, got 1")
        for form, make in forms.items():
            assert outcome(ingest_events, make(bad)) == want, form

    @pytest.mark.parametrize("end", ["\r\n", "\r\r\n"])
    def test_a_carriage_return_that_ends_a_chunk(self, end, monkeypatch, tmp_path):
        # the chunk "u\ti\t1\r" ends in "\r": "\r\n" is one line end after
        # it, and "\r\r\n" two, however far the chunk's end must look ahead
        text = f"u\ti\t1{end}bad\n"
        path = tmp_path / "events.tsv"
        path.write_bytes(text.encode("utf-8"))
        want = ("ParseError", len(end), f"line {len(end)}: expected 3 or 4 tab-separated fields, got 1")
        for chars in range(1, len(text) + 1):
            monkeypatch.setattr(events, "_BLOCK_CHARS", chars)
            assert outcome(ingest_events, path) == want
            assert outcome(ingest_events, io.StringIO(text)) == want, chars

    @pytest.mark.parametrize("source", [["u\ti\t1\n"], 7])
    def test_a_source_of_another_type(self, source):
        for read in (ingest_events, ingest_ratings, lambda s: read_category_rows(s, ["i"])):
            with pytest.raises(TypeError, match="a path, a byte stream or a text stream, not"):
                read(source)

    def test_lone_surrogates_in_a_text_stream(self):
        text = "\ud800\ti\t1\nu\t\udfff\t2\n"
        assert_same(ingest_events(io.StringIO(text)), oracle_events(io.StringIO(text)))

    @pytest.mark.parametrize("chars", [1, 2, 7, None])
    def test_a_leading_byte_order_mark_is_not_data(self, chars, monkeypatch, tmp_path):
        # "\ufeffu1" used to be the first user's id in every source form
        if chars is not None:
            monkeypatch.setattr(events, "_BLOCK_CHARS", chars)
        plain = "u1\ti\t1\n\ufeffv\tj\t2\n"
        want = ingest_events(io.StringIO(plain))
        assert want.user_ids == ["u1", "\ufeffv"]  # only the source's first character is dropped
        for make in sources("\ufeff" + plain, tmp_path).values():
            assert_same(ingest_events(make()), want)
            assert_same(oracle_events(make()), want)
        assert ingest_events(io.StringIO("\ufeff\ufeff" + plain)).user_ids == ["\ufeffu1", "\ufeffv"]
        # line numbers do not move
        want = ("ParseError", 2, "line 2: expected 3 or 4 tab-separated fields, got 1")
        for text in ("\ufeffu\ti\t1\nbad\n", "\ufeff\nbad\n", "\ufeff#\nbad"):
            for form, make in sources(text, tmp_path).items():
                assert outcome(ingest_events, make()) == want, form

    def test_a_line_longer_than_a_block(self, monkeypatch):
        monkeypatch.setattr(events, "_BLOCK_CHARS", 16)
        text = "u\ti\t1\n" + "v" * 100 + "\tj\t2\nw\tk\t3\n" + "z" * 50 + "\tq\t" + "4" * 18
        assert_same(ingest_events(io.StringIO(text)), oracle_events(io.StringIO(text)))

    def test_a_byte_stream_is_left_open_at_its_end(self):
        stream = io.BytesIO(b"u\ti\t1\n")
        ingest_events(stream)
        assert not stream.closed
        assert stream.tell() == len(b"u\ti\t1\n")
        stream = io.BytesIO(b"u\ti\t1\nv\tj\n")
        with pytest.raises(ParseError):
            ingest_events(stream)
        assert not stream.closed


class TestOtherReadersEqualOracle:
    RATINGS = ["5", "3.5", " 4 ", "1e0", "nan", "inf", "bad", "", "٣"]

    def rating_text(self, rng, n_lines, bad):
        lines = []
        for _ in range(n_lines):
            if rng.random() < 0.1:
                lines.append(SKIPPED[rng.integers(len(SKIPPED))])
                continue
            rating = self.RATINGS[rng.integers(3)]
            stamp = str(rng.integers(10**9))
            if bad and rng.random() < 0.05:
                rating = self.RATINGS[rng.integers(len(self.RATINGS))]
                stamp = STAMPS[rng.integers(len(STAMPS))] if rng.random() < 0.5 else "-3"
            lines.append("\t".join([IDS[rng.integers(len(IDS))], IDS[rng.integers(len(IDS))], rating, stamp]))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("seed", range(6))
    def test_ratings(self, seed, block, tmp_path):
        rng = np.random.default_rng([seed, 3])
        text = self.rating_text(rng, 150, bad=seed % 2 == 1)
        for form, make in sources(text, tmp_path).items():
            want = outcome(oracle_ratings, make())
            assert_same(outcome(ingest_ratings, make()), want)

    def test_rating_error_precedes_a_stamp_error_on_its_line(self):
        for text in ("u\ti\tbad\t-1\n", "u\ti\tinf\tx\n", "u\ti\t5\tx\nu\ti\tbad\t1\n", "u\ti\tbad\t1\nu\ti\t5\tx\n"):
            want = outcome(oracle_ratings, io.StringIO(text))
            assert isinstance(want, tuple)
            assert outcome(ingest_ratings, io.StringIO(text)) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_category_map(self, seed, block, tmp_path):
        rng = np.random.default_rng([seed, 5])
        lines = []
        for _ in range(200):
            if rng.random() < 0.1:
                lines.append(SKIPPED[rng.integers(len(SKIPPED))])
            else:
                lines.append(f"{IDS[rng.integers(len(IDS))]}\t{CATEGORIES[rng.integers(len(CATEGORIES))]}")
        if seed % 3 == 2:
            lines.insert(int(rng.integers(len(lines))), "only-one-field")
        text = "\r\n".join(lines)
        item_ids = IDS[::2] + ["unused"]
        for form, make in sources(text, tmp_path).items():
            want = outcome(lambda s: oracle_category_rows(s, item_ids), make())
            got = outcome(lambda s: read_category_rows(s, item_ids), make())
            if want[0] != "ParseError":
                assert got[0].dtype == got[1].dtype == np.int64
                got = (got[0].tolist(), got[1].tolist(), got[2])
            assert got == want

    def test_a_leading_byte_order_mark_in_the_other_readers(self, tmp_path):
        ratings = "u1\ti\t5\t1\nu2\tj\t4\t2\n"
        want = ingest_ratings(io.StringIO(ratings))
        assert want.user_ids == ["u1", "u2"]
        for make in sources("\ufeff" + ratings, tmp_path).values():
            assert_same(ingest_ratings(make()), want)
        rows = "i\tbooks\nj\tfood\n"
        want = read_category_rows(io.StringIO(rows), ["i", "j"])
        assert want[2] == ["books", "food"]
        for make in sources("\ufeff" + rows, tmp_path).values():
            got = read_category_rows(make(), ["i", "j"])
            assert (got[0].tolist(), got[1].tolist(), got[2]) == (want[0].tolist(), want[1].tolist(), want[2])
        bad = "u\ti\t5\t1\nu\ti\tbad\t2\n"
        want = outcome(ingest_ratings, io.StringIO(bad))
        assert want[1] == 2 and outcome(ingest_ratings, io.StringIO("\ufeff" + bad)) == want


class TestWriteEventsTsv:
    def test_same_bytes_as_the_per_line_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 2000
        cats = rng.integers(-1, 30, n)
        log = EventLog(
            users=rng.integers(0, 500, n),
            items=rng.integers(0, 900, n),
            timestamps=rng.integers(0, 2**62, n),
            categories=cats,
        )
        logs = [log, log.select(cats < 0), log.select(cats >= 0), log.select(cats > n)]
        logs += [EventLog(one.users, one.items, one.timestamps) for one in logs]
        for one in logs:
            oracle_write(one, tmp_path / "old.tsv")
            write_events_tsv(one, tmp_path / "new.tsv")
            assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()


class TestAdversarialInput:
    """Inputs that a per-row key as wide as the longest field would blow up."""

    def _peak(self, source):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            log = ingest_events(source)
            seconds = time.perf_counter() - start
            return log, tracemalloc.get_traced_memory()[1], seconds
        finally:
            tracemalloc.stop()

    def test_one_long_id_among_many_short_lines(self):
        long_id = "L" * (1 << 20)
        lines = [f"u{k % 97}\ti{k % 89}\t{k}\n" for k in range(100_000)]
        lines[50_000] = f"{long_id}\ti0\t7\n"
        text = "".join(lines)
        log, peak, seconds = self._peak(io.StringIO(text))
        assert len(log) == 100_000 and log.user_ids[log.users[50_000]] == long_id
        # measured 7.2 MiB and 0.2 s under tracemalloc; keys as wide as
        # the long id would take 100 GiB
        assert peak < 12 * 2**20
        assert seconds < 5

    def test_one_eight_mib_line_without_newline(self):
        text = "v" * (8 << 20) + "\ti\t5"
        log, peak, seconds = self._peak(io.StringIO(text))
        assert len(log) == 1 and len(log.user_ids[0]) == 8 << 20
        # measured 24 MiB (the line as text, as bytes and as the decoded
        # id) and 0.06 s under tracemalloc
        assert peak < 36 * 2**20
        assert seconds < 5
