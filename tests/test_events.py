import io

import numpy as np
import pytest

from itals import ParseError, ingest_events, ingest_ratings
from itals.events import read_category_rows, write_events_tsv, write_id_map


def test_single_line_first_seen_indices():
    log = ingest_events(io.StringIO("u1\ti9\t1240000000\n"))
    assert len(log) == 1
    assert (log.users.tolist(), log.items.tolist(), log.timestamps.tolist()) == ([0], [0], [1240000000])
    assert log.categories is None
    assert log.user_ids == ["u1"]
    assert log.item_ids == ["i9"]


def test_empty_stream():
    log = ingest_events(io.StringIO(""))
    assert len(log) == 0
    assert log.user_ids == []


def test_first_seen_order_mapping():
    text = "a\tx\t1\nb\ty\t2\na\tz\t3\n"
    log = ingest_events(io.StringIO(text))
    assert log.users.tolist() == [0, 1, 0]
    assert log.items.tolist() == [0, 1, 2]


def test_comments_and_blank_lines_skipped():
    text = "# header\nu\ti\t10\n\n  \nu\tj\t20\n"
    log = ingest_events(io.StringIO(text))
    assert len(log) == 2


def test_category_column():
    text = "u\ti\t10\tbooks\nu\tj\t20\tmusic\nu\tk\t30\tbooks\n"
    log = ingest_events(io.StringIO(text))
    assert log.categories.tolist() == [0, 1, 0]
    assert log.category_ids == ["books", "music"]


def test_mixed_category_presence():
    log = ingest_events(io.StringIO("u\ti\t10\tbooks\nu\tj\t20\n"))
    assert log.categories.tolist() == [0, -1]
    assert log.category_ids == ["books"]


def test_malformed_line_reports_number():
    with pytest.raises(ParseError) as err:
        ingest_events(io.StringIO("u\ti\t10\nu\ti\n"))
    assert err.value.line_no == 2


def test_bad_timestamp():
    with pytest.raises(ParseError, match="timestamp"):
        ingest_events(io.StringIO("u\ti\tnotatime\n"))
    with pytest.raises(ParseError, match="negative"):
        ingest_events(io.StringIO("u\ti\t-5\n"))


def test_timestamp_beyond_int64_names_the_line():
    # such timestamps used to escape ingest as OverflowError
    for text in ("99999999999999999999", "9223372036854775808", "1e30", "9.3e18"):
        with pytest.raises(ParseError, match="too large") as err:
            ingest_events(io.StringIO(f"u\ti\t10\nu\tj\t{text}\n"))
        assert err.value.line_no == 2
        with pytest.raises(ParseError, match="too large") as err:
            ingest_ratings(io.StringIO(f"u\ti\t5\t{text}\n"))
        assert err.value.line_no == 1


def test_nineteen_digit_timestamps_in_range():
    text = "u\ti\t9223372036854775807\nu\tj\t0001000000000000000000\n"
    assert ingest_events(io.StringIO(text)).timestamps.tolist() == [2**63 - 1, 10**18]
    ratings = ingest_ratings(io.StringIO("u\ti\t5\t9223372036854775807\n"))
    assert ratings.timestamps.tolist() == [2**63 - 1]


def test_fractional_timestamp_truncates():
    log = ingest_events(io.StringIO("u\ti\t100.75\n"))
    assert log.timestamps[0] == 100


def test_negative_fractional_timestamps_rejected():
    # truncation toward 0 used to accept these as timestamp 0
    for text in ("-0.5", "-0.9", "-1.5"):
        with pytest.raises(ParseError, match="negative") as err:
            ingest_events(io.StringIO(f"u\ti\t10\nu\tj\t{text}\n"))
        assert err.value.line_no == 2
        with pytest.raises(ParseError, match="negative"):
            ingest_ratings(io.StringIO(f"u\ti\t5\t{text}\n"))
    assert ingest_events(io.StringIO("u\ti\t-0.0\n")).timestamps.tolist() == [0]


def test_byte_stream_input():
    log = ingest_events(io.BytesIO(b"u\ti\t1\n"))
    assert len(log) == 1


def test_ratings_parse():
    text = "u1\tm1\t5\t100\nu1\tm2\t3.5\t200\n"
    ratings = ingest_ratings(io.StringIO(text))
    assert ratings.ratings.tolist() == [5.0, 3.5]
    assert ratings.timestamps.tolist() == [100, 200]


def test_ratings_field_count():
    with pytest.raises(ParseError, match="4 tab-separated"):
        ingest_ratings(io.StringIO("u\ti\t5\n"))
    with pytest.raises(ParseError, match="rating"):
        ingest_ratings(io.StringIO("u\ti\tbad\t10\n"))


def test_sorted_by_user_time():
    text = "b\tx\t30\na\ty\t20\na\tz\t10\nb\tw\t5\n"
    log = ingest_events(io.StringIO(text)).sorted_by_user_time()
    # user indices: b=0, a=1; within user ascending time
    assert log.users.tolist() == [0, 0, 1, 1]
    assert log.timestamps.tolist() == [5, 30, 10, 20]


def test_canonical_roundtrip(tmp_path):
    log = ingest_events(io.StringIO("u\ti\t10\tbooks\nv\tj\t20\tmusic\n"))
    path = tmp_path / "events.tsv"
    write_events_tsv(log, path)
    again = ingest_events(path)
    assert np.array_equal(again.users, log.users)
    assert np.array_equal(again.items, log.items)
    assert np.array_equal(again.timestamps, log.timestamps)
    assert np.array_equal(again.categories, log.categories)


def test_write_id_map(tmp_path):
    path = tmp_path / "users.tsv"
    write_id_map(["alice", "bob"], path)
    assert path.read_text() == "0\talice\n1\tbob\n"


def test_read_category_rows_keeps_every_line_in_file_order():
    items, categories, names = read_category_rows(
        io.StringIO("i2\tdvd\nmissing\tx\ni1\ttv\ni2\ttv\n"), ["i1", "i2"]
    )
    assert items.tolist() == [1, 0, 1] and categories.tolist() == [0, 1, 1]
    assert names == ["dvd", "tv"]
