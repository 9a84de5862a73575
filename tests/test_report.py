import contextlib
import csv
import os
import time
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TOY_NEGATIVE, TOY_NEGATORS, TOY_POSITIVE, make_lexicon
from oracle import oracle_csv_bytes
from tweetlex import (
    AggregateResult,
    DetailCsv,
    PathUnwritable,
    encode_matches,
    render_summary,
    score_text,
)

TOY = make_lexicon(TOY_POSITIVE, TOY_NEGATIVE, TOY_NEGATORS)
HEADER = "date,time,username,tweet,positive_words,negative_words"
STAMP = datetime(2022, 3, 1, 10, 0, tzinfo=timezone.utc)


def row(text, username="user", created_at=STAMP):
    return created_at, username, text


def write_detail(rows, path):
    """Write each (created_at, username, text) row with its TOY hits."""
    with DetailCsv(path) as detail:
        for created_at, username, text in rows:
            detail.write(created_at, username, text, *score_text(text, TOY))


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestWriteCsv:
    def test_empty_writes_header_only(self, tmp_path):
        out = tmp_path / "d.csv"
        write_detail([], out)
        assert out.read_bytes() == (HEADER + "\r\n").encode()

    def test_canonical_row(self, tmp_path):
        out = tmp_path / "d.csv"
        write_detail([row("I am not sad", username="a")], out)
        lines = out.read_bytes().split(b"\r\n")
        assert lines[1] == b"2022-03-01,10:00:00,a,I am not sad,sad!,"

    def test_comma_field_quoted_and_round_trips(self, tmp_path):
        out = tmp_path / "d.csv"
        write_detail([row("good, but bad", username="u,ser")], out)
        rows = read_rows(out)
        assert rows[1][2] == "u,ser"
        assert rows[1][3] == "good, but bad"
        assert '"good, but bad"' in out.read_text(encoding="utf-8")

    def test_timestamps_rendered_in_utc(self, tmp_path):
        plus_two = datetime(2022, 3, 1, 12, 0, tzinfo=timezone(timedelta(hours=2)))
        out = tmp_path / "d.csv"
        write_detail([row("fine", created_at=plus_two)], out)
        assert "2022-03-01,10:00:00" in out.read_text(encoding="utf-8")

    def test_years_below_1000_are_zero_padded(self, tmp_path):
        year_five = datetime(5, 1, 2, 3, 4, 5, tzinfo=timezone.utc)
        out = tmp_path / "d.csv"
        write_detail([row("fine", created_at=year_five)], out)
        assert out.read_bytes().split(b"\r\n")[1].startswith(b"0005-01-02,03:04:05,")

    @pytest.mark.skipif(not hasattr(time, "tzset"), reason="needs time.tzset")
    def test_naive_timestamp_rejected(self, tmp_path, monkeypatch):
        # astimezone would read a naive stamp as local time: 05:00 UTC here
        monkeypatch.setenv("TZ", "America/New_York")
        time.tzset()
        try:
            out = tmp_path / "d.csv"
            with DetailCsv(out) as detail:
                with pytest.raises(ValueError, match="timezone-aware"):
                    detail.write(datetime(2021, 1, 1), "u", "fine", [], [])
            assert out.read_bytes() == (HEADER + "\r\n").encode()
        finally:
            monkeypatch.undo()
            time.tzset()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(PathUnwritable):
            DetailCsv(tmp_path / "missing" / "d.csv")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_failure_is_unwritable(self):
        detail = DetailCsv("/dev/full")
        try:
            # a row larger than the write buffer reaches the device in write
            with pytest.raises(PathUnwritable, match="/dev/full") as err:
                detail.write(STAMP, "u", "x" * 100_000, [], [])
            assert isinstance(err.value.__cause__, OSError)
        finally:
            with contextlib.suppress(PathUnwritable):
                detail.__exit__(None, None, None)

    def test_row_count_matches(self, tmp_path):
        write_detail([row(f"tweet {i}") for i in range(7)], tmp_path / "d.csv")
        assert len(read_rows(tmp_path / "d.csv")) == 1 + 7


class TestMatchEncoding:
    def test_encoding_examples(self):
        assert encode_matches([]) == ""
        assert encode_matches([("sad", True)]) == "sad!"
        assert encode_matches([("good", False), ("sad", True)]) == "good|sad!"


nasty_text = st.text(
    alphabet=st.sampled_from(list('abc ,"\n\r|!é')), max_size=25
)


class TestCsvRoundTrip:
    @given(
        rows=st.lists(
            st.tuples(nasty_text, nasty_text), min_size=1, max_size=10
        )
    )
    @settings(max_examples=60)
    def test_fields_survive_any_content(self, tmp_path_factory, rows):
        tmp = tmp_path_factory.mktemp("csv")
        out = tmp / "d.csv"
        write_detail([row(text, username=user) for user, text in rows], out)
        parsed = read_rows(out)
        assert parsed[0] == HEADER.split(",")
        assert len(parsed) == len(rows) + 1
        for (user, text), fields in zip(rows, parsed[1:]):
            assert fields[2] == user
            assert fields[3] == text


csv_text = st.text(
    alphabet=st.sampled_from(list(',"\r\n\0\ud800|!é a')), max_size=12
)
csv_matches = st.lists(st.tuples(csv_text, st.booleans()), max_size=3)
# Local times whose UTC value stays in datetime's range under every offset.
csv_stamps = st.builds(
    lambda local, offset: local.replace(tzinfo=timezone(offset)),
    st.datetimes(min_value=datetime(5, 1, 1), max_value=datetime(9999, 12, 31, 15, 59)),
    st.sampled_from([timedelta(0), timedelta(hours=5, minutes=30), timedelta(hours=-8)]),
)
IST, PST = timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-8))


def _oracle_row(user, text, positive, negative, when):
    utc = (when - when.utcoffset()).replace(tzinfo=None)
    return [
        f"{utc.year:04d}-{utc.month:02d}-{utc.day:02d}",
        f"{utc.hour:02d}:{utc.minute:02d}:{utc.second:02d}",
        user,
        text,
        "|".join(token + ("!" if negated else "") for token, negated in positive),
        "|".join(token + ("!" if negated else "") for token, negated in negative),
    ]


class TestCsvBytes:
    @given(
        rows=st.lists(
            st.tuples(csv_text, csv_text, csv_matches, csv_matches, csv_stamps),
            max_size=6,
        )
    )
    @example(rows=[
        ("u", "a,b", [("nice,", False)], [('sa"d', True)],
         datetime(5, 1, 1, 3, 0, 0, 999999, tzinfo=IST)),
        ("", "", [("", True)], [], datetime(9999, 12, 31, 15, 59, 59, tzinfo=PST)),
        (" x\0 ", "\ud800\r\n", [], [("é", False), ("!", True)],
         datetime(2021, 6, 30, 20, 0, 0, 123456, tzinfo=PST)),
    ])
    @settings(max_examples=80)
    def test_bytes_equal_stdlib_writer(self, tmp_path_factory, rows):
        """Both row entries, write and _write_row of a _head, give the
        stdlib writer's bytes: _write_row with its hit quoting on, and
        with it on only where _quotable finds a hit token to quote."""
        tmp = tmp_path_factory.mktemp("csv")
        with DetailCsv(tmp / "d.csv") as detail:
            for user, text, positive, negative, when in rows:
                detail.write(when, user, text, positive, negative)
        tokens = [token for _, _, *hits, _ in rows for side in hits for token, _ in side]
        quotable = DetailCsv._quotable(tokens)
        for name, quote_hits in (("head.csv", True), ("skip.csv", quotable)):
            with DetailCsv(tmp / name) as detail:
                for user, text, positive, negative, when in rows:
                    head = detail._head(when, user, text)
                    detail._write_row(head, positive, negative, quote_hits)
        expected = oracle_csv_bytes([HEADER.split(",")] + [_oracle_row(*row) for row in rows])
        assert (tmp / "d.csv").read_bytes() == expected
        assert (tmp / "head.csv").read_bytes() == expected
        assert (tmp / "skip.csv").read_bytes() == expected

    @pytest.mark.parametrize(
        "words, quotable",
        [([], False), (["good", "é", "\0", "|!"], False), (["good", "nice,"], True),
         (['sa"d'], True), (["a\rb"], True), (["\n"], True)],
    )
    def test_quotable_finds_a_word_to_quote(self, words, quotable):
        assert DetailCsv._quotable(words) is quotable
        assert quotable is any(oracle_csv_bytes([[word]]) != f"{word}\r\n".encode()
                               for word in words)


class TestRenderSummary:
    def test_contains_percentages(self):
        result = AggregateResult("demo", 4, 3, 1, 75.0, 25.0, False)
        text = render_summary(result)
        assert "75.0" in text and "25.0" in text
        assert "demo" in text
        assert "no sentiment words" not in text

    def test_no_signal_line(self):
        result = AggregateResult("demo", 2, 0, 0, 0.0, 0.0, True)
        text = render_summary(result)
        assert "no sentiment words found" in text
        assert "0.0%" in text

    def test_deterministic(self):
        result = AggregateResult("x", 1, 2, 3, 40.0, 60.0, False)
        assert render_summary(result) == render_summary(result)

    def test_rounding_to_one_decimal(self):
        result = AggregateResult("x", 20, 15, 24, 100 / 39 * 15, 100 / 39 * 24, False)
        text = render_summary(result)
        assert "38.5%" in text and "61.5%" in text
