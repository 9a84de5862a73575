import codecs
import json
from datetime import datetime, timezone
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_parse_utc, oracle_read_corpus
from tweetlex import (
    DEFAULT_LIMIT,
    FileUnreadable,
    QueryFilter,
    fetch,
    parse_utc,
)
from tweetlex.cli import main

UTC = timezone.utc
STAMP = datetime(2022, 3, 1, 10, 0, tzinfo=UTC)
# Every record built by record() and every fixture tweet contains a space.
EVERY = QueryFilter(keyword=" ")


class Rec(NamedTuple):
    """A tuple that fetch yields, with its fields named."""

    id: str
    created_at: datetime
    username: str
    text: str
    location: tuple[float, float] | None = None


def read_all(path, query, limit=DEFAULT_LIMIT):
    """Drain fetch: (the matching tweets as a list, the skipped-line count)."""
    tweets, counts = fetch(path, query, limit)
    return list(map(Rec._make, tweets)), counts.skipped


def write_corpus(path, records):
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    return path


def record(i, **overrides):
    base = {
        "id": f"t{i}",
        "created_at": f"2021-01-0{i}T10:00:00Z",
        "username": f"user{i}",
        "text": f"tweet number {i}",
    }
    base.update(overrides)
    return base


LINE1 = json.dumps(record(1)).encode("utf-8")
LINE2 = json.dumps(record(2)).encode("utf-8")


def _parsed(parse, stamp):
    """parse(stamp) if it gives a UTC datetime, else the class it raised."""
    try:
        when = parse(stamp)
    except Exception as exc:
        return type(exc)
    assert when.tzinfo is UTC
    return when


# ISO-8601 stamps: a date (near datetime's edges too), an optional time
# after "T" or " " as hh, hh:mm or hh:mm:ss with a fraction, and an
# ending; plus the overflow edges and garbage.
_date_st = st.one_of(
    st.sampled_from(["0001-01-01", "2021-01-01", "9999-12-31"]),
    st.builds(
        "{:04d}-{:02d}-{:02d}".format,
        st.integers(1, 9999),
        st.integers(1, 12),
        st.integers(1, 31),
    ),
)
_time_st = st.one_of(
    st.just(""),
    st.builds(
        "{}{}".format,
        st.sampled_from("T "),
        st.one_of(
            st.builds("{:02d}".format, st.integers(0, 24)),
            st.builds("{:02d}:{:02d}".format, st.integers(0, 24), st.integers(0, 60)),
            st.sampled_from(["00:00:00", "23:59:59"]),
            st.builds(
                "10:00:00{}{}".format,
                st.sampled_from(".,"),
                st.text(alphabet="0123456789", min_size=1, max_size=9),
            ),
        ),
    ),
)
# "+" and "x": one stray character, which only a "Z"/"z" may be rewritten from
_ending_st = st.sampled_from(
    ["", "Z", "z", "+00:00", "-00:00", "+05:30", "+00:00Z", "+", "x"]
)
stamp_st = st.one_of(
    st.builds("{}{}{}".format, _date_st, _time_st, _ending_st),
    st.sampled_from(
        [
            "2021-01-01Z",
            "2021-01-01z",
            "0001-01-01T00:00:00+01:00",
            "9999-12-31T23:59:59-01:00",
            "0001-01-01T00:00:00Z",
            "9999-12-31T23:59:59.999999z",
        ]
    ),
    st.text(alphabet="0123456789-:T .+Zz", max_size=26),
    st.text(max_size=12),
)


class TestParseUtc:
    def test_z_suffix(self):
        assert parse_utc("2021-01-01T00:00:00Z") == datetime(2021, 1, 1, tzinfo=UTC)

    def test_offset_converted_to_utc(self):
        stamp = parse_utc("2021-01-01T05:00:00+05:00")
        assert stamp == datetime(2021, 1, 1, 0, 0, tzinfo=UTC)

    def test_naive_taken_as_utc(self):
        assert parse_utc("2021-06-01T12:00:00").tzinfo == UTC

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_utc("yesterday")

    @pytest.mark.parametrize(
        "value, spelled_out",
        [
            ("2021-01-01T10:00:00Z", "2021-01-01T10:00:00+00:00"),
            ("2021-01-01T10:00:00z", "2021-01-01T10:00:00+00:00"),
            ("2021-01-01T10:00:00+00:00", "2021-01-01T10:00:00+00:00"),
            ("2021-01-01T10:00:00-00:00", "2021-01-01T10:00:00-00:00"),
            ("2021-01-01T10:00:00+05:30", "2021-01-01T10:00:00+05:30"),
            ("2021-01-01T10:00:00", "2021-01-01T10:00:00+00:00"),
            ("2021-01-01T10:00:00.123456Z", "2021-01-01T10:00:00.123456+00:00"),
            ("2021-01-01T10:00:00.123456-03:00", "2021-01-01T10:00:00.123456-03:00"),
        ],
        ids=["Z", "z", "+00:00", "-00:00", "+05:30", "naive", "us-Z", "us-offset"],
    )
    def test_result_is_utc(self, value, spelled_out):
        stamp = parse_utc(value)
        assert stamp == datetime.fromisoformat(spelled_out).astimezone(UTC)
        assert stamp.tzinfo is UTC

    @pytest.mark.parametrize(
        "value", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"]
    )
    def test_leaving_datetime_range_in_utc_raises(self, value):
        with pytest.raises(OverflowError):
            parse_utc(value)

    @given(stamp_st)
    @settings(max_examples=500)
    def test_matches_rewrite_first_oracle(self, stamp):
        assert _parsed(parse_utc, stamp) == _parsed(oracle_parse_utc, stamp)



class TestTweet:
    def test_empty_id_rejected(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [record(1, id=""), record(2)])
        tweets, skipped = read_all(path, EVERY)
        assert [t.id for t in tweets] == ["t2"]
        assert skipped == 1


class TestReadCorpus:
    def test_valid_lines_in_order(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [record(1), record(2), record(3)])
        tweets, skipped = read_all(path, EVERY)
        assert [t.id for t in tweets] == ["t1", "t2", "t3"]
        assert skipped == 0

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps(record(1)), "{not json", json.dumps(record(2))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tweets, skipped = read_all(path, EVERY)
        assert [t.id for t in tweets] == ["t1", "t2"]
        assert skipped == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"id": "x", "created_at": "2021-01-01T00:00:00Z", "username": "u"},
            record(1, created_at="not a time"),
            record(1, id=123),
            record(1, text=None),
            record(1, lat=95.0, lon=0.0),
            record(1, lat=10.0),
            record(1, lat=True, lon=1.0),
            record(1, lat="51.5", lon="-0.1"),
            ["an", "array"],
            record(1, id=""),
            record(1, lat=91, lon=0),
            record(1, created_at="0001-01-01T00:00:00+01:00"),
            record(1, lat=10**400, lon=0),
            record(1, lat=0.0, lon=-181.0),
        ],
    )
    def test_bad_records_are_skipped(self, tmp_path, bad):
        path = write_corpus(tmp_path / "c.jsonl", [record(2), bad])
        # counted whether or not the query would keep the bad line's text
        for query in (EVERY, QueryFilter(keyword="number 2")):
            tweets, skipped = read_all(path, query)
            assert [t.id for t in tweets] == ["t2"]
            assert skipped == 1

    @pytest.mark.parametrize(
        "raw, ids, skipped",
        [
            pytest.param(
                codecs.BOM_UTF8 + LINE1 + b"\n" + LINE2 + b"\n", ["t1", "t2"], 0,
                id="bom",
            ),
            pytest.param(LINE1 + b"\r\n" + LINE2 + b"\r\n", ["t1", "t2"], 0, id="crlf"),
            pytest.param(
                LINE1 + b"\n" + LINE1.replace(b"t1", b"t\xff") + b"\n" + LINE2,
                ["t1", "t2"], 1, id="invalid-byte",
            ),
            *(
                pytest.param(
                    json.dumps(record(1, text=f"line one{sep}line two"), ensure_ascii=False)
                    .encode("utf-8") + b"\n" + LINE2 + b"\n",
                    ["t1", "t2"], 0, id=f"U+{ord(sep):04X}",
                )
                for sep in ("\u2028", "\u2029", "\x85")
            ),
        ],
    )
    def test_lines_split_on_newline_bytes_only(self, tmp_path, raw, ids, skipped):
        path = tmp_path / "c.jsonl"
        path.write_bytes(raw)
        tweets, got_skipped = read_all(path, EVERY)
        assert [t.id for t in tweets] == ids
        assert got_skipped == skipped

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(json.dumps(record(1, lat=10**400, lon=0)), id="huge-lat"),
            pytest.param(
                json.dumps(record(1, created_at="0001-01-01T00:00:00+01:00")),
                id="before-year-1-in-utc",
            ),
            pytest.param("[" * 200_000, id="deep-nesting"),
        ],
    )
    def test_out_of_range_line_is_skipped(self, tmp_path, capsys, line):
        path = tmp_path / "c.jsonl"
        path.write_text(line + "\n" + json.dumps(record(2)) + "\n", encoding="utf-8")
        assert main(["classify", "--query", " ", "--corpus", str(path)]) == 0
        assert "skipped 1 malformed corpus lines" in capsys.readouterr().err

    def test_blank_lines_are_not_counted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record(1)) + "\n\n\n", encoding="utf-8")
        tweets, skipped = read_all(path, EVERY)
        assert len(tweets) == 1
        assert skipped == 0

    def test_location_parsed(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [record(1, lat=51.5, lon=-0.1)])
        tweets, _ = read_all(path, EVERY)
        assert tweets[0].location == (51.5, -0.1)

    @pytest.mark.parametrize(
        "content, skipped",
        [("", 0), ("broken\n{}\n", 2)],
        ids=["empty", "all-malformed"],
    )
    def test_empty_file_yields_nothing(self, tmp_path, content, skipped):
        path = tmp_path / "c.jsonl"
        path.write_text(content, encoding="utf-8")
        tweets, counts = fetch(path, EVERY)
        assert list(tweets) == []
        assert (counts.valid, counts.skipped) == (0, skipped)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileUnreadable):
            fetch(tmp_path / "absent.jsonl", EVERY)

    def test_read_is_lazy(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [record(1), record(2)])
        tweets, counts = fetch(path, EVERY)
        path.unlink()  # the open handle still reads it
        assert counts.valid == 0
        assert next(tweets)[0] == "t1"
        assert counts.valid == 1
        assert [t[0] for t in tweets] == ["t2"]
        assert (counts.valid, counts.skipped) == (2, 0)

    def test_records_are_checked_field_tuples(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [
                record(1, lat=51.5, lon=-0.1),
                record(2, created_at="2021-01-02T15:30:00+05:30"),
                record(3, lat=-90, lon=180),
            ],
        )
        tweets, counts = fetch(path, EVERY)
        assert list(tweets) == [
            (
                f"t{i}",
                datetime(2021, 1, i, 10, tzinfo=UTC),
                f"user{i}",
                f"tweet number {i}",
                location,
            )
            for i, location in [(1, (51.5, -0.1)), (2, None), (3, (-90.0, 180.0))]
        ]

    def test_fixture_corpus_is_clean(self, corpus_path):
        tweets, skipped = read_all(corpus_path, EVERY)
        assert len(tweets) == 50
        assert skipped == 0


class TestQueryFilter:
    def test_empty_keyword_rejected(self):
        with pytest.raises(ValueError):
            QueryFilter(keyword="")

    def test_since_must_precede_until(self):
        t = datetime(2021, 1, 1, tzinfo=UTC)
        with pytest.raises(ValueError):
            QueryFilter(keyword="x", since=t, until=t)

    def test_bbox_must_be_ordered(self):
        with pytest.raises(ValueError):
            QueryFilter(keyword="x", bbox=(10.0, 0.0, 5.0, 1.0))

    @pytest.mark.parametrize("at", range(4))
    def test_bbox_nan_part_rejected(self, at):
        bbox = [-90.0, -180.0, 90.0, 180.0]
        bbox[at] = float("nan")
        with pytest.raises(ValueError, match="NaN"):
            QueryFilter(keyword="x", bbox=tuple(bbox))

    @pytest.mark.parametrize("field", ["since", "until"])
    def test_naive_window_edge_rejected(self, field):
        with pytest.raises(ValueError, match="timezone-aware"):
            QueryFilter(keyword="x", **{field: datetime(2020, 1, 1)})

    def test_lowered_keyword_is_outside_eq_hash_and_repr(self):
        query = QueryFilter(keyword="Flu")
        assert repr(query) == "QueryFilter(keyword='Flu', since=None, until=None, bbox=None)"
        assert hash(query) == hash(QueryFilter(keyword="Flu"))

    def test_keyword_is_case_insensitive_substring(self):
        query = QueryFilter(keyword="Vaccine")
        assert query.matches("the vaccine works", STAMP, None)
        assert not query.matches("the jab works", STAMP, None)

    def test_hash_is_matched_literally(self):
        query = QueryFilter(keyword="#covid")
        assert query.matches("news #covid19 update", STAMP, None)
        assert not query.matches("covid news", STAMP, None)

    def test_since_inclusive_until_exclusive(self):
        since = datetime(2021, 1, 1, tzinfo=UTC)
        until = datetime(2021, 2, 1, tzinfo=UTC)
        query = QueryFilter(keyword="flu", since=since, until=until)
        before = datetime(2020, 12, 31, 23, 59, tzinfo=UTC)
        assert not query.matches("flu", before, None)
        assert query.matches("flu", since, None)
        assert not query.matches("flu", until, None)

    def test_bbox_keeps_inside_and_drops_unlocated(self):
        query = QueryFilter(keyword="x", bbox=(50.0, -1.0, 52.0, 1.0))
        assert query.matches("x", STAMP, (51.0, 0.0))
        assert query.matches("x", STAMP, (50.0, -1.0))
        assert not query.matches("x", STAMP, (49.9, 0.0))
        assert not query.matches("x", STAMP, None)


class TestSources:
    def test_limit_keeps_first_matches(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [record(1, id=f"m{i}", text="flu shot") for i in range(10)],
        )
        tweets, _ = read_all(path, QueryFilter(keyword="flu"), limit=5)
        assert [t.id for t in tweets] == ["m0", "m1", "m2", "m3", "m4"]

    def test_read_stops_at_limit(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps(record(1)), json.dumps(record(2)), "{broken", "broken"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tweets, skipped = read_all(path, EVERY, limit=2)
        assert [t.id for t in tweets] == ["t1", "t2"]
        assert skipped == 0

    def test_corpus_source_no_match_is_empty(self, corpus_path):
        assert read_all(corpus_path, QueryFilter(keyword="horoscope")) == ([], 0)

    def test_corpus_source_tracks_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record(1)) + "\nbroken\n", encoding="utf-8")
        _, skipped = read_all(path, QueryFilter(keyword="tweet"))
        assert skipped == 1

    def test_limit_must_be_positive(self, corpus_path):
        with pytest.raises(ValueError):
            fetch(corpus_path, QueryFilter(keyword="x"), limit=0)

    def test_fixture_covid_subset(self, corpus_path):
        tweets, _ = read_all(corpus_path, QueryFilter(keyword="covid"), limit=100)
        assert len(tweets) == 20
        assert tweets[0].id == "t001"


tweet_st = st.builds(
    Rec,
    id=st.text(alphabet="abc123", min_size=1, max_size=6),
    created_at=st.datetimes(
        min_value=datetime(2019, 1, 1), max_value=datetime(2023, 1, 1)
    ).map(lambda d: d.replace(tzinfo=UTC)),
    username=st.text(max_size=8),
    text=st.text(max_size=40),
    location=st.one_of(
        st.none(),
        st.tuples(
            st.floats(-90, 90, allow_nan=False),
            st.floats(-180, 180, allow_nan=False),
        ),
    ),
)


@st.composite
def filter_st(draw):
    keyword = draw(st.text(min_size=1, max_size=4))
    since = draw(
        st.one_of(
            st.none(),
            st.datetimes(
                min_value=datetime(2019, 1, 1), max_value=datetime(2022, 1, 1)
            ).map(lambda d: d.replace(tzinfo=UTC)),
        )
    )
    until = draw(
        st.one_of(
            st.none(),
            st.datetimes(
                min_value=datetime(2022, 1, 2), max_value=datetime(2024, 1, 1)
            ).map(lambda d: d.replace(tzinfo=UTC)),
        )
    )
    bbox = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.floats(-90, 0, allow_nan=False),
                st.floats(-180, 0, allow_nan=False),
                st.floats(0, 90, allow_nan=False),
                st.floats(0, 180, allow_nan=False),
            ),
        )
    )
    return QueryFilter(keyword=keyword, since=since, until=until, bbox=bbox)


def write_tweets(path, tweets):
    """Write Recs as corpus records, with non-ASCII text left unescaped."""
    lines = []
    for tweet in tweets:
        obj = {
            "id": tweet.id,
            "created_at": tweet.created_at.isoformat(),
            "username": tweet.username,
            "text": tweet.text,
        }
        if tweet.location is not None:
            obj["lat"], obj["lon"] = tweet.location
        lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


class TestFilterProperties:
    @given(
        tweets=st.lists(tweet_st, min_size=1, max_size=30),
        query=filter_st(),
        limit=st.integers(1, 40),
    )
    @settings(max_examples=80)
    def test_idempotent_and_subsequence(self, tmp_path_factory, tweets, query, limit):
        tmp = tmp_path_factory.mktemp("corpus")
        once, skipped = read_all(write_tweets(tmp / "all.jsonl", tweets), query, limit)
        assert skipped == 0
        kept = [t for t in tweets if query.matches(t.text, t.created_at, t.location)]
        assert once == kept[:limit]
        if once:
            again = read_all(write_tweets(tmp / "once.jsonl", once), query, limit)
            assert again == (once, 0)
        it = iter(tweets)
        assert all(kept in it for kept in once)

    @given(tweets=st.lists(tweet_st, max_size=30), keyword=st.text(min_size=1, max_size=4))
    @settings(max_examples=80)
    def test_kept_tweets_contain_keyword(self, tweets, keyword):
        query = QueryFilter(keyword=keyword)
        for tweet in tweets:
            if query.matches(tweet.text, tweet.created_at, tweet.location):
                assert keyword.lower() in tweet.text.lower()


# Around a record: JSON whitespace, which the reader accepts, and other
# Unicode whitespace (and U+FEFF), which makes the line malformed unless
# the line holds nothing else.
PAD_ST = st.text(alphabet=" \t\r\x0b\x0c\x1c\x85\u3000\ufeff", max_size=3)

# A valid record, or one with a field overridden, most often into a defect.
corpus_record_st = st.builds(
    lambda fields, location, defect: {**fields, **location, **defect},
    st.fixed_dictionaries(
        {
            "id": st.sampled_from(["a", "b"]),
            "created_at": st.sampled_from(
                [
                    "2021-01-01T10:00:00Z",
                    "2021-01-01T10:00:00z",
                    "2021-01-01 10:00:00",
                    "2021-01-01T10:00:00.250-00:00",
                    "2021-01-01T10:00:00+05:30",
                ]
            ),
            "username": st.just("u"),
            "text": st.sampled_from(["Flu shot", "no match", "flu\u3000"]),
        }
    ),
    st.sampled_from([{}, {"lat": 51.5, "lon": -0.1}, {"lat": -90, "lon": 180}]),
    st.one_of(
        st.just({}),
        st.sampled_from(
            [
                {"id": ""},
                {"id": 7},
                {"created_at": "0001-01-01T00:00:00+01:00"},
                {"created_at": "yesterday"},
                {"username": None},
                {"text": 3},
                {"lat": 10},
                {"lat": 91.0, "lon": 0},
                {"lat": True, "lon": 0},
                {"lat": "1", "lon": 2},
                {"lat": 10**400, "lon": 0},
            ]
        ),
    ),
)


@st.composite
def corpus_line_st(draw):
    body = draw(
        st.one_of(
            st.builds(json.dumps, corpus_record_st, ensure_ascii=st.booleans()),
            st.sampled_from(["{} x", "{}{}", "[1]", "null", "{", ""]),
        )
    )
    line = (draw(PAD_ST) + body + draw(PAD_ST)).encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        line += b"\xff"
    return line


class TestReaderOracle:
    @given(
        lines=st.lists(corpus_line_st(), max_size=12),
        bom=st.booleans(),
        keyword=st.sampled_from(["flu", "FLU", "o"]),
    )
    @settings(max_examples=200)
    def test_fetch_matches_oracle(self, tmp_path_factory, lines, bom, keyword):
        raw = codecs.BOM_UTF8 * bom + b"\n".join(lines) + b"\n"
        path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        path.write_bytes(raw)
        tweets, counts = fetch(path, QueryFilter(keyword=keyword), limit=100)
        got = ([t[0] for t in tweets], counts.valid, counts.skipped)
        assert got == oracle_read_corpus(raw, keyword)
