import contextlib
import csv
import gc
import io
import json
import os
import pickle
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_50
from oracle import oracle_classify, oracle_correct, oracle_read_lexicon
from tweetlex import QueryFilter, ReadCounts, fetch, load_lexicon, suggest_correction
from tweetlex import cli, corpus, scoring
from tweetlex.cli import (
    _EXIT_CODES,
    EXIT_BAD_LEXICON,
    EXIT_OK,
    EXIT_UNREADABLE,
    EXIT_UNWRITABLE,
    EXIT_USAGE,
    main,
)
from tweetlex.errors import FileUnreadable, TweetlexError
from tweetlex.report import DetailCsv

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
BUNDLED_DIR = SRC_DIR / "tweetlex" / "data"


def write_lexicon_dir(tmp_path, positive, negative, negators):
    lex = tmp_path / "lex"
    lex.mkdir()
    (lex / "positive.txt").write_text("\n".join(positive) + "\n", encoding="utf-8")
    (lex / "negative.txt").write_text("\n".join(negative) + "\n", encoding="utf-8")
    (lex / "negators.txt").write_text("\n".join(negators) + "\n", encoding="utf-8")
    return lex


def classify_args(**extra):
    args = ["classify", "--query", extra.pop("query", "covid"),
            "--corpus", str(extra.pop("corpus", CORPUS_50))]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return args


class TestClassify:
    def test_fixture_run_prints_summary(self, capsys):
        assert main(classify_args()) == 0
        out = capsys.readouterr().out
        assert 'Sentiment summary for "covid"' in out
        assert "tweets scored:  20" in out
        assert "38.5%" in out and "61.5%" in out

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        assert main(classify_args(corpus=missing)) == EXIT_UNREADABLE
        assert str(missing) in capsys.readouterr().err

    def test_zero_match_query_exits_zero(self, capsys):
        assert main(classify_args(query="horoscope")) == 0
        out = capsys.readouterr().out
        assert "tweets scored:  0" in out
        assert "no sentiment words found" in out

    def test_csv_written(self, tmp_path, capsys):
        out_csv = tmp_path / "details.csv"
        assert main(classify_args(out_csv=out_csv)) == 0
        assert out_csv.exists()
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "date,time,username,tweet,positive_words,negative_words"
        assert "wrote 20 detail rows" in capsys.readouterr().err

    def test_unwritable_csv_dir(self, tmp_path, capsys):
        out_csv = tmp_path / "nope" / "details.csv"
        assert main(classify_args(out_csv=out_csv)) == EXIT_UNWRITABLE

    def test_runs_are_deterministic(self, tmp_path, capsys):
        first_csv = tmp_path / "a.csv"
        second_csv = tmp_path / "b.csv"
        main(classify_args(out_csv=first_csv))
        first_out = capsys.readouterr().out
        main(classify_args(out_csv=second_csv))
        second_out = capsys.readouterr().out
        assert first_out == second_out
        assert first_csv.read_bytes() == second_csv.read_bytes()

    def test_limit_truncates(self, capsys):
        assert main(classify_args(limit=5)) == 0
        assert "tweets scored:  5" in capsys.readouterr().out

    def test_bad_limit_rejected(self, capsys):
        assert main(classify_args(limit=0)) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("since", "whenever"),
            ("since", "0001-01-01T00:00:00+01:00"),
            ("until", "9999-12-31T23:00:00-05:00"),
        ],
        ids=["not-iso", "before-year-1-in-utc", "after-year-9999-in-utc"],
    )
    def test_bad_timestamp_is_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(classify_args(**{flag: value}))
        assert err.value.code == EXIT_USAGE
        assert f"argument --{flag}: bad timestamp" in capsys.readouterr().err

    def test_inverted_window_is_usage_error(self, capsys):
        code = main(
            classify_args(since="2021-06-01T00:00:00Z", until="2021-01-01T00:00:00Z")
        )
        assert code == EXIT_USAGE

    def test_bad_bbox_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(classify_args(bbox="1,2,3"))
        assert err.value.code == EXIT_USAGE

    def test_non_numeric_bbox_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(classify_args(bbox="1,2,3,x"))
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = [line for line in captured.err.splitlines() if "error" in line]
        assert line.endswith("argument --bbox: bbox has non-numeric parts: '1,2,3,x'")

    def test_time_window_filters(self, capsys):
        code = main(
            classify_args(
                query="vaccine",
                since="2021-03-01T00:00:00Z",
                until="2021-04-01T00:00:00Z",
            )
        )
        assert code == 0
        assert "tweets scored:  3" in capsys.readouterr().out

    def test_bbox_filters(self, capsys):
        code = main(classify_args(query="hospital", bbox="51.3,-0.6,51.7,0.3"))
        assert code == 0
        assert "tweets scored:  6" in capsys.readouterr().out

    def test_empty_corpus_reports_no_signal(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(classify_args(corpus=empty)) == 0
        captured = capsys.readouterr()
        assert "tweets scored:  0" in captured.out
        assert "no valid records" in captured.err

    def test_skipped_lines_noted(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        record = {"id": "a", "created_at": "2021-01-01T00:00:00Z",
                  "username": "u", "text": "covid day"}
        corpus.write_text(json.dumps(record) + "\nbroken\n", encoding="utf-8")
        assert main(classify_args(corpus=corpus)) == 0
        assert "skipped 1 malformed" in capsys.readouterr().err

    def test_custom_lexicon_dir(self, tmp_path, capsys):
        lex = write_lexicon_dir(tmp_path, ["parking"], ["queues"], ["not"])
        assert main(classify_args(lexicon_dir=lex, query="hospital")) == 0
        out = capsys.readouterr().out
        assert "positive words: 1" in out
        assert "negative words: 1" in out

    def test_spell_correct_flag(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        record = {"id": "a", "created_at": "2021-01-01T00:00:00Z",
                  "username": "u", "text": "covid is gud"}
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        lex = write_lexicon_dir(tmp_path, ["good"], ["bad"], ["not"])
        main(classify_args(corpus=corpus, lexicon_dir=lex))
        assert "positive words: 0" in capsys.readouterr().out
        main(classify_args(corpus=corpus, lexicon_dir=lex, spell_correct=0.5))
        assert "positive words: 1" in capsys.readouterr().out
        # "gud" is 0.571 from "good": the bare flag's 0.85 leaves it
        main(classify_args(corpus=corpus, lexicon_dir=lex) + ["--spell-correct"])
        assert "positive words: 0" in capsys.readouterr().out

    def test_spell_corrected_matches_are_quoted_in_csv(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        record = {"id": "a", "created_at": "2021-01-01T00:00:00Z",
                  "username": "u", "text": "so nice and not sad #q"}
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        lex = write_lexicon_dir(tmp_path, ["nice,"], ['sa"d'], ["not"])
        out_csv = tmp_path / "details.csv"
        args = classify_args(corpus=corpus, lexicon_dir=lex, query="#q",
                             out_csv=out_csv) + ["--spell-correct"]
        assert main(args) == EXIT_OK
        row = out_csv.read_bytes().split(b"\r\n")[1]
        assert row == b'2021-01-01,00:00:00,u,so nice and not sad #q,"nice,|sa""d!",'
        with open(out_csv, encoding="utf-8", newline="") as handle:
            assert list(csv.reader(handle))[1][4:] == ['nice,|sa"d!', ""]

    def test_bad_spell_threshold(self, tmp_path, capsys):
        out_csv = tmp_path / "details.csv"
        for ratio in ("1.5", "-0.5", "nan"):
            args = classify_args(out_csv=out_csv) + ["--spell-correct", ratio]
            assert main(args) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line == "error: --spell-correct must be within [0, 1]"
            assert not out_csv.exists()

    def test_spell_threshold_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(classify_args(spell_threshold=0.5))
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --spell-threshold 0.5" in capsys.readouterr().err

    def test_empty_query_is_usage_error(self, capsys):
        assert main(classify_args(query="")) == EXIT_USAGE
        assert "keyword" in capsys.readouterr().err

    def test_invalid_byte_skips_one_line(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        lines = [json.dumps({"id": i, "created_at": "2021-01-01T00:00:00Z",
                             "username": "u", "text": "covid day"}).encode()
                 for i in ("a", "b", "c")]
        lines[1] = lines[1].replace(b"day", b"d\xffy")
        corpus.write_bytes(b"\n".join(lines) + b"\n")
        assert main(classify_args(corpus=corpus)) == 0
        captured = capsys.readouterr()
        assert "tweets scored:  2" in captured.out
        assert "skipped 1 malformed" in captured.err

    def test_lone_surrogate_is_escaped_in_csv(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            '{"id": "a", "created_at": "2021-01-01T00:00:00Z",'
            ' "username": "u\\ud800", "text": "covid good \\ud800"}\n'
            '{"id": "b", "created_at": "2021-01-02T00:00:00Z",'
            ' "username": "v", "text": "covid bad"}\n',
            encoding="utf-8",
        )
        assert main(classify_args(corpus=corpus)) == 0
        summary = capsys.readouterr().out
        out_csv = tmp_path / "details.csv"
        assert main(classify_args(corpus=corpus, out_csv=out_csv)) == 0
        assert capsys.readouterr().out == summary
        rows = list(csv.reader(out_csv.read_text(encoding="utf-8").splitlines()))
        assert [row[2:4] for row in rows[1:]] == [
            ["u\\ud800", "covid good \\ud800"],
            ["v", "covid bad"],
        ]

    def test_device_corpus_is_read(self, capsys):
        # /dev/null is not a regular file, like a pipe or <(zcat ...)
        assert main(classify_args(corpus="/dev/null")) == 0
        captured = capsys.readouterr()
        assert "tweets scored:  0" in captured.out
        assert "no valid records" in captured.err

    def test_all_malformed_corpus_reports_skip_count(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("broken\n{}\n", encoding="utf-8")
        assert main(classify_args(corpus=corpus)) == 0
        err = capsys.readouterr().err
        assert "no valid records" in err
        assert "(2 malformed lines skipped)" in err

    def test_csv_to_directory_prints_no_summary(self, tmp_path, capsys):
        assert main(classify_args(out_csv=tmp_path)) == EXIT_UNWRITABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(tmp_path) in captured.err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_csv_write_failure_is_unwritable(self, capsys):
        assert main(classify_args(out_csv="/dev/full")) == EXIT_UNWRITABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "/dev/full" in captured.err

    @pytest.mark.parametrize("kind", ["same-path", "symlink", "wordlist"])
    def test_out_csv_naming_an_input_is_usage_error(self, tmp_path, capsys, kind):
        lex = write_lexicon_dir(tmp_path, ["good"], ["bad"], ["not"])
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(CORPUS_50.read_bytes())
        args = {"corpus": corpus, "lexicon_dir": lex, "out_csv": corpus}
        if kind == "symlink":
            args["corpus"] = tmp_path / "link.jsonl"
            args["corpus"].symlink_to(corpus)
        elif kind == "wordlist":
            args["out_csv"] = lex / "negators.txt"
        victim = args["out_csv"]
        before = victim.read_bytes()
        assert main(classify_args(**args)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: --out-csv ")
        assert victim.read_bytes() == before

    @pytest.mark.parametrize("threshold", [None, 0.6], ids=["default", "0.6"])
    def test_spell_correct_matches_oracle(self, tmp_path, capsys, threshold):
        raw = CORPUS_50.read_bytes()
        code, summary, _, _, details = oracle_classify(
            raw, BUNDLED_DIR, "covid", spell_threshold=threshold or 0.85
        )
        # correction changes the run's hits
        assert details != oracle_classify(raw, BUNDLED_DIR, "covid")[4]
        spell = ["--spell-correct"] + ([] if threshold is None else [str(threshold)])
        last, first = tmp_path / "last.csv", tmp_path / "first.csv"
        # the option last, and before another flag, which a bare one must
        # not take as its ratio
        for out_csv, args in [
            (last, classify_args(out_csv=last) + spell),
            (first, classify_args() + spell + ["--out-csv", str(first)]),
        ]:
            assert main(args) == code == EXIT_OK
            assert capsys.readouterr().out == summary
            assert out_csv.read_bytes() == details


# The drawn wordlists' words, and the text words built from them: the
# misspellings give --spell-correct work, and the rest are normalize's
# noise around the sentiment words. Each text holds one topic word, most
# of which the "covid" query keeps.
_ROUTE_VOCAB = ["good", "bad", "not", "never", "nice", "sad"]
# wordlist entries that a CSV field must quote; no text token can equal
# one, but --spell-correct maps "nice", "nicee" and "sad" to them
_ROUTE_QUOTABLE = ["nice,", 'sa"d']
_ROUTE_TEXT = _ROUTE_VOCAB + [
    "gud", "nott", "baad", "nicee", "day", "don't", "x'y", "'", "@not",
    "http://x.co/good", "café", "sad_day", "good,", 'q"', "not good",
    "never sad", "not nicee", "\ud800",
]
_ROUTE_TOPIC = ["covid", "COVID!", "#covid", "covid:", "flu"]
_ROUTE_BAD_LINES = [b"broken", b"{}", b'{"id": ""}', b"[1]", b"\xff", b'{"id": "z"',
                    b"{} x"]
_ROUTE_BLANK_LINES = [b"", b"  ", b"\t", "\u3000".encode()]
# A stamp in UTC on another day than written, a naive one, a year 5 one;
# the windows and boxes below put some of these and the locations on an edge.
_ROUTE_STAMPS = ["2021-01-01T10:00:00Z", "2021-07-01T02:00:00+05:30",
                 "2021-03-01 08:00:00", "0005-01-02T03:04:05z"]
_ROUTE_LOCATIONS = [{}, {"lat": 51.5, "lon": -0.1}, {"lat": -45, "lon": -60.5},
                    {"lat": 90, "lon": -180}]
_ROUTE_SINCE = ["0005-01-02T03:04:05Z", "2021-03-01T08:00:00Z"]
_ROUTE_UNTIL = ["2021-03-01T08:00:00+00:00", "2021-06-30T20:30:00Z"]
_ROUTE_BBOXES = [(51.3, -0.6, 51.7, 0.3), (-45.0, -60.5, 0.0, 0.0),
                 (-90.0, -180.0, 90.0, 180.0)]


@st.composite
def _route_corpus(draw):
    lines = []
    for i, kind in enumerate(
        draw(st.lists(st.sampled_from(["tweet", "tweet", "bad", "blank"]), max_size=12))
    ):
        if kind == "bad":
            lines.append(draw(st.sampled_from(_ROUTE_BAD_LINES)))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(_ROUTE_BLANK_LINES)))
        else:
            record = {
                "id": f"t{i}",
                "created_at": draw(st.sampled_from(_ROUTE_STAMPS)),
                "username": draw(st.sampled_from(["u", "a,b", 'q"', "u\ud800"])),
                **draw(st.sampled_from(_ROUTE_LOCATIONS)),
            }
            words = draw(st.lists(st.sampled_from(_ROUTE_TEXT), max_size=10))
            words.insert(
                draw(st.integers(0, len(words))), draw(st.sampled_from(_ROUTE_TOPIC))
            )
            record["text"] = " ".join(words)
            # unescaped, a lone surrogate makes the line invalid UTF-8
            line = json.dumps(record, ensure_ascii=draw(st.booleans()))
            lines.append(line.encode("utf-8", "surrogatepass"))
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    return bom + b"".join(line + eol for line in lines)


@contextlib.contextmanager
def _watched(batch=None):
    """Within it, scoring._BATCH is batch (unless None), and the forks of
    the CLI's reader and the ReadCounts of its reads are recorded; on a
    clean exit, no child of this process may be left, reaped or not, and
    where /proc/self/fd lists them, the same descriptors are open as
    before, so that no end of a pipe is left open."""
    seen = SimpleNamespace(forks=0, counts=[])
    fds = "/proc/self/fd"
    opened = set(os.listdir(fds)) if os.path.isdir(fds) else None
    real_fork, real_fetch = os.fork, cli.fetch

    def fork():
        pid = real_fork()
        seen.forks += pid != 0
        return pid

    def fetch(*args):
        records, counts = real_fetch(*args)
        seen.counts.append(counts)
        return records, counts

    with (
        mock.patch.object(os, "fork", fork),
        mock.patch.object(cli, "fetch", fetch),
        mock.patch.object(scoring, "_BATCH", batch or scoring._BATCH),
    ):
        yield seen
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if opened is not None:
        assert set(os.listdir(fds)) == opened


def _read_notes(corpus, valid, skipped):
    """The "note:" lines of a run whose read saw valid records and skipped
    lines, before any CSV note."""
    if not valid:
        return [f"note: corpus {corpus} has no valid records "
                f"({skipped} malformed lines skipped)"]
    return [f"note: skipped {skipped} malformed corpus lines"] if skipped else []


def _cli_run(args):
    """(exit code, stdout, the "note:" lines of stderr) of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    notes = [line for line in err.getvalue().splitlines() if line.startswith("note:")]
    return code, out.getvalue(), notes


class TestCliOracle:
    """A classify run gives the exit code, summary, notes and CSV bytes
    of oracle_classify on the same corpus bytes, wordlists and flags."""

    @given(
        raw=_route_corpus(),
        positive=st.sets(
            st.sampled_from(_ROUTE_VOCAB + _ROUTE_QUOTABLE), min_size=1, max_size=3
        ),
        negative=st.sets(st.sampled_from(_ROUTE_VOCAB + _ROUTE_QUOTABLE), max_size=3),
        negators=st.sets(st.sampled_from(_ROUTE_VOCAB)),
        since=st.none() | st.sampled_from(_ROUTE_SINCE),
        until=st.none() | st.sampled_from(_ROUTE_UNTIL),
        bbox=st.none() | st.sampled_from(_ROUTE_BBOXES),
        limit=st.integers(1, 6),
        spell_correct=st.booleans(),
        # None: the bare flag, which means 0.85
        threshold=st.sampled_from([None, 0.6, 0.85]),
    )
    # a flipped hit on each side, a misspelled negator and sentiment word,
    # and a negator that is also on a sentiment list
    @example(
        raw=b'{"id": "t0", "created_at": "2021-01-01T10:00:00Z", "username": "u",'
        b' "text": "covid: not good, never sad, nott baad"}\n',
        positive={"good", "never"}, negative={"sad", "bad"}, negators={"not", "never"},
        since=None, until=None, bbox=None, limit=6, spell_correct=True, threshold=0.6,
    )
    # a negative box with a record on its corner, a lone surrogate, and a
    # bad line after the limit-th match, which the read never reaches
    @example(
        raw=b'{"id": "t0", "created_at": "2021-01-01T10:00:00Z",'
        b' "username": "u\\ud800", "lat": -45, "lon": -60.5, "text": "covid good"}\n'
        b'{"id": "t1", "created_at": "2021-01-01T10:00:00Z", "username": "u",'
        b' "text": "covid bad"}\nbroken\n',
        positive={"good"}, negative={"bad"}, negators=set(), since=None, until=None,
        bbox=(-45.0, -60.5, 0.0, 0.0), limit=1, spell_correct=False, threshold=0.85,
    )
    # an offset stamp a day later than in UTC, and a record on the until edge
    @example(
        raw=b'{"id": "t0", "created_at": "2021-07-01T01:00:00+05:30", "username": "u",'
        b' "text": "covid good"}\n'
        b'{"id": "t1", "created_at": "2021-06-30T20:30:00Z", "username": "u",'
        b' "text": "covid bad"}\n',
        positive={"good"}, negative={"bad"}, negators=set(), since=None,
        until="2021-07-01T02:00:00+05:30", bbox=None, limit=6, spell_correct=False,
        threshold=0.85,
    )
    # three kept records: with batches of 2, the second list is short, so
    # the read has ended and the run stays in one process
    @example(
        raw=b"".join(
            b'{"id": "t%d", "created_at": "2021-01-01T10:00:00Z", "username": "u",'
            b' "text": "covid %s"}\n' % (i, word)
            for i, word in enumerate([b"good", b"bad", b"not good"])
        ),
        positive={"good"}, negative={"bad"}, negators={"not"}, since=None, until=None,
        bbox=None, limit=6, spell_correct=False, threshold=0.85,
    )
    # four kept records whose corrected hits need quoting, a flipped one
    # among them: with batches of 1 and 2, the rows are cut in the child
    @example(
        raw=b"".join(
            b'{"id": "t%d", "created_at": "2021-01-01T10:00:00Z", "username": "u",'
            b' "text": "covid %s"}\n' % (i, words)
            for i, words in enumerate([b"nicee", b"sad good", b"not nice", b"bad"])
        ),
        positive={"nice,", "good"}, negative={'sa"d', "bad"}, negators={"not"},
        since=None, until=None, bbox=None, limit=6, spell_correct=True, threshold=0.6,
    )
    @settings(max_examples=120, deadline=None)
    def test_cli_equals_oracle(
        self, tmp_path_factory, raw, positive, negative, negators, since, until,
        bbox, limit, spell_correct, threshold,
    ):
        tmp = tmp_path_factory.mktemp("routes")
        lex = tmp / "lex"
        lex.mkdir()
        for name, words in [("positive", positive), ("negative", negative),
                            ("negators", negators)]:
            # a comment, CRLF ends and a duplicate, which the readers drop
            lines = ["; drawn", *sorted(words), *sorted(words)[:1]]
            (lex / f"{name}.txt").write_text("\r\n".join(lines) + "\r\n", newline="")
        corpus = tmp / "c.jsonl"
        corpus.write_bytes(raw)
        args = classify_args(corpus=corpus, lexicon_dir=lex, limit=limit)
        args += [f"--{flag}={value}" for flag, value in
                 [("since", since), ("until", until)] if value is not None]
        if bbox is not None:
            # "--bbox -45,..." would read the value as a flag
            args.append("--bbox=" + ",".join(map(str, bbox)))
        if spell_correct:
            # a bare flag is followed by --out-csv in the second run below
            args.append(
                "--spell-correct" if threshold is None else f"--spell-correct={threshold}"
            )

        code, out, valid, skipped, details = oracle_classify(
            raw, lex, "covid", since=since, until=until, bbox=bbox, limit=limit,
            spell_threshold=(threshold or 0.85) if spell_correct else None,
        )
        notes = _read_notes(corpus, valid, skipped) if code == EXIT_OK else []
        out_csv = tmp / "d.csv"
        csv_notes, kept = list(notes), 0
        if code == EXIT_OK:
            kept = int(out.splitlines()[1].split()[-1])  # "  tweets scored:  N"
            csv_notes.append(f"note: wrote {kept} detail rows to {out_csv}")

        # batches of 1 and 2 send every run that keeps two whole lists (2
        # or 4 records or more) through the forked reader
        for batch in (None, 1, 2):
            out_csv.unlink(missing_ok=True)
            with _watched(batch) as seen:
                assert _cli_run(args) == (code, out, notes), batch
                assert _cli_run(args + ["--out-csv", str(out_csv)]) == (
                    code, out, csv_notes), batch
            assert (out_csv.read_bytes() if out_csv.exists() else None) == details
            assert seen.counts == [ReadCounts(valid, skipped)] * 2 * (code == EXIT_OK)
            assert seen.forks == 2 * (batch is not None and kept >= 2 * batch), batch


def _long_corpus(path):
    """Write a corpus of 2,400 lines, about 440 KB or seven 64 KiB blocks:
    2,064 keep "covid", and 6% are malformed or blank."""
    rng = random.Random(2510)
    words = ["covid", "#covid", "good", "bad", "happy", "sad", "not", "never",
             "the", "update", "café", "http://x.co/a", "@desk", "don't"]
    lines = []
    for i in range(2400):
        draw = rng.random()
        if draw < 0.03:
            lines.append(rng.choice([b"broken {", b'{"id": ""}', b"\xff"]))
        elif draw < 0.06:
            lines.append(rng.choice([b"", b"  ", b"\t"]))
        else:
            record = {
                "id": f"t{i}", "created_at": f"2021-03-{i % 28 + 1:02d}T10:00:00Z",
                "username": rng.choice(["u", "a,b", 'q"']),
                "text": " ".join(rng.choices(words, k=rng.randint(10, 26))),
            }
            lines.append(json.dumps(record, ensure_ascii=rng.random() < 0.5).encode())
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


def _file_run(args, tmp, pending=("", "")):
    """(exit code, stdout, stderr) of one main call whose stdout and stderr
    are buffered files, as a terminal's or a pipe's would be, each first
    given its text in pending, unflushed: a child that flushed what it
    inherited, or ran on past its read, would show twice."""
    out_path, err_path = tmp / "stdout.txt", tmp / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        out.write(pending[0])
        err.write(pending[1])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    return code, out_path.read_text(), err_path.read_text()


class TestForkedReader:
    """Past the first batch, the CLI reads the corpus in a forked child:
    the output equals the oracle's and the one-process read's, and no
    child outlives main on any way out of it."""

    # None (500) and 257: a short second list ends the read, which stays in
    # one process; 512: two whole lists, then a child that sends only the
    # counts; 1000 stops the read part-way, 5000 reads the whole file
    @pytest.mark.parametrize("limit", [None, 257, 512, 1000, 5000])
    def test_long_corpus_equals_oracle(self, tmp_path, limit):
        corpus_path = _long_corpus(tmp_path / "c.jsonl")
        extra = {} if limit is None else {"limit": limit}
        code, out, valid, skipped, details = oracle_classify(
            corpus_path.read_bytes(), BUNDLED_DIR, "covid", **extra)
        records, counts = fetch(corpus_path, QueryFilter("covid"), limit or 500)
        kept = len(list(records))
        assert kept >= 257 and counts == ReadCounts(valid, skipped)
        assert counts.skipped and kept == int(out.splitlines()[1].split()[-1])

        args = classify_args(corpus=corpus_path, **extra)
        out_csv = tmp_path / "d.csv"
        notes = _read_notes(corpus_path, valid, skipped)
        with _watched() as seen:
            assert _cli_run(args) == (code, out, notes)
            assert _cli_run(args + ["--out-csv", str(out_csv)]) == (
                code, out, notes + [f"note: wrote {kept} detail rows to {out_csv}"])
        assert out_csv.read_bytes() == details
        assert seen.counts == [counts, counts]
        assert seen.forks == (0 if limit in (None, 257) else 2)

    @pytest.mark.parametrize("why", ["no-fork", "fork-fails", "threads"])
    def test_one_process_when_it_cannot_fork(self, tmp_path, why):
        corpus_path = _long_corpus(tmp_path / "c.jsonl")
        code, out, valid, skipped, _ = oracle_classify(
            corpus_path.read_bytes(), BUNDLED_DIR, "covid", limit=5000)
        stop = threading.Event()
        if why == "threads":
            # a fork could copy a lock that this thread holds
            waiter = threading.Thread(target=stop.wait)
            waiter.start()
        try:
            with _watched() as seen, pytest.MonkeyPatch.context() as patch:
                if why == "no-fork":
                    patch.delattr(os, "fork")
                elif why == "fork-fails":
                    patch.setattr(os, "fork", mock.Mock(side_effect=OSError))
                assert _cli_run(classify_args(corpus=corpus_path, limit=5000)) == (
                    code, out, _read_notes(corpus_path, valid, skipped))
        finally:
            stop.set()
            if why == "threads":
                waiter.join(timeout=10)
                assert not waiter.is_alive()
        assert seen.counts == [ReadCounts(valid, skipped)] and seen.forks == 0

    def test_normal_run_writes_each_output_once(self, tmp_path):
        corpus_path = _long_corpus(tmp_path / "c.jsonl")
        out_csv = tmp_path / "d.csv"
        args = classify_args(corpus=corpus_path, limit=5000, out_csv=out_csv)
        with _watched() as seen:
            code, out, err = _file_run(args, tmp_path)
        assert code == EXIT_OK and seen.forks == 1
        assert out.count("Sentiment summary") == 1 and out.endswith("%\n")
        assert err.count("note: wrote ") == 1
        assert out_csv.read_bytes().count(b"date,time,") == 1

    def test_unflushed_output_is_written_once(self, tmp_path):
        corpus_path = _long_corpus(tmp_path / "c.jsonl")
        code, out, valid, skipped, _ = oracle_classify(
            corpus_path.read_bytes(), BUNDLED_DIR, "covid", limit=5000)
        notes = "".join(f"{note}\n" for note in _read_notes(corpus_path, valid, skipped))
        args = classify_args(corpus=corpus_path, limit=5000)
        with _watched() as seen:
            # "y" has no newline, so a line-buffered stream holds it too
            assert _file_run(args, tmp_path, pending=("x", "y")) == (
                code, "x" + out, "y" + notes)
        assert seen.forks == 1

    # a process started without stdout or stderr has None there
    @pytest.mark.parametrize("closed", [1, 2])
    def test_closed_stream_ends_as_in_one_process(self, tmp_path, closed):
        corpus_path = _long_corpus(tmp_path / "c.jsonl")
        code, out, valid, skipped, _ = oracle_classify(
            corpus_path.read_bytes(), BUNDLED_DIR, "covid", limit=5000)
        notes = "".join(f"{note}\n" for note in _read_notes(corpus_path, valid, skipped))
        assert code == EXIT_OK and notes
        proc = _run_cli(classify_args(corpus=corpus_path, limit=5000), tmp_path,
                        closed=closed)
        assert proc.returncode == EXIT_OK
        # the one stream left holds exactly what it holds in any run
        assert (proc.stdout.decode(), proc.stderr.decode()) == (
            ("", notes) if closed == 1 else (out, ""))

    def test_failed_read_ends_as_in_one_process(self, tmp_path, monkeypatch):
        corpus_path = _long_corpus(tmp_path / "c.jsonl")
        real_blocks = corpus._line_blocks

        def failing_blocks(handle):
            # the child, which reads past the first batch, inherits this
            for count, lines in enumerate(real_blocks(handle)):
                if count == 3:
                    raise OSError(5, "Input/output error")
                yield lines

        monkeypatch.setattr(corpus, "_line_blocks", failing_blocks)
        out_csv = tmp_path / "d.csv"
        args = classify_args(corpus=corpus_path, limit=5000, out_csv=out_csv)
        with _watched() as seen:
            forked = _file_run(args, tmp_path)
        forked_csv = out_csv.read_bytes()
        assert seen.forks == 1
        monkeypatch.delattr(os, "fork")
        assert _file_run(args, tmp_path) == forked
        assert out_csv.read_bytes() == forked_csv
        code, out, err = forked
        assert code == EXIT_UNREADABLE and out == ""
        assert err == f"error: cannot read corpus {corpus_path}: [Errno 5] Input/output error\n"
        # the child sent whole batches before the failing one
        assert forked_csv.count(b"\r\n") > 257 and forked_csv.count(b"date,time,") == 1

    def test_failed_second_list_ends_as_in_one_process(self, tmp_path, monkeypatch):
        corpus_path = _long_corpus(tmp_path / "c.jsonl")
        real_blocks = corpus._line_blocks

        def failing_blocks(handle):
            # the first two blocks hold the first list and part of the second
            for count, lines in enumerate(real_blocks(handle)):
                if count == 2:
                    raise OSError(5, "Input/output error")
                yield lines

        monkeypatch.setattr(corpus, "_line_blocks", failing_blocks)
        out_csv = tmp_path / "d.csv"
        args = classify_args(corpus=corpus_path, limit=5000, out_csv=out_csv)
        with _watched() as seen:
            early = _file_run(args, tmp_path)
        early_csv = out_csv.read_bytes()
        assert seen.forks == 0
        monkeypatch.delattr(os, "fork")
        assert _file_run(args, tmp_path) == early
        assert out_csv.read_bytes() == early_csv
        assert early == (EXIT_UNREADABLE, "", f"error: cannot read corpus {corpus_path}:"
                         " [Errno 5] Input/output error\n")
        # the first list's rows, and none of the second's
        assert early_csv == oracle_classify(
            corpus_path.read_bytes(), BUNDLED_DIR, "covid", limit=scoring._BATCH)[-1]

    @pytest.mark.parametrize("with_csv", [False, True])
    def test_fork_comes_before_the_first_list_is_scored(
        self, tmp_path, monkeypatch, with_csv
    ):
        corpus_path = _long_corpus(tmp_path / "c.jsonl")
        real_classify = scoring._classify_batches
        forks_at_first = []

        def watching(batches, *args):
            def watched():
                for batch in batches:
                    if not forks_at_first:
                        forks_at_first.append(seen.forks)
                    yield batch
            return real_classify(watched(), *args)

        monkeypatch.setattr(scoring, "_classify_batches", watching)
        code, out, valid, skipped, details = oracle_classify(
            corpus_path.read_bytes(), BUNDLED_DIR, "covid", limit=5000)
        extra = {"out_csv": tmp_path / "d.csv"} if with_csv else {}
        with _watched() as seen:
            assert _cli_run(classify_args(corpus=corpus_path, limit=5000, **extra))[:2] == (
                code, out)
        assert forks_at_first == [1] and seen.forks == 1
        if with_csv:
            assert extra["out_csv"].read_bytes() == details

    # the child dies after sending nothing, or one whole list and half of
    # the next one's message
    @pytest.mark.parametrize("whole", [None, 1])
    def test_child_that_dies_ends_the_read(self, tmp_path, monkeypatch, whole):
        real_send = cli._send_rest

        class Dying:
            """A pipe that passes on whole messages, which each end in a
            flush, and ends the process halfway through the one after
            ``whole`` of them."""

            def __init__(self, pipe):
                self.pipe, self.left, self.data = pipe, whole, b""

            def write(self, data):
                self.data += bytes(data)
                return len(data)

            def flush(self):
                end = len(self.data) if self.left else len(self.data) // 2
                self.pipe.write(self.data[:end])
                self.pipe.flush()
                if not self.left:
                    os._exit(0)
                self.left -= 1
                self.data = b""

        def dying_send(rows, counts, pipe):
            # the child, which sends the rest of the read, inherits this
            if whole is not None:
                real_send(rows, counts, Dying(pipe))

        monkeypatch.setattr(cli, "_send_rest", dying_send)
        corpus_path = _long_corpus(tmp_path / "c.jsonl")
        out_csv = tmp_path / "d.csv"
        args = classify_args(corpus=corpus_path, limit=5000, out_csv=out_csv)
        with _watched() as seen:
            code, out, err = _file_run(args, tmp_path)
        assert seen.forks == 1
        assert code == EXIT_UNREADABLE and out == ""
        assert err == (f"error: cannot read corpus {corpus_path}:"
                       " its reading process ended early\n")
        # the rows of the two lists read here and of those the child sent
        rows = scoring._BATCH * (2 + (whole or 0))
        details = oracle_classify(
            corpus_path.read_bytes(), BUNDLED_DIR, "covid", limit=rows)[-1]
        assert out_csv.read_bytes() == details

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_csv_kills_the_child(self, tmp_path):
        args = classify_args(corpus=_long_corpus(tmp_path / "c.jsonl"), limit=5000,
                             out_csv="/dev/full")
        # small batches, so that the fork comes before the first full buffer
        with _watched(batch=8) as seen:
            code, out, err = _file_run(args, tmp_path)
        assert code == EXIT_UNWRITABLE and seen.forks == 1
        assert out == "" and err.count("error: ") == 1

    def test_closed_stdout_reaps_the_child(self, tmp_path):
        out_csv = tmp_path / "d.csv"
        args = classify_args(corpus=_long_corpus(tmp_path / "c.jsonl"), limit=5000,
                             out_csv=out_csv)
        read_end, write_end = os.pipe()
        os.close(read_end)
        out, err = open(write_end, "w"), io.StringIO()
        with _watched() as seen:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
        # the summary that main could not write is still in the buffer
        with pytest.raises(BrokenPipeError):
            out.close()
        assert code == EXIT_UNWRITABLE and seen.forks == 1
        assert err.getvalue().count("error: cannot write to stdout") == 1
        assert out_csv.read_bytes().count(b"date,time,") == 1

    # True: the process's own stdout is the pipe; "no-descriptor": it is a
    # stream that has no descriptor, and the pipe goes unused
    @pytest.mark.parametrize("own", [False, True, "no-descriptor"])
    def test_closed_stdout_leaks_no_file(self, tmp_path, monkeypatch, own):
        args = classify_args(corpus=_long_corpus(tmp_path / "c.jsonl"), limit=5000)
        read_end, write_end = os.pipe()
        os.close(read_end)
        out, err = open(write_end, "w"), io.StringIO()
        if own == "no-descriptor":
            out.close()
            out = _ReaderGone()
        if own:
            # as in a process whose own stdout is the closed pipe
            monkeypatch.setattr(sys, "__stdout__", out)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with _watched() as seen:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(args)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert code == EXIT_UNWRITABLE and seen.forks == 1
        [error] = [line for line in err.getvalue().splitlines() if "error" in line]
        assert error.startswith("error: cannot write to stdout: ")
        if own == "no-descriptor":
            assert out.getvalue() == "" and not out.closed
            return
        # the process's own stdout now writes to /dev/null, and the summary
        # left in its buffer goes there; a caller's stream is left as it was
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull)) == own
        if own:
            out.close()
        else:
            with pytest.raises(BrokenPipeError):
                out.close()

    @pytest.mark.parametrize("with_csv", [False, True])
    def test_consumer_error_kills_the_child(self, tmp_path, monkeypatch, with_csv):
        real_sides = scoring._sides
        calls = []

        def failing_sides(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("scoring failed")
            return real_sides(*args)

        monkeypatch.setattr(scoring, "_sides", failing_sides)
        out_csv = tmp_path / "d.csv"
        args = classify_args(corpus=_long_corpus(tmp_path / "c.jsonl"), limit=5000)
        with _watched() as seen, pytest.raises(RuntimeError, match="scoring failed"):
            _file_run(args + ["--out-csv", str(out_csv)] * with_csv, tmp_path)
        assert seen.forks == 1
        assert (tmp_path / "stdout.txt").read_text() == ""
        if with_csv:
            assert out_csv.read_bytes().count(b"date,time,") == 1


class _ReaderGone(io.StringIO):
    """A stream with no descriptor whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _pipe_messages(data: bytes) -> list:
    """The messages that _send_rest wrote as data."""
    pipe, messages = io.BytesIO(data), []
    while True:
        try:
            messages.append(pickle.load(pipe))
        except EOFError:
            return messages


class TestSendRest:
    """The reading child sends only what the scoring reads of each
    tweet: its text, or, when a CSV is written, its row head (the date,
    time, username and text fields, formatted by DetailCsv._head) and
    its raw text."""

    @pytest.mark.parametrize("with_csv", [False, True])
    def test_sends_the_columns_then_the_counts(self, tmp_path, with_csv):
        corpus_path = _long_corpus(tmp_path / "c.jsonl")
        query = QueryFilter("covid")
        expected, expected_counts = fetch(corpus_path, query, 5000)
        expected = list(expected)
        records, counts = fetch(corpus_path, query, 5000)
        with DetailCsv(tmp_path / "d.csv") if with_csv else contextlib.nullcontext() as detail:
            batches = scoring._batches(records, detail)
            pipe = io.BytesIO()
            cli._send_rest(batches, counts, pipe)
        messages = _pipe_messages(pipe.getvalue())

        batches = messages[:-1]
        assert all(type(batch) is list for batch in batches)
        assert [len(batch) for batch in batches[:-1]] == [scoring._BATCH] * (len(batches) - 1)
        assert 0 < len(batches[-1]) <= scoring._BATCH
        rows = [row for batch in batches for row in batch]
        if with_csv:
            assert all(type(head) is type(text) is str for head, text in rows)
            assert rows == [
                (detail._head(stamp, user, text), text)
                for _, stamp, user, text, _ in expected
            ]
        else:
            assert rows == [text for _, _, _, text, _ in expected]
            assert all(type(text) is str for text in rows)
        assert counts == expected_counts
        assert messages[-1] == (counts.valid, counts.skipped, counts.json_array)
        assert counts.valid and counts.skipped and not counts.json_array

    def test_failed_read_sends_the_rows_before_it(self, tmp_path, monkeypatch):
        """The child sends exactly the whole lists that the read in one
        process yields before the failure, then the failure's message."""
        corpus_path = _long_corpus(tmp_path / "c.jsonl")
        real_blocks = corpus._line_blocks

        def failing_blocks(handle):
            for count, lines in enumerate(real_blocks(handle)):
                if count == 3:
                    raise OSError(5, "Input/output error")
                yield lines

        monkeypatch.setattr(corpus, "_line_blocks", failing_blocks)
        query = QueryFilter("covid")
        expected, read = [], []
        with pytest.raises(FileUnreadable) as failure:
            for record in fetch(corpus_path, query, 5000)[0]:
                read.append(record[3])
                if len(read) == scoring._BATCH:
                    expected.append(read)
                    read = []
        # the read failed part-way through a list, which is not sent
        assert expected and read
        records, counts = fetch(corpus_path, query, 5000)
        pipe = io.BytesIO()
        cli._send_rest(scoring._batches(records, None), counts, pipe)

        assert _pipe_messages(pipe.getvalue()) == [*expected, str(failure.value)]


class TestMarkerWords:
    """Scoring ends each text's tokens with a "\\0" marker token, and a
    text's own NUL is read as "\\x01". Wordlist entries of those two
    characters are words like any other: no text token can equal them, so
    they change no score, and spell correction still answers as difflib
    over every word does."""

    @pytest.mark.parametrize("threshold", [None, 0.0, 0.85])
    def test_marker_entries_score_as_the_oracle(self, tmp_path, threshold):
        lex = write_lexicon_dir(tmp_path, ["\0", "\x01", "good"], ["bad"], ["not"])
        texts = ["covid not \0 good", "covid a\0b bad \x01", "covid \x01not\0 bad",
                 "covid nott baad goood not", "not", "\0", "covid good \0"]
        raw = b"".join(
            json.dumps({"id": f"t{i}", "created_at": "2021-01-01T10:00:00Z",
                        "username": "u", "text": text}).encode() + b"\n"
            for i, text in enumerate(texts)
        )
        corpus, out_csv = tmp_path / "c.jsonl", tmp_path / "d.csv"
        corpus.write_bytes(raw)
        args = classify_args(corpus=corpus, lexicon_dir=lex)
        if threshold is not None:
            args.append(f"--spell-correct={threshold}")
        code, out, _, _, details = oracle_classify(
            raw, lex, "covid", spell_threshold=threshold
        )
        assert code == EXIT_OK and "positive words: 0" not in out
        # the summary alone is counted from the tokens' sides, the CSV's
        # rows from the hit loop
        assert _cli_run(args)[:2] == (code, out)
        assert _cli_run(args + ["--out-csv", str(out_csv)])[:2] == (code, out)
        assert out_csv.read_bytes() == details
        if threshold is not None:
            lexicon = load_lexicon(*(lex / f"{name}.txt"
                                     for name in ("positive", "negative", "negators")))
            known = set().union(*oracle_read_lexicon(lex))
            assert {"\0", "\x01"} <= known
            for token in ["nott", "baad", "goood", "covid", "a", "\0", "\x01", "\0b"]:
                assert suggest_correction(token, lexicon, threshold) == oracle_correct(
                    token, known, threshold
                )


NO_SIGNAL_SUMMARY = """\
Sentiment summary for "covid"
  tweets scored:  0
  positive words: 0
  negative words: 0
  positivity:     0.0%
  negativity:     0.0%
  no sentiment words found
"""
CSV_HEADER = b"date,time,username,tweet,positive_words,negative_words\r\n"
COVID_LINE = json.dumps({"id": "a", "created_at": "2021-01-01T00:00:00Z",
                         "username": "u", "text": "covid day"})


class TestStreaming:
    def test_missing_corpus_leaves_csv_untouched(self, tmp_path, capsys):
        out_csv = tmp_path / "d.csv"
        out_csv.write_bytes(b"earlier run\r\n")
        args = classify_args(corpus=tmp_path / "absent.jsonl", out_csv=out_csv)
        assert main(args) == EXIT_UNREADABLE
        assert out_csv.read_bytes() == b"earlier run\r\n"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "content, skipped",
        [("", 0), ("broken\n{}\n", 2)],
        ids=["empty", "all-malformed"],
    )
    def test_no_valid_records(self, tmp_path, capsys, content, skipped):
        corpus, out_csv = tmp_path / "c.jsonl", tmp_path / "d.csv"
        corpus.write_text(content, encoding="utf-8")
        assert main(classify_args(corpus=corpus, out_csv=out_csv)) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == NO_SIGNAL_SUMMARY
        assert captured.err.splitlines() == [
            f"note: corpus {corpus} has no valid records "
            f"({skipped} malformed lines skipped)",
            f"note: wrote 0 detail rows to {out_csv}",
        ]
        assert out_csv.read_bytes() == CSV_HEADER

    def test_skip_note_comes_before_csv_note(self, tmp_path, capsys):
        corpus, out_csv = tmp_path / "c.jsonl", tmp_path / "d.csv"
        corpus.write_text(COVID_LINE + "\nbroken\n", encoding="utf-8")
        assert main(classify_args(corpus=corpus, out_csv=out_csv)) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "note: skipped 1 malformed corpus lines",
            f"note: wrote 1 detail rows to {out_csv}",
        ]

    def test_missing_csv_directory_fails_before_the_read(self, tmp_path, capsys):
        corpus, out_csv = tmp_path / "c.jsonl", tmp_path / "absent" / "d.csv"
        corpus.write_text(COVID_LINE + "\nbroken\n", encoding="utf-8")
        assert main(classify_args(corpus=corpus, out_csv=out_csv)) == EXIT_UNWRITABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        # the malformed line is never reached, so no skip note
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: cannot write {out_csv}: ")


ARRAY_NOTE = "  it looks like one JSON array; one JSON object per line is expected"


class TestJsonArrayNote:
    @pytest.mark.parametrize(
        "raw, skipped, array",
        [
            (b"[" + COVID_LINE.encode() + b", " + COVID_LINE.encode() + b"]\n", 1, True),
            (b"\n  \t\n  [1]\n{}\n", 2, True),
            (b"\xef\xbb\xbf[\n1,\n]\n", 3, True),
            (b"broken\n[1]\n", 2, False),
            (b"", 0, False),
        ],
        ids=["one-line-array", "after-blank-lines", "bom-and-array-lines",
             "array-line-second", "empty"],
    )
    def test_note_says_when_the_first_line_opens_an_array(
        self, tmp_path, capsys, raw, skipped, array
    ):
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(raw)
        assert main(classify_args(corpus=corpus)) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == NO_SIGNAL_SUMMARY
        assert captured.err.splitlines() == [
            f"note: corpus {corpus} has no valid records "
            f"({skipped} malformed lines skipped)",
            *[ARRAY_NOTE] * array,
        ]

    def test_no_note_when_a_record_is_valid(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("[1]\n" + COVID_LINE + "\n", encoding="utf-8")
        assert main(classify_args(corpus=corpus)) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "note: skipped 1 malformed corpus lines"
        ]

    # The bound is stated before any run: a 64 MB line held whole would
    # take at least 64 MB, and the run without it about 17 MB.
    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="needs /proc for VmHWM"
    )
    def test_one_line_array_memory_is_bounded(self, tmp_path):
        corpus = tmp_path / "array.jsonl"
        records = ", ".join([COVID_LINE] * 1000).encode()
        with open(corpus, "wb") as handle:
            handle.write(b"[")
            while handle.tell() < 64 * 2**20:
                handle.write(records + b", ")
            handle.write(COVID_LINE.encode() + b"]\n")
        probe = (
            "import sys\n"
            "from tweetlex.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "status = open('/proc/self/status').read().split()\n"
            "print(code, status[status.index('VmHWM:') + 1])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, *classify_args(corpus=corpus)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        code, peak_kib = map(int, proc.stdout.splitlines()[-1].split())
        assert code == EXIT_OK
        assert proc.stderr.splitlines()[-1] == ARRAY_NOTE
        assert peak_kib < 40 * 1024, peak_kib


def _traced_peak(args) -> int:
    tracemalloc.start()
    try:
        assert main(args) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_flat_in_matches(tmp_path, capsys):
    """No list of tweets or scores: 10x the matches costs no more memory."""
    peaks = []
    for matches in (1_000, 10_000):
        corpus = tmp_path / f"c{matches}.jsonl"
        with open(corpus, "w", encoding="utf-8") as handle:
            for i in range(matches):
                record = {
                    "id": f"t{i}", "created_at": f"2021-03-01T10:{i % 60:02d}:00Z",
                    "username": f"user{i}", "lat": 51.5, "lon": -0.1,
                    "text": f"covid update {i}: not bad, good news and sad news "
                            f"from @desk{i} http://x.co/{i} #covid",
                }
                handle.write(json.dumps(record) + "\n")
        args = classify_args(corpus=corpus, limit=matches, out_csv=tmp_path / "d.csv")
        peaks.append(_traced_peak(args))
        assert f"tweets scored:  {matches}" in capsys.readouterr().out
    assert peaks[1] - peaks[0] < 1_000_000, peaks


def _run_cli(args, cwd, stdout=subprocess.PIPE, closed=None):
    """Run ``python -m tweetlex.cli`` from this checkout, the fixture on
    stdin; closed, 1 or 2, names a descriptor it starts without."""
    pythonpath = [str(SRC_DIR)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    command = [sys.executable, "-m", "tweetlex.cli", *args]
    if closed is not None:
        command = ["sh", "-c", f'exec "$@" {closed}>&-', "sh", *command]
    return subprocess.run(
        command,
        input=CORPUS_50.read_bytes(),
        stdout=stdout,
        stderr=subprocess.PIPE,
        cwd=cwd,
        env=env,
        timeout=60,
    )


def _unusable_lexicon_dir(tmp_path):
    return write_lexicon_dir(tmp_path, [";empty"], [";empty"], ["not"])


def _spaced_negators(tmp_path):
    path = tmp_path / "negators.txt"
    path.write_text("not\nno way\n", encoding="utf-8")
    return path


def _invalid_utf8_list(tmp_path):
    path = tmp_path / "bad-positive.txt"
    path.write_bytes(b"good\n\xff\n")
    return path


@pytest.mark.parametrize(
    "code, extra",
    [
        (EXIT_OK, {"corpus": "/dev/stdin"}),
        (EXIT_USAGE, {"limit": 0}),
        (EXIT_USAGE, {"bbox": "nan,-180,90,180"}),
        (EXIT_UNREADABLE, {"corpus": "absent.jsonl"}),
        (EXIT_UNREADABLE, {"positive_words": _invalid_utf8_list}),
        (EXIT_BAD_LEXICON, {"lexicon_dir": _unusable_lexicon_dir}),
        (EXIT_UNWRITABLE, {"out_csv": "."}),
    ],
    ids=["ok-from-pipe", "usage", "nan-bbox", "unreadable", "invalid-utf8-wordlist",
         "bad-lexicon", "unwritable"],
)
def test_process_exit_code(tmp_path, code, extra):
    extra = {k: v(tmp_path) if callable(v) else v for k, v in extra.items()}
    proc = _run_cli(classify_args(**extra), tmp_path)
    assert proc.returncode == code, proc.stderr
    assert b"Traceback" not in proc.stderr
    if code == EXIT_OK:
        assert b"tweets scored:  20" in proc.stdout
        return
    assert proc.stdout == b""
    errors = [line for line in proc.stderr.splitlines() if line.startswith(b"error: ")]
    assert len(errors) == 1, proc.stderr
    if "positive_words" in extra:
        # one bad byte still rejects the whole wordlist, unlike a corpus line
        assert str(extra["positive_words"]).encode() in errors[0]


@pytest.mark.parametrize(
    "code, extra",
    [
        (EXIT_OK, {"corpus": "/dev/stdin", "out_csv": "d.csv"}),
        (EXIT_OK, {"corpus": "/dev/stdin", "negators": _spaced_negators}),
        (EXIT_USAGE, {"limit": 0}),
        (EXIT_UNREADABLE, {"corpus": "absent.jsonl"}),
    ],
    ids=["note", "warning", "usage", "unreadable"],
)
def test_closed_stderr_drops_diagnostics(tmp_path, code, extra):
    """With fd 2 closed, sys.stderr is None, where print would write to
    stdout: each note, warning and error is dropped instead."""
    extra = {k: v(tmp_path) if callable(v) else v for k, v in extra.items()}
    args = classify_args(**extra)
    with_stderr = _run_cli(args, tmp_path)
    proc = _run_cli(args, tmp_path, closed=2)
    assert with_stderr.returncode == proc.returncode == code
    assert with_stderr.stderr and b"Traceback" not in with_stderr.stderr
    assert (proc.stdout, proc.stderr) == (with_stderr.stdout, b"")


@pytest.mark.parametrize("command", ["classify", "lexicon-check"])
def test_closed_stdout_is_unwritable(tmp_path, command):
    """As in ``tweetlex classify ... | true``: the reader of stdout is gone."""
    args = classify_args() if command == "classify" else [command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(args, tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_UNWRITABLE, proc.stderr
    [line] = proc.stderr.decode("utf-8").splitlines()
    assert line.startswith("error: cannot write to stdout: ")


def test_every_error_type_has_an_exit_code():
    assert set(TweetlexError.__subclasses__()) == set(_EXIT_CODES)


class TestLexiconCheck:
    def test_bundled_counts(self, capsys):
        assert main(["lexicon-check"]) == 0
        out = capsys.readouterr().out
        total = int(out.rsplit(":", 1)[1])
        assert 6500 <= total <= 7500
        assert "conflicts removed: 0" in out
        assert "duplicate entries: 0" in out
        assert "dropped entries:   0" in out

    def test_duplicates_and_dropped_printed(self, tmp_path, capsys):
        positive = ["good", "Good", "very good"]
        lex = write_lexicon_dir(tmp_path, positive, ["bad"], ["not"])
        assert main(["lexicon-check", "--lexicon-dir", str(lex)]) == 0
        out = capsys.readouterr().out
        assert "duplicate entries: 1" in out
        assert "dropped entries:   1" in out

    def test_empty_dir_fails(self, tmp_path, capsys):
        assert main(["lexicon-check", "--lexicon-dir", str(tmp_path)]) == EXIT_UNREADABLE

    def test_conflict_count_printed(self, tmp_path, capsys):
        lex = write_lexicon_dir(tmp_path, ["odd", "good"], ["odd", "bad"], ["not"])
        assert main(["lexicon-check", "--lexicon-dir", str(lex)]) == 0
        assert "conflicts removed: 1" in capsys.readouterr().out

    def test_unusable_lexicon_exit_code(self, tmp_path, capsys):
        lex = write_lexicon_dir(tmp_path, [";empty"], [";empty"], ["not"])
        code = main(["lexicon-check", "--lexicon-dir", str(lex)])
        assert code == EXIT_BAD_LEXICON
        err = capsys.readouterr().err.splitlines()
        assert err[:2] == [
            f"warning: wordlist {lex / name} contains no usable tokens"
            for name in ("positive.txt", "negative.txt")
        ]
        assert err[2].startswith("error: no sentiment words left")

    def test_per_file_override(self, tmp_path, capsys):
        lex = write_lexicon_dir(tmp_path, ["good"], ["bad"], ["not"])
        alt = tmp_path / "alt.txt"
        alt.write_text("fine\nnice\n", encoding="utf-8")
        code = main(
            ["lexicon-check", "--lexicon-dir", str(lex), "--positive-words", str(alt)]
        )
        assert code == 0
        assert "positive words:    2" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["classify", "lexicon-check"])
def test_wordlist_warnings_are_notes(tmp_path, command):
    lex = write_lexicon_dir(tmp_path, [";only a comment"], ["bad"], ["not", "no way"])
    if command == "classify":
        args = classify_args(lexicon_dir=lex)
    else:
        args = ["lexicon-check", "--lexicon-dir", str(lex)]
    proc = _run_cli(args, tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    err = proc.stderr.decode("utf-8")
    assert err.splitlines() == [
        f"warning: wordlist {lex / 'positive.txt'} contains no usable tokens",
        "warning: 1 negator entries contain whitespace and were ignored",
    ]
    assert "lexicon.py" not in err
    assert "warnings.warn(" not in err
