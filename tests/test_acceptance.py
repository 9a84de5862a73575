"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with `pytest -s`). Golden
values were computed ahead of time by the independent oracle
(scripts/regen_golden.py); the filter criteria also recompute their
expected id sets in-test with a raw linear scan.
"""

import csv
import functools
import json
import random
import time
from datetime import datetime, timezone

import pytest

from conftest import CORPUS_50, GOLDEN_DIR, make_lexicon
from oracle import oracle_score
from tweetlex import (
    DetailCsv,
    QueryFilter,
    fetch,
    load_bundled_lexicon,
    score_text,
)
from tweetlex.aggregate import _result
from tweetlex.cli import main

COVID_IDS = [
    "t001", "t004", "t007", "t009", "t013", "t016", "t017", "t021", "t025",
    "t028", "t030", "t033", "t034", "t039", "t040", "t041", "t043", "t046",
    "t048", "t050",
]
HOSPITAL_LONDON_IDS = ["t002", "t012", "t026", "t031", "t036", "t047"]
VACCINE_MARCH_IDS = ["t024", "t027", "t029"]
LONDON_BBOX = (51.3, -0.6, 51.7, 0.3)
MARCH_WINDOW = ("2021-03-01T00:00:00Z", "2021-04-01T00:00:00Z")


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
            return result

        return wrapper

    return decorate


@criterion("1 formula fidelity")
def test_formula_fidelity():
    rng = random.Random(1405)
    start = time.perf_counter()
    for _ in range(1000):
        p, n = rng.randint(0, 100), rng.randint(0, 100)
        if p + n == 0:
            p = 1
        result = _result("t", 1, p, n)
        assert result.positivity_pct == pytest.approx(100.0 * p / (p + n), abs=1e-9)
        assert result.negativity_pct == pytest.approx(100.0 * n / (p + n), abs=1e-9)
        assert result.positivity_pct + result.negativity_pct == pytest.approx(
            100.0, abs=1e-9
        )
    assert time.perf_counter() - start < 1.0


@criterion("2 negation correctness")
def test_negation_correctness():
    lexicon = make_lexicon({"happy"}, {"sad"}, {"not"})
    positive, negative = score_text("I am not sad", lexicon)
    assert len(negative) == 0
    assert len(positive) == 1

    expectations = {
        ("not", "sad"): (1, 0, True),
        ("am", "sad"): (0, 1, False),
        ("not", "happy"): (0, 1, True),
        ("am", "happy"): (1, 0, False),
    }
    for (middle, word), (pos, neg, negated) in expectations.items():
        positive, negative = score_text(f"i am {middle} {word}", lexicon)
        assert (len(positive), len(negative)) == (pos, neg), (middle, word)
        assert positive + negative == [(word, negated)]


@criterion("3 oracle equivalence")
def test_oracle_equivalence():
    positive = frozenset({"good", "great", "happy", "love", "win"})
    negative = frozenset({"bad", "sad", "awful", "hate", "lose"})
    negators = frozenset({"not", "never"})
    lexicon = make_lexicon(positive, negative, negators)
    vocabulary = sorted(positive | negative | negators) + [
        "the", "a", "is", "i", "it", "so", "really", "very", "today",
    ]
    rng = random.Random(20210315)
    start = time.perf_counter()
    for i in range(10_000):
        tokens = rng.choices(vocabulary, k=rng.randint(0, 20))
        got = score_text(" ".join(tokens), lexicon)
        assert got == oracle_score(tokens, positive, negative, negators), i
    assert time.perf_counter() - start < 5.0


@criterion("4 lexicon scale")
def test_lexicon_scale():
    lexicon = load_bundled_lexicon()
    total = len(lexicon.positive_words) + len(lexicon.negative_words)
    assert 6500 <= total <= 7500
    for token in lexicon.positive_words | lexicon.negative_words:
        assert not any(ch.isspace() for ch in token)


@criterion("5 end-to-end golden run")
def test_golden_run(tmp_path, capsys):
    out_csv = tmp_path / "details.csv"
    start = time.perf_counter()
    code = main(
        ["classify", "--query", "covid", "--corpus", str(CORPUS_50),
         "--out-csv", str(out_csv)]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    stdout = capsys.readouterr().out
    golden_summary = (GOLDEN_DIR / "summary_covid.txt").read_text(encoding="utf-8")
    assert stdout == golden_summary
    assert out_csv.read_bytes() == (GOLDEN_DIR / "details_covid.csv").read_bytes()
    assert elapsed < 1.0


@criterion("6 csv round trip")
def test_csv_round_trip(tmp_path):
    texts = [
        "plain words",
        "commas, inside, everywhere",
        'she said "unreal" twice',
        "line one\nline two",
        'mix: comma, "quote", and\nnewline',
        "pipe|and!bang",
        "trailing space ",
    ]
    stamp = datetime(2022, 3, 1, 10, 0, tzinfo=timezone.utc)
    lexicon = load_bundled_lexicon()
    out = tmp_path / "round.csv"
    with DetailCsv(out) as detail:
        for i, text in enumerate(texts):
            detail.write(stamp, f"u{i}", text, *score_text(text, lexicon))
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == len(texts) + 1
    for i, (text, row) in enumerate(zip(texts, rows[1:])):
        assert row[2] == f"u{i}"
        assert row[3] == text


@criterion("7 degenerate inputs")
def test_degenerate_inputs(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    runs = [
        ["classify", "--query", "covid", "--corpus", str(empty)],
        ["classify", "--query", "horoscope", "--corpus", str(CORPUS_50)],
        ["classify", "--query", "schedule", "--corpus", str(CORPUS_50)],
    ]
    for args in runs:
        assert main(args) == 0, args
        out = capsys.readouterr().out
        assert "no sentiment words found" in out, args
        assert "positivity:     0.0%" in out, args


def _raw_records():
    records = []
    for line in CORPUS_50.read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


@criterion("8 filter correctness")
def test_filter_correctness():
    since, until = MARCH_WINDOW
    expected_window = [
        r["id"]
        for r in _raw_records()
        if "vaccine" in r["text"].lower() and since <= r["created_at"] < until
    ]
    from tweetlex import parse_utc

    window_query = QueryFilter(
        keyword="vaccine", since=parse_utc(since), until=parse_utc(until)
    )
    window = list(fetch(CORPUS_50, window_query)[0])
    got_window = [t[0] for t in window]
    assert got_window == expected_window == VACCINE_MARCH_IDS

    min_lat, min_lon, max_lat, max_lon = LONDON_BBOX
    expected_bbox = [
        r["id"]
        for r in _raw_records()
        if "hospital" in r["text"].lower()
        and "lat" in r
        and min_lat <= r["lat"] <= max_lat
        and min_lon <= r["lon"] <= max_lon
    ]
    bbox_query = QueryFilter(keyword="hospital", bbox=LONDON_BBOX)
    bbox = list(fetch(CORPUS_50, bbox_query)[0])
    got_bbox = [t[0] for t in bbox]
    assert got_bbox == expected_bbox == HOSPITAL_LONDON_IDS

    covid = list(fetch(CORPUS_50, QueryFilter("covid"))[0])
    assert [t[0] for t in covid] == COVID_IDS

    # fetch yields (id, created_at, username, text, location)
    assert all(t[1].tzinfo == timezone.utc for t in window + bbox + covid)
