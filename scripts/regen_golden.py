#!/usr/bin/env python3
"""Recompute the golden files under tests/golden/ from the oracle.

Uses only tests/oracle.py and the stdlib (no tweetlex imports), so the
goldens stay an independent check on the real pipeline. Also prints the
pinned id sets the filter tests assert against. Run from the repo root:

    python scripts/regen_golden.py

``golden_files(covid_scored())`` returns the files' bytes without
writing them, so a test can check that tests/golden/ is what this script
writes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracle import (  # noqa: E402
    oracle_csv_bytes,
    oracle_encode,
    oracle_read_lexicon,
    oracle_score_text,
    oracle_summary,
)

DATA = ROOT / "src" / "tweetlex" / "data"
CORPUS = ROOT / "tests" / "data" / "tweets50.jsonl"
GOLDEN = ROOT / "tests" / "golden"

LONDON_BBOX = (51.3, -0.6, 51.7, 0.3)
WINDOW = ("2021-03-01T00:00:00Z", "2021-04-01T00:00:00Z")


def read_corpus_raw():
    records = []
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def keyword_match(record, keyword):
    return keyword.lower() in record["text"].lower()


def covid_scored():
    """Each fixture record holding "covid", with its oracle (pos, neg) hits."""
    positive, negative, negators = oracle_read_lexicon(DATA)
    records = read_corpus_raw()
    assert len(records) == 50, len(records)
    return [
        (r, oracle_score_text(r["text"], positive, negative, negators))
        for r in records
        if keyword_match(r, "covid")
    ]


def golden_files(scored):
    """The bytes of each golden file, by file name, from covid_scored()."""
    total_pos = sum(len(pos) for _, (pos, _) in scored)
    total_neg = sum(len(neg) for _, (_, neg) in scored)
    rows = [["date", "time", "username", "tweet", "positive_words", "negative_words"]]
    for record, (pos, neg) in scored:
        stamp = record["created_at"]
        rows.append([stamp[:10], stamp[11:19], record["username"], record["text"],
                     oracle_encode(pos), oracle_encode(neg)])
    summary = oracle_summary("covid", len(scored), total_pos, total_neg)
    return {
        "summary_covid.txt": summary.encode("utf-8"),
        "details_covid.csv": oracle_csv_bytes(rows),
    }


def main():
    scored = covid_scored()
    files = golden_files(scored)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (GOLDEN / name).write_bytes(data)
    print(files["summary_covid.txt"].decode("utf-8"), end="")
    print("covid ids:", [r["id"] for r, _ in scored])

    positive, negative, negators = oracle_read_lexicon(DATA)
    records = read_corpus_raw()

    hospital_bbox = [
        r["id"]
        for r in records
        if keyword_match(r, "hospital")
        and "lat" in r
        and LONDON_BBOX[0] <= r["lat"] <= LONDON_BBOX[2]
        and LONDON_BBOX[1] <= r["lon"] <= LONDON_BBOX[3]
    ]
    print("hospital in London bbox:", hospital_bbox)

    since, until = WINDOW
    vaccine_window = [
        r["id"]
        for r in records
        if keyword_match(r, "vaccine") and since <= r["created_at"] < until
    ]
    print("vaccine in March window:", vaccine_window)

    schedule = [r for r in records if keyword_match(r, "schedule")]
    for r in schedule:
        pos, neg = oracle_score_text(r["text"], positive, negative, negators)
        assert not pos and not neg, (r["id"], pos, neg)
    print("schedule ids (all neutral):", [r["id"] for r in schedule])

    assert not [r for r in records if keyword_match(r, "horoscope")]

    per_tweet = {
        r["id"]: (oracle_encode(pos), oracle_encode(neg)) for r, (pos, neg) in scored
    }
    print("per-tweet matches:")
    for tid, cells in per_tweet.items():
        print(f"  {tid}: +[{cells[0]}] -[{cells[1]}]")


if __name__ == "__main__":
    main()
