#!/usr/bin/env python3
"""Recompute the golden files under tests/golden/ from the oracle.

The goldens are what tests/oracle.py's ``oracle_classify`` gives for a
"covid" run over the fixture corpus, and the pinned id sets that the
filter tests assert against are printed from its ``oracle_read_corpus``.
The script uses only the oracle and the stdlib (no tweetlex imports), so
the goldens stay an independent check on the real pipeline. Run from the
repo root:

    python scripts/regen_golden.py

``golden_files()`` returns the files' bytes without writing them, so a
test can check that tests/golden/ is what this script writes.
"""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracle import oracle_classify, oracle_read_corpus  # noqa: E402

DATA = ROOT / "src" / "tweetlex" / "data"
CORPUS = ROOT / "tests" / "data" / "tweets50.jsonl"
GOLDEN = ROOT / "tests" / "golden"

LONDON_BBOX = (51.3, -0.6, 51.7, 0.3)
WINDOW = ("2021-03-01T00:00:00Z", "2021-04-01T00:00:00Z")


def golden_files():
    """The bytes of each golden file, by file name."""
    code, summary, valid, skipped, details = oracle_classify(
        CORPUS.read_bytes(), DATA, "covid"
    )
    assert (code, valid, skipped) == (0, 50, 0), (code, valid, skipped)
    return {
        "summary_covid.txt": summary.encode("utf-8"),
        "details_covid.csv": details,
    }


def ids(keyword, **bounds):
    """The ids of the fixture records that the query keeps, in file order."""
    return [r[0] for r in oracle_read_corpus(CORPUS.read_bytes(), keyword, **bounds)[0]]


def main():
    files = golden_files()
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (GOLDEN / name).write_bytes(data)
    print(files["summary_covid.txt"].decode("utf-8"), end="")
    covid = ids("covid")
    print("covid ids:", covid)
    print("hospital in London bbox:", ids("hospital", bbox=LONDON_BBOX))
    since, until = WINDOW
    print("vaccine in March window:", ids("vaccine", since=since, until=until))

    schedule = oracle_classify(CORPUS.read_bytes(), DATA, "schedule")[1]
    assert schedule.endswith("no sentiment words found\n"), schedule
    print("schedule ids (all neutral):", ids("schedule"))
    assert not ids("horoscope")

    details = io.StringIO(files["details_covid.csv"].decode("utf-8"), newline="")
    print("per-tweet matches:")
    for tid, row in zip(covid, list(csv.reader(details))[1:]):
        print(f"  {tid}: +[{row[4]}] -[{row[5]}]")


if __name__ == "__main__":
    main()
