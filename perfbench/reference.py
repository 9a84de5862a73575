"""Expected outputs of a benchmark run, and the checks that compare them.

The reference comes from the independent oracle in ``tests/oracle.py``
(character-scanning normalizer, index-loop scorer, raw wordlist reader)
and, for ``--spell-correct``, from ``difflib.get_close_matches`` over the
sorted lexicon. It never imports tweetlex.
"""

from __future__ import annotations

import csv
import difflib
import itertools
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from oracle import oracle_normalize, oracle_read_wordlist, oracle_score

import corpus_gen

CLI_DEFAULT_LIMIT = 500
SPELL_THRESHOLD = 0.85
CSV_HEADER = ["date", "time", "username", "tweet", "positive_words", "negative_words"]


@dataclass
class Expected:
    summary: str  # the CLI's stdout, trailing newline included
    rows: list[list[str]]  # CSV rows after the header
    properties: dict


def _utc(value: str) -> datetime:
    return datetime.strptime(value, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)


def _encode(hits) -> str:
    return "|".join(token + ("!" if negated else "") for token, negated in hits)


class _Normalizer:
    """oracle_normalize, memoized per whitespace-separated piece.

    No oracle rule looks across whitespace (URLs and mentions end at it,
    the apostrophe rule needs word characters on both sides), so
    normalizing piece by piece and joining equals normalizing the whole
    text; the tests check this on a generated corpus.
    """

    def __init__(self):
        self._memo: dict[str, str] = {}

    def __call__(self, text: str) -> list[str]:
        tokens: list[str] = []
        for piece in text.split():
            norm = self._memo.get(piece)
            if norm is None:
                norm = self._memo[piece] = oracle_normalize(piece)
            tokens.extend(norm.split())
        return tokens


def expected_outputs(
    w: corpus_gen.Workload, corpus: corpus_gen.Corpus, data_dir: Path
) -> Expected:
    positive = oracle_read_wordlist(data_dir / "positive.txt")
    negative = oracle_read_wordlist(data_dir / "negative.txt")
    negators = oracle_read_wordlist(data_dir / "negators.txt")
    positive, negative = positive - negative, negative - positive
    known = positive | negative | negators
    pool = sorted(known)
    corrections: dict[str, str] = {}

    def corrected(token: str) -> str:
        if token in known:
            return token
        if token not in corrections:
            hits = difflib.get_close_matches(token, pool, n=1, cutoff=SPELL_THRESHOLD)
            corrections[token] = hits[0] if hits else token
        return corrections[token]

    keyword = corpus_gen.KEYWORD.lower()
    since, until = map(_utc, w.window) if w.window else (None, None)
    with_keyword = [r for r in corpus.records if keyword in r.text.lower()]
    matched = [
        r for r in with_keyword
        if (since is None or r.created_at >= since)
        and (until is None or r.created_at < until)
    ]
    scored = matched[: w.limit or CLI_DEFAULT_LIMIT]

    normalize = _Normalizer()
    rows = []
    total_pos = total_neg = tokens_seen = flips = 0
    oov = []
    for record in scored:
        tokens = normalize(record.text)
        tokens_seen += len(tokens)
        oov.extend(t for t in tokens if t not in known)
        if w.spell:
            tokens = [corrected(t) for t in tokens]
        pos_hits, neg_hits = oracle_score(tokens, positive, negative, negators)
        total_pos += len(pos_hits)
        total_neg += len(neg_hits)
        flips += sum(negated for _, negated in pos_hits + neg_hits)
        rows.append([
            record.created_at.strftime("%Y-%m-%d"),
            record.created_at.strftime("%H:%M:%S"),
            record.username,
            record.text,
            _encode(pos_hits),
            _encode(neg_hits),
        ])

    found = total_pos + total_neg
    lines = [
        f'Sentiment summary for "{corpus_gen.KEYWORD}"',
        f"  tweets scored:  {len(scored)}",
        f"  positive words: {total_pos}",
        f"  negative words: {total_neg}",
        f"  positivity:     {100.0 * total_pos / found if found else 0.0:.1f}%",
        f"  negativity:     {100.0 * total_neg / found if found else 0.0:.1f}%",
    ]
    if not found:
        lines.append("  no sentiment words found")
    properties = {
        "lines": len(corpus.lines),
        "valid_records": len(corpus.records),
        "keyword_share": len(with_keyword) / len(corpus.records),
        "malformed_share": corpus.malformed / len(corpus.lines),
        "tweets_matched": len(matched),
        "tweets_scored": len(scored),
        "tokens": tokens_seen,
        "mean_tokens_per_tweet": tokens_seen / len(scored),
        "hits": found,
        "negation_flips": flips,
        "csv_rows": len(rows) if w.csv else 0,
        "oov_distinct_share": len(set(oov)) / len(oov) if oov else 0.0,
    }
    return Expected("\n".join(lines) + "\n", rows, properties)


def write_expected_csv(expected: Expected, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        writer.writerows(expected.rows)


def check_summary(actual: str, expected: str) -> list[str]:
    """Differences between the CLI's stdout and the reference summary."""
    if actual == expected:
        return []
    return [f"summary differs: got {actual!r}, expected {expected!r}"]


def check_csv(actual_path: Path, expected_path: Path, limit: int = 5) -> list[str]:
    """Cell-by-cell differences between two CSV files, streamed."""
    problems: list[str] = []
    with open(actual_path, encoding="utf-8", newline="") as got, open(
        expected_path, encoding="utf-8", newline=""
    ) as want:
        pairs = itertools.zip_longest(csv.reader(got), csv.reader(want))
        for rowno, (row, ref) in enumerate(pairs):
            if row == ref:
                continue
            if row is None or ref is None:
                problems.append(f"csv row {rowno}: row count differs")
                break
            for col, (cell, ref_cell) in enumerate(itertools.zip_longest(row, ref)):
                if cell != ref_cell:
                    problems.append(
                        f"csv row {rowno} column {col}: got {cell!r}, expected {ref_cell!r}"
                    )
            if len(problems) >= limit:
                break
    return problems
