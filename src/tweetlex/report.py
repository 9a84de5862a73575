"""Human-readable summary rendering and per-tweet CSV detail export."""

from __future__ import annotations

import csv
from datetime import timezone
from typing import Iterable

from .aggregate import AggregateResult
from .corpus import Tweet
from .errors import PathUnwritable
from .scoring import Match, TweetScore

CSV_COLUMNS = ["date", "time", "username", "tweet", "positive_words", "negative_words"]


def encode_matches(matches: Iterable[Match]) -> str:
    """Join match tokens with '|'; a '!' suffix marks a flipped hit."""
    return "|".join(m.token + ("!" if m.negated else "") for m in matches)


class DetailCsv:
    """A per-tweet detail CSV, open for writing one row at a time.

    Opening the file writes the header; use it in a ``with`` block,
    which closes the file. Fields go through the stdlib CSV writer, so
    ones holding commas, quotes or newlines round-trip through any CSV
    parser. A lone surrogate, which a JSON ``\\ud800`` escape can put in
    a field, is written as that escape's six ASCII characters, so the
    file stays valid UTF-8. Any OSError from opening, writing or closing
    is raised as PathUnwritable.
    """

    def __init__(self, path):
        self.path = path
        try:
            self._handle = open(
                path, "w", encoding="utf-8", errors="backslashreplace", newline=""
            )
        except OSError as exc:
            raise self._unwritable(exc) from exc
        self._writerow = csv.writer(self._handle).writerow
        self._put(CSV_COLUMNS)

    def write(self, tweet: Tweet, score: TweetScore) -> None:
        """Write one row: UTC date and time, username, raw text, and the
        encoded positive and negative matches."""
        # isoformat pads the year to four digits, where %Y may not
        stamp = tweet.created_at.astimezone(timezone.utc).isoformat(" ", "seconds")
        self._put(
            [
                stamp[:10],
                stamp[11:19],
                tweet.username,
                tweet.text,
                encode_matches(score.matched_positive),
                encode_matches(score.matched_negative),
            ]
        )

    def _put(self, row) -> None:
        try:
            self._writerow(row)
        except OSError as exc:
            raise self._unwritable(exc) from exc

    def _unwritable(self, exc: OSError) -> PathUnwritable:
        return PathUnwritable(f"cannot write {self.path}: {exc}")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        try:
            self._handle.close()
        except OSError as exc:
            raise self._unwritable(exc) from exc


def render_summary(result: AggregateResult) -> str:
    """Render the short classification report shown to the user."""
    lines = [
        f'Sentiment summary for "{result.topic}"',
        f"  tweets scored:  {result.tweets_scored}",
        f"  positive words: {result.total_positive}",
        f"  negative words: {result.total_negative}",
        f"  positivity:     {result.positivity_pct:.1f}%",
        f"  negativity:     {result.negativity_pct:.1f}%",
    ]
    if result.no_signal:
        lines.append("  no sentiment words found")
    return "\n".join(lines)
