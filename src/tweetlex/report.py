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


def decode_matches(cell: str) -> tuple[Match, ...]:
    """Inverse of encode_matches.

    Safe because matched tokens come from normalized text and can never
    contain '|' or '!'.
    """
    if not cell:
        return ()
    matches = []
    for part in cell.split("|"):
        if part.endswith("!"):
            matches.append(Match(part[:-1], True))
        else:
            matches.append(Match(part, False))
    return tuple(matches)


def write_csv(rows: Iterable[tuple[Tweet, TweetScore]], path) -> int:
    """Write one detail row per (tweet, score) pair; returns the row count.

    Columns: date, time (both UTC), username, raw tweet text, and the
    encoded positive/negative matches. Quoting follows the usual CSV
    convention via the stdlib writer, so fields containing commas,
    quotes, or newlines round-trip through any generic CSV parser.
    Raises PathUnwritable when the file cannot be opened or written.
    """
    count = 0
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for tweet, score in rows:
                created = tweet.created_at.astimezone(timezone.utc)
                writer.writerow(
                    [
                        created.strftime("%Y-%m-%d"),
                        created.strftime("%H:%M:%S"),
                        tweet.username,
                        tweet.text,
                        encode_matches(score.matched_positive),
                        encode_matches(score.matched_negative),
                    ]
                )
                count += 1
    except OSError as exc:
        raise PathUnwritable(f"cannot write {path}: {exc}") from exc
    return count


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
