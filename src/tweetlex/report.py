"""Human-readable summary rendering and per-tweet CSV detail export."""

from __future__ import annotations

import re
from collections.abc import Iterable
from datetime import timezone

from .errors import PathUnwritable
from .scoring import AggregateResult

CSV_COLUMNS = ["date", "time", "username", "tweet", "positive_words", "negative_words"]

# The characters for which the stdlib writer's default dialect quotes a field.
_needs_quotes = re.compile('[\n\r",]').search


def encode_matches(matches: Iterable[tuple[str, bool]]) -> str:
    """Join match tokens with '|'; a '!' suffix marks a flipped hit."""
    return "|".join([token + "!" if negated else token for token, negated in matches])


def _field(text: str) -> str:
    """text as one CSV field: quoted, inner quotes doubled, when it holds
    a comma, quote, CR or LF; else as it is."""
    if _needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


class DetailCsv:
    """A per-tweet detail CSV, open for writing one row at a time.

    Opening the file writes the header; use it in a ``with`` block,
    which closes the file. A field holding a comma, quote, CR or LF is
    quoted, with its inner quotes doubled; every other field is written
    as it is, and each row ends in CRLF. The bytes are those of the
    stdlib ``csv.writer`` in its default dialect, so every field
    round-trips through any CSV parser. A lone surrogate, which a JSON
    ``\\ud800`` escape can put in a field, is written as that escape's
    six ASCII characters, so the file stays valid UTF-8. Any OSError
    from opening, writing or closing is raised as PathUnwritable.
    """

    def __init__(self, path):
        self.path = path
        try:
            self._handle = open(
                path, "w", encoding="utf-8", errors="backslashreplace", newline=""
            )
        except OSError as exc:
            raise self._unwritable(exc) from exc
        self._put(",".join(CSV_COLUMNS) + "\r\n")

    def write(self, created_at, username, text, positive, negative) -> None:
        """Write one row: UTC date and time, username, raw text, and the
        encoded positive and negative hits, each a list of (token,
        negated) pairs. created_at must be timezone-aware; a naive one
        raises ValueError rather than being read as local time."""
        if created_at.tzinfo is not timezone.utc:
            if created_at.utcoffset() is None:
                raise ValueError("created_at must be timezone-aware")
            created_at = created_at.astimezone(timezone.utc)
        # "YYYY-MM-DD,HH:MM:SS": isoformat pads the year to four digits,
        # where %Y may not, and neither field ever needs quoting
        self._put(
            f"{created_at.isoformat(',', 'seconds')[:19]},{_field(username)},"
            f"{_field(text)},{_field(encode_matches(positive))},"
            f"{_field(encode_matches(negative))}\r\n"
        )

    def _put(self, line: str) -> None:
        try:
            self._handle.write(line)
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
