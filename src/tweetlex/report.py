"""Human-readable summary rendering and per-tweet CSV detail export."""

from __future__ import annotations

import io
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


def _quoted(text: str) -> str:
    """text as one quoted CSV field, its inner quotes doubled."""
    return '"' + text.replace('"', '""') + '"'


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

    A row has two entries: write, from a record's fields, and _write_row,
    from a head that _head made of its date, time, username and text and
    its hits. A hit field needs quoting only when a hit token can hold one
    of those characters, which a tokenizer token never does; _quotable
    tells whether some lexicon word, which spell correction can make a
    hit, does. The CLI's second process writes its rows to a _buffer, and
    the first passes them on with _write_rows.
    """

    def __init__(self, path):
        self.path = path
        try:
            self._handle = open(
                path, "w", encoding="utf-8", errors="backslashreplace", newline=""
            )
            self._handle.write(",".join(CSV_COLUMNS) + "\r\n")
        except OSError as exc:
            raise self._unwritable(exc) from exc

    @classmethod
    def _buffer(cls):
        """A DetailCsv with no path and no header whose rows go to an
        io.StringIO, its _handle, which never needs closing."""
        detail = cls.__new__(cls)
        detail.path, detail._handle = None, io.StringIO()
        return detail

    def write(self, created_at, username, text, positive, negative) -> None:
        """Write one row: UTC date and time, username, raw text, and the
        encoded positive and negative hits, each a list of (token,
        negated) pairs. created_at must be timezone-aware; a naive one
        raises ValueError rather than being read as local time."""
        self._write_row(self._head(created_at, username, text), positive, negative, True)

    @staticmethod
    def _head(created_at, username, text) -> str:
        """The row's UTC date, time, username and text, each ended by a comma."""
        if created_at.tzinfo is not timezone.utc:
            if created_at.utcoffset() is None:
                raise ValueError("created_at must be timezone-aware")
            created_at = created_at.astimezone(timezone.utc)
        if _needs_quotes(username):
            username = _quoted(username)
        if _needs_quotes(text):
            text = _quoted(text)
        # isoformat pads the year to four digits, where %Y may not, and
        # neither the date nor the time ever needs quoting
        return (
            f"{created_at.date().isoformat()},"
            f"{created_at.time().isoformat('seconds')},{username},{text},"
        )

    @staticmethod
    def _quotable(words: Iterable[str]) -> bool:
        """Whether any of words holds a character that needs quoting."""
        return _needs_quotes("".join(words)) is not None

    def _write_row(self, head: str, positive, negative, quote_hits: bool) -> None:
        """Write one row from its head (see _head) and hits; the hit
        fields are tested for quoting only where quote_hits is true."""
        # one row is one write: a Python call per field would cost more
        # than the formatting does
        positive = encode_matches(positive) if positive else ""
        negative = encode_matches(negative) if negative else ""
        if quote_hits:
            if _needs_quotes(positive):
                positive = _quoted(positive)
            if _needs_quotes(negative):
                negative = _quoted(negative)
        try:
            self._handle.write(f"{head}{positive},{negative}\r\n")
        except OSError as exc:
            raise self._unwritable(exc) from exc

    def _write_rows(self, rows: str) -> None:
        """Write rows, whole rows as _write_row writes them."""
        try:
            self._handle.write(rows)
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
