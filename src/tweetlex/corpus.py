"""Query filters, and reading matching tweets from a corpus.

A corpus is a JSON-lines file standing in for a live platform query:
one UTF-8 object per line with fields ``id``, ``created_at`` (ISO-8601,
naive values taken as UTC), ``username``, ``text``, and optional
``lat``/``lon``. Lines end at a newline byte only (CRLF is accepted),
and a leading byte-order mark is ignored. JSON whitespace (space, tab,
CR) may surround the object, and a line of Unicode whitespace alone is
blank. Each line is decoded on its own, so a malformed line, invalid
UTF-8 included, is skipped and counted rather than aborting the read.
The read is a stream: every line is checked, and a line the query keeps
is yielded as one plain tuple of its checked fields.
"""

from __future__ import annotations

import codecs
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterator

from .errors import FileUnreadable

DEFAULT_LIMIT = 500
# The C scanner behind json.loads, without the wrappers' whitespace and
# trailing-data checks, which _read makes itself. It raises StopIteration
# where no JSON value starts, and ValueError for other malformed JSON.
_scan_once = json.JSONDecoder().scan_once


def parse_utc(value: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime.

    Takes what ``datetime.fromisoformat`` takes, plus a trailing ``z``
    or ``Z`` read as ``+00:00`` where fromisoformat rejects it: in lower
    case, or after a date alone (``2021-01-01Z``). Naive values are taken
    as UTC.
    """
    try:
        stamp = datetime.fromisoformat(value)
    except ValueError:
        # fromisoformat takes the common "...T10:00:00Z" itself, so the
        # rewrite is paid only where it can change the answer
        if not value.endswith(("Z", "z")):
            raise
        stamp = datetime.fromisoformat(value[:-1] + "+00:00")
    if stamp.tzinfo is timezone.utc:
        return stamp
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


def _check_id_and_location(tweet_id: str, location) -> None:
    """Raise ValueError for an empty id or a (lat, lon) out of range."""
    if not tweet_id:
        raise ValueError("tweet id must be non-empty")
    if location is not None:
        lat, lon = location
        if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
            raise ValueError(f"location out of range: {location}")


@dataclass(frozen=True)
class QueryFilter:
    """Keyword plus optional time window and geographic bounding box.

    The keyword is matched case-insensitively as a raw-text substring,
    so hashtags and multi-word phrases match exactly as typed. ``since``
    is inclusive, ``until`` exclusive; both must be timezone-aware.
    ``bbox`` is (min_lat, min_lon, max_lat, max_lon) with inclusive
    edges and no NaN part; tweets without a location never match when a
    bbox is set.
    """

    keyword: str
    since: datetime | None = None
    until: datetime | None = None
    bbox: tuple[float, float, float, float] | None = None
    _keyword: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.keyword:
            raise ValueError("keyword must be non-empty")
        object.__setattr__(self, "_keyword", self.keyword.lower())
        for name in ("since", "until"):
            stamp = getattr(self, name)
            if stamp is not None and stamp.tzinfo is None:
                raise ValueError(f"{name} must be timezone-aware")
        if self.since is not None and self.until is not None:
            if not self.since < self.until:
                raise ValueError("since must be strictly before until")
        if self.bbox is not None:
            # every comparison with NaN is false, so a NaN edge would
            # silently keep no tweet
            if any(math.isnan(part) for part in self.bbox):
                raise ValueError(f"bbox has a NaN part: {self.bbox}")
            min_lat, min_lon, max_lat, max_lon = self.bbox
            if min_lat > max_lat or min_lon > max_lon:
                raise ValueError("bbox must be (min_lat, min_lon, max_lat, max_lon)")

    def matches(self, text: str, created_at: datetime, location) -> bool:
        """Whether a tweet with this raw text, aware UTC timestamp and
        (lat, lon) or None passes the filter."""
        if self._keyword not in text.lower():
            return False
        if self.since is not None and created_at < self.since:
            return False
        if self.until is not None and created_at >= self.until:
            return False
        if self.bbox is not None:
            if location is None:
                return False
            lat, lon = location
            min_lat, min_lon, max_lat, max_lon = self.bbox
            if not (min_lat <= lat <= max_lat and min_lon <= lon <= max_lon):
                return False
        return True


@dataclass
class ReadCounts:
    """What a corpus read has seen so far: valid records and skipped lines.

    Blank lines count as neither. The counts are final once the
    iteration over the read ends.
    """

    valid: int = 0
    skipped: int = 0


def _record_fields(obj) -> tuple:
    """Check one decoded JSON value as a corpus record; returns its fields
    as (id, created_at, username, text, location) and raises on a bad
    record."""
    if not isinstance(obj, dict):
        raise TypeError("record must be a JSON object")
    get = obj.get
    tweet_id, stamp, username, text = (
        get("id"), get("created_at"), get("username"), get("text")
    )
    if not (
        isinstance(tweet_id, str)
        and isinstance(stamp, str)
        and isinstance(username, str)
        and isinstance(text, str)
    ):
        raise ValueError("id, created_at, username and text must be strings")
    lat, lon = get("lat"), get("lon")
    if (lat is None) != (lon is None):
        raise ValueError("lat and lon must appear together")
    if lat is None:
        location = None
    else:
        for value in (lat, lon):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"lat/lon must be numbers, got {value!r}")
        location = (float(lat), float(lon))
    _check_id_and_location(tweet_id, location)
    return tweet_id, parse_utc(stamp), username, text, location


def _read(path, query: QueryFilter, limit: int, counts: ReadCounts):
    """The generator behind fetch; its first step only opens the file."""
    try:
        with open(path, "rb") as handle:
            yield
            kept = 0
            for lineno, line in enumerate(handle, start=1):
                if lineno == 1:
                    line = line.removeprefix(codecs.BOM_UTF8)
                # OverflowError: a huge lat/lon or a timestamp that leaves
                # datetime's range in UTC; RecursionError: deep JSON nesting
                try:
                    doc = line.decode("utf-8").strip(" \t\n\r")
                    obj, end = _scan_once(doc, 0)
                    if end != len(doc):
                        raise ValueError("extra data after the JSON value")
                    fields = _record_fields(obj)
                except (
                    ValueError, TypeError, OverflowError, RecursionError, StopIteration
                ):
                    # a line of Unicode whitespace alone is blank: it is
                    # neither valid nor skipped
                    if line.decode("utf-8", "replace").strip():
                        counts.skipped += 1
                    continue
                counts.valid += 1
                _, created_at, _, text, location = fields
                if query.matches(text, created_at, location):
                    yield fields
                    kept += 1
                    if kept == limit:
                        return
    except OSError as exc:
        raise FileUnreadable(f"cannot read corpus {path}: {exc}") from exc


def fetch(
    path, query: QueryFilter, limit: int = DEFAULT_LIMIT
) -> tuple[Iterator[tuple], ReadCounts]:
    """Open a JSON-lines corpus file and stream the tweets that match ``query``.

    Returns (an iterator over up to ``limit`` matching tweets in file
    order, the ReadCounts it fills as it reads). Each tweet is one
    tuple (id, created_at, username, text, location): ``created_at`` is
    an aware UTC datetime and ``location`` a (lat, lon) pair of floats
    or None. The file is opened here, so FileUnreadable is raised by
    this call; lines are read only as the iterator is advanced, and
    reading stops at the ``limit``-th match, so lines after it are
    never read or counted. The iterator raises FileUnreadable when a
    read fails. An empty or all-malformed file yields nothing and
    leaves ``counts.valid`` at 0.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    counts = ReadCounts()
    records = _read(path, query, limit, counts)
    next(records)
    return records, counts
