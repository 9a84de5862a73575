"""Tweet records, query filters, and reading matching tweets from a corpus.

A corpus is a JSON-lines file standing in for a live platform query:
one UTF-8 object per line with fields ``id``, ``created_at`` (ISO-8601,
naive values taken as UTC), ``username``, ``text``, and optional
``lat``/``lon``. Lines end at a newline byte only (CRLF is accepted),
and a leading byte-order mark is ignored. Each line is decoded on its
own, so a malformed line, invalid UTF-8 included, is skipped and
counted rather than aborting the read.
"""

from __future__ import annotations

import codecs
import json
import logging
from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import CorpusEmpty, FileUnreadable

log = logging.getLogger(__name__)

DEFAULT_LIMIT = 500


def parse_utc(value: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime."""
    if value.endswith(("Z", "z")):
        value = value[:-1] + "+00:00"
    stamp = datetime.fromisoformat(value)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


@dataclass(frozen=True)
class Tweet:
    """One post: id, UTC timestamp, author, raw text, optional (lat, lon)."""

    id: str
    created_at: datetime
    username: str
    text: str
    location: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("tweet id must be non-empty")
        if self.created_at.tzinfo is None:
            raise ValueError("created_at must be timezone-aware")
        if self.location is not None:
            lat, lon = self.location
            if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
                raise ValueError(f"location out of range: {self.location}")


@dataclass(frozen=True)
class QueryFilter:
    """Keyword plus optional time window and geographic bounding box.

    The keyword is matched case-insensitively as a raw-text substring,
    so hashtags and multi-word phrases match exactly as typed. ``since``
    is inclusive, ``until`` exclusive. ``bbox`` is
    (min_lat, min_lon, max_lat, max_lon) with inclusive edges; tweets
    without a location never match when a bbox is set.
    """

    keyword: str
    since: datetime | None = None
    until: datetime | None = None
    bbox: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if not self.keyword:
            raise ValueError("keyword must be non-empty")
        if self.since is not None and self.until is not None:
            if not self.since < self.until:
                raise ValueError("since must be strictly before until")
        if self.bbox is not None:
            min_lat, min_lon, max_lat, max_lon = self.bbox
            if min_lat > max_lat or min_lon > max_lon:
                raise ValueError("bbox must be (min_lat, min_lon, max_lat, max_lon)")

    def matches(self, tweet: Tweet) -> bool:
        if self.keyword.lower() not in tweet.text.lower():
            return False
        if self.since is not None and tweet.created_at < self.since:
            return False
        if self.until is not None and tweet.created_at >= self.until:
            return False
        if self.bbox is not None:
            if tweet.location is None:
                return False
            lat, lon = tweet.location
            min_lat, min_lon, max_lat, max_lon = self.bbox
            if not (min_lat <= lat <= max_lat and min_lon <= lon <= max_lon):
                return False
        return True


def _tweet_from_record(obj) -> Tweet:
    """Build a Tweet from one decoded JSON value; raises on bad records."""
    if not isinstance(obj, dict):
        raise TypeError("record must be a JSON object")
    for field in ("id", "created_at", "username", "text"):
        if not isinstance(obj.get(field), str):
            raise ValueError(f"record field {field!r} missing or not a string")
    lat, lon = obj.get("lat"), obj.get("lon")
    if (lat is None) != (lon is None):
        raise ValueError("lat and lon must appear together")
    if lat is None:
        location = None
    else:
        for value in (lat, lon):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"lat/lon must be numbers, got {value!r}")
        location = (float(lat), float(lon))
    return Tweet(
        id=obj["id"],
        created_at=parse_utc(obj["created_at"]),
        username=obj["username"],
        text=obj["text"],
        location=location,
    )


def fetch(
    path, query: QueryFilter, limit: int = DEFAULT_LIMIT
) -> tuple[list[Tweet], int]:
    """Read a JSON-lines corpus file, keeping tweets that match ``query``.

    Returns (up to ``limit`` matching tweets in file order, count of
    malformed lines read). Reading stops at the ``limit``-th match, so
    lines after it are never read or counted. Raises FileUnreadable
    when the file cannot be read and CorpusEmpty, whose message names
    the path and the skip count, when the whole file yields zero valid
    records.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    tweets: list[Tweet] = []
    valid = skipped = 0
    try:
        with open(path, "rb") as handle:
            for lineno, line in enumerate(handle, start=1):
                if lineno == 1:
                    line = line.removeprefix(codecs.BOM_UTF8)
                # OverflowError: a huge lat/lon or a timestamp that leaves
                # datetime's range in UTC; RecursionError: deep JSON nesting
                try:
                    text = line.decode("utf-8")
                    if not text.strip():
                        continue
                    tweet = _tweet_from_record(json.loads(text))
                except (ValueError, TypeError, OverflowError, RecursionError) as exc:
                    skipped += 1
                    log.debug("skipping corpus line %d: %s", lineno, exc)
                    continue
                valid += 1
                if query.matches(tweet):
                    tweets.append(tweet)
                    if len(tweets) == limit:
                        break
    except OSError as exc:
        raise FileUnreadable(f"cannot read corpus {path}: {exc}") from exc
    if not valid:
        raise CorpusEmpty(
            f"corpus {path} has no valid records ({skipped} malformed lines skipped)"
        )
    return tweets, skipped
