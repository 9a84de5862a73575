"""Query filters, and reading matching tweets from a corpus.

A corpus is a JSON-lines file standing in for a live platform query:
one UTF-8 object per line with fields ``id``, ``created_at`` (ISO-8601,
naive values taken as UTC), ``username``, ``text``, and optional
``lat``/``lon``. Lines end at a newline byte only (CRLF is accepted),
and a leading byte-order mark is ignored. A line of MAX_LINE_BYTES
(1 MiB) or more before its newline, a leading mark included, is skipped
without being held whole. JSON whitespace (space, tab, CR) may surround
the object, and a line of Unicode whitespace alone is blank. Each line
is decoded on its own, so a malformed line, invalid UTF-8 included, is
skipped and counted rather than aborting the read. The read is a
stream: every line is checked, from a pipe as soon as its newline
arrives, and a line the query keeps is yielded as one plain tuple of its
checked fields. The read's counts are current at each yielded tweet and
final when the iteration ends.
"""

from __future__ import annotations

import codecs
import json
import math
import operator
from collections import namedtuple
from collections.abc import Iterator
from datetime import datetime, timezone
from functools import partial
from io import BytesIO
from itertools import chain

from .errors import FileUnreadable

DEFAULT_LIMIT = 500
# A line of this many bytes or more, not counting its newline, is skipped
# without being decoded; a tweet's JSON object is far smaller.
MAX_LINE_BYTES = 1 << 20
# Lines are read in blocks of this many bytes and split by a BytesIO, which
# costs less per line than reading them from the file one by one.
_BLOCK = 1 << 16
# The C scanner behind json.loads, without the wrappers' whitespace and
# trailing-data checks, which _scan makes itself. It raises StopIteration
# where no JSON value starts, and ValueError for other malformed JSON.
_scan_once = json.JSONDecoder().scan_once
_NUMBER = (int, float)


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


class QueryFilter(namedtuple("QueryFilter", "keyword since until bbox")):
    """Keyword plus optional time window and geographic bounding box.

    The keyword is matched case-insensitively as a raw-text substring,
    so hashtags and multi-word phrases match exactly as typed. ``since``
    is inclusive, ``until`` exclusive; both must be timezone-aware.
    ``bbox`` is (min_lat, min_lon, max_lat, max_lon) with inclusive
    edges and no NaN part; tweets without a location never match when a
    bbox is set. Every way of making one, ``_make``, ``_replace``, copy
    and pickle included, goes through the checks in ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, keyword, since=None, until=None, bbox=None):
        if not keyword:
            raise ValueError("keyword must be non-empty")
        for name, stamp in (("since", since), ("until", until)):
            if stamp is not None and stamp.tzinfo is None:
                raise ValueError(f"{name} must be timezone-aware")
        if since is not None and until is not None:
            if not since < until:
                raise ValueError("since must be strictly before until")
        if bbox is not None:
            # every comparison with NaN is false, so a NaN edge would
            # silently keep no tweet
            if any(math.isnan(part) for part in bbox):
                raise ValueError(f"bbox has a NaN part: {bbox}")
            min_lat, min_lon, max_lat, max_lon = bbox
            if min_lat > max_lat or min_lon > max_lon:
                raise ValueError("bbox must be (min_lat, min_lon, max_lat, max_lon)")
        return super().__new__(cls, keyword, since, until, bbox)

    @classmethod
    def _make(cls, iterable):
        # the namedtuple one skips __new__; _replace calls this one
        return cls(*iterable)

    def matches(self, text: str, created_at: datetime, location) -> bool:
        """Whether a tweet with this raw text, aware UTC timestamp and
        (lat, lon) or None passes the filter."""
        in_bounds = self._bounds()
        return self.keyword.lower() in text.lower() and (
            in_bounds is None or in_bounds(created_at, location)
        )

    def _bounds(self):
        """The window and bbox test as a function of (created_at, location),
        or None when neither is set. The bounds are bound once: reading a
        named tuple's field is a descriptor call."""
        _, since, until, bbox = self
        if since is None and until is None and bbox is None:
            return None

        def in_bounds(created_at, location):
            if since is not None and created_at < since:
                return False
            if until is not None and created_at >= until:
                return False
            if bbox is not None:
                if location is None:
                    return False
                lat, lon = location
                min_lat, min_lon, max_lat, max_lon = bbox
                return min_lat <= lat <= max_lat and min_lon <= lon <= max_lon
            return True

        return in_bounds


class ReadCounts:
    """What a corpus read has seen so far: valid records and skipped lines.

    Blank lines count as neither. The counts are current at each yielded
    tweet and final once the iteration over the read ends. ``json_array``
    is a hint, not a count, and equality and repr leave it out: it is set
    when the first line that is not blank is skipped and starts with
    ``[``, as a corpus written as one JSON array does.
    """

    __slots__ = ("valid", "skipped", "json_array")

    def __init__(self, valid: int = 0, skipped: int = 0):
        self.valid = valid
        self.skipped = skipped
        self.json_array = False

    def __repr__(self):
        return f"ReadCounts(valid={self.valid!r}, skipped={self.skipped!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.valid, self.skipped) == (other.valid, other.skipped)


def _chunks(handle, size: int, before_read=None):
    """The bytes of a binary file as chunks of whole lines, each line with
    its newline (the file's last line may lack one).

    Each read1(size) that ends a line gives one chunk: the lines it ends,
    with the start of the first carried over from the reads before, so a
    pipe's lines are never held for more input than a read returned. A
    read is made only when the next chunk is asked for, and, if
    before_read is given, after a call of before_read(handle). A
    leading byte-order mark becomes three spaces, so the first line keeps
    its length. A line of MAX_LINE_BYTES or more before its newline is
    read and dropped as it comes, never held whole, and stands in its
    chunk as _stand_in(its head), which the line loop skips as it would
    skip the whole line. size must stay below MAX_LINE_BYTES - 3, so that
    only the line a chunk's first read ends can be that long.
    """
    read = handle.read1
    if before_read is not None:
        def read(size, read1=read):
            before_read(handle)
            return read1(size)

    head = read(size)
    if len(head) < 3:
        head += handle.read(3 - len(head))  # all three bytes, or the end
    if head.startswith(codecs.BOM_UTF8):
        head = b"   " + memoryview(head)[3:]
    carry = b""  # the start of a line that no read so far ends
    dropping = False  # reading the rest of a line of MAX_LINE_BYTES or more
    blocks, head = chain((head,), iter(partial(read, size), b"")), None
    for block in blocks:
        if dropping:
            start = block.find(b"\n") + 1
            if not start:
                continue
            dropping = False
            block = block[start:]
        end = block.rfind(b"\n") + 1
        if not end:
            carry += block
            if len(carry) >= MAX_LINE_BYTES:
                yield _stand_in(carry)
                carry, dropping = b"", True
            continue
        if len(carry) + end <= MAX_LINE_BYTES:
            # one copy: a slice of a memoryview copies nothing
            chunk = carry + memoryview(block)[:end] if carry else block[:end]
        else:
            first = block.find(b"\n") + 1
            if len(carry) + first > MAX_LINE_BYTES:  # the newline is its last byte
                chunk = _stand_in(carry + block[:first]) + block[first:end]
            else:
                chunk = carry + memoryview(block)[:end]
        # neither the block nor a used chunk is held through the next read
        carry, block = block[end:], None
        yield chunk
        chunk = None
    if carry:
        yield carry


def _stand_in(head: bytes) -> bytes:
    """A short line that the line loop skips, as one skipped line, as it
    would skip a line of MAX_LINE_BYTES or more that opens with head:
    invalid UTF-8, opening with "[" where the long line's first byte that
    is not ASCII whitespace is one, for ReadCounts.json_array."""
    return b"[\xff\n" if head.lstrip().startswith(b"[") else b"\xff\n"


def _file_chunks(path, size: int, before_read=None):
    """_chunks of the file at path, in chunks of size, with before_read;
    the generator's first step only opens the file, and an OSError from
    opening or reading it is raised as FileUnreadable."""
    try:
        with open(path, "rb") as handle:
            yield
            yield from _chunks(handle, size, before_read)
    except OSError as exc:
        raise FileUnreadable(f"cannot read corpus {path}: {exc}") from exc


def _scan(blocks, query: QueryFilter, limit: int, counts: ReadCounts):
    """The tweets that query keeps among the lines of blocks, an iterable
    of line iterables, as fetch yields them, up to limit of them; counts,
    fresh, are filled as fetch's are. Each line is checked inline: a
    Python call per line would add to the C JSON scan, which is most of a
    read."""
    keyword = query.keyword.lower()
    in_bounds = query._bounds()
    scan_once, fromisoformat, utc = _scan_once, datetime.fromisoformat, timezone.utc
    valid = kept = 0
    try:
        for lines in blocks:
            for line in lines:
                # OverflowError: a huge lat/lon or a timestamp that leaves
                # datetime's range in UTC; RecursionError: deep JSON nesting;
                # TypeError: fromisoformat given a created_at that is no string
                try:
                    doc = line.decode().strip(" \t\n\r")
                    obj, end = scan_once(doc, 0)
                    if end != len(doc) or type(obj) is not dict:
                        raise ValueError("a line must hold one JSON object")
                    get = obj.get
                    tweet_id, stamp, username, text = (
                        get("id"), get("created_at"), get("username"),
                        get("text"),
                    )
                    if not (type(tweet_id) is str and tweet_id
                            and type(username) is str and type(text) is str):
                        raise ValueError("bad id, username or text")
                    # parse_utc's steps, inline: its second parse is paid
                    # only where fromisoformat fails
                    try:
                        created_at = fromisoformat(stamp)
                    except ValueError:
                        created_at = parse_utc(stamp)
                    if created_at.tzinfo is None:
                        created_at = created_at.replace(tzinfo=utc)
                    elif created_at.tzinfo is not utc:
                        created_at = created_at.astimezone(utc)
                    lat, lon = get("lat"), get("lon")
                    if lat is None and lon is None:
                        location = None
                    # not bool, an int subclass; a lone lat or lon is None
                    elif type(lat) not in _NUMBER or type(lon) not in _NUMBER:
                        raise ValueError(
                            "lat and lon must be numbers, given together"
                        )
                    else:
                        location = lat, lon = float(lat), float(lon)
                        if not (-90.0 <= lat <= 90.0
                                and -180.0 <= lon <= 180.0):
                            raise ValueError(
                                f"location out of range: {location}"
                            )
                except (
                    ValueError, TypeError, OverflowError, RecursionError,
                    StopIteration,
                ):
                    # a line of Unicode whitespace alone is blank: it is
                    # neither valid nor skipped
                    if line.decode("utf-8", "replace").strip():
                        if not (valid or counts.skipped):
                            counts.json_array = line.lstrip().startswith(b"[")
                        counts.skipped += 1
                    continue
                valid += 1
                if keyword in text.lower() and (
                    in_bounds is None or in_bounds(created_at, location)
                ):
                    counts.valid = valid
                    yield tweet_id, created_at, username, text, location
                    kept += 1
                    if kept == limit:
                        return
    finally:
        counts.valid = valid


def fetch(
    path, query: QueryFilter, limit: int = DEFAULT_LIMIT
) -> tuple[Iterator[tuple], ReadCounts]:
    """Open a JSON-lines corpus file and stream the tweets that match ``query``.

    Returns (an iterator over up to ``limit`` matching tweets in file
    order, the ReadCounts it fills as it reads). Each tweet is one
    tuple (id, created_at, username, text, location): ``created_at`` is
    an aware UTC datetime and ``location`` a (lat, lon) pair of floats
    or None. This call raises TypeError or ValueError for a ``limit``
    that is no positive integer, and FileUnreadable when the file cannot
    be opened; lines are read only as the iterator is advanced, one
    64 KiB block at a time, and checking stops at the ``limit``-th match,
    so lines after it are never checked or counted. The counts are
    current at each yielded tweet and final when the iteration ends. The
    iterator raises FileUnreadable when a read fails. An empty or
    all-malformed file yields nothing and leaves ``counts.valid`` at 0.
    """
    limit = operator.index(limit)
    if limit <= 0:
        raise ValueError("limit must be positive")
    chunks = _file_chunks(path, _BLOCK)
    next(chunks)
    counts = ReadCounts()
    return _scan(map(BytesIO, chunks), query, limit, counts), counts
