"""Independent reference implementations used to cross-check the package,
from each step up to a whole classify run (oracle_classify).

Everything here is deliberately written with different machinery than
the package (character scanning instead of regexes, index loops, raw
line parsing) so the two routes can disagree loudly in tests. Keep it
free of tweetlex imports.
"""

import csv
import difflib
import io
import json
from datetime import datetime, timezone
from pathlib import Path

URL_PREFIXES = ("http://", "https://", "www.")


def _word_char(ch: str) -> bool:
    return ch != "_" and ch.isalnum()


def _url_at(text: str, i: int) -> bool:
    """True when a URL (a prefix plus at least one non-space) starts at i."""
    for prefix in URL_PREFIXES:
        end = i + len(prefix)
        if text.startswith(prefix, i) and end < len(text) and not text[end].isspace():
            return True
    return False


def oracle_normalize(text: str) -> str:
    """Character-scanner version of tweet normalization.

    A dropped URL or mention leaves a space, so an apostrophe is judged
    by what is left around it: it is kept only after an emitted word
    character and before a word character that starts no URL.
    """
    text = text.lower()
    out = []
    i, n = 0, len(text)
    while i < n:
        if _url_at(text, i):
            while i < n and not text[i].isspace():
                i += 1
            out.append(" ")
            continue
        ch = text[i]
        if ch == "@" and i + 1 < n and (_word_char(text[i + 1]) or text[i + 1] == "_"):
            i += 1
            while i < n and (_word_char(text[i]) or text[i] == "_"):
                i += 1
            out.append(" ")
            continue
        if _word_char(ch):
            out.append(ch)
        elif (
            ch == "'"
            and out
            and _word_char(out[-1])
            and i + 1 < n
            and _word_char(text[i + 1])
            and not _url_at(text, i + 1)
        ):
            out.append("'")
        else:
            out.append(" ")
        i += 1
    return " ".join("".join(out).split())


def oracle_score(tokens, positive, negative, negators):
    """Index-loop scorer; returns (positive_hits, negative_hits).

    Each hit is a (token, negated) pair. A sentiment word right after a
    negator flips to the opposite bucket; negators themselves never
    count.
    """
    pos_hits, neg_hits = [], []
    for i in range(len(tokens)):
        token = tokens[i]
        if token in negators:
            continue
        if token in positive:
            base_positive = True
        elif token in negative:
            base_positive = False
        else:
            continue
        flipped = i >= 1 and tokens[i - 1] in negators
        if base_positive != flipped:
            pos_hits.append((token, flipped))
        else:
            neg_hits.append((token, flipped))
    return pos_hits, neg_hits


def oracle_correct(token, pool, threshold):
    """Plain difflib over the whole sorted pool: its best match, else None."""
    hits = difflib.get_close_matches(token, sorted(pool), n=1, cutoff=threshold)
    return hits[0] if hits else None


def oracle_encode(hits):
    """A detail-CSV hits cell: the tokens joined by "|", "!" after a
    negated one."""
    return "|".join(token + ("!" if negated else "") for token, negated in hits)


def oracle_summary(keyword, tweets, total_pos, total_neg):
    """The summary classify prints for these totals, stdout's newline
    included. Each share is computed multiply-first, 100.0 * count / found."""
    found = total_pos + total_neg
    lines = [
        f'Sentiment summary for "{keyword}"',
        f"  tweets scored:  {tweets}",
        f"  positive words: {total_pos}",
        f"  negative words: {total_neg}",
        f"  positivity:     {100.0 * total_pos / found if found else 0.0:.1f}%",
        f"  negativity:     {100.0 * total_neg / found if found else 0.0:.1f}%",
    ]
    if not found:
        lines.append("  no sentiment words found")
    return "\n".join(lines) + "\n"


def oracle_read_wordlist(path):
    """The words oracle_read_wordlist_counts keeps from the file at path."""
    return oracle_read_wordlist_counts(path)[0]


def oracle_read_lexicon(directory):
    """(positive, negative, negators) from positive.txt, negative.txt and
    negators.txt in directory; a word on both sentiment lists is removed
    from both."""
    directory = Path(directory)
    positive = oracle_read_wordlist(directory / "positive.txt")
    negative = oracle_read_wordlist(directory / "negative.txt")
    negators = oracle_read_wordlist(directory / "negators.txt")
    return positive - negative, negative - positive, negators


def oracle_read_wordlist_counts(path):
    """Raw one-token-per-line reader (';' comments, lowercase, no whitespace);
    returns (words, duplicates, dropped).

    Lines end at "\n" only and a leading byte-order mark is skipped. An
    entry holding whitespace is dropped; a repeat of a kept word is a
    duplicate.
    """
    words = set()
    duplicates = dropped = 0
    with open(path, encoding="utf-8-sig", newline="\n") as handle:
        for line in handle:
            entry = line.strip().lower()
            if not entry or entry.startswith(";"):
                continue
            if any(c.isspace() for c in entry):
                dropped += 1
            elif entry in words:
                duplicates += 1
            else:
                words.add(entry)
    return words, duplicates, dropped


def oracle_parse_utc(stamp):
    """An ISO-8601 stamp as an aware UTC datetime, the trailing "Z"/"z"
    rewritten to "+00:00" before parsing and a naive value taken as UTC.

    Raises ValueError for a bad stamp and OverflowError for one that
    leaves datetime's range in UTC.
    """
    if stamp[-1:] in ("Z", "z"):
        stamp = stamp[:-1] + "+00:00"
    when = datetime.fromisoformat(stamp)
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return when.astimezone(timezone.utc)


def _oracle_record(text):
    """A corpus line's (id, created_at, username, text, location) when it
    holds a valid record, else None."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if type(obj) is not dict:
        return None
    tweet_id, stamp, username, body = (
        obj.get(key) for key in ("id", "created_at", "username", "text")
    )
    if not all(type(value) is str for value in (tweet_id, stamp, username, body)):
        return None
    if tweet_id == "":
        return None
    lat, lon = obj.get("lat"), obj.get("lon")
    if (lat is None) != (lon is None):
        return None
    location = None
    if lat is not None:
        if type(lat) not in (int, float) or type(lon) not in (int, float):
            return None
        try:
            location = lat, lon = float(lat), float(lon)
        except OverflowError:
            return None
        if not (-90 <= lat <= 90 and -180 <= lon <= 180):
            return None
    try:
        when = oracle_parse_utc(stamp)
    except (ValueError, OverflowError):
        return None
    return tweet_id, when, username, body, location


ORACLE_MAX_LINE_BYTES = 2**20


def oracle_read_corpus(raw, keyword, since=None, until=None, bbox=None, limit=None):
    """Raw-bytes corpus reader: (the (id, created_at, username, text,
    location) of each record the query keeps, valid records, skipped lines).

    Lines end at b"\\n" only and a byte-order mark opening the first line
    is dropped. A line of ORACLE_MAX_LINE_BYTES bytes or more before its
    b"\\n", that mark included, is skipped whatever it holds. A line that
    decodes to Unicode whitespace alone is blank and counts as neither
    valid nor skipped; a line that is not UTF-8, not one JSON object, or
    not a valid record is skipped. The keyword is a case-insensitive
    substring of the text. since (inclusive) and until
    (exclusive) are ISO-8601 stamps bounding created_at; bbox (min_lat,
    min_lon, max_lat, max_lon) keeps the located records on or inside
    its edges. The read ends at the limit-th kept record, so later lines
    are not counted.
    """
    since, until = (None if s is None else oracle_parse_utc(s) for s in (since, until))
    kept, valid, skipped = [], 0, 0
    for number, line in enumerate(raw.split(b"\n")):
        if len(line) >= ORACLE_MAX_LINE_BYTES:
            skipped += 1
            continue
        if number == 0 and line.startswith(b"\xef\xbb\xbf"):
            line = line[3:]
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            skipped += 1
            continue
        if text.isspace() or text == "":
            continue
        record = _oracle_record(text)
        if record is None:
            skipped += 1
            continue
        valid += 1
        _, when, _, body, location = record
        if (
            keyword.lower() in body.lower()
            and (since is None or since <= when)
            and (until is None or when < until)
            and (bbox is None or location is not None
                 and bbox[0] <= location[0] <= bbox[2]
                 and bbox[1] <= location[1] <= bbox[3])
        ):
            kept.append(record)
            if len(kept) == limit:
                break
    return kept, valid, skipped


def oracle_classify(
    raw, lexicon, keyword, *, since=None, until=None, bbox=None, limit=500,
    spell_threshold=None,
):
    """One ``tweetlex classify`` run over the corpus bytes raw with the
    wordlists in the directory lexicon: (exit code, stdout, valid records,
    skipped lines, detail CSV bytes).

    since, until, bbox and limit are the query's bounds, as in
    oracle_read_corpus. An empty or inverted window exits 2 and a lexicon
    with no sentiment word left exits 4, each with empty stdout, no counts
    and no CSV (None). With a spell_threshold, each token in no wordlist
    is first replaced by oracle_correct's answer, if any. The CSV's date
    and time are the UTC fields of created_at, zero-padded.
    """
    if since is not None and until is not None:
        if not oracle_parse_utc(since) < oracle_parse_utc(until):
            return 2, "", 0, 0, None
    positive, negative, negators = oracle_read_lexicon(lexicon)
    if not positive and not negative:
        return 4, "", 0, 0, None
    records, valid, skipped = oracle_read_corpus(
        raw, keyword, since, until, bbox, limit
    )
    known = positive | negative | negators
    corrections = {}
    rows = [["date", "time", "username", "tweet", "positive_words", "negative_words"]]
    total_pos = total_neg = 0
    for _, when, username, text, _ in records:
        tokens = oracle_normalize(text).split()
        if spell_threshold is not None:
            for token in set(tokens) - known - corrections.keys():
                corrections[token] = oracle_correct(token, known, spell_threshold)
            tokens = [corrections.get(token) or token for token in tokens]
        pos, neg = oracle_score(tokens, positive, negative, negators)
        total_pos, total_neg = total_pos + len(pos), total_neg + len(neg)
        rows.append([
            f"{when.year:04d}-{when.month:02d}-{when.day:02d}",
            f"{when.hour:02d}:{when.minute:02d}:{when.second:02d}",
            username, text, oracle_encode(pos), oracle_encode(neg),
        ])
    summary = oracle_summary(keyword, len(records), total_pos, total_neg)
    return 0, summary, valid, skipped, oracle_csv_bytes(rows)


def oracle_csv_bytes(rows):
    """The bytes the stdlib csv.writer, default dialect, writes for rows
    (lists of str) to a file opened as UTF-8 with backslashreplace and
    newline=""."""
    buffer = io.BytesIO()
    handle = io.TextIOWrapper(
        buffer, encoding="utf-8", errors="backslashreplace", newline=""
    )
    csv.writer(handle).writerows(rows)
    handle.flush()
    return buffer.getvalue()
