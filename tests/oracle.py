"""Independent reference implementations used to cross-check the scorer.

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


def oracle_score_text(text, positive, negative, negators):
    return oracle_score(oracle_normalize(text).split(), positive, negative, negators)


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
    """A corpus line's (id, text) when it holds a valid record, else None."""
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
    if lat is not None:
        if type(lat) not in (int, float) or type(lon) not in (int, float):
            return None
        try:
            lat, lon = float(lat), float(lon)
        except OverflowError:
            return None
        if not (-90 <= lat <= 90 and -180 <= lon <= 180):
            return None
    try:
        oracle_parse_utc(stamp)
    except (ValueError, OverflowError):
        return None
    return tweet_id, body


def oracle_read_corpus(raw, keyword):
    """Raw-bytes corpus reader: (ids of records whose text holds the keyword,
    valid records, skipped lines).

    Lines end at b"\\n" only and a byte-order mark opening the first line
    is dropped. A line that decodes to Unicode whitespace alone is blank
    and counts as neither valid nor skipped; a line that is not UTF-8,
    not one JSON object, or not a valid record is skipped. The keyword is
    a case-insensitive substring of the text.
    """
    if raw.startswith(b"\xef\xbb\xbf"):
        raw = raw[3:]
    kept, valid, skipped = [], 0, 0
    for line in raw.split(b"\n"):
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
        if keyword.lower() in record[1].lower():
            kept.append(record[0])
    return kept, valid, skipped


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
