"""Tweet text normalization, tokenization, per-tweet scoring, and the
classify pass that sums the scores.

Scoring is pure word membership with one twist: when the token right
before a sentiment word is a negator, the hit is flipped to the
opposite bucket ("I am not sad" counts one positive, not one negative).
The flip looks exactly one token back; anything between the negator and
the sentiment word cancels it. Spell correction takes one ratio in [0, 1];
score_text and classify raise ValueError for any other, whatever the input.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable

from .lexicon import Lexicon

DEFAULT_SPELL_THRESHOLD = 0.85

# The sides of the polarity table. A hit on a sentiment word lands in
# bucket side ^ negated, so the two sentiment sides must be 0 and 1.
_POSITIVE, _NEGATIVE, _NEGATOR = 0, 1, 2

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
# letter/digit runs; an apostrophe survives only between two of them
# ("don't"). On text with no "_", \w is exactly [^\W_], and the simpler
# class matches faster.
_WORD_RE = re.compile(r"\w+(?:'\w+)*")
# ASCII letters, digits and "'" stay; every other ASCII character, "_"
# included, becomes a space
_ASCII_WORD_CHARS = str.maketrans(
    {ch: ch if ch.isalnum() or ch == "'" else " " for ch in map(chr, range(128))}
)


def _words(text: str) -> list[str]:
    """The tokens of normalize(text), in order."""
    text = text.lower()
    # most tweets hold no URL or mention; a substring test is far cheaper
    # than a regex pass that cannot match
    if "://" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    if not text.isascii():
        # a space separates tokens just as the "_" did; mentions and URLs,
        # which may hold "_", are gone by now
        return _WORD_RE.findall(text.replace("_", " "))
    # _WORD_RE's tokens without a regex: once each pair of apostrophes is
    # a space, no two are adjacent, so an apostrophe beside a space or an
    # edge is one that no word holds
    text = text.translate(_ASCII_WORD_CHARS)
    if "'" in text:
        text = " " + text.replace("''", " ") + " "
        text = text.replace(" '", " ").replace("' ", " ")
    return text.split()


def normalize(text: str) -> str:
    """Lowercase and strip tweet noise down to plain words.

    URLs (http/https/www) are removed outright, then @-mentions; every
    character other than letters, digits, and intra-word apostrophes
    becomes a space; whitespace runs collapse to single spaces. A
    leading '#' therefore vanishes while the tag word survives.
    Idempotent: normalizing twice changes nothing.
    """
    return " ".join(_words(text))


def _table(lexicon: Lexicon) -> dict[str, int]:
    """The polarity table: each token the lexicon knows mapped to
    _POSITIVE, _NEGATIVE or _NEGATOR, built on first use and kept on it.

    Later writes win, so a token in several sets gets the side that
    scoring tests first: a negator beats a sentiment word, and positive
    beats negative (``load_lexicon`` leaves no such overlap, but a
    Lexicon built by hand may have one).
    """
    table = lexicon._polarity
    if table is None:
        table = dict.fromkeys(lexicon.negative_words, _NEGATIVE)
        table.update(dict.fromkeys(lexicon.positive_words, _POSITIVE))
        table.update(dict.fromkeys(lexicon.negators, _NEGATOR))
        # a racing thread may build its own; both are equal
        lexicon._polarity = table
    return table


def _min_matches(total: int, threshold: float) -> int:
    """Smallest m with 2.0 * m / total >= threshold (difflib's ratio formula)."""
    m = 0
    while total and 2.0 * m / total < threshold:  # two empty strings rate 1.0
        m += 1
    return m


# a page translate numbers at most this many characters, from 1 up, and
# maps every other character to 0, so that its output is ASCII
_PAGE = 120
_PLANE_BITS = bytes(1 << k for k in range(8))


class _SpellIndex:
    """Lexicon words by length, with packed-integer tables that find the
    words the ratio bound allows for a whole length at once, plus a memo
    of answers keyed by (threshold, token).

    Each length bucket keeps, for every lexicon character, a "holder":
    an int with one field per word, 1 where the word holds that
    character; and one int whose fields are the words' counts of
    distinct characters. A field is whole bytes, wide enough that its
    top bit is above any count a word of that length can reach, so
    adding or subtracting counts that stay in range never carries into
    the next field.

    Past grouping the words by length, the build makes no Python call
    per word. Lexicon character i owns bit i of a word's letter-set
    mask, and the masks are built one "plane" of eight bits at a time,
    one byte per word. A bucket of length la is joined into one string
    and translated through a page table, which gives each of up to
    _PAGE characters a code from 1 up and every other character 0, so
    the text stays ASCII and encodes to one byte per character. A
    plane's byte table turns the code of its k-th character into bit k
    and every other code into 0; OR-ing the la stride slices of that,
    each read as one int, folds a word's la bytes into its mask byte.
    The column of bit k across those mask bytes is that character's
    holder. str.translate is fast only on ASCII text, so a lexicon of
    many characters pays one slow translate per page, not one per plane.
    """

    def __init__(self, words):
        by_length: dict[int, list[str]] = {}
        for word in words:
            by_length.setdefault(len(word), []).append(word)
        self.chars = frozenset("".join(words))
        numbered = list(enumerate(self.chars))
        pages = []
        for start in range(0, len(numbered), _PAGE):
            codes = {
                ch: chr(at - start + 1) if start <= at < start + _PAGE else "\0"
                for at, ch in numbered
            }
            # plane q of the page: code 1 + 8q + k -> bit k, other codes -> 0
            planes = [
                bytes(1 + at) + _PLANE_BITS + bytes(247 - at)
                for at in range(0, min(_PAGE, len(numbered) - start), 8)
            ]
            pages.append((str.maketrans(codes), planes))
        # translating a byte by bit_of[k] leaves bit k of it: 0 or 1
        bit_of = [(b"\0" * 2**k + b"\1" * 2**k) * (128 >> k) for k in range(8)]
        self.buckets = []
        for la, bucket in by_length.items():
            joined = "".join(bucket)
            masks = []  # masks[p]: one byte per word, its bits 8p to 8p + 7
            for page, planes in pages:
                coded = joined.translate(page).encode("ascii")
                for plane in planes:
                    bits = coded.translate(plane)
                    mask = 0
                    for j in range(la):
                        mask |= int.from_bytes(bits[j::la], "little")
                    masks.append(mask.to_bytes(len(bucket), "little"))
            field_bytes = (la.bit_length() + 8) // 8
            holders = {}
            for at, ch in numbered:
                column = masks[at >> 3].translate(bit_of[at & 7])
                if field_bytes > 1:
                    spaced = bytearray(len(bucket) * field_bytes)
                    spaced[::field_bytes] = column
                    column = spaced
                holders[ch] = int.from_bytes(column, "little")
            width = 8 * field_bytes
            one = b"\1".ljust(field_bytes, b"\0")
            ones = int.from_bytes(one * len(bucket), "little")
            self.buckets.append(
                (la, bucket, width, ones, ones << (width - 1), holders, sum(holders.values()))
            )
        self.memo: dict[tuple[float, str], str | None] = {}

    def candidates(self, token: str, threshold: float):
        """Yield the words whose ratio with token can reach threshold.

        With M matched characters the ratio is 2M / (la + lb). M is at
        most the shorter length, at most lb less X, the distinct token
        characters missing from the word, and at most la less Y, the
        distinct word characters missing from the token. Both X and Y
        follow from C, the distinct characters the two share, which one
        sum of holders gives for every word of a length; two
        offset-add-and-mask steps then keep the words whose bounds reach
        the needed M.
        """
        lb = len(token)
        chars = set(token)
        known = [ch for ch in chars if ch in self.chars]
        # a character in no lexicon word is missing from every word
        missing = len(chars) - len(known)
        for la, bucket, width, ones, top, holders, distinct in self.buckets:
            total, shorter = la + lb, min(la, lb)
            # _min_matches's own test at M = shorter, so this skips exactly
            # the lengths where need > shorter, without counting up to need
            if total and 2.0 * shorter / total < threshold:
                continue
            need = _min_matches(total, threshold)
            # lb - X >= need, with X = len(known) + missing - C, holds
            # where C >= floor
            floor = need + len(known) + missing - lb
            # C is at most both, so no word passes; skipping also keeps
            # the fields of top - floor * ones from going negative
            if floor > min(la, len(known)):
                continue
            shared = sum(map(holders.__getitem__, known))  # C in every field
            # la - Y >= need, with Y = distinct - C: the top bit of a
            # field is set where C + la - need - distinct is not negative
            hits = (shared + top + (la - need) * ones - distinct) & top
            if floor > 0:
                hits &= shared + top - floor * ones
            while hits:
                low = hits & -hits
                yield bucket[low.bit_length() // width - 1]
                hits ^= low


def suggest_correction(
    token: str, lexicon: Lexicon, threshold: float = DEFAULT_SPELL_THRESHOLD
) -> str | None:
    """Most similar lexicon word at ratio >= threshold, else None.

    Similarity is difflib's SequenceMatcher ratio, 2M / (la + lb) for M
    matched characters. difflib keeps the largest (ratio, word) pair, so
    a tie on the ratio goes to the lexicographically greatest word
    whatever the scan order. The answer is exactly that of
    ``difflib.get_close_matches`` over the whole lexicon, but difflib
    only sees words that pass an upper bound on M: the shorter length,
    and each length less the distinct characters the other string lacks.
    The index tests that bound on all words of one length at once with a
    few operations on packed integers (see _SpellIndex); it and a memo of
    answers are built on the first call and kept on the lexicon.
    """
    index = lexicon._spell_index
    if index is None:
        # the table's keys: every sentiment word and negator, each once
        index = _SpellIndex(_table(lexicon))
        # a racing thread may build its own; both give the same answers
        lexicon._spell_index = index
    key = (threshold, token)
    if key in index.memo:
        return index.memo[key]
    # imported on the first miss, so runs that never correct do not pay
    # for it at start-up
    import difflib

    # a generator: difflib rejects a bad cutoff before drawing a candidate
    hits = difflib.get_close_matches(
        token, index.candidates(token, threshold), n=1, cutoff=threshold
    )
    best = index.memo[key] = hits[0] if hits else None
    return best


def _hits(tokens, table: dict[str, int]) -> tuple[list, list]:
    """The positive and the negative hits among tokens, as lists of
    (token, negated) pairs, with one polarity-table lookup per token.

    A negator sets negated for the next token only; a sentiment word
    lands in bucket side ^ negated, its own side or, when negated, the
    other one.
    """
    hits = ([], [])  # indexed by _POSITIVE and _NEGATIVE
    get = table.get
    negated = False  # the previous token was a negator
    for token in tokens:
        side = get(token)
        if side is None:
            negated = False
        elif side == _NEGATOR:
            negated = True
        else:
            hits[side ^ negated].append((token, negated))
            negated = False
    return hits


def _check_threshold(threshold: float) -> None:
    """Raise ValueError unless threshold is a ratio in [0, 1] (NaN is not)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"spell_threshold must be within [0, 1], not {threshold!r}")


def score_text(
    text: str, lexicon: Lexicon, *, spell_threshold: float | None = None
) -> tuple[list, list]:
    """Count positive and negative lexicon hits in one tweet's text.

    Returns (positive, negative): each a list of (token, negated) pairs
    in text order. Every occurrence counts independently. A sentiment
    word directly preceded by a negator lands in the opposite bucket
    with negated=True. Negators themselves never count as sentiment
    words, and a word in both sentiment lists counts as positive. With
    a spell_threshold, a ratio in [0, 1], each token the lexicon does
    not know is first replaced by its closest lexicon word at that
    ratio, if any (None, the default, keeps results lexicon-exact); any
    other ratio, NaN included, raises ValueError whatever the text.
    Each token is looked up once in the lexicon's polarity table.
    """
    # the table once built, read without a function call per text
    table = lexicon._polarity or _table(lexicon)
    tokens = _words(text)
    if spell_threshold is not None:
        _check_threshold(spell_threshold)
        for at, token in enumerate(tokens):
            if token not in table:
                suggestion = suggest_correction(token, lexicon, spell_threshold)
                if suggestion is not None:
                    tokens[at] = suggestion
    return _hits(tokens, table)


AggregateResult = namedtuple(
    "AggregateResult",
    "topic tweets_scored total_positive total_negative"
    " positivity_pct negativity_pct no_signal",
)
AggregateResult.__doc__ = "Totals and percentage shares for one classified topic."


def classify(
    records: Iterable[tuple], topic: str, lexicon: Lexicon, *,
    spell_threshold: float | None = None, detail=None,
) -> AggregateResult:
    """Score each record with score_text and sum the hits.

    ``records`` are the (id, created_at, username, text, location)
    tuples that ``fetch`` yields; ``spell_threshold`` is passed on to
    score_text, and one outside [0, 1] raises ValueError before any
    record is drawn or any row written. When ``detail`` is an open
    DetailCsv, each record's row is written to it as the record is
    scored. Records are counted as they arrive, so a stream of them is
    never held.
    """
    if spell_threshold is not None:
        _check_threshold(spell_threshold)
    write = detail.write if detail is not None else None
    tweets = total_positive = total_negative = 0
    for _, created_at, username, text, _ in records:
        positive, negative = score_text(text, lexicon, spell_threshold=spell_threshold)
        if write is not None:
            write(created_at, username, text, positive, negative)
        tweets += 1
        total_positive += len(positive)
        total_negative += len(negative)
    return _result(topic, tweets, total_positive, total_negative)


def _result(topic: str, tweets: int, positive: int, negative: int) -> AggregateResult:
    """The AggregateResult of tweets scored with these hit totals.

    Each share is one hundred divided by the total number of sentiment
    words found, times that side's count, so the two always sum to 100.
    When nothing matched the division is undefined; both shares are
    reported as 0.0 and no_signal is set instead of raising.
    """
    found = positive + negative
    if found:
        # multiply before dividing so shares never round above 100
        positivity = 100.0 * positive / found
        negativity = 100.0 * negative / found
    else:
        positivity = negativity = 0.0
    return AggregateResult(
        topic=topic,
        tweets_scored=tweets,
        total_positive=positive,
        total_negative=negative,
        positivity_pct=positivity,
        negativity_pct=negativity,
        no_signal=found == 0,
    )
