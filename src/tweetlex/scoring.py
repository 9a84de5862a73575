"""Tweet text normalization, tokenization, per-tweet scoring, and the
classify pass that sums the scores.

Scoring is pure word membership with one twist: when the token right
before a sentiment word is a negator, the hit is flipped to the
opposite bucket ("I am not sad" counts one positive, not one negative).
The flip looks exactly one token back; anything between the negator and
the sentiment word cancels it. Spell correction takes one ratio in [0, 1];
score_text and classify raise ValueError for any other, whatever the input.

Texts are scored a batch at a time: one tokenizer pass gives one flat
token list, each text's tokens ended by a marker token, and one loop over
it gives every text's hits. Without a detail CSV, classify counts the hit
totals from a byte string of the tokens' sides instead. score_text is the
batch code run on one text.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable
from itertools import compress, islice, repeat
from operator import itemgetter, not_

from .lexicon import Lexicon

DEFAULT_SPELL_THRESHOLD = 0.85

# The sides of the polarity table. A hit on a sentiment word lands in
# bucket side ^ negated, so the two sentiment sides must be 0 and 1.
# _END is the side of the _MARK that ends each text's tokens, and _OOV
# that of a token in no list.
_POSITIVE, _NEGATIVE, _NEGATOR, _END, _OOV = 0, 1, 2, 3, 4

# records scored at a time: one tokenizer pass per batch
_BATCH = 256

# Texts are tokenized a group at a time, joined by " \0 ": each text's
# tokens are followed by one _MARK token. The spaces around it give each
# text the edges it has alone, for a URL's \S+, the apostrophe rule and
# lower()'s final sigma. A text's own "\0" becomes "\x01", which every
# step treats alike: a non-space, non-word, uncased character.
_MARK = "\0"

_MENTION_RE = re.compile(r"@\w+")
# URLs go in two passes with literal prefixes, which re finds fast, where
# one (?:https?://|www\.) pass is tried at every "h" and "w". The first
# pass leaves a non-space "\x01", so that a "www." right before the URL
# still has the character the one pass would have seen after it.
_HTTP_RE = re.compile(r"https?://\S+")
_WWW_RE = re.compile(r"www\.\S+")
# letter/digit runs; an apostrophe survives only between two of them
# ("don't"). On text with no "_", \w is exactly [^\W_], and the simpler
# class matches faster. A lone _MARK is its own token.
_WORD_RE = re.compile(r"\w+(?:'\w+)*|\0")
# ASCII letters, digits, "'" and _MARK stay; every other ASCII character,
# "_" and "\x01" included, becomes a space
_ASCII_WORD_CHARS = str.maketrans(
    {
        ch: ch if ch.isalnum() or ch in "'\0" else " "
        for ch in map(chr, range(128))
    }
)
# on translated ASCII text, [a-z0-9] is exactly \w: an apostrophe with
# no word character on one side is one that no word holds. Starting with
# the literal apostrophe lets re skip from one apostrophe to the next.
_STRAY_APOSTROPHE_RE = re.compile(r"'(?:(?<![a-z0-9]')|(?![a-z0-9]))")


def _group_tokens(texts: list[str], ascii: bool) -> list[str]:
    """The tokens of normalize(text) for each of texts, in order, each
    text's followed by one _MARK; ascii says that every text is ASCII."""
    if not texts:
        return []
    joined = " \0 ".join(texts) + " \0"
    if joined.count(_MARK) != len(texts):
        joined = " \0 ".join([text.replace(_MARK, "\x01") for text in texts]) + " \0"
    joined = joined.lower()
    # most tweets hold no URL or mention; a substring test is far cheaper
    # than a regex pass that cannot match
    if "://" in joined:
        joined = _HTTP_RE.sub("\x01", joined)
    if "www." in joined:
        joined = _WWW_RE.sub(" ", joined)
    if "@" in joined:
        joined = _MENTION_RE.sub(" ", joined)
    if not ascii:
        # a space separates tokens just as the "_" did; mentions and URLs,
        # which may hold "_", are gone by now
        return _WORD_RE.findall(joined.replace("_", " "))
    # _WORD_RE's tokens from translate and split: an apostrophe stays
    # only between two letters or digits; every other one becomes a space
    joined = joined.translate(_ASCII_WORD_CHARS)
    if "'" in joined:
        joined = _STRAY_APOSTROPHE_RE.sub(" ", joined)
    return joined.split()


def _tokens(texts: list[str], flags: list[bool]) -> list[str]:
    """The flat tokens of texts, each text's followed by one _MARK: those
    of the ASCII texts first, then the others', each group in order;
    flags holds each text's str.isascii(). ASCII text takes a
    translate-and-split path, which is exact only on ASCII but much
    faster than _WORD_RE."""
    if all(flags):
        return _group_tokens(texts, True)
    return _group_tokens(list(compress(texts, flags)), True) + _group_tokens(
        list(compress(texts, map(not_, flags))), False
    )


def normalize(text: str) -> str:
    """Lowercase and strip tweet noise down to plain words.

    URLs (http/https/www) are removed outright, then @-mentions; every
    character other than letters, digits, and intra-word apostrophes
    becomes a space; whitespace runs collapse to single spaces. A
    leading '#' therefore vanishes while the tag word survives.
    Idempotent: normalizing twice changes nothing.
    """
    return " ".join(_group_tokens([text], text.isascii())[:-1])


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


def _marked_table(lexicon: Lexicon) -> dict[str, int]:
    """The polarity table with _MARK mapped to _END, built on first use
    and kept on the lexicon.

    The tokenizer makes a _MARK token only at the end of a text, so the
    marker wins over a lexicon entry "\0", which no text token can equal;
    only a spell correction can give that word, and its side is then read
    from _table.
    """
    marked = lexicon._marked
    if marked is None:
        marked = dict(_table(lexicon))
        marked[_MARK] = _END
        # a racing thread may build its own; both are equal
        lexicon._marked = marked
    return marked


# a page translate numbers at most this many characters, from 1 up, and
# maps every other character to 0, so that its output is ASCII
_PAGE = 120
_PLANE_BITS = bytes(1 << k for k in range(8))
_LOWERCASE = "abcdefghijklmnopqrstuvwxyz"
_NO_LOWERCASE = str.maketrans("", "", _LOWERCASE)


class _SpellIndex:
    """Lexicon words by length, with packed-integer tables that find the
    words the ratio bound allows for a whole length at once, a memo of
    answers keyed by (threshold, token), and a query plan per (threshold,
    token length): the buckets that length can reach, each with what its
    bound needs, so that a token pays only for its own characters.

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
        joins = {la: "".join(bucket) for la, bucket in by_length.items()}
        pooled = "".join(joins.values())
        if pooled.isascii():
            # a substring test per lowercase letter, and a set of what is
            # left once they are deleted, spare a pass over every character
            self.chars = frozenset(
                [ch for ch in _LOWERCASE if ch in pooled]
            ).union(pooled.translate(_NO_LOWERCASE))
        else:
            self.chars = frozenset(pooled)
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
            joined = joins[la]
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
        self.plans: dict[tuple[float, int], list[tuple]] = {}

    def candidates(self, token: str, threshold: float):
        """Yield the words whose ratio with token can reach threshold.

        With M matched characters the ratio is 2M / (la + lb). M is at
        most the shorter length, at most lb less X, the distinct token
        characters missing from the word, and at most la less Y, the
        distinct word characters missing from the token. Both X and Y
        follow from C, the distinct characters the two share, which one
        sum of holders gives for every word of a length; two
        offset-add-and-mask steps then keep the words whose bounds reach
        the needed M. The plan holds what depends on lb and threshold
        alone: the lengths that pass the first bound, each with its need
        and the offset of the Y step. It is built on the first query of
        that (threshold, lb), and kept in plans even when empty.
        """
        lb = len(token)
        plan = self.plans.get((threshold, lb))
        if plan is None:
            plan = []
            for la, bucket, width, ones, top, holders, distinct in self.buckets:
                total = la + lb
                # the need test below at M = min(la, lb): this skips
                # exactly the lengths where need > min(la, lb)
                if total and 2.0 * min(la, lb) / total < threshold:
                    continue
                need = 0  # fewest M with 2.0 * M / total >= threshold
                while total and 2.0 * need / total < threshold:  # "" and "" rate 1.0
                    need += 1
                offset = top + (la - need) * ones - distinct
                plan.append((need, offset, bucket, width, ones, top, holders))
            # a racing thread may build its own; both are equal
            self.plans[threshold, lb] = plan
        chars = set(token)
        known = [ch for ch in chars if ch in self.chars]
        # lb - X >= need, with X = len(chars) - C (a character in no
        # lexicon word is missing from every word), holds where C >= floor
        excess = len(chars) - lb
        for need, offset, bucket, width, ones, top, holders in plan:
            floor = need + excess
            # C is at most len(known) (and floor <= need <= la), so no word
            # passes; skipping also keeps top - floor * ones from going negative
            if floor > len(known):
                continue
            shared = sum(map(holders.__getitem__, known))  # C in every field
            # la - Y >= need, with Y = distinct - C: the top bit of a
            # field is set where C + la - need - distinct is not negative
            hits = (shared + offset) & top
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
    matched characters. The answer is exactly that of
    ``difflib.get_close_matches(token, words, n=1, cutoff=threshold)``
    over the whole lexicon: the largest (ratio, word) pair at or above
    the threshold, so a tie on the ratio goes to the lexicographically
    greatest word. Only words that pass an upper bound on M are looked
    at: the shorter length, and each length less the distinct characters
    the other string lacks. The index tests that bound on all words of
    one length at once with a few operations on packed integers (see
    _SpellIndex); it, its plans and a memo of answers are built on first
    use and kept on the lexicon. Of those candidates, difflib's
    quick_ratio(), an upper bound on ratio() with the same denominator,
    drops the ones below the threshold and orders the rest; the full
    ratio() is computed in that order only until the next (quick_ratio,
    word) pair falls below the best (ratio, word) pair found, since no
    later word can beat it. A threshold outside [0, 1], or NaN, raises
    ValueError as difflib does.
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

    # get_close_matches' check and wording, made before a plan is kept
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"cutoff must be in [0.0, 1.0]: {threshold!r}")
    words = list(index.candidates(token, threshold))
    best = ()  # the best (ratio, word) so far; () is below every pair
    if words:
        # the token is seq2, as in get_close_matches, so its autojunk holds
        matcher = difflib.SequenceMatcher(None, "", token)
        set_word, quick_ratio, ratio = matcher.set_seq1, matcher.quick_ratio, matcher.ratio
        bounds = []
        for word in words:
            set_word(word)
            bound = quick_ratio()
            if bound >= threshold:
                bounds.append((bound, word))
        bounds.sort(reverse=True)
        for pair in bounds:
            # ratio() <= quick_ratio(), so no pair from here on can win
            if pair < best:
                break
            word = pair[1]
            set_word(word)
            score = ratio()
            if score >= threshold and (score, word) > best:
                best = (score, word)
    best = index.memo[key] = best[1] if best else None
    return best


def _sides(tokens: list[str], lexicon: Lexicon, threshold: float | None):
    """The side of each of tokens, flat tokens from _tokens, as an
    iterable; _OOV for a token in no list.

    With a threshold, each token in no list is first replaced in tokens
    by its closest lexicon word at that ratio, if any, and takes that
    word's side, so the sides come as a list.
    """
    sides = map(_marked_table(lexicon).get, tokens, repeat(_OOV))
    if threshold is None:
        return sides
    sides = list(sides)
    table = _table(lexicon)
    for at, side in enumerate(sides):
        if side == _OOV:
            suggestion = suggest_correction(tokens[at], lexicon, threshold)
            if suggestion is not None:
                tokens[at] = suggestion
                sides[at] = table[suggestion]
    return sides


def _hits(tokens: list[str], sides) -> list[tuple[list, list]]:
    """Each text's positive and negative hits, as two lists of (token,
    negated) pairs, from flat tokens and their sides.

    A negator sets negated for the next token only; a sentiment word
    lands in bucket side ^ negated, its own side or, when negated, the
    other one. _END closes the text's pair and resets negated, so that a
    negator ending one text never flips the first word of the next.
    """
    pairs = []
    hits = ([], [])  # indexed by _POSITIVE and _NEGATIVE
    negated = False  # the previous token was a negator
    for token, side in zip(tokens, sides):
        # the sides in the order of how often they come
        if side == _OOV:
            negated = False
        elif side < _NEGATOR:
            hits[side ^ negated].append((token, negated))
            negated = False
        elif side == _END:
            pairs.append(hits)
            hits = ([], [])
            negated = False
        else:
            negated = True
    return pairs


def _totals(sides) -> tuple[int, int]:
    """The positive and the negative hit totals of flat tokens with these
    sides, from bytes.count alone.

    Negation looks exactly one token back, and _END and _OOV are neither
    sentiment sides nor _NEGATOR, so a word is flipped exactly where the
    byte before it is _NEGATOR.
    """
    sides = bytes(sides)
    # _NEGATOR then _POSITIVE, and _NEGATOR then _NEGATIVE
    flipped_positive, flipped_negative = sides.count(b"\2\0"), sides.count(b"\2\1")
    return (
        sides.count(b"\0") - flipped_positive + flipped_negative,
        sides.count(b"\1") - flipped_negative + flipped_positive,
    )


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
    Each token is looked up once in the lexicon's polarity table. This
    is classify's batch scoring run on one text, which is its own group.
    """
    if spell_threshold is not None:
        _check_threshold(spell_threshold)
    tokens = _group_tokens([text], text.isascii())
    return _hits(tokens, _sides(tokens, lexicon, spell_threshold))[0]


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
    """Score each record's text as score_text does and sum the hits.

    ``records`` are the (id, created_at, username, text, location)
    tuples that ``fetch`` yields; ``spell_threshold`` is as in
    score_text, and one outside [0, 1] raises ValueError before any
    record is drawn or any row written. Records are drawn and scored a
    batch of at most _BATCH (256) at a time, with one tokenizer pass per
    batch, so at most one batch of a stream is held. When ``detail`` is
    an open DetailCsv, each record's row is written to it, in record
    order, before the next batch is drawn; without one, only the hit
    totals are counted, which needs no per-token Python loop. A row's
    date, time, username and text fields are formatted as its batch is
    drawn, so a naive created_at raises DetailCsv.write's ValueError
    with no row of its batch written.
    """
    return _classify_batches(
        _batches(records, detail), topic, lexicon, spell_threshold, detail
    )


def _batches(records: Iterable[tuple], detail):
    """The records that fetch yields, each cut to what _classify_batches
    reads of it (its text, or, with a detail CSV, the pair of its row
    head, from detail._head: every field before the hits, the text
    included, and its raw text, which the scoring tokenizes), in lists
    of _BATCH but the last, which may be short; a read that fails, or a
    head that raises, loses the list it was drawing."""
    if detail is None:
        rows = map(itemgetter(3), records)
    else:
        head = detail._head
        rows = (
            (head(created_at, username, text), text)
            for _, created_at, username, text, _ in records
        )
    return iter(lambda: list(islice(rows, _BATCH)), [])


def _classify_batches(
    batches: Iterable[list], topic: str, lexicon: Lexicon,
    spell_threshold: float | None, detail,
) -> AggregateResult:
    """classify's result for the lists that _batches(records, detail)
    yields, each tokenized and looked up once, then counted from its
    sides alone or, with a detail CSV, from its hits, a row each; the
    threshold is checked before the first list is drawn."""
    if spell_threshold is not None:
        _check_threshold(spell_threshold)
    if detail is not None:
        # a hit is a tokenizer token, which never holds a character that
        # needs quoting, or a spell correction's lexicon word
        quote_hits = spell_threshold is not None and detail._quotable(_table(lexicon))
    tweets = total_positive = total_negative = 0
    for batch in batches:
        tweets += len(batch)
        texts = batch if detail is None else [text for _, text in batch]
        flags = list(map(str.isascii, texts))
        tokens = _tokens(texts, flags)
        sides = _sides(tokens, lexicon, spell_threshold)
        if detail is None:
            positive, negative = _totals(sides)
            total_positive += positive
            total_negative += negative
            continue
        pairs = _hits(tokens, sides)
        if not all(flags):
            # the ASCII texts' pairs come first, as their tokens do
            ascii_pairs, other_pairs = iter(pairs), islice(pairs, flags.count(True), None)
            pairs = [next(ascii_pairs if flag else other_pairs) for flag in flags]
        for (head, _), (positive, negative) in zip(batch, pairs):
            detail._write_row(head, positive, negative, quote_hits)
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
