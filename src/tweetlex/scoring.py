"""Tweet text normalization, tokenization, and per-tweet scoring.

Scoring is pure word membership with one twist: when the token right
before a sentiment word is a negator, the hit is flipped to the
opposite bucket ("I am not sad" counts one positive, not one negative).
The flip looks exactly one token back; anything between the negator and
the sentiment word cancels it.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass
from typing import NamedTuple

from .corpus import Tweet
from .lexicon import Lexicon

DEFAULT_SPELL_THRESHOLD = 0.85

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
# letter/digit runs; an apostrophe survives only between two of them ("don't")
_WORD_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*")


def normalize(text: str) -> str:
    """Lowercase and strip tweet noise down to plain words.

    URLs (http/https/www) are removed outright, then @-mentions; every
    character other than letters, digits, and intra-word apostrophes
    becomes a space; whitespace runs collapse to single spaces. A
    leading '#' therefore vanishes while the tag word survives.
    Idempotent: normalizing twice changes nothing.
    """
    text = text.lower()
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    return " ".join(_WORD_RE.findall(text))


def tokenize(text: str) -> list[str]:
    """Split normalized text on whitespace into tokens, in order."""
    return text.split()


class Match(NamedTuple):
    """One scored lexicon hit; negated means the hit was flipped."""

    token: str
    negated: bool


@dataclass(frozen=True)
class TweetScore:
    """Positive/negative hits for one tweet, with the matching words."""

    tweet_id: str
    matched_positive: tuple[Match, ...] = ()
    matched_negative: tuple[Match, ...] = ()

    @property
    def positive_count(self) -> int:
        return len(self.matched_positive)

    @property
    def negative_count(self) -> int:
        return len(self.matched_negative)


def suggest_correction(
    token: str, lexicon: Lexicon, threshold: float = DEFAULT_SPELL_THRESHOLD
) -> str | None:
    """Most similar lexicon word at ratio >= threshold, else None.

    Similarity is difflib's SequenceMatcher ratio. difflib keeps the
    largest (ratio, word) pair, so a tie on the ratio goes to the
    lexicographically greatest word whatever the scan order.
    """
    hits = difflib.get_close_matches(token, lexicon.all_words(), n=1, cutoff=threshold)
    return hits[0] if hits else None


def _corrected(token: str, lexicon: Lexicon, threshold: float) -> str:
    if token in lexicon.positive_words or token in lexicon.negative_words:
        return token
    if token in lexicon.negators:
        return token
    suggestion = suggest_correction(token, lexicon, threshold)
    return suggestion if suggestion is not None else token


def score_tweet(
    tweet: Tweet,
    lexicon: Lexicon,
    *,
    spell_correct: bool = False,
    spell_threshold: float = DEFAULT_SPELL_THRESHOLD,
) -> TweetScore:
    """Count positive and negative lexicon hits in one tweet.

    Every occurrence counts independently. A sentiment word directly
    preceded by a negator lands in the opposite bucket with
    negated=True. Negators themselves never count as sentiment words.
    With spell_correct on, unknown tokens are first replaced by their
    closest lexicon word (off by default to keep results lexicon-exact).
    """
    tokens = tokenize(normalize(tweet.text))
    if spell_correct:
        tokens = [_corrected(t, lexicon, spell_threshold) for t in tokens]
    positive: list[Match] = []
    negative: list[Match] = []
    for i, token in enumerate(tokens):
        if token in lexicon.negators:
            continue
        if token in lexicon.positive_words:
            is_positive = True
        elif token in lexicon.negative_words:
            is_positive = False
        else:
            continue
        negated = i > 0 and tokens[i - 1] in lexicon.negators
        bucket = positive if is_positive != negated else negative
        bucket.append(Match(token, negated))
    return TweetScore(
        tweet_id=tweet.id,
        matched_positive=tuple(positive),
        matched_negative=tuple(negative),
    )
