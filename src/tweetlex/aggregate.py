"""Corpus-level aggregation of per-tweet scores into percentage shares."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .scoring import TweetScore


@dataclass(frozen=True)
class AggregateResult:
    """Totals and percentage shares for one classified topic."""

    topic: str
    tweets_scored: int
    total_positive: int
    total_negative: int
    positivity_pct: float
    negativity_pct: float
    no_signal: bool


def aggregate(scores: Iterable[TweetScore], topic: str) -> AggregateResult:
    """Sum per-tweet counts and convert them to percentage shares.

    Each share is one hundred divided by the total number of sentiment
    words found, times that side's count, so the two always sum to 100.
    When nothing matched the division is undefined; both shares are
    reported as 0.0 and no_signal is set instead of raising. The scores
    are counted as they arrive, so a stream of them is never held.
    """
    tweets = total_positive = total_negative = 0
    for score in scores:
        tweets += 1
        total_positive += len(score.matched_positive)
        total_negative += len(score.matched_negative)
    return _result(topic, tweets, total_positive, total_negative)


def _result(topic: str, tweets: int, positive: int, negative: int) -> AggregateResult:
    """The AggregateResult of tweets scored with these hit totals."""
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
