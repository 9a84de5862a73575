"""One classify pass: score each record, write its detail row, and sum
the hits into percentage shares."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .lexicon import Lexicon
from .scoring import score_text


AggregateResult = namedtuple(
    "AggregateResult",
    "topic tweets_scored total_positive total_negative"
    " positivity_pct negativity_pct no_signal",
)
AggregateResult.__doc__ = "Totals and percentage shares for one classified topic."


def classify(
    records: Iterable[tuple],
    topic: str,
    lexicon: Lexicon,
    *,
    spell_threshold: float | None = None,
    detail=None,
) -> AggregateResult:
    """Score each record with score_text and sum the hits.

    ``records`` are the (id, created_at, username, text, location)
    tuples that ``fetch`` yields; ``spell_threshold`` is passed on to
    score_text. When ``detail`` is an open DetailCsv, each record's row
    is written to it as the record is scored. Records are counted as
    they arrive, so a stream of them is never held.
    """
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
