"""tweetlex: wordlist-based sentiment scoring for short social posts."""

from .aggregate import AggregateResult, aggregate
from .corpus import DEFAULT_LIMIT, QueryFilter, ReadCounts, Tweet, fetch, parse_utc
from .errors import (
    DroppedEntriesWarning,
    EmptyWordlistWarning,
    FileUnreadable,
    PathUnwritable,
    TweetlexError,
    UnusableLexicon,
)
from .lexicon import (
    Lexicon,
    SourceSummary,
    bundled_lexicon_dir,
    load_bundled_lexicon,
    load_lexicon,
)
from .report import DetailCsv, encode_matches, render_summary
from .scoring import (
    DEFAULT_SPELL_THRESHOLD,
    Match,
    TweetScore,
    normalize,
    score_tweet,
    suggest_correction,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "DEFAULT_LIMIT",
    "DEFAULT_SPELL_THRESHOLD",
    "DetailCsv",
    "DroppedEntriesWarning",
    "EmptyWordlistWarning",
    "FileUnreadable",
    "Lexicon",
    "Match",
    "PathUnwritable",
    "QueryFilter",
    "ReadCounts",
    "SourceSummary",
    "Tweet",
    "TweetScore",
    "TweetlexError",
    "UnusableLexicon",
    "aggregate",
    "bundled_lexicon_dir",
    "encode_matches",
    "fetch",
    "load_bundled_lexicon",
    "load_lexicon",
    "normalize",
    "parse_utc",
    "render_summary",
    "score_tweet",
    "suggest_correction",
]
