"""tweetlex: wordlist-based sentiment scoring for short social posts."""

from .aggregate import AggregateResult, aggregate
from .corpus import DEFAULT_LIMIT, QueryFilter, ReadCounts, Tweet, fetch, parse_utc
from .errors import (
    CorpusEmpty,
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
    load_wordlist,
)
from .report import decode_matches, encode_matches, render_summary, write_csv
from .scoring import (
    DEFAULT_SPELL_THRESHOLD,
    Match,
    TweetScore,
    normalize,
    score_tweet,
    suggest_correction,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "CorpusEmpty",
    "DEFAULT_LIMIT",
    "DEFAULT_SPELL_THRESHOLD",
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
    "decode_matches",
    "encode_matches",
    "fetch",
    "load_bundled_lexicon",
    "load_lexicon",
    "load_wordlist",
    "normalize",
    "parse_utc",
    "render_summary",
    "score_tweet",
    "suggest_correction",
    "tokenize",
    "write_csv",
]
