import tweetlex

PUBLIC_NAMES = {
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
}


def test_public_names_are_pinned_and_resolve():
    assert set(tweetlex.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 28
    assert len(tweetlex.__all__) == len(PUBLIC_NAMES)
    for name in tweetlex.__all__:
        assert hasattr(tweetlex, name), name
