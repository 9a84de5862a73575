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
    "PathUnwritable",
    "QueryFilter",
    "ReadCounts",
    "SourceSummary",
    "TweetlexError",
    "UnusableLexicon",
    "bundled_lexicon_dir",
    "classify",
    "encode_matches",
    "fetch",
    "load_bundled_lexicon",
    "load_lexicon",
    "normalize",
    "parse_utc",
    "render_summary",
    "score_text",
    "suggest_correction",
}


def test_public_names_are_pinned_and_resolve():
    assert set(tweetlex.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 25
    assert len(tweetlex.__all__) == len(PUBLIC_NAMES)
    for name in tweetlex.__all__:
        assert hasattr(tweetlex, name), name
