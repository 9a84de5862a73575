import difflib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TOY_NEGATIVE,
    TOY_NEGATORS,
    TOY_POSITIVE,
    known_words,
    make_lexicon,
)
from oracle import URL_PREFIXES, oracle_correct, oracle_normalize, oracle_score
from tweetlex import (
    load_bundled_lexicon,
    load_lexicon,
    normalize,
    score_text,
    suggest_correction,
)
from tweetlex import scoring
from tweetlex.scoring import _NEGATIVE, _NEGATOR, _POSITIVE, _SpellIndex, _table

TOY = make_lexicon(TOY_POSITIVE, TOY_NEGATIVE, TOY_NEGATORS)

# Tweet-shaped pieces joined by whitespace. A handle never contains a URL
# prefix: normalize removes URLs before mentions, while the oracle scans
# left to right, so a URL glued inside a handle ("@foohttp://x") is the
# one kind of input on which they differ.
_word = st.text(alphabet="abeyzAÉéüßİ19", min_size=1, max_size=6)
_handle = st.text(alphabet="bo_7", min_size=1, max_size=5)
_url = st.builds(
    "{}{}".format,
    st.sampled_from(URL_PREFIXES + ("HTTPS://",)),
    st.text(alphabet="ab.co/?=1'@_", min_size=1, max_size=8),
)
_piece = st.one_of(
    _word,
    st.builds("{}'{}".format, _word, _word),
    st.builds("'{}'".format, _word),
    st.builds("#{}".format, _word),
    st.builds("@{}".format, _handle),
    st.builds("@{}'s".format, _handle),
    _url,
    st.builds("{}_{}".format, _word, _word),
    st.builds("{}_'{}".format, _word, _word),
    st.builds("_{}_".format, _word),
    st.builds("{}'{}".format, _word, _url),
    st.sampled_from(["😀", "!!", "...", "-", ":)", "'", "''", "@", "#", "'s"]),
)
_space = st.sampled_from([" ", "  ", "\n", "\t"])
tweet_text = st.lists(st.tuples(_piece, _space), max_size=12).map(
    lambda pairs: "".join(piece + space for piece, space in pairs)
)


class TestNormalize:
    def test_canonical_example(self):
        assert normalize("I am NOT sad!!") == "i am not sad"

    def test_empty(self):
        assert normalize("") == ""

    def test_urls_mentions_hashtags(self):
        assert normalize("Check https://x.co @bob #GoodNews :)") == "check goodnews"

    def test_www_url(self):
        assert normalize("see www.example.org/a?b=1 now") == "see now"

    def test_mid_hashtag_and_underscores(self):
        assert normalize("so#great snake_case") == "so great snake case"

    def test_apostrophes(self):
        assert normalize("don't STOP, rock'n'roll! 'ello") == "don't stop rock'n'roll ello"

    def test_digits_survive(self):
        assert normalize("covid19 cases x2") == "covid19 cases x2"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("@bob's party", "s party"),
            ("é'https://x", "é"),
            ("@foohttp://x", ""),
            ("@bob_www.x.com", ""),
            ("a_'b a''b", "a b a b"),
            ("İstanbul", "i stanbul"),
            ("a_'b", "a b"),
            ("don't_x", "don't x"),
            ("_'s_", "s"),
            ("@a_b's c_d", "s c d"),
            ("www.a_b c_d", "c d"),
            ("é_ß_1", "é ß 1"),
            ("x__y", "x y"),
        ],
    )
    def test_edge_cases(self, text, expected):
        assert normalize(text) == expected

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(st.text(max_size=200))
    @settings(max_examples=100)
    def test_output_shape(self, text):
        out = normalize(text)
        assert out == out.strip()
        assert "  " not in out
        assert out == out.lower()

    @given(tweet_text)
    @settings(max_examples=300)
    def test_matches_character_scanner_oracle(self, text):
        assert normalize(text) == oracle_normalize(text)


# ASCII pieces dense in what the translate tokenizer must get right. A
# URL piece starts with a space, so that no "@" or handle is glued to it
# (see tweet_text); "://" alone, with no "http" or "www." before it, is
# plain punctuation.
_ascii_piece = st.sampled_from(
    ["a", "b", "Z", "s", "9", "'", "''", "'''", "_", "@x", "@", "://", " http://a'b",
     " www.c_d", " ", "\t", "\n", "\x00", "\x1c", "\x1f", "\x7f", "-", "#", "."]
)
ascii_text = st.lists(_ascii_piece, max_size=30).map("".join)


class TestAsciiTokenizer:
    """ASCII text takes a translate-and-split path instead of _WORD_RE."""

    @given(ascii_text)
    @settings(max_examples=500)
    def test_matches_character_scanner_oracle(self, text):
        assert normalize(text) == oracle_normalize(text)

    @given(ascii_text)
    @settings(max_examples=300)
    def test_matches_the_regex_path(self, text):
        # a trailing non-ASCII word sends the same text down the regex path
        # and adds only itself as a last token
        words = normalize(text).split()
        assert normalize(text + " é").split() == words + ["é"]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("'tis", "tis"),
            ("rock'n'roll", "rock'n'roll"),
            ("a''b", "a b"),
            ("a'''b", "a b"),
            ("'", ""),
            ("don't'", "don't"),
            ("'a' 'b'", "a b"),
            ("a_'b_", "a b"),
            ("x\x1fy\x00z", "x y z"),
        ],
    )
    def test_apostrophes_and_separators(self, text, expected):
        assert normalize(text) == expected == oracle_normalize(text)

    def test_ascii_once_its_url_is_removed(self):
        text = "Good http://bücher.example/ü day, isn't it"
        assert not text.isascii()
        assert normalize(text) == "good day isn't it" == oracle_normalize(text)


class TestScoreTweet:
    """score_text on one tweet's text: (positive, negative) hit lists."""

    def test_negated_negative_flips_positive(self):
        positive, negative = score_text("I am not sad", TOY)
        assert positive == [("sad", True)]
        assert negative == []

    def test_empty_text(self):
        assert score_text("", TOY) == ([], [])

    def test_every_occurrence_counts(self):
        positive, negative = score_text("great great bad", TOY)
        assert len(positive) == 2
        assert len(negative) == 1

    def test_negated_positive_flips_negative(self):
        positive, negative = score_text("this is not good", TOY)
        assert negative == [("good", True)]
        assert positive == []

    def test_negator_gap_cancels_flip(self):
        _, negative = score_text("not very sad", TOY)
        assert negative == [("sad", False)]

    def test_double_negation_not_collapsed(self):
        positive, negative = score_text("i am not not sad", TOY)
        assert positive == [("sad", True)]
        assert negative == []

    def test_leading_negator_flips_next_word(self):
        _, negative = score_text("never happy again", TOY)
        assert negative == [("happy", True)]

    def test_negators_never_count(self):
        assert score_text("not not never", TOY) == ([], [])

    def test_counts_equal_match_lengths(self):
        # every hit is one (token, negated) pair, in text order
        positive, negative = score_text("good bad not sad love hate", TOY)
        assert positive == [("good", False), ("sad", True), ("love", False)]
        assert negative == [("bad", False), ("hate", False)]

    def test_text_is_normalized_before_scoring(self):
        positive, _ = score_text("GOOD!!! #good @good https://good.example", TOY)
        assert len(positive) == 2


FILLER_WORDS = ("the", "a", "is", "i", "it", "so", "really", "very", "today")
toy_token = st.sampled_from(
    sorted(TOY_POSITIVE | TOY_NEGATIVE | TOY_NEGATORS) + list(FILLER_WORDS)
)
# the alphabet of directly built lexicons whose three lists may overlap,
# which load_lexicon never builds
overlap_token = st.sampled_from(["aa", "bb", "cc", "dd", "ee", "ff"])


class TestScoringProperties:
    @given(tokens=st.lists(toy_token, max_size=20))
    @settings(max_examples=200)
    def test_matches_brute_force_oracle(self, tokens):
        got = score_text(" ".join(tokens), TOY)
        assert got == oracle_score(tokens, TOY_POSITIVE, TOY_NEGATIVE, TOY_NEGATORS)

    @given(
        positive=st.frozensets(overlap_token),
        negative=st.frozensets(overlap_token),
        negators=st.frozensets(overlap_token),
        tokens=st.lists(overlap_token, max_size=12),
    )
    @settings(max_examples=300)
    def test_overlapping_lists_match_oracle(self, positive, negative, negators, tokens):
        # a word in several lists counts as a negator first, then as positive
        got = score_text(" ".join(tokens), make_lexicon(positive, negative, negators))
        assert got == oracle_score(tokens, positive, negative, negators)

    @given(tokens=st.lists(toy_token, max_size=20))
    @settings(max_examples=100)
    def test_conservation(self, tokens):
        positive, negative = score_text(" ".join(tokens), TOY)
        polarized = sum(
            1
            for t in tokens
            if t not in TOY_NEGATORS and (t in TOY_POSITIVE or t in TOY_NEGATIVE)
        )
        assert len(positive) + len(negative) == polarized

    @given(tokens=st.lists(toy_token, max_size=10))
    @settings(max_examples=100)
    def test_inserting_neutral_token_cancels_flip(self, tokens):
        text = "not sad " + " ".join(tokens)
        flipped, _ = score_text(text, TOY)
        assert flipped[0] == ("sad", True)
        _, buffered = score_text("not the sad " + " ".join(tokens), TOY)
        assert buffered[0] == ("sad", False)


# Spell-correction pools: the bundled lexicon, and a toy one with repeated
# letters, a one-letter word and a word with a digit.
SPELL_LEXICONS = {
    "toy": make_lexicon(
        {"good", "goood", "aab", "abba", "x", "happy", "win2"},
        {"bad", "baaad", "sad", "sadd"},
        {"not", "never"},
    ),
    "bundled": load_bundled_lexicon(),
}
# letters, the apostrophe, and characters in no lexicon word (é, 1, 9)
_EDIT_CHARS = "abdegnoprsty'é19"


@st.composite
def _edited_word(draw, pool):
    """A lexicon word after 0-3 random insertions, deletions or substitutions."""
    chars = list(draw(st.sampled_from(pool)))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from("ids"))
        at = draw(st.integers(0, len(chars)))
        ch = draw(st.sampled_from(_EDIT_CHARS))
        if op == "i":
            chars.insert(at, ch)
        elif chars:
            at = min(at, len(chars) - 1)
            if op == "d":
                del chars[at]
            else:
                chars[at] = ch
    return "".join(chars)


def _spell_token(pool):
    return st.one_of(
        _edited_word(pool),
        st.text(alphabet="abeosd'é19", min_size=1, max_size=12),
        st.builds(str.__mul__, st.sampled_from("aoé1'"), st.integers(1, 6)),
    )


_threshold = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestSuggestCorrection:
    def test_identical_token_is_its_own_match(self):
        lex = make_lexicon({"good"}, set(), set())
        assert suggest_correction("good", lex, threshold=1.0) == "good"

    def test_gud_similarity_is_below_point_six(self):
        ratio = difflib.SequenceMatcher(None, "gud", "good").ratio()
        assert ratio == pytest.approx(4 / 7)
        lex = make_lexicon({"good"}, set(), set())
        assert suggest_correction("gud", lex, threshold=0.6) is None
        assert suggest_correction("gud", lex, threshold=0.5) == "good"

    def test_no_match_above_threshold(self, bundled_lexicon):
        best = max(
            difflib.SequenceMatcher(None, "zzz", word).ratio()
            for word in known_words(bundled_lexicon)
        )
        assert best < 0.9
        assert suggest_correction("zzz", bundled_lexicon, threshold=0.9) is None

    def test_tie_is_deterministic(self):
        lex = make_lexicon({"abc", "abd"}, set(), set())
        assert suggest_correction("ab", lex, threshold=0.5) == "abd"

    @given(data=st.data())
    @settings(max_examples=300)
    def test_equals_difflib_over_sorted_pool_toy(self, data):
        self._check_equals_difflib(SPELL_LEXICONS["toy"], data)

    # plain difflib over the 6.8k bundled words takes up to 0.1 s a token
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_difflib_over_sorted_pool_bundled(self, data):
        self._check_equals_difflib(SPELL_LEXICONS["bundled"], data)

    @staticmethod
    def _check_equals_difflib(lex, data):
        token = data.draw(_spell_token(sorted(known_words(lex))), label="token")
        threshold = data.draw(_threshold, label="threshold")
        assert suggest_correction(token, lex, threshold) == oracle_correct(
            token, known_words(lex), threshold
        )

    def test_bad_threshold_is_rejected_by_difflib(self):
        lex = make_lexicon({"good"}, set(), set())
        for threshold in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="cutoff"):
                suggest_correction("gud", lex, threshold)


def _reaching(words, token, threshold):
    """The words whose difflib ratio with token reaches threshold, measured
    as get_close_matches measures it."""
    return {
        word
        for word in words
        if difflib.SequenceMatcher(None, word, token).ratio() >= threshold
    }


# (alphabet, shortest word, longest word) for each extreme shape
_SHAPES = {
    # 64+ letters: a count still fits a one-byte field
    "words-of-64": ("abc'", 64, 72),
    # 128+ letters: each field takes two bytes
    "words-of-128": ("abcd", 128, 136),
    "alphabet-of-90": ("".join(map(chr, range(0x21, 0x7B))), 1, 12),
    # tokens of 200+ characters, where difflib junks popular characters
    "autojunk-tokens": ("abcde", 203, 215),
}


@st.composite
def _extreme_case(draw, shape):
    alphabet, shortest, longest = _SHAPES[shape]
    words = draw(
        st.lists(
            st.text(alphabet=alphabet, min_size=shortest, max_size=longest),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    if shortest >= 200:
        # at most three edits, so the token keeps 200+ characters
        token = draw(_edited_word(sorted(words)))
    else:
        token = draw(
            st.one_of(
                _edited_word(sorted(words)),
                st.text(alphabet=alphabet + "é", min_size=shortest, max_size=longest),
            )
        )
    return frozenset(words), token


class TestSpellCandidates:
    """The index's candidates are a superset of what difflib can accept."""

    @given(
        words=st.frozensets(
            st.text(alphabet="abdeo'é", min_size=1, max_size=9), min_size=1, max_size=30
        ),
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_every_word_difflib_accepts_is_a_candidate(self, words, data):
        token = data.draw(
            st.one_of(
                _edited_word(sorted(words)), st.text(alphabet="abdeoz'é1", max_size=12)
            ),
            label="token",
        )
        threshold = data.draw(_threshold, label="threshold")
        found = list(_SpellIndex(words).candidates(token, threshold))
        assert len(found) == len(set(found))
        assert _reaching(words, token, threshold) <= set(found) <= words

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_extreme_shapes_match_difflib(self, shape, data):
        words, token = data.draw(_extreme_case(shape), label="case")
        threshold = data.draw(_threshold, label="threshold")
        found = list(_SpellIndex(words).candidates(token, threshold))
        assert len(found) == len(set(found))
        assert _reaching(words, token, threshold) <= set(found)
        lex = make_lexicon(words, set(), set())
        assert suggest_correction(token, lex, threshold) == oracle_correct(
            token, words, threshold
        )


def _check_index_layout(words):
    """Every field of every holder and of distinct, read one by one."""
    chars = set("".join(words))
    indexed = []
    for la, bucket, width, _, _, holders, distinct in _SpellIndex(words).buckets:
        assert set(holders) == chars
        field = (1 << width) - 1
        for i, word in enumerate(bucket):
            assert len(word) == la
            assert distinct >> i * width & field == len(set(word))
            for ch, holder in holders.items():
                assert holder >> i * width & field == (ch in word)
        assert distinct >> len(bucket) * width == 0
        indexed += bucket
    assert sorted(indexed) == sorted(words)


class TestSpellIndexLayout:
    """Holder field i is 1 exactly where word i holds the character, and
    distinct's field i is the word's count of distinct characters."""

    @given(
        words=st.frozensets(
            st.text(alphabet="abdeo'é", min_size=1, max_size=9), min_size=1, max_size=30
        )
    )
    @settings(max_examples=100)
    def test_small_sets(self, words):
        _check_index_layout(words)

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_extreme_shapes(self, shape, data):
        _check_index_layout(data.draw(_extreme_case(shape), label="case")[0])

    # up to 420 distinct characters, none of them ASCII
    @given(
        words=st.frozensets(
            st.text(
                alphabet=st.characters(min_codepoint=0x3B1, max_codepoint=0x3B1 + 419),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_wide_non_ascii_alphabets(self, words):
        _check_index_layout(words)

    def test_bundled_and_mixed_words(self):
        # suggest_correction indexes the polarity table's keys
        _check_index_layout(_table(SPELL_LEXICONS["bundled"]))
        _check_index_layout(
            {"café", "naïve", "日本語", "x", "\0", "a" * 130, "ß" * 256}
            | {chr(0x4E00 + i) * 2 for i in range(200)}
        )


# "no" is a negator and positive, "fine" positive and negative, "meh" all three
OVERLAP = make_lexicon(
    {"good", "no", "fine", "meh"}, {"bad", "fine", "meh"}, {"not", "no", "meh"}
)


class TestPolarityTable:
    """One table lookup per token gives the answers of the three set tests:
    a negator first, then positive, then negative."""

    def test_sides(self):
        assert _table(make_lexicon(
            OVERLAP.positive_words, OVERLAP.negative_words, OVERLAP.negators
        )) == {
            "good": _POSITIVE,
            "fine": _POSITIVE,
            "bad": _NEGATIVE,
            "not": _NEGATOR,
            "no": _NEGATOR,
            "meh": _NEGATOR,
        }

    @pytest.mark.parametrize(
        "text, positive, negative",
        [
            ("no good", [], [("good", True)]),
            ("fine", [("fine", False)], []),
            ("not fine", [], [("fine", True)]),
            ("meh bad", [("bad", True)], []),
            ("good no", [("good", False)], []),
            ("no meh fine bad", [], [("fine", True), ("bad", False)]),
        ],
    )
    def test_score_tweet(self, text, positive, negative):
        assert score_text(text, OVERLAP) == (positive, negative)
        assert (positive, negative) == oracle_score(
            text.split(), OVERLAP.positive_words, OVERLAP.negative_words,
            OVERLAP.negators,
        )

    def test_corrected_keeps_every_known_token(self, monkeypatch):
        asked = []
        real = scoring.suggest_correction

        def recording(token, lexicon, threshold):
            asked.append(token)
            return real(token, lexicon, threshold)

        monkeypatch.setattr(scoring, "suggest_correction", recording)
        # at threshold 0 every other token is replaced by some lexicon word
        text = " ".join(sorted(known_words(OVERLAP)))
        assert score_text(text, OVERLAP, spell_threshold=0.0) == score_text(
            text, OVERLAP
        )
        assert asked == []
        assert score_text("goood", OVERLAP, spell_threshold=0.6) == (
            [("good", False)], []
        )
        assert score_text("zzzz good", OVERLAP, spell_threshold=0.6) == (
            [("good", False)], []
        )
        assert asked == ["goood", "zzzz"]
        assert real("zzzz", OVERLAP, 0.6) is None
        # only a None answer keeps the token: an empty word replaces it too
        empty = make_lexicon({""})
        assert real("x", empty, 0.0) == ""
        assert score_text("x", empty, spell_threshold=0.0) == ([("", False)], [])

    def test_outside_equality_hash_and_repr(self):
        lex = make_lexicon({"good", "no"}, {"bad"}, {"no"})
        fresh = make_lexicon({"good", "no"}, {"bad"}, {"no"})
        before_hash, before_repr = hash(lex), repr(lex)
        assert _table(lex) is _table(lex)
        assert fresh._polarity is None
        assert lex == fresh
        assert hash(lex) == before_hash == hash(fresh)
        assert repr(lex) == before_repr == repr(fresh)
        assert "_polarity" not in repr(lex)

    @given(token=st.text(alphabet="gobdfinemhz", max_size=6), threshold=_threshold)
    @settings(max_examples=200)
    def test_suggestions_equal_difflib_over_all_words(self, token, threshold):
        hits = difflib.get_close_matches(
            token, known_words(OVERLAP), n=1, cutoff=threshold
        )
        assert suggest_correction(token, OVERLAP, threshold) == (
            hits[0] if hits else None
        )
        # the index's pool is the table's keys: every known token, each once
        indexed = [word for b in OVERLAP._spell_index.buckets for word in b[1]]
        assert sorted(indexed) == sorted(known_words(OVERLAP))


class TestSpellMemo:
    def test_each_lexicon_keeps_its_own_answers(self, tmp_path):
        lexicons = []
        for word in ("good", "bud"):
            folder = tmp_path / word
            folder.mkdir()
            (folder / "positive.txt").write_text(word + "\n", encoding="utf-8")
            (folder / "negative.txt").write_text("awful\n", encoding="utf-8")
            (folder / "negators.txt").write_text("not\n", encoding="utf-8")
            lexicons.append(
                load_lexicon(
                    folder / "positive.txt",
                    folder / "negative.txt",
                    folder / "negators.txt",
                )
            )
        good, bud = lexicons
        assert suggest_correction("gud", good, 0.5) == "good"
        assert suggest_correction("gud", bud, 0.5) == "bud"
        assert suggest_correction("gud", good, 0.5) == "good"

    def test_each_threshold_keeps_its_own_answer(self):
        lex = make_lexicon({"good"}, set(), set())
        assert suggest_correction("gud", lex, 0.5) == "good"
        assert suggest_correction("gud", lex, 0.9) is None
        assert suggest_correction("gud", lex, 0.5) == "good"

    def test_equality_hash_and_repr_unchanged(self):
        lex = load_bundled_lexicon()
        before_hash, before_repr = hash(lex), repr(lex)
        assert suggest_correction("hapy", lex) == "happy"
        fresh = load_bundled_lexicon()
        assert lex == fresh
        assert hash(lex) == before_hash == hash(fresh)
        assert repr(lex) == before_repr == repr(fresh)

    def test_difflib_runs_once_per_threshold_and_token(self, monkeypatch):
        calls = []
        real = difflib.get_close_matches

        def counting(word, possibilities, n, cutoff):
            calls.append((cutoff, word))
            return real(word, possibilities, n=n, cutoff=cutoff)

        monkeypatch.setattr(difflib, "get_close_matches", counting)
        lex = make_lexicon({"good"}, {"bad"}, {"not"})
        texts = ("gud day", "so gud", "gud gud")
        for threshold in (0.5, 0.9):
            hits = [
                len(score_text(text, lex, spell_threshold=threshold)[0])
                for text in texts
            ]
            assert hits == ([1, 1, 2] if threshold == 0.5 else [0, 0, 0])
        distinct = {(th, tok) for th in (0.5, 0.9) for tok in ("gud", "day", "so")}
        assert sorted(calls) == sorted(distinct)

    def test_threads_share_one_lexicon(self):
        lex = SPELL_LEXICONS["toy"]
        tokens = ["gud", "baad", "goodd", "ab", "sadd", "xx", "nevr", "hapy"] * 5
        expected = [oracle_correct(t, known_words(lex), 0.6) for t in tokens]
        shared = make_lexicon(lex.positive_words, lex.negative_words, lex.negators)
        results = {}

        def work(worker):
            results[worker] = [suggest_correction(t, shared, 0.6) for t in tokens]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == {i: expected for i in range(8)}


class TestSpellCorrectedScoring:
    def test_off_by_default(self):
        lex = make_lexicon({"good"}, set(), set())
        assert score_text("gud day", lex) == ([], [])

    def test_corrects_unknown_tokens(self):
        lex = make_lexicon({"good"}, set(), set())
        positive, _ = score_text("gud day", lex, spell_threshold=0.5)
        assert positive == [("good", False)]

    def test_corrects_misspelled_negators(self):
        positive, _ = score_text("nott sad", TOY, spell_threshold=0.8)
        assert positive == [("sad", True)]

    def test_known_tokens_untouched(self):
        got = score_text("good bad", TOY, spell_threshold=0.1)
        assert got == ([("good", False)], [("bad", False)])

    @pytest.mark.parametrize("ratio", [1.5, -0.1, float("nan")])
    def test_bad_threshold_raises_on_any_text(self, ratio):
        # a known word, no word, and a word only correction could match
        for text in ("good", "", "gud day"):
            with pytest.raises(ValueError, match="spell_threshold"):
                score_text(text, TOY, spell_threshold=ratio)

    def test_threshold_edges_are_accepted(self):
        lex = make_lexicon({"good"}, set(), set())
        assert score_text("gud day", lex, spell_threshold=0.0) == (
            [("good", False), ("good", False)], []
        )
        # at 1.0 only an equal word matches
        assert score_text("gud good", lex, spell_threshold=1.0) == ([("good", False)], [])

    def test_threshold_is_keyword_only(self):
        # an old positional spell_correct=True must not become a threshold
        with pytest.raises(TypeError):
            score_text("gud day", TOY, True)
        with pytest.raises(TypeError, match="spell_correct"):
            score_text("gud day", TOY, spell_correct=True)
