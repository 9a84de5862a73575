import difflib
import sys
import threading
from contextlib import nullcontext
from datetime import datetime, timedelta, timezone
from unittest import mock

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
from oracle import (
    URL_PREFIXES,
    oracle_correct,
    oracle_csv_bytes,
    oracle_encode,
    oracle_normalize,
    oracle_score,
)
from tweetlex import (
    DetailCsv,
    classify,
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
            ("9'9", "9'9"),
            ("x'\x00'y", "x y"),
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

    # The next two cases pin the stop rule of the best-first search: the
    # candidates are visited by (quick_ratio, word), highest first, and
    # the search ends only once that pair is below the best (ratio, word).
    def test_a_lower_quick_ratio_can_hold_the_higher_ratio(self):
        # "dcba" holds every letter of "abcd", but only one matches in order
        assert _ratios("dcba", "abcd") == (1.0, 0.25)
        assert _ratios("abce", "abcd") == (0.75, 0.75)
        lex = make_lexicon({"dcba", "abce"}, set(), set())
        for threshold in (0.2, 0.5):
            assert suggest_correction("abcd", lex, threshold) == "abce"
            assert oracle_correct("abcd", known_words(lex), threshold) == "abce"

    def test_a_tie_goes_to_the_greater_word_of_a_lower_quick_ratio(self):
        # "aba" is visited first; "abb" ties it on the ratio, and its
        # quick_ratio equals that ratio
        assert _ratios("aba", "aab") == (1.0, 2.0 * 2 / 6)
        assert _ratios("abb", "aab") == (2.0 * 2 / 6, 2.0 * 2 / 6)
        lex = make_lexicon({"aba", "abb"}, set(), set())
        assert suggest_correction("aab", lex, 0.6) == "abb"
        assert oracle_correct("aab", known_words(lex), 0.6) == "abb"

    def test_bad_threshold_is_rejected_by_difflib(self):
        lex = make_lexicon({"good"}, set(), set())
        for threshold in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="cutoff"):
                suggest_correction("gud", lex, threshold)


def _ratios(word, token):
    """difflib's (quick_ratio, ratio) of word against token."""
    matcher = difflib.SequenceMatcher(None, word, token)
    return matcher.quick_ratio(), matcher.ratio()


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

    @pytest.mark.parametrize(
        "words",
        [{"don't", "2-faced", "a+", "x9", "Mixed", "zz"}, {"café", "naïve", "e", "é1"}],
        ids=["ascii", "non-ascii"],
    )
    def test_chars_are_every_character_of_the_words(self, words):
        assert _SpellIndex(words).chars == frozenset("".join(words))

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
        # each memo miss asks the index for its candidates exactly once,
        # "day" and "so" included, which have none
        calls = []
        real = _SpellIndex.candidates

        def counting(index, token, threshold):
            calls.append((threshold, token))
            return real(index, token, threshold)

        monkeypatch.setattr(_SpellIndex, "candidates", counting)
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

    def test_plans_are_kept_per_threshold_and_length(self):
        lex = make_lexicon(TOY_POSITIVE, TOY_NEGATIVE, TOY_NEGATORS)
        words = known_words(lex)
        # each length is first planned at 0.85, and "wim", "nt", "looove",
        # "hapyy" and "bd" reach a word at 0.6 only
        tokens = ["wim", "nt", "looove", "hapyy", "bd", "hte", "baad", "good", "gud"]
        for threshold in (0.85, 0.6, 0.85, 1.0, 0.0):
            for token in tokens:
                hits = difflib.get_close_matches(token, words, n=1, cutoff=threshold)
                assert suggest_correction(token, lex, threshold) == (
                    hits[0] if hits else None
                ), (token, threshold)
        # no toy word is long enough for 40 letters at 0.85: the empty plan
        # is kept, and the second token of that length does not rebuild it
        assert suggest_correction("a" * 40, lex, 0.85) is None
        index = lex._spell_index
        plan = index.plans[0.85, 40]
        assert plan == []
        index.buckets = None  # a rebuilt plan would iterate it
        assert suggest_correction("b" * 40, lex, 0.85) is None
        assert index.plans[0.85, 40] is plan

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


# Words the text strategies above make often: "ΑΣ" lowers to "ας" at a
# word's end and to "ασ" inside one, so a lost final sigma changes sides.
BATCH_LEX = make_lexicon({"a", "é", "ας"}, {"b", "s", "ασ"}, {"z", "not", "9"})
STAMP = datetime(2022, 3, 1, 10, 0, tzinfo=timezone.utc)
# Each piece a batch join must keep apart from its neighbours: a text's own
# NUL (the marker's character) and "\x01" (what the marker-free rejoin and
# the URL pass write), a final sigma, and a "www." before a URL. The pieces
# glue to each other, and a space parts them from the texts above, whose
# edges they would otherwise change (see tweet_text).
_glued = st.lists(
    st.sampled_from(["\x00", "\x01", "ΑΣ", "www.http://", "a", "z", "'"]),
    min_size=1, max_size=4,
).map("".join)
batch_text = st.lists(st.one_of(tweet_text, ascii_text, _glued), max_size=4).map(" ".join)


# the characters for which a CSV field is quoted, and two that the tokenizer
# treats apart: "_" (not a word character on the ASCII path) and the marker
_csv_chars = st.text(
    alphabet=st.sampled_from(list(',"\r\n_\0\x01 a9\'@:/.w')), max_size=12
)
_mixed_csv_chars = st.builds(
    "".join, st.lists(_csv_chars | st.sampled_from(["é", "ΑΣ", "\u2028", "_é_"]) | st.text(),
                      min_size=1, max_size=4),
)


class TestTokenChars:
    @given(
        texts=st.lists(_csv_chars | _mixed_csv_chars | batch_text, max_size=8),
    )
    @settings(max_examples=300)
    def test_no_token_needs_csv_quotes(self, texts):
        """No token but the marker holds a comma, quote, CR or LF, so a
        hit field of tokenizer tokens never needs quoting."""
        tokens = scoring._tokens(texts, list(map(str.isascii, texts)))
        assert tokens.count(scoring._MARK) == len(texts)
        words = [token for token in tokens if token != scoring._MARK]
        assert not [token for token in words if set(token) & set(',"\r\n')]


def oracle_rows(texts, lexicon, threshold):
    """oracle_score's (positive, negative) for each text alone, each token
    in no list first replaced by oracle_correct's answer, if any."""
    known = known_words(lexicon)
    rows = []
    for text in texts:
        tokens = oracle_normalize(text).split()
        if threshold is not None:
            answers = [oracle_correct(token, known, threshold) for token in tokens]
            tokens = [
                token if token in known or answer is None else answer
                for token, answer in zip(tokens, answers)
            ]
        rows.append(oracle_score(
            tokens, lexicon.positive_words, lexicon.negative_words, lexicon.negators
        ))
    return rows


def classify_batched(texts, lexicon, batch, threshold, out):
    """classify's result without a CSV, its result with one written to
    out, and out's bytes, with scoring._BATCH set to batch."""
    records = [(f"t{i}", STAMP, "u", text, None) for i, text in enumerate(texts)]
    with mock.patch.object(scoring, "_BATCH", batch):
        summary = classify(records, "t", lexicon, spell_threshold=threshold)
        with DetailCsv(out) as detail:
            detailed = classify(
                records, "t", lexicon, spell_threshold=threshold, detail=detail
            )
    return summary, detailed, out.read_bytes()


def oracle_detail_bytes(texts, rows):
    header = ["date", "time", "username", "tweet", "positive_words", "negative_words"]
    return oracle_csv_bytes([header] + [
        ["2022-03-01", "10:00:00", "u", text, oracle_encode(pos), oracle_encode(neg)]
        for text, (pos, neg) in zip(texts, rows)
    ])


class TestBatchEdges:
    """classify tokenizes a batch of texts in one pass, each text's tokens
    ended by a marker; every text must score as it does alone."""

    @given(
        texts=st.lists(batch_text, max_size=9),
        batch=st.integers(1, 5),
        threshold=st.sampled_from([None, 0.0, 0.85]),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_batch_size_scores_as_the_oracle(
        self, tmp_path_factory, texts, batch, threshold
    ):
        out = tmp_path_factory.mktemp("batch") / "d.csv"
        summary, detailed, written = classify_batched(
            texts, BATCH_LEX, batch, threshold, out
        )
        rows = oracle_rows(texts, BATCH_LEX, threshold)
        assert summary == detailed
        assert (summary.tweets_scored, summary.total_positive, summary.total_negative) == (
            len(texts), sum(len(pos) for pos, _ in rows), sum(len(neg) for _, neg in rows)
        )
        assert written == oracle_detail_bytes(texts, rows)
        assert [score_text(text, BATCH_LEX, spell_threshold=threshold)
                for text in texts] == rows

    @pytest.mark.parametrize("batch", [1, 2, 256])
    def test_a_negator_ending_a_text_flips_nothing_after_it(self, tmp_path, batch):
        texts = ["so not", "good"]
        summary, _, written = classify_batched(texts, TOY, batch, None, tmp_path / "d.csv")
        assert (summary.total_positive, summary.total_negative) == (1, 0)
        assert written == oracle_detail_bytes(texts, [([], []), ([("good", False)], [])])

    @pytest.mark.parametrize("batch", [1, 3])
    def test_www_before_a_url_goes_with_it(self, tmp_path, batch):
        text = "#goodwww.https://b'c"
        assert normalize(text) == "good" == oracle_normalize(text)
        # beside a text that is not ASCII, and one with a URL of its own
        texts = [text, "ΑΣ http://x not", text]
        summary, _, written = classify_batched(texts, TOY, batch, None, tmp_path / "d.csv")
        assert summary.total_positive == 2
        assert written == oracle_detail_bytes(texts, oracle_rows(texts, TOY, None))

    @pytest.mark.parametrize("threshold", [None, 0.85])
    def test_a_text_holding_nul_is_rejoined(self, tmp_path, threshold):
        texts = ["not", "a\u0000b good", "not\u0000", "sad \u0001 \u0000"]
        assert normalize(texts[1]) == "a b good"
        summary, _, written = classify_batched(
            texts, TOY, 256, threshold, tmp_path / "d.csv"
        )
        rows = oracle_rows(texts, TOY, threshold)
        assert rows[1] == ([("good", False)], []) and rows[3] == ([], [("sad", False)])
        assert (summary.total_positive, summary.total_negative) == (1, 1)
        assert written == oracle_detail_bytes(texts, rows)

    @pytest.mark.parametrize("batch", [1, 2, 256])
    def test_apostrophes_at_text_edges(self, tmp_path, batch):
        # an apostrophe that ends or starts a text is beside the join's
        # space, and a negator before it must flip nothing in the next text
        lex = make_lexicon({"good", "t", "y"}, {"bad", "x", "rock'n'roll"},
                           {"don", "9", "not"})
        texts = ["don'", "'t good", "9'", "''", "not' bad", "x'\x00'y",
                 "rock'n'roll", "'9'9'"]
        summary, detailed, written = classify_batched(
            texts, lex, batch, None, tmp_path / "d.csv"
        )
        rows = oracle_rows(texts, lex, None)
        assert rows[1] == ([("t", False), ("good", False)], [])
        assert summary == detailed
        assert (summary.total_positive, summary.total_negative) == (
            sum(len(pos) for pos, _ in rows), sum(len(neg) for _, neg in rows)
        )
        assert written == oracle_detail_bytes(texts, rows)

    def test_a_correction_to_the_marker_is_a_word(self, tmp_path):
        # with no other word, "\0" is every token's answer at ratio 0
        lex = make_lexicon({"\0"}, set(), set())
        assert suggest_correction("x", lex, 0.0) == "\0" == oracle_correct("x", {"\0"}, 0.0)
        texts = ["x y", "", "zz"]
        rows = oracle_rows(texts, lex, 0.0)
        assert rows[0] == ([("\0", False), ("\0", False)], [])
        summary, _, written = classify_batched(texts, lex, 2, 0.0, tmp_path / "d.csv")
        assert (summary.tweets_scored, summary.total_positive) == (3, 3)
        assert written == oracle_detail_bytes(texts, rows)


class TestBatchEntry:
    """_classify_batches, given the lists that _batches yields, gives
    classify's result and CSV bytes."""

    @given(
        drawn=st.lists(
            st.tuples(
                st.datetimes(
                    min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
                    timezones=st.sampled_from(
                        [timezone.utc, timezone(timedelta(hours=5, minutes=30))]
                    ),
                ),
                st.text(alphabet="u,\"é ", max_size=4),
                batch_text,
            ),
            max_size=9,
        ),
        batch=st.sampled_from([1, 2, 256]),
        with_csv=st.booleans(),
        threshold=st.sampled_from([None, 0.85]),
    )
    @settings(max_examples=200, deadline=None)
    def test_batches_give_what_classify_gives(
        self, tmp_path_factory, drawn, batch, with_csv, threshold
    ):
        records = [
            (f"t{i}", stamp, username, text, None)
            for i, (stamp, username, text) in enumerate(drawn)
        ]
        tmp = tmp_path_factory.mktemp("entry")

        def run(entry, path):
            with DetailCsv(path) if with_csv else nullcontext() as detail:
                result = entry(detail)
            return result, path.read_bytes() if with_csv else None

        def batched(detail):
            lists = list(scoring._batches(iter(records), detail))
            rows = [text if detail is None else (detail._head(stamp, username, text), text)
                    for _, stamp, username, text, _ in records]
            assert lists == [rows[at:at + batch] for at in range(0, len(rows), batch)]
            return scoring._classify_batches(lists, "t", BATCH_LEX, threshold, detail)

        with mock.patch.object(scoring, "_BATCH", batch):
            expected = run(
                lambda detail: classify(
                    iter(records), "t", BATCH_LEX, spell_threshold=threshold,
                    detail=detail,
                ),
                tmp / "classify.csv",
            )
            assert run(batched, tmp / "batches.csv") == expected
        assert expected[0].tweets_scored == len(records)
