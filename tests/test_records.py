"""The value semantics of the five record types: repr, immutability,
equality, hashing, and the constructor paths a named tuple adds."""

import copy
import pickle
from datetime import datetime, timezone

import pytest

from conftest import make_lexicon
from tweetlex import (
    AggregateResult,
    QueryFilter,
    ReadCounts,
    SourceSummary,
    score_text,
    suggest_correction,
)
from tweetlex.scoring import _table

UTC = timezone.utc
SINCE = datetime(2021, 1, 1, tzinfo=UTC)
UNTIL = datetime(2021, 2, 1, tzinfo=UTC)


def result():
    return AggregateResult(
        topic="flu",
        tweets_scored=2,
        total_positive=3,
        total_negative=1,
        positivity_pct=75.0,
        negativity_pct=25.0,
        no_signal=False,
    )


def query():
    return QueryFilter("Flu", SINCE, UNTIL, (-1.0, -2.0, 3.0, 4.0))


def lexicon():
    return make_lexicon({"good"}, {"bad"}, {"not"})


FROZEN = {
    "AggregateResult": result,
    "SourceSummary": lambda: SourceSummary(conflicts=1, duplicates=2, dropped=3),
    "QueryFilter": query,
    "Lexicon": lexicon,
}


class TestRepr:
    def test_aggregate_result(self):
        assert repr(result()) == (
            "AggregateResult(topic='flu', tweets_scored=2, total_positive=3, "
            "total_negative=1, positivity_pct=75.0, negativity_pct=25.0, "
            "no_signal=False)"
        )

    def test_source_summary(self):
        assert repr(SourceSummary(1, 2, 3)) == (
            "SourceSummary(conflicts=1, duplicates=2, dropped=3)"
        )

    def test_query_filter(self):
        stamp = "datetime.datetime(2021, {}, 1, 0, 0, tzinfo=datetime.timezone.utc)"
        assert repr(query()) == (
            f"QueryFilter(keyword='Flu', since={stamp.format(1)}, "
            f"until={stamp.format(2)}, bbox=(-1.0, -2.0, 3.0, 4.0))"
        )

    def test_lexicon(self):
        assert repr(make_lexicon({"good"}, (), {"not"})) == (
            "Lexicon(positive_words=frozenset({'good'}), "
            "negative_words=frozenset(), negators=frozenset({'not'}), "
            "source_summary=SourceSummary(conflicts=0, duplicates=0, dropped=0))"
        )

    def test_read_counts(self):
        assert repr(ReadCounts()) == "ReadCounts(valid=0, skipped=0)"
        assert repr(ReadCounts(valid=2, skipped=1)) == "ReadCounts(valid=2, skipped=1)"


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN.keys())
class TestFrozen:
    def test_fields_cannot_be_assigned(self, make):
        record = make()
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert record == make()

    def test_equal_values_are_equal_and_hash_alike(self, make):
        assert make() == make()
        assert hash(make()) == hash(make())
        assert not make() != make()

    def test_pickle_round_trip(self, make):
        record = make()
        again = pickle.loads(pickle.dumps(record))
        assert again == record
        assert type(again) is type(record)
        assert repr(again) == repr(record)


class TestQueryFilterPaths:
    def test_replace_runs_the_checks(self):
        with pytest.raises(ValueError, match="non-empty"):
            query()._replace(keyword="")
        with pytest.raises(ValueError, match="strictly before"):
            query()._replace(until=SINCE)

    def test_make_runs_the_checks(self):
        with pytest.raises(ValueError, match="timezone-aware"):
            QueryFilter._make(["x", datetime(2021, 1, 1), None, None])

    def test_replace_lowers_the_new_keyword(self):
        changed = query()._replace(keyword="COVID")
        assert changed.matches("covid news", SINCE, (0.0, 0.0))
        assert not changed.matches("flu news", SINCE, (0.0, 0.0))

    def test_holds_nothing_but_its_fields(self):
        with pytest.raises(AttributeError):
            query()._keyword = "flu"

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda q: pickle.loads(pickle.dumps(q))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_clone_still_matches_case_insensitively(self, clone):
        again = clone(query())
        assert again == query()
        assert again.matches("FLU season", SINCE, (0.0, 0.0))
        assert not again.matches("cold season", SINCE, (0.0, 0.0))


class TestLexiconPickle:
    def test_round_trip_after_the_caches_are_built(self):
        lex = lexicon()
        before = score_text("not bad gud", lex, spell_threshold=0.5)
        again = pickle.loads(pickle.dumps(lex))
        assert again == lexicon()
        assert hash(again) == hash(lexicon())
        assert score_text("not bad gud", again, spell_threshold=0.5) == before
        assert suggest_correction("baad", again, 0.5) == "bad"

    def test_caches_are_left_out(self):
        lex = lexicon()
        fresh = pickle.dumps(lexicon())
        score_text("not bad gud", lex, spell_threshold=0.5)
        assert vars(lex)
        assert len(pickle.dumps(lex)) == len(fresh)
        for again in (pickle.loads(pickle.dumps(lex)), copy.copy(lex), copy.deepcopy(lex)):
            assert vars(again) == {}
            assert again == lex

    def test_replace_starts_without_caches(self):
        lex = lexicon()
        _table(lex)
        changed = lex._replace(positive_words=frozenset({"fine"}))
        assert changed._polarity is None
        assert score_text("fine good", changed) == ([("fine", False)], [])


class TestReadCounts:
    def test_counts_are_mutable(self):
        counts = ReadCounts()
        counts.valid += 2
        counts.skipped += 1
        assert counts == ReadCounts(valid=2, skipped=1)
        assert counts != ReadCounts(valid=2)

    def test_no_other_attribute_and_no_hash(self):
        counts = ReadCounts()
        with pytest.raises(AttributeError):
            counts.blank = 1
        with pytest.raises(TypeError):
            hash(counts)

    def test_not_equal_to_a_tuple_of_its_values(self):
        assert ReadCounts(1, 2) != (1, 2)
