import csv
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_lexicon
from tweetlex import DetailCsv, classify

UP_DOWN = make_lexicon({"up"}, {"down"})
STAMP = datetime(2022, 3, 1, 10, 0, tzinfo=timezone.utc)


def records_of(counts):
    """One fetch-shaped record per (positive, negative) pair, its text
    holding that many "up" and "down" words."""
    return [
        (f"t{i}", STAMP, "u", " ".join(["up"] * p + ["down"] * n), None)
        for i, (p, n) in enumerate(counts)
    ]


def classify_counts(counts, topic="t"):
    return classify(records_of(counts), topic, UP_DOWN)


counts_st = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=20
)


class TestAggregate:
    def test_three_to_one(self):
        result = classify_counts([(3, 1)], "demo")
        assert result.positivity_pct == 75.0
        assert result.negativity_pct == 25.0
        assert not result.no_signal

    def test_no_signal(self):
        result = classify_counts([(0, 0)], "demo")
        assert result.positivity_pct == 0.0
        assert result.negativity_pct == 0.0
        assert result.no_signal

    def test_empty_input(self):
        result = classify_counts([], "demo")
        assert result.tweets_scored == 0
        assert result.no_signal

    def test_totals_and_counts(self):
        result = classify_counts([(2, 0), (1, 3)], "topic")
        assert result.topic == "topic"
        assert result.tweets_scored == 2
        assert result.total_positive == 3
        assert result.total_negative == 3
        assert result.positivity_pct == pytest.approx(50.0, abs=1e-9)

    def test_records_are_streamed(self):
        drawn = []

        def stream():
            for record in records_of([(1, 0), (0, 1), (2, 2)]):
                drawn.append(record[0])
                yield record

        assert classify_counts([(1, 0), (0, 1), (2, 2)]) == classify(stream(), "t", UP_DOWN)
        assert drawn == ["t0", "t1", "t2"]

    def test_detail_gets_one_row_per_record(self, tmp_path):
        out = tmp_path / "d.csv"
        with DetailCsv(out) as detail:
            result = classify(
                records_of([(1, 0), (0, 0)]), "t", UP_DOWN, detail=detail
            )
        assert result == classify_counts([(1, 0), (0, 0)])
        with open(out, encoding="utf-8", newline="") as handle:
            assert list(csv.reader(handle))[1:] == [
                ["2022-03-01", "10:00:00", "u", "up", "up", ""],
                ["2022-03-01", "10:00:00", "u", "", "", ""],
            ]

    def test_spell_correct_is_passed_on(self):
        records = [("t0", STAMP, "u", "upp dwn", None)]
        assert classify(records, "t", UP_DOWN).no_signal
        corrected = classify(records, "t", UP_DOWN, spell_threshold=0.5)
        assert (corrected.total_positive, corrected.total_negative) == (1, 1)

    @pytest.mark.parametrize("ratio", [1.5, -0.1, float("nan")])
    def test_bad_threshold_raises_before_any_record(self, ratio):
        drawn = []

        def stream(texts):
            for i, text in enumerate(texts):
                drawn.append(text)
                yield (f"t{i}", STAMP, "u", text, None)

        # a known word, no word, a word only correction could match, and no record
        for texts in (["up"], [""], ["upp dwn"], []):
            with pytest.raises(ValueError, match="spell_threshold"):
                classify(stream(texts), "t", UP_DOWN, spell_threshold=ratio)
        assert drawn == []

    def test_bad_threshold_writes_no_detail_row(self, tmp_path):
        out = tmp_path / "d.csv"
        with DetailCsv(out) as detail:
            with pytest.raises(ValueError):
                classify(records_of([(1, 0)]), "t", UP_DOWN, spell_threshold=1.5,
                         detail=detail)
        header = b"date,time,username,tweet,positive_words,negative_words\r\n"
        assert out.read_bytes() == header

    def test_threshold_edges_are_accepted(self):
        records = [("t0", STAMP, "u", "upp dwn up", None)]
        assert classify(records, "t", UP_DOWN, spell_threshold=0.0).total_positive == 2
        exact = classify(records, "t", UP_DOWN, spell_threshold=1.0)
        assert (exact.total_positive, exact.total_negative) == (1, 0)
        assert classify([], "t", UP_DOWN, spell_threshold=1.0).no_signal

    def test_spell_correct_keyword_is_gone(self):
        with pytest.raises(TypeError, match="spell_correct"):
            classify([], "t", UP_DOWN, spell_correct=True)


class TestAggregateProperties:
    @given(counts=counts_st)
    @settings(max_examples=100)
    def test_order_independent(self, counts):
        forward = classify_counts(counts)
        backward = classify_counts(list(reversed(counts)))
        assert forward == backward

    @given(counts=counts_st, split=st.integers(0, 20))
    @settings(max_examples=100)
    def test_merge_consistent(self, counts, split):
        split = min(split, len(counts))
        left = classify_counts(counts[:split])
        right = classify_counts(counts[split:])
        combined = classify_counts(
            [
                (left.total_positive, left.total_negative),
                (right.total_positive, right.total_negative),
            ]
        )
        whole = classify_counts(counts)
        assert combined.total_positive == whole.total_positive
        assert combined.total_negative == whole.total_negative
        assert combined.positivity_pct == whole.positivity_pct
        assert combined.negativity_pct == whole.negativity_pct

    @given(counts=counts_st, extra=st.integers(1, 50))
    @settings(max_examples=100)
    def test_appending_positive_never_lowers_positivity(self, counts, extra):
        before = classify_counts(counts)
        after = classify_counts(counts + [(extra, 0)])
        assert after.positivity_pct >= before.positivity_pct

    @given(counts=counts_st.filter(lambda c: any(p + n for p, n in c)),
           factor=st.integers(1, 7))
    @settings(max_examples=100)
    def test_scaling_counts_keeps_percentages(self, counts, factor):
        base = classify_counts(counts)
        scaled = classify_counts([(p * factor, n * factor) for p, n in counts])
        assert scaled.positivity_pct == pytest.approx(base.positivity_pct, abs=1e-9)
        assert scaled.negativity_pct == pytest.approx(base.negativity_pct, abs=1e-9)

    @given(counts=counts_st)
    @settings(max_examples=100)
    def test_percentages_sum_to_hundred_or_no_signal(self, counts):
        result = classify_counts(counts)
        assert 0.0 <= result.positivity_pct <= 100.0
        assert 0.0 <= result.negativity_pct <= 100.0
        if result.no_signal:
            assert result.positivity_pct == result.negativity_pct == 0.0
        else:
            assert result.positivity_pct + result.negativity_pct == pytest.approx(
                100.0, abs=1e-9
            )
