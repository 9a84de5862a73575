import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetlex import Match, TweetScore, aggregate

POS = Match("up", False)
NEG = Match("down", False)


def score_of(positive, negative):
    return TweetScore((POS,) * positive, (NEG,) * negative)


counts_st = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=20
)


class TestAggregate:
    def test_three_to_one(self):
        result = aggregate([score_of(3, 1)], "demo")
        assert result.positivity_pct == 75.0
        assert result.negativity_pct == 25.0
        assert not result.no_signal

    def test_no_signal(self):
        result = aggregate([score_of(0, 0)], "demo")
        assert result.positivity_pct == 0.0
        assert result.negativity_pct == 0.0
        assert result.no_signal

    def test_empty_input(self):
        result = aggregate([], "demo")
        assert result.tweets_scored == 0
        assert result.no_signal

    def test_totals_and_counts(self):
        scores = [score_of(2, 0), score_of(1, 3)]
        result = aggregate(scores, "topic")
        assert result.topic == "topic"
        assert result.tweets_scored == 2
        assert result.total_positive == 3
        assert result.total_negative == 3
        assert result.positivity_pct == pytest.approx(50.0, abs=1e-9)


class TestAggregateProperties:
    @given(counts=counts_st)
    @settings(max_examples=100)
    def test_order_independent(self, counts):
        scores = [score_of(p, n) for p, n in counts]
        forward = aggregate(scores, "t")
        backward = aggregate(list(reversed(scores)), "t")
        assert forward == backward

    @given(counts=counts_st, split=st.integers(0, 20))
    @settings(max_examples=100)
    def test_merge_consistent(self, counts, split):
        scores = [score_of(p, n) for p, n in counts]
        split = min(split, len(scores))
        left = aggregate(scores[:split], "t")
        right = aggregate(scores[split:], "t")
        combined = aggregate(
            [
                score_of(left.total_positive, left.total_negative),
                score_of(right.total_positive, right.total_negative),
            ],
            "t",
        )
        whole = aggregate(scores, "t")
        assert combined.total_positive == whole.total_positive
        assert combined.total_negative == whole.total_negative
        assert combined.positivity_pct == whole.positivity_pct
        assert combined.negativity_pct == whole.negativity_pct

    @given(counts=counts_st, extra=st.integers(1, 50))
    @settings(max_examples=100)
    def test_appending_positive_never_lowers_positivity(self, counts, extra):
        scores = [score_of(p, n) for p, n in counts]
        before = aggregate(scores, "t")
        after = aggregate(scores + [score_of(extra, 0)], "t")
        assert after.positivity_pct >= before.positivity_pct

    @given(counts=counts_st.filter(lambda c: any(p + n for p, n in c)),
           factor=st.integers(1, 7))
    @settings(max_examples=100)
    def test_scaling_counts_keeps_percentages(self, counts, factor):
        base = aggregate([score_of(p, n) for p, n in counts], "t")
        scaled = aggregate([score_of(p * factor, n * factor) for p, n in counts], "t")
        assert scaled.positivity_pct == pytest.approx(base.positivity_pct, abs=1e-9)
        assert scaled.negativity_pct == pytest.approx(base.negativity_pct, abs=1e-9)

    @given(counts=counts_st)
    @settings(max_examples=100)
    def test_percentages_sum_to_hundred_or_no_signal(self, counts):
        result = aggregate([score_of(p, n) for p, n in counts], "t")
        assert 0.0 <= result.positivity_pct <= 100.0
        assert 0.0 <= result.negativity_pct <= 100.0
        if result.no_signal:
            assert result.positivity_pct == result.negativity_pct == 0.0
        else:
            assert result.positivity_pct + result.negativity_pct == pytest.approx(
                100.0, abs=1e-9
            )
