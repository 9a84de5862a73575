from pathlib import Path

import pytest

from tweetlex import Lexicon, SourceSummary, load_bundled_lexicon

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"
CORPUS_50 = DATA_DIR / "tweets50.jsonl"


def make_lexicon(positive=(), negative=(), negators=()):
    """Build a Lexicon directly, skipping file I/O."""
    return Lexicon(
        positive_words=frozenset(positive),
        negative_words=frozenset(negative),
        negators=frozenset(negators),
        source_summary=SourceSummary(conflicts=0, duplicates=0, dropped=0),
    )


TOY_POSITIVE = frozenset({"good", "great", "happy", "love", "win"})
TOY_NEGATIVE = frozenset({"bad", "sad", "awful", "hate", "lose"})
TOY_NEGATORS = frozenset({"not", "never"})


@pytest.fixture
def toy_lexicon():
    return make_lexicon(TOY_POSITIVE, TOY_NEGATIVE, TOY_NEGATORS)


@pytest.fixture(scope="session")
def bundled_lexicon():
    return load_bundled_lexicon()


@pytest.fixture
def corpus_path():
    return CORPUS_50
