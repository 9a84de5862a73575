"""Seeded synthetic corpora for the tweetlex benchmark.

Every word comes from the bundled wordlists or is synthesized here:
filler words, URLs, mentions, hashtags, contractions, negators,
accented words, emoji, digits and coordinates. Nothing is downloaded.

The filler vocabulary and its Zipf ranking are fixed (built from
``VOCAB_SEED``); the workload seed drives every sampling decision. Keeping
the heavy-hitter filler words the same across seeds keeps the cost of a
run nearly seed-independent, which the benchmark's bounds rely on.

The generator never emits U+2028, U+2029, U+0085, a BOM or invalid
UTF-8: the package mis-reads those today (ROADMAP item 2) and a timed run
must not fail. Malformed lines are JSON-level defects only.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

VOCAB_SEED = 20221101
VOCAB_SIZE = 4000
MISSPELL_LENGTH = 7
ZIPF_EXPONENT = 1.0

# Word slots of a free-text tweet and what fills them, and the share of
# tweets that carry coordinates.
WORDS_PER_TWEET = (6, 18)  # inclusive range
SENTIMENT_SHARE = 0.22
NEGATOR_SHARE = 0.05
MISSPELL_SHARE = 0.02
GEO_SHARE = 0.3

KEYWORD = "#benchqz"
KEYWORD_VARIANTS = ("#benchqz", "#BenchQz", "#BENCHQZ", "#benchqz!", "(#benchqz)")

EPOCH = datetime(2021, 1, 1, tzinfo=timezone.utc)
SPAN_SECONDS = 181 * 86400  # 2021-01-01 .. 2021-07-01
WINDOW = ("2021-01-19T00:00:00Z", "2021-06-13T00:00:00Z")  # about 80% of the span

FUNCTION_WORDS = (
    "the", "a", "to", "and", "i", "it", "of", "in", "is", "you", "that", "for",
    "on", "we", "this", "my", "so", "just", "at", "be", "it's", "i'm", "you're",
    "we'll", "that's", "they've", "today", "people", "now", "new",
)
ACCENTED = (
    "café", "naïve", "jalapeño", "über", "résumé", "façade", "señor", "crème",
    "brûlée", "déjà", "açaí", "São", "Zürich", "piñata", "fiancée", "coöperate",
)
EMOJI = ("😀", "🔥", "👍", "😢", "🎉", "💔", "🙏", "😡", "✨", "🤔")
PUNCT = ("!", "?", ",", ".", "...", "!!", ":", ";")
_ONSETS = (
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t",
    "v", "w", "br", "cl", "dr", "fl", "gr", "pl", "st", "tr", "sh", "ch", "th",
)
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "oo", "ou")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "ck", "ng")
_URL_CHARS = "abcdefghijklmnoprstuvwxy0123456789"


@dataclass(frozen=True)
class Workload:
    """Input shape and CLI flags for one benchmark workload."""

    name: str
    lines: int
    keyword_share: float
    malformed_share: float
    decorate: bool  # URLs, mentions, hashtags, emoji, accents, punctuation
    window: tuple[str, str] | None = None
    limit: int | None = None  # None means the CLI default
    spell: bool = False
    csv: bool = False
    blank_share: float = 0.001
    corpus: str = ""  # workloads naming the same corpus share its lines per seed
    # When set, each tweet holds these words instead of WORDS_PER_TWEET free
    # word slots: one
    # Zipf filler word of each length listed, one misspelled lexicon word of
    # MISSPELL_LENGTH letters, two sentiment words and a negator before a
    # third, in a seeded order. Spell-correcting a token costs more the
    # longer it is, so fixed lengths keep the cost of a run the same across
    # seeds while the words themselves change.
    oov_lengths: tuple[int, ...] = ()


_SCAN = dict(
    lines=25_000,
    keyword_share=0.85,
    malformed_share=0.005,
    decorate=True,
    limit=1_000_000,
    corpus="scan",
)

# Sizes keep one CLI call near 1 s on a 2-core x86-64 box, so that a run
# holds enough calls for a steady median on a host shared with other load.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="scan_summary", **_SCAN),
        Workload(name="scan_csv", csv=True, **_SCAN),
        Workload(
            name="sample_filtered",
            lines=100_000,
            keyword_share=0.013,
            malformed_share=0.01,
            decorate=True,
            window=WINDOW,
        ),
        Workload(
            name="spell_correct",
            lines=14,
            keyword_share=1.0,
            malformed_share=0.0,
            decorate=False,
            spell=True,
            blank_share=0.0,
            oov_lengths=(3, 4, 5, 6, 8, 10),
        ),
    )
}


def wordlist_dir(root: Path) -> Path:
    return root / "src" / "tweetlex" / "data"


def _read_list(path: Path) -> list[str]:
    words = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip().lower()
        if line and not line.startswith(";"):
            words.add(line)
    return sorted(words)


class Vocabulary:
    """Bundled wordlists plus the fixed, Zipf-ranked synthetic filler."""

    def __init__(self, data_dir: Path):
        self.positive = _read_list(data_dir / "positive.txt")
        self.negative = _read_list(data_dir / "negative.txt")
        self.negators = _read_list(data_dir / "negators.txt")
        known = set(self.positive) | set(self.negative) | set(self.negators)
        self.misspellable = sorted(
            w for w in set(self.positive) | set(self.negative)
            if len(w) >= 5 and w.isalpha()
        )
        rng = random.Random(VOCAB_SEED)
        filler = [w for w in FUNCTION_WORDS if w not in known]
        seen = set(filler) | known
        while len(filler) < VOCAB_SIZE:
            word = "".join(
                rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                for _ in range(rng.randint(1, 3))
            )
            if word not in seen:
                seen.add(word)
                filler.append(word)
        self.filler = filler
        weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(filler) + 1)]
        self._zipf = {None: (filler, list(itertools.accumulate(weights)))}
        for length in {len(word) for word in filler}:
            ranked = [(word, weight) for word, weight in zip(filler, weights)
                      if len(word) == length]
            self._zipf[length] = ([word for word, _ in ranked],
                                  list(itertools.accumulate(wt for _, wt in ranked)))

    def zipf_word(self, rng: random.Random, length: int | None = None) -> str:
        """A filler word drawn by Zipf rank, optionally among one length."""
        words, cum = self._zipf[length]
        return words[bisect.bisect_right(cum, rng.random() * cum[-1])]

    def misspelled(self, rng: random.Random, length: int | None = None) -> str:
        pool = self.misspellable
        if length is not None:
            pool = [word for word in pool if len(word) == length]
        word = rng.choice(pool)
        i = rng.randrange(1, len(word) - 1)
        edit = rng.randrange(4)
        if edit == 0:  # deletion
            return word[:i] + word[i + 1:]
        if edit == 1:  # substitution
            return word[:i] + rng.choice("aeioustrnl") + word[i + 1:]
        if edit == 2:  # transposition
            return word[:i - 1] + word[i] + word[i - 1] + word[i + 1:]
        return word[:i] + rng.choice("aeioustrnl") + word[i:]  # insertion


def _styled(word: str, rng: random.Random) -> str:
    r = rng.random()
    if r < 0.10:
        word = word.capitalize()
    elif r < 0.13:
        word = word.upper()
    r = rng.random()
    if r < 0.12:
        word += rng.choice(PUNCT)
    elif r < 0.14:
        word = f'"{word}"'
    return word


def _sentiment_word(vocab: Vocabulary, rng: random.Random) -> str:
    return rng.choice(vocab.positive if rng.random() < 0.4 else vocab.negative)


def _fixed_words(w: Workload, vocab: Vocabulary, rng: random.Random) -> list[str]:
    units = [[vocab.zipf_word(rng, length)] for length in w.oov_lengths]
    units.append([vocab.misspelled(rng, MISSPELL_LENGTH)])
    units += [[_sentiment_word(vocab, rng)] for _ in range(2)]
    units.append([rng.choice(vocab.negators), _sentiment_word(vocab, rng)])
    rng.shuffle(units)
    return [word for unit in units for word in unit]


def _free_words(vocab: Vocabulary, rng: random.Random) -> list[str]:
    words: list[str] = []
    slots = rng.randint(*WORDS_PER_TWEET)
    while len(words) < slots:
        r = rng.random()
        if r < NEGATOR_SHARE:
            words.append(rng.choice(vocab.negators))
            if rng.random() < 0.6:  # most negators sit right before a sentiment word
                words.append(_sentiment_word(vocab, rng))
            continue
        r -= NEGATOR_SHARE
        if r < SENTIMENT_SHARE:
            words.append(_sentiment_word(vocab, rng))
        elif r < SENTIMENT_SHARE + MISSPELL_SHARE:
            words.append(vocab.misspelled(rng))
        else:
            words.append(vocab.zipf_word(rng))
    return words


def _tweet_text(w: Workload, vocab: Vocabulary, rng: random.Random) -> tuple[str, bool]:
    words = _fixed_words(w, vocab, rng) if w.oov_lengths else _free_words(vocab, rng)
    if w.decorate:
        words = [_styled(word, rng) for word in words]
        if rng.random() < 0.25:
            tail = "".join(rng.choice(_URL_CHARS) for _ in range(10))
            words.insert(rng.randrange(len(words) + 1),
                         rng.choice(("https://t.co/", "http://bit.ly/", "www.")) + tail)
        if rng.random() < 0.3:
            words.insert(0, f"@{vocab.zipf_word(rng)}{rng.randrange(1000)}")
        if rng.random() < 0.3:
            pool = vocab.positive if rng.random() < 0.3 else vocab.filler
            words.append("#" + rng.choice(pool[:500]))
        if rng.random() < 0.15:
            emoji = rng.choice(EMOJI)
            i = rng.randrange(len(words))
            words[i] = words[i] + emoji if rng.random() < 0.5 else emoji
        if rng.random() < 0.1:
            words.insert(rng.randrange(len(words) + 1), rng.choice(ACCENTED))
        if rng.random() < 0.05:
            words.insert(rng.randrange(len(words) + 1), str(rng.randrange(3000)))
        if rng.random() < 0.02:
            words.insert(rng.randrange(len(words) + 1),
                         f"{vocab.zipf_word(rng)}_{vocab.zipf_word(rng)}")
    has_keyword = rng.random() < w.keyword_share
    if has_keyword:
        words.insert(rng.randrange(len(words) + 1), rng.choice(KEYWORD_VARIANTS))
    text = " ".join(words)
    if w.decorate and rng.random() < 0.01:
        text = text.replace(" ", "\n", 1)
    return text, has_keyword


def _timestamp(stamp: datetime, rng: random.Random) -> str:
    r = rng.random()
    if r < 0.6:
        return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")
    if r < 0.8:
        return stamp.isoformat()
    if r < 0.9:
        return stamp.strftime("%Y-%m-%d %H:%M:%S")
    offset = timezone(timedelta(minutes=rng.choice((-300, -180, 60, 120, 330, 540))))
    return stamp.astimezone(offset).isoformat()


def _malformed(record: dict, rng: random.Random) -> str:
    kind = rng.randrange(7)
    if kind == 0:
        line = json.dumps(record, ensure_ascii=False)
        return line[: len(line) // 2]
    record = dict(record)
    if kind == 1:
        del record["text"]
    elif kind == 2:
        record["created_at"] = "not-a-date"
    elif kind == 3:
        record.pop("lon", None)
        record["lat"] = 12.5
    elif kind == 4:
        record["lat"], record["lon"] = 95.0, 10.0
    elif kind == 5:
        record["text"] = 12345
    else:
        return rng.choice(("[]", "null", "42", '"text"'))
    return json.dumps(record, ensure_ascii=False)


@dataclass
class Record:
    """One valid corpus record as generated, with its UTC timestamp."""

    id: str
    created_at: datetime
    username: str
    text: str
    has_keyword: bool


@dataclass
class Corpus:
    lines: list[str]
    records: list[Record]
    malformed: int
    blank: int


def generate(w: Workload, seed: int, vocab: Vocabulary) -> Corpus:
    """Build the corpus lines and the valid records behind them."""
    rng = random.Random(f"{w.corpus or w.name}:{seed}")
    lines: list[str] = []
    records: list[Record] = []
    malformed = blank = 0
    for i in range(w.lines):
        if rng.random() < w.blank_share:
            lines.append("")
            blank += 1
            continue
        stamp = EPOCH + timedelta(seconds=rng.randrange(SPAN_SECONDS))
        text, has_keyword = _tweet_text(w, vocab, rng)
        username = f"{vocab.zipf_word(rng)}{rng.randrange(10000)}"
        record = {
            "id": str(1_350_000_000_000_000_000 + i),
            "created_at": _timestamp(stamp, rng),
            "username": username,
            "text": text,
        }
        if rng.random() < GEO_SHARE:
            record["lat"] = round(rng.uniform(-60.0, 70.0), 4)
            record["lon"] = round(rng.uniform(-180.0, 180.0), 4)
        if rng.random() < w.malformed_share:
            lines.append(_malformed(record, rng))
            malformed += 1
            continue
        lines.append(json.dumps(record, ensure_ascii=False))
        records.append(Record(record["id"], stamp, username, text, has_keyword))
    return Corpus(lines, records, malformed, blank)


def write_corpus(corpus: Corpus, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in corpus.lines:
            handle.write(line)
            handle.write("\n")
