"""Wordlist loading into an immutable sentiment vocabulary.

Three plain-text lists drive the classifier: positive words, negative
words, and negators ("reverse terms" such as "not" that invert the
word right after them). List files hold one token per line in UTF-8;
blank lines and lines starting with ';' are ignored, and entries are
lowercased on load. This is the same layout the Hu & Liu opinion
lexicon ships in, so those files can be dropped in directly.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from pathlib import Path

from .errors import (
    DroppedEntriesWarning,
    EmptyWordlistWarning,
    FileUnreadable,
    UnusableLexicon,
)

COMMENT_PREFIX = ";"  # one character: _read_tokens tests line[0]

_DATA_DIR = Path(__file__).resolve().parent / "data"


SourceSummary = namedtuple("SourceSummary", "conflicts duplicates dropped")
SourceSummary.__doc__ = """What loading removed from the three wordlists.

``conflicts`` counts tokens found in both sentiment lists, removed from
both; ``duplicates`` repeated entries within a single file; ``dropped``
entries rejected because they contain whitespace.
"""


class Lexicon(
    namedtuple("Lexicon", "positive_words negative_words negators source_summary")
):
    """Immutable sentiment vocabulary; safe to share across workers.

    Scoring builds private caches on first use and keeps them on the
    instance, outside equality, hashing and repr, so they die with it:
    the polarity table that each token is looked up in, a copy of it
    that also knows the marker ending each text's tokens, and the
    spell-correction index with its plans and memo (``scoring.suggest_correction``).
    Pickles and copies leave them out; they are rebuilt on first use.
    """

    # class-level defaults; the instance's own __dict__ holds the built ones
    _polarity = None
    _marked = None
    _spell_index = None

    def __getstate__(self):
        return None


def _read_tokens(path) -> tuple[frozenset[str], int, int]:
    """Read one wordlist file; returns (tokens, duplicates, dropped).

    Lines end at "\n" only, as in the corpus reader, so U+0085, U+2028
    or a lone "\r" inside a line is inner whitespace and drops that
    entry. A leading byte-order mark is ignored. An empty result
    triggers an EmptyWordlistWarning but is not an error.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot read wordlist {path}: {exc}") from exc
    # Lowering maps whitespace to itself, makes no whitespace and no ";",
    # and lowers a line alone as it does inside the text, so the whole
    # text is lowered in one call; strip also drops a CRLF's "\r".
    entries = [
        line
        for line in map(str.strip, text.lower().split("\n"))
        if line and line[0] != COMMENT_PREFIX
    ]
    # Each entry is stripped and non-empty, so it splits into at least one
    # part, and the whole splits into one part per entry only if none
    # holds inner whitespace: then no entry needs a test of its own.
    if len(" ".join(entries).split()) == len(entries):
        words = entries
    else:
        words = [entry for entry in entries if len(entry.split()) == 1]
    tokens = frozenset(words)
    if not tokens:
        warnings.warn(
            f"wordlist {path} contains no usable tokens", EmptyWordlistWarning
        )
    return tokens, len(words) - len(tokens), len(entries) - len(words)


def load_lexicon(positive_path, negative_path, negators_path) -> Lexicon:
    """Load the three wordlists and resolve cross-list conflicts.

    A token listed as both positive and negative carries no usable
    polarity for binary counting, so it is removed from both sides and
    reported in the source summary. Negator entries containing
    whitespace cannot match a single token and are ignored with a
    warning. Raises UnusableLexicon when no sentiment words survive.
    """
    positive, pos_dup, pos_drop = _read_tokens(positive_path)
    negative, neg_dup, neg_drop = _read_tokens(negative_path)
    negators, rev_dup, rev_drop = _read_tokens(negators_path)

    if rev_drop:
        warnings.warn(
            f"{rev_drop} negator entries contain whitespace and were ignored",
            DroppedEntriesWarning,
        )

    conflicts = positive & negative
    if conflicts:
        positive -= conflicts
        negative -= conflicts
    if not positive and not negative:
        raise UnusableLexicon(
            "no sentiment words left after loading "
            f"{positive_path} and {negative_path}"
        )

    summary = SourceSummary(
        conflicts=len(conflicts),
        duplicates=pos_dup + neg_dup + rev_dup,
        dropped=pos_drop + neg_drop + rev_drop,
    )
    return Lexicon(
        positive_words=positive,
        negative_words=negative,
        negators=negators,
        source_summary=summary,
    )


def bundled_lexicon_dir() -> Path:
    """Directory holding the wordlists that ship with the package."""
    return _DATA_DIR


def load_bundled_lexicon() -> Lexicon:
    """Load the bundled positive/negative/negator lists."""
    return load_lexicon(
        _DATA_DIR / "positive.txt",
        _DATA_DIR / "negative.txt",
        _DATA_DIR / "negators.txt",
    )
