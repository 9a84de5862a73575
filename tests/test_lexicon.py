import codecs
import importlib.util
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import known_words
from oracle import oracle_read_wordlist_counts
from tweetlex import (
    DroppedEntriesWarning,
    EmptyWordlistWarning,
    FileUnreadable,
    UnusableLexicon,
    bundled_lexicon_dir,
    load_lexicon,
)
from tweetlex.lexicon import _read_tokens


def write_list(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadWordlist:
    def test_casefold_comments_dedup(self, tmp_path):
        path = write_list(tmp_path / "w.txt", ["good", "Great", "", "; comment", "good"])
        assert _read_tokens(path)[0] == {"good", "great"}

    def test_comments_only_is_empty_with_warning(self, tmp_path):
        path = write_list(tmp_path / "w.txt", ["; one", "; two", ""])
        with pytest.warns(EmptyWordlistWarning):
            assert _read_tokens(path)[0] == set()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileUnreadable):
            _read_tokens(tmp_path / "absent.txt")

    def test_leading_bom_is_not_part_of_first_token(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("good\nfine\n", encoding="utf-8-sig")
        expected = ({"good", "fine"}, 0, 0)
        assert _read_tokens(path) == oracle_read_wordlist_counts(path) == expected

    def test_whitespace_entries_are_dropped(self, tmp_path):
        path = write_list(tmp_path / "w.txt", ["fine", "two words", "\tok\t"])
        assert _read_tokens(path)[0] == {"fine", "ok"}

    @pytest.mark.parametrize(
        "sep",
        ["\r", "\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"],
        ids=lambda sep: f"U+{ord(sep):04X}",
    )
    def test_only_newline_ends_an_entry(self, tmp_path, sep):
        path = tmp_path / "w.txt"
        other = write_list(tmp_path / "other.txt", ["bad"])
        for bom in ("", "\ufeff"):
            path.write_text(f"{bom}good\nnice{sep}fine\n", encoding="utf-8")
            expected = ({"good"}, 0, 1)
            assert _read_tokens(path) == oracle_read_wordlist_counts(path) == expected
            lexicon = load_lexicon(path, other, other)
            assert len(lexicon.positive_words) == lexicon.source_summary.dropped == 1

    # a clean list takes the reader's one-split path; one entry with inner
    # whitespace sends the whole list through the per-entry test
    @pytest.mark.parametrize(
        "inner",
        [None, "\t", "\xa0", "\x85", "\u2028", "\u3000", "\x1c"],
        ids=lambda ch: "clean" if ch is None else f"U+{ord(ch):04X}",
    )
    def test_clean_and_dropping_lists_match_oracle(self, tmp_path, inner):
        entries = ["good", "Great", "; a note", "", "  nice\t", "good", "é"]
        if inner is not None:
            entries.insert(3, f"so{inner}so")
        path = write_list(tmp_path / "w.txt", entries)
        expected = ({"good", "great", "nice", "é"}, 1, 0 if inner is None else 1)
        assert _read_tokens(path) == oracle_read_wordlist_counts(path) == expected

    def test_loading_is_idempotent(self, tmp_path):
        path = write_list(tmp_path / "w.txt", ["b", "a", "A", "c"])
        assert _read_tokens(path)[0] == _read_tokens(path)[0]

    def test_bundled_positive_list_size(self):
        words = _read_tokens(bundled_lexicon_dir() / "positive.txt")[0]
        assert 1900 <= len(words) <= 2100


class TestLoadLexicon:
    def _paths(self, tmp_path, positive, negative, negators):
        return (
            write_list(tmp_path / "p.txt", positive),
            write_list(tmp_path / "n.txt", negative),
            write_list(tmp_path / "r.txt", negators),
        )

    def test_simple(self, tmp_path):
        lex = load_lexicon(*self._paths(tmp_path, ["good"], ["bad"], ["not"]))
        assert lex.positive_words == {"good"}
        assert lex.negative_words == {"bad"}
        assert lex.negators == {"not"}
        assert lex.source_summary.conflicts == 0

    def test_cross_list_conflicts_removed_from_both(self, tmp_path):
        lex = load_lexicon(*self._paths(tmp_path, ["odd", "good"], ["odd", "bad"], ["not"]))
        assert lex.positive_words == {"good"}
        assert lex.negative_words == {"bad"}
        assert lex.source_summary.conflicts == 1

    def test_unusable_when_nothing_survives(self, tmp_path):
        with pytest.raises(UnusableLexicon), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_lexicon(*self._paths(tmp_path, ["same"], ["same"], ["not"]))

    def test_empty_list_warns_once(self, tmp_path):
        paths = self._paths(tmp_path, ["good"], ["bad"], ["; none"])
        with pytest.warns(EmptyWordlistWarning) as caught:
            load_lexicon(*paths)
        assert len(caught) == 1

    def test_multiword_negators_rejected_with_warning(self, tmp_path):
        paths = self._paths(tmp_path, ["good"], ["bad"], ["not", "no way"])
        with pytest.warns(DroppedEntriesWarning):
            lex = load_lexicon(*paths)
        assert lex.negators == {"not"}
        assert lex.source_summary.dropped == 1

    def test_summary_counts(self, tmp_path):
        paths = self._paths(
            tmp_path, ["good", "good", "fine"], ["bad"], ["not", "never"]
        )
        lexicon = load_lexicon(*paths)
        assert len(lexicon.positive_words) == 2
        assert len(lexicon.negative_words) == 1
        assert len(lexicon.negators) == 2
        assert lexicon.source_summary.duplicates == 1


class TestBundledLexicon:
    def test_scale(self, bundled_lexicon):
        total = len(bundled_lexicon.positive_words) + len(
            bundled_lexicon.negative_words
        )
        assert 6500 <= total <= 7500

    def test_known_polarities(self, bundled_lexicon):
        assert "good" in bundled_lexicon.positive_words
        assert "sad" in bundled_lexicon.negative_words
        assert "table" not in known_words(bundled_lexicon)

    def test_negators(self, bundled_lexicon):
        assert "not" in bundled_lexicon.negators
        assert "" not in bundled_lexicon.negators
        assert "very" not in bundled_lexicon.negators

    def test_tokens_are_normalized(self, bundled_lexicon):
        for token in known_words(bundled_lexicon):
            assert token
            assert token == token.lower()
            assert not any(ch.isspace() for ch in token)

    def test_disjoint(self, bundled_lexicon):
        assert not bundled_lexicon.positive_words & bundled_lexicon.negative_words

    def test_build_script_reproduces_bundled_lists(self, tmp_path, monkeypatch):
        script = Path(__file__).resolve().parents[1] / "scripts" / "build_wordlists.py"
        spec = importlib.util.spec_from_file_location("build_wordlists", script)
        build_wordlists = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(build_wordlists)
        monkeypatch.setattr(build_wordlists, "DATA_DIR", tmp_path)
        build_wordlists.main()
        for name in ("positive.txt", "negative.txt", "negators.txt"):
            built = (tmp_path / name).read_bytes()
            assert built == (bundled_lexicon_dir() / name).read_bytes(), name


entry_text = st.text(
    alphabet=st.sampled_from(list("abcdeAB '?;")), min_size=0, max_size=8
)


# every separator str.splitlines knows, CRLF, a BOM past the start
_ODD_BYTES = [
    sep.encode()
    for sep in ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85")
] + ["\u2028".encode(), "\u2029".encode(), codecs.BOM_UTF8, b" ", b"\t", "É".encode()]
# letters whose lowercase depends on context (a final sigma) or is longer
_ODD_BYTES += ["Σ".encode(), "İ".encode()]
# a stray byte, a truncated sequence, an encoded surrogate
_INVALID_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80"]


@st.composite
def wordlist_bytes(draw):
    """Raw wordlist bytes, sometimes with a leading BOM or one invalid run."""
    pieces = draw(
        st.lists(
            st.one_of(entry_text.map(str.encode), st.sampled_from(_ODD_BYTES)),
            max_size=20,
        )
    )
    if draw(st.booleans()):
        at = draw(st.integers(0, len(pieces)))
        pieces.insert(at, draw(st.sampled_from(_INVALID_UTF8)))
    return draw(st.sampled_from([b"", codecs.BOM_UTF8])) + b"".join(pieces)


class TestLexiconProperties:
    @given(raw=wordlist_bytes())
    @settings(max_examples=200)
    def test_reader_matches_oracle_on_raw_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("raw") / "list.txt"
        path.write_bytes(raw)
        try:
            expected = oracle_read_wordlist_counts(path)
        except UnicodeDecodeError:
            expected = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                got = _read_tokens(path)
            except FileUnreadable:
                got = None
        assert got == expected

    @given(
        positive=st.lists(entry_text, max_size=20),
        negative=st.lists(entry_text, max_size=20),
        negators=st.lists(entry_text, max_size=5),
    )
    @settings(max_examples=60)
    def test_loaded_lexicon_invariants(self, tmp_path_factory, positive, negative, negators):
        tmp = tmp_path_factory.mktemp("lex")
        paths = (
            write_list(tmp / "p.txt", positive),
            write_list(tmp / "n.txt", negative),
            write_list(tmp / "r.txt", negators),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                lex = load_lexicon(*paths)
            except UnusableLexicon:
                return
            again = load_lexicon(*paths)
        assert not lex.positive_words & lex.negative_words
        for token in known_words(lex):
            assert token and token == token.lower()
            assert not any(ch.isspace() for ch in token)
        assert lex.positive_words == again.positive_words
        assert lex.negative_words == again.negative_words
        assert lex.negators == again.negators
