import subprocess
import sys
from pathlib import Path

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


# Run with -S: site may import typing, re or pathlib itself before the
# probe starts, which would hide the package importing them.
_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import tweetlex
lexicon = tweetlex.load_bundled_lexicon()
tweetlex.score_text("not bad at all", lexicon)
print(" ".join(sorted({"dataclasses", "difflib", "inspect", "typing"} & set(sys.modules))))
tweetlex.suggest_correction("gud", lexicon)
print("difflib" in sys.modules, tweetlex.__file__.startswith(sys.argv[1]))
"""


def test_import_leaves_out_heavy_modules_until_spell_correction():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORT_PROBE, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded, after = proc.stdout.split("\n")[:2]
    assert loaded == ""
    assert after == "True True"
