"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with `pytest -s`). The
reference is the independent oracle in tests/oracle.py: the golden files
are its ``oracle_classify`` run (scripts/regen_golden.py writes them),
and the filter criterion recomputes its expected records in-test with
its ``oracle_read_corpus``.
"""

import ast
import csv
import functools
import importlib.util
import os
import random
import time
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import pytest

from conftest import CORPUS_50, GOLDEN_DIR, make_lexicon
from oracle import oracle_read_corpus, oracle_score
from tweetlex import (
    DetailCsv,
    QueryFilter,
    fetch,
    load_bundled_lexicon,
    parse_utc,
    score_text,
)
from tweetlex import scoring
from tweetlex.cli import main
from tweetlex.scoring import _result

COVID_IDS = [
    "t001", "t004", "t007", "t009", "t013", "t016", "t017", "t021", "t025",
    "t028", "t030", "t033", "t034", "t039", "t040", "t041", "t043", "t046",
    "t048", "t050",
]
HOSPITAL_LONDON_IDS = ["t002", "t012", "t026", "t031", "t036", "t047"]
VACCINE_MARCH_IDS = ["t024", "t027", "t029"]
LONDON_BBOX = (51.3, -0.6, 51.7, 0.3)
MARCH_WINDOW = ("2021-03-01T00:00:00Z", "2021-04-01T00:00:00Z")


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
            return result

        return wrapper

    return decorate


@criterion("1 formula fidelity")
def test_formula_fidelity():
    rng = random.Random(1405)
    start = time.perf_counter()
    for _ in range(1000):
        p, n = rng.randint(0, 100), rng.randint(0, 100)
        if p + n == 0:
            p = 1
        result = _result("t", 1, p, n)
        assert result.positivity_pct == pytest.approx(100.0 * p / (p + n), abs=1e-9)
        assert result.negativity_pct == pytest.approx(100.0 * n / (p + n), abs=1e-9)
        assert result.positivity_pct + result.negativity_pct == pytest.approx(
            100.0, abs=1e-9
        )
    assert time.perf_counter() - start < 1.0


@criterion("2 negation correctness")
def test_negation_correctness():
    lexicon = make_lexicon({"happy"}, {"sad"}, {"not"})
    positive, negative = score_text("I am not sad", lexicon)
    assert len(negative) == 0
    assert len(positive) == 1

    expectations = {
        ("not", "sad"): (1, 0, True),
        ("am", "sad"): (0, 1, False),
        ("not", "happy"): (0, 1, True),
        ("am", "happy"): (1, 0, False),
    }
    for (middle, word), (pos, neg, negated) in expectations.items():
        positive, negative = score_text(f"i am {middle} {word}", lexicon)
        assert (len(positive), len(negative)) == (pos, neg), (middle, word)
        assert positive + negative == [(word, negated)]


@criterion("3 oracle equivalence")
def test_oracle_equivalence():
    positive = frozenset({"good", "great", "happy", "love", "win"})
    negative = frozenset({"bad", "sad", "awful", "hate", "lose"})
    negators = frozenset({"not", "never"})
    lexicon = make_lexicon(positive, negative, negators)
    vocabulary = sorted(positive | negative | negators) + [
        "the", "a", "is", "i", "it", "so", "really", "very", "today",
    ]
    rng = random.Random(20210315)
    start = time.perf_counter()
    for i in range(10_000):
        tokens = rng.choices(vocabulary, k=rng.randint(0, 20))
        got = score_text(" ".join(tokens), lexicon)
        assert got == oracle_score(tokens, positive, negative, negators), i
    assert time.perf_counter() - start < 5.0


@criterion("4 lexicon scale")
def test_lexicon_scale():
    lexicon = load_bundled_lexicon()
    total = len(lexicon.positive_words) + len(lexicon.negative_words)
    assert 6500 <= total <= 7500
    for token in lexicon.positive_words | lexicon.negative_words:
        assert not any(ch.isspace() for ch in token)


def _golden_run(tmp_path, capsys):
    out_csv = tmp_path / "details.csv"
    start = time.perf_counter()
    code = main(
        ["classify", "--query", "covid", "--corpus", str(CORPUS_50),
         "--out-csv", str(out_csv)]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    stdout = capsys.readouterr().out
    golden_summary = (GOLDEN_DIR / "summary_covid.txt").read_text(encoding="utf-8")
    assert stdout == golden_summary
    assert out_csv.read_bytes() == (GOLDEN_DIR / "details_covid.csv").read_bytes()
    assert elapsed < 1.0


@criterion("5 end-to-end golden run")
def test_golden_run(tmp_path, capsys):
    _golden_run(tmp_path, capsys)


@pytest.mark.parametrize("batch", [1, 2])
def test_golden_run_through_child(tmp_path, capsys, batch):
    """With batches this small, the CLI reads all but the first records of
    the 20 in a forked child, and the run is still the golden one."""
    real_fork, forks = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with mock.patch.object(scoring, "_BATCH", batch), mock.patch.object(os, "fork", fork):
        _golden_run(tmp_path, capsys)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_regen_script_reproduces_goldens():
    """tests/golden/ holds exactly what scripts/regen_golden.py writes."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "regen_golden.py"
    spec = importlib.util.spec_from_file_location("regen_golden", script)
    regen_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen_golden)
    files = regen_golden.golden_files()
    assert sorted(files) == sorted(path.name for path in GOLDEN_DIR.iterdir())
    for name, data in files.items():
        assert data == (GOLDEN_DIR / name).read_bytes(), name


def test_references_import_no_tweetlex():
    """The goldens and every differential test rely on the oracle and the
    golden script sharing no code with the package."""
    root = Path(__file__).resolve().parents[1]
    for path in (root / "tests" / "oracle.py", root / "scripts" / "regen_golden.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert all(m.split(".")[0] != "tweetlex" for m in modules), (path, modules)


@criterion("6 csv round trip")
def test_csv_round_trip(tmp_path):
    texts = [
        "plain words",
        "commas, inside, everywhere",
        'she said "unreal" twice',
        "line one\nline two",
        'mix: comma, "quote", and\nnewline',
        "pipe|and!bang",
        "trailing space ",
    ]
    stamp = datetime(2022, 3, 1, 10, 0, tzinfo=timezone.utc)
    lexicon = load_bundled_lexicon()
    out = tmp_path / "round.csv"
    with DetailCsv(out) as detail:
        for i, text in enumerate(texts):
            detail.write(stamp, f"u{i}", text, *score_text(text, lexicon))
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == len(texts) + 1
    for i, (text, row) in enumerate(zip(texts, rows[1:])):
        assert row[2] == f"u{i}"
        assert row[3] == text


@criterion("7 degenerate inputs")
def test_degenerate_inputs(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    runs = [
        ["classify", "--query", "covid", "--corpus", str(empty)],
        ["classify", "--query", "horoscope", "--corpus", str(CORPUS_50)],
        ["classify", "--query", "schedule", "--corpus", str(CORPUS_50)],
    ]
    for args in runs:
        assert main(args) == 0, args
        out = capsys.readouterr().out
        assert "no sentiment words found" in out, args
        assert "positivity:     0.0%" in out, args


@criterion("8 filter correctness")
def test_filter_correctness():
    raw = CORPUS_50.read_bytes()
    since, until = MARCH_WINDOW
    queries = [
        (QueryFilter("vaccine", parse_utc(since), parse_utc(until)),
         {"since": since, "until": until}, VACCINE_MARCH_IDS),
        (QueryFilter("hospital", bbox=LONDON_BBOX), {"bbox": LONDON_BBOX},
         HOSPITAL_LONDON_IDS),
        (QueryFilter("covid"), {}, COVID_IDS),
    ]
    for query, bounds, pinned in queries:
        got = list(fetch(CORPUS_50, query)[0])
        assert got == oracle_read_corpus(raw, query.keyword, **bounds)[0], query
        assert [t[0] for t in got] == pinned
        # fetch yields (id, created_at, username, text, location)
        assert all(t[1].tzinfo == timezone.utc for t in got)
