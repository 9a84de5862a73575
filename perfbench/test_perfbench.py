"""Tests for the benchmark's own code.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "tests"), str(ROOT / "src")]

import corpus_gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from oracle import oracle_normalize  # noqa: E402

DATA_DIR = corpus_gen.wordlist_dir(ROOT)


def small(name, lines=400):
    return dataclasses.replace(corpus_gen.WORKLOADS[name], lines=lines)


def test_same_seed_gives_byte_identical_corpora(tmp_path):
    for name in corpus_gen.WORKLOADS:
        w = small(name)
        paths = []
        for attempt in range(2):
            corpus = corpus_gen.generate(w, 5, corpus_gen.Vocabulary(DATA_DIR))
            paths.append(tmp_path / f"{name}-{attempt}.jsonl")
            corpus_gen.write_corpus(corpus, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        other = corpus_gen.generate(w, 6, corpus_gen.Vocabulary(DATA_DIR))
        assert other.lines != corpus.lines


def test_piecewise_reference_normalizer_equals_oracle():
    corpus = corpus_gen.generate(small("scan_summary", 3000), 9, corpus_gen.Vocabulary(DATA_DIR))
    normalize = reference._Normalizer()
    for record in corpus.records:
        assert normalize(record.text) == oracle_normalize(record.text).split()


def _expected(name):
    w = small(name)
    corpus = corpus_gen.generate(w, 3, corpus_gen.Vocabulary(DATA_DIR))
    return reference.expected_outputs(w, corpus, DATA_DIR)


def test_check_summary_rejects_a_tampered_summary():
    expected = _expected("scan_summary")
    assert reference.check_summary(expected.summary, expected.summary) == []
    tampered = expected.summary.replace("positive words: ", "positive words: 1", 1)
    assert reference.check_summary(tampered, expected.summary)


def test_check_csv_rejects_a_tampered_cell(tmp_path):
    expected = _expected("scan_csv")
    good = tmp_path / "expected.csv"
    reference.write_expected_csv(expected, good)
    copy = tmp_path / "copy.csv"
    shutil.copy(good, copy)
    assert reference.check_csv(copy, good) == []

    expected.rows[7][4] += "|extra"
    tampered = tmp_path / "tampered.csv"
    reference.write_expected_csv(expected, tampered)
    problems = reference.check_csv(tampered, good)
    assert len(problems) == 1 and "row 8 column 4" in problems[0]

    expected.rows.pop()
    reference.write_expected_csv(expected, tampered)
    assert reference.check_csv(tampered, good)


def test_every_emitted_metric_is_listed(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = run._units()
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        job, expected = run.prepare(small("scan_csv"), 2, tmp_path, 0, trace)
        result = worker.run(job)
        assert result["failed"] == 0, result["problems"]
        values = run.metric_values(result, expected.properties["lines"],
                                   [0.05, 0.06], [0.08, 0.09], units)
        assert set(values) == {m["name"] for m in listed}


def test_traced_call_times_the_cli_and_restores_it(tmp_path):
    from tweetlex import cli, corpus, scoring

    modules = {"cli": cli, "corpus": corpus, "scoring": scoring}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in worker.TRACED}
    job, expected = run.prepare(small("scan_csv"), 4, tmp_path, 0, True)
    code, stdout, layers = worker.traced_call(job["argv"], job["out_csv"], worker.Tracer())
    assert code == 0 and stdout == expected.summary
    assert {(m, a): getattr(modules[m], a) for m, a, _ in worker.TRACED} == before
    records = layers["corpus.lines_read"] - layers["corpus.lines_skipped"]
    assert records == expected.properties["valid_records"]
    spans = sum(layers[name] for name in (
        "cli.unaccounted_s", "lexicon.load_s", "corpus.read_s", "corpus.filter_s",
        "scoring.score_s", "aggregate.sum_s", "report.render_s", "report.csv_s"))
    assert abs(spans - layers["cli.run_s"]) < 1e-9
    assert all(layers[name] > 0 for name in (
        "lexicon.load_s", "corpus.read_s", "scoring.normalize_s", "report.csv_s"))
