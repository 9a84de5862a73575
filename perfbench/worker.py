"""Timed and traced tweetlex runs for one workload, in a process of their own.

Usage: python3 perfbench/worker.py JOB.json

``run.py`` writes the job file: the checkout root, the CLI argv, the
expected outputs, the time budget and whether to trace. The worker prints
one JSON object on stdout.

Untraced, it calls ``tweetlex.cli.main`` in a closed loop (one call at a
time) until the budget is spent and reports each call's wall time, the
calibration timed between calls (see calibrate.py) and this process's peak
RSS after its first call. Traced, it alternates an untraced call with a
traced one: the same ``cli.main`` call with a span around every call into
a layer (see TRACED). Every call's output is checked against the
reference outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

from calibrate import calibrate

MIN_SAMPLES = 3
MIN_TRACED = 2

# The names cli.main reaches at call time, each with the span its calls get.
# A traced call replaces these module attributes with timing wrappers for
# its duration, so the spans time the CLI itself, unchanged otherwise. A
# name that a later version of the package no longer has is left out, and
# its layer reads 0 while cli.unaccounted_s takes its time.
TRACED = (
    ("cli", "load_lexicon", "lexicon.load"),
    ("corpus", "read_corpus", "corpus.read"),
    ("corpus", "filter_tweets", "corpus.filter"),
    ("cli", "score_tweet", "scoring.tweet"),
    ("scoring", "normalize", "scoring.normalize"),
    ("scoring", "suggest_correction", "scoring.suggest"),
    ("cli", "aggregate", "aggregate.sum"),
    ("cli", "render_summary", "report.render"),
    ("cli", "write_csv", "report.csv"),
)
# Spans whose arguments and return values the layer metrics need.
RECORDED = {"corpus.read", "corpus.filter", "scoring.suggest"}


class Tracer:
    """Spans kept in memory as [run id, name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.parent: int | None = None
        self.calls: list[tuple] = []  # (span name, args, result) of RECORDED spans

    def wrap(self, real, name: str):
        """``real`` with a span around every call."""
        spans, keep = self.spans, name in RECORDED

        def traced(*args, **kwargs):
            record = [self.run_id, name, perf_counter(), 0.0, self.parent]
            spans.append(record)
            outer, self.parent = self.parent, len(spans) - 1
            try:
                result = real(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                self.parent = outer
            if keep:
                self.calls.append((name, args, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """The package with every TRACED name wrapped, restored on exit."""
        from tweetlex import cli, corpus, scoring

        modules = {"cli": cli, "corpus": corpus, "scoring": scoring}
        saved = []
        for module_name, attr, name in TRACED:
            module = modules[module_name]
            real = getattr(module, attr, None)
            if real is not None:
                saved.append((module, attr, real))
                setattr(module, attr, self.wrap(real, name))
        try:
            yield
        finally:
            for module, attr, real in saved:
                setattr(module, attr, real)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for run_id, name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"run": run_id, "name": name, "start": start, "end": end,
                     "parent": parent}) + "\n")


def cli_call(argv: list[str], tracer: Tracer | None = None):
    """One CLI call; returns (seconds, exit code, stdout). With a tracer,
    the call is the span cli.run."""
    from tweetlex import cli

    main = tracer.wrap(cli.main, "cli.run") if tracer else cli.main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = main(argv)
        seconds = perf_counter() - start
    return seconds, code, out.getvalue()


def traced_call(argv: list[str], out_csv: str | None, tracer: Tracer):
    """One CLI call with spans; returns (exit code, stdout, layer metrics)."""
    first = len(tracer.spans)
    tracer.calls = []
    with tracer.patched():
        _, code, stdout = cli_call(argv, tracer)

    run = tracer.spans[first:]
    total: dict[str, float] = {}
    for _, name, start, end, _ in run:
        total[name] = total.get(name, 0.0) + (end - start)
    top_level = sum(end - start for _, _, start, end, parent in run if parent == first)
    tweet_us = sorted((end - start) * 1e6 for _, name, start, end, _ in run
                      if name == "scoring.tweet")
    calls: dict[str, list] = {name: [] for name in RECORDED}
    for name, args, result in tracer.calls:
        calls[name].append((args, result))
    tracer.calls = []
    records = sum(len(tweets) for _, (tweets, _) in calls["corpus.read"])
    skipped = sum(skipped for _, (_, skipped) in calls["corpus.read"])
    spell = calls["scoring.suggest"]
    layers = {
        "cli.run_s": total["cli.run"],
        "cli.unaccounted_s": total["cli.run"] - top_level,
        "lexicon.load_s": total.get("lexicon.load", 0.0),
        "corpus.read_s": total.get("corpus.read", 0.0),
        "corpus.filter_s": total.get("corpus.filter", 0.0),
        "corpus.lines_read": records + skipped,
        "corpus.lines_skipped": skipped,
        "corpus.tweets_matched": sum(len(matched) for _, matched in calls["corpus.filter"]),
        "corpus.useful_ratio": len(tweet_us) / records if records else 0.0,
        "scoring.score_s": total.get("scoring.tweet", 0.0),
        "scoring.normalize_s": total.get("scoring.normalize", 0.0),
        "scoring.tweet_us_p50": _percentile(tweet_us, 0.50),
        "scoring.tweet_us_p99": _percentile(tweet_us, 0.99),
        "scoring.spell_calls": len(spell),
        "scoring.spell_ms_per_call": (
            1e3 * total["scoring.suggest"] / len(spell) if spell else 0.0),
        "scoring.spell_found_ratio": (
            sum(found is not None for _, found in spell) / len(spell) if spell else 0.0),
        "scoring.oov_distinct_share": (
            len({args[0] for args, _ in spell}) / len(spell) if spell else 0.0),
        "aggregate.sum_s": total.get("aggregate.sum", 0.0),
        "report.render_s": total.get("report.render", 0.0),
        "report.csv_s": total.get("report.csv", 0.0),
        "report.csv_bytes": os.path.getsize(out_csv) if out_csv else 0,
    }
    return code, stdout, layers


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def check(job: dict, code: int, stdout: str) -> list[str]:
    from reference import check_csv, check_summary  # needs tests/ on sys.path

    problems = [] if code == 0 else [f"exit code {code}"]
    problems += check_summary(stdout, job["expected_summary"])
    if job["out_csv"]:
        if Path(job["out_csv"]).is_file():
            problems += check_csv(Path(job["out_csv"]), Path(job["expected_csv"]))
        else:
            problems.append("no CSV written")
    return problems


def _fresh_csv(job: dict) -> None:
    if job["out_csv"]:
        Path(job["out_csv"]).unlink(missing_ok=True)


def run(job: dict) -> dict:
    trace = job["trace"]
    tracer = Tracer()
    samples, layer_runs, problems = [], [], []
    failed = 0
    cals, traced_cals = [], []
    deadline = perf_counter() + job["seconds"]
    kind = job["calibration"]
    cal = calibrate(kind)
    while True:
        began = perf_counter()
        _fresh_csv(job)
        gc.collect()
        elapsed, code, stdout = cli_call(job["argv"])
        samples.append(elapsed)
        if len(samples) == 1:
            # A later call can raise the high-water mark through heap
            # fragmentation left by the earlier ones; a CLI user makes one call.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        after = calibrate(kind)
        cals.append((cal + after) / 2)
        cal = after
        found = check(job, code, stdout)
        failed += bool(found)
        problems += found
        if trace:
            _fresh_csv(job)
            gc.collect()
            tracer.run_id = len(layer_runs)
            traced_code, traced_stdout, layers = traced_call(
                job["argv"], job["out_csv"], tracer)
            layer_runs.append(layers)
            after = calibrate(kind)
            traced_cals.append((cal + after) / 2)
            cal = after
            found = check(job, traced_code, traced_stdout)
            if traced_stdout != stdout:
                found.append("traced summary differs from the untraced run")
            failed += bool(found)
            problems += found
        done = perf_counter()
        enough = len(samples) >= (MIN_TRACED if trace else MIN_SAMPLES)
        if enough and done + (done - began) > deadline:
            break
    result = {
        "samples": samples,
        "calibration": kind,
        "cals": cals,
        "traced_cals": traced_cals,
        "attempted": len(samples) + len(layer_runs),
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_kb": peak_rss_kb,
    }
    if trace:
        result["layer_runs"] = layer_runs
        tracer.write(Path(job["spans_path"]))
    return result


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    root = Path(job["root"])
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import tweetlex

    if root not in Path(tweetlex.__file__).resolve().parents:
        print(f"tweetlex imported from {tweetlex.__file__}, not {root}", file=sys.stderr)
        return 2
    print(json.dumps(run(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
