"""tweetlex benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan_summary --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

The benchmark generates the workload's corpus from the seed, computes the
expected outputs with the independent oracle, then times the CLI in a fresh
worker process (one client, closed loop, no threads or pools). With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it reports the per-layer metrics of traced CLI calls. Times
are scaled by a calibration measured beside each call (see calibrate.py);
the raw wall times are printed too. Every metric is printed by name and
unit; the last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Results, with the machine facts
and the workload's measured properties, are also written under
``perfbench/_work/results/``, and the traced spans under
``perfbench/_work/spans/``.

``--workload all`` runs every workload with and without tracing and prints
each table; its last line sums the correctness counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_PROBES = 12
DEADLINE_S = 170  # a run must end within 180 s
# Reported times are scaled to the reference machine of calibrate.py:
# reported = measured * REFERENCE_S[kind] / calibration measured beside it.
TIME_UNITS = {"s", "ms", "us"}

# Fresh interpreter: import tweetlex and load the wordlists given as arguments.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
import tweetlex
tweetlex.load_lexicon(*sys.argv[1:4])
print(time.perf_counter() - start)
"""


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _src_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _scaled(seconds: float, cal: float, kind: str = "text") -> float:
    return seconds * REFERENCE_S[kind] / cal


def _setup_seconds(lexicon: list[str]) -> tuple[list[float], list[float]]:
    """Import-and-load times in fresh interpreters after one warm-up, with
    the calibration measured around each."""
    times, cals = [], []
    cal = calibrate("text")
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *lexicon],
            cwd=ROOT, env=_src_env(), capture_output=True, text=True, timeout=60,
            check=True,
        )
        after = calibrate("text")
        if i:
            times.append(float(proc.stdout))
            cals.append((cal + after) / 2)
        cal = after
    return times, cals


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _print_table(title: str, facts: dict, metrics: dict) -> None:
    print(title)
    for key, value in facts.items():
        print(f"  {key:<28} {value}")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")


def prepare(w, seed: int, workdir: Path, seconds: int, trace: bool):
    """Generate the corpus and its expected outputs; returns (job, expected)."""
    import corpus_gen
    import reference

    data_dir = corpus_gen.wordlist_dir(ROOT)
    corpus = corpus_gen.generate(w, seed, corpus_gen.Vocabulary(data_dir))
    corpus_path = workdir / "corpus.jsonl"
    corpus_gen.write_corpus(corpus, corpus_path)
    expected = reference.expected_outputs(w, corpus, data_dir)
    out_csv = expected_csv = None
    argv = ["classify", "--query", corpus_gen.KEYWORD, "--corpus", str(corpus_path)]
    if w.window:
        argv += ["--since", w.window[0], "--until", w.window[1]]
    if w.limit:
        argv += ["--limit", str(w.limit)]
    if w.spell:
        argv += ["--spell-correct"]
    if w.csv:
        out_csv, expected_csv = str(workdir / "details.csv"), workdir / "expected.csv"
        reference.write_expected_csv(expected, expected_csv)
        argv += ["--out-csv", out_csv]
    job = {
        "root": str(ROOT),
        "argv": argv,
        "seconds": seconds,
        "trace": trace,
        "calibration": "difflib" if w.spell else "text",
        "expected_summary": expected.summary,
        "out_csv": out_csv,
        "expected_csv": expected_csv and str(expected_csv),
        "spans_path": str(workdir / "spans.jsonl"),
    }
    return job, expected


def metric_values(result: dict, lines: int, setup: list, setup_cals: list,
                  units: dict) -> dict[str, float]:
    """End-to-end metrics for an untraced result, per-layer for a traced one."""
    kind = result["calibration"]
    run_s = statistics.median(_scaled(r, c, kind) for r, c in zip(result["samples"], result["cals"]))
    if "layer_runs" not in result:
        return {
            "setup_s": statistics.median(map(_scaled, setup, setup_cals)),
            "run_s": run_s,
            "lines_per_s": lines / run_s,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
    runs = [
        {name: _scaled(v, cal, kind) if units[name] in TIME_UNITS else v
         for name, v in layers.items()}
        for layers, cal in zip(result["layer_runs"], result["traced_cals"])
    ]
    # The traced call with the median run time, so its spans and
    # cli.unaccounted_s add up to its cli.run_s exactly.
    runs.sort(key=lambda run: run["cli.run_s"])
    values = runs[(len(runs) - 1) // 2]
    values["trace.overhead_s"] = values["cli.run_s"] - run_s
    return values


def run_one(args, started: float) -> int:
    import corpus_gen

    w = corpus_gen.WORKLOADS[args.workload]
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }
    workdir = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        job, expected = prepare(w, args.seed, workdir, args.seconds, bool(args.trace))
        job_path = workdir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        lexicon = [str(corpus_gen.wordlist_dir(ROOT) / f"{name}.txt")
                   for name in ("positive", "negative", "negators")]
        setup, setup_cals = ([], []) if args.trace else _setup_seconds(lexicon)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
        )
        if args.trace and proc.returncode == 0:
            (WORK / "spans").mkdir(exist_ok=True)
            shutil.move(job["spans_path"], WORK / "spans" / f"{w.name}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return _fail(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])

    units = _units()
    values = metric_values(result, expected.properties["lines"], setup, setup_cals, units)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    attempted, failed = result["attempted"], result["failed"]
    facts = {
        **machine,
        **{k: round(v, 4) if isinstance(v, float) else v
           for k, v in expected.properties.items()},
        "run samples": len(result["samples"]),
        "wall seconds": " ".join(f"{s:.4f}" for s in result["samples"]),
        "calibration s": " ".join(f"{c:.4f}" for c in result["cals"]),
        "error_rate": f"{failed / attempted:.4f} ({failed} of {attempted} runs)",
    }
    for problem in result["problems"]:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    _print_table(f"workload {w.name}, seed {args.seed}, trace {args.trace}", facts, metrics)

    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "machine": machine, "properties": expected.properties,
              "setup_wall_s": setup, "setup_calibration_s": setup_cals,
              **result, "metrics": metrics}
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import corpus_gen

    attempted = failed = 0
    correct = True
    for name in corpus_gen.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S + 10,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return _fail(f"{name} trace {trace} exited with code {proc.returncode}")
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    for needed in (ROOT / "src" / "tweetlex" / "__init__.py", ROOT / "tests" / "oracle.py"):
        if not needed.is_file():
            return _fail(f"not a tweetlex checkout: {needed} is missing")
    sys.path[:0] = [str(HERE), str(ROOT / "tests")]
    import corpus_gen

    if args.workload == "all":
        return run_all(args)
    if args.workload not in corpus_gen.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(corpus_gen.WORKLOADS)} or all")
    return run_one(args, started)


if __name__ == "__main__":
    sys.exit(main())
