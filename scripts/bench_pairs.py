#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --first-seed S

``W`` names one workload, several separated by commas, or ``all`` for
every workload in the parent's ``BENCHMARK.json``. Both ``src/`` trees
are byte-compiled first, so that neither side's ``setup_s`` includes
compiling its modules. The workloads run in turn. For each, pair i runs
``perfbench/run.py --workload W --seed S+i --seconds 18 --trace 0`` in
each checkout, one run at a time; the parent goes first in even pairs
and the change in odd ones. The script prints every seed's end-to-end
metrics and, after each workload's last pair, one summary block: each
side's median and quartiles per metric, then one line per metric saying
whether a gain can be claimed, with how many pairs the change won (ties
count for neither side) and its median gain. A gain is claimed when the
change wins at least 9/10 of the pairs and its median is better than the
parent's by more than the parent's interquartile range. It exits 1 when
a run fails or reports failed calls. The metric names and directions are
read from the parent's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 18
RUN_TIMEOUT_S = 240


def compile_tree(checkout: Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(checkout / "src")],
        check=True, stdout=subprocess.DEVNULL,
    )


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The last stdout line of one untraced benchmark run, as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: run in {checkout} (seed {seed}) "
                         f"exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def gain_claimed(wins: int, pairs: int, gain: float, parent_iqr: float) -> bool:
    """Whether the change won at least 9/10 of the pairs (ties count for
    neither side) and its median gain, in the metric's better direction,
    exceeds the parent's interquartile range."""
    return 10 * wins >= 9 * pairs and gain > parent_iqr


def run_pairs(sides: dict, workload: str, pairs: int, first_seed: int,
              better: dict) -> tuple[dict, int]:
    """Each side's values of every metric over the pairs, and the failed
    calls, printing each run's metrics as it ends."""
    values = {side: {name: [] for name in better} for side in sides}
    failed = 0
    for i in range(pairs):
        seed = first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], workload, seed)
            failed += result["failed"]
            metrics = result["metrics"]
            for name in better:
                values[side][name].append(metrics[name]["value"])
            shown = " ".join(f"{name}={metrics[name]['value']:.6g}" for name in better)
            print(f"{workload} seed {seed} {side:<6} failed="
                  f"{result['failed']}/{result['attempted']} {shown}", flush=True)
    return values, failed


def print_summary(workload: str, pairs: int, first_seed: int, values: dict,
                  better: dict) -> None:
    print(f"\n{workload}, {pairs} pairs, seeds {first_seed}-{first_seed + pairs - 1}")
    verdicts = []
    for name, direction in better.items():
        parent, change = values["parent"][name], values["change"][name]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        gain, parent_iqr = sign * (p_med - c_med), p_q3 - p_q1
        print(f"  {name:<12} parent median {p_med:.6g} (q1 {p_q1:.6g}, q3 {p_q3:.6g})  "
              f"change median {c_med:.6g} (q1 {c_q1:.6g}, q3 {c_q3:.6g})  "
              f"change {(c_med - p_med) / p_med:+.1%}")
        claimed = gain_claimed(wins, pairs, gain, parent_iqr)
        verdicts.append(f"  {name:<12} gain {'' if claimed else 'not '}claimed: "
                        f"wins {wins}/{pairs} (9/10 needed), median gain {gain:.6g} "
                        f"(more than the parent IQR {parent_iqr:.6g} needed)")
    print("\n".join(verdicts), end="\n\n", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list of them, or 'all'")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; "
                     f"choose from {', '.join(known)} or all")

    for checkout in sides.values():
        compile_tree(checkout)
    failed = 0
    for workload in workloads:
        values, workload_failed = run_pairs(
            sides, workload, args.pairs, args.first_seed, better)
        failed += workload_failed
        print_summary(workload, args.pairs, args.first_seed, values, better)
    if failed:
        print(f"bench_pairs: {failed} failed calls", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
