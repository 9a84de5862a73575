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
side's failed and attempted calls, each side's median and quartiles per
metric, each followed by the median of the per-pair change/parent
ratios and how many pairs fall below and above 1 (both runs of a pair
share a seed, so this cancels what the seed alone moves), then one line
per metric saying whether a gain can be claimed, with how many pairs the
change won (ties count for neither side) and its median gain, and one
line per metric saying whether it regressed. A gain is claimed when the
change wins at least 9/10 of the pairs and its median is better than the
parent's by more than the parent's interquartile range. A metric is "worse beyond
bound" when the change's median is worse than the parent's by more than
the metric's bound times the parent's median; otherwise it is
"unresolved" when the parent's interquartile range is wider than that,
unless every change run beats every parent run, and "within bound" when
not. It exits 1 when a run fails or reports failed calls. The metric
names, directions and bounds are read from the parent's
``BENCHMARK.json``.
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


def paired_ratios(parent: list[float], change: list[float]) -> str:
    """The median of the pairs' change/parent ratios, and how many pairs
    fall below and above 1 (ties count for neither side)."""
    ratios = [c / p for p, c in zip(parent, change)]
    below, above = sum(r < 1 for r in ratios), sum(r > 1 for r in ratios)
    return (f"paired change/parent median {statistics.median(ratios):.4f}: "
            f"below 1 in {below}/{len(ratios)} pairs, above 1 in {above}")


def regression_verdict(parent: list[float], change: list[float], better: str,
                       bound: float) -> str:
    """"worse beyond bound", "unresolved" or "within bound" for one metric
    of one workload, with bound a share of the parent's median."""
    sign = 1 if better == "lower" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    allowed = bound * p_med
    if sign * (quartiles(change)[1] - p_med) > allowed:
        return "worse beyond bound"
    if p_q3 - p_q1 > allowed and not all(
        sign * (p - c) > 0 for p in parent for c in change
    ):
        return "unresolved"
    return "within bound"


def run_pairs(sides: dict, workload: str, pairs: int, first_seed: int,
              names: list[str]) -> tuple[dict, dict]:
    """Each side's values of every named metric over the pairs, and each
    side's [failed, attempted] calls, printing each run's metrics as it
    ends."""
    values = {side: {name: [] for name in names} for side in sides}
    calls = {side: [0, 0] for side in sides}
    for i in range(pairs):
        seed = first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], workload, seed)
            calls[side][0] += result["failed"]
            calls[side][1] += result["attempted"]
            metrics = result["metrics"]
            for name in names:
                values[side][name].append(metrics[name]["value"])
            shown = " ".join(f"{name}={metrics[name]['value']:.6g}" for name in names)
            print(f"{workload} seed {seed} {side:<6} failed="
                  f"{result['failed']}/{result['attempted']} {shown}", flush=True)
    return values, calls


def print_summary(workload: str, pairs: int, first_seed: int, values: dict,
                  metrics: dict, calls: dict) -> None:
    """The failed-call line, quartile lines, gain verdicts and regression
    verdicts of one workload; metrics maps each name to its
    BENCHMARK.json entry, and calls each side to its [failed, attempted]
    calls."""
    print(f"\n{workload}, {pairs} pairs, seeds {first_seed}-{first_seed + pairs - 1}")
    print("  failed calls " + "  ".join(
        f"{side} {failed}/{attempted}" for side, (failed, attempted) in calls.items()))
    gains, regressions = [], []
    for name, metric in metrics.items():
        parent, change = values["parent"][name], values["change"][name]
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        gain, parent_iqr = sign * (p_med - c_med), p_q3 - p_q1
        print(f"  {name:<12} parent median {p_med:.6g} (q1 {p_q1:.6g}, q3 {p_q3:.6g})  "
              f"change median {c_med:.6g} (q1 {c_q1:.6g}, q3 {c_q3:.6g})  "
              f"change {(c_med - p_med) / p_med:+.1%}")
        print("    " + paired_ratios(parent, change))
        claimed = gain_claimed(wins, pairs, gain, parent_iqr)
        gains.append(f"  {name:<12} gain {'' if claimed else 'not '}claimed: "
                     f"wins {wins}/{pairs} (9/10 needed), median gain {gain:.6g} "
                     f"(more than the parent IQR {parent_iqr:.6g} needed)")
        verdict = regression_verdict(parent, change, metric["better"], metric["bound"])
        regressions.append(f"  {name:<12} {verdict}: median {-gain / p_med:+.1%} "
                           f"in the worse direction, parent IQR "
                           f"{parent_iqr / p_med:.1%} of its median, "
                           f"bound {metric['bound']:.0%}")
    print("\n".join(gains + regressions), end="\n\n", flush=True)


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
    metrics = {m["name"]: m for m in spec["end_to_end"]}
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
        values, calls = run_pairs(
            sides, workload, args.pairs, args.first_seed, list(metrics))
        failed += sum(side_failed for side_failed, _ in calls.values())
        print_summary(workload, args.pairs, args.first_seed, values, metrics, calls)
    if failed:
        print(f"bench_pairs: {failed} failed calls", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
