#!/usr/bin/env python3
"""Time the two processes of tweetlex CLI runs, in this process.

    PYTHONPATH=src python3 scripts/side_times.py [--runs N] ARGV...

for example ``scripts/side_times.py --runs 30 classify --query q --corpus
c.jsonl``. After one warm-up call, it calls ``tweetlex.cli.main(ARGV)`` N
times (default 20), with stdout and stderr captured. Around each call it
takes the wall time, the CPU time (user + system) of this process, the
parent, which reads the corpus and scores its first chunk and every
other one after it (RUSAGE_SELF), and that of the children reaped during
the call: the child of a forked run, which scores the chunks between
them, and 0.0 for a run that stays in one process (RUSAGE_CHILDREN). It prints one line per measure with its
median and quartiles in ms, then which process used more CPU by median.
It exits 1 if a call does not return 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import resource
import statistics
import sys
import time

from tweetlex import cli

MEASURES = ("wall", "parent_cpu", "child_cpu")


def _clocks() -> tuple[float, float, float]:
    """The wall clock, this process's CPU and its reaped children's, in s."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        time.perf_counter(),
        own.ru_utime + own.ru_stime,
        children.ru_utime + children.ru_stime,
    )


def sample(argv: list[str], runs: int) -> dict[str, list[float]]:
    """Each measure of each of runs calls of main(argv), after a warm-up
    call, in ms; SystemExit if a call does not return 0."""
    times = {name: [] for name in MEASURES}
    for at in range(runs + 1):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = _clocks()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # the CLI's usage errors
                code = exc.code
            end = _clocks()
        if code != 0:
            sys.stderr.write(sink.getvalue())
            raise SystemExit(f"side_times: main returned {code}")
        if at:
            for name, before, after in zip(MEASURES, start, end):
                times[name].append(1000.0 * (after - before))
    return times


def report(times: dict[str, list[float]]) -> None:
    medians = {}
    for name in MEASURES:
        q1, medians[name], q3 = statistics.quantiles(times[name], n=4)
        print(f"{name}: median {medians[name]:.2f} ms, quartiles {q1:.2f} {q3:.2f} ms")
    more = "parent" if medians["parent_cpu"] >= medians["child_cpu"] else "child"
    gap = abs(medians["parent_cpu"] - medians["child_cpu"])
    print(f"more CPU: {more} by {gap:.2f} ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="the CLI's arguments")
    args = parser.parse_args(argv)
    if args.runs < 2 or not args.argv:
        parser.error("needs --runs of at least 2 and the CLI's arguments")
    report(sample(args.argv, args.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
