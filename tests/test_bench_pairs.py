import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize(
    "wins, pairs, gain, parent_iqr, claimed",
    [
        (10, 10, 0.02, 0.01, True),
        (9, 10, 0.02, 0.01, True),
        (8, 10, 0.02, 0.01, False),
        (18, 20, 0.02, 0.01, True),
        (17, 20, 0.02, 0.01, False),
        (10, 10, 0.01, 0.01, False),
        (10, 10, -0.02, 0.01, False),
        (3, 3, 0.02, 0.01, True),
        (2, 3, 0.02, 0.01, False),
    ],
)
def test_gain_claim_rule(wins, pairs, gain, parent_iqr, claimed):
    assert bench_pairs.gain_claimed(wins, pairs, gain, parent_iqr) is claimed


def test_summary_prints_one_verdict_per_metric(capsys):
    values = {
        "parent": {"run_s": [1.0, 1.1, 1.2, 1.0], "lines_per_s": [5.0, 5.0, 5.0, 5.0]},
        "change": {"run_s": [0.5, 0.6, 0.7, 0.5], "lines_per_s": [5.0, 5.0, 5.0, 5.0]},
    }
    metrics = {
        "run_s": {"better": "lower", "bound": 0.25},
        "lines_per_s": {"better": "higher", "bound": 0.25},
    }
    calls = {"parent": [0, 400], "change": [0, 400]}
    bench_pairs.print_summary("w", 4, 1, values, metrics, calls)
    out = capsys.readouterr().out.splitlines()
    verdicts = [line for line in out if " gain " in line]
    assert [line.split()[:3] for line in verdicts] == [
        ["run_s", "gain", "claimed:"],
        ["lines_per_s", "gain", "not"],
    ]
    regressions = [line.split(":")[0].split(None, 1) for line in out if "bound" in line]
    assert regressions == [["run_s", "within bound"], ["lines_per_s", "within bound"]]


def test_summary_prints_each_sides_failed_calls(capsys, monkeypatch):
    """Each side's failed and attempted calls are summed over the pairs
    and printed apart, so a failure on one side is not hidden by the
    other's."""
    runs = {("parent", 7): (0, 100), ("change", 7): (2, 90),
            ("parent", 8): (1, 120), ("change", 8): (0, 80)}

    def run_once(checkout, workload, seed):
        failed, attempted = runs[checkout, seed]
        return {"failed": failed, "attempted": attempted,
                "metrics": {"run_s": {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    sides = {"parent": "parent", "change": "change"}
    values, calls = bench_pairs.run_pairs(sides, "w", 2, 7, ["run_s"])
    assert calls == {"parent": [1, 220], "change": [2, 170]}
    capsys.readouterr()
    metrics = {"run_s": {"better": "lower", "bound": 0.25}}
    bench_pairs.print_summary("w", 2, 7, values, metrics, calls)
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "  failed calls parent 1/220  change 2/170"


def test_summary_prints_paired_ratios(capsys):
    """Under each metric's quartile line: the median change/parent ratio
    of the pairs, and how many pairs fall on each side of 1."""
    values = {"parent": {"run_s": [1.0, 2.0, 4.0, 1.0]},
              "change": {"run_s": [0.9, 2.2, 3.6, 1.0]}}
    metrics = {"run_s": {"better": "lower", "bound": 0.25}}
    bench_pairs.print_summary("w", 4, 1, values, metrics, {"parent": [0, 4], "change": [0, 4]})
    out = capsys.readouterr().out.splitlines()
    # ratios 0.9, 1.1, 0.9 and 1.0: the tie counts for neither side
    assert out[3].startswith("  run_s        parent median 1.5 ")
    assert out[4] == "    paired change/parent median 0.9500: below 1 in 2/4 pairs, above 1 in 1"


PARENT = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]


@pytest.mark.parametrize(
    "parent, change, better, verdict",
    [
        # medians 1.0 and 1.2 against a 10% bound
        (PARENT, [x + 0.2 for x in PARENT], "lower", "worse beyond bound"),
        (PARENT, [x - 0.2 for x in PARENT], "higher", "worse beyond bound"),
        (PARENT, [x + 0.08 for x in PARENT], "lower", "within bound"),
        (PARENT, [x - 0.3 for x in PARENT], "lower", "within bound"),
        # a parent IQR of 0.4 is wider than the 0.1 the bound allows
        ([0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.6, 1.4], [1.0] * 8, "lower", "unresolved"),
        ([0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.6, 1.4], [0.9] * 8, "higher", "unresolved"),
        # ... unless every change run beats every parent run
        ([0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.6, 1.4], [0.5] * 8, "lower", "within bound"),
        ([0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.6, 1.4], [1.5] * 8, "higher", "within bound"),
        # worse beyond the bound is reported whatever the spread
        ([0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.6, 1.4], [1.2] * 8, "lower", "worse beyond bound"),
    ],
)
def test_regression_verdict(parent, change, better, verdict):
    assert bench_pairs.regression_verdict(parent, change, better, 0.1) == verdict
