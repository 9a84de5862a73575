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
    better = {"run_s": "lower", "lines_per_s": "higher"}
    bench_pairs.print_summary("w", 4, 1, values, better)
    out = capsys.readouterr().out.splitlines()
    verdicts = [line for line in out if " gain " in line]
    assert [line.split()[:3] for line in verdicts] == [
        ["run_s", "gain", "claimed:"],
        ["lines_per_s", "gain", "not"],
    ]
