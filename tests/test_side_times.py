import importlib.util
import re
from pathlib import Path

from conftest import CORPUS_50

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "side_times.py"
spec = importlib.util.spec_from_file_location("side_times", SCRIPT)
side_times = importlib.util.module_from_spec(spec)
spec.loader.exec_module(side_times)

_LINE = re.compile(
    r"(wall|scoring_cpu|child_cpu): median (\d+\.\d\d) ms, quartiles (\d+\.\d\d) (\d+\.\d\d) ms"
)


def test_one_process_run_has_no_child_cpu(capsys):
    # 50 lines keep fewer than two whole batches, so the run never forks
    argv = ["classify", "--query", "covid", "--corpus", str(CORPUS_50)]
    times = side_times.sample(argv, 3)
    assert {name: len(values) for name, values in times.items()} == dict.fromkeys(
        side_times.MEASURES, 3)
    assert times["child_cpu"] == [0.0, 0.0, 0.0]
    assert all(value > 0.0 for value in times["wall"])

    assert side_times.main(["--runs", "3", *argv]) == 0
    *measures, verdict = capsys.readouterr().out.splitlines()
    parsed = {}
    for line in measures:
        name, *values = _LINE.fullmatch(line).groups()
        parsed[name] = [float(value) for value in values]
    assert list(parsed) == list(side_times.MEASURES)
    assert parsed["child_cpu"] == [0.0, 0.0, 0.0]
    median, q1, q3 = parsed["wall"]
    assert 0.0 < q1 <= median <= q3
    assert re.fullmatch(r"more CPU: scoring by \d+\.\d\d ms", verdict)
