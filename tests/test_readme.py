"""The README's library example runs and prints what the README shows."""

import re
from pathlib import Path

from conftest import GOLDEN_DIR

ROOT = Path(__file__).resolve().parents[1]


def _library_use_blocks():
    """The code block of the README's "Library use" section and the output
    block after it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code, shown = re.findall(r"^```(?:python)?\n(.*?)^```$", section, re.M | re.S)
    return code, shown


def test_library_example_prints_the_golden_summary(monkeypatch, capsys):
    code, shown = _library_use_blocks()
    monkeypatch.chdir(ROOT)  # the example names the fixture from the root
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith((GOLDEN_DIR / "summary_covid.txt").read_text(encoding="utf-8"))
    assert out == shown
