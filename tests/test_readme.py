"""The README's library example runs and prints what the README shows,
and the README and the command-line parser name the same options."""

import argparse
import re
from pathlib import Path

from conftest import GOLDEN_DIR
from tweetlex.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


_LONG_OPTION = re.compile(r"--[a-z][a-z-]*[a-z]")


def _section(readme: str, title: str) -> str:
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _library_use_blocks():
    """The code block of the README's "Library use" section and the output
    block after it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = _section(readme, "Library use")
    code, shown = re.findall(r"^```(?:python)?\n(.*?)^```$", section, re.M | re.S)
    return code, shown


def test_library_example_prints_the_golden_summary(monkeypatch, capsys):
    code, shown = _library_use_blocks()
    monkeypatch.chdir(ROOT)  # the example names the fixture from the root
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith((GOLDEN_DIR / "summary_covid.txt").read_text(encoding="utf-8"))
    assert out == shown


def test_readme_and_parser_name_the_same_options():
    [subcommands] = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        option
        for parser in subcommands.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert options - set(_LONG_OPTION.findall(readme)) == set()
    named = set(_LONG_OPTION.findall(_section(readme, "Command line")))
    assert named - options == set()
