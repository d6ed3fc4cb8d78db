"""README's library quick start and command-line examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from finslerkit import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang):
    """The first fenced `lang` block of the README section `## heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("finsler ")
]


def test_library_quick_start_runs():
    exec(compile(_block("Library quick start", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv[:2]) for argv in COMMANDS])
def test_command_line_example_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `geodesic --out trace.csv` writes here
    monkeypatch.delenv("FINSLER_SEED", raising=False)
    assert cli.main(argv) == 0, capsys.readouterr().err
