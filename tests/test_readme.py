"""Every command in the README's CLI block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from tokengraphs.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_commands():
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("tokengraphs ")]


def test_readme_cli_block_found():
    assert len(_cli_commands()) == 7


@pytest.mark.parametrize("argv", _cli_commands(), ids=" ".join)
def test_readme_cli_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
