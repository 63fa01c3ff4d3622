"""Every fenced ``python`` block of README.md runs against the installed API,
and the CLI synopsis lists every option of every subcommand."""

import argparse
import re
from pathlib import Path

import pytest

from blochspec.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
# documented once for all commands under "Common flags"
COMMON_FLAGS = {"-h", "--help", "--output", "--format"}


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def synopsis() -> dict:
    """The CLI synopsis block of README.md, one joined line per command."""
    block = re.search(r"^## CLI\n\n```text\n(.*?)^```", TEXT, flags=re.M | re.S).group(1)
    lines = {}
    for line in block.splitlines():
        if line.startswith("blochspec "):
            command = line.split()[1]
            lines[command] = line
        else:  # a continuation line of the command above
            lines[command] += " " + line
    return lines


def test_cli_synopsis_lists_every_option():
    lines = synopsis()
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert list(lines) == list(commands)
    missing = {name: [flag for action in parser._actions for flag in action.option_strings
                      if flag not in COMMON_FLAGS
                      and not re.search(re.escape(flag) + r"(?![\w-])", lines[name])]
               for name, parser in commands.items()}
    assert not any(missing.values()), missing
