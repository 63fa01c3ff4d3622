"""Every fenced ``python`` block of README.md runs against the installed API,
every ``blochspec`` line of its ``sh`` blocks runs through the CLI, and the
CLI synopsis lists every option of every subcommand."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from blochspec.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
SH_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT, flags=re.M | re.S)
            for line in block.splitlines() if line.startswith("blochspec ")]
# documented once for all commands under "Common flags"
COMMON_FLAGS = {"-h", "--help", "--output", "--format"}


def test_readme_has_a_python_example():
    assert BLOCKS


def test_readme_has_cli_examples():
    assert SH_LINES


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


@pytest.mark.parametrize("line", SH_LINES)
def test_readme_cli_example_runs(tmp_path, line):
    # in process; a pipe into head only shortens what the reader sees, and
    # every --output file goes to the test's own directory
    argv = shlex.split(line.split("|")[0])[1:]
    if "--output" in argv:
        at = argv.index("--output") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0


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
