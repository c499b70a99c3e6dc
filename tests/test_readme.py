"""README's examples stay true: its library example runs, and each `stsa` command parses."""

import re
import shlex
from pathlib import Path

import pytest

from stsa.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def stsa_commands():
    """Each `stsa ...` line of the sh blocks, with backslash continuations joined."""
    lines = "\n".join(code_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("stsa ")]


def test_library_example_runs(capsys):
    (block,) = code_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert "tracks per pass" in capsys.readouterr().out


@pytest.mark.parametrize("argv", stsa_commands(), ids=" ".join)
def test_cli_example_parses(argv):
    build_parser().parse_args(argv)


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv in stsa_commands()} == {"generate", "cancel", "analyze"}
