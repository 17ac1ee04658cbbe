"""The README's examples stay in step with the package: every command line
of its Command-line block parses, and every ``us.<name>`` of its library
tour exists."""

import re
import shlex
from pathlib import Path

import unitsel
from unitsel import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _first_code_block(heading: str) -> str:
    """The body of the first fenced block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_command_line_block_parses():
    lines = [line for line in _first_code_block("Command line").splitlines() if line.startswith("unitsel ")]
    assert len(lines) >= 8
    parser = cli.build_parser()
    commands = set()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line
        commands.add(args.command)
    assert commands == {"solve", "map", "rmap", "width", "build-objective-model", "compile-cnf", "gen", "bench"}


def test_library_tour_names_exist():
    names = re.findall(r"\bus\.(\w+)", _first_code_block("Library tour"))
    assert names
    missing = [name for name in names if not hasattr(unitsel, name)]
    assert missing == []
