"""The README's command-line examples, run through the CLI.

Each `$ elective ...` line in a fenced block of README.md is one example:
its stdout, tabs expanded, must be the lines that follow it, up to the
next command or the end of the block.  An example whose command ends in
a `#` note shows no output, so it is not run.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from elective.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ elective "


def _examples() -> list[tuple[str, str]]:
    """(command, shown stdout) for every example in the README's blocks."""
    found, current, inside = [], None, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            inside, current = not inside, None
        elif inside and line.startswith(PROMPT):
            current = (line[len(PROMPT) :], [])
            found.append(current)
        elif inside and current is not None:
            current[1].append(line)
    return [
        (command, "".join(f"{line}\n" for line in shown))
        for command, shown in found
        if shlex.split(command, comments=True) == shlex.split(command)
    ]


EXAMPLES = _examples()


def test_the_readme_shows_examples():
    assert ('expand "1"', "1\ninterpretable\n") in EXAMPLES


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(capsys, command, shown):
    main(shlex.split(command))
    assert capsys.readouterr().out.expandtabs() == shown
