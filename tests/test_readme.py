"""The README's examples, run.

Each `$ elective ...` line in a fenced block of README.md is one example:
its stdout, tabs expanded, must be the lines that follow it, up to the
next command or the end of the block.  An example whose command ends in
a `#` note shows no output, so it is not run.  The fenced `python` block
is the library example: it runs as written, and gives what its comments
say.
"""

from __future__ import annotations

import re
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


def test_the_library_example_gives_what_its_comments_say(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    notes = [line.partition("#") for line in block.splitlines()]
    assert {code.strip(): note.strip() for code, _, note in notes if note} == {
        "f.is_interpretable()": "False: coefficient 2 at x*y",
        "print(sol)": "w = x*y + v1*x'*y'  where x'*y = 0",
        "verify_solved(sol, eq, 4).ok": "True, checked exhaustively",
    }
    names: dict = {}
    exec(block, names)
    assert capsys.readouterr().out == "w = x*y + v1*x'*y'  where x'*y = 0\n"
    assert names["f"].is_interpretable() is False
    assert names["verify_solved"](names["sol"], names["eq"], 4).ok is True
