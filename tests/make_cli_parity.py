"""Write tests/data/cli_parity.json, the command line's recorded behaviour.

Each entry is one argv list with its exit code and the sha256 of its
stdout and of its stderr, as `cli.main` produces them in process.
test_cli_parity.py replays every entry and compares the three, so any
change to the command line's output shows up there.

The argv lists are the benchmark's CLI jobs of seeds 1-3 (without its cap
probes, which are killed by a time box) and its README examples, copied
in here so that a later benchmark change cannot change the test; every
command at 3, 8 and 12 symbols on ring, quotient and constant-heavy
inputs, as text and as --json; and the refusals (symbol and universe
caps, the oracle budget, parse errors, an integer too long for text).

Run from the repository root, with the package importable:

    PYTHONPATH=src python tests/make_cli_parity.py

Regenerate only when output changes on purpose, and list the argv lists
whose entries changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from elective import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "cli_parity.json"

# Entries whose stderr is the interpreter's own text, which differs between
# Python versions; the test compares their stderr on the generating version.
INTERPRETER_TEXT = "interpreter_text"


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    digest = lambda s: hashlib.sha256(s.encode()).hexdigest()
    return {"argv": argv, "exit": code, "stdout": digest(out.getvalue()),
            "stderr": digest(err.getvalue())}


def benchmark_argvs() -> list[list[str]]:
    """The benchmark's CLI argv lists: README examples and seeds 1-3."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    seen: list[list[str]] = []
    record = lambda argv, root, time_box: seen.append(list(argv))
    spawn, workloads.spawn = workloads.spawn, record
    try:
        for seed in (1, 2, 3):
            for job in workloads.cli_jobs(seed, str(ROOT)):
                if "/cap-" not in job.id:
                    job.run(None)
    finally:
        workloads.spawn = spawn
    return seen


def names(n: int) -> list[str]:
    return [f"s{i}" for i in range(n)]


def ring(n: int) -> str:
    return " + ".join(f"s{i}*s{(i + 1) % n}'" for i in range(n))


def quotient(n: int) -> str:
    return f"({ring(n)})/({' + '.join(names(n)[::2])})"


def constant_heavy(n: int) -> str:
    return " + ".join(f"{i + 2}*s{i}" for i in range(n)) + " - 1000000007*s0*s1'"


def command_argvs() -> list[list[str]]:
    """Every command at 3, 8 and 12 symbols on three kinds of input."""
    argvs = [["nyaya", "table"]]
    for n in (3, 8, 12):
        basis = ",".join(names(n))
        argvs.append(["partition", "--symbols", basis])
        premises = [a for i in range(n) for a in ("-p", f"s{i}*s{(i + 1) % n}' = 0")]
        argvs.append(["syllogism", *premises, "--drop", "s1"])
        argvs.append(["syllogism", *premises, "--drop", "s1,s2",
                      "--conclude-for", "s0"])
        for e in (ring(n), quotient(n), constant_heavy(n)):
            argvs += [
                ["expand", e],
                ["expand", e, "--symbols", basis + ",t"],
                ["compare", e],
                ["check", f"{e} = 0"],
                ["check", f"{e} = {e}", "--max-universe", "2"],
                ["eliminate", f"{e} = 0", "--drop", "s1"],
                ["solve", f"{e} = w*s0", "--for", "w"],
                ["solve", f"{e} = w*s0", "--for", "w",
                 "--verify", "--max-universe", "2"],
            ]
    return argvs + [a + ["--json"] for a in argvs]


def refusal_argvs() -> list[tuple[list[str], bool]]:
    """Inputs the command line refuses; True where the interpreter words it."""
    wide = ring(21)
    product = "*".join(f"s{i}" for i in range(1, 19))
    refusals = [
        ["expand", wide], ["compare", wide], ["check", f"{wide} = 0"],
        ["partition", "--symbols", ",".join(names(21))],
        ["expand", "x", "--symbols", ",".join(names(21))],
        ["check", "x = x", "--max-universe", "9"],
        ["check", "x = x", "--max-universe", "-1"],
        ["solve", "x*w = y", "--for", "w", "--verify", "--max-universe", "9"],
        ["solve", "x*w = y", "--for", "w", "--verify", "--max-universe", "0"],
        ["solve", f"x*w = {product}", "--for", "w", "--verify", "--max-universe", "8"],
        ["expand", "x +"], ["expand", "x*(y"], ["expand", "X"], ["expand", ""],
        ["expand", "x $ y"], ["check", "x = y = z"],
        ["eliminate", "x*y", "--drop", "y"],
        ["solve", "x = y", "--for", "w"], ["solve", "v1*w = x", "--for", "w"],
        ["eliminate", "x = y", "--drop", "z"],
        ["syllogism", "-p", "x = y", "--drop", "Y"],
        ["expand", "x", "--symbols", "y"], ["expand", "x", "--symbols", "x,x"],
    ]
    refusals += [a + ["--json"] for a in refusals]
    long = "*".join(["2"] * 20001)  # 2**20001 has more digits than int may write
    interpreter = [["compare", long], ["expand", long, "--json"]]
    return [(a, False) for a in refusals] + [(a, True) for a in interpreter]


def main() -> None:
    cases = [(a, False) for a in benchmark_argvs() + command_argvs()] + refusal_argvs()
    entries, seen = [], set()
    for argv, interpreter in cases:
        if tuple(argv) in seen:
            continue
        seen.add(tuple(argv))
        entry = run(argv)
        if interpreter:
            entry[INTERPRETER_TEXT] = True
        entries.append(entry)
    python = "%d.%d" % sys.version_info[:2]
    lines = ",\n".join(json.dumps(e) for e in entries)  # one entry a line
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(f'{{"python": "{python}", "entries": [\n{lines}\n]}}\n')
    print(f"{len(entries)} entries written to {DATA.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
