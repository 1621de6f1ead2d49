"""The command line's output, byte for byte, against its recorded entries.

tests/data/cli_parity.json holds one entry per argv list: the exit code
and the sha256 of stdout and of stderr (make_cli_parity.py writes it).
Every entry is replayed through `cli.main` in process.
"""

import json
import sys
from pathlib import Path

from make_cli_parity import DATA, INTERPRETER_TEXT, run


def test_every_recorded_invocation_gives_the_same_exit_code_stdout_and_stderr():
    doc = json.loads(Path(DATA).read_text())
    same_python = doc["python"] == "%d.%d" % sys.version_info[:2]
    differ = []
    for want in doc["entries"]:
        got = run(want["argv"])
        fields = ["exit", "stdout"]
        if same_python or not want.get(INTERPRETER_TEXT):
            fields.append("stderr")
        wrong = [f for f in fields if got[f] != want[f]]
        if wrong:
            differ.append((" ".join(want["argv"])[:120], wrong))
    total = len(doc["entries"])
    assert not differ, f"{len(differ)} of {total} entries differ: {differ[:10]}"
