"""Layers run on first use.

Importing the package runs errors, expr, algebra and parsing; inference,
oracle, modern and nyaya are lazy modules, in sys.modules from the
import on and run when one of their attributes is first read.  The
package still exports every name as if each layer were imported, and a
command-line child runs only the layers its command calls.
"""

import importlib
import json
import subprocess
import sys

import pytest

import elective
from helpers import child_env

DEFERRED = ("inference", "oracle", "modern", "nyaya")

# A fresh interpreter: runs the command line on argv (none: only imports
# the package), then prints its exit code and the deferred layers that ran.
_PROBE = """
import contextlib, io, json, sys, types
import elective, elective.cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = None if argv is None else elective.cli.main(argv)
ran = [n for n in {layers!r} if type(sys.modules["elective." + n]) is types.ModuleType]
print(json.dumps([code, ran]))
""".format(layers=DEFERRED)


def test_every_export_is_listed_bound_and_the_defining_modules_own():
    assert set(elective.__all__) <= set(dir(elective))
    namespace: dict = {}
    exec("from elective import *", namespace)
    assert set(elective.__all__) <= set(namespace)
    for layer, names in elective._LAZY.items():
        module = importlib.import_module(f"elective.{layer}")
        for name in names:
            assert namespace[name] is getattr(module, name) is getattr(elective, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'elective' has no attribute 'holds'"):
        elective.holds  # noqa: B018


# What each child runs (no argv: the import alone), and the deferred
# layers that have run when it ends.
RUNS = {
    "import": (None, []),
    "expand": (["expand", "x*y + z"], []),
    "partition": (["partition", "--symbols", "x,y"], []),
    "compare": (["compare", "x + y"], ["modern"]),
    "nyaya": (["nyaya", "table"], ["nyaya"]),
    "eliminate": (["eliminate", "x*w = y", "--drop", "w"], ["inference"]),
    "syllogism": (
        ["syllogism", "-p", "x*y' = 0", "-p", "y*z' = 0", "--drop", "y"],
        ["inference"],
    ),
    "check": (["check", "x*y = y*x"], ["oracle"]),
    "solve": (["solve", "x*w = y", "--for", "w"], ["inference"]),
    "solve-verify": (
        ["solve", "x*w = y", "--for", "w", "--verify"],
        ["inference", "oracle"],
    ),
}


@pytest.mark.parametrize("argv, ran", RUNS.values(), ids=RUNS)
def test_a_command_runs_only_the_layers_it_calls(argv, ran):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == [None if argv is None else 0, ran]
