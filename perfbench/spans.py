"""Span tracing installed from outside the package under test.

`Tracer.install` replaces each public function of the traced modules at
every name binding that refers to it (the defining module, every module
that imported it, and the package namespace), and wraps
`LinearForm.to_expr` on its class.  `uninstall` puts the originals back.
Nothing under `src/` changes.

Each wrapped call is a span: name, job id, parent span, start and end.
Self time is the span's duration minus the time its child spans cover.
Functions called once per assignment (`holds`, `enumerate_solutions`)
are aggregated per job instead of stored one by one, so a verify pass
does not keep a million spans.  Spans stay in memory until `write`.

Functions that are deliberately left unwrapped:
  - `contains_quotient` and `desugar_complements` recurse through their
    own module-level name, so a wrapper would double their stack depth
    and move the point where they overflow;
  - `eval_at`, `eval_numeric`, `region` and `submasks` run once per
    vertex, element or region; the vertex and assignment counters stand
    for their work.
`assignments` is a generator; it is wrapped to count what it yields.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

LAYERS = ("parsing", "expr", "algebra", "inference", "oracle", "modern", "cli")
UNWRAPPED = {
    "contains_quotient",
    "desugar_complements",
    "eval_at",
    "eval_numeric",
    "region",
    "submasks",
}
AGGREGATED = {"holds", "enumerate_solutions"}


def count_nodes(e) -> int:
    """Nodes of an expression tree, walked with an explicit stack."""
    n = 0
    stack = [e]
    while stack:
        node = stack.pop()
        n += 1
        for field in ("left", "right", "operand"):
            child = getattr(node, field, None)
            if child is not None:
                stack.append(child)
    return n


class Tracer:
    def __init__(self, elective):
        self.E = elective
        self.job = None
        self.spans: list[tuple] = []  # (id, parent, name, job, t0, t1, self_s)
        self.agg = defaultdict(lambda: [0, 0.0])  # (job, name) -> [calls, self_s]
        self.counters = defaultdict(int)  # (job, counter) -> value
        self._stack: list[list] = []  # [span id, name, t0, child_s]
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "elective" or name.startswith("elective."))]
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"elective.{layer}"]
            for attr, fn in vars(mod).items():
                if (callable(fn) and not attr.startswith("_") and attr not in UNWRAPPED
                        and getattr(fn, "__module__", None) == mod.__name__
                        and not isinstance(fn, type)):
                    targets[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        cls = self.E.LinearForm
        self._saved.append((cls, "to_expr", cls.to_expr))
        cls.to_expr = self._wrap(cls.to_expr, "algebra.to_expr")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- spans -------------------------------------------------------------

    def count(self, counter: str, value: int = 1) -> None:
        self.counters[(self.job, counter)] += value

    def _wrap(self, fn, name: str):
        if name == "oracle.assignments":
            return self._counting_generator(fn)
        short = name.split(".")[-1]
        hook = _HOOKS.get(name)
        aggregated = short in AGGREGATED
        layer = name.split(".")[0]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, name, clock(), 0.0]
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                span_id, _, t0, child_s = frame
                duration = t1 - t0
                if stack:
                    stack[-1][3] += duration
                self_s = duration - child_s
                if aggregated:
                    cell = self.agg[(self.job, name)]
                    cell[0] += 1
                    cell[1] += self_s
                    if name == "oracle.holds" and result:
                        self.count("oracle.holds.true")
                else:
                    parent = stack[-1][0] if stack else None
                    self.spans.append((span_id, parent, name, self.job, t0, t1, self_s))
                if hook is not None:
                    hook(self, args, result, error)
                if (error is not None and layer == "inference"
                        and not isinstance(error, self.E.ElectiveError)
                        and not any(f[1].startswith("inference.") for f in stack)):
                    self.count("inference.untyped_failures")

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counting_generator(self, fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count("oracle.assignments")
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def self_time(self, name: str) -> float:
        total = sum(s[6] for s in self.spans if s[2] == name)
        return total + sum(v[1] for (_, n), v in self.agg.items() if n == name)

    def calls(self, name: str) -> int:
        spans = sum(1 for s in self.spans if s[2] == name)
        return spans + sum(v[0] for (_, n), v in self.agg.items() if n == name)

    def total(self, counter: str) -> int:
        return sum(v for (_, c), v in self.counters.items() if c == counter)

    def job_counter(self, job, counter: str) -> int:
        return self.counters.get((job, counter), 0)

    def write(self, path) -> None:
        """Write every span, aggregate and counter as JSON lines (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span_id, parent, name, job, t0, t1, self_s in self.spans:
                out.write(json.dumps({"span": span_id, "parent": parent, "name": name,
                                      "job": job, "start": t0, "end": t1,
                                      "self_s": self_s}) + "\n")
            for (job, name), (calls, self_s) in self.agg.items():
                out.write(json.dumps({"aggregate": name, "job": job, "calls": calls,
                                      "self_s": self_s}) + "\n")
            for (job, counter), value in self.counters.items():
                out.write(json.dumps({"counter": counter, "job": job,
                                      "value": value}) + "\n")


# Work counters taken at a span boundary: hook(tracer, args, result, error).


def _expand_hook(t, args, result, error):
    t.count("algebra.input_nodes", count_nodes(args[0]))
    if result is not None:
        t.count("algebra.vertices", len(result.coeffs))
    elif isinstance(error, t.E.UninterpretableNesting):
        t.count("algebra.vertices", 1 << len(tuple(args[1])))


def _parse_hook(t, args, result, error):
    if isinstance(result, t.E.Equation):
        t.count("parsing.nodes_out", count_nodes(result.lhs) + count_nodes(result.rhs))
    elif result is not None:
        t.count("parsing.nodes_out", count_nodes(result))


def _to_expr_hook(t, args, result, error):
    if result is not None:
        t.count("algebra.to_expr.terms", sum(1 for v in args[0].coeffs if v != 0))


def _eliminate_hook(t, args, result, error):
    if result is not None:
        t.count("inference.residual_nodes", count_nodes(result.residual.lhs))


_HOOKS = {
    "algebra.expand": _expand_hook,
    "parsing.parse_expression": _parse_hook,
    "parsing.parse_equation": _parse_hook,
    "algebra.to_expr": _to_expr_hook,
    "inference.eliminate": _eliminate_hook,
}
