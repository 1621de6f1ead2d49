"""Self-test of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

Checks, at a tiny size of every workload, that every metric named in
BENCHMARK.json is emitted with and without tracing, that the traced work
counters equal their closed-form counts, that planted wrong answers are
caught by the reference checks, that the embedded README examples still
match README.md, and that job lists are a function of the seed.
"""

from __future__ import annotations

import dataclasses
import shlex
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

ROOT = str(Path.cwd())
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def metrics_emitted() -> None:
    spec = run.load_spec()
    for workload in run.JOB_LISTS:
        for trace in (False, True):
            report, result, tracer = run.measure(workload, 1, 0, trace, tiny=True)
            names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            expect(set(result["metrics"]) == names,
                   f"{workload} trace={int(trace)} emits every named metric")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={int(trace)} tiny run is correct: {report['failed_ops']}")
            if trace:
                closed_form_counts(workload, tracer)


def closed_form_counts(workload: str, tracer) -> None:
    _, _, _, jobs = run.setup(workload, 1, ROOT, True)
    if workload == "develop":
        # expand once directly and once inside analyze, 2**n vertices each
        want = sum(2 * 2 ** j.props["n"] for j in jobs)
        expect(tracer.total("algebra.vertices") == want,
               f"develop algebra.vertices {tracer.total('algebra.vertices')} == {want}")
    if workload == "verify":
        full = [j for j in jobs if "k" in j.props and not j.props["early_stop"]]
        expect(bool(full) and all(
            tracer.job_counter(j.id, "oracle.assignments") == j.props["assignments"]
            for j in full), "verify oracle.assignments == sum over m of 2**(m*k) per job")


def planted_wrong_answers() -> None:
    _, _, E, jobs = run.setup("develop", 1, ROOT, True)
    job = next(j for j in jobs if not j.id.endswith("nest"))
    _, form, report = job.run(E)
    coeffs = list(form.coeffs)
    coeffs[0] = coeffs[0] + 1 if isinstance(coeffs[0], Fraction) else Fraction(5)
    bad = E.LinearForm(form.symbols, tuple(coeffs))
    expect(job.check((E, form, report)) is None and job.check((E, bad, report)) is not None,
           "a perturbed developed coefficient is caught")

    _, _, E, jobs = run.setup("reason", 1, ROOT, True)
    job = next(j for j in jobs if "syllogism" in j.id)
    _, result = job.run(E)
    coeffs = list(result.form.coeffs)
    coeffs[next(i for i, c in enumerate(coeffs) if c != 0)] = Fraction(0)
    bad = dataclasses.replace(result, form=E.LinearForm(result.form.symbols, tuple(coeffs)))
    expect(job.check((E, result)) is None and job.check((E, bad)) is not None,
           "a dropped residual term is caught")

    _, _, E, jobs = run.setup("verify", 1, ROOT, True)
    job = next(j for j in jobs if "exact" in j.id and "-p0-" in j.id)
    _, sol, report = job.run(E)
    c = next(iter(sol.included))
    wrong_sol = dataclasses.replace(sol, included=sol.included - {c},
                                    excluded=sol.excluded | {c})
    eq = E.parse_equation(job.text)
    bad_report = E.verify_solved(wrong_sol, eq, 2)
    expect(job.check((E, sol, report)) is None
           and job.check((E, sol, bad_report)) is not None,
           "a mutated solution passed off as correct is caught")

    argv, text = workloads.README_EXAMPLES[0]
    cli = workloads.cli_job("t", argv, ROOT, workloads.expect_stdout(text))
    good = workloads.Child(0, text + "\n", "", 0.0, 0)
    bad = workloads.Child(0, text.replace("0/0", "0/1") + "\n", "", 0.0, 0)
    crash = workloads.Child(2, "", "Traceback (most recent call last):\n", 0.0, 0)
    expect(cli.check(good) is None and cli.check(bad) is not None
           and cli.check(crash)[0] == "traceback", "a changed or crashing CLI output is caught")


def readme_examples() -> None:
    readme = Path("README.md")
    if not readme.is_file():
        expect(False, "README.md is present")
        return
    found, current, inside = [], None, False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            inside = line == "```text"
            current = None
            continue
        if not inside:
            continue
        if line.startswith("$ elective "):
            current = [shlex.split(line[len("$ elective "):], comments=True), []]
            found.append(current)
        elif current is not None:
            current[1].append(line)
    got = [(argv, "\n".join(out) or None) for argv, out in found]
    expect(got == workloads.README_EXAMPLES, "embedded README examples match README.md")


def seeding() -> None:
    for workload in run.JOB_LISTS:
        a = [(j.id, j.text) for j in run.JOB_LISTS[workload](3, ROOT, False)]
        b = [(j.id, j.text) for j in run.JOB_LISTS[workload](3, ROOT, False)]
        expect(a == b, f"{workload} job list is a function of the seed")
    texts = [sorted(j.text for j in workloads.develop_jobs(s)) for s in (1, 2)]
    expect(texts[0] != texts[1], "different seeds give different inputs")
    ids = {j.id for w in run.JOB_LISTS for j in run.JOB_LISTS[w](1, ROOT, False)}
    expect(set(workloads.KNOWN_DEFECTS) <= ids, "every known-defect op id is in a job list")


def main() -> int:
    if not (Path("src") / "elective").is_dir():
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    metrics_emitted()
    planted_wrong_answers()
    readme_examples()
    seeding()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
