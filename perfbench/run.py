"""Benchmark for the `elective` package: one closed-loop client per workload.

Run from the repository root:

    python3 perfbench/run.py --workload develop --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  develop  seeded expressions over 8..14 symbols through expand and analyze
  reason   seeded premise sets through syllogism, eliminate and solve_for
  verify   solve_for then verify_solved, plus in-process `check` commands
  cli      `python -m elective` spawned once per op, one child at a time

The client works through the seeded job list in passes until --seconds
have gone by, always finishing the pass it is in.  A host-speed
calibration (calibrate.py) runs before each job, untimed, and every time
metric is scaled to the reference host's speed, except the latency of a
CLI child killed by its time box.  Each job's latency is its
median over the passes; wall_s is their sum, the time one pass over the
fixed job list takes.  Every op is checked
against the reference in reference.py; checks run between ops and are not
timed.  With --trace 0 the last line of stdout carries the end-to-end
metrics; with --trace 1 the client first runs untraced passes for
--seconds, then one traced pass, and reports the per-layer metrics of that
pass.  The line before the last is a report: environment, failed op ids
and why, tail percentile and sample count, input-property shares.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs beyond it
TRACE_DIR = Path("perfbench") / "out"

JOB_LISTS = {
    "develop": lambda seed, root, tiny: workloads.develop_jobs(seed, tiny),
    "reason": lambda seed, root, tiny: workloads.reason_jobs(seed, tiny),
    "verify": lambda seed, root, tiny: workloads.verify_jobs(seed, tiny),
    "cli": workloads.cli_jobs,
}


def setup(workload: str, seed: int, root: str, tiny: bool):
    """Import the package and build the job list, several times; median time
    and the median calibration taken before each time."""
    times, cals = [], []
    for _ in range(SETUP_REPEATS):
        cals.append(calibrate.sample())
        for name in [m for m in sys.modules if m == "elective" or m.startswith("elective.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        E = importlib.import_module("elective")
        importlib.import_module("elective.cli")
        jobs = JOB_LISTS[workload](seed, root, tiny)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), statistics.median(cals), E, jobs


def run_pass(E, jobs, tracer=None):
    """One pass over the job list: the calibration before each job, the
    latencies and the failures by op id, and the ids of ops whose child the
    time box killed."""
    latencies = {}
    failures = {}
    cals = []
    boxed = set()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        cals.append(calibrate.sample())
        gc.collect()  # each op starts from the same heap, untimed
        t0 = time.perf_counter()
        try:
            out, exc = job.run(E), None
        except Exception as err:  # the op's outcome; classified below
            out, exc = None, err
        latency = time.perf_counter() - t0
        latencies[job.id] = latency
        if exc is None:
            failure = job.check(out)
        elif isinstance(exc, E.ElectiveError):
            failure = ("wrong", f"unexpected {type(exc).__name__}: {exc}")
        else:
            failure = ("untyped", f"{type(exc).__name__}: {str(exc)[:120]}")
        if failure is None and latency > job.time_box:
            failure = ("timebox", f"took {latency:.2f} s, time box {job.time_box:g} s")
        if failure is not None:
            failures[job.id] = failure
        if isinstance(out, workloads.Child) and out.code is None:
            boxed.add(job.id)
        if tracer is not None and isinstance(out, workloads.Child):
            tracer.count("cli.spawn_s", out.seconds)
            tracer.count("cli.stdout_bytes", out.stdout_bytes)
            tracer.count("cli.traceback_exits",
                         int("Traceback" in out.stderr or "Traceback" in out.stdout))
    return sum(latencies.values()), latencies, failures, cals, boxed


def tail(values):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": read_commit(root),
        "nproc": len(os.sched_getaffinity(0)),
    }


def read_commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def per_layer(tracer, jobs, traced_wall, untraced_wall) -> dict:
    t = tracer
    holds_calls = t.calls("oracle.holds")
    values = {
        "parsing.calls": t.calls("parsing.parse_expression") + t.calls("parsing.parse_equation"),
        "parsing.self_s": t.self_time("parsing.parse_expression")
        + t.self_time("parsing.parse_equation"),
        "parsing.nodes_out": t.total("parsing.nodes_out"),
        "expr.free_symbols.self_s": t.self_time("expr.free_symbols"),
        "expr.substitute.self_s": t.self_time("expr.substitute"),
        "expr.format_expr.self_s": t.self_time("expr.format_expr"),
        "algebra.expand.calls": t.calls("algebra.expand"),
        "algebra.expand.self_s": t.self_time("algebra.expand"),
        "algebra.vertices": t.total("algebra.vertices"),
        "algebra.input_nodes": t.total("algebra.input_nodes"),
        "algebra.normal_form.self_s": t.self_time("algebra.normal_form"),
        "algebra.to_expr.self_s": t.self_time("algebra.to_expr"),
        "algebra.to_expr.terms": t.total("algebra.to_expr.terms"),
        "inference.combine_premises.self_s": t.self_time("inference.combine_premises"),
        "inference.eliminate.calls": t.calls("inference.eliminate"),
        "inference.eliminate.self_s": t.self_time("inference.eliminate"),
        "inference.residual_nodes": t.total("inference.residual_nodes"),
        "inference.solve_for.self_s": t.self_time("inference.solve_for"),
        "inference.syllogism.self_s": t.self_time("inference.syllogism"),
        "inference.untyped_failures": t.total("inference.untyped_failures"),
        "oracle.verify_solved.self_s": t.self_time("oracle.verify_solved"),
        "oracle.assignments": t.total("oracle.assignments"),
        "oracle.holds.calls": holds_calls,
        "oracle.holds.self_s": t.self_time("oracle.holds"),
        "oracle.holds.true_ratio": t.total("oracle.holds.true") / holds_calls
        if holds_calls else 0.0,
        "oracle.enumerate_solutions.self_s": t.self_time("oracle.enumerate_solutions"),
        "modern.analyze.self_s": t.self_time("modern.analyze"),
        "cli.main.self_s": t.self_time("cli.main"),
        "cli.spawn_s": t.total("cli.spawn_s"),
        "cli.stdout_bytes": t.total("cli.stdout_bytes"),
        "cli.traceback_exits": t.total("cli.traceback_exits"),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    values.update(input_shares(jobs))
    return values


def input_shares(jobs) -> dict:
    """Input properties that decide which optimisations can apply."""
    shares = {"input.quotient_share":
              sum(1 for j in jobs if j.props.get("quotient")) / len(jobs)}
    for k in (1, 2, 3):
        full = [j.props for j in jobs
                if j.props.get("k") == k and not j.props["early_stop"]]
        total = sum(p["assignments"] for p in full)
        shares[f"input.skip_share.k{k}"] = (
            sum(p["skipped"] for p in full) / total if total else 0.0)
    return shares


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny=False):
    """Run one workload; returns the report and result main prints, and the tracer."""
    root = Path.cwd()
    raw_setup_s, setup_cal, E, jobs = setup(workload, seed, str(root), tiny)
    setup_s = calibrate.scale(raw_setup_s, setup_cal)
    walls, timeline, failed = [], [], {}
    attempted = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, latencies, failures, cals, boxed = run_pass(E, jobs)
        walls.append(wall)
        attempted += len(jobs)
        timeline += [(job_id, latency, cal, job_id in boxed)
                     for (job_id, latency), cal in zip(latencies.items(), cals)]
        for job_id, failure in failures.items():
            failed.setdefault(job_id, []).append(failure)
    tracer = None
    if trace:
        tracer = spans.Tracer(E)
        tracer.install()
        try:
            traced_wall, _, failures, _, _ = run_pass(E, jobs, tracer)
        finally:
            tracer.uninstall()
        attempted += len(jobs)
        for job_id, failure in failures.items():
            failed.setdefault(job_id, []).append(failure)

    if workload == "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Each latency is scaled by the calibrations around it, then each job's
    # latency is its median over the passes.  A child killed by its time box
    # took the time box whatever the host's speed, so it is not scaled.
    samples, raw = {}, {}
    pooled = calibrate.pooled([cal for _, _, cal, _ in timeline])
    for (job_id, latency, _, boxed), cal in zip(timeline, pooled):
        samples.setdefault(job_id, []).append(
            latency if boxed else calibrate.scale(latency, cal))
        raw.setdefault(job_id, []).append(latency)
    job_latency = [statistics.median(v) for v in samples.values()]
    wall_s = sum(job_latency)
    raw_wall_s = sum(statistics.median(v) for v in raw.values())
    tail_value, tail_pct = tail(job_latency)
    failures_out = [
        {"id": job_id, "kind": runs[0][0], "why": runs[0][1], "runs": len(runs),
         "known_defect": job_id in workloads.KNOWN_DEFECTS}
        for job_id, runs in sorted(failed.items())
    ]
    n_failed = sum(len(runs) for runs in failed.values())
    # A known defect may fail, but never by giving a wrong answer.
    correct = all(job_id in workloads.KNOWN_DEFECTS and all(kind != "wrong" for kind, _ in runs)
                  for job_id, runs in failed.items())
    if trace:
        metrics = per_layer(tracer, jobs, traced_wall, raw_wall_s)
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "job_p50_s": statistics.median(job_latency),
            "job_tail_s": tail_value,
            "ops_ok_ratio": (attempted - n_failed) / attempted,
            "peak_rss_mb": peak_kb / 1024,
        }
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    report = {
        "workload": workload,
        "seed": seed,
        "environment": environment(root),
        "jobs_per_pass": len(jobs),
        "passes": len(walls) + int(trace),
        "pass_wall_s": walls,
        "unscaled": {"setup_s": raw_setup_s, "wall_s": raw_wall_s},
        "calibration_s": {"reference": calibrate.REFERENCE_S,
                          "median": statistics.median(pooled)},
        "job_tail": {"percentile": tail_pct, "samples": len(job_latency),
                     "beyond": TAIL_BEYOND},
        "failed_ops": failures_out,
        "input": input_shares(jobs),
    }
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
        tracer.write(path)
        report["spans_file"] = str(path)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return report, result, tracer


def load_spec() -> dict:
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(JOB_LISTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "elective" / "__init__.py").is_file():
        print("perfbench: no src/elective here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    report, result, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for f in report["failed_ops"]:
        tag = "known defect" if f["known_defect"] else "NEW FAILURE"
        print(f"failed op {f['id']} ({tag}, {f['kind']}): {f['why']}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
