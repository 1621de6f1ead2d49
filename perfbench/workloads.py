"""Seeded job lists for the four workloads, each job with its own check.

A job is one op of a closed loop: `run(E)` makes the timed calls into the
package `E` (or spawns one CLI child) and returns what they produced;
`check(out)` compares that with the reference in `reference.py` and
returns None or a (kind, why) pair.  The program only ever sees the
generated input strings.

Every job list has a fixed shape (how many jobs of each size and kind);
the seed draws the contents.  The shape fixes the cost of a pass, so
runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import reference as ref

IN_PROCESS_TIME_BOX_S = 30.0
CHILD_TIME_BOX_S = 10.0
CAP_PROBE_TIME_BOX_S = 3.0
SAMPLED_VERTICES = 64  # vertices checked per develop job above n = 10

# Ops that fail at the time this benchmark was written.  They stay in the
# job lists so that a fix shows up as fewer failed ops.
KNOWN_DEFECTS = {
    "reason/ring-syllogism-n11-drop2": "RecursionError in the re-developed residual",
    "cli/deep-product-3000": "RecursionError on a 3000-factor product",
    "cli/deep-primes-3000": "RecursionError on 3000 postfix complements",
    "cli/deep-sum-3000": "RecursionError on a 3000-term sum",
    "cli/cap-expand-ring-n20": "expand at the 20-symbol cap overruns its time box",
    "cli/cap-solve-verify-m8": "verify at the universe-8 cap overruns its time box",
}


@dataclasses.dataclass
class Job:
    id: str
    run: object  # callable(E) -> output
    check: object  # callable(output) -> None | (kind, why)
    text: str  # the generated input, as the program sees it
    time_box: float = IN_PROCESS_TIME_BOX_S
    props: dict = dataclasses.field(default_factory=dict)


def wrong(why: str):
    return ("wrong", why)


def names_of(n: int) -> list[str]:
    return [f"s{i}" for i in range(n)]


def constituent_text(mask: int, names) -> str:
    return "*".join(s if mask >> i & 1 else f"{s}'" for i, s in enumerate(names))


# -- random programs ---------------------------------------------------------


def random_tree(rng, leaves, n_compl, ops="+-*"):
    """A division-free program combining the given leaf steps.

    Exactly `n_compl` complements are applied to random subtrees; adjacent
    subtrees are merged at random, which keeps the depth near log2(leaves).
    """
    parts = [[leaf] for leaf in leaves]
    merges = len(parts) - 1
    compl_before = sorted(rng.randrange(merges + 1) for _ in range(n_compl))
    for step in range(merges + 1):
        while compl_before and compl_before[0] == step:
            compl_before.pop(0)
            i = rng.randrange(len(parts))
            parts[i] = parts[i] + ["'"]
        if step < merges:
            i = rng.randrange(merges - step)
            parts[i : i + 2] = [parts[i] + parts[i + 1] + [rng.choice(ops)]]
    return parts[0]


def random_leaves(rng, n: int, count: int, syms=None):
    """`count` leaf steps covering as many of the symbols as fit."""
    pool = list(range(n)) if syms is None else list(syms)
    rng.shuffle(pool)
    chosen = pool[:count] + [rng.choice(pool) for _ in range(count - len(pool))]
    leaves = [("sym", i) for i in chosen]
    for j in range(len(leaves)):
        if rng.random() < 0.12:
            leaves[j] = ("int", rng.randint(1, 3))
    rng.shuffle(leaves)
    return leaves


def literal_product(rng, n: int, count: int):
    prog = []
    for j, i in enumerate(rng.sample(range(n), count)):
        prog += [("sym", i)] + (["'"] if rng.random() < 0.5 else [])
        if j:
            prog.append("*")
    return prog


def ring_program(rng, n: int, terms: int):
    """Sum of terms c*s_a*s_b' along a random cyclic order of the symbols."""
    order = list(range(n))
    rng.shuffle(order)
    prog = []
    for t in range(terms):
        a, b = order[t % n], order[(t + 1) % n]
        prog += [("sym", a), ("sym", b), "'", "*"]
        if rng.random() < 0.3:
            prog += [("int", rng.randint(2, 3)), "*"]
        if t:
            prog.append("+")
    return prog


def develop_program(rng, kind: str, n: int, leaves: int):
    if kind == "ring":
        return ring_program(rng, n, (leaves - 2) // 2)
    if kind == "tree":
        return random_tree(rng, random_leaves(rng, n, leaves), leaves // 4)
    den_leaves = 2
    num = random_tree(rng, random_leaves(rng, n, leaves - den_leaves), leaves // 5)
    if kind == "quot":
        if rng.random() < 0.5:
            den = literal_product(rng, n, den_leaves)
        else:
            den = random_tree(rng, random_leaves(rng, n, den_leaves), 0, ops="+-")
        return num + den + ["/"]
    # "nest": a quotient whose 0/0 and k/0 values feed further arithmetic.
    quotient = num + literal_product(rng, n, den_leaves) + ["/"]
    if rng.random() < 0.25:
        return quotient + ["'"]
    return quotient + [("sym", rng.randrange(n)), rng.choice("+-*")]


# -- develop -------------------------------------------------------------------

# (symbols, jobs per pass, leaves per expression)
# The median falls inside the n = 9 class and the tail inside the n = 10 class.
DEVELOP_SHAPE = [(8, 10, 16), (9, 12, 16), (10, 8, 16), (11, 2, 16), (12, 1, 12),
                 (13, 1, 10), (14, 1, 8)]
DEVELOP_TINY = [(3, 4, 6), (4, 4, 8)]
DEVELOP_KINDS = ("tree", "quot", "ring", "nest")


def develop_jobs(seed: int, tiny: bool = False) -> list[Job]:
    rng = random.Random(f"develop:{seed}")
    jobs = []
    for n, count, leaves in DEVELOP_TINY if tiny else DEVELOP_SHAPE:
        for j in range(count):
            kind = DEVELOP_KINDS[j % len(DEVELOP_KINDS)]
            prog = develop_program(rng, kind, n, leaves)
            jobs.append(_develop_job(f"develop/n{n}-{j}-{kind}", prog, n, rng))
    rng.shuffle(jobs)
    return jobs


def _develop_job(job_id: str, prog, n: int, rng) -> Job:
    names = names_of(n)
    text = ref.render(prog, names)
    sym_text = ",".join(names)
    if n <= 10:
        masks = range(1 << n)
    else:
        masks = sorted(rng.sample(range(1 << n), SAMPLED_VERTICES))

    def run(E):
        e = E.parse_expression(text)
        syms = E.symbols(sym_text)
        try:
            form = E.expand(e, syms)
        except E.UninterpretableNesting as err:
            form = err
        try:
            report = E.analyze(e, syms)
        except E.UninterpretableNesting as err:
            report = err
        return E, form, report

    def check(out):
        E, form, report = out
        expected = {m: ref.evaluate(prog, ref.point_of(m, n)) for m in masks}
        nested = {m for m, v in expected.items() if v == ref.NESTED}
        for what, err in (("expand", form), ("analyze", report)):
            if isinstance(err, E.UninterpretableNesting):
                got = {c.mask for c in err.constituents}
                if got & set(masks) != nested or any(
                        ref.evaluate(prog, ref.point_of(m, n)) != ref.NESTED for m in got):
                    return wrong(f"{what} reported nesting at {sorted(got)[:8]}")
            elif nested:
                return wrong(f"{what} gave a result; expected UninterpretableNesting")
        if isinstance(form, Exception) or isinstance(report, Exception):
            return None if isinstance(form, Exception) and isinstance(report, Exception) \
                else wrong("expand and analyze disagree about nesting")
        if [s.name for s in form.symbols] != names or len(form.coeffs) != 1 << n:
            return wrong("developed over the wrong symbols")
        for m in masks:
            why = coeff_mismatch(E, form.coeffs[m], expected[m])
            if why:
                return wrong(f"coefficient at {constituent_text(m, names)}: {why}")
        offending = {c.mask: v for c, v in report.offending}
        for m in masks:
            outside = not (ref.is_finite(expected[m]) and expected[m] in (0, 1))
            if outside != (m in offending):
                return wrong(f"analyze misreports {constituent_text(m, names)}")
        if any(form.coeffs[m] != v for m, v in offending.items()):
            return wrong("analyze and expand disagree")
        if report.interpretable != (not offending):
            return wrong("analyze.interpretable inconsistent")
        return None

    return Job(job_id, run, check, text, props={"n": n, "quotient": ref.has_quotient(prog)})


def coeff_mismatch(E, got, want) -> str | None:
    if want == ref.ZERO_BY_ZERO:
        ok = isinstance(got, E.Indeterminate)
    elif isinstance(want, ref.KByZero):
        ok = isinstance(got, E.Infinite) and got.numerator == want.k
    else:
        ok = isinstance(got, Fraction) and got == want
    return None if ok else f"got {got}, expected {want}"


# -- reason -----------------------------------------------------------------

# (symbols, premise sets per pass, syllogism drops, conclusion drops); each
# set is four ops, or three when it draws no conclusion: a syllogism, a
# syllogism with a conclusion, and eliminate and solve_for on the premises
# written as one equation.  Ops of one size and kind cost about the same.
# The n = 5 sets are many so that the median falls in the middle of the
# n = 7 eliminate class, whose cost varies least; the tail falls inside the
# n = 7 syllogism class.  A conclusion at n = 9 alone would take about 5 s,
# half of a pass.
REASON_SHAPE = [(5, 7, 3, 2), (6, 3, 3, 2), (7, 5, 2, 2), (8, 2, 2, 1), (9, 1, 1, None)]
REASON_TINY = [(4, 1, 2, 1), (5, 1, 1, 1)]
RING_DEFECT_N = 11
RING_DEFECT_DROPS = 2


def literal(i: int, positive: bool):
    return [("sym", i)] if positive else [("sym", i), "'"]


def premise_set(rng, n: int):
    """A chain of universal premises l0 -> l1 -> ... over a random order.

    Half the symbols enter complemented throughout, and the premises cycle
    through four equivalent forms in seeded order.  Permuting and
    complementing symbols are symmetries of the models, so every seed gets
    the same model count: after dropping any d symbols exactly n - d + 1
    of the 2**(n-d) remaining vertices are satisfiable.  That fixes how
    many residual terms each elimination renders and re-develops.
    """
    order = list(range(n))
    rng.shuffle(order)
    negative = set(rng.sample(order, n // 2))
    positive = {i: i not in negative for i in order}
    forms = [i % 4 for i in range(n - 1)]
    rng.shuffle(forms)
    premises = []
    for (a, b), form in zip(zip(order, order[1:]), forms):
        la, lb = literal(a, positive[a]), literal(b, positive[b])
        not_b = literal(b, not positive[b])
        if form == 0:  # A*B' = 0
            premises.append((la + not_b + ["*"], [("int", 0)]))
        elif form == 1:  # A = A*B
            premises.append((la, la + lb + ["*"]))
        elif form == 2:  # A*B = A
            premises.append((la + lb + ["*"], la))
        else:  # A - A*B = 0
            premises.append((la + la + lb + ["*", "-"], [("int", 0)]))
    return premises


def conjunction(premises):
    """The premises as one equation: the sum of their squared differences is 0."""
    prog = []
    for t, (lhs, rhs) in enumerate(premises):
        diff = lhs if rhs == [("int", 0)] else lhs + rhs + ["-"]
        prog += diff + diff + ["*"] + (["+"] if t else [])
    return prog, [("int", 0)]


def equation_text(eq, names) -> str:
    return f"{ref.render(eq[0], names)} = {ref.render(eq[1], names)}"


def symbols_in(progs) -> list[int]:
    """Symbol indices in first-occurrence order across the programs."""
    seen = {}
    for prog in progs:
        for step in prog:
            if type(step) is tuple and step[0] == "sym":
                seen.setdefault(step[1])
    return list(seen)


def reason_jobs(seed: int, tiny: bool = False) -> list[Job]:
    rng = random.Random(f"reason:{seed}")
    jobs = []
    for n, sets, syllogism_drops, conclusion_drops in REASON_TINY if tiny else REASON_SHAPE:
        for j in range(sets):
            premises = premise_set(rng, n)
            names = names_of(n)
            drops = rng.sample(range(n), syllogism_drops)
            jobs.append(_syllogism_job(f"reason/n{n}-{j}-syllogism-drop{len(drops)}",
                                       premises, names, drops, None))
            if conclusion_drops is not None:
                drops = rng.sample(range(n), conclusion_drops)
                w = rng.choice([i for i in range(n) if i not in drops])
                jobs.append(_syllogism_job(f"reason/n{n}-{j}-conclude-drop{len(drops)}",
                                           premises, names, drops, w))
            eq = conjunction(premises)
            jobs.append(_eliminate_job(f"reason/n{n}-{j}-eliminate", eq, names, rng))
            jobs.append(_solve_job(f"reason/n{n}-{j}-solve", eq, names, rng))
    if not tiny:
        n = RING_DEFECT_N
        ring = [([("sym", i), ("sym", (i + 1) % n), "'", "*"], [("int", 0)])
                for i in range(n)]
        jobs.append(_syllogism_job(
            f"reason/ring-syllogism-n{n}-drop{RING_DEFECT_DROPS}", ring, names_of(n),
            list(range(RING_DEFECT_DROPS)), None))
    rng.shuffle(jobs)
    return jobs


def _syllogism_job(job_id, premises, names, drops, conclude) -> Job:
    texts = [equation_text(p, names) for p in premises]
    drop_text = ",".join(names[i] for i in drops)
    order = symbols_in(p for eq in premises for p in eq)
    remaining = [i for i in order if i not in drops]

    def run(E):
        eqs = [E.parse_equation(t) for t in texts]
        w = E.Symbol(names[conclude]) if conclude is not None else None
        return E, E.syllogism(eqs, E.symbols(drop_text), w)

    def residual_zero_everywhere(k: int) -> bool:
        """After the first k drops, does the residual vanish at every vertex?"""
        free = [i for i in order if i not in drops[:k]]
        pt = [0] * len(names)
        for values in product((0, 1), repeat=len(free)):
            for i, v in zip(free, values):
                pt[i] = v
            if not ref.satisfiable(premises, pt, drops[:k]):
                return False
        return True

    def check(out):
        E, result = out
        # A residual that vanishes identically renders as 0 = 0 and loses its
        # symbols, so a later elimination or solve names an absent symbol.
        if any(residual_zero_everywhere(k) for k in range(1, len(drops))) or (
                conclude is not None and residual_zero_everywhere(len(drops))):
            if isinstance(result, E.SymbolNotPresent):
                return None
            return wrong("expected SymbolNotPresent after a vanishing residual")
        if isinstance(result, Exception):
            return wrong(f"unexpected {type(result).__name__}: {result}")
        if conclude is not None:
            return check_solution(E, result, premises, names, conclude, drops,
                                  [i for i in remaining if i != conclude])
        return check_residual(E, result.form, premises, names, drops, remaining)

    def run_typed(E):
        try:
            return run(E)
        except E.ElectiveError as err:
            return E, err

    return Job(job_id, run_typed, check, "; ".join(texts), props={"n": len(names)})


def check_residual(E, form, premises, names, hidden, remaining):
    if form is None or sorted(s.name for s in form.symbols) != sorted(names[i] for i in remaining):
        return wrong("residual over the wrong symbols")
    index = [names.index(s.name) for s in form.symbols]
    pt = [0] * len(names)
    for m, c in enumerate(form.coeffs):
        for j, i in enumerate(index):
            pt[i] = m >> j & 1
        if not isinstance(c, Fraction):
            return wrong(f"residual coefficient {c} is not finite")
        if (c == 0) != ref.satisfiable(premises, pt, hidden):
            return wrong(f"residual coefficient {c} at {constituent_text(m, [s.name for s in form.symbols])}")
    return None


def check_solution(E, sol, premises, names, unknown, hidden, remaining):
    if not isinstance(sol, E.SolvedClass) or sol.unknown.name != names[unknown]:
        return wrong("not a solution for the unknown")
    sol_names = [s.name for s in sol.free_symbols]
    if sorted(sol_names) != sorted(names[i] for i in remaining):
        return wrong("solution over the wrong symbols")
    groups = {}
    for group in ("included", "excluded", "side_conditions"):
        for c in getattr(sol, group):
            groups.setdefault(c.mask, []).append(group)
    v_masks = [c.mask for _, c in sol.indeterminate]
    for m in v_masks:
        groups.setdefault(m, []).append("indeterminate")
    if v_masks != sorted(v_masks) or [v.name for v, _ in sol.indeterminate] != [
            f"v{j + 1}" for j in range(len(v_masks))]:
        return wrong("indeterminate classes not numbered in ascending mask order")
    if sorted(groups) != list(range(1 << len(sol_names))) or any(
            len(g) != 1 for g in groups.values()):
        return wrong("constituent groups do not partition the constituents")
    index = [names.index(s) for s in sol_names]
    pt = [0] * len(names)
    rename = {"side": "side_conditions"}
    for m, (group,) in groups.items():
        for j, i in enumerate(index):
            pt[i] = m >> j & 1
        want = ref.classify(premises, unknown, pt, hidden)
        if rename.get(want, want) != group:
            return wrong(f"{constituent_text(m, sol_names)} read as {group}, expected {want}")
    return None


def _eliminate_job(job_id, eq, names, rng) -> Job:
    text = equation_text(eq, names)
    order = symbols_in(eq)
    drop = rng.choice(order)
    remaining = [i for i in order if i != drop]

    def run(E):
        return E, E.eliminate(E.parse_equation(text), E.Symbol(names[drop]))

    def check(out):
        E, result = out
        return check_residual(E, result.form, [eq], names, [drop], remaining)

    return Job(job_id, run, check, text, props={"n": len(names)})


def _solve_job(job_id, eq, names, rng) -> Job:
    text = equation_text(eq, names)
    order = symbols_in(eq)
    w = rng.choice(order)
    remaining = [i for i in order if i != w]

    def run(E):
        return E, E.solve_for(E.parse_equation(text), E.Symbol(names[w]))

    def check(out):
        E, sol = out
        return check_solution(E, sol, [eq], names, w, [], remaining)

    return Job(job_id, run, check, text, props={"n": len(names)})


# -- verify ------------------------------------------------------------------

# (free symbols k, max universe, signature, mutation, jobs per pass).  A
# mutation moves one constituent of that group to the excluded group, so the
# verdict must fail: moving an included one breaks soundness and completeness
# (the oracle stops early), moving an indeterminate one only completeness.
# Unmutated jobs cost the same for every seed, since the signature fixes the
# work; the median falls inside the k = 2, m = 4 class and the tail inside
# the k = 1, m = 6 class.
VERIFY_SHAPE = [(1, 6, 0, "included", 2), (2, 4, 0, "included", 2),
                (1, 6, 1, "indeterminate", 4), (1, 6, 1, None, 4),
                (2, 4, 0, None, 12), (1, 6, 0, None, 14),
                (2, 5, 0, None, 2), (3, 4, 0, None, 1)]
VERIFY_TINY = [(1, 3, 0, "included", 1), (1, 3, 1, "indeterminate", 1),
               (1, 3, 0, None, 2), (2, 2, 1, None, 2)]
CHECK_SHAPE = [(1, 4, 1), (2, 4, 2), (3, 3, 1)]  # (symbols, max universe, jobs)
CHECK_TINY = [(2, 2, 2)]
W = "w"


def verify_jobs(seed: int, tiny: bool = False) -> list[Job]:
    rng = random.Random(f"verify:{seed}")
    jobs = []
    for k, max_u, sig, mutation, count in VERIFY_TINY if tiny else VERIFY_SHAPE:
        for j in range(count):
            job_id = f"verify/k{k}-m{max_u}-p{sig}-{mutation or 'exact'}-{j}"
            jobs.append(_verify_job(job_id, rng, k, max_u, SIGNATURES[k][sig], mutation))
    for k, max_u, count in CHECK_TINY if tiny else CHECK_SHAPE:
        for j in range(count):
            eq = identity_candidate(rng, k, broken=j % 2 == 1)
            jobs.append(_check_job(f"verify/check-k{k}-{j}", eq, names_of(k), max_u))
    rng.shuffle(jobs)
    return jobs


# Reading signatures (included, excluded, indeterminate, side conditions) per
# number of free symbols.  The cost of verify_solved depends on the reading
# only through these counts, so fixing them fixes the work of each job.
SIGNATURES = {1: [(1, 1, 0, 0), (0, 0, 1, 1)],
              2: [(1, 1, 1, 1), (0, 1, 2, 1)],
              3: [(1, 3, 1, 3), (0, 4, 2, 2)]}
GROUPS = ("included", "excluded", "indeterminate", "side")


def random_class(rng, k: int):
    """A 0/1-valued program: a product of literals, possibly complemented."""
    count = rng.randint(1, min(k, 2))
    prog = []
    for j, i in enumerate(rng.sample(range(k), count)):
        prog += literal(i, rng.random() < 0.5) + (["*"] if j else [])
    return prog + (["'"] if count > 1 and rng.random() < 0.4 else [])


def solvable_equation(rng, k: int, signature):
    """An equation in w and k symbols whose reading has the given counts.

    With A the part where w = 1 fails and B the part where w = 0 fails,
    A*w + B*w' = 0 (or w*A = B*w') reads: included where only B holds,
    excluded where only A holds, indeterminate where neither does and a
    side condition where both do.  A and B are drawn until the counts match.
    """
    names = names_of(k) + [W]
    w = [("sym", k)]
    while True:
        a, b = random_class(rng, k), random_class(rng, k)
        if rng.random() < 0.5:
            eq = (a + w + ["*"] + b + w + ["'", "*", "+"], [("int", 0)])
        else:
            eq = (w + a + ["*"], b + w + ["'", "*"])
        reading = {m: ref.classify([eq], k, ref.point_of(m, k) + (0,))
                   for m in range(1 << k)}
        groups = list(reading.values())
        if len(symbols_in(eq)) == k + 1 and tuple(
                groups.count(g) for g in GROUPS) == signature:
            return eq, names, reading


def _verify_job(job_id, rng, k, max_u, signature, mutation) -> Job:
    eq, names, reading = solvable_equation(rng, k, signature)
    text = equation_text(eq, names)
    move = None
    if mutation is not None:
        move = min(m for m, g in reading.items() if g == mutation)
    expected = {None: (True, True), "included": (False, False),
                "indeterminate": (True, False)}[mutation]
    side = sum(1 for g in reading.values() if g == "side")

    def run(E):
        equation = E.parse_equation(text)
        sol = E.solve_for(equation, E.Symbol(W))
        shown = sol
        if move is not None:
            shown = mutated(sol, mutation, move, names)
        return E, sol, E.verify_solved(shown, equation, max_u)

    def check(out):
        E, sol, report = out
        why = check_solution(E, sol, [eq], names, k, [], list(range(k)))
        if why:
            return why
        if (report.sound, report.complete) != expected:
            return wrong(f"verdict sound={report.sound} complete={report.complete}, "
                         f"expected {expected}")
        if (report.counterexample is None) != all(expected):
            return wrong("counterexample presence does not match the verdict")
        return None

    # Assignments enumerated when the run does not stop early, and those the
    # side conditions skip: an assignment types every element by a
    # constituent, and is skipped when some element has a side-condition type.
    full = sum(2 ** (m * k) for m in range(1, max_u + 1))
    kept = sum((2 ** k - side) ** m for m in range(1, max_u + 1))
    return Job(job_id, run, check, text, props={
        "k": k, "assignments": full, "skipped": full - kept,
        "early_stop": expected == (False, False)})


def mask_over(c, names) -> int:
    """A constituent's mask with bit i for names[i], whatever its own order."""
    return sum((c.mask >> j & 1) << names.index(s.name) for j, s in enumerate(c.symbols))


def mutated(sol, group: str, mask: int, names):
    """The solution with one constituent moved into the excluded group."""
    if group == "included":
        c = next(c for c in sol.included if mask_over(c, names) == mask)
        return dataclasses.replace(sol, included=sol.included - {c},
                                   excluded=sol.excluded | {c})
    c = next(c for _, c in sol.indeterminate if mask_over(c, names) == mask)
    return dataclasses.replace(
        sol, indeterminate=tuple(p for p in sol.indeterminate if p[1] is not c),
        excluded=sol.excluded | {c})


def identity_candidate(rng, k: int, broken: bool):
    """An instance of a law of the calculus, or of a near miss."""
    def sub(count):
        return random_tree(rng, random_leaves(rng, k, count), rng.randint(0, 1))

    a, b, c = sub(2), sub(2), sub(1)
    while not symbols_in([a]):
        a = sub(2)
    law = rng.randrange(3)
    if law == 0:  # distributivity
        lhs, rhs = a + b + c + ["+", "*"], a + b + ["*"] + a + c + ["*", "+"]
    elif law == 1:  # commutativity of the sum
        lhs, rhs = a + b + ["+"], b + a + ["+"]
    else:  # complement as 1 - e
        lhs, rhs = a + ["'"], [("int", 1)] + a + ["-"]
    if broken:
        rhs = rhs + [("sym", rng.randrange(k)), "+"]
    return lhs, rhs


def check_expectation(eq, names, max_u: int) -> str:
    """The stdout `elective check` must print for this equation."""
    order = symbols_in(eq)
    shown = [names[i] for i in order]
    n = len(order)
    identity, zeros = True, []
    # Display order: first symbol most significant, all-plain constituent first.
    for rank in range((1 << n) - 1, -1, -1):
        pt = [0] * len(names)
        for j, i in enumerate(order):
            pt[i] = rank >> (n - 1 - j) & 1
        if ref.evaluate(eq[0], pt) == ref.evaluate(eq[1], pt):
            zeros.append("*".join(s if pt[i] else f"{s}'" for s, i in zip(shown, order)))
        else:
            identity = False
    lines = [f"identity: {'yes' if identity else 'no'}"]
    if not identity:
        lines.append("counterexample: ")  # prefix; the set assignment follows
    lines.append(f"satisfiable: yes (zero coefficient at {zeros[0]})" if zeros else
                 "satisfiable: no (no zero coefficient in the development)")
    lines.append(f"oracle: confirmed on universes 0..{max_u}")
    return "\n".join(lines)


def check_output_failure(code, stdout: str, eq, names, max_u) -> str | None:
    """Why `elective check` output is wrong for this equation, or None."""
    expected = check_expectation(eq, names, max_u).split("\n")
    want_code = 0 if expected[0] == "identity: yes" else 3
    got = stdout.rstrip("\n").split("\n")
    if code != want_code or len(got) != len(expected) or not all(
            g == w or (w == "counterexample: " and g.startswith(w))
            for g, w in zip(got, expected)):
        return f"exit {code}, stdout {stdout[:200]!r}"
    return None


def _check_job(job_id, eq, names, max_u) -> Job:
    text = equation_text(eq, names)
    argv = ["check", text, "--max-universe", str(max_u)]

    def run(E):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = E.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(out):
        code, stdout, _ = out
        why = check_output_failure(code, stdout, eq, names, max_u)
        return wrong(why) if why else None

    return Job(job_id, run, check, text)


# -- cli ---------------------------------------------------------------------

# The README's hand-written examples: argv and the stdout shown for it.
# Tabs in output are shown in the README as spaces to the next tab stop.
README_EXAMPLES = [
    (["expand", "y/x", "--symbols", "x,y"],
     "1*x*y\n0*x*y'\n(1/0)*x'*y  [side condition: x'*y = 0]\n"
     "(0/0)*x'*y'  [indeterminate]\nNOT INTERPRETABLE"),
    (["solve", "x*w = y", "--for", "w", "--verify"],
     "w = x*y + v1*x'*y'  where x'*y = 0\nverified sound and complete on universes 1..4"),
    (["eliminate", "x*w - y = 0", "--drop", "w"], "x'*y = 0"),
    (["syllogism", "-p", "x*y' = 0", "-p", "y*z' = 0", "--drop", "y"], "x*z' = 0"),
    (["partition", "--symbols", "x,y,z"], None),  # README: 8 constituents, sum = 1: OK
    (["compare", "x + y"], "NOT INTERPRETABLE\ncoefficient 2 at x*y (condition: x*y = 0)"),
    (["nyaya", "table"], "w       not-w\nP       N\nN       P\nU       U"),
    (["check", "1 = x*y + x*y' + x'*y + x'*y'"],
     "identity: yes\nsatisfiable: yes (zero coefficient at x*y)\n"
     "oracle: confirmed on universes 0..4"),
]

DEEP = 3000
CAP_RING_N = 20


@dataclasses.dataclass
class Child:
    code: int | None  # None when the time box killed it
    stdout: str
    stderr: str
    seconds: float
    stdout_bytes: int


def spawn(argv, root, time_box) -> Child:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "elective", *argv], cwd=root, env=env,
                              capture_output=True, timeout=time_box)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        code, out, err = None, exc.stdout or b"", exc.stderr or b""
    seconds = time.perf_counter() - t0
    return Child(code, out.decode("utf-8", "replace"), err.decode("utf-8", "replace"),
                 seconds, len(out))


def child_failure(child: Child, time_box: float):
    """Failures every CLI op shares: time box, exit code, traceback."""
    if child.code is None:
        return ("timebox", f"killed after the {time_box:g} s time box")
    if "Traceback" in child.stderr or "Traceback" in child.stdout:
        last = child.stderr.strip().splitlines()[-1:] or [""]
        return ("traceback", last[0][:120])
    if child.code not in (0, 1, 2, 3):
        return ("exit", f"exit code {child.code}")
    return None


def cli_job(job_id, argv, root, accept, time_box=CHILD_TIME_BOX_S, props=None) -> Job:
    """`accept(child)` returns None or why the output is wrong."""
    def check(child):
        failure = child_failure(child, time_box)
        if failure:
            return failure
        why = accept(child)
        return wrong(why) if why else None

    return Job(job_id, lambda E: spawn(argv, root, time_box), check, " ".join(argv),
               time_box, props or {})


def expect_stdout(expected: str, code: int = 0):
    def accept(child):
        shown = child.stdout.expandtabs()
        if child.code != code or shown != expected + "\n":
            return f"exit {child.code}, stdout {child.stdout[:200]!r}"
        return None
    return accept


def expect_json(test):
    def accept(child):
        if child.code != 0:
            return f"exit {child.code}: {child.stderr[:200]!r}"
        try:
            doc = json.loads(child.stdout)
        except ValueError:
            return f"not JSON: {child.stdout[:200]!r}"
        return None if test(doc) else f"unexpected document {child.stdout[:300]!r}"
    return accept


def readme_json_test(argv, text):
    lines = (text or "").split("\n")
    command = argv[0]
    if command == "expand":
        def coeff(line):
            c = line.split("*", 1)[0].strip("()")
            return c if "/0" in c else {"num": int(c), "den": 1}
        terms = [{"constituent": line.split("  ")[0].split("*", 1)[1],
                  "coefficient": coeff(line)} for line in lines[:-1]]
        return lambda d: d["terms"] == terms and d["interpretable"] is False
    if command == "solve":
        return lambda d: d["solution"] == lines[0] and d["verification"]["sound"] and \
            d["verification"]["complete"]
    if command in ("eliminate", "syllogism"):
        return lambda d: d["residual"] == lines[0]
    if command == "partition":
        return lambda d: d["sum_is_one"] is True and sorted(d["constituents"]) == sorted(
            constituent_text(m, ["x", "y", "z"]) for m in range(8))
    if command == "compare":
        return lambda d: d["interpretable"] is False and d["offending"] == [
            {"constituent": "x*y", "coefficient": {"num": 2, "den": 1}}]
    if command == "nyaya":
        rows = [line.split() for line in lines[1:]]
        return lambda d: d["table"] == [{"w": a, "not_w": b} for a, b in rows]
    return lambda d: d["identity"] is True and d["oracle"]["confirmed"] is True


def partition_accept(child):
    lines = child.stdout.rstrip("\n").split("\n")
    want = sorted(constituent_text(m, ["x", "y", "z"]) for m in range(8))
    if child.code != 0 or sorted(lines[:-1]) != want or lines[-1] != "sum = 1: OK":
        return f"exit {child.code}, stdout {child.stdout[:200]!r}"
    return None


def expand_json_test(prog, names):
    n = len(names)

    def want(v):
        if v == ref.ZERO_BY_ZERO:
            return "0/0"
        if isinstance(v, ref.KByZero):
            return f"{v.k}/0"
        v = Fraction(v)
        return {"num": v.numerator, "den": v.denominator}

    def test(doc):
        values = {m: ref.evaluate(prog, ref.point_of(m, n)) for m in range(1 << n)}
        got = {t["constituent"]: t["coefficient"] for t in doc["terms"]}
        interpretable = all(ref.is_finite(v) and v in (0, 1) for v in values.values())
        return len(got) == 1 << n and doc["interpretable"] is interpretable and all(
            got.get(constituent_text(m, names)) == want(v) for m, v in values.items())

    return test


def deep_accept(development: str):
    """A deep chain either develops to `development` or is refused by a typed error."""
    def accept(child):
        if child.code == 0:
            return expect_stdout(development)(child)
        if child.code in (1, 2) and child.stderr.startswith(("parse error:", "error:")):
            return None
        return f"exit {child.code}, stderr {child.stderr[-200:]!r}"
    return accept


def cap_ring_accept(child):
    """The 2**20-line development, checked at sampled constituents."""
    if child.code == 2 and child.stderr.startswith("error:"):
        return None  # refused up front with a typed error
    names = names_of(CAP_RING_N)
    n = CAP_RING_N
    lines = child.stdout.rstrip("\n").split("\n")
    if child.code != 0 or len(lines) != (1 << n) + 1 or lines[-1] != "NOT INTERPRETABLE":
        return f"exit {child.code}, {len(lines)} lines"
    rng = random.Random(CAP_RING_N)
    for row in rng.sample(range(1 << n), SAMPLED_VERTICES):
        rank = (1 << n) - 1 - row
        mask = sum((rank >> (n - 1 - i) & 1) << i for i in range(n))
        count = sum(1 for i in range(n) if mask >> i & 1 and not mask >> ((i + 1) % n) & 1)
        if lines[row] != f"{count}*{constituent_text(mask, names)}":
            return f"line {row}: {lines[row]!r}"
    return None


def cap_solve_accept(child):
    if child.code == 2 and child.stderr.startswith("error:"):
        return None  # refused up front with a typed error
    return expect_stdout("w = x*y + v1*x'*y'  where x'*y = 0\n"
                         "verified sound and complete on universes 1..8")(child)


def mask_of(text: str, names) -> int:
    """Mask over `names` of a rendered constituent such as s1*s0'*s2."""
    mask = 0
    for factor in text.split("*"):
        if not factor.endswith("'"):
            mask |= 1 << names.index(factor)
    return mask


def residual_json_test(premises, names, drop):
    n = len(names)
    remaining = [i for i in range(n) if i != drop]

    def test(doc):
        pt = [0] * n
        seen = set()
        for term in doc["terms"]:
            mask = mask_of(term["constituent"], names)
            seen.add(mask)
            for i in remaining:
                pt[i] = mask >> i & 1
            zero = term["coefficient"] == {"num": 0, "den": 1}
            if zero != ref.satisfiable(premises, pt, [drop]):
                return False
        return len(seen) == len(doc["terms"]) == 1 << len(remaining)

    return test


def solution_json_test(reading, names):
    def test(doc):
        got = {mask_of(c, names): g for g in ("included", "excluded")
               for c in doc[g]}
        got.update({mask_of(c, names): "side" for c in doc["side_conditions"]})
        got.update({mask_of(v["constituent"], names): "indeterminate"
                    for v in doc["indeterminate"]})
        return got == reading

    return test


# Seeded CLI ops per pass, by command: (size, jobs).  Children cost about the
# same whatever their input; a pass takes a little over half the run time.
CLI_SHAPE = {"expand": [(3, 6), (4, 6), (5, 4)], "syllogism": [(4, 6)],
             "solve": [(2, 6)], "check": [(2, 3), (3, 3)]}
CLI_TINY = {"expand": [(3, 2)], "syllogism": [(3, 1)], "solve": [(1, 1)], "check": [(2, 2)]}
CHECK_MAX_UNIVERSE = 3


def cli_jobs(seed: int, root: str, tiny: bool = False) -> list[Job]:
    rng = random.Random(f"cli:{seed}")
    shape = CLI_TINY if tiny else CLI_SHAPE
    jobs = []
    examples = README_EXAMPLES[:2] if tiny else README_EXAMPLES
    for argv, text in examples:
        name = f"cli/readme-{argv[0]}"
        quotient = {"quotient": "/" in argv[1]}
        accept = partition_accept if text is None else expect_stdout(text)
        jobs.append(cli_job(name, argv, root, accept, props=quotient))
        jobs.append(cli_job(name + "-json", argv + ["--json"], root,
                            expect_json(readme_json_test(argv, text)), props=quotient))
    for n, count in shape["expand"]:
        for j in range(count):
            prog = develop_program(rng, ("tree", "quot")[j % 2], n, 2 * n)
            names = names_of(n)
            argv = ["expand", ref.render(prog, names), "--symbols", ",".join(names), "--json"]
            jobs.append(cli_job(f"cli/expand-n{n}-{j}", argv, root,
                                expect_json(expand_json_test(prog, names)),
                                props={"quotient": ref.has_quotient(prog)}))
    for n, count in shape["syllogism"]:
        for j in range(count):
            premises, names = premise_set(rng, n), names_of(n)
            drop = rng.randrange(n)
            argv = ["syllogism"]
            for p in premises:
                argv += ["-p", equation_text(p, names)]
            argv += ["--drop", names[drop], "--json"]
            jobs.append(cli_job(f"cli/syllogism-n{n}-{j}", argv, root,
                                expect_json(residual_json_test(premises, names, drop))))
    for k, count in shape["solve"]:
        for j in range(count):
            eq, names, reading = solvable_equation(rng, k, SIGNATURES[k][j % 2])
            argv = ["solve", equation_text(eq, names), "--for", W, "--json"]
            jobs.append(cli_job(f"cli/solve-k{k}-{j}", argv, root,
                                expect_json(solution_json_test(reading, names))))
    for k, count in shape["check"]:
        for j in range(count):
            eq = identity_candidate(rng, k, broken=j % 2 == 1)
            names = names_of(k)
            jobs.append(cli_job(
                f"cli/check-k{k}-{j}",
                ["check", equation_text(eq, names), "--max-universe", str(CHECK_MAX_UNIVERSE)],
                root, lambda child, eq=eq, names=names: check_output_failure(
                    child.code, child.stdout, eq, names, CHECK_MAX_UNIVERSE)))
    if not tiny:
        jobs += [
            cli_job("cli/deep-product-3000", ["expand", "*".join(["x"] * DEEP)], root,
                    deep_accept("1*x\n0*x'\ninterpretable")),
            cli_job("cli/deep-primes-3000", ["expand", "x" + "'" * DEEP], root,
                    deep_accept("1*x\n0*x'\ninterpretable")),
            cli_job("cli/deep-sum-3000", ["expand", " + ".join(["x"] * DEEP)], root,
                    deep_accept(f"{DEEP}*x\n0*x'\nNOT INTERPRETABLE")),
            cli_job(f"cli/cap-expand-ring-n{CAP_RING_N}",
                    ["expand", " + ".join(f"s{i}*s{(i + 1) % CAP_RING_N}'"
                                          for i in range(CAP_RING_N))],
                    root, cap_ring_accept, CAP_PROBE_TIME_BOX_S),
            cli_job("cli/cap-solve-verify-m8",
                    ["solve", "x*w = y", "--for", "w", "--verify", "--max-universe", "8"],
                    root, cap_solve_accept, CAP_PROBE_TIME_BOX_S),
        ]
    rng.shuffle(jobs)
    return jobs
