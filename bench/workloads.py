"""Seeded job lists for the three benchmark workloads.

A workload's job list holds fixed anchor jobs plus seeded draws.  Draws are
stratified: each family gets the same number of jobs at the same cost
levels for every seed, and the seed picks the rates, budgets, radii and
random specs within them.  The job mix, and with it the latency
distribution, is then the same shape for every seed, which is what keeps
the percentiles steady.  The same seed gives a byte-identical job list;
the program sees only the argv and the spec files written here.

This module does not import ``firebreak``: the generator and the referee
describe every spec by its own structure (``truth``), never by the
program's objects.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

import numpy as np

# Per-job wall-clock deadlines (seconds).  Seeded draws cost at most a
# quarter of their workload's deadline (timings here are from a 2-CPU VM
# with Python 3.11); anchors that finish get their own deadline, about four
# times their measured time.
DEADLINE_S = {"above-synth": 2.0, "below-decide": 2.0, "cayley-balls": 4.0}

# Seconds of a run each round of a workload stands for (run.py runs
# ``round(seconds / ROUND_S)`` rounds, at least HEAVY_REPS): 4, 5 and 3
# rounds at 30 s.  On a 2-CPU VM with Python 3.11 at the host's slow speed
# a 30-second run then takes 25-35 s with its set-up.  The host is slower
# at times, and a run's length grows with it, so the rounds are kept few.
ROUND_S = {"above-synth": 7.0, "below-decide": 6.0, "cayley-balls": 10.0}

# Rounds a job runs in (run.py repeats the job list in rounds and keeps
# each job's mean time): None is every round.  Jobs that take a second or
# more run HEAVY_REPS times, in the first and the last round; known hangs
# run once, since a timeout is charged its deadline however often it is
# repeated.
HEAVY_REPS = 2
HANG_REPS = 1

# -- spec truths and their files ----------------------------------------------


def periodic(states: dict, root: str = "A") -> dict:
    return {"variant": "periodic", "root": root,
            "states": {s: list(kids) for s, kids in states.items()}}


def symmetric(pre, per) -> dict:
    return {"variant": "symmetric", "pre": list(pre), "per": list(per)}


def explicit(parents) -> dict:
    return {"variant": "explicit", "parents": list(parents)}


def spec_text(truth: dict) -> str:
    if truth["variant"] == "periodic":
        entries = " ; ".join(f"{s} -> {' '.join(kids)}"
                             for s, kids in truth["states"].items())
        return f"variant: periodic\nroot: {truth['root']}\nstates: {entries}\n"
    if truth["variant"] == "symmetric":
        pre = " ".join(map(str, truth["pre"]))
        per = " ".join(map(str, truth["per"]))
        return f"variant: symmetric\nlevels: {pre} | {per}\n"
    return "variant: explicit\nparents: " + " ".join(map(str, truth["parents"])) + "\n"


BINARY = periodic({"A": "AA"})
TERNARY = periodic({"A": "AAA"})
FIB = periodic({"A": "AB", "B": "A"})
SQRT2 = periodic({"A": "BB", "B": "A"})


def reachable(truth: dict) -> list[str]:
    seen, stack = {truth["root"]}, [truth["root"]]
    while stack:
        for t in truth["states"][stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return sorted(seen)


def branching_number(truth: dict) -> float:
    """Spectral radius of the reachable count matrix (periodic) or the
    geometric mean of the period (symmetric), by numpy."""
    if truth["variant"] == "symmetric":
        per = truth["per"]
        return math.prod(per) ** (1.0 / len(per))
    names = reachable(truth)
    idx = {s: i for i, s in enumerate(names)}
    mat = np.zeros((len(names), len(names)))
    for s in names:
        for t in truth["states"][s]:
            mat[idx[s], idx[t]] += 1
    return float(max(abs(np.linalg.eigvals(mat))))


def level_regular(truth: dict, depth: int) -> bool:
    states = {truth["root"]}
    for _ in range(depth):
        if len({len(truth["states"][s]) for s in states}) != 1:
            return False
        states = {t for s in states for t in truth["states"][s]}
    return True


def level_counts(truth: dict, depth: int) -> list[int]:
    if truth["variant"] == "symmetric":
        pre, per = truth["pre"], truth["per"]
        out = [1]
        for lv in range(depth):
            c = pre[lv] if lv < len(pre) else per[(lv - len(pre)) % len(per)]
            out.append(out[-1] * c)
        return out
    counts, out = {truth["root"]: 1}, [1]
    for _ in range(depth):
        nxt: dict[str, int] = {}
        for s, n in counts.items():
            for t in truth["states"][s]:
                nxt[t] = nxt.get(t, 0) + n
        counts = nxt
        out.append(sum(nxt.values()))
    return out


# -- seeded draws ---------------------------------------------------------------


def stratum(rng: random.Random, i: int, m: int) -> float:
    """A uniform draw from the i-th of m equal strata of [0, 1)."""
    return (i + rng.random()) / m


def random_periodic(rng: random.Random, lo: float, hi: float, regular=None) -> dict:
    """A strongly connected 2-3-state periodic spec, every state with 1-3
    children, whose branching number lies in [lo, hi].  ``regular`` asks for a level-regular
    (True) or a not level-regular (False) tree."""
    while True:
        names = "ABC"[:rng.choice((2, 3))]
        states = {s: "".join(rng.choice(names) for _ in range(rng.randint(1, 3)))
                  for s in names}
        truth = periodic(states)
        # strongly connected only: on a reducible automaton whose Perron root
        # repeats (A -> A B A ; B -> B B), br_exact_periodic's power
        # iteration converges slowly and one job takes seconds
        if any(len(reachable(dict(truth, root=s))) != len(names) for s in names):
            continue
        if regular is not None and level_regular(truth, 12) != regular:
            continue
        if lo <= branching_number(truth) <= hi:
            return truth


def random_cyclic(rng: random.Random) -> dict:
    """Level-regular periodic spec: a cycle of 2-4 states, state i having
    c_i children all of state i+1."""
    while True:
        m = rng.randint(2, 4)
        counts = [rng.randint(1, 3) for _ in range(m)]
        if math.prod(counts) > 1:
            break
    names = "ABCD"[:m]
    return periodic({names[i]: names[(i + 1) % m] * counts[i] for i in range(m)})


def random_symmetric(rng: random.Random) -> dict:
    pre = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
    while True:
        per = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        if 1.3 <= branching_number(symmetric(pre, per)) <= 2.5:
            return symmetric(pre, per)


def random_tree(rng: random.Random, k: int, free_max: int) -> dict:
    """Random explicit tree whose vertices outside the radius-k ball number
    at most free_max, with height above k."""
    while True:
        parents, levels, frontier = [], [0], [0]
        height = rng.randint(k + 2, k + 4)
        for lv in range(height):
            nxt = []
            for v in frontier:
                for _ in range(rng.choice((1, 1, 2, 2, 3))):
                    parents.append(v)
                    levels.append(lv + 1)
                    nxt.append(len(levels) - 1)
            frontier = nxt
        free = sum(1 for lv in levels if lv > k)
        if 6 <= free <= free_max:
            return explicit(parents)


# -- jobs -----------------------------------------------------------------------


class Builder:
    """Collects a workload's jobs and the spec files they name."""

    def __init__(self, workload: str, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.jobs: list[dict] = []
        self.files: dict[str, str] = {}

    def spec_file(self, name: str, truth: dict) -> str:
        path = os.path.join(self.workdir, "specs", f"{name}.tree")
        self.files[path] = spec_text(truth)
        return path

    def add(self, name: str, kind: str, argv=None, deadline=None, reps=None, **fields):
        job = {"id": f"{len(self.jobs):03d}.{name}", "kind": kind, "argv": argv,
               "deadline_s": deadline or DEADLINE_S[self.workload], "reps": reps}
        job.update(fields)
        self.jobs.append(job)
        return job


def _contain(b: Builder, name: str, truth: dict, lam: Fraction, k=None, **kw):
    path = b.spec_file(name, truth)
    argv = ["contain", path, "--lambda", str(lam)]
    if k is not None:
        argv += ["--k", str(k)]
    return b.add(name + f"-l{lam.numerator}_{lam.denominator}" + (f"-k{k}" if k else ""),
                 "contain", argv, truth=truth, lam=str(lam), k=k if k is not None else 1,
                 **kw)


def every_layer(b: Builder) -> None:
    """Tiny fixed jobs, a few milliseconds in all, that reach every traced
    layer, so that no per-layer time reads a constant zero on a workload."""
    _contain(b, "layers-above", BINARY, Fraction(3), 1)
    _contain(b, "layers-bracket", symmetric([3, 2], [1, 2]), Fraction(5, 2), 1)
    _contain(b, "layers-below", BINARY, Fraction(3, 2), None)
    tree = explicit([0, 0, 1, 1, 2, 2])
    b.add("layers-oracle", "oracle", ["oracle", b.spec_file("layers-oracle", tree), "--budget",
                                      "const:1", "--k", "0"], truth=tree, k=0, budget="const:1")
    _cayley(b, "layers-growth", "zd:2", "growth", 4)
    _cayley(b, "layers-surround", "zd:2", "surround", 6, **{"lambda": Fraction(2), "k": 0})
    _cayley(b, "layers-polyprobe", "free:2", "polyprobe", 4, k=1, c=2, d=2)


def cut_depth(truth: dict, lam: Fraction, k: int, depth_max: int = 40):
    """Depth at which synthesis finds its cut: the first D > k whose
    min-cut weight falls below the cut-weight target eps of the schedule
    argument, both in floats.  The weight comes from the per-level
    recursion y = min(1, sum(children y) / lam).  None past depth_max."""
    x, p, q = float(lam), lam.numerator, lam.denominator
    head, pm, qm = math.inf, 1, 1
    for m in range(1, 121):
        pm, qm = pm * p, qm * q
        head = min(head, (pm // qm) * x ** -(k + m))
    eps = min(head, x ** -k * (1 - x ** -121))
    y = {s: 1.0 for s in truth.get("states", ())}
    for depth in range(1, depth_max + 1):
        if truth["variant"] == "periodic":
            weight = sum(y[t] for t in truth["states"][truth["root"]]) / x
            y = {s: min(1.0, sum(y[t] for t in kids) / x) for s, kids in truth["states"].items()}
        else:
            sizes = level_counts(truth, depth)
            counts = [b // a for a, b in zip(sizes, sizes[1:])]
            w = 1.0
            for c in reversed(counts[1:]):
                w = min(1.0, c * w / x)
            weight = counts[0] * w / x
        if depth > k and weight < eps:
            return depth
    return None


# (family, fixed truth or None for one random spec, k).  Each
# family gets ABOVE_STRATA jobs; job i targets a truncation of about
# SIZE_LADDER[i] vertices (job cost grows with the truncation synthesis
# must build, about 50 us per vertex), and the seed picks the
# rate among the grid rates p/RATE_DENOMINATOR just above br that hit it.
# The job mix, and so the latency distribution, is then the same shape for
# every seed, and the largest draw stays far below the deadline.
ABOVE_FAMILIES = [
    ("binary", BINARY, 1), ("binary", BINARY, 2), ("binary", BINARY, 3),
    ("ternary", TERNARY, 1), ("ternary", TERNARY, 2),
    ("fib", FIB, 1), ("fib", FIB, 2), ("fib", FIB, 3),
    ("sqrt2", SQRT2, 1), ("sqrt2", SQRT2, 2), ("sqrt2", SQRT2, 3),
    ("rand", None, 1), ("rand", None, 2), ("sym", None, 1), ("sym", None, 2),
]
ABOVE_STRATA = 7
# 40 .. 490 vertices; the top size twice, so that job_p90_s falls inside
# a block of about twenty similar jobs rather than at a gap between sizes
SIZE_LADDER = [40 * 1.65 ** min(i, ABOVE_STRATA - 2) for i in range(ABOVE_STRATA)]
# Random specs stay small (40 .. 150 vertices), below job_p50_s, so that
# which spec a seed draws does not move the latency percentiles.
SMALL_LADDER = [40 * 1.25 ** i for i in range(ABOVE_STRATA)]
RATE_DENOMINATOR = 20
SIZE_MAX = 6000


def rate_table(truth: dict, k: int) -> list[tuple[Fraction, int]]:
    """(rate, truncation size at the cut depth) for grid rates between
    1.01 and 1.8 times the branching number."""
    br = branching_number(truth)
    out = []
    for p in range(math.floor(br * 1.01 * RATE_DENOMINATOR) + 1,
                   math.ceil(br * 1.8 * RATE_DENOMINATOR) + 1):
        lam = Fraction(p, RATE_DENOMINATOR)
        depth = cut_depth(truth, lam, k)
        size = depth and sum(level_counts(truth, depth))
        if size and size <= SIZE_MAX:
            out.append((lam, size))
    return out


def draw_rate(rng: random.Random, table, target: float) -> Fraction:
    """A rate whose truncation size is nearest the target on a log scale."""
    gap = {lam: abs(math.log(size / target)) for lam, size in table}
    best = min(gap.values())
    return rng.choice([lam for lam, g in gap.items() if g <= best + 0.2])


def above_synth(b: Builder, rng: random.Random) -> None:
    _contain(b, "anchor-ternary", TERNARY, Fraction(7, 2), 1, anchor=True, deadline=20.0,
             reps=HEAVY_REPS)
    _contain(b, "anchor-binary", BINARY, Fraction(5, 2), 3, anchor=True, deadline=8.0,
             reps=HEAVY_REPS)
    _contain(b, "anchor-fib", FIB, Fraction(17, 10), 2, anchor=True, reps=HANG_REPS)
    every_layer(b)
    for family, fixed, k in ABOVE_FAMILIES:
        table = []
        while not table:  # a random spec with no usable rate is drawn again
            truth = fixed or (random_periodic(rng, 1.3, 2.2) if family == "rand"
                              else random_symmetric(rng))
            table = rate_table(truth, k)
        for target in SIZE_LADDER if fixed else SMALL_LADDER:
            _contain(b, f"{family}-{len(b.jobs)}", truth, draw_rate(rng, table, target), k)
    # Ternary at k = 2 cuts no truncation smaller than 1093 vertices, so its
    # family's seven jobs all cost 30-40 ms, the most of any draw.  Eight
    # more make a block of fifteen, and job_p90_s falls inside it rather than
    # at its lower edge, where the next family is 25% cheaper.
    table = rate_table(TERNARY, 2)
    for _ in range(8):
        _contain(b, f"ternary-{len(b.jobs)}", TERNARY, draw_rate(rng, table, SIZE_LADDER[-1]), 2)


HEAVY_PROBES = 16
# (k, D - k) strata of the Pareto probes on non-level-regular specs; past
# D - k = 5 a probe costs from milliseconds to seconds depending on the budget
PROBE_STRATA = [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)]


def _budget(rng: random.Random, i: int) -> str:
    """The budget kind cycles with i, so every seed has the same mix."""
    kind = ("exp", "const", "exp", "poly")[i % 4]
    if kind == "exp":
        return f"exp:{Fraction(1 + 0.5 * rng.random()).limit_denominator(10)}"
    if kind == "const":
        return f"const:{rng.randint(1, 2)}"
    return f"poly:1,{rng.randint(0, 1)}"


def below_decide(b: Builder, rng: random.Random) -> None:
    _contain(b, "anchor-fib", FIB, Fraction(3, 2), None, anchor=True, reps=HANG_REPS)
    _probe(b, "anchor-probe-fib", FIB, 1, 7, "exp:3/2", anchor=True, reps=HEAVY_REPS)
    every_layer(b)
    # Pareto probes at fib, k = 1, D = 7: about 0.3 s each at these rates,
    # all in the Pareto program; job_p90_s falls inside this block
    for i in range(HEAVY_PROBES):
        rate = Fraction(1.45 + 0.15 * stratum(rng, i, HEAVY_PROBES)).limit_denominator(20)
        _probe(b, f"probe-heavy-{i}", FIB, 1, 7, f"exp:{rate}", reps=HEAVY_REPS)
    for i in range(40):  # certificates on level-regular specs
        truth = [BINARY, TERNARY, SQRT2, None][i % 4] or random_cyclic(rng)
        br = branching_number(truth)
        u = 0.2 + 0.6 * stratum(rng, i // 4, 10)
        lam = Fraction(1 + (br - 1) * u).limit_denominator(20)
        if not 1 < lam < br - 1e-3:
            lam = Fraction(1 + (br - 1) / 2).limit_denominator(20)
        _contain(b, f"below-{i}", truth, lam, None)
    for i, (k, n) in enumerate(PROBE_STRATA * 3):  # Pareto program
        truth = FIB if i % 2 == 0 or n > 4 else random_periodic(rng, 1.2, 1.9, regular=False)
        _probe(b, f"probe-{i}", truth, k, k + n, _budget(rng, i))
    for i in range(24):  # brute-force oracle on small explicit trees
        k = i % 2
        truth = random_tree(rng, k, 14 + i % 7)
        name = f"oracle-{i}"
        budget = rng.choice(("const:1", "const:2", "exp:3/2", "list:2,1", "list:1,2,1"))
        b.add(name, "oracle", ["oracle", b.spec_file(name, truth), "--budget", budget,
                               "--k", str(k)], truth=truth, k=k, budget=budget)
    # polyprobes whose lex-min trees are not level-regular; past these radii
    # the ball, not the Pareto program, takes most of a job (freeprod:3,3
    # at R = 16 spends 4 of its 5 s in cayley.ball), and zd:3 past R = 5
    # ranges from milliseconds to seconds.  (c, d) cycle, since the decision
    # the referee can confirm depends on them.
    for i in range(9):
        group, radius = ("freeprod:3,3", 9 + i % 3) if i < 6 else ("zd:3", 5)
        _cayley(b, f"polyprobe-{i}", group, "polyprobe", radius, k=1, c=1 + i % 3,
                d=1 + (i // 3) % 2)


def _probe(b: Builder, name: str, truth: dict, k: int, depth: int, budget: str, **kw):
    b.add(name, "probe", spec=b.spec_file(name, truth), truth=truth, k=k, depth=depth,
          budget=budget, **kw)


def _cayley(b: Builder, name: str, group: str, mode: str, radius: int, deadline=None,
            anchor=False, reps=None, **opts):
    argv = ["cayley", group, "--mode", mode, "--R", str(radius)]
    for key in ("lambda", "k", "c", "d"):
        if key in opts:
            argv += [f"--{key}", str(opts[key])]
    if mode == "tree":
        opts["out"] = os.path.join(b.workdir, "out", f"{name}.tree")
        argv += ["--out", opts["out"]]
    return b.add(name, "cayley", argv, deadline=deadline, reps=reps, anchor=anchor,
                 group=group, mode=mode, R=radius, **{k: str(v) for k, v in opts.items()})


# (group, radii, surround rate range): small balls, each job well under
# 0.1 s.  The balls of the free groups and of freeprod grow exponentially,
# a radius step costs them 3-4x, so each of their CAYLEY_STRATA strata has
# a fixed radius; had the seed rounded a draw up or down, the number of
# jobs above job_p90_s would change with it.  The polynomial groups draw
# their radius from a range, stratified.
CAYLEY_GROUPS = [
    ("free:2", (5, 6, 7, 8), (3.3, 6.0)),
    ("free:3", (3, 4, 4, 5), (9.0, 16.0)),
    ("zd:2", (10, 40), (1.3, 2.0)),
    ("zd:3", (5, 12), (1.5, 2.5)),
    ("dinf", (10, 60), (1.5, 3.0)),
    ("freeprod:3,3", (7, 8, 9, 10), (2.3, 3.0)),
]
CAYLEY_STRATA = 4
HEAVY_MODES = ("growth", "surround", "polyprobe", "tree")


def sphere_size(group: str, n: int) -> int:
    """Closed-form |S(n)| of the built-in groups' Cayley graphs."""
    if n == 0:
        return 1
    kind, _, arg = group.partition(":")
    if kind == "free":
        r = int(arg)
        return 2 * r * (2 * r - 1) ** (n - 1)
    if group == "zd:2":
        return 4 * n
    if group == "zd:3":
        return 4 * n * n + 2
    if group == "dinf":
        return 2
    if group == "freeprod:3,3":
        return 2 ** (n + 1)
    raise ValueError(f"no closed form for {group}")


def surround_trigger(group: str, lam: Fraction, k: int, radius: int):
    """Least n with floor(lam**n) >= |S(k+n+1)| and k+n+1 <= radius."""
    n = 1
    while k + n + 1 <= radius:
        if math.floor(lam ** n) >= sphere_size(group, k + n + 1):
            return n
        n += 1
    return None


def _surround(b: Builder, rng: random.Random, group: str, rates, radius: int):
    """Surround on a ball of the given radius with a seeded rate and k
    whose trigger fits the ball."""
    lo, hi = rates
    for _ in range(1000):
        k = rng.randint(0, 2)
        lam = Fraction(lo + (hi - lo) * rng.random()).limit_denominator(10)
        if surround_trigger(group, lam, k, radius) is not None:
            return _cayley(b, f"surround-{len(b.jobs)}", group, "surround", radius,
                           **{"lambda": lam, "k": k})
    raise RuntimeError(f"no surround draw for {group}")


def cayley_balls(b: Builder, rng: random.Random) -> None:
    _cayley(b, "anchor-growth", "free:2", "growth", 11, anchor=True, deadline=30.0,
            reps=HEAVY_REPS)
    _cayley(b, "anchor-surround", "free:2", "surround", 11, anchor=True, deadline=30.0,
            reps=HEAVY_REPS, **{"lambda": Fraction(4), "k": 1})
    every_layer(b)
    # free:2 at R = 7: about 0.03 s per job in every mode; job_p90_s falls
    # inside this block
    for i in range(16):
        mode = HEAVY_MODES[i % len(HEAVY_MODES)]
        if mode == "surround":
            _surround(b, rng, "free:2", (4.5, 6.0), 7)
        elif mode == "polyprobe":
            _cayley(b, f"polyprobe-{len(b.jobs)}", "free:2", mode, 7, k=rng.randint(1, 2),
                    c=rng.randint(1, 6), d=rng.randint(2, 3))
        else:
            _cayley(b, f"{mode}-{len(b.jobs)}", "free:2", mode, 7)
    # surrounds at R = 8 on zd:3 and freeprod:3,3, about 9 ms each whatever
    # the seeded rate and k (ball construction dominates): job_p50_s falls
    # inside this block rather than between the strata of the groups whose
    # balls grow exponentially
    for i in range(16):
        group, _, rates = CAYLEY_GROUPS[(3, 5)[i % 2]]
        _surround(b, rng, group, rates, 8)
    for rep in range(CAYLEY_STRATA):
        for group, radii, rates in CAYLEY_GROUPS:
            for mode in ("growth", "tree"):
                if len(radii) == CAYLEY_STRATA:
                    radius = radii[rep]
                else:
                    lo, hi = radii
                    radius = round(lo + (hi - lo) * stratum(rng, rep, CAYLEY_STRATA))
                _cayley(b, f"{mode}-{len(b.jobs)}", group, mode, radius)
            _surround(b, rng, group, rates, min(radii[-1], 8))
    for i in range(CAYLEY_STRATA):  # polyprobes on a level-regular lex-min tree
        _cayley(b, f"polyprobe-{len(b.jobs)}", "free:2", "polyprobe", 5 + i % 3,
                k=rng.randint(1, 2), c=rng.randint(1, 6), d=rng.randint(2, 3))


GENERATORS = {"above-synth": above_synth, "below-decide": below_decide,
              "cayley-balls": cayley_balls}


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the spec files and return the job list."""
    b = Builder(workload, workdir)
    GENERATORS[workload](b, random.Random(f"{workload}:{seed}"))
    for sub in ("specs", "out"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    for path, text in b.files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return b.jobs


def job_list_bytes(jobs: list[dict]) -> bytes:
    return json.dumps(jobs, sort_keys=True, separators=(",", ":")).encode()
