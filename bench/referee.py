"""Independent checks of every benchmark job's answer.

The referee re-derives what it can from the job's ``truth`` (the spec's
own structure, known to the generator) with its own tree expansion and
its own fire-spread loop, never ``firebreak.game``.  Each check returns
one of:

* ``decided``   -- a determinate answer the referee confirmed;
* ``unchecked`` -- a determinate answer no check here can confirm (for
  example an infeasible Pareto decision on more than 20 free vertices);
* ``wrong``     -- an answer a check rejects (raised as ``Wrong``).

Only the small-instance cross-checks call into the program: infeasible
probes on at most 20 free vertices are compared with
``firebreak.oracle.brute_force_containment``, and oracle answers with
``firebreak.game.feasibility_check``, as two different algorithms.
"""

from __future__ import annotations

import math
from fractions import Fraction

import workloads as wl

DECIDED, UNCHECKED = "decided", "unchecked"
ORACLE_FREE_MAX = 20
EVIDENCE_DEPTHS = 8  # the contain subcommand's default --evidence-depths


class Wrong(Exception):
    """The program's answer fails an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


# -- reports ---------------------------------------------------------------------


def parse_report(text: str) -> tuple[dict[str, str], dict[str, list[list[str]]]]:
    """``result.*`` lines and CSV blocks (header dropped) of a CLI report."""
    result, tables, current = {}, {}, None
    for line in text.splitlines():
        if line.startswith("result."):
            key, _, value = line[len("result."):].partition(" = ")
            result[key] = value
            current = None
        elif line.startswith("config."):
            current = None
        elif line.startswith("csv "):
            current = tables.setdefault(line[4:], [])
            current.append(None)  # header placeholder
        elif current is not None:
            if current and current[0] is None:
                current[0] = line.split(",")
            else:
                current.append(line.split(","))
    return result, {name: rows[1:] for name, rows in tables.items()}


def ids(field: str) -> list[int]:
    return [] if field in ("", "-") else [int(t) for t in field.split()]


# -- budgets -----------------------------------------------------------------------


def budget_fn(text: str):
    kind, _, arg = text.partition(":")
    if kind == "const":
        return lambda n: int(arg)
    if kind == "exp":
        rate = Fraction(arg)
        return lambda n: (rate.numerator ** n) // (rate.denominator ** n)
    if kind == "poly":
        coeff, degree = arg.split(",")
        c = Fraction(coeff)
        return lambda n: math.floor(c * n ** int(degree))
    values = [int(t) for t in arg.split(",")]
    return lambda n: values[min(n, len(values)) - 1]


def cumulative(f, m: int) -> int:
    return sum(f(i) for i in range(1, m + 1))


# -- trees and the fire loop ---------------------------------------------------------


class Tree:
    """Depth-D truncation in level-major order, children in spec order:
    the vertex numbering the program's reports use."""

    def __init__(self, truth: dict, depth: int):
        variant = truth["variant"]
        if variant == "explicit":
            kids = [[] for _ in range(len(truth["parents"]) + 1)]
            for i, p in enumerate(truth["parents"]):
                kids[p].append(i + 1)

        def kids_of(node, lv):
            if variant == "periodic":
                return truth["states"][node]
            if variant == "symmetric":
                pre, per = truth["pre"], truth["per"]
                return [None] * (pre[lv] if lv < len(pre) else per[(lv - len(pre)) % len(per)])
            return kids[node]

        self.parent, self.children, self.level = [-1], [[]], [0]
        origin = [truth["root"] if variant == "periodic" else 0]
        frontier = [0]
        for lv in range(depth):
            nxt = []
            for v in frontier:
                for child in kids_of(origin[v], lv):
                    w = len(self.parent)
                    self.parent.append(v)
                    self.children.append([])
                    self.children[v].append(w)
                    self.level.append(lv + 1)
                    origin.append(child)
                    nxt.append(w)
            frontier = nxt
        self.depth = depth
        # explicit and symmetric level-D vertices continue (the program's
        # escape-leaf convention); periodic ones when their state has children
        self.boundary = {v for v in frontier
                         if variant != "periodic" or truth["states"][origin[v]]}

    @property
    def n(self) -> int:
        return len(self.parent)

    def neighbours(self, v: int) -> list[int]:
        return self.children[v] if self.parent[v] < 0 else [self.parent[v]] + self.children[v]

    def vertex_of_path(self, path) -> int:
        v = 0
        for step in path:
            v = self.children[v][step]
        return v

    def separated(self, cut: set[int]) -> bool:
        stack, seen = [0], {0}
        while stack:
            v = stack.pop()
            if v in self.boundary:
                return False
            for w in self.children[v]:
                if w not in cut and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return True


def play(tree: Tree, k: int, protect_for, budget) -> tuple[int, int]:
    """Fire on the radius-k ball; each round protect ``protect_for(n,
    status)`` within ``budget(n)``, then spread.  Returns (round, burnt)
    on containment and raises Wrong on a rule break or an escape."""
    UNTOUCHED, BURNING, PROTECTED = 0, 1, 2
    status = bytearray(tree.n)
    frontier = [v for v in range(tree.n) if tree.level[v] <= k]
    for v in frontier:
        status[v] = BURNING
    require(not tree.boundary.intersection(frontier), "fire starts on the boundary")
    for n in range(1, tree.n + 3):
        chosen = protect_for(n, status)
        require(len(set(chosen)) <= budget(n), f"round {n}: {len(chosen)} protected, budget {budget(n)}")
        for v in chosen:
            require(0 <= v < tree.n and status[v] != BURNING, f"round {n}: bad protect {v}")
            status[v] = PROTECTED
        newly = []
        for v in frontier:
            for w in tree.neighbours(v):
                if status[w] == UNTOUCHED:
                    status[w] = BURNING
                    newly.append(w)
        require(not tree.boundary.intersection(newly), f"round {n}: fire reached the boundary")
        if not newly:
            return n, status.count(BURNING)
        frontier = newly
    raise Wrong("fire neither contained nor escaped")


def canonical_play(tree: Tree, k: int, cut: list[int], budget) -> tuple[int, int]:
    """Each round protect the untouched cut vertices closest to the root."""
    order = sorted(cut, key=lambda v: (tree.level[v], v))

    def protect_for(n, status):
        return [v for v in order if status[v] == 0][:budget(n)]

    return play(tree, k, protect_for, budget)


def check_deadlines(tree: Tree, k: int, cut: list[int], budget) -> None:
    require(all(tree.level[v] > k for v in cut), "cut vertex inside the initial fire")
    for j in range(1, tree.depth - k + 1):
        used = sum(1 for v in cut if tree.level[v] <= k + j)
        require(used <= cumulative(budget, j), f"cut misses the level-{k + j} deadline")


def full_level_fits(counts: list[int], k: int, depth: int, budget) -> bool:
    """Protecting a whole level k+j by round j is a valid cut."""
    return any(cumulative(budget, j) >= counts[k + j] for j in range(1, depth - k + 1))


# -- per-kind checks ---------------------------------------------------------------------


def check_br(truth: dict, result: dict) -> None:
    br = wl.branching_number(truth)
    if truth["variant"] == "periodic":
        require(abs(float(result["br_exact"]) - br) <= 1e-6 * br, "br_exact disagrees with eigvals")
    else:
        lo, hi = float(result["bracket_lo"]), float(result["bracket_hi"])
        require(lo - 1e-9 <= br <= hi + 1e-9, "bracket misses the branching number")


def fixed_point_cut(truth: dict, rate: float) -> float:
    names = wl.reachable(truth)
    y = {s: 1.0 for s in names}
    for _ in range(1_000_000):
        nxt = {s: min(1.0, sum(y[t] for t in truth["states"][s]) / rate) for s in names}
        delta = max(abs(nxt[s] - y[s]) for s in names)
        y = nxt
        if delta < 1e-14:
            break
    return sum(y[t] for t in truth["states"][truth["root"]]) / rate


def check_contain(job: dict, result: dict, tables: dict) -> str:
    truth, lam, k = job["truth"], Fraction(job["lam"]), job["k"]
    check_br(truth, result)
    if float(lam) > wl.branching_number(truth):
        require(result.get("regime") == "above", "regime is not 'above'")
        return check_above(truth, lam, k, result, tables)
    require(result.get("regime") == "below", "regime is not 'below'")
    return check_below(truth, float(lam), result, tables)


def check_above(truth, lam: Fraction, k: int, result, tables) -> str:
    cut_w, flow = Fraction(result["cut_weight"]), Fraction(result["flow_value"])
    require(cut_w == flow, "cut_weight != flow_value")
    tree = Tree(truth, int(result["cut_depth"]))
    budget = budget_fn(f"exp:{lam}")
    schedule = {}
    for rnd, bud, protect in tables["schedule"]:
        require(int(bud) == budget(int(rnd)), f"round {rnd}: budget column {bud}")
        schedule[int(rnd)] = ids(protect)
    cut = [v for vs in schedule.values() for v in vs]
    require(len(cut) == int(result["cut_size"]), "cut_size != scheduled vertices")
    require(sum(lam ** -tree.level[v] for v in cut) == cut_w, "schedule weight != cut_weight")
    require(tree.separated(set(cut)), "schedule does not separate the root from the boundary")
    rnd, burnt = play(tree, k, lambda n, st: schedule.get(n, []), budget)
    require(result["verdict"] == "contained", "verdict is not contained")
    require((rnd, burnt) == (int(result["verdict_round"]), int(result["burnt"])),
            f"replay contained at round {rnd} with {burnt} burnt")
    return DECIDED


def check_below(truth, lam: float, result, tables) -> str:
    require(result["certificate_valid"] == "true", "certificate not valid")
    mid, coeff = float(result["certificate_mid_rate"]), float(result["certificate_budget_coeff"])
    floor, radius = float(result["certificate_cut_floor"]), int(result["certificate_radius"])
    br = wl.branching_number(truth)
    require(lam < mid < br, "mid rate not between the rate and br")
    require(lam <= 1 or coeff >= lam / (lam - 1) - 1e-9, "budget coefficient too small")
    require(fixed_point_cut(truth, mid) > floor, "cut floor above the min-cut limit")
    ratio = lam / mid
    require(coeff * ratio ** (radius + 1) / (1 - ratio) < floor, "geometric tail above the floor")
    rows = tables["feasibility_evidence"]
    require(len(rows) == EVIDENCE_DEPTHS, "evidence depths missing")
    require(all(row[1] == "infeasible" for row in rows), "a certified depth is feasible")
    require(result["all_probed_depths_infeasible"] == "true", "summary disagrees with evidence")
    return DECIDED


def check_probe(job: dict, answer) -> str:
    truth, k, depth = job["truth"], job["k"], job["depth"]
    budget = budget_fn(job["budget"])
    counts = wl.level_counts(truth, depth)
    if answer.feasible:
        if answer.witness_paths is None:
            return UNCHECKED
        tree = Tree(truth, depth)
        cut = [tree.vertex_of_path(p) for p in answer.witness_paths]
        require(tree.separated(set(cut)), "witness does not separate the root from the boundary")
        check_deadlines(tree, k, cut, budget)
        canonical_play(tree, k, cut, budget)
        return DECIDED
    require(not full_level_fits(counts, k, depth, budget), "infeasible, yet a full level fits")
    if sum(counts) - sum(counts[:k + 1]) > ORACLE_FREE_MAX:
        return UNCHECKED
    from firebreak.game import BudgetSequence
    from firebreak.oracle import brute_force_containment
    from firebreak.trees import load_tree_spec, expand
    trunc = expand(load_tree_spec(job["spec"]), depth)
    fire = [v for v in range(trunc.n_vertices) if trunc.level[v] <= k]
    oracle = brute_force_containment(trunc, fire, BudgetSequence.parse(job["budget"]))
    require(not oracle.feasible, "oracle finds a containing strategy")
    return DECIDED


def check_oracle(job: dict, result: dict, tables: dict) -> str:
    from firebreak.game import BudgetSequence, feasibility_check
    from firebreak.trees import ExplicitSpec
    truth, k = job["truth"], job["k"]
    tree = Tree(truth, max(explicit_levels(truth)))
    spec = ExplicitSpec(parents=tuple(truth["parents"]))
    feasible = result["feasible"] == "true"
    other = feasibility_check(spec, k, BudgetSequence.parse(job["budget"]), tree.depth)
    require(other.feasible == feasible, "oracle and feasibility_check disagree")
    if feasible:
        schedule = {int(r): ids(vs) for r, vs in tables["witness"]}
        play(tree, k, lambda n, st: schedule.get(n, []), budget_fn(job["budget"]))
    return DECIDED


def explicit_levels(truth: dict) -> list[int]:
    lv = [0] * (len(truth["parents"]) + 1)
    for i, p in enumerate(truth["parents"]):
        lv[i + 1] = lv[p] + 1
    return lv


def check_cayley(job: dict, result: dict, tables: dict) -> str:
    group, mode, radius = job["group"], job["mode"], job["R"]
    spheres = [wl.sphere_size(group, n) for n in range(radius + 1)]
    if mode == "growth":
        total = 1
        for row in tables["growth"]:
            n, sphere, ball = int(row[0]), int(row[1]), int(row[2])
            total += spheres[n]
            require((sphere, ball) == (spheres[n], total), f"sphere {n} is {sphere}")
        require(int(result["ball_size"]) == sum(spheres), "ball_size")
        return DECIDED
    if mode == "tree":
        require(int(result["vertices"]) == sum(spheres), "exported vertex count")
        parents = []
        with open(job["out"], encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0]
                if line.startswith("parents:"):
                    parents += [int(t) for t in line[len("parents:"):].split()]
        levels = explicit_levels({"parents": parents})
        counts = [levels.count(n) for n in range(max(levels) + 1)]
        require(counts == spheres, "exported tree levels differ from sphere sizes")
        return DECIDED
    k = int(job["k"])
    if mode == "surround":
        lam = Fraction(job["lambda"])
        n = wl.surround_trigger(group, lam, k, radius)
        require(int(result["trigger_round"]) == n, f"trigger round, expected {n}")
        require(int(result["sphere_index"]) == k + n + 1, "sphere index")
        require(int(result["sphere_size"]) == spheres[k + n + 1], "sphere size")
        require(result["verdict"] == "contained", "surround did not contain")
        for rnd, bud, sphere in tables["budget_vs_sphere"]:
            r = int(rnd)
            require((int(bud), int(sphere)) == (budget_fn(f"exp:{lam}")(r), spheres[k + r + 1]),
                    f"budget_vs_sphere round {r}")
        return DECIDED
    budget = budget_fn(f"poly:{job['c']},{job['d']}")
    for n, cum, sphere in tables["budget_vs_sphere"]:
        require((int(cum), int(sphere)) == (cumulative(budget, int(n)), spheres[int(n) + 1]),
                f"budget_vs_sphere row {n}")
    fits = full_level_fits(spheres, k, radius, budget)
    if result["feasible"] == "true":
        return DECIDED if fits else UNCHECKED
    require(not fits, "infeasible, yet a full sphere fits")
    return UNCHECKED


def check(job: dict, answer) -> str:
    """Referee one job that exited 0.  ``answer`` is the CLI report text,
    or the FeasibilityResult of a direct probe."""
    try:
        if job["kind"] == "probe":
            return check_probe(job, answer)
        result, tables = parse_report(answer)
        return {"contain": check_contain, "oracle": check_oracle,
                "cayley": check_cayley}[job["kind"]](job, result, tables)
    except Wrong:
        raise
    except Exception as exc:  # a missing line or field is a wrong answer too
        raise Wrong(f"unreadable answer: {exc!r}") from exc
