"""The Pareto profile program: the slow reference for deadline feasibility.

A bottom-up dynamic program over Pareto-minimal cumulative level-count
profiles, memoised per (level, automaton state) for the states that occur
at each level.  It decides every tree by one search (no greedy on chain
levels) and picks the lexicographically minimal profile among the
feasible ones, so its ``feasible`` and ``witness_levels`` must equal
``feasibility_check``'s.
Its frontier grows about 6x per extra level on the Fibonacci tree, which is
why the library decides feasibility on per-(level, state) live counts
instead.
"""

from itertools import accumulate

from firebreak.errors import SpecError
from firebreak.game import FeasibilityResult
from firebreak.trees import compile


def _pareto(entries):
    entries = sorted(entries, key=lambda e: e[0])
    kept = []
    for p, tag in entries:
        if any(all(a <= b for a, b in zip(q, p)) for q, _ in kept):
            continue
        kept.append((p, tag))
    return kept


def pareto_feasibility(spec, radius, budget, depth) -> FeasibilityResult:
    """feasibility_check through the profile program, for every tree."""
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if depth <= radius:
        raise SpecError("depth must exceed the initial radius")
    ncoords = depth - radius
    caps = list(accumulate(budget(j) for j in range(1, ncoords + 1)))

    zero = (0,) * ncoords

    def unit(level: int) -> tuple[int, ...]:
        j0 = level - radius - 1
        return tuple(0 if j < j0 else 1 for j in range(ncoords))

    def within(p) -> bool:
        return all(a <= c for a, c in zip(p, caps))

    auto = compile(spec)
    succ = auto.children
    # keyed by (level, state) for the states occurring at that level
    has_boundary: dict[tuple[int, int], bool] = {}
    frontier: dict[tuple[int, int], list] = {}

    def combine(kids, level):
        """Minkowski-sum the child frontiers under the caps, tracking
        which profile of each live child produced each sum."""
        partial = [(zero, ())]
        for child in kids:
            if not has_boundary[(level + 1, child)]:
                continue  # dead subtree needs no cut vertices
            front = frontier[(level + 1, child)]
            if not front:
                return []
            nxt: dict[tuple, tuple] = {}
            for p, choices in partial:
                for q, _tag in front:
                    s = tuple(a + b for a, b in zip(p, q))
                    if not within(s):
                        continue
                    if s not in nxt:
                        nxt[s] = choices + (q,)
            partial = _pareto(list(nxt.items()))
            if not partial:
                return []
        return partial

    levels = auto.level_states(depth)
    for level in range(len(levels) - 1, 0, -1):
        for state in levels[level]:
            kids = succ[state]
            if level == depth:
                hb = auto.continues(state)
            else:
                hb = any(has_boundary[(level + 1, ck)] for ck in kids)
            has_boundary[(level, state)] = hb
            if not hb:
                frontier[(level, state)] = [(zero, ("dead",))]
                continue
            options = []
            if level >= radius + 1:
                u = unit(level)
                if within(u):
                    options.append((u, ("take",)))
            if level < depth:
                options.extend(
                    (p, ("combine", choices)) for p, choices in combine(kids, level)
                )
            frontier[(level, state)] = _pareto(options)

    root_kids = succ[auto.root]
    if not any(has_boundary[(1, ck)] for ck in root_kids):
        return FeasibilityResult(feasible=True, depth=depth, radius=radius,
                                 witness_paths=(), witness_levels=())
    final = combine(root_kids, 0)
    if not final:
        return FeasibilityResult(feasible=False, depth=depth, radius=radius)

    chosen_profile, chosen = min(final, key=lambda e: e[0])

    # walk the (virtual) tree to materialise the witness
    witness: list[tuple[int, ...]] = []

    def walk(state, level, tag, path):
        if tag[0] == "dead":
            return
        if tag[0] == "take":
            witness.append(path)
            return
        choices = iter(tag[1])  # one profile per live child, in child order
        for i, child in enumerate(succ[state]):
            if has_boundary[(level + 1, child)]:
                child_front = dict(frontier[(level + 1, child)])
                walk(child, level + 1, child_front[next(choices)], path + (i,))

    walk(auto.root, 0, ("combine", chosen), ())
    per_level: dict[int, int] = {}
    for path in witness:
        per_level[len(path)] = per_level.get(len(path), 0) + 1
    return FeasibilityResult(feasible=True, depth=depth, radius=radius,
                             witness_paths=tuple(sorted(witness)),
                             witness_levels=tuple(sorted(per_level.items())))
