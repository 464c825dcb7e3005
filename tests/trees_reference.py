"""The list-based truncation and cut walks that the numpy unfolding and the
level-by-level cut walks replaced, kept verbatim as the reference of the
differential tests: ``expand`` grows Python lists one vertex at a time,
``min_cutset`` and ``separates`` walk a stack, and ``cut_weight`` counts
levels with a Counter."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from firebreak.branching import Cutset, _truncation_recursion, edge_weight, exact_rate
from firebreak.errors import ResourceLimitError, SpecError
from firebreak.trees import VERTEX_CAP_ENV, TreeSpec, compile, vertex_cap


@dataclass
class Truncation:
    spec: TreeSpec
    depth: int
    parent: list[int]
    children: list[list[int]]
    level: list[int]
    state: list[int]
    boundary: tuple[int, ...] = field(default=())

    @property
    def n_vertices(self) -> int:
        return len(self.parent)


def expand(spec: TreeSpec, depth: int) -> Truncation:
    if depth < 0:
        raise SpecError("depth must be >= 0")
    limit = vertex_cap()
    auto = compile(spec)
    total = sum(auto.level_counts(depth))
    if total > limit:
        raise ResourceLimitError(
            f"truncation would have {total} vertices, cap is {limit} ({VERTEX_CAP_ENV})"
        )

    succ = auto.children
    parent: list[int] = [-1]
    children: list[list[int]] = [[]]
    level: list[int] = [0]
    state = [auto.root]
    frontier = [0]
    for lv in range(1, depth + 1):
        nxt = []
        for v in frontier:
            for child_state in succ[state[v]]:
                w = len(parent)
                parent.append(v)
                children.append([])
                children[v].append(w)
                level.append(lv)
                state.append(child_state)
                nxt.append(w)
        frontier = nxt
    boundary = tuple(v for v in frontier if auto.continues(state[v]))
    return Truncation(spec, depth, parent, children, level, state, boundary)


def separates(cutset: Cutset, trunc: Truncation) -> bool:
    boundary = set(trunc.boundary)
    stack = [0]
    while stack:  # a tree: each vertex is reached once, from its parent
        v = stack.pop()
        if v in boundary:
            return False
        stack.extend(w for w in trunc.children[v] if w not in cutset.edges)
    return True


def cut_weight(trunc: Truncation, cutset: Cutset, rate):
    rate = exact_rate(rate)
    if float(rate) <= 0:
        raise SpecError("rate must be positive")
    for v in cutset.edges:
        if not 1 <= v < trunc.n_vertices:
            raise SpecError(f"edge id {v} out of range")
    if not separates(cutset, trunc):
        raise SpecError("edge set does not separate the root from the boundary")
    per_level = Counter(trunc.level[v] for v in cutset.edges)
    return sum(n * edge_weight(rate, lv) for lv, n in per_level.items())


def min_cutset(trunc: Truncation, rate) -> Cutset:
    _, ys, _ = _truncation_recursion(trunc, rate)
    depth, level, state = trunc.depth, trunc.level, trunc.state
    edges: list[int] = []
    stack = list(trunc.children[0])
    while stack:
        v = stack.pop()
        y = ys[depth - level[v]][state[v]]
        if y == 1:
            edges.append(v)
        elif y:
            stack.extend(trunc.children[v])
    return Cutset(edges=frozenset(edges))
