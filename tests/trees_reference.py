"""The list-based truncation and cut walks that the numpy unfolding and the
level-by-level cut walks replaced, and the min-cut recursion in
``fractions.Fraction`` that integer numerators over p**n replaced, kept
as the reference of the differential tests: ``expand`` grows Python
lists one vertex at a time, ``min_cutset`` and ``separates`` walk a stack,
``cut_weight`` counts levels with a Counter and sums one power per level,
``cut_weight_target`` takes a running power of the rate, and
``certificate_y`` steps the recursion from the Perron vector as
``lower_bound_certificate`` did."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from firebreak.branching import (Cutset, Rate, _compare_component, _components, _perron_vector,
                                 exact_rate)
from firebreak.errors import ResourceLimitError, SpecError, SynthesisError
from firebreak.trees import VERTEX_CAP_ENV, Automaton, TreeSpec, compile, vertex_cap


def edge_weight(rate: Fraction, level: int) -> Fraction:
    """rate**(-level), exact."""
    return rate ** (-level)


def _state_recursion(auto: Automaton, rate: Rate, y=None):
    """The min-cut recursion on the spec's automaton.  Yields (y_n, W(n+1))
    for n = 0, 1, ... forever, where y_0(s) = 1 if state s continues and 0
    otherwise (or the given start vector), and y_n(s) = min(1, sum of
    y_{n-1} over the children of s, divided by the rate), or 0 for a state
    without children.

    A level-L vertex in state s of a depth-D truncation has min-cut value
    c(v) = rate**(-L) * y_{D-L}(s): the cheapest cut below it, capped by
    the edge above it.  The root has no edge above it, so the depth-D
    min-cut weight W(D) is the sum of y_{D-1} over the root's children
    divided by the rate, and y_0 at the root for D = 0.  Arithmetic is
    exact, in Fractions."""
    one = edge_weight(rate, 0)
    zero = one - one
    kids, root_kids = auto.children, auto.children[auto.root]
    if y is None:
        y = [one if auto.continues(s) else zero for s in range(len(kids))]
    while True:
        yield y, sum(y[t] for t in root_kids) / rate
        y = [min(one, sum(y[t] for t in k) / rate) if k else zero for k in kids]


def cut_recursion(spec: TreeSpec, rate: Rate):
    """The one reader of W(1), W(2), ... per spec and rate: the rate, after
    exact_rate and a positivity check, and _state_recursion at it."""
    rate = exact_rate(rate)
    if rate <= 0:
        raise SpecError("rate must be positive")
    return rate, _state_recursion(compile(spec), rate)


def _truncation_recursion(trunc: Truncation, rate: Rate):
    """(rate, ys = y_0..y_D, W(D)) for a depth-D truncation."""
    rate, steps = cut_recursion(trunc.spec, rate)
    ys, weights = zip(*islice(steps, trunc.depth + 1))
    return rate, ys, weights[trunc.depth - 1] if trunc.depth else ys[0][trunc.state[0]]


def min_cut_weight(trunc: Truncation, rate: Rate):
    """Minimum cutset weight over all cutsets of the truncation, read from
    the per-state recursion without visiting a vertex; non-increasing in
    the truncation depth."""
    return _truncation_recursion(trunc, rate)[2]


def cut_weight_target(rate, radius: int, probe_range: int = 120):
    """Largest eps such that any cutset lighter than eps schedules within
    budgets floor(rate**n): eps <= floor(rate**(n-radius)) / rate**n for
    every n > radius.  The head is minimised over one running power of
    the rate, until floor(x) / x > 1 - 1/x can no longer go below it; past
    the probe range the floor loss is bounded analytically."""
    rate = exact_rate(rate)
    if rate <= 1:
        raise SynthesisError("budget rate must exceed 1 for cutset synthesis")
    power = head = edge_weight(rate, 0)  # rate**m; floor(x) / x <= 1
    for _ in range(probe_range):
        power *= rate
        head = min(head, math.floor(power) / power)
        if power * (1 - head) >= 1:  # 1 - 1/x >= head, and x only grows
            break
    head *= edge_weight(rate, radius)
    tail = edge_weight(rate, radius) * (1 - edge_weight(rate, probe_range + 1))
    return min(head, tail)


def certificate_y(spec: TreeSpec, rate: Fraction, mu: Fraction):
    """(y, W) as lower_bound_certificate stepped them at the mid rate mu:
    y_0 the best component's Perron vector over its largest entry, and
    (y_{2n}, W(2n+1)) for n states."""
    auto = compile(spec)
    kids = auto.children
    above = [c for c in _components(kids) if _compare_component(kids, c, rate) < 0]
    bound, v = max(_perron_vector(kids, c, rate) for c in above)
    top = max(v)
    steps = _state_recursion(auto, mu, [Fraction(x, top) for x in v])
    y, weight = next(islice(steps, 2 * len(kids), None))
    return tuple(y), weight


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
    if rate <= 0:
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
