"""The list-based truncation and cut walks that the numpy unfolding and the
level-by-level cut walks replaced, and the min-cut recursion in
``fractions.Fraction`` that integer numerators over p**n replaced, kept
as the reference of the differential tests: ``expand`` grows Python
lists one vertex at a time, ``min_cutset`` and ``separates`` walk a stack,
``cut_weight`` counts levels with a Counter and sums one power per level,
``cut_weight_target`` takes a running power of the rate, and
``certificate_y`` steps a certificate's y in Fractions, rounded down to the
fixed scale, and ``exact_certificate_y`` without rounding, as
``lower_bound_certificate`` did."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from firebreak.branching import PROPOSAL_SCALE, Cutset, Rate, _proposals, exact_rate
from firebreak.errors import ResourceLimitError, SpecError, SynthesisError
from firebreak.trees import VERTEX_CAP_ENV, Automaton, vertex_cap


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


def cut_recursion(spec: Automaton, rate: Rate):
    """The one reader of W(1), W(2), ... per spec and rate: the rate, after
    exact_rate and a positivity check, and _state_recursion at it."""
    rate = exact_rate(rate)
    if rate <= 0:
        raise SpecError("rate must be positive")
    return rate, _state_recursion(spec, rate)


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


def _certificate_start(auto: Automaton):
    """y_0 of a certificate: the vector over PROPOSAL_SCALE of the proposal
    lower_bound_certificate documents, the last one of largest lower
    Collatz-Wielandt bound in _components order."""
    props = _proposals(auto)
    best = max(prop.lo for prop in props)
    return [Fraction(x, PROPOSAL_SCALE) for x in [p for p in props if p.lo == best][-1].v]


def certificate_y(spec: Automaton, mu: Fraction):
    """(y, W) as lower_bound_certificate steps them at the mid rate mu: from
    y_0, 2n steps for n states of y(s) -> min(1, the sum of y over the
    children of s divided by mu, rounded down to a multiple of 2**-96), all
    of them taken, and W the sum of y over the root's children divided by
    mu."""
    kids, scale = spec.children, PROPOSAL_SCALE ** 2
    y = _certificate_start(spec)
    for _ in range(2 * len(kids)):
        y = [min(Fraction(1), Fraction(math.floor(sum(y[t] for t in k) / mu * scale), scale))
             for k in kids]
    return tuple(y), sum(y[t] for t in kids[spec.root]) / mu


def exact_certificate_y(spec: Automaton, mu: Fraction):
    """y_{2n} of the exact recursion at mu from the same y_0, which bounds
    certificate_y's y entrywise from above."""
    return tuple(next(islice(_state_recursion(spec, mu, _certificate_start(spec)),
                             2 * len(spec.children), None))[0])


def compare_component(kids, comp: list[int], rate: Fraction) -> int:
    """Sign of rate - br_C on a strongly connected component C, from the
    leading principal minors of q * (rate * I - M_C), rate = p/q: the
    pivots of dense fraction-free (Bareiss) elimination.  All positive means
    a nonsingular M-matrix, br_C < rate; all proper ones positive and a zero
    determinant means br_C = rate; else br_C > rate (Berman & Plemmons 1994)."""
    p, q, n = rate.numerator, rate.denominator, len(comp)
    a = [[p * (s == t) - q * kids[s].count(t) for t in comp] for s in comp]
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return 0 if k == n - 1 and pivot == 0 else -1
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return 1


@dataclass
class Truncation:
    spec: Automaton
    depth: int
    parent: list[int]
    children: list[list[int]]
    level: list[int]
    state: list[int]
    boundary: tuple[int, ...] = field(default=())

    @property
    def n_vertices(self) -> int:
        return len(self.parent)


def expand(spec: Automaton, depth: int) -> Truncation:
    if depth < 0:
        raise SpecError("depth must be >= 0")
    limit = vertex_cap()
    total = sum(islice(spec.iter_level_counts(), depth + 1))
    if total > limit:
        raise ResourceLimitError(
            f"truncation would have {total} vertices, cap is {limit} ({VERTEX_CAP_ENV})"
        )

    succ = spec.children
    parent: list[int] = [-1]
    children: list[list[int]] = [[]]
    level: list[int] = [0]
    state = [spec.root]
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
    boundary = tuple(v for v in frontier if spec.continues(state[v]))
    return Truncation(spec, depth, parent, children, level, state, boundary)


def separates(cutset: Cutset, trunc: Truncation) -> bool:
    boundary, edges = set(trunc.boundary), set(cutset.ids.tolist())
    stack = [0]
    while stack:  # a tree: each vertex is reached once, from its parent
        v = stack.pop()
        if v in boundary:
            return False
        stack.extend(w for w in trunc.children[v] if w not in edges)
    return True


def cut_weight(trunc: Truncation, cutset: Cutset, rate):
    rate = exact_rate(rate)
    if rate <= 0:
        raise SpecError("rate must be positive")
    edges = cutset.ids.tolist()
    for v in edges:  # sorted: the least bad id is named
        if not 1 <= v < trunc.n_vertices:
            raise SpecError(f"edge id {v} out of range")
    if not separates(cutset, trunc):
        raise SpecError("edge set does not separate the root from the boundary")
    per_level = Counter(trunc.level[v] for v in edges)
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
