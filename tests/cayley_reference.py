"""The breadth-first Cayley ball that the word acceptors replaced, a graph
product's group law written apart from the package, and the
string-per-vertex tree export that ``cayley.write_tree_export`` replaced,
kept as the slow references of differential tests.

The ball hashes every element with every generator: vertices are taken in
index order and, at each vertex, the generators in order, and ``elements``
is its own queue.  Every layer is then numbered in shortlex order of its
elements' lex-min geodesic words, which is what ``firebreak.cayley.ball``
reads off the acceptor instead.  ``ReferenceGraphProduct`` is the group
law that gives the ball its elements, which the package, building no
element, does not have: it merges a new syllable into the last one of its
factor that every later syllable commutes with, then sorts the syllables
by taking, again and again, the least factor among those that commute
with every syllable before them (the lexicographic normal form of a
trace; Diekert and Rozenberg eds., *The Book of Traces*, 1995).
``joined_pairs`` reads a package model's joined factors off its name, so
``ReferenceGraphProduct(model.orders, joined_pairs(model))`` is the
model's group.

The export builds every vertex's word as a Python string, its tree
parent's plus one letter, and formats one f-string line per vertex and the
parent lines 16 ids at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from firebreak.cayley import DEFAULT_BALL_CAP
from firebreak.errors import ResourceLimitError, SpecError


@dataclass
class ReferenceBall:
    group: object
    radius: int
    elements: list
    level: list[int]
    layers: list[list[int]]
    parent: list[int]
    tree_generator: list[int]
    adjacency: list[list[int]] = field(default_factory=list)
    _index: dict = field(default_factory=dict, repr=False)

    def sphere_sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]


class ReferenceGraphProduct:
    """The graph product of cyclic groups C_m (C_0 = Z) on the given factor
    orders, whose generators commute for each joined pair of factor
    indices; each factor gives its generator, then the inverse unless the
    order is 2.  Elements are syllable tuples (factor, exponent)."""

    def __init__(self, orders, joined):
        self.orders = tuple(orders)
        self.links = [0] * len(self.orders)  # per factor, the factors it commutes with
        for x, y in joined:
            self.links[x] |= 1 << y
            self.links[y] |= 1 << x
        self.letters = [(x, d) for x, m in enumerate(self.orders) for d in (1, -1)[:1 + (m != 2)]]
        self.generators = tuple("abcdefghij"[x].swapcase() if d < 0 else "abcdefghij"[x]
                                for x, d in self.letters)
        self.identity = ()

    def inverse_index(self, g: int) -> int:
        x, d = self.letters[g]
        return self.letters.index((x, -d)) if self.orders[x] != 2 else g

    def multiply(self, elem: tuple, g: int) -> tuple:
        x, d = self.letters[g]
        m, links = self.orders[x], self.links
        syllables = list(elem)  # each exponent reduced, as multiply returns it
        for i in range(len(syllables) - 1, -1, -1):
            f, e = syllables[i]
            if f == x:
                syllables[i] = (x, (e + d) % m if m else e + d)
                break
            if not links[f] >> x & 1:
                syllables.append((x, d % m if m else d))
                break
        else:
            syllables.append((x, d % m if m else d))
        syllables = [s for s in syllables if s[1]]
        ordered = []
        while syllables:  # the least factor free to come first
            best, least = 0, syllables[0][0]
            open_factors = links[least]
            for i in range(1, len(syllables)):
                if not open_factors:
                    break
                f = syllables[i][0]
                if open_factors >> f & 1 and f < least:
                    best, least = i, f
                # a later syllable comes first only past syllables it commutes with
                open_factors &= links[f]
            ordered.append(syllables.pop(best))
        return tuple(ordered)


def joined_pairs(model) -> set[tuple[int, int]]:
    """The joined pairs of a model's factors, read off its name: every pair
    on zd:D, those listed on gp: names, and none on the free products."""
    k = len(model.orders)
    if model.name.startswith("zd:"):
        return set(combinations(range(k), 2))
    letters = model.name.partition("/")[2] if model.name.startswith("gp:") else ""
    return {tuple(sorted("abcdefghij".index(c) for c in p)) for p in letters.split(",") if p}


def reference_ball(group: ReferenceGraphProduct, radius: int,
                   cap: int = DEFAULT_BALL_CAP) -> ReferenceBall:
    """Breadth-first ball around the identity of the group, vertices taken
    in index order and generators in order; ``elements`` is its own queue."""
    if radius < 0:
        raise SpecError("ball radius must be >= 0")
    multiply = group.multiply
    n_gens = len(group.generators)
    elements = [group.identity]
    index = {group.identity: 0}
    level = [0]
    layers = [[0]] + [[] for _ in range(radius)]
    parent = [-1]
    tree_generator = [-1]
    adjacency = []
    for v, elem in enumerate(elements):
        dist = level[v]
        if dist and v == layers[dist][0] and len(elements) > cap:
            # layer dist is complete once its first vertex is reached
            raise ResourceLimitError(
                f"ball of radius {dist} has {len(elements)} elements, the ball cap is {cap}"
            )
        row = []
        for g in range(n_gens):
            w = multiply(elem, g)
            u = index.get(w)
            if u is None:
                if dist == radius:
                    continue
                u = len(elements)
                index[w] = u
                elements.append(w)
                level.append(dist + 1)
                layers[dist + 1].append(u)
                parent.append(v)
                tree_generator.append(g)
            row.append(u)
        adjacency.append(row)
    return ReferenceBall(group=group, radius=radius, elements=elements, level=level,
                         layers=layers, parent=parent,
                         tree_generator=tree_generator, adjacency=adjacency, _index=index)


def tree_export_text(tree) -> str:
    """The text ``cayley --mode tree`` writes for a ball: a ``# vertex v =
    word`` line per vertex, then the explicit spec of its parent list."""
    letters, words = tree.model.generators, [""]
    for p, g in zip(tree.parent[1:], tree.tree_generator[1:]):
        words.append(words[p] + letters[g])
    return ("".join(f"# vertex {v} = {w or 'id'}\n" for v, w in enumerate(words))
            + format_parents(tree.parent[1:]))


def format_parents(parents: Sequence[int]) -> str:
    """The explicit spec of a parent list, 16 ids a line."""
    lines = ["variant: explicit"]
    for i in range(0, len(parents), 16):
        lines.append("parents: " + " ".join(map(str, parents[i:i + 16])))
    if not parents:
        lines.append("parents:")
    return "\n".join(lines) + "\n"
