"""The breadth-first Cayley ball that the word acceptors replaced, a graph
product's group law written apart from the package, and the
string-per-vertex tree export that ``cayley.write_tree_export`` replaced,
kept as the slow references of differential tests.

The ball hashes every element with every generator: vertices are taken in
index order and, at each vertex, the generators in order, and ``elements``
is its own queue.  Every layer is then numbered in shortlex order of its
elements' lex-min geodesic words, which is what ``firebreak.cayley.ball``
reads off the acceptor instead.  ``ReferenceGraphProduct`` gives the ball
its elements by another route than ``GraphProduct.multiply``: it merges a
new syllable into the last one of its factor that every later syllable
commutes with, then sorts the syllables by taking, again and again, the
least factor among those that commute with every syllable before them
(the lexicographic normal form of a trace; Diekert and Rozenberg eds.,
*The Book of Traces*, 1995).

The export builds every vertex's word as a Python string, its tree
parent's plus one letter, and formats one f-string line per vertex and the
parent lines 16 ids at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from firebreak.cayley import DEFAULT_BALL_CAP
from firebreak.errors import ResourceLimitError, SpecError


@dataclass
class ReferenceBall:
    model: object
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
    order is 2.  Elements are syllable tuples (factor, exponent), as the
    package writes them."""

    def __init__(self, orders, joined):
        self.orders = tuple(orders)
        self.joined = {frozenset(pair) for pair in joined}
        self.letters = [(x, d) for x, m in enumerate(self.orders) for d in (1, -1)[:1 + (m != 2)]]
        self.generators = tuple("abcdefghij"[x].swapcase() if d < 0 else "abcdefghij"[x]
                                for x, d in self.letters)
        self.identity = ()

    def commute(self, x: int, y: int) -> bool:
        return frozenset((x, y)) in self.joined

    def multiply(self, elem: tuple, g: int) -> tuple:
        x, d = self.letters[g]
        syllables = [list(s) for s in elem]
        for i in range(len(syllables) - 1, -1, -1):
            if syllables[i][0] == x:
                syllables[i][1] += d
                break
            if not self.commute(syllables[i][0], x):
                syllables.append([x, d])
                break
        else:
            syllables.append([x, d])
        syllables = [(f, e % self.orders[f] if self.orders[f] else e) for f, e in syllables]
        syllables = [(f, e) for f, e in syllables if e]
        ordered = []
        while syllables:  # the least factor free to come first
            best, open_factors = None, set(range(len(self.orders)))
            for i, (f, _e) in enumerate(syllables):
                if not open_factors:
                    break
                if f in open_factors and (best is None or f < syllables[best][0]):
                    best = i
                # a later syllable comes first only past syllables it commutes with
                open_factors = {g for g in open_factors if self.commute(f, g)}
            ordered.append(syllables.pop(best))
        return tuple(ordered)


def reference_ball(model, radius: int, cap: int = DEFAULT_BALL_CAP) -> ReferenceBall:
    """Breadth-first ball around the identity, vertices taken in index
    order and generators in order; ``elements`` is its own queue."""
    if radius < 0:
        raise SpecError("ball radius must be >= 0")
    multiply = model.multiply
    n_gens = len(model.generators)
    elements = [model.identity]
    index = {model.identity: 0}
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
    return ReferenceBall(model=model, radius=radius, elements=elements, level=level,
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
