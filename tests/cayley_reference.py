"""The breadth-first Cayley ball that the word acceptors replaced, kept as
the slow reference of a differential test.

It hashes every element of the ball with every generator: vertices are
taken in index order and, at each vertex, the generators in order, and
``elements`` is its own queue.  Every layer is then numbered in shortlex
order of its elements' lex-min geodesic words, which is what
``firebreak.cayley.ball`` reads off the acceptor instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
