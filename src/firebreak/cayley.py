"""Group models with computable normal forms, Cayley balls, the
lexicographically-minimal geodesic spanning tree, growth estimates, the
wait-and-surround containment strategy, and polynomial budget probes.

Generating sets are symmetric (closed under inverses) with a fixed total
order that includes the inverses; the order drives all lexicographic
comparisons.  Built-in models: free groups (reduced words), free abelian
groups (integer vectors), the infinite dihedral group and free products
of finite cyclic groups (alternating syllable normal forms).

Every element has one shortlex normal form: its lexicographically least
geodesic word.  Each model's ``word_acceptor()`` is a ``PeriodicSpec``
whose unfolding is the tree of these words (Cannon 1984; Epstein et al.,
*Word Processing in Groups*, 1992).  A state records what the normal form
needs to know about its last syllable, and its name gives the letter that
enters it:

* free groups: the last letter; any letter but its inverse follows;
* Z^d: the last letter; the same letter or any letter of a later axis
  follows, since a shortlex word has its letters sorted;
* free products (``dinf`` included): the last letter and its run length;
  on a factor of order m a run of the generator grows while 2*run <= m
  and a run of its inverse while 2*run < m, since a tie goes to the
  smaller letter.

Children follow generator order, so unfolding the acceptor level by level
numbers every layer in shortlex order -- the order in which a
breadth-first search that takes vertices in index order and, at each
vertex, the generators in order first reaches them.  By induction on the
distance: the search first reaches an element at distance n from its
least-indexed neighbour at distance n-1, by the least generator leading
there, and as all words of a layer have the same length that (parent word,
generator) pair is the least geodesic word, whose prefix is the parent's
normal form.  So the acceptor's level counts are the sphere sizes, which
growth, the surround trigger, the ball cap and the polynomial probes read
with nothing built (a model builds its acceptor once), and ``ball``
unfolds the acceptor (``trees.unfold``, which also builds truncations)
into int32 arrays of vertices whose tree edges are known without building
an element; each vertex's word is its parent's plus one letter.
Its adjacency, built on first use in one vectorised pass into flat row
offsets and an ``array('i')`` of column ids (large game rounds read numpy
views), reads every product off the tree too: a free product's same-factor
move goes up the current run and down the new syllable's letters, and an
earlier axis g of Z^d commutes with the letter h entering v, so v*g is the
h-child of parent*g.  Joining each element to its tree parent gives a
spanning tree of the ball whose levels are the Cayley distances -- the
depth-R slice of the acceptor's tree, which carries the graph's growth and
hands every tree algorithm in this package a Cayley question.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from string import digits
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceLimitError, SpecError, SurroundCapError
from .game import (
    BudgetSequence,
    FeasibilityResult,
    ScheduleStrategy,
    Verdict,
    feasibility_check,
    simulate,
)
from .trees import (Automaton, ExplicitSpec, PeriodicSpec, compile, packed, truncation_shapes,
                    unfold, view)

_LETTERS = "abcdefghij"

DEFAULT_BALL_CAP = 2_000_000

_ROOT_STATE = "id"  # acceptor state of the empty word; no letter enters it


def _letter(i: int, inverse: bool) -> str:
    if i >= len(_LETTERS):
        raise SpecError(f"at most {len(_LETTERS)} generator letters supported")
    return _LETTERS[i].upper() if inverse else _LETTERS[i]


class _GroupModel:
    """What every model shares: its word acceptor, built once per model."""

    @cached_property
    def acceptor(self) -> tuple[PeriodicSpec, Automaton, list[int]]:
        """The word acceptor, its compiled automaton and the generator
        entering each state (-1 at the root), which the state's name gives."""
        spec = self.word_acceptor()
        auto = compile(spec)
        entering = [-1 if name == spec.root else self.generators.index(name.rstrip(digits))
                    for name in auto.names]
        return spec, auto, entering


class FreeGroup(_GroupModel):
    """Free group of the given rank; elements are reduced words, stored as
    tuples of generator indices.  Generator order: a < A < b < B < ..."""

    def __init__(self, rank: int):
        if rank < 1:
            raise SpecError("free group rank must be >= 1")
        self.rank = rank
        self.name = f"free:{rank}"
        self.generators = tuple(
            _letter(i, inv) for i in range(rank) for inv in (False, True)
        )
        self.identity = ()

    def inverse_index(self, g: int) -> int:
        return g ^ 1

    def multiply(self, elem: tuple, g: int) -> tuple:
        if elem and elem[-1] == (g ^ 1):
            return elem[:-1]
        return elem + (g,)

    def word_acceptor(self) -> PeriodicSpec:
        """Reduced words: a state is the last letter, and any letter but
        its inverse follows it."""
        gens = self.generators
        states = {_ROOT_STATE: gens}
        for g, name in enumerate(gens):
            states[name] = tuple(h for i, h in enumerate(gens) if i != g ^ 1)
        return PeriodicSpec(states=states, root=_ROOT_STATE)


class FreeAbelian(_GroupModel):
    """Z^d with generator order a < A < b < B < ... (a = +e1, A = -e1)."""

    def __init__(self, dim: int):
        if dim < 1:
            raise SpecError("dimension must be >= 1")
        self.dim = dim
        self.name = f"zd:{dim}"
        self.generators = tuple(
            _letter(i, inv) for i in range(dim) for inv in (False, True)
        )
        self.identity = (0,) * dim

    def inverse_index(self, g: int) -> int:
        return g ^ 1

    def multiply(self, elem: tuple, g: int) -> tuple:
        axis, sign = divmod(g, 2)
        delta = -1 if sign else 1
        out = list(elem)
        out[axis] += delta
        return tuple(out)

    def word_acceptor(self) -> PeriodicSpec:
        """Shortlex words have their letters sorted: a state is the last
        letter, and the same letter or any letter of a later axis follows
        it."""
        gens = self.generators
        states = {_ROOT_STATE: gens}
        for g, name in enumerate(gens):
            states[name] = (name,) + gens[2 * (g // 2 + 1):]
        return PeriodicSpec(states=states, root=_ROOT_STATE)


class FreeProductCyclic(_GroupModel):
    """Free product of finite cyclic groups C_m1 * C_m2 * ...; elements
    are alternating syllables (factor, exponent) with 1 <= exponent <
    order.  Each factor contributes its generator, followed immediately by
    the inverse when the order exceeds 2 (order-2 generators are their own
    inverses)."""

    def __init__(self, orders: Sequence[int], name: str | None = None):
        orders = tuple(int(m) for m in orders)
        if len(orders) < 2:
            raise SpecError("free products need at least two factors")
        if any(m < 2 for m in orders):
            raise SpecError("cyclic factor orders must be >= 2")
        self.orders = orders
        self.name = name or ("freeprod:" + ",".join(str(m) for m in orders))
        gens: list[str] = []
        moves: list[tuple[int, int]] = []  # (factor, exponent delta)
        for i, m in enumerate(orders):
            gens.append(_letter(i, False))
            moves.append((i, 1))
            if m > 2:
                gens.append(_letter(i, True))
                moves.append((i, m - 1))
        self.generators = tuple(gens)
        self._moves = tuple(moves)
        self.identity = ()

    def inverse_index(self, g: int) -> int:
        factor, delta = self._moves[g]
        if self.orders[factor] == 2:
            return g
        inverse = (factor, self.orders[factor] - delta)
        return self._moves.index(inverse)

    def multiply(self, elem: tuple, g: int) -> tuple:
        factor, delta = self._moves[g]
        m = self.orders[factor]
        if elem and elem[-1][0] == factor:
            exp = (elem[-1][1] + delta) % m
            if exp == 0:
                return elem[:-1]
            return elem[:-1] + ((factor, exp),)
        return elem + ((factor, delta),)

    def syllable(self, h: int, run: int, g: int) -> tuple[int, ...]:
        """The shortlex letters of h**run * g for g of h's factor: the
        generator while 2 * exponent <= order, else its inverse."""
        factor, delta = self._moves[h]
        m = self.orders[factor]
        exp = (run * delta + self._moves[g][1]) % m
        letter = self._moves.index((factor, 1))
        return (letter,) * exp if 2 * exp <= m else (self.inverse_index(letter),) * (m - exp)

    def word_acceptor(self) -> PeriodicSpec:
        """Syllables written shortlex: a state is the last letter and its
        run length, named like ``a2``.  On a factor of order m a run of
        the generator grows while 2 * run <= m, a run of its inverse while
        2 * run < m (a tie goes to the smaller letter), and any letter of
        another factor starts a new run."""
        gens = self.generators
        states = {_ROOT_STATE: tuple(f"{name}1" for name in gens)}
        for g, (factor, delta) in enumerate(self._moves):
            m = self.orders[factor]
            longest = m // 2 if delta == 1 else (m - 1) // 2
            for run in range(1, longest + 1):
                nxt = [(h, 1) for h, (f, _d) in enumerate(self._moves) if f != factor]
                if run < longest:
                    nxt.append((g, run + 1))
                states[f"{gens[g]}{run}"] = tuple(f"{gens[h]}{r}" for h, r in sorted(nxt))
        return PeriodicSpec(states=states, root=_ROOT_STATE)


def infinite_dihedral() -> FreeProductCyclic:
    """Two involutions a, b generate the infinite dihedral group; it is
    the free product C2 * C2 and shares its normal forms."""
    return FreeProductCyclic((2, 2), name="dinf")


def group_from_name(name: str):
    """CLI names: free:R, zd:D, dinf, freeprod:M1,M2[,...]"""
    kind, _, params = name.partition(":")
    try:
        if kind == "free":
            return FreeGroup(int(params))
        if kind == "zd":
            return FreeAbelian(int(params))
        if kind == "dinf" and not params:
            return infinite_dihedral()
        if kind == "freeprod":
            return FreeProductCyclic([int(m) for m in params.split(",")])
    except ValueError as exc:
        raise SpecError(f"bad group parameters in {name!r}") from exc
    raise SpecError(f"unknown group {name!r}")


@dataclass
class CayleyBall:
    """Ball of a Cayley graph: elements grouped into distance layers,
    adjacency restricted to the ball, and the lex-min geodesic spanning
    tree (each element's parent and the generator joining them).  Vertex
    order is layer-major, shortlex by word within a layer, so construction
    is canonical; the per-vertex fields are ``array('i')``s and each layer
    a ``range``.  Quacks like a game arena: the radius-R sphere is the
    boundary.  Words and adjacency are derived from the tree on first use;
    no element is built."""

    model: object
    radius: int
    level: array
    layers: list[range]
    tree_parent: array
    tree_generator: array  # generator from tree_parent[v] to v; -1 at the root
    state: array  # the word acceptor's (compiled) state at each vertex

    @property
    def n_vertices(self) -> int:
        return len(self.tree_parent)

    @property
    def depth(self) -> int:
        return self.radius

    @property
    def boundary(self) -> tuple[int, ...]:
        return tuple(self.layers[self.radius])

    @cached_property
    def is_boundary(self) -> Callable[[int], bool]:
        """The boundary test: membership in the radius-R layer's range."""
        return self.layers[self.radius].__contains__

    @cached_property
    def _rows(self) -> tuple[array, array]:
        """Row offsets and column ids of the in-ball products v*g, in
        generator order, read off the tree in one numpy pass: child k, the
        parent, up the run and down the new syllable (a free product's
        same-factor move), or the h-child of parent*g (an earlier axis g of
        Z^d commutes with the letter h entering v)."""
        _spec, auto, entering = self.model.acceptor
        model, n, n_gens = self.model, self.n_vertices, len(self.model.generators)
        n_inner = n - len(self.layers[self.radius])  # with children in the ball
        state, parent = view(self.state), view(self.tree_parent)
        child = [{entering[t]: k for k, t in enumerate(kids)} for kids in auto.children]
        kid = np.array([[c.get(g, -1) for g in range(n_gens)] for c in child + [{}]], np.int32)
        inner = np.full(n + 1, len(child), np.int32)  # kid's row: none past n_inner and at -1
        inner[:n_inner] = state[:n_inner]
        n_kids = (kid >= 0).sum(1, dtype=np.int32)[inner]
        first = np.cumsum(n_kids, dtype=np.int32) - n_kids + 1  # first child of each vertex

        def down(t, g):  # the child of t entered by g, -1 outside the ball
            k = kid[inner[t], g]
            return np.where(k >= 0, first[t] + k, -1)

        cols = down(np.arange(n)[:, None], np.arange(n_gens))
        up = [-1 if s == auto.root else model.inverse_index(entering[s]) for s in range(len(child))]
        cols[np.arange(1, n), np.array(up, np.int32)[state[1:]]] = parent[1:]
        commute = np.zeros(kid.shape, bool)
        for s, g in ((s, g) for s, c in enumerate(child) for g in range(n_gens)
                     if g not in c and g != up[s]):
            if isinstance(model, FreeAbelian):
                commute[s, g] = True
            elif (vs := np.flatnonzero(state == s)).size:
                run, t = int(auto.names[s][1:]), vs  # a state name is its letter and run length
                for _ in range(run):
                    t = parent[t]
                for h in model.syllable(entering[s], run, g):
                    t = down(t, h)
                cols[vs, g] = t
        if commute.any():  # level by level, as parent*g is set a level up
            rows, gs = np.nonzero(commute[state])
            at, of, flat = rows * n_gens + gs, parent[rows] * n_gens + gs, cols.reshape(-1)
            hs = np.array(entering, np.int32)[state[rows]]
            for a, b in pairwise(np.searchsorted(rows, np.cumsum(self.sphere_sizes()))):
                flat[at[a:b]] = down(flat[of[a:b]], hs[a:b])
        present = cols >= 0
        offsets = np.zeros(n + 1, np.int32)
        np.cumsum(present.sum(1), out=offsets[1:])
        return array("i", offsets.tobytes()), array("i", cols[present].tobytes())

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Numpy views of the same row buffers, which large game rounds read."""
        return tuple(np.frombuffer(a, np.intc) for a in self._rows)

    def neighbors(self, v: int) -> array:
        """The in-ball products v*g, in generator order."""
        offsets, columns = self._rows
        return columns[offsets[v]:offsets[v + 1]]

    def sphere_sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]

    @cached_property
    def word_strings(self) -> list[str]:
        """Every element's lex-min word: its tree parent's plus one letter."""
        letters, strings = self.model.generators, [""]
        for p, g in zip(self.tree_parent[1:], self.tree_generator[1:]):
            strings.append(strings[p] + letters[g])
        return strings

    def word_str(self, v: int) -> str:
        return self.word_strings[v]


def _sphere_sizes(model, radius: int) -> list[int]:
    """|S(0)|, ..., |S(radius)| from the word acceptor's level counts.  The
    ball cap is decided here, before anything is built: it fails at the
    least radius 1..R whose ball has more than DEFAULT_BALL_CAP elements."""
    if radius < 0:
        raise SpecError("ball radius must be >= 0")
    spheres: list[int] = []
    total = 0
    for r, size in zip(range(radius + 1), model.acceptor[1].iter_level_counts()):
        spheres.append(size)
        total += size
        if r and total > DEFAULT_BALL_CAP:
            raise ResourceLimitError(
                f"ball of radius {r} has {total} elements, the ball cap is {DEFAULT_BALL_CAP}"
            )
    return spheres


def ball(model, radius: int) -> CayleyBall:
    """The ball around the identity, unfolded from the word acceptor: the
    children of a vertex are the one-letter extensions of its normal form,
    in generator order, so vertices are numbered as a breadth-first search
    in generator order numbers them."""
    _sphere_sizes(model, radius)
    _spec, auto, entering = model.acceptor
    state, parent, level, _first_child, starts = unfold(auto, radius)
    return CayleyBall(model=model, radius=radius, level=packed(level),
                      layers=list(map(range, starts[:-1], starts[1:])), tree_parent=packed(parent),
                      tree_generator=packed(np.array(entering, np.intc)[state]),
                      state=packed(state))


# ---------------------------------------------------------------------------
# Lex-min geodesic spanning tree
# ---------------------------------------------------------------------------


@dataclass
class LexMinTree:
    """Spanning tree of a ball joining each element to its word's prefix;
    tree vertex i is ball vertex i, so levels equal Cayley distances."""

    spec: ExplicitSpec
    ball: CayleyBall

    def level_counts(self) -> list[int]:
        return self.ball.sphere_sizes()


def lex_min_tree(model, radius: int) -> LexMinTree:
    return lex_min_tree_of_ball(ball(model, radius))


def lex_min_tree_of_ball(b: CayleyBall) -> LexMinTree:
    spec = ExplicitSpec(parents=tuple(b.tree_parent[1:]))
    return LexMinTree(spec=spec, ball=b)


# ---------------------------------------------------------------------------
# Growth estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthEstimate:
    """Two readings of the growth rate at radius R: the ball root
    |B(R)|**(1/R) and the sphere ratio |S(R)|/|S(R-1)|, with the full
    sequences for smaller radii."""

    radius: int
    sphere_sizes: tuple[int, ...]
    ball_sizes: tuple[int, ...]
    ball_root_sequence: tuple[float, ...]
    sphere_ratio_sequence: tuple[float, ...]

    @property
    def ball_root(self) -> float:
        return self.ball_root_sequence[-1]

    @property
    def sphere_ratio(self) -> float:
        return self.sphere_ratio_sequence[-1]


def growth_rate_estimate(model, radius: int) -> GrowthEstimate:
    if radius < 2:
        raise SpecError("growth estimates need radius >= 2")
    spheres = _sphere_sizes(model, radius)
    balls = []
    total = 0
    for s in spheres:
        total += s
        balls.append(total)
    roots = tuple(balls[n] ** (1.0 / n) for n in range(1, radius + 1))
    ratios = tuple(
        spheres[n] / spheres[n - 1] if spheres[n - 1] else float("inf")
        for n in range(1, radius + 1)
    )
    return GrowthEstimate(radius=radius, sphere_sizes=tuple(spheres),
                          ball_sizes=tuple(balls), ball_root_sequence=roots,
                          sphere_ratio_sequence=ratios)


# ---------------------------------------------------------------------------
# Wait-and-surround
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurroundResult:
    strategy: ScheduleStrategy
    verdict: Verdict
    trigger_round: int
    sphere_index: int
    sphere: tuple[int, ...]
    budget_trace: tuple[tuple[int, int, int], ...]  # (round, budget, sphere size)
    ball: CayleyBall


def wait_and_surround(model, radius: int, rate, ball_radius: int) -> SurroundResult:
    """Wait until the budget floor(rate**n) covers the sphere one past the
    fire's reach, then protect that whole sphere at once.  The fire starts
    on B(radius) and occupies B(radius+n) after round n, so protecting
    S(radius+n+1) in round n leaves a one-sphere guard band and blocks all
    further spread.  The trigger is read from the acceptor's sphere sizes,
    and the ball is built only out to the protected sphere, which the fire
    never passes.  Runs out of ball (SurroundCapError, with nothing built)
    when the rate does not outgrow the spheres within the given ball
    radius; the ball cap applies to that radius."""
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if ball_radius <= radius + 1:
        raise SpecError("ball radius must exceed the initial radius + 1")
    budget = BudgetSequence.exponential(rate)
    spheres = _sphere_sizes(model, ball_radius)
    trace = []
    trigger = None
    n = 0
    while True:
        n += 1
        sphere_index = radius + n + 1
        if sphere_index > ball_radius:
            break
        f_n = budget(n)
        size = spheres[sphere_index]
        trace.append((n, f_n, size))
        if f_n >= size:
            trigger = n
            break
    if trigger is None:
        raise SurroundCapError(
            f"budget never covered a sphere within radius {ball_radius}; "
            "the rate may not exceed the growth rate", tuple(trace),
        )
    sphere_index = radius + trigger + 1
    b = ball(model, sphere_index)
    sphere = tuple(b.layers[sphere_index])
    strategy = ScheduleStrategy({trigger: sphere})
    verdict = simulate(b, radius, strategy, budget, horizon=trigger + 2)
    return SurroundResult(strategy=strategy, verdict=verdict, trigger_round=trigger,
                          sphere_index=sphere_index, sphere=sphere,
                          budget_trace=tuple(trace), ball=b)


# ---------------------------------------------------------------------------
# Polynomial budget probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    feasibility: FeasibilityResult
    budget_vs_sphere: tuple[tuple[int, int, int], ...]  # (n, cum budget, |S(n+1)|)
    note: str


def polynomial_probe(model, coeff, degree: int, radius: int, depth: int) -> ProbeReport:
    """Deadline feasibility of budgets floor(coeff * n**degree) on the
    lex-min spanning tree, with the cumulative-budget-vs-sphere table;
    both read the word acceptor, which unfolds to that tree, so no ball
    is built (the ball cap still bounds the depth).
    An infeasible spanning tree is evidence (not proof) against containment
    on the Cayley graph itself: containment passes to subgraphs in the
    direction asserted here, and a finite-depth probe cannot settle an
    asymptotic statement."""
    spheres = _sphere_sizes(model, depth)
    budget = BudgetSequence.polynomial(coeff, degree)
    # on the subtree shapes, as on the materialised tree: states that agree
    # to the depth share one count, which keeps the count vectors short
    result = feasibility_check(truncation_shapes(model.acceptor[0], depth), radius,
                               budget, depth)
    rows = tuple(
        (n, budget.cumulative(n), spheres[n + 1])
        for n in range(1, depth)
    )
    return ProbeReport(
        feasibility=result, budget_vs_sphere=rows,
        note=("evidence only: finite-depth probe on the spanning tree; "
              "non-containment transfers to the ambient graph via subgraph "
              "monotonicity, which is asserted, not proven here"),
    )
