"""Group models with computable normal forms, Cayley balls, the
lexicographically-minimal geodesic spanning tree, growth estimates, the
wait-and-surround containment strategy, and polynomial budget probes.

Generating sets are symmetric (closed under inverses) with a fixed total
order that includes the inverses; the order drives all lexicographic
comparisons.  Built-in models: free abelian groups (integer vectors) and
free products of cyclic groups (alternating syllable normal forms), where
C_0 = Z, so free groups (Z * ... * Z, reduced words) and the infinite
dihedral group (C_2 * C_2) are free products too.

Every element has one shortlex normal form: its lexicographically least
geodesic word.  Each model's ``word_acceptor()`` is a ``PeriodicSpec``
whose unfolding is the tree of these words (Cannon 1984; Epstein et al.,
*Word Processing in Groups*, 1992).  A state records what the normal form
needs to know about its last syllable, and its name gives the letter that
enters it:

* Z^d: the last letter; the same letter or any letter of a later axis
  follows, since a shortlex word has its letters sorted;
* free products (``free:R`` and ``dinf`` included): the last letter and
  its run length; on a factor of order m a run of the generator grows
  while 2*run <= m and a run of its inverse while 2*run < m, since a tie
  goes to the smaller letter, and on C_0 = Z a run is one state that
  loops to itself, so any letter but the inverse of the last follows.

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
with nothing built (a model builds its acceptor once).

A ``CayleyBall`` is the depth-R truncation of the acceptor (a
``trees.Truncation``, unfolded as ``trees.expand`` unfolds any), so its
``parent`` is the lex-min geodesic spanning tree, its levels are the
Cayley distances and its boundary is the radius-R sphere; each vertex's
word is its parent's plus one letter, and no element is built.  It adds
its model and overrides only ``_rows(n)``, which gives the Cayley graph's
rows of the first n vertices in one vectorised pass into the ``array('i')``
row offsets and column ids that the truncation's ``neighbors``, ``rows``
and ``separated`` read; the truncation asks for the interior rows first and
for the radius-R sphere's only when play reads one of them, which a
surround never does.  That pass reads every product off the tree too: a
same-factor move on a finite factor of a free product goes up the current
run and down the new syllable's letters (on Z each is a child or the
parent), and an earlier axis g of Z^d commutes with the letter h entering
v, so v*g is the h-child of parent*g.  So the game plays the
ball and its spanning tree on one vertex numbering with different rows,
and every tree algorithm here answers a Cayley question.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from string import digits
from typing import Sequence

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
from .trees import (Automaton, PeriodicSpec, Truncation, compile, format_parents, packed, view,
                    zeroed)

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
    """Free product of cyclic groups C_m1 * C_m2 * ..., where C_0 = Z;
    elements are alternating syllables (factor, exponent), with 1 <=
    exponent < order on a finite factor and any nonzero exponent on an
    infinite one.
    Each factor contributes its generator, followed immediately by the
    inverse unless the order is 2 (order-2 generators are their own
    inverses).  One infinite factor alone is Z, the free group of rank 1."""

    def __init__(self, orders: Sequence[int], name: str | None = None):
        orders = tuple(int(m) for m in orders)
        if any(m < 0 or m == 1 for m in orders):
            raise SpecError("cyclic factor orders must be 0 (infinite) or >= 2")
        if len(orders) < 2 and orders != (0,):
            raise SpecError("free products need at least two factors")
        self.orders = orders
        self.name = name or ("freeprod:" + ",".join(str(m) for m in orders))
        gens: list[str] = []
        moves: list[tuple[int, int]] = []  # (factor, exponent delta)
        for i, m in enumerate(orders):
            gens.append(_letter(i, False))
            moves.append((i, 1))
            if m != 2:
                gens.append(_letter(i, True))
                moves.append((i, -1))
        self.generators = tuple(gens)
        self._moves = tuple(moves)
        self.identity = ()

    def inverse_index(self, g: int) -> int:
        factor, delta = self._moves[g]
        return g if self.orders[factor] == 2 else self._moves.index((factor, -delta))

    def multiply(self, elem: tuple, g: int) -> tuple:
        factor, exp = self._moves[g]
        if elem and elem[-1][0] == factor:
            elem, exp = elem[:-1], elem[-1][1] + exp
        if m := self.orders[factor]:
            exp %= m
        return elem + ((factor, exp),) if exp else elem

    def syllable(self, h: int, run: int, g: int) -> tuple[int, ...]:
        """The shortlex letters of h**run * g for g of h's finite factor:
        the generator while 2 * exponent <= order, else its inverse.  On an
        infinite factor every same-factor letter is a child or the parent."""
        factor, delta = self._moves[h]
        m = self.orders[factor]
        exp = (run * delta + self._moves[g][1]) % m
        letter = self._moves.index((factor, 1))
        return (letter,) * exp if 2 * exp <= m else (self.inverse_index(letter),) * (m - exp)

    def word_acceptor(self) -> PeriodicSpec:
        """Syllables written shortlex: a state is the last letter and its
        run length, named like ``a2``.  On a factor of order m a run of
        the generator grows while 2 * run <= m, a run of its inverse while
        2 * run < m (a tie goes to the smaller letter); on an infinite
        factor a run is one state that loops to itself.  Any letter of
        another factor starts a new run."""
        gens = self.generators
        states = {_ROOT_STATE: tuple(f"{name}1" for name in gens)}
        for g, (factor, delta) in enumerate(self._moves):
            m = self.orders[factor]
            longest = m // 2 if delta == 1 else (m - 1) // 2
            for run in range(1, max(longest, 1) + 1):  # one looping run on Z
                nxt = [(h, 1) for h, (f, _d) in enumerate(self._moves) if f != factor]
                if run < longest or not m:
                    nxt.append((g, run + 1 if m else run))
                states[f"{gens[g]}{run}"] = tuple(f"{gens[h]}{r}" for h, r in sorted(nxt))
        return PeriodicSpec(states=states, root=_ROOT_STATE)


def free_group(rank: int) -> FreeProductCyclic:
    """The free group of the given rank is the free product of that many
    copies of Z; its normal forms are the reduced words, in generator order
    a < A < b < B < ..."""
    if rank < 1:
        raise SpecError("free group rank must be >= 1")
    return FreeProductCyclic((0,) * rank, name=f"free:{rank}")


def infinite_dihedral() -> FreeProductCyclic:
    """Two involutions a, b generate the infinite dihedral group; it is
    the free product C2 * C2 and shares its normal forms."""
    return FreeProductCyclic((2, 2), name="dinf")


def group_from_name(name: str):
    """CLI names: free:R, zd:D, dinf, freeprod:M1,M2[,...] (orders >= 2)"""
    kind, _, params = name.partition(":")
    try:
        if kind == "free":
            return free_group(int(params))
        if kind == "zd":
            return FreeAbelian(int(params))
        if kind == "dinf" and not params:
            return infinite_dihedral()
        if kind == "freeprod":
            orders = [int(m) for m in params.split(",")]
            if 0 in orders:
                raise ValueError
            return FreeProductCyclic(orders)
    except ValueError as exc:
        raise SpecError(f"bad group parameters in {name!r}") from exc
    raise SpecError(f"unknown group {name!r}")


@dataclass
class CayleyBall(Truncation):
    """Ball of a Cayley graph: the depth-R truncation of the model's word
    acceptor, whose ``parent`` is the lex-min geodesic spanning tree and
    whose levels are the Cayley distances; its ``_rows`` list the graph's
    adjacency in place of the tree's.  Vertex order is layer-major,
    shortlex by word within a layer, so construction is canonical; the
    radius-R sphere is the boundary.  Words and adjacency are derived from
    the tree as they are read; no element is built."""

    model: object

    @cached_property
    def tree_generator(self) -> array:
        """The generator from each vertex's tree parent to it (-1 at the
        root): the letter entering its acceptor state."""
        return packed(np.array(self.model.acceptor[2], np.intc)[view(self.state)])

    def _rows(self, n: int) -> tuple[array, array]:
        """Row offsets and column ids of the in-ball products v*g of the
        first n vertices, in generator order, read off the tree in one numpy
        pass: child k, the parent, up the run and down the new syllable (a
        same-factor move on a finite factor), or the h-child of parent*g (an
        earlier axis g of Z^d commutes with the letter h entering v)."""
        _spec, auto, entering = self.model.acceptor
        model, n_gens = self.model, len(self.model.generators)
        n_inner = self.level_starts[self.depth]  # with children in the ball
        state, parent, first = view(self.state), view(self.parent), view(self.first_child)
        child = [{entering[t]: k for k, t in enumerate(kids)} for kids in auto.children]
        kid = np.array([[c.get(g, -1) for g in range(n_gens)] for c in child + [{}]], np.int32)
        inner = np.full(self.n_vertices + 1, len(child), np.int32)  # kid's row: none at -1
        inner[:n_inner] = state[:n_inner]  # and none past n_inner

        def down(t, g):  # the child of t entered by g, -1 outside the ball
            k = kid[inner[t], g]
            return np.where(k >= 0, first[t] + k, -1)

        # child ids; past n_inner all -1, and an inner row's other entries are set below
        state, parent = state[:n], parent[:n]
        cols = np.take(kid, inner[:n], axis=0)
        cols[:n_inner] += first[:min(n, n_inner), None]
        flat = cols.reshape(-1)
        up = [-1 if s == auto.root else model.inverse_index(entering[s]) for s in range(len(child))]
        flat[np.array(up, np.intp)[state[1:]] + np.arange(n_gens, n * n_gens, n_gens)] = parent[1:]
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
            at, of = rows * n_gens + gs, parent[rows] * n_gens + gs
            hs = np.array(entering, np.int32)[state[rows]]
            for a, b in pairwise(np.searchsorted(rows, self.level_starts[1:])):
                flat[at[a:b]] = down(flat[of[a:b]], hs[a:b])
        present = cols >= 0
        offsets, ends = zeroed(n + 1)
        present.sum(axis=1, dtype=np.intc, out=ends[1:])
        np.cumsum(ends, out=ends)  # row v ends where row v + 1 starts
        return offsets, packed(cols[present])

    def sphere_sizes(self) -> list[int]:
        return [b - a for a, b in pairwise(self.level_starts)]


# From the first sphere of at least this many vertices on, the export is
# written as byte records from numpy passes, and before it from Python
# strings.  Measured sphere by sphere on zd:2, zd:3, free:2, freeprod:3,3
# and dinf balls (2-CPU VM), the numpy pass costs about 18 us a sphere more
# than the strings' fixed cost, and the two cross between 70 and 130
# vertices (free:2's 108-vertex sphere: 73 us against 48; freeprod:3,3's
# 128: 48 against 61).  The parent lines' digit pass crosses Python strings
# between 120 and 220 parents (dinf at R = 60: 47 us against 35; zd:2 at
# R = 10: 57 against 67), so it takes over at the same size.
EXPORT_SPHERE_MIN = 128


def write_tree_export(tree: CayleyBall, fh) -> None:
    """Write the ball's lex-min spanning tree to the binary file ``fh`` as an
    explicit tree spec: a ``# vertex v = word`` comment per vertex (``id``
    for the root), then ``trees.format_parents``'s lines of ``parent[1:]``.
    A word is its tree parent's plus one letter.  The spheres before the
    first one of EXPORT_SPHERE_MIN vertices are written from Python
    strings, a word and a line a vertex.  From there on, as every generator
    name is one letter, the words of sphere L are an (|S(L)|, L) byte
    matrix gathered from sphere L - 1's plus the entering letters, and its
    lines are fixed-width byte records, one block per run of ids of one
    digit width."""
    names, starts = tree.model.generators, tree.level_starts
    first = next((lv for lv in range(1, tree.depth + 1)
                  if starts[lv + 1] - starts[lv] >= EXPORT_SPHERE_MIN), tree.depth + 1)
    words = [""]
    for p, g in zip(tree.parent[1:starts[first]], tree.tree_generator[1:starts[first]]):
        words.append(words[p] + names[g])
    fh.write("".join(f"# vertex {v} = {w or 'id'}\n" for v, w in enumerate(words)).encode())
    parent, entering = view(tree.parent), view(tree.tree_generator)
    letters = np.frombuffer("".join(names).encode(), np.uint8)
    if first <= tree.depth:
        up = starts[first - 1]
        words = np.frombuffer("".join(words[up:]).encode(), np.uint8)
        words = words.reshape(starts[first] - up, first - 1)
    for lv in range(first, tree.depth + 1):
        a, b, up = starts[lv], starts[lv + 1], starts[lv - 1]
        grown = np.empty((b - a, lv), np.uint8)
        grown[:, :-1] = words[parent[a:b] - up]
        grown[:, -1] = letters[entering[a:b]]
        words = grown
        cuts = [10 ** k for k in range(len(str(a)), len(str(b - 1)))]  # where the width grows
        for lo, hi in pairwise([a, *cuts, b]):
            width = len(str(lo))
            rec = np.empty((hi - lo, 13 + width + lv), np.uint8)
            rec[:, :9] = np.frombuffer(b"# vertex ", np.uint8)
            _digits(np.arange(lo, hi, dtype=np.intc), rec[:, 9:9 + width])
            rec[:, 9 + width:12 + width] = np.frombuffer(b" = ", np.uint8)
            rec[:, 12 + width:-1] = words[lo - a:hi - a]
            rec[:, -1] = ord("\n")
            fh.write(rec)
    fh.write(_parent_lines(parent[1:]))


def _parent_lines(parents: np.ndarray):
    """``format_parents(parents)``, encoded: from Python strings when there
    are fewer than EXPORT_SPHERE_MIN parents or none, else from one digit
    pass."""
    if len(parents) < max(EXPORT_SPHERE_MIN, 1):
        return format_parents(parents.tolist()).encode()
    # one record per id: "parents: " (kept at the head of a line of 16), its
    # digits right-aligned (the leading zeros dropped) and a space or newline
    width = len(str(int(parents.max())))
    rec = np.empty((len(parents), 10 + width), np.uint8)
    keep = np.ones(rec.shape, bool)
    rec[:, :9] = np.frombuffer(b"parents: ", np.uint8)
    keep[:, :9] = False
    keep[::16, :9] = True
    _digits(parents.copy(), rec[:, 9:-1])
    for k in range(1, width):  # the digit standing for 10**k, kept from 10**k on
        np.greater_equal(parents, 10 ** k, out=keep[:, 9 + width - 1 - k])
    rec[:, -1] = ord(" ")
    rec[15::16, -1] = rec[-1, -1] = ord("\n")
    return b"variant: explicit\n" + rec[keep].tobytes()


def _digits(ids: np.ndarray, out: np.ndarray) -> None:
    """Write the ids' decimal digits, zero-padded to out's width, into the
    (len(ids), width) byte matrix out; ids is consumed."""
    for k in range(out.shape[1] - 1, -1, -1):
        out[:, k] = ids % 10
        ids //= 10
    out += ord("0")


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
    return CayleyBall._unfolded(model.acceptor[0], radius, model=model)


def lex_min_tree(model, radius: int) -> CayleyBall:
    """The lex-min geodesic spanning tree of the radius-R ball: the ball
    itself, whose ``parent`` joins each element to its word's prefix."""
    return ball(model, radius)


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
    sphere: range  # the protected layer's ids
    budget_trace: tuple[tuple[int, int, int], ...]  # (round, budget, sphere size)
    ball: CayleyBall


def wait_and_surround(model, radius: int, rate, ball_radius: int) -> SurroundResult:
    """Wait until the budget floor(rate**n) covers the sphere one past the
    fire's reach, then protect that whole sphere at once.  The fire starts
    on B(radius) and occupies B(radius+n) after round n, so protecting
    S(radius+n+1) in round n leaves a one-sphere guard band and blocks all
    further spread.  The trigger is read from the acceptor's sphere sizes,
    and the ball is built only out to the protected sphere, which the fire
    never passes, so the game reads no row of that sphere and the ball
    builds none.  Runs out of ball (SurroundCapError, with nothing built)
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
    sphere = range(*b.level_starts[sphere_index:])
    strategy = ScheduleStrategy({trigger: np.arange(sphere.start, sphere.stop, dtype=np.intc)})
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

    Containment passes from the ball B to its spanning tree T (the ball's
    own ``parent`` links): play on both the same protect sets, each legal
    on B.  The burning set of T is a subset of B's after every round, by
    induction on the round.  Both start on the same fire, as T spans B and
    has its levels.  A protect set legal on B avoids B's burning vertices,
    hence T's, so it is legal on T and both graphs have the same protected
    set.  A vertex w that starts burning on T is untouched there, so not
    protected on B, and has a T-neighbour v burning on T, hence on B;
    the edge vw is an edge of B, so w is burning on B by the end of the
    round.  A strategy that contains the fire on B therefore keeps T's
    fire inside B's contained burning set, away from the boundary, so no
    containing strategy on the tree means none on the ball.  An infeasible
    finite-depth probe is still evidence, not proof, against containment
    on the Cayley graph itself: it cannot settle an asymptotic statement."""
    spheres = _sphere_sizes(model, depth)
    budget = BudgetSequence.polynomial(coeff, degree)
    result = feasibility_check(model.acceptor[0], radius, budget, depth)
    rows = tuple((n, total, spheres[n + 1])
                 for n, total in enumerate(budget.prefix_sums(depth - 1), 1))
    return ProbeReport(
        feasibility=result, budget_vs_sphere=rows,
        note=("finite-depth probe on the spanning tree: infeasible rules out "
              f"containment within the radius-{depth} ball (proven by subgraph "
              "monotonicity); for the whole Cayley graph it is evidence only"),
    )
