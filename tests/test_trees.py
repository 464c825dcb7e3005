"""Tree specs, truncations, balls and the spec file format.

Claims covered:
    - expand reproduces hand-expanded level counts (binary, the two-state
      automaton tree, symmetric star)
    - level counts agree with the state-count recurrence up to depth 12
    - truncations are prefix-stable in the depth
    - balls are level-prefixes of the right size; radius > depth rejected
    - edge levels make level-n weight sums equal M_n * rate**-n
    - the parser round-trips, rejects unknown fields and bad documents
    - the digit writer gives the bytes of str and join, plain and in the
      parent lines' 16-id lines, on empty, single and power-of-ten-crossing
      id arrays, sorted and unsorted, and the id-set writer gives the join,
      or "-" for none, on the same ids as int32 and int64 arrays, tuples
      and ranges
    - the expansion cap raises ResourceLimitError
    - one representation: a periodic truncation re-read as an explicit
      tree, and a symmetric spec written as its cycle automaton, expand to
      the same truncation (and decide feasibility identically)
    - the feasibility result, witness paths included, depends on the tree
      and not on the spec: a periodic spec rewritten with twin states
      expands to the same truncation and decides identically
    - the unfolding and the level-by-level cut walks give the fields,
      rows, min cutsets, separation answers, weights and error messages of
      the list-based ones in tests/trees_reference.py; the unfolding's
      fields match byte for byte, by substitution and by level walk, on
      random specs, every named group's word acceptor, specs whose states
      the root reaches late or never, a chain, and depths 0 and 1
    - every vertex array, and the ``level`` the bench referee reads (derived
      from ``level_starts`` on first read), is a memoryview over a numpy
      buffer that equals the reference's lists and reads back Python ints,
      rows included; the tests read levels and children off
      ``level_starts`` and ``first_child``, as the package does
"""

import random
from array import array
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from firebreak import (
    ExplicitSpec,
    PeriodicSpec,
    ResourceLimitError,
    SpecError,
    SymmetricSpec,
    expand,
    format_tree_spec,
    level_counts,
    parse_tree_spec,
)
from firebreak import Cutset, cut_weight, feasibility_check, min_cutset
from firebreak import trees as trees_mod
from firebreak.cayley import group_from_name
from firebreak.trees import Automaton, format_id_set, format_ids, format_parents
import trees_reference
from conftest import (
    ball,
    binary_spec,
    boundary_ids,
    budget_catalogue,
    child_ids,
    fibonacci_spec,
    height,
    index_of_path,
    path_of,
    random_explicit_tree,
    random_periodic_spec,
    random_periodic_states,
    random_symmetric_levels,
    random_symmetric_spec,
    star_spec,
    vertex_levels,
)


def counts_of(trunc):
    out = [0] * (trunc.depth + 1)
    for lv in vertex_levels(trunc):
        out[lv] += 1
    return out


class TestExpand:
    def test_binary_depth3(self):
        t = expand(binary_spec(), 3)
        assert t.n_vertices == 15
        assert counts_of(t) == [1, 2, 4, 8]

    def test_fibonacci_depth4(self):
        # hand expansion: A->AB, level populations follow the two-state
        # recurrence 1, 2, 3, 5, 8
        t = expand(fibonacci_spec(), 4)
        assert counts_of(t) == [1, 2, 3, 5, 8]

    def test_symmetric_star(self):
        t = expand(star_spec(), 2)
        assert counts_of(t) == [1, 3, 3]

    def test_explicit_truncates(self):
        spec = ExplicitSpec(parents=(0, 1, 2, 3))  # a path of length 4
        t = expand(spec, 2)
        assert t.n_vertices == 3
        assert boundary_ids(t) == (2,)

    def test_levels_and_parents_consistent(self):
        t = expand(fibonacci_spec(), 5)
        level = vertex_levels(t)
        for v in range(1, t.n_vertices):
            assert level[v] == level[t.parent[v]] + 1
            assert v in child_ids(t, t.parent[v])
        assert all(lv <= 5 for lv in level)

    @pytest.mark.parametrize("seed", range(8))
    def test_level_counts_match_expansion(self, seed):
        rng = random.Random(seed)
        spec = random_periodic_spec(rng, allow_dead=True)
        depth = 12 if sum(level_counts(spec, 12)) < 20000 else 6
        t = expand(spec, depth)
        assert counts_of(t) == level_counts(spec, depth)

    def test_prefix_stability(self):
        t_deep = expand(fibonacci_spec(), 6)
        t_shallow = expand(fibonacci_spec(), 4)
        n = t_shallow.n_vertices
        assert t_deep.parent[:n] == t_shallow.parent
        assert t_deep.level_starts[:t_shallow.depth + 2] == t_shallow.level_starts
        assert t_deep.state[:n] == t_shallow.state

    def test_vertex_cap(self, monkeypatch):
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "100")
        with pytest.raises(ResourceLimitError, match="FIREBREAK_VERTEX_CAP"):
            expand(binary_spec(), 10)

    def test_vertex_cap_env_var(self, monkeypatch):
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "50")
        with pytest.raises(ResourceLimitError):
            expand(binary_spec(), 8)
        expand(binary_spec(), 4)  # 31 vertices, under the cap
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "lots")
        with pytest.raises(SpecError, match="FIREBREAK_VERTEX_CAP must be an integer, got 'lots'"):
            expand(binary_spec(), 2)
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "0")
        with pytest.raises(SpecError, match="FIREBREAK_VERTEX_CAP must be positive, got 0"):
            expand(binary_spec(), 2)

    def test_paths_roundtrip(self):
        t = expand(fibonacci_spec(), 5)
        for v in range(t.n_vertices):
            assert index_of_path(t, path_of(t, v)) == v


class TestBall:
    def test_root_only(self):
        t = expand(binary_spec(), 3)
        assert ball(t, 0) == (0,)

    def test_binary_radius2(self):
        t = expand(binary_spec(), 3)
        assert len(ball(t, 2)) == 7

    def test_fibonacci_radius3(self):
        t = expand(fibonacci_spec(), 4)
        assert len(ball(t, 3)) == 11  # 1 + 2 + 3 + 5

    def test_radius_beyond_depth_rejected(self):
        t = expand(binary_spec(), 3)
        with pytest.raises(SpecError):
            ball(t, 4)


class TestEdgeLevels:
    def test_symmetric_level_weight_sum(self):
        spec = SymmetricSpec(preperiod=(2,), period=(3, 1))
        t = expand(spec, 4)
        counts, level = counts_of(t), vertex_levels(t)
        lam = 2.0
        for n in range(1, 5):
            total = sum(lam ** -level[v] for v in range(1, t.n_vertices) if level[v] == n)
            assert total == pytest.approx(counts[n] * lam ** -n)


class TestBoundary:
    def test_periodic_dead_state_not_boundary(self):
        spec = PeriodicSpec(states={"A": ("A", "B"), "B": ()}, root="A")
        t = expand(spec, 3)
        root = spec.root  # A: every level-3 vertex of state A, none of B
        assert boundary_ids(t) == tuple(v for v in range(t.level_starts[3], t.n_vertices)
                                        if t.state[v] == root) == (5,)

    def test_symmetric_all_deepest_are_boundary(self):
        t = expand(star_spec(), 3)
        assert len(boundary_ids(t)) == 3


class TestSpecFormat:
    def test_periodic_roundtrip(self):
        spec = fibonacci_spec()
        again = parse_tree_spec(format_tree_spec(spec))
        assert again == spec

    def test_symmetric_roundtrip(self):
        spec = SymmetricSpec(preperiod=(3, 2), period=(1, 2))
        assert parse_tree_spec(format_tree_spec(spec)) == spec

    def test_symmetric_empty_preperiod(self):
        spec = SymmetricSpec(preperiod=(), period=(2,))
        assert parse_tree_spec(format_tree_spec(spec)) == spec

    def test_explicit_roundtrip(self):
        spec = ExplicitSpec(parents=(0, 0, 1, 1, 2, 2))
        assert parse_tree_spec(format_tree_spec(spec)) == spec

    @pytest.mark.parametrize("seed", range(20))
    def test_random_roundtrip(self, seed):
        rng = random.Random(7000 + seed)
        for spec in (random_periodic_spec(rng, allow_dead=True), random_symmetric_spec(rng)):
            assert parse_tree_spec(format_tree_spec(spec)) == spec

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_past_ten_states(self, seed):
        # a cycle through every state, so that all of them are reachable;
        # unpadded names would sort s10 before s2
        rng = random.Random(7100 + seed)
        n = rng.randint(11, 30)
        spec = Automaton(tuple(((s + 1) % n, *rng.choices(range(n), k=rng.randint(0, 2)))
                               for s in range(n)), rng.randrange(n))
        assert parse_tree_spec(format_tree_spec(spec)) == spec

    @pytest.mark.parametrize("seed", range(20))
    def test_explicit_roundtrip_keeps_the_truncation(self, seed):
        # a breadth-first tree, whose ids are level-major already, and one
        # whose parents go down, which the text writes level-major
        rng = random.Random(7200 + seed)
        unordered = ExplicitSpec(parents=tuple(rng.randint(0, i) for i in range(rng.randint(0, 30))))
        for spec in (random_explicit_tree(rng, max_vertices=30), unordered):
            again = parse_tree_spec(format_tree_spec(spec))
            assert again.escape_leaves and height(again) == height(spec)
            assert expand(again, height(spec)).parent == expand(spec, height(spec)).parent

    def test_multiline_states(self):
        spec = parse_tree_spec(
            "variant: periodic\nroot: A\nstates: A -> A B\nstates: B -> A\n"
        )
        assert spec == fibonacci_spec()

    def test_comments_and_blanks(self):
        text = "# a tree\n\nvariant: periodic\nroot: A  # root state\nstates: A -> A\n"
        assert parse_tree_spec(text) == PeriodicSpec(states={"A": ("A",)}, root="A")

    BAD_DOCUMENTS = {  # each document and the message it is refused with
        "variant: periodic\nroot: A\nstates: A -> A\ncolour: blue\n":
            "line 4: unknown field 'colour'",
        "variant: hexagonal\n": "unknown variant 'hexagonal'",
        "variant: periodic\nstates: A -> A\n": "missing required field 'root'",
        "variant: periodic\nroot: A\nstates: A -> Z\n": "state 'A' has unknown child state 'Z'",
        "variant: symmetric\nlevels: 1 2\n":
            "levels must be 'PREPERIOD | PERIOD' (preperiod may be empty)",
        "variant: symmetric\nlevels: 0 | 1\n": "symmetric child counts must be >= 1",
        "variant: explicit\nparents: 5\n": "parent of vertex 1 is 5; parents must precede children",
        "just some text\n": "line 1: expected 'field: value', got 'just some text'",
        "variant: periodic\nroot: A\nroot: B\nstates: A -> A\n":
            "field 'root' given more than once",
        "variant: periodic\nroot: Z\nstates: A -> A\n": "root state 'Z' is not defined",
        "variant: periodic\nroot: A\nstates: A A\n": "state entry 'A A' needs 'NAME -> children'",
        "variant: periodic\nroot: A\nstates: A -> A ; A -> A\n": "state 'A' defined twice",
        "variant: periodic\nroot: A\n": "periodic spec needs a 'states' field",
        "variant: symmetric\nlevels: 1 |\n": "symmetric spec needs a non-empty period",
        "variant: symmetric\nlevels: 1 | x\n": "levels entries must be integers: '1 | x'",
        "variant: explicit\nparents: 0 x\n": "parents entries must be integers: '0 x'",
    }

    @pytest.mark.parametrize("text", list(BAD_DOCUMENTS))
    def test_rejects_bad_documents(self, text):
        with pytest.raises(SpecError) as exc:
            parse_tree_spec(text)
        assert str(exc.value) == self.BAD_DOCUMENTS[text]

    def test_rejects_fields_of_other_variants(self):
        with pytest.raises(SpecError):
            parse_tree_spec("variant: explicit\nparents: 0\nroot: A\n")


class TestDegenerate:
    def test_finite_periodic_detected(self):
        spec = PeriodicSpec(states={"A": ("B", "B"), "B": ()}, root="A")
        assert spec.is_finite()
        assert not fibonacci_spec().is_finite()

    def test_zero_child_state_allowed(self):
        # one live branch, one dead leaf per level
        spec = PeriodicSpec(states={"A": ("A", "B"), "B": ()}, root="A")
        t = expand(spec, 4)
        assert counts_of(t) == [1, 2, 2, 2, 2]


def cycle_spec(pre: tuple[int, ...], per: tuple[int, ...]) -> Automaton:
    """The periodic automaton of a symmetric spec: one state per level of
    preperiod + period, the last one looping back to the period start."""
    counts = pre + per
    names = [f"L{i}" for i in range(len(counts))]
    succ = names[1:] + [names[len(pre)]]
    return PeriodicSpec(states={n: (t,) * c for n, t, c in zip(names, succ, counts)},
                        root=names[0])


class TestOneRepresentation:
    @pytest.mark.parametrize("seed", range(12))
    def test_periodic_reexpanded_as_explicit(self, seed):
        rng = random.Random(4000 + seed)
        spec = random_periodic_spec(rng, allow_dead=seed % 2 == 0)
        depth = rng.randint(1, 8)
        while sum(level_counts(spec, depth)) > 3000:
            depth -= 1
        t = expand(spec, depth)
        again = expand(ExplicitSpec(parents=tuple(t.parent[1:])), depth)
        assert again.parent == t.parent
        assert again.first_child == t.first_child
        assert again.level_starts == t.level_starts
        # explicit level-D vertices always continue, periodic ones only
        # when their state has children
        assert set(boundary_ids(t)) <= set(boundary_ids(again))
        if all(spec.children):  # every state, as every state is reachable
            assert again.boundary_mask == t.boundary_mask

    @pytest.mark.parametrize("seed", range(12))
    def test_symmetric_equals_its_cycle_automaton(self, seed, monkeypatch):
        import firebreak.game as game_mod

        rng = random.Random(5000 + seed)
        pre, per = random_symmetric_levels(rng)
        sym, cycle = SymmetricSpec(preperiod=pre, period=per), cycle_spec(pre, per)
        depth = rng.randint(2, 6)
        while sum(level_counts(sym, depth)) > 120:
            depth -= 1
        a, b = expand(sym, depth), expand(cycle, depth)
        assert (a.parent, a.first_child, a.level_starts, a.boundary_mask) == \
            (b.parent, b.first_child, b.level_starts, b.boundary_mask)
        budget = rng.choice(budget_catalogue())
        k = rng.randrange(depth)
        for greedy in (True, False):  # the greedy, then the count recursion
            with monkeypatch.context() as m:
                if not greedy:
                    m.setattr(game_mod, "_chain_ranks", lambda child_ranks: None)
                ra = feasibility_check(sym, k, budget, depth)
                rb = feasibility_check(cycle, k, budget, depth)
            assert (ra.feasible, ra.witness_levels, ra.witness_paths) == \
                (rb.feasible, rb.witness_levels, rb.witness_paths)

    @pytest.mark.parametrize("seed", range(40))
    def test_witness_depends_on_the_tree_not_the_spec(self, seed, monkeypatch):
        import firebreak.game as game_mod

        rng = random.Random(6000 + seed)
        for _ in range(10):
            states = random_periodic_states(rng, allow_dead=rng.random() < 0.5)
            spec, twins = PeriodicSpec(states=states, root="A"), twin_states(states, rng)
            depth = rng.randint(1, 8)
            while depth > 1 and sum(level_counts(spec, depth)) > 3000:
                depth -= 1
            t, again = expand(spec, depth), expand(twins, depth)
            assert (again.parent, again.level_starts, again.boundary_mask) == \
                (t.parent, t.level_starts, t.boundary_mask)
            budget, k = rng.choice(budget_catalogue()), rng.randrange(depth)
            with monkeypatch.context() as m:
                if rng.random() < 0.5:  # the count recursion, not the greedy
                    m.setattr(game_mod, "_chain_ranks", lambda child_ranks: None)
                assert feasibility_check(twins, k, budget, depth) == \
                    feasibility_check(spec, k, budget, depth)


def twin_states(states: dict[str, tuple[str, ...]], rng: random.Random) -> Automaton:
    """The tree of the states rooted at A, with every state X doubled by a
    twin X' of the same children, each child reference and the root picking
    X or X' at random."""
    def pick(name: str) -> str:
        return name + rng.choice(("", "'"))

    return PeriodicSpec(states={name: tuple(map(pick, states[x]))
                                for x in states for name in (x, x + "'")},
                        root=pick("A"))


def _outcome(fn, *args):
    """A call's value, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except SpecError as exc:
        return type(exc).__name__, str(exc)


# The word acceptor of every named group, the pentagon's Coxeter group among them
NAMED_GROUPS = ["zd:1", "zd:2", "zd:3", "zd:4", "free:1", "free:2", "free:3", "dinf",
                "freeprod:2,3", "freeprod:3,3", "freeprod:5,7", "gp:0,0,0/ac,bc",
                "gp:2,2,2,2,2/ab,bc,cd,de,ae"]


def late_specs(rng: random.Random):
    """Specs whose states the root reaches only late or not within a small
    depth: long preperiods before a branching period, a periodic chain into
    a ternary state, and a spec whose extra states the root never reaches."""
    for _ in range(4):
        pre = tuple(rng.choice((1, 1, 2)) for _ in range(rng.randint(5, 14)))
        yield SymmetricSpec(preperiod=pre, period=tuple(rng.randint(1, 3) for _ in range(3)))
    names = [f"S{i}" for i in range(12)]
    chain = {a: (b,) for a, b in zip(names, names[1:])}
    yield PeriodicSpec(states={**chain, names[-1]: (names[-1],) * 3}, root=names[0])
    yield PeriodicSpec(states={"A": ("A", "B"), "B": ("A",), "Z": ("Z", "Z", "Y"), "Y": ()},
                       root="A")


def digit_cases(rng):
    """Id arrays: none, a single id (0 among them), runs and random draws
    that cross each power of ten up to 10**9, sorted and unsorted."""
    yield np.array([], np.intc)
    for one in (0, 7, 10, 10 ** 9):
        yield np.array([one], np.intc)
    for k in range(1, 10):
        yield np.arange(max(0, 10 ** k - 20), 10 ** k + 20, dtype=np.intc)
        draw = rng.integers(0, 10 ** k + 50, rng.integers(1, 300))
        yield draw
        yield np.sort(draw).astype(np.intc)


class TestFormatIds:
    """The one digit writer against str and join, plain and in lines."""

    def test_matches_str_join(self):
        rng = np.random.default_rng(9100)
        for ids in digit_cases(rng):
            want = " ".join(map(str, ids.tolist()))
            assert format_ids(ids) == want.encode(), ids
            lines = ["parents: " + " ".join(map(str, ids[i:i + 16].tolist())) + "\n"
                     for i in range(0, len(ids), 16)]
            assert format_ids(ids, 16, b"parents: ") == "".join(lines).encode(), ids
            assert format_ids(ids, 1) == "".join(f"{v}\n" for v in ids.tolist()).encode()
            assert format_parents(ids.tolist()) == \
                "variant: explicit\n" + ("".join(lines) or "parents:\n")
            # the id-set writer: the join, or "-" for no ids, in every id-set form
            sets = [ids, ids.astype(np.int64), tuple(ids.tolist())]
            start = int(ids[0]) if len(ids) else 0
            if np.array_equal(ids, np.arange(start, start + len(ids))):  # a run, or none
                sets.append(range(start, start + len(ids)))
            for given in sets:
                assert format_id_set(given) == (want or "-"), given


class TestNumpyUnfolding:
    """``expand`` and the level-by-level cut walks against the list-based
    ones they replaced (tests/trees_reference.py), on seeded random
    periodic (with dead states), symmetric and explicit specs.  The
    unfolding is checked both by substitution and by its level walk, forced
    each way by its cost constants, on top of the choice the constants make."""

    def instances(self, rng, count):
        for i in range(count):
            kind = i % 3
            if kind == 0:
                spec = random_periodic_spec(rng, allow_dead=i % 2 == 0)
                depth = rng.randint(0, 9)
            elif kind == 1:
                spec, depth = random_symmetric_spec(rng), rng.randint(0, 9)
            else:
                spec = random_explicit_tree(rng, max_vertices=30)
                depth = rng.randint(0, height(spec) + 1)
            while sum(level_counts(spec, depth)) > 3000:
                depth -= 1
            yield spec, depth

    def test_truncation_fields_match_the_lists(self):
        rng = random.Random(7100)
        for spec, depth in self.instances(rng, 240):
            got, ref = expand(spec, depth), trees_reference.expand(spec, depth)
            assert got.n_vertices == ref.n_vertices
            assert (list(got.parent), vertex_levels(got), list(got.state)) == \
                (ref.parent, ref.level, ref.state)
            assert [list(child_ids(got, v)) for v in range(got.n_vertices)] == ref.children
            assert boundary_ids(got) == ref.boundary
            offsets, columns = got.rows(got.n_vertices - 1)
            for v in range(ref.n_vertices):
                want = ([ref.parent[v]] if v else []) + ref.children[v]
                assert list(got.neighbors(v)) == want
                assert columns[offsets[v]:offsets[v + 1]].tolist() == want

    @staticmethod
    def assert_fields_match(spec, depth):
        """parent, state and first_child byte for byte; level_starts and the levels it gives."""
        got, ref = expand(spec, depth), trees_reference.expand(spec, depth)
        first_child = list(accumulate(map(len, ref.children), initial=1))
        sizes = Counter(ref.level)
        starts = (0, *accumulate(sizes[lv] for lv in range(depth + 1)))
        for name, want in (("parent", ref.parent), ("state", ref.state),
                           ("first_child", first_child)):
            assert getattr(got, name).tobytes() == array("i", want).tobytes(), (spec, depth, name)
        assert got.level_starts == starts and vertex_levels(got) == ref.level, (spec, depth)

    @pytest.mark.parametrize("join_cost", [None, 0, 10 ** 9], ids=["chosen", "words", "walk"])
    def test_unfold_fields_are_the_lists_byte_for_byte(self, join_cost, monkeypatch):
        if join_cost is not None:
            monkeypatch.setattr(trees_mod, "JOIN_COST", join_cost)
        rng = random.Random(7300)
        for spec, depth in self.instances(rng, 120):
            self.assert_fields_match(spec, depth)
        for name in NAMED_GROUPS:
            acceptor = group_from_name(name).acceptor[0]
            for depth in range(6):
                self.assert_fields_match(acceptor, depth)
        for spec in late_specs(rng):
            for depth in (0, 1, 2, 7, 13, 16):
                self.assert_fields_match(spec, depth)
        for spec, depths in ((binary_spec(), (0, 1, 3, 9)),
                             (random_explicit_tree(rng, max_vertices=30), (0, 1, 3, 30)),
                             (ExplicitSpec(parents=tuple(range(40))), (0, 1, 3, 41))):  # a chain
            for depth in depths:
                self.assert_fields_match(spec, depth)

    def test_vertex_arrays_read_back_python_ints(self):
        # every per-vertex array, the level derived from level_starts for
        # readers outside the package among them, is a memoryview over a numpy
        # buffer: it equals the lists and indexes, slices and iterates to Python ints
        rng = random.Random(7400)
        cases = [*self.instances(rng, 90),
                 *((group_from_name(name).acceptor[0], 5) for name in NAMED_GROUPS)]
        for spec, depth in cases:
            got, ref = expand(spec, depth), trees_reference.expand(spec, depth)
            assert "level" not in got.__dict__, (spec, depth)  # derived on first read
            first_child = list(accumulate(map(len, ref.children), initial=1))
            for name, want in (("parent", ref.parent), ("level", ref.level),
                               ("state", ref.state), ("first_child", first_child)):
                values = getattr(got, name)
                assert isinstance(values, memoryview) and values.format == "i", name
                assert values.tolist() == want, (spec, depth, name)
                assert {type(v) for v in values} == {int}
                assert {type(values[v]) for v in range(-1, len(values))} == {int}
                assert list(values[1:-1]) == want[1:-1], (spec, depth, name)
            assert all(type(v) is int for v in got.level_starts)
            for v in range(got.n_vertices):
                assert all(type(w) is int for w in got.neighbors(v))

    def test_expand_errors_match(self, monkeypatch):
        assert _outcome(expand, binary_spec(), -1) == \
            _outcome(trees_reference.expand, binary_spec(), -1)
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "40")
        with pytest.raises(ResourceLimitError) as got:
            expand(fibonacci_spec(), 7)
        with pytest.raises(ResourceLimitError) as want:
            trees_reference.expand(fibonacci_spec(), 7)
        assert str(got.value) == str(want.value)

    def test_cuts_separation_and_weights_match(self):
        rng = random.Random(7200)
        seen = set()
        for spec, depth in self.instances(rng, 240):
            got, ref = expand(spec, depth), trees_reference.expand(spec, depth)
            n = got.n_vertices
            for _ in range(3):
                rate = Fraction(rng.randint(1, 40), rng.randint(1, 12))
                cut = min_cutset(got, rate)
                assert cut.ids.tolist() == trees_reference.min_cutset(ref, rate).ids.tolist()
                edges = cut.ids.tolist()
                sets = [edges, edges[1:], rng.sample(range(1, n), rng.randint(0, n - 1)),
                        [v for v, lv in enumerate(vertex_levels(got)) if lv == 1],
                        edges + rng.sample((0, -1, n, n + 2), rng.randint(1, 3))]
                for edge_set in sets:
                    cutset = Cutset(edges=frozenset(edge_set))
                    assert cutset.separates(got) == trees_reference.separates(cutset, ref)
                    outcome = _outcome(cut_weight, got, cutset, rate)
                    assert outcome == _outcome(trees_reference.cut_weight, ref, cutset, rate)
                    seen.add(outcome[1].split()[-1] if isinstance(outcome, tuple) else "weight")
                    if outcome == ("SpecError", "edge set does not separate the root "
                                   "from the boundary"):
                        assert not cutset.separates(got)
        assert seen == {"weight", "range", "boundary"}, seen
