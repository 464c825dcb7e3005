"""Group models, balls, lex-min spanning trees, growth, surround, probes.

Claims covered:
    - the reference group law (tests/cayley_reference.py), which the
      ball tests build their elements with: generator then inverse is the
      identity map, on joined factors too, and joined factors commute;
      products associate with word evaluation
    - one graph-product model: order 0 is a factor Z, a finite group is
      refused, ``freeprod:`` names refuse order 0, and a malformed name
      gives its own reason (bad ``gp:`` pairs among them); free:R is R
      factors Z, whose acceptor lets every letter but the last one's
      inverse follow; after a syllable, a joined factor may start one only
      if it could before and comes later; each state is read as its
      entering letter and run, reached by a word from the root
    - the acceptors' sphere sizes follow Chiswell's formula for graph
      products, written out here, on the named groups, F2 x Z, the
      pentagon Coxeter group and seeded graphs of up to five factors, whose
      balls also equal the breadth-first reference, which reads a model's
      joins off its links, not its name; every cayley mode runs on a
      ``gp:`` group
    - ball layers match the closed-form sphere sizes (Z, Z^2, free rank 2,
      infinite dihedral, C2*C3)
    - breadth-first lex-min words equal the minimum over exhaustively
      enumerated geodesic words, and each layer is in increasing word order
    - every ``# vertex v = w`` line of a tree export spells vertex v's word
      in generator letters, on every model, and the export's bytes equal
      the string-per-vertex writer's (tests/cayley_reference.py) on free,
      dihedral, Z^d and free-product balls, with the sphere crossover at
      its default and forced both ways
    - adjacency rows list the in-ball products v*g in generator order
    - the lex-min tree is spanning, geodesic, uses only Cayley edges, and
      equals the ball on free groups
    - construction is canonical (vertex order independent of exploration
      accidents)
    - growth estimates expose both the ball-root and sphere-ratio readings
    - wait-and-surround triggers by the budget-vs-sphere rule, simulates to
      containment, and reports cap exhaustion with a trace
    - polynomial probes are infeasible on exponential-growth trees and the
      budget-vs-sphere table matches the cumulative sums, and a raw
      acceptor with redundant states decides at once
    - the ball's elements follow the reference's own graph-product group
      law (tests/cayley_reference.py), the package having none
    - the word acceptors have the stated state counts and unfold to the
      balls of the breadth-first reference (tests/cayley_reference.py):
      every field and every adjacency row equal at every radius up to 24
      whose ball has at most 5k vertices and at the largest radius (at
      most 200) whose ball has at most 50k, and their level counts are
      the sphere sizes
    - each named group's acceptor, handed over as a spec, gives what the
      periodic spec of its named states gives: truncations, level counts,
      br comparisons and brackets, certificates and feasibility checks
    - probes on the acceptor decide as the materialised lex-min tree does
    - the ball is its acceptor's truncation in every Truncation field, and
      under the same protect sets, legal on the ball, the tree burns a
      subset of what the ball burns after every round (subgraph transfer)
    - a surround without trigger is decided with no ball, and a triggered
      one builds the ball only out to the protected sphere and its model's
      word acceptor once; it walks the level counts once, and a contained
      one leaves its ball with no vertex array and no row
    - a ball unfolds nothing until, whichever read comes first, its
      parent, state, first_child, tree generators, boundary mask or rows
      are read; then they, its level_starts and vertex count equal the
      breadth-first reference's and the eager unfolding's, at radii 0, 1,
      2 and the first radius past EXPORT_SPHERE_MIN, on free, Z^d,
      dihedral, free-product, F2 x Z and pentagon balls; a game that
      reaches the outer sphere unfolds the ball for its boundary mask on
      demand and, as every round fills the ball up to a level, builds no
      row, with the verdict, round and trace of a ball built whole before
      play; a lex-min tree is unfolded whole, once, inside lex_min_tree
    - a ball's rows below level R are dense, at offsets v*|gens|, and are
      the first rows of the next ball's, on every differential model at
      radii 1-6; its interior rows and all its rows equal, byte for byte,
      the next ball's rows masked to the ball's ids, on every named group,
      the two ``gp:`` examples and the seeded graph products at radii 0-8
    - the ball cap fails at the same radius after a larger ball was
      built, and the level-count walk stops at the cap's radius: every
      cayley mode on free:2 at R = 10**6 exits 2 naming the cap within 1 s
    - a ball's vertex and row arrays are memoryviews over numpy buffers that
      equal the reference's lists and read back Python ints; neither a
      surround nor a tree export builds the per-vertex level, and the R = 11
      surround's traced peak stays within 3 bytes a ball vertex
"""

import bisect
import io
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, pairwise

import numpy as np
import pytest

import firebreak.cayley as cayley_mod
import firebreak.trees as trees_mod
from firebreak import (
    BudgetSequence,
    GraphProduct,
    PeriodicSpec,
    ResourceLimitError,
    SpecError,
    SurroundCapError,
    br_bracket,
    cayley_ball,
    check_certificate,
    expand,
    feasibility_check,
    group_from_name,
    growth_rate_estimate,
    level_counts,
    lex_min_tree,
    lower_bound_certificate,
    polynomial_probe,
    step,
    wait_and_surround,
)
from firebreak.branching import compare_to_br
from firebreak.cli import main as cli_main
from firebreak.game import BURNING, PROTECTED, ScheduleStrategy, ball_ids, simulate, state_from_fire
from firebreak.trees import Automaton
from cayley_reference import ReferenceGraphProduct, joined_pairs, reference_ball, tree_export_text
from conftest import (COMPLETION_GROUPS, ball_elements, ball_words, child_ids,
                      enumerate_geodesic_words, replaced, tree_export, vertex_levels)

ALL_MODELS = [group_from_name(name) for name in (
    "free:1", "free:2", "zd:1", "zd:2", "zd:3", "dinf", "freeprod:2,3", "freeprod:3,3")]
# F2 x Z (a and b joined to c but not to each other) and the right-angled
# Coxeter group of the pentagon (five involutions, each joined to its two
# neighbours round the cycle)
GP_MODELS = [group_from_name("gp:0,0,0/ac,bc"), group_from_name("gp:2,2,2,2,2/ab,bc,cd,de,ae")]
NAMED_GROUPS = ["zd:1", "zd:2", "zd:3", "zd:4", "free:1", "free:2", "free:3", "dinf",
                "freeprod:2,3", "freeprod:3,3", "freeprod:5,7", "gp:0,0,0/ac,bc",
                "gp:2,2,2,2,2/ab,bc,cd,de,ae"]


class TestGroupModels:
    @pytest.mark.parametrize("model", ALL_MODELS + GP_MODELS, ids=lambda m: m.name)
    def test_generator_inverse_cancels(self, model):
        # zd:D and the gp: groups join factors, so products shuffle syllables
        # past each other and must come back to the same normal form
        group = ReferenceGraphProduct(model.orders, joined_pairs(model))
        rng = random.Random(5)
        elems = [group.identity]
        for _ in range(30):
            e = elems[rng.randrange(len(elems))]
            g = rng.randrange(len(group.generators))
            elems.append(group.multiply(e, g))
        for e in elems:
            for g in range(len(group.generators)):
                inv = group.inverse_index(g)
                assert inv == model.inverse_index(g)
                assert group.multiply(group.multiply(e, g), inv) == e

    def test_joined_factors_commute(self):
        # one normal form for ab and ba on zd:2, and for ac and ca on F2 x Z,
        # but not for ab and ba there
        for name, (g, h), commute in (("zd:2", (0, 2), True), ("gp:0,0,0/ac,bc", (0, 4), True),
                                      ("gp:0,0,0/ac,bc", (0, 2), False)):
            model = group_from_name(name)
            group = ReferenceGraphProduct(model.orders, joined_pairs(model))
            e = group.identity
            gh = group.multiply(group.multiply(e, g), h)
            hg = group.multiply(group.multiply(e, h), g)
            assert (gh == hg) == commute, name

    def test_names(self):
        assert group_from_name("free:2").generators == ("a", "A", "b", "B")
        assert group_from_name("zd:2").generators == ("a", "A", "b", "B")
        assert group_from_name("dinf").generators == ("a", "b")
        assert group_from_name("freeprod:2,3").generators == ("a", "b", "B")
        assert group_from_name("gp:0,2,3/ab").generators == ("a", "A", "b", "c", "C")
        assert group_from_name("gp:0,0,0/ac,bc").name == "gp:0,0,0/ac,bc"

    def test_bad_names_rejected(self, capsys):
        # the model's own reason reaches the caller, and the CLI exits 1 with
        # it; only a name that does not parse reads "bad group parameters"
        for name, reason in [
            ("free:x", "bad group parameters"), ("zd:", "bad group parameters"),
            ("so3", "unknown group"), ("free:0", "free group rank must be >= 1"),
            ("zd:0", "dimension must be >= 1"), ("zd:11", "at most 10 factors supported"),
            ("freeprod:1,2", "freeprod factor orders must be >= 2"),
            ("freeprod:0,3", "freeprod factor orders must be >= 2"),
            ("freeprod:0", "freeprod factor orders must be >= 2"),
            ("freeprod:4", "the group is finite"),
            ("gp:0,0/aa", "pair aa joins a factor to itself"),
            ("gp:0,0/ac", "pair ac names a letter past the 2 factors"),
            ("gp:0,0,0/ab,ba", "pair ba is repeated"), ("gp:0,0/ab,ab", "pair ab is repeated"),
            ("gp:2,3/ab", "the group is finite"), ("gp:0,1", "cyclic factor orders"),
            ("gp:0,0/aB", "bad group parameters"), ("gp:0,0/abc", "bad group parameters"),
            ("gp:", "bad group parameters"),
        ]:
            with pytest.raises(SpecError, match=reason):
                group_from_name(name)
            assert cli_main(["cayley", name, "--mode", "growth", "--R", "3"]) == 1, name
            assert f"firebreak: {reason}" in capsys.readouterr().err, name

    def test_factor_orders(self):
        assert GraphProduct((0,)).generators == ("a", "A")
        assert GraphProduct((0, 2)).generators == ("a", "A", "b")
        assert GraphProduct((0, 2)).name == "gp:0,2/"
        for orders in ((1, 2), (-1, 3), (3,), (2,), ()):
            with pytest.raises(SpecError):
                GraphProduct(orders)


class TestBalls:
    def test_z_spheres(self):
        b = cayley_ball(group_from_name("zd:1"), 3)
        assert b.sphere_sizes() == [1, 2, 2, 2]
        assert b.n_vertices == 7

    def test_z2_spheres(self):
        b = cayley_ball(group_from_name("zd:2"), 3)
        assert b.sphere_sizes() == [1, 4, 8, 12]
        assert b.n_vertices == 25  # 2R^2 + 2R + 1

    def test_free2_spheres(self):
        b = cayley_ball(group_from_name("free:2"), 3)
        assert b.sphere_sizes() == [1, 4, 12, 36]
        assert b.n_vertices == 53

    def test_dinf_linear(self):
        b = cayley_ball(group_from_name("dinf"), 8)
        assert b.sphere_sizes() == [1] + [2] * 8

    def test_c2_c3_spheres(self):
        # syllable count recurrence: ends-in-a and ends-in-b counts give
        # 3, 4, 6, 8, 12 for radii 1..5
        b = cayley_ball(group_from_name("freeprod:2,3"), 5)
        assert b.sphere_sizes() == [1, 3, 4, 6, 8, 12]

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_adjacency_rows_follow_generator_order(self, model):
        b = cayley_ball(model, 4)
        elements, index = ball_elements(b)
        group = ReferenceGraphProduct(model.orders, joined_pairs(model))
        for v in range(b.n_vertices):
            products = (group.multiply(elements[v], g) for g in range(len(model.generators)))
            assert list(b.neighbors(v)) == [index[w] for w in products if w in index]

    def test_adjacency_is_symmetric(self):
        b = cayley_ball(group_from_name("zd:2"), 4)
        for v in range(b.n_vertices):
            for w in b.neighbors(v):
                assert v in b.neighbors(w)

    def test_distances_via_neighbors(self):
        b = cayley_ball(group_from_name("free:2"), 4)
        level = vertex_levels(b)
        for v in range(1, b.n_vertices):
            assert min(level[w] for w in b.neighbors(v)) == level[v] - 1

    def test_cap(self, monkeypatch):
        from firebreak import ResourceLimitError
        # fires once a completed layer passes the cap: |B(5)| = 485, |B(6)| = 1457
        monkeypatch.setattr(cayley_mod, "DEFAULT_BALL_CAP", 1000)
        with pytest.raises(ResourceLimitError,
                           match="ball of radius 6 has 1457 elements, the ball cap is 1000"):
            cayley_ball(group_from_name("free:2"), 8)


class TestLexMinWords:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_words_evaluate_to_their_element(self, model):
        b = cayley_ball(model, 4)
        elements, _index = ball_elements(b)
        words, level = ball_words(b), vertex_levels(b)
        group = ReferenceGraphProduct(model.orders, joined_pairs(model))
        for v in range(b.n_vertices):
            e = group.identity
            for g in words[v]:
                e = group.multiply(e, g)
            assert e == elements[v]
            assert len(words[v]) == level[v]

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_words_minimal_by_enumeration(self, model):
        b = cayley_ball(model, 6)
        words = ball_words(b)
        for v in range(b.n_vertices):
            assert words[v] == min(enumerate_geodesic_words(b, v))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_tree_export_lines_spell_the_words(self, model, tmp_path, capsys):
        # every radius up to 24 whose ball has at most 5k vertices, and the
        # largest (at most 200) whose ball has at most 5k
        out = tmp_path / "ball.tree"
        for radius in differential_radii(model, most=5_000):
            assert cli_main(["cayley", model.name, "--mode", "tree", "--R", str(radius),
                             "--out", str(out)]) == 0
            capsys.readouterr()
            words = ball_words(cayley_ball(model, radius))
            want = [f"# vertex {v} = {''.join(model.generators[g] for g in w) or 'id'}"
                    for v, w in enumerate(words)]
            lines = out.read_text().splitlines()
            assert [line for line in lines if line.startswith("# vertex")] == want, radius

    def test_z_gen_before_inverse(self, tmp_path, capsys):
        b = cayley_ball(group_from_name("zd:1"), 2)
        _elements, index = ball_elements(b)
        out = tmp_path / "z.tree"
        assert cli_main(["cayley", "zd:1", "--mode", "tree", "--R", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        a2, a_2 = index[((0, 2),)], index[((0, -2),)]  # a**2 and a**-2
        assert lines[a2] == f"# vertex {a2} = aa"
        assert lines[a_2] == f"# vertex {a_2} = AA"


EXPORT_CASES = ([("free:1", 60)] + [("free:2", r) for r in range(10)]
                + [("free:3", 6), ("dinf", 60), ("zd:2", 40), ("zd:3", 12), ("freeprod:3,3", 10)])


class TestTreeExport:
    """The sphere-by-sphere byte writer against the string-per-vertex one
    (tests/cayley_reference.py), byte for byte, at the default sphere
    crossover and forced both ways: every sphere from numpy passes, or all
    from Python strings (the parent lines always come from
    ``trees.format_ids``), and in chunks small enough to split spheres and
    parent lines."""

    def test_chunked_bytes_match_the_reference(self, monkeypatch):
        monkeypatch.setattr(cayley_mod, "EXPORT_CHUNK", 32)  # two 16-id lines
        for name, radius in (("free:2", 6), ("zd:2", 12), ("free:1", 60), ("dinf", 0)):
            tree = lex_min_tree(group_from_name(name), radius)
            got = io.BytesIO()
            cayley_mod.write_tree_export(tree, got)
            assert got.getvalue() == tree_export_text(tree).encode(), (name, radius)

    @pytest.mark.parametrize("threshold", [None, 0, 10 ** 9])
    def test_bytes_match_the_reference(self, threshold, monkeypatch):
        if threshold is not None:
            monkeypatch.setattr(cayley_mod, "EXPORT_SPHERE_MIN", threshold)
        paths = Counter()
        for name, radius in EXPORT_CASES:
            tree = lex_min_tree(group_from_name(name), radius)
            got = io.BytesIO()
            cayley_mod.write_tree_export(tree, got)
            assert got.getvalue() == tree_export_text(tree).encode(), (name, radius)
            numpy = False  # from the first sphere of EXPORT_SPHERE_MIN vertices on
            for a, b in pairwise(tree.level_starts[1:]):
                numpy = numpy or b - a >= cayley_mod.EXPORT_SPHERE_MIN
                paths[numpy, len(str(a)) < len(str(b - 1))] += 1
        # both paths ran unless forced, and spheres whose ids cross a power
        # of ten took the byte records
        assert paths[True, True] > 0 or threshold == 10 ** 9, paths
        assert paths[False, False] > 0 or threshold == 0, paths

    def test_cli_file_matches_the_reference(self, tmp_path, capsys):
        out = tmp_path / "ball.tree"
        for name, radius in (("free:2", 9), ("dinf", 60), ("zd:2", 40)):
            assert cli_main(["cayley", name, "--mode", "tree", "--R", str(radius),
                             "--out", str(out)]) == 0
            capsys.readouterr()
            want = tree_export_text(lex_min_tree(group_from_name(name), radius))
            assert out.read_bytes() == want.encode(), (name, radius)


class TestLexMinTree:
    def test_unfolded_whole_once(self, monkeypatch):
        # the export reads every vertex array, so the tree is unfolded whole,
        # once, inside lex_min_tree, from a ball that had unfolded nothing
        calls, balls = [], []
        unfold, ball_class = trees_mod.unfold, cayley_mod.CayleyBall
        monkeypatch.setattr(trees_mod, "unfold",
                            lambda *args: calls.append(len(args[1])) or unfold(*args))

        def fresh(*args):
            balls.append(ball_class(*args))
            assert "_arrays" not in balls[-1].__dict__
            return balls[-1]

        monkeypatch.setattr(cayley_mod, "CayleyBall", fresh)
        tree = lex_min_tree(group_from_name("free:2"), 6)
        assert balls == [tree] and calls == [7]
        cayley_mod.write_tree_export(tree, io.BytesIO())
        assert calls == [7]
        n = tree.n_vertices
        assert [len(values) for values in tree._arrays] == [n, n, n + 1]

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_spanning_geodesic_cayley_edges(self, model):
        b = lex_min_tree(model, 5)
        trunc = expand(tree_export(b), 5)
        assert trunc.n_vertices == b.n_vertices
        # tree levels equal Cayley distances
        assert trunc.level_starts == b.level_starts
        # every tree edge is a ball edge
        for v in range(1, b.n_vertices):
            assert b.parent[v] in b.neighbors(v)

    def test_z_two_rays(self):
        tree = lex_min_tree(group_from_name("zd:1"), 4)
        trunc = expand(tree_export(tree), 4)
        assert all(len(child_ids(trunc, v)) <= 2 for v in range(trunc.n_vertices))
        assert len(child_ids(trunc, 0)) == 2

    def test_z2_level_counts_are_sphere_sizes(self):
        tree = lex_min_tree(group_from_name("zd:2"), 4)
        assert tree.sphere_sizes() == [1, 4, 8, 12, 16]

    def test_free_tree_equals_ball(self):
        b = lex_min_tree(group_from_name("free:2"), 4)
        ball_edges = sum(len(b.neighbors(v)) for v in range(b.n_vertices)) // 2
        assert ball_edges == b.n_vertices - 1

    def test_parent_word_is_prefix(self):
        b = lex_min_tree(group_from_name("freeprod:2,3"), 5)
        words = ball_words(b)
        for v in range(1, b.n_vertices):
            assert words[b.parent[v]] == words[v][:-1]


class TestGrowth:
    def test_free2_ratio_exact(self):
        est = growth_rate_estimate(group_from_name("free:2"), 10)
        assert est.sphere_ratio == 3.0
        assert all(r == 3.0 for r in est.sphere_ratio_sequence[1:])

    def test_z2_ball_root_trends_down(self):
        est = growth_rate_estimate(group_from_name("zd:2"), 10)
        assert est.ball_sizes[-1] == 221
        assert est.ball_root == pytest.approx(221 ** 0.1)
        seq = est.ball_root_sequence
        assert all(seq[i + 1] <= seq[i] for i in range(2, len(seq) - 1))

    def test_dinf_ratio_one(self):
        est = growth_rate_estimate(group_from_name("dinf"), 10)
        assert est.sphere_ratio == 1.0

    def test_radius_too_small(self):
        with pytest.raises(SpecError):
            growth_rate_estimate(group_from_name("zd:1"), 1)


class TestWaitAndSurround:
    def test_z_triggers_at_two(self):
        res = wait_and_surround(group_from_name("zd:1"), 1, Fraction(3, 2), 6)
        assert res.trigger_round == 2
        assert res.sphere_index == 4 and len(res.sphere) == 2
        assert res.verdict.contained and res.verdict.round_no == 3

    def test_z2_triggers_at_ten(self):
        res = wait_and_surround(group_from_name("zd:2"), 1, Fraction(3, 2), 12)
        # least n with floor(1.5**n) >= 4(n+2)
        assert res.trigger_round == 10
        assert len(res.sphere) == 48
        assert res.verdict.contained
        # one guard band: fire stops exactly at the sphere below
        assert res.verdict.burnt == 2 * 11 * 11 + 2 * 11 + 1

    def test_trigger_rule_is_least_round(self):
        res = wait_and_surround(group_from_name("zd:2"), 1, Fraction(3, 2), 12)
        budget = BudgetSequence.exponential(Fraction(3, 2))
        for n, f_n, size in res.budget_trace[:-1]:
            assert f_n < size
        n, f_n, size = res.budget_trace[-1]
        assert n == res.trigger_round and f_n >= size
        assert budget(res.trigger_round) >= len(res.sphere)

    def test_free2_rate_below_growth_exhausts(self):
        with pytest.raises(SurroundCapError) as err:
            wait_and_surround(group_from_name("free:2"), 1, Fraction(5, 2), 8)
        assert err.value.trace
        for _n, f_n, size in err.value.trace:
            assert f_n < size

    def test_surround_builds_no_row(self):
        # trigger 5 on B(7): every round's fire fills the ball up to a level,
        # so the game reads no row of the 4,373-vertex ball, and no vertex array
        res = wait_and_surround(group_from_name("free:2"), 1, Fraction(5), 7)
        assert (res.trigger_round, res.ball.n_vertices, res.verdict.kind) == (5, 4373, "contained")
        assert not {"_arrays", "_built_rows"} & set(res.ball.__dict__)

    def test_no_trigger_builds_no_ball(self, monkeypatch):
        def no_ball(*_args, **_kw):
            raise AssertionError("a ball was built")

        monkeypatch.setattr(cayley_mod, "ball", no_ball)
        with pytest.raises(SurroundCapError) as err:
            wait_and_surround(group_from_name("free:2"), 1, Fraction(5, 2), 8)
        assert [size for _n, _f, size in err.value.trace] == [36, 108, 324, 972, 2916, 8748]

    def test_ball_ends_at_the_protected_sphere(self):
        res = wait_and_surround(group_from_name("zd:2"), 1, Fraction(3, 2), 12)
        assert res.ball.depth == res.sphere_index == 12
        res = wait_and_surround(group_from_name("zd:1"), 1, Fraction(3, 2), 30)
        assert res.ball.depth == res.sphere_index == 4
        assert res.verdict.contained and res.verdict.burnt == 7

    def test_acceptor_built_once_per_model(self, monkeypatch):
        # a triggered surround reads the acceptor for its trigger, its ball
        # and its adjacency: the model builds it once, and the ball unfolds
        # that automaton itself
        model = group_from_name("free:2")
        built = []
        monkeypatch.setattr(cayley_mod, "Automaton",
                            lambda *args: built.append(1) or Automaton(*args))
        res = wait_and_surround(model, 1, 5, 8)  # triggers in round 5
        assert res.verdict.contained and len(built) == 1
        assert res.ball.spec is model.acceptor[0]

    def test_cap_stops_the_walk(self, monkeypatch):
        # |B(12)| = 1,062,881 and |B(13)| = 3,188,645: however large the
        # radius asked for, the walk of the level counts stops at radius 13
        levels = []
        walk = Automaton.iter_level_counts
        monkeypatch.setattr(Automaton, "iter_level_counts",
                            lambda auto: (levels.append(n) or n for n in walk(auto)))
        with pytest.raises(ResourceLimitError, match="ball of radius 13 has 3188645 elements"):
            growth_rate_estimate(group_from_name("free:2"), 10 ** 6)
        assert len(levels) == 14

    @pytest.mark.parametrize("mode", [
        ["growth"], ["surround", "--lambda", "4", "--k", "1"], ["tree", "--out", "ball.tree"],
        ["polyprobe", "--k", "1", "--c", "2", "--d", "2"]], ids=lambda mode: mode[0])
    def test_every_mode_stops_at_the_cap_at_once(self, mode, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        t0 = time.perf_counter()
        assert cli_main(["cayley", "free:2", "--mode", *mode, "--R", "1000000"]) == 2
        assert time.perf_counter() - t0 < 1
        assert "ball of radius 13 has 3188645 elements, the ball cap is 2000000" in \
            capsys.readouterr().err

    def test_cap_radius_after_a_longer_walk(self, monkeypatch):
        # |B(5)| = 485 and |B(6)| = 1457: the cap fails at radius 6 whether
        # a larger ball of the model was built before or not
        model = group_from_name("free:2")
        assert cayley_ball(model, 9).n_vertices == 39365
        monkeypatch.setattr(cayley_mod, "DEFAULT_BALL_CAP", 1000)
        assert cayley_ball(model, 5).n_vertices == 485
        for radius in (6, 8, 12):
            with pytest.raises(ResourceLimitError, match="ball of radius 6 has 1457 elements"):
                cayley_ball(model, radius)

    def test_surround_and_export_build_no_level(self):
        # the game reads level_starts and the export the tree: neither builds
        # the per-vertex level, which is derived only when it is read
        res = wait_and_surround(group_from_name("free:2"), 1, Fraction(5), 7)
        assert res.verdict.contained and "level" not in res.ball.__dict__
        tree = lex_min_tree(group_from_name("free:2"), 6)  # spheres past EXPORT_SPHERE_MIN
        cayley_mod.write_tree_export(tree, io.BytesIO())
        assert "level" not in tree.__dict__
        assert list(tree.level) == [lv for lv, size in enumerate(tree.sphere_sizes())
                                    for _ in range(size)]

    def test_anchor_surround_peak_per_vertex(self):
        # the traced peak of the R = 11 surround repeats to within a few kB:
        # 2.35 bytes a ball vertex, the status bytes and the bytes that mark
        # the sphere and a level, as the ball unfolds nothing and builds no
        # row; 14.8 with the interior's vertex arrays and rows, 22.8 with the
        # outer sphere's arrays too
        model = group_from_name("free:2")
        assert model.acceptor  # built once per model, outside the count
        tracemalloc.start()
        try:
            res = wait_and_surround(model, 1, 4, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.verdict.contained and res.ball.n_vertices == 354_293
        assert peak <= 3 * res.ball.n_vertices, peak / res.ball.n_vertices

    def test_no_fault_on_trigger_round(self):
        # the protected sphere is two steps ahead of the fire at play time
        res = wait_and_surround(group_from_name("zd:1"), 0, 2, 8)
        played = res.verdict.trace[res.trigger_round - 1]
        assert played.protected == tuple(res.sphere)

    @pytest.mark.parametrize("name, rate, ball_radius", [
        ("free:2", 4, 9), ("zd:3", Fraction(12, 5), 8), ("freeprod:3,3", Fraction(29, 10), 8)])
    def test_contained_surround_builds_no_outer_array(self, name, rate, ball_radius):
        # the fire stops inside the protected sphere and nothing is left
        # untouched: the ball holds its level starts alone, no vertex array
        # and no row, and its arrays unfold whole on the first read
        res = wait_and_surround(group_from_name(name), 0, rate, ball_radius)
        b = res.ball
        assert res.verdict.contained
        assert not {"_arrays", "_built_rows", "tree_generator", "boundary_mask"} & set(b.__dict__)
        assert len(b.parent) == len(b.state) == b.n_vertices == b.level_starts[-1]
        assert [len(values) for values in b._arrays] == [b.n_vertices] * 2 + [b.n_vertices + 1]

    def test_ball_takes_the_walked_spheres(self, monkeypatch):
        # the trigger's walk of the level counts is the one walk a surround makes
        walks = []
        walk = Automaton.iter_level_counts
        monkeypatch.setattr(Automaton, "iter_level_counts",
                            lambda auto: walks.append(1) or walk(auto))
        res = wait_and_surround(group_from_name("free:2"), 1, 5, 8)
        assert res.verdict.contained and len(walks) == 1


def export_radius(model) -> int:
    """The least radius whose outer sphere has EXPORT_SPHERE_MIN vertices, so
    the export writes it from numpy passes, or one past EXPORT_SPHERE_MIN on
    groups whose spheres stay smaller."""
    least = cayley_mod.EXPORT_SPHERE_MIN
    spheres = level_counts(model.acceptor[0], least + 1)
    return next((r for r, size in enumerate(spheres) if size >= least), least + 1)


class TestOuterSphere:
    @pytest.mark.parametrize("name", COMPLETION_GROUPS)
    def test_completed_ball_equals_the_references(self, name):
        # whichever read completes the ball first, its fields are the
        # breadth-first reference's, and its states and boundary are the
        # eager unfolding's, which substitutes the outer level too
        model = group_from_name(name)
        group = ReferenceGraphProduct(model.orders, joined_pairs(model))
        for radius in (0, 1, 2, export_radius(model)):
            ref, eager = reference_ball(group, radius), expand(model.acceptor[0], radius)
            kids = Counter(ref.parent[1:])
            first_child = list(accumulate((kids[v] for v in range(len(ref.parent))), initial=1))
            for first in ("parent", "state", "first_child", "tree_generator", "boundary_mask",
                          "rows"):
                got = cayley_ball(model, radius)
                assert "_arrays" not in got.__dict__, radius
                if first == "rows":
                    got.neighbors(got.n_vertices - 1)
                else:
                    getattr(got, first)
                assert list(got.parent) == ref.parent, (radius, first)
                assert list(got.tree_generator) == ref.tree_generator, (radius, first)
                assert list(got.first_child) == first_child, (radius, first)
                assert got.level_starts == (0, *accumulate(map(len, ref.layers)))
                assert got.n_vertices == len(ref.elements)
                assert [list(got.neighbors(v)) for v in range(got.n_vertices)] == ref.adjacency
                for field in ("parent", "state", "first_child"):
                    assert bytes(getattr(got, field)) == bytes(getattr(eager, field)), field
                assert got.boundary_mask == eager.boundary_mask

    @pytest.mark.parametrize("half", [False, True], ids=["unprotected", "half-protected"])
    def test_simulate_builds_the_outer_arrays_on_demand(self, half):
        # the fire reaches the outer sphere, whose boundary mask, and with it
        # the whole ball, is built when the game first reads it; every round
        # fills the ball up to a level, so no row is built; verdict, round and
        # trace are those of a ball whose arrays and rows were built before play
        model = group_from_name("free:2")
        b, ready = cayley_ball(model, 6), cayley_ball(model, 6)
        ready.boundary_mask, ready.neighbors(ready.n_vertices - 1)
        a, z = b.level_starts[6:]
        protect = range(a, a + (z - a) // 2) if half else range(0)
        strategy, budget = ScheduleStrategy({1: protect}), BudgetSequence.constant(len(protect))
        assert not {"boundary_mask", "_arrays"} & set(b.__dict__)
        got = simulate(b, 1, strategy, budget)
        assert (got.kind, got.round_no, got.burnt) == ("boundary_reached", 5, None)
        assert [len(r.burnt) for r in got.trace] == [12, 36, 108, 324, 486 if half else 972]
        assert got.trace == simulate(ready, 1, strategy, budget).trace
        assert {"boundary_mask", "_arrays"} <= set(b.__dict__)
        assert "_built_rows" not in b.__dict__
        assert [list(b.neighbors(v)) for v in range(a, z)] == \
            [list(ready.neighbors(v)) for v in range(a, z)]


class TestPolynomialProbe:
    def test_free2_quadratic_infeasible(self):
        rep = polynomial_probe(group_from_name("free:2"), 1, 2, 2, 8)
        assert not rep.feasibility.feasible
        budget = BudgetSequence.polynomial(1, 2)
        spheres = rep.budget_vs_sphere
        for n, cum, sphere in spheres:
            assert cum == sum(budget(i) for i in range(1, n + 1))
            assert sphere == 4 * 3 ** n
            assert cum < sphere
        assert "evidence" in rep.note

    def test_z2_affine_budget_feasible(self):
        tree = lex_min_tree(group_from_name("zd:2"), 6)
        budget = BudgetSequence.explicit([4 * n + 8 for n in range(1, 7)])
        result = feasibility_check(tree_export(tree), 1, budget, 6)
        assert result.feasible

    def test_z_constant_budget_feasible(self):
        rep = polynomial_probe(group_from_name("free:1"), 1, 0, 5, 8)
        assert rep.feasibility.feasible

    def test_raw_acceptor_with_redundant_states_decides(self):
        # freeprod:5,7's acceptor has 11 states but 6 subtree classes; keyed
        # on its states, the count recursion passed FEASIBILITY_WORK_MAX here
        t0 = time.perf_counter()
        result = feasibility_check(group_from_name("freeprod:5,7").acceptor[0], 0,
                                   BudgetSequence.polynomial(3, 1), 6)
        assert time.perf_counter() - t0 < 2
        assert result.witness_levels == ((2, 4), (3, 13), (4, 13), (5, 13), (6, 20))


class TestGrowthConsistency:
    def test_free_tree_periodic_readoff_brackets_growth(self):
        # the rank-r free tree is the periodic tree "root spawns 2r copies
        # of a state that spawns 2r-1 of itself"; its branching bracket
        # must contain 2r-1
        for rank in (1, 2, 3):
            spec = PeriodicSpec(
                states={"R": ("A",) * (2 * rank), "A": ("A",) * (2 * rank - 1)},
                root="R",
            )
            tree = lex_min_tree(group_from_name(f"free:{rank}"), 6)
            assert tree.sphere_sizes() == [
                1 if n == 0 else 2 * rank * (2 * rank - 1) ** (n - 1)
                for n in range(7)
            ]
            bracket = br_bracket(spec, tol=0.01)
            assert bracket.lo <= 2 * rank - 1 <= bracket.hi

    def test_sphere_sizes_nondecreasing_in_generators(self):
        for small, large in [("free:1", "free:2"), ("zd:1", "zd:2"), ("zd:2", "zd:3")]:
            a = cayley_ball(group_from_name(small), 6).sphere_sizes()
            b = cayley_ball(group_from_name(large), 6).sphere_sizes()
            assert all(x <= y for x, y in zip(a, b))


class TestDeterminism:
    def test_ball_reconstruction_identical(self):
        a = cayley_ball(group_from_name("freeprod:2,3"), 5)
        b = cayley_ball(group_from_name("freeprod:2,3"), 5)
        assert ball_elements(a) == ball_elements(b)
        assert ball_words(a) == ball_words(b)
        for v in range(a.n_vertices):
            assert list(a.neighbors(v)) == list(b.neighbors(v))

    def test_layers_sorted_by_word(self):
        for model in ALL_MODELS:
            b = cayley_ball(model, 4)
            every = ball_words(b)
            for layer in map(range, b.level_starts, b.level_starts[1:]):
                words = [every[v] for v in layer]
                assert all(x < y for x, y in zip(words, words[1:])), model.name


# the built-in models, free products with an order-4 factor and two
# factors whose runs reach two and three letters, Z * C3, and the gp: models
DIFFERENTIAL_MODELS = ALL_MODELS + [group_from_name("freeprod:2,3,4"),
                                    group_from_name("freeprod:5,7"),
                                    GraphProduct((0, 3), name="freeprod:0,3")] + GP_MODELS
BALL_FIELDS = ("level", "parent", "tree_generator")  # arrays; layers are level_starts
TRUNCATION_FIELDS = ("depth", "parent", "state", "first_child", "level_starts")  # and spec


def differential_radii(model, dense: int = 24, every: int = 5_000, most: int = 50_000,
                       longest: int = 200) -> list[int]:
    """Every radius up to ``dense`` while the ball has at most ``every``
    vertices, and the largest radius whose ball has at most ``most``, but
    none past ``longest``: the words of a ball hold about |B| * R letters."""
    spheres = level_counts(model.acceptor[0], longest)
    sizes = [sum(spheres[:r + 1]) for r in range(longest + 1)]
    last = max(r for r, n in enumerate(sizes) if n <= most)
    return [r for r in range(min(last, dense + 1)) if sizes[r] <= every] + [last]


def state_of(model, word: str = "") -> int:
    """The acceptor state reached by reading the word's letters from the root."""
    auto, entering, _runs = model.acceptor
    s = auto.root
    for letter in word:
        s = next(t for t in auto.children[s] if model.generators[entering[t]] == letter)
    return s


def children_of(model, word: str = "") -> list[tuple[str, int]]:
    """The children of the state that reads the word, each as its
    entering letter and run."""
    auto, entering, runs = model.acceptor
    return [(model.generators[entering[t]], runs[t]) for t in auto.children[state_of(model, word)]]


def named_spec(model) -> PeriodicSpec:
    """The model's acceptor as a periodic spec of named states, each named
    by its number, entering letter and run, which compile numbers as the
    acceptor does."""
    auto, entering, runs = model.acceptor
    names = [f"{s:03d}{model.generators[g] if g >= 0 else 'id'}{r}"
             for s, (g, r) in enumerate(zip(entering, runs))]
    return PeriodicSpec(states={names[s]: tuple(names[t] for t in kids)
                                for s, kids in enumerate(auto.children)}, root=names[auto.root])


class TestWordAcceptors:
    @pytest.mark.parametrize("name, n_states", [
        *((f"zd:{d}", 2 * d + 1) for d in range(1, 5)),
        *((f"free:{r}", 2 * r + 1) for r in range(1, 5)),
        ("dinf", 3), ("freeprod:2,3", 4), ("freeprod:3,3", 5), ("freeprod:5,7", 11),
        ("freeprod:4,5,6", 13),
    ])
    def test_state_counts(self, name, n_states):
        # as the two models that the graph product replaced had them
        model = group_from_name(name)
        assert len(model.acceptor[0].children) == n_states

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_free_group_runs(self, rank):
        # a run on Z is one state looping to itself: every letter but the
        # inverse of the last follows, in generator order
        model = group_from_name(f"free:{rank}")
        gens = tuple(g for a in "abc"[:rank] for g in (a, a.upper()))
        assert children_of(model) == [(g, 1) for g in gens]
        for g in gens:
            assert children_of(model, g) == [(h, 1) for h in gens if h != g.swapcase()]
            assert state_of(model, g + g) == state_of(model, g)

    def test_free_product_runs(self):
        # order 4: a, aa (a tie goes to a) and A; order 5: two of either
        model = GraphProduct((4, 5))
        assert children_of(model, "a") == [("a", 2), ("b", 1), ("B", 1)]
        assert children_of(model, "aa") == children_of(model, "A") == [("b", 1), ("B", 1)]
        assert children_of(model, "b") == [("a", 1), ("A", 1), ("b", 2)]
        assert children_of(model, "B") == [("a", 1), ("A", 1), ("B", 2)]
        assert children_of(model, "BB") == [("a", 1), ("A", 1)]

    def test_joined_factors_follow_in_order(self):
        # F2 x Z: c commutes with a and b, so a shortlex word has no a or b
        # after a c; after a or b, the letters of the other free factor and
        # of c may start a syllable
        model = group_from_name("gp:0,0,0/ac,bc")
        assert children_of(model) == [("a", 1), ("A", 1), ("b", 1), ("B", 1), ("c", 1), ("C", 1)]
        assert children_of(model, "a") == [("a", 1), ("b", 1), ("B", 1), ("c", 1), ("C", 1)]
        assert children_of(model, "b") == [("a", 1), ("A", 1), ("b", 1), ("c", 1), ("C", 1)]
        assert children_of(model, "c") == [("c", 1)] and children_of(model, "C") == [("C", 1)]

    def test_a_state_keeps_what_could_start_before(self):
        # the pentagon: after c, b (joined to c, and before it) may not start
        # a syllable, and after c then a it still may not, though a syllable
        # of a read at the root lets b follow; so a after c is a state apart
        # from a at the root, though both enter by a with run 1
        model = GP_MODELS[1]
        assert children_of(model, "a") == [("b", 1), ("c", 1), ("d", 1), ("e", 1)]
        assert children_of(model, "c") == [("a", 1), ("d", 1), ("e", 1)]
        assert children_of(model, "ca") == [("c", 1), ("d", 1), ("e", 1)]
        assert state_of(model, "ca") != state_of(model, "a")

    @pytest.mark.parametrize("name", NAMED_GROUPS)
    def test_acceptor_reads_as_its_named_spec(self, name):
        # the acceptor handed to every function that takes a spec gives what
        # the periodic spec of its named states gives
        model = group_from_name(name)
        auto, spec = model.acceptor[0], named_spec(model)
        assert spec == auto
        for depth in range(6):
            got, want = expand(auto, depth), expand(spec, depth)
            for name in TRUNCATION_FIELDS:
                assert getattr(got, name) == getattr(want, name), name
            assert got.boundary_mask == want.boundary_mask
        assert level_counts(auto, 12) == level_counts(spec, 12)
        assert br_bracket(auto, 1e-6) == br_bracket(spec, 1e-6)
        for rate in (Fraction(1, 2), Fraction(9, 10), Fraction(3, 2), 2, Fraction(5, 2), 3):
            assert compare_to_br(auto, rate) == compare_to_br(spec, rate)
            if compare_to_br(auto, rate) < 0:
                got, want = lower_bound_certificate(auto, rate), lower_bound_certificate(spec, rate)
                assert replaced(got, spec=spec) == want
                assert check_certificate(got) == check_certificate(want)
                assert all(check_certificate(got).values())
        for budget in (BudgetSequence.constant(2), BudgetSequence.polynomial(2, 1),
                       BudgetSequence.exponential(Fraction(3, 2))):
            for radius, depth in ((0, 3), (1, 5), (2, 6)):
                assert feasibility_check(auto, radius, budget, depth) == \
                    feasibility_check(spec, radius, budget, depth)

    @pytest.mark.parametrize("model", DIFFERENTIAL_MODELS, ids=lambda m: m.name)
    def test_ball_equals_breadth_first_reference(self, model):
        acceptor = model.acceptor[0]
        group = ReferenceGraphProduct(model.orders, joined_pairs(model))
        for radius in differential_radii(model):
            got, ref = cayley_ball(model, radius), reference_ball(group, radius)
            for name in BALL_FIELDS:
                assert list(getattr(got, name)) == getattr(ref, name), (radius, name)
            assert [list(range(a, b)) for a, b in pairwise(got.level_starts)] == ref.layers, (
                radius, "layers")
            for v in range(got.n_vertices):
                assert list(got.neighbors(v)) == ref.adjacency[v], (radius, v)
            assert level_counts(acceptor, radius) == got.sphere_sizes()

    @pytest.mark.parametrize("model", DIFFERENTIAL_MODELS, ids=lambda m: m.name)
    def test_elements_follow_the_reference_group_law(self, model):
        # the breadth-first ball of the reference's own group law, at the
        # largest radius whose ball has at most 3k vertices: the same tree,
        # rows and elements, so two normal-form routines agree
        radius = differential_radii(model, most=3_000)[-1]
        group = ReferenceGraphProduct(model.orders, joined_pairs(model))
        got, ref = cayley_ball(model, radius), reference_ball(group, radius)
        for name in BALL_FIELDS:
            assert list(getattr(got, name)) == getattr(ref, name), name
        assert [list(got.neighbors(v)) for v in range(got.n_vertices)] == ref.adjacency

    @pytest.mark.parametrize("model", DIFFERENTIAL_MODELS, ids=lambda m: m.name)
    def test_interior_rows_are_a_prefix_of_all_rows(self, model):
        # a row below level R holds every product v*g, so the rows of the
        # vertices below level R are dense, at offsets v*|gens|, and are the
        # first rows of the next ball's full build
        for radius in range(1, 7):
            b, bigger = cayley_ball(model, radius), cayley_ball(model, radius + 1)
            inner, n_gens = b.level_starts[radius], len(model.generators)
            (offsets, columns), (every, all_columns) = b._rows(), bigger._rows()
            assert len(offsets) == b.n_vertices + 1 and len(every) == bigger.n_vertices + 1
            assert offsets[:inner + 1].tolist() == list(range(0, (inner + 1) * n_gens, n_gens))
            assert offsets[:inner + 1] == every[:inner + 1], radius
            assert columns[:offsets[inner]] == all_columns[:every[inner]], radius

    @pytest.mark.parametrize("model", DIFFERENTIAL_MODELS, ids=lambda m: m.name)
    def test_unfolding_numbers_vertices_as_the_ball(self, model):
        # the ball is the acceptor's truncation, with other rows
        for radius in range(7):
            trunc, b = expand(model.acceptor[0], radius), cayley_ball(model, radius)
            for name in ("spec", *TRUNCATION_FIELDS):
                assert getattr(b, name) == getattr(trunc, name), (radius, name)
            assert b.boundary_mask == trunc.boundary_mask

    @pytest.mark.parametrize("model", DIFFERENTIAL_MODELS, ids=lambda m: m.name)
    def test_ball_arrays_read_back_python_ints(self, model):
        # every per-vertex array and both row arrays are memoryviews over
        # numpy buffers: they equal the reference's lists and read back ints
        radius = differential_radii(model, most=3_000)[-1]
        group = ReferenceGraphProduct(model.orders, joined_pairs(model))
        got, ref = cayley_ball(model, radius), reference_ball(group, radius)
        offsets, columns = got._built_rows
        lists = [(name, getattr(ref, name)) for name in BALL_FIELDS] + [
            ("offsets", list(accumulate(map(len, ref.adjacency), initial=0))),
            ("columns", [w for row in ref.adjacency for w in row])]
        for name, want in lists:
            values = getattr(got, name, offsets if name == "offsets" else columns)
            assert isinstance(values, memoryview) and values.format == "i", name
            assert values.tolist() == want, name
            assert {type(v) for v in values} == {int}, name
            assert {type(values[v]) for v in range(-1, len(values))} == {int}, name
        for v in range(got.n_vertices):
            row = got.neighbors(v)
            assert row.tolist() == ref.adjacency[v] and all(type(w) is int for w in row)

    def test_probe_on_acceptor_matches_materialised_tree(self):
        rng = random.Random(8)
        seen = set()
        for _ in range(60):
            model = rng.choice(DIFFERENTIAL_MODELS)
            depth = rng.randint(2, 6)
            radius = rng.randint(0, depth - 1)
            coeff, degree = rng.randint(1, 4), rng.randint(0, 2)
            rep = polynomial_probe(model, coeff, degree, radius, depth)
            tree = lex_min_tree(model, depth)
            budget = BudgetSequence.polynomial(coeff, degree)
            # the probe decides as the materialised tree does, without witness
            # paths; the acceptor's paths are the materialised tree's
            export = feasibility_check(tree_export(tree), radius, budget, depth)
            assert (rep.feasibility.feasible, rep.feasibility.witness_levels) == \
                (export.feasible, export.witness_levels)
            assert feasibility_check(model.acceptor[0], radius, budget, depth) == export
            assert [s for _n, _c, s in rep.budget_vs_sphere] == tree.sphere_sizes()[2:]
            seen.add(rep.feasibility.feasible)
        assert seen == {True, False}



def _times(a: list[int], b: list[int]) -> list[int]:
    """The product of two power series, to a's length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _reciprocal(a: list[int]) -> list[int]:
    """1 / a for a power series with a[0] = 1, to a's length."""
    out = [1]
    for k in range(1, len(a)):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)))
    return out


def chiswell_spheres(orders, pairs, n: int) -> list[int]:
    """Sphere sizes 0..n of a graph product of cyclic groups C_m (C_0 = Z)
    on its factors' generators and inverses, from Chiswell's formula
    ("The growth series of a graph product", Bull. LMS 1994):
    1/W = sum over the cliques s of the graph, the empty one included, of
    the product over the factors v in s of (1/W_v - 1), where W_v is the
    sphere series of C_m: 1 + 2t + 2t^2 + ... on Z, and on C_m a 2 for each
    exponent up to (m - 1) / 2 and a 1 at m / 2 when m is even."""
    factors = []
    for m in orders:
        w = [1] + [2 if not m or 2 * k < m else int(2 * k == m) for k in range(1, n + 1)]
        factors.append([0] + _reciprocal(w)[1:])
    total = [0] * (n + 1)
    for size in range(len(orders) + 1):
        for clique in combinations(range(len(orders)), size):
            if all(pair in pairs for pair in combinations(clique, 2)):
                term = [1] + [0] * n
                for v in clique:
                    term = _times(term, factors[v])
                total = [x + y for x, y in zip(total, term)]
    return _reciprocal(total)


def seeded_graph_products(seed: int, count: int) -> list[GraphProduct]:
    """Infinite graph products of 2 to 5 cyclic factors of orders 0 (Z) and
    2 to 5, each pair of factors joined with probability 1/2."""
    rng, models = random.Random(seed), []
    while len(models) < count:
        k = rng.randint(2, 5)
        orders = [rng.choice((0, 0, 2, 3, 4, 5)) for _ in range(k)]
        joined = [pair for pair in combinations(range(k), 2) if rng.random() < 0.5]
        if not all(orders) or len(joined) < k * (k - 1) // 2:  # else the group is finite
            models.append(GraphProduct(orders, joined))
    return models


SEEDED_MODELS = seeded_graph_products(26, 12)


class TestGraphProducts:
    """gp: groups: sphere sizes against Chiswell's formula, which shares no
    code with the package, and balls against the breadth-first ball of the
    reference group law; every cayley mode runs on them."""

    def test_formula_gives_the_stated_spheres(self):
        # F2 x Z: each sphere is F2's 4 * 3**(k-1) sizes convolved with Z's 2
        assert chiswell_spheres((0, 0, 0), {(0, 2), (1, 2)}, 6) == [1, 6, 22, 70, 214, 646, 1942]
        pentagon = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        assert chiswell_spheres((2,) * 5, pentagon, 6) == [1, 5, 15, 40, 105, 275, 720]
        assert chiswell_spheres((0, 0), {(0, 1)}, 4) == [1, 4, 8, 12, 16]  # Z^2
        assert chiswell_spheres((2, 3), set(), 5) == [1, 3, 4, 6, 8, 12]  # C2 * C3

    @pytest.mark.parametrize("name", [
        "zd:1", "zd:2", "zd:3", "zd:4", "free:1", "free:2", "free:3", "dinf", "freeprod:2,3",
        "freeprod:3,3", "freeprod:5,7", "freeprod:2,3,4", "freeprod:4,5,6", "freeprod:2,2,2",
        "gp:0,0,0/ac,bc", "gp:2,2,2,2,2/ab,bc,cd,de,ae", "gp:0,2,3,0/ab,bd,cd",
    ])
    def test_acceptor_spheres_follow_the_formula(self, name):
        model = group_from_name(name)
        assert (level_counts(model.acceptor[0], 12)
                == chiswell_spheres(model.orders, joined_pairs(model), 12))

    @pytest.mark.parametrize("model", SEEDED_MODELS, ids=lambda m: m.name)
    def test_seeded_graph_products(self, model):
        # the acceptor's spheres are Chiswell's, and every ball of at most 1k
        # vertices, and the largest of at most 3k, has the tree, rows and
        # elements of the reference's own group law
        assert (level_counts(model.acceptor[0], 12)
                == chiswell_spheres(model.orders, joined_pairs(model), 12))
        group = ReferenceGraphProduct(model.orders, joined_pairs(model))
        for radius in differential_radii(model, dense=12, every=1_000, most=3_000):
            got, ref = cayley_ball(model, radius), reference_ball(group, radius)
            for name in BALL_FIELDS:
                assert list(getattr(got, name)) == getattr(ref, name), (radius, name)
            for v in range(got.n_vertices):
                assert list(got.neighbors(v)) == ref.adjacency[v], (radius, v)

    @pytest.mark.parametrize("model", ALL_MODELS + GP_MODELS + [
        group_from_name(name) for name in (
            "free:3", "zd:4", "freeprod:5,7", "freeprod:2,3,4", "freeprod:4,5,6",
            "freeprod:2,2,2", "gp:3,0,2/ab", "gp:0,2,3,0/ab,bd,cd")] + SEEDED_MODELS,
        ids=lambda m: m.name)
    def test_rows_equal_the_masked_rows_of_the_next_ball(self, model):
        # B(R) is a prefix of B(R + 1), so masking B(R + 1)'s rows of B(R)'s
        # vertices to B(R)'s ids gives B(R)'s rows: those of the interior and
        # then all of them, masked on the outer sphere
        def masked(rows, n, size):  # rows 0..n-1, entries below size
            offsets, columns = (np.frombuffer(a, np.intc) for a in rows)
            columns = columns[:offsets[n]]
            keep = (columns >= 0) & (columns < size)
            row = np.repeat(np.arange(n), np.diff(offsets[:n + 1]))
            lengths = np.bincount(row[keep], minlength=n)
            return (np.concatenate(([0], np.cumsum(lengths))).astype(np.intc).tobytes(),
                    columns[keep].tobytes())

        for radius in range(9):
            if sum(level_counts(model.acceptor[0], radius + 1)) > 40_000:
                break
            b, bigger = cayley_ball(model, radius), cayley_ball(model, radius + 1)
            full, (offsets, columns) = bigger._rows(), b._rows()
            for n in (b.level_starts[radius], b.n_vertices):
                got = offsets[:n + 1].tobytes(), columns[:offsets[n]].tobytes()
                assert got == masked(full, n, b.n_vertices), (radius, n)
        assert radius >= 3

    def test_joins_read_off_the_model_not_its_name(self):
        # Z^2 under a name that names no join: the reference joins its two
        # factors all the same, so both balls are Z^2's
        model = GraphProduct((0, 0), [(0, 1)], name="x")
        assert joined_pairs(model) == {(0, 1)}
        group = ReferenceGraphProduct(model.orders, joined_pairs(model))
        for radius in range(6):
            got, ref = cayley_ball(model, radius), reference_ball(group, radius)
            for name in BALL_FIELDS:
                assert list(getattr(got, name)) == getattr(ref, name), (radius, name)
            assert [list(got.neighbors(v)) for v in range(got.n_vertices)] == ref.adjacency
        assert got.sphere_sizes() == [1, 4, 8, 12, 16, 20]

    def test_every_mode_runs(self, tmp_path, capsys):
        out = tmp_path / "gp.tree"
        runs = [
            (["gp:0,0,0/ac,bc", "--mode", "growth", "--R", "8"], "result.ball_size = 26225"),
            (["gp:2,2,2,2,2/ab,bc,cd,de,ae", "--mode", "surround", "--R", "9", "--lambda", "4",
              "--k", "1"], "result.verdict = contained"),
            (["gp:0,0,0/ac,bc", "--mode", "polyprobe", "--R", "6", "--k", "1", "--c", "2",
              "--d", "2"], "5,110,1942\n"),  # |S(6)| = 1942 against 110 in five rounds
            (["gp:2,2,2,2,2/ab,bc,cd,de,ae", "--mode", "tree", "--R", "4", "--out", str(out)],
             "result.level_counts = 1 5 15 40 105"),
        ]
        for argv, line in runs:
            assert cli_main(["cayley", *argv]) == 0, argv
            assert line in capsys.readouterr().out, argv
        tree = lex_min_tree(GP_MODELS[1], 4)
        assert out.read_bytes() == tree_export_text(tree).encode()


def _ids(state, status) -> set[int]:
    return {v for v, s in enumerate(state.statuses) if s == status}


class TestSubgraphTransfer:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_tree_burns_inside_the_ball(self, model):
        # seeded random protect sets, legal on the ball, played on the ball and
        # on the acceptor's truncation (the ball's lex-min spanning tree): after
        # every round both have the same protected set and the tree's burning
        # set is a subset of the ball's, as polynomial_probe's docstring argues
        rng = random.Random(71)
        smaller = 0
        for _ in range(20):
            radius = rng.randint(2, 5)
            b, t = cayley_ball(model, radius), expand(model.acceptor[0], radius)
            fire = rng.randrange(radius)
            on_ball = state_from_fire(b, ball_ids(b, fire))
            on_tree = state_from_fire(t, ball_ids(t, fire))
            level = vertex_levels(b)
            for round_no in range(1, radius + 3):
                near = bisect.bisect_right(level, fire + round_no + 1)
                legal = [v for v in range(near) if on_ball.statuses[v] != BURNING]
                protect = rng.sample(legal, min(len(legal), rng.randint(0, 4)))
                on_ball = step(on_ball, protect, len(protect))
                on_tree = step(on_tree, protect, len(protect))
                assert _ids(on_tree, BURNING) <= _ids(on_ball, BURNING), (radius, fire, round_no)
                assert _ids(on_tree, PROTECTED) == _ids(on_ball, PROTECTED)
                smaller += _ids(on_tree, BURNING) < _ids(on_ball, BURNING)
        # Z^2 and Z^3 have squares that the fire goes round; every cycle of
        # the other balls is a triangle x, xg, xg^-1 whose far corners are
        # tree children of x, so the fire reaches them alike on both graphs
        assert bool(smaller) == (model.name in ("zd:2", "zd:3")), smaller
