"""Group models, balls, lex-min spanning trees, growth, surround, probes.

Claims covered:
    - normal forms: generator then inverse is the identity map; products
      associate with word evaluation
    - ball layers match the closed-form sphere sizes (Z, Z^2, free rank 2,
      infinite dihedral, C2*C3)
    - breadth-first lex-min words equal the minimum over exhaustively
      enumerated geodesic words, and each layer is in increasing word order
    - every ``# vertex v = w`` line of a tree export spells vertex v's word
      in generator letters, on every model
    - adjacency rows list the in-ball products v*g in generator order
    - the lex-min tree is spanning, geodesic, uses only Cayley edges, and
      equals the ball on free groups
    - construction is canonical (vertex order independent of exploration
      accidents)
    - growth estimates expose both the ball-root and sphere-ratio readings
    - wait-and-surround triggers by the budget-vs-sphere rule, simulates to
      containment, and reports cap exhaustion with a trace
    - polynomial probes are infeasible on exponential-growth trees and the
      budget-vs-sphere table matches the cumulative sums
    - the word acceptors have the stated state counts and unfold to the
      balls of the breadth-first reference (tests/cayley_reference.py):
      every field and every adjacency row equal at every radius up to 24
      whose ball has at most 5k vertices and at the largest radius (at
      most 200) whose ball has at most 50k, and their level counts are
      the sphere sizes
    - probes on the acceptor decide as the materialised lex-min tree does
    - a surround without trigger is decided with no ball, and a triggered
      one builds the ball only out to the protected sphere and its model's
      word acceptor once
"""

import random
from fractions import Fraction

import pytest

import firebreak.cayley as cayley_mod
from firebreak import (
    BudgetSequence,
    FreeAbelian,
    FreeGroup,
    FreeProductCyclic,
    SpecError,
    SurroundCapError,
    cayley_ball,
    expand,
    feasibility_check,
    group_from_name,
    growth_rate_estimate,
    infinite_dihedral,
    level_counts,
    lex_min_tree,
    polynomial_probe,
    wait_and_surround,
)
from firebreak.cli import main as cli_main
from cayley_reference import reference_ball
from conftest import ball_elements, ball_words, enumerate_geodesic_words

ALL_MODELS = [
    FreeGroup(1),
    FreeGroup(2),
    FreeAbelian(1),
    FreeAbelian(2),
    FreeAbelian(3),
    infinite_dihedral(),
    FreeProductCyclic((2, 3)),
    FreeProductCyclic((3, 3)),
]


class TestGroupModels:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_generator_inverse_cancels(self, model):
        rng = random.Random(5)
        elems = [model.identity]
        for _ in range(30):
            e = elems[rng.randrange(len(elems))]
            g = rng.randrange(len(model.generators))
            elems.append(model.multiply(e, g))
        for e in elems:
            for g in range(len(model.generators)):
                inv = model.inverse_index(g)
                assert model.multiply(model.multiply(e, g), inv) == e

    def test_names(self):
        assert group_from_name("free:2").generators == ("a", "A", "b", "B")
        assert group_from_name("zd:2").generators == ("a", "A", "b", "B")
        assert group_from_name("dinf").generators == ("a", "b")
        assert group_from_name("freeprod:2,3").generators == ("a", "b", "B")

    def test_bad_names_rejected(self):
        for name in ("free:x", "zd:", "so3", "freeprod:1,2", "freeprod:4"):
            with pytest.raises(SpecError):
                group_from_name(name)


class TestBalls:
    def test_z_spheres(self):
        b = cayley_ball(FreeAbelian(1), 3)
        assert b.sphere_sizes() == [1, 2, 2, 2]
        assert b.n_vertices == 7

    def test_z2_spheres(self):
        b = cayley_ball(FreeAbelian(2), 3)
        assert b.sphere_sizes() == [1, 4, 8, 12]
        assert b.n_vertices == 25  # 2R^2 + 2R + 1

    def test_free2_spheres(self):
        b = cayley_ball(FreeGroup(2), 3)
        assert b.sphere_sizes() == [1, 4, 12, 36]
        assert b.n_vertices == 53

    def test_dinf_linear(self):
        b = cayley_ball(infinite_dihedral(), 8)
        assert b.sphere_sizes() == [1] + [2] * 8

    def test_c2_c3_spheres(self):
        # syllable count recurrence: ends-in-a and ends-in-b counts give
        # 3, 4, 6, 8, 12 for radii 1..5
        b = cayley_ball(FreeProductCyclic((2, 3)), 5)
        assert b.sphere_sizes() == [1, 3, 4, 6, 8, 12]

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_adjacency_rows_follow_generator_order(self, model):
        b = cayley_ball(model, 4)
        elements, index = ball_elements(b)
        for v in range(b.n_vertices):
            products = (model.multiply(elements[v], g) for g in range(len(model.generators)))
            assert list(b.neighbors(v)) == [index[w] for w in products if w in index]

    def test_adjacency_is_symmetric(self):
        b = cayley_ball(FreeAbelian(2), 4)
        for v in range(b.n_vertices):
            for w in b.neighbors(v):
                assert v in b.neighbors(w)

    def test_distances_via_neighbors(self):
        b = cayley_ball(FreeGroup(2), 4)
        for v in range(1, b.n_vertices):
            assert min(b.level[w] for w in b.neighbors(v)) == b.level[v] - 1

    def test_cap(self, monkeypatch):
        from firebreak import ResourceLimitError
        # fires once a completed layer passes the cap: |B(5)| = 485, |B(6)| = 1457
        monkeypatch.setattr(cayley_mod, "DEFAULT_BALL_CAP", 1000)
        with pytest.raises(ResourceLimitError,
                           match="ball of radius 6 has 1457 elements, the ball cap is 1000"):
            cayley_ball(FreeGroup(2), 8)


class TestLexMinWords:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_words_evaluate_to_their_element(self, model):
        b = cayley_ball(model, 4)
        elements, _index = ball_elements(b)
        words = ball_words(b)
        for v in range(b.n_vertices):
            e = model.identity
            for g in words[v]:
                e = model.multiply(e, g)
            assert e == elements[v]
            assert len(words[v]) == b.level[v]

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

    def test_z_gen_before_inverse(self):
        b = cayley_ball(FreeAbelian(1), 2)
        _elements, index = ball_elements(b)
        assert b.word_str(index[(2,)]) == "aa"
        assert b.word_str(index[(-2,)]) == "AA"


class TestLexMinTree:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_spanning_geodesic_cayley_edges(self, model):
        tree = lex_min_tree(model, 5)
        b = tree.ball
        trunc = expand(tree.spec, 5)
        assert trunc.n_vertices == b.n_vertices
        # tree levels equal Cayley distances
        assert trunc.level == b.level
        # every tree edge is a ball edge
        for v in range(1, b.n_vertices):
            assert b.tree_parent[v] in b.neighbors(v)

    def test_z_two_rays(self):
        tree = lex_min_tree(FreeAbelian(1), 4)
        trunc = expand(tree.spec, 4)
        assert all(len(trunc.children[v]) <= 2 for v in range(trunc.n_vertices))
        assert len(trunc.children[0]) == 2

    def test_z2_level_counts_are_sphere_sizes(self):
        tree = lex_min_tree(FreeAbelian(2), 4)
        assert tree.level_counts() == [1, 4, 8, 12, 16]

    def test_free_tree_equals_ball(self):
        tree = lex_min_tree(FreeGroup(2), 4)
        b = tree.ball
        ball_edges = sum(len(b.neighbors(v)) for v in range(b.n_vertices)) // 2
        assert ball_edges == b.n_vertices - 1

    def test_parent_word_is_prefix(self):
        tree = lex_min_tree(FreeProductCyclic((2, 3)), 5)
        b = tree.ball
        words = ball_words(b)
        for v in range(1, b.n_vertices):
            assert words[b.tree_parent[v]] == words[v][:-1]


class TestGrowth:
    def test_free2_ratio_exact(self):
        est = growth_rate_estimate(FreeGroup(2), 10)
        assert est.sphere_ratio == 3.0
        assert all(r == 3.0 for r in est.sphere_ratio_sequence[1:])

    def test_z2_ball_root_trends_down(self):
        est = growth_rate_estimate(FreeAbelian(2), 10)
        assert est.ball_sizes[-1] == 221
        assert est.ball_root == pytest.approx(221 ** 0.1)
        seq = est.ball_root_sequence
        assert all(seq[i + 1] <= seq[i] for i in range(2, len(seq) - 1))

    def test_dinf_ratio_one(self):
        est = growth_rate_estimate(infinite_dihedral(), 10)
        assert est.sphere_ratio == 1.0

    def test_radius_too_small(self):
        with pytest.raises(SpecError):
            growth_rate_estimate(FreeAbelian(1), 1)


class TestWaitAndSurround:
    def test_z_triggers_at_two(self):
        res = wait_and_surround(FreeAbelian(1), 1, Fraction(3, 2), 6)
        assert res.trigger_round == 2
        assert res.sphere_index == 4 and len(res.sphere) == 2
        assert res.verdict.contained and res.verdict.round_no == 3

    def test_z2_triggers_at_ten(self):
        res = wait_and_surround(FreeAbelian(2), 1, Fraction(3, 2), 12)
        # least n with floor(1.5**n) >= 4(n+2)
        assert res.trigger_round == 10
        assert len(res.sphere) == 48
        assert res.verdict.contained
        # one guard band: fire stops exactly at the sphere below
        assert res.verdict.burnt == 2 * 11 * 11 + 2 * 11 + 1

    def test_trigger_rule_is_least_round(self):
        res = wait_and_surround(FreeAbelian(2), 1, Fraction(3, 2), 12)
        budget = BudgetSequence.exponential(Fraction(3, 2))
        for n, f_n, size in res.budget_trace[:-1]:
            assert f_n < size
        n, f_n, size = res.budget_trace[-1]
        assert n == res.trigger_round and f_n >= size
        assert budget(res.trigger_round) >= len(res.sphere)

    def test_free2_rate_below_growth_exhausts(self):
        with pytest.raises(SurroundCapError) as err:
            wait_and_surround(FreeGroup(2), 1, Fraction(5, 2), 8)
        assert err.value.trace
        for _n, f_n, size in err.value.trace:
            assert f_n < size

    def test_no_trigger_builds_no_ball(self, monkeypatch):
        def no_ball(*_args, **_kw):
            raise AssertionError("a ball was built")

        monkeypatch.setattr(cayley_mod, "ball", no_ball)
        with pytest.raises(SurroundCapError) as err:
            wait_and_surround(FreeGroup(2), 1, Fraction(5, 2), 8)
        assert [size for _n, _f, size in err.value.trace] == [36, 108, 324, 972, 2916, 8748]

    def test_ball_ends_at_the_protected_sphere(self):
        res = wait_and_surround(FreeAbelian(2), 1, Fraction(3, 2), 12)
        assert res.ball.radius == res.sphere_index == 12
        res = wait_and_surround(FreeAbelian(1), 1, Fraction(3, 2), 30)
        assert res.ball.radius == res.sphere_index == 4
        assert res.verdict.contained and res.verdict.burnt == 7

    def test_acceptor_built_once_per_model(self, monkeypatch):
        # a triggered surround reads the acceptor for its trigger, its ball
        # and its adjacency: the model builds and compiles it once
        model = FreeGroup(2)
        built = []
        acceptor = model.word_acceptor
        monkeypatch.setattr(model, "word_acceptor", lambda: built.append(1) or acceptor())
        res = wait_and_surround(model, 1, 5, 8)  # triggers in round 5
        assert res.verdict.contained and len(built) == 1
        assert cayley_mod.compile(model.acceptor[0]) is model.acceptor[1]

    def test_no_fault_on_trigger_round(self):
        # the protected sphere is two steps ahead of the fire at play time
        res = wait_and_surround(FreeAbelian(1), 0, 2, 8)
        played = res.verdict.trace[res.trigger_round - 1]
        assert played.protected == res.sphere


class TestPolynomialProbe:
    def test_free2_quadratic_infeasible(self):
        rep = polynomial_probe(FreeGroup(2), 1, 2, 2, 8)
        assert not rep.feasibility.feasible
        budget = BudgetSequence.polynomial(1, 2)
        spheres = rep.budget_vs_sphere
        for n, cum, sphere in spheres:
            assert cum == budget.cumulative(n)
            assert sphere == 4 * 3 ** n
            assert cum < sphere
        assert "evidence" in rep.note

    def test_z2_affine_budget_feasible(self):
        tree = lex_min_tree(FreeAbelian(2), 6)
        budget = BudgetSequence.explicit([4 * n + 8 for n in range(1, 7)])
        result = feasibility_check(tree.spec, 1, budget, 6)
        assert result.feasible

    def test_z_constant_budget_feasible(self):
        rep = polynomial_probe(FreeGroup(1), 1, 0, 5, 8)
        assert rep.feasibility.feasible


class TestGrowthConsistency:
    def test_free_tree_periodic_readoff_brackets_growth(self):
        # the rank-r free tree is the periodic tree "root spawns 2r copies
        # of a state that spawns 2r-1 of itself"; its branching bracket
        # must contain 2r-1
        from firebreak import PeriodicSpec, br_bracket
        for rank in (1, 2, 3):
            spec = PeriodicSpec(
                states={"R": ("A",) * (2 * rank), "A": ("A",) * (2 * rank - 1)},
                root="R",
            )
            tree = lex_min_tree(FreeGroup(rank), 6)
            assert tree.level_counts() == [
                1 if n == 0 else 2 * rank * (2 * rank - 1) ** (n - 1)
                for n in range(7)
            ]
            bracket = br_bracket(spec, tol=0.01)
            assert bracket.lo <= 2 * rank - 1 <= bracket.hi

    def test_sphere_sizes_nondecreasing_in_generators(self):
        for small, large in [(FreeGroup(1), FreeGroup(2)),
                             (FreeAbelian(1), FreeAbelian(2)),
                             (FreeAbelian(2), FreeAbelian(3))]:
            a = cayley_ball(small, 6).sphere_sizes()
            b = cayley_ball(large, 6).sphere_sizes()
            assert all(x <= y for x, y in zip(a, b))


class TestDeterminism:
    def test_ball_reconstruction_identical(self):
        a = cayley_ball(FreeProductCyclic((2, 3)), 5)
        b = cayley_ball(FreeProductCyclic((2, 3)), 5)
        assert ball_elements(a) == ball_elements(b)
        assert ball_words(a) == ball_words(b)
        for v in range(a.n_vertices):
            assert list(a.neighbors(v)) == list(b.neighbors(v))

    def test_layers_sorted_by_word(self):
        for model in ALL_MODELS:
            b = cayley_ball(model, 4)
            every = ball_words(b)
            for layer in b.layers:
                words = [every[v] for v in layer]
                assert all(x < y for x, y in zip(words, words[1:])), model.name


# the built-in models plus free products with an order-4 factor and two
# factors whose runs reach two and three letters
DIFFERENTIAL_MODELS = ALL_MODELS + [FreeProductCyclic((2, 3, 4)), FreeProductCyclic((5, 7))]
BALL_FIELDS = ("level", "tree_parent", "tree_generator")  # arrays; each layer is a range


def differential_radii(model, dense: int = 24, every: int = 5_000, most: int = 50_000,
                       longest: int = 200) -> list[int]:
    """Every radius up to ``dense`` while the ball has at most ``every``
    vertices, and the largest radius whose ball has at most ``most``, but
    none past ``longest``: the words of a ball hold about |B| * R letters."""
    spheres = level_counts(model.word_acceptor(), longest)
    sizes = [sum(spheres[:r + 1]) for r in range(longest + 1)]
    last = max(r for r, n in enumerate(sizes) if n <= most)
    return [r for r in range(min(last, dense + 1)) if sizes[r] <= every] + [last]


class TestWordAcceptors:
    @pytest.mark.parametrize("name, n_states", [
        ("free:1", 3), ("free:2", 5), ("free:3", 7), ("zd:1", 3), ("zd:2", 5), ("zd:3", 7),
        ("dinf", 3), ("freeprod:2,3", 4), ("freeprod:3,3", 5), ("freeprod:5,7", 11),
    ])
    def test_state_counts(self, name, n_states):
        assert len(group_from_name(name).word_acceptor().states) == n_states

    def test_free_product_runs(self):
        # order 4: a, aa (a tie goes to a) and A; order 5: two of either
        states = FreeProductCyclic((4, 5)).word_acceptor().states
        assert states["a1"] == ("a2", "b1", "B1")
        assert states["a2"] == states["A1"] == ("b1", "B1")
        assert states["b1"] == ("a1", "A1", "b2")
        assert states["B1"] == ("a1", "A1", "B2")
        assert states["B2"] == ("a1", "A1")

    @pytest.mark.parametrize("model", DIFFERENTIAL_MODELS, ids=lambda m: m.name)
    def test_ball_equals_breadth_first_reference(self, model):
        acceptor = model.word_acceptor()
        for radius in differential_radii(model):
            got, ref = cayley_ball(model, radius), reference_ball(model, radius)
            for name in BALL_FIELDS:
                assert list(getattr(got, name)) == getattr(ref, name), (radius, name)
            assert [list(layer) for layer in got.layers] == ref.layers, (radius, "layers")
            assert ball_elements(got) == (ref.elements, ref._index), radius
            for v in range(got.n_vertices):
                assert list(got.neighbors(v)) == ref.adjacency[v], (radius, v)
            assert level_counts(acceptor, radius) == got.sphere_sizes()

    @pytest.mark.parametrize("model", DIFFERENTIAL_MODELS, ids=lambda m: m.name)
    def test_unfolding_numbers_vertices_as_the_ball(self, model):
        trunc = expand(model.word_acceptor(), 6)
        assert trunc.parent == cayley_ball(model, 6).tree_parent

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
            assert rep.feasibility == feasibility_check(tree.spec, radius, budget, depth)
            assert [s for _n, _c, s in rep.budget_vs_sphere] == tree.level_counts()[2:]
            seen.add(rep.feasibility.feasible)
        assert seen == {True, False}
