"""Cut weights, min-cuts, flows, branching numbers, certificates.

Claims covered:
    - cut weights match hand arithmetic; invalid cutsets rejected, an edge
      set with ids out of range naming the least of them
    - the min-cut recursion matches the hand recursion and, on every small
      tree, the exhaustive cutset enumeration (exact rational equality), and
      so do the weight of min_cutset and the value of max_flow
    - bracket probes are exact: the rows match the float classifier's
      wherever it classified, and fine brackets hold br by exact identities
    - flows satisfy capacity and conservation and attain the min cut,
      exactly at every rate
    - every rate is read as the exact rational it is, a float included;
      nan, infinities and non-numbers are SpecErrors
    - min-cut weights are non-increasing in the depth
    - the Perron root matches numpy's eigenvalues (independent oracle) and
      the known closed forms (2, 3, golden ratio, sqrt 2)
    - brackets contain the exact values; finite specs are rejected
    - each component's proposal (its Perron vector from Noda's inverse
      iteration, rounded to integers) has exact Collatz-Wielandt bounds that
      hold br_C, and a float root that matches numpy's eigenvalues and the
      cycles' closed forms with no LAPACK call; a rate outside the bounds
      is decided with no elimination, and the sparse elimination inside
      them, forced or not, agrees with dense Bareiss elimination
      (tests/trees_reference.py) on random, reducible and Jordan specs and
      a 200-state cycle, and the exact signs on a 1,000-state cycle; the
      iteration's bound exits 2 naming PERRON_ITERATIONS_MAX
    - certificates re-validate independently and their budgets cross-check;
      a rate within the proposal's resolution of br is refused, naming
      PROPOSAL_SCALE
    - results are invariant under reordering children in the spec, and
      certificates under renumbering the automaton's states
"""

import json
import math
import random
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from firebreak import (
    BudgetSequence,
    Cutset,
    PeriodicSpec,
    SpecError,
    SymmetricSpec,
    br_bracket,
    br_exact_periodic,
    check_certificate,
    cut_weight,
    expand,
    lower_bound_certificate,
    max_flow,
    min_cut_weight,
    min_cutset,
)
from firebreak.branching import (CERTIFICATE_RADIUS_MAX, PROPOSAL_SCALE, _compare_component,
                                  _components, _proposals, br_enclosure, compare_to_br,
                                  cut_recursion, exact_rate)
from firebreak.game import cut_weight_target, synthesize_cutset_strategy
from firebreak.errors import ResourceLimitError
from firebreak.cayley import group_from_name
from firebreak.trees import Automaton, level_counts
import trees_reference
from conftest import (
    binary_spec,
    boundary_ids,
    child_ids,
    enumerate_cutsets,
    fibonacci_spec,
    is_antichain,
    ray_spec,
    sqrt2_spec,
    random_explicit_tree,
    random_periodic_spec,
    random_symmetric_spec,
    random_truncation,
    replaced,
    ternary_spec,
    vertex_levels,
)

GOLDEN = (1 + math.sqrt(5)) / 2
DATA = Path(__file__).parent / "data"
# Perron root 2 as a 2x2 Jordan block: two components of root 2 in a chain
REDUCIBLE = PeriodicSpec(states={"A": ("A", "B", "A"), "B": ("B", "B")}, root="A")
SYMMETRIC = SymmetricSpec(preperiod=(3, 2), period=(1, 2))  # br = sqrt 2


def reverse_numbered(auto: Automaton) -> Automaton:
    """The same automaton with state s renumbered n - 1 - s."""
    n = len(auto.children)
    return Automaton(tuple(tuple(n - 1 - t for t in auto.children[n - 1 - s]) for s in range(n)),
                     n - 1 - auto.root)


class TestCutWeight:
    def test_binary_level1(self):
        t = expand(binary_spec(), 3)
        pi = Cutset(edges=frozenset({1, 2}))
        assert cut_weight(t, pi, Fraction(2)) == 1

    def test_binary_level3(self):
        t = expand(binary_spec(), 3)
        pi = Cutset(edges=frozenset(v for v, lv in enumerate(vertex_levels(t)) if lv == 3))
        assert cut_weight(t, pi, Fraction(3)) == Fraction(8, 27)

    def test_fibonacci_level1_rate1(self):
        t = expand(fibonacci_spec(), 3)
        pi = Cutset(edges=frozenset({1, 2}))
        assert cut_weight(t, pi, Fraction(1)) == 2

    def test_invalid_cutset_rejected(self):
        t = expand(binary_spec(), 3)
        with pytest.raises(SpecError):
            cut_weight(t, Cutset(edges=frozenset({1})), Fraction(2))

    def test_least_bad_id_is_named(self):
        # the first out-of-range id in sorted order, as mark names one, whatever
        # order the ids came in and however a set of them would iterate
        t = expand(binary_spec(), 3)
        for ids in ([-3, 5, 100], [100, 5, -3], {100, -3, 5}, [5, 100, 15]):
            bad = min(v for v in ids if not 1 <= v < t.n_vertices)
            with pytest.raises(SpecError, match=f"^edge id {bad} out of range$"):
                cut_weight(t, Cutset(ids), 2)

    def test_weight_follows_the_truncation_not_its_id(self, monkeypatch):
        # every truncation gets the same id(): a weight keyed on identity
        # would answer the second question with the first answer
        import firebreak.branching
        monkeypatch.setattr(firebreak.branching, "id", lambda _o: 0, raising=False)
        pi = Cutset({1, 2})
        assert cut_weight(expand(binary_spec(), 1), pi, 2) == 1
        path = expand(SymmetricSpec((), (1,)), 2)
        assert cut_weight(path, pi, 2) == Fraction(3, 4)

    def test_non_positive_rate_rejected(self):
        t = expand(binary_spec(), 2)
        with pytest.raises(SpecError):
            cut_weight(t, Cutset(edges=frozenset({1, 2})), Fraction(0))

    def test_antichain_detection(self):
        t = expand(binary_spec(), 3)
        assert is_antichain(Cutset(edges=frozenset({1, 2})), t)
        assert not is_antichain(Cutset(edges=frozenset({1, 3})), t)


class TestMinCut:
    def test_binary_hand_recursion(self):
        # leaf 1/64 -> level-2 min(1/16, 1/32) -> level-1 min(1/4, 1/16)
        # -> root doubles it
        t = expand(binary_spec(), 3)
        assert min_cut_weight(t, Fraction(4)) == Fraction(1, 8)

    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_binary_rate1_cuts_at_top(self, depth):
        t = expand(binary_spec(), depth)
        assert min_cut_weight(t, Fraction(1)) == 2

    @pytest.mark.parametrize("depth", [1, 3, 5])
    def test_ray(self, depth):
        t = expand(ray_spec(), depth)
        assert min_cut_weight(t, Fraction(2)) == Fraction(1, 2 ** depth)

    def test_monotone_in_depth(self):
        # non-increasing always; strictly decreasing above the branching
        # number (5/2 exceeds both 2 and the golden ratio)
        for spec in (binary_spec(), fibonacci_spec()):
            prev = None
            for depth in range(1, 8):
                w = min_cut_weight(expand(spec, depth), Fraction(5, 2))
                if prev is not None:
                    assert w < prev
                prev = w
        prev = None
        for depth in range(1, 8):  # below br: non-increasing, not vanishing
            w = min_cut_weight(expand(binary_spec(), depth), Fraction(3, 2))
            if prev is not None:
                assert w <= prev
            prev = w
        assert prev > Fraction(1, 2)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = random.Random(1000 + seed)
        t = random_truncation(rng, max_depth=4, size_limit=17)
        rate = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)])
        cuts = list(enumerate_cutsets(t, max_edges=17))
        best = min(
            (cut_weight(t, Cutset(edges=c), rate) for c in cuts if c),
            default=Fraction(0),
        )
        if any(not c for c in cuts):
            best = Fraction(0)
        assert min_cut_weight(t, rate) == best
        assert cut_weight(t, min_cutset(t, rate), rate) == best
        assert max_flow(t, rate).value == best

    @pytest.mark.parametrize("seed", range(8))
    def test_cut_recursion_matches_the_references(self, seed):
        # W(d) read without a truncation equals the materialised min cut
        # and max flow, as the same Fraction, at a float rate too
        rng = random.Random(3000 + seed)
        spec = random_periodic_spec(rng, allow_dead=seed % 2 == 1)
        for rate in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 2), 1.75):
            _, steps = cut_recursion(spec, rate)
            for depth, (_, den, w) in zip(range(1, 7), islice(steps, 1, None)):
                weight = Fraction(w, den)
                trunc = expand(spec, depth)
                reference = min_cut_weight(trunc, rate)
                assert weight == reference and type(weight) is type(reference)
                assert weight == max_flow(trunc, rate).value

    @pytest.mark.parametrize("rate", [0, -1, Fraction(-1, 2), -0.5])
    def test_cut_recursion_rejects_non_positive_rate(self, rate):
        with pytest.raises(SpecError, match="rate must be positive"):
            cut_recursion(binary_spec(), rate)

    def test_min_cutset_attains_minimum(self):
        for spec, rate in [(binary_spec(), Fraction(4)), (fibonacci_spec(), Fraction(2))]:
            t = expand(spec, 5)
            cut = min_cutset(t, rate)
            assert cut.separates(t)
            assert is_antichain(cut, t)
            assert cut_weight(t, cut, rate) == min_cut_weight(t, rate)

    def test_tie_prefers_shallow_cut(self):
        # at rate 2 the binary tree's level weights all equal 1, so every
        # level is optimal; the tie rule picks the shallowest
        t = expand(binary_spec(), 4)
        cut = min_cutset(t, Fraction(2))
        assert sorted(vertex_levels(t)[v] for v in cut.ids.tolist()) == [1, 1]


class TestIntegerRecursion:
    """The recursion on integer numerators over p**n against the Fraction
    one that it replaced (tests/trees_reference.py).  A float rate gives
    exactly the Fractions that Fraction(rate) gives."""

    RATES = [Fraction(1, 2), Fraction(3, 4), Fraction(2), Fraction(3), Fraction(7, 3),
             Fraction(200001, 100000), 0.625, 1.75, 2.5]

    @staticmethod
    def specs(seed):
        rng = random.Random(4100 + seed)
        return [random_periodic_spec(rng, allow_dead=True),
                random_periodic_spec(rng, allow_dead=True),
                random_symmetric_spec(rng),
                random_explicit_tree(rng, max_vertices=20),
                REDUCIBLE]

    @pytest.mark.parametrize("seed", range(6))
    def test_steps_match_the_reference(self, seed):
        # y_n = N_n / D_n and W(n) = w_n / D_n equal the reference's y_n and
        # W(n) at Fraction(rate) exactly, and the rate read is Fraction(rate)
        for spec in self.specs(seed):
            root = spec.root
            for rate in self.RATES:
                rate_x, steps = cut_recursion(spec, rate)
                assert rate_x == Fraction(rate) and type(rate_x) is Fraction
                # the reference yields (y_n, W(n + 1)); W(0) is y_0 at the root
                _, ref = trees_reference.cut_recursion(spec, Fraction(rate))
                ys, weights = zip(*islice(ref, 9))
                weights = (ys[0][root],) + weights
                for n, (nums, den, w) in enumerate(islice(steps, 9)):
                    assert [Fraction(x, den) for x in nums] == list(ys[n])
                    assert Fraction(w, den) == weights[n]

    @pytest.mark.parametrize("seed", range(6))
    def test_cuts_and_weights_match_the_reference(self, seed):
        # min_cutset picks the reference's edges, and cut_weight and
        # min_cut_weight give the reference's Fraction at Fraction(rate)
        for spec in self.specs(seed):
            for depth in range(1, 7):
                if sum(level_counts(spec, depth)) > 3000:
                    break
                got, ref = expand(spec, depth), trees_reference.expand(spec, depth)
                for rate in self.RATES:
                    exact = Fraction(rate)
                    cut, ref_cut = min_cutset(got, rate), trees_reference.min_cutset(ref, exact)
                    assert cut.ids.tolist() == ref_cut.ids.tolist()
                    weight = trees_reference.cut_weight(ref, cut, exact)
                    assert weight == trees_reference.min_cut_weight(ref, exact)
                    for value in (cut_weight(got, cut, rate), min_cut_weight(got, rate)):
                        assert value == weight and type(value) is Fraction

    @pytest.mark.parametrize("rate", [Fraction(3, 2), Fraction(2), Fraction(3), Fraction(7, 3),
                                      Fraction(200001, 100000), Fraction(1999, 1000), 1.75, 2.5,
                                      3.0])
    @pytest.mark.parametrize("radius", [0, 1, 4])
    @pytest.mark.parametrize("probe_range", [120, 200])
    def test_cut_weight_target_matches_the_reference(self, rate, radius, probe_range):
        # the reference's Fraction at Fraction(rate), for a float rate too
        got = cut_weight_target(rate, radius, probe_range)
        want = trees_reference.cut_weight_target(Fraction(rate), radius, probe_range)
        assert got == want and type(got) is Fraction

    @pytest.mark.parametrize("seed", range(6))
    def test_certificate_y_matches_the_reference(self, seed):
        # the certificate's y and cut floor, stepped on integers over 2**96
        # from the Perron vector over its largest entry and rounded down, are
        # the reference's, and lie entrywise below the exact recursion's
        checked = 0
        for spec in self.specs(seed) + [binary_spec(), fibonacci_spec(), SYMMETRIC, REDUCIBLE,
                                        reverse_numbered(REDUCIBLE)]:
            for rate in (Fraction(1, 2), Fraction(5, 4), Fraction(3, 2), 1.25, Fraction(19, 10)):
                if spec.is_finite() or compare_to_br(spec, rate) >= 0:
                    continue
                try:
                    cert = lower_bound_certificate(spec, rate)
                except ResourceLimitError:
                    continue
                y, weight = trees_reference.certificate_y(spec, cert.mid_rate)
                assert cert.y == y
                assert cert.cut_weight_floor == Fraction(9, 10) * weight
                exact = trees_reference.exact_certificate_y(spec, cert.mid_rate)
                assert all(y_s <= x_s for y_s, x_s in zip(cert.y, exact))
                checked += 1
        assert checked >= 25

    def test_synthesis_runs_the_recursion_once(self, monkeypatch):
        # min_cutset reads the steps synthesis has already taken
        import firebreak.branching
        real, calls = firebreak.branching._state_recursion, []
        monkeypatch.setattr(firebreak.branching, "_state_recursion",
                            lambda *args: calls.append(args[1:3]) or real(*args))
        for spec, rate, k in [(fibonacci_spec(), Fraction(2), 1), (binary_spec(), 3, 1),
                              (ternary_spec(), Fraction(7, 2), 1)]:
            calls.clear()
            res = synthesize_cutset_strategy(spec, rate, k)
            assert calls == [Fraction(rate).as_integer_ratio()]
            # called alone, min_cutset runs the recursion itself, to the same cut
            assert res.cutset.ids.tolist() == min_cutset(res.trunc, rate).ids.tolist()
            assert len(calls) == 2


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda rate: min_cut_weight(expand(binary_spec(), 2), rate),
    lambda rate: BudgetSequence.exponential(rate),
    lambda rate: cut_weight_target(rate, 1),
    lambda rate: lower_bound_certificate(binary_spec(), rate),
    lambda rate: synthesize_cutset_strategy(binary_spec(), rate, 1),
], ids=["min_cut_weight", "exponential", "cut_weight_target", "certificate", "synthesize"])
def test_non_finite_rates_are_spec_errors(call, rate):
    with pytest.raises(SpecError, match="is not a rational number"):
        call(rate)


@pytest.mark.parametrize("rate", [True, None, [2], 1j])
def test_non_number_rates_are_spec_errors(rate):
    with pytest.raises(SpecError, match="rate must be a number"):
        exact_rate(rate)


def test_exact_rate_reads_the_rational():
    third = Fraction(1, 3)
    assert exact_rate(third) is third
    for rate, want in [(2, Fraction(2)), ("7/4", Fraction(7, 4)), (0.1, Fraction(0.1))]:
        got = exact_rate(rate)
        assert got == want and type(got) is Fraction
    assert exact_rate(0.1) != Fraction(1, 10)  # read exactly, not rounded


class TestMaxFlow:
    def test_binary_depth2_saturates(self):
        t = expand(binary_spec(), 2)
        flow = max_flow(t, Fraction(2))
        assert flow.value == 1
        for v, lv in enumerate(vertex_levels(t)[1:], 1):
            expected = Fraction(1, 2) if lv == 1 else Fraction(1, 4)
            assert flow.flows[v] == expected

    def test_ray_bottleneck(self):
        t = expand(ray_spec(), 5)
        flow = max_flow(t, Fraction(3))
        assert flow.value == Fraction(1, 243)
        assert all(f == Fraction(1, 243) for f in flow.flows.values())

    def test_fibonacci_duality_float(self):
        t = expand(fibonacci_spec(), 6)
        flow = max_flow(t, 1.2)
        assert flow.value == min_cut_weight(t, 1.2) == min_cut_weight(t, Fraction(1.2))
        assert type(flow.value) is Fraction

    @staticmethod
    def check_flow_valid(t, flow, rate):
        # exact at every rate: a float rate is read as Fraction(rate)
        assert flow.rate == Fraction(rate) and type(flow.rate) is Fraction
        boundary, level = set(boundary_ids(t)), vertex_levels(t)
        for v, f in flow.flows.items():
            assert f >= 0
            assert f <= flow.rate ** -level[v]
        for v in range(t.n_vertices):
            if v == 0 or v in boundary:
                continue
            inflow = flow.flows.get(v, 0)
            outflow = sum(flow.flows.get(w, 0) for w in child_ids(t, v))
            assert inflow == outflow
        root_out = sum(flow.flows.get(w, 0) for w in child_ids(t, 0))
        assert root_out == flow.value

    @pytest.mark.parametrize("seed", range(10))
    def test_random_flows_valid(self, seed):
        rng = random.Random(2000 + seed)
        t = random_truncation(rng, max_depth=8)
        for rate in (Fraction(1, 2), Fraction(2), 1.7, 2.718281828459045):
            flow = max_flow(t, rate)
            self.check_flow_valid(t, flow, rate)
            assert flow.value == min_cut_weight(t, rate)


class TestBranchingNumber:
    def test_closed_forms(self):
        assert br_exact_periodic(binary_spec()) == pytest.approx(2, abs=1e-8)
        assert br_exact_periodic(ternary_spec()) == pytest.approx(3, abs=1e-8)
        assert br_exact_periodic(fibonacci_spec()) == pytest.approx(GOLDEN, abs=1e-8)
        assert br_exact_periodic(sqrt2_spec()) == pytest.approx(math.sqrt(2), abs=1e-8)

    def test_matches_numpy_eigenvalues(self):
        for seed in range(8):
            rng = random.Random(3000 + seed)
            names = ["A", "B", "C"]
            states = {
                s: tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
                for s in names
            }
            spec = PeriodicSpec(states=states, root="A")
            assert br_exact_periodic(spec) == pytest.approx(spectral_radius(states), abs=1e-8)

    def test_reducible_reachable(self):
        spec = PeriodicSpec(states={"A": ("B",), "B": ("B", "B")}, root="A")
        assert br_exact_periodic(spec) == pytest.approx(2, abs=1e-8)

    def test_unreachable_states_ignored(self):
        spec = PeriodicSpec(states={"A": ("A",), "Z": ("Z", "Z", "Z")}, root="A")
        assert br_exact_periodic(spec) == pytest.approx(1, abs=1e-8)

    def test_finite_tree_reports_one_with_warning(self):
        spec = PeriodicSpec(states={"A": ("B", "B"), "B": ()}, root="A")
        with pytest.warns(UserWarning):
            assert br_exact_periodic(spec) == 1.0


def spectral_radius(states: dict[str, tuple[str, ...]], root: str = "A") -> float:
    """numpy's spectral radius of the count matrix of the states reachable
    from the root, read off the state dict a test built."""
    reach, stack = {root}, [root]
    while stack:
        for child in states[stack.pop()]:
            if child not in reach:
                reach.add(child)
                stack.append(child)
    idx = {s: i for i, s in enumerate(reach)}
    mat = np.zeros((len(reach), len(reach)))
    for s in reach:
        for child in states[s]:
            mat[idx[s], idx[child]] += 1
    return max(abs(np.linalg.eigvals(mat)))


def random_states(rng: random.Random) -> dict[str, tuple[str, ...]]:
    """1-5 states, root A, with 0-3 children each, reducible ones included."""
    names = "ABCDE"[:rng.randint(1, 5)]
    return {s: tuple(rng.choice(names) for _ in range(rng.randint(0, 3))) for s in names}


def random_automaton(rng: random.Random) -> Automaton:
    return PeriodicSpec(states=random_states(rng), root="A")


class TestCompareToBr:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_numpy_eigenvalues(self, seed):
        rng = random.Random(5000 + seed)
        states = random_states(rng)
        spec, rho = PeriodicSpec(states=states, root="A"), spectral_radius(states)
        rates = [Fraction(rng.randint(1, 400), 100) for _ in range(8)]
        rates += [Fraction(n) for n in range(1, 4)]
        for rate in rates:
            if abs(float(rate) - rho) < 1e-6:
                continue
            assert compare_to_br(spec, rate) == (1 if rate > rho else -1), (spec, rate, rho)

    def test_jordan_block_root_decided_exactly(self):
        assert compare_to_br(REDUCIBLE, Fraction(200001, 100000)) == 1
        assert compare_to_br(REDUCIBLE, Fraction(2)) == 0
        assert compare_to_br(REDUCIBLE, Fraction(199999, 100000)) == -1

    def test_binary_decided_near_two(self):
        tiny = Fraction(1, 10**12)
        assert compare_to_br(binary_spec(), 2 + tiny) == 1
        assert compare_to_br(binary_spec(), 2 - tiny) == -1
        assert compare_to_br(binary_spec(), 2) == 0

    def test_irrational_roots(self):
        assert compare_to_br(fibonacci_spec(), Fraction(1618033, 1000000)) == -1
        assert compare_to_br(fibonacci_spec(), Fraction(1618034, 1000000)) == 1
        assert compare_to_br(SYMMETRIC, Fraction(1414213, 1000000)) == -1
        assert compare_to_br(SYMMETRIC, Fraction(1414214, 1000000)) == 1

    def test_acyclic_automaton_has_root_zero(self):
        spec = PeriodicSpec(states={"A": ("B", "B"), "B": ()}, root="A")
        assert compare_to_br(spec, Fraction(1, 100)) == 1

    @pytest.mark.parametrize("spec", [binary_spec(), fibonacci_spec(), REDUCIBLE, SYMMETRIC],
                             ids=["binary", "fib", "reducible", "symmetric"])
    def test_enclosure_brackets_the_root(self, spec):
        br, lo, hi = br_enclosure(spec)
        assert lo < br < hi and (hi - lo) / br < 1e-6
        assert compare_to_br(spec, lo) == -1 and compare_to_br(spec, hi) == 1


class TestProposal:
    """The proposals and the exact comparison that reads them, against the
    dense Bareiss elimination (tests/trees_reference.py)."""

    @staticmethod
    def specs(seed):
        rng = random.Random(6100 + seed)
        return rng, [random_automaton(rng), random_automaton(rng),
                     random_periodic_spec(rng, allow_dead=True), random_symmetric_spec(rng),
                     random_explicit_tree(rng, max_vertices=20), REDUCIBLE]

    @staticmethod
    def reference(spec, rate):
        return min(trees_reference.compare_component(spec.children, comp, rate)
                   for comp in _components(spec.children, spec.root))

    @staticmethod
    def rates(rng, prop):
        """Random rates, the integers, the bounds and rationals next to them."""
        near = [Fraction(prop.root).limit_denominator(10 ** 6), prop.lo, prop.hi,
                prop.lo - Fraction(1, 10 ** 30), prop.hi + Fraction(1, 10 ** 30)]
        return [Fraction(rng.randint(0, 400), 100) for _ in range(6)] + \
            [Fraction(n) for n in range(5)] + near

    @pytest.mark.parametrize("seed", range(20))
    def test_vectors_and_bounds(self, seed):
        _, specs = self.specs(seed)
        for spec in specs:
            kids = spec.children
            for prop in _proposals(spec):
                inside = set(prop.comp)
                assert max(prop.v) == PROPOSAL_SCALE
                assert all((x >= 1) == (s in inside) for s, x in enumerate(prop.v))
                ratios = [Fraction(sum(prop.v[t] for t in kids[s]), prop.v[s]) for s in prop.comp]
                assert (prop.lo, prop.hi) == (min(ratios), max(ratios))
                # lo <= br_C <= hi, exactly, and the float root lies between
                assert trees_reference.compare_component(kids, prop.comp, prop.lo) <= 0
                assert trees_reference.compare_component(kids, prop.comp, prop.hi) >= 0
                assert float(prop.lo) - 1e-9 <= prop.root <= float(prop.hi) + 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_forced_elimination_matches_dense_bareiss(self, seed):
        # bounds that hold every rate send every comparison to elimination
        rng, specs = self.specs(seed)
        for spec in specs:
            kids = spec.children
            for prop in _proposals(spec):
                forced = prop._replace(lo=-1, hi=10 ** 6)
                for rate in self.rates(rng, prop):
                    assert _compare_component(kids, forced, rate) == \
                        trees_reference.compare_component(kids, prop.comp, rate), (spec, rate)

    @pytest.mark.parametrize("seed", range(20))
    def test_compare_to_br_matches_dense_bareiss(self, seed):
        rng, specs = self.specs(seed)
        for spec in specs:
            for prop in _proposals(spec):
                for rate in self.rates(rng, prop):
                    assert compare_to_br(spec, rate) == self.reference(spec, rate), (spec, rate)

    @pytest.mark.parametrize("spec,br", [
        (binary_spec(), 2), (ternary_spec(), 3), (ray_spec(), 1), (REDUCIBLE, 2),
        (SymmetricSpec(preperiod=(3,), period=(2, 2)), 2),
        (SymmetricSpec(preperiod=(), period=(1, 4)), 2),
    ], ids=["binary", "ternary", "ray", "jordan", "sym322", "sym14"])
    def test_integer_br_is_decided_by_elimination(self, spec, br):
        # lo <= br <= hi, so the bounds of a top component cannot decide
        # rate = br, and elimination must find the zero last pivot
        props = _proposals(spec)
        assert any(prop.lo <= br <= prop.hi and prop.root == pytest.approx(br) for prop in props)
        assert compare_to_br(spec, br) == 0 == self.reference(spec, Fraction(br))

    @pytest.mark.parametrize("spec,rates", [
        (fibonacci_spec(), (Fraction(3, 2), Fraction(17, 10))),
        (SymmetricSpec(preperiod=(2,), period=(1,) * 199 + (5,)),
         (Fraction(201, 200), Fraction(101, 100))),
        (SYMMETRIC, (Fraction(7, 5), Fraction(3, 2))),
    ], ids=["fib", "c200", "symmetric"])
    def test_rates_outside_the_bounds_need_no_elimination(self, spec, rates):
        props = _proposals(spec)
        assert all(not prop.lo <= rate <= prop.hi for prop in props for rate in rates)
        assert [compare_to_br(spec, rate) for rate in rates] == [-1, 1]

    def test_proposals_are_kept_on_the_automaton(self, monkeypatch):
        # built once per automaton and kept on it; a new spec, even an equal
        # one, compiles to a new automaton that builds its own
        import firebreak.branching
        calls = []
        real = firebreak.branching._components
        monkeypatch.setattr(firebreak.branching, "_components",
                            lambda *args: calls.append(1) or real(*args))
        spec = fibonacci_spec()
        for rate in (Fraction(3, 2), Fraction(2), Fraction(1618034, 1000000)):
            compare_to_br(spec, rate)
        br_enclosure(spec)
        lower_bound_certificate(spec, Fraction(3, 2))
        assert len(calls) == 1
        compare_to_br(fibonacci_spec(), Fraction(3, 2))
        assert len(calls) == 2


C200 = SymmetricSpec(preperiod=(2,), period=(1,) * 199 + (5,))  # br = 5**(1/200)
C1000 = SymmetricSpec(preperiod=(2,), period=(1,) * 999 + (5,))  # br = 5**(1/1000)


class TestPerron:
    """The proposals' float Perron roots and vectors come from Noda's
    inverse iteration on sparse rows, with no LAPACK call: the roots match
    numpy's eigenvalues (an oracle kept to the tests) and the closed forms
    of the cycles, and compare_to_br's signs, with the sparse elimination
    forced, match dense Bareiss elimination, or on the 1,000-state cycle
    the exact sign of rate**1000 - 5."""

    @staticmethod
    def numpy_root(kids, comp):
        mat = np.array([[kids[s].count(t) for t in comp] for s in comp], float)
        return max(abs(np.linalg.eigvals(mat)))

    @staticmethod
    def specs():
        rng = random.Random(8100)
        reducible = [random_automaton(rng) for _ in range(30)]
        reducible += [random_periodic_spec(rng, allow_dead=True) for _ in range(10)]
        return reducible + [REDUCIBLE, C200]

    def test_roots_match_numpy_eigenvalues(self):
        for spec in self.specs() + [C1000]:
            kids = spec.children
            for prop in _proposals(spec):
                assert prop.root == pytest.approx(self.numpy_root(kids, prop.comp),
                                                  rel=1e-12, abs=1e-12), spec
                assert float(prop.lo) * (1 - 1e-15) <= prop.root <= float(prop.hi) * (1 + 1e-15)

    @pytest.mark.parametrize("spec,value", [
        (C200, 5 ** (1 / 200)), (C1000, 5 ** (1 / 1000)), (fibonacci_spec(), GOLDEN),
        (sqrt2_spec(), math.sqrt(2)), (SYMMETRIC, math.sqrt(2)),
    ], ids=["c200", "c1000", "fib", "sqrt2", "symmetric"])
    def test_roots_are_the_closed_forms_to_float_precision(self, spec, value):
        root = max(prop.root for prop in _proposals(spec))
        assert root == pytest.approx(value, rel=4 * 2.0 ** -52, abs=0)

    def test_signs_match_dense_bareiss(self):
        rng = random.Random(8200)
        for spec in self.specs():
            kids = spec.children
            for prop in _proposals(spec):
                forced = prop._replace(lo=-1, hi=10 ** 6)
                if len(prop.comp) < 50:
                    root = Fraction(prop.root).limit_denominator(10 ** 9)
                    rates = [prop.lo, prop.hi, root, root + Fraction(1, 10 ** 7),
                             root - Fraction(1, 10 ** 7)]
                    rates += [Fraction(rng.randint(0, 400), 100) for _ in range(4)]
                else:  # dense Bareiss takes seconds a rate with long denominators
                    root = Fraction(prop.root).limit_denominator(10 ** 6)
                    rates = [root + Fraction(1, 10 ** 6), root - Fraction(1, 10 ** 6)]
                for rate in rates:
                    want = trees_reference.compare_component(kids, prop.comp, rate)
                    assert _compare_component(kids, forced, rate) == want, (spec, rate)
                    assert _compare_component(kids, prop, rate) == want, (spec, rate)

    def test_c1000_signs_are_exact(self):
        prop = max(_proposals(C1000), key=lambda prop: len(prop.comp))
        forced = prop._replace(lo=-1, hi=10 ** 6)
        root = Fraction(prop.root)
        for rate in (prop.lo, prop.hi, root, root * (1 + Fraction(1, 10 ** 12)),
                     root * (1 - Fraction(1, 10 ** 12)), Fraction(1001, 1000), Fraction(1)):
            want = (rate ** 1000 > 5) - (rate ** 1000 < 5)
            assert _compare_component(C1000.children, forced, rate) == want, rate
            assert compare_to_br(C1000, rate) == want, rate

    def test_no_lapack_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg was called")

        for name in ("eig", "eigvals", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        spec = SymmetricSpec(preperiod=(2,), period=(1,) * 49 + (5,))
        assert compare_to_br(spec, Fraction(104, 100)) == 1
        assert br_exact_periodic(spec) == pytest.approx(5 ** (1 / 50))

    def test_iteration_bound_exits_two_naming_it(self, tmp_path, monkeypatch, capsys):
        import firebreak.branching
        from firebreak.cli import main
        monkeypatch.setattr(firebreak.branching, "PERRON_ITERATIONS_MAX", 2)
        path = tmp_path / "c200.tree"
        path.write_text("variant: symmetric\nlevels: 2 | " + "1 " * 199 + "5\n")
        assert main(["br", str(path)]) == 2
        assert ("the Perron vector of a 200-state component needs more than "
                "PERRON_ITERATIONS_MAX = 2 solves") in capsys.readouterr().err


BRACKET_SPECS = {
    "binary": binary_spec(), "fib": fibonacci_spec(), "sqrt2": sqrt2_spec(),
    "ray": ray_spec(), "jordan": REDUCIBLE,
    "sym322": SymmetricSpec(preperiod=(3,), period=(2, 2)),
    "sym14": SymmetricSpec(preperiod=(), period=(1, 4)),
}


class TestBracket:
    @pytest.mark.parametrize("spec_fn,value", [
        (binary_spec, 2.0),
        (fibonacci_spec, GOLDEN),
        (sqrt2_spec, math.sqrt(2)),
        (ray_spec, 1.0),
    ])
    def test_contains_exact_value(self, spec_fn, value):
        bracket = br_bracket(spec_fn(), tol=0.01)
        assert bracket.width <= 0.01
        assert bracket.lo <= value <= bracket.hi

    def test_symmetric_bracket(self):
        bracket = br_bracket(BRACKET_SPECS["sym322"], tol=0.01)
        assert bracket.lo <= 2.0 <= bracket.hi

    def test_symmetric_period_mean(self):
        # alternating 1 and 4 children: branching number is 2
        bracket = br_bracket(BRACKET_SPECS["sym14"], tol=0.01)
        assert bracket.lo <= 2.0 <= bracket.hi

    def test_finite_spec_rejected(self):
        with pytest.raises(SpecError):
            br_bracket(PeriodicSpec(states={"A": ()}, root="A"), tol=0.1)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(SpecError, match="tol must be positive"):
            br_bracket(binary_spec(), tol=tol)

    def test_probes_recorded(self):
        bracket = br_bracket(binary_spec(), tol=0.05)
        assert bracket.probes
        for lam, verdict in bracket.probes:
            assert verdict in ("decays", "stabilises")
            if verdict == "decays":
                assert lam >= bracket.lo
            if verdict == "stabilises":
                assert lam <= bracket.hi

    @pytest.mark.parametrize("name", BRACKET_SPECS)
    @pytest.mark.parametrize("tol", [0.05, 0.01])
    def test_probes_match_golden(self, name, tol):
        # rows written by the float decay classifier that exact comparisons
        # replaced; it classified every probe of these brackets
        with open(DATA / "br_bracket_golden.json", encoding="utf-8") as fh:
            golden = json.load(fh)[f"{name} {tol}"]
        bracket = br_bracket(BRACKET_SPECS[name], tol=tol)
        assert [list(p) for p in bracket.probes] == golden["probes"]
        assert (bracket.lo, bracket.hi) == (golden["lo"], golden["hi"])

    def test_fine_brackets_hold_br_exactly(self):
        # identities in Fractions, read without compare_to_br
        def bounds(spec):
            bracket = br_bracket(spec, tol=1e-12)
            assert bracket.width <= 1e-12
            return Fraction(bracket.lo), Fraction(bracket.hi)

        lo, hi = bounds(fibonacci_spec())
        assert lo * lo < lo + 1 and hi * hi > hi + 1
        lo, hi = bounds(sqrt2_spec())
        assert lo * lo < 2 < hi * hi
        lo, hi = bounds(SymmetricSpec(preperiod=(), period=(2, 3)))
        assert lo * lo < 6 < hi * hi
        for spec in (binary_spec(), REDUCIBLE):
            lo, hi = bounds(spec)
            assert lo < 2 < hi
        assert bounds(ray_spec())[0] == 1

    @pytest.mark.parametrize("name", BRACKET_SPECS)
    def test_tiny_tol_stops_at_adjacent_floats(self, name):
        spec = BRACKET_SPECS[name]
        bracket = br_bracket(spec, tol=1e-300)
        assert math.nextafter(bracket.lo, math.inf) == bracket.hi
        assert len(bracket.probes) <= 60
        assert compare_to_br(spec, bracket.lo) <= 0 < compare_to_br(spec, bracket.hi)


class TestCertificate:
    @pytest.mark.parametrize("lam", [1.2, 1.5, 1.9])
    def test_binary_certificates_validate(self, lam):
        cert = lower_bound_certificate(binary_spec(), lam)
        assert cert.rate < cert.mid_rate and compare_to_br(cert.spec, cert.mid_rate) < 0
        checks = check_certificate(cert)
        assert all(checks.values()), checks

    def test_budget_bound_is_tight_for_geometric(self):
        # sums of floor(lam**i) stay below lam/(lam-1) * lam**n, the
        # coefficient the certificate stores
        lam = Fraction(3, 2)
        coeff = lower_bound_certificate(binary_spec(), lam).budget_coeff
        assert coeff == lam / (lam - 1)
        total = 0
        for n in range(1, 41):
            total += math.floor(lam ** n)
            assert total <= coeff * lam ** n

    def test_ray_below_one(self):
        # budgets floor(0.5**n) are all zero, so the fire burns forever;
        # the coefficient comes from direct summation (all sums are zero)
        cert = lower_bound_certificate(ray_spec(), Fraction(1, 2))
        assert cert.budget_coeff > 0
        checks = check_certificate(cert)
        assert all(checks.values()), checks
        from firebreak import BudgetSequence, feasibility_check
        budget = BudgetSequence.exponential(Fraction(1, 2))
        for depth in range(cert.radius + 1, cert.radius + 6):
            assert not feasibility_check(ray_spec(), cert.radius, budget,
                                         depth).feasible

    def test_rate_close_to_branching_number(self):
        # at rate 1.999 the geometric tail closes only at a large radius
        cert = lower_bound_certificate(binary_spec(), 1.999)
        assert cert.radius > 1000
        checks = check_certificate(cert)
        assert all(checks.values()), checks
        # the radius is the least one closing the tail (checked in floats:
        # the exact powers have millions of bits)
        ratio = float(cert.rate) / float(cert.mid_rate)
        tail = lambda k: float(cert.budget_coeff) * ratio ** (k + 1) / (1 - ratio)
        floor = float(cert.cut_weight_floor)
        assert tail(cert.radius) < floor <= tail(cert.radius - 1)
        from firebreak import BudgetSequence, feasibility_check
        budget = BudgetSequence.exponential(Fraction(1999, 1000))
        for depth in range(cert.radius + 1, cert.radius + 4):
            assert not feasibility_check(binary_spec(), cert.radius, budget,
                                         depth).feasible

    def test_long_period_mid_rate_stays_short(self):
        # period 20 (br = 5**(1/20)): the Collatz-Wielandt bound carries a
        # denominator of over a thousand bits; the mid rate must not, since
        # the tail check raises it to the radius (5,654 here)
        spec = SymmetricSpec(preperiod=(2,), period=(1,) * 19 + (5,))
        cert = lower_bound_certificate(spec, Fraction(27, 25))
        assert cert.radius > 1000
        assert cert.mid_rate.denominator.bit_length() < 64
        assert all(check_certificate(cert).values())

    @pytest.mark.parametrize("spec, lam", [
        (binary_spec(), Fraction(3, 2)),
        (binary_spec(), Fraction(6, 5)),
        (fibonacci_spec(), Fraction(3, 2)),
        (sqrt2_spec(), Fraction(6, 5)),
    ], ids=["binary-3/2", "binary-6/5", "fib-3/2", "sqrt2-6/5"])
    def test_radius_search_corrects_a_shifted_estimate(self, spec, lam, monkeypatch):
        # the float estimate lands on the radius, so the exact search steps
        # only when every log is shifted by an offset: +gain/2 puts the
        # estimate about a third short of the radius, -gain/2 about twice past it
        import firebreak.branching as branching

        cert = lower_bound_certificate(spec, lam)
        ratio = cert.rate / cert.mid_rate
        scale = cert.budget_coeff / ((1 - ratio) * cert.cut_weight_floor)
        assert cert.radius >= 10
        assert branching._tail_below(ratio, scale, cert.radius)
        assert not branching._tail_below(ratio, scale, cert.radius - 1)
        log, gain = branching._log, math.log(cert.mid_rate / cert.rate)
        for offset in (gain / 2, -gain / 2):
            monkeypatch.setattr(branching, "_log", lambda x: log(x) + offset)
            assert lower_bound_certificate(spec, lam) == cert, offset

    def test_short_midpoint_is_kept(self):
        # the bound is exactly 2 on binary, so the mid rate is the midpoint
        cert = lower_bound_certificate(binary_spec(), Fraction(1999, 1000))
        assert cert.mid_rate == Fraction(3999, 2000)

    def test_rate_one_rejected(self):
        with pytest.raises(SpecError):
            lower_bound_certificate(binary_spec(), 1)

    def test_rate_at_or_above_br_rejected(self):
        with pytest.raises(SpecError):
            lower_bound_certificate(binary_spec(), 2.0)
        with pytest.raises(SpecError):
            lower_bound_certificate(binary_spec(), 2.5)

    @pytest.mark.parametrize("spec,lam", [
        (binary_spec(), Fraction(3, 2)),
        (fibonacci_spec(), Fraction(3, 2)),
        (sqrt2_spec(), Fraction(6, 5)),
        (REDUCIBLE, Fraction(3, 2)),
        (SYMMETRIC, Fraction(13, 10)),
    ], ids=["binary", "fib", "sqrt2", "reducible", "symmetric"])
    def test_floor_below_materialised_mincut(self, spec, lam):
        # the floor the stored y proves is below the min cut of every
        # materialised truncation at the mid rate
        cert = lower_bound_certificate(spec, lam)
        assert all(check_certificate(cert).values())
        for depth in range(1, 11):
            assert cert.cut_weight_floor <= min_cut_weight(expand(spec, depth), cert.mid_rate)

    def test_symmetric_spec_gets_a_certificate(self):
        cert = lower_bound_certificate(SYMMETRIC, Fraction(13, 10))
        assert cert.rate < cert.mid_rate < math.sqrt(2)
        assert all(check_certificate(cert).values())

    def test_rate_within_the_proposal_resolution_is_refused(self):
        # F(52)/F(51) lies about 1e-21 below the golden ratio: below br, but
        # above the proposal's lower bound, so no certificate is built
        rate = Fraction(32951280099, 20365011074)
        assert compare_to_br(fibonacci_spec(), rate) == -1
        with pytest.raises(ResourceLimitError, match="PROPOSAL_SCALE = 2\\*\\*48"):
            lower_bound_certificate(fibonacci_spec(), rate)

    def test_reducible_spec_just_below_two(self):
        # the Perron root 2 is a 2x2 Jordan block; below it a certificate
        # exists, at a radius past the cap
        with pytest.raises(ResourceLimitError, match="CERTIFICATE_RADIUS_MAX"):
            lower_bound_certificate(REDUCIBLE, Fraction(199999, 100000))
        with pytest.raises(SpecError, match="not below"):
            lower_bound_certificate(REDUCIBLE, Fraction(200001, 100000))

    def test_radius_past_the_cap_raises(self):
        cert = lower_bound_certificate(binary_spec(), Fraction(1999, 1000))
        assert cert.radius <= CERTIFICATE_RADIUS_MAX
        with pytest.raises(ResourceLimitError, match="CERTIFICATE_RADIUS_MAX"):
            lower_bound_certificate(binary_spec(), Fraction(19999, 10000))

    @pytest.mark.parametrize("corrupt", ["floor", "mid_rate", "y"])
    def test_check_rejects_a_corrupted_certificate(self, corrupt):
        cert = lower_bound_certificate(fibonacci_spec(), Fraction(3, 2))
        assert all(check_certificate(cert).values())
        if corrupt == "floor":
            bound = (cert.y[0] + cert.y[1]) / cert.mid_rate  # root A -> A B
            bad = replaced(cert, cut_weight_floor=bound + Fraction(1, 10**9))
        elif corrupt == "mid_rate":
            bad = replaced(cert, mid_rate=Fraction(1618034, 1000000))
        else:
            low = min(range(len(cert.y)), key=lambda s: cert.y[s])
            y = list(cert.y)
            y[low] = min(1, y[low] + Fraction(1, 10))
            bad = replaced(cert, y=tuple(y))
        assert not all(check_certificate(bad).values())


class TestOrderIndependence:
    def test_child_order_does_not_change_weights(self):
        a = PeriodicSpec(states={"A": ("A", "B"), "B": ("A",)}, root="A")
        b = PeriodicSpec(states={"A": ("B", "A"), "B": ("A",)}, root="A")
        for depth in (3, 5):
            for rate in (Fraction(3, 2), Fraction(2)):
                assert min_cut_weight(expand(a, depth), rate) == \
                    min_cut_weight(expand(b, depth), rate)
        assert br_exact_periodic(a) == pytest.approx(br_exact_periodic(b), abs=1e-9)

    def test_explicit_sibling_order(self):
        from firebreak import ExplicitSpec
        a = ExplicitSpec(parents=(0, 0, 1, 1, 2))
        b = ExplicitSpec(parents=(0, 0, 2, 2, 1))  # mirrored siblings
        for rate in (Fraction(1), Fraction(2)):
            assert min_cut_weight(expand(a, 2), rate) == \
                min_cut_weight(expand(b, 2), rate)

    @pytest.mark.parametrize("name, rate, radius", [
        ("jordan", Fraction(19, 10), 172), ("jordan", Fraction(3, 2), 19),
        ("zd:2", Fraction(1, 2), 2), ("zd:2", Fraction(9, 10), 55), ("zd:3", Fraction(9, 10), 55),
    ])
    def test_certificate_does_not_depend_on_state_numbers(self, name, rate, radius):
        # components whose lower Collatz-Wielandt bounds tie (one-state loops,
        # each at bound 2 on the Jordan spec and 1 on the zd acceptors): the
        # certificate starts from the same one, numbered either way
        if name == "jordan":
            auto = PeriodicSpec(states={"A": ("A", "B", "A"), "B": ("B", "B")}, root="A")
        else:
            auto = group_from_name(name).acceptor[0]
        got, flipped = (lower_bound_certificate(auto, rate),
                        lower_bound_certificate(reverse_numbered(auto), rate))
        assert got.radius == radius
        for field in ("mid_rate", "budget_coeff", "cut_weight_floor", "radius"):
            assert getattr(got, field) == getattr(flipped, field), field
        assert got.y == flipped.y[::-1]
        assert all(check_certificate(got).values()) and all(check_certificate(flipped).values())

    def test_certificate_under_random_renumbering(self):
        # random specs with states shuffled: the same certificate, y permuted
        rng = random.Random(5)
        checked = 0
        for _ in range(150):
            auto = random_periodic_spec(rng, max_states=5)
            if auto.is_finite():
                continue
            n = len(auto.children)
            perm = rng.sample(range(n), n)
            back = {t: s for s, t in enumerate(perm)}
            shuffled = Automaton(tuple(tuple(perm[t] for t in auto.children[back[s]])
                                       for s in range(n)), perm[auto.root])
            below = Fraction(int(br_exact_periodic(auto) * 80), 100)  # 4/5 of br, rounded down
            for rate in (Fraction(1, 2), Fraction(9, 10), below):
                if rate == 1 or compare_to_br(auto, rate) >= 0:
                    continue
                try:
                    got = lower_bound_certificate(auto, rate)
                except ResourceLimitError:
                    continue
                other = lower_bound_certificate(shuffled, rate)
                assert (got.mid_rate, got.cut_weight_floor, got.radius) == (
                    other.mid_rate, other.cut_weight_floor, other.radius)
                assert got.y == tuple(other.y[perm[s]] for s in range(n))
                checked += 1
        assert checked > 200, checked
