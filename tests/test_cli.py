"""Command-line surface: subcommands, exit codes, report determinism.

Exit code contract: 0 determinate, 1 usage/parse error, 2 indeterminate
or a resource cap reached, 3 strategy fault.
"""

import hashlib
import io
import random
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from firebreak import expand, format_tree_spec, max_flow, min_cut_weight
from firebreak.cli import _fmt, build_parser, main
from firebreak.trees import Automaton
from conftest import random_periodic_spec

BINARY = "variant: periodic\nroot: A\nstates: A -> A A\n"
FIB = "variant: periodic\nroot: A\nstates: A -> A B ; B -> A\n"
RAY = "variant: periodic\nroot: A\nstates: A -> A\n"
RAY5 = "variant: explicit\nparents: 0 1 2 3 4\n"
REDUCIBLE = "variant: periodic\nroot: A\nstates: A -> A B A ; B -> B B\n"
DATA = Path(__file__).parent / "data"


@pytest.fixture
def spec_dir(tmp_path):
    for name, text in [("binary.tree", BINARY), ("fib.tree", FIB),
                       ("ray.tree", RAY), ("ray5.tree", RAY5)]:
        (tmp_path / name).write_text(text)
    return tmp_path


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def csv_rows(report: str, name: str) -> list[list[str]]:
    """The rows of a report's CSV block, header excluded."""
    block = report.split(f"csv {name}\n")[1].split("\ncsv ")[0]
    return [line.split(",") for line in block.splitlines()[1:]]


class TestBr:
    def test_binary_exact(self, spec_dir):
        code, out = run(["br", str(spec_dir / "binary.tree")])
        assert code == 0
        assert "result.br_exact = 2.0" in out

    def test_fib_bracket_contains_golden(self, spec_dir):
        code, out = run(["br", str(spec_dir / "fib.tree"), "--tol", "0.01"])
        assert code == 0
        lo = float(out.split("result.bracket_lo = ")[1].splitlines()[0])
        hi = float(out.split("result.bracket_hi = ")[1].splitlines()[0])
        assert lo <= 1.6180339887 <= hi

    def test_ray_exact_one(self, spec_dir):
        code, out = run(["br", str(spec_dir / "ray.tree")])
        assert code == 0
        assert "result.br_exact = 1.0" in out

    def test_parse_error_exits_one(self, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("variant: periodic\nroot: A\nstates: A -> A\nwhat: no\n")
        code, _out = run(["br", str(bad)])
        assert code == 1

    def test_missing_file_exits_one(self):
        code, _out = run(["br", "/nonexistent/x.tree"])
        assert code == 1

    def test_bad_usage_exits_one(self, spec_dir):
        code, _out = run(["br", str(spec_dir / "binary.tree"), "--tol", "soon"])
        assert code == 1

    def test_cut_flow_table(self, spec_dir):
        code, out = run(["br", str(spec_dir / "binary.tree"),
                         "--lambda", "3", "--cut-depths", "3"])
        assert code == 0
        assert "csv cuts" in out
        assert "3,3,8/27,8/27" in out  # lambda, depth, min_cut, flow_value

    def test_fine_bracket_exits_zero(self, spec_dir):
        code, out = run(["br", str(spec_dir / "binary.tree"), "--tol", "1e-9"])
        assert code == 0
        assert "bracket_determinate" not in out and "result.note" not in out
        lo = float(out.split("result.bracket_lo = ")[1].splitlines()[0])
        hi = float(out.split("result.bracket_hi = ")[1].splitlines()[0])
        assert lo < 2 < hi and hi - lo <= 1e-9
        assert csv_rows(out, "probes")[-1] in ([repr(lo), "stabilises"], [repr(hi), "decays"])

    @pytest.mark.parametrize("argv, message", [
        (["--lambda", "3", "--cut-depths", "1001"],
         "--cut-depths 1001 is past CUT_DEPTHS_MAX = 1000"),
        (["--lambda", "3", "--cut-depths", "100000000"],
         "--cut-depths 100000000 is past CUT_DEPTHS_MAX = 1000"),
    ], ids=["just-past", "far-past"])
    def test_cut_depths_past_the_bound_exit_two(self, argv, message, spec_dir, capsys):
        code, out = run(["br", str(spec_dir / "binary.tree")] + argv)
        assert code == 2 and out == ""
        assert f"firebreak: {message}" in capsys.readouterr().err

    def test_weight_past_the_digit_limit_exits_two(self, spec_dir, capsys):
        # 123457**d has more than 4300 digits from d = 845 on
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out = run(["br", str(spec_dir / "ray.tree"), "--lambda", "123457/100000",
                             "--cut-depths", "1000"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        assert ("firebreak: the min-cut weight at depth 845 has more than 4300 digits, "
                "past sys.get_int_max_str_digits() = 4300") in capsys.readouterr().err

    def test_cuts_table_builds_no_truncation(self, spec_dir, monkeypatch):
        # depth 8 has 511 vertices; the table reads the recursion instead
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "10")
        code, out = run(["br", str(spec_dir / "binary.tree"),
                         "--lambda", "3", "--cut-depths", "8"])
        assert code == 0
        assert len(csv_rows(out, "cuts")) == 8

    @pytest.mark.parametrize("seed", range(6))
    def test_cuts_table_matches_the_references(self, seed, tmp_path):
        rng = random.Random(5000 + seed)
        spec = random_periodic_spec(rng)
        path = tmp_path / "random.tree"
        path.write_text(format_tree_spec(spec))
        for lam in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)):
            code, out = run(["br", str(path), "--tol", "0.1",
                             "--lambda", _fmt(lam), "--cut-depths", "6"])
            assert code == 0
            expected = []
            for depth in range(1, 7):
                trunc = expand(spec, depth)
                weight = min_cut_weight(trunc, lam)
                assert max_flow(trunc, lam).value == weight
                expected.append([_fmt(lam), str(depth), _fmt(weight), _fmt(weight)])
            assert csv_rows(out, "cuts") == expected


class TestContain:
    def test_above_threshold(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "binary.tree"),
                         "--lambda", "3", "--k", "1"])
        assert code == 0
        assert "result.regime = above" in out
        assert "result.verdict = contained" in out
        assert "result.burnt = 7" in out
        assert "2,9,7 8 9 10 11 12 13 14" in out  # round, budget, protect set

    def test_above_threshold_runs_the_recursion_once(self, spec_dir, monkeypatch):
        # synthesis steps it to the cut depth, the min cutset reads those
        # steps and cut_weight sums the cut on integers
        import firebreak.branching
        real, calls = firebreak.branching._state_recursion, []
        monkeypatch.setattr(firebreak.branching, "_state_recursion",
                            lambda *args: calls.append(args[1:3]) or real(*args))
        code, out = run(["contain", str(spec_dir / "fib.tree"), "--lambda", "5/2", "--k", "2"])
        assert code == 0
        assert "result.regime = above" in out and "result.verdict = contained" in out
        assert calls == [(5, 2)]

    def test_below_threshold(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "binary.tree"),
                         "--lambda", "1.5"])
        assert code == 0
        assert "result.regime = below" in out
        assert "result.certificate_mid_rate = 1.75" in out
        assert "result.certificate_valid = true" in out
        assert "result.all_probed_depths_infeasible = true" in out

    def test_at_threshold_undetermined(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "binary.tree"),
                         "--lambda", "2"])
        assert code == 2
        assert "result.regime = undetermined" in out

    def test_ray_rate2(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "ray.tree"),
                         "--lambda", "2", "--k", "0"])
        assert code == 0
        assert "result.verdict = contained" in out
        assert "result.verdict_round = 1" in out

    def test_cut_past_the_vertex_cap_exits_two(self, spec_dir, capsys):
        code, _out = run(["contain", str(spec_dir / "fib.tree"),
                          "--lambda", "17/10", "--k", "2"])
        assert code == 2
        assert "FIREBREAK_VERTEX_CAP" in capsys.readouterr().err

    def test_certificate_check_builds_no_truncation(self, spec_dir, monkeypatch):
        # the check reads depths 1..8; depth 8 has 511 vertices
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "100")
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "3/2"])
        assert code == 0
        assert "result.certificate_valid = true" in out

    def test_jordan_block_just_above_two_is_not_below(self, tmp_path, capsys):
        # br = 2 is a 2x2 Jordan block of A -> A B A ; B -> B B; a float
        # Perron root lands above 2 and would call 200001/100000 "below"
        path = tmp_path / "reducible.tree"
        path.write_text(REDUCIBLE)
        t0 = time.perf_counter()
        code, out = run(["contain", str(path), "--lambda", "200001/100000"])
        assert time.perf_counter() - t0 < 5
        assert code == 2
        assert "regime = below" not in out
        assert "depth 40" in capsys.readouterr().err

    def test_jordan_block_at_two_undetermined(self, tmp_path):
        path = tmp_path / "reducible.tree"
        path.write_text(REDUCIBLE)
        t0 = time.perf_counter()
        code, out = run(["contain", str(path), "--lambda", "2"])
        assert time.perf_counter() - t0 < 5
        assert code == 2
        assert "result.regime = undetermined" in out
        assert "result.br_exact = " in out and "result.bracket_lo = " in out

    def test_symmetric_spec_gets_a_certificate(self, tmp_path):
        path = tmp_path / "sym.tree"
        path.write_text("variant: symmetric\nlevels: 3 2 | 1 2\n")
        code, out = run(["contain", str(path), "--lambda", "13/10"])
        assert code == 0
        assert "result.regime = below" in out
        assert "result.certificate_valid = true" in out
        assert "result.all_probed_depths_infeasible = true" in out
        lo = float(out.split("result.bracket_lo = ")[1].splitlines()[0])
        hi = float(out.split("result.bracket_hi = ")[1].splitlines()[0])
        assert lo < 2 ** 0.5 < hi

    def test_certificate_radius_past_the_cap_exits_two(self, spec_dir, capsys):
        # the radius would be 455,788; the evidence loop never starts
        t0 = time.perf_counter()
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "19999/10000"])
        assert time.perf_counter() - t0 < 2
        assert code == 2 and not out
        assert "CERTIFICATE_RADIUS_MAX" in capsys.readouterr().err

    def test_certificate_radius_below_the_cap_decides(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "1999/1000"])
        assert code == 0
        assert "result.certificate_radius = 36356" in out
        assert "result.all_probed_depths_infeasible = true" in out

    @pytest.mark.parametrize("depths", ["101", "100000"])
    def test_evidence_depths_past_the_bound_exit_two(self, depths, spec_dir, capsys,
                                                     monkeypatch):
        # refused before br_enclosure: no row, and no bracket, is computed
        import firebreak.cli
        monkeypatch.setattr(firebreak.cli, "br_enclosure", None)
        t0 = time.perf_counter()
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "3/2",
                         "--evidence-depths", depths])
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == ""
        assert (f"firebreak: --evidence-depths {depths} is past EVIDENCE_DEPTHS_MAX = 100"
                in capsys.readouterr().err)

    def test_evidence_depths_at_the_bound_decide(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "3/2",
                         "--evidence-depths", "100"])
        assert code == 0
        assert len(csv_rows(out, "feasibility_evidence")) == 100
        assert "result.all_probed_depths_infeasible = true" in out

    def test_evidence_rows_walk_the_ball_once(self, spec_dir, monkeypatch):
        # the state counts at the certificate radius are walked once for
        # all eight rows, not once per row
        real, levels = Automaton.iter_state_counts, []

        def counted(auto, counts=None):
            for level in real(auto, counts):
                levels.append(1)
                yield level

        monkeypatch.setattr(Automaton, "iter_state_counts", counted)
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "1999/1000"])
        assert code == 0
        assert "result.certificate_radius = 36356" in out
        assert 36356 < len(levels) < 2 * 36356

    def test_long_period_symmetric_certificate_is_quick(self, tmp_path):
        # period 20 with br = 5**(1/20) ~ 1.0838: radius 5,654 at 27/25
        path = tmp_path / "period20.tree"
        path.write_text("variant: symmetric\nlevels: 2 | " + "1 " * 19 + "5\n")
        t0 = time.perf_counter()
        code, out = run(["contain", str(path), "--lambda", "27/25"])
        assert time.perf_counter() - t0 < 5
        assert code == 0
        assert "result.certificate_radius = 5654" in out
        assert "result.certificate_valid = true" in out

    def test_rate_within_1e_310_of_br_exits_two(self, spec_dir, capsys):
        # rate - 2 underflows a float; the radius estimate does not overflow
        code, out = run(["contain", str(spec_dir / "binary.tree"),
                         "--lambda", "1." + "9" * 310])
        assert code == 2 and not out
        assert "CERTIFICATE_RADIUS_MAX" in capsys.readouterr().err

    def test_rate_1e_minus_400_decides(self, spec_dir):
        # every budget is 0; the rate is no float but a positive rational
        code, out = run(["contain", str(spec_dir / "binary.tree"),
                         "--lambda", "1/1" + "0" * 400])
        assert code == 0
        assert "result.regime = below" in out
        assert "result.certificate_valid = true" in out
        assert "result.all_probed_depths_infeasible = true" in out

    def test_fib_below_threshold_evidence_is_quick(self, spec_dir):
        # every evidence depth is decided on live counts per (level, state);
        # the profile program it replaced gave no result within 60 s here
        t0 = time.perf_counter()
        code, out = run(["contain", str(spec_dir / "fib.tree"), "--lambda", "3/2"])
        assert time.perf_counter() - t0 < 2
        assert code == 0
        assert "result.certificate_radius = 114" in out
        rows = csv_rows(out, "feasibility_evidence")
        assert [r[0] for r in rows] == [str(d) for d in range(115, 123)]
        assert all(r[1] == "infeasible" for r in rows)

    @pytest.mark.parametrize("name, text, argv, digest", [
        ("ternary.tree", "variant: periodic\nroot: A\nstates: A -> A A A\n",
         ["--lambda", "7/2", "--k", "1"],
         "548027ec3003574dca4abc3935475b3676339d3c7cf07e7b50d5e2c5e793f42e"),
        ("binary.tree", BINARY, ["--lambda", "5/2", "--k", "3"],
         "bc37cb0733eaf3cab0a7a05db58a48207d0bcf24a5f160c6715e8d9bba42aa66"),
    ])
    def test_large_cut_reports_match_golden(self, name, text, argv, digest, tmp_path,
                                            monkeypatch):
        # the ternary cut has 59,049 vertices and the binary one 16,384; the
        # sha256 of each full report (about 355 KB and 99 KB) was written by
        # the list-based truncation and cut walks the numpy ones replaced
        monkeypatch.chdir(tmp_path)
        Path(name).write_text(text)
        code, out = run(["contain", name, *argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_wide_tree_below_threshold(self, tmp_path):
        # the depth-6 truncation of a 20-ary tree passes the default cap
        path = tmp_path / "wide.tree"
        path.write_text("variant: periodic\nroot: A\nstates: A -> " + " ".join(["A"] * 20) + "\n")
        code, out = run(["contain", str(path), "--lambda", "10"])
        assert code == 0
        assert "result.regime = below" in out
        assert "result.certificate_valid = true" in out


class TestSimulate:
    def test_canonical_contained(self, spec_dir):
        code, out = run(["simulate", str(spec_dir / "ray.tree"), "--k", "0",
                         "--budget", "const:1", "--depth", "5",
                         "--protect", "1"])
        assert code == 0
        assert "result.verdict = contained" in out

    def test_no_strategy_indeterminate(self, spec_dir):
        code, out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "0",
                         "--budget", "const:0", "--depth", "4"])
        assert code == 2
        assert "result.verdict = boundary_reached" in out

    def test_fault_exits_three(self, spec_dir):
        code, _out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "0",
                          "--budget", "const:1", "--depth", "4",
                          "--schedule", "1:1,2"])
        assert code == 3

    def test_trace_roundtrip_via_replay(self, spec_dir, tmp_path):
        trace = tmp_path / "run.trace"
        code, _out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "1",
                          "--budget", "exp:3", "--depth", "3",
                          "--schedule", "2:7,8,9,10,11,12,13,14",
                          "--trace-out", str(trace)])
        assert code == 0
        code, out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "1",
                         "--budget", "exp:3", "--depth", "3",
                         "--replay", str(trace)])
        assert code == 0
        assert "result.replay_match = true" in out

    def test_vertex_cap_exits_two_naming_the_cap(self, spec_dir, monkeypatch, capsys):
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "10")
        code, _out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "0",
                          "--budget", "const:1", "--depth", "8"])
        assert code == 2
        assert "FIREBREAK_VERTEX_CAP" in capsys.readouterr().err


class TestRejectedInput:
    @pytest.mark.parametrize("argv", [
        ["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1",
         "--depth", "4", "--protect", "1,x"],
        ["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1",
         "--depth", "4", "--schedule", "1:2;x"],
        ["oracle", "{d}/ray5.tree", "--budget", "const:1", "--x0", "0,y"],
    ], ids=["protect", "schedule", "x0"])
    def test_malformed_ids_exit_one(self, argv, spec_dir, capsys):
        code, _out = run([a.format(d=spec_dir) for a in argv])
        assert code == 1
        assert "firebreak: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "{d}/binary.tree", "--budget", "const:1", "--depth", "4"],
        ["oracle", "{d}/ray5.tree", "--budget", "const:1"],
        ["cayley", "zd:2", "--mode", "polyprobe", "--R", "4"],
        ["contain", "{d}/binary.tree", "--lambda", "3"],
        ["contain", "{d}/binary.tree", "--lambda", "3/2"],
    ], ids=["simulate", "oracle", "polyprobe", "contain-above", "contain-below"])
    def test_negative_radius_exits_one(self, argv, spec_dir, capsys):
        code, _out = run([a.format(d=spec_dir) for a in argv] + ["--k", "-1"])
        assert code == 1
        assert "initial radius must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["cayley", "zd:2", "--mode", "surround", "--R", "5"],
         "--lambda is required for mode surround"),
        (["cayley", "zd:2", "--mode", "polyprobe", "--R", "3", "--c", "x"],
         "--c: 'x' is not a rational number"),
        (["contain", "{d}/binary.tree", "--lambda", "3/2", "--evidence-depths", "0"],
         "--evidence-depths must be >= 1"),
        (["contain", "{d}/binary.tree", "--lambda", "3/2", "--evidence-depths", "-2"],
         "--evidence-depths must be >= 1"),
        (["br", "{d}/binary.tree", "--lambda", "3", "--cut-depths", "0"],
         "--cut-depths must be >= 1"),
        (["br", "{d}/binary.tree", "--lambda", "3", "--cut-depths", "-1"],
         "--cut-depths must be >= 1"),
        (["br", "{d}/binary.tree", "--D-max", "0"],
         "error: unrecognized arguments: --D-max 0"),
        (["br", "{d}/fib.tree", "--tol", "nan"], "tol must be positive"),
        (["br", "{d}/ray5.tree", "--tol", "nan"], "tol must be positive"),
        (["br", "{d}/ray5.tree", "--tol", "-1"], "tol must be positive"),
        (["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1",
          "--depth", "3", "--horizon", "-1"], "horizon must be >= 0"),
        (["oracle", "{d}/ray5.tree", "--budget", "const:1", "--horizon", "-1"],
         "horizon must be >= 0"),
    ], ids=["surround-no-lambda", "polyprobe-bad-c", "evidence-depths-0",
            "evidence-depths-negative", "cut-depths-0", "cut-depths-negative",
            "br-depth-max-0", "br-tol-nan", "br-finite-tol-nan", "br-finite-tol-negative",
            "simulate-negative-horizon",
            "oracle-negative-horizon"])
    def test_bad_option_exits_one(self, argv, message, spec_dir, capsys):
        code, _out = run([a.format(d=spec_dir) for a in argv])
        assert code == 1
        assert f"firebreak: {message}" in capsys.readouterr().err

    def test_tree_without_out_exits_before_building(self, monkeypatch, capsys):
        import firebreak.cli
        def no_ball(*_a):
            raise AssertionError("the ball was built before --out was checked")
        monkeypatch.setattr(firebreak.cli, "lex_min_tree", no_ball)
        code, _out = run(["cayley", "free:2", "--mode", "tree", "--R", "10"])
        assert code == 1
        assert "--out is required for mode tree" in capsys.readouterr().err

    def test_malformed_replay_trace_names_file_and_line(self, spec_dir, capsys):
        trace = spec_dir / "bad.trace"
        trace.write_text("round 1 | protect - | burn 1 2\nround x | protect 1 | burn 2\n")
        code, _out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "0",
                          "--budget", "const:1", "--depth", "4", "--replay", str(trace)])
        assert code == 1
        assert f"firebreak: {trace}: line 2: malformed trace line" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["nospace", "abc feasible 1:x", "abc maybe"])
    def test_malformed_cache_names_file_and_line(self, entry, spec_dir, capsys):
        cache = spec_dir / "o.cache"
        cache.write_text("\n" + entry + "\n")
        code, _out = run(["oracle", str(spec_dir / "ray5.tree"), "--budget", "const:1",
                          "--cache", str(cache)])
        assert code == 1
        assert f"firebreak: {cache}: line 2: malformed cache entry" in capsys.readouterr().err

    def test_depth_max_not_above_radius_exits_one(self, spec_dir, capsys):
        code, _out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "3",
                          "--k", "2", "--D-max", "2"])
        assert code == 1
        assert "depth_max must exceed the initial radius" in capsys.readouterr().err


class TestOracle:
    def test_ray_feasible(self, spec_dir):
        code, out = run(["oracle", str(spec_dir / "ray5.tree"), "--k", "0",
                         "--budget", "const:1"])
        assert code == 0
        assert "result.feasible = true" in out

    def test_cache_hit_on_second_run(self, spec_dir, tmp_path):
        cache = tmp_path / "o.cache"
        argv = ["oracle", str(spec_dir / "ray5.tree"), "--k", "0",
                "--budget", "const:1", "--cache", str(cache)]
        _code, first = run(argv)
        assert "result.cache_hit = false" in first
        _code, second = run(argv)
        assert "result.cache_hit = true" in second

    def test_periodic_spec_rejected(self, spec_dir):
        code, _out = run(["oracle", str(spec_dir / "binary.tree"),
                          "--k", "0", "--budget", "const:1"])
        assert code == 1


class TestCayley:
    def test_growth(self):
        code, out = run(["cayley", "free:2", "--mode", "growth", "--R", "8"])
        assert code == 0
        assert "result.sphere_ratio = 3.0" in out

    def test_surround(self):
        code, out = run(["cayley", "zd:2", "--mode", "surround", "--R", "12",
                         "--lambda", "1.5", "--k", "1"])
        assert code == 0
        assert "result.trigger_round = 10" in out
        assert "result.verdict = contained" in out

    def test_surround_on_a_large_ball(self):
        # the ball out to the protected sphere has 354,293 vertices
        code, out = run(["cayley", "free:2", "--mode", "surround", "--R", "11",
                         "--lambda", "4", "--k", "1"])
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("result.")] == [
            "result.burnt = 118097", "result.sphere_index = 11",
            "result.sphere_size = 236196", "result.trigger_round = 9",
            "result.verdict = contained", "result.verdict_round = 10"]

    def test_surround_cap_exhausted(self):
        code, out = run(["cayley", "free:2", "--mode", "surround", "--R", "7",
                         "--lambda", "2.5", "--k", "1"])
        assert code == 2
        assert "result.regime = cap_exhausted" in out

    def test_ball_cap_decided_before_building(self, monkeypatch, capsys):
        import firebreak.cayley as cayley_mod

        def no_ball(*_args, **_kw):
            raise AssertionError("a ball was built")

        monkeypatch.setattr(cayley_mod, "ball", no_ball)
        t0 = time.perf_counter()
        code, out = run(["cayley", "free:2", "--mode", "growth", "--R", "13"])
        assert time.perf_counter() - t0 < 1
        assert code == 2 and not out
        assert ("ball of radius 13 has 3188645 elements, the ball cap is 2000000"
                in capsys.readouterr().err)

    def test_polyprobe(self):
        code, out = run(["cayley", "free:2", "--mode", "polyprobe", "--R", "8",
                         "--d", "2", "--k", "2"])
        assert code == 0
        assert "result.feasible = false" in out

    def test_polyprobe_on_a_lex_min_tree_that_is_not_level_regular(self):
        t0 = time.perf_counter()
        code, out = run(["cayley", "zd:3", "--mode", "polyprobe", "--R", "7",
                         "--k", "1", "--c", "2", "--d", "2"])
        assert time.perf_counter() - t0 < 2
        assert code == 0
        assert "result.feasible = true" in out

    def test_feasibility_work_cap_exits_two_naming_it(self, monkeypatch, capsys):
        # the acceptor of freeprod:2,3 has incomparable subtrees from height
        # 2 on, so the count recursion runs above them
        import firebreak.game as game_mod
        monkeypatch.setattr(game_mod, "FEASIBILITY_WORK_MAX", 5)  # this probe tries 6
        code, out = run(["cayley", "freeprod:2,3", "--mode", "polyprobe", "--R", "9",
                         "--k", "1", "--c", "2", "--d", "2"])
        assert code == 2 and not out
        assert "FEASIBILITY_WORK_MAX" in capsys.readouterr().err

    def test_tree_export_feeds_br(self, tmp_path):
        out_file = tmp_path / "free2.tree"
        code, _out = run(["cayley", "free:2", "--mode", "tree", "--R", "5",
                          "--out", str(out_file)])
        assert code == 0
        code, out = run(["br", str(out_file)])
        assert code == 0
        assert "result.br_exact = 1.0" in out  # exported trees are finite

    @pytest.mark.parametrize("group, radius, golden", [
        ("freeprod:2,3", "5", "cayley_freeprod_2_3_R5.tree"),
        ("zd:2", "4", "cayley_zd_2_R4.tree"),
    ])
    def test_tree_export_matches_golden(self, group, radius, golden, tmp_path):
        out_file = tmp_path / golden
        code, _out = run(["cayley", group, "--mode", "tree", "--R", radius,
                          "--out", str(out_file)])
        assert code == 0
        assert out_file.read_bytes() == (DATA / golden).read_bytes()

    def test_unknown_group(self):
        code, _out = run(["cayley", "so3", "--mode", "growth", "--R", "4"])
        assert code == 1


def test_parser_is_built_once_per_process(spec_dir):
    run(["br", str(spec_dir / "binary.tree")])
    built = build_parser.cache_info().misses
    run(["br", str(spec_dir / "ray.tree")])
    assert build_parser.cache_info().misses == built == 1


class TestDeterminism:
    CASES = [
        ["br", "{d}/fib.tree", "--tol", "0.02"],
        ["contain", "{d}/binary.tree", "--lambda", "3", "--k", "1"],
        ["contain", "{d}/binary.tree", "--lambda", "1.5"],
        ["simulate", "{d}/ray.tree", "--k", "0", "--budget", "const:1",
         "--depth", "5", "--protect", "1"],
        ["oracle", "{d}/ray5.tree", "--k", "0", "--budget", "const:1"],
        ["cayley", "zd:2", "--mode", "growth", "--R", "6"],
        ["cayley", "zd:2", "--mode", "surround", "--R", "12",
         "--lambda", "1.5", "--k", "1"],
        ["cayley", "free:2", "--mode", "polyprobe", "--R", "6",
         "--d", "2", "--k", "2"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0] + "-" + a[-1])
    def test_reports_byte_identical(self, argv, spec_dir):
        argv = [a.format(d=spec_dir) for a in argv]
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert code1 == code2
        assert out1 == out2
        assert out1  # non-empty report
