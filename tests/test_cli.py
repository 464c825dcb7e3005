"""Command-line surface: subcommands, exit codes, report determinism.

Exit code contract: 0 determinate, 1 usage/parse error, 2 indeterminate
or a resource cap reached, 3 strategy fault.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from firebreak.cli import main

BINARY = "variant: periodic\nroot: A\nstates: A -> A A\n"
FIB = "variant: periodic\nroot: A\nstates: A -> A B ; B -> A\n"
RAY = "variant: periodic\nroot: A\nstates: A -> A\n"
RAY5 = "variant: explicit\nparents: 0 1 2 3 4\n"
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

    def test_heuristic_bracket_exits_two(self, spec_dir):
        code, out = run(["br", str(spec_dir / "binary.tree"),
                         "--tol", "1e-9", "--D-max", "2000"])
        assert code == 2
        assert "result.bracket_determinate = false" in out

    def test_vertex_cap_exits_two_naming_the_cap(self, spec_dir, monkeypatch, capsys):
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "10")
        code, _out = run(["br", str(spec_dir / "binary.tree"),
                          "--lambda", "3", "--cut-depths", "8"])
        assert code == 2
        assert "FIREBREAK_VERTEX_CAP" in capsys.readouterr().err


class TestContain:
    def test_above_threshold(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "binary.tree"),
                         "--lambda", "3", "--k", "1"])
        assert code == 0
        assert "result.regime = above" in out
        assert "result.verdict = contained" in out
        assert "result.burnt = 7" in out
        assert "2,9,7 8 9 10 11 12 13 14" in out  # round, budget, protect set

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

    def test_surround_cap_exhausted(self):
        code, out = run(["cayley", "free:2", "--mode", "surround", "--R", "7",
                         "--lambda", "2.5", "--k", "1"])
        assert code == 2
        assert "result.regime = cap_exhausted" in out

    def test_polyprobe(self):
        code, out = run(["cayley", "free:2", "--mode", "polyprobe", "--R", "8",
                         "--d", "2", "--k", "2"])
        assert code == 0
        assert "result.feasible = false" in out

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
