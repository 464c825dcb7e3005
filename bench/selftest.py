#!/usr/bin/env python3
"""Self-tests of the benchmark's own files.

    python3 bench/selftest.py

Checks that the referee rejects corrupted answers, that job lists are
seeded, that deadlines are enforced, and that a traced run's self times
plus the benchmark's own overhead account for its wall time.  Prints one
line per check and exits 1 when any fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
import sys

import hostspeed
import run
import referee
import tracing
import workloads

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def expect_wrong(job, answer, what: str) -> None:
    try:
        referee.check(job, answer)
    except referee.Wrong:
        return
    raise AssertionError(f"referee accepted {what}")


def report_of(job: dict) -> str:
    import firebreak.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert firebreak.cli.main(job["argv"]) == 0, job["id"]
    return out.getvalue()


def first(jobs, prefix: str) -> dict:
    return next(j for j in jobs if j["id"].split(".", 1)[1].startswith(prefix))


@check
def corrupted_result_lines(runner, jobs):
    """Changing any checked result.* line of a correct report is caught."""
    job = first(jobs["above-synth"], "binary-")
    report = report_of(job)
    assert referee.check(job, report) == referee.DECIDED
    changed = {"burnt": "1", "verdict_round": "99", "cut_weight": "1/3", "flow_value": "1/3",
               "br_exact": "2.5", "regime": "below", "verdict": "boundary_reached",
               "cut_size": "1", "cut_depth": "2"}
    for key, value in changed.items():
        lines = [f"result.{key} = {value}" if line.startswith(f"result.{key} = ") else line
                 for line in report.splitlines()]
        assert lines != report.splitlines(), key
        expect_wrong(job, "\n".join(lines) + "\n", f"a corrupted result.{key}")
    rows = report.splitlines()
    row = next(i for i, line in enumerate(rows) if line[:1].isdigit() and " " in line)
    rows[row] = rows[row].rsplit(" ", 1)[0]  # drop one scheduled vertex
    expect_wrong(job, "\n".join(rows) + "\n", "a schedule missing a vertex")


@check
def dropped_witness_vertex(runner, jobs):
    """A feasible witness with one vertex dropped is caught."""
    for job in jobs["below-decide"]:
        if job["kind"] == "probe":
            answer = runner._probe(job)
            if answer.feasible and answer.witness_paths:
                assert referee.check(job, answer) == referee.DECIDED
                for i in range(len(answer.witness_paths)):
                    paths = answer.witness_paths[:i] + answer.witness_paths[i + 1:]
                    expect_wrong(job, dataclasses.replace(answer, witness_paths=paths),
                                 f"a witness without path {i}")
                return
    raise AssertionError("no feasible probe in the job list")


@check
def corrupted_cayley_and_oracle(runner, jobs):
    """Wrong sphere sizes, triggers and oracle answers are caught."""
    for prefix, key, value in (("growth-", "ball_size", "7"),
                               ("surround-", "trigger_round", "99"),
                               ("tree-", "vertices", "3")):
        job = first(jobs["cayley-balls"], prefix)
        report = report_of(job)
        assert referee.check(job, report) == referee.DECIDED
        bad = "\n".join(f"result.{key} = {value}" if line.startswith(f"result.{key} = ")
                        else line for line in report.splitlines())
        expect_wrong(job, bad, f"a corrupted {prefix}{key}")
    job = first(jobs["below-decide"], "oracle-")
    report = report_of(job)
    assert referee.check(job, report) == referee.DECIDED
    answer = "true" if "result.feasible = true" in report else "false"
    flipped = {"true": "false", "false": "true"}[answer]
    bad = report.replace(f"result.feasible = {answer}", f"result.feasible = {flipped}")
    expect_wrong(job, bad, "a flipped oracle answer")


@check
def seeded_job_lists(runner, jobs):
    """Same seed, byte-identical list; another seed, another list."""
    for name in workloads.GENERATORS:
        a = workloads.job_list_bytes(workloads.generate(name, 7, WORK))
        b = workloads.job_list_bytes(workloads.generate(name, 7, WORK))
        c = workloads.job_list_bytes(workloads.generate(name, 8, WORK))
        assert a == b and a != c, name


@check
def deadline_is_charged(runner, jobs):
    """A job past its deadline is a timeout charged the deadline."""
    job = dict(first(jobs["below-decide"], "anchor-fib"), deadline_s=0.2)
    rec = runner.run(job, False)
    assert rec["outcome"] == "timeout" and rec["latency_s"] == 0.2, rec
    assert rec["elapsed_s"] < 1.0, rec


@check
def traced_time_accounts_for_wall(runner, jobs):
    """Self times plus the benchmark's overhead equal the traced wall time,
    every self time is non-negative, and the overhead stays small."""
    runner.tracer.spans.clear()
    picked = [j for name in workloads.GENERATORS for j in jobs[name][4:14]]
    records = [runner.run(job, True) for job in picked]
    spans = runner.tracer.spans
    assert spans and all(s.job in {j["id"] for j in picked} for s in spans)
    assert all(s.self_s >= -1e-9 for s in spans)
    self_s = sum(s.self_s for s in spans)
    root_s = sum(s.duration for s in spans if s.parent is None)
    assert abs(self_s - root_s) <= 1e-6 * root_s, (self_s, root_s)
    wall = sum(r["elapsed_s"] for r in records)
    overhead = run.harness_share(runner.tracer, records) * wall
    assert abs(self_s + overhead - wall) <= 1e-6 * wall
    assert 0 <= overhead <= 0.2 * wall, (overhead, wall)
    metrics = tracing.layer_metrics(spans, {j["id"]: 1.0 for j in picked})
    assert metrics["cli.main.calls"] == sum(j["kind"] != "probe" for j in picked)


@check
def rounds_and_mean_times(runner, jobs):
    """Every job runs in its share of the rounds, hangs run last, and the
    end-to-end metrics take each job's mean over its rounds."""
    n_rounds = 5
    sample = [dict(j, reps=r) for j, r in zip(jobs["above-synth"][3:6], (None, 3, 1))]
    assert [run.rounds_of(j, n_rounds) for j in sample] == [set(range(5)), {0, 2, 4}, {4}]
    records, _ = run.run_rounds(runner, sample, n_rounds, False)
    assert len(records) == 9 and records[-1]["id"] == sample[2]["id"]
    assert all(r["ref_s"] == r["latency_s"] * r["speed"] for r in records)
    for i, r in enumerate(records):
        r["ref_s"] = 1.0 + i
    # job 0 ran as records 0, 2, 3, 5, 6; job 1 as 1, 4, 7; job 2 as 8
    assert run.end_to_end(records, 0.0)["wall_s"] == 4.2 + 5.0 + 9.0


@check
def host_speed_scaling(runner, jobs):
    """The speed factor is the reference kernel time over the mean kernel
    time: a run that spends half its time at half speed reads 2/3."""
    ref = hostspeed.REF_KERNEL_S
    assert hostspeed.factor([ref, ref]) == 1.0
    assert abs(hostspeed.factor([ref, 2 * ref, ref, 2 * ref]) - 2 / 3) < 1e-12
    assert 0.2 < hostspeed.factor([hostspeed.kernel_s() for _ in range(20)]) < 5


WORK = os.path.join(run.WORKDIR, "selftest")


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    failed = 0
    try:
        jobs = {name: workloads.generate(name, 1, os.path.join(WORK, name))
                for name in workloads.GENERATORS}
        tracer = tracing.Tracer(run.JobTimeout)
        tracer.install()
        runner = run.Runner(tracer)
        for fn in CHECKS:
            try:
                fn(runner, jobs)
                print(f"PASS {fn.__name__}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {fn.__name__}: {exc}")
        tracer.uninstall()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORKDIR)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
