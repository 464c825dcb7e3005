#!/usr/bin/env python3
"""firebreak benchmark: one workload, closed loop, from one process.

    python3 bench/run.py --workload above-synth --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; it builds nothing and imports the
package from ``src/``.  One client runs one job at a time with no worker
threads.  A job is one CLI invocation through ``firebreak.cli.main(argv)``
on generated spec files (or, for ``below-decide`` probes, one direct
``feasibility_check`` call) under its own wall-clock deadline.  Every
answer is checked by the referee (``referee.py``).

The seeded job list runs in rounds, as many as ``--seconds`` holds at
``workloads.ROUND_S`` seconds a round; every job runs in every round, except the
seconds-long anchors and the known hangs, which run in fewer (see
``workloads.HEAVY_REPS``).  A job's latency is the mean of its rounds,
in reference-host seconds: the host's speed flips between two levels
1.6x apart, so every time is scaled by a fixed kernel's mean time over
the same round (``hostspeed``).  The raw round times are printed too.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs each job untraced and then traced in each of its
rounds (the anchors and hangs in one) and prints the per-layer metrics,
per run of the job list.  The last stdout line is the JSON result; lines
above it list the outcome of every job that did not decide, the job-list
hash and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostspeed
import referee
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = ".bench_work"
SETUP_REPS = 3
SETUP_KERNELS = 20  # kernel samples that scale one set-up's times
# The child times the kernel itself, since it may run on another core than
# this process; after the import, so that hostspeed's own imports do not
# shorten firebreak's.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import firebreak.cli; "
                "t = time.perf_counter() - t; import hostspeed; "
                f"print(t * hostspeed.factor([hostspeed.kernel_s() for _ in range({SETUP_KERNELS})]))")
FAILURES = ("timeout", "resource_limit", "exception", "wrong")
CAP_MESSAGE = re.compile(r"\bcap\b")


class JobTimeout(BaseException):
    """Raised by SIGALRM when a job passes its deadline.  A BaseException,
    so the program's own ``except Exception`` handlers do not swallow it."""


class Deadline:
    """Per-job wall-clock deadline by SIGALRM; only an armed deadline
    raises, so an alarm that lands after the job cannot."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise JobTimeout()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


# -- set-up ----------------------------------------------------------------------


def child_import_s() -> float:
    """Import time of firebreak (numpy included) in a fresh interpreter, in
    reference-host seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def setup(workload: str, seed: int, workdir: str):
    """Median over SETUP_REPS of import time plus spec and job generation,
    in reference-host seconds (``hostspeed``)."""
    samples = []
    for _ in range(SETUP_REPS):
        t_import = child_import_s()
        t0 = time.perf_counter()
        jobs = workloads.generate(workload, seed, workdir)
        t_generate = time.perf_counter() - t0
        speed = hostspeed.factor([hostspeed.kernel_s() for _ in range(SETUP_KERNELS)])
        samples.append(t_import + t_generate * speed)
    digest = hashlib.sha256(workloads.job_list_bytes(jobs)).hexdigest()
    return statistics.median(samples), jobs, digest


# -- jobs --------------------------------------------------------------------------


class Runner:
    def __init__(self, tracer):
        import firebreak.cli
        import firebreak.game
        import firebreak.trees
        self.cli, self.game, self.trees = firebreak.cli, firebreak.game, firebreak.trees
        self.tracer = tracer
        self.deadline = Deadline()

    def _probe(self, job):
        spec = self.trees.load_tree_spec(job["spec"])
        budget = self.game.BudgetSequence.parse(job["budget"])
        return self.game.feasibility_check(spec, job["k"], budget, job["depth"])

    def run(self, job: dict, traced: bool) -> dict:
        """Run one job under its deadline and referee its answer."""
        out, err = io.StringIO(), io.StringIO()
        rec = {"id": job["id"], "code": None, "detail": ""}
        self.tracer.job, self.tracer.enabled = job["id"], traced
        t0 = time.perf_counter()
        try:
            try:
                self.deadline.arm(job["deadline_s"])
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if job["kind"] == "probe":
                        answer, rec["code"] = self._probe(job), 0
                    else:
                        rec["code"] = self.cli.main(job["argv"])
                        answer = out.getvalue()
            finally:
                self.deadline.disarm()
        except JobTimeout:
            rec["outcome"] = "timeout"
        except Exception as exc:  # a crash is an outcome to record, not to stop on
            rec["outcome"] = ("resource_limit" if type(exc).__name__ == "ResourceLimitError"
                              else "exception")
            rec["detail"] = repr(exc)
        rec["elapsed_s"] = time.perf_counter() - t0
        self.tracer.enabled = False
        self.tracer.end_job()
        rec["latency_s"] = job["deadline_s"] if rec.get("outcome") == "timeout" else rec["elapsed_s"]
        if "outcome" in rec:
            return rec
        stderr = err.getvalue().strip()
        if CAP_MESSAGE.search(stderr):
            rec["outcome"], rec["detail"] = "resource_limit", stderr
        elif rec["code"] == 2:
            rec["outcome"] = "indeterminate"
        elif rec["code"] != 0:
            rec["outcome"], rec["detail"] = "exception", stderr
        else:
            try:
                rec["outcome"] = referee.check(job, answer)
            except referee.Wrong as exc:
                rec["outcome"], rec["detail"] = "wrong", str(exc)
        return rec


def round_count(workload: str, seconds: float, trace: bool) -> int:
    """As many rounds as ``seconds`` holds at the workload's ROUND_S (at
    least HEAVY_REPS); a traced run spends two runs of each job on a round.
    The count depends on ``seconds`` only, never on measured time, so every
    run of a workload averages the same number of rounds."""
    per_round = workloads.ROUND_S[workload] * (2 if trace else 1)
    return max(workloads.HEAVY_REPS, round(seconds / per_round))


def rounds_of(job: dict, n_rounds: int, trace: bool = False) -> set[int]:
    """The rounds a job runs in: all, or ``reps`` of them spread evenly
    from the first round to the last; a job that runs once runs last.  A
    traced run runs a job with ``reps`` once, since the per-layer metrics
    are per run of the job list and no mean is taken."""
    if job["reps"] is None:
        return set(range(n_rounds))
    reps = 1 if trace else min(job["reps"], n_rounds)
    if reps == 1:
        return {n_rounds - 1}
    return {round(i * (n_rounds - 1) / (reps - 1)) for i in range(reps)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(runner, jobs, n_rounds: int, trace: bool):
    """Each round in turn, each of its jobs untraced and, with ``trace``,
    then traced; jobs that run once (the known hangs) come after all
    others.  The host-speed kernel runs before every job.  Returns the
    records of both, each tagged with its round, the process's peak RSS
    after it, the round's speed factor (``hostspeed``) and its time in
    reference-host seconds (``ref_s``; a timeout stays charged its
    deadline)."""
    schedule = {job["id"]: rounds_of(job, n_rounds, trace) for job in jobs}
    order = sorted(jobs, key=lambda job: len(schedule[job["id"]]) == 1)
    untraced, traced = [], []

    def run_one(job, rnd, traced_run, into):
        kernel_s = hostspeed.kernel_s()
        into.append(dict(runner.run(job, traced_run), round=rnd, rss_mb=peak_rss_mb(),
                         kernel_s=kernel_s))

    for rnd in range(n_rounds):
        for job in order:
            if rnd in schedule[job["id"]]:
                run_one(job, rnd, False, untraced)
                if trace:
                    run_one(job, rnd, True, traced)
    for rnd in range(n_rounds):
        in_round = [r for r in untraced + traced if r["round"] == rnd]
        speed = hostspeed.factor([r["kernel_s"] for r in in_round])
        for rec in in_round:
            rec["speed"] = speed
            rec["ref_s"] = rec["latency_s"] * (1.0 if rec["outcome"] == "timeout" else speed)
    return untraced, traced


# -- metrics -------------------------------------------------------------------------


def by_job(records) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        out.setdefault(r["id"], []).append(r)
    return out


def job_latencies(records) -> list[float]:
    """Each job's mean time over its rounds, in reference-host seconds."""
    return [statistics.fmean(r["ref_s"] for r in recs) for recs in by_job(records).values()]


def job_share(records, outcomes) -> float:
    """Mean over jobs of the share of a job's rounds with one of ``outcomes``."""
    groups = by_job(records).values()
    return statistics.fmean(sum(r["outcome"] in outcomes for r in recs) / len(recs)
                            for recs in groups)


def end_to_end(records, setup_s: float) -> dict[str, float]:
    """``peak_rss_mb`` is the peak after the last job that did not time
    out: how much a job gets to allocate before its deadline grows with
    the host's speed, so a timeout's memory is left out (the known hangs
    run last for this)."""
    latencies = job_latencies(records)
    return {
        "wall_s": sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": max(r["rss_mb"] for r in records if r["outcome"] != "timeout"),
        "decided_frac": job_share(records, ("decided",)),
        "ok_frac": 1.0 - job_share(records, FAILURES),
        "setup_s": setup_s,
    }


def per_layer(tracer, untraced, traced) -> dict[str, float]:
    """Layer totals for one run of the job list: a span of a job that ran
    in n traced rounds counts 1/n."""
    weight = {job: 1.0 / len(recs) for job, recs in by_job(traced).items()}
    metrics = tracing.layer_metrics(tracer.spans, weight)
    metrics["jobs.timeouts"] = sum(weight[r["id"]] for r in traced if r["outcome"] == "timeout")
    metrics["trace.overhead_frac"] = (sum(r["latency_s"] for r in traced)
                                      / sum(r["latency_s"] for r in untraced) - 1)
    metrics["trace.harness_share"] = harness_share(tracer, traced)
    return metrics


def harness_share(tracer, traced) -> float:
    """Share of the traced jobs' time not covered by a root span: the
    benchmark's own overhead around the program's calls."""
    job_s = sum(r["elapsed_s"] for r in traced)
    root_s = sum(s.duration for s in tracer.spans if s.parent is None)
    return (job_s - root_s) / job_s


def environment() -> dict:
    import numpy
    files = sorted(os.path.join(d, f) for d, _, fs in os.walk(SRC) for f in fs
                   if f.endswith(".py"))
    lines, digest = 0, hashlib.sha256()
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(data)
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "src_lines": lines,
            "src_sha256": digest.hexdigest(), "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(SRC, "firebreak", "__init__.py")):
        sys.stderr.write(f"bench: no firebreak sources under {SRC}\n")
        return 2

    os.chdir(ROOT)
    workdir = os.path.join(WORKDIR, args.workload)
    try:
        setup_s, jobs, digest = setup(args.workload, args.seed, workdir)
        n_rounds = round_count(args.workload, args.seconds, bool(args.trace))
        sys.path.insert(0, SRC)
        import firebreak
        if not os.path.abspath(firebreak.__file__).startswith(SRC + os.sep):
            sys.stderr.write(f"bench: imported firebreak from {firebreak.__file__}\n")
            return 2
        tracer = tracing.Tracer(JobTimeout)
        if args.trace:
            tracer.install()
        runner = Runner(tracer)
        untraced, traced = run_rounds(runner, jobs, n_rounds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)  # only when no other run is using it

    records = traced if args.trace else untraced
    if args.trace:
        values = per_layer(tracer, untraced, traced)
        wanted = declared["per_layer"]
    else:
        values = end_to_end(untraced, setup_s)
        wanted = declared["end_to_end"]
    counts = {o: sum(r["outcome"] == o for r in records) for o in sorted({r["outcome"] for r in records})}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} rounds {n_rounds} "
          f"n_jobs {len(jobs)} job runs {len(records)}, job_list_sha256 {digest}")
    print("round_wall_s (raw) " + " ".join(
        f"{sum(r['latency_s'] for r in records if r['round'] == rnd):.3f}"
        for rnd in range(n_rounds)))
    print("round_speed_factor " + " ".join(
        f"{next(r['speed'] for r in records if r['round'] == rnd):.3f}" for rnd in range(n_rounds))
          + " (reference-host s per measured s)")
    print("outcomes " + json.dumps(counts, sort_keys=True))
    for r in records:
        if r["outcome"] not in ("decided", "unchecked"):
            print(f"  {r['outcome']:<14} exit={r['code']} {r['latency_s']:.3f}s round {r['round']} "
                  f"{r['id']} {r['detail'][:200]}")
    if any(r["outcome"] == "resource_limit" and r["code"] == 1 for r in records):
        print("note: ResourceLimitError exits 1 today; ROADMAP aim 3 asks for exit 2")
    for key, value in sorted(values.items()):
        print(f"  {key} = {value:.6g}")
    if args.trace:
        for layer, moves in tracing.SHOULD_MOVE.items():
            print(f"  should move: {layer} -> {moves}")
    print("env " + json.dumps(environment(), sort_keys=True))
    failed = sum(r["outcome"] in FAILURES for r in records)
    result = {
        "correct": not any(r["outcome"] == "wrong" for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
