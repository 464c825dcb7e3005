"""The pinned CLI runs: one table, ``data/pinned/reports.jsonl``, one run a line.

Each line is a JSON object:

* ``id``: the row's name;
* ``argv``: the command line after ``firebreak``;
* ``env`` (optional): environment variables set for the run;
* ``exit`` (default 0): the exit code;
* ``stdout`` (optional): the sha256 of stdout;
* ``lines`` (optional): lines stdout holds, each whole;
* ``stderr`` (optional): a substring of stderr;
* ``files`` (optional): the sha256 of each file the run leaves, by path;
* ``timeout`` (default 30): the seconds the run may take;
* ``nonumpy`` (optional): true for a run that builds no array, which is run
  again as a fresh process under a ``numpy.py`` that raises ImportError.

Rows run in order in one directory that starts with the ``*.tree`` specs
beside the table, so a row reads what an earlier one wrote (a trace, a
cache).  A run with ``--metrics FILE`` leaves FILE holding a positive
``wall_s`` and ``peak_rss_mb``.  A change that moves a report edits its row.

``tests/test_pinned_reports.py`` runs every row in process through
``cli.main``.  ``python tests/pinned_reports.py`` runs every row as a fresh
``python -m firebreak.cli`` process, then the ``nonumpy`` rows numpy-less,
prints a line a run and exits 1 when a pin fails.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

TABLE = Path(__file__).parent / "data" / "pinned" / "reports.jsonl"
SRC = Path(__file__).resolve().parents[1] / "src"
KEYS = {"id", "argv", "env", "exit", "stdout", "lines", "stderr", "files", "timeout", "nonumpy"}
PINS = ("stdout", "lines", "stderr", "files")
METRICS_KEYS = ("wall_s", "peak_rss_mb")


def load(path: Path = TABLE) -> list[dict]:
    """The table's rows; ValueError for an unknown key, a repeated id, a row
    that pins nothing past its exit code, or no row at all."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for row in rows:
        if unknown := set(row) - KEYS:
            raise ValueError(f"{path}: row {row.get('id')!r} has unknown keys {sorted(unknown)}")
        if not any(row.get(pin) for pin in PINS):
            raise ValueError(f"{path}: row {row['id']!r} pins nothing past its exit code")
    if not rows:
        raise ValueError(f"{path}: no row")
    if len({row["id"] for row in rows}) != len(rows):
        raise ValueError(f"{path}: a row id is repeated")
    return rows


def seed(workdir: Path) -> Path:
    """``workdir`` holding the table's specs, as the first row finds it."""
    workdir.mkdir(parents=True, exist_ok=True)
    for spec in TABLE.parent.glob("*.tree"):
        shutil.copy(spec, workdir)
    return workdir


def in_process(row: dict, workdir: Path):
    """The row run through ``cli.main`` in ``workdir``: exit code, stdout
    bytes, stderr text and seconds."""
    from firebreak.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    start = time.perf_counter()
    try:
        with mock.patch.dict(os.environ, row.get("env", {})), redirect_stdout(out), \
                redirect_stderr(err):
            code = main(row["argv"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode(), err.getvalue(), time.perf_counter() - start


def fresh(row: dict, workdir: Path, blocked: Path | None = None):
    """The row run as a fresh process in ``workdir``, with ``blocked``'s
    ``numpy.py`` first on the path when given; exit code None past the timeout."""
    path = [str(blocked)] if blocked else []
    env = {**os.environ, **row.get("env", {}), "PYTHONPATH": os.pathsep.join([*path, str(SRC)])}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "firebreak.cli", *row["argv"]], cwd=workdir,
                              env=env, capture_output=True, timeout=row.get("timeout", 30))
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = None, exc.stdout or b"", exc.stderr or b""
    return code, out, err.decode(errors="replace"), time.perf_counter() - start


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(row: dict, code, out: bytes, err: str, seconds: float, workdir: Path) -> list[str]:
    """What of the row's pins its run missed, read right after the run."""
    problems = []
    if code != (want := row.get("exit", 0)):
        problems.append(f"exit {code}, pinned {want}")
    if "stdout" in row and (got := sha256(out)) != row["stdout"]:
        problems.append(f"stdout sha256 {got}, pinned {row['stdout']}")
    lines = set(out.decode(errors="replace").splitlines())
    problems += [f"stdout has no line {line!r}" for line in row.get("lines", ()) if line not in lines]
    if "stderr" in row and row["stderr"] not in err:
        problems.append(f"stderr lacks {row['stderr']!r}: {err[-400:]!r}")
    for name, want in row.get("files", {}).items():
        got = sha256(path.read_bytes()) if (path := workdir / name).is_file() else "no file"
        if got != want:
            problems.append(f"{name} sha256 {got}, pinned {want}")
    argv = row["argv"]
    if "--metrics" in argv:
        name = argv[argv.index("--metrics") + 1]
        try:
            metrics = json.loads((workdir / name).read_text())
            if not all(type(metrics[k]) in (int, float) and metrics[k] > 0 for k in METRICS_KEYS):
                problems.append(f"{name} has no positive {' and '.join(METRICS_KEYS)}: {metrics}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{name} is no metrics file ({exc!r})")
    if seconds > (limit := row.get("timeout", 30)):
        problems.append(f"took {seconds:.1f} s, past its timeout of {limit} s")
    return problems


def main() -> int:
    """Every row as a fresh process, then the ``nonumpy`` rows numpy-less."""
    rows = load()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        blocked = Path(tmp, "nonumpy")
        blocked.mkdir()
        (blocked / "numpy.py").write_text('raise ImportError("numpy is blocked")\n')
        for label, chosen, numpy_path in [("fresh", rows, None),
                                          ("nonumpy", [r for r in rows if r.get("nonumpy")], blocked)]:
            workdir = seed(Path(tmp, label))
            for row in chosen:
                code, out, err, seconds = fresh(row, workdir, numpy_path)
                problems = check(row, code, out, err, seconds, workdir)
                failed += bool(problems)
                print(f"{'FAIL' if problems else 'ok  '} {label:7} {row['id']} ({seconds:.2f} s)")
                for problem in problems:
                    print(f"     {problem}")
    print(f"{failed} failed" if failed else "every pin holds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
