"""The pinned CLI runs of ``data/pinned/reports.jsonl``, in process through
``cli.main``, and the checker that reads them on stub rows.

Rows run in table order in one directory; running one row alone first runs
the rows above it, whose files it may read.  CI runs the same table as
fresh processes (``python tests/pinned_reports.py``).
"""

import json

import pytest

from pinned_reports import check, in_process, load, seed, sha256

ROWS = load()


@pytest.fixture(scope="module")
def problems_of(tmp_path_factory):
    workdir = seed(tmp_path_factory.mktemp("pinned"))
    pending, found = iter(ROWS), {}

    def problems(row):
        while row["id"] not in found:
            earlier = next(pending)
            found[earlier["id"]] = check(earlier, *in_process(earlier, workdir), workdir)
        return found[row["id"]]
    return problems


@pytest.mark.parametrize("row", ROWS, ids=[row["id"] for row in ROWS])
def test_pinned_run(row, problems_of):
    assert problems_of(row) == []


OUT = b"config.k = 1\nresult.bracket_lo = 1.0087\n"
STUB = {"id": "stub", "argv": ["br", "stub.tree", "--metrics", "m.json"], "exit": 2,
        "stdout": sha256(OUT), "lines": ["result.bracket_lo = 1.0087"],
        "stderr": "FIREBREAK_VERTEX_CAP", "files": {"t.trace": sha256(b"round 1\n")}}
ERR = "firebreak: cap is 10 (FIREBREAK_VERTEX_CAP)\n"


def one_off(text: str) -> str:
    """``text`` with its last character changed."""
    return text[:-1] + ("0" if text[-1] != "0" else "1")


@pytest.fixture
def stub_dir(tmp_path):
    (tmp_path / "t.trace").write_bytes(b"round 1\n")
    (tmp_path / "m.json").write_text(json.dumps({"peak_rss_mb": 40.5, "wall_s": 0.01}))
    return tmp_path


def test_stub_row_passes(stub_dir):
    assert check(STUB, 2, OUT, ERR, 0.1, stub_dir) == []


@pytest.mark.parametrize("key, value", [
    ("stdout", one_off(STUB["stdout"])),
    ("files", {"t.trace": one_off(STUB["files"]["t.trace"])}),
    ("files", {"u.trace": STUB["files"]["t.trace"]}),
    ("exit", 3),
    ("lines", ["result.bracket_lo = 1.0088"]),
    ("lines", ["result.bracket_lo = 1.008"]),  # a line's prefix is not the line
    ("stderr", one_off(STUB["stderr"])),
    ("timeout", 0.05),
], ids=["stdout", "file", "no-file", "exit", "line", "line-prefix", "stderr", "timeout"])
def test_stub_row_one_pin_off_fails(key, value, stub_dir):
    assert len(check({**STUB, key: value}, 2, OUT, ERR, 0.1, stub_dir)) == 1


@pytest.mark.parametrize("metrics", ['{"peak_rss_mb": 40.5, "wall_s": 0}', '{"wall_s": 1}', "{"],
                         ids=["zero", "missing", "malformed"])
def test_stub_row_bad_metrics_fails(metrics, stub_dir):
    (stub_dir / "m.json").write_text(metrics)
    assert len(check(STUB, 2, OUT, ERR, 0.1, stub_dir)) == 1


@pytest.mark.parametrize("text, message", [
    ("", "no row"),
    ('{"id": "a", "argv": ["br", "fib.tree"]}\n', "pins nothing"),
    ('{"id": "a", "argv": ["br", "fib.tree"], "lines": []}\n', "pins nothing"),
    ('{"id": "a", "argv": ["br", "fib.tree"], "stdot": "00"}\n', "unknown keys"),
    ('{"id": "a", "argv": ["br"], "stderr": "x"}\n{"id": "a", "argv": ["br"], "stderr": "x"}\n',
     "repeated"),
], ids=["empty", "no-pin", "empty-pin", "misspelt-pin", "repeated-id"])
def test_table_that_checks_nothing_is_refused(text, message, tmp_path):
    (table := tmp_path / "reports.jsonl").write_text(text)
    with pytest.raises(ValueError, match=message):
        load(table)
