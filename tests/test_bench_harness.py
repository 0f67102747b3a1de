import importlib.util
import json
import os
import shlex
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("harness", _ROOT / "bench" / "harness.py")
harness = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(harness)


def test_alternate_reverses_the_sides_on_odd_rounds():
    order = []

    def run(src):
        order.append(src)
        return len(order)

    runs = harness.alternate({"before": "old", "after": "new"}, 4, run)
    assert order == ["old", "new", "new", "old", "old", "new", "new", "old"]
    assert runs == {"before": [1, 4, 5, 8], "after": [2, 3, 6, 7]}


def test_agreed_returns_the_shared_values_and_names_a_disagreeing_key():
    runs = {"before": [{"digest": "a", "s": 1}], "after": [{"digest": "a", "s": 2}]}
    assert harness.agreed("n=6", runs, ("digest",)) == {"digest": "a"}
    runs["after"].append({"digest": "b", "s": 3})
    with pytest.raises(SystemExit) as exc:
        harness.agreed("n=6", runs, ("s", "digest"))
    # a string code makes the interpreter print it and exit 1
    assert exc.value.code == "n=6: the runs disagree on s: 1 and 2"


def test_child_returns_its_json_and_stops_with_the_stderr_tail_on_failure():
    code = "import json, os, sys; print(json.dumps([sys.argv[1:], os.environ['WCELL_X']]))"
    assert harness.child("src", code, 7, "a", WCELL_X=8) == [["7", "a"], "8"]
    path = harness.child("src", "import json, os; print(json.dumps(os.environ['PYTHONPATH']))",
                         tests=True)
    assert path == os.pathsep.join([os.path.abspath("src"), os.path.abspath("tests")])
    failing = "import sys; sys.stderr.write('x' * 2000 + 'the last words'); sys.exit(3)"
    with pytest.raises(SystemExit) as exc:
        harness.child("src", failing)
    assert exc.value.code.startswith("a child on src exited 3: x")
    assert exc.value.code.endswith("the last words") and len(exc.value.code) < 600


def test_quartiles_are_inclusive_and_rounded():
    assert harness.quartiles([5, 1, 3, 2, 4]) == {"median": 3, "q1": 2, "q3": 4}
    assert harness.quartiles([0.123456, 0.2, 0.3], digits=3) == {
        "median": 0.2, "q1": 0.162, "q3": 0.25
    }


def test_write_names_the_commit_and_whether_the_tree_differs_from_it(tmp_path, monkeypatch):
    def git(*argv):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        ).stdout.strip()

    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    monkeypatch.chdir(tmp_path)
    records = []
    for change in (None, "two\n"):
        if change:
            (tmp_path / "a.txt").write_text(change)
        harness.write("out.json", "what", "command", rows=[1])
        records.append(json.loads((tmp_path / "out.json").read_text()))
    head = git("rev-parse", "HEAD")
    assert [(r["commit"], r["dirty"]) for r in records] == [(head, False), (head, True)]
    assert list(records[0])[:4] == ["what", "command", "commit", "dirty"]
    assert records[0]["rows"] == [1]


def test_every_record_names_an_existing_script_that_writes_it():
    records = sorted(_ROOT.glob("BENCH_*.json"))
    assert records
    for record in records:
        argv = shlex.split(json.loads(record.read_text())["command"])
        script = argv[1]
        assert argv[0] == "python3" and script.startswith("bench/") and script.endswith(".py")
        assert (_ROOT / script).is_file(), f"{record.name} runs {script}, which is gone"
        assert argv[argv.index("--out") + 1] == record.name, record.name
