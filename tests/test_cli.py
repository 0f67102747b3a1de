import ast
import doctest
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import wcell
from wcell import builder
from wcell import hecke
from wcell import tableaux as tb
from wcell import wgraph as wg
from wcell import cli
from wcell.cli import run


def test_tableaux_count(capsys):
    assert run(["tableaux", "--shape", "2,1", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_tableaux_count_is_default(capsys):
    assert run(["tableaux", "--shape", "5,5,3,3"]) == 0
    assert capsys.readouterr().out.strip() == "171600"


def test_tableaux_list(capsys):
    assert run(["tableaux", "--shape", "2,1", "--list"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 3/2", "1 2/3"]


def test_malformed_shape_is_usage_error(capsys):
    assert run(["tableaux", "--shape", "2,3"]) == 2
    assert "weakly decreasing" in capsys.readouterr().err
    assert run(["tableaux", "--shape", "a,b"]) == 2
    assert run(["build", "--shape", "0", "--out", "/tmp/x.json"]) == 2
    # an empty --shape is a malformed shape, not "every shape"
    assert run(["build", "--shape", "", "--out", "/tmp/x.json"]) == 2
    capsys.readouterr()
    assert run(["oracle", "--n", "3", "--shape", ""]) == 2
    assert "malformed shape ''" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    assert run(["tableaux", "--bogus"]) == 2
    assert run(["frobnicate"]) == 2


def test_build_single_vertex(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(["build", "--shape", "1", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["vertices"]) == 1 and obj["mu"] == []


def test_a_column_of_2000_boxes_builds_and_lists(tmp_path, capsys):
    # far deeper than the recursion limit: the tableaux are enumerated on an
    # explicit stack
    out = tmp_path / "g.json"
    assert run(["build", "--shape", "2000", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["vertices"]) == 1
    assert run(["tableaux", "--shape", "2000", "--list"]) == 0
    assert capsys.readouterr().out == "/".join(map(str, range(1, 2001))) + "\n"


def test_a_row_of_600_boxes_builds_and_verifies_quickly(tmp_path):
    # one vertex whose column word holds 600 letters: the dominance keys
    # are made in time linear in their size, not quadratic
    out = tmp_path / "g.json"
    start = time.perf_counter()
    assert run(["build", "--shape", ",".join(["1"] * 600), "--out", str(out)]) == 0
    assert run(["verify", "--in", str(out), "--hecke"]) == 0
    assert time.perf_counter() - start < 15


def test_build_verify_roundtrip_bit_identical(tmp_path):
    out = tmp_path / "g.json"
    dot = tmp_path / "g.dot"
    assert run(["build", "--shape", "3,2", "--out", str(out), "--dot", str(dot)]) == 0
    first = out.read_text()
    assert run(["verify", "--in", str(out), "--hecke"]) == 0
    # rebuilding must reproduce the file byte for byte
    out2 = tmp_path / "g2.json"
    assert run(["build", "--shape", "3,2", "--out", str(out2)]) == 0
    assert out2.read_text() == first
    assert dot.read_text().startswith("digraph")


def test_verify_rules_subset(tmp_path, capsys):
    out = tmp_path / "g.json"
    run(["build", "--shape", "2,2", "--out", str(out)])
    assert run(["verify", "--in", str(out), "--rules", "admissible,polygon"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split(":")[0] for l in lines] == ["admissible", "polygon-r2", "polygon-r3"]
    assert run(["verify", "--in", str(out), "--rules", "bogus"]) == 2


def test_verify_corrupted_graph_fails(tmp_path, capsys):
    out = tmp_path / "g.json"
    run(["build", "--shape", "2,2", "--out", str(out)])
    obj = json.loads(out.read_text())
    obj["mu"][0]["w"] = 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(["verify", "--in", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_missing_file(capsys):
    assert run(["verify", "--in", "/nonexistent/g.json"]) == 2


def test_verify_unparseable_file(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("{not json")
    assert run(["verify", "--in", str(bad)]) == 2


_GOOD = {
    "n": 3,
    "vertices": [{"id": 0, "tau": [1], "label": None}, {"id": 1, "tau": [2], "label": None}],
    "mu": [],
}


@pytest.mark.parametrize(
    "doc",
    [
        [_GOOD],
        {**_GOOD, "mu": 5},
        {**_GOOD, "n": "3"},
        {**_GOOD, "vertices": 5},
        {**_GOOD, "vertices": [5]},
        {**_GOOD, "vertices": [{"id": 0, "tau": [1.5], "label": None}]},
        {**_GOOD, "vertices": [{"id": 0, "tau": ["x"], "label": None}]},
        {**_GOOD, "vertices": [{"id": 0, "tau": 1, "label": None}]},
        {**_GOOD, "vertices": [{"id": "0", "tau": [1], "label": None}]},
        {**_GOOD, "vertices": [{"id": 0, "tau": [1], "label": 7}]},
        {**_GOOD, "vertices": [{"id": 0, "tau": [1], "label": {"molecule": 0, "tableau": 1}}]},
        {**_GOOD, "mu": [{"from": 0, "to": 1, "w": 1.5}]},
        {**_GOOD, "mu": [{"from": 0, "to": 1, "w": "x"}]},
        {**_GOOD, "mu": [{"from": 0, "to": 1, "w": True}]},
        {**_GOOD, "mu": [{"from": 0.0, "to": 1, "w": 1}]},
        {**_GOOD, "mu": [[0, 0, 1]]},
        {
            **_GOOD,
            "mu": [
                {"from": 0, "to": 1, "w": 1},
                {"from": 1, "to": 0, "w": 1},
                {"from": 0, "to": 1, "w": 5},
            ],
        },
        {"vertices": [], "mu": []},
        {"n": 0, "vertices": [], "mu": []},
        {"n": -5, "vertices": [{"id": 0, "tau": [], "label": None}], "mu": []},
        {
            **_GOOD,
            "vertices": [
                {"id": 0, "tau": [1], "label": {"molecule": 0, "tableau": "1"}},
                {"id": 1, "tau": [2], "label": {"molecule": 0, "tableau": "1 2/3 4"}},
            ],
        },
    ]
    + [
        # label text that StandardTableau.text() never writes, so the
        # document could not be written back byte for byte
        {**_GOOD, "vertices": [{"id": 0, "tau": [1], "label": {"molecule": 0, "tableau": text}}]}
        for text in (" 1", "1  2", "1\n2", "\u0661", "/")
    ]
    + [
        # colour lists, which the loader checks item by item: an unhashable
        # item must not escape as a TypeError, and a list equal to a good
        # one ([true] == [1], [1.0] == [1]) must not pass on its equality
        {**_GOOD, "vertices": [{"id": 0, "tau": colours, "label": None}]}
        for colours in ([[]], [{}], [1.5], [True], ["1"], [1, [2]])
    ]
    + [
        {**_GOOD, "vertices": [_GOOD["vertices"][0], {"id": 1, "tau": colours, "label": None}]}
        for colours in ([True], [1.0], [1, True])
    ]
    + [
        # a colour outside the generators 1..n-1: 0, -1 and n
        {**_GOOD, "vertices": [{"id": 0, "tau": [c], "label": None}]}
        for c in (0, -1, 3)
    ]
    + [
        # a colour above wg.MAX_COLOUR: its bit mask would not fit in memory
        {"n": n, "vertices": [{"id": 0, "tau": [n - 1], "label": None}], "mu": []}
        for n in (wg.MAX_COLOUR + 2, 10**18)
    ],
)
def test_malformed_graph_document_is_usage_error(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--in", str(bad), "--rules", "admissible"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse") and "Traceback" not in err


def test_verify_of_a_wide_one_vertex_document_is_quick(tmp_path):
    # the rules and the Hecke check try only generators within distance 1
    # of a colour, so a document without colours costs nothing in n; with
    # every colour but no weight, the Hecke check tries no commuting pair,
    # and with one weight out of the vertex coloured 1..2999 every generator
    # colours that vertex alone, so all A_s are equal and commute, and no
    # pair of generators can fail the polygon rule; bonding makes a mask of
    # the bonds next to a colour, not of every generator up to n
    path = tmp_path / "wide.json"
    five = "admissible,compatibility,simplicity,bonding,polygon"
    bare = {"id": 0, "tau": [], "label": None}
    full = {"id": 0, "tau": list(range(1, 3000)), "label": None}
    for n, vertices, mu, rules in (
        (3000, [bare], [], five),
        (10**9, [bare], [], five),
        (10**18, [bare], [], five),
        (3000, [full], [], five),
        (3000, [full, {**bare, "id": 1}], [{"from": 0, "to": 1, "w": 1}], "admissible,polygon"),
    ):
        doc = {"n": n, "vertices": vertices, "mu": mu}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run(["verify", "--in", str(path), "--rules", rules, "--hecke"]) == 0
        assert time.perf_counter() - start < 10


def test_hecke_check_stops_at_the_tenth_failing_pair(tmp_path, capsys):
    # every generator colours one of the two vertices, so about 2.2M
    # commuting pairs can fail; making and sorting all of them first takes
    # about 10 s, so the check makes them in order only as far as the tenth
    # failure, the first of which is (1, 4)
    n = 3000
    doc = {
        "n": n,
        "vertices": [
            {"id": 0, "tau": list(range(1, n, 2)), "label": None},
            {"id": 1, "tau": list(range(2, n, 2)), "label": None},
        ],
        "mu": [{"from": 0, "to": 1, "w": 1}, {"from": 1, "to": 0, "w": 1}],
    }
    path = tmp_path / "alternating.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert run(["verify", "--in", str(path), "--rules", "admissible", "--hecke"]) == 1
    assert time.perf_counter() - start < 2
    out = capsys.readouterr().out
    assert "hecke-relations: FAIL first witness: ('commuting', 1, 4, 0, 0)" in out


_FUZZ_SHAPES = tuple(lam for n in range(1, 7) for lam in tb.partitions_of(n))
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.lists(st.integers(-1, 6), max_size=3),
    st.dictionaries(st.sampled_from(["id", "tau", "label", "from", "to", "w"]), st.integers(-1, 6)),
)


def _slots(x, path=()):
    """Paths to every entry of the nested dicts and lists of a JSON value."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _slots(v, path + (k,))


@st.composite
def _mutated_documents(draw):
    """The document of a small built graph with a few keys removed, values
    swapped for junk, lists grown and n redrawn."""
    lam = draw(st.sampled_from(_FUZZ_SHAPES))
    doc = json.loads(wg.to_json_str(builder.build_cell_graph(lam)))
    for _ in range(draw(st.integers(1, 4))):
        *parent_path, key = draw(st.sampled_from(list(_slots(doc))))
        parent = doc
        for k in parent_path:
            parent = parent[k]
        action = draw(st.sampled_from(["remove", "junk", "grow", "n"]))
        value = parent[key]
        if action == "remove":
            del parent[key]
        elif action == "junk":
            parent[key] = draw(_JUNK)
        elif action == "grow" and isinstance(value, list):
            value.extend(draw(st.lists(st.sampled_from(value) if value else _JUNK, max_size=3)))
        elif action == "n":
            doc["n"] = draw(st.integers(-2, 10))
        if not doc:
            break
    return doc


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_mutated_documents())
def test_mutated_graph_documents_keep_the_exit_code_contract(tmp_path, capsys, doc):
    path, dot = tmp_path / "doc.json", tmp_path / "doc.dot"
    path.write_text(json.dumps(doc))
    unlabelled = "admissible,compatibility,simplicity,bonding,polygon"
    for argv in (
        ["verify", "--in", str(path), "--rules", "all", "--hecke"],
        ["verify", "--in", str(path), "--rules", unlabelled, "--hecke"],
        ["export", "--in", str(path), "--dot", str(dot)],
    ):
        assert run(argv) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err


def test_deeply_nested_document_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000)
    assert run(["verify", "--in", str(bad), "--rules", "admissible"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse") and "Traceback" not in err


def test_ordered_on_unlabelled_graph_is_usage_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_GOOD))
    for rules in ("all", "ordered", "admissible,ordered"):
        assert run(["verify", "--in", str(path), "--rules", rules]) == 2
        err = capsys.readouterr().err
        assert "'ordered'" in err and "Traceback" not in err
    assert run(["verify", "--in", str(path), "--rules", "admissible"]) == 0


def test_oracle_rank_below_one_is_usage_error(capsys):
    for n in ("0", "-1"):
        assert run(["oracle", "--n", n]) == 2
        captured = capsys.readouterr()
        assert "--n must be at least 1" in captured.err and captured.out == ""


def test_oracle_rank_above_the_bound_fails_before_any_work(monkeypatch, capsys):
    # p(60) = 966467 shapes would be enumerated before the first build
    def boom(*_args):
        raise AssertionError("work done before the bound check")

    monkeypatch.setenv("WCELL_ORACLE_MAX", "6")
    monkeypatch.setattr(tb, "partitions_of", boom)
    monkeypatch.setattr(builder, "build_cell_graph", boom)
    assert run(["oracle", "--n", "60"]) == 2
    err = capsys.readouterr().err
    assert "n=60 exceeds the oracle bound 6" in err


def test_oracle_reads_the_bound_once(monkeypatch, capsys):
    # the one column store of the run checks it; the shapes do not
    bound, read = hecke.oracle_bound, []

    def counted():
        read.append(1)
        return bound()

    monkeypatch.setattr(hecke, "oracle_bound", counted)
    assert run(["oracle", "--n", "5"]) == 0
    assert capsys.readouterr().out.count("EQUAL") == 7
    assert len(read) == 1


def _fresh_interpreter(*argv, stdout=subprocess.PIPE, **env):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=path, **env),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_non_integer_oracle_bound_is_usage_error():
    # a fresh process, so that the bound is read from the environment the
    # way the installed command reads it
    out = _fresh_interpreter("-m", "wcell.cli", "oracle", "--n", "3", WCELL_ORACLE_MAX="abc")
    assert out.returncode == 2
    assert "WCELL_ORACLE_MAX" in out.stderr and "'abc'" in out.stderr
    assert "Traceback" not in out.stderr


def test_cli_import_leaves_numpy_out():
    out = _fresh_interpreter("-c", "import sys, wcell.cli; print('numpy' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_rsk_out():
    out = _fresh_interpreter("-c", "import sys, wcell.cli; print('wcell.rsk' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_dataclasses_and_inspect_out_and_builds_no_parser():
    code = (
        "import sys, wcell.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), "
        "wcell.cli._build_parser.cache_info().currsize)"
    )
    out = _fresh_interpreter("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[] 0"


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_one_process_runs_commands_as_each_runs_alone(tmp_path, capsys, monkeypatch):
    # help text wraps at the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    doc = str(tmp_path / "g.json")
    commands = [
        (["tableaux"], 2),
        (["build", "--shape", "3,2", "--out", doc], 0),
        (["--help"], 0),
        (["verify", "--in", doc, "--rules", "bogus"], 2),
        (["verify", "--in", doc, "--hecke"], 0),
        (["tableaux", "--shape", "2,1", "--list"], 0),
    ]
    shared = []
    for argv, code in commands:
        assert run(argv) == code, argv
        shared.append(capsys.readouterr())
    written = pathlib.Path(doc).read_text()
    for (argv, code), seen in zip(commands, shared):
        alone = _fresh_interpreter("-m", "wcell.cli", *argv)
        assert (alone.returncode, alone.stdout, alone.stderr) == (code, seen.out, seen.err), argv
    assert pathlib.Path(doc).read_text() == written
    assert "usage: wcell" in shared[0].err and "usage: wcell" in shared[2].out
    assert "unknown rule 'bogus'" in shared[3].err
    assert shared[5].out.splitlines() == ["1 3/2", "1 2/3"]


def test_package_imports_only_the_standard_library():
    package = pathlib.Path(__file__).parent.parent / "src" / "wcell"
    modules = sorted(package.rglob("*.py"))
    imported = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert len(modules) >= 10 and {"argparse", "bisect"} <= imported
    assert {m for m in imported if m != "wcell" and m not in sys.stdlib_module_names} == set()


def test_only_the_laurent_module_imports_it():
    package = pathlib.Path(__file__).parent.parent / "src" / "wcell"
    importers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "laurent" for name in names):
                importers.add(path.name)
    assert importers <= {"laurent.py"}


def test_docstring_examples_pass():
    modules = [wcell] + [importlib.import_module(f"wcell.{m.name}") for m in pkgutil.iter_modules(wcell.__path__)]
    attempted = {}
    for module in modules:
        failed, attempted[module.__name__] = doctest.testmod(module)
        assert failed == 0, module.__name__
    assert all(attempted[f"wcell.{name}"] for name in ("laurent", "tableaux", "rsk"))


def test_oracle_small_rank(capsys):
    assert run(["oracle", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "shape 3: EQUAL",
        "shape 2,1: EQUAL",
        "shape 1,1,1: EQUAL",
    ]


def test_oracle_single_shape(capsys):
    assert run(["oracle", "--n", "5", "--shape", "3,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "shape 3,1,1: EQUAL"
    assert run(["oracle", "--n", "5", "--shape", "3,1"]) == 2


def _oracle_in_a_fresh_process(n):
    if hecke.oracle_bound() < n:
        pytest.skip(f"needs WCELL_ORACLE_MAX >= {n}")
    out = _fresh_interpreter("-m", "wcell.cli", "oracle", "--n", str(n))
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_oracle_runs_make_their_columns_afresh(capsys, made_columns):
    # the store lives for one run: a second run makes every column again
    made = made_columns
    assert run(["oracle", "--n", "5"]) == 0
    first = list(made)
    assert run(["oracle", "--n", "5"]) == 0
    assert first and made == first + first
    assert capsys.readouterr().out.count("EQUAL") == 14


def test_output_closed_by_its_reader_is_exit_2_without_a_traceback():
    # as in `wcell oracle --n 6 | head -1`, with the reader gone before the
    # first write
    read, write = os.pipe()
    os.close(read)
    try:
        out = _fresh_interpreter("-m", "wcell.cli", "oracle", "--n", "3", stdout=write)
    finally:
        os.close(write)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr


def test_builder_equals_oracle_at_rank_7():
    lines = _oracle_in_a_fresh_process(7)
    assert len(lines) == 15 and all(line.endswith(": EQUAL") for line in lines)


def test_builder_equals_oracle_at_rank_8():
    # about 3 s and 102 MB peak in the child, which keeps every KL column of
    # the run in one store; runs where WCELL_ORACLE_MAX admits rank 8
    lines = _oracle_in_a_fresh_process(8)
    assert len(lines) == 22 and all(line.endswith(": EQUAL") for line in lines)


def test_rsk_command(capsys):
    assert run(["rsk", "--perm", "3,1,4,2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("P: ") and out[1].startswith("Q: ")
    assert run(["rsk", "--perm", "3,3,1"]) == 2


def test_export(tmp_path):
    src = tmp_path / "g.json"
    run(["build", "--shape", "2,1", "--out", str(src)])
    dot = tmp_path / "g.dot"
    assert run(["export", "--in", str(src), "--dot", str(dot)]) == 0
    assert "v0" in dot.read_text()
