"""Command-line interface.

Exit codes: 0 all checks pass / output written, 1 a verification failed,
2 usage or parse errors (bad flags, malformed shapes, unreadable files) and
output that cannot be written (an unwritable file, or standard output
closed by its reader, as in `wcell oracle --n 6 | head -1`).

Shapes are comma-separated column heights ("5,4,2"); tableaux print as
'/'-separated rows, e.g. "1 3/2".
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from . import builder, hecke
from . import tableaux as tb
from . import wgraph as wg
from .permutations import Permutation


class _UsageError(Exception):
    pass


def _parse_shape(text: str):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise _UsageError(f"malformed shape {text!r}: expected comma-separated integers")
    if not tb.is_partition(parts):
        raise _UsageError(
            f"malformed shape {text!r}: parts must be positive and weakly decreasing"
        )
    return parts


def _load_graph(path: str) -> wg.SColoredGraph:
    try:
        with open(path) as fh:
            return wg.from_json_str(fh.read())
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise _UsageError(f"cannot parse {path}: {exc}")


def _write(path: str, chunks) -> None:
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}")


def _cmd_tableaux(args) -> int:
    shape = _parse_shape(args.shape)
    if args.list:
        for t in tb.enumerate_std(shape):
            print(t.text())
    else:
        print(tb.hook_count(shape))
    return 0


def _cmd_build(args) -> int:
    shape = _parse_shape(args.shape)
    g = builder.build_cell_graph(shape)
    _write(args.out, wg.json_chunks(g))
    if args.dot:
        _write(args.dot, [wg.to_dot(g)])
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.infile)
    names = wg.ALL_RULES if args.rules == "all" else tuple(args.rules.split(","))
    for name in names:
        if name not in wg.ALL_RULES:
            raise _UsageError(f"unknown rule {name!r}; choose from {', '.join(wg.ALL_RULES)}")
    if "ordered" in names and not g.is_labelled():
        raise _UsageError(
            f"rule 'ordered' needs a (molecule, tableau) label on every vertex of {args.infile}"
        )
    reports = wg.run_checks(g, names)
    if args.hecke:
        reports.append(hecke.verify_hecke_relations(g))
    for r in reports:
        print(r.summary())
    return 0 if all(r.ok for r in reports) else 1


def _cmd_oracle(args) -> int:
    n = args.n
    if n < 1:
        raise _UsageError(f"--n must be at least 1, got {n}")
    # one store for every shape, made first: it checks the bound before any
    # work, their cells reach the same short elements, and each KL column is
    # made once; it goes when the command returns
    columns = hecke.kl_columns(n, ())
    shapes = tb.partitions_of(n) if args.shape is None else [_parse_shape(args.shape)]
    if args.shape is not None and sum(shapes[0]) != n:
        raise _UsageError(f"shape {args.shape} is not a partition of {n}")
    failures = 0
    for lam in shapes:
        g = builder.build_cell_graph(lam)
        o = hecke.kl_left_cell_graph(lam, columns)
        same = hecke.graphs_equal_under(g, o, g.vertices())
        print(f"shape {','.join(map(str, lam))}: {'EQUAL' if same else 'DIFFER'}")
        failures += 0 if same else 1
    return 0 if failures == 0 else 1


def _cmd_rsk(args) -> int:
    try:
        w = Permutation.from_text(args.perm)
    except ValueError as exc:
        raise _UsageError(f"bad permutation {args.perm!r}: {exc}")
    from .rsk import rs

    p, q = rs(w)
    print(f"P: {p.text()}")
    print(f"Q: {q.text()}")
    return 0


def _cmd_export(args) -> int:
    g = _load_graph(args.infile)
    _write(args.dot, [wg.to_dot(g)])
    return 0


# Built on the first run and kept: building it takes about 1 ms, five times a
# one-vertex build, and a process that calls run many times would pay that on
# every call.  Parsing leaves no state on the parser.  It is not built at
# import, which would add that 1 ms to every process, whatever its command.
@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wcell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tableaux", help="count or list standard tableaux of a shape")
    p.add_argument("--shape", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true")
    group.add_argument("--count", action="store_true")
    p.set_defaults(func=_cmd_tableaux)

    p = sub.add_parser("build", help="build the left-cell graph of a shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run rule checkers on a graph file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--rules", default="all")
    p.add_argument("--hecke", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="compare built graphs against the KL oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shape")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("rsk", help="insertion and recording tableaux of a permutation")
    p.add_argument("--perm", required=True)
    p.set_defaults(func=_cmd_rsk)

    p = sub.add_parser("export", help="convert a graph file to DOT")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dot", required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (_UsageError, hecke.OracleBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output; point it at devnull so that the
        # flush at exit finds nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
