"""Command-line front end: inspect loci, export graphs, and run the suite.

Verbs map one-to-one onto library entry points; ``--json`` switches any
verb to machine-readable output carrying a ``schema`` version field.
Exit codes: 0 success, 1 internal assertion failure, 2 usage or invalid
input, 3 refused desk-scale bound (override with ``--force``) or a count
with more digits than the interpreter prints (:func:`_printable`).
The parser is built once per process, and ``census`` imports its process
pool only when it runs more than one job.

Each rule has one home here: a flag that several verbs share is declared
once, on a parent parser (:func:`build_parser`); the tableau-file verbs
read their input through :func:`_load_input` and print tableaux through
:func:`_print_tableaux`.  Where a counting route applies, and the sweep
over every route, live in :mod:`prymbn.counting`.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from functools import cache
from typing import Any

from .core import (
    GuardRefused,
    InvalidInputError,
    InvariantError,
    PrymParams,
    Tableau,
    shape_family,
)
from .counting import (
    _product_rule,
    applicable_routes,
    cardinality,
    max_cell_count,
    route_counts,
)
from .dimension import expected_codim, pbn_dimension
from .divisors import make_folded_chain, tableau_to_divisor
from .io import SCHEMA_VERSION, divisor_to_json, tableau_from_json, tableau_to_json
from .locus import (
    CELL_GUARD,
    MaximalCell,
    betti_closed_form,
    betti_number,
    build_intersection_graph,
    connect_path,
    enumerate_maximal_cells,
    graph_to_dot,
)
from .reflection import reflectify, reflectify_trace
from .selftest import RunContext, run_rows

__all__ = ["main"]


def _emit_json(obj: Any) -> None:
    """Print one JSON record, stamped with the schema version."""
    print(json.dumps({"schema": SCHEMA_VERSION, **obj}, sort_keys=True))


def _printable(*counts: object) -> None:
    """Refuse, before any output, a count with more decimal digits than the
    interpreter converts to a string (``sys.get_int_max_str_digits``, 0 for
    no limit); the limit itself is left as it is."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for n in counts:
        # 10**limit has more than 3 * limit bits, so a shorter count prints.
        if not (limit and isinstance(n, int) and n.bit_length() > 3 * limit):
            continue
        digits = int(math.log10(abs(n))) + 1
        digits += (abs(n) >= 10**digits) - (abs(n) < 10 ** (digits - 1))
        if digits > limit:
            raise GuardRefused(
                f"a count of {digits} digits exceeds this interpreter's {limit}-digit"
                " limit on printing integers"
            )


def _params(args: argparse.Namespace) -> PrymParams:
    return PrymParams(args.g, args.r, args.k)


def _load_tableau(path: str) -> Tableau:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInputError(f"{path} nests too deeply to read as JSON") from exc
    return tableau_from_json(data)


def _load_input(
    args: argparse.Namespace, paths: tuple[str, ...], family: str | None = None,
    refusal: str = "",
) -> tuple[list[Tableau], int]:
    """The tableaux in the files ``paths`` and the order r of the first one's
    shape.  A first shape outside ``family`` is refused with ``refusal``, and
    ``--r``, when given, must agree with r."""
    tableaux = [_load_tableau(path) for path in paths]
    found, r = shape_family(tableaux[0].shape)
    if family is not None and found != family:
        raise InvalidInputError(refusal)
    if args.r is not None and args.r != r:
        raise InvalidInputError(f"--r {args.r} disagrees with the tableau's order {r}")
    return tableaux, r


def _print_tableaux(states: list[Tableau], as_json: bool, labelled: bool = True) -> None:
    """One JSON line per state, or each state's rows top row first."""
    for i, t in enumerate(states):
        if as_json:
            _emit_json({"index": i, "tableau": tableau_to_json(t)})
            continue
        if labelled:
            print(f"-- state {i}")
        for row in reversed(t.rows()):
            print("   " + " ".join(f"{v:>3}" for v in row))


# --------------------------------------------------------------------------
# Verbs.
# --------------------------------------------------------------------------


def _cmd_dim(args: argparse.Namespace) -> int:
    p = _params(args)
    n, dim = expected_codim(p.r, p.k), pbn_dimension(p)
    if args.json:
        _emit_json(
            {
                "g": p.g,
                "r": p.r,
                "k": p.k,
                "n": n,
                "dim": dim,
                "empty": dim is None,
            }
        )
        return 0
    if dim is None:
        print("empty")
        return 0
    print(f"n(r,k) = {n}")
    print(f"dim = {dim}")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    r, k = args.r, args.k
    if args.method == "all":
        routes = route_counts(r, k, force=args.force)
        if len(set(routes.values())) > 1:
            raise InvariantError(f"counting routes disagree: {routes}")
        value = next(iter(routes.values()))
        _printable(value)
        if args.json:
            _emit_json({"r": r, "k": k, "count": value, "routes": routes})
            return 0
        for route, got in routes.items():
            print(f"{route} = {got}")
        print("AGREE")
        return 0
    value = cardinality(r, k, args.method, force=args.force)
    _printable(value)
    if args.json:
        _emit_json({"r": r, "k": k, "count": value, "method": args.method})
    else:
        print(value)
    return 0


def _parse_symbols(spec: str) -> list[int]:
    try:
        symbols = sorted({int(tok) for tok in spec.split(",") if tok.strip()})
    except ValueError as exc:
        raise InvalidInputError(f"bad --symbols list {spec!r}") from exc
    if not symbols:
        raise InvalidInputError("--symbols needs at least one symbol")
    return symbols


def _cell_line(index: int, cell: MaximalCell) -> dict[str, Any]:
    return {
        "index": index,
        "word": cell.strip.word,
        "free_symbols": sorted(cell.free_symbols),
        "tableau": tableau_to_json(cell.tableau),
    }


def _cmd_cells(args: argparse.Namespace) -> int:
    p = _params(args)
    symbols = None if args.symbols is None else _parse_symbols(args.symbols)
    if args.count_only:
        total = max_cell_count(p, symbols, force=args.force)
        _printable(total)
        if args.json:
            _emit_json({"g": p.g, "r": p.r, "k": p.k, "cells": total})
        else:
            print(total)
        return 0
    for i, cell in enumerate(enumerate_maximal_cells(p, symbols, force=args.force)):
        _emit_json(_cell_line(i, cell))
    return 0


def _cmd_betti(args: argparse.Namespace) -> int:
    p = _params(args)
    from_graph = from_closed = None
    if args.method in ("graph", "both"):
        from_graph = betti_number(build_intersection_graph(p, force=args.force))
    if args.method in ("closed", "both"):
        from_closed = betti_closed_form(p)
    _printable(from_graph, from_closed)
    if args.json:
        out: dict[str, Any] = {"g": p.g, "r": p.r, "k": p.k, "method": args.method}
        if from_graph is not None:
            out["graph"] = from_graph
        if from_closed is not None:
            out["closed"] = from_closed
        if args.method == "both":
            out["agree"] = from_graph == from_closed
        _emit_json(out)
        return 1 if args.method == "both" and from_graph != from_closed else 0
    if args.method == "graph":
        print(from_graph)
        return 0
    if args.method == "closed":
        print(from_closed)
        return 0
    print(f"graph = {from_graph}")
    print(f"closed = {from_closed}")
    if from_graph != from_closed:
        print("DISAGREE")
        return 1
    print("AGREE")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    p = _params(args)
    graph = build_intersection_graph(p, force=args.force)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(graph_to_dot(graph))
        except OSError as exc:
            raise InvalidInputError(f"cannot write {args.dot}: {exc}") from exc
    summary = {
        "circles": len(graph.circles),
        "vertices": graph.v,
        "edges": graph.e,
        "components": graph.components,
        "betti": betti_number(graph),
    }
    if args.json:
        _emit_json(
            {"g": p.g, "r": p.r, "k": p.k, **summary,
             **({"dot": args.dot} if args.dot else {})}
        )
        return 0
    for key, value in summary.items():
        print(f"{key} = {value}")
    if args.dot:
        print(f"wrote {args.dot}")
    return 0


def _cmd_path(args: argparse.Namespace) -> int:
    (start, goal), r = _load_input(
        args, (args.src, args.dst), "staircase", "path endpoints must live on the staircase"
    )
    path = connect_path(start, goal, PrymParams(args.g, r, args.k))
    if not args.json:
        print(f"{len(path)} states, {len(path) - 1} steps")
    _print_tableaux(path, args.json)
    return 0


def _cmd_reflectify(args: argparse.Namespace) -> int:
    (t,), r = _load_input(args, (args.src,), "square", "reflection acts on square tableaux")
    p = PrymParams(args.g, r, args.k)
    states = reflectify_trace(t, p) if args.trace else [reflectify(t, p)]
    _print_tableaux(states, args.json, labelled=args.trace)
    return 0


def _cmd_divisor(args: argparse.Namespace) -> int:
    (t,), _ = _load_input(args, (args.src,))
    chain = make_folded_chain(args.g, args.k)
    div = tableau_to_divisor(t, chain)
    if div is None:
        if args.json:
            _emit_json({"g": args.g, "k": args.k, "empty": True})
        else:
            print("empty")
        return 0
    if args.json:
        _emit_json(
            {
                "g": args.g,
                "k": args.k,
                "degree": div.degree,
                "dimension": div.dimension,
                "free_loops": list(div.free_loops),
                "entries": divisor_to_json(div),
            }
        )
        return 0
    for record in divisor_to_json(div):
        if record.get("free"):
            print(f"loop {record['loop']}: free")
        else:
            print(f"loop {record['loop']}: pos {record['pos']} mult {record['mult']}")
    print(f"degree = {div.degree}")
    print(f"dimension = {div.dimension}")
    return 0


# --------------------------------------------------------------------------
# Census.
# --------------------------------------------------------------------------

CENSUS_COLUMNS = (
    "g", "r", "k", "n", "dim", "C_method_det", "C_method_paths",
    "C_method_brute", "cells", "betti_closed", "betti_graph", "agree",
)

# Rows a census sweeps without --force; the default sweep is 20 rows.
CENSUS_ROW_GUARD = 1_000


def _census_row(task: tuple[int, int, bool]) -> dict[str, Any]:
    r, k, force = task
    n = expected_codim(r, k)
    g = n + 2  # the dim-1 slice, where the circle graph is defined
    p = PrymParams(g, r, k)
    row: dict[str, Any] = {
        "g": g, "r": r, "k": k, "n": n, "dim": pbn_dimension(p),
        "C_method_det": "", "C_method_paths": "", "C_method_brute": "",
        "cells": "", "betti_closed": "", "betti_graph": "", "agree": "",
    }
    counts = route_counts(r, k, force=force)
    for route in ("det", "paths", "brute"):
        if route in counts:
            row[f"C_method_{route}"] = counts[route]
    # Only brute is guarded, and it is the cheapest route only where it is the
    # sole one, so the sweep holds the count max_cell_count would make.
    cheapest = counts[applicable_routes(r, k)[0]]
    row["cells"] = cells = _product_rule(p, None, lambda: cheapest)
    bettis: dict[str, int] = {}
    try:
        bettis["closed"] = row["betti_closed"] = betti_closed_form(p)
    except InvalidInputError:
        pass
    # The graph is built only at <= CELL_GUARD cells, --force or not: the
    # force reaches only the guarded counting route the cell count may take.
    if cells <= CELL_GUARD:
        graph = build_intersection_graph(p, force=force)
        bettis["graph"] = row["betti_graph"] = betti_number(graph)
    ok = len(set(counts.values())) == 1
    if len(bettis) == 2:
        ok = ok and bettis["closed"] == bettis["graph"]
    row["agree"] = "yes" if ok else "no"
    return row


def _cmd_census(args: argparse.Namespace) -> int:
    if args.rmax < 1 or args.kmax < 0 or args.jobs < 0:
        raise InvalidInputError("census needs --rmax >= 1, --kmax >= 0 and --jobs >= 0")
    # Every k in 0..kmax but k = 1, for each r: counted before any row is listed.
    count = args.rmax * max(args.kmax, 1)
    if count > CENSUS_ROW_GUARD and not args.force:
        raise GuardRefused(
            f"{count} census rows exceed the desk-scale limit of {CENSUS_ROW_GUARD};"
            " pass --force to sweep anyway"
        )
    tasks = [
        (r, k, args.force)
        for r in range(1, args.rmax + 1)
        for k in range(0, args.kmax + 1)
        if k != 1
    ]
    # The output file is opened before the sweep, in the directory that
    # --out names, so an unwritable --out fails before any row is computed.
    out_dir, name = os.path.split(args.out)
    if os.path.isdir(args.out):
        raise InvalidInputError(f"cannot write {args.out}: it names a directory")
    if not name:
        raise InvalidInputError(f"cannot write {args.out}: it names no file")
    try:
        fd, tmp_path = tempfile.mkstemp(dir=out_dir or os.curdir, suffix=".csv.part")
    except OSError as exc:
        raise InvalidInputError(f"cannot write {args.out}: {exc}") from exc
    rows: dict[tuple[int, int], dict[str, Any]] = {}
    # A fork pool starts all its workers on the first submit, so never ask
    # for more than there are tasks or cores.
    jobs = min(args.jobs or 4, len(tasks), os.cpu_count() or 1)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            if jobs > 1:
                # Loading the pool loads multiprocessing: only a sweep that
                # fans out pays for it.
                from concurrent.futures import ProcessPoolExecutor, as_completed

                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = {pool.submit(_census_row, t): t for t in tasks}
                    for fut in as_completed(futures):
                        row = fut.result()
                        rows[(row["r"], row["k"])] = row
            else:
                for task in tasks:
                    row = _census_row(task)
                    rows[(row["r"], row["k"])] = row
            _printable(*(v for row in rows.values() for v in row.values()))
            writer = csv.DictWriter(fh, fieldnames=CENSUS_COLUMNS)
            writer.writeheader()
            for key in sorted(rows):
                writer.writerow(rows[key])
        os.replace(tmp_path, args.out)
    except BaseException as exc:
        os.unlink(tmp_path)
        if isinstance(exc, OSError):
            raise InvalidInputError(f"cannot write {args.out}: {exc}") from exc
        raise
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    instance = None
    if args.instance:
        try:
            g, r, k = (int(tok) for tok in args.instance.split(","))
        except ValueError as exc:
            raise InvalidInputError(
                f"--instance wants g,r,k integers, got {args.instance!r}"
            ) from exc
        instance = (g, r, k)
        PrymParams(g, r, k)  # refuses a triple that is no type
    ctx = RunContext(instance=instance)
    if args.json:
        results = run_rows(ctx)
        _emit_json(
            {
                "passed": all(res.passed for res in results),
                "rows": [
                    {"ident": res.ident, "title": res.title, "passed": res.passed,
                     "seconds": round(res.seconds, 3), "detail": res.detail}
                    for res in results
                ],
            }
        )
        return 0 if all(res.passed for res in results) else 1
    results = run_rows(ctx, stream=print)
    failed = [res for res in results if not res.passed]
    print(f"{len(results) - len(failed)}/{len(results)} rows passed")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# Parser.
# --------------------------------------------------------------------------


def _flags(*flags: tuple[str, dict[str, Any]]) -> argparse.ArgumentParser:
    """A parent parser declaring each ``(flag, options)`` in order."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, options in flags:
        parent.add_argument(flag, **options)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prymbn",
        description="Tableau calculus for Prym-Brill-Noether loci on folded chains",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    # Every verb is built from parent parsers only.  The shared ones are
    # built once here; a verb's own flags get a parent of their own, between
    # them, because parents come first and usage and help list the flags in
    # the order they are declared.
    needed = {"type": int, "required": True}
    on = {"action": "store_true"}
    as_json, force = _flags(("--json", on)), _flags(("--force", on))
    params = _flags(
        ("--g", {**needed, "help": "arithmetic genus g"}),
        ("--r", {**needed, "help": "rank bound r"}),
        ("--k", {**needed, "help": "torsion order k"}),
    )
    on_file = _flags(
        ("--g", needed), ("--k", needed),
        ("--r", {"type": int, "help": "optional cross-check of the order"}),
    )
    file_in = ("--in", {"dest": "src", "required": True, "metavar": "TABLEAU.json"})
    verbs = (
        ("dim", _cmd_dim, "expected codimension and dimension", params, as_json),
        ("count", _cmd_count, "number of rectangle-free fillings C(r,k)", _flags(
            ("--r", needed), ("--k", needed),
            ("--method", {"choices": ("auto", "hook", "det", "paths", "brute", "all"),
                          "default": "auto"}),
        ), force, as_json),
        ("cells", _cmd_cells, "stream the maximal cells as JSON lines", params, _flags(
            ("--count-only", on), ("--symbols", {"help": "comma-separated symbol subset"}),
        ), force, as_json),
        ("betti", _cmd_betti, "first Betti number of the dim-1 locus", params, _flags(
            ("--method", {"choices": ("graph", "closed", "both"), "default": "both"}),
        ), force, as_json),
        ("graph", _cmd_graph, "build the circle intersection graph", params, _flags(
            ("--dot", {"help": "write DOT markup to this path"}),
        ), force, as_json),
        ("path", _cmd_path, "adjacency walk between two tableaux", on_file, _flags(
            ("--from", {"dest": "src", "required": True, "metavar": "TABLEAU.json"}),
            ("--to", {"dest": "dst", "required": True, "metavar": "TABLEAU.json"}),
        ), as_json),
        ("reflectify", _cmd_reflectify, "reflective closure of a square tableau", on_file,
         _flags(file_in, ("--trace", on)), as_json),
        ("divisor", _cmd_divisor, "chip divisor of a tableau", on_file, _flags(file_in),
         as_json),
        ("census", _cmd_census, "sweep (r, k) and write a CSV summary", _flags(
            ("--rmax", {"type": int, "default": 4}),
            ("--kmax", {"type": int, "default": 5}),
            ("--out", {"default": "census.csv"}),
            ("--jobs", {"type": int, "default": 0, "help": "worker processes"}),
        ), force),
        ("selftest", _cmd_selftest, "run the acceptance suite",
         _flags(("--instance", {"help": "restrict to one g,r,k"})), as_json),
    )
    for name, func, summary, *parents in verbs:
        subs.add_parser(name, help=summary, parents=parents).set_defaults(func=func)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every request parses with: ``parse_args`` fills a new
    namespace per call and leaves the parser as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "force", False):
        print("warning: desk-scale guard overridden by --force", file=sys.stderr)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (InvariantError, AssertionError) as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
