"""The four workloads.  Each builds a deck of items from the seed.

Instance lists are fixed; the seed picks the samples and the pairs, and
``run.prepare`` shuffles the deck with it.  Each deck has a fixed make-up
(so many items of each kind and instance), so every seed costs about the
same.  The timed loop runs whole decks.  Every item checks its own output.
"""

from __future__ import annotations

import contextlib
import io as stdio
import itertools
import json
import random
from pathlib import Path
from typing import Callable

from prymbn import (
    InvalidInputError,
    PrymParams,
    betti_closed_form,
    betti_number,
    enumerate_maximal_cells,
    enumerate_staircase_tableaux,
    expected_codim,
    extend_to_reflective,
    make_folded_chain,
    pbn_dimension,
    reflectify,
    selftest,
    tableau_to_json,
)

from harness import ContractBreach, Item, expect

# --------------------------------------------------------------------------
# reflect: the R7 pipeline on staircase displacement tableaux.

REFLECT_RS = (3, 4)
GRID_KS = (0, 2, 3, 4, 5)  # generic, even and odd torsion, as in the selftest grid
REFLECT_QUOTA = 20  # tableaux drawn per (g, r, k) instance per deck


def tuple_of(p: PrymParams) -> tuple[int, int, int]:
    return (p.g, p.r, p.k)


def grid(rs) -> list[PrymParams]:
    """The selftest sweep grid rows for ``rs``: g - 1 in {n, n+1, n+2}."""
    out = []
    for r in rs:
        for k in GRID_KS:
            n = expected_codim(r, k)
            out += [PrymParams(gm1 + 1, r, k) for gm1 in (n, n + 1, n + 2)]
    return out


def reflect_item(t, p: PrymParams, n: int) -> Callable:
    def run(api) -> None:
        ext = api.extend_to_reflective(t, p)
        refl = api.reflectify(ext, p)
        stair = api.restrict_to_staircase(refl, p)
        _, dom = api.dominating_non_repeating(stair, p)
        if api.probe:
            expect(api.is_tableau(t), "input fails the tableau condition")
            expect(api.is_displacement(t, p.k), "input is not a displacement tableau")
            expect(api.is_prym(ext, p), "reflective extension is not Prym")
            api.class_symbol_sets(dom, p.k)
        got = api.codimension(dom, p)
        expect(got == n, f"pipeline codimension {got} != {n}")
        expect(api.dominates(dom, t, p), "pipeline output fails to dominate its input")

    return run


def setup_reflect(rng: random.Random, api, workdir: Path) -> list[Item]:
    deck = []
    for p in grid(REFLECT_RS):
        n = expected_codim(p.r, p.k)
        pool = api.enumerate_staircase_tableaux(p)
        for t in rng.choices(pool, k=REFLECT_QUOTA):
            deck.append(Item("reflect", f"reflect {tuple_of(p)}", reflect_item(t, p, n)))
    return deck


# --------------------------------------------------------------------------
# locus: graph builds, connectivity walks and divisors, interleaved.

# The dim-1 instances of the Betti and connectivity rows, without
# (12,4,0) and (11,4,5): their graphs take 5.4 s and 0.9 s to build,
# longer than a timed item may take when a run holds 1000 items.
GRAPH_INSTANCES = (
    (3, 1, 0), (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5),
    (5, 2, 0), (4, 2, 2), (5, 2, 3), (5, 2, 4), (5, 2, 5),
    (8, 3, 0), (5, 3, 2), (7, 3, 3), (7, 3, 4), (8, 3, 5),
    (6, 4, 2), (9, 4, 3), (9, 4, 4), (7, 5, 2), (8, 6, 2), (11, 5, 4),
)
# The r <= 4, dim >= 1 grid instances, without (12,4,0), (13,4,0) and
# (12,4,5), whose cell lists take 1.4 s, 9 s and 1.7 s to enumerate.
WALK_SKIP = {(12, 4, 0), (13, 4, 0), (12, 4, 5)}
WALK_QUOTA = 4  # walks per instance per deck
DIVISOR_INSTANCES = ((7, 3, 4), (5, 3, 2))
DIVISOR_QUOTA = 10  # divisors per instance per deck


def graph_item(p: PrymParams, closed: int | None) -> Callable:
    def run(api) -> None:
        cells = api.enumerate_maximal_cells(p)
        graph = api.build_intersection_graph(p)
        expect(len(graph.circles) == len(cells), "graph circles differ from the cells")
        expect(graph.components == 1, f"graph has {graph.components} components")
        if closed is not None:
            got = betti_number(graph)
            expect(got == closed, f"betti {got} != closed form {closed}")

    return run


def walk_item(a, b, p: PrymParams) -> Callable:
    def run(api) -> None:
        if api.probe:
            expect(bool(api.strips_admitting(a, p)), "cell tableau admits no strip")
            expect(api.is_tableau(a), "cell tableau fails the tableau condition")
            expect(api.is_displacement(a, p.k), "cell tableau is not a displacement tableau")
            api.class_symbol_sets(a, p.k)
        path = api.connect_path(a, b, p)
        expect(path[0] == a and path[-1] == b, "walk endpoints differ from the request")
        for s, t in zip(path, path[1:]):
            expect(api.is_adjacent(s, t, p), "walk takes a non-adjacent step")

    return run


def divisor_item(t, g: int, chain) -> Callable:
    def run(api) -> None:
        div = api.tableau_to_divisor(t, chain)
        expect(div is not None, "a staircase cell tableau always carries a divisor")
        expect(div.degree == 2 * g - 2, f"degree {div.degree} != {2 * g - 2}")
        pos = {e.loop: e.pos for e in div.entries}
        for a in range(1, g):
            expect(pos[a] == pos[2 * g - a], f"mirror pair ({a}, {2 * g - a}) differs")

    return run


def setup_locus(rng: random.Random, api, workdir: Path) -> list[Item]:
    deck = []
    for inst in GRAPH_INSTANCES:
        p = PrymParams(*inst)
        try:
            closed = betti_closed_form(p)
        except InvalidInputError:
            closed = None  # no closed form in scope for this torsion
        deck.append(Item("graph", f"graph {inst}", graph_item(p, closed)))
    for p in grid((1, 2, 3, 4)):
        if (pbn_dimension(p) or 0) < 1 or tuple_of(p) in WALK_SKIP:
            continue
        cells = api.enumerate_maximal_cells(p)
        for _ in range(WALK_QUOTA):
            a, b = rng.choice(cells).tableau, rng.choice(cells).tableau
            deck.append(Item("walk", f"walk {tuple_of(p)}", walk_item(a, b, p)))
    for inst in DIVISOR_INSTANCES:
        p = PrymParams(*inst)
        chain = make_folded_chain(p.g, p.k)
        cells = api.enumerate_maximal_cells(p)
        for cell in rng.choices(cells, k=DIVISOR_QUOTA):
            deck.append(Item("divisor", f"divisor {inst}", divisor_item(cell.tableau, p.g, chain)))
    return deck


# --------------------------------------------------------------------------
# count: the exact-counting kernels and the codimension oracle.

COUNT_RS = range(5, 11)
COUNT_KS = (0, 2, 3, 4, 5, 6, 8)
# The strip-poset case of the retired kernel benchmark, reached through count_brute.
COUNT_EXTRA_CELLS = ((6, 10),)
# count_brute(force=True) runs where n(r, k) <= 24: at most 40 ms per call.
BRUTE_MAX_SYMBOLS = 24

# C(r, k) over the count table.  Cells with a route besides count_brute agree
# across every route; odd-torsion cells are reached by count_brute alone.
# Pins of the published table (selftest.CARDINALITY_TABLE) take precedence.
EXPECTED_C = {
    (5, 0): 292864, (5, 2): 1, (5, 3): 16, (5, 4): 16, (5, 5): 1024, (5, 6): 1024,
    (5, 8): 35840,
    (6, 0): 1100742656, (6, 2): 1, (6, 3): 32, (6, 4): 32, (6, 5): 8192, (6, 6): 8192,
    (6, 8): 1671168, (6, 10): 104595456,
    (7, 0): 48608795688960, (7, 2): 1, (7, 3): 64, (7, 4): 64, (7, 5): 65536,
    (7, 6): 65536, (7, 8): 77922304,
    (8, 0): 29258366996258488320, (8, 2): 1, (8, 3): 128, (8, 4): 128, (8, 5): 524288,
    (8, 6): 524288, (8, 8): 3633315840,
    (9, 0): 273035280663535522487992320, (9, 2): 1, (9, 3): 256, (9, 4): 256,
    (9, 5): 4194304, (9, 6): 4194304, (9, 8): 169412132864,
    (10, 0): 44261486084874072183645699204710400, (10, 2): 1, (10, 3): 512,
    (10, 4): 512, (10, 6): 33554432, (10, 8): 7899250163712,
}
# brute_min_codim with the budget on, over the grid rows r = 5, 6.
MIN_CODIM_RS = (5, 6)
MIN_CODIM_KS = COUNT_KS
# brute_min_codim with the budget off: 0.1-0.2 s each at r = 5.  Two of
# each per deck make the top 3% of items, so p99 falls inside this block.
NO_BUDGET_INSTANCES = ((12, 5, 3), (13, 5, 6)) * 2


def count_routes(r: int, k: int) -> list[str]:
    """The routes that apply at (r, k), with count_brute where it is feasible."""
    routes = []
    if k == 0 or k >= 2 * r - 1:
        routes.append("count_generic")
    if k % 2 == 0 and 2 <= k <= 2 * r - 2:
        routes += ["count_even_determinant", "count_lattice_paths"]
    if expected_codim(r, k) <= BRUTE_MAX_SYMBOLS:
        routes.append("count_brute")
    return routes


def route_item(route: str, r: int, k: int, want: int) -> Callable:
    def run(api) -> None:
        fn = getattr(api, route)
        if route == "count_generic":
            got = fn(r)
        elif route == "count_brute":
            got = fn(r, k, force=True)
        else:
            got = fn(r, k)
        expect(got == want, f"{route}({r}, {k}) = {got}, expected {want}")

    return run


def min_codim_item(p: PrymParams, use_budget: bool, want: int) -> Callable:
    def run(api) -> None:
        got = api.brute_min_codim(p, force=True, use_budget=use_budget)
        expect(got == want, f"brute_min_codim{tuple_of(p)} = {got}, formula gives {want}")

    return run


def count_cells() -> list[tuple[int, int]]:
    cells = [(r, k) for r in COUNT_RS for k in COUNT_KS] + list(COUNT_EXTRA_CELLS)
    return [cell for cell in cells if count_routes(*cell)]


def setup_count(rng: random.Random, api, workdir: Path) -> list[Item]:
    deck = []
    for r, k in count_cells():
        want = selftest.CARDINALITY_TABLE.get((r, k), EXPECTED_C[(r, k)])
        for route in count_routes(r, k):
            deck.append(Item(route, f"{route} ({r},{k})", route_item(route, r, k, want)))
    for p in grid(MIN_CODIM_RS):
        if p.k in MIN_CODIM_KS:
            want = expected_codim(p.r, p.k)
            deck.append(Item("min_codim", f"brute_min_codim {tuple_of(p)}",
                             min_codim_item(p, True, want)))
    for inst in NO_BUDGET_INSTANCES:
        p = PrymParams(*inst)
        deck.append(Item("min_codim_nobudget", f"brute_min_codim {inst} no budget",
                         min_codim_item(p, False, expected_codim(p.r, p.k))))
    return deck


# --------------------------------------------------------------------------
# cli: one-shot requests served in process.


def run_cli(api, argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with its output captured; argparse exits become codes."""
    out, err = stdio.StringIO(), stdio.StringIO()
    if api.probe:
        api.build_parser()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = api.cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_item(argv: list[str], code: int, check: Callable[[str, str], None] | None,
             docs: tuple = ()) -> Callable:
    """Run ``argv``; the exit code must be ``code``, then ``check(stdout, stderr)``.

    ``docs`` are the JSON documents behind the request's tableau files; the
    traced run round-trips them through the io layer as a probe.
    """

    def run(api) -> None:
        if api.probe:
            for doc in docs:
                api.tableau_to_json(api.tableau_from_json(doc))
        got, out, err = run_cli(api, argv)
        if got != code:
            raise ContractBreach(f"exit {got}, contract requires {code}: {err.strip()[-200:]}")
        if check is not None:
            check(out, err)

    return run


def json_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def check_fields(**want) -> Callable[[str, str], None]:
    def check(out: str, err: str) -> None:
        (got,) = json_lines(out)
        for key, value in want.items():
            expect(got.get(key) == value, f"{key} = {got.get(key)!r}, expected {value!r}")

    return check


def check_line_count(n: int) -> Callable[[str, str], None]:
    def check(out: str, err: str) -> None:
        expect(len(json_lines(out)) == n, f"{len(out.splitlines())} lines, expected {n}")

    return check


def check_ends(first: dict, last: dict) -> Callable[[str, str], None]:
    def check(out: str, err: str) -> None:
        states = [line["tableau"] for line in json_lines(out)]
        expect(states[0] == first and states[-1] == last, "walk endpoints differ")

    return check


def check_divisor(g: int) -> Callable[[str, str], None]:
    def check(out: str, err: str) -> None:
        (got,) = json_lines(out)
        expect(got["degree"] == 2 * g - 2, f"degree {got['degree']} != {2 * g - 2}")
        pos: dict[int, str | None] = {}
        for e in got["entries"]:  # the boundary stack comes last and repeats a loop
            pos.setdefault(e["loop"], e.get("pos"))
        for a in range(1, g):
            expect(pos[a] == pos[2 * g - a], f"mirror pair ({a}, {2 * g - a}) differs")

    return check


def check_census(rows: int, path: Path) -> Callable[[str, str], None]:
    def check(out: str, err: str) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        expect(len(lines) == rows + 1, f"census wrote {len(lines) - 1} rows, expected {rows}")
        expect(all(line.endswith(",yes") for line in lines[1:]), "a census row disagrees")

    return check


def check_rejected(out: str, err: str) -> None:
    expect(err.startswith("error:"), "exit 2 without an error message")


def params_argv(g: int, r: int, k: int) -> list[str]:
    return ["--g", str(g), "--r", str(r), "--k", str(k)]


class DistinctShapes:
    """A stream of tableau files on explicit shapes no other request uses.

    The contract rejects them (exit 2: neither staircase nor square); each
    one still passes through the parser and the shape caches.  The
    documents are made at set-up, but each file is written only when first
    taken, from an item's untimed ``stage``: the files are the user's
    inputs, and writing hundreds of them made set-up time depend on the
    filesystem more than on the program.
    """

    def __init__(self, rng: random.Random, workdir: Path, count: int) -> None:
        self.workdir = workdir
        self.docs: list[dict] = []
        seen: set[frozenset] = set()
        while len(self.docs) < count:
            boxes = frozenset(
                (rng.randint(1, 6), rng.randint(1, 6)) for _ in range(rng.randint(3, 14))
            )
            if boxes in seen or _is_named_shape(boxes):
                continue
            seen.add(boxes)
            ordered = sorted(boxes, key=lambda b: (b[0] + b[1], b[0]))
            doc = {
                "shape": {"kind": "explicit", "boxes": [list(b) for b in ordered]},
                "entries": [[x, y, i + 1] for i, (x, y) in enumerate(ordered)],
            }
            self.docs.append(doc)
        self.next = 0

    def take(self) -> tuple[str, dict]:
        """The next file's path and document, writing the file on first use."""
        i = self.next % len(self.docs)
        path = self.workdir / f"distinct{i}.json"
        if self.next < len(self.docs):
            path.write_text(json.dumps(self.docs[i]), encoding="utf-8")
        self.next += 1
        return str(path), self.docs[i]


def _is_named_shape(boxes: frozenset) -> bool:
    side = max(x for x, _ in boxes)
    stair = {(x, y) for y in range(1, side + 1) for x in range(1, side + 2 - y)}
    square = {(x, y) for x in range(1, side + 1) for y in range(1, side + 1)}
    return boxes == stair or boxes == square


def distinct_item(stream: DistinctShapes, verb: str) -> Item:
    request: dict[str, tuple[str, dict]] = {}

    def stage() -> None:
        request["file"] = stream.take()

    def run(api) -> None:
        path, doc = request["file"]
        if verb == "path":
            argv = ["path", "--g", "7", "--k", "4", "--from", path, "--to", path, "--json"]
        else:
            argv = [verb, "--g", "7", "--k", "4", "--in", path, "--json"]
        cli_item(argv, 2, check_rejected, (doc,))(api)

    return Item("distinct", f"{verb} distinct explicit shape", run, stage)


DISTINCT_POOL = 400  # explicit shapes per run; a pass cycles through them
DISTINCT_PER_DECK = 10


def setup_cli(rng: random.Random, api, workdir: Path) -> list[Item]:
    """Requests on inputs made here with the library's own functions, untraced."""
    numbers = itertools.count()
    deck: list[Item] = []

    def save(doc: dict) -> str:
        path = workdir / f"t{next(numbers)}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def add(kind: str, label: str, argv: list[str], code: int, check, docs=()) -> None:
        deck.append(Item(kind, label, cli_item(argv, code, check, docs)))

    for g, r, k in ((7, 3, 4), (11, 4, 3), (9, 4, 4), (5, 2, 0), (3, 5, 2), (16, 5, 0)):
        n = expected_codim(r, k)
        dim = pbn_dimension(PrymParams(g, r, k))
        add("dim", f"dim {(g, r, k)}", ["dim", *params_argv(g, r, k), "--json"], 0,
            check_fields(n=n, dim=dim, empty=dim is None))
        add("dim", f"dim {(g, r, k)} text", ["dim", *params_argv(g, r, k)], 0, None)
    for (r, k), method in zip(
        ((5, 4), (6, 6), (4, 0), (6, 8), (3, 2), (5, 8), (6, 4), (4, 6), (2, 0), (6, 2), (5, 6)),
        ("auto", "all", "hook", "det", "paths", "brute", "all", "auto", "all", "det", "paths"),
    ):
        add("count", f"count ({r},{k}) {method}",
            ["count", "--r", str(r), "--k", str(k), "--method", method, "--json"], 0,
            check_fields(count=selftest.CARDINALITY_TABLE[(r, k)]))
    # Every route refused or inapplicable: the contract's answer is exit 3.
    add("count", "count (8,5) all [every route refused]",
        ["count", "--r", "8", "--k", "5", "--method", "all"], 3, None)
    # Cell counts C(r, k) * binom(g - 1, n) of the maximal-cell row.
    for (g, r, k), cells in (((7, 3, 4), 24), ((5, 3, 2), 4), ((6, 2, 3), 20), ((8, 3, 3), 84)):
        add("cells", f"cells {(g, r, k)}", ["cells", *params_argv(g, r, k), "--json"], 0,
            check_line_count(cells))
    add("cells", "cells (9,4,4) count-only",
        ["cells", *params_argv(9, 4, 4), "--count-only", "--json"], 0, check_fields(cells=64))
    for g, r, k in ((7, 3, 4), (5, 3, 2), (5, 2, 0), (9, 4, 4), (6, 4, 2)):
        add("betti", f"betti {(g, r, k)}", ["betti", *params_argv(g, r, k), "--json"], 0,
            check_fields(agree=True, closed=betti_closed_form(PrymParams(g, r, k))))
    for (g, r, k), betti in (((7, 3, 4), 29), ((8, 3, 0), 169), ((7, 3, 3), 29), ((5, 2, 5), 9)):
        add("graph", f"graph {(g, r, k)}", ["graph", *params_argv(g, r, k), "--json"], 0,
            check_fields(components=1, betti=betti))
    for g, r, k in ((7, 3, 4), (8, 3, 3), (9, 4, 4), (6, 2, 5)):
        cells = enumerate_maximal_cells(PrymParams(g, r, k))
        for _ in range(2):
            a, b = (tableau_to_json(c.tableau) for c in rng.sample(cells, 2))
            add("path", f"path {(g, r, k)}",
                ["path", "--g", str(g), "--k", str(k), "--from", save(a), "--to", save(b),
                 "--json"], 0, check_ends(a, b), (a, b))
    for g, r, k in ((11, 4, 3), (9, 4, 4), (8, 3, 0), (7, 3, 3)):
        p = PrymParams(g, r, k)
        for t in rng.sample(list(enumerate_staircase_tableaux(p)), 2):
            ext = extend_to_reflective(t, p)
            doc, want = tableau_to_json(ext), tableau_to_json(reflectify(ext, p))
            add("reflectify", f"reflectify {(g, r, k)}",
                ["reflectify", "--g", str(g), "--k", str(k), "--in", save(doc), "--json"], 0,
                check_ends(want, want), (doc,))
    for g, r, k in ((7, 3, 4), (5, 3, 2), (8, 3, 5)):
        for cell in rng.sample(enumerate_maximal_cells(PrymParams(g, r, k)), 3):
            doc = tableau_to_json(cell.tableau)
            add("divisor", f"divisor {(g, r, k)}",
                ["divisor", "--g", str(g), "--k", str(k), "--in", save(doc), "--json"], 0,
                check_divisor(g), (doc,))
    # A valid T_1 staircase tableau: the contract's answer is a divisor, exit 0.
    t1 = {"shape": {"kind": "staircase", "r": 1}, "entries": [[1, 1, 1]]}
    add("divisor", "divisor T_1 (3,1,2) [valid staircase]",
        ["divisor", "--g", "3", "--k", "2", "--in", save(t1), "--json"], 0, check_divisor(3),
        (t1,))
    # The larger census twice: the top 2% of a deck, so p99 falls inside it.
    for rmax, kmax, rows in ((2, 3, 6), (3, 3, 9), (3, 3, 9)):
        out = workdir / f"census{rmax}{kmax}.csv"
        add("census", f"census rmax={rmax} kmax={kmax}",
            ["census", "--rmax", str(rmax), "--kmax", str(kmax), "--jobs", "1",
             "--out", str(out)], 0, check_census(rows, out))
    stream = DistinctShapes(rng, workdir, DISTINCT_POOL)
    for i in range(DISTINCT_PER_DECK):
        verb = ("divisor", "path", "reflectify")[i % 3]
        deck.append(distinct_item(stream, verb))
    return deck


def calibrate(api, workdir: Path) -> None:
    """One call of every spanned function on a fixed small input.

    The traced run does this at set-up, so every self time it reports is a
    measurement on every workload, also for layers the workload bypasses.
    Set-up spans count in ``self_us`` and ``calls``, never in module shares.
    """
    p = PrymParams(4, 2, 2)
    t = api.enumerate_staircase_tableaux(p)[0]
    api.is_tableau(t)
    api.is_displacement(t, p.k)
    api.class_symbol_sets(t, p.k)
    ext = api.extend_to_reflective(t, p)
    api.is_prym(ext, p)
    stair = api.restrict_to_staircase(api.reflectify(ext, p), p)
    _, dom = api.dominating_non_repeating(stair, p)
    api.codimension(dom, p)
    api.dominates(dom, t, p)
    a, b = (cell.tableau for cell in api.enumerate_maximal_cells(p)[:2])
    api.build_intersection_graph(p)
    api.strips_admitting(a, p)
    api.is_adjacent(a, b, p)
    api.connect_path(a, b, p)
    api.tableau_to_divisor(a, make_folded_chain(p.g, p.k))
    api.brute_min_codim(p)
    api.count_generic(2)
    api.count_even_determinant(3, 2)
    api.count_lattice_paths(3, 2)
    api.count_brute(3, 2)
    api.tableau_from_json(api.tableau_to_json(a))
    square, stair_file = workdir / "calibrate-square.json", workdir / "calibrate-stair.json"
    square.write_text(json.dumps(tableau_to_json(ext)), encoding="utf-8")
    stair_file.write_text(json.dumps(tableau_to_json(a)), encoding="utf-8")
    params = ["--g", "4", "--k", "2"]
    for argv in (
        ["dim", *params_argv(4, 2, 2)],
        ["count", "--r", "3", "--k", "2"],
        ["cells", *params_argv(4, 2, 2), "--count-only"],
        ["betti", *params_argv(4, 2, 2)],
        ["graph", *params_argv(4, 2, 2)],
        ["path", *params, "--from", str(stair_file), "--to", str(stair_file)],
        ["reflectify", *params, "--in", str(square)],
        ["divisor", *params, "--in", str(stair_file)],
        ["census", "--rmax", "1", "--kmax", "0", "--jobs", "1",
         "--out", str(workdir / "calibrate.csv")],
    ):
        code, _, err = run_cli(api, argv)
        if code != 0:
            raise RuntimeError(f"calibration request {argv} exited {code}: {err}")


WORKLOADS = {
    "reflect": setup_reflect,
    "locus": setup_locus,
    "count": setup_count,
    "cli": setup_cli,
}
