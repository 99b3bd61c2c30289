"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import prymbn

from prymbn import cli, counting, locus
from prymbn.cli import CENSUS_COLUMNS, _census_row, main
from prymbn.core import GuardRefused, PrymParams
from prymbn.dimension import minimal_witness
from prymbn.io import SCHEMA_VERSION, tableau_from_json, tableau_to_json
from prymbn.selftest import REFLECTION_TRACE

from helpers import square, stair
from test_io import tableau_docs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return [json.loads(line) for line in out.splitlines()]


def dump(tmp_path, name, tableau):
    path = tmp_path / name
    path.write_text(json.dumps(tableau_to_json(tableau)))
    return str(path)


# --------------------------------------------------------------------------
# dim


def test_dim_text_and_json(capsys):
    code, out, _ = run(capsys, "dim", "--g", "7", "--r", "3", "--k", "4")
    assert code == 0 and out == "n(r,k) = 5\ndim = 1\n"
    (data,) = run_json(capsys, "dim", "--g", "7", "--r", "3", "--k", "4", "--json")
    assert data == {
        "schema": SCHEMA_VERSION, "g": 7, "r": 3, "k": 4,
        "n": 5, "dim": 1, "empty": False,
    }


def test_dim_builds_nothing_it_does_not_print(capsys):
    # Two integers: no minimal witness on the 180,300-box staircase T_600.
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "dim", "--g", "2000000", "--r", "600", "--k", "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "n(r,k) = 180300\ndim = 1819699\n")
    assert peak < 2**20


def test_a_short_tableau_file_exits_2_without_building_its_shape(capsys, tmp_path):
    src = tmp_path / "short.json"
    src.write_text(json.dumps({"shape": {"kind": "square", "r": 400}, "entries": []}))
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "reflectify", "--g", "5", "--k", "2", "--in", str(src))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "and 160791 more" in err
    assert peak < 2**20


def test_dim_empty_locus(capsys):
    code, out, _ = run(capsys, "dim", "--g", "3", "--r", "3", "--k", "0")
    assert code == 0 and out == "empty\n"
    (data,) = run_json(capsys, "dim", "--g", "3", "--r", "3", "--k", "0", "--json")
    assert data["empty"] is True and data["dim"] is None


# --------------------------------------------------------------------------
# count


def test_count_auto_and_named_routes(capsys):
    code, out, _ = run(capsys, "count", "--r", "4", "--k", "6")
    assert (code, out) == (0, "128\n")
    code, out, _ = run(capsys, "count", "--r", "3", "--k", "0", "--method", "hook")
    assert (code, out) == (0, "16\n")
    (data,) = run_json(
        capsys, "count", "--r", "6", "--k", "6", "--method", "det", "--json"
    )
    assert data["count"] == 8192 and data["method"] == "det"
    (data,) = run_json(
        capsys, "count", "--r", "5", "--k", "8", "--method", "paths", "--json"
    )
    assert data["count"] == 35840


def test_count_all_routes_agree(capsys):
    code, out, _ = run(capsys, "count", "--r", "4", "--k", "6", "--method", "all")
    assert code == 0
    assert out.splitlines()[-1] == "AGREE"
    (data,) = run_json(
        capsys, "count", "--r", "4", "--k", "6", "--method", "all", "--json"
    )
    assert data["count"] == 128
    assert data["routes"] == {"det": 128, "paths": 128, "brute": 128}


def test_count_all_text_lists_each_route_then_agree(capsys):
    assert run(capsys, "count", "--r", "4", "--k", "6", "--method", "all") == (
        0, "det = 128\npaths = 128\nbrute = 128\nAGREE\n", ""
    )


def test_count_inapplicable_method_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "--r", "3", "--k", "3", "--method", "det")
    assert code == 2 and "does not apply" in err


@pytest.mark.parametrize("k", ["0", "2", "3"])
@pytest.mark.parametrize("method", ["auto", "hook", "det", "paths", "brute", "all"])
def test_count_refuses_r_0_by_every_route(capsys, method, k):
    code, out, err = run(capsys, "count", "--r", "0", "--k", k, "--method", method)
    assert (code, out, err) == (2, "", "error: r must be at least 1, got 0\n")


def test_count_refuses_a_negative_r_by_the_bound_of_r_0(capsys):
    code, out, err = run(capsys, "count", "--r", "-1", "--k", "0")
    assert (code, out, err) == (2, "", "error: r must be at least 1, got -1\n")


def test_count_brute_guard_and_force_warning(capsys):
    code, _, err = run(capsys, "count", "--r", "6", "--k", "0", "--method", "brute")
    assert code == 3 and err.startswith("refused:")
    code, out, err = run(capsys, "count", "--r", "3", "--k", "3", "--force")
    assert code == 0 and out.strip().isdigit()
    assert "warning: desk-scale guard overridden by --force" in err


def test_count_all_with_every_route_refused_exits_3(capsys):
    # At (8, 5) no closed-form route applies and brute force is over its guard.
    code, out, err = run(capsys, "count", "--r", "8", "--k", "5", "--method", "all")
    assert (code, out) == (3, "")
    assert err.startswith("refused:")


# --------------------------------------------------------------------------
# cells


def test_cells_count_only(capsys):
    code, out, _ = run(capsys, "cells", "--g", "7", "--r", "3", "--k", "4",
                       "--count-only")
    assert (code, out) == (0, "24\n")


def test_cells_count_only_counts_the_symbol_subset(capsys):
    # Four of the 24 cells of (7,3,4) draw from {1..5}: the count agrees
    # with the stream, and a symbol outside [1, g-1] is refused by both.
    argv = ["cells", "--g", "7", "--r", "3", "--k", "4", "--symbols", "1,2,3,4,5"]
    assert len(run_json(capsys, *argv)) == 4
    assert run(capsys, *argv, "--count-only") == (0, "4\n", "")
    for extra in ((), ("--count-only",)):
        code, out, err = run(capsys, "cells", "--g", "7", "--r", "3", "--k", "4",
                             "--symbols", "1,2,3,4,5,9", *extra)
        assert (code, out) == (2, "") and "[1, g-1]" in err


def test_cells_count_only_passes_force_to_the_count(capsys):
    # n(10, 3) = 19 symbols: C(10, 3) has the guarded brute route alone.
    argv = ["cells", "--g", "21", "--r", "10", "--k", "3", "--count-only"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and "pass force=True" in err
    assert run(capsys, *argv, "--force")[:2] == (0, "10240\n")


def test_cells_stream(capsys):
    lines = run_json(capsys, "cells", "--g", "7", "--r", "3", "--k", "4")
    assert [rec["index"] for rec in lines] == list(range(24))
    for rec in lines:
        assert rec["schema"] == SCHEMA_VERSION
        assert rec["word"] in ("E", "N")
        t = tableau_from_json(rec["tableau"])
        assert len(rec["free_symbols"]) == 1
        assert set(rec["free_symbols"]).isdisjoint(t.symbols)


def test_cells_symbol_subset(capsys):
    lines = run_json(capsys, "cells", "--g", "7", "--r", "3", "--k", "4",
                     "--symbols", "1,2,3,4,5")
    assert len(lines) == 4
    for rec in lines:
        assert rec["free_symbols"] == [6]
    code, _, err = run(capsys, "cells", "--g", "7", "--r", "3", "--k", "4",
                       "--symbols", "1,x")
    assert code == 2 and "bad --symbols" in err


def test_cells_with_too_few_symbols_for_a_cell_prints_nothing(capsys):
    # n(8, 5) = 21 symbols per cell and comb(3, 21) = 0: no cell, and no
    # count of C(8, 5), which the brute guard would refuse.
    code, out, err = run(capsys, "cells", "--g", "30", "--r", "8", "--k", "5",
                         "--symbols", "1,2,3")
    assert (code, out, err) == (0, "", "")
    code, _, err = run(capsys, "cells", "--g", "30", "--r", "8", "--k", "5",
                       "--symbols", "1,30")
    assert code == 2 and "[1, g-1]" in err


def test_cells_guard(capsys):
    code, _, err = run(capsys, "cells", "--g", "17", "--r", "5", "--k", "0")
    assert code == 3 and "desk-scale" in err


def test_cells_symbol_subset_guard(capsys):
    # C(5, 0) * comb(16, 15) = 292,864 * 16 = 4,685,824 cells.
    symbols = ",".join(map(str, range(1, 17)))
    code, out, err = run(capsys, "cells", "--g", "17", "--r", "5", "--k", "0",
                         "--symbols", symbols)
    assert code == 3 and out == "" and "desk-scale" in err


# --------------------------------------------------------------------------
# betti and graph


def test_betti_both_agree(capsys):
    code, out, _ = run(capsys, "betti", "--g", "7", "--r", "3", "--k", "4")
    assert code == 0 and out == "graph = 29\nclosed = 29\nAGREE\n"
    (data,) = run_json(capsys, "betti", "--g", "7", "--r", "3", "--k", "4", "--json")
    assert data["graph"] == 29 == data["closed"] and data["agree"] is True


def test_betti_single_methods(capsys):
    code, out, _ = run(capsys, "betti", "--g", "5", "--r", "3", "--k", "2",
                       "--method", "graph")
    assert (code, out) == (0, "4\n")
    code, out, _ = run(capsys, "betti", "--g", "5", "--r", "3", "--k", "2",
                       "--method", "closed")
    assert (code, out) == (0, "4\n")


def test_betti_both_reports_a_disagreement_and_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "betti_closed_form", lambda p: 28)
    argv = ["betti", "--g", "7", "--r", "3", "--k", "4"]
    assert run(capsys, *argv) == (1, "graph = 29\nclosed = 28\nDISAGREE\n", "")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "schema": SCHEMA_VERSION, "g": 7, "r": 3, "k": 4, "method": "both",
        "graph": 29, "closed": 28, "agree": False,
    }


@pytest.mark.parametrize("method", ["graph", "closed"])
def test_betti_single_method_json_holds_that_method_alone(capsys, method):
    (data,) = run_json(capsys, "betti", "--g", "5", "--r", "3", "--k", "2",
                       "--method", method, "--json")
    assert data == {"schema": SCHEMA_VERSION, "g": 5, "r": 3, "k": 2,
                    "method": method, method: 4}


def test_betti_closed_form_out_of_scope(capsys):
    code, _, err = run(capsys, "betti", "--g", "7", "--r", "3", "--k", "3",
                       "--method", "closed")
    assert code == 2 and "closed form" in err


def test_graph_summary_and_dot(capsys, tmp_path):
    dot_path = tmp_path / "locus.dot"
    (data,) = run_json(capsys, "graph", "--g", "5", "--r", "3", "--k", "2",
                       "--dot", str(dot_path), "--json")
    assert data["circles"] == 4 and data["vertices"] == 3
    assert data["edges"] == 6 and data["components"] == 1 and data["betti"] == 4
    text = dot_path.read_text()
    assert text.startswith("graph locus {") and text.count(" -- ") == 6

    code, out, _ = run(capsys, "graph", "--g", "5", "--r", "3", "--k", "2")
    assert code == 0 and "betti = 4" in out


def test_graph_text_lists_the_summary_then_the_dot_file(capsys, tmp_path):
    summary = "circles = 4\nvertices = 3\nedges = 6\ncomponents = 1\nbetti = 4\n"
    argv = ["graph", "--g", "5", "--r", "3", "--k", "2"]
    assert run(capsys, *argv) == (0, summary, "")
    dot_path = tmp_path / "locus.dot"
    assert run(capsys, *argv, "--dot", str(dot_path)) == (0, f"{summary}wrote {dot_path}\n", "")


def test_graph_dot_to_a_missing_directory_exits_2(capsys, tmp_path):
    missing = tmp_path / "missing" / "locus.dot"
    code, _, err = run(capsys, "graph", "--g", "5", "--r", "3", "--k", "2",
                       "--dot", str(missing))
    assert code == 2 and f"cannot write {missing}" in err


# --------------------------------------------------------------------------
# path


WALK_START = [[4], [3, 7], [2, 6, 9], [1, 5, 8, 10]]


def test_path_between_tableaux(capsys, tmp_path):
    src = dump(tmp_path, "src.json", stair(WALK_START))
    dst = dump(tmp_path, "dst.json", minimal_witness(PrymParams(12, 4, 0)))
    code, out, _ = run(capsys, "path", "--g", "12", "--k", "0",
                       "--from", src, "--to", dst)
    assert code == 0 and out.splitlines()[0] == "16 states, 15 steps"
    lines = run_json(capsys, "path", "--g", "12", "--k", "0",
                     "--from", src, "--to", dst, "--json")
    assert [rec["index"] for rec in lines] == list(range(16))
    assert tableau_from_json(lines[0]["tableau"]) == stair(WALK_START)
    assert tableau_from_json(lines[-1]["tableau"]) == minimal_witness(
        PrymParams(12, 4, 0)
    )


def test_path_input_validation(capsys, tmp_path):
    src = dump(tmp_path, "src.json", stair(WALK_START))
    code, _, err = run(capsys, "path", "--g", "12", "--k", "0", "--r", "5",
                       "--from", src, "--to", src)
    assert code == 2 and "disagrees" in err
    sq = dump(tmp_path, "sq.json", square([[3, 5], [1, 3]]))
    code, _, err = run(capsys, "path", "--g", "12", "--k", "0",
                       "--from", sq, "--to", sq)
    assert code == 2 and "staircase" in err
    code, _, err = run(capsys, "path", "--g", "12", "--k", "0",
                       "--from", str(tmp_path / "missing.json"), "--to", src)
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "path", "--g", "12", "--k", "0",
                       "--from", str(bad), "--to", src)
    assert code == 2 and "not valid JSON" in err


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "is not UTF-8 text"),
    (b"[" * 100000, "nests too deeply"),
], ids=["not-utf8", "deep-nesting"])
def test_a_tableau_file_that_json_cannot_read_exits_2(capsys, tmp_path, content, message):
    src = dump(tmp_path, "src.json", stair(WALK_START))
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for argv in (["path", "--g", "12", "--k", "0", "--from", str(bad), "--to", src],
                 ["divisor", "--g", "12", "--k", "0", "--in", str(bad)],
                 ["reflectify", "--g", "12", "--k", "0", "--in", str(bad)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(f"error: {bad} {message}")


# --------------------------------------------------------------------------
# reflectify


def test_reflectify_golden_trace(capsys, tmp_path):
    start = square([list(row) for row in REFLECTION_TRACE[0]])
    final = square([list(row) for row in REFLECTION_TRACE[-1]])
    src = dump(tmp_path, "square.json", start)
    lines = run_json(capsys, "reflectify", "--g", "11", "--k", "3",
                     "--in", src, "--trace", "--json")
    assert len(lines) == 9
    assert tableau_from_json(lines[-1]["tableau"]) == final
    code, out, _ = run(capsys, "reflectify", "--g", "11", "--k", "3",
                       "--in", src, "--trace")
    assert code == 0 and out.count("-- state") == 9
    code, out, _ = run(capsys, "reflectify", "--g", "11", "--k", "3", "--in", src)
    assert code == 0 and "-- state" not in out


def test_reflectify_with_a_huge_g_returns_at_once(capsys, tmp_path):
    g = 10**9
    src = dump(tmp_path, "square.json", square([[g, 2 * g - 1], [1, g]]))
    start = time.perf_counter()
    code, _, err = run(capsys, "reflectify", "--g", str(g), "--k", "2", "--in", src)
    assert code == 0, err
    assert time.perf_counter() - start < 1.0


def test_reflectify_reads_an_explicit_square_as_the_square(capsys, tmp_path):
    start = square([list(row) for row in REFLECTION_TRACE[0]])
    named = dump(tmp_path, "square.json", start)
    doc = tableau_to_json(start)
    doc["shape"] = {"kind": "explicit", "boxes": doc["shape"]["boxes"]}
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps(doc))
    for extra in ([], ["--trace", "--json"]):
        argv = ["reflectify", "--g", "11", "--k", "3", *extra, "--in"]
        want = run(capsys, *argv, named)
        assert want[0] == 0 and run(capsys, *argv, str(explicit)) == want


def test_a_shape_kind_that_is_not_a_string_exits_2(capsys, tmp_path):
    src = tmp_path / "kind.json"
    for kind in ([1], {"square": 2}):
        src.write_text(json.dumps({"shape": {"kind": kind, "r": 2}, "entries": []}))
        code, _, err = run(capsys, "reflectify", "--g", "5", "--k", "2", "--in", str(src))
        assert code == 2 and "kind must be a string" in err


def test_reflectify_rejects_staircases(capsys, tmp_path):
    src = dump(tmp_path, "stair.json", stair(WALK_START))
    code, _, err = run(capsys, "reflectify", "--g", "12", "--k", "0", "--in", src)
    assert code == 2 and "square" in err


# --------------------------------------------------------------------------
# divisor


def test_divisor_json_and_text(capsys, tmp_path):
    src = dump(tmp_path, "witness.json", minimal_witness(PrymParams(5, 3, 2)))
    (data,) = run_json(capsys, "divisor", "--g", "5", "--k", "2",
                       "--in", src, "--json")
    assert data["degree"] == 8 and data["dimension"] == 1
    assert len(data["free_loops"]) == 2
    assert len(data["entries"]) == 10  # nine loops plus the boundary stack
    code, out, _ = run(capsys, "divisor", "--g", "5", "--k", "2", "--in", src)
    assert code == 0 and "degree = 8" in out and "dimension = 1" in out


def test_divisor_on_the_one_box_staircase(capsys, tmp_path):
    # T_1 has the boxes of the 1x1 square; the shape's kind decides.
    src = tmp_path / "t1.json"
    src.write_text(json.dumps(
        {"shape": {"kind": "staircase", "r": 1}, "entries": [[1, 1, 1]]}
    ))
    (data,) = run_json(capsys, "divisor", "--g", "3", "--k", "2",
                       "--in", str(src), "--json")
    assert data["degree"] == 4 and data["dimension"] == 1
    assert data["free_loops"] == [2, 4]


def test_divisor_text_lists_each_loop_then_degree_and_dimension(capsys, tmp_path):
    src = tmp_path / "t1.json"
    src.write_text(json.dumps(
        {"shape": {"kind": "staircase", "r": 1}, "entries": [[1, 1, 1]]}
    ))
    assert run(capsys, "divisor", "--g", "3", "--k", "2", "--in", str(src)) == (
        0,
        "loop 1: pos 0 mult 1\nloop 2: free\nloop 3: pos 2 mult 1\nloop 4: free\n"
        "loop 5: pos 0 mult 1\nloop 5: pos 0 mult 1\ndegree = 4\ndimension = 1\n",
        "",
    )


def test_divisor_empty_cell(capsys, tmp_path):
    src = dump(tmp_path, "odd.json", square([[4, 5], [3, 4]]))
    code, out, _ = run(capsys, "divisor", "--g", "3", "--k", "2", "--in", src)
    assert (code, out) == (0, "empty\n")
    (data,) = run_json(capsys, "divisor", "--g", "3", "--k", "2",
                       "--in", src, "--json")
    assert data["empty"] is True


# --------------------------------------------------------------------------
# census


def test_census_parallel_sweep(capsys, tmp_path):
    out_path = tmp_path / "census.csv"
    code, out, _ = run(capsys, "census", "--rmax", "2", "--kmax", "3",
                       "--out", str(out_path), "--jobs", "2")
    assert code == 0 and f"wrote 6 rows to {out_path}" in out
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(CENSUS_COLUMNS)
    assert [(int(row["r"]), int(row["k"])) for row in rows] == [
        (1, 0), (1, 2), (1, 3), (2, 0), (2, 2), (2, 3),
    ]
    assert all(row["agree"] == "yes" for row in rows)
    assert all(int(row["g"]) == int(row["n"]) + 2 for row in rows)


def test_census_rejects_bad_bounds(capsys):
    code, _, err = run(capsys, "census", "--rmax", "0")
    assert code == 2 and "rmax" in err


def test_census_out_to_a_missing_directory_exits_2(capsys, tmp_path):
    out_path = tmp_path / "missing" / "census.csv"
    code, _, err = run(capsys, "census", "--rmax", "1", "--kmax", "0",
                       "--out", str(out_path), "--jobs", "1")
    assert code == 2 and f"cannot write {out_path}" in err


def test_census_out_fails_before_computing_a_row(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_census_row", lambda task: calls.append(task) or _census_row(task))
    out_path = tmp_path / "missing" / "census.csv"
    code, _, err = run(capsys, "census", "--out", str(out_path), "--jobs", "1")
    assert code == 2 and f"cannot write {out_path}" in err and calls == []
    # The stand-in counts the rows of a run that can write.
    out = str(tmp_path / "census.csv")
    assert run(capsys, "census", "--rmax", "1", "--kmax", "2", "--out", out, "--jobs", "1")[0] == 0
    assert calls == [(1, 0, False), (1, 2, False)]


def test_census_out_naming_a_directory_exits_2_before_computing_a_row(
        capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_census_row", lambda task: calls.append(task) or _census_row(task))
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "target"
    target.mkdir()
    missing = str(tmp_path / "missing") + os.sep
    for out, reason in ((str(target), "it names a directory"),
                        (str(target) + os.sep, "it names a directory"),
                        ("", "it names no file"),
                        (missing, "it names no file")):
        code, _, err = run(capsys, "census", "--rmax", "1", "--kmax", "0",
                           "--out", out, "--jobs", "1")
        assert code == 2 and f"cannot write {out}: {reason}" in err
        assert calls == []
    # No partial file is left beside the directory, in it, or in the
    # working directory.
    assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


def test_census_removes_its_partial_file_when_a_row_fails(capsys, tmp_path, monkeypatch):
    def refuse(task):
        raise GuardRefused(f"row {task} refused")

    monkeypatch.setattr(cli, "_census_row", refuse)
    out = tmp_path / "census.csv"
    code, _, err = run(capsys, "census", "--rmax", "1", "--out", str(out), "--jobs", "1")
    assert code == 3 and "refused" in err
    assert list(tmp_path.iterdir()) == []


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that records its size and runs
    each task in this process, so the test starts no worker."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def test_census_starts_no_more_workers_than_tasks_or_cores(capsys, tmp_path, monkeypatch):
    # Census imports the pool from concurrent.futures when it fans out.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    out = str(tmp_path / "census.csv")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    # --rmax 1 --kmax 2 is two tasks: (1, 0) and (1, 2).
    assert run(capsys, "census", "--rmax", "1", "--kmax", "2", "--out", out,
               "--jobs", "6")[0] == 0
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert run(capsys, "census", "--rmax", "2", "--kmax", "3", "--out", out,
               "--jobs", "6")[0] == 0
    assert run(capsys, "census", "--rmax", "2", "--kmax", "3", "--out", out)[0] == 0
    assert RecordingPool.sizes == [2, 3, 3]
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 6
    code, _, err = run(capsys, "census", "--rmax", "1", "--out", out, "--jobs", "-1")
    assert code == 2 and "--jobs >= 0" in err
    assert RecordingPool.sizes == [2, 3, 3]


def test_census_refuses_a_sweep_over_the_row_bound_before_listing_it(
        capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_census_row", lambda task: calls.append(task) or _census_row(task))
    out = tmp_path / "census.csv"
    code, _, err = run(capsys, "census", "--rmax", "1", "--kmax", "100000000",
                       "--out", str(out), "--jobs", "1")
    assert code == 3 and "100000000 census rows" in err and "--force" in err
    assert calls == [] and list(tmp_path.iterdir()) == []
    # The bound counts rows without k = 1: --rmax 1 --kmax 5 is five rows.
    monkeypatch.setattr(cli, "CENSUS_ROW_GUARD", 5)
    assert run(capsys, "census", "--rmax", "1", "--kmax", "5", "--out", str(out),
               "--jobs", "1")[0] == 0
    assert len(calls) == 5
    code, _, err = run(capsys, "census", "--rmax", "1", "--kmax", "6", "--out", str(out),
                       "--jobs", "1")
    assert code == 3 and "6 census rows" in err and len(calls) == 5


def test_census_row_keeps_the_brute_guard():
    # n(8, 5) = 21 exceeds the guard, and odd torsion leaves count_brute as
    # the only route, so the row needs --force like `count` does.
    with pytest.raises(GuardRefused):
        _census_row((8, 5, False))


@pytest.mark.parametrize("r, k", [(3, 3), (3, 2), (4, 4), (2, 0)])
def test_census_row_counts_c_once_beyond_its_route_sweep(monkeypatch, r, k):
    # The sweep counts C(r, k) once per route; the cells column reuses the
    # cheapest route's count, and only the graph's cell check counts again.
    methods = []
    real = counting.cardinality

    def spy(r, k, method="auto", **kwargs):
        methods.append(method)
        return real(r, k, method, **kwargs)

    monkeypatch.setattr(counting, "cardinality", spy)
    row = _census_row((r, k, False))
    assert sorted(methods) == sorted([*counting.applicable_routes(r, k), "auto"])
    assert row["betti_graph"] != "" and row["agree"] == "yes"


def test_census_row_passes_force_to_the_graph(monkeypatch):
    # n(10, 3) = 19 exceeds the brute guard, while the dim-1 slice has only
    # 10240 cells: a forced row builds its graph, whose cell count reads
    # C(10, 3) by brute again, so the graph needs the force too.  (The real
    # build gives betti_graph 14337 and agree "yes" in about 2 s.)
    class Built(Exception):
        pass

    seen = []

    def spy(p, *, force=False):
        seen.append((p, force))
        raise Built

    monkeypatch.setattr(cli, "build_intersection_graph", spy)
    with pytest.raises(Built):
        _census_row((10, 3, True))
    assert seen == [(PrymParams(21, 10, 3), True)]


# --------------------------------------------------------------------------
# counts longer than the interpreter prints


# Each request made a ValueError traceback with exit 1 before: C(90, 0) has
# 6425 digits, over the 4300 that str() converts by default.
@pytest.mark.parametrize("argv, digits", [
    (("count", "--r", "90", "--k", "0"), 6425),
    (("count", "--r", "90", "--k", "0", "--json"), 6425),
    (("count", "--r", "90", "--k", "0", "--method", "all"), 6425),
    (("cells", "--g", "100000", "--r", "90", "--k", "0", "--count-only"), 13847),
    (("cells", "--g", "100000", "--r", "90", "--k", "0", "--count-only", "--json"), 13847),
    (("betti", "--g", "4097", "--r", "90", "--k", "0", "--method", "closed"), 6431),
    (("census", "--rmax", "90", "--kmax", "0", "--jobs", "1"), 4380),
], ids=["count", "count-json", "count-all", "cells", "cells-json", "betti", "census"])
def test_a_count_too_long_to_print_exits_3_before_any_output(capsys, tmp_path, argv, digits):
    limit = sys.get_int_max_str_digits()
    out_path = tmp_path / "census.csv"
    code, out, err = run(capsys, *argv, *(("--out", str(out_path)) if argv[0] == "census" else ()))
    assert (code, out) == (3, "")
    assert err == (f"refused: a count of {digits} digits exceeds this interpreter's {limit}-digit"
                   " limit on printing integers\n")
    assert sys.get_int_max_str_digits() == limit
    assert list(tmp_path.iterdir()) == []


class HookProduct(Exception):
    """Raised by a spy in place of the hook route's product."""


# The hook route had no guard: count --r 400 --k 0 took 2 s and --r 2000 ran
# past 30 s before the exit 3.  The digit bound from the hook lengths refuses
# them before the product.  The census sweep refuses at the first row whose
# cells bound passes the limit, r = 76 (C(76, 0) * 2927 has 4380 digits).
@pytest.mark.parametrize("argv, digits", [
    (("count", "--r", "2000", "--k", "0"), None),
    (("count", "--r", "2000", "--k", "3999", "--method", "hook"), None),
    (("count", "--r", "2000", "--k", "0", "--method", "all", "--json"), None),
    (("cells", "--g", "2001002", "--r", "2000", "--k", "0", "--count-only"), None),
    (("census", "--rmax", "1000", "--kmax", "0", "--jobs", "1"), 4380),
], ids=["count", "count-generic-k", "count-all", "cells", "census"])
def test_a_hook_count_far_too_long_to_print_is_refused_before_the_product(
    capsys, monkeypatch, tmp_path, argv, digits
):
    def product(*args):
        raise HookProduct

    monkeypatch.setattr(counting, "hook_length_syt_count", product)
    limit = sys.get_int_max_str_digits()
    out_path = tmp_path / "census.csv"
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, *(("--out", str(out_path)) if argv[0] == "census" else ()))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    got = int(err.split()[4])
    assert err == (f"refused: a count of {got} digits exceeds this interpreter's {limit}-digit"
                   " limit on printing integers\n")
    assert got == digits if digits else got > 10**6
    assert list(tmp_path.iterdir()) == []


class CountGeneric(Exception):
    """Raised by a spy in place of the hook route's count C(r, 0)."""


# The cell-enumerating verbs and the closed Betti form counted C(r, 0) by the
# hook route before any guard, so these ran past 10 s.  The cell guard reads
# the hook bound and the closed form the digit bound before the count.
@pytest.mark.parametrize("argv", [
    ("graph", "--g", "2001002", "--r", "2000", "--k", "0"),
    ("betti", "--g", "2001002", "--r", "2000", "--k", "0", "--method", "closed"),
    ("betti", "--g", "2001002", "--r", "2000", "--k", "0", "--method", "both"),
    ("cells", "--g", "2001002", "--r", "2000", "--k", "0"),
], ids=["graph", "betti-closed", "betti-both", "cells"])
def test_a_huge_generic_type_is_refused_before_the_hook_count(capsys, monkeypatch, argv):
    def count(r):
        raise CountGeneric

    monkeypatch.setattr(counting, "count_generic", count)
    monkeypatch.setattr(locus, "count_generic", count)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("refused: ")


@pytest.mark.parametrize("r", [1, 2, 5, 30, 76, 90])
def test_the_hook_digit_bound_is_log10_of_the_hook_count(r):
    assert abs(counting._hook_log10(r) - math.log10(counting.count_generic(r))) < 1e-6


def test_a_hook_count_inside_the_margin_is_checked_exactly(capsys):
    # C(76, 0) has 4376 digits: it prints at a 4376-digit limit, and at one
    # digit less the bound is inside the margin, so the exact check refuses.
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4376)
        code, out, _ = run(capsys, "count", "--r", "76", "--k", "0")
        assert code == 0 and len(out.strip()) == 4376
        sys.set_int_max_str_digits(4375)
        code, out, err = run(capsys, "count", "--r", "76", "--k", "0")
        assert (code, out) == (3, "")
        assert err == ("refused: a count of 4376 digits exceeds this interpreter's 4375-digit"
                       " limit on printing integers\n")
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_count_of_as_many_digits_as_the_limit_prints(capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(cli, "cardinality", lambda *args, **kwargs: 10**limit - 1)
    code, out, _ = run(capsys, "count", "--r", "3", "--k", "0")
    assert (code, out) == (0, "9" * limit + "\n")


# --------------------------------------------------------------------------
# selftest


def test_selftest_single_instance(capsys):
    code, out, _ = run(capsys, "selftest", "--instance", "7,3,4")
    assert code == 0
    assert out.splitlines()[-1] == "13/13 rows passed"
    data = run_json(capsys, "selftest", "--instance", "7,3,4", "--json")[0]
    assert data["passed"] is True
    details = " ".join(row["detail"] for row in data["rows"])
    assert "betti 29" in details and "24 cells" in details
    r12 = next(row["detail"] for row in data["rows"] if row["ident"] == "R12")
    assert r12 == (
        "252 Prym squares: 0 on the empty cell, 40 reflective, 212 changed by the sweep;"
        " all land on codimension n"
    )


def test_selftest_bad_instance(capsys):
    code, _, err = run(capsys, "selftest", "--instance", "7,3")
    assert code == 2 and "--instance wants g,r,k" in err


@pytest.mark.parametrize("instance, message", [
    ("1,1,1", "g must be at least 2"),
    ("7,-1,4", "r must be non-negative"),
    ("7,3,1", "k must be 0 or at least 2"),
])
def test_selftest_refuses_an_instance_that_is_no_type(capsys, instance, message):
    code, out, err = run(capsys, "selftest", "--instance", instance)
    assert (code, out) == (2, "") and message in err


# --------------------------------------------------------------------------
# argparse plumbing


def test_missing_required_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--g", "7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2


# Every verb's flags in declaration order: (flag, dest, type, default,
# required, choices).  Shared flags come from parent parsers; this pins
# that no flag changed when they did.
FLAGS = {
    "dim": [("--g", "g", int, None, True, None), ("--r", "r", int, None, True, None),
            ("--k", "k", int, None, True, None), ("--json", "json", None, False, False, None)],
    "count": [
        ("--r", "r", int, None, True, None), ("--k", "k", int, None, True, None),
        ("--method", "method", None, "auto", False,
         ("auto", "hook", "det", "paths", "brute", "all")),
        ("--force", "force", None, False, False, None),
        ("--json", "json", None, False, False, None),
    ],
    "cells": [
        ("--g", "g", int, None, True, None), ("--r", "r", int, None, True, None),
        ("--k", "k", int, None, True, None),
        ("--count-only", "count_only", None, False, False, None),
        ("--symbols", "symbols", None, None, False, None),
        ("--force", "force", None, False, False, None),
        ("--json", "json", None, False, False, None),
    ],
    "betti": [
        ("--g", "g", int, None, True, None), ("--r", "r", int, None, True, None),
        ("--k", "k", int, None, True, None),
        ("--method", "method", None, "both", False, ("graph", "closed", "both")),
        ("--force", "force", None, False, False, None),
        ("--json", "json", None, False, False, None),
    ],
    "graph": [
        ("--g", "g", int, None, True, None), ("--r", "r", int, None, True, None),
        ("--k", "k", int, None, True, None), ("--dot", "dot", None, None, False, None),
        ("--force", "force", None, False, False, None),
        ("--json", "json", None, False, False, None),
    ],
    "path": [
        ("--g", "g", int, None, True, None), ("--k", "k", int, None, True, None),
        ("--r", "r", int, None, False, None), ("--from", "src", None, None, True, None),
        ("--to", "dst", None, None, True, None), ("--json", "json", None, False, False, None),
    ],
    "reflectify": [
        ("--g", "g", int, None, True, None), ("--k", "k", int, None, True, None),
        ("--r", "r", int, None, False, None), ("--in", "src", None, None, True, None),
        ("--trace", "trace", None, False, False, None),
        ("--json", "json", None, False, False, None),
    ],
    "divisor": [
        ("--g", "g", int, None, True, None), ("--k", "k", int, None, True, None),
        ("--r", "r", int, None, False, None), ("--in", "src", None, None, True, None),
        ("--json", "json", None, False, False, None),
    ],
    "census": [
        ("--rmax", "rmax", int, 4, False, None), ("--kmax", "kmax", int, 5, False, None),
        ("--out", "out", None, "census.csv", False, None),
        ("--jobs", "jobs", int, 0, False, None),
        ("--force", "force", None, False, False, None),
    ],
    "selftest": [("--instance", "instance", None, None, False, None),
                 ("--json", "json", None, False, False, None)],
}


def test_every_verb_declares_the_pinned_flags():
    subs = next(a for a in cli.build_parser()._actions if a.dest == "verb")
    got = {
        verb: [(a.option_strings[0], a.dest, a.type, a.default, a.required, a.choices)
               for a in sub._actions if a.dest != "help"]
        for verb, sub in subs.choices.items()
    }
    assert got == FLAGS


def test_main_builds_one_parser_for_every_request(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    for _ in range(5):
        assert run(capsys, "dim", "--g", "7", "--r", "3", "--k", "4")[0] == 0
        assert run(capsys, "count", "--r", "3", "--k", "3", "--method", "det")[0] == 2
    assert built == [1]
    # build_parser itself still hands out a fresh parser on every call.
    assert real() is not real()


def test_a_flag_of_one_request_does_not_reach_the_next(capsys, tmp_path):
    code, _, err = run(capsys, "count", "--r", "8", "--k", "5", "--method", "all", "--force")
    assert code == 0 and "--force" in err
    code, out, err = run(capsys, "count", "--r", "8", "--k", "5", "--method", "all")
    assert (code, out) == (3, "") and err.startswith("refused:")
    src = dump(tmp_path, "square.json", square([list(row) for row in REFLECTION_TRACE[0]]))
    argv = ["reflectify", "--g", "11", "--k", "3", "--in", src]
    plain = run(capsys, *argv)
    assert plain[0] == 0 and run(capsys, *argv, "--trace")[1].count("-- state") == 9
    assert run(capsys, *argv) == plain and "-- state" not in plain[1]


def test_a_usage_error_leaves_the_parser_serving(capsys):
    for bad in (["dim", "--g", "7"], ["count", "--r", "3", "--k", "3", "--method", "nope"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "dim", "--g", "7", "--r", "3", "--k", "4") == (
            0, "n(r,k) = 5\ndim = 1\n", ""
        )


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(prymbn.__file__)), env.get("PYTHONPATH", "")]
    )
    return env


def test_importing_prymbn_loads_no_process_pool():
    probe = ("import sys, prymbn; print([m for m in ('multiprocessing',"
             " 'concurrent.futures.process') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_python_dash_m_runs_the_cli_without_warnings():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "prymbn", "dim", "--g", "7", "--r", "3",
         "--k", "4"],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "n(r,k) = 5\ndim = 1\n", ""
    )


# --------------------------------------------------------------------------
# contract fuzz: every argv ends in exit 0, 2 or 3, never in a traceback

# Valid tableaux with a type (g, k) they fit, so that some requests succeed.
TYPED_DOCS = [
    (tableau_to_json(t), g, k)
    for t, g, k in (
        (minimal_witness(PrymParams(7, 3, 4)), 7, 4),
        (minimal_witness(PrymParams(6, 2, 0)), 6, 0),
        (stair(WALK_START), 12, 0),
        (square([[3, 5], [1, 3]]), 3, 2),
        (square([list(row) for row in REFLECTION_TRACE[0]]), 23, 5),
    )
]
small_ints = st.integers(-1, 9).map(str)


instances = (
    st.tuples(st.integers(-1, 9), st.integers(-1, 2), st.integers(-1, 9))
    .map(lambda t: ",".join(map(str, t)))
    | st.sampled_from(["7,3", "7,3,4,5", "x", "1.5,2,3", "7,,4"])
)


@st.composite
def cli_requests(draw):
    """An argv for one of the cheap verbs and the tableau documents its
    ``A``/``B`` file arguments name (``None``: the file does not exist).
    ``OUT`` names a writable file and ``MISSING`` one in a missing directory."""
    verb = draw(st.sampled_from(
        ["dim", "count", "cells", "betti", "path", "reflectify", "divisor",
         "census", "selftest"]
    ))
    g, r, k = draw(small_ints), draw(st.integers(-1, 6).map(str)), draw(small_ints)
    docs = []
    if verb == "count":
        argv = ["count", "--r", r, "--k", k, "--method",
                draw(st.sampled_from(["auto", "hook", "det", "paths", "brute", "all"]))]
    elif verb in ("dim", "cells", "betti"):
        argv = [verb, "--g", g, "--r", r, "--k", k]
        if verb == "cells":
            argv.append("--count-only")
        if verb == "betti":
            argv += ["--method", draw(st.sampled_from(["graph", "closed", "both"]))]
    elif verb == "census":
        bound = st.integers(-1, 2).map(str)
        argv = ["census", "--rmax", draw(bound), "--kmax", draw(bound),
                "--jobs", draw(st.sampled_from(["-1", "1"])),
                "--out", draw(st.sampled_from(["OUT", "MISSING"]))]
    elif verb == "selftest":
        argv = ["selftest", "--instance", draw(instances)]
    else:
        files = ["--from", "A", "--to", "B"] if verb == "path" else ["--in", "A"]
        argv = [verb, "--g", g, "--k", k, *files]
        if draw(st.booleans()):
            argv += ["--r", r]
        if verb == "reflectify" and draw(st.booleans()):
            argv.append("--trace")
        doc, dg, dk = draw(st.sampled_from(TYPED_DOCS))
        if draw(st.booleans()):  # the request's type fits the first document
            argv[2], argv[4] = str(dg), str(dk)
        other = st.sampled_from([doc]) | tableau_docs() | st.none()
        docs = [doc if draw(st.booleans()) else draw(other)]
        if verb == "path":
            docs.append(draw(other))
    if verb != "census" and draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 5)) == 0:  # now and then a token is dropped or junk
        i = draw(st.integers(0, len(argv) - 1))
        argv[i:i + 1] = draw(st.sampled_from([[], ["x"], ["1.5"], ["--nope"]]))
    return argv, docs


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_requests())
def test_cli_main_exits_0_2_or_3_on_any_request(capsys, tmp_path, monkeypatch, request_):
    argv, docs = request_
    monkeypatch.chdir(tmp_path)  # a junk --out value names a file here
    paths = {"OUT": str(tmp_path / "census.csv"),
             "MISSING": str(tmp_path / "missing" / "census.csv")}
    for name, doc in zip("AB", docs):
        path = tmp_path / f"{name}.json"
        path.unlink(missing_ok=True)
        if doc is not None:
            path.write_text(json.dumps(doc))
        paths[name] = str(path)
    argv = [paths.get(tok, tok) for tok in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusing the argv
        code = exc.code
    capsys.readouterr()
    assert code in (0, 2, 3), argv
