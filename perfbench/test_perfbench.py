"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from prymbn import PrymParams, enumerate_staircase_tableaux  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from harness import (  # noqa: E402
    REF_NOMINAL_S, Item, PassResult, Span, Tracer, covered, end_to_end, per_layer, run_item,
    run_pass, self_times,
)
from layers import EXTRAS, MODULES, SPANS, make_api, per_layer_names  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# The ROADMAP item-5 requests the CLI fails at the time of writing.
KNOWN_DEFECTS = {
    "count (8,5) all [every route refused]",
    "divisor T_1 (3,1,2) [valid staircase]",
}


# --------------------------------------------------------------------------
# BENCHMARK.json and the metric-name grammar


def test_spec_keys_and_grammar():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert sorted(names[: len(SPEC["workloads"])]) == sorted(workloads.WORKLOADS)


def test_per_layer_names_match_the_spans():
    assert [m["name"] for m in SPEC["per_layer"]] == per_layer_names()
    for span in SPANS:
        assert span.split(".", 1)[0] in MODULES
    assert set(EXTRAS) <= set(SPANS)


def test_api_uses_exported_names_only():
    import prymbn

    exported = set(prymbn.__all__) - {"kernels"}
    # class_symbol_sets is read from prymbn.core; the cli names from prymbn.cli.
    via_submodule = {"class_symbol_sets", "build_parser", "cli_main"}
    assert {attr for attr, _ in SPANS.values()} - via_submodule <= exported
    for path in HERE.glob("*.py"):
        imports = re.findall(r"^\s*(?:from|import)\s+prymbn\.", path.read_text(), re.M)
        assert not imports, f"{path.name} imports a prymbn submodule directly"


def test_count_pins_agree_with_the_published_table():
    table = workloads.selftest.CARDINALITY_TABLE
    assert all(workloads.EXPECTED_C[cell] == table[cell]
               for cell in set(table) & set(workloads.EXPECTED_C))
    assert all(cell in workloads.EXPECTED_C for cell in workloads.count_cells())


# --------------------------------------------------------------------------
# Self time on a synthetic span tree


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([], 0, 10) == 0


def test_self_time_arithmetic():
    spans = [
        Span("item", 0.0, 10.0, -1, 0),
        Span("core.a", 1.0, 4.0, 0, 0),
        Span("core.b", 3.0, 6.0, 0, 0),  # overlaps its sibling
        Span("reflection.c", 2.0, 3.0, 1, 0),
        Span("dimension.d", 20.0, 22.0, -1, -1, units=4),  # set-up span
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0, 2.0]
    traced = PassResult(latencies=[10.0])
    untraced = PassResult(latencies=[8.0])
    out = per_layer(spans, ["core.a", "dimension.d", "core.never"], {}, ["core", "dimension"],
                    traced, untraced)
    assert out["core.a.self_us"] == pytest.approx(2e6)
    assert out["dimension.d.self_us"] == pytest.approx(0.5e6)  # per unit
    assert out["dimension.d.calls"] == 4
    assert out["core.never.calls"] == 0 and out["core.never.self_us"] == 0.0
    assert out["layer.core.share"] == pytest.approx(0.5)
    assert out["layer.dimension.share"] == 0.0  # set-up spans are not in the timed phase
    assert out["trace.overhead_frac"] == pytest.approx(0.25)


def test_tracer_nests_spans_and_counts_units():
    tracer = Tracer()
    outer = tracer.wrap("locus.outer", lambda: inner() + [1], units=len)
    inner = tracer.wrap("core.inner", lambda: [0])
    tracer.run_item(7, outer)
    root, first, second = tracer.spans
    assert (root.name, root.parent, first.parent, second.parent) == ("item", -1, 0, 1)
    assert first.units == 2 and second.units == 1
    assert {s.item for s in tracer.spans} == {7}


# --------------------------------------------------------------------------
# The checkers flag wrong answers


def test_checkers_flag_a_wrong_expected_value():
    p = PrymParams(9, 3, 4)
    t = next(enumerate_staircase_tableaux(p))
    api = make_api(None)
    n = workloads.expected_codim(3, 4)
    assert run_item(Item("reflect", "ok", workloads.reflect_item(t, p, n)), api) is None
    category, reason = run_item(Item("reflect", "bad", workloads.reflect_item(t, p, n + 1)), api)
    assert category == "wrong" and "codimension" in reason
    bad_route = workloads.route_item("count_generic", 5, 0, 292865)
    assert run_item(Item("count", "bad", bad_route), api)[0] == "wrong"
    bad_cli = workloads.cli_item(["count", "--r", "5", "--k", "4", "--json"], 0,
                                 workloads.check_fields(count=17))
    assert run_item(Item("cli", "bad", bad_cli), api)[0] == "wrong"
    wrong_code = workloads.cli_item(["dim", "--g", "7", "--r", "3", "--k", "1"], 0, None)
    assert run_item(Item("cli", "bad", wrong_code), api)[0] == "contract"


def test_run_pass_ends_on_a_deck_boundary():
    deck = [Item("a", "a", lambda api: None), Item("b", "b", lambda api: None)] * 3
    res = run_pass(deck, make_api(None), 0.0)
    assert res.attempted == len(deck) and res.failed == 0
    assert res.deck_len == len(deck)
    assert len(res.ref_s) == 2 and res.segment == [0] * len(deck)


def test_times_are_scaled_by_the_readings_around_them():
    # Two decks of two items; the host ran at half speed around the last two.
    res = PassResult(latencies=[0.001, 0.003, 0.002, 0.006], deck_len=2,
                     segment=[0, 0, 1, 1],
                     ref_s=[REF_NOMINAL_S, REF_NOMINAL_S, 3 * REF_NOMINAL_S])
    assert res.scaled_latencies() == pytest.approx([0.001, 0.003, 0.001, 0.003])
    assert [sum(d) for d in res.decks(res.scaled_latencies())] == pytest.approx([0.004, 0.004])
    metrics = end_to_end(res, 0.5, 30.0)
    assert metrics["items_per_s"] == pytest.approx(500.0)
    assert metrics["setup_s"] == 0.5 and metrics["ok_rate"] == 1.0


def test_a_burst_in_one_deck_leaves_rate_and_tail_alone():
    # Three decks of 100 items; a burst of host slowness hits the middle one.
    items = [0.001] * 98 + [0.004, 0.005]
    burst = [0.001] * 90 + [0.03] * 10
    res = PassResult(latencies=items + burst + items, deck_len=100, segment=[0] * 300,
                     ref_s=[REF_NOMINAL_S, REF_NOMINAL_S])
    metrics = end_to_end(res, 0.5, 30.0)
    assert metrics["items_per_s"] == pytest.approx(100 / sum(items))
    assert metrics["item_p99_ms"] == pytest.approx(
        statistics.quantiles(items, n=100, method="inclusive")[98] * 1e3)


# --------------------------------------------------------------------------
# Tiny runs of every workload


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_untraced_run(workload, tmp_path):
    result, meta = run.measure(workload, 3, 0.0, 0, tmp_path, setup_repeats=1)
    assert result["correct"] and result["attempted"] == sum(meta["items_by_kind"].values())
    assert {f["item"] for f in meta["failures"]} <= KNOWN_DEFECTS
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_traced_run(workload, tmp_path):
    result, meta = run.measure(workload, 3, 0.0, 1, tmp_path)
    assert result["correct"]
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(value) == per_layer_names()
    assert all(value[f"{span}.calls"] > 0 for span in SPANS)  # calibration reaches every span
    shares = {mod: value[f"layer.{mod}.share"] for mod in MODULES}
    if workload == "count":
        assert shares["reflection"] == 0 and shares["core"] == 0
    if workload == "reflect":
        assert shares["counting"] == 0 and shares["locus"] == 0
    if workload == "cli":
        assert shares["cli"] > 0.5
    else:
        assert shares["cli"] == 0 and shares["io"] == 0
    assert (ROOT / meta["trace_file"]).is_file()
