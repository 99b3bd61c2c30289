"""The layer boundary: every library call the workloads make goes through here.

``make_api(None)`` hands out the library's own functions, so the untraced
run pays nothing.  ``make_api(tracer)`` wraps each one in a span named
``<module>.<function>``.  The names are fixed here, not read from
``__module__``, so moving a function between modules does not rename a
benchmark metric.  Only names in ``prymbn.__all__`` are used, except
``core.class_symbol_sets``, which the per-layer table asks for by name.
"""

from __future__ import annotations

from types import SimpleNamespace

import prymbn
from prymbn import cli

from harness import Tracer

CLI_VERBS = (
    "dim", "count", "cells", "betti", "graph", "path", "reflectify", "divisor", "census",
)

# Span name -> (attribute on the api, function).  The traced run reports
# ``<span>.self_us`` and ``<span>.calls`` for each.
SPANS: dict[str, tuple[str, object]] = {
    "core.is_tableau": ("is_tableau", prymbn.is_tableau),
    "core.is_prym": ("is_prym", prymbn.is_prym),
    "core.is_displacement": ("is_displacement", prymbn.is_displacement),
    "core.class_symbol_sets": ("class_symbol_sets", prymbn.core.class_symbol_sets),
    "core.dominates": ("dominates", prymbn.dominates),
    "core.codimension": ("codimension", prymbn.codimension),
    "reflection.extend_to_reflective": ("extend_to_reflective", prymbn.extend_to_reflective),
    "reflection.reflectify": ("reflectify", prymbn.reflectify),
    "reflection.restrict_to_staircase": ("restrict_to_staircase", prymbn.restrict_to_staircase),
    "strips.dominating_non_repeating": ("dominating_non_repeating", prymbn.dominating_non_repeating),
    "strips.strips_admitting": ("strips_admitting", prymbn.strips_admitting),
    # Consumed inside the span, so the time is the enumeration's own.
    "dimension.enumerate_staircase_tableaux": (
        "enumerate_staircase_tableaux", lambda p: list(prymbn.enumerate_staircase_tableaux(p))
    ),
    "dimension.brute_min_codim": ("brute_min_codim", prymbn.brute_min_codim),
    "locus.enumerate_maximal_cells": ("enumerate_maximal_cells", prymbn.enumerate_maximal_cells),
    "locus.build_intersection_graph": ("build_intersection_graph", prymbn.build_intersection_graph),
    "locus.connect_path": ("connect_path", prymbn.connect_path),
    "locus.is_adjacent": ("is_adjacent", prymbn.is_adjacent),
    "divisors.tableau_to_divisor": ("tableau_to_divisor", prymbn.tableau_to_divisor),
    "counting.count_generic": ("count_generic", prymbn.count_generic),
    "counting.count_even_determinant": ("count_even_determinant", prymbn.count_even_determinant),
    "counting.count_lattice_paths": ("count_lattice_paths", prymbn.count_lattice_paths),
    "counting.count_brute": ("count_brute", prymbn.count_brute),
    "cli.build_parser": ("build_parser", cli.build_parser),
    **{f"cli.main.{verb}": ("cli_main", cli.main) for verb in CLI_VERBS},
    "io.tableau_from_json": ("tableau_from_json", prymbn.tableau_from_json),
    "io.tableau_to_json": ("tableau_to_json", prymbn.tableau_to_json),
}

# Calls reported per work unit instead of per call: the span's ``calls``
# counts the unit and ``self_us`` is the time per unit.
UNITS = {
    "dimension.enumerate_staircase_tableaux": len,
    "locus.enumerate_maximal_cells": len,
    "locus.build_intersection_graph": lambda graph: len(graph.circles),
}

# A second count per span, reported as ``<span>.<name>``: span -> (name, count).
EXTRAS = {
    "locus.build_intersection_graph": ("vertices", lambda graph: graph.v),
    "locus.connect_path": ("steps", lambda path: len(path) - 1),
}

MODULES = ("core", "dimension", "reflection", "strips", "locus", "divisors", "counting", "io", "cli")


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = [f"{span}.{stat}" for span in SPANS for stat in ("self_us", "calls")]
    names += [f"{span}.{name}" for span, (name, _) in EXTRAS.items()]
    names += [f"layer.{mod}.share" for mod in MODULES]
    names.append("trace.overhead_frac")
    return names


def make_api(tracer: Tracer | None) -> SimpleNamespace:
    """The library functions, plain or wrapped in spans.

    ``api.probe`` is true only when tracing: the per-layer probes (calls
    made to time a layer, not to answer the item) run only then, so they
    never touch the untraced end-to-end numbers.
    """
    api = SimpleNamespace(probe=tracer is not None)
    for span, (attr, fn) in SPANS.items():
        if tracer is None:
            setattr(api, attr, fn)
        elif not span.startswith("cli.main."):
            extra = EXTRAS[span][1] if span in EXTRAS else None
            setattr(api, attr, tracer.wrap(span, fn, UNITS.get(span), extra))
    if tracer is not None:
        api.cli_main = tracer.wrap(lambda argv: f"cli.main.{argv[0]}", cli.main)
    return api
