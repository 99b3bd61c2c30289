"""The exit gate: one pytest line per acceptance row.

Each row of :data:`prymbn.selftest.ROWS` re-derives a published pin or
sweeps an exhaustive family with its own time budget; a row raises
``AssertionError`` with a precise message on any disagreement.  Running
``pytest -v tests/test_acceptance.py`` therefore prints one pass/fail line
per criterion.
"""

from __future__ import annotations

import pytest

from prymbn.selftest import ROWS, RunContext

_IDS = [f"{row.ident}-{row.title.replace(' ', '-').replace(',', '')}" for row in ROWS]


@pytest.mark.parametrize("row", ROWS, ids=_IDS)
def test_acceptance_row(row):
    detail = row.run(RunContext())
    assert detail and detail != "skipped by instance filter"


def test_cell_row_checks_a_dimension_zero_instance():
    # g - 1 = n(3, 4) = 5: the locus has dimension 0, and its cells still
    # obey the product count.
    row = next(row for row in ROWS if row.ident == "R3")
    assert row.run(RunContext(instance=(6, 3, 4))) == "1 instances match the product count"


def test_square_row_checks_a_dimension_zero_instance():
    # g - 1 = n(3, 4) = 5: every Prym square is reflective, so the sweep
    # changes none, and each still lands on codimension n.
    row = next(row for row in ROWS if row.ident == "R12")
    assert row.run(RunContext(instance=(6, 3, 4))) == (
        "4 Prym squares: 0 on the empty cell, 4 reflective, 0 changed by the sweep;"
        " all land on codimension n"
    )
