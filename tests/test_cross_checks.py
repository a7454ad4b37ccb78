"""Every row of the cross-check table runs, the README lists the table, and
each row names an existing reference and case family."""

import functools

import cross_checks
import pytest
import reference_oracles
from conftest import readme_section
from cross_checks import CROSS_CHECKS, RULES, CrossCheck, run_row

import distortion_lab as dl


@pytest.mark.parametrize("row", CROSS_CHECKS, ids=[row.id for row in CROSS_CHECKS])
def test_library_matches_reference(row: CrossCheck, acceptance_notes):
    acceptance_notes.append(run_row(row))


def reference(row: CrossCheck):
    """The row's reference function, without the oracle bound to it."""
    return getattr(row.reference, "func", row.reference)


def cases_call(row: CrossCheck) -> str:
    """The row's case family as the call it makes, e.g. ``_reference_cases(300)``."""
    args = [repr(a) for a in row.cases.args]
    args += [f"{key}={value!r}" for key, value in row.cases.keywords.items()]
    return f"{row.cases.func.__name__}({', '.join(args)})"


def test_rows_are_well_formed():
    assert len({row.id for row in CROSS_CHECKS}) == len(CROSS_CHECKS)
    for row in CROSS_CHECKS:
        assert row.world in ("metric", "utilitarian"), row.id
        assert row.rule in RULES, row.id
        ref = reference(row)
        assert any(getattr(m, ref.__name__, None) is ref for m in (reference_oracles, dl)), row.id
        assert isinstance(row.cases, functools.partial), row.id
        assert getattr(cross_checks, row.cases.func.__name__) is row.cases.func, row.id


def test_readme_lists_every_row():
    listed = [line for line in readme_section("Tests") if line.startswith("| `")]
    assert listed == [
        f"| `{row.id}` | `{reference(row).__name__}` | {row.pins} | `{cases_call(row)}` | `{row.rule}` |"
        for row in CROSS_CHECKS
    ]
