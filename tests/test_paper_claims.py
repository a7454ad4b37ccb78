"""The claims table is well formed, the README lists it, and its tests exist."""

import importlib
import pathlib

from paper_claims import CLAIMS

from distortion_lab import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title: str) -> list[str]:
    """The lines of the README's ``## title`` section."""
    lines = README.read_text().splitlines()
    start = lines.index(f"## {title}") + 1
    end = next((k for k in range(start, len(lines)) if lines[k].startswith("## ")), len(lines))
    return lines[start:end]


def test_rows_are_well_formed():
    assert len({row.id for row in CLAIMS}) == len(CLAIMS)
    for row in CLAIMS:
        assert row.world in ("metric", "utilitarian"), row.id
        assert row.kind in ("upper", "lower"), row.id
        assert row.tests, row.id
        if row.rule is None:
            assert not row.params, row.id
        else:
            cli.make_rule(row.rule, row.params)


def test_readme_lists_every_claim():
    section = readme_section("Paper claims")
    for row in CLAIMS:
        lines = [line for line in section if line.startswith(f"| `{row.id}` |")]
        assert len(lines) == 1, row.id
        assert f"`{row.text}`" in lines[0], row.id


def test_every_named_test_exists():
    for row in CLAIMS:
        for name in row.tests:
            module, *path = name.split("::")
            found = importlib.import_module(module)
            for attr in path:
                found = getattr(found, attr)
            assert callable(found), (row.id, name)

