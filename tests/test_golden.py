"""Byte-identity of the CLI reports on every fixture.

`golden_reports.json` holds the stdout and exit code of every
subcommand (verify, calculus --universal, structure --universal,
enumerate) on every fixture, and of `structure --ideal NAME` for every
named ideal of every fixture, in text and JSON.  Regenerate it only when
a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py

It prints the key of every entry that changed, so a diff of the golden
file can be checked against the reports that were meant to move.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from hopfpi.cli import main

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE.parent / "fixtures"
GOLDEN = HERE / "golden_reports.json"

COMMANDS = (
    ("verify",),
    ("calculus", "--universal"),
    ("structure", "--universal"),
    ("enumerate",),
)
FORMATS = ("text", "json")


FIXTURES = sorted(p.name for p in FIXTURE_DIR.glob("*.json"))


def ideal_names(fixture: str) -> list[str]:
    """The named ideals of a fixture document, sorted."""
    doc = json.loads((FIXTURE_DIR / fixture).read_text(encoding="utf-8"))
    return sorted(doc.get("ideals", {}))


CASES = [
    (f"{command[0]} {fixture} {fmt}",
     [command[0], str(FIXTURE_DIR / fixture), *command[1:], "--format", fmt])
    for fixture in FIXTURES
    for command in COMMANDS
    for fmt in FORMATS
] + [
    (f"structure {fixture} --ideal {name} {fmt}",
     ["structure", str(FIXTURE_DIR / fixture), "--ideal", name, "--format", fmt])
    for fixture in FIXTURES
    for name in ideal_names(fixture)
    for fmt in FORMATS
]


def run(argv: list[str]) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": stdout.getvalue()}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(key for key, _ in CASES)


@pytest.mark.parametrize("key,argv", CASES, ids=[key for key, _ in CASES])
def test_report_matches_golden(key, argv):
    assert run(argv) == load_golden()[key]


if __name__ == "__main__":
    old = load_golden() if GOLDEN.exists() else {}
    golden = {key: run(argv) for key, argv in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(golden)} reports to {GOLDEN}")
    for key in sorted(old.keys() | golden.keys()):
        if old.get(key) != golden.get(key):
            print(f"changed: {key}")
