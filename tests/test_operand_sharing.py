"""Axiom checks computed once per distinct operand tuple, and documents
that share their repeated blocks.

verify_pi_coalgebra and verify_hopf compute each identity once per
distinct tuple of operand objects and stamp the result with every grading
that reads that tuple; docio parses each distinct block of a document once.
The reports must not depend on how the components are shared:
`oracles.unshared` gives every grading its own copies, so the checks run
at every grading, and the two reports must agree violation for violation.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfpi import (
    HopfPiCoalgebra,
    constant_family,
    cyclic,
    group_algebra,
    load_document,
    save_document,
    verify_all,
    verify_pi_coalgebra,
)
from hopfpi import docio, hopf
from hopfpi.docio import document_from_json
from hopfpi.groups import group_from_table
from hopfpi.linalg import Matrix, PrimeField, QQ
from oracles import hopf_laws_by_kron, pi_coalgebra_laws_by_kron, twisted_f7_z7, unshared

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
F5 = PrimeField(5)


def _s3():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return group_from_table([[index[tuple(p[q[x]] for x in range(3))] for q in perms]
                             for p in perms])


def _rows(report) -> list:
    return [(v.check, v.grading, v.basis_index, v.detail) for v in report.violations]


def _families() -> dict:
    out = {path.name: (lambda p=path: load_document(p).hopf)
           for path in sorted(FIXTURE_DIR.glob("*.json"))}
    for label, grading in (("Z/2", lambda: cyclic(2, names=("1", "s"))), ("S3", _s3)):
        for base_label, base in (("Q[Z/2]", lambda: group_algebra(cyclic(2), QQ)),
                                 ("F5[Z/3]", lambda: group_algebra(cyclic(3), F5))):
            out[f"{base_label} over {label}"] = (
                lambda b=base, g=grading: constant_family(b(), g()))
    out["F7[Z/7] twisted by Z/3"] = twisted_f7_z7
    return out


FAMILIES = _families()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_shared_and_unshared_reports_agree(name):
    h = FAMILIES[name]()
    assert _rows(verify_all(h)) == _rows(verify_all(unshared(h)))


@pytest.fixture(scope="module")
def s3_document(tmp_path_factory):
    """F5[Z/3] constant over S3 as a document: every block repeats."""
    path = tmp_path_factory.mktemp("s3") / "s3.json"
    save_document(path, constant_family(group_algebra(cyclic(3), F5), _s3()), name="s3")
    return path


@pytest.fixture(scope="module")
def s3_family(s3_document):
    """The S3 family loaded back, its components shared the way docio
    shares them."""
    return load_document(s3_document).hopf


@pytest.fixture(scope="module")
def s3_renamed(s3_document):
    """The same family with its own basis names on each component: the
    matrices and units are still shared, the witness names are not."""
    data = json.loads(s3_document.read_text())
    for a, comp in data["components"].items():
        comp["basis"] = [f"{x}_{a}" for x in comp["basis"]]
    return document_from_json(data).hopf


def _bumped(m: Matrix, row: int, col: int, delta: int) -> Matrix:
    entries = dict(m.entries)
    key = (row % m.rows, col % m.cols)
    entries[key] = m.field.add(entries.get(key, m.field.zero()), delta)
    return Matrix(m.field, m.rows, m.cols, entries)


def _corrupted(h: HopfPiCoalgebra, which: str, a: int, b: int, row: int, col: int,
               delta: int) -> HopfPiCoalgebra:
    comult, mult, antipode, psi = dict(h.comult), list(h.mult), list(h.antipode), list(h.psi)
    if which == "comult":
        comult[(a, b)] = _bumped(comult[(a, b)], row, col, delta)
    else:
        maps = {"mult": mult, "antipode": antipode, "psi": psi}[which]
        maps[a] = _bumped(maps[a], row, col, delta)
    return HopfPiCoalgebra(h.group, h.field, h.dims, comult, h.counit, mult, h.unit,
                           antipode, psi=psi, basis_names=h.basis_names)


def _assert_reports_agree(h: HopfPiCoalgebra) -> None:
    found = _rows(verify_all(h))
    assert found
    assert found == _rows(verify_all(unshared(h)))
    assert found == _rows(pi_coalgebra_laws_by_kron(h).merge(hopf_laws_by_kron(h)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["comult", "mult", "antipode", "psi"]),
       st.integers(0, 5), st.integers(0, 5), st.integers(0, 8), st.integers(0, 8),
       st.integers(1, 4))
def test_one_corrupted_component_reports_agree(s3_family, s3_renamed, which, a, b, row, col,
                                               delta):
    """One entry of one Δ_{α,β}, m_α, S_α or Ψ_α bumped: the other gradings
    still share their operands, and the report is the one computed at
    every grading, and the one the explicit Kronecker forms give, with
    each witness named in the basis of its own component."""
    for family in (s3_family, s3_renamed):
        _assert_reports_agree(_corrupted(family, which, a, b, row, col, delta))


@pytest.mark.parametrize("which", ["comult", "mult", "antipode", "psi"])
def test_each_corrupted_component_reports_agree(s3_renamed, which):
    """Entry (0, 0) bumped, at each grading in turn: column 0 is the unit
    e, so the unit laws (S(1) = 1, Ψ(1) = 1, Δ(1) = 1⊗1) fail as well,
    and their witnesses are rendered in the basis of their component."""
    keys = ([(a, b) for a in range(6) for b in range(6)] if which == "comult"
            else [(a, 0) for a in range(6)])
    for a, b in keys:
        _assert_reports_agree(_corrupted(s3_renamed, which, a, b, 0, 0, 1))


def test_coassociativity_runs_once_per_operand_tuple(s3_family, monkeypatch):
    """All 216 grading triples of a constant family read one operand tuple,
    so one product pair is compared; unshared, every triple is."""
    calls = []
    diff = hopf._diff_columns

    def counting(check, *args, **kwargs):
        calls.append(check)
        return diff(check, *args, **kwargs)

    monkeypatch.setattr(hopf, "_diff_columns", counting)
    assert verify_pi_coalgebra(s3_family).ok
    assert calls.count("coassociativity") == 1
    calls.clear()
    assert verify_pi_coalgebra(unshared(s3_family)).ok
    assert calls.count("coassociativity") == 6 ** 3


def test_document_parses_each_distinct_block_once(s3_document, monkeypatch):
    """The 36 comult blocks of the S3 family are one block: parsed once,
    one Matrix; likewise each other repeated block."""
    contexts = []
    parse = docio._parse_matrix

    def counting(f, obj, rows, cols, context):
        contexts.append(context)
        return parse(f, obj, rows, cols, context)

    monkeypatch.setattr(docio, "_parse_matrix", counting)
    h = load_document(s3_document).hopf
    assert [c for c in contexts if c.startswith("comult")] == ["comult[0,0]"]
    assert len(h.comult) == 36 and len({id(m) for m in h.comult.values()}) == 1
    for maps in (h.mult, h.unit, h.antipode, h.psi, h.basis_names):
        assert len({id(x) for x in maps}) == 1
