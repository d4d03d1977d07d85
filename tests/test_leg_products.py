"""The leg-wise law checks against their Kronecker-form references.

The library states every tensor-leg identity with `Matrix.on_leg`, which
acts on one leg without building the identity factors.  The references in
`oracles.py` build every identity Kronecker factor (and the interchange
products) as matrices.  On lawful and on corrupted structures both forms
must report the same violations: check, grading, witness column and
message.
"""

from __future__ import annotations

import pytest

from hopfpi import (
    HopfPiCoalgebra,
    PrimeField,
    calculus_from_ideal,
    calculus_from_ideal_right,
    extract_structure,
    load_document,
    reconstruct,
    right_ideal_from_generators,
    taft_hopf_algebra,
    universal_calculus,
    verify_hopf,
    verify_pi_coalgebra,
)
from hopfpi.errors import NotCovariant
from hopfpi.linalg import Matrix
from hopfpi.structure import CovariantBimodule
from oracles import bimodule_laws_by_kron, hopf_laws_by_kron, pi_coalgebra_laws_by_kron

FIXTURES = ["kz2_rational.json", "f7_z3.json", "kz2_constant_z2.json",
            "f7z3_constant_z2.json", "taft4_rational.json", "q_z3_skew_basis.json"]


def _structure(name, fixture_dir):
    """(h, named ideals) of a fixture, or of the Taft algebra over F_7."""
    if name == "taft over F7":
        return taft_hopf_algebra(PrimeField(7)), []
    doc = load_document(fixture_dir / name)
    h = doc.hopf
    return h, [right_ideal_from_generators(h, gens) for gens in doc.ideal_generators.values()]


def _bimodules(h, ideals):
    """The bimodule of the universal calculus and of every named ideal's
    calculus on both routes, whichever coactions each one has."""
    calcs = [universal_calculus(h)]
    calcs += [route(h, ideal) for ideal in ideals
              for route in (calculus_from_ideal, calculus_from_ideal_right)]
    out = []
    for calc in calcs:
        try:
            out.append(calc.to_bimodule())
        except NotCovariant:
            pass
    return out


def _agree(cb) -> list:
    """The violations of verify(), asserted equal to the reference's."""
    got = cb.verify().violations
    assert got == bimodule_laws_by_kron(cb).violations
    return got


def _bumped(m: Matrix) -> Matrix:
    """m with 1 added to its first stored entry (or to entry (0, 0))."""
    f = m.field
    key = min(m.entries, default=(0, 0))
    entries = dict(m.entries)
    entries[key] = f.add(entries.get(key, f.zero()), f.one())
    return Matrix(f, m.rows, m.cols, entries)


def _corruptions(cb):
    """(family, bimodule) with one map of left, right, Δ^l or Δ^r bumped."""
    h = cb.h
    for family in ("left", "right"):
        for a in range(len(cb.left)):
            actions = {"left": list(cb.left), "right": list(cb.right)}
            actions[family][a] = _bumped(actions[family][a])
            yield family, CovariantBimodule._trusted(h, cb.dims, actions["left"], actions["right"],
                                                     cb.delta_l, cb.delta_r)
    for family in ("delta_l", "delta_r"):
        for key in getattr(cb, family) or {}:
            maps = dict(getattr(cb, family))
            maps[key] = _bumped(maps[key])
            coactions = {"delta_l": cb.delta_l, "delta_r": cb.delta_r, family: maps}
            yield family, CovariantBimodule._trusted(h, cb.dims, cb.left, cb.right, **coactions)


@pytest.mark.parametrize("name", FIXTURES + ["taft over F7"])
def test_bimodule_laws_agree_with_kron_form(name, fixture_dir):
    """Every calculus bimodule, and reconstruct's rebuild of each one whose
    structure extracts, passes both forms alike."""
    h, ideals = _structure(name, fixture_dir)
    bims = _bimodules(h, ideals)
    assert bims
    rebuilt = 0
    for cb in bims:
        assert _agree(cb) == []
        if not cb.bicovariant or h.psi is None:
            continue
        data = extract_structure(cb)
        if not data.report.ok:
            continue
        assert _agree(reconstruct(h, data.f, data.R, data.size)) == []
        rebuilt += 1
    if not name.startswith("taft"):
        assert rebuilt > 0


@pytest.mark.parametrize("name", FIXTURES + ["taft over F7"])
def test_corrupted_bimodule_laws_agree_with_kron_form(name, fixture_dir):
    """One map bumped at a time: both forms name the same failed laws,
    gradings and witness columns."""
    h, _ = _structure(name, fixture_dir)
    cb = universal_calculus(h).to_bimodule()
    failing = {family for family, bad in _corruptions(cb) if _agree(bad)}
    assert failing == {"left", "right", "delta_l", "delta_r"}


def _with_bumped(h: HopfPiCoalgebra, which: str, key) -> HopfPiCoalgebra:
    comult, mult, antipode = dict(h.comult), list(h.mult), list(h.antipode)
    target = {"comult": comult, "mult": mult, "antipode": antipode}[which]
    target[key] = _bumped(target[key])
    return HopfPiCoalgebra(h.group, h.field, h.dims, comult, h.counit, mult, h.unit,
                           antipode, psi=h.psi, basis_names=h.basis_names)


def _hopf_agree(h) -> list:
    pi = verify_pi_coalgebra(h).violations
    hopf = verify_hopf(h).violations
    assert pi == pi_coalgebra_laws_by_kron(h).violations
    assert hopf == hopf_laws_by_kron(h).violations
    return pi + hopf


@pytest.mark.parametrize("name", FIXTURES + ["kz2_bad_antipode.json"])
def test_hopf_axioms_agree_with_kron_form(name, fixture_dir):
    h = load_document(fixture_dir / name).hopf
    found = _hopf_agree(h)
    assert bool(found) == (name == "kz2_bad_antipode.json")


@pytest.mark.parametrize("name", ["kz2_constant_z2.json", "f7_z3.json", "taft4_rational.json"])
def test_bumped_hopf_axioms_agree_with_kron_form(name, fixture_dir):
    """Δ, m or S with one entry bumped, one map at a time."""
    h = load_document(fixture_dir / name).hopf
    cases = ([("comult", key) for key in h.comult]
             + [(which, a) for which in ("mult", "antipode") for a in h.group.elements()])
    for which, key in cases:
        found = _hopf_agree(_with_bumped(h, which, key))
        assert found, (which, key)
