"""The coaction matrix R and the η frame against their per-vector references.

`matrix_R`, `check_corepresentation`, `eta_basis` and
`check_eta_left_coaction` state each identity as one sparse product per
grading or grading pair; the references in `oracles.py` state it one
vector at a time.  On lawful and on corrupted bimodules both must give the
same verdicts, the same violated (check, grading) pairs, the same R block
by block and the same η.
"""

from __future__ import annotations

import copy

import pytest

from hopfpi import (
    HopfPiCoalgebra,
    PrimeField,
    calculus_from_ideal,
    calculus_from_ideal_right,
    check_bicovariant,
    enumerate_right_ideals,
    eta_basis,
    load_document,
    matrix_R,
    right_ideal_from_generators,
    taft_hopf_algebra,
    universal_calculus,
)
from hopfpi.structure import check_corepresentation, check_eta_left_coaction
from oracles import (
    check_corepresentation_by_vectors,
    check_eta_left_coaction_by_vectors,
    eta_basis_by_vectors,
    matrix_R_by_vectors,
    r_blocks,
    r_matrices,
)

FIXTURES = ["kz2_rational.json", "f7_z3.json", "kz2_constant_z2.json",
            "f7z3_constant_z2.json", "taft4_rational.json", "q_z3_skew_basis.json"]


def _bimodules(h, ideals):
    """The bimodule of the universal calculus and of every bicovariant
    calculus of `ideals`, on the left and on the right route."""
    calcs = [universal_calculus(h)]
    calcs += [route(h, ideal) for ideal in ideals
              for route in (calculus_from_ideal, calculus_from_ideal_right)]
    return [calc.to_bimodule() for calc in calcs if check_bicovariant(calc).ok]


def _violated(report) -> set:
    return {(v.check, v.grading) for v in report.violations}


def _agree(cb, R=None) -> set:
    """Run R, its corepresentation laws, η and the η left coaction in both
    forms, assert that they agree, and return the violated pairs."""
    h = cb.h
    found = set()
    if R is None:
        R, report = matrix_R(cb)
        R_ref, report_ref = matrix_R_by_vectors(cb)
        violated = _violated(report)
        assert violated == _violated(report_ref)
        assert r_blocks(h, R) == R_ref
        if not report.ok:
            return violated
    R_ref = r_blocks(h, R)
    corep = _violated(check_corepresentation(h, R))
    assert corep == _violated(check_corepresentation_by_vectors(h, R_ref))
    found |= corep
    eta, report = eta_basis(cb, R)
    eta_ref, report_ref = eta_basis_by_vectors(cb, R_ref)
    violated = _violated(report)
    assert violated == _violated(report_ref)
    assert eta == eta_ref
    found |= violated
    if report.ok:
        violated = _violated(check_eta_left_coaction(cb, R, eta))
        assert violated == _violated(check_eta_left_coaction_by_vectors(cb, R_ref, eta_ref))
        found |= violated
    return found


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_bimodules_agree(name, fixture_dir):
    doc = load_document(fixture_dir / name)
    h = doc.hopf
    ideals = [right_ideal_from_generators(h, gens) for gens in doc.ideal_generators.values()]
    for cb in _bimodules(h, ideals):
        assert _agree(cb) == set()


@pytest.mark.parametrize("p", [7, 11])
def test_taft_bimodules_agree(p):
    h = taft_hopf_algebra(PrimeField(p))
    bims = _bimodules(h, enumerate_right_ideals(h))
    assert len(bims) > 1
    for cb in bims:
        assert _agree(cb) == set()


def test_every_enumerable_ideal_on_f7z3_agrees(fixture_dir):
    h = load_document(fixture_dir / "f7_z3.json").hopf
    bims = _bimodules(h, enumerate_right_ideals(h))
    assert len(bims) > 1
    for cb in bims:
        assert _agree(cb) == set()


# -- corrupted data ---------------------------------------------------------


def _corrupted(cb, **changes):
    """A shallow copy of cb with attributes replaced; it keeps cb's ω frames
    by reading them through cb's own omega and omega_space."""
    bad = copy.copy(cb)
    bad.omega_space, bad.omega = cb.omega_space, cb.omega
    for key, value in changes.items():
        setattr(bad, key, value)
    return bad


@pytest.fixture(scope="module")
def lawful(fixture_dir):
    """Universal-calculus bimodules of sizes 1 and 2, over trivial and Z/2 gradings."""
    names = ["kz2_rational.json", "f7_z3.json", "kz2_constant_z2.json", "f7z3_constant_z2.json"]
    return [universal_calculus(load_document(fixture_dir / n).hopf).to_bimodule() for n in names]


def test_doubled_right_coaction_agrees(lawful):
    for cb in lawful:
        bad = _corrupted(cb, delta_r={k: m + m for k, m in cb.delta_r.items()})
        checks = {check for check, _ in _agree(bad)}
        assert checks == {"coaction-matrix-comultiplication", "coaction-matrix-counit"}


def test_right_coaction_doubled_off_the_identity_grading_agrees(lawful):
    """Δ^r_{s,β} doubled leaves R^β from α = 1 lawful but makes it depend on α."""
    for cb in lawful:
        h = cb.h
        if h.group.order == 1:
            continue
        s = next(a for a in h.group.elements() if a != h.group.identity)
        delta_r = {k: m + m if k[0] == s else m for k, m in cb.delta_r.items()}
        violated = _agree(_corrupted(cb, delta_r=delta_r))
        assert violated == {("coaction-matrix-comultiplication", (s, b))
                            for b in h.group.elements()}


def test_bumped_R_entry_agrees(lawful):
    for cb in lawful:
        h = cb.h
        e = h.group.identity
        R, report = matrix_R(cb)
        assert report.ok
        blocks = r_blocks(h, R)
        blocks[e][0][0] = tuple(h.field.add(x, y) for x, y in zip(blocks[e][0][0], h.unit[e]))
        assert "coaction-matrix-counit" in {check for check, _ in _agree(cb, r_matrices(h, blocks))}


def test_doubled_unit_agrees(lawful):
    for cb in lawful:
        h = cb.h
        unit = [tuple(h.field.add(x, x) for x in u) for u in h.unit]
        doubled = HopfPiCoalgebra(h.group, h.field, h.dims, h.comult, h.counit, h.mult, unit,
                                  h.antipode, psi=h.psi, basis_names=h.basis_names)
        assert _agree(_corrupted(cb, h=doubled))
