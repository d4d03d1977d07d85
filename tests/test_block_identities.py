"""The block forms of the f/g, convolution-inverse and intertwiner
identities against their per-entry references.

Each of the five checks that states a family of functionals as one
stacked matrix T_α per grading (check_characters,
check_convolution_inverses, check_commutation_rule,
check_left_multiplication_rule, intertwiner_report) must report exactly
what its per-entry form in `oracles` reports: the same violations in the
same order, compared as (check, grading, basis_index, detail).  So must
the grading collapse that builds the functionals.

The structures are the bimodules of every fixture document (universal
calculus and each named ideal), of k[ℤ/n] over F₁₀₁ and ℚ for n = 4 … 9,
of the Taft algebra over F₇ and F₁₁ and of constant families over S₃.
The data are the extracted ones and four perturbations of them, each of
which must break at least one identity.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from pathlib import Path

import pytest

from hopfpi import (
    calculus_from_ideal,
    constant_family,
    cyclic,
    group_algebra,
    load_document,
    right_ideal_from_generators,
    taft_hopf_algebra,
    universal_calculus,
    verify_all,
)
from hopfpi.errors import HopfPiError
from hopfpi.groups import group_from_table
from hopfpi.linalg import PrimeField, QQ
from hopfpi.structure import (
    _collapse,
    check_characters,
    check_commutation_rule,
    check_convolution_inverses,
    check_left_multiplication_rule,
    coefficient_maps,
    eta_basis,
    intertwiner_report,
    matrix_R,
)
from oracles import (
    check_characters_by_entries,
    check_commutation_rule_by_entries,
    check_convolution_inverses_by_entries,
    check_left_multiplication_rule_by_entries,
    collapse_by_entries,
    intertwiner_report_by_entries,
    r_blocks,
    r_matrices,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
F101 = PrimeField(101)


def _s3():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return group_from_table([[index[tuple(p[q[x]] for x in range(3))] for q in perms]
                             for p in perms])


def _fixture_calculi():
    """(label, calculus builder) for the universal calculus and every named
    ideal of every fixture document whose Hopf axioms hold (a calculus of
    the others has no bimodule)."""
    out = []
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        if not verify_all(load_document(path).hopf).ok:
            continue
        out.append((f"{path.stem}/universal", lambda p=path: universal_calculus(
            load_document(p).hopf)))
        for name in sorted(load_document(path).ideal_generators):
            def build(p=path, name=name):
                doc = load_document(p)
                ideal = right_ideal_from_generators(doc.hopf, doc.ideal_generators[name])
                return calculus_from_ideal(doc.hopf, ideal)
            out.append((f"{path.stem}/{name}", build))
    return out


def _generated_calculi():
    out = []
    for field, tag in ((F101, "F101"), (QQ, "Q")):
        for n in range(4, 10):
            out.append((f"{tag}[Z/{n}]", lambda field=field, n=n: universal_calculus(
                group_algebra(cyclic(n), field))))
    for p in (7, 11):
        out.append((f"Taft/F{p}", lambda p=p: universal_calculus(
            taft_hopf_algebra(PrimeField(p)))))
    for p, n in ((5, 4), (7, 4), (101, 3)):
        out.append((f"F{p}[Z/{n}] over S3", lambda p=p, n=n: universal_calculus(
            constant_family(group_algebra(cyclic(n), PrimeField(p)), _s3()))))
    return out


CALCULI = dict(_fixture_calculi() + _generated_calculi())


@lru_cache(maxsize=None)
def _raw(label: str):
    """The bimodule and its F, f, R, η, G, g, none of their identities
    checked; R, η, G, g are None where R or η cannot be built."""
    bim = CALCULI[label]().to_bimodule()
    F = coefficient_maps(bim)
    h = bim.h
    f = _collapse(h, F) if h.psi is not None else None
    R = eta = G = g = None
    if bim.bicovariant:
        try:
            R = matrix_R(bim)
            eta = eta_basis(bim, R)
        except HopfPiError:
            R = eta = None
    if eta is not None:
        G = coefficient_maps(bim, eta)
        g = _collapse(h, G) if h.psi is not None else None
    return bim, F, f, R, eta, G, g


def _listed(report) -> list:
    return [(v.check, v.grading, v.basis_index, v.detail) for v in report.violations]


def _compare(bim, F, f, R, omega, eta, G, g) -> int:
    """Assert that each block check reports exactly what its per-entry
    reference does on this data; return the number of violations."""
    h = bim.h
    e = h.group.identity
    pairs = []
    if f is not None:
        pairs += [
            (check_characters(h, f, "f"), check_characters_by_entries(h, f, "f")),
            (check_commutation_rule(h, F, f, "left"),
             check_commutation_rule_by_entries(h, F, f, "left")),
            (check_left_multiplication_rule(bim, omega, f, "left"),
             check_left_multiplication_rule_by_entries(bim, omega, f, "left")),
            (check_convolution_inverses(h, f), check_convolution_inverses_by_entries(h, f)),
        ]
    if g is not None:
        pairs += [
            (check_characters(h, g, "g"), check_characters_by_entries(h, g, "g")),
            (check_commutation_rule(h, G, g, "right"),
             check_commutation_rule_by_entries(h, G, g, "right")),
            (check_left_multiplication_rule(bim, eta, g, "right"),
             check_left_multiplication_rule_by_entries(bim, eta, g, "right")),
        ]
    if f is not None and g is not None and R is not None:
        grads = list(h.group.elements())
        pairs += [
            (intertwiner_report(h, f, g, R, grads),
             intertwiner_report_by_entries(h, f, g, R, grads)),
            (intertwiner_report(h, f, f, R, [e], names=("f", "f")),
             intertwiner_report_by_entries(h, f, f, R, [e], names=("f", "f"))),
        ]
    total = 0
    for k, (block, entries) in enumerate(pairs):
        assert _listed(block) == _listed(entries), k
        total += len(block)
    return total


def _swap(funcs, first, second):
    """funcs with the entries at index pairs `first` and `second` exchanged."""
    out = [list(row) for row in funcs]
    (i, j), (k, m) = first, second
    out[i][j], out[k][m] = funcs[k][m], funcs[i][j]
    return out


def _bump_R(h, R):
    """R with the unit added to R^1_00."""
    e = h.group.identity
    bad = r_blocks(h, R)
    bad[e][0][0] = tuple(h.field.add(x, y) for x, y in zip(bad[e][0][0], h.unit[e]))
    return r_matrices(h, bad)


def _scale_first(h, frames):
    """The frames with their first vector doubled in every grading."""
    two = h.field.from_int(2)
    return [[tuple(h.field.mul(two, x) for x in frame[0])] + list(frame[1:])
            for frame in frames]


@pytest.mark.parametrize("label", list(CALCULI))
def test_block_checks_match_entry_references(label):
    bim, F, f, R, eta, G, g = _raw(label)
    h = bim.h
    omega = [bim.omega(a) for a in h.group.elements()]
    if f is not None:
        assert [[phi.components for phi in row] for row in f] == \
            [[phi.components for phi in row] for row in collapse_by_entries(h, F)]
    if g is not None:
        assert [[phi.components for phi in row] for row in g] == \
            [[phi.components for phi in row] for row in collapse_by_entries(h, G)]
    _compare(bim, F, f, R, omega, eta, G, g)

    # on a frame of size 1 a swap has nothing to exchange, and over a
    # commutative and cocommutative algebra R_00 a f = (f * a) R_00 holds for
    # any R_00, so every perturbation runs where the frame has two vectors
    size = len(omega[h.group.identity])
    if f is not None and size >= 2:
        assert _compare(bim, F, _swap(f, (0, 0), (0, 1)), R, omega, eta, G, g) > 0
    if g is not None and size >= 2:
        assert _compare(bim, F, f, R, omega, eta, G, _swap(g, (0, 1), (1, 0))) > 0
    if f is not None and g is not None and R is not None and size >= 2:
        assert _compare(bim, F, f, _bump_R(h, R), omega, eta, G, g) > 0
    if f is not None and size >= 2:
        assert _compare(bim, F, f, R, _scale_first(h, omega), eta and _scale_first(h, eta),
                        G, g) > 0


def test_every_perturbation_is_exercised():
    """The perturbations above run on some structure, so the agreement on
    violations is not vacuous: F₁₀₁[ℤ/6] has a frame of size 5, f, g and R."""
    bim, F, f, R, eta, G, g = _raw("F101[Z/6]")
    assert len(f) == 5 and g is not None and R is not None
