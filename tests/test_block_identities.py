"""The block forms of the f/g, convolution-inverse and intertwiner
identities against their per-entry references.

Each of the five checks that states a family of functionals as one
stacked matrix T_α per grading (check_characters,
check_convolution_inverses, check_commutation_rule,
check_left_multiplication_rule, intertwiner_report) must report exactly
what its per-entry form in `oracles` reports: the same violations in the
same order, compared as (check, grading, basis_index, detail).  So must
the grading collapse that builds the functionals.  The references take
the nested data, one block or functional per (α, i, j), converted from
the stacked matrices; the stacked coefficient maps and functionals
themselves must equal the ones stacked from the nested references.

The structures are the bimodules of every fixture document (universal
calculus and each named ideal), of k[ℤ/n] over F₁₀₁ and ℚ for n = 4 … 9,
of the Taft algebra over F₇ and F₁₁ and of constant families over S₃.
The data are the extracted ones and four perturbations of them, each of
which must break at least one identity.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
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
from hopfpi.linalg import Matrix, PrimeField, QQ
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
    coefficient_maps_by_blocks,
    collapse_by_entries,
    intertwiner_report_by_entries,
    nested_functionals,
    nested_maps,
    r_blocks,
    r_matrices,
    s3_group,
    stack_functionals,
    stack_maps,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
F101 = PrimeField(101)


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
            constant_family(group_algebra(cyclic(n), PrimeField(p)), s3_group()))))
    return out


CALCULI = dict(_fixture_calculi() + _generated_calculi())


@lru_cache(maxsize=None)
def _raw(label: str):
    """The bimodule and its F, f, R, η, G, g, none of the identities of f
    or g checked; R, η, G, g are None where R or η fails its identities."""
    bim = CALCULI[label]().to_bimodule()
    h = bim.h
    F = coefficient_maps(bim, [bim.omega(a) for a in h.group.elements()])
    f = _collapse(h, F) if h.psi is not None else None
    R = eta = G = g = None
    if bim.bicovariant:
        R, report = matrix_R(bim)
        if report.ok:
            eta, report = eta_basis(bim, R)
        if not report.ok:
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
        Fn, fn = nested_maps(h, F), nested_functionals(h, f)
        pairs += [
            (check_characters(h, f, "f"), check_characters_by_entries(h, fn, "f")),
            (check_commutation_rule(h, F, f, "left"),
             check_commutation_rule_by_entries(h, Fn, fn, "left")),
            (check_left_multiplication_rule(bim, omega, f, "left"),
             check_left_multiplication_rule_by_entries(bim, omega, fn, "left")),
            (check_convolution_inverses(h, f), check_convolution_inverses_by_entries(h, fn)),
        ]
    if g is not None:
        Gn, gn = nested_maps(h, G), nested_functionals(h, g)
        pairs += [
            (check_characters(h, g, "g"), check_characters_by_entries(h, gn, "g")),
            (check_commutation_rule(h, G, g, "right"),
             check_commutation_rule_by_entries(h, Gn, gn, "right")),
            (check_left_multiplication_rule(bim, eta, g, "right"),
             check_left_multiplication_rule_by_entries(bim, eta, gn, "right")),
        ]
    if f is not None and g is not None and R is not None:
        grads = list(h.group.elements())
        pairs += [
            (intertwiner_report(h, f, g, R, grads),
             intertwiner_report_by_entries(h, fn, gn, R, grads)),
            (intertwiner_report(h, f, f, R, [e], names=("f", "f")),
             intertwiner_report_by_entries(h, fn, fn, R, [e], names=("f", "f"))),
        ]
    total = 0
    for k, (block, entries) in enumerate(pairs):
        assert _listed(block) == _listed(entries), k
        total += len(block)
    return total


def _swap(funcs, first, second):
    """funcs with the functionals at index pairs `first` and `second`
    exchanged: rows (i, j) and (k, m) of every T_α swapped."""
    size = isqrt(funcs[0].rows)
    x, y = (i * size + j for i, j in (first, second))
    swap = {x: y, y: x}
    return [Matrix(t.field, t.rows, t.cols, {(swap.get(r, r), c): v
                                             for (r, c), v in t.entries.items()})
            for t in funcs]


def _bump_R(h, R):
    """R with the unit added to R^1_00."""
    e = h.group.identity
    bad = r_blocks(h, R)
    bad[e][0][0] = tuple(h.field.add(x, y) for x, y in zip(bad[e][0][0], h.unit[e]))
    return r_matrices(h, bad)


def _scale_first(h, frames):
    """The frames with their first vector (column 0) doubled in every grading."""
    f = h.field
    two = f.from_int(2)
    return [Matrix(f, w.rows, w.cols, {(r, c): f.mul(two, x) if c == 0 else x
                                       for (r, c), x in w.entries.items()}) for w in frames]


@pytest.mark.parametrize("label", list(CALCULI))
def test_block_checks_match_entry_references(label):
    bim, F, f, R, eta, G, g = _raw(label)
    h = bim.h
    omega = [bim.omega(a) for a in h.group.elements()]
    if f is not None:
        assert f == stack_functionals(h, collapse_by_entries(h, nested_maps(h, F)))
    if g is not None:
        assert g == stack_functionals(h, collapse_by_entries(h, nested_maps(h, G)))
    _compare(bim, F, f, R, omega, eta, G, g)

    # on a frame of size 1 a swap has nothing to exchange, and over a
    # commutative and cocommutative algebra R_00 a f = (f * a) R_00 holds for
    # any R_00, so every perturbation runs where the frame has two vectors
    size = omega[h.group.identity].cols
    if f is not None and size >= 2:
        assert _compare(bim, F, _swap(f, (0, 0), (0, 1)), R, omega, eta, G, g) > 0
    if g is not None and size >= 2:
        assert _compare(bim, F, f, R, omega, eta, G, _swap(g, (0, 1), (1, 0))) > 0
    if f is not None and g is not None and R is not None and size >= 2:
        assert _compare(bim, F, f, _bump_R(h, R), omega, eta, G, g) > 0
    if f is not None and size >= 2:
        assert _compare(bim, F, f, R, _scale_first(h, omega), eta and _scale_first(h, eta),
                        G, g) > 0


@pytest.mark.parametrize("label", list(CALCULI))
def test_stacked_data_match_the_nested_references(label):
    """F and G equal the n_α × n_α blocks split out one entry at a time and
    stacked, and f and g the functionals collapsed from those blocks one
    (α, i, j) at a time and stacked."""
    bim, F, f, R, eta, G, g = _raw(label)
    h = bim.h
    blocks = coefficient_maps_by_blocks(bim, [bim.omega(a) for a in h.group.elements()])
    assert F == stack_maps(h, blocks)
    if f is not None:
        assert f == stack_functionals(h, collapse_by_entries(h, blocks))
    if eta is not None:
        blocks = coefficient_maps_by_blocks(bim, eta)
        assert G == stack_maps(h, blocks)
        if g is not None:
            assert g == stack_functionals(h, collapse_by_entries(h, blocks))


def test_every_perturbation_is_exercised():
    """The perturbations above run on some structure, so the agreement on
    violations is not vacuous: F₁₀₁[ℤ/6] has a frame of size 5, f, g and R."""
    bim, F, f, R, eta, G, g = _raw("F101[Z/6]")
    assert f[0].rows == 5 * 5 and g is not None and R is not None
